//! A fast, deterministic, non-cryptographic hasher for hot-path maps.
//!
//! The default `std` hasher (SipHash-1-3) is keyed and DoS-resistant, which
//! simulation-internal maps keyed by small integers (file ids, offsets,
//! node indices) do not need; profiling showed `hash_one` taking a double-
//! digit share of a characterization cell. `FxHasher64` implements the
//! well-known Fx multiply-xor construction: one rotate, one xor and one
//! multiply per 8-byte word. It is fully deterministic across runs and
//! platforms of equal pointer width, which the campaign goldens rely on —
//! no map iteration order may ever feed results, and none does (the
//! simulation only uses point lookups on these maps).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx construction (a large odd constant with good
/// bit-dispersion properties).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A 64-bit Fx hasher: `state = (rotl5(state) ^ word) * SEED` per word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_word(n as u64);
        self.add_word((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher64`] instances.
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` using [`FxHasher64`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher64`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// 64-bit FNV-1a over a byte string: the one stable digest behind content
/// keys, checkpoint integrity, grammar and stream identity, and seed
/// derivation. Stable across hosts and runs; integrity, not
/// authentication.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_deterministic() {
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        assert_eq!(b.hash_one("a string"), b.hash_one("a string"));
        assert_ne!(b.hash_one(1u64), b.hash_one(2u64));
    }

    #[test]
    fn small_integer_keys_disperse() {
        let b = FxBuildHasher::default();
        let mut top_bytes = std::collections::HashSet::new();
        for k in 0u64..64 {
            top_bytes.insert(b.hash_one(k) >> 56);
        }
        // Sequential keys must not collapse into a few buckets.
        assert!(top_bytes.len() > 32, "only {} distinct", top_bytes.len());
    }

    #[test]
    fn byte_slices_hash_by_content_not_alignment() {
        let b = FxBuildHasher::default();
        let long = [7u8; 13];
        assert_eq!(b.hash_one(long.as_slice()), b.hash_one(vec![7u8; 13]));
        assert_ne!(b.hash_one(&[1u8, 2][..]), b.hash_one(&[1u8, 2, 0][..]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(k, k * 3);
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(&k), Some(&(k * 3)));
        }
    }
}
