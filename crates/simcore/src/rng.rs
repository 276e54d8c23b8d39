//! Deterministic pseudo-random numbers.
//!
//! Every stochastic component of the simulators (seek distances, busy-work
//! jitter, access-pattern shuffles) draws from a [`SplitMix64`] seeded by the
//! scenario, so identical scenarios produce byte-identical traces. SplitMix64
//! is tiny, fast, passes BigCrush for this usage, and — unlike thread-local
//! or OS-seeded generators — keeps the whole workspace reproducible.

use serde::{Deserialize, Serialize};

/// Derives a seed from a base seed and a textual label (FNV-1a over the
/// label, folded into the base). Campaign cells seed their stochastic
/// components with `seed_for(campaign_seed, "app::config")`, so every cell
/// draws an independent stream that depends only on *which* cell it is —
/// never on how many cells ran before it or on which worker thread it
/// landed. That is what keeps parallel campaigns byte-identical to
/// sequential ones.
pub fn seed_for(base: u64, label: &str) -> u64 {
    // One SplitMix64 scramble so base and label both diffuse into every bit.
    SplitMix64::new(base ^ crate::hash::fnv1a64(label.as_bytes())).next_u64()
}

/// The SplitMix64 generator (Steele, Lea & Flood; public domain algorithm).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent child generator; used to give each rank or
    /// device its own stream without correlation.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 significant bits, as for standard double-precision uniforms.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0) is meaningless");
        // Multiply-shift bounded generation (Lemire). The modulo bias of the
        // plain approach is irrelevant at our bounds, but this is as cheap.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_below(hi - lo + 1)
    }

    /// A uniform value in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_reference_values() {
        // Reference outputs for seed 0 from the canonical SplitMix64.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(r.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(r.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SplitMix64::new(9);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
        // bound 1 always yields 0.
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = SplitMix64::new(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match r.range_inclusive(10, 12) {
                10 => saw_lo = true,
                12 => saw_hi = true,
                11 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 items left them sorted");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SplitMix64::new(100);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn seed_for_depends_only_on_base_and_label() {
        assert_eq!(seed_for(42, "btio::RAID 5"), seed_for(42, "btio::RAID 5"));
        assert_ne!(seed_for(42, "btio::RAID 5"), seed_for(43, "btio::RAID 5"));
        assert_ne!(seed_for(42, "btio::RAID 5"), seed_for(42, "btio::JBOD"));
        // Near-identical labels must still diverge.
        assert_ne!(seed_for(0, "a"), seed_for(0, "b"));
    }
}
