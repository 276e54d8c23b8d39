//! Property tests of workload geometry invariants.

use fs::FileId;
use proptest::prelude::*;
use workloads::{BtClass, BtIo, BtSubtype, FileType, MadBench};

fn square_procs() -> impl Strategy<Value = usize> {
    (2usize..9).prop_map(|n| n * n)
}

fn any_class() -> impl Strategy<Value = BtClass> {
    prop_oneof![
        Just(BtClass::S),
        Just(BtClass::A),
        Just(BtClass::B),
        Just(BtClass::C),
    ]
}

proptest! {
    /// The simple-subtype line decomposition partitions every dump exactly:
    /// offsets unique, sizes sum to the dump size, and per-rank op counts
    /// sum to the global line count.
    #[test]
    fn btio_lines_partition_dump(class in any_class(), procs in square_procs()) {
        let bt = BtIo::new(class, procs, BtSubtype::Simple);
        let mut bytes = 0u64;
        let mut offsets = std::collections::BTreeSet::new();
        for l in 0..bt.lines_per_dump() {
            let (off, sz) = bt.line_location(l);
            prop_assert!(offsets.insert(off), "duplicate offset for line {}", l);
            bytes += sz;
        }
        prop_assert_eq!(bytes, bt.dump_bytes());
        let per_rank: u64 = (0..procs).map(|r| bt.simple_ops_per_rank_per_dump(r)).sum();
        prop_assert_eq!(per_rank, bt.lines_per_dump());
    }

    /// The full-subtype chunks tile the dump contiguously for any square
    /// process count and class.
    #[test]
    fn btio_full_chunks_tile(class in any_class(), procs in square_procs()) {
        let bt = BtIo::new(class, procs, BtSubtype::Full);
        let mut expected = 0u64;
        for r in 0..procs {
            let (off, len) = bt.full_chunk(r);
            prop_assert_eq!(off, expected);
            prop_assert!(len > 0);
            expected += len;
        }
        prop_assert_eq!(expected, bt.dump_bytes());
    }

    /// Column extents always sum to the mesh edge, and line sizes follow.
    #[test]
    fn btio_columns_cover_mesh(class in any_class(), procs in square_procs()) {
        let bt = BtIo::new(class, procs, BtSubtype::Simple);
        let dims = bt.col_dims();
        prop_assert_eq!(dims.iter().sum::<u64>(), class.size());
        prop_assert_eq!(dims.len() as u64, bt.ncells());
        for (c, &d) in dims.iter().enumerate() {
            prop_assert_eq!(bt.line_bytes(c), 40 * d);
        }
    }

    /// MADbench SHARED offsets never overlap across (rank, bin) pairs and
    /// stay component-aligned; UNIQUE offsets are disjoint per file.
    #[test]
    fn madbench_offsets_disjoint(procs in square_procs(), kpix in 1u64..8) {
        for ft in [FileType::Shared, FileType::Unique] {
            let mb = MadBench::new(procs, ft).with_kpix(kpix);
            let comp = mb.component_bytes();
            prop_assume!(comp > 0);
            let mut seen = std::collections::BTreeSet::new();
            for r in 0..procs {
                for b in 0..mb.bins {
                    let key = (mb.file_of(r), mb.offset_of(r, b));
                    prop_assert!(seen.insert(key), "overlap {:?}", key);
                    prop_assert_eq!(key.1 % comp, 0, "unaligned offset");
                }
            }
        }
    }

    /// The file a rank uses is its own under UNIQUE and common under SHARED.
    #[test]
    fn madbench_file_identity(procs in square_procs()) {
        let unique = MadBench::new(procs, FileType::Unique);
        let shared = MadBench::new(procs, FileType::Shared);
        let unique_files: std::collections::BTreeSet<FileId> =
            (0..procs).map(|r| unique.file_of(r)).collect();
        prop_assert_eq!(unique_files.len(), procs);
        let shared_files: std::collections::BTreeSet<FileId> =
            (0..procs).map(|r| shared.file_of(r)).collect();
        prop_assert_eq!(shared_files.len(), 1);
    }
}

/// Grammars that exercise every rule, distribution form and file mount,
/// as seeds for mutation.
const GRAMMARS: [&str; 2] = [
    workloads::grammar::EXAMPLE,
    "\
scenario wide
ranks 2..4
file a on nfs
file b on local
phase p repeat 2 {
  loop 1|2 {
    read a block 4096..65536 pow2 count 2..3 stride 1|3
    choose 2 { write b block 1K count 2 collective } or { barrier }
  }
  compute 10
  sync b
}
",
];

/// Tokens a grammar is made of, for text that is nearly a grammar; a
/// line break is one more.
const TOKENS: &str = "scenario ranks file on nfs local phase repeat { } write read block \
    count stride collective compute barrier sync loop choose or pow2 a 0 1 3 1..4 2|8 64K \
    18446744073709551615";

/// Any one of [`TOKENS`].
fn token() -> impl Strategy<Value = &'static str> {
    let tokens: Vec<&'static str> = TOKENS.split_whitespace().chain(["\n"]).collect();
    (0..tokens.len()).prop_map(move |i| tokens[i])
}

/// Values a number of a grammar is set to: `u64::MAX` and one past it,
/// powers of two that overflow once multiplied, the largest compute step
/// (in microseconds) that fits in `Time`, zero and an inverted range.
const EXTREMES: [&str; 7] = [
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775808",
    "4294967296",
    "18446744073709551",
    "0",
    "4..2",
];

/// One edit of a grammar's text.
#[derive(Clone, Debug)]
enum Mutation {
    /// The `n`-th number (mod their count), size suffix and all, becomes
    /// `by`.
    Number(usize, &'static str),
    /// Line `n` appears twice.
    DuplicateLine(usize),
    /// Line `n` goes.
    DropLine(usize),
    /// A token goes in before byte `n` (rounded down to a char boundary).
    Insert(usize, &'static str),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 0..EXTREMES.len()).prop_map(|(n, i)| Mutation::Number(n, EXTREMES[i])),
        (any::<usize>(), Just(EXTREMES[0])).prop_map(|(n, by)| Mutation::Number(n, by)),
        any::<usize>().prop_map(Mutation::DuplicateLine),
        any::<usize>().prop_map(Mutation::DropLine),
        (any::<usize>(), token()).prop_map(|(n, t)| Mutation::Insert(n, t)),
    ]
}

/// The byte ranges of the numbers in `src`, each with its size suffix.
fn numbers(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            if i < b.len() && b"KMGkmg".contains(&b[i]) {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

/// `src` with `m` applied.
fn mutate(src: &str, m: &Mutation) -> String {
    let mut lines: Vec<&str> = src.lines().collect();
    let line = |n: usize| n % lines.len().max(1);
    match *m {
        Mutation::Number(n, by) => {
            let spans = numbers(src);
            match spans.get(n % spans.len().max(1)) {
                Some(&(a, b)) => format!("{}{by}{}", &src[..a], &src[b..]),
                None => src.to_string(),
            }
        }
        Mutation::DuplicateLine(n) if !lines.is_empty() => {
            let at = line(n);
            lines.insert(at, lines[at]);
            lines.join("\n")
        }
        Mutation::DropLine(n) if !lines.is_empty() => {
            lines.remove(line(n));
            lines.join("\n")
        }
        Mutation::Insert(n, token) => {
            let mut at = n % (src.len() + 1);
            while !src.is_char_boundary(at) {
                at -= 1;
            }
            format!("{} {token} {}", &src[..at], &src[at..])
        }
        Mutation::DuplicateLine(_) | Mutation::DropLine(_) => src.to_string(),
    }
}

/// Parses `src` and, when it parses, runs its first `variants` variants
/// under `seed` through `scenario` and pulls every op of every rank:
/// parsing must reject the text with a `GrammarError` or yield programs
/// within `MAX_RANK_OPS` rank-ops, each rank issuing exactly
/// `ops_per_rank` ops whose compute times sum inside `Time`. Nothing may
/// panic on the way.
fn check_grammar(src: &str, seed: u64, variants: usize) -> Result<(), TestCaseError> {
    let Ok(g) = workloads::Grammar::parse(src) else {
        return Ok(());
    };
    for index in 0..variants {
        let v = g.variant(seed, index);
        let mut rank_ops = 0u64;
        for mut program in v.scenario().programs {
            let (mut ops, mut compute) = (0u64, Some(0u64));
            while let Some(op) = program.next_op() {
                ops += 1;
                if let mpisim::MpiOp::Compute(d) = op {
                    compute = compute.and_then(|c| c.checked_add(d.0));
                }
            }
            prop_assert_eq!(ops, v.ops_per_rank(), "{}", v.label);
            prop_assert!(
                compute.is_some(),
                "{}: a rank's compute time overflows Time in {src:?}",
                v.label
            );
            rank_ops += ops;
        }
        prop_assert!(
            rank_ops <= workloads::grammar::MAX_RANK_OPS,
            "{}: {rank_ops} rank-ops from {src:?}",
            v.label
        );
    }
    Ok(())
}

/// Every number of every seed grammar, set to each extreme value in turn.
#[test]
fn every_number_at_an_extreme_is_an_error_or_a_bounded_program() {
    for src in GRAMMARS {
        for n in 0..numbers(src).len() {
            for by in EXTREMES {
                let mutated = mutate(src, &Mutation::Number(n, by));
                if let Err(TestCaseError::Fail(why)) = check_grammar(&mutated, 7, 8) {
                    panic!("{why}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text, mostly printable ASCII and line breaks, never
    /// panics the grammar pipeline.
    #[test]
    fn arbitrary_text_is_an_error_or_a_bounded_program(
        words in proptest::collection::vec(any::<u32>(), 0..200),
        seed in any::<u64>(),
    ) {
        let src: String = words
            .iter()
            .map(|&w| match w % 8 {
                0 => char::from_u32(w >> 3).unwrap_or(char::REPLACEMENT_CHARACTER),
                1 => '\n',
                _ => char::from(b' ' + (w >> 3) as u8 % 95),
            })
            .collect();
        check_grammar(&src, seed, 2)?;
    }

    /// Nor does text made of grammar tokens in any order, which parses
    /// further.
    #[test]
    fn token_soup_is_an_error_or_a_bounded_program(
        tokens in proptest::collection::vec(token(), 0..60),
        seed in any::<u64>(),
    ) {
        check_grammar(&format!("scenario s\n{}", tokens.join(" ")), seed, 2)?;
    }

    /// Nor does a grammar edited and then cut short anywhere: numbers set
    /// to `u64::MAX` or other extremes, lines duplicated or dropped,
    /// tokens inserted.
    #[test]
    fn truncated_and_mutated_grammars_are_an_error_or_a_bounded_program(
        base in 0..GRAMMARS.len(),
        cut in any::<usize>(),
        mutations in proptest::collection::vec(mutation(), 0..4),
        seed in any::<u64>(),
    ) {
        let mut src = GRAMMARS[base].to_string();
        for m in &mutations {
            src = mutate(&src, m);
        }
        check_grammar(&src, seed, 2)?;
        let mut at = cut % (src.len() + 1);
        while !src.is_char_boundary(at) {
            at -= 1;
        }
        check_grammar(&src[..at], seed, 2)?;
    }
}
