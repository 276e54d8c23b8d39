//! A declarative scenario grammar for campaign-scale what-if exploration.
//!
//! The paper evaluates a fixed set of hand-coded applications; this module
//! treats workloads as a *grammar* instead: named phases, counted and
//! nested loops, probabilistic branches, and op/size/stride distributions,
//! compiled down to the same op-program form every hand-coded workload
//! uses. A seeded sampler enumerates thousands of concrete variants
//! byte-reproducibly, so a campaign can sweep a workload × configuration
//! grid of 10k+ cells through the supervised scheduler.
//!
//! # Grammar text format
//!
//! Line comments start with `#`. Braces delimit blocks and must be
//! whitespace-separated or adjacent to a token.
//!
//! ```text
//! scenario mixed              # report label prefix
//! ranks 2|4                   # distribution over rank counts
//! file data                   # declare files (optional: on nfs|local|
//! file out on nfs             #   nfs-direct|pfs|server-local)
//!
//! phase checkpoint repeat 1..3 {      # counted loop over the body
//!   choose 3 {                        # probabilistic branch (weight 3)
//!     write data block 256K..1M pow2 count 4
//!   } or 1 {                          # weight 1
//!     write data block 64K count 8 stride 2
//!   }
//!   barrier
//! }
//! phase analyze {
//!   read data block 256K count 4
//!   compute 200..500                  # microseconds
//!   sync out
//! }
//! ```
//!
//! Distributions (`ranks`, `repeat`, `block`, `count`, `stride`,
//! `compute`, `loop`) accept a fixed value (`4M`), a uniform choice list
//! (`1M|4M|16M`), an inclusive integer range (`2..8`), or a power-of-two
//! range (`1M..16M pow2`). Sizes take binary `K`/`M`/`G` suffixes.
//!
//! # Determinism contract
//!
//! Variant `i` of a grammar under campaign seed `s` is resolved by a
//! dedicated [`simcore::SplitMix64`] stream seeded with
//! `seed_for(s, "<name>::v<i>")`: sampling is order-independent (variant
//! 7 is the same whether sampled alone, in a batch, or by a different
//! worker), and [`Variant::describe`] renders the resolved program
//! byte-identically on every host. All randomness is resolved *per
//! variant*, never per rank: every rank of a variant executes the same
//! op shape, differing only in rank-indexed file offsets.

use crate::Scenario;
use cluster::Mount;
use fs::FileId;
use mpisim::{ChunkedStream, MpiOp, OpStream};
use simcore::{seed_for, SplitMix64, Time};
use std::fmt::Write as _;
use std::sync::Arc;

/// FileIds handed to grammar-declared files, in declaration order. The
/// range is private to each evaluation cell (every cell builds its own
/// machine), so a fixed base keeps renders stable across runs.
const GRAMMAR_FILE_BASE: u64 = 0x9000;

/// Digest of a grammar source in *normalized* form — comments stripped,
/// blank lines dropped, runs of whitespace collapsed — so reformatting a
/// grammar does not move its grid identity. This is the value
/// [`Grammar::digest`] carries; it is exposed standalone so callers can
/// key caches/checkpoints by source text even when parsing fails.
pub fn source_digest(src: &str) -> u64 {
    let normalized: String = src
        .lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" ") + "\n")
        .collect();
    simcore::fnv1a64(normalized.as_bytes())
}

/// A typed grammar error: parse failures and semantic violations, with
/// the offending line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrammarError {
    /// 1-based source line of the defect (0 when not line-specific).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for GrammarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "grammar error: {}", self.message)
        } else {
            write!(f, "grammar error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for GrammarError {}

/// A distribution over `u64` values, sampled once per occurrence during
/// variant resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dist {
    /// Always the same value.
    Fixed(u64),
    /// Uniform over an explicit list (`1M|4M|16M`).
    Choice(Vec<u64>),
    /// Uniform integer in `[lo, hi]` (`2..8`).
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Powers of two in `[lo, hi]` (`1M..16M pow2`).
    Pow2 {
        /// Inclusive lower bound (rounded up to a power of two).
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

impl Dist {
    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            Dist::Fixed(v) => *v,
            Dist::Choice(vs) => vs[rng.next_below(vs.len() as u64) as usize],
            Dist::Uniform { lo, hi } => rng.range_inclusive(*lo, *hi),
            Dist::Pow2 { lo, hi } => {
                let lo_exp = 63 - lo.next_power_of_two().leading_zeros();
                let hi_exp = 63 - prev_power_of_two(*hi).leading_zeros();
                1u64 << rng.range_inclusive(lo_exp as u64, hi_exp as u64)
            }
        }
    }

    /// The largest value the distribution can draw.
    fn max(&self) -> u64 {
        match self {
            Dist::Fixed(v) => *v,
            Dist::Choice(vs) => vs.iter().copied().max().unwrap_or(0),
            Dist::Uniform { hi, .. } => *hi,
            Dist::Pow2 { hi, .. } => prev_power_of_two(*hi),
        }
    }
}

fn prev_power_of_two(v: u64) -> u64 {
    debug_assert!(v > 0);
    1u64 << (63 - v.leading_zeros())
}

/// One rule inside a phase body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rule {
    /// A data I/O burst on a declared file.
    Io {
        /// Write (`true`) or read.
        write: bool,
        /// Collective (`WriteAtAll`/`ReadAtAll`) instead of independent.
        collective: bool,
        /// Index into the grammar's file declarations.
        file: usize,
        /// Bytes per operation.
        block: Dist,
        /// Operations per execution of this rule.
        count: Dist,
        /// Cursor advance per op, in blocks (1 = dense, k = strided).
        stride: Dist,
    },
    /// Pure computation (microseconds).
    Compute(Dist),
    /// World barrier.
    Barrier,
    /// `FileSync` on a declared file.
    Sync(usize),
    /// A counted loop; the body is re-resolved every iteration, so
    /// nested distributions re-draw per iteration.
    Loop {
        /// Iteration count.
        count: Dist,
        /// Body rules.
        body: Vec<Rule>,
    },
    /// A probabilistic branch: one arm is chosen per execution, weighted.
    Choose {
        /// `(weight, body)` arms.
        arms: Vec<(u64, Vec<Rule>)>,
    },
}

/// A named phase: `repeat` executions of its body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRule {
    /// Phase name (report/debug label).
    pub name: String,
    /// How many times the body runs (re-resolved per repetition).
    pub repeat: Dist,
    /// Body rules.
    pub body: Vec<Rule>,
}

/// A declared file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileDecl {
    /// Grammar-local name.
    pub name: String,
    /// Mount override (`None`: the configuration's default routing).
    pub mount: Option<Mount>,
}

/// A parsed scenario grammar — the workload *space*; [`Grammar::variant`]
/// and [`Grammar::sample`] draw concrete workloads from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grammar {
    /// Scenario name (prefix of every variant label).
    pub name: String,
    /// Distribution over rank counts.
    pub ranks: Dist,
    /// Declared files, in declaration order.
    pub files: Vec<FileDecl>,
    /// Phases, in declaration order.
    pub phases: Vec<PhaseRule>,
    /// FNV-1a digest of the normalized source text: the grammar's
    /// identity in checkpoint keys and golden-grid pins.
    pub digest: u64,
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Tok {
    text: String,
    line: usize,
}

fn tokenize(src: &str) -> Vec<Tok> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        let code = raw.split('#').next().unwrap_or("");
        for word in code.split_whitespace() {
            // Split braces into their own tokens even when adjacent.
            let mut rest = word;
            while let Some(pos) = rest.find(['{', '}']) {
                if pos > 0 {
                    out.push(Tok {
                        text: rest[..pos].to_string(),
                        line,
                    });
                }
                out.push(Tok {
                    text: rest[pos..=pos].to_string(),
                    line,
                });
                rest = &rest[pos + 1..];
            }
            if !rest.is_empty() {
                out.push(Tok {
                    text: rest.to_string(),
                    line,
                });
            }
        }
    }
    out
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, GrammarError> {
        let line = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line);
        Err(GrammarError {
            line,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(|t| t.text.as_str())
    }

    fn next(&mut self) -> Option<&str> {
        let t = self.toks.get(self.pos).map(|t| t.text.as_str());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, what: &str) -> Result<(), GrammarError> {
        match self.peek() {
            Some(t) if t == what => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.to_string();
                self.err(format!("expected '{what}', found '{t}'"))
            }
            None => self.err(format!("expected '{what}', found end of input")),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, GrammarError> {
        match self.next() {
            Some(t) if t != "{" && t != "}" => Ok(t.to_string()),
            Some(t) => {
                let t = t.to_string();
                self.err(format!("expected {what}, found '{t}'"))
            }
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    /// `64K` / `1M` / `4096` — a scalar with an optional binary suffix.
    fn scalar(&self, tok: &str) -> Result<u64, GrammarError> {
        let (digits, mult) = match tok.as_bytes().last() {
            Some(b'K' | b'k') => (&tok[..tok.len() - 1], 1u64 << 10),
            Some(b'M' | b'm') => (&tok[..tok.len() - 1], 1u64 << 20),
            Some(b'G' | b'g') => (&tok[..tok.len() - 1], 1u64 << 30),
            _ => (tok, 1),
        };
        let v: u64 = match digits.parse() {
            Ok(v) => v,
            Err(_) => return self.err(format!("expected a number, found '{tok}'")),
        };
        v.checked_mul(mult)
            .map_or_else(|| self.err(format!("value '{tok}' overflows")), Ok)
    }

    /// One distribution token (+ optional `pow2` modifier token).
    fn dist(&mut self, what: &str) -> Result<Dist, GrammarError> {
        let tok = match self.next() {
            Some(t) if t != "{" && t != "}" => t.to_string(),
            _ => return self.err(format!("expected {what} distribution")),
        };
        if let Some((lo, hi)) = tok.split_once("..") {
            let lo = self.scalar(lo)?;
            let hi = self.scalar(hi)?;
            if lo > hi || lo == 0 {
                return self.err(format!("bad range '{tok}' (need 0 < lo <= hi)"));
            }
            if self.peek() == Some("pow2") {
                self.pos += 1;
                if lo.next_power_of_two() > prev_power_of_two(hi) {
                    return self.err(format!("range '{tok}' contains no power of two"));
                }
                return Ok(Dist::Pow2 { lo, hi });
            }
            return Ok(Dist::Uniform { lo, hi });
        }
        if tok.contains('|') {
            let vs = tok
                .split('|')
                .map(|p| self.scalar(p))
                .collect::<Result<Vec<u64>, _>>()?;
            if vs.is_empty() || vs.contains(&0) {
                return self.err(format!("bad choice list '{tok}'"));
            }
            return Ok(Dist::Choice(vs));
        }
        let v = self.scalar(&tok)?;
        if v == 0 {
            return self.err(format!("{what} must be positive"));
        }
        Ok(Dist::Fixed(v))
    }

    fn file_ref(&mut self, files: &[FileDecl]) -> Result<usize, GrammarError> {
        let name = self.ident("a file name")?;
        match files.iter().position(|f| f.name == name) {
            Some(i) => Ok(i),
            None => self.err(format!("unknown file '{name}' (declare it with 'file')")),
        }
    }

    /// A `{ rule* }` block.
    fn block(&mut self, files: &[FileDecl]) -> Result<Vec<Rule>, GrammarError> {
        self.expect("{")?;
        let mut body = Vec::new();
        loop {
            match self.peek() {
                Some("}") => {
                    self.pos += 1;
                    return Ok(body);
                }
                Some(_) => body.push(self.rule(files)?),
                None => return self.err("unclosed '{'"),
            }
        }
    }

    fn rule(&mut self, files: &[FileDecl]) -> Result<Rule, GrammarError> {
        let kw = self.ident("a rule keyword")?;
        match kw.as_str() {
            "write" | "read" => {
                let write = kw == "write";
                let file = self.file_ref(files)?;
                self.expect("block")?;
                let block = self.dist("block size")?;
                let mut count = Dist::Fixed(1);
                let mut stride = Dist::Fixed(1);
                let mut collective = false;
                loop {
                    match self.peek() {
                        Some("count") => {
                            self.pos += 1;
                            count = self.dist("count")?;
                        }
                        Some("stride") => {
                            self.pos += 1;
                            stride = self.dist("stride")?;
                        }
                        Some("collective") => {
                            self.pos += 1;
                            collective = true;
                        }
                        _ => break,
                    }
                }
                Ok(Rule::Io {
                    write,
                    collective,
                    file,
                    block,
                    count,
                    stride,
                })
            }
            "compute" => {
                let line = self.toks[self.pos - 1].line;
                let micros = self.dist("compute microseconds")?;
                if micros.max() > u64::MAX / 1_000 {
                    return Err(GrammarError {
                        line,
                        message: "compute time beyond 2^64 ns".into(),
                    });
                }
                Ok(Rule::Compute(micros))
            }
            "barrier" => Ok(Rule::Barrier),
            "sync" => Ok(Rule::Sync(self.file_ref(files)?)),
            "loop" => {
                let count = self.dist("loop count")?;
                let body = self.block(files)?;
                Ok(Rule::Loop { count, body })
            }
            "choose" => {
                let mut arms = Vec::new();
                // Sampling draws below the weights' sum, so it must fit.
                let mut total = 0u64;
                loop {
                    let weight = if self.peek() == Some("{") {
                        1
                    } else {
                        let tok = self.ident("an arm weight")?;
                        self.scalar(&tok)?
                    };
                    if weight == 0 {
                        return self.err("arm weight must be positive");
                    }
                    total = match total.checked_add(weight) {
                        Some(total) => total,
                        None => return self.err("arm weights sum beyond 2^64"),
                    };
                    arms.push((weight, self.block(files)?));
                    if self.peek() == Some("or") {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Ok(Rule::Choose { arms })
            }
            other => {
                let other = other.to_string();
                self.err(format!("unknown rule '{other}'"))
            }
        }
    }
}

/// Rejects a grammar whose variants could exceed [`MAX_RANK_OPS`] or
/// [`MAX_EXTENT`].
fn check_work(ranks: &Dist, ops_per_rank: u64, span: u64, line: usize) -> Result<(), GrammarError> {
    let (ranks, ops_per_rank) = (ranks.max(), ops_per_rank.max(1));
    let message = if ranks.saturating_mul(ops_per_rank) > MAX_RANK_OPS {
        format!(
            "workload too large: up to {ranks} ranks x {ops_per_rank} ops per rank \
             exceeds the ceiling of {MAX_RANK_OPS} rank-ops"
        )
    } else if ranks.saturating_mul(span) > MAX_EXTENT {
        format!(
            "files too large: up to {ranks} ranks x {span} bytes per rank \
             exceeds the ceiling of {MAX_EXTENT} bytes"
        )
    } else {
        return Ok(());
    };
    Err(GrammarError { line, message })
}

/// Ceiling on the work one variant may describe: ranks × MPI ops per rank,
/// each bounded by its distributions' maxima at parse time. Variants are
/// expanded eagerly (every resolved step is stored, every rank gets a
/// program), so a grammar over this ceiling is rejected with a
/// [`GrammarError`] rather than exhausting memory when sampled or run.
pub const MAX_RANK_OPS: u64 = 1 << 22;

/// Ceiling on the bytes one variant's files may span: ranks × the bytes
/// each rank's I/O rules move its file cursors by, bounded at parse time
/// like [`MAX_RANK_OPS`]. Every offset a program issues, and every offset
/// plus length, then stays far from `u64` overflow, in the generator and
/// in the filesystems below it.
pub const MAX_EXTENT: u64 = 1 << 50;

/// Upper bound on the MPI ops one execution of `rules` issues per rank:
/// an I/O rule issues up to its largest `count`, every other step one op,
/// branches take their largest arm, and loops multiply (an empty body
/// still costs one per iteration: the sampler walks every iteration).
/// Saturates instead of overflowing (a saturated bound is over any
/// ceiling).
fn max_ops(rules: &[Rule]) -> u64 {
    rules.iter().fold(0u64, |acc, rule| {
        let ops = match rule {
            Rule::Io { count, .. } => count.max(),
            Rule::Compute(_) | Rule::Barrier | Rule::Sync(_) => 1,
            Rule::Loop { count, body } => count.max().saturating_mul(max_ops(body).max(1)),
            Rule::Choose { arms } => arms.iter().map(|(_, b)| max_ops(b)).max().unwrap_or(0),
        };
        acc.saturating_add(ops)
    })
}

/// Upper bound on the bytes one execution of `rules` moves a rank's file
/// cursors by, summed over files: an I/O rule moves its cursor by up to
/// its largest `count × stride × block`, branches take their largest arm,
/// and loops multiply. Saturates like [`max_ops`].
fn max_span(rules: &[Rule]) -> u64 {
    rules.iter().fold(0u64, |acc, rule| {
        let span = match rule {
            Rule::Io {
                block,
                count,
                stride,
                ..
            } => count
                .max()
                .saturating_mul(stride.max())
                .saturating_mul(block.max()),
            Rule::Compute(_) | Rule::Barrier | Rule::Sync(_) => 0,
            Rule::Loop { count, body } => count.max().saturating_mul(max_span(body)),
            Rule::Choose { arms } => arms.iter().map(|(_, b)| max_span(b)).max().unwrap_or(0),
        };
        acc.saturating_add(span)
    })
}

/// Upper bound on the compute time, in nanoseconds, one execution of
/// `rules` adds to a rank's clock: a `compute` step up to its largest
/// draw, branches take their largest arm, and loops multiply. Saturates
/// at `u64::MAX`, which no sum of whole microseconds reaches, so a
/// saturated bound means the total does not fit in [`Time`].
fn max_compute(rules: &[Rule]) -> u64 {
    rules.iter().fold(0u64, |acc, rule| {
        let ns = match rule {
            Rule::Compute(micros) => micros.max().saturating_mul(1_000),
            Rule::Io { .. } | Rule::Barrier | Rule::Sync(_) => 0,
            Rule::Loop { count, body } => count.max().saturating_mul(max_compute(body)),
            Rule::Choose { arms } => arms.iter().map(|(_, b)| max_compute(b)).max().unwrap_or(0),
        };
        acc.saturating_add(ns)
    })
}

impl Grammar {
    /// Parses a grammar from its text form.
    pub fn parse(src: &str) -> Result<Grammar, GrammarError> {
        let mut p = Parser {
            toks: tokenize(src),
            pos: 0,
        };
        let mut name = None;
        let mut ranks = Dist::Fixed(1);
        let mut files: Vec<FileDecl> = Vec::new();
        let mut phases: Vec<PhaseRule> = Vec::new();
        // Ops per rank so far (each file adds at most an open, a sync and
        // a close around the phases), bytes its file cursors moved, and
        // nanoseconds it computed.
        let (mut ops, mut span, mut compute) = (0u64, 0u64, 0u64);
        while let Some(kw) = p.peek() {
            // The line of the directive that pushes the bound over the
            // ceiling is the one the error names.
            let line = p.toks[p.pos].line;
            match kw {
                "scenario" => {
                    p.pos += 1;
                    name = Some(p.ident("a scenario name")?);
                }
                "ranks" => {
                    p.pos += 1;
                    ranks = p.dist("ranks")?;
                    check_work(&ranks, ops, span, line)?;
                }
                "file" => {
                    p.pos += 1;
                    let fname = p.ident("a file name")?;
                    if files.iter().any(|f| f.name == fname) {
                        return p.err(format!("duplicate file '{fname}'"));
                    }
                    let mount = if p.peek() == Some("on") {
                        p.pos += 1;
                        let m = p.ident("a mount name")?;
                        Some(match m.as_str() {
                            "nfs" => Mount::Nfs,
                            "local" => Mount::Local,
                            "nfs-direct" => Mount::NfsDirect,
                            "pfs" => Mount::Pfs,
                            "server-local" => Mount::ServerLocal,
                            other => {
                                let other = other.to_string();
                                return p.err(format!("unknown mount '{other}'"));
                            }
                        })
                    } else {
                        None
                    };
                    files.push(FileDecl { name: fname, mount });
                    ops = ops.saturating_add(3);
                    check_work(&ranks, ops, span, line)?;
                }
                "phase" => {
                    p.pos += 1;
                    let pname = p.ident("a phase name")?;
                    let repeat = if p.peek() == Some("repeat") {
                        p.pos += 1;
                        p.dist("repeat")?
                    } else {
                        Dist::Fixed(1)
                    };
                    let body = p.block(&files)?;
                    ops = ops.saturating_add(repeat.max().saturating_mul(max_ops(&body).max(1)));
                    span = span.saturating_add(repeat.max().saturating_mul(max_span(&body)));
                    check_work(&ranks, ops, span, line)?;
                    compute =
                        compute.saturating_add(repeat.max().saturating_mul(max_compute(&body)));
                    if compute == u64::MAX {
                        return Err(GrammarError {
                            line,
                            message: "a rank's total compute time beyond 2^64 ns".into(),
                        });
                    }
                    phases.push(PhaseRule {
                        name: pname,
                        repeat,
                        body,
                    });
                }
                other => {
                    let other = other.to_string();
                    return p.err(format!("unknown directive '{other}'"));
                }
            }
        }
        let Some(name) = name else {
            return Err(GrammarError {
                line: 0,
                message: "missing 'scenario <name>' directive".into(),
            });
        };
        if phases.is_empty() {
            return Err(GrammarError {
                line: 0,
                message: "a grammar needs at least one phase".into(),
            });
        }
        Ok(Grammar {
            name,
            ranks,
            files,
            phases,
            digest: source_digest(src),
        })
    }

    /// Resolves variant `index` under `seed` — fully deterministic and
    /// order-independent (see the module-level determinism contract).
    pub fn variant(&self, seed: u64, index: usize) -> Variant {
        let mut rng = SplitMix64::new(seed_for(seed, &format!("{}::v{index}", self.name)));
        let ranks = self.ranks.sample(&mut rng).max(1) as usize;
        let mut steps = Vec::new();
        for phase in &self.phases {
            let reps = phase.repeat.sample(&mut rng);
            for _ in 0..reps {
                resolve_rules(&phase.body, &mut rng, &mut steps);
            }
        }
        // Lay file cursors: each Io step claims the next span of its
        // file's per-rank segment (rank-independent; ranks shift by
        // `rank * seg` at compile time).
        let mut cursor = vec![0u64; self.files.len()];
        let mut any_write = vec![false; self.files.len()];
        let mut any_read = vec![false; self.files.len()];
        let mut used = vec![false; self.files.len()];
        for step in steps.iter_mut() {
            match step {
                Step::Io {
                    write,
                    file,
                    block,
                    count,
                    stride,
                    base,
                    ..
                } => {
                    *base = cursor[*file];
                    cursor[*file] = cursor[*file]
                        .saturating_add(count.saturating_mul(*stride).saturating_mul(*block));
                    used[*file] = true;
                    if *write {
                        any_write[*file] = true;
                    } else {
                        any_read[*file] = true;
                    }
                }
                Step::Sync(f) => used[*f] = true,
                _ => {}
            }
        }
        let files: Vec<VFile> = self
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| VFile {
                id: FileId(GRAMMAR_FILE_BASE + i as u64),
                name: f.name.clone(),
                mount: f.mount,
                seg: cursor[i],
                used: used[i],
                any_write: any_write[i],
                any_read: any_read[i],
            })
            .collect();
        let mut v = Variant {
            label: format!("{}/v{index:04}", self.name),
            index,
            ranks,
            steps: Arc::new(steps),
            files: Arc::new(files),
            digest: 0,
        };
        v.digest = simcore::fnv1a64(v.describe_body().as_bytes());
        v
    }

    /// Samples the first `n` variants under `seed`. Equivalent to calling
    /// [`Grammar::variant`] for each index — the batch introduces no
    /// cross-variant state.
    pub fn sample(&self, seed: u64, n: usize) -> Vec<Variant> {
        (0..n).map(|i| self.variant(seed, i)).collect()
    }
}

fn resolve_rules(rules: &[Rule], rng: &mut SplitMix64, out: &mut Vec<Step>) {
    for rule in rules {
        match rule {
            Rule::Io {
                write,
                collective,
                file,
                block,
                count,
                stride,
            } => out.push(Step::Io {
                write: *write,
                collective: *collective,
                file: *file,
                block: block.sample(rng),
                count: count.sample(rng),
                stride: stride.sample(rng),
                base: 0,
            }),
            Rule::Compute(micros) => out.push(Step::Compute(Time::from_micros(micros.sample(rng)))),
            Rule::Barrier => out.push(Step::Barrier),
            Rule::Sync(f) => out.push(Step::Sync(*f)),
            Rule::Loop { count, body } => {
                for _ in 0..count.sample(rng) {
                    resolve_rules(body, rng, out);
                }
            }
            Rule::Choose { arms } => {
                let total: u64 = arms.iter().map(|(w, _)| *w).sum();
                let mut pick = rng.next_below(total);
                for (w, body) in arms {
                    if pick < *w {
                        resolve_rules(body, rng, out);
                        break;
                    }
                    pick -= *w;
                }
            }
        }
    }
}

/// One resolved, rank-independent step of a variant.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    Io {
        write: bool,
        collective: bool,
        file: usize,
        block: u64,
        count: u64,
        stride: u64,
        /// Per-rank-relative start offset within the file segment.
        base: u64,
    },
    Compute(Time),
    Barrier,
    Sync(usize),
}

#[derive(Clone, Debug)]
struct VFile {
    id: FileId,
    name: String,
    mount: Option<Mount>,
    /// Bytes of the file each rank touches (rank `r` owns
    /// `[r*seg, (r+1)*seg)`).
    seg: u64,
    used: bool,
    any_write: bool,
    any_read: bool,
}

/// A concrete workload drawn from a [`Grammar`]: all distributions and
/// branches resolved, ready to compile to a [`Scenario`] per evaluation
/// cell.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Campaign app label: `<grammar>/v<index>`.
    pub label: String,
    /// Sample index.
    pub index: usize,
    /// Resolved rank count.
    pub ranks: usize,
    steps: Arc<Vec<Step>>,
    files: Arc<Vec<VFile>>,
    /// FNV-1a digest of the resolved program shape (label-independent:
    /// two indices that resolve identically share a digest).
    pub digest: u64,
}

impl Variant {
    /// The resolved program, one line per step — the byte-stable form the
    /// reproducibility tests and golden grids compare.
    pub fn describe(&self) -> String {
        format!("{} {}", self.label, self.describe_body())
    }

    fn describe_body(&self) -> String {
        let mut s = format!("ranks={}", self.ranks);
        for f in self.files.iter().filter(|f| f.used) {
            let _ = write!(s, " {}[seg={}]", f.name, f.seg);
        }
        s.push('\n');
        for step in self.steps.iter() {
            match step {
                Step::Io {
                    write,
                    collective,
                    file,
                    block,
                    count,
                    stride,
                    base,
                } => {
                    let _ = writeln!(
                        s,
                        "  {}{} {} block={block} count={count} stride={stride} base={base}",
                        if *write { "write" } else { "read" },
                        if *collective { "-all" } else { "" },
                        self.files[*file].name,
                    );
                }
                Step::Compute(d) => {
                    let _ = writeln!(s, "  compute {}us", d.as_micros_f64());
                }
                Step::Barrier => s.push_str("  barrier\n"),
                Step::Sync(f) => {
                    let _ = writeln!(s, "  sync {}", self.files[*f].name);
                }
            }
        }
        s
    }

    /// Number of resolved steps (after loop unrolling and branch picks).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Per-rank op count (head opens + steps + tail syncs/closes).
    pub fn ops_per_rank(&self) -> u64 {
        let used = self.files.iter().filter(|f| f.used).count() as u64;
        let syncs = self.files.iter().filter(|f| f.used && f.any_write).count() as u64;
        let body: u64 = self
            .steps
            .iter()
            .map(|s| match s {
                Step::Io { count, .. } => *count,
                _ => 1,
            })
            .sum();
        used + body + syncs + used
    }

    /// Compiles the variant to a runnable [`Scenario`].
    pub fn scenario(&self) -> Scenario {
        let mounts = self
            .files
            .iter()
            .filter(|f| f.used)
            .filter_map(|f| f.mount.map(|m| (f.id, m)))
            .collect();
        // Files that are read get their whole span preallocated (and are
        // opened without create so the data survives the open) — reads of
        // never-written regions must hit real bytes.
        let prealloc = self
            .files
            .iter()
            .filter(|f| f.used && f.any_read && f.seg > 0)
            .map(|f| (f.id, f.seg * self.ranks as u64))
            .collect();
        let programs = (0..self.ranks).map(|r| self.program(r)).collect();
        Scenario {
            name: self.label.clone(),
            programs,
            mounts,
            prealloc,
        }
    }

    fn program(&self, rank: usize) -> Box<dyn OpStream> {
        let steps = Arc::clone(&self.steps);
        let files = Arc::clone(&self.files);
        let nchunks = steps.len() + 2;
        Box::new(ChunkedStream::new(nchunks, move |i| {
            if i == 0 {
                return files
                    .iter()
                    .filter(|f| f.used)
                    .map(|f| MpiOp::FileOpen {
                        file: f.id,
                        create: f.any_write && !f.any_read,
                    })
                    .collect();
            }
            if i == nchunks - 1 {
                let mut tail: Vec<MpiOp> = files
                    .iter()
                    .filter(|f| f.used && f.any_write)
                    .map(|f| MpiOp::FileSync { file: f.id })
                    .collect();
                tail.extend(
                    files
                        .iter()
                        .filter(|f| f.used)
                        .map(|f| MpiOp::FileClose { file: f.id }),
                );
                return tail;
            }
            match &steps[i - 1] {
                Step::Io {
                    write,
                    collective,
                    file,
                    block,
                    count,
                    stride,
                    base,
                } => {
                    let f = &files[*file];
                    let rank_base = rank as u64 * f.seg + base;
                    (0..*count)
                        .map(|k| {
                            let offset = rank_base + k * stride * block;
                            match (*write, *collective) {
                                (true, false) => MpiOp::WriteAt {
                                    file: f.id,
                                    offset,
                                    len: *block,
                                },
                                (true, true) => MpiOp::WriteAtAll {
                                    file: f.id,
                                    offset,
                                    len: *block,
                                },
                                (false, false) => MpiOp::ReadAt {
                                    file: f.id,
                                    offset,
                                    len: *block,
                                },
                                (false, true) => MpiOp::ReadAtAll {
                                    file: f.id,
                                    offset,
                                    len: *block,
                                },
                            }
                        })
                        .collect()
                }
                Step::Compute(d) => vec![MpiOp::Compute(*d)],
                Step::Barrier => vec![MpiOp::Barrier],
                Step::Sync(fi) => vec![MpiOp::FileSync {
                    file: files[*fi].id,
                }],
            }
        }))
    }
}

/// The worked example from the README: a checkpoint/analysis workload
/// space. Also the default grammar of the `scenario` experiment and the
/// source of the pinned golden grid.
pub const EXAMPLE: &str = "\
# Mixed checkpoint/analysis workload space (worked example).
scenario mixed
ranks 2|4
file data
file out

phase setup {
  compute 200..500
}
phase checkpoint repeat 1..3 {
  choose 3 {
    write data block 256K..1M pow2 count 4
  } or 1 {
    write data block 64K count 8 stride 2
  }
  barrier
}
phase analyze {
  read data block 256K count 4
  write out block 128K count 2
  sync out
}
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_grammar_parses() {
        let g = Grammar::parse(EXAMPLE).expect("example must parse");
        assert_eq!(g.name, "mixed");
        assert_eq!(g.files.len(), 2);
        assert_eq!(g.phases.len(), 3);
        assert_eq!(g.phases[1].name, "checkpoint");
        assert_eq!(g.phases[1].repeat, Dist::Uniform { lo: 1, hi: 3 });
        assert!(matches!(g.phases[1].body[0], Rule::Choose { .. }));
    }

    #[test]
    fn digest_ignores_comments_and_whitespace() {
        let a = Grammar::parse("scenario s\nphase p { barrier }").unwrap();
        let b = Grammar::parse("# hi\nscenario   s\n\nphase p {  barrier }  # x").unwrap();
        assert_eq!(a.digest, b.digest);
        let c = Grammar::parse("scenario s\nphase p { barrier barrier }").unwrap();
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn work_is_bounded_by_distribution_maxima_at_parse_time() {
        let at_ceiling = "scenario s\nranks 2|4\nphase p repeat 1..1048576 { barrier }";
        assert!(Grammar::parse(at_ceiling).is_ok());
        let over = "scenario s\nranks 2|4\nphase p repeat 1..1048577 { barrier }";
        assert_eq!(Grammar::parse(over).expect_err("over the ceiling").line, 3);
        // Loops multiply and a branch counts its largest arm; a `ranks`
        // directive after the phases is checked against them too.
        let nested = "scenario s\nfile f\nphase p {\n choose { loop 1024 { write f block 1K count 1024 } } or 9 { barrier }\n}\nranks 5";
        let err = Grammar::parse(nested).expect_err("5 x 1M ops");
        assert_eq!(err.line, 6);
        assert!(err.message.contains("workload too large"), "{err}");
        // Empty bodies are walked too.
        let empty = "scenario s\nphase p repeat 4000000000 { loop 2 { } }";
        assert_eq!(Grammar::parse(empty).expect_err("8G iterations").line, 2);
    }

    #[test]
    fn file_extents_and_compute_times_are_bounded_at_parse_time() {
        // 4 ranks x 256 TiB per rank is the ceiling; one byte more is not.
        let at_ceiling = "scenario s\nranks 4\nfile f\nphase p { write f block 256G count 1024 }";
        assert!(Grammar::parse(at_ceiling).is_ok());
        let over =
            "scenario s\nranks 4\nfile f\nphase p {\n write f block 256G count 1024 stride 1|2\n}";
        let err = Grammar::parse(over).expect_err("over the extent ceiling");
        assert_eq!(err.line, 4);
        assert!(err.message.contains("files too large"), "{err}");
        // A rank count after the phases is checked against them too.
        let late = "scenario s\nfile f\nphase p { read f block 1G count 1048576 }\nranks 2";
        assert_eq!(Grammar::parse(late).expect_err("2 PiB").line, 4);
        let max = u64::MAX / 1_000;
        let ok = format!("scenario s\nphase p {{ compute {max} }}");
        assert!(Grammar::parse(&ok).is_ok());
        let over = format!("scenario s\nphase p {{\n compute 1..{}\n}}", max + 1);
        let err = Grammar::parse(&over).expect_err("compute beyond Time");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("compute time"), "{err}");
    }

    #[test]
    fn a_rank_s_total_compute_time_is_bounded_at_parse_time() {
        // Each step fits in Time; three repeats of it do not.
        let big = "scenario big\nranks 2\nfile f\n\
                   phase p repeat 3 { compute 18446744073709551 write f block 1M count 1 }";
        let err = Grammar::parse(big).expect_err("three steps beyond Time");
        assert_eq!(err.line, 4);
        assert!(err.message.contains("total compute time"), "{err}");
        // Loops multiply, and phases add up.
        let third = u64::MAX / 1_000 / 3;
        let at = format!("scenario s\nphase p {{ loop 3 {{ compute {third} }} }}");
        assert!(Grammar::parse(&at).is_ok());
        let over = format!(
            "scenario s\nphase p {{ loop 3 {{ compute {third} }} }}\nphase q {{ compute {third} }}"
        );
        assert_eq!(Grammar::parse(&over).expect_err("phases add").line, 3);
        // A branch costs its largest arm, not the sum of its arms.
        let half = u64::MAX / 1_000 / 2;
        let arms = format!(
            "scenario s\nphase p {{ choose {{ compute {half} }} or {{ compute {half} }} }}\nphase q {{ compute {half} }}"
        );
        assert!(Grammar::parse(&arms).is_ok());
    }

    #[test]
    fn choose_weights_that_overflow_are_a_parse_error() {
        let src =
            "scenario s\nphase p {\n  choose 18446744073709551615 { barrier } or 1 { barrier }\n}";
        let err = Grammar::parse(src).expect_err("weights sum beyond u64");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("sum beyond"), "{err}");
        // The largest weights that still sum inside u64 parse and sample.
        let src =
            "scenario s\nphase p {\n  choose 18446744073709551614 { barrier } or 1 { barrier }\n}";
        let g = Grammar::parse(src).expect("weights sum to u64::MAX");
        assert_eq!(g.sample(1, 2).len(), 2);
    }

    #[test]
    fn parse_errors_are_typed_and_name_the_line() {
        let err = Grammar::parse("scenario s\nphase p {\n  write nosuch block 1M\n}")
            .expect_err("unknown file");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown file 'nosuch'"), "{err}");

        let err = Grammar::parse("scenario s\nphase p {").expect_err("unclosed block");
        assert!(err.message.contains("unclosed"), "{err}");

        let err = Grammar::parse("phase p { barrier }").expect_err("missing scenario");
        assert!(err.message.contains("scenario"), "{err}");

        let err = Grammar::parse("scenario s\nfile f\nphase p { write f block 0 }")
            .expect_err("zero block");
        assert!(err.message.contains("positive"), "{err}");

        let err = Grammar::parse("scenario s\nfile f on floppy\nphase p { barrier }")
            .expect_err("bad mount");
        assert!(err.message.contains("unknown mount"), "{err}");
    }

    #[test]
    fn dist_sampling_stays_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..200 {
            let v = Dist::Uniform { lo: 2, hi: 8 }.sample(&mut rng);
            assert!((2..=8).contains(&v));
            let p = Dist::Pow2 {
                lo: 1 << 18,
                hi: 1 << 20,
            }
            .sample(&mut rng);
            assert!(
                p.is_power_of_two() && (1 << 18..=1 << 20).contains(&p),
                "{p}"
            );
            let c = Dist::Choice(vec![3, 5, 9]).sample(&mut rng);
            assert!([3, 5, 9].contains(&c));
        }
    }

    #[test]
    fn fixed_seed_sampling_is_byte_reproducible() {
        let g = Grammar::parse(EXAMPLE).unwrap();
        let a: Vec<String> = g.sample(42, 32).iter().map(Variant::describe).collect();
        let b: Vec<String> = g.sample(42, 32).iter().map(Variant::describe).collect();
        assert_eq!(a, b);
        // Per-index resolution equals batch resolution: order-independent.
        for (i, d) in a.iter().enumerate() {
            assert_eq!(&g.variant(42, i).describe(), d);
        }
        // A different seed moves the space.
        let c: Vec<String> = g.sample(43, 32).iter().map(Variant::describe).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn variants_cover_the_grammar_space() {
        let g = Grammar::parse(EXAMPLE).unwrap();
        let vs = g.sample(1, 64);
        let ranks: std::collections::BTreeSet<usize> = vs.iter().map(|v| v.ranks).collect();
        assert_eq!(ranks.into_iter().collect::<Vec<_>>(), vec![2, 4]);
        let digests: std::collections::BTreeSet<u64> = vs.iter().map(|v| v.digest).collect();
        assert!(
            digests.len() > 16,
            "only {} distinct variants",
            digests.len()
        );
    }

    #[test]
    fn offsets_stay_inside_the_rank_segment() {
        let g = Grammar::parse(EXAMPLE).unwrap();
        for v in g.sample(9, 8) {
            let scenario = v.scenario();
            let mut max_off: std::collections::HashMap<u64, u64> = Default::default();
            for (rank, mut prog) in scenario.programs.into_iter().enumerate() {
                let _ = rank;
                while let Some(op) = prog.next_op() {
                    if let MpiOp::WriteAt { file, offset, len }
                    | MpiOp::ReadAt { file, offset, len } = op
                    {
                        let e = max_off.entry(file.0).or_default();
                        *e = (*e).max(offset + len);
                    }
                }
            }
            for f in v.files.iter().filter(|f| f.used && f.seg > 0) {
                let max = max_off.get(&f.id.0).copied().unwrap_or(0);
                assert!(
                    max <= f.seg * v.ranks as u64,
                    "{}: extent {max} beyond segment {}",
                    v.label,
                    f.seg * v.ranks as u64
                );
            }
        }
    }

    #[test]
    fn every_rank_runs_exactly_ops_per_rank_ops() {
        let independent = Grammar::parse(EXAMPLE).unwrap().variant(5, 0);
        let collective =
            Grammar::parse("scenario c\nfile f\nphase p { write f block 1M count 2 collective }")
                .unwrap()
                .variant(5, 0);
        for v in [independent, collective] {
            for mut prog in v.scenario().programs {
                let mut n = 0u64;
                while prog.next_op().is_some() {
                    n += 1;
                }
                assert_eq!(n, v.ops_per_rank(), "{}: op count must be exact", v.label);
            }
        }
    }

    #[test]
    fn read_files_are_preallocated_and_not_truncated() {
        let g = Grammar::parse(
            "scenario r\nranks 2\nfile input\nphase p { read input block 1M count 3 }",
        )
        .unwrap();
        let v = g.variant(3, 0);
        let scenario = v.scenario();
        assert_eq!(
            scenario.prealloc,
            vec![(FileId(GRAMMAR_FILE_BASE), 6 << 20)]
        );
        let mut prog = scenario.programs.into_iter().next().unwrap();
        match prog.next_op() {
            Some(MpiOp::FileOpen { create, .. }) => {
                assert!(!create, "preallocated input must not be truncated")
            }
            other => panic!("expected open, got {other:?}"),
        }
    }

    #[test]
    fn generated_variant_evaluates_end_to_end() {
        use cluster::{presets, DeviceLayout, IoConfigBuilder};
        use simcore::obs::NoSink;
        let g = Grammar::parse(EXAMPLE).unwrap();
        let v = g.variant(11, 0);
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let mut machine = cluster::ClusterMachine::try_new(&spec, &config).expect("valid config");
        let programs = v.scenario().install(&mut machine);
        let placement = spec.placement(v.ranks);
        let stats = mpisim::Runtime::default()
            .run_supervised(&mut machine, &placement, programs, &mut NoSink, None)
            .expect("generated program must run clean");
        assert!(stats.wall_time > Time::ZERO);
        assert!(stats.total_bytes() > 0);
    }
}
