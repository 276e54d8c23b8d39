//! Deterministic host-fault injection for the campaign runtime.
//!
//! The simulators model faults *inside* the simulated cluster
//! ([`crate::faults`]); this module injects faults into the **host-side
//! infrastructure that runs campaigns** — checkpoint writes, store
//! serialization, worker threads, memo-cache loads, trace exports. Those
//! are the components a long-lived evaluation campaign actually dies on
//! (torn files, full disks, crashed workers), and the only way to trust
//! their recovery paths is to drive them deterministically.
//!
//! A [`HostFaultPlan`] is a finite list of [`Injection`]s, each naming an
//! instrumented [`ChaosSite`], the *n*-th hit of that site it fires on,
//! and a [`ChaosAction`]. Plans are seedable ([`HostFaultPlan::random`]),
//! round-trip through a compact replay token ([`HostFaultPlan::token`] /
//! [`HostFaultPlan::parse`], the `--chaos-repro` CLI value), and shrink to
//! a minimal reproducing schedule with [`shrink`].
//!
//! A plan is armed as a [`HostFaults`] value, which counts the hits of
//! each site and records what fired. The result store carries it to every
//! instrumented site, so a plan is scoped to the run that owns the store;
//! without one, a probe is a single `Option` check.

use crate::rng::SplitMix64;
use std::fmt;
use std::sync::Mutex;

/// Panic-message prefix of chaos-injected worker panics. Supervisors treat
/// panics carrying this marker as *transient host faults*: always retried
/// (the simulation itself is deterministic and will re-run identically),
/// never recorded as a cell failure. Termination is guaranteed because a
/// plan is a finite set of hit indices.
pub const HOST_FAULT_PANIC: &str = "chaos-host-fault";

/// Whether a panic message came from [`HostFaults::panic_point`].
pub fn is_host_fault_panic(message: &str) -> bool {
    message.starts_with(HOST_FAULT_PANIC)
}

/// An instrumented point in the campaign runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosSite {
    /// One checkpoint-file write attempt (`CheckpointDir::save`; every
    /// retry is a fresh hit).
    CheckpointWrite,
    /// One store serialization of a campaign artifact.
    StoreSerialize,
    /// One campaign-cell execution on a worker thread (the cell boundary).
    WorkerPanic,
    /// One memo-cache entry load.
    MemoLoad,
    /// One trace/artifact export write.
    TraceWrite,
}

impl ChaosSite {
    /// Every site, in token order.
    pub const ALL: [ChaosSite; 5] = [
        ChaosSite::CheckpointWrite,
        ChaosSite::StoreSerialize,
        ChaosSite::WorkerPanic,
        ChaosSite::MemoLoad,
        ChaosSite::TraceWrite,
    ];

    /// Stable token tag (`ckpt`, `ser`, `panic`, `memo`, `trace`).
    pub fn tag(self) -> &'static str {
        match self {
            ChaosSite::CheckpointWrite => "ckpt",
            ChaosSite::StoreSerialize => "ser",
            ChaosSite::WorkerPanic => "panic",
            ChaosSite::MemoLoad => "memo",
            ChaosSite::TraceWrite => "trace",
        }
    }

    fn from_tag(tag: &str) -> Option<ChaosSite> {
        ChaosSite::ALL.into_iter().find(|s| s.tag() == tag)
    }
}

impl fmt::Display for ChaosSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// What an injection does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosAction {
    /// The operation fails with a generic I/O error.
    Fail,
    /// Torn write: only `sixteenths/16` of the bytes reach the target
    /// before the write fails (checkpoint-write site only; other sites
    /// treat it as [`ChaosAction::Fail`]).
    Torn {
        /// Sixteenths of the payload written before the tear (1..=15).
        sixteenths: u8,
    },
    /// The write fails with "no space left on device".
    Enospc,
}

impl ChaosAction {
    fn token(self) -> String {
        match self {
            ChaosAction::Fail => "fail".to_string(),
            ChaosAction::Torn { sixteenths } => format!("torn{sixteenths}"),
            ChaosAction::Enospc => "enospc".to_string(),
        }
    }

    fn parse(s: &str) -> Option<ChaosAction> {
        match s {
            "fail" => Some(ChaosAction::Fail),
            "enospc" => Some(ChaosAction::Enospc),
            _ => {
                let n: u8 = s.strip_prefix("torn")?.parse().ok()?;
                (1..=15)
                    .contains(&n)
                    .then_some(ChaosAction::Torn { sixteenths: n })
            }
        }
    }
}

/// One planned host fault: fire `action` on the `nth` hit (0-based) of
/// `site` in the run that arms the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Injection {
    /// The instrumented site this fault fires at.
    pub site: ChaosSite,
    /// 0-based hit index of the site the fault fires on.
    pub nth: u64,
    /// What happens when it fires.
    pub action: ChaosAction,
}

impl Injection {
    fn token(&self) -> String {
        match self.action {
            // `fail` is the default action; omit it for short tokens.
            ChaosAction::Fail => format!("{}@{}", self.site.tag(), self.nth),
            _ => format!("{}@{}:{}", self.site.tag(), self.nth, self.action.token()),
        }
    }
}

/// How many injections of each kind [`HostFaultPlan::random`] draws, and
/// over what hit-index horizon.
#[derive(Clone, Debug)]
pub struct ChaosProfile {
    /// Checkpoint-write faults (action drawn among fail/torn/enospc).
    pub checkpoint_faults: u32,
    /// Store serialization errors.
    pub serialize_faults: u32,
    /// Worker panics at cell boundaries.
    pub worker_panics: u32,
    /// Memo-cache corruptions (digest mismatch on load).
    pub memo_corruptions: u32,
    /// Trace-export write errors.
    pub trace_faults: u32,
    /// Hit indices are drawn in `[0, horizon)`. Keep it around the number
    /// of times the campaign actually hits each site, or most injections
    /// never fire.
    pub horizon: u64,
}

impl ChaosProfile {
    /// A profile by name: `store`, `panic`, `memo`, `trace`, or `mixed`.
    pub fn named(name: &str) -> Option<ChaosProfile> {
        let zero = ChaosProfile {
            checkpoint_faults: 0,
            serialize_faults: 0,
            worker_panics: 0,
            memo_corruptions: 0,
            trace_faults: 0,
            horizon: 6,
        };
        match name {
            "store" => Some(ChaosProfile {
                checkpoint_faults: 3,
                serialize_faults: 1,
                ..zero
            }),
            "panic" => Some(ChaosProfile {
                worker_panics: 2,
                ..zero
            }),
            "memo" => Some(ChaosProfile {
                memo_corruptions: 2,
                ..zero
            }),
            "trace" => Some(ChaosProfile {
                trace_faults: 1,
                ..zero
            }),
            "mixed" => Some(ChaosProfile::mixed()),
            _ => None,
        }
    }

    /// A bit of everything — the default sweep profile.
    pub fn mixed() -> ChaosProfile {
        ChaosProfile {
            checkpoint_faults: 2,
            serialize_faults: 1,
            worker_panics: 1,
            memo_corruptions: 1,
            trace_faults: 1,
            horizon: 6,
        }
    }
}

/// A deterministic, finite schedule of host faults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HostFaultPlan {
    /// The planned faults, sorted by `(site, nth, action)` with duplicate
    /// `(site, nth)` pairs removed (one fault per hit).
    pub injections: Vec<Injection>,
}

impl HostFaultPlan {
    /// The empty plan (nothing ever fires).
    pub fn none() -> HostFaultPlan {
        HostFaultPlan::default()
    }

    /// A plan with exactly one injection.
    pub fn single(site: ChaosSite, nth: u64, action: ChaosAction) -> HostFaultPlan {
        HostFaultPlan::from_injections(vec![Injection { site, nth, action }])
    }

    /// Normalizes `injections` into a plan: sorted, one fault per
    /// `(site, nth)` hit (first in sort order wins).
    pub fn from_injections(mut injections: Vec<Injection>) -> HostFaultPlan {
        injections.sort();
        injections.dedup_by_key(|i| (i.site, i.nth));
        HostFaultPlan { injections }
    }

    /// Draws a plan from `seed` under `profile`. Deterministic: the same
    /// `(seed, profile)` always yields the same plan, independent of any
    /// other RNG use in the process.
    pub fn random(seed: u64, profile: &ChaosProfile) -> HostFaultPlan {
        let mut rng = SplitMix64::new(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let horizon = profile.horizon.max(1);
        let mut injections = Vec::new();
        let mut draw = |site: ChaosSite, count: u32, rng: &mut SplitMix64| {
            for _ in 0..count {
                let nth = rng.next_below(horizon);
                let action = if site == ChaosSite::CheckpointWrite {
                    match rng.next_below(3) {
                        0 => ChaosAction::Fail,
                        1 => ChaosAction::Torn {
                            sixteenths: 1 + rng.next_below(15) as u8,
                        },
                        _ => ChaosAction::Enospc,
                    }
                } else {
                    ChaosAction::Fail
                };
                injections.push(Injection { site, nth, action });
            }
        };
        draw(
            ChaosSite::CheckpointWrite,
            profile.checkpoint_faults,
            &mut rng,
        );
        draw(
            ChaosSite::StoreSerialize,
            profile.serialize_faults,
            &mut rng,
        );
        draw(ChaosSite::WorkerPanic, profile.worker_panics, &mut rng);
        draw(ChaosSite::MemoLoad, profile.memo_corruptions, &mut rng);
        draw(ChaosSite::TraceWrite, profile.trace_faults, &mut rng);
        HostFaultPlan::from_injections(injections)
    }

    /// Number of planned injections.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// The compact replay token, e.g. `ckpt@2:torn8,panic@0,ser@1`.
    /// [`HostFaultPlan::parse`] round-trips it; the `repro` CLI accepts it
    /// as `--chaos-repro TOKEN`.
    pub fn token(&self) -> String {
        if self.injections.is_empty() {
            return "none".to_string();
        }
        self.injections
            .iter()
            .map(Injection::token)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses a replay token produced by [`HostFaultPlan::token`].
    pub fn parse(token: &str) -> Result<HostFaultPlan, String> {
        let token = token.trim();
        if token.is_empty() || token == "none" {
            return Ok(HostFaultPlan::none());
        }
        let mut injections = Vec::new();
        for part in token.split(',') {
            let part = part.trim();
            let (site_s, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("bad injection '{part}': expected SITE@NTH[:ACTION]"))?;
            let site = ChaosSite::from_tag(site_s)
                .ok_or_else(|| format!("unknown site '{site_s}' in '{part}'"))?;
            let (nth_s, action_s) = match rest.split_once(':') {
                Some((n, a)) => (n, Some(a)),
                None => (rest, None),
            };
            let nth: u64 = nth_s
                .parse()
                .map_err(|_| format!("bad hit index '{nth_s}' in '{part}'"))?;
            let action = match action_s {
                None => ChaosAction::Fail,
                Some(a) => ChaosAction::parse(a)
                    .ok_or_else(|| format!("unknown action '{a}' in '{part}'"))?,
            };
            injections.push(Injection { site, nth, action });
        }
        Ok(HostFaultPlan::from_injections(injections))
    }
}

impl fmt::Display for HostFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.token())
    }
}

/// An armed [`HostFaultPlan`]: the plan, the hits each site has taken so
/// far, and the injections that fired. Hit counting starts at zero when
/// the plan is armed and is shared by every thread holding the value.
pub struct HostFaults {
    state: Mutex<ChaosState>,
}

struct ChaosState {
    plan: HostFaultPlan,
    hits: [u64; ChaosSite::ALL.len()],
    fired: Vec<Injection>,
}

impl HostFaults {
    /// Arms `plan` with every hit counter at zero.
    pub fn new(plan: HostFaultPlan) -> HostFaults {
        HostFaults {
            state: Mutex::new(ChaosState {
                plan,
                hits: [0; ChaosSite::ALL.len()],
                fired: Vec::new(),
            }),
        }
    }

    /// Records one hit of `site` and returns the action to inject, if the
    /// plan has a fault on this hit.
    pub fn decide(&self, site: ChaosSite) -> Option<ChaosAction> {
        let mut state = self.state.lock().expect("chaos state lock");
        let n = state.hits[site as usize];
        state.hits[site as usize] = n + 1;
        let hit = state
            .plan
            .injections
            .iter()
            .find(|i| i.site == site && i.nth == n)
            .copied();
        state.fired.extend(hit);
        hit.map(|i| i.action)
    }

    /// A worker-panic injection point: panics with the [`HOST_FAULT_PANIC`]
    /// marker when the plan has a fault on this hit of `site`.
    pub fn panic_point(&self, site: ChaosSite) {
        if self.decide(site).is_some() {
            panic!("{HOST_FAULT_PANIC}: injected worker panic");
        }
    }

    /// Injections that have fired so far, in firing order.
    pub fn fired(&self) -> Vec<Injection> {
        self.state.lock().expect("chaos state lock").fired.clone()
    }
}

/// Shrinks a failing fault schedule to a 1-minimal reproducing schedule
/// (delta debugging): removing any single remaining injection makes the
/// failure disappear. `fails` must be deterministic and must return `true`
/// for `plan` itself (asserted). Returns the shrunk plan; print its
/// [`HostFaultPlan::token`] as the `--chaos-repro` reproduction recipe.
pub fn shrink(
    plan: &HostFaultPlan,
    fails: &mut dyn FnMut(&HostFaultPlan) -> bool,
) -> HostFaultPlan {
    assert!(
        fails(plan),
        "shrink: the schedule to shrink must reproduce the failure"
    );
    let mut cur = plan.injections.clone();
    // Delta debugging: try removing chunks, halving the chunk size each
    // round; at chunk size 1 keep sweeping until a full pass removes
    // nothing (1-minimality). Invariant: `cur` always fails.
    let mut chunk = cur.len().div_ceil(2).max(1);
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() && cur.len() > 1 {
            let end = (start + chunk).min(cur.len());
            let mut candidate = cur.clone();
            candidate.drain(start..end);
            if !candidate.is_empty()
                && fails(&HostFaultPlan {
                    injections: candidate.clone(),
                })
            {
                cur = candidate;
                reduced = true;
                // Re-scan from the front at this chunk size.
                start = 0;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            if !reduced {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    HostFaultPlan { injections: cur }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips() {
        let plan = HostFaultPlan::from_injections(vec![
            Injection {
                site: ChaosSite::CheckpointWrite,
                nth: 2,
                action: ChaosAction::Torn { sixteenths: 8 },
            },
            Injection {
                site: ChaosSite::WorkerPanic,
                nth: 0,
                action: ChaosAction::Fail,
            },
            Injection {
                site: ChaosSite::StoreSerialize,
                nth: 1,
                action: ChaosAction::Fail,
            },
            Injection {
                site: ChaosSite::CheckpointWrite,
                nth: 4,
                action: ChaosAction::Enospc,
            },
        ]);
        let token = plan.token();
        assert_eq!(token, "ckpt@2:torn8,ckpt@4:enospc,ser@1,panic@0");
        assert_eq!(HostFaultPlan::parse(&token).unwrap(), plan);
        assert_eq!(HostFaultPlan::parse("none").unwrap(), HostFaultPlan::none());
        assert_eq!(HostFaultPlan::none().token(), "none");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(HostFaultPlan::parse("ckpt").is_err());
        assert!(HostFaultPlan::parse("nope@1").is_err());
        assert!(HostFaultPlan::parse("ckpt@x").is_err());
        assert!(HostFaultPlan::parse("ckpt@1:torn99").is_err());
        assert!(HostFaultPlan::parse("ckpt@1:melt").is_err());
    }

    #[test]
    fn duplicate_hits_keep_one_fault() {
        let plan = HostFaultPlan::from_injections(vec![
            Injection {
                site: ChaosSite::MemoLoad,
                nth: 3,
                action: ChaosAction::Fail,
            },
            Injection {
                site: ChaosSite::MemoLoad,
                nth: 3,
                action: ChaosAction::Fail,
            },
        ]);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn random_plans_are_deterministic_and_profile_shaped() {
        let p = ChaosProfile::mixed();
        let a = HostFaultPlan::random(7, &p);
        let b = HostFaultPlan::random(7, &p);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, HostFaultPlan::random(8, &p), "seed matters");
        assert!(!a.is_empty());
        let only_panics = ChaosProfile::named("panic").unwrap();
        let plan = HostFaultPlan::random(3, &only_panics);
        assert!(plan
            .injections
            .iter()
            .all(|i| i.site == ChaosSite::WorkerPanic));
        assert!(ChaosProfile::named("bogus").is_none());
    }

    #[test]
    fn decide_fires_on_the_nth_hit_only() {
        let faults = HostFaults::new(HostFaultPlan::single(
            ChaosSite::CheckpointWrite,
            2,
            ChaosAction::Enospc,
        ));
        assert_eq!(faults.decide(ChaosSite::CheckpointWrite), None); // hit 0
        assert_eq!(faults.decide(ChaosSite::StoreSerialize), None); // other site
        assert_eq!(faults.decide(ChaosSite::CheckpointWrite), None); // hit 1
        assert_eq!(
            faults.decide(ChaosSite::CheckpointWrite),
            Some(ChaosAction::Enospc)
        ); // hit 2
        assert_eq!(faults.decide(ChaosSite::CheckpointWrite), None); // hit 3
        let fired = faults.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].nth, 2);
    }

    #[test]
    fn panic_point_panics_with_the_marker() {
        let faults = HostFaults::new(HostFaultPlan::single(
            ChaosSite::WorkerPanic,
            0,
            ChaosAction::Fail,
        ));
        let err =
            std::panic::catch_unwind(|| faults.panic_point(ChaosSite::WorkerPanic)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(is_host_fault_panic(msg), "{msg}");
        // Second hit: no injection, no panic.
        faults.panic_point(ChaosSite::WorkerPanic);
    }

    #[test]
    fn shrink_finds_the_minimal_pair() {
        // The "failure" needs both a ckpt@1 and a panic@0 injection; noise
        // around them must be shrunk away.
        let need_a = Injection {
            site: ChaosSite::CheckpointWrite,
            nth: 1,
            action: ChaosAction::Fail,
        };
        let need_b = Injection {
            site: ChaosSite::WorkerPanic,
            nth: 0,
            action: ChaosAction::Fail,
        };
        let mut noisy = vec![need_a, need_b];
        for nth in 0..6 {
            noisy.push(Injection {
                site: ChaosSite::MemoLoad,
                nth,
                action: ChaosAction::Fail,
            });
            noisy.push(Injection {
                site: ChaosSite::TraceWrite,
                nth,
                action: ChaosAction::Fail,
            });
        }
        let plan = HostFaultPlan::from_injections(noisy);
        let mut calls = 0;
        let mut fails = |p: &HostFaultPlan| {
            calls += 1;
            p.injections.contains(&need_a) && p.injections.contains(&need_b)
        };
        let min = shrink(&plan, &mut fails);
        assert_eq!(
            min.injections,
            HostFaultPlan::from_injections(vec![need_a, need_b]).injections
        );
        assert!(calls < 200, "shrink exploded: {calls} predicate calls");
    }

    #[test]
    fn shrink_reduces_single_cause_to_one_injection() {
        let cause = Injection {
            site: ChaosSite::StoreSerialize,
            nth: 0,
            action: ChaosAction::Fail,
        };
        let mut noisy = vec![cause];
        for nth in 0..9 {
            noisy.push(Injection {
                site: ChaosSite::CheckpointWrite,
                nth,
                action: ChaosAction::Fail,
            });
        }
        let plan = HostFaultPlan::from_injections(noisy);
        let min = shrink(&plan, &mut |p| p.injections.contains(&cause));
        assert_eq!(min.injections, vec![cause]);
    }
}
