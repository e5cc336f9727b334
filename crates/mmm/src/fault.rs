//! Deterministic fault injection for the threaded executor.
//!
//! A [`FaultPlan`] scripts worker failures ahead of a run: which processor
//! misbehaves, how ([`FaultKind`]), and at which pivot step. Plans are
//! plain data — fully deterministic and serializable — so a failing
//! recovery scenario can be replayed exactly from its plan (or from the
//! seed that generated it via [`FaultPlan::random_crash`]).
//!
//! Injection lives entirely behind `ExecConfig::fault_plan`
//! (an `Option`): with `None` the per-step check the workers perform is a
//! lookup in an empty slice, so the production path pays nothing
//! measurable.
//!
//! Workers exchange pivot values in blocks of `ExecConfig::block` steps,
//! one message per peer at the top of each block. A crash or a stall fires
//! at the top of its own step, which may lie inside a block whose message
//! already went out; a drop or a delay acts on the message that carries
//! its step.

use hetmmm_partition::Proc;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// One scripted worker fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker exits before sending anything at pivot step `step`,
    /// dropping its channel endpoints — peers observe a disconnect.
    CrashAt {
        /// Pivot step at which the worker dies.
        step: usize,
    },
    /// The worker silently skips its sends of the block that carries
    /// pivot step `step` but keeps running — peers observe a receive
    /// timeout or the next block's message out of step (a lost message).
    DropMessageAt {
        /// Pivot step whose block's outgoing messages are lost.
        step: usize,
    },
    /// The worker sleeps before sending the block that carries pivot step
    /// `step`. A delay shorter than the receive timeout must *not* trigger
    /// recovery.
    DelaySendAt {
        /// Pivot step whose block's sends are delayed.
        step: usize,
        /// Delay duration in milliseconds.
        millis: u64,
    },
    /// The worker wedges at pivot step `step`: it checkpoints, parks for
    /// long enough to outlast every peer's receive budget, then returns
    /// quietly without sending anything further. Peers observe persistent
    /// silence — the permanent counterpart of [`FaultKind::DelaySendAt`].
    StallAt {
        /// Pivot step at which the worker goes silent.
        step: usize,
    },
}

impl FaultKind {
    /// The pivot step this fault fires at.
    pub fn step(self) -> usize {
        match self {
            FaultKind::CrashAt { step }
            | FaultKind::DropMessageAt { step }
            | FaultKind::DelaySendAt { step, .. }
            | FaultKind::StallAt { step } => step,
        }
    }

    /// Is this fault *transient* — able to resolve by waiting, so that
    /// retry/backoff can absorb it without convicting anyone?
    ///
    /// A delayed send resolves by itself once the sender wakes up (if the
    /// receive budget covers the delay). Everything else is persistent
    /// silence for the awaited message: a crashed or stalled worker never
    /// speaks again, and a dropped message never arrives no matter how
    /// long the victim waits — those must escalate to blame.
    pub fn is_transient(self) -> bool {
        match self {
            FaultKind::DelaySendAt { .. } => true,
            FaultKind::CrashAt { .. }
            | FaultKind::DropMessageAt { .. }
            | FaultKind::StallAt { .. } => false,
        }
    }

    /// Draw one fault uniformly-ish from the chaos distribution:
    /// crash / drop / stall / delay, with delay durations straddling
    /// `timeout_millis` so the boundary of the receive budget is probed
    /// from both sides.
    pub fn random<R: Rng>(n: usize, timeout_millis: u64, rng: &mut R) -> FaultKind {
        let step = rng.random_range(0..n.max(1));
        match rng.random_range(0..10u32) {
            0..=2 => FaultKind::CrashAt { step },
            3..=4 => FaultKind::DropMessageAt { step },
            5..=6 => FaultKind::StallAt { step },
            _ => {
                // Half the delays land under the timeout (must be invisible),
                // half over it (must be absorbed by retry or escalate).
                let t = timeout_millis.max(2);
                let millis = if rng.random_range(0..2u32) == 0 {
                    rng.random_range(1..t)
                } else {
                    rng.random_range(t..t * 3)
                };
                FaultKind::DelaySendAt { step, millis }
            }
        }
    }
}

/// A scripted set of `(processor, fault)` pairs for one executor run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scripted faults. Multiple faults per processor are allowed;
    /// each fires at its own step.
    pub faults: Vec<(Proc, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style: add one fault.
    pub fn with_fault(mut self, proc: Proc, kind: FaultKind) -> FaultPlan {
        self.faults.push((proc, kind));
        self
    }

    /// Convenience: a single crash of `proc` at pivot step `step`.
    pub fn crash(proc: Proc, step: usize) -> FaultPlan {
        FaultPlan::new().with_fault(proc, FaultKind::CrashAt { step })
    }

    /// A single crash of a random processor at a random pivot step of an
    /// `n x n` multiply, drawn deterministically from `rng`.
    pub fn random_crash<R: Rng>(n: usize, rng: &mut R) -> FaultPlan {
        let proc = Proc::ALL[rng.random_range(0..3usize)];
        let step = rng.random_range(0..n.max(1));
        FaultPlan::crash(proc, step)
    }

    /// A multi-fault schedule for an `n x n` multiply, drawn
    /// deterministically from `rng`: 1–3 faults from the
    /// [`FaultKind::random`] chaos distribution on distinct processors
    /// (so a cascade kills workers one at a time rather than scripting
    /// two faults on an already-dead worker).
    ///
    /// `timeout_millis` should be the run's configured receive timeout;
    /// delay durations are drawn straddling it so schedules probe the
    /// timeout boundary from both sides.
    pub fn random_schedule<R: Rng>(n: usize, timeout_millis: u64, rng: &mut R) -> FaultPlan {
        let count = rng.random_range(1..=3usize);
        let mut procs = Proc::ALL;
        // Partial Fisher-Yates: the first `count` entries are the victims.
        for i in 0..count {
            let j = rng.random_range(i..3usize);
            procs.swap(i, j);
        }
        let mut plan = FaultPlan::new();
        for &proc in &procs[..count] {
            plan = plan.with_fault(proc, FaultKind::random(n, timeout_millis, rng));
        }
        plan
    }

    /// The faults scripted for one processor.
    pub fn faults_for(&self, proc: Proc) -> Vec<FaultKind> {
        self.faults
            .iter()
            .filter(|(p, _)| *p == proc)
            .map(|&(_, k)| k)
            .collect()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn faults_for_filters_by_proc() {
        let plan = FaultPlan::new()
            .with_fault(Proc::R, FaultKind::CrashAt { step: 3 })
            .with_fault(Proc::S, FaultKind::DropMessageAt { step: 1 })
            .with_fault(
                Proc::R,
                FaultKind::DelaySendAt {
                    step: 5,
                    millis: 10,
                },
            );
        assert_eq!(plan.faults_for(Proc::R).len(), 2);
        assert_eq!(
            plan.faults_for(Proc::S),
            vec![FaultKind::DropMessageAt { step: 1 }]
        );
        assert!(plan.faults_for(Proc::P).is_empty());
    }

    #[test]
    fn random_crash_is_deterministic_and_in_range() {
        let n = 16;
        let a = FaultPlan::random_crash(n, &mut StdRng::seed_from_u64(9));
        let b = FaultPlan::random_crash(n, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let (_, kind) = a.faults[0];
        assert!(kind.step() < n);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::crash(Proc::S, 7).with_fault(
            Proc::P,
            FaultKind::DelaySendAt {
                step: 2,
                millis: 50,
            },
        );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn every_kind_roundtrips_through_json() {
        for kind in [
            FaultKind::CrashAt { step: 0 },
            FaultKind::DropMessageAt { step: 9 },
            FaultKind::DelaySendAt {
                step: 3,
                millis: 25,
            },
            FaultKind::StallAt { step: 6 },
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: FaultKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn transient_classification_matches_semantics() {
        assert!(FaultKind::DelaySendAt { step: 1, millis: 5 }.is_transient());
        assert!(!FaultKind::CrashAt { step: 1 }.is_transient());
        assert!(!FaultKind::DropMessageAt { step: 1 }.is_transient());
        assert!(!FaultKind::StallAt { step: 1 }.is_transient());
    }

    #[test]
    fn random_schedule_is_deterministic_and_well_formed() {
        let n = 20;
        let a = FaultPlan::random_schedule(n, 50, &mut StdRng::seed_from_u64(31));
        let b = FaultPlan::random_schedule(n, 50, &mut StdRng::seed_from_u64(31));
        assert_eq!(a, b);
        for seed in 0..200 {
            let plan = FaultPlan::random_schedule(n, 50, &mut StdRng::seed_from_u64(seed));
            assert!((1..=3).contains(&plan.faults.len()));
            // Distinct victims.
            let mut procs: Vec<Proc> = plan.faults.iter().map(|&(p, _)| p).collect();
            procs.sort_by_key(|p| p.idx());
            procs.dedup();
            assert_eq!(procs.len(), plan.faults.len());
            for (_, kind) in &plan.faults {
                assert!(kind.step() < n);
                if let FaultKind::DelaySendAt { millis, .. } = kind {
                    assert!((1..150).contains(millis), "delay straddles the timeout");
                }
            }
        }
    }

    #[test]
    fn random_schedule_covers_every_kind_and_both_delay_sides() {
        let n = 16;
        let (mut crash, mut drop, mut stall, mut under, mut over) = (0, 0, 0, 0, 0);
        for seed in 0..300 {
            let plan = FaultPlan::random_schedule(n, 40, &mut StdRng::seed_from_u64(seed));
            for (_, kind) in &plan.faults {
                match kind {
                    FaultKind::CrashAt { .. } => crash += 1,
                    FaultKind::DropMessageAt { .. } => drop += 1,
                    FaultKind::StallAt { .. } => stall += 1,
                    FaultKind::DelaySendAt { millis, .. } if *millis < 40 => under += 1,
                    FaultKind::DelaySendAt { .. } => over += 1,
                }
            }
        }
        assert!(crash > 0 && drop > 0 && stall > 0 && under > 0 && over > 0);
    }
}
