//! Exhaustive condensation — the paper's "beautify" pass (Theorem 8.3).
//!
//! Archetype C shapes are fixed points of a *restricted* plan on which valid
//! pushes remain in the directions the randomized run did not select. The
//! paper notes: "Transforming partition shapes of this archetype is a simple
//! matter of applying the Push operation in the direction not selected by the
//! program. In the program, this case is handled by a 'beautify' function."
//!
//! [`beautify`] applies pushes for both slower processors in all four
//! directions, round-robin, until no push is legal anywhere. It stops by
//! the DFA walk's rule: a step cap, a cap on consecutive VoC-neutral
//! pushes, and a revisit of a state with no VoC improvement in between.

use crate::dfa::StopRule;
use crate::op::{try_push_any_type, Direction};
use crate::probe::push_feasible;
use hetmmm_partition::{Partition, Proc};

/// Apply pushes in every direction until the partition is fully condensed.
/// Returns the number of pushes applied.
pub fn beautify(part: &mut Partition) -> usize {
    let n = part.n();
    let mut stop = StopRule::new(100 * n.max(8), (4 * n).max(64), part.grid());
    loop {
        let mut progressed = false;
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                while let Some(applied) = try_push_any_type(part, proc, dir) {
                    progressed = true;
                    let stopped = stop.after_push(applied.delta_voc_units, part.state_hash());
                    if stopped.is_some() {
                        return stop.steps();
                    }
                }
            }
        }
        if !progressed {
            return stop.steps();
        }
    }
}

/// Is the partition a fixed point — no legal push for either slower
/// processor in any direction? (The paper's end condition, Section VI-C.)
/// Each probe reverts what it applies, so `part` is left as it was found.
pub fn is_condensed(part: &mut Partition) -> bool {
    Proc::PUSHABLE.into_iter().all(|p| {
        Direction::ALL
            .into_iter()
            .all(|d| !push_feasible(part, p, d))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{random_partition, PartitionBuilder, Ratio, Rect};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beautify_reaches_fixed_point() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut part = random_partition(24, Ratio::new(3, 1, 1), &mut rng);
        let voc_before = part.voc();
        let steps = beautify(&mut part);
        assert!(steps > 0);
        assert!(part.voc() <= voc_before);
        assert!(is_condensed(&mut part), "beautify must fully condense");
        part.assert_invariants();
    }

    #[test]
    fn beautify_idempotent() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut part = random_partition(16, Ratio::new(2, 2, 1), &mut rng);
        beautify(&mut part);
        let snapshot = part.clone();
        let extra = beautify(&mut part);
        assert_eq!(extra, 0, "second beautify must be a no-op");
        assert_eq!(part, snapshot);
    }

    #[test]
    fn condenses_dfa_outcomes() {
        let runner = crate::DfaRunner::new(crate::DfaConfig::new(30, Ratio::new(2, 1, 1)));
        for seed in 0..12u64 {
            let mut part = runner.run_seed(seed).partition;
            beautify(&mut part);
            assert!(is_condensed(&mut part), "seed {seed} not condensed");
        }
    }

    #[test]
    fn condensed_shape_detected() {
        let mut part = PartitionBuilder::new(12)
            .rect(Rect::new(0, 3, 0, 3), Proc::R)
            .rect(Rect::new(8, 11, 8, 11), Proc::S)
            .build();
        assert!(is_condensed(&mut part));
    }

    #[test]
    fn scattered_shape_not_condensed() {
        let mut part = PartitionBuilder::new(12)
            .rect(Rect::new(0, 0, 0, 5), Proc::R)
            .rect(Rect::new(5, 8, 2, 3), Proc::R)
            .rect(Rect::new(10, 11, 10, 11), Proc::S)
            .build();
        assert!(!is_condensed(&mut part));
    }
}
