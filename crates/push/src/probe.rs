//! Push-feasibility probes.
//!
//! [`push_feasible`] answers "would *any* type of push of `proc` in `dir`
//! be legal?" — the question the DFA's residual check and
//! [`crate::is_condensed`] ask of 8 pairs (2 pushable processors × 4
//! directions) per fixed-point test — without cloning the partition;
//! [`push_feasible_n`] asks the same of the k-processor modes.
//!
//! ## How it stays exact
//!
//! The probe climbs the *same* ladder that applies real pushes — phase 1,
//! then the rule layer's rungs in order — on the grid itself, and ends by
//! rolling back whatever journal the grid holds, a legal push's included.
//! So the grid is left exactly as it was found, state hash and
//! nonzero-word summaries included. One kernel decides both, so there is no second legality
//! implementation that could drift from the real one, and a probe costs
//! what a push attempt costs, plus the revert of a legal one. The old
//! clone-based probe cloned the full O(N²) grid *per question*; see
//! `DESIGN.md` §11 for the measured effect.

use crate::ladder::RuleLayer;
use crate::op::Direction;
use hetmmm_partition::{NPartition, Partition, Proc};

/// Would *any* type of push of `proc` in `dir` be legal? Decided by the
/// same kernel as [`crate::try_push_any_type`], on `part` itself: a legal
/// push is applied and reverted, so `part` is left exactly as it was
/// found. No clone, and no allocation beyond the push's own.
///
/// ```
/// use hetmmm_partition::{PartitionBuilder, Proc, Rect};
/// use hetmmm_push::{push_feasible, Direction};
///
/// // A stray R element above an almost-complete R block with a hole.
/// let mut part = PartitionBuilder::new(6)
///     .rect(Rect::new(1, 1, 2, 2), Proc::R)
///     .rect(Rect::new(2, 2, 1, 2), Proc::R)
///     .rect(Rect::new(3, 3, 1, 1), Proc::R)
///     .build();
/// assert!(push_feasible(&mut part, Proc::R, Direction::Down));
/// // Probing reverts the push: the partition is still what we built.
/// assert_eq!(part.get(1, 2), Proc::R);
/// ```
pub fn push_feasible(part: &mut Partition, proc: Proc, dir: Direction) -> bool {
    RuleLayer::Types.feasible(part.grid_mut(), proc.q(), dir)
}

/// Would a push of `proc` in `dir` be legal under any [`PushMode`](crate::PushMode)?
/// Decided by the same kernel as [`crate::try_push_n`], on `part` itself,
/// which is left exactly as it was found — no clone of the `O(N²)` grid.
pub fn push_feasible_n(part: &mut NPartition, proc: u8, dir: Direction) -> bool {
    RuleLayer::Modes.feasible(part, proc, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{try_push_any_type, would_push_reference};
    use hetmmm_partition::{random_partition, PartitionBuilder, Ratio};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The clone-free probe and the clone-based oracle agree for every
        /// (pushable proc, direction) pair on random partitions.
        #[test]
        fn probe_matches_clone_reference(seed in 0u64..1_000_000, n in 6usize..=20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
            for proc in Proc::PUSHABLE {
                for dir in Direction::ALL {
                    prop_assert_eq!(
                        push_feasible(&mut part, proc, dir),
                        would_push_reference(&part, proc, dir),
                        "disagreement at seed {} for {} {}", seed, proc, dir
                    );
                }
            }
        }

        /// Same agreement holds at every intermediate state of a push
        /// sequence, not just on fresh random partitions — the states the
        /// DFA actually probes.
        #[test]
        fn probe_matches_reference_along_push_sequences(
            seed in 0u64..1_000_000,
            n in 6usize..=16,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = random_partition(n, Ratio::new(2, 1, 1), &mut rng);
            for _round in 0..8 {
                let mut moved = false;
                for proc in Proc::PUSHABLE {
                    for dir in Direction::ALL {
                        prop_assert_eq!(
                            push_feasible(&mut part, proc, dir),
                            would_push_reference(&part, proc, dir),
                            "disagreement at seed {} for {} {}", seed, proc, dir
                        );
                        moved |= try_push_any_type(&mut part, proc, dir).is_some();
                    }
                }
                if !moved {
                    break;
                }
            }
        }
    }

    #[test]
    fn probe_never_mutates() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut part = random_partition(10, Ratio::new(2, 1, 1), &mut rng);
        let copy = part.clone();
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                let _ = push_feasible(&mut part, proc, dir);
            }
        }
        assert_eq!(part, copy);
        part.assert_invariants();

        // Past 128 columns phase 1 reads the nonzero-word summaries; with
        // them and the state hash read before probing, every swap and its
        // revert must keep both current.
        for n in [130, 200] {
            let mut part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
            let (copy, hash) = (part.clone(), read_derived(part.grid()));
            let mut feasible = 0;
            for proc in Proc::PUSHABLE {
                for dir in Direction::ALL {
                    feasible += usize::from(push_feasible(&mut part, proc, dir));
                }
            }
            assert!(feasible > 0, "N = {n}: no probe reverted a push");
            assert_eq!(part, copy, "N = {n}");
            assert_eq!(part.state_hash(), hash, "N = {n}");
            part.assert_invariants();
        }

        let mut part = NPartition::random(130, &[9, 7, 5, 3, 1], &mut rng);
        let (copy, hash) = (part.clone(), read_derived(&part));
        let mut feasible = 0;
        for proc in 1..5 {
            for dir in Direction::ALL {
                feasible += usize::from(push_feasible_n(&mut part, proc, dir));
            }
        }
        assert!(feasible > 0, "k = 5: no probe reverted a push");
        assert_eq!(part, copy, "k = 5");
        assert_eq!(part.state_hash(), hash, "k = 5");
        part.assert_invariants();
    }

    /// Read both nonzero-word summaries and the state hash, so that every
    /// mutation from here on maintains them; returns the hash.
    fn read_derived(grid: &NPartition) -> u64 {
        grid.row_nonzero_words(0, 0, 0);
        grid.col_nonzero_words(0, 0, 0);
        grid.state_hash()
    }

    #[test]
    fn probe_false_on_empty_processor() {
        let mut part = PartitionBuilder::new(5).build(); // all P
        for dir in Direction::ALL {
            assert!(!push_feasible(&mut part, Proc::R, dir));
            assert!(!push_feasible(&mut part, Proc::S, dir));
        }
    }
}
