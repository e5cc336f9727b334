//! The k-processor rule layer: the Push generalized to `k` owners.
//!
//! The three-processor select-and-match operation carries over with one
//! structural change: there are `k − 1` possible displaced owners instead
//! of two, so the position-to-owner assignment of phase 2 ranges over a
//! vector of owners. The strictness ladder collapses the paper's six types
//! into three [`PushMode`]s (the displaced-side and active-side knobs the
//! types combine), each still governed by the exact ΔVoC contract:
//! `Strict` and `Budgeted` commit only on strict decrease, `Relaxed` on
//! non-increase.
//!
//! Phase 1 ([`crate::targets::prepare`]), phase 3 ([`crate::op::commit`]),
//! both grid views and the probe overlay are the ones the six types use;
//! only phase 2 and the admissibility rules differ, which is why the two
//! layers assign owners differently and stay two.

use crate::op::{commit, AttemptOutcome, Direction, PushGrid};
use crate::targets::{prepare, Candidates};
use crate::view::View;
use hetmmm_partition::NPartition;
use serde::{Deserialize, Serialize};

/// Legality ladder, from the paper's Type 1 (strictest) to Type 6.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PushMode {
    /// Active elements only into occupied lines; displaced owners only
    /// into positions they already share row/column with; ΔVoC < 0.
    Strict,
    /// Active side free (net budget), displaced side strict; ΔVoC < 0.
    Budgeted,
    /// Both sides free; ΔVoC ≤ 0.
    Relaxed,
}

impl PushMode {
    /// The ladder order `try_push_n` uses.
    pub const ALL: [PushMode; 3] = [PushMode::Strict, PushMode::Budgeted, PushMode::Relaxed];
}

/// Result of an applied generalized push.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NAppliedPush {
    /// The active processor.
    pub proc: u8,
    /// Direction.
    pub dir: Direction,
    /// Mode under which it was legal.
    pub mode: PushMode,
    /// Exact ΔVoC in line units.
    pub delta_voc_units: i64,
    /// Swaps performed.
    pub swaps: usize,
}

/// Phase 2 under one mode — assign an owner to each vacated position —
/// then phase 3 ([`commit`]) under the mode's active-side rule and ΔVoC
/// contract. Rolls back completely on failure.
pub(crate) fn attempt<G: PushGrid>(
    view: &mut G,
    proc: u8,
    mode: PushMode,
    prep: &Candidates,
    voc_before: i64,
) -> Option<AttemptOutcome> {
    let kline = prep.line;
    let cleaned = &prep.cleaned;
    let owners = &prep.owners;
    let m = cleaned.len();

    // A position is free for an owner when that owner already occupies
    // both the cleaned line and the position's cross line.
    let row_k_has: Vec<bool> = owners.iter().map(|&o| view.row_has(o, kline)).collect();
    let free = |s: usize, v: usize| row_k_has[s] && view.col_has(owners[s], v);
    let displaced_strict = !matches!(mode, PushMode::Relaxed);
    let mut demand = vec![0usize; owners.len()];
    let avail: Vec<usize> = prep.owner_targets.iter().map(Vec::len).collect();
    let mut assignment: Vec<usize> = Vec::with_capacity(m);
    let mut flexible: Vec<usize> = Vec::new();
    for (idx, &v) in cleaned.iter().enumerate() {
        let mut free_slots = (0..owners.len()).filter(|&s| free(s, v));
        match (free_slots.next(), free_slots.next()) {
            (None, _) if displaced_strict => return None,
            (Some(s), None) if demand[s] < avail[s] => {
                assignment.push(s);
                demand[s] += 1;
            }
            _ => {
                // Prefer a free owner with spare targets; resolved below.
                assignment.push(usize::MAX);
                flexible.push(idx);
            }
        }
    }
    for idx in flexible {
        let v = cleaned[idx];
        // Free owners first, then (unless displaced-strict) the others,
        // each ascending: the first with spare targets takes the cell.
        let free_slots = (0..owners.len()).filter(|&s| free(s, v));
        let others = (0..owners.len()).filter(|&s| !displaced_strict && !free(s, v));
        let s = free_slots.chain(others).find(|&s| demand[s] < avail[s])?;
        assignment[idx] = s;
        demand[s] += 1;
    }

    commit(
        view,
        proc,
        prep,
        &assignment,
        |cost, dirty_used| match mode {
            PushMode::Strict => cost == 0 || dirty_used + cost <= 1,
            PushMode::Budgeted | PushMode::Relaxed => true,
        },
        !matches!(mode, PushMode::Relaxed),
        voc_before,
    )
}

/// Attempt a push of `proc` in `dir`, trying modes strictest-first.
/// Commits the first legal one; otherwise leaves the partition untouched.
pub fn try_push_n(part: &mut NPartition, proc: u8, dir: Direction) -> Option<NAppliedPush> {
    try_ladder(part, proc, dir, &PushMode::ALL)
}

/// Attempt a push under one specific mode.
pub fn try_push_mode(
    part: &mut NPartition,
    proc: u8,
    dir: Direction,
    mode: PushMode,
) -> Option<NAppliedPush> {
    try_ladder(part, proc, dir, &[mode])
}

/// Commit the first of `ladder`'s modes under which the push is legal.
/// Phase 1 is mode-independent (and failed attempts roll back exactly),
/// so it is computed once and shared across the ladder.
fn try_ladder(
    part: &mut NPartition,
    proc: u8,
    dir: Direction,
    ladder: &[PushMode],
) -> Option<NAppliedPush> {
    let (k, voc_before) = (part.k(), part.voc_units() as i64);
    let mut view = View::new(part, dir);
    let prep = prepare(&view, proc, k)?;
    ladder.iter().find_map(|&mode| {
        let out = attempt(&mut view, proc, mode, &prep, voc_before)?;
        Some(NAppliedPush {
            proc,
            dir,
            mode,
            delta_voc_units: out.delta,
            swaps: out.swaps,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::push_feasible_n;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Clone-based oracle for the probe equivalence properties.
    fn would_push_n_reference(part: &NPartition, proc: u8, dir: Direction) -> bool {
        let mut scratch = part.clone();
        try_push_n(&mut scratch, proc, dir).is_some()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The clone-free probe and the clone-based oracle agree for every
        /// (pushable proc, direction) pair, including at intermediate
        /// states of a push sequence, across processor counts.
        #[test]
        fn probe_matches_clone_reference(seed in 0u64..1_000_000, k in 3usize..=6) {
            let weights: Vec<u32> = (0..k).map(|i| 1 + 2 * (k - i) as u32).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = NPartition::random(16, &weights, &mut rng);
            for _round in 0..4 {
                let mut moved = false;
                for proc in 1..k as u8 {
                    for dir in Direction::ALL {
                        prop_assert_eq!(
                            push_feasible_n(&part, proc, dir),
                            would_push_n_reference(&part, proc, dir),
                            "disagreement at seed {} for proc {} {:?}", seed, proc, dir
                        );
                        moved |= try_push_n(&mut part, proc, dir).is_some();
                    }
                }
                if !moved {
                    break;
                }
            }
            part.assert_invariants();
        }
    }
}
