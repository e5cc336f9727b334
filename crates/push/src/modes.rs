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
//! Phase 1 (`targets::prepare`), the ladder driver (`ladder`: phase 3,
//! its record and undo), the grid view and the probe are the ones the six
//! types use; only phase 2 and the rungs differ, which is why the two
//! layers assign owners differently and stay two.

use crate::ladder::{climb, ActiveSide, Finish, RuleLayer, Rung};
use crate::op::Direction;
use crate::targets::{Candidates, LineGrid};
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

    /// The ladder of `try_push_n`: one rung per mode, in
    /// [`PushMode::ALL`] order.
    pub(crate) const RUNGS: [Rung; 3] = [
        PushMode::Strict.rung(),
        PushMode::Budgeted.rung(),
        PushMode::Relaxed.rung(),
    ];

    /// This mode's rung. Strict admits a target of cost 0, or one whose
    /// cost keeps the push's dirty total at 1 or less; the total then never
    /// exceeds 1, so that is the one-dirty rule.
    pub(crate) const fn rung(self) -> Rung {
        let (displaced_strict, active, strict_decrease) = match self {
            PushMode::Strict => (true, ActiveSide::OneDirty, true),
            PushMode::Budgeted => (true, ActiveSide::Budgeted, true),
            PushMode::Relaxed => (false, ActiveSide::Budgeted, false),
        };
        Rung {
            index: self as usize,
            displaced_strict,
            active,
            strict_decrease,
        }
    }
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

/// Phase 2 of a k-processor push — assign an owner slot to each vacated
/// position — under the displaced-side class `displaced_strict`; `None`
/// when no assignment exists.
///
/// A position is free for an owner when that owner already occupies both
/// the cleaned line and the position's cross line. A position free for
/// exactly one owner with spare targets takes it; the others take, in
/// order, the first free owner with spare targets, then (unless
/// displaced-strict) the first other one.
#[inline]
pub(crate) fn assign(view: &View, prep: &Candidates, displaced_strict: bool) -> Option<Vec<usize>> {
    let kline = prep.line;
    let cleaned = &prep.cleaned;
    let owners = &prep.owners;
    let row_k_has: Vec<bool> = owners.iter().map(|&o| view.row_has(o, kline)).collect();
    let free = |s: usize, v: usize| row_k_has[s] && view.col_has(owners[s], v);
    let mut demand = vec![0usize; owners.len()];
    let avail: Vec<usize> = prep.owner_targets.iter().map(Vec::len).collect();
    let mut assignment: Vec<usize> = Vec::with_capacity(cleaned.len());
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
    Some(assignment)
}

/// Attempt a push of `proc` in `dir`, trying modes strictest-first.
/// Commits the first legal one; otherwise leaves the partition untouched.
pub fn try_push_n(part: &mut NPartition, proc: u8, dir: Direction) -> Option<NAppliedPush> {
    try_ladder(part, proc, dir, &PushMode::RUNGS)
}

/// Attempt a push under one specific mode.
pub fn try_push_mode(
    part: &mut NPartition,
    proc: u8,
    dir: Direction,
    mode: PushMode,
) -> Option<NAppliedPush> {
    try_ladder(part, proc, dir, &[mode.rung()])
}

/// Commit the first of `rungs` under which the push is legal.
fn try_ladder(
    part: &mut NPartition,
    proc: u8,
    dir: Direction,
    rungs: &[Rung],
) -> Option<NAppliedPush> {
    let pushed = climb(part, RuleLayer::Modes, proc, dir, rungs, Finish::Apply)?;
    Some(NAppliedPush {
        proc,
        dir,
        mode: PushMode::ALL[pushed.rung],
        delta_voc_units: pushed.delta,
        swaps: pushed.swaps,
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
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The clone-free probe and the clone-based oracle agree for every
        /// (pushable proc, direction) pair, including at intermediate
        /// states of a push sequence, across processor counts.
        #[test]
        fn probe_matches_clone_reference(seed in 0u64..1_000_000, k in 2usize..=6) {
            let weights: Vec<u32> = (0..k).map(|i| 1 + 2 * (k - i) as u32).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = NPartition::random(16, &weights, &mut rng);
            for _round in 0..4 {
                let mut moved = false;
                for proc in 1..k as u8 {
                    for dir in Direction::ALL {
                        prop_assert_eq!(
                            push_feasible_n(&mut part, proc, dir),
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
