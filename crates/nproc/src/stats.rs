//! Shape descriptors for k-processor outcomes.
//!
//! The three-processor archetype taxonomy does not generalize one-to-one
//! (with four processors the overlap structure of three slower enclosing
//! rectangles is a small graph, not a binary relation), so this module
//! reports the raw descriptors a future taxonomy would be built from:
//! per-processor rectangularity (fill ratio of the enclosing rectangle),
//! corner counts, and the pairwise enclosing-rectangle overlap matrix.

use hetmmm_partition::NPartition;
use serde::{Deserialize, Serialize};

/// Shape descriptors of one processor's region.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProcShapeStats {
    /// Element count.
    pub elems: usize,
    /// Fill ratio of the enclosing rectangle (1.0 = exact rectangle);
    /// 0 for an empty region.
    pub fill: f64,
    /// Boundary vertex count ([`NPartition::corner_count`], the
    /// word-wise 2×2-window scan).
    pub corners: usize,
}

/// Descriptors of a whole outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OutcomeStats {
    /// Per-processor stats (index = processor id).
    pub per_proc: Vec<ProcShapeStats>,
    /// `overlaps[a][b]`: do the enclosing rectangles of processors `a` and
    /// `b` overlap? (Symmetric; diagonal true.)
    pub overlaps: Vec<Vec<bool>>,
    /// VoC of the partition.
    pub voc: u64,
}

/// Compute the descriptors for a partition.
pub fn outcome_stats(part: &NPartition) -> OutcomeStats {
    let k = part.k();
    let per_proc: Vec<ProcShapeStats> = (0..k as u8)
        .map(|p| {
            let elems = part.elems(p);
            let fill = part
                .enclosing_rect(p)
                .map_or(0.0, |r| elems as f64 / r.area() as f64);
            ProcShapeStats {
                elems,
                fill,
                corners: part.corner_count(p),
            }
        })
        .collect();
    let rects: Vec<_> = (0..k as u8).map(|p| part.enclosing_rect(p)).collect();
    let overlaps: Vec<Vec<bool>> = (0..k)
        .map(|a| {
            (0..k)
                .map(|b| match (&rects[a], &rects[b]) {
                    (Some(ra), Some(rb)) => ra.overlaps(rb),
                    _ => false,
                })
                .collect()
        })
        .collect();
    OutcomeStats {
        per_proc,
        overlaps,
        voc: part.voc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::{NDfaConfig, NDfaRunner};

    #[test]
    fn exact_rectangles_have_fill_one() {
        let mut part = NPartition::new(8, 3);
        for i in 0..4 {
            for j in 0..4 {
                part.set(i, j, 1);
            }
        }
        let stats = outcome_stats(&part);
        assert_eq!(stats.per_proc[1].fill, 1.0);
        assert_eq!(stats.per_proc[1].corners, 4);
        assert!(stats.overlaps[0][1], "P0 remainder wraps P1's rect");
    }

    #[test]
    fn search_outcomes_are_much_more_rectangular_than_scatter() {
        let runner = NDfaRunner::new(NDfaConfig::new(24, vec![6, 3, 2, 1]));
        let out = runner.run_seed(1);
        let stats = outcome_stats(&out.partition);
        // Random scatter fill ≈ area share (well under 0.4); condensed
        // regions should be substantially denser.
        for p in 1..4 {
            assert!(
                stats.per_proc[p].fill > 0.45,
                "proc {p} fill {} too scatter-like",
                stats.per_proc[p].fill
            );
        }
    }

    #[test]
    fn corner_counts_match_three_proc_module_semantics() {
        // An L-shape: 6 corners.
        let mut part = NPartition::new(8, 2);
        for i in 0..6 {
            for j in 0..2 {
                part.set(i, j, 1);
            }
        }
        for i in 4..6 {
            for j in 2..5 {
                part.set(i, j, 1);
            }
        }
        assert_eq!(part.corner_count(1), 6);
    }
}
