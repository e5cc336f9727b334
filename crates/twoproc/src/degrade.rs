//! Survivor re-partitioning: the fault-tolerance bridge between the
//! three-processor executor and the two-processor optimality results.
//!
//! When one of the three workers dies mid-multiply, the remaining C
//! elements of the dead processor must be re-assigned onto the two
//! survivors. This is exactly the paper's two-processor degenerate case:
//! the prior work (\[8\], see [`crate::analysis`]) proved that the optimal
//! two-processor arrangement is the Straight-Line strip below a 3:1 speed
//! ratio and the Square-Corner above it. [`degrade_partition`] applies
//! that result *locally*: survivors keep every cell they already own (so
//! no redundant data movement on the recovery path), and only the dead
//! processor's cells are re-painted, split between the survivors in
//! proportion to their speeds and arranged to mimic the winning shape.
//!
//! The survivor speed ratio is inferred from the partition itself: element
//! counts are proportional to processor speeds by construction (Section
//! IX-B, Eq. 12), so `elems(fast) : elems(slow)` recovers the ratio
//! without the executor having to thread a [`hetmmm_partition::Ratio`]
//! through the recovery path.

use crate::shapes2::TwoProcShape;
use hetmmm_partition::{Partition, Proc};
use serde::{Deserialize, Serialize};

/// Result of re-assigning a dead processor's cells onto the survivors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DegradeOutcome {
    /// The degraded partition: `dead` owns nothing, survivors own their
    /// original cells plus their share of the dead cells.
    pub partition: Partition,
    /// The two-processor shape that guided the re-assignment.
    pub shape: TwoProcShape,
    /// Cells that changed owner — always the dead processor's full count.
    pub reassigned: usize,
    /// The faster survivor (by inferred element share).
    pub fast: Proc,
    /// The slower survivor.
    pub slow: Proc,
}

/// Re-assign every cell of `dead` onto the two surviving processors.
///
/// The split is proportional to the survivors' inferred speeds; the
/// arrangement follows the prior-work optimum for the survivor ratio
/// (see [`crate::analysis::crossover_ratio`]): strictly above 3:1 the
/// slow survivor's share is packed Square-Corner style (a compact block
/// grown from the bottom-right corner of the dead region's bounding box,
/// by Chebyshev distance); at or below 3:1 it takes the Straight-Line
/// style row-major tail of the dead region.
///
/// Survivors' existing cells are never touched, so `reassigned` equals
/// the dead processor's element count and the recovery path moves the
/// minimum amount of ownership.
pub fn degrade_partition(part: &Partition, dead: Proc) -> DegradeOutcome {
    let [a, b] = dead.others();
    let (fast, slow) = if part.elems(a) >= part.elems(b) {
        (a, b)
    } else {
        (b, a)
    };
    let fast_w = part.elems(fast);
    let slow_w = part.elems(slow);

    // Row-major by construction of `cells_of`.
    let mut dead_cells: Vec<(usize, usize)> = part.cells_of(dead).collect();
    let reassigned = dead_cells.len();

    // Proportional split, remainder to the fast survivor. If both
    // survivors are empty (the dead processor owned everything) fall back
    // to an even split.
    let total_w = fast_w + slow_w;
    let slow_take = (reassigned * slow_w)
        .checked_div(total_w)
        .unwrap_or(reassigned / 2);

    // Square-Corner pays off strictly above a 3:1 survivor ratio (ties go
    // to the Straight-Line, matching the prior-work crossover).
    let shape = if fast_w > 3 * slow_w {
        TwoProcShape::SquareCorner
    } else {
        TwoProcShape::StraightLine
    };

    if shape == TwoProcShape::SquareCorner && slow_take > 0 {
        // Pack the slow share against the bottom-right corner of the dead
        // region's bounding box: the cells nearest that corner by
        // Chebyshev distance form (approximately) a square block. The key
        // is a total order, so selecting the `slow_take` smallest gives the
        // same cells as sorting them all. The fast survivor owns cells
        // (`fast_w > 3 * slow_w`), so `slow_take < reassigned`.
        let corner_i = dead_cells.iter().map(|&(i, _)| i).max().unwrap_or(0);
        let corner_j = dead_cells.iter().map(|&(_, j)| j).max().unwrap_or(0);
        dead_cells.select_nth_unstable_by_key(slow_take, |&(i, j)| {
            let di = corner_i.abs_diff(i);
            let dj = corner_j.abs_diff(j);
            (di.max(dj), di + dj, i, j)
        });
        let mut partition = part.clone();
        for (idx, &(i, j)) in dead_cells.iter().enumerate() {
            partition.set(i, j, if idx < slow_take { slow } else { fast });
        }
        DegradeOutcome {
            partition,
            shape,
            reassigned,
            fast,
            slow,
        }
    } else {
        // Straight-Line: slow survivor takes the row-major tail (the
        // bottom strip of the dead region), fast the head.
        let mut partition = part.clone();
        let fast_take = reassigned - slow_take;
        for (idx, &(i, j)) in dead_cells.iter().enumerate() {
            partition.set(i, j, if idx < fast_take { fast } else { slow });
        }
        DegradeOutcome {
            partition,
            shape,
            reassigned,
            fast,
            slow,
        }
    }
}

/// Which survivor should carry a degraded run's serial tail: the fastest
/// by inferred speed (element counts are proportional to speeds by
/// construction, as in [`degrade_partition`]), ties broken toward the
/// lower processor index. `None` when no survivors remain.
pub fn fallback_survivor(part: &Partition, active: &[Proc]) -> Option<Proc> {
    active
        .iter()
        .copied()
        .max_by_key(|&p| (part.elems(p), std::cmp::Reverse(p.idx())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{PartitionBuilder, Ratio, Rect};

    fn ratio_partition(n: usize, ratio: Ratio) -> Partition {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        hetmmm_partition::random_partition(n, ratio, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn survivors_keep_their_cells() {
        let part = PartitionBuilder::new(12)
            .rect(Rect::new(0, 3, 0, 11), Proc::R)
            .rect(Rect::new(8, 11, 0, 11), Proc::S)
            .build();
        let out = degrade_partition(&part, Proc::S);
        assert_eq!(out.reassigned, part.elems(Proc::S));
        assert_eq!(out.partition.elems(Proc::S), 0);
        for (i, j) in part.cells_of(Proc::R) {
            assert_eq!(out.partition.get(i, j), Proc::R, "R cell ({i},{j}) moved");
        }
        for (i, j) in part.cells_of(Proc::P) {
            assert_eq!(out.partition.get(i, j), Proc::P, "P cell ({i},{j}) moved");
        }
        out.partition.assert_invariants();
    }

    #[test]
    fn split_is_proportional_to_inferred_speeds() {
        // 5:3:1 — kill S; survivors P (5 shares) and R (3 shares).
        let part = ratio_partition(24, Ratio::new(5, 3, 1));
        let dead_count = part.elems(Proc::S);
        let out = degrade_partition(&part, Proc::S);
        assert_eq!(out.fast, Proc::P);
        assert_eq!(out.slow, Proc::R);
        let slow_expected =
            dead_count * part.elems(Proc::R) / (part.elems(Proc::R) + part.elems(Proc::P));
        assert_eq!(
            out.partition.elems(Proc::R),
            part.elems(Proc::R) + slow_expected
        );
        assert_eq!(
            out.partition.elems(Proc::P),
            part.elems(Proc::P) + dead_count - slow_expected
        );
    }

    #[test]
    fn shape_follows_the_prior_work_crossover() {
        // 10:1:1 — kill R: survivor ratio P:S ≈ 10:1 > 3:1 → Square-Corner.
        let part = ratio_partition(30, Ratio::new(10, 1, 1));
        let out = degrade_partition(&part, Proc::R);
        assert_eq!(out.shape, TwoProcShape::SquareCorner);

        // 2:2:1 — kill S: survivor ratio P:R = 2:2 ≤ 3:1 → Straight-Line.
        let part = ratio_partition(30, Ratio::new(2, 2, 1));
        let out = degrade_partition(&part, Proc::S);
        assert_eq!(out.shape, TwoProcShape::StraightLine);
    }

    #[test]
    fn square_corner_share_is_compact() {
        // The slow survivor's new cells should hug the bottom-right corner
        // of the dead region: max Chebyshev radius ~ sqrt(share).
        let part = PartitionBuilder::new(20)
            .rect(Rect::new(10, 19, 10, 19), Proc::S)
            .build(); // S owns a 10x10 corner block; P the rest; R empty.
                      // Give R a token presence so the ratio P:R is extreme.
        let part = {
            let mut p = part;
            p.set(0, 0, Proc::R);
            p
        };
        let out = degrade_partition(&part, Proc::S);
        assert_eq!(out.shape, TwoProcShape::SquareCorner);
        assert_eq!(out.slow, Proc::R);
        let new_r: Vec<(usize, usize)> = out
            .partition
            .cells_of(Proc::R)
            .filter(|&(i, j)| part.get(i, j) == Proc::S)
            .collect();
        if !new_r.is_empty() {
            let radius = new_r
                .iter()
                .map(|&(i, j)| (19usize - i).max(19 - j))
                .max()
                .unwrap();
            let side = (new_r.len() as f64).sqrt().ceil() as usize;
            assert!(
                radius <= side + 1,
                "radius {radius} for {} cells",
                new_r.len()
            );
        }
    }

    #[test]
    fn degrading_empty_proc_is_a_no_op() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(4, 7, 0, 7), Proc::S)
            .build(); // R owns nothing.
        let out = degrade_partition(&part, Proc::R);
        assert_eq!(out.reassigned, 0);
        assert_eq!(out.partition, part);
    }

    #[test]
    fn fallback_survivor_prefers_fastest_then_lower_index() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 1, 0, 7), Proc::R) // 16 cells
            .rect(Rect::new(2, 7, 0, 7), Proc::S) // 48 cells
            .build(); // P owns nothing.
        assert_eq!(
            fallback_survivor(&part, &[Proc::R, Proc::S, Proc::P]),
            Some(Proc::S)
        );
        assert_eq!(fallback_survivor(&part, &[Proc::R, Proc::P]), Some(Proc::R));
        // Tie on element count (both zero): lower index wins.
        let empty_tie = Partition::new(8, Proc::S);
        assert_eq!(
            fallback_survivor(&empty_tie, &[Proc::R, Proc::P]),
            Some(Proc::R)
        );
        assert_eq!(fallback_survivor(&part, &[]), None);
    }

    /// The degrade as first written, kept as the reference: the slow
    /// survivor's Square-Corner share is the prefix of every dead cell
    /// sorted by the key.
    fn sorted_reference(part: &Partition, dead: Proc) -> Partition {
        let [a, b] = dead.others();
        let (fast, slow) = if part.elems(a) >= part.elems(b) {
            (a, b)
        } else {
            (b, a)
        };
        let (fast_w, slow_w) = (part.elems(fast), part.elems(slow));
        let mut dead_cells: Vec<(usize, usize)> = part.cells_of(dead).collect();
        let slow_take = (dead_cells.len() * slow_w)
            .checked_div(fast_w + slow_w)
            .unwrap_or(dead_cells.len() / 2);
        let mut partition = part.clone();
        if fast_w > 3 * slow_w && slow_take > 0 {
            let corner_i = dead_cells.iter().map(|&(i, _)| i).max().unwrap_or(0);
            let corner_j = dead_cells.iter().map(|&(_, j)| j).max().unwrap_or(0);
            dead_cells.sort_by_key(|&(i, j)| {
                let di = corner_i.abs_diff(i);
                let dj = corner_j.abs_diff(j);
                (di.max(dj), di + dj, i, j)
            });
            for (idx, &(i, j)) in dead_cells.iter().enumerate() {
                partition.set(i, j, if idx < slow_take { slow } else { fast });
            }
        } else {
            let fast_take = dead_cells.len() - slow_take;
            for (idx, &(i, j)) in dead_cells.iter().enumerate() {
                partition.set(i, j, if idx < fast_take { fast } else { slow });
            }
        }
        partition
    }

    #[test]
    fn selecting_the_slow_share_matches_sorting_every_dead_cell() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(27);
        let (mut cases, mut square_corner) = (0, 0);
        for n in [7, 64, 65, 130] {
            for ratio in Ratio::paper_ratios() {
                let mut parts: Vec<Partition> = hetmmm_shapes::candidates::all_feasible(n, ratio)
                    .into_iter()
                    .map(|c| c.partition)
                    .collect();
                parts.push(hetmmm_partition::random_partition(n, ratio, &mut rng));
                for part in &parts {
                    for dead in Proc::ALL {
                        let out = degrade_partition(part, dead);
                        assert!(
                            out.partition == sorted_reference(part, dead),
                            "N = {n}, {ratio:?}, {dead} dead: partitions differ"
                        );
                        cases += 1;
                        square_corner += usize::from(out.shape == TwoProcShape::SquareCorner);
                    }
                }
            }
        }
        assert_eq!((cases, square_corner), (900, 334));
    }

    #[test]
    fn dead_owner_of_everything_splits_evenly() {
        let part = Partition::new(10, Proc::P);
        let out = degrade_partition(&part, Proc::P);
        assert_eq!(out.reassigned, 100);
        assert_eq!(out.partition.elems(Proc::P), 0);
        let r = out.partition.elems(Proc::R);
        let s = out.partition.elems(Proc::S);
        assert_eq!(r + s, 100);
        assert!(r.abs_diff(s) <= 2, "even split expected: R {r} vs S {s}");
    }
}
