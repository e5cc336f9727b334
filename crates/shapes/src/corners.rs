//! Corner counting (Section VIII-A).
//!
//! The paper defines a *corner* as "a point in a partition shape of a single
//! processor at which the previously constant coordinate of the edge changes,
//! and the other coordinate becomes a constant" — i.e. a vertex of the
//! orthogonal polygon bounding the processor's region. Every shape has at
//! least four corners; the archetypes are distinguished by their counts
//! (A: 4+4, B: 4+6, C: ≥6 each, D: 4+8).
//!
//! We count vertices with the classic 2×2-window scan: slide a 2×2 window
//! over the grid (including a one-cell border of "outside"); a window
//! containing an odd number of region cells (1 or 3) contributes one vertex,
//! and a window containing exactly the two diagonal cells contributes two.
//! This is exact for arbitrary (even disconnected or holed) regions. The
//! scan runs a plane word at a time, over XORs and ANDs of adjacent row
//! words ([`NPartition::corner_count`](hetmmm_partition::NPartition::corner_count),
//! which also serves `k`-owner grids);
//! the per-cell scan stays as its test oracle.

use hetmmm_partition::{Partition, Proc};

/// Number of boundary vertices ("corners") of the region owned by `proc`.
///
/// Returns 0 for an empty region; any non-empty region has at least 4.
pub fn corner_count(part: &Partition, proc: Proc) -> usize {
    part.grid().corner_count(proc.q())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hetmmm_partition::{NPartition, PartitionBuilder, Rect};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The per-cell 2×2-window scan the word-wise counter replaced: four
    /// cell reads per window of the padded grid. The test oracle.
    pub(crate) fn corner_count_per_cell(part: &NPartition, p: u8) -> usize {
        let n = part.n();
        let inside = |i: isize, j: isize| -> bool {
            if i < 0 || j < 0 || i >= n as isize || j >= n as isize {
                return false;
            }
            part.get(i as usize, j as usize) == p
        };
        let mut corners = 0usize;
        // Window anchored at (i, j) covers cells (i,j), (i,j+1), (i+1,j),
        // (i+1,j+1) with the anchor ranging over the extended grid
        // [-1, n-1].
        for i in -1..n as isize {
            for j in -1..n as isize {
                let a = inside(i, j);
                let b = inside(i, j + 1);
                let c = inside(i + 1, j);
                let d = inside(i + 1, j + 1);
                let cnt = usize::from(a) + usize::from(b) + usize::from(c) + usize::from(d);
                match cnt {
                    1 | 3 => corners += 1,
                    2 if (a && d && !b && !c) || (b && c && !a && !d) => corners += 2,
                    _ => {}
                }
            }
        }
        corners
    }

    /// Grid sizes at and around the 64-bit word boundaries.
    const SIZES: [usize; 6] = [1, 2, 63, 64, 65, 130];

    /// A seeded `k`-owner grid of one of four kinds: a random start; owners
    /// boxed into a random sub-rectangle, edges mid-word or inside one
    /// word; cells that touch only diagonally (a checkerboard patch); or
    /// solid rectangles with holes punched in them.
    fn sample(n: usize, k: usize, kind: usize, seed: u64) -> NPartition {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<u32> = (0..k).map(|i| 1 + 2 * (k - i) as u32).collect();
        if kind == 0 {
            return NPartition::random(n, &weights, &mut rng);
        }
        let mut part = NPartition::new(n, k);
        let top = rng.random_range(0..n);
        let bottom = rng.random_range(top..n);
        let left = rng.random_range(0..n);
        let right = rng.random_range(left..n.min(left / 64 * 64 + 64 + 64 * (seed % 2) as usize));
        for i in top..=bottom {
            for j in left..=right {
                let owner = match kind {
                    1 => rng.random_range(0..k as u64) as u8,
                    2 => u8::from((i + j) % 2 == 0) * rng.random_range(1..k as u64) as u8,
                    _ => {
                        u8::from(rng.random_range(0..8u32) != 0)
                            * (1 + (j * k / n) as u8 % (k as u8 - 1))
                    }
                };
                part.set(i, j, owner);
            }
        }
        part
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The word-wise counter equals the per-cell scan for every owner,
        /// k = 2..=6, at sizes around the word boundaries.
        #[test]
        fn word_counter_matches_per_cell_scan(
            seed in 0u64..1_000_000,
            k in 2usize..=6,
            size in 0usize..6,
            kind in 0usize..4,
        ) {
            let part = sample(SIZES[size], k, kind, seed);
            for p in 0..k as u8 {
                prop_assert_eq!(
                    part.corner_count(p),
                    corner_count_per_cell(&part, p),
                    "seed {} k {} n {} kind {} owner {}", seed, k, SIZES[size], kind, p
                );
            }
        }
    }

    #[test]
    fn empty_region_has_no_corners() {
        let part = Partition::new(5, Proc::P);
        assert_eq!(corner_count(&part, Proc::R), 0);
    }

    #[test]
    fn rectangle_has_four_corners() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(2, 5, 1, 6), Proc::R)
            .build();
        assert_eq!(corner_count(&part, Proc::R), 4);
        // The complement (P) wraps the rectangle: 4 outer + 4 inner = 8.
        assert_eq!(corner_count(&part, Proc::P), 8);
    }

    #[test]
    fn full_matrix_has_four_corners() {
        let part = Partition::new(6, Proc::P);
        assert_eq!(corner_count(&part, Proc::P), 4);
    }

    #[test]
    fn single_cell_has_four_corners() {
        let mut part = Partition::new(4, Proc::P);
        part.set(2, 2, Proc::S);
        assert_eq!(corner_count(&part, Proc::S), 4);
    }

    #[test]
    fn l_shape_has_six_corners() {
        // Vertical bar rows 0..=3 col 0..=1 plus foot rows 2..=3 cols 2..=4.
        let part = PartitionBuilder::new(6)
            .rect(Rect::new(0, 3, 0, 1), Proc::R)
            .rect(Rect::new(2, 3, 2, 4), Proc::R)
            .build();
        assert_eq!(corner_count(&part, Proc::R), 6);
    }

    #[test]
    fn u_shape_has_eight_corners() {
        // Surround-style shape: bottom band + two arms.
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(5, 7, 0, 7), Proc::R)
            .rect(Rect::new(0, 4, 0, 1), Proc::R)
            .rect(Rect::new(0, 4, 6, 7), Proc::R)
            .build();
        assert_eq!(corner_count(&part, Proc::R), 8);
    }

    #[test]
    fn two_disjoint_rectangles_have_eight_corners() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 1, 0, 1), Proc::S)
            .rect(Rect::new(5, 6, 5, 6), Proc::S)
            .build();
        assert_eq!(corner_count(&part, Proc::S), 8);
    }

    #[test]
    fn diagonal_touch_counts_two_vertices() {
        // Two cells sharing only a corner point: the 2x2 diagonal pattern.
        let mut part = Partition::new(4, Proc::P);
        part.set(0, 0, Proc::R);
        part.set(1, 1, Proc::R);
        // Each cell contributes 3 solo vertices; the shared point is one
        // geometric point counted twice (the diagonal window): 3+3+2 = 8.
        assert_eq!(corner_count(&part, Proc::R), 8);
    }

    #[test]
    fn rectangle_with_hole() {
        // 6x6 R square with a 2x2 P hole: 4 outer + 4 inner corners.
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(1, 6, 1, 6), Proc::R)
            .rect(Rect::new(3, 4, 3, 4), Proc::P)
            .build();
        assert_eq!(corner_count(&part, Proc::R), 8);
    }
}
