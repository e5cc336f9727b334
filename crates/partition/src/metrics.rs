//! Communication metrics extracted from a [`Partition`].
//!
//! The five performance models (crate `hetmmm-cost`) are functions of a small
//! set of per-partition quantities defined in Sections II and IV-B of the
//! paper:
//!
//! - the total serial communication volume (Eq. 1 / Eq. 3),
//! - per-processor send volumes `d_X = N·i_X + N·j_X − ∈X` (Eq. 6),
//! - per-processor element counts `∈X` (computation volume),
//! - per-processor *locally computable* update counts (the `o_X` overlap
//!   terms of the SCO/PCO models, Eqs. 7–8).
//!
//! [`CommMetrics::from_partition`] gathers them all in one pass so the cost
//! models never need the grid itself.

use crate::grid::{NPartition, Partition};
use crate::proc_::Proc;
use serde::{Deserialize, Serialize};

/// Per-processor communication/computation quantities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcMetrics {
    /// `i_X`: number of rows containing elements of this processor.
    pub rows_occupied: usize,
    /// `j_X`: number of columns containing elements of this processor.
    pub cols_occupied: usize,
    /// `∈X`: number of elements assigned to this processor.
    pub elems: usize,
    /// Number of scalar updates `C[i,j] += A[i,k] * B[k,j]` for which this
    /// processor owns all three operands — the work available for bulk
    /// overlap (`o_X` numerator in Eqs. 7–8).
    pub local_updates: u64,
}

impl ProcMetrics {
    /// `d_X` in *elements*: `N·i_X + N·j_X − ∈X` (Eq. 6). The time to send
    /// all data owned by the processor that others need, under the
    /// fully-connected topology.
    pub fn send_elems(&self, n: usize) -> u64 {
        (n * self.rows_occupied + n * self.cols_occupied) as u64 - self.elems as u64
    }

    /// Number of scalar updates that *require* communicated operands:
    /// `N·∈X − local_updates` (each of the `∈X` C-elements receives `N`
    /// updates in the kij algorithm).
    pub fn remote_updates(&self, n: usize) -> u64 {
        n as u64 * self.elems as u64 - self.local_updates
    }
}

/// All quantities the cost models need, extracted from one partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommMetrics {
    /// Matrix dimension `N`.
    pub n: usize,
    /// Per-processor metrics, indexed by [`Proc::idx`] (`[R, S, P]`).
    pub per_proc: [ProcMetrics; 3],
    /// Eq. 1 total volume of communication, in elements.
    pub voc: u64,
}

impl CommMetrics {
    /// Extract the metrics from a partition.
    ///
    /// Everything except `local_updates` is `O(N / 64)` plane-mask
    /// popcounts; [`local_updates`] costs `O(runs · N)` over runs of
    /// identical rows — a few per processor for the candidate shapes, but
    /// `O(N³ / 64)` for a scattered grid. Callers that only need
    /// communication quantities can use
    /// [`CommMetrics::from_partition_comm_only`].
    pub fn from_partition(part: &Partition) -> CommMetrics {
        let mut metrics = Self::from_partition_comm_only(part);
        let local = local_updates(part);
        for p in Proc::ALL {
            metrics.per_proc[p.idx()].local_updates = local[p.idx()];
        }
        metrics
    }

    /// Extract only the communication quantities (`local_updates` left 0).
    pub fn from_partition_comm_only(part: &Partition) -> CommMetrics {
        let per_proc = Proc::ALL.map(|p| ProcMetrics {
            rows_occupied: part.rows_occupied(p),
            cols_occupied: part.cols_occupied(p),
            elems: part.elems(p),
            local_updates: 0,
        });
        CommMetrics {
            n: part.n(),
            per_proc,
            voc: part.voc(),
        }
    }

    /// Metrics of one processor.
    #[inline]
    pub fn proc(&self, p: Proc) -> &ProcMetrics {
        &self.per_proc[p.idx()]
    }
}

/// Pairwise communication volumes `vol[X][Y]`: the number of matrix elements
/// owner `X` must send to processor `Y` under the kij algorithm.
///
/// Element `(i, j)` (present in both A and B, identically partitioned) goes
/// to `Y ≠ X` once as an A-element when `Y` owns any element of row `i`, and
/// once as a B-element when `Y` owns any element of column `j`. Summing over
/// all elements and receivers recovers exactly the Eq. 1 VoC:
/// `Σ_{X≠Y} vol[X][Y] = VoC`.
pub fn pairwise_volumes(part: &Partition) -> [[u64; 3]; 3] {
    let n = part.n();
    let mut vol = [[0u64; 3]; 3];
    for x in Proc::ALL {
        for y in Proc::ALL {
            if x == y {
                continue;
            }
            let mut total = 0u64;
            for i in 0..n {
                if part.row_has(y, i) {
                    total += u64::from(part.row_count(x, i));
                }
            }
            for j in 0..n {
                if part.col_has(y, j) {
                    total += u64::from(part.col_count(x, j));
                }
            }
            vol[x.idx()][y.idx()] = total;
        }
    }
    vol
}

/// Count, for each processor `X`, the scalar updates `(i, j, k)` with
/// `owner(i,j) = owner(i,k) = owner(k,j) = X`.
///
/// With `L_i` row `i` of X's row plane, the count is
/// `Σ_i Σ_{k ∈ L_i} |L_i ∩ L_k|`. Consecutive rows with identical lines
/// form a *run* and share every term, so the sum is taken once per run,
/// weighted by its length: each run's pivots `k` are counted per run they
/// fall in, and each pair of runs met that way is popcounted once. The
/// cost is `O(runs · N)` plus one `O(N / 64)` popcount per run pair — a
/// few runs per processor for the candidate shapes; a scattered grid has
/// ~`N` runs and costs `O(N³ / 64)`. Memory is `O(N)`.
pub fn local_updates(part: &Partition) -> [u64; 3] {
    Proc::ALL.map(|x| local_updates_of(part.grid(), x.q()))
}

/// [`local_updates`] of owner `x`, read from its row plane.
fn local_updates_of(grid: &NPartition, x: u8) -> u64 {
    let words = grid.words_per_line();
    let word = |i: usize, w: usize| grid.row_plane_word(x, i, w);
    // Runs of identical consecutive lines, as `(first row, length)`, and
    // the run of every row.
    let mut runs: Vec<(usize, u64)> = Vec::new();
    let mut run_of = Vec::with_capacity(grid.n());
    for i in 0..grid.n() {
        match runs.last_mut() {
            Some((first, len)) if (0..words).all(|w| word(*first, w) == word(i, w)) => *len += 1,
            _ => runs.push((i, 1)),
        }
        run_of.push(runs.len() - 1);
    }
    let mut total = 0u64;
    for &(a, len) in &runs {
        // `pivots` of row `a`'s columns fall in the rows of run `b`.
        let mut tally = |b: usize, pivots: u64| {
            let shared: u32 = (0..words)
                .map(|w| (word(a, w) & word(runs[b].0, w)).count_ones())
                .sum();
            total += len * pivots * u64::from(shared);
        };
        // Pivots ascend, so those in one run arrive together.
        let (mut run, mut pivots) = (0, 0u64);
        for w in 0..words {
            let mut m = word(a, w);
            while m != 0 {
                let k = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                if pivots != 0 && run_of[k] != run {
                    tally(run, pivots);
                    pivots = 0;
                }
                run = run_of[k];
                pivots += 1;
            }
        }
        if pivots != 0 {
            tally(run, pivots);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    /// Brute-force `O(N³)` reference for `local_updates`.
    fn local_updates_naive(part: &Partition) -> [u64; 3] {
        let n = part.n();
        let mut totals = [0u64; 3];
        for i in 0..n {
            for j in 0..n {
                let owner = part.get(i, j);
                for k in 0..n {
                    if part.get(i, k) == owner && part.get(k, j) == owner {
                        totals[owner.idx()] += 1;
                    }
                }
            }
        }
        totals
    }

    #[test]
    fn uniform_partition_is_fully_local() {
        let part = Partition::new(6, Proc::P);
        let m = CommMetrics::from_partition(&part);
        assert_eq!(m.voc, 0);
        assert_eq!(m.proc(Proc::P).local_updates, 6 * 6 * 6);
        assert_eq!(m.proc(Proc::P).remote_updates(6), 0);
        assert_eq!(m.proc(Proc::R).elems, 0);
    }

    #[test]
    fn bitset_matches_naive_on_strips() {
        let part = Partition::from_fn(9, |i, _| {
            if i < 3 {
                Proc::P
            } else if i < 6 {
                Proc::R
            } else {
                Proc::S
            }
        });
        assert_eq!(local_updates(&part), local_updates_naive(&part));
    }

    #[test]
    fn bitset_matches_naive_on_square_corner() {
        let mut part = Partition::new(12, Proc::P);
        part.fill_rect(Rect::new(0, 3, 0, 3), Proc::R);
        part.fill_rect(Rect::new(8, 11, 8, 11), Proc::S);
        assert_eq!(local_updates(&part), local_updates_naive(&part));
    }

    #[test]
    fn bitset_matches_naive_on_scattered() {
        // Deterministic pseudo-random scatter.
        let part = Partition::from_fn(17, |i, j| match (i * 31 + j * 17) % 5 {
            0 | 1 => Proc::P,
            2 => Proc::R,
            _ => Proc::S,
        });
        assert_eq!(local_updates(&part), local_updates_naive(&part));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Row runs are exact on scattered grids, rect unions, and grids
        /// whose identical rows are not consecutive.
        #[test]
        fn row_runs_match_naive(seed in 0u64..1_000_000, size in 0usize..5, shape in 0usize..3) {
            use crate::builder::{random_partition, PartitionBuilder};
            use crate::proc_::Ratio;
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let n = [1, 2, 7, 17, 40][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let owner = |rng: &mut StdRng| Proc::from_q(rng.random_range(0..3u8));
            let part = match shape {
                0 => {
                    let s = rng.random_range(1..=3);
                    let r = rng.random_range(s..=4);
                    let p = rng.random_range(r..=8);
                    random_partition(n, Ratio::new(p, r, s), &mut rng)
                }
                1 => {
                    let mut builder = PartitionBuilder::new(n);
                    for _ in 0..rng.random_range(1..=6) {
                        let (t, b) = (rng.random_range(0..n), rng.random_range(0..n));
                        let (l, r) = (rng.random_range(0..n), rng.random_range(0..n));
                        let rect = Rect::new(t.min(b), t.max(b), l.min(r), l.max(r));
                        builder = builder.rect(rect, owner(&mut rng));
                    }
                    builder.build()
                }
                _ => {
                    // A few random line patterns repeated with a period, so
                    // equal lines recur between different ones.
                    let period = rng.random_range(2..=4);
                    let lines: Vec<Vec<Proc>> = (0..period)
                        .map(|_| (0..n).map(|_| owner(&mut rng)).collect())
                        .collect();
                    Partition::from_fn(n, |i, j| lines[i % period][j])
                }
            };
            proptest::prop_assert_eq!(local_updates(&part), local_updates_naive(&part));
        }
    }

    #[test]
    fn send_elems_matches_eq6() {
        // R owns a 2x3 rectangle in a 6x6 matrix:
        // d_R = N*i_R + N*j_R - |R| = 6*2 + 6*3 - 6 = 24.
        let mut part = Partition::new(6, Proc::P);
        part.fill_rect(Rect::new(1, 2, 0, 2), Proc::R);
        let m = CommMetrics::from_partition_comm_only(&part);
        assert_eq!(m.proc(Proc::R).send_elems(6), 24);
        // P occupies every row and column: d_P = 6*6 + 6*6 - 30 = 42.
        assert_eq!(m.proc(Proc::P).send_elems(6), 42);
    }

    #[test]
    fn remote_plus_local_equals_total_updates() {
        let part = Partition::from_fn(10, |i, j| {
            if i < 5 && j < 5 {
                Proc::R
            } else if i >= 5 && j >= 5 {
                Proc::S
            } else {
                Proc::P
            }
        });
        let m = CommMetrics::from_partition(&part);
        for p in Proc::ALL {
            let pm = m.proc(p);
            assert_eq!(
                pm.local_updates + pm.remote_updates(10),
                10 * pm.elems as u64
            );
        }
    }

    #[test]
    fn pairwise_volumes_sum_to_voc() {
        let part = Partition::from_fn(10, |i, j| {
            if i < 5 && j < 5 {
                Proc::R
            } else if i >= 5 && j >= 5 {
                Proc::S
            } else {
                Proc::P
            }
        });
        let vol = pairwise_volumes(&part);
        let total: u64 = vol.iter().flatten().sum();
        assert_eq!(total, part.voc());
        for x in Proc::ALL {
            assert_eq!(vol[x.idx()][x.idx()], 0);
        }
    }

    #[test]
    fn pairwise_volumes_strips() {
        // Three horizontal strips: every column has all three processors, so
        // every element is sent to both others as a B-element; no A-element
        // traffic (each row has one owner).
        let n = 9;
        let part = Partition::from_fn(n, |i, _| {
            if i < 3 {
                Proc::P
            } else if i < 6 {
                Proc::R
            } else {
                Proc::S
            }
        });
        let vol = pairwise_volumes(&part);
        for x in Proc::ALL {
            for y in Proc::ALL {
                if x != y {
                    assert_eq!(vol[x.idx()][y.idx()], 27, "{x}->{y}");
                }
            }
        }
    }
}
