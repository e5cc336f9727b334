//! The executor's per-step C update: one worker's accumulators and the
//! layout its kij step walks them in.
//!
//! At pivot step `k` a worker adds `A[i,k] * B[k,j]` to every C cell
//! `(i, j)` it owns that still needs step `k` (a resumed attempt starts
//! each cell at its checkpointed first step). The owned cells fall into
//! *row runs*: maximal stretches of consecutive owned columns in one row
//! that share a first step. Every §IX candidate gives each processor one
//! or two rectangles, so its runs are long; a random partition's are one
//! to three cells. [`Kernel::new`] picks a layout per owner from the mean
//! run length:
//!
//! - **Slices**, when the mean run is at least [`SLICE_MIN_MEAN_RUN`]
//!   cells: one span per run, updated as
//!   `acc[off..off + len] += a_col[i] * b_row[j0..j0 + len]` over two
//!   slices, which the compiler vectorises.
//! - **Rows** otherwise: one span per row (split only where the first step
//!   changes) with every cell's column, updated by reading `a_col[i]` once
//!   and gathering `b_row` through the column list into the span's
//!   contiguous accumulators.
//!
//! Each span checks its first step once per step. Either way every cell
//! adds one product per step in ascending `k`, exactly as a per-cell loop
//! does (no fused multiply-add), so C and the update counts are
//! bit-identical whichever layout runs.

use crate::supervise::{CellState, ProcSnapshot};
use hetmmm_partition::{Partition, Proc};

/// Mean row-run length, in cells, from which an owner's update runs over
/// slices instead of the row gather. DESIGN.md §3.6 gives the crossover
/// measurement behind it.
pub(crate) const SLICE_MIN_MEAN_RUN: usize = 8;

/// A stretch of one row's owned cells that all still need the same first
/// pivot step. Its accumulators are the `len` after the previous span's.
#[derive(Clone, Copy, Debug)]
struct Span {
    row: u32,
    /// The first cell's column. Under [`Layout::Slices`] the span covers
    /// columns `col..col + len`.
    col: u32,
    len: u32,
    /// First pivot step the span's cells still need.
    first: u32,
}

#[derive(Clone, Debug, PartialEq)]
enum Layout {
    /// Every span is a row run.
    Slices,
    /// Every span is a row's cells up to a change of first step; entry `c`
    /// is accumulator `c`'s column.
    Rows(Vec<u32>),
}

/// One owner's C accumulators, row-major in [`Partition::cells_of`] order,
/// and the spans its per-step update walks.
#[derive(Clone, Debug)]
pub(crate) struct Kernel {
    acc: Vec<f64>,
    spans: Vec<Span>,
    layout: Layout,
}

impl Kernel {
    /// `owner`'s cells of `part`, starting from the partials and first
    /// steps in `state`, in the layout their mean row run calls for.
    pub(crate) fn new(part: &Partition, owner: Proc, state: &CellState) -> Kernel {
        let kernel = Kernel::runs(part, owner, state);
        if kernel.acc.len() < SLICE_MIN_MEAN_RUN * kernel.spans.len() {
            kernel.into_rows()
        } else {
            kernel
        }
    }

    /// The slice layout: one span per row run.
    fn runs(part: &Partition, owner: Proc, state: &CellState) -> Kernel {
        let n = part.n();
        let mut acc = Vec::with_capacity(part.elems(owner));
        let mut spans: Vec<Span> = Vec::new();
        for (i, j) in part.cells_of(owner) {
            let idx = i * n + j;
            let (row, col, first) = (i as u32, j as u32, state.next_k[idx]);
            acc.push(state.c[idx]);
            match spans.last_mut() {
                Some(s) if s.row == row && s.col + s.len == col && s.first == first => s.len += 1,
                _ => spans.push(Span {
                    row,
                    col,
                    len: 1,
                    first,
                }),
            }
        }
        Kernel {
            acc,
            spans,
            layout: Layout::Slices,
        }
    }

    /// The row layout of the same cells: runs of one row with one first
    /// step merge into one span, and every cell keeps its column.
    fn into_rows(self) -> Kernel {
        let mut cols = Vec::with_capacity(self.acc.len());
        let mut spans: Vec<Span> = Vec::new();
        for run in self.spans {
            cols.extend(run.col..run.col + run.len);
            match spans.last_mut() {
                Some(s) if s.row == run.row && s.first == run.first => s.len += run.len,
                _ => spans.push(run),
            }
        }
        Kernel {
            acc: self.acc,
            spans,
            layout: Layout::Rows(cols),
        }
    }

    /// Owned cells.
    pub(crate) fn len(&self) -> usize {
        self.acc.len()
    }

    /// Apply pivot step `k` to every cell that still needs it, reading
    /// `A[i,k]` from `a_col[i]` and `B[k,j]` from `b_row[j]`. Returns the
    /// updates made.
    pub(crate) fn step(&mut self, k: usize, a_col: &[f64], b_row: &[f64]) -> u64 {
        let k = k as u32;
        let mut off = 0;
        let mut applied = 0u64;
        match &self.layout {
            Layout::Slices => {
                for s in &self.spans {
                    let (end, j0) = (off + s.len as usize, s.col as usize);
                    if k >= s.first {
                        let a = a_col[s.row as usize];
                        let acc = &mut self.acc[off..end];
                        let b = &b_row[j0..j0 + acc.len()];
                        for (c, &bj) in acc.iter_mut().zip(b) {
                            *c += a * bj;
                        }
                        applied += u64::from(s.len);
                    }
                    off = end;
                }
            }
            Layout::Rows(cols) => {
                for s in &self.spans {
                    let end = off + s.len as usize;
                    if k >= s.first {
                        let a = a_col[s.row as usize];
                        for (c, &j) in self.acc[off..end].iter_mut().zip(&cols[off..end]) {
                            *c += a * b_row[j as usize];
                        }
                        applied += u64::from(s.len);
                    }
                    off = end;
                }
            }
        }
        applied
    }

    /// The checkpoint of every owned cell, in accumulator order: a cell's
    /// partial is valid through `through` steps, or through its own first
    /// step if that is further along.
    pub(crate) fn snapshot(&self, through: u32) -> ProcSnapshot {
        let mut cells = Vec::with_capacity(self.acc.len());
        let mut off = 0;
        for s in &self.spans {
            let end = off + s.len as usize;
            let (acc, through) = (&self.acc[off..end], s.first.max(through));
            match &self.layout {
                Layout::Slices => {
                    cells.extend((s.col..).zip(acc).map(|(j, &v)| (s.row, j, v, through)));
                }
                Layout::Rows(cols) => {
                    let cols = &cols[off..end];
                    cells.extend(cols.iter().zip(acc).map(|(&j, &v)| (s.row, j, v, through)));
                }
            }
            off = end;
        }
        ProcSnapshot { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use hetmmm_partition::{random_partition, Ratio};
    use hetmmm_shapes::candidates;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The executor's per-cell update before the kernel, kept as the
    /// oracle: one `(i, j)` cell at a time, each checking its own first
    /// step.
    struct PerCell {
        cells: Vec<(u32, u32)>,
        acc: Vec<f64>,
        next: Vec<u32>,
    }

    impl PerCell {
        fn new(part: &Partition, owner: Proc, state: &CellState) -> PerCell {
            let cells: Vec<(u32, u32)> = part
                .cells_of(owner)
                .map(|(i, j)| (i as u32, j as u32))
                .collect();
            let (acc, next) = state.initial_for(&cells);
            PerCell { cells, acc, next }
        }

        fn step(&mut self, k: usize, a_col: &[f64], b_row: &[f64]) -> u64 {
            let mut applied = 0u64;
            for ((cell, accum), &nk) in self.cells.iter().zip(self.acc.iter_mut()).zip(&self.next) {
                if k as u32 >= nk {
                    let (i, j) = (cell.0 as usize, cell.1 as usize);
                    *accum += a_col[i] * b_row[j];
                    applied += 1;
                }
            }
            applied
        }

        /// The executor's bank before the kernel.
        fn snapshot(&self, through: u32) -> Vec<(u32, u32, f64, u32)> {
            self.cells
                .iter()
                .zip(&self.acc)
                .zip(&self.next)
                .map(|((&(i, j), &v), &nk)| (i, j, v, nk.max(through)))
                .collect()
        }
    }

    /// One owner's oracle and its two layouts.
    type Owner = (Proc, PerCell, [(&'static str, Kernel); 2]);

    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
    }

    /// Run every owner's two layouts and its per-cell oracle from `state`'s
    /// resume step to `n`, comparing accumulator bits and update counts
    /// after every step, and the banked cells before the first step and
    /// after the last.
    fn check(part: &Partition, state: &CellState, a: &Matrix, b: &Matrix) {
        let n = part.n();
        let mut owners: Vec<Owner> = Proc::ALL
            .into_iter()
            .map(|owner| {
                let slices = Kernel::runs(part, owner, state);
                let rows = slices.clone().into_rows();
                let oracle = PerCell::new(part, owner, state);
                (owner, oracle, [("slices", slices), ("rows", rows)])
            })
            .collect();
        let banked = |owners: &[Owner], through: u32| {
            for (owner, oracle, kernels) in owners {
                let expect = oracle.snapshot(through);
                for (name, kernel) in kernels {
                    let cells = kernel.snapshot(through).cells;
                    assert_eq!(
                        cells, expect,
                        "N = {n}, {owner}, {name}: banked through {through}"
                    );
                }
            }
        };
        banked(&owners, state.resume_step() as u32);
        for k in state.resume_step()..n {
            let a_col: Vec<f64> = (0..n).map(|i| a.get(i, k)).collect();
            let b_row: Vec<f64> = (0..n).map(|j| b.get(k, j)).collect();
            for (owner, oracle, kernels) in &mut owners {
                let expect = oracle.step(k, &a_col, &b_row);
                for (name, kernel) in kernels {
                    let got = kernel.step(k, &a_col, &b_row);
                    assert_eq!(got, expect, "N = {n}, {owner}, {name}: updates at step {k}");
                    assert!(
                        same_bits(&kernel.acc, &oracle.acc),
                        "N = {n}, {owner}, {name}: accumulators differ after step {k}"
                    );
                }
            }
        }
        banked(&owners, n as u32);
    }

    /// A `CellState` that absorbed a partial snapshot: each cell, drawn per
    /// cell, is checkpointed either through step 1 or through a step in
    /// `1..=n / 2` that changes every five columns, so runs and rows split
    /// mid-row and the attempt resumes at step 1.
    fn partial_state(n: usize, rng: &mut StdRng) -> CellState {
        let mut state = CellState::new(n);
        let mut cells = Vec::new();
        for i in 0..n {
            let mut block = 1u32;
            for j in 0..n {
                if j % 5 == 0 {
                    block = rng.random_range(1..=(n as u32 / 2).max(1));
                }
                let through = if rng.random_range(0..2u32) == 0 {
                    block
                } else {
                    1
                };
                cells.push((i as u32, j as u32, rng.random_range(-1.0..1.0), through));
            }
        }
        state.absorb(&ProcSnapshot { cells });
        state
    }

    fn oracle_inputs(n: usize, rng: &mut StdRng) -> Vec<Partition> {
        let mut parts: Vec<Partition> = candidates::all_feasible(n, Ratio::new(5, 2, 1))
            .into_iter()
            .map(|c| c.partition)
            .collect();
        for (p, r, s) in [(2, 1, 1), (5, 2, 1), (10, 1, 1)] {
            parts.push(random_partition(n, Ratio::new(p, r, s), rng));
        }
        // Strips of rows and of columns; S owns none of the latter.
        parts.push(Partition::from_fn(n, |i, _| Proc::ALL[i * 3 / n]));
        parts.push(Partition::from_fn(n, |_, j| {
            if j < n / 2 {
                Proc::R
            } else {
                Proc::P
            }
        }));
        // A single owner, so the other two own no cells.
        parts.push(Partition::new(n, Proc::P));
        parts
    }

    #[test]
    fn both_layouts_match_the_per_cell_update_at_every_step() {
        let mut rng = StdRng::seed_from_u64(24);
        for n in [1, 63, 64, 65, 130] {
            let a = Matrix::random(n, &mut rng);
            let b = Matrix::random(n, &mut rng);
            let fresh = CellState::new(n);
            let resumed = partial_state(n, &mut rng);
            for part in oracle_inputs(n, &mut rng) {
                check(&part, &fresh, &a, &b);
                check(&part, &resumed, &a, &b);
            }
        }
    }

    #[test]
    fn multiply_clean_partitions_pick_their_layouts() {
        // hetbench's multiply_clean inputs at its default seed (1): the
        // matrices are drawn first, then the random partition.
        let n = 320;
        let ratio = Ratio::new(5, 2, 1);
        let mut rng = StdRng::seed_from_u64(1);
        Matrix::random(n, &mut rng);
        Matrix::random(n, &mut rng);
        let state = CellState::new(n);
        let candidates = candidates::all_feasible(n, ratio);
        assert_eq!(candidates.len(), 6);
        for c in &candidates {
            for owner in Proc::ALL {
                let kernel = Kernel::new(&c.partition, owner, &state);
                assert_eq!(kernel.layout, Layout::Slices, "{:?}, {owner}", c.ty);
            }
        }
        let random = random_partition(n, ratio, &mut rng);
        for owner in Proc::ALL {
            let kernel = Kernel::new(&random, owner, &state);
            assert!(
                matches!(kernel.layout, Layout::Rows(_)),
                "random partition, {owner}"
            );
        }
    }
}
