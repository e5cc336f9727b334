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
//!
//! The layout is fixed for an attempt and shared behind an `Arc`, so a
//! [`Bank`] of the kernel's progress is the accumulators alone, 8 bytes a
//! cell, copied into a buffer that later banks of the attempt reuse; the
//! supervisor reads the cells back through the shared layout.

use crate::supervise::CellState;
use hetmmm_partition::{Partition, Proc};
use std::sync::Arc;

/// Mean row-run length, in cells, from which an owner's update runs over
/// slices instead of the row gather. DESIGN.md §3.6 gives the crossover
/// measurement behind it.
pub(crate) const SLICE_MIN_MEAN_RUN: usize = 8;

/// A stretch of one row's owned cells that all still need the same first
/// pivot step. Its accumulators are the `len` after the previous span's.
#[derive(Clone, Copy, Debug)]
struct Span {
    row: u32,
    /// The first cell's column. Under [`Walk::Slices`] the span covers
    /// columns `col..col + len`.
    col: u32,
    len: u32,
    /// First pivot step the span's cells still need.
    first: u32,
}

/// How a step reaches the B elements of a span's cells.
#[derive(Clone, Debug, PartialEq)]
enum Walk {
    /// Every span is a row run.
    Slices,
    /// Every span is a row's cells up to a change of first step; entry `c`
    /// is accumulator `c`'s column.
    Rows(Vec<u32>),
}

/// Which C cell each accumulator of one owner's kernel holds, and the
/// spans its per-step update walks. Fixed for an attempt.
#[derive(Debug)]
pub(crate) struct Layout {
    spans: Vec<Span>,
    walk: Walk,
}

/// One owner's C accumulators, row-major in [`Partition::cells_of`] order,
/// and the layout its per-step update walks.
#[derive(Debug)]
pub(crate) struct Kernel {
    acc: Vec<f64>,
    layout: Arc<Layout>,
}

/// A worker's banked progress: a copy of its kernel's accumulators and
/// the layout that places them. A span's cells are valid through its own
/// first step or `through`, whichever is further along.
#[derive(Debug)]
pub(crate) struct Bank {
    layout: Arc<Layout>,
    values: Vec<f64>,
    through: u32,
}

impl Kernel {
    /// `owner`'s cells of `part`, starting from the partials and first
    /// steps in `state`, in the layout their mean row run calls for.
    pub(crate) fn new(part: &Partition, owner: Proc, state: &CellState) -> Kernel {
        let (acc, runs) = Kernel::runs(part, owner, state);
        let layout = if acc.len() < SLICE_MIN_MEAN_RUN * runs.len() {
            Layout::rows(runs, acc.len())
        } else {
            Layout {
                spans: runs,
                walk: Walk::Slices,
            }
        };
        Kernel {
            acc,
            layout: Arc::new(layout),
        }
    }

    /// The accumulators and the slice layout's spans: one per row run.
    fn runs(part: &Partition, owner: Proc, state: &CellState) -> (Vec<f64>, Vec<Span>) {
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
        (acc, spans)
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
        let Layout { spans, walk } = &*self.layout;
        match walk {
            Walk::Slices => {
                for s in spans {
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
            Walk::Rows(cols) => {
                for s in spans {
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

    /// Bank the accumulators into `slot`, valid through `through` steps.
    /// A bank of this kernel already in the slot keeps its buffer and
    /// takes a copy of the values; anything else is replaced by a new bank.
    pub(crate) fn bank_into(&self, slot: &mut Option<Bank>, through: u32) {
        match slot {
            Some(bank) if Arc::ptr_eq(&bank.layout, &self.layout) => {
                bank.values.copy_from_slice(&self.acc);
                bank.through = through;
            }
            _ => {
                *slot = Some(Bank {
                    layout: Arc::clone(&self.layout),
                    values: self.acc.clone(),
                    through,
                })
            }
        }
    }

    /// The accumulators as a bank valid through `through` steps, without
    /// copying them.
    pub(crate) fn into_bank(self, through: u32) -> Bank {
        Bank {
            layout: self.layout,
            values: self.acc,
            through,
        }
    }
}

impl Layout {
    /// The row layout of the slice layout's `runs` over `cells` cells: runs
    /// of one row with one first step merge into one span, and every cell
    /// keeps its column.
    fn rows(runs: Vec<Span>, cells: usize) -> Layout {
        let mut cols = Vec::with_capacity(cells);
        let mut spans: Vec<Span> = Vec::new();
        for run in runs {
            cols.extend(run.col..run.col + run.len);
            match spans.last_mut() {
                Some(s) if s.row == run.row && s.first == run.first => s.len += run.len,
                _ => spans.push(run),
            }
        }
        Layout {
            spans,
            walk: Walk::Rows(cols),
        }
    }
}

impl Bank {
    /// Call `f(i, j, value, through)` for every banked cell, in
    /// accumulator order.
    pub(crate) fn for_each_cell(&self, mut f: impl FnMut(u32, u32, f64, u32)) {
        let mut off = 0;
        for s in &self.layout.spans {
            let end = off + s.len as usize;
            let (values, through) = (&self.values[off..end], s.first.max(self.through));
            match &self.layout.walk {
                Walk::Slices => {
                    for (j, &v) in (s.col..).zip(values) {
                        f(s.row, j, v, through);
                    }
                }
                Walk::Rows(cols) => {
                    for (&j, &v) in cols[off..end].iter().zip(values) {
                        f(s.row, j, v, through);
                    }
                }
            }
            off = end;
        }
    }

    /// Every banked cell as `(i, j, value, through)`, in accumulator order.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> Vec<(u32, u32, f64, u32)> {
        let mut cells = Vec::with_capacity(self.values.len());
        self.for_each_cell(|i, j, v, through| cells.push((i, j, v, through)));
        cells
    }

    /// The value buffer's address and capacity.
    #[cfg(test)]
    pub(crate) fn buffer(&self) -> (*const f64, usize) {
        (self.values.as_ptr(), self.values.capacity())
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

    /// One layout of one owner's kernel and the slot it banks into.
    type Banked = (&'static str, Kernel, Option<Bank>);

    /// One owner's oracle and its two layouts.
    type Owner = (Proc, PerCell, [Banked; 2]);

    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
    }

    /// `owner`'s kernel in both layouts, each with an empty bank slot.
    fn both_layouts(part: &Partition, owner: Proc, state: &CellState) -> [Banked; 2] {
        let (acc, runs) = Kernel::runs(part, owner, state);
        let rows = Layout::rows(runs.clone(), acc.len());
        let slices = Layout {
            spans: runs,
            walk: Walk::Slices,
        };
        [("slices", slices), ("rows", rows)].map(|(name, layout)| {
            let layout = Arc::new(layout);
            let kernel = Kernel {
                acc: acc.clone(),
                layout,
            };
            (name, kernel, None)
        })
    }

    /// Run every owner's two layouts and its per-cell oracle from `state`'s
    /// resume step to `n`, comparing accumulator bits and update counts
    /// after every step. Each layout banks into one slot before the first
    /// step, after a middle step and after the last, so the first bank
    /// allocates and the later ones copy; every bank, read back through
    /// the layout, must equal the oracle's cells. So must the completed
    /// kernel's bank.
    fn check(part: &Partition, state: &CellState, a: &Matrix, b: &Matrix) {
        let n = part.n();
        let mut owners: Vec<Owner> = Proc::ALL
            .into_iter()
            .map(|owner| {
                let oracle = PerCell::new(part, owner, state);
                (owner, oracle, both_layouts(part, owner, state))
            })
            .collect();
        let banked = |owners: &mut [Owner], through: u32| {
            for (owner, oracle, kernels) in owners {
                let expect = oracle.snapshot(through);
                for (name, kernel, slot) in kernels {
                    kernel.bank_into(slot, through);
                    let cells = slot.as_ref().map(Bank::cells);
                    assert_eq!(
                        cells.as_ref(),
                        Some(&expect),
                        "N = {n}, {owner}, {name}: banked through {through}"
                    );
                }
            }
        };
        let resume = state.resume_step();
        let middle = (resume + n) / 2;
        banked(&mut owners, resume as u32);
        for k in resume..n {
            let a_col: Vec<f64> = (0..n).map(|i| a.get(i, k)).collect();
            let b_row: Vec<f64> = (0..n).map(|j| b.get(k, j)).collect();
            for (owner, oracle, kernels) in &mut owners {
                let expect = oracle.step(k, &a_col, &b_row);
                for (name, kernel, _) in kernels {
                    let got = kernel.step(k, &a_col, &b_row);
                    assert_eq!(got, expect, "N = {n}, {owner}, {name}: updates at step {k}");
                    assert!(
                        same_bits(&kernel.acc, &oracle.acc),
                        "N = {n}, {owner}, {name}: accumulators differ after step {k}"
                    );
                }
            }
            if k == middle {
                banked(&mut owners, k as u32 + 1);
            }
        }
        banked(&mut owners, n as u32);
        for (owner, oracle, kernels) in owners {
            let expect = oracle.snapshot(n as u32);
            for (name, kernel, _) in kernels {
                assert_eq!(
                    kernel.into_bank(n as u32).cells(),
                    expect,
                    "N = {n}, {owner}, {name}: completed"
                );
            }
        }
    }

    /// A `CellState` as a partial bank leaves it: each cell, drawn per
    /// cell, is checkpointed either through step 1 or through a step in
    /// `1..=n / 2` that changes every five columns, so runs and rows split
    /// mid-row and the attempt resumes at step 1.
    fn partial_state(n: usize, rng: &mut StdRng) -> CellState {
        let mut state = CellState::new(n);
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
                state.c[i * n + j] = rng.random_range(-1.0..1.0);
                state.next_k[i * n + j] = through;
            }
        }
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
                assert_eq!(kernel.layout.walk, Walk::Slices, "{:?}, {owner}", c.ty);
            }
        }
        let random = random_partition(n, ratio, &mut rng);
        for owner in Proc::ALL {
            let kernel = Kernel::new(&random, owner, &state);
            assert!(
                matches!(kernel.layout.walk, Walk::Rows(_)),
                "random partition, {owner}"
            );
        }
    }
}
