//! The executor's per-step C update: one worker's accumulators and the
//! layout its kij step walks them in.
//!
//! At pivot step `k` a worker adds `A[i,k] * B[k,j]` to every C cell
//! `(i, j)` it owns that still needs step `k` (a resumed attempt starts
//! each cell at its checkpointed first step). The owned cells fall into
//! *row runs*: maximal stretches of consecutive owned columns in one row.
//! Every §IX candidate gives each processor one or two rectangles, so its
//! runs are long; a random partition's are one to three cells. A span list
//! walks every accumulator once, in one of two ways picked from the list's
//! mean run length:
//!
//! - **Slices**, when the mean run is at least [`SLICE_MIN_MEAN_RUN`]
//!   cells: one span per run, updated as
//!   `acc[off..off + len] += a_col[i] * b_row[j0..j0 + len]` over two
//!   slices, which the compiler vectorises.
//! - **Rows** otherwise: one span per row (split only where the first step
//!   changes), updated by reading `a_col[i]` once and gathering `b_row`
//!   through the layout's column list into the span's contiguous
//!   accumulators.
//!
//! Each span checks its first step once per step, so a list whose runs
//! split wherever the first step changes serves every step. On a resumed
//! attempt those splits can shatter a worker's rows: re-assigned cells lag
//! the worker's own by a block, and on a random partition they interleave
//! cell by cell. So [`Kernel::new`] gives a kernel whose cells start at
//! more than one first step a second list, its row runs by ownership
//! alone, walked for every step from the *level*, the largest first step
//! among its cells, where every cell needs every step. The first-step list
//! serves the steps below the level and the banks. Both lists walk the
//! same accumulators and share one column list. Either way every cell adds
//! one product per step in ascending `k`, exactly as a per-cell loop does
//! (no fused multiply-add), so C and the update counts are bit-identical
//! whichever list and walk run.
//!
//! The layout is fixed for an attempt and shared behind an `Arc`, so a
//! [`Bank`] of the kernel's progress is the accumulators alone, 8 bytes a
//! cell, copied into a buffer that later banks of the attempt reuse; the
//! supervisor reads the cells back through the first-step list.

use crate::supervise::CellState;
use hetmmm_partition::{Partition, Proc};
use std::sync::Arc;

/// Mean row-run length, in cells, from which a span list runs over slices
/// instead of the row gather. DESIGN.md §3.6 gives the crossover
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

/// How a step reaches the B elements of a span list's cells.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Walk {
    /// Every span is a row run.
    Slices,
    /// Every span is a row's cells up to a change of first step, whose
    /// columns the layout's column list gives.
    Rows,
}

impl Walk {
    /// Slices when `runs` row runs over `cells` cells have a mean of at
    /// least [`SLICE_MIN_MEAN_RUN`], else the row gather.
    fn for_mean_run(cells: usize, runs: usize) -> Walk {
        if cells < SLICE_MIN_MEAN_RUN * runs {
            Walk::Rows
        } else {
            Walk::Slices
        }
    }
}

/// Spans over every accumulator, in accumulator order, and their walk.
#[derive(Debug)]
struct Spans {
    list: Vec<Span>,
    walk: Walk,
}

impl Spans {
    /// `runs` walked as `walk`: as they are for slices; for the row gather,
    /// runs of one row with one first step merge into one span.
    fn new(runs: Vec<Span>, walk: Walk) -> Spans {
        let list = match walk {
            Walk::Slices => runs,
            Walk::Rows => {
                let mut spans: Vec<Span> = Vec::new();
                for run in runs {
                    match spans.last_mut() {
                        Some(s) if s.row == run.row && s.first == run.first => s.len += run.len,
                        _ => spans.push(run),
                    }
                }
                spans
            }
        };
        Spans { list, walk }
    }
}

/// The ownership spans and the step they start at.
#[derive(Debug)]
struct Level {
    /// The largest first step among the cells.
    step: u32,
    spans: Spans,
}

/// Which C cell each accumulator of one owner's kernel holds, and the
/// span lists its per-step update walks. Fixed for an attempt.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Spans split wherever the first step changes: walked for the steps
    /// below the level (all of them when `owned` is `None`), and read by
    /// banks.
    stepped: Spans,
    /// The row runs by ownership alone, walked from the level on. Present
    /// only when the cells start at more than one first step and the level
    /// is a step of the multiply. Boxed, like `cols`, so the layout stays
    /// 56 bytes, in the allocation size class of the single-list layout:
    /// at 96 bytes hetbench multiply_clean's peak RSS rose by about 1 MB
    /// through glibc's heap placement, although no buffer grew.
    owned: Option<Box<Level>>,
    /// Accumulator `c`'s column when either list gathers, else empty.
    cols: Box<[u32]>,
}

// The size `owned` is boxed for.
const _: () = assert!(std::mem::size_of::<Layout>() <= 56);

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
    /// steps in `state`, each span list walked as its mean row run calls
    /// for.
    pub(crate) fn new(part: &Partition, owner: Proc, state: &CellState) -> Kernel {
        Kernel::build(part, owner, state, Walk::for_mean_run)
    }

    /// [`Kernel::new`] with each list's walk taken from `walk(cells, runs)`.
    /// One pass over the cells gives the accumulators, the first-step runs
    /// and their lowest and highest first step; the runs by ownership join
    /// the first-step runs that abut.
    fn build(
        part: &Partition,
        owner: Proc,
        state: &CellState,
        walk: impl Fn(usize, usize) -> Walk,
    ) -> Kernel {
        let n = part.n();
        let mut acc = Vec::with_capacity(part.elems(owner));
        let mut runs: Vec<Span> = Vec::new();
        let (mut low, mut level) = (u32::MAX, 0);
        for (i, j) in part.cells_of(owner) {
            let idx = i * n + j;
            let (row, col, first) = (i as u32, j as u32, state.next_k[idx]);
            acc.push(state.c[idx]);
            match runs.last_mut() {
                Some(s) if s.row == row && s.col + s.len == col && s.first == first => s.len += 1,
                _ => {
                    (low, level) = (low.min(first), level.max(first));
                    runs.push(Span {
                        row,
                        col,
                        len: 1,
                        first,
                    })
                }
            }
        }
        let lagging = low < level && (level as usize) < n;
        let owned = lagging.then(|| {
            let mut owned: Vec<Span> = Vec::new();
            for &run in &runs {
                match owned.last_mut() {
                    Some(s) if s.row == run.row && s.col + s.len == run.col => s.len += run.len,
                    _ => owned.push(Span {
                        first: level,
                        ..run
                    }),
                }
            }
            let walk = walk(acc.len(), owned.len());
            Box::new(Level {
                step: level,
                spans: Spans::new(owned, walk),
            })
        });
        let stepped_walk = walk(acc.len(), runs.len());
        let mut cols = Vec::new();
        if stepped_walk == Walk::Rows || owned.as_ref().is_some_and(|o| o.spans.walk == Walk::Rows)
        {
            cols.reserve_exact(acc.len());
            for s in &runs {
                cols.extend(s.col..s.col + s.len);
            }
        }
        let layout = Layout {
            stepped: Spans::new(runs, stepped_walk),
            owned,
            cols: cols.into_boxed_slice(),
        };
        Kernel {
            acc,
            layout: Arc::new(layout),
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
        let spans = self.layout.spans_at(k);
        match spans.walk {
            Walk::Slices => {
                for s in &spans.list {
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
            Walk::Rows => {
                let cols = &self.layout.cols;
                for s in &spans.list {
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
    /// The span list step `k` walks: the ownership runs from the level on,
    /// the first-step spans before it.
    fn spans_at(&self, k: u32) -> &Spans {
        match &self.owned {
            Some(level) if k >= level.step => &level.spans,
            _ => &self.stepped,
        }
    }
}

impl Bank {
    /// Call `f(i, j, value, through)` for every banked cell, in
    /// accumulator order.
    pub(crate) fn for_each_cell(&self, mut f: impl FnMut(u32, u32, f64, u32)) {
        let Layout { stepped, cols, .. } = &*self.layout;
        let mut off = 0;
        for s in &stepped.list {
            let end = off + s.len as usize;
            let (values, through) = (&self.values[off..end], s.first.max(self.through));
            match stepped.walk {
                Walk::Slices => {
                    for (j, &v) in (s.col..).zip(values) {
                        f(s.row, j, v, through);
                    }
                }
                Walk::Rows => {
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
    use hetmmm_twoproc::degrade_partition;
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

    /// One of an owner's kernels, named, and the slot it banks into.
    type Banked = (&'static str, Kernel, Option<Bank>);

    /// One owner's oracle and its kernels.
    type Owner = (Proc, PerCell, [Banked; 3]);

    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
    }

    /// `owner`'s kernel as [`Kernel::new`] builds it, and built with every
    /// span list walked as slices and as rows, each with an empty bank
    /// slot.
    fn kernels(part: &Partition, owner: Proc, state: &CellState) -> [Banked; 3] {
        [
            ("new", Kernel::new(part, owner, state)),
            (
                "slices",
                Kernel::build(part, owner, state, |_, _| Walk::Slices),
            ),
            ("rows", Kernel::build(part, owner, state, |_, _| Walk::Rows)),
        ]
        .map(|(name, kernel)| (name, kernel, None))
    }

    /// Run every owner's kernels and its per-cell oracle from `state`'s
    /// resume step to `n`, comparing accumulator bits and update counts
    /// after every step. Each kernel banks into one slot before the first
    /// step; after a middle step; through the step before, at and after
    /// `state`'s highest first step below `n`, the level of any owner
    /// whose cells lag; and after the last step. So the first bank
    /// allocates and the later ones copy; every bank, read back through
    /// the layout, must equal the oracle's cells. So must the completed
    /// kernel's bank.
    fn check(part: &Partition, state: &CellState, a: &Matrix, b: &Matrix) {
        let n = part.n();
        let mut owners: Vec<Owner> = Proc::ALL
            .into_iter()
            .map(|owner| {
                let oracle = PerCell::new(part, owner, state);
                (owner, oracle, kernels(part, owner, state))
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
        let level = state.next_k.iter().filter(|&&f| (f as usize) < n).max();
        let level = level.map_or(0, |&f| f as usize);
        let banks = [
            (resume + n) / 2 + 1,
            level.saturating_sub(1),
            level,
            level + 1,
        ];
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
            if banks.contains(&(k + 1)) {
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
                assert_eq!(
                    kernel.layout.stepped.walk,
                    Walk::Slices,
                    "{:?}, {owner}",
                    c.ty
                );
                assert!(kernel.layout.owned.is_none(), "{:?}, {owner}", c.ty);
            }
        }
        let random = random_partition(n, ratio, &mut rng);
        for owner in Proc::ALL {
            let kernel = Kernel::new(&random, owner, &state);
            assert_eq!(
                kernel.layout.stepped.walk,
                Walk::Rows,
                "random partition, {owner}"
            );
            assert!(kernel.layout.owned.is_none(), "random partition, {owner}");
        }
    }

    /// A `CellState` as one crash leaves it: the cells `dead` owns in
    /// `part` checkpointed through `level - lag`, one block behind the
    /// rest, which are checkpointed through `level`; every partial random.
    fn two_level_state(
        part: &Partition,
        dead: Proc,
        level: u32,
        lag: u32,
        rng: &mut StdRng,
    ) -> CellState {
        let n = part.n();
        let mut state = CellState::new(n);
        for i in 0..n {
            for j in 0..n {
                state.c[i * n + j] = rng.random_range(-1.0..1.0);
                state.next_k[i * n + j] = if part.get(i, j) == dead {
                    level - lag
                } else {
                    level
                };
            }
        }
        state
    }

    #[test]
    fn kernels_match_the_per_cell_update_over_two_levels() {
        // Each victim's cells re-assigned by `degrade_partition` and one
        // block of 4 steps behind the survivors' own, so both survivors'
        // kernels hold two levels and walk their ownership runs from the
        // higher one.
        let mut rng = StdRng::seed_from_u64(27);
        for n in [1, 63, 64, 65, 130] {
            let a = Matrix::random(n, &mut rng);
            let b = Matrix::random(n, &mut rng);
            let level = (n as u32 / 2).max(4).min(n as u32);
            let lag = 4.min(level);
            for part in oracle_inputs(n, &mut rng) {
                for dead in Proc::ALL {
                    let state = two_level_state(&part, dead, level, lag, &mut rng);
                    check(&degrade_partition(&part, dead).partition, &state, &a, &b);
                }
            }
        }
    }

    #[test]
    fn a_resumed_kernel_walks_as_many_spans_from_its_level_as_a_fresh_one() {
        // multiply_crash's random partition at seed 1 (drawn after A and
        // B), degraded for R, with R's former cells checkpointed through
        // step 32 and the rest through 48, as a crash of R in the block
        // from 32 leaves them at the default block of 16.
        let n = 320;
        let mut rng = StdRng::seed_from_u64(1);
        Matrix::random(n, &mut rng);
        Matrix::random(n, &mut rng);
        let random = random_partition(n, Ratio::new(5, 2, 1), &mut rng);
        let degraded = degrade_partition(&random, Proc::R).partition;
        let mut state = CellState::new(n);
        for i in 0..n {
            for j in 0..n {
                state.next_k[i * n + j] = if random.get(i, j) == Proc::R { 32 } else { 48 };
            }
        }
        let fresh = CellState::new(n);
        let walked = |kernel: &Kernel, k: u32| kernel.layout.spans_at(k).list.len();
        for owner in [Proc::P, Proc::S] {
            let resumed = Kernel::new(&degraded, owner, &state);
            let clean = Kernel::new(&degraded, owner, &fresh);
            let level = resumed.layout.owned.as_ref().map(|o| o.step);
            assert_eq!(level, Some(48), "{owner}");
            for k in [48, 100, n as u32 - 1] {
                assert_eq!(
                    walked(&resumed, k),
                    walked(&clean, k),
                    "{owner} at step {k}"
                );
            }
            assert_eq!(
                resumed.layout.owned.as_ref().map(|o| o.spans.walk),
                Some(clean.layout.stepped.walk)
            );
            assert!(walked(&resumed, 47) > walked(&clean, 47), "{owner}");
        }
        let p = Kernel::new(&degraded, Proc::P, &state);
        assert_eq!(
            (p.len(), walked(&p, 47), walked(&p, 48)),
            (85_334, 30_856, 320)
        );
    }
}
