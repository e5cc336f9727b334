//! The generalized Push for `k` processors.
//!
//! The three-processor select-and-match operation carries over with one
//! structural change: there are `k − 1` possible displaced owners instead
//! of two, so the per-owner target buckets and the position-to-owner
//! assignment become vectors. The strictness ladder collapses the paper's
//! six types into three [`PushMode`]s (the displaced-side and active-side
//! knobs the types combine), each still governed by the exact ΔVoC
//! contract: `Strict` and `Budgeted` commit only on strict decrease,
//! `Relaxed` on non-increase.
//!
//! Mirroring the three-processor engine, the operation is split into a
//! mode-independent [`n_prepare`] (enclosing rectangle, cleaned line,
//! per-owner target buckets) and a per-mode [`n_attempt`], both generic
//! over the [`NPushGrid`] accessor trait. Two grids implement it: the
//! mutable [`NView`] that applies real pushes, and the read-only overlay
//! behind [`push_feasible_n`] that answers feasibility without cloning.

use crate::grid::NPartition;
use hetmmm_push::geom::Axis;
use hetmmm_push::targets::{self, Candidates, LineGrid};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Push direction (same semantics as the three-processor engine: Down
/// cleans the top edge of the active processor's enclosing rectangle).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum NDirection {
    /// Clean the top row, move down.
    Down,
    /// Clean the bottom row, move up.
    Up,
    /// Clean the rightmost column, move left.
    Left,
    /// Clean the leftmost column, move right.
    Right,
}

impl NDirection {
    /// All four directions.
    pub const ALL: [NDirection; 4] = [
        NDirection::Down,
        NDirection::Up,
        NDirection::Left,
        NDirection::Right,
    ];

    /// Position in [`NDirection::ALL`]; used for dense per-(proc, dir)
    /// tables such as the probe cache.
    pub(crate) fn index(self) -> usize {
        match self {
            NDirection::Down => 0,
            NDirection::Up => 1,
            NDirection::Left => 2,
            NDirection::Right => 3,
        }
    }
}

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

/// Canonical-coordinate grid accessors the generalized push kernel needs,
/// on top of the line queries phase 1 shares with the three-processor
/// engine ([`LineGrid`]). Implemented by the mutable [`NView`] and by the
/// probe's read-only overlay, so applying and probing share one legality
/// implementation. Method names mirror the three-processor `PushGrid`
/// trait.
trait NPushGrid: LineGrid<Proc = u8> {
    /// Owner of canonical cell `(u, v)`.
    fn get(&self, u: usize, v: usize) -> u8;
    /// Swap two canonical cells.
    fn swap(&mut self, a: (usize, usize), b: (usize, usize));
    /// Does canonical column `v` contain elements of `proc`?
    fn col_has(&self, proc: u8, v: usize) -> bool;
    /// VoC line units of the underlying grid.
    fn voc_units(&self) -> u64;
}

/// Canonical-coordinate accessors for a direction.
struct NView<'a> {
    part: &'a mut NPartition,
    dir: NDirection,
    n: usize,
}

impl<'a> NView<'a> {
    hetmmm_push::canonical_geometry!(dir: crate::push::NDirection, proc: u8, base: part);

    fn new(part: &'a mut NPartition, dir: NDirection) -> NView<'a> {
        let n = part.n();
        NView { part, dir, n }
    }
}

impl LineGrid for NView<'_> {
    type Proc = u8;

    #[inline]
    fn row_has(&self, proc: u8, u: usize) -> bool {
        match self.canon_row_line(u) {
            (i, Axis::Row) => self.part.row_has(proc, i),
            (j, Axis::Col) => self.part.col_has(proc, j),
        }
    }

    #[inline]
    fn row_count(&self, proc: u8, u: usize) -> u32 {
        match self.canon_row_line(u) {
            (i, Axis::Row) => self.part.row_count(proc, i),
            (j, Axis::Col) => self.part.col_count(proc, j),
        }
    }

    #[inline]
    fn col_count(&self, proc: u8, v: usize) -> u32 {
        match self.canon_col_line(v) {
            (j, Axis::Col) => self.part.col_count(proc, j),
            (i, Axis::Row) => self.part.row_count(proc, i),
        }
    }

    fn enclosing_rect(&self, proc: u8) -> Option<(usize, usize, usize, usize)> {
        let r = self.part.enclosing_rect(proc)?;
        Some(self.canon_rect(r.top, r.bottom, r.left, r.right))
    }

    #[inline]
    fn line_word(&self, proc: u8, u: usize, w: usize) -> u64 {
        self.plane_line_word(proc, u, w)
    }
}

impl NPushGrid for NView<'_> {
    #[inline]
    fn get(&self, u: usize, v: usize) -> u8 {
        let (i, j) = self.map(u, v);
        self.part.get(i, j)
    }

    #[inline]
    fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        let ra = self.map(a.0, a.1);
        let rb = self.map(b.0, b.1);
        self.part.swap(ra, rb);
    }

    #[inline]
    fn col_has(&self, proc: u8, v: usize) -> bool {
        match self.canon_col_line(v) {
            (j, Axis::Col) => self.part.col_has(proc, j),
            (i, Axis::Row) => self.part.row_has(proc, i),
        }
    }

    #[inline]
    fn voc_units(&self) -> u64 {
        self.part.voc_units()
    }
}

/// Result of an applied generalized push.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NAppliedPush {
    /// The active processor.
    pub proc: u8,
    /// Direction.
    pub dir: NDirection,
    /// Mode under which it was legal.
    pub mode: PushMode,
    /// Exact ΔVoC in line units.
    pub delta_voc_units: i64,
    /// Swaps performed.
    pub swaps: usize,
    /// Bitmask (bit = processor id, `k ≤ 64` by construction) of every
    /// processor whose elements the push moved: the active processor plus
    /// each displaced receiver. The search uses it to evict probe-cache
    /// slots for exactly the processors whose occupancy changed.
    pub touched_mask: u64,
}

/// Mode-independent preparation of a push attempt: the displaced owners
/// and phase 1 over them. Computed once and reused across the mode ladder
/// by [`try_push_n`] and the probe.
struct NPrepared {
    /// Owner slot order: every processor except the active one.
    owners: Vec<u8>,
    /// The cleaned line and the candidate targets per owner slot.
    lines: Candidates,
}

/// Phase 1 — locate the cleaned line and bucket interior targets for the
/// `k − 1` displaced owners ([`hetmmm_push::targets::collect`]).
fn n_prepare<G: NPushGrid>(view: &G, proc: u8, k: usize) -> Option<NPrepared> {
    let owners: Vec<u8> = (0..k as u8).filter(|&p| p != proc).collect();
    let lines = targets::collect(view, proc, &owners)?;
    Some(NPrepared { owners, lines })
}

/// Outcome of a successful [`n_attempt`].
struct NAttemptOutcome {
    delta: i64,
    swaps: usize,
    touched_mask: u64,
}

/// Phases 2 and 3 under one mode — owner assignment, greedy pairing,
/// swaps, and the ΔVoC contract. Rolls back completely on failure.
fn n_attempt<G: NPushGrid>(
    view: &mut G,
    proc: u8,
    mode: PushMode,
    prep: &NPrepared,
    voc_before: i64,
) -> Option<NAttemptOutcome> {
    let kline = prep.lines.line;
    let cleaned = &prep.lines.cleaned;
    let owners = &prep.owners;
    let owner_targets = &prep.lines.owner_targets;
    let m = cleaned.len();

    // Phase 2: assign an owner to each vacated position. A position is
    // free for an owner when that owner already occupies both the cleaned
    // line and the position's cross line.
    let row_k_has: Vec<bool> = owners.iter().map(|&o| view.row_has(o, kline)).collect();
    let displaced_strict = !matches!(mode, PushMode::Relaxed);
    let mut demand = vec![0usize; owners.len()];
    let avail: Vec<usize> = owner_targets.iter().map(Vec::len).collect();
    let mut assignment: Vec<usize> = Vec::with_capacity(m);
    let mut flexible: Vec<usize> = Vec::new();
    for (idx, &v) in cleaned.iter().enumerate() {
        let free: Vec<usize> = (0..owners.len())
            .filter(|&s| row_k_has[s] && view.col_has(owners[s], v))
            .collect();
        match free.len() {
            0 if displaced_strict => return None,
            1 if demand[free[0]] < avail[free[0]] => {
                assignment.push(free[0]);
                demand[free[0]] += 1;
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
        // Free owners first, then anyone with spare targets.
        let mut order: Vec<usize> = (0..owners.len()).collect();
        order.sort_by_key(|&s| !(row_k_has[s] && view.col_has(owners[s], v)));
        let mut placed = false;
        for s in order {
            if demand[s] < avail[s] {
                if displaced_strict && !(row_k_has[s] && view.col_has(owners[s], v)) {
                    continue;
                }
                assignment[idx] = s;
                demand[s] += 1;
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }

    // Phase 3: pair and swap under the active-side rules.
    let mut journal: Vec<((usize, usize), (usize, usize))> = Vec::with_capacity(m);
    let mut dirty_used = 0usize;
    let mut next = vec![0usize; owners.len()];
    let mut touched_mask = 0u64;
    let mut ok = true;
    'elems: for (idx, &v) in cleaned.iter().enumerate() {
        let slot = assignment[idx];
        loop {
            let Some(&(g, h)) = owner_targets[slot].get(next[slot]) else {
                ok = false;
                break 'elems;
            };
            next[slot] += 1;
            if view.get(g, h) == proc {
                continue;
            }
            let col_has_excl_k = {
                let mut cnt = view.col_count(proc, h);
                if view.get(kline, h) == proc {
                    cnt -= 1;
                }
                cnt > 0
            };
            let cost = usize::from(!view.row_has(proc, g)) + usize::from(!col_has_excl_k);
            let admissible = match mode {
                PushMode::Strict => cost == 0 || dirty_used + cost <= 1,
                PushMode::Budgeted | PushMode::Relaxed => true,
            };
            if !admissible {
                continue;
            }
            view.swap((kline, v), (g, h));
            journal.push(((kline, v), (g, h)));
            touched_mask |= 1u64 << owners[slot];
            dirty_used += cost;
            break;
        }
    }

    let delta = view.voc_units() as i64 - voc_before;
    let contract_ok = match mode {
        PushMode::Strict | PushMode::Budgeted => delta < 0,
        PushMode::Relaxed => delta <= 0,
    };
    if !ok || !contract_ok {
        for &(a, b) in journal.iter().rev() {
            view.swap(a, b);
        }
        debug_assert_eq!(view.voc_units() as i64, voc_before);
        return None;
    }
    touched_mask |= 1u64 << proc;
    Some(NAttemptOutcome {
        delta,
        swaps: journal.len(),
        touched_mask,
    })
}

/// Attempt a push of `proc` in `dir`, trying modes strictest-first.
/// Commits the first legal one; otherwise leaves the partition untouched.
/// Phase 1 is mode-independent (and failed attempts roll back exactly),
/// so it is computed once and shared across the ladder.
pub fn try_push_n(part: &mut NPartition, proc: u8, dir: NDirection) -> Option<NAppliedPush> {
    let k = part.k();
    let voc_before = part.voc_units() as i64;
    let mut view = NView::new(part, dir);
    let prep = n_prepare(&view, proc, k)?;
    PushMode::ALL.iter().find_map(|&mode| {
        n_attempt(&mut view, proc, mode, &prep, voc_before).map(|out| NAppliedPush {
            proc,
            dir,
            mode,
            delta_voc_units: out.delta,
            swaps: out.swaps,
            touched_mask: out.touched_mask,
        })
    })
}

/// Attempt a push under one specific mode.
pub fn try_push_mode(
    part: &mut NPartition,
    proc: u8,
    dir: NDirection,
    mode: PushMode,
) -> Option<NAppliedPush> {
    let k = part.k();
    let voc_before = part.voc_units() as i64;
    let mut view = NView::new(part, dir);
    let prep = n_prepare(&view, proc, k)?;
    n_attempt(&mut view, proc, mode, &prep, voc_before).map(|out| NAppliedPush {
        proc,
        dir,
        mode,
        delta_voc_units: out.delta,
        swaps: out.swaps,
        touched_mask: out.touched_mask,
    })
}

/// Reusable overlay storage for the clone-free feasibility probe; the
/// k-processor analogue of the three-processor `ProbeScratch`. All maps
/// are sparse — O(cleaned-line) entries keyed by the lines a probe
/// actually touches — so the scratch is independent of `(n, k)` and needs
/// no sizing step.
#[derive(Debug, Default)]
struct NProbeScratch {
    /// Overlay cell assignments as `(flat index, owner)`.
    cells: Vec<(u32, u8)>,
    /// Per-(proc, row) count deltas, keyed by the flat `proc * n + row`
    /// index. Linear-scanned like `cells`.
    row_delta: Vec<(u32, i32)>,
    /// Per-(proc, col) count deltas, keyed by `proc * n + col`.
    col_delta: Vec<(u32, i32)>,
    /// Overlay ΔVoC in line units relative to the base.
    voc_delta: i64,
}

impl NProbeScratch {
    /// Empty the overlay without freeing its storage.
    fn reset(&mut self) {
        self.cells.clear();
        self.row_delta.clear();
        self.col_delta.clear();
        self.voc_delta = 0;
    }
}

/// Read-only overlay view for probing: base partition plus scratch deltas,
/// with the same canonical mapping as [`NView`].
struct NProbeView<'a> {
    base: &'a NPartition,
    scratch: &'a mut NProbeScratch,
    dir: NDirection,
    n: usize,
}

impl NProbeView<'_> {
    hetmmm_push::canonical_geometry!(dir: crate::push::NDirection, proc: u8, base: base);

    #[inline]
    fn get_real(&self, i: usize, j: usize) -> u8 {
        let idx = (i * self.n + j) as u32;
        for &(c, p) in &self.scratch.cells {
            if c == idx {
                return p;
            }
        }
        self.base.get(i, j)
    }

    #[inline]
    fn row_count_real(&self, proc: u8, i: usize) -> i64 {
        let idx = (proc as usize * self.n + i) as u32;
        let delta = self
            .scratch
            .row_delta
            .iter()
            .find(|(r, _)| *r == idx)
            .map_or(0, |&(_, d)| d);
        i64::from(self.base.row_count(proc, i)) + i64::from(delta)
    }

    #[inline]
    fn col_count_real(&self, proc: u8, j: usize) -> i64 {
        let idx = (proc as usize * self.n + j) as u32;
        let delta = self
            .scratch
            .col_delta
            .iter()
            .find(|(c, _)| *c == idx)
            .map_or(0, |&(_, d)| d);
        i64::from(self.base.col_count(proc, j)) + i64::from(delta)
    }

    fn bump_row(&mut self, proc: u8, i: usize, by: i32) {
        let idx = (proc as usize * self.n + i) as u32;
        match self.scratch.row_delta.iter_mut().find(|(r, _)| *r == idx) {
            Some((_, d)) => *d += by,
            None => self.scratch.row_delta.push((idx, by)),
        }
    }

    fn bump_col(&mut self, proc: u8, j: usize, by: i32) {
        let idx = (proc as usize * self.n + j) as u32;
        match self.scratch.col_delta.iter_mut().find(|(c, _)| *c == idx) {
            Some((_, d)) => *d += by,
            None => self.scratch.col_delta.push((idx, by)),
        }
    }

    /// Overlay mirror of `NPartition::set`: same count-before-transition
    /// ΔVoC rules, applied to the scratch deltas.
    fn set_real(&mut self, i: usize, j: usize, proc: u8) {
        let old = self.get_real(i, j);
        if old == proc {
            return;
        }
        let idx = (i * self.n + j) as u32;
        match self.scratch.cells.iter_mut().find(|(c, _)| *c == idx) {
            Some(entry) => entry.1 = proc,
            None => self.scratch.cells.push((idx, proc)),
        }
        if self.row_count_real(old, i) == 1 {
            self.scratch.voc_delta -= 1;
        }
        self.bump_row(old, i, -1);
        if self.row_count_real(proc, i) == 0 {
            self.scratch.voc_delta += 1;
        }
        self.bump_row(proc, i, 1);
        if self.col_count_real(old, j) == 1 {
            self.scratch.voc_delta -= 1;
        }
        self.bump_col(old, j, -1);
        if self.col_count_real(proc, j) == 0 {
            self.scratch.voc_delta += 1;
        }
        self.bump_col(proc, j, 1);
    }
}

impl LineGrid for NProbeView<'_> {
    type Proc = u8;

    #[inline]
    fn row_has(&self, proc: u8, u: usize) -> bool {
        self.row_count(proc, u) > 0
    }

    #[inline]
    fn row_count(&self, proc: u8, u: usize) -> u32 {
        let count = match self.canon_row_line(u) {
            (i, Axis::Row) => self.row_count_real(proc, i),
            (j, Axis::Col) => self.col_count_real(proc, j),
        };
        debug_assert!(count >= 0, "overlay drove a line count negative");
        count as u32
    }

    #[inline]
    fn col_count(&self, proc: u8, v: usize) -> u32 {
        let count = match self.canon_col_line(v) {
            (j, Axis::Col) => self.col_count_real(proc, j),
            (i, Axis::Row) => self.row_count_real(proc, i),
        };
        debug_assert!(count >= 0, "overlay drove a line count negative");
        count as u32
    }

    /// Answered from the base grid: the kernel only consults the rectangle
    /// in [`n_prepare`], before any overlay swap (rolled-back attempts
    /// leave only zero-net-effect identity entries).
    fn enclosing_rect(&self, proc: u8) -> Option<(usize, usize, usize, usize)> {
        let r = self.base.enclosing_rect(proc)?;
        Some(self.canon_rect(r.top, r.bottom, r.left, r.right))
    }

    /// Bit-plane line words from the *base* grid — valid under the same
    /// pre-swap contract as [`LineGrid::enclosing_rect`].
    #[inline]
    fn line_word(&self, proc: u8, u: usize, w: usize) -> u64 {
        self.plane_line_word(proc, u, w)
    }
}

impl NPushGrid for NProbeView<'_> {
    #[inline]
    fn get(&self, u: usize, v: usize) -> u8 {
        let (i, j) = self.map(u, v);
        self.get_real(i, j)
    }

    fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        let ra = self.map(a.0, a.1);
        let rb = self.map(b.0, b.1);
        let pa = self.get_real(ra.0, ra.1);
        let pb = self.get_real(rb.0, rb.1);
        if pa == pb {
            return;
        }
        self.set_real(ra.0, ra.1, pb);
        self.set_real(rb.0, rb.1, pa);
    }

    #[inline]
    fn col_has(&self, proc: u8, v: usize) -> bool {
        self.col_count(proc, v) > 0
    }

    #[inline]
    fn voc_units(&self) -> u64 {
        let units = self.base.voc_units() as i64 + self.scratch.voc_delta;
        debug_assert!(units >= 0, "overlay drove voc_units negative");
        units as u64
    }
}

fn push_feasible_n_with(
    scratch: &mut NProbeScratch,
    part: &NPartition,
    proc: u8,
    dir: NDirection,
) -> bool {
    let k = part.k();
    scratch.reset();
    let voc_before = part.voc_units() as i64;
    let mut view = NProbeView {
        base: part,
        scratch,
        dir,
        n: part.n(),
    };
    let Some(prep) = n_prepare(&view, proc, k) else {
        return false;
    };
    PushMode::ALL
        .iter()
        .any(|&mode| n_attempt(&mut view, proc, mode, &prep, voc_before).is_some())
}

thread_local! {
    static N_SCRATCH: RefCell<NProbeScratch> = RefCell::new(NProbeScratch::default());
}

/// Non-mutating query: would a push of `proc` in `dir` be legal under any
/// [`PushMode`]? Decided by the same kernel as [`try_push_n`] against a
/// reusable overlay — no clone of the `O(N²)` grid, safe on a shared
/// reference.
pub fn push_feasible_n(part: &NPartition, proc: u8, dir: NDirection) -> bool {
    N_SCRATCH.with(|scratch| push_feasible_n_with(&mut scratch.borrow_mut(), part, proc, dir))
}

/// Hash-verified probe-verdict cache for one k-processor search run: one
/// slot per `(pushable proc, direction)`. As in the three-processor
/// engine, a lookup hits only on an exact `state_hash` match (a push by
/// one processor can flip another's verdict, so touched-based invalidation
/// alone would be unsound); [`NProbeCache::evict_touched`] is hygiene.
#[derive(Debug)]
pub(crate) struct NProbeCache {
    /// `(state hash, verdict)` per slot; slot = `(proc - 1) * 4 + dir`.
    /// Processor 0 (the fastest) is never pushed and has no slots.
    slots: Vec<Option<(u64, bool)>>,
}

impl NProbeCache {
    /// A cache for a `k`-processor search.
    pub(crate) fn new(k: usize) -> NProbeCache {
        NProbeCache {
            slots: vec![None; k.saturating_sub(1) * 4],
        }
    }

    fn slot(proc: u8, dir: NDirection) -> usize {
        debug_assert!(proc >= 1, "processor 0 is never pushed");
        (proc as usize - 1) * 4 + dir.index()
    }

    /// Cached verdict for `(proc, dir)` at exactly `hash`, if any.
    pub(crate) fn lookup(&self, hash: u64, proc: u8, dir: NDirection) -> Option<bool> {
        let (h, verdict) = self.slots[Self::slot(proc, dir)]?;
        (h == hash).then_some(verdict)
    }

    /// Record a verdict computed at `hash`.
    pub(crate) fn record(&mut self, hash: u64, proc: u8, dir: NDirection, verdict: bool) {
        self.slots[Self::slot(proc, dir)] = Some((hash, verdict));
    }

    /// Probe through the cache.
    #[cfg(test)]
    pub(crate) fn probe(&mut self, part: &NPartition, proc: u8, dir: NDirection) -> bool {
        let hash = part.state_hash();
        if let Some(verdict) = self.lookup(hash, proc, dir) {
            return verdict;
        }
        let verdict = push_feasible_n(part, proc, dir);
        self.record(hash, proc, dir, verdict);
        verdict
    }

    /// Drop the slots of every processor in `touched_mask` (hygiene — the
    /// hash check alone guarantees correctness).
    pub(crate) fn evict_touched(&mut self, touched_mask: u64) {
        for proc in 1..=(self.slots.len() / 4) as u8 {
            if touched_mask & (1u64 << proc) != 0 {
                for dir in NDirection::ALL {
                    self.slots[Self::slot(proc, dir)] = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn push_never_raises_voc_k4() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut part = NPartition::random(24, &[6, 3, 2, 1], &mut rng);
        let mut voc = part.voc();
        for _ in 0..50 {
            let mut any = false;
            for proc in 1..4u8 {
                for dir in NDirection::ALL {
                    if let Some(ap) = try_push_n(&mut part, proc, dir) {
                        assert!(ap.delta_voc_units <= 0);
                        assert!(part.voc() <= voc);
                        assert!(ap.touched_mask & (1 << proc) != 0);
                        voc = part.voc();
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
        }
        part.assert_invariants();
    }

    #[test]
    fn failed_push_rolls_back_k5() {
        let mut rng = StdRng::seed_from_u64(2);
        let part = NPartition::random(16, &[8, 3, 2, 2, 1], &mut rng);
        for proc in 1..5u8 {
            for dir in NDirection::ALL {
                for mode in PushMode::ALL {
                    let mut scratch = part.clone();
                    if try_push_mode(&mut scratch, proc, dir, mode).is_none() {
                        assert_eq!(scratch, part, "{proc} {dir:?} {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn element_counts_preserved() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut part = NPartition::random(20, &[5, 2, 2, 1], &mut rng);
        let before: Vec<usize> = (0..4).map(|p| part.elems(p as u8)).collect();
        for proc in 1..4u8 {
            for dir in NDirection::ALL {
                let _ = try_push_n(&mut part, proc, dir);
            }
        }
        let after: Vec<usize> = (0..4).map(|p| part.elems(p as u8)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn exact_square_is_fixed_point() {
        // A k=4 partition with three exact corner squares: no pushes.
        let mut part = NPartition::new(12, 4);
        for i in 0..4 {
            for j in 0..4 {
                part.set(i, j, 1);
                part.set(i + 8, j + 8, 2);
                part.set(i, j + 8, 3);
            }
        }
        for proc in 1..4u8 {
            for dir in NDirection::ALL {
                let mut scratch = part.clone();
                assert!(
                    try_push_n(&mut scratch, proc, dir).is_none(),
                    "{proc} {dir:?} should not push"
                );
                // And the probe agrees without needing the clone.
                assert!(!push_feasible_n(&part, proc, dir));
            }
        }
    }

    /// Clone-based oracle for the probe equivalence properties.
    fn would_push_n_reference(part: &NPartition, proc: u8, dir: NDirection) -> bool {
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
                    for dir in NDirection::ALL {
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

    /// Cell-by-cell oracle for [`n_prepare`], written from the bucket
    /// definition: scan the rectangle interior in `(g, h)` order, bucket
    /// each displaced owner's cell by the active side's dirty cost and the
    /// owner's cleaning bonus, and keep each bucket's first `m + 64`.
    fn n_prepare_reference<G: NPushGrid>(view: &G, proc: u8, k: usize) -> Option<Candidates> {
        let (top, bottom, left, right) = view.enclosing_rect(proc)?;
        if top == bottom {
            return None;
        }
        let cleaned: Vec<usize> = (left..=right)
            .filter(|&h| view.get(top, h) == proc)
            .collect();
        let cap = cleaned.len() + 64;
        let owners: Vec<u8> = (0..k as u8).filter(|&p| p != proc).collect();
        let mut buckets = vec![vec![Vec::new(); 6]; owners.len()];
        for g in top + 1..=bottom {
            for h in left..=right {
                let owner = view.get(g, h);
                let Some(slot) = owners.iter().position(|&o| o == owner) else {
                    continue;
                };
                let col_ok = view.col_count(proc, h) > u32::from(view.get(top, h) == proc);
                let cost = usize::from(!view.row_has(proc, g)) + usize::from(!col_ok);
                let cleans = view.row_count(owner, g) == 1 || view.col_count(owner, h) == 1;
                let bucket = &mut buckets[slot][cost * 2 + usize::from(!cleans)];
                if bucket.len() < cap {
                    bucket.push((g, h));
                }
            }
        }
        Some(Candidates {
            line: top,
            cleaned,
            owner_targets: buckets.into_iter().map(|b| b.concat()).collect(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The word-parallel classifier behind `n_prepare` equals the
        /// cell-by-cell oracle for every (pushable proc, direction), over
        /// the mutable view and the probe overlay, for k = 3..=6 at sizes
        /// around the 64-bit word boundaries — on full-grid random starts
        /// and on partitions boxed into a sub-rectangle, whose edges fall
        /// mid-word or inside a single word. At N ≥ 63 the buckets
        /// overflow `cap`, so truncation is exercised too.
        #[test]
        fn n_prepare_matches_cell_oracle(seed in 0u64..1_000_000, k in 3usize..=6, size in 0usize..6) {
            let n = [7, 63, 64, 65, 100, 130][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let weights: Vec<u32> = (0..k).map(|i| 1 + 2 * (k - i) as u32).collect();
            let part = if seed % 2 == 0 {
                NPartition::random(n, &weights, &mut rng)
            } else {
                let top = rng.random_range(0..n);
                let bottom = rng.random_range(top..n);
                let left = rng.random_range(0..n);
                let right = rng.random_range(left..n.min(left / 64 * 64 + 64 + 64 * (seed % 3) as usize));
                let mut part = NPartition::new(n, k);
                for i in top..=bottom {
                    for j in left..=right {
                        part.set(i, j, rng.random_range(0..k as u64) as u8);
                    }
                }
                part
            };
            for proc in 1..k as u8 {
                for dir in NDirection::ALL {
                    let mut real = part.clone();
                    let view = NView::new(&mut real, dir);
                    let got = n_prepare(&view, proc, k).map(|p| p.lines);
                    prop_assert_eq!(got, n_prepare_reference(&view, proc, k), "view: seed {} k {} n {} proc {} {:?}", seed, k, n, proc, dir);

                    let mut scratch = NProbeScratch::default();
                    let probe = NProbeView { base: &part, scratch: &mut scratch, dir, n };
                    let got = n_prepare(&probe, proc, k).map(|p| p.lines);
                    prop_assert_eq!(got, n_prepare_reference(&probe, proc, k), "probe: seed {} k {} n {} proc {} {:?}", seed, k, n, proc, dir);
                }
            }
        }
    }

    #[test]
    fn probe_cache_hits_on_exact_hash_and_evicts_touched() {
        let mut rng = StdRng::seed_from_u64(9);
        let part = NPartition::random(14, &[5, 3, 2, 1], &mut rng);
        let mut cache = NProbeCache::new(4);
        let verdict = cache.probe(&part, 1, NDirection::Down);
        assert_eq!(
            cache.lookup(part.state_hash(), 1, NDirection::Down),
            Some(verdict)
        );
        assert_eq!(
            cache.lookup(part.state_hash() ^ 1, 1, NDirection::Down),
            None
        );
        cache.probe(&part, 2, NDirection::Up);
        cache.evict_touched(1 << 1); // proc 1 moved, proc 2 did not
        assert_eq!(cache.lookup(part.state_hash(), 1, NDirection::Down), None);
        assert!(cache.lookup(part.state_hash(), 2, NDirection::Up).is_some());
    }
}
