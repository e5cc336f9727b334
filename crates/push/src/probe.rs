//! Clone-free push-feasibility probes.
//!
//! [`push_feasible`] answers "would *any* type of push of `proc` in `dir`
//! be legal?" — the question the DFA's end condition and `beautify`'s
//! progress check ask twelve times per fixed-point test — without cloning
//! the partition or mutating it.
//!
//! ## How it stays exact
//!
//! The probe runs the *same* push kernel ([`crate::op::prepare`] +
//! [`crate::op::attempt`]) that applies real pushes, through the
//! [`crate::op::PushGrid`] trait. Where a real push swaps cells of a
//! [`Partition`], the probe's [`ProbeView`] records the swaps in a small
//! overlay ([`ProbeScratch`]) layered over the immutable base grid:
//! per-cell reassignments, per-line occupancy deltas, and the running ΔVoC,
//! mirroring the incremental bookkeeping of `Partition::set` exactly. The
//! base partition is never written, so a probe is safe on a shared
//! reference, and because the kernel is shared there is no second legality
//! implementation that could drift from the real one.
//!
//! The overlay is O(cleaned-line) in size and reused across probes (via a
//! thread-local in [`push_feasible`], or owned by a [`ProbeCache`]), so a
//! probe allocates nothing in steady state. The old clone-based probe
//! cloned the full O(N²) grid *per question*; see `DESIGN.md` §11 for the
//! measured effect.

use crate::geom::Axis;
use crate::op::{attempt, prepare, Direction, PushGrid, PushType};
use crate::targets::LineGrid;
use hetmmm_obs as obs;
use hetmmm_partition::{Partition, Proc};
use std::cell::RefCell;

/// Reusable overlay storage for one probe at a time. Cheap to keep around,
/// cleared (not freed) between probes.
///
/// All three maps are sparse, keyed by the lines/cells a probe actually
/// touches — O(cleaned-line) entries — instead of mirroring `n`-sized
/// per-cell or per-line state. With the base grid now answering line
/// queries from bit-planes there is nothing dimension-shaped left to
/// pre-size, so the scratch needs no `ensure(n)` step and is identical for
/// every grid size.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// Overlay cell assignments as `(flat index, owner q)`. Linear-scanned:
    /// a probe touches at most one cleaned line's worth of cells.
    cells: Vec<(u32, u8)>,
    /// Per-row element-count deltas relative to the base, one `[i32; 3]`
    /// per touched row. Linear-scanned like `cells`.
    row_delta: Vec<(u32, [i32; 3])>,
    /// Per-column element-count deltas relative to the base.
    col_delta: Vec<(u32, [i32; 3])>,
    /// Overlay ΔVoC in line units relative to the base.
    voc_delta: i64,
}

impl ProbeScratch {
    /// Empty the overlay without freeing its storage.
    fn reset(&mut self) {
        self.cells.clear();
        self.row_delta.clear();
        self.col_delta.clear();
        self.voc_delta = 0;
    }
}

/// A read-only, direction-canonicalized view: the base [`Partition`] plus
/// the [`ProbeScratch`] overlay. Implements the same canonical-coordinate
/// mapping as [`crate::view::View`] (see the table there).
pub(crate) struct ProbeView<'a> {
    base: &'a Partition,
    scratch: &'a mut ProbeScratch,
    dir: Direction,
    n: usize,
}

impl<'a> ProbeView<'a> {
    crate::canonical_geometry!(dir: crate::op::Direction, proc: Proc, base: base);

    /// Overlay `scratch` onto `base`, canonicalized for pushing in `dir`.
    pub(crate) fn new(
        base: &'a Partition,
        scratch: &'a mut ProbeScratch,
        dir: Direction,
    ) -> ProbeView<'a> {
        let n = base.n();
        ProbeView {
            base,
            scratch,
            dir,
            n,
        }
    }

    /// Owner of real cell `(i, j)`, overlay first.
    #[inline]
    fn get_real(&self, i: usize, j: usize) -> Proc {
        let idx = (i * self.n + j) as u32;
        for &(k, q) in &self.scratch.cells {
            if k == idx {
                return Proc::from_q(q);
            }
        }
        self.base.get(i, j)
    }

    /// Overlay-adjusted element count of `proc` in real row `i`.
    #[inline]
    fn row_count_real(&self, proc: Proc, i: usize) -> i64 {
        let delta = self
            .scratch
            .row_delta
            .iter()
            .find(|(r, _)| *r == i as u32)
            .map_or(0, |(_, d)| d[proc.idx()]);
        i64::from(self.base.row_count(proc, i)) + i64::from(delta)
    }

    /// Overlay-adjusted element count of `proc` in real column `j`.
    #[inline]
    fn col_count_real(&self, proc: Proc, j: usize) -> i64 {
        let delta = self
            .scratch
            .col_delta
            .iter()
            .find(|(c, _)| *c == j as u32)
            .map_or(0, |(_, d)| d[proc.idx()]);
        i64::from(self.base.col_count(proc, j)) + i64::from(delta)
    }

    fn bump_row(&mut self, proc: Proc, i: usize, by: i32) {
        match self
            .scratch
            .row_delta
            .iter_mut()
            .find(|(r, _)| *r == i as u32)
        {
            Some((_, d)) => d[proc.idx()] += by,
            None => {
                let mut d = [0i32; 3];
                d[proc.idx()] = by;
                self.scratch.row_delta.push((i as u32, d));
            }
        }
    }

    fn bump_col(&mut self, proc: Proc, j: usize, by: i32) {
        match self
            .scratch
            .col_delta
            .iter_mut()
            .find(|(c, _)| *c == j as u32)
        {
            Some((_, d)) => d[proc.idx()] += by,
            None => {
                let mut d = [0i32; 3];
                d[proc.idx()] = by;
                self.scratch.col_delta.push((j as u32, d));
            }
        }
    }

    /// Overlay mirror of `Partition::set`: reassign real cell `(i, j)` and
    /// update the per-line deltas and ΔVoC with the same 1→0 / 0→1
    /// transition rules the real grid uses.
    fn set_real(&mut self, i: usize, j: usize, proc: Proc) {
        let old = self.get_real(i, j);
        if old == proc {
            return;
        }
        let idx = (i * self.n + j) as u32;
        match self.scratch.cells.iter_mut().find(|(k, _)| *k == idx) {
            Some(entry) => entry.1 = proc.q(),
            None => self.scratch.cells.push((idx, proc.q())),
        }
        // Row i bookkeeping (count-before-transition rules, as in set()).
        if self.row_count_real(old, i) == 1 {
            self.scratch.voc_delta -= 1;
        }
        self.bump_row(old, i, -1);
        if self.row_count_real(proc, i) == 0 {
            self.scratch.voc_delta += 1;
        }
        self.bump_row(proc, i, 1);
        // Column j bookkeeping.
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

impl LineGrid for ProbeView<'_> {
    type Proc = Proc;

    #[inline]
    fn row_has(&self, proc: Proc, u: usize) -> bool {
        self.row_count(proc, u) > 0
    }

    #[inline]
    fn row_count(&self, proc: Proc, u: usize) -> u32 {
        let count = match self.canon_row_line(u) {
            (i, Axis::Row) => self.row_count_real(proc, i),
            (j, Axis::Col) => self.col_count_real(proc, j),
        };
        debug_assert!(count >= 0, "overlay drove a line count negative");
        count as u32
    }

    #[inline]
    fn col_count(&self, proc: Proc, v: usize) -> u32 {
        let count = match self.canon_col_line(v) {
            (j, Axis::Col) => self.col_count_real(proc, j),
            (i, Axis::Row) => self.row_count_real(proc, i),
        };
        debug_assert!(count >= 0, "overlay drove a line count negative");
        count as u32
    }

    /// Canonical enclosing rectangle, answered from the *base* grid. The
    /// kernel only consults it in [`prepare`], before any overlay swap, so
    /// base and overlay agree whenever this is called (leftover identity
    /// entries from a rolled-back attempt have zero net occupancy effect).
    fn enclosing_rect(&self, proc: Proc) -> Option<(usize, usize, usize, usize)> {
        let r = self.base.enclosing_rect(proc)?;
        Some(self.canon_rect(r.top, r.bottom, r.left, r.right))
    }

    /// Bit-plane line words, answered from the *base* grid — valid under
    /// the same pre-swap contract as [`LineGrid::enclosing_rect`].
    #[inline]
    fn line_word(&self, proc: Proc, u: usize, w: usize) -> u64 {
        self.plane_line_word(proc, u, w)
    }
}

impl PushGrid for ProbeView<'_> {
    #[inline]
    fn get(&self, u: usize, v: usize) -> Proc {
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
    fn col_has(&self, proc: Proc, v: usize) -> bool {
        self.col_count(proc, v) > 0
    }

    #[inline]
    fn voc_units(&self) -> u64 {
        let units = self.base.voc_units() as i64 + self.scratch.voc_delta;
        debug_assert!(units >= 0, "overlay drove voc_units negative");
        units as u64
    }
}

/// [`push_feasible`] against caller-owned scratch storage; used by
/// [`ProbeCache`] so cached probes never touch the thread-local.
pub(crate) fn push_feasible_with(
    scratch: &mut ProbeScratch,
    part: &Partition,
    proc: Proc,
    dir: Direction,
) -> bool {
    let _span = obs::fine_span("push.probe");
    if obs::metrics_enabled() {
        obs::metrics()
            .counter(obs::metrics::names::PUSH_PROBES)
            .inc();
    }
    scratch.reset();
    let voc_before = part.voc_units() as i64;
    let mut view = ProbeView::new(part, scratch, dir);
    let Some(prep) = prepare(&view, proc) else {
        return false;
    };
    PushType::ALL
        .iter()
        .any(|&ty| attempt(&mut view, proc, ty, &prep, voc_before).is_some())
}

thread_local! {
    static SCRATCH: RefCell<ProbeScratch> = RefCell::new(ProbeScratch::default());
}

/// Non-mutating query: would *any* type of push of `proc` in `dir` be
/// legal? Decided by the same kernel as [`crate::try_push_any_type`],
/// against a small reusable overlay — no clone, no allocation in steady
/// state, and safe on a shared reference.
///
/// ```
/// use hetmmm_partition::{PartitionBuilder, Proc, Rect};
/// use hetmmm_push::{push_feasible, Direction};
///
/// // A stray R element above an almost-complete R block with a hole.
/// let part = PartitionBuilder::new(6)
///     .rect(Rect::new(1, 1, 2, 2), Proc::R)
///     .rect(Rect::new(2, 2, 1, 2), Proc::R)
///     .rect(Rect::new(3, 3, 1, 1), Proc::R)
///     .build();
/// assert!(push_feasible(&part, Proc::R, Direction::Down));
/// // Probing never mutates: the partition is still what we built.
/// assert_eq!(part.get(1, 2), Proc::R);
/// ```
pub fn push_feasible(part: &Partition, proc: Proc, dir: Direction) -> bool {
    SCRATCH.with(|scratch| push_feasible_with(&mut scratch.borrow_mut(), part, proc, dir))
}

/// Hash-verified probe-verdict cache for one DFA run.
///
/// One slot per `(pushable proc, direction)` pair holds the partition
/// [`state_hash`](Partition::state_hash) a verdict was computed at. A
/// lookup hits only on an **exact hash match** — that is what makes the
/// cache sound: a push by one processor can flip another processor's probe
/// verdict (the swap rewrites cells of a displaced receiver), so
/// "invalidate only the touched processors" alone would serve stale
/// verdicts. [`ProbeCache::evict_touched`] is still worth calling after a
/// successful push — it is eviction hygiene that keeps slots from pinning
/// hashes that can never match again — but correctness never depends on it.
#[derive(Debug, Default)]
pub(crate) struct ProbeCache {
    scratch: ProbeScratch,
    /// `(state hash, verdict)` per slot; slot = `proc.idx() * 4 + dir`.
    slots: [Option<(u64, bool)>; 8],
}

impl ProbeCache {
    fn slot(proc: Proc, dir: Direction) -> usize {
        debug_assert!(proc != Proc::P, "P is never pushed");
        proc.idx() * 4 + dir.index()
    }

    /// Cached verdict for `(proc, dir)` at exactly `hash`, if any.
    pub(crate) fn lookup(&mut self, hash: u64, proc: Proc, dir: Direction) -> Option<bool> {
        let (h, verdict) = self.slots[Self::slot(proc, dir)]?;
        if h != hash {
            return None;
        }
        if obs::metrics_enabled() {
            obs::metrics()
                .counter(obs::metrics::names::PUSH_PROBE_CACHE_HITS)
                .inc();
        }
        Some(verdict)
    }

    /// Record a verdict computed at `hash`.
    pub(crate) fn record(&mut self, hash: u64, proc: Proc, dir: Direction, verdict: bool) {
        self.slots[Self::slot(proc, dir)] = Some((hash, verdict));
    }

    /// Probe through the cache: serve a hash-matching slot, otherwise
    /// evaluate with the cache's own scratch and fill the slot.
    pub(crate) fn probe(&mut self, part: &Partition, proc: Proc, dir: Direction) -> bool {
        let hash = part.state_hash();
        if let Some(verdict) = self.lookup(hash, proc, dir) {
            return verdict;
        }
        let verdict = push_feasible_with(&mut self.scratch, part, proc, dir);
        self.record(hash, proc, dir, verdict);
        verdict
    }

    /// Drop the slots of every processor a successful push moved elements
    /// of (see the type-level docs: hygiene, not a correctness mechanism).
    pub(crate) fn evict_touched(&mut self, touched: &[bool; 3]) {
        for proc in Proc::PUSHABLE {
            if touched[proc.idx()] {
                for dir in Direction::ALL {
                    self.slots[Self::slot(proc, dir)] = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{try_push_any_type, would_push_reference};
    use hetmmm_partition::{random_partition, PartitionBuilder, Ratio};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The clone-free probe and the clone-based oracle agree for every
        /// (pushable proc, direction) pair on random partitions.
        #[test]
        fn probe_matches_clone_reference(seed in 0u64..1_000_000, n in 6usize..=20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
            for proc in Proc::PUSHABLE {
                for dir in Direction::ALL {
                    prop_assert_eq!(
                        push_feasible(&part, proc, dir),
                        would_push_reference(&part, proc, dir),
                        "disagreement at seed {} for {} {}", seed, proc, dir
                    );
                }
            }
        }

        /// Same agreement holds at every intermediate state of a push
        /// sequence, not just on fresh random partitions — the states the
        /// DFA actually probes.
        #[test]
        fn probe_matches_reference_along_push_sequences(
            seed in 0u64..1_000_000,
            n in 6usize..=16,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = random_partition(n, Ratio::new(2, 1, 1), &mut rng);
            for _round in 0..8 {
                let mut moved = false;
                for proc in Proc::PUSHABLE {
                    for dir in Direction::ALL {
                        prop_assert_eq!(
                            push_feasible(&part, proc, dir),
                            would_push_reference(&part, proc, dir),
                            "disagreement at seed {} for {} {}", seed, proc, dir
                        );
                        moved |= try_push_any_type(&mut part, proc, dir).is_some();
                    }
                }
                if !moved {
                    break;
                }
            }
        }
    }

    #[test]
    fn probe_never_mutates() {
        let mut rng = StdRng::seed_from_u64(77);
        let part = random_partition(10, Ratio::new(2, 1, 1), &mut rng);
        let copy = part.clone();
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                let _ = push_feasible(&part, proc, dir);
            }
        }
        assert_eq!(part, copy);
        part.assert_invariants();
    }

    #[test]
    fn probe_false_on_empty_processor() {
        let part = PartitionBuilder::new(5).build(); // all P
        for dir in Direction::ALL {
            assert!(!push_feasible(&part, Proc::R, dir));
            assert!(!push_feasible(&part, Proc::S, dir));
        }
    }

    #[test]
    fn cache_hits_only_on_exact_hash() {
        let mut rng = StdRng::seed_from_u64(5);
        let part = random_partition(10, Ratio::new(2, 1, 1), &mut rng);
        let mut cache = ProbeCache::default();
        let verdict = cache.probe(&part, Proc::R, Direction::Down);
        // Same state: served from the slot.
        assert_eq!(
            cache.lookup(part.state_hash(), Proc::R, Direction::Down),
            Some(verdict)
        );
        // Any other hash must miss.
        assert_eq!(
            cache.lookup(part.state_hash() ^ 1, Proc::R, Direction::Down),
            None
        );
    }

    #[test]
    fn cache_eviction_clears_touched_processors_only() {
        let mut rng = StdRng::seed_from_u64(6);
        let part = random_partition(10, Ratio::new(2, 1, 1), &mut rng);
        let mut cache = ProbeCache::default();
        cache.probe(&part, Proc::R, Direction::Down);
        cache.probe(&part, Proc::S, Direction::Up);
        cache.evict_touched(&[true, false, false]); // R moved, S did not
        assert_eq!(
            cache.lookup(part.state_hash(), Proc::R, Direction::Down),
            None
        );
        assert!(cache
            .lookup(part.state_hash(), Proc::S, Direction::Up)
            .is_some());
    }
}
