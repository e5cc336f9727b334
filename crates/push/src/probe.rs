//! Clone-free push-feasibility probes.
//!
//! [`push_feasible`] answers "would *any* type of push of `proc` in `dir`
//! be legal?" — the question the DFA's residual check and
//! [`crate::is_condensed`] ask of 8 pairs (2 pushable processors × 4
//! directions) per fixed-point test — without cloning the partition or
//! mutating it; [`push_feasible_n`] asks the same of the k-processor
//! modes.
//!
//! ## How it stays exact
//!
//! The probe runs the *same* push kernel (phase 1, the rule layer's
//! attempts, phase 3) that applies real pushes, through the
//! [`crate::op::PushGrid`] trait. Where a real push swaps cells of an
//! [`NPartition`], the probe's [`ProbeView`] records the swaps in a small
//! overlay ([`ProbeScratch`]) layered over the immutable base grid:
//! per-cell reassignments, per-line occupancy deltas, and the running ΔVoC,
//! mirroring the incremental bookkeeping of `NPartition::set` exactly. The
//! base grid is never written, so a probe is safe on a shared reference,
//! and because the kernel is shared there is no second legality
//! implementation that could drift from the real one.
//!
//! The overlay is O(cleaned-line) in size, hashed so that each lookup is
//! O(1) however many cells a probe has swapped (a residual probe swaps a
//! whole cleaned line, hundreds of cells at N = 1000), and reused across
//! probes (via a thread-local), so a probe allocates nothing in steady
//! state. The old clone-based probe cloned the full O(N²) grid *per
//! question*; see `DESIGN.md` §11 for the measured effect.

use crate::modes::{self, PushMode};
use crate::op::{self, Direction, PushGrid, PushType};
use crate::targets::{prepare, LineGrid};
use crate::view::{Axis, Frame};
use hetmmm_obs as obs;
use hetmmm_partition::{NPartition, Partition, Proc};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The overlay's hasher: one multiply per `u32` key. The keys are cell
/// and line indices of one grid, which no adversary picks, so SipHash
/// would only slow every lookup down.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(u32::from(b)));
    }

    #[inline]
    fn write_u32(&mut self, key: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(key)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by overlay index.
type KeyMap<V> = HashMap<u32, V, BuildHasherDefault<KeyHasher>>;

/// Reusable overlay storage for one probe at a time. Cheap to keep around,
/// cleared (not freed) between probes.
///
/// All maps are sparse, keyed by the lines/cells a probe actually touches
/// — O(cleaned-line) entries — instead of mirroring `n`-sized per-cell or
/// per-line state, so the scratch needs no sizing step and is identical
/// for every grid size and owner count. They are hashed, not scanned: a
/// residual probe swaps a whole cleaned line (hundreds of cells at
/// N = 1000), and every swap looks up cells and line counts.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// Overlay cell assignments, flat index to owner.
    cells: KeyMap<u8>,
    /// Per-(owner, line) element-count deltas relative to the base, keyed
    /// by `owner * n + line`; one map per [`Axis`].
    deltas: [KeyMap<i32>; 2],
    /// Overlay ΔVoC in line units relative to the base.
    voc_delta: i64,
}

impl ProbeScratch {
    /// Empty the overlay without freeing its storage.
    fn reset(&mut self) {
        self.cells.clear();
        self.deltas.iter_mut().for_each(KeyMap::clear);
        self.voc_delta = 0;
    }
}

/// A read-only, direction-canonicalized view: the base [`NPartition`] plus
/// the [`ProbeScratch`] overlay, in the same canonical [`Frame`] as
/// [`crate::view::View`].
pub(crate) struct ProbeView<'a> {
    base: &'a NPartition,
    scratch: &'a mut ProbeScratch,
    frame: Frame,
}

impl<'a> ProbeView<'a> {
    /// Overlay `scratch` onto `base`, canonicalized for pushing in `dir`.
    pub(crate) fn new(
        base: &'a NPartition,
        scratch: &'a mut ProbeScratch,
        dir: Direction,
    ) -> ProbeView<'a> {
        let frame = Frame::new(dir, base.n());
        ProbeView {
            base,
            scratch,
            frame,
        }
    }

    /// Owner of real cell `(i, j)`, overlay first. Phase 1 runs before any
    /// swap, so an empty overlay is the common case and skips the lookup.
    #[inline]
    fn get_real(&self, i: usize, j: usize) -> u8 {
        let cells = &self.scratch.cells;
        let idx = (i * self.base.n() + j) as u32;
        match cells.is_empty() {
            false => cells.get(&idx).copied(),
            true => None,
        }
        .unwrap_or_else(|| self.base.get(i, j))
    }

    /// Overlay-adjusted element count of owner `p` in a real line.
    #[inline]
    fn count_real(&self, p: u8, line: (usize, Axis)) -> i64 {
        let deltas = &self.scratch.deltas[line.1 as usize];
        let key = (p as usize * self.base.n() + line.0) as u32;
        let delta = match deltas.is_empty() {
            false => deltas.get(&key).copied().unwrap_or(0),
            true => 0,
        };
        i64::from(self.frame.count(self.base, p, line)) + i64::from(delta)
    }

    /// Add `by` to owner `p`'s overlay count in a real line and return the
    /// count before the change.
    fn shift(&mut self, p: u8, line: (usize, Axis), by: i32) -> i64 {
        let key = (p as usize * self.base.n() + line.0) as u32;
        let base = i64::from(self.frame.count(self.base, p, line));
        let delta = self.scratch.deltas[line.1 as usize].entry(key).or_insert(0);
        let before = *delta;
        *delta += by;
        base + i64::from(before)
    }

    /// Overlay mirror of `NPartition::set`: reassign real cell `(i, j)`
    /// from its owner `old` to `p` and update the per-line deltas and ΔVoC
    /// with the same 1→0 / 0→1 transition rules the real grid uses.
    fn set_real(&mut self, (i, j): (usize, usize), old: u8, p: u8) {
        debug_assert_eq!(self.get_real(i, j), old, "owner of ({i}, {j})");
        self.scratch.cells.insert((i * self.base.n() + j) as u32, p);
        for line in [(i, Axis::Row), (j, Axis::Col)] {
            if self.shift(old, line, -1) == 1 {
                self.scratch.voc_delta -= 1;
            }
            if self.shift(p, line, 1) == 0 {
                self.scratch.voc_delta += 1;
            }
        }
    }
}

impl LineGrid for ProbeView<'_> {
    #[inline]
    fn row_count(&self, p: u8, u: usize) -> u32 {
        let count = self.count_real(p, self.frame.row_line(u));
        debug_assert!(count >= 0, "overlay drove a line count negative");
        count as u32
    }

    #[inline]
    fn col_count(&self, p: u8, v: usize) -> u32 {
        let count = self.count_real(p, self.frame.col_line(v));
        debug_assert!(count >= 0, "overlay drove a line count negative");
        count as u32
    }

    /// Canonical enclosing rectangle, answered from the *base* grid. The
    /// kernel only consults it in phase 1, before any overlay swap, so
    /// base and overlay agree whenever this is called (leftover identity
    /// entries from a rolled-back attempt have zero net occupancy effect).
    fn enclosing_rect(&self, p: u8) -> Option<(usize, usize, usize, usize)> {
        self.frame.rect(self.base, p)
    }

    /// Bit-plane line words, answered from the *base* grid — valid under
    /// the same pre-swap contract as [`LineGrid::enclosing_rect`].
    #[inline]
    fn line_word(&self, p: u8, u: usize, w: usize) -> u64 {
        self.frame.line_word(self.base, p, u, w)
    }

    /// The base grid's nonzero-word summary, under [`LineGrid::line_word`]'s
    /// pre-swap contract.
    #[inline]
    fn nonzero_words(&self, p: u8, u: usize, w: usize) -> u64 {
        self.frame.nonzero_words(self.base, p, u, w)
    }
}

impl PushGrid for ProbeView<'_> {
    #[inline]
    fn get(&self, u: usize, v: usize) -> u8 {
        let (i, j) = self.frame.map(u, v);
        self.get_real(i, j)
    }

    fn swap_owned(&mut self, a: (usize, usize), pa: u8, b: (usize, usize), pb: u8) {
        if pa == pb {
            return;
        }
        self.set_real(self.frame.map(a.0, a.1), pa, pb);
        self.set_real(self.frame.map(b.0, b.1), pb, pa);
    }

    #[inline]
    fn voc_units(&self) -> u64 {
        let units = self.base.voc_units() as i64 + self.scratch.voc_delta;
        debug_assert!(units >= 0, "overlay drove voc_units negative");
        units as u64
    }
}

/// The rule layer that decides a push, for probes and for the DFA walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RuleLayer {
    /// The paper's six push types on three processors, tried One to Six
    /// ([`crate::try_push_any_type`]).
    Types,
    /// The k-processor modes, tried Strict to Relaxed
    /// ([`crate::try_push_n`]).
    Modes,
}

impl RuleLayer {
    /// Apply the first rung of the ladder under which a push of `proc` in
    /// `dir` is legal. Returns the rung (the push type or mode, counted
    /// from 0 in ladder order) and the exact ΔVoC in line units.
    pub(crate) fn apply(
        self,
        part: &mut NPartition,
        proc: u8,
        dir: Direction,
    ) -> Option<(usize, i64)> {
        match self {
            RuleLayer::Types => op::try_ladder(part, proc, dir, &PushType::ALL)
                .map(|applied| (applied.ty as usize, applied.delta_voc_units)),
            RuleLayer::Modes => modes::try_push_n(part, proc, dir)
                .map(|applied| (applied.mode as usize, applied.delta_voc_units)),
        }
    }

    /// Would a push of `proc` in `dir` be legal under any rung of the
    /// ladder? Decided against the thread's reusable overlay; every failed
    /// rung rolls back, so the rungs see the same grid.
    fn feasible(self, part: &NPartition, proc: u8, dir: Direction) -> bool {
        let _span = obs::fine_span("push.probe");
        if obs::metrics_enabled() {
            obs::metrics()
                .counter(obs::metrics::names::PUSH_PROBES)
                .inc();
        }
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.reset();
            let voc_before = part.voc_units() as i64;
            let mut view = ProbeView::new(part, &mut scratch, dir);
            let Some(prep) = prepare(&view, proc, part.k()) else {
                return false;
            };
            match self {
                RuleLayer::Types => PushType::ALL
                    .iter()
                    .any(|&ty| op::attempt(&mut view, proc, ty, &prep, voc_before).is_some()),
                RuleLayer::Modes => PushMode::ALL.iter().any(|&mode| {
                    modes::attempt(&mut view, proc, mode, &prep, voc_before).is_some()
                }),
            }
        })
    }
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
    RuleLayer::Types.feasible(part.grid(), proc.q(), dir)
}

/// Non-mutating query: would a push of `proc` in `dir` be legal under any
/// [`PushMode`]? Decided by the same kernel as [`crate::try_push_n`]
/// against the same reusable overlay — no clone of the `O(N²)` grid, safe
/// on a shared reference.
pub fn push_feasible_n(part: &NPartition, proc: u8, dir: Direction) -> bool {
    RuleLayer::Modes.feasible(part, proc, dir)
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
}
