//! The atomic Push operation, Types One through Six (Section IV-A).
//!
//! A `Push{proc, dir}` cleans the whole edge line of `proc`'s enclosing
//! rectangle facing *against* the push direction (Push↓ cleans the top row,
//! Push↑ the bottom row, Push→ the leftmost column, Push← the rightmost
//! column) by swapping each element of the active processor in that line
//! with a displaced element found strictly interior to the enclosing
//! rectangle, following the scan order of the paper's `find` pseudocode
//! (Section VI-B).
//!
//! ## Type semantics
//!
//! The six types differ in two orthogonal strictness knobs:
//!
//! - **active side** (where the active processor's elements may land):
//!   *strict* — only rows/columns already containing the active processor
//!   (Types 1, 3); *budgeted* — new rows/columns may be dirtied as long as at
//!   least as many are cleaned (Types 2, 4); *one-dirty* — at most a single
//!   new row or column over the whole operation (Types 5, 6);
//! - **displaced side** (what the receiving processor must satisfy):
//!   *strict* — the receiver must already own elements in the cleaned row
//!   `k` and in the column `j` it is being written to (Types 1, 2, 5);
//!   *relaxed* — no precondition, legality coming from the net
//!   dirtied-vs-cleaned budget (Types 3, 4, 6).
//!
//! ## Hard invariant
//!
//! Whatever the per-swap admissibility says, the engine computes the exact
//! ΔVoC of the whole atomic operation from the partition's incremental
//! counters and **rolls the operation back** unless the type's contract
//! holds: Types 1–4 must strictly decrease VoC, Types 5–6 must not increase
//! it. This turns the paper's prose guarantee ("a Push which decreases, or at
//! least does not increase, the volume of communication") into a
//! machine-checked property. (The ladder driver in `ladder` may keep a
//! failed type's swaps applied while later types that would repeat them
//! are decided, but rolls them back before any other swap and before it
//! returns.)
//!
//! Note on enclosing rectangles: targets are always inside the *active*
//! processor's enclosing rectangle, so its rectangle never grows and the
//! cleaned dimension shrinks by at least one line per applied push. The
//! relaxed types may grow a *receiver's* rectangle (that is exactly what
//! "dirtying" a line means); the ΔVoC contract still bounds the damage, and
//! this matches the paper's Types 3/4/6 which explicitly permit receiver
//! dirtying within budget.

use crate::ladder::{climb, ActiveSide, Finish, RuleLayer, Rung};
use crate::targets::{Candidates, LineGrid};
use crate::view::View;
use hetmmm_partition::{Partition, Proc};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Declare the four push directions in one table: variant, dense index
/// (the position in `ALL`, used for per-(proc, dir) slot arithmetic), and
/// the paper's arrow glyph. Generates the enum, `ALL`, `index`, `arrow`
/// and `Display` from a single row per direction.
macro_rules! directions {
    ($(
        $(#[$doc:meta])*
        $variant:ident => index $idx:literal, arrow $arrow:literal;
    )+) => {
        /// The four push directions (the paper's alphabet symbols ↓ ↑ ← →).
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
        pub enum Direction {
            $( $(#[$doc])* $variant, )+
        }

        impl Direction {
            /// All four directions.
            pub const ALL: [Direction; directions!(@count $($variant)+)] =
                [ $(Direction::$variant),+ ];

            /// Position of this direction in [`Direction::ALL`] (down 0,
            /// up 1, left 2, right 3). Used for dense per-(proc, dir)
            /// tables.
            pub(crate) fn index(self) -> usize {
                match self { $(Direction::$variant => $idx),+ }
            }

            /// Arrow glyph used in logs, matching the paper's notation.
            pub fn arrow(self) -> char {
                match self { $(Direction::$variant => $arrow),+ }
            }
        }

        impl fmt::Display for Direction {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.arrow())
            }
        }
    };
    (@count $($variant:ident)+) => { [$(directions!(@one $variant)),+].len() };
    (@one $variant:ident) => { () };
}

directions! {
    /// Clean the top row of the enclosing rectangle, elements move down.
    Down => index 0, arrow '↓';
    /// Clean the bottom row, elements move up.
    Up => index 1, arrow '↑';
    /// Clean the rightmost column, elements move left.
    Left => index 2, arrow '←';
    /// Clean the leftmost column, elements move right.
    Right => index 3, arrow '→';
}

/// Declare the paper's six push types as one table: variant, paper number,
/// active-side rule, displaced-side strictness, and the ΔVoC contract
/// (Section IV-A, the two orthogonal strictness knobs from the module
/// docs). Generates the enum (discriminants in table order, so `ty as
/// usize` indexes per-type metric tables), `ALL`, the number, each type's
/// ladder [`Rung`] and `Display` — the whole 6-type × 4-direction behavior
/// table has exactly one definition.
macro_rules! push_types {
    ($(
        $(#[$doc:meta])*
        $variant:ident => number $num:literal,
            active $active:ident,
            displaced $displaced:ident,
            voc $voc:ident;
    )+) => {
        /// The six push types of Section IV-A.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
        pub enum PushType {
            $( $(#[$doc])* $variant, )+
        }

        impl PushType {
            /// All six types, in the order `try_push_any_type` attempts them
            /// (most restrictive / most profitable first).
            pub const ALL: [PushType; push_types!(@count $($variant)+)] =
                [ $(PushType::$variant),+ ];

            /// The ladder of `try_push_any_type`: one rung per type, in
            /// [`PushType::ALL`] order.
            pub(crate) const RUNGS: [Rung; push_types!(@count $($variant)+)] =
                [ $(PushType::$variant.rung()),+ ];

            /// The paper's type number (1–6).
            #[inline]
            pub fn number(self) -> u8 {
                match self { $(PushType::$variant => $num),+ }
            }

            /// This type's rung: its displaced-side class, active-side rule
            /// and ΔVoC contract.
            pub(crate) const fn rung(self) -> Rung {
                match self {
                    $(PushType::$variant => Rung {
                        index: PushType::$variant as usize,
                        displaced_strict: push_types!(@displaced $displaced),
                        active: ActiveSide::$active,
                        strict_decrease: push_types!(@voc $voc),
                    }),+
                }
            }
        }

        impl fmt::Display for PushType {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "Type{}", self.number())
            }
        }
    };
    (@count $($variant:ident)+) => { [$(push_types!(@one $variant)),+].len() };
    (@one $variant:ident) => { () };
    (@displaced strict) => { true };
    (@displaced relaxed) => { false };
    (@voc decrease) => { true };
    (@voc nonincrease) => { false };
}

push_types! {
    /// Strict active side, strict displaced side; decreases VoC.
    One => number 1, active Strict, displaced strict, voc decrease;
    /// Budgeted active side, strict displaced side; decreases VoC.
    Two => number 2, active Budgeted, displaced strict, voc decrease;
    /// Strict active side, relaxed displaced side; decreases VoC.
    Three => number 3, active Strict, displaced relaxed, voc decrease;
    /// Budgeted active side, relaxed displaced side; decreases VoC.
    Four => number 4, active Budgeted, displaced relaxed, voc decrease;
    /// One-dirty active side, strict displaced side; VoC unchanged (or less).
    Five => number 5, active OneDirty, displaced strict, voc nonincrease;
    /// One-dirty active side, relaxed displaced side; VoC unchanged or less.
    Six => number 6, active OneDirty, displaced relaxed, voc nonincrease;
}

/// Record of a successfully applied push.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppliedPush {
    /// The active processor.
    pub proc: Proc,
    /// Push direction.
    pub dir: Direction,
    /// The type under which the push was legal.
    pub ty: PushType,
    /// Exact change in VoC line units (`VoC` change is `n *` this); always
    /// `< 0` for Types 1–4 and `<= 0` for Types 5–6.
    pub delta_voc_units: i64,
    /// Number of element swaps performed (= active elements in the cleaned
    /// line).
    pub swaps: usize,
}

/// Phase 2 of a three-processor push — which of the two displaced owners
/// of `prep` fills each vacated position — under the displaced-side class
/// `displaced_strict`. Returns the owner slot per cleaned position, or
/// `None` when no assignment exists.
///
/// A position (k, v) is "free" for owner Y when writing Y there dirties
/// nothing: Y already owns elements in row k and in column v (the strict
/// displaced-side rule of Types 1/2/5). Forced positions (free for
/// exactly one owner) take that owner; flexible ones are balanced against
/// target availability; dead positions (free for neither) are only
/// allowed by the relaxed types, paid for through the final ΔVoC
/// contract.
#[inline]
pub(crate) fn assign(view: &View, prep: &Candidates, displaced_strict: bool) -> Option<Vec<usize>> {
    let k = prep.line;
    let cleaned = &prep.cleaned;
    debug_assert_eq!(
        prep.owners.len(),
        2,
        "three processors: two displaced owners"
    );
    let (o1, o2) = (prep.owners[0], prep.owners[1]);
    let row_k_has = [view.row_has(o1, k), view.row_has(o2, k)];
    let free_for = |slot: usize, v: usize| -> bool {
        let owner = if slot == 0 { o1 } else { o2 };
        row_k_has[slot] && view.col_has(owner, v)
    };
    let mut assignment: Vec<usize> = Vec::with_capacity(cleaned.len());
    let mut demand = [0usize; 2];
    let avail = [prep.owner_targets[0].len(), prep.owner_targets[1].len()];
    let mut flexible: Vec<usize> = Vec::new();
    for (idx, &v) in cleaned.iter().enumerate() {
        let f = [free_for(0, v), free_for(1, v)];
        match (f[0], f[1]) {
            (true, false) => {
                assignment.push(0);
                demand[0] += 1;
            }
            (false, true) => {
                assignment.push(1);
                demand[1] += 1;
            }
            _ => {
                if displaced_strict && !f[0] && !f[1] {
                    return None; // dead position under a strict type
                }
                assignment.push(usize::MAX);
                flexible.push(idx);
            }
        }
    }
    if demand[0] > avail[0] || demand[1] > avail[1] {
        return None; // not enough targets of a forced owner
    }
    // Hand flexible positions to whichever owner has spare targets,
    // preferring the owner that is free at that position.
    for idx in flexible {
        let v = cleaned[idx];
        let prefer = usize::from(!free_for(0, v)); // 0 unless only o2 free
                                                   // Fewer interior targets than cleaned elements: no assignment.
        let slot = [prefer, 1 - prefer]
            .into_iter()
            .find(|&slot| demand[slot] < avail[slot])?;
        assignment[idx] = slot;
        demand[slot] += 1;
    }
    Some(assignment)
}

/// Try to apply a push of the given type. On success the partition is
/// mutated and a record returned; on failure the partition is left exactly
/// as it was.
pub fn try_push(
    part: &mut Partition,
    proc: Proc,
    dir: Direction,
    ty: PushType,
) -> Option<AppliedPush> {
    try_ladder(part, proc, dir, &[ty.rung()])
}

/// Try each push type in order (1 → 6) and apply the first that is legal.
///
/// ```
/// use hetmmm_partition::{PartitionBuilder, Proc, Rect};
/// use hetmmm_push::{try_push_any_type, Direction};
///
/// // A stray R element above an almost-complete R block with a hole.
/// let mut part = PartitionBuilder::new(6)
///     .rect(Rect::new(1, 1, 2, 2), Proc::R)
///     .rect(Rect::new(2, 2, 1, 2), Proc::R)
///     .rect(Rect::new(3, 3, 1, 1), Proc::R)
///     .build();
/// let voc_before = part.voc();
/// let applied = try_push_any_type(&mut part, Proc::R, Direction::Down)
///     .expect("a push is legal here");
/// assert!(applied.delta_voc_units < 0);
/// assert!(part.voc() < voc_before);
/// ```
pub fn try_push_any_type(part: &mut Partition, proc: Proc, dir: Direction) -> Option<AppliedPush> {
    try_ladder(part, proc, dir, &PushType::RUNGS)
}

/// Apply the first of `rungs` under which a push of `proc` is legal.
fn try_ladder(
    part: &mut Partition,
    proc: Proc,
    dir: Direction,
    rungs: &[Rung],
) -> Option<AppliedPush> {
    let grid = part.grid_mut();
    let pushed = climb(grid, RuleLayer::Types, proc.q(), dir, rungs, Finish::Apply)?;
    Some(AppliedPush {
        proc,
        dir,
        ty: PushType::ALL[pushed.rung],
        delta_voc_units: pushed.delta,
        swaps: pushed.swaps,
    })
}

/// Clone-based reference probe: would *any* type of push of `proc` in `dir`
/// be legal?
///
/// Kept only as the test oracle for [`crate::probe::push_feasible`], which
/// answers the same question on the grid itself and reverts what it
/// applied. Production code must use the probe.
#[cfg(test)]
pub(crate) fn would_push_reference(part: &Partition, proc: Proc, dir: Direction) -> bool {
    let mut scratch = part.clone();
    try_push_any_type(&mut scratch, proc, dir).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{PartitionBuilder, Rect};

    /// R occupies a full-width horizontal strip: pushing down must fail
    /// (every interior cell is already R / there is nowhere to go without
    /// enlarging the rectangle).
    #[test]
    fn strip_cannot_be_pushed_into_itself() {
        let mut part = PartitionBuilder::new(6)
            .rect(Rect::new(2, 3, 0, 5), Proc::R)
            .build();
        let before = part.clone();
        for ty in PushType::ALL {
            assert!(try_push(&mut part, Proc::R, Direction::Down, ty).is_none());
            assert_eq!(part, before);
        }
    }

    /// Fig. 2 style: a ragged R region condenses when pushed down, filling
    /// a hole in its own interior and strictly decreasing VoC (Type One).
    #[test]
    fn ragged_region_condenses_down() {
        // R: a stray at (1,2) plus an almost-rectangle {(2,1),(2,2),(3,1)}
        // with a P hole at (3,2). Pushing down moves the stray into the hole.
        let mut part = PartitionBuilder::new(6)
            .rect(Rect::new(1, 1, 2, 2), Proc::R)
            .rect(Rect::new(2, 2, 1, 2), Proc::R)
            .rect(Rect::new(3, 3, 1, 1), Proc::R)
            .build();
        part.assert_invariants();
        let voc_before = part.voc();
        let applied =
            try_push_any_type(&mut part, Proc::R, Direction::Down).expect("push should be legal");
        assert_eq!(applied.swaps, 1);
        assert_eq!(applied.ty, PushType::One);
        assert!(applied.delta_voc_units < 0);
        assert!(part.voc() < voc_before);
        // Row 1 must now be clean of R and the hole filled.
        assert!(!part.row_has(Proc::R, 1));
        assert_eq!(part.get(3, 2), Proc::R);
        part.assert_invariants();
    }

    /// A VoC-neutral condensation is still accepted, but only under the
    /// Type Five/Six (unchanged-VoC) contract.
    #[test]
    fn neutral_condensation_uses_type_five_or_six() {
        // R: full row 3 plus two strays in row 1; every column keeps R after
        // the push, and the strays must land in virgin row 2, so the best
        // possible outcome is delta = 0.
        let mut part = PartitionBuilder::new(6)
            .rect(Rect::new(3, 3, 0, 5), Proc::R)
            .rect(Rect::new(1, 1, 1, 2), Proc::R)
            .build();
        let applied = try_push_any_type(&mut part, Proc::R, Direction::Down)
            .expect("neutral push should be legal");
        assert_eq!(applied.delta_voc_units, 0);
        assert!(matches!(applied.ty, PushType::Five | PushType::Six));
        assert!(!part.row_has(Proc::R, 1));
        part.assert_invariants();
    }

    #[test]
    fn push_preserves_element_counts() {
        let mut part = PartitionBuilder::new(8)
            .rect(Rect::new(4, 7, 0, 3), Proc::R)
            .rect(Rect::new(0, 1, 0, 7), Proc::S)
            .rect(Rect::new(2, 2, 3, 5), Proc::R)
            .build();
        let elems_before = [
            part.elems(Proc::R),
            part.elems(Proc::S),
            part.elems(Proc::P),
        ];
        for dir in Direction::ALL {
            let _ = try_push_any_type(&mut part, Proc::R, dir);
            let _ = try_push_any_type(&mut part, Proc::S, dir);
        }
        let elems_after = [
            part.elems(Proc::R),
            part.elems(Proc::S),
            part.elems(Proc::P),
        ];
        assert_eq!(elems_before, elems_after);
        part.assert_invariants();
    }

    #[test]
    fn failed_push_is_a_perfect_rollback() {
        // A shape engineered so Type One fails (receiver P has no elements in
        // the cleaned row under strict displaced rules, and VoC cannot
        // strictly decrease): a single R element in its own row/column
        // corner; pushing it down lands in a row/col that gains R.
        let part = PartitionBuilder::new(4)
            .rect(Rect::new(0, 0, 0, 0), Proc::R)
            .rect(Rect::new(1, 1, 1, 1), Proc::R)
            .build();
        let before = part.clone();
        // Direction Up on R: bottom row of rect is row 1 containing (1,1);
        // target row 0 inside rect. Whatever happens, failure must restore.
        for ty in PushType::ALL {
            let mut clone = before.clone();
            if try_push(&mut clone, Proc::R, Direction::Up, ty).is_none() {
                assert_eq!(clone, before, "rollback violated for {ty}");
            }
        }
    }

    #[test]
    fn voc_never_increases_for_any_type() {
        // Deterministic scattered grid.
        let mut part = hetmmm_partition::Partition::from_fn(12, |i, j| match (i * 7 + j * 5) % 6 {
            0..=2 => Proc::P,
            3 | 4 => Proc::R,
            _ => Proc::S,
        });
        for _ in 0..50 {
            let before = part.voc();
            let mut moved = false;
            for proc in Proc::PUSHABLE {
                for dir in Direction::ALL {
                    if let Some(ap) = try_push_any_type(&mut part, proc, dir) {
                        moved = true;
                        assert!(ap.delta_voc_units <= 0);
                    }
                }
            }
            assert!(part.voc() <= before);
            part.assert_invariants();
            if !moved {
                break;
            }
        }
    }

    #[test]
    fn would_push_does_not_mutate() {
        let part = PartitionBuilder::new(6)
            .rect(Rect::new(0, 0, 0, 3), Proc::R)
            .rect(Rect::new(1, 2, 0, 5), Proc::R)
            .build();
        let copy = part.clone();
        let _ = would_push_reference(&part, Proc::R, Direction::Down);
        assert_eq!(part, copy);
    }

    #[test]
    fn square_corner_is_a_fixed_point() {
        // R square top-left, S square bottom-right: the classic Square-Corner
        // partition. No push in any direction should be able to improve it.
        let part = PartitionBuilder::new(9)
            .rect(Rect::new(0, 2, 0, 2), Proc::R)
            .rect(Rect::new(6, 8, 6, 8), Proc::S)
            .build();
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                assert!(
                    !would_push_reference(&part, proc, dir),
                    "square-corner should be condensed, but {proc} {dir} is legal"
                );
            }
        }
    }

    #[test]
    fn horizontal_push_cleans_column() {
        // R: full column 4 plus strays in column 1; push Right cleans col 1.
        let mut part = PartitionBuilder::new(6)
            .rect(Rect::new(0, 5, 4, 4), Proc::R)
            .rect(Rect::new(2, 3, 1, 1), Proc::R)
            .build();
        let applied = try_push_any_type(&mut part, Proc::R, Direction::Right)
            .expect("push right should clean column 1");
        // Column 1 loses R but the strays must dirty one interior column, so
        // the best achievable outcome here is VoC-neutral.
        assert!(applied.delta_voc_units <= 0);
        assert!(!part.col_has(Proc::R, 1));
        part.assert_invariants();
    }

    #[test]
    fn empty_processor_cannot_push() {
        let mut part = hetmmm_partition::Partition::new(5, Proc::P);
        assert!(try_push_any_type(&mut part, Proc::R, Direction::Down).is_none());
    }
}
