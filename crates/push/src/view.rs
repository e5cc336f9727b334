//! Direction-canonicalizing view over a [`Partition`].
//!
//! The paper describes Push↓ in full and notes "the ↑, ← and → directions
//! are similar" (Section IV-A). Rather than maintaining four near-identical
//! implementations, [`View`] maps *canonical* coordinates `(u, v)` — in which
//! every push is a Push↓ cleaning the canonical top row `u = rect.top` — onto
//! the real grid:
//!
//! The coordinate table lives in [`crate::geom`]; the
//! [`crate::canonical_geometry!`] macro expands it here so this view and
//! the read-only probe overlay cannot drift apart. Canonical "rows" are the
//! lines perpendicular to the push direction, and canonical "columns" the
//! lines parallel to it, so the occupancy predicates of the six push types
//! translate directly — and because within-line bit order is
//! direction-independent, the partition's bit-plane words are served to the
//! push kernel verbatim via [`crate::targets::LineGrid::line_word`].

use crate::geom::Axis;
use crate::op::{Direction, PushGrid};
use crate::targets::LineGrid;
use hetmmm_partition::{Partition, Proc};

/// A mutable, direction-canonicalized window onto a partition. The push
/// kernel sees it through the same traits as the read-only probe overlay.
pub struct View<'a> {
    part: &'a mut Partition,
    dir: Direction,
    n: usize,
}

impl<'a> View<'a> {
    crate::canonical_geometry!(dir: crate::op::Direction, proc: Proc, base: part);

    /// Wrap `part` so that pushing in `dir` looks like a canonical Push↓.
    pub fn new(part: &'a mut Partition, dir: Direction) -> View<'a> {
        let n = part.n();
        View { part, dir, n }
    }
}

impl LineGrid for View<'_> {
    type Proc = Proc;

    #[inline]
    fn row_has(&self, proc: Proc, u: usize) -> bool {
        match self.canon_row_line(u) {
            (i, Axis::Row) => self.part.row_has(proc, i),
            (j, Axis::Col) => self.part.col_has(proc, j),
        }
    }

    #[inline]
    fn row_count(&self, proc: Proc, u: usize) -> u32 {
        match self.canon_row_line(u) {
            (i, Axis::Row) => self.part.row_count(proc, i),
            (j, Axis::Col) => self.part.col_count(proc, j),
        }
    }

    #[inline]
    fn col_count(&self, proc: Proc, v: usize) -> u32 {
        match self.canon_col_line(v) {
            (j, Axis::Col) => self.part.col_count(proc, j),
            (i, Axis::Row) => self.part.row_count(proc, i),
        }
    }

    fn enclosing_rect(&self, proc: Proc) -> Option<(usize, usize, usize, usize)> {
        let r = self.part.enclosing_rect(proc)?;
        Some(self.canon_rect(r.top, r.bottom, r.left, r.right))
    }

    #[inline]
    fn line_word(&self, proc: Proc, u: usize, w: usize) -> u64 {
        self.plane_line_word(proc, u, w)
    }
}

impl PushGrid for View<'_> {
    #[inline]
    fn get(&self, u: usize, v: usize) -> Proc {
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
    fn col_has(&self, proc: Proc, v: usize) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{PartitionBuilder, Rect};

    fn sample() -> Partition {
        // 5x5, R at (1,2), S block rows 3..=4 cols 0..=1.
        PartitionBuilder::new(5)
            .rect(Rect::new(1, 1, 2, 2), Proc::R)
            .rect(Rect::new(3, 4, 0, 1), Proc::S)
            .build()
    }

    #[test]
    fn map_roundtrips_ownership() {
        let mut part = sample();
        for dir in Direction::ALL {
            let view = View::new(&mut part, dir);
            // Every canonical cell maps to exactly one real cell.
            let mut seen = std::collections::HashSet::new();
            for u in 0..5 {
                for v in 0..5 {
                    assert!(seen.insert(view.map(u, v)), "duplicate mapping {dir:?}");
                }
            }
        }
    }

    #[test]
    fn down_view_is_identity() {
        let mut part = sample();
        let view = View::new(&mut part, Direction::Down);
        assert_eq!(view.get(1, 2), Proc::R);
        assert_eq!(view.enclosing_rect(Proc::S), Some((3, 4, 0, 1)));
        assert!(view.row_has(Proc::R, 1));
        assert!(view.col_has(Proc::R, 2));
    }

    #[test]
    fn up_view_flips_rows() {
        let mut part = sample();
        let view = View::new(&mut part, Direction::Up);
        // Real row 1 is canonical row 3 when n = 5.
        assert_eq!(view.get(3, 2), Proc::R);
        // S rows 3..=4 become canonical rows 0..=1.
        assert_eq!(view.enclosing_rect(Proc::S), Some((0, 1, 0, 1)));
    }

    #[test]
    fn right_view_transposes() {
        let mut part = sample();
        let view = View::new(&mut part, Direction::Right);
        // Real (1, 2) appears at canonical (2, 1).
        assert_eq!(view.get(2, 1), Proc::R);
        // S real rows 3..=4 / cols 0..=1 -> canonical rows 0..=1 / cols 3..=4.
        assert_eq!(view.enclosing_rect(Proc::S), Some((0, 1, 3, 4)));
        assert!(view.row_has(Proc::S, 0)); // real col 0 has S
        assert!(view.col_has(Proc::S, 3)); // real row 3 has S
    }

    #[test]
    fn left_view_flips_cols_and_transposes() {
        let mut part = sample();
        let view = View::new(&mut part, Direction::Left);
        // Real (1, 2): canonical u = n-1-j = 2, v = i = 1.
        assert_eq!(view.get(2, 1), Proc::R);
        // S cols 0..=1 -> canonical rows 3..=4; S rows 3..=4 -> canonical cols 3..=4.
        assert_eq!(view.enclosing_rect(Proc::S), Some((3, 4, 3, 4)));
    }

    #[test]
    fn swap_acts_on_real_grid() {
        let mut part = sample();
        {
            let mut view = View::new(&mut part, Direction::Right);
            // canonical (2, 1) is real (1, 2) = R; canonical (0, 0) is real (0, 0) = P.
            view.swap((2, 1), (0, 0));
        }
        assert_eq!(part.get(0, 0), Proc::R);
        assert_eq!(part.get(1, 2), Proc::P);
        part.assert_invariants();
    }

    #[test]
    fn counts_match_direction_semantics() {
        let mut part = sample();
        let view = View::new(&mut part, Direction::Left);
        // Canonical row u counts = real column n-1-u counts.
        assert_eq!(view.row_count(Proc::S, 4), 2); // real col 0
        assert_eq!(view.row_count(Proc::S, 3), 2); // real col 1
        assert_eq!(view.col_count(Proc::S, 3), 2); // real row 3
    }
}
