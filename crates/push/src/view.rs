//! Direction-canonicalizing view over an [`NPartition`].
//!
//! The paper describes Push↓ in full and notes "the ↑, ← and → directions
//! are similar" (Section IV-A). Rather than maintaining four near-identical
//! implementations, every push is analyzed in a *canonical* frame
//! ([`Frame`]) where it is a Push↓ cleaning the canonical top row
//! `u = rect.top`:
//!
//! | direction | cleaned edge      | canonical `(u, v)` → real `(i, j)` |
//! |-----------|-------------------|-------------------------------------|
//! | Down      | top row           | `(u, v)`                            |
//! | Up        | bottom row        | `(n-1-u, v)`                        |
//! | Right     | leftmost column   | `(v, u)`                            |
//! | Left      | rightmost column  | `(v, n-1-u)`                        |
//!
//! Canonical "rows" are the lines perpendicular to the push direction, and
//! canonical "columns" the lines parallel to it, so the occupancy
//! predicates of both rule layers translate directly. Two facts fall out
//! of the table and are load-bearing for the bit-plane fast path:
//!
//! 1. a canonical **row** `u` is always one whole real line — a real row
//!    (Down/Up) or a real column (Right/Left), possibly with a flipped
//!    *line index* (`n-1-u`);
//! 2. the canonical **within-line** position `v` is never reversed by any
//!    direction, so the grid's plane words are served to the push kernel
//!    verbatim: word `w` of the canonical line is word `w` of the real
//!    line, bit for bit ([`LineGrid::line_word`]).
//!
//! Both grid views hold a [`Frame`]: the mutable [`View`] here, and the
//! read-only probe overlay [`crate::probe::ProbeView`].

use crate::op::{Direction, PushGrid};
use crate::targets::LineGrid;
use hetmmm_partition::NPartition;

/// Which real axis a canonical line maps to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Axis {
    /// A real row: row counts and the row-major bit-plane.
    Row,
    /// A real column: column counts and the transposed bit-plane.
    Col,
}

/// The canonical frame of a push direction on an `n x n` grid (the table
/// in the [module documentation](self)).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    dir: Direction,
    n: usize,
}

impl Frame {
    /// The frame of pushing in `dir` on an `n x n` grid.
    pub(crate) fn new(dir: Direction, n: usize) -> Frame {
        Frame { dir, n }
    }

    /// Canonical cell `(u, v)` to real cell `(i, j)`.
    #[inline]
    pub(crate) fn map(self, u: usize, v: usize) -> (usize, usize) {
        match self.dir {
            Direction::Down => (u, v),
            Direction::Up => (self.n - 1 - u, v),
            Direction::Right => (v, u),
            Direction::Left => (v, self.n - 1 - u),
        }
    }

    /// The real line holding canonical row `u`.
    #[inline]
    pub(crate) fn row_line(self, u: usize) -> (usize, Axis) {
        match self.dir {
            Direction::Down => (u, Axis::Row),
            Direction::Up => (self.n - 1 - u, Axis::Row),
            Direction::Right => (u, Axis::Col),
            Direction::Left => (self.n - 1 - u, Axis::Col),
        }
    }

    /// The real line holding canonical column `v`. Within-line indices are
    /// never flipped, so the line index is always `v` itself.
    #[inline]
    pub(crate) fn col_line(self, v: usize) -> (usize, Axis) {
        match self.dir {
            Direction::Down | Direction::Up => (v, Axis::Col),
            Direction::Right | Direction::Left => (v, Axis::Row),
        }
    }

    /// Elements of owner `p` in a real line of `grid`.
    #[inline]
    pub(crate) fn count(self, grid: &NPartition, p: u8, (line, axis): (usize, Axis)) -> u32 {
        match axis {
            Axis::Row => grid.row_count(p, line),
            Axis::Col => grid.col_count(p, line),
        }
    }

    /// `p`'s enclosing rectangle in `grid`, as canonical `(top, bottom,
    /// left, right)`.
    pub(crate) fn rect(self, grid: &NPartition, p: u8) -> Option<(usize, usize, usize, usize)> {
        let r = grid.enclosing_rect(p)?;
        let n = self.n;
        Some(match self.dir {
            Direction::Down => (r.top, r.bottom, r.left, r.right),
            Direction::Up => (n - 1 - r.bottom, n - 1 - r.top, r.left, r.right),
            Direction::Right => (r.left, r.right, r.top, r.bottom),
            Direction::Left => (n - 1 - r.right, n - 1 - r.left, r.top, r.bottom),
        })
    }

    /// Word `w` of `p`'s canonical-row-`u` plane line in `grid`, verbatim
    /// from the row or column planes (fact 2 of the module docs).
    #[inline]
    pub(crate) fn line_word(self, grid: &NPartition, p: u8, u: usize, w: usize) -> u64 {
        match self.row_line(u) {
            (i, Axis::Row) => grid.row_plane_word(p, i, w),
            (j, Axis::Col) => grid.col_plane_word(p, j, w),
        }
    }
}

/// A mutable, direction-canonicalized window onto a grid. The push kernel
/// sees it through the same traits as the read-only probe overlay.
pub(crate) struct View<'a> {
    part: &'a mut NPartition,
    frame: Frame,
}

impl<'a> View<'a> {
    /// Wrap `part` so that pushing in `dir` looks like a canonical Push↓.
    pub(crate) fn new(part: &'a mut NPartition, dir: Direction) -> View<'a> {
        let frame = Frame::new(dir, part.n());
        View { part, frame }
    }
}

impl LineGrid for View<'_> {
    #[inline]
    fn row_count(&self, p: u8, u: usize) -> u32 {
        self.frame.count(self.part, p, self.frame.row_line(u))
    }

    #[inline]
    fn col_count(&self, p: u8, v: usize) -> u32 {
        self.frame.count(self.part, p, self.frame.col_line(v))
    }

    fn enclosing_rect(&self, p: u8) -> Option<(usize, usize, usize, usize)> {
        self.frame.rect(self.part, p)
    }

    #[inline]
    fn line_word(&self, p: u8, u: usize, w: usize) -> u64 {
        self.frame.line_word(self.part, p, u, w)
    }
}

impl PushGrid for View<'_> {
    #[inline]
    fn get(&self, u: usize, v: usize) -> u8 {
        let (i, j) = self.frame.map(u, v);
        self.part.get(i, j)
    }

    #[inline]
    fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        self.part
            .swap(self.frame.map(a.0, a.1), self.frame.map(b.0, b.1));
    }

    #[inline]
    fn voc_units(&self) -> u64 {
        self.part.voc_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{Partition, PartitionBuilder, Proc, Rect};

    fn sample() -> Partition {
        // 5x5, R at (1,2), S block rows 3..=4 cols 0..=1.
        PartitionBuilder::new(5)
            .rect(Rect::new(1, 1, 2, 2), Proc::R)
            .rect(Rect::new(3, 4, 0, 1), Proc::S)
            .build()
    }

    const R: u8 = Proc::R as u8;
    const S: u8 = Proc::S as u8;

    #[test]
    fn map_roundtrips_ownership() {
        for dir in Direction::ALL {
            let frame = Frame::new(dir, 5);
            // Every canonical cell maps to exactly one real cell.
            let mut seen = std::collections::HashSet::new();
            for u in 0..5 {
                for v in 0..5 {
                    assert!(seen.insert(frame.map(u, v)), "duplicate mapping {dir:?}");
                }
            }
        }
    }

    #[test]
    fn down_view_is_identity() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Down);
        assert_eq!(view.get(1, 2), R);
        assert_eq!(view.enclosing_rect(S), Some((3, 4, 0, 1)));
        assert!(view.row_has(R, 1));
        assert!(view.col_has(R, 2));
    }

    #[test]
    fn up_view_flips_rows() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Up);
        // Real row 1 is canonical row 3 when n = 5.
        assert_eq!(view.get(3, 2), R);
        // S rows 3..=4 become canonical rows 0..=1.
        assert_eq!(view.enclosing_rect(S), Some((0, 1, 0, 1)));
    }

    #[test]
    fn right_view_transposes() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Right);
        // Real (1, 2) appears at canonical (2, 1).
        assert_eq!(view.get(2, 1), R);
        // S real rows 3..=4 / cols 0..=1 -> canonical rows 0..=1 / cols 3..=4.
        assert_eq!(view.enclosing_rect(S), Some((0, 1, 3, 4)));
        assert!(view.row_has(S, 0)); // real col 0 has S
        assert!(view.col_has(S, 3)); // real row 3 has S
    }

    #[test]
    fn left_view_flips_cols_and_transposes() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Left);
        // Real (1, 2): canonical u = n-1-j = 2, v = i = 1.
        assert_eq!(view.get(2, 1), R);
        // S cols 0..=1 -> canonical rows 3..=4; S rows 3..=4 -> canonical cols 3..=4.
        assert_eq!(view.enclosing_rect(S), Some((3, 4, 3, 4)));
    }

    #[test]
    fn swap_acts_on_real_grid() {
        let mut part = sample();
        {
            let mut view = View::new(part.grid_mut(), Direction::Right);
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
        let view = View::new(part.grid_mut(), Direction::Left);
        // Canonical row u counts = real column n-1-u counts.
        assert_eq!(view.row_count(S, 4), 2); // real col 0
        assert_eq!(view.row_count(S, 3), 2); // real col 1
        assert_eq!(view.col_count(S, 3), 2); // real row 3
    }
}
