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
//!    line, bit for bit ([`LineGrid::line_word`]), and so is the line's
//!    nonzero-word summary ([`LineGrid::nonzero_words`]).
//!
//! The push kernel (phase 1, both rule layers' phase 2, phase 3 and its
//! undo) works through one [`View`]: a [`Frame`] over a mutable grid.

use crate::op::Direction;
use crate::targets::LineGrid;
use hetmmm_partition::NPartition;

/// Which real axis a canonical line maps to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Axis {
    /// A real row: row counts and the row-major bit-plane.
    Row,
    /// A real column: column counts and the transposed bit-plane.
    Col,
}

/// The canonical frame of a push direction on an `n x n` grid (the table
/// in the [module documentation](self)).
#[derive(Clone, Copy, Debug)]
struct Frame {
    dir: Direction,
    n: usize,
}

impl Frame {
    /// The frame of pushing in `dir` on an `n x n` grid.
    fn new(dir: Direction, n: usize) -> Frame {
        Frame { dir, n }
    }

    /// Canonical cell `(u, v)` to real cell `(i, j)`.
    #[inline]
    fn map(self, u: usize, v: usize) -> (usize, usize) {
        match self.dir {
            Direction::Down => (u, v),
            Direction::Up => (self.n - 1 - u, v),
            Direction::Right => (v, u),
            Direction::Left => (v, self.n - 1 - u),
        }
    }

    /// The real line holding canonical row `u`.
    #[inline]
    fn row_line(self, u: usize) -> (usize, Axis) {
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
    fn col_line(self, v: usize) -> (usize, Axis) {
        match self.dir {
            Direction::Down | Direction::Up => (v, Axis::Col),
            Direction::Right | Direction::Left => (v, Axis::Row),
        }
    }
}

/// A mutable, direction-canonicalized window onto a grid: the push kernel
/// reads and swaps canonical cells through it.
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

    /// Elements of owner `p` in a real line.
    #[inline]
    fn count(&self, p: u8, (line, axis): (usize, Axis)) -> u32 {
        match axis {
            Axis::Row => self.part.row_count(p, line),
            Axis::Col => self.part.col_count(p, line),
        }
    }

    /// Owner of canonical cell `(u, v)`.
    #[inline]
    pub(crate) fn get(&self, u: usize, v: usize) -> u8 {
        let (i, j) = self.frame.map(u, v);
        self.part.get(i, j)
    }

    /// Swap canonical cells `a` and `b`, which belong to `pa` and `pb`,
    /// without reading either. A no-op if the owners match.
    #[inline]
    pub(crate) fn swap_owned(&mut self, a: (usize, usize), pa: u8, b: (usize, usize), pb: u8) {
        self.part
            .swap_owned(self.frame.map(a.0, a.1), pa, self.frame.map(b.0, b.1), pb);
    }

    /// Swap two canonical cells, reading their owners first.
    #[cfg(test)]
    fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        let (pa, pb) = (self.get(a.0, a.1), self.get(b.0, b.1));
        self.swap_owned(a, pa, b, pb);
    }

    /// VoC line units of the underlying grid.
    #[inline]
    pub(crate) fn voc_units(&self) -> u64 {
        self.part.voc_units()
    }
}

impl LineGrid for View<'_> {
    #[inline]
    fn row_count(&self, p: u8, u: usize) -> u32 {
        self.count(p, self.frame.row_line(u))
    }

    #[inline]
    fn col_count(&self, p: u8, v: usize) -> u32 {
        self.count(p, self.frame.col_line(v))
    }

    fn enclosing_rect(&self, p: u8) -> Option<(usize, usize, usize, usize)> {
        let r = self.part.enclosing_rect(p)?;
        let n = self.frame.n;
        Some(match self.frame.dir {
            Direction::Down => (r.top, r.bottom, r.left, r.right),
            Direction::Up => (n - 1 - r.bottom, n - 1 - r.top, r.left, r.right),
            Direction::Right => (r.left, r.right, r.top, r.bottom),
            Direction::Left => (n - 1 - r.right, n - 1 - r.left, r.top, r.bottom),
        })
    }

    /// Verbatim from the row or column planes (fact 2 of the module docs).
    #[inline]
    fn line_word(&self, p: u8, u: usize, w: usize) -> u64 {
        match self.frame.row_line(u) {
            (i, Axis::Row) => self.part.row_plane_word(p, i, w),
            (j, Axis::Col) => self.part.col_plane_word(p, j, w),
        }
    }

    #[inline]
    fn nonzero_words(&self, p: u8, u: usize, w: usize) -> u64 {
        match self.frame.row_line(u) {
            (i, Axis::Row) => self.part.row_nonzero_words(p, i, w),
            (j, Axis::Col) => self.part.col_nonzero_words(p, j, w),
        }
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
