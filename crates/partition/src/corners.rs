//! Corner counting over the plane store, a plane word at a time.
//!
//! A *corner* of an owner's region is a vertex of the orthogonal polygon
//! that bounds it (the paper's Section VIII-A). The classic way to count
//! them slides a 2×2 window over the grid, padded with a border of
//! "outside": a window holding an odd number of the owner's cells (1 or
//! 3) is one vertex, and a window holding exactly the two cells of one
//! diagonal is two. That is exact for any region, holed or disconnected.
//!
//! Both tests are bitwise over two adjacent rows `u` (above) and `l`
//! (below). With `x = u ^ l`, the window whose right column is `t` has odd
//! parity iff `x[t] ^ x[t - 1]`, so the odd windows of the row pair are
//! the set bits of `x ^ (x << 1)`. Its diagonal windows are the set bits
//! of `(u << 1) & l & !u & !(l << 1)` and `u & (l << 1) & !(u << 1) & !l`.
//! The shifts carry bit 63 of each word into bit 0 of the next, and one
//! word past the line's last takes the final carry, so a window whose
//! right column is the padding column `n` is counted too.

use crate::grid::NPartition;

impl NPartition {
    /// Number of boundary vertices ("corners") of owner `p`'s region: 0
    /// for an empty region, at least 4 otherwise.
    ///
    /// Word-wise over the row planes of the owner's enclosing rectangle
    /// and the padding row and word around it: `(h + 1) × (w + 1)` word
    /// steps for a rectangle of `h` rows and `w` plane words, instead of
    /// four cell reads per window of the whole padded grid.
    pub fn corner_count(&self, p: u8) -> usize {
        let Some(rect) = self.enclosing_rect(p) else {
            return 0;
        };
        // Words left of `w_lo` hold no cell of `p`, so the carries into it
        // are zero; the word after `w_hi` takes the carries out of it.
        let (w_lo, w_hi) = (rect.left / 64, rect.right / 64 + 1);
        let word = |i: Option<usize>, w: usize| match i {
            Some(i) if i < self.n() && w < self.words_per_line() => self.row_plane_word(p, i, w),
            _ => 0,
        };
        let mut corners = 0u32;
        // Row pairs (i - 1, i), for i from the rectangle's top to one past
        // its bottom; rows -1 and n are outside.
        for i in rect.top..=rect.bottom + 1 {
            let (upper, lower) = (i.checked_sub(1), Some(i));
            let (mut cx, mut cu, mut cl) = (0u64, 0u64, 0u64);
            for w in w_lo..=w_hi {
                let (u, l) = (word(upper, w), word(lower, w));
                let x = u ^ l;
                let (xs, us, ls) = (x << 1 | cx, u << 1 | cu, l << 1 | cl);
                (cx, cu, cl) = (x >> 63, u >> 63, l >> 63);
                let diagonal = (us & l & !u & !ls) | (u & ls & !us & !l);
                corners += (x ^ xs).count_ones() + 2 * diagonal.count_ones();
            }
        }
        corners as usize
    }
}
