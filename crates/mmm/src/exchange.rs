//! What one block message between two workers carries, and where its
//! values land.
//!
//! The executor runs the pivot steps in blocks. At the top of a block each
//! worker sends each peer one message with, for every step `k` of the
//! block in turn, A's column-`k` values in the rows of the sender's
//! column-`k` plane that the receiver occupies, then B's row-`k` values in
//! the columns of the sender's row-`k` plane that the receiver occupies,
//! each in bit order. Those are exactly the values the receiver's C cells
//! need and the sender owns, so a block's messages sum to the partition's
//! pairwise volumes over its steps. Both ends walk the same plane words of
//! the attempt's partition ([`Exchange::walk`]), so the message carries
//! values only, 8 bytes each.

use crate::matrix::Matrix;
use hetmmm_partition::{Partition, Proc};
use std::ops::Range;

/// One block's message: the block's first pivot step, then its values in
/// [`Exchange::walk`] order. The step tag lets a receiver detect a lost
/// message immediately (the next message arrives out of step) instead of
/// silently consuming shifted values.
pub(crate) type BlockMessage = (usize, Vec<f64>);

/// One value of a block: `A[i,k]` or `B[k,j]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pivot {
    A { i: usize, k: usize },
    B { k: usize, j: usize },
}

impl Pivot {
    /// The value in the operands.
    pub(crate) fn read(self, a: &Matrix, b: &Matrix) -> f64 {
        match self {
            Pivot::A { i, k } => a.get(i, k),
            Pivot::B { k, j } => b.get(k, j),
        }
    }
}

/// The values worker `from` sends worker `to`. With `from == to`, all of
/// `from`'s own values.
#[derive(Clone, Copy)]
pub(crate) struct Exchange<'a> {
    part: &'a Partition,
    from: Proc,
    to: Proc,
}

impl<'a> Exchange<'a> {
    pub(crate) fn new(part: &'a Partition, from: Proc, to: Proc) -> Exchange<'a> {
        Exchange { part, from, to }
    }

    /// Word `w` of the rows whose `A[i,k]` moves.
    fn a_word(self, k: usize, w: usize) -> u64 {
        self.part.col_plane_word(self.from, k, w) & self.part.occupied_rows_word(self.to, w)
    }

    /// Word `w` of the columns whose `B[k,j]` moves.
    fn b_word(self, k: usize, w: usize) -> u64 {
        self.part.row_plane_word(self.from, k, w) & self.part.occupied_cols_word(self.to, w)
    }

    /// Call `f` with every value of `steps`, in message order.
    pub(crate) fn walk(self, steps: Range<usize>, mut f: impl FnMut(Pivot)) {
        let words = self.part.words_per_line();
        for k in steps {
            for_each_bit(words, |w| self.a_word(k, w), |i| f(Pivot::A { i, k }));
            for_each_bit(words, |w| self.b_word(k, w), |j| f(Pivot::B { k, j }));
        }
    }

    /// How many values `steps` carry: one popcount per plane word.
    pub(crate) fn count(self, steps: Range<usize>) -> usize {
        let words = self.part.words_per_line();
        steps
            .flat_map(|k| (0..words).map(move |w| (k, w)))
            .map(|(k, w)| {
                (self.a_word(k, w).count_ones() + self.b_word(k, w).count_ones()) as usize
            })
            .sum()
    }
}

/// Call `f` with the index of every set bit of `word(0..words)`, ascending:
/// bit `b` of word `w` is index `w * 64 + b`.
fn for_each_bit(words: usize, word: impl Fn(usize) -> u64, mut f: impl FnMut(usize)) {
    for w in 0..words {
        let mut m = word(w);
        while m != 0 {
            f(w * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// One worker's pivot values for the current block: step `k0 + s`'s column
/// of A and row of B, `n` values each, at `s * n`.
pub(crate) struct Block {
    n: usize,
    k0: usize,
    a_cols: Vec<f64>,
    b_rows: Vec<f64>,
}

impl Block {
    /// Room for blocks of up to `steps` steps of an `n x n` multiply.
    pub(crate) fn new(n: usize, steps: usize) -> Block {
        Block {
            n,
            k0: 0,
            a_cols: vec![0.0; steps * n],
            b_rows: vec![0.0; steps * n],
        }
    }

    /// Begin the block that starts at step `k0`.
    pub(crate) fn start(&mut self, k0: usize) {
        self.k0 = k0;
    }

    /// Where `p` goes.
    pub(crate) fn slot(&mut self, p: Pivot) -> &mut f64 {
        match p {
            Pivot::A { i, k } => &mut self.a_cols[(k - self.k0) * self.n + i],
            Pivot::B { k, j } => &mut self.b_rows[(k - self.k0) * self.n + j],
        }
    }

    /// Step `k`'s column of A and row of B.
    pub(crate) fn step(&self, k: usize) -> (&[f64], &[f64]) {
        let line = (k - self.k0) * self.n..(k - self.k0 + 1) * self.n;
        (&self.a_cols[line.clone()], &self.b_rows[line])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{pairwise_volumes, random_partition, Ratio};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A per-cell reading of the message layout: at each step, the rows
    /// `i` where `from` owns `(i, k)` and `to` owns a cell of row `i`, then
    /// the columns `j` where `from` owns `(k, j)` and `to` owns a cell of
    /// column `j`, each ascending.
    fn per_cell(part: &Partition, from: Proc, to: Proc, steps: Range<usize>) -> Vec<Pivot> {
        let n = part.n();
        let mut pivots = Vec::new();
        for k in steps {
            let rows = (0..n).filter(|&i| part.get(i, k) == from && part.row_has(to, i));
            pivots.extend(rows.map(|i| Pivot::A { i, k }));
            let cols = (0..n).filter(|&j| part.get(k, j) == from && part.col_has(to, j));
            pivots.extend(cols.map(|j| Pivot::B { k, j }));
        }
        pivots
    }

    #[test]
    fn walk_and_count_match_the_per_cell_layout_and_the_volumes() {
        let mut rng = StdRng::seed_from_u64(26);
        for n in [1, 5, 63, 64, 65, 130] {
            let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
            let volumes = pairwise_volumes(&part);
            for from in Proc::ALL {
                for to in Proc::ALL {
                    let ex = Exchange::new(&part, from, to);
                    let mut total = 0;
                    for steps in [0..n, 0..n / 2, n / 2..n, n - 1..n] {
                        let mut walked = Vec::new();
                        ex.walk(steps.clone(), |p| walked.push(p));
                        let expect = per_cell(&part, from, to, steps.clone());
                        assert_eq!(walked, expect, "N = {n}, {from} → {to}, {steps:?}");
                        assert_eq!(ex.count(steps), expect.len(), "N = {n}, {from} → {to}");
                    }
                    ex.walk(0..n, |_| total += 1);
                    if from != to {
                        assert_eq!(
                            total,
                            volumes[from.idx()][to.idx()],
                            "N = {n}, {from} → {to}"
                        );
                    } else {
                        // Every owned A and B element, once each.
                        assert_eq!(total, 2 * part.elems(from) as u64, "N = {n}, {from}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_block_places_each_step_at_its_line() {
        let (n, k0) = (3, 5);
        let mut block = Block::new(n, 2);
        block.start(k0);
        *block.slot(Pivot::A { i: 2, k: 6 }) = 1.0;
        *block.slot(Pivot::B { k: 5, j: 0 }) = 2.0;
        assert_eq!(block.step(5), (&[0.0; 3][..], &[2.0, 0.0, 0.0][..]));
        assert_eq!(block.step(6), (&[0.0, 0.0, 1.0][..], &[0.0; 3][..]));
    }
}
