//! The partition grid: `q(i, j) -> owner` with incremental accounting.
//!
//! [`NPartition`] is the one plane store of the workspace: an `n x n`
//! matrix split among `k` owners `0..k`. [`Partition`] is its
//! three-processor form, with owner id [`Proc::q`] (`R = 0`, `S = 1`,
//! `P = 2`). The assignment is stored as per-owner **bit-planes** — one
//! `u64` mask word per 64 columns per row, and a transposed copy per
//! column — so that:
//!
//! - occupancy counts ([`NPartition::rows_occupied`]) are `popcount` over
//!   a single occupied-line mask,
//! - enclosing-rectangle shrink scans are word-wise sweeps
//!   (`trailing_zeros` / `leading_zeros` over the occupied-line masks)
//!   instead of per-line count walks,
//! - the Push engine can sweep a whole canonical line 64 cells at a time
//!   via [`NPartition::row_plane_word`] / [`NPartition::col_plane_word`],
//!   and skip a line's empty words by its nonzero-word summary
//!   ([`NPartition::row_nonzero_words`] / [`NPartition::col_nonzero_words`]).
//!
//! Besides the raw planes it maintains, under every mutation:
//!
//! - per-owner element counts of every row and every column,
//! - the paper's `c_i` / `c_j` — how many *distinct* owners hold
//!   elements in each line,
//! - `voc_units`: `Σ_i (c_i - 1) + Σ_j (c_j - 1)`, so that the paper's
//!   Eq. 1 volume of communication is `N * voc_units`,
//! - the element count `∈X` of each owner and its enclosing rectangle.
//!
//! All of these update in `O(1)` per [`NPartition::set`] (the shrink
//! sweep is amortized by the word width), which is what lets the Push
//! engine evaluate the legality (ΔVoC) of a candidate push cheaply and
//! roll it back if illegal. [`NPartition::fill_rect`] updates them a plane
//! word at a time: its cost grows with the rectangle's lines and words,
//! not its cells.
//!
//! The Zobrist state hash is computed from the row planes on the first
//! [`NPartition::state_hash`] read and maintained by every mutation after
//! that; a grid whose hash is never read (a candidate shape, a random
//! start before its search) never pays for it.
//!
//! ## Word layout
//!
//! For a plane line of `n` bits, `words_per_line = ceil(n / 64)`. Planes
//! are flat and owner-major: bit `v` of owner `p`'s line `u` lives in word
//! `(p * n + u) * words_per_line + v / 64` at bit position `v % 64`
//! (LSB-first). The tail word of each line keeps its unused high bits at
//! zero — [`NPartition::set`] never touches them — so popcounts and word
//! sweeps need no per-call tail masking.
//!
//! Beside the planes, each orientation keeps one summary bit per plane
//! word, set iff the word is nonzero: bit `at % 64` of summary word
//! `at / 64` for plane word `at`. The summary is packed across lines, so
//! it costs 1/64 of the planes, and one line's summary may straddle two
//! summary words. Like the state hash it is computed on the first read
//! and maintained by every mutation after that, so a grid that never
//! runs phase 1 of a push (a candidate shape, a random start before its
//! search) never pays for it.

use crate::bits::{full_line, next_occupied, prev_occupied};
use crate::proc_::Proc;
use crate::rect::Rect;
use hetmmm_obs as obs;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Incrementally maintained bounding box of one owner's cells (inclusive
/// on all four sides).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
struct Bounds {
    top: usize,
    bottom: usize,
    left: usize,
    right: usize,
}

impl Bounds {
    /// Canonical "no elements" value; recognizable by `top > bottom`, and
    /// chosen so that [`Bounds::expand`] from empty yields the single-cell
    /// box directly.
    const EMPTY: Bounds = Bounds {
        top: usize::MAX,
        bottom: 0,
        left: usize::MAX,
        right: 0,
    };

    #[inline]
    fn expand(&mut self, i: usize, j: usize) {
        self.top = self.top.min(i);
        self.bottom = self.bottom.max(i);
        self.left = self.left.min(j);
        self.right = self.right.max(j);
    }

    /// This (still nonempty) owner just lost cells: move in every edge
    /// whose line no longer holds any of them, sweeping the occupied-line
    /// masks `rows` and `cols` inward word by word. Never passes the
    /// opposite edge, since some line stays occupied. Returns the words
    /// examined.
    fn shrink(&mut self, rows: &[u64], cols: &[u64]) -> u64 {
        let occupied = |mask: &[u64], u: usize| (mask[u / 64] >> (u % 64)) & 1 == 1;
        let mut scans = 0;
        if !occupied(rows, self.top) {
            let (top, s) = next_occupied(rows, self.top);
            self.top = top;
            scans += s;
        }
        if !occupied(rows, self.bottom) {
            let (bottom, s) = prev_occupied(rows, self.bottom);
            self.bottom = bottom;
            scans += s;
        }
        if !occupied(cols, self.left) {
            let (left, s) = next_occupied(cols, self.left);
            self.left = left;
            scans += s;
        }
        if !occupied(cols, self.right) {
            let (right, s) = prev_occupied(cols, self.right);
            self.right = right;
            scans += s;
        }
        scans
    }
}

/// The Zobrist state hash: XOR of `mix64(idx * k + p)` over every cell
/// (row-major `idx`) and its owner `p`. Empty until the first
/// [`NPartition::state_hash`] read, which computes it from the row planes;
/// every mutation after that updates it incrementally. A `OnceLock`, not a
/// `Cell`, so that `NPartition` stays `Sync`.
///
/// It takes no part in equality (equal planes give equal hashes) and
/// serializes as `Option<u64>`: `null` while unread.
#[derive(Clone, Debug, Default)]
struct Zobrist(OnceLock<u64>);

impl PartialEq for Zobrist {
    fn eq(&self, _: &Zobrist) -> bool {
        true
    }
}

impl Eq for Zobrist {}

impl Serialize for Zobrist {
    fn to_value(&self) -> serde::Value {
        self.0.get().copied().to_value()
    }
}

impl Deserialize for Zobrist {
    fn from_value(v: &serde::Value) -> Result<Zobrist, serde::DeError> {
        let hash = Option::<u64>::from_value(v)?;
        Ok(Zobrist(hash.map_or_else(OnceLock::new, OnceLock::from)))
    }
}

/// The nonzero-word summary of one orientation's planes (see [`Lines`]):
/// empty until the first read, which computes it from the planes; every
/// mutation after that keeps it current. Like [`Zobrist`], it takes no
/// part in equality (equal planes give equal summaries) and serializes as
/// `null`.
#[derive(Clone, Debug, Default)]
struct Summary(OnceLock<Vec<u64>>);

impl PartialEq for Summary {
    fn eq(&self, _: &Summary) -> bool {
        true
    }
}

impl Eq for Summary {}

impl Serialize for Summary {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for Summary {
    fn from_value(_: &serde::Value) -> Result<Summary, serde::DeError> {
        Ok(Summary::default())
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixer used to derive the
/// per-(cell, owner) Zobrist keys without storing a table.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One orientation of the grid — the row lines, or the column lines of
/// the transposed copy — with its derived per-line state.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
struct Lines {
    /// Bit `v % 64` of word `(p * n + u) * words + v / 64` is set iff cell
    /// `v` of line `u` belongs to owner `p`.
    bits: Vec<u64>,
    /// Bit `at % 64` of word `at / 64` is set iff plane word `bits[at]` is
    /// nonzero, once first read.
    nonzero: Summary,
    /// Bit `u % 64` of word `p * words + u / 64` is set iff line `u` holds
    /// any cell of owner `p`.
    occ: Vec<u64>,
    /// `count[p * n + u]`: cells of owner `p` in line `u`.
    count: Vec<u32>,
    /// `c_u`: distinct owners in line `u`.
    procs: Vec<u8>,
}

impl Lines {
    /// Every cell owned by `fill`.
    fn filled(n: usize, k: usize, words: usize, fill: usize) -> Lines {
        let line = full_line(n);
        let mut bits = vec![0u64; k * n * words];
        for u in 0..n {
            let at = (fill * n + u) * words;
            bits[at..at + words].copy_from_slice(&line);
        }
        let mut occ = vec![0u64; k * words];
        occ[fill * words..(fill + 1) * words].copy_from_slice(&line);
        let mut count = vec![0u32; k * n];
        count[fill * n..(fill + 1) * n].fill(n as u32);
        Lines {
            nonzero: Summary::default(),
            bits,
            occ,
            count,
            procs: vec![1; n],
        }
    }

    /// Plane word `at` just gained bits: mark it nonzero in the summary.
    #[inline(always)]
    fn word_gained(&mut self, at: usize) {
        if let Some(nonzero) = self.nonzero.0.get_mut() {
            nonzero[at / 64] |= 1u64 << (at % 64);
        }
    }

    /// Plane word `at` just lost bits: clear its summary bit if it emptied.
    #[inline(always)]
    fn word_lost(&mut self, at: usize) {
        if let Some(nonzero) = self.nonzero.0.get_mut() {
            if self.bits[at] == 0 {
                nonzero[at / 64] &= !(1u64 << (at % 64));
            }
        }
    }

    /// Bit `b` is set iff word `w + b` of owner `p`'s line `u` is nonzero,
    /// for the (at most 64) words of the line from `w` on; higher bits are
    /// zero.
    #[inline]
    fn nonzero_words(&self, (n, words): (usize, usize), p: usize, u: usize, w: usize) -> u64 {
        let nonzero = self.nonzero.0.get_or_init(|| summarize(&self.bits));
        let at = (p * n + u) * words + w;
        let (i, shift, left) = (at / 64, at % 64, (words - w).min(64));
        let mut m = nonzero[i] >> shift;
        if shift + left > 64 {
            m |= nonzero[i + 1] << (64 - shift);
        }
        if left < 64 {
            m &= (1u64 << left) - 1;
        }
        m
    }

    /// Move cell `v` of line `u` from owner `old` to owner `new`, updating
    /// `voc_units` by the line's `c_u` transitions. The gaining owner's
    /// line opens before the losing owner's closes, so `voc_units` never
    /// dips below zero (at `n = 1` it is 0 on entry). Returns whether the
    /// line emptied of `old`.
    #[inline(always)]
    fn reassign(
        &mut self,
        (n, words): (usize, usize),
        u: usize,
        v: usize,
        old: usize,
        new: usize,
        voc_units: &mut u64,
    ) -> bool {
        let bit = 1u64 << (v % 64);
        let (from, to) = (
            (old * n + u) * words + v / 64,
            (new * n + u) * words + v / 64,
        );
        self.bits[from] &= !bit;
        self.bits[to] |= bit;
        self.word_lost(from);
        self.word_gained(to);
        let occ_bit = 1u64 << (u % 64);
        let gained = &mut self.count[new * n + u];
        if *gained == 0 {
            self.procs[u] += 1;
            *voc_units += 1;
            self.occ[new * words + u / 64] |= occ_bit;
        }
        *gained += 1;
        let lost = &mut self.count[old * n + u];
        *lost -= 1;
        let emptied = *lost == 0;
        if emptied {
            self.procs[u] -= 1;
            *voc_units -= 1;
            self.occ[old * words + u / 64] &= !occ_bit;
        }
        emptied
    }

    /// Give owner `p` cells `lo..=hi` of every line `first..=last`, a plane
    /// word at a time, with [`Lines::reassign`]'s per-line transitions: the
    /// gaining owner's line opens before any losing owner's closes. Calls
    /// `taken(o, u, w, bits)` for every nonzero word of cells that owner
    /// `o` gave up in line `u`, word `w`.
    fn fill(
        &mut self,
        (n, words): (usize, usize),
        (first, last): (usize, usize),
        (lo, hi): (usize, usize),
        p: usize,
        voc_units: &mut u64,
        mut taken: impl FnMut(usize, usize, usize, u64),
    ) {
        let k = self.occ.len() / words;
        let (w0, w1) = (lo / 64, hi / 64);
        let span = |w: usize| {
            let head = if w == w0 { !0u64 << (lo % 64) } else { !0 };
            let tail = if w == w1 { !0u64 >> (63 - hi % 64) } else { !0 };
            head & tail
        };
        for u in first..=last {
            let mut gained = 0u32;
            let mut emptied = 0u64;
            for o in (0..k).filter(|&o| o != p) {
                let mut lost = 0u32;
                for w in w0..=w1 {
                    let at = (o * n + u) * words + w;
                    let bits = self.bits[at] & span(w);
                    if bits != 0 {
                        let to = (p * n + u) * words + w;
                        self.bits[at] ^= bits;
                        self.bits[to] |= bits;
                        self.word_lost(at);
                        self.word_gained(to);
                        lost += bits.count_ones();
                        taken(o, u, w, bits);
                    }
                }
                if lost != 0 {
                    gained += lost;
                    let count = &mut self.count[o * n + u];
                    *count -= lost;
                    if *count == 0 {
                        emptied |= 1 << o;
                    }
                }
            }
            if gained == 0 {
                continue;
            }
            let occ_bit = 1u64 << (u % 64);
            let count = &mut self.count[p * n + u];
            if *count == 0 {
                self.procs[u] += 1;
                *voc_units += 1;
                self.occ[p * words + u / 64] |= occ_bit;
            }
            *count += gained;
            while emptied != 0 {
                let o = emptied.trailing_zeros() as usize;
                emptied &= emptied - 1;
                self.procs[u] -= 1;
                *voc_units -= 1;
                self.occ[o * words + u / 64] &= !occ_bit;
            }
        }
    }

    /// Owner `p`'s occupied-line mask.
    fn occ_of(&self, p: usize, words: usize) -> &[u64] {
        &self.occ[p * words..(p + 1) * words]
    }

    /// Lines holding any cell of owner `p`: a popcount over its
    /// occupied-line mask.
    fn occupied(&self, p: usize, words: usize) -> usize {
        let mask = self.occ_of(p, words);
        if obs::metrics_enabled() {
            obs::metrics()
                .counter(obs::metrics::names::GRID_POPCOUNT_WORDS)
                .add(mask.len() as u64);
        }
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The nonzero-word summary of `bits` (see [`Lines::nonzero`]).
fn summarize(bits: &[u64]) -> Vec<u64> {
    let mut nonzero = vec![0u64; bits.len().div_ceil(64)];
    for (at, &word) in bits.iter().enumerate() {
        nonzero[at / 64] |= u64::from(word != 0) << (at % 64);
    }
    nonzero
}

/// A partition of an `n x n` matrix among `k` owners `0..k`.
///
/// See the [module documentation](self) for the maintained invariants.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NPartition {
    n: usize,
    k: usize,
    /// `ceil(n / 64)`: `u64` words per plane line.
    words: usize,
    /// Row lines: bit `j % 64` of owner `p`'s row `i` word `j / 64`.
    rows: Lines,
    /// Column lines, the transpose: bit `i % 64` of owner `p`'s column
    /// `j` word `i / 64`.
    cols: Lines,
    /// `Σ_i (c_i - 1) + Σ_j (c_j - 1)`; `VoC = n * voc_units`.
    voc_units: u64,
    /// `∈p` per owner.
    elems: Vec<usize>,
    /// Zobrist-style state hash, computed on first read (see [`Zobrist`]).
    /// Lets the Push DFA detect revisited states (VoC-neutral cycles) in
    /// `O(1)`. The key schedule is independent of the plane storage, and at
    /// `k = 3` it is the three-processor schedule `mix64(idx * 3 + q)`.
    zobrist: Zobrist,
    /// Per-owner enclosing-rectangle bounds, maintained incrementally in
    /// [`NPartition::set`] and [`NPartition::fill_rect`], making
    /// [`NPartition::enclosing_rect`] an `O(1)` read. Canonical: exactly
    /// the bounding box while the owner holds any element, and
    /// [`Bounds::EMPTY`] otherwise, so the derived `Eq`/serde stay
    /// content-addressed regardless of mutation history.
    bounds: Vec<Bounds>,
}

impl NPartition {
    /// All cells assigned to owner 0 (the fastest), as in the paper's
    /// random start procedure.
    pub fn new(n: usize, k: usize) -> NPartition {
        NPartition::filled(n, k, 0)
    }

    /// All cells assigned to owner `fill`.
    pub fn filled(n: usize, k: usize, fill: u8) -> NPartition {
        assert!(n > 0, "matrix size must be positive");
        assert!((2..=64).contains(&k), "2..=64 processors supported");
        assert!(
            (fill as usize) < k,
            "fill owner {fill} out of range for k = {k}"
        );
        let words = n.div_ceil(64);
        let f = fill as usize;
        let rows = Lines::filled(n, k, words, f);
        let mut elems = vec![0usize; k];
        elems[f] = n * n;
        let mut bounds = vec![Bounds::EMPTY; k];
        bounds[f] = Bounds {
            top: 0,
            bottom: n - 1,
            left: 0,
            right: n - 1,
        };
        NPartition {
            n,
            k,
            words,
            cols: rows.clone(),
            rows,
            voc_units: 0,
            elems,
            zobrist: Zobrist::default(),
            bounds,
        }
    }

    /// Random start state: owner `p`'s element count is proportional to
    /// `weights[p]` (rounded down for owners `1..k`; owner 0 keeps the
    /// remainder), placed uniformly.
    pub fn random<R: Rng>(n: usize, weights: &[u32], rng: &mut R) -> NPartition {
        let k = weights.len();
        let mut part = NPartition::new(n, k);
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        // Row-major `u32` cell indices keep the shuffled buffer at 4 bytes
        // a cell; the shuffle's draws depend only on its length.
        assert!(n < 1 << 16, "flat cell indices must fit in u32");
        let mut cells: Vec<u32> = (0..(n * n) as u32).collect();
        cells.shuffle(rng);
        let mut cursor = 0usize;
        for (p, &w) in weights.iter().enumerate().skip(1) {
            let quota = ((n * n) as u64 * u64::from(w) / total) as usize;
            for &idx in cells.iter().skip(cursor).take(quota) {
                let idx = idx as usize;
                part.set(idx / n, idx % n, p as u8);
            }
            cursor += quota;
        }
        part
    }

    /// Matrix dimension `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of owners `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// `ceil(n / 64)`: how many `u64` words make up one plane line.
    #[inline]
    pub fn words_per_line(&self) -> usize {
        self.words
    }

    /// Word `w` of owner `p`'s row-plane line `i`: bit `b` is set iff
    /// `q(i, w * 64 + b) = p`.
    #[inline]
    pub fn row_plane_word(&self, p: u8, i: usize, w: usize) -> u64 {
        self.rows.bits[(p as usize * self.n + i) * self.words + w]
    }

    /// Word `w` of owner `p`'s column-plane line `j`: bit `b` is set iff
    /// `q(w * 64 + b, j) = p`.
    #[inline]
    pub fn col_plane_word(&self, p: u8, j: usize, w: usize) -> u64 {
        self.cols.bits[(p as usize * self.n + j) * self.words + w]
    }

    /// Which of owner `p`'s row-plane line `i` words from `w` on are
    /// nonzero, read from the summary: bit `b` is set iff word `w + b` of
    /// the line ([`NPartition::row_plane_word`]) is, for up to 64 words;
    /// bits past the line's last word are zero.
    #[inline]
    pub fn row_nonzero_words(&self, p: u8, i: usize, w: usize) -> u64 {
        self.rows
            .nonzero_words((self.n, self.words), p as usize, i, w)
    }

    /// [`NPartition::row_nonzero_words`] for owner `p`'s column-plane line
    /// `j`.
    #[inline]
    pub fn col_nonzero_words(&self, p: u8, j: usize, w: usize) -> u64 {
        self.cols
            .nonzero_words((self.n, self.words), p as usize, j, w)
    }

    /// Owner of cell `(i, j)`: a probe of the row planes in owner order.
    /// Every cell is owned exactly once, so a miss on the first `k - 1`
    /// planes means the last one.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u8 {
        debug_assert!(i < self.n && j < self.n);
        let (at, bit) = (i * self.words + j / 64, 1u64 << (j % 64));
        let stride = self.n * self.words;
        let mut owner = self.k - 1;
        for p in 0..self.k - 1 {
            if self.rows.bits[at + p * stride] & bit != 0 {
                owner = p;
            }
        }
        owner as u8
    }

    /// Reassign cell `(i, j)` to owner `p`, returning the previous owner.
    ///
    /// Updates every derived count in `O(1)` (plus an amortized word-wise
    /// boundary sweep when a boundary line of the losing owner empties).
    pub fn set(&mut self, i: usize, j: usize, p: u8) -> u8 {
        debug_assert!((p as usize) < self.k);
        let old = self.get(i, j);
        if old != p {
            self.move_cell(i, j, old, p);
        }
        old
    }

    /// Swap the owners of two cells. A no-op if they match.
    pub fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        let pa = self.get(a.0, a.1);
        let pb = self.get(b.0, b.1);
        self.swap_owned(a, pa, b, pb);
    }

    /// [`NPartition::swap`] for a caller that knows the owners: cell `a`
    /// belongs to `pa` and cell `b` to `pb`, and neither is read. A no-op
    /// if they match.
    pub fn swap_owned(&mut self, a: (usize, usize), pa: u8, b: (usize, usize), pb: u8) {
        debug_assert_eq!(self.get(a.0, a.1), pa, "owner of {a:?}");
        debug_assert_eq!(self.get(b.0, b.1), pb, "owner of {b:?}");
        if pa != pb {
            self.move_cell(a.0, a.1, pa, pb);
            self.move_cell(b.0, b.1, pb, pa);
        }
    }

    /// Move cell `(i, j)` from its owner `old` to owner `p != old`.
    /// Always inlined: `set` runs once per cell in every bulk fill.
    #[inline(always)]
    fn move_cell(&mut self, i: usize, j: usize, old: u8, p: u8) {
        let (o, q) = (old as usize, p as usize);
        let shape = (self.n, self.words);
        let row_emptied = self.rows.reassign(shape, i, j, o, q, &mut self.voc_units);
        let col_emptied = self.cols.reassign(shape, j, i, o, q, &mut self.voc_units);
        self.elems[o] -= 1;
        self.elems[q] += 1;
        if let Some(hash) = self.zobrist.0.get_mut() {
            let key = ((i * self.n + j) * self.k) as u64;
            *hash ^= mix64(key + u64::from(old)) ^ mix64(key + u64::from(p));
        }

        // Enclosing rectangles: the gaining owner expands in O(1); the
        // losing owner shrinks only when a line of its boundary emptied.
        self.bounds[q].expand(i, j);
        if self.elems[o] == 0 {
            self.bounds[o] = Bounds::EMPTY;
        } else if row_emptied || col_emptied {
            self.shrink_bounds(o);
        }
    }

    /// Move owner `o`'s bounds in past the lines it no longer occupies,
    /// counting the words examined in `grid.shrink.word_scans`.
    fn shrink_bounds(&mut self, o: usize) {
        let words = self.words;
        let scans = self.bounds[o].shrink(self.rows.occ_of(o, words), self.cols.occ_of(o, words));
        if scans != 0 && obs::metrics_enabled() {
            obs::metrics()
                .counter(obs::metrics::names::GRID_SHRINK_WORD_SCANS)
                .add(scans);
        }
    }

    /// `∈p`: the number of elements assigned to owner `p`.
    #[inline]
    pub fn elems(&self, p: u8) -> usize {
        self.elems[p as usize]
    }

    /// Elements of owner `p` in row `i`.
    #[inline]
    pub fn row_count(&self, p: u8, i: usize) -> u32 {
        self.rows.count[p as usize * self.n + i]
    }

    /// Elements of owner `p` in column `j`.
    #[inline]
    pub fn col_count(&self, p: u8, j: usize) -> u32 {
        self.cols.count[p as usize * self.n + j]
    }

    /// The paper's `row(q, i, X)` predicate: does row `i` contain any
    /// element of owner `p`? (Section VI-B.)
    #[inline]
    pub fn row_has(&self, p: u8, i: usize) -> bool {
        self.row_count(p, i) > 0
    }

    /// The paper's `col(q, j, X)` predicate.
    #[inline]
    pub fn col_has(&self, p: u8, j: usize) -> bool {
        self.col_count(p, j) > 0
    }

    /// `c_i`: number of distinct owners of elements in row `i`.
    #[inline]
    pub fn procs_in_row(&self, i: usize) -> u8 {
        self.rows.procs[i]
    }

    /// `c_j`: number of distinct owners of elements in column `j`.
    #[inline]
    pub fn procs_in_col(&self, j: usize) -> u8 {
        self.cols.procs[j]
    }

    /// `i_X`: the number of rows containing elements of owner `p` (used by
    /// the PCB model, Eq. 6). A popcount over the occupied-row mask:
    /// `ceil(n / 64)` words instead of `n` counter loads.
    pub fn rows_occupied(&self, p: u8) -> usize {
        let _span = obs::fine_span("partition.occupancy");
        self.rows.occupied(p as usize, self.words)
    }

    /// `j_X`: the number of columns containing elements of owner `p`.
    pub fn cols_occupied(&self, p: u8) -> usize {
        let _span = obs::fine_span("partition.occupancy");
        self.cols.occupied(p as usize, self.words)
    }

    /// `Σ_i (c_i - 1) + Σ_j (c_j - 1)`, the volume of communication in
    /// units of "lines": `VoC = N * voc_units()` (Eq. 1).
    #[inline]
    pub fn voc_units(&self) -> u64 {
        self.voc_units
    }

    /// The paper's Eq. 1 volume of communication, in elements.
    #[inline]
    pub fn voc(&self) -> u64 {
        self.n as u64 * self.voc_units
    }

    /// A 64-bit hash of the full assignment (Zobrist hashing). Equal
    /// partitions always hash equal; the DFA uses it to detect revisited
    /// states in VoC-neutral push cycles.
    ///
    /// The first read computes it from the row planes in `O(k N² / 64 +
    /// N²)`; every mutation after that keeps it current in `O(1)` per
    /// moved cell, so later reads are free.
    #[inline]
    pub fn state_hash(&self) -> u64 {
        *self.zobrist.0.get_or_init(|| self.hash_planes())
    }

    /// XOR of `mix64(idx * k + p)` over the set bits of every owner's row
    /// planes.
    fn hash_planes(&self) -> u64 {
        let (n, k, words) = (self.n, self.k, self.words);
        let mut hash = 0u64;
        for (at, &word) in self.rows.bits.iter().enumerate() {
            let (p, i, w) = (at / words / n, at / words % n, at % words);
            let mut m = word;
            while m != 0 {
                let j = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                hash ^= mix64(((i * n + j) * k + p) as u64);
            }
        }
        hash
    }

    /// The enclosing rectangle of owner `p` (Fig. 4), or `None` if it owns
    /// no elements. `O(1)` read of the incrementally maintained bounds.
    pub fn enclosing_rect(&self, p: u8) -> Option<Rect> {
        let _span = obs::fine_span("partition.enclosing_rect");
        let b = self.bounds[p as usize];
        if b.top > b.bottom {
            return None;
        }
        Some(Rect::new(b.top, b.bottom, b.left, b.right))
    }

    /// Iterate over the cells assigned to owner `p`, row-major (word-wise
    /// bit extraction, LSB first, so the order matches a per-cell scan
    /// exactly — seeded shuffles over this order are unchanged).
    pub fn cells_of(&self, p: u8) -> impl Iterator<Item = (usize, usize)> + '_ {
        let words = self.words;
        let plane = &self.rows.bits[p as usize * self.n * words..(p as usize + 1) * self.n * words];
        (0..self.n).flat_map(move |i| {
            (0..words).flat_map(move |w| {
                let mut m = plane[i * words + w];
                std::iter::from_fn(move || {
                    if m == 0 {
                        return None;
                    }
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    Some((i, w * 64 + b))
                })
            })
        })
    }

    /// Assign every cell of `rect` to owner `p`, a plane word at a time.
    ///
    /// Each row of the rect moves the other owners' bits of its column
    /// span into `p`'s plane, with [`NPartition::set`]'s `c_u`, occupancy
    /// and `voc_units` transitions; each column then does the same over
    /// the row span. Element counts come from the moved words' popcounts,
    /// `p`'s bounds grow to cover the rect, and each losing owner's edges
    /// move in past the lines it emptied. If the state hash has been read,
    /// the moved cells' key deltas are XORed in.
    pub fn fill_rect(&mut self, rect: Rect, p: u8) {
        assert!(
            rect.bottom < self.n && rect.right < self.n,
            "rect out of bounds"
        );
        debug_assert!((p as usize) < self.k);
        let (n, k, q) = (self.n, self.k, p as usize);
        let shape = (n, self.words);
        let NPartition {
            rows,
            cols,
            voc_units,
            elems,
            zobrist,
            ..
        } = self;
        let mut hash = zobrist.0.get_mut();
        let row_span = (rect.top, rect.bottom);
        let col_span = (rect.left, rect.right);
        rows.fill(shape, row_span, col_span, q, voc_units, |o, i, w, bits| {
            elems[o] -= bits.count_ones() as usize;
            elems[q] += bits.count_ones() as usize;
            if let Some(hash) = hash.as_deref_mut() {
                let mut m = bits;
                while m != 0 {
                    let key = ((i * n + w * 64 + m.trailing_zeros() as usize) * k) as u64;
                    m &= m - 1;
                    *hash ^= mix64(key + o as u64) ^ mix64(key + q as u64);
                }
            }
        });
        cols.fill(shape, col_span, row_span, q, voc_units, |_, _, _, _| {});
        self.bounds[q].expand(rect.top, rect.left);
        self.bounds[q].expand(rect.bottom, rect.right);
        // An owner that lost nothing keeps its bounds: empty, or with all
        // four edge lines still occupied.
        for o in (0..k).filter(|&o| o != q) {
            if self.elems[o] == 0 {
                self.bounds[o] = Bounds::EMPTY;
            } else {
                self.shrink_bounds(o);
            }
        }
    }

    /// The per-cell fill [`NPartition::fill_rect`] replaced: the oracle
    /// the word-wise fill is tested against.
    #[cfg(test)]
    fn fill_rect_reference(&mut self, rect: Rect, p: u8) {
        for (i, j) in rect.cells() {
            self.set(i, j, p);
        }
    }

    /// Does owner `p` exactly fill its enclosing rectangle? (A
    /// *rectangular* owner in the strict sense.)
    pub fn is_exact_rect(&self, p: u8) -> bool {
        match self.enclosing_rect(p) {
            None => false,
            Some(rect) => rect.area() == self.elems(p),
        }
    }

    /// Fully recompute every derived count from the raw bit-planes and
    /// panic on any mismatch, including plane mutual-exclusion/coverage,
    /// the transposed column planes, occupied-line masks, the
    /// nonzero-word summaries, and tail-bit hygiene. Test/debug aid;
    /// `O(k N²)`.
    pub fn assert_invariants(&self) {
        let (n, k, words) = (self.n, self.k, self.words);
        assert_eq!(words, n.div_ceil(64), "words_per_line drift");
        // Reconstruct the ownership map from the row planes, checking that
        // exactly one plane claims each cell and the column planes agree.
        let mut cells = vec![0u8; n * n];
        for i in 0..n {
            for j in 0..n {
                let owners: Vec<u8> = (0..k as u8)
                    .filter(|&p| (self.row_plane_word(p, i, j / 64) >> (j % 64)) & 1 == 1)
                    .collect();
                assert_eq!(
                    owners.len(),
                    1,
                    "cell ({i}, {j}) claimed by {} row planes",
                    owners.len()
                );
                cells[i * n + j] = owners[0];
                for p in 0..k as u8 {
                    let has = (self.col_plane_word(p, j, i / 64) >> (i % 64)) & 1 == 1;
                    assert_eq!(has, p == owners[0], "col plane {p} disagrees at ({i}, {j})");
                }
            }
        }
        // Tail bits above n must stay zero in every plane line and mask.
        let tail = n % 64;
        if tail != 0 {
            let junk = !((1u64 << tail) - 1);
            for lines in [&self.rows, &self.cols] {
                for p in 0..k {
                    for u in 0..n {
                        assert_eq!(
                            lines.bits[(p * n + u + 1) * words - 1] & junk,
                            0,
                            "plane tail junk"
                        );
                    }
                    assert_eq!(
                        lines.occ[(p + 1) * words - 1] & junk,
                        0,
                        "occupancy tail junk"
                    );
                }
            }
        }
        for (lines, what) in [(&self.rows, "row"), (&self.cols, "col")] {
            if let Some(nonzero) = lines.nonzero.0.get() {
                assert_eq!(
                    nonzero,
                    &summarize(&lines.bits),
                    "{what} nonzero-word summary drift"
                );
            }
        }
        let mut row_count = vec![0u32; k * n];
        let mut col_count = vec![0u32; k * n];
        let mut elems = vec![0usize; k];
        let mut zobrist = 0u64;
        let mut bounds = vec![Bounds::EMPTY; k];
        for (idx, &p) in cells.iter().enumerate() {
            let (i, j, p) = (idx / n, idx % n, p as usize);
            row_count[p * n + i] += 1;
            col_count[p * n + j] += 1;
            elems[p] += 1;
            zobrist ^= mix64((idx * k + p) as u64);
            bounds[p].expand(i, j);
        }
        assert_eq!(row_count, self.rows.count, "row_count drift");
        assert_eq!(col_count, self.cols.count, "col_count drift");
        assert_eq!(elems, self.elems, "elems drift");
        if let Some(&hash) = self.zobrist.0.get() {
            assert_eq!(zobrist, hash, "zobrist drift");
        }
        assert_eq!(bounds, self.bounds, "enclosing-rect bounds drift");
        let mut voc_units = 0u64;
        for (lines, count, what) in [
            (&self.rows, &row_count, "row"),
            (&self.cols, &col_count, "col"),
        ] {
            for u in 0..n {
                for p in 0..k {
                    let bit = (lines.occ[p * words + u / 64] >> (u % 64)) & 1;
                    assert_eq!(
                        bit == 1,
                        count[p * n + u] > 0,
                        "{what} occupancy drift (owner {p}, line {u})"
                    );
                }
                let c = (0..k).filter(|&p| count[p * n + u] > 0).count() as u8;
                assert_eq!(c, lines.procs[u], "{what} procs drift at line {u}");
                voc_units += u64::from(c) - 1;
            }
        }
        assert_eq!(voc_units, self.voc_units, "voc_units drift");
    }
}

/// A partition of an `n x n` matrix among processors `R`, `S`, `P`: the
/// three-owner [`NPartition`], with owner id [`Proc::q`].
///
/// See the [module documentation](self) for the maintained invariants.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    grid: NPartition,
}

impl Partition {
    /// A partition with every element assigned to `fill`.
    ///
    /// The paper's random `q0` generator starts from an all-`P` matrix
    /// (Section VI-A-2).
    pub fn new(n: usize, fill: Proc) -> Partition {
        Partition {
            grid: NPartition::filled(n, Proc::ALL.len(), fill.q()),
        }
    }

    /// Build a partition by evaluating `f(i, j)` for every cell.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> Proc) -> Partition {
        let mut part = Partition::new(n, Proc::P);
        for i in 0..n {
            for j in 0..n {
                part.set(i, j, f(i, j));
            }
        }
        part
    }

    /// The underlying plane store.
    #[inline]
    pub fn grid(&self) -> &NPartition {
        &self.grid
    }

    /// The underlying plane store, mutably — how the push engine applies
    /// pushes. Callers reassign cells through it and must not replace it:
    /// a `Partition` always has exactly three owners.
    #[inline]
    pub fn grid_mut(&mut self) -> &mut NPartition {
        &mut self.grid
    }

    /// Matrix dimension `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.grid.n()
    }

    /// `ceil(n / 64)`: how many `u64` words make up one plane line.
    #[inline]
    pub fn words_per_line(&self) -> usize {
        self.grid.words_per_line()
    }

    /// Word `w` of processor `proc`'s row-plane line `i`: bit `b` is set
    /// iff `q(i, w * 64 + b) = proc`.
    #[inline]
    pub fn row_plane_word(&self, proc: Proc, i: usize, w: usize) -> u64 {
        self.grid.row_plane_word(proc.q(), i, w)
    }

    /// Word `w` of processor `proc`'s column-plane line `j`: bit `b` is set
    /// iff `q(w * 64 + b, j) = proc`.
    #[inline]
    pub fn col_plane_word(&self, proc: Proc, j: usize, w: usize) -> u64 {
        self.grid.col_plane_word(proc.q(), j, w)
    }

    /// The processor assigned to cell `(i, j)`: two plane-word probes.
    ///
    /// [`NPartition::get`] unrolled for three owners, with an early exit.
    /// Callers that test `get(i, j) == proc` over spatially coherent
    /// regions (corner counts, region profiles) then branch predictably and
    /// usually read one word; the generic owner loop measured 1.7x slower
    /// there.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Proc {
        let (w, b) = (j / 64, j % 64);
        if (self.grid.row_plane_word(Proc::R.q(), i, w) >> b) & 1 == 1 {
            Proc::R
        } else if (self.grid.row_plane_word(Proc::S.q(), i, w) >> b) & 1 == 1 {
            Proc::S
        } else {
            Proc::P
        }
    }

    /// Reassign cell `(i, j)` to `proc`, returning the previous owner.
    ///
    /// Updates every derived count in `O(1)` (plus an amortized word-wise
    /// boundary sweep when a boundary line of the losing processor empties).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, proc: Proc) -> Proc {
        Proc::from_q(self.grid.set(i, j, proc.q()))
    }

    /// Swap the assignments of two cells. A no-op if they match.
    #[inline]
    pub fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        self.grid.swap(a, b);
    }

    /// `∈X`: the number of elements assigned to `proc`.
    #[inline]
    pub fn elems(&self, proc: Proc) -> usize {
        self.grid.elems(proc.q())
    }

    /// Elements of `proc` in row `i`.
    #[inline]
    pub fn row_count(&self, proc: Proc, i: usize) -> u32 {
        self.grid.row_count(proc.q(), i)
    }

    /// Elements of `proc` in column `j`.
    #[inline]
    pub fn col_count(&self, proc: Proc, j: usize) -> u32 {
        self.grid.col_count(proc.q(), j)
    }

    /// The paper's `row(q, i, X)` predicate: does row `i` contain any element
    /// of `proc`? (Section VI-B.)
    #[inline]
    pub fn row_has(&self, proc: Proc, i: usize) -> bool {
        self.grid.row_has(proc.q(), i)
    }

    /// The paper's `col(q, j, X)` predicate.
    #[inline]
    pub fn col_has(&self, proc: Proc, j: usize) -> bool {
        self.grid.col_has(proc.q(), j)
    }

    /// `c_i`: number of distinct processors owning elements in row `i`.
    #[inline]
    pub fn procs_in_row(&self, i: usize) -> u8 {
        self.grid.procs_in_row(i)
    }

    /// `c_j`: number of distinct processors owning elements in column `j`.
    #[inline]
    pub fn procs_in_col(&self, j: usize) -> u8 {
        self.grid.procs_in_col(j)
    }

    /// `i_X`: the number of rows containing elements of `proc`
    /// (used by the PCB model, Eq. 6).
    pub fn rows_occupied(&self, proc: Proc) -> usize {
        self.grid.rows_occupied(proc.q())
    }

    /// `j_X`: the number of columns containing elements of `proc`.
    pub fn cols_occupied(&self, proc: Proc) -> usize {
        self.grid.cols_occupied(proc.q())
    }

    /// `Σ_i (c_i - 1) + Σ_j (c_j - 1)`, the volume of communication in units
    /// of "lines": `VoC = N * voc_units()` (Eq. 1).
    #[inline]
    pub fn voc_units(&self) -> u64 {
        self.grid.voc_units()
    }

    /// The paper's Eq. 1 volume of communication, in elements.
    #[inline]
    pub fn voc(&self) -> u64 {
        self.grid.voc()
    }

    /// A 64-bit hash of the full assignment (Zobrist hashing), computed on
    /// first read and maintained incrementally after that (see
    /// [`NPartition::state_hash`]). Equal partitions always hash equal; the
    /// DFA uses it to detect revisited states in VoC-neutral push cycles.
    #[inline]
    pub fn state_hash(&self) -> u64 {
        self.grid.state_hash()
    }

    /// The enclosing rectangle of `proc` (Fig. 4), or `None` if the processor
    /// owns no elements. `O(1)` read of the incrementally maintained bounds.
    pub fn enclosing_rect(&self, proc: Proc) -> Option<Rect> {
        self.grid.enclosing_rect(proc.q())
    }

    /// Iterate over the cells assigned to `proc`, row-major.
    pub fn cells_of(&self, proc: Proc) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.grid.cells_of(proc.q())
    }

    /// Assign every cell of `rect` to `proc`, a plane word at a time (see
    /// [`NPartition::fill_rect`]).
    pub fn fill_rect(&mut self, rect: Rect, proc: Proc) {
        self.grid.fill_rect(rect, proc.q());
    }

    /// Does `proc` exactly fill its enclosing rectangle? (A *rectangular*
    /// processor in the strict sense.)
    pub fn is_exact_rect(&self, proc: Proc) -> bool {
        self.grid.is_exact_rect(proc.q())
    }

    /// Fully recompute every derived count from the raw bit-planes and panic
    /// on any mismatch (see [`NPartition::assert_invariants`]), and check
    /// that the store has exactly three owners. Test/debug aid; `O(N²)`.
    pub fn assert_invariants(&self) {
        assert_eq!(
            self.grid.k(),
            Proc::ALL.len(),
            "a Partition has three owners"
        );
        self.grid.assert_invariants();
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Partition(n={}, voc={}, elems R={} S={} P={})",
            self.n(),
            self.voc(),
            self.elems(Proc::R),
            self.elems(Proc::S),
            self.elems(Proc::P),
        )?;
        if self.n() <= 64 {
            for i in 0..self.n() {
                for j in 0..self.n() {
                    write!(f, "{}", self.get(i, j).letter())?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_is_uniform() {
        let p = Partition::new(8, Proc::P);
        assert_eq!(p.elems(Proc::P), 64);
        assert_eq!(p.elems(Proc::R), 0);
        assert_eq!(p.voc(), 0);
        assert_eq!(p.enclosing_rect(Proc::P), Some(Rect::new(0, 7, 0, 7)));
        assert_eq!(p.enclosing_rect(Proc::R), None);
        p.assert_invariants();
    }

    #[test]
    fn set_updates_counts_and_voc() {
        let mut p = Partition::new(4, Proc::P);
        p.set(1, 2, Proc::R);
        // Row 1 and column 2 now have two processors each: +2 line units.
        assert_eq!(p.voc_units(), 2);
        assert_eq!(p.voc(), 8);
        assert_eq!(p.elems(Proc::R), 1);
        assert_eq!(p.procs_in_row(1), 2);
        assert_eq!(p.procs_in_col(2), 2);
        p.assert_invariants();

        // Setting back restores everything.
        p.set(1, 2, Proc::P);
        assert_eq!(p.voc(), 0);
        assert_eq!(p.elems(Proc::R), 0);
        p.assert_invariants();
    }

    #[test]
    fn three_procs_in_one_row() {
        let mut p = Partition::new(3, Proc::P);
        p.set(0, 0, Proc::R);
        p.set(0, 1, Proc::S);
        assert_eq!(p.procs_in_row(0), 3);
        // Row 0 contributes 2 units; columns 0 and 1 contribute 1 each.
        assert_eq!(p.voc_units(), 4);
        p.assert_invariants();
    }

    #[test]
    fn swap_preserves_elem_counts() {
        let mut p = Partition::new(5, Proc::P);
        p.set(0, 0, Proc::R);
        p.set(4, 4, Proc::S);
        let before = [p.elems(Proc::R), p.elems(Proc::S), p.elems(Proc::P)];
        p.swap((0, 0), (4, 4));
        let after = [p.elems(Proc::R), p.elems(Proc::S), p.elems(Proc::P)];
        assert_eq!(before, after);
        assert_eq!(p.get(0, 0), Proc::S);
        assert_eq!(p.get(4, 4), Proc::R);
        p.assert_invariants();
    }

    #[test]
    fn swap_same_proc_is_noop() {
        let mut p = Partition::new(3, Proc::P);
        let before = p.clone();
        p.swap((0, 0), (2, 2));
        assert_eq!(p, before);
    }

    #[test]
    fn enclosing_rect_tracks_extremes() {
        let mut p = Partition::new(10, Proc::P);
        p.set(2, 3, Proc::R);
        p.set(7, 5, Proc::R);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(2, 7, 3, 5)));
        p.set(2, 3, Proc::P);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(7, 7, 5, 5)));
    }

    #[test]
    fn fill_rect_and_exact_rect() {
        let mut p = Partition::new(8, Proc::P);
        p.fill_rect(Rect::new(2, 4, 1, 3), Proc::R);
        assert!(p.is_exact_rect(Proc::R));
        assert_eq!(p.elems(Proc::R), 9);
        p.set(2, 1, Proc::S);
        assert!(!p.is_exact_rect(Proc::R));
        p.assert_invariants();
    }

    #[test]
    fn rows_cols_occupied() {
        let mut p = Partition::new(6, Proc::P);
        p.fill_rect(Rect::new(0, 2, 0, 1), Proc::S);
        assert_eq!(p.rows_occupied(Proc::S), 3);
        assert_eq!(p.cols_occupied(Proc::S), 2);
        assert_eq!(p.rows_occupied(Proc::P), 6);
        assert_eq!(p.cols_occupied(Proc::P), 6);
    }

    #[test]
    fn voc_matches_eq1_definition() {
        // Traditional three horizontal strips: every column has 3 procs,
        // every row exactly 1. VoC = N * N * 2 (columns only).
        let n = 9;
        let p = Partition::from_fn(n, |i, _| {
            if i < 3 {
                Proc::P
            } else if i < 6 {
                Proc::R
            } else {
                Proc::S
            }
        });
        assert_eq!(p.voc(), (n * n * 2) as u64);
        p.assert_invariants();
    }

    #[test]
    fn from_fn_matches_get() {
        let p = Partition::from_fn(5, |i, j| if (i + j) % 2 == 0 { Proc::R } else { Proc::S });
        for i in 0..5 {
            for j in 0..5 {
                let want = if (i + j) % 2 == 0 { Proc::R } else { Proc::S };
                assert_eq!(p.get(i, j), want);
            }
        }
    }

    #[test]
    fn bounds_shrink_through_interior_and_edge_removals() {
        let mut p = Partition::new(12, Proc::P);
        p.fill_rect(Rect::new(2, 9, 3, 8), Proc::R);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(2, 9, 3, 8)));
        // Empty the top boundary row: top must skip past it.
        for j in 3..=8 {
            p.set(2, j, Proc::P);
        }
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(3, 9, 3, 8)));
        // Empty two boundary columns in one go (left edge 3 then 4).
        for i in 3..=9 {
            p.set(i, 3, Proc::P);
            p.set(i, 4, Proc::P);
        }
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(3, 9, 5, 8)));
        // Interior removals never move the box.
        p.set(5, 6, Proc::S);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(3, 9, 5, 8)));
        // Remove everything: back to None, and re-adding restarts cleanly.
        for (i, j) in Rect::new(3, 9, 5, 8).cells() {
            p.set(i, j, Proc::P);
        }
        assert_eq!(p.enclosing_rect(Proc::R), None);
        p.set(11, 0, Proc::R);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(11, 11, 0, 0)));
        p.assert_invariants();
    }

    #[test]
    fn bounds_match_scan_recompute_on_random_set_sequences() {
        // Deterministic pseudo-random set() churn; after every mutation the
        // incremental bounds must equal a from-scratch scan.
        let n = 16;
        let mut p = Partition::new(n, Proc::P);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let r = next();
            let i = (r as usize >> 8) % n;
            let j = (r as usize >> 24) % n;
            let proc = Proc::from_q((r % 3) as u8);
            p.set(i, j, proc);
            for q in Proc::ALL {
                let scan = {
                    let rows: Vec<usize> = (0..n).filter(|&i| p.row_has(q, i)).collect();
                    let cols: Vec<usize> = (0..n).filter(|&j| p.col_has(q, j)).collect();
                    match (rows.first(), rows.last(), cols.first(), cols.last()) {
                        (Some(&t), Some(&b), Some(&l), Some(&r)) => Some(Rect::new(t, b, l, r)),
                        _ => None,
                    }
                };
                assert_eq!(p.enclosing_rect(q), scan);
            }
        }
        p.assert_invariants();
    }

    #[test]
    fn state_hash_tracks_content_not_history() {
        let mut a = Partition::new(6, Proc::P);
        a.set(1, 1, Proc::R);
        a.set(2, 2, Proc::S);
        let mut b = Partition::new(6, Proc::P);
        b.set(2, 2, Proc::S);
        b.set(1, 1, Proc::R);
        assert_eq!(a.state_hash(), b.state_hash());
        a.set(1, 1, Proc::P);
        assert_ne!(a.state_hash(), b.state_hash());
        a.set(1, 1, Proc::R);
        assert_eq!(a.state_hash(), b.state_hash());
    }

    /// Reference implementation: the pre-bit-plane element→owner `Vec`,
    /// recomputed from scratch. The keep-alive oracle below pins the planes
    /// against it after arbitrary `set` churn.
    struct VecOracle {
        n: usize,
        cells: Vec<u8>,
    }

    impl VecOracle {
        fn new(n: usize, fill: Proc) -> VecOracle {
            VecOracle {
                n,
                cells: vec![fill.q(); n * n],
            }
        }

        fn set(&mut self, i: usize, j: usize, proc: Proc) {
            self.cells[i * self.n + j] = proc.q();
        }

        fn rect(&self, proc: Proc) -> Option<Rect> {
            let q = proc.q();
            let mut b: Option<(usize, usize, usize, usize)> = None;
            for i in 0..self.n {
                for j in 0..self.n {
                    if self.cells[i * self.n + j] == q {
                        let e = b.get_or_insert((i, i, j, j));
                        e.0 = e.0.min(i);
                        e.1 = e.1.max(i);
                        e.2 = e.2.min(j);
                        e.3 = e.3.max(j);
                    }
                }
            }
            b.map(|(t, bo, l, r)| Rect::new(t, bo, l, r))
        }

        fn rows_occupied(&self, proc: Proc) -> usize {
            let q = proc.q();
            (0..self.n)
                .filter(|&i| (0..self.n).any(|j| self.cells[i * self.n + j] == q))
                .count()
        }

        fn cols_occupied(&self, proc: Proc) -> usize {
            let q = proc.q();
            (0..self.n)
                .filter(|&j| (0..self.n).any(|i| self.cells[i * self.n + j] == q))
                .count()
        }
    }

    fn churn_against_oracle(n: usize, steps: usize, seed: u64) {
        let mut p = Partition::new(n, Proc::P);
        let mut oracle = VecOracle::new(n, Proc::P);
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..steps {
            let r = next();
            let i = (r as usize >> 8) % n;
            let j = (r as usize >> 24) % n;
            let proc = Proc::from_q((r % 3) as u8);
            p.set(i, j, proc);
            oracle.set(i, j, proc);
        }
        // Keep-alive ownership oracle: every cell, every derived quantity.
        for i in 0..n {
            for j in 0..n {
                assert_eq!(p.get(i, j).q(), oracle.cells[i * n + j], "({i}, {j})");
            }
        }
        for q in Proc::ALL {
            assert_eq!(p.enclosing_rect(q), oracle.rect(q));
            assert_eq!(p.rows_occupied(q), oracle.rows_occupied(q));
            assert_eq!(p.cols_occupied(q), oracle.cols_occupied(q));
        }
        let got: Vec<(usize, usize)> = p.cells_of(Proc::R).collect();
        let want: Vec<(usize, usize)> = (0..n * n)
            .filter(|&idx| oracle.cells[idx] == Proc::R.q())
            .map(|idx| (idx / n, idx % n))
            .collect();
        assert_eq!(got, want, "cells_of order drift");
        p.assert_invariants();
    }

    #[test]
    fn bitplanes_match_vec_oracle_after_random_churn() {
        churn_against_oracle(16, 3000, 0x9E37_79B9_7F4A_7C15);
    }

    #[test]
    fn tail_word_masking_n_not_multiple_of_64() {
        // n = 65 straddles a word boundary by one bit; n = 100 has a
        // 36-bit tail word. Both must behave identically to the oracle.
        churn_against_oracle(65, 4000, 0xDEAD_BEEF_CAFE_F00D);
        churn_against_oracle(100, 4000, 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn word_boundary_sizes_round_trip() {
        // n = 1 checks the transient voc accounting: the only row and
        // column change owner, so the gaining owner's line must open
        // before the losing owner's closes.
        for n in [1, 2, 63, 64, 128] {
            churn_against_oracle(n, 500.min(n * n * 4), n as u64 + 1);
        }
    }

    #[test]
    fn single_row_and_single_column_partitions() {
        // One processor confined to a single row: rect is 1 line tall,
        // occupancy counts collapse to the line counts.
        let n = 70;
        let mut p = Partition::new(n, Proc::P);
        for j in 10..50 {
            p.set(3, j, Proc::R);
        }
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(3, 3, 10, 49)));
        assert_eq!(p.rows_occupied(Proc::R), 1);
        assert_eq!(p.cols_occupied(Proc::R), 40);
        // And a single column crossing the word boundary at bit 64.
        for i in 60..n {
            p.set(i, 65, Proc::S);
        }
        assert_eq!(p.enclosing_rect(Proc::S), Some(Rect::new(60, 69, 65, 65)));
        assert_eq!(p.rows_occupied(Proc::S), 10);
        assert_eq!(p.cols_occupied(Proc::S), 1);
        p.assert_invariants();
    }

    #[test]
    fn plane_word_accessors_expose_the_documented_layout() {
        let n = 70;
        let mut p = Partition::new(n, Proc::P);
        p.set(2, 3, Proc::R);
        p.set(2, 67, Proc::R);
        assert_eq!(p.words_per_line(), 2);
        assert_eq!(p.row_plane_word(Proc::R, 2, 0), 1u64 << 3);
        assert_eq!(p.row_plane_word(Proc::R, 2, 1), 1u64 << 3); // bit 67 - 64
        assert_eq!(p.col_plane_word(Proc::R, 3, 0), 1u64 << 2);
        assert_eq!(p.col_plane_word(Proc::R, 67, 0), 1u64 << 2);
        // The P plane lost exactly those bits.
        assert_eq!(p.row_plane_word(Proc::P, 2, 0), !(1u64 << 3));
        let tail = (1u64 << (n - 64)) - 1;
        assert_eq!(p.row_plane_word(Proc::P, 2, 1), tail & !(1u64 << 3));
    }

    // The k-owner store.

    #[test]
    fn new_is_all_proc_zero() {
        let part = NPartition::new(8, 4);
        assert_eq!(part.elems(0), 64);
        assert_eq!(part.voc(), 0);
        part.assert_invariants();
    }

    #[test]
    fn set_updates_counts_for_many_procs() {
        let mut part = NPartition::new(6, 5);
        part.set(0, 0, 1);
        part.set(0, 1, 2);
        part.set(0, 2, 3);
        part.set(0, 3, 4);
        // Row 0 now hosts 5 distinct processors: +4 row units; each column
        // touched hosts 2: +1 each.
        assert_eq!(part.voc_units(), 4 + 4);
        part.assert_invariants();
    }

    #[test]
    fn random_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let part = NPartition::random(40, &[8, 4, 2, 1, 1], &mut rng);
        let total = 1600usize;
        assert_eq!(part.elems(1), total * 4 / 16);
        assert_eq!(part.elems(2), total * 2 / 16);
        assert_eq!(part.elems(3), total / 16);
        assert_eq!(part.elems(4), total / 16);
        assert_eq!(
            part.elems(0),
            total - part.elems(1) - part.elems(2) - part.elems(3) - part.elems(4)
        );
        part.assert_invariants();
    }

    #[test]
    fn k3_matches_three_proc_voc_semantics() {
        // Strips across 3 procs: same VoC as the main crate computes.
        let n = 9;
        let mut part = NPartition::new(n, 3);
        for i in 3..6 {
            for j in 0..n {
                part.set(i, j, 1);
            }
        }
        for i in 6..9 {
            for j in 0..n {
                part.set(i, j, 2);
            }
        }
        assert_eq!(part.voc(), (n * n * 2) as u64);
    }

    #[test]
    fn bounds_track_random_set_churn() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 14;
        let k = 5u8;
        let mut part = NPartition::new(n, k as usize);
        for step in 0..1500u64 {
            use rand::RngExt;
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            let p = rng.random_range(0..k);
            part.set(i, j, p);
            // From-scratch recompute per owner must match the O(1) read.
            for q in 0..k {
                let rows: Vec<usize> = (0..n).filter(|&i| part.row_has(q, i)).collect();
                let cols: Vec<usize> = (0..n).filter(|&j| part.col_has(q, j)).collect();
                let scan = match (rows.first(), rows.last(), cols.first(), cols.last()) {
                    (Some(&t), Some(&b), Some(&l), Some(&r)) => Some(Rect::new(t, b, l, r)),
                    _ => None,
                };
                assert_eq!(part.enclosing_rect(q), scan, "owner {q} at step {step}");
            }
        }
        part.assert_invariants();
    }

    #[test]
    fn state_hash_content_addressed() {
        let mut a = NPartition::new(5, 4);
        let mut b = NPartition::new(5, 4);
        a.set(1, 2, 3);
        b.set(1, 2, 3);
        assert_eq!(a.state_hash(), b.state_hash());
        b.set(1, 2, 2);
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    #[should_panic(expected = "2..=64")]
    fn k_out_of_range_rejected() {
        let _ = NPartition::new(4, 1);
    }

    // The word-wise fill against the per-cell reference.

    /// A rect that exercises one of the fill's edge cases on `part`.
    fn arb_rect(part: &NPartition, rng: &mut StdRng) -> Rect {
        use rand::RngExt;
        let n = part.n();
        // An ordered pair in `from..from + len`.
        let span = |rng: &mut StdRng, from: usize, len: usize| {
            let (a, b) = (rng.random_range(0..len), rng.random_range(0..len));
            (from + a.min(b), from + a.max(b))
        };
        let owner = rng.random_range(0..part.k()) as u8;
        let bounds = part.enclosing_rect(owner);
        match (rng.random_range(0..5), bounds) {
            // Inside one plane word: both column edges in word `w`.
            (0, _) => {
                let w = rng.random_range(0..part.words_per_line());
                let rows = span(rng, 0, n);
                let cols = span(rng, w * 64, (n - w * 64).min(64));
                Rect::new(rows.0, rows.1, cols.0, cols.1)
            }
            // The whole of an owner's enclosing rect: empties it.
            (1, Some(b)) => b,
            // One of an owner's boundary lines, full length: empties it.
            (2, Some(b)) => match rng.random_range(0..4) {
                0 => Rect::new(b.top, b.top, 0, n - 1),
                1 => Rect::new(b.bottom, b.bottom, 0, n - 1),
                2 => Rect::new(0, n - 1, b.left, b.left),
                _ => Rect::new(0, n - 1, b.right, b.right),
            },
            // Anywhere, edges usually mid-word.
            _ => {
                let (rows, cols) = (span(rng, 0, n), span(rng, 0, n));
                Rect::new(rows.0, rows.1, cols.0, cols.1)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Word fills equal per-cell fills after every rect, with the hash
        /// read from the start (maintained by the fills) or only at the end
        /// (computed from the planes).
        #[test]
        fn fill_rect_matches_per_cell_reference(
            seed in 0u64..1_000_000,
            k in 3usize..=6,
            size in 0usize..7,
        ) {
            use rand::RngExt;
            let n = [1, 7, 63, 64, 65, 100, 130][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let weights: Vec<u32> = (0..k).map(|_| rng.random_range(1..=4)).collect();
            let start = NPartition::random(n, &weights, &mut rng);
            let mut reference = start.clone();
            let mut eager = start.clone();
            let mut lazy = start;
            reference.state_hash();
            eager.state_hash();
            for _ in 0..12 {
                let rect = arb_rect(&reference, &mut rng);
                let p = rng.random_range(0..k) as u8;
                reference.fill_rect_reference(rect, p);
                eager.fill_rect(rect, p);
                lazy.fill_rect(rect, p);
                proptest::prop_assert_eq!(&eager, &reference, "{:?} to {}", rect, p);
                proptest::prop_assert_eq!(&lazy, &reference);
                proptest::prop_assert_eq!(eager.zobrist.0.get(), reference.zobrist.0.get());
                eager.assert_invariants();
            }
            proptest::prop_assert!(lazy.zobrist.0.get().is_none());
            proptest::prop_assert_eq!(lazy.state_hash(), reference.state_hash());
            lazy.assert_invariants();
        }
    }

    /// Every owner's row and column summaries read back, from every word
    /// on, exactly which plane words are nonzero.
    fn assert_summaries_read_back(part: &NPartition) {
        let words = part.words_per_line();
        let expect = |word: &dyn Fn(usize) -> u64, w: usize| {
            (w..words)
                .take(64)
                .enumerate()
                .fold(0u64, |m, (b, x)| m | u64::from(word(x) != 0) << b)
        };
        for p in 0..part.k() as u8 {
            for u in 0..part.n() {
                for w in 0..words {
                    let row = expect(&|x| part.row_plane_word(p, u, x), w);
                    let col = expect(&|x| part.col_plane_word(p, u, x), w);
                    assert_eq!(
                        part.row_nonzero_words(p, u, w),
                        row,
                        "row {u} of {p} from {w}"
                    );
                    assert_eq!(
                        part.col_nonzero_words(p, u, w),
                        col,
                        "col {u} of {p} from {w}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The nonzero-word summaries follow the planes through random
        /// `set`, `swap` and `fill_rect` churn, words emptying included.
        #[test]
        fn nonzero_summaries_track_set_swap_and_fill_churn(
            seed in 0u64..1_000_000,
            k in 3usize..=6,
            size in 0usize..5,
        ) {
            use rand::RngExt;
            let n = [1, 63, 64, 65, 130][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let weights: Vec<u32> = (0..k).map(|_| rng.random_range(1..=4)).collect();
            let mut part = NPartition::random(n, &weights, &mut rng);
            assert_summaries_read_back(&part);
            for _ in 0..24 {
                let cell = |rng: &mut StdRng| (rng.random_range(0..n), rng.random_range(0..n));
                let p = rng.random_range(0..k) as u8;
                match rng.random_range(0..3) {
                    0 => {
                        let (i, j) = cell(&mut rng);
                        part.set(i, j, p);
                    }
                    1 => {
                        let (a, b) = (cell(&mut rng), cell(&mut rng));
                        part.swap(a, b);
                    }
                    _ => {
                        let rect = arb_rect(&part, &mut rng);
                        part.fill_rect(rect, p);
                    }
                }
                assert_summaries_read_back(&part);
            }
            part.assert_invariants();
        }
    }

    /// Past 4096 columns a line has more than 64 plane words, so its
    /// summary spans two summary words (and at 65 words per line, most
    /// lines start mid-word).
    #[test]
    fn nonzero_summaries_span_two_words_on_wide_lines() {
        let n = 4160;
        let mut part = NPartition::new(n, 3);
        assert_eq!(part.words_per_line(), 65);
        // A summary is computed on its first read. Read both first, so that
        // the mutations below maintain them.
        assert!(part.rows.nonzero.0.get().is_none());
        part.row_nonzero_words(0, 0, 0);
        part.col_nonzero_words(0, 0, 0);
        for j in [0, 4096, 4159] {
            part.set(5, j, 1);
        }
        part.fill_rect(Rect::new(7, 9, 4000, 4159), 2);
        part.swap((5, 4096), (8, 4100));
        // Row 5 of owner 1: words 0 and 64 (column 4159), not 4096 after
        // the swap took it.
        assert_eq!(part.row_nonzero_words(1, 5, 0), 1);
        assert_eq!(part.row_nonzero_words(1, 5, 1), 1 << 63);
        assert_eq!(part.row_nonzero_words(1, 5, 64), 1);
        assert_eq!(part.row_nonzero_words(2, 5, 64), 1);
        // Row 8 of owner 2: words 62 to 64, less nothing (4100 is word 64).
        assert_eq!(part.row_nonzero_words(2, 8, 0), 0b11 << 62);
        assert_eq!(part.row_nonzero_words(2, 8, 62), 0b111);
        assert_eq!(part.row_nonzero_words(0, 8, 0), (1 << 63) - 1);
        for lines in [&part.rows, &part.cols] {
            assert_eq!(lines.nonzero.0.get(), Some(&summarize(&lines.bits)));
        }
    }

    #[test]
    fn unread_hash_equals_hash_read_from_construction() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut read = NPartition::new(70, 4);
        read.state_hash();
        let mut unread = NPartition::new(70, 4);
        for step in 0..200u8 {
            use rand::RngExt;
            let (i, j) = (rng.random_range(0..70), rng.random_range(0..70));
            let p = step % 4;
            read.set(i, j, p);
            unread.set(i, j, p);
        }
        read.fill_rect(Rect::new(3, 40, 60, 69), 2);
        unread.fill_rect(Rect::new(3, 40, 60, 69), 2);
        read.swap((0, 0), (69, 69));
        unread.swap((0, 0), (69, 69));
        assert!(unread.zobrist.0.get().is_none());
        assert_eq!(unread.state_hash(), read.state_hash());
        read.assert_invariants();
    }

    #[test]
    fn equality_ignores_whether_the_hash_was_read() {
        let mut a = Partition::new(9, Proc::P);
        a.fill_rect(Rect::new(0, 3, 2, 8), Proc::R);
        let b = a.clone();
        a.state_hash();
        assert!(a.grid.zobrist.0.get().is_some() && b.grid.zobrist.0.get().is_none());
        assert_eq!(a, b);
    }

    #[test]
    fn unread_hash_round_trips_as_null() {
        let mut part = Partition::new(65, Proc::P);
        part.fill_rect(Rect::new(10, 64, 0, 40), Proc::S);
        let value = part.to_value();
        let grid = value.get("grid").expect("grid field");
        assert_eq!(grid.get("zobrist"), Some(&serde::Value::Null));
        let back = Partition::from_value(&value).expect("round trip");
        assert_eq!(back, part);
        assert_eq!(back.state_hash(), part.state_hash());
        // A read hash is written out and trusted on the way back.
        let read = Partition::from_value(&part.to_value()).expect("round trip");
        assert_eq!(read.grid.zobrist.0.get(), Some(&part.state_hash()));
    }
}
