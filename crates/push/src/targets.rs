//! Phase 1 of a push — the cleaned line and the bucketed candidate
//! targets — shared by both rule layers: the paper's six push types
//! ([`crate::op`]) and the k-processor modes ([`crate::modes`]).
//!
//! Both layers clean the canonical top row `k` of the active processor's
//! enclosing rectangle and refill it from the rectangle interior. Every
//! interior cell of a displaced owner is a candidate target, bucketed by
//! two facts (DESIGN.md §15):
//!
//! - the active side's **dirty cost** — 0, 1 or 2 new lines the active
//!   processor would occupy if its element landed there: the row term is
//!   constant along a row, the column term is a per-column mask;
//! - the owner's **cleaning bonus** — removing the owner's element empties
//!   one of its lines: again a row constant or a per-column mask.
//!
//! Bucket `cost * 2 + !cleans` orders targets best-first: landing where
//! the active processor already is costs nothing, and a target whose
//! removal cleans an owner line lowers VoC further — the paper's
//! Type-1-first preference made operational. The paper's `find` scans the
//! interior row-major, so each bucket holds its candidates in `(g, h)`
//! order, and keeps only the first `cap = m + 64`: the matcher never needs
//! more than the `m` cleaned elements per owner plus slack for budget
//! skips, which keeps memory O(m).
//!
//! Because both terms are row constants or column masks, one plane word
//! of an owner splits into its bucket masks with a few ANDs ([`collect`]),
//! instead of one branchy decision per set bit. The sweep extracts bits
//! only from buckets still below `cap`. It reads only the plane words that
//! the grid's nonzero-word summary ([`LineGrid::nonzero_words`]) marks
//! nonzero and whose columns can feed a bucket the row still reaches, and
//! it drops an owner once no row can feed any of its open buckets. Full
//! buckets rarely end the sweep: the cleaning buckets seldom fill, so it
//! usually runs to the rectangle's bottom row, and what it saves is the
//! words it does not read. A window of one or two words gains nothing
//! from the summary, so its sweep reads the words directly.

/// The line-level, canonical-coordinate queries phase 1 needs, over owner
/// ids `u8`. The grid view implements it, so the push kernel feeds
/// [`collect`] directly; tests implement it for grids of no real partition.
pub(crate) trait LineGrid {
    /// Elements of `proc` in canonical row `u`.
    fn row_count(&self, proc: u8, u: usize) -> u32;
    /// Elements of `proc` in canonical column `v`.
    fn col_count(&self, proc: u8, v: usize) -> u32;
    /// Enclosing rectangle `(top, bottom, left, right)` of `proc` in
    /// canonical coordinates.
    fn enclosing_rect(&self, proc: u8) -> Option<(usize, usize, usize, usize)>;
    /// Word `w` of `proc`'s canonical-row-`u` bit-plane line: bit `b` is
    /// set iff canonical cell `(u, w * 64 + b)` belongs to `proc`.
    fn line_word(&self, proc: u8, u: usize, w: usize) -> u64;
    /// Which words of `proc`'s canonical-row-`u` line, from word `w` on,
    /// may be nonzero: bit `b` stands for word `w + b`, and a clear bit
    /// promises that [`LineGrid::line_word`] is zero there. Bits past the
    /// line's last word mean nothing. By default every word may be
    /// nonzero.
    fn nonzero_words(&self, _proc: u8, _u: usize, _w: usize) -> u64 {
        !0
    }
    /// Does canonical row `u` contain elements of `proc`?
    fn row_has(&self, proc: u8, u: usize) -> bool {
        self.row_count(proc, u) > 0
    }
    /// Does canonical column `v` contain elements of `proc`?
    fn col_has(&self, proc: u8, v: usize) -> bool {
        self.col_count(proc, v) > 0
    }
}

/// The type-independent result of phase 1, reused by every type (or mode)
/// attempt of one push.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Candidates {
    /// Canonical index of the cleaned line (the rectangle's top row).
    pub(crate) line: usize,
    /// Canonical columns of the active processor's elements in that line,
    /// ascending.
    pub(crate) cleaned: Vec<usize>,
    /// The displaced owners, in slot order.
    pub(crate) owners: Vec<u8>,
    /// Candidate interior targets per displaced owner slot, best bucket
    /// first, `(g, h)` order within a bucket.
    pub(crate) owner_targets: Vec<Vec<(usize, usize)>>,
}

/// Phase 1 of a push of `proc` on a `k`-owner grid: every other owner is
/// a displaced owner, in ascending order (with three processors, that is
/// [`hetmmm_partition::Proc::others`] in `q` order). `None` when no push
/// of `proc` in this view's direction can exist at all (no elements, or a
/// single-line enclosing rectangle that a push would be forced to
/// enlarge).
pub(crate) fn prepare<G: LineGrid>(grid: &G, proc: u8, k: usize) -> Option<Candidates> {
    collect(grid, proc, (0..k as u8).filter(|&p| p != proc).collect())
}

/// Column window `[left, right]` over the bit-plane words `w_lo..=w_hi`.
struct Window {
    w_lo: usize,
    w_hi: usize,
    lo_mask: u64,
    hi_mask: u64,
}

impl Window {
    fn new(left: usize, right: usize) -> Window {
        let r = right % 64;
        Window {
            w_lo: left / 64,
            w_hi: right / 64,
            lo_mask: !0u64 << (left % 64),
            hi_mask: if r == 63 {
                !0u64
            } else {
                (1u64 << (r + 1)) - 1
            },
        }
    }

    /// Bits of word `w` inside the window.
    #[inline]
    fn mask(&self, w: usize) -> u64 {
        let mut m = !0u64;
        if w == self.w_lo {
            m &= self.lo_mask;
        }
        if w == self.w_hi {
            m &= self.hi_mask;
        }
        m
    }
}

/// The cleaned line, its active elements, and the per-column masks every
/// bucketing decision shares: `col_ok[w]` bit `b` — the active processor
/// already owns column `w*64+b` outside the cleaned line;
/// `col_cleans[slot][w]` bit `b` — removing the owner's element empties
/// the owner's column.
struct Setup {
    line: usize,
    bottom: usize,
    window: Window,
    cleaned: Vec<usize>,
    col_ok: Vec<u64>,
    col_cleans: Vec<Vec<u64>>,
}

/// The [`Setup`] of a push of `proc`; `None` when `proc` has no elements
/// or a single-line rectangle (a push would have to enlarge it).
fn setup<G: LineGrid>(grid: &G, proc: u8, owners: &[u8]) -> Option<Setup> {
    let (top, bottom, left, right) = grid.enclosing_rect(proc)?;
    if bottom == top {
        return None;
    }
    let window = Window::new(left, right);
    let wn = window.w_hi - window.w_lo + 1;
    let mut cleaned = Vec::new();
    let mut col_ok = vec![0u64; wn];
    let mut col_cleans = vec![vec![0u64; wn]; owners.len()];
    for w in window.w_lo..=window.w_hi {
        let row_k = grid.line_word(proc, top, w);
        let mut bits = row_k & window.mask(w);
        while bits != 0 {
            cleaned.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
        let mut bits = window.mask(w);
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let h = w * 64 + b;
            let in_line = u32::from((row_k >> b) & 1 == 1);
            if grid.col_count(proc, h) > in_line {
                col_ok[w - window.w_lo] |= 1u64 << b;
            }
            for (slot, &owner) in owners.iter().enumerate() {
                if grid.col_count(owner, h) == 1 {
                    col_cleans[slot][w - window.w_lo] |= 1u64 << b;
                }
            }
        }
    }
    debug_assert!(
        !cleaned.is_empty(),
        "edge line of enclosing rect must contain proc"
    );
    Some(Setup {
        line: top,
        bottom,
        window,
        cleaned,
        col_ok,
        col_cleans,
    })
}

/// Which words of the window can feed each row-relative bucket `j`, per
/// kind of row: kind 0 for rows that clean the owner (every cell cleans),
/// kind `1 + slot` for the other rows of that slot's owner. Bit `i` of
/// `words[kind * chunks + c][j]` stands for window word `w_lo + 64 * c +
/// i`, and bit `j` of `any[kind]` for "some word can".
struct Feeds {
    chunks: usize,
    words: Vec<[u64; 4]>,
    any: Vec<u8>,
}

impl Feeds {
    fn new(s: &Setup, slots: usize) -> Feeds {
        let chunks = (s.window.w_hi - s.window.w_lo) / 64 + 1;
        let mut words = vec![[0u64; 4]; (1 + slots) * chunks];
        let mut any = vec![0u8; 1 + slots];
        for w in s.window.w_lo..=s.window.w_hi {
            let i = w - s.window.w_lo;
            for kind in 0..=slots {
                let cleans = if kind == 0 {
                    !0
                } else {
                    s.col_cleans[kind - 1][i]
                };
                let masks = split(s.window.mask(w), s.col_ok[i], cleans);
                for (j, &mask) in masks.iter().enumerate() {
                    if mask != 0 {
                        words[kind * chunks + i / 64][j] |= 1 << (i % 64);
                        any[kind] |= 1 << j;
                    }
                }
            }
        }
        Feeds { chunks, words, any }
    }

    /// Can some kind of row (dirty or not, cleaning or not) feed one of
    /// the `open` buckets of `slot`'s owner?
    #[inline]
    fn can_fill(&self, slot: usize, open: u8) -> bool {
        (open | open >> 2) & (self.any[0] | self.any[1 + slot]) != 0
    }

    /// The words of chunk `c` that rows of `kind` can feed into a bucket
    /// of `reach`.
    #[inline]
    fn useful(&self, kind: usize, c: usize, reach: u8) -> u64 {
        let words = &self.words[kind * self.chunks + c];
        (0..4).fold(0, |m, j| {
            m | (words[j] & 0u64.wrapping_sub(u64::from((reach >> j) & 1)))
        })
    }
}

/// Phase 1 for a push of `proc` whose displaced owners are `owners` (slot
/// order of [`Candidates::owner_targets`]): locate the cleaned line and
/// bucket the interior targets of each owner.
///
/// Word-parallel: within interior row `g` the bucket of an owner's cell
/// `h` is `base + j`, where `base = 2 * row_dirty` is a row constant and
/// `j = 2 * !col_ok[h] + !cleans[h]` comes from two column masks (with
/// `cleans` forced on when removing the cell empties the owner's row). So
/// the four buckets a row can reach are four AND-combinations of the
/// owner's plane word, and bits are extracted only from buckets still
/// below `cap`. Rows ascend, and words and bits ascend within a row, so
/// per bucket the candidates arrive in `(g, h)` order exactly as a
/// cell-by-cell scan would deliver them, and each bucket keeps the same
/// first `cap` entries.
pub(crate) fn collect<G: LineGrid>(grid: &G, proc: u8, owners: Vec<u8>) -> Option<Candidates> {
    let s = setup(grid, proc, &owners)?;
    let feeds = Feeds::new(&s, owners.len());
    // Reading a line's summary costs about one word read, so it pays off
    // only when the window holds three words or more.
    let buckets = if s.window.w_hi - s.window.w_lo >= 2 {
        sweep_summarized(grid, proc, &owners, &s, &feeds)
    } else {
        sweep_words(grid, proc, &owners, &s, &feeds)
    };
    Some(Candidates {
        line: s.line,
        cleaned: s.cleaned,
        owners,
        owner_targets: buckets.into_iter().map(|b| b.concat()).collect(),
    })
}

/// Each owner slot's six buckets, best first.
type Buckets = Vec<[Vec<(usize, usize)>; 6]>;

/// The row sweep of a window of one or two words: it reads every word of
/// the window while the row still reaches an open bucket, and stops once
/// no kind of row can feed any owner's open buckets.
fn sweep_words<G: LineGrid>(
    grid: &G,
    proc: u8,
    owners: &[u8],
    s: &Setup,
    feeds: &Feeds,
) -> Buckets {
    let cap = s.cleaned.len() + 64;
    let mut buckets: Buckets = owners.iter().map(|_| Default::default()).collect();
    // Buckets below `cap`, one bit per bucket, per owner slot.
    let mut open: Vec<u8> = vec![0b11_1111; owners.len()];
    // Owners some kind of row can still feed an open bucket of.
    let mut live = owners.len();
    for g in (s.line + 1)..=s.bottom {
        let base = if grid.row_has(proc, g) { 0 } else { 2 };
        for (slot, &owner) in owners.iter().enumerate() {
            let row_cleans = grid.row_count(owner, g) == 1;
            let kind = if row_cleans { 0 } else { 1 + slot };
            // The four buckets reachable in this row that are still open
            // and that some column can feed.
            let mut reach = (open[slot] >> base) & feeds.any[kind];
            for w in s.window.w_lo..=s.window.w_hi {
                if reach == 0 {
                    break;
                }
                let word = grid.line_word(owner, g, w) & s.window.mask(w);
                if word == 0 {
                    continue;
                }
                let i = w - s.window.w_lo;
                let cleans = if row_cleans {
                    !0
                } else {
                    s.col_cleans[slot][i]
                };
                let masks = split(word, s.col_ok[i], cleans);
                let filled = push_bits(&mut buckets[slot][base..], masks, reach, (g, w), cap);
                if filled != 0 {
                    reach &= !filled;
                    open[slot] &= !(filled << base);
                    live -= usize::from(!feeds.can_fill(slot, open[slot]));
                }
            }
        }
        if live == 0 {
            break;
        }
    }
    buckets
}

/// The row sweep of a window of three words or more. It reads only the
/// words that the grid's summary marks nonzero and whose columns can feed
/// a bucket the row still reaches, and drops an owner once no kind of row
/// can feed any of its open buckets.
fn sweep_summarized<G: LineGrid>(
    grid: &G,
    proc: u8,
    owners: &[u8],
    s: &Setup,
    feeds: &Feeds,
) -> Buckets {
    let cap = s.cleaned.len() + 64;
    let mut buckets: Buckets = owners.iter().map(|_| Default::default()).collect();
    // Buckets below `cap`, one bit per bucket, per owner slot.
    let mut open: Vec<u8> = vec![0b11_1111; owners.len()];
    // The slots whose owner some kind of row can still feed an open
    // bucket of, one bit per slot (k <= 64).
    let mut live: u64 = (1 << owners.len()) - 1;
    for g in (s.line + 1)..=s.bottom {
        let base = if grid.row_has(proc, g) { 0 } else { 2 };
        let mut slots = live;
        while slots != 0 {
            let slot = slots.trailing_zeros() as usize;
            slots &= slots - 1;
            let owner = owners[slot];
            let row_cleans = grid.row_count(owner, g) == 1;
            let kind = if row_cleans { 0 } else { 1 + slot };
            // The four buckets reachable in this row that are still open
            // and that some column can feed.
            let mut reach = (open[slot] >> base) & feeds.any[kind];
            for c in 0..feeds.chunks {
                if reach == 0 {
                    break;
                }
                let w0 = s.window.w_lo + 64 * c;
                let mut words = grid.nonzero_words(owner, g, w0) & feeds.useful(kind, c, reach);
                while words != 0 {
                    let w = w0 + words.trailing_zeros() as usize;
                    words &= words - 1;
                    let word = grid.line_word(owner, g, w) & s.window.mask(w);
                    let i = w - s.window.w_lo;
                    let cleans = if row_cleans {
                        !0
                    } else {
                        s.col_cleans[slot][i]
                    };
                    let masks = split(word, s.col_ok[i], cleans);
                    let filled = push_bits(&mut buckets[slot][base..], masks, reach, (g, w), cap);
                    if filled != 0 {
                        reach &= !filled;
                        open[slot] &= !(filled << base);
                        words &= feeds.useful(kind, c, reach);
                        if !feeds.can_fill(slot, open[slot]) {
                            live &= !(1 << slot);
                        }
                    }
                }
            }
        }
        if live == 0 {
            break;
        }
    }
    buckets
}

/// Push the bits of row `g`'s plane word `w`, split by row-relative
/// bucket `j` into `masks`, onto the reachable buckets `row[j]` below
/// `cap`, lowest bit first. Returns the buckets that filled.
#[inline(always)]
fn push_bits(
    row: &mut [Vec<(usize, usize)>],
    masks: [u64; 4],
    reach: u8,
    (g, w): (usize, usize),
    cap: usize,
) -> u8 {
    let mut filled = 0;
    for (j, (bucket, &mask)) in row.iter_mut().zip(&masks).enumerate() {
        if (reach >> j) & 1 == 0 || mask == 0 {
            continue;
        }
        let mut bits = mask;
        while bits != 0 && bucket.len() < cap {
            bucket.push((g, w * 64 + bits.trailing_zeros() as usize));
            bits &= bits - 1;
        }
        if bucket.len() == cap {
            filled |= 1 << j;
        }
    }
    filled
}

/// Split `word` into the four row-relative bucket masks,
/// `j = 2·¬ok + ¬cleans`.
#[inline]
fn split(word: u64, ok: u64, cleans: u64) -> [u64; 4] {
    [
        word & ok & cleans,
        word & ok & !cleans,
        word & !ok & cleans,
        word & !ok & !cleans,
    ]
}

/// The per-bit sweep [`collect`] replaced: every set bit of every owner's
/// plane over the whole interior, one bucket decision each. Kept as the
/// test oracle for the word-parallel classifier.
#[cfg(test)]
pub(crate) fn collect_reference<G: LineGrid>(
    grid: &G,
    proc: u8,
    owners: Vec<u8>,
) -> Option<Candidates> {
    let s = setup(grid, proc, &owners)?;
    let cap = s.cleaned.len() + 64;
    let mut buckets: Vec<[Vec<(usize, usize)>; 6]> =
        owners.iter().map(|_| Default::default()).collect();
    for g in (s.line + 1)..=s.bottom {
        let row_dirty = usize::from(!grid.row_has(proc, g));
        for (slot, &owner) in owners.iter().enumerate() {
            let row_cleans = grid.row_count(owner, g) == 1;
            for w in s.window.w_lo..=s.window.w_hi {
                let mut bits = grid.line_word(owner, g, w) & s.window.mask(w);
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let i = w - s.window.w_lo;
                    let cost = row_dirty + usize::from((s.col_ok[i] >> b) & 1 == 0);
                    let cleans = row_cleans || (s.col_cleans[slot][i] >> b) & 1 == 1;
                    let vec = &mut buckets[slot][cost * 2 + usize::from(!cleans)];
                    if vec.len() < cap {
                        vec.push((g, w * 64 + b));
                    }
                }
            }
        }
    }
    Some(Candidates {
        line: s.line,
        cleaned: s.cleaned,
        owners,
        owner_targets: buckets.into_iter().map(|b| b.concat()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Direction;
    use crate::view::View;
    use hetmmm_partition::{random_partition, NPartition, Partition, Proc, Ratio};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Grid sizes around the 64-bit word boundaries.
    const SIZES: [usize; 6] = [7, 63, 64, 65, 100, 130];

    /// A seeded partition whose R and S cells fill a random sub-rectangle,
    /// P everywhere else. Half the time the sub-rectangle sits inside one
    /// plane word; otherwise its edges fall anywhere, mid-word included.
    fn boxed_partition(n: usize, seed: u64) -> Partition {
        let mut rng = StdRng::seed_from_u64(seed);
        let top = rng.random_range(0..n);
        let bottom = rng.random_range(top..n);
        let left = rng.random_range(0..n);
        let right = if rng.random_bool(0.5) {
            rng.random_range(left..n.min(left / 64 * 64 + 64))
        } else {
            rng.random_range(left..n)
        };
        let density = rng.random_range(2u64..=9);
        Partition::from_fn(n, |i, j| {
            if !(top..=bottom).contains(&i) || !(left..=right).contains(&j) {
                return Proc::P;
            }
            match rng.random_range(0..10u64) {
                d if d < density / 2 => Proc::S,
                d if d < density => Proc::R,
                _ => Proc::P,
            }
        })
    }

    /// Classifier and per-bit oracle agree, element for element, for
    /// every (pushable proc, direction) of `part`.
    fn check_all(part: &Partition, seed: u64) {
        for proc in Proc::PUSHABLE {
            let (p, owners) = (proc.q(), proc.others().map(Proc::q));
            for dir in Direction::ALL {
                let mut real = part.clone();
                let view = View::new(real.grid_mut(), dir);
                prop_assert_eq!(
                    collect(&view, p, owners.to_vec()),
                    collect_reference(&view, p, owners.to_vec()),
                    "view: seed {} {} {}",
                    seed,
                    proc,
                    dir
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random sub-rectangle partitions at every word-boundary size.
        #[test]
        fn classifier_matches_per_bit_oracle(seed in 0u64..1_000_000, size in 0usize..6) {
            check_all(&boxed_partition(SIZES[size], seed), seed);
        }

        /// Full-grid random starts, as the DFA sees them.
        #[test]
        fn classifier_matches_oracle_on_random_starts(seed in 0u64..1_000_000, size in 0usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            check_all(&random_partition(SIZES[size], Ratio::new(3, 2, 1), &mut rng), seed);
        }
    }

    /// Line queries of no real partition, chosen so that every bucket of
    /// every owner fills, densest owner first: owner `o` holds every
    /// `o`-th cell of each row; the active processor 0 holds one cell of
    /// the top row (`cap` = 65), misses every third row and column; every
    /// fifth row and every fourth column (shifted by owner) cleans.
    struct Dense {
        n: usize,
    }

    impl LineGrid for Dense {
        fn row_has(&self, proc: u8, u: usize) -> bool {
            proc != 0 || u % 3 != 0
        }
        fn row_count(&self, _: u8, u: usize) -> u32 {
            if u % 5 == 0 {
                1
            } else {
                2
            }
        }
        fn col_count(&self, proc: u8, v: usize) -> u32 {
            match proc {
                0 => u32::from(v % 3 != 0) * 2,
                o if (v + o as usize) % 4 == 0 => 1,
                _ => 3,
            }
        }
        fn enclosing_rect(&self, _: u8) -> Option<(usize, usize, usize, usize)> {
            Some((0, self.n - 1, 0, self.n - 1))
        }
        fn line_word(&self, proc: u8, u: usize, w: usize) -> u64 {
            (0..64)
                .map(|b| w * 64 + b)
                .filter(|&h| h < self.n)
                .filter(|&h| match proc {
                    0 => u == 0 && h == 1,
                    o => h % o as usize == 0,
                })
                .fold(0, |word, h| word | 1 << (h % 64))
        }
    }

    /// Owners fill one after another, and the sweep may stop only when
    /// the last one is full.
    #[test]
    fn sweep_stops_only_when_every_owner_is_full() {
        let grid = Dense { n: 130 };
        let owners = [1u8, 2, 5];
        let got = collect(&grid, 0, owners.to_vec()).expect("a 130-line rect");
        for targets in &got.owner_targets {
            assert_eq!(targets.len(), 6 * 65, "every bucket full");
        }
        assert_eq!(Some(got), collect_reference(&grid, 0, owners.to_vec()));
    }

    /// At N = 130 every owner has far more interior cells than
    /// `cap = m + 64`, so the cap truncates buckets (and the sweep stops
    /// early); the result must still match the oracle exactly.
    #[test]
    fn cap_truncation_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut part = random_partition(130, Ratio::new(2, 1, 1), &mut rng);
        let view = View::new(part.grid_mut(), Direction::Down);
        let owners = Proc::R.others().map(Proc::q);
        let got = collect(&view, Proc::R.q(), owners.to_vec()).expect("R has a 2-line rect");
        let cap = got.cleaned.len() + 64;
        for (slot, &owner) in owners.iter().enumerate() {
            let interior = (got.line + 1..130)
                .map(|g| view.row_count(owner, g) as usize)
                .sum::<usize>();
            assert!(
                got.owner_targets[slot].len() < interior,
                "{owner}: the cap must drop candidates"
            );
            assert!(got.owner_targets[slot].len() <= 6 * cap);
        }
        assert_eq!(
            Some(got),
            collect_reference(&view, Proc::R.q(), owners.to_vec())
        );
    }

    /// Cell-by-cell oracle for [`prepare`], written from the bucket
    /// definition: scan the rectangle interior in `(g, h)` order, bucket
    /// each displaced owner's cell by the active side's dirty cost and the
    /// owner's cleaning bonus, and keep each bucket's first `m + 64`.
    fn prepare_reference(view: &View, proc: u8, k: usize) -> Option<Candidates> {
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
            owners,
            owner_targets: buckets.into_iter().map(|b| b.concat()).collect(),
        })
    }

    /// Past 4096 columns a window holds more than 64 plane words, so the
    /// sweep reads the nonzero-word summary 64 words at a time; the result
    /// must still equal the cell oracle in every direction.
    #[test]
    fn wide_window_matches_cell_oracle() {
        let n = 4200;
        let mut rng = StdRng::seed_from_u64(11);
        let mut part = NPartition::new(n, 3);
        for i in 10..=13 {
            for j in 0..n {
                match rng.random_range(0..8u32) {
                    0..=2 => part.set(i, j, 1),
                    3 => part.set(i, j, 2),
                    _ => 0,
                };
            }
        }
        for proc in 1..3u8 {
            for dir in Direction::ALL {
                let mut real = part.clone();
                let view = View::new(&mut real, dir);
                assert_eq!(
                    prepare(&view, proc, 3),
                    prepare_reference(&view, proc, 3),
                    "view: {proc} {dir:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The word-parallel classifier behind `prepare` equals the
        /// cell-by-cell oracle for every (pushable proc, direction), for
        /// k = 2..=6 at sizes
        /// around the 64-bit word boundaries — on full-grid random starts
        /// and on partitions boxed into a sub-rectangle, whose edges fall
        /// mid-word or inside a single word. At N ≥ 63 the buckets
        /// overflow `cap`, so truncation is exercised too.
        #[test]
        fn n_prepare_matches_cell_oracle(seed in 0u64..1_000_000, k in 2usize..=6, size in 0usize..6) {
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
                for dir in Direction::ALL {
                    let mut real = part.clone();
                    let view = View::new(&mut real, dir);
                    prop_assert_eq!(prepare(&view, proc, k), prepare_reference(&view, proc, k), "view: seed {} k {} n {} proc {} {:?}", seed, k, n, proc, dir);
                }
            }
        }
    }
}
