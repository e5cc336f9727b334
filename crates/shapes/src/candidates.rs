//! The six candidate canonical partition shapes (Section IX, Figs. 10–12).
//!
//! All six place the two slower processors in rectangular (asymptotically
//! rectangular at finite `N`) regions and give the fastest processor `P` the
//! remainder:
//!
//! 1. **Square-Corner** (Type 1A, Fig. 11 left): R and S squares in
//!    diagonally opposite corners. Feasible only when the squares fit without
//!    overlap — Theorem 9.1, `P_r > 2√(R_r S_r)` in ratio terms.
//! 2. **Rectangle-Corner** (Type 1B, Fig. 11 right): two corner rectangles of
//!    combined width `N`; aspect chosen by the Eq. 13 perimeter minimizer.
//! 3. **Square-Rectangle** (Type 3, Fig. 12): one full-height rectangle, the
//!    other processor a square in a corner of the remainder.
//! 4. **Block-Rectangle** (Type 4, Fig. 12): a full-width bottom strip split
//!    vertically between R and S with equal heights (the canonical
//!    improvement of Type 2, Section IX-B.2).
//! 5. **L-Rectangle** (Type 5, Fig. 12): a full-height rectangle plus a
//!    bottom strip spanning the remaining width, leaving P an "L".
//! 6. **Traditional-Rectangle** (Type 6, Fig. 12): the classical rectangular
//!    heterogeneous partition — R and S stacked in one column band
//!    (`S_x1 = R_x1`), P a full-height block.
//!
//! Constructors are **exact-area**: each processor receives precisely
//! `ratio.areas(n)` elements, with at most one ragged line per region (the
//! asymptotic-rectangularity allowance of Assumption 4). The `O(1/N)`
//! discrepancy between grid shapes and the paper's normalized real-valued
//! dimensions is covered by tolerance assertions in the tests.
//!
//! Every region is a full band plus at most one ragged line, so each
//! constructor is a handful of word-wise [`Partition::fill_rect`] calls.

use hetmmm_partition::{Partition, Proc, Ratio, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The six candidate types of Fig. 10, named as in Figs. 11–12.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CandidateType {
    /// Type 1A: two squares in diagonally opposite corners.
    SquareCorner,
    /// Type 1B: two non-square corner rectangles of combined width `N`.
    RectangleCorner,
    /// Type 3: full-height rectangle + corner square.
    SquareRectangle,
    /// Type 4 (canonical Type 2): bottom strip split vertically.
    BlockRectangle,
    /// Type 5: full-height rectangle + remaining-width bottom strip.
    LRectangle,
    /// Type 6: traditional rectangular partition.
    TraditionalRectangle,
}

impl CandidateType {
    /// All six candidates.
    pub const ALL: [CandidateType; 6] = [
        CandidateType::SquareCorner,
        CandidateType::RectangleCorner,
        CandidateType::SquareRectangle,
        CandidateType::BlockRectangle,
        CandidateType::LRectangle,
        CandidateType::TraditionalRectangle,
    ];

    /// The paper's name for this shape.
    pub fn paper_name(self) -> &'static str {
        match self {
            CandidateType::SquareCorner => "Square-Corner",
            CandidateType::RectangleCorner => "Rectangle-Corner",
            CandidateType::SquareRectangle => "Square-Rectangle",
            CandidateType::BlockRectangle => "Block-Rectangle",
            CandidateType::LRectangle => "L-Rectangle",
            CandidateType::TraditionalRectangle => "Traditional-Rectangle",
        }
    }

    /// Construct the canonical partition of this type, or `None` when the
    /// ratio makes the shape infeasible at this `n`.
    pub fn construct(self, n: usize, ratio: Ratio) -> Option<Candidate> {
        let areas = ratio.areas(n);
        self.construct_from_areas(n, areas[Proc::R.idx()], areas[Proc::S.idx()])
    }

    /// Construct from explicit element counts `∈R` and `∈S` (the remainder
    /// goes to `P`). Used by the archetype reductions, which must preserve
    /// the exact counts of an existing partition.
    pub fn construct_from_areas(self, n: usize, e_r: usize, e_s: usize) -> Option<Candidate> {
        if e_r == 0 || e_s == 0 || n < 2 || e_r + e_s > n * n {
            return None;
        }
        let part = match self {
            CandidateType::SquareCorner => square_corner(n, e_r, e_s)?,
            CandidateType::RectangleCorner => rectangle_corner(n, e_r, e_s)?,
            CandidateType::SquareRectangle => square_rectangle(n, e_r, e_s)?,
            CandidateType::BlockRectangle => block_rectangle(n, e_r, e_s)?,
            CandidateType::LRectangle => l_rectangle(n, e_r, e_s)?,
            CandidateType::TraditionalRectangle => traditional_rectangle(n, e_r, e_s)?,
        };
        debug_assert_eq!(part.elems(Proc::R), e_r, "{self:?} R area");
        debug_assert_eq!(part.elems(Proc::S), e_s, "{self:?} S area");
        Some(Candidate {
            ty: self,
            partition: part,
        })
    }
}

impl fmt::Display for CandidateType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.paper_name())
    }
}

/// A constructed candidate shape.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Which of the six types this is.
    pub ty: CandidateType,
    /// The exact-area grid realization.
    pub partition: Partition,
}

/// All candidate types feasible for `(n, ratio)`, constructed.
pub fn all_feasible(n: usize, ratio: Ratio) -> Vec<Candidate> {
    CandidateType::ALL
        .iter()
        .filter_map(|ty| ty.construct(n, ratio))
        .collect()
}

/// Theorem 9.1 in ratio form: both processors' squares fit without overlap
/// iff `√(R_r/T) + √(S_r/T) ≤ 1`, equivalently `P_r ≥ 2√(R_r S_r)`.
pub fn square_corner_feasible(ratio: Ratio) -> bool {
    let t = f64::from(ratio.total());
    (f64::from(ratio.r) / t).sqrt() + (f64::from(ratio.s) / t).sqrt() <= 1.0
}

// ---------------------------------------------------------------------------
// Exact-area fill primitives.
// ---------------------------------------------------------------------------

/// Fill `area` cells of `proc` into the column span `[left, right]`,
/// taking complete rows from the top (or bottom) edge inward; the final
/// partial row is anchored to the left (or right) end of the span. At most
/// two rect fills: the complete rows, then the ragged one.
fn fill_rows(
    part: &mut Partition,
    proc: Proc,
    area: usize,
    left: usize,
    right: usize,
    from_bottom: bool,
    ragged_at_left: bool,
) {
    let n = part.n();
    let width = right - left + 1;
    assert!(area <= n * width, "fill_rows ran out of rows");
    let (full, rest) = (area / width, area % width);
    // The `r`-th row counted from the filling edge.
    let row = |r: usize| if from_bottom { n - 1 - r } else { r };
    if full > 0 {
        let (a, b) = (row(0), row(full - 1));
        part.fill_rect(Rect::new(a.min(b), a.max(b), left, right), proc);
    }
    if rest > 0 {
        let (a, b) = if ragged_at_left {
            (left, left + rest - 1)
        } else {
            (right + 1 - rest, right)
        };
        part.fill_rect(Rect::new(row(full), row(full), a, b), proc);
    }
}

/// Column-major analogue of [`fill_rows`]: complete columns from the left
/// (or right) edge of the span inward, partial column anchored top or bottom.
fn fill_cols(
    part: &mut Partition,
    proc: Proc,
    area: usize,
    top: usize,
    bottom: usize,
    from_right: bool,
    ragged_at_top: bool,
) {
    let n = part.n();
    let height = bottom - top + 1;
    assert!(area <= n * height, "fill_cols ran out of columns");
    let (full, rest) = (area / height, area % height);
    // The `c`-th column counted from the filling edge.
    let col = |c: usize| if from_right { n - 1 - c } else { c };
    if full > 0 {
        let (a, b) = (col(0), col(full - 1));
        part.fill_rect(Rect::new(top, bottom, a.min(b), a.max(b)), proc);
    }
    if rest > 0 {
        let (a, b) = if ragged_at_top {
            (top, top + rest - 1)
        } else {
            (bottom + 1 - rest, bottom)
        };
        part.fill_rect(Rect::new(a, b, col(full), col(full)), proc);
    }
}

// ---------------------------------------------------------------------------
// The six constructors.
// ---------------------------------------------------------------------------

fn square_corner(n: usize, e_r: usize, e_s: usize) -> Option<Partition> {
    let s_r = (e_r as f64).sqrt().ceil() as usize;
    let s_s = (e_s as f64).sqrt().ceil() as usize;
    let h_r = e_r.div_ceil(s_r);
    let h_s = e_s.div_ceil(s_s);
    if s_r + s_s > n || h_r + h_s > n {
        return None;
    }
    let mut part = Partition::new(n, Proc::P);
    // R: top-left corner, width s_r, complete rows from the top.
    fill_rows(&mut part, Proc::R, e_r, 0, s_r - 1, false, true);
    // S: bottom-right corner, width s_s, complete rows from the bottom.
    fill_rows(&mut part, Proc::S, e_s, n - s_s, n - 1, true, false);
    Some(part)
}

fn rectangle_corner(n: usize, e_r: usize, e_s: usize) -> Option<Partition> {
    // Combined width exactly N (the Eq. 13 boundary x + y ≈ 1); choose the
    // split minimizing the combined perimeter, i.e. the combined height.
    let mut best: Option<(usize, usize, usize)> = None; // (w_r, h_r, h_s)
    for w_r in 1..n {
        let w_s = n - w_r;
        let h_r = e_r.div_ceil(w_r);
        let h_s = e_s.div_ceil(w_s);
        if h_r >= n || h_s >= n {
            // Each rectangle must be shorter than the matrix (a full-height
            // slab would be a Type 3/6 shape, not a corner rectangle).
            continue;
        }
        match best {
            Some((_, bh_r, bh_s)) if bh_r + bh_s <= h_r + h_s => {}
            _ => best = Some((w_r, h_r, h_s)),
        }
    }
    let (w_r, _, _) = best?;
    let mut part = Partition::new(n, Proc::P);
    // R: bottom-left, S: bottom-right.
    fill_rows(&mut part, Proc::R, e_r, 0, w_r - 1, true, true);
    fill_rows(&mut part, Proc::S, e_s, w_r, n - 1, true, false);
    Some(part)
}

fn square_rectangle(n: usize, e_r: usize, e_s: usize) -> Option<Partition> {
    // R: full-height rectangle on the left; S: square in the bottom-right
    // corner.
    let w_r = e_r.div_ceil(n);
    let s_s = (e_s as f64).sqrt().ceil() as usize;
    if w_r + s_s > n {
        return None;
    }
    let mut part = Partition::new(n, Proc::P);
    fill_cols(&mut part, Proc::R, e_r, 0, n - 1, false, false);
    fill_rows(&mut part, Proc::S, e_s, n - s_s, n - 1, true, false);
    Some(part)
}

fn block_rectangle(n: usize, e_r: usize, e_s: usize) -> Option<Partition> {
    // Bottom strip split vertically with (near-)equal heights — the
    // canonical Type 4 form R_height = S_height (Section IX-B.2). The width
    // split is proportional to the areas so the two block heights agree to
    // within one ragged row, keeping the fastest processor *out of the
    // strip rows* (the closed-form cost `(R_r+S_r)/T + 1` depends on strip
    // rows containing only R and S).
    let total = e_r + e_s;
    if total >= n * n {
        return None;
    }
    let w_r = ((n * e_r + total / 2) / total).clamp(1, n - 1);
    let w_s = n - w_r;
    let h_r = e_r.div_ceil(w_r);
    let h_s = e_s.div_ceil(w_s);
    if h_r >= n || h_s >= n {
        return None;
    }
    let mut part = Partition::new(n, Proc::P);
    fill_rows(&mut part, Proc::R, e_r, 0, w_r - 1, true, true);
    fill_rows(&mut part, Proc::S, e_s, w_r, n - 1, true, false);
    Some(part)
}

fn l_rectangle(n: usize, e_r: usize, e_s: usize) -> Option<Partition> {
    // R: full-height rectangle on the right; S: bottom strip spanning the
    // remaining width. P's region is a rectangle (up to the ragged lines);
    // the "L" is the R+S band wrapping the bottom-right corner.
    let w_r = e_r.div_ceil(n);
    if w_r >= n {
        return None;
    }
    let rem_w = n - w_r;
    let h_s = e_s.div_ceil(rem_w);
    if h_s > n {
        return None;
    }
    let mut part = Partition::new(n, Proc::P);
    fill_cols(&mut part, Proc::R, e_r, 0, n - 1, true, false);
    fill_rows(&mut part, Proc::S, e_s, 0, rem_w - 1, true, true);
    Some(part)
}

fn traditional_rectangle(n: usize, e_r: usize, e_s: usize) -> Option<Partition> {
    // One column band on the right holding R (top) stacked over S (bottom);
    // P a full-height block on the left: the classical rectangular layout
    // with S_x1 = R_x1.
    //
    // Discretization care: the band's spare cells (⌈total/N⌉·N − total < N
    // of them) must NOT form whole P rows inside the band — a single gap
    // row makes every band column host three processors and costs a
    // *constant* extra (R_r+S_r)/T of normalized VoC. The band is filled
    // per column (R top, S bottom, columns meeting exactly), with all
    // spare cells confined to the single leftmost band column, which keeps
    // the discretization penalty at O(1/N).
    let total = e_r + e_s;
    if total >= n * n {
        return None;
    }
    let w = total.div_ceil(n);
    let left = n - w;
    let mut part = Partition::new(n, Proc::P);

    if w == 1 {
        // Single-column band: R on top, S at the bottom, gap between.
        stack(&mut part, (left, left), e_r, e_s);
        return Some(part);
    }

    // Complete columns left+1..n-1 are split R-over-S with no gap; the
    // slack column `left` takes the remainders and the spare cells. The
    // split aims for r_last ≈ e_r/w so each region's raggedness stays
    // near its own boundary row; when the slack column has little room
    // (cap = total − (w−1)·N small) one region keeps a short stub column —
    // a two-line ragged shape the tolerant classifier still groups as A.
    let complete = w - 1;
    let cap = total - complete * n; // R∪S cells the slack column holds
    debug_assert!(cap >= 1 && cap <= n);
    let r_nat = (e_r + w / 2) / w;
    let mut r_last = r_nat.min(cap).min(e_r);
    let s_last = cap - r_last;
    if s_last > e_s {
        r_last = cap - e_s;
    }
    let s_last = cap - r_last;
    let t_total = e_r - r_last;
    if t_total > complete * n || s_last > e_s {
        return None; // degenerate sizing
    }
    let t_base = t_total / complete;
    let t_extra = t_total % complete;
    debug_assert_eq!(complete * n - t_total, e_s - s_last);

    // Columns `left + 1 ..= left + t_extra` hold `t_base + 1` R rows, the
    // rest `t_base`: the +1 columns sit adjacent to the slack column so R's
    // ragged boundary row stays contiguous. S fills each column below R.
    let split = left + 1 + t_extra;
    for (cols, t_j) in [(left + 1..split, t_base + 1), (split..n, t_base)] {
        if !cols.is_empty() {
            stack(&mut part, (cols.start, cols.end - 1), t_j, n - t_j);
        }
    }
    stack(&mut part, (left, left), r_last, s_last);
    Some(part)
}

/// Fill the columns `cols` (inclusive) with `r` rows of R from the top
/// and `s` rows of S from the bottom.
fn stack(part: &mut Partition, (c0, c1): (usize, usize), r: usize, s: usize) {
    let n = part.n();
    if r > 0 {
        part.fill_rect(Rect::new(0, r - 1, c0, c1), Proc::R);
    }
    if s > 0 {
        part.fill_rect(Rect::new(n - s, n - 1, c0, c1), Proc::S);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::Archetype;
    use crate::region::RegionProfile;

    fn ratios() -> Vec<Ratio> {
        Ratio::paper_ratios()
    }

    #[test]
    fn exact_areas_for_all_types_and_ratios() {
        for ratio in ratios() {
            for n in [20usize, 33, 50] {
                let areas = ratio.areas(n);
                for ty in CandidateType::ALL {
                    if let Some(c) = ty.construct(n, ratio) {
                        assert_eq!(
                            c.partition.elems(Proc::R),
                            areas[Proc::R.idx()],
                            "{ty} {ratio} n={n}"
                        );
                        assert_eq!(
                            c.partition.elems(Proc::S),
                            areas[Proc::S.idx()],
                            "{ty} {ratio} n={n}"
                        );
                        c.partition.assert_invariants();
                    }
                }
            }
        }
    }

    #[test]
    fn regions_are_rect_like() {
        for ratio in ratios() {
            for ty in CandidateType::ALL {
                if let Some(c) = ty.construct(40, ratio) {
                    for proc in [Proc::R, Proc::S] {
                        let prof = RegionProfile::new(&c.partition, proc);
                        let fill =
                            c.partition.elems(proc) as f64 / prof.rect.unwrap().area() as f64;
                        // Strictly one-line ragged, or (for the slack-column
                        // Traditional-Rectangle cases) dense two-line ragged.
                        assert!(
                            prof.is_rect_like() || fill > 0.85,
                            "{ty} {ratio}: {proc} region kind {:?} fill {fill:.3}",
                            prof.kind
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_classify_as_archetype_a() {
        use crate::archetype::classify_tolerant;
        for ratio in ratios() {
            for c in all_feasible(48, ratio) {
                // Strict classification where the discretization allows it,
                // tolerant for the slack-column Traditional-Rectangle cases.
                let arch = classify_tolerant(&c.partition);
                assert_eq!(arch, Archetype::A, "{} at {ratio} classified {arch}", c.ty);
            }
        }
    }

    #[test]
    fn square_corner_feasibility_matches_theorem_9_1() {
        // Grid feasibility at large n should agree with the ratio-form
        // condition except within O(1/n) of the boundary.
        for ratio in ratios() {
            let analytic = square_corner_feasible(ratio);
            let grid = CandidateType::SquareCorner.construct(200, ratio).is_some();
            let t = f64::from(ratio.total());
            let margin =
                ((f64::from(ratio.r) / t).sqrt() + (f64::from(ratio.s) / t).sqrt() - 1.0).abs();
            if margin > 0.05 {
                assert_eq!(analytic, grid, "ratio {ratio}");
            }
        }
    }

    #[test]
    fn square_corner_infeasible_when_slow_procs_dominate() {
        // 2:2:1 → √(2/5) + √(1/5) ≈ 1.08 > 1: infeasible.
        assert!(!square_corner_feasible(Ratio::new(2, 2, 1)));
        assert!(CandidateType::SquareCorner
            .construct(100, Ratio::new(2, 2, 1))
            .is_none());
        // 10:1:1 → √(1/12) + √(1/12) ≈ 0.58: feasible.
        assert!(square_corner_feasible(Ratio::new(10, 1, 1)));
        assert!(CandidateType::SquareCorner
            .construct(100, Ratio::new(10, 1, 1))
            .is_some());
    }

    #[test]
    fn block_rectangle_strip_geometry() {
        let c = CandidateType::BlockRectangle
            .construct(40, Ratio::new(2, 1, 1))
            .unwrap();
        let rr = c.partition.enclosing_rect(Proc::R).unwrap();
        let rs = c.partition.enclosing_rect(Proc::S).unwrap();
        // Both sit in the bottom strip of height ⌈(eR+eS)/n⌉ = 20.
        assert_eq!(rr.top, 20);
        assert_eq!(rs.top, 20);
        assert_eq!(rr.bottom, 39);
        assert_eq!(rs.bottom, 39);
        assert!(rr.right < rs.left);
    }

    #[test]
    fn traditional_rectangle_is_fully_rectangular() {
        // With a ratio whose areas divide evenly, all three processors are
        // exact rectangles. 2:1:1 at n=40: eR=400, eS=400, band w=20,
        // h_r = h_s = 20.
        let c = CandidateType::TraditionalRectangle
            .construct(40, Ratio::new(2, 1, 1))
            .unwrap();
        assert!(c.partition.is_exact_rect(Proc::R));
        assert!(c.partition.is_exact_rect(Proc::S));
        assert!(c.partition.is_exact_rect(Proc::P));
    }

    #[test]
    fn l_rectangle_geometry() {
        let c = CandidateType::LRectangle
            .construct(40, Ratio::new(2, 1, 1))
            .unwrap();
        let rr = c.partition.enclosing_rect(Proc::R).unwrap();
        // R is full height on the right.
        assert_eq!((rr.top, rr.bottom), (0, 39));
        assert_eq!(rr.right, 39);
        let rs = c.partition.enclosing_rect(Proc::S).unwrap();
        // S hugs the bottom of the remaining width.
        assert_eq!(rs.bottom, 39);
        assert!(rs.right < rr.left);
    }

    #[test]
    fn rectangle_corner_spans_full_width() {
        let c = CandidateType::RectangleCorner
            .construct(40, Ratio::new(5, 2, 1))
            .unwrap();
        let rr = c.partition.enclosing_rect(Proc::R).unwrap();
        let rs = c.partition.enclosing_rect(Proc::S).unwrap();
        assert_eq!(rr.left, 0);
        assert_eq!(rs.right, 39);
        assert_eq!(rr.right + 1, rs.left);
        assert_eq!(rr.bottom, 39);
        assert_eq!(rs.bottom, 39);
    }

    #[test]
    fn all_feasible_nonempty_and_sc_gated() {
        for ratio in ratios() {
            let feasible = all_feasible(60, ratio);
            assert!(feasible.len() >= 4, "too few feasible shapes for {ratio}");
            let has_sc = feasible.iter().any(|c| c.ty == CandidateType::SquareCorner);
            if !square_corner_feasible(ratio) {
                assert!(!has_sc, "{ratio}");
            }
        }
    }
}
