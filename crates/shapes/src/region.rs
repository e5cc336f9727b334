//! Per-processor region analysis: contiguity, rectangularity, band profiles.
//!
//! The archetype definitions of Section VII are phrased in terms of each
//! processor's shape: *rectangular* (four corners), *L-shaped* (six corners),
//! *surround* (eight corners). Assumption 4 of Section IV declares a shape
//! "rectangular" when it is **asymptotically rectangular** — at most a single
//! row or column on one side falls short of the enclosing rectangle's edge
//! (Fig. 3). [`RegionProfile`] computes everything the classifier needs.

use crate::corners::corner_count;
use hetmmm_partition::{Partition, Proc, Rect};
use serde::{Deserialize, Serialize};

/// Structural classification of a single processor's region.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RegionKind {
    /// The processor owns no elements.
    Empty,
    /// The region exactly fills its enclosing rectangle (4 corners).
    ExactRect,
    /// Asymptotically rectangular (Fig. 3): all missing cells of the
    /// enclosing rectangle lie in a single edge row or column.
    AsymptRect,
    /// A six-corner "L" (Archetype B's non-rectangular processor).
    LShape,
    /// Anything else; carries the exact corner count.
    Other,
}

/// One maximal run of consecutive occupied rows sharing an identical column
/// interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Band {
    /// First row of the band.
    pub top: usize,
    /// Last row of the band (inclusive).
    pub bottom: usize,
    /// Column interval `(first, last)` shared by every row of the band.
    pub cols: (usize, usize),
}

/// Full structural profile of one processor's region.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RegionProfile {
    /// The processor profiled.
    pub proc: Proc,
    /// `∈X`.
    pub elems: usize,
    /// Enclosing rectangle (`None` when empty).
    pub rect: Option<Rect>,
    /// Exact boundary vertex count.
    pub corners: usize,
    /// `true` when every occupied row's cells form one contiguous interval
    /// and there are no unoccupied rows inside the enclosing rectangle.
    pub row_contiguous: bool,
    /// Maximal constant-interval bands (empty when `row_contiguous` is
    /// `false`).
    pub bands: Vec<Band>,
    /// Structural kind.
    pub kind: RegionKind,
}

impl RegionProfile {
    /// Profile the region of `proc` within `part`: corners by the
    /// word-wise window scan, row intervals from the first and last set
    /// bits of each row's plane words.
    pub fn new(part: &Partition, proc: Proc) -> RegionProfile {
        let span = |i: usize, rect: Rect| row_span(part, proc, i, rect);
        RegionProfile::with_scans(part, proc, corner_count(part, proc), span)
    }

    /// The profile from `corners` and a row scan `span(i, rect)` giving
    /// the first and last column of `proc` in row `i` of its enclosing
    /// rectangle.
    fn with_scans(
        part: &Partition,
        proc: Proc,
        corners: usize,
        span: impl Fn(usize, Rect) -> Option<(usize, usize)>,
    ) -> RegionProfile {
        let elems = part.elems(proc);
        let rect = part.enclosing_rect(proc);
        let Some(rect) = rect else {
            return RegionProfile {
                proc,
                elems,
                rect: None,
                corners,
                row_contiguous: false,
                bands: Vec::new(),
                kind: RegionKind::Empty,
            };
        };

        // Per-row interval extraction.
        let mut row_contiguous = true;
        let mut intervals: Vec<Option<(usize, usize)>> = Vec::with_capacity(rect.height());
        for i in rect.top..=rect.bottom {
            let count = part.row_count(proc, i) as usize;
            let Some((first, last)) = span(i, rect) else {
                row_contiguous = false;
                intervals.push(None);
                continue;
            };
            if last - first + 1 != count {
                row_contiguous = false;
            }
            intervals.push(Some((first, last)));
        }

        let bands = if row_contiguous {
            let mut bands: Vec<Band> = Vec::new();
            // A contiguous profile has an interval in every row; gapped
            // rows (impossible here) would simply be skipped.
            let rows = intervals
                .iter()
                .enumerate()
                .filter_map(|(offset, interval)| interval.map(|cols| (offset, cols)));
            for (offset, cols) in rows {
                let i = rect.top + offset;
                match bands.last_mut() {
                    Some(b) if b.cols == cols && b.bottom + 1 == i => b.bottom = i,
                    _ => bands.push(Band {
                        top: i,
                        bottom: i,
                        cols,
                    }),
                }
            }
            bands
        } else {
            Vec::new()
        };

        let kind = Self::kind_of(part, proc, elems, rect, corners, row_contiguous, &bands);

        RegionProfile {
            proc,
            elems,
            rect: Some(rect),
            corners,
            row_contiguous,
            bands,
            kind,
        }
    }

    /// [`RegionProfile::new`] from the per-cell scans the word-wise ones
    /// replaced. The test oracle.
    #[cfg(test)]
    pub(crate) fn per_cell(part: &Partition, proc: Proc) -> RegionProfile {
        let corners = crate::corners::tests::corner_count_per_cell(part.grid(), proc.q());
        let span = |i: usize, rect: Rect| {
            let mut cols = (rect.left..=rect.right).filter(|&j| part.get(i, j) == proc);
            let first = cols.next()?;
            Some((first, cols.last().unwrap_or(first)))
        };
        RegionProfile::with_scans(part, proc, corners, span)
    }

    fn kind_of(
        part: &Partition,
        proc: Proc,
        elems: usize,
        rect: Rect,
        corners: usize,
        row_contiguous: bool,
        bands: &[Band],
    ) -> RegionKind {
        if elems == 0 {
            return RegionKind::Empty;
        }
        if rect.area() == elems {
            return RegionKind::ExactRect;
        }
        if missing_confined_to_edge_line(part, proc, rect) {
            return RegionKind::AsymptRect;
        }
        if corners == 6 && row_contiguous && is_l_bands(bands) {
            return RegionKind::LShape;
        }
        RegionKind::Other
    }

    /// Is the region rectangular in the paper's asymptotic sense
    /// (Assumption 4)?
    pub fn is_rect_like(&self) -> bool {
        matches!(self.kind, RegionKind::ExactRect | RegionKind::AsymptRect)
    }
}

/// First and last column of `proc` in row `i`, all of whose cells lie in
/// `rect`: the lowest and highest set bits of the row's plane words over
/// the rectangle's columns. `None` for a row without a cell of `proc`.
fn row_span(part: &Partition, proc: Proc, i: usize, rect: Rect) -> Option<(usize, usize)> {
    let words = rect.left / 64..=rect.right / 64;
    let word = |w: usize| part.row_plane_word(proc, i, w);
    let first = words
        .clone()
        .find_map(|w| (word(w) != 0).then(|| w * 64 + word(w).trailing_zeros() as usize))?;
    let last = words
        .rev()
        .find_map(|w| (word(w) != 0).then(|| w * 64 + 63 - word(w).leading_zeros() as usize))?;
    Some((first, last))
}

/// Are all cells of `rect` *not* owned by `proc` confined to a single edge
/// row or column of `rect`? (The Fig. 3 asymptotic-rectangularity test.)
fn missing_confined_to_edge_line(part: &Partition, proc: Proc, rect: Rect) -> bool {
    let total_missing = rect.area() - part.elems(proc);
    if total_missing == 0 {
        return true;
    }
    let missing_in_row = |i: usize| rect.width() - part.row_count(proc, i) as usize;
    let missing_in_col = |j: usize| rect.height() - part.col_count(proc, j) as usize;
    // NOTE: row/col counts are global, but for a *condensed* shape all of
    // proc's elements lie within the enclosing rectangle by definition, so
    // counting within the rect equals the global count.
    missing_in_row(rect.top) == total_missing
        || missing_in_row(rect.bottom) == total_missing
        || missing_in_col(rect.left) == total_missing
        || missing_in_col(rect.right) == total_missing
}

/// Two bands aligned on exactly one side form an "L".
fn is_l_bands(bands: &[Band]) -> bool {
    if bands.len() != 2 {
        return false;
    }
    let (a, b) = (bands[0].cols, bands[1].cols);
    let left_aligned = a.0 == b.0;
    let right_aligned = a.1 == b.1;
    (left_aligned ^ right_aligned) && a != b
}

/// Is the *union* of the R and S regions rectangle-like? (The paper observes
/// that in every experimentally found Archetype C, "if the shapes of
/// Processors R and S were viewed as one processor, they would be
/// rectangular", Section VII-F.)
pub fn union_rect_like(part: &Partition) -> bool {
    let rr = part.enclosing_rect(Proc::R);
    let rs = part.enclosing_rect(Proc::S);
    let bbox = match (rr, rs) {
        (Some(a), Some(b)) => Rect::new(
            a.top.min(b.top),
            a.bottom.max(b.bottom),
            a.left.min(b.left),
            a.right.max(b.right),
        ),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => return false,
    };
    let union_elems = part.elems(Proc::R) + part.elems(Proc::S);
    let total_missing = bbox.area().saturating_sub(union_elems);
    if total_missing == 0 {
        return true;
    }
    // Count non-union cells per edge line of the bbox.
    let missing_in_row = |i: usize| {
        (bbox.left..=bbox.right)
            .filter(|&j| part.get(i, j) == Proc::P)
            .count()
    };
    let missing_in_col = |j: usize| {
        (bbox.top..=bbox.bottom)
            .filter(|&i| part.get(i, j) == Proc::P)
            .count()
    };
    // All union cells must be inside the bbox (true by construction) and all
    // holes confined to one edge line.
    missing_in_row(bbox.top) == total_missing
        || missing_in_row(bbox.bottom) == total_missing
        || missing_in_col(bbox.left) == total_missing
        || missing_in_col(bbox.right) == total_missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::PartitionBuilder;

    #[test]
    fn exact_rect_profile() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(1, 4, 2, 5), Proc::R)
            .build();
        let p = RegionProfile::new(&part, Proc::R);
        assert_eq!(p.kind, RegionKind::ExactRect);
        assert!(p.is_rect_like());
        assert_eq!(p.corners, 4);
        assert_eq!(p.bands.len(), 1);
    }

    #[test]
    fn asympt_rect_partial_bottom_row() {
        // 4x4 rect minus the right half of its bottom row.
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 3, 0, 3), Proc::R)
            .rect(Rect::new(3, 3, 2, 3), Proc::P)
            .build();
        let p = RegionProfile::new(&part, Proc::R);
        assert_eq!(p.kind, RegionKind::AsymptRect);
        assert!(p.is_rect_like());
        assert_eq!(p.corners, 6);
    }

    #[test]
    fn asympt_rect_partial_side_column() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 5, 0, 2), Proc::S)
            .rect(Rect::new(0, 2, 2, 2), Proc::P)
            .build();
        let p = RegionProfile::new(&part, Proc::S);
        assert_eq!(p.kind, RegionKind::AsymptRect);
    }

    #[test]
    fn not_asympt_when_two_lines_ragged() {
        // Missing cells spread over two different edge lines (Fig. 3 right).
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 3, 0, 3), Proc::R)
            .rect(Rect::new(3, 3, 2, 3), Proc::P)
            .rect(Rect::new(0, 0, 3, 3), Proc::P)
            .build();
        let p = RegionProfile::new(&part, Proc::R);
        assert_eq!(p.kind, RegionKind::Other);
        assert!(!p.is_rect_like());
    }

    #[test]
    fn l_shape_profile() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 5, 0, 1), Proc::R)
            .rect(Rect::new(3, 5, 2, 5), Proc::R)
            .build();
        let p = RegionProfile::new(&part, Proc::R);
        assert_eq!(p.kind, RegionKind::LShape);
        assert_eq!(p.corners, 6);
        assert_eq!(p.bands.len(), 2);
    }

    #[test]
    fn disconnected_region_is_other() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 0, 0, 0), Proc::R)
            .rect(Rect::new(4, 5, 4, 5), Proc::R)
            .build();
        let p = RegionProfile::new(&part, Proc::R);
        assert_eq!(p.kind, RegionKind::Other);
        assert!(!p.row_contiguous, "row gap must be detected");
    }

    #[test]
    fn empty_region() {
        let part = Partition::new(4, Proc::P);
        let p = RegionProfile::new(&part, Proc::R);
        assert_eq!(p.kind, RegionKind::Empty);
        assert_eq!(p.rect, None);
    }

    #[test]
    fn union_rect_like_interlock() {
        // R and S interlock into a perfect rectangle.
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 3, 0, 3), Proc::R)
            .rect(Rect::new(2, 3, 2, 3), Proc::S)
            .rect(Rect::new(0, 1, 4, 5), Proc::S)
            .rect(Rect::new(0, 3, 4, 5), Proc::S)
            .build();
        assert!(union_rect_like(&part));
    }

    #[test]
    fn union_not_rect_like_when_separated() {
        let part = PartitionBuilder::new(8)
            .rect(Rect::new(0, 1, 0, 1), Proc::R)
            .rect(Rect::new(6, 7, 6, 7), Proc::S)
            .build();
        assert!(!union_rect_like(&part));
    }
}
