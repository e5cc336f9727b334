//! Coarse rendering of partitions, in the style of the paper's Fig. 7.
//!
//! Fig. 7 shows DFA snapshots at 1/100th granularity: every rendered cell is
//! a `100 x 100` block of matrix elements colored by the processor owning
//! the *majority* of elements in the block. [`render_ascii`] reproduces that
//! with letters (`P`, `R`, `S`), and [`render_pgm`] writes a portable
//! graymap for external viewing.

use crate::grid::Partition;
use crate::proc_::Proc;

/// Majority owner of the block of cells `[i0, i1) x [j0, j1)`, ties to
/// the lower `q`. Each row's count of an owner is a masked popcount of
/// its plane words over the block's columns; `P` holds the rest.
fn majority_owner(part: &Partition, i0: usize, i1: usize, j0: usize, j1: usize) -> Proc {
    let (w0, w1) = (j0 / 64, (j1 - 1) / 64);
    let mask = |w: usize| {
        let lo = if w == w0 { !0u64 << (j0 % 64) } else { !0 };
        let hi = if w == w1 && j1 % 64 != 0 {
            (1u64 << (j1 % 64)) - 1
        } else {
            !0
        };
        lo & hi
    };
    let mut counts = [0usize; 3];
    for i in i0..i1 {
        for proc in Proc::PUSHABLE {
            counts[proc.idx()] += (w0..=w1)
                .map(|w| (part.row_plane_word(proc, i, w) & mask(w)).count_ones() as usize)
                .sum::<usize>();
        }
    }
    counts[Proc::P.idx()] = (i1 - i0) * (j1 - j0) - counts[Proc::R.idx()] - counts[Proc::S.idx()];
    let mut best = 0;
    for k in 1..3 {
        if counts[k] > counts[best] {
            best = k;
        }
    }
    Proc::from_q(best as u8)
}

/// Render the partition as `blocks x blocks` characters, one per
/// majority-owner block (Fig. 7 uses `blocks = 10` for `N = 1000`, i.e.
/// 1/100th granularity).
///
/// `blocks` is clamped to `n`, so small matrices render at full resolution.
pub fn render_ascii(part: &Partition, blocks: usize) -> String {
    let n = part.n();
    let blocks = blocks.clamp(1, n);
    let mut out = String::with_capacity(blocks * (blocks + 1));
    for bi in 0..blocks {
        let i0 = bi * n / blocks;
        let i1 = ((bi + 1) * n / blocks).max(i0 + 1);
        for bj in 0..blocks {
            let j0 = bj * n / blocks;
            let j1 = ((bj + 1) * n / blocks).max(j0 + 1);
            out.push(majority_owner(part, i0, i1, j0, j1).letter());
        }
        out.push('\n');
    }
    out
}

/// Render as an ASCII PGM image (P2), one pixel per matrix element:
/// `P` → white (255), `R` → mid gray (128), `S` → black (0) — matching the
/// paper's white/gray/black convention.
pub fn render_pgm(part: &Partition) -> String {
    let n = part.n();
    let mut out = String::with_capacity(n * n * 4 + 32);
    out.push_str(&format!("P2\n{n} {n}\n255\n"));
    for i in 0..n {
        for j in 0..n {
            let v = match part.get(i, j) {
                Proc::P => 255,
                Proc::R => 128,
                Proc::S => 0,
            };
            out.push_str(&format!("{v} "));
        }
        out.push('\n');
    }
    out
}

/// Downsample to a `blocks x blocks` partition of majority owners — the
/// granularity at which the paper's figures (and, evidently, its shape
/// grouping) view a partition. Used by the coarse archetype classifier.
pub fn downsample(part: &Partition, blocks: usize) -> Partition {
    let n = part.n();
    let blocks = blocks.clamp(1, n);
    Partition::from_fn(blocks, |bi, bj| {
        let i0 = bi * n / blocks;
        let i1 = ((bi + 1) * n / blocks).max(i0 + 1);
        let j0 = bj * n / blocks;
        let j1 = ((bj + 1) * n / blocks).max(j0 + 1);
        majority_owner(part, i0, i1, j0, j1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    #[test]
    fn full_resolution_render() {
        let mut part = Partition::new(3, Proc::P);
        part.set(0, 0, Proc::R);
        part.set(2, 2, Proc::S);
        let s = render_ascii(&part, 3);
        assert_eq!(s, "RPP\nPPP\nPPS\n");
    }

    #[test]
    fn downsampled_render_majority() {
        // 4x4 with R filling the top-left 2x2 quadrant exactly.
        let mut part = Partition::new(4, Proc::P);
        part.fill_rect(Rect::new(0, 1, 0, 1), Proc::R);
        let s = render_ascii(&part, 2);
        assert_eq!(s, "RP\nPP\n");
    }

    #[test]
    fn blocks_clamped_to_n() {
        let part = Partition::new(2, Proc::P);
        let s = render_ascii(&part, 100);
        assert_eq!(s, "PP\nPP\n");
    }

    #[test]
    fn pgm_header_and_size() {
        let part = Partition::new(2, Proc::S);
        let s = render_pgm(&part);
        assert!(s.starts_with("P2\n2 2\n255\n"));
        let pixels: Vec<&str> = s
            .lines()
            .skip(3)
            .flat_map(|l| l.split_whitespace())
            .collect();
        assert_eq!(pixels.len(), 4);
        assert!(pixels.iter().all(|&p| p == "0"));
    }
}
