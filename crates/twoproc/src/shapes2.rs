//! The three surviving two-processor shapes of \[8\].

use hetmmm_partition::{Partition, Proc};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The candidate shapes of the two-processor study.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TwoProcShape {
    /// Classical 1D strips: the slow processor takes the bottom rows.
    StraightLine,
    /// The slow processor takes a square in the bottom-right corner.
    SquareCorner,
    /// The slow processor takes a corner rectangle of the given aspect:
    /// width is `num/den` of the square's side (a family between
    /// Straight-Line and Square-Corner).
    RectangleCorner {
        /// Width numerator.
        num: u32,
        /// Width denominator.
        den: u32,
    },
}

impl TwoProcShape {
    /// Construct the partition for a fast:slow speed ratio of
    /// `fast : slow`. The fast processor is `P`, the slow one `S`;
    /// `R` stays empty.
    pub fn construct(self, n: usize, fast: u32, slow: u32) -> Partition {
        assert!(fast >= slow && slow > 0, "need fast >= slow >= 1");
        let total = u64::from(fast) + u64::from(slow);
        let e_s = ((n * n) as u64 * u64::from(slow) / total) as usize;
        let mut part = Partition::new(n, Proc::P);
        match self {
            TwoProcShape::StraightLine => {
                fill_bottom_rows(&mut part, e_s);
            }
            TwoProcShape::SquareCorner => {
                let side = ((e_s as f64).sqrt().ceil() as usize).clamp(1, n);
                fill_corner_block(&mut part, e_s, side);
            }
            TwoProcShape::RectangleCorner { num, den } => {
                assert!(num > 0 && den > 0);
                let side = (e_s as f64).sqrt();
                let width = ((side * f64::from(num) / f64::from(den)).ceil() as usize).clamp(1, n);
                fill_corner_block(&mut part, e_s, width);
            }
        }
        part
    }
}

impl fmt::Display for TwoProcShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwoProcShape::StraightLine => write!(f, "Straight-Line"),
            TwoProcShape::SquareCorner => write!(f, "Square-Corner"),
            TwoProcShape::RectangleCorner { num, den } => {
                write!(f, "Rectangle-Corner({num}/{den})")
            }
        }
    }
}

/// Fill the bottom rows with `e_s` S elements (partial top row anchored
/// left).
fn fill_bottom_rows(part: &mut Partition, mut e_s: usize) {
    let n = part.n();
    for i in (0..n).rev() {
        if e_s == 0 {
            break;
        }
        let take = e_s.min(n);
        for j in 0..take {
            part.set(i, j, Proc::S);
        }
        e_s -= take;
    }
    assert_eq!(e_s, 0, "slow share exceeds matrix");
}

/// Fill a bottom-right corner block of the given width with `e_s` elements
/// (complete rows from the bottom, ragged top row anchored right).
fn fill_corner_block(part: &mut Partition, mut e_s: usize, width: usize) {
    let n = part.n();
    let left = n - width;
    for i in (0..n).rev() {
        if e_s == 0 {
            break;
        }
        let take = e_s.min(width);
        for j in (n - take)..n {
            part.set(i, j, Proc::S);
        }
        let _ = left;
        e_s -= take;
    }
    assert_eq!(e_s, 0, "corner block too small for slow share");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_follow_ratio() {
        for shape in [
            TwoProcShape::StraightLine,
            TwoProcShape::SquareCorner,
            TwoProcShape::RectangleCorner { num: 2, den: 1 },
        ] {
            let part = shape.construct(40, 3, 1);
            assert_eq!(part.elems(Proc::S), 400, "{shape}");
            assert_eq!(part.elems(Proc::R), 0, "{shape}");
            part.assert_invariants();
        }
    }

    #[test]
    fn straight_line_voc_is_n_squared() {
        // Exactly divisible case: every column shared, no row shared.
        let part = TwoProcShape::StraightLine.construct(40, 3, 1);
        assert_eq!(part.voc(), 40 * 40);
    }

    #[test]
    fn square_corner_voc_matches_closed_form() {
        // VoC = 2·N·side, with side ≈ N√(1/(p+1)).
        let n = 100;
        let part = TwoProcShape::SquareCorner.construct(n, 3, 1);
        let side = ((n * n / 4) as f64).sqrt().ceil();
        assert_eq!(part.voc(), 2 * n as u64 * side as u64);
    }

    #[test]
    fn square_corner_beats_straight_line_above_3_to_1() {
        let n = 120;
        for fast in [4u32, 5, 8, 15] {
            let sc = TwoProcShape::SquareCorner.construct(n, fast, 1);
            let sl = TwoProcShape::StraightLine.construct(n, fast, 1);
            assert!(
                sc.voc() < sl.voc(),
                "fast {fast}: SC {} !< SL {}",
                sc.voc(),
                sl.voc()
            );
        }
        // And loses below the 3:1 crossover.
        let sc = TwoProcShape::SquareCorner.construct(n, 2, 1);
        let sl = TwoProcShape::StraightLine.construct(n, 2, 1);
        assert!(sc.voc() > sl.voc());
    }

    #[test]
    fn square_corner_is_push_fixed_point() {
        use hetmmm_push::is_condensed;
        let mut part = TwoProcShape::SquareCorner.construct(30, 4, 1);
        assert!(is_condensed(&mut part));
    }

    #[test]
    fn rectangle_corner_interpolates() {
        // Wider than square → VoC between square-corner and straight-line.
        let n = 120;
        let sc = TwoProcShape::SquareCorner.construct(n, 8, 1).voc();
        let rc = TwoProcShape::RectangleCorner { num: 2, den: 1 }
            .construct(n, 8, 1)
            .voc();
        let sl = TwoProcShape::StraightLine.construct(n, 8, 1).voc();
        assert!(sc < rc, "square beats wider rectangle");
        assert!(rc < sl, "corner rectangle beats strip");
    }
}
