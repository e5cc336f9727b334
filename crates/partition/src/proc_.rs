//! Processors and heterogeneous speed ratios.
//!
//! The paper (Section IV, assumption 2) names the three processors `P`, `R`
//! and `S`, where `P` is the fastest and the relative speeds are
//! `P_r : R_r : S_r` with `S_r = 1` in the paper's experiments. We keep the
//! paper's element encoding `q(i,j) ∈ {0 = R, 1 = S, 2 = P}`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the three heterogeneous processors.
///
/// Discriminant values match the paper's partition function `q`:
/// `R = 0`, `S = 1`, `P = 2` (Section IV). `P` is the fastest processor and
/// is assigned the matrix remainder in all candidate shapes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum Proc {
    /// Middle processor (paper: gray). Encoded as `q = 0`.
    R = 0,
    /// Slowest processor (paper: black, speed normalized to 1). Encoded as `q = 1`.
    S = 1,
    /// Fastest processor (paper: white). Encoded as `q = 2`.
    P = 2,
}

impl Proc {
    /// All three processors, in `q`-encoding order `[R, S, P]`.
    pub const ALL: [Proc; 3] = [Proc::R, Proc::S, Proc::P];

    /// The two processors the paper ever selects as *active* for a Push:
    /// pushes act on the slower processors, never on `P` (Section VI-C).
    pub const PUSHABLE: [Proc; 2] = [Proc::R, Proc::S];

    /// Decode from the paper's `q` value. Panics on values `> 2`.
    #[inline]
    pub fn from_q(q: u8) -> Proc {
        match q {
            0 => Proc::R,
            1 => Proc::S,
            2 => Proc::P,
            #[expect(
                clippy::panic,
                reason = "documented-panicking API on the DFA hot path; has a should_panic test"
            )]
            _ => panic!("invalid q encoding {q}: must be 0 (R), 1 (S) or 2 (P)"),
        }
    }

    /// The paper's `q` encoding of this processor.
    #[inline]
    pub fn q(self) -> u8 {
        self as u8
    }

    /// Index usable for `[T; 3]` arrays keyed by processor.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// The other two processors, i.e. every processor except `self`.
    #[inline]
    pub fn others(self) -> [Proc; 2] {
        match self {
            Proc::R => [Proc::S, Proc::P],
            Proc::S => [Proc::R, Proc::P],
            Proc::P => [Proc::R, Proc::S],
        }
    }

    /// Single-letter name used in renders and debug output.
    #[inline]
    pub fn letter(self) -> char {
        match self {
            Proc::R => 'R',
            Proc::S => 'S',
            Proc::P => 'P',
        }
    }
}

impl fmt::Display for Proc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A relative processing-speed ratio `P_r : R_r : S_r` (Section IV,
/// assumption 2).
///
/// The paper normalizes `S_r = 1`; we allow any positive integers but provide
/// [`Ratio::normalized`] mirroring the paper's convention. The ratio
/// determines the number of matrix elements assigned to each processor: the
/// element share of processor `X` is `X_r / T` where `T = P_r + R_r + S_r`
/// (Section IX-B, Eq. 12).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Ratio {
    /// Speed of the fastest processor `P`.
    pub p: u32,
    /// Speed of the middle processor `R`.
    pub r: u32,
    /// Speed of the slowest processor `S` (paper convention: 1).
    pub s: u32,
}

impl Ratio {
    /// Create a ratio `P_r : R_r : S_r`. Panics if any component is zero or
    /// the ordering `P_r >= R_r >= S_r` required by the paper's naming
    /// convention is violated.
    pub fn new(p: u32, r: u32, s: u32) -> Ratio {
        assert!(p > 0 && r > 0 && s > 0, "ratio components must be positive");
        assert!(
            p >= r && r >= s,
            "ratio must satisfy P_r >= R_r >= S_r (got {p}:{r}:{s}); \
             relabel the processors"
        );
        Ratio { p, r, s }
    }

    /// The eleven ratios studied in the paper's experiments (Section VII).
    pub const PAPER_RATIOS: [(u32, u32, u32); 11] = [
        (2, 1, 1),
        (3, 1, 1),
        (4, 1, 1),
        (5, 1, 1),
        (10, 1, 1),
        (2, 2, 1),
        (3, 2, 1),
        (4, 2, 1),
        (5, 2, 1),
        (5, 3, 1),
        (5, 4, 1),
    ];

    /// All paper ratios as [`Ratio`] values.
    pub fn paper_ratios() -> Vec<Ratio> {
        Self::PAPER_RATIOS
            .iter()
            .map(|&(p, r, s)| Ratio::new(p, r, s))
            .collect()
    }

    /// `T = P_r + R_r + S_r` (Eq. 12).
    #[inline]
    pub fn total(self) -> u32 {
        self.p + self.r + self.s
    }

    /// Speed of a given processor.
    #[inline]
    pub fn speed(self, proc: Proc) -> u32 {
        match proc {
            Proc::P => self.p,
            Proc::R => self.r,
            Proc::S => self.s,
        }
    }

    /// Fraction of the matrix assigned to `proc`: `X_r / T`.
    #[inline]
    pub fn share(self, proc: Proc) -> f64 {
        f64::from(self.speed(proc)) / f64::from(self.total())
    }

    /// The ratio normalized so `S_r = 1` as in the paper, returned as floats
    /// `(P_r, R_r)` with `S_r = 1` implied.
    pub fn normalized(self) -> (f64, f64) {
        (
            f64::from(self.p) / f64::from(self.s),
            f64::from(self.r) / f64::from(self.s),
        )
    }

    /// Element counts `[∈R, ∈S, ∈P]` (indexed by [`Proc::idx`]) for an
    /// `n x n` matrix, computed with largest-remainder rounding so the three
    /// counts always sum to exactly `n²`.
    pub fn areas(self, n: usize) -> [usize; 3] {
        let total_elems = n * n;
        let t = f64::from(self.total());
        // Exact quotas in Proc index order [R, S, P].
        let quota = [
            total_elems as f64 * f64::from(self.r) / t,
            total_elems as f64 * f64::from(self.s) / t,
            total_elems as f64 * f64::from(self.p) / t,
        ];
        let mut floor: [usize; 3] = [
            quota[0].floor() as usize,
            quota[1].floor() as usize,
            quota[2].floor() as usize,
        ];
        let assigned: usize = floor.iter().sum();
        let mut leftover = total_elems - assigned;
        // Distribute the remainder to the largest fractional parts;
        // ties broken toward the faster processor (stable outcome).
        let mut order: Vec<usize> = (0..3).collect();
        order.sort_by(|&a, &b| {
            let fa = quota[a] - quota[a].floor();
            let fb = quota[b] - quota[b].floor();
            fb.total_cmp(&fa)
        });
        for k in order {
            if leftover == 0 {
                break;
            }
            floor[k] += 1;
            leftover -= 1;
        }
        floor
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.p, self.r, self.s)
    }
}

impl std::str::FromStr for Ratio {
    type Err = String;

    /// Parse the `Display` form `"P:R:S"` (e.g. `"3:2:1"`), enforcing the
    /// same positivity and `P_r >= R_r >= S_r` ordering as [`Ratio::new`]
    /// but reporting violations as `Err` instead of panicking — suited to
    /// command-line arguments.
    fn from_str(spec: &str) -> Result<Ratio, String> {
        let mut parts = spec.split(':');
        let mut component = |name: &str| -> Result<u32, String> {
            let tok = parts
                .next()
                .ok_or_else(|| format!("ratio {spec:?} is missing the {name} component"))?;
            let value: u32 = tok
                .trim()
                .parse()
                .map_err(|e| format!("bad {name} component {tok:?} in ratio {spec:?}: {e}"))?;
            if value == 0 {
                return Err(format!("ratio {spec:?} has a zero {name} component"));
            }
            Ok(value)
        };
        let (p, r, s) = (component("P")?, component("R")?, component("S")?);
        if parts.next().is_some() {
            return Err(format!("ratio {spec:?} has more than three components"));
        }
        if p < r || r < s {
            return Err(format!(
                "ratio {spec:?} must satisfy P_r >= R_r >= S_r; relabel the processors"
            ));
        }
        Ok(Ratio { p, r, s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_roundtrip() {
        for p in Proc::ALL {
            assert_eq!(Proc::from_q(p.q()), p);
        }
    }

    #[test]
    #[should_panic(expected = "invalid q encoding")]
    fn q_rejects_out_of_range() {
        let _ = Proc::from_q(3);
    }

    #[test]
    fn others_are_disjoint() {
        for p in Proc::ALL {
            let [a, b] = p.others();
            assert_ne!(a, p);
            assert_ne!(b, p);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn areas_sum_to_n_squared() {
        for &(p, r, s) in Ratio::PAPER_RATIOS.iter() {
            let ratio = Ratio::new(p, r, s);
            for n in [1usize, 7, 10, 99, 100, 1000] {
                let areas = ratio.areas(n);
                assert_eq!(areas.iter().sum::<usize>(), n * n, "ratio {ratio} n {n}");
            }
        }
    }

    #[test]
    fn areas_respect_shares() {
        let ratio = Ratio::new(2, 1, 1);
        let areas = ratio.areas(1000);
        // P gets half, R and S a quarter each.
        assert_eq!(areas[Proc::P.idx()], 500_000);
        assert_eq!(areas[Proc::R.idx()], 250_000);
        assert_eq!(areas[Proc::S.idx()], 250_000);
    }

    #[test]
    fn share_sums_to_one() {
        let ratio = Ratio::new(5, 3, 1);
        let total: f64 = Proc::ALL.iter().map(|&p| ratio.share(p)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "P_r >= R_r >= S_r")]
    fn ratio_ordering_enforced() {
        let _ = Ratio::new(1, 2, 1);
    }

    #[test]
    fn normalized_matches_paper_convention() {
        let ratio = Ratio::new(10, 4, 2);
        let (p, r) = ratio.normalized();
        assert!((p - 5.0).abs() < 1e-12);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_ratio_list_is_valid() {
        assert_eq!(Ratio::paper_ratios().len(), 11);
    }

    #[test]
    fn ratio_parses_display_form() {
        for ratio in Ratio::paper_ratios() {
            assert_eq!(ratio.to_string().parse::<Ratio>(), Ok(ratio));
        }
        assert_eq!(" 5 : 3 : 1 ".parse::<Ratio>(), Ok(Ratio::new(5, 3, 1)));
    }

    #[test]
    fn ratio_parse_rejects_malformed_specs() {
        for bad in ["", "3:2", "3:2:1:1", "3:0:1", "1:2:3", "a:2:1", "3:2:-1"] {
            assert!(bad.parse::<Ratio>().is_err(), "{bad:?} should not parse");
        }
    }
}
