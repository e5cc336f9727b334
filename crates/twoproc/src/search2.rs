//! The two-processor shape search — the prior work's experiment, run on
//! this reproduction's Push machinery.
//!
//! \[8\] proved analytically that for two processors the Push always reduces
//! an arbitrary arrangement to one of three shapes (Straight-Line,
//! Square-Corner, Rectangle-Corner). We can *demonstrate* that with the
//! three-processor engine by leaving `R` empty: the DFA then degenerates to
//! the two-processor case, and every fixed point should profile as a single
//! corner-anchored rectangle-like region for `S` (of which the three named
//! shapes are the aspect-ratio family).

use hetmmm_partition::{Partition, Proc};
use hetmmm_push::{beautify, DfaConfig, DfaOutcome, DfaRunner, PushPlan};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Classification of a condensed two-processor fixed point by the slow
/// processor's rectangle geometry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TwoProcOutcome {
    /// Full-width (or full-height) strip.
    StraightLine,
    /// Aspect within 25% of square.
    SquareCorner,
    /// Rectangle of intermediate aspect.
    RectangleCorner,
    /// Not rectangle-like (never observed for condensed outcomes).
    Other,
}

/// Random two-processor start state: `slow/(fast+slow)` of the elements go
/// to `S`, uniformly; `R` stays empty.
pub fn random_two_proc(n: usize, fast: u32, slow: u32, rng: &mut StdRng) -> Partition {
    let total = u64::from(fast) + u64::from(slow);
    let quota = ((n * n) as u64 * u64::from(slow) / total) as usize;
    // Row-major `u32` cell indices keep the shuffled buffer at 4 bytes
    // a cell; the shuffle's draws depend only on its length.
    assert!(n < 1 << 16, "flat cell indices must fit in u32");
    let mut cells: Vec<u32> = (0..(n * n) as u32).collect();
    cells.shuffle(rng);
    let mut part = Partition::new(n, Proc::P);
    for &idx in cells.iter().take(quota) {
        let idx = idx as usize;
        part.set(idx / n, idx % n, Proc::S);
    }
    part
}

/// One seeded two-processor search: random start, random direction subset
/// for `S`, condense, finish with beautify.
pub fn run_two_proc_search(n: usize, fast: u32, slow: u32, seed: u64) -> DfaOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let part = random_two_proc(n, fast, slow, &mut rng);
    // Random 1-4 directions for S only (R owns nothing).
    let count = rng.random_range(1..=4usize);
    let mut dirs = hetmmm_push::Direction::ALL;
    dirs.shuffle(&mut rng);
    let plan = PushPlan::scripted(&[], &dirs[..count]);
    let runner = DfaRunner::new(DfaConfig::new(
        n,
        hetmmm_partition::Ratio::new(fast.max(slow), slow.min(fast).max(1), 1),
    ));
    let mut out = runner.run_with(part, plan, &mut rng);
    beautify(&mut out.partition);
    out.voc_final = out.partition.voc();
    out
}

/// Classify a condensed two-processor partition.
pub fn classify_two_proc(part: &Partition) -> TwoProcOutcome {
    let n = part.n();
    let Some(rect) = part.enclosing_rect(Proc::S) else {
        return TwoProcOutcome::Other;
    };
    let fill = part.elems(Proc::S) as f64 / rect.area() as f64;
    if fill < 0.8 {
        return TwoProcOutcome::Other;
    }
    if rect.width() == n || rect.height() == n {
        return TwoProcOutcome::StraightLine;
    }
    let aspect = rect.width() as f64 / rect.height() as f64;
    if (0.8..=1.25).contains(&aspect) {
        TwoProcOutcome::SquareCorner
    } else {
        TwoProcOutcome::RectangleCorner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_proc_fixed_points_are_one_of_three_shapes() {
        let mut census = std::collections::HashMap::new();
        for seed in 0..24u64 {
            let out = run_two_proc_search(30, 4, 1, seed);
            assert!(out.converged, "seed {seed}");
            let shape = classify_two_proc(&out.partition);
            *census.entry(format!("{shape:?}")).or_insert(0usize) += 1;
            assert_ne!(
                shape,
                TwoProcOutcome::Other,
                "seed {seed}: prior-work theorem violated\n{:?}",
                out.partition
            );
        }
        // The search should find at least two of the three shape families
        // across two dozen random direction plans.
        assert!(census.len() >= 2, "census too uniform: {census:?}");
    }

    #[test]
    fn search_reduces_voc_substantially() {
        let out = run_two_proc_search(40, 3, 1, 7);
        assert!(out.voc_final * 2 <= out.voc_initial);
    }

    #[test]
    fn r_stays_empty_throughout() {
        let out = run_two_proc_search(24, 5, 1, 3);
        assert_eq!(out.partition.elems(Proc::R), 0);
    }

    #[test]
    fn classifier_on_constructed_shapes() {
        use crate::shapes2::TwoProcShape;
        let sl = TwoProcShape::StraightLine.construct(40, 4, 1);
        assert_eq!(classify_two_proc(&sl), TwoProcOutcome::StraightLine);
        let sc = TwoProcShape::SquareCorner.construct(40, 4, 1);
        assert_eq!(classify_two_proc(&sc), TwoProcOutcome::SquareCorner);
        let rc = TwoProcShape::RectangleCorner { num: 2, den: 1 }.construct(40, 4, 1);
        assert_eq!(classify_two_proc(&rc), TwoProcOutcome::RectangleCorner);
    }
}
