//! The prior-work optimality analysis: Square-Corner vs Straight-Line
//! across speed ratios and all five algorithms.
//!
//! Reproduces the headline results of \[8\] that motivate the
//! three-processor study (Section I):
//!
//! - under SCB, PCB and PIO, the Square-Corner becomes optimal once the
//!   speed ratio exceeds **3:1** (at 3:1 exactly the two shapes tie:
//!   `2√(1/4) = 1`),
//! - under SCO and PCO (bulk overlap), the Square-Corner is optimal for
//!   **all** ratios.

use crate::shapes2::TwoProcShape;
use hetmmm_cost::{evaluate, Algorithm, Platform};
use hetmmm_partition::Ratio;
use serde::{Deserialize, Serialize};

/// Outcome of one shape-vs-shape comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Fast:1 speed ratio compared at.
    pub fast: u32,
    /// Square-Corner total execution time.
    pub sc_total: f64,
    /// Straight-Line total execution time.
    pub sl_total: f64,
}

impl Comparison {
    /// Did the Square-Corner win (strictly)?
    pub fn sc_wins(&self) -> bool {
        self.sc_total < self.sl_total
    }
}

/// Platform for a `fast : 1` two-processor ratio (the unused processor `R`
/// is given the slow speed; it owns no elements so it never contributes).
fn platform(fast: u32, base_speed: f64, t_send: f64) -> Platform {
    Platform::new(Ratio::new(fast.max(1), 1, 1), base_speed, t_send)
}

/// Compare Square-Corner vs Straight-Line at one ratio under one algorithm.
pub fn sc_vs_sl(algo: Algorithm, n: usize, fast: u32, comp_comm_ratio: f64) -> Comparison {
    // `comp_comm_ratio` sets how expensive communication is relative to
    // computation: t_send = comp_comm_ratio / base_speed (seconds per
    // element vs seconds per update).
    let base_speed = 1e9;
    let plat = platform(fast, base_speed, comp_comm_ratio / base_speed);
    let sc = TwoProcShape::SquareCorner.construct(n, fast, 1);
    let sl = TwoProcShape::StraightLine.construct(n, fast, 1);
    Comparison {
        fast,
        sc_total: evaluate(algo, &sc, &plat).total,
        sl_total: evaluate(algo, &sl, &plat).total,
    }
}

/// The smallest integer ratio `fast : 1` (within `2..=max_ratio`) at which
/// the Square-Corner strictly beats the Straight-Line, or `None` if it
/// never does.
pub fn crossover_ratio(
    algo: Algorithm,
    n: usize,
    max_ratio: u32,
    comp_comm_ratio: f64,
) -> Option<u32> {
    (2..=max_ratio).find(|&fast| sc_vs_sl(algo, n, fast, comp_comm_ratio).sc_wins())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Communication-dominant regime, where the shape difference shows.
    const COMM_HEAVY: f64 = 50.0;

    #[test]
    fn scb_crossover_is_just_above_3_to_1() {
        // Prior work: SC optimal for ratios > 3:1 under the barrier
        // algorithms. At integer granularity the first win is at 4:1.
        let cross =
            crossover_ratio(Algorithm::Scb, 120, 20, COMM_HEAVY).expect("a crossover must exist");
        assert_eq!(cross, 4, "SCB crossover");
    }

    #[test]
    fn pcb_under_eq6_never_crosses() {
        // Under the paper's Eq. 6 accounting, the fast processor of a
        // Square-Corner partition touches every row and column, so it is
        // charged `2N² − ∈P` — always more than the Straight-Line's `∈P`.
        // The prior work's PCB crossover claim rests on exact pairwise
        // volumes (available via the simulator's Unicast mode), not on
        // Eq. 6; with Eq. 6 the Square-Corner never wins PCB. Documented in
        // DESIGN.md §3.5.
        assert_eq!(crossover_ratio(Algorithm::Pcb, 120, 25, COMM_HEAVY), None);
    }

    #[test]
    fn pcb_under_unicast_volumes_favors_sc() {
        // With exact pairwise volumes the fast processor only ships the
        // border fragments, and the Square-Corner wins PCB-style parallel
        // communication broadly — the accounting prior work [8] used.
        use hetmmm_sim::{simulate, SimConfig};
        let base_speed = 1e9;
        for fast in [4u32, 10] {
            let plat = platform(fast, base_speed, COMM_HEAVY / base_speed);
            let sc = TwoProcShape::SquareCorner.construct(120, fast, 1);
            let sl = TwoProcShape::StraightLine.construct(120, fast, 1);
            let a = simulate(&sc, &SimConfig::new(plat, Algorithm::Pcb));
            let b = simulate(&sl, &SimConfig::new(plat, Algorithm::Pcb));
            assert!(
                a.exe_time < b.exe_time,
                "fast {fast}: SC {} vs SL {}",
                a.exe_time,
                b.exe_time
            );
        }
    }

    #[test]
    fn sc_loses_at_2_to_1_under_barriers() {
        for algo in [Algorithm::Scb, Algorithm::Pcb, Algorithm::Pio] {
            let c = sc_vs_sl(algo, 120, 2, COMM_HEAVY);
            assert!(
                !c.sc_wins(),
                "{algo}: SC should lose at 2:1 ({} vs {})",
                c.sc_total,
                c.sl_total
            );
        }
    }

    #[test]
    fn sc_wins_at_high_ratio_under_all_algorithms() {
        // PCB and PCO excluded: their Eq. 6 communication term always
        // charges the Square-Corner's fast processor full rows + columns —
        // see `pcb_under_eq6_never_crosses`.
        for algo in [Algorithm::Scb, Algorithm::Sco, Algorithm::Pio] {
            let c = sc_vs_sl(algo, 120, 10, COMM_HEAVY);
            assert!(
                c.sc_wins(),
                "{algo}: SC should win at 10:1 ({} vs {})",
                c.sc_total,
                c.sl_total
            );
        }
    }

    #[test]
    fn bulk_overlap_favors_sc_at_all_ratios() {
        // The [8] result: with bulk overlap the Square-Corner is optimal
        // for every ratio (its interior is fully local, so overlap hides
        // more communication).
        for fast in 2..=12u32 {
            // PCO shares PCB's Eq. 6 communication term, which penalizes
            // the Square-Corner at low heterogeneity; the all-ratio claim
            // holds for SCO (and for PCO under unicast accounting).
            let algo = Algorithm::Sco;
            let c = sc_vs_sl(algo, 120, fast, COMM_HEAVY);
            assert!(
                c.sc_total <= c.sl_total * 1.001,
                "{algo} at {fast}:1 — SC {} vs SL {}",
                c.sc_total,
                c.sl_total
            );
        }
    }

    #[test]
    fn compute_dominant_regime_mutes_the_difference() {
        // When communication is nearly free, both shapes take essentially
        // the computation time.
        let c = sc_vs_sl(Algorithm::Scb, 120, 5, 0.001);
        let rel = (c.sc_total - c.sl_total).abs() / c.sl_total;
        assert!(rel < 0.01, "relative gap {rel}");
    }
}
