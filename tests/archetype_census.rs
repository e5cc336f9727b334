//! End-to-end reproduction of the Section VII experiment across the
//! paper's ratio set: at the paper's viewing granularity most DFA fixed
//! points group into archetypes A–D, and A is a large share. The rest are
//! non-shapes: 117 of the 2,200 fixed points of the default census, some
//! of them fine interleavings rather than staircases (EXPERIMENTS.md E1).

use hetmmm::prelude::*;
use hetmmm::{census, CensusConfig};

#[test]
fn paper_ratio_sweep_reproduces_postulate_1() {
    let mut grand_total = 0usize;
    let mut grand_classified = 0usize;
    let mut grand_a = 0usize;
    for ratio in Ratio::paper_ratios() {
        let report = census(&CensusConfig::new(40, ratio).with_runs(24));
        assert_eq!(report.unconverged, 0, "{ratio}: DFA must converge");
        assert!(
            report.mean_voc_final < report.mean_voc_initial,
            "{ratio}: search must reduce communication"
        );
        grand_total += report.total();
        grand_classified += report.total() - report.non_shapes;
        grand_a += report.counts[0];
    }
    // Some fixed points are non-shapes (the default census has 117 of
    // 2,200); the bulk must classify, and Archetype A must be a large
    // share, as in the paper.
    assert!(
        grand_classified * 100 >= grand_total * 80,
        "classified {grand_classified}/{grand_total}"
    );
    assert!(
        grand_a * 100 >= grand_total * 30,
        "Archetype A share too low: {grand_a}/{grand_total}"
    );
}

#[test]
fn higher_heterogeneity_condenses_to_lower_voc() {
    // More dominant P → more room for the slow processors to hide → lower
    // final VoC (Fig. 5 shapes shrink). Monotone trend over P_r.
    let mut last = f64::MAX;
    for p in [2u32, 4, 10] {
        let report = census(&CensusConfig::new(40, Ratio::new(p, 1, 1)).with_runs(24));
        assert!(
            report.mean_voc_final < last,
            "P_r = {p}: mean VoC {} should fall below {last}",
            report.mean_voc_final
        );
        last = report.mean_voc_final;
    }
}

#[test]
fn census_counts_match_manual_classification() {
    // The census is just DFA + beautify + classify_coarse; spot-check that
    // against a manual pipeline for one configuration.
    let cfg = CensusConfig::new(30, Ratio::new(3, 1, 1)).with_runs(12);
    let report = census(&cfg);
    let runner = DfaRunner::new(DfaConfig::new(30, Ratio::new(3, 1, 1)));
    let mut counts = [0usize; 4];
    let mut non = 0usize;
    for out in runner.run_many(0..12u64) {
        let mut part = out.partition;
        beautify(&mut part);
        match classify_coarse(&part, 10) {
            Archetype::A => counts[0] += 1,
            Archetype::B => counts[1] += 1,
            Archetype::C => counts[2] += 1,
            Archetype::D => counts[3] += 1,
            Archetype::NonShape => non += 1,
        }
    }
    assert_eq!(report.counts, counts);
    assert_eq!(report.non_shapes, non);
}

#[test]
fn every_condensed_outcome_reduces_to_archetype_a() {
    // Theorems 8.2-8.4 end-to-end on real search outcomes.
    let runner = DfaRunner::new(DfaConfig::new(30, Ratio::new(4, 2, 1)));
    for out in runner.run_many(0..16u64) {
        let reduced = reduce_to_archetype_a(&out.partition);
        assert_eq!(classify(&reduced), Archetype::A);
        assert!(reduced.voc() <= out.partition.voc());
    }
}
