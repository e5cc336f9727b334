//! Pipeline validation: DFA fixed points classify into archetypes A–D
//! (Postulate 1) and reduce to Archetype A (Theorems 8.2–8.4).

use hetmmm_partition::{Proc, Ratio};
use hetmmm_push::{beautify, DfaConfig, DfaRunner};
use hetmmm_shapes::{classify, classify_coarse, reduce_to_archetype_a, Archetype};

/// Run a batch of seeds per ratio and check Postulate 1 on the outcomes: at
/// the paper's viewing granularity, at least three quarters of the fixed
/// points group into the four archetypes. The rest are non-shapes, which
/// at N = 1000 include fine interleavings of R and S with more than 1,000
/// corners; EXPERIMENTS.md E1 counts them.
#[test]
fn postulate_1_holds_on_sampled_seeds() {
    let mut census = std::collections::HashMap::new();
    let mut total = 0usize;
    for &(p, r, s) in &[(2u32, 1u32, 1u32), (3, 1, 1), (5, 2, 1), (2, 2, 1)] {
        let ratio = Ratio::new(p, r, s);
        let runner = DfaRunner::new(DfaConfig::new(30, ratio));
        for out in runner.run_many(0..12u64) {
            assert!(out.converged, "ratio {ratio}");
            let mut part = out.partition;
            // Theorem 8.3: exhaust residual pushes before classifying.
            beautify(&mut part);
            let arch = classify_coarse(&part, 10);
            *census.entry(arch).or_insert(0usize) += 1;
            total += 1;
        }
    }
    let classified = total - census.get(&Archetype::NonShape).copied().unwrap_or(0);
    assert!(
        classified * 100 >= total * 75,
        "too many unclassified fixed points: {census:?}"
    );
    // Archetype A must dominate, as in the paper.
    let a_count = census.get(&Archetype::A).copied().unwrap_or(0);
    assert!(
        a_count * 100 >= total * 30,
        "Archetype A should be the most common outcome: {census:?}"
    );
}

/// Every DFA outcome must reduce to Archetype A without VoC increase.
#[test]
fn every_outcome_reduces_to_a() {
    let ratio = Ratio::new(3, 2, 1);
    let runner = DfaRunner::new(DfaConfig::new(24, ratio));
    for out in runner.run_many(100..110u64) {
        let reduced = reduce_to_archetype_a(&out.partition);
        assert!(reduced.voc() <= out.partition.voc());
        assert_eq!(classify(&reduced), Archetype::A);
        assert_eq!(reduced.elems(Proc::R), out.partition.elems(Proc::R));
        assert_eq!(reduced.elems(Proc::S), out.partition.elems(Proc::S));
    }
}

/// Fixed points never have a higher VoC than the best candidate shape would
/// predict is reachable... and never beat the brute-force minimum over the
/// six canonical candidates by more than the discretization slack. (A
/// sanity band, not a theorem: local optima sit between the global optimum
/// and the start state.)
#[test]
fn fixed_point_voc_is_bounded_by_candidates() {
    let ratio = Ratio::new(2, 1, 1);
    let n = 30;
    let best_candidate_voc = hetmmm_shapes::candidates::all_feasible(n, ratio)
        .into_iter()
        .map(|c| c.partition.voc())
        .min()
        .unwrap();
    let runner = DfaRunner::new(DfaConfig::new(n, ratio));
    for out in runner.run_many(0..8u64) {
        let mut part = out.partition;
        beautify(&mut part);
        // Local optima may modestly beat the canonical set (e.g. the
        // Archetype D sandwich undercuts Square-Corner at low
        // heterogeneity) but an order-of-magnitude gap would signal a VoC
        // accounting bug.
        assert!(part.voc() >= best_candidate_voc / 2);
        assert!(part.voc() <= out.voc_initial);
    }
}
