//! End-to-end behaviour of the candidate-shape layer and the
//! recommendation API across the paper's ratio set.

use hetmmm::prelude::*;
use hetmmm::shapes::candidates::{all_feasible, square_corner_feasible};
use hetmmm::shapes::classify_tolerant;

#[test]
fn every_candidate_is_a_condensed_archetype_a() {
    for ratio in Ratio::paper_ratios() {
        for mut c in all_feasible(48, ratio) {
            // Tolerant classification: the slack-column Traditional-
            // Rectangle keeps a dense two-line ragged region (see the
            // constructor docs) the strict Fig. 3 definition rejects.
            assert_eq!(
                classify_tolerant(&c.partition),
                Archetype::A,
                "{} at {ratio}",
                c.ty
            );
            assert!(
                is_condensed(&mut c.partition),
                "{} at {ratio} still admits a push",
                c.ty
            );
        }
    }
}

#[test]
fn feasibility_matches_theorem_9_1_across_paper_ratios() {
    for ratio in Ratio::paper_ratios() {
        let has_sc = all_feasible(120, ratio)
            .iter()
            .any(|c| c.ty == CandidateType::SquareCorner);
        // Grid feasibility at n=120 matches the analytic condition except
        // within discretization range of the boundary (2:1:1 sits exactly
        // on it).
        if ratio != Ratio::new(2, 1, 1) {
            assert_eq!(has_sc, square_corner_feasible(ratio), "{ratio}");
        }
    }
}

#[test]
fn recommendation_tracks_heterogeneity() {
    let t_send = 50.0 / 1e9;
    // Communication-bound platform: at 25:1:1 the Square-Corner must win
    // SCB; at 2:2:1 it cannot exist, and a rectangular layout wins.
    let high = Ratio::new(25, 1, 1);
    let rec = hetmmm::recommend(120, high, &Platform::new(high, 1e9, t_send), Algorithm::Scb);
    assert_eq!(rec.candidate.ty, CandidateType::SquareCorner);

    let low = Ratio::new(2, 2, 1);
    let rec = hetmmm::recommend(120, low, &Platform::new(low, 1e9, t_send), Algorithm::Scb);
    assert_ne!(rec.candidate.ty, CandidateType::SquareCorner);
}

#[test]
fn recommended_shape_beats_the_field_in_simulation() {
    // The model-based recommendation must be confirmed by the independent
    // message-level simulator.
    let ratio = Ratio::new(10, 1, 1);
    let plat = Platform::new(ratio, 1e9, 50.0 / 1e9);
    let rec = hetmmm::recommend(96, ratio, &plat, Algorithm::Scb);
    let best_sim = simulate(
        &rec.candidate.partition,
        &SimConfig::new(plat, Algorithm::Scb),
    )
    .exe_time;
    for c in all_feasible(96, ratio) {
        let t = simulate(&c.partition, &SimConfig::new(plat, Algorithm::Scb)).exe_time;
        assert!(
            best_sim <= t + 1e-12,
            "{} simulated faster than the recommendation",
            c.ty
        );
    }
}

#[test]
fn candidate_voc_ordering_respects_fig13_regions() {
    // Two probes of the Fig. 13 surface: deep in the Square-Corner region
    // and deep in the Block-Rectangle region.
    let n = 200;
    let sc_region = Ratio::new(20, 1, 1);
    let sc = CandidateType::SquareCorner.construct(n, sc_region).unwrap();
    let br = CandidateType::BlockRectangle
        .construct(n, sc_region)
        .unwrap();
    assert!(sc.partition.voc() < br.partition.voc());

    let br_region = Ratio::new(5, 4, 1);
    if let Some(sc) = CandidateType::SquareCorner.construct(n, br_region) {
        let br = CandidateType::BlockRectangle
            .construct(n, br_region)
            .unwrap();
        assert!(br.partition.voc() < sc.partition.voc());
    }
}

#[test]
fn dfa_never_beats_the_best_candidate_by_much() {
    // The six candidates are postulated optimal; a search outcome
    // dramatically below the best candidate VoC would falsify the
    // enumeration (small slack for discrete local effects like the
    // Archetype D sandwich).
    for ratio in [Ratio::new(2, 1, 1), Ratio::new(5, 2, 1)] {
        let n = 40;
        let best = all_feasible(n, ratio)
            .into_iter()
            .map(|c| c.partition.voc())
            .min()
            .unwrap();
        let runner = DfaRunner::new(DfaConfig::new(n, ratio));
        for out in runner.run_many(0..12u64) {
            let mut part = out.partition;
            beautify(&mut part);
            assert!(
                part.voc() as f64 >= best as f64 * 0.75,
                "{ratio}: search found VoC {} far below best candidate {best}",
                part.voc()
            );
        }
    }
}
