//! Serialization round-trips and degenerate-input behaviour: the
//! housekeeping a downstream user relies on (saving search outcomes,
//! tiny matrices, single-processor corners).

use hetmmm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn partition_roundtrips_through_json() {
    let mut rng = StdRng::seed_from_u64(5);
    let part = random_partition(20, Ratio::new(3, 2, 1), &mut rng);
    let json = serde_json::to_string(&part).expect("serialize");
    let back: Partition = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(part, back);
    assert_eq!(part.state_hash(), back.state_hash());
    assert_eq!(part.voc(), back.voc());
    back.assert_invariants();
}

#[test]
fn dfa_outcome_roundtrips_through_json() {
    let runner = DfaRunner::new(DfaConfig::new(16, Ratio::new(2, 1, 1)));
    let out = runner.run_seed(3);
    let json = serde_json::to_string(&out).expect("serialize");
    let back: DfaOutcome = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(out.partition, back.partition);
    assert_eq!(out.steps, back.steps);
    assert_eq!(out.plan, back.plan);
}

#[test]
fn census_report_roundtrips_through_json() {
    let report = hetmmm::census(&hetmmm::CensusConfig::new(16, Ratio::new(2, 1, 1)).with_runs(4));
    let json = serde_json::to_string(&report).expect("serialize");
    let back: hetmmm::CensusReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(report.counts, back.counts);
    assert_eq!(report.non_shapes, back.non_shapes);
}

#[test]
fn one_by_one_matrix() {
    // Everything must handle N = 1 without panicking.
    let part = Partition::new(1, Proc::P);
    assert_eq!(part.voc(), 0);
    assert!(is_condensed(&part));
    let ratio = Ratio::new(3, 2, 1);
    let plat = Platform::new(ratio, 1e9, 1e-9);
    for algo in Algorithm::ALL {
        let t = evaluate(algo, &part, &plat);
        assert!(t.total.is_finite());
        assert_eq!(t.comm, 0.0);
    }
    let sim = simulate(&part, &SimConfig::new(plat, Algorithm::Scb));
    assert_eq!(sim.elems_sent, 0);

    // The only row and column change owner: the transient VoC accounting
    // must not underflow.
    let part = Partition::from_fn(1, |_, _| Proc::R);
    assert_eq!(part.get(0, 0), Proc::R);
    assert_eq!(part.voc(), 0);
    assert_eq!(part.elems(Proc::P), 0);
    part.assert_invariants();
    assert!(is_condensed(&part));
}

#[test]
fn two_by_two_search_terminates() {
    for seed in 0..8u64 {
        let runner = DfaRunner::new(DfaConfig::new(2, Ratio::new(2, 1, 1)));
        let out = runner.run_seed(seed);
        assert!(out.converged);
        out.partition.assert_invariants();
    }
}

#[test]
fn empty_pushable_processors_are_nohup() {
    // All-P partitions: no push, classify degenerate, models finite.
    let mut part = Partition::new(6, Proc::P);
    assert!(try_push_any_type(&mut part, Proc::R, Direction::Down).is_none());
    assert!(try_push_any_type(&mut part, Proc::S, Direction::Up).is_none());
    assert_eq!(beautify(&mut part), 0);
}

#[test]
fn single_row_and_column_shapes() {
    // A one-row R strip cannot be pushed vertically (rect height 1) but
    // can be pushed horizontally only if that would not enlarge the rect —
    // either way, no panic and no VoC increase.
    let part = PartitionBuilder::new(8)
        .rect(Rect::new(3, 3, 1, 6), Proc::R)
        .build();
    for dir in Direction::ALL {
        let mut scratch = part.clone();
        if let Some(ap) = try_push_any_type(&mut scratch, Proc::R, dir) {
            assert!(ap.delta_voc_units <= 0);
        }
        scratch.assert_invariants();
    }
}

#[test]
fn extreme_ratio_keeps_slow_processors_nonempty() {
    // 1000:1:1 — rounding must not starve R or S at reasonable N.
    let ratio = Ratio::new(1000, 1, 1);
    let areas = ratio.areas(100);
    assert!(areas[Proc::R.idx()] > 0);
    assert!(areas[Proc::S.idx()] > 0);
    let mut rng = StdRng::seed_from_u64(1);
    let part = random_partition(100, ratio, &mut rng);
    part.assert_invariants();
}

#[test]
fn recommend_panics_usefully_on_degenerate_sizes() {
    // n = 4 with a mild ratio still has at least the traditional shape.
    let ratio = Ratio::new(2, 1, 1);
    let plat = Platform::new(ratio, 1e9, 1e-9);
    let rec = hetmmm::recommend(4, ratio, &plat, Algorithm::Scb);
    assert!(rec.predicted_total.is_finite());
}

#[test]
fn renders_are_well_formed_for_odd_sizes() {
    use hetmmm::partition::{render_ascii, render_pgm};
    let mut rng = StdRng::seed_from_u64(2);
    for n in [1usize, 3, 7, 13] {
        let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
        let ascii = render_ascii(&part, 10);
        assert_eq!(ascii.lines().count(), n.min(10));
        let pgm = render_pgm(&part);
        assert!(pgm.starts_with("P2\n"));
    }
}
