//! Cross-crate property tests for the Push operation — the paper's central
//! legality guarantees, checked on arbitrary random partitions.

use hetmmm::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_ratio() -> impl Strategy<Value = Ratio> {
    (1u32..=10, 1u32..=5, 1u32..=3).prop_map(|(a, b, c)| {
        let mut v = [a, b, c];
        v.sort_unstable();
        Ratio::new(v[2], v[1], v[0])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any applied push preserves element counts, never raises VoC, and
    /// leaves the incremental accounting consistent.
    #[test]
    fn push_preserves_invariants(seed in 0u64..10_000, n in 8usize..32, ratio in arb_ratio()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut part = random_partition(n, ratio, &mut rng);
        let elems_before = [part.elems(Proc::R), part.elems(Proc::S), part.elems(Proc::P)];
        let mut voc = part.voc();
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                if let Some(applied) = try_push_any_type(&mut part, proc, dir) {
                    prop_assert!(applied.delta_voc_units <= 0);
                    prop_assert!(part.voc() <= voc);
                    voc = part.voc();
                }
            }
        }
        part.assert_invariants();
        let elems_after = [part.elems(Proc::R), part.elems(Proc::S), part.elems(Proc::P)];
        prop_assert_eq!(elems_before, elems_after);
    }

    /// A failed push must leave the partition bit-identical (rollback).
    #[test]
    fn failed_push_is_identity(seed in 0u64..10_000, n in 8usize..24) {
        let ratio = Ratio::new(3, 2, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let part = random_partition(n, ratio, &mut rng);
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                for ty in PushType::ALL {
                    let mut scratch = part.clone();
                    if try_push(&mut scratch, proc, dir, ty).is_none() {
                        prop_assert_eq!(&scratch, &part);
                        prop_assert_eq!(scratch.state_hash(), part.state_hash());
                    }
                }
            }
        }
    }

    /// Every DFA run terminates in a fixed point (or detected neutral
    /// cycle) with VoC no worse than the start.
    #[test]
    fn dfa_always_converges(seed in 0u64..5_000, n in 10usize..28, ratio in arb_ratio()) {
        let runner = DfaRunner::new(DfaConfig::new(n, ratio));
        let out = runner.run_seed(seed);
        prop_assert!(out.converged, "cap hit at n={} seed={}", n, seed);
        prop_assert!(out.voc_final <= out.voc_initial);
        out.partition.assert_invariants();
    }

    /// Beautify is a fixed-point operator: VoC monotone, invariants hold,
    /// and a partition it leaves without residual pushes stays put.
    #[test]
    fn beautify_is_monotone(seed in 0u64..5_000, n in 10usize..24) {
        let ratio = Ratio::new(2, 2, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut part = random_partition(n, ratio, &mut rng);
        let voc0 = part.voc();
        beautify(&mut part);
        prop_assert!(part.voc() <= voc0);
        part.assert_invariants();
        if is_condensed(&mut part) {
            let snapshot = part.clone();
            let extra = beautify(&mut part);
            prop_assert_eq!(extra, 0);
            prop_assert_eq!(part, snapshot);
        }
    }
}

/// Whenever Type One applies, the any-type dispatcher must also find a
/// legal move (possibly under a different type).
#[test]
fn type_one_implies_some_type_applies() {
    let ratio = Ratio::new(2, 1, 1);
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let part = random_partition(20, ratio, &mut rng);
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                let mut a = part.clone();
                if try_push(&mut a, proc, dir, PushType::One).is_some() {
                    let mut b = part.clone();
                    assert!(
                        try_push_any_type(&mut b, proc, dir).is_some(),
                        "any-type must succeed when Type One does"
                    );
                }
            }
        }
    }
}
