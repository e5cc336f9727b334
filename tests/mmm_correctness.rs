//! The threaded kij executor must compute the exact product for *any*
//! partition — candidates, DFA outcomes, scatters — and at any block of
//! pivot steps per message, and its measured traffic must equal the
//! analytic pairwise volumes the cost models charge.

use hetmmm::mmm::{kij_serial, multiply_partitioned, ExecConfig, ExecStats, Matrix};
use hetmmm::partition::pairwise_volumes;
use hetmmm::prelude::*;
use hetmmm::shapes::candidates::all_feasible;
use hetmmm_integration_tests::bits;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Multiply `part` in blocks of one step, four, the default sixteen and
/// all `n`. At each, C must equal `kij_serial` bit for bit and each
/// sender's traffic its row of `pairwise_volumes`. Returns each block's
/// stats.
fn multiply_at_every_block(a: &Matrix, b: &Matrix, part: &Partition, what: &str) -> Vec<ExecStats> {
    let reference = bits(&kij_serial(a, b));
    let vol = pairwise_volumes(part);
    [1, 4, 16, part.n()]
        .into_iter()
        .map(|block| {
            let config = ExecConfig::default().with_block(block);
            let (c, stats) =
                multiply_partitioned_with(a, b, part, &config).expect("executor failed");
            assert!(bits(&c) == reference, "{what}, block {block}: C differs");
            for x in Proc::ALL {
                let sent: u64 = vol[x.idx()].iter().sum();
                assert_eq!(
                    stats.per_proc[x.idx()].elems_sent,
                    sent,
                    "{what}, block {block}: {x} sent"
                );
            }
            stats
        })
        .collect()
}

#[test]
fn all_candidates_multiply_correctly() {
    let n = 36;
    let mut rng = StdRng::seed_from_u64(100);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    for ratio in [
        Ratio::new(2, 1, 1),
        Ratio::new(5, 2, 1),
        Ratio::new(10, 1, 1),
    ] {
        for c in all_feasible(n, ratio) {
            multiply_at_every_block(&a, &b, &c.partition, &format!("{} at {ratio}", c.ty));
        }
    }
}

/// Two rectangles on a `P` background: the partition whose per-step
/// counters `hetmmm-mmm`'s `traffic_matches_pairwise_volumes` pins.
#[test]
fn two_rectangles_multiply_correctly() {
    let n = 18;
    let mut rng = StdRng::seed_from_u64(10);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let part = PartitionBuilder::new(n)
        .rect(Rect::new(0, 8, 0, 5), Proc::R)
        .rect(Rect::new(10, 17, 9, 17), Proc::S)
        .build();
    multiply_at_every_block(&a, &b, &part, "two rectangles");
}

#[test]
fn dfa_outcome_partitions_multiply_correctly() {
    let n = 24;
    let runner = DfaRunner::new(DfaConfig::new(n, Ratio::new(3, 2, 1)));
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    for out in runner.run_many(0..4u64) {
        for stats in multiply_at_every_block(&a, &b, &out.partition, "DFA outcome") {
            assert_eq!(stats.total_sent(), out.partition.voc());
        }
    }
}

#[test]
fn executor_workload_split_follows_areas() {
    let n = 30;
    let ratio = Ratio::new(5, 2, 1);
    let c = &all_feasible(n, ratio)[0];
    let mut rng = StdRng::seed_from_u64(8);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    for stats in multiply_at_every_block(&a, &b, &c.partition, "candidate") {
        for p in Proc::ALL {
            assert_eq!(
                stats.per_proc[p.idx()].updates,
                (n * c.partition.elems(p)) as u64,
                "{p}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random scatters: correctness and exact traffic accounting.
    #[test]
    fn random_partitions_multiply_correctly(seed in 0u64..1_000, n in 4usize..20) {
        let ratio = Ratio::new(3, 2, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let part = random_partition(n, ratio, &mut rng);
        let a = Matrix::random(n, &mut rng);
        let b = Matrix::random(n, &mut rng);
        for stats in multiply_at_every_block(&a, &b, &part, "random scatter") {
            prop_assert_eq!(stats.total_sent(), part.voc());
            // Receive totals equal send totals (conservation).
            let recv: u64 = stats.per_proc.iter().map(|p| p.elems_recv).sum();
            prop_assert_eq!(recv, stats.total_sent());
        }
    }
}

#[test]
fn push_improves_executor_traffic() {
    // The whole point: condensing a partition with the Push DFA reduces the
    // traffic the real execution moves.
    let n = 24;
    let ratio = Ratio::new(4, 1, 1);
    let mut rng = StdRng::seed_from_u64(33);
    let scatter = random_partition(n, ratio, &mut rng);
    let mut condensed = scatter.clone();
    beautify(&mut condensed);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let (_, before) = multiply_partitioned(&a, &b, &scatter).unwrap();
    let (_, after) = multiply_partitioned(&a, &b, &condensed).unwrap();
    assert!(
        after.total_sent() < before.total_sent(),
        "condensed {} !< scatter {}",
        after.total_sent(),
        before.total_sent()
    );
}
