//! **E8 — kij executor validation (Section X-B substrate).**
//!
//! Runs the partition-driven threaded kij executor on every feasible
//! candidate shape (plus a random scatter) and verifies:
//!
//! 1. numerical correctness against the serial kij reference,
//! 2. that the traffic the workers actually exchanged equals the analytic
//!    pairwise volumes (i.e. the cost models charge for exactly the bytes
//!    the execution moves).
//!
//! It also prints how many messages carried that traffic: the workers'
//! non-empty messages at the default block of pivot steps per message, a
//! pure function of the partition on a fault-free run.
//!
//! ```text
//! cargo run --release -p hetmmm-bench --bin mmm_validate -- [--n 96] [--p 5] [--r 2] [--s 1]
//! ```

use hetmmm::mmm::{kij_serial, multiply_partitioned, Matrix};
use hetmmm::partition::pairwise_volumes;
use hetmmm::prelude::*;
use hetmmm::shapes::candidates::all_feasible;
use hetmmm_bench::{print_row, Args, BinSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let _session = BinSession::start("mmm_validate", &args);
    let n = args.get("n", 96usize);
    let ratio = Ratio::new(
        args.get("p", 5u32),
        args.get("r", 2u32),
        args.get("s", 1u32),
    );
    let seed = args.get("seed", 42u64);

    println!("E8 — threaded kij executor validation, N = {n}, ratio {ratio}\n");

    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let reference = kij_serial(&a, &b);

    let widths = [24, 14, 14, 14, 10, 8];
    print_row(
        &[
            "partition",
            "max |err|",
            "elems sent",
            "analytic VoC",
            "messages",
            "check",
        ]
        .map(String::from),
        &widths,
    );

    let mut cases: Vec<(String, Partition)> = all_feasible(n, ratio)
        .into_iter()
        .map(|c| (c.ty.paper_name().to_string(), c.partition))
        .collect();
    cases.push((
        "random scatter".to_string(),
        random_partition(n, ratio, &mut rng),
    ));

    for (name, part) in cases {
        let (c, stats) = multiply_partitioned(&a, &b, &part).expect("executor failed");
        let err = c.max_abs_diff(&reference);
        let analytic: u64 = pairwise_volumes(&part).iter().flatten().sum();
        let ok = err < 1e-9 && stats.total_sent() == analytic;
        assert!(
            ok,
            "{name}: err {err}, sent {} vs {analytic}",
            stats.total_sent()
        );
        print_row(
            &[
                name,
                format!("{err:.2e}"),
                stats.total_sent().to_string(),
                analytic.to_string(),
                stats.total_messages().to_string(),
                "ok".to_string(),
            ],
            &widths,
        );
    }

    println!("\nall partitions multiplied correctly; executor traffic = analytic VoC.");
}
