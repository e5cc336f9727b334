//! **E2 — Fig. 7: example DFA run snapshots.**
//!
//! Reproduces the paper's example: ratio 2:1:1, R pushed Down and Right,
//! S pushed Down and Left, snapshots rendered at 1/100th granularity at
//! (approximately) steps 1, 500, 1000, 1500 and the final step. The paper
//! used N = 1000 and converged around step 2100; snapshot steps scale with
//! `--n`.
//!
//! ```text
//! cargo run --release -p hetmmm-bench --bin fig7_example_run -- [--n 1000] [--seed 1]
//! ```
//!
//! ASCII snapshots go to stdout; PGM images land in `results/`. At the
//! default size and seed both are EXPERIMENTS.md's E2 block and the
//! committed `results/fig7_step_*.pgm`, regenerated by
//! `scripts/experiments.sh`; any other run writes its images to
//! `results/fig7_n<N>_seed<S>/`, so it never overwrites the committed set.

use hetmmm::partition::{render_ascii, render_pgm};
use hetmmm::prelude::*;
use hetmmm_bench::{results_dir, Args, BinSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The run whose images are committed as `results/fig7_step_*.pgm`.
const DEFAULT_N: usize = 300;
const DEFAULT_SEED: u64 = 1;

fn main() {
    let args = Args::parse();
    let _session = BinSession::start("fig7_example_run", &args);
    let n = args.get("n", DEFAULT_N);
    let seed = args.get("seed", DEFAULT_SEED);
    let ratio = Ratio::new(2, 1, 1);

    // The paper's snapshots at N=1000 were at ~1/500/1000/1500/2100 steps;
    // step counts scale roughly linearly with N.
    let scale = n as f64 / 1000.0;
    let mut snapshot_steps: Vec<usize> = [1usize, 500, 1000, 1500]
        .iter()
        .map(|&s| ((s as f64 * scale).round() as usize).max(1))
        .collect();
    snapshot_steps.dedup();

    println!("E2 / Fig. 7 — example run: ratio {ratio}, N = {n}, seed {seed}");
    println!("R pushed ↓ →, S pushed ↓ ← (the paper's scripted directions)\n");

    let mut rng = StdRng::seed_from_u64(seed);
    let start = random_partition(n, ratio, &mut rng);
    let plan = PushPlan::scripted(
        &[Direction::Down, Direction::Right],
        &[Direction::Down, Direction::Left],
    );
    let config = DfaConfig::new(n, ratio).with_snapshots(snapshot_steps.clone());
    let runner = DfaRunner::new(config);
    let voc0 = start.voc();
    let out = runner.run_with(start, plan, &mut rng);

    let dir = if (n, seed) == (DEFAULT_N, DEFAULT_SEED) {
        results_dir()
    } else {
        let dir = results_dir().join(format!("fig7_n{n}_seed{seed}"));
        std::fs::create_dir_all(&dir).expect("create the run's image directory");
        dir
    };
    let mut shots: Vec<(usize, &Partition)> = out.snapshots.iter().map(|(s, p)| (*s, p)).collect();
    shots.push((out.steps, &out.partition));

    for (step, part) in shots {
        println!("--- step {step} (VoC {}) ---", part.voc());
        println!("{}", render_ascii(part, 10));
        let path = dir.join(format!("fig7_step_{step:05}.pgm"));
        std::fs::write(&path, render_pgm(part)).expect("write pgm");
    }

    println!(
        "run converged after {} pushes: VoC {} -> {} ({} residual pushes); \
         PGM images in {}",
        out.steps,
        voc0,
        out.voc_final,
        out.residual_pushes.len(),
        dir.display()
    );
}
