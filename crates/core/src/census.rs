//! The Section VII experiment as a library call: run many randomized DFA
//! searches and tabulate the archetypes of the fixed points.

use hetmmm_partition::Ratio;
use hetmmm_push::{beautify, DfaConfig, DfaRunner};
use hetmmm_shapes::{classify_coarse, Archetype};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of a census run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CensusConfig {
    /// Matrix dimension (the paper used 1000; 100 reproduces the same
    /// grouping far faster — see EXPERIMENTS.md).
    pub n: usize,
    /// Processor speed ratio.
    pub ratio: Ratio,
    /// Number of DFA runs (the paper used ~10,000 per ratio).
    pub runs: u64,
    /// First seed; runs use `seed0 .. seed0 + runs`.
    pub seed0: u64,
    /// Viewing granularity for coarse classification (the paper's Fig. 7
    /// uses 10 blocks for N = 1000).
    pub blocks: usize,
}

impl CensusConfig {
    /// Defaults: 64 runs from seed 0, 10-block granularity.
    pub fn new(n: usize, ratio: Ratio) -> CensusConfig {
        CensusConfig {
            n,
            ratio,
            runs: 64,
            seed0: 0,
            blocks: 10,
        }
    }

    /// Set the number of runs.
    pub fn with_runs(mut self, runs: u64) -> CensusConfig {
        self.runs = runs;
        self
    }

    /// Set the starting seed.
    pub fn with_seed0(mut self, seed0: u64) -> CensusConfig {
        self.seed0 = seed0;
        self
    }
}

/// Tabulated outcome of a census.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CensusReport {
    /// The configuration that produced this report.
    pub config: CensusConfig,
    /// Fixed points classified per archetype `[A, B, C, D]`.
    pub counts: [usize; 4],
    /// Fixed points that neither the strict classifier nor the tolerant
    /// coarse one places in an archetype. Not all are staircase
    /// boundaries: the default census (N = 100, 11 ratios × 200 runs)
    /// has 117 of 2,200, and at N = 1000 some interleave with more than
    /// 1,000 corners (see `hetmmm_shapes::archetype`).
    pub non_shapes: usize,
    /// Runs that failed to converge before the step caps (0 expected).
    pub unconverged: usize,
    /// Mean VoC of the random start states.
    pub mean_voc_initial: f64,
    /// Mean VoC of the fixed points.
    pub mean_voc_final: f64,
    /// Mean number of pushes to convergence.
    pub mean_steps: f64,
}

impl CensusReport {
    /// Count for one archetype.
    pub fn count(&self, arch: Archetype) -> usize {
        match arch {
            Archetype::A => self.counts[0],
            Archetype::B => self.counts[1],
            Archetype::C => self.counts[2],
            Archetype::D => self.counts[3],
            Archetype::NonShape => self.non_shapes,
        }
    }

    /// Total runs tabulated.
    pub fn total(&self) -> usize {
        self.counts.iter().sum::<usize>() + self.non_shapes
    }

    /// Fraction of fixed points grouped into the four archetypes.
    pub fn classified_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        (total - self.non_shapes) as f64 / total as f64
    }
}

/// What one run of a census contributes to its report.
struct RunSummary {
    converged: bool,
    voc_initial: u64,
    steps: usize,
    /// VoC after `beautify`.
    voc_final: u64,
    archetype: Archetype,
}

/// One census run: the seeded DFA search, its residual pushes exhausted
/// (Theorem 8.3), its fixed point classified at `blocks` granularity.
/// The partition is dropped here, so only the summary outlives the run.
fn summarize(runner: &DfaRunner, seed: u64, blocks: usize) -> RunSummary {
    let out = runner.run_seed(seed);
    // A coarse span of its own, beside `dfa.run` on the worker thread, so
    // that beautify's and classify's fine spans nest under one.
    let _span = hetmmm_obs::span_arg("census.summary", seed);
    let mut part = out.partition;
    beautify(&mut part);
    RunSummary {
        converged: out.converged,
        voc_initial: out.voc_initial,
        steps: out.steps,
        voc_final: part.voc(),
        archetype: classify_coarse(&part, blocks),
    }
}

/// Run the census: `runs` seeded DFA searches, residual pushes exhausted
/// (Theorem 8.3), fixed points classified at the paper's viewing
/// granularity. Runs fan out over rayon, and each worker reduces its runs
/// to small summaries, so memory does not grow with the run count. The
/// summaries fold in seed order, so the means are summed in the same
/// order at any thread count.
pub fn census(config: &CensusConfig) -> CensusReport {
    let _span = hetmmm_obs::span_arg("census.run", config.runs);
    let runner = DfaRunner::new(DfaConfig::new(config.n, config.ratio));
    let seeds: Vec<u64> = (config.seed0..config.seed0 + config.runs).collect();
    let runs: Vec<RunSummary> = seeds
        .par_iter()
        .map(|&seed| summarize(&runner, seed, config.blocks))
        .collect();

    let mut counts = [0usize; 4];
    let mut non_shapes = 0usize;
    let mut unconverged = 0usize;
    let mut sum_initial = 0.0;
    let mut sum_final = 0.0;
    let mut sum_steps = 0.0;
    let total = runs.len().max(1);

    for run in runs {
        if !run.converged {
            unconverged += 1;
        }
        sum_initial += run.voc_initial as f64;
        sum_steps += run.steps as f64;
        sum_final += run.voc_final as f64;
        match run.archetype {
            Archetype::A => counts[0] += 1,
            Archetype::B => counts[1] += 1,
            Archetype::C => counts[2] += 1,
            Archetype::D => counts[3] += 1,
            Archetype::NonShape => non_shapes += 1,
        }
    }

    CensusReport {
        config: config.clone(),
        counts,
        non_shapes,
        unconverged,
        mean_voc_initial: sum_initial / total as f64,
        mean_voc_final: sum_final / total as f64,
        mean_steps: sum_steps / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_totals_add_up() {
        let report = census(&CensusConfig::new(24, Ratio::new(2, 1, 1)).with_runs(10));
        assert_eq!(report.total(), 10);
        assert_eq!(report.unconverged, 0);
        assert!(report.mean_voc_final <= report.mean_voc_initial);
        assert!(report.mean_steps > 0.0);
    }

    #[test]
    fn census_is_deterministic() {
        let cfg = CensusConfig::new(20, Ratio::new(3, 1, 1)).with_runs(6);
        let a = census(&cfg);
        let b = census(&cfg);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.non_shapes, b.non_shapes);
    }

    #[test]
    fn disjoint_seed_ranges_differ() {
        let a = census(&CensusConfig::new(20, Ratio::new(3, 1, 1)).with_runs(6));
        let b = census(
            &CensusConfig::new(20, Ratio::new(3, 1, 1))
                .with_runs(6)
                .with_seed0(1000),
        );
        // Same statistics family but different samples (VoC means will
        // essentially never coincide exactly).
        assert!(a.mean_voc_final != b.mean_voc_final || a.counts != b.counts);
    }
}
