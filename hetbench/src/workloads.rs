//! The six workloads: seeded inputs and references, the closed-loop call,
//! its traced decomposition into layer calls, and the output checks.

use crate::measure::mix;
use crate::trace::{fan_out, with_segments, Trace};
use hetmmm::prelude::*;
use hetmmm::push::PushPlan;
use hetmmm::shapes::candidates;
use hetmmm::{census, CensusConfig, CensusReport};
use hetmmm_nproc::{NDfaConfig, NDfaOutcome, NDfaRunner};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CensusPaper,
    CensusSweep,
    NprocSearch,
    CandidatesRank,
    MultiplyClean,
    MultiplyCrash,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::CensusPaper,
        Workload::CensusSweep,
        Workload::NprocSearch,
        Workload::CandidatesRank,
        Workload::MultiplyClean,
        Workload::MultiplyCrash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CensusPaper => "census_paper",
            Workload::CensusSweep => "census_sweep",
            Workload::NprocSearch => "nproc_search",
            Workload::CandidatesRank => "candidates_rank",
            Workload::MultiplyClean => "multiply_clean",
            Workload::MultiplyCrash => "multiply_crash",
        }
    }

    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CensusPaper => {
                "paper-scale N=1000 DFA runs, where the push/partition word sweeps take ~98% of the time"
            }
            Workload::CensusSweep => {
                "N=100 runs over all 11 ratios: per-run costs (random start, beautify, classify) show, word sweeps barely do"
            }
            Workload::NprocSearch => {
                "the only workload on the k-processor grid and push (k=4 and k=5)"
            }
            Workload::CandidatesRank => {
                "user queries: construct, cost and simulate the six candidates at N=1000; no push, no multiply"
            }
            Workload::MultiplyClean => {
                "threaded kij executor without faults: kernel plus lockstep channels"
            }
            Workload::MultiplyCrash => {
                "the same multiplies with one seeded crash each: checkpoints, blame, degrade and resume"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the benchmark's, or a small one the unit tests use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), expect(dead_code, reason = "only the unit tests run small"))]
    Test,
}

/// What a checked call contributed to the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    /// Hash of the call's outputs.
    pub digest: u64,
    /// DFA runs that stopped at a step cap instead of a fixed point.
    pub unconverged: u64,
}

/// One workload: a closed loop of calls `0, 1, 2, …` over seeded inputs.
pub trait Bench {
    type Output;
    /// Ops (DFA runs, queries, multiplies) in one call.
    fn ops_per_call(&self) -> u64;
    /// Calls whose outputs form the run's digest; every run makes them.
    fn digest_calls(&self) -> usize;
    /// One call on a fixed, seed-independent input.
    fn warm_up(&self) -> Result<(), String>;
    /// Call `i`: the only code the untraced run times. `Err` is a failed op.
    fn call(&self, i: usize) -> Result<Self::Output, String>;
    /// Call `i` split into timed calls of the layers beneath it; must give
    /// the same output as [`Bench::call`].
    fn traced(&self, i: usize, trace: &mut Trace) -> Result<Self::Output, String>;
    /// Check call `i`'s output; `Err` is an invariant violation.
    fn check(&mut self, i: usize, out: &Self::Output) -> Result<Checked, String>;
    /// Untimed reference measurements, made once per traced run.
    fn calibrate(&self, _trace: &mut Trace) {}
}

fn fold(hash: u64, words: &[u64]) -> u64 {
    words.iter().fold(hash, |h, &w| mix(h, w))
}

// ---------------------------------------------------------------------------
// census_paper, census_sweep: `census()` calls.
// ---------------------------------------------------------------------------

pub struct Census {
    n: usize,
    ratios: Vec<Ratio>,
    runs: u64,
    seed: u64,
    digest_calls: usize,
    warm_runs: u64,
}

/// Seed of the warm-up call's first run (fixed: set-up time must not
/// depend on the workload seed).
const WARM_SEED: u64 = 1;

impl Census {
    pub fn new(paper: bool, scale: Scale, seed: u64) -> Census {
        let ratios = if paper {
            vec![
                Ratio::new(2, 1, 1),
                Ratio::new(5, 2, 1),
                Ratio::new(10, 1, 1),
            ]
        } else {
            Ratio::paper_ratios()
        };
        // (n, runs per call, warm-up runs)
        let (n, runs, warm_runs) = match (paper, scale) {
            (true, Scale::Full) => (1000, 2, 1),
            (false, Scale::Full) => (100, 64, 64),
            (true, Scale::Test) => (32, 2, 1),
            (false, Scale::Test) => (20, 3, 3),
        };
        Census {
            n,
            digest_calls: ratios.len(),
            ratios,
            runs,
            seed,
            warm_runs,
        }
    }

    fn config(&self, i: usize) -> CensusConfig {
        let ratio = self.ratios[i % self.ratios.len()];
        // Halved so `seed0 + runs` cannot overflow.
        let seed0 = mix(self.seed, i as u64) >> 1;
        CensusConfig::new(self.n, ratio)
            .with_runs(self.runs)
            .with_seed0(seed0)
    }
}

impl Bench for Census {
    type Output = CensusReport;

    fn ops_per_call(&self) -> u64 {
        self.runs
    }

    fn digest_calls(&self) -> usize {
        self.digest_calls
    }

    fn warm_up(&self) -> Result<(), String> {
        let cfg = CensusConfig::new(self.n, self.ratios[0])
            .with_runs(self.warm_runs)
            .with_seed0(WARM_SEED);
        let report = census(&cfg);
        if report.total() as u64 != self.warm_runs {
            return Err(format!("warm-up census tabulated {} runs", report.total()));
        }
        Ok(())
    }

    fn call(&self, i: usize) -> Result<CensusReport, String> {
        Ok(census(&self.config(i)))
    }

    fn traced(&self, i: usize, trace: &mut Trace) -> Result<CensusReport, String> {
        let cfg = self.config(i);
        let runner = DfaRunner::new(DfaConfig::new(cfg.n, cfg.ratio));
        let seeds: Vec<u64> = (cfg.seed0..cfg.seed0 + cfg.runs).collect();
        // `run_many`'s fan-out, with `DfaRunner::run_seed` split at its
        // layer boundaries.
        let outcomes = fan_out(&seeds, trace, |&seed, tr| {
            let mut rng = StdRng::seed_from_u64(seed);
            let part = tr.time("partition.random_start", || {
                random_partition(cfg.n, cfg.ratio, &mut rng)
            });
            let plan = PushPlan::random(&mut rng);
            let out = tr.time("push.dfa_run", || runner.run_with(part, plan, &mut rng));
            tr.add("push.steps", out.steps as f64);
            out
        });
        // Then, like `census()`, on the calling thread in seed order.
        let total = outcomes.len().max(1) as f64;
        let mut report = CensusReport {
            config: cfg,
            counts: [0; 4],
            non_shapes: 0,
            unconverged: 0,
            mean_voc_initial: 0.0,
            mean_voc_final: 0.0,
            mean_steps: 0.0,
        };
        for out in outcomes {
            report.unconverged += usize::from(!out.converged);
            report.mean_voc_initial += out.voc_initial as f64;
            report.mean_steps += out.steps as f64;
            let mut part = out.partition;
            trace.time("push.beautify", || beautify(&mut part));
            report.mean_voc_final += part.voc() as f64;
            let blocks = report.config.blocks;
            match trace.time("shapes.classify", || classify_coarse(&part, blocks)) {
                Archetype::A => report.counts[0] += 1,
                Archetype::B => report.counts[1] += 1,
                Archetype::C => report.counts[2] += 1,
                Archetype::D => report.counts[3] += 1,
                Archetype::NonShape => report.non_shapes += 1,
            }
        }
        report.mean_voc_initial /= total;
        report.mean_voc_final /= total;
        report.mean_steps /= total;
        Ok(report)
    }

    fn check(&mut self, i: usize, r: &CensusReport) -> Result<Checked, String> {
        if r.total() as u64 != self.runs {
            return Err(format!(
                "census call {i}: total() = {}, runs = {}",
                r.total(),
                self.runs
            ));
        }
        if r.unconverged > r.total() || r.mean_voc_final > r.mean_voc_initial {
            return Err(format!("census call {i}: inconsistent report {r:?}"));
        }
        let mut words: Vec<u64> = r.counts.iter().map(|&c| c as u64).collect();
        words.extend([
            r.non_shapes as u64,
            r.unconverged as u64,
            r.mean_voc_initial.to_bits(),
            r.mean_voc_final.to_bits(),
            r.mean_steps.to_bits(),
        ]);
        Ok(Checked {
            digest: fold(0, &words),
            unconverged: r.unconverged as u64,
        })
    }
}

// ---------------------------------------------------------------------------
// nproc_search: `NDfaRunner::run_many` calls.
// ---------------------------------------------------------------------------

pub struct Nproc {
    n: usize,
    weights: [Vec<u32>; 2],
    runs: u64,
    seed: u64,
}

/// `(steps, voc_initial, voc_final, converged)` of one k-proc run.
type NRun = (usize, u64, u64, bool);

fn nrun(o: &NDfaOutcome) -> NRun {
    (o.steps, o.voc_initial, o.voc_final, o.converged)
}

impl Nproc {
    pub fn new(scale: Scale, seed: u64) -> Nproc {
        let (n, runs) = match scale {
            Scale::Full => (100, 16),
            Scale::Test => (20, 3),
        };
        Nproc {
            n,
            weights: [vec![4, 2, 1, 1], vec![5, 3, 2, 1, 1]],
            runs,
            seed,
        }
    }

    fn input(&self, i: usize) -> (NDfaRunner, Vec<u64>) {
        let weights = self.weights[i % 2].clone();
        let seed0 = mix(self.seed, i as u64) >> 1;
        let runner = NDfaRunner::new(NDfaConfig::new(self.n, weights));
        (runner, (seed0..seed0 + self.runs).collect())
    }
}

impl Bench for Nproc {
    type Output = Vec<NRun>;

    fn ops_per_call(&self) -> u64 {
        self.runs
    }

    fn digest_calls(&self) -> usize {
        2
    }

    fn warm_up(&self) -> Result<(), String> {
        let runner = NDfaRunner::new(NDfaConfig::new(self.n, self.weights[0].clone()));
        let outs = runner.run_many(WARM_SEED..WARM_SEED + self.runs);
        match outs.len() as u64 == self.runs {
            true => Ok(()),
            false => Err("warm-up run_many lost runs".to_string()),
        }
    }

    fn call(&self, i: usize) -> Result<Vec<NRun>, String> {
        let (runner, seeds) = self.input(i);
        Ok(runner.run_many(seeds).iter().map(nrun).collect())
    }

    fn traced(&self, i: usize, trace: &mut Trace) -> Result<Vec<NRun>, String> {
        let (runner, seeds) = self.input(i);
        Ok(fan_out(&seeds, trace, |&seed, tr| {
            let out = tr.time("nproc.run", || runner.run_seed(seed));
            tr.add("nproc.steps", out.steps as f64);
            nrun(&out)
        }))
    }

    fn check(&mut self, i: usize, runs: &Vec<NRun>) -> Result<Checked, String> {
        if runs.len() as u64 != self.runs {
            return Err(format!(
                "nproc call {i}: {} outcomes for {} seeds",
                runs.len(),
                self.runs
            ));
        }
        let mut checked = Checked::default();
        for &(steps, voc_initial, voc_final, converged) in runs {
            if voc_final > voc_initial {
                return Err(format!(
                    "nproc call {i}: VoC rose {voc_initial} -> {voc_final}"
                ));
            }
            checked.digest = fold(checked.digest, &[steps as u64, voc_final]);
            checked.unconverged += u64::from(!converged);
        }
        Ok(checked)
    }
}

// ---------------------------------------------------------------------------
// candidates_rank: `recommend` then `simulate` of the winner.
// ---------------------------------------------------------------------------

/// What one query returned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    ty: CandidateType,
    predicted_total: f64,
    simulated_total: f64,
}

pub struct Candidates {
    n: usize,
    ratios: Vec<Ratio>,
    /// `(ratio index, algorithm index)` per call: every query once per
    /// pass, each pass in its own seeded order.
    schedule: Vec<(usize, usize)>,
    digest_calls: usize,
    /// Independent winners, computed on first use.
    reference: HashMap<(usize, usize), (CandidateType, f64)>,
}

/// Passes scheduled ahead; a run wraps around after them.
const PASSES: u64 = 64;

impl Candidates {
    pub fn new(scale: Scale, seed: u64) -> Candidates {
        let all = Ratio::paper_ratios();
        let (n, ratios) = match scale {
            Scale::Full => (1000, all),
            Scale::Test => (48, all[..3].to_vec()),
        };
        let queries: Vec<(usize, usize)> = (0..ratios.len())
            .flat_map(|r| (0..Algorithm::ALL.len()).map(move |a| (r, a)))
            .collect();
        let mut schedule = Vec::with_capacity(queries.len() * PASSES as usize);
        for pass in 0..PASSES {
            let mut order = queries.clone();
            order.shuffle(&mut StdRng::seed_from_u64(mix(seed, pass)));
            schedule.extend(order);
        }
        Candidates {
            n,
            ratios,
            digest_calls: queries.len(),
            schedule,
            reference: HashMap::new(),
        }
    }

    fn query(&self, i: usize) -> (usize, usize, Ratio, Platform, Algorithm) {
        let (r, a) = self.schedule[i % self.schedule.len()];
        let ratio = self.ratios[r];
        (r, a, ratio, platform(ratio), Algorithm::ALL[a])
    }
}

/// A communication-heavy platform: slowest processor at 1 GFLOP/s, 10 ns
/// per element sent.
fn platform(ratio: Ratio) -> Platform {
    Platform::new(ratio, 1e9, 10.0 / 1e9)
}

/// The winner by an independent evaluation of every feasible candidate:
/// first minimum in `CandidateType::ALL` order, as `recommend` ranks.
fn rank(
    n: usize,
    ratio: Ratio,
    plat: &Platform,
    algo: Algorithm,
    tr: &mut Trace,
) -> (Candidate, f64) {
    let mut best: Option<(Candidate, f64)> = None;
    for c in tr.time("shapes.construct", || candidates::all_feasible(n, ratio)) {
        let total = tr.time("cost.evaluate", || evaluate(algo, &c.partition, plat).total);
        if best.as_ref().is_none_or(|(_, t)| total < *t) {
            best = Some((c, total));
        }
    }
    best.expect("the Traditional-Rectangle is always feasible")
}

impl Bench for Candidates {
    type Output = Answer;

    fn ops_per_call(&self) -> u64 {
        1
    }

    fn digest_calls(&self) -> usize {
        self.digest_calls
    }

    fn warm_up(&self) -> Result<(), String> {
        let ratio = Ratio::new(5, 2, 1);
        let rec = hetmmm::recommend(self.n, ratio, &platform(ratio), Algorithm::Scb);
        let sim = simulate(
            &rec.candidate.partition,
            &SimConfig::new(platform(ratio), Algorithm::Scb),
        );
        match sim.exe_time > 0.0 {
            true => Ok(()),
            false => Err("warm-up simulation took no time".to_string()),
        }
    }

    fn call(&self, i: usize) -> Result<Answer, String> {
        let (_, _, ratio, plat, algo) = self.query(i);
        let rec = hetmmm::recommend(self.n, ratio, &plat, algo);
        let sim = simulate(&rec.candidate.partition, &SimConfig::new(plat, algo));
        Ok(Answer {
            ty: rec.candidate.ty,
            predicted_total: rec.predicted_total,
            simulated_total: sim.exe_time,
        })
    }

    fn traced(&self, i: usize, trace: &mut Trace) -> Result<Answer, String> {
        let (_, _, ratio, plat, algo) = self.query(i);
        let (winner, predicted_total) = rank(self.n, ratio, &plat, algo, trace);
        let sim = trace.time("sim.simulate", || {
            simulate(&winner.partition, &SimConfig::new(plat, algo))
        });
        Ok(Answer {
            ty: winner.ty,
            predicted_total,
            simulated_total: sim.exe_time,
        })
    }

    fn check(&mut self, i: usize, ans: &Answer) -> Result<Checked, String> {
        let (r, a, ratio, plat, algo) = self.query(i);
        let n = self.n;
        let &mut (ty, total) = self.reference.entry((r, a)).or_insert_with(|| {
            let (c, t) = rank(n, ratio, &plat, algo, &mut Trace::default());
            (c.ty, t)
        });
        if ans.ty != ty || ans.predicted_total != total {
            return Err(format!(
                "query {ratio} {algo}: recommend chose {} at {}, independent minimum is {ty} at {total}",
                ans.ty, ans.predicted_total
            ));
        }
        if !(ans.simulated_total.is_finite() && ans.simulated_total > 0.0) {
            return Err(format!(
                "query {ratio} {algo}: simulated total {}",
                ans.simulated_total
            ));
        }
        let ty_idx = CandidateType::ALL
            .iter()
            .position(|&t| t == ans.ty)
            .unwrap_or(99);
        Ok(Checked {
            digest: fold(0, &[ty_idx as u64, total.to_bits()]),
            unconverged: 0,
        })
    }
}

// ---------------------------------------------------------------------------
// multiply_clean, multiply_crash: `multiply_partitioned_with`.
// ---------------------------------------------------------------------------

pub struct Multiply {
    a: Matrix,
    b: Matrix,
    reference: Matrix,
    parts: Vec<Partition>,
    crash: bool,
    seed: u64,
}

/// Largest allowed elementwise difference from `kij_serial`.
const TOLERANCE: f64 = 1e-9;

impl Multiply {
    pub fn new(crash: bool, scale: Scale, seed: u64) -> Multiply {
        let n = match scale {
            Scale::Full => 320,
            Scale::Test => 24,
        };
        let ratio = Ratio::new(5, 2, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, &mut rng);
        let b = Matrix::random(n, &mut rng);
        let mut parts: Vec<Partition> = candidates::all_feasible(n, ratio)
            .into_iter()
            .map(|c| c.partition)
            .collect();
        parts.push(random_partition(n, ratio, &mut rng));
        let reference = kij_serial(&a, &b);
        Multiply {
            a,
            b,
            reference,
            parts,
            crash,
            seed,
        }
    }

    fn config(&self, i: usize) -> ExecConfig {
        let config = ExecConfig::default();
        match self.crash {
            true => {
                let mut rng = StdRng::seed_from_u64(mix(self.seed, i as u64));
                config.with_fault_plan(FaultPlan::random_crash(self.a.n(), &mut rng))
            }
            false => config,
        }
    }

    fn multiply(
        &self,
        part: &Partition,
        config: &ExecConfig,
    ) -> Result<(Matrix, ExecStats), String> {
        multiply_partitioned_with(&self.a, &self.b, part, config).map_err(|e| e.to_string())
    }
}

impl Bench for Multiply {
    type Output = (Matrix, ExecStats);

    fn ops_per_call(&self) -> u64 {
        1
    }

    fn digest_calls(&self) -> usize {
        2 * self.parts.len()
    }

    fn warm_up(&self) -> Result<(), String> {
        let config = match self.crash {
            true => {
                ExecConfig::default().with_fault_plan(FaultPlan::crash(Proc::S, self.a.n() / 2))
            }
            false => ExecConfig::default(),
        };
        let (c, _) = self.multiply(&self.parts[0], &config)?;
        match c.max_abs_diff(&self.reference) <= TOLERANCE {
            true => Ok(()),
            false => Err("warm-up multiply disagrees with kij_serial".to_string()),
        }
    }

    fn call(&self, i: usize) -> Result<(Matrix, ExecStats), String> {
        self.multiply(&self.parts[i % self.parts.len()], &self.config(i))
    }

    fn traced(&self, i: usize, trace: &mut Trace) -> Result<(Matrix, ExecStats), String> {
        let config = self.config(i);
        let out = with_segments(trace, || {
            self.multiply(&self.parts[i % self.parts.len()], &config)
        })?;
        let stats = &out.1;
        trace.add("mmm.elems_sent", stats.total_sent() as f64);
        trace.add("mmm.messages", stats.total_messages() as f64);
        trace.add("mmm.checkpoints", stats.recovery.checkpoints as f64);
        trace.add("mmm.replayed_steps", stats.recovery.replayed_steps as f64);
        Ok(out)
    }

    fn check(&mut self, i: usize, (c, stats): &(Matrix, ExecStats)) -> Result<Checked, String> {
        let diff = c.max_abs_diff(&self.reference);
        if diff > TOLERANCE {
            return Err(format!(
                "multiply {i}: C differs from kij_serial by {diff:e}"
            ));
        }
        let rec = &stats.recovery;
        let recovered = rec.faults_detected > 0 || rec.degraded_mode;
        if recovered != self.crash {
            return Err(format!(
                "multiply {i}: crash plan {} but recovery {rec:?}",
                self.crash
            ));
        }
        // After a crash, how much the survivors send before they see the
        // disconnect depends on thread timing, so only the clean digest
        // holds the traffic. C's diagonal carries the seeded inputs.
        let words = match self.crash {
            false => [
                stats.total_sent(),
                stats.total_messages(),
                stats.total_updates(),
            ],
            true => [stats.total_updates(), rec.checkpoints, rec.replayed_steps],
        };
        let diagonal: Vec<u64> = (0..c.n()).map(|k| c.get(k, k).to_bits()).collect();
        Ok(Checked {
            digest: fold(fold(0, &words), &diagonal),
            unconverged: 0,
        })
    }

    fn calibrate(&self, trace: &mut Trace) {
        // The serial kernel at the same N: the executor's floor.
        for _ in 0..5 {
            let c = trace.time("mmm.kernel", || kij_serial(&self.a, &self.b));
            std::hint::black_box(c);
        }
        let n = self.a.n() as f64;
        trace.add("mmm.kernel_flops", 2.0 * n * n * n);
    }
}
