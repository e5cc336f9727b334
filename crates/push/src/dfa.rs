//! The DFA search engine (Sections V–VI).
//!
//! The paper models the search for candidate optimal shapes as a
//! Deterministic Finite Automaton: states are partition shapes, the alphabet
//! is (active processor, push direction), the transition function is the
//! Push, and the accept states are the fixed points where no push applies.
//! The experimental program draws a random start state `q0` (Section
//! VI-A-2), selects a random set of push directions for each slower
//! processor (Section VI-A-1), and interleaves pushes in random order until
//! no transition remains.
//!
//! [`DfaRunner`] reproduces that program. Each run is fully determined by a
//! `u64` seed, and [`DfaRunner::run_many`] fans independent seeds out over
//! rayon — the paper ran "multiple instances of the program on multiple
//! processors" of a cluster for the same reason.

use crate::op::{Direction, PushType};
use crate::probe::{push_feasible, RuleLayer};
use hetmmm_error::{HetmmmError, NonConvergence};
use hetmmm_obs as obs;
use hetmmm_obs::metrics::names;
use hetmmm_partition::{random_partition, NPartition, Partition, Proc, Ratio};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The randomized push plan of a single DFA run: which directions each
/// slower processor may be pushed in (Section VI-A-1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushPlan {
    /// `(active processor, direction)` pairs the run is allowed to use.
    pub entries: Vec<(Proc, Direction)>,
}

impl PushPlan {
    /// The paper's randomization: for each of `R` and `S`, draw the number
    /// of directions (1–4), then that many distinct random directions.
    pub fn random<RNG: Rng>(rng: &mut RNG) -> PushPlan {
        let mut entries = Vec::with_capacity(8);
        for proc in Proc::PUSHABLE {
            let count = rng.random_range(1..=4usize);
            let mut dirs = Direction::ALL;
            dirs.shuffle(rng);
            for &dir in dirs.iter().take(count) {
                entries.push((proc, dir));
            }
        }
        entries.shuffle(rng);
        PushPlan { entries }
    }

    /// The full plan: both processors, all four directions. Used by
    /// `beautify` and exhaustive condensation.
    pub fn full() -> PushPlan {
        let mut entries = Vec::with_capacity(8);
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                entries.push((proc, dir));
            }
        }
        PushPlan { entries }
    }

    /// Restrict to a fixed direction set per processor (used to script runs
    /// such as the Fig. 7 example: R ↓→, S ↓←).
    pub fn scripted(r_dirs: &[Direction], s_dirs: &[Direction]) -> PushPlan {
        let mut entries = Vec::new();
        for &d in r_dirs {
            entries.push((Proc::R, d));
        }
        for &d in s_dirs {
            entries.push((Proc::S, d));
        }
        PushPlan { entries }
    }
}

/// Configuration of a DFA run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DfaConfig {
    /// Matrix dimension `N` (the paper uses 1000; smaller values keep the
    /// same qualitative behaviour and are much faster — see DESIGN.md).
    pub n: usize,
    /// Processor speed ratio `P_r : R_r : S_r`.
    pub ratio: Ratio,
    /// Hard cap on applied pushes; a backstop, generously above the
    /// `~2 N` steps a typical run needs (the Fig. 7 example converges in
    /// ~2100 steps at `N = 1000`).
    pub step_cap: usize,
    /// Cap on *consecutive* VoC-neutral (Type 5/6) pushes, guarding against
    /// neutral-push oscillation that the paper's informal argument does not
    /// rule out.
    pub zero_delta_cap: usize,
    /// Steps at which to clone the partition into the outcome (Fig. 7
    /// snapshots). Empty for search runs.
    pub snapshot_steps: Vec<usize>,
}

impl DfaConfig {
    /// Defaults for a given size and ratio.
    pub fn new(n: usize, ratio: Ratio) -> DfaConfig {
        DfaConfig {
            n,
            ratio,
            step_cap: 100 * n.max(8),
            zero_delta_cap: (4 * n).max(64),
            snapshot_steps: Vec::new(),
        }
    }

    /// Builder-style: record snapshots at the given step counts.
    pub fn with_snapshots(mut self, steps: Vec<usize>) -> DfaConfig {
        self.snapshot_steps = steps;
        self
    }
}

/// Why a DFA run stopped. `StepCapExhausted` and `ZeroDeltaCapExhausted`
/// are the two distinct non-converged outcomes (previously collapsed into a
/// single `converged = false`); the checked entry points turn them into
/// [`HetmmmError::NonConverged`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// No push in the plan applies — a genuine fixed point.
    FixedPoint,
    /// The run revisited a state with no VoC improvement in between — a
    /// VoC-neutral cycle, an accept state for practical purposes.
    NeutralCycle,
    /// The hard cap on applied pushes was exhausted.
    StepCapExhausted,
    /// The cap on consecutive VoC-neutral pushes was exhausted.
    ZeroDeltaCapExhausted,
}

impl Termination {
    /// The non-convergence kind, if this termination is one.
    pub fn non_convergence(self) -> Option<NonConvergence> {
        match self {
            Termination::FixedPoint | Termination::NeutralCycle => None,
            Termination::StepCapExhausted => Some(NonConvergence::StepCapExhausted),
            Termination::ZeroDeltaCapExhausted => Some(NonConvergence::ZeroDeltaCapExhausted),
        }
    }
}

/// Result of one DFA run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DfaOutcome {
    /// The final (fixed-point) partition.
    pub partition: Partition,
    /// The randomized plan the run used.
    pub plan: PushPlan,
    /// Number of pushes applied.
    pub steps: usize,
    /// VoC of the random start state.
    pub voc_initial: u64,
    /// VoC of the final state — never greater than `voc_initial`.
    pub voc_final: u64,
    /// `true` if the run reached a genuine fixed point of its plan, or a
    /// recurrent VoC-neutral cycle (see `cycled`), rather than hitting a
    /// cap.
    pub converged: bool,
    /// `true` when the run terminated because it revisited a previously
    /// seen state without any VoC improvement in between — a VoC-neutral
    /// push cycle. The state is then an accept state for practical
    /// purposes: no sequence of plan moves the run explored can improve it.
    pub cycled: bool,
    /// Exactly why the run stopped; refines `converged`/`cycled` by
    /// distinguishing the two safety caps.
    pub termination: Termination,
    /// `(step, partition)` snapshots at the configured steps.
    pub snapshots: Vec<(usize, Partition)>,
    /// How many pushes of each type (index 0 = Type One) were applied.
    pub pushes_by_type: [usize; 6],
    /// `(proc, dir)` pairs that would still push under the *full* direction
    /// set (nonempty exactly for Archetype C outcomes, Theorem 8.3).
    pub residual_pushes: Vec<(Proc, Direction)>,
}

impl DfaOutcome {
    /// Is the outcome condensed under every direction, not just the plan's?
    pub fn fully_condensed(&self) -> bool {
        self.residual_pushes.is_empty()
    }
}

/// Executes DFA runs for a fixed configuration.
#[derive(Clone, Debug)]
pub struct DfaRunner {
    config: DfaConfig,
}

impl DfaRunner {
    /// Create a runner.
    pub fn new(config: DfaConfig) -> DfaRunner {
        DfaRunner { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &DfaConfig {
        &self.config
    }

    /// Run the DFA from the seed-determined random start state with a
    /// seed-determined random plan.
    pub fn run_seed(&self, seed: u64) -> DfaOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let part = random_partition(self.config.n, self.config.ratio, &mut rng);
        let plan = PushPlan::random(&mut rng);
        self.run_core(part, plan, &mut rng, Some(seed))
    }

    /// Run the DFA from an explicit start state and plan.
    pub fn run_with<RNG: Rng>(&self, part: Partition, plan: PushPlan, rng: &mut RNG) -> DfaOutcome {
        self.run_core(part, plan, rng, None)
    }

    fn run_core<RNG: Rng>(
        &self,
        mut part: Partition,
        plan: PushPlan,
        rng: &mut RNG,
        seed: Option<u64>,
    ) -> DfaOutcome {
        let _span = obs::span_arg("dfa.run", seed.unwrap_or(0));
        if obs::enabled() {
            obs::emit(obs::EventKind::DfaRunStart {
                seed: seed.unwrap_or(0),
                n: self.config.n as u64,
                ratio: self.config.ratio.to_string(),
                plan_len: plan.entries.len() as u64,
            });
        }
        let voc_initial = part.voc();
        let owners: Vec<(u8, Direction)> = plan.entries.iter().map(|&(p, d)| (p.q(), d)).collect();
        let config = &self.config;
        let stop = StopRule::new(config.step_cap, config.zero_delta_cap, part.grid());
        let snaps = &config.snapshot_steps;
        let walked = walk(&mut part, &owners, RuleLayer::Types, stop, snaps, rng);
        let termination = walked.termination;

        // A fixed point's final round has just failed every plan pair at the
        // final state, so only the off-plan pairs are probed (about 3 of the
        // 8) and the plan pairs count as `push.probe.cache_hits`. Every other
        // termination follows a push, so all 8 pairs are probed.
        let mut known = 0u64;
        let residual_pushes: Vec<(Proc, Direction)> = Proc::PUSHABLE
            .into_iter()
            .flat_map(|p| Direction::ALL.into_iter().map(move |d| (p, d)))
            .filter(|&(p, d)| {
                if termination == Termination::FixedPoint && plan.entries.contains(&(p, d)) {
                    known += 1;
                    return false;
                }
                push_feasible(&mut part, p, d)
            })
            .collect();

        let voc_final = part.voc();
        debug_assert!(voc_final <= voc_initial, "DFA must never increase VoC");
        if obs::enabled() {
            obs::emit(obs::EventKind::DfaRunEnd {
                steps: walked.steps as u64,
                termination: format!("{termination:?}"),
                voc_initial,
                voc_final,
                residual_pushes: residual_pushes.len() as u64,
                condensed: residual_pushes.is_empty(),
            });
        }
        if obs::metrics_enabled() {
            let metrics = obs::metrics();
            if known > 0 {
                metrics.counter(names::PUSH_PROBE_CACHE_HITS).add(known);
            }
            for (row, counts) in names::DFA_PUSH.iter().zip(&walked.pushes) {
                for (&id, &count) in row.iter().zip(counts).filter(|(_, &c)| c > 0) {
                    metrics.counter(id).add(count as u64);
                }
            }
            metrics
                .histogram(names::DFA_STEPS_TO_CONVERGENCE)
                .observe(walked.steps as u64);
        }
        DfaOutcome {
            partition: part,
            plan,
            steps: walked.steps,
            voc_initial,
            voc_final,
            converged: termination.non_convergence().is_none(),
            cycled: termination == Termination::NeutralCycle,
            termination,
            snapshots: walked.snapshots,
            pushes_by_type: walked.pushes.map(|dirs| dirs.iter().sum()),
            residual_pushes,
        }
    }

    /// Checked [`DfaRunner::run_seed`]: returns `Err` if the run hit a
    /// safety cap ([`HetmmmError::NonConverged`], carrying which cap) or —
    /// checked even in release builds, unlike the `debug_assert!` in
    /// `run_with` — if the final VoC exceeds the initial
    /// ([`HetmmmError::VocIncreased`]).
    pub fn run(&self, seed: u64) -> Result<DfaOutcome, HetmmmError> {
        Self::check(self.run_seed(seed))
    }

    fn check(out: DfaOutcome) -> Result<DfaOutcome, HetmmmError> {
        if out.voc_final > out.voc_initial {
            return Err(HetmmmError::VocIncreased {
                voc_initial: out.voc_initial,
                voc_final: out.voc_final,
            });
        }
        if let Some(kind) = out.termination.non_convergence() {
            return Err(HetmmmError::NonConverged {
                kind,
                steps: out.steps,
                voc_initial: out.voc_initial,
                voc_final: out.voc_final,
            });
        }
        Ok(out)
    }

    /// Run many independent seeds in parallel (rayon).
    pub fn run_many(&self, seeds: impl IntoIterator<Item = u64>) -> Vec<DfaOutcome> {
        let seeds: Vec<u64> = seeds.into_iter().collect();
        seeds.par_iter().map(|&s| self.run_seed(s)).collect()
    }

    /// Checked [`DfaRunner::run_many`]: every outcome passes the same
    /// release-mode checks as [`DfaRunner::run`]; the first failure (in
    /// seed order) is returned as `Err`.
    pub fn run_many_checked(
        &self,
        seeds: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<DfaOutcome>, HetmmmError> {
        self.run_many(seeds).into_iter().map(Self::check).collect()
    }
}

/// The DFA walk under the k-processor modes, for `hetmmm-nproc`: `plan`
/// holds `(owner, direction)` pairs, owners `1..k`. It stops at a fixed
/// point, a neutral cycle or after `step_cap` pushes (no zero-delta cap),
/// and returns the pushes applied and why it stopped.
pub fn walk_n<RNG: Rng>(
    part: &mut NPartition,
    plan: &[(u8, Direction)],
    step_cap: usize,
    rng: &mut RNG,
) -> (usize, Termination) {
    let stop = StopRule::new(step_cap, usize::MAX, part);
    let walked = walk(part, plan, RuleLayer::Modes, stop, &[], rng);
    (walked.steps, walked.termination)
}

/// A partition the walk pushes on: the plane store, or the three-processor
/// [`Partition`] around it, so that snapshots keep the caller's type.
pub(crate) trait Planes: Clone {
    /// The plane store pushes are applied to.
    fn planes(&mut self) -> &mut NPartition;
}

impl Planes for NPartition {
    fn planes(&mut self) -> &mut NPartition {
        self
    }
}

impl Planes for Partition {
    fn planes(&mut self) -> &mut NPartition {
        self.grid_mut()
    }
}

/// When a run of pushes stops short of a fixed point: after `step_cap`
/// pushes, after more than `zero_delta_cap` consecutive VoC-neutral
/// pushes, or on revisiting a state with no strict VoC improvement in
/// between. The DFA walk and [`crate::beautify`] stop by it.
pub(crate) struct StopRule {
    step_cap: usize,
    zero_delta_cap: usize,
    steps: usize,
    zero_streak: usize,
    /// States visited since the last strict VoC improvement; a revisit
    /// means the run entered a VoC-neutral cycle (Type 5/6 pushes can
    /// shuffle elements without progress).
    seen: HashSet<u64>,
}

impl StopRule {
    /// The rule for a run that starts at `start`.
    pub(crate) fn new(step_cap: usize, zero_delta_cap: usize, start: &NPartition) -> StopRule {
        StopRule {
            step_cap,
            zero_delta_cap,
            steps: 0,
            zero_streak: 0,
            seen: HashSet::from([start.state_hash()]),
        }
    }

    /// Pushes recorded so far.
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// Record a push that changed VoC by `delta_voc_units` and left the
    /// grid in state `hash`; `Some` when the run must stop there.
    pub(crate) fn after_push(&mut self, delta_voc_units: i64, hash: u64) -> Option<Termination> {
        self.steps += 1;
        if delta_voc_units == 0 {
            self.zero_streak += 1;
        } else {
            self.zero_streak = 0;
            self.seen.clear();
        }
        if !self.seen.insert(hash) {
            Some(Termination::NeutralCycle)
        } else if self.steps >= self.step_cap {
            Some(Termination::StepCapExhausted)
        } else if self.zero_streak > self.zero_delta_cap {
            Some(Termination::ZeroDeltaCapExhausted)
        } else {
            None
        }
    }
}

/// What a walk did: its steps, why it stopped, the `(step, partition)`
/// snapshots, and the pushes per (rung, direction), where the rung is the
/// push type or mode counted from 0 in ladder order.
struct Walked<G> {
    steps: usize,
    termination: Termination,
    snapshots: Vec<(usize, G)>,
    pushes: [[usize; Direction::ALL.len()]; PushType::ALL.len()],
}

/// The search both runners share (Sections V–VI). Each round shuffles the
/// plan's order and tries its pairs under `layer`'s ladder until one
/// pushes, then starts a new round; a round in which none pushes ends the
/// walk at a fixed point, and `stop` ends it at a neutral cycle or a cap.
/// Every attempt emits `DfaPush` or `DfaPushRejected`.
fn walk<G: Planes, RNG: Rng>(
    part: &mut G,
    plan: &[(u8, Direction)],
    layer: RuleLayer,
    mut stop: StopRule,
    snapshot_steps: &[usize],
    rng: &mut RNG,
) -> Walked<G> {
    let mut snapshots = Vec::new();
    if snapshot_steps.contains(&0) {
        snapshots.push((0, part.clone()));
    }
    let mut pushes = [[0; Direction::ALL.len()]; PushType::ALL.len()];
    // Events name a three-processor owner by its letter, a k-processor one
    // by its index.
    let name = |owner: u8| match layer {
        RuleLayer::Types => Proc::from_q(owner).to_string(),
        RuleLayer::Modes => owner.to_string(),
    };
    let mut order: Vec<usize> = (0..plan.len()).collect();
    let termination = 'walk: loop {
        order.shuffle(rng);
        for &idx in &order {
            let (owner, dir) = plan[idx];
            let Some((rung, delta)) = layer.apply(part.planes(), owner, dir) else {
                if obs::enabled() {
                    obs::emit(obs::EventKind::DfaPushRejected {
                        proc: name(owner),
                        dir: dir.to_string(),
                    });
                }
                continue;
            };
            pushes[rung][dir.index()] += 1;
            let stopped = stop.after_push(delta, part.planes().state_hash());
            let steps = stop.steps();
            if obs::enabled() {
                obs::emit(obs::EventKind::DfaPush {
                    step: steps as u64,
                    proc: name(owner),
                    dir: dir.to_string(),
                    push_type: rung as u8 + 1,
                    delta_voc: delta,
                });
            }
            if snapshot_steps.contains(&steps) {
                snapshots.push((steps, part.clone()));
            }
            if let Some(termination) = stopped {
                break 'walk termination;
            }
            continue 'walk; // re-randomize the interleaving after each push
        }
        break Termination::FixedPoint;
    };
    Walked {
        steps: stop.steps(),
        termination,
        snapshots,
        pushes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_random_is_within_spec() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let plan = PushPlan::random(&mut rng);
            let r_count = plan.entries.iter().filter(|(p, _)| *p == Proc::R).count();
            let s_count = plan.entries.iter().filter(|(p, _)| *p == Proc::S).count();
            assert!((1..=4).contains(&r_count));
            assert!((1..=4).contains(&s_count));
            // no duplicate (proc, dir) pairs
            let mut pairs = plan.entries.clone();
            pairs.sort_by_key(|&(p, d)| (p.idx(), Direction::ALL.iter().position(|&x| x == d)));
            pairs.dedup();
            assert_eq!(pairs.len(), plan.entries.len());
        }
    }

    #[test]
    fn termination_refines_converged() {
        let runner = DfaRunner::new(DfaConfig::new(24, Ratio::new(2, 1, 1)));
        let out = runner.run_seed(17);
        match out.termination {
            Termination::FixedPoint => assert!(out.converged && !out.cycled),
            Termination::NeutralCycle => assert!(out.converged && out.cycled),
            Termination::StepCapExhausted | Termination::ZeroDeltaCapExhausted => {
                assert!(!out.converged)
            }
        }
        assert_eq!(out.termination.non_convergence().is_some(), !out.converged);
    }

    #[test]
    fn checked_run_ok_on_convergent_seed() {
        let runner = DfaRunner::new(DfaConfig::new(24, Ratio::new(2, 1, 1)));
        let out = runner.run(17).expect("seed 17 converges");
        assert!(out.converged);
        assert!(out.voc_final <= out.voc_initial);
    }

    #[test]
    fn checked_run_reports_step_cap_exhaustion() {
        // A step cap of 1 cannot reach a fixed point from a random start.
        let mut config = DfaConfig::new(24, Ratio::new(2, 1, 1));
        config.step_cap = 1;
        let runner = DfaRunner::new(config);
        let err = runner.run(17).unwrap_err();
        match err {
            HetmmmError::NonConverged { kind, steps, .. } => {
                assert_eq!(kind, NonConvergence::StepCapExhausted);
                assert_eq!(steps, 1);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn checked_run_many_propagates_first_failure() {
        let mut config = DfaConfig::new(16, Ratio::new(2, 1, 1));
        config.step_cap = 1;
        let runner = DfaRunner::new(config);
        assert!(runner.run_many_checked(0..4u64).is_err());

        let runner = DfaRunner::new(DfaConfig::new(16, Ratio::new(2, 1, 1)));
        let outs = runner
            .run_many_checked(0..4u64)
            .expect("all seeds converge");
        assert_eq!(outs.len(), 4);
    }

    #[test]
    fn run_converges_and_voc_decreases() {
        let runner = DfaRunner::new(DfaConfig::new(24, Ratio::new(2, 1, 1)));
        let out = runner.run_seed(17);
        assert!(out.converged, "run should reach a fixed point");
        assert!(out.voc_final <= out.voc_initial);
        assert!(
            out.steps > 0,
            "a random start should admit at least one push"
        );
        out.partition.assert_invariants();
        // Element counts must be preserved through the whole run.
        let areas = Ratio::new(2, 1, 1).areas(24);
        for p in Proc::ALL {
            assert_eq!(out.partition.elems(p), areas[p.idx()]);
        }
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let runner = DfaRunner::new(DfaConfig::new(16, Ratio::new(3, 2, 1)));
        let a = runner.run_seed(5);
        let b = runner.run_seed(5);
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn snapshots_recorded_at_requested_steps() {
        let config = DfaConfig::new(16, Ratio::new(2, 1, 1)).with_snapshots(vec![1, 3, 5]);
        let runner = DfaRunner::new(config);
        let out = runner.run_seed(11);
        let steps: Vec<usize> = out.snapshots.iter().map(|(s, _)| *s).collect();
        for s in steps {
            assert!([1, 3, 5].contains(&s));
        }
        assert!(!out.snapshots.is_empty());
    }

    #[test]
    fn run_many_matches_individual_runs() {
        let runner = DfaRunner::new(DfaConfig::new(12, Ratio::new(4, 2, 1)));
        let batch = runner.run_many(0..4u64);
        for (seed, out) in (0..4u64).zip(&batch) {
            let single = runner.run_seed(seed);
            assert_eq!(single.partition, out.partition);
        }
    }

    #[test]
    fn scripted_plan_restricts_directions() {
        let plan = PushPlan::scripted(
            &[Direction::Down, Direction::Right],
            &[Direction::Down, Direction::Left],
        );
        assert_eq!(plan.entries.len(), 4);
        assert!(plan.entries.contains(&(Proc::R, Direction::Down)));
        assert!(plan.entries.contains(&(Proc::S, Direction::Left)));
    }

    #[test]
    fn residual_pushes_empty_after_full_plan() {
        // With the full plan the fixed point must be condensed in every
        // direction.
        let config = DfaConfig::new(20, Ratio::new(3, 1, 1));
        let runner = DfaRunner::new(config);
        let mut rng = StdRng::seed_from_u64(99);
        let part = random_partition(20, Ratio::new(3, 1, 1), &mut rng);
        let out = runner.run_with(part, PushPlan::full(), &mut rng);
        assert!(out.converged);
        assert!(out.fully_condensed());
    }

    #[test]
    fn residual_pushes_match_a_full_probe() {
        // Seeds 500–511 at N = 40 end in 11 fixed points and one neutral
        // cycle (seed 507); seed 35 at N = 16 ends in a neutral cycle too,
        // so both branches of the residual check are covered.
        let ratio = Ratio::new(2, 1, 1);
        let runs = (500..512u64)
            .map(|seed| (40, seed))
            .chain(std::iter::once((16, 35)));
        let mut cycles = 0;
        for (n, seed) in runs {
            let mut out = DfaRunner::new(DfaConfig::new(n, ratio)).run_seed(seed);
            let probed: Vec<(Proc, Direction)> = Proc::PUSHABLE
                .into_iter()
                .flat_map(|p| Direction::ALL.into_iter().map(move |d| (p, d)))
                .filter(|&(p, d)| crate::push_feasible(&mut out.partition, p, d))
                .collect();
            assert_eq!(out.residual_pushes, probed, "N = {n}, seed {seed}");
            if out.termination == Termination::NeutralCycle {
                assert!(!out.residual_pushes.is_empty(), "N = {n}, seed {seed}");
                cycles += 1;
            }
        }
        assert_eq!(cycles, 2, "seed 507 and seed 35 end in neutral cycles");
    }
}
