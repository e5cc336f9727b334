//! The push ladder: phases 2 and 3 of one push under a rule layer's
//! rungs, tried strictest first, each decided once.
//!
//! A rule layer — the paper's six push types, or the three k-processor
//! modes — commits the first rung under which a push is legal. Phase 1
//! ([`prepare`]) does not depend on the rung and runs once per push.
//! Three facts let the ladder skip most of the rest:
//!
//! 1. **Phase 2 runs once per displaced-side class.** It depends on the
//!    rung only through the class (strict or relaxed). When the strict
//!    phase 2 succeeds no position is dead, so the relaxed one would take
//!    the same branch at every position and assign the same owners; it is
//!    not run.
//! 2. **Phase 3 is recorded and shared.** Phase 3 pops each owner's
//!    targets in a fixed order and decides each by the rung's active-side
//!    rule, from the popped target's dirty cost and the costs taken so
//!    far. It records every pop's cost and verdict. A later rung with the
//!    same assignment whose rule gives the same verdict at every recorded
//!    pop makes the same swaps: the same swaps leave the same grid, so the
//!    next pop has the same cost. It shares that record's journal and
//!    ΔVoC and is decided by its contract alone, without touching the
//!    grid.
//! 3. **A failed journal stays applied.** A journal that fails its rung's
//!    contract is rolled back only when a later rung diverges from every
//!    record (its phase 3 must start from the grid as it was found) or
//!    when the ladder ends. So a neutral push that Type 5 accepts after
//!    Types 1–4 fail on the same journal is applied once, and never undone.
//!
//! The DFA walk, the public `try_push*` calls and the probes all climb
//! through [`climb`]; a probe ends by reverting whatever the grid holds.

use crate::modes::{self, PushMode};
use crate::op::{self, Direction, PushType};
use crate::targets::{prepare, Candidates, LineGrid};
use crate::view::View;
use hetmmm_obs as obs;
use hetmmm_partition::NPartition;

/// One swap of a push, `(v, target, owner)`: cleaned cell `(line, v)`
/// took the target's owner, and the target took the active processor.
pub(crate) type Swap = (usize, (usize, usize), u8);

/// Where the active processor's cleaned elements may land: the rule
/// phase 3 applies to each popped target, from its dirty cost (0, 1 or 2
/// new active lines) and the costs of the swaps taken so far.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ActiveSide {
    /// A landing may dirty at most one new line (Types 1 and 3).
    Strict,
    /// Any landing; the net budget is the ΔVoC contract's business
    /// (Types 2 and 4, the Budgeted and Relaxed modes).
    Budgeted,
    /// At most one new line over the whole push (Types 5 and 6, the
    /// Strict mode).
    OneDirty,
}

impl ActiveSide {
    /// May a target of `cost` be taken after `dirty_used`?
    #[inline]
    fn admits(self, cost: u32, dirty_used: u32) -> bool {
        match self {
            ActiveSide::Strict => cost < 2,
            ActiveSide::Budgeted => true,
            ActiveSide::OneDirty => dirty_used + cost <= 1,
        }
    }
}

/// One rung of a rule layer's ladder.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rung {
    /// The push type or mode, counted from 0 in its layer's ladder.
    pub(crate) index: usize,
    /// Phase 2's class: must a displaced owner already occupy the cleaned
    /// line and the position's cross line?
    pub(crate) displaced_strict: bool,
    /// Phase 3's rule at each popped target.
    pub(crate) active: ActiveSide,
    /// The ΔVoC contract: `ΔVoC < 0` when set, else `ΔVoC ≤ 0`.
    pub(crate) strict_decrease: bool,
}

impl Rung {
    /// Does a push of `delta` line units keep this rung's contract?
    fn holds(&self, delta: i64) -> bool {
        if self.strict_decrease {
            delta < 0
        } else {
            delta <= 0
        }
    }
}

/// The rule layer that decides a push.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RuleLayer {
    /// The paper's six push types on three processors, tried One to Six
    /// ([`crate::try_push_any_type`]).
    Types,
    /// The k-processor modes, tried Strict to Relaxed
    /// ([`crate::try_push_n`]).
    Modes,
}

impl RuleLayer {
    /// The layer's whole ladder, strictest rung first.
    pub(crate) fn rungs(self) -> &'static [Rung] {
        match self {
            RuleLayer::Types => &PushType::RUNGS,
            RuleLayer::Modes => &PushMode::RUNGS,
        }
    }

    /// The layer's phase 2 under one displaced-side class.
    fn assign(self, view: &View, prep: &Candidates, displaced_strict: bool) -> Option<Vec<usize>> {
        match self {
            RuleLayer::Types => op::assign(view, prep, displaced_strict),
            RuleLayer::Modes => modes::assign(view, prep, displaced_strict),
        }
    }

    /// Apply the first rung of the ladder under which a push of `proc` in
    /// `dir` is legal. Returns the rung and the exact ΔVoC in line units.
    pub(crate) fn apply(
        self,
        part: &mut NPartition,
        proc: u8,
        dir: Direction,
    ) -> Option<(usize, i64)> {
        let pushed = climb(part, self, proc, dir, self.rungs(), Finish::Apply)?;
        Some((pushed.rung, pushed.delta))
    }

    /// Would a push of `proc` in `dir` be legal under any rung? Decided
    /// on `part` itself, which is left exactly as it was found.
    pub(crate) fn feasible(self, part: &mut NPartition, proc: u8, dir: Direction) -> bool {
        let _span = obs::fine_span("push.probe");
        if obs::metrics_enabled() {
            obs::metrics()
                .counter(obs::metrics::names::PUSH_PROBES)
                .inc();
        }
        climb(part, self, proc, dir, self.rungs(), Finish::Revert).is_some()
    }
}

/// How a ladder that found a legal rung leaves the grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Finish {
    /// Holding the push.
    Apply,
    /// As it was found (a probe).
    Revert,
}

/// A legal push a ladder found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Pushed {
    /// The rung it was legal under.
    pub(crate) rung: usize,
    /// Exact ΔVoC in line units.
    pub(crate) delta: i64,
    /// Swaps performed.
    pub(crate) swaps: usize,
}

/// Phase 1 of a push of `proc` in `dir`, then `rungs` in order: the first
/// under which the push is legal decides it. A ladder that finds none
/// leaves `part` exactly as it was found, and so does a
/// [`Finish::Revert`] one.
pub(crate) fn climb(
    part: &mut NPartition,
    layer: RuleLayer,
    proc: u8,
    dir: Direction,
    rungs: &[Rung],
    finish: Finish,
) -> Option<Pushed> {
    let (k, voc_before) = (part.k(), part.voc_units() as i64);
    let mut view = View::new(part, dir);
    let prep = prepare(&view, proc, k)?;
    Ladder::new(layer, proc, &prep, voc_before).climb(&mut view, rungs, finish)
}

/// One phase 3 run on the grid.
struct Record {
    /// Index into [`Ladder::assignments`] of the assignment it ran.
    assignment: usize,
    /// Per popped target, in pop order: its dirty cost (bits 0–1) and
    /// whether it was taken (bit 2).
    pops: Vec<u8>,
    /// ΔVoC in line units; `None` when a slot ran out of targets.
    delta: Option<i64>,
    /// The swaps taken, in order.
    journal: Vec<Swap>,
}

impl Record {
    /// Would phase 3 under `active` take exactly this record's verdicts?
    fn agrees(&self, active: ActiveSide) -> bool {
        let mut dirty_used = 0;
        for &pop in &self.pops {
            let (cost, took) = (u32::from(pop & 3), pop & 4 != 0);
            if active.admits(cost, dirty_used) != took {
                return false;
            }
            if took {
                dirty_used += cost;
            }
        }
        true
    }
}

/// The state of one push's climb: phase 2 per class, every phase 3 run so
/// far, and which of them the grid holds.
struct Ladder<'p> {
    layer: RuleLayer,
    proc: u8,
    prep: &'p Candidates,
    voc_before: i64,
    /// Phase 2 per displaced-side class (strict, relaxed): not run yet,
    /// failed, or an index into `assignments`.
    classes: [Option<Option<usize>>; 2],
    assignments: Vec<Vec<usize>>,
    records: Vec<Record>,
    /// The record whose journal the grid holds, if any.
    applied: Option<usize>,
}

impl<'p> Ladder<'p> {
    fn new(layer: RuleLayer, proc: u8, prep: &'p Candidates, voc_before: i64) -> Ladder<'p> {
        Ladder {
            layer,
            proc,
            prep,
            voc_before,
            classes: [None; 2],
            assignments: Vec::new(),
            records: Vec::new(),
            applied: None,
        }
    }

    /// Try `rungs` in order and finish as `finish` says. The six types
    /// open one `push.apply` span per rung tried when applying, and one
    /// `push.clean` span per rung past phase 2.
    fn climb(&mut self, view: &mut View, rungs: &[Rung], finish: Finish) -> Option<Pushed> {
        let spans = self.layer == RuleLayer::Types;
        let decided = rungs.iter().find_map(|rung| {
            let _apply = (spans && finish == Finish::Apply)
                .then(|| obs::fine_span_arg("push.apply", rung.index as u64 + 1));
            let assignment = self.assignment(view, rung.displaced_strict)?;
            let _clean =
                spans.then(|| obs::fine_span_arg("push.clean", self.prep.cleaned.len() as u64));
            let at = self.decide(view, assignment, rung.active);
            let delta = self.records[at].delta.filter(|&d| rung.holds(d))?;
            Some((rung.index, at, delta))
        });
        match (decided, finish) {
            (Some((_, at, _)), Finish::Apply) => self.hold(view, at),
            _ => self.restore(view),
        }
        decided.map(|(rung, at, delta)| Pushed {
            rung,
            delta,
            swaps: self.records[at].journal.len(),
        })
    }

    /// Phase 2 under one displaced-side class, run at most once per class
    /// on the grid as it was found; `None` when it fails.
    fn assignment(&mut self, view: &mut View, displaced_strict: bool) -> Option<usize> {
        let class = usize::from(!displaced_strict);
        if let Some(done) = self.classes[class] {
            return done;
        }
        let done = match self.classes[0] {
            // Fact 1 of the module docs.
            Some(Some(strict)) if !displaced_strict => Some(strict),
            _ => {
                self.restore(view);
                self.layer
                    .assign(view, self.prep, displaced_strict)
                    .map(|assignment| {
                        self.assignments.push(assignment);
                        self.assignments.len() - 1
                    })
            }
        };
        self.classes[class] = Some(done);
        done
    }

    /// The record a rung with this assignment and active-side rule is
    /// decided by: an earlier one it agrees with at every pop, or else a
    /// new phase 3 run from the grid as it was found.
    fn decide(&mut self, view: &mut View, assignment: usize, active: ActiveSide) -> usize {
        let shared = self
            .records
            .iter()
            .position(|r| r.assignment == assignment && r.agrees(active));
        shared.unwrap_or_else(|| {
            self.restore(view);
            self.commit(view, assignment, active)
        })
    }

    /// Phase 3 — pair each cleaned position with the next target of the
    /// owner slot phase 2 assigned it, and swap — recorded and left
    /// applied. The active-side rule depends on the evolving grid, so it is
    /// checked when a target is popped: a target whose landing would dirty
    /// `cost` active lines is skipped unless `active` admits it after the
    /// costs taken so far. Returns the new record's index.
    #[inline]
    fn commit(&mut self, view: &mut View, assignment: usize, active: ActiveSide) -> usize {
        debug_assert!(
            self.applied.is_none(),
            "phase 3 starts from the grid as found"
        );
        let (prep, proc, k) = (self.prep, self.proc, self.prep.line);
        let slots = &self.assignments[assignment];
        let mut pops = Vec::with_capacity(prep.cleaned.len());
        let mut journal: Vec<Swap> = Vec::with_capacity(prep.cleaned.len());
        let mut dirty_used = 0u32;
        let mut next_target = vec![0usize; prep.owners.len()];
        let mut exhausted = false;

        'elems: for (&v, &slot) in prep.cleaned.iter().zip(slots) {
            let owner = prep.owners[slot];
            loop {
                let Some(&(g, h)) = prep.owner_targets[slot].get(next_target[slot]) else {
                    exhausted = true;
                    break 'elems;
                };
                next_target[slot] += 1;
                // A slot's targets are distinct cells of its owner below
                // line `k`, each popped once; a swap changes only line `k`
                // and the popped target. So the target still belongs to
                // its owner.
                debug_assert_eq!(view.get(g, h), owner, "target ({g}, {h}) changed owner");
                // Active side: may the cleaned element land at (g, h)?
                // "already containing elements of X" must not count the
                // elements sitting in the cleaned line itself, which all
                // leave.
                let col_has_excl_k = {
                    let mut cnt = view.col_count(proc, h);
                    if view.get(k, h) == proc {
                        cnt -= 1;
                    }
                    cnt > 0
                };
                let cost = u32::from(!view.row_has(proc, g)) + u32::from(!col_has_excl_k);
                let took = active.admits(cost, dirty_used);
                pops.push(cost as u8 | u8::from(took) << 2);
                if !took {
                    continue;
                }
                view.swap_owned((k, v), proc, (g, h), owner);
                journal.push((v, (g, h), owner));
                dirty_used += cost;
                break;
            }
        }

        let delta = (!exhausted).then(|| view.voc_units() as i64 - self.voc_before);
        self.records.push(Record {
            assignment,
            pops,
            delta,
            journal,
        });
        self.applied = Some(self.records.len() - 1);
        self.records.len() - 1
    }

    /// Roll back the journal the grid holds, if any, last swap first,
    /// leaving the grid exactly as it was found.
    #[inline]
    fn restore(&mut self, view: &mut View) {
        let Some(at) = self.applied.take() else {
            return;
        };
        let (proc, k) = (self.proc, self.prep.line);
        for &(v, target, owner) in self.records[at].journal.iter().rev() {
            view.swap_owned((k, v), owner, target, proc);
        }
        debug_assert_eq!(
            view.voc_units() as i64,
            self.voc_before,
            "rollback must restore VoC"
        );
    }

    /// Make the grid hold record `at`'s journal.
    fn hold(&mut self, view: &mut View, at: usize) {
        if self.applied == Some(at) {
            return;
        }
        self.restore(view);
        let (proc, k) = (self.proc, self.prep.line);
        for &(v, target, owner) in &self.records[at].journal {
            view.swap_owned((k, v), proc, target, owner);
        }
        self.applied = Some(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{random_partition, Partition, PartitionBuilder, Proc, Ratio, Rect};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The ladder without sharing: per rung, phase 2, then phase 3 on the
    /// grid, rolled back at once when the rung's contract fails.
    fn climb_reference(
        part: &mut NPartition,
        layer: RuleLayer,
        proc: u8,
        dir: Direction,
    ) -> Option<Pushed> {
        let (k, voc_before) = (part.k(), part.voc_units() as i64);
        let mut view = View::new(part, dir);
        let prep = prepare(&view, proc, k)?;
        layer.rungs().iter().find_map(|rung| {
            let mut ladder = Ladder::new(layer, proc, &prep, voc_before);
            let assignment = layer.assign(&view, &prep, rung.displaced_strict)?;
            ladder.assignments.push(assignment);
            let at = ladder.commit(&mut view, 0, rung.active);
            let record = &ladder.records[at];
            match record.delta.filter(|&d| rung.holds(d)) {
                Some(delta) => Some(Pushed {
                    rung: rung.index,
                    delta,
                    swaps: record.journal.len(),
                }),
                None => {
                    ladder.restore(&mut view);
                    None
                }
            }
        })
    }

    /// What the ladder saved: phase 3 runs on the grid, and rungs past
    /// phase 2 that were decided from an earlier run's record.
    #[derive(Default)]
    struct Saved {
        runs: usize,
        shared: usize,
    }

    /// Climb `proc`'s ladder in `dir` on `part` and on a copy through the
    /// reference: same push, same grid, same state hash. A probe must
    /// give the same verdict and leave the grid as it found it.
    fn check(part: &mut NPartition, layer: RuleLayer, proc: u8, dir: Direction, saved: &mut Saved) {
        let hash = part.state_hash();
        let mut probed = part.clone();
        let feasible = climb(&mut probed, layer, proc, dir, layer.rungs(), Finish::Revert);
        assert_eq!(
            probed, *part,
            "{layer:?} probe of {proc} {dir:?} must revert"
        );
        assert_eq!(probed.state_hash(), hash);

        let mut reference = part.clone();
        let want = climb_reference(&mut reference, layer, proc, dir);
        let (k, voc_before) = (part.k(), part.voc_units() as i64);
        let mut view = View::new(part, dir);
        let got = prepare(&view, proc, k).and_then(|prep| {
            let mut ladder = Ladder::new(layer, proc, &prep, voc_before);
            let got = ladder.climb(&mut view, layer.rungs(), Finish::Apply);
            let past_phase_2 = layer.rungs()[..=got.map_or(layer.rungs().len() - 1, |p| p.rung)]
                .iter()
                .filter(|rung| ladder.classes[usize::from(!rung.displaced_strict)] != Some(None))
                .count();
            saved.runs += ladder.records.len();
            saved.shared += past_phase_2 - ladder.records.len();
            got
        });
        assert_eq!(got, want, "{layer:?}: {proc} {dir:?}");
        assert_eq!(
            feasible.is_some(),
            got.is_some(),
            "{layer:?}: probe verdict"
        );
        assert_eq!(*part, reference, "{layer:?}: {proc} {dir:?} grid");
        assert_eq!(part.state_hash(), reference.state_hash());
        part.assert_invariants();
    }

    /// Push `part` to a fixed point of every (pushable owner, direction),
    /// checking every ladder on the way against the reference.
    fn walk_checked(part: &mut NPartition, layer: RuleLayer, saved: &mut Saved) {
        for _round in 0..6 {
            let mut moved = false;
            for proc in 1..part.k() as u8 {
                let proc = match layer {
                    // The six types push R (q = 0) and S (q = 1).
                    RuleLayer::Types => proc - 1,
                    RuleLayer::Modes => proc,
                };
                for dir in Direction::ALL {
                    let before = part.clone();
                    check(part, layer, proc, dir, saved);
                    moved |= *part != before;
                }
            }
            if !moved {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The six types: the ladder equals per-rung apply-and-undo, rung,
        /// ΔVoC, swaps, final grid and state hash, along push sequences
        /// from random starts.
        #[test]
        fn types_ladder_matches_per_rung_reference(seed in 0u64..1_000_000, size in 0usize..4) {
            let n = [6, 16, 40, 70][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
            walk_checked(part.grid_mut(), RuleLayer::Types, &mut Saved::default());
        }

        /// The k-processor modes, k = 2..=6, likewise.
        #[test]
        fn modes_ladder_matches_per_rung_reference(seed in 0u64..1_000_000, k in 2usize..=6, size in 0usize..3) {
            let n = [6, 16, 40][size];
            let weights: Vec<u32> = (0..k).map(|i| 1 + 2 * (k - i) as u32).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = NPartition::random(n, &weights, &mut rng);
            walk_checked(&mut part, RuleLayer::Modes, &mut Saved::default());
        }
    }

    /// Over DFA-like walks the ladder shares records in both layers, so
    /// the oracle runs above compare the sharing path, not only fresh
    /// phase 3 runs.
    #[test]
    fn ladders_share_records_along_walks() {
        for layer in [RuleLayer::Types, RuleLayer::Modes] {
            let mut saved = Saved::default();
            for seed in 0..8 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut part = match layer {
                    RuleLayer::Types => random_partition(30, Ratio::new(2, 1, 1), &mut rng)
                        .grid()
                        .clone(),
                    RuleLayer::Modes => NPartition::random(30, &[5, 3, 2, 1], &mut rng),
                };
                walk_checked(&mut part, layer, &mut saved);
            }
            assert!(
                saved.runs > 0 && saved.shared > 0,
                "{layer:?}: {} runs, {} shared",
                saved.runs,
                saved.shared
            );
        }
    }

    /// A record the grid does not hold is replayed when a rung accepts it:
    /// the held journal is rolled back and the record's swaps redone, which
    /// leaves the grid as a fresh phase 3 under that record's rule would.
    /// Along DFA walks this is rare (Type 5 or 6 accepting Type 1's or 3's
    /// record after Type 2 or 4 diverged from it), so it is driven directly.
    #[test]
    fn accepting_an_unheld_record_replays_it() {
        // Pushing R down cleans (0, 0) and (0, 1), both forced onto P.
        // The first takes (3, 0) at cost 1; the second pops (1, 2) at cost
        // 2, which Strict skips and Budgeted takes, so the runs diverge.
        // Strict then takes (2, 0), whose column the first swap gave R.
        let rows = ["RRPPP", "SSPSP", "PSSSP", "PSSRP", "PPPPP"];
        let part = Partition::from_fn(5, |i, j| match rows[i].as_bytes()[j] {
            b'R' => Proc::R,
            b'S' => Proc::S,
            _ => Proc::P,
        });
        let phase_3 = |replay: bool| {
            let mut part = part.clone();
            let (r, voc_before) = (Proc::R.q(), part.voc_units() as i64);
            let mut view = View::new(part.grid_mut(), Direction::Down);
            let prep = prepare(&view, r, 3).expect("R has a four-row rectangle");
            let mut ladder = Ladder::new(RuleLayer::Types, r, &prep, voc_before);
            let assignment = ladder
                .assignment(&mut view, true)
                .expect("both forced onto P");
            ladder.commit(&mut view, assignment, ActiveSide::Strict);
            assert_eq!(ladder.records[0].journal.len(), 2);
            if replay {
                ladder.decide(&mut view, assignment, ActiveSide::Budgeted);
                assert_eq!(ladder.records.len(), 2, "Budgeted diverges");
                assert_eq!(ladder.applied, Some(1), "and is held");
                ladder.hold(&mut view, 0);
                assert_eq!(ladder.applied, Some(0));
            }
            part
        };
        let (replayed, fresh) = (phase_3(true), phase_3(false));
        assert_eq!(replayed, fresh);
        assert_eq!(replayed.get(2, 0), Proc::R);
        assert_eq!(replayed.state_hash(), fresh.state_hash());
        replayed.assert_invariants();
    }

    /// A neutral push that Types 1–4 reject on ΔVoC = 0 is accepted by
    /// Type 5 from Type 1's record: one phase 3 run, never undone.
    #[test]
    fn type_five_is_decided_from_type_one_record() {
        // R: full row 3 plus two strays in row 1. Pushing down moves the
        // strays into row 2, new to R (cost 1, then 0): VoC is unchanged.
        let mut part: Partition = PartitionBuilder::new(6)
            .rect(Rect::new(3, 3, 0, 5), Proc::R)
            .rect(Rect::new(1, 1, 1, 2), Proc::R)
            .build();
        let mut reference = part.clone();
        let (r, voc_before) = (Proc::R.q(), part.voc_units() as i64);
        let mut view = View::new(part.grid_mut(), Direction::Down);
        let prep = prepare(&view, r, 3).expect("R has a three-row rectangle");
        let mut ladder = Ladder::new(RuleLayer::Types, r, &prep, voc_before);
        let pushed = ladder.climb(&mut view, &PushType::RUNGS, Finish::Apply);
        assert_eq!(
            pushed,
            Some(Pushed {
                rung: PushType::Five as usize,
                delta: 0,
                swaps: 2
            })
        );
        assert_eq!(ladder.records.len(), 1, "only Type 1 ran phase 3");
        assert_eq!(ladder.records[0].delta, Some(0));
        assert_eq!(ladder.applied, Some(0), "Type 1's journal was never undone");
        assert_eq!(
            climb_reference(reference.grid_mut(), RuleLayer::Types, r, Direction::Down),
            pushed
        );
        assert_eq!(part, reference);
        assert!(!part.row_has(Proc::R, 1) && part.row_has(Proc::R, 2));
    }
}
