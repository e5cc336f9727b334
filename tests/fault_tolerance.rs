//! Fault-tolerance integration: for *any* partition, a single worker
//! crash at *any* pivot step must be absorbed — the recovered product
//! matches the serial reference, the re-attempt resumes from the banked
//! checkpoint instead of replaying from scratch, transient delays are
//! absorbed without blame, and even a total fault cascade degrades to a
//! correct serial result rather than an error.

use hetmmm::mmm::{
    kij_serial, multiply_partitioned, multiply_partitioned_with, ExecConfig, ExecStats, FaultKind,
    FaultPlan, Matrix, RecoveryStats,
};
use hetmmm::prelude::*;
use hetmmm_integration_tests::bits;
use hetmmm_obs::FakeClock;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random partitions, random victim, random crash step, random block:
    /// the executor must return `Ok` with a correct C, one detected fault,
    /// one retry, exactly the dead worker's cells re-assigned — and, with
    /// the checkpointed resume, a replay strictly smaller than a full
    /// restart whenever the crash lands past the first block.
    #[test]
    fn any_single_crash_is_survivable(
        seed in 0u64..10_000,
        n in 6usize..24,
        proc_idx in 0usize..3,
        step_seed in 0usize..1_000,
        block_idx in 0usize..5,
    ) {
        let ratio = Ratio::new(3, 2, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let part = random_partition(n, ratio, &mut rng);
        let a = Matrix::random(n, &mut rng);
        let b = Matrix::random(n, &mut rng);
        let dead = Proc::ALL[proc_idx];
        let step = step_seed % n;
        let block = [1, 2, 5, 16, n][block_idx];
        let config = ExecConfig::default()
            .with_block(block)
            .with_fault_plan(FaultPlan::crash(dead, step))
            .with_recv_timeout(Duration::from_millis(500));
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config)
            .expect("a single crash must be survivable");
        prop_assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        prop_assert_eq!(stats.recovery.faults_detected, 1);
        prop_assert_eq!(stats.recovery.retries, 1);
        prop_assert_eq!(stats.recovery.elems_reassigned, part.elems(dead) as u64);
        prop_assert!(!stats.recovery.degraded_mode);
        // The dead worker contributes nothing to the final result.
        prop_assert_eq!(stats.per_proc[dead.idx()].updates, 0);
        // The victim last banked at the boundary of its crash step's block,
        // and every peer banks at that boundary or the next one, so the
        // single re-attempt resumes at the victim's bank and replays only
        // the tail.
        let resumed = (block * (step / block)) as u64;
        prop_assert_eq!(stats.recovery.resumed_steps, resumed);
        prop_assert_eq!(stats.recovery.replayed_steps, n as u64 - resumed);
        if step >= block {
            // Strictly better than the pre-checkpoint full restart.
            prop_assert!(stats.recovery.resumed_steps > 0);
            prop_assert!(stats.recovery.replayed_steps < n as u64);
        }
    }
}

#[test]
fn dropped_message_recovers_end_to_end() {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(4242);
    let part = random_partition(n, Ratio::new(4, 2, 1), &mut rng);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let plan = FaultPlan::new().with_fault(Proc::R, FaultKind::DropMessageAt { step: 5 });
    let config = ExecConfig::default()
        .with_fault_plan(plan)
        .with_recv_timeout(Duration::from_millis(200))
        .with_retry_attempts(1)
        .with_backoff(Duration::from_millis(20), Duration::from_millis(40));
    let (c, stats) =
        multiply_partitioned_with(&a, &b, &part, &config).expect("lost message is survivable");
    assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
    // A dropped message is inconclusive, so the supervisor re-attempts
    // (the drop re-fires each time) before convicting the dropper.
    assert_eq!(stats.recovery.attempt_retries, 1);
    assert!(stats.recovery.faults_detected >= 1);
    assert_eq!(stats.recovery.elems_reassigned, part.elems(Proc::R) as u64);
}

#[test]
fn fault_free_run_reports_zero_recovery() {
    let n = 20;
    let mut rng = StdRng::seed_from_u64(77);
    let part = random_partition(n, Ratio::new(5, 2, 1), &mut rng);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let (c, stats) = multiply_partitioned(&a, &b, &part).unwrap();
    assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
    // Every recovery counter — including the new retry/resume/checkpoint
    // breakdown — stays at its default on a clean run.
    assert_eq!(stats.recovery, RecoveryStats::default());
}

#[test]
fn recovery_stats_roundtrip_through_json() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(88);
    let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let config = ExecConfig::default()
        .with_fault_plan(FaultPlan::crash(Proc::S, 3))
        .with_recv_timeout(Duration::from_millis(300));
    let (_, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
    let json = serde_json::to_string(&stats).unwrap();
    let back: ExecStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);
    for field in [
        "elems_reassigned",
        "recv_retries",
        "attempt_retries",
        "resumed_steps",
        "replayed_steps",
        "checkpoints",
        "degraded_mode",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
}

#[test]
fn total_loss_degrades_to_a_correct_serial_result() {
    let n = 10;
    let mut rng = StdRng::seed_from_u64(99);
    let part = random_partition(n, Ratio::new(2, 1, 1), &mut rng);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let plan = FaultPlan::new()
        .with_fault(Proc::R, FaultKind::CrashAt { step: 0 })
        .with_fault(Proc::S, FaultKind::CrashAt { step: 0 })
        .with_fault(Proc::P, FaultKind::CrashAt { step: 1 });
    let config = ExecConfig::default()
        .with_fault_plan(plan)
        .with_recv_timeout(Duration::from_millis(200))
        .with_retry_attempts(1)
        .with_backoff(Duration::from_millis(20), Duration::from_millis(40));
    // PR 1 surfaced `NoSurvivors` here. The recovery engine instead
    // finishes the multiply serially and reports degraded mode — a typed
    // outcome, not an error.
    let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config)
        .expect("total loss must degrade, not error");
    assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
    assert!(stats.recovery.degraded_mode);
    assert!(stats.recovery.faults_detected >= 2);
}

/// Satellite 3a: a delay comfortably under the receive timeout leaves no
/// trace at all — no blame, no receive retries, no supervisor attempts.
#[test]
fn delay_under_timeout_leaves_zero_blame_trace() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(1001);
    let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let plan = FaultPlan::new().with_fault(
        Proc::S,
        FaultKind::DelaySendAt {
            step: 4,
            millis: 30,
        },
    );
    let config = ExecConfig::default()
        .with_recv_timeout(Duration::from_millis(150))
        .with_fault_plan(plan);
    let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
    assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
    assert_eq!(stats.recovery.faults_detected, 0);
    assert_eq!(stats.recovery.recv_retries, 0);
    assert_eq!(stats.recovery.attempt_retries, 0);
    assert!(!stats.recovery.degraded_mode);
}

/// Satellite 3b: a delay far beyond the whole receive budget exhausts the
/// worker re-waits *and* the supervisor's transient attempts, then
/// escalates to blame — the full retry-then-blame trace.
#[test]
fn delay_beyond_budget_retries_then_blames() {
    let n = 10;
    let mut rng = StdRng::seed_from_u64(1002);
    let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let plan = FaultPlan::new().with_fault(
        Proc::P,
        FaultKind::DelaySendAt {
            step: 3,
            millis: 300,
        },
    );
    // Receive budget: 50ms timeout + one 30ms backoff slice = 80ms,
    // far below the 300ms delay.
    let config = ExecConfig::default()
        .with_recv_timeout(Duration::from_millis(50))
        .with_retry_attempts(1)
        .with_backoff(Duration::from_millis(30), Duration::from_millis(30))
        .with_fault_plan(plan);
    let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
    assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
    // Retried at both layers first...
    assert!(stats.recovery.recv_retries > 0);
    assert_eq!(stats.recovery.attempt_retries, 1);
    // ...then blamed the persistently-slow worker.
    assert_eq!(stats.recovery.faults_detected, 1);
    assert_eq!(
        stats.per_proc[Proc::P.idx()],
        hetmmm::mmm::ProcExec::default()
    );
    assert!(!stats.recovery.degraded_mode);
}

/// Acceptance: a delayed send within the backoff budget completes with
/// zero faults and a nonzero retry counter, and the whole `ExecStats` is
/// bit-identical across two runs of the same seed under `FakeClock`.
#[test]
fn absorbed_delay_is_bit_identical_across_seeded_runs() {
    let n = 12;
    let run = || {
        let mut rng = StdRng::seed_from_u64(2024);
        let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
        let a = Matrix::random(n, &mut rng);
        let b = Matrix::random(n, &mut rng);
        let plan = FaultPlan::new().with_fault(
            Proc::S,
            FaultKind::DelaySendAt {
                step: 5,
                millis: 150,
            },
        );
        // Windows end at 100ms, 200ms, 400ms: the 150ms delay lands
        // mid-second-window, 50ms clear of both boundaries, so every
        // victim re-waits exactly once regardless of scheduling jitter.
        let config = ExecConfig::default()
            .with_recv_timeout(Duration::from_millis(100))
            .with_retry_attempts(2)
            .with_backoff(Duration::from_millis(100), Duration::from_millis(400))
            .with_clock(Arc::new(FakeClock::new()))
            .with_fault_plan(plan);
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        stats
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.recovery.faults_detected, 0,
        "delay absorbed, not blamed"
    );
    assert!(
        first.recovery.recv_retries > 0,
        "absorption leaves a retry trace"
    );
    assert_eq!(first.recovery.attempt_retries, 0);
    assert_eq!(
        first, second,
        "same seed, same FakeClock => identical stats"
    );
}

/// Acceptance: checkpointed resume after a mid-run crash replays strictly
/// fewer steps than a full restart would.
#[test]
fn checkpointed_resume_beats_full_restart() {
    let n = 16;
    let crash_step = 12;
    let mut rng = StdRng::seed_from_u64(3003);
    let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let config = ExecConfig::default()
        .with_block(4)
        .with_recv_timeout(Duration::from_millis(300))
        .with_fault_plan(FaultPlan::crash(Proc::S, crash_step));
    let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
    assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
    assert!(stats.recovery.resumed_steps > 0);
    assert_eq!(stats.recovery.resumed_steps, crash_step as u64);
    assert!(
        stats.recovery.replayed_steps < n as u64,
        "resume must replay strictly less than a full restart"
    );
    assert!(stats.recovery.checkpoints > 0);
}

/// A drop and a delay at a mid-block step act on the message that carries
/// the step: the one the worker sends at the top of the step's block. The
/// drop withholds the block's message, so the victims see the dropper's
/// next block out of step, or, in the final block, which the dropper still
/// finishes, its channel close; the supervisor re-runs the attempt once
/// from the victims' banks at the block's first step (the drop fires
/// again), then convicts the dropper. A delay under the receive timeout
/// holds the block's message back and leaves no recovery trace.
#[test]
fn mid_block_drop_and_delay_act_on_their_blocks_message() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(1003);
    let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let reference = bits(&kij_serial(&a, &b));
    // Steps 5 and 9 lie inside the second and the last of three blocks of
    // 4 steps.
    let config = |fault: FaultKind| {
        ExecConfig::default()
            .with_block(4)
            .with_recv_timeout(Duration::from_millis(300))
            .with_retry_attempts(1)
            .with_backoff(Duration::from_millis(20), Duration::from_millis(40))
            .with_fault_plan(FaultPlan::new().with_fault(Proc::S, fault))
    };

    for step in [5, 9] {
        let dropped = config(FaultKind::DropMessageAt { step });
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &dropped).unwrap();
        assert!(bits(&c) == reference, "drop at {step}: C differs");
        let r = stats.recovery;
        assert_eq!(r.attempt_retries, 1, "drop at {step}");
        assert_eq!(r.faults_detected, 1, "drop at {step}");
        assert_eq!(r.elems_reassigned, part.elems(Proc::S) as u64);
        assert_eq!(
            stats.per_proc[Proc::S.idx()],
            hetmmm::mmm::ProcExec::default()
        );
        assert!(!r.degraded_mode, "drop at {step}");
        // Both re-attempts resume at the block's first step, where the
        // victims banked.
        let first = 4 * (step / 4) as u64;
        assert_eq!(
            (r.resumed_steps, r.replayed_steps),
            (2 * first, 2 * (n as u64 - first)),
            "drop at {step}"
        );
    }

    let delayed = config(FaultKind::DelaySendAt {
        step: 5,
        millis: 30,
    });
    let (c, stats) = multiply_partitioned_with(&a, &b, &part, &delayed).unwrap();
    assert!(bits(&c) == reference, "delay: C differs");
    // Only the banks at steps 4 and 8 of each worker remain.
    let banks_only = RecoveryStats {
        checkpoints: 6,
        ..RecoveryStats::default()
    };
    assert_eq!(stats.recovery, banks_only);
}

/// Every single crash of a small seeded set of multiplies, checked
/// exactly: each victim at each pivot step, in blocks of one step and of
/// three, on the six 5:2:1 candidates and a random 5:2:1 partition. A
/// crash confesses and its peers see a disconnect at their next exchange,
/// so no receive times out and every recovery counter summed here is a
/// function of the plan alone. C must equal `kij_serial` bit for bit: a resumed cell
/// folds its banked partial and then the missing products in ascending
/// `k`, exactly as the serial loop does.
#[test]
fn every_single_crash_recovers_the_exact_product() {
    let n = 24;
    let ratio = Ratio::new(5, 2, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let mut parts: Vec<Partition> = hetmmm::shapes::candidates::all_feasible(n, ratio)
        .into_iter()
        .map(|c| c.partition)
        .collect();
    parts.push(random_partition(n, ratio, &mut rng));
    assert_eq!(parts.len(), 7);
    let reference = bits(&kij_serial(&a, &b));
    let mut total = RecoveryStats::default();
    let (mut updates, mut runs, mut degraded) = (0u64, 0u64, 0u64);
    for part in &parts {
        for dead in Proc::ALL {
            for step in 0..n {
                for block in [1, 3] {
                    let config = ExecConfig::default()
                        .with_block(block)
                        .with_fault_plan(FaultPlan::crash(dead, step));
                    let (c, stats) = multiply_partitioned_with(&a, &b, part, &config)
                        .expect("a single crash must be survivable");
                    assert!(
                        bits(&c) == reference,
                        "{dead} crashed at step {step}, in blocks of {block}: C differs"
                    );
                    let r = stats.recovery;
                    total.checkpoints += r.checkpoints;
                    total.resumed_steps += r.resumed_steps;
                    total.replayed_steps += r.replayed_steps;
                    total.elems_reassigned += r.elems_reassigned;
                    total.faults_detected += r.faults_detected;
                    total.retries += r.retries;
                    updates += stats.total_updates();
                    degraded += u64::from(r.degraded_mode);
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 1_008);
    assert_eq!(total.checkpoints, 40_320);
    assert_eq!(total.resumed_steps, 11_088);
    assert_eq!(total.replayed_steps, 13_104);
    assert_eq!(total.elems_reassigned, 193_536);
    assert_eq!(updates, 11_805_696);
    assert_eq!(total.faults_detected, 1_008);
    assert_eq!(total.retries, 1_008);
    assert_eq!(degraded, 0);
}
