//! Partition-driven threaded kij executor with fault tolerance.
//!
//! One OS thread per processor plays the role of the paper's three MPI
//! nodes (Section X-B). The pivot steps run in blocks of
//! [`ExecConfig::block`] steps, like the paper's PIO variant that moves "k
//! rows and columns at a time" (Section II). At the top of a block each
//! worker sends each peer one message with the block's A and B values it
//! owns and the peer needs, and nothing else (`crate::exchange`); it reads
//! its own elements through its planes. The executor's traffic counters
//! are exactly the quantities the analytic models charge for, so the
//! tests check them against `pairwise_volumes` for any partition and any
//! block. The worker then updates its C cells with one call to its kernel
//! (`crate::kernel`) per step, in ascending `k`, so C is bit-identical at
//! every block. The kernel is built per attempt from the partition and
//! the checkpointed cell state; on a resumed attempt it walks whole row
//! runs from the step where its lagging cells catch up.
//!
//! ## Failure model
//!
//! Messages travel through one channel per ordered worker pair, and every
//! receive carries a timeout, so a worker that crashes (channel
//! disconnect) or stops sending (receive timeout) is detected rather than
//! deadlocking the run. The channels are unbounded and a send never waits:
//! a worker sends a peer its message for a block only after receiving that
//! peer's message for the block before, so no channel holds more than two
//! messages. Recovery is layered (see DESIGN.md §7):
//!
//! 1. **Receive re-wait.** A timed-out receive is re-armed with bounded
//!    exponential backoff ([`ExecConfig::retry_attempts`] slices of
//!    `backoff_base · 2^i`, capped at `backoff_cap`) before the worker
//!    declares the peer lost — a slow sender within the budget costs a
//!    retry counter tick and nothing else.
//! 2. **Supervised re-attempt.** Workers bank checkpoints with the
//!    supervisor at block boundaries; on an *inconclusive* failure
//!    (timeouts and disconnects only, no crash or panic confession) the
//!    supervisor re-runs the multiply from the last checkpointed step,
//!    again with backoff, before blaming anyone.
//! 3. **Conviction and degrade.** Persistent silence escalates to blame:
//!    verdicts are aggregated into a single culprit (workers that finished
//!    all `n` steps are exempt unless a peer names them), the dead
//!    processor's C cells re-assigned
//!    onto the two survivors with [`hetmmm_twoproc::degrade_partition`]
//!    (Straight-Line below a 3:1 survivor ratio, Square-Corner above),
//!    and the multiply *resumes* from the checkpoint — re-assigned cells
//!    replay only their missing contributions.
//! 4. **Graceful degrade.** When survivors drop to one or the
//!    [`ExecConfig::recovery_deadline`] passes, the supervisor finishes
//!    the remaining pivot steps serially (one kernel over every cell,
//!    seeded with the checkpointed partials) and returns `Ok` with
//!    [`RecoveryStats::degraded_mode`] set instead of erroring.
//!
//! Failures are scripted deterministically through [`FaultPlan`] for
//! testing; recovery activity is reported in [`RecoveryStats`].

use crate::exchange::{Block, BlockMessage, Exchange};
use crate::fault::{FaultKind, FaultPlan};
use crate::kernel::Kernel;
use crate::matrix::Matrix;
use crate::supervise::{BackoffPolicy, CellState, Checkpoint};
use hetmmm_error::HetmmmError;
use hetmmm_obs::{self as obs, Clock};
use hetmmm_partition::{Partition, Proc};
use hetmmm_twoproc::{degrade_partition, fallback_survivor};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Per-worker execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcExec {
    /// Scalar updates `C[i,j] += A[i,k] * B[k,j]` performed.
    pub updates: u64,
    /// Pivot values sent to other workers.
    pub elems_sent: u64,
    /// Pivot values received from other workers.
    pub elems_recv: u64,
    /// Non-empty messages sent: at most one per peer per block.
    pub messages: u64,
    /// Timed-out receives this worker re-armed instead of escalating.
    pub recv_retries: u64,
}

impl ProcExec {
    /// Fold another attempt's counters into this slot.
    fn fold(&mut self, other: &ProcExec) {
        self.updates += other.updates;
        self.elems_sent += other.elems_sent;
        self.elems_recv += other.elems_recv;
        self.messages += other.messages;
        self.recv_retries += other.recv_retries;
    }
}

/// Counters describing what the fault-tolerance layer did during a run.
/// All zero (and `degraded_mode` false) when no failure occurred.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Worker failures convicted (injected or real).
    pub faults_detected: u64,
    /// C elements whose owner changed during survivor re-partitioning.
    pub elems_reassigned: u64,
    /// Worker-level receive re-waits (transient absorption, layer 1).
    pub recv_retries: u64,
    /// Supervisor-level re-attempts before any conviction (layer 2).
    pub attempt_retries: u64,
    /// Total nanoseconds of supervisor backoff between attempts.
    pub backoff_nanos: u64,
    /// Pivot steps recovery skipped thanks to checkpointed resume
    /// (summed over re-attempts).
    pub resumed_steps: u64,
    /// Pivot steps re-run past the resume point (worst cell, summed over
    /// re-attempts). `resumed + replayed == n` per re-attempt.
    pub replayed_steps: u64,
    /// Checkpoints workers banked with the supervisor.
    pub checkpoints: u64,
    /// The run finished via the serial fallback instead of full parallel
    /// recovery. The result is still correct; only the execution shape
    /// degraded.
    pub degraded_mode: bool,
}

/// Aggregate execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Counters per processor, indexed by [`Proc::idx`], accumulated
    /// across every attempt the processor survived. A convicted
    /// processor's slot is all zeros.
    pub per_proc: [ProcExec; 3],
    /// What the fault-tolerance layer did (all zero on a clean run).
    pub recovery: RecoveryStats,
}

impl ExecStats {
    /// Total elements that crossed between workers.
    pub fn total_sent(&self) -> u64 {
        self.per_proc.iter().map(|p| p.elems_sent).sum()
    }

    /// Total scalar updates performed by all workers.
    pub fn total_updates(&self) -> u64 {
        self.per_proc.iter().map(|p| p.updates).sum()
    }

    /// Total non-empty messages exchanged.
    pub fn total_messages(&self) -> u64 {
        self.per_proc.iter().map(|p| p.messages).sum()
    }

    /// Map the measured counters onto a platform clock, SCB-style: all
    /// messages serially on one medium (`α` per message, `β` per
    /// element), then computation in parallel at the platform's speeds.
    ///
    /// Because the executor's traffic equals the analytic pairwise volumes
    /// and its update counts equal `N · ∈X`, this reproduces the
    /// `hetmmm_cost::evaluate(Scb, ..)` total exactly up to the latency
    /// term's message granularity — asserted in the integration tests.
    pub fn virtual_scb_time(&self, speeds: [f64; 3], alpha: f64, beta: f64) -> f64 {
        let comm = alpha * self.total_messages() as f64 + beta * self.total_sent() as f64;
        let comp = self
            .per_proc
            .iter()
            .zip(speeds)
            .map(|(p, s)| p.updates as f64 / s)
            .fold(0.0f64, f64::max);
        comm + comp
    }
}

/// Tunables of the threaded executor.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Base wait of a single receive before the retry/backoff ladder
    /// starts. Sends never wait. Must be nonzero
    /// ([`ExecConfig::validate`]).
    pub recv_timeout: Duration,
    /// Retry budget used at *both* recovery layers: how many extra
    /// backoff slices a worker grants a silent peer before declaring it
    /// lost, and how many inconclusive attempts the supervisor re-runs
    /// before convicting.
    pub retry_attempts: u32,
    /// First backoff slice; slice `i` waits `base · 2^i`.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff slice.
    pub backoff_cap: Duration,
    /// Pivot steps per exchange: each worker sends each peer one message
    /// per block of this many steps and, when a fault plan is installed,
    /// banks a checkpoint at every block boundary. Values above `n` act as
    /// `n`. Must be nonzero.
    pub block: usize,
    /// Global wall budget for recovery, measured on [`ExecConfig::clock`]
    /// from the first detected failure. Once exceeded, the supervisor
    /// stops re-attempting and finishes serially in degraded mode.
    pub recovery_deadline: Duration,
    /// Scripted faults for deterministic testing. `None` (the default)
    /// injects nothing and costs nothing on the hot path.
    pub fault_plan: Option<FaultPlan>,
    /// Time source for timeline segments, receive-wait measurement, the
    /// recovery deadline, and supervisor backoff sleeps. Tests inject a
    /// [`hetmmm_obs::FakeClock`] for deterministic timings (its `sleep`
    /// advances instantly); the default is the shared monotonic clock.
    pub clock: Arc<dyn Clock>,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            recv_timeout: Duration::from_secs(1),
            retry_attempts: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(200),
            block: 16,
            recovery_deadline: Duration::from_secs(30),
            fault_plan: None,
            clock: Arc::new(obs::MonotonicClock),
        }
    }
}

impl ExecConfig {
    /// Builder-style: set the fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ExecConfig {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style: set the base peer-loss detection timeout.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> ExecConfig {
        self.recv_timeout = timeout;
        self
    }

    /// Builder-style: set the retry budget shared by receive re-waits and
    /// supervisor re-attempts (0 restores PR 1's convict-on-first-timeout
    /// behaviour).
    pub fn with_retry_attempts(mut self, attempts: u32) -> ExecConfig {
        self.retry_attempts = attempts;
        self
    }

    /// Builder-style: set the exponential backoff base and cap.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> ExecConfig {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Builder-style: set the block (pivot steps per exchange and per
    /// bank).
    pub fn with_block(mut self, steps: usize) -> ExecConfig {
        self.block = steps;
        self
    }

    /// Builder-style: set the global recovery deadline.
    pub fn with_recovery_deadline(mut self, deadline: Duration) -> ExecConfig {
        self.recovery_deadline = deadline;
        self
    }

    /// Builder-style: set the time source.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> ExecConfig {
        self.clock = clock;
        self
    }

    /// Reject configurations that can only hang or wedge the executor.
    ///
    /// A zero receive timeout never fires `recv_timeout` meaningfully, a
    /// zero block is a division-by-zero wearing a trench coat, and a cap
    /// below the base makes the backoff ladder non-monotone. All are
    /// misuse, surfaced eagerly as [`HetmmmError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), HetmmmError> {
        let invalid = |field: &str, detail: &str| {
            Err(HetmmmError::InvalidConfig {
                field: field.to_string(),
                detail: detail.to_string(),
            })
        };
        if self.recv_timeout.is_zero() {
            return invalid(
                "recv_timeout",
                "must be nonzero (a zero timeout convicts every peer instantly)",
            );
        }
        if self.block == 0 {
            return invalid("block", "must be nonzero");
        }
        if self.backoff_cap < self.backoff_base {
            return invalid("backoff_cap", "must be >= backoff_base");
        }
        Ok(())
    }

    /// The backoff policy both recovery layers run.
    fn backoff(&self) -> BackoffPolicy {
        BackoffPolicy {
            attempts: self.retry_attempts,
            base: self.backoff_base,
            cap: self.backoff_cap,
        }
    }

    /// Worst-case wait of one receive: the base timeout plus every backoff
    /// slice. Injected stalls park beyond it so every peer's budget
    /// provably runs out.
    fn receive_budget(&self) -> Duration {
        self.recv_timeout + self.backoff().total_extra()
    }
}

/// How a worker's run ended. Workers never panic on peer failure — they
/// report, and the supervisor decides.
enum Verdict {
    /// Finished all `n` steps; carries the owned C cells and counters.
    Completed(Kernel, ProcExec),
    /// An injected [`FaultKind::CrashAt`] fired at `step`. Work since the
    /// last banked checkpoint is lost with the worker.
    Crashed { step: usize },
    /// An injected [`FaultKind::StallAt`] fired: the worker checkpointed,
    /// parked past every peer's receive budget, and returned quietly.
    /// Deliberately carries no accusation — a wedged worker in a real
    /// system reports nothing, so the supervisor must convict it on peer
    /// testimony alone.
    Stalled { stats: ProcExec },
    /// A peer disconnected or went silent past the receive budget (the
    /// step it happened at travels in the `ExecPeerLost` event).
    PeerLost {
        peer: Proc,
        loss: Loss,
        stats: ProcExec,
    },
    /// The worker thread itself panicked — a genuine bug rather than a
    /// modeled fault. The payload is reported through the obs facade at
    /// capture time.
    Panicked,
}

/// Why a worker gave up on a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loss {
    /// The peer's channel closed, on a send or a receive.
    Disconnected,
    /// Nothing arrived within the receive budget, retries included.
    RecvTimedOut,
    /// A message of another block, or with a value count the partition
    /// does not give, arrived: one upstream was lost.
    OutOfStep,
}

impl Loss {
    /// The `ExecPeerLost.detail` text, and the weight of this testimony
    /// in `run_attempt`'s blame aggregation.
    fn describe(self) -> (&'static str, u32) {
        match self {
            Loss::Disconnected => ("channel disconnected", 1),
            Loss::RecvTimedOut => ("receive timed out", 3),
            Loss::OutOfStep => ("out-of-step message (lost message upstream)", 10),
        }
    }
}

struct Worker<'a> {
    proc: Proc,
    /// The attempt's partition: which A and B values this worker owns and
    /// which of them each peer needs.
    part: &'a Partition,
    /// The operands, read only through this worker's planes.
    a: &'a Matrix,
    b: &'a Matrix,
    /// First pivot step of this attempt (the global resume point).
    start: usize,
    /// Pivot steps per message and per bank, at most `n`. Blocks start at
    /// `start`.
    block: usize,
    /// Owned C cells: accumulators seeded from the checkpointed partials,
    /// each applying only the steps its cell still needs.
    kernel: Kernel,
    /// Outgoing channels to the other active workers.
    out: Vec<(Proc, Sender<BlockMessage>)>,
    /// Incoming channels from the other active workers.
    inbox: Vec<(Proc, Receiver<BlockMessage>)>,
    /// This worker's scripted faults (empty outside injection tests).
    faults: Vec<FaultKind>,
    /// Base receive wait before the retry ladder starts.
    timeout: Duration,
    /// Receive re-wait backoff policy.
    retry: BackoffPolicy,
    /// How long an injected stall parks: past every peer's receive budget.
    park: Duration,
    /// Supervisor-held checkpoint to bank progress into (present iff a
    /// fault plan is installed — the clean hot path never pays for it).
    checkpoint: Option<Arc<Checkpoint>>,
    /// Time source for segments and receive-wait measurement.
    clock: Arc<dyn Clock>,
}

impl Worker<'_> {
    /// Emit one timeline segment attributing `[start, end]` of this
    /// worker's wall time to `kind`. Callers gate on [`obs::enabled`] so
    /// the uninstrumented path never constructs the arguments.
    fn segment(&self, kind: &str, peer: &str, step: usize, start_nanos: u64, end_nanos: u64) {
        obs::emit(obs::EventKind::ExecSegment {
            worker: self.proc.to_string(),
            kind: kind.to_string(),
            peer: peer.to_string(),
            step: step as u64,
            start_nanos,
            end_nanos,
        });
    }

    /// Bank the current accumulators with the supervisor, valid through
    /// step `through`: one copy of the kernel's values into this worker's
    /// slot, whose buffer the attempt's first bank allocates and later
    /// banks reuse. The supervisor reads the cells back through the
    /// kernel's shared layout, each span valid through its own first step
    /// if that is further along than this attempt's progress.
    fn bank(&self, through: usize) {
        let Some(cp) = &self.checkpoint else {
            return;
        };
        let seg = obs::enabled();
        let bank_start = if seg { self.clock.now_nanos() } else { 0 };
        let through = through as u32;
        cp.bank(self.proc.idx(), &self.kernel, through);
        if seg {
            let bank_end = self.clock.now_nanos();
            self.segment("checkpoint", "", through as usize, bank_start, bank_end);
            obs::emit(obs::EventKind::ExecCheckpoint {
                worker: self.proc.to_string(),
                through: through as u64,
                cells: self.kernel.len() as u64,
            });
        }
    }

    /// Bank progress and report a lost peer through the facade before
    /// returning the verdict.
    fn peer_lost(&self, stats: ProcExec, peer: Proc, step: usize, loss: Loss) -> Verdict {
        self.bank(step);
        if obs::enabled() {
            obs::emit(obs::EventKind::ExecPeerLost {
                worker: self.proc.to_string(),
                peer: peer.to_string(),
                step: step as u64,
                detail: loss.describe().0.to_string(),
            });
        }
        Verdict::PeerLost { peer, loss, stats }
    }

    fn run(mut self) -> Verdict {
        let _span = obs::span_arg("exec.worker", self.proc.idx() as u64);
        let n = self.part.n();
        let mut stats = ProcExec::default();
        let mut block = Block::new(n, self.block);

        for k in self.start..n {
            let k0 = k - (k - self.start) % self.block;
            let steps = k0..(k0 + self.block).min(n);
            // Injected faults: a crash or a stall at the top of its step, a
            // drop or a delay on the message that carries its step.
            let mut drop_sends = false;
            for &fault in &self.faults {
                match fault {
                    FaultKind::CrashAt { step } if step == k => {
                        // Exiting drops our channel endpoints; peers see a
                        // disconnect. Work since the last periodic bank
                        // dies with us — that is the modeled loss.
                        return Verdict::Crashed { step: k };
                    }
                    FaultKind::DropMessageAt { step } if k == k0 && steps.contains(&step) => {
                        drop_sends = true;
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the injected stall IS the modeled fault"
                    )]
                    FaultKind::DelaySendAt { step, millis } if k == k0 && steps.contains(&step) => {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the injected stall IS the modeled fault"
                    )]
                    FaultKind::StallAt { step } if step == k => {
                        // Park past every peer's receive budget, then
                        // return without accusing anyone: persistent
                        // silence that only peer testimony can convict.
                        self.bank(k);
                        std::thread::sleep(self.park);
                        return Verdict::Stalled { stats };
                    }
                    _ => {}
                }
            }
            if k == k0 {
                let exchanged = self.exchange_block(&steps, !drop_sends, &mut stats, &mut block);
                if let Err(lost) = exchanged {
                    return lost;
                }
            }
            // Update every owned C element that still needs this step
            // (checkpointed cells skip steps already folded in).
            let seg = obs::enabled();
            let compute_start = if seg { self.clock.now_nanos() } else { 0 };
            let (a_col, b_row) = block.step(k);
            stats.updates += self.kernel.step(k, a_col, b_row);
            if seg {
                let compute_end = self.clock.now_nanos();
                self.segment("compute", "", k, compute_start, compute_end);
            }
            // Bank progress at every block boundary so a later crash of
            // *anyone* resumes from here instead of step zero. The final
            // step skips the bank — the Completed verdict carries
            // everything.
            if self.checkpoint.is_some() && k + 1 < n && k + 1 == steps.end {
                self.bank(k + 1);
            }
        }
        Verdict::Completed(self.kernel, stats)
    }

    /// At the top of a block: send every peer the values of `steps` it
    /// needs in one message (unless a fault drops them), read this worker's
    /// own values, and receive every peer's message, re-arming timed-out
    /// waits with bounded exponential backoff before escalating. Events and
    /// segments carry the block's first step.
    fn exchange_block(
        &self,
        steps: &Range<usize>,
        send: bool,
        stats: &mut ProcExec,
        block: &mut Block,
    ) -> Result<(), Verdict> {
        let k0 = steps.start;
        // `seg` gates all timeline-segment work this block; like the event
        // emissions it costs one relaxed load when off.
        let seg = obs::enabled();
        for (peer, tx) in self.out.iter().filter(|_| send) {
            let to = Exchange::new(self.part, self.proc, *peer);
            let mut values = Vec::with_capacity(to.count(steps.clone()));
            to.walk(steps.clone(), |p| values.push(p.read(self.a, self.b)));
            let payload = values.len() as u64;
            let send_start = if seg { self.clock.now_nanos() } else { 0 };
            // The only send error is a receiver that is gone.
            if tx.send((k0, values)).is_err() {
                return Err(self.peer_lost(*stats, *peer, k0, Loss::Disconnected));
            }
            stats.elems_sent += payload;
            if payload > 0 {
                stats.messages += 1;
            }
            if seg {
                let send_end = self.clock.now_nanos();
                let peer_name = peer.to_string();
                self.segment("send", &peer_name, k0, send_start, send_end);
                if payload > 0 {
                    obs::emit(obs::EventKind::ExecSend {
                        from: self.proc.to_string(),
                        to: peer_name,
                        step: k0 as u64,
                        elems: payload,
                    });
                }
            }
        }
        block.start(k0);
        let (a, b) = (self.a, self.b);
        Exchange::new(self.part, self.proc, self.proc)
            .walk(steps.clone(), |p| *block.slot(p) = p.read(a, b));
        for (peer, rx) in &self.inbox {
            // Measure blocked time only when someone is listening; the
            // uninstrumented path stays two relaxed loads per receive.
            let timing = obs::enabled() || obs::metrics_enabled();
            let wait_start = if timing { self.clock.now_nanos() } else { 0 };
            let mut window = self.timeout;
            let mut rewaits = 0u32;
            let (msg_step, values) = loop {
                match rx.recv_timeout(window) {
                    Ok(msg) => break msg,
                    Err(RecvTimeoutError::Timeout) => {
                        if rewaits >= self.retry.attempts {
                            return Err(self.peer_lost(*stats, *peer, k0, Loss::RecvTimedOut));
                        }
                        window = self.retry.delay(rewaits);
                        rewaits += 1;
                        stats.recv_retries += 1;
                        if obs::enabled() {
                            obs::emit(obs::EventKind::ExecRetry {
                                worker: self.proc.to_string(),
                                peer: peer.to_string(),
                                step: k0 as u64,
                                attempt: rewaits as u64,
                                wait_nanos: window.as_nanos() as u64,
                            });
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(self.peer_lost(*stats, *peer, k0, Loss::Disconnected))
                    }
                }
            };
            let from = Exchange::new(self.part, *peer, self.proc);
            if msg_step != k0 || values.len() != from.count(steps.clone()) {
                return Err(self.peer_lost(*stats, *peer, k0, Loss::OutOfStep));
            }
            let received = values.len() as u64;
            stats.elems_recv += received;
            if timing {
                let wait_nanos = self.clock.now_nanos().saturating_sub(wait_start);
                if obs::metrics_enabled() {
                    obs::metrics()
                        .histogram(obs::metrics::names::EXEC_RECV_WAIT_NANOS)
                        .observe(wait_nanos);
                }
                if obs::enabled() {
                    let peer_name = peer.to_string();
                    let wait_end = wait_start.saturating_add(wait_nanos);
                    self.segment("recv-wait", &peer_name, k0, wait_start, wait_end);
                    obs::emit(obs::EventKind::ExecRecv {
                        from: peer_name,
                        to: self.proc.to_string(),
                        step: k0 as u64,
                        elems: received,
                        wait_nanos,
                    });
                }
            }
            // The count matches the walk, so every value has its slot.
            let mut values = values.into_iter();
            from.walk(steps.clone(), |p| {
                *block.slot(p) = values.next().unwrap_or_default()
            });
        }
        Ok(())
    }
}

/// One worker's completed contribution: its processor, C cells, stats.
type WorkerDone = (Proc, Kernel, ProcExec);

/// What one attempt (one spawn of the active workers) produced.
enum Attempt {
    Done(Vec<WorkerDone>),
    Failed {
        dead: Proc,
        /// Did anyone confess (crash/panic)? Inconclusive failures earn
        /// supervisor-level retries before a conviction.
        conclusive: bool,
        /// Evidence weights per processor ([`Proc::idx`]-indexed), carried
        /// up so the supervisor can publish them if (and only if) this
        /// attempt's verdict becomes a conviction.
        weights: [u32; 3],
        /// Workers that finished all `n` steps this attempt.
        done: Vec<WorkerDone>,
        /// Counters from workers that did not finish.
        partial: Vec<(Proc, ProcExec)>,
    },
}

/// Everything one attempt needs beyond the matrices and partition.
struct AttemptCtx<'a> {
    config: &'a ExecConfig,
    state: &'a CellState,
    checkpoint: Option<&'a Arc<Checkpoint>>,
    start: usize,
}

/// Run the active workers once over `part` and aggregate their verdicts.
fn run_attempt(
    a: &Matrix,
    b: &Matrix,
    part: &Partition,
    active: &[Proc],
    ctx: &AttemptCtx,
) -> Attempt {
    let config = ctx.config;

    // One channel per ordered pair of active workers; each worker lists
    // its peers in processor order. Lockstep keeps at most two messages in
    // any channel, so none needs a bound.
    let mut out: [Vec<(Proc, Sender<BlockMessage>)>; 3] = Default::default();
    let mut inbox: [Vec<(Proc, Receiver<BlockMessage>)>; 3] = Default::default();
    for &x in active {
        for &y in active.iter().filter(|&&y| y != x) {
            let (tx, rx) = channel();
            out[x.idx()].push((y, tx));
            inbox[y.idx()].push((x, rx));
        }
    }

    let budget = config.receive_budget();

    let mut workers: Vec<Worker> = Vec::with_capacity(active.len());
    for &x in active {
        let faults = config
            .fault_plan
            .as_ref()
            .map(|plan| plan.faults_for(x))
            .unwrap_or_default();
        workers.push(Worker {
            proc: x,
            part,
            a,
            b,
            start: ctx.start,
            block: config.block.min(part.n()),
            kernel: Kernel::new(part, x, ctx.state),
            out: std::mem::take(&mut out[x.idx()]),
            inbox: std::mem::take(&mut inbox[x.idx()]),
            faults,
            timeout: config.recv_timeout,
            retry: config.backoff(),
            park: budget * 2 + Duration::from_millis(50),
            checkpoint: ctx.checkpoint.cloned(),
            clock: Arc::clone(&config.clock),
        });
    }

    let mut verdicts: Vec<(Proc, Verdict)> = Vec::with_capacity(active.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| {
                let proc = w.proc;
                (proc, scope.spawn(move || w.run()))
            })
            .collect();
        for (proc, handle) in handles {
            // Workers return verdicts instead of panicking; a panic here
            // is a genuine bug, not a modeled fault — but the coordinator
            // still degrades gracefully, blaming the panicked worker,
            // rather than taking the whole run down with it.
            let verdict = handle.join().unwrap_or_else(|payload| {
                if obs::enabled() {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|m| (*m).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    obs::emit(obs::EventKind::ExecPeerLost {
                        worker: proc.to_string(),
                        peer: proc.to_string(),
                        step: 0,
                        detail: format!("worker panicked: {what}"),
                    });
                }
                Verdict::Panicked
            });
            verdicts.push((proc, verdict));
        }
    });

    let mut done: Vec<WorkerDone> = Vec::new();
    let mut partial: Vec<(Proc, ProcExec)> = Vec::new();
    let mut failed = Vec::new();
    let mut completed = [false; 3];
    for (proc, v) in verdicts {
        match v {
            Verdict::Completed(cells, stats) => {
                completed[proc.idx()] = true;
                done.push((proc, cells, stats));
            }
            other => failed.push((proc, other)),
        }
    }
    if failed.is_empty() {
        return Attempt::Done(done);
    }

    // Blame aggregation, weighted by how conclusive each report is. An
    // explicit crash or panic is a confession (+100). An out-of-step
    // message proves the named sender skipped or lost a send (+10). A
    // receive timeout is strong evidence of a stall (+3). A bare
    // disconnect is weak (+1): it is often just the cascade from an
    // innocent peer that already exited after detecting the real failure.
    // Without the weighting, the first detector's early exit can out-vote
    // the actual culprit. A worker that finished all `n` steps is exempt
    // from conviction unless a peer names it: finishing proves it was
    // alive, not that its sends arrived (a worker that drops its messages
    // of the final block still receives its peers' and finishes). It
    // received everything sent to it, so only a message it withheld can
    // name it, which weighs as much as an out-of-step one. Ties break
    // toward the lower processor index, deterministically.
    let mut conclusive = false;
    let mut blame = [0u32; 3];
    for (proc, verdict) in &failed {
        match verdict {
            Verdict::Completed(..) => {}
            Verdict::Panicked => {
                conclusive = true;
                blame[proc.idx()] += 100;
            }
            Verdict::Crashed { step } => {
                // A confession must also be visible on the wire: the
                // happens-before checker (H003) only accepts a conviction
                // it can see testimony for. Panics already reported at
                // join time; modeled crashes confess here, citing the
                // step the fault fired at.
                if obs::enabled() {
                    obs::emit(obs::EventKind::ExecPeerLost {
                        worker: proc.to_string(),
                        peer: proc.to_string(),
                        step: *step as u64,
                        detail: "worker crashed (injected fault)".to_string(),
                    });
                }
                conclusive = true;
                blame[proc.idx()] += 100;
            }
            Verdict::Stalled { stats } => {
                // No self-report: a wedged worker is convicted (or not) on
                // its peers' testimony.
                partial.push((*proc, *stats));
            }
            Verdict::PeerLost { peer, loss, stats } => {
                partial.push((*proc, *stats));
                let loss = if completed[peer.idx()] {
                    Loss::OutOfStep
                } else {
                    *loss
                };
                blame[peer.idx()] += loss.describe().1;
            }
        }
    }
    // Convict among the workers that did not finish or that a peer names;
    // strict `>` keeps the first maximum, preferring the lower processor
    // index on ties.
    let mut dead_idx: Option<usize> = None;
    for &p in active {
        let i = p.idx();
        if completed[i] && blame[i] == 0 {
            continue;
        }
        match dead_idx {
            Some(d) if blame[i] <= blame[d] => {}
            _ => dead_idx = Some(i),
        }
    }
    // Every failed verdict comes from a non-completed active proc, so a
    // candidate always exists; fall back defensively all the same.
    let dead_idx = dead_idx.unwrap_or(0);
    let dead = Proc::ALL[dead_idx];
    // No ExecBlame here: an inconclusive verdict may still be overturned
    // by a supervisor retry. The supervisor emits the blame event at the
    // conviction point, so the event stream satisfies the happens-before
    // protocol (`obs_verify --hb`, rule H003): blame only after the retry
    // budget is exhausted or on a confession.
    Attempt::Failed {
        dead,
        conclusive,
        weights: blame,
        done,
        partial,
    }
}

/// Multiply `A x B` with ownership given by `part`, one thread per
/// processor, pivot values exchanged in blocks through channels. Returns
/// the assembled C and the executor statistics.
///
/// Fails with [`HetmmmError::DimensionMismatch`] if the matrices and
/// partition disagree on `n`. Worker failures never fail the call: they
/// are absorbed by retry/backoff, checkpointed resume, and survivor
/// re-partitioning, degrading to a supervisor-side serial tail
/// ([`RecoveryStats::degraded_mode`]) in the worst case — see
/// [`multiply_partitioned_with`] to configure that behaviour and to
/// inject faults.
///
/// ```
/// use hetmmm_mmm::{kij_serial, multiply_partitioned, Matrix};
/// use hetmmm_partition::{Partition, Proc};
///
/// let a = Matrix::from_fn(8, |i, j| (i + j) as f64);
/// let b = Matrix::identity(8);
/// let part = Partition::from_fn(8, |i, _| if i < 4 { Proc::P } else { Proc::S });
/// let (c, stats) = multiply_partitioned(&a, &b, &part).unwrap();
/// assert!(c.max_abs_diff(&a) < 1e-12); // A x I = A
/// assert_eq!(stats.total_sent(), part.voc());
/// assert_eq!(stats.recovery.faults_detected, 0);
/// ```
pub fn multiply_partitioned(
    a: &Matrix,
    b: &Matrix,
    part: &Partition,
) -> Result<(Matrix, ExecStats), HetmmmError> {
    multiply_partitioned_with(a, b, part, &ExecConfig::default())
}

/// The supervisor loop state shared by the parallel and degraded exits.
struct Supervisor {
    state: CellState,
    per_proc: [ProcExec; 3],
    recovery: RecoveryStats,
    checkpoint: Option<Arc<Checkpoint>>,
}

impl Supervisor {
    /// Fold one attempt's completed workers and banked checkpoints in.
    fn absorb_attempt(&mut self, done: Vec<WorkerDone>, partial: Vec<(Proc, ProcExec)>, n: usize) {
        for (proc, kernel, stats) in done {
            self.fold_stats(proc, &stats);
            self.state.absorb(&kernel.into_bank(n as u32));
        }
        for (proc, stats) in partial {
            self.fold_stats(proc, &stats);
        }
        if let Some(cp) = &self.checkpoint {
            for p in Proc::ALL {
                if let Some(bank) = cp.take(p.idx()) {
                    self.state.absorb(&bank);
                }
            }
        }
    }

    fn fold_stats(&mut self, proc: Proc, stats: &ProcExec) {
        self.per_proc[proc.idx()].fold(stats);
        self.recovery.recv_retries += stats.recv_retries;
    }

    /// Record the run's counters into the metrics registry. Instruments
    /// for the recovery path are touched only when they measured
    /// something, so a clean run's metric snapshot is identical to the
    /// pre-recovery-engine one (the perf gate compares counter sets
    /// exactly).
    fn record_metrics(&self) {
        if !obs::metrics_enabled() {
            return;
        }
        let m = obs::metrics();
        for p in Proc::ALL {
            let pe = &self.per_proc[p.idx()];
            m.counter(obs::metrics::names::EXEC_UPDATES[p.idx()])
                .add(pe.updates);
            m.counter(obs::metrics::names::EXEC_ELEMS_SENT[p.idx()])
                .add(pe.elems_sent);
        }
        m.counter(obs::metrics::names::EXEC_RECOVERIES)
            .add(self.recovery.faults_detected);
        let guarded = [
            (
                obs::metrics::names::EXEC_RECV_RETRIES,
                self.recovery.recv_retries,
            ),
            (
                obs::metrics::names::EXEC_ATTEMPT_RETRIES,
                self.recovery.attempt_retries,
            ),
            (
                obs::metrics::names::EXEC_BACKOFF_NANOS,
                self.recovery.backoff_nanos,
            ),
            (
                obs::metrics::names::EXEC_CHECKPOINTS,
                self.recovery.checkpoints,
            ),
            (
                obs::metrics::names::EXEC_RESUMED_STEPS,
                self.recovery.resumed_steps,
            ),
            (
                obs::metrics::names::EXEC_REPLAYED_STEPS,
                self.recovery.replayed_steps,
            ),
        ];
        for (name, value) in guarded {
            if value > 0 {
                m.counter(name).add(value);
            }
        }
        if self.recovery.degraded_mode {
            m.counter(obs::metrics::names::EXEC_DEGRADED_RUNS).inc();
        }
    }

    fn finish(mut self, n: usize) -> (Matrix, ExecStats) {
        if let Some(cp) = &self.checkpoint {
            self.recovery.checkpoints = cp.writes();
        }
        self.record_metrics();
        let stats = ExecStats {
            per_proc: self.per_proc,
            recovery: self.recovery,
        };
        (Matrix::from_row_major(n, self.state.c), stats)
    }

    /// Graceful degrade: finish every incomplete cell serially from the
    /// checkpointed partials, attribute the tail to the fastest survivor
    /// (if any survives), and return `Ok` in degraded mode. The tail is one
    /// kernel over every cell, stepped from the resume point in ascending
    /// `k` as a worker steps its own, so each cell adds exactly the
    /// products it still needs.
    fn finish_degraded(
        mut self,
        a: &Matrix,
        b: &Matrix,
        part: &Partition,
        active: &[Proc],
        reason: &str,
    ) -> (Matrix, ExecStats) {
        let n = part.n();
        let resume = self.state.resume_step();
        let mut tail = Kernel::new(&Partition::new(n, Proc::P), Proc::P, &self.state);
        let mut a_col = vec![0.0; n];
        let mut tail_updates = 0u64;
        for k in resume..n {
            for (i, v) in a_col.iter_mut().enumerate() {
                *v = a.get(i, k);
            }
            tail_updates += tail.step(k, &a_col, b.row(k));
        }
        self.state.absorb(&tail.into_bank(n as u32));
        // The fastest survivor (by owned elements, ties to the lower
        // index) is the node the serial tail models running on.
        if let Some(s) = fallback_survivor(part, active) {
            self.per_proc[s.idx()].updates += tail_updates;
        }
        self.recovery.degraded_mode = true;
        self.recovery.resumed_steps += resume as u64;
        self.recovery.replayed_steps += (n - resume) as u64;
        if obs::enabled() {
            obs::emit(obs::EventKind::ExecDegraded {
                survivors: active.len() as u64,
                cascade_depth: self.recovery.faults_detected,
                reason: reason.to_string(),
                replayed: (n - resume) as u64,
            });
        }
        self.finish(n)
    }
}

/// [`multiply_partitioned`] with explicit executor configuration —
/// timeouts, retry/backoff budgets, the block, recovery deadline, and (for
/// tests) a deterministic [`FaultPlan`].
///
/// Rejects wedge-prone configurations with
/// [`HetmmmError::InvalidConfig`] (see [`ExecConfig::validate`]). On
/// worker failure the supervisor climbs the recovery ladder described in
/// the module docs; `stats.recovery` reports the activity, and the
/// returned C is always verified-correct in tests against `kij_serial` —
/// including degraded-mode exits.
pub fn multiply_partitioned_with(
    a: &Matrix,
    b: &Matrix,
    part: &Partition,
    config: &ExecConfig,
) -> Result<(Matrix, ExecStats), HetmmmError> {
    config.validate()?;
    let n = part.n();
    if a.n() != n {
        return Err(HetmmmError::dimension_mismatch("A vs partition", a.n(), n));
    }
    if b.n() != n {
        return Err(HetmmmError::dimension_mismatch("B vs partition", b.n(), n));
    }

    let mut active: Vec<Proc> = Proc::ALL.to_vec();
    let mut current = part.clone();
    let mut sup = Supervisor {
        state: CellState::new(n),
        per_proc: [ProcExec::default(); 3],
        recovery: RecoveryStats::default(),
        // Checkpointing piggybacks on fault injection: with no plan there
        // is nothing to rehearse and the clean hot path stays untouched.
        checkpoint: config
            .fault_plan
            .is_some()
            .then(|| Arc::new(Checkpoint::new())),
    };
    let backoff = config.backoff();
    let mut deadline: Option<u64> = None;
    let mut attempt_no: u64 = 0;
    let mut transient_used: u32 = 0;
    let mut pending_backoff: u64 = 0;
    let _span = obs::span_arg("exec.run", n as u64);

    loop {
        let start = sup.state.resume_step();
        attempt_no += 1;
        if attempt_no > 1 {
            sup.recovery.resumed_steps += start as u64;
            sup.recovery.replayed_steps += (n - start) as u64;
            if obs::enabled() {
                obs::emit(obs::EventKind::ExecResume {
                    attempt: attempt_no,
                    resume_step: start as u64,
                    resumed: start as u64,
                    replayed: (n - start) as u64,
                    survivors: active.len() as u64,
                    backoff_nanos: pending_backoff,
                });
            }
        }
        pending_backoff = 0;
        let ctx = AttemptCtx {
            config,
            state: &sup.state,
            checkpoint: sup.checkpoint.as_ref(),
            start,
        };
        match run_attempt(a, b, &current, &active, &ctx) {
            Attempt::Done(results) => {
                sup.absorb_attempt(results, Vec::new(), n);
                return Ok(sup.finish(n));
            }
            Attempt::Failed {
                dead,
                conclusive,
                weights,
                done,
                partial,
            } => {
                sup.absorb_attempt(done, partial, n);
                let now = config.clock.now_nanos();
                let dl = *deadline.get_or_insert_with(|| {
                    now.saturating_add(
                        config.recovery_deadline.as_nanos().min(u64::MAX as u128) as u64
                    )
                });
                if now >= dl {
                    return Ok(sup.finish_degraded(a, b, &current, &active, "deadline"));
                }
                if !conclusive && transient_used < config.retry_attempts {
                    // Inconclusive: nobody confessed. Back off and re-run
                    // from the checkpoint before blaming anyone — this is
                    // what absorbs transient silences.
                    let wait = backoff.delay(transient_used);
                    transient_used += 1;
                    sup.recovery.attempt_retries += 1;
                    let wait_nanos = wait.as_nanos().min(u64::MAX as u128) as u64;
                    sup.recovery.backoff_nanos += wait_nanos;
                    pending_backoff = wait_nanos;
                    config.clock.sleep(wait);
                    continue;
                }
                // Conviction: the evidence (or the exhausted retry
                // budget) stands. Each new fault gets a fresh transient
                // budget — cascades re-enter discrimination per fault.
                transient_used = 0;
                if obs::enabled() {
                    obs::emit(obs::EventKind::ExecBlame {
                        dead: dead.to_string(),
                        weights: weights.iter().map(|&w| w as u64).collect(),
                    });
                }
                sup.recovery.faults_detected += 1;
                sup.per_proc[dead.idx()] = ProcExec::default();
                active.retain(|&p| p != dead);
                if active.len() < 2 {
                    return Ok(sup.finish_degraded(a, b, &current, &active, "sole-survivor"));
                }
                let degraded = degrade_partition(&current, dead);
                let reassigned_now = degraded.reassigned as u64;
                current = degraded.partition;
                sup.recovery.elems_reassigned += reassigned_now;
                if obs::enabled() {
                    obs::emit(obs::EventKind::ExecRepartition {
                        dead: dead.to_string(),
                        reassigned: reassigned_now,
                        survivors: active.len() as u64,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::kij_serial;
    use hetmmm_obs::FakeClock;
    use hetmmm_partition::{pairwise_volumes, PartitionBuilder, Rect};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrices(n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (Matrix::random(n, &mut rng), Matrix::random(n, &mut rng))
    }

    /// Short timeouts and a tight retry/backoff budget so the
    /// timeout-driven fault tests stay fast.
    fn fast_config() -> ExecConfig {
        ExecConfig::default()
            .with_recv_timeout(Duration::from_millis(200))
            .with_retry_attempts(1)
            .with_backoff(Duration::from_millis(20), Duration::from_millis(40))
    }

    #[test]
    fn loss_kinds_pin_their_text_and_blame_weight() {
        let described =
            [Loss::Disconnected, Loss::RecvTimedOut, Loss::OutOfStep].map(Loss::describe);
        assert_eq!(
            described,
            [
                ("channel disconnected", 1),
                ("receive timed out", 3),
                ("out-of-step message (lost message upstream)", 10),
            ]
        );
    }

    #[test]
    fn matches_serial_on_strips() {
        let n = 24;
        let (a, b) = random_matrices(n, 7);
        let part = Partition::from_fn(n, |i, _| {
            if i < 8 {
                Proc::P
            } else if i < 16 {
                Proc::R
            } else {
                Proc::S
            }
        });
        let (c, stats) = multiply_partitioned(&a, &b, &part).unwrap();
        let reference = kij_serial(&a, &b);
        assert!(c.max_abs_diff(&reference) < 1e-10);
        assert_eq!(stats.total_updates(), (n * n * n) as u64);
        assert_eq!(stats.recovery, RecoveryStats::default());
    }

    #[test]
    fn matches_serial_on_square_corner() {
        let n = 20;
        let (a, b) = random_matrices(n, 8);
        let part = PartitionBuilder::new(n)
            .rect(Rect::new(0, 5, 0, 5), Proc::R)
            .rect(Rect::new(14, 19, 14, 19), Proc::S)
            .build();
        let (c, _) = multiply_partitioned(&a, &b, &part).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
    }

    #[test]
    fn matches_serial_on_scatter() {
        // Even a pathological scatter must compute correctly.
        let n = 16;
        let (a, b) = random_matrices(n, 9);
        let part = Partition::from_fn(n, |i, j| match (i * 7 + j * 3) % 4 {
            0 => Proc::R,
            1 => Proc::S,
            _ => Proc::P,
        });
        let (c, _) = multiply_partitioned(&a, &b, &part).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
    }

    #[test]
    fn rejects_mismatched_dimensions() {
        let (a, _) = random_matrices(8, 13);
        let (_, b) = random_matrices(9, 13);
        let part = Partition::new(8, Proc::P);
        match multiply_partitioned(&a, &b, &part) {
            Err(HetmmmError::DimensionMismatch { left, right, .. }) => {
                assert_eq!((left, right), (9, 8));
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
        let part = Partition::new(10, Proc::P);
        assert!(matches!(
            multiply_partitioned(&a, &a, &part),
            Err(HetmmmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_wedge_prone_configs() {
        let (a, b) = random_matrices(4, 14);
        let part = Partition::new(4, Proc::P);
        let cases = [
            (
                ExecConfig::default().with_recv_timeout(Duration::ZERO),
                "recv_timeout",
            ),
            (ExecConfig::default().with_block(0), "block"),
            (
                ExecConfig::default()
                    .with_backoff(Duration::from_millis(100), Duration::from_millis(10)),
                "backoff_cap",
            ),
        ];
        for (config, expect_field) in cases {
            match multiply_partitioned_with(&a, &b, &part, &config) {
                Err(HetmmmError::InvalidConfig { field, .. }) => {
                    assert_eq!(field, expect_field);
                }
                other => panic!("expected InvalidConfig({expect_field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn traffic_matches_pairwise_volumes() {
        // The executor sends exactly the elements the analytic accounting
        // charges for: element (i,k) of A goes to Y iff Y owns C cells in
        // row i, etc. Each sender's `elems_sent` below is its row sum of
        // `pairwise_volumes`, and with one step per message every counter
        // is what the per-step exchange counted. `tests/mmm_correctness.rs`
        // checks this partition's C and traffic at every block.
        let n = 18;
        let (a, b) = random_matrices(n, 10);
        let part = PartitionBuilder::new(n)
            .rect(Rect::new(0, 8, 0, 5), Proc::R)
            .rect(Rect::new(10, 17, 9, 17), Proc::S)
            .build();
        let (_, stats) =
            multiply_partitioned_with(&a, &b, &part, &ExecConfig::default().with_block(1)).unwrap();
        assert_eq!(stats.total_sent(), part.voc());
        let vol = pairwise_volumes(&part);
        for x in Proc::ALL {
            assert_eq!(
                stats.per_proc[x.idx()].elems_sent,
                vol[x.idx()].iter().sum()
            );
        }
        let proc = |updates, elems_sent, elems_recv, messages| ProcExec {
            updates,
            elems_sent,
            elems_recv,
            messages,
            recv_retries: 0,
        };
        let per_step = ExecStats {
            per_proc: [
                proc(972, 108, 162, 9),
                proc(1296, 144, 162, 9),
                proc(3564, 324, 252, 22),
            ],
            recovery: RecoveryStats::default(),
        };
        assert_eq!(stats, per_step);
    }

    #[test]
    fn single_owner_partition_sends_nothing() {
        let n = 8;
        let (a, b) = random_matrices(n, 11);
        let part = Partition::new(n, Proc::P);
        let (c, stats) = multiply_partitioned(&a, &b, &part).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        assert_eq!(stats.total_sent(), 0);
        assert_eq!(stats.per_proc[Proc::P.idx()].updates, (n * n * n) as u64);
    }

    #[test]
    fn updates_proportional_to_ownership() {
        let n = 12;
        let (a, b) = random_matrices(n, 12);
        let part = PartitionBuilder::new(n)
            .rect(Rect::new(0, 5, 0, 11), Proc::R)
            .build();
        let (_, stats) = multiply_partitioned(&a, &b, &part).unwrap();
        assert_eq!(
            stats.per_proc[Proc::R.idx()].updates,
            (n * part.elems(Proc::R)) as u64
        );
        assert_eq!(
            stats.per_proc[Proc::P.idx()].updates,
            (n * part.elems(Proc::P)) as u64
        );
    }

    #[test]
    fn virtual_scb_time_matches_cost_model_without_latency() {
        let n = 18;
        let (a, b) = random_matrices(n, 21);
        let part = PartitionBuilder::new(n)
            .rect(Rect::new(0, 8, 0, 5), Proc::R)
            .rect(Rect::new(10, 17, 9, 17), Proc::S)
            .build();
        let (_, stats) = multiply_partitioned(&a, &b, &part).unwrap();
        // Speeds indexed [R, S, P] to match Proc::idx.
        let beta = 1e-9;
        let speeds = [2e9, 1e9, 4e9];
        let virt = stats.virtual_scb_time(speeds, 0.0, beta);
        // Manual SCB: voc * beta + max over processors of
        // (N * elems) updates at the processor's speed.
        let comm = part.voc() as f64 * beta;
        let comp = [Proc::R, Proc::S, Proc::P]
            .iter()
            .map(|&p| (n * part.elems(p)) as f64 / speeds[p.idx()])
            .fold(0.0f64, f64::max);
        assert!((virt - (comm + comp)).abs() < 1e-15);
    }

    #[test]
    fn message_count_bounded_by_steps() {
        let n = 12;
        let (a, b) = random_matrices(n, 22);
        let part = PartitionBuilder::new(n)
            .rect(Rect::new(0, 5, 0, 11), Proc::R)
            .build();
        for block in [1, 4, 16, n] {
            let config = ExecConfig::default().with_block(block);
            let (_, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
            // Each worker sends each of 2 peers at most one non-empty
            // message per block.
            for p in Proc::ALL {
                let messages = stats.per_proc[p.idx()].messages;
                assert!(
                    messages <= (2 * n.div_ceil(block)) as u64,
                    "block {block}, {p}"
                );
            }
            assert!(stats.total_messages() > 0);
        }
    }

    // ---- fault-tolerance tests ----

    fn three_way(n: usize) -> Partition {
        PartitionBuilder::new(n)
            .rect(Rect::new(0, n / 3 - 1, 0, n - 1), Proc::R)
            .rect(Rect::new(n / 3, 2 * n / 3 - 1, 0, n - 1), Proc::S)
            .build()
    }

    #[test]
    fn injected_crash_recovers_with_correct_result() {
        let n = 18;
        let (a, b) = random_matrices(n, 31);
        let part = three_way(n);
        let dead_elems = part.elems(Proc::S) as u64;
        let config = fast_config()
            .with_block(1)
            .with_fault_plan(FaultPlan::crash(Proc::S, n / 2));
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        assert_eq!(stats.recovery.faults_detected, 1);
        assert_eq!(stats.recovery.elems_reassigned, dead_elems);
        // A crash is a confession: convicted immediately, no supervisor
        // backoff attempts burned.
        assert_eq!(stats.recovery.attempt_retries, 0);
        // With a block of 1 the re-attempt resumes at the crash step
        // instead of replaying from scratch.
        assert_eq!(stats.recovery.resumed_steps, (n / 2) as u64);
        assert_eq!(stats.recovery.replayed_steps, (n - n / 2) as u64);
        assert!(stats.recovery.checkpoints > 0);
        assert!(!stats.recovery.degraded_mode);
        // The dead worker's contribution is not attributed to anyone.
        assert_eq!(stats.per_proc[Proc::S.idx()], ProcExec::default());
    }

    #[test]
    fn crash_at_step_zero_recovers() {
        let n = 12;
        let (a, b) = random_matrices(n, 32);
        let part = three_way(n);
        let config = fast_config().with_fault_plan(FaultPlan::crash(Proc::R, 0));
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        assert_eq!(stats.recovery.faults_detected, 1);
        // Nothing was checkpointed before step 0: full replay.
        assert_eq!(stats.recovery.resumed_steps, 0);
        assert_eq!(stats.recovery.replayed_steps, n as u64);
    }

    #[test]
    fn dropped_message_detected_and_convicted_after_retries() {
        let n = 12;
        let (a, b) = random_matrices(n, 33);
        let part = three_way(n);
        let plan = FaultPlan::new().with_fault(Proc::P, FaultKind::DropMessageAt { step: 3 });
        let config = fast_config().with_fault_plan(plan);
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        // A lost message is inconclusive (nobody confesses), so the
        // supervisor burns its whole transient budget re-attempting —
        // the drop re-fires every attempt — before convicting P.
        assert_eq!(stats.recovery.attempt_retries, 1);
        assert_eq!(stats.recovery.faults_detected, 1);
        assert!(stats.recovery.backoff_nanos > 0);
        assert_eq!(stats.per_proc[Proc::P.idx()], ProcExec::default());
        assert!(!stats.recovery.degraded_mode);
    }

    #[test]
    fn short_delay_does_not_trigger_recovery() {
        let n = 10;
        let (a, b) = random_matrices(n, 34);
        let part = three_way(n);
        let plan = FaultPlan::new().with_fault(
            Proc::S,
            FaultKind::DelaySendAt {
                step: 2,
                millis: 20,
            },
        );
        let config = ExecConfig::default().with_fault_plan(plan);
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        // Checkpoints are banked whenever a fault plan is installed, but
        // nothing else moved.
        assert_eq!(stats.recovery.faults_detected, 0);
        assert_eq!(stats.recovery.recv_retries, 0);
        assert_eq!(stats.recovery.attempt_retries, 0);
        assert!(!stats.recovery.degraded_mode);
    }

    #[test]
    fn delay_beyond_timeout_absorbed_by_receive_rewait() {
        let n = 10;
        let (a, b) = random_matrices(n, 39);
        let part = three_way(n);
        // 100ms delay vs a 60ms base timeout: the first wait times out,
        // the first backoff slice (60ms, ending at 120ms) absorbs it.
        let plan = FaultPlan::new().with_fault(
            Proc::S,
            FaultKind::DelaySendAt {
                step: 2,
                millis: 100,
            },
        );
        let config = ExecConfig::default()
            .with_recv_timeout(Duration::from_millis(60))
            .with_retry_attempts(2)
            .with_backoff(Duration::from_millis(60), Duration::from_millis(240))
            .with_fault_plan(plan);
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        // Absorbed entirely at the worker layer: retries ticked, nobody
        // was blamed, no supervisor attempt was burned.
        assert_eq!(stats.recovery.faults_detected, 0);
        assert_eq!(stats.recovery.attempt_retries, 0);
        assert!(stats.recovery.recv_retries > 0);
        assert!(!stats.recovery.degraded_mode);
    }

    #[test]
    fn stall_is_convicted_on_peer_testimony() {
        let n = 9;
        let (a, b) = random_matrices(n, 40);
        let part = three_way(n);
        let plan = FaultPlan::new().with_fault(Proc::S, FaultKind::StallAt { step: 3 });
        let config = ExecConfig::default()
            .with_recv_timeout(Duration::from_millis(80))
            .with_retry_attempts(1)
            .with_backoff(Duration::from_millis(20), Duration::from_millis(40))
            .with_fault_plan(plan);
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        // The staller never confesses: conviction rests on its peers'
        // timeout testimony, after the transient budget is exhausted.
        assert_eq!(stats.recovery.faults_detected, 1);
        assert_eq!(stats.recovery.attempt_retries, 1);
        assert!(stats.recovery.recv_retries > 0);
        assert_eq!(stats.per_proc[Proc::S.idx()], ProcExec::default());
        assert!(!stats.recovery.degraded_mode);
    }

    #[test]
    fn deadline_exhaustion_degrades_without_conviction() {
        let n = 9;
        let (a, b) = random_matrices(n, 41);
        let part = three_way(n);
        // A repeating inconclusive fault plus a recovery deadline shorter
        // than one backoff slice: the supervisor must give up re-attempting
        // and finish serially, without ever convicting anyone.
        let clock = Arc::new(FakeClock::new());
        let plan = FaultPlan::new().with_fault(Proc::P, FaultKind::DropMessageAt { step: 2 });
        let config = ExecConfig::default()
            .with_recv_timeout(Duration::from_millis(100))
            .with_retry_attempts(3)
            .with_backoff(Duration::from_millis(100), Duration::from_millis(100))
            .with_recovery_deadline(Duration::from_millis(50))
            .with_clock(clock)
            .with_fault_plan(plan);
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        assert!(stats.recovery.degraded_mode);
        assert_eq!(
            stats.recovery.faults_detected, 0,
            "deadline beat conviction"
        );
        assert_eq!(stats.recovery.attempt_retries, 1);
        assert_eq!(
            stats.recovery.backoff_nanos,
            Duration::from_millis(100).as_nanos() as u64,
            "FakeClock makes the backoff schedule exactly reproducible"
        );
    }

    #[test]
    fn two_crashes_degrade_to_serial_on_sole_survivor() {
        let n = 15;
        let (a, b) = random_matrices(n, 35);
        let part = three_way(n);
        let plan = FaultPlan::new()
            .with_fault(Proc::R, FaultKind::CrashAt { step: 2 })
            .with_fault(Proc::S, FaultKind::CrashAt { step: 5 });
        let config = fast_config().with_block(1).with_fault_plan(plan);
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        // The cascade re-enters blame per fault: two convictions, then a
        // graceful degrade to the single survivor.
        assert_eq!(stats.recovery.faults_detected, 2);
        assert!(stats.recovery.degraded_mode);
        assert_eq!(stats.per_proc[Proc::R.idx()], ProcExec::default());
        assert_eq!(stats.per_proc[Proc::S.idx()], ProcExec::default());
        // The second crash's checkpoint still pays off: the serial tail
        // starts past step 2.
        assert!(stats.recovery.resumed_steps > 0);
    }

    #[test]
    fn total_fault_cascade_still_returns_a_correct_result() {
        let n = 9;
        let (a, b) = random_matrices(n, 36);
        let part = three_way(n);
        let plan = FaultPlan::new()
            .with_fault(Proc::R, FaultKind::CrashAt { step: 0 })
            .with_fault(Proc::S, FaultKind::CrashAt { step: 1 })
            .with_fault(Proc::P, FaultKind::CrashAt { step: 2 });
        let config = fast_config().with_fault_plan(plan);
        // PR 1 surfaced NoSurvivors here; the recovery engine now degrades
        // to the supervisor-side serial tail instead of failing the call.
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        assert!(stats.recovery.degraded_mode);
        assert_eq!(stats.recovery.faults_detected, 2);
    }

    #[test]
    fn crash_of_sole_owner_is_survivable() {
        // P owns every cell and dies: the empty survivors inherit all of
        // it, split between them, resuming from P's banked checkpoint.
        let n = 10;
        let (a, b) = random_matrices(n, 38);
        let part = Partition::new(n, Proc::P);
        let config = fast_config()
            .with_block(1)
            .with_fault_plan(FaultPlan::crash(Proc::P, 4));
        let (c, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
        assert!(c.max_abs_diff(&kij_serial(&a, &b)) < 1e-10);
        assert_eq!(stats.recovery.elems_reassigned, (n * n) as u64);
        assert_eq!(stats.recovery.resumed_steps, 4);
        assert_eq!(stats.per_proc[Proc::P.idx()], ProcExec::default());
        assert!(!stats.recovery.degraded_mode);
    }
}
