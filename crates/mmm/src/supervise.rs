//! Supervision primitives for the fault-tolerant executor: the
//! supervisor-held step checkpoint, the per-cell resume state, and the
//! bounded exponential backoff policy.
//!
//! PR 1's executor recovered by restarting the whole multiply on a
//! degraded partition. This module makes recovery *incremental* and
//! *budgeted*:
//!
//! - Workers periodically bank their C accumulators into a [`Checkpoint`]
//!   owned by the supervisor. Each banked cell carries the pivot step it
//!   is valid **through**, so the bank stays correct even when a worker's
//!   cells start at different resume points (re-assigned cells lag the
//!   worker's original ones).
//! - The supervisor folds banked snapshots into a [`CellState`] — one
//!   `(partial value, next pivot step)` pair per C cell. A re-attempt
//!   starts at [`CellState::resume_step`] (the least-advanced cell) and
//!   each worker applies a step to a cell only if that cell still needs
//!   it, so re-assigned cells replay exactly the missing contributions.
//! - [`BackoffPolicy`] computes the bounded exponential waits used both
//!   by workers re-arming a timed-out receive and by the supervisor
//!   between attempts, all through the installed clock so a
//!   [`hetmmm_obs::FakeClock`] keeps schedules deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One worker's banked progress: its C accumulators, each tagged with the
/// pivot step the value is valid through (all steps `< through` folded in).
#[derive(Clone, Debug, Default)]
pub(crate) struct ProcSnapshot {
    /// `(i, j, partial value, through)` per owned cell.
    pub cells: Vec<(u32, u32, f64, u32)>,
}

/// Supervisor-held checkpoint: one slot per processor, written by the
/// worker threads mid-run and drained by the supervisor after each
/// attempt. Slots are independent mutexes, so workers never contend with
/// each other.
#[derive(Debug, Default)]
pub(crate) struct Checkpoint {
    slots: [Mutex<Option<ProcSnapshot>>; 3],
    writes: AtomicU64,
}

impl Checkpoint {
    pub(crate) fn new() -> Checkpoint {
        Checkpoint::default()
    }

    /// Bank a snapshot for processor index `idx` (replaces any previous
    /// one — later snapshots always dominate earlier ones per cell).
    pub(crate) fn bank(&self, idx: usize, snapshot: ProcSnapshot) {
        let mut slot = self.slots[idx].lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(snapshot);
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the snapshot banked for processor index `idx`, if any.
    pub(crate) fn take(&self, idx: usize) -> Option<ProcSnapshot> {
        self.slots[idx]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
    }

    /// Total bank operations performed so far.
    pub(crate) fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// The supervisor's view of the whole C matrix: per cell, the partial
/// value accumulated so far and the next pivot step the cell still needs.
#[derive(Clone, Debug)]
pub(crate) struct CellState {
    n: usize,
    /// Partial `C[i,j]` values, row-major.
    pub c: Vec<f64>,
    /// `next_k[i*n+j]`: first pivot step not yet folded into `c[i*n+j]`.
    pub next_k: Vec<u32>,
}

impl CellState {
    pub(crate) fn new(n: usize) -> CellState {
        CellState {
            n,
            c: vec![0.0; n * n],
            next_k: vec![0; n * n],
        }
    }

    /// Fold a banked snapshot in: a cell is overwritten only when the
    /// snapshot has folded in strictly more pivot steps than the state.
    pub(crate) fn absorb(&mut self, snapshot: &ProcSnapshot) {
        for &(i, j, v, through) in &snapshot.cells {
            let idx = i as usize * self.n + j as usize;
            if through > self.next_k[idx] {
                self.c[idx] = v;
                self.next_k[idx] = through;
            }
        }
    }

    /// First pivot step any cell still needs — where the next attempt
    /// resumes from. Equals `n` when every cell is complete.
    pub(crate) fn resume_step(&self) -> usize {
        self.next_k.iter().copied().min().unwrap_or(0) as usize
    }

    /// Initial `(accumulator, next step)` pairs for the given cells, in
    /// order — what the per-cell reference update starts from.
    #[cfg(test)]
    pub(crate) fn initial_for(&self, cells: &[(u32, u32)]) -> (Vec<f64>, Vec<u32>) {
        let mut acc = Vec::with_capacity(cells.len());
        let mut next = Vec::with_capacity(cells.len());
        for &(i, j) in cells {
            let idx = i as usize * self.n + j as usize;
            acc.push(self.c[idx]);
            next.push(self.next_k[idx]);
        }
        (acc, next)
    }
}

/// Bounded exponential backoff: wait `base * 2^i` after the `i`-th retry,
/// capped at `cap`, for at most `attempts` retries.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BackoffPolicy {
    pub attempts: u32,
    pub base: Duration,
    pub cap: Duration,
}

impl BackoffPolicy {
    /// The wait granted by retry number `i` (0-based).
    pub(crate) fn delay(&self, i: u32) -> Duration {
        let factor = 1u32.checked_shl(i).unwrap_or(u32::MAX);
        let nanos = (self.base.as_nanos() as u64).saturating_mul(factor as u64);
        Duration::from_nanos(nanos).min(self.cap)
    }

    /// Total extra wait the policy can grant on top of the base timeout:
    /// the sum of every retry's delay.
    pub(crate) fn total_extra(&self) -> Duration {
        (0..self.attempts).map(|i| self.delay(i)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = BackoffPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(35),
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(35)); // capped
        assert_eq!(p.delay(3), Duration::from_millis(35));
        assert_eq!(
            p.total_extra(),
            Duration::from_millis(10 + 20 + 35 + 35 + 35)
        );
    }

    #[test]
    fn backoff_survives_huge_retry_indices() {
        let p = BackoffPolicy {
            attempts: 2,
            base: Duration::from_secs(1),
            cap: Duration::from_secs(4),
        };
        assert_eq!(p.delay(63), Duration::from_secs(4));
        assert_eq!(p.delay(200), Duration::from_secs(4));
    }

    #[test]
    fn checkpoint_bank_and_take_round_trip() {
        let cp = Checkpoint::new();
        assert!(cp.take(1).is_none());
        cp.bank(
            1,
            ProcSnapshot {
                cells: vec![(0, 0, 1.5, 3)],
            },
        );
        cp.bank(
            1,
            ProcSnapshot {
                cells: vec![(0, 0, 2.5, 5)],
            },
        );
        assert_eq!(cp.writes(), 2);
        let snap = cp.take(1).expect("banked");
        assert_eq!(snap.cells, vec![(0, 0, 2.5, 5)]);
        assert!(cp.take(1).is_none(), "take drains the slot");
    }

    #[test]
    fn cell_state_absorbs_only_strictly_newer_cells() {
        let mut state = CellState::new(2);
        state.absorb(&ProcSnapshot {
            cells: vec![(0, 0, 1.0, 2), (0, 1, 9.0, 1)],
        });
        // Older/equal `through` must not clobber.
        state.absorb(&ProcSnapshot {
            cells: vec![(0, 0, -7.0, 2), (0, 1, 3.0, 0)],
        });
        assert_eq!(state.c[0], 1.0);
        assert_eq!(state.c[1], 9.0);
        assert_eq!(state.next_k, vec![2, 1, 0, 0]);
        assert_eq!(state.resume_step(), 0);
    }

    #[test]
    fn initial_for_reads_cells_in_order() {
        let mut state = CellState::new(2);
        state.absorb(&ProcSnapshot {
            cells: vec![(1, 1, 4.0, 2)],
        });
        let (acc, next) = state.initial_for(&[(1, 1), (0, 0)]);
        assert_eq!(acc, vec![4.0, 0.0]);
        assert_eq!(next, vec![2, 0]);
    }

    #[test]
    fn resume_step_is_the_least_advanced_cell() {
        let mut state = CellState::new(2);
        state.absorb(&ProcSnapshot {
            cells: vec![
                (0, 0, 1.0, 4),
                (0, 1, 1.0, 4),
                (1, 0, 1.0, 4),
                (1, 1, 1.0, 3),
            ],
        });
        assert_eq!(state.resume_step(), 3);
    }
}
