//! Supervision primitives for the fault-tolerant executor: the
//! supervisor-held step checkpoint, the per-cell resume state, and the
//! bounded exponential backoff policy.
//!
//! PR 1's executor recovered by restarting the whole multiply on a
//! degraded partition. This module makes recovery *incremental* and
//! *budgeted*:
//!
//! - Workers bank their C accumulators into a [`Checkpoint`] owned by the
//!   supervisor at every block boundary, where a block is the run of
//!   pivot steps whose values travel in one message. A bank is a copy of
//!   the worker's kernel accumulators, 8 bytes a cell, into a buffer the
//!   worker's slot keeps for the rest of the attempt, plus the pivot step
//!   the values are valid **through**. The cells' positions and first steps are the
//!   kernel's layout, fixed for the attempt and shared behind an `Arc`,
//!   so a bank never carries them. A span of cells is valid through its
//!   own first step when that is further along, so the bank stays correct
//!   even when a worker's cells start at different resume points
//!   (re-assigned cells lag the worker's original ones).
//! - The supervisor reads each bank back through its layout and folds it
//!   into a [`CellState`] — one `(partial value, next pivot step)` pair
//!   per C cell. A re-attempt starts at [`CellState::resume_step`] (the
//!   least-advanced cell) and each worker applies a step to a cell only if
//!   that cell still needs it, so re-assigned cells replay exactly the
//!   missing contributions.
//! - [`BackoffPolicy`] computes the bounded exponential waits used both
//!   by workers re-arming a timed-out receive and by the supervisor
//!   between attempts, all through the installed clock so a
//!   [`hetmmm_obs::FakeClock`] keeps schedules deterministic.

use crate::kernel::{Bank, Kernel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Supervisor-held checkpoint: one slot per processor, written by the
/// worker threads mid-run and drained by the supervisor after each
/// attempt. Slots are independent mutexes, so workers never contend with
/// each other.
#[derive(Debug, Default)]
pub(crate) struct Checkpoint {
    slots: [Mutex<Option<Bank>>; 3],
    writes: AtomicU64,
}

impl Checkpoint {
    pub(crate) fn new() -> Checkpoint {
        Checkpoint::default()
    }

    /// Bank `kernel`'s accumulators for processor index `idx`, valid
    /// through `through` steps. A bank replaces the previous one (later
    /// banks always dominate earlier ones per cell); after the first bank
    /// of an attempt it copies into the same buffer.
    pub(crate) fn bank(&self, idx: usize, kernel: &Kernel, through: u32) {
        let mut slot = self.slots[idx].lock().unwrap_or_else(|p| p.into_inner());
        kernel.bank_into(&mut slot, through);
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the bank of processor index `idx`, if any.
    pub(crate) fn take(&self, idx: usize) -> Option<Bank> {
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

    /// Fold a bank in, reading it through its layout: a cell is
    /// overwritten only when the bank has folded in strictly more pivot
    /// steps than the state.
    pub(crate) fn absorb(&mut self, bank: &Bank) {
        let n = self.n;
        bank.for_each_cell(|i, j, v, through| {
            let idx = i as usize * n + j as usize;
            if through > self.next_k[idx] {
                self.c[idx] = v;
                self.next_k[idx] = through;
            }
        });
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
    use hetmmm_partition::{Partition, Proc};

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

    /// P's kernel over row 0 of a 2×2 C, seeded with `partials` and
    /// `first` steps, one per column.
    fn row_kernel(partials: [f64; 2], first: [u32; 2]) -> Kernel {
        let part = Partition::from_fn(2, |i, _| if i == 0 { Proc::P } else { Proc::R });
        let mut state = CellState::new(2);
        state.c[..2].copy_from_slice(&partials);
        state.next_k[..2].copy_from_slice(&first);
        Kernel::new(&part, Proc::P, &state)
    }

    /// One pivot step on `kernel` that adds `row` to its two cells.
    fn add(kernel: &mut Kernel, row: [f64; 2]) {
        kernel.step(2, &[1.0, 0.0], &row);
    }

    #[test]
    fn checkpoint_bank_and_take_round_trip() {
        let cp = Checkpoint::new();
        assert!(cp.take(1).is_none());
        let mut kernel = row_kernel([1.5, 0.5], [0, 0]);
        cp.bank(1, &kernel, 3);
        add(&mut kernel, [1.0, 1.0]);
        cp.bank(1, &kernel, 5);
        assert_eq!(cp.writes(), 2);
        let bank = cp.take(1).expect("banked");
        assert_eq!(bank.cells(), vec![(0, 0, 2.5, 5), (0, 1, 1.5, 5)]);
        assert!(cp.take(1).is_none(), "take drains the slot");
        // A bank of another kernel (the next attempt's) replaces this one.
        cp.bank(1, &kernel, 5);
        cp.bank(1, &row_kernel([7.0, 8.0], [0, 0]), 1);
        let bank = cp.take(1).expect("banked");
        assert_eq!(bank.cells(), vec![(0, 0, 7.0, 1), (0, 1, 8.0, 1)]);
        assert_eq!(cp.writes(), 4);
    }

    #[test]
    fn a_second_bank_reuses_the_first_banks_buffer() {
        let cp = Checkpoint::new();
        let mut kernel = row_kernel([1.0, 2.0], [0, 0]);
        let buffer = |cp: &Checkpoint| {
            let slot = cp.slots[0].lock().expect("unpoisoned");
            slot.as_ref().map(Bank::buffer)
        };
        cp.bank(0, &kernel, 1);
        let first = buffer(&cp);
        assert!(first.is_some());
        add(&mut kernel, [3.0, 4.0]);
        cp.bank(0, &kernel, 2);
        assert_eq!(buffer(&cp), first, "same pointer, same capacity");
        let bank = cp.take(0).expect("banked");
        assert_eq!(bank.cells(), vec![(0, 0, 4.0, 2), (0, 1, 6.0, 2)]);
    }

    #[test]
    fn cell_state_absorbs_only_strictly_newer_cells() {
        let mut state = CellState::new(2);
        // Cell (0, 0) needs step 2 first, so it is valid through 2 in a
        // bank through 1.
        state.absorb(&row_kernel([1.0, 9.0], [2, 0]).into_bank(1));
        // Older/equal `through` must not clobber.
        state.absorb(&row_kernel([-7.0, 3.0], [2, 0]).into_bank(0));
        state.absorb(&row_kernel([-7.0, 3.0], [0, 0]).into_bank(1));
        assert_eq!(state.c[0], 1.0);
        assert_eq!(state.c[1], 9.0);
        assert_eq!(state.next_k, vec![2, 1, 0, 0]);
        assert_eq!(state.resume_step(), 0);
        // A strictly newer `through` wins.
        state.absorb(&row_kernel([5.0, 6.0], [0, 0]).into_bank(3));
        assert_eq!(&state.c[..2], &[5.0, 6.0]);
        assert_eq!(state.next_k, vec![3, 3, 0, 0]);
    }

    #[test]
    fn initial_for_reads_cells_in_order() {
        let mut state = CellState::new(2);
        let part = Partition::from_fn(2, |i, j| if (i, j) == (1, 1) { Proc::P } else { Proc::R });
        let mut seeded = CellState::new(2);
        seeded.c[3] = 4.0;
        state.absorb(&Kernel::new(&part, Proc::P, &seeded).into_bank(2));
        let (acc, next) = state.initial_for(&[(1, 1), (0, 0)]);
        assert_eq!(acc, vec![4.0, 0.0]);
        assert_eq!(next, vec![2, 0]);
    }

    #[test]
    fn resume_step_is_the_least_advanced_cell() {
        let mut state = CellState::new(2);
        let part = Partition::new(2, Proc::P);
        let mut seeded = CellState::new(2);
        seeded.next_k = vec![4, 4, 4, 0];
        state.absorb(&Kernel::new(&part, Proc::P, &seeded).into_bank(3));
        assert_eq!(state.next_k, vec![4, 4, 4, 3]);
        assert_eq!(state.resume_step(), 3);
    }
}
