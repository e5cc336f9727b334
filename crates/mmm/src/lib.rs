//! # hetmmm-mmm
//!
//! The kij matrix-matrix multiplication substrate (Section II, Fig. 1) and
//! a partition-driven multi-threaded executor standing in for the paper's
//! three Open-MPI nodes (Section X-B).
//!
//! The kij algorithm iterates a pivot `k` over rows/columns: at each step,
//! every element of C is updated with
//! `C[i,j] += A[i,k] * B[k,j]`. If the processor computing `C[i,j]` does
//! not own the pivot elements `A[i,k]` / `B[k,j]`, they must be
//! communicated — which is precisely where the partition shape determines
//! the communication volume.
//!
//! [`parallel::multiply_partitioned`] runs one OS thread per processor.
//! Each worker **reads only the matrix elements its partition assigns to
//! it, through its planes**; pivot values travel through bounded channels,
//! one message per peer per block of [`parallel::ExecConfig::block`] pivot
//! steps, so the communication the cost models count actually happens (and
//! is counted by the executor's [`parallel::ExecStats`]). The result is
//! verified against the serial reference in tests for arbitrary partitions
//! and blocks.
//!
//! Each worker's per-step C update is one kernel call. The kernel keeps
//! the worker's accumulators row-major and picks a layout per worker from
//! the mean length of its row runs (stretches of consecutive owned columns
//! in one row): a slice update the compiler vectorises for long runs, such
//! as the rectangles of every §IX candidate, and a row-grouped gather for
//! short ones, such as a random start state. Every cell still adds one
//! product per step in ascending `k`, so C is bit-identical to the
//! per-cell update either way.
//!
//! The executor is fault-tolerant: worker failures (scripted through
//! [`fault::FaultPlan`] or real) are detected via channel disconnects and
//! receive timeouts, then run through a layered recovery engine — receive
//! re-waits with bounded exponential backoff absorb transient silences,
//! checkpoints banked with the supervisor at block boundaries let
//! re-attempts resume
//! instead of restarting, convictions re-assign the dead processor's C
//! cells onto the survivors with [`hetmmm_twoproc::degrade_partition`],
//! and when survivors, retries, or the recovery deadline run out the
//! supervisor finishes the tail serially and reports
//! [`parallel::RecoveryStats::degraded_mode`] instead of erroring — see
//! DESIGN.md's "Failure model".

mod exchange;
pub mod fault;
mod kernel;
pub mod matrix;
pub mod parallel;
mod supervise;

pub use fault::{FaultKind, FaultPlan};
pub use matrix::{kij_serial, naive_multiply, Matrix};
pub use parallel::{
    multiply_partitioned, multiply_partitioned_with, ExecConfig, ExecStats, ProcExec, RecoveryStats,
};
