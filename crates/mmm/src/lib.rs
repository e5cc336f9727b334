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
//! Each worker holds **only the matrix elements its partition assigns to
//! it**; pivot fragments travel through bounded channels, so the
//! communication the cost models count actually happens (and is counted by
//! the executor's [`parallel::ExecStats`]). The result is verified against
//! the serial reference in tests for arbitrary partitions.
//!
//! The executor is fault-tolerant: worker failures (scripted through
//! [`fault::FaultPlan`] or real) are detected via channel disconnects and
//! receive timeouts, then run through a layered recovery engine — receive
//! re-waits with bounded exponential backoff absorb transient silences,
//! step checkpoints banked with the supervisor let re-attempts resume
//! instead of restarting, convictions re-assign the dead processor's C
//! cells onto the survivors with [`hetmmm_twoproc::degrade_partition`],
//! and when survivors, retries, or the recovery deadline run out the
//! supervisor finishes the tail serially and reports
//! [`parallel::RecoveryStats::degraded_mode`] instead of erroring — see
//! DESIGN.md's "Failure model".

pub mod fault;
pub mod matrix;
pub mod parallel;
mod supervise;

pub use fault::{FaultKind, FaultPlan};
pub use matrix::{kij_serial, naive_multiply, Matrix};
pub use parallel::{
    multiply_partitioned, multiply_partitioned_with, ExecConfig, ExecStats, ProcExec, RecoveryStats,
};
