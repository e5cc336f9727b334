//! # hetmmm-nproc
//!
//! The paper's stated extension (Sections I and XI): "A fundamental
//! requirement of this program is that it must also be applicable beyond
//! the three processor case. It can easily be adapted to form partition
//! shapes for any number of processors." — this crate is that adaptation.
//!
//! The grid, the push and the search walk are the ones the three-processor
//! search uses: [`NPartition`] is the workspace's one plane store (from
//! `hetmmm-partition`, where `Partition` is its three-owner form), the
//! k-processor push is a rule layer of `hetmmm-push` ([`push`] re-exports
//! it), and `hetmmm-push`'s DFA walk runs it (`hetmmm_push::walk_n`). This
//! crate adds what is specific to `k ≥ 2` processors:
//!
//! - [`dfa`]: the seeded runner — random start, per-processor direction
//!   plans, the step cap — and its outcome,
//! - [`stats`]: shape descriptors for the outcomes — per-processor
//!   rectangularity (fill of the enclosing rectangle), corner counts, and
//!   the pairwise enclosing-rectangle overlap structure — the raw material
//!   for a future ≥4-processor archetype taxonomy.
//!
//! Processor 0 is the fastest (the background owner of the remainder);
//! processors `1..k` are the slower, pushable ones, in decreasing speed
//! order. With `k = 3` the behaviour matches the main `hetmmm` crates
//! (cross-checked in tests); with `k = 2` it reproduces the two-processor
//! prior work.

pub mod dfa;
pub mod push;
pub mod stats;

pub use dfa::{NDfaConfig, NDfaOutcome, NDfaRunner};
pub use hetmmm_partition::NPartition;
pub use push::{push_feasible_n, try_push_n, NDirection, PushMode};
pub use stats::{OutcomeStats, ProcShapeStats};
