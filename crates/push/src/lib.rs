//! # hetmmm-push
//!
//! The **Push** operation and the DFA search engine — the primary
//! contribution of DeFlumere & Lastovetsky (HCW/IPDPS-W 2014), Sections
//! IV–VI — with the paper's k-processor generalization beside it.
//!
//! A *Push* is an atomic transformation of a partition `q` into `q₁` that
//! cleans one edge line of the active processor's enclosing rectangle and is
//! guaranteed never to increase the Eq. 1 volume of communication. The paper
//! defines six Push *types* differing in how strictly the displaced elements
//! must respect existing row/column occupancy (Section IV-A), and a
//! Deterministic Finite Automaton whose states are partition shapes and whose
//! transition function is the Push (Section V). Running the DFA from random
//! start states to a fixed point yields the candidate optimal shapes.
//!
//! One push engine serves two rule layers over the one plane store,
//! [`NPartition`](hetmmm_partition::NPartition): the six types on three
//! processors ([`op`]), and three strictness modes on `k` ([`modes`]).
//! Phase 1 (the cleaned line and the candidate targets), phase 3 (pairing,
//! swaps, the ΔVoC contract and the undo), the grid view, the probes and
//! the DFA walk are shared; only phase 2, which assigns displaced owners,
//! differs.
//!
//! Modules:
//! - [`op`]: directions, push types, the shared phase 3, and the atomic
//!   [`op::try_push`] / [`op::try_push_any_type`] operations with exact
//!   ΔVoC accounting and rollback,
//! - [`modes`]: the k-processor rule layer ([`try_push_n`]),
//! - `targets`: phase 1 of a push — the word-parallel candidate classifier,
//! - `view`: the canonical frame that lets one implementation serve ↓, ↑,
//!   ← and →, and the grid view the kernel works through,
//! - [`probe`]: clone-free feasibility probes ([`push_feasible`],
//!   [`push_feasible_n`]) answered by the same kernel on the grid itself,
//!   which revert the push they find,
//! - [`dfa`]: the randomized search engine (random `q0`, random direction
//!   sets, random interleaving) with snapshot support (Fig. 7). One walk
//!   runs it under either rule layer: [`DfaRunner`] for three processors,
//!   [`walk_n`] for `hetmmm-nproc`'s k-processor runner,
//! - [`mod@beautify`]: exhaustive condensation in *all* directions, used to
//!   finish Archetype C shapes (Theorem 8.3); it stops by the walk's rule.

pub mod beautify;
pub mod dfa;
pub mod modes;
pub mod op;
pub mod probe;
mod targets;
mod view;

pub use beautify::{beautify, is_condensed};
pub use dfa::{walk_n, DfaConfig, DfaOutcome, DfaRunner, PushPlan, Termination};
pub use modes::{try_push_mode, try_push_n, NAppliedPush, PushMode};
pub use op::{try_push, try_push_any_type, AppliedPush, Direction, PushType};
pub use probe::{push_feasible, push_feasible_n};
