//! # hetmmm-push
//!
//! The three-processor **Push** operation and the DFA search engine — the
//! primary contribution of DeFlumere & Lastovetsky (HCW/IPDPS-W 2014),
//! Sections IV–VI.
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
//! Modules:
//! - [`op`]: directions, push types, and the atomic [`op::try_push`] /
//!   [`op::try_push_any_type`] operations with exact ΔVoC accounting and
//!   rollback,
//! - [`targets`]: phase 1 of a push — the word-parallel candidate
//!   classifier shared with the k-processor engine in `hetmmm-nproc`,
//! - [`geom`]: the canonical-coordinate table and the
//!   [`canonical_geometry!`] macro that generates it once per view type,
//! - [`view`]: the direction-canonicalizing coordinate view that lets one
//!   implementation serve ↓, ↑, ← and →,
//! - [`probe`]: clone-free feasibility probes ([`probe::push_feasible`])
//!   answered by the same kernel through a read-only overlay, plus the
//!   hash-verified per-run verdict cache the DFA uses,
//! - [`dfa`]: the randomized search engine (random `q0`, random direction
//!   sets, random interleaving) with snapshot support (Fig. 7),
//! - [`beautify`]: exhaustive condensation in *all* directions, used to
//!   finish Archetype C shapes (Theorem 8.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beautify;
pub mod dfa;
pub mod geom;
pub mod op;
pub mod probe;
pub mod targets;
pub mod view;

pub use beautify::{beautify, is_condensed};
pub use dfa::{DfaConfig, DfaOutcome, DfaRunner, PushPlan, Termination};
pub use op::{try_push, try_push_any_type, AppliedPush, Direction, PushType};
pub use probe::push_feasible;
