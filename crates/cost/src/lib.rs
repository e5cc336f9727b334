//! # hetmmm-cost
//!
//! Closed-form performance models of the five parallel MMM algorithms on
//! three heterogeneous processors (Sections II and IV-B of DeFlumere &
//! Lastovetsky 2014), plus the normalized cost functions of the Section X
//! analysis (Fig. 13).
//!
//! The five algorithms differ in *when* data moves relative to computation:
//!
//! | algo | communication | overlap |
//! |------|---------------|---------|
//! | SCB  | serial        | none (barrier) |
//! | PCB  | parallel      | none (barrier) |
//! | SCO  | serial        | bulk (local work during comm) |
//! | PCO  | parallel      | bulk |
//! | PIO  | parallel      | interleaved per pivot step |
//!
//! Communication is modeled with the Hockney linear model
//! `T = α + β·M` ([`hockney`]); processors have relative speeds
//! `P_r : R_r : S_r`; the network is fully connected or a star
//! ([`platform`]). The per-algorithm execution-time formulas (Eqs. 2–9)
//! live in [`models`], and the normalized Square-Corner / Block-Rectangle
//! comparison of Section X-A in [`closed`].

pub mod closed;
pub mod hockney;
pub mod models;
pub mod platform;

pub use closed::{sc_beats_br, scb_comm_norm, scb_comm_norm_candidate, CandidateKind, ShapeCost};
pub use hockney::HockneyModel;
pub use models::{evaluate, evaluate_all, evaluate_pio_blocked, AlgoTime, Algorithm};
pub use platform::{Platform, Topology};
