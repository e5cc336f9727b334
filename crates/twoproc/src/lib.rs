//! # hetmmm-twoproc
//!
//! The two-processor substrate: the shapes, optimality results and Push
//! behaviour of the paper's prior work ([8], DeFlumere, Lastovetsky &
//! Becker, HCW 2012), which the three-processor study extends.
//!
//! For two processors (one fast, one slow) the prior work proved that only
//! three general shapes survive the Push operation:
//!
//! - **Straight-Line**: the classical 1D strip partition,
//! - **Square-Corner**: the slow processor takes a square in a corner,
//! - **Rectangle-Corner**: the slow processor takes a full-height (or
//!   full-width) rectangle flush to one side... of intermediate aspect,
//!
//! and that the Square-Corner is globally optimal when the speed ratio
//! exceeds 3:1 under the barrier / interleaved algorithms (SCB, PCB, PIO)
//! and for *all* ratios under bulk overlap (SCO, PCO).
//!
//! We embed the two-processor world into the three-processor [`Partition`]
//! by leaving processor `R` empty: the fast processor is `P`, the slow one
//! `S`. All three-processor machinery (Push, cost models, simulator,
//! executor) then applies unchanged — which is itself a regression test of
//! that machinery's degenerate-case handling.

pub mod analysis;
pub mod degrade;
pub mod search2;
pub mod shapes2;

pub use analysis::{crossover_ratio, sc_vs_sl, Comparison};
pub use degrade::{degrade_partition, fallback_survivor, DegradeOutcome};
pub use search2::{classify_two_proc, run_two_proc_search, TwoProcOutcome};
pub use shapes2::TwoProcShape;
