//! # hetmmm
//!
//! A from-scratch reproduction of **DeFlumere & Lastovetsky, "Searching for
//! the Optimal Data Partitioning Shape for Parallel Matrix Matrix
//! Multiplication on 3 Heterogeneous Processors"** (HCW / IPDPS Workshops
//! 2014) — the Push operation, the DFA shape search, the four archetypes,
//! the six candidate canonical partitions, the five parallel-MMM
//! performance models, a message-level platform simulator, and a threaded
//! kij executor.
//!
//! ## Quick start
//!
//! ```
//! use hetmmm::prelude::*;
//!
//! // Your platform: P is 5x faster than S, R is 2x faster than S.
//! let ratio = Ratio::new(5, 2, 1);
//! let platform = Platform::new(ratio, 1e9, 10.0 / 1e9);
//!
//! // Which of the six candidate shapes minimizes SCB execution time?
//! let rec = hetmmm::recommend(120, ratio, &platform, Algorithm::Scb);
//! println!("use the {} partition", rec.candidate.ty);
//!
//! // Or run the paper's randomized Push DFA yourself:
//! let report = hetmmm::census(&hetmmm::CensusConfig::new(40, ratio).with_runs(8));
//! assert_eq!(report.total(), 8);
//! assert!(report.classified_fraction() > 0.5);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`partition`] | the `q(i,j)` grid, VoC accounting, enclosing rectangles |
//! | [`push`] | Push Types 1–6, the randomized DFA, beautify |
//! | [`shapes`] | corners, archetypes A–D, reductions, six candidates |
//! | [`cost`] | Hockney model, SCB/PCB/SCO/PCO/PIO closed forms |
//! | [`sim`] | message-level schedule simulation |
//! | [`mmm`] | serial kij and the partition-driven threaded executor |
//! | [`twoproc`] | the two-processor prior-work substrate |

pub use hetmmm_cost as cost;
pub use hetmmm_error as error;
pub use hetmmm_mmm as mmm;
pub use hetmmm_partition as partition;
pub use hetmmm_push as push;
pub use hetmmm_shapes as shapes;
pub use hetmmm_sim as sim;
pub use hetmmm_twoproc as twoproc;

mod census;
pub mod paper;
pub mod prelude;
mod recommend;

pub use census::{census, CensusConfig, CensusReport};
pub use recommend::{recommend, Recommendation};
