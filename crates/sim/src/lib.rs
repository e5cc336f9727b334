//! # hetmmm-sim
//!
//! Message-level simulation of the five parallel MMM algorithms on a
//! three-processor heterogeneous platform.
//!
//! Where `hetmmm-cost` evaluates the paper's closed-form execution-time
//! formulas (Eqs. 2–9), this crate *schedules the actual messages and
//! compute phases* implied by a partition: every processor-to-processor
//! transfer becomes a message with a start and end time on the Hockney
//! network, serialized per the algorithm (one shared medium for serial
//! communication, per-sender NICs for parallel communication, two-hop
//! relays on a star). This is the substitute for the paper's Open-MPI
//! testbed (Section X-B / Fig. 14): under the linear Hockney model the
//! communication time of SCB is a deterministic function of the partition
//! shape, matrix size and bandwidth — exactly what the simulator computes,
//! message by message.
//!
//! The cross-checks (unit tests here plus workspace integration tests)
//! assert that the simulated totals coincide with the closed-form models
//! whenever the paper's modelling assumptions (unicast volumes for SCB,
//! Eq. 6 broadcast volumes for PCB, global barriers) are selected, and
//! bound them otherwise.

pub mod message;
pub mod schedule;
pub mod timeline;

pub use message::{build_messages, CommMode, Message};
pub use schedule::{simulate, simulate_all, SimConfig};
pub use timeline::{Phase, SimResult, Span};
