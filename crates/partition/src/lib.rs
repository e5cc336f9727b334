//! # hetmmm-partition
//!
//! Core data structures for representing a data partition of an `N x N`
//! matrix among three heterogeneous processors, following the formalism of
//! DeFlumere & Lastovetsky, *"Searching for the Optimal Data Partitioning
//! Shape for Parallel Matrix Matrix Multiplication on 3 Heterogeneous
//! Processors"* (IPDPS Workshops / HCW 2014).
//!
//! The paper models a partition as a function `q(i, j) -> {0, 1, 2}` mapping
//! each matrix element to one of the processors `R`, `S`, `P` (Section IV).
//! The central quantity is the *volume of communication* (Eq. 1):
//!
//! ```text
//! VoC = sum_i N * (c_i - 1) + sum_j N * (c_j - 1)
//! ```
//!
//! where `c_i` (`c_j`) is the number of processors owning elements in row `i`
//! (column `j`). [`Partition`] maintains all the per-row/per-column occupancy
//! counts **incrementally**, so a single element reassignment and the
//! resulting VoC delta are `O(1)`. This is what makes the Push search engine
//! (crate `hetmmm-push`) able to run thousands of multi-thousand-step DFA
//! walks per second. A rectangle fill ([`Partition::fill_rect`]) costs its
//! lines times plane words rather than its cells, which is what builds the
//! six candidate shapes at `N = 1000` in well under a millisecond each.
//!
//! Modules:
//! - [`proc_`]: the processor enum and speed-ratio arithmetic,
//! - [`rect`]: inclusive integer rectangles (enclosing rectangles, Fig. 4),
//! - [`grid`]: the plane store [`NPartition`] for `k` owners and its
//!   three-processor form, the [`Partition`] grid, and its word-wise corner
//!   count ([`NPartition::corner_count`]),
//! - [`metrics`]: extracted communication metrics consumed by the cost models,
//! - [`builder`]: constructing partitions from rectangle layouts and the
//!   paper's randomized `q0` generator (Section VI-A-2),
//! - [`render`]: coarse-grained ASCII / PGM rendering (Fig. 7 style).

pub mod bits;
pub mod builder;
mod corners;
pub mod grid;
pub mod metrics;
pub mod proc_;
pub mod rect;
pub mod render;
pub mod sym;

pub use builder::{random_partition, PartitionBuilder};
pub use grid::{NPartition, Partition};
pub use metrics::{local_updates, pairwise_volumes, CommMetrics, ProcMetrics};
pub use proc_::{Proc, Ratio};
pub use rect::Rect;
pub use render::{downsample, render_ascii, render_pgm};
pub use sym::{canonical_image, dihedral_images, mirror_h, mirror_v, rotate_cw, transpose};
