//! # hetmmm-shapes
//!
//! Shape taxonomy and candidate partitions (Sections VII–IX of DeFlumere &
//! Lastovetsky 2014).
//!
//! After the DFA search (crate `hetmmm-push`) condenses a random start state
//! to a fixed point, this crate answers: *what shape is it?* It implements
//!
//! - the corner taxonomy of Section VIII-A ([`corners`]),
//! - per-processor region analysis — contiguity, exact / asymptotic
//!   rectangularity (Fig. 3), band profiles ([`region`]),
//! - the four archetype classes A–D of Section VII and the classifier
//!   mapping any condensed partition onto them ([`archetype`]); its corner
//!   counts, row intervals and block majorities all read plane words,
//! - the archetype reductions B→A, C→A, D→A of Theorems 8.2–8.4
//!   ([`transform`]),
//! - the six candidate canonical shapes of Section IX with their
//!   feasibility conditions (Theorem 9.1) and perimeter-minimizing canonical
//!   forms ([`candidates`]).

pub mod archetype;
pub mod candidates;
pub mod canonical;
pub mod corners;
pub mod region;
pub mod transform;

pub use archetype::{classify, classify_coarse, classify_tolerant, Archetype};
pub use candidates::{Candidate, CandidateType};
pub use canonical::{rectangle_corner_split, square_corner_margin, CornerSplit};
pub use corners::corner_count;
pub use region::{RegionKind, RegionProfile};
pub use transform::{reduce_to_archetype_a, translate_combined};
