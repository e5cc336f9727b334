//! # hetmmm-error
//!
//! The workspace-wide typed error enum. Public APIs that used to panic or
//! `expect` (the threaded executor, the DFA runner's checked entry points,
//! the partition builder) return [`HetmmmError`] instead, so callers can
//! distinguish misuse (dimension mismatches, out-of-bounds rectangles,
//! configs that would wedge the executor) from runtime conditions (search
//! non-convergence). Worker loss is not an error: the executor recovers or
//! degrades to a serial finish and reports it in its stats.
//!
//! `thiserror` is not vendorable in this offline build, so the `Display`
//! and `Error` impls are written by hand in the same one-variant-one-message
//! style a `#[derive(Error)]` would generate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a DFA run stopped without reaching a fixed point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NonConvergence {
    /// The hard cap on applied pushes was exhausted.
    StepCapExhausted,
    /// The cap on consecutive VoC-neutral pushes was exhausted.
    ZeroDeltaCapExhausted,
}

impl fmt::Display for NonConvergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonConvergence::StepCapExhausted => write!(f, "step cap exhausted"),
            NonConvergence::ZeroDeltaCapExhausted => {
                write!(f, "zero-delta (VoC-neutral) cap exhausted")
            }
        }
    }
}

/// The workspace-wide error type.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum HetmmmError {
    /// Two sizes that must agree do not (e.g. matrix vs matrix, matrix vs
    /// partition).
    DimensionMismatch {
        /// What was being compared (e.g. `"A vs B"`).
        what: String,
        /// Left-hand dimension.
        left: usize,
        /// Right-hand dimension.
        right: usize,
    },
    /// A rectangle exceeds the partition bounds.
    RectOutOfBounds {
        /// Display form of the offending rectangle.
        rect: String,
        /// The partition dimension it violates.
        n: usize,
    },
    /// A DFA run hit a safety cap instead of a fixed point.
    NonConverged {
        /// Which cap stopped the run.
        kind: NonConvergence,
        /// Pushes applied before the cap.
        steps: usize,
        /// VoC of the random start state.
        voc_initial: u64,
        /// VoC when the run was stopped.
        voc_final: u64,
    },
    /// A DFA run ended with a higher VoC than it started with — a bug in
    /// the push engine (checked even in release builds by the `*_checked`
    /// entry points).
    VocIncreased {
        /// VoC of the start state.
        voc_initial: u64,
        /// VoC of the final state.
        voc_final: u64,
    },
    /// An execution/config knob holds a value that can only hang or wedge
    /// the run (e.g. a zero receive timeout or zero channel capacity).
    /// Surfaced eagerly at entry instead of deadlocking later.
    InvalidConfig {
        /// The offending field, e.g. `"recv_timeout"`.
        field: String,
        /// Why the value is rejected.
        detail: String,
    },
}

impl HetmmmError {
    /// Convenience constructor for dimension mismatches.
    pub fn dimension_mismatch(what: &str, left: usize, right: usize) -> HetmmmError {
        HetmmmError::DimensionMismatch {
            what: what.to_string(),
            left,
            right,
        }
    }
}

impl fmt::Display for HetmmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HetmmmError::DimensionMismatch { what, left, right } => {
                write!(f, "dimension mismatch ({what}): {left} != {right}")
            }
            HetmmmError::RectOutOfBounds { rect, n } => {
                write!(f, "rect {rect} out of bounds for n = {n}")
            }
            HetmmmError::NonConverged {
                kind,
                steps,
                voc_initial,
                voc_final,
            } => write!(
                f,
                "DFA run did not converge ({kind} after {steps} steps; \
                 VoC {voc_initial} -> {voc_final})"
            ),
            HetmmmError::VocIncreased {
                voc_initial,
                voc_final,
            } => write!(
                f,
                "DFA run increased VoC ({voc_initial} -> {voc_final}); \
                 push engine invariant violated"
            ),
            HetmmmError::InvalidConfig { field, detail } => {
                write!(f, "invalid config: {field}: {detail}")
            }
        }
    }
}

impl std::error::Error for HetmmmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_carry_context() {
        let e = HetmmmError::dimension_mismatch("A vs B", 8, 9);
        assert_eq!(e.to_string(), "dimension mismatch (A vs B): 8 != 9");

        let e = HetmmmError::NonConverged {
            kind: NonConvergence::StepCapExhausted,
            steps: 800,
            voc_initial: 100,
            voc_final: 60,
        };
        assert!(e.to_string().contains("step cap exhausted"));
        assert!(e.to_string().contains("800"));
    }

    #[test]
    fn invalid_config_names_the_field() {
        let e = HetmmmError::InvalidConfig {
            field: "channel_capacity".into(),
            detail: "must be nonzero (a zero-capacity channel deadlocks)".into(),
        };
        assert!(e.to_string().contains("channel_capacity"));
        let back: HetmmmError = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(HetmmmError::RectOutOfBounds {
            rect: "[rows 0..=8, cols 0..=8]".into(),
            n: 8,
        });
        assert!(e.to_string().contains("out of bounds for n = 8"));
    }
}
