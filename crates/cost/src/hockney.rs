//! The Hockney communication model (Section II, \[12\]).
//!
//! `T_comm = α + β · M`: a fixed per-message latency `α` plus a per-element
//! transfer time `β`. The paper's experiments (Fig. 14) use a 1000 MB/s
//! network and 8-byte matrix elements; [`HockneyModel::from_bandwidth`]
//! builds that configuration.

use serde::{Deserialize, Serialize};

/// Linear Hockney model: `T = alpha + beta * elements`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HockneyModel {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Per-element transfer time in seconds (the paper's `T_send`).
    pub beta: f64,
}

impl HockneyModel {
    /// A latency-free model with the given per-element time (the paper's
    /// analytic sections use `T_send` alone).
    pub fn per_element(t_send: f64) -> HockneyModel {
        HockneyModel {
            alpha: 0.0,
            beta: t_send,
        }
    }

    /// Build from link bandwidth in bytes/second and element size in bytes
    /// (Fig. 14: 1000 MB/s, 8-byte doubles).
    pub fn from_bandwidth(bytes_per_sec: f64, elem_bytes: f64) -> HockneyModel {
        assert!(bytes_per_sec > 0.0 && elem_bytes > 0.0);
        HockneyModel {
            alpha: 0.0,
            beta: elem_bytes / bytes_per_sec,
        }
    }

    /// Add a per-message latency.
    pub fn with_latency(mut self, alpha: f64) -> HockneyModel {
        self.alpha = alpha;
        self
    }

    /// Time to transfer one message of `elems` elements.
    #[inline]
    pub fn message_time(&self, elems: u64) -> f64 {
        if elems == 0 {
            return 0.0;
        }
        self.alpha + self.beta * elems as f64
    }

    /// Time to transfer `elems` elements as a single bulk message per the
    /// barrier algorithms (latency counted once).
    #[inline]
    pub fn bulk_time(&self, elems: u64) -> f64 {
        self.message_time(elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_element_is_linear() {
        let m = HockneyModel::per_element(2e-9);
        assert_eq!(m.message_time(0), 0.0);
        assert!((m.message_time(1_000_000) - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn from_bandwidth_matches_fig14_setup() {
        // 1000 MB/s, 8-byte elements → 8 ns per element.
        let m = HockneyModel::from_bandwidth(1_000e6, 8.0);
        assert!((m.beta - 8e-9).abs() < 1e-18);
    }

    #[test]
    fn latency_counted_once_per_message() {
        let m = HockneyModel::per_element(1e-9).with_latency(1e-6);
        let t = m.message_time(1000);
        assert!((t - (1e-6 + 1e-6)).abs() < 1e-15);
    }
}
