//! Seeded search outcomes pinned to literal values.
//!
//! Each row is one seeded run and the exact state it ends in. A change to
//! the partition store or the push engine that is meant to keep behaviour
//! must leave every row identical; the state hash covers the final
//! partition cell for cell.

use hetmmm::prelude::*;
use hetmmm_nproc::{NDfaConfig, NDfaRunner};

/// `(n, (P, R, S), seed, steps, voc_final, termination, pushes_by_type,
/// residual pushes, state hash)` of `DfaRunner::run_seed`.
type ThreeProcRow = (
    usize,
    (u32, u32, u32),
    u64,
    usize,
    u64,
    Termination,
    [usize; 6],
    usize,
    u64,
);

// One row per line keeps the table reviewable. The last three are at
// the paper's N = 1000: 16 plane words per line, the last one partial.
#[rustfmt::skip]
const THREE_PROC: [ThreeProcRow; 21] = [
    (65, (2, 1, 1), 1, 110, 9360, Termination::FixedPoint, [107, 0, 1, 0, 2, 0], 0, 0xf03bc88197c6919c),
    (65, (2, 1, 1), 2, 79, 9555, Termination::FixedPoint, [39, 0, 18, 0, 0, 22], 0, 0x7499e4bcb8f7f35c),
    (65, (2, 1, 1), 3, 94, 10140, Termination::FixedPoint, [90, 0, 0, 0, 3, 1], 0, 0xc15fac0288f2872b),
    (65, (5, 2, 1), 1, 142, 7280, Termination::FixedPoint, [124, 0, 0, 0, 17, 1], 0, 0x34c15cc2c58ffbdc),
    (65, (5, 2, 1), 2, 106, 8385, Termination::FixedPoint, [76, 0, 10, 0, 6, 14], 0, 0xf36ff383b814c409),
    (65, (5, 2, 1), 3, 98, 9230, Termination::FixedPoint, [92, 0, 0, 0, 6, 0], 2, 0x7e3ab0b3b4557378),
    (65, (10, 1, 1), 1, 156, 5525, Termination::FixedPoint, [137, 0, 0, 0, 19, 0], 0, 0x7b6d9a28f3cfcbdf),
    (65, (10, 1, 1), 2, 135, 6240, Termination::FixedPoint, [135, 0, 0, 0, 0, 0], 2, 0x71e3906c60f17a95),
    (65, (10, 1, 1), 3, 158, 4940, Termination::FixedPoint, [157, 0, 0, 0, 1, 0], 1, 0xd432ccc8f7f8f73c),
    (100, (2, 1, 1), 1, 174, 20100, Termination::FixedPoint, [161, 0, 1, 0, 11, 1], 0, 0x96796006e0c59802),
    (100, (2, 1, 1), 2, 166, 22400, Termination::FixedPoint, [150, 0, 0, 0, 15, 1], 0, 0xb8200c41640b5275),
    (100, (2, 1, 1), 3, 152, 17300, Termination::FixedPoint, [146, 0, 3, 0, 3, 0], 0, 0x3d8c8d43d4f46933),
    (100, (5, 2, 1), 1, 184, 20200, Termination::FixedPoint, [179, 0, 1, 0, 0, 4], 0, 0xbe3474aa7b6c233f),
    (100, (5, 2, 1), 2, 196, 18700, Termination::FixedPoint, [175, 0, 0, 0, 21, 0], 0, 0x9692190c9f7f0ab2),
    (100, (5, 2, 1), 3, 198, 18000, Termination::FixedPoint, [185, 0, 0, 0, 12, 1], 0, 0x39060d31fb965cfb),
    (100, (10, 1, 1), 1, 211, 12400, Termination::FixedPoint, [199, 0, 0, 0, 12, 0], 0, 0x8eabd6591e06281b),
    (100, (10, 1, 1), 2, 203, 16300, Termination::FixedPoint, [203, 0, 0, 0, 0, 0], 3, 0x8ed4341e613a6255),
    (100, (10, 1, 1), 3, 252, 11700, Termination::FixedPoint, [229, 0, 0, 0, 23, 0], 0, 0x02d94b591dd5717b),
    (1000, (2, 1, 1), 1, 1684, 2062000, Termination::FixedPoint, [1683, 0, 1, 0, 0, 0], 0, 0xd131aa3bb79cd659),
    (1000, (5, 2, 1), 1, 1565, 2291000, Termination::FixedPoint, [1565, 0, 0, 0, 0, 0], 1, 0xc462d4c3a4aaedeb),
    (1000, (10, 1, 1), 1, 2493, 1360000, Termination::FixedPoint, [2223, 0, 0, 0, 270, 0], 0, 0x5423a06276b09eb2),
];

/// `(weights, seed, steps, voc_final, converged, cycled, state hash)` of
/// `NDfaRunner::run_seed` at N = 65.
type KProcRow = (&'static [u32], u64, usize, u64, bool, bool, u64);

#[rustfmt::skip]
const K_PROC: [KProcRow; 6] = [
    (&[4, 2, 1, 1], 1, 156, 11635, true, false, 0xc7b966a56d2454e4),
    (&[4, 2, 1, 1], 2, 169, 11570, true, false, 0x9e1dd9b080358346),
    (&[4, 2, 1, 1], 3, 194, 9815, true, false, 0xa64667f439bd7768),
    (&[5, 3, 2, 1, 1], 1, 188, 15210, true, false, 0x36f0926a225cd99c),
    (&[5, 3, 2, 1, 1], 2, 213, 17485, true, false, 0xf3694ae485365ad8),
    (&[5, 3, 2, 1, 1], 3, 268, 15080, true, false, 0x4303a00bfb66f8b2),
];

#[test]
fn three_processor_runs_match_pinned_outcomes() {
    for (n, (p, r, s), seed, steps, voc, termination, by_type, residual, hash) in THREE_PROC {
        let out = DfaRunner::new(DfaConfig::new(n, Ratio::new(p, r, s))).run_seed(seed);
        let at = format!("n={n} ratio={p}:{r}:{s} seed={seed}");
        assert_eq!(out.steps, steps, "steps, {at}");
        assert_eq!(out.voc_final, voc, "voc_final, {at}");
        assert_eq!(out.termination, termination, "termination, {at}");
        assert_eq!(out.pushes_by_type, by_type, "pushes_by_type, {at}");
        assert_eq!(out.residual_pushes.len(), residual, "residual pushes, {at}");
        assert_eq!(out.partition.state_hash(), hash, "state hash, {at}");
    }
}

#[test]
fn k_processor_runs_match_pinned_outcomes() {
    for (weights, seed, steps, voc, converged, cycled, hash) in K_PROC {
        let out = NDfaRunner::new(NDfaConfig::new(65, weights.to_vec())).run_seed(seed);
        let at = format!("weights={weights:?} seed={seed}");
        assert_eq!(out.steps, steps, "steps, {at}");
        assert_eq!(out.voc_final, voc, "voc_final, {at}");
        assert_eq!(out.converged, converged, "converged, {at}");
        assert_eq!(out.cycled, cycled, "cycled, {at}");
        assert_eq!(out.partition.state_hash(), hash, "state hash, {at}");
    }
}
