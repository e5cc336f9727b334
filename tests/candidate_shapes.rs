//! The six candidate shapes pinned cell for cell.
//!
//! For every `(N, ratio)` below, one literal folds, for each type in
//! [`CandidateType::ALL`] order, either "infeasible" or the candidate's
//! state hash, VoC, the three element counts and the three processors'
//! [`CommMetrics`] (`local_updates` included). A change to how the
//! candidates are built or costed that is meant to keep behaviour must
//! leave every literal identical: the state hash covers the partition
//! cell for cell, and the metrics cover the SCO/PCO overlap term.

use hetmmm::prelude::*;

const SIZES: [usize; 6] = [7, 63, 64, 65, 130, 257];

/// One fingerprint per paper ratio, in `Ratio::paper_ratios()` order, for
/// each size of [`SIZES`].
#[rustfmt::skip]
const PINNED: [[u64; 11]; 6] = [
    [0xaaa7b6a4906421c2, 0xf49faeb679283566, 0xc3f7b07f96e61a6c, 0x03e9f953c35440a9, 0x26b49123575d6a35, 0x2eb7712b6a7d51cd, 0x8323b7f46e9cffc2, 0x3c029967cf5df6b7, 0x93b0ca4793c8d0d5, 0x8210a70d0dad25a2, 0xb247fa428da359eb],
    [0x9dbc085c11b713b9, 0x40589f75cfa2b3e7, 0xf32037e143bfcc90, 0xd3d841c9aaa1c48c, 0xfc9b67dca3f50301, 0xea08a55a23b76228, 0x540e965077ef3d02, 0x90f11615474acaa9, 0xec9da839aabd50f7, 0xfad53378ed66eabe, 0x5ed53abd0861f23b],
    [0x6dd7949a441a3ed7, 0xf71354e7936af17f, 0x645fb21cb50772aa, 0xc1d1907961d071ff, 0xec571cf51e754120, 0x1799b817344b8c7c, 0x3e1540398d1fb63a, 0x5958221b4f35a27f, 0xa0a04a33b250b382, 0x44dffdcbe7a92e6a, 0x4121212cd397a5f8],
    [0x96d459f95e621aa9, 0x3590816966cb9023, 0x1cddaab391f5b64a, 0x4097a86294faf060, 0xe47f5049e9119377, 0xdc00b631e57d1f6b, 0x1e7d8bd01bc2a055, 0x03a1ee53b03903b4, 0x69f05ef95981ff8b, 0xd1dfdffa59186fe6, 0xabb87e85c25e0435],
    [0xb1e666b5646f9bbe, 0x8613b606175dd7da, 0x19dc8142072382e1, 0x036423ea097b651a, 0xe18b06410cff82c9, 0xca880d7efe0948e1, 0x0babab36a1cb357b, 0x351f7bde7582f694, 0x892c07de157645cd, 0x67383918aee9e012, 0xfbf868d5346bbf35],
    [0xc425ab4511dd8819, 0x4da333b4b43ee9d1, 0xd838d4351cb95bd6, 0xef984aa44ae5fff0, 0xab8ab6e643fda725, 0xdcac8c45e8bd9ddf, 0x669c77dcc83dc361, 0xb1d12eca9f069c59, 0x7b0ac0a322cb834c, 0xc2ee75069469190f, 0x58ad4aacc014605e],
];

fn fold(acc: u64, x: u64) -> u64 {
    (acc.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn fingerprint(n: usize, ratio: Ratio) -> u64 {
    let mut acc = 0u64;
    for ty in CandidateType::ALL {
        let Some(c) = ty.construct(n, ratio) else {
            acc = fold(acc, 0);
            continue;
        };
        let part = &c.partition;
        acc = fold(acc, 1);
        acc = fold(acc, part.state_hash());
        acc = fold(acc, part.voc());
        for p in Proc::ALL {
            acc = fold(acc, part.elems(p) as u64);
        }
        for m in CommMetrics::from_partition(part).per_proc {
            acc = fold(acc, m.rows_occupied as u64);
            acc = fold(acc, m.cols_occupied as u64);
            acc = fold(acc, m.elems as u64);
            acc = fold(acc, m.local_updates);
        }
    }
    acc
}

#[test]
fn candidates_match_pinned_fingerprints() {
    let ratios = Ratio::paper_ratios();
    for (&n, row) in SIZES.iter().zip(&PINNED) {
        for (&ratio, &want) in ratios.iter().zip(row) {
            let got = fingerprint(n, ratio);
            assert_eq!(got, want, "n = {n}, ratio {ratio}: {got:#018x}");
        }
    }
}
