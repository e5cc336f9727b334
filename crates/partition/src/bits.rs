//! Bit-plane primitives of the one plane store, [`crate::NPartition`]
//! (and so of [`crate::Partition`], its three-owner form).
//!
//! A *plane line* is the `u64`-word mask of one row (or column) of one
//! owner's bit-plane: bit `j % 64` of word `j / 64` is set iff the owner
//! holds element `j` of the line. The invariant every plane
//! maintains is that the unused high bits of the last (*tail*) word are
//! zero, so popcounts and word-wise sweeps never need a trailing mask.

/// One plane line with the first `n` bits set (tail word masked).
pub fn full_line(n: usize) -> Vec<u64> {
    let words = n.div_ceil(64);
    let mut v = vec![!0u64; words];
    let tail = n % 64;
    if tail != 0 {
        v[words - 1] = (1u64 << tail) - 1;
    }
    v
}

/// First set bit at index `>= from` in a line-occupancy mask, plus the
/// number of words examined (for `grid.shrink.word_scans`). The caller
/// guarantees a set bit exists in range.
#[inline]
pub fn next_occupied(mask: &[u64], from: usize) -> (usize, u64) {
    let mut w = from / 64;
    let mut m = mask[w] & (!0u64 << (from % 64));
    let mut scanned = 1u64;
    while m == 0 {
        w += 1;
        m = mask[w];
        scanned += 1;
    }
    (w * 64 + m.trailing_zeros() as usize, scanned)
}

/// Last set bit at index `<= from`, plus words examined. The caller
/// guarantees a set bit exists in range.
#[inline]
pub fn prev_occupied(mask: &[u64], from: usize) -> (usize, u64) {
    let mut w = from / 64;
    let keep = 63 - (from % 64);
    let mut m = (mask[w] << keep) >> keep;
    let mut scanned = 1u64;
    while m == 0 {
        w -= 1;
        m = mask[w];
        scanned += 1;
    }
    (w * 64 + 63 - m.leading_zeros() as usize, scanned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_line_masks_tail() {
        assert_eq!(full_line(64), vec![!0u64]);
        assert_eq!(full_line(65), vec![!0u64, 1]);
        assert_eq!(full_line(3), vec![0b111]);
    }

    #[test]
    fn occupied_scans_find_boundary_bits() {
        let mut mask = vec![0u64; 3];
        mask[0] |= 1 << 5;
        mask[2] |= 1 << 9;
        assert_eq!(next_occupied(&mask, 0), (5, 1));
        assert_eq!(next_occupied(&mask, 6), (137, 3));
        assert_eq!(prev_occupied(&mask, 137), (137, 1));
        assert_eq!(prev_occupied(&mask, 136), (5, 3));
    }
}
