//! Helpers shared by the integration tests.

use hetmmm::mmm::Matrix;

/// A matrix's entries in row-major order as bit patterns, so that two
/// products compare bit for bit.
pub fn bits(c: &Matrix) -> Vec<u64> {
    let n = c.n();
    (0..n * n).map(|x| c.get(x / n, x % n).to_bits()).collect()
}
