//! Dense square matrices and the serial kij reference.

use rand::{Rng, RngExt};

/// A dense square `n x n` matrix of `f64`, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(n: usize) -> Matrix {
        assert!(n > 0);
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// A matrix with entries drawn uniformly from `[-1, 1)`.
    pub fn random<R: Rng>(n: usize, rng: &mut R) -> Matrix {
        let mut m = Matrix::zeros(n);
        for v in &mut m.data {
            *v = rng.random_range(-1.0..1.0);
        }
        m
    }

    /// Build from a function of `(i, j)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// An `n x n` matrix that takes `data`, row-major, as its storage.
    pub(crate) fn from_row_major(n: usize, data: Vec<f64>) -> Matrix {
        assert!(n > 0 && data.len() == n * n);
        Matrix { n, data }
    }

    /// Dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Read element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Write element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Add `v` to element `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
    }

    /// Largest absolute elementwise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.n, other.n);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max)
    }
}

/// The kij algorithm exactly as Section II describes it: for each pivot
/// `k`, update every element of C.
pub fn kij_serial(a: &Matrix, b: &Matrix) -> Matrix {
    let _span = hetmmm_obs::fine_span_arg("mmm.kernel", a.n() as u64);
    assert_eq!(a.n(), b.n());
    let n = a.n();
    let mut c = Matrix::zeros(n);
    for k in 0..n {
        for i in 0..n {
            let aik = a.get(i, k);
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                c.add(i, j, aik * b.get(k, j));
            }
        }
    }
    c
}

/// Classic ijk triple loop, used to cross-check the kij variant.
pub fn naive_multiply(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.n(), b.n());
    let n = a.n();
    let mut c = Matrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a.get(i, k) * b.get(k, j);
            }
            c.set(i, j, acc);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(8, &mut rng);
        let i = Matrix::identity(8);
        assert!(kij_serial(&a, &i).max_abs_diff(&a) < 1e-12);
        assert!(kij_serial(&i, &a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn kij_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [1usize, 2, 5, 16, 33] {
            let a = Matrix::random(n, &mut rng);
            let b = Matrix::random(n, &mut rng);
            let diff = kij_serial(&a, &b).max_abs_diff(&naive_multiply(&a, &b));
            assert!(diff < 1e-10, "n = {n}: diff {diff}");
        }
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_fn(2, |i, j| (2 * i + j) as f64); // [0 1; 2 3]
        let b = Matrix::from_fn(2, |i, j| (i + 2 * j) as f64); // [0 2; 1 3]
        let c = kij_serial(&a, &b);
        // [0 1; 2 3] * [0 2; 1 3] = [1 3; 3 13]
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 1), 3.0);
        assert_eq!(c.get(1, 0), 3.0);
        assert_eq!(c.get(1, 1), 13.0);
    }

    #[test]
    fn zeros_times_anything() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random(6, &mut rng);
        let z = Matrix::zeros(6);
        assert_eq!(kij_serial(&a, &z), Matrix::zeros(6));
    }
}
