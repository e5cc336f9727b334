//! Constructing partitions: rectangle layouts and the paper's random `q0`.
//!
//! Section VI-A-2 describes the randomized start state: every element begins
//! on the fastest processor `P`; then, for each slower processor `X` in turn,
//! random `(i, j)` coordinates are drawn and the element is assigned to `X`
//! if it still belongs to `P`. [`random_partition`] implements exactly that
//! rejection-sampling scheme, with a documented fallback for the late phase
//! where rejection would stall (when `∈R + ∈S` approaches `N²` the paper's
//! loop becomes a coupon-collector; we switch to sampling from the explicit
//! free list once the acceptance rate drops, which draws from the identical
//! distribution).

use crate::grid::Partition;
use crate::proc_::{Proc, Ratio};
use crate::rect::Rect;
use hetmmm_error::HetmmmError;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

/// Fluent builder painting rectangles over a `P` background.
///
/// ```
/// use hetmmm_partition::{PartitionBuilder, Proc, Rect};
/// let part = PartitionBuilder::new(8)
///     .rect(Rect::new(0, 3, 0, 3), Proc::R)
///     .rect(Rect::new(4, 7, 4, 7), Proc::S)
///     .build();
/// assert_eq!(part.elems(Proc::R), 16);
/// assert_eq!(part.voc(), 8 * 8 * 2);
/// ```
#[derive(Clone, Debug)]
pub struct PartitionBuilder {
    n: usize,
    layers: Vec<(Rect, Proc)>,
}

impl PartitionBuilder {
    /// Start a builder for an `n x n` matrix, background processor `P`.
    pub fn new(n: usize) -> PartitionBuilder {
        PartitionBuilder {
            n,
            layers: Vec::new(),
        }
    }

    /// Paint `rect` with `proc` (later rectangles overwrite earlier ones).
    ///
    /// Panics if the rectangle is out of bounds; [`PartitionBuilder::try_rect`]
    /// is the non-panicking equivalent.
    pub fn rect(self, rect: Rect, proc: Proc) -> PartitionBuilder {
        match self.try_rect(rect, proc) {
            Ok(builder) => builder,
            #[expect(
                clippy::panic,
                reason = "documented panic; try_rect is the fallible twin"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`PartitionBuilder::rect`]: returns
    /// [`HetmmmError::RectOutOfBounds`] instead of panicking.
    pub fn try_rect(mut self, rect: Rect, proc: Proc) -> Result<PartitionBuilder, HetmmmError> {
        if rect.bottom >= self.n || rect.right >= self.n {
            return Err(HetmmmError::RectOutOfBounds {
                rect: rect.to_string(),
                n: self.n,
            });
        }
        self.layers.push((rect, proc));
        Ok(self)
    }

    /// Materialize the partition.
    pub fn build(self) -> Partition {
        let mut part = Partition::new(self.n, Proc::P);
        for (rect, proc) in self.layers {
            part.fill_rect(rect, proc);
        }
        part
    }
}

/// The paper's random start state `q0` (Section VI-A-2).
///
/// Element counts per processor follow `ratio.areas(n)`. Deterministic for a
/// given RNG state, so experiments are reproducible from a seed.
pub fn random_partition<R: Rng>(n: usize, ratio: Ratio, rng: &mut R) -> Partition {
    let mut part = Partition::new(n, Proc::P);
    let areas = ratio.areas(n);
    for x in Proc::PUSHABLE {
        let mut remaining = areas[x.idx()];
        // Phase 1: the paper's rejection sampling. Give up after a budget of
        // consecutive rejections and fall through to the free-list phase.
        let mut misses = 0usize;
        let miss_budget = 8 * n;
        while remaining > 0 && misses < miss_budget {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            if part.get(i, j) == Proc::P {
                part.set(i, j, x);
                remaining -= 1;
                misses = 0;
            } else {
                misses += 1;
            }
        }
        if remaining > 0 {
            // Phase 2: uniform sample without replacement from the explicit
            // free list — same distribution, no stall.
            let mut free: Vec<(usize, usize)> = part.cells_of(Proc::P).collect();
            free.shuffle(rng);
            for &(i, j) in free.iter().take(remaining) {
                part.set(i, j, x);
            }
        }
    }
    debug_assert_eq!(part.elems(Proc::R), areas[Proc::R.idx()]);
    debug_assert_eq!(part.elems(Proc::S), areas[Proc::S.idx()]);
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builder_layers_overwrite() {
        let part = PartitionBuilder::new(6)
            .rect(Rect::new(0, 5, 0, 5), Proc::R)
            .rect(Rect::new(0, 2, 0, 2), Proc::S)
            .build();
        assert_eq!(part.elems(Proc::S), 9);
        assert_eq!(part.elems(Proc::R), 27);
        assert_eq!(part.elems(Proc::P), 0);
        part.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_oob() {
        let _ = PartitionBuilder::new(4).rect(Rect::new(0, 4, 0, 3), Proc::R);
    }

    #[test]
    fn builder_try_rect_reports_typed_error() {
        let err = PartitionBuilder::new(4)
            .try_rect(Rect::new(0, 4, 0, 3), Proc::R)
            .unwrap_err();
        match err {
            HetmmmError::RectOutOfBounds { n, .. } => assert_eq!(n, 4),
            other => panic!("unexpected error variant: {other:?}"),
        }
        let ok = PartitionBuilder::new(5).try_rect(Rect::new(0, 4, 0, 3), Proc::R);
        assert!(ok.is_ok());
    }

    #[test]
    fn random_partition_exact_areas() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(p, r, s) in &[(2, 1, 1), (5, 4, 1), (10, 1, 1)] {
            let ratio = Ratio::new(p, r, s);
            let part = random_partition(50, ratio, &mut rng);
            let areas = ratio.areas(50);
            for x in Proc::ALL {
                assert_eq!(part.elems(x), areas[x.idx()], "ratio {ratio} proc {x}");
            }
            part.assert_invariants();
        }
    }

    #[test]
    fn random_partition_deterministic_per_seed() {
        let ratio = Ratio::new(3, 2, 1);
        let a = random_partition(30, ratio, &mut StdRng::seed_from_u64(7));
        let b = random_partition(30, ratio, &mut StdRng::seed_from_u64(7));
        let c = random_partition(30, ratio, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct seeds should (overwhelmingly) differ");
    }

    #[test]
    fn random_partition_handles_dense_non_p_share() {
        // Ratio 2:2:1 means 80% of elements leave P — exercises the
        // free-list fallback.
        let ratio = Ratio::new(2, 2, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let part = random_partition(40, ratio, &mut rng);
        let areas = ratio.areas(40);
        assert_eq!(part.elems(Proc::P), areas[Proc::P.idx()]);
        part.assert_invariants();
    }

    #[test]
    fn random_partition_n1() {
        let ratio = Ratio::new(3, 1, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let part = random_partition(1, ratio, &mut rng);
        // Single element goes to whichever processor won the rounding.
        assert_eq!(
            part.elems(Proc::P) + part.elems(Proc::R) + part.elems(Proc::S),
            1
        );
    }
}
