//! The k-processor push.
//!
//! The rule layer lives in `hetmmm-push` ([`hetmmm_push::modes`]), beside
//! the paper's six push types, and runs on the same grid views, probe
//! overlay and DFA walk; this module re-exports it under the names the
//! k-processor search has always used.

pub use hetmmm_push::{
    push_feasible_n, try_push_mode, try_push_n, Direction as NDirection, NAppliedPush, PushMode,
};

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::NPartition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_never_raises_voc_k4() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut part = NPartition::random(24, &[6, 3, 2, 1], &mut rng);
        let mut voc = part.voc();
        for _ in 0..50 {
            let mut any = false;
            for proc in 1..4u8 {
                for dir in NDirection::ALL {
                    if let Some(ap) = try_push_n(&mut part, proc, dir) {
                        assert!(ap.delta_voc_units <= 0);
                        assert!(part.voc() <= voc);
                        voc = part.voc();
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
        }
        part.assert_invariants();
    }

    #[test]
    fn failed_push_rolls_back_k5() {
        let mut rng = StdRng::seed_from_u64(2);
        let part = NPartition::random(16, &[8, 3, 2, 2, 1], &mut rng);
        for proc in 1..5u8 {
            for dir in NDirection::ALL {
                for mode in PushMode::ALL {
                    let mut scratch = part.clone();
                    if try_push_mode(&mut scratch, proc, dir, mode).is_none() {
                        assert_eq!(scratch, part, "{proc} {dir:?} {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn element_counts_preserved() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut part = NPartition::random(20, &[5, 2, 2, 1], &mut rng);
        let before: Vec<usize> = (0..4).map(|p| part.elems(p as u8)).collect();
        for proc in 1..4u8 {
            for dir in NDirection::ALL {
                let _ = try_push_n(&mut part, proc, dir);
            }
        }
        let after: Vec<usize> = (0..4).map(|p| part.elems(p as u8)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn exact_square_is_fixed_point() {
        // A k=4 partition with three exact corner squares: no pushes.
        let mut part = NPartition::new(12, 4);
        for i in 0..4 {
            for j in 0..4 {
                part.set(i, j, 1);
                part.set(i + 8, j + 8, 2);
                part.set(i, j + 8, 3);
            }
        }
        for proc in 1..4u8 {
            for dir in NDirection::ALL {
                let mut scratch = part.clone();
                assert!(
                    try_push_n(&mut scratch, proc, dir).is_none(),
                    "{proc} {dir:?} should not push"
                );
                // And the probe agrees without needing the clone.
                assert!(!push_feasible_n(&part, proc, dir));
            }
        }
    }
}
