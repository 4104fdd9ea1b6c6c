//! Numerical health guards: the post-score finite sweep.
//!
//! A NaN that enters the Pareto ranking is worse than a crash: dominance
//! comparisons against NaN are all-false, so a poisoned member silently
//! floats to the non-dominated front and the job "succeeds" with garbage.
//! (The Metropolis closure gate has the same blind spot: `NaN > bound` is
//! false, so a NaN closure deviation *passes* the gate.)  The staged
//! pipeline therefore runs a cheap population-wide sweep right after the
//! scoring stage — one `[HealthSweep]` kernel launch over the SoA arena,
//! zero-alloc like every other stage — classifying each member's candidate
//! lanes as finite or poisoned.  What happens to a poisoned member is the
//! config's [`NumericGuard`](crate::NumericGuard) policy: fail the job
//! with a typed [`Error::NumericalFault`](crate::Error), or quarantine the
//! member and keep sampling.
//!
//! The per-member classification lives here as free functions over plain
//! slices so the perf harness can measure the sweep in isolation (the CI
//! gate bounds its overhead at 3% of a staged iteration).

use lms_scoring::{Objective, ScoreVector};

/// Which candidate lane of a member carried the first non-finite value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonedLane {
    /// A scoring-function output slot.
    Objective(Objective),
    /// A torsion angle (flat index within the member's lane).
    Torsion(usize),
    /// The closure deviation was NaN.  (An *infinite* deviation is a
    /// legitimate "closure failed / member quarantined" sentinel and is
    /// force-rejected by the Metropolis gate, so only NaN is poison here.)
    ClosureDeviation,
    /// The RMSD-to-native observable.
    Rmsd,
}

impl PoisonedLane {
    /// The poisoned scoring objective, when the poison was a score slot.
    pub fn objective(&self) -> Option<Objective> {
        match self {
            PoisonedLane::Objective(o) => Some(*o),
            _ => None,
        }
    }
}

/// The hot path of the `[HealthSweep]` kernel: whether every candidate
/// lane of one member is numerically sound.  Branch-free early-out over
/// the score slots first (the most likely poison entry point), then the
/// torsion lane, then the closure/observable scalars.
#[inline]
pub fn member_is_finite(
    score: &ScoreVector,
    torsion_lane: &[f64],
    closure_dev: f64,
    rmsd: f64,
) -> bool {
    score.is_finite()
        && torsion_lane.iter().all(|t| t.is_finite())
        && !closure_dev.is_nan()
        && !rmsd.is_nan()
}

/// The diagnostic path: name the first poisoned lane of a member (in the
/// same order `member_is_finite` checks them), or `None` when the member
/// is sound.  Only runs on members the sweep already flagged, so it is
/// off the hot path.
pub fn member_poison(
    score: &ScoreVector,
    torsion_lane: &[f64],
    closure_dev: f64,
    rmsd: f64,
) -> Option<PoisonedLane> {
    if let Some(objective) = score.first_non_finite() {
        return Some(PoisonedLane::Objective(objective));
    }
    if let Some(k) = torsion_lane.iter().position(|t| !t.is_finite()) {
        return Some(PoisonedLane::Torsion(k));
    }
    if closure_dev.is_nan() {
        return Some(PoisonedLane::ClosureDeviation);
    }
    if rmsd.is_nan() {
        return Some(PoisonedLane::Rmsd);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_torsion_anywhere_reaches_the_sweep_without_a_panic() {
        use lms_closure::{CcdBatchScratch, CcdCloser, CcdConfig, CcdLane};
        use lms_protein::{BenchmarkLibrary, LoopBuilder};
        use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, MultiScorer, ScoreScratch};
        // Everything between the build and the sweep — CCD, RMSD and the
        // VDW (with burial), DIST and TRIPLET passes — carries a NaN
        // torsion through as NaN, wherever in the loop it sits.
        let builder = LoopBuilder::default();
        let closer = CcdCloser::new(builder, CcdConfig::default());
        let scorer =
            MultiScorer::new(KnowledgeBase::build(KnowledgeBaseConfig::fast())).with_burial(true);
        let library = BenchmarkLibrary::standard();
        for name in ["1cex", "1xyz"] {
            let target = library.target_by_name(name).unwrap();
            let mut structure = target.build(&builder, &target.native_torsions);
            let (mut ccd, mut scratch) = (CcdBatchScratch::new(), ScoreScratch::new());
            for k in 0..target.native_torsions.as_slice().len() {
                let mut torsions = target.native_torsions.clone();
                torsions.set_angle(k, f64::NAN);
                let lane = CcdLane {
                    torsions: &mut torsions,
                    structure: &mut structure,
                    start_index: k,
                };
                let dev = closer
                    .close_lane(&target.frame, &target.sequence, lane, &mut ccd)
                    .final_deviation;
                let scores = scorer.evaluate_with(&target, &structure, &torsions, &mut scratch);
                let rmsd = target.rmsd_to_native(&structure);
                assert!(
                    !member_is_finite(&scores, torsions.as_slice(), dev, rmsd),
                    "{name}: a NaN at torsion {k} left the member finite"
                );
            }
        }
    }

    #[test]
    fn finite_members_pass_the_sweep() {
        let s = ScoreVector::new(1.0, 2.0, 3.0);
        assert!(member_is_finite(&s, &[0.1, -0.2], 0.3, 1.5));
        assert_eq!(member_poison(&s, &[0.1, -0.2], 0.3, 1.5), None);
        // Infinite closure deviation is the quarantine/unclosed sentinel,
        // not poison.
        assert!(member_is_finite(&s, &[0.1], f64::INFINITY, 1.5));
        // Infinite RMSD is the "not yet measured" initial value.
        assert!(member_is_finite(&s, &[0.1], 0.3, f64::INFINITY));
    }

    #[test]
    fn poison_is_caught_and_named_in_check_order() {
        let bad_score = ScoreVector::new(1.0, f64::NAN, 3.0);
        let good = ScoreVector::new(1.0, 2.0, 3.0);
        assert!(!member_is_finite(&bad_score, &[0.1], 0.3, 1.5));
        assert_eq!(
            member_poison(&bad_score, &[0.1], 0.3, 1.5),
            Some(PoisonedLane::Objective(Objective::Dist))
        );
        assert_eq!(
            member_poison(&bad_score, &[0.1], 0.3, 1.5)
                .unwrap()
                .objective(),
            Some(Objective::Dist)
        );
        assert!(!member_is_finite(
            &good,
            &[0.1, f64::NEG_INFINITY],
            0.3,
            1.5
        ));
        assert_eq!(
            member_poison(&good, &[0.1, f64::NEG_INFINITY], 0.3, 1.5),
            Some(PoisonedLane::Torsion(1))
        );
        assert!(!member_is_finite(&good, &[0.1], f64::NAN, 1.5));
        assert_eq!(
            member_poison(&good, &[0.1], f64::NAN, 1.5),
            Some(PoisonedLane::ClosureDeviation)
        );
        assert!(!member_is_finite(&good, &[0.1], 0.3, f64::NAN));
        assert_eq!(
            member_poison(&good, &[0.1], 0.3, f64::NAN),
            Some(PoisonedLane::Rmsd)
        );
        assert_eq!(
            member_poison(&good, &[0.1], 0.3, f64::NAN)
                .unwrap()
                .objective(),
            None
        );
    }
}
