//! Property-based tests across crate boundaries: whatever torsions the
//! sampler proposes, the geometric and scoring invariants must hold.

use lms_closure::{CcdCloser, CcdConfig};
use lms_core::{fitness_against, fitness_assignment, non_dominated_indices};
use lms_geometry::wrap_rad;
use lms_protein::{BenchmarkLibrary, LoopBuilder, LoopTarget, Torsions};
use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, MultiScorer, ScoreVector};
use proptest::prelude::*;
use std::sync::OnceLock;

fn shared_target() -> &'static LoopTarget {
    static TARGET: OnceLock<LoopTarget> = OnceLock::new();
    TARGET.get_or_init(|| BenchmarkLibrary::standard().target_by_name("5pti").unwrap())
}

fn shared_scorer() -> &'static MultiScorer {
    static SCORER: OnceLock<MultiScorer> = OnceLock::new();
    SCORER.get_or_init(|| MultiScorer::new(KnowledgeBase::build(KnowledgeBaseConfig::fast())))
}

fn arb_torsions(n_residues: usize) -> impl Strategy<Value = Torsions> {
    prop::collection::vec(-std::f64::consts::PI..std::f64::consts::PI, 2 * n_residues)
        .prop_map(Torsions::from_flat)
}

fn arb_scores(n: usize) -> impl Strategy<Value = Vec<ScoreVector>> {
    prop::collection::vec((0.0..10.0f64, 0.0..10.0f64, 0.0..10.0f64), n).prop_map(|v| {
        v.into_iter()
            .map(|(a, b, c)| ScoreVector::new(a, b, c))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ccd_never_worsens_closure_and_preserves_geometry(torsions in arb_torsions(11)) {
        let target = shared_target();
        let builder = LoopBuilder::default();
        let closer = CcdCloser::new(
            builder,
            CcdConfig::new().with_max_sweeps(32).with_tolerance(0.2),
        );
        let mut t = torsions.clone();
        let result = closer.close(&target.frame, &target.sequence, &mut t);
        prop_assert!(result.final_deviation <= result.initial_deviation + 1e-9);
        // The closed structure still has ideal covalent geometry (torsion
        // moves cannot stretch bonds).
        let s = target.build(&builder, &t);
        let g = lms_protein::BackboneGeometry::default();
        for r in &s.residues {
            prop_assert!((r.n.distance(r.ca) - g.len_n_ca).abs() < 1e-9);
            prop_assert!((r.ca.distance(r.c) - g.len_ca_c).abs() < 1e-9);
        }
        // Torsions remain in the canonical range.
        for k in 0..t.n_angles() {
            let a = t.angle(k);
            prop_assert!((wrap_rad(a) - a).abs() < 1e-12);
        }
    }

    #[test]
    fn scoring_any_conformation_is_finite_and_nonnegative_vdw(torsions in arb_torsions(11)) {
        let target = shared_target();
        let builder = LoopBuilder::default();
        let structure = target.build(&builder, &torsions);
        let scores = shared_scorer().evaluate(target, &structure, &torsions);
        prop_assert!(scores.is_finite(), "scores {scores}");
        prop_assert!(scores.vdw() >= 0.0, "soft-sphere score cannot be negative");
        // Scoring is a pure function.
        let again = shared_scorer().evaluate(target, &structure, &torsions);
        prop_assert_eq!(scores, again);
    }

    #[test]
    fn fitness_assignment_respects_front_partition(scores in arb_scores(12)) {
        let fitness = fitness_assignment(&scores);
        let front = non_dominated_indices(&scores);
        for (i, fit) in fitness.iter().enumerate() {
            if front.contains(&i) {
                prop_assert!(*fit < 1.0, "front member {} has fitness {}", i, fit);
            } else {
                prop_assert!(*fit >= 1.0, "dominated member {} has fitness {}", i, fit);
            }
        }
        // Dominance implies better (lower) fitness.
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if scores[i].dominates(&scores[j]) {
                    prop_assert!(fitness[i] <= fitness[j] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn candidate_fitness_is_consistent_with_dominance(
        scores in arb_scores(8),
        cand in (0.0..10.0f64, 0.0..10.0f64, 0.0..10.0f64)
    ) {
        let candidate = ScoreVector::new(cand.0, cand.1, cand.2);
        let f = fitness_against(&candidate, &scores);
        let dominated_by_any = scores.iter().any(|s| s.dominates(&candidate));
        if dominated_by_any {
            prop_assert!(f >= 1.0);
        } else {
            prop_assert!(f < 1.0);
        }
    }

    #[test]
    fn rmsd_to_native_is_zero_only_for_native(perturb in 0.05..1.0f64) {
        let target = shared_target();
        let builder = LoopBuilder::default();
        let mut t = target.native_torsions.clone();
        // Perturb one torsion by a bounded amount.
        t.rotate_angle(3, perturb);
        let s = target.build(&builder, &t);
        let rmsd = target.rmsd_to_native(&s);
        prop_assert!(rmsd > 0.0);
        let native = target.build(&builder, &target.native_torsions);
        prop_assert!(target.rmsd_to_native(&native) < 1e-9);
    }
}
