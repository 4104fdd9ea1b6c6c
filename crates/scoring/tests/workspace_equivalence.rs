//! Property tests for the zero-allocation scoring pipeline, in two tiers:
//!
//! 1. **Pass identity** — each `MultiScorer` pass, run on a scratch the
//!    earlier passes of an evaluation already filled, must be
//!    **bit-identical** to its objective's scorer on a fresh scratch for
//!    any torsion vector, and `evaluate_with` to the allocating `evaluate`.
//!    This pins the stage-order/scratch-reuse contract, but since each pass
//!    delegates to its scorer it cannot detect a defect in the kernels.
//! 2. **Seed-math equivalence** — the SoA kernels must agree with an
//!    *independent* reimplementation of the seed repository's original
//!    kernels ([`seed_reference`]): DIST and TRIPLET bit-identically (same
//!    summation order; the squared-distance reject only removes
//!    zero-contribution pairs), VDW to tight relative tolerance (the
//!    environment term sums the same contacts in a different order).

use lms_protein::{BenchmarkLibrary, LoopBuilder, LoopStructure, LoopTarget, Torsions};
use lms_scoring::{
    DistScore, EnvResume, KnowledgeBase, KnowledgeBaseConfig, MultiScorer, ScoreScratch,
    TripletScore, VdwScore,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Independent reimplementation of the seed repository's scoring kernels
/// (AoS interaction sites, a linear environment scan, nested atom-pair
/// loops), used as the ground truth the SoA rewrite is checked
/// against.  Deliberately *not* written in terms of the production kernels.
mod seed_reference {
    use lms_geometry::Vec3;
    use lms_protein::{LoopStructure, LoopTarget, RamaClass, Torsions};
    use lms_scoring::{
        BackboneAtomKind, ContactWeights, KnowledgeBase, SeparationClass, VdwRadii, DIST_MAX,
    };

    fn overlap_penalty(softness: f64, d: f64, sigma: f64) -> f64 {
        let sigma = sigma * softness;
        if d >= sigma || sigma <= 0.0 {
            0.0
        } else {
            let x = (sigma - d) / sigma;
            x * x
        }
    }

    pub fn vdw(target: &LoopTarget, structure: &LoopStructure) -> f64 {
        let radii = VdwRadii::default();
        let weights = ContactWeights::default();
        let mut sites: Vec<(Vec3, f64, usize, bool)> =
            Vec::with_capacity(structure.n_residues() * 5);
        for (i, res) in structure.residues.iter().enumerate() {
            sites.push((res.n, radii.n, i, false));
            sites.push((res.ca, radii.ca, i, false));
            sites.push((res.c, radii.c, i, false));
            sites.push((res.o, radii.o, i, false));
            if let Some(c) = res.centroid {
                sites.push((c, target.sequence[i].centroid_radius(), i, true));
            }
        }
        let weight = |a: bool, b: bool| match (a, b) {
            (false, false) => weights.atom_atom,
            (true, true) => weights.centroid_centroid,
            _ => weights.atom_centroid,
        };
        let mut total = 0.0;
        for (a, &(pa, ra, ia, ca)) in sites.iter().enumerate() {
            for &(pb, rb, ib, cb) in &sites[(a + 1)..] {
                if ib.abs_diff(ia) < 2 {
                    continue;
                }
                total += weight(ca, cb) * overlap_penalty(radii.softness, pa.distance(pb), ra + rb);
            }
        }
        for &(p, r, _i, is_centroid) in &sites {
            for atom in target.environment.atoms() {
                if atom.position.distance_sq(p) <= 7.0 * 7.0 {
                    total += weight(is_centroid, atom.is_centroid)
                        * overlap_penalty(
                            radii.softness,
                            p.distance(atom.position),
                            r + atom.radius,
                        );
                }
            }
        }
        total / structure.n_residues() as f64
    }

    pub fn dist(kb: &KnowledgeBase, structure: &LoopStructure) -> f64 {
        let per_res: Vec<[(BackboneAtomKind, Vec3); 4]> = structure
            .residues
            .iter()
            .map(|r| {
                [
                    (BackboneAtomKind::N, r.n),
                    (BackboneAtomKind::Ca, r.ca),
                    (BackboneAtomKind::C, r.c),
                    (BackboneAtomKind::O, r.o),
                ]
            })
            .collect();
        let n = per_res.len();
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let Some(sep) = SeparationClass::from_separation(j - i) else {
                    continue;
                };
                for &(ka, pa) in &per_res[i] {
                    for &(kb_kind, pb) in &per_res[j] {
                        let d = pa.distance(pb);
                        if d >= DIST_MAX {
                            continue;
                        }
                        total += kb.dist.energy(ka, kb_kind, sep, d);
                        pairs += 1;
                    }
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total / pairs as f64
        }
    }

    pub fn triplet(kb: &KnowledgeBase, target: &LoopTarget, torsions: &Torsions) -> f64 {
        let classes: Vec<RamaClass> = target.sequence.iter().map(|aa| aa.rama_class()).collect();
        let n = classes.len();
        let mut total = 0.0;
        for i in 0..n {
            let prev = if i == 0 {
                RamaClass::General
            } else {
                classes[i - 1]
            };
            let next = if i + 1 == n {
                RamaClass::General
            } else {
                classes[i + 1]
            };
            total += kb
                .triplet
                .energy(prev, classes[i], next, torsions.phi(i), torsions.psi(i));
        }
        total / n as f64
    }
}

fn shared_target() -> &'static LoopTarget {
    static TARGET: OnceLock<LoopTarget> = OnceLock::new();
    TARGET.get_or_init(|| BenchmarkLibrary::standard().target_by_name("1cex").unwrap())
}

fn shared_kb() -> Arc<KnowledgeBase> {
    static KB: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
    Arc::clone(KB.get_or_init(|| KnowledgeBase::build(KnowledgeBaseConfig::fast())))
}

fn shared_multi() -> MultiScorer {
    MultiScorer::new(shared_kb())
}

/// A scratch left as a whole evaluation of the same conformation leaves
/// it: what a pass finds when it runs mid-pipeline.
fn warm_scratch(
    target: &LoopTarget,
    structure: &LoopStructure,
    torsions: &Torsions,
) -> ScoreScratch {
    let mut scratch = ScoreScratch::new();
    shared_multi().evaluate_with(target, structure, torsions, &mut scratch);
    scratch
}

fn arb_torsions(n_residues: usize) -> impl Strategy<Value = Torsions> {
    prop::collection::vec(-std::f64::consts::PI..std::f64::consts::PI, 2 * n_residues)
        .prop_map(Torsions::from_flat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn vdw_workspace_path_is_bit_identical(torsions in arb_torsions(12)) {
        let target = shared_target();
        let structure = target.build(&LoopBuilder::default(), &torsions);
        let own = VdwScore::default().score_target_from(
            target,
            &structure,
            &mut ScoreScratch::new(),
            None,
            EnvResume::FULL,
        );
        let mut scratch = warm_scratch(target, &structure, &torsions);
        let (pass, _) = shared_multi().vdw_pass(target, &structure, &mut scratch);
        prop_assert_eq!(own.to_bits(), pass.to_bits());
    }

    #[test]
    fn dist_workspace_path_is_bit_identical(torsions in arb_torsions(12)) {
        let target = shared_target();
        let structure = target.build(&LoopBuilder::default(), &torsions);
        let own = DistScore::new(shared_kb()).score_structure(&structure);
        let mut scratch = warm_scratch(target, &structure, &torsions);
        let pass = shared_multi().dist_pass(target, &structure, &mut scratch);
        prop_assert_eq!(own.to_bits(), pass.to_bits());
    }

    #[test]
    fn triplet_workspace_path_is_bit_identical(torsions in arb_torsions(12)) {
        let target = shared_target();
        let structure = target.build(&LoopBuilder::default(), &torsions);
        let own = TripletScore::new(shared_kb()).score(target, &torsions, &mut ScoreScratch::new());
        let mut scratch = warm_scratch(target, &structure, &torsions);
        let pass = shared_multi().triplet_pass(target, &structure, &torsions, &mut scratch);
        prop_assert_eq!(own.to_bits(), pass.to_bits());
    }

    #[test]
    fn multi_scorer_workspace_path_is_bit_identical(torsions in arb_torsions(12)) {
        let target = shared_target();
        let structure = target.build(&LoopBuilder::default(), &torsions);
        let multi = MultiScorer::new(shared_kb());
        let legacy = multi.evaluate(target, &structure, &torsions);
        let mut scratch = ScoreScratch::new();
        let with_ws = multi.evaluate_with(target, &structure, &torsions, &mut scratch);
        prop_assert_eq!(legacy.vdw().to_bits(), with_ws.vdw().to_bits());
        prop_assert_eq!(legacy.dist().to_bits(), with_ws.dist().to_bits());
        prop_assert_eq!(legacy.triplet().to_bits(), with_ws.triplet().to_bits());
    }

    #[test]
    fn dist_matches_seed_reference_bit_identically(torsions in arb_torsions(12)) {
        // Same summation order as the seed kernel; the squared-distance
        // reject only removes pairs the seed kernel also skipped.
        let target = shared_target();
        let structure = target.build(&LoopBuilder::default(), &torsions);
        let ours = DistScore::new(shared_kb()).score_structure(&structure);
        let reference = seed_reference::dist(&shared_kb(), &structure);
        prop_assert_eq!(ours.to_bits(), reference.to_bits());
    }

    #[test]
    fn triplet_matches_seed_reference_bit_identically(torsions in arb_torsions(12)) {
        let target = shared_target();
        let triplet = TripletScore::new(shared_kb());
        let ours = triplet.score(target, &torsions, &mut ScoreScratch::new());
        let reference = seed_reference::triplet(&shared_kb(), target, &torsions);
        prop_assert_eq!(ours.to_bits(), reference.to_bits());
    }

    #[test]
    fn vdw_matches_seed_reference_numerically(torsions in arb_torsions(12)) {
        // The environment term sums the same contact set in a different
        // order (linear candidate scan vs. grid-cell order), so equality is
        // up to floating-point reassociation only.
        let target = shared_target();
        let structure = target.build(&LoopBuilder::default(), &torsions);
        let vdw = VdwScore::default();
        let mut scratch = ScoreScratch::new();
        let ours = vdw.score_target_from(target, &structure, &mut scratch, None, EnvResume::FULL);
        let reference = seed_reference::vdw(target, &structure);
        prop_assert!(
            (ours - reference).abs() <= 1e-9 * (1.0 + reference.abs()),
            "VDW diverged from seed math: {} vs {}", ours, reference
        );
    }

    #[test]
    fn scratch_reuse_across_conformations_is_sound(
        torsions_a in arb_torsions(12),
        torsions_b in arb_torsions(12),
    ) {
        // One warm scratch reused across different conformations (the
        // sampler's actual usage pattern) must match fresh-scratch scoring.
        let target = shared_target();
        let builder = LoopBuilder::default();
        let multi = MultiScorer::new(shared_kb());
        let mut scratch = ScoreScratch::for_loop_len(12);
        for torsions in [&torsions_a, &torsions_b, &torsions_a] {
            let structure = target.build(&builder, torsions);
            let reused = multi.evaluate_with(target, &structure, torsions, &mut scratch);
            let fresh = multi.evaluate(target, &structure, torsions);
            prop_assert_eq!(reused.vdw().to_bits(), fresh.vdw().to_bits());
            prop_assert_eq!(reused.dist().to_bits(), fresh.dist().to_bits());
            prop_assert_eq!(reused.triplet().to_bits(), fresh.triplet().to_bits());
        }
    }
}
