//! Property tests for the BURIAL objective and the shared VDW/BURIAL
//! environment pass:
//!
//! * the shared burial score (counts filtered from the candidate lists the
//!   VDW pass reads), full or resumed at residue 0, is **bit-identical** to
//!   the exhaustive linear-scan reference, and so are its per-residue
//!   counts, on arbitrary conformations and environment densities;
//! * enabling the objective leaves the three core components bit-identical
//!   to the three-objective evaluation (the burial filter only reads the
//!   lists the VDW sum already consumes);
//! * with the objective disabled, the BURIAL slot stays at exactly `0.0`.

use lms_geometry::{StreamRngFactory, Vec3};
use lms_protein::{BenchmarkLibrary, EnvAtom, Environment, LoopBuilder, LoopTarget, Torsions};
use lms_scoring::{
    BurialScore, EnvResume, KnowledgeBase, KnowledgeBaseConfig, MultiScorer, ScoreScratch,
    ScratchPool, BURIAL_RADIUS,
};
use proptest::prelude::*;
use rand::Rng;
use std::sync::{Arc, OnceLock};

fn kb() -> Arc<KnowledgeBase> {
    static KB: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
    KB.get_or_init(|| KnowledgeBase::build(KnowledgeBaseConfig::fast()))
        .clone()
}

/// A perturbed-native conformation of the target, deterministic in `seed`.
fn perturbed(target: &LoopTarget, seed: u64, magnitude: f64) -> Torsions {
    let mut rng = StreamRngFactory::new(seed).stream(0, 0);
    let mut t = target.native_torsions.clone();
    for k in 0..t.n_angles() {
        t.rotate_angle(k, lms_geometry::random_torsion(&mut rng) * magnitude);
    }
    t
}

/// A variant of `base` with `extra` additional environment atoms scattered
/// through the loop's reach sphere (denser burial shell).
fn densified(base: &LoopTarget, extra: usize, seed: u64) -> LoopTarget {
    let mut atoms = base.environment.atoms().to_vec();
    let mut rng = StreamRngFactory::new(seed).stream(1, 0);
    let center = base.frame.n_anchor.ca;
    let reach = base.reach_radius();
    while atoms.len() < base.environment.len() + extra {
        let v = Vec3::new(
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
        );
        let n = v.norm();
        if !(1e-3..=1.0).contains(&n) {
            continue;
        }
        let pos = center + (v / n) * (reach * rng.gen::<f64>().cbrt());
        atoms.push(EnvAtom::backbone(pos, 1.7));
    }
    LoopTarget {
        environment: Arc::new(Environment::new(atoms)),
        env_cache: Default::default(),
        ..base.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shared_gather_equals_standalone_and_linear(
        seed in 0usize..1_000,
        magnitude in 0.0f64..0.4,
        target_idx in 0usize..3,
        extra in 0usize..400,
    ) {
        let names = ["1cex", "1xyz", "5pti"];
        let lib = BenchmarkLibrary::standard();
        let base = lib.target_by_name(names[target_idx]).unwrap();
        let target = densified(&base, extra, (seed ^ 0x9E37) as u64);
        let builder = LoopBuilder::default();
        let torsions = perturbed(&target, seed as u64, magnitude);
        let structure = target.build(&builder, &torsions);

        // Production: burial counts filtered in the VDW environment pass of
        // the burial-enabled MultiScorer, full and resumed at residue 0 from
        // another conformation's checkpoint.
        let scorer = MultiScorer::new(kb()).with_burial(true);
        let mut scratch = ScoreScratch::for_loop_len(target.n_residues());
        let (_, full) = scorer.vdw_pass(&target, &structure, &mut scratch);
        let other = target.build(&builder, &perturbed(&target, seed as u64 + 1, 0.5));
        let mut checkpoint = ScoreScratch::new();
        scorer.vdw_pass(&target, &other, &mut checkpoint);
        let resume = EnvResume::new(0, checkpoint.env_totals(), checkpoint.burial_counts());
        let mut resumed_scratch = ScoreScratch::new();
        let (_, resumed) = scorer.vdw_pass_from(&target, &structure, &mut resumed_scratch, resume);

        // The exhaustive linear reference.
        let linear = BurialScore::new(kb()).score_target_linear(&target, &structure);

        prop_assert_eq!(full.to_bits(), linear.to_bits());
        prop_assert_eq!(resumed.to_bits(), linear.to_bits());
        prop_assert!(full.is_finite());

        // The piggybacked counts match the linear count at every Cα.
        let env = target.env_candidates();
        let counts: Vec<u32> = structure
            .residues
            .iter()
            .map(|res| env.count_within_linear(res.ca, BURIAL_RADIUS))
            .collect();
        prop_assert_eq!(scratch.burial_counts(), &counts[..]);
        prop_assert_eq!(resumed_scratch.burial_counts(), &counts[..]);
    }

    #[test]
    fn enabling_burial_leaves_core_objectives_bit_identical(
        seed in 0usize..1_000,
        magnitude in 0.0f64..0.4,
        target_idx in 0usize..3,
    ) {
        let names = ["1cex", "1xyz", "3pte"];
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name(names[target_idx]).unwrap();
        let builder = LoopBuilder::default();
        let torsions = perturbed(&target, seed as u64, magnitude);
        let structure = target.build(&builder, &torsions);

        let three = MultiScorer::new(kb());
        let four = three.clone().with_burial(true);
        let mut s3 = ScoreScratch::new();
        let mut s4 = ScoreScratch::new();
        let v3 = three.evaluate_with(&target, &structure, &torsions, &mut s3);
        let v4 = four.evaluate_with(&target, &structure, &torsions, &mut s4);

        prop_assert_eq!(v3.vdw().to_bits(), v4.vdw().to_bits());
        prop_assert_eq!(v3.dist().to_bits(), v4.dist().to_bits());
        prop_assert_eq!(v3.triplet().to_bits(), v4.triplet().to_bits());
        prop_assert_eq!(v3.burial(), 0.0);
    }
}

#[test]
fn pooled_scratch_reuse_does_not_change_burial_scores() {
    // A scratch warmed up on one (dense) target must score another target
    // identically to a fresh scratch — the buffers carry capacity, never
    // state.
    let lib = BenchmarkLibrary::standard();
    let builder = LoopBuilder::default();
    let scorer = MultiScorer::new(kb()).with_burial(true);
    let pool = ScratchPool::new();

    let warm_target = lib.target_by_name("1xyz").unwrap();
    let warm = warm_target.build(&builder, &warm_target.native_torsions);
    let mut scratch = pool.acquire(warm_target.n_residues());
    scorer.evaluate_with(
        &warm_target,
        &warm,
        &warm_target.native_torsions,
        &mut scratch,
    );

    let target = lib.target_by_name("1cex").unwrap();
    let native = target.build(&builder, &target.native_torsions);
    let reused = scorer.evaluate_with(&target, &native, &target.native_torsions, &mut scratch);
    let fresh = scorer.evaluate(&target, &native, &target.native_torsions);
    assert_eq!(reused, fresh);
    assert_eq!(reused.burial().to_bits(), fresh.burial().to_bits());
}
