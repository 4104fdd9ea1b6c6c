//! Property tests for the resumed VDW environment pass
//! ([`MultiScorer::vdw_pass_from`]): for two conformations that agree on
//! every torsion below flat index `k`, resuming the second one's
//! environment term and burial counts from the first one's checkpoint at
//! the residue of `k` gives the VDW score, the BURIAL score, the burial
//! counts and the checkpoint row of a full pass, bit for bit — on a
//! surface loop, a buried loop and a buried loop in a 30×-scaled
//! environment, with the burial objective off and on.

use lms_geometry::{random_torsion, StreamRngFactory, Vec3};
use lms_protein::{
    BenchmarkLibrary, EnvAtom, Environment, LoopBuilder, LoopTarget, Torsions, ENV_CONTACT_MARGIN,
};
use lms_scoring::{EnvResume, KnowledgeBase, KnowledgeBaseConfig, MultiScorer, ScoreScratch};
use proptest::prelude::*;
use rand::Rng;
use std::sync::{Arc, OnceLock};

fn kb() -> Arc<KnowledgeBase> {
    static KB: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
    KB.get_or_init(|| KnowledgeBase::build(KnowledgeBaseConfig::fast()))
        .clone()
}

/// `base` with its environment scaled `factor`× by uniform extra atoms in
/// the candidate reach sphere, clear of the native loop: the construction
/// of `lms_bench::scaled_env_target`, which the `buried12-burial`
/// benchmark workload runs at 30×.
fn scaled(base: &LoopTarget, factor: usize) -> LoopTarget {
    let mut atoms = base.environment.atoms().to_vec();
    let n_extra = atoms.len() * (factor - 1);
    let mut rng = StreamRngFactory::new(77).stream(factor as u64, 0);
    let center = base.frame.n_anchor.ca;
    let reach = base.reach_radius() + ENV_CONTACT_MARGIN - 1.0;
    let native = base.native_structure.backbone_atoms();
    while atoms.len() < base.environment.len() + n_extra {
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
        if native.iter().any(|a| a.distance(pos) < 4.0) {
            continue;
        }
        atoms.push(EnvAtom::backbone(pos, 1.7));
    }
    LoopTarget {
        environment: Arc::new(Environment::new(atoms)),
        env_cache: Default::default(),
        ..base.clone()
    }
}

/// 1cex (surface), 1xyz (buried) and 1xyz with a 30× environment, built
/// once: the scaled environment's cell lists take a while to build.
fn targets() -> &'static [LoopTarget] {
    static TARGETS: OnceLock<Vec<LoopTarget>> = OnceLock::new();
    TARGETS.get_or_init(|| {
        let lib = BenchmarkLibrary::standard();
        let buried = lib.target_by_name("1xyz").unwrap();
        let targets = vec![
            lib.target_by_name("1cex").unwrap(),
            scaled(&buried, 30),
            buried,
        ];
        for t in &targets {
            t.env_candidates();
        }
        targets
    })
}

/// A perturbed-native pair: `a`, and `b` equal to `a` below flat index `k`
/// and redrawn from `k` on (angle `k` always moves).
fn pair(target: &LoopTarget, seed: u64, magnitude: f64, k: usize) -> (Torsions, Torsions) {
    let mut rng = StreamRngFactory::new(seed).stream(0, 0);
    let mut a = target.native_torsions.clone();
    for j in 0..a.n_angles() {
        a.rotate_angle(j, random_torsion(&mut rng) * magnitude);
    }
    let mut b = a.clone();
    b.rotate_angle(k, 0.05 + random_torsion(&mut rng).abs() * 0.5);
    for j in (k + 1)..b.n_angles() {
        b.rotate_angle(j, random_torsion(&mut rng) * 0.5);
    }
    (a, b)
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// The outputs of one VDW pass: both scores' bits, the checkpoint row and
/// the burial counts.
type PassOutputs = ((u64, u64), Vec<u64>, Vec<u32>);

fn outputs(scores: (f64, f64), scratch: &ScoreScratch) -> PassOutputs {
    (
        (scores.0.to_bits(), scores.1.to_bits()),
        bits(scratch.env_totals()),
        scratch.burial_counts().to_vec(),
    )
}

/// Score `b` resumed at `residue` from `a`'s checkpoint and in full; return
/// both passes' outputs.
fn resumed_and_full(
    target: &LoopTarget,
    burial: bool,
    a: &Torsions,
    b: &Torsions,
    residue: usize,
) -> (PassOutputs, PassOutputs) {
    let builder = LoopBuilder::default();
    let scorer = MultiScorer::new(kb()).with_burial(burial);
    let (built_a, built_b) = (target.build(&builder, a), target.build(&builder, b));
    let mut first = ScoreScratch::new();
    scorer.vdw_pass(target, &built_a, &mut first);
    let from = EnvResume::new(residue, first.env_totals(), first.burial_counts());
    let mut resumed = ScoreScratch::new();
    let got = scorer.vdw_pass_from(target, &built_b, &mut resumed, from);
    let mut full = ScoreScratch::new();
    let want = scorer.vdw_pass(target, &built_b, &mut full);
    assert_eq!(full.env_totals().len(), target.n_residues() + 1);
    assert_eq!(
        full.burial_counts().len(),
        if burial { target.n_residues() } else { 0 }
    );
    (outputs(got, &resumed), outputs(want, &full))
}

/// Resume `b` from `a`'s checkpoint at the residue of flat index `k`.
fn assert_resume_is_exact(target: &LoopTarget, burial: bool, seed: u64, magnitude: f64, k: usize) {
    let (a, b) = pair(target, seed, magnitude, k);
    let residue = Torsions::describe_angle(k).0;
    let (resumed, full) = resumed_and_full(target, burial, &a, &b, residue);
    assert_eq!(
        resumed, full,
        "{} burial={burial} k={k}: resumed pass differs from the full pass",
        target.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resumed_pass_equals_the_full_pass(
        seed in 0usize..10_000,
        magnitude in 0.0f64..0.5,
        target_idx in 0usize..3,
        burial in 0usize..2,
        k_raw in 0usize..1_000,
    ) {
        let target = &targets()[target_idx];
        let k = k_raw % target.native_torsions.n_angles();
        assert_resume_is_exact(target, burial == 1, seed as u64, magnitude, k);
    }
}

#[test]
fn resumed_pass_is_exact_at_the_first_and_last_torsion() {
    for target in targets() {
        let last = target.native_torsions.n_angles() - 1;
        for burial in [false, true] {
            for k in [0, last] {
                assert_resume_is_exact(target, burial, 5, 0.3, k);
            }
        }
    }
}

#[test]
fn resuming_past_a_moved_residue_is_detected() {
    // The equivalence has teeth: resuming one residue too late reuses the
    // stale contribution of the moved residue, and the checkpoint row
    // shows it on the buried, densely packed target.
    let target = &targets()[1];
    let n_res = target.n_residues();
    let mut stale = 0;
    for k in (0..2 * (n_res - 1)).step_by(2) {
        let (a, b) = pair(target, 9, 0.3, k);
        let residue = Torsions::describe_angle(k).0 + 1;
        let (resumed, full) = resumed_and_full(target, true, &a, &b, residue);
        stale += usize::from(resumed != full);
    }
    assert!(stale > 0, "no stale resume was detected");
}
