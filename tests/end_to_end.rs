//! End-to-end integration tests spanning every crate: benchmark target
//! generation → knowledge base → CCD closure → multi-scoring MOSCEM
//! sampling → decoy harvesting → analysis.

use lms_closure::{CcdCloser, CcdConfig};
use lms_core::{MoscemSampler, ObjectiveMode, SamplerConfig};
use lms_decoys::{cluster_decoys, distinct_non_dominated, ClusterMetric};
use lms_protein::{BenchmarkLibrary, LoopBuilder};
use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, MultiScorer, Objective};
use lms_simt::{ExecutorConfig, KernelKind};
use std::sync::Arc;

fn fast_kb() -> Arc<KnowledgeBase> {
    KnowledgeBase::build(KnowledgeBaseConfig::fast())
}

fn small_config(population: usize, iterations: usize, seed: u64) -> SamplerConfig {
    SamplerConfig::builder()
        .population_size(population)
        .n_complexes((population / 16).max(1))
        .iterations(iterations)
        .seed(seed)
        .build()
        .expect("valid test config")
}

#[test]
fn full_pipeline_produces_reasonable_decoys() {
    let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
    let sampler = MoscemSampler::new(target.clone(), fast_kb(), small_config(64, 10, 1));
    let production = sampler.produce_decoys(&ExecutorConfig::parallel().build().unwrap(), 30, 4);

    assert!(!production.decoys.is_empty(), "no decoys harvested");
    let best = production.decoys.best_rmsd().unwrap();
    assert!(best.is_finite());
    assert!(
        best < 6.0,
        "even a small run should find something within 6 A of a 12-residue native; got {best}"
    );

    // Every decoy closes the loop and has finite scores.
    let builder = LoopBuilder::default();
    for d in production.decoys.decoys() {
        let s = target.build(&builder, &d.torsions);
        assert!(target.closure_deviation(&s) < 1.0, "decoy badly unclosed");
        assert!(d.scores.is_finite());
    }

    // Decoys form at least one structural cluster and clustering covers all.
    let clusters = cluster_decoys(
        &target,
        production.decoys.decoys(),
        ClusterMetric::TorsionDeg,
        30.0,
    );
    let members: usize = clusters.iter().map(|c| c.size()).sum();
    assert_eq!(members, production.decoys.len());
}

#[test]
fn native_scores_are_pareto_competitive() {
    // The native conformation should not be dominated by a typical random
    // closed conformation — the premise that makes multi-scoring sampling
    // able to find native-like decoys at the front.
    let kb = fast_kb();
    let scorer = MultiScorer::new(kb);
    let builder = LoopBuilder::default();
    let closer = CcdCloser::new(builder, CcdConfig::default());
    let library = BenchmarkLibrary::standard();

    for name in ["1cex", "5pti", "3pte"] {
        let target = library.target_by_name(name).unwrap();
        let native_structure = target.build(&builder, &target.native_torsions);
        let native_scores = scorer.evaluate(&target, &native_structure, &target.native_torsions);

        let mut dominated_count = 0;
        let trials = 6;
        for seed in 0..trials {
            let mut rng = lms_geometry::StreamRngFactory::new(seed).stream(0, 0);
            let mut torsions = lms_protein::Torsions::zeros(target.n_residues());
            for k in 0..torsions.n_angles() {
                torsions.set_angle(k, lms_geometry::random_torsion(&mut rng));
            }
            closer.close(&target.frame, &target.sequence, &mut torsions);
            let structure = target.build(&builder, &torsions);
            let scores = scorer.evaluate(&target, &structure, &torsions);
            if scores.dominates(&native_scores) {
                dominated_count += 1;
            }
        }
        assert!(
            dominated_count <= 1,
            "{name}: native dominated by {dominated_count}/{trials} random closed loops"
        );
    }
}

#[test]
fn sampling_with_more_iterations_does_not_regress() {
    let target = BenchmarkLibrary::standard().target_by_name("5pti").unwrap();
    let kb = fast_kb();
    let short = MoscemSampler::new(target.clone(), kb.clone(), small_config(48, 2, 9));
    let long = MoscemSampler::new(target, kb, small_config(48, 12, 9));
    let short_result = short.run(&ExecutorConfig::parallel().build().unwrap());
    let long_result = long.run(&ExecutorConfig::parallel().build().unwrap());
    // RMSD is never used for acceptance, so the single best member can
    // drift; what must hold is that both runs stay in a sane band for an
    // 11-residue loop started from Ramachandran-distributed torsions.
    assert!(short_result.best_rmsd().is_finite());
    assert!(
        long_result.best_rmsd() < 6.0,
        "long run best RMSD {}",
        long_result.best_rmsd()
    );
    // And keep or grow the distinct non-dominated count.
    let short_nd = distinct_non_dominated(&short_result, 30.0);
    let long_nd = distinct_non_dominated(&long_result, 30.0);
    assert!(
        long_nd + 3 >= short_nd,
        "front collapsed: {short_nd} -> {long_nd}"
    );
}

#[test]
fn multi_scoring_front_is_broader_than_single_objective() {
    // Sampling three objectives should maintain a broader non-dominated set
    // than optimising a single objective (where the "front" degenerates).
    let target = BenchmarkLibrary::standard().target_by_name("1akz").unwrap();
    let kb = fast_kb();
    let multi = MoscemSampler::new(target.clone(), kb.clone(), small_config(48, 8, 3));
    let single = MoscemSampler::new(
        target,
        kb,
        small_config(48, 8, 3)
            .to_builder()
            .objective_mode(ObjectiveMode::Single(Objective::Vdw))
            .build()
            .expect("valid test config"),
    );
    let multi_result = multi.run(&ExecutorConfig::parallel().build().unwrap());
    let single_result = single.run(&ExecutorConfig::parallel().build().unwrap());
    let multi_nd = multi_result.non_dominated_count();
    // For the single-objective run, measure spread as distinct structures
    // among its top conformations: typically much smaller.
    let single_nd = single_result.non_dominated_count();
    assert!(
        multi_nd >= single_nd,
        "multi-scoring front ({multi_nd}) should be at least as broad as single-objective ({single_nd})"
    );
}

#[test]
fn stage_record_matches_table2_structure_end_to_end() {
    let target = BenchmarkLibrary::standard().target_by_name("1ixh").unwrap();
    let sampler = MoscemSampler::new(target, fast_kb(), small_config(32, 4, 11));
    let result = sampler.run(&ExecutorConfig::parallel().build().unwrap());
    let calls = |k: KernelKind| result.stages.row(k).calls;
    // Call counts: every per-member stage ran iterations + 1 times (the +1
    // is the initialization launch), the per-iteration stages once per
    // iteration, and population fitness once per stage invocation.
    for kind in [
        KernelKind::Ccd,
        KernelKind::Rebuild,
        KernelKind::EvalVdw,
        KernelKind::EvalDist,
        KernelKind::EvalTrip,
        KernelKind::HealthSweep,
        KernelKind::FitAssgPopulation,
    ] {
        assert_eq!(calls(kind), 5, "{kind:?}");
    }
    // The per-complex fitness table is one of them: it is launched ahead
    // of the Metropolis stage that reads it.
    for kind in [
        KernelKind::Reproduction,
        KernelKind::FitAssgComplex,
        KernelKind::Metropolis,
        KernelKind::Select,
    ] {
        assert_eq!(calls(kind), 4, "{kind:?}");
    }
    assert!(result.stages.ccd_rotations() > 0);
}
