//! Property tests: the staged population-batched kernel pipeline
//! (`MoscemSampler::run_controlled` / `run_with_seed`) is **bit-identical**
//! to the per-member reference implementation
//! (`MoscemSampler::run_reference_with_seed`) — across every executor
//! backend (scalar / parallel), several CCD block
//! widths, both objective modes (3- and 4-objective), the single-objective
//! and weighted-sum baselines, multiple seeds and targets.
//!
//! This is the contract that makes the SoA arena refactor and the pluggable
//! backend API safe: the staged launches (`mutate`, `close`, `rebuild`,
//! `score`, `metropolis`, `select`) reorganise *execution*, never
//! *computation* — every member draws the same `(member, iteration)` random
//! stream and sees the same floating-point operation sequence as the fused
//! per-member loop, whatever backend or block width runs it.  Every new
//! backend must join [`equivalence_executors`] to ship.

use lms_core::{MoscemSampler, ObjectiveMode, SamplerConfig, TrajectoryResult};
use lms_protein::BenchmarkLibrary;
use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, Objective};
use lms_simt::{Executor, ExecutorConfig};
use std::sync::Arc;

/// The full backend × block-width equivalence matrix.  Every backend the
/// build knows about appears here — adding an executor backend without
/// extending this harness is a bug.
fn equivalence_executors() -> Vec<Executor> {
    vec![
        ExecutorConfig::scalar().build().unwrap(),
        ExecutorConfig::parallel().build().unwrap(),
        ExecutorConfig::parallel().threads(2).build().unwrap(),
        // Block widths off the default 8: a divisor of the population, a
        // non-divisor (ragged final block), and single-member blocks.
        ExecutorConfig::scalar().ccd_block_width(4).build().unwrap(),
        ExecutorConfig::parallel()
            .threads(2)
            .ccd_block_width(5)
            .build()
            .unwrap(),
        ExecutorConfig::scalar().ccd_block_width(1).build().unwrap(),
    ]
}

/// Label an executor for assertion messages.
fn describe(executor: &Executor) -> String {
    let caps = executor.capabilities();
    format!("{} w={}", caps.name, caps.ccd_block_width)
}

fn fast_kb() -> Arc<KnowledgeBase> {
    KnowledgeBase::build(KnowledgeBaseConfig::fast())
}

fn sampler(name: &str, cfg: SamplerConfig) -> MoscemSampler {
    let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
    MoscemSampler::new(target, fast_kb(), cfg)
}

fn base_config() -> SamplerConfig {
    SamplerConfig::builder()
        .population_size(16)
        .n_complexes(2)
        .iterations(3)
        .snapshot_iterations(vec![0, 2, 3])
        .build()
        .expect("valid test config")
}

/// Bitwise equality of everything the sampling computation determines
/// (the stage record and wall times are measurements and excluded).
fn assert_bit_identical(batched: &TrajectoryResult, reference: &TrajectoryResult, label: &str) {
    assert_eq!(
        batched.population.len(),
        reference.population.len(),
        "{label}: population size"
    );
    for (i, (b, r)) in batched
        .population
        .iter()
        .zip(reference.population.iter())
        .enumerate()
    {
        assert_eq!(b.torsions, r.torsions, "{label}: member {i} torsions");
        assert_eq!(b.scores, r.scores, "{label}: member {i} scores");
        assert_eq!(
            b.fitness.to_bits(),
            r.fitness.to_bits(),
            "{label}: member {i} fitness"
        );
        assert_eq!(
            b.closure_deviation.to_bits(),
            r.closure_deviation.to_bits(),
            "{label}: member {i} closure deviation"
        );
        assert_eq!(
            b.rmsd_to_native.to_bits(),
            r.rmsd_to_native.to_bits(),
            "{label}: member {i} rmsd"
        );
        assert_eq!(
            (b.accepted_moves, b.proposed_moves),
            (r.accepted_moves, r.proposed_moves),
            "{label}: member {i} move counts"
        );
    }
    assert_eq!(
        batched.final_temperature.to_bits(),
        reference.final_temperature.to_bits(),
        "{label}: final temperature"
    );
    assert_eq!(
        batched.acceptance_rate.to_bits(),
        reference.acceptance_rate.to_bits(),
        "{label}: acceptance rate"
    );
    assert_eq!(
        batched.snapshots.len(),
        reference.snapshots.len(),
        "{label}: snapshot count"
    );
    for (b, r) in batched.snapshots.iter().zip(reference.snapshots.iter()) {
        assert_eq!(b.iteration, r.iteration, "{label}: snapshot iteration");
        assert_eq!(
            b.non_dominated_count, r.non_dominated_count,
            "{label}: snapshot front size"
        );
        assert_eq!(b.front, r.front, "{label}: snapshot front");
        assert_eq!(
            b.best_rmsd.to_bits(),
            r.best_rmsd.to_bits(),
            "{label}: snapshot best rmsd"
        );
        assert_eq!(
            b.temperature.to_bits(),
            r.temperature.to_bits(),
            "{label}: snapshot temperature"
        );
    }
}

#[test]
fn batched_pipeline_matches_reference_across_executors_and_seeds() {
    let executors = equivalence_executors();
    for name in ["1cex", "5pti"] {
        let s = sampler(name, base_config());
        for seed in [1u64, 42, 2010] {
            // The reference run takes no executor; compute it once per seed.
            let reference = s.run_reference_with_seed(seed);
            for executor in &executors {
                let batched = s.run_with_seed(executor, seed);
                assert_bit_identical(
                    &batched,
                    &reference,
                    &format!("{name} seed {seed} on {}", describe(executor)),
                );
            }
        }
    }
}

#[test]
fn batched_pipeline_matches_reference_in_four_objective_mode() {
    let cfg = base_config()
        .to_builder()
        .burial_objective(true)
        .build()
        .expect("valid burial config");
    // 1xyz is the buried target: the burial objective is non-trivial there.
    let s = sampler("1xyz", cfg);
    for seed in [7u64, 99] {
        let reference = s.run_reference_with_seed(seed);
        let executors = [
            ExecutorConfig::scalar().build().unwrap(),
            ExecutorConfig::parallel()
                .threads(2)
                .ccd_block_width(6)
                .build()
                .unwrap(),
        ];
        for executor in executors {
            let batched = s.run_with_seed(&executor, seed);
            assert_bit_identical(
                &batched,
                &reference,
                &format!("burial seed {seed} on {}", describe(&executor)),
            );
        }
        // The burial slot is genuinely active (not reduced to the
        // three-objective pipeline).
        assert!(
            reference
                .population
                .iter()
                .any(|c| c.scores.burial() != 0.0),
            "burial objective inactive on the buried target"
        );
    }
}

#[test]
fn batched_pipeline_matches_reference_in_baseline_objective_modes() {
    for (label, mode) in [
        ("single-vdw", ObjectiveMode::Single(Objective::Vdw)),
        ("single-dist", ObjectiveMode::Single(Objective::Dist)),
        (
            "weighted-sum",
            ObjectiveMode::WeightedSum([0.5, 0.3, 0.2, 0.0]),
        ),
    ] {
        let cfg = base_config()
            .to_builder()
            .objective_mode(mode)
            .build()
            .expect("valid baseline config");
        let s = sampler("1akz", cfg);
        let reference = s.run_reference_with_seed(5);
        let batched = s.run_with_seed(&ExecutorConfig::parallel().build().unwrap(), 5);
        assert_bit_identical(&batched, &reference, label);
    }
}

#[test]
fn init_retry_rounds_match_reference() {
    // A starved CCD budget leaves many initial closures above the closure
    // bound, so the init retry rounds (unclosed members redrawing from
    // their own streams) run on the staged lane path.
    let cfg = base_config()
        .to_builder()
        .ccd(
            lms_closure::CcdConfig::new()
                .with_max_sweeps(2)
                .with_tolerance(0.25),
        )
        .build()
        .expect("valid config");
    let s = sampler("1cex", cfg.clone());
    let n_res = s.target().n_residues() as u64;
    for seed in [3u64, 11] {
        let reference = s.run_reference_with_seed(seed);
        let batched = s.run_with_seed(
            &ExecutorConfig::parallel().threads(3).build().unwrap(),
            seed,
        );
        assert_bit_identical(&batched, &reference, &format!("init retries seed {seed}"));
        // Every closure start counts the loop's residues once, so more than
        // one per member and iteration (init included) means retries ran.
        let stages = &batched.stages;
        let starts = stages.closure_residues_placed() + stages.closure_residues_reused();
        let one_round = (cfg.population_size * (1 + cfg.iterations)) as u64 * n_res;
        assert!(starts > one_round, "seed {seed}: no init retry round ran");
    }
}
