//! Ablation benchmarks for the sampler's design choices: multi-scoring
//! Pareto sampling vs. single-objective optimisation, the number of
//! complexes, the CCD sweep budget, and adaptive temperature vs. a fixed
//! temperature.
//!
//! Each variant is one trajectory (population 64, 3 iterations) on the
//! parallel executor, timed as the median of [`SAMPLES`] runs with
//! `lms_bench::timing::median_ns`.  One line per variant prints its time
//! and the run's best RMSD, front size and acceptance rate.  No artifact
//! is written: the variants change what the sampler computes, so their
//! times are no gated comparison.

use lms_bench::timing::median_ns;
use lms_bench::{load_target, shared_kb};
use lms_closure::CcdConfig;
use lms_core::{MoscemSampler, ObjectiveMode, SamplerConfig, TemperatureSchedule};
use lms_scoring::Objective;
use lms_simt::{Executor, ExecutorConfig};
use std::hint::black_box;

/// Timed runs per variant.
const SAMPLES: u32 = 5;

fn base_config() -> SamplerConfig {
    SamplerConfig::builder()
        .population_size(64)
        .n_complexes(2)
        .iterations(3)
        .seed(21)
        .build()
        .expect("valid bench config")
}

/// Time `SAMPLES` runs of `sampler` and print one line for the variant.
fn time_variant(executor: &Executor, group: &str, variant: &str, sampler: &MoscemSampler) {
    let mut last = None;
    let ns = median_ns(|| last = Some(black_box(sampler.run(executor))), 1, SAMPLES);
    let result = last.expect("at least one timed run");
    println!(
        "ablations/{group}/{variant}: {:.1} ms/run, best rmsd {:.2} A, front {}, acceptance {:.3}",
        ns / 1e6,
        result.best_rmsd(),
        result.non_dominated_count(),
        result.acceptance_rate,
    );
}

fn bench_single_vs_multi(executor: &Executor) {
    let target = load_target("1akz");
    let modes = [
        ("multi_pareto", ObjectiveMode::MultiScoring),
        ("single_vdw", ObjectiveMode::Single(Objective::Vdw)),
        ("single_dist", ObjectiveMode::Single(Objective::Dist)),
        (
            "weighted_sum",
            ObjectiveMode::WeightedSum([1.0, 1.0, 1.0, 0.0]),
        ),
    ];
    for (name, mode) in modes {
        let cfg = base_config()
            .to_builder()
            .objective_mode(mode)
            .build()
            .expect("valid bench config");
        let sampler = MoscemSampler::new(target.clone(), shared_kb(), cfg);
        time_variant(executor, "objective_mode", name, &sampler);
    }
}

fn bench_complexes(executor: &Executor) {
    let target = load_target("1cex");
    for m in [1usize, 2, 8] {
        let cfg = base_config()
            .to_builder()
            .n_complexes(m)
            .build()
            .expect("valid bench config");
        let sampler = MoscemSampler::new(target.clone(), shared_kb(), cfg);
        time_variant(executor, "complexes", &m.to_string(), &sampler);
    }
}

fn bench_ccd_budget(executor: &Executor) {
    let target = load_target("1ixh");
    for sweeps in [8usize, 24, 64] {
        let cfg = base_config()
            .to_builder()
            .ccd(
                CcdConfig::new()
                    .with_max_sweeps(sweeps)
                    .with_tolerance(0.25),
            )
            .build()
            .expect("valid bench config");
        let sampler = MoscemSampler::new(target.clone(), shared_kb(), cfg);
        time_variant(executor, "ccd_budget", &sweeps.to_string(), &sampler);
    }
}

fn bench_annealing(executor: &Executor) {
    let target = load_target("153l");
    // Adaptive temperature (the paper's scheme).
    let adaptive = MoscemSampler::new(target.clone(), shared_kb(), base_config());
    time_variant(executor, "temperature", "adaptive", &adaptive);
    // Fixed temperature at the adaptive schedule's starting point.
    let fixed_cfg = base_config()
        .to_builder()
        .temperature(TemperatureSchedule::Fixed { temperature: 0.25 })
        .build()
        .expect("valid bench config");
    let fixed = MoscemSampler::new(target, shared_kb(), fixed_cfg);
    time_variant(executor, "temperature", "fixed", &fixed);
}

fn main() {
    let executor = ExecutorConfig::parallel().build().unwrap();
    bench_single_vs_multi(&executor);
    bench_complexes(&executor);
    bench_ccd_budget(&executor);
    bench_annealing(&executor);
}
