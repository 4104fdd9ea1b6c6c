//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! multi-scoring Pareto sampling vs. single-objective optimisation, the
//! number of complexes, the CCD sweep budget, and adaptive temperature vs.
//! a fixed temperature.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lms_bench::{load_target, shared_kb};
use lms_closure::CcdConfig;
use lms_core::{MoscemSampler, ObjectiveMode, SamplerConfig, TemperatureSchedule};
use lms_scoring::Objective;
use lms_simt::ExecutorConfig;
use std::hint::black_box;
use std::time::Duration;

fn base_config() -> SamplerConfig {
    SamplerConfig::builder()
        .population_size(64)
        .n_complexes(2)
        .iterations(3)
        .seed(21)
        .build()
        .expect("valid bench config")
}

fn bench_single_vs_multi(c: &mut Criterion) {
    let target = load_target("1akz");
    let kb = shared_kb();
    let mut group = c.benchmark_group("ablations/objective_mode");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
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
        let sampler = MoscemSampler::new(target.clone(), kb.clone(), cfg);
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    sampler
                        .run(&ExecutorConfig::parallel().build().unwrap())
                        .best_rmsd(),
                )
            })
        });
    }
    group.finish();
}

fn bench_complexes(c: &mut Criterion) {
    let target = load_target("1cex");
    let kb = shared_kb();
    let mut group = c.benchmark_group("ablations/complexes");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for &m in &[1usize, 2, 8] {
        let cfg = base_config()
            .to_builder()
            .n_complexes(m)
            .build()
            .expect("valid bench config");
        let sampler = MoscemSampler::new(target.clone(), kb.clone(), cfg);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    sampler
                        .run(&ExecutorConfig::parallel().build().unwrap())
                        .non_dominated_count(),
                )
            })
        });
    }
    group.finish();
}

fn bench_ccd_budget(c: &mut Criterion) {
    let target = load_target("1ixh");
    let kb = shared_kb();
    let mut group = c.benchmark_group("ablations/ccd_budget");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for &sweeps in &[8usize, 24, 64] {
        let cfg = base_config()
            .to_builder()
            .ccd(
                CcdConfig::new()
                    .with_max_sweeps(sweeps)
                    .with_tolerance(0.25),
            )
            .build()
            .expect("valid bench config");
        let sampler = MoscemSampler::new(target.clone(), kb.clone(), cfg);
        group.bench_with_input(BenchmarkId::from_parameter(sweeps), &sweeps, |b, _| {
            b.iter(|| {
                black_box(
                    sampler
                        .run(&ExecutorConfig::parallel().build().unwrap())
                        .best_rmsd(),
                )
            })
        });
    }
    group.finish();
}

fn bench_annealing(c: &mut Criterion) {
    let target = load_target("153l");
    let kb = shared_kb();
    let mut group = c.benchmark_group("ablations/temperature");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    // Adaptive temperature (the paper's scheme).
    let adaptive = MoscemSampler::new(target.clone(), kb.clone(), base_config());
    group.bench_function("adaptive", |b| {
        b.iter(|| {
            black_box(
                adaptive
                    .run(&ExecutorConfig::parallel().build().unwrap())
                    .acceptance_rate,
            )
        })
    });
    // Fixed temperature at the adaptive schedule's starting point.
    let fixed_cfg = base_config()
        .to_builder()
        .temperature(TemperatureSchedule::Fixed { temperature: 0.25 })
        .build()
        .expect("valid bench config");
    let fixed = MoscemSampler::new(target, kb, fixed_cfg);
    group.bench_function("fixed", |b| {
        b.iter(|| {
            black_box(
                fixed
                    .run(&ExecutorConfig::parallel().build().unwrap())
                    .acceptance_rate,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_vs_multi,
    bench_complexes,
    bench_ccd_budget,
    bench_annealing
);
criterion_main!(benches);
