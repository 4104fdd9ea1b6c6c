//! Criterion micro-benchmarks of the algorithm components (the measured
//! counterpart of the paper's Figure 1 / Table II decomposition): CCD loop
//! closure, the three scoring functions, and the population fitness
//! assignment.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lms_bench::{load_target, shared_kb};
use lms_closure::{CcdCloser, CcdConfig};
use lms_core::fitness_assignment;
use lms_geometry::{random_torsion, StreamRngFactory};
use lms_protein::{LoopBuilder, Torsions};
use lms_scoring::{MultiScorer, ScoreScratch, ScoreVector};
use std::hint::black_box;
use std::time::Duration;

fn perturbed_torsions(target: &lms_protein::LoopTarget, seed: u64, magnitude: f64) -> Torsions {
    let mut rng = StreamRngFactory::new(seed).stream(0, 0);
    let mut t = target.native_torsions.clone();
    for k in 0..t.n_angles() {
        let delta = (random_torsion(&mut rng)) * magnitude;
        t.rotate_angle(k, delta);
    }
    t
}

fn bench_ccd(c: &mut Criterion) {
    let target = load_target("1cex");
    let closer = CcdCloser::new(
        LoopBuilder::default(),
        CcdConfig::new().with_max_sweeps(24).with_tolerance(0.25),
    );
    let mut group = c.benchmark_group("components/ccd");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("close_perturbed_12res", |b| {
        b.iter_batched(
            || perturbed_torsions(&target, 7, 0.2),
            |mut torsions| {
                let r = closer.close(&target.frame, &target.sequence, &mut torsions);
                black_box(r.final_deviation)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let target = load_target("1cex");
    let kb = shared_kb();
    let builder = LoopBuilder::default();
    let structure = target.build(&builder, &target.native_torsions);
    let torsions = target.native_torsions.clone();

    let multi = MultiScorer::new(kb);
    let mut scratch = ScoreScratch::for_loop_len(target.n_residues());

    let mut group = c.benchmark_group("components/scoring");
    group.sample_size(30);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("vdw", |b| {
        b.iter(|| black_box(multi.vdw_pass(&target, &structure, &mut scratch)))
    });
    group.bench_function("dist", |b| {
        b.iter(|| black_box(multi.dist_pass(&target, &structure, &mut scratch)))
    });
    group.bench_function("triplet", |b| {
        b.iter(|| black_box(multi.triplet_pass(&target, &structure, &torsions, &mut scratch)))
    });
    group.bench_function("all_three", |b| {
        b.iter(|| black_box(multi.evaluate(&target, &structure, &torsions)))
    });
    group.bench_function("build_structure", |b| {
        b.iter(|| black_box(target.build(&builder, &torsions)))
    });
    group.finish();
}

fn bench_fitness(c: &mut Criterion) {
    let mut rng = StreamRngFactory::new(3).stream(0, 0);
    let make_scores = |n: usize, rng: &mut rand_chacha::ChaCha8Rng| -> Vec<ScoreVector> {
        use rand::Rng;
        (0..n)
            .map(|_| ScoreVector::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    };
    let mut group = c.benchmark_group("components/fitness");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for &n in &[128usize, 512] {
        let scores = make_scores(n, &mut rng);
        group.bench_function(format!("eq1_population_{n}"), |b| {
            b.iter(|| black_box(fitness_assignment(&scores)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ccd, bench_scoring, bench_fitness);
criterion_main!(benches);
