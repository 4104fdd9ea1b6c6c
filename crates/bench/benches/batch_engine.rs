//! Benchmark of the batch job engine's scheduler: a batch of 8 small
//! loop-modeling jobs submitted to [`LoopModelingEngine`] at full
//! concurrency against the same 8 jobs run back-to-back (the
//! one-target-one-call pattern the engine replaced).
//!
//! Two claims are measured:
//!
//! * **Throughput** — on a multi-core host the batch finishes in less
//!   wall-clock than the sequential loop, because the scheduler splits the
//!   thread budget across jobs instead of letting each small job's
//!   population kernel leave cores idle between launches.  On a single-core
//!   host (a `host_cores` row of 1) no parallel win is physically
//!   possible; there the measured ratio instead bounds the scheduler's
//!   overhead (it should be ≈ 1.0), and the speedup row carries that
//!   absolute floor for the perf gate instead of a baseline ratio.
//! * **Equivalence** — the batch results are bit-identical to the
//!   sequential runs (asserted here on every measurement, property-tested
//!   in `tests/batch_engine.rs`).
//!
//! The harness writes `BENCH_batch.json` at the workspace root (see
//! `lms_bench::artifact`) recording both modes for the perf trajectory.
//! The two modes are timed in alternating samples
//! (`lms_bench::timing::paired_median_ns`), like the other bench writers,
//! so host-speed drift slows both sides of the speedup alike.

use lms_bench::artifact::{Artifact, Better, Gate};
use lms_bench::shared_kb;
use lms_bench::timing::paired_median_ns;
use lms_core::{Job, LoopModelingEngine, MoscemSampler, SamplerConfig, TrajectoryResult};
use lms_protein::{BenchmarkLibrary, LoopTarget};
use lms_simt::{Executor, ExecutorConfig};
use std::hint::black_box;

/// The batch: 8 small jobs over loops of different lengths.
const BATCH_NAMES: [&str; 8] = [
    "1ads", "5pti", "1cex", "3pte", "1akz", "1ixh", "153l", "1dim",
];

fn batch_config(seed: u64) -> SamplerConfig {
    SamplerConfig::builder()
        .population_size(24)
        .n_complexes(2)
        .iterations(4)
        .seed(seed)
        .build()
        .expect("valid bench config")
}

fn batch_targets() -> Vec<LoopTarget> {
    let library = BenchmarkLibrary::standard();
    BATCH_NAMES
        .iter()
        .map(|name| library.target_by_name(name).expect("benchmark target"))
        .collect()
}

fn batch_jobs(targets: &[LoopTarget]) -> Vec<Job> {
    targets
        .iter()
        .enumerate()
        .map(|(i, target)| {
            Job::builder(target.clone())
                .config(batch_config(3000 + i as u64))
                .seed(3000 + i as u64)
                .build()
                .expect("valid job")
        })
        .collect()
}

/// Run the 8 jobs one after another through the classic per-target API.
fn run_sequential(targets: &[LoopTarget], executor: &Executor) -> Vec<TrajectoryResult> {
    targets
        .iter()
        .enumerate()
        .map(|(i, target)| {
            let seed = 3000 + i as u64;
            let sampler = MoscemSampler::try_new(target.clone(), shared_kb(), batch_config(seed))
                .expect("valid config");
            sampler.run_with_seed(executor, seed)
        })
        .collect()
}

/// Run the 8 jobs as one engine batch; results come back in submission
/// order from `join()`.
fn run_batch(engine: &LoopModelingEngine, targets: &[LoopTarget]) -> Vec<TrajectoryResult> {
    engine
        .submit(batch_jobs(targets))
        .join()
        .into_iter()
        .map(|r| r.outcome.expect("batch job failed"))
        .collect()
}

fn assert_equivalent(a: &[TrajectoryResult], b: &[TrajectoryResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        for (cx, cy) in x.population.iter().zip(y.population.iter()) {
            assert_eq!(cx.torsions, cy.torsions, "batch diverged from sequential");
            assert_eq!(cx.scores, cy.scores);
        }
    }
}

/// Scheduler-overhead floor the batch speedup is held to on a 1-core host,
/// where no parallel win is physically possible.
const ONE_CORE_OVERHEAD_FLOOR: f64 = 0.70;

/// Measure both modes, verify bit-identity, and write `BENCH_batch.json`
/// at the workspace root.
fn write_bench_json() {
    let targets = batch_targets();
    let executor = ExecutorConfig::parallel().build().unwrap();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let engine = LoopModelingEngine::builder(shared_kb())
        .executor(executor.clone())
        .build()
        .expect("valid engine");

    // Warm everything once (knowledge base, env caches, scratch pool), and
    // pin the equivalence claim on real results.
    let sequential_results = run_sequential(&targets, &executor);
    let batch_results = run_batch(&engine, &targets);
    assert_equivalent(&sequential_results, &batch_results);

    let (sequential_ns, batch_ns) = paired_median_ns(
        || {
            black_box(run_sequential(&targets, &executor).len());
        },
        || {
            black_box(run_batch(&engine, &targets).len());
        },
        1,
        7,
    );
    let speedup = sequential_ns / batch_ns.max(1e-3);
    let (sequential_ms, batch_ms) = (sequential_ns / 1e6, batch_ns / 1e6);
    println!(
        "batch_engine: {} jobs, sequential {sequential_ms:.1} ms, batch {batch_ms:.1} ms, \
         speedup {speedup:.3}x on {host_cores} core(s)",
        targets.len(),
    );

    let mut artifact = Artifact::new("batch_engine", Some(executor.capabilities().to_string()));
    for (name, count) in [
        ("host_cores", host_cores),
        ("engine_concurrency", engine.concurrency()),
    ] {
        artifact.push(name, count as f64, "count", Better::Higher, Gate::None);
    }
    for (name, ms) in [("sequential_ms", sequential_ms), ("batch_ms", batch_ms)] {
        artifact.push(name, ms, "ms", Better::Lower, Gate::None);
    }
    let gate = if host_cores <= 1 {
        Gate::Bound(ONE_CORE_OVERHEAD_FLOOR)
    } else {
        Gate::Ratio
    };
    artifact.push("speedup", speedup, "ratio", Better::Higher, gate);
    artifact.write_to_workspace_root("BENCH_batch.json");
}

fn main() {
    write_bench_json();
}
