//! loopbench — the repository's end-to-end benchmark.
//!
//! Runs one workload of the MOSCEM loop sampler through the public API
//! (`LoopModelingEngine` over a `KnowledgeBase` and `BenchmarkLibrary`
//! targets), checks every output, and prints its metrics:
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload surface12 --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; its time
//! metrics are scaled to a reference host speed (see `calib`).
//! `--trace 1` runs the workload twice (untraced, then traced), replays each
//! layer's public functions on inputs from the traced run, and prints the
//! per-layer metrics; the spans are written to `loopbench/out/`.  The last
//! line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod replay;
mod stats;
mod trace;
mod workload;

use lms::core::{DecoySet, SamplerConfig, TrajectoryResult};
use replay::{Replay, Source};
use stats::{beyond, median, percentile, Digest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workload::{JobRecord, Setup, Workload};

/// Member closures the layer replay times, at least.
const REPLAY_MEMBERS: usize = 2048;
/// The layers whose self time the traced run reports.
const LAYERS: [&str; 10] = [
    "geometry",
    "protein",
    "closure",
    "scoring",
    "simt",
    "core.mutation",
    "core.pareto",
    "core.sampler",
    "core.engine",
    "core.decoyset",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or(format!("--{key} is required"))
    };
    let name = get("workload")?;
    let workload = Workload::parse(name).ok_or(format!(
        "unknown workload {name:?} (surface12, buried12-burial, batch-mixed)"
    ))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// What the benchmark concluded from a run's jobs, checks included.  Jobs
/// are added one at a time as they finish, so no run keeps its trajectories.
struct Summary {
    config: SamplerConfig,
    /// One decoy set per target; every trajectory harvests into its own.
    sets: Vec<DecoySet>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    member_iterations: usize,
    job_s: Vec<f64>,
    iteration_ms: Vec<f64>,
    init_ms: Vec<f64>,
    acceptance: Vec<f64>,
    quality_best_rmsd: Vec<f64>,
    quality_decoys: usize,
    quality_jobs: usize,
    digest: Digest,
    /// The first trajectory of each target, kept for the layer replay.
    sources: Vec<TrajectoryResult>,
}

impl Summary {
    fn new(setup: &Setup, workload: Workload) -> Summary {
        let config = workload.config();
        let sets = setup
            .targets
            .iter()
            .map(|_| {
                DecoySet::new(config.distinct_threshold_deg)
                    .with_max_closure_deviation(config.max_closure_deviation)
            })
            .collect();
        Summary {
            config,
            sets,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            member_iterations: 0,
            job_s: Vec::new(),
            iteration_ms: Vec::new(),
            init_ms: Vec::new(),
            acceptance: Vec::new(),
            quality_best_rmsd: Vec::new(),
            quality_decoys: 0,
            quality_jobs: workload.quality_jobs(),
            digest: Digest::new(),
            sources: Vec::new(),
        }
    }

    /// Check one finished job, harvest it and fold it into the statistics.
    fn add(&mut self, setup: &Setup, job: JobRecord) {
        self.attempted += 1;
        self.job_s.push((job.done - job.issued).as_secs_f64());
        self.iteration_ms
            .extend(workload::iteration_gaps_ms(&job.marks));
        self.init_ms.extend(workload::init_ms(&job));
        let n_targets = setup.targets.len();
        let target = &setup.targets[job.index % n_targets];
        let set = &mut self.sets[job.index % n_targets];
        let config = &self.config;
        let checked = job.outcome.and_then(|result| {
            workload::check_trajectory(config, &result)?;
            let added = workload::harvest_checked(set, target, config, &result, job.index)?;
            Ok((result, added))
        });
        let (result, added) = match checked {
            Ok(ok) => ok,
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("job {}: {e}", job.index));
                return;
            }
        };
        self.member_iterations += job.member_iterations;
        self.acceptance.push(result.acceptance_rate);
        if job.index < self.quality_jobs {
            self.quality_best_rmsd.push(result.best_rmsd());
            self.quality_decoys += added;
            workload::digest_population(&mut self.digest, &result);
        }
        if job.index < n_targets {
            self.sources.push(result);
        }
    }

    /// Distinct closed decoys over every target's set.
    fn decoys(&self) -> usize {
        self.sets.iter().map(DecoySet::len).sum()
    }
}

/// Peak resident set size of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_header(args: &Args, setup: &Setup) {
    let caps = setup.capabilities();
    println!(
        "loopbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "executor: {} backend={:?} isa={} threads={} lane_width={} ccd_block_width={} \
         nproc={} engine_concurrency={} env_atoms={}",
        caps.name,
        caps.backend,
        caps.isa,
        caps.threads,
        caps.lane_width,
        caps.ccd_block_width,
        setup.nproc,
        setup.engine.concurrency(),
        setup.env_atoms()
    );
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}");
            eprintln!(
                "usage: loopbench --workload <surface12|buried12-burial|batch-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.trace {
        run_traced(&args, nproc);
    } else {
        run_end_to_end(&args, nproc);
    }
}

/// The end-to-end run: tracing off.
fn run_end_to_end(args: &Args, nproc: usize) {
    let w = args.workload;
    let t = Instant::now();
    let setup = Setup::build(w, nproc);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    print_header(args, &setup);
    setup.warm_up(w);

    // Further set-ups run between calls, spread over the run, so their
    // median sees the same machine as the sampling does.  The calibration
    // kernel runs after every job, so its median does too.
    let every = w.setup_every();
    let mut s = Summary::new(&setup, w);
    let mut kernel_s = vec![calib::kernel().0];
    let wall = workload::run(
        &setup,
        w,
        args.seed,
        args.seconds,
        w.quality_jobs(),
        None,
        |job| {
            let due = (job.index + 1) % every == 0;
            s.add(&setup, job);
            kernel_s.push(calib::kernel().0);
            if due {
                let t = Instant::now();
                let again = Setup::build(w, nproc);
                setup_s.push(t.elapsed().as_secs_f64());
                drop(again);
            }
        },
    );
    let mut job_s = s.job_s.clone();
    job_s.sort_by(f64::total_cmp);
    let mut gaps = s.iteration_ms.clone();
    gaps.sort_by(f64::total_cmp);
    assert!(
        beyond(gaps.len(), 0.95) >= 10,
        "iteration p95 needs at least 10 samples beyond it"
    );
    let ok_jobs = s.attempted - s.failed;
    // Times and rates as measured, then scaled to the reference host.
    let raw = [
        ("setup_s", median(&setup_s), "s"),
        (
            "member_iters_per_s",
            s.member_iterations as f64 / wall,
            "1/s",
        ),
        ("closed_decoys_per_s", s.decoys() as f64 / wall, "1/s"),
        ("jobs_per_s", ok_jobs as f64 / wall, "1/s"),
        ("job_s_p50", percentile(&job_s, 0.5), "s"),
        ("iteration_ms_p50", percentile(&gaps, 0.5), "ms"),
    ];
    let speed = calib::host_speed(median(&kernel_s));
    let mut metrics: Vec<Metric> = raw
        .iter()
        .map(|&(name, value, unit)| {
            let scaled = if unit == "1/s" {
                value / speed
            } else {
                value * speed
            };
            metric(name, scaled, unit)
        })
        .collect();
    metrics.extend([
        metric("best_rmsd_a", median(&s.quality_best_rmsd), "A"),
        metric(
            "decoys_per_job",
            s.quality_decoys as f64 / s.quality_best_rmsd.len().max(1) as f64,
            "count",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]);
    let samples = BTreeMap::from([
        ("setup_s", format!("{} set-ups", setup_s.len())),
        (
            "member_iters_per_s",
            format!("{} member-iterations in {wall:.3} s", s.member_iterations),
        ),
        (
            "closed_decoys_per_s",
            format!("{} distinct closed decoys", s.decoys()),
        ),
        ("jobs_per_s", format!("{ok_jobs} jobs")),
        ("job_s_p50", format!("{} jobs", job_s.len())),
        ("iteration_ms_p50", format!("{} intervals", gaps.len())),
        (
            "best_rmsd_a",
            format!("median of the first {} jobs", s.quality_jobs),
        ),
        ("decoys_per_job", format!("first {} jobs", s.quality_jobs)),
        ("peak_rss_mb", "VmHWM".to_string()),
    ]);
    for (name, value, unit) in &metrics {
        println!(
            "{name:<22} {value:>14.4} {unit:<5} ({})",
            samples[name.as_str()]
        );
    }
    println!(
        "host_speed {speed:.4} (median of {} calibration runs; reference {} s)",
        kernel_s.len(),
        calib::REFERENCE_S
    );
    for (name, value, unit) in &raw {
        println!("raw {name:<18} {value:>14.4} {unit}");
    }
    // The tail is printed but not a bounded metric: a host slowdown of a
    // few seconds moves a run's p95 far more than its median.
    println!(
        "iteration_ms_p95 {:.4} ms ({} intervals, {} beyond)",
        percentile(&gaps, 0.95),
        gaps.len(),
        beyond(gaps.len(), 0.95)
    );
    let failed_frac = s.failed as f64 / s.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ({} of {} jobs)",
        s.failed, s.attempted
    );
    for f in &s.failures {
        println!("failure: {f}");
    }
    println!(
        "digest {} seed={} jobs={}: {:016x}",
        w.name(),
        args.seed,
        s.quality_jobs,
        s.digest.value()
    );
    print_result(s.failed == 0, s.attempted, s.failed, &metrics);
}

/// Jobs of a traced run's batch-speedup pass, and their iteration cap.
fn speedup_jobs(w: Workload, nproc: usize) -> (usize, Option<usize>) {
    if w.is_batch() {
        (16, None)
    } else {
        (2 * nproc, Some(3))
    }
}

/// The traced run: an untraced half, a traced half, the layer replay and
/// the engine's batch speed-up, all in spans.
fn run_traced(args: &Args, nproc: usize) {
    let w = args.workload;
    let setup = Setup::build(w, nproc);
    print_header(args, &setup);
    setup.warm_up(w);
    let caps = setup.capabilities();
    let config = w.config();
    let half = args.seconds / 2.0;
    let min_jobs = if w.is_batch() {
        workload::BATCH_JOBS
    } else {
        2
    };

    let mut untraced = Summary::new(&setup, w);
    let untraced_wall = workload::run(&setup, w, args.seed, half, min_jobs, None, |job| {
        untraced.add(&setup, job)
    });
    let untraced_rate = untraced.member_iterations as f64 / untraced_wall;

    let tracer = Tracer::new();
    let root = tracer.begin("bench.workload", None);
    let mut s = Summary::new(&setup, w);
    let traced_wall = workload::run(
        &setup,
        w,
        args.seed,
        half,
        min_jobs,
        Some((&tracer, root)),
        |job| s.add(&setup, job),
    );
    tracer.end(root, &[("member_iterations", s.member_iterations as f64)]);
    let traced_rate = s.member_iterations as f64 / traced_wall;

    let replay_root = tracer.begin("bench.replay", None);
    let kb = Arc::clone(setup.engine.knowledge_base());
    let sources: Vec<Source<'_>> = s
        .sources
        .iter()
        .zip(&setup.targets)
        .map(|(result, target)| Source {
            target,
            config: &config,
            population: &result.population,
        })
        .collect();
    let layers = replay::replay(
        &tracer,
        replay_root,
        &kb,
        setup.engine.executor(),
        &sources,
        REPLAY_MEMBERS,
    );
    let speedup = batch_speedup(&setup, w, args.seed, &tracer, replay_root);
    tracer.end(replay_root, &[]);

    // Init and job time: inline trajectories report progress(0) directly;
    // batch jobs are timed on the speed-up pass's sequential runs.
    let (init, jobs) = if w.is_batch() {
        (speedup.init_ms.clone(), speedup.job_ms.clone())
    } else {
        let job_ms: Vec<f64> = s.job_s.iter().map(|t| t * 1e3).collect();
        (s.init_ms.clone(), job_ms)
    };
    let init_p50 = median(&init);
    let threads_per_job = if w.is_batch() {
        (caps.threads / setup.engine.concurrency()).max(1)
    } else {
        caps.threads
    };
    let mean_gap_ns = s.iteration_ms.iter().sum::<f64>() / s.iteration_ms.len().max(1) as f64 * 1e6;
    let population = config.population_size;
    let coverage = layers.iteration_ns(population) / (mean_gap_ns * threads_per_job as f64);

    let mut metrics = per_layer_metrics(&layers, population);
    metrics.extend([
        metric("scoring.env_atoms", setup.env_atoms() as f64, "count"),
        metric("core.sampler.init_ms_p50", init_p50, "ms"),
        metric("core.sampler.init_share", init_p50 / median(&jobs), "ratio"),
        metric(
            "core.sampler.acceptance_rate",
            median(&s.acceptance),
            "ratio",
        ),
        metric("core.engine.batch_speedup", speedup.speedup, "ratio"),
        metric("trace.coverage", coverage, "ratio"),
        metric(
            "trace.overhead_frac",
            traced_rate / untraced_rate - 1.0,
            "ratio",
        ),
    ]);
    let self_ns = tracer.self_time_by_layer();
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        metrics.push((format!("{layer}.self_ms"), ns as f64 / 1e6, "ms"));
    }
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    println!(
        "replay ccd: max_sweeps={} tolerance={} (the sampler's own settings)",
        config.ccd.max_sweeps, config.ccd.tolerance
    );
    println!(
        "samples: {} replayed members (and as many initial closures) over {} populations, \
         {} iteration intervals, {} init reports, {} speed-up jobs",
        layers.members,
        layers.populations,
        s.iteration_ms.len(),
        init.len(),
        speedup.job_ms.len()
    );

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
    match tracer.write_jsonl(&out) {
        Ok(()) => println!("trace: {} spans written to {}", tracer.len(), out.display()),
        Err(e) => println!("trace: could not write {}: {e}", out.display()),
    }
    let attempted = untraced.attempted + s.attempted + speedup.attempted;
    let failed = untraced.failed + s.failed + speedup.failed;
    for f in untraced.failures.iter().chain(&s.failures) {
        println!("failure: {f}");
    }
    print_result(failed == 0, attempted, failed, &metrics);
}

fn per_layer_metrics(r: &Replay, population: usize) -> Vec<Metric> {
    vec![
        metric("closure.close_us_per_member", r.close_us_per_member(), "us"),
        metric(
            "closure.init_close_us_per_member",
            r.init_close_us_per_member(),
            "us",
        ),
        metric("closure.sweeps_mean", r.sweeps_mean(), "count"),
        metric("closure.capped_frac", r.capped_frac(), "ratio"),
        metric("closure.converged_frac", r.converged_frac(), "ratio"),
        metric("closure.ns_per_rotation", r.ns_per_rotation(), "ns"),
        metric("closure.lane_utilization", r.lane_utilization(), "ratio"),
        metric("closure.share", r.closure_share(population), "ratio"),
        metric("protein.build_into_ns", r.build_ns(), "ns"),
        metric("protein.env_candidates_ms", r.env_candidates_ms(), "ms"),
        metric("scoring.vdw_pass_ns", r.vdw_ns(), "ns"),
        metric("scoring.dist_pass_ns", r.dist_ns(), "ns"),
        metric("scoring.triplet_pass_ns", r.triplet_ns(), "ns"),
        metric("scoring.share", r.scoring_share(population), "ratio"),
        metric("geometry.rmsd_ns", r.rmsd_ns(), "ns"),
        metric("core.mutation.mutate_ns", r.mutate_ns(), "ns"),
        metric("core.pareto.fitness_us", r.fitness_us(), "us"),
        metric("core.decoyset.harvest_us", r.harvest_us(), "us"),
        metric("simt.launch_overhead_us", r.launch_overhead_us(), "us"),
    ]
}

/// Outcome of the batch speed-up pass.
struct Speedup {
    speedup: f64,
    init_ms: Vec<f64>,
    job_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
}

/// The workload's first jobs run one after another on the engine's split
/// executor (what each batch worker gets), then as one `engine.submit`
/// batch; the speed-up is the sequential total over the batch makespan.
fn batch_speedup(
    setup: &Setup,
    w: Workload,
    seed: u64,
    tracer: &Tracer,
    parent: trace::SpanId,
) -> Speedup {
    let (n_jobs, iterations) = speedup_jobs(w, setup.nproc);
    let mut config: SamplerConfig = w.config();
    if let Some(iterations) = iterations {
        config = config
            .to_builder()
            .iterations(iterations)
            .build()
            .expect("valid");
    }
    let jobs: Vec<_> = (0..n_jobs)
        .map(|i| setup.job(w, seed, i, &config))
        .collect();
    let split = setup.engine.executor().split(setup.engine.concurrency());
    let mut out = Speedup {
        speedup: f64::NAN,
        init_ms: Vec::new(),
        job_ms: Vec::new(),
        attempted: 2 * n_jobs,
        failed: 0,
    };
    let failed = |outcome: Result<TrajectoryResult, String>| {
        let ok = outcome.is_ok_and(|t| workload::check_trajectory(&config, &t).is_ok());
        usize::from(!ok)
    };

    let seq_root = tracer.begin("core.engine.sequential", Some(parent));
    let mut sequential = 0.0;
    for (i, job) in jobs.iter().cloned().enumerate() {
        let record = workload::run_inline(setup, &split, job, i, Some((tracer, seq_root)));
        let job_s = (record.done - record.issued).as_secs_f64();
        sequential += job_s;
        out.job_ms.push(job_s * 1e3);
        out.init_ms.extend(workload::init_ms(&record));
        out.failed += failed(record.outcome);
    }
    tracer.end(seq_root, &[("jobs", n_jobs as f64)]);

    let records = workload::run_batch(setup, jobs, 0, Some((tracer, parent)));
    let issued = records.first().map(|r| r.issued);
    let finished = records.iter().map(|r| r.done).max();
    let makespan = finished
        .zip(issued)
        .map_or(f64::NAN, |(f, i)| (f - i).as_secs_f64());
    for record in records {
        out.failed += failed(record.outcome);
    }
    out.speedup = sequential / makespan;
    out
}
