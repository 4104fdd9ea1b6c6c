//! The three workloads: their inputs, set-up, closed-loop runs and output
//! checks.

use crate::stats::{derive_seed, Digest};
use crate::trace::{SpanId, Tracer};
use lms::core::{DecoySet, Job, LoopModelingEngine, MoscemSampler, RunControls, SamplerConfig};
use lms::core::{JobStatus, TrajectoryResult};
use lms::protein::{BenchmarkLibrary, LoopBuilder, LoopStructure, LoopTarget};
use lms::scoring::{KnowledgeBase, KnowledgeBaseConfig};
use lms::simt::{Capabilities, Executor, ExecutorConfig, KernelKind};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The eight loops of lengths 10-12 the batch workload cycles through.
const BATCH_TARGETS: [&str; 8] = [
    "1ads", "5pti", "1cex", "3pte", "1akz", "1ixh", "153l", "1dim",
];
/// Jobs in one `engine.submit` batch of the batch workload.
pub const BATCH_JOBS: usize = 96;
/// How many times the buried loop's environment is scaled.
const BURIED_ENV_SCALE: usize = 30;
/// Progress-poll interval of the batch workload.
const POLL: Duration = Duration::from_micros(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Surface12,
    Buried12Burial,
    BatchMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "surface12" => Some(Workload::Surface12),
            "buried12-burial" => Some(Workload::Buried12Burial),
            "batch-mixed" => Some(Workload::BatchMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Surface12 => "surface12",
            Workload::Buried12Burial => "buried12-burial",
            Workload::BatchMixed => "batch-mixed",
        }
    }

    pub fn is_batch(self) -> bool {
        self == Workload::BatchMixed
    }

    /// Jobs every measured run completes whatever its length.  The quality
    /// metrics and the digest cover exactly these jobs, so they depend on
    /// the seed alone.
    pub fn quality_jobs(self) -> usize {
        match self {
            Workload::Surface12 | Workload::Buried12Burial => 16,
            Workload::BatchMixed => BATCH_JOBS,
        }
    }

    /// A run sets up once more after every this many jobs; `setup_s` is
    /// the median of all its set-ups.
    pub fn setup_every(self) -> usize {
        match self {
            Workload::Surface12 | Workload::Buried12Burial => 3,
            Workload::BatchMixed => BATCH_JOBS,
        }
    }

    /// Executor threads, and engine concurrency, on a host with `nproc`
    /// cores.  The single-trajectory workloads run on one thread: a
    /// lockstep launch over two threads runs at the pace of the slower
    /// core, so on a shared host its speed drifts far more from minute to
    /// minute than one thread's does.
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Workload::Surface12 | Workload::Buried12Burial => 1,
            Workload::BatchMixed => nproc,
        }
    }

    /// The sampler configuration of every job of this workload.
    pub fn config(self) -> SamplerConfig {
        let builder = SamplerConfig::builder();
        let builder = match self {
            Workload::Surface12 => builder,
            Workload::Buried12Burial => builder.burial_objective(true),
            Workload::BatchMixed => builder.population_size(32).iterations(8),
        };
        builder.build().expect("workload configs are valid")
    }
}

/// Everything a run shares, built once per set-up.
pub struct Setup {
    pub engine: LoopModelingEngine,
    pub targets: Vec<LoopTarget>,
    pub nproc: usize,
}

impl Setup {
    /// Build the knowledge base, generate the targets, compute their
    /// environment candidates, build the engine and warm its executor.
    pub fn build(workload: Workload, nproc: usize) -> Setup {
        let kb = KnowledgeBase::build(KnowledgeBaseConfig::default());
        let library = BenchmarkLibrary::standard();
        let load = |name: &str| {
            library
                .target_by_name(name)
                .expect("benchmark target exists")
        };
        let targets: Vec<LoopTarget> = match workload {
            Workload::Surface12 => vec![load("1cex")],
            Workload::Buried12Burial => {
                vec![lms_bench::scaled_env_target(
                    &load("1xyz"),
                    BURIED_ENV_SCALE,
                )]
            }
            Workload::BatchMixed => BATCH_TARGETS.iter().map(|n| load(n)).collect(),
        };
        for target in &targets {
            target.env_candidates();
        }
        // The simd backend at the workload's thread count; builds without
        // the feature fall back to the parallel backend, which the
        // capabilities line shows.
        let threads = workload.threads(nproc);
        let executor = ExecutorConfig::simd()
            .threads(threads)
            .build()
            .or_else(|_| ExecutorConfig::parallel().threads(threads).build())
            .expect("a parallel executor always builds");
        let engine = LoopModelingEngine::builder(kb)
            .executor(executor)
            .concurrency(threads)
            .build()
            .expect("valid engine");
        let population = workload.config().population_size;
        let _ = engine
            .executor()
            .launch(KernelKind::Reproduction, population, |_| {});
        Setup {
            engine,
            targets,
            nproc,
        }
    }

    pub fn capabilities(&self) -> Capabilities {
        self.engine.executor().capabilities()
    }

    /// Environment atoms the loop's scoring sees (summed over targets).
    pub fn env_atoms(&self) -> usize {
        self.targets.iter().map(|t| t.env_candidates().len()).sum()
    }

    /// Job `index` of the run seeded `seed`.
    pub fn job(&self, workload: Workload, seed: u64, index: usize, config: &SamplerConfig) -> Job {
        let job_seed = derive_seed(seed, index as u64);
        let target = &self.targets[index % self.targets.len()];
        Job::builder(target.clone())
            .config(config.to_builder().seed(job_seed).build().expect("valid"))
            .seed(job_seed)
            .label(format!("{}#{index}", workload.name()))
            .build()
            .expect("valid job")
    }

    /// Run a few short jobs so lazy state (scratch pool, worker stacks) is
    /// warm before anything is timed.
    pub fn warm_up(&self, workload: Workload) {
        let config = workload
            .config()
            .to_builder()
            .iterations(1)
            .build()
            .expect("valid");
        let jobs: Vec<Job> = (0..self.nproc.max(1))
            .map(|i| self.job(workload, u64::MAX, i, &config))
            .collect();
        if workload.is_batch() {
            let _ = self.engine.submit(jobs).join();
        } else {
            for job in jobs {
                let _ = self.engine.run(job);
            }
        }
    }
}

/// One finished job, as the benchmark saw it from outside.
pub struct JobRecord {
    pub index: usize,
    /// Call (single) or submit (batch) time.
    pub issued: Instant,
    /// When the result was back.
    pub done: Instant,
    /// Time the job started running (`issued` for inline runs).
    pub started: Instant,
    /// Progress-report times: `marks[k]` is when iteration `k` was reported.
    /// Inline runs see every report including `0`; polled batch jobs see
    /// the reports the poller caught, from iteration 1 on.
    pub marks: Vec<(usize, Instant)>,
    pub member_iterations: usize,
    pub outcome: Result<TrajectoryResult, String>,
}

/// Run `workload` closed-loop from job 0 until at least `min_jobs` jobs are
/// done and `seconds` of sampling have passed, handing each finished job to
/// `consume` between calls.  Returns the sampling wall time (s): the time
/// spent in calls and batches, without the time `consume` takes.  With a
/// tracer, every call into the engine and every progress-report interval
/// becomes a span.
pub fn run(
    setup: &Setup,
    workload: Workload,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    tracer: Option<(&Tracer, SpanId)>,
    mut consume: impl FnMut(JobRecord),
) -> f64 {
    let config = workload.config();
    let mut wall = Duration::ZERO;
    let mut next = 0;
    while next < min_jobs || wall.as_secs_f64() < seconds {
        let start = Instant::now();
        let records = if workload.is_batch() {
            let batch: Vec<Job> = (next..next + BATCH_JOBS)
                .map(|i| setup.job(workload, seed, i, &config))
                .collect();
            run_batch(setup, batch, next, tracer)
        } else {
            let job = setup.job(workload, seed, next, &config);
            vec![run_inline(
                setup,
                setup.engine.executor(),
                job,
                next,
                tracer,
            )]
        };
        let end = records.iter().map(|r| r.done).max().unwrap_or(start);
        wall += end - start;
        next += records.len();
        records.into_iter().for_each(&mut consume);
    }
    wall.as_secs_f64()
}

/// `engine.run` with a progress hook: the engine's own body (its knowledge
/// base and scratch pool, on `executor`) plus a callback that stamps each
/// progress report.
pub fn run_inline(
    setup: &Setup,
    executor: &Executor,
    job: Job,
    index: usize,
    tracer: Option<(&Tracer, SpanId)>,
) -> JobRecord {
    let engine = &setup.engine;
    let member_iterations = job.config.population_size * job.config.iterations;
    let marks = Mutex::new(Vec::with_capacity(job.config.iterations + 1));
    let report = |done: usize, _total: usize| {
        let now = Instant::now();
        marks.lock().expect("marks poisoned").push((done, now));
    };
    let issued = Instant::now();
    let outcome =
        MoscemSampler::try_new(job.target, Arc::clone(engine.knowledge_base()), job.config)
            .map_err(|e| e.to_string())
            .and_then(|sampler| {
                let controls = RunControls::new()
                    .progress(&report)
                    .scratch_pool(engine.scratch_pool());
                sampler
                    .run_controlled(executor, job.seed, &controls)
                    .map_err(|e| e.to_string())
            });
    let done = Instant::now();
    let marks = marks.into_inner().expect("marks poisoned");
    if let Some((tracer, parent)) = tracer {
        let span = tracer.record("core.engine.run", Some(parent), issued, done, &[]);
        record_progress_spans(tracer, span, issued, &marks, member_iterations);
    }
    JobRecord {
        index,
        issued,
        done,
        started: issued,
        marks,
        member_iterations,
        outcome,
    }
}

/// Per-job state the batch poller keeps.
struct Polled {
    started: Option<Instant>,
    done: Option<Instant>,
    last: usize,
    marks: Vec<(usize, Instant)>,
}

/// One `engine.submit` batch, watched by polling `BatchHandle::progress`.
pub fn run_batch(
    setup: &Setup,
    batch: Vec<Job>,
    first: usize,
    tracer: Option<(&Tracer, SpanId)>,
) -> Vec<JobRecord> {
    let member_iterations: Vec<usize> = batch
        .iter()
        .map(|j| j.config.population_size * j.config.iterations)
        .collect();
    let mut polled: Vec<Polled> = batch
        .iter()
        .map(|j| Polled {
            started: None,
            done: None,
            last: 0,
            marks: Vec::with_capacity(j.config.iterations + 1),
        })
        .collect();
    let issued = Instant::now();
    let handle = setup.engine.submit(batch);
    let mut open = polled.len();
    while open > 0 {
        std::thread::sleep(POLL);
        let now = Instant::now();
        for (p, progress) in polled.iter_mut().zip(handle.progress()) {
            if p.done.is_some() {
                continue;
            }
            if progress.status != JobStatus::Queued && p.started.is_none() {
                p.started = Some(now);
            }
            if progress.iterations_done > p.last {
                p.last = progress.iterations_done;
                p.marks.push((p.last, now));
            }
            if progress.status.is_terminal() {
                p.done = Some(now);
                open -= 1;
            }
        }
    }
    let results = handle.join();
    let batch_span = tracer.map(|(t, parent)| {
        let end = polled.iter().filter_map(|p| p.done).max().unwrap_or(issued);
        let n = results.len() as f64;
        (
            t,
            t.record(
                "core.engine.submit",
                Some(parent),
                issued,
                end,
                &[("jobs", n)],
            ),
        )
    });
    results
        .into_iter()
        .zip(polled)
        .enumerate()
        .map(|(i, (result, p))| {
            let done = p.done.expect("every job reached a terminal state");
            let started = p.started.unwrap_or(done);
            if let Some((tracer, parent)) = batch_span {
                let span = tracer.record("core.engine.job", Some(parent), started, done, &[]);
                record_progress_spans(tracer, span, started, &p.marks, member_iterations[i]);
            }
            JobRecord {
                index: first + i,
                issued,
                done,
                started,
                marks: p.marks,
                member_iterations: member_iterations[i],
                outcome: result.outcome.map_err(|e| e.to_string()),
            }
        })
        .collect()
}

/// Spans between consecutive progress reports: `core.sampler.init` up to
/// report 0, then one `core.sampler.iteration` per later report.
fn record_progress_spans(
    tracer: &Tracer,
    parent: SpanId,
    start: Instant,
    marks: &[(usize, Instant)],
    member_iterations: usize,
) {
    let per_iteration = marks
        .last()
        .map_or(0.0, |&(k, _)| member_iterations as f64 / k.max(1) as f64);
    let mut prev = start;
    for &(k, at) in marks {
        let name = if k == 0 {
            "core.sampler.init"
        } else {
            "core.sampler.iteration"
        };
        tracer.record(
            name,
            Some(parent),
            prev,
            at,
            &[("member_iterations", per_iteration)],
        );
        prev = at;
    }
}

/// Iteration intervals (ms) between consecutive progress reports of a job:
/// only reports of consecutive iterations count, never the init.
pub fn iteration_gaps_ms(marks: &[(usize, Instant)]) -> impl Iterator<Item = f64> + '_ {
    marks.windows(2).filter_map(|w| {
        let ((a, ta), (b, tb)) = (w[0], w[1]);
        (a >= 1 && b == a + 1).then(|| (tb - ta).as_secs_f64() * 1e3)
    })
}

/// Run start to the `progress(0)` report (ms), when the report was seen.
pub fn init_ms(job: &JobRecord) -> Option<f64> {
    job.marks
        .iter()
        .find(|&&(k, _)| k == 0)
        .map(|&(_, at)| (at - job.started).as_secs_f64() * 1e3)
}

/// Output checks of one finished trajectory: population size, finite
/// scores and torsions.
pub fn check_trajectory(config: &SamplerConfig, result: &TrajectoryResult) -> Result<(), String> {
    if result.population.len() != config.population_size {
        return Err(format!(
            "population {} != configured {}",
            result.population.len(),
            config.population_size
        ));
    }
    for (i, member) in result.population.iter().enumerate() {
        if !member.torsions.as_slice().iter().all(|a| a.is_finite()) {
            return Err(format!("member {i} has a non-finite torsion"));
        }
        if !member.scores.as_array().iter().all(|s| s.is_finite()) {
            return Err(format!("member {i} has a non-finite score"));
        }
        if !member.rmsd_to_native.is_finite() {
            return Err(format!("member {i} has a non-finite RMSD"));
        }
    }
    Ok(())
}

/// Harvest a trajectory into `set` and check every decoy it added: a fresh
/// build of the decoy's torsions must satisfy the closure condition.
pub fn harvest_checked(
    set: &mut DecoySet,
    target: &LoopTarget,
    config: &SamplerConfig,
    result: &TrajectoryResult,
    trajectory: usize,
) -> Result<usize, String> {
    let before = set.len();
    let added = result.harvest_into(set, trajectory);
    let builder = LoopBuilder::default();
    let mut structure = LoopStructure::with_capacity(target.n_residues());
    for decoy in &set.decoys()[before..] {
        target.build_into(&builder, &decoy.torsions, &mut structure);
        let deviation = target.closure_deviation(&structure);
        if deviation.is_nan() || deviation > config.max_closure_deviation {
            return Err(format!(
                "decoy closure deviation {deviation} > {}",
                config.max_closure_deviation
            ));
        }
    }
    Ok(added)
}

/// Fold a trajectory's final torsion bits into a digest.
pub fn digest_population(digest: &mut Digest, result: &TrajectoryResult) {
    for member in &result.population {
        for angle in member.torsions.as_slice() {
            digest.add(angle.to_bits());
        }
    }
}
