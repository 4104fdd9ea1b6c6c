//! # lms — GPU-accelerated multi-scoring protein loop structure sampling
//!
//! A reproduction and production-oriented extension of *"GPU-accelerated
//! multi-scoring functions protein loop structure sampling"*: the MOSCEM
//! multi-objective MCMC sampler over loop torsion space, scored by the
//! paper's three backbone scoring functions (soft-sphere VDW,
//! pairwise-distance DIST, triplet torsion TRIPLET) plus an opt-in fourth
//! solvation/burial objective, with CCD loop closure and data-parallel
//! population kernels.
//!
//! ## Enabling the fourth (burial) objective
//!
//! The burial term scores each residue's environment contact number against
//! its residue type's knowledge-based reference — the facet of loop quality
//! (hydrophobic burial vs polar exposure) the clash/distance/torsion trio
//! cannot see.  It is off by default; sampling with it off is bit-identical
//! to the three-objective pipeline.  Turn it on per job through the config
//! builder:
//!
//! ```
//! use lms::prelude::*;
//!
//! # fn main() -> Result<(), ConfigError> {
//! let config = SamplerConfig::builder()
//!     .population_size(16)
//!     .iterations(2)
//!     .burial_objective(true) // fourth objective: solvation/burial
//!     .build()?;
//! assert_eq!(config.active_objectives(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! The evaluation reuses the VDW environment's precomputed per-cell
//! candidate lists — the list each Cα site reads feeds both the clash sum
//! and that residue's burial count — so the fourth objective costs far
//! less than a second environment sweep (see the `scoring_pipeline`
//! bench's 3-vs-4-objective comparison).
//!
//! ## The engine lifecycle: build → submit → stream → harvest
//!
//! The public API is job-oriented: a [`prelude::LoopModelingEngine`] owns
//! everything jobs share (the knowledge base, the executor, a pool of warm
//! scoring workspaces) and runs many loop-modeling [`prelude::Job`]s
//! concurrently, multiplexing the thread budget across jobs and streaming
//! [`prelude::JobResult`]s back in completion order with per-job progress
//! and cancellation.  Because every trajectory derives all randomness from
//! its own seed — never from scheduling — a batch is bit-identical to
//! running its jobs sequentially.
//!
//! ```
//! use lms::prelude::*;
//!
//! # fn main() -> Result<(), Error> {
//! // 1. Build: one engine per process, sharing the knowledge base.
//! let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
//! let engine = LoopModelingEngine::builder(kb)
//!     .executor(ExecutorConfig::parallel())
//!     .build()?;
//!
//! // 2. Submit: one job per loop; configs are validated by the builders.
//! let library = BenchmarkLibrary::standard();
//! let config = SamplerConfig::builder()
//!     .population_size(16)
//!     .iterations(2)
//!     .build()?;
//! let jobs: Vec<Job> = ["1cex", "5pti"]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, name)| {
//!         let target = library.target_by_name(name).unwrap();
//!         Job::builder(target).config(config.clone()).seed(7 + i as u64).build()
//!     })
//!     .collect::<Result<_, _>>()?;
//! let batch = engine.submit(jobs);
//!
//! // 3. Stream: results arrive as jobs finish; progress() and cancel()
//! //    are available on the handle while the batch runs.
//! for result in batch {
//!     // 4. Harvest the trajectory (or a typed error) per job.
//!     let trajectory = result.outcome?;
//!     assert_eq!(trajectory.population.len(), 16);
//!     assert!(trajectory.non_dominated_count() >= 1);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! For a single trajectory, [`prelude::LoopModelingEngine::run`] executes
//! one job inline, and the lower-level [`prelude::MoscemSampler`] remains
//! available (a one-job batch and a direct sampler run produce bit-identical
//! results).
//!
//! ## Choosing an execution backend
//!
//! Executors are built through the validated [`prelude::ExecutorConfig`]
//! builder and slot in behind the same kernel-launch entry point: `scalar`
//! (sequential baseline) and `parallel` (one contiguous chunk of lanes per
//! worker thread, on scoped `std` threads).  Every kernel
//! is scalar code on both.  Backend choice **never changes sampled
//! trajectories** (per-stream RNG discipline); it only changes how fast
//! they run.  Every executor reports [`prelude::Capabilities`] (backend
//! name, thread budget, CCD block width and the detected host ISA), which
//! the experiment harness's Table II report, the bench JSON artifacts and
//! each [`prelude::JobResult`] carry so measurements stay attributable to
//! the machine that produced them.
//!
//! ```
//! use lms::prelude::*;
//!
//! # fn main() -> Result<(), ConfigError> {
//! let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
//! let engine = LoopModelingEngine::builder(kb)
//!     .executor(ExecutorConfig::parallel().threads(4).ccd_block_width(16))
//!     .build()?;
//! let caps = engine.executor().capabilities();
//! assert_eq!(caps.name, "parallel");
//! assert_eq!(caps.threads, 4);
//! assert_eq!(caps.ccd_block_width, 16);
//! # Ok(())
//! # }
//! ```
//!
//! ## The population-batched kernel pipeline (internal layout)
//!
//! Every trajectory executes as a **staged kernel pipeline over a
//! population-wide SoA member arena** — one `Executor::launch` per stage
//! (`mutate`, `close`, `rebuild`, `score`, `metropolis`, `select`) per
//! iteration, mirroring the paper's device execution, with lockstep CCD
//! blocks batching the optimal-rotation inner products across members.
//! `launch` is the executor's only kernel entry point.  Per-(member,
//! iteration) RNG stream discipline keeps the pipeline bit-identical to a
//! plain sequential per-member loop, the oracle
//! [`prelude::MoscemSampler::run_reference_with_seed`] (module
//! `lms_core::reference`; it takes no executor and no
//! [`prelude::JobLimits`]).  That oracle anchors the equivalence property
//! tests, and the CI perf gate tracks the pipeline's speed against it.
//!
//! ## Fault tolerance: deadlines, retries, health guards
//!
//! Long batches on shared hardware fail in boring ways — a job outlives
//! its time slot, a numerical kernel emits a NaN, a worker panics.  The
//! runtime makes every such failure a *typed, classified* outcome:
//!
//! | error | meaning | class |
//! |---|---|---|
//! | [`prelude::Error::Cancelled`] | cancelled via the batch handle | terminal |
//! | [`prelude::Error::DeadlineExceeded`] | [`prelude::JobLimits`] wall-clock budget spent | terminal |
//! | [`prelude::Error::Stalled`] | CCD made no progress for a configured streak | retryable |
//! | [`prelude::Error::NumericalFault`] | non-finite score/torsion/observable detected | retryable |
//! | [`prelude::Error::JobPanicked`] | a stage kernel panicked (payload captured) | retryable |
//!
//! Budgets are set per job with [`prelude::JobLimits`] on the sampler
//! config; the poisoned-value policy is [`prelude::NumericGuard`] (fail
//! fast, or quarantine the poisoned member and keep sampling).  The
//! engine's supervisor re-runs *retryable* failures with the **same
//! seed** under a bounded-backoff [`prelude::RetryPolicy`], recording
//! one [`prelude::AttemptFailure`] per failed attempt on the
//! [`prelude::JobResult`] — determinism makes the rerun bit-identical
//! up to the fault, so a transient either disappears or reproduces
//! exactly.  A deterministic fault-injection harness (seeded panics,
//! NaN poison and stalls at exact kernel-launch sites) backs all of
//! this under the `fault-injection` cargo feature; see
//! `examples/faulty_batch.rs` and the `simt` crate's `fault` module.
//!
//! ## Crates
//!
//! The facade re-exports the whole suite; the [`prelude`] is the curated
//! surface most applications need.
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | engine, sampler, Pareto fitness, mutation moves, decoy sets |
//! | [`scoring`] | VDW/DIST/TRIPLET scoring, knowledge base, scratch pool |
//! | [`closure`] | CCD loop closure |
//! | [`protein`] | backbone geometry, benchmark targets, PDB I/O |
//! | [`geometry`] | vectors, rotations, dihedral math, streamed RNG |
//! | [`simt`] | population kernel executors, lanes, stage kinds |
//! | [`decoys`] | decoy clustering and ensemble statistics |

#![warn(missing_docs)]

pub use lms_closure as closure;
pub use lms_core as core;
pub use lms_decoys as decoys;
pub use lms_geometry as geometry;
pub use lms_protein as protein;
pub use lms_scoring as scoring;
pub use lms_simt as simt;

/// The curated import surface: everything a typical application needs to
/// build an engine, submit jobs, and analyse results — one `use
/// lms::prelude::*;` instead of seven crate imports.
pub mod prelude {
    pub use lms_closure::{CcdCloser, CcdConfig, CcdResult};
    pub use lms_core::{
        AttemptFailure, BatchHandle, ComponentTimes, ConfigError, Decoy, DecoyProduction, DecoySet,
        EngineBuilder, Error, IterationSnapshot, Job, JobBuilder, JobId, JobLimits, JobProgress,
        JobResult, JobStatus, LoopModelingEngine, MoscemSampler, MutationConfig, NumericGuard,
        ObjectiveMode, PoisonedLane, RetryPolicy, RunControls, SamplerConfig, SamplerConfigBuilder,
        StageRecord, StageRow, TemperatureSchedule, TrajectoryResult,
    };
    pub use lms_decoys::{
        cluster_decoys, compare_decoy_sets, distinct_non_dominated, ensemble_stats, ClusterMetric,
    };
    pub use lms_protein::{
        parse_sequence, to_pdb, BenchmarkLibrary, Environment, LoopBuilder, LoopFrame,
        LoopStructure, LoopTarget, Torsions,
    };
    pub use lms_scoring::{
        BurialScore, KnowledgeBase, KnowledgeBaseConfig, MultiScorer, Objective, ScoreScratch,
        ScoreVector, ScratchPool, NUM_OBJECTIVES,
    };
    pub use lms_simt::{
        Backend, Capabilities, Executor, ExecutorConfig, ExecutorConfigError, KernelKind,
        KernelLaunch, DEFAULT_CCD_BLOCK_WIDTH, MAX_CCD_BLOCK_WIDTH,
    };
    #[cfg(feature = "fault-injection")]
    pub use lms_simt::{FaultKind, FaultPlan, FaultSession, FaultSite};
}
