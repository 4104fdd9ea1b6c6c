//! # lms-core
//!
//! The paper's core contribution: **multi-scoring-functions protein loop
//! structure sampling** with the MOSCEM (Multiobjective Shuffled Complex
//! Evolution Metropolis) algorithm, expressed as per-conformation kernels
//! over a population and executed on the heterogeneous platform substitute
//! provided by [`lms_simt`].
//!
//! The crate provides:
//!
//! * [`engine`] — the batch job engine: [`LoopModelingEngine`] owns the
//!   shared knowledge base, executor and scratch pool, and schedules many
//!   concurrent [`Job`]s with streaming results, per-job progress and
//!   cancellation;
//! * [`pareto`] — Pareto dominance and the strength-based fitness of Eq. 1;
//! * [`mutation`] — the torsion mutation (reproduction) move set;
//! * [`sampler`] — one MOSCEM sampling trajectory (initialisation, fitness
//!   assignment, complex partitioning, evolution with CCD closure and
//!   three-objective scoring, Metropolis acceptance, temperature control);
//! * [`reference`](mod@reference) — the per-member oracle the staged
//!   trajectory must match bit for bit;
//! * [`stages`] — the measured per-stage record every staged trajectory
//!   returns (launch counts, launch wall time, CCD rotations, summed
//!   population front size);
//! * [`decoyset`] — accumulation of structurally distinct non-dominated
//!   decoys across trajectories (the paper's decoy-production protocol);
//! * [`error`] — the typed [`ConfigError`]/[`Error`] hierarchy every
//!   fallible entry point reports through.
//!
//! ## Quick example
//!
//! ```
//! use lms_core::{Job, LoopModelingEngine, SamplerConfig};
//! use lms_protein::BenchmarkLibrary;
//! use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig};
//!
//! # fn main() -> Result<(), lms_core::Error> {
//! let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
//! let engine = LoopModelingEngine::builder(kb).build()?;
//! let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
//! let config = SamplerConfig::builder()
//!     .population_size(16)
//!     .iterations(2)
//!     .build()?;
//! let job = Job::builder(target).config(config).seed(7).build()?;
//! let result = engine.run(job)?;
//! assert_eq!(result.population.len(), 16);
//! assert!(result.non_dominated_count() >= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod annealing;
pub mod arena;
pub mod config;
pub mod conformation;
pub mod decoyset;
pub mod engine;
pub mod error;
pub mod health;
pub mod mutation;
pub mod pareto;
pub mod reference;
pub mod sampler;
pub mod stages;

pub use annealing::{TemperatureController, TemperatureSchedule};
pub use arena::PopulationArena;
pub use config::{JobLimits, NumericGuard, ObjectiveMode, SamplerConfig, SamplerConfigBuilder};
pub use conformation::Conformation;
pub use decoyset::{Decoy, DecoySet};
pub use engine::{
    AttemptFailure, BatchHandle, EngineBuilder, Job, JobBuilder, JobId, JobProgress, JobResult,
    JobStatus, LoopModelingEngine, RetryPolicy,
};
pub use error::{ConfigError, Error};
pub use health::{member_is_finite, member_poison, PoisonedLane};
pub use mutation::{MutationConfig, Mutator};
pub use pareto::{fitness_against, fitness_assignment, non_dominated_indices, strengths};
pub use sampler::{
    DecoyProduction, IterationSnapshot, MoscemSampler, RunControls, TrajectoryResult,
};
pub use stages::{ComponentTimes, StageRecord, StageRow};
