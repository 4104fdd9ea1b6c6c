//! Sampler configuration.
//!
//! [`SamplerConfig`] is `#[non_exhaustive]`: downstream code constructs or
//! tweaks it through [`SamplerConfig::builder`] / [`SamplerConfig::to_builder`],
//! which validate on [`SamplerConfigBuilder::build`] and leave the struct
//! free to grow fields without breaking callers.
//!
//! The builder sets only what a caller actually varies: scale
//! (population, complexes, iterations, seed), the temperature schedule,
//! the CCD budget, the objective set and mode, snapshots, job limits and
//! the numerical guard.  The paper's fixed recipe is not settable: the
//! initial torsions are drawn from the per-residue Ramachandran mixture
//! and closed by CCD from torsion 0, the adaptive schedule's constants
//! live in [`crate::annealing`], and `mutation`, `max_closure_deviation`
//! (0.75 Å) and `distinct_threshold_deg` (30°) are readable fields that
//! always hold their defaults.  A new setting needs a second production
//! value.

use crate::annealing::TemperatureSchedule;
use crate::error::ConfigError;
use crate::mutation::MutationConfig;
use lms_closure::CcdConfig;
use lms_scoring::{Objective, NUM_OBJECTIVES};
use std::time::Duration;

/// Per-job execution budgets, enforced at iteration boundaries (the same
/// checkpoints as cooperative cancellation through
/// [`RunControls`](crate::RunControls)).
///
/// All limits default to `None` (unlimited), so existing configurations
/// are unchanged.  Violations surface as typed errors:
/// [`Error::DeadlineExceeded`](crate::Error) for the wall-clock deadline,
/// [`Error::Stalled`](crate::Error) for the closure-stall streak, and
/// [`ConfigError::IterationBudgetExceeded`](crate::ConfigError) at
/// validation time for the iteration budget (trajectory length is fixed up
/// front, so an over-budget config is a config error, not a runtime one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct JobLimits {
    /// Wall-clock budget for the whole run (initialisation included);
    /// checked at iteration boundaries, so one iteration may overshoot it.
    pub deadline: Option<Duration>,
    /// Upper bound on `iterations`, enforced by
    /// [`SamplerConfig::validate`].
    pub max_iterations: Option<usize>,
    /// Maximum tolerated streak of consecutive iterations in which *no*
    /// member's CCD closure converged (the sampler is burning its budget
    /// without producing candidate loops).
    pub max_closure_stall: Option<usize>,
}

impl JobLimits {
    /// No limits — the default.
    pub fn none() -> JobLimits {
        JobLimits::default()
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> JobLimits {
        self.deadline = Some(deadline);
        self
    }

    /// Set the iteration budget.
    pub fn with_max_iterations(mut self, budget: usize) -> JobLimits {
        self.max_iterations = Some(budget);
        self
    }

    /// Set the closure-stall streak limit.
    pub fn with_max_closure_stall(mut self, streak: usize) -> JobLimits {
        self.max_closure_stall = Some(streak);
        self
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_iterations.is_some() || self.max_closure_stall.is_some()
    }
}

/// What the numerical health sweep does when it finds a non-finite value
/// in a member's candidate lanes (scores, torsions, closure deviation or
/// observables) after the scoring stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericGuard {
    /// Fail the job with [`Error::NumericalFault`](crate::Error) naming
    /// the member and objective — the default: poison never propagates
    /// silently, and the supervisor may retry the job.
    #[default]
    Fail,
    /// Quarantine the poisoned member and keep sampling: during the run
    /// the candidate is force-rejected (the member re-seeds from its own
    /// archived conformation — its slot in the Pareto-ranked population),
    /// and a poisoned *initial* member is re-seeded from the first healthy
    /// member of the initial front.  A fully-poisoned population still
    /// fails the job.
    Quarantine,
}

/// How the sampler turns the enabled scoring functions into the quantity
/// the Metropolis test acts on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObjectiveMode {
    /// The paper's approach: Pareto-strength fitness over all enabled
    /// scoring functions (MOSCEM).
    MultiScoring,
    /// Global optimisation of a single scoring function — the baseline the
    /// paper argues against (Section II); used by the ablation benches.
    Single(Objective),
    /// Global optimisation of a fixed weighted sum of the scoring
    /// functions — the "single complicated scoring function" alternative.
    /// One weight per objective slot in canonical order; a disabled
    /// objective's slot is always `0.0`, so its weight is inert.
    WeightedSum([f64; NUM_OBJECTIVES]),
}

/// Full configuration of one sampling trajectory.
///
/// Construct with [`SamplerConfig::builder`] (or tweak a preset via
/// [`SamplerConfig::to_builder`]); the fields stay public for reading, but
/// the struct is `#[non_exhaustive]` so it can grow without breaking
/// downstream constructors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SamplerConfig {
    /// Population size (the paper's headline configuration is 15,360).
    pub population_size: usize,
    /// Number of complexes the population is partitioned into (the paper
    /// uses 120 at population 15,360, i.e. 128 members per complex).
    pub n_complexes: usize,
    /// Number of MCMC iterations.
    pub iterations: usize,
    /// Master random seed; every conformation derives its own stream.
    pub seed: u64,
    /// Metropolis temperature schedule on the fitness landscape.  The
    /// default is the paper's acceptance-rate adjustment,
    /// [`TemperatureSchedule::Adaptive`].
    pub temperature: TemperatureSchedule,
    /// Mutation (reproduction) move configuration (always the default).
    pub mutation: MutationConfig,
    /// CCD loop-closure configuration used inside the sampling loop.
    pub ccd: CcdConfig,
    /// Maximum loop-closure deviation (Å) a proposed conformation may have
    /// and still enter the Metropolis test: the paper's "loop closure
    /// condition".  Candidates whose CCD run finishes above this are
    /// rejected outright, and members above it are never harvested as
    /// decoys.  Fixed at 0.75 Å; a CCD tolerance above it is rejected
    /// (the tolerance bounds the deviation of a *converged* closure).
    pub max_closure_deviation: f64,
    /// Objective handling (multi-scoring Pareto sampling vs. baselines).
    pub objective_mode: ObjectiveMode,
    /// Whether the fourth (solvation/burial) objective is evaluated.  Off by
    /// default: a disabled run is bit-identical to the three-objective
    /// pipeline (the BURIAL slot of every score vector stays exactly `0.0`,
    /// which cannot influence dominance, fitness or acceptance).
    pub burial_objective: bool,
    /// Iterations at which to record a population snapshot (Figure 5 uses
    /// 0, 20 and 100).  Iteration 0 is the initial population.
    pub snapshot_iterations: Vec<usize>,
    /// Decoy structural-distinctness threshold in degrees: the paper's
    /// maximum torsion deviation of at least 30°, fixed.
    pub distinct_threshold_deg: f64,
    /// Per-job execution budgets (deadline, iteration budget, closure
    /// stall streak); unlimited by default.
    pub limits: JobLimits,
    /// Policy of the post-score numerical health sweep; fail-fast by
    /// default.
    pub numeric_guard: NumericGuard,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            population_size: 256,
            n_complexes: 2,
            iterations: 30,
            seed: 2010,
            temperature: TemperatureSchedule::Adaptive,
            mutation: MutationConfig::default(),
            ccd: CcdConfig::new().with_max_sweeps(24).with_tolerance(0.25),
            max_closure_deviation: 0.75,
            objective_mode: ObjectiveMode::MultiScoring,
            burial_objective: false,
            snapshot_iterations: Vec::new(),
            distinct_threshold_deg: 30.0,
            limits: JobLimits::none(),
            numeric_guard: NumericGuard::Fail,
        }
    }
}

impl SamplerConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> SamplerConfigBuilder {
        SamplerConfigBuilder {
            cfg: SamplerConfig::default(),
        }
    }

    /// Turn this configuration back into a builder (e.g. to tweak a
    /// configuration: `SamplerConfig::default().to_builder().seed(7).build()?`).
    pub fn to_builder(&self) -> SamplerConfigBuilder {
        SamplerConfigBuilder { cfg: self.clone() }
    }

    /// Number of population members per complex (rounded up; the final
    /// complex may be smaller when the population does not divide evenly).
    pub fn complex_size(&self) -> usize {
        self.population_size.div_ceil(self.n_complexes.max(1))
    }

    /// Number of objectives the sampler actually evaluates under this
    /// configuration (3 core objectives, +1 when the burial term is on).
    /// Drives the device-model work and transfer accounting.
    pub fn active_objectives(&self) -> usize {
        if self.burial_objective {
            NUM_OBJECTIVES
        } else {
            NUM_OBJECTIVES - 1
        }
    }

    /// Basic sanity checks; returns the violated invariant for impossible
    /// configurations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.population_size == 0 {
            return Err(ConfigError::ZeroPopulation);
        }
        if self.n_complexes == 0 {
            return Err(ConfigError::ZeroComplexes);
        }
        if self.n_complexes > self.population_size {
            return Err(ConfigError::ComplexesExceedPopulation {
                n_complexes: self.n_complexes,
                population_size: self.population_size,
            });
        }
        self.temperature.validate()?;
        // A NaN on either side is rejected too: the public fields can be
        // assigned directly, bypassing the builder.
        let order = self.max_closure_deviation.partial_cmp(&self.ccd.tolerance);
        if matches!(order, None | Some(std::cmp::Ordering::Less)) {
            return Err(ConfigError::ClosureBelowCcdTolerance {
                max_closure_deviation: self.max_closure_deviation,
                ccd_tolerance: self.ccd.tolerance,
            });
        }
        if !self.burial_objective {
            // With the burial objective off, its slot is constant 0.0 — an
            // objective mode that optimizes only that slot would make every
            // move's Metropolis delta zero (an unguided random walk).
            let depends_on_burial = match self.objective_mode {
                ObjectiveMode::Single(obj) => obj == Objective::Burial,
                ObjectiveMode::WeightedSum(w) => {
                    w[Objective::Burial.index()] != 0.0
                        && w.iter()
                            .enumerate()
                            .all(|(i, &wi)| i == Objective::Burial.index() || wi == 0.0)
                }
                ObjectiveMode::MultiScoring => false,
            };
            if depends_on_burial {
                return Err(ConfigError::BurialObjectiveDisabled);
            }
        }
        if let Some(deadline) = self.limits.deadline {
            if deadline.is_zero() {
                return Err(ConfigError::ZeroDeadline);
            }
        }
        if let Some(budget) = self.limits.max_iterations {
            if self.iterations > budget {
                return Err(ConfigError::IterationBudgetExceeded {
                    iterations: self.iterations,
                    budget,
                });
            }
        }
        if self.limits.max_closure_stall == Some(0) {
            return Err(ConfigError::ZeroStallLimit);
        }
        Ok(())
    }
}

/// Builder for [`SamplerConfig`]; validates the assembled configuration on
/// [`SamplerConfigBuilder::build`].
#[derive(Debug, Clone)]
#[must_use = "a config builder does nothing until .build() is called"]
pub struct SamplerConfigBuilder {
    cfg: SamplerConfig,
}

impl Default for SamplerConfigBuilder {
    fn default() -> Self {
        SamplerConfig::builder()
    }
}

impl From<SamplerConfig> for SamplerConfigBuilder {
    fn from(cfg: SamplerConfig) -> Self {
        SamplerConfigBuilder { cfg }
    }
}

impl SamplerConfigBuilder {
    /// Population size.
    pub fn population_size(mut self, n: usize) -> Self {
        self.cfg.population_size = n;
        self
    }

    /// Number of complexes the population is partitioned into.
    pub fn n_complexes(mut self, n: usize) -> Self {
        self.cfg.n_complexes = n;
        self
    }

    /// Number of MCMC iterations.
    pub fn iterations(mut self, n: usize) -> Self {
        self.cfg.iterations = n;
        self
    }

    /// Master random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Metropolis temperature schedule.
    pub fn temperature(mut self, schedule: TemperatureSchedule) -> Self {
        self.cfg.temperature = schedule;
        self
    }

    /// CCD loop-closure configuration.
    pub fn ccd(mut self, ccd: CcdConfig) -> Self {
        self.cfg.ccd = ccd;
        self
    }

    /// Objective handling (multi-scoring Pareto sampling vs. baselines).
    pub fn objective_mode(mut self, mode: ObjectiveMode) -> Self {
        self.cfg.objective_mode = mode;
        self
    }

    /// Enable (or disable) the fourth, solvation/burial objective.  With it
    /// off — the default — sampling is bit-identical to the three-objective
    /// pipeline.
    pub fn burial_objective(mut self, enabled: bool) -> Self {
        self.cfg.burial_objective = enabled;
        self
    }

    /// Iterations at which to record a population snapshot.
    pub fn snapshot_iterations(mut self, iterations: Vec<usize>) -> Self {
        self.cfg.snapshot_iterations = iterations;
        self
    }

    /// Per-job execution budgets (deadline / iteration budget / closure
    /// stall streak).
    pub fn limits(mut self, limits: JobLimits) -> Self {
        self.cfg.limits = limits;
        self
    }

    /// Policy of the post-score numerical health sweep.
    pub fn numeric_guard(mut self, guard: NumericGuard) -> Self {
        self.cfg.numeric_guard = guard;
        self
    }

    /// Validate and return the finished configuration.
    pub fn build(self) -> Result<SamplerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
impl SamplerConfig {
    /// A configuration scaled for quick unit tests.
    pub(crate) fn test_scale() -> Self {
        SamplerConfig {
            population_size: 48,
            n_complexes: 2,
            iterations: 6,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SamplerConfig::default().validate().is_ok());
        assert!(SamplerConfig::test_scale().validate().is_ok());
    }

    #[test]
    fn builder_roundtrips_and_validates() {
        let built = SamplerConfig::builder()
            .population_size(64)
            .n_complexes(4)
            .iterations(9)
            .seed(101)
            .snapshot_iterations(vec![0, 9])
            .build()
            .unwrap();
        assert_eq!(built.population_size, 64);
        assert_eq!(built.n_complexes, 4);
        assert_eq!(built.seed, 101);
        // to_builder preserves everything it does not touch.
        let tweaked = built.to_builder().seed(202).build().unwrap();
        assert_eq!(tweaked.seed, 202);
        assert_eq!(tweaked.snapshot_iterations, vec![0, 9]);
        assert_eq!(tweaked.iterations, built.iterations);
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        use crate::error::ConfigError as E;
        let cases: Vec<(SamplerConfigBuilder, E)> = vec![
            (
                SamplerConfig::builder().population_size(0),
                E::ZeroPopulation,
            ),
            (SamplerConfig::builder().n_complexes(0), E::ZeroComplexes),
            (
                SamplerConfig::builder().population_size(8).n_complexes(9),
                E::ComplexesExceedPopulation {
                    n_complexes: 9,
                    population_size: 8,
                },
            ),
            (
                SamplerConfig::builder()
                    .temperature(TemperatureSchedule::Fixed { temperature: 0.0 }),
                E::NonPositiveTemperature { value: 0.0 },
            ),
            (
                SamplerConfig::builder().ccd(CcdConfig::new().with_tolerance(1.0)),
                E::ClosureBelowCcdTolerance {
                    max_closure_deviation: 0.75,
                    ccd_tolerance: 1.0,
                },
            ),
        ];
        for (builder, expected) in cases {
            assert_eq!(builder.build().unwrap_err(), expected);
        }
        // A NaN closure bound or tolerance is rejected, not compared away.
        for config in [
            SamplerConfig {
                max_closure_deviation: f64::NAN,
                ..SamplerConfig::default()
            },
            SamplerConfig::builder()
                .ccd(CcdConfig::new().with_tolerance(f64::NAN))
                .cfg,
        ] {
            assert!(matches!(
                config.validate(),
                Err(E::ClosureBelowCcdTolerance { .. })
            ));
        }
    }

    #[test]
    fn every_temperature_schedule_is_validated_at_build() {
        use crate::error::ConfigError as E;
        let rejected = |schedule: TemperatureSchedule| {
            SamplerConfig::builder()
                .temperature(schedule)
                .build()
                .unwrap_err()
        };
        assert_eq!(
            rejected(TemperatureSchedule::Fixed {
                temperature: f64::INFINITY
            }),
            E::NonPositiveTemperature {
                value: f64::INFINITY
            }
        );
        assert_eq!(
            rejected(TemperatureSchedule::Fixed {
                temperature: f64::NAN
            })
            .to_string(),
            "temperature must be positive and finite (got NaN)"
        );
        assert_eq!(
            rejected(TemperatureSchedule::Fixed { temperature: -1.0 }),
            E::NonPositiveTemperature { value: -1.0 }
        );
        // The engine's job builder validates through the same path, so an
        // invalid schedule never reaches a run (where it would panic).
        let target = lms_protein::BenchmarkLibrary::standard()
            .target_by_name("1cex")
            .unwrap();
        let config = SamplerConfig {
            temperature: TemperatureSchedule::Fixed { temperature: 0.0 },
            ..SamplerConfig::default()
        };
        assert!(matches!(
            crate::Job::builder(target).config(config).build(),
            Err(E::NonPositiveTemperature { value: 0.0 })
        ));
        // Every valid variant builds.
        for schedule in [
            SamplerConfig::default().temperature,
            TemperatureSchedule::Fixed { temperature: 0.25 },
        ] {
            assert!(SamplerConfig::builder()
                .temperature(schedule)
                .build()
                .is_ok());
        }
    }

    #[test]
    fn burial_only_objective_modes_require_the_burial_objective() {
        use crate::error::ConfigError as E;
        use lms_scoring::Objective;
        // Optimizing only the (disabled, constant-zero) burial slot is
        // rejected…
        assert_eq!(
            SamplerConfig::builder()
                .objective_mode(ObjectiveMode::Single(Objective::Burial))
                .build()
                .unwrap_err(),
            E::BurialObjectiveDisabled
        );
        assert_eq!(
            SamplerConfig::builder()
                .objective_mode(ObjectiveMode::WeightedSum([0.0, 0.0, 0.0, 1.0]))
                .build()
                .unwrap_err(),
            E::BurialObjectiveDisabled
        );
        // …but becomes valid once the objective is enabled, and a weighted
        // sum with other non-zero weights never depended on it.
        assert!(SamplerConfig::builder()
            .objective_mode(ObjectiveMode::Single(Objective::Burial))
            .burial_objective(true)
            .build()
            .is_ok());
        assert!(SamplerConfig::builder()
            .objective_mode(ObjectiveMode::WeightedSum([1.0, 1.0, 1.0, 1.0]))
            .build()
            .is_ok());
    }

    #[test]
    fn burial_objective_switch_roundtrips() {
        assert!(!SamplerConfig::default().burial_objective);
        let c = SamplerConfig::builder()
            .burial_objective(true)
            .build()
            .unwrap();
        assert!(c.burial_objective);
        let back = c.to_builder().burial_objective(false).build().unwrap();
        assert!(!back.burial_objective);
    }

    #[test]
    fn job_limits_validate_and_roundtrip() {
        use crate::error::ConfigError as E;
        assert!(!JobLimits::none().is_limited());
        let limits = JobLimits::none()
            .with_deadline(Duration::from_secs(5))
            .with_max_iterations(100)
            .with_max_closure_stall(8);
        assert!(limits.is_limited());
        let cfg = SamplerConfig::builder()
            .iterations(50)
            .limits(limits)
            .numeric_guard(NumericGuard::Quarantine)
            .build()
            .unwrap();
        assert_eq!(cfg.limits, limits);
        assert_eq!(cfg.numeric_guard, NumericGuard::Quarantine);

        assert_eq!(
            SamplerConfig::builder()
                .limits(JobLimits::none().with_deadline(Duration::ZERO))
                .build()
                .unwrap_err(),
            E::ZeroDeadline
        );
        assert_eq!(
            SamplerConfig::builder()
                .iterations(10)
                .limits(JobLimits::none().with_max_iterations(5))
                .build()
                .unwrap_err(),
            E::IterationBudgetExceeded {
                iterations: 10,
                budget: 5,
            }
        );
        assert_eq!(
            SamplerConfig::builder()
                .limits(JobLimits::none().with_max_closure_stall(0))
                .build()
                .unwrap_err(),
            E::ZeroStallLimit
        );
    }

    #[test]
    fn complex_size_rounds_up() {
        let c = SamplerConfig {
            population_size: 10,
            n_complexes: 3,
            ..Default::default()
        };
        assert_eq!(c.complex_size(), 4);
    }
}
