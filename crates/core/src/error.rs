//! Typed errors for the loop-modeling workspace.
//!
//! Configuration problems surface as [`ConfigError`] (one variant per
//! invariant a config can violate), and everything that can go wrong while
//! running jobs through the engine surfaces as [`Error`].  Both implement
//! [`std::error::Error`], so they compose with `?` and `Box<dyn Error>`
//! in downstream applications — no stringly-typed failures and no panicking
//! constructors on the public API.

use lms_scoring::Objective;
use std::error::Error as StdError;
use std::fmt;
use std::time::Duration;

/// A sampler or engine configuration violates one of its invariants.
///
/// Produced by [`SamplerConfig::validate`](crate::SamplerConfig::validate),
/// the config builders' `build()` methods, and
/// [`EngineBuilder::build`](crate::EngineBuilder::build).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `population_size` must be positive.
    ZeroPopulation,
    /// `n_complexes` must be positive.
    ZeroComplexes,
    /// The population cannot be partitioned into more complexes than it has
    /// members.
    ComplexesExceedPopulation {
        /// Requested number of complexes.
        n_complexes: usize,
        /// Configured population size.
        population_size: usize,
    },
    /// Every temperature of the schedule must be positive and finite.
    NonPositiveTemperature {
        /// The rejected temperature.
        value: f64,
    },
    /// The adaptive schedule's acceptance band must satisfy `low < high`.
    InvalidAcceptanceBand {
        /// Lower edge of the rejected band.
        low: f64,
        /// Upper edge of the rejected band.
        high: f64,
    },
    /// The adaptive schedule's temperature floor must not exceed its
    /// ceiling.
    InvertedTemperatureBounds {
        /// The rejected floor.
        min: f64,
        /// The rejected ceiling.
        max: f64,
    },
    /// The adaptive schedule's multiplicative adjustment must exceed 1.
    TemperatureAdjustNotAboveOne {
        /// The rejected factor.
        factor: f64,
    },
    /// `max_closure_deviation` must be positive and not NaN.
    NonPositiveClosureDeviation {
        /// The rejected deviation.
        value: f64,
    },
    /// The loop-closure condition cannot be tighter than the CCD tolerance
    /// (which bounds the deviation of a *converged* closure).
    ClosureBelowCcdTolerance {
        /// Configured maximum closure deviation (Å).
        max_closure_deviation: f64,
        /// Configured CCD convergence tolerance (Å).
        ccd_tolerance: f64,
    },
    /// The engine must be allowed at least one concurrent job.
    ZeroConcurrency,
    /// The objective mode depends on the burial objective, which is
    /// disabled: with `burial_objective` off the BURIAL slot is constant
    /// `0.0`, so optimizing it alone would degenerate into an unguided
    /// random walk.
    BurialObjectiveDisabled,
    /// A wall-clock deadline in [`JobLimits`](crate::JobLimits) must be
    /// positive.
    ZeroDeadline,
    /// The configured `iterations` exceed the job's iteration budget: the
    /// budget is enforced at validation time because the trajectory length
    /// is fixed up front (truncating mid-run would silently change the
    /// sampled ensemble).
    IterationBudgetExceeded {
        /// Configured number of MCMC iterations.
        iterations: usize,
        /// The `max_iterations` budget in [`JobLimits`](crate::JobLimits).
        budget: usize,
    },
    /// A closure-stall streak limit in [`JobLimits`](crate::JobLimits)
    /// must be positive (a zero streak would fail every job at its first
    /// iteration boundary).
    ZeroStallLimit,
    /// The engine's [`ExecutorConfig`](lms_simt::ExecutorConfig) failed
    /// validation (e.g. a zero or oversized CCD block width, or a backend
    /// whose cargo feature is not compiled in).
    InvalidExecutor(lms_simt::ExecutorConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroPopulation => write!(f, "population_size must be positive"),
            ConfigError::ZeroComplexes => write!(f, "n_complexes must be positive"),
            ConfigError::ComplexesExceedPopulation {
                n_complexes,
                population_size,
            } => write!(
                f,
                "n_complexes ({n_complexes}) cannot exceed population_size ({population_size})"
            ),
            ConfigError::NonPositiveTemperature { value } => {
                write!(f, "temperatures must be positive and finite (got {value})")
            }
            ConfigError::InvalidAcceptanceBand { low, high } => write!(
                f,
                "acceptance band must satisfy low < high (got {low} >= {high})"
            ),
            ConfigError::InvertedTemperatureBounds { min, max } => write!(
                f,
                "temperature floor must not exceed the ceiling (got {min} > {max})"
            ),
            ConfigError::TemperatureAdjustNotAboveOne { factor } => {
                write!(
                    f,
                    "temperature adjustment factor must exceed 1 (got {factor})"
                )
            }
            ConfigError::NonPositiveClosureDeviation { value } => {
                write!(f, "max_closure_deviation must be positive (got {value})")
            }
            ConfigError::ClosureBelowCcdTolerance {
                max_closure_deviation,
                ccd_tolerance,
            } => write!(
                f,
                "max_closure_deviation ({max_closure_deviation}) must be at least the CCD \
                 tolerance ({ccd_tolerance})"
            ),
            ConfigError::ZeroConcurrency => {
                write!(f, "engine concurrency must be at least 1")
            }
            ConfigError::BurialObjectiveDisabled => write!(
                f,
                "objective_mode depends on the BURIAL objective, but burial_objective is \
                 false; enable it with SamplerConfig::builder().burial_objective(true)"
            ),
            ConfigError::ZeroDeadline => {
                write!(f, "JobLimits deadline must be positive")
            }
            ConfigError::IterationBudgetExceeded { iterations, budget } => write!(
                f,
                "iterations ({iterations}) exceed the JobLimits max_iterations budget ({budget})"
            ),
            ConfigError::ZeroStallLimit => {
                write!(f, "JobLimits max_closure_stall must be positive")
            }
            ConfigError::InvalidExecutor(e) => {
                write!(f, "invalid executor configuration: {e}")
            }
        }
    }
}

impl StdError for ConfigError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ConfigError::InvalidExecutor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lms_simt::ExecutorConfigError> for ConfigError {
    fn from(e: lms_simt::ExecutorConfigError) -> Self {
        ConfigError::InvalidExecutor(e)
    }
}

/// Anything that can go wrong while running a sampling job.
///
/// ## Failure taxonomy
///
/// The engine's supervisor classifies every variant as **retryable** (a
/// transient fault — a same-seed rerun is sound because trajectories are
/// deterministic, and may succeed because the fault was environmental) or
/// **terminal** (deterministic or deliberate — a rerun would fail the same
/// way or waste the budget); see [`Error::is_retryable`].
///
/// | variant | class | why |
/// |---|---|---|
/// | [`Error::Config`] | terminal | the same config fails validation again |
/// | [`Error::Cancelled`] | terminal | the caller asked for it |
/// | [`Error::DeadlineExceeded`] | terminal | the wall-clock budget is already spent |
/// | [`Error::JobPanicked`] | retryable | panics are treated as transient worker faults |
/// | [`Error::Stalled`] | retryable | stalls can be environmental (e.g. injected or scheduling) |
/// | [`Error::NumericalFault`] | retryable | poison can enter through transient corruption |
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The job's configuration was invalid.
    Config(ConfigError),
    /// The job was cancelled cooperatively; the trajectory stopped at the
    /// recorded iteration and its partial state was discarded.
    Cancelled {
        /// Number of MCMC iterations that had fully completed when the
        /// cancellation was observed.
        completed_iterations: usize,
    },
    /// The job's worker panicked; the batch's remaining jobs are unaffected.
    JobPanicked {
        /// Label of the job whose worker panicked (empty for direct
        /// sampler runs).
        label: String,
        /// Best-effort panic payload rendered as text.
        detail: String,
    },
    /// The job's wall-clock deadline
    /// ([`JobLimits`](crate::config::JobLimits) `deadline`) elapsed;
    /// enforced at iteration boundaries, so the run stopped at the
    /// recorded iteration.
    DeadlineExceeded {
        /// The configured deadline.
        limit: Duration,
        /// Iterations that had fully completed when the deadline fired.
        completed_iterations: usize,
    },
    /// The sampler stalled: for `streak` consecutive iterations not a
    /// single member's CCD closure converged, exceeding the configured
    /// [`JobLimits::max_closure_stall`](crate::JobLimits) limit.
    Stalled {
        /// Consecutive all-members non-convergence iterations observed.
        streak: usize,
        /// The configured streak limit.
        limit: usize,
        /// Iterations that had fully completed when the guard fired.
        completed_iterations: usize,
    },
    /// The numerical health sweep found a non-finite value in a member's
    /// candidate lanes and the config's
    /// [`NumericGuard`](crate::NumericGuard) policy was `Fail` (or the
    /// whole population was poisoned).
    NumericalFault {
        /// Population member whose lanes were poisoned.
        member: usize,
        /// Iteration at which the sweep caught the poison (0 = the
        /// initialisation round).
        iteration: usize,
        /// The poisoned scoring objective, or `None` when the poison sat
        /// in a torsion / closure-deviation / observable lane instead.
        objective: Option<Objective>,
    },
}

impl Error {
    /// Whether the engine's supervisor may re-run the job with the same
    /// seed under its [`RetryPolicy`](crate::RetryPolicy) (see the
    /// failure-taxonomy table on [`Error`]).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::JobPanicked { .. } | Error::Stalled { .. } | Error::NumericalFault { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => write!(f, "invalid configuration: {e}"),
            Error::Cancelled {
                completed_iterations,
            } => write!(f, "job cancelled after {completed_iterations} iterations"),
            Error::JobPanicked { label, detail } => {
                if label.is_empty() {
                    write!(f, "job panicked: {detail}")
                } else {
                    write!(f, "job '{label}' panicked: {detail}")
                }
            }
            Error::DeadlineExceeded {
                limit,
                completed_iterations,
            } => write!(
                f,
                "job exceeded its {limit:?} deadline after {completed_iterations} iterations"
            ),
            Error::Stalled {
                streak,
                limit,
                completed_iterations,
            } => write!(
                f,
                "job stalled: {streak} consecutive iterations without a converged closure \
                 (limit {limit}) after {completed_iterations} iterations"
            ),
            Error::NumericalFault {
                member,
                iteration,
                objective,
            } => match objective {
                Some(o) => write!(
                    f,
                    "non-finite {} score for member {member} at iteration {iteration}",
                    o.name()
                ),
                None => write!(
                    f,
                    "non-finite torsion/closure lane for member {member} at iteration {iteration}"
                ),
            },
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offending_values() {
        let e = ConfigError::ComplexesExceedPopulation {
            n_complexes: 9,
            population_size: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let c = Error::Cancelled {
            completed_iterations: 3,
        };
        assert!(c.to_string().contains('3'));
    }

    #[test]
    fn config_errors_nest_as_error_sources() {
        let e: Error = ConfigError::ZeroPopulation.into();
        assert!(matches!(e, Error::Config(ConfigError::ZeroPopulation)));
        assert!(e.source().is_some());
    }

    #[test]
    fn executor_config_errors_nest_with_their_source() {
        let e: ConfigError = lms_simt::ExecutorConfigError::ZeroCcdBlockWidth.into();
        assert!(matches!(
            e,
            ConfigError::InvalidExecutor(lms_simt::ExecutorConfigError::ZeroCcdBlockWidth)
        ));
        assert!(e.to_string().contains("executor"));
        assert!(e.source().is_some());
    }

    #[test]
    fn retryable_classification_matches_the_taxonomy_table() {
        assert!(!Error::Config(ConfigError::ZeroPopulation).is_retryable());
        assert!(!Error::Cancelled {
            completed_iterations: 1
        }
        .is_retryable());
        assert!(!Error::DeadlineExceeded {
            limit: Duration::from_secs(1),
            completed_iterations: 2
        }
        .is_retryable());
        assert!(Error::JobPanicked {
            label: "job".into(),
            detail: "boom".into()
        }
        .is_retryable());
        assert!(Error::Stalled {
            streak: 4,
            limit: 3,
            completed_iterations: 5
        }
        .is_retryable());
        assert!(Error::NumericalFault {
            member: 0,
            iteration: 1,
            objective: Some(Objective::Vdw)
        }
        .is_retryable());
    }

    #[test]
    fn fault_displays_name_the_site() {
        let e = Error::NumericalFault {
            member: 7,
            iteration: 3,
            objective: Some(Objective::Dist),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("DIST") && msg.contains('7') && msg.contains('3'),
            "{msg}"
        );
        let p = Error::JobPanicked {
            label: "1cex#2".into(),
            detail: "injected".into(),
        };
        assert!(p.to_string().contains("1cex#2"));
        let d = Error::DeadlineExceeded {
            limit: Duration::from_millis(5),
            completed_iterations: 2,
        };
        assert!(d.to_string().contains("deadline"));
        let s = Error::Stalled {
            streak: 4,
            limit: 3,
            completed_iterations: 9,
        };
        assert!(s.to_string().contains("stalled"));
    }
}
