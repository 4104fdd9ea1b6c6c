//! Feature-off robustness: [`JobLimits`] enforcement (wall-clock deadline,
//! iteration budget, closure-stall streak) and the engine supervisor's
//! terminal-vs-retryable classification — no fault injection involved.

use lms_closure::CcdConfig;
use lms_core::{
    ConfigError, Error, Job, JobLimits, LoopModelingEngine, MoscemSampler, RetryPolicy,
    RunControls, SamplerConfig,
};
use lms_protein::{BenchmarkLibrary, LoopTarget};
use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, ScratchPool};
use lms_simt::ExecutorConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fast_kb() -> Arc<KnowledgeBase> {
    KnowledgeBase::build(KnowledgeBaseConfig::fast())
}

fn target() -> LoopTarget {
    BenchmarkLibrary::standard().target_by_name("1cex").unwrap()
}

fn tiny_builder() -> lms_core::SamplerConfigBuilder {
    SamplerConfig::builder()
        .population_size(8)
        .n_complexes(2)
        .iterations(3)
        .snapshot_iterations(Vec::new())
}

/// A config whose CCD can never converge (zero tolerance): every iteration
/// counts toward the stall streak.
fn stall_config(limit: usize) -> SamplerConfig {
    tiny_builder()
        .iterations(4)
        .ccd(CcdConfig::new().with_tolerance(0.0))
        .limits(JobLimits::none().with_max_closure_stall(limit))
        .build()
        .unwrap()
}

#[test]
fn an_already_spent_deadline_fires_before_initialisation() {
    let cfg = tiny_builder()
        .limits(JobLimits::none().with_deadline(Duration::from_nanos(1)))
        .build()
        .unwrap();
    let sampler = MoscemSampler::new(target(), fast_kb(), cfg);
    let err = sampler
        .run_controlled(
            &ExecutorConfig::scalar().build().unwrap(),
            7,
            &RunControls::new(),
        )
        .unwrap_err();
    assert_eq!(
        err,
        Error::DeadlineExceeded {
            limit: Duration::from_nanos(1),
            completed_iterations: 0,
        }
    );
    assert!(!err.is_retryable(), "deadlines are terminal");
}

#[test]
fn stall_guard_fires_after_the_configured_streak() {
    let limit = 2;
    let sampler = MoscemSampler::new(target(), fast_kb(), stall_config(limit));
    let err = sampler
        .run_controlled(
            &ExecutorConfig::scalar().build().unwrap(),
            11,
            &RunControls::new(),
        )
        .unwrap_err();
    assert_eq!(
        err,
        Error::Stalled {
            streak: limit,
            limit,
            completed_iterations: limit - 1,
        }
    );
    assert!(err.is_retryable(), "stalls can be environmental");
}

#[test]
fn every_early_exit_returns_the_leased_scratches() {
    // Each run stops after its arena has leased one scoring scratch per
    // member from the pool; every exit must hand all of them back.
    let executor = ExecutorConfig::scalar().build().unwrap();
    let run = |cfg: SamplerConfig, controls: RunControls| {
        MoscemSampler::new(target(), fast_kb(), cfg)
            .run_controlled(&executor, 7, &controls)
            .unwrap_err()
    };

    // Cancelled as soon as initialisation reports.
    let pool = ScratchPool::new();
    let cancel = AtomicBool::new(false);
    let raise = |_: usize, _: usize| cancel.store(true, Ordering::Relaxed);
    let controls = RunControls::new()
        .cancel_flag(&cancel)
        .progress(&raise)
        .scratch_pool(&pool);
    let err = run(tiny_builder().build().unwrap(), controls);
    assert_eq!(
        err,
        Error::Cancelled {
            completed_iterations: 0
        }
    );
    assert_eq!(pool.idle_count(), 8);

    // A deadline that passes during initialisation: the progress callback
    // outlasts it, so it fires at the first iteration boundary.
    let limit = Duration::from_millis(200);
    let pool = ScratchPool::new();
    let outlast = |_: usize, _: usize| std::thread::sleep(limit);
    let cfg = tiny_builder()
        .limits(JobLimits::none().with_deadline(limit))
        .build()
        .unwrap();
    let controls = RunControls::new().progress(&outlast).scratch_pool(&pool);
    let err = run(cfg, controls);
    assert_eq!(
        err,
        Error::DeadlineExceeded {
            limit,
            completed_iterations: 0
        }
    );
    assert_eq!(pool.idle_count(), 8);

    // A closure stall.
    let pool = ScratchPool::new();
    let err = run(stall_config(2), RunControls::new().scratch_pool(&pool));
    assert!(matches!(err, Error::Stalled { .. }), "{err:?}");
    assert_eq!(pool.idle_count(), 8);
}

#[test]
fn limit_validation_rejects_degenerate_budgets() {
    let zero_deadline = tiny_builder()
        .limits(JobLimits::none().with_deadline(Duration::ZERO))
        .build()
        .unwrap_err();
    assert_eq!(zero_deadline, ConfigError::ZeroDeadline);

    let over_budget = tiny_builder()
        .iterations(10)
        .limits(JobLimits::none().with_max_iterations(5))
        .build()
        .unwrap_err();
    assert_eq!(
        over_budget,
        ConfigError::IterationBudgetExceeded {
            iterations: 10,
            budget: 5,
        }
    );

    let zero_stall = tiny_builder()
        .limits(JobLimits::none().with_max_closure_stall(0))
        .build()
        .unwrap_err();
    assert_eq!(zero_stall, ConfigError::ZeroStallLimit);

    // A sufficient budget passes and is inert at runtime.
    let ok = tiny_builder()
        .iterations(2)
        .limits(JobLimits::none().with_max_iterations(2))
        .build()
        .unwrap();
    assert!(ok.limits.is_limited());
    let result = MoscemSampler::new(target(), fast_kb(), ok)
        .run_with_seed(&ExecutorConfig::scalar().build().unwrap(), 5);
    assert_eq!(result.population.len(), 8);
}

#[test]
fn supervisor_does_not_retry_terminal_failures() {
    let engine = LoopModelingEngine::builder(fast_kb())
        .concurrency(1)
        .retry_policy(RetryPolicy::with_max_attempts(3).backoff(Duration::ZERO, Duration::ZERO))
        .build()
        .unwrap();
    let cfg = tiny_builder()
        .limits(JobLimits::none().with_deadline(Duration::from_nanos(1)))
        .build()
        .unwrap();
    let job = Job::builder(target()).config(cfg).seed(3).build().unwrap();
    let results = engine.submit(vec![job]).join();
    let result = &results[0];
    assert!(matches!(
        result.outcome,
        Err(Error::DeadlineExceeded { .. })
    ));
    // Terminal failure: exactly one attempt, recorded with zero backoff.
    assert_eq!(result.attempts.len(), 1);
    assert_eq!(result.attempts[0].attempt, 1);
    assert_eq!(result.attempts[0].backoff, Duration::ZERO);
}

#[test]
fn supervisor_retries_a_deterministic_stall_to_the_attempt_budget() {
    let engine = LoopModelingEngine::builder(fast_kb())
        .concurrency(1)
        .retry_policy(RetryPolicy::with_max_attempts(3).backoff(Duration::ZERO, Duration::ZERO))
        .build()
        .unwrap();
    let job = Job::builder(target())
        .config(stall_config(1))
        .seed(3)
        .build()
        .unwrap();
    let results = engine.submit(vec![job]).join();
    let result = &results[0];
    assert!(matches!(result.outcome, Err(Error::Stalled { .. })));
    // Same seed, deterministic fault: every attempt fails the same way
    // until the budget is spent.
    assert_eq!(result.attempts.len(), 3);
    assert!(result
        .attempts
        .iter()
        .all(|a| matches!(a.error, Error::Stalled { .. })));
    assert_eq!(result.attempts.last().unwrap().backoff, Duration::ZERO);
}
