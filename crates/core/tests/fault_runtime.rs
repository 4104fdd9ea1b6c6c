//! Deterministic fault-injection coverage (requires `--features
//! fault-injection`): every pipeline stage survives an injected panic,
//! NaN or stall as the *correct typed error* (or a clean recovery), the
//! supervisor's same-seed retries are bit-identical to unfaulted runs,
//! and a faulted job can never corrupt its batch siblings.

#![cfg(feature = "fault-injection")]

use lms_core::{
    Conformation, Error, Job, JobLimits, JobResult, LoopModelingEngine, NumericGuard, RetryPolicy,
    SamplerConfig,
};
use lms_protein::{BenchmarkLibrary, LoopTarget};
use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, Objective};
use lms_simt::{FaultKind, FaultPlan, KernelKind};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn fast_kb() -> Arc<KnowledgeBase> {
    KnowledgeBase::build(KnowledgeBaseConfig::fast())
}

fn target() -> LoopTarget {
    BenchmarkLibrary::standard().target_by_name("1cex").unwrap()
}

fn tiny_builder(iterations: usize) -> lms_core::SamplerConfigBuilder {
    SamplerConfig::builder()
        .population_size(8)
        .n_complexes(2)
        .iterations(iterations)
        .snapshot_iterations(Vec::new())
}

fn tiny(iterations: usize) -> SamplerConfig {
    tiny_builder(iterations).build().unwrap()
}

fn engine_with(policy: RetryPolicy) -> LoopModelingEngine {
    LoopModelingEngine::builder(fast_kb())
        .concurrency(1)
        .retry_policy(policy)
        .build()
        .unwrap()
}

fn run_single(engine: &LoopModelingEngine, job: Job) -> JobResult {
    engine.submit([job]).join().remove(0)
}

fn zero_backoff(max_attempts: usize) -> RetryPolicy {
    RetryPolicy::with_max_attempts(max_attempts).backoff(Duration::ZERO, Duration::ZERO)
}

/// Launch index 0 exists for every kernel the staged pipeline launches:
/// init for the sample/close/rebuild/score/health kernels, iteration 1
/// for the complex fitness table, Metropolis and Select.
const STAGED_KINDS: [KernelKind; 11] = [
    KernelKind::Ccd,
    KernelKind::EvalDist,
    KernelKind::EvalVdw,
    KernelKind::EvalTrip,
    KernelKind::FitAssgPopulation,
    KernelKind::FitAssgComplex,
    KernelKind::Reproduction,
    KernelKind::Metropolis,
    KernelKind::Rebuild,
    KernelKind::Select,
    KernelKind::HealthSweep,
];

#[test]
fn an_injected_panic_in_any_stage_surfaces_as_a_labelled_job_panic() {
    let engine = engine_with(RetryPolicy::no_retries());
    for kind in STAGED_KINDS {
        let label = format!("faulty-{}", kind.name());
        let job = Job::builder(target())
            .config(tiny(2))
            .seed(7)
            .label(label.clone())
            .fault_plan(FaultPlan::new().inject(kind, 0, 0, FaultKind::Panic))
            .build()
            .unwrap();
        let result = run_single(&engine, job);
        match &result.outcome {
            Err(Error::JobPanicked { label: got, detail }) => {
                assert_eq!(got, &label);
                assert!(
                    detail.contains(kind.name()),
                    "panic detail {detail:?} should name the stage {}",
                    kind.name()
                );
            }
            other => panic!("{}: expected JobPanicked, got {other:?}", kind.name()),
        }
        // The supervisor recorded the (unretried) failure.
        assert_eq!(result.attempts.len(), 1);
        assert!(result.attempts[0].error.is_retryable());
    }
}

#[test]
fn a_nan_injected_into_a_score_kernel_fails_naming_the_poisoned_objective() {
    let engine = engine_with(RetryPolicy::no_retries());

    // Launch 1 of a score kernel is iteration 1's evaluation.
    let mid_run = Job::builder(target())
        .config(tiny(2))
        .seed(7)
        .fault_plan(FaultPlan::new().inject(KernelKind::EvalDist, 1, 1, FaultKind::Nan))
        .build()
        .unwrap();
    let err = run_single(&engine, mid_run).outcome.unwrap_err();
    assert_eq!(
        err,
        Error::NumericalFault {
            member: 1,
            iteration: 1,
            objective: Some(Objective::Dist),
        }
    );
    assert!(err.is_retryable());

    // Launch 0 poisons the initial scoring pass.
    let at_init = Job::builder(target())
        .config(tiny(2))
        .seed(7)
        .fault_plan(FaultPlan::new().inject(KernelKind::EvalVdw, 0, 3, FaultKind::Nan))
        .build()
        .unwrap();
    assert_eq!(
        run_single(&engine, at_init).outcome.unwrap_err(),
        Error::NumericalFault {
            member: 3,
            iteration: 0,
            objective: Some(Objective::Vdw),
        }
    );
}

#[test]
fn nan_in_mutate_close_and_rebuild_stages_is_policed_by_the_health_sweep() {
    let engine = engine_with(RetryPolicy::no_retries());

    // Rebuild launches exactly once at init, so launch 1 is iteration 1:
    // a poisoned RMSD observable (no objective to blame).
    let rebuild = Job::builder(target())
        .config(tiny(2))
        .seed(7)
        .fault_plan(FaultPlan::new().inject(KernelKind::Rebuild, 1, 5, FaultKind::Nan))
        .build()
        .unwrap();
    assert_eq!(
        run_single(&engine, rebuild).outcome.unwrap_err(),
        Error::NumericalFault {
            member: 5,
            iteration: 1,
            objective: None,
        }
    );

    // Init draws at most four masked sample/close rounds, so launch 4 of
    // the Reproduction / Ccd kernels is always an MCMC iteration's stage.
    // A NaN torsion out of the mutate stage builds a NaN structure that
    // closure and scoring carry through to the health sweep
    // (NumericalFault, retryable), and a same-seed retry recovers
    // bit-identically (the fault session's launch counters are already
    // past the armed site).
    let retrying = engine_with(zero_backoff(2));
    let clean = run_single(
        &retrying,
        Job::builder(target())
            .config(tiny(5))
            .seed(7)
            .build()
            .unwrap(),
    )
    .outcome
    .unwrap()
    .population;
    let mutate = Job::builder(target())
        .config(tiny(5))
        .seed(7)
        .fault_plan(FaultPlan::new().inject(KernelKind::Reproduction, 4, 2, FaultKind::Nan))
        .build()
        .unwrap();
    let result = run_single(&retrying, mutate);
    assert_eq!(result.attempts.len(), 1);
    assert!(
        matches!(
            result.attempts[0].error,
            Error::NumericalFault { member: 2, .. }
        ),
        "unexpected classification: {:?}",
        result.attempts[0].error
    );
    assert_eq!(
        result.outcome.expect("the retry recovers").population,
        clean
    );

    // A NaN closure-deviation readback (CCD lane = block, block 0 holds
    // member 0) is caught even though `NaN > bound` is false and it would
    // sail through the Metropolis closure gate.
    let close = Job::builder(target())
        .config(tiny(5))
        .seed(7)
        .fault_plan(FaultPlan::new().inject(KernelKind::Ccd, 4, 0, FaultKind::Nan))
        .build()
        .unwrap();
    match run_single(&engine, close).outcome.unwrap_err() {
        Error::NumericalFault {
            member, objective, ..
        } => {
            assert_eq!(member, 0);
            assert_eq!(objective, None);
        }
        other => panic!("expected NumericalFault, got {other:?}"),
    }
}

#[test]
fn quarantine_policy_recovers_from_injected_nans() {
    let engine = engine_with(RetryPolicy::no_retries());
    let plans = [
        // Mid-run: the poisoned candidate is force-rejected.
        FaultPlan::new().inject(KernelKind::EvalDist, 1, 1, FaultKind::Nan),
        // At init: the poisoned member is re-seeded from a healthy donor.
        FaultPlan::new().inject(KernelKind::EvalVdw, 0, 3, FaultKind::Nan),
    ];
    for plan in plans {
        let cfg = tiny_builder(2)
            .numeric_guard(NumericGuard::Quarantine)
            .build()
            .unwrap();
        let job = Job::builder(target())
            .config(cfg)
            .seed(7)
            .fault_plan(plan)
            .build()
            .unwrap();
        let result = run_single(&engine, job);
        assert!(result.attempts.is_empty(), "quarantine is not a failure");
        let trajectory = result.outcome.expect("quarantine recovers in-place");
        assert!(trajectory
            .population
            .iter()
            .all(|c| c.scores.is_finite() && c.torsions.as_slice().iter().all(|t| t.is_finite())));
    }
}

#[test]
fn fault_sites_key_identically_across_executor_backends() {
    // Fault sites are keyed by (kernel kind, launch index, logical lane) —
    // coordinates of the *computation*, not of the backend that runs it.
    // The same plan must therefore hit the same member on every backend
    // and produce bit-identical quarantine recoveries.
    let plans = [
        FaultPlan::new().inject(KernelKind::EvalDist, 1, 1, FaultKind::Nan),
        FaultPlan::new().inject(KernelKind::Ccd, 0, 0, FaultKind::Nan),
    ];
    let executor_configs = [
        lms_simt::ExecutorConfig::scalar(),
        lms_simt::ExecutorConfig::parallel().threads(2),
    ];
    for plan in plans {
        let mut baseline: Option<Vec<Conformation>> = None;
        for exec_cfg in &executor_configs {
            let engine = LoopModelingEngine::builder(fast_kb())
                .concurrency(1)
                .executor(*exec_cfg)
                .build()
                .unwrap();
            let cfg = tiny_builder(2)
                .numeric_guard(NumericGuard::Quarantine)
                .build()
                .unwrap();
            let job = Job::builder(target())
                .config(cfg)
                .seed(13)
                .fault_plan(plan.clone())
                .build()
                .unwrap();
            let result = run_single(&engine, job);
            let backend = result.capabilities.name;
            let population = result
                .outcome
                .unwrap_or_else(|e| panic!("quarantine recovers on {backend}: {e}"))
                .population;
            match &baseline {
                None => baseline = Some(population),
                Some(reference) => {
                    for (i, (a, b)) in population.iter().zip(reference.iter()).enumerate() {
                        assert_eq!(
                            a.torsions, b.torsions,
                            "member {i} torsions diverge on {backend}"
                        );
                        assert_eq!(a.scores, b.scores, "member {i} scores diverge on {backend}");
                    }
                }
            }
        }
    }
}

#[test]
fn an_injected_stall_trips_the_wallclock_deadline() {
    let engine = engine_with(RetryPolicy::no_retries());
    let cfg = tiny_builder(2)
        .limits(JobLimits::none().with_deadline(Duration::from_millis(250)))
        .build()
        .unwrap();
    let job = Job::builder(target())
        .config(cfg)
        .seed(7)
        .fault_plan(FaultPlan::new().inject(
            KernelKind::Ccd,
            0,
            0,
            FaultKind::Stall(Duration::from_millis(500)),
        ))
        .build()
        .unwrap();
    let result = run_single(&engine, job);
    assert_eq!(
        result.outcome.unwrap_err(),
        Error::DeadlineExceeded {
            limit: Duration::from_millis(250),
            completed_iterations: 0,
        }
    );
    assert_eq!(result.attempts.len(), 1, "deadlines are terminal");
}

#[test]
fn a_same_seed_retry_after_a_transient_panic_is_bit_identical_to_an_unfaulted_run() {
    let engine = engine_with(zero_backoff(2));
    let clean = run_single(
        &engine,
        Job::builder(target())
            .config(tiny(2))
            .seed(42)
            .build()
            .unwrap(),
    )
    .outcome
    .unwrap()
    .population;

    // The fault session spans the whole job, so the attempt-1 launch
    // counters are already past index 0 when the retry begins: the fault
    // behaves like a transient and the rerun sails past it.
    let job = Job::builder(target())
        .config(tiny(2))
        .seed(42)
        .fault_plan(FaultPlan::new().inject(KernelKind::EvalVdw, 0, 0, FaultKind::Panic))
        .build()
        .unwrap();
    let result = run_single(&engine, job);
    assert_eq!(result.attempts.len(), 1);
    assert!(matches!(
        result.attempts[0].error,
        Error::JobPanicked { .. }
    ));
    let retried = result.outcome.expect("the retry recovers").population;
    assert_eq!(retried, clean);
}

#[test]
fn a_nan_fired_into_a_non_float_stage_is_inert() {
    let engine = engine_with(RetryPolicy::no_retries());
    let clean = run_single(
        &engine,
        Job::builder(target())
            .config(tiny(2))
            .seed(9)
            .build()
            .unwrap(),
    )
    .outcome
    .unwrap()
    .population;

    // Metropolis/Select/fitness have no cooperative NaN hook; the
    // executor clears the unconsumed flag so it cannot leak into the
    // next lane scheduled on the same worker.
    let plan = FaultPlan::new()
        .inject(KernelKind::Metropolis, 0, 0, FaultKind::Nan)
        .inject(KernelKind::Select, 0, 1, FaultKind::Nan)
        .inject(KernelKind::FitAssgPopulation, 0, 2, FaultKind::Nan);
    let job = Job::builder(target())
        .config(tiny(2))
        .seed(9)
        .fault_plan(plan)
        .build()
        .unwrap();
    let result = run_single(&engine, job);
    assert!(result.attempts.is_empty());
    assert_eq!(result.outcome.unwrap().population, clean);
}

const SIBLING_SEEDS: [u64; 2] = [101, 202];

/// Unfaulted baseline populations for the sibling-isolation property,
/// computed once per test process.
fn sibling_baselines() -> &'static [Vec<Conformation>; 2] {
    static BASELINES: OnceLock<[Vec<Conformation>; 2]> = OnceLock::new();
    BASELINES.get_or_init(|| {
        let engine = engine_with(RetryPolicy::no_retries());
        SIBLING_SEEDS.map(|seed| {
            run_single(
                &engine,
                Job::builder(target())
                    .config(tiny(2))
                    .seed(seed)
                    .build()
                    .unwrap(),
            )
            .outcome
            .unwrap()
            .population
        })
    })
}

/// A seeded plan injected into one job of a batch — whatever stage,
/// launch or lane it hits — either recovers or fails with a typed error,
/// and never perturbs the sibling jobs' trajectories.  (Plain function
/// body; the `proptest!` block below only forwards to it.)
fn check_faulted_job_never_corrupts_its_siblings(fault_seed: u64) {
    let plan = FaultPlan::seeded(fault_seed, 3, &STAGED_KINDS, 4, 8);
    let engine = LoopModelingEngine::builder(fast_kb())
        .concurrency(2)
        .retry_policy(zero_backoff(2))
        .build()
        .unwrap();
    let jobs = vec![
        Job::builder(target())
            .config(tiny(2))
            .seed(SIBLING_SEEDS[0])
            .label("a")
            .build()
            .unwrap(),
        Job::builder(target())
            .config(tiny(2))
            .seed(555)
            .label("faulty")
            .fault_plan(plan)
            .build()
            .unwrap(),
        Job::builder(target())
            .config(tiny(2))
            .seed(SIBLING_SEEDS[1])
            .label("c")
            .build()
            .unwrap(),
    ];
    let results = engine.submit(jobs).join();
    let baselines = sibling_baselines();
    for result in &results {
        match result.label.as_str() {
            "a" | "c" => {
                let baseline = if result.label == "a" {
                    &baselines[0]
                } else {
                    &baselines[1]
                };
                assert!(result.attempts.is_empty());
                match &result.outcome {
                    Ok(t) => assert_eq!(&t.population, baseline),
                    Err(e) => panic!("sibling failed: {e:?}"),
                }
            }
            "faulty" => {
                // Recovered, or dead of a *typed, classified* fault —
                // never a mis-filed config/cancel error.
                if let Err(e) = &result.outcome {
                    assert!(
                        matches!(
                            e,
                            Error::JobPanicked { .. }
                                | Error::NumericalFault { .. }
                                | Error::Stalled { .. }
                                | Error::DeadlineExceeded { .. }
                        ),
                        "unexpected classification: {e:?}"
                    );
                }
            }
            other => panic!("unknown label {other}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn a_faulted_job_never_corrupts_its_siblings(fault_seed in 0usize..usize::MAX) {
        check_faulted_job_never_corrupts_its_siblings(fault_seed as u64);
    }
}
