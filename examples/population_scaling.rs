//! Population-size study (the workload behind the paper's Figure 3): run
//! several independent trajectories of 1akz(181:192) at increasing
//! population sizes and report how the number of distinct non-dominated
//! conformations and the best-decoy RMSD respond.  The independent
//! trajectories at each population size are submitted to the engine as one
//! batch, so they run concurrently.
//!
//! Run with: `cargo run --release --example population_scaling`

use lms::prelude::*;

fn main() -> Result<(), Error> {
    let target = BenchmarkLibrary::standard()
        .target_by_name("1akz")
        .expect("1akz exists");
    let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
    let engine = LoopModelingEngine::builder(kb)
        .executor(ExecutorConfig::parallel())
        .build()?;
    let trajectories = 4u64;

    println!("target: {target}");
    println!(
        "{:<12} {:>26} {:>12} {:>12} {:>12}",
        "population", "avg distinct non-dominated", "min RMSD", "avg RMSD", "max RMSD"
    );
    for population in [32usize, 96, 256] {
        let config = SamplerConfig::builder()
            .population_size(population)
            .n_complexes((population / 32).max(1))
            .iterations(10)
            .seed(7)
            .build()?;
        // One job per independent trajectory, all in flight at once.
        let jobs: Vec<Job> = (0..trajectories)
            .map(|t| {
                Job::builder(target.clone())
                    .config(config.clone())
                    .seed(100 + t)
                    .label(format!("1akz/pop{population}/traj{t}"))
                    .build()
            })
            .collect::<Result<_, _>>()?;
        let results: Vec<TrajectoryResult> = engine
            .submit(jobs)
            .join()
            .into_iter()
            .map(|job| job.outcome)
            .collect::<Result<_, _>>()?;
        let stats =
            ensemble_stats(&results, config.distinct_threshold_deg).expect("trajectories ran");
        println!(
            "{:<12} {:>26.1} {:>11.2}A {:>11.2}A {:>11.2}A",
            population,
            stats.avg_distinct_non_dominated,
            stats.best_rmsd.min,
            stats.best_rmsd.mean,
            stats.best_rmsd.max
        );
    }
    println!("\nAs in the paper's Figure 3, larger populations sustain more structurally");
    println!("distinct non-dominated conformations and reach lower best-decoy RMSD.");
    Ok(())
}
