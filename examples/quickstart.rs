//! Quickstart: build the engine, submit one loop-modeling job, and print
//! the Pareto front and the best decoy found.
//!
//! Run with: `cargo run --release --example quickstart`

use lms::prelude::*;

fn main() -> Result<(), Error> {
    // 1. Pick a target from the synthetic 53-loop benchmark (the paper's
    //    1cex 40:51, a 12-residue loop).
    let library = BenchmarkLibrary::standard();
    let target = library
        .target_by_name("1cex")
        .expect("1cex is in the benchmark");
    println!("Target: {target}");

    // 2. Build the engine over the knowledge base behind the TRIPLET and
    //    DIST potentials.  (`fast()` keeps this example snappy; use
    //    `default()` for real runs.)
    let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
    let engine = LoopModelingEngine::builder(kb)
        .executor(ExecutorConfig::parallel())
        .build()?;

    // 3. Configure a small sampling trajectory and run it as one job.
    let config = SamplerConfig::builder()
        .population_size(128)
        .n_complexes(2)
        .iterations(12)
        .seed(42)
        .snapshot_iterations(vec![0, 12])
        .build()?;
    let job = Job::builder(target).config(config).build()?;
    let result = engine.run(job)?;

    // 4. Report what the trajectory found.
    let [ccd, scoring, fitness, other] = result.stages.components().fractions();
    println!(
        "\nfinished in {:.2?} (stage wall: CCD {:.0}%, scoring {:.0}%, fitness {:.0}%, other {:.0}%)",
        result.host_wall,
        ccd * 100.0,
        scoring * 100.0,
        fitness * 100.0,
        other * 100.0,
    );
    println!(
        "non-dominated conformations: {} of {}",
        result.non_dominated_count(),
        result.population.len()
    );
    println!("best backbone RMSD to native: {:.2} A", result.best_rmsd());
    println!("acceptance rate: {:.2}", result.acceptance_rate);

    let start = &result.snapshots[0];
    let end = &result.snapshots[result.snapshots.len() - 1];
    println!(
        "front grew from {} (random start) to {} conformations; best RMSD improved {:.2} -> {:.2} A",
        start.non_dominated_count, end.non_dominated_count, start.best_rmsd, end.best_rmsd
    );
    Ok(())
}
