//! Harness binary regenerating the paper's fig1 cpu profile experiment.
//!
//! Besides the component shares, the report lists the trajectory's measured
//! stage record: launch count and summed launch wall time of every stage
//! (`mutate`/`close`/`rebuild`/`score`/`metropolis`/`select`/`health`).
//!
//! Usage: `cargo run --release -p lms-bench --bin fig1_cpu_profile [--scale quick|standard|paper]`

fn main() {
    let scale = lms_bench::Scale::from_args();
    println!("scale: {scale:?}");
    println!("{}", lms_bench::experiments::fig1_cpu_profile(scale));
}
