//! Harness binary regenerating the paper's table2 kernel profile experiment.
//!
//! The modeled GPU columns are derived after the run from the trajectory's
//! measured stage record (`lms_bench::profiler`); the host column is each
//! stage's summed launch wall time.
//!
//! Usage: `cargo run --release -p lms-bench --bin table2_kernel_profile [--scale quick|standard|paper]`

fn main() {
    let scale = lms_bench::Scale::from_args();
    println!("scale: {scale:?}");
    println!("{}", lms_bench::experiments::table2_kernel_profile(scale));
}
