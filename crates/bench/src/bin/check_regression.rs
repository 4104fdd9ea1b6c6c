//! CI perf-regression gate over the bench artifacts.
//!
//! Pairs every `BENCH_<x>.baseline.json` in the baseline directory with
//! `BENCH_<x>.json` in the fresh directory and runs the gate of
//! [`lms_bench::regression`] over each pair: exits non-zero when a gated
//! ratio regresses more than the noise tolerance (default 25%), a bound
//! row breaks its bound, or a gated row is missing on either side.  Each
//! gated row prints its floor (the value it would fail at) and its
//! headroom above it; a passing row within 10% of its floor is marked
//! `NEAR FLOOR`, which never changes the verdict.
//!
//! ```text
//! cargo run -p lms-bench --bin check_regression -- \
//!     [--tolerance 0.25] [--baseline-dir DIR] [--fresh-dir DIR]
//! ```

use lms_bench::artifact::Artifact;
use lms_bench::regression::{compare, NEAR_FLOOR};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    tolerance: f64,
    baseline_dir: PathBuf,
    fresh_dir: PathBuf,
}

fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn parse_options() -> Result<Options, String> {
    let root = workspace_root();
    let mut opts = Options {
        tolerance: 0.25,
        baseline_dir: root.clone(),
        fresh_dir: root,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--tolerance" => {
                opts.tolerance = value(i)?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                i += 2;
            }
            "--baseline-dir" => {
                opts.baseline_dir = PathBuf::from(value(i)?);
                i += 2;
            }
            "--fresh-dir" => {
                opts.fresh_dir = PathBuf::from(value(i)?);
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn load(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Artifact::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// The `<x>` of every `BENCH_<x>.baseline.json` in `dir`, sorted.
fn baseline_stems(dir: &Path) -> Result<Vec<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut stems: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|name| {
            let stem = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".baseline.json")?;
            Some(stem.to_string())
        })
        .collect();
    if stems.is_empty() {
        return Err(format!("no BENCH_*.baseline.json in {}", dir.display()));
    }
    stems.sort();
    Ok(stems)
}

fn run() -> Result<bool, String> {
    let opts = parse_options()?;
    let mut report = Vec::new();
    for stem in baseline_stems(&opts.baseline_dir)? {
        let baseline = load(
            &opts
                .baseline_dir
                .join(format!("BENCH_{stem}.baseline.json")),
        )?;
        let fresh = load(&opts.fresh_dir.join(format!("BENCH_{stem}.json")))?;
        report.push((stem, compare(&baseline, &fresh)?));
    }

    let gated: usize = report.iter().map(|(_, c)| c.len()).sum();
    println!(
        "perf-regression gate: {gated} gated metrics, tolerance {:.0}%",
        opts.tolerance * 100.0
    );
    let mut regressions = 0;
    for (stem, comparisons) in &report {
        println!("  BENCH_{stem}.json");
        for c in comparisons {
            let headroom = c.headroom(opts.tolerance);
            let flag = if c.regressed(opts.tolerance) {
                regressions += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            let near = if (0.0..NEAR_FLOOR).contains(&headroom) {
                "  NEAR FLOOR"
            } else {
                ""
            };
            println!(
                "  [{flag:>9}] {c}  floor {:>8.3}  headroom {:>+6.1}%{near}",
                c.floor(opts.tolerance),
                headroom * 100.0
            );
        }
    }
    if regressions == 0 {
        println!("gate PASSED");
        Ok(true)
    } else {
        println!("gate FAILED: {regressions} regression(s)");
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("check_regression error: {e}");
            ExitCode::FAILURE
        }
    }
}
