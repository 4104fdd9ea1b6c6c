//! CI perf-regression gate over the bench artifacts.
//!
//! Pairs every `BENCH_<x>.baseline.json` at the workspace root with
//! `BENCH_<x>.json` in the fresh directory (the workspace root unless
//! given) and runs the gate of [`lms_bench::regression`] over each pair:
//! exits non-zero when a gated ratio regresses more than the noise
//! tolerance (`regression::TOLERANCE`, 25%), a bound row breaks its bound,
//! or a gated row is missing on either side.  Each gated row prints its
//! floor (the value it would fail at) and its headroom above it; a passing
//! row within 10% of its floor is marked `NEAR FLOOR`, which never changes
//! the verdict.
//!
//! ```text
//! cargo run -p lms-bench --bin check_regression -- [--fresh-dir DIR]
//! ```

use lms_bench::artifact::Artifact;
use lms_bench::regression::{compare, NEAR_FLOOR, TOLERANCE};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// The fresh directory: `--fresh-dir DIR`, or the workspace root.
fn fresh_dir() -> Result<PathBuf, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => Ok(workspace_root()),
        [flag, dir] if flag == "--fresh-dir" => Ok(PathBuf::from(dir)),
        _ => Err(format!(
            "usage: check_regression [--fresh-dir DIR], got {args:?}"
        )),
    }
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
    let fresh_dir = fresh_dir()?;
    let baseline_dir = workspace_root();
    let mut report = Vec::new();
    for stem in baseline_stems(&baseline_dir)? {
        let baseline = load(&baseline_dir.join(format!("BENCH_{stem}.baseline.json")))?;
        let fresh = load(&fresh_dir.join(format!("BENCH_{stem}.json")))?;
        report.push((stem, compare(&baseline, &fresh)?));
    }

    let gated: usize = report.iter().map(|(_, c)| c.len()).sum();
    println!(
        "perf-regression gate: {gated} gated metrics, tolerance {:.0}%",
        TOLERANCE * 100.0
    );
    let mut regressions = 0;
    for (stem, comparisons) in &report {
        println!("  BENCH_{stem}.json");
        for c in comparisons {
            let headroom = c.headroom();
            let flag = if c.regressed() {
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
                c.floor(),
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
