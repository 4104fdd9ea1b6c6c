//! The CI perf-regression gate: compares a freshly produced `BENCH_*.json`
//! artifact against its committed `BENCH_*.baseline.json` snapshot, one
//! loop over the metric rows matched by name (see [`crate::artifact`] for
//! the row schema).
//!
//! A row is gated when either side marks it `ratio` or `bound`:
//!
//! * a gated row must exist on both sides — a baseline row the fresh run
//!   lost and a fresh row the baseline never snapshotted are both errors,
//!   so no tracked number can drop out of (or stay outside) the gate;
//! * if either side's row is `bound`, the fresh value is held to that
//!   absolute bound (the health sweep's 3% ceiling, the batch engine's
//!   scheduler-overhead floor on a 1-core host);
//! * otherwise the fresh value may move against its direction by at most
//!   the tolerance relative to the baseline value;
//! * a non-finite value is a regression.
//!
//! Only in-process ratios are written as `ratio` rows (allocating/workspace,
//! NeRF-per-rotation/rigid, linear/cells, three/four objectives,
//! sequential/batch): both sides of each ratio are measured in the same
//! process on the same host, so the ratio is robust to runner speed while
//! absolute times are not.  Absolute times are `none` rows.

use crate::artifact::{Artifact, Better, Gate};
use std::fmt;

/// One gated metric compared between a baseline and a fresh artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The metric row's name.
    pub name: String,
    /// What the fresh value is held to: the baseline value, or the
    /// absolute bound when `bound` is set.
    pub reference: f64,
    /// The freshly measured value.
    pub fresh: f64,
    /// Regression direction.
    pub better: Better,
    /// Whether `reference` is an absolute bound (no tolerance applies).
    pub bound: bool,
}

impl Comparison {
    /// Whether the fresh value constitutes a regression at `tolerance`
    /// (e.g. 0.25 = a tracked speedup may lose up to 25% before failing).
    pub fn regressed(&self, tolerance: f64) -> bool {
        if !self.fresh.is_finite() || !self.reference.is_finite() {
            return true;
        }
        let slack = if self.bound { 0.0 } else { tolerance };
        match self.better {
            Better::Higher => self.fresh < self.reference * (1.0 - slack),
            Better::Lower => self.fresh > self.reference * (1.0 + slack),
        }
    }

    /// fresh / reference.
    pub fn ratio(&self) -> f64 {
        self.fresh / self.reference
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} {} {:>8.3}  fresh {:>8.3}  ({:>6.2}x)",
            self.name,
            if self.bound { "bound   " } else { "baseline" },
            self.reference,
            self.fresh,
            self.ratio()
        )
    }
}

/// Pair the gated rows of `baseline` and `fresh` by name, in baseline
/// order followed by rows only the fresh artifact gates.  Errors when the
/// two artifacts come from different benches, when a gated row is missing
/// on either side, or when the two sides disagree on its direction.
pub fn compare(baseline: &Artifact, fresh: &Artifact) -> Result<Vec<Comparison>, String> {
    if baseline.benchmark != fresh.benchmark {
        return Err(format!(
            "baseline is {:?} but fresh artifact is {:?}",
            baseline.benchmark, fresh.benchmark
        ));
    }
    let bench = &baseline.benchmark;
    let mut comparisons: Vec<Comparison> = Vec::new();
    for row in baseline.metrics.iter().chain(&fresh.metrics) {
        if row.gate == Gate::None || comparisons.iter().any(|c| c.name == row.name) {
            continue;
        }
        let name = &row.name;
        let b = baseline.row(name).ok_or_else(|| {
            format!("{bench}: gated metric {name:?} is not snapshotted in the baseline")
        })?;
        let f = fresh
            .row(name)
            .ok_or_else(|| format!("{bench}: fresh artifact lost tracked metric {name:?}"))?;
        if b.better != f.better {
            return Err(format!("{bench}: metric {name:?} changed direction"));
        }
        let bound = match (f.gate, b.gate) {
            (Gate::Bound(x), _) | (_, Gate::Bound(x)) => Some(x),
            _ => None,
        };
        comparisons.push(Comparison {
            name: name.clone(),
            reference: bound.unwrap_or(b.value),
            fresh: f.value,
            better: b.better,
            bound: bound.is_some(),
        });
    }
    Ok(comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Json;

    const SCORING: &str = r#"{
      "benchmark": "scoring_pipeline", "executor": null,
      "metrics": [
        {"name": "workspace_speedup.len4", "value": 6.922, "unit": "ratio", "better": "higher", "gate": "ratio"},
        {"name": "workspace_speedup.len8", "value": 4.969, "unit": "ratio", "better": "higher", "gate": "ratio"},
        {"name": "workspace_ns_per_eval.len8", "value": 13630.1, "unit": "ns", "better": "lower", "gate": "none"},
        {"name": "objectives.cost_ratio", "value": 1.100, "unit": "ratio", "better": "lower", "gate": "ratio"},
        {"name": "pipeline.speedup", "value": 1.500, "unit": "ratio", "better": "higher", "gate": "ratio"}
      ]
    }"#;

    const CCD: &str = r#"{
      "benchmark": "ccd_closure",
      "executor": "simd[avx2] (lane_width=4, threads=1, ccd_block_width=8, isa=avx2)",
      "metrics": [
        {"name": "ccd.rigid_speedup.len4", "value": 1.543, "unit": "ratio", "better": "higher", "gate": "ratio"},
        {"name": "ccd.rigid_speedup.len8", "value": 1.660, "unit": "ratio", "better": "higher", "gate": "ratio"},
        {"name": "vdw_env.cells_speedup.x1", "value": 1.185, "unit": "ratio", "better": "higher", "gate": "ratio"},
        {"name": "vdw_env.cells_speedup.x10", "value": 10.366, "unit": "ratio", "better": "higher", "gate": "ratio"},
        {"name": "vdw_env.window_speedup", "value": 1.800, "unit": "ratio", "better": "higher", "gate": "ratio"},
        {"name": "blocks.scalar_ns_per_member.w4", "value": 100.0, "unit": "ns", "better": "lower", "gate": "none"},
        {"name": "blocks.wide_speedup.w8", "value": 1.250, "unit": "ratio", "better": "higher", "gate": "ratio"},
        {"name": "simd.speedup", "value": 1.320, "unit": "ratio", "better": "higher", "gate": "ratio"}
      ]
    }"#;

    const BATCH_1CORE: &str = r#"{"benchmark": "batch_engine", "metrics": [
        {"name": "host_cores", "value": 1, "unit": "count", "better": "higher", "gate": "none"},
        {"name": "speedup", "value": 0.958, "unit": "ratio", "better": "higher", "gate": "bound", "bound": 0.70}
    ]}"#;
    const BATCH_8CORE: &str = r#"{"benchmark": "batch_engine", "metrics": [
        {"name": "host_cores", "value": 8, "unit": "count", "better": "higher", "gate": "none"},
        {"name": "speedup", "value": 4.1, "unit": "ratio", "better": "higher", "gate": "ratio"}
    ]}"#;

    fn a(s: &str) -> Artifact {
        Artifact::parse(s).expect("valid test artifact")
    }

    /// `artifact` with row `name` set to `value`.
    fn set(mut artifact: Artifact, name: &str, value: f64) -> Artifact {
        let row = artifact.metrics.iter_mut().find(|r| r.name == name);
        row.expect("fixture row").value = value;
        artifact
    }

    /// `artifact` without row `name`.
    fn without(mut artifact: Artifact, name: &str) -> Artifact {
        let before = artifact.metrics.len();
        artifact.metrics.retain(|r| r.name != name);
        assert_eq!(artifact.metrics.len() + 1, before, "fixture row {name}");
        artifact
    }

    /// The gate over the three artifact pairs, as `check_regression` runs
    /// it: every comparison, and the regressions among them.
    fn gate(
        pairs: [(Artifact, Artifact); 3],
        tolerance: f64,
    ) -> Result<(Vec<Comparison>, Vec<Comparison>), String> {
        let mut all = Vec::new();
        for (baseline, fresh) in &pairs {
            all.extend(compare(baseline, fresh)?);
        }
        let regressions = all
            .iter()
            .filter(|c| c.regressed(tolerance))
            .cloned()
            .collect();
        Ok((all, regressions))
    }

    /// The three committed-shape pairs with the given fresh scoring / ccd /
    /// batch artifacts against the default baselines.
    fn fresh(scoring: Artifact, ccd: Artifact, batch: Artifact) -> [(Artifact, Artifact); 3] {
        [
            (a(SCORING), scoring),
            (a(CCD), ccd),
            (a(BATCH_1CORE), batch),
        ]
    }

    fn identical() -> [(Artifact, Artifact); 3] {
        fresh(a(SCORING), a(CCD), a(BATCH_1CORE))
    }

    #[test]
    fn parser_round_trips_the_artifact_shapes() {
        let v = Json::parse(SCORING).unwrap();
        assert_eq!(v.num("benchmark"), None);
        assert_eq!(v.get("executor"), Some(&Json::Null));
        let rows = v.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(rows[3].num("value"), Some(1.100));
        assert_eq!(rows[3].str("better"), Some("lower"));
        assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert_eq!(
            Json::parse("[true, false, null]")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            3
        );
        assert_eq!(
            Json::parse("\"a\\\"b\"").unwrap(),
            Json::Str("a\"b".to_string())
        );
        for text in [SCORING, CCD, BATCH_1CORE, BATCH_8CORE] {
            let artifact = a(text);
            assert_eq!(Artifact::parse(&artifact.to_json()).unwrap(), artifact);
        }
        assert_eq!(
            a(BATCH_1CORE).row("speedup").unwrap().gate,
            Gate::Bound(0.70)
        );
    }

    #[test]
    fn identical_artifacts_pass() {
        let (metrics, regressions) = gate(identical(), 0.25).unwrap();
        // 2 scoring speedups + cost ratio + pipeline + 2 ccd + 2 vdw_env
        // + window + blocks w8 + simd + batch floor.
        assert_eq!(metrics.len(), 12);
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn batched_pipeline_regression_fails_the_gate() {
        // Losing the batching win (1.50 → 1.05, i.e. −30%) must trip the
        // 25% gate.
        let degraded = set(a(SCORING), "pipeline.speedup", 1.05);
        let (_, regressions) = gate(fresh(degraded, a(CCD), a(BATCH_1CORE)), 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("pipeline"));
    }

    #[test]
    fn simd_kernel_regression_fails_the_gate() {
        // The wide kernels decaying to below scalar speed (1.32 → 0.90,
        // i.e. −32%) must trip the 25% gate.
        let degraded = set(a(CCD), "simd.speedup", 0.90);
        let (_, regressions) = gate(fresh(a(SCORING), degraded, a(BATCH_1CORE)), 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("simd"));
        // A fresh artifact from a scalar-only bench run has no simd row:
        // against a baseline that snapshotted it, that is an error, not a
        // skipped metric.
        let scalar_only = without(a(CCD), "simd.speedup");
        let err = gate(fresh(a(SCORING), scalar_only, a(BATCH_1CORE)), 0.25).unwrap_err();
        assert!(err.contains("simd"), "{err}");
    }

    #[test]
    fn window_and_close_batch_regressions_fail_the_gate() {
        // The per-residue-window pass falling back to per-site cost (1.80
        // → 1.00) and the closure-level close_batch win evaporating (1.25
        // → 0.90) must each trip the 25% gate.
        let degraded = set(a(CCD), "vdw_env.window_speedup", 1.0);
        let degraded = set(degraded, "blocks.wide_speedup.w8", 0.90);
        let (_, regressions) = gate(fresh(a(SCORING), degraded, a(BATCH_1CORE)), 0.25).unwrap();
        assert_eq!(regressions.len(), 2);
        assert!(regressions.iter().any(|m| m.name.contains("blocks")));
        assert!(regressions.iter().any(|m| m.name.contains("window")));
    }

    #[test]
    fn degraded_fresh_speedup_fails_the_gate() {
        // A fresh run that lost the len-8 workspace speedup (4.97 → 2.0,
        // i.e. −60%) must trip the 25% gate.
        let degraded = set(a(SCORING), "workspace_speedup.len8", 2.0);
        let (_, regressions) = gate(fresh(degraded, a(CCD), a(BATCH_1CORE)), 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("len8"));
    }

    #[test]
    fn inflated_baseline_fails_the_gate() {
        // Equivalently, an artificially inflated baseline: raise the
        // committed len-4 baseline far above what the real pipeline
        // measures.
        let mut pairs = identical();
        pairs[0].0 = set(a(SCORING), "workspace_speedup.len4", 40.0);
        let (_, regressions) = gate(pairs, 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("len4"));
    }

    #[test]
    fn cost_ratio_regression_fails_the_gate() {
        // The 4-objective eval getting relatively more expensive than the
        // baseline recorded (1.10 → 1.45 is a +32% cost regression).
        let worse = set(a(SCORING), "objectives.cost_ratio", 1.45);
        let (_, regressions) = gate(fresh(worse, a(CCD), a(BATCH_1CORE)), 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("cost_ratio"));
    }

    #[test]
    fn health_sweep_overhead_is_gated_against_the_absolute_bound() {
        // Artifacts carrying the health-sweep row add one metric; within
        // the 3% bound it passes…
        let with_sweep = |overhead: f64| {
            let mut s = a(SCORING);
            s.push(
                "health_sweep.overhead_ratio",
                overhead,
                "ratio",
                Better::Lower,
                Gate::Bound(0.03),
            );
            s
        };
        let mut pairs = fresh(with_sweep(0.0003), a(CCD), a(BATCH_1CORE));
        pairs[0].0 = with_sweep(0.0003);
        let (metrics, regressions) = gate(pairs, 0.25).unwrap();
        assert_eq!(metrics.len(), 13);
        assert!(regressions.is_empty(), "{regressions:?}");
        // …and past the bound it fails, no matter the tolerance: the
        // bound is absolute, so even a huge tolerance cannot excuse it.
        let mut pairs = fresh(with_sweep(0.05), a(CCD), a(BATCH_1CORE));
        pairs[0].0 = with_sweep(0.0003);
        let (_, regressions) = gate(pairs, 5.0).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("health_sweep"));
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let noisy = set(a(SCORING), "workspace_speedup.len4", 5.9);
        let noisy = set(noisy, "objectives.cost_ratio", 1.30);
        let (_, regressions) = gate(fresh(noisy, a(CCD), a(BATCH_1CORE)), 0.25).unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn one_core_batch_runs_only_enforce_the_overhead_floor() {
        // A 1-core fresh run with ratio 0.96 passes even against a
        // multi-core baseline…
        let mut pairs = identical();
        pairs[2].0 = a(BATCH_8CORE);
        let (_, regressions) = gate(pairs, 0.25).unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
        // …but a run whose scheduler overhead blows past the floor fails.
        let pathological = set(a(BATCH_1CORE), "speedup", 0.5);
        let (_, regressions) = gate(fresh(a(SCORING), a(CCD), pathological), 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
        // Multi-core vs multi-core compares ratios normally.
        let mut pairs = fresh(a(SCORING), a(CCD), set(a(BATCH_8CORE), "speedup", 2.0));
        pairs[2].0 = a(BATCH_8CORE);
        let (_, regressions) = gate(pairs, 0.25).unwrap();
        assert_eq!(regressions.len(), 1);
    }

    #[test]
    fn losing_a_snapshotted_optional_metric_is_an_error() {
        // Rows a bench writes only under some configuration are gated once
        // snapshotted: a fresh artifact without one fails the gate rather
        // than silently dropping the metric.
        let no_wide_block = without(a(CCD), "blocks.wide_speedup.w8");
        let no_cost = without(a(SCORING), "objectives.cost_ratio");
        for pairs in [
            fresh(a(SCORING), no_wide_block, a(BATCH_1CORE)),
            fresh(no_cost, a(CCD), a(BATCH_1CORE)),
        ] {
            let err = gate(pairs, 0.25).unwrap_err();
            assert!(err.contains("lost tracked"), "{err}");
        }
    }

    #[test]
    fn unsnapshotted_gated_metric_is_an_error() {
        // The reverse: a gated fresh row the baseline never snapshotted is
        // an error too, so new coverage enters the gate together with its
        // baseline instead of staying silently ungated.
        for (fixture, name) in [
            (SCORING, "pipeline.speedup"),
            (CCD, "blocks.wide_speedup.w8"),
        ] {
            let err = compare(&without(a(fixture), name), &a(fixture)).unwrap_err();
            assert!(
                err.contains("not snapshotted") && err.contains(name),
                "{err}"
            );
        }
        // Informational rows stay free: a new `none` row needs no baseline.
        let mut extra = a(SCORING);
        extra.push("new.timing_ns", 12.0, "ns", Better::Lower, Gate::None);
        assert_eq!(compare(&a(SCORING), &extra).unwrap().len(), 4);
    }

    #[test]
    fn non_finite_values_regress() {
        let broken = set(a(SCORING), "pipeline.speedup", f64::NAN);
        let (_, regressions) = gate(fresh(broken, a(CCD), a(BATCH_1CORE)), 10.0).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].name.contains("pipeline"));
    }

    #[test]
    fn losing_a_tracked_point_is_an_error() {
        let truncated = without(a(SCORING), "workspace_speedup.len8");
        assert!(gate(fresh(truncated, a(CCD), a(BATCH_1CORE)), 0.25).is_err());
    }

    #[test]
    fn committed_baselines_are_well_formed() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut files: Vec<_> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with("BENCH_") && name.ends_with(".baseline.json")
            })
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no committed baselines under {root}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let artifact = Artifact::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            let json = Json::parse(&text).unwrap();
            let rows = json.get("metrics").unwrap().as_array().unwrap();
            let mut gated = 0;
            for row in rows {
                let name = row.str("name").unwrap();
                match row.str("gate") {
                    Some("none") => continue,
                    Some("bound") => assert!(row.num("bound").is_some(), "{path:?} {name}"),
                    gate => assert_eq!(gate, Some("ratio"), "{path:?} {name}"),
                }
                assert!(
                    matches!(row.str("better"), Some("higher" | "lower")),
                    "{path:?}: gated {name} has no direction"
                );
                gated += 1;
            }
            assert!(gated > 0, "{path:?} gates nothing");
            assert_eq!(compare(&artifact, &artifact).unwrap().len(), gated);
        }
    }
}
