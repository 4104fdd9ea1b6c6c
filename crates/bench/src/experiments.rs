//! Implementations of every experiment (table and figure) of the paper.
//!
//! Each function runs the experiment at a chosen [`Scale`] and returns the
//! report as plain text; the harness binaries print it.  The mapping to the
//! paper is:
//!
//! | Function | Paper content |
//! |---|---|
//! | [`fig1_cpu_profile`] | Figure 1 — CPU-only time profile |
//! | [`fig3_population_size`] | Figure 3 — population-size study on 1akz |
//! | [`fig4_speedup_scaling`] | Figure 4 — time vs. #threads on 1cex |
//! | [`table1_speedup`] | Table I — speedup on six 12-residue loops |
//! | [`table2_kernel_profile`] | Table II — per-kernel device time |
//! | [`table3_occupancy`] | Table III — registers and occupancy |
//! | [`table4_benchmark`] | Table IV — decoy quality on the 53-loop set |
//! | [`fig5_front_evolution`] | Figure 5 — evolution of the Pareto front on 5pti |
//! | [`fig6_best_decoys`] | Figure 6 — best decoys for 3pte and 1xyz |

use crate::gtx280::LaunchConfig;
use crate::profiler::{table3_report, DeviceProfile};
use crate::{load_target, sampler_for, scaled_config, shared_kb, Scale};
use lms_core::{MoscemSampler, TrajectoryResult};
use lms_decoys::{ensemble_stats, format_percent, format_us, section, TextTable};
use lms_protein::{to_pdb, LoopBuilder};
use lms_scoring::{normalize_population, ScoreVector};
use lms_simt::ExecutorConfig;

/// Figure 1: wall-clock time share of the algorithm components in the
/// CPU-only implementation (paper: CCD + scoring ≈ 99 %, CCD alone ≈ 84 %).
///
/// The shares are a view over the trajectory's measured stage record (each
/// stage's summed launch wall time), and a second table lists the record's
/// rows.
pub fn fig1_cpu_profile(scale: Scale) -> String {
    let sampler = sampler_for("1cex", scale, 101);
    let result = sampler.run(&ExecutorConfig::scalar().build().unwrap());
    let components = result.stages.components();
    let f = components.fractions();

    let mut out = section("Figure 1: time profile of the CPU-only implementation (1cex 40:51)");
    let mut table = TextTable::new(vec!["Component", "Share of run time", "Paper"]);
    table.add_row(vec![
        "Loop closure (CCD)".to_string(),
        format_percent(f[0]),
        "84.15%".to_string(),
    ]);
    table.add_row(vec![
        "Scoring functions".to_string(),
        format_percent(f[1]),
        "14.79%".to_string(),
    ]);
    table.add_row(vec![
        "Fitness/other".to_string(),
        format_percent(f[2] + f[3]),
        "1.03%".to_string(),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\npopulation {}, {} iterations, total component time {}\n",
        sampler.config().population_size,
        sampler.config().iterations,
        format_us(components.total_us())
    ));

    // Per-stage measured launch wall time.
    let host_total = result.stages.total_wall().as_secs_f64().max(1e-12);
    let mut staged = TextTable::new(vec![
        "Staged kernel launch",
        "Launches",
        "Host (usec)",
        "Host share",
    ]);
    let mut rows: Vec<_> = result.stages.rows().collect();
    rows.sort_by_key(|(_, row)| std::cmp::Reverse(row.wall));
    for (kind, row) in rows {
        staged.add_row(vec![
            kind.name().to_string(),
            row.calls.to_string(),
            format!("{:.0}", row.wall.as_secs_f64() * 1e6),
            format_percent(row.wall.as_secs_f64() / host_total),
        ]);
    }
    out.push_str("\nMeasured launch wall time per stage (population-batched pipeline):\n");
    out.push_str(&staged.render());
    out
}

/// Figure 3: number of distinct non-dominated structures and best-decoy
/// RMSD statistics over independent trajectories of 1akz(181:192) at
/// increasing population size.
pub fn fig3_population_size(scale: Scale) -> String {
    let populations: Vec<usize> = match scale {
        Scale::Quick => vec![32, 128, 512],
        Scale::Standard => vec![100, 400, 1600],
        Scale::Paper => vec![100, 1_000, 10_000],
    };
    let trajectories = scale.trajectories();
    let target = load_target("1akz");
    let kb = shared_kb();

    let mut out = section("Figure 3: population size study on 1akz(181:192)");
    let mut table = TextTable::new(vec![
        "Population",
        "Avg distinct non-dominated",
        "Best RMSD min (A)",
        "Best RMSD avg (A)",
        "Best RMSD max (A)",
    ]);
    for &pop in &populations {
        let cfg = scaled_config(scale, 303)
            .to_builder()
            .population_size(pop)
            .n_complexes((pop / 64).max(1))
            .iterations(scale.iterations())
            .build()
            .expect("valid experiment config");
        let distinct_deg = cfg.distinct_threshold_deg;
        let sampler = MoscemSampler::new(target.clone(), kb.clone(), cfg);
        let results: Vec<_> = (0..trajectories)
            .map(|t| {
                sampler.run_with_seed(
                    &ExecutorConfig::parallel().build().unwrap(),
                    1000 + t as u64,
                )
            })
            .collect();
        let stats = ensemble_stats(&results, distinct_deg).expect("at least one trajectory");
        table.add_row(vec![
            pop.to_string(),
            format!("{:.1}", stats.avg_distinct_non_dominated),
            format!("{:.2}", stats.best_rmsd.min),
            format!("{:.2}", stats.best_rmsd.mean),
            format!("{:.2}", stats.best_rmsd.max),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\n{} independent trajectories per population size; paper shape: more distinct\nnon-dominated structures and lower best RMSD as the population grows.\n",
        trajectories
    ));
    out
}

/// Figure 4: computational time vs. number of threads (population size) on
/// 1cex(40:51) for the CPU baseline and the CPU-GPU implementation.
pub fn fig4_speedup_scaling(scale: Scale) -> String {
    let populations: Vec<usize> = match scale {
        Scale::Quick => vec![256, 512, 1_024, 2_048],
        Scale::Standard => vec![512, 1_024, 2_048, 4_096, 7_680],
        Scale::Paper => vec![256, 512, 1_024, 2_048, 4_096, 7_680, 15_360],
    };
    let iterations = match scale {
        Scale::Quick => 3,
        Scale::Standard => 10,
        Scale::Paper => 100,
    };
    let target = load_target("1cex");
    let kb = shared_kb();

    let mut out = section("Figure 4: time vs. number of threads on 1cex(40:51)");
    let mut table = TextTable::new(vec![
        "Threads (population)",
        "Blocks",
        "Modeled CPU time",
        "Modeled GPU time",
        "Modeled speedup",
        "Measured scalar wall",
        "Measured parallel wall",
    ]);
    let mut modeled_cpu_series = Vec::new();
    let mut modeled_gpu_series = Vec::new();
    for &pop in &populations {
        let cfg = scaled_config(scale, 404)
            .to_builder()
            .population_size(pop)
            .n_complexes((pop / 128).max(1))
            .iterations(iterations)
            .build()
            .expect("valid experiment config");
        let sampler = MoscemSampler::new(target.clone(), kb.clone(), cfg.clone());
        let scalar = sampler.run(&ExecutorConfig::scalar().build().unwrap());
        let parallel = sampler.run(&ExecutorConfig::parallel().build().unwrap());
        let modeled = DeviceProfile::derive(&scalar, &target, &cfg, pop);
        modeled_cpu_series.push(modeled.cpu_us());
        modeled_gpu_series.push(modeled.gpu_us());
        table.add_row(vec![
            pop.to_string(),
            modeled.launch.blocks.to_string(),
            format_us(modeled.cpu_us()),
            format_us(modeled.gpu_us()),
            format!("{:.1}x", modeled.speedup()),
            format!("{:.2?}", scalar.host_wall),
            format!("{:.2?}", parallel.host_wall),
        ]);
    }
    out.push_str(&table.render());
    if modeled_cpu_series.len() >= 2 {
        let cpu_growth = modeled_cpu_series.last().unwrap() / modeled_cpu_series[0];
        let gpu_growth = modeled_gpu_series.last().unwrap() / modeled_gpu_series[0];
        out.push_str(&format!(
            "\nGrowth from smallest to largest population: CPU {cpu_growth:.1}x, CPU-GPU {gpu_growth:.2}x\n(paper: ~30x vs 2.39x between 512 and 15,360 threads).\n"
        ));
    }
    out
}

/// Modeled kernel speedup of a finished trajectory re-launched at the
/// paper's operating point (15,360 threads, 128 per block): the per-thread
/// work of every kernel is kept, only the launch geometry changes.  This is
/// what lets the quick-scale harness still report the paper's
/// full-population speedup honestly.
fn extrapolate_speedup_to_paper_population(
    result: &TrajectoryResult,
    sampler: &MoscemSampler,
) -> f64 {
    let paper = DeviceProfile::derive(result, sampler.target(), sampler.config(), 15_360);
    paper.cpu_us() / paper.kernel_gpu_us().max(1e-12)
}

/// Table I: speedup on the six 12-residue loops at the paper's operating
/// point (15,360 threads, 100 iterations — scaled down below `paper` scale,
/// with an extrapolated full-population column).
pub fn table1_speedup(scale: Scale) -> String {
    let loops = [
        ("1cex", 40, 51),
        ("1akz", 181, 192),
        ("1xyz", 813, 824),
        ("1ixh", 160, 171),
        ("153l", 98, 109),
        ("1dim", 213, 224),
    ];
    let paper_speedup = [42.6, 40.3, 39.2, 37.3, 42.9, 54.8];

    let mut out = section("Table I: speedup comparison for 12-residue loops");
    let mut table = TextTable::new(vec![
        "Protein",
        "Start",
        "End",
        "Modeled CPU time",
        "Modeled CPU-GPU time",
        "Speedup (this run)",
        "Speedup @15,360 threads",
        "Paper speedup",
    ]);
    for (i, (name, start, end)) in loops.iter().enumerate() {
        let sampler = sampler_for(name, scale, 500 + i as u64);
        let result = sampler.run(&ExecutorConfig::parallel().build().unwrap());
        let modeled = DeviceProfile::derive(
            &result,
            sampler.target(),
            sampler.config(),
            sampler.config().population_size,
        );
        table.add_row(vec![
            name.to_string(),
            start.to_string(),
            end.to_string(),
            format_us(modeled.cpu_us()),
            format_us(modeled.gpu_us()),
            format!("{:.1}", modeled.speedup()),
            format!(
                "{:.1}",
                extrapolate_speedup_to_paper_population(&result, &sampler)
            ),
            format!("{:.1}", paper_speedup[i]),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\npopulation {}, {} iterations per trajectory (paper: 15,360 threads, 100 iterations).\nThe extrapolated column keeps each kernel's measured per-thread work and re-launches it\nat the paper's 120 blocks x 128 threads on the modeled GTX 280.\n",
        scale.population(),
        scale.iterations()
    ));
    out
}

/// Table II: per-kernel device time breakdown on 1cex(40:51).
///
/// Every kernel row is a staged launch of the population-batched pipeline
/// (`mutate`/`close`/`rebuild`/per-objective `score`/`metropolis`/`select`
/// per iteration): the GPU columns are derived from the trajectory's stage
/// record after the run, and the host column is the stage's measured launch
/// wall time.
pub fn table2_kernel_profile(scale: Scale) -> String {
    let sampler = sampler_for("1cex", scale, 202);
    let executor = ExecutorConfig::parallel().build().unwrap();
    let result = sampler.run(&executor);
    let modeled = DeviceProfile::derive(
        &result,
        sampler.target(),
        sampler.config(),
        sampler.config().population_size,
    );
    let mut out = section("Table II: computational time of GPU tasks on 1cex(40:51)");
    out.push_str(&modeled.table2_report(executor.capabilities()));
    out.push_str(
        "\nEach kernel row is one staged population-wide launch per iteration; the host\ncolumn is the stage's summed launch wall time (the [Rebuild]/[Select] rows are\npipeline stages the paper folds into other tasks).\nPaper shape: [CCD] ~75%, [EvalDIST] ~14%, [EvalVDW] ~8%, [EvalTRIP] ~0.04%,\nfitness kernels ~1%, memory synchronisation below 1%.\n",
    );
    out
}

/// Table III: registers per thread and multiprocessor occupancy per kernel.
pub fn table3_occupancy(scale: Scale) -> String {
    let mut out = section("Table III: registers per thread and occupancy per multiprocessor");
    out.push_str(&table3_report(LaunchConfig::for_population(
        scale.population(),
    )));
    out.push_str("\nPaper: CCD/EvalDIST/EvalVDW 32 registers -> 50%, EvalTRIP 20 -> 75%, fitness kernels -> 100%.\n");
    out
}

/// Outcome of the Table IV protocol for one target.
#[derive(Debug, Clone)]
pub struct TargetOutcome {
    /// Target label, e.g. `1cex(40:51)`.
    pub label: String,
    /// Loop length in residues.
    pub residues: usize,
    /// Number of decoys collected.
    pub decoys: usize,
    /// Best RMSD in the decoy set (Å).
    pub best_rmsd: f64,
}

/// Run the decoy-production protocol for every benchmark target and report
/// how many targets reach sub-1.0 Å and sub-1.5 Å decoys, grouped by loop
/// length (Table IV).
pub fn table4_benchmark(scale: Scale) -> String {
    let (outcomes, table) = table4_outcomes(scale);
    let mut out = section("Table IV: targets with high-resolution decoys (53 long loops)");
    out.push_str(&table);
    let failures: Vec<&TargetOutcome> = outcomes.iter().filter(|o| o.best_rmsd > 2.0).collect();
    if !failures.is_empty() {
        out.push_str("\nTargets without a decoy under 2.0 A:\n");
        for f in failures {
            out.push_str(&format!("  {} (best {:.2} A)\n", f.label, f.best_rmsd));
        }
    }
    out.push_str("\nPaper: 41/53 (77.4%) targets under 1.0 A and 48/53 (90.6%) under 1.5 A;\nthe only target without a sub-2.0 A decoy is the buried 1xyz(813:824).\n");
    out
}

/// The per-target outcomes and the rendered Table IV.
fn table4_outcomes(scale: Scale) -> (Vec<TargetOutcome>, String) {
    let library = crate::benchmark_library();
    let kb = shared_kb();
    let specs = library.specs();
    let outcomes: Vec<TargetOutcome> = specs
        .iter()
        .map(|spec| {
            let target = library.generate(spec);
            let cfg = scaled_config(scale, 7000 + spec.start as u64)
                .to_builder()
                .population_size(scale.population().min(512))
                .n_complexes((scale.population().min(512) / 64).max(1))
                .iterations(scale.iterations())
                .build()
                .expect("valid experiment config");
            let sampler = MoscemSampler::new(target, kb.clone(), cfg);
            let production = sampler.produce_decoys(
                &ExecutorConfig::parallel().build().unwrap(),
                scale.decoy_target(),
                scale.max_trajectories(),
            );
            TargetOutcome {
                label: spec.label(),
                residues: spec.len,
                decoys: production.decoys.len(),
                best_rmsd: production.decoys.best_rmsd().unwrap_or(f64::INFINITY),
            }
        })
        .collect();

    let mut table = TextTable::new(vec![
        "# of residues",
        "# of benchmark targets",
        "< 1.0A",
        "< 1.5A",
        "< 2.0A",
    ]);
    let mut total = (0usize, 0usize, 0usize, 0usize);
    for len in [10usize, 11, 12] {
        let group: Vec<&TargetOutcome> = outcomes.iter().filter(|o| o.residues == len).collect();
        let n = group.len();
        let under = |cut: f64| group.iter().filter(|o| o.best_rmsd <= cut).count();
        let (u10, u15, u20) = (under(1.0), under(1.5), under(2.0));
        total = (total.0 + n, total.1 + u10, total.2 + u15, total.3 + u20);
        table.add_row(vec![
            len.to_string(),
            n.to_string(),
            u10.to_string(),
            u15.to_string(),
            u20.to_string(),
        ]);
    }
    table.add_row(vec![
        "Total".to_string(),
        total.0.to_string(),
        format!(
            "{} ({})",
            total.1,
            format_percent(total.1 as f64 / total.0 as f64)
        ),
        format!(
            "{} ({})",
            total.2,
            format_percent(total.2 as f64 / total.0 as f64)
        ),
        format!(
            "{} ({})",
            total.3,
            format_percent(total.3 as f64 / total.0 as f64)
        ),
    ]);
    (outcomes, table.render())
}

/// Figure 5: evolution of the non-dominated front during sampling of
/// 5pti(7:17): normalised scores and RMSD of the front at the start, an
/// intermediate iteration, and the end.
pub fn fig5_front_evolution(scale: Scale) -> String {
    let iterations = scale.iterations().max(5);
    let mid = (iterations / 5).max(1);
    let cfg = scaled_config(scale, 505)
        .to_builder()
        .population_size(scale.population())
        .n_complexes(scale.n_complexes())
        .iterations(iterations)
        .snapshot_iterations(vec![0, mid, iterations])
        .build()
        .expect("valid experiment config");
    let sampler = MoscemSampler::new(load_target("5pti"), shared_kb(), cfg);
    let result = sampler.run(&ExecutorConfig::parallel().build().unwrap());

    let mut out = section("Figure 5: evolution of the non-dominated conformations in 5pti(7:17)");
    for snap in &result.snapshots {
        out.push_str(&format!(
            "\nIteration {:>3}: {} non-dominated conformations, best RMSD {:.2} A\n",
            snap.iteration, snap.non_dominated_count, snap.best_rmsd
        ));
        let scores: Vec<ScoreVector> = snap.front.iter().map(|(s, _)| *s).collect();
        let normed = normalize_population(&scores);
        let mut table = TextTable::new(vec![
            "VDW (norm)",
            "DIST (norm)",
            "TRIPLET (norm)",
            "RMSD (A)",
        ]);
        // Show the front sorted by RMSD so native-like members are visible.
        let mut rows: Vec<(ScoreVector, f64)> = normed
            .iter()
            .zip(snap.front.iter().map(|(_, r)| *r))
            .map(|(s, r)| (*s, r))
            .collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for (s, rmsd) in rows.iter().take(12) {
            table.add_row(vec![
                format!("{:.2}", s.vdw()),
                format!("{:.2}", s.dist()),
                format!("{:.2}", s.triplet()),
                format!("{rmsd:.2}"),
            ]);
        }
        out.push_str(&table.render());
        if rows.len() > 12 {
            out.push_str(&format!("... ({} more front members)\n", rows.len() - 12));
        }
    }
    out.push_str("\nPaper: the front grows from 7 (random start) to 19 (iteration 20) to 63\n(iteration 100) non-dominated conformations, with native-like decoys (<0.5 A)\nemerging only late; the lowest single-score conformations are not the lowest-RMSD ones.\n");
    out
}

/// Figure 6: best decoys for 3pte(91:101) (easy, sub-angstrom in the paper)
/// and the buried 1xyz(813:824) (the paper's only failure, >2 Å).  Also
/// writes the native and best-decoy PDB files under `results/`.
pub fn fig6_best_decoys(scale: Scale) -> String {
    let mut out = section("Figure 6: best decoys for 3pte(91:101) and 1xyz(813:824)");
    let builder = LoopBuilder::default();
    let mut rows = TextTable::new(vec![
        "Target",
        "Decoys",
        "Best RMSD (A)",
        "Paper best RMSD (A)",
    ]);
    let paper = [("3pte", 0.42), ("1xyz", 2.15)];
    for (name, paper_rmsd) in paper {
        let target = load_target(name);
        let cfg = scaled_config(scale, 606)
            .to_builder()
            .population_size(scale.population())
            .n_complexes(scale.n_complexes())
            .iterations(scale.iterations())
            .build()
            .expect("valid experiment config");
        let sampler = MoscemSampler::new(target.clone(), shared_kb(), cfg);
        let production = sampler.produce_decoys(
            &ExecutorConfig::parallel().build().unwrap(),
            scale.decoy_target(),
            scale.max_trajectories(),
        );
        let best = production
            .decoys
            .decoys()
            .iter()
            .min_by(|a, b| a.rmsd_to_native.partial_cmp(&b.rmsd_to_native).unwrap())
            .cloned();
        let best_rmsd = best
            .as_ref()
            .map(|d| d.rmsd_to_native)
            .unwrap_or(f64::INFINITY);
        rows.add_row(vec![
            target.label(),
            production.decoys.len().to_string(),
            format!("{best_rmsd:.2}"),
            format!("{paper_rmsd:.2}"),
        ]);

        // Write native and best decoy as PDB for visual comparison.
        if let Some(best) = best {
            let _ = std::fs::create_dir_all("results");
            let native_pdb = to_pdb(
                &target.native_structure,
                &target.sequence,
                'A',
                target.start_res,
            );
            let decoy_structure = target.build(&builder, &best.torsions);
            let decoy_pdb = to_pdb(&decoy_structure, &target.sequence, 'B', target.start_res);
            let _ = std::fs::write(format!("results/{name}_native.pdb"), native_pdb);
            let _ = std::fs::write(format!("results/{name}_best_decoy.pdb"), decoy_pdb);
            out.push_str(&format!(
                "wrote results/{name}_native.pdb and results/{name}_best_decoy.pdb\n"
            ));
        }
    }
    out.push_str(&rows.render());
    out.push_str(
        "\nPaper: 3pte reaches 0.42 A; the buried 1xyz is the only target above 2 A (2.15 A).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The experiment functions are exercised end-to-end (at Quick scale) by
    // the workspace integration tests; here we only check cheap invariants.

    #[test]
    fn table3_runs_quickly_and_mentions_all_kernels() {
        let report = table3_occupancy(Scale::Quick);
        for label in [
            "[CCD]",
            "[EvalDIST]",
            "[EvalVDW]",
            "[EvalTRIP]",
            "[FitAssg]",
        ] {
            assert!(report.contains(label), "missing {label} in:\n{report}");
        }
        assert!(report.contains("50%"));
        assert!(report.contains("100%"));
    }

    #[test]
    fn fig1_reports_ccd_dominance() {
        let report = fig1_cpu_profile(Scale::Quick);
        assert!(report.contains("Loop closure (CCD)"));
        assert!(report.contains("Scoring functions"));
        assert!(report.contains("%"));
    }
}
