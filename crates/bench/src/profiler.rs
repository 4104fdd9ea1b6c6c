//! The post-hoc GTX 280 profiler: the paper's modeled Tables I–III and
//! Figure 4 derived from a finished trajectory's measured stage record.
//!
//! The sampler records only measurements
//! ([`TrajectoryResult::stages`](lms_core::TrajectoryResult::stages): one
//! row of launch count and launch wall time per stage, plus the total CCD
//! rotation count).  The [`gtx280`](crate::gtx280) model is affine in
//! per-thread work, so a kernel's modeled time summed over its calls
//! follows from the call count and the mean per-thread work alone.
//! [`DeviceProfile::derive`] takes that work from a work model of the
//! target, the CCD work from the measured rotations, and launches every
//! kernel at a chosen thread count (128 threads per block, one thread per
//! conformation).  It also models the paper's memcpy pattern: a fixed
//! start-up upload plus a per-iteration pattern times the completed
//! iterations.  The `[HealthSweep]` stage is a robustness stage of this
//! implementation, not a paper task, and is left out of the model.

use crate::gtx280::{
    cpu_time_us, kernel_time_us, registers_per_thread, transfer_time_us, LaunchConfig, TransferKind,
};
use lms_core::{SamplerConfig, TrajectoryResult};
use lms_protein::LoopTarget;
use lms_simt::{Capabilities, KernelKind};
use std::fmt::Write as _;
use std::time::Duration;

/// Abstract per-thread work of one conformation's kernels on a target:
/// the work-unit counts the timing model charges cycles for.
#[derive(Debug, Clone, Copy)]
struct WorkModel {
    /// Atom placements per CCD rotation (rebuild of the whole loop).
    ccd_per_rotation: f64,
    /// Scored atom pairs for DIST.
    dist_work: f64,
    /// Examined contacts for VDW.
    vdw_work: f64,
    /// Table lookups for TRIPLET.
    trip_work: f64,
}

impl WorkModel {
    fn for_target(target: &LoopTarget) -> WorkModel {
        let n = target.n_residues();
        // CCD rebuilds only the suffix from the rotated torsion onward
        // (LoopBuilder::rebuild_from); rotations are spread over the sweep,
        // so the expected rebuild is half the loop's 5 placements/residue.
        let ccd_per_rotation = (n * 5) as f64 * 0.5;
        // DIST: 16 atom-kind pairs per residue pair at separation >= 2.
        let res_pairs_sep2: usize = (2..n).map(|d| n - d).sum();
        let dist_work = (res_pairs_sep2 * 16) as f64;
        // VDW: intra-loop sites plus environment contacts near the loop.
        let centroids = target.sequence.iter().filter(|a| !a.is_glycine()).count();
        let sites = (4 * n + centroids) as f64;
        let env_neighbors: f64 = {
            let atoms = target.native_structure.backbone_atoms();
            let total: usize = atoms
                .iter()
                .map(|a| target.environment.burial_count(*a, 7.0))
                .sum();
            total as f64 / atoms.len().max(1) as f64
        };
        let vdw_work = sites * (sites - 1.0) / 2.0 + sites * env_neighbors;
        WorkModel {
            ccd_per_rotation,
            dist_work,
            vdw_work,
            trip_work: n as f64,
        }
    }
}

/// One modeled kernel row of Table II / Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRow {
    /// The kernel.
    pub kind: KernelKind,
    /// Launches over the trajectory.
    pub calls: usize,
    /// Modeled device time over all launches (µs).
    pub gpu_us: f64,
    /// Modeled single-core CPU time of the same work (µs).
    pub cpu_us: f64,
    /// Measured launch wall time of the stage.
    pub host: Duration,
    /// Occupancy of the launch on the modeled device, in `[0, 1]`.
    pub occupancy: f64,
}

/// One modeled memcpy row of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRow {
    /// The copy direction.
    pub kind: TransferKind,
    /// Number of copies.
    pub calls: usize,
    /// Total bytes moved.
    pub bytes: usize,
    /// Modeled transfer time (µs).
    pub gpu_us: f64,
}

/// The modeled device profile of one trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// The launch geometry every kernel was modeled at.
    pub launch: LaunchConfig,
    /// Kernel rows with at least one call, in [`KernelKind::ALL`] order.
    pub kernels: Vec<KernelRow>,
    /// Memcpy rows with at least one copy, in [`TransferKind::ALL`] order.
    pub transfers: Vec<TransferRow>,
}

impl DeviceProfile {
    /// Model `result` — a trajectory of `config` on `target` — on the GTX
    /// 280 with `threads` device threads (the trajectory's own population
    /// for its modeled times, 15,360 for the paper's operating point).
    /// The per-thread work of every kernel is the run's; only the launch
    /// geometry and the CPU baseline's conformation count follow
    /// `threads`.
    pub fn derive(
        result: &TrajectoryResult,
        target: &LoopTarget,
        config: &SamplerConfig,
        threads: usize,
    ) -> DeviceProfile {
        let launch = LaunchConfig::for_population(threads);
        let work = WorkModel::for_target(target);
        let stages = &result.stages;
        let n = config.population_size;
        let n_res = target.n_residues();
        let objectives = config.active_objectives() as f64;
        let iterations = stages.row(KernelKind::Metropolis).calls;

        let kernels = KernelKind::ALL
            .into_iter()
            .filter_map(|kind| {
                let row = stages.row(kind);
                let (calls, per_thread) = match kind {
                    KernelKind::Ccd => {
                        // Mean applied rotations per member and launch, plus
                        // the closing exact build.
                        let rotations =
                            stages.ccd_rotations() as f64 / (n * row.calls.max(1)) as f64;
                        (row.calls, (rotations + 1.0) * work.ccd_per_rotation)
                    }
                    KernelKind::EvalDist => (row.calls, work.dist_work),
                    KernelKind::EvalVdw => (row.calls, work.vdw_work),
                    KernelKind::EvalTrip => (row.calls, work.trip_work),
                    KernelKind::FitAssgPopulation => (row.calls, 2.0 * n as f64 * objectives),
                    KernelKind::FitAssgComplex => {
                        (row.calls, 2.0 * config.complex_size() as f64 * objectives)
                    }
                    KernelKind::Reproduction => {
                        (row.calls, config.mutation.max_mutations as f64 * 5.0)
                    }
                    KernelKind::Metropolis => (row.calls, 2.0),
                    KernelKind::Rebuild => (row.calls, (4 * n_res) as f64),
                    KernelKind::Select => (row.calls, (2 * n_res) as f64),
                    KernelKind::HealthSweep => return None,
                };
                (calls > 0).then(|| KernelRow {
                    kind,
                    calls,
                    gpu_us: calls as f64 * kernel_time_us(kind, launch, per_thread),
                    cpu_us: calls as f64 * cpu_time_us(kind, threads, per_thread),
                    host: row.wall,
                    occupancy: launch.occupancy(kind).occupancy,
                })
            })
            .collect();

        // Start-up: the knowledge-base tables (eight texture arrays), the
        // environment and the anchor frame go to texture memory, the initial
        // population to global memory.  Every iteration then moves five
        // small parameter blocks in, stages conformations and scores for the
        // texture fetches, reads the scores back and shuffles them on the
        // device.
        use TransferKind::{DtoA, DtoD, DtoH, HtoA, HtoD};
        let kb_bytes = 27 * 36 * 36 * 4 + 16 * 3 * 32 * 4;
        let conf_bytes = threads * 2 * n_res * 4;
        let score_bytes = threads * config.active_objectives() * 4;
        let copies: [(TransferKind, usize, usize); 9] = [
            (HtoA, kb_bytes / 8, 8),
            (HtoA, target.environment.len() * 16, 1),
            (HtoA, n_res * 8, 1),
            (HtoD, conf_bytes, 1),
            (HtoD, 64, 5 * iterations),
            (DtoA, conf_bytes, iterations),
            (DtoA, score_bytes, iterations),
            (DtoH, score_bytes, 7 * iterations),
            (DtoD, score_bytes, 3 * iterations),
        ];
        let transfers = TransferKind::ALL
            .into_iter()
            .filter_map(|kind| {
                let mut row = TransferRow {
                    kind,
                    calls: 0,
                    bytes: 0,
                    gpu_us: 0.0,
                };
                for &(_, bytes, count) in copies.iter().filter(|c| c.0 == kind) {
                    row.calls += count;
                    row.bytes += bytes * count;
                    row.gpu_us += count as f64 * transfer_time_us(kind, bytes);
                }
                (row.calls > 0).then_some(row)
            })
            .collect();

        DeviceProfile {
            launch,
            kernels,
            transfers,
        }
    }

    /// Modeled device time of the kernels alone (µs).
    pub fn kernel_gpu_us(&self) -> f64 {
        self.kernels.iter().map(|r| r.gpu_us).sum()
    }

    /// Modeled memcpy time (µs).
    pub fn transfer_gpu_us(&self) -> f64 {
        self.transfers.iter().map(|r| r.gpu_us).sum()
    }

    /// Modeled device time of the whole trajectory, kernels plus memcpy
    /// (µs) — the "CPU-GPU implementation" column of Figure 4 / Table I.
    pub fn gpu_us(&self) -> f64 {
        self.kernel_gpu_us() + self.transfer_gpu_us()
    }

    /// Modeled single-core CPU time of the whole trajectory (µs) — the "CPU
    /// implementation" column of Figure 4 / Table I.
    pub fn cpu_us(&self) -> f64 {
        self.kernels.iter().map(|r| r.cpu_us).sum()
    }

    /// Modeled GPU-over-CPU speedup of the trajectory.
    pub fn speedup(&self) -> f64 {
        self.cpu_us() / self.gpu_us().max(1e-12)
    }

    /// Render the paper's Table II: per-kernel and per-memcpy modeled device
    /// time and share of total device time, plus each stage's measured
    /// launch wall time, headed by the executor that produced the
    /// measurements.
    pub fn table2_report(&self, executor: Capabilities) -> String {
        let total = self.gpu_us().max(1e-12);
        let mut out = String::new();
        writeln!(out, "Executor: {executor}").unwrap();
        writeln!(
            out,
            "{:<10} {:<30} {:>8} {:>16} {:>8} {:>16}",
            "Category", "Method", "#calls", "GPU (usec)", "% GPU", "Host (usec)"
        )
        .unwrap();
        let mut rows = self.kernels.clone();
        rows.sort_by(|a, b| b.gpu_us.partial_cmp(&a.gpu_us).unwrap());
        for r in rows {
            writeln!(
                out,
                "{:<10} {:<30} {:>8} {:>16.0} {:>7.2}% {:>16.0}",
                "Kernel",
                r.kind.name(),
                r.calls,
                r.gpu_us,
                100.0 * r.gpu_us / total,
                r.host.as_secs_f64() * 1e6
            )
            .unwrap();
        }
        for r in &self.transfers {
            writeln!(
                out,
                "{:<10} {:<30} {:>8} {:>16.0} {:>7.2}%",
                "Mem sync",
                r.kind.name(),
                r.calls,
                r.gpu_us,
                100.0 * r.gpu_us / total
            )
            .unwrap();
        }
        out
    }
}

/// Render the paper's Table III: registers per thread and occupancy of
/// every modeled kernel at `launch`.  Occupancy depends only on the kernel
/// and the launch geometry, so no trajectory is needed.
pub fn table3_report(launch: LaunchConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<32} {:>17} {:>11}",
        "Kernel", "Registers/thread", "Occupancy"
    )
    .unwrap();
    let mut kinds: Vec<KernelKind> = KernelKind::ALL
        .into_iter()
        .filter(|&k| k != KernelKind::HealthSweep)
        .collect();
    kinds.sort_by_key(|&k| std::cmp::Reverse(registers_per_thread(k)));
    for kind in kinds {
        writeln!(
            out,
            "{:<32} {:>17} {:>10.0}%",
            kind.name(),
            registers_per_thread(kind),
            launch.occupancy(kind).occupancy * 100.0
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_core::MoscemSampler;
    use lms_protein::BenchmarkLibrary;
    use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig};
    use lms_simt::ExecutorConfig;

    fn sampler(name: &str, population: usize, iterations: usize, seed: u64) -> MoscemSampler {
        let config = SamplerConfig::builder()
            .population_size(population)
            .n_complexes((population / 16).max(1))
            .iterations(iterations)
            .seed(seed)
            .build()
            .expect("valid test config");
        let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
        MoscemSampler::new(
            target,
            KnowledgeBase::build(KnowledgeBaseConfig::fast()),
            config,
        )
    }

    fn profile_of(s: &MoscemSampler, executor: &lms_simt::Executor) -> DeviceProfile {
        let result = s.run(executor);
        DeviceProfile::derive(&result, s.target(), s.config(), s.config().population_size)
    }

    impl DeviceProfile {
        fn kernel(&self, kind: KernelKind) -> Option<&KernelRow> {
            self.kernels.iter().find(|r| r.kind == kind)
        }
    }

    fn scalar() -> lms_simt::Executor {
        ExecutorConfig::scalar().build().unwrap()
    }

    fn parallel() -> lms_simt::Executor {
        ExecutorConfig::parallel().build().unwrap()
    }

    #[test]
    fn modeled_totals_match_the_pinned_trajectory() {
        // 1ixh, population 32, 4 iterations, seed 11: the totals the
        // sampler's in-loop accounting reported before the model moved
        // out of the run, and every row behind them, so a register or cycle
        // figure on the wrong kernel fails here.  The model reads only
        // counts, so both executors give the same numbers.
        use KernelKind::*;
        use TransferKind::*;
        // (kernel, calls, gpu_us, cpu_us, occupancy)
        #[rustfmt::skip]
        let kernels = [
            (Ccd, 5, 58411.410256410265, 18915.576923076922, 0.5),
            (EvalDist, 5, 5879.952516619183, 1895.3846153846155, 0.5),
            (EvalVdw, 5, 2807.7065527065533, 899.9769230769231, 0.5),
            (EvalTrip, 5, 56.936026936026934, 11.076923076923077, 0.75),
            (FitAssgPopulation, 5, 65.55555555555556, 17.723076923076924, 1.0),
            (FitAssgComplex, 4, 38.22222222222222, 7.0892307692307694, 1.0),
            (Reproduction, 4, 53.62962962962963, 14.76923076923077, 1.0),
            (Metropolis, 4, 25.185185185185183, 0.5907692307692308, 1.0),
            (Rebuild, 5, 150.5273069679849, 44.30769230769231, 0.625),
            (Select, 4, 28.74074074074074, 2.3630769230769233, 1.0),
        ];
        // (direction, calls, bytes, gpu_us)
        let transfers = [
            (HtoA, 10, 147824, 109.56479999999999),
            (HtoD, 21, 4352, 168.8704),
            (DtoA, 8, 13824, 64.09755822159492),
            (DtoH, 28, 10752, 226.15040000000002),
            (DtoD, 12, 4608, 96.03251940719832),
        ];
        let s = sampler("1ixh", 32, 4, 11);
        for executor in [scalar(), parallel()] {
            let p = profile_of(&s, &executor);
            let close = |got: f64, want: f64| ((got - want) / want).abs() < 1e-9;
            assert_eq!(p.kernels.len(), kernels.len());
            for (row, &(kind, calls, gpu_us, cpu_us, occupancy)) in p.kernels.iter().zip(&kernels) {
                assert_eq!((row.kind, row.calls), (kind, calls));
                assert!(close(row.gpu_us, gpu_us), "{kind:?} gpu {}", row.gpu_us);
                assert!(close(row.cpu_us, cpu_us), "{kind:?} cpu {}", row.cpu_us);
                assert!(
                    close(row.occupancy, occupancy),
                    "{kind:?} {}",
                    row.occupancy
                );
            }
            assert_eq!(p.transfers.len(), transfers.len());
            for (row, &(kind, calls, bytes, gpu_us)) in p.transfers.iter().zip(&transfers) {
                assert_eq!((row.kind, row.calls, row.bytes), (kind, calls, bytes));
                assert!(close(row.gpu_us, gpu_us), "{kind:?} {}", row.gpu_us);
            }
            assert!(close(p.gpu_us(), 68182.58167060213), "{}", p.gpu_us());
            assert!(close(p.cpu_us(), 21808.858461538464), "{}", p.cpu_us());
        }
    }

    #[test]
    fn table2_shape_matches_the_paper_end_to_end() {
        let s = sampler("1ixh", 32, 4, 11);
        let p = profile_of(&s, &parallel());
        // Table II ordering: CCD > DIST > VDW > TRIPLET in device time.
        let t = |k: KernelKind| p.kernel(k).unwrap().gpu_us;
        assert!(t(KernelKind::Ccd) > t(KernelKind::EvalDist));
        assert!(t(KernelKind::EvalDist) > t(KernelKind::EvalVdw));
        assert!(t(KernelKind::EvalVdw) > t(KernelKind::EvalTrip));
        // Fitness within the complex runs once per iteration.
        assert_eq!(p.kernel(KernelKind::FitAssgComplex).unwrap().calls, 4);
        // Table III: the register-heavy kernels sit at 50% occupancy.
        let occ = |k: KernelKind| p.kernel(k).unwrap().occupancy;
        assert!((occ(KernelKind::Ccd) - 0.5).abs() < 1e-9);
        assert!((occ(KernelKind::FitAssgPopulation) - 1.0).abs() < 1e-9);
        assert!(p.kernel(KernelKind::HealthSweep).is_none());
    }

    #[test]
    fn modeled_times_favor_the_device_at_large_population() {
        let s = sampler("1dim", 128, 1, 5);
        let p = profile_of(&s, &parallel());
        assert!(p.cpu_us() > 0.0);
        assert!(p.gpu_us() > 0.0);
        assert!(p.speedup() > 1.0);
    }

    #[test]
    fn profiler_records_the_papers_kernels_and_transfers() {
        let s = sampler("1ixh", 16, 2, 3);
        let p = profile_of(&s, &scalar());
        for kind in [
            KernelKind::Ccd,
            KernelKind::EvalDist,
            KernelKind::EvalVdw,
            KernelKind::EvalTrip,
            KernelKind::FitAssgPopulation,
            KernelKind::FitAssgComplex,
        ] {
            assert!(p.kernel(kind).is_some(), "missing kernel {kind:?}");
        }
        // CCD dominates device time, TRIPLET is negligible — Table II shape.
        let t = |k: KernelKind| p.kernel(k).unwrap().gpu_us;
        assert!(t(KernelKind::Ccd) > t(KernelKind::EvalDist));
        assert!(t(KernelKind::EvalDist) > t(KernelKind::EvalTrip));
        let kinds: Vec<TransferKind> = p.transfers.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&TransferKind::HtoA));
        assert!(kinds.contains(&TransferKind::DtoH));
        // Transfers are a small share of total device time.
        assert!(p.transfer_gpu_us() < 0.05 * p.gpu_us());
    }

    #[test]
    fn records_accumulate() {
        // A kernel's modeled time is its per-launch time times its calls:
        // two more iterations add two launches of the same per-thread work.
        let short = profile_of(&sampler("1cex", 16, 2, 9), &scalar());
        let long = profile_of(&sampler("1cex", 16, 4, 9), &scalar());
        for kind in [
            KernelKind::EvalDist,
            KernelKind::EvalVdw,
            KernelKind::Metropolis,
            KernelKind::FitAssgComplex,
        ] {
            let (a, b) = (short.kernel(kind).unwrap(), long.kernel(kind).unwrap());
            assert_eq!(b.calls, a.calls + 2, "{kind:?}");
            let per_call = |r: &KernelRow| r.gpu_us / r.calls as f64;
            assert!((per_call(a) - per_call(b)).abs() < 1e-9 * per_call(a));
        }
        assert!(long.gpu_us() > short.gpu_us());
        assert!(long.cpu_us() > short.cpu_us());
    }

    #[test]
    fn transfer_records_model_time() {
        let s = sampler("1cex", 16, 3, 4);
        let p = profile_of(&s, &scalar());
        let row = |k: TransferKind| *p.transfers.iter().find(|r| r.kind == k).unwrap();
        // Fixed start-up upload plus the per-iteration pattern.
        assert_eq!(row(TransferKind::HtoA).calls, 10);
        assert_eq!(row(TransferKind::HtoD).calls, 1 + 5 * 3);
        assert_eq!(row(TransferKind::DtoA).calls, 2 * 3);
        assert_eq!(row(TransferKind::DtoH).calls, 7 * 3);
        assert_eq!(row(TransferKind::DtoD).calls, 3 * 3);
        // Every copy pays at least the transfer latency, and the large
        // start-up uploads cost more than the per-iteration score reads.
        for r in &p.transfers {
            assert!(r.gpu_us > 0.0 && r.bytes > 0);
        }
        let per_copy = |r: TransferRow| r.gpu_us / r.calls as f64;
        assert!(per_copy(row(TransferKind::HtoA)) > per_copy(row(TransferKind::DtoH)));
    }

    #[test]
    fn table2_report_contains_rows_and_percentages() {
        let s = sampler("1cex", 16, 2, 8);
        let report = profile_of(&s, &scalar()).table2_report(scalar().capabilities());
        assert!(report.contains("[CCD]"));
        assert!(report.contains("[EvalDIST]"));
        assert!(report.contains("memcpyDtoH"));
        assert!(report.contains("% GPU"));
        assert!(!report.contains("[HealthSweep]"));
        // CCD should be the first (largest) kernel row.
        let ccd_pos = report.find("[CCD]").unwrap();
        let dist_pos = report.find("[EvalDIST]").unwrap();
        assert!(ccd_pos < dist_pos);
    }

    #[test]
    fn table2_report_leads_with_executor_capabilities() {
        let s = sampler("1cex", 16, 1, 8);
        let executor = scalar();
        let report = profile_of(&s, &executor).table2_report(executor.capabilities());
        assert!(
            report.starts_with("Executor: scalar (threads=1, ccd_block_width="),
            "report header names the backend:\n{report}"
        );
    }

    #[test]
    fn table3_report_matches_paper_occupancies() {
        let report = table3_report(LaunchConfig::for_population(15_360));
        assert!(report.contains("[CCD]"));
        assert!(!report.contains("[HealthSweep]"));
        assert!(
            report.contains("50%"),
            "register-bound kernels at 50%:\n{report}"
        );
        assert!(report.contains("75%"), "EvalTRIP at 75%:\n{report}");
        assert!(
            report.contains("100%"),
            "fitness kernels at 100%:\n{report}"
        );
    }
}
