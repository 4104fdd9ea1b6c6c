//! The measured stage record of one trajectory.
//!
//! The staged pipeline adds one row update per stage invocation: the
//! stage's launch count and the summed wall time of its
//! [`Executor::launch`](lms_simt::Executor::launch) calls (the
//! [`KernelLaunch::host`](lms_simt::KernelLaunch::host) duration), plus the
//! total number of CCD rotations the trajectory applied, the number of
//! residues the closures' start builds placed and reused, the number of
//! residues the VDW environment pass scored and skipped, and the summed
//! Pareto front size of the population fitness stage.  The record is a
//! fixed-size array updated on the host thread between launches: no lock,
//! no allocation.  Everything else — the paper's Figure 1 buckets here, the
//! modeled GTX 280 tables in the experiment harness — is derived from it
//! after the run.

use lms_simt::KernelKind;
use std::time::Duration;

/// One stage's measured row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRow {
    /// Number of stage invocations.
    pub calls: usize,
    /// Summed launch wall time of those invocations.
    pub wall: Duration,
}

/// Per-[`KernelKind`] measured rows of one trajectory, plus its total CCD
/// rotation count, its closure-start and VDW environment residue counts and
/// its summed population front size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRecord {
    /// Indexed by `KernelKind as usize` (declaration order, which is
    /// [`KernelKind::ALL`]'s order).
    rows: [StageRow; KernelKind::ALL.len()],
    ccd_rotations: u64,
    closure_residues_placed: u64,
    closure_residues_reused: u64,
    env_residues_scored: u64,
    env_residues_skipped: u64,
    front_size_sum: u64,
}

impl StageRecord {
    /// Add one invocation of stage `kind` that took `wall`.
    pub(crate) fn record(&mut self, kind: KernelKind, wall: Duration) {
        let row = &mut self.rows[kind as usize];
        row.calls += 1;
        row.wall += wall;
    }

    /// Add `rotations` applied CCD rotations to the trajectory total.
    pub(crate) fn add_ccd_rotations(&mut self, rotations: u64) {
        self.ccd_rotations += rotations;
    }

    /// Add one `[CCD]` launch's `residues` closure-start residues, of which
    /// `reused` were kept from the members' earlier builds and the rest
    /// placed.
    pub(crate) fn add_closure_residues(&mut self, residues: u64, reused: u64) {
        self.closure_residues_placed += residues - reused;
        self.closure_residues_reused += reused;
    }

    /// Add one `[EvalVdw]` launch's `residues` loop residues, of which
    /// `skipped` were resumed from member checkpoints and the rest summed
    /// against the environment.
    pub(crate) fn add_env_residues(&mut self, residues: u64, skipped: u64) {
        self.env_residues_scored += residues - skipped;
        self.env_residues_skipped += skipped;
    }

    /// Add one `[FitAssg] within Population` invocation's front size.
    pub(crate) fn add_front_size(&mut self, members: usize) {
        self.front_size_sum += members as u64;
    }

    /// The row of stage `kind` (zero when the stage never ran).
    pub fn row(&self, kind: KernelKind) -> StageRow {
        self.rows[kind as usize]
    }

    /// The stages that ran at least once, in [`KernelKind::ALL`] order.
    pub fn rows(&self) -> impl Iterator<Item = (KernelKind, StageRow)> + '_ {
        KernelKind::ALL
            .into_iter()
            .map(|kind| (kind, self.row(kind)))
            .filter(|(_, row)| row.calls > 0)
    }

    /// Total CCD rotations applied over the trajectory (initialisation
    /// rounds included).
    pub fn ccd_rotations(&self) -> u64 {
        self.ccd_rotations
    }

    /// Loop residues the closures' start builds placed (in full, or spine
    /// only from the CCD start residue on) over the trajectory: every
    /// residue of every initialisation closure included.
    pub fn closure_residues_placed(&self) -> u64 {
        self.closure_residues_placed
    }

    /// Loop residues the closures' start builds kept from the member's
    /// earlier build: per MCMC closure, the member's built prefix up to the
    /// candidate's CCD start residue.
    pub fn closure_residues_reused(&self) -> u64 {
        self.closure_residues_reused
    }

    /// Loop residues whose sites the VDW environment pass summed over the
    /// trajectory (every residue of every initial evaluation included).
    pub fn env_residues_scored(&self) -> u64 {
        self.env_residues_scored
    }

    /// Loop residues the VDW environment pass skipped by resuming from the
    /// member's checkpoint: per MCMC evaluation, the residue of the
    /// candidate's CCD start index.
    pub fn env_residues_skipped(&self) -> u64 {
        self.env_residues_skipped
    }

    /// The population's Pareto front size summed over the
    /// `[FitAssg] within Population` invocations (zero outside
    /// [`ObjectiveMode::MultiScoring`](crate::ObjectiveMode::MultiScoring)).
    /// Divided by that stage's calls it is the mean front size; the
    /// stage's second pass runs `(n − |front|) × |front|` dominance tests.
    pub fn front_size_sum(&self) -> u64 {
        self.front_size_sum
    }

    /// Summed wall time of every recorded stage.
    pub fn total_wall(&self) -> Duration {
        self.rows.iter().map(|r| r.wall).sum()
    }

    /// The paper's Figure 1 buckets as a view over the rows: CCD is
    /// `[CCD]`; scoring is `[Rebuild]` plus the three `Eval*` stages;
    /// fitness is `[FitAssg] within Population` and `[FitAssg] within
    /// Complex`; other is every remaining stage.
    pub fn components(&self) -> ComponentTimes {
        let mut c = ComponentTimes::default();
        for (kind, row) in self.rows() {
            let us = row.wall.as_secs_f64() * 1e6;
            match kind {
                KernelKind::Ccd => c.ccd_us += us,
                KernelKind::Rebuild
                | KernelKind::EvalVdw
                | KernelKind::EvalDist
                | KernelKind::EvalTrip => c.scoring_us += us,
                KernelKind::FitAssgPopulation | KernelKind::FitAssgComplex => c.fitness_us += us,
                _ => c.other_us += us,
            }
        }
        c
    }
}

/// Measured stage wall time in the paper's four Figure 1 buckets (a view
/// over a [`StageRecord`], see [`StageRecord::components`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentTimes {
    /// Time in CCD loop closure (µs).
    pub ccd_us: f64,
    /// Time in the rebuild readback and the scoring-function evaluations
    /// (µs).
    pub scoring_us: f64,
    /// Time in fitness assignment, population and complex (µs).
    pub fitness_us: f64,
    /// Every other stage: mutation, Metropolis, selection, health sweep
    /// (µs).
    pub other_us: f64,
}

impl ComponentTimes {
    /// Total accounted time (µs).
    pub fn total_us(&self) -> f64 {
        self.ccd_us + self.scoring_us + self.fitness_us + self.other_us
    }

    /// Fractions of the total in the order (CCD, scoring, fitness, other).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total_us().max(1e-12);
        [
            self.ccd_us / t,
            self.scoring_us / t,
            self.fitness_us / t,
            self.other_us / t,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_indexed_in_kernel_declaration_order() {
        for (i, kind) in KernelKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }

    #[test]
    fn record_accumulates_calls_wall_and_buckets() {
        let mut r = StageRecord::default();
        r.record(KernelKind::Ccd, Duration::from_micros(70));
        r.record(KernelKind::Ccd, Duration::from_micros(10));
        r.record(KernelKind::EvalDist, Duration::from_micros(15));
        r.record(KernelKind::FitAssgPopulation, Duration::from_micros(3));
        r.record(KernelKind::HealthSweep, Duration::from_micros(2));
        r.add_ccd_rotations(40);
        r.add_ccd_rotations(2);
        r.add_env_residues(24, 4);
        r.add_env_residues(12, 5);
        r.add_closure_residues(24, 0);
        r.add_closure_residues(12, 7);
        r.add_front_size(7);
        r.add_front_size(3);
        assert_eq!(r.row(KernelKind::Ccd).calls, 2);
        assert_eq!(r.row(KernelKind::Ccd).wall, Duration::from_micros(80));
        assert_eq!(r.row(KernelKind::Select), StageRow::default());
        assert_eq!(r.ccd_rotations(), 42);
        assert_eq!((r.env_residues_scored(), r.env_residues_skipped()), (27, 9));
        assert_eq!(
            (r.closure_residues_placed(), r.closure_residues_reused()),
            (29, 7)
        );
        assert_eq!(r.front_size_sum(), 10);
        assert_eq!(r.total_wall(), Duration::from_micros(100));
        let kinds: Vec<KernelKind> = r.rows().map(|(k, _)| k).collect();
        assert_eq!(
            kinds,
            [
                KernelKind::Ccd,
                KernelKind::EvalDist,
                KernelKind::FitAssgPopulation,
                KernelKind::HealthSweep
            ]
        );
        let c = r.components();
        assert!((c.ccd_us - 80.0).abs() < 1e-9);
        assert!((c.scoring_us - 15.0).abs() < 1e-9);
        assert!((c.fitness_us - 3.0).abs() < 1e-9);
        assert!((c.other_us - 2.0).abs() < 1e-9);
        assert!((c.total_us() - 100.0).abs() < 1e-9);
    }
}
