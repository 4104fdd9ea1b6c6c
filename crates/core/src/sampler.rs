//! The MOSCEM multi-scoring-functions loop sampler.
//!
//! This module is the paper's core contribution: a population-based
//! multi-objective MCMC sampler over the loop torsion space.  One sampling
//! *trajectory* follows the paper's pseudo-code:
//!
//! 1. **Initialization** — every population member gets random torsions,
//!    is closed with CCD and scored with the three scoring functions.
//! 2. **Iterations** — fitness assignment (Eq. 1) over the population,
//!    sorting and stride-partition into complexes (host side), then the
//!    per-conformation evolution kernel (mutation → CCD → scoring →
//!    Metropolis against the complex), reassembly, and adaptive temperature
//!    adjustment.  Under Eq. 1 the `[FitAssg] within Complex` kernel
//!    writes, per sorted position, the member's front flag, strength and
//!    fitness within its complex: Metropolis evaluates only the candidate
//!    against that table and reads the current member's fitness from it.
//!
//! The per-conformation work is expressed as kernels over the population and
//! executed by an [`Executor`] — sequentially (the CPU baseline) or
//! data-parallel (the device role).  The staged pipeline records only
//! measurements: one [`StageRecord`] row update per stage invocation (launch
//! count and launch wall time) plus the trajectory's CCD rotation count.
//! The experiment harness derives the paper's modeled GPU-vs-CPU timings
//! from that record after the run.  The per-member oracle the staged
//! pipeline must match bit for bit lives in [`crate::reference`].

use crate::arena::{store_checkpoint, MemberSlot, PopulationArena};
use crate::config::{InitMode, NumericGuard, ObjectiveMode, SamplerConfig};
use crate::conformation::Conformation;
use crate::decoyset::DecoySet;
use crate::error::{ConfigError, Error};
use crate::mutation::Mutator;
use crate::pareto::{
    fitness_against_table, member_fitness, non_dominated_indices, strength_and_front,
};
use crate::stages::StageRecord;
use lms_closure::{CcdCloser, CcdLane};
use lms_geometry::{random_torsion, StreamRngFactory};
use lms_protein::{LoopBuilder, LoopTarget, RamaClass, RamaLibrary, Torsions};
use lms_scoring::{EnvResume, KnowledgeBase, MultiScorer, ScoreVector, ScratchPool};
use lms_simt::{Executor, KernelKind, KernelLaunch, SharedLanes, MAX_CCD_BLOCK_WIDTH};
use rand::Rng;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative controls threaded through one trajectory run: an optional
/// cancellation flag (checked between iterations), an optional per-iteration
/// progress callback, and an optional [`ScratchPool`] to lease the
/// population's scoring workspaces from (the engine passes its shared pool
/// here so consecutive jobs reuse warm buffers).
///
/// `RunControls::default()` is a no-op: with no controls set,
/// [`MoscemSampler::run_controlled`] behaves exactly like
/// [`MoscemSampler::run_with_seed`] and cannot fail.
#[derive(Clone, Copy, Default)]
pub struct RunControls<'a> {
    cancel: Option<&'a AtomicBool>,
    progress: Option<&'a (dyn Fn(usize, usize) + Sync)>,
    scratch_pool: Option<&'a ScratchPool>,
}

impl fmt::Debug for RunControls<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControls")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("progress", &self.progress.is_some())
            .field("scratch_pool", &self.scratch_pool.is_some())
            .finish()
    }
}

impl<'a> RunControls<'a> {
    /// No controls: equivalent to an unconditional run.
    pub fn new() -> Self {
        RunControls::default()
    }

    /// Observe `flag` between iterations; when it becomes `true` the run
    /// stops and returns [`Error::Cancelled`].
    #[must_use]
    pub fn cancel_flag(mut self, flag: &'a AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Call `f(completed_iterations, total_iterations)` after initialisation
    /// and after every completed iteration.
    #[must_use]
    pub fn progress(mut self, f: &'a (dyn Fn(usize, usize) + Sync)) -> Self {
        self.progress = Some(f);
        self
    }

    /// Lease the population's scoring scratches from `pool` instead of
    /// allocating fresh ones, returning them when the run ends (including
    /// on cancellation).
    #[must_use]
    pub fn scratch_pool(mut self, pool: &'a ScratchPool) -> Self {
        self.scratch_pool = Some(pool);
        self
    }
}

/// A snapshot of the population at a chosen iteration (Figure 5 data).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationSnapshot {
    /// Iteration index (0 = the initial population).
    pub iteration: usize,
    /// Number of non-dominated conformations in the population.
    pub non_dominated_count: usize,
    /// `(scores, rmsd_to_native)` of each non-dominated conformation.
    pub front: Vec<(ScoreVector, f64)>,
    /// Best RMSD to native anywhere in the population (Å).
    pub best_rmsd: f64,
    /// Metropolis temperature at the snapshot.
    pub temperature: f64,
}

/// The result of one sampling trajectory.
#[derive(Debug, Clone)]
#[must_use]
pub struct TrajectoryResult {
    /// Final population.
    pub population: Vec<Conformation>,
    /// Snapshots at the configured iterations.
    pub snapshots: Vec<IterationSnapshot>,
    /// Measured per-stage launch counts and wall times, plus the total CCD
    /// rotation count.  Empty for the per-member oracle
    /// ([`MoscemSampler::run_reference_with_seed`]), which launches no
    /// kernels.
    pub stages: StageRecord,
    /// Measured wall-clock duration of the trajectory on the host.
    pub host_wall: Duration,
    /// Final Metropolis temperature.
    pub final_temperature: f64,
    /// Overall acceptance rate across all proposals.
    pub acceptance_rate: f64,
    /// Per-complex trace of the mean VDW score after every iteration; the
    /// complexes act as parallel chains for convergence diagnostics.
    pub complex_traces: Vec<Vec<f64>>,
}

impl TrajectoryResult {
    /// Number of non-dominated conformations in the final population.
    pub fn non_dominated_count(&self) -> usize {
        let scores: Vec<ScoreVector> = self.population.iter().map(|c| c.scores).collect();
        non_dominated_indices(&scores).len()
    }

    /// Best RMSD to native anywhere in the final population (Å).
    pub fn best_rmsd(&self) -> f64 {
        self.population
            .iter()
            .map(|c| c.rmsd_to_native)
            .fold(f64::INFINITY, f64::min)
    }

    /// Harvest this trajectory's distinct non-dominated conformations into a
    /// decoy set, tagging them with `trajectory_index`.
    pub fn harvest_into(&self, set: &mut DecoySet, trajectory_index: usize) -> usize {
        set.harvest_population(&self.population, trajectory_index)
    }

    /// Gelman–Rubin R̂ of the per-complex mean VDW traces — the "MCMC
    /// equilibrium analysis" the paper alludes to.  `None` when the run had
    /// fewer than two complexes or two iterations.
    pub fn gelman_rubin_vdw(&self) -> Option<f64> {
        crate::convergence::gelman_rubin(&self.complex_traces)
    }
}

/// Outcome of the decoy-production protocol (repeated trajectories until
/// the decoy set reaches its target size).
#[derive(Debug)]
#[must_use]
pub struct DecoyProduction {
    /// The accumulated decoy set.
    pub decoys: DecoySet,
    /// Number of trajectories that were run.
    pub trajectories_run: usize,
    /// Per-trajectory results.
    pub trajectories: Vec<TrajectoryResult>,
}

/// The MOSCEM multi-scoring-functions loop sampler.
#[derive(Debug, Clone)]
pub struct MoscemSampler {
    target: LoopTarget,
    pub(crate) scorer: MultiScorer,
    config: SamplerConfig,
    pub(crate) builder: LoopBuilder,
    pub(crate) mutator: Mutator,
}

impl MoscemSampler {
    /// Create a sampler for one target over a pre-built knowledge base,
    /// rejecting invalid configurations with a typed error.
    pub fn try_new(
        target: LoopTarget,
        kb: Arc<KnowledgeBase>,
        config: SamplerConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(MoscemSampler {
            target,
            scorer: MultiScorer::new(kb).with_burial(config.burial_objective),
            mutator: Mutator::new(config.mutation.clone()),
            config,
            builder: LoopBuilder::default(),
        })
    }

    /// Create a sampler for one target over a pre-built knowledge base.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid; use
    /// [`MoscemSampler::try_new`] for a `Result`.
    pub fn new(target: LoopTarget, kb: Arc<KnowledgeBase>, config: SamplerConfig) -> Self {
        Self::try_new(target, kb, config).expect("invalid sampler configuration")
    }

    /// The sampling configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// The loop target being sampled.
    pub fn target(&self) -> &LoopTarget {
        &self.target
    }

    /// Run one sampling trajectory with the configured seed.
    pub fn run(&self, executor: &Executor) -> TrajectoryResult {
        self.run_with_seed(executor, self.config.seed)
    }

    /// Run one sampling trajectory with an explicit seed (used when
    /// repeating trajectories to fill a decoy set).
    ///
    /// # Panics
    ///
    /// With default [`JobLimits`](crate::JobLimits) and
    /// [`NumericGuard`] settings this cannot fail;
    /// when the config sets limits or the guard aborts the run, the typed
    /// error surfaces as a panic here — use
    /// [`MoscemSampler::run_controlled`] to handle those errors.
    pub fn run_with_seed(&self, executor: &Executor, seed: u64) -> TrajectoryResult {
        self.run_controlled(executor, seed, &RunControls::new())
            .expect("a run without controls can only fail when JobLimits or NumericGuard abort it")
    }

    /// Run one sampling trajectory under cooperative [`RunControls`]
    /// through the **staged population-batched kernel pipeline**: all member
    /// state lives in the flat SoA [`PopulationArena`] and every iteration
    /// issues one population-wide kernel launch per stage — `mutate`
    /// ([`KernelKind::Reproduction`]), `close` ([`KernelKind::Ccd`],
    /// lockstep blocks with batched optimal-rotation inner products),
    /// `rebuild` ([`KernelKind::Rebuild`], observable readback), `score`
    /// (one launch per objective kernel), `metropolis` and `select` — via
    /// [`Executor::launch`], exactly the paper's device execution shape.
    ///
    /// Because every conformation draws all randomness from its own
    /// `(member, iteration)` stream, the staged pipeline is
    /// **bit-identical** to the per-member reference implementation
    /// ([`MoscemSampler::run_reference_with_seed`]); the equivalence is
    /// property-tested across executors and objective modes in
    /// `tests/batched_equivalence.rs`.  With empty controls this is exactly
    /// [`MoscemSampler::run_with_seed`] — the controls never touch the
    /// random streams.
    ///
    /// After the first iteration warms the arena up, a whole staged
    /// iteration performs no heap allocation (`tests/zero_alloc.rs`).
    pub fn run_controlled(
        &self,
        executor: &Executor,
        seed: u64,
        controls: &RunControls,
    ) -> Result<TrajectoryResult, Error> {
        let cfg = &self.config;
        let wall_start = Instant::now();
        let deadline = cfg.limits.deadline.map(|d| (wall_start + d, d));
        Self::check_boundary(controls, deadline, 0)?;
        // Warm the per-target environment-candidate cache on the host thread
        // before the population kernels fan out, then allocate the arena —
        // the only allocations of the whole trajectory.
        self.target.env_candidates();
        let mut arena = PopulationArena::new(
            cfg.population_size,
            self.target.n_residues(),
            cfg.mutation.max_mutations,
            cfg.n_complexes,
            controls.scratch_pool,
            executor.ccd_block_width(),
        );
        // Every exit from here on, early or not, returns the leased scratches.
        let run = self.run_staged(executor, seed, controls, deadline, &mut arena);
        arena.release_scratches(controls.scratch_pool);
        let mut result = run?;
        result.population = arena.into_population();
        result.host_wall = wall_start.elapsed();
        Ok(result)
    }

    /// The body of [`MoscemSampler::run_controlled`] over an allocated
    /// arena.  Returns everything but the final population and the host
    /// wall time, which the caller fills in after the scratches are back.
    fn run_staged(
        &self,
        executor: &Executor,
        seed: u64,
        controls: &RunControls,
        deadline: Option<(Instant, Duration)>,
        arena: &mut PopulationArena,
    ) -> Result<TrajectoryResult, Error> {
        let cfg = &self.config;
        let n = cfg.population_size;
        let classes: Vec<RamaClass> = self
            .target
            .sequence
            .iter()
            .map(|aa| aa.rama_class())
            .collect();
        let factory = StreamRngFactory::new(seed);
        let closer = CcdCloser::new(self.builder, cfg.ccd);
        let mut stall_streak = 0usize;
        let mut stages = StageRecord::default();
        let mut snapshots = Vec::new();
        let mut total_proposed = 0usize;
        let mut total_accepted = 0usize;
        let stride = arena.stride();

        // --- Initialization: staged sample/close rounds over the whole
        // population, then the rebuild/score kernels. ----------------------
        let init_factory = factory.derive(0xC0);
        let rama = RamaLibrary::default();
        let init_mode = cfg.init_mode;
        let max_closure = cfg.max_closure_deviation;

        // The init rounds together make one `[CCD]` stage invocation.
        let mut init_close = Duration::ZERO;
        for round in 0..4usize {
            // The loop-closure condition gates everything downstream; a
            // member redraws (deterministically from its own stream) while
            // CCD stalls above the bound, up to three times — the same
            // retry discipline as the reference, expressed as masked
            // population-wide rounds.
            if round > 0 && arena.cand_closure_dev.iter().all(|&d| d <= max_closure) {
                break;
            }
            {
                let slots = SharedLanes::new(&mut arena.slots);
                let rngs = SharedLanes::new(&mut arena.rngs);
                let devs = &arena.cand_closure_dev;
                // Initial sampling is not a recorded stage: `[Reproduction]`
                // counts the mutation launches, one per iteration.
                let _ = executor.launch(KernelKind::Reproduction, n, |i| {
                    if round > 0 && devs[i] <= max_closure {
                        return;
                    }
                    // SAFETY: kernel i touches only member i's slot/stream.
                    let slot = unsafe { slots.item_mut(i) };
                    let rng = unsafe { rngs.item_mut(i) };
                    if round == 0 {
                        *rng = init_factory.stream(i as u64, 0);
                    }
                    sample_initial_torsions(init_mode, &classes, &rama, &mut slot.cand, rng);
                    #[cfg(feature = "fault-injection")]
                    if lms_simt::fault::take_nan() {
                        slot.cand.set_angle(0, f64::NAN);
                    }
                });
            }
            let (close, rotations) = self.stage_close(
                executor,
                arena,
                &closer,
                if round > 0 { Some(max_closure) } else { None },
                Some(cfg.ccd.start_index),
            );
            init_close += close.host;
            stages.add_ccd_rotations(rotations);
        }
        stages.record(KernelKind::Ccd, init_close);
        // The init rounds score in full: no member has a checkpoint yet.
        let (launches, skipped) = self.stage_rebuild_and_score(executor, arena, false);
        for launch in launches {
            stages.record(launch.kind, launch.host);
        }
        stages.add_env_residues((n * arena.n_residues()) as u64, skipped);
        // The candidates' checkpoint rows become the members' now, so that
        // the quarantine below re-seeds a poisoned member's checkpoint from
        // its donor together with its other lanes.
        let n_res = arena.n_residues();
        for ((slot, totals), counts) in arena
            .slots
            .iter()
            .zip(arena.env_totals.chunks_exact_mut(n_res + 1))
            .zip(arena.burial_counts.chunks_exact_mut(n_res))
        {
            store_checkpoint(&slot.scratch, totals, counts);
        }
        // Numerical health sweep over the freshly scored candidates before
        // they become the population.
        let sweep = self.stage_health(executor, arena);
        stages.record(sweep.kind, sweep.host);
        self.quarantine_or_fail(arena, 0)?;
        // Initialization writes the population: the closed, scored
        // candidates become the members' current state.
        arena.torsions.copy_from_slice(&arena.cand_torsions);
        arena.scores.copy_from_slice(&arena.cand_scores);
        arena.closure_dev.copy_from_slice(&arena.cand_closure_dev);
        arena.rmsd.copy_from_slice(&arena.cand_rmsd);

        // --- Initial fitness + snapshot 0 ----------------------------------
        let mut temperature_controller = cfg.temperature.controller();
        let mut temperature = temperature_controller.temperature();
        // `vec![v; n]` clones would drop the reserved capacity — build each
        // trace buffer explicitly so steady-state pushes never reallocate.
        let mut complex_traces: Vec<Vec<f64>> = (0..cfg.n_complexes)
            .map(|_| Vec::with_capacity(cfg.iterations))
            .collect();
        self.stage_fitness(executor, arena, &mut stages);
        if cfg.snapshot_iterations.contains(&0) {
            snapshots.push(snapshot(0, &arena.scores, &arena.rmsd, temperature));
        }
        if let Some(report) = controls.progress {
            report(0, cfg.iterations);
        }

        // --- MCMC iterations: one kernel launch per stage per iteration ---
        let evo_factory = factory.derive(1);
        let mode = cfg.objective_mode;
        let m_complexes = cfg.n_complexes;
        for iter in 1..=cfg.iterations {
            Self::check_boundary(controls, deadline, iter - 1)?;
            // Sorting (best fitness first) and stride partition into
            // complexes stay on the host, writing the arena's reusable
            // order / CSR-partition buffers.  The unstable sort breaks
            // fitness ties by member index, which reproduces the stable
            // reference sort's permutation exactly.
            {
                let (order, fitness) = (&mut arena.order, &arena.fitness);
                order.clear();
                order.extend(0..n);
                order.sort_unstable_by(|&a, &b| {
                    fitness[a]
                        .partial_cmp(&fitness[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
            for (pos, &idx) in arena.order.iter().enumerate() {
                let c = pos % m_complexes;
                let slot = arena.complex_offsets[c] + pos / m_complexes;
                arena.complex_of[idx] = c;
                arena.complex_pos[idx] = slot;
                arena.complex_scores[slot] = arena.scores[idx];
            }
            // Only Eq. 1 Metropolis reads the per-complex fitness table.
            if matches!(mode, ObjectiveMode::MultiScoring) {
                stages.record(
                    KernelKind::FitAssgComplex,
                    Self::stage_complex_fitness(executor, arena),
                );
            }

            // Stage 1 — mutate: seed the (member, iteration) stream, load
            // the member's torsion lane and propose a candidate.
            {
                let slots = SharedLanes::new(&mut arena.slots);
                let rngs = SharedLanes::new(&mut arena.rngs);
                let starts = SharedLanes::new(&mut arena.ccd_start);
                let cur = &arena.torsions;
                let mutate = executor.launch(KernelKind::Reproduction, n, |i| {
                    // SAFETY: kernel i touches only member i's lanes.
                    let slot = unsafe { slots.item_mut(i) };
                    let rng = unsafe { rngs.item_mut(i) };
                    *rng = evo_factory.stream(i as u64, iter as u64);
                    slot.cand.copy_from_flat(&cur[i * stride..(i + 1) * stride]);
                    let start = self.mutator.mutate_in_place(
                        &mut slot.cand,
                        &classes,
                        rng,
                        &mut slot.mut_indices,
                    );
                    *unsafe { starts.item_mut(i) } = start;
                    // The poisoned torsion is the first one, so CCD and the
                    // resumed VDW pass start there too.
                    #[cfg(feature = "fault-injection")]
                    if lms_simt::fault::take_nan() {
                        slot.cand.set_angle(0, f64::NAN);
                        *unsafe { starts.item_mut(i) } = 0;
                    }
                });
                stages.record(mutate.kind, mutate.host);
            }

            // Stage 2 — close: lockstep CCD blocks with batched
            // optimal-rotation inner products.
            let (close, rotations) = self.stage_close(executor, arena, &closer, None, None);
            stages.record(close.kind, close.host);
            stages.add_ccd_rotations(rotations);
            // Closure stall guard: a streak of iterations in which not a
            // single member's CCD converged means the sampler is burning
            // its budget without making progress.
            if let Some(limit) = cfg.limits.max_closure_stall {
                if arena.cand_converged.iter().any(|&c| c) {
                    stall_streak = 0;
                } else {
                    stall_streak += 1;
                    if stall_streak >= limit {
                        return Err(Error::Stalled {
                            streak: stall_streak,
                            limit,
                            completed_iterations: iter - 1,
                        });
                    }
                }
            }

            // Stages 3 + 4 — rebuild (observable readback) and the three
            // scoring kernels, one population-wide launch each; the VDW
            // environment term resumes from each member's checkpoint.
            let (launches, skipped) = self.stage_rebuild_and_score(executor, arena, true);
            for launch in launches {
                stages.record(launch.kind, launch.host);
            }
            stages.add_env_residues((n * arena.n_residues()) as u64, skipped);

            // Numerical health sweep: poisoned candidates are quarantined
            // (force-rejected without touching the member's stream) or fail
            // the job, per the configured guard policy — before the
            // Metropolis stage can let NaN into the population.
            let sweep = self.stage_health(executor, arena);
            stages.record(sweep.kind, sweep.host);
            self.quarantine_or_fail(arena, iter)?;

            // Stage 5 — Metropolis against the member's complex snapshot,
            // on the stream the mutate stage advanced.  Under Eq. 1 only the
            // candidate is evaluated against the table: the member's own
            // fitness within its complex is the table's fitness lane.
            {
                let rngs = SharedLanes::new(&mut arena.rngs);
                let accepted = SharedLanes::new(&mut arena.accepted);
                let scores = &arena.scores;
                let cand_scores = &arena.cand_scores;
                let cand_dev = &arena.cand_closure_dev;
                let complex_of = &arena.complex_of;
                let complex_scores = &arena.complex_scores;
                let complex_strength = &arena.complex_strength;
                let complex_front = &arena.complex_front;
                let complex_fitness = &arena.complex_fitness;
                let complex_pos = &arena.complex_pos;
                let offsets = &arena.complex_offsets;
                let temperature_now = temperature;
                let met = executor.launch(KernelKind::Metropolis, n, |i| {
                    // Candidates that CCD could not bring back to the anchor
                    // are rejected outright (an open loop scores deceptively
                    // well by drifting off the protein).
                    let accept = if cand_dev[i] > max_closure {
                        false
                    } else {
                        let c = complex_of[i];
                        let (lo, hi) = (offsets[c], offsets[c + 1]);
                        let reference = &complex_scores[lo..hi];
                        let strength = &complex_strength[lo..hi];
                        let front = &complex_front[lo..hi];
                        let cand_fit = candidate_fitness(mode, &cand_scores[i], |s| {
                            fitness_against_table(s, reference, strength, front)
                        });
                        let curr_fit = candidate_fitness(mode, &scores[i], |_| {
                            complex_fitness[complex_pos[i]]
                        });
                        if cand_fit <= curr_fit {
                            true
                        } else {
                            let p = ((curr_fit - cand_fit) / temperature_now).exp();
                            // SAFETY: kernel i touches only member i's stream.
                            unsafe { rngs.item_mut(i) }.gen::<f64>() < p
                        }
                    };
                    *unsafe { accepted.item_mut(i) } = accept;
                });
                stages.record(met.kind, met.host);
            }

            // Stage 6 — select: accepted candidates overwrite their
            // members' lanes, the VDW checkpoint included.
            {
                let n_res = arena.n_residues();
                let cur = SharedLanes::new(&mut arena.torsions);
                let env_totals = SharedLanes::new(&mut arena.env_totals);
                let burial_counts = SharedLanes::new(&mut arena.burial_counts);
                let slots = &arena.slots;
                let scores = SharedLanes::new(&mut arena.scores);
                let devs = SharedLanes::new(&mut arena.closure_dev);
                let rmsds = SharedLanes::new(&mut arena.rmsd);
                let proposed = SharedLanes::new(&mut arena.proposed_moves);
                let accepted_moves = SharedLanes::new(&mut arena.accepted_moves);
                let accepted = &arena.accepted;
                let cand = &arena.cand_torsions;
                let cand_scores = &arena.cand_scores;
                let cand_dev = &arena.cand_closure_dev;
                let cand_rmsd = &arena.cand_rmsd;
                let select = executor.launch(KernelKind::Select, n, |i| {
                    // SAFETY: kernel i touches only member i's lanes.
                    *unsafe { proposed.item_mut(i) } += 1;
                    if accepted[i] {
                        unsafe { cur.lane_mut(i * stride, stride) }
                            .copy_from_slice(&cand[i * stride..(i + 1) * stride]);
                        *unsafe { scores.item_mut(i) } = cand_scores[i];
                        *unsafe { devs.item_mut(i) } = cand_dev[i];
                        *unsafe { rmsds.item_mut(i) } = cand_rmsd[i];
                        store_checkpoint(
                            &slots[i].scratch,
                            unsafe { env_totals.lane_mut(i * (n_res + 1), n_res + 1) },
                            unsafe { burial_counts.lane_mut(i * n_res, n_res) },
                        );
                        *unsafe { accepted_moves.item_mut(i) } += 1;
                    }
                });
                stages.record(select.kind, select.host);
            }

            // Acceptance statistics and adaptive temperature.
            let accepted_now = arena.accepted.iter().filter(|&&a| a).count();
            total_accepted += accepted_now;
            total_proposed += n;
            let rate = accepted_now as f64 / n as f64;
            temperature = temperature_controller.update(rate);

            // Per-complex mean VDW trace for convergence diagnostics.
            for s in arena.trace_sums.iter_mut() {
                *s = (0.0, 0);
            }
            for i in 0..n {
                let c = arena.complex_of[i];
                arena.trace_sums[c].0 += arena.scores[i].vdw();
                arena.trace_sums[c].1 += 1;
            }
            for (c, &(sum, count)) in arena.trace_sums.iter().enumerate() {
                complex_traces[c].push(if count == 0 { 0.0 } else { sum / count as f64 });
            }

            // Population-wide fitness for the next iteration's sorting.
            self.stage_fitness(executor, arena, &mut stages);

            if cfg.snapshot_iterations.contains(&iter) {
                snapshots.push(snapshot(iter, &arena.scores, &arena.rmsd, temperature));
            }
            if let Some(report) = controls.progress {
                report(iter, cfg.iterations);
            }
        }

        Ok(TrajectoryResult {
            population: Vec::new(),
            snapshots,
            stages,
            host_wall: Duration::ZERO,
            final_temperature: temperature,
            acceptance_rate: if total_proposed == 0 {
                0.0
            } else {
                total_accepted as f64 / total_proposed as f64
            },
            complex_traces,
        })
    }

    /// The staged `close` kernel: one launch over the arena's lockstep
    /// blocks, each block closing up to
    /// [`ccd_block_width`](PopulationArena::ccd_block_width) members
    /// together (the executor backend's reported width) with batched
    /// optimal-rotation inner products.
    ///
    /// `mask_above` restricts the launch to members whose candidate closure
    /// deviation still exceeds the bound (the init retry rounds);
    /// `start_override` forces one CCD start index for every lane (init)
    /// instead of the per-member mutated index.  Returns the launch and the
    /// number of CCD rotations its lanes applied.
    fn stage_close(
        &self,
        executor: &Executor,
        arena: &mut PopulationArena,
        closer: &CcdCloser,
        mask_above: Option<f64>,
        start_override: Option<usize>,
    ) -> (KernelLaunch, u64) {
        let n = arena.n_members();
        let n_blocks = arena.n_blocks();
        let width = arena.ccd_block_width();
        debug_assert!(width <= MAX_CCD_BLOCK_WIDTH);
        let slots = SharedLanes::new(&mut arena.slots);
        let blocks = SharedLanes::new(&mut arena.ccd_blocks);
        let devs = SharedLanes::new(&mut arena.cand_closure_dev);
        let converged = SharedLanes::new(&mut arena.cand_converged);
        let starts = &arena.ccd_start;
        let rotations = AtomicU64::new(0);
        let launch = executor.launch(KernelKind::Ccd, n_blocks, |b| {
            let lo = b * width;
            let hi = (lo + width).min(n);
            // SAFETY: kernel b touches only block b's scratch and the
            // slots/lanes of members [lo, hi).
            let scratch = unsafe { blocks.item_mut(b) };
            // Stack staging is sized for the widest configurable block
            // (ExecutorConfig validation caps `width` at
            // MAX_CCD_BLOCK_WIDTH); only the first `hi - lo` entries are
            // ever touched.
            let mut store: [MaybeUninit<CcdLane>; MAX_CCD_BLOCK_WIDTH] =
                [const { MaybeUninit::uninit() }; MAX_CCD_BLOCK_WIDTH];
            let mut ids = [0usize; MAX_CCD_BLOCK_WIDTH];
            let mut count = 0usize;
            // Raw indexing is the deliberate kernel idiom here: `i` is the
            // device thread id addressing several parallel SoA buffers.
            #[allow(clippy::needless_range_loop)]
            for i in lo..hi {
                if let Some(bound) = mask_above {
                    if *unsafe { devs.item_mut(i) } <= bound {
                        continue;
                    }
                }
                let slot = unsafe { slots.item_mut(i) };
                let MemberSlot {
                    cand, structure, ..
                } = slot;
                store[count] = MaybeUninit::new(CcdLane {
                    torsions: cand,
                    structure,
                    start_index: start_override.unwrap_or(starts[i]),
                });
                ids[count] = i;
                count += 1;
            }
            // SAFETY: the first `count` entries are initialised, and
            // `CcdLane` holds only references (no Drop obligations).
            let lanes = unsafe {
                std::slice::from_raw_parts_mut(store.as_mut_ptr().cast::<CcdLane>(), count)
            };
            closer.close_batch(&self.target.frame, &self.target.sequence, lanes, scratch);
            let mut block_rotations = 0u64;
            for (j, &i) in ids[..count].iter().enumerate() {
                let res = scratch.results()[j];
                *unsafe { devs.item_mut(i) } = res.final_deviation;
                *unsafe { converged.item_mut(i) } = res.converged;
                block_rotations += res.rotations_applied as u64;
            }
            // Relaxed: a count that publishes no other data, read after the
            // launch has joined every block.
            rotations.fetch_add(block_rotations, Ordering::Relaxed);
            #[cfg(feature = "fault-injection")]
            if lms_simt::fault::take_nan() {
                *unsafe { devs.item_mut(lo) } = f64::NAN;
            }
        });
        (launch, rotations.into_inner())
    }

    /// The staged `rebuild` and `score` kernels: observable readback (RMSD
    /// to native, candidate-lane writeback) followed by one population-wide
    /// launch per objective kernel; returns the four launches in that
    /// order and the number of environment residues the VDW kernel
    /// skipped.  With the burial objective on, the VDW kernel also fills
    /// the member's contact counts; DIST and TRIPLET depend on no other
    /// pass.
    ///
    /// With `resume`, each member's VDW environment term starts at the
    /// residue of its CCD start index from the member's checkpoint lanes:
    /// the candidate agrees with the member on every torsion below that
    /// index, so every residue before it has the member's coordinates.
    /// Without it (the init rounds) every pass is full.
    fn stage_rebuild_and_score(
        &self,
        executor: &Executor,
        arena: &mut PopulationArena,
        resume: bool,
    ) -> ([KernelLaunch; 4], u64) {
        let n = arena.n_members();
        let stride = arena.stride();
        let n_res = arena.n_residues();
        let starts = &arena.ccd_start;
        let resume_residue = |i: usize| {
            if resume {
                Torsions::describe_angle(starts[i]).0
            } else {
                0
            }
        };
        let skipped = (0..n).map(|i| resume_residue(i) as u64).sum();
        // Rebuild: RMSD observable + candidate torsion lane readback.
        let rebuild = {
            let slots = SharedLanes::new(&mut arena.slots);
            let rmsds = SharedLanes::new(&mut arena.cand_rmsd);
            let cand_flat = SharedLanes::new(&mut arena.cand_torsions);
            executor.launch(KernelKind::Rebuild, n, |i| {
                // SAFETY: kernel i touches only member i's slot and lanes.
                let slot = unsafe { slots.item_mut(i) };
                *unsafe { rmsds.item_mut(i) } = self.target.rmsd_to_native(&slot.structure);
                unsafe { cand_flat.lane_mut(i * stride, stride) }
                    .copy_from_slice(slot.cand.as_slice());
                #[cfg(feature = "fault-injection")]
                if lms_simt::fault::take_nan() {
                    *unsafe { rmsds.item_mut(i) } = f64::NAN;
                }
            })
        };

        // Score: one launch per objective kernel in canonical order.
        let (env_totals, burial_counts) = (&arena.env_totals, &arena.burial_counts);
        let mut score = |kind: KernelKind| {
            let slots = SharedLanes::new(&mut arena.slots);
            let outs = SharedLanes::new(&mut arena.cand_scores);
            executor.launch(kind, n, |i| {
                // SAFETY: kernel i touches only member i's slot/lanes.
                let slot = unsafe { slots.item_mut(i) };
                let MemberSlot {
                    structure,
                    scratch,
                    cand,
                    #[cfg(debug_assertions)]
                    check,
                    ..
                } = slot;
                let sv = unsafe { outs.item_mut(i) };
                let mut a = sv.as_array();
                match kind {
                    KernelKind::EvalVdw => {
                        let from = EnvResume::new(
                            resume_residue(i),
                            &env_totals[i * (n_res + 1)..(i + 1) * (n_res + 1)],
                            &burial_counts[i * n_res..(i + 1) * n_res],
                        );
                        let (vdw, burial) =
                            self.scorer
                                .vdw_pass_from(&self.target, structure, scratch, from);
                        // Debug builds check the prefix invariant on every
                        // resumed evaluation against the full pass.
                        #[cfg(debug_assertions)]
                        if from.residue() > 0 {
                            let full = self.scorer.vdw_pass(&self.target, structure, check);
                            assert_resume_is_exact(i, from, (vdw, burial), scratch, full, check);
                        }
                        a[0] = vdw;
                        a[3] = burial;
                    }
                    KernelKind::EvalDist => {
                        a[1] = self.scorer.dist_pass(&self.target, structure, scratch);
                    }
                    KernelKind::EvalTrip => {
                        a[2] = self
                            .scorer
                            .triplet_pass(&self.target, structure, cand, scratch);
                    }
                    _ => unreachable!("score stage launches only Eval kernels"),
                }
                #[cfg(feature = "fault-injection")]
                if lms_simt::fault::take_nan() {
                    match kind {
                        KernelKind::EvalVdw => a[0] = f64::NAN,
                        KernelKind::EvalDist => a[1] = f64::NAN,
                        _ => a[2] = f64::NAN,
                    }
                }
                *sv = ScoreVector::from_array(a);
            })
        };
        let launches = [
            rebuild,
            score(KernelKind::EvalVdw),
            score(KernelKind::EvalDist),
            score(KernelKind::EvalTrip),
        ];
        (launches, skipped)
    }

    /// Population-wide fitness assignment (Eq. 1) over the arena's score
    /// lanes, recorded as one `[FitAssg] within Population` invocation.
    /// Under [`ObjectiveMode::MultiScoring`] it runs two data-parallel
    /// passes writing the arena's strength/front/fitness buffers in place:
    /// pass 1 settles every member's front flag and the front members'
    /// strengths, the host lists the front members in ascending order, and
    /// pass 2 sums each dominated member's front dominators over that list.
    /// The front size is added to the record.
    fn stage_fitness(
        &self,
        executor: &Executor,
        arena: &mut PopulationArena,
        stages: &mut StageRecord,
    ) {
        let n = arena.n_members();
        let wall = match self.config.objective_mode {
            ObjectiveMode::MultiScoring => {
                let pass1 = {
                    let scores = &arena.scores;
                    let strength = SharedLanes::new(&mut arena.strength);
                    let front = SharedLanes::new(&mut arena.front);
                    executor.launch(KernelKind::FitAssgPopulation, n, |i| {
                        let (s, f) = strength_and_front(scores, i, n);
                        // SAFETY: kernel i touches only member i's slots.
                        *unsafe { strength.item_mut(i) } = s;
                        *unsafe { front.item_mut(i) } = f;
                    })
                };
                arena.front_members.clear();
                arena
                    .front_members
                    .extend((0..n).filter(|&i| arena.front[i]));
                stages.add_front_size(arena.front_members.len());
                let pass2 = {
                    let scores = &arena.scores;
                    let strength = &arena.strength;
                    let front = &arena.front;
                    let front_members = &arena.front_members;
                    let fitness = SharedLanes::new(&mut arena.fitness);
                    executor.launch(KernelKind::FitAssgPopulation, n, |i| {
                        let value = member_fitness(
                            scores,
                            i,
                            strength,
                            front,
                            front_members.iter().copied(),
                        );
                        // SAFETY: kernel i touches only member i's slot.
                        *unsafe { fitness.item_mut(i) } = value;
                    })
                };
                pass1.host + pass2.host
            }
            ObjectiveMode::Single(obj) => {
                let scores = &arena.scores;
                let fitness = SharedLanes::new(&mut arena.fitness);
                executor
                    .launch(KernelKind::FitAssgPopulation, n, |i| {
                        *unsafe { fitness.item_mut(i) } = obj.value(&scores[i]);
                    })
                    .host
            }
            ObjectiveMode::WeightedSum(w) => {
                let scores = &arena.scores;
                let fitness = SharedLanes::new(&mut arena.fitness);
                executor
                    .launch(KernelKind::FitAssgPopulation, n, |i| {
                        *unsafe { fitness.item_mut(i) } = weighted_sum(&w, &scores[i]);
                    })
                    .host
            }
        };
        stages.record(KernelKind::FitAssgPopulation, wall);
    }

    /// The `[FitAssg] within Complex` kernel, two passes over the sorted
    /// positions of the CSR `complex_scores`.  Pass 1: thread `p` writes
    /// position `p`'s Eq. 1 front flag and (front only) strength within
    /// its complex, the table the Metropolis stage evaluates candidates
    /// against in O(|complex|) each (see [`fitness_against_table`]).
    /// Between the passes the host lists the front positions in ascending
    /// order.  Pass 2: thread `p` writes position `p`'s Eq. 1 fitness
    /// within its complex, summed over its complex's front members.  That
    /// is what [`fitness_against_table`] returns for the member at `p`
    /// itself, so Metropolis reads the current member's fitness instead of
    /// evaluating it.  Returns the summed launch wall time of both passes
    /// (one stage invocation).
    fn stage_complex_fitness(executor: &Executor, arena: &mut PopulationArena) -> Duration {
        let complex_scores = &arena.complex_scores;
        let offsets = &arena.complex_offsets;
        let complex_of_position = |p: usize| {
            let c = offsets.partition_point(|&o| o <= p) - 1;
            (offsets[c], offsets[c + 1])
        };
        let pass1 = {
            let strength = SharedLanes::new(&mut arena.complex_strength);
            let front = SharedLanes::new(&mut arena.complex_front);
            executor.launch(KernelKind::FitAssgComplex, arena.n_members, |p| {
                let (lo, hi) = complex_of_position(p);
                let complex = &complex_scores[lo..hi];
                let (s, f) = strength_and_front(complex, p - lo, complex.len() + 1);
                // SAFETY: kernel p touches only position p's slots.
                *unsafe { strength.item_mut(p) } = s;
                *unsafe { front.item_mut(p) } = f;
            })
        };
        let front = &arena.complex_front;
        let front_members = &mut arena.complex_front_members;
        front_members.clear();
        front_members.extend((0..arena.n_members).filter(|&p| front[p]));
        let pass2 = {
            let strength = &arena.complex_strength;
            let front_members = &arena.complex_front_members;
            let fitness = SharedLanes::new(&mut arena.complex_fitness);
            executor.launch(KernelKind::FitAssgComplex, arena.n_members, |p| {
                let (lo, hi) = complex_of_position(p);
                // The complex's front members: a sub-slice of the ascending
                // list, since each complex holds a contiguous position range.
                let from = front_members.partition_point(|&q| q < lo);
                let to = front_members.partition_point(|&q| q < hi);
                let value = member_fitness(
                    &complex_scores[lo..hi],
                    p - lo,
                    &strength[lo..hi],
                    &front[lo..hi],
                    front_members[from..to].iter().map(|&q| q - lo),
                );
                // SAFETY: kernel p touches only position p's slot.
                *unsafe { fitness.item_mut(p) } = value;
            })
        };
        pass1.host + pass2.host
    }

    /// The staged `health` kernel: one population-wide `[HealthSweep]`
    /// launch classifying every member's candidate lanes as finite or
    /// poisoned; the host-side [`NumericGuard`] policy verdict on its flags
    /// is [`MoscemSampler::quarantine_or_fail`].
    ///
    /// The sweep is a robustness stage of this implementation, not a paper
    /// task: it gets a measured row like every stage, but the modeled
    /// device tables leave it out.
    fn stage_health(&self, executor: &Executor, arena: &mut PopulationArena) -> KernelLaunch {
        let n = arena.n_members();
        let stride = arena.stride();
        let healthy = SharedLanes::new(&mut arena.healthy);
        let scores = &arena.cand_scores;
        let torsions = &arena.cand_torsions;
        let devs = &arena.cand_closure_dev;
        let rmsds = &arena.cand_rmsd;
        executor.launch(KernelKind::HealthSweep, n, |i| {
            // SAFETY: kernel i touches only member i's verdict slot.
            *unsafe { healthy.item_mut(i) } = crate::health::member_is_finite(
                &scores[i],
                &torsions[i * stride..(i + 1) * stride],
                devs[i],
                rmsds[i],
            );
        })
    }

    /// The [`NumericGuard`] verdict on the last health sweep: a no-op when
    /// every member is healthy; otherwise fail the job with a typed
    /// [`Error::NumericalFault`], or quarantine the poisoned members and
    /// keep sampling.  A fully poisoned population fails regardless of the
    /// policy — there is no sound state left to continue from.
    fn quarantine_or_fail(
        &self,
        arena: &mut PopulationArena,
        iteration: usize,
    ) -> Result<(), Error> {
        let Some(first_bad) = arena.healthy.iter().position(|&h| !h) else {
            return Ok(());
        };
        let donor = arena.healthy.iter().position(|&h| h);
        if matches!(self.config.numeric_guard, NumericGuard::Fail) || donor.is_none() {
            return Err(self.numeric_fault(arena, first_bad, iteration));
        }
        let stride = arena.stride();
        if iteration == 0 {
            // Initialisation has no current state to fall back on: re-seed
            // each poisoned member's candidate lanes (and its checkpoint,
            // already stored) from the first healthy donor before the
            // candidates become the population.
            let donor = donor.expect("guard handled the all-poisoned case");
            for i in 0..arena.n_members() {
                if arena.healthy[i] {
                    continue;
                }
                arena
                    .cand_torsions
                    .copy_within(donor * stride..(donor + 1) * stride, i * stride);
                arena.cand_scores[i] = arena.cand_scores[donor];
                arena.cand_closure_dev[i] = arena.cand_closure_dev[donor];
                arena.cand_rmsd[i] = arena.cand_rmsd[donor];
                let (n_res, row) = (stride / 2, stride / 2 + 1);
                arena
                    .env_totals
                    .copy_within(donor * row..(donor + 1) * row, i * row);
                arena
                    .burial_counts
                    .copy_within(donor * n_res..(donor + 1) * n_res, i * n_res);
                arena.healthy[i] = true;
            }
        } else {
            // Mid-run, quarantine is one write: an infinite closure
            // deviation makes the Metropolis gate reject the candidate
            // *without drawing from the member's stream*, so the member
            // keeps its last sound state and the trajectory's random
            // streams — hence same-seed bit-identity — are untouched.
            for i in 0..arena.n_members() {
                if !arena.healthy[i] {
                    arena.cand_closure_dev[i] = f64::INFINITY;
                    arena.healthy[i] = true;
                }
            }
        }
        Ok(())
    }

    /// Build the typed [`Error::NumericalFault`] naming the poisoned
    /// member, the iteration and (when the poison sat in a score slot) the
    /// offending objective.
    fn numeric_fault(&self, arena: &PopulationArena, member: usize, iteration: usize) -> Error {
        let stride = arena.stride();
        let poison = crate::health::member_poison(
            &arena.cand_scores[member],
            &arena.cand_torsions[member * stride..(member + 1) * stride],
            arena.cand_closure_dev[member],
            arena.cand_rmsd[member],
        );
        Error::NumericalFault {
            member,
            iteration,
            objective: poison.and_then(|p| p.objective()),
        }
    }

    /// The iteration-boundary checks, cancellation before the deadline:
    /// the typed error a run stops with after `completed_iterations`.
    fn check_boundary(
        controls: &RunControls,
        deadline: Option<(Instant, Duration)>,
        completed_iterations: usize,
    ) -> Result<(), Error> {
        if controls
            .cancel
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
        {
            return Err(Error::Cancelled {
                completed_iterations,
            });
        }
        match deadline {
            Some((at, limit)) if Instant::now() >= at => Err(Error::DeadlineExceeded {
                limit,
                completed_iterations,
            }),
            _ => Ok(()),
        }
    }

    /// Run repeated trajectories (fresh seed each time) harvesting distinct
    /// non-dominated decoys until the set reaches `target_decoys` or
    /// `max_trajectories` have been run — the paper's decoy-production
    /// protocol.
    pub fn produce_decoys(
        &self,
        executor: &Executor,
        target_decoys: usize,
        max_trajectories: usize,
    ) -> DecoyProduction {
        let mut decoys = DecoySet::new(self.config.distinct_threshold_deg)
            .with_max_closure_deviation(self.config.max_closure_deviation);
        let mut trajectories = Vec::new();
        let mut t = 0usize;
        while decoys.len() < target_decoys && t < max_trajectories {
            let seed = StreamRngFactory::new(self.config.seed)
                .derive(t as u64 + 1)
                .master_seed();
            let result = self.run_with_seed(executor, seed);
            result.harvest_into(&mut decoys, t);
            trajectories.push(result);
            t += 1;
        }
        DecoyProduction {
            decoys,
            trajectories_run: t,
            trajectories,
        }
    }
}

/// The population snapshot at `iteration` (Figure 5 data), from the
/// members' score and RMSD lanes.
pub(crate) fn snapshot(
    iteration: usize,
    scores: &[ScoreVector],
    rmsd: &[f64],
    temperature: f64,
) -> IterationSnapshot {
    let nd = non_dominated_indices(scores);
    IterationSnapshot {
        iteration,
        non_dominated_count: nd.len(),
        front: nd.iter().map(|&i| (scores[i], rmsd[i])).collect(),
        best_rmsd: rmsd.iter().copied().fold(f64::INFINITY, f64::min),
        temperature,
    }
}

/// Debug builds: the VDW pass that member `member` resumed at `from` must
/// equal the full pass bit for bit — both scores, the checkpoint row and
/// the burial counts.
#[cfg(debug_assertions)]
fn assert_resume_is_exact(
    member: usize,
    from: EnvResume<'_>,
    resumed: (f64, f64),
    scratch: &lms_scoring::ScoreScratch,
    full: (f64, f64),
    check: &lms_scoring::ScoreScratch,
) {
    let bits = |row: &[f64]| row.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert!(
        (resumed.0.to_bits(), resumed.1.to_bits()) == (full.0.to_bits(), full.1.to_bits())
            && scratch
                .env_totals()
                .iter()
                .map(|t| t.to_bits())
                .eq(check.env_totals().iter().map(|t| t.to_bits()))
            && scratch.burial_counts() == check.burial_counts(),
        "member {member}: the VDW pass resumed at residue {} differs from the full pass: \
         {resumed:?} vs {full:?}, rows {:?} vs {:?}",
        from.residue(),
        bits(scratch.env_totals()),
        bits(check.env_totals()),
    );
}

/// Draw one member's initial torsions under the configured init mode.
/// Shared by the per-member reference and the staged pipeline's init
/// kernel: bit-identity between the two depends on identical draw
/// sequences, so there is exactly one sampling implementation to drift.
pub(crate) fn sample_initial_torsions<R: Rng + ?Sized>(
    init_mode: InitMode,
    classes: &[RamaClass],
    rama: &RamaLibrary,
    torsions: &mut Torsions,
    rng: &mut R,
) {
    match init_mode {
        InitMode::UniformRandom => {
            for k in 0..torsions.n_angles() {
                torsions.set_angle(k, random_torsion(rng));
            }
        }
        InitMode::Ramachandran => {
            for (r, &class) in classes.iter().enumerate() {
                let (phi, psi) = rama.model(class).sample(rng);
                torsions.set_phi(r, phi);
                torsions.set_psi(r, psi);
            }
        }
    }
}

/// Fixed weighted sum over all objective slots (left-to-right accumulation,
/// so the value is deterministic across call sites).
fn weighted_sum(w: &[f64; lms_scoring::NUM_OBJECTIVES], s: &ScoreVector) -> f64 {
    let a = s.as_array();
    let mut total = w[0] * a[0];
    for i in 1..lms_scoring::NUM_OBJECTIVES {
        total += w[i] * a[i];
    }
    total
}

/// Fitness of a candidate under the configured objective handling;
/// `multi_scoring` is the Eq. 1 fitness against the candidate's reference
/// set (direct in the per-member oracle, table-driven in the staged
/// pipeline).
pub(crate) fn candidate_fitness(
    mode: ObjectiveMode,
    scores: &ScoreVector,
    multi_scoring: impl Fn(&ScoreVector) -> f64,
) -> f64 {
    match mode {
        ObjectiveMode::MultiScoring => multi_scoring(scores),
        ObjectiveMode::Single(obj) => obj.value(scores),
        ObjectiveMode::WeightedSum(w) => weighted_sum(&w, scores),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_protein::BenchmarkLibrary;
    use lms_scoring::{KnowledgeBaseConfig, Objective};

    fn fast_kb() -> Arc<KnowledgeBase> {
        KnowledgeBase::build(KnowledgeBaseConfig::fast())
    }

    fn scalar() -> Executor {
        lms_simt::ExecutorConfig::scalar()
            .build()
            .expect("valid config")
    }

    fn parallel() -> Executor {
        lms_simt::ExecutorConfig::parallel()
            .build()
            .expect("valid config")
    }

    fn small_sampler(name: &str, cfg: SamplerConfig) -> MoscemSampler {
        let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
        MoscemSampler::new(target, fast_kb(), cfg)
    }

    #[test]
    fn trajectory_produces_closed_scored_population() {
        let cfg = SamplerConfig {
            population_size: 24,
            n_complexes: 2,
            iterations: 3,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", cfg);
        let result = sampler.run(&scalar());
        assert_eq!(result.population.len(), 24);
        for c in &result.population {
            assert!(c.scores.is_finite());
            assert!(c.closure_deviation.is_finite());
            assert!(
                c.closure_deviation <= 1.5,
                "population member far from closure: {}",
                c.closure_deviation
            );
            assert!(c.rmsd_to_native.is_finite());
            assert!(c.proposed_moves >= 3);
        }
        assert!(result.non_dominated_count() >= 1);
        assert!(result.best_rmsd().is_finite());
        assert!(result.acceptance_rate >= 0.0 && result.acceptance_rate <= 1.0);
    }

    #[test]
    fn scalar_and_parallel_executors_agree_exactly() {
        let cfg = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 2,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("5pti", cfg);
        let a = sampler.run(&scalar());
        let b = sampler.run(&parallel());
        assert_eq!(a.population.len(), b.population.len());
        for (x, y) in a.population.iter().zip(b.population.iter()) {
            assert_eq!(
                x.torsions, y.torsions,
                "executor changed the sampled trajectory"
            );
            assert_eq!(x.scores, y.scores);
            assert_eq!(x.accepted_moves, y.accepted_moves);
        }
        assert_eq!(a.final_temperature, b.final_temperature);
        assert_eq!(a.acceptance_rate, b.acceptance_rate);
    }

    #[test]
    fn different_seeds_give_different_populations() {
        let cfg = SamplerConfig {
            population_size: 12,
            n_complexes: 2,
            iterations: 2,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("3pte", cfg);
        let a = sampler.run_with_seed(&scalar(), 1);
        let b = sampler.run_with_seed(&scalar(), 2);
        assert_ne!(
            a.population.iter().map(|c| c.scores).collect::<Vec<_>>(),
            b.population.iter().map(|c| c.scores).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshots_are_recorded_at_requested_iterations() {
        let cfg = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 4,
            snapshot_iterations: vec![0, 2, 4],
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1akz", cfg);
        let result = sampler.run(&scalar());
        assert_eq!(result.snapshots.len(), 3);
        assert_eq!(result.snapshots[0].iteration, 0);
        assert_eq!(result.snapshots[1].iteration, 2);
        assert_eq!(result.snapshots[2].iteration, 4);
        for s in &result.snapshots {
            assert!(s.non_dominated_count >= 1);
            assert_eq!(s.front.len(), s.non_dominated_count);
            assert!(s.best_rmsd.is_finite());
        }
    }

    #[test]
    fn stage_record_sums_the_population_front_sizes() {
        let iterations = 5;
        let cfg = SamplerConfig {
            population_size: 24,
            n_complexes: 3,
            iterations,
            snapshot_iterations: (0..=iterations).collect(),
            ..SamplerConfig::test_scale()
        };
        let result = small_sampler("1cex", cfg).run(&parallel());
        let fitness_calls = result.stages.row(KernelKind::FitAssgPopulation).calls;
        assert_eq!(fitness_calls, iterations + 1);
        assert_eq!(result.snapshots.len(), fitness_calls);
        let snapshot_fronts: usize = result.snapshots.iter().map(|s| s.non_dominated_count).sum();
        assert_eq!(result.stages.front_size_sum(), snapshot_fronts as u64);
        assert!(snapshot_fronts > fitness_calls, "fronts of more than one");
    }

    #[test]
    fn component_times_are_dominated_by_ccd_and_scoring() {
        // The paper's Figure 1: loop closure and scoring evaluation occupy
        // ~99% of the CPU-only run.
        let cfg = SamplerConfig {
            population_size: 24,
            n_complexes: 2,
            iterations: 3,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", cfg);
        // Sum the stage wall over several trajectories, so that one
        // preemption inside a cheap stage cannot move the shares.
        let mut total = crate::ComponentTimes::default();
        for seed in 0..8 {
            let c = sampler.run_with_seed(&scalar(), seed).stages.components();
            total.ccd_us += c.ccd_us;
            total.scoring_us += c.scoring_us;
            total.fitness_us += c.fitness_us;
            total.other_us += c.other_us;
        }
        let f = total.fractions();
        let heavy = f[0] + f[1];
        assert!(
            heavy > 0.80,
            "CCD+scoring fraction {heavy} too small: {f:?}"
        );
        assert!(f[0] > f[1], "CCD should dominate scoring: {f:?}");
    }

    #[test]
    fn stage_walls_fit_inside_host_wall() {
        // Stages run one launch at a time inside the trajectory, so their
        // summed launch wall time cannot exceed the run's wall clock.
        let cfg = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 3,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1ixh", cfg);
        for executor in [scalar(), parallel()] {
            let result = sampler.run(&executor);
            let stages = result.stages.total_wall();
            assert!(stages > Duration::ZERO);
            assert!(
                stages <= result.host_wall,
                "stage wall {stages:?} exceeds host wall {:?}",
                result.host_wall
            );
        }
        // The per-member reference keeps no stage record.
        let reference = sampler.run_reference_with_seed(1);
        assert_eq!(reference.stages, StageRecord::default());
    }

    #[test]
    fn env_residue_counts_follow_the_mutation_starts() {
        // Every MCMC evaluation skips the residues below the one holding
        // its candidate's CCD start index; the init rounds score in full.
        let (population, iterations, seed) = (12usize, 4usize, 11u64);
        let cfg = SamplerConfig {
            population_size: population,
            n_complexes: 2,
            iterations,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", cfg);
        let result = sampler.run_with_seed(&scalar(), seed);
        let target = sampler.target();
        let n_res = target.n_residues();
        let classes: Vec<RamaClass> = target.sequence.iter().map(|a| a.rama_class()).collect();
        // The start index depends only on the draws of the member's
        // (member, iteration) stream, which the mutate stage seeds from
        // the trajectory factory's derivation 1.
        let evo = StreamRngFactory::new(seed).derive(1);
        let mut torsions = target.native_torsions.clone();
        let mut indices = Vec::new();
        let mut expected = 0u64;
        for iter in 1..=iterations {
            for i in 0..population {
                let mut rng = evo.stream(i as u64, iter as u64);
                let start = sampler.mutator.mutate_in_place(
                    &mut torsions,
                    &classes,
                    &mut rng,
                    &mut indices,
                );
                expected += Torsions::describe_angle(start).0 as u64;
            }
        }
        let stages = &result.stages;
        assert!(expected > 0);
        assert_eq!(stages.env_residues_skipped(), expected);
        assert_eq!(
            stages.env_residues_scored() + stages.env_residues_skipped(),
            (population * n_res * (iterations + 1)) as u64
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn init_quarantine_reseeds_the_checkpoint_from_the_donor() {
        use lms_simt::{fault, FaultKind, FaultPlan, FaultSession};
        let cfg = SamplerConfig {
            population_size: 8,
            n_complexes: 2,
            iterations: 0,
            burial_objective: true,
            numeric_guard: NumericGuard::Quarantine,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1xyz", cfg.clone());
        let executor = scalar();
        // Member 3 is poisoned at init two ways; either way the quarantine
        // re-seeds it from member 0, checkpoint lanes included.
        let plans = [
            // A NaN initial VDW score.
            FaultPlan::new().inject(KernelKind::EvalVdw, 0, 3, FaultKind::Nan),
            // A NaN torsion in every one of its initial samples: its closure
            // deviation stays NaN, so each of the four init rounds redraws
            // it, and the NaN structure reaches the health sweep.
            (0..4).fold(FaultPlan::new(), |plan, round| {
                plan.inject(KernelKind::Reproduction, round, 3, FaultKind::Nan)
            }),
        ];
        for plan in plans {
            let mut arena = PopulationArena::new(
                cfg.population_size,
                sampler.target().n_residues(),
                cfg.mutation.max_mutations,
                cfg.n_complexes,
                None,
                executor.ccd_block_width(),
            );
            let _session = fault::install(FaultSession::begin(plan));
            let _ = sampler
                .run_staged(&executor, 7, &RunControls::new(), None, &mut arena)
                .expect("quarantine recovers at init");
            let (stride, n_res) = (arena.stride(), arena.n_residues());
            let row = n_res + 1;
            let lane = |v: &[f64], i: usize, w: usize| v[i * w..(i + 1) * w].to_vec();
            assert_eq!(
                lane(&arena.torsions, 3, stride),
                lane(&arena.torsions, 0, stride),
                "member 3 was re-seeded from the donor"
            );
            assert_ne!(
                lane(&arena.torsions, 1, stride),
                lane(&arena.torsions, 0, stride)
            );
            assert_eq!(arena.scores[3], arena.scores[0]);
            assert_eq!(
                lane(&arena.env_totals, 3, row),
                lane(&arena.env_totals, 0, row)
            );
            assert_eq!(
                arena.burial_counts[3 * n_res..4 * n_res],
                arena.burial_counts[..n_res]
            );
            assert!(
                arena.env_totals[row - 1] > 0.0,
                "buried loop touches its environment"
            );
            assert!(arena.burial_counts[..n_res].iter().any(|&c| c > 0));
        }
    }

    #[test]
    fn sampling_improves_the_population() {
        // After a few iterations the population should contain better
        // (lower) scores than the random initialisation on at least one
        // objective, and usually a better best-RMSD.
        let cfg = SamplerConfig {
            population_size: 32,
            n_complexes: 2,
            iterations: 8,
            snapshot_iterations: vec![0, 8],
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", cfg);
        let result = sampler.run(&parallel());
        let first = &result.snapshots[0];
        let last = &result.snapshots[1];
        // The front should not collapse, and the best decoy should not get
        // substantially worse (Metropolis allows bounded uphill moves).
        assert!(last.non_dominated_count >= 1);
        assert!(
            last.non_dominated_count * 3 >= first.non_dominated_count,
            "front collapsed: {} -> {}",
            first.non_dominated_count,
            last.non_dominated_count
        );
        // RMSD is never part of the acceptance rule, so the single best
        // member is free to drift; only gross blow-up would indicate a bug.
        assert!(
            last.best_rmsd <= first.best_rmsd + 1.0,
            "best RMSD should not blow up"
        );
        // The median VDW of the population improves as clashes are resolved.
        let median_vdw = |snap: &IterationSnapshot| {
            let mut v: Vec<f64> = snap.front.iter().map(|(s, _)| s.vdw()).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!(median_vdw(last) <= median_vdw(first) * 2.0 + 1e-9);
    }

    #[test]
    fn single_objective_mode_runs_and_differs_from_multi() {
        let base = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 3,
            ..SamplerConfig::test_scale()
        };
        let multi = small_sampler("153l", base.clone());
        let single = small_sampler(
            "153l",
            SamplerConfig {
                objective_mode: ObjectiveMode::Single(Objective::Vdw),
                ..base
            },
        );
        let a = multi.run(&scalar());
        let b = single.run(&scalar());
        // Different acceptance dynamics ⇒ different trajectories.
        assert_ne!(
            a.population.iter().map(|c| c.scores).collect::<Vec<_>>(),
            b.population.iter().map(|c| c.scores).collect::<Vec<_>>()
        );
    }

    #[test]
    fn convergence_traces_and_schedule_override() {
        use crate::annealing::TemperatureSchedule;
        let base = SamplerConfig {
            population_size: 24,
            n_complexes: 3,
            iterations: 6,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", base.clone());
        let result = sampler.run(&parallel());
        // One trace per complex, one point per iteration.
        assert_eq!(result.complex_traces.len(), 3);
        for trace in &result.complex_traces {
            assert_eq!(trace.len(), 6);
            assert!(trace.iter().all(|v| v.is_finite()));
        }
        assert!(result.gelman_rubin_vdw().is_some());

        // A fixed schedule in place of the adaptive default holds its
        // temperature through the run.
        let fixed_cfg = SamplerConfig {
            temperature: TemperatureSchedule::Fixed { temperature: 0.4 },
            ..base
        };
        let fixed = small_sampler("1cex", fixed_cfg).run(&parallel());
        assert_eq!(fixed.final_temperature, 0.4);
    }

    #[test]
    fn produce_decoys_accumulates_distinct_decoys() {
        let cfg = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 2,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1bhe", cfg);
        let production = sampler.produce_decoys(&parallel(), 6, 4);
        assert!(production.trajectories_run >= 1);
        assert!(production.trajectories_run <= 4);
        assert!(!production.decoys.is_empty());
        assert_eq!(production.trajectories.len(), production.trajectories_run);
        // Every harvested decoy respects the 30-degree distinctness rule.
        let decoys = production.decoys.decoys();
        for (i, a) in decoys.iter().enumerate() {
            for b in &decoys[(i + 1)..] {
                assert!(a.torsions.max_deviation_deg(&b.torsions) >= 30.0 - 1e-9);
            }
        }
    }
}
