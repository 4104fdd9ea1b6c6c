//! The per-member reference sampler: the oracle the staged pipeline of
//! [`MoscemSampler::run_controlled`] must match bit for bit.
//!
//! The oracle walks the population one member at a time, each step fusing
//! mutation → CCD → scoring → Metropolis for one conformation: the paper's
//! one-thread-per-conformation evolution kernel written as a plain
//! sequential loop.  It is built from the same library pieces the staged
//! stages call ([`Mutator::mutate_in_place`](crate::Mutator::mutate_in_place),
//! [`CcdCloser::close_lane`], [`MultiScorer::evaluate_with`](lms_scoring::MultiScorer::evaluate_with),
//! [`fitness_against`] and [`fitness_assignment`]), and keeps one workspace
//! for the whole population, since one member is in flight at a time.  Every closure
//! builds its lane from scratch, so the staged pipeline's prefix reuse is
//! checked against it.
//!
//! Its scope is the bit-identity contract: runs without run-time
//! [`JobLimits`](crate::JobLimits) whose lanes stay finite.  Deadlines, the
//! closure stall guard and the [`NumericGuard`](crate::NumericGuard)
//! policies are tested on the staged path (`tests/job_limits.rs`,
//! `tests/fault_runtime.rs`).

use crate::config::ObjectiveMode;
use crate::conformation::Conformation;
use crate::health::member_is_finite;
use crate::pareto::{fitness_against, fitness_assignment};
use crate::sampler::{
    candidate_fitness, sample_initial_torsions, snapshot, IterationSnapshot, MoscemSampler,
    TrajectoryResult,
};
use crate::stages::StageRecord;
use lms_closure::{CcdBatchScratch, CcdCloser, CcdLane};
use lms_geometry::StreamRngFactory;
use lms_protein::{LoopStructure, RamaLibrary, Torsions};
use lms_scoring::{ScoreScratch, ScoreVector};
use rand::Rng;
use std::time::Instant;

impl MoscemSampler {
    /// Run one sampling trajectory through the **per-member reference
    /// implementation**, the oracle of `tests/batched_equivalence.rs`: the
    /// staged pipeline ([`MoscemSampler::run_controlled`]) is bit-identical
    /// to it on every executor, because every member draws from its own
    /// `(member, iteration)` stream.  Its [`TrajectoryResult::stages`] is
    /// empty: it launches no kernels.
    ///
    /// # Panics
    ///
    /// At entry when the config sets a deadline or a closure-stall limit,
    /// and when a member's lanes turn non-finite.
    pub fn run_reference_with_seed(&self, seed: u64) -> TrajectoryResult {
        let (cfg, target) = (self.config(), self.target());
        assert!(
            cfg.limits.deadline.is_none() && cfg.limits.max_closure_stall.is_none(),
            "the per-member reference enforces no JobLimits; run limited jobs through run_controlled"
        );
        let n = cfg.population_size;
        let n_res = target.n_residues();
        let classes = &self.classes;
        let factory = StreamRngFactory::new(seed);
        let closer = CcdCloser::new(self.builder, cfg.ccd);
        let (frame, sequence) = (&target.frame, &target.sequence);
        let mode = cfg.objective_mode;
        let max_closure = cfg.max_closure_deviation;
        let wall_start = Instant::now();

        // One member is in flight at a time, so one workspace serves all.
        let mut structure = LoopStructure::with_capacity(n_res);
        let mut ccd_scratch = CcdBatchScratch::new();
        let mut scratch = ScoreScratch::for_loop_len(n_res);
        let mut cand = Torsions::zeros(n_res);
        let mut mut_indices = Vec::with_capacity(cfg.mutation.max_mutations.max(1));

        // --- Initialization ------------------------------------------------
        target.env_candidates();
        let init_factory = factory.derive(0xC0);
        let rama = RamaLibrary::default();
        let mut population: Vec<Conformation> = (0..n)
            .map(|_| Conformation::new(Torsions::zeros(n_res)))
            .collect();
        for (i, conf) in population.iter_mut().enumerate() {
            let mut rng = init_factory.stream(i as u64, 0);
            // The loop-closure condition gates everything downstream: a
            // start CCD cannot close is redrawn from the member's own
            // stream, up to three times.
            for _ in 0..4 {
                sample_initial_torsions(classes, &rama, &mut conf.torsions, &mut rng);
                let lane = CcdLane {
                    torsions: &mut conf.torsions,
                    structure: &mut structure,
                    start_index: 0,
                };
                conf.closure_deviation = closer
                    .close_lane(frame, sequence, lane, &mut ccd_scratch)
                    .final_deviation;
                if conf.closure_deviation <= max_closure {
                    break;
                }
            }
            // CCD leaves `structure` built from the final torsions.
            conf.scores =
                self.scorer
                    .evaluate_with(target, &structure, &conf.torsions, &mut scratch);
            conf.rmsd_to_native = target.rmsd_to_native(&structure);
            assert_finite(
                &conf.scores,
                &conf.torsions,
                conf.closure_deviation,
                conf.rmsd_to_native,
                i,
                0,
            );
        }

        // --- Initial fitness + snapshot 0 ----------------------------------
        let mut temperature_controller = cfg.temperature.controller();
        let mut temperature = temperature_controller.temperature();
        let mut snapshots = Vec::new();
        assign_fitness(mode, &mut population);
        if cfg.snapshot_iterations.contains(&0) {
            snapshots.push(population_snapshot(0, &population, temperature));
        }

        // --- MCMC iterations ------------------------------------------------
        let evo_factory = factory.derive(1);
        let m = cfg.n_complexes;
        let mut total_accepted = 0usize;
        for iter in 1..=cfg.iterations {
            // Sorting (best fitness first) and stride partition into
            // complexes, exactly as in the paper's pseudo-code.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                population[a]
                    .fitness
                    .partial_cmp(&population[b].fitness)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut complex_of = vec![0usize; n];
            let mut complex_scores: Vec<Vec<ScoreVector>> = vec![Vec::new(); m];
            for (pos, &idx) in order.iter().enumerate() {
                complex_of[idx] = pos % m;
                complex_scores[pos % m].push(population[idx].scores);
            }

            // Evolution: mutation, CCD, scoring and Metropolis for one
            // member at a time, against its complex's snapshot.
            let mut accepted_now = 0usize;
            for (i, conf) in population.iter_mut().enumerate() {
                let mut rng = evo_factory.stream(i as u64, iter as u64);
                cand.copy_from(&conf.torsions);
                let start =
                    self.mutator
                        .mutate_in_place(&mut cand, classes, &mut rng, &mut mut_indices);
                let lane = CcdLane {
                    torsions: &mut cand,
                    structure: &mut structure,
                    start_index: start,
                };
                let cand_dev = closer
                    .close_lane(frame, sequence, lane, &mut ccd_scratch)
                    .final_deviation;
                let cand_scores =
                    self.scorer
                        .evaluate_with(target, &structure, &cand, &mut scratch);
                let cand_rmsd = target.rmsd_to_native(&structure);
                assert_finite(&cand_scores, &cand, cand_dev, cand_rmsd, i, iter);

                // Candidates CCD could not bring back to the anchor are
                // rejected outright (an open loop scores deceptively well by
                // drifting off the protein).
                let accept = cand_dev <= max_closure && {
                    let reference = &complex_scores[complex_of[i]];
                    let fitness = |s: &ScoreVector| {
                        candidate_fitness(mode, s, |s| fitness_against(s, reference))
                    };
                    let (cand_fit, curr_fit) = (fitness(&cand_scores), fitness(&conf.scores));
                    cand_fit <= curr_fit
                        || rng.gen::<f64>() < ((curr_fit - cand_fit) / temperature).exp()
                };
                conf.proposed_moves += 1;
                if accept {
                    std::mem::swap(&mut conf.torsions, &mut cand);
                    conf.scores = cand_scores;
                    conf.closure_deviation = cand_dev;
                    conf.rmsd_to_native = cand_rmsd;
                    conf.accepted_moves += 1;
                    accepted_now += 1;
                }
            }

            // Acceptance statistics and adaptive temperature.
            total_accepted += accepted_now;
            temperature = temperature_controller.update(accepted_now as f64 / n as f64);

            assign_fitness(mode, &mut population);
            if cfg.snapshot_iterations.contains(&iter) {
                snapshots.push(population_snapshot(iter, &population, temperature));
            }
        }

        let total_proposed = n * cfg.iterations;
        TrajectoryResult {
            population,
            snapshots,
            stages: StageRecord::default(),
            host_wall: wall_start.elapsed(),
            final_temperature: temperature,
            acceptance_rate: if total_proposed == 0 {
                0.0
            } else {
                total_accepted as f64 / total_proposed as f64
            },
        }
    }
}

/// Population-wide fitness for the next iteration's sort: Eq. 1 in
/// multi-scoring mode, each member's own scalar fitness otherwise.
fn assign_fitness(mode: ObjectiveMode, population: &mut [Conformation]) {
    let eq1 = match mode {
        ObjectiveMode::MultiScoring => {
            fitness_assignment(&population.iter().map(|c| c.scores).collect::<Vec<_>>())
        }
        _ => Vec::new(),
    };
    for (i, conf) in population.iter_mut().enumerate() {
        conf.fitness = candidate_fitness(mode, &conf.scores, |_| eq1[i]);
    }
}

fn population_snapshot(
    iteration: usize,
    population: &[Conformation],
    temperature: f64,
) -> IterationSnapshot {
    let scores: Vec<ScoreVector> = population.iter().map(|c| c.scores).collect();
    let rmsd: Vec<f64> = population.iter().map(|c| c.rmsd_to_native).collect();
    snapshot(iteration, &scores, &rmsd, temperature)
}

/// The oracle covers finite runs only: a poisoned lane ends it.
fn assert_finite(
    scores: &ScoreVector,
    torsions: &Torsions,
    closure_dev: f64,
    rmsd: f64,
    member: usize,
    iteration: usize,
) {
    assert!(
        member_is_finite(scores, torsions.as_slice(), closure_dev, rmsd),
        "member {member} turned non-finite at iteration {iteration}; \
         the per-member reference covers finite runs only"
    );
}

#[cfg(test)]
mod tests {
    use crate::{JobLimits, MoscemSampler, SamplerConfig};
    use lms_protein::BenchmarkLibrary;
    use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig};
    use std::time::Duration;

    #[test]
    #[should_panic(expected = "enforces no JobLimits")]
    fn reference_refuses_job_limits_at_entry() {
        // An hour-long deadline never fires in this run: only the entry
        // check can panic.
        let cfg = SamplerConfig::test_scale()
            .to_builder()
            .population_size(8)
            .n_complexes(2)
            .iterations(1)
            .limits(JobLimits::none().with_deadline(Duration::from_secs(3600)))
            .build()
            .unwrap();
        let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
        let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
        let _ = MoscemSampler::new(target, kb, cfg).run_reference_with_seed(1);
    }
}
