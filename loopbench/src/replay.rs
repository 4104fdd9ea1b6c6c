//! The per-layer replay of the traced run: calls into each layer's public
//! functions on inputs taken from the workload's own run, one span per
//! layer call batch, with counts recorded at the same boundaries.
//!
//! One replay round is one sampler iteration's worth of per-member work on
//! a population: mutate every member, close the candidates in lockstep
//! blocks at the executor's width, take RMSDs, run the three score passes,
//! assign fitness.  Protein builds, initial closures, environment
//! candidates, decoy harvesting and empty launches are timed beside it.

use crate::stats::lane_utilization;
use crate::trace::{SpanId, Tracer};
use lms::closure::{CcdBatchScratch, CcdCloser, CcdConfig, CcdLane, CcdResult};
use lms::core::{fitness_assignment, Conformation, DecoySet, Mutator, SamplerConfig};
use lms::geometry::{rmsd_direct, StreamRngFactory};
use lms::protein::{LoopBuilder, LoopStructure, LoopTarget, RamaClass, RamaLibrary, Torsions};
use lms::scoring::{KnowledgeBase, MultiScorer, ScoreScratch, ScoreVector, NUM_OBJECTIVES};
use lms::simt::{Executor, KernelKind};
use std::sync::Arc;
use std::time::Instant;

/// Stage launches the sampler issues per iteration (mutate, close, rebuild,
/// three score kernels, health, metropolis, select, two fitness passes).
const LAUNCHES_PER_ITERATION: f64 = 11.0;

/// One population to replay: a target, its job configuration and the final
/// population of one of the workload's trajectories.
pub struct Source<'a> {
    pub target: &'a LoopTarget,
    pub config: &'a SamplerConfig,
    pub population: &'a [Conformation],
}

/// Accumulated replay timings (ns) and counts.
#[derive(Debug, Default)]
pub struct Replay {
    pub members: usize,
    pub mutate_ns: f64,
    pub close_ns: f64,
    pub init_close_ns: f64,
    pub rmsd_ns: f64,
    pub build_ns: f64,
    pub vdw_ns: f64,
    pub dist_ns: f64,
    pub triplet_ns: f64,
    pub fitness_ns: f64,
    pub harvest_ns: f64,
    /// Population replays: one fitness assignment and one harvest each.
    pub populations: usize,
    pub launch_ns: f64,
    pub launches: usize,
    pub env_candidates_ns: f64,
    pub env_candidate_runs: usize,
    /// Closure results of every replayed block, block by block.
    pub ccd_blocks: Vec<Vec<CcdResult>>,
    pub width: usize,
    pub max_sweeps: usize,
}

impl Replay {
    fn per_member(&self, ns: f64) -> f64 {
        ns / self.members.max(1) as f64
    }

    pub fn close_us_per_member(&self) -> f64 {
        self.per_member(self.close_ns) / 1e3
    }

    pub fn init_close_us_per_member(&self) -> f64 {
        self.per_member(self.init_close_ns) / 1e3
    }

    pub fn mutate_ns(&self) -> f64 {
        self.per_member(self.mutate_ns)
    }

    pub fn rmsd_ns(&self) -> f64 {
        self.per_member(self.rmsd_ns)
    }

    pub fn build_ns(&self) -> f64 {
        self.per_member(self.build_ns)
    }

    pub fn vdw_ns(&self) -> f64 {
        self.per_member(self.vdw_ns)
    }

    pub fn dist_ns(&self) -> f64 {
        self.per_member(self.dist_ns)
    }

    pub fn triplet_ns(&self) -> f64 {
        self.per_member(self.triplet_ns)
    }

    pub fn fitness_us(&self) -> f64 {
        self.fitness_ns / self.populations.max(1) as f64 / 1e3
    }

    pub fn harvest_us(&self) -> f64 {
        self.harvest_ns / self.populations.max(1) as f64 / 1e3
    }

    pub fn launch_overhead_us(&self) -> f64 {
        self.launch_ns / self.launches.max(1) as f64 / 1e3
    }

    pub fn env_candidates_ms(&self) -> f64 {
        self.env_candidates_ns / self.env_candidate_runs.max(1) as f64 / 1e6
    }

    fn ccd(&self) -> impl Iterator<Item = &CcdResult> {
        self.ccd_blocks.iter().flatten()
    }

    fn closures(&self) -> f64 {
        self.ccd().count().max(1) as f64
    }

    pub fn sweeps_mean(&self) -> f64 {
        self.ccd().map(|r| r.sweeps as f64).sum::<f64>() / self.closures()
    }

    pub fn capped_frac(&self) -> f64 {
        let capped = self
            .ccd()
            .filter(|r| !r.converged && r.sweeps >= self.max_sweeps)
            .count();
        capped as f64 / self.closures()
    }

    pub fn converged_frac(&self) -> f64 {
        let converged = self.ccd().filter(|r| r.converged).count();
        converged as f64 / self.closures()
    }

    pub fn ns_per_rotation(&self) -> f64 {
        let rotations: usize = self.ccd().map(|r| r.rotations_applied).sum();
        self.close_ns / rotations.max(1) as f64
    }

    pub fn lane_utilization(&self) -> f64 {
        lane_utilization(self.ccd_blocks.iter().map(Vec::as_slice), self.width)
    }

    /// Replayed stage time of one population iteration (ns, one thread):
    /// per-member mutate, close, RMSD and score passes, plus fitness and
    /// the iteration's empty launches.
    pub fn iteration_ns(&self, population: usize) -> f64 {
        let per_member = self.mutate_ns()
            + self.per_member(self.close_ns)
            + self.rmsd_ns()
            + self.vdw_ns()
            + self.dist_ns()
            + self.triplet_ns();
        per_member * population as f64
            + self.fitness_ns / self.populations.max(1) as f64
            + LAUNCHES_PER_ITERATION * self.launch_ns / self.launches.max(1) as f64
    }

    pub fn closure_share(&self, population: usize) -> f64 {
        self.per_member(self.close_ns) * population as f64 / self.iteration_ns(population)
    }

    pub fn scoring_share(&self, population: usize) -> f64 {
        (self.vdw_ns() + self.dist_ns() + self.triplet_ns()) * population as f64
            / self.iteration_ns(population)
    }
}

/// Replay every source until at least `min_members` member closures have
/// been timed, under the `parent` span.
pub fn replay(
    tracer: &Tracer,
    parent: SpanId,
    kb: &Arc<KnowledgeBase>,
    executor: &Executor,
    sources: &[Source<'_>],
    min_members: usize,
) -> Replay {
    let caps = executor.capabilities();
    let wide = caps.lane_width > 1;
    let width = caps.ccd_block_width;
    let mut out = Replay {
        width,
        ..Replay::default()
    };
    let mut round = 0u64;
    while out.members < min_members {
        for source in sources {
            replay_round(tracer, parent, kb, wide, width, source, round, &mut out);
        }
        round += 1;
    }
    for source in sources {
        for _ in 0..3 {
            let fresh = LoopTarget {
                env_cache: Default::default(),
                ..source.target.clone()
            };
            let t = Instant::now();
            let atoms = tracer.span("protein.env_candidates", Some(parent), &[], || {
                fresh.env_candidates().len()
            });
            out.env_candidates_ns += t.elapsed().as_nanos() as f64;
            out.env_candidate_runs += 1;
            std::hint::black_box(atoms);
        }
    }
    let population = sources[0].population.len();
    for _ in 0..64 {
        let t = Instant::now();
        let _ = tracer.span(
            "simt.launch",
            Some(parent),
            &[("threads", population as f64)],
            || {
                executor.launch(KernelKind::Reproduction, population, |i| {
                    std::hint::black_box(i);
                })
            },
        );
        out.launch_ns += t.elapsed().as_nanos() as f64;
        out.launches += 1;
    }
    out
}

/// Run `f`, adding its wall time (ns) to `acc`, inside a span.
fn timed<R>(
    tracer: &Tracer,
    parent: SpanId,
    name: &'static str,
    count: f64,
    acc: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let out = tracer.span(name, Some(parent), &[("calls", count)], f);
    *acc += t.elapsed().as_nanos() as f64;
    out
}

#[allow(clippy::too_many_arguments)]
fn replay_round(
    tracer: &Tracer,
    parent: SpanId,
    kb: &Arc<KnowledgeBase>,
    wide: bool,
    width: usize,
    source: &Source<'_>,
    round: u64,
    out: &mut Replay,
) {
    let target = source.target;
    let config = source.config;
    out.max_sweeps = config.ccd.max_sweeps;

    let n = source.population.len();
    let n_res = target.n_residues();
    let classes: Vec<RamaClass> = target.sequence.iter().map(|aa| aa.rama_class()).collect();
    let factory = StreamRngFactory::new(0x5EED ^ round);
    let builder = LoopBuilder::default();
    let closer = CcdCloser::new(builder, config.ccd).with_wide_lanes(wide);
    // The replay closes at the workload's own sampler settings, never at
    // the closure crate's default (256 sweeps / 0.1 A).
    assert_eq!(*closer.config(), config.ccd);
    assert_ne!(
        config.ccd,
        CcdConfig::default(),
        "the layer replay must run at the sampler's CCD settings"
    );
    let count = n as f64;

    // core.mutation: one proposal per member from its final torsions.
    let mutator = Mutator::new(config.mutation.clone());
    let mut cands: Vec<Torsions> = source
        .population
        .iter()
        .map(|c| c.torsions.clone())
        .collect();
    let mut starts = vec![0usize; n];
    let mut indices = Vec::with_capacity(config.mutation.max_mutations);
    timed(
        tracer,
        parent,
        "core.mutation.mutate_in_place",
        count,
        &mut out.mutate_ns,
        || {
            for (i, cand) in cands.iter_mut().enumerate() {
                let mut rng = factory.stream(i as u64, 1);
                starts[i] = mutator.mutate_in_place(cand, &classes, &mut rng, &mut indices);
            }
        },
    );

    // closure: lockstep blocks at the executor's width.
    let mut structures: Vec<LoopStructure> = (0..n)
        .map(|_| LoopStructure::with_capacity(n_res))
        .collect();
    let mut scratch = CcdBatchScratch::new();
    let results = timed(
        tracer,
        parent,
        "closure.close_batch",
        count,
        &mut out.close_ns,
        || {
            close_blocks(
                &closer,
                target,
                &mut cands,
                &mut structures,
                &starts,
                width,
                &mut scratch,
            )
        },
    );
    out.ccd_blocks
        .extend(results.chunks(width).map(<[CcdResult]>::to_vec));

    // closure, initial: fresh Ramachandran torsions closed from index 0.
    let rama = RamaLibrary::default();
    let mut fresh: Vec<Torsions> = (0..n)
        .map(|i| {
            let mut rng = factory.stream(i as u64, 0);
            let pairs: Vec<(f64, f64)> = classes
                .iter()
                .map(|&c| rama.model(c).sample(&mut rng))
                .collect();
            Torsions::from_pairs(&pairs)
        })
        .collect();
    let mut fresh_structures: Vec<LoopStructure> = (0..n)
        .map(|_| LoopStructure::with_capacity(n_res))
        .collect();
    let zeros = vec![0usize; n];
    timed(
        tracer,
        parent,
        "closure.close_batch_init",
        count,
        &mut out.init_close_ns,
        || {
            close_blocks(
                &closer,
                target,
                &mut fresh,
                &mut fresh_structures,
                &zeros,
                width,
                &mut scratch,
            )
        },
    );

    // geometry: backbone RMSD of each closed candidate to the native.
    let native = target.native_structure.backbone_atoms();
    let atoms: Vec<_> = structures.iter().map(|s| s.backbone_atoms()).collect();
    let rmsd_sum = timed(
        tracer,
        parent,
        "geometry.rmsd_direct",
        count,
        &mut out.rmsd_ns,
        || atoms.iter().map(|a| rmsd_direct(&native, a)).sum::<f64>(),
    );
    std::hint::black_box(rmsd_sum);

    // protein: a fresh build of each closed candidate.
    let mut rebuilt = LoopStructure::with_capacity(n_res);
    timed(
        tracer,
        parent,
        "protein.build_into",
        count,
        &mut out.build_ns,
        || {
            for cand in &cands {
                target.build_into(&builder, cand, &mut rebuilt);
                std::hint::black_box(&rebuilt);
            }
        },
    );

    // scoring: the three staged passes, population-wide as in the sampler.
    let scorer = MultiScorer::new(Arc::clone(kb))
        .with_burial(config.burial_objective)
        .with_wide_lanes(wide);
    let mut scratches: Vec<ScoreScratch> =
        (0..n).map(|_| ScoreScratch::for_loop_len(n_res)).collect();
    let mut scores = vec![[0.0f64; NUM_OBJECTIVES]; n];
    timed(
        tracer,
        parent,
        "scoring.vdw_pass",
        count,
        &mut out.vdw_ns,
        || {
            for i in 0..n {
                let (vdw, burial) = scorer.vdw_pass(target, &structures[i], &mut scratches[i]);
                scores[i][0] = vdw;
                scores[i][3] = burial;
            }
        },
    );
    timed(
        tracer,
        parent,
        "scoring.dist_pass",
        count,
        &mut out.dist_ns,
        || {
            for i in 0..n {
                scores[i][1] = scorer.dist_pass(target, &structures[i], &mut scratches[i]);
            }
        },
    );
    timed(
        tracer,
        parent,
        "scoring.triplet_pass",
        count,
        &mut out.triplet_ns,
        || {
            for i in 0..n {
                scores[i][2] =
                    scorer.triplet_pass(target, &structures[i], &cands[i], &mut scratches[i]);
            }
        },
    );
    out.members += n;

    // core.pareto: fitness over the population's scores.
    let vectors: Vec<ScoreVector> = scores.iter().map(|&a| ScoreVector::from_array(a)).collect();
    let fitness = timed(
        tracer,
        parent,
        "core.pareto.fitness_assignment",
        1.0,
        &mut out.fitness_ns,
        || fitness_assignment(&vectors),
    );
    std::hint::black_box(fitness);

    // core.decoyset: harvest the source's final population.
    let mut set = DecoySet::new(config.distinct_threshold_deg)
        .with_max_closure_deviation(config.max_closure_deviation);
    let added = timed(
        tracer,
        parent,
        "core.decoyset.harvest_population",
        1.0,
        &mut out.harvest_ns,
        || set.harvest_population(source.population, 0),
    );
    std::hint::black_box(added);
    out.populations += 1;
}

/// Close `cands` in blocks of `width` lanes, returning every lane's result.
fn close_blocks(
    closer: &CcdCloser,
    target: &LoopTarget,
    cands: &mut [Torsions],
    structures: &mut [LoopStructure],
    starts: &[usize],
    width: usize,
    scratch: &mut CcdBatchScratch,
) -> Vec<CcdResult> {
    let mut results = Vec::with_capacity(cands.len());
    for ((torsions, structs), starts) in cands
        .chunks_mut(width)
        .zip(structures.chunks_mut(width))
        .zip(starts.chunks(width))
    {
        let mut lanes: Vec<CcdLane<'_>> = torsions
            .iter_mut()
            .zip(structs.iter_mut())
            .zip(starts)
            .map(|((torsions, structure), &start_index)| CcdLane {
                torsions,
                structure,
                start_index,
            })
            .collect();
        closer.close_batch(&target.frame, &target.sequence, &mut lanes, scratch);
        results.extend_from_slice(scratch.results());
    }
    results
}
