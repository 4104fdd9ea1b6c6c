//! Benchmark of the zero-allocation scoring pipeline: the seed's allocating
//! evaluation path (fresh structure build, AoS site vectors, per-site
//! spatial-grid environment queries — reproduced verbatim in
//! [`legacy`]) against the workspace path (`MultiScorer::evaluate_with`
//! writing into reused SoA buffers with the structure rebuilt in place),
//! across loop lengths 4, 8 and 12.
//!
//! A second comparison measures the cost of the fourth (solvation/burial)
//! objective: `MultiScorer::evaluate_with` with three objectives vs four on
//! a 10×-scaled environment (full-size-protein candidate counts).  Because
//! the burial contact counts are filtered from the candidate lists the VDW
//! environment pass already reads (one list per site serves both
//! objectives), the fourth objective should cost well under 1.5× the
//! three-objective evaluation.
//!
//! A third comparison measures the shared-gather DIST bound: the fused
//! evaluation (the VDW pass records the Cα–Cα distance table, DIST reads
//! its bounding check from it) against the unfused composition where DIST
//! recomputes the Cα geometry per residue pair.
//!
//! A fourth comparison measures the **population-batched kernel pipeline**:
//! one full trajectory through the staged SoA-arena launches
//! (`MoscemSampler::run_with_seed`) vs the per-member reference
//! (`run_reference_with_seed`), reported as ns per member-iteration.  The
//! two paths are asserted bit-identical on every measurement, so the ratio
//! is pure execution-shape speedup.
//!
//! A fifth comparison measures the **numerical health sweep** — the
//! post-score finite-classification pass the fault-tolerant runtime runs
//! once per staged iteration — against the cost of one batched
//! member-iteration.  The guard is supposed to be noise (< 3% of a
//! member-iteration); its row carries that bound, which the CI gate
//! enforces absolutely.
//!
//! Besides the criterion groups, the harness writes `BENCH_scoring.json`
//! at the workspace root (see `lms_bench::artifact`): every measured time
//! as an ungated row, and the workspace, cost, pipeline and health-sweep
//! ratios as rows the CI perf-regression gate tracks.

use criterion::{criterion_group, Criterion};
use lms_bench::artifact::{Artifact, Better, Gate};
use lms_bench::{scaled_env_target, shared_kb};
use lms_core::{member_is_finite, MoscemSampler, SamplerConfig};
use lms_protein::{BenchmarkLibrary, LoopBuilder, LoopStructure, LoopTarget, TargetSpec, Torsions};
use lms_scoring::{MultiScorer, ScoreScratch, ScoringFunction, VdwScore};
use lms_simt::ExecutorConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The seed repository's allocating scoring pipeline, kept here as the
/// benchmark baseline after production scoring moved to the workspace
/// kernels: AoS interaction-site `Vec` rebuilt per call, spatial-grid
/// environment queries per site, a `per_res` collection in DIST and a
/// fresh class `Vec` in TRIPLET.
mod legacy {
    use lms_geometry::Vec3;
    use lms_protein::{LoopStructure, LoopTarget, RamaClass, Torsions};
    use lms_scoring::{
        BackboneAtomKind, ContactWeights, KnowledgeBase, ScoreVector, SeparationClass, VdwRadii,
        DIST_MAX,
    };

    fn overlap_penalty(softness: f64, d: f64, sigma: f64) -> f64 {
        let sigma = sigma * softness;
        if d >= sigma || sigma <= 0.0 {
            0.0
        } else {
            let x = (sigma - d) / sigma;
            x * x
        }
    }

    fn vdw(target: &LoopTarget, structure: &LoopStructure) -> f64 {
        let radii = VdwRadii::default();
        let weights = ContactWeights::default();
        let mut sites: Vec<(Vec3, f64, usize, bool)> =
            Vec::with_capacity(structure.n_residues() * 5);
        for (i, res) in structure.residues.iter().enumerate() {
            sites.push((res.n, radii.n, i, false));
            sites.push((res.ca, radii.ca, i, false));
            sites.push((res.c, radii.c, i, false));
            sites.push((res.o, radii.o, i, false));
            if let Some(c) = res.centroid {
                sites.push((c, target.sequence[i].centroid_radius(), i, true));
            }
        }
        let mut total = 0.0;
        for (a, &(pa, ra, ia, ca)) in sites.iter().enumerate() {
            for &(pb, rb, ib, cb) in &sites[(a + 1)..] {
                if ib.abs_diff(ia) < 2 {
                    continue;
                }
                let w = match (ca, cb) {
                    (false, false) => weights.atom_atom,
                    (true, true) => weights.centroid_centroid,
                    _ => weights.atom_centroid,
                };
                total += w * overlap_penalty(radii.softness, pa.distance(pb), ra + rb);
            }
        }
        for &(p, r, _i, is_centroid) in &sites {
            target.environment.for_each_within(p, 7.0, |atom| {
                let w = match (is_centroid, atom.is_centroid) {
                    (false, false) => weights.atom_atom,
                    (true, true) => weights.centroid_centroid,
                    _ => weights.atom_centroid,
                };
                total +=
                    w * overlap_penalty(radii.softness, p.distance(atom.position), r + atom.radius);
            });
        }
        total / structure.n_residues() as f64
    }

    fn dist(kb: &KnowledgeBase, structure: &LoopStructure) -> f64 {
        let per_res: Vec<[(BackboneAtomKind, Vec3); 4]> = structure
            .residues
            .iter()
            .map(|r| {
                [
                    (BackboneAtomKind::N, r.n),
                    (BackboneAtomKind::Ca, r.ca),
                    (BackboneAtomKind::C, r.c),
                    (BackboneAtomKind::O, r.o),
                ]
            })
            .collect();
        let n = per_res.len();
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let Some(sep) = SeparationClass::from_separation(j - i) else {
                    continue;
                };
                for &(ka, pa) in &per_res[i] {
                    for &(kb_kind, pb) in &per_res[j] {
                        let d = pa.distance(pb);
                        if d >= DIST_MAX {
                            continue;
                        }
                        total += kb.dist.energy(ka, kb_kind, sep, d);
                        pairs += 1;
                    }
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total / pairs as f64
        }
    }

    fn triplet(kb: &KnowledgeBase, target: &LoopTarget, torsions: &Torsions) -> f64 {
        let classes: Vec<RamaClass> = target.sequence.iter().map(|aa| aa.rama_class()).collect();
        let n = classes.len();
        let mut total = 0.0;
        for i in 0..n {
            let prev = if i == 0 {
                RamaClass::General
            } else {
                classes[i - 1]
            };
            let next = if i + 1 == n {
                RamaClass::General
            } else {
                classes[i + 1]
            };
            total += kb
                .triplet
                .energy(prev, classes[i], next, torsions.phi(i), torsions.psi(i));
        }
        total / n as f64
    }

    /// The seed's `MultiScorer::evaluate` equivalent.
    pub fn evaluate(
        kb: &KnowledgeBase,
        target: &LoopTarget,
        structure: &LoopStructure,
        torsions: &Torsions,
    ) -> ScoreVector {
        ScoreVector::new(
            vdw(target, structure),
            dist(kb, structure),
            triplet(kb, target, torsions),
        )
    }
}

/// Loop lengths the pipeline is profiled at.
const LOOP_LENGTHS: [usize; 3] = [4, 8, 12];

fn target_of_len(len: usize) -> LoopTarget {
    // Length 12 matches the paper's headline targets; shorter loops are
    // generated from ad-hoc specs with the same synthetic machinery.
    let spec = TargetSpec {
        name: "1cex",
        start: 40,
        len,
        buried: false,
    };
    BenchmarkLibrary::standard().generate(&spec)
}

fn conformations(target: &LoopTarget, count: usize) -> Vec<Torsions> {
    // A spread of perturbed-native conformations so the kernels see varied
    // contact patterns rather than one cache-friendly geometry.
    let factory = lms_geometry::StreamRngFactory::new(7);
    (0..count)
        .map(|i| {
            let mut rng = factory.stream(i as u64, 0);
            let mut t = target.native_torsions.clone();
            for k in 0..t.n_angles() {
                t.rotate_angle(k, lms_geometry::random_torsion(&mut rng) * 0.15);
            }
            t
        })
        .collect()
}

fn bench_scoring_pipeline(c: &mut Criterion) {
    let kb = shared_kb();
    let builder = LoopBuilder::default();
    let mut group = c.benchmark_group("scoring_pipeline");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &len in &LOOP_LENGTHS {
        let target = target_of_len(len);
        let scorer = MultiScorer::new(kb.clone());
        let torsions = conformations(&target, 16);

        group.bench_function(format!("allocating/len{len}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let t = &torsions[i % torsions.len()];
                i += 1;
                // The seed pipeline: fresh structure, AoS sites, grid queries.
                let structure = target.build(&builder, t);
                black_box(legacy::evaluate(&kb, &target, &structure, t))
            })
        });

        group.bench_function(format!("workspace/len{len}"), |b| {
            let mut structure = LoopStructure::with_capacity(len);
            let mut scratch = ScoreScratch::for_loop_len(len);
            let mut i = 0usize;
            b.iter(|| {
                let t = &torsions[i % torsions.len()];
                i += 1;
                // The zero-allocation pipeline: in-place rebuild + reused
                // scoring workspace.
                target.build_into(&builder, t, &mut structure);
                black_box(scorer.evaluate_with(&target, &structure, t, &mut scratch))
            })
        });
    }
    group.finish();
}

/// Environment scale factor the 3-vs-4-objective comparison runs at
/// (matching the cell-list bench's 10× "full-size protein" point).
const OBJECTIVE_ENV_FACTOR: usize = 10;

fn bench_objective_scaling(c: &mut Criterion) {
    let kb = shared_kb();
    let builder = LoopBuilder::default();
    let base = target_of_len(12);
    let target = scaled_env_target(&base, OBJECTIVE_ENV_FACTOR);
    target.env_candidates();
    let torsions = conformations(&target, 16);
    let three = MultiScorer::new(kb.clone());
    let four = three.clone().with_burial(true);

    let mut group = c.benchmark_group("objective_scaling");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for (name, scorer) in [("three_objectives", &three), ("four_objectives", &four)] {
        group.bench_function(format!("{name}/x{OBJECTIVE_ENV_FACTOR}"), |b| {
            let mut structure = LoopStructure::with_capacity(12);
            let mut scratch = ScoreScratch::for_loop_len(12);
            let mut i = 0usize;
            b.iter(|| {
                let t = &torsions[i % torsions.len()];
                i += 1;
                target.build_into(&builder, t, &mut structure);
                black_box(scorer.evaluate_with(&target, &structure, t, &mut scratch))
            })
        });
    }
    group.finish();
}

/// The trajectory configuration of the staged-vs-per-member pipeline
/// comparison: loop length 12 (the paper's headline targets), a small
/// population so one measurement stays fast, enough iterations that the
/// evolution loop dominates initialization.
const PIPELINE_POPULATION: usize = 32;
const PIPELINE_ITERATIONS: usize = 6;
const PIPELINE_SEED: u64 = 2024;

fn pipeline_sampler() -> MoscemSampler {
    let cfg = SamplerConfig::builder()
        .population_size(PIPELINE_POPULATION)
        .n_complexes(2)
        .iterations(PIPELINE_ITERATIONS)
        .seed(PIPELINE_SEED)
        .build()
        .expect("valid pipeline bench config");
    MoscemSampler::new(target_of_len(12), shared_kb(), cfg)
}

fn bench_population_pipeline(c: &mut Criterion) {
    let sampler = pipeline_sampler();
    let exec = ExecutorConfig::scalar().build().unwrap();
    let mut group = c.benchmark_group("population_pipeline");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("per_member/len12", |b| {
        b.iter(|| black_box(sampler.run_reference_with_seed(&exec, PIPELINE_SEED)))
    });
    group.bench_function("batched/len12", |b| {
        b.iter(|| black_box(sampler.run_with_seed(&exec, PIPELINE_SEED)))
    });
    group.finish();
}

fn bench_shared_gather(c: &mut Criterion) {
    let kb = shared_kb();
    let builder = LoopBuilder::default();
    let target = target_of_len(12);
    let scorer = MultiScorer::new(kb.clone());
    let vdw = VdwScore::default();
    let torsions = conformations(&target, 16);
    target.env_candidates();

    let mut group = c.benchmark_group("shared_gather_dist");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    group.bench_function("fused/len12", |b| {
        let mut structure = LoopStructure::with_capacity(12);
        let mut scratch = ScoreScratch::for_loop_len(12);
        let mut i = 0usize;
        b.iter(|| {
            let t = &torsions[i % torsions.len()];
            i += 1;
            target.build_into(&builder, t, &mut structure);
            // The fused path: the VDW pass records the Cα table, DIST reads
            // its bound from it.
            black_box(scorer.evaluate_with(&target, &structure, t, &mut scratch))
        })
    });
    group.bench_function("unfused/len12", |b| {
        let mut structure = LoopStructure::with_capacity(12);
        let mut scratch = ScoreScratch::for_loop_len(12);
        let comps = scorer.components();
        let mut i = 0usize;
        b.iter(|| {
            let t = &torsions[i % torsions.len()];
            i += 1;
            target.build_into(&builder, t, &mut structure);
            // The unfused composition: each objective through its own
            // trait kernel, DIST recomputing the Cα bound per pair.
            let v = vdw.score_with(&target, &structure, t, &mut scratch);
            let d = comps[1].score_with(&target, &structure, t, &mut scratch);
            let tr = comps[2].score_with(&target, &structure, t, &mut scratch);
            black_box((v, d, tr))
        })
    });
    group.finish();
}

/// Median ns/eval of a closure over `samples` timed batches.
fn median_ns_per_eval<F: FnMut()>(mut f: F, iters: u32, samples: u32) -> f64 {
    let mut results: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    results.sort_by(|a, b| a.partial_cmp(b).unwrap());
    results[results.len() / 2]
}

/// Absolute ceiling on the health sweep's cost relative to one batched
/// member-iteration: the guard runs every staged iteration, so it must stay
/// noise regardless of runner speed.
const HEALTH_SWEEP_OVERHEAD_BOUND: f64 = 0.03;

/// Measure every comparison and write `BENCH_scoring.json` at the
/// workspace root.
fn write_bench_json() {
    let kb = shared_kb();
    let builder = LoopBuilder::default();
    let exec = ExecutorConfig::scalar().build().unwrap();
    let mut artifact = Artifact::new("scoring_pipeline", Some(exec.capabilities().to_string()));
    for &len in &LOOP_LENGTHS {
        let target = target_of_len(len);
        let scorer = MultiScorer::new(kb.clone());
        let torsions = conformations(&target, 16);

        let iters = 2_000u32.min(40_000 / len as u32);
        let mut i = 0usize;
        let allocating = median_ns_per_eval(
            || {
                let t = &torsions[i % torsions.len()];
                i += 1;
                let structure = target.build(&builder, t);
                black_box(legacy::evaluate(&kb, &target, &structure, t));
            },
            iters,
            9,
        );

        let mut structure = LoopStructure::with_capacity(len);
        let mut scratch = ScoreScratch::for_loop_len(len);
        let mut j = 0usize;
        let workspace = median_ns_per_eval(
            || {
                let t = &torsions[j % torsions.len()];
                j += 1;
                target.build_into(&builder, t, &mut structure);
                black_box(scorer.evaluate_with(&target, &structure, t, &mut scratch));
            },
            iters,
            9,
        );

        let speedup = allocating / workspace;
        println!(
            "scoring_pipeline len={len}: allocating {allocating:.0} ns/eval, \
             workspace {workspace:.0} ns/eval, speedup {speedup:.2}x"
        );
        artifact.ns(format!("allocating_ns_per_eval.len{len}"), allocating);
        artifact.ns(format!("workspace_ns_per_eval.len{len}"), workspace);
        let name = format!("workspace_speedup.len{len}");
        artifact.ratio(name, speedup, Better::Higher);
    }

    // --- 3-objective vs 4-objective shared-gather comparison ----------
    let base = target_of_len(12);
    let target = scaled_env_target(&base, OBJECTIVE_ENV_FACTOR);
    target.env_candidates();
    let torsions = conformations(&target, 16);
    let three = MultiScorer::new(kb.clone());
    let four = three.clone().with_burial(true);
    let measure = |scorer: &MultiScorer| {
        let mut structure = LoopStructure::with_capacity(12);
        let mut scratch = ScoreScratch::for_loop_len(12);
        let mut i = 0usize;
        median_ns_per_eval(
            || {
                let t = &torsions[i % torsions.len()];
                i += 1;
                target.build_into(&builder, t, &mut structure);
                black_box(scorer.evaluate_with(&target, &structure, t, &mut scratch));
            },
            2_000,
            9,
        )
    };
    let three_ns = measure(&three);
    let four_ns = measure(&four);
    let cost_ratio = four_ns / three_ns;
    println!(
        "objective_scaling x{OBJECTIVE_ENV_FACTOR}: three {three_ns:.0} ns/eval, \
         four {four_ns:.0} ns/eval, cost ratio {cost_ratio:.2}x"
    );
    artifact.ns("objectives.three_ns_per_eval", three_ns);
    artifact.ns("objectives.four_ns_per_eval", four_ns);
    artifact.ratio("objectives.cost_ratio", cost_ratio, Better::Lower);

    // --- shared-gather DIST bound: fused vs unfused ------------------
    let target = target_of_len(12);
    target.env_candidates();
    let torsions = conformations(&target, 16);
    let scorer = MultiScorer::new(kb.clone());
    let vdw = VdwScore::default();
    let fused_ns = {
        let mut structure = LoopStructure::with_capacity(12);
        let mut scratch = ScoreScratch::for_loop_len(12);
        let mut i = 0usize;
        median_ns_per_eval(
            || {
                let t = &torsions[i % torsions.len()];
                i += 1;
                target.build_into(&builder, t, &mut structure);
                black_box(scorer.evaluate_with(&target, &structure, t, &mut scratch));
            },
            2_000,
            9,
        )
    };
    let unfused_ns = {
        let mut structure = LoopStructure::with_capacity(12);
        let mut scratch = ScoreScratch::for_loop_len(12);
        let comps = scorer.components();
        let mut i = 0usize;
        median_ns_per_eval(
            || {
                let t = &torsions[i % torsions.len()];
                i += 1;
                target.build_into(&builder, t, &mut structure);
                let v = vdw.score_with(&target, &structure, t, &mut scratch);
                let d = comps[1].score_with(&target, &structure, t, &mut scratch);
                let tr = comps[2].score_with(&target, &structure, t, &mut scratch);
                black_box((v, d, tr));
            },
            2_000,
            9,
        )
    };
    let gather_speedup = unfused_ns / fused_ns;
    println!(
        "shared_gather_dist len=12: unfused {unfused_ns:.0} ns/eval, \
         fused {fused_ns:.0} ns/eval, speedup {gather_speedup:.3}x"
    );
    artifact.ns("shared_gather.unfused_ns_per_eval", unfused_ns);
    artifact.ns("shared_gather.fused_ns_per_eval", fused_ns);
    let name = "shared_gather.speedup";
    artifact.push(name, gather_speedup, "ratio", Better::Higher, Gate::None);

    // --- population-batched pipeline vs per-member reference ----------
    let sampler = pipeline_sampler();
    // Bit-identity is asserted on every measurement run: the ratio below is
    // pure execution-shape speedup, never an algorithm change.
    {
        let a = sampler.run_reference_with_seed(&exec, PIPELINE_SEED);
        let b = sampler.run_with_seed(&exec, PIPELINE_SEED);
        for (x, y) in a.population.iter().zip(b.population.iter()) {
            assert_eq!(x.torsions, y.torsions, "pipeline bench lost bit-identity");
            assert_eq!(x.scores, y.scores, "pipeline bench lost bit-identity");
        }
    }
    let member_iters = (PIPELINE_POPULATION * PIPELINE_ITERATIONS) as f64;
    let per_member_ns = median_ns_per_eval(
        || {
            let _ = black_box(sampler.run_reference_with_seed(&exec, PIPELINE_SEED));
        },
        1,
        9,
    ) / member_iters;
    let batched_ns = median_ns_per_eval(
        || {
            let _ = black_box(sampler.run_with_seed(&exec, PIPELINE_SEED));
        },
        1,
        9,
    ) / member_iters;
    let pipeline_speedup = per_member_ns / batched_ns;
    println!(
        "population_pipeline len=12 pop={PIPELINE_POPULATION} iters={PIPELINE_ITERATIONS}: \
         per-member {per_member_ns:.0} ns/member-iter, batched {batched_ns:.0} ns/member-iter, \
         speedup {pipeline_speedup:.3}x"
    );
    artifact.ns("pipeline.per_member_ns_per_member_iter", per_member_ns);
    artifact.ns("pipeline.batched_ns_per_member_iter", batched_ns);
    artifact.ratio("pipeline.speedup", pipeline_speedup, Better::Higher);

    // --- numerical health sweep vs one batched member-iteration -------
    // The sweep body exactly as `stage_health` runs it: one
    // finite-classification of every member's candidate lanes, on real
    // trajectory data (final population of the run measured above).
    let trajectory = sampler.run_with_seed(&exec, PIPELINE_SEED);
    let population = trajectory.population.len();
    let stride = trajectory.population[0].torsions.as_slice().len();
    let sweep_scores: Vec<_> = trajectory.population.iter().map(|c| c.scores).collect();
    let sweep_torsions: Vec<f64> = trajectory
        .population
        .iter()
        .flat_map(|c| c.torsions.as_slice().iter().copied())
        .collect();
    let sweep_devs = vec![0.12f64; population];
    let sweep_rmsds = vec![1.5f64; population];
    let mut healthy = vec![true; population];
    let sweep_ns = median_ns_per_eval(
        || {
            for i in 0..population {
                healthy[i] = member_is_finite(
                    &sweep_scores[i],
                    &sweep_torsions[i * stride..(i + 1) * stride],
                    sweep_devs[i],
                    sweep_rmsds[i],
                );
            }
            black_box(&healthy);
        },
        10_000,
        9,
    ) / population as f64;
    let health_overhead = sweep_ns / batched_ns;
    println!(
        "health_sweep pop={population}: {sweep_ns:.1} ns/member vs batched \
         {batched_ns:.0} ns/member-iter, overhead ratio {health_overhead:.5}"
    );

    artifact.ns("health_sweep.sweep_ns_per_member", sweep_ns);
    artifact.push(
        "health_sweep.overhead_ratio",
        health_overhead,
        "ratio",
        Better::Lower,
        Gate::Bound(HEALTH_SWEEP_OVERHEAD_BOUND),
    );
    artifact.write_to_workspace_root("BENCH_scoring.json");
}

criterion_group!(
    benches,
    bench_scoring_pipeline,
    bench_objective_scaling,
    bench_shared_gather,
    bench_population_pipeline
);

fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    write_bench_json();
}
