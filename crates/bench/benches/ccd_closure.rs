//! Benchmark of the per-conformation closure and environment hot paths,
//! with every closure section at the sampler's production CCD operating
//! point (`SamplerConfig::default().ccd`: 24 sweeps / 0.25 Å):
//!
//! * **CCD closure**: the NeRF-per-rotation sweep (the downstream spine
//!   re-placed by NeRF after every accepted rotation, reproduced in
//!   [`nerf_per_rotation`], one `atan2` and one `sin_cos` per rotation)
//!   against the production rigid-body sweep (`CcdCloser::close_lane`, a
//!   one-lane `close_batch`: O(1) trig-free motion update per rotation,
//!   spine written back as the sweep visits it, one `atan2` per turned
//!   torsion and one exact build at closure start and end), at loop
//!   lengths 4, 8 and 12.  Both run the same rotation schedule up to
//!   round-off, so the ratio isolates the per-rotation update cost.
//! * **VDW environment term**: the exhaustive linear candidate scan
//!   against the production pass over the precomputed per-cell candidate
//!   lists (one slice read per site), on environments scaled 1×/10×/100×
//!   at roughly constant *local* density (extra atoms fill the candidate
//!   reach sphere, emulating a full-size protein around the loop).  The
//!   linear scan degrades with the total candidate count; the list pass
//!   should stay near-flat.  The lists' memory is recorded per scale.
//! * **Lockstep CCD blocks**: the population-batched `close_batch` swept
//!   over CCD block widths (ungated `blocks.scalar_ns_per_member.w*`
//!   rows); the batched optimal-rotation kernel is also timed in
//!   isolation (ungated `rotation_kernel.ns_per_lane.w*` rows).
//!
//! The harness writes `BENCH_ccd.json` at the workspace root (see
//! `lms_bench::artifact`) recording the comparisons and the executor
//! capabilities that produced them.  The two CCD sweeps, and the two VDW
//! environment passes, are timed in alternating batches, so their ratios
//! survive host-speed drift.

use lms_bench::artifact::{Artifact, Better, Gate};
use lms_bench::timing::{median_ns, paired_median_ns};
use lms_bench::{scaled_env_target, target_of_len};
use lms_closure::{
    optimal_rotation_batch, CcdBatchScratch, CcdCloser, CcdConfig, CcdLane, CcdResult,
};
use lms_core::SamplerConfig;
use lms_geometry::{StreamRngFactory, Vec3};
use lms_protein::{AminoAcid, LoopBuilder, LoopFrame, LoopStructure, LoopTarget, Torsions};
use lms_scoring::{ScoreScratch, VdwScore};
use lms_simt::ExecutorConfig;
use std::hint::black_box;

/// The CCD operating point the sampler runs (and so every closure section
/// here measures).
fn production_ccd() -> CcdConfig {
    SamplerConfig::default().ccd
}

/// The NeRF-per-rotation CCD sweep the production rigid-body sweep
/// replaced, kept as the benchmark baseline: identical maths and rotation
/// schedule, but `rebuild_spine_from` over the downstream spine after
/// every accepted rotation.
mod nerf_per_rotation {
    use super::*;

    fn optimal_rotation(moving: &[Vec3; 3], targets: &[Vec3; 3], pivot: Vec3, axis: Vec3) -> f64 {
        let mut a = 0.0;
        let mut b = 0.0;
        for (m, t) in moving.iter().zip(targets.iter()) {
            let m_rel = *m - pivot;
            let t_rel = *t - pivot;
            let r = m_rel - axis * m_rel.dot(axis);
            let f = t_rel - axis * t_rel.dot(axis);
            a += f.dot(r);
            b += f.dot(axis.cross(r));
        }
        if a.abs() < 1e-15 && b.abs() < 1e-15 {
            0.0
        } else {
            b.atan2(a)
        }
    }

    /// One closure from torsion 0 with a NeRF spine rebuild per accepted
    /// rotation and the final full build, mirroring the production
    /// closure at `config`.
    pub fn close(
        builder: &LoopBuilder,
        config: &CcdConfig,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
        scratch: &mut LoopStructure,
    ) -> (bool, usize) {
        let targets = frame.c_anchor.atoms();
        builder.build_into(frame, sequence, torsions, scratch);
        let mut deviation = builder.closure_deviation(frame, scratch);
        let mut sweeps = 0;
        let mut rotations = 0usize;
        while deviation > config.tolerance && sweeps < config.max_sweeps {
            sweeps += 1;
            for k in 0..torsions.n_angles() {
                let (residue, kind) = Torsions::describe_angle(k);
                let res_atoms = &scratch.residues[residue];
                let (pivot, axis_end) = match kind {
                    lms_protein::TorsionKind::Phi => (res_atoms.n, res_atoms.ca),
                    lms_protein::TorsionKind::Psi => (res_atoms.ca, res_atoms.c),
                };
                let Some(axis) = (axis_end - pivot).try_normalize() else {
                    continue;
                };
                let moving = scratch.end_frame.atoms();
                let delta = optimal_rotation(&moving, &targets, pivot, axis);
                if delta.abs() < 1e-9 {
                    continue;
                }
                torsions.rotate_angle(k, delta);
                rotations += 1;
                builder.rebuild_spine_from(frame, sequence, torsions, sequence.len(), k, scratch);
            }
            deviation = builder.closure_deviation(frame, scratch);
        }
        if rotations > 0 {
            builder.build_into(frame, sequence, torsions, scratch);
        }
        (deviation <= config.tolerance, rotations)
    }
}

/// Loop lengths the closure comparison runs at.
const LOOP_LENGTHS: [usize; 3] = [4, 8, 12];

/// Environment scale factors for the VDW comparison.
const ENV_FACTORS: [usize; 3] = [1, 10, 100];

/// CCD block widths the lockstep-closure sweep runs at.
const BLOCK_WIDTHS: [usize; 3] = [4, 8, 16];

/// Lane counts the isolated rotation-kernel comparison runs at.
const KERNEL_WIDTHS: [usize; 4] = [4, 8, 16, 32];

/// Kernel calls per timed sample of the isolated rotation kernel.
const KERNEL_ITERS: u32 = 20_000;

/// Members in the lockstep-closure population.
const BLOCK_POPULATION: usize = 16;

/// Population closures per timed sample of the lockstep-closure sweep.
const BLOCK_ITERS: u32 = 40;

/// Perturbed-native torsion starts: far enough from closure that CCD does
/// real work at every length.
fn starts(target: &LoopTarget, count: usize) -> Vec<Torsions> {
    let factory = StreamRngFactory::new(31);
    (0..count)
        .map(|i| {
            let mut rng = factory.stream(i as u64, 0);
            let mut t = target.native_torsions.clone();
            for k in 0..t.n_angles() {
                t.rotate_angle(k, lms_geometry::random_torsion(&mut rng) * 0.25);
            }
            t
        })
        .collect()
}

/// Deterministic synthetic inputs for `width` lanes of the batched
/// optimal-rotation kernel: protein-magnitude coordinates on gentle
/// trigonometric walks, unit axes — enough variation that no lane's
/// arithmetic folds away, with no RNG in the timing loop.
fn kernel_inputs(width: usize) -> (Vec<[Vec3; 3]>, [Vec3; 3], Vec<Vec3>, Vec<Vec3>) {
    let targets = [
        Vec3::new(1.2, 0.4, -0.8),
        Vec3::new(2.6, 1.5, 0.3),
        Vec3::new(3.9, 0.9, 1.1),
    ];
    let mut moving = Vec::with_capacity(width);
    let mut pivots = Vec::with_capacity(width);
    let mut axes = Vec::with_capacity(width);
    for j in 0..width {
        let p = j as f64 * 0.37;
        moving.push([
            Vec3::new(1.0 + p.sin(), 0.2 + p.cos(), -0.5 + 0.1 * p),
            Vec3::new(2.4 + (p * 1.7).sin(), 1.1 + (p * 0.9).cos(), 0.4 - 0.05 * p),
            Vec3::new(3.6 + (p * 0.6).cos(), 0.7 + (p * 1.3).sin(), 1.3 + 0.02 * p),
        ]);
        pivots.push(Vec3::new(0.3 * p.cos(), 0.2 * p.sin(), 0.1 * p));
        axes.push(
            Vec3::new((p * 0.8).cos(), (p * 1.1).sin(), 0.7)
                .try_normalize()
                .expect("non-degenerate axis"),
        );
    }
    (moving, targets, pivots, axes)
}

/// Close one member from torsion 0 through the production per-member path,
/// a one-lane block.
fn close_one(
    closer: &CcdCloser,
    target: &LoopTarget,
    torsions: &mut Torsions,
    structure: &mut LoopStructure,
    block: &mut CcdBatchScratch,
) -> CcdResult {
    let lane = CcdLane {
        torsions,
        structure,
        start_index: 0,
    };
    closer.close_lane(&target.frame, &target.sequence, lane, block)
}

/// Close a population in lockstep blocks of `width`, resetting every member
/// to its start torsions first.  Mirrors the sampler's `stage_close` block
/// partition (ragged final block included) over reused buffers.
fn close_population(
    closer: &CcdCloser,
    target: &LoopTarget,
    starts: &[Torsions],
    width: usize,
    torsions: &mut [Torsions],
    structures: &mut [LoopStructure],
    scratch: &mut CcdBatchScratch,
) {
    for (t, s) in torsions.iter_mut().zip(starts.iter()) {
        t.clone_from(s);
    }
    for (t_block, s_block) in torsions.chunks_mut(width).zip(structures.chunks_mut(width)) {
        let mut lanes: Vec<CcdLane> = t_block
            .iter_mut()
            .zip(s_block.iter_mut())
            .map(|(t, s)| CcdLane {
                torsions: t,
                structure: s,
                start_index: 0,
            })
            .collect();
        closer.close_batch(&target.frame, &target.sequence, &mut lanes, scratch);
    }
}

/// The capabilities of the executor backend this bench run's lockstep
/// sweep corresponds to, so the artifact's numbers stay attributable to a
/// backend.
fn executor_metadata() -> String {
    let executor = ExecutorConfig::scalar()
        .build()
        .expect("scalar backend is always available");
    executor.capabilities().to_string()
}

/// Measure both comparisons and write `BENCH_ccd.json` at the workspace
/// root.
fn write_bench_json() {
    let builder = LoopBuilder::default();

    // --- CCD: NeRF per rotation vs rigid-body sweep --------------------
    let config = production_ccd();
    let mut artifact = Artifact::new("ccd_closure", Some(executor_metadata()));
    for &len in &LOOP_LENGTHS {
        let target = target_of_len(len);
        let torsions = starts(&target, 16);
        let closer = CcdCloser::with_config(config);
        let iters = 200u32;

        let mut nerf_scratch = LoopStructure::with_capacity(len);
        let mut i = 0usize;
        let mut rigid_scratch = LoopStructure::with_capacity(len);
        let mut block = CcdBatchScratch::new();
        let mut j = 0usize;
        let (nerf, rigid) = paired_median_ns(
            || {
                let mut t = torsions[i % torsions.len()].clone();
                i += 1;
                black_box(nerf_per_rotation::close(
                    &builder,
                    &config,
                    &target.frame,
                    &target.sequence,
                    &mut t,
                    &mut nerf_scratch,
                ));
            },
            || {
                let mut t = torsions[j % torsions.len()].clone();
                j += 1;
                black_box(close_one(
                    &closer,
                    &target,
                    &mut t,
                    &mut rigid_scratch,
                    &mut block,
                ));
            },
            iters,
            9,
        );

        let speedup = nerf / rigid;
        println!(
            "ccd_closure len={len}: nerf-per-rotation {nerf:.0} ns/closure, \
             rigid {rigid:.0} ns/closure, speedup {speedup:.2}x"
        );
        artifact.ns(format!("ccd.nerf_ns_per_closure.len{len}"), nerf);
        artifact.ns(format!("ccd.rigid_ns_per_closure.len{len}"), rigid);
        let name = format!("ccd.rigid_speedup.len{len}");
        artifact.ratio(name, speedup, Better::Higher);
    }

    // --- VDW environment: linear scan vs per-cell lists ---------------
    let vdw = VdwScore::default();
    let base = target_of_len(12);
    let mut cells_by_factor = Vec::new();
    for &factor in &ENV_FACTORS {
        let target = scaled_env_target(&base, factor);
        let structure = target.build(&builder, &target.native_torsions);
        let env = target.env_candidates();
        let (candidates, list_bytes) = (env.len(), env.list_bytes());
        let iters = (40_000 / factor as u32).max(200);

        let mut linear_scratch = ScoreScratch::for_loop_len(12);
        let mut cells_scratch = ScoreScratch::for_loop_len(12);
        let (linear, cells) = paired_median_ns(
            || {
                black_box(vdw.environment_term_linear(&target, &structure, &mut linear_scratch));
            },
            || {
                black_box(vdw.environment_term(&target, &structure, &mut cells_scratch));
            },
            iters,
            9,
        );
        cells_by_factor.push(cells);
        let speedup = linear / cells;
        println!(
            "vdw_env x{factor}: {candidates} candidates, {list_bytes} list bytes, \
             linear {linear:.0} ns/eval, lists {cells:.0} ns/eval, speedup {speedup:.2}x"
        );
        let x = |what: &str| format!("vdw_env.{what}.x{factor}");
        let count = candidates as f64;
        artifact.push(x("candidates"), count, "count", Better::Lower, Gate::None);
        let bytes = list_bytes as f64;
        artifact.push(x("list_bytes"), bytes, "bytes", Better::Lower, Gate::None);
        artifact.ns(x("linear_ns_per_eval"), linear);
        artifact.ns(x("cells_ns_per_eval"), cells);
        artifact.ratio(x("cells_speedup"), speedup, Better::Higher);
    }
    let growth = cells_by_factor[2] / cells_by_factor[0];
    println!("vdw_env list cost growth 100x/1x: {growth:.2}x");
    let name = "vdw_env.cells_cost_growth_100x_over_1x";
    artifact.push(name, growth, "ratio", Better::Lower, Gate::None);

    // --- Lockstep CCD blocks: block-width sweep ------------------------
    let target = target_of_len(8);
    let member_starts = starts(&target, BLOCK_POPULATION);
    let mut member_torsions = member_starts.clone();
    let mut member_structures: Vec<LoopStructure> = (0..BLOCK_POPULATION)
        .map(|_| LoopStructure::with_capacity(8))
        .collect();
    let mut batch_scratch = CcdBatchScratch::default();
    let closer = CcdCloser::with_config(config);
    for &width in &BLOCK_WIDTHS {
        let close = || {
            close_population(
                &closer,
                &target,
                &member_starts,
                width,
                &mut member_torsions,
                &mut member_structures,
                &mut batch_scratch,
            )
        };
        let scalar = median_ns(close, BLOCK_ITERS, 9) / BLOCK_POPULATION as f64;
        println!("ccd_blocks w={width}: scalar {scalar:.0} ns/member");
        artifact.ns(format!("blocks.scalar_ns_per_member.w{width}"), scalar);
    }

    // --- Batched optimal-rotation kernel in isolation ------------------
    for &width in &KERNEL_WIDTHS {
        let (moving, targets, pivots, axes) = kernel_inputs(width);
        let mut ab = Vec::with_capacity(width);
        let kernel_ns = median_ns(
            || {
                optimal_rotation_batch(&moving, &targets, &pivots, &axes, &mut ab);
                black_box(&ab);
            },
            KERNEL_ITERS,
            9,
        );
        let per_lane = kernel_ns / width as f64;
        println!("rotation_kernel w={width}: {kernel_ns:.1} ns/call, {per_lane:.2} ns/lane");
        artifact.ns(format!("rotation_kernel.ns_per_lane.w{width}"), per_lane);
    }

    artifact.write_to_workspace_root("BENCH_ccd.json");
}

fn main() {
    write_bench_json();
}
