//! Population-batched CCD closure: lockstep sweeps over a block of members.
//!
//! The paper closes every conformation of the population concurrently — one
//! device thread per conformation, all threads executing the same CCD sweep
//! with divergence handled by masking.  [`CcdCloser::close_batch`]
//! reproduces that execution shape on the host for one *block* of members:
//! all lanes advance through the same `(sweep, torsion)` schedule in
//! lockstep, members that have converged (or whose start index excludes a
//! torsion) are masked out, and the per-torsion optimal-rotation inner
//! products are gathered into flat SoA arrays and evaluated in one tight
//! batched loop ([`optimal_rotation_batch`]) instead of being interleaved
//! with structure traversal.
//!
//! **Bit-identity.**  Each member's computation depends only on its own
//! state, and the lockstep schedule performs, per member, exactly the same
//! operations in exactly the same order as the sequential
//! [`CcdCloser::close_with_scratch`]: exact build → (check; sweep over
//! eligible torsions: axis atoms mapped through the sweep's rigid motion
//! and written back, optimal rotation, conditional apply; tracked end frame
//! stored) → exact final build and its deviation.  Both paths drive
//! the same per-member rigid-sweep helper, and the batched inner products
//! call the identical scalar kernel per gathered lane, so every rotation
//! angle — and therefore every closed loop — matches the per-member
//! reference bit for bit (property-tested in this module and in
//! `lms-core`'s batched-pipeline equivalence tests).

use crate::ccd::{optimal_rotation, CcdCloser, CcdResult, RigidSweep};
use lms_geometry::Vec3;
use lms_protein::{AminoAcid, LoopFrame, LoopStructure, Torsions};

/// One member's view into a population-batched closure: its candidate
/// torsions, its reusable structure buffer, and the first torsion CCD may
/// adjust (the smallest mutated index).
#[derive(Debug)]
pub struct CcdLane<'a> {
    /// The torsion vector CCD adjusts in place.
    pub torsions: &'a mut Torsions,
    /// The member's persistent structure buffer; on return it holds the
    /// structure built from the final torsions (ready for scoring).
    pub structure: &'a mut LoopStructure,
    /// First flat torsion index eligible for adjustment.
    pub start_index: usize,
}

/// Reusable SoA workspace of one closure block: per-lane sweep state (the
/// rigid motion of the current sweep included) plus the gather buffers of
/// the batched optimal-rotation kernel.  All buffers warm up to the block
/// width on first use; afterwards a `close_batch` call performs no heap
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct CcdBatchScratch {
    deviation: Vec<f64>,
    initial: Vec<f64>,
    sweeps: Vec<usize>,
    rotations: Vec<usize>,
    active: Vec<bool>,
    sweep: Vec<RigidSweep>,
    results: Vec<CcdResult>,
    // Gathered per-rotation inputs, member-major SoA.
    g_lane: Vec<usize>,
    g_pivot: Vec<Vec3>,
    g_axis: Vec<Vec3>,
    g_moving: Vec<[Vec3; 3]>,
    g_theta: Vec<f64>,
}

impl CcdBatchScratch {
    /// Create an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        CcdBatchScratch::default()
    }

    /// Per-lane closure statistics of the most recent
    /// [`CcdCloser::close_batch`] call, in lane order.
    pub fn results(&self) -> &[CcdResult] {
        &self.results
    }

    fn reset(&mut self, lanes: usize) {
        self.deviation.clear();
        self.deviation.resize(lanes, 0.0);
        self.initial.clear();
        self.initial.resize(lanes, 0.0);
        self.sweeps.clear();
        self.sweeps.resize(lanes, 0);
        self.rotations.clear();
        self.rotations.resize(lanes, 0);
        self.active.clear();
        self.active.resize(lanes, false);
        self.sweep.clear();
        self.sweep.resize(lanes, RigidSweep::default());
        self.results.clear();
        self.g_lane.clear();
        if self.g_lane.capacity() < lanes {
            self.g_lane.reserve(lanes);
            self.g_pivot.reserve(lanes);
            self.g_axis.reserve(lanes);
            self.g_moving.reserve(lanes);
            self.g_theta.reserve(lanes);
        }
    }
}

/// The batched optimal-rotation kernel: one tight loop over the gathered
/// member-major SoA arrays, with nothing between the inner products — the
/// lane iterations are independent, so the compiler is free to vectorise
/// across members.  Each lane's angle is computed by the *identical* scalar
/// closed form the sequential sweep uses, so the batch is bit-identical to
/// per-member evaluation by construction.
pub fn optimal_rotation_batch(
    moving: &[[Vec3; 3]],
    targets: &[Vec3; 3],
    pivots: &[Vec3],
    axes: &[Vec3],
    thetas: &mut Vec<f64>,
) {
    debug_assert_eq!(moving.len(), pivots.len());
    debug_assert_eq!(moving.len(), axes.len());
    thetas.clear();
    for j in 0..moving.len() {
        thetas.push(optimal_rotation(&moving[j], targets, pivots[j], axes[j]));
    }
}

impl CcdCloser {
    /// Close every lane of one block in population lockstep.
    ///
    /// All lanes march through the same `(sweep, torsion)` schedule;
    /// converged and out-of-range lanes are masked.  Per-lane statistics
    /// land in `scratch.results()` (lane order) and each lane's structure
    /// buffer holds the final built candidate, exactly as after a
    /// per-member [`CcdCloser::close_with_scratch`] call.
    ///
    /// # Panics
    ///
    /// Panics if the lanes disagree on torsion count (a block always comes
    /// from one population over one target).
    pub fn close_batch(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        lanes: &mut [CcdLane<'_>],
        scratch: &mut CcdBatchScratch,
    ) {
        let builder = *self.builder();
        let config = *self.config();
        let targets = frame.c_anchor.atoms();
        scratch.reset(lanes.len());
        if lanes.is_empty() {
            return;
        }
        let n_angles = lanes[0].torsions.n_angles();
        for lane in lanes.iter() {
            assert_eq!(
                lane.torsions.n_angles(),
                n_angles,
                "all lanes of a closure block must share the loop length"
            );
        }

        // Initial build + deviation, exactly as the sequential path.
        for (j, lane) in lanes.iter_mut().enumerate() {
            builder.build_into(frame, sequence, lane.torsions, lane.structure);
            let dev = builder.closure_deviation(frame, lane.structure);
            scratch.initial[j] = dev;
            scratch.deviation[j] = dev;
        }

        loop {
            // Mask: a lane sweeps while its own `while` condition holds.
            let mut any_active = false;
            for (j, lane) in lanes.iter().enumerate() {
                let go = scratch.deviation[j] > config.tolerance
                    && scratch.sweeps[j] < config.max_sweeps;
                scratch.active[j] = go;
                if go {
                    scratch.sweeps[j] += 1;
                    scratch.sweep[j] = RigidSweep::begin(lane.structure);
                    any_active = true;
                }
            }
            if !any_active {
                break;
            }

            for k in 0..n_angles {
                // Gather phase: every active lane whose start index admits
                // torsion `k` contributes its pivot, axis and moving end
                // frame to the SoA arrays.
                scratch.g_lane.clear();
                scratch.g_pivot.clear();
                scratch.g_axis.clear();
                scratch.g_moving.clear();
                for (j, lane) in lanes.iter_mut().enumerate() {
                    if !scratch.active[j] || k < lane.start_index.min(n_angles) {
                        continue;
                    }
                    let sweep = &scratch.sweep[j];
                    let Some((pivot, axis)) = sweep.axis(lane.structure, k) else {
                        continue;
                    };
                    scratch.g_lane.push(j);
                    scratch.g_pivot.push(pivot);
                    scratch.g_axis.push(axis);
                    scratch.g_moving.push(sweep.moving());
                }

                // Batched inner products across the gathered members.
                optimal_rotation_batch(
                    &scratch.g_moving,
                    &targets,
                    &scratch.g_pivot,
                    &scratch.g_axis,
                    &mut scratch.g_theta,
                );

                // Apply phase: accepted rotations turn their lane's torsion
                // and fold into its rigid motion — O(1) per rotation, no
                // structure traversal.
                for (g, &j) in scratch.g_lane.iter().enumerate() {
                    let accepted = scratch.sweep[j].accept(
                        lanes[j].torsions,
                        k,
                        scratch.g_pivot[g],
                        scratch.g_axis[g],
                        scratch.g_theta[g],
                    );
                    if accepted {
                        scratch.rotations[j] += 1;
                    }
                }
            }

            // Sweep end for the lanes that swept: store the tracked end
            // frame and take its deviation.
            for (j, lane) in lanes.iter_mut().enumerate() {
                if scratch.active[j] {
                    scratch.deviation[j] = scratch.sweep[j].finish(frame, lane.structure);
                }
            }
        }

        // One exact build per rotated lane restores the whole structure and
        // gives the reported deviation, exactly as the sequential path's
        // final state.  Untouched lanes still hold their exact initial
        // build.
        for (j, lane) in lanes.iter_mut().enumerate() {
            if scratch.rotations[j] > 0 {
                builder.build_into(frame, sequence, lane.torsions, lane.structure);
                scratch.deviation[j] = builder.closure_deviation(frame, lane.structure);
            }
        }

        for j in 0..lanes.len() {
            scratch.results.push(CcdResult {
                converged: scratch.deviation[j] <= config.tolerance,
                sweeps: scratch.sweeps[j],
                initial_deviation: scratch.initial[j],
                final_deviation: scratch.deviation[j],
                rotations_applied: scratch.rotations[j],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccd::CcdConfig;
    use lms_geometry::deg_to_rad;
    use lms_protein::BenchmarkLibrary;
    use rand::Rng;

    fn perturbed(name: &str, count: usize, seed: u64) -> (lms_protein::LoopTarget, Vec<Torsions>) {
        let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
        let factory = lms_geometry::StreamRngFactory::new(seed);
        let members = (0..count)
            .map(|m| {
                let mut rng = factory.stream(m as u64, 0);
                let mut t = target.native_torsions.clone();
                for k in 0..t.n_angles() {
                    t.rotate_angle(k, deg_to_rad((rng.gen::<f64>() * 2.0 - 1.0) * 40.0));
                }
                t
            })
            .collect();
        (target, members)
    }

    #[test]
    fn batch_closure_is_bit_identical_to_per_member() {
        for (name, seed) in [("1cex", 3u64), ("5pti", 11)] {
            let (target, members) = perturbed(name, 7, seed);
            let closer = CcdCloser::with_config(CcdConfig::new().with_max_sweeps(64));
            let n_res = target.n_residues();

            // Per-member reference.
            let mut ref_torsions = members.clone();
            let mut ref_results = Vec::new();
            let mut ref_structures = Vec::new();
            for (m, t) in ref_torsions.iter_mut().enumerate() {
                let mut s = LoopStructure::with_capacity(n_res);
                let start = m % 5; // exercise heterogeneous start indices
                ref_results.push(closer.close_with_scratch(
                    &target.frame,
                    &target.sequence,
                    t,
                    start,
                    &mut s,
                ));
                ref_structures.push(s);
            }

            // One lockstep block over the same members.
            let mut batch_torsions = members.clone();
            let mut structures: Vec<LoopStructure> = (0..members.len())
                .map(|_| LoopStructure::with_capacity(n_res))
                .collect();
            let mut lanes: Vec<CcdLane> = batch_torsions
                .iter_mut()
                .zip(structures.iter_mut())
                .enumerate()
                .map(|(m, (t, s))| CcdLane {
                    torsions: t,
                    structure: s,
                    start_index: m % 5,
                })
                .collect();
            let mut scratch = CcdBatchScratch::new();
            closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
            drop(lanes);

            assert_eq!(batch_torsions, ref_torsions, "{name}: torsions diverged");
            assert_eq!(
                scratch.results(),
                &ref_results[..],
                "{name}: stats diverged"
            );
            assert_eq!(structures, ref_structures, "{name}: structures diverged");
        }
    }

    #[test]
    fn block_partitioning_does_not_change_results() {
        // Closing the same population in blocks of 1, 3 and all-at-once
        // gives identical trajectories: lanes are fully independent.
        let (target, members) = perturbed("1akz", 6, 17);
        let closer = CcdCloser::with_config(CcdConfig::new().with_max_sweeps(48));
        let n_res = target.n_residues();
        let close_in_blocks = |width: usize| -> Vec<Torsions> {
            let mut torsions = members.clone();
            let mut structures: Vec<LoopStructure> = (0..members.len())
                .map(|_| LoopStructure::with_capacity(n_res))
                .collect();
            let mut scratch = CcdBatchScratch::new();
            for (ts, ss) in torsions.chunks_mut(width).zip(structures.chunks_mut(width)) {
                let mut lanes: Vec<CcdLane> = ts
                    .iter_mut()
                    .zip(ss.iter_mut())
                    .map(|(t, s)| CcdLane {
                        torsions: t,
                        structure: s,
                        start_index: 0,
                    })
                    .collect();
                closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
            }
            torsions
        };
        let one = close_in_blocks(1);
        let three = close_in_blocks(3);
        let all = close_in_blocks(members.len());
        assert_eq!(one, three);
        assert_eq!(one, all);
    }

    #[test]
    fn batch_rotation_kernel_matches_scalar() {
        let targets = [
            Vec3::new(2.0, 0.5, 1.0),
            Vec3::new(-1.0, 3.0, -1.0),
            Vec3::new(1.5, 1.5, 0.5),
        ];
        let moving: Vec<[Vec3; 3]> = (0..16)
            .map(|i| {
                let s = i as f64 * 0.37;
                [
                    Vec3::new(2.0 + s, 0.5 - s, 1.0),
                    Vec3::new(-1.0, 3.0 + s, -1.0 + s),
                    Vec3::new(1.5 - s, 1.5, 0.5 + s),
                ]
            })
            .collect();
        let pivots: Vec<Vec3> = (0..16)
            .map(|i| Vec3::new(0.1 * i as f64, 0.0, 0.0))
            .collect();
        let axes: Vec<Vec3> = (0..16)
            .map(|i| Vec3::new(0.2 * i as f64, 1.0, 0.5).try_normalize().unwrap())
            .collect();
        let mut thetas = Vec::new();
        optimal_rotation_batch(&moving, &targets, &pivots, &axes, &mut thetas);
        for j in 0..16 {
            let scalar = optimal_rotation(&moving[j], &targets, pivots[j], axes[j]);
            assert_eq!(thetas[j].to_bits(), scalar.to_bits(), "lane {j}");
        }
    }

    #[test]
    fn empty_and_converged_blocks_are_noops() {
        let mut scratch = CcdBatchScratch::new();
        let closer = CcdCloser::default();
        let target = BenchmarkLibrary::standard().target_by_name("5pti").unwrap();
        let mut lanes: Vec<CcdLane> = Vec::new();
        closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
        assert!(scratch.results().is_empty());

        // A native (already closed) lane performs zero sweeps.
        let mut t = target.native_torsions.clone();
        let mut s = LoopStructure::with_capacity(target.n_residues());
        let mut lanes = vec![CcdLane {
            torsions: &mut t,
            structure: &mut s,
            start_index: 0,
        }];
        closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
        drop(lanes);
        assert_eq!(scratch.results().len(), 1);
        assert!(scratch.results()[0].converged);
        assert_eq!(scratch.results()[0].sweeps, 0);
        assert_eq!(scratch.results()[0].rotations_applied, 0);
        assert_eq!(t, target.native_torsions);
    }
}
