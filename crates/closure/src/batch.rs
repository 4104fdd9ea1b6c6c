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
//! **Bit-identity.**  One private driver runs the rigid sweep.
//! [`CcdCloser::close_batch`] is an exact
//! [`LoopBuilder::build_into`](lms_protein::LoopBuilder::build_into) of
//! every lane followed by it, where a lane that never rotated keeps that
//! build; [`CcdCloser::close_prepared`], the staged sampler's one closure
//! entry point, runs it on lanes prepared from each member's earlier build
//! ([`LoopBuilder::rebuild_spine_from`](lms_protein::LoopBuilder::rebuild_spine_from);
//! from no built residue at all in the init rounds), which places the
//! same bits everywhere the sweep reads; and the
//! per-member entry points ([`CcdCloser::close_lane`] and the allocating
//! [`CcdCloser::close`]) close a one-lane `close_batch` block.  Each
//! member's computation depends only on its own state, and the lockstep
//! schedule performs, per member, the same operations in the same order
//! whatever the block width: prepared build → (check; sweep over eligible
//! torsions: axis atoms mapped through the sweep's rigid motion and written
//! back, closed-form `[a, b]`, conditional apply into the motion and the
//! torsion's turn; tracked end frame stored) → settle the turned torsions →
//! exact suffix build and its deviation (unless a fully built lane never
//! rotated).  The batched inner products call
//! the identical scalar kernel per gathered lane, so every rotation — and
//! therefore every closed loop — is independent of how the population is
//! partitioned into blocks, bit for bit (tested in this module and in
//! `lms-core`'s batched-pipeline equivalence tests).

use crate::ccd::{optimal_rotation, settle, CcdCloser, CcdResult, RigidSweep, Turn, NO_TURN};
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
    /// First flat torsion index eligible for adjustment: 0 to adjust every
    /// torsion, as the sampler's init rounds do; the smallest mutated index
    /// for an MCMC closure.
    pub start_index: usize,
}

/// Reusable SoA workspace of one closure block: per-lane sweep state (the
/// rigid motion of the current sweep included), the per-lane torsion turns
/// (`width × n_angles` unit complex numbers, each torsion's accumulated
/// rotation over the closure, settled into the torsions at closure end)
/// and the gather buffers of the batched optimal-rotation kernel.  All
/// buffers warm up to the block width and loop length on first use;
/// afterwards a `close_batch` call performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct CcdBatchScratch {
    deviation: Vec<f64>,
    initial: Vec<f64>,
    sweeps: Vec<usize>,
    rotations: Vec<usize>,
    active: Vec<bool>,
    sweep: Vec<RigidSweep>,
    /// Lane-major: lane `j`'s turns are `turns[j * n_angles..][..n_angles]`.
    turns: Vec<Turn>,
    results: Vec<CcdResult>,
    // Gathered per-rotation inputs, member-major SoA.
    g_lane: Vec<usize>,
    g_pivot: Vec<Vec3>,
    g_axis: Vec<Vec3>,
    g_moving: Vec<[Vec3; 3]>,
    g_ab: Vec<[f64; 2]>,
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

    fn reset(&mut self, lanes: usize, n_angles: usize) {
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
        self.turns.clear();
        self.turns.resize(lanes * n_angles, NO_TURN);
        self.results.clear();
        self.g_lane.clear();
        if self.g_lane.capacity() < lanes {
            self.g_lane.reserve(lanes);
            self.g_pivot.reserve(lanes);
            self.g_axis.reserve(lanes);
            self.g_moving.reserve(lanes);
            self.g_ab.reserve(lanes);
        }
    }
}

/// The batched optimal-rotation kernel: one tight loop over the gathered
/// member-major SoA arrays, with nothing between the inner products — the
/// lane iterations are independent, so the compiler is free to vectorise
/// across members.  Each lane's closed-form `[a, b]` pair (optimal angle
/// `atan2(b, a)`) is computed by the *identical* scalar kernel, so the
/// batch is bit-identical to per-member evaluation by construction.
pub fn optimal_rotation_batch(
    moving: &[[Vec3; 3]],
    targets: &[Vec3; 3],
    pivots: &[Vec3],
    axes: &[Vec3],
    ab: &mut Vec<[f64; 2]>,
) {
    debug_assert_eq!(moving.len(), pivots.len());
    debug_assert_eq!(moving.len(), axes.len());
    ab.clear();
    for j in 0..moving.len() {
        ab.push(optimal_rotation(&moving[j], targets, pivots[j], axes[j]));
    }
}

impl CcdCloser {
    /// Close one member in a caller-owned structure and block workspace:
    /// a one-lane [`CcdCloser::close_batch`].  Reusing both buffers across
    /// closures makes a closure allocation-free after warm-up; on return
    /// `lane.structure` holds the structure built from the final torsions,
    /// letting the caller score it without rebuilding.
    pub fn close_lane(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        lane: CcdLane<'_>,
        scratch: &mut CcdBatchScratch,
    ) -> CcdResult {
        self.close_batch(frame, sequence, &mut [lane], scratch);
        scratch.results[0]
    }

    /// Close every lane of one block in population lockstep: an exact
    /// build of every lane's torsions, then the sweep of
    /// [`CcdCloser::close_prepared`], whose final suffix build a lane that
    /// never rotated skips (it still holds its exact build).
    ///
    /// Per-lane statistics land in `scratch.results()` (lane order) and
    /// each lane's structure buffer holds the exact build of its final
    /// torsions.
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
        for lane in lanes.iter_mut() {
            self.builder()
                .build_into(frame, sequence, lane.torsions, lane.structure);
        }
        self.sweep_lanes(frame, sequence, lanes, scratch, true);
    }

    /// The lockstep sweep over lanes whose structures are already
    /// prepared: each lane's structure must hold the exact build of its
    /// torsions on every residue below the residue of its start index (the
    /// loop length for a start past the last torsion) and the exact spine
    /// (N, Cα, C') and end frame everywhere — what
    /// [`LoopBuilder::rebuild_spine_from`](lms_protein::LoopBuilder::rebuild_spine_from)
    /// leaves, and what a full build satisfies.
    ///
    /// All lanes march through the same `(sweep, torsion)` schedule;
    /// converged and out-of-range lanes are masked.  Every lane ends with
    /// the exact suffix build from its start residue, so on return each
    /// lane's structure buffer holds the exact full build of its final
    /// torsions, O atoms and centroids included, and its deviation in
    /// `scratch.results()` (lane order) is read from that build.
    ///
    /// # Panics
    ///
    /// Panics if the lanes disagree on torsion count (a block always comes
    /// from one population over one target).
    pub fn close_prepared(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        lanes: &mut [CcdLane<'_>],
        scratch: &mut CcdBatchScratch,
    ) {
        self.sweep_lanes(frame, sequence, lanes, scratch, false);
    }

    /// The one sweep driver behind [`CcdCloser::close_batch`] and
    /// [`CcdCloser::close_prepared`].  `fully_built` says every lane
    /// already holds the exact full build of its torsions, so a lane that
    /// never rotated keeps it and skips the suffix build.
    fn sweep_lanes(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        lanes: &mut [CcdLane<'_>],
        scratch: &mut CcdBatchScratch,
        fully_built: bool,
    ) {
        let builder = *self.builder();
        let config = *self.config();
        let targets = frame.c_anchor.atoms();
        let n_angles = lanes.first().map_or(0, |lane| lane.torsions.n_angles());
        for lane in lanes.iter() {
            assert_eq!(
                lane.torsions.n_angles(),
                n_angles,
                "all lanes of a closure block must share the loop length"
            );
        }
        scratch.reset(lanes.len(), n_angles);

        for (j, lane) in lanes.iter().enumerate() {
            let dev = builder.closure_deviation(frame, lane.structure);
            scratch.initial[j] = dev;
            scratch.deviation[j] = dev;
        }

        loop {
            // Mask: a lane sweeps while its deviation is above tolerance
            // and its sweep budget lasts.
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
                    &mut scratch.g_ab,
                );

                // Apply phase: accepted rotations fold into their lane's
                // rigid motion and torsion turn — O(1) per rotation, no
                // structure traversal and no trigonometry.
                for (g, &j) in scratch.g_lane.iter().enumerate() {
                    let accepted = scratch.sweep[j].accept(
                        &mut scratch.turns[j * n_angles + k],
                        scratch.g_pivot[g],
                        scratch.g_axis[g],
                        scratch.g_ab[g],
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

        // Per lane: settle the turns into the torsions (a no-op for a lane
        // that never rotated), then one exact suffix build from the start
        // torsion's residue restores the whole structure — the sweeps and
        // the preparation wrote nothing but exact bits upstream of it, so
        // this is bit-identical to a full build — and gives the reported
        // deviation.  A prepared lane that never rotated needs it too: its
        // O atoms and centroids from the start residue on may be stale; a
        // fully built one still holds its exact build.
        for (j, lane) in lanes.iter_mut().enumerate() {
            if fully_built && scratch.rotations[j] == 0 {
                continue;
            }
            let turns = &scratch.turns[j * n_angles..(j + 1) * n_angles];
            settle(lane.torsions, turns);
            let start = lane.start_index.min(n_angles);
            builder.rebuild_from(frame, sequence, lane.torsions, start, lane.structure);
            scratch.deviation[j] = builder.closure_deviation(frame, lane.structure);
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
    use lms_protein::{BenchmarkLibrary, LoopBuilder};
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

            // Per-member reference through the one-lane entry point, one
            // workspace reused across members as the samplers do.
            let mut ref_torsions = members.clone();
            let mut ref_results = Vec::new();
            let mut ref_structures = Vec::new();
            let mut lane_scratch = CcdBatchScratch::new();
            for (m, t) in ref_torsions.iter_mut().enumerate() {
                let mut s = LoopStructure::with_capacity(n_res);
                let lane = CcdLane {
                    torsions: t,
                    structure: &mut s,
                    start_index: m % 5, // exercise heterogeneous start indices
                };
                ref_results.push(closer.close_lane(
                    &target.frame,
                    &target.sequence,
                    lane,
                    &mut lane_scratch,
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

            assert!(
                ref_results
                    .iter()
                    .filter(|r| r.rotations_applied > 0)
                    .count()
                    >= 4,
                "{name}: too few lanes rotated to compare"
            );
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
        // Closing the same population in one-lane blocks (the per-member
        // path), in blocks of 3 and 4 (ragged final block) and all at once
        // gives identical torsions, statistics and structures, bit for
        // bit: lanes are fully independent.  Start indices are
        // heterogeneous, including starts at and past the last torsion.
        for (name, seed) in [("1cex", 3u64), ("5pti", 11), ("1akz", 17)] {
            let (target, members) = perturbed(name, 7, seed);
            let closer = CcdCloser::with_config(CcdConfig::new().with_max_sweeps(64));
            let n_res = target.n_residues();
            let n_angles = members[0].n_angles();
            let starts = [0, 3, 1, n_angles - 1, 4, n_angles, n_angles + 3];
            let close_in_blocks = |width: usize| {
                let mut torsions = members.clone();
                let mut structures: Vec<LoopStructure> = (0..members.len())
                    .map(|_| LoopStructure::with_capacity(n_res))
                    .collect();
                let mut results = Vec::new();
                let mut scratch = CcdBatchScratch::new();
                let blocks = torsions
                    .chunks_mut(width)
                    .zip(structures.chunks_mut(width))
                    .zip(starts.chunks(width));
                for ((ts, ss), st) in blocks {
                    let mut lanes: Vec<CcdLane> = ts
                        .iter_mut()
                        .zip(ss.iter_mut())
                        .zip(st)
                        .map(|((t, s), &start_index)| CcdLane {
                            torsions: t,
                            structure: s,
                            start_index,
                        })
                        .collect();
                    closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
                    results.extend_from_slice(scratch.results());
                }
                (torsions, results, structures)
            };
            let one = close_in_blocks(1);
            assert!(
                one.1.iter().filter(|r| r.rotations_applied > 0).count() >= 4,
                "{name}: too few lanes rotated to compare"
            );
            for width in [3, 4, members.len()] {
                let other = close_in_blocks(width);
                assert_eq!(one.0, other.0, "{name} w{width}: torsions diverged");
                assert_eq!(one.1, other.1, "{name} w{width}: stats diverged");
                assert_eq!(one.2, other.2, "{name} w{width}: structures diverged");
            }
        }
    }

    #[test]
    fn prepared_lanes_close_bit_identically_to_close_batch() {
        // Each lane's candidate differs from its member from the start
        // index on; the lane is prepared from the member's build, of which
        // the first `built` residues are kept, and closed by
        // `close_prepared`.
        // Torsions, statistics and structures must equal `close_batch` of
        // the same candidates, bit for bit.  Starts cover 0, 1, the middle,
        // the last torsion, the loop end and past it; the native lane is
        // already closed and rotates nothing, yet its O atoms and centroids
        // past the start residue are stale after the preparation.
        let builder = LoopBuilder::default();
        for (name, seed) in [("1cex", 5u64), ("5pti", 13)] {
            let (target, members) = perturbed(name, 7, seed);
            let closer = CcdCloser::with_config(CcdConfig::new().with_max_sweeps(64));
            let (frame, sequence) = (&target.frame, &target.sequence[..]);
            let n_res = target.n_residues();
            let n_angles = members[0].n_angles();
            let starts = [0, 1, n_angles / 2, n_angles - 1, n_angles, n_angles + 3, 5];
            let candidates: Vec<Torsions> = members
                .iter()
                .zip(starts)
                .enumerate()
                .map(|(m, (member, start))| {
                    if m == 6 {
                        return target.native_torsions.clone();
                    }
                    let mut cand = member.clone();
                    for k in start..n_angles {
                        cand.rotate_angle(k, deg_to_rad(25.0 - 7.0 * k as f64));
                    }
                    cand
                })
                .collect();
            // The native lane's member differs from it from the start on.
            let mut member_torsions = members.clone();
            member_torsions[6] = target.native_torsions.clone();
            for k in starts[6]..n_angles {
                member_torsions[6].rotate_angle(k, deg_to_rad(3.0));
            }
            let mut reference_torsions = candidates.clone();
            let mut reference_structures: Vec<LoopStructure> = (0..starts.len())
                .map(|_| LoopStructure::with_capacity(n_res))
                .collect();
            let mut lanes: Vec<CcdLane> = reference_torsions
                .iter_mut()
                .zip(reference_structures.iter_mut())
                .zip(starts)
                .map(|((t, s), start_index)| CcdLane {
                    torsions: t,
                    structure: s,
                    start_index,
                })
                .collect();
            let mut scratch = CcdBatchScratch::new();
            closer.close_batch(frame, sequence, &mut lanes, &mut scratch);
            drop(lanes);
            let reference_results = scratch.results().to_vec();
            assert!(
                reference_results[..6]
                    .iter()
                    .filter(|r| r.rotations_applied > 0)
                    .count()
                    >= 3,
                "{name}: too few lanes rotated to compare"
            );
            assert!(reference_results[6].converged);
            assert_eq!(reference_results[6].rotations_applied, 0);

            for built in [0, 2, n_res] {
                let mut torsions = candidates.clone();
                let mut structures: Vec<LoopStructure> = member_torsions
                    .iter()
                    .map(|t| builder.build(frame, sequence, t))
                    .collect();
                for ((t, s), &start) in torsions.iter().zip(&mut structures).zip(&starts) {
                    builder.rebuild_spine_from(frame, sequence, t, built, start, s);
                }
                let mut lanes: Vec<CcdLane> = torsions
                    .iter_mut()
                    .zip(structures.iter_mut())
                    .zip(starts)
                    .map(|((t, s), start_index)| CcdLane {
                        torsions: t,
                        structure: s,
                        start_index,
                    })
                    .collect();
                closer.close_prepared(frame, sequence, &mut lanes, &mut scratch);
                drop(lanes);
                assert_eq!(torsions, reference_torsions, "{name} built {built}");
                assert_eq!(
                    scratch.results(),
                    &reference_results[..],
                    "{name} built {built}"
                );
                assert_eq!(structures, reference_structures, "{name} built {built}");
            }
        }
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
        let mut ab = Vec::new();
        optimal_rotation_batch(&moving, &targets, &pivots, &axes, &mut ab);
        assert_eq!(ab.len(), 16);
        let bits = |[a, b]: [f64; 2]| [a.to_bits(), b.to_bits()];
        for j in 0..16 {
            let scalar = optimal_rotation(&moving[j], &targets, pivots[j], axes[j]);
            assert_eq!(bits(ab[j]), bits(scalar), "lane {j}");
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
