//! Cyclic Coordinate Descent (CCD) loop closure.
//!
//! After a torsion mutation the rebuilt loop no longer connects to the
//! fixed C-terminal anchor.  CCD (Canutescu & Dunbrack, 2003) restores the
//! connection by sweeping over the loop's rotatable torsions and, for each
//! one, analytically choosing the rotation that minimises the summed squared
//! distance between the three *moving* end-anchor atoms (N, Cα, C' of the
//! residue after the loop) and their fixed target positions.  The optimal
//! angle for one torsion has the closed form `θ* = atan2(b, a)` with
//! `a = Σ fᵢ·rᵢ` and `b = Σ fᵢ·(û×rᵢ)`, where `rᵢ` is the moving atom's
//! radius vector about the rotation axis and `fᵢ` the target's.
//!
//! This is the dominant cost of the whole sampling pipeline (84 % of the
//! CPU-only run time in the paper's Figure 1, 75 % of device time in its
//! Table II), which is why the sampler offloads it to the SIMT executor.
//!
//! ## Rigid-body sweeps
//!
//! The closed form needs only five points per torsion: the torsion's pivot
//! and axis end, and the three moving end-frame atoms.  A rotation at flat
//! torsion index `k` moves every atom downstream of that torsion *rigidly*,
//! and the sweep visits torsions in ascending order, so every point it will
//! still read in this sweep sits downstream of every rotation it has already
//! applied.  Each of those points has therefore moved by one and the same
//! rigid motion `x ↦ R·x + t`, the composition of the sweep's accepted
//! rotations.  A sweep (`RigidSweep`) tracks only that motion:
//!
//! * per torsion, the axis atoms are mapped from their sweep-start
//!   positions through the motion and **written back** into the structure
//!   (Nᵢ and Cαᵢ at φᵢ, C'ᵢ at ψᵢ — Cαᵢ lies on φᵢ's axis, so it is already
//!   current).  No later rotation of the ascending sweep moves an atom once
//!   visited, so each stored position is final for the sweep;
//! * per accepted rotation, Rodrigues(axis, δ) about the pivot is composed
//!   into the motion and applied to the three end-frame atoms.
//!
//! Both are O(1), independent of the loop length, where re-placing the
//! downstream spine by NeRF after every rotation cost O(suffix) per rotation
//! and O(n²) per sweep.  At sweep end the tracked end frame is stored and
//! the sweep's convergence test reads its deviation; the next sweep starts
//! from the written-back spine.  No NeRF runs inside the sweep loop: the
//! exact [`LoopBuilder::build_into`] runs once at closure start and, if any
//! rotation was applied, once at closure end.  `final_deviation` and
//! `converged` — hence the sampler's closure gate — are computed from that
//! exact final build, never from the tracked frame.  The written-back spine differs from the exact build only
//! by floating-point round-off (checked at every sweep end, and over full
//! `CcdConfig::default()` runs from random starts, in this module's tests),
//! so the rotation schedule matches a NeRF-per-rotation sweep up to that
//! round-off (checked against a test-only NeRF oracle over a
//! production-point ensemble).

use lms_geometry::{Rotation, Vec3};
use lms_protein::{
    AminoAcid, AnchorFrame, LoopBuilder, LoopFrame, LoopStructure, TorsionKind, Torsions,
};

/// Configuration of the CCD closure run.
///
/// `#[non_exhaustive]`: construct via [`CcdConfig::new`] (or `default()`)
/// and the `with_*` setters, e.g.
/// `CcdConfig::new().with_max_sweeps(32).with_tolerance(0.2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct CcdConfig {
    /// Maximum number of full sweeps over the torsions.
    pub max_sweeps: usize,
    /// Convergence tolerance on the anchor RMS deviation (Å).
    pub tolerance: f64,
    /// First flat torsion index eligible for adjustment.  The paper starts
    /// CCD "from the immediate torsion angle after the mutated ones"; the
    /// sampler passes that index here.  Use 0 to adjust every torsion.
    pub start_index: usize,
}

impl Default for CcdConfig {
    fn default() -> Self {
        // CCD converges geometrically but slowly once the gap is small; for
        // 10-12 residue loops ~200 sweeps is enough even from a fully random
        // start, and the tolerance of 0.1 A keeps the closed loop visually
        // and energetically indistinguishable from an exactly closed one.
        CcdConfig {
            max_sweeps: 256,
            tolerance: 0.1,
            start_index: 0,
        }
    }
}

impl CcdConfig {
    /// The default configuration, as a starting point for the `with_*`
    /// setters.
    pub fn new() -> Self {
        CcdConfig::default()
    }

    /// Set the maximum number of full sweeps over the torsions.
    #[must_use]
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Set the convergence tolerance on the anchor RMS deviation (Å).
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Set the first flat torsion index eligible for adjustment.
    #[must_use]
    pub fn with_start_index(mut self, start_index: usize) -> Self {
        self.start_index = start_index;
        self
    }
}

/// Outcome of a CCD closure run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcdResult {
    /// Whether the anchor deviation reached the tolerance.
    pub converged: bool,
    /// Number of sweeps performed.
    pub sweeps: usize,
    /// Anchor RMS deviation before closure (Å).
    pub initial_deviation: f64,
    /// Anchor RMS deviation after closure (Å).
    pub final_deviation: f64,
    /// Number of individual torsion rotations applied.
    pub rotations_applied: usize,
}

/// The CCD closure engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcdCloser {
    builder: LoopBuilder,
    config: CcdConfig,
}

impl CcdCloser {
    /// Create a closer with an explicit builder and configuration.
    pub fn new(builder: LoopBuilder, config: CcdConfig) -> Self {
        CcdCloser { builder, config }
    }

    /// Create a closer with the default builder and the given configuration.
    pub fn with_config(config: CcdConfig) -> Self {
        CcdCloser {
            builder: LoopBuilder::default(),
            config,
        }
    }

    /// Ignored; kept only because the frozen `loopbench/` replay still
    /// calls it.  Remove with that package's next change.
    #[doc(hidden)]
    #[must_use]
    pub fn with_wide_lanes(self, _wide: bool) -> Self {
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CcdConfig {
        &self.config
    }

    /// The loop builder in use (shared with the batched closure path).
    pub(crate) fn builder(&self) -> &LoopBuilder {
        &self.builder
    }

    /// Close the loop *in place*: `torsions` is modified so that the built
    /// structure's end frame approaches the fixed C-anchor.  Returns the
    /// closure statistics; the caller rebuilds the structure afterwards (or
    /// uses [`CcdCloser::close_with_scratch`], which leaves it built).
    pub fn close(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
    ) -> CcdResult {
        self.close_with_start(frame, sequence, torsions, self.config.start_index)
    }

    /// [`CcdCloser::close`] with an explicit start torsion index overriding
    /// the configured one.
    pub fn close_with_start(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
        start_index: usize,
    ) -> CcdResult {
        let mut structure = LoopStructure::with_capacity(sequence.len());
        self.close_with_scratch(frame, sequence, torsions, start_index, &mut structure)
    }

    /// [`CcdCloser::close_with_start`] working in a caller-owned scratch
    /// structure.
    ///
    /// Reusing one structure buffer across closures removes the largest
    /// allocation source of the sampling pipeline.  On return `scratch`
    /// holds the structure built from the final torsions, letting the caller
    /// score it without rebuilding.
    pub fn close_with_scratch(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
        start_index: usize,
        scratch: &mut LoopStructure,
    ) -> CcdResult {
        let targets = frame.c_anchor.atoms();
        self.builder.build_into(frame, sequence, torsions, scratch);
        let initial_deviation = self.builder.closure_deviation(frame, scratch);
        let mut deviation = initial_deviation;
        let mut sweeps = 0;
        let mut rotations_applied = 0;

        let n_angles = torsions.n_angles();
        let start = start_index.min(n_angles);

        while deviation > self.config.tolerance && sweeps < self.config.max_sweeps {
            sweeps += 1;
            let mut sweep = RigidSweep::begin(scratch);
            for k in start..n_angles {
                let Some((pivot, axis)) = sweep.axis(scratch, k) else {
                    continue;
                };
                let delta = optimal_rotation(&sweep.moving(), &targets, pivot, axis);
                if sweep.accept(torsions, k, pivot, axis, delta) {
                    rotations_applied += 1;
                }
            }
            deviation = sweep.finish(frame, scratch);
        }

        // The sweeps moved the spine and end frame rigidly and left O atoms
        // and centroids stale; one exact build of the final torsions
        // restores the whole structure, and the reported deviation (hence
        // the sampler's closure gate) is that build's.  With zero rotations
        // `scratch` still holds its exact initial build.
        if rotations_applied > 0 {
            self.builder.build_into(frame, sequence, torsions, scratch);
            deviation = self.builder.closure_deviation(frame, scratch);
        }

        CcdResult {
            converged: deviation <= self.config.tolerance,
            sweeps,
            initial_deviation,
            final_deviation: deviation,
            rotations_applied,
        }
    }
}

/// Rotations smaller than this (radians) are skipped: they cannot move the
/// end frame measurably and would only add round-off.
const MIN_ROTATION: f64 = 1e-9;

/// The rigid-body state of one CCD sweep (see the module docs): the
/// composed motion `x ↦ rot·x + shift` of everything downstream of the
/// sweep's accepted rotations and the tracked end frame.  Shared by
/// [`CcdCloser::close_with_scratch`] and [`CcdCloser::close_batch`], so
/// both perform the same operations per member and stay bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RigidSweep {
    rot: Rotation,
    shift: Vec3,
    end: [Vec3; 3],
    moved: bool,
}

impl RigidSweep {
    /// Start a sweep on `structure`, whose spine and end frame are current
    /// for the torsions.  The sweep writes each spine atom back as it
    /// visits it ([`RigidSweep::axis`]) and the end frame at
    /// [`RigidSweep::finish`].
    pub(crate) fn begin(structure: &LoopStructure) -> Self {
        RigidSweep {
            end: structure.end_frame.atoms(),
            ..RigidSweep::default()
        }
    }

    /// Bring torsion `k`'s axis atoms up to date and return its pivot and
    /// unit axis (φ spins about N→Cα, ψ about Cα→C'), or `None` for a
    /// degenerate axis.  φᵢ maps Nᵢ and Cαᵢ from their sweep-start
    /// positions through the motion and stores them; ψᵢ maps and stores
    /// C'ᵢ only, since Cαᵢ lies on φᵢ's axis and is already current.  Every
    /// later rotation of the sweep is downstream of (or pivots on) an atom
    /// once visited, so each stored position is final for the sweep.
    #[inline]
    pub(crate) fn axis(&self, structure: &mut LoopStructure, k: usize) -> Option<(Vec3, Vec3)> {
        let (residue, kind) = Torsions::describe_angle(k);
        let atoms = &mut structure.residues[residue];
        if self.moved {
            let map = |x: Vec3| self.rot.apply(x) + self.shift;
            match kind {
                TorsionKind::Phi => {
                    atoms.n = map(atoms.n);
                    atoms.ca = map(atoms.ca);
                }
                TorsionKind::Psi => atoms.c = map(atoms.c),
            }
        }
        let (pivot, axis_end) = match kind {
            TorsionKind::Phi => (atoms.n, atoms.ca),
            TorsionKind::Psi => (atoms.ca, atoms.c),
        };
        (axis_end - pivot).try_normalize().map(|axis| (pivot, axis))
    }

    /// The current moving end frame (N, Cα, C').
    #[inline]
    pub(crate) fn moving(&self) -> [Vec3; 3] {
        self.end
    }

    /// Apply the optimal rotation `delta` of torsion `k` about `axis`
    /// through `pivot`: rotate the torsion, compose Rodrigues(axis, δ) into
    /// the motion and rotate the end frame.  Returns whether the rotation
    /// was large enough to apply.
    #[inline]
    pub(crate) fn accept(
        &mut self,
        torsions: &mut Torsions,
        k: usize,
        pivot: Vec3,
        axis: Vec3,
        delta: f64,
    ) -> bool {
        if delta.abs() < MIN_ROTATION {
            return false;
        }
        // A right-handed turn about the axis is the direction in which
        // `rotate_angle` turns everything downstream of the torsion.
        torsions.rotate_angle(k, delta);
        let r = Rotation::about_axis(axis, delta);
        self.rot = r.compose(&self.rot);
        self.shift = r.apply_about(self.shift, pivot);
        for atom in &mut self.end {
            *atom = r.apply_about(*atom, pivot);
        }
        self.moved = true;
        true
    }

    /// End the sweep: store the tracked end frame and return its closure
    /// deviation.  The spine atoms were stored during the sweep; O atoms
    /// and centroids stay stale until a full rebuild.
    pub(crate) fn finish(&self, frame: &LoopFrame, structure: &mut LoopStructure) -> f64 {
        let [n, ca, c] = self.end;
        structure.end_frame = AnchorFrame::new(n, ca, c);
        structure.end_frame.rms_distance(&frame.c_anchor)
    }
}

/// The closed-form optimal rotation about `axis` through `pivot` that
/// minimises Σ |targetᵢ − R(θ)·movingᵢ|², following Canutescu & Dunbrack.
///
/// `#[inline]` so the population-batched caller
/// ([`crate::batch::optimal_rotation_batch`]) compiles into one tight loop
/// over the gathered SoA arrays.
#[inline]
pub(crate) fn optimal_rotation(
    moving: &[Vec3; 3],
    targets: &[Vec3; 3],
    pivot: Vec3,
    axis: Vec3,
) -> f64 {
    let mut a = 0.0;
    let mut b = 0.0;
    for (m, t) in moving.iter().zip(targets.iter()) {
        let m_rel = *m - pivot;
        let t_rel = *t - pivot;
        // Components perpendicular to the axis.
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

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::{deg_to_rad, wrap_rad};
    use lms_protein::{AnchorFrame, BenchmarkLibrary, LoopTarget};
    use proptest::prelude::*;
    use rand::Rng;

    fn target_and_perturbed(name: &str, perturb_deg: f64, seed: u64) -> (LoopTarget, Torsions) {
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name(name).unwrap();
        let mut torsions = target.native_torsions.clone();
        let mut rng = lms_geometry::StreamRngFactory::new(seed).stream(0, 0);
        for k in 0..torsions.n_angles() {
            let delta = deg_to_rad((rng.gen::<f64>() * 2.0 - 1.0) * perturb_deg);
            torsions.rotate_angle(k, delta);
        }
        (target, torsions)
    }

    #[test]
    fn optimal_rotation_recovers_known_angle() {
        // Rotate three points about the z axis by a known angle; the optimal
        // rotation must rotate them back.
        let targets = [
            Vec3::new(2.0, 0.0, 1.0),
            Vec3::new(0.0, 3.0, -1.0),
            Vec3::new(1.5, 1.5, 0.5),
        ];
        let applied = deg_to_rad(40.0);
        let rot = Rotation::about_axis(Vec3::Z, applied);
        let moving = [
            rot.apply(targets[0]),
            rot.apply(targets[1]),
            rot.apply(targets[2]),
        ];
        let theta = optimal_rotation(&moving, &targets, Vec3::ZERO, Vec3::Z);
        assert!(
            (theta + applied).abs() < 1e-9,
            "expected {} got {theta}",
            -applied
        );
    }

    #[test]
    fn optimal_rotation_degenerate_geometry_returns_zero() {
        // Moving atoms on the axis: no rotation can help.
        let moving = [Vec3::ZERO, Vec3::Z, Vec3::Z * 2.0];
        let targets = [Vec3::X, Vec3::X + Vec3::Z, Vec3::X + Vec3::Z * 2.0];
        let theta = optimal_rotation(&moving, &targets, Vec3::ZERO, Vec3::Z);
        assert_eq!(theta, 0.0);
    }

    #[test]
    fn ccd_closes_a_mildly_perturbed_loop() {
        let (target, mut torsions) = target_and_perturbed("1cex", 25.0, 42);
        let closer = CcdCloser::default();
        let before = {
            let s = target.build(&LoopBuilder::default(), &torsions);
            target.closure_deviation(&s)
        };
        assert!(
            before > 0.5,
            "perturbation should break closure (gap {before})"
        );
        let result = closer.close(&target.frame, &target.sequence, &mut torsions);
        assert!(result.converged, "CCD failed to converge: {result:?}");
        assert!(result.final_deviation <= closer.config().tolerance);
        assert!(result.final_deviation < result.initial_deviation);
        // The closed structure really does meet the anchor.
        let closed = target.build(&LoopBuilder::default(), &torsions);
        assert!(target.closure_deviation(&closed) <= closer.config().tolerance + 1e-9);
    }

    #[test]
    fn ccd_closes_heavily_randomised_loops() {
        // Fully random torsions (the sampler's initialisation case).  CCD's
        // convergence is geometric with a long tail: the hardest random
        // 12-residue starts take ~2000 sweeps to reach the 0.1 A tolerance.
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1akz").unwrap();
        let closer = CcdCloser::with_config(CcdConfig {
            max_sweeps: 2048,
            ..CcdConfig::default()
        });
        let mut converged = 0;
        let trials = 8;
        for seed in 0..trials {
            let mut rng = lms_geometry::StreamRngFactory::new(seed).stream(7, 0);
            let mut torsions = Torsions::zeros(target.n_residues());
            for k in 0..torsions.n_angles() {
                torsions.set_angle(k, lms_geometry::random_torsion(&mut rng));
            }
            let result = closer.close(&target.frame, &target.sequence, &mut torsions);
            assert!(
                result.final_deviation <= result.initial_deviation + 1e-9,
                "CCD must never worsen the gap"
            );
            if result.converged {
                converged += 1;
            }
        }
        assert!(
            converged >= trials - 2,
            "only {converged}/{trials} random 12-residue loops closed"
        );
    }

    #[test]
    fn already_closed_loop_is_untouched() {
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("5pti").unwrap();
        let mut torsions = target.native_torsions.clone();
        let closer = CcdCloser::default();
        let result = closer.close(&target.frame, &target.sequence, &mut torsions);
        assert!(result.converged);
        assert_eq!(
            result.sweeps, 0,
            "native is already closed; no sweeps needed"
        );
        assert_eq!(result.rotations_applied, 0);
        assert_eq!(torsions, target.native_torsions);
    }

    #[test]
    fn start_index_freezes_upstream_torsions() {
        let (target, mut torsions) = target_and_perturbed("1ixh", 20.0, 3);
        let original = torsions.clone();
        let start = 6; // freeze the first three residues' torsions
        let closer = CcdCloser::default();
        let result = closer.close_with_start(&target.frame, &target.sequence, &mut torsions, start);
        for k in 0..start {
            assert_eq!(
                torsions.angle(k),
                original.angle(k),
                "torsion {k} must not move"
            );
        }
        // Downstream torsions did move (closure required work).
        assert!(result.rotations_applied > 0);
        assert!(result.final_deviation < result.initial_deviation);
    }

    /// `SamplerConfig`'s production CCD operating point (24 sweeps /
    /// 0.25 Å) — the one the sampler runs, unlike `CcdConfig::default()`.
    fn production_config() -> CcdConfig {
        CcdConfig::new().with_max_sweeps(24).with_tolerance(0.25)
    }

    /// Targets of the equivalence ensemble: surface and buried loops of
    /// several lengths.
    const ENSEMBLE_TARGETS: [&str; 6] = ["1cex", "1akz", "5pti", "1ixh", "153l", "1dim"];

    /// The NeRF-per-rotation CCD sweep the rigid-body update replaced:
    /// identical maths and schedule (start index honoured), but the
    /// downstream spine is re-placed by NeRF after every accepted rotation,
    /// so every pivot, axis and end frame it reads is an exact build.
    /// Test-only oracle for the rigid sweep.
    fn close_nerf_per_rotation(
        closer: &CcdCloser,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
        start_index: usize,
    ) -> CcdResult {
        let builder = closer.builder;
        let config = closer.config;
        let targets = frame.c_anchor.atoms();
        let mut scratch = builder.build(frame, sequence, torsions);
        let initial_deviation = builder.closure_deviation(frame, &scratch);
        let mut deviation = initial_deviation;
        let mut sweeps = 0;
        let mut rotations_applied = 0;
        let n_angles = torsions.n_angles();
        while deviation > config.tolerance && sweeps < config.max_sweeps {
            sweeps += 1;
            for k in start_index.min(n_angles)..n_angles {
                let (residue, kind) = Torsions::describe_angle(k);
                let atoms = &scratch.residues[residue];
                let (pivot, axis_end) = match kind {
                    TorsionKind::Phi => (atoms.n, atoms.ca),
                    TorsionKind::Psi => (atoms.ca, atoms.c),
                };
                let Some(axis) = (axis_end - pivot).try_normalize() else {
                    continue;
                };
                let delta = optimal_rotation(&scratch.end_frame.atoms(), &targets, pivot, axis);
                if delta.abs() < MIN_ROTATION {
                    continue;
                }
                torsions.rotate_angle(k, delta);
                rotations_applied += 1;
                builder.rebuild_spine_from(frame, sequence, torsions, k, &mut scratch);
            }
            deviation = builder.closure_deviation(frame, &scratch);
        }
        CcdResult {
            converged: deviation <= config.tolerance,
            sweeps,
            initial_deviation,
            final_deviation: deviation,
            rotations_applied,
        }
    }

    /// Sampler-like closure starts: even starts perturb every torsion by up
    /// to ±40° and close from torsion 0; odd starts resample one to three
    /// torsions uniformly (a mutation move) and close from the smallest.
    fn production_starts(target: &LoopTarget, count: usize, seed: u64) -> Vec<(Torsions, usize)> {
        let factory = lms_geometry::StreamRngFactory::new(seed);
        let n_angles = target.native_torsions.n_angles();
        (0..count)
            .map(|i| {
                let mut rng = factory.stream(i as u64, 0);
                let mut torsions = target.native_torsions.clone();
                if i % 2 == 0 {
                    for k in 0..n_angles {
                        let delta = deg_to_rad((rng.gen::<f64>() * 2.0 - 1.0) * 40.0);
                        torsions.rotate_angle(k, delta);
                    }
                    (torsions, 0)
                } else {
                    let mut start = n_angles;
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let k = rng.gen_range(0..n_angles);
                        torsions.set_angle(k, lms_geometry::random_torsion(&mut rng));
                        start = start.min(k);
                    }
                    (torsions, start)
                }
            })
            .collect()
    }

    #[test]
    fn rigid_sweep_matches_the_nerf_oracle_across_a_production_ensemble() {
        // The rigid update is a declared trajectory change against the
        // NeRF-per-rotation sweep, but only by round-off: over a
        // production-point ensemble the sweep count, convergence flag and
        // rotation count must agree on at least 99% of starts, with the
        // final torsions within 1e-9 rad wherever they agree.
        let lib = BenchmarkLibrary::standard();
        let closer = CcdCloser::with_config(production_config());
        let (mut total, mut same_schedule) = (0usize, 0usize);
        let mut max_torsion_gap = 0.0f64;
        for (t, name) in ENSEMBLE_TARGETS.iter().enumerate() {
            let target = lib.target_by_name(name).unwrap();
            for (start_torsions, start) in production_starts(&target, 64, 100 + t as u64) {
                let mut rigid = start_torsions.clone();
                let mut nerf = start_torsions;
                let r = closer.close_with_start(&target.frame, &target.sequence, &mut rigid, start);
                let o = close_nerf_per_rotation(
                    &closer,
                    &target.frame,
                    &target.sequence,
                    &mut nerf,
                    start,
                );
                total += 1;
                assert_eq!(r.initial_deviation.to_bits(), o.initial_deviation.to_bits());
                if (r.sweeps, r.converged, r.rotations_applied)
                    != (o.sweeps, o.converged, o.rotations_applied)
                {
                    continue;
                }
                same_schedule += 1;
                for k in 0..rigid.n_angles() {
                    let gap = wrap_rad(rigid.angle(k) - nerf.angle(k)).abs();
                    max_torsion_gap = max_torsion_gap.max(gap);
                }
            }
        }
        assert!(total >= 256, "ensemble too small: {total}");
        assert!(
            same_schedule * 100 >= total * 99,
            "schedules agree on only {same_schedule}/{total} starts"
        );
        assert!(
            max_torsion_gap < 1e-9,
            "final torsions differ by up to {max_torsion_gap:e} rad"
        );
    }

    /// What [`audit_sweeps`] observed while driving the production sweep
    /// helpers.
    struct SweepAudit {
        torsions: Torsions,
        sweeps: usize,
        /// Largest rise of the tracked anchor deviation on one accepted
        /// rotation (Å; ≤ 0 when it never rose).
        max_rise: f64,
        /// Largest distance between a written-back spine atom (N, Cα, C')
        /// and the exact build of the current torsions, over every sweep
        /// end (Å).
        max_spine_gap: f64,
        /// Largest distance between the tracked end frame and the exact
        /// build's, over every sweep end (Å).
        max_end_gap: f64,
    }

    /// Drive the production sweep helpers step by step, exactly as
    /// `close_with_scratch` does, and audit the invariants between steps:
    /// per accepted rotation the tracked deviation, and at every sweep end
    /// the written-back spine and end frame against a fresh exact build.
    fn audit_sweeps(
        target: &LoopTarget,
        start_torsions: &Torsions,
        start: usize,
        config: CcdConfig,
    ) -> SweepAudit {
        let (frame, sequence) = (&target.frame, &target.sequence[..]);
        let builder = LoopBuilder::default();
        let targets = frame.c_anchor.atoms();
        let anchor_rms = |atoms: [Vec3; 3]| {
            AnchorFrame::new(atoms[0], atoms[1], atoms[2]).rms_distance(&frame.c_anchor)
        };
        let n_angles = start_torsions.n_angles();
        let mut audit = SweepAudit {
            torsions: start_torsions.clone(),
            sweeps: 0,
            max_rise: f64::NEG_INFINITY,
            max_spine_gap: 0.0,
            max_end_gap: 0.0,
        };
        let torsions = &mut audit.torsions;
        let mut structure = builder.build(frame, sequence, torsions);
        let mut exact = structure.clone();
        let mut deviation = builder.closure_deviation(frame, &structure);
        while deviation > config.tolerance && audit.sweeps < config.max_sweeps {
            audit.sweeps += 1;
            let mut sweep = RigidSweep::begin(&structure);
            for k in start..n_angles {
                let Some((pivot, axis)) = sweep.axis(&mut structure, k) else {
                    continue;
                };
                let before = anchor_rms(sweep.moving());
                let delta = optimal_rotation(&sweep.moving(), &targets, pivot, axis);
                if sweep.accept(torsions, k, pivot, axis, delta) {
                    audit.max_rise = audit.max_rise.max(anchor_rms(sweep.moving()) - before);
                }
            }
            deviation = sweep.finish(frame, &mut structure);
            builder.build_into(frame, sequence, torsions, &mut exact);
            for (s, e) in structure.residues.iter().zip(&exact.residues) {
                for (a, b) in [(s.n, e.n), (s.ca, e.ca), (s.c, e.c)] {
                    audit.max_spine_gap = audit.max_spine_gap.max(a.distance(b));
                }
            }
            for (t, e) in structure
                .end_frame
                .atoms()
                .iter()
                .zip(exact.end_frame.atoms())
            {
                audit.max_end_gap = audit.max_end_gap.max(t.distance(e));
            }
        }
        audit
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn rigid_sweep_invariants_hold(
            pick in 0usize..ENSEMBLE_TARGETS.len(),
            seed in 0usize..1_000_000,
            perturb_deg in 5.0..60.0f64,
            start_frac in 0.0..0.6f64,
        ) {
            // The tracked end frame never moves away from the anchor on an
            // accepted rotation, and at every sweep end the written-back
            // spine and end frame agree with the exact NeRF build up to
            // round-off.
            let target = BenchmarkLibrary::standard()
                .target_by_name(ENSEMBLE_TARGETS[pick])
                .unwrap();
            let (frame, sequence) = (&target.frame, &target.sequence[..]);
            let mut rng = lms_geometry::StreamRngFactory::new(seed as u64).stream(0, 0);
            let mut start_torsions = target.native_torsions.clone();
            for k in 0..start_torsions.n_angles() {
                let delta = deg_to_rad((rng.gen::<f64>() * 2.0 - 1.0) * perturb_deg);
                start_torsions.rotate_angle(k, delta);
            }
            let start = (start_frac * start_torsions.n_angles() as f64) as usize;
            let config = production_config();
            let audit = audit_sweeps(&target, &start_torsions, start, config);
            prop_assert!(
                audit.max_rise <= 1e-12,
                "an accepted rotation raised the tracked deviation by {:e} A",
                audit.max_rise
            );
            prop_assert!(
                audit.max_spine_gap < 1e-9,
                "written-back spine off the exact build by {:e} A",
                audit.max_spine_gap
            );
            prop_assert!(
                audit.max_end_gap < 1e-9,
                "tracked end frame off the exact build by {:e} A",
                audit.max_end_gap
            );

            // The public entry point runs the same steps and reports the
            // deviation of a fresh full build, bit for bit.
            let builder = LoopBuilder::default();
            let closer = CcdCloser::with_config(config);
            let mut closed = start_torsions;
            let result = closer.close_with_start(frame, sequence, &mut closed, start);
            prop_assert_eq!(&closed, &audit.torsions);
            prop_assert_eq!(result.sweeps, audit.sweeps);
            let fresh = builder.build(frame, sequence, &closed);
            prop_assert_eq!(
                result.final_deviation.to_bits(),
                builder.closure_deviation(frame, &fresh).to_bits()
            );
        }
    }

    #[test]
    fn written_back_spine_does_not_drift_at_the_default_config() {
        // The longest the spine goes without an exact rebuild: fully random
        // starts at `CcdConfig::default()` (256 sweeps / 0.1 A), most of
        // which run to the sweep cap.  Round-off must not accumulate past
        // 1e-9 A, and the reported result still reads the exact build.
        let lib = BenchmarkLibrary::standard();
        let config = CcdConfig::default();
        let closer = CcdCloser::with_config(config);
        let builder = LoopBuilder::default();
        let mut longest = 0;
        for (t, name) in ["1cex", "1akz", "153l"].iter().enumerate() {
            let target = lib.target_by_name(name).unwrap();
            for seed in 0..4u64 {
                let mut rng = lms_geometry::StreamRngFactory::new(seed).stream(t as u64, 1);
                let mut start_torsions = Torsions::zeros(target.n_residues());
                for k in 0..start_torsions.n_angles() {
                    start_torsions.set_angle(k, lms_geometry::random_torsion(&mut rng));
                }
                let audit = audit_sweeps(&target, &start_torsions, 0, config);
                longest = longest.max(audit.sweeps);
                assert!(
                    audit.max_spine_gap < 1e-9 && audit.max_end_gap < 1e-9,
                    "{name} seed {seed}: spine drifted {:e} A, end frame {:e} A after {} sweeps",
                    audit.max_spine_gap,
                    audit.max_end_gap,
                    audit.sweeps
                );

                let mut closed = start_torsions;
                let result = closer.close(&target.frame, &target.sequence, &mut closed);
                assert_eq!(closed, audit.torsions);
                let fresh = builder.build(&target.frame, &target.sequence, &closed);
                let exact = builder.closure_deviation(&target.frame, &fresh);
                assert_eq!(result.final_deviation.to_bits(), exact.to_bits());
                assert_eq!(result.converged, exact <= config.tolerance);
            }
        }
        assert_eq!(
            longest, config.max_sweeps,
            "no start ran to the sweep cap; the drift case is too easy"
        );
    }

    #[test]
    fn spine_only_sweeps_leave_a_fully_built_scratch_structure() {
        // The sweeps move spines only; on return the scratch structure
        // must nevertheless be the exact full build of the final torsions
        // (O atoms and centroids included), because callers score it
        // directly.  Include an untouched native loop (zero rotations).
        let cases = [
            ("1cex", 30.0, 11),
            ("1akz", 45.0, 2),
            ("153l", 30.0, 9),
            ("5pti", 0.0, 8),
        ];
        for (name, perturb, seed) in cases {
            let (target, mut torsions) = target_and_perturbed(name, perturb, seed);
            let closer = CcdCloser::default();
            let mut scratch = LoopStructure::with_capacity(target.n_residues());
            let result = closer.close_with_scratch(
                &target.frame,
                &target.sequence,
                &mut torsions,
                0,
                &mut scratch,
            );
            let full = target.build(&LoopBuilder::default(), &torsions);
            assert_eq!(scratch, full, "{name}: scratch is not the full build");
            assert!(
                (target.closure_deviation(&scratch) - result.final_deviation).abs() < 1e-12,
                "{name}: deviation inconsistent with returned structure"
            );
        }
    }

    #[test]
    fn ccd_is_deterministic() {
        let (target, torsions0) = target_and_perturbed("1dim", 35.0, 5);
        let closer = CcdCloser::default();
        let mut t1 = torsions0.clone();
        let mut t2 = torsions0.clone();
        let r1 = closer.close(&target.frame, &target.sequence, &mut t1);
        let r2 = closer.close(&target.frame, &target.sequence, &mut t2);
        assert_eq!(t1, t2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn tight_tolerance_costs_more_sweeps() {
        let (target, torsions0) = target_and_perturbed("1cex", 40.0, 17);
        let loose = CcdCloser::with_config(CcdConfig {
            tolerance: 0.5,
            ..CcdConfig::default()
        });
        let tight = CcdCloser::with_config(CcdConfig {
            tolerance: 0.01,
            max_sweeps: 256,
            ..CcdConfig::default()
        });
        let mut tl = torsions0.clone();
        let mut tt = torsions0.clone();
        let rl = loose.close(&target.frame, &target.sequence, &mut tl);
        let rt = tight.close(&target.frame, &target.sequence, &mut tt);
        assert!(rl.sweeps <= rt.sweeps);
        if rt.converged {
            assert!(rt.final_deviation <= 0.01);
        }
    }
}
