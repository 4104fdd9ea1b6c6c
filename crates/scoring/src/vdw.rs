//! The VDW (soft-sphere van der Waals) scoring function.
//!
//! "The soft-sphere van der Waals scoring function estimates the degree of
//! clashes among the loop residues as well as the potential clashes between
//! the loop residues and the residues in the rest of the protein by
//! calculating the atom-atom, atom-centroid, and centroid-centroid
//! distances."  (Paper, §III.B; potential form after Zhang et al. 1997.)
//!
//! Overlapping soft spheres contribute a quadratic penalty
//! `((σ − d)/σ)²` where σ is the sum of the two radii; non-overlapping
//! pairs contribute nothing.  Contacts are evaluated
//!
//! * between all loop backbone atoms / centroids at residue separation ≥ 2
//!   (intra-loop clashes), and
//! * between every loop atom / centroid and the fixed environment atoms.
//!   The environment is fixed for the whole target, so each site reads the
//!   precomputed candidate list of its grid cell
//!   ([`EnvCandidates::near`]): no gather, no sort, no scratch index
//!   buffer, and O(local density) work per site rather than O(all
//!   candidates).  A list holds every candidate within
//!   [`ENV_LIST_RADIUS`] of the site, in ascending index order.  Every
//!   contributing pair lies within the site's reach
//!   `(r_site + max_env_radius) · softness`, which the pass asserts is at
//!   most the list radius, and the surviving contributions are summed in
//!   the linear scan's order, so the production term is bit-identical to
//!   the exhaustive linear scan ([`VdwScore::environment_term_linear`],
//!   property-tested in `tests/cell_list_equivalence.rs`).

use crate::traits::ScoringFunction;
use crate::workspace::ScoreScratch;
use lms_geometry::Vec3;
use lms_protein::{EnvCandidates, LoopStructure, LoopTarget, Torsions, ENV_LIST_RADIUS};

/// Soft-sphere radii (Å) of the backbone heavy atoms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdwRadii {
    /// Amide nitrogen.
    pub n: f64,
    /// Alpha carbon.
    pub ca: f64,
    /// Carbonyl carbon.
    pub c: f64,
    /// Carbonyl oxygen.
    pub o: f64,
    /// Softness factor applied to every radius sum (1.0 = hard spheres,
    /// smaller = softer).
    pub softness: f64,
}

impl Default for VdwRadii {
    fn default() -> Self {
        VdwRadii {
            n: 1.55,
            ca: 1.70,
            c: 1.70,
            o: 1.40,
            softness: 0.90,
        }
    }
}

/// Relative weights of the three contact categories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactWeights {
    /// Backbone-atom / backbone-atom contacts.
    pub atom_atom: f64,
    /// Backbone-atom / side-chain-centroid contacts.
    pub atom_centroid: f64,
    /// Centroid / centroid contacts.
    pub centroid_centroid: f64,
}

impl Default for ContactWeights {
    fn default() -> Self {
        ContactWeights {
            atom_atom: 1.0,
            atom_centroid: 0.5,
            centroid_centroid: 0.25,
        }
    }
}

/// Soft-sphere van der Waals clash score.
#[derive(Debug, Clone)]
pub struct VdwScore {
    radii: VdwRadii,
    weights: ContactWeights,
}

impl Default for VdwScore {
    fn default() -> Self {
        VdwScore::new(VdwRadii::default(), ContactWeights::default())
    }
}

impl VdwScore {
    /// Create a scorer with explicit radii and contact weights.
    pub fn new(radii: VdwRadii, weights: ContactWeights) -> Self {
        VdwScore { radii, weights }
    }

    /// The radii in use.
    pub fn radii(&self) -> &VdwRadii {
        &self.radii
    }

    /// The environment neighbour cutoff (Å): the list radius
    /// [`ENV_LIST_RADIUS`].  Every site's contact reach must lie within it,
    /// which the environment pass asserts.  The largest radius sum, Trp
    /// centroid on Trp centroid, is 3.2 + 3.2 = 6.4 Å, so every softness up
    /// to 7 / 6.4 fits.
    pub fn cutoff(&self) -> f64 {
        ENV_LIST_RADIUS
    }

    fn overlap_penalty(&self, d: f64, sigma: f64) -> f64 {
        let sigma = sigma * self.radii.softness;
        if d >= sigma || sigma <= 0.0 {
            0.0
        } else {
            let x = (sigma - d) / sigma;
            x * x
        }
    }

    /// Stage the loop's interaction sites into the scratch SoA buffers:
    /// backbone atoms with their radii and residue index, plus centroid
    /// pseudo-atoms.  `clear` + `push` only — no allocation after warm-up.
    fn fill_sites(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) {
        let r = &self.radii;
        scratch.clear();
        for (i, res) in structure.residues.iter().enumerate() {
            for (k, (p, radius)) in [(res.n, r.n), (res.ca, r.ca), (res.c, r.c), (res.o, r.o)]
                .into_iter()
                .enumerate()
            {
                scratch.site_x.push(p.x);
                scratch.site_y.push(p.y);
                scratch.site_z.push(p.z);
                scratch.site_r.push(radius);
                scratch.site_res.push(i as u32);
                scratch.site_centroid.push(false);
                scratch.site_is_ca.push(k == 1);
            }
            if let Some(c) = res.centroid {
                scratch.site_x.push(c.x);
                scratch.site_y.push(c.y);
                scratch.site_z.push(c.z);
                scratch.site_r.push(target.sequence[i].centroid_radius());
                scratch.site_res.push(i as u32);
                scratch.site_centroid.push(true);
                scratch.site_is_ca.push(false);
            }
        }
    }

    #[inline(always)]
    fn contact_weight(&self, a_centroid: bool, b_centroid: bool) -> f64 {
        match (a_centroid, b_centroid) {
            (false, false) => self.weights.atom_atom,
            (true, true) => self.weights.centroid_centroid,
            _ => self.weights.atom_centroid,
        }
    }

    /// Intra-loop clash contribution over the staged SoA sites.
    ///
    /// While walking the site pairs this pass also records every Cα–Cα
    /// squared distance it computes (residue separation ≥ 2 — exactly the
    /// pairs the DIST kernel scores) into the scratch's shared `ca_d2`
    /// table, so the DIST Cα–Cα bounding check becomes a table read instead
    /// of a recomputation: one staging of the Cα coordinates serves VDW,
    /// BURIAL and DIST.  The stores happen before the overlap early-out and
    /// never change the clash sum.
    fn intra_loop(&self, s: &mut ScoreScratch, n_residues: usize) -> f64 {
        s.ca_d2.clear();
        s.ca_d2.resize(n_residues * n_residues, f64::INFINITY);
        s.ca_d2_staged = true;
        let n = s.site_x.len();
        let mut total = 0.0;
        for a in 0..n {
            let (xa, ya, za) = (s.site_x[a], s.site_y[a], s.site_z[a]);
            let (ra, ia, ca) = (s.site_r[a], s.site_res[a], s.site_centroid[a]);
            let a_is_ca = s.site_is_ca[a];
            for b in (a + 1)..n {
                // Residues closer than 2 apart in sequence are covalently
                // coupled; their short contacts are not clashes.
                if s.site_res[b].abs_diff(ia) < 2 {
                    continue;
                }
                let dx = xa - s.site_x[b];
                let dy = ya - s.site_y[b];
                let dz = za - s.site_z[b];
                let d2 = dx * dx + dy * dy + dz * dz;
                if a_is_ca && s.site_is_ca[b] {
                    // Sites are staged in residue order, so `a` is the
                    // earlier residue: the stored value is bit-identical to
                    // what DIST's own Cα bound computation would produce.
                    s.ca_d2[ia as usize * n_residues + s.site_res[b] as usize] = d2;
                }
                let sigma = (ra + s.site_r[b]) * self.radii.softness;
                // Squared-distance early-out: pairs at or beyond the softened
                // radius sum contribute exactly 0, so skipping them before
                // the sqrt leaves the score bit-identical.
                if d2 >= sigma * sigma || sigma <= 0.0 {
                    continue;
                }
                total += self.contact_weight(ca, s.site_centroid[b])
                    * self.overlap_penalty(d2.sqrt(), ra + s.site_r[b]);
            }
        }
        total
    }

    /// Loop-to-environment clash contribution via an exhaustive linear scan
    /// of the target's precomputed SoA candidate set.  Candidates beyond
    /// overlap range contribute exactly 0, so the conservative candidate
    /// superset changes nothing but speed.  This is the *reference* path
    /// that the production pass ([`VdwScore::against_environment`]) must
    /// (and does) reproduce bit for bit.
    fn against_environment_linear(&self, s: &ScoreScratch, env: &EnvCandidates) -> f64 {
        let (ex, ey, ez) = (env.xs(), env.ys(), env.zs());
        let (er, ec) = (env.radii(), env.centroid_flags());
        let mut total = 0.0;
        for a in 0..s.site_x.len() {
            let (xa, ya, za) = (s.site_x[a], s.site_y[a], s.site_z[a]);
            let (ra, ca) = (s.site_r[a], s.site_centroid[a]);
            for b in 0..ex.len() {
                let dx = xa - ex[b];
                let dy = ya - ey[b];
                let dz = za - ez[b];
                let d2 = dx * dx + dy * dy + dz * dz;
                let sigma = (ra + er[b]) * self.radii.softness;
                if d2 >= sigma * sigma || sigma <= 0.0 {
                    continue;
                }
                total +=
                    self.contact_weight(ca, ec[b]) * self.overlap_penalty(d2.sqrt(), ra + er[b]);
            }
        }
        total
    }

    /// The production loop-to-environment pass: each staged site reads its
    /// cell's precomputed candidate list ([`EnvCandidates::near`]) and
    /// applies its exact d²/σ² filter to it.
    ///
    /// Bit-identity to [`VdwScore::against_environment_linear`]:
    /// * every contributing candidate satisfies `d < σ ≤ reach ≤`
    ///   [`ENV_LIST_RADIUS`] (asserted below), so it is in the site's list;
    ///   listed candidates beyond σ contribute exactly 0;
    /// * each list is ascending, so the surviving contributions are summed
    ///   in the linear scan's order.
    ///
    /// With `burial_radius = Some(r)` (`r ≤` the list radius, asserted),
    /// each residue's environment contact count within `r` of its Cα is
    /// filtered from the Cα site's own list into `scratch.burial_counts`:
    /// the burial objective costs one extra distance filter per residue.
    fn against_environment(
        &self,
        s: &mut ScoreScratch,
        env: &EnvCandidates,
        n_residues: usize,
        burial_radius: Option<f64>,
    ) -> f64 {
        let softness = self.radii.softness;
        let max_site = s.site_r.iter().fold(0.0f64, |m, &r| m.max(r));
        let reach = (max_site + env.max_radius()) * softness;
        assert!(
            reach <= ENV_LIST_RADIUS,
            "VDW site reach {reach} Å exceeds the environment list radius {ENV_LIST_RADIUS} Å"
        );
        if let Some(r) = burial_radius {
            assert!(
                r <= ENV_LIST_RADIUS,
                "burial radius {r} Å exceeds the environment list radius {ENV_LIST_RADIUS} Å"
            );
            s.burial_counts.clear();
            s.burial_counts.resize(n_residues, 0);
        }
        let (ex, ey, ez) = (env.xs(), env.ys(), env.zs());
        let (er, ec) = (env.radii(), env.centroid_flags());
        let mut total = 0.0;
        for a in 0..s.site_x.len() {
            let p = Vec3::new(s.site_x[a], s.site_y[a], s.site_z[a]);
            let (ra, a_centroid) = (s.site_r[a], s.site_centroid[a]);
            let near = env.near(p);
            if let Some(r) = burial_radius.filter(|_| s.site_is_ca[a]) {
                s.burial_counts[s.site_res[a] as usize] = env.count_within(p, r, near);
            }
            for &b in near {
                let b = b as usize;
                let dx = p.x - ex[b];
                let dy = p.y - ey[b];
                let dz = p.z - ez[b];
                let d2 = dx * dx + dy * dy + dz * dz;
                let sigma = (ra + er[b]) * softness;
                if d2 >= sigma * sigma || sigma <= 0.0 {
                    continue;
                }
                total += self.contact_weight(a_centroid, ec[b])
                    * self.overlap_penalty(d2.sqrt(), ra + er[b]);
            }
        }
        total
    }

    /// The loop-to-environment term of [`VdwScore::score_target_with`] in
    /// isolation (the production pass over the per-cell candidate lists).
    /// Exposed so equivalence tests and benchmarks can compare it against
    /// [`VdwScore::environment_term_linear`].
    pub fn environment_term(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.fill_sites(target, structure, scratch);
        self.against_environment(
            scratch,
            target.env_candidates(),
            structure.n_residues(),
            None,
        )
    }

    /// The same environment term via the exhaustive linear SoA scan — the
    /// reference implementation the production pass must match bit for bit.
    pub fn environment_term_linear(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.fill_sites(target, structure, scratch);
        self.against_environment_linear(scratch, target.env_candidates())
    }

    /// Score a structure in the context of a target (needed for the residue
    /// types and the environment), staging data in `scratch`.
    pub fn score_target_with(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.fill_sites(target, structure, scratch);
        let intra = self.intra_loop(scratch, structure.n_residues());
        let inter = self.against_environment(
            scratch,
            target.env_candidates(),
            structure.n_residues(),
            None,
        );
        (intra + inter) / structure.n_residues() as f64
    }

    /// [`VdwScore::score_target_with`] with the environment term evaluated
    /// through the shared VDW + BURIAL pass: on return,
    /// `scratch.burial_counts` holds each residue's environment contact
    /// count within `burial_radius` of its Cα, filtered from the same
    /// candidate lists the VDW sum consumed.  The returned VDW score is
    /// bit-identical to [`VdwScore::score_target_with`].
    ///
    /// # Panics
    ///
    /// If `burial_radius` exceeds [`ENV_LIST_RADIUS`].
    pub fn score_target_with_burial(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
        burial_radius: f64,
    ) -> f64 {
        self.fill_sites(target, structure, scratch);
        let intra = self.intra_loop(scratch, structure.n_residues());
        let inter = self.against_environment(
            scratch,
            target.env_candidates(),
            structure.n_residues(),
            Some(burial_radius),
        );
        (intra + inter) / structure.n_residues() as f64
    }

    /// Allocating convenience wrapper over [`VdwScore::score_target_with`].
    pub fn score_target(&self, target: &LoopTarget, structure: &LoopStructure) -> f64 {
        let mut scratch = ScoreScratch::new();
        self.score_target_with(target, structure, &mut scratch)
    }
}

impl ScoringFunction for VdwScore {
    fn name(&self) -> &'static str {
        "VDW"
    }

    fn score_with(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        _torsions: &Torsions,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.score_target_with(target, structure, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::deg_to_rad;
    use lms_protein::{BenchmarkLibrary, LoopBuilder, Torsions};

    #[test]
    fn name_is_vdw() {
        assert_eq!(VdwScore::default().name(), "VDW");
    }

    #[test]
    fn overlap_penalty_shape() {
        let s = VdwScore::default();
        let sigma = 3.0;
        // No penalty at or beyond the (softened) radius sum.
        assert_eq!(s.overlap_penalty(3.0, sigma), 0.0);
        assert_eq!(s.overlap_penalty(2.8, sigma), 0.0);
        // Penalty grows monotonically as the overlap deepens.
        let p1 = s.overlap_penalty(2.5, sigma);
        let p2 = s.overlap_penalty(2.0, sigma);
        let p3 = s.overlap_penalty(1.0, sigma);
        assert!(p1 > 0.0);
        assert!(p2 > p1);
        assert!(p3 > p2);
        // Degenerate sigma contributes nothing rather than NaN.
        assert_eq!(s.overlap_penalty(1.0, 0.0), 0.0);
    }

    #[test]
    fn native_scores_better_than_clashing_conformation() {
        let s = VdwScore::default();
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1cex").unwrap();
        let builder = LoopBuilder::default();
        let native = target.build(&builder, &target.native_torsions);
        let native_score = s.score_target(&target, &native);

        // All-zero torsions coil the loop into itself.
        let clash_t = Torsions::zeros(target.n_residues());
        let clashing = target.build(&builder, &clash_t);
        let clash_score = s.score_target(&target, &clashing);
        assert!(
            native_score < clash_score,
            "native {native_score} should beat clashing {clash_score}"
        );
    }

    #[test]
    fn buried_target_penalises_even_reasonable_conformations() {
        // The buried 1xyz target has a dense, close environment shell; an
        // arbitrary (but internally clash-free) alpha-helical conformation
        // should pick up more environment overlap than on a surface loop.
        let s = VdwScore::default();
        let lib = BenchmarkLibrary::standard();
        let buried = lib.target_by_name("1xyz").unwrap();
        let surface = lib.target_by_name("1cex").unwrap();
        let builder = LoopBuilder::default();
        let torsions =
            |n: usize| Torsions::from_pairs(&vec![(deg_to_rad(-63.0), deg_to_rad(-43.0)); n]);
        let b = s.score_target(
            &buried,
            &buried.build(&builder, &torsions(buried.n_residues())),
        );
        let srf = s.score_target(
            &surface,
            &surface.build(&builder, &torsions(surface.n_residues())),
        );
        assert!(b > srf, "buried {b} should exceed surface {srf}");
    }

    #[test]
    fn score_is_deterministic_and_finite() {
        let s = VdwScore::default();
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("5pti").unwrap();
        let builder = LoopBuilder::default();
        let native = target.build(&builder, &target.native_torsions);
        let a = s.score_target(&target, &native);
        let b = s.score_target(&target, &native);
        assert_eq!(a, b);
        assert!(a.is_finite());
        assert!(a >= 0.0, "soft-sphere penalties are non-negative");
    }

    #[test]
    fn shared_burial_pass_leaves_vdw_bit_identical_and_counts_exact() {
        let s = VdwScore::default();
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        for name in ["1cex", "1xyz"] {
            let target = lib.target_by_name(name).unwrap();
            let native = target.build(&builder, &target.native_torsions);
            let mut scratch = ScoreScratch::new();
            let plain = s.score_target_with(&target, &native, &mut scratch);
            let shared = s.score_target_with_burial(
                &target,
                &native,
                &mut scratch,
                crate::burial::BURIAL_RADIUS,
            );
            assert_eq!(plain.to_bits(), shared.to_bits(), "{name}");
            // The piggybacked counts equal the exhaustive linear reference.
            let env = target.env_candidates();
            for (i, res) in native.residues.iter().enumerate() {
                assert_eq!(
                    scratch.burial_counts()[i],
                    env.count_within_linear(res.ca, crate::burial::BURIAL_RADIUS),
                    "{name} residue {i}"
                );
            }
        }
    }

    #[test]
    fn production_environment_term_matches_linear() {
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        for name in ["1cex", "1xyz", "5pti"] {
            let target = lib.target_by_name(name).unwrap();
            for torsions in [
                target.native_torsions.clone(),
                Torsions::zeros(target.n_residues()),
            ] {
                let structure = target.build(&builder, &torsions);
                let s = VdwScore::default();
                let mut scratch = ScoreScratch::new();
                let production = s.environment_term(&target, &structure, &mut scratch);
                let linear = s.environment_term_linear(&target, &structure, &mut scratch);
                assert_eq!(production.to_bits(), linear.to_bits(), "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the environment list radius")]
    fn site_reach_beyond_the_list_radius_panics() {
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1cex").unwrap();
        // (5.0 + the environment's largest radius) · 1.0 is beyond 7 Å: a
        // contact there could be missing from the lists.
        assert!(target.env_candidates().max_radius() > ENV_LIST_RADIUS - 5.0);
        let s = VdwScore::new(
            VdwRadii {
                softness: 1.0,
                ca: 5.0,
                ..VdwRadii::default()
            },
            ContactWeights::default(),
        );
        let native = target.build(&LoopBuilder::default(), &target.native_torsions);
        s.score_target(&target, &native);
    }

    #[test]
    fn windowed_burial_counts_match_linear_reference() {
        let s = VdwScore::default();
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        for name in ["1cex", "1xyz"] {
            let target = lib.target_by_name(name).unwrap();
            let clashing = target.build(&builder, &Torsions::zeros(target.n_residues()));
            let mut scratch = ScoreScratch::new();
            s.score_target_with_burial(
                &target,
                &clashing,
                &mut scratch,
                crate::burial::BURIAL_RADIUS,
            );
            let env = target.env_candidates();
            for (i, res) in clashing.residues.iter().enumerate() {
                assert_eq!(
                    scratch.burial_counts()[i],
                    env.count_within_linear(res.ca, crate::burial::BURIAL_RADIUS),
                    "{name} residue {i}"
                );
            }
        }
    }

    #[test]
    fn weights_scale_the_contributions() {
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1dim").unwrap();
        let builder = LoopBuilder::default();
        let clash_t = Torsions::zeros(target.n_residues());
        let clashing = target.build(&builder, &clash_t);

        let base = VdwScore::default().score_target(&target, &clashing);
        let doubled = VdwScore::new(
            VdwRadii::default(),
            ContactWeights {
                atom_atom: 2.0,
                atom_centroid: 1.0,
                centroid_centroid: 0.5,
            },
        )
        .score_target(&target, &clashing);
        assert!(
            (doubled - 2.0 * base).abs() < 1e-9,
            "doubling weights doubles the score"
        );
    }

    #[test]
    fn harder_spheres_raise_the_score() {
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("153l").unwrap();
        let builder = LoopBuilder::default();
        let clash_t = Torsions::zeros(target.n_residues());
        let clashing = target.build(&builder, &clash_t);
        let soft = VdwScore::new(
            VdwRadii {
                softness: 0.8,
                ..VdwRadii::default()
            },
            ContactWeights::default(),
        )
        .score_target(&target, &clashing);
        let hard = VdwScore::new(
            VdwRadii {
                softness: 1.0,
                ..VdwRadii::default()
            },
            ContactWeights::default(),
        )
        .score_target(&target, &clashing);
        assert!(hard > soft);
    }
}
