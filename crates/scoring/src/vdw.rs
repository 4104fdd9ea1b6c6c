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
//!
//! ## Resuming the environment term
//!
//! The environment term sums site by site in residue order, so the running
//! total at each residue boundary is a checkpoint: every pass leaves its
//! row of `n_residues + 1` totals in [`ScoreScratch::env_totals`], and each
//! residue's burial count depends on its own Cα alone.  A conformation
//! that agrees with an earlier one on every residue below `r` can start
//! from that pass's total at `r` and its counts below `r`
//! ([`EnvResume`]), and sum only the sites of residues `≥ r`, in the same
//! order: the term, the counts and the new checkpoint row are the same bits
//! as a full pass (property-tested in `tests/env_resume_equivalence.rs`).
//! The full pass is the `r = 0` case ([`EnvResume::FULL`]).  The
//! intra-loop term is always summed in full.

use crate::workspace::ScoreScratch;
use lms_geometry::Vec3;
use lms_protein::{EnvCandidates, LoopStructure, LoopTarget, ENV_LIST_RADIUS};

/// Where a loop-to-environment pass starts: the first residue it sums and
/// the checkpoint of an earlier pass it resumes from (see the module docs).
///
/// The caller vouches that the scored conformation agrees, bit for bit,
/// with the checkpoint's conformation on every residue below
/// [`EnvResume::residue`].
#[derive(Debug, Clone, Copy)]
pub struct EnvResume<'a> {
    residue: usize,
    totals: &'a [f64],
    counts: &'a [u32],
}

impl<'a> EnvResume<'a> {
    /// The full pass: every residue from a zero total.
    pub const FULL: EnvResume<'static> = EnvResume {
        residue: 0,
        totals: &[0.0],
        counts: &[],
    };

    /// Resume at `residue` from an earlier pass's checkpoint: `totals` is
    /// its [`ScoreScratch::env_totals`] row and `counts` its per-residue
    /// burial counts (read below `residue` only when the pass counts
    /// burial).
    ///
    /// # Panics
    ///
    /// If `totals` holds no entry at `residue`.
    pub fn new(residue: usize, totals: &'a [f64], counts: &'a [u32]) -> Self {
        assert!(
            residue < totals.len(),
            "resume residue {residue} is past the checkpoint row ({} entries)",
            totals.len()
        );
        EnvResume {
            residue,
            totals,
            counts,
        }
    }

    /// The first residue whose sites the pass sums.
    pub fn residue(&self) -> usize {
        self.residue
    }
}

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
    /// Residues closer than 2 apart in sequence are covalently coupled;
    /// their short contacts are not clashes.  Sites are staged in residue
    /// order, so row `a` starts at the first site of residue
    /// `site_res[a] + 2` (advanced once per row) and visits exactly the
    /// pairs `b > a` at separation ≥ 2, in ascending order.
    fn intra_loop(&self, s: &ScoreScratch) -> f64 {
        let n = s.site_x.len();
        let mut total = 0.0;
        let mut first = 0;
        for a in 0..n {
            let (xa, ya, za) = (s.site_x[a], s.site_y[a], s.site_z[a]);
            let (ra, ca) = (s.site_r[a], s.site_centroid[a]);
            let far = s.site_res[a] + 2;
            while first < n && s.site_res[first] < far {
                first += 1;
            }
            for b in first..n {
                let dx = xa - s.site_x[b];
                let dy = ya - s.site_y[b];
                let dz = za - s.site_z[b];
                let d2 = dx * dx + dy * dy + dz * dz;
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
    /// of the target's precomputed candidate records.  Candidates beyond
    /// overlap range contribute exactly 0, so the conservative candidate
    /// superset changes nothing but speed.  This is the *reference* path
    /// that the production pass ([`VdwScore::against_environment`]) must
    /// (and does) reproduce bit for bit.
    fn against_environment_linear(&self, s: &ScoreScratch, env: &EnvCandidates) -> f64 {
        let (records, ec) = (env.records(), env.centroid_flags());
        let mut total = 0.0;
        for a in 0..s.site_x.len() {
            let (xa, ya, za) = (s.site_x[a], s.site_y[a], s.site_z[a]);
            let (ra, ca) = (s.site_r[a], s.site_centroid[a]);
            for (b, &[xb, yb, zb, rb]) in records.iter().enumerate() {
                let dx = xa - xb;
                let dy = ya - yb;
                let dz = za - zb;
                let d2 = dx * dx + dy * dy + dz * dz;
                let sigma = (ra + rb) * self.radii.softness;
                if d2 >= sigma * sigma || sigma <= 0.0 {
                    continue;
                }
                total += self.contact_weight(ca, ec[b]) * self.overlap_penalty(d2.sqrt(), ra + rb);
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
    ///
    /// The pass starts at `resume`'s residue from its checkpoint (the
    /// asserts still cover every site) and writes the whole checkpoint row
    /// into `scratch.env_totals`.
    fn against_environment(
        &self,
        s: &mut ScoreScratch,
        env: &EnvCandidates,
        n_residues: usize,
        burial_radius: Option<f64>,
        resume: EnvResume<'_>,
    ) -> f64 {
        let softness = self.radii.softness;
        let max_site = s.site_r.iter().fold(0.0f64, |m, &r| m.max(r));
        // The largest radius sum, Trp centroid on Trp centroid, is
        // 3.2 + 3.2 = 6.4 Å, so every softness up to 7 / 6.4 fits.
        let reach = (max_site + env.max_radius()) * softness;
        assert!(
            reach <= ENV_LIST_RADIUS,
            "VDW site reach {reach} Å exceeds the environment list radius {ENV_LIST_RADIUS} Å"
        );
        let r0 = resume.residue;
        if let Some(r) = burial_radius {
            assert!(
                r <= ENV_LIST_RADIUS,
                "burial radius {r} Å exceeds the environment list radius {ENV_LIST_RADIUS} Å"
            );
            s.burial_counts.clear();
            s.burial_counts.extend_from_slice(&resume.counts[..r0]);
            s.burial_counts.resize(n_residues, 0);
        }
        s.env_totals.clear();
        s.env_totals.extend_from_slice(&resume.totals[..=r0]);
        let (records, ec) = (env.records(), env.centroid_flags());
        let n_sites = s.site_x.len();
        let mut total = resume.totals[r0];
        // Sites are staged in residue order: skip the resumed prefix.
        let mut a = s.site_res.partition_point(|&res| (res as usize) < r0);
        for residue in r0..n_residues {
            while a < n_sites && s.site_res[a] as usize == residue {
                let p = Vec3::new(s.site_x[a], s.site_y[a], s.site_z[a]);
                let (ra, a_centroid) = (s.site_r[a], s.site_centroid[a]);
                let near = env.near(p);
                if let Some(r) = burial_radius.filter(|_| s.site_is_ca[a]) {
                    s.burial_counts[residue] = env.count_within(p, r, near);
                }
                for &b in near {
                    let b = b as usize;
                    let [xb, yb, zb, rb] = records[b];
                    let dx = p.x - xb;
                    let dy = p.y - yb;
                    let dz = p.z - zb;
                    let d2 = dx * dx + dy * dy + dz * dz;
                    let sigma = (ra + rb) * softness;
                    if d2 >= sigma * sigma || sigma <= 0.0 {
                        continue;
                    }
                    total += self.contact_weight(a_centroid, ec[b])
                        * self.overlap_penalty(d2.sqrt(), ra + rb);
                }
                a += 1;
            }
            s.env_totals.push(total);
        }
        total
    }

    /// The loop-to-environment term of [`VdwScore::score_target_from`] in
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
            EnvResume::FULL,
        )
    }

    /// The same environment term via the exhaustive linear scan — the
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

    /// The VDW score of a structure in the context of its target (the
    /// residue types and the environment), staged in `scratch`: the
    /// intra-loop term summed in full plus the environment term summed from
    /// `resume` ([`EnvResume::FULL`] for the full pass), divided by the
    /// residue count.
    ///
    /// With `burial_radius = Some(r)`, the environment pass also leaves each
    /// residue's environment contact count within `r` of its Cα in
    /// [`ScoreScratch::burial_counts`], filtered from the same candidate
    /// lists; the returned score does not depend on it.
    ///
    /// # Panics
    ///
    /// If a site's contact reach or `burial_radius` exceeds
    /// [`ENV_LIST_RADIUS`].
    pub fn score_target_from(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
        burial_radius: Option<f64>,
        resume: EnvResume<'_>,
    ) -> f64 {
        self.fill_sites(target, structure, scratch);
        let intra = self.intra_loop(scratch);
        let inter = self.against_environment(
            scratch,
            target.env_candidates(),
            structure.n_residues(),
            burial_radius,
            resume,
        );
        (intra + inter) / structure.n_residues() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::deg_to_rad;
    use lms_protein::{BenchmarkLibrary, LoopBuilder, Torsions};

    /// The full pass without burial into a throwaway scratch.
    fn full_pass(s: &VdwScore, target: &LoopTarget, structure: &LoopStructure) -> f64 {
        s.score_target_from(
            target,
            structure,
            &mut ScoreScratch::new(),
            None,
            EnvResume::FULL,
        )
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
        let native_score = full_pass(&s, &target, &native);

        // All-zero torsions coil the loop into itself.
        let clash_t = Torsions::zeros(target.n_residues());
        let clashing = target.build(&builder, &clash_t);
        let clash_score = full_pass(&s, &target, &clashing);
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
        let b = full_pass(
            &s,
            &buried,
            &buried.build(&builder, &torsions(buried.n_residues())),
        );
        let srf = full_pass(
            &s,
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
        let a = full_pass(&s, &target, &native);
        let b = full_pass(&s, &target, &native);
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
            let plain = full_pass(&s, &target, &native);
            let shared = s.score_target_from(
                &target,
                &native,
                &mut scratch,
                Some(crate::burial::BURIAL_RADIUS),
                EnvResume::FULL,
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

    /// The intra-loop oracle: every site pair `b > a`, skipping residues
    /// closer than 2 apart in sequence.
    fn intra_loop_all_pairs(vdw: &VdwScore, s: &ScoreScratch) -> f64 {
        let n = s.site_x.len();
        let mut total = 0.0;
        for a in 0..n {
            for b in (a + 1)..n {
                if s.site_res[b].abs_diff(s.site_res[a]) < 2 {
                    continue;
                }
                let dx = s.site_x[a] - s.site_x[b];
                let dy = s.site_y[a] - s.site_y[b];
                let dz = s.site_z[a] - s.site_z[b];
                let d = (dx * dx + dy * dy + dz * dz).sqrt();
                total += vdw.contact_weight(s.site_centroid[a], s.site_centroid[b])
                    * vdw.overlap_penalty(d, s.site_r[a] + s.site_r[b]);
            }
        }
        total
    }

    /// Both production passes against their oracles: the environment term
    /// against the linear scan, the intra-loop term against all site
    /// pairs.  Inputs: native, all-zero (clashing) and random conformations,
    /// and a loop with glycines (4 sites, no centroid).
    #[test]
    fn production_environment_term_matches_linear() {
        let lib = BenchmarkLibrary::standard();
        let builder = LoopBuilder::default();
        let factory = lms_geometry::StreamRngFactory::new(31);
        let mut gly = lib.target_by_name("1cex").unwrap();
        for k in (1..gly.sequence.len()).step_by(3) {
            gly.sequence[k] = lms_protein::AminoAcid::Gly;
        }
        let mut targets: Vec<LoopTarget> = ["1cex", "1xyz", "5pti"]
            .into_iter()
            .map(|name| lib.target_by_name(name).unwrap())
            .collect();
        targets.push(gly);
        for target in &targets {
            let mut inputs = vec![
                target.native_torsions.clone(),
                Torsions::zeros(target.n_residues()),
            ];
            for trial in 0..6u64 {
                let mut rng = factory.stream(trial, 0);
                let mut torsions = target.native_torsions.clone();
                for k in 0..torsions.n_angles() {
                    torsions.rotate_angle(k, lms_geometry::random_torsion(&mut rng));
                }
                inputs.push(torsions);
            }
            for torsions in inputs {
                let structure = target.build(&builder, &torsions);
                let s = VdwScore::default();
                let mut scratch = ScoreScratch::new();
                let linear = s.environment_term_linear(target, &structure, &mut scratch);
                let production = s.environment_term(target, &structure, &mut scratch);
                assert_eq!(production.to_bits(), linear.to_bits(), "{}", target.name);
                let intra = s.intra_loop(&scratch);
                let oracle = intra_loop_all_pairs(&s, &scratch);
                assert_eq!(intra.to_bits(), oracle.to_bits(), "{} intra", target.name);
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
        full_pass(&s, &target, &native);
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
            s.score_target_from(
                &target,
                &clashing,
                &mut scratch,
                Some(crate::burial::BURIAL_RADIUS),
                EnvResume::FULL,
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

        let base = full_pass(&VdwScore::default(), &target, &clashing);
        let doubled = full_pass(
            &VdwScore::new(
                VdwRadii::default(),
                ContactWeights {
                    atom_atom: 2.0,
                    atom_centroid: 1.0,
                    centroid_centroid: 0.5,
                },
            ),
            &target,
            &clashing,
        );
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
        let soft = full_pass(
            &VdwScore::new(
                VdwRadii {
                    softness: 0.8,
                    ..VdwRadii::default()
                },
                ContactWeights::default(),
            ),
            &target,
            &clashing,
        );
        let hard = full_pass(
            &VdwScore::new(
                VdwRadii {
                    softness: 1.0,
                    ..VdwRadii::default()
                },
                ContactWeights::default(),
            ),
            &target,
            &clashing,
        );
        assert!(hard > soft);
    }
}
