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
//! * between every loop atom / centroid and the fixed environment atoms
//!   within a cutoff, queried through the per-target candidate cell list
//!   ([`EnvCandidates::gather_within`]) so each site pays O(local density)
//!   rather than O(all candidates).  Production scoring batches the queries
//!   into **per-residue candidate windows**: one gather per residue,
//!   centred on its Cα with a radius covering every site's own contact
//!   reach, sorted once and shared by all of the residue's ~5 sites (each
//!   site keeps its exact d²/σ² filter).  Gathered indices are always
//!   sorted back into ascending order before accumulation, which restores
//!   the exhaustive linear scan's floating-point summation order — the
//!   window pass, the per-site pass
//!   ([`VdwScore::environment_term_per_site`]) and the linear scan
//!   ([`VdwScore::environment_term_linear`]) are all bit-identical
//!   (property-tested in `tests/cell_list_equivalence.rs`).

use crate::traits::ScoringFunction;
use crate::workspace::ScoreScratch;
use lms_geometry::Vec3;
use lms_protein::{EnvCandidates, LoopStructure, LoopTarget, Torsions};

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
    /// Neighbour-query cutoff (Å); must exceed the largest possible radius
    /// sum so no overlapping pair is missed.
    cutoff: f64,
}

impl Default for VdwScore {
    fn default() -> Self {
        VdwScore::new(VdwRadii::default(), ContactWeights::default())
    }
}

impl VdwScore {
    /// Create a scorer with explicit radii and contact weights.
    pub fn new(radii: VdwRadii, weights: ContactWeights) -> Self {
        // Largest centroid radius is ~3.2 A (Trp); largest backbone radius
        // 1.7 A; 3.2 + 3.2 = 6.4 A bounds every radius sum.
        VdwScore {
            radii,
            weights,
            cutoff: 7.0,
        }
    }

    /// The radii in use.
    pub fn radii(&self) -> &VdwRadii {
        &self.radii
    }

    /// The neighbour-query cutoff (Å).  The environment candidate cache is
    /// built with a reach margin at least this large, so the linear SoA
    /// scan sees every atom a grid query within `cutoff` would see.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
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
    /// superset changes nothing but speed.  This is the *reference* path:
    /// production scoring goes through the per-residue window pass
    /// ([`VdwScore::against_environment_windows`]), which must (and does)
    /// reproduce this sum bit for bit.
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

    /// Loop-to-environment clash contribution via *per-site* candidate
    /// cell-list queries: each site gathers only the candidates in cells
    /// overlapping its contact reach `(rₐ + max_env_radius) · softness`, so
    /// per-site cost tracks *local* density instead of the total candidate
    /// count.  Kept as the comparison path for the per-residue window pass
    /// ([`VdwScore::against_environment_windows`]), which amortises the
    /// gather+sort over a residue's sites.
    ///
    /// Two details keep this bit-identical to
    /// [`VdwScore::against_environment_linear`]:
    /// * the gather is a superset of every candidate with a non-zero
    ///   penalty (any contributing pair has `d < σ ≤ reach`), and excluded
    ///   candidates contribute exactly 0;
    /// * gathered indices are sorted ascending before accumulation, so the
    ///   surviving contributions are summed in the linear scan's order.
    ///
    /// The index buffer lives in the scratch; its capacity is raised to the
    /// candidate count (the hard upper bound on any gather) on first use,
    /// after which queries never allocate.
    fn against_environment_cells(&self, s: &mut ScoreScratch, env: &EnvCandidates) -> f64 {
        if env.is_empty() {
            return 0.0;
        }
        if s.env_idx.capacity() < env.len() {
            // `reserve` takes an *additional* count on top of the current
            // length; clearing first makes it an absolute capacity floor,
            // so the guarantee holds even when a scratch warmed up on a
            // smaller target is reused on a larger one.
            s.env_idx.clear();
            s.env_idx.reserve(env.len());
        }
        let softness = self.radii.softness;
        let max_reach = env.max_radius();
        let mut total = 0.0;
        for a in 0..s.site_x.len() {
            let (xa, ya, za) = (s.site_x[a], s.site_y[a], s.site_z[a]);
            let (ra, ca) = (s.site_r[a], s.site_centroid[a]);
            s.env_idx.clear();
            env.gather_within(
                Vec3::new(xa, ya, za),
                (ra + max_reach) * softness,
                &mut s.env_idx,
            );
            s.env_idx.sort_unstable();
            let (ex, ey, ez) = (env.xs(), env.ys(), env.zs());
            let (er, ec) = (env.radii(), env.centroid_flags());
            for &b in &s.env_idx {
                let b = b as usize;
                let dx = xa - ex[b];
                let dy = ya - ey[b];
                let dz = za - ez[b];
                let d2 = dx * dx + dy * dy + dz * dz;
                let sigma = (ra + er[b]) * softness;
                if d2 >= sigma * sigma || sigma <= 0.0 {
                    continue;
                }
                total +=
                    self.contact_weight(ca, ec[b]) * self.overlap_penalty(d2.sqrt(), ra + er[b]);
            }
        }
        total
    }

    /// The production loop-to-environment pass, over **per-residue
    /// candidate windows**: one cell-list gather per residue, centred on
    /// its Cα with a radius covering every site's own contact reach
    /// (`|site − Cα| + (r_site + max_env_radius)·softness`, plus
    /// `burial_radius` when the BURIAL piggyback is enabled), sorted once
    /// and shared by all of the residue's ~5 sites.  This amortises the
    /// dominant gather + sort cost ~5× while each site keeps its exact
    /// d²/σ² filter.
    ///
    /// Bit-identity to the per-site pass (and hence the linear reference):
    /// * the window is a superset of each site's own gather — any
    ///   contributing candidate satisfies `d < σ ≤ reach`, so by the
    ///   triangle inequality it lies within `|site − Cα| + reach` of the
    ///   Cα, and [`WINDOW_SLACK`] absorbs the few-ulp rounding of that
    ///   bound;
    /// * superset membership is harmless — excluded or extra candidates
    ///   contribute exactly 0 to the penalty sum and pass through an exact
    ///   integer distance filter in the burial count, so only the
    ///   *surviving* pairs matter, and those are identical;
    /// * the window indices are sorted ascending once, so every site
    ///   accumulates its surviving contributions in the linear scan's
    ///   order.
    ///
    /// With `burial_radius = Some(r)`, each residue's environment contact
    /// count within `r` of its Cα is derived from the same window into
    /// `scratch.burial_counts` — the burial objective still costs one
    /// extra distance filter, not a second gather.
    fn against_environment_windows(
        &self,
        s: &mut ScoreScratch,
        env: &EnvCandidates,
        n_residues: usize,
        burial_radius: Option<f64>,
    ) -> f64 {
        if burial_radius.is_some() {
            s.burial_counts.clear();
            s.burial_counts.resize(n_residues, 0);
        }
        if env.is_empty() {
            return 0.0;
        }
        if s.env_idx.capacity() < env.len() {
            s.env_idx.clear();
            s.env_idx.reserve(env.len());
        }
        let softness = self.radii.softness;
        let max_reach = env.max_radius();
        let (ex, ey, ez) = (env.xs(), env.ys(), env.zs());
        let (er, ec) = (env.radii(), env.centroid_flags());
        let n = s.site_x.len();
        let mut total = 0.0;
        let mut start = 0;
        while start < n {
            let res = s.site_res[start];
            let mut end = start + 1;
            while end < n && s.site_res[end] == res {
                end += 1;
            }
            // The residue's Cα anchors the window (sites are staged
            // N, Cα, C', O[, centroid] — located by flag for robustness).
            let ca_i = (start..end)
                .find(|&a| s.site_is_ca[a])
                .expect("every residue stages a Cα site");
            let ca = Vec3::new(s.site_x[ca_i], s.site_y[ca_i], s.site_z[ca_i]);
            let mut window = burial_radius.unwrap_or(0.0);
            for a in start..end {
                let dx = s.site_x[a] - ca.x;
                let dy = s.site_y[a] - ca.y;
                let dz = s.site_z[a] - ca.z;
                let dist = (dx * dx + dy * dy + dz * dz).sqrt();
                let reach = (s.site_r[a] + max_reach) * softness;
                window = window.max(dist + reach);
            }
            s.env_idx.clear();
            env.gather_within(ca, window + WINDOW_SLACK, &mut s.env_idx);
            s.env_idx.sort_unstable();
            if let Some(r) = burial_radius {
                s.burial_counts[res as usize] = env.count_within(ca, r, &s.env_idx);
            }
            for a in start..end {
                let (xa, ya, za) = (s.site_x[a], s.site_y[a], s.site_z[a]);
                let (ra, a_centroid) = (s.site_r[a], s.site_centroid[a]);
                for &b in &s.env_idx {
                    let b = b as usize;
                    let dx = xa - ex[b];
                    let dy = ya - ey[b];
                    let dz = za - ez[b];
                    let d2 = dx * dx + dy * dy + dz * dz;
                    let sigma = (ra + er[b]) * softness;
                    if d2 >= sigma * sigma || sigma <= 0.0 {
                        continue;
                    }
                    total += self.contact_weight(a_centroid, ec[b])
                        * self.overlap_penalty(d2.sqrt(), ra + er[b]);
                }
            }
            start = end;
        }
        total
    }

    /// The loop-to-environment term of [`VdwScore::score_target_with`] in
    /// isolation, evaluated through per-residue candidate windows over the
    /// cell list (the production path).  Exposed so equivalence tests and
    /// benchmarks can compare it against
    /// [`VdwScore::environment_term_linear`] and
    /// [`VdwScore::environment_term_per_site`].
    pub fn environment_term(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.fill_sites(target, structure, scratch);
        self.against_environment_windows(
            scratch,
            target.env_candidates(),
            structure.n_residues(),
            None,
        )
    }

    /// The same environment term via the original per-site gather
    /// discipline: one cell-list query + sort per interaction site instead
    /// of one per residue.  Kept as the comparison path for the window
    /// pass — the CCD benchmark tracks the window speedup against this,
    /// and the equivalence tests pin both to the linear reference.
    pub fn environment_term_per_site(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
    ) -> f64 {
        self.fill_sites(target, structure, scratch);
        self.against_environment_cells(scratch, target.env_candidates())
    }

    /// The same environment term via the exhaustive linear SoA scan — the
    /// reference implementation the cell-list path must match bit for bit.
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
        // The candidate cache must cover everything a grid query within
        // `cutoff` would see; the reach margin guarantees that coupling.
        debug_assert!(
            self.cutoff <= lms_protein::ENV_CONTACT_MARGIN,
            "VDW cutoff {} exceeds the environment candidate margin {}",
            self.cutoff,
            lms_protein::ENV_CONTACT_MARGIN
        );
        self.fill_sites(target, structure, scratch);
        let intra = self.intra_loop(scratch, structure.n_residues());
        let inter = self.against_environment_windows(
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
    /// count within `burial_radius` of its Cα, derived from the same
    /// cell-list gathers the VDW sum consumed.  The returned VDW score is
    /// bit-identical to [`VdwScore::score_target_with`].
    pub fn score_target_with_burial(
        &self,
        target: &LoopTarget,
        structure: &LoopStructure,
        scratch: &mut ScoreScratch,
        burial_radius: f64,
    ) -> f64 {
        debug_assert!(
            self.cutoff <= lms_protein::ENV_CONTACT_MARGIN
                && burial_radius <= lms_protein::ENV_CONTACT_MARGIN,
            "query radii (VDW {}, burial {}) exceed the environment candidate margin {}",
            self.cutoff,
            burial_radius,
            lms_protein::ENV_CONTACT_MARGIN
        );
        self.fill_sites(target, structure, scratch);
        let intra = self.intra_loop(scratch, structure.n_residues());
        let inter = self.against_environment_windows(
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

/// Slack (Å) added to each per-residue window radius so floating-point
/// rounding in the `|site − Cα| + reach` covering bound can never exclude a
/// contributing candidate.  Orders of magnitude above the few-ulp rounding
/// error of the bound at protein scales, and harmless when over-generous:
/// extra candidates are removed by the exact d²/σ² filter and the exact
/// burial distance filter, so the scores stay bit-identical.
const WINDOW_SLACK: f64 = 1e-9;

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
    fn per_residue_windows_match_per_site_gathers_and_linear() {
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
                let windows = s.environment_term(&target, &structure, &mut scratch);
                let per_site = s.environment_term_per_site(&target, &structure, &mut scratch);
                let linear = s.environment_term_linear(&target, &structure, &mut scratch);
                assert_eq!(windows.to_bits(), per_site.to_bits(), "{name}: per-site");
                assert_eq!(windows.to_bits(), linear.to_bits(), "{name}: linear");
            }
        }
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
