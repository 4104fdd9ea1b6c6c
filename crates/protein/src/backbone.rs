//! Backbone construction from torsion angles.
//!
//! The paper keeps ω at 180° and all bond lengths/angles at their ideal
//! values, so a loop conformation is fully determined by its `(φ, ψ)`
//! torsion vector plus the fixed N-terminal anchor.  [`LoopBuilder::build`]
//! turns such a vector into Cartesian backbone atoms (N, Cα, C', O and a
//! side-chain centroid pseudo-atom per residue) with the NeRF rule, and also
//! places the *moving* copies of the C-terminal anchor atoms that the CCD
//! closure algorithm tries to align with their fixed targets.
//!
//! ## The prefix-reuse invariant
//!
//! NeRF is a strict left-to-right recurrence: the atoms of residue `i`
//! depend only on torsions with flat index `≤ 2i + 1` (φᵢ places C'ᵢ and the
//! centroid, ψᵢ places only Oᵢ and everything from residue `i + 1` onward).
//! Consequently a structure built from one torsion vector remains *bit-exact*
//! for every residue strictly before the residue owning the first changed
//! flat index.  [`LoopBuilder::rebuild_from`] exploits this: it keeps the
//! untouched prefix in the caller's buffer and re-runs the identical
//! placement code only from the changed residue onward, which makes a
//! rebuild after an edit O(suffix) instead of O(loop) without altering a
//! single output bit.  A CCD closure uses the same invariant twice: it
//! starts from [`LoopBuilder::rebuild_spine_from`], which keeps the prefix
//! the member already built, re-places the rest of the prefix in full and
//! only the spine and end frame from the first adjustable residue on (its
//! sweeps move the spine rigidly), and it ends with one `rebuild_from` of
//! that suffix.  All three entry points funnel through one private
//! placement loop over the same `place_residue`/`place_spine`/
//! `place_end_frame` helpers, so the equivalence is structural, not
//! coincidental (and is property-tested in `tests/incremental_rebuild.rs`).
//!
//! Every placement goes through [`lms_geometry::place_atom_with`] with the
//! fixed bonds' `len·cos θ` / `len·sin θ` and the `sin_cos` of ω and of the
//! Cβ improper evaluated once per builder, so only the varying φ/ψ
//! dihedrals pay for trigonometry; the coordinates are bit-identical to
//! [`lms_geometry::place_atom`]'s.

use crate::amino::AminoAcid;
use crate::torsions::Torsions;
use lms_geometry::{deg_to_rad, dihedral_angle, place_atom_with, NerfBond, Vec3};
use std::f64::consts::PI;

/// Ideal backbone covalent geometry (Engh–Huber-like values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackboneGeometry {
    /// N–Cα bond length (Å).
    pub len_n_ca: f64,
    /// Cα–C' bond length (Å).
    pub len_ca_c: f64,
    /// C'–N peptide bond length (Å).
    pub len_c_n: f64,
    /// C'=O bond length (Å).
    pub len_c_o: f64,
    /// N–Cα–C' bond angle (radians).
    pub ang_n_ca_c: f64,
    /// Cα–C'–N bond angle (radians).
    pub ang_ca_c_n: f64,
    /// C'–N–Cα bond angle (radians).
    pub ang_c_n_ca: f64,
    /// Cα–C'=O bond angle (radians).
    pub ang_ca_c_o: f64,
    /// Cα–Cβ(centroid direction) bond angle C'–Cα–Cβ (radians).
    pub ang_c_ca_cb: f64,
    /// Improper dihedral N–C'–Cα–Cβ (radians) fixing Cβ chirality.
    pub dih_n_c_ca_cb: f64,
    /// The ω torsion (radians); kept at 180° as in the paper.
    pub omega: f64,
}

impl Default for BackboneGeometry {
    fn default() -> Self {
        BackboneGeometry {
            len_n_ca: 1.458,
            len_ca_c: 1.525,
            len_c_n: 1.329,
            len_c_o: 1.231,
            ang_n_ca_c: deg_to_rad(111.2),
            ang_ca_c_n: deg_to_rad(116.2),
            ang_c_n_ca: deg_to_rad(121.7),
            ang_ca_c_o: deg_to_rad(120.8),
            ang_c_ca_cb: deg_to_rad(110.1),
            dih_n_c_ca_cb: deg_to_rad(-122.6),
            omega: PI,
        }
    }
}

/// The three backbone atoms of an anchor residue (N, Cα, C'), in the fixed
/// protein frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorFrame {
    /// Backbone nitrogen.
    pub n: Vec3,
    /// Alpha carbon.
    pub ca: Vec3,
    /// Carbonyl carbon.
    pub c: Vec3,
}

impl AnchorFrame {
    /// Construct from the three atom positions.
    pub fn new(n: Vec3, ca: Vec3, c: Vec3) -> Self {
        AnchorFrame { n, ca, c }
    }

    /// The three positions in N, Cα, C' order.
    pub fn atoms(&self) -> [Vec3; 3] {
        [self.n, self.ca, self.c]
    }

    /// Root-mean-square distance to another frame, atom by atom — the loop
    /// closure deviation metric.
    pub fn rms_distance(&self, other: &AnchorFrame) -> f64 {
        let s = self.n.distance_sq(other.n)
            + self.ca.distance_sq(other.ca)
            + self.c.distance_sq(other.c);
        (s / 3.0).sqrt()
    }
}

/// Backbone atoms of one built loop residue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidueAtoms {
    /// Backbone nitrogen.
    pub n: Vec3,
    /// Alpha carbon.
    pub ca: Vec3,
    /// Carbonyl carbon.
    pub c: Vec3,
    /// Carbonyl oxygen.
    pub o: Vec3,
    /// Side-chain centroid pseudo-atom (absent for glycine).
    pub centroid: Option<Vec3>,
}

impl ResidueAtoms {
    /// The four backbone heavy atoms in N, Cα, C', O order.
    pub fn backbone(&self) -> [Vec3; 4] {
        [self.n, self.ca, self.c, self.o]
    }
}

/// The fill of a residue slot before its first placement.
const UNPLACED: ResidueAtoms = ResidueAtoms {
    n: Vec3::ZERO,
    ca: Vec3::ZERO,
    c: Vec3::ZERO,
    o: Vec3::ZERO,
    centroid: None,
};

/// A fully built loop conformation in Cartesian space.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStructure {
    /// Built residues in N-to-C order.
    pub residues: Vec<ResidueAtoms>,
    /// Moving copy of the C-anchor residue's backbone (N, Cα, C'); closure
    /// means this frame coincides with the fixed C-anchor.
    pub end_frame: AnchorFrame,
}

impl LoopStructure {
    /// An empty structure whose residue buffer has capacity for `n_residues`
    /// residues; intended as the reusable target of
    /// [`LoopBuilder::build_into`] so steady-state rebuilds never allocate.
    pub fn with_capacity(n_residues: usize) -> Self {
        LoopStructure {
            residues: Vec::with_capacity(n_residues),
            end_frame: AnchorFrame::new(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO),
        }
    }

    /// A structure of `n_residues` residues, none placed yet (every atom
    /// at the origin): the buffer a closure prepared with
    /// [`LoopBuilder::rebuild_spine_from`] from no built residue fills.
    pub fn unplaced(n_residues: usize) -> Self {
        LoopStructure {
            residues: vec![UNPLACED; n_residues],
            end_frame: AnchorFrame::new(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO),
        }
    }

    /// Number of loop residues.
    pub fn n_residues(&self) -> usize {
        self.residues.len()
    }

    /// All backbone heavy atoms (N, Cα, C', O per residue), in order.  This
    /// is the atom set used for RMSD-to-native in the paper's tables.
    pub fn backbone_atoms(&self) -> Vec<Vec3> {
        let mut out = Vec::with_capacity(self.residues.len() * 4);
        for r in &self.residues {
            out.extend_from_slice(&r.backbone());
        }
        out
    }

    /// Cα trace only.
    pub fn ca_atoms(&self) -> Vec<Vec3> {
        self.residues.iter().map(|r| r.ca).collect()
    }

    /// Side-chain centroid pseudo-atoms (skipping glycine residues).
    pub fn centroids(&self) -> Vec<Vec3> {
        self.residues.iter().filter_map(|r| r.centroid).collect()
    }
}

/// Builds loop structures from torsion vectors, always with the ideal
/// [`BackboneGeometry::default`] covalent geometry.
#[derive(Debug, Clone, Copy)]
pub struct LoopBuilder {
    nerf: NerfConstants,
}

impl Default for LoopBuilder {
    fn default() -> Self {
        LoopBuilder {
            nerf: NerfConstants::new(&BackboneGeometry::default()),
        }
    }
}

/// The fixed-geometry trigonometry of every NeRF placement the builder
/// makes, evaluated once per builder: only the φ/ψ dihedrals vary from
/// atom to atom.
#[derive(Debug, Clone, Copy)]
struct NerfConstants {
    /// C'ᵢ₋₁–Nᵢ at angle Cα–C'–N.
    c_n: NerfBond,
    /// N–Cα at angle C'–N–Cα.
    n_ca: NerfBond,
    /// Cα–C' at angle N–Cα–C'.
    ca_c: NerfBond,
    /// C'=O at angle Cα–C'=O.
    c_o: NerfBond,
    /// Unit Cβ direction at angle C'–Cα–Cβ.
    cb: NerfBond,
    /// `(sin, cos)` of ω.
    omega: (f64, f64),
    /// `(sin, cos)` of the Cβ improper dihedral.
    cb_improper: (f64, f64),
}

impl NerfConstants {
    fn new(g: &BackboneGeometry) -> Self {
        NerfConstants {
            c_n: NerfBond::new(g.len_c_n, g.ang_ca_c_n),
            n_ca: NerfBond::new(g.len_n_ca, g.ang_c_n_ca),
            ca_c: NerfBond::new(g.len_ca_c, g.ang_n_ca_c),
            c_o: NerfBond::new(g.len_c_o, g.ang_ca_c_o),
            cb: NerfBond::new(1.0, g.ang_c_ca_cb),
            omega: g.omega.sin_cos(),
            cb_improper: g.dih_n_c_ca_cb.sin_cos(),
        }
    }
}

/// Everything that stays fixed while a loop's torsions vary: the anchors
/// and the anchor-residue torsions that connect the loop to the rest of the
/// protein.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopFrame {
    /// Backbone frame of the residue immediately before the loop.
    pub n_anchor: AnchorFrame,
    /// ψ of the N-anchor residue (fixed at its native value).
    pub n_anchor_psi: f64,
    /// Fixed target backbone frame of the residue immediately after the
    /// loop (the closure target).
    pub c_anchor: AnchorFrame,
    /// φ of the C-anchor residue (fixed at its native value); needed to
    /// place the moving copy of the C-anchor C' atom.
    pub c_anchor_phi: f64,
}

impl LoopBuilder {
    /// Build the Cartesian structure of a loop from its torsion vector.
    ///
    /// # Panics
    /// Panics if `torsions.n_residues() != sequence.len()`.
    pub fn build(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &Torsions,
    ) -> LoopStructure {
        let mut out = LoopStructure::with_capacity(sequence.len());
        self.build_into(frame, sequence, torsions, &mut out);
        out
    }

    /// Rebuild a loop structure *in place*: identical to [`LoopBuilder::build`]
    /// but writing into a caller-owned [`LoopStructure`], reusing its residue
    /// buffer.  After the first call on a given buffer, rebuilding performs no
    /// heap allocation — this is the primitive the zero-allocation scoring
    /// pipeline and CCD closure are built on.
    ///
    /// # Panics
    /// Panics if `torsions.n_residues() != sequence.len()`.
    pub fn build_into(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &Torsions,
        out: &mut LoopStructure,
    ) {
        assert_eq!(
            torsions.n_residues(),
            sequence.len(),
            "torsion vector and sequence must have the same number of residues"
        );
        out.residues.clear();
        out.residues.resize(sequence.len(), UNPLACED);
        self.place_range(frame, sequence, torsions, 0, sequence.len(), out);
    }

    /// Rebuild only the *suffix* of a previously built structure after a
    /// single-torsion edit: the residues strictly before the residue owning
    /// `changed_angle` are left untouched (they are invariant under any
    /// rotation at or after that flat index — see the module docs), and the
    /// placement recurrence is re-run from the changed residue through the
    /// end frame.  The result is **bit-identical** to a full
    /// [`LoopBuilder::build_into`] of `torsions`: the suffix runs the same
    /// helper code on the same inputs, and the prefix is the same bits it
    /// would recompute.
    ///
    /// # Contract
    /// `out` must hold a structure previously built (by `build_into` or an
    /// earlier `rebuild_from`) from a torsion vector that agrees with
    /// `torsions` on every flat index `< changed_angle`.  A
    /// `changed_angle ≥ torsions.n_angles()` means nothing changed and the
    /// call is a no-op.  This is exactly the state a NeRF-per-rotation CCD
    /// sweep maintains when it visits torsions in ascending order and
    /// rebuilds after each accepted rotation.
    ///
    /// # Panics
    /// Panics if `torsions`, `sequence` and `out` disagree on residue count.
    pub fn rebuild_from(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &Torsions,
        changed_angle: usize,
        out: &mut LoopStructure,
    ) {
        Self::assert_rebuildable(sequence, torsions, out);
        if changed_angle >= torsions.n_angles() {
            return;
        }
        let (first, _) = Torsions::describe_angle(changed_angle);
        self.place_range(frame, sequence, torsions, first, sequence.len(), out);
    }

    /// Bring a structure up to date for `torsions` as far as a closure
    /// sweep from `changed_angle` needs it: residues `[min(built, first),
    /// first)` are re-placed in full, where `first` is the residue owning
    /// `changed_angle` (the loop length when it is past the last torsion),
    /// and from `first` on only the *backbone spine* (N, Cα, C') and the
    /// end frame are placed, leaving every later residue's O atom and
    /// side-chain centroid **stale**.
    ///
    /// The NeRF recurrence consumes only the spine: O and centroid hang off
    /// a residue's own N/Cα/C' and never feed a later placement.  A closure
    /// sweep that only needs rotation pivots/axes (spine atoms) and the
    /// moving end frame can therefore skip ~2/5 of every suffix placement
    /// and recover the full structure with one [`LoopBuilder::rebuild_from`]
    /// at `changed_angle` at the end.  The staged sampler prepares each
    /// closure this way from the member's earlier build (`built` = the
    /// number of its leading residues that are already exact); the
    /// NeRF-per-rotation CCD oracle passes `built = n` after each rotation.
    /// Every coordinate it places is bit-identical to
    /// [`LoopBuilder::build_into`]'s (the placement calls are the same code
    /// on the same inputs).
    ///
    /// # Contract
    /// The first `built` residues of `out` must be the exact build of a
    /// torsion vector that agrees with `torsions` on every flat index
    /// below `changed_angle`.  Afterwards residues below `first` are exact
    /// and the spine and end frame are exact everywhere; the O/centroid
    /// fields from `first` on are unspecified until a full rebuild.
    ///
    /// # Panics
    /// Panics if `torsions`, `sequence` and `out` disagree on residue count.
    pub fn rebuild_spine_from(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &Torsions,
        built: usize,
        changed_angle: usize,
        out: &mut LoopStructure,
    ) {
        Self::assert_rebuildable(sequence, torsions, out);
        let first = Torsions::describe_angle(changed_angle.min(torsions.n_angles())).0;
        self.place_range(frame, sequence, torsions, built.min(first), first, out);
    }

    fn assert_rebuildable(sequence: &[AminoAcid], torsions: &Torsions, out: &LoopStructure) {
        assert_eq!(
            torsions.n_residues(),
            sequence.len(),
            "torsion vector and sequence must have the same number of residues"
        );
        assert_eq!(
            out.n_residues(),
            sequence.len(),
            "a partial rebuild requires a structure previously built for this loop"
        );
    }

    /// The one placement loop every build runs: residues `[full_from,
    /// spine_from)` in full, the spine of every residue from `spine_from`
    /// on, then the end frame, starting from the placement context entering
    /// residue `full_from` — the fixed anchor for residue 0, otherwise the
    /// (exact) spine of residue `full_from - 1`.
    fn place_range(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &Torsions,
        full_from: usize,
        spine_from: usize,
        out: &mut LoopStructure,
    ) {
        debug_assert!(full_from <= spine_from && spine_from <= sequence.len());
        let (mut prev_n, mut prev_ca, mut prev_c, mut prev_psi) = if full_from == 0 {
            (
                frame.n_anchor.n,
                frame.n_anchor.ca,
                frame.n_anchor.c,
                frame.n_anchor_psi,
            )
        } else {
            let p = &out.residues[full_from - 1];
            (p.n, p.ca, p.c, torsions.psi(full_from - 1))
        };

        #[allow(clippy::needless_range_loop)] // indexes sequence and torsions together
        for i in full_from..spine_from {
            let r = self.place_residue(
                prev_n,
                prev_ca,
                prev_c,
                prev_psi,
                sequence[i],
                torsions.phi(i),
                torsions.psi(i),
            );
            out.residues[i] = r;
            prev_n = r.n;
            prev_ca = r.ca;
            prev_c = r.c;
            prev_psi = torsions.psi(i);
        }
        for i in spine_from..sequence.len() {
            let (n, ca, c) = self.place_spine(prev_n, prev_ca, prev_c, prev_psi, torsions.phi(i));
            let r = &mut out.residues[i];
            r.n = n;
            r.ca = ca;
            r.c = c;
            prev_n = n;
            prev_ca = ca;
            prev_c = c;
            prev_psi = torsions.psi(i);
        }

        out.end_frame = self.place_end_frame(prev_n, prev_ca, prev_c, prev_psi, frame.c_anchor_phi);
    }

    /// Place one residue's N, Cα and C' by the NeRF recurrence — the part of
    /// [`LoopBuilder::place_residue`] that feeds the next residue.
    #[inline]
    fn place_spine(
        &self,
        prev_n: Vec3,
        prev_ca: Vec3,
        prev_c: Vec3,
        prev_psi: f64,
        phi: f64,
    ) -> (Vec3, Vec3, Vec3) {
        let k = &self.nerf;
        // N_i: extends the previous residue's C' along its psi.
        let n = place_atom_with(prev_n, prev_ca, prev_c, k.c_n, prev_psi.sin_cos());
        // CA_i: the omega torsion (fixed trans).
        let ca = place_atom_with(prev_ca, prev_c, n, k.n_ca, k.omega);
        // C'_i: this residue's phi.
        let c = place_atom_with(prev_c, n, ca, k.ca_c, phi.sin_cos());
        (n, ca, c)
    }

    /// Place one residue's atoms by the NeRF recurrence, given the previous
    /// residue's backbone and ψ.  The single placement routine both
    /// [`LoopBuilder::build_into`] and [`LoopBuilder::rebuild_from`] run, so
    /// the two are bit-identical by construction.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the NeRF recurrence context is 4 values + 3 angles
    fn place_residue(
        &self,
        prev_n: Vec3,
        prev_ca: Vec3,
        prev_c: Vec3,
        prev_psi: f64,
        aa: AminoAcid,
        phi: f64,
        psi: f64,
    ) -> ResidueAtoms {
        let k = &self.nerf;
        let (n, ca, c) = self.place_spine(prev_n, prev_ca, prev_c, prev_psi, phi);
        // O_i: anti-periplanar to the next N, i.e. psi + 180 deg.
        let o = place_atom_with(n, ca, c, k.c_o, (psi + PI).sin_cos());
        // Side-chain centroid along the Cβ direction (absent for Gly).  A
        // direction that does not normalize (a non-finite torsion upstream)
        // places a NaN centroid, so the poison reaches the sampler's
        // numerical health sweep instead of panicking here.
        let centroid = if aa.is_glycine() {
            None
        } else {
            let cb_dir = place_atom_with(n, c, ca, k.cb, k.cb_improper) - ca;
            Some(match cb_dir.try_normalize() {
                Some(unit) => ca + unit * aa.centroid_distance(),
                None => Vec3::splat(f64::NAN),
            })
        };
        ResidueAtoms {
            n,
            ca,
            c,
            o,
            centroid,
        }
    }

    /// Place the moving copies of the C-anchor backbone: N from the last
    /// residue's ψ, Cα from ω, C' from the (fixed) φ of the anchor residue.
    #[inline]
    fn place_end_frame(
        &self,
        prev_n: Vec3,
        prev_ca: Vec3,
        prev_c: Vec3,
        prev_psi: f64,
        c_anchor_phi: f64,
    ) -> AnchorFrame {
        let k = &self.nerf;
        let end_n = place_atom_with(prev_n, prev_ca, prev_c, k.c_n, prev_psi.sin_cos());
        let end_ca = place_atom_with(prev_ca, prev_c, end_n, k.n_ca, k.omega);
        let end_c = place_atom_with(prev_c, end_n, end_ca, k.ca_c, c_anchor_phi.sin_cos());
        AnchorFrame::new(end_n, end_ca, end_c)
    }

    /// Measure the `(φ, ψ)` torsions realised by a built structure.  Used in
    /// tests to verify build/measure round-trips and by the decoy analysis.
    pub fn measure_torsions(&self, frame: &LoopFrame, structure: &LoopStructure) -> Torsions {
        let n_res = structure.n_residues();
        let mut t = Torsions::zeros(n_res);
        for i in 0..n_res {
            let prev_c = if i == 0 {
                frame.n_anchor.c
            } else {
                structure.residues[i - 1].c
            };
            let r = &structure.residues[i];
            let next_n = if i + 1 < n_res {
                structure.residues[i + 1].n
            } else {
                structure.end_frame.n
            };
            t.set_phi(i, dihedral_angle(prev_c, r.n, r.ca, r.c));
            t.set_psi(i, dihedral_angle(r.n, r.ca, r.c, next_n));
        }
        t
    }

    /// Closure deviation of a built structure: RMS distance between the
    /// moving end frame and the fixed C-anchor target.
    pub fn closure_deviation(&self, frame: &LoopFrame, structure: &LoopStructure) -> f64 {
        structure.end_frame.rms_distance(&frame.c_anchor)
    }
}

/// Build an arbitrary-length backbone segment *de novo* (no pre-existing
/// anchor), returning the built residues.  The first residue is placed in a
/// canonical frame at the origin.  Used by the synthetic benchmark generator
/// to create host proteins from scratch.
pub fn build_segment_de_novo(
    builder: &LoopBuilder,
    sequence: &[AminoAcid],
    torsions: &Torsions,
) -> LoopStructure {
    let g = BackboneGeometry::default();
    // Canonical anchor frame: a virtual residue placed so that the first
    // real residue starts near the origin in a standard orientation.
    let n = Vec3::new(-g.len_c_n - g.len_n_ca, 0.8, 0.0);
    let ca = Vec3::new(-g.len_c_n - 0.4, 0.0, 0.0);
    let c = Vec3::new(-g.len_c_n, 0.0, 0.0) + Vec3::new(0.35, 0.2, 0.0);
    let frame = LoopFrame {
        n_anchor: AnchorFrame::new(n, ca, c),
        n_anchor_psi: deg_to_rad(140.0),
        c_anchor: AnchorFrame::new(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO),
        c_anchor_phi: deg_to_rad(-70.0),
    };
    builder.build(&frame, sequence, torsions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::{bond_angle, rad_to_deg, wrap_rad};

    fn test_sequence(n: usize) -> Vec<AminoAcid> {
        (0..n)
            .map(|i| AminoAcid::from_index((i * 7 + 3) % 20))
            .collect()
    }

    fn test_frame() -> LoopFrame {
        // A plausible anchor frame: one residue's backbone laid out with
        // roughly ideal internal geometry.
        let n = Vec3::new(0.0, 0.0, 0.0);
        let ca = Vec3::new(1.458, 0.0, 0.0);
        let c = Vec3::new(2.0, 1.4, 0.0);
        let target = AnchorFrame::new(
            Vec3::new(8.0, 3.0, 2.0),
            Vec3::new(9.2, 3.5, 2.5),
            Vec3::new(10.4, 2.8, 3.2),
        );
        LoopFrame {
            n_anchor: AnchorFrame::new(n, ca, c),
            n_anchor_psi: deg_to_rad(135.0),
            c_anchor: target,
            c_anchor_phi: deg_to_rad(-65.0),
        }
    }

    fn alpha_torsions(n: usize) -> Torsions {
        Torsions::from_pairs(&vec![(deg_to_rad(-63.0), deg_to_rad(-43.0)); n])
    }

    #[test]
    fn build_produces_expected_atom_counts() {
        let builder = LoopBuilder::default();
        let seq = test_sequence(8);
        let s = builder.build(&test_frame(), &seq, &alpha_torsions(8));
        assert_eq!(s.n_residues(), 8);
        assert_eq!(s.backbone_atoms().len(), 32);
        assert_eq!(s.ca_atoms().len(), 8);
        // No glycine in this sequence slice -> every residue has a centroid.
        let n_gly = seq.iter().filter(|a| a.is_glycine()).count();
        assert_eq!(s.centroids().len(), 8 - n_gly);
    }

    #[test]
    fn built_bond_lengths_match_ideal_geometry() {
        let builder = LoopBuilder::default();
        let g = BackboneGeometry::default();
        let seq = test_sequence(6);
        let s = builder.build(&test_frame(), &seq, &alpha_torsions(6));
        for (i, r) in s.residues.iter().enumerate() {
            assert!(
                (r.n.distance(r.ca) - g.len_n_ca).abs() < 1e-9,
                "N-CA at {i}"
            );
            assert!(
                (r.ca.distance(r.c) - g.len_ca_c).abs() < 1e-9,
                "CA-C at {i}"
            );
            assert!((r.c.distance(r.o) - g.len_c_o).abs() < 1e-9, "C-O at {i}");
            if i > 0 {
                let prev = &s.residues[i - 1];
                assert!(
                    (prev.c.distance(r.n) - g.len_c_n).abs() < 1e-9,
                    "C-N at {i}"
                );
            }
        }
        // Peptide bond to the moving end frame.
        let last = s.residues.last().unwrap();
        assert!((last.c.distance(s.end_frame.n) - g.len_c_n).abs() < 1e-9);
    }

    #[test]
    fn built_bond_angles_match_ideal_geometry() {
        let builder = LoopBuilder::default();
        let g = BackboneGeometry::default();
        let seq = test_sequence(5);
        let s = builder.build(&test_frame(), &seq, &alpha_torsions(5));
        for r in &s.residues {
            assert!((bond_angle(r.n, r.ca, r.c) - g.ang_n_ca_c).abs() < 1e-9);
            assert!((bond_angle(r.ca, r.c, r.o) - g.ang_ca_c_o).abs() < 1e-9);
        }
    }

    #[test]
    fn torsion_build_measure_roundtrip() {
        let builder = LoopBuilder::default();
        let seq = test_sequence(10);
        let mut torsions = Torsions::zeros(10);
        // A mix of basins to exercise the full torsion range.
        let pairs = [
            (-63.0, -43.0),
            (-120.0, 135.0),
            (57.0, 45.0),
            (-75.0, 150.0),
            (-100.0, 10.0),
            (-63.0, -40.0),
            (80.0, 5.0),
            (-140.0, 160.0),
            (-60.0, -45.0),
            (-90.0, 120.0),
        ];
        for (i, &(phi, psi)) in pairs.iter().enumerate() {
            torsions.set_phi(i, deg_to_rad(phi));
            torsions.set_psi(i, deg_to_rad(psi));
        }
        let frame = test_frame();
        let s = builder.build(&frame, &seq, &torsions);
        let measured = builder.measure_torsions(&frame, &s);
        #[allow(clippy::needless_range_loop)] // indexes measured, torsions and pairs together
        for i in 0..10 {
            let dphi = wrap_rad(measured.phi(i) - torsions.phi(i)).abs();
            let dpsi = wrap_rad(measured.psi(i) - torsions.psi(i)).abs();
            assert!(
                dphi < 1e-8,
                "phi {i}: {} vs {}",
                rad_to_deg(measured.phi(i)),
                pairs[i].0
            );
            assert!(
                dpsi < 1e-8,
                "psi {i}: {} vs {}",
                rad_to_deg(measured.psi(i)),
                pairs[i].1
            );
        }
    }

    #[test]
    fn identical_torsions_give_identical_structures() {
        let builder = LoopBuilder::default();
        let seq = test_sequence(7);
        let t = alpha_torsions(7);
        let a = builder.build(&test_frame(), &seq, &t);
        let b = builder.build(&test_frame(), &seq, &t);
        assert_eq!(a, b);
    }

    #[test]
    fn changing_one_torsion_moves_downstream_atoms_only() {
        let builder = LoopBuilder::default();
        let seq = test_sequence(8);
        let frame = test_frame();
        let t0 = alpha_torsions(8);
        let mut t1 = t0.clone();
        t1.set_phi(4, deg_to_rad(100.0));
        let a = builder.build(&frame, &seq, &t0);
        let b = builder.build(&frame, &seq, &t1);
        // Residues 0..4 N/CA identical; the C of residue 4 and beyond move.
        for i in 0..4 {
            assert!(a.residues[i].n.max_abs_diff(b.residues[i].n) < 1e-12);
            assert!(a.residues[i].c.max_abs_diff(b.residues[i].c) < 1e-12);
        }
        assert!(a.residues[4].n.max_abs_diff(b.residues[4].n) < 1e-12);
        assert!(a.residues[4].ca.max_abs_diff(b.residues[4].ca) < 1e-12);
        assert!(a.residues[4].c.max_abs_diff(b.residues[4].c) > 1e-3);
        assert!(a.residues[7].ca.max_abs_diff(b.residues[7].ca) > 1e-3);
        assert!(a.end_frame.n.max_abs_diff(b.end_frame.n) > 1e-3);
    }

    #[test]
    fn glycine_has_no_centroid() {
        let builder = LoopBuilder::default();
        let seq = vec![AminoAcid::Gly, AminoAcid::Ala, AminoAcid::Gly];
        let s = builder.build(&test_frame(), &seq, &alpha_torsions(3));
        assert!(s.residues[0].centroid.is_none());
        assert!(s.residues[1].centroid.is_some());
        assert!(s.residues[2].centroid.is_none());
    }

    #[test]
    fn centroid_distance_respects_residue_type() {
        let builder = LoopBuilder::default();
        let seq = vec![AminoAcid::Ala, AminoAcid::Trp];
        let s = builder.build(&test_frame(), &seq, &alpha_torsions(2));
        let d_ala = s.residues[0].centroid.unwrap().distance(s.residues[0].ca);
        let d_trp = s.residues[1].centroid.unwrap().distance(s.residues[1].ca);
        assert!((d_ala - AminoAcid::Ala.centroid_distance()).abs() < 1e-9);
        assert!((d_trp - AminoAcid::Trp.centroid_distance()).abs() < 1e-9);
        assert!(d_trp > d_ala);
    }

    #[test]
    #[should_panic]
    fn mismatched_sequence_and_torsions_panic() {
        let builder = LoopBuilder::default();
        let seq = test_sequence(4);
        let _ = builder.build(&test_frame(), &seq, &alpha_torsions(5));
    }

    #[test]
    fn closure_deviation_is_distance_to_target() {
        let builder = LoopBuilder::default();
        let frame = test_frame();
        let seq = test_sequence(6);
        let s = builder.build(&frame, &seq, &alpha_torsions(6));
        let dev = builder.closure_deviation(&frame, &s);
        assert!(dev > 0.0);
        // Self-consistency with the AnchorFrame metric.
        assert!((dev - s.end_frame.rms_distance(&frame.c_anchor)).abs() < 1e-12);
    }

    #[test]
    fn de_novo_segment_has_valid_geometry() {
        let builder = LoopBuilder::default();
        let seq = test_sequence(12);
        let t = alpha_torsions(12);
        let s = build_segment_de_novo(&builder, &seq, &t);
        assert_eq!(s.n_residues(), 12);
        for atom in s.backbone_atoms() {
            assert!(atom.is_finite());
        }
        // Alpha-helical torsions give a compact segment: CA(i)-CA(i+3) < 7 A.
        let cas = s.ca_atoms();
        for i in 0..(cas.len() - 3) {
            assert!(cas[i].distance(cas[i + 3]) < 7.0);
        }
    }

    #[test]
    fn rebuild_from_matches_full_build_at_every_angle() {
        let builder = LoopBuilder::default();
        let frame = test_frame();
        let seq = test_sequence(9);
        let t0 = alpha_torsions(9);
        for k in 0..t0.n_angles() {
            let mut t1 = t0.clone();
            t1.set_angle(k, deg_to_rad(97.0) + 0.01 * k as f64);
            // Incremental: start from the t0 structure, edit angle k.
            let mut incremental = builder.build(&frame, &seq, &t0);
            builder.rebuild_from(&frame, &seq, &t1, k, &mut incremental);
            // Reference: full rebuild from scratch.
            let full = builder.build(&frame, &seq, &t1);
            assert_eq!(incremental, full, "suffix rebuild diverged at angle {k}");
        }
    }

    #[test]
    fn rebuild_from_chained_edits_stay_exact() {
        // A CCD-like ascending sweep of single-angle edits, each applied
        // with a suffix-only rebuild, must track the full rebuild exactly.
        let builder = LoopBuilder::default();
        let frame = test_frame();
        let seq = test_sequence(7);
        let mut t = alpha_torsions(7);
        let mut s = builder.build(&frame, &seq, &t);
        for sweep in 0..3 {
            for k in 0..t.n_angles() {
                t.rotate_angle(k, deg_to_rad(5.0 + sweep as f64 + k as f64));
                builder.rebuild_from(&frame, &seq, &t, k, &mut s);
                assert_eq!(s, builder.build(&frame, &seq, &t));
            }
        }
    }

    #[test]
    fn spine_rebuild_tracks_full_rebuild_on_spine_and_end_frame() {
        // A CCD-like chain of single-angle edits applied with spine-only
        // rebuilds must keep N/CA/C' and the end frame bit-identical to the
        // full incremental rebuild; a final full build recovers O/centroid.
        let builder = LoopBuilder::default();
        let frame = test_frame();
        let seq = test_sequence(8);
        let mut t = alpha_torsions(8);
        let mut spine = builder.build(&frame, &seq, &t);
        let mut full = spine.clone();
        for sweep in 0..2 {
            for k in 0..t.n_angles() {
                t.rotate_angle(k, deg_to_rad(4.0 + sweep as f64) * 0.5);
                builder.rebuild_spine_from(&frame, &seq, &t, seq.len(), k, &mut spine);
                builder.rebuild_from(&frame, &seq, &t, k, &mut full);
                for (a, b) in spine.residues.iter().zip(full.residues.iter()) {
                    assert_eq!(a.n, b.n);
                    assert_eq!(a.ca, b.ca);
                    assert_eq!(a.c, b.c);
                }
                assert_eq!(spine.end_frame, full.end_frame);
            }
        }
        // One full rebuild from the final torsions restores everything.
        builder.build_into(&frame, &seq, &t, &mut spine);
        assert_eq!(spine, full);
    }

    #[test]
    fn spine_rebuild_reuses_exactly_the_built_prefix() {
        // A member's structure is exact on its first `built` residues and
        // stale after them (a different candidate's build).  Preparing a
        // candidate that differs from the member from `start` on must give
        // the candidate's full build below the start residue and its exact
        // spine and end frame everywhere, for every `built` and every
        // start, including starts at and past the last torsion.
        let builder = LoopBuilder::default();
        let frame = test_frame();
        let n = 6;
        let seq = test_sequence(n);
        let member = alpha_torsions(n);
        let mut stale_torsions = member.clone();
        for k in 0..stale_torsions.n_angles() {
            stale_torsions.rotate_angle(k, deg_to_rad(17.0 + k as f64));
        }
        let stale = builder.build(&frame, &seq, &stale_torsions);
        let exact_member = builder.build(&frame, &seq, &member);
        for start in 0..=member.n_angles() + 2 {
            let mut cand = member.clone();
            for k in start..cand.n_angles() {
                cand.rotate_angle(k, deg_to_rad(-9.0));
            }
            let full = builder.build(&frame, &seq, &cand);
            let first = (start / 2).min(n);
            for built in 0..=n {
                let mut s = stale.clone();
                s.residues[..built].copy_from_slice(&exact_member.residues[..built]);
                builder.rebuild_spine_from(&frame, &seq, &cand, built, start, &mut s);
                assert_eq!(
                    s.residues[..first],
                    full.residues[..first],
                    "{start}/{built}"
                );
                for (a, b) in s.residues.iter().zip(&full.residues) {
                    assert_eq!((a.n, a.ca, a.c), (b.n, b.ca, b.c), "{start}/{built}");
                }
                assert_eq!(s.end_frame, full.end_frame, "{start}/{built}");
                // The closing suffix build recovers everything.
                builder.rebuild_from(&frame, &seq, &cand, start, &mut s);
                assert_eq!(s, full, "{start}/{built}");
            }
        }
    }

    #[test]
    fn rebuild_from_past_the_end_is_a_noop() {
        let builder = LoopBuilder::default();
        let frame = test_frame();
        let seq = test_sequence(4);
        let t = alpha_torsions(4);
        let mut s = builder.build(&frame, &seq, &t);
        let reference = s.clone();
        builder.rebuild_from(&frame, &seq, &t, t.n_angles(), &mut s);
        builder.rebuild_from(&frame, &seq, &t, t.n_angles() + 5, &mut s);
        assert_eq!(s, reference);
    }

    #[test]
    #[should_panic]
    fn rebuild_from_rejects_unbuilt_structure() {
        let builder = LoopBuilder::default();
        let frame = test_frame();
        let seq = test_sequence(5);
        let t = alpha_torsions(5);
        let mut empty = LoopStructure::with_capacity(5);
        builder.rebuild_from(&frame, &seq, &t, 0, &mut empty);
    }

    #[test]
    fn anchor_frame_rms_distance() {
        let a = AnchorFrame::new(Vec3::ZERO, Vec3::X, Vec3::Y);
        let b = AnchorFrame::new(
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::X + Vec3::new(1.0, 0.0, 0.0),
            Vec3::Y + Vec3::new(1.0, 0.0, 0.0),
        );
        assert!((a.rms_distance(&b) - 1.0).abs() < 1e-12);
        assert_eq!(a.rms_distance(&a), 0.0);
    }
}
