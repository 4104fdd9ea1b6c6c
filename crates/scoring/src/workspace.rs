//! Caller-owned scratch buffers for the zero-allocation scoring pipeline.
//!
//! Every scoring function can be evaluated through
//! [`ScoringFunction::score_with`](crate::traits::ScoringFunction::score_with),
//! which stages its intermediate data in a [`ScoreScratch`] instead of
//! allocating per call.  The buffers are laid out structure-of-arrays
//! (split x/y/z coordinate arrays plus parallel radius/kind arrays) so the
//! contact loops are branch-light and auto-vectorizable — the same data
//! layout a batched GPU evaluator would use.
//!
//! **Invariant:** after one warm-up evaluation on a given loop length, no
//! `score_with` call allocates.  `clear()` + `push` on retained `Vec`s is
//! the only buffer discipline used, and every capacity is a function of the
//! loop length, which is fixed per target.  The environment is read in
//! place: each site borrows its precomputed candidate list from the
//! per-target cache, so no buffer here scales with the environment.

use lms_protein::RamaClass;

/// Reusable scratch space shared by the VDW, DIST and TRIPLET kernels.
///
/// One `ScoreScratch` per concurrent evaluator (e.g. per population member)
/// suffices; the buffers grow to the high-water mark of the loop being
/// scored and are reused verbatim afterwards.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    /// VDW interaction-site x coordinates (backbone atoms + centroids).
    pub(crate) site_x: Vec<f64>,
    /// VDW interaction-site y coordinates.
    pub(crate) site_y: Vec<f64>,
    /// VDW interaction-site z coordinates.
    pub(crate) site_z: Vec<f64>,
    /// VDW interaction-site soft-sphere radii.
    pub(crate) site_r: Vec<f64>,
    /// Residue index of each VDW site (for the covalent-neighbour skip).
    pub(crate) site_res: Vec<u32>,
    /// Whether each VDW site is a side-chain centroid pseudo-atom.
    pub(crate) site_centroid: Vec<bool>,
    /// Whether each VDW site is its residue's Cα — the probe point the
    /// shared environment pass computes BURIAL contact counts at.
    pub(crate) site_is_ca: Vec<bool>,
    /// DIST backbone-atom x coordinates (4 per residue: N, Cα, C', O).
    pub(crate) atom_x: Vec<f64>,
    /// DIST backbone-atom y coordinates.
    pub(crate) atom_y: Vec<f64>,
    /// DIST backbone-atom z coordinates.
    pub(crate) atom_z: Vec<f64>,
    /// TRIPLET per-residue Ramachandran classes.
    pub(crate) classes: Vec<RamaClass>,
    /// BURIAL per-residue environment contact counts.  Filled by the shared
    /// VDW/BURIAL environment pass (a Cα site's candidate list serves both
    /// objectives) or by the standalone BURIAL kernel.
    pub(crate) burial_counts: Vec<u32>,
    /// Shared Cα–Cα squared-distance table (`n_residues × n_residues`,
    /// row-major, only `i < j` at separation ≥ 2 filled).  The VDW
    /// intra-loop pass records the squared distances it computes anyway for
    /// its Cα–Cα site pairs; the DIST kernel then reads its pair bounding
    /// check from the table instead of recomputing the Cα geometry — one
    /// staging of the Cα coordinates serves VDW, BURIAL and DIST.
    pub(crate) ca_d2: Vec<f64>,
    /// Whether `ca_d2` holds a freshly staged table for the structure under
    /// evaluation.  Set by the VDW intra-loop pass, *consumed* (reset) by
    /// the table-reading DIST kernel, so stage-order misuse — reading a
    /// table staged for a different structure — fails loudly instead of
    /// silently mis-skipping pairs.
    pub(crate) ca_d2_staged: bool,
}

impl ScoreScratch {
    /// Create an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        ScoreScratch::default()
    }

    /// Create a scratch pre-sized for a loop of `n_residues`, so even the
    /// first evaluation allocates nothing.
    pub fn for_loop_len(n_residues: usize) -> Self {
        ScoreScratch {
            site_x: Vec::with_capacity(5 * n_residues),
            site_y: Vec::with_capacity(5 * n_residues),
            site_z: Vec::with_capacity(5 * n_residues),
            site_r: Vec::with_capacity(5 * n_residues),
            site_res: Vec::with_capacity(5 * n_residues),
            site_centroid: Vec::with_capacity(5 * n_residues),
            site_is_ca: Vec::with_capacity(5 * n_residues),
            atom_x: Vec::with_capacity(4 * n_residues),
            atom_y: Vec::with_capacity(4 * n_residues),
            atom_z: Vec::with_capacity(4 * n_residues),
            classes: Vec::with_capacity(n_residues),
            burial_counts: Vec::with_capacity(n_residues),
            ca_d2: Vec::with_capacity(n_residues * n_residues),
            ca_d2_staged: false,
        }
    }

    /// The per-residue burial contact counts of the most recent evaluation
    /// that computed them (empty until a burial-enabled kernel has run).
    pub fn burial_counts(&self) -> &[u32] {
        &self.burial_counts
    }

    /// Drop buffered contents (capacity is retained).
    pub fn clear(&mut self) {
        self.site_x.clear();
        self.site_y.clear();
        self.site_z.clear();
        self.site_r.clear();
        self.site_res.clear();
        self.site_centroid.clear();
        self.site_is_ca.clear();
        self.atom_x.clear();
        self.atom_y.clear();
        self.atom_z.clear();
        self.classes.clear();
        self.burial_counts.clear();
        self.ca_d2.clear();
        self.ca_d2_staged = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presized_scratch_has_capacity() {
        let s = ScoreScratch::for_loop_len(12);
        assert!(s.site_x.capacity() >= 60);
        assert!(s.atom_x.capacity() >= 48);
        assert!(s.classes.capacity() >= 12);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut s = ScoreScratch::for_loop_len(8);
        s.site_x.extend_from_slice(&[1.0; 40]);
        let cap = s.site_x.capacity();
        s.clear();
        assert!(s.site_x.is_empty());
        assert_eq!(s.site_x.capacity(), cap);
    }
}
