//! Caller-owned scratch buffers for the zero-allocation scoring pipeline.
//!
//! Every pass of [`MultiScorer`](crate::MultiScorer) (and
//! [`MultiScorer::evaluate_with`](crate::MultiScorer::evaluate_with), which
//! runs them in order) stages its intermediate data in a [`ScoreScratch`]
//! instead of allocating per call.  The buffers are laid out
//! structure-of-arrays (split x/y/z coordinate arrays plus parallel
//! radius/kind arrays) so the contact loops are branch-light and
//! auto-vectorizable — the same data layout a batched GPU evaluator would
//! use.
//!
//! **Invariant:** after one warm-up evaluation on a given loop length, no
//! pass allocates.  `clear()` + `push` on retained `Vec`s is
//! the only buffer discipline used, and every capacity is a function of the
//! loop length, which is fixed per target.  The environment is read in
//! place: each site borrows its precomputed candidate list from the
//! per-target cache, so no buffer here scales with the environment.

use lms_protein::RamaClass;

/// Reusable scratch space for the VDW (with BURIAL) and TRIPLET passes
/// (DIST reads the backbone atoms in place and stages nothing).
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
    /// TRIPLET per-residue Ramachandran classes.
    pub(crate) classes: Vec<RamaClass>,
    /// BURIAL per-residue environment contact counts.  Filled by the shared
    /// VDW/BURIAL environment pass (a Cα site's candidate list serves both
    /// objectives).
    pub(crate) burial_counts: Vec<u32>,
    /// The environment pass's checkpoint row: entry `r` is the running
    /// loop-to-environment total over the sites of every residue before
    /// `r` (`n_residues + 1` entries, the last one the whole term).
    pub(crate) env_totals: Vec<f64>,
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
            classes: Vec::with_capacity(n_residues),
            burial_counts: Vec::with_capacity(n_residues),
            env_totals: Vec::with_capacity(n_residues + 1),
        }
    }

    /// The per-residue burial contact counts of the most recent VDW pass
    /// that counted them (empty until a pass with BURIAL enabled has run).
    pub fn burial_counts(&self) -> &[u32] {
        &self.burial_counts
    }

    /// The checkpoint row of the most recent environment pass: entry `r`
    /// is the running environment total before residue `r`'s sites, so a
    /// later pass over a conformation that agrees on residues `< r` can
    /// resume there ([`EnvResume`](crate::EnvResume)).
    pub fn env_totals(&self) -> &[f64] {
        &self.env_totals
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
        self.classes.clear();
        self.burial_counts.clear();
        self.env_totals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presized_scratch_has_capacity() {
        let s = ScoreScratch::for_loop_len(12);
        assert!(s.site_x.capacity() >= 60);
        assert!(s.site_res.capacity() >= 60);
        assert!(s.burial_counts.capacity() >= 12);
        assert!(s.env_totals.capacity() >= 13);
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
