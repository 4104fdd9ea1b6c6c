//! Loop modeling targets.
//!
//! A [`LoopTarget`] bundles everything the sampler needs for one benchmark
//! loop: the residue range and sequence, the fixed anchor geometry
//! ([`LoopFrame`]), the fixed protein [`Environment`], and — because the
//! benchmark is synthetic — the known native conformation used to measure
//! decoy RMSD.

use crate::amino::AminoAcid;
use crate::backbone::{LoopBuilder, LoopFrame, LoopStructure};
use crate::environment::{EnvCandidates, Environment, ENV_LIST_RADIUS};
use crate::torsions::Torsions;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A loop-modeling target: the problem definition plus its (known) native
/// answer.
#[derive(Debug, Clone)]
pub struct LoopTarget {
    /// PDB-style identifier of the host protein (e.g. `"1cex"`).
    pub name: String,
    /// First residue of the loop in host-protein numbering.
    pub start_res: usize,
    /// Last residue of the loop in host-protein numbering (inclusive).
    pub end_res: usize,
    /// Loop residue types, N to C.
    pub sequence: Vec<AminoAcid>,
    /// Fixed anchor geometry.
    pub frame: LoopFrame,
    /// Fixed protein environment (shared, since the environment can be
    /// large and targets are cloned into worker threads).
    pub environment: Arc<Environment>,
    /// Native loop torsions.
    pub native_torsions: Torsions,
    /// Native loop structure built from `native_torsions`.
    pub native_structure: LoopStructure,
    /// Whether the loop is deeply buried in the protein (the paper's
    /// hardest case, 1xyz 813:824).
    pub buried: bool,
    /// Lazily computed environment-neighbour cache: the fixed-environment
    /// atoms reachable from this loop region, in SoA layout.  Shared across
    /// clones (worker threads score the same target) and initialised at most
    /// once per target; use [`LoopTarget::env_candidates`] to access it.
    ///
    /// **Staleness warning:** the cache is keyed to the `environment` and
    /// `frame` values present at first use and is never invalidated.  If you
    /// mutate those fields after scoring once — or build a variant target
    /// with struct-update syntax (`LoopTarget { environment: …, ..other }`),
    /// which copies the `Arc` and therefore the warmed cache — reset this
    /// field to `Default::default()` or scoring will silently use the old
    /// candidate set.
    pub env_cache: Arc<OnceLock<EnvCandidates>>,
}

/// Safety margin (Å) added to the loop reach bound when collecting
/// environment candidates; must be at least the list radius
/// [`ENV_LIST_RADIUS`], the largest contact distance any scoring function
/// asks of the environment, so the candidate set holds every atom a loop
/// site can contact.
pub const ENV_CONTACT_MARGIN: f64 = 8.0;

const _: () = assert!(ENV_LIST_RADIUS <= ENV_CONTACT_MARGIN);

impl LoopTarget {
    /// Number of residues in the loop.
    pub fn n_residues(&self) -> usize {
        self.sequence.len()
    }

    /// A conservative upper bound (Å) on the distance from the N-anchor Cα
    /// to any atom of any conformation of this loop.  Each residue advances
    /// the chain by at most the sum of the three backbone bond lengths
    /// (≈ 4.32 Å with ideal geometry); the bound adds slack for the anchor
    /// offset, the carbonyl oxygen and the largest side-chain centroid.
    pub fn reach_radius(&self) -> f64 {
        4.4 * (self.n_residues() as f64 + 2.0) + 6.0
    }

    /// The fixed-environment atoms that can ever be within contact range of
    /// this loop, as a flat SoA candidate set with its per-cell lists.
    /// Computed on first use (once per target, shared across clones) so
    /// per-evaluation scoring performs no spatial-grid queries and no
    /// allocation.
    pub fn env_candidates(&self) -> &EnvCandidates {
        self.env_cache.get_or_init(|| {
            self.environment.candidates_within(
                self.frame.n_anchor.ca,
                self.reach_radius() + ENV_CONTACT_MARGIN,
            )
        })
    }

    /// Display label in the paper's `name(start:end)` convention.
    pub fn label(&self) -> String {
        format!("{}({}:{})", self.name, self.start_res, self.end_res)
    }

    /// Backbone RMSD (no superposition — anchors fix the frame) between a
    /// candidate structure and the native loop, over N, Cα, C', O atoms.
    ///
    /// Iterates the residue buffers directly (same atom order and summation
    /// order as `rmsd_direct` over `backbone_atoms()`, hence bit-identical)
    /// without materialising the atom vectors, so the sampler's hot loop can
    /// measure RMSD allocation-free.
    pub fn rmsd_to_native(&self, structure: &LoopStructure) -> f64 {
        let native = &self.native_structure.residues;
        let cand = &structure.residues;
        assert_eq!(
            native.len(),
            cand.len(),
            "RMSD over mismatched residue counts"
        );
        if native.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for (a, b) in native.iter().zip(cand.iter()) {
            sum += a.n.distance_sq(b.n);
            sum += a.ca.distance_sq(b.ca);
            sum += a.c.distance_sq(b.c);
            sum += a.o.distance_sq(b.o);
        }
        (sum / (4 * native.len()) as f64).sqrt()
    }

    /// Build a structure for this target from a torsion vector.
    pub fn build(&self, builder: &LoopBuilder, torsions: &Torsions) -> LoopStructure {
        builder.build(&self.frame, &self.sequence, torsions)
    }

    /// Rebuild a structure for this target *in place* (no allocation after
    /// the first call on a given buffer); see [`LoopBuilder::build_into`].
    pub fn build_into(&self, builder: &LoopBuilder, torsions: &Torsions, out: &mut LoopStructure) {
        builder.build_into(&self.frame, &self.sequence, torsions, out);
    }

    /// Closure deviation (Å) of a candidate structure for this target.
    pub fn closure_deviation(&self, structure: &LoopStructure) -> f64 {
        structure.end_frame.rms_distance(&self.frame.c_anchor)
    }
}

impl fmt::Display for LoopTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} residues, {} environment atoms{})",
            self.label(),
            self.n_residues(),
            self.environment.len(),
            if self.buried { ", buried" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::AnchorFrame;
    use lms_geometry::{deg_to_rad, Vec3};

    fn tiny_target() -> LoopTarget {
        let builder = LoopBuilder::default();
        let sequence = vec![
            AminoAcid::Ala,
            AminoAcid::Gly,
            AminoAcid::Leu,
            AminoAcid::Ser,
        ];
        let native_torsions = Torsions::from_pairs(&[
            (deg_to_rad(-63.0), deg_to_rad(-43.0)),
            (deg_to_rad(-120.0), deg_to_rad(135.0)),
            (deg_to_rad(-75.0), deg_to_rad(150.0)),
            (deg_to_rad(-63.0), deg_to_rad(-43.0)),
        ]);
        let frame = LoopFrame {
            n_anchor: AnchorFrame::new(
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.458, 0.0, 0.0),
                Vec3::new(2.0, 1.4, 0.0),
            ),
            n_anchor_psi: deg_to_rad(130.0),
            // Use the natively-built end frame as the closure target so the
            // native closes exactly.
            c_anchor: AnchorFrame::new(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO),
            c_anchor_phi: deg_to_rad(-70.0),
        };
        let provisional = builder.build(&frame, &sequence, &native_torsions);
        let frame = LoopFrame {
            c_anchor: provisional.end_frame,
            ..frame
        };
        let native_structure = builder.build(&frame, &sequence, &native_torsions);
        LoopTarget {
            name: "test".to_string(),
            start_res: 10,
            end_res: 13,
            sequence,
            frame,
            environment: Arc::new(Environment::empty()),
            native_torsions,
            native_structure,
            buried: false,
            env_cache: Default::default(),
        }
    }

    #[test]
    fn label_and_len() {
        let t = tiny_target();
        assert_eq!(t.label(), "test(10:13)");
        assert_eq!(t.n_residues(), 4);
        let s = format!("{t}");
        assert!(s.contains("4 residues"));
    }

    #[test]
    fn native_has_zero_rmsd_and_closes() {
        let t = tiny_target();
        let builder = LoopBuilder::default();
        let built = t.build(&builder, &t.native_torsions);
        assert!(t.rmsd_to_native(&built) < 1e-9);
        assert!(t.closure_deviation(&built) < 1e-9);
    }

    #[test]
    fn perturbed_torsions_increase_rmsd_and_break_closure() {
        let t = tiny_target();
        let builder = LoopBuilder::default();
        let mut torsions = t.native_torsions.clone();
        torsions.set_phi(1, torsions.phi(1) + deg_to_rad(60.0));
        let built = t.build(&builder, &torsions);
        assert!(t.rmsd_to_native(&built) > 0.3);
        assert!(t.closure_deviation(&built) > 0.3);
    }
}
