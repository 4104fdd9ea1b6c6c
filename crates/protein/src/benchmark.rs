//! The synthetic long-loop benchmark library.
//!
//! The paper evaluates on the 53 loops of 10+ residues from the filtered
//! Jacobson loop-decoy benchmark.  Those are real crystal structures we do
//! not ship; instead this module generates, deterministically from a seed, a
//! set of 53 synthetic targets with the same composition (27 × 10-residue,
//! 17 × 11-residue, 9 × 12-residue loops) and the same names for the loops
//! the paper discusses individually (1cex 40:51, 1akz 181:192, the buried
//! 1xyz 813:824, 1ixh 160:171, 153l 98:109, 1dim 213:224, 3pte 91:101,
//! 5pti 7:17).  Each target is a self-consistent loop problem: a native
//! conformation drawn from Ramachandran statistics, anchors taken from a
//! host segment built around it, and an environment shell of pseudo-atoms
//! that the native does not clash with (except for the deliberately buried
//! 1xyz case, which gets a dense, close shell).  See DESIGN.md for why this
//! substitution preserves the behaviour the paper measures.

use crate::amino::AminoAcid;
use crate::backbone::{build_segment_de_novo, AnchorFrame, LoopBuilder, LoopFrame, LoopStructure};
use crate::environment::{EnvAtom, Environment};
use crate::loop_def::LoopTarget;
use crate::ramachandran::RamaLibrary;
use crate::torsions::Torsions;
use lms_geometry::{StreamRngFactory, Vec3};
use rand::Rng;
use std::sync::Arc;

/// Number of stem residues built on each side of the loop to derive anchor
/// geometry and near-anchor environment atoms.
const STEM_RESIDUES: usize = 3;

/// Minimum clearance (Å) required between the native loop atoms and any
/// generated environment shell atom for ordinary (surface) loops.
const SURFACE_CLEARANCE: f64 = 3.8;

/// Clearance for the deliberately buried target — tight enough that even the
/// native picks up soft-sphere overlap, as the paper reports for 1xyz.
const BURIED_CLEARANCE: f64 = 3.0;

/// Static description of one benchmark target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetSpec {
    /// Host protein name (PDB-style identifier).
    pub name: &'static str,
    /// First loop residue number in host numbering.
    pub start: usize,
    /// Loop length in residues.
    pub len: usize,
    /// Whether the loop should be generated deeply buried.
    pub buried: bool,
}

impl TargetSpec {
    /// Last loop residue number (inclusive).
    pub fn end(&self) -> usize {
        self.start + self.len - 1
    }

    /// Label in the paper's `name(start:end)` convention.
    pub fn label(&self) -> String {
        format!("{}({}:{})", self.name, self.start, self.end())
    }
}

/// The 53-target specification mirroring the paper's benchmark composition:
/// 27 ten-residue, 17 eleven-residue and 9 twelve-residue loops.
pub fn standard_specs() -> Vec<TargetSpec> {
    let mut specs = Vec::with_capacity(53);

    // Twelve-residue loops (9) — the six from Table I plus three fillers.
    let twelve: [(&'static str, usize, bool); 9] = [
        ("1cex", 40, false),
        ("1akz", 181, false),
        ("1xyz", 813, true),
        ("1ixh", 160, false),
        ("153l", 98, false),
        ("1dim", 213, false),
        ("1arb", 182, false),
        ("2exo", 293, false),
        ("1tml", 243, false),
    ];
    for (name, start, buried) in twelve {
        specs.push(TargetSpec {
            name,
            start,
            len: 12,
            buried,
        });
    }

    // Eleven-residue loops (17) — includes 3pte(91:101) and 5pti(7:17).
    let eleven: [(&'static str, usize); 17] = [
        ("3pte", 91),
        ("5pti", 7),
        ("1bhe", 121),
        ("1cb0", 40),
        ("1dpg", 354),
        ("1eco", 35),
        ("1f46", 64),
        ("1g8f", 202),
        ("1hfc", 155),
        ("1iib", 71),
        ("1jp4", 90),
        ("1k7c", 161),
        ("1lki", 62),
        ("1m3s", 117),
        ("1nwp", 15),
        ("1oyc", 203),
        ("1pbe", 130),
    ];
    for (name, start) in eleven {
        specs.push(TargetSpec {
            name,
            start,
            len: 11,
            buried: false,
        });
    }

    // Ten-residue loops (27).
    let ten: [(&'static str, usize); 27] = [
        ("1ads", 280),
        ("1bkf", 13),
        ("1c5e", 80),
        ("1cnv", 110),
        ("1cs6", 145),
        ("1d8w", 334),
        ("1dys", 290),
        ("1egu", 200),
        ("1ezm", 121),
        ("1f74", 54),
        ("1g12", 88),
        ("1h4a", 301),
        ("1i7w", 43),
        ("1j53", 160),
        ("1k20", 72),
        ("1l8a", 215),
        ("1m40", 99),
        ("1n29", 187),
        ("1o08", 140),
        ("1p1m", 66),
        ("1qlw", 231),
        ("1r6x", 19),
        ("1sbp", 266),
        ("1t1d", 111),
        ("1u09", 84),
        ("1v7z", 177),
        ("1w66", 36),
    ];
    for (name, start) in ten {
        specs.push(TargetSpec {
            name,
            start,
            len: 10,
            buried: false,
        });
    }

    debug_assert_eq!(specs.len(), 53);
    specs
}

/// Deterministic generator for synthetic benchmark targets.
#[derive(Debug, Clone)]
pub struct BenchmarkLibrary {
    seed: u64,
    rama: RamaLibrary,
    builder: LoopBuilder,
}

impl BenchmarkLibrary {
    /// Create a library rooted at a master seed.  The same seed always
    /// produces byte-identical targets.
    pub fn new(seed: u64) -> Self {
        BenchmarkLibrary {
            seed,
            rama: RamaLibrary::default(),
            builder: LoopBuilder::default(),
        }
    }

    /// The library used throughout the experiment harness.
    pub fn standard() -> Self {
        BenchmarkLibrary::new(2010)
    }

    /// Specifications of all 53 targets.
    pub fn specs(&self) -> Vec<TargetSpec> {
        standard_specs()
    }

    /// Generate one target by its host-protein name (e.g. `"1cex"`).
    pub fn target_by_name(&self, name: &str) -> Option<LoopTarget> {
        self.specs()
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
            .map(|s| self.generate(s))
    }

    /// Generate the target described by `spec`.
    pub fn generate(&self, spec: &TargetSpec) -> LoopTarget {
        // Every target derives its own stream family from the master seed
        // and a stable hash of the name, so the library can be generated in
        // any order (or in parallel) with identical results.
        let name_hash = stable_name_hash(spec.name);
        let factory = StreamRngFactory::new(self.seed).derive(name_hash);

        for attempt in 0..64 {
            if let Some(target) = self.try_generate(spec, &factory, attempt) {
                return target;
            }
        }
        panic!(
            "failed to generate an acceptable synthetic target for {} after 64 attempts",
            spec.label()
        );
    }

    #[allow(clippy::needless_range_loop)] // parallel index into sequence and torsions
    fn try_generate(
        &self,
        spec: &TargetSpec,
        factory: &StreamRngFactory,
        attempt: u64,
    ) -> Option<LoopTarget> {
        let mut rng = factory.stream(attempt, 0);
        let total_len = spec.len + 2 * STEM_RESIDUES;

        // -- Sequence -----------------------------------------------------
        let sequence = self.random_sequence(&mut rng, total_len, spec.buried);

        // -- Host segment torsions ----------------------------------------
        let mut torsions = Torsions::zeros(total_len);
        for i in 0..total_len {
            let model = self.rama.model(sequence[i].rama_class());
            let (phi, psi) = model.sample(&mut rng);
            torsions.set_phi(i, phi);
            torsions.set_psi(i, psi);
        }

        // -- Build the host segment and carve out the loop -----------------
        let segment = build_segment_de_novo(&self.builder, &sequence, &torsions);
        if !segment_is_self_consistent(&segment) {
            return None;
        }

        let loop_first = STEM_RESIDUES;
        let loop_last = STEM_RESIDUES + spec.len - 1;
        let post_anchor = loop_last + 1;

        let pre = &segment.residues[loop_first - 1];
        let post = &segment.residues[post_anchor];
        let frame = LoopFrame {
            n_anchor: AnchorFrame::new(pre.n, pre.ca, pre.c),
            n_anchor_psi: torsions.psi(loop_first - 1),
            c_anchor: AnchorFrame::new(post.n, post.ca, post.c),
            c_anchor_phi: torsions.phi(post_anchor),
        };

        let loop_sequence: Vec<AminoAcid> = sequence[loop_first..=loop_last].to_vec();
        let native_pairs: Vec<(f64, f64)> =
            (loop_first..=loop_last).map(|i| torsions.pair(i)).collect();
        let native_torsions = Torsions::from_pairs(&native_pairs);

        let native_structure = self.builder.build(&frame, &loop_sequence, &native_torsions);
        // Sanity: the carved-out native must close onto the post-stem anchor
        // essentially exactly (same math built it).
        if native_structure.end_frame.rms_distance(&frame.c_anchor) > 1e-6 {
            return None;
        }
        if has_internal_clashes(&native_structure) {
            return None;
        }

        // -- Environment ---------------------------------------------------
        let native_atoms = native_structure.backbone_atoms();
        let mut env_atoms = Vec::new();

        // Stem residues become fixed environment atoms (skipping the anchor
        // backbone itself is unnecessary — the loop is bonded to it, and the
        // VDW function excludes contacts below the bonded-distance floor).
        for (i, r) in segment.residues.iter().enumerate() {
            if (loop_first..=loop_last).contains(&i) {
                continue;
            }
            for a in r.backbone() {
                env_atoms.push(EnvAtom::backbone(a, 1.7));
            }
            if let Some(c) = r.centroid {
                env_atoms.push(EnvAtom::centroid(c, sequence[i].centroid_radius()));
            }
        }

        // Shell of pseudo-atoms approximating the rest of the protein.
        let clearance = if spec.buried {
            BURIED_CLEARANCE
        } else {
            SURFACE_CLEARANCE
        };
        let shell_per_residue = if spec.buried { 14 } else { 6 };
        let n_shell = shell_per_residue * spec.len;
        let mut placed = 0usize;
        let mut tries = 0usize;
        while placed < n_shell && tries < n_shell * 80 {
            tries += 1;
            let anchor_atom = native_atoms[rng.gen_range(0..native_atoms.len())];
            let dir = random_unit_vector(&mut rng);
            let dist = if spec.buried {
                clearance + rng.gen::<f64>() * 3.0
            } else {
                clearance + rng.gen::<f64>() * 5.0
            };
            let pos = anchor_atom + dir * dist;
            let min_to_native = native_atoms
                .iter()
                .map(|a| a.distance(pos))
                .fold(f64::INFINITY, f64::min);
            if min_to_native < clearance {
                continue;
            }
            // Keep shell atoms from piling on top of each other.
            let too_close_to_shell = env_atoms
                .iter()
                .rev()
                .take(256)
                .any(|e| e.position.distance(pos) < 2.6);
            if too_close_to_shell {
                continue;
            }
            env_atoms.push(EnvAtom::backbone(pos, 1.7));
            placed += 1;
        }
        if placed < n_shell / 2 {
            // The geometry left too little room for the shell; try again.
            return None;
        }

        Some(LoopTarget {
            name: spec.name.to_string(),
            start_res: spec.start,
            end_res: spec.end(),
            sequence: loop_sequence,
            frame,
            environment: Arc::new(Environment::new(env_atoms)),
            native_torsions,
            native_structure,
            buried: spec.buried,
            env_cache: Default::default(),
        })
    }

    fn random_sequence<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        len: usize,
        buried: bool,
    ) -> Vec<AminoAcid> {
        (0..len)
            .map(|_| loop {
                let aa = AminoAcid::from_index(rng.gen_range(0..20));
                // Keep proline rare (it restricts closure) and bias buried
                // loops towards hydrophobic residues.
                if aa.is_proline() && rng.gen::<f64>() > 0.3 {
                    continue;
                }
                if buried && aa.hydropathy() < 0.0 && rng.gen::<f64>() > 0.35 {
                    continue;
                }
                break aa;
            })
            .collect()
    }
}

/// Stable 64-bit hash of a target name (FNV-1a), independent of the std
/// hasher's randomisation.
fn stable_name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn random_unit_vector<R: Rng + ?Sized>(rng: &mut R) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
        );
        let n = v.norm();
        if n > 1e-3 && n <= 1.0 {
            return v / n;
        }
    }
}

/// Reject host segments whose backbone atoms collide badly with themselves
/// (random torsion draws occasionally produce knots).
fn segment_is_self_consistent(segment: &LoopStructure) -> bool {
    !has_internal_clashes(segment)
}

/// Severe internal clash check: any pair of backbone atoms from residues at
/// sequence separation ≥ 2 closer than 2.4 Å.
fn has_internal_clashes(structure: &LoopStructure) -> bool {
    let n = structure.n_residues();
    for i in 0..n {
        for j in (i + 2)..n {
            for a in structure.residues[i].backbone() {
                for b in structure.residues[j].backbone() {
                    if a.distance_sq(b) < 2.4 * 2.4 {
                        return true;
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_composition_matches_paper() {
        let specs = standard_specs();
        assert_eq!(specs.len(), 53);
        assert_eq!(specs.iter().filter(|s| s.len == 10).count(), 27);
        assert_eq!(specs.iter().filter(|s| s.len == 11).count(), 17);
        assert_eq!(specs.iter().filter(|s| s.len == 12).count(), 9);
        // Exactly one buried target: 1xyz.
        let buried: Vec<_> = specs.iter().filter(|s| s.buried).collect();
        assert_eq!(buried.len(), 1);
        assert_eq!(buried[0].name, "1xyz");
        // Names unique.
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 53);
    }

    #[test]
    fn paper_labels_are_reproduced() {
        let specs = standard_specs();
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        for expected in [
            "1cex(40:51)",
            "1akz(181:192)",
            "1xyz(813:824)",
            "1ixh(160:171)",
            "153l(98:109)",
            "1dim(213:224)",
            "3pte(91:101)",
            "5pti(7:17)",
        ] {
            assert!(labels.iter().any(|l| l == expected), "missing {expected}");
        }
    }

    #[test]
    fn generated_target_native_closes_and_scores_zero_rmsd() {
        let lib = BenchmarkLibrary::standard();
        let t = lib.target_by_name("1cex").unwrap();
        assert_eq!(t.n_residues(), 12);
        assert_eq!(t.label(), "1cex(40:51)");
        let builder = LoopBuilder::default();
        let built = t.build(&builder, &t.native_torsions);
        assert!(t.rmsd_to_native(&built) < 1e-9);
        assert!(t.closure_deviation(&built) < 1e-6);
    }

    #[test]
    fn generation_is_deterministic() {
        let lib1 = BenchmarkLibrary::new(99);
        let lib2 = BenchmarkLibrary::new(99);
        let a = lib1.target_by_name("5pti").unwrap();
        let b = lib2.target_by_name("5pti").unwrap();
        assert_eq!(a.native_torsions, b.native_torsions);
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.environment.len(), b.environment.len());
        // Different seeds give different targets.
        let c = BenchmarkLibrary::new(100).target_by_name("5pti").unwrap();
        assert_ne!(a.native_torsions, c.native_torsions);
    }

    #[test]
    fn native_does_not_clash_with_surface_environment() {
        let lib = BenchmarkLibrary::standard();
        let t = lib.target_by_name("3pte").unwrap();
        assert!(!t.buried);
        // Every native backbone atom keeps the surface clearance to the
        // generated shell (stem atoms bonded to the anchors may be closer).
        let shell_min: f64 = t
            .native_structure
            .backbone_atoms()
            .iter()
            .map(|a| {
                t.environment
                    .atoms()
                    .iter()
                    .filter(|e| !e.is_centroid || e.radius > 0.0)
                    .map(|e| e.position.distance(*a))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(f64::INFINITY, f64::min);
        // Bonded stem neighbours sit at covalent distance, so only require
        // that the shell did not generate atoms *inside* the loop.
        assert!(shell_min > 1.0, "shell min distance {shell_min}");
    }

    #[test]
    fn buried_target_has_denser_environment() {
        let lib = BenchmarkLibrary::standard();
        let buried = lib.target_by_name("1xyz").unwrap();
        let surface = lib.target_by_name("1cex").unwrap();
        assert!(buried.buried);
        assert!(
            buried.environment.len() > surface.environment.len(),
            "buried {} <= surface {}",
            buried.environment.len(),
            surface.environment.len()
        );
        // Burial count around the buried native loop is higher.
        let burial = |t: &LoopTarget| -> usize {
            t.native_structure
                .ca_atoms()
                .iter()
                .map(|ca| t.environment.burial_count(*ca, 8.0))
                .sum()
        };
        assert!(burial(&buried) > burial(&surface));
    }

    #[test]
    fn unknown_target_name_returns_none() {
        let lib = BenchmarkLibrary::standard();
        assert!(lib.target_by_name("9zzz").is_none());
        assert!(
            lib.target_by_name("1CEX").is_some(),
            "name lookup is case-insensitive"
        );
    }

    #[test]
    fn stable_hash_differs_between_names() {
        assert_ne!(stable_name_hash("1cex"), stable_name_hash("1akz"));
        assert_eq!(stable_name_hash("1cex"), stable_name_hash("1cex"));
    }

    #[test]
    #[ignore = "generates all 53 targets; run with --ignored for the full check"]
    fn all_targets_generate_successfully() {
        let lib = BenchmarkLibrary::standard();
        let targets: Vec<_> = lib.specs().iter().map(|s| lib.generate(s)).collect();
        assert_eq!(targets.len(), 53);
        let builder = LoopBuilder::default();
        for t in &targets {
            let built = t.build(&builder, &t.native_torsions);
            assert!(t.rmsd_to_native(&built) < 1e-9, "{}", t.label());
            assert!(t.closure_deviation(&built) < 1e-6, "{}", t.label());
            assert!(t.environment.len() > 20, "{}", t.label());
        }
    }
}
