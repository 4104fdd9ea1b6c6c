//! The synthetic knowledge base behind the two knowledge-based scoring
//! functions (TRIPLET and DIST).
//!
//! The paper's TRIPLET potential is derived from the statistics of φ/ψ
//! pairs in triplet residue contexts collected from a large loop library,
//! and its DIST potential from observed pairwise backbone atom distances.
//! We do not ship those PDB-derived tables; instead this module *derives*
//! tables of exactly the same shape from the suite's generative
//! Ramachandran model: it samples a large number of synthetic loop
//! fragments, histograms the same observables the real potentials
//! histogram, and converts frequencies to energies with the usual inverse
//! Boltzmann rule.  The result is loaded once at start-up and treated as
//! read-only during sampling, mirroring how the paper stages its
//! pre-calculated tables into GPU texture memory.

use lms_geometry::{wrap_rad, StreamRngFactory};
use lms_protein::{
    build_segment_de_novo, AminoAcid, LoopBuilder, RamaClass, RamaLibrary, Torsions,
};
use rand::Rng;
use std::f64::consts::PI;
use std::sync::Arc;

/// Number of φ (and ψ) bins in the triplet table: 10° resolution.
pub const TRIPLET_BINS: usize = 36;

/// Number of distance bins in the pairwise table.
pub const DIST_BINS: usize = 32;

/// Width of one distance bin (Å).
pub const DIST_BIN_WIDTH: f64 = 0.5;

/// Maximum distance (Å) covered by the pairwise table; pairs farther apart
/// contribute nothing to the DIST score (and are not counted when the table
/// is built).
pub const DIST_MAX: f64 = DIST_BINS as f64 * DIST_BIN_WIDTH;

/// Backbone atom categories distinguished by the DIST potential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackboneAtomKind {
    /// Amide nitrogen.
    N,
    /// Alpha carbon.
    Ca,
    /// Carbonyl carbon.
    C,
    /// Carbonyl oxygen.
    O,
}

impl BackboneAtomKind {
    /// All categories in canonical order.
    pub const ALL: [BackboneAtomKind; 4] = [
        BackboneAtomKind::N,
        BackboneAtomKind::Ca,
        BackboneAtomKind::C,
        BackboneAtomKind::O,
    ];

    /// Stable index in `[0, 4)`.
    pub fn index(self) -> usize {
        match self {
            BackboneAtomKind::N => 0,
            BackboneAtomKind::Ca => 1,
            BackboneAtomKind::C => 2,
            BackboneAtomKind::O => 3,
        }
    }
}

/// Sequence-separation classes used by the DIST potential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeparationClass {
    /// |i − j| = 2.
    Near,
    /// |i − j| = 3 or 4.
    Medium,
    /// |i − j| ≥ 5.
    Far,
}

impl SeparationClass {
    /// Classify a residue separation (must be ≥ 2 to contribute).
    pub fn from_separation(sep: usize) -> Option<SeparationClass> {
        match sep {
            0 | 1 => None,
            2 => Some(SeparationClass::Near),
            3 | 4 => Some(SeparationClass::Medium),
            _ => Some(SeparationClass::Far),
        }
    }

    /// Stable index in `[0, 3)`.
    pub fn index(self) -> usize {
        match self {
            SeparationClass::Near => 0,
            SeparationClass::Medium => 1,
            SeparationClass::Far => 2,
        }
    }

    /// Number of classes.
    pub const COUNT: usize = 3;
}

/// Map a φ or ψ angle (radians) to its bin index in `[0, TRIPLET_BINS)`.
///
/// The bins truncate with `as usize`: for every `f64` that equals
/// `.floor() as usize` (both saturate, NaN gives 0), and it needs no libm
/// `floor` call on baseline x86-64.
#[inline]
pub fn torsion_bin(angle: f64) -> usize {
    let a = wrap_rad(angle);
    // wrap_rad returns (-pi, pi]; shift to [0, 2pi) and bin.
    let shifted = if a >= PI { 0.0 } else { a + PI };
    let idx = (shifted / (2.0 * PI) * TRIPLET_BINS as f64) as usize;
    idx.min(TRIPLET_BINS - 1)
}

/// Map a distance (Å) to its bin index, saturating at the last bin.
/// Non-positive and NaN distances fall in bin 0.
#[inline]
pub fn distance_bin(d: f64) -> usize {
    ((d / DIST_BIN_WIDTH) as usize).min(DIST_BINS - 1)
}

/// Number of contact-count bins in the burial table.
pub const BURIAL_BINS: usize = 16;

/// Width of one burial bin (environment contact counts per bin).
pub const BURIAL_BIN_WIDTH: usize = 4;

/// Map an environment contact count to its burial bin, saturating at the
/// last bin.
pub fn burial_bin(count: usize) -> usize {
    (count / BURIAL_BIN_WIDTH).min(BURIAL_BINS - 1)
}

/// Solvation/burial statistical table: energy indexed by the residue type
/// and its binned environment contact number (the count of fixed-environment
/// atoms within the burial radius of the residue's Cα).
///
/// Like the TRIPLET and DIST tables, the energies are *derived* rather than
/// shipped: a synthetic per-residue-type contact-number distribution stands
/// in for the PDB statistics the decoy-discrimination literature histograms,
/// with hydrophobic residue types centred on deeper burial than polar ones
/// (Kyte–Doolittle hydropathy drives the shift).  Conformations that bury
/// polar residues or expose hydrophobic ones therefore pay an energy
/// penalty — the facet of loop quality the VDW/DIST/TRIPLET trio is blind
/// to.
#[derive(Debug, Clone)]
pub struct BurialTable {
    /// energies[amino_acid][count_bin] flattened.
    energies: Vec<f64>,
}

impl BurialTable {
    fn flat_index(aa: AminoAcid, bin: usize) -> usize {
        aa.index() * BURIAL_BINS + bin
    }

    /// Look up the energy of a residue of type `aa` with `count` environment
    /// atoms within the burial radius of its Cα.
    pub fn energy(&self, aa: AminoAcid, count: usize) -> f64 {
        self.energies[Self::flat_index(aa, burial_bin(count))]
    }

    /// Total number of table entries.
    pub fn len(&self) -> usize {
        self.energies.len()
    }

    /// Whether the table is empty (never true for built tables).
    pub fn is_empty(&self) -> bool {
        self.energies.is_empty()
    }
}

/// Triplet torsion-angle statistical table: energy indexed by the residue
/// classes of the (previous, central, next) residues and by the central
/// residue's binned (φ, ψ).
#[derive(Debug, Clone)]
pub struct TripletTable {
    /// energies[context][phi_bin][psi_bin]
    energies: Vec<f64>,
}

impl TripletTable {
    fn context_index(prev: RamaClass, center: RamaClass, next: RamaClass) -> usize {
        (prev.index() * RamaClass::COUNT + center.index()) * RamaClass::COUNT + next.index()
    }

    fn flat_index(context: usize, phi_bin: usize, psi_bin: usize) -> usize {
        (context * TRIPLET_BINS + phi_bin) * TRIPLET_BINS + psi_bin
    }

    /// Look up the energy for a residue with classes `(prev, center, next)`
    /// and torsions `(φ, ψ)`.
    pub fn energy(
        &self,
        prev: RamaClass,
        center: RamaClass,
        next: RamaClass,
        phi: f64,
        psi: f64,
    ) -> f64 {
        let ctx = Self::context_index(prev, center, next);
        self.energies[Self::flat_index(ctx, torsion_bin(phi), torsion_bin(psi))]
    }

    /// Total number of table entries.
    pub fn len(&self) -> usize {
        self.energies.len()
    }

    /// Whether the table is empty (never true for built tables).
    pub fn is_empty(&self) -> bool {
        self.energies.is_empty()
    }
}

/// Pairwise backbone-atom distance table: energy indexed by the two atom
/// kinds, the sequence-separation class and the binned distance.
#[derive(Debug, Clone)]
pub struct DistTable {
    /// energies[kind_a][kind_b][sep][bin] flattened.
    energies: Vec<f64>,
}

impl DistTable {
    fn flat_index(
        a: BackboneAtomKind,
        b: BackboneAtomKind,
        sep: SeparationClass,
        bin: usize,
    ) -> usize {
        ((a.index() * 4 + b.index()) * SeparationClass::COUNT + sep.index()) * DIST_BINS + bin
    }

    /// Look up the energy of a pair of atoms of the given kinds at residue
    /// separation `sep` and distance `d` (Å).
    pub fn energy(
        &self,
        a: BackboneAtomKind,
        b: BackboneAtomKind,
        sep: SeparationClass,
        d: f64,
    ) -> f64 {
        // The table is symmetrised at build time, so (a, b) and (b, a) agree.
        self.row(a, b, sep)[distance_bin(d)]
    }

    /// The energies of one `(a, b, sep)` combination over all distance
    /// bins.  The fixed length lets a [`distance_bin`] index skip its
    /// bounds check.
    pub(crate) fn row(
        &self,
        a: BackboneAtomKind,
        b: BackboneAtomKind,
        sep: SeparationClass,
    ) -> &[f64; DIST_BINS] {
        let start = Self::flat_index(a, b, sep, 0);
        self.energies[start..start + DIST_BINS]
            .try_into()
            .expect("a DIST table row holds DIST_BINS energies")
    }

    /// Total number of table entries.
    pub fn len(&self) -> usize {
        self.energies.len()
    }

    /// Whether the table is empty (never true for built tables).
    pub fn is_empty(&self) -> bool {
        self.energies.is_empty()
    }
}

/// Parameters controlling knowledge-base construction: one of two presets,
/// [`KnowledgeBaseConfig::default`] (the production tables) or
/// [`KnowledgeBaseConfig::fast`] (smaller tables for tests and examples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnowledgeBaseConfig {
    /// RNG seed for fragment sampling.
    pub(crate) seed: u64,
    /// Number of (φ, ψ) samples per triplet context.
    pub(crate) triplet_samples_per_context: usize,
    /// Number of synthetic fragments sampled for the distance statistics.
    pub(crate) dist_fragments: usize,
    /// Length (residues) of each sampled fragment.
    pub(crate) dist_fragment_len: usize,
    /// Number of synthetic contact-count samples per residue type for the
    /// burial statistics.
    pub(crate) burial_samples_per_type: usize,
    /// Additive smoothing pseudo-count applied to every histogram bin.
    pub(crate) smoothing: f64,
}

impl Default for KnowledgeBaseConfig {
    fn default() -> Self {
        KnowledgeBaseConfig {
            seed: 7102,
            triplet_samples_per_context: 6000,
            dist_fragments: 600,
            dist_fragment_len: 12,
            burial_samples_per_type: 4000,
            smoothing: 0.5,
        }
    }
}

impl KnowledgeBaseConfig {
    /// A smaller configuration for fast unit tests.  The triplet sample
    /// count is kept high enough that the neighbour-coupling effects the
    /// tests assert on (e.g. the pre-proline α-basin penalty, a ~30 %
    /// relative frequency shift in a single 10°×10° bin) stand clear of
    /// sampling noise for any stream seed.
    pub fn fast() -> Self {
        KnowledgeBaseConfig {
            triplet_samples_per_context: 2500,
            dist_fragments: 80,
            burial_samples_per_type: 1500,
            ..Default::default()
        }
    }
}

/// The complete pre-calculated knowledge base: both tables plus the
/// Ramachandran library they were derived from.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    /// The triplet torsion table.
    pub triplet: TripletTable,
    /// The pairwise distance table.
    pub dist: DistTable,
    /// The solvation/burial contact-number table.
    pub burial: BurialTable,
}

impl KnowledgeBase {
    /// Build the knowledge base from scratch (samples fragments, builds the
    /// histograms, converts to energies).  Deterministic in the seed.
    pub fn build(config: KnowledgeBaseConfig) -> Arc<KnowledgeBase> {
        let rama = RamaLibrary::default();
        let triplet = build_triplet_table(&rama, &config);
        let dist = build_dist_table(&rama, &config);
        let burial = build_burial_table(&config);
        Arc::new(KnowledgeBase {
            triplet,
            dist,
            burial,
        })
    }
}

fn build_triplet_table(rama: &RamaLibrary, config: &KnowledgeBaseConfig) -> TripletTable {
    let n_contexts = RamaClass::COUNT * RamaClass::COUNT * RamaClass::COUNT;
    let mut energies = vec![0.0f64; n_contexts * TRIPLET_BINS * TRIPLET_BINS];
    let factory = StreamRngFactory::new(config.seed).derive(1);

    let classes = [RamaClass::General, RamaClass::Glycine, RamaClass::Proline];
    for &prev in &classes {
        for &center in &classes {
            for &next in &classes {
                let ctx = TripletTable::context_index(prev, center, next);
                let mut rng = factory.stream(ctx as u64, 0);
                let mut counts = vec![config.smoothing; TRIPLET_BINS * TRIPLET_BINS];
                let model = rama.model(center);
                for _ in 0..config.triplet_samples_per_context {
                    // The neighbouring residues narrow the central residue's
                    // accessible basins: emulate the local sequence-structure
                    // coupling by rejecting samples that sit in basins the
                    // neighbours disfavour.
                    let (phi, psi) = loop {
                        let (phi, psi) = model.sample(&mut rng);
                        if neighbour_compatible(prev, next, phi, psi, &mut rng) {
                            break (phi, psi);
                        }
                    };
                    counts[torsion_bin(phi) * TRIPLET_BINS + torsion_bin(psi)] += 1.0;
                }
                let total: f64 = counts.iter().sum();
                for (bin, &c) in counts.iter().enumerate() {
                    let p = c / total;
                    // Inverse Boltzmann against a uniform reference state.
                    let p_ref = 1.0 / (TRIPLET_BINS * TRIPLET_BINS) as f64;
                    let e = -(p / p_ref).ln();
                    let (pb, sb) = (bin / TRIPLET_BINS, bin % TRIPLET_BINS);
                    energies[TripletTable::flat_index(ctx, pb, sb)] = e;
                }
            }
        }
    }
    TripletTable { energies }
}

/// Emulated neighbour coupling: proline neighbours disfavour α-basin
/// conformations of the central residue, glycine neighbours relax the map.
fn neighbour_compatible<R: Rng + ?Sized>(
    prev: RamaClass,
    next: RamaClass,
    phi: f64,
    _psi: f64,
    rng: &mut R,
) -> bool {
    let alpha_like = phi < 0.0 && phi > -2.0;
    let mut accept: f64 = 1.0;
    if next == RamaClass::Proline && alpha_like {
        accept *= 0.55;
    }
    if prev == RamaClass::Proline && alpha_like {
        accept *= 0.8;
    }
    if prev == RamaClass::Glycine || next == RamaClass::Glycine {
        accept = accept.max(0.9);
    }
    rng.gen::<f64>() < accept
}

fn build_dist_table(rama: &RamaLibrary, config: &KnowledgeBaseConfig) -> DistTable {
    let builder = LoopBuilder::default();
    let factory = StreamRngFactory::new(config.seed).derive(2);
    let n = 4 * 4 * SeparationClass::COUNT * DIST_BINS;
    let mut counts = vec![config.smoothing; n];

    for frag in 0..config.dist_fragments {
        let mut rng = factory.stream(frag as u64, 0);
        // Random non-Pro/Gly-biased sequence; classes only matter through
        // the torsion statistics here.
        let sequence: Vec<AminoAcid> = (0..config.dist_fragment_len)
            .map(|_| AminoAcid::from_index(rng.gen_range(0..20)))
            .collect();
        let mut torsions = Torsions::zeros(config.dist_fragment_len);
        #[allow(clippy::needless_range_loop)] // parallel index into sequence and torsions
        for i in 0..config.dist_fragment_len {
            let (phi, psi) = rama.model(sequence[i].rama_class()).sample(&mut rng);
            torsions.set_phi(i, phi);
            torsions.set_psi(i, psi);
        }
        let structure = build_segment_de_novo(&builder, &sequence, &torsions);
        let per_res: Vec<[(BackboneAtomKind, lms_geometry::Vec3); 4]> = structure
            .residues
            .iter()
            .map(|r| {
                [
                    (BackboneAtomKind::N, r.n),
                    (BackboneAtomKind::Ca, r.ca),
                    (BackboneAtomKind::C, r.c),
                    (BackboneAtomKind::O, r.o),
                ]
            })
            .collect();
        for i in 0..per_res.len() {
            for j in (i + 1)..per_res.len() {
                let Some(sep) = SeparationClass::from_separation(j - i) else {
                    continue;
                };
                for &(ka, pa) in &per_res[i] {
                    for &(kb, pb) in &per_res[j] {
                        let d = pa.distance(pb);
                        if d >= DIST_MAX {
                            continue;
                        }
                        let bin = distance_bin(d);
                        counts[DistTable::flat_index(ka, kb, sep, bin)] += 1.0;
                        counts[DistTable::flat_index(kb, ka, sep, bin)] += 1.0;
                    }
                }
            }
        }
    }

    // Convert to energies with an inverse Boltzmann rule against a uniform
    // reference over the table's distance range:
    //   E(kinds, sep, d) = -ln( P(d | kinds, sep) / (1 / DIST_BINS) ).
    // Bins never observed for a pair type therefore come out strongly
    // unfavourable (clashing or geometrically inaccessible distances).
    let mut energies = vec![0.0f64; n];
    let p_ref = 1.0 / DIST_BINS as f64;
    for a in BackboneAtomKind::ALL {
        for b in BackboneAtomKind::ALL {
            for sep in [
                SeparationClass::Near,
                SeparationClass::Medium,
                SeparationClass::Far,
            ] {
                let pair_total: f64 = (0..DIST_BINS)
                    .map(|bin| counts[DistTable::flat_index(a, b, sep, bin)])
                    .sum();
                for bin in 0..DIST_BINS {
                    let p = counts[DistTable::flat_index(a, b, sep, bin)] / pair_total;
                    energies[DistTable::flat_index(a, b, sep, bin)] = -(p / p_ref).ln();
                }
            }
        }
    }
    DistTable { energies }
}

/// Mean burial contact count of the most solvent-exposed residue type.
const BURIAL_MEAN_EXPOSED: f64 = 14.0;

/// Extra mean contact count the most hydrophobic (deepest-buried) residue
/// type adds on top of [`BURIAL_MEAN_EXPOSED`].
const BURIAL_MEAN_SPREAD: f64 = 22.0;

/// Standard deviation of the synthetic contact-count distribution.
const BURIAL_SIGMA: f64 = 8.0;

/// Range of the Kyte–Doolittle hydropathy index (±4.5).
const HYDROPATHY_HALF_RANGE: f64 = 4.5;

fn build_burial_table(config: &KnowledgeBaseConfig) -> BurialTable {
    let factory = StreamRngFactory::new(config.seed).derive(3);
    let mut energies = vec![0.0f64; 20 * BURIAL_BINS];
    for idx in 0..20usize {
        let aa = AminoAcid::from_index(idx);
        // Hydrophobic residues centre on deeper burial: map the hydropathy
        // index from [-4.5, 4.5] to a mean contact count in
        // [BURIAL_MEAN_EXPOSED, BURIAL_MEAN_EXPOSED + BURIAL_MEAN_SPREAD].
        let h = (aa.hydropathy() + HYDROPATHY_HALF_RANGE) / (2.0 * HYDROPATHY_HALF_RANGE);
        let mean = BURIAL_MEAN_EXPOSED + BURIAL_MEAN_SPREAD * h;
        let mut rng = factory.stream(idx as u64, 0);
        let mut counts = [config.smoothing; BURIAL_BINS];
        for _ in 0..config.burial_samples_per_type {
            // Approximately standard-normal noise via the Irwin–Hall sum of
            // 12 uniforms (keeps the vendored `rand` subset sufficient).
            let g: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
            let sample = (mean + BURIAL_SIGMA * g).round().max(0.0) as usize;
            counts[burial_bin(sample)] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let p_ref = 1.0 / BURIAL_BINS as f64;
        for (bin, &c) in counts.iter().enumerate() {
            let p = c / total;
            energies[BurialTable::flat_index(aa, bin)] = -(p / p_ref).ln();
        }
    }
    BurialTable { energies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::deg_to_rad;
    use proptest::prelude::*;

    fn fast_kb() -> Arc<KnowledgeBase> {
        KnowledgeBase::build(KnowledgeBaseConfig {
            seed: 11,
            ..KnowledgeBaseConfig::fast()
        })
    }

    #[test]
    fn torsion_bins_cover_the_circle() {
        assert_eq!(torsion_bin(-PI + 1e-6), 0);
        assert_eq!(
            torsion_bin(PI),
            0,
            "+pi wraps to the first bin (same as -pi)"
        );
        assert_eq!(torsion_bin(0.0), TRIPLET_BINS / 2);
        // Every bin is hit.
        let mut seen = [false; TRIPLET_BINS];
        for i in 0..720 {
            let a = -PI + (i as f64 + 0.5) / 720.0 * 2.0 * PI;
            seen[torsion_bin(a)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn distance_bins_saturate() {
        assert_eq!(distance_bin(-1.0), 0);
        assert_eq!(distance_bin(0.1), 0);
        assert_eq!(distance_bin(0.6), 1);
        assert_eq!(distance_bin(1_000.0), DIST_BINS - 1);
    }

    /// The bin formulas as they read with `.floor()`, over the `%`-based
    /// angle wrap.
    fn torsion_bin_floor(angle: f64) -> usize {
        let a = if angle.is_finite() {
            let mut a = angle % (2.0 * PI);
            if a <= -PI {
                a += 2.0 * PI;
            } else if a > PI {
                a -= 2.0 * PI;
            }
            a
        } else {
            angle
        };
        let shifted = if a >= PI { 0.0 } else { a + PI };
        let idx = (shifted / (2.0 * PI) * TRIPLET_BINS as f64).floor() as usize;
        idx.min(TRIPLET_BINS - 1)
    }

    fn distance_bin_floor(d: f64) -> usize {
        if d <= 0.0 {
            return 0;
        }
        ((d / DIST_BIN_WIDTH).floor() as usize).min(DIST_BINS - 1)
    }

    fn assert_bins_match_floor(x: f64) {
        assert_eq!(torsion_bin(x), torsion_bin_floor(x), "torsion_bin({x:e})");
        assert_eq!(
            distance_bin(x),
            distance_bin_floor(x),
            "distance_bin({x:e})"
        );
    }

    /// `x` and its 16 neighbouring doubles on each side.
    fn neighbours(x: f64) -> impl Iterator<Item = f64> {
        let down = std::iter::successors(Some(x), |v| Some(v.next_down())).take(17);
        let up = std::iter::successors(Some(x.next_up()), |v| Some(v.next_up())).take(16);
        down.chain(up)
    }

    #[test]
    fn truncating_bins_match_floor_at_special_values_and_edges() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
        ];
        for x in specials {
            assert_bins_match_floor(x);
        }
        // Distance bin edges, past the saturating last bin.
        for k in 0..=2 * DIST_BINS {
            neighbours(k as f64 * DIST_BIN_WIDTH).for_each(assert_bins_match_floor);
        }
        // Torsion bin edges over two turns, and ±π, ±2π.
        let width = 2.0 * PI / TRIPLET_BINS as f64;
        for k in -(2 * TRIPLET_BINS as i32)..=2 * TRIPLET_BINS as i32 {
            neighbours(k as f64 * width - PI).for_each(assert_bins_match_floor);
        }
        for edge in [PI, -PI, 2.0 * PI, -2.0 * PI] {
            neighbours(edge).for_each(assert_bins_match_floor);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn truncating_bins_match_floor_on_any_bits(
            x in any::<u64>().prop_map(f64::from_bits),
        ) {
            prop_assert_eq!(torsion_bin(x), torsion_bin_floor(x));
            prop_assert_eq!(distance_bin(x), distance_bin_floor(x));
        }

        #[test]
        fn truncating_bins_match_floor_on_the_table_ranges(x in -20.0..20.0f64) {
            prop_assert_eq!(torsion_bin(x), torsion_bin_floor(x));
            prop_assert_eq!(distance_bin(x), distance_bin_floor(x));
        }
    }

    #[test]
    fn separation_classes() {
        assert_eq!(SeparationClass::from_separation(0), None);
        assert_eq!(SeparationClass::from_separation(1), None);
        assert_eq!(
            SeparationClass::from_separation(2),
            Some(SeparationClass::Near)
        );
        assert_eq!(
            SeparationClass::from_separation(3),
            Some(SeparationClass::Medium)
        );
        assert_eq!(
            SeparationClass::from_separation(4),
            Some(SeparationClass::Medium)
        );
        assert_eq!(
            SeparationClass::from_separation(9),
            Some(SeparationClass::Far)
        );
    }

    #[test]
    fn knowledge_base_is_deterministic() {
        let a = fast_kb();
        let b = fast_kb();
        let probe = |kb: &KnowledgeBase| {
            kb.triplet.energy(
                RamaClass::General,
                RamaClass::General,
                RamaClass::General,
                deg_to_rad(-63.0),
                deg_to_rad(-43.0),
            ) + kb.dist.energy(
                BackboneAtomKind::Ca,
                BackboneAtomKind::Ca,
                SeparationClass::Medium,
                5.3,
            )
        };
        assert_eq!(probe(&a), probe(&b));
    }

    #[test]
    fn triplet_table_favours_allowed_regions() {
        let kb = fast_kb();
        let e_alpha = kb.triplet.energy(
            RamaClass::General,
            RamaClass::General,
            RamaClass::General,
            deg_to_rad(-63.0),
            deg_to_rad(-43.0),
        );
        let e_forbidden = kb.triplet.energy(
            RamaClass::General,
            RamaClass::General,
            RamaClass::General,
            deg_to_rad(75.0),
            deg_to_rad(-100.0),
        );
        assert!(
            e_alpha < e_forbidden - 1.0,
            "alpha {e_alpha} should be much better than forbidden {e_forbidden}"
        );
    }

    #[test]
    fn triplet_table_sees_proline_context() {
        let kb = fast_kb();
        // An alpha-basin central residue is penalised when followed by Pro.
        let plain = kb.triplet.energy(
            RamaClass::General,
            RamaClass::General,
            RamaClass::General,
            deg_to_rad(-63.0),
            deg_to_rad(-43.0),
        );
        let before_pro = kb.triplet.energy(
            RamaClass::General,
            RamaClass::General,
            RamaClass::Proline,
            deg_to_rad(-63.0),
            deg_to_rad(-43.0),
        );
        assert!(
            before_pro > plain,
            "pre-proline context should raise the alpha energy"
        );
    }

    #[test]
    fn dist_table_penalises_clashing_distances() {
        let kb = fast_kb();
        for sep in [
            SeparationClass::Near,
            SeparationClass::Medium,
            SeparationClass::Far,
        ] {
            let clash = kb
                .dist
                .energy(BackboneAtomKind::Ca, BackboneAtomKind::Ca, sep, 1.2);
            let typical = kb
                .dist
                .energy(BackboneAtomKind::Ca, BackboneAtomKind::Ca, sep, 6.0);
            assert!(
                clash > typical,
                "sep {sep:?}: clash energy {clash} should exceed typical {typical}"
            );
        }
    }

    #[test]
    fn dist_table_is_symmetric_in_atom_kinds() {
        let kb = fast_kb();
        for sep in [SeparationClass::Near, SeparationClass::Far] {
            for d in [3.0, 5.5, 8.0] {
                let ab = kb
                    .dist
                    .energy(BackboneAtomKind::N, BackboneAtomKind::O, sep, d);
                let ba = kb
                    .dist
                    .energy(BackboneAtomKind::O, BackboneAtomKind::N, sep, d);
                assert!((ab - ba).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn table_sizes() {
        let kb = fast_kb();
        assert_eq!(kb.triplet.len(), 27 * TRIPLET_BINS * TRIPLET_BINS);
        assert_eq!(kb.dist.len(), 16 * SeparationClass::COUNT * DIST_BINS);
        assert_eq!(kb.burial.len(), 20 * BURIAL_BINS);
        assert!(!kb.triplet.is_empty());
        assert!(!kb.dist.is_empty());
        assert!(!kb.burial.is_empty());
    }

    #[test]
    fn burial_bins_saturate() {
        assert_eq!(burial_bin(0), 0);
        assert_eq!(burial_bin(BURIAL_BIN_WIDTH - 1), 0);
        assert_eq!(burial_bin(BURIAL_BIN_WIDTH), 1);
        assert_eq!(burial_bin(10_000), BURIAL_BINS - 1);
    }

    #[test]
    fn burial_table_is_deterministic() {
        let a = fast_kb();
        let b = fast_kb();
        for count in [0, 8, 24, 40, 64] {
            assert_eq!(
                a.burial.energy(AminoAcid::Ile, count),
                b.burial.energy(AminoAcid::Ile, count)
            );
        }
    }

    #[test]
    fn burial_table_separates_hydrophobic_from_polar() {
        let kb = fast_kb();
        // Deep burial (high contact count) is cheap for hydrophobic Ile and
        // expensive for charged Asp; full exposure is the reverse.
        let buried = 40;
        let exposed = 8;
        assert!(
            kb.burial.energy(AminoAcid::Ile, buried) < kb.burial.energy(AminoAcid::Asp, buried),
            "burying Ile should be cheaper than burying Asp"
        );
        assert!(
            kb.burial.energy(AminoAcid::Asp, exposed) < kb.burial.energy(AminoAcid::Asp, buried),
            "Asp should prefer exposure"
        );
        assert!(
            kb.burial.energy(AminoAcid::Ile, buried) < kb.burial.energy(AminoAcid::Ile, exposed),
            "Ile should prefer burial"
        );
    }
}
