//! The population-wide SoA member arena behind the staged kernel pipeline.
//!
//! The paper's device layout keeps the whole population in flat
//! structure-of-arrays global memory — per-member torsions, score slots and
//! flags addressed by thread id — and every pipeline stage is a
//! population-wide kernel launch over those buffers.  [`PopulationArena`]
//! is that layout on the host: instead of one owned struct per member, it
//! holds
//!
//! * flat member-major SoA buffers for everything cross-member stages read
//!   (current/candidate torsion lanes, [`ScoreVector`] slots, closure and
//!   acceptance flags, RNG stream handles, fitness, the checkpoint rows of
//!   each member's VDW environment pass and the built-prefix length of
//!   each member's structure buffer), and
//! * a `MemberSlot` per member holding the heavyweight reusable
//!   workspaces that existing kernels consume by reference (the CCD/scoring
//!   structure buffer, the scoring scratch, the candidate torsion view the
//!   flat lane is loaded into, the mutation-index scratch),
//!
//! plus the reusable host-side iteration buffers (sort order, complex
//! partition in CSR form with its per-complex fitness table, the front
//! lists, trace accumulators) and one
//! [`CcdBatchScratch`] per closure block.  Everything is allocated once at
//! trajectory start and reused for every iteration: after the first
//! iteration warms the buffers up, a whole staged iteration performs no
//! heap allocation (proved by `tests/zero_alloc.rs`).

use lms_closure::CcdBatchScratch;
use lms_geometry::StreamRngFactory;
use lms_protein::{LoopStructure, Torsions};
use lms_scoring::{ScoreScratch, ScoreVector, ScratchPool};
use rand_chacha::ChaCha8Rng;

/// Store the candidate checkpoint that `scratch` holds after a VDW pass
/// (its running environment totals and, with burial on, its counts) into
/// one member's checkpoint lanes.
pub(crate) fn store_checkpoint(scratch: &ScoreScratch, totals: &mut [f64], counts: &mut [u32]) {
    totals.copy_from_slice(scratch.env_totals());
    let c = scratch.burial_counts();
    counts[..c.len()].copy_from_slice(c);
}

/// One member's heavyweight reusable workspaces: the buffers the
/// per-conformation kernels mutate through references.
#[derive(Debug)]
pub(crate) struct MemberSlot {
    /// Reused structure buffer: holds the most recently built candidate,
    /// whose first [`PopulationArena::built_residues`] residues are also
    /// the member's current build.
    pub(crate) structure: LoopStructure,
    /// Reused scoring workspace (member-major SoA slices inside).
    pub(crate) scratch: ScoreScratch,
    /// The member's working torsion view: loaded from the flat candidate
    /// lane at the start of a stage chain, stored back when CCD finishes.
    pub(crate) cand: Torsions,
    /// Reused mutated-index buffer for the mutation move.
    pub(crate) mut_indices: Vec<usize>,
    /// Debug builds only: the workspace of the full VDW pass the staged
    /// `EvalVdw` kernel checks every resumed pass against.
    #[cfg(debug_assertions)]
    pub(crate) check: ScoreScratch,
    /// Debug builds only: the fresh build the staged `close` kernel checks
    /// every prepared closure lane against.
    #[cfg(debug_assertions)]
    pub(crate) check_structure: LoopStructure,
}

/// The population-wide SoA arena of one staged trajectory run.
///
/// All buffers are member-major; `stride` (= `2 × n_residues`) elements per
/// member for the torsion lanes, one slot per member for everything else.
/// See the module docs for the layout rationale.
#[derive(Debug)]
pub struct PopulationArena {
    pub(crate) n_members: usize,
    pub(crate) stride: usize,
    pub(crate) n_blocks: usize,
    pub(crate) ccd_block_width: usize,
    // --- flat SoA population state ("device global memory") -------------
    pub(crate) torsions: Vec<f64>,
    pub(crate) cand_torsions: Vec<f64>,
    pub(crate) scores: Vec<ScoreVector>,
    pub(crate) cand_scores: Vec<ScoreVector>,
    pub(crate) fitness: Vec<f64>,
    /// Eq. 1 strength per member, written for front members only (the
    /// only ones Eq. 1 reads).
    pub(crate) strength: Vec<f64>,
    pub(crate) front: Vec<bool>,
    /// Ascending indices of the front members, built on the host between
    /// the two `[FitAssg] within Population` passes.
    pub(crate) front_members: Vec<usize>,
    pub(crate) closure_dev: Vec<f64>,
    pub(crate) cand_closure_dev: Vec<f64>,
    pub(crate) rmsd: Vec<f64>,
    pub(crate) cand_rmsd: Vec<f64>,
    pub(crate) accepted: Vec<bool>,
    /// Per-member convergence flag of the most recent close stage (the
    /// CCD non-convergence readback behind the stall guard).
    pub(crate) cand_converged: Vec<bool>,
    /// Per-member verdict of the most recent numerical health sweep.
    pub(crate) healthy: Vec<bool>,
    pub(crate) proposed_moves: Vec<usize>,
    pub(crate) accepted_moves: Vec<usize>,
    pub(crate) ccd_start: Vec<usize>,
    /// Per-member checkpoint rows of the current conformation's VDW
    /// environment pass: `n_residues + 1` running totals each (see
    /// [`lms_scoring::EnvResume`]).  They live here, not in the slot
    /// scratches, because the engine leases scratches across jobs; a
    /// candidate's row lands in its slot scratch and Select copies it here
    /// on acceptance.
    pub(crate) env_totals: Vec<f64>,
    /// Per-member burial counts of the current conformation, `n_residues`
    /// each (all zero while the burial objective is off).
    pub(crate) burial_counts: Vec<u32>,
    /// Per member: how many leading residues of its slot's structure
    /// buffer are the exact build of its current torsions, so that the
    /// next closure re-places only the rest.  0 during the init rounds,
    /// the loop length after initialisation and after an accepted
    /// candidate, the candidate's CCD start residue after a rejected one
    /// (the candidate agreed with the member below it), and 0 after an
    /// initialisation quarantine (the member's torsions came from a donor).
    pub(crate) built_residues: Vec<usize>,
    pub(crate) rngs: Vec<ChaCha8Rng>,
    // --- reusable host-side iteration buffers ---------------------------
    pub(crate) order: Vec<usize>,
    pub(crate) complex_of: Vec<usize>,
    /// Per member: its sorted position in `complex_scores`.
    pub(crate) complex_pos: Vec<usize>,
    pub(crate) complex_scores: Vec<ScoreVector>,
    pub(crate) complex_offsets: Vec<usize>,
    /// Per sorted position of `complex_scores`: the member's Eq. 1
    /// strength (front members only), front flag and fitness within its
    /// complex, written by the two passes of the `[FitAssg] within
    /// Complex` kernel for the Metropolis stage.
    pub(crate) complex_strength: Vec<f64>,
    pub(crate) complex_front: Vec<bool>,
    pub(crate) complex_fitness: Vec<f64>,
    /// Ascending sorted positions of every complex's front members, built
    /// on the host between the two `[FitAssg] within Complex` passes.
    pub(crate) complex_front_members: Vec<usize>,
    // --- heavyweight member and block workspaces ------------------------
    pub(crate) slots: Vec<MemberSlot>,
    pub(crate) ccd_blocks: Vec<CcdBatchScratch>,
}

impl PopulationArena {
    /// Allocate the arena for one trajectory: `n_members` members over a
    /// loop of `n_residues`, partitioned into `n_complexes` for the
    /// Metropolis reference sets.  Scoring scratches are leased from `pool`
    /// when one is provided (the engine's warm workspaces), otherwise
    /// freshly pre-sized.  `ccd_block_width` — how many members one CCD
    /// lockstep block closes together — is the executor backend's reported
    /// parameter ([`lms_simt::Executor::ccd_block_width`]), not a constant.
    pub(crate) fn new(
        n_members: usize,
        n_residues: usize,
        max_mutations: usize,
        n_complexes: usize,
        pool: Option<&ScratchPool>,
        ccd_block_width: usize,
    ) -> Self {
        assert!(ccd_block_width > 0, "CCD block width must be non-zero");
        let stride = 2 * n_residues;
        let n_blocks = n_members.div_ceil(ccd_block_width);
        let slots = (0..n_members)
            .map(|_| MemberSlot {
                // Sized to the loop so that the first init closure can
                // prepare it from no built residue.
                structure: LoopStructure::unplaced(n_residues),
                scratch: match pool {
                    Some(pool) => pool.acquire(n_residues),
                    None => ScoreScratch::for_loop_len(n_residues),
                },
                cand: Torsions::zeros(n_residues),
                mut_indices: Vec::with_capacity(max_mutations.max(1)),
                #[cfg(debug_assertions)]
                check: ScoreScratch::for_loop_len(n_residues),
                #[cfg(debug_assertions)]
                check_structure: LoopStructure::with_capacity(n_residues),
            })
            .collect();
        // Stride partition sizes are fixed by (n, m): complex `c` holds the
        // sorted positions `c, c + m, c + 2m, …` — offsets computed once.
        let m = n_complexes.max(1);
        let mut complex_offsets = Vec::with_capacity(m + 1);
        complex_offsets.push(0usize);
        for c in 0..m {
            let count = n_members / m + usize::from(c < n_members % m);
            complex_offsets.push(complex_offsets[c] + count);
        }
        // RNG handles get a placeholder stream; every pipeline phase
        // overwrites its members' handles from its own derived factory
        // before drawing.
        let placeholder = StreamRngFactory::new(0).stream(0, 0);
        PopulationArena {
            n_members,
            stride,
            n_blocks,
            ccd_block_width,
            torsions: vec![0.0; n_members * stride],
            cand_torsions: vec![0.0; n_members * stride],
            scores: vec![ScoreVector::default(); n_members],
            cand_scores: vec![ScoreVector::default(); n_members],
            fitness: vec![f64::INFINITY; n_members],
            strength: vec![0.0; n_members],
            front: vec![false; n_members],
            front_members: Vec::with_capacity(n_members),
            closure_dev: vec![f64::INFINITY; n_members],
            cand_closure_dev: vec![f64::INFINITY; n_members],
            rmsd: vec![f64::INFINITY; n_members],
            cand_rmsd: vec![f64::INFINITY; n_members],
            accepted: vec![false; n_members],
            cand_converged: vec![false; n_members],
            healthy: vec![true; n_members],
            proposed_moves: vec![0; n_members],
            accepted_moves: vec![0; n_members],
            ccd_start: vec![0; n_members],
            env_totals: vec![0.0; n_members * (n_residues + 1)],
            burial_counts: vec![0; n_members * n_residues],
            built_residues: vec![0; n_members],
            rngs: vec![placeholder; n_members],
            order: Vec::with_capacity(n_members),
            complex_of: vec![0; n_members],
            complex_pos: vec![0; n_members],
            complex_scores: vec![ScoreVector::default(); n_members],
            complex_offsets,
            complex_strength: vec![0.0; n_members],
            complex_front: vec![false; n_members],
            complex_fitness: vec![0.0; n_members],
            complex_front_members: Vec::with_capacity(n_members),
            slots,
            ccd_blocks: vec![CcdBatchScratch::new(); n_blocks],
        }
    }

    /// Population size.
    pub fn n_members(&self) -> usize {
        self.n_members
    }

    /// Torsion-lane stride (`2 × n_residues`).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of CCD lockstep blocks ([`PopulationArena::ccd_block_width`]
    /// members each, the final block possibly smaller).
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Members per CCD lockstep block, as reported by the executor backend
    /// this arena was allocated for.
    pub fn ccd_block_width(&self) -> usize {
        self.ccd_block_width
    }

    /// Residues per member (the checkpoint lanes hold one more running
    /// total than this).
    pub(crate) fn n_residues(&self) -> usize {
        self.stride / 2
    }

    /// The member range of one closure block.
    #[cfg(test)]
    fn block_range(&self, block: usize) -> std::ops::Range<usize> {
        let lo = block * self.ccd_block_width;
        lo..((lo + self.ccd_block_width).min(self.n_members))
    }

    /// Hand every member's scoring scratch back to `pool` (a controlled
    /// run calls it once, on its one exit path).
    pub(crate) fn release_scratches(&mut self, pool: Option<&ScratchPool>) {
        if let Some(pool) = pool {
            pool.release_all(
                self.slots
                    .iter_mut()
                    .map(|s| std::mem::take(&mut s.scratch)),
            );
        }
    }

    /// Drain the arena into the final population, one
    /// [`Conformation`](crate::conformation::Conformation) per member.
    pub(crate) fn into_population(self) -> Vec<crate::conformation::Conformation> {
        (0..self.n_members)
            .map(|i| crate::conformation::Conformation {
                torsions: Torsions::from_flat(
                    self.torsions[i * self.stride..(i + 1) * self.stride].to_vec(),
                ),
                scores: self.scores[i],
                closure_deviation: self.closure_dev[i],
                fitness: self.fitness[i],
                rmsd_to_native: self.rmsd[i],
                accepted_moves: self.accepted_moves[i],
                proposed_moves: self.proposed_moves[i],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_layout_and_block_partition() {
        let arena = PopulationArena::new(20, 12, 3, 3, None, 8);
        assert_eq!(arena.n_members(), 20);
        assert_eq!(arena.stride(), 24);
        assert_eq!(arena.torsions.len(), 20 * 24);
        assert_eq!(arena.n_blocks(), 3);
        assert_eq!(arena.ccd_block_width(), 8);
        assert_eq!(arena.block_range(0), 0..8);
        assert_eq!(arena.block_range(2), 16..20);
        // CSR complex partition: stride partition of 20 over 3 complexes is
        // 7 + 7 + 6 sorted positions.
        assert_eq!(arena.complex_offsets, vec![0, 7, 14, 20]);
        // Checkpoint lanes: 13 running totals and 12 burial counts each.
        assert_eq!(arena.env_totals.len(), 20 * 13);
        assert_eq!(arena.burial_counts.len(), 20 * 12);
        assert_eq!(arena.n_residues(), 12);
    }

    #[test]
    fn arena_block_partition_follows_runtime_width() {
        let arena = PopulationArena::new(20, 12, 3, 3, None, 6);
        assert_eq!(arena.ccd_block_width(), 6);
        assert_eq!(arena.n_blocks(), 4);
        assert_eq!(arena.block_range(0), 0..6);
        assert_eq!(arena.block_range(3), 18..20);
        assert_eq!(arena.ccd_blocks.len(), 4);
    }

    #[test]
    fn into_population_round_trips_member_state() {
        let mut arena = PopulationArena::new(3, 2, 2, 1, None, 8);
        for i in 0..3 {
            for k in 0..4 {
                arena.torsions[i * 4 + k] = (i * 4 + k) as f64 * 0.25;
            }
            arena.scores[i] = ScoreVector::new(i as f64, 1.0, 2.0);
            arena.fitness[i] = i as f64;
            arena.closure_dev[i] = 0.1 * i as f64;
            arena.rmsd[i] = 1.0 + i as f64;
            arena.proposed_moves[i] = 5;
            arena.accepted_moves[i] = i;
        }
        let population = arena.into_population();
        assert_eq!(population.len(), 3);
        assert_eq!(population[1].torsions.as_slice(), &[1.0, 1.25, 1.5, 1.75]);
        assert_eq!(population[2].scores.vdw(), 2.0);
        assert_eq!(population[2].accepted_moves, 2);
        assert_eq!(population[0].proposed_moves, 5);
    }
}
