//! Counting-allocator proof of the zero-allocation invariant: after
//! warm-up, one member-iteration of the evolution kernel's work —
//! mutation into a reused candidate buffer, CCD closure into a reused
//! structure (rigid-body sweeps plus one exact spine rebuild per sweep),
//! workspace scoring through the environment's per-cell candidate lists, and
//! allocation-free RMSD — performs zero heap allocations.
//!
//! Two proofs: the full member-iteration on a surface target, and a
//! dense-environment (buried-target) variant that drives the incremental
//! `rebuild_from` path and the per-site candidate-list reads directly, so
//! neither optimization can silently regress into allocating.
//!
//! The counter is per thread: the test harness runs proofs concurrently,
//! and a process-wide count would charge each proof with its siblings'
//! allocations.  Every proof runs its kernels on the calling thread (the
//! scalar backend, or a one-thread parallel executor), so the calling thread's
//! count is the whole story.

use lms_closure::{CcdCloser, CcdConfig};
use lms_core::{MoscemSampler, MutationConfig, Mutator, RunControls, SamplerConfig};
use lms_geometry::StreamRngFactory;
use lms_protein::{BenchmarkLibrary, LoopBuilder, LoopStructure, RamaClass, Torsions};
use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, MultiScorer, ScoreScratch, VdwScore};
use lms_simt::ExecutorConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A system allocator that counts allocation calls per thread.
struct CountingAllocator;

thread_local! {
    // `const`-initialised and drop-free, so touching it from inside the
    // allocator can never allocate or recurse.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` tolerates allocations made while this thread's locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn member_iteration_is_allocation_free_after_warmup() {
    // Build everything the evolution kernel needs (allocations allowed).
    let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
    let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
    let scorer = MultiScorer::new(kb);
    let builder = LoopBuilder::default();
    let closer = CcdCloser::new(
        builder,
        CcdConfig::new()
            .with_max_sweeps(24)
            .with_tolerance(0.25)
            .with_start_index(0),
    );
    let mutator = Mutator::new(MutationConfig::default());
    let classes: Vec<RamaClass> = target.sequence.iter().map(|aa| aa.rama_class()).collect();
    let factory = StreamRngFactory::new(42);

    // Per-member persistent buffers, exactly as `Member` holds them.
    let n_res = target.n_residues();
    let mut current = target.native_torsions.clone();
    let mut cand = Torsions::zeros(n_res);
    let mut indices: Vec<usize> = Vec::with_capacity(8);
    let mut structure = LoopStructure::with_capacity(n_res);
    let mut scratch = ScoreScratch::for_loop_len(n_res);

    // Warm up: the first pass may size buffers and fill the per-target
    // environment-candidate cache.
    target.env_candidates();
    let member_iteration = |iter: u64,
                            current: &mut Torsions,
                            cand: &mut Torsions,
                            indices: &mut Vec<usize>,
                            structure: &mut LoopStructure,
                            scratch: &mut ScoreScratch| {
        let mut rng = factory.stream(0, iter);
        let ccd_start = mutator.mutate_into(current, &classes, &mut rng, cand, indices);
        let ccd =
            closer.close_with_scratch(&target.frame, &target.sequence, cand, ccd_start, structure);
        let scores = scorer.evaluate_with(&target, structure, cand, scratch);
        let rmsd = target.rmsd_to_native(structure);
        assert!(scores.is_finite());
        assert!(rmsd.is_finite());
        if ccd.final_deviation <= 0.75 {
            std::mem::swap(current, cand);
        }
    };
    for iter in 0..3 {
        member_iteration(
            iter,
            &mut current,
            &mut cand,
            &mut indices,
            &mut structure,
            &mut scratch,
        );
    }

    // Steady state: not a single allocation across many member-iterations.
    let before = allocation_count();
    for iter in 3..40 {
        member_iteration(
            iter,
            &mut current,
            &mut cand,
            &mut indices,
            &mut structure,
            &mut scratch,
        );
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "evolution-kernel member-iterations allocated {} times after warm-up",
        after - before
    );
}

#[test]
fn incremental_rebuild_and_cell_list_paths_are_allocation_free() {
    // The buried 1xyz target has the densest environment in the benchmark,
    // so its candidate set (and therefore the candidate lists) is the
    // largest the sampler ever sees.  Drive the two new hot paths directly:
    // suffix-only `rebuild_from` at every angle index, and the VDW
    // environment term through the per-site candidate-list reads.
    let target = BenchmarkLibrary::standard().target_by_name("1xyz").unwrap();
    let builder = LoopBuilder::default();
    let vdw = VdwScore::default();
    let n_res = target.n_residues();
    let mut torsions = target.native_torsions.clone();
    let mut structure = target.build(&builder, &torsions);
    let mut scratch = ScoreScratch::for_loop_len(n_res);

    // Warm up: builds the env-candidate cache (with its per-cell lists) and
    // sizes the site buffers.
    target.env_candidates();
    let pass = |structure: &mut LoopStructure,
                torsions: &mut Torsions,
                scratch: &mut ScoreScratch,
                step: f64| {
        for k in 0..torsions.n_angles() {
            torsions.rotate_angle(k, step);
            builder.rebuild_from(&target.frame, &target.sequence, torsions, k, structure);
            let term = vdw.environment_term(&target, structure, scratch);
            assert!(term.is_finite());
        }
    };
    pass(&mut structure, &mut torsions, &mut scratch, 0.05);

    let before = allocation_count();
    for i in 0..8 {
        pass(
            &mut structure,
            &mut torsions,
            &mut scratch,
            -0.05 + 0.01 * i as f64,
        );
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "incremental rebuild / cell-list scoring allocated {} times after warm-up",
        after - before
    );
    // The suffix rebuilds tracked the full rebuild exactly the whole way.
    assert_eq!(structure, target.build(&builder, &torsions));
}

#[test]
fn scratch_reused_across_targets_stays_allocation_free_after_rewarm() {
    // Regression guard for cross-target scratch reuse: a scratch warmed up
    // on a small-environment target and then moved to a target with many
    // more candidates must, after ONE warm-up evaluation on the new target,
    // go back to allocating nothing — no scratch buffer scales with the
    // environment, whose lists are read in place from the target's cache.
    let lib = BenchmarkLibrary::standard();
    let small = lib.target_by_name("1cex").unwrap();
    let dense = lib.target_by_name("1xyz").unwrap();
    assert!(
        dense.env_candidates().len() > small.env_candidates().len(),
        "test premise: 1xyz must have the larger candidate set"
    );
    let builder = LoopBuilder::default();
    let vdw = VdwScore::default();
    let mut scratch = ScoreScratch::for_loop_len(small.n_residues());

    let s_small = small.build(&builder, &small.native_torsions);
    let s_dense = dense.build(&builder, &dense.native_torsions);
    // Warm on the small target, then one re-warm evaluation on the dense
    // one (may allocate: the site buffers regrow).
    vdw.environment_term(&small, &s_small, &mut scratch);
    vdw.environment_term(&dense, &s_dense, &mut scratch);

    let before = allocation_count();
    for _ in 0..16 {
        let term = vdw.environment_term(&dense, &s_dense, &mut scratch);
        assert!(term.is_finite());
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "cross-target scratch reuse allocated {} times after re-warm-up",
        after - before
    );
}

#[test]
fn burial_enabled_scoring_is_allocation_free_after_warmup() {
    // The fourth objective's shared path (Cα-site list filters + the
    // per-residue count buffer) must preserve the zero-allocation invariant
    // on the densest-environment target.
    let target = BenchmarkLibrary::standard().target_by_name("1xyz").unwrap();
    let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
    let scorer = MultiScorer::new(kb).with_burial(true);
    let builder = LoopBuilder::default();
    let n_res = target.n_residues();
    let mut torsions = target.native_torsions.clone();
    let mut structure = target.build(&builder, &torsions);
    let mut scratch = ScoreScratch::for_loop_len(n_res);

    target.env_candidates();
    let pass = |structure: &mut LoopStructure,
                torsions: &mut Torsions,
                scratch: &mut ScoreScratch,
                step: f64| {
        for k in 0..torsions.n_angles() {
            torsions.rotate_angle(k, step);
            builder.rebuild_from(&target.frame, &target.sequence, torsions, k, structure);
            let scores = scorer.evaluate_with(&target, structure, torsions, scratch);
            assert!(scores.is_finite());
            assert!(scores.burial() != 0.0, "buried target must score burial");
        }
    };
    pass(&mut structure, &mut torsions, &mut scratch, 0.05);

    let before = allocation_count();
    for i in 0..8 {
        pass(
            &mut structure,
            &mut torsions,
            &mut scratch,
            -0.05 + 0.01 * i as f64,
        );
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "burial-enabled scoring allocated {} times after warm-up",
        after - before
    );
}

#[test]
fn staged_arena_pipeline_is_allocation_free_after_warmup() {
    // The population-batched pipeline's claim is stronger than the
    // per-member one: not just each member-iteration but the *entire staged
    // iteration* — sort/partition, the six kernel launches over the SoA
    // arena, acceptance statistics, traces, transfers and the fitness
    // kernel — reuses arena buffers allocated at trajectory start.  Sample
    // the allocation counter from the per-iteration progress callback and
    // require exact zero growth across steady-state iterations.
    //
    // The invariant must hold for every block partition of the population
    // (the default width, a non-divisor width with a ragged final block,
    // single-member blocks) and on the pooled parallel dispatch.  Executors
    // are pinned to one worker because the parallel dispatch path itself
    // spawns scoped threads (an allocation by design); the kernels it runs
    // are the same ones proven allocation-free here.
    let executor_configs = [
        ExecutorConfig::scalar(),
        ExecutorConfig::scalar().ccd_block_width(5),
        ExecutorConfig::scalar().ccd_block_width(1),
        ExecutorConfig::parallel().threads(1).ccd_block_width(6),
    ];
    for exec_cfg in executor_configs {
        let executor = exec_cfg.build().expect("valid executor config");
        let caps = executor.capabilities();
        let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
        let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
        let iterations = 10usize;
        let cfg = SamplerConfig::builder()
            .population_size(12)
            .n_complexes(2)
            .iterations(iterations)
            .seed(7)
            .build()
            .expect("valid test config");
        let sampler = MoscemSampler::new(target, kb, cfg);

        // The progress hook must be `Sync`; it runs on the calling thread,
        // so it samples that thread's count.
        let samples: Vec<AtomicUsize> = (0..=iterations).map(|_| AtomicUsize::new(0)).collect();
        let progress = |done: usize, _total: usize| {
            samples[done].store(allocation_count(), Ordering::Relaxed);
        };
        let controls = RunControls::new().progress(&progress);
        let result = sampler
            .run_controlled(&executor, 7, &controls)
            .expect("uncancelled run succeeds");
        assert_eq!(result.population.len(), 12);

        // Every iteration, the first included, must allocate exactly
        // nothing.
        for iter in 1..=iterations {
            let before = samples[iter - 1].load(Ordering::Relaxed);
            let after = samples[iter].load(Ordering::Relaxed);
            assert_eq!(
                after - before,
                0,
                "staged iteration {iter} on {caps} performed {} heap allocations",
                after - before
            );
        }
    }
}

#[test]
fn legacy_scoring_path_still_allocates_for_contrast() {
    // Sanity check that the counter actually observes allocations: the
    // legacy `evaluate` wrapper allocates its throwaway scratch.
    let target = BenchmarkLibrary::standard().target_by_name("5pti").unwrap();
    let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
    let scorer = MultiScorer::new(kb);
    let structure = target.build(&LoopBuilder::default(), &target.native_torsions);
    let before = allocation_count();
    let scores = scorer.evaluate(&target, &structure, &target.native_torsions);
    assert!(scores.is_finite());
    let after = allocation_count();
    assert!(
        after > before,
        "legacy path should allocate; counter broken?"
    );
}
