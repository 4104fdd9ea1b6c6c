//! Modeling a user-defined loop: build a loop target from your own anchor
//! geometry and sequence (rather than the built-in benchmark), sample it,
//! and write the best decoy to a PDB file.
//!
//! Run with: `cargo run --release --example custom_loop`

use lms::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Error> {
    // In a real application the anchors and environment come from the host
    // protein's crystal structure; here we borrow plausible anchor geometry
    // from a benchmark target and define our own 10-residue loop sequence.
    let donor = BenchmarkLibrary::standard()
        .target_by_name("1ads")
        .expect("1ads exists");
    let sequence = parse_sequence("GSTAKDLQVW").expect("valid one-letter codes");
    assert_eq!(
        sequence.len(),
        donor.n_residues(),
        "keep the donor anchor spacing"
    );

    // A reference conformation to measure RMSD against (for a genuinely new
    // loop this would be unknown; we reuse the donor's native torsions so
    // the example can report a meaningful number).
    let builder = LoopBuilder::default();
    let frame: LoopFrame = donor.frame;
    let reference_torsions: Torsions = donor.native_torsions.clone();
    let reference_structure = builder.build(&frame, &sequence, &reference_torsions);

    let target = LoopTarget {
        name: "custom".to_string(),
        start_res: 1,
        end_res: sequence.len(),
        sequence: sequence.clone(),
        frame,
        // Borrow the donor's fixed surroundings too (cheap: Arc-shared), so
        // the burial objective below has a real environment to count
        // contacts against.  Use `Arc::new(Environment::empty())` for an
        // isolated peptide.
        environment: Arc::clone(&donor.environment),
        native_torsions: reference_torsions,
        native_structure: reference_structure,
        buried: false,
        env_cache: Default::default(),
    };
    println!("custom target: {target}");
    println!(
        "anchor gap to bridge: {:.2} A",
        frame.n_anchor.c.distance(frame.c_anchor.n)
    );

    let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
    // `.burial_objective(true)` turns on the fourth scoring function: each
    // residue's environment contact number scored against its residue
    // type's knowledge-based burial reference.  The counts are filtered from
    // the candidate lists the VDW pass already reads, so the extra objective
    // is nearly free; leave it off (the default) to match the paper's
    // three-objective setup exactly.
    let config = SamplerConfig::builder()
        .population_size(96)
        .n_complexes(2)
        .iterations(12)
        .seed(314)
        .burial_objective(true)
        .build()?;
    let sampler = MoscemSampler::try_new(target.clone(), kb, config)?;
    // Under the hood every trajectory runs the staged population-batched
    // kernel pipeline (flat SoA member arena, one kernel launch per stage
    // per iteration).  That is purely an internal layout/execution change:
    // the API and the sampled trajectories are identical to the per-member
    // implementation — same seed, same decoys, bit for bit.
    let production = sampler.produce_decoys(
        &ExecutorConfig::parallel()
            .build()
            .expect("valid executor config"),
        30,
        3,
    );

    println!(
        "collected {} structurally distinct decoys in {} trajectories",
        production.decoys.len(),
        production.trajectories_run
    );
    if let Some(best) = production
        .decoys
        .decoys()
        .iter()
        .min_by(|a, b| a.rmsd_to_native.partial_cmp(&b.rmsd_to_native).unwrap())
    {
        println!(
            "best decoy: {:.2} A from the reference, scores {}",
            best.rmsd_to_native, best.scores
        );
        let structure = target.build(&builder, &best.torsions);
        let pdb = to_pdb(&structure, &sequence, 'A', 1);
        let path = "results/custom_loop_best.pdb";
        std::fs::create_dir_all("results").ok();
        std::fs::write(path, pdb).expect("write PDB");
        println!(
            "wrote {path} (closure deviation {:.2} A)",
            target.closure_deviation(&structure)
        );
    }

    // Example torsion check: every decoy satisfies the loop-closure
    // condition within the sampler's tolerance.
    let worst_closure = production
        .decoys
        .decoys()
        .iter()
        .map(|d| target.closure_deviation(&target.build(&builder, &d.torsions)))
        .fold(0.0f64, f64::max);
    println!("worst closure deviation across decoys: {worst_closure:.2} A");
    let limit = sampler.config().max_closure_deviation;
    assert!(
        worst_closure <= limit,
        "a decoy breaks the closure condition: {worst_closure} A > {limit} A"
    );
    Ok(())
}
