//! # lms-bench
//!
//! The experiment harness: shared scaffolding used by the binaries that
//! regenerate every table and figure of the paper, and by the Criterion
//! benches.
//!
//! Each harness binary accepts a scale argument (`quick`, `standard`,
//! `paper`; anything else is a usage error) selecting how close the run is
//! to the paper's full operating point.  `quick` finishes in seconds and is
//! the default so that the whole experiment suite can be exercised
//! routinely; `paper` uses the published population sizes and iteration
//! counts (population 15,360, 100 iterations) and takes correspondingly
//! long on a CPU-only host.

#![warn(missing_docs)]

use lms_core::{MoscemSampler, SamplerConfig};
use lms_protein::{BenchmarkLibrary, LoopTarget, TargetSpec};
use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig};
use std::sync::{Arc, OnceLock};

pub mod artifact;
pub mod experiments;
pub mod gtx280;
pub mod profiler;
pub mod regression;
pub mod timing;

/// How far an experiment run is scaled toward the paper's operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke run (default).
    Quick,
    /// Minutes-long run with meaningful statistics.
    Standard,
    /// The paper's published parameters (hours on a CPU-only host).
    Paper,
}

impl Scale {
    /// Parse a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "quick" | "q" => Some(Scale::Quick),
            "standard" | "std" | "s" => Some(Scale::Standard),
            "paper" | "full" | "p" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Parse the scale from harness arguments (program name excluded):
    /// `--scale <name>`, `--scale=<name>` or a bare `<name>`, with no
    /// arguments selecting [`Scale::Quick`].  A missing or unknown scale and
    /// any other argument are errors.
    pub fn from_arg_list(args: &[String]) -> Result<Scale, String> {
        let name = match args {
            [] => return Ok(Scale::Quick),
            [flag] if flag == "--scale" => return Err("--scale needs a value".to_string()),
            [flag, name] if flag == "--scale" => name.as_str(),
            [arg] => arg.strip_prefix("--scale=").unwrap_or(arg),
            _ => return Err(format!("unexpected arguments {args:?}")),
        };
        Scale::parse(name).ok_or_else(|| format!("unknown scale {name:?}"))
    }

    /// Read the scale from the process arguments (see
    /// [`Scale::from_arg_list`]), exiting with a usage error on bad input.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::from_arg_list(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: [--scale] quick|standard|paper");
            std::process::exit(2)
        })
    }

    /// Population size used by single-trajectory experiments at this scale.
    pub fn population(&self) -> usize {
        match self {
            Scale::Quick => 128,
            Scale::Standard => 1024,
            Scale::Paper => 15_360,
        }
    }

    /// Number of complexes for the population above (keeps the paper's
    /// 128-member complexes).
    pub fn n_complexes(&self) -> usize {
        (self.population() / 128).max(1)
    }

    /// Iteration count at this scale.
    pub fn iterations(&self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Standard => 40,
            Scale::Paper => 100,
        }
    }

    /// Independent trajectories per configuration (Figure 3 uses 32).
    pub fn trajectories(&self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Standard => 8,
            Scale::Paper => 32,
        }
    }

    /// Decoy-set size targeted by the Table IV protocol (paper: 1,000).
    pub fn decoy_target(&self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Standard => 250,
            Scale::Paper => 1_000,
        }
    }

    /// Maximum trajectories allowed while filling a decoy set.
    pub fn max_trajectories(&self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Standard => 12,
            Scale::Paper => 64,
        }
    }
}

/// The knowledge base shared by every experiment (built once per process).
pub fn shared_kb() -> Arc<KnowledgeBase> {
    static KB: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
    Arc::clone(KB.get_or_init(|| KnowledgeBase::build(KnowledgeBaseConfig::default())))
}

/// A variant of `base` whose environment is scaled `factor`× by filling the
/// candidate reach sphere with extra atoms at constant density (clear of
/// the native loop), emulating the rest of a full-size protein: every
/// extra atom lands in the candidate set, but the density *local* to any
/// loop site stays roughly that of the base shell.  Deterministic in
/// `factor` (fixed internal seed), so every bench sees the same scaled
/// environments.
pub fn scaled_env_target(base: &LoopTarget, factor: usize) -> LoopTarget {
    use lms_protein::{EnvAtom, Environment, ENV_CONTACT_MARGIN};
    use rand::Rng;

    let mut atoms = base.environment.atoms().to_vec();
    if factor > 1 {
        let n_extra = atoms.len() * (factor - 1);
        let mut rng = lms_geometry::StreamRngFactory::new(77).stream(factor as u64, 0);
        let center = base.frame.n_anchor.ca;
        let reach = base.reach_radius() + ENV_CONTACT_MARGIN - 1.0;
        let native = base.native_structure.backbone_atoms();
        let mut placed = 0usize;
        while placed < n_extra {
            let v = lms_geometry::Vec3::new(
                rng.gen::<f64>() * 2.0 - 1.0,
                rng.gen::<f64>() * 2.0 - 1.0,
                rng.gen::<f64>() * 2.0 - 1.0,
            );
            let n = v.norm();
            if !(1e-3..=1.0).contains(&n) {
                continue;
            }
            // Uniform in the ball: direction × reach × ∛u.
            let pos = center + (v / n) * (reach * rng.gen::<f64>().cbrt());
            if native.iter().any(|a| a.distance(pos) < 4.0) {
                continue;
            }
            atoms.push(EnvAtom::backbone(pos, 1.7));
            placed += 1;
        }
    }
    LoopTarget {
        environment: Arc::new(Environment::new(atoms)),
        env_cache: Default::default(),
        ..base.clone()
    }
}

/// The benchmark library shared by every experiment.
pub fn benchmark_library() -> BenchmarkLibrary {
    BenchmarkLibrary::standard()
}

/// Load one benchmark target by name, panicking with a clear message if the
/// name is unknown.
pub fn load_target(name: &str) -> LoopTarget {
    benchmark_library()
        .target_by_name(name)
        .unwrap_or_else(|| panic!("target {name:?} is not in the 53-loop benchmark"))
}

/// The 1cex loop region starting at residue 40, generated at loop length
/// `len` (12 is the benchmark's 1cex target): the loop-length axis of the
/// bench writers.
pub fn target_of_len(len: usize) -> LoopTarget {
    let spec = TargetSpec {
        name: "1cex",
        start: 40,
        len,
        buried: false,
    };
    benchmark_library().generate(&spec)
}

/// A sampler configuration matching the given scale for one target.
pub fn scaled_config(scale: Scale, seed: u64) -> SamplerConfig {
    SamplerConfig::builder()
        .population_size(scale.population())
        .n_complexes(scale.n_complexes())
        .iterations(scale.iterations())
        .seed(seed)
        .build()
        .expect("scaled configs are always valid")
}

/// Build a sampler for a named target at the given scale.
pub fn sampler_for(name: &str, scale: Scale, seed: u64) -> MoscemSampler {
    MoscemSampler::new(load_target(name), shared_kb(), scaled_config(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("STANDARD"), Some(Scale::Standard));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn scale_arguments_reject_bad_input() {
        let parse = |args: &[&str]| {
            Scale::from_arg_list(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(parse(&[]), Ok(Scale::Quick));
        assert_eq!(parse(&["paper"]), Ok(Scale::Paper));
        assert_eq!(parse(&["--scale", "standard"]), Ok(Scale::Standard));
        assert_eq!(parse(&["--scale=quick"]), Ok(Scale::Quick));
        for bad in [
            &["--scale", "papr"][..],
            &["--scale"],
            &["--scale="],
            &["papr"],
            &["--scale", "quick", "extra"],
            &["--verbose"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn paper_scale_matches_published_parameters() {
        assert_eq!(Scale::Paper.population(), 15_360);
        assert_eq!(Scale::Paper.n_complexes(), 120);
        assert_eq!(Scale::Paper.iterations(), 100);
        assert_eq!(Scale::Paper.trajectories(), 32);
        assert_eq!(Scale::Paper.decoy_target(), 1_000);
    }

    #[test]
    fn quick_scale_is_small() {
        assert!(Scale::Quick.population() <= 256);
        assert!(Scale::Quick.iterations() <= 20);
        let cfg = scaled_config(Scale::Quick, 7);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn shared_kb_is_reused() {
        let a = shared_kb();
        let b = shared_kb();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn load_target_known_and_unknown() {
        let t = load_target("1cex");
        assert_eq!(t.label(), "1cex(40:51)");
        let result = std::panic::catch_unwind(|| load_target("zzzz"));
        assert!(result.is_err());
    }
}
