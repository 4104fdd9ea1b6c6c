//! MCMC convergence diagnostics.
//!
//! The paper remarks that "MCMC equilibrium analysis techniques can also be
//! applied to study the convergence of the sampler".  This module supplies
//! the diagnostic the sampler reports:
//!
//! [`gelman_rubin`], the Gelman–Rubin potential scale-reduction factor (R̂)
//! across the complexes' score traces (MOSCEM's complexes are exactly the
//! parallel chains the diagnostic expects); a trajectory reports it as
//! `TrajectoryResult::gelman_rubin_vdw`.

/// Mean of a slice (0 for empty input).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance (0 for fewer than two points).
fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Gelman–Rubin potential scale reduction factor across `chains`, each a
/// trace of a scalar quantity (e.g. one objective's per-complex mean over
/// iterations).  Values near 1 indicate the chains have mixed; values well
/// above 1 mean the sampler has not converged.  Returns `None` when fewer
/// than two chains or fewer than two samples per chain are supplied, or when
/// chain lengths differ.
pub fn gelman_rubin(chains: &[Vec<f64>]) -> Option<f64> {
    let m = chains.len();
    if m < 2 {
        return None;
    }
    let n = chains[0].len();
    if n < 2 || chains.iter().any(|c| c.len() != n) {
        return None;
    }

    let chain_means: Vec<f64> = chains.iter().map(|c| mean(c)).collect();
    let grand_mean = mean(&chain_means);
    // Between-chain variance.
    let b = n as f64 / (m as f64 - 1.0)
        * chain_means
            .iter()
            .map(|cm| (cm - grand_mean).powi(2))
            .sum::<f64>();
    // Within-chain variance.
    let w = chains.iter().map(|c| variance(c)).sum::<f64>() / m as f64;
    if w <= 1e-300 {
        // Degenerate: all chains constant.  Identical constants are
        // perfectly converged; different constants are maximally divergent.
        return Some(if b <= 1e-300 { 1.0 } else { f64::INFINITY });
    }
    let var_plus = (n as f64 - 1.0) / n as f64 * w + b / n as f64;
    Some((var_plus / w).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelman_rubin_near_one_for_identical_chains() {
        let chain: Vec<f64> = (0..100).map(|i| ((i * 37 % 17) as f64) * 0.1).collect();
        let r = gelman_rubin(&[chain.clone(), chain.clone(), chain]).unwrap();
        assert!((r - 1.0).abs() < 0.05, "R-hat {r}");
    }

    #[test]
    fn gelman_rubin_large_for_separated_chains() {
        let a: Vec<f64> = (0..50).map(|i| (i % 5) as f64 * 0.01).collect();
        let b: Vec<f64> = (0..50).map(|i| 100.0 + (i % 5) as f64 * 0.01).collect();
        let r = gelman_rubin(&[a, b]).unwrap();
        assert!(r > 10.0, "separated chains should give huge R-hat, got {r}");
    }

    #[test]
    fn gelman_rubin_degenerate_inputs() {
        assert!(gelman_rubin(&[]).is_none());
        assert!(gelman_rubin(&[vec![1.0, 2.0]]).is_none());
        assert!(gelman_rubin(&[vec![1.0, 2.0], vec![1.0]]).is_none());
        // Identical constant chains: converged.
        assert_eq!(gelman_rubin(&[vec![3.0; 10], vec![3.0; 10]]), Some(1.0));
        // Different constant chains: divergent.
        assert_eq!(
            gelman_rubin(&[vec![1.0; 10], vec![2.0; 10]]),
            Some(f64::INFINITY)
        );
    }
}
