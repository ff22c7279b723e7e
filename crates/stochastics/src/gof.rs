//! Goodness-of-fit diagnostics for count models.
//!
//! [`ks_statistic`] is the discrete Kolmogorov–Smirnov sup-distance
//! between the empirical CDF of observed counts and a fitted
//! [`CountDistribution`]'s CDF. The online runtime's drift gate reads it
//! per alert type to decide whether the committed model still explains
//! the live workload.

use crate::discrete::CountDistribution;

/// Discrete Kolmogorov–Smirnov statistic `sup_n |F̂(n) − F(n)|`.
pub fn ks_statistic(obs: &[u64], model: &dyn CountDistribution) -> f64 {
    assert!(!obs.is_empty(), "need observations");
    let n = obs.len() as f64;
    let hi = model
        .support_max()
        .max(*obs.iter().max().expect("non-empty"));
    let mut sorted = obs.to_vec();
    sorted.sort_unstable();
    let mut worst: f64 = 0.0;
    let mut cum_model = 0.0;
    let mut idx = 0usize;
    for k in 0..=hi {
        cum_model += model.pmf(k);
        while idx < sorted.len() && sorted[idx] <= k {
            idx += 1;
        }
        let cum_emp = idx as f64 / n;
        worst = worst.max((cum_emp - cum_model).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::{DiscretizedGaussian, UniformCount};
    use crate::rng::seeded_rng;

    fn draws(d: &dyn CountDistribution, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn ks_small_for_matching_model() {
        let d = DiscretizedGaussian::with_halfwidth(6.0, 2.0, 5);
        let obs = draws(&d, 5000, 9);
        let ks = ks_statistic(&obs, &d);
        assert!(ks < 0.03, "KS {ks}");
    }

    #[test]
    fn ks_large_for_shifted_model() {
        let truth = DiscretizedGaussian::with_halfwidth(6.0, 2.0, 5);
        let shifted = DiscretizedGaussian::with_halfwidth(9.0, 2.0, 5);
        let obs = draws(&truth, 5000, 9);
        assert!(ks_statistic(&obs, &shifted) > 0.3);
    }

    #[test]
    fn ks_is_bounded_by_one() {
        let d = UniformCount::new(0, 3);
        let obs = vec![100u64; 50]; // far outside support
        let ks = ks_statistic(&obs, &d);
        assert!(ks <= 1.0 + 1e-12 && ks > 0.9);
    }
}
