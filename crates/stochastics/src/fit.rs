//! Fitting count models from observed per-period alert counts.
//!
//! The paper obtains `F_t` "from historical alert logs" (Section II-A). The
//! TDMT substrate produces daily alert counts; these helpers turn them into
//! [`CountDistribution`](crate::CountDistribution) models usable by the game
//! solvers.

use crate::discrete::{DiscretizedGaussian, Empirical};

/// Sample mean of observed counts.
pub fn sample_mean(obs: &[u64]) -> f64 {
    assert!(!obs.is_empty(), "need at least one observation");
    obs.iter().sum::<u64>() as f64 / obs.len() as f64
}

/// Unbiased sample standard deviation of observed counts.
///
/// Returns a small positive floor when the sample is degenerate (fewer than
/// two observations or zero variance) so that downstream Gaussian fits stay
/// well-defined.
pub fn sample_std(obs: &[u64]) -> f64 {
    const FLOOR: f64 = 1e-6;
    if obs.len() < 2 {
        return FLOOR;
    }
    let mean = sample_mean(obs);
    let ss: f64 = obs.iter().map(|&o| (o as f64 - mean).powi(2)).sum();
    (ss / (obs.len() - 1) as f64).sqrt().max(FLOOR)
}

/// Moment-fit a [`DiscretizedGaussian`] from observations, truncating at the
/// requested coverage (the paper uses 99.5%).
pub fn fit_discretized_gaussian(obs: &[u64], coverage: f64) -> DiscretizedGaussian {
    let mean = sample_mean(obs);
    let std = sample_std(obs).max(0.5); // keep at least one count of spread
    DiscretizedGaussian::with_coverage(mean, std, coverage)
}

/// Build the empirical distribution of observations directly.
pub fn fit_empirical(obs: &[u64]) -> Empirical {
    Empirical::from_observations(obs)
}

/// Moment-fit a [`DiscretizedGaussian`] directly from streamed moments —
/// the online counterpart of [`fit_discretized_gaussian`] used by the
/// auditing runtime, which tracks [`crate::stats::StreamingMoments`]
/// per alert type instead of materializing observation vectors.
pub fn fit_gaussian_from_moments(
    moments: &crate::stats::StreamingMoments,
    coverage: f64,
) -> DiscretizedGaussian {
    assert!(moments.count() > 0, "need at least one observation");
    let std = moments.sample_std().max(0.5); // keep at least one count of spread
    DiscretizedGaussian::with_coverage(moments.mean(), std, coverage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::CountDistribution;
    use crate::rng::seeded_rng;

    #[test]
    fn moments_of_simple_sample() {
        let obs = [2u64, 4, 4, 4, 5, 5, 7, 9];
        assert!((sample_mean(&obs) - 5.0).abs() < 1e-12);
        // Unbiased variance of this sample is 32/7.
        assert!((sample_std(&obs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_samples_get_floor() {
        assert!(sample_std(&[5]) > 0.0);
        assert!(sample_std(&[5, 5, 5, 5]) > 0.0);
    }

    #[test]
    fn gaussian_fit_recovers_parameters() {
        let truth = DiscretizedGaussian::with_halfwidth(20.0, 4.0, 12);
        let mut rng = seeded_rng(21);
        let obs: Vec<u64> = (0..5000).map(|_| truth.sample(&mut rng)).collect();
        let fit = fit_discretized_gaussian(&obs, 0.995);
        assert!(
            (fit.gaussian_mean() - 20.0).abs() < 0.3,
            "mean {}",
            fit.gaussian_mean()
        );
        assert!(
            (fit.gaussian_std() - 4.0).abs() < 0.4,
            "std {}",
            fit.gaussian_std()
        );
    }

    #[test]
    fn moment_fit_agrees_with_batch_fit() {
        let obs = [3u64, 5, 5, 6, 7, 7, 8, 11];
        let mut acc = crate::stats::StreamingMoments::new();
        for &o in &obs {
            acc.push(o);
        }
        let batch = fit_discretized_gaussian(&obs, 0.995);
        let streamed = fit_gaussian_from_moments(&acc, 0.995);
        assert!((batch.gaussian_mean() - streamed.gaussian_mean()).abs() < 1e-12);
        assert!((batch.gaussian_std() - streamed.gaussian_std()).abs() < 1e-12);
    }

    #[test]
    fn empirical_fit_matches_frequencies() {
        let obs = [1u64, 1, 2, 3, 3, 3];
        let fit = fit_empirical(&obs);
        assert!((fit.pmf(3) - 0.5).abs() < 1e-12);
        assert!((fit.pmf(1) - 1.0 / 3.0).abs() < 1e-12);
    }
}
