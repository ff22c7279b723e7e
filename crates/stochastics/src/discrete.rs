//! Discrete count distributions: the `F_t(n)` models of the paper.
//!
//! Each alert type `t` has a distribution over the number of benign alerts
//! raised per audit period. The paper's synthetic evaluation uses a Gaussian
//! "discretized on the x-axis" and truncated to a 99.5% coverage window
//! (Section IV.A); the real-data evaluations fit distributions from logs.

use crate::normal::{normal_cdf, normal_quantile};
use crate::snapshot::DistParams;
use rand::Rng;

/// A distribution over non-negative integer alert counts.
///
/// Implementors must provide a *finite* support upper bound: the paper's
/// search procedures rely on a count `n` with `F_t(n) ≈ 1` to bound audit
/// thresholds (Section III-B).
pub trait CountDistribution: Send + Sync {
    /// Probability mass at exactly `n` alerts.
    fn pmf(&self, n: u64) -> f64;

    /// `F_t(n)`: probability that **at most** `n` alerts are generated.
    fn cdf(&self, n: u64) -> f64 {
        (0..=n).map(|k| self.pmf(k)).sum()
    }

    /// Smallest count `n` such that `F_t(n) ≥ 1 − tail` (the coverage bound).
    fn coverage_bound(&self, tail: f64) -> u64 {
        let target = 1.0 - tail;
        let mut n = 0;
        let mut acc = 0.0;
        let hard_cap = self.support_max();
        loop {
            acc += self.pmf(n);
            if acc >= target || n >= hard_cap {
                return n;
            }
            n += 1;
        }
    }

    /// Largest count with non-zero mass (finite by construction).
    fn support_max(&self) -> u64;

    /// Smallest count with non-zero mass.
    fn support_min(&self) -> u64 {
        0
    }

    /// Expected count.
    fn mean(&self) -> f64 {
        (self.support_min()..=self.support_max())
            .map(|n| n as f64 * self.pmf(n))
            .sum()
    }

    /// Draw one realization.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        // Inverse-CDF sampling over the finite support. O(support) worst
        // case, which is fine for the count magnitudes in this workspace
        // (supports are at most a few hundred states).
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for n in self.support_min()..=self.support_max() {
            acc += self.pmf(n);
            if u <= acc {
                return n;
            }
        }
        self.support_max()
    }

    /// Constructor parameters for persistence, or `None` when the
    /// distribution cannot be snapshotted. All models in this crate
    /// override this; custom downstream distributions that keep the
    /// default fail persistence with a typed error instead of silently
    /// degrading.
    fn snapshot_params(&self) -> Option<DistParams> {
        None
    }
}

/// Gaussian N(mean, std²) discretized to integer counts and truncated to a
/// symmetric coverage window, mirroring the Syn A construction: "we
/// discretize the x-axis of each alerts cumulative distribution function"
/// and "consider the 99.5% probability coverage ... to obtain a finite upper
/// bound" (Section IV.A).
///
/// Mass of integer `n` is `Φ((n+½−μ)/σ) − Φ((n−½−μ)/σ)` renormalized over
/// the truncated support `[max(0, μ−w), μ+w]`.
#[derive(Debug, Clone)]
pub struct DiscretizedGaussian {
    mean: f64,
    std: f64,
    lo: u64,
    hi: u64,
    /// Pre-computed normalized pmf over `[lo, hi]`.
    pmf: Vec<f64>,
}

impl DiscretizedGaussian {
    /// Construct with an explicit truncation half-width `w` (the paper's
    /// "99.5% coverage" column, e.g. ±5 for Syn A type 1).
    pub fn with_halfwidth(mean: f64, std: f64, halfwidth: u64) -> Self {
        assert!(std > 0.0, "std must be positive");
        assert!(mean >= 0.0, "mean must be non-negative");
        let lo = (mean.round() as i64 - halfwidth as i64).max(0) as u64;
        let hi = mean.round() as u64 + halfwidth;
        Self::on_window(mean, std, lo, hi)
    }

    /// Construct by choosing the truncation window so that it captures at
    /// least `coverage` (e.g. 0.995) of the underlying Gaussian mass.
    pub fn with_coverage(mean: f64, std: f64, coverage: f64) -> Self {
        assert!(
            coverage > 0.0 && coverage < 1.0,
            "coverage must be in (0,1)"
        );
        let tail = (1.0 - coverage) / 2.0;
        let halfwidth = (normal_quantile(1.0 - tail, 0.0, 1.0) * std)
            .ceil()
            .max(1.0) as u64;
        Self::with_halfwidth(mean, std, halfwidth)
    }

    /// Construct over an explicit integer window `[lo, hi]`.
    pub fn on_window(mean: f64, std: f64, lo: u64, hi: u64) -> Self {
        assert!(std > 0.0, "std must be positive");
        assert!(hi >= lo, "window must be non-empty");
        let mut pmf: Vec<f64> = (lo..=hi)
            .map(|n| {
                let hi_edge = normal_cdf(n as f64 + 0.5, mean, std);
                let lo_edge = normal_cdf(n as f64 - 0.5, mean, std);
                (hi_edge - lo_edge).max(0.0)
            })
            .collect();
        let total: f64 = pmf.iter().sum();
        assert!(total > 0.0, "truncation window carries no mass");
        for p in &mut pmf {
            *p /= total;
        }
        Self {
            mean,
            std,
            lo,
            hi,
            pmf,
        }
    }

    /// The underlying Gaussian mean parameter.
    pub fn gaussian_mean(&self) -> f64 {
        self.mean
    }

    /// The underlying Gaussian standard deviation parameter.
    pub fn gaussian_std(&self) -> f64 {
        self.std
    }
}

impl CountDistribution for DiscretizedGaussian {
    fn pmf(&self, n: u64) -> f64 {
        if n < self.lo || n > self.hi {
            0.0
        } else {
            self.pmf[(n - self.lo) as usize]
        }
    }

    fn support_max(&self) -> u64 {
        self.hi
    }

    fn support_min(&self) -> u64 {
        self.lo
    }

    fn snapshot_params(&self) -> Option<DistParams> {
        // `with_halfwidth` / `with_coverage` both resolve to `on_window`,
        // so (mean, std, lo, hi) reconstructs any path bit-exactly.
        Some(DistParams::Gaussian {
            mean: self.mean,
            std: self.std,
            lo: self.lo,
            hi: self.hi,
        })
    }
}

/// Empirical distribution over observed per-period counts (used for the
/// real-data experiments, where `F_t` "can be obtained from historical alert
/// logs", Section II-A).
#[derive(Debug, Clone, Default)]
pub struct Empirical {
    /// `weights[n]` is the number of observed periods with exactly `n` alerts.
    weights: Vec<u64>,
    total: u64,
}

impl Empirical {
    /// Build from raw per-period observations.
    pub fn from_observations(obs: &[u64]) -> Self {
        assert!(!obs.is_empty(), "need at least one observation");
        let max = *obs.iter().max().expect("non-empty");
        let mut weights = vec![0u64; (max + 1) as usize];
        for &o in obs {
            weights[o as usize] += 1;
        }
        Self {
            total: obs.len() as u64,
            weights,
        }
    }

    /// Build directly from a histogram `weights[n] = #periods with n alerts`.
    pub fn from_histogram(weights: Vec<u64>) -> Self {
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "histogram must contain mass");
        Self { weights, total }
    }
}

impl CountDistribution for Empirical {
    fn pmf(&self, n: u64) -> f64 {
        self.weights
            .get(n as usize)
            .map(|&w| w as f64 / self.total as f64)
            .unwrap_or(0.0)
    }

    fn support_max(&self) -> u64 {
        (self.weights.len() as u64).saturating_sub(1)
    }

    fn snapshot_params(&self) -> Option<DistParams> {
        Some(DistParams::Empirical {
            weights: self.weights.clone(),
        })
    }
}

/// Poisson(λ) truncated at a high quantile so the support is finite.
///
/// Useful as an alternative benign-workload model in the TDMT substrate and
/// for sensitivity analyses of the Gaussian assumption.
#[derive(Debug, Clone)]
pub struct Poisson {
    lambda: f64,
    cap: u64,
    pmf: Vec<f64>,
}

impl Poisson {
    /// Construct with a mass cutoff: the support is truncated at the
    /// smallest `n` with cumulative untruncated mass ≥ `1 − 1e-9`, then
    /// renormalized.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        let mut pmf = Vec::new();
        // Iterative pmf: p(0) = e^{-λ}, p(n) = p(n-1)·λ/n.
        let mut p = (-lambda).exp();
        let mut acc = 0.0;
        let mut n = 0u64;
        loop {
            pmf.push(p);
            acc += p;
            if acc >= 1.0 - 1e-9 && n as f64 > lambda {
                break;
            }
            n += 1;
            p *= lambda / n as f64;
            if n > 10_000_000 {
                panic!("Poisson support truncation failed to converge");
            }
        }
        let total: f64 = pmf.iter().sum();
        for q in &mut pmf {
            *q /= total;
        }
        Self {
            lambda,
            cap: n,
            pmf,
        }
    }

    /// The rate parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl CountDistribution for Poisson {
    fn pmf(&self, n: u64) -> f64 {
        self.pmf.get(n as usize).copied().unwrap_or(0.0)
    }

    fn support_max(&self) -> u64 {
        self.cap
    }

    fn mean(&self) -> f64 {
        // Exact within truncation error; overridden to avoid the O(support)
        // default when callers only need the parameter.
        self.lambda
    }

    fn snapshot_params(&self) -> Option<DistParams> {
        // `new(lambda)` derives the cap deterministically, so λ suffices.
        Some(DistParams::Poisson {
            lambda: self.lambda,
        })
    }
}

/// Truncated discrete power law ("Zipf-like") over `[0, cap]`:
/// `pmf(n) ∝ (n + 1)^{-s}`, renormalized.
///
/// A heavy-tailed benign-count model: most periods raise few alerts, but
/// rare bursts reach far into the tail — the regime where the Gaussian
/// assumption of the paper's synthetic data is most stressed. Used by the
/// `syn-heavy-tail` scenario.
#[derive(Debug, Clone)]
pub struct Zipf {
    exponent: f64,
    cap: u64,
    pmf: Vec<f64>,
}

impl Zipf {
    /// Power law with the given exponent `s > 0`, truncated at `cap`.
    pub fn new(exponent: f64, cap: u64) -> Self {
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "exponent must be positive"
        );
        let mut pmf: Vec<f64> = (0..=cap)
            .map(|n| ((n + 1) as f64).powf(-exponent))
            .collect();
        let total: f64 = pmf.iter().sum();
        for p in &mut pmf {
            *p /= total;
        }
        Self { exponent, cap, pmf }
    }

    /// The tail exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }
}

impl CountDistribution for Zipf {
    fn pmf(&self, n: u64) -> f64 {
        self.pmf.get(n as usize).copied().unwrap_or(0.0)
    }

    fn support_max(&self) -> u64 {
        self.cap
    }

    fn snapshot_params(&self) -> Option<DistParams> {
        Some(DistParams::Zipf {
            exponent: self.exponent,
            cap: self.cap,
        })
    }
}

/// Finite mixture of count distributions with fixed weights.
///
/// This is the *marginal* model matching the correlated/seasonal joint
/// samplers: when counts are drawn by first picking a latent regime (or a
/// season phase) and then sampling each type from the regime's component,
/// each type's marginal law is exactly this mixture. Keeping the marginal
/// in `GameSpec::distributions` keeps threshold bounds and validation
/// consistent with what the joint sample bank actually produces.
#[derive(Clone)]
pub struct Mixture {
    components: Vec<(f64, std::sync::Arc<dyn CountDistribution>)>,
}

impl std::fmt::Debug for Mixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mixture")
            .field("n_components", &self.components.len())
            .field(
                "weights",
                &self.components.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Mixture {
    /// Build from `(weight, component)` pairs; weights are renormalized.
    pub fn new(components: Vec<(f64, std::sync::Arc<dyn CountDistribution>)>) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            total.is_finite() && total > 0.0,
            "mixture weights must have positive finite mass"
        );
        assert!(
            components.iter().all(|(w, _)| *w >= 0.0),
            "mixture weights must be non-negative"
        );
        Self {
            components: components
                .into_iter()
                .map(|(w, d)| (w / total, d))
                .collect(),
        }
    }

    /// Build from **already-normalized** `(weight, component)` pairs,
    /// trusting the weights bit-for-bit. This is the snapshot-restore
    /// path: [`Mixture::new`] divides by the total, and re-dividing
    /// persisted normalized weights would perturb their low bits and
    /// break bit-exact reconstruction.
    pub fn from_normalized(components: Vec<(f64, std::sync::Arc<dyn CountDistribution>)>) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            (total - 1.0).abs() < 1e-6 && components.iter().all(|(w, _)| *w >= 0.0),
            "weights must already be normalized"
        );
        Self { components }
    }
}

impl CountDistribution for Mixture {
    fn pmf(&self, n: u64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pmf(n)).sum()
    }

    fn support_max(&self) -> u64 {
        self.components
            .iter()
            .map(|(_, d)| d.support_max())
            .max()
            .expect("non-empty mixture")
    }

    fn support_min(&self) -> u64 {
        self.components
            .iter()
            .map(|(_, d)| d.support_min())
            .min()
            .expect("non-empty mixture")
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn snapshot_params(&self) -> Option<DistParams> {
        // The *internal* (normalized) weights are persisted; restore goes
        // through `from_normalized` so they survive bit-for-bit.
        self.components
            .iter()
            .map(|(w, d)| d.snapshot_params().map(|p| (*w, p)))
            .collect::<Option<Vec<_>>>()
            .map(|components| DistParams::Mixture { components })
    }
}

/// Deterministic count (used by the NP-hardness reduction, which sets
/// `Z_t = 1` with probability 1 for every type; Appendix, Theorem 1).
#[derive(Debug, Clone, Copy)]
pub struct Constant(pub u64);

impl CountDistribution for Constant {
    fn pmf(&self, n: u64) -> f64 {
        if n == self.0 {
            1.0
        } else {
            0.0
        }
    }

    fn support_max(&self) -> u64 {
        self.0
    }

    fn support_min(&self) -> u64 {
        self.0
    }

    fn mean(&self) -> f64 {
        self.0 as f64
    }

    fn sample(&self, _rng: &mut dyn rand::RngCore) -> u64 {
        self.0
    }

    fn snapshot_params(&self) -> Option<DistParams> {
        Some(DistParams::Constant(self.0))
    }
}

/// Uniform distribution over the integer range `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
pub struct UniformCount {
    lo: u64,
    hi: u64,
}

impl UniformCount {
    /// Uniform over `[lo, hi]` inclusive.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(hi >= lo, "hi must be >= lo");
        Self { lo, hi }
    }
}

impl CountDistribution for UniformCount {
    fn pmf(&self, n: u64) -> f64 {
        if n >= self.lo && n <= self.hi {
            1.0 / (self.hi - self.lo + 1) as f64
        } else {
            0.0
        }
    }

    fn support_max(&self) -> u64 {
        self.hi
    }

    fn support_min(&self) -> u64 {
        self.lo
    }

    fn mean(&self) -> f64 {
        (self.lo + self.hi) as f64 / 2.0
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        rng.gen_range(self.lo..=self.hi)
    }

    fn snapshot_params(&self) -> Option<DistParams> {
        Some(DistParams::Uniform {
            lo: self.lo,
            hi: self.hi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn total_mass(d: &dyn CountDistribution) -> f64 {
        (d.support_min()..=d.support_max()).map(|n| d.pmf(n)).sum()
    }

    #[test]
    fn discretized_gaussian_normalizes() {
        let d = DiscretizedGaussian::with_halfwidth(6.0, 2.0, 5);
        assert!((total_mass(&d) - 1.0).abs() < 1e-12);
        assert_eq!(d.support_min(), 1);
        assert_eq!(d.support_max(), 11);
    }

    #[test]
    fn discretized_gaussian_mean_close_to_parameter() {
        let d = DiscretizedGaussian::with_halfwidth(6.0, 2.0, 5);
        assert!((d.mean() - 6.0).abs() < 0.05, "mean = {}", d.mean());
    }

    #[test]
    fn discretized_gaussian_mode_at_mean() {
        let d = DiscretizedGaussian::with_halfwidth(5.0, 1.6, 4);
        let mode = (d.support_min()..=d.support_max())
            .max_by(|&a, &b| d.pmf(a).partial_cmp(&d.pmf(b)).unwrap())
            .unwrap();
        assert_eq!(mode, 5);
    }

    #[test]
    fn discretized_gaussian_clips_at_zero() {
        // mean 1, halfwidth 5 would extend to -4; support must start at 0.
        let d = DiscretizedGaussian::with_halfwidth(1.0, 2.0, 5);
        assert_eq!(d.support_min(), 0);
        assert!((total_mass(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_constructor_covers() {
        let d = DiscretizedGaussian::with_coverage(10.0, 3.0, 0.995);
        // Window must hold at least ~99.5% of an untruncated Gaussian, so
        // the halfwidth must be >= 2.81σ ≈ 8.4 → 9.
        assert!(d.support_max() >= 19);
    }

    #[test]
    fn cdf_reaches_one() {
        let d = DiscretizedGaussian::with_halfwidth(4.0, 1.3, 3);
        assert!((d.cdf(d.support_max()) - 1.0).abs() < 1e-12);
        assert!(d.cdf(3) < 1.0);
    }

    #[test]
    fn coverage_bound_hits_support_max_for_tiny_tail() {
        let d = DiscretizedGaussian::with_halfwidth(4.0, 1.0, 3);
        assert_eq!(d.coverage_bound(0.0), d.support_max());
    }

    #[test]
    fn empirical_roundtrip() {
        let obs = [3u64, 3, 4, 5, 5, 5, 7];
        let d = Empirical::from_observations(&obs);
        assert!((d.pmf(5) - 3.0 / 7.0).abs() < 1e-12);
        assert!((d.pmf(0)).abs() < 1e-12);
        assert_eq!(d.support_max(), 7);
        assert!((total_mass(&d) - 1.0).abs() < 1e-12);
        let emp_mean = obs.iter().sum::<u64>() as f64 / obs.len() as f64;
        assert!((d.mean() - emp_mean).abs() < 1e-12);
    }

    #[test]
    fn empirical_from_histogram() {
        let d = Empirical::from_histogram(vec![0, 2, 2]);
        assert!((d.pmf(1) - 0.5).abs() < 1e-12);
        assert!((d.cdf(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn poisson_mass_and_mean() {
        let d = Poisson::new(4.0);
        assert!((total_mass(&d) - 1.0).abs() < 1e-9);
        let empirical_mean: f64 = (0..=d.support_max()).map(|n| n as f64 * d.pmf(n)).sum();
        assert!((empirical_mean - 4.0).abs() < 1e-6);
    }

    #[test]
    fn constant_is_degenerate() {
        let d = Constant(1);
        assert_eq!(d.sample(&mut seeded_rng(0)), 1);
        assert!((d.cdf(0)).abs() < 1e-12);
        assert!((d.cdf(1) - 1.0).abs() < 1e-12);
        assert_eq!(d.coverage_bound(0.005), 1);
    }

    #[test]
    fn uniform_bounds() {
        let d = UniformCount::new(2, 5);
        assert!((total_mass(&d) - 1.0).abs() < 1e-12);
        assert!((d.mean() - 3.5).abs() < 1e-12);
        let mut rng = seeded_rng(1);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!((2..=5).contains(&s));
        }
    }

    #[test]
    fn sampling_matches_pmf() {
        let d = DiscretizedGaussian::with_halfwidth(6.0, 2.0, 5);
        let mut rng = seeded_rng(7);
        let n = 200_000;
        let mut hist = vec![0u64; (d.support_max() + 1) as usize];
        for _ in 0..n {
            hist[d.sample(&mut rng) as usize] += 1;
        }
        for k in d.support_min()..=d.support_max() {
            let freq = hist[k as usize] as f64 / n as f64;
            assert!(
                (freq - d.pmf(k)).abs() < 0.01,
                "count {k}: freq {freq} vs pmf {}",
                d.pmf(k)
            );
        }
    }

    #[test]
    fn zipf_normalizes_and_is_heavy_tailed() {
        let d = Zipf::new(1.8, 40);
        assert!((total_mass(&d) - 1.0).abs() < 1e-12);
        assert_eq!(d.support_max(), 40);
        // Monotone decreasing mass, but with a genuinely fat tail: the top
        // decile of the support keeps non-trivial mass compared to a
        // same-mean Gaussian.
        assert!(d.pmf(0) > d.pmf(1));
        assert!(d.pmf(36) > 0.0);
        let tail: f64 = (30..=40).map(|n| d.pmf(n)).sum();
        assert!(tail > 1e-3, "tail mass {tail} collapsed");
    }

    #[test]
    fn mixture_matches_component_average() {
        use std::sync::Arc;
        let d = Mixture::new(vec![
            (0.25, Arc::new(Constant(2)) as Arc<dyn CountDistribution>),
            (0.75, Arc::new(Constant(6))),
        ]);
        assert!((d.pmf(2) - 0.25).abs() < 1e-12);
        assert!((d.pmf(6) - 0.75).abs() < 1e-12);
        assert!((d.mean() - 5.0).abs() < 1e-12);
        assert_eq!(d.support_min(), 2);
        assert_eq!(d.support_max(), 6);
        assert!((total_mass(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_renormalizes_weights() {
        use std::sync::Arc;
        let d = Mixture::new(vec![
            (2.0, Arc::new(Constant(1)) as Arc<dyn CountDistribution>),
            (6.0, Arc::new(Constant(3))),
        ]);
        assert!((d.pmf(1) - 0.25).abs() < 1e-12);
        assert!((d.pmf(3) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coverage_bound_monotone_in_tail() {
        let d = Poisson::new(9.0);
        assert!(d.coverage_bound(0.10) <= d.coverage_bound(0.01));
        assert!(d.coverage_bound(0.01) <= d.coverage_bound(0.001));
    }
}
