//! Discrete count distributions: the `F_t(n)` models of the paper.
//!
//! Each alert type `t` has a distribution over the number of benign alerts
//! raised per audit period. The paper's synthetic evaluation uses a Gaussian
//! "discretized on the x-axis" and truncated to a 99.5% coverage window
//! (Section IV.A); the real-data evaluations fit distributions from logs.
//!
//! # Sampling
//!
//! A draw of a tabulated family ([`DiscretizedGaussian`], [`Poisson`],
//! [`Zipf`], [`Empirical`], [`Mixture`]) takes one uniform
//! `u = rng.gen::<f64>()` and inverts the CDF: it returns the smallest
//! count `n` whose running sum `pmf(support_min) + … + pmf(n)`, added left
//! to right from `0.0`, reaches `u`, or `support_max` when rounding leaves
//! the last sum below `u`. Each family stores those running sums once, at
//! construction, in a `CdfTable` built from its own `pmf`, and a draw
//! returns `support_min + #{k : sums[k] < u}`, capped at `support_max`.
//! Every pmf value is finite and non-negative (construction asserts it), so
//! the sums never decrease: the sums below `u` form a prefix, and its
//! length is exactly the index where a state-by-state walk comparing
//! `u <= sum` stops. The count reads every entry with no data-dependent
//! branch and consumes the same single uniform per draw, so every bank and
//! runtime stream is the one the walk drew, bit for bit.

use crate::normal::{normal_cdf, normal_quantile};
use crate::snapshot::DistParams;
use rand::Rng;

/// Most states a decoded distribution's support may span (see
/// [`DistParams::instantiate`]), and the most states [`Poisson::new`]
/// tries before it gives up on truncating the support. Registry and refit
/// supports span at most a few hundred states; the bound keeps a forged
/// snapshot from allocating a pmf and a sampling table of `2^40` entries.
pub const MAX_SUPPORT_STATES: u64 = 1 << 16;

/// The running pmf sums of a count law over its support: the exact
/// inverse-CDF sampler of every tabulated family (see the module docs).
#[derive(Debug, Clone)]
struct CdfTable {
    /// The smallest count of the support.
    min: u64,
    /// `sums[k] = pmf(min) + … + pmf(min + k)`, added left to right from
    /// `0.0`.
    sums: Vec<f64>,
}

impl CdfTable {
    /// The table of no states, a placeholder until [`CdfTable::of`] fills
    /// it.
    const EMPTY: CdfTable = CdfTable {
        min: 0,
        sums: Vec::new(),
    };

    /// Tabulate `d`'s own `pmf` over `support_min..=support_max`.
    ///
    /// # Panics
    ///
    /// When a pmf value is negative or not finite: the sums could then
    /// decrease, and the count would no longer be where the walk stops.
    fn of(d: &dyn CountDistribution) -> Self {
        let min = d.support_min();
        let mut acc = 0.0;
        let sums = (min..=d.support_max())
            .map(|n| {
                let p = d.pmf(n);
                assert!(
                    p.is_finite() && p >= 0.0,
                    "pmf({n}) = {p} is not a finite non-negative mass"
                );
                acc += p;
                acc
            })
            .collect();
        Self { min, sums }
    }

    /// The count for uniform `u`: `min` plus the number of sums below `u`,
    /// capped at the last state.
    #[inline]
    fn invert(&self, u: f64) -> u64 {
        let below: usize = self.sums.iter().map(|&s| usize::from(s < u)).sum();
        self.min + below.min(self.sums.len() - 1) as u64
    }

    /// Draw one count from one uniform.
    #[inline]
    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        self.invert(rng.gen())
    }
}

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
    ///
    /// The tabulated families draw one uniform `u` and return the smallest
    /// count whose running pmf sum from `support_min` reaches `u`, through
    /// their `CdfTable`; the count equals the walk's stopping index
    /// because the running sums never decrease (see the module docs).
    /// [`Constant`] draws nothing and [`UniformCount`] draws through
    /// `gen_range`. Banks and runtime streams are pinned to these rules.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64;

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
    table: CdfTable,
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
        Self::try_on_window(mean, std, lo, hi).expect("truncation window carries no mass")
    }

    /// [`DiscretizedGaussian::on_window`] for `std > 0` and `hi >= lo`, or
    /// `None` when the window carries no mass.
    pub(crate) fn try_on_window(mean: f64, std: f64, lo: u64, hi: u64) -> Option<Self> {
        let mut pmf: Vec<f64> = (lo..=hi)
            .map(|n| {
                let hi_edge = normal_cdf(n as f64 + 0.5, mean, std);
                let lo_edge = normal_cdf(n as f64 - 0.5, mean, std);
                (hi_edge - lo_edge).max(0.0)
            })
            .collect();
        let total: f64 = pmf.iter().sum();
        if total <= 0.0 {
            return None;
        }
        for p in &mut pmf {
            *p /= total;
        }
        let mut d = Self {
            mean,
            std,
            lo,
            hi,
            pmf,
            table: CdfTable::EMPTY,
        };
        d.table = CdfTable::of(&d);
        Some(d)
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

    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        self.table.sample(rng)
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
#[derive(Debug, Clone)]
pub struct Empirical {
    /// `weights[n]` is the number of observed periods with exactly `n` alerts.
    weights: Vec<u64>,
    total: u64,
    table: CdfTable,
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
        Self::from_histogram(weights)
    }

    /// Build directly from a histogram `weights[n] = #periods with n alerts`.
    pub fn from_histogram(weights: Vec<u64>) -> Self {
        let total = histogram_mass(&weights).expect("histogram mass overflows u64");
        assert!(total > 0, "histogram must contain mass");
        let mut d = Self {
            weights,
            total,
            table: CdfTable::EMPTY,
        };
        d.table = CdfTable::of(&d);
        d
    }
}

/// The number of periods a histogram counts, or `None` when it overflows
/// `u64`.
pub(crate) fn histogram_mass(weights: &[u64]) -> Option<u64> {
    weights.iter().try_fold(0u64, |acc, &w| acc.checked_add(w))
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

    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        self.table.sample(rng)
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
    table: CdfTable,
}

impl Poisson {
    /// Construct with a mass cutoff: the support is truncated at the
    /// smallest `n` with cumulative untruncated mass ≥ `1 − 1e-9`, then
    /// renormalized.
    ///
    /// # Panics
    ///
    /// When `lambda` is not positive, or when the cutoff is not reached
    /// within [`MAX_SUPPORT_STATES`] states (from `λ ≈ 745` on, `e^{-λ}`
    /// underflows and the running mass never grows).
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        Self::try_new(lambda).expect("Poisson support truncation failed to converge")
    }

    /// [`Poisson::new`] for `lambda > 0`, or `None` when the cutoff is not
    /// reached within [`MAX_SUPPORT_STATES`] states.
    pub(crate) fn try_new(lambda: f64) -> Option<Self> {
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
            if n >= MAX_SUPPORT_STATES {
                return None;
            }
        }
        let total: f64 = pmf.iter().sum();
        for q in &mut pmf {
            *q /= total;
        }
        let mut d = Self {
            lambda,
            cap: n,
            pmf,
            table: CdfTable::EMPTY,
        };
        d.table = CdfTable::of(&d);
        Some(d)
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

    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        self.table.sample(rng)
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
    table: CdfTable,
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
        let mut d = Self {
            exponent,
            cap,
            pmf,
            table: CdfTable::EMPTY,
        };
        d.table = CdfTable::of(&d);
        d
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

    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        self.table.sample(rng)
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
    table: CdfTable,
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
        Self::tabled(
            components
                .into_iter()
                .map(|(w, d)| (w / total, d))
                .collect(),
        )
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
        Self::tabled(components)
    }

    /// The mixture of normalized components, with its sampling table.
    fn tabled(components: Vec<(f64, std::sync::Arc<dyn CountDistribution>)>) -> Self {
        let mut d = Self {
            components,
            table: CdfTable::EMPTY,
        };
        d.table = CdfTable::of(&d);
        d
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

    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        self.table.sample(rng)
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

    /// The reference inverse-CDF walk: add `pmf(n)` from `0.0` and stop at
    /// the first `n` whose running sum reaches `u`, or at `support_max`.
    /// Every table must draw exactly where it stops.
    fn walk(d: &dyn CountDistribution, u: f64) -> u64 {
        let mut acc = 0.0;
        for n in d.support_min()..=d.support_max() {
            acc += d.pmf(n);
            if u <= acc {
                return n;
            }
        }
        d.support_max()
    }

    /// An RNG that returns one fixed word, so `gen::<f64>()` yields
    /// `(word >> 11) * 2^-53`.
    struct FixedWord(u64);

    impl rand::RngCore for FixedWord {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(self.0 as u8);
        }
    }

    #[test]
    fn tables_draw_exactly_where_the_walk_stops() {
        use std::sync::Arc;
        let gaussian = DiscretizedGaussian::on_window(179.0, 46.0, 41, 317);
        let narrow = DiscretizedGaussian::with_halfwidth(6.0, 2.0, 5);
        let poisson = Poisson::new(6.0);
        let zipf = Zipf::new(1.8, 40);
        let holes = Empirical::from_histogram(vec![0, 3, 0, 0, 5, 1, 0, 0, 2, 0, 4]);
        // Seven sevenths add up to 1 − 2^-52: the last sum rounds below 1.
        let short = Empirical::from_histogram(vec![1; 7]);
        let mixture = Mixture::new(vec![
            (
                5.0,
                Arc::new(Poisson::new(6.0)) as Arc<dyn CountDistribution>,
            ),
            (2.0, Arc::new(Poisson::new(2.0))),
            (
                1.0,
                Arc::new(DiscretizedGaussian::with_halfwidth(9.0, 2.5, 6)),
            ),
        ]);
        let cases: [(&dyn CountDistribution, &CdfTable); 7] = [
            (&gaussian, &gaussian.table),
            (&narrow, &narrow.table),
            (&poisson, &poisson.table),
            (&zipf, &zipf.table),
            (&holes, &holes.table),
            (&short, &short.table),
            (&mixture, &mixture.table),
        ];
        assert_eq!(holes.pmf(0), 0.0, "the first state carries no mass");
        let below_one = 1.0 - f64::EPSILON / 2.0;
        assert!(*short.table.sums.last().unwrap() < below_one);
        assert_eq!(short.table.invert(below_one), short.support_max());
        for (d, table) in cases {
            assert_eq!(
                table.sums.len() as u64,
                d.support_max() - d.support_min() + 1
            );
            let mut us = vec![0.0, below_one];
            for &s in &table.sums {
                us.extend([s.next_down(), s, s.next_up()]);
            }
            us.retain(|u| (0.0..1.0).contains(u));
            for &u in &us {
                assert_eq!(table.invert(u), walk(d, u), "u = {u:e}");
                // `gen::<f64>()` only yields multiples of 2^-53: drive the
                // lattice points on either side of `u` through `sample`.
                let k = (u * (1u64 << 53) as f64) as u64;
                for k in [k, k + 1].into_iter().filter(|&k| k < 1 << 53) {
                    let lattice = k as f64 / (1u64 << 53) as f64;
                    assert_eq!(
                        d.sample(&mut FixedWord(k << 11)),
                        walk(d, lattice),
                        "u = {lattice:e}"
                    );
                }
            }
        }
    }
}
