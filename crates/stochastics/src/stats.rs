//! Summary statistics used by the experiment harness and tests, plus the
//! [`StreamingMoments`] accumulator behind the online runtime's
//! per-alert-type distribution tracking.

/// Single-pass (Welford) accumulator of count moments.
///
/// The online auditing runtime observes one alert-count vector per period
/// and cannot afford to re-scan history each epoch; this accumulator keeps
/// exact running moments in O(1) state. Updates are deterministic and
/// order-dependent in the usual floating-point sense — the runtime always
/// feeds observations in period order, so reruns are bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingMoments {
    n: u64,
    mean: f64,
    m2: f64,
    max: u64,
}

impl StreamingMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observed count into the running moments.
    pub fn push(&mut self, x: u64) {
        self.n += 1;
        let xf = x as f64;
        let delta = xf - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (xf - self.mean);
        self.max = self.max.max(x);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample standard deviation, with the same degenerate-sample
    /// floor as [`crate::fit::sample_std`] so downstream Gaussian fits stay
    /// well-defined.
    pub fn sample_std(&self) -> f64 {
        const FLOOR: f64 = 1e-6;
        if self.n < 2 {
            return FLOOR;
        }
        (self.m2 / (self.n - 1) as f64).sqrt().max(FLOOR)
    }

    /// Largest observation seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw second central moment accumulator (`Σ (x−mean)²` in Welford
    /// form) — exposed for persistence so an accumulator can be restored
    /// bit-for-bit across a service restart.
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Reassemble an accumulator from its persisted state. The inverse of
    /// reading `count()`/`mean()`/`m2()`/`max()`: subsequent `push` calls
    /// continue exactly where the saved accumulator left off.
    pub fn from_parts(n: u64, mean: f64, m2: f64, max: u64) -> Self {
        Self { n, mean, m2, max }
    }
}

/// Mean of a slice of f64 values.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|&x| (x - m).powi(2)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Minimum of a slice (panics on empty input or NaNs).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .min_by(|a, b| a.partial_cmp(b).expect("NaN in min"))
        .expect("min of empty slice")
}

/// Maximum of a slice (panics on empty input or NaNs).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .max_by(|a, b| a.partial_cmp(b).expect("NaN in max"))
        .expect("max of empty slice")
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Mean absolute relative deviation `1/n Σ |approx_i − exact_i| / |exact_i|`.
///
/// This is the γ quality metric of Section IV.C (Table VI) expressed as a
/// *deviation*; the paper reports `γ = 1 − deviation` as "precision". Pairs
/// whose exact value is (numerically) zero are skipped, as relative error is
/// undefined there.
pub fn mean_relative_deviation(approx: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(approx.len(), exact.len(), "length mismatch");
    let mut total = 0.0;
    let mut n = 0usize;
    for (&a, &e) in approx.iter().zip(exact) {
        if e.abs() > 1e-12 {
            total += (a - e).abs() / e.abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        let expected_sd = (5.0f64 / 3.0).sqrt();
        assert!((std_dev(&xs) - expected_sd).abs() < 1e-12);
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 4.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn relative_deviation_matches_hand_computation() {
        let exact = [10.0, -5.0, 0.0];
        let approx = [11.0, -4.0, 3.0];
        // |1|/10 + |1|/5 over 2 usable pairs = (0.1 + 0.2)/2.
        let d = mean_relative_deviation(&approx, &exact);
        assert!((d - 0.15).abs() < 1e-12);
    }

    #[test]
    fn deviation_zero_for_identical() {
        let xs = [1.0, 2.0, -3.0];
        assert_eq!(mean_relative_deviation(&xs, &xs), 0.0);
    }

    #[test]
    fn std_dev_of_singleton_is_zero() {
        assert_eq!(std_dev(&[7.0]), 0.0);
    }

    #[test]
    fn streaming_moments_match_batch_statistics() {
        let obs = [2u64, 4, 4, 4, 5, 5, 7, 9];
        let mut acc = StreamingMoments::new();
        for &o in &obs {
            acc.push(o);
        }
        assert_eq!(acc.count(), 8);
        assert_eq!(acc.max(), 9);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this sample is 32/7 (see fit.rs).
        assert!((acc.sample_std() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn streaming_moments_restore_from_parts_continues_exactly() {
        let obs = [2u64, 4, 4, 4, 5, 5, 7, 9];
        let mut whole = StreamingMoments::new();
        let mut first = StreamingMoments::new();
        for &o in &obs[..4] {
            whole.push(o);
            first.push(o);
        }
        let mut resumed =
            StreamingMoments::from_parts(first.count(), first.mean(), first.m2(), first.max());
        for &o in &obs[4..] {
            whole.push(o);
            resumed.push(o);
        }
        assert_eq!(resumed, whole);
        assert_eq!(resumed.mean().to_bits(), whole.mean().to_bits());
        assert_eq!(resumed.m2().to_bits(), whole.m2().to_bits());
    }

    #[test]
    fn streaming_moments_degenerate_floor() {
        let mut acc = StreamingMoments::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert!(acc.sample_std() > 0.0);
        acc.push(5);
        assert!(acc.sample_std() > 0.0);
        acc.push(5);
        acc.push(5);
        assert!(acc.sample_std() > 0.0 && acc.sample_std() < 1e-3);
    }
}
