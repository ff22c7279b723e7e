//! Streaming per-type distribution tracking and the drift gate.
//!
//! The service cannot afford to re-scan history each epoch, so it keeps
//! two views of the observed workload per alert type: exact lifetime
//! moments in O(1) state ([`StreamingMoments`]) and a sliding window of
//! the most recent periods. The window drives the drift gate (KS distance
//! of recent observations against the committed count model) and the
//! drift refit (a fresh moment-fit Gaussian, the paper's "from historical
//! alert logs" path applied online); the lifetime moments drive the
//! staleness-refresh refit ([`OnlineFit::refit_lifetime`]).

use std::sync::Arc;
use stochastics::gof::ks_statistic;
use stochastics::{fit_discretized_gaussian, CountDistribution, StreamingMoments};

/// Truncation coverage of the refit Gaussians (the paper's 99.5%).
pub const FIT_COVERAGE: f64 = 0.995;

/// Configuration of the drift gate.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Sliding-window length in periods. Short windows react to drift
    /// within a seasonal cycle; long windows average it away. The gate
    /// stays closed until the window is full.
    pub window_periods: usize,
    /// KS distance above which the committed model is declared broken.
    pub ks_threshold: f64,
    /// Force a refit + re-solve once the incumbent policy is this many
    /// epochs old, even without drift (a max-staleness refresh,
    /// recalibrating to the lifetime moments rather than the recent
    /// window — see [`OnlineFit::refit_lifetime`]). `None` disables the
    /// staleness path.
    pub max_stale_epochs: Option<usize>,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window_periods: 10,
            ks_threshold: 0.25,
            max_stale_epochs: None,
        }
    }
}

/// Per-type online distribution tracker: lifetime moments plus a sliding
/// window of recent per-period counts.
#[derive(Debug, Clone)]
pub struct OnlineFit {
    window_cap: usize,
    /// Per type, oldest first, at most `window_cap` entries.
    windows: Vec<Vec<u64>>,
    lifetime: Vec<StreamingMoments>,
    periods: usize,
}

impl OnlineFit {
    /// A tracker over `n_types` alert types with a `window_cap`-period
    /// sliding window.
    pub fn new(n_types: usize, window_cap: usize) -> Self {
        assert!(n_types > 0, "need at least one alert type");
        assert!(window_cap > 0, "window must hold at least one period");
        Self {
            window_cap,
            windows: vec![Vec::with_capacity(window_cap); n_types],
            lifetime: vec![StreamingMoments::new(); n_types],
            periods: 0,
        }
    }

    /// Fold one period's alert-count vector into the tracker.
    pub fn observe(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.windows.len(), "arity mismatch");
        for (t, &z) in row.iter().enumerate() {
            self.lifetime[t].push(z);
            if self.windows[t].len() == self.window_cap {
                self.windows[t].remove(0);
            }
            self.windows[t].push(z);
        }
        self.periods += 1;
    }

    /// Rebuild a tracker from persisted parts: the window capacity, the
    /// total period count, the per-type recent windows (oldest first) and
    /// the per-type lifetime moments. The inverse of walking
    /// [`OnlineFit::window`] / [`OnlineFit::lifetime`] — a tracker
    /// restored this way continues bit-identically to one that observed
    /// the same history live (see the checkpoint/restore path in
    /// [`crate::checkpoint`]).
    pub fn from_parts(
        window_cap: usize,
        periods: usize,
        windows: Vec<Vec<u64>>,
        lifetime: Vec<StreamingMoments>,
    ) -> Self {
        assert!(!windows.is_empty(), "need at least one alert type");
        assert!(window_cap > 0, "window must hold at least one period");
        assert_eq!(windows.len(), lifetime.len(), "arity mismatch");
        assert!(
            windows.iter().all(|w| w.len() <= window_cap.min(periods)),
            "window longer than its capacity or the observed history"
        );
        Self {
            window_cap,
            windows,
            lifetime,
            periods,
        }
    }

    /// Number of alert types tracked.
    pub fn n_types(&self) -> usize {
        self.windows.len()
    }

    /// Sliding-window capacity in periods.
    pub fn window_cap(&self) -> usize {
        self.window_cap
    }

    /// Total periods observed.
    pub fn periods(&self) -> usize {
        self.periods
    }

    /// Whether the sliding window has filled up (the drift gate arms only
    /// then — KS on a half-empty window is mostly noise).
    pub fn window_full(&self) -> bool {
        self.periods >= self.window_cap
    }

    /// The recent-period window of type `t`, oldest first.
    pub fn window(&self, t: usize) -> &[u64] {
        &self.windows[t]
    }

    /// Lifetime moments of type `t`.
    pub fn lifetime(&self, t: usize) -> &StreamingMoments {
        &self.lifetime[t]
    }

    /// Worst-type KS distance of the recent windows against the committed
    /// count models — the drift statistic the gate thresholds — with a
    /// degeneracy guard: a per-type statistic poisoned by non-finite model
    /// mass (e.g. a count model whose fit collapsed to NaN parameters
    /// under a degenerate window or an all-zero epoch) is clamped to 0.0
    /// ("no evidence of drift") instead of leaking NaN into the gate, and
    /// the returned flag records that the clamp fired so telemetry can
    /// surface it. The mass check is
    /// explicit because [`ks_statistic`]'s `f64::max` fold silently
    /// *swallows* NaN distances — without it a degenerate model would
    /// masquerade as a perfect fit. An empty window contributes 0.0
    /// without raising the flag (no data is not degeneracy).
    pub fn max_ks_guarded(&self, models: &[Arc<dyn CountDistribution>]) -> (f64, bool) {
        assert_eq!(models.len(), self.windows.len(), "arity mismatch");
        let mut degenerate = false;
        let max = self
            .windows
            .iter()
            .zip(models)
            .map(|(w, m)| {
                if w.is_empty() {
                    return 0.0;
                }
                let ks = ks_statistic(w, m.as_ref());
                let total_mass = m.cdf(m.support_max());
                if ks.is_finite() && total_mass.is_finite() {
                    ks
                } else {
                    degenerate = true;
                    0.0
                }
            })
            .fold(0.0, f64::max);
        (max, degenerate)
    }

    /// Refit one count model per type from the recent window (moment-fit
    /// discretized Gaussians at [`FIT_COVERAGE`], the paper's
    /// synthetic-model family) — the **drift** path: react to what just
    /// changed.
    pub fn refit(&self) -> Vec<Arc<dyn CountDistribution>> {
        self.windows
            .iter()
            .map(|w| {
                assert!(!w.is_empty(), "cannot refit before any observation");
                Arc::new(fit_discretized_gaussian(w, FIT_COVERAGE)) as Arc<dyn CountDistribution>
            })
            .collect()
    }

    /// Refit one count model per type from the **lifetime** streaming
    /// moments ([`stochastics::fit_gaussian_from_moments`]) — the
    /// **staleness-refresh** path: no drift was detected, so recalibrate
    /// to the long-run workload rather than chase the last window.
    pub fn refit_lifetime(&self) -> Vec<Arc<dyn CountDistribution>> {
        self.lifetime
            .iter()
            .map(|m| {
                assert!(m.count() > 0, "cannot refit before any observation");
                Arc::new(stochastics::fit_gaussian_from_moments(m, FIT_COVERAGE))
                    as Arc<dyn CountDistribution>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastics::{DiscretizedGaussian, Poisson};

    #[test]
    fn window_slides_and_lifetime_accumulates() {
        let mut fit = OnlineFit::new(2, 3);
        for i in 0..5u64 {
            fit.observe(&[i, 10 + i]);
        }
        assert_eq!(fit.periods(), 5);
        assert!(fit.window_full());
        assert_eq!(fit.window(0), &[2, 3, 4]);
        assert_eq!(fit.window(1), &[12, 13, 14]);
        assert_eq!(fit.lifetime(0).count(), 5);
        assert!((fit.lifetime(0).mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ks_flags_a_shifted_workload() {
        let calm: Arc<dyn CountDistribution> = Arc::new(Poisson::new(3.0));
        let mut fit = OnlineFit::new(1, 8);
        // Feed counts from a much busier regime than the committed model.
        for z in [9u64, 11, 10, 12, 9, 10, 11, 13] {
            fit.observe(&[z]);
        }
        assert!(fit.max_ks_guarded(std::slice::from_ref(&calm)).0 > 0.5);
        // A matching model scores low.
        let busy: Arc<dyn CountDistribution> =
            Arc::new(DiscretizedGaussian::with_halfwidth(10.6, 1.4, 4));
        assert!(fit.max_ks_guarded(std::slice::from_ref(&busy)).0 < 0.4);
    }

    #[test]
    fn refit_tracks_the_window_not_the_lifetime() {
        let mut fit = OnlineFit::new(1, 4);
        for _ in 0..20 {
            fit.observe(&[2]);
        }
        for _ in 0..4 {
            fit.observe(&[12]);
        }
        let models = fit.refit();
        assert!((models[0].mean() - 12.0).abs() < 1.0);
        // Lifetime still remembers the calm past.
        assert!(fit.lifetime(0).mean() < 5.0);
    }

    #[test]
    fn lifetime_refit_tracks_the_full_history() {
        let mut fit = OnlineFit::new(1, 4);
        for _ in 0..20 {
            fit.observe(&[2]);
        }
        for _ in 0..4 {
            fit.observe(&[12]);
        }
        // Window refit chases the burst; lifetime refit stays anchored to
        // the long-run mean (20·2 + 4·12)/24 ≈ 3.67.
        let windowed = fit.refit();
        let lifetime = fit.refit_lifetime();
        assert!(windowed[0].mean() > lifetime[0].mean() + 4.0);
        assert!((lifetime[0].mean() - 88.0 / 24.0).abs() < 1.0);
    }

    #[test]
    fn from_parts_continues_exactly_like_the_live_tracker() {
        let mut live = OnlineFit::new(2, 3);
        let history: Vec<[u64; 2]> = (0..7).map(|i| [i, 2 * i + 1]).collect();
        for row in &history[..4] {
            live.observe(row);
        }
        // Snapshot the tracker after 4 periods and rebuild it from parts.
        let mut restored = OnlineFit::from_parts(
            live.window_cap(),
            live.periods(),
            (0..live.n_types())
                .map(|t| live.window(t).to_vec())
                .collect(),
            (0..live.n_types()).map(|t| *live.lifetime(t)).collect(),
        );
        for row in &history[4..] {
            live.observe(row);
            restored.observe(row);
        }
        for t in 0..2 {
            assert_eq!(live.window(t), restored.window(t));
            assert_eq!(live.lifetime(t).count(), restored.lifetime(t).count());
            assert_eq!(
                live.lifetime(t).mean().to_bits(),
                restored.lifetime(t).mean().to_bits()
            );
        }
        assert_eq!(live.periods(), restored.periods());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_is_rejected() {
        let mut fit = OnlineFit::new(2, 4);
        fit.observe(&[1, 2, 3]);
    }

    /// A committed model whose mass is NaN: the KS statistic against any
    /// window is non-finite, which must clamp to "no drift" + flag, not
    /// leak NaN into the gate comparison (NaN > threshold is always
    /// false, which would silently disable max-staleness accounting in
    /// telemetry and poison fingerprints).
    struct NanModel;
    impl CountDistribution for NanModel {
        fn pmf(&self, _n: u64) -> f64 {
            f64::NAN
        }
        fn support_max(&self) -> u64 {
            4
        }
        fn sample(&self, _rng: &mut dyn rand::RngCore) -> u64 {
            0
        }
    }

    #[test]
    fn degenerate_ks_clamps_to_no_drift_and_flags() {
        let mut fit = OnlineFit::new(2, 4);
        for _ in 0..4 {
            fit.observe(&[0, 3]);
        }
        let models: Vec<Arc<dyn CountDistribution>> =
            vec![Arc::new(NanModel), Arc::new(Poisson::new(3.0))];
        let (ks, degenerate) = fit.max_ks_guarded(&models);
        assert!(degenerate, "NaN KS must raise the degeneracy flag");
        assert!(ks.is_finite(), "clamped statistic stays finite");
        // The healthy type still contributes its real statistic.
        let healthy_only: Vec<Arc<dyn CountDistribution>> =
            vec![Arc::new(Poisson::new(1.0)), Arc::new(Poisson::new(3.0))];
        let (ks2, flag2) = fit.max_ks_guarded(&healthy_only);
        assert!(!flag2);
        assert!(ks2 > 0.0);
        assert_eq!(fit.max_ks_guarded(&healthy_only).0.to_bits(), ks2.to_bits());
        // Empty windows report 0.0 without claiming degeneracy.
        let empty = OnlineFit::new(2, 4);
        let (ks3, flag3) = empty.max_ks_guarded(&models);
        assert_eq!(ks3, 0.0);
        assert!(!flag3, "no data is not degeneracy");
    }
}
