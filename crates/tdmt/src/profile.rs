//! Alert profiles: fitted per-type count distributions plus audit costs —
//! the bridge from a labelled log to the game model's `F_t` and `C_t`.

use crate::log::AuditLog;
use crate::rules::RuleEngine;
use std::sync::Arc;
use stochastics::{fit_discretized_gaussian, fit_empirical, CountDistribution};

/// Which count model the profile fits per type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitKind {
    /// Moment-fitted discretized Gaussian at 99.5% coverage (the paper's
    /// synthetic-model shape).
    #[default]
    Gaussian,
    /// Raw empirical distribution of the observed daily counts.
    Empirical,
}

/// Per-type alert statistics and fitted distributions derived from a log.
pub struct AlertProfile {
    /// Alert-type names (from the rule engine).
    pub type_names: Vec<String>,
    /// Daily observation series per type.
    pub observations: Vec<Vec<u64>>,
    /// Fitted count distributions per type.
    pub distributions: Vec<Arc<dyn CountDistribution>>,
    /// Sample means per type.
    pub means: Vec<f64>,
    /// Sample standard deviations per type.
    pub stds: Vec<f64>,
}

impl std::fmt::Debug for AlertProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlertProfile")
            .field("type_names", &self.type_names)
            .field("means", &self.means)
            .field("stds", &self.stds)
            .finish()
    }
}

impl AlertProfile {
    /// Fit a profile from a labelled log. Vocabulary gaps (unregistered
    /// rule combinations) are ignored for counting purposes — callers that
    /// care run the engine directly first.
    pub fn fit(log: &AuditLog, engine: &RuleEngine, kind: FitKind) -> Self {
        let observations = log.per_type_series(engine, |_, _| {});
        let type_names = (0..engine.n_types())
            .map(|t| engine.type_name(t).to_string())
            .collect();
        Self::from_observations(type_names, observations, kind)
    }

    /// Fit directly from per-type daily series.
    pub fn from_observations(
        type_names: Vec<String>,
        observations: Vec<Vec<u64>>,
        kind: FitKind,
    ) -> Self {
        assert_eq!(type_names.len(), observations.len());
        let mut distributions: Vec<Arc<dyn CountDistribution>> = Vec::new();
        let mut means = Vec::new();
        let mut stds = Vec::new();
        for obs in &observations {
            assert!(!obs.is_empty(), "each type needs at least one observed day");
            means.push(stochastics::fit::sample_mean(obs));
            stds.push(stochastics::fit::sample_std(obs));
            let dist: Arc<dyn CountDistribution> = match kind {
                FitKind::Gaussian => Arc::new(fit_discretized_gaussian(obs, 0.995)),
                FitKind::Empirical => Arc::new(fit_empirical(obs)),
            };
            distributions.push(dist);
        }
        Self {
            type_names,
            observations,
            distributions,
            means,
            stds,
        }
    }

    /// Number of alert types.
    pub fn n_types(&self) -> usize {
        self.type_names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessEvent, AttrValue, EntityId, RecordId};
    use crate::rules::Rule;

    fn build_log(per_day: &[u64]) -> (AuditLog, RuleEngine) {
        let mut engine = RuleEngine::new(vec![Rule::flag("r", "hit")]);
        engine.register_combination("r", vec![0]);
        let mut log = AuditLog::new();
        for (day, &n) in per_day.iter().enumerate() {
            for i in 0..n {
                log.push(
                    AccessEvent::new(EntityId(i as u32), RecordId(i as u32), day as u32)
                        .with_attr("hit", AttrValue::Bool(true)),
                );
            }
            // Ensure the day exists even with zero alerts.
            log.push(AccessEvent::new(EntityId(9999), RecordId(0), day as u32));
        }
        (log, engine)
    }

    #[test]
    fn profile_recovers_observed_series() {
        let (log, engine) = build_log(&[3, 5, 4, 4]);
        let p = AlertProfile::fit(&log, &engine, FitKind::Empirical);
        assert_eq!(p.n_types(), 1);
        assert_eq!(p.observations[0], vec![3, 5, 4, 4]);
        assert!((p.means[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_fit_has_reasonable_support() {
        let (log, engine) = build_log(&[8, 10, 12, 9, 11, 10, 10, 9]);
        let p = AlertProfile::fit(&log, &engine, FitKind::Gaussian);
        let d = &p.distributions[0];
        assert!(
            d.support_max() >= 12,
            "support {} too tight",
            d.support_max()
        );
        assert!((d.mean() - p.means[0]).abs() < 0.5);
    }

    #[test]
    fn empirical_fit_matches_frequencies() {
        let (log, engine) = build_log(&[2, 2, 4]);
        let p = AlertProfile::fit(&log, &engine, FitKind::Empirical);
        let d = &p.distributions[0];
        assert!((d.pmf(2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.pmf(4) - 1.0 / 3.0).abs() < 1e-12);
    }
}
