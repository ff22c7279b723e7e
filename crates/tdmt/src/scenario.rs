//! The `tdmt-insider` scenario: rules over synthetic event logs, compiled
//! down to a solvable game.
//!
//! Unlike `emrsim`/`creditsim` — which model specific paper datasets —
//! this scenario exercises the TDMT substrate end to end as *the* data
//! source: a deterministic generator emits day-partitioned access events
//! with typed attribute payloads, a [`RuleEngine`] with registered
//! combination types labels them, an [`AlertProfile`] fits the per-type
//! benign count laws `F_t`, and a seeded insider/record attack grid is
//! labelled through the *same* engine. The result is a `GameSpec` whose
//! alert vocabulary, count models, and attack footprints all flow from
//! the rule machinery rather than from hand-written tables.

use crate::event::{AccessEvent, AttrValue, EntityId, RecordId};
use crate::log::AuditLog;
use crate::profile::{AlertProfile, FitKind};
use crate::rules::{Rule, RuleEngine};
use audit_game::error::GameError;
use audit_game::model::{AttackAction, Attacker, GameSpec, GameSpecBuilder};
use audit_game::scenario::Scenario;
use rand::Rng;
use std::sync::Arc;
use stochastics::rng::stream_rng;
use stochastics::{CountDistribution, Poisson};

/// Per-type adversary benefit for the insider game.
pub const INSIDER_BENEFITS: [f64; 4] = [5.0, 6.0, 7.5, 9.0];
/// Capture penalty.
pub const INSIDER_PENALTY: f64 = 8.0;
/// Attack and audit unit cost.
pub const INSIDER_UNIT_COST: f64 = 0.5;
/// Mean daily benign alerts per type fed to the event generator.
pub const INSIDER_DAILY_MEANS: [f64; 4] = [8.0, 5.0, 3.0, 1.5];

/// Insider-threat scenario parameters.
#[derive(Debug, Clone)]
pub struct InsiderConfig {
    /// Observation window in days.
    pub n_days: u32,
    /// Insiders in the attack grid.
    pub n_insiders: usize,
    /// Records each insider can target.
    pub n_records: usize,
    /// Audit budget `B`.
    pub budget: f64,
    /// Count-model fit.
    pub fit: FitKind,
}

impl Default for InsiderConfig {
    fn default() -> Self {
        Self {
            n_days: 24,
            n_insiders: 6,
            n_records: 6,
            budget: 4.0,
            fit: FitKind::Gaussian,
        }
    }
}

/// The monitoring rules: three base predicates over event attributes,
/// with the subsets that occur in practice registered as combination
/// types (the fourth type is the after-hours bulk export combo).
pub fn insider_rule_engine() -> RuleEngine {
    let rules = vec![
        Rule::flag("after-hours", "after_hours"),
        Rule::flag("bulk-export", "bulk_export"),
        Rule::flag("foreign-ip", "foreign_ip"),
    ];
    let mut engine = RuleEngine::new(rules);
    engine.register_combination("After Hours", vec![0]);
    engine.register_combination("Bulk Export", vec![1]);
    engine.register_combination("Foreign IP", vec![2]);
    engine.register_combination("After Hours; Bulk Export", vec![0, 1]);
    engine
}

/// The registered base-rule subsets, aligned with the type indices of
/// [`insider_rule_engine`].
const INSIDER_SUBSETS: [&[usize]; 4] = [&[0], &[1], &[2], &[0, 1]];

fn event_with_subset(entity: u32, record: u32, day: u32, subset: &[usize]) -> AccessEvent {
    let mut ev = AccessEvent::new(EntityId(entity), RecordId(record), day);
    for &r in subset {
        let attr = ["after_hours", "bulk_export", "foreign_ip"][r];
        ev.set_attr(attr, AttrValue::Bool(true));
    }
    ev
}

/// Simulate the benign observation log: per day, each alert type fires a
/// Poisson-distributed number of times on distinct (entity, record)
/// pairs, plus unflagged bulk traffic.
pub fn generate_insider_log(config: &InsiderConfig, seed: u64) -> AuditLog {
    let mut log = AuditLog::new();
    for day in 0..config.n_days {
        let mut rng = stream_rng(seed, 100 + day as u64);
        let mut serial = 0u32;
        for (t, subset) in INSIDER_SUBSETS.iter().enumerate() {
            let dist = Poisson::new(INSIDER_DAILY_MEANS[t]);
            let count = dist.sample(&mut rng);
            for _ in 0..count {
                // Distinct synthetic pairs so daily dedup keeps them all.
                log.push(event_with_subset(10_000 + serial, serial, day, subset));
                serial += 1;
            }
        }
        for _ in 0..20 {
            log.push(AccessEvent::new(
                EntityId(50_000 + serial),
                RecordId(serial),
                day,
            ));
            serial += 1;
        }
    }
    log
}

/// Compile the insider scenario to a game: fit `F_t` from the simulated
/// log, then label a seeded insider/record grid through the rule engine.
pub fn build_insider_game(config: &InsiderConfig, seed: u64) -> Result<GameSpec, GameError> {
    let engine = insider_rule_engine();
    let mut log = generate_insider_log(config, seed);
    log.dedup_daily();
    let profile = AlertProfile::fit(&log, &engine, config.fit);

    let mut b = GameSpecBuilder::new();
    for t in 0..profile.n_types() {
        b.alert_type(
            profile.type_names[t].clone(),
            INSIDER_UNIT_COST,
            profile.distributions[t].clone(),
        );
    }

    let mut rng = stream_rng(seed, 0x7D47);
    for e in 0..config.n_insiders {
        let actions: Vec<AttackAction> = (0..config.n_records)
            .map(|r| {
                // Each (insider, record) pair either leaves no footprint or
                // trips one of the registered attribute combinations; the
                // engine labels the hypothetical event exactly as the TDMT
                // would label the real access.
                if rng.gen_bool(0.2) {
                    AttackAction::benign(format!("r{r}"), INSIDER_UNIT_COST)
                } else {
                    let subset = INSIDER_SUBSETS[rng.gen_range(0..INSIDER_SUBSETS.len())];
                    let ev = event_with_subset(e as u32, r as u32, 0, subset);
                    let t = engine
                        .label(&ev)
                        .expect("registered subset")
                        .expect("non-empty subset");
                    AttackAction::deterministic(
                        format!("r{r}"),
                        t,
                        INSIDER_BENEFITS[t],
                        INSIDER_UNIT_COST,
                        INSIDER_PENALTY,
                    )
                }
            })
            .collect();
        b.attacker(Attacker::new(format!("insider{e}"), 1.0, actions));
    }
    b.budget(config.budget);
    b.allow_opt_out(true);
    b.build()
}

/// The `tdmt-insider` registry entry.
pub struct InsiderScenario;

impl Scenario for InsiderScenario {
    fn key(&self) -> &str {
        "tdmt-insider"
    }

    fn source(&self) -> &str {
        "tdmt"
    }

    fn describe(&self) -> String {
        let c = InsiderConfig::default();
        format!(
            "rule-engine insider threat: 4 registered combination types fitted from a {}-day \
             synthetic event log, {}x{} attack grid",
            c.n_days, c.n_insiders, c.n_records
        )
    }

    fn suggested_epsilon(&self) -> f64 {
        0.3
    }

    fn build(&self, seed: u64) -> Result<GameSpec, GameError> {
        build_insider_game(&InsiderConfig::default(), seed)
    }

    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        build_insider_game(
            &InsiderConfig {
                n_days: 10,
                n_insiders: 4,
                n_records: 4,
                budget: 3.0,
                ..Default::default()
            },
            seed,
        )
    }

    fn alert_stream(&self, seed: u64, n_periods: usize) -> Result<Vec<Vec<u64>>, GameError> {
        let config = InsiderConfig {
            n_days: n_periods as u32,
            ..Default::default()
        };
        let engine = insider_rule_engine();
        let mut log = generate_insider_log(&config, seed);
        log.dedup_daily();
        let series = log.per_type_series(&engine, |_, _| {});
        Ok(transpose_series(&series, n_periods))
    }
}

/// Turn a per-type series (`series[t][day]`, as produced by
/// [`AuditLog::per_type_series`]) into per-period rows, padding missing
/// days with zero. Shared by the log-backed scenario adapters.
pub fn transpose_series(series: &[Vec<u64>], n_periods: usize) -> Vec<Vec<u64>> {
    (0..n_periods)
        .map(|day| {
            series
                .iter()
                .map(|obs| obs.get(day).copied().unwrap_or(0))
                .collect()
        })
        .collect()
}

/// The scenarios this crate contributes to the cross-crate registry.
pub fn scenarios() -> Vec<Arc<dyn Scenario>> {
    vec![Arc::new(InsiderScenario)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insider_game_compiles_through_the_rule_engine() {
        let spec = build_insider_game(&InsiderConfig::default(), 3).unwrap();
        assert_eq!(spec.n_types(), 4);
        assert_eq!(spec.n_attackers(), 6);
        assert_eq!(spec.n_actions(), 36);
        assert!(spec.allow_opt_out);
        spec.validate().unwrap();
        // Every alerting action carries the benefit of its engine-assigned
        // type.
        for att in &spec.attackers {
            for act in &att.actions {
                if let Some(&(t, _)) = act.alert_probs.first() {
                    assert_eq!(act.reward, INSIDER_BENEFITS[t]);
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic_and_seeded() {
        let s = InsiderScenario;
        assert_eq!(
            s.build(5).unwrap().fingerprint(),
            s.build(5).unwrap().fingerprint()
        );
        assert_ne!(
            s.build(5).unwrap().fingerprint(),
            s.build(6).unwrap().fingerprint()
        );
    }

    #[test]
    fn fitted_means_track_generator_intensities() {
        let spec = build_insider_game(&InsiderConfig::default(), 1).unwrap();
        for (t, d) in spec.distributions.iter().enumerate() {
            let target = INSIDER_DAILY_MEANS[t];
            assert!(
                (d.mean() - target).abs() < target.sqrt() * 1.5 + 1.0,
                "type {t}: fitted mean {} vs intensity {target}",
                d.mean()
            );
        }
    }

    #[test]
    fn alert_stream_matches_requested_window() {
        let s = InsiderScenario;
        let stream = s.alert_stream(2, 6).unwrap();
        assert_eq!(stream.len(), 6);
        assert!(stream.iter().all(|row| row.len() == 4));
        assert_eq!(stream, s.alert_stream(2, 6).unwrap());
    }

    #[test]
    fn small_build_shrinks_the_grid() {
        let s = InsiderScenario;
        let small = s.build_small(0).unwrap();
        assert_eq!(small.n_attackers(), 4);
        assert_eq!(small.n_actions(), 16);
        small.validate().unwrap();
    }
}
