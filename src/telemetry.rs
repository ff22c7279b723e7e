//! JSON rendering of the online runtime's telemetry.
//!
//! `audit-runtime` emits plain structs (it sits below the umbrella in the
//! crate graph, and the workspace uses no serialization library); this module
//! projects a [`RuntimeReport`] onto the [`crate::json`] value tree so the
//! `exp_online` driver, the CI soak step, and the `BENCH_runtime.json`
//! artifact all share one canonical wire shape. Numbers render with
//! shortest-roundtrip formatting, so the JSON is as deterministic as the
//! report itself (wall-clock latency fields are the only nondeterministic
//! content; the embedded `fingerprint` ignores them by construction).

use crate::json::Value;
use audit_runtime::{EpochTelemetry, FleetReport, RuntimeReport, TenantFailure, TenantHealth};

/// Render one epoch record.
fn epoch_to_json(e: &EpochTelemetry) -> Value {
    let mut pairs: Vec<(&'static str, Value)> = vec![
        ("epoch", Value::Num(e.epoch as f64)),
        ("periods", Value::Num(e.periods as f64)),
        (
            "alerts_seen",
            Value::nums(e.alerts_seen.iter().map(|&z| z as f64)),
        ),
        (
            "alerts_audited",
            Value::nums(e.alerts_audited.iter().map(|&z| z as f64)),
        ),
        ("mean_spent", Value::Num(e.mean_spent)),
        (
            "realized_rate",
            Value::nums(e.realized_rate.iter().copied()),
        ),
        (
            "predicted_pal",
            Value::nums(e.predicted_pal.iter().copied()),
        ),
        ("pal_gap", Value::Num(e.pal_gap)),
        ("max_ks", Value::Num(e.max_ks)),
        ("drift", Value::Bool(e.drift)),
        ("resolved", Value::Bool(e.resolved)),
        (
            "epochs_since_resolve",
            Value::Num(e.epochs_since_resolve as f64),
        ),
        ("objective", Value::Num(e.objective)),
        ("thresholds", Value::nums(e.thresholds.iter().copied())),
        ("attacks_launched", Value::Num(e.attacks_launched as f64)),
        ("attacks_detected", Value::Num(e.attacks_detected as f64)),
        ("attacker_utility", Value::Num(e.attacker_utility)),
        ("auditor_damage", Value::Num(e.auditor_damage)),
    ];
    let opt_num = |x: Option<f64>| x.map(Value::Num).unwrap_or(Value::Null);
    pairs.push((
        "solve_explored",
        opt_num(e.solve_explored.map(|n| n as f64)),
    ));
    pairs.push(("solve_millis", opt_num(e.solve_millis)));
    pairs.push((
        "degrade",
        e.degrade
            .map(|d| Value::Str(d.key()))
            .unwrap_or(Value::Null),
    ));
    pairs.push(("ks_degenerate", Value::Bool(e.ks_degenerate)));
    Value::obj(pairs)
}

/// Render one recorded tenant failure.
fn failure_to_json(f: &TenantFailure) -> Value {
    Value::obj([
        ("round", Value::Num(f.round as f64)),
        ("cause", Value::Str(f.cause.clone())),
        (
            "resume_round",
            f.resume_round
                .map(|r| Value::Num(r as f64))
                .unwrap_or(Value::Null),
        ),
    ])
}

/// Render a tenant's supervisor verdict: its status key plus, for
/// non-healthy tenants, the failure log (and the terminal round/cause
/// for failed ones).
fn health_to_json(h: &TenantHealth) -> Value {
    let mut pairs: Vec<(&'static str, Value)> = vec![("status", Value::Str(h.key().into()))];
    if let Some(last) = h.terminal_failure() {
        pairs.push(("round", Value::Num(last.round as f64)));
        pairs.push(("cause", Value::Str(last.cause.clone())));
    }
    if !h.failures().is_empty() {
        pairs.push((
            "failures",
            Value::Arr(h.failures().iter().map(failure_to_json).collect()),
        ));
    }
    Value::obj(pairs)
}

/// Render the full report: run header, per-epoch records, aggregate
/// resolve statistics, and the deterministic fingerprint (as a hex
/// string — JSON numbers cannot carry 64 bits exactly).
pub fn report_to_json(report: &RuntimeReport) -> Value {
    let resolve_stats = match report.resolve_stats() {
        None => Value::Null,
        Some(s) => Value::obj([
            ("resolves", Value::Num(s.resolves as f64)),
            ("mean_solve_millis", Value::Num(s.mean_solve_millis)),
        ]),
    };
    Value::obj([
        ("scenario", Value::Str(report.scenario.clone())),
        ("seed", Value::Num(report.seed as f64)),
        ("epochs", Value::Num(report.epochs.len() as f64)),
        (
            "periods_per_epoch",
            Value::Num(report.periods_per_epoch as f64),
        ),
        ("total_periods", Value::Num(report.total_periods() as f64)),
        ("initial_objective", Value::Num(report.initial_objective)),
        (
            "initial_solve_millis",
            Value::Num(report.initial_solve_millis),
        ),
        ("resolves", Value::Num(report.resolves() as f64)),
        ("drift_epochs", Value::Num(report.drift_epochs() as f64)),
        ("resolve_stats", resolve_stats),
        (
            "engine_cache",
            Value::obj([
                ("hits", Value::Num(report.engine_cache.hits as f64)),
                ("misses", Value::Num(report.engine_cache.misses as f64)),
                (
                    "evictions",
                    Value::Num(report.engine_cache.evictions as f64),
                ),
                (
                    "state_hits",
                    Value::Num(report.engine_cache.state_hits as f64),
                ),
                (
                    "state_evictions",
                    Value::Num(report.engine_cache.state_evictions as f64),
                ),
                (
                    "columns_evaluated",
                    Value::Num(report.engine_cache.columns_evaluated as f64),
                ),
                (
                    "columns_saved",
                    Value::Num(report.engine_cache.columns_saved as f64),
                ),
            ]),
        ),
        (
            "fingerprint",
            Value::Str(format!("{:016x}", report.fingerprint())),
        ),
        (
            "epoch_log",
            Value::Arr(report.epochs.iter().map(epoch_to_json).collect()),
        ),
    ])
}

/// Render a fleet run: aggregate header (throughput, latency
/// percentiles, fleet fingerprint) plus the full
/// per-tenant reports. Per-tenant fingerprints ride inside each embedded
/// [`report_to_json`]; the fleet fingerprint folds them in tenant order.
pub fn fleet_report_to_json(report: &FleetReport) -> Value {
    Value::obj([
        ("tenants", Value::Num(report.tenants.len() as f64)),
        ("workers", Value::Num(report.workers as f64)),
        ("total_periods", Value::Num(report.total_periods as f64)),
        ("total_resolves", Value::Num(report.total_resolves() as f64)),
        ("wall_millis", Value::Num(report.wall_millis)),
        ("periods_per_sec", Value::Num(report.periods_per_sec)),
        ("latency_p50_millis", Value::Num(report.latency_p50_millis)),
        ("latency_p95_millis", Value::Num(report.latency_p95_millis)),
        ("latency_p99_millis", Value::Num(report.latency_p99_millis)),
        (
            "fingerprint",
            Value::Str(format!("{:016x}", report.fingerprint())),
        ),
        (
            "healthy_fingerprint",
            Value::Str(format!("{:016x}", report.healthy_fingerprint())),
        ),
        ("health_counts", {
            let (healthy, recovered, failed) = report.health_counts();
            Value::obj([
                ("healthy", Value::Num(healthy as f64)),
                ("recovered", Value::Num(recovered as f64)),
                ("failed", Value::Num(failed as f64)),
            ])
        }),
        (
            "tenant_log",
            Value::Arr(
                report
                    .tenants
                    .iter()
                    .map(|t| {
                        Value::obj([
                            ("tenant", Value::Str(t.tenant.clone())),
                            ("start_millis", Value::Num(t.start_millis)),
                            ("health", health_to_json(&t.health)),
                            ("report", report_to_json(&t.report)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_game::scenario::registry;
    use audit_game::solver::{InnerKind, SolverConfig};
    use audit_runtime::{AuditService, DriftConfig, RuntimeConfig};

    fn tiny_report() -> RuntimeReport {
        let reg = registry();
        let sc = reg.get("syn-seasonal").unwrap().clone();
        AuditService::new(
            sc,
            RuntimeConfig {
                epochs: 3,
                periods_per_epoch: 4,
                seed: 1,
                solver: SolverConfig {
                    inner: InnerKind::Cggs,
                    n_samples: 40,
                    epsilon: 0.5,
                    ..Default::default()
                },
                drift: DriftConfig::default(),
            },
        )
        .run()
        .unwrap()
    }

    #[test]
    fn report_json_roundtrips_and_carries_the_fingerprint() {
        let report = tiny_report();
        let v = report_to_json(&report);
        let text = v.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(
            back.get("fingerprint").unwrap().as_str().unwrap(),
            format!("{:016x}", report.fingerprint())
        );
        assert_eq!(
            back.get("epoch_log").unwrap().as_arr().unwrap().len(),
            report.epochs.len()
        );
        assert_eq!(back.get("total_periods").unwrap().as_f64().unwrap(), 12.0);
    }

    #[test]
    fn fleet_json_roundtrips_and_carries_both_fingerprint_levels() {
        use audit_runtime::{FleetConfig, FleetService, TenantSpec};
        let reg = registry();
        let sc = reg.get("syn-a").unwrap().clone();
        let config = RuntimeConfig {
            epochs: 2,
            periods_per_epoch: 3,
            seed: 5,
            solver: SolverConfig {
                inner: InnerKind::Cggs,
                n_samples: 40,
                epsilon: 0.5,
                ..Default::default()
            },
            drift: DriftConfig::default(),
        };
        let tenants = (0..2)
            .map(|i| TenantSpec {
                name: format!("syn-a#{i}"),
                scenario: sc.clone(),
                config: RuntimeConfig {
                    seed: 5 + i,
                    ..config.clone()
                },
            })
            .collect();
        let fleet = FleetService::new(tenants, FleetConfig::default());
        let report = fleet.run().unwrap();
        let v = fleet_report_to_json(&report);
        let back = Value::parse(&v.render()).unwrap();
        assert_eq!(v, back);
        assert_eq!(
            back.get("fingerprint").unwrap().as_str().unwrap(),
            format!("{:016x}", report.fingerprint())
        );
        let log = back.get("tenant_log").unwrap().as_arr().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(
            log[0]
                .get("report")
                .unwrap()
                .get("fingerprint")
                .unwrap()
                .as_str()
                .unwrap(),
            format!("{:016x}", report.tenants[0].report.fingerprint())
        );
        assert_eq!(back.get("total_periods").unwrap().as_f64().unwrap(), 12.0);
    }

    #[test]
    fn latency_fields_do_not_perturb_the_embedded_fingerprint() {
        let a = tiny_report();
        let mut b = a.clone();
        b.initial_solve_millis = 1e6;
        let fa = report_to_json(&a);
        let fb = report_to_json(&b);
        assert_eq!(
            fa.get("fingerprint").unwrap(),
            fb.get("fingerprint").unwrap()
        );
        // ... while the rendered latency itself of course differs.
        assert_ne!(fa.render(), fb.render());
    }
}
