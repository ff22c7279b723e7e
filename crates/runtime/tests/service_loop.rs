//! End-to-end service-loop tests on the core registry scenarios: drift
//! dynamics and warm-vs-cold parity on the drifting `syn-seasonal`
//! workload, a stationary negative control, and determinism of the
//! telemetry fingerprint across reruns and thread counts.

use audit_game::scenario::registry;
use audit_game::solver::{InnerKind, OapSolver, SolverConfig};
use audit_runtime::{AuditService, DriftConfig, RuntimeConfig};

fn seasonal_config() -> RuntimeConfig {
    RuntimeConfig {
        epochs: 24,
        periods_per_epoch: 5,
        seed: 0,
        solver: SolverConfig {
            inner: InnerKind::Cggs,
            n_samples: 120,
            epsilon: 0.25,
            ..Default::default()
        },
        drift: DriftConfig::default(),
    }
}

fn run(key: &str, cfg: RuntimeConfig) -> audit_runtime::RuntimeReport {
    let reg = registry();
    let sc = reg.get(key).unwrap().clone();
    AuditService::new(sc, cfg).run().unwrap()
}

#[test]
fn seasonal_drift_triggers_warm_resolves_matching_cold_objectives() {
    // Step the loop one epoch at a time and, after every re-solve,
    // cold-solve the newly committed spec from outside the service.
    let reg = registry();
    let service = AuditService::new(reg.get("syn-seasonal").unwrap().clone(), seasonal_config());
    let cold_solver = OapSolver::new(service.config().solver.clone());
    let stream = service.full_alert_stream().unwrap();
    let mut state = service.start_state().unwrap();
    let mut warm_explored = 0usize;
    let mut cold_explored = 0usize;
    while state.epoch < service.config().epochs {
        let next = state.epoch + 1;
        service
            .advance_with_stream(&mut state, next, &stream)
            .unwrap();
        let e = state.records.last().unwrap();
        if e.resolved {
            let cold = cold_solver.solve(&state.spec).unwrap();
            // The warm start is value-equivalent to the cold start, so the
            // committed warm re-solve can only match or beat the cold one.
            assert!(
                e.objective <= cold.loss + 1e-9,
                "epoch {}: warm {} worse than cold {}",
                e.epoch,
                e.objective,
                cold.loss
            );
            warm_explored += e.solve_explored.expect("re-solve records its search");
            cold_explored += cold.stats.thresholds_explored;
        }
    }
    assert!(
        warm_explored <= cold_explored,
        "warm re-solves explored more in aggregate: {warm_explored} vs {cold_explored}"
    );
    let report = service.report(state);

    assert_eq!(report.epochs.len(), 24);
    assert!(
        report.drift_epochs() >= 1,
        "seasonal workload never drifted"
    );
    assert!(report.resolves() >= 1, "drift never triggered a re-solve");
    for e in &report.epochs {
        assert_eq!(e.alerts_seen.len(), 3);
        assert!(e
            .alerts_audited
            .iter()
            .zip(&e.alerts_seen)
            .all(|(a, s)| a <= s));
        assert!(e.objective.is_finite());
    }
}

#[test]
fn stationary_workload_stays_on_the_incumbent_policy() {
    let mut cfg = seasonal_config();
    cfg.epochs = 10;
    // Generous gate: the Gaussian Syn A stream matches its own model, so
    // the window KS stays in pure sampling-noise range.
    cfg.drift = DriftConfig {
        window_periods: 20,
        ks_threshold: 0.4,
        ..Default::default()
    };
    let report = run("syn-a", cfg);
    assert_eq!(report.resolves(), 0, "stationary workload re-solved");
    let thr0 = &report.epochs[0].thresholds;
    assert!(report.epochs.iter().all(|e| &e.thresholds == thr0));
}

#[test]
fn reruns_and_thread_counts_share_one_fingerprint() {
    let base = run("syn-seasonal", seasonal_config()).fingerprint();
    let again = run("syn-seasonal", seasonal_config()).fingerprint();
    assert_eq!(base, again, "rerun changed the telemetry");
    for threads in [2usize, 4] {
        let mut cfg = seasonal_config();
        cfg.solver.threads = threads;
        let multi = run("syn-seasonal", cfg).fingerprint();
        assert_eq!(base, multi, "thread count {threads} changed the telemetry");
    }
}

#[test]
fn staleness_bound_forces_refresh_without_drift() {
    let mut cfg = seasonal_config();
    cfg.epochs = 8;
    // Gate closed (impossible KS threshold), staleness open.
    cfg.drift = DriftConfig {
        ks_threshold: 2.0,
        max_stale_epochs: Some(3),
        ..Default::default()
    };
    let report = run("syn-seasonal", cfg);
    assert!(report.drift_epochs() == 0);
    assert!(report.resolves() >= 2, "staleness refresh never fired");
    for e in &report.epochs {
        assert!(e.epochs_since_resolve <= 3);
    }
}
