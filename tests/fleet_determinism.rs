//! Determinism contract of the multi-tenant fleet runtime.
//!
//! The fleet scheduler only decides *when* tenant work happens, never
//! *what* it computes, and tenants share no solver state. So the
//! [`FleetReport::fingerprint`] must be bit-identical across worker
//! counts and reruns, and every tenant's report must equal a standalone
//! [`AuditService::run`] of that tenant, cache counters included.

use alert_audit::prelude::*;
use alert_audit::runtime::{
    AuditService, DriftConfig, FleetConfig, FleetReport, FleetService, RuntimeConfig, TenantSpec,
};
use alert_audit::scenario::registry;
use stochastics::rng::derive_seed;

fn tenant_config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        epochs: 3,
        periods_per_epoch: 4,
        seed,
        solver: SolverConfig {
            inner: InnerKind::Cggs,
            n_samples: 40,
            epsilon: 0.5,
            ..Default::default()
        },
        drift: DriftConfig::default(),
    }
}

fn fleet_over(keys: &[&str], n: usize, workers: usize) -> FleetReport {
    let reg = registry();
    let tenants = (0..n)
        .map(|i| {
            let key = keys[i % keys.len()];
            TenantSpec {
                name: format!("{key}#{i}"),
                scenario: reg.get(key).unwrap().clone(),
                config: tenant_config(derive_seed(7, i as u64)),
            }
        })
        .collect();
    FleetService::new(
        tenants,
        FleetConfig {
            workers,
            ..FleetConfig::default()
        },
    )
    .run()
    .unwrap()
}

#[test]
fn fingerprint_is_invariant_across_worker_counts_and_reruns() {
    let keys = ["syn-a", "syn-seasonal"];
    let baseline = fleet_over(&keys, 6, 1);
    assert_eq!(baseline.tenants.len(), 6);
    assert_eq!(baseline.total_periods, 6 * 3 * 4);
    for workers in [1usize, 2, 4] {
        let run = fleet_over(&keys, 6, workers);
        assert_eq!(
            run.fingerprint(),
            baseline.fingerprint(),
            "workers {workers}"
        );
        // Not just the hash: every tenant's report fingerprint matches,
        // and so do its cache counters, which the fingerprint leaves out.
        for (a, b) in run.tenants.iter().zip(&baseline.tenants) {
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.report.fingerprint(), b.report.fingerprint());
            assert_eq!(
                a.report.engine_cache, b.report.engine_cache,
                "{} at workers {workers}",
                a.tenant
            );
        }
    }
}

#[test]
fn every_tenant_reproduces_its_standalone_run() {
    let keys = ["syn-a", "syn-seasonal"];
    let fleet = fleet_over(&keys, 6, 2);
    assert_eq!(fleet.tenants.len(), 6);
    assert!(fleet.total_resolves() > 0, "no tenant re-solved");
    let reg = registry();
    for (i, t) in fleet.tenants.iter().enumerate() {
        let scenario = reg.get(keys[i % keys.len()]).unwrap().clone();
        let solo = AuditService::new(scenario, tenant_config(derive_seed(7, i as u64)))
            .run()
            .unwrap();
        assert_eq!(t.report.fingerprint(), solo.fingerprint(), "{}", t.tenant);
        assert_eq!(t.report.engine_cache, solo.engine_cache, "{}", t.tenant);
    }
}

#[test]
fn empty_fleet_is_a_valid_degenerate_run() {
    let report = FleetService::new(Vec::new(), FleetConfig::default())
        .run()
        .unwrap();
    assert_eq!(report.tenants.len(), 0);
    assert_eq!(report.total_periods, 0);
    assert_eq!(report.total_resolves(), 0);
}

#[test]
fn single_tenant_fleet_reproduces_the_plain_service_run() {
    let reg = registry();
    let scenario = reg.get("syn-seasonal").unwrap().clone();
    let config = tenant_config(derive_seed(7, 0));
    let solo = AuditService::new(scenario.clone(), config.clone())
        .run()
        .unwrap();
    let fleet = fleet_over(&["syn-seasonal"], 1, 2);
    assert_eq!(fleet.tenants.len(), 1);
    assert_eq!(fleet.tenants[0].report.fingerprint(), solo.fingerprint());
    assert_eq!(fleet.total_periods, solo.total_periods());
}
