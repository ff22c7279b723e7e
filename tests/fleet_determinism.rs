//! Determinism contract of the multi-tenant fleet runtime.
//!
//! The fleet scheduler only decides *when* tenant work happens, never
//! *what* it computes, so the [`FleetReport::fingerprint`] must be
//! bit-identical across worker counts, reruns, and cache sharing — and a
//! one-tenant fleet must reproduce the plain [`AuditService::run`]
//! fingerprint exactly.

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

fn fleet_over(keys: &[&str], n: usize, workers: usize, share: bool) -> FleetReport {
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
            share_caches: share,
            ..FleetConfig::default()
        },
    )
    .run()
    .unwrap()
}

#[test]
fn fingerprint_is_invariant_across_worker_counts_and_reruns() {
    let keys = ["syn-a", "syn-seasonal"];
    let baseline = fleet_over(&keys, 6, 1, true);
    assert_eq!(baseline.tenants.len(), 6);
    assert_eq!(baseline.total_periods, 6 * 3 * 4);
    for workers in [1usize, 2, 4] {
        let run = fleet_over(&keys, 6, workers, true);
        assert_eq!(
            run.fingerprint(),
            baseline.fingerprint(),
            "workers {workers}"
        );
        // Not just the hash: every tenant's report fingerprint matches.
        for (a, b) in run.tenants.iter().zip(&baseline.tenants) {
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.report.fingerprint(), b.report.fingerprint());
        }
    }
}

#[test]
fn shared_caches_are_bit_identical_to_isolated() {
    // All tenants share one scenario/spec, so the shared exchange is hit
    // constantly — and must still change nothing observable.
    let shared = fleet_over(&["syn-a"], 5, 4, true);
    let isolated = fleet_over(&["syn-a"], 5, 4, false);
    assert!(shared.shared && !isolated.shared);
    assert_eq!(shared.fingerprint(), isolated.fingerprint());
    // Sharing actually engaged: snapshots were published and adopted,
    // exactly once per cold start. Re-solves ran but stay out of the
    // exchange: each one's spec is refit from its own tenant's stream, so
    // no other tenant could adopt its snapshot.
    assert!(shared.total_resolves() > 0, "no tenant re-solved");
    assert_eq!(
        shared.shared_cache.publishes,
        shared.tenants.len() as u64,
        "{:?}",
        shared.shared_cache
    );
    assert!(
        shared.shared_cache.adoptions > 0,
        "identical banks never shared a snapshot: {:?}",
        shared.shared_cache
    );
    assert_eq!(isolated.shared_cache.publishes, 0);
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
    for share in [true, false] {
        let fleet = fleet_over(&["syn-seasonal"], 1, 2, share);
        assert_eq!(fleet.tenants.len(), 1);
        assert_eq!(
            fleet.tenants[0].report.fingerprint(),
            solo.fingerprint(),
            "share {share}"
        );
        assert_eq!(fleet.total_periods, solo.total_periods());
    }
}
