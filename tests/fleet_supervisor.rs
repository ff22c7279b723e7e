//! The supervised fleet's fault-tolerance contract.
//!
//! A [`FaultPlan`] quarantining k of N tenants must leave the run
//! completing, exactly the planned tenants `Failed`/`Recovered`, and the
//! unaffected tenants bit-identical to the fault-free run — at every
//! worker count. A tenant whose only fault strikes *before* any state
//! mutation (solver panic, malformed epoch) must recover
//! fingerprint-identical to its fault-free self, because retries resume
//! from the last good state and consumed faults never re-fire. An empty
//! plan must change nothing at all.

use alert_audit::scenario::registry;
use audit_game::error::GameError;
use audit_game::solver::{DegradeReason, InnerKind, SolverConfig};
use audit_runtime::{
    AuditService, DriftConfig, FaultPlan, FaultSite, FleetConfig, FleetReport, FleetService,
    RetryPolicy, RuntimeConfig, TenantHealth, TenantSpec,
};
use std::sync::Arc;
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

fn tenants(n: usize) -> Vec<TenantSpec> {
    let reg = registry();
    let scenario = reg.get("syn-a").unwrap().clone();
    (0..n)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            scenario: Arc::clone(&scenario),
            config: tenant_config(derive_seed(7, i as u64)),
        })
        .collect()
}

fn run_with(n: usize, workers: usize, plan: FaultPlan, retry: RetryPolicy) -> FleetReport {
    FleetService::new(
        tenants(n),
        FleetConfig {
            workers,
            fault_plan: plan,
            retry,
        },
    )
    .run()
    .unwrap()
}

fn health_of<'a>(report: &'a FleetReport, name: &str) -> &'a TenantHealth {
    &report
        .tenants
        .iter()
        .find(|t| t.tenant == name)
        .unwrap_or_else(|| panic!("no tenant {name}"))
        .health
}

/// Satellite (a): a tenant that panics mid-epoch no longer aborts the
/// fleet (the old scheduler died on a poisoned tenant-slot mutex). With
/// retries disabled the tenant fails terminally; everyone else finishes
/// healthy and bit-identical to the fault-free run.
#[test]
fn panicking_tenant_no_longer_aborts_the_fleet() {
    let plan = FaultPlan::new().inject("t1", 2, FaultSite::SolverPanic);
    let no_retry = RetryPolicy {
        max_retries: 0,
        backoff_rounds: 1,
    };
    let chaos = run_with(4, 2, plan, no_retry);
    let baseline = run_with(4, 2, FaultPlan::new(), no_retry);

    match health_of(&chaos, "t1") {
        TenantHealth::Failed { cause, .. } => {
            assert!(cause.contains("solver-panic"), "cause: {cause}")
        }
        h => panic!("t1 should have failed terminally, got {}", h.key()),
    }
    // The failed tenant keeps the partial report its last good state
    // supports: exactly the one epoch completed before the panic.
    let t1 = chaos.tenants.iter().find(|t| t.tenant == "t1").unwrap();
    assert_eq!(t1.report.epochs.len(), 1);

    let untouched: Vec<String> = ["t0", "t2", "t3"].iter().map(|s| s.to_string()).collect();
    for name in &untouched {
        assert!(health_of(&chaos, name).is_healthy(), "{name} not healthy");
    }
    assert_eq!(
        chaos.subset_fingerprint(&untouched),
        baseline.subset_fingerprint(&untouched),
        "unaffected tenants diverged from the fault-free run"
    );
    assert_eq!(chaos.health_counts(), (3, 0, 1));
}

/// The headline contract: a plan quarantining k of N tenants leaves
/// exactly those tenants non-healthy, and the untouched subset
/// bit-identical to the fault-free run — at workers 1, 2, and 4, with
/// the whole chaos fingerprint invariant across worker counts.
#[test]
fn quarantine_isolates_faults_at_every_worker_count() {
    // t1: one panic -> recovered. t3: three panics -> retry budget (2)
    // exhausted -> failed. t0, t2, t4, t5 untouched.
    let plan = FaultPlan::new()
        .inject("t1", 1, FaultSite::SolverPanic)
        .inject("t3", 1, FaultSite::SolverPanic)
        .inject("t3", 2, FaultSite::SolverPanic)
        .inject("t3", 3, FaultSite::SolverPanic);
    let retry = RetryPolicy::default();
    let untouched: Vec<String> = ["t0", "t2", "t4", "t5"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    let baseline = run_with(6, 2, FaultPlan::new(), retry);
    let mut fingerprints = Vec::new();
    for workers in [1usize, 2, 4] {
        let chaos = run_with(6, workers, plan.clone(), retry);
        assert_eq!(
            health_of(&chaos, "t1").key(),
            "recovered",
            "workers {workers}"
        );
        assert_eq!(health_of(&chaos, "t3").key(), "failed", "workers {workers}");
        for name in &untouched {
            assert!(health_of(&chaos, name).is_healthy(), "{name} not healthy");
        }
        assert_eq!(
            chaos.subset_fingerprint(&untouched),
            baseline.subset_fingerprint(&untouched),
            "workers {workers}: unaffected tenants diverged"
        );
        fingerprints.push(chaos.fingerprint());
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[0], fingerprints[2]);
}

/// A retried tenant resumes from its last good state and the consumed
/// fault never re-fires, so when the only faults strike *before* any
/// state mutation — a solver panic or a malformed epoch rejection — the
/// recovered tenant's report is fingerprint-identical to its fault-free
/// self.
#[test]
fn recovered_tenants_are_fingerprint_identical_to_fault_free() {
    for site in [FaultSite::SolverPanic, FaultSite::MalformedEpoch] {
        let plan = FaultPlan::new().inject("t2", 2, site);
        let chaos = run_with(4, 2, plan, RetryPolicy::default());
        let baseline = run_with(4, 2, FaultPlan::new(), RetryPolicy::default());

        let health = health_of(&chaos, "t2");
        assert_eq!(health.key(), "recovered", "site {site}");
        assert_eq!(health.failures().len(), 1);
        let t2 = chaos.tenants.iter().find(|t| t.tenant == "t2").unwrap();
        let b2 = baseline.tenants.iter().find(|t| t.tenant == "t2").unwrap();
        assert_eq!(
            t2.report.fingerprint(),
            b2.report.fingerprint(),
            "site {site}: recovered tenant diverged from its fault-free run"
        );
        assert_eq!(t2.report.epochs.len(), 3);
    }
}

/// A cold-start panic (round 0) is retried from scratch and recovers
/// fingerprint-identical too.
#[test]
fn cold_start_panic_recovers_from_scratch() {
    let plan = FaultPlan::new().inject("t0", 0, FaultSite::SolverPanic);
    let chaos = run_with(2, 1, plan, RetryPolicy::default());
    let baseline = run_with(2, 1, FaultPlan::new(), RetryPolicy::default());
    assert_eq!(health_of(&chaos, "t0").key(), "recovered");
    assert_eq!(
        chaos.tenants[0].report.fingerprint(),
        baseline.tenants[0].report.fingerprint()
    );
    assert_eq!(chaos.tenants[0].report.epochs.len(), 3);
}

/// Absorbed faults (empty epoch, budget exhaustion) never quarantine:
/// the tenant stays supervisor-healthy, serves every epoch, and records
/// the degradation in its fingerprinted telemetry instead.
#[test]
fn absorbed_faults_degrade_without_quarantine() {
    let plan = FaultPlan::new()
        .inject("t0", 2, FaultSite::EmptyEpoch)
        .inject("t1", 2, FaultSite::BudgetExhaust)
        .inject("t2", 2, FaultSite::SolveError);
    let chaos = run_with(3, 2, plan, RetryPolicy::default());
    assert_eq!(chaos.health_counts(), (3, 0, 0));
    for t in &chaos.tenants {
        assert_eq!(t.report.epochs.len(), 3, "{} lost epochs", t.tenant);
    }

    // Budget exhaustion forces a re-solve that must still commit a
    // feasible policy, with the degradation recorded.
    let t1 = &chaos.tenants[1].report.epochs[1];
    let degrade = t1.degrade.expect("budget-exhausted epoch records degrade");
    assert!(matches!(
        degrade,
        DegradeReason::Truncated | DegradeReason::Degraded { .. }
    ));
    assert!(t1.objective.is_finite());
    assert!(!t1.thresholds.is_empty());

    // A failed committed re-solve re-commits the incumbent.
    let t2 = &chaos.tenants[2].report.epochs[1];
    assert_eq!(t2.degrade, Some(DegradeReason::KeptIncumbent));
    assert!(!t2.resolved);
}

/// The zero-change guarantee: an empty plan (the default) is bit-identical
/// to the pre-supervisor scheduler's output, plan or no plan.
#[test]
fn empty_plan_is_bit_identical_to_default_config() {
    let explicit = run_with(3, 2, FaultPlan::new(), RetryPolicy::default());
    let via_default = FleetService::new(
        tenants(3),
        FleetConfig {
            workers: 2,
            ..FleetConfig::default()
        },
    )
    .run()
    .unwrap();
    assert_eq!(explicit.fingerprint(), via_default.fingerprint());
    assert_eq!(explicit.health_counts(), (3, 0, 0));
    assert_eq!(
        explicit.healthy_fingerprint(),
        explicit.subset_fingerprint(&explicit.healthy_names())
    );

    // And the single-tenant fleet still reproduces the plain service run.
    let solo = AuditService::new(
        registry().get("syn-a").unwrap().clone(),
        tenant_config(derive_seed(7, 0)),
    )
    .run()
    .unwrap();
    assert_eq!(explicit.tenants[0].report.fingerprint(), solo.fingerprint());
}

/// The fault plan and the subset fingerprints key tenants by name, so a
/// duplicate name would take its twin's faults and let a failed twin hide
/// behind a healthy one. The fleet refuses it before any tenant runs.
#[test]
fn duplicate_tenant_names_are_rejected() {
    let mut specs = tenants(3);
    specs[2].name = "t0".into();
    let plan = FaultPlan::new().inject("t0", 1, FaultSite::SolverPanic);
    let result = FleetService::new(
        specs,
        FleetConfig {
            workers: 2,
            fault_plan: plan,
            ..FleetConfig::default()
        },
    )
    .run();
    match result {
        Err(GameError::InvalidConfig(msg)) => assert!(msg.contains("'t0'"), "{msg}"),
        other => panic!(
            "duplicate tenant names accepted: {:?}",
            other.map(|r| r.health_counts())
        ),
    }
}
