//! Property net for the online runtime and its warm-start seams:
//!
//! * an **empty** warm start (no thresholds, no seed columns) is
//!   bit-identical to a cold solve on every registry scenario — the seams
//!   cannot perturb the solvers when unused;
//! * the service epoch loop is rerun- and thread-count-deterministic
//!   (telemetry fingerprints match bit for bit);
//! * on the drifting `syn-seasonal` scenario the warm-started re-solves
//!   match or beat a cold solve of the same refit spec (run from outside
//!   the service after each re-solve epoch) while exploring no more
//!   threshold candidates in aggregate — the deterministic half of the
//!   "warm is cheaper" claim (wall-clock is compared by
//!   `exp_online --compare-cold`; `BENCH_runtime.json` holds an early
//!   measurement).

use alert_audit::prelude::*;
use alert_audit::runtime::{AuditService, DriftConfig, RuntimeConfig};
use alert_audit::scenario::registry;

fn solver_for(scenario: &dyn Scenario, inner: InnerKind) -> OapSolver {
    OapSolver::new(SolverConfig {
        epsilon: scenario.suggested_epsilon(),
        n_samples: 40,
        seed: scenario.default_seed(),
        inner,
        ..Default::default()
    })
}

#[test]
fn empty_warm_start_is_bit_identical_on_every_registry_scenario() {
    let reg = registry();
    for sc in reg.iter() {
        let spec = sc.build_small(sc.default_seed()).unwrap();
        // Auto lets the planner pick the tier; pin a second inner
        // explicitly as well so the seed-column seam is exercised on every
        // scenario. Past the full-ISHM gate that second inner must be
        // Decomposed — forcing CGGS there would run the un-capped outer
        // search, which needs ~2^|T| evaluations to prove termination.
        let forced = if spec.n_types() > ISHM_FULL_MAX_TYPES {
            InnerKind::Decomposed
        } else {
            InnerKind::Cggs
        };
        for inner in [InnerKind::Auto, forced] {
            let solver = solver_for(sc.as_ref(), inner);
            let cold = solver.solve(&spec).unwrap();
            let warm = solver
                .solve_warm(&spec, Some(&WarmStart::default()))
                .unwrap();
            assert_eq!(
                cold.loss.to_bits(),
                warm.loss.to_bits(),
                "{} ({inner:?}): empty warm start changed the objective",
                sc.key()
            );
            assert_eq!(
                cold.policy.thresholds,
                warm.policy.thresholds,
                "{}",
                sc.key()
            );
            assert_eq!(cold.policy.orders, warm.policy.orders, "{}", sc.key());
            assert_eq!(cold.policy.probs, warm.policy.probs, "{}", sc.key());
            assert_eq!(
                cold.stats.thresholds_explored,
                warm.stats.thresholds_explored,
                "{}",
                sc.key()
            );
        }
    }
}

fn seasonal_config(threads: usize) -> RuntimeConfig {
    RuntimeConfig {
        epochs: 20,
        periods_per_epoch: 5,
        seed: 0,
        solver: SolverConfig {
            inner: InnerKind::Cggs,
            n_samples: 100,
            epsilon: 0.25,
            threads,
            ..Default::default()
        },
        drift: DriftConfig::default(),
    }
}

fn run_seasonal(cfg: RuntimeConfig) -> alert_audit::runtime::RuntimeReport {
    let reg = registry();
    let sc = reg.get("syn-seasonal").unwrap().clone();
    AuditService::new(sc, cfg).run().unwrap()
}

#[test]
fn epoch_loop_is_rerun_deterministic() {
    let a = run_seasonal(seasonal_config(1));
    let b = run_seasonal(seasonal_config(1));
    assert_eq!(a.fingerprint(), b.fingerprint());
    // The fingerprint covers the full log; spot-check the visible fields
    // agree too, so a fingerprint bug cannot silently mask divergence.
    assert_eq!(a.resolves(), b.resolves());
    assert_eq!(a.initial_objective.to_bits(), b.initial_objective.to_bits());
}

#[test]
fn epoch_loop_is_thread_count_deterministic() {
    let base = run_seasonal(seasonal_config(1));
    for threads in [2usize, 4] {
        let multi = run_seasonal(seasonal_config(threads));
        assert_eq!(
            base.fingerprint(),
            multi.fingerprint(),
            "thread count {threads} changed the telemetry"
        );
    }
}

#[test]
fn seasonal_drift_warm_resolves_match_cold_objectives_with_less_search() {
    let reg = registry();
    let service = AuditService::new(reg.get("syn-seasonal").unwrap().clone(), seasonal_config(1));
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
        if !e.resolved {
            continue;
        }
        let cold = cold_solver.solve(&state.spec).unwrap();
        assert!(
            e.objective <= cold.loss + 1e-9,
            "epoch {}: warm {} worse than cold {}",
            e.epoch,
            e.objective,
            cold.loss
        );
        warm_explored += e.solve_explored.expect("explored recorded");
        cold_explored += cold.stats.thresholds_explored;
    }
    assert!(
        state.records.iter().any(|e| e.resolved),
        "the drifting scenario never re-solved in {} epochs",
        state.records.len()
    );
    assert!(
        warm_explored <= cold_explored,
        "warm re-solves explored more in aggregate: {warm_explored} vs {cold_explored}"
    );
}
