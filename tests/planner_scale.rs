//! Scale-out net for the planner subsystem: the wide-type registry
//! families (20–50 alert types) must solve end-to-end through the
//! hardness-aware planner — facade and runtime epoch loop alike — while
//! the decomposition stays provably conservative where the exact inner
//! is still tractable:
//!
//! * on every registry scenario at or below `EXACT_MAX_TYPES`, the forced
//!   decomposed inner is **bit-identical** to the exact inner (the
//!   decomposed evaluator switches to exhaustive enumeration there);
//! * wide solves are bit-identical across 1/2/4 worker threads (the
//!   parallel pricing merge is deterministic by index);
//! * the runtime epoch loop runs a full-scale 25-type scenario with a
//!   rerun-stable telemetry fingerprint.

use alert_audit::prelude::*;
use alert_audit::runtime::{AuditService, DriftConfig, RuntimeConfig};
use alert_audit::scenario::registry;

fn wide_solver(threads: usize) -> OapSolver {
    OapSolver::new(SolverConfig {
        epsilon: 0.5,
        n_samples: 40,
        seed: 5,
        inner: InnerKind::Auto,
        threads,
        ..Default::default()
    })
}

#[test]
fn wide_scenarios_solve_end_to_end_through_the_planner() {
    let reg = registry();
    for key in ["syn-wide25", "syn-wide50"] {
        let sc = reg.get(key).unwrap();
        let spec = sc.build_small(sc.default_seed()).unwrap();
        assert!(spec.n_types() > ISHM_FULL_MAX_TYPES, "{key} is not wide");
        let sol = wide_solver(1).solve(&spec).unwrap();
        assert!(
            matches!(sol.strategy, SolveStrategy::Decomposed { .. }),
            "{key}: planner picked {:?} past the full-ISHM gate",
            sol.strategy
        );
        assert_eq!(sol.policy.thresholds.len(), spec.n_types(), "{key}");
        assert!(!sol.policy.orders.is_empty(), "{key}");
        assert!(
            sol.loss.is_finite() && sol.loss >= 0.0,
            "{key}: loss {}",
            sol.loss
        );
        // Every order in the support covers all types exactly once.
        for o in &sol.policy.orders {
            let mut seen: Vec<usize> = o.types().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..spec.n_types()).collect::<Vec<_>>(), "{key}");
        }
    }
}

/// Wherever the exact inner is still tractable, forcing the decomposed
/// inner must change nothing: the planner's scale-out path degrades to
/// the exact enumeration below `EXACT_MAX_TYPES`, bit for bit.
#[test]
fn decomposed_inner_is_bit_identical_to_exact_on_all_small_registry_scenarios() {
    let reg = registry();
    let mut covered = 0usize;
    for sc in reg.iter() {
        let spec = sc.build_small(sc.default_seed()).unwrap();
        if spec.n_types() > EXACT_MAX_TYPES {
            continue;
        }
        covered += 1;
        let solve = |inner: InnerKind| {
            OapSolver::new(SolverConfig {
                epsilon: sc.suggested_epsilon(),
                n_samples: 40,
                seed: sc.default_seed(),
                inner,
                ..Default::default()
            })
            .solve(&spec)
            .unwrap()
        };
        let exact = solve(InnerKind::Exact);
        let dec = solve(InnerKind::Decomposed);
        assert_eq!(
            exact.loss.to_bits(),
            dec.loss.to_bits(),
            "{}: decomposed diverged from exact",
            sc.key()
        );
        assert_eq!(
            exact.policy.thresholds,
            dec.policy.thresholds,
            "{}",
            sc.key()
        );
        assert_eq!(exact.policy.orders, dec.policy.orders, "{}", sc.key());
        assert_eq!(exact.policy.probs, dec.policy.probs, "{}", sc.key());
        assert_eq!(
            exact.stats.thresholds_explored,
            dec.stats.thresholds_explored,
            "{}",
            sc.key()
        );
    }
    assert!(covered >= 3, "only {covered} small scenarios exercised");
}

#[test]
fn wide_solves_are_bit_identical_across_thread_counts() {
    let reg = registry();
    let sc = reg.get("syn-wide25").unwrap();
    let spec = sc.build_small(sc.default_seed()).unwrap();
    let base = wide_solver(1).solve(&spec).unwrap();
    for threads in [2usize, 4] {
        let multi = wide_solver(threads).solve(&spec).unwrap();
        assert_eq!(
            base.loss.to_bits(),
            multi.loss.to_bits(),
            "{threads} threads changed the wide objective"
        );
        assert_eq!(base.policy.thresholds, multi.policy.thresholds);
        assert_eq!(base.policy.orders, multi.policy.orders);
        assert_eq!(base.policy.probs, multi.policy.probs);
    }
}

fn wide_runtime_config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        epochs: 3,
        periods_per_epoch: 3,
        seed,
        solver: SolverConfig {
            epsilon: 0.5,
            n_samples: 40,
            seed,
            inner: InnerKind::Auto,
            ..Default::default()
        },
        drift: DriftConfig {
            window_periods: 6,
            max_stale_epochs: Some(1),
            ..Default::default()
        },
    }
}

/// The full-scale 25-type family must run through the service epoch loop
/// (streaming fits, staleness-forced re-solves, telemetry) with a
/// rerun-stable fingerprint — the planner is a first-class citizen of the
/// runtime, not a facade-only path.
#[test]
fn runtime_epoch_loop_handles_a_25_type_scenario() {
    let reg = registry();
    let sc = reg.get("syn-wide25").unwrap().clone();
    let spec = sc.build(7).unwrap();
    assert_eq!(spec.n_types(), 25);
    let run = |seed| {
        AuditService::new(sc.clone(), wide_runtime_config(seed))
            .run()
            .unwrap()
    };
    let report = run(7);
    assert_eq!(report.epochs.len(), 3);
    assert!(report.initial_objective.is_finite());
    for e in &report.epochs {
        assert_eq!(e.thresholds.len(), 25, "epoch {}", e.epoch);
    }
    // Staleness forcing guarantees at least one warm re-solve through the
    // planner's decomposed tier inside the loop.
    assert!(report.resolves() >= 1, "no re-solve in 3 epochs");
    assert_eq!(report.fingerprint(), run(7).fingerprint());
}
