//! Seeded game fuzzer: solver-independent properties over randomly
//! generated (but bit-reproducible) games from `audit_game::fuzz`.
//!
//! Unlike `game_properties.rs` (proptest over the `random_game` dataset
//! generator), this suite drives the dedicated fuzzer — a wider zoo of
//! count distributions, stochastic footprints, benign actions, and
//! randomized opt-out — through the strategic-attacker machinery the
//! scenario families exercise: quantal-response convergence, general-sum
//! vs zero-sum agreement, budget monotonicity, and the CGGS-vs-brute-force
//! gold standard at small scale.
//!
//! The case count is `FUZZ_CASES` (default 40); CI runs 120 in release
//! mode with the same fixed seed range, so a CI failure names a seed that
//! reproduces identically on any machine.

use alert_audit::game::brute_force::solve_brute_force;
use alert_audit::game::cggs::{Cggs, CggsConfig};
use alert_audit::game::detection::{DetectionEstimator, DetectionModel};
use alert_audit::game::fuzz::{fuzz_game, FuzzConfig};
use alert_audit::game::general_sum::{damage_under_mixture, DamageModel};
use alert_audit::game::master::MasterSolver;
use alert_audit::game::ordering::AuditOrder;
use alert_audit::game::payoff::PayoffMatrix;
use alert_audit::game::planner::{decomposed_pool, TypeClusters};
use alert_audit::game::quantal::QuantalResponse;
use alert_audit::game::solver::{InnerKind, OapSolver, SolverConfig};

fn cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// The same `(config, seed)` pair must always produce the same game, and
/// every fuzzed game must pass structural validation.
#[test]
fn fuzzed_games_are_deterministic_and_valid() {
    let cfg = FuzzConfig::default();
    for seed in 0..cases() {
        let a = fuzz_game(&cfg, seed);
        let b = fuzz_game(&cfg, seed);
        assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed} not stable");
        a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// At any fixed policy, the auditor's QR loss is non-decreasing in λ
/// (dE/dλ is the choice-distribution variance of the utilities), never
/// exceeds the rational best-response envelope, and converges to it as
/// λ → ∞.
#[test]
fn qr_loss_is_monotone_in_lambda_and_converges_to_best_response() {
    let cfg = FuzzConfig::default();
    for seed in 0..cases() {
        let spec = fuzz_game(&cfg, seed);
        let bank = spec.sample_bank(24, seed);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(spec.n_types());
        let thresholds = spec.threshold_upper_bounds();
        let n_orders = orders.len();
        let matrix = PayoffMatrix::build(&spec, &est, orders, &thresholds);
        let p = vec![1.0 / n_orders as f64; n_orders];
        let rational = matrix.loss_under_mixture(&spec, &p);

        let mut prev = f64::NEG_INFINITY;
        for lambda in [0.0, 0.5, 1.0, 2.0, 8.0] {
            let loss = QuantalResponse::new(lambda).loss_under_mixture(&spec, &matrix, &p);
            assert!(
                loss >= prev - 1e-9,
                "seed {seed}: QR loss dropped from {prev} to {loss} at lambda {lambda}"
            );
            assert!(
                loss <= rational + 1e-9,
                "seed {seed}: QR loss {loss} above rational envelope {rational}"
            );
            prev = loss;
        }
        let sharp = QuantalResponse::new(1e4).loss_under_mixture(&spec, &matrix, &p);
        assert!(
            (sharp - rational).abs() <= 2e-3 * rational.abs().max(1.0),
            "seed {seed}: sharp QR {sharp} did not converge to rational {rational}"
        );
    }
}

/// With free attacks (`K = 0`) and the identity damage model, the
/// general-sum auditor damage coincides with the zero-sum loss — the
/// attacker's utility `(1-Pat)·R - Pat·M` is exactly the auditor's damage.
/// Detection is linear in Pal, so this holds for stochastic footprints too.
#[test]
fn general_sum_damage_equals_zero_sum_loss_when_attacks_are_free() {
    let cfg = FuzzConfig::default();
    for seed in 0..cases() {
        let mut spec = fuzz_game(&cfg, seed);
        for att in &mut spec.attackers {
            for a in &mut att.actions {
                a.attack_cost = 0.0;
            }
        }
        let bank = spec.sample_bank(24, seed ^ 0x65);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(spec.n_types());
        let thresholds = spec.threshold_upper_bounds();
        let matrix = PayoffMatrix::build(&spec, &est, orders, &thresholds);
        let master = MasterSolver::solve(&spec, &matrix).unwrap();
        let zero_sum = matrix.loss_under_mixture(&spec, &master.p_orders);
        let damage =
            damage_under_mixture(&spec, &matrix, &master.p_orders, &DamageModel::default());
        assert!(
            (damage - zero_sum).abs() <= 1e-9 * zero_sum.abs().max(1.0),
            "seed {seed}: general-sum {damage} vs zero-sum {zero_sum}"
        );
    }
}

/// Raising the budget (same game, same sample bank) can only help the
/// auditor: the master value at full-coverage thresholds is non-increasing.
#[test]
fn value_is_monotone_in_budget_on_fuzzed_games() {
    let cfg = FuzzConfig::default();
    for seed in 0..cases() {
        let mut spec = fuzz_game(&cfg, seed);
        let bank = spec.sample_bank(24, 99);
        let orders = AuditOrder::enumerate_all(spec.n_types());
        let thresholds = spec.threshold_upper_bounds();
        let mut prev = f64::INFINITY;
        for budget in [1.0, 2.0, 4.0, 8.0] {
            spec.budget = budget;
            let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
            let matrix = PayoffMatrix::build(&spec, &est, orders.clone(), &thresholds);
            let v = MasterSolver::solve(&spec, &matrix).unwrap().value;
            assert!(
                v <= prev + 1e-6,
                "seed {seed}: value rose to {v} from {prev} at budget {budget}"
            );
            prev = v;
        }
    }
}

/// On brute-force-tractable fuzzed games, column generation at the exact
/// optimal thresholds must bracket the exhaustive master value: the
/// default greedy oracle is never *below* it (restricting the column set
/// can only hurt the auditor), and CGGS seeded with the full order set
/// must reproduce it exactly — any gap there would be a bookkeeping bug
/// in the restricted master, not oracle luck.
#[test]
fn cggs_agrees_with_brute_force_on_small_fuzzed_games() {
    let cfg = FuzzConfig {
        max_types: 2,
        max_attackers: 3,
        max_victims: 3,
        max_support: 4,
        ..Default::default()
    };
    for seed in 0..cases() {
        let spec = fuzz_game(&cfg, seed);
        let bank = spec.sample_bank(40, seed);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(spec.n_types());
        let bf = solve_brute_force(&spec, &est, &orders).unwrap();
        let greedy = Cggs::default().solve(&spec, &est, &bf.thresholds).unwrap();
        assert!(
            greedy.master.value >= bf.value - 1e-7,
            "seed {seed}: CGGS {} below the exhaustive optimum {}",
            greedy.master.value,
            bf.value
        );
        let full = Cggs::new(CggsConfig {
            seed_columns: orders.clone(),
            ..Default::default()
        })
        .solve(&spec, &est, &bf.thresholds)
        .unwrap();
        assert!(
            (full.master.value - bf.value).abs() <= 1e-7,
            "seed {seed}: fully seeded CGGS {} vs brute force {}",
            full.master.value,
            bf.value
        );
    }
}

/// At or below `EXACT_MAX_TYPES`, the forced decomposed inner degrades to
/// exhaustive enumeration and must be **bit-identical** to the exact
/// inner on fuzzed games — not just close: same loss bits, same policy,
/// same exploration counts.
#[test]
fn decomposed_inner_is_bit_identical_to_exact_on_fuzzed_small_games() {
    let cfg = FuzzConfig::default(); // 2–4 types: always on the exhaustive path
    for seed in 0..cases().min(16) {
        let spec = fuzz_game(&cfg, seed);
        let solve = |inner: InnerKind| {
            OapSolver::new(SolverConfig {
                epsilon: 0.5,
                n_samples: 24,
                seed,
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
            "seed {seed}: decomposed loss diverged from exact"
        );
        assert_eq!(
            exact.policy.thresholds, dec.policy.thresholds,
            "seed {seed}"
        );
        assert_eq!(exact.policy.orders, dec.policy.orders, "seed {seed}");
        assert_eq!(exact.policy.probs, dec.policy.probs, "seed {seed}");
        assert_eq!(
            exact.stats.thresholds_explored, dec.stats.thresholds_explored,
            "seed {seed}"
        );
    }
}

/// On wide fuzzed games (16–32 types, where exhaustive enumeration is
/// impossible) the master LP is monotone in the column pool: the value
/// over the union of the decomposed pool and the CGGS-generated columns
/// is at most the value over either pool alone. This brackets the
/// decomposition against column generation without needing an exact
/// baseline at that width.
#[test]
fn decomposed_and_cggs_pools_bracket_their_union_on_wide_games() {
    let cfg = FuzzConfig::wide();
    for seed in 0..cases().min(8) {
        let spec = fuzz_game(&cfg, seed);
        let bank = spec.sample_bank(24, seed);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let thresholds: Vec<f64> = spec
            .threshold_upper_bounds()
            .into_iter()
            .map(|b| b.min(spec.budget))
            .collect();

        let dec_pool = decomposed_pool(&TypeClusters::build(&spec));
        let value_of = |orders: Vec<AuditOrder>| {
            let matrix = PayoffMatrix::build(&spec, &est, orders, &thresholds);
            MasterSolver::solve(&spec, &matrix).unwrap().value
        };
        let dec_value = value_of(dec_pool.clone());

        let cggs = Cggs::default().solve(&spec, &est, &thresholds).unwrap();
        let cggs_value = cggs.master.value;

        let mut union = dec_pool;
        for o in cggs.orders {
            if !union.contains(&o) {
                union.push(o);
            }
        }
        let union_value = value_of(union);
        assert!(
            union_value <= dec_value + 1e-7,
            "seed {seed}: union {union_value} above decomposed pool {dec_value}"
        );
        assert!(
            union_value <= cggs_value + 1e-7,
            "seed {seed}: union {union_value} above CGGS pool {cggs_value}"
        );
    }
}

/// Budget monotonicity survives the decomposed tier: over the **fixed**
/// decomposed column pool of a wide fuzzed game, the master value at
/// full-coverage thresholds is non-increasing in the budget.
#[test]
fn value_is_monotone_in_budget_over_the_decomposed_pool_on_wide_games() {
    let cfg = FuzzConfig::wide();
    for seed in 0..cases().min(8) {
        let mut spec = fuzz_game(&cfg, seed);
        let bank = spec.sample_bank(24, 99);
        let pool = decomposed_pool(&TypeClusters::build(&spec));
        let thresholds = spec.threshold_upper_bounds();
        let mut prev = f64::INFINITY;
        for budget in [2.0, 4.0, 8.0, 16.0] {
            spec.budget = budget;
            let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
            let matrix = PayoffMatrix::build(&spec, &est, pool.clone(), &thresholds);
            let v = MasterSolver::solve(&spec, &matrix).unwrap().value;
            assert!(
                v <= prev + 1e-6,
                "seed {seed}: value rose to {v} from {prev} at budget {budget}"
            );
            prev = v;
        }
    }
}
