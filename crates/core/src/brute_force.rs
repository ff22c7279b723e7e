//! Exhaustive threshold search — the paper's optimal baseline.
//!
//! Section IV.B computes the OAP optimum by brute force: enumerate every
//! integer threshold vector `b` with `b_t/C_t ∈ {0, …, J_t}` (where `J_t`
//! is the full-coverage bound) and `Σ_t b_t ≥ B` (thresholds summing below
//! the budget waste auditing resource), solving the exact master LP for
//! each. Exponential in `|T|`; usable only on small instances such as
//! Syn A, which is precisely its role: the gold standard that Tables IV–VI
//! measure ISHM/CGGS against.

use crate::detection::{DetectionEstimator, PalEngine};
use crate::error::GameError;
use crate::master::{MasterSolution, MasterSolver};
use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use crate::payoff::PayoffMatrix;

/// Result of the exhaustive search.
#[derive(Debug, Clone)]
pub struct BruteForceResult {
    /// Optimal threshold vector (budget units; `b_t = k_t·C_t`).
    pub thresholds: Vec<f64>,
    /// Optimal objective value.
    pub value: f64,
    /// Master solution at the optimum.
    pub master: MasterSolution,
    /// Order columns aligned with `master.p_orders`.
    pub orders: Vec<AuditOrder>,
    /// Number of threshold vectors actually evaluated (after the
    /// `Σ b_t ≥ B` filter).
    pub explored: usize,
    /// Total size of the unfiltered search lattice `Π (J_t + 1)`.
    pub space_size: u128,
}

/// Size of the unfiltered threshold lattice `Π_t (J_t + 1)` — the
/// denominator of the exploration-ratio vector `T'` in Section IV.C.
pub fn threshold_space_size(spec: &GameSpec) -> u128 {
    spec.distributions
        .iter()
        .map(|d| d.support_max() as u128 + 1)
        .product()
}

/// Exhaustively solve the OAP for the given spec.
///
/// `orders` is the feasible order set (all `|T|!` permutations unless the
/// organization restricts them). Every threshold vector on the integer
/// lattice satisfying the budget-cover filter is evaluated with the exact
/// master LP.
///
/// Uses a single-threaded, *uncached* engine: brute force never revisits a
/// `(order, thresholds)` pair, so memoization would only burn memory.
pub fn solve_brute_force(
    spec: &GameSpec,
    est: &DetectionEstimator<'_>,
    orders: &[AuditOrder],
) -> Result<BruteForceResult, GameError> {
    spec.validate()?;
    if orders.is_empty() {
        return Err(GameError::InvalidConfig(
            "brute force needs a non-empty order set".into(),
        ));
    }
    let n = spec.n_types();
    let costs = spec.audit_costs();
    let caps: Vec<u64> = spec.distributions.iter().map(|d| d.support_max()).collect();
    let space_size = threshold_space_size(spec);
    let engine = PalEngine::uncached(*est, 1);

    // The cover filter Σ b_t ≥ B is meaningful only when the lattice can
    // reach the budget at all; otherwise the all-max vector is the only
    // sensible candidate and we keep vectors at the maximal simplex.
    let max_sum: f64 = caps.iter().zip(&costs).map(|(&k, &c)| k as f64 * c).sum();
    let min_cover = spec.budget.min(max_sum);

    let mut best: Option<(Vec<f64>, f64, MasterSolution)> = None;
    let mut explored = 0usize;

    let mut k = vec![0u64; n];
    loop {
        let thresholds: Vec<f64> = k
            .iter()
            .zip(&costs)
            .map(|(&ki, &c)| ki as f64 * c)
            .collect();
        let total: f64 = thresholds.iter().sum();
        if total + 1e-9 >= min_cover {
            let m = PayoffMatrix::build_with_engine(spec, &engine, orders.to_vec(), &thresholds);
            let sol = MasterSolver::solve(spec, &m)?;
            explored += 1;
            let better = best
                .as_ref()
                .map(|(_, v, _)| sol.value < *v - 1e-12)
                .unwrap_or(true);
            if better {
                best = Some((thresholds, sol.value, sol));
            }
        }
        // Odometer increment over the lattice.
        let mut i = 0usize;
        loop {
            if i == n {
                let (thresholds, value, master) =
                    best.expect("lattice contains the all-max vector");
                let m =
                    PayoffMatrix::build_with_engine(spec, &engine, orders.to_vec(), &thresholds);
                return Ok(BruteForceResult {
                    thresholds,
                    value,
                    master,
                    orders: m.orders,
                    explored,
                    space_size,
                });
            }
            if k[i] < caps[i] {
                k[i] += 1;
                break;
            }
            k[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::ishm::{ExactEvaluator, Ishm, IshmConfig};
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::Constant;

    fn spec(budget: f64) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(2)));
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(2)));
        b.attacker(Attacker::new(
            "e0",
            1.0,
            vec![
                AttackAction::deterministic("v0", t0, 8.0, 0.5, 4.0),
                AttackAction::deterministic("v1", t1, 6.0, 0.5, 4.0),
            ],
        ));
        b.attacker(Attacker::new(
            "e1",
            1.0,
            vec![AttackAction::deterministic("v1", t1, 7.0, 0.5, 4.0)],
        ));
        b.budget(budget);
        b.build().unwrap()
    }

    #[test]
    fn space_size_is_lattice_product() {
        let s = spec(2.0);
        assert_eq!(threshold_space_size(&s), 9); // (2+1)·(2+1)
    }

    #[test]
    fn brute_force_finds_global_optimum() {
        let s = spec(2.0);
        let bank = s.sample_bank(4, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(2);
        let bf = solve_brute_force(&s, &est, &orders).unwrap();

        // Every lattice point the filter admits must be ≥ the optimum.
        for k0 in 0..=2u64 {
            for k1 in 0..=2u64 {
                let t = vec![k0 as f64, k1 as f64];
                if t.iter().sum::<f64>() < 2.0 {
                    continue;
                }
                let m = PayoffMatrix::build(&s, &est, orders.clone(), &t);
                let v = MasterSolver::solve(&s, &m).unwrap().value;
                assert!(
                    v >= bf.value - 1e-9,
                    "thresholds {t:?} give {v} < brute-force optimum {}",
                    bf.value
                );
            }
        }
        assert!(bf.explored > 0);
        assert!(bf.explored as u128 <= bf.space_size);
    }

    #[test]
    fn ishm_never_beats_brute_force() {
        let s = spec(2.0);
        let bank = s.sample_bank(4, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(2);
        let bf = solve_brute_force(&s, &est, &orders).unwrap();

        let mut eval = ExactEvaluator::new(&s, est);
        let ishm = Ishm::new(IshmConfig {
            epsilon: 0.1,
            ..Default::default()
        })
        .solve(&s, &mut eval)
        .unwrap();
        assert!(
            ishm.value >= bf.value - 1e-7,
            "heuristic {} beat exhaustive optimum {}",
            ishm.value,
            bf.value
        );
    }

    #[test]
    fn budget_above_lattice_still_solves() {
        let s = spec(100.0);
        let bank = s.sample_bank(4, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(2);
        let bf = solve_brute_force(&s, &est, &orders).unwrap();
        // With unlimited budget the all-max thresholds audit everything:
        // all attacks detected → each attacker's best is −M−K = −4.5;
        // two attackers → −9.
        assert!((bf.value + 9.0).abs() < 1e-6, "value {}", bf.value);
    }
}
