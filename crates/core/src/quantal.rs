//! Boundedly rational attackers: the quantal-response (logit) model.
//!
//! The paper's discussion section flags full rationality as a limitation:
//! "adversaries may be bounded in their rationality, and an important
//! extension would be to generalize the model \[to\] such behavior." This
//! module provides that extension. Instead of the hard `max_v`, attacker
//! `e` picks action `v` with probability
//!
//! ```text
//! q_e(v) = exp(λ·U_a(v)) / Σ_{v'} exp(λ·U_a(v'))
//! ```
//!
//! (opting out enters as a 0-utility pseudo-action when allowed). `λ → ∞`
//! recovers the best-responding attacker; `λ = 0` attacks uniformly at
//! random. The auditor's loss under QR attackers is smooth in the policy,
//! and [`solve_qr_thresholds`] reuses the ISHM search over it.

use crate::detection::DetectionEstimator;
use crate::error::GameError;
use crate::ishm::{Ishm, IshmConfig, ThresholdEvaluator};
use crate::master::MasterSolution;
use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use crate::payoff::PayoffMatrix;
use serde::{Deserialize, Serialize};

/// Quantal-response model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantalResponse {
    /// Rationality parameter λ ≥ 0.
    pub lambda: f64,
}

impl QuantalResponse {
    /// Construct; λ must be finite and non-negative.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be ≥ 0");
        Self { lambda }
    }

    /// Logit choice probabilities over utilities (numerically stabilized).
    pub fn choice_probs(&self, utilities: &[f64]) -> Vec<f64> {
        assert!(!utilities.is_empty(), "need at least one action");
        let m = utilities.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = utilities
            .iter()
            .map(|&u| ((u - m) * self.lambda).exp())
            .collect();
        let total: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / total).collect()
    }

    /// Auditor's expected loss against QR attackers under an order mixture.
    ///
    /// For each attacker, expected utilities per action are computed under
    /// the mixture, turned into logit choice probabilities, and averaged.
    pub fn loss_under_mixture(&self, spec: &GameSpec, matrix: &PayoffMatrix, p: &[f64]) -> f64 {
        assert_eq!(p.len(), matrix.n_orders());
        let mut loss = 0.0;
        for (e, att) in spec.attackers.iter().enumerate() {
            if att.actions.is_empty() {
                continue;
            }
            let mut utilities: Vec<f64> = matrix
                .index
                .range(e)
                .map(|i| {
                    matrix
                        .values
                        .iter()
                        .zip(p)
                        .map(|(col, &po)| po * col[i])
                        .sum()
                })
                .collect();
            if spec.allow_opt_out {
                utilities.push(0.0); // refrain
            }
            let probs = self.choice_probs(&utilities);
            let expected: f64 = utilities.iter().zip(&probs).map(|(&u, &q)| u * q).sum();
            loss += att.attack_prob * expected;
        }
        loss
    }
}

/// Outcome of the QR threshold search.
#[derive(Debug, Clone)]
pub struct QrOutcome {
    /// Chosen thresholds.
    pub thresholds: Vec<f64>,
    /// QR loss at those thresholds.
    pub value: f64,
    /// The rational-attacker master solution at the same thresholds (for
    /// comparing the price of assuming full rationality).
    pub rational: MasterSolution,
}

/// Evaluator plugging the QR objective into ISHM. The order mixture for
/// each candidate threshold vector is the *rational* equilibrium mixture
/// (solved exactly over `orders`), against which the QR population responds
/// — the standard robust-evaluation setup.
pub struct QrEvaluator<'a> {
    spec: &'a GameSpec,
    est: DetectionEstimator<'a>,
    orders: Vec<AuditOrder>,
    qr: QuantalResponse,
}

impl<'a> QrEvaluator<'a> {
    /// Build over an explicit order set (all permutations for small `|T|`).
    pub fn new(
        spec: &'a GameSpec,
        est: DetectionEstimator<'a>,
        orders: Vec<AuditOrder>,
        qr: QuantalResponse,
    ) -> Self {
        assert!(!orders.is_empty());
        Self {
            spec,
            est,
            orders,
            qr,
        }
    }

    fn qr_value(&self, thresholds: &[f64]) -> Result<(f64, MasterSolution), GameError> {
        let matrix = PayoffMatrix::build(self.spec, &self.est, self.orders.clone(), thresholds);
        let master = crate::master::MasterSolver::solve(self.spec, &matrix)?;
        let loss = self
            .qr
            .loss_under_mixture(self.spec, &matrix, &master.p_orders);
        Ok((loss, master))
    }
}

impl ThresholdEvaluator for QrEvaluator<'_> {
    fn evaluate(&mut self, thresholds: &[f64]) -> Result<f64, GameError> {
        self.qr_value(thresholds).map(|(v, _)| v)
    }

    fn solve_full(
        &mut self,
        thresholds: &[f64],
    ) -> Result<(MasterSolution, Vec<AuditOrder>), GameError> {
        let (_, master) = self.qr_value(thresholds)?;
        Ok((master, self.orders.clone()))
    }
}

/// ISHM threshold search against a QR attacker population.
pub fn solve_qr_thresholds(
    spec: &GameSpec,
    est: &DetectionEstimator<'_>,
    qr: QuantalResponse,
    epsilon: f64,
) -> Result<QrOutcome, GameError> {
    let orders = AuditOrder::enumerate_all(spec.n_types());
    let mut eval = QrEvaluator::new(spec, *est, orders, qr);
    let outcome = Ishm::new(IshmConfig {
        epsilon,
        ..Default::default()
    })
    .solve(spec, &mut eval)?;
    let (value, rational) = eval.qr_value(&outcome.thresholds)?;
    Ok(QrOutcome {
        thresholds: outcome.thresholds,
        value,
        rational,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::Constant;

    fn spec() -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(1)));
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(1)));
        b.attacker(Attacker::new(
            "e0",
            1.0,
            vec![
                AttackAction::deterministic("v0", t0, 10.0, 0.0, 10.0),
                AttackAction::deterministic("v1", t1, 4.0, 0.0, 10.0),
            ],
        ));
        b.budget(1.0);
        b.build().unwrap()
    }

    #[test]
    fn choice_probs_limits() {
        let qr0 = QuantalResponse::new(0.0);
        let probs = qr0.choice_probs(&[5.0, -3.0, 1.0]);
        for &p in &probs {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
        let qr_inf = QuantalResponse::new(200.0);
        let probs = qr_inf.choice_probs(&[5.0, -3.0, 1.0]);
        assert!(probs[0] > 0.999);
    }

    #[test]
    fn choice_probs_are_a_distribution_and_monotone() {
        let qr = QuantalResponse::new(0.7);
        let probs = qr.choice_probs(&[2.0, 1.0, -1.0, 2.5]);
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(probs[3] > probs[0]);
        assert!(probs[0] > probs[1]);
        assert!(probs[1] > probs[2]);
    }

    #[test]
    fn qr_loss_interpolates_between_uniform_and_best_response() {
        let s = spec();
        let bank = s.sample_bank(16, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let matrix = PayoffMatrix::build(&s, &est, AuditOrder::enumerate_all(2), &[1.0, 1.0]);
        let p = vec![0.5, 0.5];
        let rational = matrix.loss_under_mixture(&s, &p);
        let qr_soft = QuantalResponse::new(0.0).loss_under_mixture(&s, &matrix, &p);
        let qr_sharp = QuantalResponse::new(500.0).loss_under_mixture(&s, &matrix, &p);
        // Sharp λ recovers the rational loss; λ = 0 averages both actions
        // and is weakly lower (random attackers exploit less).
        assert!((qr_sharp - rational).abs() < 1e-6);
        assert!(qr_soft <= rational + 1e-9);
    }

    #[test]
    fn qr_loss_is_monotone_in_lambda_on_a_fixed_policy() {
        // dE/dλ of a logit expectation is the variance of the utilities
        // under the choice distribution — non-negative — so the auditor's
        // QR loss at any fixed policy is non-decreasing in λ.
        let s = spec();
        let bank = s.sample_bank(32, 3);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let matrix = PayoffMatrix::build(&s, &est, AuditOrder::enumerate_all(2), &[1.0, 0.0]);
        let p = vec![0.25, 0.75];
        let mut prev = f64::NEG_INFINITY;
        for lambda in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0] {
            let loss = QuantalResponse::new(lambda).loss_under_mixture(&s, &matrix, &p);
            assert!(
                loss >= prev - 1e-12,
                "loss {loss} at lambda {lambda} dropped below {prev}"
            );
            prev = loss;
        }
    }

    #[test]
    fn qr_threshold_search_runs_end_to_end() {
        let s = spec();
        let bank = s.sample_bank(64, 1);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let out = solve_qr_thresholds(&s, &est, QuantalResponse::new(1.0), 0.25).unwrap();
        assert!(out.value.is_finite());
        assert_eq!(out.thresholds.len(), 2);
        // QR loss can never exceed the rational upper envelope at the same
        // policy.
        let matrix = PayoffMatrix::build(&s, &est, AuditOrder::enumerate_all(2), &out.thresholds);
        let rational_loss = matrix.loss_under_mixture(&s, &out.rational.p_orders);
        assert!(out.value <= rational_loss + 1e-6);
    }

    #[test]
    #[should_panic]
    fn negative_lambda_rejected() {
        QuantalResponse::new(-1.0);
    }
}
