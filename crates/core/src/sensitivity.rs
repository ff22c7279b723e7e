//! Parameter sensitivity analysis.
//!
//! The paper concedes that "it is unclear how sensitive this result is to
//! parameter variations. Thus, more investigation is needed." This module
//! supplies the instrument: scale one payoff dimension of a game (rewards,
//! penalties, attack costs, or the attack probabilities `p_e`) across a
//! grid, re-solve, and report the loss curve. The `exp` harness and the
//! `robust_audit` example use it to show how the policy's value and the
//! deterrence frontier move with the (admittedly ad hoc) payoff settings.

use crate::detection::{DetectionEstimator, DetectionModel};
use crate::error::GameError;
use crate::ishm::{ExactEvaluator, Ishm, IshmConfig, ThresholdEvaluator};
use crate::model::GameSpec;
use serde::{Deserialize, Serialize};

/// Which parameter family a sweep scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parameter {
    /// Attacker rewards `R`.
    Reward,
    /// Capture penalties `M`.
    Penalty,
    /// Attack costs `K`.
    AttackCost,
    /// Attack probabilities `p_e` (clamped to `[0, 1]`).
    AttackProb,
    /// Audit budget `B`.
    Budget,
}

/// One point of a sensitivity curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// Multiplier applied to the base value.
    pub scale: f64,
    /// Solved auditor loss at this scale.
    pub loss: f64,
    /// Fraction of attackers with best-response utility ≤ 0 (deterred or
    /// indifferent).
    pub deterred_fraction: f64,
}

/// Scale one parameter family of a spec by `factor`.
pub fn scale_spec(spec: &GameSpec, parameter: Parameter, factor: f64) -> GameSpec {
    assert!(factor.is_finite() && factor >= 0.0, "scale must be ≥ 0");
    let mut out = spec.clone();
    match parameter {
        Parameter::Budget => out.budget *= factor,
        Parameter::AttackProb => {
            for att in &mut out.attackers {
                att.attack_prob = (att.attack_prob * factor).clamp(0.0, 1.0);
            }
        }
        _ => {
            for att in &mut out.attackers {
                for act in &mut att.actions {
                    match parameter {
                        Parameter::Reward => act.reward *= factor,
                        Parameter::Penalty => act.penalty *= factor,
                        Parameter::AttackCost => act.attack_cost *= factor,
                        _ => unreachable!("covered above"),
                    }
                }
            }
        }
    }
    out
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SensitivityConfig {
    /// Multipliers to apply.
    pub scales: Vec<f64>,
    /// ISHM step size.
    pub epsilon: f64,
    /// Monte-Carlo samples.
    pub n_samples: usize,
    /// Seed.
    pub seed: u64,
    /// Worker threads for the detection engine backing each re-solve
    /// (results are thread-count invariant).
    pub threads: usize,
}

impl Default for SensitivityConfig {
    fn default() -> Self {
        Self {
            scales: vec![0.5, 0.75, 1.0, 1.5, 2.0],
            epsilon: 0.25,
            n_samples: 300,
            seed: 0,
            threads: 1,
        }
    }
}

/// Run a sweep over one parameter family (exact inner LP; intended for
/// small `|T|` games such as Syn A).
pub fn sweep(
    spec: &GameSpec,
    parameter: Parameter,
    config: &SensitivityConfig,
) -> Result<Vec<SensitivityPoint>, GameError> {
    let mut out = Vec::with_capacity(config.scales.len());
    for &scale in &config.scales {
        let scaled = scale_spec(spec, parameter, scale);
        let bank = scaled.sample_bank(config.n_samples, config.seed);
        let est = DetectionEstimator::new(&scaled, &bank, DetectionModel::PaperApprox);
        let mut eval = ExactEvaluator::with_threads(&scaled, est, config.threads);
        let outcome = Ishm::new(IshmConfig {
            epsilon: config.epsilon,
            ..Default::default()
        })
        .solve(&scaled, &mut eval)?;
        let deterred = outcome
            .master
            .u_attackers
            .iter()
            .filter(|&&u| u <= 1e-9)
            .count();
        out.push(SensitivityPoint {
            scale,
            loss: outcome.value,
            deterred_fraction: deterred as f64 / scaled.n_attackers().max(1) as f64,
        });
    }
    Ok(out)
}

/// One point of a single-threshold loss curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdCurvePoint {
    /// Threshold value substituted at the swept coordinate.
    pub threshold: f64,
    /// Auditor's loss (exact master LP over all orders) at that value.
    pub loss: f64,
}

/// Loss curve along **one threshold coordinate**, all other thresholds
/// held at `base_thresholds`: for every value in `values`, solve the exact
/// master LP over all orders with `thresholds[coord] = value`.
///
/// This is the paper's missing local-sensitivity instrument ("how flat is
/// the optimum in each coordinate?"). It runs the batch path ISHM uses:
/// one [`ExactEvaluator`] primes every value as a single sweep batch, so
/// all `(order, value)` pairs share one prefix trie (the prefix before the
/// swept coordinate is paid once per order, and detection-equivalent
/// values, such as the saturated tail, share one node and one master LP).
/// Intended for small `|T|` games (all `|T|!` orders are materialized).
pub fn threshold_curve(
    spec: &GameSpec,
    est: &DetectionEstimator<'_>,
    base_thresholds: &[f64],
    coord: usize,
    values: &[f64],
    threads: usize,
) -> Result<Vec<ThresholdCurvePoint>, GameError> {
    spec.validate()?;
    assert!(coord < spec.n_types(), "swept coordinate out of range");
    assert_eq!(base_thresholds.len(), spec.n_types());
    let candidates: Vec<Vec<f64>> = values
        .iter()
        .map(|&value| {
            let mut thresholds = base_thresholds.to_vec();
            thresholds[coord] = value;
            thresholds
        })
        .collect();
    let mut eval = ExactEvaluator::with_threads(spec, *est, threads);
    eval.prime(&candidates)?;
    values
        .iter()
        .zip(&candidates)
        .map(|(&threshold, thresholds)| {
            Ok(ThresholdCurvePoint {
                threshold,
                loss: eval.evaluate(thresholds)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::syn_a_with_budget;
    use crate::master::MasterSolver;
    use crate::ordering::AuditOrder;

    #[test]
    fn scaling_transforms_the_right_fields() {
        let s = syn_a_with_budget(6.0);
        let r = scale_spec(&s, Parameter::Reward, 2.0);
        assert_eq!(
            r.attackers[0].actions[1].reward,
            s.attackers[0].actions[1].reward * 2.0
        );
        assert_eq!(
            r.attackers[0].actions[1].penalty,
            s.attackers[0].actions[1].penalty
        );

        let p = scale_spec(&s, Parameter::Penalty, 0.5);
        assert_eq!(p.attackers[0].actions[1].penalty, 2.0);

        let b = scale_spec(&s, Parameter::Budget, 3.0);
        assert_eq!(b.budget, 18.0);

        let q = scale_spec(&s, Parameter::AttackProb, 5.0);
        assert_eq!(q.attackers[0].attack_prob, 1.0); // clamped
    }

    #[test]
    fn reward_scaling_raises_loss() {
        let s = syn_a_with_budget(6.0);
        let cfg = SensitivityConfig {
            scales: vec![0.5, 1.0, 2.0],
            epsilon: 0.5,
            n_samples: 100,
            seed: 2,
            threads: 1,
        };
        let curve = sweep(&s, Parameter::Reward, &cfg).unwrap();
        assert!(
            curve[0].loss < curve[2].loss,
            "richer attacks must hurt more"
        );
    }

    #[test]
    fn penalty_scaling_lowers_loss() {
        let s = syn_a_with_budget(6.0);
        let cfg = SensitivityConfig {
            scales: vec![0.0, 2.0],
            epsilon: 0.5,
            n_samples: 100,
            seed: 2,
            threads: 1,
        };
        let curve = sweep(&s, Parameter::Penalty, &cfg).unwrap();
        assert!(curve[1].loss < curve[0].loss, "harsher penalties must help");
    }

    #[test]
    #[should_panic]
    fn negative_scale_rejected() {
        scale_spec(&syn_a_with_budget(2.0), Parameter::Reward, -1.0);
    }

    #[test]
    fn threshold_curve_matches_per_value_solves() {
        let s = syn_a_with_budget(6.0);
        let bank = s.sample_bank(120, 3);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let base = vec![3.0, 3.0, 3.0, 3.0];
        let values = [0.0, 1.0, 2.0, 4.0, 50.0];
        let curve = threshold_curve(&s, &est, &base, 1, &values, 2).unwrap();
        assert_eq!(curve.len(), values.len());
        // Reference: one exact solve per value, no sweep kernel.
        let orders = AuditOrder::enumerate_all(4);
        for (point, &v) in curve.iter().zip(&values) {
            let mut th = base.clone();
            th[1] = v;
            let m = crate::payoff::PayoffMatrix::build(&s, &est, orders.clone(), &th);
            let want = MasterSolver::solve(&s, &m).unwrap().value;
            assert_eq!(point.loss.to_bits(), want.to_bits(), "value {v}");
        }
    }
}
