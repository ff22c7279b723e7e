//! Empirical game simulation: play the solved policy for many periods
//! against best-responding attackers and *measure* the auditor's loss.
//!
//! The LP pipeline predicts the loss analytically (through the `Pal`
//! approximation of eq. 1). This module provides the ground truth the
//! approximation targets: each period draws benign alert counts, the
//! attackers attack per their best responses, the auditor executes the
//! policy ([`crate::execute`]), and a caught attack pays `−M − K` while an
//! uncaught one pays `R − K`. Agreement between predicted and simulated
//! loss is the strongest end-to-end correctness check the library has
//! (see `tests/simulation_validation.rs`).

use crate::detection::{DetectionEstimator, PalEngine};
use crate::execute::{execute_policy, AuditPolicy, RealizedAlert};
use crate::model::GameSpec;
use crate::payoff::PayoffMatrix;
use rand::Rng;
use stochastics::rng::stream_rng;

/// Aggregated outcome of a multi-period simulation.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Periods simulated.
    pub n_periods: usize,
    /// Mean attacker surplus per period (the auditor's empirical loss).
    pub mean_loss: f64,
    /// Standard deviation of the per-period loss.
    pub loss_std: f64,
    /// Attacks launched (non-deterred attackers × periods).
    pub attacks: usize,
    /// Attacks whose alert was audited.
    pub caught: usize,
    /// Attacks that raised no alert at all (stochastic alert footprints).
    pub silent: usize,
    /// Mean budget spent per period.
    pub mean_spent: f64,
}

impl SimulationReport {
    /// Empirical detection rate among alert-raising attacks.
    pub fn detection_rate(&self) -> f64 {
        let alerted = self.attacks - self.silent;
        if alerted == 0 {
            0.0
        } else {
            self.caught as f64 / alerted as f64
        }
    }
}

/// Simulate `n_periods` of auditing under `policy`.
///
/// Attackers play the best responses computed against the policy's order
/// mixture (the Stackelberg assumption: they observe the policy, not the
/// realized order). Each active attacker attacks every period with
/// probability `p_e`.
pub fn simulate_policy(
    spec: &GameSpec,
    policy: &AuditPolicy,
    est: &DetectionEstimator<'_>,
    n_periods: usize,
    seed: u64,
) -> SimulationReport {
    assert!(n_periods > 0, "need at least one period");
    // One-shot matrix build: batch the policy's support orders through an
    // uncached engine (identical results to the scalar path).
    let engine = PalEngine::uncached(*est, 1);
    let matrix =
        PayoffMatrix::build_with_engine(spec, &engine, policy.orders.clone(), &policy.thresholds);
    let responses = matrix.best_responses(spec, &policy.probs);

    let mut rng = stream_rng(seed, 0x51D);
    let mut losses = Vec::with_capacity(n_periods);
    let mut attacks = 0usize;
    let mut caught = 0usize;
    let mut silent = 0usize;
    let mut spent_total = 0.0;

    for period in 0..n_periods {
        let mut alerts: Vec<RealizedAlert> = Vec::new();
        let mut next_id = 0u64;

        // Benign workload.
        let z = draw_counts(spec, seed, period as u64);
        for (t, &count) in z.iter().enumerate() {
            for _ in 0..count {
                alerts.push(RealizedAlert {
                    alert_type: t,
                    id: next_id,
                });
                next_id += 1;
            }
        }

        // Attacks: each non-deterred attacker fires with probability p_e.
        // Remember which alert id belongs to which attack.
        let mut attack_alerts: Vec<(usize, Option<u64>, f64, f64, f64)> = Vec::new();
        for (e, att) in spec.attackers.iter().enumerate() {
            let Some(flat) = responses[e] else { continue };
            if !rng.gen_bool(att.attack_prob) {
                continue;
            }
            attacks += 1;
            let local = flat - matrix.index.range(e).start;
            let action = &att.actions[local];
            // Sample the alert type (or none) from the footprint.
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut raised: Option<(usize, u64)> = None;
            for &(t, p) in &action.alert_probs {
                acc += p;
                if u < acc {
                    raised = Some((t, next_id));
                    alerts.push(RealizedAlert {
                        alert_type: t,
                        id: next_id,
                    });
                    next_id += 1;
                    break;
                }
            }
            attack_alerts.push((
                e,
                raised.map(|(_, id)| id),
                action.reward,
                action.attack_cost,
                action.penalty,
            ));
            if raised.is_none() {
                silent += 1;
            }
        }

        // The auditor runs the policy on the realized queue.
        let run = execute_policy(policy, spec, &alerts, &mut rng);
        spent_total += run.spent;

        // Settle payoffs.
        let mut period_loss = 0.0;
        for &(_e, raised, reward, cost, penalty) in &attack_alerts {
            let was_caught = raised
                .map(|id| run.audited.iter().any(|ids| ids.binary_search(&id).is_ok()))
                .unwrap_or(false);
            if was_caught {
                caught += 1;
                period_loss += -penalty - cost;
            } else {
                period_loss += reward - cost;
            }
        }
        losses.push(period_loss);
    }

    SimulationReport {
        n_periods,
        mean_loss: stochastics::stats::mean(&losses),
        loss_std: stochastics::stats::std_dev(&losses),
        attacks,
        caught,
        silent,
        mean_spent: spent_total / n_periods as f64,
    }
}

/// Draw one period's benign counts from the spec's distributions.
fn draw_counts(spec: &GameSpec, seed: u64, period: u64) -> Vec<u64> {
    let mut rng = stream_rng(seed, 0xBEEF ^ period);
    spec.distributions
        .iter()
        .map(|d| d.sample(&mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use crate::ordering::AuditOrder;
    use std::sync::Arc;
    use stochastics::Constant;

    fn spec(budget: f64, opt_out: bool) -> GameSpec {
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
        b.budget(budget);
        b.allow_opt_out(opt_out);
        b.build().unwrap()
    }

    fn policy_for(spec: &GameSpec) -> (AuditPolicy, stochastics::SampleBank) {
        let bank = spec.sample_bank(200, 1);
        (
            AuditPolicy::new(
                vec![2.0, 2.0],
                vec![
                    AuditOrder::identity(2),
                    AuditOrder::new(vec![1, 0]).unwrap(),
                ],
                vec![0.5, 0.5],
            ),
            bank,
        )
    }

    #[test]
    fn simulated_loss_matches_attack_inclusive_prediction() {
        // With tiny benign counts (Z_t = 2) the attack alert inflates the
        // queue materially, so the ground truth matches the
        // `AttackInclusive` detection model — and exposes the bias of the
        // paper's rare-attack approximation in this regime.
        let s = spec(2.0, false);
        let (policy, bank) = policy_for(&s);
        let est_incl = DetectionEstimator::new(&s, &bank, DetectionModel::AttackInclusive);
        let m_incl = PayoffMatrix::build(&s, &est_incl, policy.orders.clone(), &policy.thresholds);
        let predicted_incl = m_incl.loss_under_mixture(&s, &policy.probs);

        let est_paper = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let m_paper =
            PayoffMatrix::build(&s, &est_paper, policy.orders.clone(), &policy.thresholds);
        let predicted_paper = m_paper.loss_under_mixture(&s, &policy.probs);

        let report = simulate_policy(&s, &policy, &est_paper, 4000, 9);
        assert!(
            (report.mean_loss - predicted_incl).abs() < 0.25,
            "simulated {} vs attack-inclusive prediction {predicted_incl}",
            report.mean_loss
        );
        // The paper's approximation over-estimates detection (it divides by
        // Z_t instead of Z_t + 1), hence under-estimates the loss here.
        assert!(
            predicted_paper < report.mean_loss - 0.5,
            "expected rare-attack bias: paper {predicted_paper} vs simulated {}",
            report.mean_loss
        );
    }

    #[test]
    fn approximation_bias_vanishes_for_large_counts() {
        // With Z_t = 30 the attack alert is a 3% perturbation and the
        // paper's approximation agrees with the simulation.
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(30)));
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(30)));
        b.attacker(Attacker::new(
            "e0",
            1.0,
            vec![
                AttackAction::deterministic("v0", t0, 8.0, 0.5, 4.0),
                AttackAction::deterministic("v1", t1, 6.0, 0.5, 4.0),
            ],
        ));
        b.budget(20.0);
        let s = b.build().unwrap();
        let bank = s.sample_bank(50, 1);
        let policy = AuditPolicy::new(
            vec![15.0, 15.0],
            vec![
                AuditOrder::identity(2),
                AuditOrder::new(vec![1, 0]).unwrap(),
            ],
            vec![0.5, 0.5],
        );
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let m = PayoffMatrix::build(&s, &est, policy.orders.clone(), &policy.thresholds);
        let predicted = m.loss_under_mixture(&s, &policy.probs);
        let report = simulate_policy(&s, &policy, &est, 4000, 3);
        assert!(
            (report.mean_loss - predicted).abs() < 0.3,
            "simulated {} vs predicted {predicted}",
            report.mean_loss
        );
    }

    #[test]
    fn full_coverage_catches_every_attack() {
        let s = spec(10.0, false);
        let (mut policy, bank) = policy_for(&s);
        policy.thresholds = vec![10.0, 10.0];
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let report = simulate_policy(&s, &policy, &est, 300, 2);
        assert_eq!(report.caught, report.attacks);
        assert!((report.detection_rate() - 1.0).abs() < 1e-12);
        // Attack caught every time → loss = −M − K = −4.5 per period.
        assert!((report.mean_loss + 4.5).abs() < 1e-9);
    }

    #[test]
    fn deterred_attackers_never_attack() {
        let s = spec(10.0, true); // full coverage + opt-out ⇒ deterrence
        let (mut policy, bank) = policy_for(&s);
        policy.thresholds = vec![10.0, 10.0];
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let report = simulate_policy(&s, &policy, &est, 200, 3);
        assert_eq!(report.attacks, 0);
        assert_eq!(report.mean_loss, 0.0);
    }

    #[test]
    fn budget_is_never_exceeded() {
        let s = spec(3.0, false);
        let (policy, bank) = policy_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let report = simulate_policy(&s, &policy, &est, 100, 4);
        assert!(report.mean_spent <= 3.0 + 1e-9);
        assert!(report.attacks > 0);
    }

    #[test]
    fn attack_probability_thins_attacks() {
        let mut s = spec(2.0, false);
        s.attackers[0].attack_prob = 0.25;
        let (policy, bank) = policy_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let report = simulate_policy(&s, &policy, &est, 2000, 5);
        let rate = report.attacks as f64 / 2000.0;
        assert!((rate - 0.25).abs() < 0.04, "attack rate {rate}");
    }
}
