//! General-sum auditing: dropping the zero-sum assumption.
//!
//! The paper's discussion notes that "an auditor is likely to be concerned
//! less about the cost incurred by an adversary for executing an attack and
//! more concerned about the losses that arise from successful violations."
//! This module implements that refinement: the auditor's **damage** from an
//! undetected attack is decoupled from the attacker's utility,
//!
//! ```text
//! attacker:  U_a = Pat·(−M) + (1 − Pat)·R − K          (unchanged, eq. 3)
//! auditor:   D   = (1 − Pat)·damage − Pat·recovery
//! ```
//!
//! Attackers still best-respond to the (zero-sum-solved or any other)
//! mixture; the auditor evaluates policies by expected damage. Because
//! attacker behaviour only depends on `U_a`, any mixture can be *scored*
//! under general-sum payoffs, and the threshold search can optimize damage
//! directly: an [`ExactEvaluator::against`] the
//! [`AttackerModel::GeneralSum`] model scores each candidate by
//! [`damage_under_mixture`] at its zero-sum equilibrium mixture.
//!
//! [`ExactEvaluator::against`]: crate::ishm::ExactEvaluator::against
//! [`AttackerModel::GeneralSum`]: crate::attacker::AttackerModel::GeneralSum

use crate::model::GameSpec;
use crate::payoff::{detection_prob, PayoffMatrix};

/// Auditor-side damage parameters per attack action, defaulting to a
/// transformation of the attacker payoffs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamageModel {
    /// Multiplier mapping attacker reward `R` to organizational damage
    /// (e.g. regulatory fines dwarfing the insider's gain).
    pub damage_per_reward: f64,
    /// Value recovered (deterrence signal, restitution) when an attack is
    /// caught, per unit of attacker penalty `M`.
    pub recovery_per_penalty: f64,
}

impl Default for DamageModel {
    fn default() -> Self {
        // Zero-sum-compatible default: damage = R, recovery = M, which
        // makes general-sum scoring coincide with the attacker's utility up
        // to the (auditor-irrelevant) attack cost K.
        Self {
            damage_per_reward: 1.0,
            recovery_per_penalty: 1.0,
        }
    }
}

/// Expected auditor damage if the auditor plays `p` over `matrix.orders`
/// and every attacker best-responds **to their own utility**.
pub fn damage_under_mixture(
    spec: &GameSpec,
    matrix: &PayoffMatrix,
    p: &[f64],
    model: &DamageModel,
) -> f64 {
    assert_eq!(p.len(), matrix.n_orders());
    let responses = matrix.best_responses(spec, p);
    // Mixture-weighted Pal per type.
    let n_types = spec.n_types();
    let mut pal_mix = vec![0.0f64; n_types];
    for (pal, &po) in matrix.pals.iter().zip(p) {
        for t in 0..n_types {
            pal_mix[t] += po * pal[t];
        }
    }
    let mut damage = 0.0;
    for (e, att) in spec.attackers.iter().enumerate() {
        let Some(flat) = responses[e] else { continue };
        let local = flat - matrix.index.range(e).start;
        let action = &att.actions[local];
        let pat = detection_prob(action, &pal_mix);
        let d = (1.0 - pat) * model.damage_per_reward * action.reward
            - pat * model.recovery_per_penalty * action.penalty;
        damage += att.attack_prob * d;
    }
    damage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::AttackerModel;
    use crate::detection::{DetectionEstimator, DetectionModel};
    use crate::ishm::{ExactEvaluator, Ishm, IshmConfig};
    use crate::master::MasterSolver;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use crate::ordering::AuditOrder;
    use std::sync::Arc;
    use stochastics::Constant;

    fn spec() -> GameSpec {
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
        b.budget(2.0);
        b.build().unwrap()
    }

    #[test]
    fn default_model_tracks_zero_sum_up_to_attack_cost() {
        let s = spec();
        let bank = s.sample_bank(32, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let matrix = PayoffMatrix::build(&s, &est, AuditOrder::enumerate_all(2), &[2.0, 2.0]);
        let master = MasterSolver::solve(&s, &matrix).unwrap();
        let zero_sum = matrix.loss_under_mixture(&s, &master.p_orders);
        let general = damage_under_mixture(&s, &matrix, &master.p_orders, &DamageModel::default());
        // Difference is exactly the attack cost K = 0.5 of the chosen action.
        assert!(
            (general - (zero_sum + 0.5)).abs() < 1e-6,
            "general {general} vs zero-sum {zero_sum}"
        );
    }

    #[test]
    fn identity_model_equals_zero_sum_loss_when_attacks_are_free() {
        // With K = 0 the per-action damage under the identity DamageModel
        // is literally the attacker utility (detection_prob is linear in
        // pal, and both sides evaluate at the mixture-weighted pal), so
        // general-sum scoring coincides with the zero-sum loss exactly.
        let mut s = spec();
        for att in &mut s.attackers {
            for a in &mut att.actions {
                a.attack_cost = 0.0;
            }
        }
        let bank = s.sample_bank(32, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let matrix = PayoffMatrix::build(&s, &est, AuditOrder::enumerate_all(2), &[1.0, 2.0]);
        let master = MasterSolver::solve(&s, &matrix).unwrap();
        for p in [master.p_orders.clone(), vec![0.5, 0.5]] {
            let zero_sum = matrix.loss_under_mixture(&s, &p);
            let general = damage_under_mixture(&s, &matrix, &p, &DamageModel::default());
            assert!(
                (general - zero_sum).abs() <= 1e-9 * zero_sum.abs().max(1.0),
                "general {general} vs zero-sum {zero_sum}"
            );
        }
    }

    #[test]
    fn damage_scales_with_multiplier() {
        let s = spec();
        let bank = s.sample_bank(32, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let matrix = PayoffMatrix::build(&s, &est, AuditOrder::enumerate_all(2), &[2.0, 2.0]);
        let p = vec![0.5, 0.5];
        let base = damage_under_mixture(&s, &matrix, &p, &DamageModel::default());
        let amplified = damage_under_mixture(
            &s,
            &matrix,
            &p,
            &DamageModel {
                damage_per_reward: 3.0,
                recovery_per_penalty: 1.0,
            },
        );
        assert!(amplified > base);
    }

    #[test]
    fn general_sum_ishm_runs_and_is_finite() {
        let s = spec();
        let bank = s.sample_bank(64, 1);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let mut eval = ExactEvaluator::against(
            &s,
            est,
            AttackerModel::GeneralSum(DamageModel {
                damage_per_reward: 2.0,
                recovery_per_penalty: 0.5,
            }),
        );
        let out = Ishm::new(IshmConfig {
            epsilon: 0.25,
            ..Default::default()
        })
        .solve(&s, &mut eval)
        .unwrap();
        assert!(out.value.is_finite());
        assert_eq!(out.thresholds.len(), 2);
    }

    #[test]
    fn deterred_attackers_cause_no_damage() {
        let mut s = spec();
        s.allow_opt_out = true;
        s.budget = 10.0;
        let bank = s.sample_bank(32, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let matrix = PayoffMatrix::build(&s, &est, AuditOrder::enumerate_all(2), &[10.0, 10.0]);
        // Full coverage: every attack is caught, so attacking pays −4.5 and
        // the attacker opts out → zero damage.
        let d = damage_under_mixture(&s, &matrix, &[0.5, 0.5], &DamageModel::default());
        assert_eq!(d, 0.0);
    }
}
