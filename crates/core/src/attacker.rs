//! The attacker-model seam: which behavioural model drives the adversary.
//!
//! The paper's evaluation assumes a fully rational, zero-sum attacker. Its
//! discussion section flags both assumptions as limitations, and the crate
//! ships the corresponding extensions ([`crate::quantal`] for bounded
//! rationality, [`crate::general_sum`] for decoupled auditor damage). This
//! module ties them together behind one enum so *scenarios* can declare
//! which adversary they model and downstream layers — the conformance
//! matrix, the online runtime's epoch loop — can branch on it uniformly:
//!
//! ```text
//!   Scenario::attacker_model()
//!        │
//!        ├─ Rational            → solvers unchanged, no simulated attacks
//!        ├─ Quantal(λ)          → conformance adds ishm-qr cells;
//!        │                        runtime samples logit responses
//!        ├─ GeneralSum(damage)  → conformance adds ishm-gsum cells;
//!        │                        runtime scores auditor damage
//!        └─ Adaptive(lr)        → runtime attackers best-respond to an
//!                                 EWMA belief of *published* policies
//! ```
//!
//! The adaptive model is the repeated-game attacker of the audit-games
//! line of work: the auditor commits to a policy each epoch, the attacker
//! observes past commitments (not the current realization) and
//! best-responds to an exponentially-weighted belief over per-type alert
//! detection probabilities. With learning rate 1 the belief is simply the
//! previous epoch's published `Pal` vector.

use crate::general_sum::{damage_under_mixture, DamageModel};
use crate::master::MasterSolution;
use crate::model::GameSpec;
use crate::payoff::PayoffMatrix;
use crate::quantal::QuantalResponse;
use rand::Rng;

/// Parameters of the adaptive (repeated-game) attacker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// EWMA learning rate in `(0, 1]`: the weight of the newest published
    /// policy in the attacker's belief. `1.0` means the attacker fully
    /// trusts the latest epoch's policy.
    pub learning_rate: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self { learning_rate: 1.0 }
    }
}

/// Which behavioural model the adversary follows.
///
/// Scenarios expose this via
/// [`Scenario::attacker_model`](crate::scenario::Scenario::attacker_model);
/// the default is [`AttackerModel::Rational`], which leaves every existing
/// code path bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AttackerModel {
    /// The paper's attacker: best-responds exactly to the committed
    /// policy, zero-sum payoffs.
    #[default]
    Rational,
    /// Quantal-response (logit) attacker with rationality λ.
    Quantal(QuantalResponse),
    /// Rational attacker, but the auditor scores policies by decoupled
    /// organizational damage.
    GeneralSum(DamageModel),
    /// Repeated-game attacker best-responding to an EWMA belief over the
    /// auditor's published policies.
    Adaptive(AdaptiveConfig),
}

impl AttackerModel {
    /// Stable short key (used in telemetry and docs).
    pub fn key(&self) -> &'static str {
        match self {
            AttackerModel::Rational => "rational",
            AttackerModel::Quantal(_) => "quantal",
            AttackerModel::GeneralSum(_) => "general-sum",
            AttackerModel::Adaptive(_) => "adaptive",
        }
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            AttackerModel::Rational => "fully rational best-responder (paper baseline)".into(),
            AttackerModel::Quantal(qr) => {
                format!("quantal-response attacker, lambda = {}", qr.lambda)
            }
            AttackerModel::GeneralSum(dm) => format!(
                "rational attacker, general-sum damage (reward x{}, recovery x{})",
                dm.damage_per_reward, dm.recovery_per_penalty
            ),
            AttackerModel::Adaptive(cfg) => format!(
                "adaptive repeated-game attacker, learning rate {}",
                cfg.learning_rate
            ),
        }
    }

    /// Whether this is the paper's baseline model (no simulated attack
    /// traffic in the runtime, no extra conformance cells).
    pub fn is_rational(&self) -> bool {
        matches!(self, AttackerModel::Rational)
    }

    /// The damage model the auditor scores outcomes with: the general-sum
    /// model's own, or the zero-sum-compatible default otherwise.
    pub fn damage_model(&self) -> DamageModel {
        match self {
            AttackerModel::GeneralSum(dm) => *dm,
            _ => DamageModel::default(),
        }
    }

    /// The auditor's objective when it plays `master`'s mixture over
    /// `matrix`'s columns and the attacker follows this model: the zero-sum
    /// master value for the rational and adaptive models, the logit loss
    /// for the quantal model, and the expected damage for the general-sum
    /// model. `master` must be the master solved from `matrix`.
    pub fn loss(&self, spec: &GameSpec, matrix: &PayoffMatrix, master: &MasterSolution) -> f64 {
        match self {
            AttackerModel::Rational | AttackerModel::Adaptive(_) => master.value,
            AttackerModel::Quantal(qr) => qr.loss_under_mixture(spec, matrix, &master.p_orders),
            AttackerModel::GeneralSum(dm) => {
                damage_under_mixture(spec, matrix, &master.p_orders, dm)
            }
        }
    }

    /// EWMA learning rate for the runtime's attacker belief: the adaptive
    /// model's rate, or `1.0` (belief = latest published policy) otherwise.
    pub fn belief_learning_rate(&self) -> f64 {
        match self {
            AttackerModel::Adaptive(cfg) => cfg.learning_rate,
            _ => 1.0,
        }
    }

    /// Pick an action index given per-action expected utilities.
    ///
    /// Non-quantal models best-respond: first argmax, or `None` (refrain)
    /// when opting out is allowed and every action has negative utility.
    /// The quantal model samples from the logit distribution (with the
    /// 0-utility refrain pseudo-action appended when allowed); `None`
    /// means the sampled choice was the pseudo-action.
    pub fn choose_action<R: Rng + ?Sized>(
        &self,
        utilities: &[f64],
        allow_opt_out: bool,
        rng: &mut R,
    ) -> Option<usize> {
        if utilities.is_empty() {
            return None;
        }
        match self {
            AttackerModel::Quantal(qr) => {
                let mut us = utilities.to_vec();
                if allow_opt_out {
                    us.push(0.0); // refrain
                }
                let probs = qr.choice_probs(&us);
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                let mut pick = probs.len() - 1;
                for (i, &p) in probs.iter().enumerate() {
                    acc += p;
                    if u <= acc {
                        pick = i;
                        break;
                    }
                }
                if pick >= utilities.len() {
                    None
                } else {
                    Some(pick)
                }
            }
            _ => {
                let (best, &best_u) = utilities
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
                    .unwrap();
                // First argmax, matching `PayoffMatrix::best_responses`.
                let first = utilities.iter().position(|&x| x == best_u).unwrap_or(best);
                if allow_opt_out && best_u < 0.0 {
                    None
                } else {
                    Some(first)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastics::rng::stream_rng;

    #[test]
    fn keys_and_descriptions_are_stable() {
        assert_eq!(AttackerModel::Rational.key(), "rational");
        assert_eq!(
            AttackerModel::Quantal(QuantalResponse::new(1.5)).key(),
            "quantal"
        );
        assert_eq!(
            AttackerModel::GeneralSum(DamageModel::default()).key(),
            "general-sum"
        );
        assert_eq!(
            AttackerModel::Adaptive(AdaptiveConfig::default()).key(),
            "adaptive"
        );
        for m in [
            AttackerModel::Rational,
            AttackerModel::Quantal(QuantalResponse::new(0.5)),
            AttackerModel::GeneralSum(DamageModel::default()),
            AttackerModel::Adaptive(AdaptiveConfig { learning_rate: 0.5 }),
        ] {
            assert!(!m.describe().is_empty());
        }
        assert!(AttackerModel::Rational.is_rational());
        assert!(!AttackerModel::Adaptive(AdaptiveConfig::default()).is_rational());
        assert_eq!(AttackerModel::default(), AttackerModel::Rational);
    }

    #[test]
    fn damage_model_and_learning_rate_defaults() {
        let dm = DamageModel {
            damage_per_reward: 3.0,
            recovery_per_penalty: 0.5,
        };
        assert_eq!(AttackerModel::GeneralSum(dm).damage_model(), dm);
        assert_eq!(
            AttackerModel::Rational.damage_model(),
            DamageModel::default()
        );
        let ac = AdaptiveConfig { learning_rate: 0.3 };
        assert_eq!(AttackerModel::Adaptive(ac).belief_learning_rate(), 0.3);
        assert_eq!(AttackerModel::Rational.belief_learning_rate(), 1.0);
    }

    #[test]
    fn rational_choice_is_first_argmax_with_deterrence() {
        let mut rng = stream_rng(0, 1);
        let m = AttackerModel::Rational;
        assert_eq!(m.choose_action(&[1.0, 3.0, 3.0], false, &mut rng), Some(1));
        assert_eq!(m.choose_action(&[-1.0, -2.0], true, &mut rng), None);
        // Without opt-out, even a losing action is taken.
        assert_eq!(m.choose_action(&[-1.0, -2.0], false, &mut rng), Some(0));
        assert_eq!(m.choose_action(&[], true, &mut rng), None);
    }

    #[test]
    fn quantal_choice_tracks_lambda_limits() {
        // Sharp lambda: almost always the argmax.
        let sharp = AttackerModel::Quantal(QuantalResponse::new(200.0));
        let mut rng = stream_rng(7, 2);
        let picks: Vec<Option<usize>> = (0..200)
            .map(|_| sharp.choose_action(&[0.5, 5.0, 1.0], false, &mut rng))
            .collect();
        assert!(picks.iter().filter(|p| **p == Some(1)).count() >= 199);
        // Lambda 0 with opt-out: uniform over 3 actions + refrain.
        let soft = AttackerModel::Quantal(QuantalResponse::new(0.0));
        let mut rng = stream_rng(7, 3);
        let n_refrain = (0..4000)
            .filter(|_| {
                soft.choose_action(&[0.5, 5.0, 1.0], true, &mut rng)
                    .is_none()
            })
            .count();
        let frac = n_refrain as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "refrain fraction {frac}");
    }
}
