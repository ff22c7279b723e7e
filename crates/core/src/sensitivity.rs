//! Parameter sensitivity analysis.
//!
//! The paper concedes that "it is unclear how sensitive this result is to
//! parameter variations. Thus, more investigation is needed." This module
//! supplies the instrument: scale one payoff dimension of a game (rewards,
//! penalties, attack costs, or the attack probabilities `p_e`) across a
//! grid, re-solve, and report the loss curve. The `exp` harness and the
//! `robust_audit` example use it to show how the policy's value and the
//! deterrence frontier move with the (admittedly ad hoc) payoff settings.

use crate::error::GameError;
use crate::model::GameSpec;
use crate::solver::{InnerKind, OapSolver, SolverConfig};

/// Which parameter family a sweep scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// Multiplier applied to the base value.
    pub scale: f64,
    /// Solved auditor loss at this scale.
    pub loss: f64,
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
}

impl Default for SensitivityConfig {
    fn default() -> Self {
        Self {
            scales: vec![0.5, 0.75, 1.0, 1.5, 2.0],
            epsilon: 0.25,
            n_samples: 300,
            seed: 0,
        }
    }
}

/// Run a sweep over one parameter family: one [`OapSolver`] solve per
/// scale with the exact inner LP, on the scaled spec as given (intended for
/// small `|T|` games such as Syn A).
pub fn sweep(
    spec: &GameSpec,
    parameter: Parameter,
    config: &SensitivityConfig,
) -> Result<Vec<SensitivityPoint>, GameError> {
    let solver = OapSolver::new(SolverConfig {
        epsilon: config.epsilon,
        n_samples: config.n_samples,
        seed: config.seed,
        inner: InnerKind::Exact,
        dedup_actions: false,
        ..Default::default()
    });
    let mut out = Vec::with_capacity(config.scales.len());
    for &scale in &config.scales {
        let scaled = scale_spec(spec, parameter, scale);
        let loss = solver.solve(&scaled)?.loss;
        out.push(SensitivityPoint { scale, loss });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::syn_a_with_budget;

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
        };
        let curve = sweep(&s, Parameter::Penalty, &cfg).unwrap();
        assert!(curve[1].loss < curve[0].loss, "harsher penalties must help");
    }

    #[test]
    #[should_panic]
    fn negative_scale_rejected() {
        scale_spec(&syn_a_with_budget(2.0), Parameter::Reward, -1.0);
    }
}
