//! Game specification: alert types, count distributions, attackers and
//! their candidate attacks (Section II of the paper; notation of Table I).

use crate::error::GameError;
use std::sync::Arc;
use stochastics::snapshot::Fnv;
use stochastics::{CountDistribution, JointCountModel};

/// One alert category `t ∈ T`.
#[derive(Debug, Clone)]
pub struct AlertType {
    /// Human-readable label, e.g. `"Same Last Name"`.
    pub name: String,
    /// `C_t`: cost (e.g. investigator time) of auditing one alert.
    pub audit_cost: f64,
}

impl AlertType {
    /// Construct an alert type.
    pub fn new(name: impl Into<String>, audit_cost: f64) -> Self {
        Self {
            name: name.into(),
            audit_cost,
        }
    }
}

/// One candidate attack `⟨e, v⟩` available to an attacker: the victim, the
/// stochastic alert footprint `P^t_ev`, and the payoff parameters.
#[derive(Debug, Clone)]
pub struct AttackAction {
    /// Victim label (a record, patient, application purpose, …).
    pub victim: String,
    /// `P^t_ev`: probability that the attack raises an alert of each type.
    /// Entries are `(type index, probability)`; the probabilities must sum
    /// to at most 1 (with the residual meaning "no alert raised").
    pub alert_probs: Vec<(usize, f64)>,
    /// `R(⟨e,v⟩)`: attacker's gain when the attack goes undetected.
    pub reward: f64,
    /// `K(⟨e,v⟩)`: cost of mounting the attack.
    pub attack_cost: f64,
    /// `M(⟨e,v⟩)`: penalty when caught. Stored as a non-negative magnitude;
    /// it enters the utility **negatively** (see [`crate::payoff`] and the
    /// sign discussion in `DESIGN.md`).
    pub penalty: f64,
}

impl AttackAction {
    /// An attack that deterministically raises one alert of type `t`.
    pub fn deterministic(
        victim: impl Into<String>,
        alert_type: usize,
        reward: f64,
        attack_cost: f64,
        penalty: f64,
    ) -> Self {
        Self {
            victim: victim.into(),
            alert_probs: vec![(alert_type, 1.0)],
            reward,
            attack_cost,
            penalty,
        }
    }

    /// A benign action: raises no alert, yields no reward, but still incurs
    /// the action cost (used to model accesses the TDMT never flags).
    pub fn benign(victim: impl Into<String>, attack_cost: f64) -> Self {
        Self {
            victim: victim.into(),
            alert_probs: Vec::new(),
            reward: 0.0,
            attack_cost,
            penalty: 0.0,
        }
    }

    /// A structural fingerprint used to merge strategically identical
    /// actions (same alert footprint and payoffs). Two actions with equal
    /// keys induce identical LP rows.
    fn dedup_key(&self) -> ActionKey {
        let mut probs: Vec<(usize, u64)> = self
            .alert_probs
            .iter()
            .map(|&(t, p)| (t, p.to_bits()))
            .collect();
        probs.sort_unstable();
        (
            probs,
            self.reward.to_bits(),
            self.attack_cost.to_bits(),
            self.penalty.to_bits(),
        )
    }
}

/// Structural fingerprint of an attack action: sorted alert footprint plus
/// bit-exact payoff parameters.
type ActionKey = (Vec<(usize, u64)>, u64, u64, u64);

/// One potential adversary `e ∈ E`.
#[derive(Debug, Clone)]
pub struct Attacker {
    /// Label (employee id, applicant id, …).
    pub name: String,
    /// `p_e`: probability that this adversary considers attacking at all.
    pub attack_prob: f64,
    /// The victims this adversary can target.
    pub actions: Vec<AttackAction>,
}

impl Attacker {
    /// Construct an attacker.
    pub fn new(name: impl Into<String>, attack_prob: f64, actions: Vec<AttackAction>) -> Self {
        Self {
            name: name.into(),
            attack_prob,
            actions,
        }
    }
}

/// Full specification of one alert-prioritization game instance.
#[derive(Clone)]
pub struct GameSpec {
    /// The alert vocabulary `T`.
    pub alert_types: Vec<AlertType>,
    /// `F_t`: benign per-period count distribution per alert type.
    pub distributions: Vec<Arc<dyn CountDistribution>>,
    /// The adversary population `E` with their candidate attacks.
    pub attackers: Vec<Attacker>,
    /// `B`: total auditing budget per period.
    pub budget: f64,
    /// Whether adversaries may refrain from attacking (utility 0). The real
    /// datasets allow this (deterrence); Syn A does not (see `DESIGN.md`).
    pub allow_opt_out: bool,
    /// Optional correlated benign-count sampler. When set,
    /// [`GameSpec::sample_bank`] draws joint rows from it instead of
    /// sampling the marginals independently; `distributions` must then hold
    /// the matching per-type *marginal* laws (they still drive threshold
    /// bounds and reporting).
    pub joint_counts: Option<Arc<dyn JointCountModel>>,
}

impl std::fmt::Debug for GameSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GameSpec")
            .field("alert_types", &self.alert_types)
            .field("n_distributions", &self.distributions.len())
            .field("n_attackers", &self.attackers.len())
            .field("budget", &self.budget)
            .field("allow_opt_out", &self.allow_opt_out)
            .field("correlated_counts", &self.joint_counts.is_some())
            .finish()
    }
}

impl GameSpec {
    /// Number of alert types `|T|`.
    pub fn n_types(&self) -> usize {
        self.alert_types.len()
    }

    /// Number of potential adversaries `|E|`.
    pub fn n_attackers(&self) -> usize {
        self.attackers.len()
    }

    /// Total number of attack actions across all adversaries.
    pub fn n_actions(&self) -> usize {
        self.attackers.iter().map(|a| a.actions.len()).sum()
    }

    /// Audit costs `C_t` as a vector.
    pub fn audit_costs(&self) -> Vec<f64> {
        self.alert_types.iter().map(|t| t.audit_cost).collect()
    }

    /// Per-type threshold upper bounds `b̄_t = C_t · max supp(F_t)`:
    /// thresholds above the full-coverage point cannot improve the policy
    /// because `F_t(b̄_t / C_t) ≈ 1` (Section III-B).
    pub fn threshold_upper_bounds(&self) -> Vec<f64> {
        self.alert_types
            .iter()
            .zip(&self.distributions)
            .map(|(t, d)| t.audit_cost * d.support_max() as f64)
            .collect()
    }

    /// Draw a common-random-number sample bank of benign count vectors:
    /// joint rows from [`GameSpec::joint_counts`] when a correlated model is
    /// attached, otherwise independent draws from the per-type marginals.
    pub fn sample_bank(&self, n_samples: usize, seed: u64) -> stochastics::SampleBank {
        match &self.joint_counts {
            Some(joint) => stochastics::SampleBank::generate_joint(joint.as_ref(), n_samples, seed),
            None => stochastics::SampleBank::generate_from(
                self.distributions
                    .iter()
                    .map(|d| d.as_ref() as &dyn CountDistribution),
                n_samples,
                seed,
            ),
        }
    }

    /// Validate structural soundness. All solvers call this first.
    pub fn validate(&self) -> Result<(), GameError> {
        if self.alert_types.is_empty() {
            return Err(GameError::InvalidSpec("no alert types".into()));
        }
        if self.distributions.len() != self.alert_types.len() {
            return Err(GameError::InvalidSpec(format!(
                "{} alert types but {} count distributions",
                self.alert_types.len(),
                self.distributions.len()
            )));
        }
        if let Some(joint) = &self.joint_counts {
            if joint.n_types() != self.alert_types.len() {
                return Err(GameError::InvalidSpec(format!(
                    "joint count model covers {} types but the game has {}",
                    joint.n_types(),
                    self.alert_types.len()
                )));
            }
        }
        if !(self.budget.is_finite() && self.budget >= 0.0) {
            return Err(GameError::InvalidSpec(format!(
                "budget must be finite and non-negative, got {}",
                self.budget
            )));
        }
        for (i, t) in self.alert_types.iter().enumerate() {
            if !(t.audit_cost.is_finite() && t.audit_cost > 0.0) {
                return Err(GameError::InvalidSpec(format!(
                    "alert type #{i} ({}) has non-positive audit cost {}",
                    t.name, t.audit_cost
                )));
            }
        }
        for (e, att) in self.attackers.iter().enumerate() {
            if !(0.0..=1.0).contains(&att.attack_prob) {
                return Err(GameError::InvalidSpec(format!(
                    "attacker #{e} ({}) has attack probability {} outside [0,1]",
                    att.name, att.attack_prob
                )));
            }
            for (a, act) in att.actions.iter().enumerate() {
                let mut total = 0.0;
                for &(t, p) in &act.alert_probs {
                    if t >= self.alert_types.len() {
                        return Err(GameError::InvalidSpec(format!(
                            "attacker #{e} action #{a} references alert type {t} \
                             but only {} exist",
                            self.alert_types.len()
                        )));
                    }
                    if !(0.0..=1.0).contains(&p) {
                        return Err(GameError::InvalidSpec(format!(
                            "attacker #{e} action #{a} has alert probability {p}"
                        )));
                    }
                    total += p;
                }
                if total > 1.0 + 1e-9 {
                    return Err(GameError::InvalidSpec(format!(
                        "attacker #{e} action #{a} alert probabilities sum to {total} > 1"
                    )));
                }
                for (label, v) in [
                    ("reward", act.reward),
                    ("attack cost", act.attack_cost),
                    ("penalty", act.penalty),
                ] {
                    if !v.is_finite() {
                        return Err(GameError::InvalidSpec(format!(
                            "attacker #{e} action #{a} has non-finite {label}"
                        )));
                    }
                }
                if act.penalty < 0.0 {
                    return Err(GameError::InvalidSpec(format!(
                        "attacker #{e} action #{a} has negative penalty {}; penalties \
                         are magnitudes and enter the utility negatively",
                        act.penalty
                    )));
                }
            }
        }
        Ok(())
    }

    /// Merge strategically identical actions within each attacker.
    ///
    /// Attacks that share the same alert footprint and payoff parameters
    /// induce identical rows in the master LP; on the EMR dataset this
    /// collapses 50 × 50 victim actions to at most one per (type-signature,
    /// payoff) class, an order-of-magnitude LP shrink with bitwise-identical
    /// solutions. Victim labels of merged actions are concatenated.
    pub fn dedup_actions(&self) -> GameSpec {
        let mut out = self.clone();
        for att in &mut out.attackers {
            let mut seen: Vec<ActionKey> = Vec::new();
            let mut kept: Vec<AttackAction> = Vec::new();
            for act in &att.actions {
                let key = act.dedup_key();
                if let Some(pos) = seen.iter().position(|k| *k == key) {
                    let label = format!("{}+{}", kept[pos].victim, act.victim);
                    // Keep merged labels bounded: long lists add no insight.
                    if kept[pos].victim.len() < 64 {
                        kept[pos].victim = label;
                    }
                } else {
                    seen.push(key);
                    kept.push(act.clone());
                }
            }
            att.actions = kept;
        }
        out
    }

    /// A structural fingerprint of the full specification, bit-exact in
    /// every float.
    ///
    /// Covers the alert vocabulary (names, audit costs), the complete pmf
    /// of every count distribution over its support, the attacker/action
    /// table (labels, footprints, payoffs), budget, opt-out, and — through
    /// a fixed-seed probe bank — the joint count model when one is
    /// attached. Two specs with equal fingerprints are interchangeable for
    /// every solver in this workspace; the scenario property suite uses
    /// this to pin "same seed ⇒ bit-identical game" across reruns and
    /// thread counts.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical byte serialization.
        let mut h = Fnv::new();
        h.word(self.alert_types.len() as u64);
        for (t, d) in self.alert_types.iter().zip(&self.distributions) {
            h.bytes(t.name.as_bytes());
            h.word(t.audit_cost.to_bits());
            h.word(d.support_min());
            h.word(d.support_max());
            for n in d.support_min()..=d.support_max() {
                h.word(d.pmf(n).to_bits());
            }
        }
        h.word(self.attackers.len() as u64);
        for att in &self.attackers {
            h.bytes(att.name.as_bytes());
            h.word(att.attack_prob.to_bits());
            h.word(att.actions.len() as u64);
            for act in &att.actions {
                h.bytes(act.victim.as_bytes());
                for &(t, p) in &act.alert_probs {
                    h.word(t as u64);
                    h.word(p.to_bits());
                }
                h.word(act.reward.to_bits());
                h.word(act.attack_cost.to_bits());
                h.word(act.penalty.to_bits());
            }
        }
        h.word(self.budget.to_bits());
        h.word(self.allow_opt_out as u64);
        if self.joint_counts.is_some() {
            // Probe the joint sampler with a small fixed-seed bank so two
            // specs differing only in correlation structure hash apart.
            let probe = self.sample_bank(8, 0xF1D0);
            for s in 0..probe.n_samples() {
                for z in probe.row(s) {
                    h.word(z);
                }
            }
        }
        h.finish()
    }

    /// Sum over attackers of their single best undetected-attack utility —
    /// a finite upper bound on the auditor's loss, used for sanity checks.
    pub fn max_possible_loss(&self) -> f64 {
        self.attackers
            .iter()
            .map(|att| {
                let best = att
                    .actions
                    .iter()
                    .map(|a| a.reward - a.attack_cost)
                    .fold(f64::NEG_INFINITY, f64::max);
                let best = if self.allow_opt_out {
                    best.max(0.0)
                } else {
                    best
                };
                if best.is_finite() {
                    att.attack_prob * best
                } else {
                    0.0
                }
            })
            .sum()
    }
}

/// Builder-style construction of a [`GameSpec`].
#[derive(Default)]
pub struct GameSpecBuilder {
    alert_types: Vec<AlertType>,
    distributions: Vec<Arc<dyn CountDistribution>>,
    attackers: Vec<Attacker>,
    budget: f64,
    allow_opt_out: bool,
    joint_counts: Option<Arc<dyn JointCountModel>>,
}

impl GameSpecBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an alert type together with its benign count distribution.
    /// Returns the type index usable in [`AttackAction::alert_probs`].
    pub fn alert_type(
        &mut self,
        name: impl Into<String>,
        audit_cost: f64,
        dist: Arc<dyn CountDistribution>,
    ) -> usize {
        self.alert_types.push(AlertType::new(name, audit_cost));
        self.distributions.push(dist);
        self.alert_types.len() - 1
    }

    /// Register an attacker.
    pub fn attacker(&mut self, attacker: Attacker) -> &mut Self {
        self.attackers.push(attacker);
        self
    }

    /// Set the audit budget `B`.
    pub fn budget(&mut self, budget: f64) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Allow adversaries to refrain from attacking.
    pub fn allow_opt_out(&mut self, allow: bool) -> &mut Self {
        self.allow_opt_out = allow;
        self
    }

    /// Attach a correlated benign-count sampler. The per-type distributions
    /// registered via [`GameSpecBuilder::alert_type`] must be the matching
    /// marginals.
    pub fn joint_counts(&mut self, model: Arc<dyn JointCountModel>) -> &mut Self {
        self.joint_counts = Some(model);
        self
    }

    /// Finalize and validate.
    pub fn build(self) -> Result<GameSpec, GameError> {
        let spec = GameSpec {
            alert_types: self.alert_types,
            distributions: self.distributions,
            attackers: self.attackers,
            budget: self.budget,
            allow_opt_out: self.allow_opt_out,
            joint_counts: self.joint_counts,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastics::Constant;

    fn tiny_spec() -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(2)));
        let t1 = b.alert_type("t1", 2.0, Arc::new(Constant(3)));
        b.attacker(Attacker::new(
            "e0",
            1.0,
            vec![
                AttackAction::deterministic("v0", t0, 5.0, 1.0, 4.0),
                AttackAction::deterministic("v1", t1, 6.0, 1.0, 4.0),
            ],
        ));
        b.budget(3.0);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_spec() {
        let s = tiny_spec();
        assert_eq!(s.n_types(), 2);
        assert_eq!(s.n_attackers(), 1);
        assert_eq!(s.n_actions(), 2);
        assert_eq!(s.audit_costs(), vec![1.0, 2.0]);
        assert_eq!(s.threshold_upper_bounds(), vec![2.0, 6.0]);
    }

    #[test]
    fn max_possible_loss_is_best_undetected_gain() {
        let s = tiny_spec();
        assert!((s.max_possible_loss() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_type_reference() {
        let mut s = tiny_spec();
        s.attackers[0].actions[0].alert_probs = vec![(9, 1.0)];
        assert!(matches!(s.validate(), Err(GameError::InvalidSpec(_))));
    }

    #[test]
    fn validate_rejects_probability_overflow() {
        let mut s = tiny_spec();
        s.attackers[0].actions[0].alert_probs = vec![(0, 0.7), (1, 0.7)];
        assert!(matches!(s.validate(), Err(GameError::InvalidSpec(_))));
    }

    #[test]
    fn validate_rejects_negative_penalty() {
        let mut s = tiny_spec();
        s.attackers[0].actions[0].penalty = -1.0;
        assert!(matches!(s.validate(), Err(GameError::InvalidSpec(_))));
    }

    #[test]
    fn validate_rejects_bad_attack_prob() {
        let mut s = tiny_spec();
        s.attackers[0].attack_prob = 1.5;
        assert!(matches!(s.validate(), Err(GameError::InvalidSpec(_))));
    }

    #[test]
    fn validate_rejects_zero_audit_cost() {
        let mut s = tiny_spec();
        s.alert_types[0].audit_cost = 0.0;
        assert!(matches!(s.validate(), Err(GameError::InvalidSpec(_))));
    }

    #[test]
    fn dedup_merges_identical_actions() {
        let mut s = tiny_spec();
        let dup = s.attackers[0].actions[0].clone();
        s.attackers[0].actions.push(dup);
        assert_eq!(s.n_actions(), 3);
        let d = s.dedup_actions();
        assert_eq!(d.n_actions(), 2);
        assert!(d.attackers[0].actions[0].victim.contains('+'));
    }

    #[test]
    fn benign_action_has_no_alerts() {
        let a = AttackAction::benign("v", 0.4);
        assert!(a.alert_probs.is_empty());
        assert_eq!(a.reward, 0.0);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = tiny_spec();
        let b = tiny_spec();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = tiny_spec();
        c.budget += 1.0;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = tiny_spec();
        d.attackers[0].actions[0].reward += 1e-12;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    struct LockstepCounts;

    impl stochastics::JointCountModel for LockstepCounts {
        fn n_types(&self) -> usize {
            2
        }

        fn sample_row(&self, _i: usize, rng: &mut dyn rand::RngCore, row: &mut [u64]) {
            // Perfectly correlated: both types share one draw.
            row.fill(stochastics::UniformCount::new(0, 3).sample(rng));
        }
    }

    #[test]
    fn joint_model_drives_the_sample_bank() {
        let mut s = tiny_spec();
        s.joint_counts = Some(Arc::new(LockstepCounts));
        s.validate().unwrap();
        let bank = s.sample_bank(64, 9);
        assert_eq!(bank.column(0), bank.column(1), "correlation lost");
        // Same spec without the joint model samples independently.
        let indep = tiny_spec().sample_bank(64, 9);
        assert_ne!(indep.column(0), indep.column(1));
    }

    #[test]
    fn joint_model_arity_is_validated() {
        let mut s = tiny_spec();
        s.alert_types.push(AlertType::new("t2", 1.0));
        s.distributions.push(Arc::new(Constant(1)));
        s.joint_counts = Some(Arc::new(LockstepCounts)); // 2 types vs 3
        assert!(matches!(s.validate(), Err(GameError::InvalidSpec(_))));
    }
}
