//! The scenario substrate: every workload this workspace can audit,
//! expressed as one uniform interface.
//!
//! The paper evaluates the audit game on one synthetic setting (Syn A)
//! plus two real workloads. This module turns "a setting" into a
//! first-class object: a [`Scenario`] deterministically maps a seed to a
//! solvable [`GameSpec`] (and to a benign alert stream for simulation),
//! and a [`Registry`] lists every known scenario under a stable string
//! key. Experiment drivers, examples, and the golden conformance suite
//! all resolve scenarios through the registry, so adding a workload is a
//! one-file change: implement the trait, register the instance.
//!
//! This module ships the **core** scenarios:
//!
//! * `syn-a`, `syn-a-b6`, `syn-a-b20` — the paper's Table II game at
//!   budget 2 / 6 / 20;
//! * `syn-heavy-tail` — Zipf benign counts: most periods are quiet, rare
//!   bursts reach deep into the tail (stresses the Gaussian assumption);
//! * `syn-correlated` — a latent calm/storm regime lifts every type's
//!   counts together (correlated workload via [`RegimeMixingCounts`]);
//! * `syn-seasonal` — a weekly weekday/weekend cycle drifts the arrival
//!   intensities ([`SeasonalCounts`]);
//! * `syn-wide25`, `syn-wide50` — 25- and 50-type mixed-law workloads far
//!   past the paper's exact-solve ceiling, served by the
//!   [`crate::planner`] decomposed tier.
//!
//! The simulator crates (`emrsim`, `creditsim`, `tdmt`) implement
//! [`Scenario`] for their workloads; the umbrella crate's
//! `alert_audit::scenario::registry()` assembles the full cross-crate
//! registry. [`registry`] here returns the core subset.

use crate::attacker::{AdaptiveConfig, AttackerModel};
use crate::datasets::syn_a_with_budget;
use crate::error::GameError;
use crate::general_sum::DamageModel;
use crate::model::{AttackAction, Attacker, GameSpec, GameSpecBuilder};
use crate::quantal::QuantalResponse;
use rand::Rng;
use std::sync::Arc;
use stochastics::rng::{derive_seed, stream_rng};
use stochastics::snapshot::{DistParams, JointParams};
use stochastics::{
    CountDistribution, DiscretizedGaussian, JointCountModel, Mixture, Poisson, Zipf,
};

/// A named, reproducible audit setting.
///
/// Implementations must be **deterministic**: the same `seed` yields a
/// bit-identical [`GameSpec`] (see [`GameSpec::fingerprint`]) and alert
/// stream on every call, from any thread. All solver-side knobs (ε,
/// sample counts, threads) stay out of the scenario; only
/// [`Scenario::suggested_epsilon`] leaks a hint for drivers that want a
/// sensible default.
pub trait Scenario: Send + Sync {
    /// Stable registry key, e.g. `"syn-a"` or `"emr-reaa"`.
    fn key(&self) -> &str;

    /// Which substrate generates the workload (`"core"`, `"emrsim"`,
    /// `"creditsim"`, `"tdmt"`).
    fn source(&self) -> &str;

    /// One-line human description of the setting and its parameters.
    fn describe(&self) -> String;

    /// The seed drivers use when the caller does not supply one.
    fn default_seed(&self) -> u64 {
        0
    }

    /// A reasonable ISHM step size for this scenario's scale.
    fn suggested_epsilon(&self) -> f64 {
        0.25
    }

    /// Which behavioural model the scenario's adversary follows. Defaults
    /// to the paper's fully rational zero-sum attacker; strategic-attacker
    /// scenarios override this, and the conformance matrix and the online
    /// runtime branch on it (see [`crate::attacker::AttackerModel`]).
    fn attacker_model(&self) -> AttackerModel {
        AttackerModel::Rational
    }

    /// Compile the scenario to a full-scale game.
    fn build(&self, seed: u64) -> Result<GameSpec, GameError>;

    /// A reduced-size variant for conformance tests and CI: same
    /// statistical structure, smaller world. Defaults to [`Scenario::build`].
    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        self.build(seed)
    }

    /// A stream of benign per-period alert-count vectors (`n_periods`
    /// rows, one count per alert type) — the workload an operational
    /// auditor would face. Defaults to sampling the game's count model;
    /// simulator-backed scenarios override this with their native logs.
    fn alert_stream(&self, seed: u64, n_periods: usize) -> Result<Vec<Vec<u64>>, GameError> {
        let spec = self.build(seed)?;
        let bank = spec.sample_bank(n_periods.max(1), derive_seed(seed, 0xA1E7));
        Ok((0..n_periods).map(|s| bank.row(s)).collect())
    }
}

/// An ordered collection of scenarios with unique keys.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Arc<dyn Scenario>>,
}

impl Registry {
    /// An empty registry (use [`registry`] for the core built-ins).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Add a scenario. Panics on a duplicate key — keys are the public
    /// contract of the experiment CLI and the golden snapshot files.
    pub fn register(&mut self, scenario: Arc<dyn Scenario>) {
        assert!(
            self.get(scenario.key()).is_none(),
            "scenario key '{}' registered twice",
            scenario.key()
        );
        self.entries.push(scenario);
    }

    /// Look up by key.
    pub fn get(&self, key: &str) -> Option<&Arc<dyn Scenario>> {
        self.entries.iter().find(|s| s.key() == key)
    }

    /// Look up by key, with an error listing the known keys.
    pub fn resolve(&self, key: &str) -> Result<&Arc<dyn Scenario>, GameError> {
        self.get(key).ok_or_else(|| GameError::UnknownScenario {
            key: key.to_string(),
            known: self.keys().iter().map(|k| k.to_string()).collect(),
        })
    }

    /// All keys, in registration order.
    pub fn keys(&self) -> Vec<&str> {
        self.entries.iter().map(|s| s.key()).collect()
    }

    /// Iterate the scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Scenario>> {
        self.entries.iter()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Build the full-scale game of scenario `key` with `seed`.
    pub fn build(&self, key: &str, seed: u64) -> Result<GameSpec, GameError> {
        self.resolve(key)?.build(seed)
    }
}

/// The core built-in scenarios (Syn A variants + the three synthetic
/// families). The umbrella crate extends this with the simulator-backed
/// scenarios.
pub fn registry() -> Registry {
    let mut r = Registry::empty();
    r.register(Arc::new(SynA {
        key: "syn-a",
        budget: 2.0,
        epsilon: 0.1,
    }));
    r.register(Arc::new(SynA {
        key: "syn-a-b6",
        budget: 6.0,
        epsilon: 0.1,
    }));
    r.register(Arc::new(SynA {
        key: "syn-a-b20",
        budget: 20.0,
        epsilon: 0.3,
    }));
    r.register(Arc::new(HeavyTail));
    r.register(Arc::new(Correlated));
    r.register(Arc::new(Seasonal));
    r.register(Arc::new(Quantal));
    r.register(Arc::new(GeneralSum));
    r.register(Arc::new(Adaptive));
    r.register(Arc::new(Wide {
        key: "syn-wide25",
        full: (25, 6, 6, 6.0),
        small: (25, 5, 4, 6.0),
    }));
    r.register(Arc::new(Wide {
        key: "syn-wide50",
        full: (50, 6, 6, 10.0),
        small: (32, 5, 4, 8.0),
    }));
    r
}

// ---------------------------------------------------------------------
// Syn A variants
// ---------------------------------------------------------------------

/// The paper's Syn A game (Table II) at a fixed budget. The game is fully
/// table-driven, so the seed only affects downstream sampling, not the
/// spec itself.
struct SynA {
    key: &'static str,
    budget: f64,
    epsilon: f64,
}

impl Scenario for SynA {
    fn key(&self) -> &str {
        self.key
    }

    fn source(&self) -> &str {
        "core"
    }

    fn describe(&self) -> String {
        format!(
            "paper Table II synthetic game (4 Gaussian alert types, 5x8 attack grid), budget {}",
            self.budget
        )
    }

    fn suggested_epsilon(&self) -> f64 {
        self.epsilon
    }

    fn build(&self, _seed: u64) -> Result<GameSpec, GameError> {
        Ok(syn_a_with_budget(self.budget))
    }
}

// ---------------------------------------------------------------------
// Heavy-tail benign counts
// ---------------------------------------------------------------------

/// Zipf benign counts: `pmf(n) ∝ (n+1)^{-s}`, exponents per type chosen
/// so higher-value alert types have fatter tails.
struct HeavyTail;

/// Shared generator for the heavy-tail family, parameterized by scale.
fn heavy_tail_game(
    seed: u64,
    caps: [u64; 4],
    n_attackers: usize,
    n_victims: usize,
) -> Result<GameSpec, GameError> {
    const EXPONENTS: [f64; 4] = [2.5, 2.1, 1.8, 1.6];
    const BENEFITS: [f64; 4] = [3.0, 3.6, 4.2, 5.0];
    let mut b = GameSpecBuilder::new();
    for t in 0..4 {
        b.alert_type(
            format!("HT{}", t + 1),
            1.0,
            Arc::new(Zipf::new(EXPONENTS[t], caps[t])),
        );
    }
    let mut rng = stream_rng(seed, 0x4EA7);
    for e in 0..n_attackers {
        let actions: Vec<AttackAction> = (0..n_victims)
            .map(|v| {
                if rng.gen_bool(0.15) {
                    AttackAction::benign(format!("v{v}"), 0.4)
                } else {
                    let t = rng.gen_range(0..4usize);
                    AttackAction::deterministic(format!("v{v}"), t, BENEFITS[t], 0.4, 4.0)
                }
            })
            .collect();
        b.attacker(Attacker::new(format!("e{e}"), 1.0, actions));
    }
    b.budget(4.0);
    b.allow_opt_out(true);
    b.build()
}

impl Scenario for HeavyTail {
    fn key(&self) -> &str {
        "syn-heavy-tail"
    }

    fn source(&self) -> &str {
        "core"
    }

    fn describe(&self) -> String {
        "heavy-tail benign counts: 4 Zipf alert types (s in [1.6, 2.5]), seeded 6x6 attack grid"
            .into()
    }

    fn suggested_epsilon(&self) -> f64 {
        0.3
    }

    fn build(&self, seed: u64) -> Result<GameSpec, GameError> {
        heavy_tail_game(seed, [24, 28, 32, 36], 6, 6)
    }

    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        heavy_tail_game(seed, [10, 12, 14, 16], 4, 4)
    }
}

// ---------------------------------------------------------------------
// Correlated alert types (latent calm/storm regime)
// ---------------------------------------------------------------------

/// Joint benign-count sampler with a latent per-period regime: draw the
/// regime from fixed weights, then every type from that regime's
/// component distribution. All types surge together in a storm period —
/// the correlation structure the paper's independent-marginal model
/// cannot express. The matching per-type marginal is the [`Mixture`] of
/// the components under the regime weights.
pub struct RegimeMixingCounts {
    weights: Vec<f64>,
    /// `components[r][t]`: type `t`'s law under regime `r`.
    components: Vec<Vec<Arc<dyn CountDistribution>>>,
}

impl RegimeMixingCounts {
    /// Build from regime weights (renormalized) and per-regime component
    /// rows. Every regime must cover the same number of types.
    pub fn new(weights: Vec<f64>, components: Vec<Vec<Arc<dyn CountDistribution>>>) -> Self {
        assert_eq!(weights.len(), components.len(), "one weight per regime");
        assert!(!components.is_empty(), "need at least one regime");
        let n = components[0].len();
        assert!(n > 0, "regimes must cover at least one type");
        assert!(components.iter().all(|c| c.len() == n), "ragged regimes");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "regime weights must be non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "regime weights need positive mass");
        Self {
            weights: weights.into_iter().map(|w| w / total).collect(),
            components,
        }
    }

    /// Build from **already-normalized** regime weights, trusting them
    /// bit-for-bit. This is the snapshot-restore path:
    /// [`RegimeMixingCounts::new`] divides by the total, and re-dividing
    /// persisted normalized weights would perturb their low bits and break
    /// bit-exact spec reconstruction.
    pub fn from_normalized(
        weights: Vec<f64>,
        components: Vec<Vec<Arc<dyn CountDistribution>>>,
    ) -> Self {
        assert_eq!(weights.len(), components.len(), "one weight per regime");
        assert!(!components.is_empty(), "need at least one regime");
        let n = components[0].len();
        assert!(n > 0, "regimes must cover at least one type");
        assert!(components.iter().all(|c| c.len() == n), "ragged regimes");
        let total: f64 = weights.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6 && weights.iter().all(|&w| w >= 0.0),
            "weights must already be normalized"
        );
        Self {
            weights,
            components,
        }
    }

    /// The marginal law of type `t`: the mixture of its per-regime
    /// components under the regime weights.
    pub fn marginal(&self, t: usize) -> Mixture {
        Mixture::new(
            self.weights
                .iter()
                .zip(&self.components)
                .map(|(&w, row)| (w, row[t].clone()))
                .collect(),
        )
    }
}

impl JointCountModel for RegimeMixingCounts {
    fn n_types(&self) -> usize {
        self.components[0].len()
    }

    fn sample_row(&self, _i: usize, rng: &mut dyn rand::RngCore, row: &mut [u64]) {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut regime = self.weights.len() - 1;
        for (r, &w) in self.weights.iter().enumerate() {
            acc += w;
            if u <= acc {
                regime = r;
                break;
            }
        }
        for (z, d) in row.iter_mut().zip(&self.components[regime]) {
            *z = d.sample(rng);
        }
    }

    fn snapshot_params(&self) -> Option<JointParams> {
        let components = self
            .components
            .iter()
            .map(|row| {
                row.iter()
                    .map(|d| d.snapshot_params())
                    .collect::<Option<Vec<DistParams>>>()
            })
            .collect::<Option<Vec<_>>>()?;
        Some(JointParams::Regime {
            // Internal (normalized) weights; restore goes through
            // `from_normalized` so they survive bit-for-bit.
            weights: self.weights.clone(),
            components,
        })
    }
}

/// Correlated scenario: calm (75%) vs storm (25%) regimes over 3 alert
/// types, with stochastic attack footprints spanning two types.
struct Correlated;

fn correlated_counts() -> RegimeMixingCounts {
    let calm: Vec<Arc<dyn CountDistribution>> = vec![
        Arc::new(DiscretizedGaussian::with_halfwidth(3.0, 1.2, 3)),
        Arc::new(DiscretizedGaussian::with_halfwidth(2.5, 1.0, 3)),
        Arc::new(DiscretizedGaussian::with_halfwidth(2.0, 0.9, 3)),
    ];
    let storm: Vec<Arc<dyn CountDistribution>> = vec![
        Arc::new(DiscretizedGaussian::with_halfwidth(9.0, 2.5, 6)),
        Arc::new(DiscretizedGaussian::with_halfwidth(8.0, 2.0, 6)),
        Arc::new(DiscretizedGaussian::with_halfwidth(6.0, 1.8, 5)),
    ];
    RegimeMixingCounts::new(vec![0.75, 0.25], vec![calm, storm])
}

fn correlated_game(seed: u64, n_attackers: usize, n_victims: usize) -> Result<GameSpec, GameError> {
    const BENEFITS: [f64; 3] = [3.2, 3.8, 4.5];
    let joint = Arc::new(correlated_counts());
    let mut b = GameSpecBuilder::new();
    for t in 0..3 {
        b.alert_type(format!("C{}", t + 1), 1.0, Arc::new(joint.marginal(t)));
    }
    let mut rng = stream_rng(seed, 0xC0C0);
    for e in 0..n_attackers {
        let actions: Vec<AttackAction> = (0..n_victims)
            .map(|v| {
                // Stochastic footprint: the attack trips one of two
                // adjacent alert types depending on the benign context.
                let t = rng.gen_range(0..3usize);
                let spill = rng.gen_range(0.2..0.45);
                let other = (t + 1) % 3;
                AttackAction {
                    victim: format!("v{v}"),
                    alert_probs: vec![(t, 1.0 - spill), (other, spill)],
                    reward: BENEFITS[t],
                    attack_cost: 0.4,
                    penalty: 4.0,
                }
            })
            .collect();
        b.attacker(Attacker::new(format!("e{e}"), 1.0, actions));
    }
    b.budget(3.0);
    b.allow_opt_out(true);
    b.joint_counts(joint);
    b.build()
}

impl Scenario for Correlated {
    fn key(&self) -> &str {
        "syn-correlated"
    }

    fn source(&self) -> &str {
        "core"
    }

    fn describe(&self) -> String {
        "correlated workload: calm/storm regime mixes 3 Gaussian types, two-type attack footprints"
            .into()
    }

    fn suggested_epsilon(&self) -> f64 {
        0.3
    }

    fn build(&self, seed: u64) -> Result<GameSpec, GameError> {
        correlated_game(seed, 5, 4)
    }

    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        correlated_game(seed, 4, 3)
    }
}

// ---------------------------------------------------------------------
// Seasonal arrival drift
// ---------------------------------------------------------------------

/// Joint benign-count sampler with a deterministic season cycle: period
/// `i` uses phase `i mod phases.len()`. With a weekly cycle, weekday
/// periods are busy and weekend periods quiet — bursty drift in the
/// arrival intensities. The marginal of each type is the phase-uniform
/// [`Mixture`] of its per-phase laws.
pub struct SeasonalCounts {
    /// `phases[p][t]`: type `t`'s law in phase `p`.
    phases: Vec<Vec<Arc<dyn CountDistribution>>>,
}

impl SeasonalCounts {
    /// Build from per-phase component rows (all the same width).
    pub fn new(phases: Vec<Vec<Arc<dyn CountDistribution>>>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        let n = phases[0].len();
        assert!(n > 0, "phases must cover at least one type");
        assert!(phases.iter().all(|p| p.len() == n), "ragged phases");
        Self { phases }
    }

    /// The phase-uniform marginal law of type `t`.
    pub fn marginal(&self, t: usize) -> Mixture {
        Mixture::new(
            self.phases
                .iter()
                .map(|row| (1.0, row[t].clone()))
                .collect(),
        )
    }
}

impl JointCountModel for SeasonalCounts {
    fn n_types(&self) -> usize {
        self.phases[0].len()
    }

    fn sample_row(&self, i: usize, rng: &mut dyn rand::RngCore, row: &mut [u64]) {
        let phase = &self.phases[i % self.phases.len()];
        for (z, d) in row.iter_mut().zip(phase) {
            *z = d.sample(rng);
        }
    }

    fn snapshot_params(&self) -> Option<JointParams> {
        let phases = self
            .phases
            .iter()
            .map(|row| {
                row.iter()
                    .map(|d| d.snapshot_params())
                    .collect::<Option<Vec<DistParams>>>()
            })
            .collect::<Option<Vec<_>>>()?;
        Some(JointParams::Seasonal { phases })
    }
}

/// Seasonal scenario: a 7-phase weekly cycle (5 busy weekdays, 2 quiet
/// weekend days) over 3 Poisson alert types.
struct Seasonal;

fn seasonal_counts() -> SeasonalCounts {
    let weekday: Vec<Arc<dyn CountDistribution>> = vec![
        Arc::new(Poisson::new(6.0)),
        Arc::new(Poisson::new(4.0)),
        Arc::new(Poisson::new(3.0)),
    ];
    let weekend: Vec<Arc<dyn CountDistribution>> = vec![
        Arc::new(Poisson::new(2.0)),
        Arc::new(Poisson::new(1.5)),
        Arc::new(Poisson::new(1.0)),
    ];
    let mut phases: Vec<Vec<Arc<dyn CountDistribution>>> = Vec::new();
    for _ in 0..5 {
        phases.push(weekday.clone());
    }
    for _ in 0..2 {
        phases.push(weekend.clone());
    }
    SeasonalCounts::new(phases)
}

fn seasonal_game(seed: u64, n_attackers: usize, n_victims: usize) -> Result<GameSpec, GameError> {
    const BENEFITS: [f64; 3] = [3.5, 4.0, 4.6];
    let joint = Arc::new(seasonal_counts());
    let mut b = GameSpecBuilder::new();
    for t in 0..3 {
        b.alert_type(format!("S{}", t + 1), 1.0, Arc::new(joint.marginal(t)));
    }
    let mut rng = stream_rng(seed, 0x5EA5);
    for e in 0..n_attackers {
        let actions: Vec<AttackAction> = (0..n_victims)
            .map(|v| {
                if rng.gen_bool(0.1) {
                    AttackAction::benign(format!("v{v}"), 0.4)
                } else {
                    let t = rng.gen_range(0..3usize);
                    AttackAction::deterministic(format!("v{v}"), t, BENEFITS[t], 0.4, 4.0)
                }
            })
            .collect();
        b.attacker(Attacker::new(format!("e{e}"), 1.0, actions));
    }
    b.budget(4.0);
    b.allow_opt_out(true);
    b.joint_counts(joint);
    b.build()
}

impl Scenario for Seasonal {
    fn key(&self) -> &str {
        "syn-seasonal"
    }

    fn source(&self) -> &str {
        "core"
    }

    fn describe(&self) -> String {
        "seasonal drift: weekly busy/quiet cycle over 3 Poisson types, seeded 4x5 attack grid"
            .into()
    }

    fn suggested_epsilon(&self) -> f64 {
        0.3
    }

    fn build(&self, seed: u64) -> Result<GameSpec, GameError> {
        seasonal_game(seed, 4, 5)
    }

    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        seasonal_game(seed, 3, 4)
    }
}

// ---------------------------------------------------------------------
// Strategic-attacker families (quantal / general-sum / adaptive)
// ---------------------------------------------------------------------

/// The λ the quantal scenario's attackers respond with: soft enough that
/// dominated actions keep real probability mass, sharp enough that the
/// best response still dominates.
pub const QUANTAL_LAMBDA: f64 = 1.5;

/// Boundedly rational attackers: 3 Gaussian alert types and a seeded
/// attack grid, with [`Scenario::attacker_model`] declaring a
/// quantal-response population at [`QUANTAL_LAMBDA`].
struct Quantal;

fn quantal_game(seed: u64, n_attackers: usize, n_victims: usize) -> Result<GameSpec, GameError> {
    const MEANS: [f64; 3] = [5.0, 4.0, 3.0];
    const STDS: [f64; 3] = [1.5, 1.2, 1.0];
    const BENEFITS: [f64; 3] = [3.0, 3.8, 4.4];
    let mut b = GameSpecBuilder::new();
    for t in 0..3 {
        b.alert_type(
            format!("Q{}", t + 1),
            1.0,
            Arc::new(DiscretizedGaussian::with_halfwidth(MEANS[t], STDS[t], 4)),
        );
    }
    let mut rng = stream_rng(seed, 0x9A7A);
    for e in 0..n_attackers {
        let actions: Vec<AttackAction> = (0..n_victims)
            .map(|v| {
                let t = rng.gen_range(0..3usize);
                let jitter = rng.gen_range(0.0..0.6);
                AttackAction::deterministic(format!("v{v}"), t, BENEFITS[t] + jitter, 0.4, 4.0)
            })
            .collect();
        b.attacker(Attacker::new(format!("e{e}"), 1.0, actions));
    }
    b.budget(3.0);
    b.allow_opt_out(true);
    b.build()
}

impl Scenario for Quantal {
    fn key(&self) -> &str {
        "syn-quantal"
    }

    fn source(&self) -> &str {
        "core"
    }

    fn describe(&self) -> String {
        format!(
            "boundedly rational attackers: 3 Gaussian types, logit responses at lambda {QUANTAL_LAMBDA}"
        )
    }

    fn suggested_epsilon(&self) -> f64 {
        0.3
    }

    fn attacker_model(&self) -> AttackerModel {
        AttackerModel::Quantal(QuantalResponse::new(QUANTAL_LAMBDA))
    }

    fn build(&self, seed: u64) -> Result<GameSpec, GameError> {
        quantal_game(seed, 4, 4)
    }

    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        quantal_game(seed, 3, 3)
    }
}

/// General-sum damage: the attacker plays the same zero-sum game, but the
/// auditor scores policies by organizational damage (fines dwarfing the
/// insider's gain, partial recovery on detection).
struct GeneralSum;

fn general_sum_game(
    seed: u64,
    n_attackers: usize,
    n_victims: usize,
) -> Result<GameSpec, GameError> {
    const BENEFITS: [f64; 3] = [3.4, 4.0, 4.8];
    let mut b = GameSpecBuilder::new();
    for t in 0..3 {
        b.alert_type(
            format!("G{}", t + 1),
            1.0,
            Arc::new(Poisson::new(4.0 - t as f64)),
        );
    }
    let mut rng = stream_rng(seed, 0x65D0);
    for e in 0..n_attackers {
        let actions: Vec<AttackAction> = (0..n_victims)
            .map(|v| {
                if rng.gen_bool(0.1) {
                    AttackAction::benign(format!("v{v}"), 0.4)
                } else {
                    let t = rng.gen_range(0..3usize);
                    AttackAction::deterministic(format!("v{v}"), t, BENEFITS[t], 0.4, 4.0)
                }
            })
            .collect();
        b.attacker(Attacker::new(format!("e{e}"), 1.0, actions));
    }
    b.budget(3.0);
    b.allow_opt_out(true);
    b.build()
}

impl Scenario for GeneralSum {
    fn key(&self) -> &str {
        "syn-general-sum"
    }

    fn source(&self) -> &str {
        "core"
    }

    fn describe(&self) -> String {
        "general-sum damage: 3 Poisson types, auditor scores 3x reward damage, 0.5x recovery".into()
    }

    fn suggested_epsilon(&self) -> f64 {
        0.3
    }

    fn attacker_model(&self) -> AttackerModel {
        AttackerModel::GeneralSum(DamageModel {
            damage_per_reward: 3.0,
            recovery_per_penalty: 0.5,
        })
    }

    fn build(&self, seed: u64) -> Result<GameSpec, GameError> {
        general_sum_game(seed, 4, 5)
    }

    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        general_sum_game(seed, 3, 4)
    }
}

/// Adaptive repeated-game attackers: the runtime publishes a policy per
/// epoch and these attackers best-respond to an EWMA belief over the
/// published per-type detection probabilities.
struct Adaptive;

fn adaptive_game(seed: u64, n_attackers: usize, n_victims: usize) -> Result<GameSpec, GameError> {
    const BENEFITS: [f64; 3] = [3.2, 3.9, 4.5];
    let mut b = GameSpecBuilder::new();
    for t in 0..3 {
        b.alert_type(
            format!("A{}", t + 1),
            1.0,
            Arc::new(Poisson::new(4.0 - t as f64)),
        );
    }
    let mut rng = stream_rng(seed, 0xADA7);
    for e in 0..n_attackers {
        let attack_prob = 0.5 + 0.3 * (e as f64 / n_attackers.max(1) as f64);
        let actions: Vec<AttackAction> = (0..n_victims)
            .map(|v| {
                let t = rng.gen_range(0..3usize);
                let jitter = rng.gen_range(0.0..0.5);
                AttackAction::deterministic(format!("v{v}"), t, BENEFITS[t] + jitter, 0.4, 4.0)
            })
            .collect();
        b.attacker(Attacker::new(format!("e{e}"), attack_prob, actions));
    }
    b.budget(3.0);
    b.allow_opt_out(true);
    b.build()
}

impl Scenario for Adaptive {
    fn key(&self) -> &str {
        "syn-adaptive"
    }

    fn source(&self) -> &str {
        "core"
    }

    fn describe(&self) -> String {
        "adaptive repeated-game attackers: 3 Poisson types, EWMA best-response to published policy"
            .into()
    }

    fn suggested_epsilon(&self) -> f64 {
        0.3
    }

    fn attacker_model(&self) -> AttackerModel {
        AttackerModel::Adaptive(AdaptiveConfig { learning_rate: 0.5 })
    }

    fn build(&self, seed: u64) -> Result<GameSpec, GameError> {
        adaptive_game(seed, 4, 4)
    }

    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        adaptive_game(seed, 3, 3)
    }
}

// ---------------------------------------------------------------------
// Wide-type families (the planner's decomposed tier)
// ---------------------------------------------------------------------

/// Generate a wide-type audit game: `n_types` alert types cycling through
/// small-support Gaussian / Poisson / Zipf count laws (all
/// snapshot-capable), alternating 1.0 / 0.5 audit costs, and a seeded
/// `n_attackers × n_victims` attack grid with rewards rising in the
/// targeted type index. This is the shared generator behind the
/// `syn-wide25` / `syn-wide50` registry families and the `exp_scale`
/// types-vs-latency sweep, which calls it at arbitrary widths.
///
/// Deterministic in `(seed, shape)`; the RNG stream is nonce-separated
/// (`0x51DE`) from every other scenario family.
pub fn wide_game(
    seed: u64,
    n_types: usize,
    n_attackers: usize,
    n_victims: usize,
    budget: f64,
) -> Result<GameSpec, GameError> {
    let mut b = GameSpecBuilder::new();
    for t in 0..n_types {
        let tier = (t / 3) % 3;
        let dist: Arc<dyn CountDistribution> = match t % 3 {
            0 => Arc::new(DiscretizedGaussian::with_halfwidth(
                2.0 + 0.8 * tier as f64,
                1.0,
                2,
            )),
            1 => Arc::new(Poisson::new(0.8 + 0.3 * tier as f64)),
            _ => Arc::new(Zipf::new(2.0 + 0.2 * tier as f64, 4 + (t % 2) as u64 * 2)),
        };
        let cost = if t % 2 == 0 { 1.0 } else { 0.5 };
        b.alert_type(format!("W{t}"), cost, dist);
    }
    let mut rng = stream_rng(seed, 0x51DE);
    for e in 0..n_attackers {
        let actions: Vec<AttackAction> = (0..n_victims)
            .map(|v| {
                if rng.gen_bool(0.1) {
                    return AttackAction::benign(format!("v{v}"), 0.4);
                }
                let t = rng.gen_range(0..n_types);
                // Rewards rise with the targeted type index so the density
                // ranking (and hence the clustering) is non-trivial.
                let reward =
                    3.0 + 3.0 * (t as f64 / n_types.max(1) as f64) + rng.gen_range(0.0..0.5);
                AttackAction::deterministic(format!("v{v}"), t, reward, 0.4, 4.0)
            })
            .collect();
        b.attacker(Attacker::new(format!("e{e}"), 1.0, actions));
    }
    b.budget(budget);
    b.allow_opt_out(true);
    b.build()
}

/// A wide-type registry family: `(types, attackers, victims, budget)` for
/// the full and the CI-scale small build. Both builds keep `types` past
/// the planner's uncapped-ISHM ceiling, so every conformance cell of
/// these scenarios exercises the decomposed tier.
struct Wide {
    key: &'static str,
    full: (usize, usize, usize, f64),
    small: (usize, usize, usize, f64),
}

impl Scenario for Wide {
    fn key(&self) -> &str {
        self.key
    }

    fn source(&self) -> &str {
        "core"
    }

    fn describe(&self) -> String {
        format!(
            "wide-type workload: {} small-support mixed-law alert types, seeded {}x{} attack grid, budget {} (planner decomposed tier)",
            self.full.0, self.full.1, self.full.2, self.full.3
        )
    }

    fn suggested_epsilon(&self) -> f64 {
        0.5
    }

    fn build(&self, seed: u64) -> Result<GameSpec, GameError> {
        let (t, e, v, budget) = self.full;
        wide_game(seed, t, e, v, budget)
    }

    fn build_small(&self, seed: u64) -> Result<GameSpec, GameError> {
        let (t, e, v, budget) = self.small;
        wide_game(seed, t, e, v, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{OapSolver, SolverConfig};

    #[test]
    fn core_registry_lists_the_builtins() {
        let r = registry();
        assert_eq!(
            r.keys(),
            vec![
                "syn-a",
                "syn-a-b6",
                "syn-a-b20",
                "syn-heavy-tail",
                "syn-correlated",
                "syn-seasonal",
                "syn-quantal",
                "syn-general-sum",
                "syn-adaptive",
                "syn-wide25",
                "syn-wide50"
            ]
        );
        assert_eq!(r.len(), 11);
        assert!(!r.is_empty());
    }

    #[test]
    fn unknown_key_lists_known_keys() {
        let r = registry();
        let err = r.resolve("nope").map(|_| ()).unwrap_err();
        match err {
            GameError::UnknownScenario { key, known } => {
                assert_eq!(key, "nope");
                assert!(known.contains(&"syn-a".to_string()));
            }
            other => panic!("expected UnknownScenario, got {other:?}"),
        }
    }

    #[test]
    #[should_panic]
    fn duplicate_registration_panics() {
        let mut r = registry();
        r.register(Arc::new(HeavyTail));
    }

    #[test]
    fn every_core_scenario_builds_and_validates() {
        let r = registry();
        for sc in r.iter() {
            let seed = sc.default_seed();
            let full = sc.build(seed).unwrap();
            full.validate().unwrap();
            let small = sc.build_small(seed).unwrap();
            small.validate().unwrap();
            assert!(
                small.n_actions() <= full.n_actions(),
                "{}: small variant larger than full",
                sc.key()
            );
            assert_eq!(sc.source(), "core");
            assert!(!sc.describe().is_empty());
            assert!(sc.suggested_epsilon() > 0.0);
        }
    }

    #[test]
    fn builds_are_deterministic_in_the_seed() {
        let r = registry();
        for sc in r.iter() {
            let a = sc.build(3).unwrap().fingerprint();
            let b = sc.build(3).unwrap().fingerprint();
            assert_eq!(a, b, "{} not reproducible", sc.key());
        }
        // Seeded generators must actually respond to the seed.
        for key in [
            "syn-heavy-tail",
            "syn-correlated",
            "syn-seasonal",
            "syn-quantal",
            "syn-general-sum",
            "syn-adaptive",
            "syn-wide25",
            "syn-wide50",
        ] {
            let sc = r.get(key).unwrap();
            assert_ne!(
                sc.build(3).unwrap().fingerprint(),
                sc.build(4).unwrap().fingerprint(),
                "{key} ignores its seed"
            );
        }
    }

    #[test]
    fn attacker_models_are_declared_where_expected() {
        let r = registry();
        for (key, want) in [
            ("syn-a", "rational"),
            ("syn-seasonal", "rational"),
            ("syn-quantal", "quantal"),
            ("syn-general-sum", "general-sum"),
            ("syn-adaptive", "adaptive"),
        ] {
            let sc = r.get(key).unwrap();
            assert_eq!(sc.attacker_model().key(), want, "{key}");
        }
        match r.get("syn-quantal").unwrap().attacker_model() {
            AttackerModel::Quantal(qr) => assert_eq!(qr.lambda, QUANTAL_LAMBDA),
            other => panic!("expected quantal, got {other:?}"),
        }
        match r.get("syn-adaptive").unwrap().attacker_model() {
            AttackerModel::Adaptive(cfg) => assert!(cfg.learning_rate > 0.0),
            other => panic!("expected adaptive, got {other:?}"),
        }
    }

    #[test]
    fn alert_stream_has_the_requested_shape() {
        let r = registry();
        for sc in r.iter() {
            let stream = sc.alert_stream(1, 9).unwrap();
            let spec = sc.build(1).unwrap();
            assert_eq!(stream.len(), 9, "{}", sc.key());
            assert!(stream.iter().all(|row| row.len() == spec.n_types()));
        }
    }

    #[test]
    fn wide_scenarios_have_the_declared_widths() {
        let r = registry();
        for (key, full, small) in [("syn-wide25", 25, 25), ("syn-wide50", 50, 32)] {
            let sc = r.get(key).unwrap();
            assert_eq!(sc.build(0).unwrap().n_types(), full, "{key}");
            assert_eq!(sc.build_small(0).unwrap().n_types(), small, "{key}");
            // Both builds live past the uncapped-ISHM ceiling, so every
            // solve of these scenarios runs the planner's decomposed tier.
            assert!(small > crate::planner::ISHM_FULL_MAX_TYPES);
            assert_eq!(sc.attacker_model().key(), "rational", "{key}");
        }
    }

    #[test]
    fn correlated_bank_moves_types_together() {
        let spec = registry().build("syn-correlated", 0).unwrap();
        let bank = spec.sample_bank(4000, 11);
        // Empirical covariance between types 0 and 1 must be clearly
        // positive: storms lift both.
        let (m0, m1) = (bank.mean_count(0), bank.mean_count(1));
        let cov: f64 = bank
            .column(0)
            .iter()
            .zip(bank.column(1))
            .map(|(&z0, &z1)| (z0 as f64 - m0) * (z1 as f64 - m1))
            .sum::<f64>()
            / bank.n_samples() as f64;
        assert!(cov > 1.0, "expected strong positive covariance, got {cov}");
    }

    #[test]
    fn seasonal_bank_cycles_weekday_weekend() {
        let spec = registry().build("syn-seasonal", 0).unwrap();
        let bank = spec.sample_bank(700, 5);
        let mut weekday_sum = 0u64;
        let mut weekend_sum = 0u64;
        let mut weekday_n = 0u64;
        let mut weekend_n = 0u64;
        for (i, &z) in bank.column(0).iter().enumerate() {
            if i % 7 < 5 {
                weekday_sum += z;
                weekday_n += 1;
            } else {
                weekend_sum += z;
                weekend_n += 1;
            }
        }
        let weekday_mean = weekday_sum as f64 / weekday_n as f64;
        let weekend_mean = weekend_sum as f64 / weekend_n as f64;
        assert!(
            weekday_mean > weekend_mean + 2.0,
            "weekday {weekday_mean} vs weekend {weekend_mean}"
        );
    }

    #[test]
    fn small_scenarios_solve_through_the_facade() {
        let r = registry();
        for key in [
            "syn-heavy-tail",
            "syn-correlated",
            "syn-seasonal",
            "syn-quantal",
            "syn-general-sum",
            "syn-adaptive",
        ] {
            let sc = r.get(key).unwrap();
            let spec = sc.build_small(sc.default_seed()).unwrap();
            let sol = OapSolver::new(SolverConfig {
                n_samples: 40,
                epsilon: 0.5,
                ..Default::default()
            })
            .solve(&spec)
            .unwrap_or_else(|e| panic!("{key} failed to solve: {e}"));
            assert!(sol.loss.is_finite(), "{key}");
            assert!(sol.loss <= spec.max_possible_loss() + 1e-9, "{key}");
        }
    }
}
