//! Scale-out solver planning: hardness-aware strategy selection and
//! type-cluster decomposition for games far past the paper's exact-solve
//! ceiling.
//!
//! The paper caps ISHM's exact inner LP at ≤ 5 alert types (`|T|!` order
//! enumeration) and its outer shrink search is itself exponential in
//! `|T|` (level `lh` sweeps all `C(|T|, lh)` subsets, and termination
//! requires a full no-improvement pass at *every* level). Real audit
//! deployments have 20–50 rule types, so this module adds a planning
//! layer in front of the solver:
//!
//! * [`InstanceFeatures`] — cheap, deterministic hardness features of one
//!   instance (type count, and budget coverage via the Theorem 1 knapsack
//!   machinery of [`crate::hardness`]);
//! * [`SolveStrategy`] / [`plan`] — the policy mapping features to an
//!   inner evaluator (exact / CGGS / decomposed) plus an outer search
//!   level cap, replacing the hard-coded `n_types() <= 5` gate that
//!   [`crate::solver::InnerKind::Auto`] used to carry;
//! * [`TypeClusters`] — workload-similarity clustering of alert types,
//!   the decomposition substrate;
//! * [`DecomposedEvaluator`] — an inner evaluator solving the master LP
//!   over a cluster-blocked order pool (per-cluster subproblems solved
//!   exactly by within-cluster enumeration), then refining only the
//!   *binding* clusters through CGGS's column-generation loop, priced by
//!   one multi-start run of CGGS's greedy oracle per binding cluster.
//!
//! Everything here is bit-deterministic: the same instance plans the
//! same strategy, the decomposed evaluator returns identical results at
//! every thread count, and at ≤ [`EXACT_MAX_TYPES`] types the decomposed
//! path degenerates to the exact enumeration pool — provably (and
//! test-enforced) bit-identical to [`crate::ishm::ExactEvaluator`].

mod cluster;
mod decomposed;

pub use cluster::{TypeClusters, DEFAULT_CLUSTER_SIZE};
pub use decomposed::{decomposed_pool, DecomposedEvaluator};

use crate::cggs::detection_weights;
use crate::hardness::{solve_knapsack, KnapsackInstance};
use crate::model::GameSpec;

/// Exact inner enumeration materializes `|T|!` audit orders; beyond this
/// many types (120 orders) the exact path is off the table. This is the
/// single source of truth for the gate — the solver facade and the
/// conformance harness both consume it.
pub const EXACT_MAX_TYPES: usize = 5;

/// Upper type count for running ISHM's *uncapped* outer search (with the
/// CGGS inner solver). Past this, the `C(|T|, lh)` level sweeps explode
/// and the planner switches to the decomposed evaluator with a level cap.
pub const ISHM_FULL_MAX_TYPES: usize = 12;

/// Cheap, deterministic hardness features of one solve instance — the
/// inputs of [`plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceFeatures {
    /// Alert types of the working (deduped) game.
    pub n_types: usize,
    /// Fraction of the total attack value that a budget-feasible type
    /// subset can cover, computed by the Theorem 1 knapsack reduction
    /// machinery ([`crate::hardness::solve_knapsack`]): weight = a type's
    /// full-coverage threshold, value = its aggregate attack mass. High
    /// coverage means the budget can blanket most of the threat — an
    /// easier instance that affords a deeper outer search.
    pub knapsack_coverage: f64,
}

impl InstanceFeatures {
    /// Measure `working`, the (deduped) spec the solve runs on.
    pub fn of(working: &GameSpec) -> Self {
        Self {
            n_types: working.n_types(),
            knapsack_coverage: knapsack_coverage(working),
        }
    }
}

/// The per-type aggregate attack mass `Σ_⟨e,v⟩ (M+R)·P^t` — how much
/// detection utility auditing type `t` can move: the detection weights of
/// an attacker mixture with weight 1 on every action. The clustering and
/// the knapsack coverage both rank types by it.
pub(crate) fn attack_mass(spec: &GameSpec) -> Vec<f64> {
    detection_weights(spec, &vec![1.0; spec.n_actions()])
}

/// Budget coverage of the instance via the knapsack DP: pack types
/// (weight = full-coverage threshold, value = attack mass) into the
/// budget and report the coverable value fraction. `1.0` when the game
/// carries no attack mass at all (trivially covered).
fn knapsack_coverage(spec: &GameSpec) -> f64 {
    const VALUE_SCALE: f64 = 64.0;
    let mass = attack_mass(spec);
    let upper = spec.threshold_upper_bounds();
    let weights: Vec<u64> = upper.iter().map(|&b| (b.ceil() as u64).max(1)).collect();
    let values: Vec<u64> = mass
        .iter()
        .map(|&m| (m * VALUE_SCALE).round() as u64)
        .collect();
    let inst = KnapsackInstance::new(weights, values, spec.budget.floor().max(0.0) as u64);
    let total = inst.total_value();
    if total == 0 {
        return 1.0;
    }
    solve_knapsack(&inst).value as f64 / total as f64
}

/// The inner-evaluator strategy (plus outer search cap) the planner picks
/// for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStrategy {
    /// ISHM over the exact `|T|!` order enumeration, uncapped outer
    /// search — the paper's Table IV path, tractable only at
    /// ≤ [`EXACT_MAX_TYPES`] types.
    Exact,
    /// ISHM over CGGS column generation, uncapped outer search — the
    /// paper's Table V path, tractable up to [`ISHM_FULL_MAX_TYPES`]
    /// types.
    Cggs,
    /// ISHM over the type-cluster [`DecomposedEvaluator`], with the outer
    /// shrink search capped at `max_level` subset levels (`None` = the
    /// full search, used when decomposition is forced on a small game).
    Decomposed {
        /// Workload-similarity clusters the evaluator decomposes into.
        clusters: usize,
        /// Outer ISHM level cap (see [`crate::ishm::IshmConfig::max_level`]).
        max_level: Option<usize>,
    },
}

impl SolveStrategy {
    /// Stable key for telemetry and bench output.
    pub fn key(&self) -> &'static str {
        match self {
            SolveStrategy::Exact => "exact",
            SolveStrategy::Cggs => "cggs",
            SolveStrategy::Decomposed { .. } => "decomposed",
        }
    }

    /// One-line human rendering, e.g. `decomposed(clusters=9, max_level=1)`.
    pub fn describe(&self) -> String {
        match self {
            SolveStrategy::Exact => "exact".into(),
            SolveStrategy::Cggs => "cggs".into(),
            SolveStrategy::Decomposed {
                clusters,
                max_level,
            } => match max_level {
                Some(cap) => format!("decomposed(clusters={clusters}, max_level={cap})"),
                None => format!("decomposed(clusters={clusters}, max_level=full)"),
            },
        }
    }

    /// The ISHM outer level cap this strategy imposes (`None` = full
    /// search).
    pub fn level_cap(&self) -> Option<usize> {
        match self {
            SolveStrategy::Decomposed { max_level, .. } => *max_level,
            _ => None,
        }
    }
}

/// The hardness-aware strategy policy: exact enumeration while the order
/// factorial is tiny, uncapped CGGS while the outer subset sweeps stay
/// tractable, and the capped decomposed evaluator beyond — with the cap
/// loosened to two levels on moderately wide instances whose budget
/// covers most of the attack mass (the knapsack says they are easy, so a
/// deeper search is affordable).
pub fn plan(features: &InstanceFeatures) -> SolveStrategy {
    if features.n_types <= EXACT_MAX_TYPES {
        return SolveStrategy::Exact;
    }
    if features.n_types <= ISHM_FULL_MAX_TYPES {
        return SolveStrategy::Cggs;
    }
    let deep = features.n_types <= 2 * ISHM_FULL_MAX_TYPES && features.knapsack_coverage >= 0.5;
    SolveStrategy::Decomposed {
        clusters: TypeClusters::cluster_count(features.n_types),
        max_level: Some(if deep { 2 } else { 1 }),
    }
}

/// The strategy for a *forced* decomposed solve
/// ([`crate::solver::InnerKind::Decomposed`]): always the decomposed
/// evaluator, with the outer search left uncapped while the subset sweeps
/// are tractable — so small-game forced-decomposed solves are directly
/// comparable (bit-identical, in fact) to the exact path.
pub fn decomposed_strategy(features: &InstanceFeatures) -> SolveStrategy {
    let cap = match plan(features) {
        SolveStrategy::Decomposed { max_level, .. } => max_level,
        _ => None,
    };
    SolveStrategy::Decomposed {
        clusters: TypeClusters::cluster_count(features.n_types),
        max_level: cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{random_game, syn_a, RandomGameConfig};
    use crate::fuzz::{fuzz_game, FuzzConfig};

    #[test]
    fn constants_are_ordered() {
        const { assert!(EXACT_MAX_TYPES < ISHM_FULL_MAX_TYPES) }
    }

    #[test]
    fn features_are_deterministic_and_sane() {
        let spec = syn_a();
        let working = spec.dedup_actions();
        let a = InstanceFeatures::of(&working);
        let b = InstanceFeatures::of(&working);
        assert_eq!(a, b);
        assert_eq!(a.n_types, spec.n_types());
        assert!((0.0..=1.0).contains(&a.knapsack_coverage));
    }

    #[test]
    fn small_games_plan_exact() {
        let spec = syn_a();
        let f = InstanceFeatures::of(&spec);
        assert_eq!(plan(&f), SolveStrategy::Exact);
        assert_eq!(plan(&f).key(), "exact");
        assert_eq!(plan(&f).level_cap(), None);
    }

    #[test]
    fn medium_games_plan_cggs() {
        let spec = random_game(
            &RandomGameConfig {
                n_types: 8,
                ..Default::default()
            },
            7,
        );
        let f = InstanceFeatures::of(&spec);
        assert_eq!(plan(&f), SolveStrategy::Cggs);
    }

    #[test]
    fn wide_games_plan_capped_decomposition() {
        let spec = fuzz_game(&FuzzConfig::wide(), 3);
        assert!(spec.n_types() > 2, "wide profile generated a tiny game");
        let mut f = InstanceFeatures::of(&spec);
        f.n_types = 30; // force the wide tier regardless of the draw
        match plan(&f) {
            SolveStrategy::Decomposed {
                clusters,
                max_level,
            } => {
                assert_eq!(clusters, TypeClusters::cluster_count(30));
                assert_eq!(max_level, Some(1), "30 types is past the deep-search tier");
            }
            other => panic!("expected decomposed, got {other:?}"),
        }
        // Moderately wide + high coverage earns the deeper cap.
        f.n_types = 16;
        f.knapsack_coverage = 0.9;
        assert_eq!(plan(&f).level_cap(), Some(2));
        f.knapsack_coverage = 0.1;
        assert_eq!(plan(&f).level_cap(), Some(1));
    }

    #[test]
    fn forced_decomposition_keeps_small_games_uncapped() {
        let spec = syn_a();
        let f = InstanceFeatures::of(&spec);
        match decomposed_strategy(&f) {
            SolveStrategy::Decomposed { max_level, .. } => assert_eq!(max_level, None),
            other => panic!("expected decomposed, got {other:?}"),
        }
        let mut wide = f;
        wide.n_types = 40;
        assert_eq!(decomposed_strategy(&wide).level_cap(), Some(1));
    }

    #[test]
    fn describe_names_the_decomposition_shape() {
        let s = SolveStrategy::Decomposed {
            clusters: 9,
            max_level: Some(1),
        };
        assert_eq!(s.describe(), "decomposed(clusters=9, max_level=1)");
        assert_eq!(SolveStrategy::Exact.describe(), "exact");
    }
}
