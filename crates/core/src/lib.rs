//! # audit-game — game-theoretic prioritization of database auditing
//!
//! A faithful, production-grade implementation of the alert-prioritization
//! Stackelberg game of *Yan, Li, Vorobeychik, Laszka, Fabbri & Malin, "Get
//! Your Workload in Order: Game Theoretic Prioritization of Database
//! Auditing", ICDE 2018* (arXiv:1801.07215).
//!
//! ## The game
//!
//! A database deploys a threat-detection module (TDMT) that tags suspicious
//! accesses with **alert types** `t ∈ T`. Benign workload produces random
//! per-period alert counts `Z_t ~ F_t`; auditing one type-`t` alert costs
//! `C_t` out of a total budget `B`. The **auditor** (defender) commits to
//!
//! 1. a randomized **prioritization** `p_o` over orderings `o` of the alert
//!    types, and
//! 2. a deterministic vector of per-type **budget thresholds** `b`,
//!
//! after which each **potential attacker** `e` (probability `p_e` of being
//! active) observes the policy and picks a victim `v` — or refrains. The
//! attack raises an alert of type `t` with probability `P^t_ev` and is
//! caught if that alert is among those audited under the realized benign
//! workload. The game is zero-sum: the auditor minimizes the total expected
//! attacker utility (the *Optimal Auditing Problem*, OAP), which the paper
//! proves NP-hard (Theorem 1; see [`hardness`]).
//!
//! ## What this crate provides
//!
//! * [`model`] — [`model::GameSpec`]: alert types, count distributions,
//!   attacker/victim payoff structure;
//! * [`ordering`] — audit orders and their enumeration;
//! * [`detection`] — the recourse budget math `B_t(o,b,Z)`, `n_t(o,b,Z)`
//!   and Monte-Carlo estimation of `Pal(o,b,t)` (paper eq. 1), both as a
//!   scalar reference and as the batched/parallel/memoizing
//!   [`detection::PalEngine`] all solvers run on;
//! * [`payoff`] — attacker utilities `U_a` (paper eq. 3) and payoff
//!   matrices;
//! * [`master`] — the zero-sum master LP (paper eq. 5) solved in its
//!   attacker-mixture orientation with dual recovery of `p_o`;
//! * [`cggs`] — Column Generation Greedy Search (paper Algorithm 1);
//! * [`ishm`] — Iterative Shrink Heuristic Method (paper Algorithm 2);
//! * [`brute_force`] — exhaustive threshold search (the paper's optimal
//!   baseline for Table III);
//! * [`baselines`] — the three alternative auditors of Section V.B;
//! * [`hardness`] — 0-1 knapsack and the executable Theorem 1 reduction;
//! * [`execute`] — an operational auditor that applies a solved policy to a
//!   realized stream of alerts;
//! * [`solver`] — a one-call facade combining ISHM + CGGS;
//! * [`planner`] — hardness-aware strategy selection, type-cluster
//!   decomposition, and parallel best-response pricing that scale the
//!   facade past the paper's ≤ 5-type exact ceiling to 20–50 types;
//! * [`datasets`] — the Syn A synthetic game (paper Table II) and random
//!   game generators for tests and benchmarks;
//! * [`scenario`] — the scenario substrate: a [`scenario::Scenario`]
//!   trait mapping a seed to a solvable game, with a string-keyed
//!   [`scenario::Registry`] of built-in settings (Syn A variants plus
//!   heavy-tail / correlated / seasonal / strategic-attacker families);
//! * [`attacker`] — the [`attacker::AttackerModel`] seam declaring which
//!   behavioural model (rational, quantal, general-sum, adaptive) a
//!   scenario's adversary follows;
//! * [`fuzz`] — a seeded random-game generator for property fuzzing
//!   beyond the hand-built scenario families;
//! * [`parallel`] — the one deterministic parallel map every short-lived
//!   fan-out in the workspace runs on.
//!
//! ## Quick start
//!
//! ```
//! use audit_game::prelude::*;
//!
//! let spec = audit_game::datasets::syn_a();
//! let config = SolverConfig { n_samples: 200, epsilon: 0.25, seed: 7, ..Default::default() };
//! let solution = OapSolver::new(config).solve(&spec).unwrap();
//! // The auditor's loss decreases with budget; at B = 2 it is positive.
//! assert!(solution.loss > 0.0);
//! assert!(!solution.policy.orders.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod attacker;
pub mod baselines;
pub mod brute_force;
pub mod cggs;
pub mod datasets;
pub mod detection;
pub mod error;
pub mod execute;
pub mod fuzz;
pub mod general_sum;
pub mod hardness;
pub mod ishm;
pub mod master;
pub mod model;
pub mod ordering;
pub mod parallel;
pub mod payoff;
pub mod persist;
pub mod planner;
pub mod quantal;
pub mod scenario;
pub mod sensitivity;
pub mod simulation;
pub mod solver;

/// Convenient re-exports of the main public types.
pub mod prelude {
    pub use crate::attacker::{AdaptiveConfig, AttackerModel};
    pub use crate::baselines::{
        greedy_by_benefit_loss, random_orders_loss, random_thresholds_loss,
    };
    pub use crate::cggs::{Cggs, CggsConfig, CggsOutcome};
    pub use crate::detection::{
        CacheStats, DetectionEstimator, DetectionModel, PalEngine, PalQuery,
    };
    pub use crate::error::GameError;
    pub use crate::execute::{AuditPolicy, AuditRun};
    pub use crate::fuzz::{fuzz_game, FuzzConfig};
    pub use crate::general_sum::DamageModel;
    pub use crate::ishm::{Ishm, IshmConfig, IshmOutcome};
    pub use crate::master::{MasterSolution, MasterSolver};
    pub use crate::model::{AlertType, AttackAction, Attacker, GameSpec};
    pub use crate::ordering::AuditOrder;
    pub use crate::persist::PersistError;
    pub use crate::planner::{
        plan, DecomposedEvaluator, InstanceFeatures, SolveStrategy, TypeClusters, EXACT_MAX_TYPES,
        ISHM_FULL_MAX_TYPES,
    };
    pub use crate::quantal::QuantalResponse;
    pub use crate::scenario::{Registry, Scenario};
    pub use crate::simulation::{simulate_policy, SimulationReport};
    pub use crate::solver::{
        AuditSolution, DegradeReason, InnerKind, OapSolver, SolverConfig, WarmStart,
    };
}
