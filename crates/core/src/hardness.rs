//! 0-1 knapsack and the executable NP-hardness reduction of Theorem 1.
//!
//! The paper proves OAP NP-hard by reducing 0-1 Knapsack to a restricted
//! auditing instance: a singleton order set, deterministic `Z_t = 1`,
//! victims identified with alert types, `M = K = 0`, and per-attacker
//! rewards `R(⟨e,v⟩) = 1` iff `v = t(e)`. Choosing thresholds then
//! coincides with choosing a knapsack subset: the auditor "packs" alert
//! types (weight `C_t = w_i`, value `v_i` = number of attackers bound to
//! the type) into the budget `B = W`, and the optimal loss is
//! `|E| − (optimal knapsack value)`.
//!
//! This module makes the construction executable: [`solve_knapsack`] is an
//! exact DP, [`knapsack_to_oap`] builds the game instance, and the tests
//! (plus `tests/hardness_reduction.rs` at the workspace root) verify the
//! reduction identity on random instances end-to-end.

use crate::model::{AttackAction, Attacker, GameSpec, GameSpecBuilder};
use std::sync::Arc;
use stochastics::Constant;

/// A 0-1 knapsack instance with integer weights and values.
#[derive(Debug, Clone)]
pub struct KnapsackInstance {
    /// Item weights `w_i > 0`.
    pub weights: Vec<u64>,
    /// Item values `v_i ≥ 0`.
    pub values: Vec<u64>,
    /// Weight budget `W`.
    pub capacity: u64,
}

impl KnapsackInstance {
    /// Construct and validate.
    pub fn new(weights: Vec<u64>, values: Vec<u64>, capacity: u64) -> Self {
        assert_eq!(
            weights.len(),
            values.len(),
            "weights/values length mismatch"
        );
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        Self {
            weights,
            values,
            capacity,
        }
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.weights.len()
    }

    /// Total value of all items.
    pub fn total_value(&self) -> u64 {
        self.values.iter().sum()
    }
}

/// Exact 0-1 knapsack solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnapsackSolution {
    /// Optimal total value.
    pub value: u64,
    /// Chosen item indices (ascending).
    pub items: Vec<usize>,
}

/// Exact DP over capacities: `O(n·W)` time, `O(n·W)` space (kept simple —
/// the reduction instances are small by construction).
pub fn solve_knapsack(inst: &KnapsackInstance) -> KnapsackSolution {
    let n = inst.n_items();
    let w = inst.capacity as usize;
    // best[i][c] = best value using items < i with capacity c.
    let mut best = vec![vec![0u64; w + 1]; n + 1];
    for i in 0..n {
        let wi = inst.weights[i] as usize;
        let vi = inst.values[i];
        for c in 0..=w {
            let skip = best[i][c];
            let take = if wi <= c { best[i][c - wi] + vi } else { 0 };
            best[i + 1][c] = skip.max(take);
        }
    }
    // Back-track the chosen set.
    let mut items = Vec::new();
    let mut c = w;
    for i in (0..n).rev() {
        if best[i + 1][c] != best[i][c] {
            items.push(i);
            c -= inst.weights[i] as usize;
        }
    }
    items.reverse();
    KnapsackSolution {
        value: best[n][w],
        items,
    }
}

/// Build the Theorem 1 OAP instance from a knapsack instance.
///
/// * one alert type per item with `C_t = w_i` and `Z_t ≡ 1`;
/// * `v_i` attackers bound to type `i` (reward 1 on their type, 0
///   elsewhere; `M = K = 0`, `p_e = 1`);
/// * budget `B = W`; opting out is disabled (it changes nothing since all
///   utilities are non-negative).
pub fn knapsack_to_oap(inst: &KnapsackInstance) -> GameSpec {
    let n = inst.n_items();
    let mut b = GameSpecBuilder::new();
    for (i, &w) in inst.weights.iter().enumerate() {
        b.alert_type(format!("item{i}"), w as f64, Arc::new(Constant(1)));
    }
    for (i, &v) in inst.values.iter().enumerate() {
        for copy in 0..v {
            // Each attacker may aim at any type (victim set V = T), but only
            // their own type pays.
            let actions: Vec<AttackAction> = (0..n)
                .map(|t| {
                    let reward = if t == i { 1.0 } else { 0.0 };
                    AttackAction::deterministic(format!("type{t}"), t, reward, 0.0, 0.0)
                })
                .collect();
            b.attacker(Attacker::new(format!("e{i}_{copy}"), 1.0, actions));
        }
    }
    b.budget(inst.capacity as f64);
    b.allow_opt_out(false);
    b.build().expect("reduction instance is structurally valid")
}

/// The reduction identity: optimal OAP loss = `|E| − OPT_knapsack`.
///
/// Solves the OAP side by brute force over the `{0, C_t}` threshold lattice
/// with the singleton identity order (the theorem's restricted setting) and
/// the knapsack side by DP; returns `(oap_loss, |E| − knapsack_value)`.
/// The two must agree for every instance.
pub fn verify_reduction(inst: &KnapsackInstance) -> (f64, f64) {
    use crate::detection::{DetectionEstimator, DetectionModel};
    use crate::master::MasterSolver;
    use crate::ordering::AuditOrder;
    use crate::payoff::PayoffMatrix;

    let spec = knapsack_to_oap(inst);
    let n = inst.n_items();
    let bank = spec.sample_bank(1, 0); // Z is deterministic
    let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
    let order = vec![AuditOrder::identity(n)];

    // Enumerate b ∈ Π {0, C_t}: type t audited iff b_t = C_t.
    let mut best = f64::INFINITY;
    for mask in 0..(1u64 << n) {
        let thresholds: Vec<f64> = (0..n)
            .map(|t| {
                if mask & (1 << t) != 0 {
                    spec.alert_types[t].audit_cost
                } else {
                    0.0
                }
            })
            .collect();
        let m = PayoffMatrix::build(&spec, &est, order.clone(), &thresholds);
        let v = MasterSolver::solve(&spec, &m)
            .expect("reduction LP is feasible")
            .value;
        best = best.min(v);
    }

    let dp = solve_knapsack(inst);
    let expected = spec.n_attackers() as f64 - dp.value as f64;
    (best, expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_textbook_instance() {
        // Items (w, v): (2,3), (3,4), (4,5), (5,6); W = 5 → take (2,3)+(3,4).
        let inst = KnapsackInstance::new(vec![2, 3, 4, 5], vec![3, 4, 5, 6], 5);
        let sol = solve_knapsack(&inst);
        assert_eq!(sol.value, 7);
        assert_eq!(sol.items, vec![0, 1]);
    }

    #[test]
    fn knapsack_zero_capacity() {
        let inst = KnapsackInstance::new(vec![1, 2], vec![10, 20], 0);
        assert_eq!(solve_knapsack(&inst).value, 0);
    }

    #[test]
    fn knapsack_all_fit() {
        let inst = KnapsackInstance::new(vec![1, 1, 1], vec![5, 6, 7], 10);
        let sol = solve_knapsack(&inst);
        assert_eq!(sol.value, 18);
        assert_eq!(sol.items, vec![0, 1, 2]);
    }

    #[test]
    fn knapsack_selection_respects_capacity() {
        let inst = KnapsackInstance::new(vec![4, 3, 2], vec![9, 7, 4], 6);
        let sol = solve_knapsack(&inst);
        let weight: u64 = sol.items.iter().map(|&i| inst.weights[i]).sum();
        assert!(weight <= inst.capacity);
        let value: u64 = sol.items.iter().map(|&i| inst.values[i]).sum();
        assert_eq!(value, sol.value);
    }

    #[test]
    fn reduction_spec_shape() {
        let inst = KnapsackInstance::new(vec![2, 3], vec![2, 1], 3);
        let spec = knapsack_to_oap(&inst);
        assert_eq!(spec.n_types(), 2);
        assert_eq!(spec.n_attackers(), 3); // v_0 + v_1
        assert_eq!(spec.budget, 3.0);
        assert_eq!(spec.audit_costs(), vec![2.0, 3.0]);
    }

    #[test]
    fn reduction_identity_small_instances() {
        for (w, v, cap) in [
            (vec![2u64, 3, 4], vec![3u64, 4, 5], 5u64),
            (vec![1, 2, 3], vec![6, 10, 12], 5),
            (vec![5, 4, 6, 3], vec![10, 40, 30, 50], 10),
            (vec![1, 1], vec![1, 1], 1),
        ] {
            let inst = KnapsackInstance::new(w, v, cap);
            let (oap, expected) = verify_reduction(&inst);
            assert!(
                (oap - expected).abs() < 1e-6,
                "reduction mismatch on {inst:?}: OAP {oap} vs |E|−OPT {expected}"
            );
        }
    }
}
