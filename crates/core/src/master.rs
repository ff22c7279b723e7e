//! The zero-sum master LP (paper eq. 5 with `b` fixed).
//!
//! The paper's formulation has one variable `p_o` per ordering and one
//! constraint per attack `⟨e,v⟩`:
//!
//! ```text
//! min Σ_e p_e·u_e   s.t.  ∀⟨e,v⟩:  u_e ≥ Σ_o p_o·U_a(o,b,⟨e,v⟩),
//!                         Σ_o p_o = 1,  p ≥ 0.
//! ```
//!
//! With thousands of `⟨e,v⟩` rows and a handful of columns, the simplex
//! tableau of that orientation is needlessly tall. We therefore solve the
//! **attacker-mixture orientation** (its LP dual):
//!
//! ```text
//! max μ   s.t.  ∀e: Σ_v y_ev (= | ≤) p_e,
//!               ∀o ∈ Q: μ ≤ Σ_ev y_ev·U_a(o,b,⟨e,v⟩),   y ≥ 0,
//! ```
//!
//! whose tableau has only `|E| + |Q|` rows (`≤` when opting out is allowed —
//! the slack is the probability of refraining). By strong duality the two
//! orientations have equal value; the auditor's mixture `p_o` is recovered
//! from the duals of the per-order rows, and `u_e` from the duals of the
//! per-attacker rows. The attacker mixture `y` is exactly the `π_Q` that
//! CGGS prices candidate columns against (Algorithm 1, line 3).

use crate::error::GameError;
use crate::model::GameSpec;
use crate::payoff::PayoffMatrix;
use lp_solver::{Problem, Relation, Sense};
use std::collections::HashMap;

/// Solution of the master problem for a fixed threshold vector and a fixed
/// set of candidate orders `Q`.
#[derive(Debug, Clone)]
pub struct MasterSolution {
    /// Game value: the auditor's minimized loss `Σ_e p_e·u_e`.
    pub value: f64,
    /// Auditor's mixed strategy over the order columns of `Q`.
    pub p_orders: Vec<f64>,
    /// Best-response utility `u_e` per attacker.
    pub u_attackers: Vec<f64>,
    /// Attacker mixture `y_ev` (flat action indexing; sums to at most `p_e`
    /// per attacker, with slack = deterrence probability).
    pub y_actions: Vec<f64>,
    /// Simplex pivots spent.
    pub lp_iterations: usize,
}

/// Solver for master problems. Stateless; configuration lives in the
/// payoff matrix and spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct MasterSolver;

impl MasterSolver {
    /// Solve in the attacker-mixture orientation (the production path).
    pub fn solve(spec: &GameSpec, matrix: &PayoffMatrix) -> Result<MasterSolution, GameError> {
        if matrix.n_orders() == 0 {
            return Err(GameError::InvalidConfig(
                "master problem needs at least one candidate order".into(),
            ));
        }
        // Nothing reads a master's variable or row names, so none are
        // built: `""` allocates nothing.
        let mut lp = Problem::new(Sense::Maximize);
        let mu = lp.add_free_var("", 1.0);
        let n_actions = matrix.index.n_actions();
        let ys: Vec<_> = (0..n_actions)
            .map(|_| lp.add_var("", 0.0, 0.0, f64::INFINITY))
            .collect();

        // Per-attacker mass constraints. Attackers without actions are
        // vacuous (they contribute u_e = 0 when opting out is allowed; with
        // no actions there is nothing they can do either way).
        let rel = if spec.allow_opt_out {
            Relation::Le
        } else {
            Relation::Eq
        };
        let mut attacker_rows = Vec::with_capacity(spec.n_attackers());
        for (e, att) in spec.attackers.iter().enumerate() {
            if att.actions.is_empty() {
                attacker_rows.push(None);
                continue;
            }
            let terms: Vec<_> = matrix.index.range(e).map(|i| (ys[i], 1.0)).collect();
            let row = lp.add_constraint("", terms, rel, att.attack_prob);
            attacker_rows.push(Some(row));
        }

        // Per-order value constraints: μ − Σ y·U_a(o) ≤ 0.
        let mut order_rows = Vec::with_capacity(matrix.n_orders());
        for values in &matrix.values {
            let mut terms = Vec::with_capacity(n_actions + 1);
            terms.push((mu, 1.0));
            for (i, &u) in values.iter().enumerate() {
                if u != 0.0 {
                    terms.push((ys[i], -u));
                }
            }
            order_rows.push(lp.add_constraint("", terms, Relation::Le, 0.0));
        }

        let sol = lp.solve()?;
        let p_orders: Vec<f64> = order_rows.iter().map(|&r| sol.dual(r).max(0.0)).collect();
        let u_attackers: Vec<f64> = attacker_rows
            .iter()
            .map(|r| r.map(|row| sol.dual(row)).unwrap_or(0.0))
            .collect();
        let y_actions: Vec<f64> = ys.iter().map(|&y| sol.value(y)).collect();

        Ok(MasterSolution {
            value: sol.objective,
            p_orders: normalize_simplex(p_orders),
            u_attackers,
            y_actions,
            lp_iterations: sol.iterations,
        })
    }

    /// Solve in the paper's primal orientation (eq. 5). Exponentially
    /// taller tableau; kept as the independently coded cross-check the
    /// master tests compare [`MasterSolver::solve`] against.
    pub fn solve_primal(
        spec: &GameSpec,
        matrix: &PayoffMatrix,
    ) -> Result<MasterSolution, GameError> {
        if matrix.n_orders() == 0 {
            return Err(GameError::InvalidConfig(
                "master problem needs at least one candidate order".into(),
            ));
        }
        let mut lp = Problem::new(Sense::Minimize);
        let ps: Vec<_> = (0..matrix.n_orders())
            .map(|o| lp.add_var(format!("p{o}"), 0.0, 0.0, 1.0))
            .collect();
        let us: Vec<_> = spec
            .attackers
            .iter()
            .enumerate()
            .map(|(e, att)| {
                let lo = if spec.allow_opt_out {
                    0.0
                } else {
                    f64::NEG_INFINITY
                };
                lp.add_var(format!("u{e}"), att.attack_prob, lo, f64::INFINITY)
            })
            .collect();

        let mut action_rows = Vec::with_capacity(matrix.index.n_actions());
        for (e, _att) in spec.attackers.iter().enumerate() {
            for i in matrix.index.range(e) {
                let mut terms = vec![(us[e], -1.0)];
                for (col, &p) in ps.iter().enumerate() {
                    let u = matrix.values[col][i];
                    if u != 0.0 {
                        terms.push((p, u));
                    }
                }
                action_rows.push(lp.add_constraint(
                    format!("br_e{e}_a{i}"),
                    terms,
                    Relation::Le,
                    0.0,
                ));
            }
        }
        lp.add_constraint(
            "simplex",
            ps.iter().map(|&p| (p, 1.0)).collect(),
            Relation::Eq,
            1.0,
        );
        // Attackers with no actions and no opt-out: pin u_e = 0 so the free
        // variable cannot drive the objective to −∞.
        for (e, att) in spec.attackers.iter().enumerate() {
            if att.actions.is_empty() && !spec.allow_opt_out {
                lp.add_constraint(format!("pin_u{e}"), vec![(us[e], 1.0)], Relation::Eq, 0.0);
            }
        }

        let sol = lp.solve()?;
        let p_orders: Vec<f64> = ps.iter().map(|&p| sol.value(p).max(0.0)).collect();
        let u_attackers: Vec<f64> = us.iter().map(|&u| sol.value(u)).collect();
        // Attacker mixture from duals of the best-response rows; the sign
        // convention of shadow prices for a min/Le problem makes them ≤ 0,
        // and |dual| carries the mass p_e·(probability of action).
        let y_actions: Vec<f64> = action_rows.iter().map(|&r| sol.dual(r).abs()).collect();

        Ok(MasterSolution {
            value: sol.objective,
            p_orders: normalize_simplex(p_orders),
            u_attackers,
            y_actions,
            lp_iterations: sol.iterations,
        })
    }
}

/// The master solutions of one solve, keyed by the bits of
/// [`PayoffMatrix::pals`], column by column.
///
/// A hit is exact: the memo serves one spec, each utility column is the
/// pure function `utility_column(spec, pal)`, and the master LP is a pure
/// function of those utilities. The key takes `n_types` words per column
/// where the utilities would take `n_actions` (7 against 174 on Rea A).
#[derive(Debug, Default)]
pub(crate) struct MasterMemo {
    solutions: HashMap<Vec<u64>, MasterSolution>,
}

impl MasterMemo {
    /// The stored solution for `matrix`'s columns, or
    /// [`MasterSolver::solve`]'s, which is then stored.
    pub(crate) fn solve(
        &mut self,
        spec: &GameSpec,
        matrix: &PayoffMatrix,
    ) -> Result<MasterSolution, GameError> {
        let key: Vec<u64> = matrix.pals.iter().flatten().map(|p| p.to_bits()).collect();
        if let Some(sol) = self.solutions.get(&key) {
            return Ok(sol.clone());
        }
        let sol = MasterSolver::solve(spec, matrix)?;
        self.solutions.insert(key, sol.clone());
        Ok(sol)
    }

    /// Distinct masters solved so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.solutions.len()
    }
}

/// Clamp tiny negative entries and renormalize a probability vector.
fn normalize_simplex(mut p: Vec<f64>) -> Vec<f64> {
    for x in &mut p {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
    let total: f64 = p.iter().sum();
    if total > 0.0 {
        for x in &mut p {
            *x /= total;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::{DetectionEstimator, DetectionModel};
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use crate::ordering::AuditOrder;
    use std::sync::Arc;
    use stochastics::Constant;

    /// Matching-pennies game: one attacker chooses which of two types to
    /// trigger; the budget covers only the first-audited type. The unique
    /// equilibrium randomizes the order 50/50.
    fn pennies(opt_out: bool) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(1)));
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(1)));
        b.attacker(Attacker::new(
            "e0",
            1.0,
            vec![
                AttackAction::deterministic("v0", t0, 10.0, 0.0, 10.0),
                AttackAction::deterministic("v1", t1, 10.0, 0.0, 10.0),
            ],
        ));
        b.budget(1.0);
        b.allow_opt_out(opt_out);
        b.build().unwrap()
    }

    fn solve_both(spec: &GameSpec) -> (MasterSolution, MasterSolution) {
        let bank = spec.sample_bank(4, 0);
        let est = DetectionEstimator::new(spec, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(2);
        let m = PayoffMatrix::build(spec, &est, orders, &[1.0, 1.0]);
        let dual = MasterSolver::solve(spec, &m).unwrap();
        let primal = MasterSolver::solve_primal(spec, &m).unwrap();
        (dual, primal)
    }

    #[test]
    fn pennies_without_opt_out() {
        let spec = pennies(false);
        let (dual, primal) = solve_both(&spec);
        // Each attacker is audited with prob 1/2: U = ½(−10) + ½(10) = 0,
        // total loss 0.
        assert!((dual.value - 0.0).abs() < 1e-7, "value {}", dual.value);
        assert!((primal.value - dual.value).abs() < 1e-7);
        // Mixture ~50/50.
        for &p in &dual.p_orders {
            assert!((p - 0.5).abs() < 1e-6, "p = {p}");
        }
        for &p in &primal.p_orders {
            assert!((p - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn pennies_with_opt_out_deters() {
        let spec = pennies(true);
        let (dual, primal) = solve_both(&spec);
        // With opt-out the value stays 0 (attackers indifferent), and u_e=0.
        assert!(dual.value.abs() < 1e-7);
        assert!((primal.value - dual.value).abs() < 1e-7);
        for &u in &dual.u_attackers {
            assert!(u.abs() < 1e-7);
        }
    }

    #[test]
    fn asymmetric_game_orientations_agree() {
        // Make the game asymmetric: type-0 attacker is juicier.
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(1)));
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(1)));
        b.attacker(Attacker::new(
            "e0",
            1.0,
            vec![AttackAction::deterministic("v0", t0, 12.0, 1.0, 4.0)],
        ));
        b.attacker(Attacker::new(
            "e1",
            0.7,
            vec![
                AttackAction::deterministic("v1", t1, 6.0, 1.0, 4.0),
                AttackAction::deterministic("v0", t0, 5.0, 1.0, 4.0),
            ],
        ));
        b.budget(1.0);
        let spec = b.build().unwrap();
        let (dual, primal) = solve_both(&spec);
        assert!(
            (dual.value - primal.value).abs() < 1e-6,
            "dual {} vs primal {}",
            dual.value,
            primal.value
        );
        // Mixtures may differ at degenerate optima, but the realized loss
        // of each mixture (best-responding attackers) must equal the value.
        let bank = spec.sample_bank(4, 0);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let m = PayoffMatrix::build(&spec, &est, AuditOrder::enumerate_all(2), &[1.0, 1.0]);
        let loss_dual = m.loss_under_mixture(&spec, &dual.p_orders);
        let loss_primal = m.loss_under_mixture(&spec, &primal.p_orders);
        assert!((loss_dual - dual.value).abs() < 1e-6);
        assert!((loss_primal - primal.value).abs() < 1e-6);
    }

    #[test]
    fn mixture_sums_to_one_and_y_respects_mass() {
        let spec = pennies(false);
        let (dual, _) = solve_both(&spec);
        let sum: f64 = dual.p_orders.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The attacker's mixture mass equals p_e = 1 (no opt-out).
        let mass: f64 = dual.y_actions.iter().sum();
        assert!((mass - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_order_set_is_rejected() {
        let spec = pennies(false);
        let bank = spec.sample_bank(2, 0);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let m = PayoffMatrix::build(&spec, &est, Vec::new(), &[1.0, 1.0]);
        assert!(MasterSolver::solve(&spec, &m).is_err());
        assert!(MasterSolver::solve_primal(&spec, &m).is_err());
    }

    #[test]
    fn attacker_without_actions_is_neutral() {
        let mut spec = pennies(false);
        spec.attackers.push(Attacker::new("idle", 1.0, vec![]));
        let (dual, primal) = solve_both(&spec);
        assert!((dual.value - primal.value).abs() < 1e-6);
        assert_eq!(dual.u_attackers.len(), 2);
        assert!(dual.u_attackers[1].abs() < 1e-9);
    }
}
