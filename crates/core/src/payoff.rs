//! Attacker utilities (paper eq. 2–3) and payoff matrices over sets of
//! audit orders.

use crate::detection::{DetectionEstimator, PalEngine, PalQuery};
use crate::model::{AttackAction, GameSpec};
use crate::ordering::AuditOrder;

/// `Pat(o, b, ⟨e,v⟩) = Σ_t P^t_ev · Pal(o, b, t)` — the probability that an
/// attack is detected, given per-type alert-detection probabilities.
pub fn detection_prob(action: &AttackAction, pal: &[f64]) -> f64 {
    action.alert_probs.iter().map(|&(t, p)| p * pal[t]).sum()
}

/// Attacker utility (paper eq. 3, with the penalty entering negatively):
///
/// `U_a = Pat·(−M) + (1 − Pat)·R − K`.
pub fn action_utility(action: &AttackAction, pal: &[f64]) -> f64 {
    let pat = detection_prob(action, pal);
    pat * (-action.penalty) + (1.0 - pat) * action.reward - action.attack_cost
}

/// Flat index space over all `(attacker, action)` pairs of a spec.
#[derive(Debug, Clone)]
pub struct ActionIndex {
    /// `offsets[e]..offsets[e+1]` are the flat indices of attacker `e`.
    offsets: Vec<usize>,
}

impl ActionIndex {
    /// Build the index for a spec.
    pub fn new(spec: &GameSpec) -> Self {
        let mut offsets = Vec::with_capacity(spec.n_attackers() + 1);
        offsets.push(0);
        for att in &spec.attackers {
            offsets.push(offsets.last().unwrap() + att.actions.len());
        }
        Self { offsets }
    }

    /// Total number of actions.
    pub fn n_actions(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Number of attackers.
    pub fn n_attackers(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Flat index range of attacker `e`.
    pub fn range(&self, e: usize) -> std::ops::Range<usize> {
        self.offsets[e]..self.offsets[e + 1]
    }
}

/// Payoff matrix `U_a(o, b, ⟨e,v⟩)` for a concrete threshold vector and a
/// set of candidate orders: `values[col][i]` is the utility of flat action
/// `i` against order column `col`.
#[derive(Debug, Clone)]
pub struct PayoffMatrix {
    /// One column per candidate order.
    pub orders: Vec<AuditOrder>,
    /// `Pal` vector per column (cached for diagnostics/best-response work).
    pub pals: Vec<Vec<f64>>,
    /// Column-major utilities: `values[col][flat_action]`.
    pub values: Vec<Vec<f64>>,
    /// Flat action index.
    pub index: ActionIndex,
}

/// One payoff-matrix column: every flat action's utility against the
/// detection vector `pal`. All matrix-construction paths share this so the
/// scalar and engine-built matrices can never drift apart.
fn utility_column(spec: &GameSpec, pal: &[f64]) -> Vec<f64> {
    let mut col = Vec::with_capacity(spec.n_actions());
    for att in &spec.attackers {
        for act in &att.actions {
            col.push(action_utility(act, pal));
        }
    }
    col
}

impl PayoffMatrix {
    /// Evaluate the payoff matrix for `orders` under fixed thresholds.
    pub fn build(
        spec: &GameSpec,
        est: &DetectionEstimator<'_>,
        orders: Vec<AuditOrder>,
        thresholds: &[f64],
    ) -> Self {
        let index = ActionIndex::new(spec);
        let mut pals = Vec::with_capacity(orders.len());
        let mut values = Vec::with_capacity(orders.len());
        for order in &orders {
            let pal = est.pal(order, thresholds);
            values.push(utility_column(spec, &pal));
            pals.push(pal);
        }
        Self {
            orders,
            pals,
            values,
            index,
        }
    }

    /// As [`PayoffMatrix::build`], but through the batched engine: every
    /// order's `Pal` vector is evaluated (or recalled) in a single
    /// [`PalEngine::pal_batch`] call, so the columns are grouped into one
    /// prefix trie — orders sharing audit prefixes (all of them, on a full
    /// enumeration) pay for each shared prefix once — and split across the
    /// engine's workers by trie subtree. Results are identical to the
    /// scalar path.
    pub fn build_with_engine(
        spec: &GameSpec,
        engine: &PalEngine<'_>,
        orders: Vec<AuditOrder>,
        thresholds: &[f64],
    ) -> Self {
        let index = ActionIndex::new(spec);
        let queries: Vec<PalQuery> = orders
            .iter()
            .map(|o| PalQuery::full(o, thresholds))
            .collect();
        let pals = engine.pal_batch(&queries);
        let values = pals.iter().map(|pal| utility_column(spec, pal)).collect();
        Self {
            orders,
            pals,
            values,
            index,
        }
    }

    /// Append one more order column (used by column generation), its
    /// `Pal` routed through the engine so cached estimates are reused.
    pub fn push_order_with_engine(
        &mut self,
        spec: &GameSpec,
        engine: &PalEngine<'_>,
        order: AuditOrder,
        thresholds: &[f64],
    ) {
        let pal = engine.pal(&order, thresholds);
        self.orders.push(order);
        self.values.push(utility_column(spec, &pal));
        self.pals.push(pal);
    }

    /// Number of order columns.
    pub fn n_orders(&self) -> usize {
        self.orders.len()
    }

    /// Every flat action's expected utility `Σ_o p_o·U_a(o,b,⟨e,v⟩)` when
    /// the auditor plays mixture `p` over the columns, summed in column
    /// order.
    pub(crate) fn mixed_utilities(&self, p: &[f64]) -> Vec<f64> {
        assert_eq!(p.len(), self.n_orders());
        (0..self.index.n_actions())
            .map(|i| {
                self.values
                    .iter()
                    .zip(p)
                    .map(|(col, &po)| po * col[i])
                    .sum()
            })
            .collect()
    }

    /// Auditor's loss if the auditor plays mixture `p` over the columns and
    /// every attacker best-responds (including opting out when allowed):
    /// `Σ_e p_e · max_v Σ_o p_o · U_a(o,b,⟨e,v⟩)` (paper eq. 4).
    pub fn loss_under_mixture(&self, spec: &GameSpec, p: &[f64]) -> f64 {
        let mixed = self.mixed_utilities(p);
        let mut loss = 0.0;
        for (e, att) in spec.attackers.iter().enumerate() {
            let mut best = f64::NEG_INFINITY;
            for &expected in &mixed[self.index.range(e)] {
                best = best.max(expected);
            }
            if spec.allow_opt_out || att.actions.is_empty() {
                best = best.max(0.0);
            }
            if best.is_finite() {
                loss += att.attack_prob * best;
            }
        }
        loss
    }

    /// Each attacker's best response under mixture `p`: `Some(flat index)`
    /// of the chosen action, or `None` when opting out is optimal.
    pub fn best_responses(&self, spec: &GameSpec, p: &[f64]) -> Vec<Option<usize>> {
        let mixed = self.mixed_utilities(p);
        let mut out = Vec::with_capacity(spec.n_attackers());
        for e in 0..spec.n_attackers() {
            let mut best: Option<(usize, f64)> = None;
            for i in self.index.range(e) {
                let expected = mixed[i];
                if best.map(|(_, v)| expected > v).unwrap_or(true) {
                    best = Some((i, expected));
                }
            }
            match best {
                Some((i, v)) if !(spec.allow_opt_out && v < 0.0) => out.push(Some(i)),
                _ => out.push(None),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::model::{Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::Constant;

    fn spec() -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(1)));
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(1)));
        b.attacker(Attacker::new(
            "e0",
            1.0,
            vec![
                AttackAction::deterministic("v0", t0, 10.0, 1.0, 5.0),
                AttackAction::deterministic("v1", t1, 8.0, 1.0, 5.0),
            ],
        ));
        b.attacker(Attacker::new(
            "e1",
            0.5,
            vec![AttackAction::deterministic("v0", t0, 4.0, 1.0, 5.0)],
        ));
        b.budget(1.0);
        b.build().unwrap()
    }

    #[test]
    fn utility_formula() {
        let act = AttackAction::deterministic("v", 0, 10.0, 1.0, 5.0);
        // Pal = 1: caught for sure → −5 − 1 = −6.
        assert!((action_utility(&act, &[1.0, 0.0]) + 6.0).abs() < 1e-12);
        // Pal = 0: undetected → 10 − 1 = 9.
        assert!((action_utility(&act, &[0.0, 0.0]) - 9.0).abs() < 1e-12);
        // Pal = 0.5 → 0.5·(−5) + 0.5·10 − 1 = 1.5.
        assert!((action_utility(&act, &[0.5, 0.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stochastic_alert_mapping() {
        let act = AttackAction {
            victim: "v".into(),
            alert_probs: vec![(0, 0.6), (1, 0.2)],
            reward: 10.0,
            attack_cost: 0.0,
            penalty: 0.0,
        };
        // Pat = 0.6·1 + 0.2·0.5 = 0.7 → U = 0.3·10 = 3.
        assert!((detection_prob(&act, &[1.0, 0.5]) - 0.7).abs() < 1e-12);
        assert!((action_utility(&act, &[1.0, 0.5]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn action_index_ranges() {
        let s = spec();
        let idx = ActionIndex::new(&s);
        assert_eq!(idx.n_actions(), 3);
        assert_eq!(idx.n_attackers(), 2);
        assert_eq!(idx.range(0), 0..2);
        assert_eq!(idx.range(1), 2..3);
    }

    #[test]
    fn payoff_matrix_shape_and_loss() {
        let s = spec();
        let bank = s.sample_bank(2, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(2);
        let m = PayoffMatrix::build(&s, &est, orders, &[1.0, 1.0]);
        assert_eq!(m.n_orders(), 2);
        assert_eq!(m.values[0].len(), 3);

        // Budget 1, Z = (1,1): first type in order is fully audited, second
        // gets nothing. Under order [0,1]: Pal = (1, 0).
        assert!((m.pals[0][0] - 1.0).abs() < 1e-12);
        assert!(m.pals[0][1].abs() < 1e-12);

        // Pure strategy [1, 0] (always audit type 0 first): e0 best response
        // is v1 (type 1, undetected: 8−1 = 7); e1 is caught: −6 → overall
        // loss = 1·7 + 0.5·(−6) = 4 (no opt-out).
        let loss = m.loss_under_mixture(&s, &[1.0, 0.0]);
        assert!((loss - 4.0).abs() < 1e-12);
    }

    #[test]
    fn opt_out_floors_attacker_utility() {
        let mut s = spec();
        s.allow_opt_out = true;
        let bank = s.sample_bank(2, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(2);
        let m = PayoffMatrix::build(&s, &est, orders, &[1.0, 1.0]);
        // e1's only option yields −6 under order [0,1]; opting out yields 0.
        let loss = m.loss_under_mixture(&s, &[1.0, 0.0]);
        assert!((loss - 7.0).abs() < 1e-12);
        let br = m.best_responses(&s, &[1.0, 0.0]);
        assert_eq!(br[0], Some(1)); // v1 for attacker 0
        assert_eq!(br[1], None); // deterred
    }

    #[test]
    fn mixture_interpolates_losses() {
        let s = spec();
        let bank = s.sample_bank(2, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(2);
        let m = PayoffMatrix::build(&s, &est, orders, &[1.0, 1.0]);
        let l0 = m.loss_under_mixture(&s, &[1.0, 0.0]);
        let l1 = m.loss_under_mixture(&s, &[0.0, 1.0]);
        let lmix = m.loss_under_mixture(&s, &[0.5, 0.5]);
        // Best responses make loss convex in p: mixture ≤ interpolation.
        assert!(lmix <= 0.5 * (l0 + l1) + 1e-12);
    }

    #[test]
    fn engine_build_matches_scalar_build() {
        let s = spec();
        let bank = s.sample_bank(32, 7);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(2);
        let scalar = PayoffMatrix::build(&s, &est, orders.clone(), &[1.0, 1.0]);
        for threads in [1, 3] {
            let engine = PalEngine::new(est, threads);
            let mut batched =
                PayoffMatrix::build_with_engine(&s, &engine, vec![orders[0].clone()], &[1.0, 1.0]);
            batched.push_order_with_engine(&s, &engine, orders[1].clone(), &[1.0, 1.0]);
            assert_eq!(scalar.pals, batched.pals);
            assert_eq!(scalar.values, batched.values);
            assert_eq!(scalar.orders, batched.orders);
        }
    }

    #[test]
    fn push_order_extends_matrix() {
        let s = spec();
        let bank = s.sample_bank(2, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 1);
        let mut m = PayoffMatrix::build(&s, &est, vec![AuditOrder::identity(2)], &[1.0, 1.0]);
        m.push_order_with_engine(
            &s,
            &engine,
            AuditOrder::new(vec![1, 0]).unwrap(),
            &[1.0, 1.0],
        );
        assert_eq!(m.n_orders(), 2);
        assert_eq!(m.values[1].len(), 3);
    }
}
