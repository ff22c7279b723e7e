//! Operational execution of a solved audit policy.
//!
//! The solvers produce a *policy* — thresholds plus a mixed strategy over
//! orders. This module turns it into day-to-day behaviour: draw an order,
//! walk the realized alert queues in that order, and audit alerts within
//! the per-type thresholds and the remaining global budget. This is the
//! piece a deploying organization actually runs every audit period.

use crate::detection::{PalEngine, PalQuery};
use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use rand::seq::SliceRandom;
use rand::Rng;

/// A deployable audit policy.
#[derive(Debug, Clone)]
pub struct AuditPolicy {
    /// Per-type budget thresholds `b_t` (budget units).
    pub thresholds: Vec<f64>,
    /// Support of the mixed strategy.
    pub orders: Vec<AuditOrder>,
    /// Probability of each order (sums to 1).
    pub probs: Vec<f64>,
}

impl AuditPolicy {
    /// Construct, validating simplex structure.
    pub fn new(thresholds: Vec<f64>, orders: Vec<AuditOrder>, probs: Vec<f64>) -> Self {
        assert_eq!(orders.len(), probs.len(), "orders/probs length mismatch");
        assert!(!orders.is_empty(), "policy needs at least one order");
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6 && probs.iter().all(|&p| p >= -1e-9),
            "probs must form a distribution (sum {total})"
        );
        Self {
            thresholds,
            orders,
            probs,
        }
    }

    /// A deterministic single-order policy.
    pub fn pure(thresholds: Vec<f64>, order: AuditOrder) -> Self {
        Self::new(thresholds, vec![order], vec![1.0])
    }

    /// Sample an order according to the mixed strategy.
    pub fn sample_order<R: Rng + ?Sized>(&self, rng: &mut R) -> &AuditOrder {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (o, &p) in self.orders.iter().zip(&self.probs) {
            acc += p;
            if u <= acc {
                return o;
            }
        }
        self.orders.last().expect("non-empty by construction")
    }

    /// Number of alert types the policy covers.
    pub fn n_types(&self) -> usize {
        self.thresholds.len()
    }

    /// Expected audit capacity per type: `⌊b_t / C_t⌋` alert slots.
    pub fn capacity(&self, spec: &GameSpec) -> Vec<u64> {
        self.thresholds
            .iter()
            .zip(spec.audit_costs())
            .map(|(&b, c)| (b / c).floor().max(0.0) as u64)
            .collect()
    }

    /// Predicted per-type detection probabilities of each support order
    /// under this policy's thresholds, evaluated in one engine batch
    /// (aligned with `self.orders`).
    pub fn predicted_pal(&self, engine: &PalEngine<'_>) -> Vec<Vec<f64>> {
        let queries: Vec<PalQuery> = self
            .orders
            .iter()
            .map(|o| PalQuery::full(o, &self.thresholds))
            .collect();
        engine.pal_batch(&queries)
    }

    /// Mixture-weighted detection probability per type: what a type-`t`
    /// attack alert faces in expectation over the order draw. The
    /// operational headline number a deploying organization reads off a
    /// solved policy.
    pub fn expected_pal(&self, engine: &PalEngine<'_>) -> Vec<f64> {
        let pals = self.predicted_pal(engine);
        let mut out = vec![0.0f64; self.n_types()];
        for (pal, &p) in pals.iter().zip(&self.probs) {
            for (o, &v) in out.iter_mut().zip(pal) {
                *o += p * v;
            }
        }
        out
    }
}

/// One realized alert awaiting triage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealizedAlert {
    /// Alert type index.
    pub alert_type: usize,
    /// Opaque identifier (event id, log offset, …).
    pub id: u64,
}

/// Outcome of running the policy on one period's alert queue.
#[derive(Debug, Clone)]
pub struct AuditRun {
    /// The order that was drawn.
    pub order: AuditOrder,
    /// Ids of audited alerts, grouped by type.
    pub audited: Vec<Vec<u64>>,
    /// Budget actually spent.
    pub spent: f64,
    /// Number of alerts skipped for lack of budget or threshold headroom.
    pub skipped: usize,
}

impl AuditRun {
    /// Total number of audited alerts across all types.
    pub fn n_audited(&self) -> usize {
        self.audited.iter().map(|v| v.len()).sum()
    }

    /// Whether a specific alert was audited.
    pub fn contains(&self, alert: &RealizedAlert) -> bool {
        self.audited
            .get(alert.alert_type)
            .map(|ids| ids.contains(&alert.id))
            .unwrap_or(false)
    }
}

/// Execute the policy on one period of realized alerts.
///
/// Within each type the audited subset is drawn uniformly at random —
/// auditing "the first k" would let an attacker time their access to evade
/// review. Budget consumption follows the operational rule (only audits
/// actually performed consume budget).
pub fn execute_policy<R: Rng + ?Sized>(
    policy: &AuditPolicy,
    spec: &GameSpec,
    alerts: &[RealizedAlert],
    rng: &mut R,
) -> AuditRun {
    let n = policy.n_types();
    assert_eq!(n, spec.n_types(), "policy/spec arity mismatch");
    let order = policy.sample_order(rng).clone();
    let costs = spec.audit_costs();

    // Partition the queue by type.
    let mut queues: Vec<Vec<u64>> = vec![Vec::new(); n];
    for a in alerts {
        assert!(
            a.alert_type < n,
            "alert references unknown type {}",
            a.alert_type
        );
        queues[a.alert_type].push(a.id);
    }

    let mut audited: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut remaining = spec.budget;
    let mut skipped = 0usize;
    for &t in order.types() {
        let cap_threshold = (policy.thresholds[t] / costs[t]).floor().max(0.0) as usize;
        let cap_budget = if remaining > 0.0 {
            (remaining / costs[t]).floor().max(0.0) as usize
        } else {
            0
        };
        let take = cap_threshold.min(cap_budget).min(queues[t].len());
        // Uniform random subset of the queue.
        queues[t].shuffle(rng);
        let mut chosen: Vec<u64> = queues[t][..take].to_vec();
        chosen.sort_unstable();
        remaining -= take as f64 * costs[t];
        skipped += queues[t].len() - take;
        audited[t] = chosen;
    }

    AuditRun {
        order,
        audited,
        spent: spec.budget - remaining,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::{seeded_rng, Constant};

    fn spec(budget: f64) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(3)));
        let _t1 = b.alert_type("t1", 2.0, Arc::new(Constant(2)));
        b.attacker(Attacker::new(
            "e",
            1.0,
            vec![AttackAction::deterministic("v", t0, 1.0, 0.1, 1.0)],
        ));
        b.budget(budget);
        b.build().unwrap()
    }

    fn queue() -> Vec<RealizedAlert> {
        vec![
            RealizedAlert {
                alert_type: 0,
                id: 1,
            },
            RealizedAlert {
                alert_type: 0,
                id: 2,
            },
            RealizedAlert {
                alert_type: 0,
                id: 3,
            },
            RealizedAlert {
                alert_type: 1,
                id: 10,
            },
            RealizedAlert {
                alert_type: 1,
                id: 11,
            },
        ]
    }

    #[test]
    fn executes_within_budget_and_thresholds() {
        let s = spec(5.0);
        let policy = AuditPolicy::pure(vec![2.0, 4.0], AuditOrder::identity(2));
        let run = execute_policy(&policy, &s, &queue(), &mut seeded_rng(0));
        // Type 0: threshold 2 → 2 of 3. Type 1: cost 2, threshold 4 → cap 2,
        // budget left 3 → 1 audit.
        assert_eq!(run.audited[0].len(), 2);
        assert_eq!(run.audited[1].len(), 1);
        assert!((run.spent - 4.0).abs() < 1e-12);
        assert_eq!(run.skipped, 2);
        assert_eq!(run.n_audited(), 3);
    }

    #[test]
    fn zero_threshold_audits_nothing_of_that_type() {
        let s = spec(10.0);
        let policy = AuditPolicy::pure(vec![0.0, 10.0], AuditOrder::identity(2));
        let run = execute_policy(&policy, &s, &queue(), &mut seeded_rng(0));
        assert!(run.audited[0].is_empty());
        assert_eq!(run.audited[1].len(), 2);
    }

    #[test]
    fn order_determines_starvation() {
        let s = spec(4.0);
        let policy01 = AuditPolicy::pure(vec![10.0, 10.0], AuditOrder::identity(2));
        let run01 = execute_policy(&policy01, &s, &queue(), &mut seeded_rng(0));
        // Type 0 first: 3 audits (cost 3), 1 left → 0 type-1 audits.
        assert_eq!(run01.audited[0].len(), 3);
        assert_eq!(run01.audited[1].len(), 0);

        let policy10 = AuditPolicy::pure(vec![10.0, 10.0], AuditOrder::new(vec![1, 0]).unwrap());
        let run10 = execute_policy(&policy10, &s, &queue(), &mut seeded_rng(0));
        // Type 1 first: 2 audits (cost 4) → nothing for type 0.
        assert_eq!(run10.audited[1].len(), 2);
        assert_eq!(run10.audited[0].len(), 0);
    }

    #[test]
    fn sampling_follows_mixture() {
        let policy = AuditPolicy::new(
            vec![1.0, 1.0],
            vec![
                AuditOrder::identity(2),
                AuditOrder::new(vec![1, 0]).unwrap(),
            ],
            vec![0.25, 0.75],
        );
        let mut rng = seeded_rng(3);
        let n = 20_000;
        let mut first = 0usize;
        for _ in 0..n {
            if policy.sample_order(&mut rng).types()[0] == 0 {
                first += 1;
            }
        }
        let freq = first as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn audited_subset_is_uniformly_random() {
        let s = spec(1.0);
        let policy = AuditPolicy::pure(vec![1.0, 0.0], AuditOrder::identity(2));
        let mut rng = seeded_rng(9);
        let mut picks = [0usize; 4];
        for _ in 0..6000 {
            let run = execute_policy(&policy, &s, &queue(), &mut rng);
            assert_eq!(run.audited[0].len(), 1);
            picks[run.audited[0][0] as usize] += 1;
        }
        // Ids 1..=3 each picked ≈ 1/3 of the time.
        for (id, &count) in picks.iter().enumerate().skip(1) {
            let freq = count as f64 / 6000.0;
            assert!((freq - 1.0 / 3.0).abs() < 0.03, "id {id} freq {freq}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_malformed_mixture() {
        AuditPolicy::new(
            vec![1.0],
            vec![AuditOrder::identity(1)],
            vec![0.5], // doesn't sum to 1
        );
    }

    #[test]
    fn capacity_accounts_for_costs() {
        let s = spec(10.0);
        let policy = AuditPolicy::pure(vec![3.0, 5.0], AuditOrder::identity(2));
        assert_eq!(policy.capacity(&s), vec![3, 2]);
    }

    #[test]
    fn expected_pal_mixes_per_order_predictions() {
        use crate::detection::{DetectionEstimator, DetectionModel};
        let s = spec(3.0);
        let bank = s.sample_bank(16, 0);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 2);
        let policy = AuditPolicy::new(
            vec![3.0, 4.0],
            vec![
                AuditOrder::identity(2),
                AuditOrder::new(vec![1, 0]).unwrap(),
            ],
            vec![0.25, 0.75],
        );
        let per_order = policy.predicted_pal(&engine);
        assert_eq!(per_order[0], est.pal(&policy.orders[0], &policy.thresholds));
        assert_eq!(per_order[1], est.pal(&policy.orders[1], &policy.thresholds));
        let mixed = policy.expected_pal(&engine);
        for t in 0..2 {
            let want = 0.25 * per_order[0][t] + 0.75 * per_order[1][t];
            assert!((mixed[t] - want).abs() < 1e-15);
        }
    }
}
