//! Recourse budget math and detection probabilities.
//!
//! Given an order `o`, thresholds `b`, and a realization of benign counts
//! `Z`, the paper defines (Section II-B):
//!
//! ```text
//! B_t(o,b,Z) = max( ⌊(B − Σ_{i<o(t)} min{b_{o_i}, Z_{o_i}·C_{o_i}}) / C_t⌋, 0 )
//! n_t(o,b,Z) = min( B_t(o,b,Z), ⌊b_t/C_t⌋, Z_t )
//! Pal(o,b,t) ≈ E_Z[ n_t(o,b,Z) / Z_t ]                         (eq. 1)
//! ```
//!
//! `Pal` is estimated by Monte Carlo over a frozen [`SampleBank`] (common
//! random numbers; see `stochastics::bank`). Three variants of the
//! per-sample detection ratio are provided — the paper's approximation and
//! two refinements used for ablation studies.
//!
//! Two evaluation paths share the same arithmetic:
//!
//! * [`DetectionEstimator`] — the scalar reference: one policy at a time,
//!   one sample of the bank at a time;
//! * [`PalEngine`] — the batched engine: many `(sequence, thresholds)`
//!   queries in one call, grouped into a **prefix trie** so shared audit
//!   prefixes are evaluated once per batch (and carried *across* batches
//!   by a prefix-state cache), streamed column-by-column over the bank's
//!   column-major counts, fanned out through
//!   [`crate::parallel::parallel_map_indexed`] (contiguous runs of trie
//!   subtrees per worker) and memoized across calls.
//!
//! Both paths accumulate each type's detection mass over samples in
//! ascending sample order and per-sample budget consumption in audit-order
//! type order, through the shared `detection_step` kernel — so the engine
//! is **bit-identical** to the scalar reference at every thread count (see
//! `tests/detection_equivalence.rs`). The engine internals live in the
//! `engine`, `trie` and `cache` submodules; everything public is
//! re-exported here.

mod cache;
mod engine;
mod trie;

pub use engine::{CacheStats, PalEngine};

use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use serde::{Deserialize, Serialize};
use stochastics::SampleBank;

/// How the per-sample detection ratio of an attack alert is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DetectionModel {
    /// The paper's approximation `n_t/Z_t` (eq. 1), with the `Z_t = 0` case
    /// resolved naturally: the attack alert would then be the *only* type-`t`
    /// alert, so it is caught iff at least one type-`t` audit is affordable.
    #[default]
    PaperApprox,
    /// Attack-inclusive ratio: recompute `n_t` with `Z_t + 1` alerts present
    /// and return `min(n_t, Z_t+1)/(Z_t+1)` — the exact probability that a
    /// uniformly-placed attack alert is among the audited ones.
    AttackInclusive,
    /// Operational recourse: identical ratio to [`DetectionModel::PaperApprox`]
    /// but earlier types consume only the budget *actually spent*
    /// (`n_t · C_t`) rather than the paper's `min{b_t, Z_t·C_t}` surrogate.
    /// This models a real auditor who banks unused type budget.
    Operational,
}

/// Monte-Carlo estimator of detection probabilities over a fixed sample
/// bank. Cheap to construct; borrows the spec and bank.
#[derive(Debug, Clone, Copy)]
pub struct DetectionEstimator<'a> {
    spec: &'a GameSpec,
    bank: &'a SampleBank,
    model: DetectionModel,
}

impl<'a> DetectionEstimator<'a> {
    /// Build an estimator. The bank must have one column per alert type.
    pub fn new(spec: &'a GameSpec, bank: &'a SampleBank, model: DetectionModel) -> Self {
        assert_eq!(
            bank.n_types(),
            spec.n_types(),
            "sample bank columns must match alert types"
        );
        Self { spec, bank, model }
    }

    /// The detection model in use.
    pub fn model(&self) -> DetectionModel {
        self.model
    }

    /// The sample bank backing the estimate.
    pub fn bank(&self) -> &SampleBank {
        self.bank
    }

    /// `Pal(o, b, t)` for every type `t`, as a vector indexed by type.
    ///
    /// Types are processed in audit order; a type's detection probability
    /// depends only on its predecessors, which is what makes the greedy
    /// column oracle of CGGS incremental.
    pub fn pal(&self, order: &AuditOrder, thresholds: &[f64]) -> Vec<f64> {
        assert_eq!(
            order.len(),
            self.spec.n_types(),
            "order/type arity mismatch"
        );
        self.pal_prefix(order.types(), thresholds)
    }

    /// `Pal` restricted to a *prefix* of an order: types in `prefix` are
    /// audited in the given sequence; the remaining types are treated as
    /// never audited (probability 0). Used by the CGGS greedy oracle, which
    /// extends a partial order one type at a time (Algorithm 1, line 6).
    pub fn pal_prefix(&self, prefix: &[usize], thresholds: &[f64]) -> Vec<f64> {
        assert!(prefix.len() <= self.spec.n_types());
        assert_eq!(thresholds.len(), self.spec.n_types());
        let costs = &self.spec.alert_types;
        let budget = self.spec.budget;
        let mut acc = vec![0.0f64; self.spec.n_types()];
        // Sample-major on purpose: the reference walks one realization at
        // a time, where the engine streams one column at a time.
        for s in 0..self.bank.n_samples() {
            // Cumulative budget consumed by predecessor types.
            let mut consumed = 0.0f64;
            for &t in prefix {
                let c_t = costs[t].audit_cost;
                let b_t = thresholds[t];
                let thresh_cap = (b_t / c_t).floor().max(0.0);
                let zt = self.bank.column(t)[s];
                let (contrib, spent) =
                    detection_step(self.model, budget, c_t, b_t, thresh_cap, consumed, zt);
                acc[t] += contrib;
                consumed += spent;
            }
        }
        let n = self.bank.n_samples() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }
}

/// `B_t` — the remaining per-type audit capacity in alert units, given the
/// budget already consumed by the type's predecessors within one sample.
#[inline(always)]
fn budget_cap(budget: f64, c_t: f64, consumed: f64) -> f64 {
    let remaining = budget - consumed;
    if remaining > 0.0 {
        (remaining / c_t).floor().max(0.0)
    } else {
        0.0
    }
}

/// The capped tail of [`detection_step`]: everything downstream of `B_t`.
#[inline(always)]
fn detection_step_capped(
    model: DetectionModel,
    bt_cap: f64,
    c_t: f64,
    b_t: f64,
    thresh_cap: f64,
    zt: u64,
) -> (f64, f64) {
    match model {
        DetectionModel::PaperApprox => {
            let n_t = bt_cap.min(thresh_cap).min(zt as f64);
            let contrib = if zt > 0 {
                n_t / zt as f64
            } else if bt_cap.min(thresh_cap) >= 1.0 {
                // The attack alert would be the lone type-t alert.
                1.0
            } else {
                0.0
            };
            (contrib, b_t.min(zt as f64 * c_t))
        }
        DetectionModel::AttackInclusive => {
            let z_plus = zt as f64 + 1.0;
            let n_t = bt_cap.min(thresh_cap).min(z_plus);
            (n_t / z_plus, b_t.min(zt as f64 * c_t))
        }
        DetectionModel::Operational => {
            let n_t = bt_cap.min(thresh_cap).min(zt as f64);
            let contrib = if zt > 0 {
                n_t / zt as f64
            } else if bt_cap.min(thresh_cap) >= 1.0 {
                1.0
            } else {
                0.0
            };
            (contrib, n_t * c_t)
        }
    }
}

/// The per-`(sample, type)` kernel shared by the scalar reference path and
/// the batched engine: given the budget consumed by the type's predecessors
/// within this sample, return `(detection contribution, budget consumed by
/// this type)`.
///
/// Keeping this in one place is what guarantees the two paths agree
/// *bitwise*: both perform exactly this arithmetic on exactly the same
/// operands, and differ only in loop nesting order (sample-major vs
/// trie-node-major), which touches no floating-point operation.
#[inline(always)]
fn detection_step(
    model: DetectionModel,
    budget: f64,
    c_t: f64,
    b_t: f64,
    thresh_cap: f64,
    consumed: f64,
    zt: u64,
) -> (f64, f64) {
    detection_step_capped(
        model,
        budget_cap(budget, c_t, consumed),
        c_t,
        b_t,
        thresh_cap,
        zt,
    )
}

/// One batched detection query: evaluate `Pal` for the audit sequence
/// `seq` (a full order or a prefix; types not in `seq` get probability 0)
/// under per-type `thresholds`.
#[derive(Debug, Clone, PartialEq)]
pub struct PalQuery {
    /// Audit sequence (distinct type indices, in audit order).
    pub seq: Vec<usize>,
    /// Per-type budget thresholds `b_t` (full arity, indexed by type).
    pub thresholds: Vec<f64>,
}

impl PalQuery {
    /// Query for a complete audit order.
    pub fn full(order: &AuditOrder, thresholds: &[f64]) -> Self {
        Self {
            seq: order.types().to_vec(),
            thresholds: thresholds.to_vec(),
        }
    }

    /// Query for a prefix of an order (remaining types never audited).
    pub fn prefix(prefix: &[usize], thresholds: &[f64]) -> Self {
        Self {
            seq: prefix.to_vec(),
            thresholds: thresholds.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::Constant;

    /// Two types, deterministic Z = (2, 3), C = (1, 1).
    fn spec(budget: f64) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(2)));
        let _t1 = b.alert_type("t1", 1.0, Arc::new(Constant(3)));
        b.attacker(Attacker::new(
            "e",
            1.0,
            vec![AttackAction::deterministic("v", t0, 1.0, 0.0, 0.0)],
        ));
        b.budget(budget);
        b.build().unwrap()
    }

    fn bank_for(spec: &GameSpec) -> SampleBank {
        spec.sample_bank(4, 0)
    }

    #[test]
    fn full_budget_audits_everything() {
        let s = spec(10.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let pal = est.pal(&AuditOrder::identity(2), &[10.0, 10.0]);
        assert!((pal[0] - 1.0).abs() < 1e-12);
        assert!((pal[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_starves_later_types() {
        // B = 2: type 0 consumes min(b0, Z0·C0) = 2, leaving nothing.
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let pal = est.pal(&AuditOrder::identity(2), &[10.0, 10.0]);
        assert!((pal[0] - 1.0).abs() < 1e-12);
        assert!(pal[1].abs() < 1e-12);
    }

    #[test]
    fn threshold_caps_detection() {
        // b0 = 1 with Z0 = 2: only 1 of 2 audited → Pal_0 = 0.5; the other
        // budget unit flows to type 1 (B=2): 1 of 3 audited.
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let pal = est.pal(&AuditOrder::identity(2), &[1.0, 10.0]);
        assert!((pal[0] - 0.5).abs() < 1e-12);
        assert!((pal[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn order_matters() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let pal_01 = est.pal(&AuditOrder::new(vec![0, 1]).unwrap(), &[10.0, 10.0]);
        let pal_10 = est.pal(&AuditOrder::new(vec![1, 0]).unwrap(), &[10.0, 10.0]);
        // Under [0,1]: type 0 gets all budget. Under [1,0]: type 1 gets it.
        assert!(pal_01[0] > pal_10[0]);
        assert!(pal_10[1] > pal_01[1]);
    }

    #[test]
    fn zero_threshold_means_zero_detection() {
        let s = spec(10.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let pal = est.pal(&AuditOrder::identity(2), &[0.0, 10.0]);
        assert_eq!(pal[0], 0.0);
        assert!((pal[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_matches_full_order_on_prefix_types() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let full = est.pal(&AuditOrder::identity(2), &[1.0, 10.0]);
        let prefix = est.pal_prefix(&[0], &[1.0, 10.0]);
        assert!((full[0] - prefix[0]).abs() < 1e-12);
        assert_eq!(prefix[1], 0.0);
    }

    #[test]
    fn attack_inclusive_is_at_most_paper_when_counts_positive() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let paper = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox)
            .pal(&AuditOrder::identity(2), &[1.0, 1.0]);
        let incl = DetectionEstimator::new(&s, &bank, DetectionModel::AttackInclusive)
            .pal(&AuditOrder::identity(2), &[1.0, 1.0]);
        // With Z_t ≥ 1 everywhere, n/(Z+1) ≤ n/Z.
        for t in 0..2 {
            assert!(incl[t] <= paper[t] + 1e-12);
        }
    }

    #[test]
    fn operational_banks_unused_budget() {
        // b0 = 2 but Z0 = 2 and only 1 unit affordable... use b0=2, B=3:
        // Paper: consumed = min(2, 2) = 2 → type 1 capacity 1 → 1/3.
        // Same here; differentiate via a tighter threshold: b0 = 5, Z0 = 2,
        // B = 5. Paper consumes min(5, 2) = 2; operational consumes n·C = 2.
        // Differentiating case: threshold larger than realized cost but
        // budget-capped: B = 1.5, C0 = 1, b0 = 5: bt_cap = 1 → n = 1,
        // paper consumes min(5, 2) = 2 (over-consumes!), operational 1.
        let s = spec(1.5);
        let bank = bank_for(&s);
        let paper = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox)
            .pal(&AuditOrder::identity(2), &[5.0, 5.0]);
        let oper = DetectionEstimator::new(&s, &bank, DetectionModel::Operational)
            .pal(&AuditOrder::identity(2), &[5.0, 5.0]);
        assert!((paper[0] - 0.5).abs() < 1e-12);
        assert!((oper[0] - 0.5).abs() < 1e-12);
        // Paper: consumed 2 > B → nothing left. Operational: consumed 1,
        // remaining 0.5 < C → still nothing. Use B = 2.5 instead:
        let s = spec(2.5);
        let bank = bank_for(&s);
        let paper = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox)
            .pal(&AuditOrder::identity(2), &[5.0, 5.0]);
        let oper = DetectionEstimator::new(&s, &bank, DetectionModel::Operational)
            .pal(&AuditOrder::identity(2), &[5.0, 5.0]);
        // Both audit both type-0 alerts (bt_cap = 2).
        assert!((paper[0] - 1.0).abs() < 1e-12);
        assert!((oper[0] - 1.0).abs() < 1e-12);
        // Paper consumed min(5, 2) = 2 → 0.5 left → 0 audits of type 1.
        // Operational consumed 2·1 = 2 → identical here. The models only
        // diverge when thresholds bind below realized counts:
        let pal_paper = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox)
            .pal(&AuditOrder::identity(2), &[1.0, 5.0]);
        let pal_oper = DetectionEstimator::new(&s, &bank, DetectionModel::Operational)
            .pal(&AuditOrder::identity(2), &[1.0, 5.0]);
        // consumed: paper min(1, 2) = 1; operational n·C = 1. Equal again —
        // and that is the invariant: with unit costs and integral thresholds
        // the two consumption rules agree; they differ only for fractional
        // thresholds:
        let pal_paper_frac = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox)
            .pal(&AuditOrder::identity(2), &[1.5, 5.0]);
        let pal_oper_frac = DetectionEstimator::new(&s, &bank, DetectionModel::Operational)
            .pal(&AuditOrder::identity(2), &[1.5, 5.0]);
        // Type 0: 1 audit either way.
        assert!((pal_paper_frac[0] - 0.5).abs() < 1e-12);
        assert!((pal_oper_frac[0] - 0.5).abs() < 1e-12);
        // Paper consumes 1.5 → 1.0 left → 1 audit of type 1 (Z=3): 1/3.
        // Operational consumes 1.0 → 1.5 left → 1 audit: 1/3. Same floor.
        assert!((pal_paper_frac[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((pal_oper_frac[1] - 1.0 / 3.0).abs() < 1e-12);
        // They must never give the later type LESS than paper's rule.
        for t in 0..2 {
            assert!(pal_oper[t] + 1e-12 >= pal_paper[t]);
            assert!(pal_oper_frac[t] + 1e-12 >= pal_paper_frac[t]);
        }
    }

    #[test]
    fn zero_count_rule_detects_lone_attack_alert() {
        // Z0 = 0 via Constant(0): attack alert is the only one.
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(0)));
        b.attacker(Attacker::new(
            "e",
            1.0,
            vec![AttackAction::deterministic("v", t0, 1.0, 0.0, 0.0)],
        ));
        b.budget(1.0);
        let s = b.build().unwrap();
        let bank = SampleBank::from_rows(vec![vec![0]]);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let pal = est.pal(&AuditOrder::identity(1), &[1.0]);
        assert!((pal[0] - 1.0).abs() < 1e-12);
        // With zero threshold the lone alert cannot be audited.
        let pal = est.pal(&AuditOrder::identity(1), &[0.0]);
        assert_eq!(pal[0], 0.0);
    }
}
