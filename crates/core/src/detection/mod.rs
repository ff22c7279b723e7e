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
//!
//! The kernel has no branch on data and calls no libm function, so the
//! engine's column pass vectorizes: it computes 64 samples' contributions
//! into a stack array, then adds them to the running sum one at a time in
//! ascending sample order, the association of a per-sample fold. `B_t`'s
//! floor is exact without `f64::floor`, which baseline x86-64 compiles to
//! a libm call: adding and subtracting `2^52` rounds a non-negative value
//! below `2^52` to an integer, one compare corrects a round-up, and
//! larger values are integers already. The kernel's `min`s are
//! compare-selects, which can differ from `f64::min` only in the sign of
//! a zero; `detection_step` documents why no sum or state ever sees it.

mod cache;
mod engine;
mod trie;

pub use engine::{CacheStats, PalEngine};

use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use stochastics::SampleBank;

/// How the per-sample detection ratio of an attack alert is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// `2^52`: from here up every `f64` is an integer, and below it adding
/// and subtracting it rounds a non-negative value to an integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// `x.floor()` for `x ≥ 0`, exact, without a libm call: baseline x86-64
/// has no SSE4.1 `roundsd`, so `f64::floor` is a call that clobbers every
/// vector register. Below `2^52`, `(x + 2^52) − 2^52` is `x` rounded to
/// the nearest integer (the sum lands where the `f64` spacing is 1, and
/// the difference is exact); a round-up is then corrected with one
/// compare. From `2^52` up `x` is already an integer, as is `+∞`, and a
/// NaN passes through. A negative `x` is outside the domain.
#[inline(always)]
fn floor_non_negative(x: f64) -> f64 {
    let r = (x + TWO_POW_52) - TWO_POW_52;
    let r = if r > x { r - 1.0 } else { r };
    if x < TWO_POW_52 {
        r
    } else {
        x
    }
}

/// The smaller of `a` and `b` as one compare-select (`minsd`). Equal to
/// `a.min(b)` unless `b` is NaN or both are zeros of opposite sign: no
/// caller passes a NaN `b`, and the sign of a zero never reaches a sum
/// or a state (see [`detection_step`]).
#[inline(always)]
fn min_select(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `B_t` — the remaining per-type audit capacity in alert units, given the
/// budget already consumed by the type's predecessors within one sample.
/// Audit costs are positive ([`GameSpec::validate`]), so the quotient is
/// non-negative whenever `remaining > 0`, and the select drops it
/// otherwise.
#[inline(always)]
fn budget_cap(budget: f64, c_t: f64, consumed: f64) -> f64 {
    let remaining = budget - consumed;
    let cap = floor_non_negative(remaining / c_t);
    if remaining > 0.0 {
        cap
    } else {
        0.0
    }
}

/// The capped tail of [`detection_step`]: everything downstream of `B_t`.
/// Branch-free: the ratio `n_t / Z_t` is always computed (a NaN at
/// `Z_t = 0`) and the zero-count rule is selected in its place.
#[inline(always)]
fn detection_step_capped(
    model: DetectionModel,
    bt_cap: f64,
    c_t: f64,
    b_t: f64,
    thresh_cap: f64,
    zt: u64,
) -> (f64, f64) {
    let z = zt as f64;
    // Neither cap is NaN: `bt_cap` is selected to 0 unless budget
    // remains, and `thresh_cap` comes out of `f64::max`. A NaN `b_t` in
    // the spend below loses to the other operand, as under `f64::min`.
    let cap = min_select(bt_cap, thresh_cap);
    // The attack alert would be the lone type-t alert.
    let lone = if cap >= 1.0 { 1.0 } else { 0.0 };
    match model {
        DetectionModel::PaperApprox => {
            let n_t = min_select(cap, z);
            let contrib = if zt > 0 { n_t / z } else { lone };
            (contrib, min_select(b_t, z * c_t))
        }
        DetectionModel::AttackInclusive => {
            let z_plus = z + 1.0;
            (min_select(cap, z_plus) / z_plus, min_select(b_t, z * c_t))
        }
        DetectionModel::Operational => {
            let n_t = min_select(cap, z);
            let contrib = if zt > 0 { n_t / z } else { lone };
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
///
/// The kernel has no branch on data and calls no libm function, so the
/// engine's column pass vectorizes. Its compare-selects may return a zero
/// of the other sign than `f64::min` would, and never anything else. That
/// sign is never observed: every detection-mass sum starts at `+0.0` and
/// every consumed-budget state at `+0.0` or above, and adding a zero of
/// either sign to such a value returns that value, because in
/// round-to-nearest a sum is `−0.0` only when both addends are.
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

    /// The per-sample step as it was written before the branch-free
    /// kernel: `f64::floor` (a libm call on baseline x86-64), `f64::min`
    /// and a branch on the zero-count rule. Kept as the reference that
    /// [`detection_step`] must reproduce bit for bit.
    fn reference_step(
        model: DetectionModel,
        budget: f64,
        c_t: f64,
        b_t: f64,
        thresh_cap: f64,
        consumed: f64,
        zt: u64,
    ) -> (f64, f64) {
        let remaining = budget - consumed;
        let bt_cap = if remaining > 0.0 {
            (remaining / c_t).floor().max(0.0)
        } else {
            0.0
        };
        match model {
            DetectionModel::PaperApprox => {
                let n_t = bt_cap.min(thresh_cap).min(zt as f64);
                let contrib = if zt > 0 {
                    n_t / zt as f64
                } else if bt_cap.min(thresh_cap) >= 1.0 {
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

    #[test]
    fn branch_free_step_matches_the_reference_bit_for_bit() {
        const MODELS: [DetectionModel; 3] = [
            DetectionModel::PaperApprox,
            DetectionModel::AttackInclusive,
            DetectionModel::Operational,
        ];
        let bank_max = 40u64;
        let counts = [0, 1, bank_max, (1 << 53) + 1, u64::MAX];
        let mut checked = 0usize;
        for budget in [2.5f64, 6.0, 10.0] {
            for c_t in [0.75f64, 1.0, 1.5, 3.0] {
                // Consumed budget at 0, at every `B − k·C_t` and one ulp
                // either side, and at and past `B`.
                let mut consumed = vec![0.0, budget, budget + 0.5, 2.0 * budget];
                let mut k = 0.0;
                while k * c_t <= budget {
                    let at = budget - k * c_t;
                    consumed.extend([at.next_down(), at, at.next_up()]);
                    k += 1.0;
                }
                consumed.retain(|&c: &f64| c >= 0.0);
                let thresholds = [
                    -0.0,
                    0.0,
                    0.3,
                    0.75,
                    1.5,
                    2.25,
                    budget - 0.5,
                    budget,
                    budget + 1.0,
                    1e300,
                    f64::INFINITY,
                    f64::NAN,
                ];
                for b_t in thresholds {
                    // As the engine and the scalar path compute it.
                    let thresh_cap = (b_t / c_t).floor().max(0.0);
                    for &cons in &consumed {
                        for zt in counts {
                            for model in MODELS {
                                let got =
                                    detection_step(model, budget, c_t, b_t, thresh_cap, cons, zt);
                                let want =
                                    reference_step(model, budget, c_t, b_t, thresh_cap, cons, zt);
                                // Bitwise, up to the sign of a zero (adding
                                // `+0.0` turns `-0.0` into `+0.0` and keeps
                                // everything else), which no sum or state
                                // sees; the next state is compared as is.
                                let bits = |(gain, spent): (f64, f64)| {
                                    ((gain + 0.0).to_bits(), (spent + 0.0).to_bits())
                                };
                                assert_eq!(
                                    (bits(got), (cons + got.1).to_bits()),
                                    (bits(want), (cons + want.1).to_bits()),
                                    "{model:?} B={budget} C={c_t} b={b_t} consumed={cons} z={zt}: \
                                     {got:?} != {want:?}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 10_000, "grid shrank to {checked} cases");
    }

    #[test]
    fn exact_floor_matches_f64_floor() {
        let mut xs = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            TWO_POW_52 - 0.5,
            TWO_POW_52 + 1.0,
            2.0 * TWO_POW_52,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for i in [
            1u64,
            2,
            3,
            7,
            10,
            1000,
            1 << 20,
            (1 << 52) - 1,
            1 << 52,
            1 << 53,
        ] {
            let x = i as f64;
            xs.extend([x.next_down(), x, x.next_up(), x - 0.5, x + 0.5]);
        }
        for x in xs {
            assert!(x >= 0.0 || x.is_nan(), "{x} is outside the domain");
            assert_eq!(
                floor_non_negative(x).to_bits(),
                x.floor().to_bits(),
                "floor({x:e})"
            );
        }
    }

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
