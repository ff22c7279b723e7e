//! The three non-game-theoretic auditing baselines of Section V.B.
//!
//! * **Audit with random orders of alert types** — the auditor keeps solved
//!   thresholds but draws the order uniformly (mimicking ad-hoc,
//!   complaint-driven auditing);
//! * **Audit with random thresholds** — thresholds drawn uniformly (subject
//!   to `Σ b_t ≥ B`), with the auditor still optimizing the order mixture
//!   for each draw;
//! * **Audit based on benefit** — a deterministic greedy auditor that works
//!   through alert types in decreasing order of attacker benefit,
//!   exhausting each type before the next.
//!
//! All baselines are evaluated against *best-responding* attackers, exactly
//! like the proposed policy, so Figures 1–2 compare like with like.

use crate::cggs::Cggs;
use crate::detection::DetectionEstimator;
use crate::error::GameError;
use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use crate::payoff::PayoffMatrix;
use rand::seq::SliceRandom;
use rand::Rng;
use stochastics::seeded_rng;

/// Loss of the *uniform-random-order* auditor with fixed thresholds.
///
/// When `|T|! ≤ max_exact_orders` the uniform mixture over **all** orders
/// is evaluated exactly; otherwise `n_sampled` orders are drawn uniformly
/// (the paper samples 2000).
pub fn random_orders_loss(
    spec: &GameSpec,
    est: &DetectionEstimator<'_>,
    thresholds: &[f64],
    n_sampled: usize,
    seed: u64,
) -> Result<f64, GameError> {
    spec.validate()?;
    let n = spec.n_types();
    let factorial: u128 = (1..=n as u128).product();
    let orders: Vec<AuditOrder> = if factorial <= 768 {
        AuditOrder::enumerate_all(n)
    } else {
        let mut rng = seeded_rng(seed);
        let mut perm: Vec<usize> = (0..n).collect();
        (0..n_sampled.max(1))
            .map(|_| {
                perm.shuffle(&mut rng);
                AuditOrder::new(perm.clone()).expect("shuffle preserves permutation")
            })
            .collect()
    };
    let k = orders.len();
    let matrix = PayoffMatrix::build(spec, est, orders, thresholds);
    let uniform = vec![1.0 / k as f64; k];
    Ok(matrix.loss_under_mixture(spec, &uniform))
}

/// Loss of the *random-thresholds* auditor: for each repetition thresholds
/// are drawn uniformly on the integer audit-capacity lattice, rejected
/// until `Σ b_t ≥ min(B, Σ b̄_t)`, and the auditor then plays the optimal
/// order mixture for that draw (solved with CGGS). Returns the mean loss.
pub fn random_thresholds_loss(
    spec: &GameSpec,
    est: &DetectionEstimator<'_>,
    cggs: &Cggs,
    repeats: usize,
    seed: u64,
) -> Result<f64, GameError> {
    spec.validate()?;
    assert!(repeats > 0, "need at least one repetition");
    let caps: Vec<u64> = spec.distributions.iter().map(|d| d.support_max()).collect();
    let costs = spec.audit_costs();
    let max_sum: f64 = caps.iter().zip(&costs).map(|(&k, &c)| k as f64 * c).sum();
    let min_cover = spec.budget.min(max_sum);

    let mut rng = seeded_rng(seed);
    let mut total = 0.0;
    for _ in 0..repeats {
        // Rejection-sample a covering threshold vector (the acceptance rate
        // is high for the budgets of interest; cap the retries defensively).
        let mut thresholds;
        let mut tries = 0;
        loop {
            thresholds = caps
                .iter()
                .zip(&costs)
                .map(|(&k, &c)| rng.gen_range(0..=k) as f64 * c)
                .collect::<Vec<f64>>();
            let sum: f64 = thresholds.iter().sum();
            if sum + 1e-9 >= min_cover {
                break;
            }
            tries += 1;
            if tries > 10_000 {
                // Degenerate geometry: fall back to full coverage.
                thresholds = caps
                    .iter()
                    .zip(&costs)
                    .map(|(&k, &c)| k as f64 * c)
                    .collect();
                break;
            }
        }
        total += cggs.solve(spec, est, &thresholds)?.master.value;
    }
    Ok(total / repeats as f64)
}

/// The deterministic benefit-greedy audit order: types sorted by decreasing
/// attacker benefit, where a type's benefit is the largest reward among
/// actions that can trigger it.
pub fn benefit_order(spec: &GameSpec) -> AuditOrder {
    let n = spec.n_types();
    let mut benefit = vec![f64::NEG_INFINITY; n];
    for att in &spec.attackers {
        for act in &att.actions {
            for &(t, p) in &act.alert_probs {
                if p > 0.0 {
                    benefit[t] = benefit[t].max(act.reward);
                }
            }
        }
    }
    let mut idx: Vec<usize> = (0..n).collect();
    // Stable sort: ties keep type-index order, making the baseline
    // deterministic.
    idx.sort_by(|&a, &b| {
        benefit[b]
            .partial_cmp(&benefit[a])
            .expect("finite benefits")
    });
    AuditOrder::new(idx).expect("sort of a permutation is a permutation")
}

/// Loss of the *audit-based-on-benefit* auditor: the pure benefit-greedy
/// order with full-coverage thresholds (audit as many alerts of the current
/// type as the budget allows before moving on). Attackers observe the pure
/// strategy and best-respond.
pub fn greedy_by_benefit_loss(
    spec: &GameSpec,
    est: &DetectionEstimator<'_>,
) -> Result<f64, GameError> {
    spec.validate()?;
    let order = benefit_order(spec);
    let thresholds = spec.threshold_upper_bounds();
    let matrix = PayoffMatrix::build(spec, est, vec![order], &thresholds);
    Ok(matrix.loss_under_mixture(spec, &[1.0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::ishm::{ExactEvaluator, Ishm, IshmConfig};
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::Constant;

    fn spec() -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(2)));
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(2)));
        let t2 = b.alert_type("t2", 1.0, Arc::new(Constant(2)));
        for (i, &(t, r)) in [(t0, 9.0), (t1, 5.0), (t2, 7.0)].iter().enumerate() {
            b.attacker(Attacker::new(
                format!("e{i}"),
                1.0,
                vec![AttackAction::deterministic(format!("v{t}"), t, r, 0.5, 4.0)],
            ));
        }
        b.budget(2.0);
        b.allow_opt_out(true);
        b.build().unwrap()
    }

    #[test]
    fn benefit_order_sorts_by_reward() {
        let s = spec();
        let o = benefit_order(&s);
        assert_eq!(o.types(), &[0, 2, 1]); // rewards 9, 7, 5
    }

    #[test]
    fn proposed_policy_beats_all_baselines() {
        let s = spec();
        let bank = s.sample_bank(64, 9);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);

        let mut eval = ExactEvaluator::new(&s, est);
        let proposed = Ishm::new(IshmConfig {
            epsilon: 0.1,
            ..Default::default()
        })
        .solve(&s, &mut eval)
        .unwrap();

        let rnd_orders = random_orders_loss(&s, &est, &proposed.thresholds, 100, 5).unwrap();
        let rnd_thresholds = random_thresholds_loss(&s, &est, &Cggs::default(), 20, 5).unwrap();
        let greedy = greedy_by_benefit_loss(&s, &est).unwrap();

        assert!(
            proposed.value <= rnd_orders + 1e-7,
            "proposed {} vs random orders {}",
            proposed.value,
            rnd_orders
        );
        assert!(
            proposed.value <= rnd_thresholds + 1e-7,
            "proposed {} vs random thresholds {}",
            proposed.value,
            rnd_thresholds
        );
        assert!(
            proposed.value <= greedy + 1e-7,
            "proposed {} vs greedy {}",
            proposed.value,
            greedy
        );
    }

    #[test]
    fn greedy_baseline_is_exploitable() {
        // A pure, publicly-known order lets the lowest-priority attacker
        // attack with impunity whenever the budget runs out first.
        let s = spec();
        let bank = s.sample_bank(64, 9);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let greedy = greedy_by_benefit_loss(&s, &est).unwrap();
        // Budget 2 covers exactly the two type-0 alerts; types 2 and 1 are
        // never audited → attackers on those types gain R − K.
        assert!(greedy >= (7.0 - 0.5) + (5.0 - 0.5) - 1e-9);
    }

    #[test]
    fn random_orders_deterministic_given_seed() {
        let s = spec();
        let bank = s.sample_bank(64, 9);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let a = random_orders_loss(&s, &est, &[2.0, 2.0, 2.0], 50, 1).unwrap();
        let b = random_orders_loss(&s, &est, &[2.0, 2.0, 2.0], 50, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_thresholds_loss_at_least_optimal() {
        let s = spec();
        let bank = s.sample_bank(64, 9);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let orders = AuditOrder::enumerate_all(3);
        let bf = crate::brute_force::solve_brute_force(&s, &est, &orders).unwrap();
        let rnd = random_thresholds_loss(&s, &est, &Cggs::default(), 10, 2).unwrap();
        assert!(rnd >= bf.value - 1e-7);
    }
}
