//! Budget-sweep runners for the real-data-shaped experiments
//! (Figures 1 and 2 of the paper).
//!
//! The runners are dataset-agnostic: they take any [`GameSpec`] (Rea A from
//! `emrsim`, Rea B from `creditsim`, or anything else), merge its
//! strategically identical actions, and sweep the audit budget, producing
//! the proposed-model series (one [`OapSolver`] CGGS solve per ISHM step
//! size) alongside the three baseline series.

use crate::defaults::RANDOM_ORDER_SAMPLES;
use audit_game::baselines::{greedy_by_benefit_loss, random_orders_loss, random_thresholds_loss};
use audit_game::cggs::Cggs;
use audit_game::detection::{DetectionEstimator, DetectionModel};
use audit_game::error::GameError;
use audit_game::model::GameSpec;
use audit_game::parallel::parallel_map_indexed;
use audit_game::solver::{InnerKind, OapSolver, SolverConfig};

/// All series of one figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// The swept budgets.
    pub budgets: Vec<f64>,
    /// ε values of the proposed-model series.
    pub epsilons: Vec<f64>,
    /// `proposed[k][i]`: loss of the proposed model with ε = `epsilons[k]`
    /// at budget `budgets[i]`.
    pub proposed: Vec<Vec<f64>>,
    /// Audit-with-random-orders baseline per budget.
    pub random_orders: Vec<f64>,
    /// Audit-with-random-thresholds baseline per budget.
    pub random_thresholds: Vec<f64>,
    /// Audit-based-on-benefit baseline per budget.
    pub greedy_benefit: Vec<f64>,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// ISHM step sizes for the proposed-model series.
    pub epsilons: Vec<f64>,
    /// Monte-Carlo samples for `Pal`.
    pub n_samples: usize,
    /// Seed for sample banks and baseline randomness.
    pub seed: u64,
    /// Repetitions of the random-threshold baseline.
    pub random_threshold_repeats: usize,
    /// How many budgets are swept at once, each on one engine thread.
    /// Results do not depend on it.
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            epsilons: vec![0.1, 0.2, 0.3],
            n_samples: 400,
            seed: 0,
            random_threshold_repeats: 100,
            threads: 1,
        }
    }
}

/// Per-budget result bundle (all series at one budget).
#[derive(Debug, Clone)]
struct BudgetPoint {
    proposed: Vec<f64>,
    random_orders: f64,
    random_thresholds: f64,
    greedy_benefit: f64,
}

/// Run the full sweep of one figure on `base` with its identical actions
/// merged, `config.threads` budgets at a time.
pub fn budget_sweep(
    base: &GameSpec,
    budgets: &[f64],
    config: &SweepConfig,
) -> Result<FigureData, GameError> {
    let spec0 = base.dedup_actions();
    let points: Vec<BudgetPoint> = parallel_map_indexed(config.threads, budgets, |_, &b| {
        one_budget(&spec0, b, config)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(FigureData {
        budgets: budgets.to_vec(),
        epsilons: config.epsilons.clone(),
        proposed: (0..config.epsilons.len())
            .map(|k| points.iter().map(|p| p.proposed[k]).collect())
            .collect(),
        random_orders: points.iter().map(|p| p.random_orders).collect(),
        random_thresholds: points.iter().map(|p| p.random_thresholds).collect(),
        greedy_benefit: points.iter().map(|p| p.greedy_benefit).collect(),
    })
}

fn one_budget(
    spec0: &GameSpec,
    budget: f64,
    config: &SweepConfig,
) -> Result<BudgetPoint, GameError> {
    let mut spec = spec0.clone();
    spec.budget = budget;
    let mut proposed = Vec::with_capacity(config.epsilons.len());
    let mut reference_thresholds: Option<Vec<f64>> = None;
    for &epsilon in &config.epsilons {
        let sol = OapSolver::new(SolverConfig {
            epsilon,
            n_samples: config.n_samples,
            seed: config.seed,
            inner: InnerKind::Cggs,
            dedup_actions: false,
            ..Default::default()
        })
        .solve(&spec)?;
        if reference_thresholds.is_none() {
            reference_thresholds = Some(sol.policy.thresholds);
        }
        proposed.push(sol.loss);
    }

    let bank = spec.sample_bank(config.n_samples, config.seed);
    let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
    // The random-order baseline audits with the first ε's thresholds, as in
    // the paper ("we adopt the thresholds out of the proposed model with
    // ε=0.1").
    let random_orders = random_orders_loss(
        &spec,
        &est,
        &reference_thresholds.expect("at least one epsilon"),
        RANDOM_ORDER_SAMPLES,
        config.seed ^ 0x5EED,
    )?;
    let random_thresholds = random_thresholds_loss(
        &spec,
        &est,
        &Cggs::default(),
        config.random_threshold_repeats,
        config.seed ^ 0xA11E,
    )?;
    let greedy_benefit = greedy_by_benefit_loss(&spec, &est)?;

    Ok(BudgetPoint {
        proposed,
        random_orders,
        random_thresholds,
        greedy_benefit,
    })
}

/// Render a figure as one table: budget column plus one column per series.
pub fn render_figure(data: &FigureData) -> String {
    let mut header: Vec<String> = vec!["B".into()];
    for &e in &data.epsilons {
        header.push(format!("proposed(eps={e})"));
    }
    header.push("random-thresholds".into());
    header.push("random-orders".into());
    header.push("greedy-benefit".into());
    let mut t = crate::report::Table::new(header);
    for (i, &b) in data.budgets.iter().enumerate() {
        let mut row: Vec<String> = vec![format!("{b}")];
        for series in &data.proposed {
            row.push(crate::report::f4(series[i]));
        }
        row.push(crate::report::f4(data.random_thresholds[i]));
        row.push(crate::report::f4(data.random_orders[i]));
        row.push(crate::report::f4(data.greedy_benefit[i]));
        t.row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit_game::datasets::{random_game, RandomGameConfig};

    #[test]
    fn sweep_produces_dominating_proposed_series() {
        let cfg = RandomGameConfig {
            allow_opt_out: true,
            budget: 0.0, // overridden by the sweep
            ..Default::default()
        };
        let spec = random_game(&cfg, 2);
        let sweep = SweepConfig {
            epsilons: vec![0.2],
            n_samples: 60,
            random_threshold_repeats: 8,
            ..Default::default()
        };
        let budgets = [2.0, 8.0];
        let data = budget_sweep(&spec, &budgets, &sweep).unwrap();

        for i in 0..budgets.len() {
            let p = data.proposed[0][i];
            assert!(
                p <= data.random_orders[i] + 1e-6,
                "budget {i}: proposed {p} > random orders {}",
                data.random_orders[i]
            );
            assert!(p <= data.random_thresholds[i] + 1e-6);
            assert!(p <= data.greedy_benefit[i] + 1e-6);
        }
        // More budget can't hurt the proposed auditor.
        assert!(data.proposed[0][1] <= data.proposed[0][0] + 1e-6);
        // Rendering includes every series column.
        let s = render_figure(&data);
        assert!(s.contains("greedy-benefit"));
        assert!(s.lines().count() == 2 + budgets.len());
    }
}
