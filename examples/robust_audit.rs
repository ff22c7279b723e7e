//! Robustness workbench: the extensions from the paper's discussion
//! section, exercised on Syn A — bounded rationality (quantal response),
//! general-sum damage accounting, parameter sensitivity, and empirical
//! validation of the analytic loss by multi-period simulation.
//!
//! ```text
//! cargo run --release --example robust_audit
//! ```

use alert_audit::game::detection::{DetectionEstimator, DetectionModel};
use alert_audit::game::execute::AuditPolicy;
use alert_audit::game::general_sum::{damage_under_mixture, DamageModel};
use alert_audit::game::ordering::AuditOrder;
use alert_audit::game::payoff::PayoffMatrix;
use alert_audit::game::quantal::{solve_qr_thresholds, QuantalResponse};
use alert_audit::game::sensitivity::{sweep, Parameter, SensitivityConfig};
use alert_audit::game::simulation::simulate_policy;
use alert_audit::prelude::*;

fn main() {
    // The registry's Syn A game, pushed to budget 8 for this workbench.
    let mut spec = alert_audit::scenario::registry()
        .build("syn-a", 0)
        .expect("registered scenario");
    spec.budget = 8.0;
    let bank = spec.sample_bank(500, 11);
    let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);

    // ------------------------------------------------------------------
    // 1. Solve the standard (rational, zero-sum) game.
    // ------------------------------------------------------------------
    let solution = OapSolver::new(SolverConfig {
        epsilon: 0.1,
        n_samples: 500,
        seed: 11,
        ..Default::default()
    })
    .solve(&spec)
    .expect("solves");
    println!("rational zero-sum loss:   {:+.4}", solution.loss);

    // ------------------------------------------------------------------
    // 2. Validate the analytic loss empirically: 20k simulated periods.
    // ------------------------------------------------------------------
    let policy = AuditPolicy::new(
        solution.policy.thresholds.clone(),
        solution.policy.orders.clone(),
        solution.policy.probs.clone(),
    );
    let report = simulate_policy(&spec, &policy, &est, 20_000, 5);
    println!(
        "simulated loss:           {:+.4} (±{:.4} se), detection rate {:.1}%",
        report.mean_loss,
        report.loss_std / (report.n_periods as f64).sqrt(),
        100.0 * report.detection_rate()
    );

    // ------------------------------------------------------------------
    // 3. Boundedly rational attackers: how much does the worst-case policy
    //    leave on the table against logit attackers?
    // ------------------------------------------------------------------
    println!("\nquantal-response attackers (λ sweep):");
    for lambda in [0.0, 0.5, 2.0, 10.0] {
        let out =
            solve_qr_thresholds(&spec, &est, QuantalResponse::new(lambda), 0.25).expect("solves");
        println!("  λ = {lambda:>4}: optimized QR loss {:+.4}", out.value);
    }

    // ------------------------------------------------------------------
    // 4. General-sum view: organizational damage ≠ attacker utility.
    // ------------------------------------------------------------------
    let matrix = PayoffMatrix::build(
        &spec,
        &est,
        AuditOrder::enumerate_all(4),
        &solution.policy.thresholds,
    );
    let master = alert_audit::game::master::MasterSolver::solve(&spec, &matrix).expect("solves");
    for (label, model) in [
        ("zero-sum-equivalent", DamageModel::default()),
        (
            "fines dwarf gains  ",
            DamageModel {
                damage_per_reward: 4.0,
                recovery_per_penalty: 0.5,
            },
        ),
    ] {
        let d = damage_under_mixture(&spec, &matrix, &master.p_orders, &model);
        println!("general-sum damage ({label}): {d:+.4}");
    }

    // ------------------------------------------------------------------
    // 5. Sensitivity: how does the value move with the payoff guesses?
    // ------------------------------------------------------------------
    println!("\nsensitivity of the solved loss (scale × base parameter):");
    for param in [Parameter::Reward, Parameter::Penalty, Parameter::Budget] {
        let curve = sweep(
            &spec,
            param,
            &SensitivityConfig {
                scales: vec![0.5, 1.0, 2.0],
                epsilon: 0.25,
                n_samples: 300,
                seed: 11,
            },
        )
        .expect("sweep solves");
        let values: Vec<String> = curve
            .iter()
            .map(|p| format!("{}x → {:+.2}", p.scale, p.loss))
            .collect();
        println!("  {param:?}: {}", values.join(", "));
    }
}
