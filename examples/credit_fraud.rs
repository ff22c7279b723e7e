//! Credit-application fraud-audit scenario (the paper's Rea B use case):
//! synthesize an application portfolio, define screening alerts, and find
//! the budget at which strategic applicants are fully deterred.
//!
//! ```text
//! cargo run --release --example credit_fraud
//! ```

use alert_audit::game::solver::{InnerKind, OapSolver, SolverConfig};

fn main() {
    // Resolve the Rea B scenario from the registry (synthesizes the
    // application portfolio and fits F_t from historical batches).
    let registry = alert_audit::scenario::registry();
    let scenario = registry.get("credit-reab").expect("registered").clone();
    let base_spec = scenario.build(17).expect("Rea B builds");

    println!("fitted alert-count models (cf. paper Table IX):");
    for (t, d) in base_spec.distributions.iter().enumerate() {
        println!(
            "  {:<45} mean {:>7.2}",
            base_spec.alert_types[t].name,
            d.mean()
        );
    }

    // Sweep the audit budget until every applicant prefers honesty.
    println!("\nbudget sweep (loss 0 = complete deterrence):");
    let working = base_spec.dedup_actions();
    let solver = OapSolver::new(SolverConfig {
        epsilon: 0.2,
        n_samples: 300,
        seed: 5,
        inner: InnerKind::Cggs,
        dedup_actions: false,
        ..Default::default()
    });
    for budget in [20.0, 60.0, 100.0, 140.0, 180.0, 220.0, 260.0] {
        let mut spec = working.clone();
        spec.budget = budget;
        let solution = solver.solve(&spec).expect("solves");
        let deterred = solution
            .master
            .u_attackers
            .iter()
            .filter(|&&u| u <= 1e-6)
            .count();
        println!(
            "  B = {budget:>5}: loss {:>9.2}, {deterred:>3}/100 applicants deterred",
            solution.loss
        );
        if solution.loss <= 1e-6 {
            println!("  → full deterrence reached at budget {budget}");
            break;
        }
    }
}
