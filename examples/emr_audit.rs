//! EMR privacy-audit scenario (the paper's Rea A use case, end to end):
//! simulate a hospital's access logs, fit alert-count models, solve the
//! audit game, and compare the policy against the naive baselines.
//!
//! ```text
//! cargo run --release --example emr_audit
//! ```

use alert_audit::game::baselines::{greedy_by_benefit_loss, random_orders_loss};
use alert_audit::game::detection::{DetectionEstimator, DetectionModel};
use alert_audit::game::solver::{InnerKind, OapSolver, SolverConfig};

fn main() {
    // 1. Resolve the Rea A scenario from the registry: it simulates the
    //    hospital + 28 days of access logs and assembles the game
    //    (50 employees × 50 patients; see emrsim::scenario).
    let registry = alert_audit::scenario::registry();
    let scenario = registry.get("emr-reaa").expect("registered").clone();
    let mut spec = scenario.build(42).expect("Rea A builds");
    spec.budget = 40.0;

    // The scenario's native alert stream is the simulated daily workload;
    // its per-type means reproduce the shape of paper Table VIII.
    let stream = scenario.alert_stream(42, 28).expect("simulates");
    println!("simulated daily alert counts (cf. paper Table VIII):");
    for t in 0..spec.n_types() {
        let mean: f64 = stream.iter().map(|row| row[t] as f64).sum::<f64>() / stream.len() as f64;
        println!("  {:<38} mean {:>7.2}", spec.alert_types[t].name, mean);
    }

    // 2. Solve with ISHM + CGGS (7 types → 5040 orderings, so column
    //    generation is the only viable inner solver).
    let working = spec.dedup_actions();
    let solution = OapSolver::new(SolverConfig {
        epsilon: 0.2,
        n_samples: 400,
        seed: 1,
        inner: InnerKind::Cggs,
        dedup_actions: false,
        ..Default::default()
    })
    .solve(&working)
    .expect("ISHM solves");

    println!("\ngame-theoretic audit policy @ budget {}:", working.budget);
    println!("  auditor loss: {:.2}", solution.loss);
    for (t, b) in solution.policy.thresholds.iter().enumerate() {
        println!("  {:<38} threshold {:>4.0}", working.alert_types[t].name, b);
    }
    println!(
        "  mixture support: {} orders",
        solution
            .master
            .p_orders
            .iter()
            .filter(|&&p| p > 1e-4)
            .count()
    );

    // 3. Baselines for context (Figure 1's comparison), on the solver's
    //    sample bank.
    let bank = working.sample_bank(400, 1);
    let est = DetectionEstimator::new(&working, &bank, DetectionModel::PaperApprox);
    let rnd_orders =
        random_orders_loss(&working, &est, &solution.policy.thresholds, 500, 3).expect("baseline");
    let greedy = greedy_by_benefit_loss(&working, &est).expect("baseline");
    println!("\nbaseline losses:");
    println!("  random audit order:      {rnd_orders:.2}");
    println!("  greedy by benefit:       {greedy:.2}");
    println!(
        "  game-theoretic policy:   {:.2}  (lower is better)",
        solution.loss
    );

    // 4. How many attackers are deterred outright?
    let deterred = solution
        .master
        .u_attackers
        .iter()
        .filter(|&&u| u <= 1e-6)
        .count();
    println!(
        "\n{deterred} of {} potential attackers are fully deterred",
        working.n_attackers()
    );
}
