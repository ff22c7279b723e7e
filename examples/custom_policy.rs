//! Advanced usage: alternative detection models and the NP-hardness
//! reduction as a worked object.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use alert_audit::game::cggs::Cggs;
use alert_audit::game::detection::{DetectionEstimator, DetectionModel};
use alert_audit::game::hardness::{knapsack_to_oap, solve_knapsack, KnapsackInstance};

fn main() {
    // Base game: the registry's `syn-a-b6`.
    let spec = alert_audit::scenario::registry()
        .build("syn-a-b6", 0)
        .expect("registered scenario");
    let bank = spec.sample_bank(400, 3);
    let thresholds = vec![2.0, 2.0, 2.0, 2.0];

    // ------------------------------------------------------------------
    // 1. Detection-model sensitivity: the paper's approximation vs the
    //    attack-inclusive and operational-recourse variants.
    // ------------------------------------------------------------------
    println!("Syn A @ B=6, thresholds [2,2,2,2]: detection-model sensitivity");
    for (name, model) in [
        ("paper approximation", DetectionModel::PaperApprox),
        ("attack-inclusive   ", DetectionModel::AttackInclusive),
        ("operational recourse", DetectionModel::Operational),
    ] {
        let est = DetectionEstimator::new(&spec, &bank, model);
        let out = Cggs::default()
            .solve(&spec, &est, &thresholds)
            .expect("solves");
        println!("  {name}: loss {:.4}", out.master.value);
    }

    // ------------------------------------------------------------------
    // 2. Theorem 1 as code: a knapsack instance and its OAP twin.
    // ------------------------------------------------------------------
    let inst = KnapsackInstance::new(vec![2, 3, 4, 5], vec![3, 4, 5, 6], 5);
    let dp = solve_knapsack(&inst);
    let oap = knapsack_to_oap(&inst);
    println!(
        "\nknapsack OPT = {} (items {:?}) → OAP instance with {} attackers, budget {}",
        dp.value,
        dp.items,
        oap.n_attackers(),
        oap.budget
    );
    println!(
        "optimal auditing loss must equal |E| − OPT = {}",
        oap.n_attackers() as u64 - dp.value
    );
}
