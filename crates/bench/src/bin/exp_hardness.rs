//! Experiment E9 — the Theorem 1 NP-hardness reduction, executed: random
//! 0-1 knapsack instances are mapped to restricted OAP instances and both
//! sides are solved exactly; the identity `OAP* = |E| − knapsack*` must
//! hold for every instance.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_hardness [n_instances]
//! ```

use audit_bench::cli::refuse_unread;
use audit_bench::report::Table;
use audit_game::hardness::{solve_knapsack, verify_reduction, KnapsackInstance};
use rand::Rng;
use stochastics::seeded_rng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    refuse_unread(&args, 1);
    let n_instances: usize = args
        .first()
        .map(|s| s.parse().expect("instance count"))
        .unwrap_or(25);
    let mut rng = seeded_rng(audit_bench::defaults::SEED);
    let mut table = Table::new(vec![
        "instance",
        "items",
        "capacity",
        "knapsack OPT",
        "|E| - OPT",
        "OAP optimum",
        "identity",
    ]);
    let mut all_ok = true;
    for i in 0..n_instances {
        let n = rng.gen_range(2..=8);
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=6)).collect();
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=5)).collect();
        let capacity = rng.gen_range(1..=weights.iter().sum::<u64>());
        let inst = KnapsackInstance::new(weights, values, capacity);
        let dp = solve_knapsack(&inst);
        let (oap, expected) = verify_reduction(&inst);
        let ok = (oap - expected).abs() < 1e-6;
        all_ok &= ok;
        table.row(vec![
            format!("{i}"),
            format!("{}", inst.n_items()),
            format!("{}", inst.capacity),
            format!("{}", dp.value),
            format!("{expected}"),
            format!("{oap:.4}"),
            if ok {
                "ok".to_string()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    println!("{}", table.render());
    assert!(all_ok, "reduction identity violated");
    eprintln!("all {n_instances} reductions verified");
}
