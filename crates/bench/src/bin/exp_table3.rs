//! Experiment E1 — paper Table III: the optimal OAP solution on Syn A for
//! budgets 2..=20, found by exhaustive threshold search + exact master LP.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_table3 [budgets] [samples] [threads] [--scenario <key>]
//! ```
//!
//! `budgets` is a comma-separated list (default: the paper's 2..=20 grid);
//! `samples` overrides the Monte-Carlo sample count (default: 1000);
//! `threads` sets how many budgets are solved at once, each on one engine
//! thread (default: the host's available cores — the width never changes
//! the numbers, only the wall clock); `--scenario` swaps the base game for
//! any registry scenario (default `syn-a`; brute force is only tractable
//! for small threshold lattices).

use audit_bench::cli::{host_cores, parse_count, parse_list, refuse_unread, take_scenario_flag};
use audit_bench::defaults::{SEED, SYN_BUDGETS, SYN_SAMPLES};
use audit_bench::report::{f4, support_str, thresholds_str, Table};
use audit_bench::scenarios::resolve_base_spec;
use audit_bench::syn_experiments::table3;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = take_scenario_flag(&mut args);
    refuse_unread(&args, 3);
    let budgets = parse_list(args.first().cloned(), &SYN_BUDGETS);
    let samples = parse_count(args.get(1).cloned(), SYN_SAMPLES);
    let threads = parse_count(args.get(2).cloned(), host_cores());
    let (key, base) = resolve_base_spec(scenario, "syn-a", SEED);

    eprintln!(
        "Table III reproduction: {key} brute force, {samples} samples, seed {SEED}, {threads} worker(s)"
    );
    let t0 = std::time::Instant::now();
    let rows = table3(&base, &budgets, samples, SEED, threads).expect("brute force solves");
    let costs = base.audit_costs();

    let mut table = Table::new(vec![
        "ID",
        "Budget",
        "Optimal Objective Value",
        "Optimal Threshold",
        "Optimal Mixed Strategy (support)",
        "Explored/Lattice",
    ]);
    for (i, row) in rows.iter().enumerate() {
        table.row(vec![
            format!("{}", i + 1),
            format!("{}", row.budget),
            f4(row.value),
            thresholds_str(&row.thresholds, &costs),
            support_str(&row.orders, &row.probs, 1e-3),
            format!("{}/{}", row.explored, row.space_size),
        ]);
    }
    println!("{}", table.render());
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
