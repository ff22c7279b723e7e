//! Experiment E5 — paper Table VII: number of threshold vectors ISHM
//! explores per (B, ε).
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_table7 [budgets] [epsilons] [samples] [threads] [--scenario <key>]
//! ```

use audit_bench::cli::{default_threads, parse_count, parse_list, take_scenario_flag};
use audit_bench::defaults::{SEED, SYN_BUDGETS, SYN_EPSILONS_T7, SYN_SAMPLES};
use audit_bench::report::Table;
use audit_bench::scenarios::resolve_base_spec;
use audit_bench::syn_experiments::ishm_grid;
use audit_game::solver::InnerKind;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = take_scenario_flag(&mut args);
    let budgets = parse_list(args.first().cloned(), &SYN_BUDGETS);
    let epsilons = parse_list(args.get(1).cloned(), &SYN_EPSILONS_T7);
    let samples = parse_count(args.get(2).cloned(), SYN_SAMPLES);
    let threads = parse_count(args.get(3).cloned(), default_threads());
    let (key, base) = resolve_base_spec(scenario, "syn-a", SEED);
    eprintln!("Table VII reproduction on {key}: ISHM exploration counters");
    let t0 = std::time::Instant::now();
    let grid = ishm_grid(
        &base,
        &budgets,
        &epsilons,
        InnerKind::Exact,
        samples,
        SEED,
        threads,
    )
    .expect("grid")
    .0;

    // Paper layout: rows = ε, columns = B.
    let mut header: Vec<String> = vec!["eps \\ B".into()];
    header.extend(budgets.iter().map(|b| format!("{b}")));
    let mut table = Table::new(header);
    for (e, &eps) in epsilons.iter().enumerate() {
        let mut row: Vec<String> = vec![format!("{eps}")];
        for row_cells in &grid {
            row.push(format!("{}", row_cells[e].explored));
        }
        table.row(row);
    }
    println!("{}", table.render());
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
