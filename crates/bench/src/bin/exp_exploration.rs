//! Experiment E6 — Section IV.C exploration summary: the `T` vector (mean
//! thresholds explored per ε over the budget grid) and the `T'` ratio
//! against the exhaustive lattice of 7680 vectors.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_exploration [budgets] [epsilons] [samples] [threads] [--scenario <key>]
//! ```

use audit_bench::cli::{default_threads, parse_count, parse_list, take_scenario_flag};
use audit_bench::defaults::{SEED, SYN_BUDGETS, SYN_EPSILONS, SYN_SAMPLES};
use audit_bench::report::Table;
use audit_bench::scenarios::resolve_base_spec;
use audit_bench::syn_experiments::{exploration_summary, ishm_grid};
use audit_game::solver::InnerKind;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = take_scenario_flag(&mut args);
    let budgets = parse_list(args.first().cloned(), &SYN_BUDGETS);
    let epsilons = parse_list(args.get(1).cloned(), &SYN_EPSILONS);
    let samples = parse_count(args.get(2).cloned(), SYN_SAMPLES);
    let threads = parse_count(args.get(3).cloned(), default_threads());
    let (key, base) = resolve_base_spec(scenario, "syn-a", SEED);
    eprintln!("Section IV.C exploration vectors T and T' on {key}");
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
    let summary = exploration_summary(&base, &grid);

    let mut table = Table::new(vec!["eps", "T (mean explored)", "T' (ratio of lattice)"]);
    for (eps, mean, ratio) in summary {
        table.row(vec![
            format!("{eps}"),
            format!("{mean:.0}"),
            format!("{ratio:.4}"),
        ]);
    }
    println!("{}", table.render());
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
