//! Experiment E3 — paper Table V: ISHM with the CGGS column-generation
//! inner solver across the same (B, ε) grid as Table IV.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_table5 [budgets] [epsilons] [samples] [threads] [--scenario <key>]
//! ```

use audit_bench::cli::{default_threads, parse_count, parse_list, take_scenario_flag};
use audit_bench::defaults::{SEED, SYN_BUDGETS, SYN_EPSILONS, SYN_SAMPLES};
use audit_bench::report::render_grid;
use audit_bench::scenarios::resolve_base_spec;
use audit_bench::syn_experiments::ishm_grid;
use audit_game::solver::InnerKind;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = take_scenario_flag(&mut args);
    let budgets = parse_list(args.first().cloned(), &SYN_BUDGETS);
    let epsilons = parse_list(args.get(1).cloned(), &SYN_EPSILONS);
    let samples = parse_count(args.get(2).cloned(), SYN_SAMPLES);
    let threads = parse_count(args.get(3).cloned(), default_threads());
    let (key, base) = resolve_base_spec(scenario, "syn-a", SEED);
    eprintln!(
        "Table V reproduction on {key}: ISHM + CGGS ({samples} samples, {threads} engine thread(s))"
    );
    let t0 = std::time::Instant::now();
    let grid = ishm_grid(
        &base,
        &budgets,
        &epsilons,
        InnerKind::Cggs,
        samples,
        SEED,
        threads,
    )
    .expect("ISHM+CGGS grid")
    .0;
    println!("{}", render_grid(&grid, &epsilons, &base.audit_costs()));
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
