//! Experiment E2 — paper Table IV: ISHM (exact inner LP) approximation of
//! the optimum across budgets B ∈ {2..20} and step sizes ε ∈ {0.05..0.5}.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_table4 [budgets] [epsilons] [samples] [threads] \
//!     [--scenario <key>] [--cache-stats]
//! ```
//!
//! `--cache-stats` prints the detection engine's aggregate hit/miss/
//! eviction and trie-sharing counters after the run.

use audit_bench::cli::{
    default_threads, parse_count, parse_list, render_cache_stats, take_flag, take_scenario_flag,
};
use audit_bench::defaults::{SEED, SYN_BUDGETS, SYN_EPSILONS, SYN_SAMPLES};
use audit_bench::report::render_grid;
use audit_bench::scenarios::resolve_base_spec;
use audit_bench::syn_experiments::ishm_grid;
use audit_game::solver::InnerKind;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = take_scenario_flag(&mut args);
    let cache_stats = take_flag(&mut args, "--cache-stats");
    let budgets = parse_list(args.first().cloned(), &SYN_BUDGETS);
    let epsilons = parse_list(args.get(1).cloned(), &SYN_EPSILONS);
    let samples = parse_count(args.get(2).cloned(), SYN_SAMPLES);
    let threads = parse_count(args.get(3).cloned(), default_threads());
    let (key, base) = resolve_base_spec(scenario, "syn-a", SEED);
    eprintln!(
        "Table IV reproduction on {key}: ISHM with exact inner LP ({samples} samples, {threads} engine thread(s))"
    );
    let t0 = std::time::Instant::now();
    let (grid, engine_stats) = ishm_grid(
        &base,
        &budgets,
        &epsilons,
        InnerKind::Exact,
        samples,
        SEED,
        threads,
    )
    .expect("ISHM grid");
    println!("{}", render_grid(&grid, &epsilons, &base.audit_costs()));
    if cache_stats {
        println!("{}", render_cache_stats(&engine_stats));
    }
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
