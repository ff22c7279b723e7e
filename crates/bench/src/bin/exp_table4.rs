//! Experiment E2 — paper Table IV: ISHM (exact inner LP) approximation of
//! the optimum across budgets B ∈ {2..20} and step sizes ε ∈ {0.05..0.5}.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_table4 [budgets] [epsilons] [samples] [threads] \
//!     [--scenario <key>] [--cache-stats]
//! ```
//!
//! `threads` sets how many cells are solved at once (default: the host's
//! available cores; the width never changes the numbers).
//! `--cache-stats` prints the detection engine's aggregate hit/miss/
//! eviction and trie-sharing counters after the run.

use audit_bench::cli::{grid_args, render_cache_stats, take_flag};
use audit_bench::defaults::SYN_EPSILONS;
use audit_bench::report::render_grid;
use audit_bench::syn_experiments::ishm_grid;
use audit_game::solver::InnerKind;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cache_stats = take_flag(&mut args, "--cache-stats");
    let (key, grid) = grid_args(args, &SYN_EPSILONS);
    eprintln!(
        "Table IV reproduction on {key}: ISHM with exact inner LP ({} samples, {} worker(s))",
        grid.n_samples, grid.threads
    );
    let t0 = std::time::Instant::now();
    let (cells, engine_stats) = ishm_grid(&grid, InnerKind::Exact).expect("ISHM grid");
    println!(
        "{}",
        render_grid(&cells, &grid.epsilons, &grid.base.audit_costs())
    );
    if cache_stats {
        println!("{}", render_cache_stats(&engine_stats));
    }
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
