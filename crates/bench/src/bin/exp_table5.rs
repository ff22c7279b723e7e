//! Experiment E3 — paper Table V: ISHM with the CGGS column-generation
//! inner solver across the same (B, ε) grid as Table IV.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_table5 [budgets] [epsilons] [samples] [threads] [--scenario <key>]
//! ```

use audit_bench::cli::grid_args;
use audit_bench::defaults::SYN_EPSILONS;
use audit_bench::report::render_grid;
use audit_bench::syn_experiments::ishm_grid;
use audit_game::solver::InnerKind;

fn main() {
    let (key, grid) = grid_args(std::env::args().skip(1).collect(), &SYN_EPSILONS);
    eprintln!(
        "Table V reproduction on {key}: ISHM + CGGS ({} samples, {} worker(s))",
        grid.n_samples, grid.threads
    );
    let t0 = std::time::Instant::now();
    let cells = ishm_grid(&grid, InnerKind::Cggs).expect("ISHM+CGGS grid").0;
    println!(
        "{}",
        render_grid(&cells, &grid.epsilons, &grid.base.audit_costs())
    );
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
