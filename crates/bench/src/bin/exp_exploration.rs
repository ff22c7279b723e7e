//! Experiment E6 — Section IV.C exploration summary: the `T` vector (mean
//! thresholds explored per ε over the budget grid) and the `T'` ratio
//! against the exhaustive lattice of 7680 vectors.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_exploration [budgets] [epsilons] [samples] [threads] [--scenario <key>]
//! ```

use audit_bench::cli::grid_args;
use audit_bench::defaults::SYN_EPSILONS;
use audit_bench::report::Table;
use audit_bench::syn_experiments::{exploration_summary, ishm_grid};
use audit_game::solver::InnerKind;

fn main() {
    let (key, grid) = grid_args(std::env::args().skip(1).collect(), &SYN_EPSILONS);
    eprintln!("Section IV.C exploration vectors T and T' on {key}");
    let t0 = std::time::Instant::now();
    let cells = ishm_grid(&grid, InnerKind::Exact).expect("grid").0;
    let summary = exploration_summary(&grid.base, &cells);

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
