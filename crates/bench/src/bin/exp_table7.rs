//! Experiment E5 — paper Table VII: number of threshold vectors ISHM
//! explores per (B, ε).
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_table7 [budgets] [epsilons] [samples] [threads] [--scenario <key>]
//! ```

use audit_bench::cli::grid_args;
use audit_bench::defaults::SYN_EPSILONS_T7;
use audit_bench::report::Table;
use audit_bench::syn_experiments::ishm_grid;
use audit_game::solver::InnerKind;

fn main() {
    let (key, grid) = grid_args(std::env::args().skip(1).collect(), &SYN_EPSILONS_T7);
    eprintln!("Table VII reproduction on {key}: ISHM exploration counters");
    let t0 = std::time::Instant::now();
    let cells = ishm_grid(&grid, InnerKind::Exact).expect("grid").0;

    // Paper layout: rows = ε, columns = B.
    let mut header: Vec<String> = vec!["eps \\ B".into()];
    header.extend(grid.budgets.iter().map(|b| format!("{b}")));
    let mut table = Table::new(header);
    for (e, &eps) in grid.epsilons.iter().enumerate() {
        let mut row: Vec<String> = vec![format!("{eps}")];
        for row_cells in &cells {
            row.push(format!("{}", row_cells[e].explored));
        }
        table.row(row);
    }
    println!("{}", table.render());
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
