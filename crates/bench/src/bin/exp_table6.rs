//! Experiment E4 — paper Table VI: average precision γ of ISHM (γ¹) and
//! ISHM+CGGS (γ²) against the brute-force optimum, per step size ε.
//!
//! Runs Table III + Table IV + Table V internally and reports
//! `γ_ε = 1 − mean_B |Ŝ(B,ε) − S(B)| / |S(B)|`.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_table6 [budgets] [epsilons] [samples] [threads] [--scenario <key>]
//! ```

use audit_bench::cli::grid_args;
use audit_bench::defaults::SYN_EPSILONS;
use audit_bench::report::Table;
use audit_bench::syn_experiments::{gamma_per_epsilon, ishm_grid, table3};
use audit_game::solver::InnerKind;

fn main() {
    let (_, grid) = grid_args(std::env::args().skip(1).collect(), &SYN_EPSILONS);
    let t0 = std::time::Instant::now();

    eprintln!("[1/3] brute-force optimum (Table III)");
    let optimal = table3(
        &grid.base,
        &grid.budgets,
        grid.n_samples,
        grid.seed,
        grid.threads,
    )
    .expect("table3");
    let solve = |inner| ishm_grid(&grid, inner).expect("grid").0;
    eprintln!("[2/3] ISHM grid (Table IV)");
    let grid_exact = solve(InnerKind::Exact);
    eprintln!("[3/3] ISHM+CGGS grid (Table V)");
    let grid_cggs = solve(InnerKind::Cggs);

    let g1 = gamma_per_epsilon(&optimal, &grid_exact);
    let g2 = gamma_per_epsilon(&optimal, &grid_cggs);

    let mut header: Vec<String> = vec!["eps".into()];
    header.extend(grid.epsilons.iter().map(|e| format!("{e}")));
    let mut table = Table::new(header);
    let mut row1: Vec<String> = vec!["gamma1 (ISHM)".into()];
    row1.extend(g1.iter().map(|g| format!("{g:.4}")));
    table.row(row1);
    let mut row2: Vec<String> = vec!["gamma2 (ISHM+CGGS)".into()];
    row2.extend(g2.iter().map(|g| format!("{g:.4}")));
    table.row(row2);
    println!("{}", table.render());
    eprintln!("elapsed: {:.1?}", t0.elapsed());
}
