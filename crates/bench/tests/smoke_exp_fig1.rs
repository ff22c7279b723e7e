//! End-to-end smoke test: the `exp_fig1` experiment binary (Rea A budget
//! sweep with baselines) must run on a tiny configuration — one budget, few
//! Monte-Carlo samples, two random-threshold repetitions — and emit every
//! series column.

use std::process::Command;

#[test]
fn exp_fig1_runs_end_to_end_on_tiny_config() {
    let exe = env!("CARGO_BIN_EXE_exp_fig1");
    let out = Command::new(exe)
        .args(["20", "30", "2", "2"]) // budgets={20}, 30 samples, 2 repeats, width 2
        .output()
        .expect("exp_fig1 spawns");
    assert!(
        out.status.success(),
        "exp_fig1 exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for column in [
        "proposed(eps=0.1)",
        "proposed(eps=0.2)",
        "proposed(eps=0.3)",
        "random-thresholds",
        "random-orders",
        "greedy-benefit",
    ] {
        assert!(
            stdout.contains(column),
            "missing column {column}:\n{stdout}"
        );
    }
    // One data row for the single requested budget.
    assert!(
        stdout.lines().any(|l| l.starts_with("| 20 ")),
        "missing data row for budget 20:\n{stdout}"
    );
}
