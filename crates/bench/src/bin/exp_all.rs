//! Run every experiment back to back (the full EXPERIMENTS.md
//! regeneration), then sweep the whole scenario registry.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_all [--quick]
//! ```
//!
//! `--quick` shrinks grids so the whole suite finishes in a few minutes on
//! one core — useful as a smoke test; drop it for the full paper grids.
//! The penultimate phase iterates `alert_audit::scenario::registry()` and
//! solves every scenario end to end (ISHM+CGGS at its suggested ε),
//! printing one loss per registry key — the quick "every workload still
//! flows" check. The final phase runs the online runtime (`exp_online`) on
//! the drifting `syn-seasonal` scenario for a short multi-epoch window and
//! prints its telemetry summary.

use audit_bench::cli::{host_cores, refuse_unread, take_flag};
use audit_bench::scenarios::{registry_sweep, render_sweep};
use std::process::Command;

fn run(bin: &str, args: &[&str]) {
    eprintln!("\n=== {bin} {} ===", args.join(" "));
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let status = Command::new(dir.join(bin))
        .args(args)
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(status.success(), "{bin} failed");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = take_flag(&mut args, "--quick");
    refuse_unread(&args, 0);
    if quick {
        let b = "2,8,14,20";
        let e = "0.1,0.3,0.5";
        run("exp_table3", &[b]);
        run("exp_table4", &[b, e]);
        run("exp_table5", &[b, e]);
        run("exp_table6", &[b, e]);
        run("exp_table7", &[b, e]);
        run("exp_exploration", &[b, e]);
        run("exp_fig1", &["20,60,100"]);
        run("exp_fig2", &["10,130,250"]);
        run("exp_hardness", &["8"]);
    } else {
        run("exp_table3", &[]);
        run("exp_table4", &[]);
        run("exp_table5", &[]);
        run("exp_table6", &[]);
        run("exp_table7", &[]);
        run("exp_exploration", &[]);
        run("exp_fig1", &[]);
        run("exp_fig2", &[]);
        run("exp_hardness", &[]);
    }

    let samples = if quick { 60 } else { 200 };
    eprintln!("\n=== scenario registry sweep ({samples} samples) ===");
    let rows = registry_sweep(samples, host_cores()).expect("registry sweep solves");
    println!("{}", render_sweep(&rows));

    // Online runtime on the drifting scenario: a short epoch loop with
    // drift-gated warm re-solving and the cold-solve comparison.
    let online_epochs = if quick { "8" } else { "24" };
    run(
        "exp_online",
        &[
            online_epochs,
            "--scenario",
            "syn-seasonal",
            "--compare-cold",
        ],
    );
    eprintln!("\nall experiments completed");
}
