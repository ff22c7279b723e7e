//! End-to-end smoke test: the `exp_scale` experiment binary must sweep a
//! tiny types-vs-latency curve through the planner, print the `strategy:`
//! and `latency:` grep lines CI pins, reject unknown scenario keys and
//! malformed type lists, and emit a parseable single-document JSON curve.

use std::process::Command;

#[test]
fn exp_scale_sweeps_a_tiny_curve_with_grep_lines() {
    let exe = env!("CARGO_BIN_EXE_exp_scale");
    let out = Command::new(exe)
        .args(["4,14", "24"])
        .output()
        .expect("exp_scale spawns");
    assert!(
        out.status.success(),
        "exp_scale exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One strategy and one latency line per instance, and the planner
    // must have picked the exact tier at 4 types and a decomposition at
    // 14 (past the full-ISHM gate).
    assert!(stdout.contains("strategy: n=4 exact"), "{stdout}");
    assert!(
        stdout.contains("strategy: n=14 decomposed(clusters="),
        "{stdout}"
    );
    assert_eq!(stdout.matches("latency: n=").count(), 2, "{stdout}");
    assert!(stdout.contains("solve_ms="), "{stdout}");
}

#[test]
fn exp_scale_runs_a_registry_scenario_instead_of_the_sweep() {
    let exe = env!("CARGO_BIN_EXE_exp_scale");
    let out = Command::new(exe)
        .args(["--scenario", "syn-a", "5,10", "24"])
        .output()
        .expect("exp_scale spawns");
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // --scenario replaces the sweep: exactly one instance, at syn-a's
    // conformance width.
    assert_eq!(stdout.matches("latency: n=").count(), 1, "{stdout}");
    assert!(stdout.contains("strategy: n=4 exact"), "{stdout}");
    assert!(stdout.contains("syn-a"), "{stdout}");
}

#[test]
fn exp_scale_rejects_an_unknown_scenario_key() {
    let exe = env!("CARGO_BIN_EXE_exp_scale");
    let out = Command::new(exe)
        .args(["--scenario", "no-such-scenario"])
        .output()
        .expect("exp_scale spawns");
    assert!(!out.status.success(), "unknown scenario must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no-such-scenario"),
        "error should name the bad key:\n{stderr}"
    );
}

#[test]
fn exp_scale_rejects_a_malformed_types_list() {
    let exe = env!("CARGO_BIN_EXE_exp_scale");
    let out = Command::new(exe)
        .args(["4.5,10"])
        .output()
        .expect("exp_scale spawns");
    assert!(!out.status.success(), "fractional type count must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("integers"),
        "error should explain the constraint:\n{stderr}"
    );
}

#[test]
fn exp_scale_json_is_a_single_parseable_curve_document() {
    let exe = env!("CARGO_BIN_EXE_exp_scale");
    let out = Command::new(exe)
        .args(["4,14", "24", "--json"])
        .output()
        .expect("exp_scale spawns");
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = alert_audit::json::Value::parse(&stdout).expect("stdout is one JSON document");
    let curve = doc
        .get("curve")
        .and_then(alert_audit::json::Value::as_arr)
        .expect("curve array");
    assert_eq!(curve.len(), 2);
    for point in curve {
        for field in ["n_types", "loss", "thresholds_explored", "solve_ms"] {
            assert!(
                point
                    .get(field)
                    .and_then(alert_audit::json::Value::as_f64)
                    .is_some(),
                "point lacks numeric {field}: {stdout}"
            );
        }
        assert!(point
            .get("strategy")
            .and_then(alert_audit::json::Value::as_str)
            .is_some());
    }
    // The grep lines stay on stderr in JSON mode, keeping stdout pure.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("strategy: n="), "{stderr}");
}
