//! End-to-end smoke test: the `exp_table4` experiment binary (ISHM grid,
//! exact inner LP) must run on a tiny configuration — one budget, two step
//! sizes, few Monte-Carlo samples, two workers — and emit a well-formed
//! grid.

use std::process::Command;

#[test]
fn exp_table4_runs_end_to_end_on_tiny_config() {
    let exe = env!("CARGO_BIN_EXE_exp_table4");
    let out = Command::new(exe)
        .args(["2", "0.2,0.5", "40", "2"]) // B={2}, eps={0.2,0.5}, 40 samples, width 2
        .output()
        .expect("exp_table4 spawns");
    assert!(
        out.status.success(),
        "exp_table4 exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("eps=0.2") && stdout.contains("eps=0.5"),
        "missing epsilon columns in output:\n{stdout}"
    );
    // One data row for the single requested budget, carrying a threshold
    // vector rendered as [..].
    let row = stdout
        .lines()
        .find(|l| l.starts_with("| 2 "))
        .expect("data row for budget 2");
    assert!(row.contains('['), "row should carry thresholds: {row}");
    // The tiny sample count and the width must be echoed on stderr,
    // proving the knobs are wired through.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("40 samples") && stderr.contains("2 worker(s)"),
        "stderr should echo samples/threads:\n{stderr}"
    );
}

#[test]
fn exp_table4_cache_stats_flag_reports_engine_counters() {
    let exe = env!("CARGO_BIN_EXE_exp_table4");
    let out = Command::new(exe)
        .args(["2", "0.5", "40", "1", "--cache-stats"])
        .output()
        .expect("exp_table4 spawns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("engine cache: hits=") && stdout.contains("evictions="),
        "missing cache counters:\n{stdout}"
    );
    // The trie line must prove column passes were shared relative to the
    // scalar path (the CI perf smoke greps the same invariant).
    let trie = stdout
        .lines()
        .find(|l| l.starts_with("engine trie:"))
        .expect("trie counter line");
    let saved: u64 = trie
        .split("columns_saved=")
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .expect("columns_saved value");
    assert!(saved > 0, "trie sharing not engaged: {trie}");
    // Without the flag the counters must not appear.
    let plain = Command::new(exe)
        .args(["2", "0.5", "40", "1"])
        .output()
        .expect("exp_table4 spawns");
    assert!(!String::from_utf8_lossy(&plain.stdout).contains("engine cache:"));
}
