//! End-to-end smoke test: the `exp_online` driver (online runtime loop)
//! must run a short simulation, emit the telemetry table, fingerprint,
//! and summary counters, produce identical fingerprints across reruns
//! and with the cold comparison, and reject unknown scenarios and wide
//! scenarios its default inner solver cannot solve.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp_online"))
        .args(args)
        .output()
        .expect("exp_online spawns")
}

fn fingerprint_of(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("telemetry fingerprint: "))
        .unwrap_or_else(|| panic!("missing fingerprint line:\n{stdout}"))
        .to_string()
}

#[test]
fn exp_online_runs_a_short_simulation_end_to_end() {
    let out = run(&["4", "--scenario", "syn-seasonal"]);
    assert!(
        out.status.success(),
        "exp_online exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["epoch", "maxKS", "resolves:", "periods/sec:"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
    // Four epoch rows.
    for e in 0..4 {
        assert!(
            stdout.lines().any(|l| l.starts_with(&format!("| {e} "))),
            "missing epoch row {e}:\n{stdout}"
        );
    }
    fingerprint_of(&stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("scenario syn-seasonal"),
        "stderr should echo the resolved scenario:\n{stderr}"
    );
}

#[test]
fn exp_online_fingerprint_is_rerun_invariant() {
    let base = run(&["3", "--scenario", "syn-seasonal"]);
    assert!(base.status.success());
    let fp = fingerprint_of(&String::from_utf8_lossy(&base.stdout));
    // The cold comparison runs outside the service, so it must not move
    // the fingerprint either.
    let inputs: [&[&str]; 2] = [
        &["3", "--scenario", "syn-seasonal"],
        &["3", "--scenario", "syn-seasonal", "--compare-cold"],
    ];
    for args in inputs {
        let again = run(args);
        assert!(again.status.success());
        assert_eq!(
            fp,
            fingerprint_of(&String::from_utf8_lossy(&again.stdout)),
            "fingerprint changed for args {args:?}"
        );
    }
}

#[test]
fn exp_online_json_mode_emits_a_parseable_document() {
    let out = run(&["3", "--json", "--compare-cold"]);
    assert!(out.status.success());
    // In --json mode the whole of stdout is one document (the summary
    // lines move to stderr), so `--json > file.json` yields valid JSON.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = alert_audit::json::Value::parse(stdout.trim()).expect("valid JSON");
    assert_eq!(
        doc.get("scenario").unwrap().as_str().unwrap(),
        "syn-seasonal"
    );
    assert_eq!(doc.get("epochs").unwrap().as_f64().unwrap(), 3.0);
    assert_eq!(doc.get("epoch_log").unwrap().as_arr().unwrap().len(), 3);
}

#[test]
fn exp_online_rejects_unknown_scenario_with_key_list() {
    let out = run(&["3", "--scenario", "no-such-scenario"]);
    assert!(!out.status.success(), "unknown scenario must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no-such-scenario") && stderr.contains("syn-seasonal"),
        "error should name the bad key and list known keys:\n{stderr}"
    );
}

#[test]
fn exp_online_cache_stats_flag_reports_engine_counters() {
    let out = run(&["3", "--scenario", "syn-seasonal", "--cache-stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("engine cache: hits=") && stdout.contains("engine trie:"),
        "missing engine counters:\n{stdout}"
    );
    // The counters are deterministic (they count evaluation structure, not
    // wall clock), so a rerun reports the same lines.
    let again = run(&["3", "--scenario", "syn-seasonal", "--cache-stats"]);
    let a: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("engine "))
        .collect();
    let bs = String::from_utf8_lossy(&again.stdout).to_string();
    let b: Vec<&str> = bs.lines().filter(|l| l.starts_with("engine ")).collect();
    assert_eq!(a, b, "engine counters must be deterministic");
    // Without the flag they are absent.
    let plain = run(&["3", "--scenario", "syn-seasonal"]);
    assert!(!String::from_utf8_lossy(&plain.stdout).contains("engine cache:"));
}

#[test]
fn exp_online_refuses_a_wide_scenario_under_the_default_inner() {
    // The default inner, CGGS, would run ISHM's uncapped search over 25
    // types for minutes; the cold start refuses the spec instead. The
    // child is killed past the deadline, so a regression fails here
    // rather than hanging the suite.
    let deadline = Duration::from_secs(30);
    let start = Instant::now();
    let mut child = Command::new(env!("CARGO_BIN_EXE_exp_online"))
        .args(["6", "--scenario", "syn-wide25"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("exp_online spawns");
    let status = loop {
        if let Some(status) = child.try_wait().expect("exp_online is waitable") {
            break status;
        }
        if start.elapsed() > deadline {
            child.kill().expect("exp_online is killable");
            child.wait().expect("killed exp_online is reaped");
            panic!("exp_online still ran after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    assert!(
        !status.success(),
        "exp_online accepted syn-wide25:\n{stderr}"
    );
    assert!(
        stderr.contains("ISHM_FULL_MAX_TYPES") && stderr.contains("InnerKind::Auto"),
        "the refusal should name the limit and the inner to use:\n{stderr}"
    );
}
