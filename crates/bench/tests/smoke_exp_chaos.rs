//! End-to-end smoke test: the `exp_chaos` driver must run a faulted
//! fleet to completion, report every planned fault and supervisor
//! verdict, prove fault isolation (untouched tenants bit-identical to
//! the fault-free baseline), stay deterministic across reruns and
//! worker counts, and exit non-zero only on isolation violations or a
//! plan it cannot inject.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp_chaos"))
        .args(args)
        .output()
        .expect("exp_chaos spawns")
}

fn line_of<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("missing '{prefix}' line:\n{stdout}"))
}

const PLAN: &str = "syn-a#1:1:solver-panic,syn-a#0:2:budget-exhaust,syn-a#2:1:solve-error";

#[test]
fn exp_chaos_survives_a_fault_plan_and_proves_isolation() {
    let out = run(&["4", "3", "2", "--plan", PLAN]);
    assert!(
        out.status.success(),
        "exp_chaos exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every planned fault is echoed.
    for needle in [
        "fault: tenant=syn-a#1 round=1 site=solver-panic",
        "fault: tenant=syn-a#0 round=2 site=budget-exhaust",
        "fault: tenant=syn-a#2 round=1 site=solve-error",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}':\n{stdout}");
    }
    // The panicked tenant recovered; the degrade ladder left its marks.
    assert!(
        stdout.contains("health: syn-a#1 recovered retries=1"),
        "panicked tenant should recover:\n{stdout}"
    );
    assert!(
        stdout.contains("reason=kept-incumbent"),
        "forced solve error should re-commit the incumbent:\n{stdout}"
    );
    assert!(
        stdout.contains("reason=truncated") || stdout.contains("reason=degraded"),
        "budget exhaustion should degrade the solve:\n{stdout}"
    );
    // Isolation verdict: the untouched tenant matches the baseline.
    assert_eq!(
        line_of(&stdout, "fault isolation: "),
        "fault isolation: identical"
    );
    line_of(&stdout, "health counts: healthy=");
    line_of(&stdout, "fleet fingerprint: ");
}

#[test]
fn exp_chaos_is_deterministic_across_reruns_and_workers() {
    let pin = |args: &[&str]| -> Vec<String> {
        let out = run(args);
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| {
                l.starts_with("fault")
                    || l.starts_with("health")
                    || l.starts_with("degrade")
                    || l.contains("fingerprint")
            })
            .map(String::from)
            .collect()
    };
    let base = pin(&["4", "3", "1", "--plan", PLAN]);
    assert_eq!(base, pin(&["4", "3", "1", "--plan", PLAN]), "rerun");
    assert_eq!(base, pin(&["4", "3", "4", "--plan", PLAN]), "workers 4");
}

#[test]
fn exp_chaos_empty_plan_matches_the_baseline_exactly() {
    let out = run(&["3", "2", "2", "--rate", "0"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fault plan: 0 fault(s)"));
    let fleet = line_of(&stdout, "fleet fingerprint: ")
        .trim_start_matches("fleet fingerprint: ")
        .to_string();
    let baseline = line_of(&stdout, "baseline fingerprint: ")
        .trim_start_matches("baseline fingerprint: ")
        .to_string();
    assert_eq!(
        fleet, baseline,
        "an empty plan must be bit-identical to the fault-free run:\n{stdout}"
    );
    assert!(stdout.contains("health counts: healthy=3 recovered=0 failed=0"));
}

/// A plan may name only the sites the fleet fires. Any other site is
/// refused with the list of known sites, rather than counted against its
/// tenant and never fired.
#[test]
fn exp_chaos_rejects_a_site_it_cannot_fire() {
    let out = run(&["2", "2", "1", "--plan", "syn-a#0:1:checkpoint-write"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "exp_chaos accepted an unknown site:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("unknown fault site 'checkpoint-write'"),
        "stderr:\n{stderr}"
    );
    for site in [
        "solver-panic",
        "solve-error",
        "empty-epoch",
        "malformed-epoch",
        "budget-exhaust",
    ] {
        assert!(
            stderr.contains(site),
            "known site '{site}' not listed:\n{stderr}"
        );
    }
}

/// A fault that cannot fire is refused before either run, with the entry
/// named, rather than counted against its tenant and never fired.
#[test]
fn exp_chaos_rejects_a_fault_it_cannot_fire() {
    for (plan, entry) in [
        ("syn-a#0:3:solver-panic", "'syn-a#0:3:solver-panic'"),
        ("syn-b#5:1:solver-panic", "'syn-b#5:1:solver-panic'"),
        ("syn-a#1:0:empty-epoch", "'syn-a#1:0:empty-epoch'"),
    ] {
        let out = run(&["2", "2", "1", "--plan", plan]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "exp_chaos accepted {plan}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(stderr.contains(entry), "stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{plan} printed a report");
    }
}

/// `--rate` is a per-cell fault probability. A value outside [0, 1], NaN
/// included, is refused with the value named, before either run; it used
/// to plan as 0 or 1 faults per cell and exit 0.
#[test]
fn exp_chaos_rejects_a_rate_outside_the_unit_interval() {
    for rate in ["2", "-1", "nan", "1.5"] {
        let out = run(&["2", "2", "1", "--rate", rate]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "exp_chaos accepted --rate {rate}");
        assert!(
            stderr.contains(&format!("--rate is a probability in [0, 1], got '{rate}'")),
            "stderr:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "--rate {rate} printed a report");
    }
}

#[test]
fn exp_chaos_json_mode_emits_a_parseable_document() {
    let out = run(&["3", "2", "1", "--plan", "syn-a#0:1:solver-panic", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = alert_audit::json::Value::parse(stdout.trim()).expect("valid JSON");
    assert_eq!(
        doc.get("fault_isolation").unwrap(),
        &alert_audit::json::Value::Bool(true)
    );
    assert_eq!(
        doc.get("plan")
            .unwrap()
            .get("faults")
            .unwrap()
            .as_f64()
            .unwrap(),
        1.0
    );
    let chaos = doc.get("chaos").unwrap();
    let log = chaos.get("tenant_log").unwrap().as_arr().unwrap();
    assert_eq!(log.len(), 3);
    // The faulted tenant's health record rides in the document.
    let statuses: Vec<&str> = log
        .iter()
        .map(|t| {
            t.get("health")
                .unwrap()
                .get("status")
                .unwrap()
                .as_str()
                .unwrap()
        })
        .collect();
    assert!(
        statuses.contains(&"recovered"),
        "expected a recovered tenant in {statuses:?}"
    );
}
