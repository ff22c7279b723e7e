//! End-to-end smoke test: the `exp_attacker` experiment binary must sweep
//! the quantal λ grid and compare the damage-optimal policy with the
//! zero-sum optimum under one damage model.

use std::process::Command;

/// The number after `label` on `line`, e.g. `damage-optimal 14.4000`.
fn value_after(line: &str, label: &str) -> f64 {
    let rest = &line[line.find(label).expect(label) + label.len()..];
    rest.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no number after {label:?} in {line:?}"))
}

#[test]
fn exp_attacker_sweeps_lambda_and_scores_both_policies_by_damage() {
    let exe = env!("CARGO_BIN_EXE_exp_attacker");
    let out = Command::new(exe)
        .args(["--scenario", "syn-general-sum", "--samples", "60"])
        .output()
        .expect("exp_attacker spawns");
    assert!(
        out.status.success(),
        "exp_attacker exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lambda_rows = stdout
        .lines()
        .filter(|l| {
            l.strip_prefix("| ")
                .and_then(|r| r.split_whitespace().next())
                .is_some_and(|v| v.parse::<f64>().is_ok())
        })
        .count();
    assert_eq!(lambda_rows, 7, "expected 7 lambda rows:\n{stdout}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("general-sum damage"))
        .unwrap_or_else(|| panic!("missing general-sum line:\n{stdout}"));
    let optimal = value_after(line, "damage-optimal");
    let zero_sum = value_after(line, "zero-sum policy");
    assert!(
        optimal <= zero_sum,
        "the damage-optimal policy must not cause more damage than the zero-sum one: {line}"
    );
}
