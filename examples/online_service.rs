//! Online service: run the epoch-based auditing runtime over a drifting
//! workload and watch it re-solve itself.
//!
//! The solvers answer "what policy to commit"; `alert_audit::runtime`
//! answers "how to operate it". Each **period** the committed policy is
//! executed on the next alert vector of the scenario's stream; each
//! **epoch** the recent window is tested against the committed count
//! model and, only when the fit has broken down, the distributions are
//! refit and the game re-solved — **warm-started** from the incumbent
//! solution, so the interruption is as short as possible.
//!
//! ```text
//! cargo run --release --example online_service
//! ```

use alert_audit::runtime::{AuditService, DriftConfig, RuntimeConfig};
use alert_audit::telemetry::report_to_json;
use audit_game::solver::{InnerKind, SolverConfig};

fn main() {
    // ------------------------------------------------------------------
    // Pick the drifting scenario: a weekly busy/quiet cycle over three
    // Poisson alert types. Any registry scenario works — the service only
    // needs `build` (the game) and `alert_stream` (the workload).
    // ------------------------------------------------------------------
    let registry = alert_audit::scenario::registry();
    let scenario = registry
        .resolve("syn-seasonal")
        .expect("registered")
        .clone();
    println!("scenario: {}", scenario.describe());

    // ------------------------------------------------------------------
    // Configure the runtime: one epoch per work week, a two-week drift
    // window, and a KS gate. (`exp_online --compare-cold` times a cold
    // solve next to every warm re-solve, to show what warm-starting buys.)
    // ------------------------------------------------------------------
    let config = RuntimeConfig {
        epochs: 12,
        periods_per_epoch: 5,
        seed: 7,
        solver: SolverConfig {
            inner: InnerKind::Cggs,
            n_samples: 200,
            epsilon: 0.25,
            ..Default::default()
        },
        drift: DriftConfig {
            window_periods: 10,
            ks_threshold: 0.25,
            ..Default::default()
        },
    };

    let report = AuditService::new(scenario, config)
        .run()
        .expect("service loop runs");

    // ------------------------------------------------------------------
    // Read the telemetry: when did the gate trip, what did re-solving
    // cost, and how well did the committed model predict reality?
    // ------------------------------------------------------------------
    println!(
        "initial solve: loss {:.4} in {:.1} ms",
        report.initial_objective, report.initial_solve_millis
    );
    for e in &report.epochs {
        let event = match (e.drift, e.resolved) {
            (_, true) => "re-solved",
            (true, false) => "drift (cooldown)",
            _ => "steady",
        };
        println!(
            "epoch {:2}: {:3} alerts, audited {:3}, KS {:.3}, loss {:.4}  [{event}]",
            e.epoch,
            e.alerts_seen.iter().sum::<u64>(),
            e.alerts_audited.iter().sum::<u64>(),
            e.max_ks,
            e.objective,
        );
    }
    if let Some(stats) = report.resolve_stats() {
        println!(
            "{} warm re-solves, {:.1} ms each on average",
            stats.resolves, stats.mean_solve_millis,
        );
    }
    println!(
        "telemetry fingerprint: {:016x} (identical on every rerun and thread count)",
        report.fingerprint()
    );

    // The full log is one `report_to_json` call away — the same document
    // `exp_online --json` emits and `BENCH_runtime.json` snapshots.
    let doc = report_to_json(&report);
    println!(
        "JSON telemetry: {} bytes across {} epochs",
        doc.render().len(),
        report.epochs.len()
    );
}
