//! Experiment E11 — the multi-tenant fleet runtime: N independent audit
//! streams (one service loop each) multiplexed over a bounded worker
//! pool.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_fleet [tenants] [epochs] [workers] \
//!     [--scenario <key>] [--mix] [--seed <n>] [--json]
//! ```
//!
//! Every tenant runs the scenario with its own seed, derived from the
//! master `--seed` by tenant index, so the whole fleet is one
//! deterministic function of `(tenants, epochs, --scenario/--mix, seed)`
//! — the printed `fleet fingerprint` is bit-identical across reruns and
//! worker counts (the CI fleet smoke greps exactly that). `--mix` cycles
//! tenants over a fixed scenario mix (rational, seasonal, heavy-tail,
//! quantal) instead of one scenario; `--json` emits the full fleet
//! report as one JSON document.

use alert_audit::telemetry::fleet_report_to_json;
use audit_bench::cli::{
    default_threads, parse_count, take_flag, take_scenario_flag, take_value_flag,
};
use audit_bench::report::Table;
use audit_runtime::{FleetConfig, FleetService, RuntimeConfig, TenantSpec};
use stochastics::rng::derive_seed;

/// The `--mix` rotation: one rational baseline plus the three strategic
/// workload families.
const MIX: [&str; 4] = ["syn-a", "syn-seasonal", "syn-heavy-tail", "syn-quantal"];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario_key = take_scenario_flag(&mut args);
    let mix = take_flag(&mut args, "--mix");
    let master_seed = take_value_flag(&mut args, "--seed")
        .map(|s| s.parse().expect("--seed is a u64"))
        .unwrap_or(0u64);
    let json = take_flag(&mut args, "--json");
    let n_tenants = parse_count(args.first().cloned(), 64);
    let epochs = parse_count(args.get(1).cloned(), 8);
    let workers = parse_count(args.get(2).cloned(), default_threads());
    assert!(
        !(mix && scenario_key.is_some()),
        "--mix and --scenario are mutually exclusive"
    );
    let base_key = scenario_key.unwrap_or_else(|| "syn-a".into());

    let reg = alert_audit::scenario::registry();
    let keys: Vec<&str> = if mix {
        MIX.to_vec()
    } else {
        vec![base_key.as_str()]
    };
    let defaults = RuntimeConfig::default();
    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|i| {
            let key = keys[i % keys.len()];
            let scenario = reg.resolve(key).unwrap_or_else(|e| panic!("{e}")).clone();
            TenantSpec {
                name: format!("{key}#{i}"),
                scenario,
                config: RuntimeConfig {
                    epochs,
                    // Tenant streams are independent: each gets its own
                    // derived seed for build/stream/execution randomness.
                    seed: derive_seed(master_seed, i as u64),
                    ..defaults.clone()
                },
            }
        })
        .collect();

    eprintln!(
        "fleet: {n_tenants} tenant(s) x {epochs} epoch(s) x {} period(s), {} worker(s)",
        defaults.periods_per_epoch, workers,
    );

    let fleet = FleetService::new(
        tenants,
        FleetConfig {
            workers,
            ..FleetConfig::default()
        },
    );
    let report = fleet.run().expect("fleet runs");

    if json {
        println!("{}", fleet_report_to_json(&report).render());
    } else {
        let mut table = Table::new(vec![
            "tenant",
            "epochs",
            "resolves",
            "drift",
            "start ms",
            "mean epoch ms",
        ]);
        for t in &report.tenants {
            let mean_epoch = if t.epoch_millis.is_empty() {
                0.0
            } else {
                t.epoch_millis.iter().sum::<f64>() / t.epoch_millis.len() as f64
            };
            table.row(vec![
                t.tenant.clone(),
                format!("{}", t.report.epochs.len()),
                format!("{}", t.report.resolves()),
                format!("{}", t.report.drift_epochs()),
                format!("{:.1}", t.start_millis),
                format!("{mean_epoch:.2}"),
            ]);
        }
        println!("{}", table.render());
    }

    // In --json mode stdout must stay a single parseable document, so the
    // summary lines move to stderr there.
    let summary = |line: String| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    summary(format!(
        "tenants: {} total periods: {} total resolves: {}",
        report.tenants.len(),
        report.total_periods,
        report.total_resolves()
    ));
    summary(format!(
        "period latency ms: p50 {:.3} p95 {:.3} p99 {:.3}",
        report.latency_p50_millis, report.latency_p95_millis, report.latency_p99_millis
    ));
    summary(format!("fleet fingerprint: {:016x}", report.fingerprint()));
    summary(format!("periods/sec: {:.1}", report.periods_per_sec));
    eprintln!("elapsed: {:.1} ms", report.wall_millis);
}
