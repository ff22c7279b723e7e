//! Experiment E10 — the online auditing runtime: a multi-epoch service
//! loop over a registry scenario's alert stream with drift-gated,
//! warm-started re-solving, printing the per-epoch telemetry and the
//! deterministic run fingerprint.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_online [epochs] \
//!     [--scenario <key>] [--compare-cold] [--json] [--cache-stats] \
//!     [--checkpoint-dir <dir> [--checkpoint-epoch <k>]] [--restore]
//! ```
//!
//! Every solve runs on one detection-engine thread. `--compare-cold`
//! steps the service one epoch at a time and, after each epoch that
//! re-solved, solves the newly committed spec cold with a fresh solver
//! under the run's solver configuration, outside the service; it reports
//! the mean warm and cold latency over those epochs and the worst
//! committed-minus-cold objective gap. The service runs exactly as without
//! the flag, so the fingerprint is the same, and the flag works with
//! `--restore` (comparing the epochs run after the restore). `--json`
//! emits the full telemetry log as JSON instead of the table;
//! `--cache-stats` prints the detection engine's counters summed over the
//! committed solves.
//!
//! `--checkpoint-dir <dir>` runs the loop only up to `--checkpoint-epoch`
//! (default: half the horizon), persists the full service state to the
//! directory, and exits; a later invocation with `--checkpoint-dir <dir>
//! --restore` reloads it (the run configuration is carried by the
//! checkpoint, so `[epochs]` is refused then), finishes the remaining
//! epochs, and prints the ordinary report — whose telemetry fingerprint is
//! bit-identical to an uninterrupted run (the CI restart gate asserts
//! exactly that). A saving run prints no report, so it refuses
//! `--compare-cold`, `--json` and `--cache-stats`; `--checkpoint-epoch`
//! without `--checkpoint-dir`, or with `--restore`, is refused, as is any
//! argument the driver does not read.

use alert_audit::telemetry::report_to_json;
use audit_bench::cli::{
    parse_count, refuse_unread, render_cache_stats, take_flag, take_scenario_flag, take_value_flag,
};
use audit_bench::report::{f4, Table};
use audit_game::solver::OapSolver;
use audit_runtime::{AuditService, RuntimeConfig};
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario_key = take_scenario_flag(&mut args).unwrap_or_else(|| "syn-seasonal".into());
    let compare_cold = take_flag(&mut args, "--compare-cold");
    let json = take_flag(&mut args, "--json");
    let cache_stats = take_flag(&mut args, "--cache-stats");
    let checkpoint_dir =
        take_value_flag(&mut args, "--checkpoint-dir").map(std::path::PathBuf::from);
    let checkpoint_epoch =
        take_value_flag(&mut args, "--checkpoint-epoch").map(|s| parse_count(Some(s), 0));
    let restore = take_flag(&mut args, "--restore");
    // A restore takes its configuration, horizon included, from the
    // checkpoint, so it reads no `[epochs]`.
    refuse_unread(&args, if restore { 0 } else { 1 });
    // Without --restore, --checkpoint-dir stops the run at the checkpoint
    // epoch and saves it there, printing no report.
    let saving = checkpoint_dir.is_some() && !restore;
    assert!(
        checkpoint_epoch.is_none() || saving,
        "--checkpoint-epoch needs --checkpoint-dir <dir> and no --restore"
    );
    assert!(
        !(saving && (compare_cold || json || cache_stats)),
        "a run that saves a checkpoint prints no report, so it takes no \
         --compare-cold, --json or --cache-stats"
    );
    let epochs = parse_count(args.first().cloned(), 24);

    let reg = alert_audit::scenario::registry();
    let scenario = reg
        .resolve(&scenario_key)
        .unwrap_or_else(|e| panic!("{e}"))
        .clone();
    eprintln!(
        "online runtime on scenario {}: {}",
        scenario.key(),
        scenario.describe()
    );

    let cfg = RuntimeConfig {
        epochs,
        ..RuntimeConfig::default()
    };
    eprintln!(
        "{epochs} epochs x {} periods, drift gate: window {} / KS > {}",
        cfg.periods_per_epoch, cfg.drift.window_periods, cfg.drift.ks_threshold
    );

    let t0 = Instant::now();
    let (service, mut state) = if restore {
        let dir = checkpoint_dir
            .as_deref()
            .expect("--restore needs --checkpoint-dir <dir>");
        let (service, state) = AuditService::restore(scenario, dir).expect("checkpoint loads");
        eprintln!(
            "restored checkpoint at epoch {}/{} from {} (config carried by the checkpoint)",
            state.epoch,
            service.config().epochs,
            dir.display()
        );
        (service, state)
    } else {
        let service = AuditService::new(scenario, cfg);
        let state = service.start_state().expect("cold start solves");
        (service, state)
    };
    let save_to = checkpoint_dir.filter(|_| saving);
    let horizon = service.config().epochs;
    let stop = match save_to {
        Some(_) => checkpoint_epoch.unwrap_or(epochs / 2).clamp(1, horizon),
        None => horizon,
    };
    let stream = service.full_alert_stream().expect("alert stream derives");
    let cold_solver = compare_cold.then(|| OapSolver::new(service.config().solver.clone()));
    // Per compared re-solve: (warm ms, cold ms, committed − cold objective).
    let mut compared: Vec<(f64, f64, f64)> = Vec::new();
    while state.epoch < stop {
        let next = state.epoch + 1;
        service
            .advance_with_stream(&mut state, next, &stream)
            .expect("service loop runs");
        let e = state.records.last().expect("the epoch was recorded");
        let Some(solver) = cold_solver.as_ref().filter(|_| e.resolved) else {
            continue;
        };
        let warm_millis = e.solve_millis.expect("a re-solve records its latency");
        let t = Instant::now();
        let cold = solver.solve(&state.spec).expect("cold solve runs");
        let cold_millis = t.elapsed().as_secs_f64() * 1e3;
        compared.push((warm_millis, cold_millis, e.objective - cold.loss));
    }
    if let Some(dir) = save_to {
        service.checkpoint(&state, &dir).expect("checkpoint saves");
        println!(
            "checkpoint: epoch {} of {} written to {}",
            state.epoch,
            epochs,
            dir.display()
        );
        eprintln!("elapsed: {:.1?}", t0.elapsed());
        return;
    }
    let report = service.report(state);
    let elapsed = t0.elapsed();

    if json {
        println!("{}", report_to_json(&report).render());
    } else {
        let mut table = Table::new(vec![
            "epoch", "seen", "audited", "gap", "maxKS", "drift", "resolve", "age", "loss",
            "solve ms",
        ]);
        for e in &report.epochs {
            table.row(vec![
                format!("{}", e.epoch),
                format!("{}", e.alerts_seen.iter().sum::<u64>()),
                format!("{}", e.alerts_audited.iter().sum::<u64>()),
                format!("{:.3}", e.pal_gap),
                format!("{:.3}", e.max_ks),
                if e.drift { "yes" } else { "" }.into(),
                if e.resolved { "yes" } else { "" }.into(),
                format!("{}", e.epochs_since_resolve),
                f4(e.objective),
                e.solve_millis
                    .map(|m| format!("{m:.1}"))
                    .unwrap_or_default(),
            ]);
        }
        println!("{}", table.render());
    }

    // In --json mode stdout must stay a single parseable document (the
    // summary is embedded in it anyway), so the human-readable summary
    // moves to stderr there.
    let summary = |line: String| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    summary(format!(
        "resolves: {} (drift epochs: {})",
        report.resolves(),
        report.drift_epochs()
    ));
    summary(format!(
        "telemetry fingerprint: {:016x}",
        report.fingerprint()
    ));
    let launched: u64 = report.epochs.iter().map(|e| e.attacks_launched).sum();
    if launched > 0 {
        let detected: u64 = report.epochs.iter().map(|e| e.attacks_detected).sum();
        let utility: f64 = report.epochs.iter().map(|e| e.attacker_utility).sum();
        let damage: f64 = report.epochs.iter().map(|e| e.auditor_damage).sum();
        summary(format!(
            "attacks: launched={launched} detected={detected} attacker-utility={} auditor-damage={}",
            f4(utility),
            f4(damage)
        ));
    }
    if !compared.is_empty() {
        let n = compared.len() as f64;
        let warm = compared.iter().map(|c| c.0).sum::<f64>() / n;
        let cold = compared.iter().map(|c| c.1).sum::<f64>() / n;
        let gap = compared
            .iter()
            .map(|c| c.2)
            .fold(f64::NEG_INFINITY, f64::max);
        summary(format!(
            "re-solve latency: warm {warm:.1} ms vs cold {cold:.1} ms ({:.2}x), max objective gap {}",
            cold / warm,
            f4(gap),
        ));
    } else if let Some(stats) = report.resolve_stats() {
        summary(format!(
            "re-solve latency: warm {:.1} ms",
            stats.mean_solve_millis
        ));
    }
    if cache_stats {
        for line in render_cache_stats(&report.engine_cache).lines() {
            summary(line.to_string());
        }
    }
    summary(format!(
        "periods/sec: {:.1}",
        report.total_periods() as f64 / elapsed.as_secs_f64()
    ));
    eprintln!("elapsed: {:.1?}", elapsed);
}
