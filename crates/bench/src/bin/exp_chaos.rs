//! Experiment E13 — the chaos harness: a multi-tenant fleet run under a
//! deterministic fault plan, diffed against the fault-free run of the
//! same fleet to prove fault isolation.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_chaos [tenants] [epochs] [workers] \
//!     [--scenario <key>] [--seed <n>] [--rate <p>] [--plan <spec>] \
//!     [--budget <n>] [--json]
//! ```
//!
//! Two runs of the **same** tenant set execute back to back: a baseline
//! with an empty [`FaultPlan`] and a chaos run under the plan. The plan
//! is either seeded (`--rate`, default 0.2 faults per tenant x round
//! cell, sites drawn from [`FaultSite::ALL`]; a rate outside [0, 1] is
//! refused) or explicit (`--plan "tenant:round:site,..."`). A plan with a
//! fault that cannot fire — a tenant the fleet lacks, a round past
//! `epochs`, or a site other than `solver-panic` at round 0 (the cold
//! start) — is refused with a non-zero exit before either run. The
//! harness then:
//!
//! * prints every planned fault and every tenant's supervisor verdict
//!   (`health: ...` lines) plus every degraded epoch (`degrade: ...`
//!   lines) — the grep surface the CI chaos step pins;
//! * computes the **healthy-subset fingerprint**: the chaos run's
//!   healthy tenants hashed at their original indices, which must be
//!   bit-identical to the same subset of the baseline (`fault
//!   isolation: identical`). Divergence exits non-zero;
//! * reports recovery latency (mean quarantine backoff in tenant
//!   rounds) and the degraded-solve overhead (throughput and degraded
//!   epoch counts against the baseline).
//!
//! `--budget <n>` caps every tenant's solver work budget in **both**
//! runs (so the isolation diff stays clean) and drives the graceful-
//! degradation ladder: degraded epochs then appear in the baseline too.
//! Everything is a deterministic function of `(tenants, epochs,
//! --scenario, --seed, --rate/--plan, --budget)`; worker count (default:
//! the host's available cores) changes wall-clock only.

use alert_audit::telemetry::fleet_report_to_json;
use audit_bench::cli::{
    host_cores, parse_count, refuse_unread, take_flag, take_scenario_flag, take_value_flag,
};
use audit_runtime::{
    FaultPlan, FaultSite, FleetConfig, FleetReport, FleetService, RuntimeConfig, TenantHealth,
    TenantSpec,
};
use stochastics::rng::derive_seed;

/// Parse an explicit `--plan` spec: comma- or semicolon-separated
/// `tenant:round:site` triples, `site` by its stable key.
fn parse_plan(spec: &str) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for part in spec.split([',', ';']).filter(|p| !p.trim().is_empty()) {
        let fields: Vec<&str> = part.trim().split(':').collect();
        assert!(
            fields.len() == 3,
            "--plan entries are tenant:round:site, got '{part}'"
        );
        let round: usize = fields[1]
            .parse()
            .unwrap_or_else(|_| panic!("--plan round must be a usize, got '{}'", fields[1]));
        let site = FaultSite::ALL
            .iter()
            .find(|s| s.key() == fields[2])
            .copied()
            .unwrap_or_else(|| {
                let known: Vec<&str> = FaultSite::ALL.iter().map(|s| s.key()).collect();
                panic!(
                    "unknown fault site '{}'; known sites: {}",
                    fields[2],
                    known.join(", ")
                )
            });
        plan = plan.inject(fields[0], round, site);
    }
    plan
}

fn build_fleet(tenants: &[TenantSpec], workers: usize, plan: FaultPlan) -> FleetReport {
    // TenantSpec holds an Arc'd scenario, so re-building the spec list per
    // run is cheap; each run gets fresh services (and fresh injectors).
    let specs: Vec<TenantSpec> = tenants
        .iter()
        .map(|t| TenantSpec {
            name: t.name.clone(),
            scenario: t.scenario.clone(),
            config: t.config.clone(),
        })
        .collect();
    FleetService::new(
        specs,
        FleetConfig {
            workers,
            fault_plan: plan,
            ..FleetConfig::default()
        },
    )
    .run()
    .unwrap_or_else(|e| panic!("{e}"))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario_key = take_scenario_flag(&mut args).unwrap_or_else(|| "syn-a".into());
    let master_seed: u64 = take_value_flag(&mut args, "--seed")
        .map(|s| s.parse().expect("--seed is a u64"))
        .unwrap_or(0);
    let rate: f64 = take_value_flag(&mut args, "--rate")
        .map(|s| match s.parse() {
            Ok(p) if (0.0..=1.0).contains(&p) => p,
            _ => panic!("--rate is a probability in [0, 1], got '{s}'"),
        })
        .unwrap_or(0.2);
    let plan_spec = take_value_flag(&mut args, "--plan");
    let budget: Option<usize> =
        take_value_flag(&mut args, "--budget").map(|s| s.parse().expect("--budget is a usize"));
    let json = take_flag(&mut args, "--json");
    refuse_unread(&args, 3);
    let n_tenants = parse_count(args.first().cloned(), 8);
    let epochs = parse_count(args.get(1).cloned(), 6);
    let workers = parse_count(args.get(2).cloned(), host_cores());

    let reg = alert_audit::scenario::registry();
    let scenario = reg
        .resolve(&scenario_key)
        .unwrap_or_else(|e| panic!("{e}"))
        .clone();
    let defaults = RuntimeConfig::default();
    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|i| {
            let mut config = RuntimeConfig {
                epochs,
                seed: derive_seed(master_seed, i as u64),
                ..defaults.clone()
            };
            config.solver.work_budget = budget;
            TenantSpec {
                name: format!("{scenario_key}#{i}"),
                scenario: scenario.clone(),
                config,
            }
        })
        .collect();
    let names: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();

    let plan = match plan_spec {
        Some(spec) => parse_plan(&spec),
        None => FaultPlan::seeded(master_seed, &names, epochs, rate),
    };

    eprintln!(
        "chaos: {n_tenants} tenant(s) x {epochs} epoch(s), {workers} worker(s), \
         scenario {scenario_key}, plan {} fault(s), budget {}",
        plan.len(),
        budget
            .map(|b| b.to_string())
            .unwrap_or_else(|| "none".into()),
    );

    // The chaos run goes first: the fleet refuses a plan with a fault that
    // cannot fire before any tenant runs.
    let chaos = build_fleet(&tenants, workers, plan.clone());
    let baseline = build_fleet(&tenants, workers, FaultPlan::new());

    // In --json mode stdout is one parseable document; the grep surface
    // moves to stderr there.
    let line = |l: String| {
        if json {
            eprintln!("{l}");
        } else {
            println!("{l}");
        }
    };

    line(format!(
        "fault plan: {} fault(s) fingerprint: {:016x}",
        plan.len(),
        plan.fingerprint()
    ));
    for (tenant, round, site) in plan.iter() {
        line(format!("fault: tenant={tenant} round={round} site={site}"));
    }

    let mut backoffs: Vec<f64> = Vec::new();
    for t in &chaos.tenants {
        for f in t.health.failures() {
            if let Some(resume) = f.resume_round {
                backoffs.push((resume - f.round) as f64);
            }
        }
        match &t.health {
            TenantHealth::Healthy => {}
            TenantHealth::Recovered { failures } => line(format!(
                "health: {} recovered retries={}",
                t.tenant,
                failures.len()
            )),
            TenantHealth::Failed { .. } => {
                if let Some(last) = t.health.terminal_failure() {
                    line(format!(
                        "health: {} failed round={} cause={}",
                        t.tenant, last.round, last.cause
                    ))
                }
            }
        }
    }
    let (healthy, recovered, failed) = chaos.health_counts();
    line(format!(
        "health counts: healthy={healthy} recovered={recovered} failed={failed}"
    ));

    let degraded_of = |r: &FleetReport| -> usize {
        r.tenants
            .iter()
            .flat_map(|t| &t.report.epochs)
            .filter(|e| e.degrade.is_some())
            .count()
    };
    for t in &chaos.tenants {
        for e in &t.report.epochs {
            if let Some(d) = e.degrade {
                line(format!(
                    "degrade: tenant={} epoch={} reason={}",
                    t.tenant,
                    e.epoch,
                    d.key()
                ));
            }
        }
    }
    line(format!(
        "degraded epochs: {} (baseline {})",
        degraded_of(&chaos),
        degraded_of(&baseline)
    ));
    if backoffs.is_empty() {
        line("recovery latency: no retries".into());
    } else {
        line(format!(
            "recovery latency: mean={:.1} round(s) over {} retry(ies)",
            backoffs.iter().sum::<f64>() / backoffs.len() as f64,
            backoffs.len()
        ));
    }

    line(format!(
        "healthy subset: {}/{} fingerprint: {:016x}",
        chaos.healthy_names().len(),
        chaos.tenants.len(),
        chaos.healthy_fingerprint()
    ));

    // Fault isolation: tenants the plan never touched must be
    // bit-identical to the same tenants of the fault-free baseline.
    // (Supervisor-healthy is the wrong subset here: a tenant can absorb
    // an empty-epoch or budget-exhaust fault without ever failing, and
    // its report then legitimately differs from the baseline.)
    let planned = plan.planned_tenants();
    let untouched: Vec<String> = names
        .iter()
        .filter(|n| !planned.contains(n))
        .cloned()
        .collect();
    let chaos_subset = chaos.subset_fingerprint(&untouched);
    let baseline_subset = baseline.subset_fingerprint(&untouched);
    line(format!(
        "untouched subset: {}/{} fingerprint: {chaos_subset:016x}",
        untouched.len(),
        chaos.tenants.len()
    ));
    line(format!(
        "baseline untouched fingerprint: {baseline_subset:016x}"
    ));
    let isolated = chaos_subset == baseline_subset;
    line(format!(
        "fault isolation: {}",
        if isolated { "identical" } else { "DIVERGED" }
    ));

    line(format!("fleet fingerprint: {:016x}", chaos.fingerprint()));
    line(format!(
        "baseline fingerprint: {:016x}",
        baseline.fingerprint()
    ));
    line(format!(
        "periods/sec: chaos {:.1} baseline {:.1}",
        chaos.periods_per_sec, baseline.periods_per_sec
    ));

    if json {
        let doc = alert_audit::json::Value::obj([
            (
                "plan",
                alert_audit::json::Value::obj([
                    ("faults", alert_audit::json::Value::Num(plan.len() as f64)),
                    (
                        "fingerprint",
                        alert_audit::json::Value::Str(format!("{:016x}", plan.fingerprint())),
                    ),
                ]),
            ),
            ("fault_isolation", alert_audit::json::Value::Bool(isolated)),
            (
                "baseline_fingerprint",
                alert_audit::json::Value::Str(format!("{:016x}", baseline.fingerprint())),
            ),
            ("chaos", fleet_report_to_json(&chaos)),
        ]);
        println!("{}", doc.render());
    }
    eprintln!(
        "elapsed: {:.1} ms",
        chaos.wall_millis + baseline.wall_millis
    );

    if !isolated {
        eprintln!("FAULT ISOLATION VIOLATED: healthy tenants diverged from the fault-free run");
        std::process::exit(1);
    }
}
