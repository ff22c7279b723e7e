//! Experiment E12 — the scale-out curve: alert-type count vs planner
//! strategy and solve latency, through the hardness-aware planner
//! (`InnerKind::Auto`) from the paper's ≤ 5-type exact regime up to
//! 50-type instances.
//!
//! ```text
//! cargo run -p audit-bench --release --bin exp_scale [types-list] [samples] \
//!     [--scenario <key>] [--seed <n>] [--budget-per-type <b>] [--json]
//! ```
//!
//! By default the driver sweeps `wide_game` instances at the listed type
//! counts (`5,10,15,20,25,30,40,50`), with the budget scaling as
//! `--budget-per-type` (default 0.25) audit units per type; `--scenario`
//! replaces the sweep with one registry scenario at conformance scale.
//! Each instance is solved once through `OapSolver` with the planner
//! choosing the strategy, on one detection-engine thread; the run prints
//! one `strategy:` and one `latency:` grep line per instance (the CI scale
//! smoke pins both) and, with `--json`, a single JSON document of the
//! whole curve on stdout (the table and grep lines move to stderr). The
//! curve is captured in `BENCH_scale.json`, whose command predates this
//! argument layout (its trailing `4` was an engine thread count).

use alert_audit::json::Value;
use audit_bench::cli::{
    parse_count, parse_list, refuse_unread, take_flag, take_scenario_flag, take_value_flag,
};
use audit_bench::report::Table;
use audit_game::model::GameSpec;
use audit_game::scenario::wide_game;
use audit_game::solver::{InnerKind, OapSolver, SolverConfig};

const DEFAULT_SIZES: [f64; 8] = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0];

/// One point of the curve.
struct Point {
    label: String,
    n_types: usize,
    strategy: String,
    loss: f64,
    explored: usize,
    solve_ms: f64,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario_key = take_scenario_flag(&mut args);
    let seed: u64 = take_value_flag(&mut args, "--seed")
        .map(|s| s.parse().expect("--seed is a u64"))
        .unwrap_or(7);
    let budget_per_type: f64 = take_value_flag(&mut args, "--budget-per-type")
        .map(|s| s.parse().expect("--budget-per-type is a number"))
        .unwrap_or(0.25);
    let json = take_flag(&mut args, "--json");
    refuse_unread(&args, 2);
    let sizes: Vec<usize> = parse_list(args.first().cloned(), &DEFAULT_SIZES)
        .into_iter()
        .map(|x| {
            assert!(
                x >= 2.0 && x.fract() == 0.0,
                "type counts must be integers >= 2, got {x}"
            );
            x as usize
        })
        .collect();
    let samples = parse_count(args.get(1).cloned(), 60);

    // The instance list: either the wide_game sweep or one registry
    // scenario at its conformance (small) scale.
    let instances: Vec<(String, GameSpec)> = match &scenario_key {
        Some(key) => {
            let reg = alert_audit::scenario::registry();
            let sc = reg.resolve(key).unwrap_or_else(|e| panic!("{e}"));
            let spec = sc.build_small(seed).expect("scenario builds");
            vec![(key.clone(), spec)]
        }
        None => sizes
            .iter()
            .map(|&n| {
                let budget = (budget_per_type * n as f64).max(2.0);
                let spec = wide_game(seed, n, 6, 6, budget).expect("wide game builds");
                (format!("wide{n}"), spec)
            })
            .collect(),
    };

    eprintln!(
        "scale: {} instance(s), {samples} sample(s), seed {seed}",
        instances.len()
    );

    let mut points: Vec<Point> = Vec::new();
    for (label, spec) in &instances {
        let solver = OapSolver::new(SolverConfig {
            epsilon: 0.5,
            n_samples: samples,
            seed,
            inner: InnerKind::Auto,
            ..Default::default()
        });
        let t0 = std::time::Instant::now();
        let sol = solver
            .solve(spec)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
        points.push(Point {
            label: label.clone(),
            n_types: spec.n_types(),
            strategy: sol.strategy.describe(),
            loss: sol.loss,
            explored: sol.stats.thresholds_explored,
            solve_ms,
        });
    }

    // In --json mode stdout must stay a single parseable document, so the
    // table and grep lines move to stderr there.
    let out = |line: String| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    let mut table = Table::new(vec![
        "instance", "types", "strategy", "loss", "explored", "solve ms",
    ]);
    for p in &points {
        table.row(vec![
            p.label.clone(),
            format!("{}", p.n_types),
            p.strategy.clone(),
            format!("{:.6}", p.loss),
            format!("{}", p.explored),
            format!("{:.1}", p.solve_ms),
        ]);
    }
    out(table.render());
    for p in &points {
        out(format!("strategy: n={} {}", p.n_types, p.strategy));
        out(format!(
            "latency: n={} solve_ms={:.1} explored={}",
            p.n_types, p.solve_ms, p.explored
        ));
    }

    if json {
        let doc = Value::obj([
            ("seed", Value::Num(seed as f64)),
            ("samples", Value::Num(samples as f64)),
            (
                "curve",
                Value::Arr(
                    points
                        .iter()
                        .map(|p| {
                            Value::obj([
                                ("instance", Value::Str(p.label.clone())),
                                ("n_types", Value::Num(p.n_types as f64)),
                                ("strategy", Value::Str(p.strategy.clone())),
                                ("loss", Value::Num(p.loss)),
                                ("thresholds_explored", Value::Num(p.explored as f64)),
                                ("solve_ms", Value::Num(p.solve_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", doc.render());
    }
}
