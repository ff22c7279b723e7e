//! `perfbench` — the repository benchmark binary.
//!
//! ```text
//! perfbench --workload <solve-paper|solve-rea|fleet|restart> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//!           [--trace-out <file>]
//! ```
//!
//! Runs one workload and prints one JSON document on stdout: the
//! contract metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`), operations attempted and failed, the workload's own
//! metrics, and a digest of its deterministic outputs. Progress goes to
//! stderr. `perfbench/run.py` builds this binary, runs it, and prints
//! the result line; see `perfbench/README.md` for the metric definitions.

mod common;
mod fleet;
mod heap;
mod reference;
mod restart;
mod solve;
mod solver_trace;
mod stats;
mod trace;

use alert_audit::json::Value;
use common::{metrics_json, Ctx, Outcome};
use std::path::PathBuf;
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["solve-paper", "solve-rea", "fleet", "restart"];

/// Spans of this many operations are written in full to the trace file.
const TRACE_FULL_OPS: u64 = 16;

fn main() {
    if !heap::pin_thresholds() {
        eprintln!(
            "perfbench: could not fix the allocator's thresholds; restart times may be bimodal"
        );
    }
    match run() {
        Ok(doc) => print!("{}", doc.render()),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<Value, String> {
    let (workload, ctx) = parse_args(std::env::args().skip(1).collect())?;
    eprintln!(
        "perfbench: {workload} seed {} for {} s, trace {}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let out = run_workload(&workload, &ctx).map_err(|e| format!("{workload}: {e}"))?;
    Ok(document(&workload, &ctx, out))
}

/// Run workload `name`.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, audit_game::error::GameError> {
    std::fs::create_dir_all(&ctx.work_dir).map_err(|e| {
        audit_game::error::GameError::InvalidConfig(format!(
            "work directory {}: {e}",
            ctx.work_dir.display()
        ))
    })?;
    let mut out = match name {
        "solve-paper" => solve::SolveWorkload::paper(ctx.smoke).run(ctx)?,
        "solve-rea" => solve::SolveWorkload::rea(ctx.smoke).run(ctx)?,
        "fleet" => fleet::FleetWorkload::new(ctx.smoke).run(ctx)?,
        "restart" => restart::RestartWorkload::new(ctx.smoke).run(ctx)?,
        other => unreachable!("workload {other} was validated"),
    };
    if !ctx.trace {
        out.set("peak_heap_mb", heap::peak_mb() - out.reference_heap_mb);
    }
    out.detail("peak_rss_mb", "MB", common::peak_rss_mb());
    Ok(out)
}

fn parse_args(args: Vec<String>) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        trace_out: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}' (known: {WORKLOADS:?})"));
                }
                workload = Some(value);
            }
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad("a number"))?;
                if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--work-dir" => ctx.work_dir = PathBuf::from(value),
            "--trace-out" => ctx.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, ctx))
}

/// The result document of one run.
fn document(workload: &str, ctx: &Ctx, mut out: Outcome) -> Value {
    let metrics = out.contract_metrics(ctx.trace);
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        out.record(Err(format!("metric {} is not finite", m.name)));
    }
    if let Some(m) = metrics
        .iter()
        .chain(&out.detail)
        .find(|m| !stats::valid_name(&m.name) || !stats::valid_unit(m.unit))
    {
        let msg = format!(
            "metric '{}' with unit '{}' breaks the naming rules",
            m.name, m.unit
        );
        out.record(Err(msg));
    }
    let detail: Vec<_> = out
        .detail
        .iter()
        .filter(|m| m.value.is_finite())
        .cloned()
        .collect();
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|mut m| {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
            m
        })
        .collect();
    Value::obj([
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Str(ctx.seed.to_string())),
        ("seconds", Value::Num(ctx.seconds)),
        ("trace", Value::Bool(ctx.trace)),
        ("smoke", Value::Bool(ctx.smoke)),
        ("correct", Value::Bool(out.failed == 0 && out.attempted > 0)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        (
            "failures",
            Value::Arr(out.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", metrics_json(&metrics)),
        ("workload_metrics", metrics_json(&detail)),
        ("output_digest", Value::Str(format!("{:016x}", out.digest))),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "trace_file",
            match (&ctx.trace_out, ctx.trace) {
                (Some(p), true) => Value::Str(p.display().to_string()),
                _ => Value::Null,
            },
        ),
    ])
}

/// Write the spans of a traced run to `--trace-out`, if given.
pub fn write_trace(ctx: &Ctx, tracer: &Tracer) {
    let Some(path) = &ctx.trace_out else {
        return;
    };
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, tracer.to_json(TRACE_FULL_OPS).render()) {
        eprintln!("perfbench: cannot write trace {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::{END_TO_END, PER_LAYER};
    use stats::{valid_name, valid_unit};

    /// The manifest at the repository root.
    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn manifest_matches_the_metric_tables_and_charsets() {
        let doc = manifest();
        let pairs = |t: &[(&str, &str)]| {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names_units(&doc, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "metric name {name}");
            assert!(valid_unit(unit), "unit {unit} of {name}");
            assert!(seen.insert(*name), "metric {name} listed twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "workload {w}");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, ctx) = parse_args(args("--workload fleet --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(w, "fleet");
        assert_eq!((ctx.seed, ctx.seconds, ctx.trace), (7, 2.0, true));
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload fleet --trace 2",
            "--workload fleet --seconds 0",
            "--workload fleet --seed x",
            "--workload fleet --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad}");
        }
    }

    /// Every workload at tiny size, untraced and traced: no failures, and
    /// every contract metric present and finite.
    fn smoke(workload: &str) {
        for trace in [false, true] {
            let dir = PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../.bench_build/perfbench-work"
            ))
            .join(format!("smoke-{workload}-{}", trace as u8));
            let ctx = Ctx {
                seed: 3,
                seconds: 0.05,
                trace,
                smoke: true,
                work_dir: dir.clone(),
                trace_out: None,
            };
            let out = run_workload(workload, &ctx).expect("smoke run succeeds");
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                out.failed, 0,
                "{workload} trace {trace}: {:?}",
                out.failures
            );
            assert!(out.attempted > 0);
            let metrics = out.contract_metrics(trace);
            assert!(metrics.iter().all(|m| m.value.is_finite()));
            if trace {
                let coverage = metrics.iter().find(|m| m.name == "trace.coverage").unwrap();
                assert!(coverage.value > 0.0, "{workload}: no coverage");
            } else {
                assert!(
                    metrics.iter().all(|m| m.value > 0.0),
                    "{workload}: {metrics:?}"
                );
            }
        }
    }

    #[test]
    fn smoke_solve_paper() {
        smoke("solve-paper");
    }

    #[test]
    fn smoke_solve_rea() {
        smoke("solve-rea");
    }

    #[test]
    fn smoke_fleet() {
        smoke("fleet");
    }

    #[test]
    fn smoke_restart() {
        smoke("restart");
    }
}
