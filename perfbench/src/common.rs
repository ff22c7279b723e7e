//! What every workload shares: the run context, the metric tables that
//! mirror `BENCHMARK.json`, failure accounting, output checks, and
//! operation and set-up timing at reference speed.

use crate::reference::{scaled, Reference};
use crate::stats::{mean, median, percentile, percentile_label, tail_percentile};
use alert_audit::json::Value;
use audit_game::execute::AuditPolicy;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics (reported untraced, by every workload), as
/// `(name, unit)`. Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("op_ref_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (reported traced, by every workload; zero where the
/// workload does not exercise the layer), as `(name, unit)`. Must match
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("bank.ms", "ms"),
    ("bank.share", "ratio"),
    ("detection.columns_evaluated", "count"),
    ("detection.columns_saved", "count"),
    ("detection.estimate_hit_rate", "ratio"),
    ("detection.state_hits", "count"),
    ("detection.evictions", "count"),
    ("detection.replay_ns_per_column", "ns"),
    ("master.lp_iterations", "count"),
    ("master.replay_us", "us"),
    ("master.replay_us_per_pivot", "us"),
    ("ishm.thresholds_explored", "count"),
    ("ishm.improvements", "count"),
    ("ishm.eval_calls", "count"),
    ("ishm.eval_ms", "ms"),
    ("ishm.self_ms", "ms"),
    ("runtime.resolves", "count"),
    ("runtime.drift_epochs", "count"),
    ("runtime.periods", "count"),
    ("runtime.engine_columns", "count"),
    ("runtime.solve_share", "ratio"),
    ("runtime.epoch_other_share", "ratio"),
    ("fleet.busy_share", "ratio"),
    ("fleet.idle_share", "ratio"),
    ("fleet.shared_banks", "count"),
    ("fleet.shared_publishes", "count"),
    ("fleet.shared_adoptions", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.save_share", "ratio"),
    ("checkpoint.read_share", "ratio"),
    ("checkpoint.verify_bank_share", "ratio"),
    ("checkpoint.predicted_pal_share", "ratio"),
    ("solver.prepare_ms", "ms"),
    ("solver.solves", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// How one run was invoked.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory for files the workload writes.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Ctx {
    /// Whether the timed phase may stop after `done` operations that had
    /// to reach `min_ops`, `t0` being its start.
    pub fn keep_going(&self, t0: Instant, done: usize, min_ops: usize) -> bool {
        done < min_ops || t0.elapsed().as_secs_f64() < self.seconds
    }
}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase and the set-up checks.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Contract metrics by name (the `BENCHMARK.json` set for the mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own metrics, named as in the benchmark's README
    /// (e.g. `solve_ms_p50`), with units.
    pub detail: Vec<Metric>,
    /// Digest of the deterministic outputs, for comparing two commits.
    pub digest: u64,
    /// Heap held by the reference kernel, in MB.
    pub reference_heap_mb: f64,
}

impl Outcome {
    /// Count one operation; `result` carries its failure, if any.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(msg);
            }
        }
    }

    /// Set contract metric `name`, which must be in the mode's table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Add a workload metric.
    pub fn detail(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.detail.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Set `setup_s` and add the wall time, from [`repeated_setup`].
    pub fn setup(&mut self, at_ref_s: f64, wall_s: f64) {
        self.set("setup_s", at_ref_s);
        self.detail("setup_wall_s", "s", wall_s);
    }

    /// Add the reference kernel's median time and pass count: how slow
    /// the host ran during this run.
    pub fn reference(&mut self, reference: &Reference) {
        let samples = reference.samples();
        if let Some(p50) = median(samples) {
            self.detail("reference_ms_p50", "ms", p50);
        }
        self.detail("reference_passes", "count", samples.len() as f64);
        self.reference_heap_mb = reference.heap_mb();
    }

    /// Add `<prefix>_p50` and the tail the sample count supports
    /// (see [`tail_percentile`]) of latency samples `ms`.
    pub fn latency(&mut self, prefix: &str, ms: &[f64]) {
        if let Some(p50) = median(ms) {
            self.detail(format!("{prefix}_p50"), "ms", p50);
        }
        if let Some(p) = tail_percentile(ms.len()) {
            let v = percentile(ms, p).expect("non-empty");
            self.detail(format!("{prefix}_{}", percentile_label(p)), "ms", v);
        }
        self.detail(format!("{prefix}_samples"), "count", ms.len() as f64);
    }

    /// The contract metrics of the mode, every one present (absent
    /// per-layer metrics read zero: the workload does not exercise that
    /// layer).
    pub fn contract_metrics(&self, trace: bool) -> Vec<Metric> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.into(),
                unit,
                value: self.metrics.get(name).copied().unwrap_or_else(|| {
                    assert!(trace, "end-to-end metric {name} was not measured");
                    0.0
                }),
            })
            .collect()
    }
}

/// `op_ref_ms`: the median of each input's times at reference speed
/// (see [`crate::reference`]) over its repeats, averaged over inputs so
/// that every input weighs the same; `None` when nothing ran.
pub fn op_ref_ms(per_input: &[Vec<f64>]) -> Option<f64> {
    let kept: Vec<f64> = per_input.iter().filter_map(|t| median(t)).collect();
    mean(&kept)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `f` [`SETUP_REPEATS`] times, each between two passes of the
/// reference kernel. Returns the last result, the median set-up time at
/// reference speed (`setup_s`) and the median wall time, both in seconds.
pub fn repeated_setup<S>(reference: &mut Reference, mut f: impl FnMut() -> S) -> (S, f64, f64) {
    let (mut at_ref, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut before = reference.sample();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(f());
        let s = t.elapsed().as_secs_f64();
        let after = reference.sample();
        at_ref.push(scaled(s, (before + after) / 2.0));
        wall.push(s);
        before = after;
    }
    (
        last.expect("at least one repeat"),
        median(&at_ref).expect("non-empty"),
        median(&wall).expect("non-empty"),
    )
}

/// Output check of a committed policy: finite loss, probabilities that
/// are finite, non-negative and sum to 1 within 1e-6, one order per
/// probability, and one threshold per alert type.
pub fn check_policy(policy: &AuditPolicy, loss: f64, n_types: usize) -> Result<(), String> {
    if !loss.is_finite() {
        return Err(format!("loss {loss} is not finite"));
    }
    if policy.orders.len() != policy.probs.len() {
        return Err("orders and probabilities differ in length".into());
    }
    if policy.probs.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err("a probability is negative or not finite".into());
    }
    let total: f64 = policy.probs.iter().sum();
    if (total - 1.0).abs() > 1e-6 {
        return Err(format!("probabilities sum to {total}"));
    }
    if policy.thresholds.len() != n_types {
        return Err(format!(
            "{} thresholds for {n_types} alert types",
            policy.thresholds.len()
        ));
    }
    Ok(())
}

/// Bit-level identity of two policies and their losses.
pub fn same_policy(a: &AuditPolicy, a_loss: f64, b: &AuditPolicy, b_loss: f64) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a_loss.to_bits() == b_loss.to_bits()
        && bits(&a.thresholds) == bits(&b.thresholds)
        && a.orders == b.orders
        && bits(&a.probs) == bits(&b.probs)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Render metrics as a JSON object `{name: {"value", "unit"}}`.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::obj([
                        ("value", Value::Num(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}
