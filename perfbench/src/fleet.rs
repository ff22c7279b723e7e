//! The `fleet` workload: 64 tenants cycling four scenario families, 24
//! epochs of 5 periods each, on 2 workers with shared caches. Closed
//! loop: each operation is one whole `FleetService::run` of the same
//! fleet; the per-tenant epoch advances and re-solves it reports are the
//! latencies its tenants see.

use crate::common::{check_policy, ms_since, op_ref_ms, repeated_setup, Ctx, Outcome};
use crate::reference::{scaled, Reference};
use crate::solver_trace::{overhead_pct, solver_layers, traced_solve};
use crate::stats::{median, Digest};
use crate::trace::Tracer;
use audit_game::error::GameError;
use audit_game::solver::OapSolver;
use audit_runtime::{FleetConfig, FleetReport, FleetService, RuntimeConfig, TenantSpec};
use std::cell::RefCell;
use std::time::Instant;
use stochastics::rng::derive_seed;

/// The tenant rotation (as `exp_fleet --mix`): one rational baseline and
/// the three strategic-attacker families.
const MIX: [&str; 4] = ["syn-a", "syn-seasonal", "syn-heavy-tail", "syn-quantal"];

/// Worker threads of the timed fleet.
const WORKERS: usize = 2;

/// Fleet size.
pub struct FleetWorkload {
    /// Tenants.
    pub tenants: usize,
    /// Epochs per tenant.
    pub epochs: usize,
}

impl FleetWorkload {
    /// 64 tenants × 24 epochs.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                tenants: 4,
                epochs: 3,
            }
        } else {
            Self {
                tenants: 64,
                epochs: 24,
            }
        }
    }

    /// Tenant `i` runs family `MIX[i % 4]` with its own derived seed, for
    /// `epochs` epochs.
    fn tenants(&self, seed: u64, epochs: usize) -> Result<Vec<TenantSpec>, GameError> {
        let registry = alert_audit::scenario::registry();
        (0..self.tenants)
            .map(|i| {
                let key = MIX[i % MIX.len()];
                Ok(TenantSpec {
                    name: format!("{key}#{i}"),
                    scenario: registry.resolve(key)?.clone(),
                    config: RuntimeConfig {
                        epochs,
                        seed: derive_seed(seed, i as u64),
                        ..RuntimeConfig::default()
                    },
                })
            })
            .collect()
    }

    fn run_fleet(
        &self,
        seed: u64,
        workers: usize,
        epochs: usize,
    ) -> Result<(FleetReport, f64), GameError> {
        let fleet = FleetService::new(
            self.tenants(seed, epochs)?,
            FleetConfig {
                workers,
                ..FleetConfig::default()
            },
        );
        let t = Instant::now();
        let report = fleet.run()?;
        Ok((report, ms_since(t)))
    }

    /// Run the workload.
    pub fn run(&self, ctx: &Ctx) -> Result<Outcome, GameError> {
        // Set-up: registry, tenants, and a one-epoch run of the same fleet
        // (every tenant's cold start), which warms the worker pool path.
        let mut kernel = Reference::new(WORKERS);
        let (setup, setup_s, setup_wall_s) =
            repeated_setup(&mut kernel, || self.run_fleet(ctx.seed, WORKERS, 1));
        setup?;
        let mut out = Outcome::default();
        out.setup(setup_s, setup_wall_s);
        // The reference run, whose fingerprint every later run must
        // reproduce, and the same fleet on one worker: the worker count
        // never changes results.
        let (reference, _) = self.run_fleet(ctx.seed, WORKERS, self.epochs)?;
        let fingerprint = reference.fingerprint();
        let (single, _) = self.run_fleet(ctx.seed, 1, self.epochs)?;
        out.record(
            (single.fingerprint() == fingerprint)
                .then_some(())
                .ok_or_else(|| "fleet fingerprint differs between 1 and 2 workers".into()),
        );
        crate::heap::reset_peak();

        let tracer = RefCell::new(Tracer::default());
        let mut epoch_ms = Vec::new();
        let mut resolve_ms = Vec::new();
        let mut runs: Vec<(FleetReport, f64)> = Vec::new();
        let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
        // Untraced, reference-kernel passes on as many threads as workers
        // sit between fleet runs; a run's time at reference speed uses the
        // mean of the medians of five passes before and after it.
        let mut run_ref_ms = Vec::new();
        let mut before = (!ctx.trace).then(|| kernel.sample_median(5));
        let t0 = Instant::now();
        while ctx.keep_going(t0, runs.len(), 2) {
            // In a traced run, every other fleet run is recorded as a span
            // (tracing reads the report; nothing inside the fleet changes).
            let traced = ctx.trace && runs.len().is_multiple_of(2);
            let id = traced.then(|| tracer.borrow_mut().begin("op"));
            let (report, wall_ms) = self.run_fleet(ctx.seed, WORKERS, self.epochs)?;
            if let Some(before) = before.as_mut() {
                let after = kernel.sample_median(5);
                run_ref_ms.push(scaled(wall_ms, (*before + after) / 2.0));
                *before = after;
            }
            if let Some(id) = id {
                tracer.borrow_mut().end(id);
                traced_ms.push(wall_ms);
            } else {
                plain_ms.push(wall_ms);
            }
            for t in &report.tenants {
                out.record(check_tenant(t));
                epoch_ms.extend(&t.epoch_millis);
                resolve_ms.extend(t.report.epochs.iter().filter_map(|e| e.solve_millis));
            }
            out.record(
                (report.fingerprint() == fingerprint)
                    .then_some(())
                    .ok_or_else(|| "fleet fingerprint changed between runs".into()),
            );
            runs.push((report, wall_ms));
        }

        let walls: Vec<f64> = runs.iter().map(|(_, ms)| *ms).collect();
        out.detail("fleet_ms_p50", "ms", median(&walls).expect("fleet ran"));
        out.detail("fleet_runs", "count", runs.len() as f64);
        let periods = reference.total_periods as f64;
        out.detail(
            "periods_per_s",
            "1/s",
            periods / (median(&walls).expect("fleet ran") / 1e3),
        );
        if let Some(op) = op_ref_ms(std::slice::from_ref(&run_ref_ms)) {
            out.set("op_ref_ms", op);
            out.detail("periods_per_s_at_ref", "1/s", periods / (op / 1e3));
        }
        out.latency("epoch_ms", &epoch_ms);
        out.latency("resolve_ms", &resolve_ms);
        outputs(&reference, &mut out);
        out.reference(&kernel);

        if ctx.trace {
            self.layers(ctx, &runs, &tracer, &mut out)?;
            out.set("trace.overhead_pct", overhead_pct(&traced_ms, &plain_ms));
            crate::write_trace(ctx, &tracer.borrow());
        }
        Ok(out)
    }

    /// Per-layer metrics: runtime and fleet layers from the reports (mean
    /// per fleet run), solver layers from a traced cold solve of one
    /// tenant per family (each must reproduce that tenant's initial
    /// objective bit for bit).
    fn layers(
        &self,
        ctx: &Ctx,
        runs: &[(FleetReport, f64)],
        tracer: &RefCell<Tracer>,
        out: &mut Outcome,
    ) -> Result<(), GameError> {
        let n = runs.len() as f64;
        let mut sums = [0.0f64; 10];
        for (r, _) in runs {
            let busy: f64 = r
                .tenants
                .iter()
                .map(|t| t.start_millis + t.epoch_millis.iter().sum::<f64>())
                .sum();
            let solve: f64 = r
                .tenants
                .iter()
                .map(|t| {
                    t.report.initial_solve_millis
                        + t.report
                            .epochs
                            .iter()
                            .filter_map(|e| e.solve_millis)
                            .sum::<f64>()
                })
                .sum();
            let epochs: f64 = r
                .tenants
                .iter()
                .map(|t| t.epoch_millis.iter().sum::<f64>())
                .sum();
            let resolve: f64 = solve
                - r.tenants
                    .iter()
                    .map(|t| t.report.initial_solve_millis)
                    .sum::<f64>();
            let pool = WORKERS as f64 * r.wall_millis;
            let row = [
                r.total_resolves() as f64,
                r.tenants
                    .iter()
                    .map(|t| t.report.drift_epochs() as f64)
                    .sum(),
                r.total_periods as f64,
                r.tenants
                    .iter()
                    .map(|t| t.report.engine_cache.columns_evaluated as f64)
                    .sum(),
                solve / busy,
                (epochs - resolve) / busy,
                busy / pool,
                r.shared_cache.banks as f64,
                r.shared_cache.publishes as f64,
                r.shared_cache.adoptions as f64,
            ];
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v / n;
            }
        }
        let names = [
            "runtime.resolves",
            "runtime.drift_epochs",
            "runtime.periods",
            "runtime.engine_columns",
            "runtime.solve_share",
            "runtime.epoch_other_share",
            "fleet.busy_share",
            "fleet.shared_banks",
            "fleet.shared_publishes",
            "fleet.shared_adoptions",
        ];
        for (name, v) in names.into_iter().zip(sums) {
            out.set(name, v);
        }
        out.set("fleet.idle_share", 1.0 - sums[6]);
        // Coverage of pool time by tenant work; the rest is workers idle
        // at the round barriers.
        out.set("trace.coverage", sums[6]);

        let tenants = self.tenants(ctx.seed, self.epochs)?;
        let reference = &runs[0].0;
        let mut counted = Vec::new();
        for (i, t) in tenants.iter().take(MIX.len()).enumerate() {
            let spec = t.scenario.build(t.config.seed)?;
            tracer.borrow_mut().set_op(i as u64);
            let traced = traced_solve(tracer, &t.config.solver, &spec)?;
            let plain = OapSolver::new(t.config.solver.clone()).solve(&spec)?;
            let initial = reference.tenants[i].report.initial_objective;
            out.record(
                check_policy(&plain.policy, plain.loss, spec.n_types()).and_then(|()| {
                    (traced.matches(&plain) && traced.loss.to_bits() == initial.to_bits())
                        .then_some(())
                        .ok_or_else(|| format!("traced cold solve of tenant {} differs", t.name))
                }),
            );
            counted.push(traced);
        }
        solver_layers(out, tracer, &counted, &tenants[0].config.solver)?;
        Ok(())
    }
}

/// Output check of one tenant: healthy, and every committed policy's
/// objective finite with one threshold per type.
fn check_tenant(t: &audit_runtime::FleetTenantReport) -> Result<(), String> {
    if !t.health.is_healthy() {
        return Err(format!("tenant {} is {}", t.tenant, t.health.key()));
    }
    // The report carries each committed policy's loss and thresholds (not
    // its order mixture, which the traced cold solves check instead).
    let n_types = t.report.epochs.first().map_or(0, |e| e.thresholds.len());
    if n_types == 0 || !t.report.initial_objective.is_finite() {
        return Err(format!("tenant {} has no valid initial policy", t.tenant));
    }
    for e in &t.report.epochs {
        if !e.objective.is_finite()
            || e.thresholds.len() != n_types
            || e.thresholds.iter().any(|b| !b.is_finite())
        {
            return Err(format!(
                "tenant {} epoch {} has a bad policy",
                t.tenant, e.epoch
            ));
        }
    }
    Ok(())
}

/// Deterministic outputs of a fleet run: mean committed loss, the share of
/// strategic attacks caught, and the digest.
fn outputs(r: &FleetReport, out: &mut Outcome) {
    let losses: Vec<f64> = r
        .tenants
        .iter()
        .filter_map(|t| t.report.epochs.last().map(|e| e.objective))
        .collect();
    let launched: u64 = r
        .tenants
        .iter()
        .flat_map(|t| &t.report.epochs)
        .map(|e| e.attacks_launched)
        .sum();
    let detected: u64 = r
        .tenants
        .iter()
        .flat_map(|t| &t.report.epochs)
        .map(|e| e.attacks_detected)
        .sum();
    out.detail(
        "auditor_loss",
        "loss",
        losses.iter().sum::<f64>() / losses.len().max(1) as f64,
    );
    out.detail(
        "attack_catch_rate",
        "ratio",
        detected as f64 / launched.max(1) as f64,
    );
    out.detail("attacks_launched", "count", launched as f64);
    let mut d = Digest::default();
    d.word(r.fingerprint());
    out.digest = d.finish();
}
