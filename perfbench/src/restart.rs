//! The `restart` workload: syn-seasonal services with a 20k-sample solver
//! bank, run to epoch 6 during set-up. Closed loop: each operation is one
//! `AuditService::checkpoint` followed by one `AuditService::restore` of
//! one service's live state (untraced, then a pass of the reference
//! kernel), taking the services in turn, and every restored state must
//! reproduce the live state's partial-report fingerprint.

use crate::common::{check_policy, ms_since, op_ref_ms, repeated_setup, same_policy, Ctx, Outcome};
use crate::reference::{scaled, Reference};
use crate::solver_trace::{overhead_pct, replay, solver_layers, spanned, traced_solve};
use crate::stats::{median, Digest};
use crate::trace::Tracer;
use audit_game::detection::{DetectionEstimator, PalEngine};
use audit_game::error::GameError;
use audit_game::persist::load_scenario_snapshot;
use audit_game::scenario::Scenario;
use audit_game::solver::OapSolver;
use audit_runtime::checkpoint::{BANK_FILE, STATE_FILE};
use audit_runtime::{AuditService, RuntimeConfig, ServiceState};
use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stochastics::rng::derive_seed;
use stochastics::snapshot::{BankReadOptions, Snapshot};

/// Registry scenario of the restarted service.
const SCENARIO: &str = "syn-seasonal";

/// Restart sizes.
pub struct RestartWorkload {
    /// Solver bank samples (the checkpoint persists this bank).
    pub n_samples: usize,
    /// Epoch the service runs to before the timed loop.
    pub stop_epoch: usize,
    /// Services of an untraced run, each with its own seed. A cycle's cost
    /// depends on the service's state (one seed's cycles took 30% longer
    /// than another's), so the run averages over several; a traced run
    /// measures the first only.
    pub services: usize,
}

/// The service and its live state after set-up.
struct Live {
    scenario: Arc<dyn Scenario>,
    service: AuditService,
    state: ServiceState,
    fingerprint: u64,
}

impl RestartWorkload {
    /// 20k samples, checkpoint at epoch 6, four services.
    pub fn new(smoke: bool) -> Self {
        Self {
            n_samples: if smoke { 500 } else { 20_000 },
            stop_epoch: if smoke { 2 } else { 6 },
            services: if smoke { 2 } else { 4 },
        }
    }

    /// Service `k` runs on seed `derive_seed(seed, 1 + k)`.
    fn setup(&self, ctx: &Ctx) -> Result<Vec<Live>, GameError> {
        let registry = alert_audit::scenario::registry();
        let scenario = registry.resolve(SCENARIO)?.clone();
        let services = if ctx.trace { 1 } else { self.services };
        (0..services as u64)
            .map(|k| {
                let mut config = RuntimeConfig {
                    seed: derive_seed(ctx.seed, 1 + k),
                    ..RuntimeConfig::default()
                };
                config.solver.n_samples = self.n_samples;
                let service = AuditService::new(Arc::clone(&scenario), config);
                let state = service.run_until(self.stop_epoch)?;
                let fingerprint = service.report(state.clone()).fingerprint();
                Ok(Live {
                    scenario: Arc::clone(&scenario),
                    service,
                    state,
                    fingerprint,
                })
            })
            .collect()
    }

    /// Run the workload.
    pub fn run(&self, ctx: &Ctx) -> Result<Outcome, GameError> {
        let mut reference = Reference::new(1);
        let (lives, setup_s, setup_wall_s) = repeated_setup(&mut reference, || self.setup(ctx));
        let lives = lives?;
        let mut out = Outcome::default();
        out.setup(setup_s, setup_wall_s);
        let dir = ctx.work_dir.join(format!("restart-{}", std::process::id()));
        crate::heap::reset_peak();
        let result = self.timed(ctx, &lives, &dir, &mut reference, &mut out);
        // Remove the checkpoint files whatever happened.
        let _ = std::fs::remove_dir_all(&dir);
        result?;
        out.reference(&reference);
        Ok(out)
    }

    fn timed(
        &self,
        ctx: &Ctx,
        lives: &[Live],
        dir: &Path,
        reference: &mut Reference,
        out: &mut Outcome,
    ) -> Result<(), GameError> {
        let tracer = RefCell::new(Tracer::default());
        let (mut save_ms, mut restore_ms, mut cycle_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut cycle_ref_ms = vec![Vec::new(); lives.len()];
        let dirs: Vec<_> = (0..lives.len()).map(|k| dir.join(k.to_string())).collect();
        let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
        let maybe_span = |on: bool, name, f: &mut dyn FnMut()| {
            if on {
                spanned(&tracer, name, f)
            } else {
                f()
            }
        };
        let t0 = Instant::now();
        let mut cycles = 0usize;
        while ctx.keep_going(t0, cycles, 3 * lives.len()) {
            let k = cycles % lives.len();
            let (live, dir) = (&lives[k], &dirs[k]);
            // A traced run records every other cycle, for the overhead.
            let traced = ctx.trace && cycles.is_multiple_of(2);
            tracer.borrow_mut().set_op(cycles as u64);
            let root = traced.then(|| tracer.borrow_mut().begin("op"));
            let t = Instant::now();
            let mut saved = Ok(());
            maybe_span(traced, "checkpoint.save", &mut || {
                saved = live.service.checkpoint(&live.state, dir)
            });
            let save = ms_since(t);
            let t = Instant::now();
            let mut restored = None;
            maybe_span(traced, "checkpoint.restore", &mut || {
                restored = Some(AuditService::restore(Arc::clone(&live.scenario), dir))
            });
            let restore = ms_since(t);
            if let Some(id) = root {
                tracer.borrow_mut().end(id);
            }
            save_ms.push(save);
            restore_ms.push(restore);
            cycle_ms.push(save + restore);
            if !ctx.trace {
                cycle_ref_ms[k].push(scaled(save + restore, reference.sample()));
            }
            if traced {
                traced_ms.push(save + restore);
            } else {
                plain_ms.push(save + restore);
            }
            let restored = restored.expect("restore ran");
            out.record(
                saved
                    .and(restored)
                    .map_err(|e| e.to_string())
                    .and_then(|(service, state)| check_restored(live, &service, state)),
            );
            cycles += 1;
        }
        if !ctx.trace {
            out.set(
                "op_ref_ms",
                op_ref_ms(&cycle_ref_ms).expect("at least one cycle"),
            );
        }
        out.detail(
            "cycle_ms_p50",
            "ms",
            median(&cycle_ms).expect("at least one cycle"),
        );
        out.latency("checkpoint_ms", &save_ms);
        out.latency("restore_ms", &restore_ms);
        outputs(lives, out);
        if ctx.trace {
            let (live, dir) = (&lives[0], &dirs[0]);
            self.layers(live, dir, &tracer, &save_ms, &restore_ms, &cycle_ms, out)?;
            let tr = tracer.borrow();
            out.set(
                "trace.coverage",
                tr.coverage("op", &["checkpoint.save", "checkpoint.restore"]),
            );
            out.set("trace.overhead_pct", overhead_pct(&traced_ms, &plain_ms));
            crate::write_trace(ctx, &tr);
        }
        Ok(())
    }

    /// Per-layer metrics: checkpoint replays on the written files, the
    /// runtime counters of the live state, and the solver layers from a
    /// traced cold solve of the live spec.
    #[allow(clippy::too_many_arguments)]
    fn layers(
        &self,
        live: &Live,
        dir: &Path,
        tracer: &RefCell<Tracer>,
        save_ms: &[f64],
        restore_ms: &[f64],
        cycle_ms: &[f64],
        out: &mut Outcome,
    ) -> Result<(), GameError> {
        let cfg = &live.service.config().solver;
        let spec = &live.state.spec;
        // The replays need the files of the last cycle.
        live.service.checkpoint(&live.state, dir)?;
        let bytes: u64 = [BANK_FILE, STATE_FILE]
            .iter()
            .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()))
            .sum();
        out.set("checkpoint.bytes", bytes as f64);
        let restore = median(restore_ms).expect("cycles ran");
        out.set(
            "checkpoint.save_share",
            median(save_ms).expect("cycles ran") / median(cycle_ms).expect("cycles ran"),
        );

        let (read_ms, loaded) = replay(|| {
            let state = Snapshot::read_from(&dir.join(STATE_FILE));
            let bank = load_scenario_snapshot(&dir.join(BANK_FILE), BankReadOptions::default());
            state.is_ok().then_some(bank)
        });
        let loaded = loaded
            .and_then(Result::ok)
            .ok_or_else(|| GameError::InvalidConfig("checkpoint files do not read back".into()))?;
        out.set("checkpoint.read_share", read_ms / restore);

        let (verify_ms, regen) = replay(|| spec.sample_bank(cfg.n_samples, cfg.seed));
        out.record(
            (regen.columns_flat() == loaded.bank.columns_flat())
                .then_some(())
                .ok_or_else(|| "regenerated bank differs from the checkpoint".into()),
        );
        out.set("checkpoint.verify_bank_share", verify_ms / restore);

        let (pal_ms, predicted) = replay(|| {
            let est = DetectionEstimator::new(spec, &regen, cfg.detection);
            live.state
                .policy
                .expected_pal(&PalEngine::new(est, cfg.threads))
        });
        out.record(
            (bits(&predicted) == bits(&live.state.predicted))
                .then_some(())
                .ok_or_else(|| "recomputed predicted Pal differs from the live state".into()),
        );
        out.set("checkpoint.predicted_pal_share", pal_ms / restore);

        let records = &live.state.records;
        out.set(
            "runtime.resolves",
            records.iter().filter(|e| e.resolved).count() as f64,
        );
        out.set(
            "runtime.drift_epochs",
            records.iter().filter(|e| e.drift).count() as f64,
        );
        out.set(
            "runtime.periods",
            records.iter().map(|e| e.periods as f64).sum(),
        );
        out.set(
            "runtime.engine_columns",
            live.state.engine_cache.columns_evaluated as f64,
        );

        // Operation ids past every cycle keep the solve out of coverage.
        tracer.borrow_mut().set_op(u64::MAX);
        let traced = traced_solve(tracer, cfg, spec)?;
        let plain = OapSolver::new(cfg.clone()).solve(spec)?;
        out.record(
            check_policy(&plain.policy, plain.loss, spec.n_types()).and_then(|()| {
                traced
                    .matches(&plain)
                    .then_some(())
                    .ok_or_else(|| "traced solve of the live spec differs from untraced".into())
            }),
        );
        solver_layers(out, tracer, &[traced], cfg)
    }
}

/// Deterministic outputs of the live states: mean loss, strategic attacks,
/// and the digest.
fn outputs(lives: &[Live], out: &mut Outcome) {
    let records = lives.iter().flat_map(|l| &l.state.records);
    let launched: u64 = records.clone().map(|e| e.attacks_launched).sum();
    let detected: u64 = records.map(|e| e.attacks_detected).sum();
    let losses: f64 = lives.iter().map(|l| l.state.loss).sum();
    out.detail("auditor_loss", "loss", losses / lives.len() as f64);
    // syn-seasonal's attacker is rational: it launches no strategic
    // attacks, so there is no catch rate to report.
    if launched > 0 {
        out.detail(
            "attack_catch_rate",
            "ratio",
            detected as f64 / launched as f64,
        );
    }
    out.detail("attacks_launched", "count", launched as f64);
    let mut d = Digest::default();
    for live in lives {
        d.word(live.fingerprint);
        live.state.predicted.iter().for_each(|&p| d.f64(p));
        d.f64(live.state.loss);
    }
    out.digest = d.finish();
}

/// A restored state must equal the live one: partial-report fingerprint,
/// predicted `Pal` bits, and the committed policy and loss.
fn check_restored(live: &Live, service: &AuditService, state: ServiceState) -> Result<(), String> {
    check_policy(&state.policy, state.loss, state.spec.n_types())?;
    if !same_policy(
        &state.policy,
        state.loss,
        &live.state.policy,
        live.state.loss,
    ) {
        return Err("restored policy differs from the live one".into());
    }
    if bits(&state.predicted) != bits(&live.state.predicted) {
        return Err("restored predicted Pal differs from the live one".into());
    }
    let fingerprint = service.report(state).fingerprint();
    if fingerprint != live.fingerprint {
        return Err(format!(
            "restored fingerprint {fingerprint:016x} != live {:016x}",
            live.fingerprint
        ));
    }
    Ok(())
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}
