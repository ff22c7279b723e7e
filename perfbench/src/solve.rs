//! The two cold-solve workloads: `solve-paper` (the paper's headline
//! configuration, exact inner solver) and `solve-rea` (Rea A, column
//! generation). Closed loop, one client: each operation is one cold
//! `OapSolver::solve` of the scenario's game on one of the run's bank
//! seeds.

use crate::common::{check_policy, ms_since, op_ref_ms, repeated_setup, same_policy, Ctx, Outcome};
use crate::reference::{scaled, Reference};
use crate::solver_trace::{overhead_pct, solver_layers, spanned, traced_solve, TracedSolve};
use crate::stats::{mean, Digest};
use crate::trace::Tracer;
use audit_game::error::GameError;
use audit_game::execute::AuditPolicy;
use audit_game::model::GameSpec;
use audit_game::solver::{InnerKind, OapSolver, SolverConfig};
use std::cell::RefCell;
use std::time::Instant;
use stochastics::rng::derive_seed;

/// Seed stream of the measured bank seeds (operation `i` uses
/// `derive_seed(seed, OP_STREAM + i)`).
const OP_STREAM: u64 = 0x5017_0000;
/// Seed stream of the warm-up solves, disjoint from the measured ones.
const WARMUP_STREAM: u64 = 0x3A2E_0000;

/// One cold-solve workload.
pub struct SolveWorkload {
    /// Registry scenario.
    pub key: &'static str,
    /// Monte-Carlo samples per bank.
    pub n_samples: usize,
    /// ISHM step size.
    pub epsilon: f64,
    /// Inner solver.
    pub inner: InnerKind,
    /// Distinct inputs (bank seeds) of an untraced run, each solved at
    /// least once whatever the clock says; `auditor_loss` covers them.
    pub inputs: usize,
    /// Operations every traced run completes; the per-layer counters
    /// average them, and the output digest covers them in both modes.
    pub traced_ops: usize,
    /// Warm-up solves per set-up.
    pub warmup: usize,
}

impl SolveWorkload {
    /// syn-a-b6 (4 types, B = 6), exact inner solver, 1000 samples, ε 0.1.
    pub fn paper(smoke: bool) -> Self {
        Self {
            key: "syn-a-b6",
            n_samples: if smoke { 100 } else { 1000 },
            epsilon: if smoke { 0.25 } else { 0.1 },
            inner: InnerKind::Exact,
            inputs: if smoke { 3 } else { 100 },
            traced_ops: if smoke { 2 } else { 32 },
            warmup: if smoke { 1 } else { 10 },
        }
    }

    /// emr-reaa (Rea A, 7 types: the planner picks CGGS), 200 samples,
    /// ε 0.5. Solve time varies about ±35% with the bank (the ISHM path
    /// differs), so a run needs many inputs for its mean to repeat across
    /// seeds; ε 0.5 halves the cost of a solve against ε 0.25 and leaves
    /// room for 80 inputs, most run once.
    pub fn rea(smoke: bool) -> Self {
        Self {
            key: "emr-reaa",
            n_samples: if smoke { 30 } else { 200 },
            epsilon: 0.5,
            inner: InnerKind::Auto,
            inputs: if smoke { 2 } else { 80 },
            traced_ops: if smoke { 1 } else { 6 },
            warmup: 1,
        }
    }

    fn config(&self, bank_seed: u64) -> SolverConfig {
        SolverConfig {
            epsilon: self.epsilon,
            n_samples: self.n_samples,
            seed: bank_seed,
            inner: self.inner,
            threads: 1,
            ..Default::default()
        }
    }

    /// Set-up: build the registry and the scenario's game, then warm up.
    fn setup(&self, ctx: &Ctx) -> Result<GameSpec, GameError> {
        let registry = alert_audit::scenario::registry();
        let scenario = registry.resolve(self.key)?;
        let spec = scenario.build(scenario.default_seed())?;
        for i in 0..self.warmup as u64 {
            let cfg = self.config(derive_seed(ctx.seed, WARMUP_STREAM + i));
            OapSolver::new(cfg).solve(&spec)?;
        }
        Ok(spec)
    }

    /// Run the workload.
    pub fn run(&self, ctx: &Ctx) -> Result<Outcome, GameError> {
        let mut reference = Reference::new(1);
        let (spec, setup_s, setup_wall_s) = repeated_setup(&mut reference, || self.setup(ctx));
        let spec = spec?;
        let mut out = Outcome::default();
        out.setup(setup_s, setup_wall_s);
        if ctx.trace {
            self.traced(ctx, &spec, &mut out)?;
        } else {
            self.untraced(ctx, &spec, &mut reference, &mut out);
        }
        out.reference(&reference);
        Ok(out)
    }

    /// Round-robin over the run's inputs: every input runs once before
    /// any repeats, and each input's repeats spread across the run. A
    /// reference-kernel pass follows every solve. Every repeat must
    /// reproduce the input's first result bit for bit.
    fn untraced(&self, ctx: &Ctx, spec: &GameSpec, reference: &mut Reference, out: &mut Outcome) {
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); self.inputs];
        let mut first: Vec<Option<(AuditPolicy, f64)>> = vec![None; self.inputs];
        let mut all = Vec::new();
        crate::heap::reset_peak();
        let t0 = Instant::now();
        let mut done = 0usize;
        while ctx.keep_going(t0, done, self.inputs) {
            let i = done % self.inputs;
            let cfg = self.config(derive_seed(ctx.seed, OP_STREAM + i as u64));
            let t = Instant::now();
            let result = OapSolver::new(cfg).solve(spec);
            let ms = ms_since(t);
            times[i].push(scaled(ms, reference.sample()));
            all.push(ms);
            out.record(result.map_err(|e| e.to_string()).and_then(|sol| {
                check_policy(&sol.policy, sol.loss, spec.n_types())?;
                match &first[i] {
                    None => first[i] = Some((sol.policy, sol.loss)),
                    Some((policy, loss)) => {
                        if !same_policy(policy, *loss, &sol.policy, sol.loss) {
                            return Err(format!("input {i} solved differently on a repeat"));
                        }
                    }
                }
                Ok(())
            }));
            done += 1;
        }
        out.set("op_ref_ms", op_ref_ms(&times).expect("at least one solve"));
        out.latency("solve_ms", &all);
        out.detail("inputs", "count", self.inputs as f64);
        let solved: Vec<&(AuditPolicy, f64)> = first.iter().flatten().collect();
        let losses: Vec<f64> = solved.iter().map(|(_, loss)| *loss).collect();
        out.detail("auditor_loss", "loss", mean(&losses).unwrap_or(f64::NAN));
        let mut digest = Digest::default();
        for (policy, loss) in solved.iter().take(self.traced_ops) {
            fold_policy(&mut digest, policy, *loss);
        }
        out.digest = digest.finish();
    }

    /// Alternate a traced and an untraced solve of each input, so the
    /// overhead estimate sees the same host phases on both sides.
    fn traced(&self, ctx: &Ctx, spec: &GameSpec, out: &mut Outcome) -> Result<(), GameError> {
        let tracer = RefCell::new(Tracer::default());
        let mut counted: Vec<TracedSolve> = Vec::new();
        let mut digest = Digest::default();
        let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        let mut i = 0usize;
        while ctx.keep_going(t0, i, self.traced_ops) {
            let cfg = self.config(derive_seed(ctx.seed, OP_STREAM + i as u64));
            tracer.borrow_mut().set_op(i as u64);
            let t = Instant::now();
            let traced = spanned(&tracer, "op", || traced_solve(&tracer, &cfg, spec));
            traced_ms.push(ms_since(t));
            let t = Instant::now();
            let plain = OapSolver::new(cfg).solve(spec);
            plain_ms.push(ms_since(t));
            let result = match (traced, plain) {
                (Ok(traced), Ok(plain)) => {
                    let ok =
                        check_policy(&plain.policy, plain.loss, spec.n_types()).and_then(|()| {
                            traced
                                .matches(&plain)
                                .then_some(())
                                .ok_or_else(|| format!("traced solve {i} differs from untraced"))
                        });
                    if i < self.traced_ops {
                        fold_policy(&mut digest, &traced.policy, traced.loss);
                        counted.push(traced);
                    }
                    ok
                }
                (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
            };
            out.record(result);
            i += 1;
        }
        let cfg = self.config(derive_seed(ctx.seed, OP_STREAM));
        solver_layers(out, &tracer, &counted, &cfg)?;
        let tr = tracer.borrow();
        let coverage = tr.coverage("op", &["solver.prepare", "bank", "ishm", "ishm.eval"]);
        out.set(
            "bank.share",
            tr.self_ms_by_name().get("bank").copied().unwrap_or(0.0)
                / tr.durations_ms("op")
                    .iter()
                    .sum::<f64>()
                    .max(f64::MIN_POSITIVE),
        );
        out.set("trace.coverage", coverage);
        out.set("trace.overhead_pct", overhead_pct(&traced_ms, &plain_ms));
        out.latency("traced_solve_ms", &traced_ms);
        crate::write_trace(ctx, &tr);
        out.digest = digest.finish();
        Ok(())
    }
}

/// Fold a committed policy and its loss into the output digest.
fn fold_policy(digest: &mut Digest, policy: &AuditPolicy, loss: f64) {
    digest.f64(loss);
    policy.thresholds.iter().for_each(|&b| digest.f64(b));
    policy.probs.iter().for_each(|&p| digest.f64(p));
    for o in &policy.orders {
        o.types().iter().for_each(|&t| digest.word(t as u64));
    }
}
