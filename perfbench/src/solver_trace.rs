//! The traced solve and the per-layer replays.
//!
//! [`traced_solve`] repeats what `OapSolver::solve` does (no warm start,
//! no work budget) step by step through the public API, with a span
//! around each layer: `solver.prepare` (action dedup and evaluator
//! construction), `bank` (`GameSpec::sample_bank`), `ishm`
//! (`Ishm::solve`) and `ishm.eval` (every `ThresholdEvaluator` call,
//! through [`TracedEvaluator`]). Its result must be bit-identical to the
//! untraced solve; the workloads check that.
//!
//! The replays ([`replay_detection`], [`replay_master`]) are extra calls
//! that price one unit of a layer's work at a committed point. They run
//! outside any operation span, so they never count towards coverage.

use crate::common::{ms_since, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use audit_game::cggs::CggsConfig;
use audit_game::detection::{CacheStats, DetectionEstimator, PalEngine, PalQuery};
use audit_game::error::GameError;
use audit_game::execute::AuditPolicy;
use audit_game::ishm::{
    CggsEvaluator, ExactEvaluator, Ishm, IshmConfig, SearchStats, ThresholdEvaluator,
};
use audit_game::master::{MasterSolution, MasterSolver};
use audit_game::model::GameSpec;
use audit_game::ordering::AuditOrder;
use audit_game::payoff::PayoffMatrix;
use audit_game::planner::{DecomposedEvaluator, SolveStrategy};
use audit_game::solver::{AuditSolution, OapSolver, SolverConfig};
use std::cell::RefCell;
use std::time::Instant;
use stochastics::SampleBank;

/// Minimum wall time one replay measurement accumulates.
const REPLAY_MIN_MS: f64 = 20.0;

/// Run `f` inside a span named `name`.
pub fn spanned<T>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = tracer.borrow_mut().begin(name);
    let out = f();
    tracer.borrow_mut().end(id);
    out
}

/// A [`ThresholdEvaluator`] that records an `ishm.eval` span around every
/// call into the evaluator it wraps.
pub struct TracedEvaluator<'t, E> {
    inner: E,
    tracer: &'t RefCell<Tracer>,
    calls: usize,
}

impl<E: ThresholdEvaluator> ThresholdEvaluator for TracedEvaluator<'_, E> {
    fn evaluate(&mut self, thresholds: &[f64]) -> Result<f64, GameError> {
        self.calls += 1;
        spanned(self.tracer, "ishm.eval", || self.inner.evaluate(thresholds))
    }

    fn solve_full(
        &mut self,
        thresholds: &[f64],
    ) -> Result<(MasterSolution, Vec<AuditOrder>), GameError> {
        self.calls += 1;
        spanned(self.tracer, "ishm.eval", || {
            self.inner.solve_full(thresholds)
        })
    }

    fn prime(&mut self, candidates: &[Vec<f64>]) -> Result<(), GameError> {
        self.calls += 1;
        spanned(self.tracer, "ishm.eval", || self.inner.prime(candidates))
    }
}

/// Result of one traced solve, plus what the replays need.
pub struct TracedSolve {
    /// The committed policy.
    pub policy: AuditPolicy,
    /// Its loss.
    pub loss: f64,
    /// The committed master.
    pub master: MasterSolution,
    /// ISHM counters.
    pub stats: SearchStats,
    /// Engine counters.
    pub cache: CacheStats,
    /// Calls into the evaluator.
    pub eval_calls: usize,
    /// The dedup-applied spec the solve ran on.
    pub working: GameSpec,
    /// The sample bank it drew.
    pub bank: SampleBank,
}

impl TracedSolve {
    /// Whether this matches the untraced solution bit for bit, counters
    /// included.
    pub fn matches(&self, sol: &AuditSolution) -> bool {
        crate::common::same_policy(&self.policy, self.loss, &sol.policy, sol.loss)
            && self.stats.thresholds_explored == sol.stats.thresholds_explored
            && self.stats.improvements == sol.stats.improvements
            && self.master.lp_iterations == sol.master.lp_iterations
            && self.cache == sol.cache
    }
}

/// Run ISHM over `eval` inside an `ishm` span; `engine` reads the
/// evaluator's engine counters afterwards.
fn run_ishm<E: ThresholdEvaluator>(
    tracer: &RefCell<Tracer>,
    ishm: &Ishm,
    working: &GameSpec,
    eval: E,
    engine: impl Fn(&E) -> CacheStats,
) -> Result<(audit_game::ishm::IshmOutcome, CacheStats, usize), GameError> {
    let mut traced = TracedEvaluator {
        inner: eval,
        tracer,
        calls: 0,
    };
    let outcome = spanned(tracer, "ishm", || ishm.solve(working, &mut traced))?;
    Ok((outcome, engine(&traced.inner), traced.calls))
}

/// `OapSolver::new(cfg).solve(spec)`, step by step, with spans.
pub fn traced_solve(
    tracer: &RefCell<Tracer>,
    cfg: &SolverConfig,
    spec: &GameSpec,
) -> Result<TracedSolve, GameError> {
    spec.validate()?;
    if cfg.n_samples == 0 {
        return Err(GameError::InvalidConfig(
            "n_samples must be positive".into(),
        ));
    }
    assert!(
        cfg.work_budget.is_none(),
        "the traced solve mirrors the unbudgeted path only"
    );
    let working = spanned(tracer, "solver.prepare", || {
        if cfg.dedup_actions {
            spec.dedup_actions()
        } else {
            spec.clone()
        }
    });
    let bank = spanned(tracer, "bank", || {
        working.sample_bank(cfg.n_samples, cfg.seed)
    });
    let strategy = OapSolver::new(cfg.clone()).strategy_for(spec, &working);
    let est = DetectionEstimator::new(&working, &bank, cfg.detection);
    let ishm = Ishm::new(IshmConfig {
        epsilon: cfg.epsilon,
        initial_thresholds: None,
        max_level: strategy.level_cap(),
        eval_budget: None,
        ..Default::default()
    });
    let (outcome, cache, eval_calls) = match strategy {
        SolveStrategy::Exact => {
            let eval = spanned(tracer, "solver.prepare", || {
                ExactEvaluator::with_threads(&working, est, cfg.threads)
            });
            run_ishm(tracer, &ishm, &working, eval, |e| e.engine().cache_stats())?
        }
        SolveStrategy::Cggs => {
            let eval = spanned(tracer, "solver.prepare", || {
                CggsEvaluator::new(
                    &working,
                    est,
                    CggsConfig {
                        threads: cfg.threads,
                        ..Default::default()
                    },
                )
            });
            run_ishm(tracer, &ishm, &working, eval, |e| e.engine().cache_stats())?
        }
        SolveStrategy::Decomposed { .. } => {
            let eval = spanned(tracer, "solver.prepare", || {
                DecomposedEvaluator::new(&working, est, cfg.threads, Vec::new())
            });
            run_ishm(tracer, &ishm, &working, eval, |e| e.engine().cache_stats())?
        }
    };
    let policy = AuditPolicy::new(
        outcome.thresholds.clone(),
        outcome.orders.clone(),
        outcome.master.p_orders.clone(),
    );
    Ok(TracedSolve {
        policy,
        loss: outcome.value,
        master: outcome.master,
        stats: outcome.stats,
        cache,
        eval_calls,
        working,
        bank,
    })
}

/// Repeat `f` until [`REPLAY_MIN_MS`] have passed (at least 3 times);
/// returns the median milliseconds per call and the last result.
pub fn replay<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        times.push(ms_since(t));
        if times.len() >= 3 && ms_since(t0) >= REPLAY_MIN_MS {
            return (median(&times).expect("non-empty"), out);
        }
    }
}

/// Nanoseconds per column pass of an uncached `pal_batch` over the
/// committed orders at the committed thresholds.
pub fn replay_detection(t: &TracedSolve, cfg: &SolverConfig) -> f64 {
    let est = DetectionEstimator::new(&t.working, &t.bank, cfg.detection);
    let queries: Vec<PalQuery> = t
        .policy
        .orders
        .iter()
        .map(|o| PalQuery::full(o, &t.policy.thresholds))
        .collect();
    let (ms, columns) = replay(|| {
        let engine = PalEngine::uncached(est, 1);
        engine.pal_batch(&queries);
        engine.cache_stats().columns_evaluated
    });
    ms * 1e6 / columns.max(1) as f64
}

/// Microseconds of one `MasterSolver::solve` on the payoff matrix at the
/// committed point, and its pivots.
pub fn replay_master(t: &TracedSolve, cfg: &SolverConfig) -> Result<(f64, usize), GameError> {
    let est = DetectionEstimator::new(&t.working, &t.bank, cfg.detection);
    let engine = PalEngine::new(est, 1);
    let matrix = PayoffMatrix::build_with_engine(
        &t.working,
        &engine,
        t.policy.orders.clone(),
        &t.policy.thresholds,
    );
    let (ms, sol) = replay(|| MasterSolver::solve(&t.working, &matrix));
    Ok((ms * 1e3, sol?.lp_iterations))
}

/// Set the solver-layer metrics from traced solves: `counted` supplies the
/// deterministic counters (a fixed set of solves), `timed` the times
/// (every traced solve), and the replays price the first counted solve.
pub fn solver_layers(
    out: &mut Outcome,
    tracer: &RefCell<Tracer>,
    counted: &[TracedSolve],
    cfg: &SolverConfig,
) -> Result<(), GameError> {
    let n = counted.len().max(1) as f64;
    let sum = |f: &dyn Fn(&TracedSolve) -> f64| counted.iter().map(f).sum::<f64>();
    out.set("solver.solves", counted.len() as f64);
    out.set(
        "detection.columns_evaluated",
        sum(&|t| t.cache.columns_evaluated as f64) / n,
    );
    out.set(
        "detection.columns_saved",
        sum(&|t| t.cache.columns_saved as f64) / n,
    );
    let hits = sum(&|t| t.cache.hits as f64);
    let lookups = hits + sum(&|t| t.cache.misses as f64);
    out.set(
        "detection.estimate_hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    out.set(
        "detection.state_hits",
        sum(&|t| t.cache.state_hits as f64) / n,
    );
    out.set(
        "detection.evictions",
        sum(&|t| (t.cache.evictions + t.cache.state_evictions) as f64) / n,
    );
    out.set(
        "master.lp_iterations",
        sum(&|t| t.master.lp_iterations as f64) / n,
    );
    out.set(
        "ishm.thresholds_explored",
        sum(&|t| t.stats.thresholds_explored as f64) / n,
    );
    out.set(
        "ishm.improvements",
        sum(&|t| t.stats.improvements as f64) / n,
    );
    out.set("ishm.eval_calls", sum(&|t| t.eval_calls as f64) / n);

    // Times: mean per solve over every traced solve in the run.
    let tr = tracer.borrow();
    let solves = tr.durations_ms("ishm").len().max(1) as f64;
    let per_solve = |name: &str| tr.durations_ms(name).iter().sum::<f64>() / solves;
    out.set("bank.ms", per_solve("bank"));
    out.set("ishm.eval_ms", per_solve("ishm.eval"));
    out.set("solver.prepare_ms", per_solve("solver.prepare"));
    let ishm_self = tr.self_ms_by_name().get("ishm").copied().unwrap_or(0.0);
    out.set("ishm.self_ms", ishm_self / solves);
    drop(tr);

    let first = counted.first().expect("at least one counted solve");
    out.set(
        "detection.replay_ns_per_column",
        replay_detection(first, cfg),
    );
    let (us, pivots) = replay_master(first, cfg)?;
    out.set("master.replay_us", us);
    out.set("master.replay_us_per_pivot", us / pivots.max(1) as f64);
    Ok(())
}

/// Tracing overhead in percent: traced over untraced median op time.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    match (median(traced_ms), median(untraced_ms)) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    }
}
