//! The deterministic epoch loop: execute, observe, gate, re-solve.
//!
//! [`AuditService`] turns a registry scenario into a long-running
//! operational auditor. Per **period** it executes the committed
//! [`AuditPolicy`] on the next alert vector of the scenario's stream; per
//! **epoch** (a fixed number of periods) it evaluates the drift gate and,
//! only when the committed count model no longer explains the recent
//! window, refits the per-type distributions and re-solves the game —
//! **warm-started** from the incumbent solution so the service interrupts
//! itself as briefly as possible. Telemetry is recorded every epoch.
//!
//! The loop is **restartable**: all mutable state lives in a
//! [`ServiceState`] that advances one epoch at a time, so a run can be
//! cut at any epoch boundary ([`AuditService::run_until`]), persisted
//! ([`AuditService::checkpoint`]), reloaded in a fresh process
//! ([`AuditService::restore`]) and resumed ([`AuditService::resume`])
//! with a [`RuntimeReport`] fingerprint **bit-identical** to an
//! uninterrupted run. Two design choices make that exactness cheap:
//!
//! * execution randomness is drawn from a **per-period** derived stream
//!   (`stream_rng(seed, EXEC_STREAM_BASE ^ period_index)`) rather than
//!   one run-long generator, so no RNG state ever needs persisting — the
//!   restored process re-derives the stream of every remaining period;
//! * everything else the loop carries (spec, policy, drift tracker,
//!   telemetry) is either persisted bit-exactly or recomputed from
//!   persisted inputs through the same deterministic constructors (the
//!   alert stream, the solver sample bank, the predicted `Pal` vector).
//!
//! Determinism: given the same [`RuntimeConfig`], the run is bit-identical
//! across reruns and solver thread counts (the engine guarantees
//! thread-invariant solves). Wall-clock latencies are measured but
//! excluded from the telemetry fingerprint.

use crate::online::{DriftConfig, OnlineFit};
use crate::supervisor::{FaultInjector, FaultSite};
use crate::telemetry::{EpochTelemetry, RuntimeReport};
use audit_game::attacker::AttackerModel;
use audit_game::detection::CacheStats;
use audit_game::error::GameError;
use audit_game::execute::{execute_policy, AuditPolicy, RealizedAlert};
use audit_game::model::GameSpec;
use audit_game::payoff::action_utility;
use audit_game::persist::PersistError;
use audit_game::scenario::Scenario;
use audit_game::solver::{DegradeReason, InnerKind, OapSolver, SolverConfig, WarmStart};
use rand::Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stochastics::rng::stream_rng;

/// High bits of the execution-randomness stream ids: period `i` executes
/// with `stream_rng(seed, EXEC_STREAM_BASE ^ i)`. Disjoint by construction
/// from the scenario build/stream and solver bank streams, and derived
/// (not carried), so checkpoint/restore never persists RNG state.
pub const EXEC_STREAM_BASE: u64 = 0x0E0C_0000_0000_0000;

/// High bits of the strategic-attack randomness streams: period `i` of a
/// non-rational scenario draws its attack traffic from
/// `stream_rng(seed, ATTACK_STREAM_BASE ^ i)`. Disjoint from
/// [`EXEC_STREAM_BASE`] and every scenario/solver stream; rational
/// scenarios never touch it, keeping their runs bit-identical to the
/// pre-seam behaviour.
pub const ATTACK_STREAM_BASE: u64 = 0x0A77_0000_0000_0000;

/// Minimum incumbent age, in epochs, before a drift verdict may trigger a
/// re-solve: the epoch right after a re-solve ignores the gate.
const COOLDOWN_EPOCHS: usize = 1;

/// Configuration of one service run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Epochs to simulate.
    pub epochs: usize,
    /// Periods per epoch (the drift gate runs at epoch boundaries).
    pub periods_per_epoch: usize,
    /// Master seed: drives the scenario build, the alert stream, the
    /// execution randomness, and the solver sample banks.
    pub seed: u64,
    /// Solver configuration for the initial solve and every re-solve.
    pub solver: SolverConfig,
    /// Drift gate configuration.
    pub drift: DriftConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            epochs: 24,
            periods_per_epoch: 5,
            seed: 0,
            solver: SolverConfig {
                // Column generation by default: the online path exercises
                // both warm-start seams (ISHM start + CGGS seed columns).
                inner: InnerKind::Cggs,
                n_samples: 200,
                epsilon: 0.25,
                ..Default::default()
            },
            drift: DriftConfig::default(),
        }
    }
}

/// Warm-start state for re-solving `new` after a drift away from `old`.
///
/// The incumbent's support orders seed the CGGS column pool, and the ISHM
/// search starts from a vector **bracketing the incumbent from above**:
/// per type, the larger of
///
/// * the incumbent threshold rescaled by the growth of that type's
///   full-coverage bound (ISHM only ever shrinks, so an upward drift must
///   raise the starting point for the new optimum to stay reachable), and
/// * the **budget-saturation point** `B` — a per-type threshold at or
///   above the whole period budget can never bind (audits of one type
///   cannot outspend the total budget), so starting there is
///   value-equivalent to the cold full-coverage start while keeping the
///   ε-shrink lattice dense over the range where thresholds actually
///   matter. This is what makes the warm re-solve safe: its starting
///   objective equals the cold start's, and the search can only improve
///   from there.
///
/// rounded up to the audit-cost lattice and clamped to the new coverage
/// bounds.
pub fn warm_start_rescaled(policy: &AuditPolicy, old: &GameSpec, new: &GameSpec) -> WarmStart {
    let old_ub = old.threshold_upper_bounds();
    let new_ub = new.threshold_upper_bounds();
    let costs = new.audit_costs();
    let thresholds = policy
        .thresholds
        .iter()
        .enumerate()
        .map(|(t, &b)| {
            let scale = if old_ub[t] > 0.0 {
                (new_ub[t] / old_ub[t]).max(1.0)
            } else {
                1.0
            };
            let bracket = (b * scale).max(new.budget);
            let lattice = (bracket / costs[t]).ceil() * costs[t];
            lattice.min(new_ub[t])
        })
        .collect();
    WarmStart {
        thresholds: Some(thresholds),
        orders: policy.orders.clone(),
    }
}

/// The complete mutable state of the epoch loop between two epoch
/// boundaries — everything [`AuditService::run`] carries from one epoch
/// to the next, and exactly what a checkpoint persists (plus the spec's
/// sample bank; the alert stream and predicted-`Pal` vector are
/// recomputed from it deterministically on restore).
///
/// Invariants (verified on restore): `records.len() == epoch`, the drift
/// tracker has observed `epoch · periods_per_epoch` periods, and
/// `next_alert_id` equals the total alert count over all records.
#[derive(Debug, Clone)]
pub struct ServiceState {
    /// Next epoch to run; epochs `0..epoch` are recorded in `records`.
    pub epoch: usize,
    /// The committed game — the scenario's build at the config seed, or
    /// the latest refit spec after a re-solve epoch.
    pub spec: GameSpec,
    /// The incumbent committed policy.
    pub policy: AuditPolicy,
    /// Predicted loss of the incumbent policy.
    pub loss: f64,
    /// Detection-engine counters over the initial solve and every
    /// committed re-solve so far.
    pub engine_cache: CacheStats,
    /// The streaming drift tracker.
    pub fit: OnlineFit,
    /// Id the next realized alert will take (global, monotone).
    pub next_alert_id: u64,
    /// Incumbent age in epochs, as seen by the drift gate.
    pub epochs_since_resolve: usize,
    /// Objective of the initial (cold) solve.
    pub initial_objective: f64,
    /// Wall-clock milliseconds of the initial solve.
    pub initial_solve_millis: f64,
    /// The incumbent policy's predicted mixture `Pal` per type: the
    /// committed solve's [`audit_game::solver::AuditSolution::expected_pal`].
    /// Derived state: recomputed (bit-identically) on restore from
    /// `policy` over the checkpoint's verified sample bank.
    pub predicted: Vec<f64>,
    /// The strategic attacker's belief over per-type detection
    /// probabilities: an EWMA of the *published* predicted `Pal` vectors,
    /// updated at every epoch boundary with the scenario's learning rate.
    /// Starts at zero (the attacker has seen no policy yet). Persisted in
    /// checkpoints — unlike `predicted` it depends on the whole policy
    /// history, not just the incumbent.
    pub attacker_belief: Vec<f64>,
    /// Telemetry of the epochs already run.
    pub records: Vec<EpochTelemetry>,
}

/// The long-running epoch-based auditing service over one scenario.
pub struct AuditService {
    scenario: Arc<dyn Scenario>,
    config: RuntimeConfig,
    injector: Option<FaultInjector>,
}

impl AuditService {
    /// Build a service over `scenario`.
    pub fn new(scenario: Arc<dyn Scenario>, config: RuntimeConfig) -> Self {
        assert!(config.epochs > 0, "need at least one epoch");
        assert!(config.periods_per_epoch > 0, "need at least one period");
        Self {
            scenario,
            config,
            injector: None,
        }
    }

    /// Attach a deterministic fault injector (see [`crate::supervisor`]).
    /// The service consults it at every named [`FaultSite`]; with no
    /// injector — or an empty plan — every consultation is free of side
    /// effects and the run is bit-identical to an uninstrumented one.
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Injector-fires check for one `(round, site)`, a no-op without one.
    fn fault(&self, round: usize, site: FaultSite) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.fires(round, site))
    }

    /// The configuration the service runs under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The scenario the service runs on.
    pub fn scenario(&self) -> &Arc<dyn Scenario> {
        &self.scenario
    }

    /// Run the full epoch loop and return the telemetry report.
    pub fn run(&self) -> Result<RuntimeReport, GameError> {
        let state = self.run_until(self.config.epochs)?;
        Ok(self.report(state))
    }

    /// Run the loop from a cold start up to (but not including)
    /// `stop_epoch`, returning the live state — the checkpointable half
    /// of [`AuditService::run`]. `stop_epoch >= epochs` runs to the end.
    pub fn run_until(&self, stop_epoch: usize) -> Result<ServiceState, GameError> {
        let mut state = self.start_state()?;
        self.advance(&mut state, stop_epoch)?;
        Ok(state)
    }

    /// Resume a state (from [`AuditService::run_until`] or
    /// [`AuditService::restore`]) through the remaining epochs and return
    /// the full report. The result is bit-identical — fingerprint and
    /// all — to an uninterrupted [`AuditService::run`], wall-clock
    /// latency fields aside.
    pub fn resume(&self, mut state: ServiceState) -> Result<RuntimeReport, GameError> {
        self.advance(&mut state, self.config.epochs)?;
        Ok(self.report(state))
    }

    /// Assemble the telemetry report of a (fully or partially) run state.
    pub fn report(&self, state: ServiceState) -> RuntimeReport {
        RuntimeReport {
            scenario: self.scenario.key().to_string(),
            seed: self.config.seed,
            periods_per_epoch: self.config.periods_per_epoch,
            initial_objective: state.initial_objective,
            initial_solve_millis: state.initial_solve_millis,
            engine_cache: state.engine_cache,
            epochs: state.records,
        }
    }

    /// Persist the state (spec + solver sample bank, incumbent policy,
    /// drift tracker, epoch cursor, telemetry chain) to `dir`, from which
    /// [`AuditService::restore`] can resume in a fresh process. See
    /// [`crate::checkpoint`] for the on-disk layout.
    pub fn checkpoint(&self, state: &ServiceState, dir: &Path) -> Result<(), GameError> {
        crate::checkpoint::save_checkpoint(dir, self.scenario.key(), &self.config, state)
            .map_err(GameError::from)
    }

    /// Reload a checkpoint written by [`AuditService::checkpoint`],
    /// rebuilding the service (the configuration is carried by the
    /// checkpoint) and the mid-run state. `scenario` must be the same
    /// registry scenario the checkpoint was taken from — the persisted
    /// alert stream is *not* stored and is re-derived from it.
    pub fn restore(
        scenario: Arc<dyn Scenario>,
        dir: &Path,
    ) -> Result<(AuditService, ServiceState), GameError> {
        let loaded = crate::checkpoint::load_checkpoint(dir)?;
        if loaded.scenario_key != scenario.key() {
            return Err(GameError::Persist(PersistError::Provenance(format!(
                "checkpoint was taken on scenario '{}', not '{}'",
                loaded.scenario_key,
                scenario.key()
            ))));
        }
        Ok((AuditService::new(scenario, loaded.config), loaded.state))
    }

    /// The scenario's full alert stream for this service's horizon — the
    /// input [`AuditService::advance_with_stream`] consumes. Split out so
    /// a caller stepping one epoch at a time (the fleet) derives it once
    /// instead of per epoch.
    pub fn full_alert_stream(&self) -> Result<Vec<Vec<u64>>, GameError> {
        self.scenario.alert_stream(
            self.config.seed,
            self.config.epochs * self.config.periods_per_epoch,
        )
    }

    /// Run epochs until `stop` (clamped to the configured horizon) over a
    /// caller-held alert stream (from [`AuditService::full_alert_stream`]).
    /// Bit-identical to [`AuditService::run_until`]/resume, which derive
    /// the same stream — it is deterministic in `(seed, horizon)`.
    pub fn advance_with_stream(
        &self,
        state: &mut ServiceState,
        stop: usize,
        stream: &[Vec<u64>],
    ) -> Result<(), GameError> {
        let stop = stop.min(self.config.epochs);
        while state.epoch < stop {
            self.run_epoch(state, stream)?;
        }
        Ok(())
    }

    /// Cold start: build and solve the scenario and arm the drift
    /// tracker, returning the live state without running any epoch — the
    /// first half of [`AuditService::run_until`], and the seam for callers
    /// that step the loop themselves (`crate::fleet`, `exp_online
    /// --compare-cold`).
    pub fn start_state(&self) -> Result<ServiceState, GameError> {
        // Round 0 is the cold start in the fault plan's round keying.
        if self.fault(0, FaultSite::SolverPanic) {
            panic!(
                "injected fault: solver-panic at cold start of tenant '{}'",
                self.injector.as_ref().map_or("", |i| i.tenant())
            );
        }
        let cfg = &self.config;
        let spec = self.scenario.build(cfg.seed)?;
        spec.validate()?;
        let n = spec.n_types();
        let solver = OapSolver::new(cfg.solver.clone());

        let t0 = Instant::now();
        let solution = solver.solve(&spec)?;
        let initial_solve_millis = millis_since(t0);

        Ok(ServiceState {
            epoch: 0,
            spec,
            predicted: solution.expected_pal,
            attacker_belief: vec![0.0; n],
            loss: solution.loss,
            engine_cache: solution.cache,
            policy: solution.policy,
            fit: OnlineFit::new(n, cfg.drift.window_periods),
            next_alert_id: 0,
            epochs_since_resolve: 0,
            initial_objective: solution.loss,
            initial_solve_millis,
            records: Vec::with_capacity(cfg.epochs),
        })
    }

    /// [`AuditService::advance_with_stream`] over the derived stream,
    /// which is only derived when an epoch remains to run.
    fn advance(&self, state: &mut ServiceState, stop: usize) -> Result<(), GameError> {
        if state.epoch >= stop.min(self.config.epochs) {
            return Ok(());
        }
        self.advance_with_stream(state, stop, &self.full_alert_stream()?)
    }

    /// Execute one epoch: run the committed policy period by period, gate
    /// on drift, optionally re-solve, and record telemetry.
    fn run_epoch(&self, st: &mut ServiceState, stream: &[Vec<u64>]) -> Result<(), GameError> {
        let cfg = &self.config;
        let epoch = st.epoch;
        let n = st.spec.n_types();
        let model = self.scenario.attacker_model();

        // --- injected faults (round r ≥ 1 runs epoch r − 1) ---
        // All consultations happen up front, in a fixed order, so a fault
        // plan perturbs exactly the epoch it names regardless of which
        // branch the epoch later takes. Each fires at most once per plan
        // entry (see `FaultInjector::fires`).
        let round = epoch + 1;
        if self.fault(round, FaultSite::SolverPanic) {
            panic!(
                "injected fault: solver-panic in epoch {epoch} of tenant '{}'",
                self.injector.as_ref().map_or("", |i| i.tenant())
            );
        }
        if self.fault(round, FaultSite::MalformedEpoch) {
            // A truncated period row, surfaced through the same typed
            // rejection real malformed input gets below.
            return Err(GameError::MalformedStream {
                period: epoch * cfg.periods_per_epoch,
                expected: n,
                got: n.saturating_sub(1),
            });
        }
        let empty_epoch = self.fault(round, FaultSite::EmptyEpoch);
        let budget_fault = self.fault(round, FaultSite::BudgetExhaust);
        let solve_fault = self.fault(round, FaultSite::SolveError);
        // The injected budget exhaustion re-solves under a one-evaluation
        // work budget.
        let mut scfg = self.config.solver.clone();
        if budget_fault {
            scfg.work_budget = Some(1);
        }
        let solver = OapSolver::new(scfg);

        // --- execute the committed policy, one period at a time ---
        let mut seen = vec![0u64; n];
        let mut audited = vec![0u64; n];
        let mut spent = 0.0f64;
        let mut attacks_launched = 0u64;
        let mut attacks_detected = 0u64;
        let mut attacker_utility = 0.0f64;
        let mut auditor_damage = 0.0f64;
        let damage_model = model.damage_model();
        for period in 0..cfg.periods_per_epoch {
            let period_index = epoch * cfg.periods_per_epoch + period;
            // Malformed input is rejected with a typed error before any
            // state mutates — an out-of-arity row would otherwise panic
            // on the per-type index below (or silently drop types).
            let raw = stream.get(period_index).ok_or(GameError::MalformedStream {
                period: period_index,
                expected: n,
                got: 0,
            })?;
            if raw.len() != n {
                return Err(GameError::MalformedStream {
                    period: period_index,
                    expected: n,
                    got: raw.len(),
                });
            }
            // An injected empty epoch models an upstream TDMT outage: the
            // feed delivers, but every count is zero. Everything else —
            // attack traffic, execution randomness — is untouched.
            let zero_row;
            let row = if empty_epoch {
                zero_row = vec![0u64; n];
                &zero_row
            } else {
                raw
            };
            let mut alerts = Vec::with_capacity(row.iter().map(|&z| z as usize).sum());
            for (t, &z) in row.iter().enumerate() {
                seen[t] += z;
                for _ in 0..z {
                    alerts.push(RealizedAlert {
                        alert_type: t,
                        id: st.next_alert_id,
                    });
                    st.next_alert_id += 1;
                }
            }
            // --- strategic attack traffic (non-rational scenarios only) ---
            // Each active attacker responds to its belief about the
            // committed policy: the adaptive model's EWMA over published
            // policies, or the current published prediction otherwise.
            // Rational scenarios inject nothing and draw no randomness, so
            // their runs stay bit-identical to the pre-seam service.
            let mut pending: Vec<(Option<RealizedAlert>, f64, f64, f64)> = Vec::new();
            let mut observed = if model.is_rational() {
                Vec::new()
            } else {
                row.clone()
            };
            if !model.is_rational() {
                let belief = if matches!(model, AttackerModel::Adaptive(_)) {
                    &st.attacker_belief
                } else {
                    &st.predicted
                };
                let mut attack_rng = stream_rng(cfg.seed, ATTACK_STREAM_BASE ^ period_index as u64);
                for att in &st.spec.attackers {
                    if att.actions.is_empty()
                        || !attack_rng.gen_bool(att.attack_prob.clamp(0.0, 1.0))
                    {
                        continue;
                    }
                    let utilities: Vec<f64> = att
                        .actions
                        .iter()
                        .map(|a| action_utility(a, belief))
                        .collect();
                    let Some(pick) =
                        model.choose_action(&utilities, st.spec.allow_opt_out, &mut attack_rng)
                    else {
                        continue; // deterred
                    };
                    let action = &att.actions[pick];
                    attacks_launched += 1;
                    // The attack raises at most one alert: `alert_probs`
                    // are mutually exclusive type probabilities (that is
                    // what makes `Pat = Σ_t P^t · Pal_t` exact).
                    let u: f64 = attack_rng.gen();
                    let mut acc = 0.0;
                    let mut raised = None;
                    for &(t, p) in &action.alert_probs {
                        acc += p;
                        if u <= acc {
                            let alert = RealizedAlert {
                                alert_type: t,
                                id: st.next_alert_id,
                            };
                            st.next_alert_id += 1;
                            seen[t] += 1;
                            observed[t] += 1;
                            alerts.push(alert.clone());
                            raised = Some(alert);
                            break;
                        }
                    }
                    pending.push((raised, action.reward, action.attack_cost, action.penalty));
                }
            }
            // Execution randomness is a fresh derived stream per period,
            // so a restored run re-derives the exact remaining streams
            // without any generator state in the checkpoint.
            let mut exec_rng = stream_rng(cfg.seed, EXEC_STREAM_BASE ^ period_index as u64);
            let run = execute_policy(&st.policy, &st.spec, &alerts, &mut exec_rng);
            for (t, ids) in run.audited.iter().enumerate() {
                audited[t] += ids.len() as u64;
            }
            spent += run.spent;
            for (raised, reward, cost, penalty) in pending {
                let caught = raised.as_ref().is_some_and(|a| run.contains(a));
                if caught {
                    attacks_detected += 1;
                    attacker_utility += -penalty - cost;
                    auditor_damage -= damage_model.recovery_per_penalty * penalty;
                } else {
                    attacker_utility += reward - cost;
                    auditor_damage += damage_model.damage_per_reward * reward;
                }
            }
            // The drift tracker sees what an operational fit would see:
            // the full alert traffic, attacks included — which is exactly
            // how an adapting attacker population can trip the gate.
            if model.is_rational() {
                st.fit.observe(row);
            } else {
                st.fit.observe(&observed);
            }
        }
        let realized_rate: Vec<f64> = seen
            .iter()
            .zip(&audited)
            .map(|(&s, &a)| if s == 0 { 0.0 } else { a as f64 / s as f64 })
            .collect();
        let pal_gap = st
            .predicted
            .iter()
            .zip(&realized_rate)
            .map(|(&p, &r)| (p - r).abs())
            .sum::<f64>()
            / n as f64;
        // The record carries the prediction of the policy that was
        // actually executed this epoch — the vector `pal_gap` was
        // computed against — even if a re-solve below replaces it.
        let predicted_executed = st.predicted.clone();

        // The strategic attacker observed one more epoch of the published
        // policy: fold it into the EWMA belief. Rational scenarios carry
        // the belief too (it is cheap and keeps the state uniform), they
        // just never read it.
        let lr = model.belief_learning_rate();
        for (b, &p) in st.attacker_belief.iter_mut().zip(&predicted_executed) {
            *b = (1.0 - lr) * *b + lr * p;
        }

        // --- drift gate ---
        let (max_ks, ks_degenerate) = st.fit.max_ks_guarded(&st.spec.distributions);
        let drift = st.fit.window_full() && max_ks > cfg.drift.ks_threshold;
        let stale = cfg
            .drift
            .max_stale_epochs
            .is_some_and(|m| st.epochs_since_resolve >= m);
        let gate_age = st.epochs_since_resolve;
        // Injected solve faults force a re-solve attempt this epoch so
        // the degradation path they target actually runs.
        let resolve = (drift && st.epochs_since_resolve >= COOLDOWN_EPOCHS)
            || stale
            || budget_fault
            || solve_fault;

        let mut solve_explored = None;
        let mut solve_millis = None;
        let mut degrade = None;
        let mut resolved = false;
        if resolve {
            let mut new_spec = st.spec.clone();
            // Drift reacts to the recent window; a pure staleness
            // refresh (gate quiet) recalibrates to the lifetime
            // streaming moments instead.
            new_spec.distributions = if drift {
                st.fit.refit()
            } else {
                st.fit.refit_lifetime()
            };
            // The service's committed model is the refit marginals; a
            // stale correlated sampler would contradict them.
            new_spec.joint_counts = None;

            let warm = warm_start_rescaled(&st.policy, &st.spec, &new_spec);
            let t = Instant::now();
            let committed = if solve_fault {
                Err(GameError::InvalidConfig(
                    "injected fault: solve-error on the committed re-solve".into(),
                ))
            } else {
                solver.solve_warm(&new_spec, Some(&warm))
            };
            match committed {
                Ok(committed) => {
                    solve_millis = Some(millis_since(t));
                    solve_explored = Some(committed.stats.thresholds_explored);
                    degrade = committed.degrade;
                    st.engine_cache.absorb(&committed.cache);
                    st.spec = new_spec;
                    st.policy = committed.policy;
                    st.loss = committed.loss;
                    st.predicted = committed.expected_pal;
                    st.epochs_since_resolve = 0;
                    resolved = true;
                }
                Err(_) => {
                    // The final rung of the degradation ladder: the
                    // re-solve failed outright, so keep serving on the
                    // incumbent policy and spec. The incumbent stays
                    // feasible (it was committed under the same budget),
                    // its age keeps counting so the staleness gate will
                    // retry, and the telemetry records the rung.
                    degrade = Some(DegradeReason::KeptIncumbent);
                    st.epochs_since_resolve += 1;
                }
            }
        } else {
            st.epochs_since_resolve += 1;
        }

        st.records.push(EpochTelemetry {
            epoch,
            periods: cfg.periods_per_epoch,
            alerts_seen: seen,
            alerts_audited: audited,
            mean_spent: spent / cfg.periods_per_epoch as f64,
            realized_rate,
            predicted_pal: predicted_executed,
            pal_gap,
            max_ks,
            drift,
            resolved,
            epochs_since_resolve: gate_age,
            objective: st.loss,
            thresholds: st.policy.thresholds.clone(),
            attacks_launched,
            attacks_detected,
            attacker_utility,
            auditor_damage,
            solve_explored,
            solve_millis,
            degrade,
            ks_degenerate,
        });
        st.epoch += 1;
        Ok(())
    }
}

fn millis_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
