//! Multi-tenant fleet runtime: many independent audit streams, one
//! process.
//!
//! [`FleetService`] multiplexes N tenants — each a registry scenario with
//! its own seed, drift gate, attacker model, and committed policy — over
//! a bounded worker pool. Scheduling is **round-based**: round 0 cold-
//! starts every tenant (initial solve + alert-stream derivation), and
//! each later round advances every live tenant by exactly one epoch.
//! Within a round, workers pull tenant indices from a shared cursor; a
//! round is a barrier, so no tenant ever runs two epochs concurrently
//! with itself.
//!
//! **Determinism.** Each tenant is an independent [`AuditService`]:
//! the unmodified epoch loop, per-period derived RNG streams, and
//! deterministic solves, each on a fresh `Pal` engine that lives and
//! dies with that solve. Tenants share no solver state, so a tenant's
//! [`RuntimeReport`] — cache counters included — equals a standalone
//! [`AuditService::run`] of that tenant. The scheduler only decides
//! *when* work happens, never *what* it computes, so the
//! [`FleetReport::fingerprint`] is invariant across worker counts and
//! reruns.

use crate::service::{AuditService, RuntimeConfig, ServiceState};
use crate::supervisor::{
    panic_message, FaultInjector, FaultPlan, RetryPolicy, TenantFailure, TenantHealth,
};
use crate::telemetry::{Fnv, RuntimeReport};
use audit_game::error::GameError;
use audit_game::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One tenant of the fleet: a named scenario instance with its own
/// runtime configuration (seed, horizon, drift gate, solver).
pub struct TenantSpec {
    /// Display name carried into the per-tenant report (and hashed into
    /// the fleet fingerprint).
    pub name: String,
    /// The tenant's registry scenario.
    pub scenario: Arc<dyn Scenario>,
    /// The tenant's service configuration.
    pub config: RuntimeConfig,
}

/// Fleet scheduling configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads pulling tenants within a scheduling round (`0` is
    /// treated as `1`). Never changes results, only wall-clock time.
    pub workers: usize,
    /// Deterministic fault plan (see [`crate::supervisor::FaultPlan`]).
    /// Empty by default: no injectors are attached and the run is
    /// bit-identical to the pre-supervisor scheduler.
    pub fault_plan: FaultPlan,
    /// Quarantine retry/backoff policy for failed tenants.
    pub retry: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            fault_plan: FaultPlan::new(),
            retry: RetryPolicy::default(),
        }
    }
}

/// One tenant's outcome: its full service report plus fleet-side
/// scheduling latencies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetTenantReport {
    /// The tenant's name from its [`TenantSpec`].
    pub tenant: String,
    /// The tenant's service report — bit-identical to running the tenant
    /// alone.
    pub report: RuntimeReport,
    /// Wall-clock milliseconds of the tenant's cold start (round 0).
    /// **Excluded from the fingerprint.**
    pub start_millis: f64,
    /// Wall-clock milliseconds of each epoch advance (rounds 1..).
    /// **Excluded from the fingerprint.**
    pub epoch_millis: Vec<f64>,
    /// The supervisor's verdict on the tenant: healthy, recovered after
    /// quarantine, or permanently failed. Healthy tenants contribute
    /// nothing extra to the fingerprint, keeping fault-free fleet
    /// fingerprints bit-identical to the pre-supervisor encoding.
    pub health: TenantHealth,
}

/// Aggregate outcome of one fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Worker threads the fleet ran with.
    pub workers: usize,
    /// Per-tenant reports, in tenant order.
    pub tenants: Vec<FleetTenantReport>,
    /// Periods executed across all tenants.
    pub total_periods: usize,
    /// Wall-clock milliseconds of the whole run (cold starts included).
    /// **Excluded from the fingerprint.**
    pub wall_millis: f64,
    /// Aggregate throughput: `total_periods / wall seconds`. **Excluded
    /// from the fingerprint.**
    pub periods_per_sec: f64,
    /// Median per-period service latency (milliseconds), over every
    /// epoch advance of every tenant. **Excluded from the fingerprint.**
    pub latency_p50_millis: f64,
    /// 95th-percentile per-period latency. **Excluded.**
    pub latency_p95_millis: f64,
    /// 99th-percentile per-period latency. **Excluded.**
    pub latency_p99_millis: f64,
    /// Always zero: tenants share no solver state (see
    /// [`SharedCacheStats`]). **Excluded from the fingerprint.**
    pub shared_cache: SharedCacheStats,
}

/// Counters of a cross-tenant solver-cache exchange the fleet no longer
/// has, so every field is always zero. The benchmark's fleet workload
/// (`perfbench/src/fleet.rs`) still reads the three fields; the struct
/// goes with the next change to the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedCacheStats {
    /// Always zero.
    pub banks: usize,
    /// Always zero.
    pub publishes: u64,
    /// Always zero.
    pub adoptions: u64,
}

impl FleetReport {
    /// FNV-1a fingerprint of the fleet's deterministic outcome: the
    /// tenant count and, per tenant in order, its name and its
    /// [`RuntimeReport::fingerprint`]. Scheduling artifacts — worker
    /// count, latencies, cache counters — are excluded, so the
    /// fingerprint is invariant across worker counts and reruns.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.tenants.len() as u64);
        for (i, t) in self.tenants.iter().enumerate() {
            h.word(i as u64);
            h.bytes(t.tenant.as_bytes());
            h.word(t.report.fingerprint());
            // Healthy folds nothing: fault-free fingerprints are
            // bit-identical to the pre-supervisor encoding.
            t.health.fold(&mut h);
        }
        h.finish()
    }

    /// Names of the tenants the supervisor judged [`TenantHealth::Healthy`].
    pub fn healthy_names(&self) -> Vec<String> {
        self.tenants
            .iter()
            .filter(|t| t.health.is_healthy())
            .map(|t| t.tenant.clone())
            .collect()
    }

    /// Fingerprint restricted to the named tenants (original tenant
    /// indices included, so the subset hash of a faulted run can be
    /// compared against the *same subset* of a fault-free run).
    pub fn subset_fingerprint(&self, names: &[String]) -> u64 {
        let mut h = Fnv::new();
        let included: Vec<(usize, &FleetTenantReport)> = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| names.contains(&t.tenant))
            .collect();
        h.word(included.len() as u64);
        for (i, t) in included {
            h.word(i as u64);
            h.bytes(t.tenant.as_bytes());
            h.word(t.report.fingerprint());
        }
        h.finish()
    }

    /// Fingerprint over the healthy subset only — the quantity the chaos
    /// harness diffs against a fault-free run to prove fault isolation:
    /// tenants the plan never touched are bit-identical.
    pub fn healthy_fingerprint(&self) -> u64 {
        self.subset_fingerprint(&self.healthy_names())
    }

    /// Committed re-solves summed across tenants.
    pub fn total_resolves(&self) -> usize {
        self.tenants.iter().map(|t| t.report.resolves()).sum()
    }

    /// Tenants per health key: `(healthy, recovered, failed)`.
    pub fn health_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for t in &self.tenants {
            match t.health {
                TenantHealth::Healthy => counts.0 += 1,
                TenantHealth::Recovered { .. } => counts.1 += 1,
                TenantHealth::Failed { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

/// Live scheduling state of one tenant between rounds.
struct TenantRun {
    service: AuditService,
    epochs: usize,
    state: Option<ServiceState>,
    /// Clone of the state after the last successful round — the
    /// checkpoint a quarantined tenant resumes from. `None` until the
    /// cold start succeeds (a cold-start failure retries from scratch).
    last_good: Option<ServiceState>,
    stream: Vec<Vec<u64>>,
    start_millis: f64,
    epoch_millis: Vec<f64>,
    /// Every failure observed so far, in order.
    failures: Vec<TenantFailure>,
    /// Failures consumed against [`RetryPolicy::max_retries`].
    attempts: usize,
    /// `Some(r)`: quarantined until scheduler round `r`.
    quarantined_until: Option<usize>,
    /// Terminal failure: `(round, cause)`. Set once retries are spent.
    failed: Option<(usize, String)>,
}

impl TenantRun {
    /// Does this tenant still want scheduler rounds?
    fn is_pending(&self) -> bool {
        self.failed.is_none()
            && (self.quarantined_until.is_some()
                || match &self.state {
                    None => true,
                    Some(st) => st.epoch < self.epochs,
                })
    }

    /// Record one failure: quarantine with deterministic backoff while
    /// retries remain, otherwise fail the tenant terminally.
    fn record_failure(&mut self, round: usize, cause: String, retry: &RetryPolicy) {
        self.attempts += 1;
        if self.attempts > retry.max_retries {
            self.failures.push(TenantFailure {
                round,
                cause: cause.clone(),
                resume_round: None,
            });
            self.failed = Some((round, cause));
        } else {
            let resume = retry.resume_round(round, self.attempts);
            self.failures.push(TenantFailure {
                round,
                cause,
                resume_round: Some(resume),
            });
            self.quarantined_until = Some(resume);
        }
    }

    /// The supervisor's verdict once scheduling is over.
    fn health(&self) -> TenantHealth {
        match &self.failed {
            Some((round, cause)) => TenantHealth::Failed {
                round: *round,
                cause: cause.clone(),
                failures: self.failures.clone(),
            },
            None if self.failures.is_empty() => TenantHealth::Healthy,
            None => TenantHealth::Recovered {
                failures: self.failures.clone(),
            },
        }
    }
}

/// Lock a tenant slot, recovering a poisoned mutex instead of aborting:
/// the only code that can panic while holding the guard is tenant work,
/// which is wrapped in `catch_unwind`, so a poisoned slot still holds a
/// consistent `TenantRun` (the failure was already recorded or will be
/// visible as a missing state).
fn lock_slot(slot: &Mutex<TenantRun>) -> MutexGuard<'_, TenantRun> {
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The multi-tenant scheduler. See the module docs for the round model
/// and the determinism contract.
pub struct FleetService {
    tenants: Vec<TenantSpec>,
    config: FleetConfig,
}

impl FleetService {
    /// Build a fleet over `tenants`.
    pub fn new(tenants: Vec<TenantSpec>, config: FleetConfig) -> Self {
        Self { tenants, config }
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the fleet has no tenants (a degenerate but valid fleet:
    /// [`FleetService::run`] returns an empty report).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Run every tenant to its horizon and aggregate the reports.
    ///
    /// Tenant failures — panics or typed errors, injected or organic — no
    /// longer abort the fleet. The failing tenant is quarantined and
    /// retried from its last good state under [`FleetConfig::retry`];
    /// once retries are spent it is marked [`TenantHealth::Failed`] and
    /// the rest of the fleet keeps running.
    ///
    /// `Err` is a fleet-level configuration breach, found before any
    /// tenant runs: two tenants with one name
    /// ([`GameError::InvalidConfig`]). The fault plan and
    /// [`FleetReport::subset_fingerprint`] key tenants by name, so a
    /// duplicate would take its twin's faults and hide its twin's failure.
    pub fn run(&self) -> Result<FleetReport, GameError> {
        let mut names = HashSet::with_capacity(self.tenants.len());
        if let Some(dup) = self.tenants.iter().find(|t| !names.insert(t.name.as_str())) {
            return Err(GameError::InvalidConfig(format!(
                "fleet tenant name '{}' is used more than once",
                dup.name
            )));
        }
        let t0 = Instant::now();
        let plan = Arc::new(self.config.fault_plan.clone());
        let retry = self.config.retry;
        let runs: Vec<Mutex<TenantRun>> = self
            .tenants
            .iter()
            .map(|t| {
                let service = AuditService::new(Arc::clone(&t.scenario), t.config.clone());
                let service = if plan.is_empty() {
                    service
                } else {
                    service.with_injector(FaultInjector::new(Arc::clone(&plan), &t.name))
                };
                Mutex::new(TenantRun {
                    service,
                    epochs: t.config.epochs,
                    state: None,
                    last_good: None,
                    stream: Vec::new(),
                    start_millis: 0.0,
                    epoch_millis: Vec::new(),
                    failures: Vec::new(),
                    attempts: 0,
                    quarantined_until: None,
                    failed: None,
                })
            })
            .collect();

        let n = runs.len();
        let max_epochs = self
            .tenants
            .iter()
            .map(|t| t.config.epochs)
            .max()
            .unwrap_or(0);
        // Hard cap on scheduler rounds: the fault-free schedule plus the
        // worst-case quarantine delay any retry ladder can add. Purely a
        // livelock backstop — the loop normally exits when no tenant is
        // pending.
        let round_cap = 1 + max_epochs + retry.worst_case_delay();
        let workers = self.config.workers.max(1).min(n.max(1));
        let mut round = 0usize;
        loop {
            if n == 0 || !runs.iter().any(|slot| lock_slot(slot).is_pending()) {
                break;
            }
            if round > round_cap {
                for slot in &runs {
                    let mut run = lock_slot(slot);
                    if run.is_pending() {
                        let cause = "scheduler round cap exceeded".to_string();
                        run.failures.push(TenantFailure {
                            round,
                            cause: cause.clone(),
                            resume_round: None,
                        });
                        run.failed = Some((round, cause));
                    }
                }
                break;
            }
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut guard = lock_slot(&runs[i]);
                        let run = &mut *guard;
                        if run.failed.is_some() {
                            continue;
                        }
                        if let Some(resume) = run.quarantined_until {
                            if round < resume {
                                continue; // serving its backoff delay
                            }
                            // Resume from the last good state. After a
                            // cold-start failure this is `None` and the
                            // tenant cold-starts again.
                            run.quarantined_until = None;
                            run.state = run.last_good.clone();
                        }
                        let t = Instant::now();
                        if run.state.is_none() {
                            // Cold start (fresh tenant or cold-start retry).
                            let service = &run.service;
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                service
                                    .start_state()
                                    .and_then(|st| service.full_alert_stream().map(|s| (st, s)))
                            }));
                            match result {
                                Ok(Ok((st, stream))) => {
                                    run.state = Some(st);
                                    run.last_good = run.state.clone();
                                    run.stream = stream;
                                    run.start_millis = millis_since(t);
                                }
                                Ok(Err(e)) => run.record_failure(round, e.to_string(), &retry),
                                Err(payload) => {
                                    run.record_failure(round, panic_message(payload), &retry)
                                }
                            }
                        } else {
                            let epoch = run.state.as_ref().map(|st| st.epoch).unwrap_or(0);
                            if epoch >= run.epochs {
                                continue; // tenant already at its horizon
                            }
                            // Move the state into the unwind scope: if the
                            // advance panics, the torn state is dropped
                            // with the closure and the tenant resumes from
                            // `last_good`.
                            let state = run.state.take().expect("checked above");
                            let stop = epoch + 1;
                            let service = &run.service;
                            let stream = &run.stream;
                            let result = catch_unwind(AssertUnwindSafe(move || {
                                let mut state = state;
                                service
                                    .advance_with_stream(&mut state, stop, stream)
                                    .map(|()| state)
                            }));
                            match result {
                                Ok(Ok(state)) => {
                                    run.state = Some(state);
                                    run.last_good = run.state.clone();
                                    run.epoch_millis.push(millis_since(t));
                                }
                                Ok(Err(e)) => run.record_failure(round, e.to_string(), &retry),
                                Err(payload) => {
                                    run.record_failure(round, panic_message(payload), &retry)
                                }
                            }
                        }
                    });
                }
            });
            round += 1;
        }

        // Assemble in tenant order. Failed tenants keep whatever partial
        // report their last good state supports; tenants that never
        // cold-started get an empty report.
        let mut tenants = Vec::with_capacity(n);
        let mut latencies: Vec<f64> = Vec::new();
        let mut total_periods = 0usize;
        for (spec, slot) in self.tenants.iter().zip(runs) {
            let run = slot
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let health = run.health();
            let report = match run.state.or(run.last_good) {
                Some(state) => run.service.report(state),
                None => empty_report(spec),
            };
            total_periods += report.total_periods();
            let per_epoch = spec.config.periods_per_epoch.max(1) as f64;
            latencies.extend(run.epoch_millis.iter().map(|&m| m / per_epoch));
            tenants.push(FleetTenantReport {
                tenant: spec.name.clone(),
                report,
                start_millis: run.start_millis,
                epoch_millis: run.epoch_millis,
                health,
            });
        }
        let wall_millis = millis_since(t0);
        latencies.sort_by(f64::total_cmp);
        Ok(FleetReport {
            workers,
            tenants,
            total_periods,
            wall_millis,
            periods_per_sec: if wall_millis > 0.0 {
                total_periods as f64 / (wall_millis / 1e3)
            } else {
                0.0
            },
            latency_p50_millis: percentile(&latencies, 50.0),
            latency_p95_millis: percentile(&latencies, 95.0),
            latency_p99_millis: percentile(&latencies, 99.0),
            shared_cache: SharedCacheStats::default(),
        })
    }
}

/// Report for a tenant that never completed a cold start: the identity
/// header is real, everything else is empty.
fn empty_report(spec: &TenantSpec) -> RuntimeReport {
    RuntimeReport {
        scenario: spec.scenario.key().to_string(),
        seed: spec.config.seed,
        periods_per_epoch: spec.config.periods_per_epoch,
        initial_objective: 0.0,
        initial_solve_millis: 0.0,
        engine_cache: Default::default(),
        epochs: Vec::new(),
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`0.0` when
/// empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn millis_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    #[test]
    fn empty_fleet_reports_empty() {
        let fleet = FleetService::new(Vec::new(), FleetConfig::default());
        assert!(fleet.is_empty());
        let report = fleet.run().unwrap();
        assert_eq!(report.tenants.len(), 0);
        assert_eq!(report.total_periods, 0);
        assert_eq!(report.periods_per_sec, 0.0);
        // The empty fingerprint is stable: just the zero tenant count.
        assert_eq!(report.fingerprint(), {
            let mut h = Fnv::new();
            h.word(0);
            h.finish()
        });
    }
}
