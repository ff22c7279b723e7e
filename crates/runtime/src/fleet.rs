//! Multi-tenant fleet runtime: many independent audit streams, one
//! process.
//!
//! [`FleetService`] runs N tenants — each a registry scenario with its own
//! seed, drift gate, attacker model, and committed policy — over a bounded
//! worker pool: each tenant is one job of
//! [`audit_game::parallel::parallel_map_indexed`]. One worker owns a tenant
//! from cold start to horizon, so no tenant ever runs two epochs
//! concurrently with itself. A tenant counts its own **rounds**: round 0
//! is the cold start (initial solve + alert-stream derivation), and each
//! later round advances it by exactly one epoch. A failed round
//! quarantines the tenant until the round its [`RetryPolicy`] names.
//!
//! **Determinism.** Each tenant is an independent [`AuditService`]:
//! the unmodified epoch loop, per-period derived RNG streams, and
//! deterministic solves, each on a fresh `Pal` engine that lives and
//! dies with that solve. Tenants share no solver state, so a tenant's
//! [`RuntimeReport`] — cache counters included — equals a standalone
//! [`AuditService::run`] of that tenant. The pool only decides *which
//! worker* runs a tenant and *when*, never *what* it computes, so the
//! [`FleetReport::fingerprint`] is invariant across worker counts and
//! reruns.

use crate::service::{AuditService, RuntimeConfig, ServiceState};
use crate::supervisor::{
    panic_message, FaultInjector, FaultPlan, FaultSite, RetryPolicy, TenantFailure, TenantHealth,
};
use crate::telemetry::RuntimeReport;
use audit_game::error::GameError;
use audit_game::parallel::parallel_map_indexed;
use audit_game::scenario::Scenario;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use stochastics::snapshot::Fnv;

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
    /// Worker threads, each running whole tenants from cold start to
    /// horizon (`0` is treated as `1`). Never changes results, only
    /// wall-clock time.
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

    /// Fingerprint over the healthy subset only, which `exp_chaos` prints
    /// on its `healthy subset:` line. It is not the fault-isolation
    /// basis: a tenant can absorb a fault and stay healthy with a
    /// legitimately changed report, so the chaos harness diffs
    /// [`FleetReport::subset_fingerprint`] of the tenants the plan never
    /// touched against a fault-free run.
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
    /// `Err` is a fleet-level configuration breach
    /// ([`GameError::InvalidConfig`]), found before any tenant runs:
    ///
    /// * two tenants with one name. The fault plan and
    ///   [`FleetReport::subset_fingerprint`] key tenants by name, so a
    ///   duplicate would take its twin's faults and hide its twin's
    ///   failure;
    /// * a planned fault that cannot fire: it names a tenant the fleet
    ///   lacks, a round past that tenant's `config.epochs`, or a site
    ///   other than [`FaultSite::SolverPanic`] at round 0 (the cold start
    ///   consults no other). Such a fault still marks its tenant as
    ///   touched, so the chaos harness's isolation check would cover fewer
    ///   tenants while no fault ran;
    /// * a retry policy whose round cap — the longest horizon plus
    ///   [`RetryPolicy::worst_case_delay`] — overflows the round counter.
    pub fn run(&self) -> Result<FleetReport, GameError> {
        let mut epochs_of = HashMap::with_capacity(self.tenants.len());
        if let Some(dup) = self
            .tenants
            .iter()
            .find(|t| epochs_of.insert(t.name.as_str(), t.config.epochs).is_some())
        {
            return Err(GameError::InvalidConfig(format!(
                "fleet tenant name '{}' is used more than once",
                dup.name
            )));
        }
        for (tenant, round, site) in self.config.fault_plan.iter() {
            let why = match epochs_of.get(tenant) {
                None => format!("the fleet has no tenant '{tenant}'"),
                Some(&epochs) if round > epochs => {
                    format!("round {round} is past the tenant's {epochs} epoch(s)")
                }
                Some(_) if round == 0 && site != FaultSite::SolverPanic => format!(
                    "round 0 is the cold start, where only {} fires",
                    FaultSite::SolverPanic
                ),
                Some(_) => continue,
            };
            return Err(GameError::InvalidConfig(format!(
                "fault plan entry '{tenant}:{round}:{site}' cannot fire: {why}"
            )));
        }
        // Hard cap on a tenant's rounds: the fault-free schedule plus the
        // worst-case quarantine delay any retry ladder can add. Purely a
        // livelock backstop — a tenant normally stops at its horizon. A
        // tenant past the cap jumps to `round_cap + 1`, so that must fit.
        let max_epochs = self.tenants.iter().map(|t| t.config.epochs).max();
        let retry = self.config.retry;
        let round_cap = retry
            .worst_case_delay()
            .and_then(|delay| delay.checked_add(max_epochs.unwrap_or(0))?.checked_add(1))
            .filter(|&cap| cap < usize::MAX)
            .ok_or_else(|| {
                GameError::InvalidConfig(format!(
                    "retry policy {retry:?}: the worst-case quarantine delay overflows \
                     the round counter"
                ))
            })?;
        let t0 = Instant::now();
        let workers = self.config.workers.max(1).min(self.tenants.len().max(1));
        let tenants = parallel_map_indexed(workers, &self.tenants, |_, spec| {
            run_tenant(spec, &self.config.fault_plan, retry, round_cap)
        });

        // Aggregate in tenant order.
        let mut latencies: Vec<f64> = Vec::new();
        let mut total_periods = 0usize;
        for (spec, t) in self.tenants.iter().zip(&tenants) {
            total_periods += t.report.total_periods();
            let per_epoch = spec.config.periods_per_epoch.max(1) as f64;
            latencies.extend(t.epoch_millis.iter().map(|&m| m / per_epoch));
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

/// Drive one tenant from cold start to horizon on its own round counter:
/// round 0 is the cold start, each later round one epoch. A failed round
/// leaves the state as it was before the round, then quarantines the
/// tenant with deterministic backoff while retries remain, or fails it
/// terminally. Failed tenants keep whatever partial report their last
/// good state supports; tenants that never cold-started get an empty
/// report.
fn run_tenant(
    spec: &TenantSpec,
    plan: &FaultPlan,
    retry: RetryPolicy,
    round_cap: usize,
) -> FleetTenantReport {
    let service = AuditService::new(Arc::clone(&spec.scenario), spec.config.clone());
    let service = if plan.is_empty() {
        service
    } else {
        service.with_injector(FaultInjector::new(plan, &spec.name))
    };
    let mut state: Option<ServiceState> = None;
    let mut stream = Vec::new();
    let mut start_millis = 0.0;
    let mut epoch_millis = Vec::new();
    let mut failures: Vec<TenantFailure> = Vec::new();
    let mut round = 0usize;
    loop {
        if matches!(&state, Some(st) if st.epoch >= spec.config.epochs) {
            break;
        }
        if round > round_cap {
            failures.push(TenantFailure {
                round,
                cause: "scheduler round cap exceeded".to_string(),
                resume_round: None,
            });
            break;
        }
        let t = Instant::now();
        let outcome = match state.as_mut() {
            // Cold start (fresh tenant or cold-start retry): a failure
            // leaves no state, so the retry starts from scratch.
            None => attempt(|| Ok((service.start_state()?, service.full_alert_stream()?))).map(
                |(st, s)| {
                    state = Some(st);
                    stream = s;
                    start_millis = millis_since(t);
                },
            ),
            // One epoch. The live state advances in place; a failed
            // advance may have torn it, so the backup taken before the
            // round replaces it.
            Some(st) => {
                let backup = st.clone();
                let stop = st.epoch + 1;
                let advanced = attempt(|| service.advance_with_stream(st, stop, &stream));
                match advanced {
                    Ok(()) => epoch_millis.push(millis_since(t)),
                    Err(_) => *st = backup,
                }
                advanced
            }
        };
        let cause = match outcome {
            Ok(()) => {
                round += 1;
                continue;
            }
            Err(cause) => cause,
        };
        // Quarantine while retries remain; the failure after the last
        // retry is terminal.
        let attempts = failures.len() + 1;
        let resume_round =
            (attempts <= retry.max_retries).then(|| retry.resume_round(round, attempts));
        failures.push(TenantFailure {
            round,
            cause,
            resume_round,
        });
        match resume_round {
            // Backoff rounds run nothing: jump to the resume round, or to
            // the first round past the cap, which fails the tenant.
            Some(resume) => round = resume.min(round_cap + 1),
            None => break,
        }
    }
    // Only a terminal failure has no resume round, and it ends the run.
    let health = match failures.last() {
        None => TenantHealth::Healthy,
        Some(last) if last.resume_round.is_none() => TenantHealth::Failed { failures },
        Some(_) => TenantHealth::Recovered { failures },
    };
    let report = match state {
        Some(state) => service.report(state),
        None => empty_report(spec),
    };
    FleetTenantReport {
        tenant: spec.name.clone(),
        report,
        start_millis,
        epoch_millis,
        health,
    }
}

/// Run one round's work, turning a typed error or a panic into its cause.
fn attempt<T>(work: impl FnOnce() -> Result<T, GameError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(payload) => Err(panic_message(payload)),
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
