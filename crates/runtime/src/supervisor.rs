//! Supervised fault tolerance: deterministic fault injection, tenant
//! quarantine bookkeeping, and retry/backoff policy.
//!
//! The runtime's robustness story is built on a single principle: **every
//! failure the supervisor handles must be reproducible**. Faults are not
//! sampled at run time from wall-clock entropy — they are declared up
//! front in a [`FaultPlan`], a value keyed by `(tenant, round, site)` that
//! can be fingerprinted, logged, and replayed. The same plan against the
//! same fleet produces the same failures, the same quarantine decisions,
//! and the same recovered reports, at every worker count.
//!
//! Three pieces compose:
//!
//! * [`FaultPlan`] — an immutable set of planned faults, either built
//!   explicitly ([`FaultPlan::inject`]) or generated from a seed
//!   ([`FaultPlan::seeded`]) via the same SplitMix-derived stream
//!   discipline ([`stochastics::rng::stream_rng`]) the rest of the
//!   runtime uses;
//! * [`FaultInjector`] — a per-tenant view of the plan handed to
//!   [`crate::service::AuditService`]. Each planned fault fires **exactly
//!   once** ([`FaultInjector::fires`] consumes it), so a quarantined
//!   tenant retried from its pre-round state does not re-trip the same
//!   fault forever: one-shot semantics are what make `Recovered` an
//!   observable outcome rather than a livelock;
//! * [`RetryPolicy`] — deterministic, round-based exponential backoff.
//!   Delays are counted in tenant rounds (see [`crate::fleet`]), never
//!   wall-clock, so the retry schedule is part of the reproducible
//!   transcript.
//!
//! [`TenantHealth`] and [`TenantFailure`] are the supervisor's public
//! record of what happened to each tenant; the fleet
//! ([`crate::fleet::FleetService`]) attaches them to every tenant report.

use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;

use rand::Rng;
use stochastics::rng::stream_rng;
use stochastics::snapshot::Fnv;

/// Stream id base for seeded fault-plan generation (xored with the
/// tenant index) — disjoint from the service's execution and attack
/// stream bases so fault plans never perturb simulation randomness.
pub const FAULT_STREAM_BASE: u64 = 0x0FA7_1A7E_0000_0000;

// ---------------------------------------------------------------------
// Fault sites
// ---------------------------------------------------------------------

/// A named injection point inside the runtime.
///
/// Each site models one concrete failure class the supervisor must
/// survive; the service consults its [`FaultInjector`] at exactly these
/// seams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The solver panics mid-epoch (models a bug or resource abort in the
    /// solve path). The fleet catches the unwind and quarantines the
    /// tenant; the tenant's in-flight state is discarded.
    SolverPanic,
    /// The committed re-solve returns a typed error. The service keeps
    /// serving on the incumbent policy and records
    /// [`audit_game::solver::DegradeReason::KeptIncumbent`].
    SolveError,
    /// The scenario delivers an epoch with every alert count zeroed
    /// (models an upstream TDMT outage: the feed is alive but empty).
    EmptyEpoch,
    /// The scenario delivers a truncated period row (wrong arity). The
    /// service rejects the epoch with
    /// [`audit_game::error::GameError::MalformedStream`].
    MalformedEpoch,
    /// The epoch's re-solve budget collapses to one evaluation, forcing
    /// the graceful-degradation ladder to its floor.
    BudgetExhaust,
}

impl FaultSite {
    /// Every site, in declaration order. [`FaultPlan::seeded`] draws
    /// from this list by index, so reordering it reshuffles seeded plans.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::SolverPanic,
        FaultSite::SolveError,
        FaultSite::EmptyEpoch,
        FaultSite::MalformedEpoch,
        FaultSite::BudgetExhaust,
    ];

    /// Stable string key (used in telemetry grep lines and JSON).
    pub fn key(&self) -> &'static str {
        match self {
            FaultSite::SolverPanic => "solver-panic",
            FaultSite::SolveError => "solve-error",
            FaultSite::EmptyEpoch => "empty-epoch",
            FaultSite::MalformedEpoch => "malformed-epoch",
            FaultSite::BudgetExhaust => "budget-exhaust",
        }
    }

    /// Stable numeric code (used in fingerprints).
    pub fn code(&self) -> u64 {
        match self {
            FaultSite::SolverPanic => 1,
            FaultSite::SolveError => 2,
            FaultSite::EmptyEpoch => 3,
            FaultSite::MalformedEpoch => 4,
            FaultSite::BudgetExhaust => 5,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

// ---------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------

/// A deterministic set of planned faults, keyed `(tenant, round, site)`.
///
/// A plan round names a point in the tenant's stream: round 0 is its
/// cold start, round `r ≥ 1` its epoch `r − 1`. That matches the fleet's
/// tenant round only until the first retry, since a retried round and its
/// backoff push the tenant's later rounds back: plan rounds 1, 2 and 3 all
/// failing under the default [`RetryPolicy`] fail at tenant rounds 1, 3
/// and 6.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeSet<(String, usize, FaultSite)>,
}

impl FaultPlan {
    /// An empty plan: no faults, and the runtime behaves bit-identically
    /// to one with no plan at all.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one planned fault (builder style).
    pub fn inject(mut self, tenant: &str, round: usize, site: FaultSite) -> Self {
        self.faults.insert((tenant.to_string(), round, site));
        self
    }

    /// Generate a plan from a seed: each tenant × round cell (rounds
    /// `1..=rounds`; cold starts are never seeded) independently draws a
    /// fault with probability `rate`, choosing uniformly among
    /// [`FaultSite::ALL`]. Deterministic in `(seed, tenants, rounds,
    /// rate)`; the tenant *index* keys the stream, so renaming a tenant
    /// does not reshuffle the others.
    pub fn seeded(seed: u64, tenants: &[String], rounds: usize, rate: f64) -> Self {
        let mut plan = FaultPlan::new();
        for (ti, tenant) in tenants.iter().enumerate() {
            let mut rng = stream_rng(seed, FAULT_STREAM_BASE ^ ((ti as u64) << 20));
            for round in 1..=rounds {
                if rng.gen::<f64>() < rate {
                    let site = FaultSite::ALL[rng.gen_range(0..FaultSite::ALL.len())];
                    plan.faults.insert((tenant.clone(), round, site));
                }
            }
        }
        plan
    }

    /// The distinct tenants the plan touches, sorted.
    pub fn planned_tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.faults.iter().map(|(t, _, _)| t.clone()).collect();
        names.dedup();
        names
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterate every planned fault in `(tenant, round, site)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize, FaultSite)> {
        self.faults.iter().map(|(t, r, s)| (t.as_str(), *r, *s))
    }

    /// Order-independent deterministic fingerprint of the whole plan.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.faults.len() as u64);
        for (tenant, round, site) in &self.faults {
            h.bytes(tenant.as_bytes());
            h.word(*round as u64);
            h.word(site.code());
        }
        h.finish()
    }
}

// ---------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------

/// A per-tenant, one-shot view of a [`FaultPlan`]: the tenant's planned
/// `(round, site)` faults that have not fired yet.
///
/// The fleet attaches one injector to a tenant's
/// [`crate::service::AuditService`] for the tenant's whole run, so a fault
/// consumed before a panic stays consumed when the tenant is retried from
/// its pre-round state. That one-shot discipline models transient chaos
/// events (a single poisoned epoch) and is what lets a quarantined tenant
/// actually recover instead of re-tripping the same fault every retry.
#[derive(Debug)]
pub struct FaultInjector {
    tenant: String,
    pending: Mutex<BTreeSet<(usize, FaultSite)>>,
}

impl FaultInjector {
    /// Build an injector over `plan`'s faults for `tenant`.
    pub fn new(plan: &FaultPlan, tenant: impl Into<String>) -> Self {
        let tenant = tenant.into();
        let pending = plan
            .iter()
            .filter(|&(t, _, _)| t == tenant)
            .map(|(_, round, site)| (round, site))
            .collect();
        Self {
            tenant,
            pending: Mutex::new(pending),
        }
    }

    /// The tenant this injector speaks for.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Consume-and-fire: true exactly once per planned `(round, site)`.
    ///
    /// A panic between consuming and acting leaves the fault consumed —
    /// deliberately, since the supervisor's retry must not replay it.
    pub fn fires(&self, round: usize, site: FaultSite) -> bool {
        // A panic while holding the lock (never the case here: remove
        // cannot panic) would poison it; recover the inner set rather
        // than propagate the poison.
        self.pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .remove(&(round, site))
    }
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// Deterministic retry/backoff policy for quarantined tenants.
///
/// All delays are measured in the tenant's own **rounds** (see
/// [`crate::fleet`]), never wall-clock, so the quarantine schedule is
/// reproducible. A tenant that fails for the `a`-th time at round `r` is
/// quarantined until [`RetryPolicy::resume_round`]`(r, a)`; after
/// `max_retries` failures the next failure is permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times a tenant may be retried before a further failure
    /// becomes permanent.
    pub max_retries: usize,
    /// Base backoff in rounds; doubles on every consecutive failure, at
    /// most 16 times.
    pub backoff_rounds: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_rounds: 1,
        }
    }
}

/// The backoff stops doubling after this many doublings: every later
/// retry waits `backoff · 2^16` rounds.
const MAX_DOUBLINGS: usize = 16;

impl RetryPolicy {
    /// The round at which a tenant that failed at `failed_round` on its
    /// `attempt`-th failure (1-based) resumes: exponential backoff
    /// `backoff · 2^min(attempt−1, 16)` rounds later.
    pub fn resume_round(&self, failed_round: usize, attempt: usize) -> usize {
        let base = self.backoff_rounds.max(1);
        let shift = attempt.saturating_sub(1).min(MAX_DOUBLINGS);
        failed_round.saturating_add(base.saturating_mul(1usize << shift))
    }

    /// The most rounds one tenant's retries can add to its schedule: the
    /// sum of the `max_retries` backoffs [`RetryPolicy::resume_round`]
    /// gives, `backoff · (2^max_retries − 1)` while the backoff still
    /// doubles. `None` when the sum overflows `usize`. The fleet adds it to
    /// the horizon to cap every tenant's round counter.
    pub fn worst_case_delay(&self) -> Option<usize> {
        // The first 17 retries wait `backoff · 2^0` to `backoff · 2^16`
        // rounds; each retry after them waits `backoff · 2^16`.
        let base = self.backoff_rounds.max(1);
        let doubling = self.max_retries.min(MAX_DOUBLINGS + 1);
        let flat = self.max_retries - doubling;
        flat.checked_mul(1 << MAX_DOUBLINGS)?
            .checked_add((1 << doubling) - 1)?
            .checked_mul(base)
    }
}

// ---------------------------------------------------------------------
// Tenant health record
// ---------------------------------------------------------------------

/// One failure a tenant suffered, as recorded by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantFailure {
    /// The tenant's own round at which the failure surfaced: round 0 is
    /// its cold start, and each epoch attempt or backoff round after it
    /// counts one (see [`crate::fleet`]).
    pub round: usize,
    /// Human-readable cause (panic message or typed error display).
    pub cause: String,
    /// Round at which the tenant was scheduled to resume; `None` when
    /// the failure was permanent (retry budget exhausted).
    pub resume_round: Option<usize>,
}

/// The supervisor's verdict on one tenant after a fleet run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TenantHealth {
    /// No failures: the tenant's report is bit-identical to a fault-free
    /// run.
    #[default]
    Healthy,
    /// The tenant failed at least once but completed after retrying from
    /// its last good state.
    Recovered {
        /// Every failure in round order.
        failures: Vec<TenantFailure>,
    },
    /// The tenant exhausted its retry budget (or could not be retried);
    /// its report covers only the epochs completed before the terminal
    /// failure.
    Failed {
        /// Every failure in round order; the last one is terminal (see
        /// [`TenantHealth::terminal_failure`]).
        failures: Vec<TenantFailure>,
    },
}

impl TenantHealth {
    /// True only for [`TenantHealth::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, TenantHealth::Healthy)
    }

    /// Stable string key: `healthy`, `recovered`, or `failed`.
    pub fn key(&self) -> &'static str {
        match self {
            TenantHealth::Healthy => "healthy",
            TenantHealth::Recovered { .. } => "recovered",
            TenantHealth::Failed { .. } => "failed",
        }
    }

    /// Every recorded failure (empty for healthy tenants).
    pub fn failures(&self) -> &[TenantFailure] {
        match self {
            TenantHealth::Healthy => &[],
            TenantHealth::Recovered { failures } => failures,
            TenantHealth::Failed { failures } => failures,
        }
    }

    /// The failure that ended a [`TenantHealth::Failed`] tenant's run: its
    /// last recorded one. `None` for healthy and recovered tenants.
    pub fn terminal_failure(&self) -> Option<&TenantFailure> {
        match self {
            TenantHealth::Failed { failures } => failures.last(),
            _ => None,
        }
    }

    /// Fold the health record into a fingerprint. Healthy contributes
    /// nothing beyond its marker word, keeping fault-free fleet
    /// fingerprints bit-identical to the pre-supervisor encoding.
    pub(crate) fn fold(&self, h: &mut Fnv) {
        match self {
            TenantHealth::Healthy => {}
            TenantHealth::Recovered { failures } => {
                h.word(0x7EC0_7E4D);
                h.word(failures.len() as u64);
                for fail in failures {
                    h.word(fail.round as u64);
                    h.bytes(fail.cause.as_bytes());
                    h.word(fail.resume_round.map(|r| r as u64 + 1).unwrap_or(0));
                }
            }
            TenantHealth::Failed { failures } => {
                h.word(0x00FA_11ED);
                if let Some(last) = failures.last() {
                    h.word(last.round as u64);
                    h.bytes(last.cause.as_bytes());
                }
                h.word(failures.len() as u64);
                for fail in failures {
                    h.word(fail.round as u64);
                    h.bytes(fail.cause.as_bytes());
                    h.word(fail.resume_round.map(|r| r as u64 + 1).unwrap_or(0));
                }
            }
        }
    }
}

/// Render a panic payload as a readable cause string.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plan_is_deterministic_and_scoped() {
        let tenants: Vec<String> = (0..6).map(|i| format!("tenant-{i}")).collect();
        let a = FaultPlan::seeded(42, &tenants, 8, 0.35);
        let b = FaultPlan::seeded(42, &tenants, 8, 0.35);
        assert_eq!(a, b, "same seed must yield the same plan");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.is_empty(), "rate 0.35 over 48 cells should plan faults");
        for (_, round, site) in a.iter() {
            assert!(round >= 1, "cold starts (round 0) are never seeded");
            assert!(round <= 8);
            assert!(FaultSite::ALL.contains(&site));
        }
        let c = FaultPlan::seeded(43, &tenants, 8, 0.35);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
        let none = FaultPlan::seeded(42, &tenants, 8, 0.0);
        assert!(none.is_empty(), "rate 0 plans nothing");
    }

    #[test]
    fn injector_fires_each_planned_fault_exactly_once() {
        let plan = FaultPlan::new()
            .inject("t0", 2, FaultSite::SolverPanic)
            .inject("t0", 4, FaultSite::EmptyEpoch)
            .inject("t1", 2, FaultSite::SolverPanic);
        let inj = FaultInjector::new(&plan, "t0");
        assert!(!inj.fires(1, FaultSite::SolverPanic), "unplanned round");
        assert!(inj.fires(2, FaultSite::SolverPanic), "first consult fires");
        assert!(!inj.fires(2, FaultSite::SolverPanic), "one-shot");
        assert!(!inj.fires(4, FaultSite::SolverPanic), "unplanned site");
        assert!(inj.fires(4, FaultSite::EmptyEpoch));
        assert!(!inj.fires(4, FaultSite::EmptyEpoch));

        // Another tenant's faults are invisible.
        assert!(!inj.fires(2, FaultSite::SolverPanic));
        let other = FaultInjector::new(&plan, "t1");
        assert!(other.fires(2, FaultSite::SolverPanic));
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_rounds: 2,
        };
        assert_eq!(policy.resume_round(5, 1), 7); // +2
        assert_eq!(policy.resume_round(5, 2), 9); // +4
        assert_eq!(policy.resume_round(5, 3), 13); // +8
        assert_eq!(policy.worst_case_delay(), Some(2 * (8 - 1)));
        // Degenerate zero backoff still makes progress.
        let zero = RetryPolicy {
            max_retries: 1,
            backoff_rounds: 0,
        };
        assert!(zero.resume_round(3, 1) > 3);
    }

    #[test]
    fn worst_case_delay_is_the_sum_of_every_backoff() {
        for backoff_rounds in 1..=4 {
            for max_retries in 0..=40 {
                let policy = RetryPolicy {
                    max_retries,
                    backoff_rounds,
                };
                let summed = (1..=max_retries)
                    .map(|attempt| policy.resume_round(0, attempt))
                    .sum();
                assert_eq!(policy.worst_case_delay(), Some(summed), "{policy:?}");
            }
        }
        let endless = RetryPolicy {
            max_retries: usize::MAX,
            backoff_rounds: 1,
        };
        assert_eq!(endless.worst_case_delay(), None);
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let static_payload = std::panic::catch_unwind(|| panic!("static cause")).unwrap_err();
        assert_eq!(panic_message(static_payload), "static cause");
        let formatted = std::panic::catch_unwind(|| panic!("cause {}", 42)).unwrap_err();
        assert_eq!(panic_message(formatted), "cause 42");
        assert_eq!(panic_message(Box::new(7u32)), "non-string panic payload");
    }

    #[test]
    fn health_record_reports_failures() {
        assert!(TenantHealth::Healthy.is_healthy());
        assert_eq!(TenantHealth::Healthy.key(), "healthy");
        assert!(TenantHealth::Healthy.failures().is_empty());
        let fail = TenantFailure {
            round: 3,
            cause: "boom".into(),
            resume_round: Some(5),
        };
        let rec = TenantHealth::Recovered {
            failures: vec![fail.clone()],
        };
        assert!(!rec.is_healthy());
        assert_eq!(rec.key(), "recovered");
        assert_eq!(rec.failures().len(), 1);
        assert_eq!(rec.terminal_failure(), None);
        let last = TenantFailure {
            round: 7,
            cause: "gone".into(),
            resume_round: None,
        };
        let dead = TenantHealth::Failed {
            failures: vec![fail, last.clone()],
        };
        assert_eq!(dead.key(), "failed");
        assert_eq!(dead.failures()[0].round, 3);
        assert_eq!(dead.terminal_failure(), Some(&last));
    }
}
