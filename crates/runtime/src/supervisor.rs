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
//!   tenant retried from its last good state does not re-trip the same
//!   fault forever: one-shot semantics are what make `Recovered` an
//!   observable outcome rather than a livelock;
//! * [`RetryPolicy`] — deterministic, round-based exponential backoff.
//!   Delays are counted in scheduler rounds, never wall-clock, so the
//!   retry schedule is part of the reproducible transcript.
//!
//! [`TenantHealth`] and [`TenantFailure`] are the supervisor's public
//! record of what happened to each tenant; the fleet scheduler
//! ([`crate::fleet::FleetService`]) attaches them to every tenant report.

use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::telemetry::Fnv;
use rand::Rng;
use stochastics::rng::stream_rng;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
    /// The checkpoint written at this state epoch is corrupted on disk
    /// after a successful save (models torn writes / media rot).
    CheckpointWrite,
    /// The checkpoint is corrupted before it is read back (models rot
    /// between save and restore). Applied by
    /// [`FaultInjector::corrupt_for_read`], which harnesses call between
    /// save and restore.
    CheckpointRead,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::SolverPanic,
        FaultSite::SolveError,
        FaultSite::EmptyEpoch,
        FaultSite::MalformedEpoch,
        FaultSite::BudgetExhaust,
        FaultSite::CheckpointWrite,
        FaultSite::CheckpointRead,
    ];

    /// Sites eligible for seeded plan generation: the in-loop faults a
    /// tenant can recover from without an on-disk checkpoint. The two
    /// checkpoint sites need a checkpoint directory to exist and are
    /// exercised by explicit plans instead.
    pub const SEEDED: [FaultSite; 5] = [
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
            FaultSite::CheckpointWrite => "checkpoint-write",
            FaultSite::CheckpointRead => "checkpoint-read",
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
            FaultSite::CheckpointWrite => 6,
            FaultSite::CheckpointRead => 7,
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
/// Round semantics match the fleet scheduler: round 0 is the tenant's
/// cold start, round `r ≥ 1` runs epoch `r − 1`. Checkpoint sites are
/// keyed by the **state epoch** of the checkpoint being written or read
/// instead, since checkpoints are taken outside the round loop.
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
    /// [`FaultSite::SEEDED`]. Deterministic in `(seed, tenants, rounds,
    /// rate)`; the tenant *index* keys the stream, so renaming a tenant
    /// does not reshuffle the others.
    pub fn seeded(seed: u64, tenants: &[String], rounds: usize, rate: f64) -> Self {
        let mut plan = FaultPlan::new();
        for (ti, tenant) in tenants.iter().enumerate() {
            let mut rng = stream_rng(seed, FAULT_STREAM_BASE ^ ((ti as u64) << 20));
            for round in 1..=rounds {
                if rng.gen::<f64>() < rate {
                    let site = FaultSite::SEEDED[rng.gen_range(0..FaultSite::SEEDED.len())];
                    plan.faults.insert((tenant.clone(), round, site));
                }
            }
        }
        plan
    }

    /// Does the plan contain this exact fault?
    pub fn contains(&self, tenant: &str, round: usize, site: FaultSite) -> bool {
        self.faults.contains(&(tenant.to_string(), round, site))
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

/// A per-tenant, one-shot view of a [`FaultPlan`].
///
/// The injector is cloned into the tenant's [`crate::service::AuditService`];
/// clones share the fired set, so a fault consumed before a panic stays
/// consumed when the tenant is retried from its last good state. That
/// one-shot discipline models transient chaos events (a single torn
/// write, a single poisoned epoch) and is what lets a quarantined tenant
/// actually recover instead of re-tripping the same fault every retry.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    tenant: String,
    fired: Arc<Mutex<BTreeSet<(usize, FaultSite)>>>,
}

impl FaultInjector {
    /// Build an injector for one tenant over a shared plan.
    pub fn new(plan: Arc<FaultPlan>, tenant: impl Into<String>) -> Self {
        Self {
            plan,
            tenant: tenant.into(),
            fired: Arc::new(Mutex::new(BTreeSet::new())),
        }
    }

    /// The tenant this injector speaks for.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Consume-and-fire: true exactly once per planned `(round, site)`.
    ///
    /// A panic between marking and acting leaves the fault consumed —
    /// deliberately, since the supervisor's retry must not replay it.
    pub fn fires(&self, round: usize, site: FaultSite) -> bool {
        if !self.plan.contains(&self.tenant, round, site) {
            return false;
        }
        // A panic while holding the lock (never the case here: insert
        // cannot panic) would poison it; recover the inner set rather
        // than propagate the poison.
        let mut fired = self
            .fired
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        fired.insert((round, site))
    }

    /// Apply a pending [`FaultSite::CheckpointRead`] fault for the given
    /// state epoch by corrupting the file in place. Harnesses call this
    /// between save and restore; returns true when the fault fired.
    pub fn corrupt_for_read(&self, epoch: usize, path: &Path) -> std::io::Result<bool> {
        if !self.fires(epoch, FaultSite::CheckpointRead) {
            return Ok(false);
        }
        corrupt_file(path, epoch as u64)?;
        Ok(true)
    }
}

/// Deterministically corrupt a file: flip one byte at a salt-derived
/// offset (or append a byte to an empty file). Writes directly — the
/// corruption deliberately bypasses the atomic-write path, since it
/// models damage *after* a clean write.
pub fn corrupt_file(path: &Path, salt: u64) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        bytes.push(0xFF);
    } else {
        let idx = (salt as usize ^ (bytes.len() / 2)) % bytes.len();
        bytes[idx] ^= 0x5A;
    }
    std::fs::write(path, &bytes)
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// Deterministic retry/backoff policy for quarantined tenants.
///
/// All delays are measured in **scheduler rounds**, never wall-clock, so
/// the quarantine schedule is reproducible. A tenant that fails for the
/// `a`-th time at round `r` is quarantined until
/// [`RetryPolicy::resume_round`]`(r, a)`; after `max_retries` failures
/// the next failure is permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// How many times a tenant may be retried before a further failure
    /// becomes permanent.
    pub max_retries: usize,
    /// Base backoff in rounds; doubles on every consecutive failure.
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

impl RetryPolicy {
    /// The round at which a tenant that failed at `failed_round` on its
    /// `attempt`-th failure (1-based) resumes: exponential backoff
    /// `backoff · 2^(attempt−1)` rounds later.
    pub fn resume_round(&self, failed_round: usize, attempt: usize) -> usize {
        let base = self.backoff_rounds.max(1);
        let shift = attempt.saturating_sub(1).min(16) as u32;
        failed_round.saturating_add(base.saturating_mul(1usize << shift))
    }

    /// Upper bound on the extra scheduler rounds one tenant's retries can
    /// add to a run: `backoff · (2^max_retries − 1)`. The fleet uses this
    /// to cap its round loop.
    pub fn worst_case_delay(&self) -> usize {
        let base = self.backoff_rounds.max(1);
        let doublings = self.max_retries.min(16) as u32;
        base.saturating_mul((1usize << doublings).saturating_sub(1))
    }
}

// ---------------------------------------------------------------------
// Tenant health record
// ---------------------------------------------------------------------

/// One failure a tenant suffered, as recorded by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantFailure {
    /// Scheduler round at which the failure surfaced.
    pub round: usize,
    /// Human-readable cause (panic message or typed error display).
    pub cause: String,
    /// Round at which the tenant was scheduled to resume; `None` when
    /// the failure was permanent (retry budget exhausted).
    pub resume_round: Option<usize>,
}

/// The supervisor's verdict on one tenant after a fleet run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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
        /// Round of the terminal failure.
        round: usize,
        /// Cause of the terminal failure.
        cause: String,
        /// Every failure in round order (the terminal one last).
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
            TenantHealth::Failed { failures, .. } => failures,
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
            TenantHealth::Failed {
                round,
                cause,
                failures,
            } => {
                h.word(0x00FA_11ED);
                h.word(*round as u64);
                h.bytes(cause.as_bytes());
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
            assert!(FaultSite::SEEDED.contains(&site));
        }
        let c = FaultPlan::seeded(43, &tenants, 8, 0.35);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
        let none = FaultPlan::seeded(42, &tenants, 8, 0.0);
        assert!(none.is_empty(), "rate 0 plans nothing");
    }

    #[test]
    fn injector_fires_each_planned_fault_exactly_once() {
        let plan = Arc::new(
            FaultPlan::new()
                .inject("t0", 2, FaultSite::SolverPanic)
                .inject("t0", 4, FaultSite::EmptyEpoch)
                .inject("t1", 2, FaultSite::SolverPanic),
        );
        let inj = FaultInjector::new(Arc::clone(&plan), "t0");
        assert!(!inj.fires(1, FaultSite::SolverPanic), "unplanned round");
        assert!(inj.fires(2, FaultSite::SolverPanic), "first consult fires");
        assert!(!inj.fires(2, FaultSite::SolverPanic), "one-shot");

        // Clones share the fired set: a retried service must not re-trip.
        let clone = inj.clone();
        assert!(!clone.fires(2, FaultSite::SolverPanic));
        assert!(clone.fires(4, FaultSite::EmptyEpoch));
        assert!(!inj.fires(4, FaultSite::EmptyEpoch));

        // Another tenant's faults are invisible.
        assert!(!inj.fires(2, FaultSite::SolverPanic));
        let other = FaultInjector::new(plan, "t1");
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
        assert_eq!(policy.worst_case_delay(), 2 * (8 - 1));
        // Degenerate zero backoff still makes progress.
        let zero = RetryPolicy {
            max_retries: 1,
            backoff_rounds: 0,
        };
        assert!(zero.resume_round(3, 1) > 3);
    }

    #[test]
    fn corrupt_file_is_deterministic_and_touches_one_byte() {
        let dir = std::env::temp_dir().join(format!("audit-corrupt-helper-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        let original: Vec<u8> = (0..257u32).map(|i| (i % 251) as u8).collect();

        std::fs::write(&path, &original).unwrap();
        corrupt_file(&path, 7).unwrap();
        let once = std::fs::read(&path).unwrap();
        std::fs::write(&path, &original).unwrap();
        corrupt_file(&path, 7).unwrap();
        let twice = std::fs::read(&path).unwrap();
        assert_eq!(once, twice, "same salt corrupts the same byte");
        let diffs = original.iter().zip(&once).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1, "exactly one byte flipped");

        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        corrupt_file(&empty, 0).unwrap();
        assert_eq!(std::fs::read(&empty).unwrap(), vec![0xFF]);
        std::fs::remove_dir_all(&dir).ok();
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
        let dead = TenantHealth::Failed {
            round: 7,
            cause: "gone".into(),
            failures: vec![fail],
        };
        assert_eq!(dead.key(), "failed");
        assert_eq!(dead.failures()[0].round, 3);
    }
}
