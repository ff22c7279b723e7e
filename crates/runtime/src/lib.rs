//! # audit-runtime — the online epoch-based auditing service
//!
//! The paper frames auditing as a per-period operational loop: nature
//! draws alert counts each period and the defender's *committed* policy is
//! executed. The solver crates answer "what policy to commit"; this crate
//! answers "how to run it, day after day, when the workload refuses to
//! stay stationary". It is the operational layer between a solved
//! [`audit_game::execute::AuditPolicy`] and a live alert stream:
//!
//! * [`online::OnlineFit`] — per-alert-type streaming distribution
//!   tracking: exact O(1) lifetime moments
//!   ([`stochastics::StreamingMoments`]) plus a sliding window of recent
//!   periods for refitting;
//! * [`online::DriftConfig`] — the goodness-of-fit drift gate: each epoch
//!   the recent window is tested against the committed count model
//!   ([`stochastics::gof::ks_statistic`]) and a re-solve is triggered only
//!   when the fit has broken down (or a staleness bound is hit);
//! * [`service::AuditService`] — the deterministic epoch loop: ingest
//!   per-period alert vectors from any registry
//!   [`audit_game::scenario::Scenario::alert_stream`], execute the
//!   committed policy every period, gate on drift every epoch, and
//!   re-solve **warm** from the incumbent solution
//!   ([`audit_game::solver::OapSolver::solve_warm`]) so the service keeps
//!   serving between cheap re-solves;
//! * [`checkpoint`] — warm service restart: freeze the loop state at any
//!   epoch boundary into a checkpoint directory
//!   ([`service::AuditService::checkpoint`]) and thaw it in a fresh
//!   process ([`service::AuditService::restore`] +
//!   [`service::AuditService::resume`]) with a report fingerprint
//!   bit-identical to an uninterrupted run;
//! * [`fleet`] — the multi-tenant scheduler: N independent
//!   [`service::AuditService`] loops (each its own scenario instance,
//!   seed, drift gate, and committed policy) on a bounded worker pool;
//!   tenants share no solver state, so per-tenant reports equal running
//!   each tenant alone, at every worker count;
//! * [`telemetry`] — structured per-epoch telemetry (realized detection
//!   rates, gap to the predicted `Pal`, drift statistics, solve latency,
//!   epochs-since-resolve) with a deterministic fingerprint: reruns and
//!   different thread counts produce bit-identical logs (wall-clock
//!   fields are excluded from the fingerprint);
//! * [`supervisor`] — deterministic fault injection
//!   ([`supervisor::FaultPlan`] / [`supervisor::FaultInjector`]), the
//!   tenant quarantine record ([`supervisor::TenantHealth`]), and
//!   round-based retry backoff ([`supervisor::RetryPolicy`]): every
//!   failure the fleet survives is planned, fingerprintable, and
//!   replayable, and tenants untouched by the plan stay bit-identical
//!   to a fault-free run.
//!
//! Everything is deterministic given the configuration seed; the umbrella
//! crate (`alert_audit::telemetry`) renders the telemetry as JSON and the
//! `exp_online` driver runs the service from the command line.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod fleet;
pub mod online;
pub mod service;
pub mod supervisor;
pub mod telemetry;

pub use checkpoint::{
    load_checkpoint, recover_checkpoint, restore_or_cold, save_checkpoint, LoadedCheckpoint,
    RecoveryReport, RecoverySource,
};
pub use fleet::{FleetConfig, FleetReport, FleetService, FleetTenantReport, TenantSpec};
pub use online::{DriftConfig, OnlineFit};
pub use service::{warm_start_rescaled, AuditService, RuntimeConfig, ServiceState};
pub use supervisor::{
    corrupt_file, panic_message, FaultInjector, FaultPlan, FaultSite, RetryPolicy, TenantFailure,
    TenantHealth,
};
pub use telemetry::{EpochTelemetry, ResolveStats, RuntimeReport};
