//! Persistent service checkpoints: freeze the epoch loop mid-run, thaw it
//! in a fresh process, finish with a bit-identical report.
//!
//! A checkpoint directory holds two snapshot containers (see
//! [`stochastics::snapshot`] for the on-disk format):
//!
//! * **`bank.snap`** — a scenario snapshot (`KIND_SCENARIO_BANK`):
//!   provenance (scenario key + service seed), the *committed* spec
//!   persisted by constructor parameters and fingerprint-verified on
//!   load, and the solver's common-random-number sample bank for that
//!   spec. The spec here may be a post-refit spec that no registry build
//!   can reproduce — which is exactly why it is persisted rather than
//!   rebuilt; the bank, by contrast, is redundant
//!   (`spec.sample_bank(n_samples, solver_seed)` regenerates it
//!   bit-exactly) and doubles as an end-to-end integrity probe: restore
//!   regenerates and compares.
//! * **`state.snap`** — the runtime state (`KIND_RUNTIME_STATE`): the
//!   full [`RuntimeConfig`] (so restore needs no flags re-specified), the
//!   epoch cursor, the incumbent [`AuditPolicy`], the engine cache
//!   counters, the drift tracker (recent windows exactly, lifetime
//!   moments by their f64 bits), and every recorded [`EpochTelemetry`].
//!   The cursor also stores the **fingerprint of the partial report** —
//!   the same [`RuntimeReport::fingerprint`] the property suite pins —
//!   and restore recomputes it over the decoded records, so a checkpoint
//!   whose telemetry chain was tampered with (even checksum-consistently,
//!   by rewriting both) still has to forge a matching FNV chain to load.
//!
//! Not persisted, recomputed instead: the scenario's alert stream (a pure
//! function of the scenario and seed), per-period execution RNG streams
//! (derived — see [`crate::service::EXEC_STREAM_BASE`]), the next
//! re-solve's warm start (derived from the incumbent policy and the specs
//! by [`crate::service::warm_start_rescaled`]), and the predicted-`Pal`
//! vector, computed from the incumbent policy over the persisted bank
//! once that bank has passed the regeneration check (so restore draws the
//! bank once, not twice). Decoding never panics: every structural
//! assumption is checked first and surfaces as a typed [`PersistError`].
//!
//! State files older than snapshot format version 3 use a layout whose
//! words would decode as different fields, so [`load_checkpoint`] refuses
//! them with [`PersistError::StaleFormat`]. `bank.snap` reads every
//! version up to the current one.
//!
//! [`AuditPolicy`]: audit_game::execute::AuditPolicy

use crate::online::{DriftConfig, OnlineFit};
use crate::service::{RuntimeConfig, ServiceState};
use crate::telemetry::{EpochTelemetry, RuntimeReport};
use audit_game::detection::{CacheStats, DetectionEstimator, DetectionModel, PalEngine};
use audit_game::persist::{
    decode_policy, encode_policy, save_scenario_snapshot, scenario_snapshot_from_bytes,
    PersistError, KIND_RUNTIME_STATE,
};
use audit_game::solver::{DegradeReason, InnerKind, SolverConfig};
use std::path::Path;
use stochastics::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};
use stochastics::StreamingMoments;

/// File name of the scenario snapshot (spec + sample bank) in a
/// checkpoint directory.
pub const BANK_FILE: &str = "bank.snap";
/// File name of the runtime-state snapshot in a checkpoint directory.
pub const STATE_FILE: &str = "state.snap";

/// Section tag: the full [`RuntimeConfig`].
pub const TAG_RT_CONFIG: u64 = 0x40;
/// Section tag: epoch cursor, scalars, and the telemetry-chain
/// fingerprint.
pub const TAG_RT_CURSOR: u64 = 0x41;
/// Section tag: detection-engine cache counters.
pub const TAG_RT_CACHE: u64 = 0x42;
/// Section tag: the drift tracker (windows + lifetime moments).
pub const TAG_RT_FIT: u64 = 0x43;
/// Section tag: recorded per-epoch telemetry.
pub const TAG_RT_TELEMETRY: u64 = 0x44;

/// Oldest snapshot format version whose runtime-state layout
/// [`load_checkpoint`] reads.
const OLDEST_STATE_VERSION: u32 = 3;

/// A decoded checkpoint: which scenario it belongs to, the configuration
/// the run was started with, and the mid-run state ready for
/// [`crate::service::AuditService::resume`].
pub struct LoadedCheckpoint {
    /// Registry key of the scenario the checkpoint was taken on.
    pub scenario_key: String,
    /// The persisted run configuration.
    pub config: RuntimeConfig,
    /// The reconstructed loop state.
    pub state: ServiceState,
}

// ---------------------------------------------------------------------
// Option helpers (presence word + value)
// ---------------------------------------------------------------------

fn put_opt_usize(w: &mut SectionWriter, v: Option<usize>) {
    w.put_bool(v.is_some());
    if let Some(x) = v {
        w.put_usize(x);
    }
}

fn get_opt_usize(r: &mut SectionReader<'_>) -> Result<Option<usize>, SnapshotError> {
    Ok(if r.get_bool()? {
        Some(r.get_usize()?)
    } else {
        None
    })
}

fn put_opt_f64(w: &mut SectionWriter, v: Option<f64>) {
    w.put_bool(v.is_some());
    if let Some(x) = v {
        w.put_f64(x);
    }
}

fn get_opt_f64(r: &mut SectionReader<'_>) -> Result<Option<f64>, SnapshotError> {
    Ok(if r.get_bool()? {
        Some(r.get_f64()?)
    } else {
        None
    })
}

// ---------------------------------------------------------------------
// RuntimeConfig codec
// ---------------------------------------------------------------------

fn encode_config(snap: &mut Snapshot, cfg: &RuntimeConfig) {
    let mut w = SectionWriter::new();
    w.put_usize(cfg.epochs);
    w.put_usize(cfg.periods_per_epoch);
    w.put_u64(cfg.seed);
    w.put_f64(cfg.solver.epsilon);
    w.put_usize(cfg.solver.n_samples);
    w.put_u64(cfg.solver.seed);
    w.put_u64(match cfg.solver.inner {
        InnerKind::Auto => 0,
        InnerKind::Exact => 1,
        InnerKind::Cggs => 2,
        InnerKind::Decomposed => 3,
    });
    w.put_u64(match cfg.solver.detection {
        DetectionModel::PaperApprox => 0,
        DetectionModel::AttackInclusive => 1,
        DetectionModel::Operational => 2,
    });
    w.put_bool(cfg.solver.dedup_actions);
    w.put_usize(cfg.solver.threads);
    w.put_usize(cfg.drift.window_periods);
    w.put_f64(cfg.drift.ks_threshold);
    put_opt_usize(&mut w, cfg.drift.max_stale_epochs);
    put_opt_usize(&mut w, cfg.solver.work_budget);
    snap.add_section(TAG_RT_CONFIG, w);
}

fn decode_config(snap: &Snapshot) -> Result<RuntimeConfig, PersistError> {
    let mut r = snap.section(TAG_RT_CONFIG)?;
    let epochs = r.get_usize()?;
    let periods_per_epoch = r.get_usize()?;
    let seed = r.get_u64()?;
    let epsilon = r.get_f64()?;
    let n_samples = r.get_usize()?;
    let solver_seed = r.get_u64()?;
    let inner = match r.get_u64()? {
        0 => InnerKind::Auto,
        1 => InnerKind::Exact,
        2 => InnerKind::Cggs,
        3 => InnerKind::Decomposed,
        k => return Err(PersistError::Spec(format!("unknown inner kind {k}"))),
    };
    let detection = match r.get_u64()? {
        0 => DetectionModel::PaperApprox,
        1 => DetectionModel::AttackInclusive,
        2 => DetectionModel::Operational,
        k => return Err(PersistError::Spec(format!("unknown detection model {k}"))),
    };
    let dedup_actions = r.get_bool()?;
    let threads = r.get_usize()?;
    let window_periods = r.get_usize()?;
    let ks_threshold = r.get_f64()?;
    let max_stale_epochs = get_opt_usize(&mut r)?;
    let work_budget = get_opt_usize(&mut r)?;
    if epochs == 0 || periods_per_epoch == 0 {
        return Err(PersistError::Spec("empty epoch horizon".into()));
    }
    if window_periods == 0 || n_samples == 0 {
        return Err(PersistError::Spec("empty window or sample bank".into()));
    }
    if !(epsilon.is_finite() && ks_threshold.is_finite()) {
        return Err(PersistError::Spec("non-finite configuration scalar".into()));
    }
    Ok(RuntimeConfig {
        epochs,
        periods_per_epoch,
        seed,
        solver: SolverConfig {
            epsilon,
            n_samples,
            seed: solver_seed,
            inner,
            detection,
            dedup_actions,
            threads,
            work_budget,
        },
        drift: DriftConfig {
            window_periods,
            ks_threshold,
            max_stale_epochs,
        },
    })
}

// ---------------------------------------------------------------------
// Cursor / cache / fit / telemetry codecs
// ---------------------------------------------------------------------

struct Cursor {
    key: String,
    epoch: usize,
    next_alert_id: u64,
    epochs_since_resolve: usize,
    loss: f64,
    initial_objective: f64,
    initial_solve_millis: f64,
    attacker_belief: Vec<f64>,
    telemetry_fingerprint: u64,
}

fn encode_cursor(snap: &mut Snapshot, key: &str, state: &ServiceState, fingerprint: u64) {
    let mut w = SectionWriter::new();
    w.put_str(key);
    w.put_usize(state.epoch);
    w.put_u64(state.next_alert_id);
    w.put_usize(state.epochs_since_resolve);
    w.put_f64(state.loss);
    w.put_f64(state.initial_objective);
    w.put_f64(state.initial_solve_millis);
    w.put_f64s(&state.attacker_belief);
    w.put_u64(fingerprint);
    snap.add_section(TAG_RT_CURSOR, w);
}

fn decode_cursor(snap: &Snapshot) -> Result<Cursor, PersistError> {
    let mut r = snap.section(TAG_RT_CURSOR)?;
    let key = r.get_str()?;
    let epoch = r.get_usize()?;
    let next_alert_id = r.get_u64()?;
    let epochs_since_resolve = r.get_usize()?;
    let loss = r.get_f64()?;
    let initial_objective = r.get_f64()?;
    let initial_solve_millis = r.get_f64()?;
    let attacker_belief = r.get_f64s()?;
    let telemetry_fingerprint = r.get_u64()?;
    if !attacker_belief.iter().all(|b| b.is_finite()) {
        return Err(PersistError::Spec(
            "non-finite attacker belief in cursor".into(),
        ));
    }
    Ok(Cursor {
        key,
        epoch,
        next_alert_id,
        epochs_since_resolve,
        loss,
        initial_objective,
        initial_solve_millis,
        attacker_belief,
        telemetry_fingerprint,
    })
}

fn encode_cache(snap: &mut Snapshot, c: &CacheStats) {
    let mut w = SectionWriter::new();
    w.put_u64(c.hits);
    w.put_u64(c.misses);
    w.put_usize(c.entries);
    w.put_u64(c.evictions);
    w.put_usize(c.state_entries);
    w.put_u64(c.state_hits);
    w.put_u64(c.state_evictions);
    w.put_u64(c.columns_evaluated);
    w.put_u64(c.columns_saved);
    snap.add_section(TAG_RT_CACHE, w);
}

fn decode_cache(snap: &Snapshot) -> Result<CacheStats, PersistError> {
    let mut r = snap.section(TAG_RT_CACHE)?;
    Ok(CacheStats {
        hits: r.get_u64()?,
        misses: r.get_u64()?,
        entries: r.get_usize()?,
        evictions: r.get_u64()?,
        state_entries: r.get_usize()?,
        state_hits: r.get_u64()?,
        state_evictions: r.get_u64()?,
        columns_evaluated: r.get_u64()?,
        columns_saved: r.get_u64()?,
    })
}

fn encode_fit(snap: &mut Snapshot, fit: &OnlineFit) {
    let mut w = SectionWriter::new();
    w.put_usize(fit.window_cap());
    w.put_usize(fit.periods());
    w.put_usize(fit.n_types());
    for t in 0..fit.n_types() {
        w.put_u64s(fit.window(t));
        let m = fit.lifetime(t);
        w.put_u64(m.count());
        w.put_f64(m.mean());
        w.put_f64(m.m2());
        w.put_u64(m.max());
    }
    snap.add_section(TAG_RT_FIT, w);
}

fn decode_fit(snap: &Snapshot) -> Result<OnlineFit, PersistError> {
    let mut r = snap.section(TAG_RT_FIT)?;
    let window_cap = r.get_usize()?;
    let periods = r.get_usize()?;
    let n_types = r.get_usize()?;
    if n_types == 0 || window_cap == 0 {
        return Err(PersistError::Spec("empty drift tracker".into()));
    }
    let mut windows = Vec::with_capacity(n_types.min(4096));
    let mut lifetime = Vec::with_capacity(n_types.min(4096));
    for t in 0..n_types {
        let window = r.get_u64s()?;
        if window.len() > window_cap.min(periods) {
            return Err(PersistError::Spec(format!(
                "drift window of type {t} holds {} entries, capacity {window_cap} over {periods} \
                 periods",
                window.len()
            )));
        }
        let n = r.get_u64()?;
        let mean = r.get_f64()?;
        let m2 = r.get_f64()?;
        let max = r.get_u64()?;
        if !(mean.is_finite() && m2.is_finite()) || m2 < 0.0 {
            return Err(PersistError::Spec(format!(
                "lifetime moments of type {t} are not finite"
            )));
        }
        if n as usize != periods {
            return Err(PersistError::Spec(format!(
                "lifetime moments of type {t} cover {n} periods, cursor says {periods}"
            )));
        }
        windows.push(window);
        lifetime.push(StreamingMoments::from_parts(n, mean, m2, max));
    }
    Ok(OnlineFit::from_parts(
        window_cap, periods, windows, lifetime,
    ))
}

/// Inverse of [`DegradeReason::code`] for the telemetry codec.
fn degrade_from_code(code: u64) -> Result<DegradeReason, PersistError> {
    match code {
        1 => Ok(DegradeReason::Truncated),
        2 => Ok(DegradeReason::KeptIncumbent),
        c if c >= 16 => Ok(DegradeReason::Degraded {
            tiers: (c - 16) as usize,
        }),
        c => Err(PersistError::Spec(format!("unknown degrade code {c}"))),
    }
}

fn encode_telemetry(snap: &mut Snapshot, records: &[EpochTelemetry]) {
    let mut w = SectionWriter::new();
    w.put_usize(records.len());
    for e in records {
        w.put_usize(e.epoch);
        w.put_usize(e.periods);
        w.put_u64s(&e.alerts_seen);
        w.put_u64s(&e.alerts_audited);
        w.put_f64(e.mean_spent);
        w.put_f64s(&e.realized_rate);
        w.put_f64s(&e.predicted_pal);
        w.put_f64(e.pal_gap);
        w.put_f64(e.max_ks);
        w.put_bool(e.drift);
        w.put_bool(e.resolved);
        w.put_usize(e.epochs_since_resolve);
        w.put_f64(e.objective);
        w.put_f64s(&e.thresholds);
        w.put_u64(e.attacks_launched);
        w.put_u64(e.attacks_detected);
        w.put_f64(e.attacker_utility);
        w.put_f64(e.auditor_damage);
        put_opt_usize(&mut w, e.solve_explored);
        put_opt_f64(&mut w, e.solve_millis);
        w.put_bool(e.degrade.is_some());
        if let Some(d) = &e.degrade {
            w.put_u64(d.code());
        }
        w.put_bool(e.ks_degenerate);
    }
    snap.add_section(TAG_RT_TELEMETRY, w);
}

fn decode_telemetry(snap: &Snapshot) -> Result<Vec<EpochTelemetry>, PersistError> {
    let mut r = snap.section(TAG_RT_TELEMETRY)?;
    let count = r.get_usize()?;
    let mut records = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        records.push(EpochTelemetry {
            epoch: r.get_usize()?,
            periods: r.get_usize()?,
            alerts_seen: r.get_u64s()?,
            alerts_audited: r.get_u64s()?,
            mean_spent: r.get_f64()?,
            realized_rate: r.get_f64s()?,
            predicted_pal: r.get_f64s()?,
            pal_gap: r.get_f64()?,
            max_ks: r.get_f64()?,
            drift: r.get_bool()?,
            resolved: r.get_bool()?,
            epochs_since_resolve: r.get_usize()?,
            objective: r.get_f64()?,
            thresholds: r.get_f64s()?,
            attacks_launched: r.get_u64()?,
            attacks_detected: r.get_u64()?,
            attacker_utility: r.get_f64()?,
            auditor_damage: r.get_f64()?,
            solve_explored: get_opt_usize(&mut r)?,
            solve_millis: get_opt_f64(&mut r)?,
            degrade: if r.get_bool()? {
                Some(degrade_from_code(r.get_u64()?)?)
            } else {
                None
            },
            ks_degenerate: r.get_bool()?,
        });
    }
    Ok(records)
}

/// The partial-report fingerprint the cursor chains: identical to
/// [`RuntimeReport::fingerprint`] over the epochs recorded so far.
fn partial_fingerprint(
    key: &str,
    cfg: &RuntimeConfig,
    state: &ServiceState,
    cache: &CacheStats,
) -> u64 {
    RuntimeReport {
        scenario: key.to_string(),
        seed: cfg.seed,
        periods_per_epoch: cfg.periods_per_epoch,
        initial_objective: state.initial_objective,
        initial_solve_millis: state.initial_solve_millis,
        engine_cache: *cache,
        epochs: state.records.clone(),
    }
    .fingerprint()
}

// ---------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------

fn io_err(path: &Path, e: std::io::Error) -> PersistError {
    PersistError::Snapshot(SnapshotError::Io(format!("{}: {e}", path.display())))
}

/// Persist a mid-run service state to `dir` (created if missing):
/// `bank.snap` with the committed spec + solver sample bank, `state.snap`
/// with everything else, overwriting any pair already there. See the
/// module docs for the layout.
pub fn save_checkpoint(
    dir: &Path,
    scenario_key: &str,
    cfg: &RuntimeConfig,
    state: &ServiceState,
) -> Result<(), PersistError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let bank = state
        .spec
        .sample_bank(cfg.solver.n_samples, cfg.solver.seed);
    save_scenario_snapshot(
        &dir.join(BANK_FILE),
        scenario_key,
        cfg.seed,
        &state.spec,
        &bank,
    )?;

    let mut snap = Snapshot::new(KIND_RUNTIME_STATE);
    encode_config(&mut snap, cfg);
    let fingerprint = partial_fingerprint(scenario_key, cfg, state, &state.engine_cache);
    encode_cursor(&mut snap, scenario_key, state, fingerprint);
    encode_policy(&mut snap, &state.policy);
    encode_cache(&mut snap, &state.engine_cache);
    encode_fit(&mut snap, &state.fit);
    encode_telemetry(&mut snap, &state.records);
    snap.write_to(&dir.join(STATE_FILE))?;
    Ok(())
}

/// Load and fully verify a checkpoint directory. Beyond the per-file
/// container checks (magic, version, checksum, section framing), this
/// refuses state files older than the current runtime-state layout
/// ([`PersistError::StaleFormat`]) and cross-validates the two files and
/// the chain of invariants the epoch loop maintains: spec fingerprint,
/// bank size, bank-vs-regeneration equality, scenario-key agreement,
/// telemetry-chain fingerprint, record count vs epoch cursor,
/// drift-tracker period count, and alert-id continuity.
pub fn load_checkpoint(dir: &Path) -> Result<LoadedCheckpoint, PersistError> {
    let snap = Snapshot::read_from(&dir.join(STATE_FILE))?;
    snap.expect_kind(KIND_RUNTIME_STATE)?;
    if snap.version < OLDEST_STATE_VERSION {
        return Err(PersistError::StaleFormat {
            found: snap.version,
            oldest: OLDEST_STATE_VERSION,
        });
    }
    let config = decode_config(&snap)?;
    let cursor = decode_cursor(&snap)?;
    let policy = decode_policy(&snap)?;
    let cache = decode_cache(&snap)?;
    let fit = decode_fit(&snap)?;
    let records = decode_telemetry(&snap)?;

    if cursor.epoch > config.epochs {
        return Err(PersistError::Provenance(format!(
            "cursor at epoch {} beyond the {}-epoch horizon",
            cursor.epoch, config.epochs
        )));
    }
    if records.len() != cursor.epoch {
        return Err(PersistError::Provenance(format!(
            "{} telemetry records for a cursor at epoch {}",
            records.len(),
            cursor.epoch
        )));
    }
    if fit.periods() != cursor.epoch * config.periods_per_epoch {
        return Err(PersistError::Provenance(format!(
            "drift tracker observed {} periods, cursor implies {}",
            fit.periods(),
            cursor.epoch * config.periods_per_epoch
        )));
    }
    let total_alerts: u64 = records
        .iter()
        .map(|e| e.alerts_seen.iter().sum::<u64>())
        .sum();
    if total_alerts != cursor.next_alert_id {
        return Err(PersistError::Provenance(format!(
            "telemetry accounts for {total_alerts} alerts, cursor for {}",
            cursor.next_alert_id
        )));
    }

    let loaded = {
        let path = dir.join(BANK_FILE);
        scenario_snapshot_from_bytes(&std::fs::read(&path).map_err(|e| io_err(&path, e))?)?
    };
    if loaded.key != cursor.key {
        return Err(PersistError::Provenance(format!(
            "state file belongs to scenario '{}', bank file to '{}'",
            cursor.key, loaded.key
        )));
    }
    if loaded.seed != config.seed {
        return Err(PersistError::Provenance(format!(
            "bank snapshot was taken at seed {}, config says {}",
            loaded.seed, config.seed
        )));
    }
    if policy.thresholds.len() != loaded.spec.n_types() || fit.n_types() != loaded.spec.n_types() {
        return Err(PersistError::Provenance(
            "policy or drift tracker arity disagrees with the spec".into(),
        ));
    }
    if cursor.attacker_belief.len() != loaded.spec.n_types() {
        return Err(PersistError::Provenance(format!(
            "attacker belief covers {} types, spec has {}",
            cursor.attacker_belief.len(),
            loaded.spec.n_types()
        )));
    }
    // The sample count is a word of the state file: check it against the
    // bank actually read before drawing a bank of that size.
    if loaded.bank.n_samples() != config.solver.n_samples {
        return Err(PersistError::Provenance(format!(
            "bank snapshot holds {} samples, config says {}",
            loaded.bank.n_samples(),
            config.solver.n_samples
        )));
    }
    // End-to-end integrity probe: the persisted bank must equal a fresh
    // regeneration from the (fingerprint-verified) spec.
    let regen = loaded
        .spec
        .sample_bank(config.solver.n_samples, config.solver.seed);
    if regen.columns_flat() != loaded.bank.columns_flat() {
        return Err(PersistError::Provenance(
            "persisted sample bank does not match regeneration from the spec".into(),
        ));
    }

    // Derived state is recomputed, bit-identically, from persisted inputs:
    // the predicted `Pal` over the bank just verified.
    let est = DetectionEstimator::new(&loaded.spec, &loaded.bank, config.solver.detection);
    let predicted = policy.expected_pal(&PalEngine::new(est, config.solver.threads));

    let state = ServiceState {
        epoch: cursor.epoch,
        spec: loaded.spec,
        policy,
        loss: cursor.loss,
        engine_cache: cache,
        fit,
        next_alert_id: cursor.next_alert_id,
        epochs_since_resolve: cursor.epochs_since_resolve,
        initial_objective: cursor.initial_objective,
        initial_solve_millis: cursor.initial_solve_millis,
        predicted,
        attacker_belief: cursor.attacker_belief,
        records,
    };
    // Close the telemetry chain: the partial report reconstructed from
    // this state must fingerprint to the value the cursor recorded.
    let computed = partial_fingerprint(&cursor.key, &config, &state, &state.engine_cache);
    if computed != cursor.telemetry_fingerprint {
        return Err(PersistError::FingerprintMismatch {
            stored: cursor.telemetry_fingerprint,
            computed,
        });
    }
    Ok(LoadedCheckpoint {
        scenario_key: cursor.key,
        config,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AuditService;
    use audit_game::scenario::registry;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("audit-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> RuntimeConfig {
        RuntimeConfig {
            epochs: 6,
            periods_per_epoch: 3,
            seed: 11,
            solver: SolverConfig {
                n_samples: 60,
                epsilon: 0.25,
                inner: InnerKind::Cggs,
                ..Default::default()
            },
            drift: DriftConfig {
                window_periods: 6,
                max_stale_epochs: Some(3),
                ..Default::default()
            },
        }
    }

    /// A saved state file re-encoded with `cfg` and `records` in place of
    /// its own, every other section as saved. The container checksum is
    /// recomputed, so the result passes the container checks.
    fn reencode_state(
        snap: &Snapshot,
        cfg: &RuntimeConfig,
        records: &[EpochTelemetry],
    ) -> Snapshot {
        let mut forged = Snapshot::new(KIND_RUNTIME_STATE);
        encode_config(&mut forged, cfg);
        let mut cursor = SectionWriter::new();
        let mut r = snap.section(TAG_RT_CURSOR).unwrap();
        while r.remaining() >= 8 {
            cursor.put_u64(r.get_u64().unwrap());
        }
        forged.add_section(TAG_RT_CURSOR, cursor);
        encode_policy(&mut forged, &decode_policy(snap).unwrap());
        encode_cache(&mut forged, &decode_cache(snap).unwrap());
        encode_fit(&mut forged, &decode_fit(snap).unwrap());
        encode_telemetry(&mut forged, records);
        forged
    }

    #[test]
    fn checkpoint_roundtrip_restores_equivalent_state() {
        let reg = registry();
        let scenario = reg.get("syn-seasonal").unwrap().clone();
        let service = AuditService::new(Arc::clone(&scenario), small_config());
        let state = service.run_until(3).unwrap();
        let dir = temp_dir("roundtrip");
        service.checkpoint(&state, &dir).unwrap();

        let (restored_service, restored) =
            AuditService::restore(Arc::clone(&scenario), &dir).unwrap();
        assert_eq!(restored.epoch, state.epoch);
        assert_eq!(restored.next_alert_id, state.next_alert_id);
        assert_eq!(restored.epochs_since_resolve, state.epochs_since_resolve);
        assert_eq!(restored.loss.to_bits(), state.loss.to_bits());
        assert_eq!(restored.policy.thresholds, state.policy.thresholds);
        assert_eq!(restored.policy.orders, state.policy.orders);
        assert_eq!(restored.spec.fingerprint(), state.spec.fingerprint());
        assert_eq!(restored.records.len(), state.records.len());
        for t in 0..restored.fit.n_types() {
            assert_eq!(restored.fit.window(t), state.fit.window(t));
        }
        // Recomputed derived state is bit-identical too.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&restored.predicted), bits(&state.predicted));

        // The resumed run finishes with the exact fingerprint of an
        // uninterrupted one.
        let full = service.run().unwrap();
        let resumed = restored_service.resume(restored).unwrap();
        assert_eq!(full.fingerprint(), resumed.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_scenario_is_rejected_on_restore() {
        let reg = registry();
        let scenario = reg.get("syn-seasonal").unwrap().clone();
        let service = AuditService::new(Arc::clone(&scenario), small_config());
        let state = service.run_until(2).unwrap();
        let dir = temp_dir("wrong-scenario");
        service.checkpoint(&state, &dir).unwrap();
        let other = reg.get("syn-a").unwrap().clone();
        assert!(AuditService::restore(other, &dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_telemetry_chain_is_rejected() {
        let reg = registry();
        let scenario = reg.get("syn-seasonal").unwrap().clone();
        let service = AuditService::new(Arc::clone(&scenario), small_config());
        let state = service.run_until(2).unwrap();
        let dir = temp_dir("tamper");
        service.checkpoint(&state, &dir).unwrap();

        // Rewrite state.snap with one telemetry counter bumped — the
        // container checksum is recomputed (so the file is
        // checksum-valid), but the cursor's chained fingerprint is not.
        let snap = Snapshot::read_from(&dir.join(STATE_FILE)).unwrap();
        let mut records = decode_telemetry(&snap).unwrap();
        records[0].alerts_audited[0] += 1;
        let forged = reencode_state(&snap, &decode_config(&snap).unwrap(), &records);
        forged.write_to(&dir.join(STATE_FILE)).unwrap();

        // Alert accounting still matches (audited, not seen, was bumped),
        // so the failure is the fingerprint chain, not an arity check.
        assert!(matches!(
            load_checkpoint(&dir),
            Err(PersistError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sample_count_is_checked_before_a_bank_is_drawn() {
        let reg = registry();
        let scenario = reg.get("syn-seasonal").unwrap().clone();
        let service = AuditService::new(Arc::clone(&scenario), small_config());
        let state = service.run_until(2).unwrap();
        let dir = temp_dir("sample-count");
        service.checkpoint(&state, &dir).unwrap();

        // A sample count whose bank byte size overflows: drawing that bank
        // to compare it would panic in the allocator, so the count has to
        // be refused against the bank read from `bank.snap` first.
        let snap = Snapshot::read_from(&dir.join(STATE_FILE)).unwrap();
        let mut cfg = decode_config(&snap).unwrap();
        cfg.solver.n_samples = usize::MAX / 4;
        let forged = reencode_state(&snap, &cfg, &decode_telemetry(&snap).unwrap());
        forged.write_to(&dir.join(STATE_FILE)).unwrap();
        assert!(matches!(
            load_checkpoint(&dir),
            Err(PersistError::Provenance(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_files_older_than_format_3_are_refused() {
        let reg = registry();
        let scenario = reg.get("syn-seasonal").unwrap().clone();
        let service = AuditService::new(Arc::clone(&scenario), small_config());
        let state = service.run_until(2).unwrap();
        let dir = temp_dir("stale-format");
        service.checkpoint(&state, &dir).unwrap();
        assert!(load_checkpoint(&dir).is_ok());

        // Stamp the header as version 2. The checksum covers only the
        // payload, so the container itself still validates.
        let path = dir.join(STATE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        assert!(Snapshot::read_from(&path).is_ok());
        assert!(matches!(
            load_checkpoint(&dir),
            Err(PersistError::StaleFormat {
                found: 2,
                oldest: 3
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_surface_typed_io_errors() {
        let dir = temp_dir("missing");
        assert!(matches!(
            load_checkpoint(&dir),
            Err(PersistError::Snapshot(SnapshotError::Io(_)))
        ));
    }
}
