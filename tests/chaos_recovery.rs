//! Checkpoint-directory chaos: the hardened recovery ladder against
//! whole-directory damage.
//!
//! [`recover_checkpoint`] must survive every way a checkpoint pair can
//! rot on disk — a flipped byte, a truncated file, a deleted file, in
//! either `bank.snap` or `state.snap` — by quarantining the damaged
//! primary and restoring the rotated `last_good/` pair, with the resumed
//! run fingerprint-identical to the uninterrupted one. When *both*
//! levels are shredded, [`restore_or_cold`] regenerates from a cold
//! start. Nothing in the ladder may panic; every dead end is a typed
//! error.

use alert_audit::scenario::registry;
use audit_game::solver::{InnerKind, SolverConfig};
use audit_runtime::checkpoint::{BANK_FILE, LAST_GOOD_DIR, QUARANTINE_DIR, STATE_FILE};
use audit_runtime::{
    corrupt_file, recover_checkpoint, restore_or_cold, AuditService, DriftConfig, FaultInjector,
    FaultPlan, FaultSite, RecoverySource, RuntimeConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("audit-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(epochs: usize) -> RuntimeConfig {
    RuntimeConfig {
        epochs,
        periods_per_epoch: 3,
        seed: 13,
        solver: SolverConfig {
            inner: InnerKind::Cggs,
            n_samples: 40,
            epsilon: 0.5,
            seed: 13,
            ..Default::default()
        },
        drift: DriftConfig {
            max_stale_epochs: Some(2),
            ..Default::default()
        },
    }
}

/// One way to damage a file on disk.
#[derive(Clone, Copy, Debug)]
enum Damage {
    FlipByte,
    Truncate,
    Remove,
}

impl Damage {
    fn apply(self, path: &Path) {
        match self {
            Damage::FlipByte => corrupt_file(path, 3).unwrap(),
            Damage::Truncate => {
                let bytes = std::fs::read(path).unwrap();
                std::fs::write(path, &bytes[..bytes.len() / 3]).unwrap();
            }
            Damage::Remove => std::fs::remove_file(path).unwrap(),
        }
    }
}

/// Checkpoint at epoch 2 and again at epoch 3 (rotating the epoch-2 pair
/// into `last_good/`), returning the service and the uninterrupted-run
/// fingerprint to diff resumes against.
fn seeded_checkpoint(dir: &Path) -> (AuditService, u64) {
    let reg = registry();
    let scenario = reg.get("syn-seasonal").unwrap().clone();
    let service = AuditService::new(Arc::clone(&scenario), config(5));
    let want = service.run().unwrap().fingerprint();

    let mut state = service.run_until(2).unwrap();
    service.checkpoint(&state, dir).unwrap();
    let stream = service.full_alert_stream().unwrap();
    service.advance_with_stream(&mut state, 3, &stream).unwrap();
    service.checkpoint(&state, dir).unwrap();
    (service, want)
}

/// The full damage table: every file x every damage mode falls back to
/// the `last_good/` pair, quarantines the primary, and resumes
/// fingerprint-identical to the uninterrupted run.
#[test]
fn every_single_file_damage_falls_back_to_last_good() {
    for file in [BANK_FILE, STATE_FILE] {
        for damage in [Damage::FlipByte, Damage::Truncate, Damage::Remove] {
            let dir = temp_dir(&format!("{file}-{damage:?}"));
            let (service, want) = seeded_checkpoint(&dir);
            damage.apply(&dir.join(file));

            let (loaded, report) = recover_checkpoint(&dir)
                .unwrap_or_else(|e| panic!("{file}/{damage:?}: recovery failed: {e}"));
            assert_eq!(report.source, RecoverySource::LastGood, "{file}/{damage:?}");
            assert!(report.quarantined, "{file}/{damage:?}: nothing quarantined");
            assert!(report.cause.is_some());
            assert_eq!(loaded.state.epoch, 2, "{file}/{damage:?}: wrong fallback");
            // The damaged primary was preserved as evidence, not deleted.
            assert!(
                dir.join(QUARANTINE_DIR).join(STATE_FILE).is_file()
                    || dir.join(QUARANTINE_DIR).join(BANK_FILE).is_file(),
                "{file}/{damage:?}: quarantine dir empty"
            );

            let resumed = service.resume(loaded.state).unwrap();
            assert_eq!(
                resumed.fingerprint(),
                want,
                "{file}/{damage:?}: resume from last_good diverged"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Damage to the whole directory — both levels shredded — lands on the
/// cold rung of [`restore_or_cold`]: the tenant is degraded (it lost its
/// progress), never stranded, and the regenerated run is fingerprint-
/// identical to a fresh one.
#[test]
fn shredding_both_levels_falls_back_to_cold_start() {
    let dir = temp_dir("both-levels");
    let (_service, want) = seeded_checkpoint(&dir);
    for file in [BANK_FILE, STATE_FILE] {
        Damage::FlipByte.apply(&dir.join(file));
        Damage::Truncate.apply(&dir.join(LAST_GOOD_DIR).join(file));
    }

    // recover_checkpoint alone errs typed — never panics.
    match recover_checkpoint(&dir) {
        Ok(_) => panic!("both levels corrupt must not recover"),
        Err(e) => assert!(!e.to_string().is_empty()),
    }

    let reg = registry();
    let scenario = reg.get("syn-seasonal").unwrap().clone();
    let (service, state, report) = restore_or_cold(scenario, &dir, &config(5)).unwrap();
    assert_eq!(report.source, RecoverySource::Cold);
    assert!(report.quarantined);
    assert_eq!(state.epoch, 0);
    assert_eq!(service.resume(state).unwrap().fingerprint(), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory that never existed is the trivial cold start: nothing to
/// quarantine, and the regenerated run matches a fresh one exactly.
#[test]
fn missing_directory_is_a_clean_cold_start() {
    let dir = temp_dir("missing");
    let reg = registry();
    let scenario = reg.get("syn-a").unwrap().clone();
    let (service, state, report) = restore_or_cold(scenario.clone(), &dir, &config(3)).unwrap();
    assert_eq!(report.source, RecoverySource::Cold);
    assert!(!report.quarantined);
    assert_eq!(state.epoch, 0);
    let resumed = service.resume(state).unwrap();
    let fresh = AuditService::new(scenario, config(3)).run().unwrap();
    assert_eq!(resumed.fingerprint(), fresh.fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

/// The injected checkpoint faults drive the same ladder end to end: a
/// `CheckpointWrite` fault tears the primary as it is saved, a
/// `CheckpointRead` fault rots it before the read-back; both restores
/// land on `last_good/` and resume fingerprint-identical.
#[test]
fn injected_checkpoint_faults_recover_through_last_good() {
    // --- CheckpointWrite: fires inside AuditService::checkpoint at the
    // state epoch being saved (epoch 3, the second checkpoint).
    let dir = temp_dir("inject-write");
    let reg = registry();
    let scenario = reg.get("syn-seasonal").unwrap().clone();
    let plan = Arc::new(FaultPlan::new().inject("w", 3, FaultSite::CheckpointWrite));
    let service = AuditService::new(Arc::clone(&scenario), config(5))
        .with_injector(FaultInjector::new(Arc::clone(&plan), "w"));
    let want = service.run().unwrap().fingerprint();
    let mut state = service.run_until(2).unwrap();
    service.checkpoint(&state, &dir).unwrap(); // epoch 2: clean
    let stream = service.full_alert_stream().unwrap();
    service.advance_with_stream(&mut state, 3, &stream).unwrap();
    service.checkpoint(&state, &dir).unwrap(); // epoch 3: torn write

    let (loaded, report) = recover_checkpoint(&dir).unwrap();
    assert_eq!(report.source, RecoverySource::LastGood);
    assert_eq!(loaded.state.epoch, 2);
    assert_eq!(service.resume(loaded.state).unwrap().fingerprint(), want);
    std::fs::remove_dir_all(&dir).ok();

    // --- CheckpointRead: the harness corrupts between save and restore.
    let dir = temp_dir("inject-read");
    let plan = Arc::new(FaultPlan::new().inject("r", 3, FaultSite::CheckpointRead));
    let injector = FaultInjector::new(Arc::clone(&plan), "r");
    let (service, want) = seeded_checkpoint(&dir);
    assert!(injector.corrupt_for_read(3, &dir.join(STATE_FILE)).unwrap());
    // One-shot: the same fault never fires twice.
    assert!(!injector.corrupt_for_read(3, &dir.join(STATE_FILE)).unwrap());

    let (loaded, report) = recover_checkpoint(&dir).unwrap();
    assert_eq!(report.source, RecoverySource::LastGood);
    assert_eq!(loaded.state.epoch, 2);
    assert_eq!(service.resume(loaded.state).unwrap().fingerprint(), want);
    std::fs::remove_dir_all(&dir).ok();
}
