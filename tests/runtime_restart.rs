//! Warm-restart equivalence of the online auditing service.
//!
//! The contract of [`AuditService::checkpoint`] / [`AuditService::restore`]
//! is total: a run interrupted at *any* epoch boundary and resumed from
//! its checkpoint must produce a [`RuntimeReport`] whose deterministic
//! fingerprint — which covers every telemetry field except wall-clock
//! latencies — is bit-identical to the uninterrupted run. This suite
//! drives that contract end to end through the public service API, at
//! every interruption point of a short horizon and across engine thread
//! counts (thread count never changes results, including through a
//! checkpoint).

use alert_audit::scenario::registry;
use audit_game::solver::{InnerKind, SolverConfig};
use audit_runtime::{AuditService, DriftConfig, RuntimeConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("audit-restart-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(epochs: usize, threads: usize) -> RuntimeConfig {
    RuntimeConfig {
        epochs,
        periods_per_epoch: 4,
        seed: 7,
        solver: SolverConfig {
            inner: InnerKind::Cggs,
            n_samples: 100,
            epsilon: 0.25,
            seed: 7,
            threads,
            ..Default::default()
        },
        drift: DriftConfig {
            window_periods: 8,
            ks_threshold: 0.25,
            max_stale_epochs: Some(4),
        },
    }
}

/// Interrupt at every epoch boundary of an 8-epoch run; each restore must
/// land on the uninterrupted fingerprint.
#[test]
fn restore_is_fingerprint_identical_at_every_interruption_point() {
    let reg = registry();
    let scenario = reg.get("syn-seasonal").unwrap().clone();
    let epochs = 8;

    let full = AuditService::new(Arc::clone(&scenario), config(epochs, 1))
        .run()
        .unwrap();
    let want = full.fingerprint();

    for stop in 1..epochs {
        let dir = temp_dir(&format!("stop{stop}"));
        let service = AuditService::new(Arc::clone(&scenario), config(epochs, 1));
        let state = service.run_until(stop).unwrap();
        assert_eq!(state.epoch, stop);
        service.checkpoint(&state, &dir).unwrap();
        drop(service); // the original service is gone — a true cold restart

        let (restored, state) = AuditService::restore(Arc::clone(&scenario), &dir).unwrap();
        let report = restored.resume(state).unwrap();
        assert_eq!(
            report.fingerprint(),
            want,
            "restore at epoch {stop} diverged from the uninterrupted run"
        );
        assert_eq!(report.epochs.len(), full.epochs.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A checkpoint taken under one engine thread count must restore and
/// finish identically under the same seedline regardless of threads —
/// parallelism is a wall-clock knob, never a results knob.
#[test]
fn restore_agrees_across_thread_counts() {
    let reg = registry();
    let scenario = reg.get("syn-seasonal").unwrap().clone();
    let epochs = 6;

    let mut fingerprints = Vec::new();
    for threads in [1usize, 2, 4] {
        let dir = temp_dir(&format!("threads{threads}"));
        let service = AuditService::new(Arc::clone(&scenario), config(epochs, threads));
        let state = service.run_until(3).unwrap();
        service.checkpoint(&state, &dir).unwrap();
        let (restored, state) = AuditService::restore(Arc::clone(&scenario), &dir).unwrap();
        fingerprints.push(restored.resume(state).unwrap().fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[0], fingerprints[2]);
}

/// The adaptive-attacker scenario threads extra state through a restart:
/// the attacker's EWMA belief over published policies and the attack
/// telemetry counters. Interrupting mid-adaptation must not lose either —
/// every restore point lands on the uninterrupted fingerprint, and the
/// run must actually contain attacks (a zero-attack run would make this
/// test vacuous).
#[test]
fn adaptive_attacker_restores_fingerprint_identical_mid_adaptation() {
    let reg = registry();
    let scenario = reg.get("syn-adaptive").unwrap().clone();
    let epochs = 6;

    let full = AuditService::new(Arc::clone(&scenario), config(epochs, 1))
        .run()
        .unwrap();
    let want = full.fingerprint();
    let launched: u64 = full.epochs.iter().map(|e| e.attacks_launched).sum();
    assert!(launched > 0, "adaptive soak ran without a single attack");

    for stop in [2usize, 4] {
        let dir = temp_dir(&format!("adaptive{stop}"));
        let service = AuditService::new(Arc::clone(&scenario), config(epochs, 1));
        let state = service.run_until(stop).unwrap();
        assert_eq!(
            state.attacker_belief.len(),
            full.epochs[0].alerts_seen.len(),
            "belief vector arity drifted"
        );
        service.checkpoint(&state, &dir).unwrap();
        drop(service);

        let (restored, state) = AuditService::restore(Arc::clone(&scenario), &dir).unwrap();
        let report = restored.resume(state).unwrap();
        assert_eq!(
            report.fingerprint(),
            want,
            "adaptive restore at epoch {stop} diverged from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Checkpointing at the horizon is legal: restore yields the finished
/// report without running another epoch.
#[test]
fn checkpoint_at_the_horizon_restores_the_finished_run() {
    let reg = registry();
    let scenario = reg.get("syn-a").unwrap().clone();
    let epochs = 4;
    let dir = temp_dir("done");

    let service = AuditService::new(Arc::clone(&scenario), config(epochs, 1));
    let state = service.run_until(epochs).unwrap();
    let want = service.report(state.clone()).fingerprint();
    service.checkpoint(&state, &dir).unwrap();

    let (restored, state) = AuditService::restore(Arc::clone(&scenario), &dir).unwrap();
    assert_eq!(state.epoch, epochs);
    let report = restored.resume(state).unwrap();
    assert_eq!(report.fingerprint(), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint directory with either file damaged — a byte flipped, the
/// file truncated to a third, or the file deleted — is rejected with a
/// typed error, never a panic: the service never resumes from damaged
/// state. The next save overwrites the damage.
#[test]
fn damaged_checkpoint_files_are_rejected() {
    let reg = registry();
    let scenario = reg.get("syn-seasonal").unwrap().clone();
    let dir = temp_dir("damage");

    let service = AuditService::new(Arc::clone(&scenario), config(6, 1));
    let state = service.run_until(2).unwrap();
    service.checkpoint(&state, &dir).unwrap();

    for file in ["bank.snap", "state.snap"] {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        let truncated = bytes[..bytes.len() / 3].to_vec();
        // `None` deletes the file.
        for (damage, replacement) in [
            ("flip", Some(flipped)),
            ("truncate", Some(truncated)),
            ("delete", None),
        ] {
            let damaged = temp_dir(&format!("damage-{damage}-{file}"));
            std::fs::create_dir_all(&damaged).unwrap();
            for f in ["bank.snap", "state.snap"] {
                std::fs::copy(dir.join(f), damaged.join(f)).unwrap();
            }
            match replacement {
                Some(bytes) => std::fs::write(damaged.join(file), bytes).unwrap(),
                None => std::fs::remove_file(damaged.join(file)).unwrap(),
            }
            match AuditService::restore(Arc::clone(&scenario), &damaged) {
                Ok(_) => panic!("{file}/{damage}: damaged checkpoint restored successfully?!"),
                Err(err) => assert!(
                    matches!(err, audit_game::error::GameError::Persist(_)),
                    "{file}/{damage}: unexpected error: {err}"
                ),
            }
            // A save over the damaged pair replaces it.
            service.checkpoint(&state, &damaged).unwrap();
            let (_, restored) = AuditService::restore(Arc::clone(&scenario), &damaged).unwrap();
            assert_eq!(restored.epoch, state.epoch, "{file}/{damage}");
            std::fs::remove_dir_all(&damaged).ok();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
