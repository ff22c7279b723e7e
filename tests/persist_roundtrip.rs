//! Persistence round-trip and corruption-hardening net over the full
//! scenario registry.
//!
//! Three properties pin the snapshot layer down:
//!
//! 1. **Byte-stable round trips** — for every registry scenario,
//!    encode → decode → re-encode of the scenario snapshot (provenance +
//!    spec + bank) is byte-identical, so a snapshot can be copied through
//!    any number of load/save cycles without drifting.
//! 2. **Bank equivalence** — a loaded snapshot fingerprints like the saved
//!    spec, and its bank equals the bank a solve of the loaded spec draws.
//!    A solve reads nothing else, so the persisted path may never change a
//!    result.
//! 3. **Corruption hardening** — a table of mutilated files (truncated at
//!    every interesting boundary, payload bit flips, foreign magic,
//!    future format version, wrong container kind) all surface typed
//!    [`PersistError`]s, never panics and never a silently-wrong load.
//!
//! A committed golden snapshot (`tests/golden/persist_format_v3.snap`)
//! additionally pins the on-disk encoding itself: if the byte layout
//! changes, the test demands a deliberate `FORMAT_VERSION` bump and a
//! regeneration via `UPDATE_GOLDEN=1 cargo test --test persist_roundtrip`.

use alert_audit::game::persist::{
    load_scenario_snapshot, scenario_snapshot_bytes, scenario_snapshot_from_bytes, PersistError,
    KIND_RUNTIME_STATE, TAG_PROVENANCE, TAG_SPEC_META,
};
use alert_audit::scenario::registry;
use alert_audit::stochastics::snapshot::{
    BankReadOptions, SectionWriter, Snapshot, SnapshotError, FORMAT_VERSION, HEADER_LEN,
};

const BANK_ROWS: usize = 120;

fn snapshot_bytes_for(key: &str) -> Vec<u8> {
    let reg = registry();
    let sc = reg.resolve(key).unwrap().clone();
    let seed = sc.default_seed();
    let spec = sc.build_small(seed).unwrap();
    let bank = spec.sample_bank(BANK_ROWS, seed);
    scenario_snapshot_bytes(key, seed, &spec, &bank).unwrap()
}

#[test]
fn every_registry_scenario_roundtrips_byte_identically() {
    for sc in registry().iter() {
        let bytes = snapshot_bytes_for(sc.key());
        let snap =
            scenario_snapshot_from_bytes(&bytes).unwrap_or_else(|e| panic!("{}: {e}", sc.key()));
        assert_eq!(snap.key, sc.key());
        let again = scenario_snapshot_bytes(&snap.key, snap.seed, &snap.spec, &snap.bank)
            .unwrap_or_else(|e| panic!("{}: {e}", sc.key()));
        assert_eq!(
            bytes,
            again,
            "{}: save -> load -> save drifted at the byte level",
            sc.key()
        );
    }
}

/// A solve reads only its spec and the bank `spec.sample_bank(n, seed)`.
/// A loaded snapshot that fingerprints like the saved spec and holds that
/// same bank therefore solves bit-identically to regeneration, on every
/// scenario.
#[test]
fn snapshot_bank_solves_bit_identically_to_regeneration() {
    let reg = registry();
    for sc in reg.iter() {
        let key = sc.key();
        let seed = sc.default_seed();
        let spec = sc.build_small(seed).unwrap();
        let bank = spec.sample_bank(BANK_ROWS, seed);
        let bytes = scenario_snapshot_bytes(key, seed, &spec, &bank).unwrap();
        let snap = scenario_snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(snap.spec.fingerprint(), spec.fingerprint(), "{key}");
        assert_eq!(snap.bank.columns_flat(), bank.columns_flat(), "{key}");
        assert_eq!(
            snap.spec.sample_bank(BANK_ROWS, seed).columns_flat(),
            bank.columns_flat(),
            "{key}: the loaded spec draws a different bank"
        );
    }
}

/// The exact inner evaluator solves the deduplicated working spec; pin
/// that the loaded paper game yields the same working game and bank.
#[test]
fn exact_inner_matches_on_snapshot_bank_too() {
    let reg = registry();
    let sc = reg.resolve("syn-a").unwrap().clone();
    let seed = sc.default_seed();
    let spec = sc.build_small(seed).unwrap();
    let bank = spec.sample_bank(BANK_ROWS, seed);
    let bytes = scenario_snapshot_bytes("syn-a", seed, &spec, &bank).unwrap();
    let snap = scenario_snapshot_from_bytes(&bytes).unwrap();
    let (working, loaded) = (spec.dedup_actions(), snap.spec.dedup_actions());
    assert_eq!(loaded.fingerprint(), working.fingerprint());
    assert_eq!(
        loaded.sample_bank(BANK_ROWS, seed).columns_flat(),
        snap.bank.columns_flat()
    );
    assert_eq!(snap.bank.columns_flat(), bank.columns_flat());
}

// ---------------------------------------------------------------------
// Corruption hardening: the table
// ---------------------------------------------------------------------

/// What a corrupted load is expected to produce. Matching on the exact
/// variant (not just "some error") keeps the failure taxonomy honest.
enum Expect {
    BadMagic,
    FutureVersion,
    Checksum,
    Truncated,
    WrongKind,
}

impl Expect {
    fn matches(&self, e: &PersistError) -> bool {
        matches!(
            (self, e),
            (
                Expect::BadMagic,
                PersistError::Snapshot(SnapshotError::BadMagic)
            ) | (
                Expect::FutureVersion,
                PersistError::Snapshot(SnapshotError::UnsupportedVersion { .. }),
            ) | (
                Expect::Checksum,
                PersistError::Snapshot(SnapshotError::ChecksumMismatch { .. }),
            ) | (
                Expect::Truncated,
                PersistError::Snapshot(SnapshotError::Truncated { .. }),
            ) | (
                Expect::WrongKind,
                PersistError::Snapshot(SnapshotError::WrongKind { .. }),
            )
        )
    }

    fn name(&self) -> &'static str {
        match self {
            Expect::BadMagic => "BadMagic",
            Expect::FutureVersion => "UnsupportedVersion",
            Expect::Checksum => "ChecksumMismatch",
            Expect::Truncated => "Truncated",
            Expect::WrongKind => "WrongKind",
        }
    }
}

#[test]
fn corrupted_snapshots_fail_with_typed_errors_not_panics() {
    let good = snapshot_bytes_for("syn-a");
    assert!(
        good.len() > HEADER_LEN + 64,
        "fixture too small to mutilate"
    );

    let cases: Vec<(&'static str, Vec<u8>, Expect)> = vec![
        ("empty file", Vec::new(), Expect::Truncated),
        (
            "half a header",
            good[..HEADER_LEN / 2].to_vec(),
            Expect::Truncated,
        ),
        (
            "header only, payload gone",
            good[..HEADER_LEN].to_vec(),
            Expect::Truncated,
        ),
        (
            "payload cut mid-section",
            good[..good.len() - 9].to_vec(),
            Expect::Truncated,
        ),
        (
            "foreign magic",
            {
                let mut b = good.clone();
                b[..8].copy_from_slice(b"NOTASNAP");
                b
            },
            Expect::BadMagic,
        ),
        (
            "future format version",
            {
                let mut b = good.clone();
                b[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
                b
            },
            Expect::FutureVersion,
        ),
        (
            "one payload bit flipped",
            {
                let mut b = good.clone();
                let i = HEADER_LEN + 40;
                b[i] ^= 0x01;
                b
            },
            Expect::Checksum,
        ),
        (
            "last payload byte flipped",
            {
                let mut b = good.clone();
                let i = b.len() - 1;
                b[i] ^= 0x80;
                b
            },
            Expect::Checksum,
        ),
        (
            "checksum field itself tampered",
            {
                let mut b = good.clone();
                b[24] ^= 0xff;
                b
            },
            Expect::Checksum,
        ),
        (
            "runtime-state kind where a scenario bank is expected",
            {
                // Re-checksum so only the kind disagrees: isolates the
                // kind check from the integrity check.
                let snap = Snapshot::from_bytes(&good).unwrap();
                let mut clone = Snapshot::new(KIND_RUNTIME_STATE);
                for tag in [TAG_PROVENANCE, TAG_SPEC_META] {
                    let mut r = snap.section(tag).unwrap();
                    let mut w = SectionWriter::new();
                    while r.remaining() >= 8 {
                        w.put_u64(r.get_u64().unwrap());
                    }
                    clone.add_section(tag, w);
                }
                clone.to_bytes()
            },
            Expect::WrongKind,
        ),
    ];

    let dir = std::env::temp_dir().join(format!("audit-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut failures = Vec::new();
    for (i, (label, bytes, expect)) in cases.iter().enumerate() {
        // Exercise the real file path, not just the byte path.
        let path = dir.join(format!("case_{i}.snap"));
        std::fs::write(&path, bytes).unwrap();
        match load_scenario_snapshot(&path, BankReadOptions) {
            Ok(_) => failures.push(format!("{label}: loaded successfully?!")),
            Err(e) if expect.matches(&e) => {}
            Err(e) => failures.push(format!("{label}: wanted {}, got: {e}", expect.name())),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let err = load_scenario_snapshot(
        std::path::Path::new("/nonexistent/audit-snapshot.snap"),
        BankReadOptions,
    )
    .unwrap_err();
    assert!(
        matches!(err, PersistError::Snapshot(SnapshotError::Io(_))),
        "unexpected error: {err}"
    );
}

// ---------------------------------------------------------------------
// Golden on-disk format gate
// ---------------------------------------------------------------------

fn golden_snapshot_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("persist_format_v{FORMAT_VERSION}.snap"))
}

/// The committed golden snapshot pins the byte-level encoding. Any layout
/// change must show up here — and because the golden file name carries
/// the format version, regenerating it without bumping `FORMAT_VERSION`
/// leaves a stale `persist_format_v<old>.snap` behind for review.
#[test]
fn on_disk_format_matches_the_committed_golden_snapshot() {
    let bytes = snapshot_bytes_for("syn-a");
    let path = golden_snapshot_path();
    if std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::write(&path, &bytes).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); regenerate with UPDATE_GOLDEN=1 \
             cargo test --test persist_roundtrip",
            path.display()
        )
    });
    assert_eq!(
        golden,
        bytes,
        "snapshot encoding drifted from {}; if intentional, bump \
         stochastics::snapshot::FORMAT_VERSION and regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
    // The golden bytes must also still parse — guards against committing
    // a mutilated golden.
    let snap = scenario_snapshot_from_bytes(&golden).unwrap();
    assert_eq!(snap.key, "syn-a");
    // Version 3 changed only the runtime-state payload: the same bank
    // file stamped as version 2 loads to the same snapshot.
    let mut v2 = golden.clone();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    let old = scenario_snapshot_from_bytes(&v2).unwrap();
    assert_eq!(old.spec.fingerprint(), snap.spec.fingerprint());
    assert_eq!(old.bank.columns_flat(), snap.bank.columns_flat());
}
