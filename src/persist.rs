//! One-stop facade over the persistence stack.
//!
//! The snapshot layer spans three crates, each owning the codec for the
//! state it defines:
//!
//! * [`stochastics::snapshot`] — the binary container (checksummed
//!   versioned header, 8-byte-aligned tagged sections), the sample-bank
//!   columns, and the distribution constructor parameters;
//! * `audit_game::persist` — the game-layer payloads: [`GameSpec`]
//!   by constructor parameters with fingerprint verification, audit
//!   policies, and the scenario snapshot
//!   (provenance + spec + bank in one `KIND_SCENARIO_BANK` file);
//! * [`audit_runtime::checkpoint`] — the full service checkpoint
//!   (`bank.snap` + `state.snap`) behind
//!   [`AuditService::checkpoint`](audit_runtime::AuditService::checkpoint)
//!   / [`AuditService::restore`](audit_runtime::AuditService::restore).
//!
//! This module re-exports all three under `alert_audit::persist` so
//! downstream code (and the `exp_online` binary) can name the whole stack
//! from one path. Scenario snapshots exist for the checkpoint's
//! `bank.snap`; a solve always draws its bank from the spec and seed.
//!
//! [`GameSpec`]: audit_game::model::GameSpec

pub use stochastics::snapshot::{
    fnv1a, fnv1a_words, read_bank, write_bank, BankReadOptions, DistParams, JointParams,
    SectionReader, SectionWriter, Snapshot, SnapshotError, FORMAT_VERSION, HEADER_LEN, MAGIC,
};

pub use audit_game::persist::{
    decode_policy, decode_spec, encode_policy, encode_spec, instantiate_joint,
    load_scenario_snapshot, save_scenario_snapshot, scenario_snapshot_bytes,
    scenario_snapshot_from_bytes, PersistError, ScenarioSnapshot, KIND_RUNTIME_STATE,
    KIND_SCENARIO_BANK, TAG_POLICY, TAG_PROVENANCE, TAG_SPEC_ATTACKERS, TAG_SPEC_JOINT,
    TAG_SPEC_META, TAG_SPEC_TYPES,
};

pub use audit_runtime::checkpoint::{load_checkpoint, save_checkpoint, LoadedCheckpoint};
