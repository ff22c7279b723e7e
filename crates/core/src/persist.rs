//! Game-level persistence on top of [`stochastics::snapshot`]: codecs for
//! [`GameSpec`], [`AuditPolicy`], and the combined
//! scenario snapshot (spec + common-random-number bank + provenance) that
//! the runtime checkpoint writes as its `bank.snap`. A solve never reads
//! its bank from a snapshot: it always draws
//! `spec.sample_bank(n_samples, seed)`, and the checkpoint loader uses the
//! persisted bank only as an integrity probe against that draw.
//!
//! Specs are persisted **by constructor parameters**, not by evaluated
//! pmfs: every count distribution and joint model stores the arguments of
//! its deterministic constructor (see [`stochastics::DistParams`]), so a
//! loaded spec is rebuilt through exactly the code paths that built the
//! original and `GameSpec::fingerprint()` matches bit for bit. The stored
//! fingerprint is verified on load — a snapshot that decodes cleanly but
//! reconstructs a different game is rejected, closing the gap between
//! "the bytes are intact" (payload checksum) and "the game is the same"
//! (fingerprint).
//!
//! Decoding never panics: every value that feeds a panicking constructor
//! (`AuditOrder::new`, `AuditPolicy::new`, simplex weights, distribution
//! parameters) is validated first and surfaces as a typed
//! [`PersistError`].

use crate::error::GameError;
use crate::execute::AuditPolicy;
use crate::model::{AttackAction, Attacker, GameSpec, GameSpecBuilder};
use crate::ordering::AuditOrder;
use crate::scenario::{RegimeMixingCounts, SeasonalCounts};
use std::path::Path;
use std::sync::Arc;
use stochastics::snapshot::{
    read_bank, write_bank, BankReadOptions, DistParams, JointParams, SectionReader, SectionWriter,
    Snapshot, SnapshotError,
};
use stochastics::{JointCountModel, SampleBank};

/// Payload kind of a scenario snapshot (spec + bank + provenance).
pub const KIND_SCENARIO_BANK: u32 = 1;
/// Payload kind of a runtime service checkpoint (defined here so the kind
/// namespace has one home; the codec lives in `audit-runtime`).
pub const KIND_RUNTIME_STATE: u32 = 2;

/// Section tag: snapshot provenance (scenario key + seed).
pub const TAG_PROVENANCE: u64 = 0x01;
/// Section tag: spec scalars (budget, opt-out, counts, fingerprint).
pub const TAG_SPEC_META: u64 = 0x20;
/// Section tag: alert types (name, audit cost, distribution parameters).
pub const TAG_SPEC_TYPES: u64 = 0x21;
/// Section tag: attacker/action table.
pub const TAG_SPEC_ATTACKERS: u64 = 0x22;
/// Section tag: optional joint count model parameters.
pub const TAG_SPEC_JOINT: u64 = 0x23;
/// Section tag: an executable audit policy.
pub const TAG_POLICY: u64 = 0x31;

/// Typed failure of game-level persistence.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The underlying snapshot container failed to encode or decode.
    Snapshot(SnapshotError),
    /// The in-memory object cannot be persisted (e.g. a custom
    /// distribution or joint model without snapshot parameters).
    Unsupported(String),
    /// The reconstructed spec does not fingerprint to the stored value —
    /// the snapshot does not describe the game it claims to.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot.
        stored: u64,
        /// Fingerprint of the reconstructed spec.
        computed: u64,
    },
    /// The snapshot's provenance (scenario key, seed, shape) does not
    /// match what the caller asked for.
    Provenance(String),
    /// The decoded spec or policy is structurally invalid.
    Spec(String),
    /// The container was written in a format version older than the
    /// oldest layout its payload codec still reads.
    StaleFormat {
        /// Version in the container header.
        found: u32,
        /// Oldest version the codec reads.
        oldest: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Snapshot(e) => write!(f, "{e}"),
            PersistError::Unsupported(msg) => write!(f, "cannot persist: {msg}"),
            PersistError::FingerprintMismatch { stored, computed } => write!(
                f,
                "spec fingerprint mismatch: snapshot claims {stored:016x}, \
                 reconstruction yields {computed:016x}"
            ),
            PersistError::Provenance(msg) => write!(f, "snapshot provenance mismatch: {msg}"),
            PersistError::Spec(msg) => write!(f, "snapshot decodes to an invalid object: {msg}"),
            PersistError::StaleFormat { found, oldest } => write!(
                f,
                "snapshot format version {found} predates version {oldest}, the oldest \
                 this payload's reader accepts"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Snapshot(e)
    }
}

// ---------------------------------------------------------------------
// GameSpec codec
// ---------------------------------------------------------------------

fn dist_params_of(
    d: &dyn stochastics::CountDistribution,
    what: &str,
) -> Result<DistParams, PersistError> {
    d.snapshot_params().ok_or_else(|| {
        PersistError::Unsupported(format!("{what} does not expose snapshot parameters"))
    })
}

/// Append the full spec (meta, types, attackers, optional joint model) to
/// a container. Fails when a distribution or joint model is not
/// persistable.
pub fn encode_spec(snap: &mut Snapshot, spec: &GameSpec) -> Result<(), PersistError> {
    let mut meta = SectionWriter::new();
    meta.put_f64(spec.budget);
    meta.put_bool(spec.allow_opt_out);
    meta.put_usize(spec.n_types());
    meta.put_usize(spec.n_attackers());
    meta.put_u64(spec.fingerprint());
    snap.add_section(TAG_SPEC_META, meta);

    let mut types = SectionWriter::new();
    for (t, d) in spec.alert_types.iter().zip(&spec.distributions) {
        types.put_str(&t.name);
        types.put_f64(t.audit_cost);
        dist_params_of(
            d.as_ref(),
            &format!("distribution of alert type '{}'", t.name),
        )?
        .encode(&mut types);
    }
    snap.add_section(TAG_SPEC_TYPES, types);

    let mut attackers = SectionWriter::new();
    for att in &spec.attackers {
        attackers.put_str(&att.name);
        attackers.put_f64(att.attack_prob);
        attackers.put_usize(att.actions.len());
        for act in &att.actions {
            attackers.put_str(&act.victim);
            attackers.put_usize(act.alert_probs.len());
            for &(t, p) in &act.alert_probs {
                attackers.put_usize(t);
                attackers.put_f64(p);
            }
            attackers.put_f64(act.reward);
            attackers.put_f64(act.attack_cost);
            attackers.put_f64(act.penalty);
        }
    }
    snap.add_section(TAG_SPEC_ATTACKERS, attackers);

    if let Some(joint) = &spec.joint_counts {
        let params = joint.snapshot_params().ok_or_else(|| {
            PersistError::Unsupported(
                "joint count model does not expose snapshot parameters".into(),
            )
        })?;
        let mut w = SectionWriter::new();
        params.encode(&mut w);
        snap.add_section(TAG_SPEC_JOINT, w);
    }
    Ok(())
}

/// Rebuild a joint count model from its persisted parameters. The regime
/// path restores the **already-normalized** weights through
/// [`RegimeMixingCounts::from_normalized`] so reconstruction is
/// bit-exact.
pub fn instantiate_joint(params: &JointParams) -> Arc<dyn JointCountModel> {
    let rows = |rows: &[Vec<DistParams>]| {
        rows.iter()
            .map(|row| row.iter().map(DistParams::instantiate).collect())
            .collect()
    };
    match params {
        JointParams::Regime {
            weights,
            components,
        } => Arc::new(RegimeMixingCounts::from_normalized(
            weights.clone(),
            rows(components),
        )),
        JointParams::Seasonal { phases } => Arc::new(SeasonalCounts::new(rows(phases))),
    }
}

/// Decode, validate, and fingerprint-verify a spec from a container.
pub fn decode_spec(snap: &Snapshot) -> Result<GameSpec, PersistError> {
    let mut meta = snap.section(TAG_SPEC_META)?;
    let budget = meta.get_f64()?;
    let allow_opt_out = meta.get_bool()?;
    let n_types = meta.get_usize()?;
    let n_attackers = meta.get_usize()?;
    let stored_fingerprint = meta.get_u64()?;

    let mut b = GameSpecBuilder::new();
    let mut types = snap.section(TAG_SPEC_TYPES)?;
    for _ in 0..n_types {
        let name = types.get_str()?;
        let audit_cost = types.get_f64()?;
        let dist = DistParams::decode(&mut types)?.instantiate();
        b.alert_type(name, audit_cost, dist);
    }

    let mut attackers = snap.section(TAG_SPEC_ATTACKERS)?;
    for _ in 0..n_attackers {
        let name = attackers.get_str()?;
        let attack_prob = attackers.get_f64()?;
        let n_actions = attackers.get_usize()?;
        let mut actions = Vec::with_capacity(n_actions.min(4096));
        for _ in 0..n_actions {
            let victim = attackers.get_str()?;
            let n_probs = attackers.get_usize()?;
            let mut alert_probs = Vec::with_capacity(n_probs.min(4096));
            for _ in 0..n_probs {
                let t = attackers.get_usize()?;
                let p = attackers.get_f64()?;
                alert_probs.push((t, p));
            }
            actions.push(AttackAction {
                victim,
                alert_probs,
                reward: attackers.get_f64()?,
                attack_cost: attackers.get_f64()?,
                penalty: attackers.get_f64()?,
            });
        }
        b.attacker(Attacker::new(name, attack_prob, actions));
    }
    b.budget(budget);
    b.allow_opt_out(allow_opt_out);
    if let Some(mut joint) = snap.try_section(TAG_SPEC_JOINT) {
        b.joint_counts(instantiate_joint(&JointParams::decode(&mut joint)?));
    }
    // `build` runs the full structural validation (type references,
    // probability ranges, joint-model arity) before any solver sees the
    // spec.
    let spec = b.build().map_err(|e| PersistError::Spec(e.to_string()))?;
    let computed = spec.fingerprint();
    if computed != stored_fingerprint {
        return Err(PersistError::FingerprintMismatch {
            stored: stored_fingerprint,
            computed,
        });
    }
    Ok(spec)
}

// ---------------------------------------------------------------------
// AuditPolicy codec
// ---------------------------------------------------------------------

fn encode_orders(w: &mut SectionWriter, orders: &[AuditOrder]) {
    w.put_usize(orders.len());
    for o in orders {
        w.put_u64s(&o.types().iter().map(|&t| t as u64).collect::<Vec<_>>());
    }
}

fn decode_orders(r: &mut SectionReader<'_>) -> Result<Vec<AuditOrder>, PersistError> {
    let n = r.get_usize()?;
    let mut orders = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let perm: Vec<usize> = r
            .get_u64s()?
            .into_iter()
            .map(|t| {
                usize::try_from(t).map_err(|_| PersistError::Spec("order index overflow".into()))
            })
            .collect::<Result<_, _>>()?;
        // `AuditOrder::new` validates permutation-ness and returns a typed
        // error; a corrupted-but-checksum-valid file cannot panic here.
        orders.push(AuditOrder::new(perm).map_err(|e| PersistError::Spec(e.to_string()))?);
    }
    Ok(orders)
}

/// Append an executable audit policy (thresholds + mixed orders + their
/// probabilities).
pub fn encode_policy(snap: &mut Snapshot, policy: &AuditPolicy) {
    let mut w = SectionWriter::new();
    w.put_f64s(&policy.thresholds);
    encode_orders(&mut w, &policy.orders);
    w.put_f64s(&policy.probs);
    snap.add_section(TAG_POLICY, w);
}

/// Decode an audit policy, validating the simplex and order shapes before
/// the asserting [`AuditPolicy::new`] constructor runs.
pub fn decode_policy(snap: &Snapshot) -> Result<AuditPolicy, PersistError> {
    let mut r = snap.section(TAG_POLICY)?;
    let thresholds = r.get_f64s()?;
    let orders = decode_orders(&mut r)?;
    let probs = r.get_f64s()?;
    if thresholds.iter().any(|x| !x.is_finite()) {
        return Err(PersistError::Spec("non-finite policy threshold".into()));
    }
    if orders.is_empty() || orders.len() != probs.len() {
        return Err(PersistError::Spec(format!(
            "policy holds {} orders but {} probabilities",
            orders.len(),
            probs.len()
        )));
    }
    let total: f64 = probs.iter().sum();
    if !(total.is_finite() && (total - 1.0).abs() < 1e-6) || probs.iter().any(|&p| p < -1e-9) {
        return Err(PersistError::Spec(
            "policy probabilities are not a distribution".into(),
        ));
    }
    Ok(AuditPolicy::new(thresholds, orders, probs))
}

// ---------------------------------------------------------------------
// Scenario snapshot: provenance + spec + bank in one file
// ---------------------------------------------------------------------

/// A loaded scenario snapshot: where it came from and what it holds.
#[derive(Debug, Clone)]
pub struct ScenarioSnapshot {
    /// Scenario registry key the snapshot was saved from.
    pub key: String,
    /// Seed the spec (and bank) were generated with.
    pub seed: u64,
    /// The reconstructed, fingerprint-verified game.
    pub spec: GameSpec,
    /// The persisted common-random-number bank.
    pub bank: SampleBank,
}

/// Serialize a scenario snapshot (provenance + spec + bank) to bytes.
pub fn scenario_snapshot_bytes(
    key: &str,
    seed: u64,
    spec: &GameSpec,
    bank: &SampleBank,
) -> Result<Vec<u8>, PersistError> {
    let mut snap = Snapshot::new(KIND_SCENARIO_BANK);
    let mut prov = SectionWriter::new();
    prov.put_str(key);
    prov.put_u64(seed);
    snap.add_section(TAG_PROVENANCE, prov);
    encode_spec(&mut snap, spec)?;
    write_bank(&mut snap, bank);
    Ok(snap.to_bytes())
}

/// Save a scenario snapshot to a file.
pub fn save_scenario_snapshot(
    path: &Path,
    key: &str,
    seed: u64,
    spec: &GameSpec,
    bank: &SampleBank,
) -> Result<(), PersistError> {
    let bytes = scenario_snapshot_bytes(key, seed, spec, bank)?;
    std::fs::write(path, bytes)
        .map_err(|e| PersistError::Snapshot(SnapshotError::Io(format!("{}: {e}", path.display()))))
}

/// Decode a scenario snapshot from bytes, verifying container integrity,
/// spec fingerprint, and spec/bank shape agreement.
pub fn scenario_snapshot_from_bytes(bytes: &[u8]) -> Result<ScenarioSnapshot, PersistError> {
    let snap = Snapshot::from_bytes(bytes)?;
    snap.expect_kind(KIND_SCENARIO_BANK)?;
    let mut prov = snap.section(TAG_PROVENANCE)?;
    let key = prov.get_str()?;
    let seed = prov.get_u64()?;
    let spec = decode_spec(&snap)?;
    let bank = read_bank(&snap)?;
    if bank.n_types() != spec.n_types() {
        return Err(PersistError::Provenance(format!(
            "bank covers {} types but the spec has {}",
            bank.n_types(),
            spec.n_types()
        )));
    }
    Ok(ScenarioSnapshot {
        key,
        seed,
        spec,
        bank,
    })
}

/// Load a scenario snapshot from a file. The options are ignored: a bank
/// has one on-disk layout.
pub fn load_scenario_snapshot(
    path: &Path,
    _opts: BankReadOptions,
) -> Result<ScenarioSnapshot, PersistError> {
    let bytes = std::fs::read(path).map_err(|e| {
        PersistError::Snapshot(SnapshotError::Io(format!("{}: {e}", path.display())))
    })?;
    scenario_snapshot_from_bytes(&bytes)
}

impl From<PersistError> for GameError {
    fn from(e: PersistError) -> Self {
        GameError::Persist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::registry;
    use crate::solver::{OapSolver, SolverConfig};

    #[test]
    fn spec_roundtrips_fingerprint_identically_on_every_core_scenario() {
        for sc in registry().iter() {
            let spec = sc.build_small(sc.default_seed()).unwrap();
            let mut snap = Snapshot::new(KIND_SCENARIO_BANK);
            encode_spec(&mut snap, &spec).unwrap();
            let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let decoded = decode_spec(&back).unwrap_or_else(|e| panic!("{}: {e}", sc.key()));
            assert_eq!(
                decoded.fingerprint(),
                spec.fingerprint(),
                "{} drifted through persistence",
                sc.key()
            );
            // The fingerprint already covers a joint-model probe bank, but
            // draw a larger one to be explicit: identical sampling streams.
            let a = spec.sample_bank(64, 17);
            let b = decoded.sample_bank(64, 17);
            assert_eq!(a.columns_flat(), b.columns_flat(), "{}", sc.key());
        }
    }

    #[test]
    fn tampered_fingerprint_is_rejected() {
        let spec = registry().build("syn-a", 0).unwrap();
        let mut snap = Snapshot::new(KIND_SCENARIO_BANK);
        // Write a meta section with a wrong fingerprint, then the real
        // type/attacker sections.
        let mut meta = SectionWriter::new();
        meta.put_f64(spec.budget);
        meta.put_bool(spec.allow_opt_out);
        meta.put_usize(spec.n_types());
        meta.put_usize(spec.n_attackers());
        meta.put_u64(spec.fingerprint() ^ 1);
        snap.add_section(TAG_SPEC_META, meta);
        let mut real = Snapshot::new(KIND_SCENARIO_BANK);
        encode_spec(&mut real, &spec).unwrap();
        for tag in [TAG_SPEC_TYPES, TAG_SPEC_ATTACKERS] {
            let mut w = SectionWriter::new();
            let mut r = real.section(tag).unwrap();
            let mut words = Vec::new();
            while r.remaining() >= 8 {
                words.push(r.get_u64().unwrap());
            }
            for word in words {
                w.put_u64(word);
            }
            snap.add_section(tag, w);
        }
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(matches!(
            decode_spec(&back),
            Err(PersistError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn policy_roundtrip() {
        let spec = registry().build("syn-a", 0).unwrap();
        let sol = OapSolver::new(SolverConfig {
            n_samples: 40,
            epsilon: 0.25,
            ..Default::default()
        })
        .solve(&spec)
        .unwrap();

        let mut snap = Snapshot::new(KIND_RUNTIME_STATE);
        encode_policy(&mut snap, &sol.policy);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();

        let policy = decode_policy(&back).unwrap();
        assert_eq!(policy.thresholds, sol.policy.thresholds);
        assert_eq!(policy.orders, sol.policy.orders);
        assert_eq!(policy.probs, sol.policy.probs);
    }

    #[test]
    fn corrupt_policy_yields_typed_errors_not_panics() {
        // Non-permutation order.
        let mut snap = Snapshot::new(KIND_RUNTIME_STATE);
        let mut w = SectionWriter::new();
        w.put_f64s(&[1.0, 2.0]);
        w.put_usize(1);
        w.put_u64s(&[0, 0]); // duplicate index: not a permutation
        w.put_f64s(&[1.0]);
        snap.add_section(TAG_POLICY, w);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(matches!(decode_policy(&back), Err(PersistError::Spec(_))));

        // Probabilities off the simplex.
        let mut snap = Snapshot::new(KIND_RUNTIME_STATE);
        let mut w = SectionWriter::new();
        w.put_f64s(&[1.0, 2.0]);
        w.put_usize(1);
        w.put_u64s(&[0, 1]);
        w.put_f64s(&[0.4]); // sums to 0.4
        snap.add_section(TAG_POLICY, w);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(matches!(decode_policy(&back), Err(PersistError::Spec(_))));
    }

    #[test]
    fn scenario_snapshot_roundtrips_and_checks_provenance() {
        let reg = registry();
        let sc = reg.get("syn-correlated").unwrap();
        let spec = sc.build_small(3).unwrap();
        let bank = spec.sample_bank(64, 3);
        let bytes = scenario_snapshot_bytes(sc.key(), 3, &spec, &bank).unwrap();
        let snap = scenario_snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(snap.key, "syn-correlated");
        assert_eq!(snap.seed, 3);
        assert_eq!(snap.spec.fingerprint(), spec.fingerprint());
        assert_eq!(snap.bank.columns_flat(), bank.columns_flat());
        // Save→load→save is byte-identical.
        let again = scenario_snapshot_bytes(&snap.key, snap.seed, &snap.spec, &snap.bank).unwrap();
        assert_eq!(again, bytes);
    }

    struct Opaque;
    impl stochastics::CountDistribution for Opaque {
        fn pmf(&self, n: u64) -> f64 {
            if n == 0 {
                1.0
            } else {
                0.0
            }
        }
        fn support_max(&self) -> u64 {
            0
        }
    }

    #[test]
    fn unsupported_distribution_fails_with_typed_error() {
        let mut spec = registry().build("syn-a", 0).unwrap();
        spec.distributions[0] = Arc::new(Opaque);
        let mut snap = Snapshot::new(KIND_SCENARIO_BANK);
        assert!(matches!(
            encode_spec(&mut snap, &spec),
            Err(PersistError::Unsupported(_))
        ));
    }
}
