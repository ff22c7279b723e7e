//! Property tests of the scenario substrate: bit-identical builds across
//! reruns and thread counts, deterministic alert streams, and budget
//! monotonicity of the solved objective on registry scenarios.

use alert_audit::conformance::canonical_thresholds;
use alert_audit::game::cggs::Cggs;
use alert_audit::game::detection::{DetectionEstimator, DetectionModel};
use alert_audit::scenario::registry;
use proptest::prelude::*;

/// Same seed ⇒ bit-identical `GameSpec` on every rebuild, including
/// rebuilds racing on four threads. The fingerprint covers every float of
/// the spec bit-exactly plus a probe of the joint count model, so this
/// pins the whole construction pipeline (world simulation, workload,
/// fitting, attack grids) to be deterministic and thread-independent.
#[test]
fn scenario_builds_are_bit_identical_across_reruns_and_threads() {
    let reg = registry();
    for sc in reg.iter() {
        let seed = sc.default_seed().wrapping_add(1);
        let reference = sc.build_small(seed).unwrap().fingerprint();
        let again = sc.build_small(seed).unwrap().fingerprint();
        assert_eq!(reference, again, "{}: rerun drifted", sc.key());

        let concurrent: Vec<u64> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| sc.build_small(seed).unwrap().fingerprint()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("builder thread"))
                .collect()
        });
        for (i, fp) in concurrent.iter().enumerate() {
            assert_eq!(
                *fp,
                reference,
                "{}: thread {i} built a different game",
                sc.key()
            );
        }
    }
}

/// The full-scale build must be exactly as reproducible as the small one
/// (the conformance suite only exercises the small variant).
#[test]
fn full_scale_builds_are_reproducible() {
    let reg = registry();
    for sc in reg.iter() {
        let seed = sc.default_seed();
        assert_eq!(
            sc.build(seed).unwrap().fingerprint(),
            sc.build(seed).unwrap().fingerprint(),
            "{}: full build drifted",
            sc.key()
        );
    }
}

/// The spec fingerprint of a joint-model scenario hashes a fixed-seed
/// probe bank sample by sample, so these pins cover the bank's draw order
/// and layout, not just the spec's parameters. Values at the default seed.
#[test]
fn joint_model_spec_fingerprints_are_pinned() {
    let reg = registry();
    for (key, full, small) in [
        (
            "syn-correlated",
            0x2612d145766f6995u64,
            0x95e84a0b04a5fd5bu64,
        ),
        ("syn-seasonal", 0x91f2f5e6d166ee5d, 0x395324421f77ef82),
    ] {
        let sc = reg.get(key).unwrap();
        let seed = sc.default_seed();
        let build = sc.build(seed).unwrap().fingerprint();
        let build_small = sc.build_small(seed).unwrap().fingerprint();
        assert_eq!(build, full, "{key}: build fingerprint {build:016x}");
        assert_eq!(
            build_small, small,
            "{key}: build_small fingerprint {build_small:016x}"
        );
    }
}

/// Alert streams are deterministic, shaped `n_periods × n_types`, and
/// distinct across seeds (for every scenario whose stream is stochastic).
#[test]
fn alert_streams_are_deterministic_and_shaped() {
    let reg = registry();
    for sc in reg.iter() {
        let stream = sc.alert_stream(5, 8).unwrap();
        assert_eq!(stream.len(), 8, "{}", sc.key());
        let n_types = sc.build(5).unwrap().n_types();
        assert!(
            stream.iter().all(|row| row.len() == n_types),
            "{}: ragged stream",
            sc.key()
        );
        assert_eq!(stream, sc.alert_stream(5, 8).unwrap(), "{}", sc.key());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// More audit budget can only help the auditor: with the threshold
    /// vector held fixed, `Pal` is non-decreasing in `B` (proved at the
    /// engine level by `game_properties`), so the game value at the same
    /// thresholds is non-increasing. Checked across the core registry
    /// scenarios at random seeds and budget pairs.
    #[test]
    fn objective_is_monotone_in_budget_at_fixed_thresholds(
        seed in 0u64..100,
        scenario_idx in 0usize..4,
        low_budget in 1.0f64..6.0,
        extra in 0.5f64..8.0,
    ) {
        let keys = ["syn-a", "syn-heavy-tail", "syn-correlated", "syn-seasonal"];
        let reg = registry();
        let sc = reg.get(keys[scenario_idx]).unwrap();
        let mut spec = sc.build_small(seed).unwrap();

        spec.budget = low_budget;
        let thresholds = canonical_thresholds(&spec);
        let bank = spec.sample_bank(40, seed);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let poor = Cggs::default().solve(&spec, &est, &thresholds).unwrap().master.value;

        spec.budget = low_budget + extra;
        let bank = spec.sample_bank(40, seed);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let rich = Cggs::default().solve(&spec, &est, &thresholds).unwrap().master.value;

        prop_assert!(
            rich <= poor + 1e-7,
            "{}: loss rose from {poor} to {rich} when budget grew {low_budget} -> {}",
            keys[scenario_idx], low_budget + extra
        );
    }
}
