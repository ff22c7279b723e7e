//! Pins the common-random-number sample banks bit for bit.
//!
//! Every solve, every runtime stream and every checkpoint restore draws its
//! bank through `GameSpec::sample_bank`, so a change in how counts are drawn
//! moves every result downstream. The goldens' 1e-9 objectives and the
//! runtime fingerprints notice such a change only through what it does to a
//! solve; these pins notice it at the bank itself. Each pin is the FNV-1a
//! hash of `sample_bank(1000, seed).columns_flat()`, one little-endian word
//! per count.

use alert_audit::scenario::registry;
use stochastics::snapshot::Fnv;
use stochastics::stats::StreamingMoments;
use stochastics::{fit_gaussian_from_moments, CountDistribution, Empirical, SampleBank};

const SAMPLES: usize = 1000;

/// `(scenario, seed, hash)`: the spec is built at `seed` and its bank drawn
/// at `seed`. Joint scenarios draw rows from their joint model.
const SCENARIO_PINS: [(&str, u64, u64); 30] = [
    ("syn-a", 7, 0x7236ecbc58e9776f),
    ("syn-a", 11, 0x1a0a9b4c75ca9a01),
    ("syn-a-b6", 7, 0x7236ecbc58e9776f),
    ("syn-a-b6", 11, 0x1a0a9b4c75ca9a01),
    ("syn-a-b20", 7, 0x7236ecbc58e9776f),
    ("syn-a-b20", 11, 0x1a0a9b4c75ca9a01),
    ("syn-heavy-tail", 7, 0xca9ea8b1702b6169),
    ("syn-heavy-tail", 11, 0xcad3d0b2fe05f985),
    ("syn-correlated", 7, 0xc7761a943d8a4da6),
    ("syn-correlated", 11, 0xa0c965808edafcc2),
    ("syn-seasonal", 7, 0x927a60e6bfe396b3),
    ("syn-seasonal", 11, 0x87876ab7adbb4625),
    ("syn-quantal", 7, 0x7498e4536bc3a0ee),
    ("syn-quantal", 11, 0x0a1b4bba3e0d7508),
    ("syn-general-sum", 7, 0x305c8ccef707a348),
    ("syn-general-sum", 11, 0xaa5a78423111c98c),
    ("syn-adaptive", 7, 0x305c8ccef707a348),
    ("syn-adaptive", 11, 0xaa5a78423111c98c),
    ("syn-wide25", 7, 0x5301a150020a8945),
    ("syn-wide25", 11, 0x14d19c9639ef61e2),
    ("syn-wide50", 7, 0xcd56ee95b5ffe8e4),
    ("syn-wide50", 11, 0x4539222a16f28d45),
    ("emr-reaa", 7, 0x25b3488bf637659d),
    ("emr-reaa", 11, 0x4021aeef3dae199a),
    ("emr-reaa-empirical", 7, 0x5fab263dd986a2ef),
    ("emr-reaa-empirical", 11, 0x029a6297c1a4d9f0),
    ("credit-reab", 7, 0xcd748fe95ae14f46),
    ("credit-reab", 11, 0x7e203575cfaa2932),
    ("tdmt-insider", 7, 0xc84a0bcf9087cc73),
    ("tdmt-insider", 11, 0xb11a283473acb339),
];

/// The joint scenarios' marginal `Mixture`s, drawn type by type.
const MARGINAL_PINS: [(&str, u64, u64); 4] = [
    ("syn-correlated", 7, 0x19ded8ca4695a1a8),
    ("syn-correlated", 11, 0x7143280c8d4beb0e),
    ("syn-seasonal", 7, 0xd40209f6cbdf53cd),
    ("syn-seasonal", 11, 0xba985f1a516ad1c2),
];

/// A refit Gaussian and an `Empirical` with holes, drawn side by side.
const REFIT_PINS: [(u64, u64); 2] = [(7, 0xd7bf76b4cf66104c), (11, 0x8fb7e453f610a32c)];

fn bank_hash(bank: &SampleBank) -> u64 {
    let mut h = Fnv::new();
    for &z in bank.columns_flat() {
        h.word(z);
    }
    h.finish()
}

#[test]
fn every_registry_bank_is_pinned() {
    let r = registry();
    let pinned: std::collections::BTreeSet<&str> = SCENARIO_PINS.iter().map(|p| p.0).collect();
    assert_eq!(
        pinned,
        r.keys().into_iter().collect(),
        "a registry scenario is unpinned"
    );
    for (key, seed, want) in SCENARIO_PINS {
        let spec = r.build(key, seed).unwrap();
        let got = bank_hash(&spec.sample_bank(SAMPLES, seed));
        assert_eq!(got, want, "{key} at seed {seed}: {got:#018x}");
    }
}

#[test]
fn mixture_marginal_banks_are_pinned() {
    let r = registry();
    for (key, seed, want) in MARGINAL_PINS {
        let spec = r.build(key, seed).unwrap();
        let dists = spec.distributions.iter().map(|d| d.as_ref());
        let got = bank_hash(&SampleBank::generate_from(dists, SAMPLES, seed));
        assert_eq!(got, want, "{key} marginals at seed {seed}: {got:#018x}");
    }
}

#[test]
fn refit_and_holed_empirical_banks_are_pinned() {
    let mut moments = StreamingMoments::new();
    for x in [12u64, 15, 9, 20, 14, 11, 17, 13, 16, 10, 22, 8] {
        moments.push(x);
    }
    let refit = fit_gaussian_from_moments(&moments, 0.995);
    let holes = Empirical::from_histogram(vec![0, 3, 0, 0, 5, 1, 0, 0, 2, 0, 4]);
    for (seed, want) in REFIT_PINS {
        let dists: [&dyn CountDistribution; 2] = [&refit, &holes];
        let got = bank_hash(&SampleBank::generate_from(dists, SAMPLES, seed));
        assert_eq!(got, want, "refit and holes at seed {seed}: {got:#018x}");
    }
}
