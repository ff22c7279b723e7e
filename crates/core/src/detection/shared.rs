//! Cross-solver sharing of prefix-state work.
//!
//! A fleet of tenants often plays games over the *same* sample bank — the
//! registry scenarios build specs deterministically, and the solver
//! freezes its Monte-Carlo bank from `(spec, n_samples, seed)` alone. Two
//! tenants whose banks coincide evaluate `Pal` over identical columns, so
//! the prefix states one solve pays for are exactly the states the next
//! solve would recompute. [`SharedPalCache`] is the hand-off point: after
//! a solve, a solver joined to the exchange publishes its engine's
//! prefix-state snapshot under a [`shared_bank_key`]; before the next
//! solve over the same key, the snapshot is adopted into the fresh engine.
//! The runtime joins only cold starts: a re-solve's spec is refit from one
//! tenant's own stream, so no other solve shares its key and its snapshot
//! would only sit in the exchange.
//!
//! **Determinism.** Adopted states are exact computed values over an
//! identical bank/spec/model, so adoption changes which column passes run
//! — never a single result bit (see [`PalStateSeed`]). The only
//! observable differences are wall-clock time and [`CacheStats`] counters,
//! both of which are excluded from every report fingerprint. Fleet
//! results are therefore bit-identical with sharing on or off, at any
//! worker count.
//!
//! [`CacheStats`]: super::CacheStats

use super::engine::PalStateSeed;
use super::DetectionModel;
use crate::model::GameSpec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identity of a solver's evaluation context: the deduped spec (audit
/// costs, budget, distributions), the bank parameters that freeze the
/// Monte-Carlo draw, and the detection model the states were computed
/// under. Two solves with equal keys walk bitwise-identical columns, so
/// their prefix states are interchangeable. The spec fingerprint alone is
/// NOT sufficient — a different `n_samples` or bank seed draws a different
/// bank, and a different model consumes budget differently.
pub fn shared_bank_key(
    spec: &GameSpec,
    n_samples: usize,
    bank_seed: u64,
    model: DetectionModel,
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(spec.fingerprint());
    mix(n_samples as u64);
    mix(bank_seed);
    mix(match model {
        DetectionModel::PaperApprox => 1,
        DetectionModel::AttackInclusive => 2,
        DetectionModel::Operational => 3,
    });
    h
}

/// Counters of a [`SharedPalCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SharedCacheStats {
    /// Distinct bank keys currently holding a published snapshot.
    pub banks: usize,
    /// Snapshots published (later publishes under a key replace earlier).
    pub publishes: u64,
    /// Snapshots handed out for adoption.
    pub adoptions: u64,
}

struct Inner {
    seeds: HashMap<u64, Arc<PalStateSeed>>,
    publishes: u64,
    adoptions: u64,
}

/// A thread-safe exchange of prefix-state snapshots keyed by
/// [`shared_bank_key`]. Cloning the handle shares the underlying store;
/// tenants on different worker threads publish and adopt through the same
/// handle. Last publish wins per key — snapshots are caches of exact
/// values, so any published snapshot for a key is equally sound.
#[derive(Clone)]
pub struct SharedPalCache {
    inner: Arc<Mutex<Inner>>,
}

impl SharedPalCache {
    /// An empty exchange.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                seeds: HashMap::new(),
                publishes: 0,
                adoptions: 0,
            })),
        }
    }

    /// The snapshot most recently published under `key`, if any. Counts
    /// as an adoption when present.
    pub fn get(&self, key: u64) -> Option<Arc<PalStateSeed>> {
        let mut inner = self.inner.lock().expect("shared pal cache poisoned");
        let seed = inner.seeds.get(&key).cloned();
        if seed.is_some() {
            inner.adoptions += 1;
        }
        seed
    }

    /// Publish a snapshot under `key`, replacing any earlier one. Empty
    /// snapshots are dropped — they would displace a useful predecessor
    /// for nothing.
    pub fn publish(&self, key: u64, seed: PalStateSeed) {
        if seed.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("shared pal cache poisoned");
        inner.seeds.insert(key, Arc::new(seed));
        inner.publishes += 1;
    }

    /// Observability counters.
    pub fn stats(&self) -> SharedCacheStats {
        let inner = self.inner.lock().expect("shared pal cache poisoned");
        SharedCacheStats {
            banks: inner.seeds.len(),
            publishes: inner.publishes,
            adoptions: inner.adoptions,
        }
    }
}

impl Default for SharedPalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SharedPalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SharedPalCache")
            .field("banks", &stats.banks)
            .field("publishes", &stats.publishes)
            .field("adoptions", &stats.adoptions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DetectionEstimator, PalEngine};
    use super::*;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use crate::ordering::AuditOrder;
    use std::sync::Arc;
    use stochastics::UniformCount;

    fn spec() -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(UniformCount::new(0, 5)));
        let _t1 = b.alert_type("t1", 1.5, Arc::new(UniformCount::new(1, 4)));
        b.attacker(Attacker::new(
            "e",
            1.0,
            vec![AttackAction::deterministic("v", t0, 1.0, 0.0, 0.0)],
        ));
        b.budget(4.0);
        b.build().unwrap()
    }

    #[test]
    fn keys_separate_bank_parameters_and_models() {
        let s = spec();
        let base = shared_bank_key(&s, 64, 9, DetectionModel::PaperApprox);
        assert_eq!(
            base,
            shared_bank_key(&s, 64, 9, DetectionModel::PaperApprox)
        );
        assert_ne!(
            base,
            shared_bank_key(&s, 65, 9, DetectionModel::PaperApprox)
        );
        assert_ne!(
            base,
            shared_bank_key(&s, 64, 10, DetectionModel::PaperApprox)
        );
        assert_ne!(
            base,
            shared_bank_key(&s, 64, 9, DetectionModel::Operational)
        );
    }

    #[test]
    fn publish_then_adopt_round_trips_and_counts() {
        let s = spec();
        let bank = s.sample_bank(64, 9);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let donor = PalEngine::new(est, 1);
        for order in AuditOrder::enumerate_all(2) {
            donor.pal(&order, &[2.0, 3.0]);
        }

        let cache = SharedPalCache::new();
        let key = shared_bank_key(&s, 64, 9, DetectionModel::PaperApprox);
        assert!(cache.get(key).is_none());
        cache.publish(key, donor.export_states());

        let shared = cache.clone(); // handles share the store
        let seed = shared.get(key).expect("published snapshot");
        let warm = PalEngine::new(est, 1);
        warm.adopt_states(&seed);
        assert_eq!(
            warm.pal(&AuditOrder::identity(2), &[2.0, 3.0]),
            donor.pal(&AuditOrder::identity(2), &[2.0, 3.0])
        );
        assert!(warm.cache_stats().state_hits > 0);

        let stats = cache.stats();
        assert_eq!(stats.banks, 1);
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.adoptions, 1);
    }

    #[test]
    fn empty_snapshots_are_not_published() {
        let s = spec();
        let bank = s.sample_bank(8, 1);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let idle = PalEngine::new(est, 1);
        let cache = SharedPalCache::new();
        cache.publish(7, idle.export_states());
        assert_eq!(cache.stats().publishes, 0);
        assert!(cache.get(7).is_none());
    }
}
