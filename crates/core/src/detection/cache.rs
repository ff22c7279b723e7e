//! Bounded second-chance (clock) cache used by the detection engine.
//!
//! The PR 2 engine wiped its whole estimate cache whenever an insertion
//! would exceed capacity — O(1) but brutal: one over-full batch destroyed
//! every hot entry. This replacement keeps a classic second-chance clock:
//! entries live in fixed slots, every hit sets a referenced bit, and an
//! insertion at capacity sweeps the clock hand forward, granting referenced
//! entries one more revolution and evicting the first unreferenced one.
//! Recurring entries (ISHM's revisited lattice points, CGGS's shared
//! prefixes) therefore survive indefinitely while one-shot entries churn.
//!
//! Everything is deterministic: the same sequence of `get`/`insert` calls
//! produces the same slot layout, hand position, and eviction count — the
//! engine performs lookups and insertions in batch order on a single
//! thread, so cache behaviour is identical at every worker count.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A `HashMap` hashed by [`WordHasher`].
pub(super) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A small deterministic multiply-rotate hasher for the engine's internal
/// maps, whose keys (path ids, canonical threshold bits) no outside party
/// picks; the engine module docs say why SipHash is not needed there.
/// Each word is added to the state, which is then multiplied by an odd
/// constant; `finish` rotates the well-mixed high bits of the last
/// product into the low bits that pick a bucket.
#[derive(Default, Clone, Copy)]
pub(super) struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

struct Slot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

/// A fixed-capacity map with second-chance eviction.
pub(super) struct SecondChance<K, V> {
    map: WordMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    hand: usize,
    capacity: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> SecondChance<K, V> {
    /// An empty cache holding at most `capacity` entries (`0` disables it:
    /// every `insert` is a no-op and every `get` misses).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: WordMap::default(),
            slots: Vec::new(),
            hand: 0,
            capacity,
            evictions: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Entries evicted by the clock since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate the live entries in slot order. Slot order is a pure
    /// function of the `get`/`insert` history, so the iteration is as
    /// deterministic as the cache itself; the engine's tests pin it.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().map(|s| (&s.key, &s.value))
    }

    /// Look up `key`, marking the entry as recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        self.slots[i].referenced = true;
        Some(&self.slots[i].value)
    }

    /// As [`SecondChance::get`], but returning the slot index. Combined
    /// with [`SecondChance::peek`] this lets a caller first register all
    /// its lookups (`&mut self`), then hold plain shared borrows of many
    /// values at once during a parallel phase — without cloning them.
    pub fn touch(&mut self, key: &K) -> Option<usize> {
        let &i = self.map.get(key)?;
        self.slots[i].referenced = true;
        Some(i)
    }

    /// The value in `slot` (an index previously returned by
    /// [`SecondChance::touch`]; slots never move between insertions).
    pub fn peek(&self, slot: usize) -> &V {
        &self.slots[slot].value
    }

    /// Insert or overwrite `key`. At capacity the clock hand sweeps
    /// forward: referenced slots get their bit cleared and one more
    /// revolution; the first unreferenced slot is evicted and reused.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            let slot = &mut self.slots[i];
            slot.value = value;
            slot.referenced = true;
            return;
        }
        if self.slots.len() < self.capacity {
            self.map.insert(key.clone(), self.slots.len());
            self.slots.push(Slot {
                key,
                value,
                // Fresh entries start unreferenced: only an actual hit
                // earns the second chance. Starting them referenced would
                // degenerate the first full sweep to FIFO and evict hot
                // entries that were touched between insertions.
                referenced: false,
            });
            return;
        }
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[i];
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            self.map.remove(&slot.key);
            self.evictions += 1;
            self.map.insert(key.clone(), i);
            slot.key = key;
            slot.value = value;
            slot.referenced = false;
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_never_stores() {
        let mut c: SecondChance<u32, u32> = SecondChance::new(0);
        c.insert(1, 10);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn bounded_with_evictions_not_wipes() {
        let mut c: SecondChance<u32, u32> = SecondChance::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30); // evicts exactly one entry, never clears the rest
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(&3), Some(&30));
        // One of the two original entries must have survived.
        let survivors = [1u32, 2].iter().filter(|k| c.get(k).is_some()).count();
        assert_eq!(survivors, 1);
    }

    #[test]
    fn referenced_entries_survive_the_sweep() {
        let mut c: SecondChance<u32, u32> = SecondChance::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        // Keep touching 1: repeated insertions evict around it.
        for k in 4..20u32 {
            assert_eq!(c.get(&1), Some(&10));
            c.insert(k, k);
        }
        assert_eq!(c.get(&1), Some(&10), "hot entry was evicted");
        assert_eq!(c.len(), 3);
        assert!(c.evictions() >= 15);
    }

    #[test]
    fn overwriting_updates_in_place() {
        let mut c: SecondChance<u32, u32> = SecondChance::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut c: SecondChance<u32, u32> = SecondChance::new(4);
            let mut log = Vec::new();
            for i in 0..40u32 {
                if i % 3 == 0 {
                    log.push(c.get(&(i % 7)).copied());
                }
                c.insert(i % 11, i);
            }
            (log, c.evictions(), c.len())
        };
        assert_eq!(run(), run());
    }
}
