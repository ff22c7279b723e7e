//! Prefix trie over a batch of `Pal` queries, and the table that interns
//! its paths.
//!
//! A batch of `(sequence, thresholds)` queries is grouped into a trie whose
//! edges are `(type, canonical threshold bits)` pairs: two queries share a
//! node exactly when they audit the same types in the same order under
//! thresholds that are detection-equivalent on those types. The per-sample
//! evaluation state after an audit prefix (the consumed-budget vector and
//! the detection-mass sum of the last type) is a pure function of that
//! node, so a batch of `k` sequences sharing an `l`-long prefix pays for
//! the prefix once instead of `k` times. CGGS best-response expansion
//! generates exactly such batches (every greedy trial extends one shared
//! prefix), and ISHM's shrink candidates share every prefix that avoids
//! the shrunk coordinate.
//!
//! **Commutative prefix folding:** for the detection models whose per-type
//! budget consumption does not depend on the budget already consumed
//! (paper-approx and attack-inclusive: `spent = min(b_t, Z_t·C_t)`), the
//! consumed vector after a prefix is a *left-associated sum*
//! `(s₁ + s₂) + s₃ + …` whose first two addends commute bitwise under
//! IEEE 754. A node whose path swaps the first two elements of another
//! node's path therefore carries the **identical** consumed vector and
//! the identical last-type sum — so paths are canonicalized (first two
//! elements sorted once the path has a strict successor, i.e. length ≥ 3)
//! and such nodes merge outright. On a full `|T|!`-order frontier this
//! halves the deep trie levels. The operational model's consumption *is*
//! state-dependent, so folding is disabled there.
//!
//! **Path ids:** every canonical path is interned once in a [`PathTable`]
//! as a dense `u32` id, `(parent id, type, canonical bits) → id`, so a
//! trie node, an estimate-cache entry and a prefix-state entry each carry
//! a 4-byte key instead of two heap vectors. Two ids are equal exactly
//! when their paths are, so every lookup behaves as it would on the full
//! path. Only the prefix-state exchange between engines
//! ([`super::PalStateSeed`]) spells paths out, as [`PalKey`]s.
//!
//! Nodes are created parent-before-child, so ascending node id is a valid
//! topological order — the engine relies on this when it assembles results
//! and inserts prefix states deterministically.

use super::PalQuery;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Portable form of an audit prefix: the types in audit order plus the
/// canonical bit pattern of each one's threshold (first two elements
/// sorted when folding applies). Thresholds of types *outside* the
/// sequence cannot influence the evaluation, so they are excluded —
/// queries differing only there share paths, nodes, and cached results.
/// Engines exchange prefix states under this key; inside an engine a path
/// is a [`PathId`].
pub(super) type PalKey = (Vec<u16>, Vec<u64>);

/// Dense id of a path interned in a [`PathTable`]; `0` is the empty
/// prefix.
pub(super) type PathId = u32;

/// One interned path: `parent` extended by type `t` under canonical
/// threshold bits `bits`.
#[derive(Clone, Copy)]
struct Edge {
    parent: PathId,
    t: u16,
    depth: u16,
    bits: u64,
}

/// Interning table of canonical audit prefixes: `(parent id, type,
/// canonical bits) → id`, ids dense from 1 (0 is the empty prefix).
///
/// An engine keeps one table for its lifetime, and the table grows with
/// the distinct prefixes the engine sees (the unfolded path of every
/// query plus the folded path of every trie node) — evicting a cache
/// entry does not shrink it. An engine lives for one solve, where this
/// stays small next to the caches themselves: at most about 3.4k paths
/// per solve on syn-a-b6 (1000 samples, ε 0.1) and on emr-reaa (200
/// samples, ε 0.5), and 154k on syn-wide25 (60 samples, ε 0.5), whose
/// prefix-state cache sits at its entry cap. That wide solve's peak RSS
/// is 49 MB, down from 73 MB when every cache entry carried two heap
/// copies of its path. An engine with both caches disabled keeps nothing
/// across batches and clears its table after each one.
pub(super) struct PathTable {
    ids: HashMap<(PathId, u16, u64), PathId>,
    edges: Vec<Edge>,
}

impl PathTable {
    /// A table holding only the empty prefix.
    pub fn new() -> Self {
        // The empty prefix's placeholder edge, so `edges[id]` is `id`'s.
        let root = Edge {
            parent: 0,
            t: u16::MAX,
            depth: 0,
            bits: 0,
        };
        Self {
            ids: HashMap::new(),
            edges: vec![root],
        }
    }

    /// The id of `parent` extended by type `t` under canonical bits
    /// `bits`, interning it on first sight. Panics once ids would
    /// overflow `u32`.
    pub fn intern(&mut self, parent: PathId, t: usize, bits: u64) -> PathId {
        let edges = &mut self.edges;
        match self.ids.entry((parent, t as u16, bits)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = PathId::try_from(edges.len())
                    .expect("path table exceeds u32 ids: too many distinct audit prefixes");
                edges.push(Edge {
                    parent,
                    t: t as u16,
                    depth: edges[parent as usize].depth + 1,
                    bits,
                });
                *e.insert(id)
            }
        }
    }

    /// The id of the path with one `(type, canonical bits)` step per
    /// position, taken as given (no folding), interning each prefix on
    /// first sight.
    pub fn path(&mut self, steps: impl IntoIterator<Item = (usize, u64)>) -> PathId {
        steps
            .into_iter()
            .fold(0, |id, (t, bits)| self.intern(id, t, bits))
    }

    /// The portable key of `id` (the inverse of [`PathTable::path`]),
    /// built at its exact length.
    pub fn expand(&self, id: PathId) -> PalKey {
        let depth = usize::from(self.edges[id as usize].depth);
        let mut types = vec![0u16; depth];
        let mut bits = vec![0u64; depth];
        let mut cur = id;
        for i in (0..depth).rev() {
            let e = self.edges[cur as usize];
            types[i] = e.t;
            bits[i] = e.bits;
            cur = e.parent;
        }
        (types, bits)
    }

    /// Forget every path but the empty prefix.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.edges.truncate(1);
    }
}

/// Canonical threshold bits of every position of a batch's queries,
/// computed once per batch and read by both the estimate-cache keys and
/// the trie: query `i`'s bits are `flat[start[i]..start[i + 1]]`.
pub(super) struct BatchBits {
    flat: Vec<u64>,
    start: Vec<usize>,
}

impl BatchBits {
    /// `canon` maps `(type, raw threshold)` to the canonical bit pattern.
    pub fn new(queries: &[PalQuery], canon: impl Fn(usize, f64) -> u64) -> Self {
        let mut flat = Vec::with_capacity(queries.iter().map(|q| q.seq.len()).sum());
        let mut start = Vec::with_capacity(queries.len() + 1);
        start.push(0);
        for q in queries {
            flat.extend(q.seq.iter().map(|&t| canon(t, q.thresholds[t])));
            start.push(flat.len());
        }
        Self { flat, start }
    }

    /// The bits of query `i`, one per sequence position.
    pub fn of(&self, i: usize) -> &[u64] {
        &self.flat[self.start[i]..self.start[i + 1]]
    }
}

/// One trie node; node 0 is the root (empty prefix).
pub(super) struct Node {
    /// Alert type on the edge from the parent (unused for the root).
    pub t: usize,
    /// Representative raw threshold for the edge. All thresholds mapping
    /// to the same canonical bits are detection-equivalent, so any
    /// representative yields bit-identical results.
    pub b: f64,
    /// Prefix length.
    pub depth: usize,
    /// Child node ids, in first-insertion order (a folded node is listed
    /// only under its first parent, so the trie stays a tree).
    pub children: Vec<usize>,
    /// Canonical path id (doubles as the prefix-state cache key).
    pub key: PathId,
}

/// The trie over one batch's cache misses.
pub(super) struct QueryTrie {
    pub nodes: Vec<Node>,
    /// Per miss query (aligned with the `miss_idx` passed to `build`): the
    /// node id of every position of its sequence. Result assembly reads
    /// each position's detection-mass sum off its node.
    pub chains: Vec<Vec<usize>>,
}

impl QueryTrie {
    /// Group `queries[miss_idx]` into a trie, interning every node's path
    /// in `table`. `bits` holds each query position's canonical threshold
    /// bits; `fold_commutative` enables the first-two-swap merge (sound
    /// for the consumption-order-independent detection models only).
    pub fn build(
        table: &mut PathTable,
        queries: &[PalQuery],
        bits: &BatchBits,
        miss_idx: &[usize],
        fold_commutative: bool,
    ) -> Self {
        let mut nodes = vec![Node {
            t: usize::MAX,
            b: f64::NAN,
            depth: 0,
            children: Vec::new(),
            key: 0,
        }];
        let mut by_key: HashMap<PathId, usize> = HashMap::new();
        let mut chains = Vec::with_capacity(miss_idx.len());
        for &qi in miss_idx {
            let q = &queries[qi];
            let qbits = bits.of(qi);
            let mut cur = 0usize;
            let mut chain = Vec::with_capacity(q.seq.len());
            for (pos, (&t, &b)) in q.seq.iter().zip(qbits).enumerate() {
                // Canonicalize: the first two path elements commute once
                // the path extends beyond them, so a depth-3 node extends
                // the sorted first pair. Deeper parents are already
                // canonical.
                let parent = if fold_commutative
                    && pos == 2
                    && (q.seq[0], qbits[0]) > (q.seq[1], qbits[1])
                {
                    table.path([(q.seq[1], qbits[1]), (q.seq[0], qbits[0])])
                } else {
                    nodes[cur].key
                };
                let key = table.intern(parent, t, b);
                cur = match by_key.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let id = nodes.len();
                        nodes.push(Node {
                            t,
                            b: q.thresholds[t],
                            depth: pos + 1,
                            children: Vec::new(),
                            key,
                        });
                        nodes[cur].children.push(id);
                        *e.insert(id)
                    }
                };
                chain.push(cur);
            }
            chains.push(chain);
        }
        Self { nodes, chains }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trie over every query, keyed by raw threshold bits.
    fn build(queries: &[PalQuery], fold: bool) -> QueryTrie {
        let bits = BatchBits::new(queries, |_, b| b.to_bits());
        let idx: Vec<usize> = (0..queries.len()).collect();
        QueryTrie::build(&mut PathTable::new(), queries, &bits, &idx, fold)
    }

    fn trie_of(seqs: &[&[usize]], thresholds: &[f64], fold: bool) -> QueryTrie {
        let queries: Vec<PalQuery> = seqs
            .iter()
            .map(|s| PalQuery::prefix(s, thresholds))
            .collect();
        build(&queries, fold)
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let trie = trie_of(&[&[0, 1, 2], &[0, 1], &[0, 2, 1]], &[1.0, 2.0, 3.0], false);
        // Root + prefixes {0, 01, 012, 02, 021} = 6 nodes, not 1 + 3+2+3.
        assert_eq!(trie.nodes.len(), 6);
        // Query 1 ends on the depth-2 node of query 0's path.
        assert_eq!(trie.chains[1], trie.chains[0][..2].to_vec());
    }

    #[test]
    fn thresholds_outside_the_sequence_do_not_split_nodes() {
        let a = PalQuery::prefix(&[0], &[1.0, 5.0]);
        let b = PalQuery::prefix(&[0], &[1.0, 9.0]);
        let trie = build(&[a, b], false);
        assert_eq!(trie.nodes.len(), 2);
        assert_eq!(trie.chains[0], trie.chains[1]);
    }

    #[test]
    fn differing_thresholds_on_the_path_split_nodes() {
        let a = PalQuery::prefix(&[0, 1], &[1.0, 5.0]);
        let b = PalQuery::prefix(&[0, 1], &[1.0, 9.0]);
        let trie = build(&[a, b], false);
        // Shared node for type 0, split children for type 1.
        assert_eq!(trie.nodes.len(), 4);
    }

    #[test]
    fn commutative_folding_merges_first_two_swaps() {
        let th = [1.0, 2.0, 3.0];
        // Without folding: two full depth-3 paths (7 nodes with root).
        let plain = trie_of(&[&[0, 1, 2], &[1, 0, 2]], &th, false);
        assert_eq!(plain.nodes.len(), 7);
        // With folding: [0,1,2] and [1,0,2] share their depth-3 node; the
        // depth-1/2 nodes stay distinct (their own sums differ).
        let folded = trie_of(&[&[0, 1, 2], &[1, 0, 2]], &th, true);
        assert_eq!(folded.nodes.len(), 6);
        assert_eq!(folded.chains[0][2], folded.chains[1][2]);
        assert_ne!(folded.chains[0][1], folded.chains[1][1]);
        // Swapping a *later* pair does not fold: [0,1,2] and [0,2,1] share
        // only their [0] prefix (5 non-root nodes), exactly as unfolded.
        let other = trie_of(&[&[0, 1, 2], &[0, 2, 1]], &th, true);
        assert_eq!(other.nodes.len(), 6);
        assert_eq!(
            trie_of(&[&[0, 1, 2], &[0, 2, 1]], &th, false).nodes.len(),
            6
        );
        assert_ne!(other.chains[0][2], other.chains[1][2]);
    }

    #[test]
    fn folding_respects_thresholds_of_the_swapped_pair() {
        // Same types, different threshold on a swapped element: no merge.
        let a = PalQuery::prefix(&[0, 1, 2], &[1.0, 2.0, 3.0]);
        let b = PalQuery::prefix(&[1, 0, 2], &[1.0, 9.0, 3.0]);
        let trie = build(&[a, b], true);
        assert_eq!(trie.nodes.len(), 7);
    }

    #[test]
    fn path_ids_are_dense_and_round_trip_through_portable_keys() {
        let mut table = PathTable::new();
        let a = table.path([(2, 7), (0, 9)]);
        let b = table.path([(2, 7), (1, 9)]);
        // [2] is shared, so three paths intern as ids 1..=3.
        assert_eq!((a, b), (2, 3));
        assert_eq!(table.path([(2, 7), (0, 9)]), a);
        assert_ne!(table.path([(2, 7), (0, 8)]), a);
        let key = table.expand(b);
        assert_eq!(key, (vec![2, 1], vec![7, 9]));
        assert_eq!((key.0.capacity(), key.1.capacity()), (2, 2));
        let steps = key.0.iter().map(|&t| usize::from(t)).zip(key.1.clone());
        assert_eq!(table.path(steps), b);
        assert_eq!(table.expand(0), (Vec::new(), Vec::new()));
        table.clear();
        assert_eq!(table.path([(1, 5)]), 1);
    }

    #[test]
    fn folded_nodes_key_the_sorted_first_pair() {
        let th = [1.0, 2.0, 3.0];
        let queries = [
            PalQuery::prefix(&[1, 0, 2], &th),
            PalQuery::prefix(&[1, 0], &th),
        ];
        let bits = BatchBits::new(&queries, |_, b| b.to_bits());
        let mut table = PathTable::new();
        let trie = QueryTrie::build(&mut table, &queries, &bits, &[0, 1], true);
        let raw = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        let key = |chain: &[usize], pos: usize| table.expand(trie.nodes[chain[pos]].key);
        // Depth 3 keys the path with its first pair sorted; depth 2 stays
        // unfolded.
        assert_eq!(
            key(&trie.chains[0], 2),
            (vec![0, 1, 2], raw(&[1.0, 2.0, 3.0]))
        );
        assert_eq!(key(&trie.chains[1], 1), (vec![1, 0], raw(&[2.0, 1.0])));
    }

    #[test]
    fn node_ids_are_topologically_ordered() {
        let th = [1.0, 2.0, 3.0, 4.0];
        let trie = trie_of(&[&[3, 2, 1, 0], &[0, 1, 2, 3], &[3, 1]], &th, true);
        for (id, node) in trie.nodes.iter().enumerate() {
            for &c in &node.children {
                assert!(c > id, "child {c} of node {id} created before parent");
            }
        }
    }
}
