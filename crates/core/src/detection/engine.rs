//! The batched, parallel, memoizing `Pal` engine.
//!
//! Four layers of reuse stack on top of the scalar estimator, all of them
//! bit-identical to it (they reorder loops and share *states*, never
//! floating-point results):
//!
//! 1. **Prefix-trie sharing** (per batch): the batch's sequences are
//!    grouped into a [`QueryTrie`]; the per-sample detection state
//!    (consumed budget, per-type detection-mass sums) is computed once per
//!    trie *node* and extended per child, so `k` sequences sharing an
//!    `l`-long prefix pay for the prefix once. Worker threads split the
//!    batch by trie subtree — never by sample row — so accumulation order
//!    is fixed and results are thread-count invariant.
//! 2. **Commutative prefix folding**: for the consumption-order-independent
//!    detection models, paths differing only in their first two elements
//!    carry bitwise-identical states (IEEE addition commutes), so the trie
//!    merges them outright — a full `|T|!`-order frontier halves its deep
//!    levels. See the soundness discussion in the [`trie`](super::trie)
//!    module docs.
//! 3. **Prefix-state cache** (across batches): the consumed-budget vector
//!    and detection sum after every evaluated prefix are retained in a
//!    bounded second-chance cache keyed by the canonical path's id. CGGS
//!    greedy expansion (which re-extends the same prefix one type at a
//!    time) and ISHM's single-coordinate shrink candidates (which share
//!    every prefix avoiding the shrunk coordinate) hit this cache
//!    constantly, making consecutive solver queries incremental instead of
//!    from-scratch.
//! 4. **Saturation classing**: a threshold that can never bind is
//!    detection-equivalent to every other such threshold, so cache keys
//!    canonicalize them to one class, and thresholds of types *outside* a
//!    query's sequence are excluded from its key entirely. Two kinds
//!    saturate: an audit cap `⌊b_t/C_t⌋` that covers the largest count in
//!    the bank (plus one for the attack-inclusive model), and any
//!    `b_t ≥ B`, the whole period budget. ISHM starts every search at
//!    full coverage, which on most scenarios lies far above `B`; those
//!    candidates collapse.
//!
//! Why `b ≥ B` is exact for all three detection models. Thresholds are
//! budget shares and never negative, so the budget consumed before a type
//! is some `c ≥ 0`. Take two thresholds `b, b' ≥ B` for type `t`:
//!
//! * **The type's own audits.** The budget cap `⌊(B−c)/C_t⌋ ≤ ⌊B/C_t⌋ ≤
//!   ⌊b/C_t⌋`, so the threshold cap never binds: `n_t`, the zero-count
//!   rule and the contribution do not depend on `b`.
//! * **Budget consumed after the type.** The operational model spends
//!   `n_t·C_t`, the same under both. Paper-approx and attack-inclusive
//!   add `min(b, Z_t·C_t)`: the same when `Z_t·C_t ≤ min(b, b')`, and
//!   otherwise at least `B` under both.
//! * **Later types.** Once the consumed budget reaches `B`, every later
//!   type's budget cap is 0 and the consumed budget stays at least `B`,
//!   so every later contribution is 0 under both.
//!
//! So every `Pal` is bit-identical under either threshold, a prefix state
//! cached under one extends correctly under the other, and count- and
//! budget-saturated thresholds form one class.
//!
//! Every column pass streams one contiguous `u64` column of the bank
//! ([`stochastics::SampleBank::column`]).

use super::cache::SecondChance;
use super::trie::{BatchBits, Node, PathId, PathTable, QueryTrie};
use super::{detection_step, DetectionEstimator, DetectionModel, PalQuery};
use crate::ordering::AuditOrder;
use crate::parallel::parallel_map_indexed;
use std::cell::{Cell, RefCell};

/// Counters of a [`PalEngine`]'s caches and trie evaluator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the estimate cache.
    pub hits: u64,
    /// Queries that had to be evaluated.
    pub misses: u64,
    /// Estimates currently held.
    pub entries: usize,
    /// Estimate-cache entries displaced by second-chance eviction.
    pub evictions: u64,
    /// Prefix states currently held.
    pub state_entries: usize,
    /// Trie nodes whose column pass was skipped via a cached prefix state.
    pub state_hits: u64,
    /// Prefix-state entries displaced by second-chance eviction.
    pub state_evictions: u64,
    /// Column passes actually executed by the trie evaluator.
    pub columns_evaluated: u64,
    /// Column passes a per-query scalar evaluation would have executed but
    /// the trie/prefix-state sharing avoided.
    pub columns_saved: u64,
}

impl CacheStats {
    /// Accumulate another engine's counters into this one (used by the
    /// experiment drivers to report totals across solver-owned engines).
    /// Monotonic counters (hits, misses, evictions, column passes) sum;
    /// the point-in-time gauges `entries`/`state_entries` instead take the
    /// **maximum** — a sum of final cache sizes across engines measures
    /// nothing, while the max is the high-water cache footprint any single
    /// engine reached.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries = self.entries.max(other.entries);
        self.evictions += other.evictions;
        self.state_entries = self.state_entries.max(other.state_entries);
        self.state_hits += other.state_hits;
        self.state_evictions += other.state_evictions;
        self.columns_evaluated += other.columns_evaluated;
        self.columns_saved += other.columns_saved;
    }
}

/// Per-sample evaluation state after an audit prefix: the consumed-budget
/// vector (one entry per bank sample) plus the raw detection-mass sum of
/// the prefix's last type. Extending a cached state by one type is exactly
/// one column pass — the incremental step both solvers live on.
struct PrefixState {
    consumed: Vec<f64>,
    sum: f64,
}

/// Default number of cached estimates.
const DEFAULT_PAL_CACHE_CAPACITY: usize = 1 << 18;

/// Default memory budget for the prefix-state cache, in bytes. Each entry
/// costs ~8 bytes per bank sample, so the entry capacity is derived per
/// engine from the bank size (clamped to a sane range).
const DEFAULT_STATE_CACHE_BYTES: usize = 32 << 20;

fn default_state_capacity(n_samples: usize) -> usize {
    (DEFAULT_STATE_CACHE_BYTES / (8 * n_samples + 256)).clamp(16, 65_536)
}

/// `f64::INFINITY.to_bits()` — the canonical bit pattern of the saturated
/// threshold class. Any saturated threshold behaves identically to `+∞`,
/// so the class is keyed by it.
const SATURATED_BITS: u64 = 0x7FF0_0000_0000_0000;

/// Batched, parallel, memoizing `Pal` evaluator. See the module docs for
/// the reuse layers; see `tests/detection_equivalence.rs` for the
/// bit-identity contract with [`DetectionEstimator`].
///
/// The estimate cache key is the audit sequence plus the **canonical bit
/// pattern** of each sequence type's threshold. Coarser quantization (e.g.
/// rounding to the audit-unit lattice) would be unsound: the recourse
/// formula consumes the *raw* `b_t` (`consumed += min(b_t, Z_t·C_t)`), so
/// thresholds equal under rounding can still yield different estimates.
/// The only safe collapses — proven by the saturation argument above — are
/// exactly the ones the canonical form applies: the saturated tail, which
/// holds every threshold whose audit cap covers the bank's largest count
/// and every threshold at or above the period budget `B`.
///
/// Both caches key by **path id**: the engine interns every canonical
/// path — sequence plus canonical bits — once, as a dense `u32`. Two ids
/// are equal exactly when their paths are, so ids hit, miss and evict
/// exactly as the paths would. The table grows with the distinct paths
/// one engine sees; an engine with both caches disabled
/// ([`PalEngine::uncached`]) clears it after every batch.
///
/// Thresholds must not be negative (NaN is tolerated): the `b ≥ B` class
/// relies on the consumed budget never falling, and every query asserts it.
pub struct PalEngine<'a> {
    est: DetectionEstimator<'a>,
    threads: usize,
    capacity: usize,
    state_capacity: usize,
    /// Per-type saturation point in audit units: caps at or above this
    /// value can never bind on this bank (model-adjusted).
    sat_units: Vec<f64>,
    /// Every canonical path the engine has seen, as dense ids.
    paths: RefCell<PathTable>,
    /// Estimates, keyed by the query's unfolded path id.
    results: RefCell<SecondChance<PathId, Vec<f64>>>,
    /// Prefix states, keyed by the trie node's folded path id.
    states: RefCell<SecondChance<PathId, PrefixState>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    state_hits: Cell<u64>,
    columns_evaluated: Cell<u64>,
    columns_saved: Cell<u64>,
}

impl<'a> PalEngine<'a> {
    /// Build a caching engine with the given worker count (`0` is treated
    /// as `1`).
    pub fn new(est: DetectionEstimator<'a>, threads: usize) -> Self {
        Self::with_capacities(
            est,
            threads,
            DEFAULT_PAL_CACHE_CAPACITY,
            default_state_capacity(est.bank.n_samples()),
        )
    }

    /// Build an engine that never caches across calls (every query is
    /// evaluated; batches still share work through the trie) — used by
    /// benchmarks to isolate the batching speedup, and by one-shot scans
    /// like brute force whose queries never repeat.
    pub fn uncached(est: DetectionEstimator<'a>, threads: usize) -> Self {
        Self::with_capacities(est, threads, 0, 0)
    }

    /// Build with an explicit estimate-cache capacity, so tests can drive
    /// eviction through a tiny cache.
    #[cfg(test)]
    fn with_cache_capacity(est: DetectionEstimator<'a>, threads: usize, capacity: usize) -> Self {
        let state_capacity = default_state_capacity(est.bank.n_samples());
        Self::with_capacities(est, threads, capacity, state_capacity)
    }

    /// Build with explicit estimate- and prefix-state-cache capacities
    /// (entries; `0` disables the respective cache).
    fn with_capacities(
        est: DetectionEstimator<'a>,
        threads: usize,
        capacity: usize,
        state_capacity: usize,
    ) -> Self {
        assert!(
            est.bank.n_types() <= u16::MAX as usize,
            "cache key packs type indices into u16"
        );
        let sat_units = (0..est.bank.n_types())
            .map(|t| {
                let mc = est.bank.max_count(t) as f64;
                match est.model {
                    // The attack-inclusive ratio audits up to Z_t + 1
                    // alerts, so saturation needs one more unit of cap.
                    DetectionModel::AttackInclusive => mc + 1.0,
                    // The zero-count rule reads `cap ≥ 1`, so the class
                    // boundary never drops below one audit unit.
                    _ => mc.max(1.0),
                }
            })
            .collect();
        Self {
            est,
            threads: threads.max(1),
            capacity,
            state_capacity,
            sat_units,
            paths: RefCell::new(PathTable::new()),
            results: RefCell::new(SecondChance::new(capacity)),
            states: RefCell::new(SecondChance::new(state_capacity)),
            hits: Cell::new(0),
            misses: Cell::new(0),
            state_hits: Cell::new(0),
            columns_evaluated: Cell::new(0),
            columns_saved: Cell::new(0),
        }
    }

    /// The scalar estimator backing this engine.
    pub fn estimator(&self) -> &DetectionEstimator<'a> {
        &self.est
    }

    /// Worker threads used for batch evaluation.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cache observability counters.
    pub fn cache_stats(&self) -> CacheStats {
        let results = self.results.borrow();
        let states = self.states.borrow();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: results.len(),
            evictions: results.evictions(),
            state_entries: states.len(),
            state_hits: self.state_hits.get(),
            state_evictions: states.evictions(),
            columns_evaluated: self.columns_evaluated.get(),
            columns_saved: self.columns_saved.get(),
        }
    }

    /// The canonical bit pattern of threshold `b` for type `t`: saturated
    /// thresholds (at or above the period budget, or with an audit cap
    /// covering the bank's largest count) collapse to one class,
    /// everything else keys by exact bits.
    fn canonical_bits(&self, t: usize, b: f64) -> u64 {
        let spec = self.est.spec;
        let cap = (b / spec.alert_types[t].audit_cost).floor().max(0.0);
        if b >= spec.budget || cap >= self.sat_units[t] {
            SATURATED_BITS
        } else {
            b.to_bits()
        }
    }

    /// Canonical equivalence key of a full threshold vector: two vectors
    /// with equal keys produce bit-identical `Pal` results for **every**
    /// sequence on this engine's bank (saturated coordinates, including
    /// every one at or above the period budget, collapse). Solver-side
    /// objective memos key on this to skip equivalent LPs.
    pub fn threshold_class_key(&self, thresholds: &[f64]) -> Vec<u64> {
        assert_eq!(thresholds.len(), self.est.spec.n_types());
        assert_non_negative(thresholds);
        thresholds
            .iter()
            .enumerate()
            .map(|(t, &b)| self.canonical_bits(t, b))
            .collect()
    }

    /// `Pal` for one full order (cached).
    pub fn pal(&self, order: &AuditOrder, thresholds: &[f64]) -> Vec<f64> {
        self.pal_batch(std::slice::from_ref(&PalQuery::full(order, thresholds)))
            .pop()
            .expect("one query yields one result")
    }

    /// `Pal` for a prefix sequence (cached).
    pub fn pal_prefix(&self, prefix: &[usize], thresholds: &[f64]) -> Vec<f64> {
        self.pal_batch(std::slice::from_ref(&PalQuery::prefix(prefix, thresholds)))
            .pop()
            .expect("one query yields one result")
    }

    /// Evaluate a whole candidate frontier in one pass: results are aligned
    /// with `queries`. Cached queries cost a lookup; the rest are grouped
    /// into a prefix trie and split across workers by subtree.
    pub fn pal_batch(&self, queries: &[PalQuery]) -> Vec<Vec<f64>> {
        let n_types = self.est.spec.n_types();
        let mut seen = vec![false; n_types];
        for q in queries {
            assert_eq!(q.thresholds.len(), n_types, "threshold arity mismatch");
            assert_non_negative(&q.thresholds);
            assert!(q.seq.len() <= n_types, "sequence longer than type set");
            // Audit sequences must not repeat a type: the column sweep
            // visits each type once, so a duplicate would silently diverge
            // from the scalar path (which re-walks it) — reject instead.
            seen.iter_mut().for_each(|s| *s = false);
            for &t in &q.seq {
                assert!(t < n_types, "type index {t} out of range");
                assert!(!seen[t], "audit sequence repeats type {t}");
                seen[t] = true;
            }
        }
        let bits = BatchBits::new(queries, |t, b| self.canonical_bits(t, b));
        let mut paths = self.paths.borrow_mut();
        let mut results: Vec<Option<Vec<f64>>> = vec![None; queries.len()];
        let mut miss_idx: Vec<usize> = Vec::new();
        let mut miss_keys: Vec<PathId> = Vec::new();
        if self.capacity > 0 {
            let mut cache = self.results.borrow_mut();
            for (i, q) in queries.iter().enumerate() {
                let key = paths.path(q.seq.iter().copied().zip(bits.of(i).iter().copied()));
                match cache.get(&key) {
                    Some(v) => results[i] = Some(v.clone()),
                    None => {
                        miss_idx.push(i);
                        miss_keys.push(key);
                    }
                }
            }
            self.hits
                .set(self.hits.get() + (queries.len() - miss_idx.len()) as u64);
            self.misses.set(self.misses.get() + miss_idx.len() as u64);
        } else {
            miss_idx.extend(0..queries.len());
        }

        let computed = self.eval_misses(&mut paths, queries, &bits, &miss_idx);

        if self.capacity > 0 && !miss_idx.is_empty() {
            let mut cache = self.results.borrow_mut();
            for (key, v) in miss_keys.into_iter().zip(&computed) {
                cache.insert(key, v.clone());
            }
        }
        // With both caches disabled no id outlives the batch.
        if self.capacity == 0 && self.state_capacity == 0 {
            paths.clear();
        }
        for (i, v) in miss_idx.into_iter().zip(computed) {
            results[i] = Some(v);
        }
        results
            .into_iter()
            .map(|r| r.expect("every query resolved"))
            .collect()
    }

    /// Evaluate the missed queries through the trie, preserving `miss_idx`
    /// order.
    fn eval_misses(
        &self,
        paths: &mut PathTable,
        queries: &[PalQuery],
        bits: &BatchBits,
        miss_idx: &[usize],
    ) -> Vec<Vec<f64>> {
        if miss_idx.is_empty() {
            return Vec::new();
        }
        let n_types = self.est.spec.n_types();
        let n_samples = self.est.bank.n_samples();

        // Commutative folding is unsound for the operational model, whose
        // per-type consumption depends on the state it is evaluated in.
        let fold = !matches!(self.est.model, DetectionModel::Operational);
        let trie = QueryTrie::build(paths, queries, bits, miss_idx, fold);
        let nodes = &trie.nodes;
        let n_nodes = nodes.len();

        // ---- Phase 1 (single-threaded): prefix-state lookups ----
        // Register every hit (`touch` marks the second-chance bit) and
        // adopt its detection sum; the consumed vectors stay in the cache
        // and are *borrowed* — not cloned — during the walk below.
        let mut hit_slot: Vec<Option<usize>> = vec![None; n_nodes];
        let mut sums = vec![0.0f64; n_nodes];
        if self.state_capacity > 0 {
            let mut sc = self.states.borrow_mut();
            let mut adopted = 0u64;
            for id in 1..n_nodes {
                if let Some(slot) = sc.touch(&nodes[id].key) {
                    hit_slot[id] = Some(slot);
                    sums[id] = sc.peek(slot).sum;
                    adopted += 1;
                }
            }
            self.state_hits.set(self.state_hits.get() + adopted);
        }
        let hit: Vec<bool> = hit_slot.iter().map(|s| s.is_some()).collect();

        // needs_walk: the subtree still contains at least one fresh pass.
        // Children have larger ids than parents, so a reverse scan works.
        let mut needs_walk = vec![false; n_nodes];
        for id in (1..n_nodes).rev() {
            needs_walk[id] = !hit[id] || nodes[id].children.iter().any(|&c| needs_walk[c]);
        }

        // ---- Phase 2: run the fresh passes, one trie subtree per worker ----
        let sc_ro = self.states.borrow();
        let adopted_consumed: Vec<Option<&[f64]>> = hit_slot
            .iter()
            .map(|slot| slot.map(|s| sc_ro.peek(s).consumed.as_slice()))
            .collect();
        let ctx = WalkCtx {
            est: self.est,
            nodes,
            hit: &hit,
            needs_walk: &needs_walk,
            adopted_consumed: &adopted_consumed,
            retain_below: if self.state_capacity > 0 { n_types } else { 0 },
        };
        let zeros = vec![0.0f64; n_samples];
        let roots: Vec<usize> = nodes[0]
            .children
            .iter()
            .copied()
            .filter(|&c| needs_walk[c])
            .collect();
        // One contiguous run of root subtrees per worker; a single run is
        // walked inline on the calling thread.
        let workers = self.threads.min(roots.len()).max(1);
        let per = roots.len().div_ceil(workers).max(1);
        let parts: Vec<&[usize]> = roots.chunks(per).collect();
        let outputs: Vec<Vec<WalkOut>> = parallel_map_indexed(workers, &parts, |_, part| {
            let mut out = Vec::new();
            walk_set(&ctx, part, Some(&zeros), &mut out);
            out
        });
        drop(adopted_consumed);
        drop(sc_ro);

        // ---- Phase 3 (single-threaded): assemble and retain ----
        let mut fresh_states: Vec<Option<Vec<f64>>> = vec![None; n_nodes];
        let mut passes = 0u64;
        for part in outputs {
            for out in part {
                sums[out.id] = out.sum;
                fresh_states[out.id] = out.consumed;
                passes += 1;
            }
        }
        self.columns_evaluated
            .set(self.columns_evaluated.get() + passes);
        let scalar_cols: u64 = miss_idx.iter().map(|&i| queries[i].seq.len() as u64).sum();
        self.columns_saved
            .set(self.columns_saved.get() + (scalar_cols - passes));

        let nf = n_samples as f64;
        let mut results: Vec<Option<Vec<f64>>> = vec![None; queries.len()];
        for (chain, &qi) in trie.chains.iter().zip(miss_idx) {
            let mut r = vec![0.0; n_types];
            for &nid in chain {
                r[nodes[nid].t] = sums[nid] / nf;
            }
            results[qi] = Some(r);
        }

        // Retain fresh prefix states in deterministic (node id) order, so
        // cache content and evictions are identical at every thread count.
        if self.state_capacity > 0 {
            let mut sc = self.states.borrow_mut();
            for id in 1..n_nodes {
                if let Some(consumed) = fresh_states[id].take() {
                    sc.insert(
                        nodes[id].key,
                        PrefixState {
                            consumed,
                            sum: sums[id],
                        },
                    );
                }
            }
        }

        miss_idx
            .iter()
            .map(|&i| results[i].take().expect("miss evaluated"))
            .collect()
    }
}

impl std::fmt::Debug for PalEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PalEngine")
            .field("threads", &self.threads)
            .field("capacity", &self.capacity)
            .field("state_capacity", &self.state_capacity)
            .field("stats", &self.cache_stats())
            .finish()
    }
}

/// Reject negative thresholds, on which the budget-saturated class is
/// unsound: a negative `min(b_t, Z_t·C_t)` would hand consumed budget back.
fn assert_non_negative(thresholds: &[f64]) {
    assert!(
        thresholds.iter().all(|&b| b >= 0.0 || b.is_nan()),
        "thresholds must not be negative"
    );
}

/// Shared read-only context of one trie walk.
struct WalkCtx<'e, 'a> {
    est: DetectionEstimator<'a>,
    nodes: &'e [Node],
    hit: &'e [bool],
    needs_walk: &'e [bool],
    adopted_consumed: &'e [Option<&'e [f64]>],
    /// Retain fresh states for nodes with `depth < retain_below` (`0`
    /// disables retention; full-length prefixes can never be extended, so
    /// they are never retained).
    retain_below: usize,
}

/// One evaluated trie node: its detection-mass sum and (when retained or
/// needed by descendants) the consumed-budget vector after the prefix.
struct WalkOut {
    id: usize,
    sum: f64,
    consumed: Option<Vec<f64>>,
}

/// Evaluate the fresh members of a sibling set and recurse. `children` is
/// a set of sibling node ids (or a partition of the root's children);
/// `parent_consumed` is the evaluation state after their common prefix.
/// Each fresh sibling costs one column pass over it.
fn walk_set(
    ctx: &WalkCtx<'_, '_>,
    children: &[usize],
    parent_consumed: Option<&[f64]>,
    out: &mut Vec<WalkOut>,
) {
    let spec = ctx.est.spec;
    for &id in children {
        let node = &ctx.nodes[id];
        if ctx.hit[id] {
            // A cached sibling whose subtree still contains fresh passes.
            if ctx.needs_walk[id] {
                walk_set(ctx, &node.children, ctx.adopted_consumed[id], out);
            }
            continue;
        }
        let parent = parent_consumed.expect("fresh node requires parent prefix state");
        let c_t = spec.alert_types[node.t].audit_cost;
        let b_t = node.b;
        let thresh_cap = (b_t / c_t).floor().max(0.0);
        let col = ctx.est.bank.column(node.t);
        let retain = node.depth < ctx.retain_below;
        let step = |cons: f64, z: u64| {
            detection_step(ctx.est.model, spec.budget, c_t, b_t, thresh_cap, cons, z)
        };
        let (sum, consumed) = if retain || node.children.iter().any(|&g| !ctx.hit[g]) {
            let (sum, next) = pass_extend(parent, col, step);
            (sum, Some(next))
        } else {
            (pass_sum(parent, col, step), None)
        };
        if node.children.iter().any(|&g| ctx.needs_walk[g]) {
            walk_set(ctx, &node.children, consumed.as_deref(), out);
        }
        out.push(WalkOut {
            id,
            sum,
            consumed: consumed.filter(|_| retain),
        });
    }
}

/// One column pass that also extends the parent state: the detection-mass
/// sum and the consumed-budget vector after the node.
fn pass_extend(
    parent: &[f64],
    col: &[u64],
    step: impl Fn(f64, u64) -> (f64, f64),
) -> (f64, Vec<f64>) {
    let mut next = Vec::with_capacity(parent.len());
    let mut sum = 0.0f64;
    for (&cons, &z) in parent.iter().zip(col) {
        let (contrib, spent) = step(cons, z);
        sum += contrib;
        next.push(cons + spent);
    }
    (sum, next)
}

/// One column pass that only sums: the node's state is neither retained
/// nor extended.
fn pass_sum(parent: &[f64], col: &[u64], step: impl Fn(f64, u64) -> (f64, f64)) -> f64 {
    let mut sum = 0.0f64;
    for (&cons, &z) in parent.iter().zip(col) {
        sum += step(cons, z).0;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttackAction, Attacker, GameSpec, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::{Constant, SampleBank, UniformCount};

    const MODELS: [DetectionModel; 3] = [
        DetectionModel::PaperApprox,
        DetectionModel::AttackInclusive,
        DetectionModel::Operational,
    ];

    /// Two types, deterministic Z = (2, 3), C = (1, 1).
    fn spec(budget: f64) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(2)));
        let _t1 = b.alert_type("t1", 1.0, Arc::new(Constant(3)));
        b.attacker(Attacker::new(
            "e",
            1.0,
            vec![AttackAction::deterministic("v", t0, 1.0, 0.0, 0.0)],
        ));
        b.budget(budget);
        b.build().unwrap()
    }

    /// Three types with non-trivial random counts and mixed costs.
    fn spec3(budget: f64) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(UniformCount::new(0, 5)));
        let _t1 = b.alert_type("t1", 1.5, Arc::new(UniformCount::new(1, 4)));
        let _t2 = b.alert_type("t2", 0.5, Arc::new(UniformCount::new(0, 7)));
        b.attacker(Attacker::new(
            "e",
            1.0,
            vec![AttackAction::deterministic("v", t0, 1.0, 0.0, 0.0)],
        ));
        b.budget(budget);
        b.build().unwrap()
    }

    fn bank_for(spec: &GameSpec) -> SampleBank {
        spec.sample_bank(4, 0)
    }

    #[test]
    fn engine_matches_scalar_bitwise() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        for model in MODELS {
            let est = DetectionEstimator::new(&s, &bank, model);
            for threads in [1usize, 2, 4] {
                let engine = PalEngine::new(est, threads);
                for thresholds in [[1.0, 10.0], [0.0, 1.5], [2.0, 2.0]] {
                    for order in AuditOrder::enumerate_all(2) {
                        assert_eq!(
                            engine.pal(&order, &thresholds),
                            est.pal(&order, &thresholds),
                            "model {model:?}, threads {threads}"
                        );
                    }
                    assert_eq!(
                        engine.pal_prefix(&[1], &thresholds),
                        est.pal_prefix(&[1], &thresholds)
                    );
                }
            }
        }
    }

    #[test]
    fn folded_orders_match_scalar_bitwise() {
        // Commutative folding merges [a,b,...] with [b,a,...]: every full
        // order of a 3-type game with mixed costs must still equal the
        // scalar reference exactly, for every model (including the
        // unfoldable operational one).
        let s = spec3(4.0);
        let bank = s.sample_bank(64, 9);
        for model in MODELS {
            let est = DetectionEstimator::new(&s, &bank, model);
            let engine = PalEngine::new(est, 1);
            for thresholds in [[2.0, 3.0, 1.0], [0.5, 9.0, 2.5]] {
                let queries: Vec<PalQuery> = AuditOrder::enumerate_all(3)
                    .iter()
                    .map(|o| PalQuery::full(o, &thresholds))
                    .collect();
                let batch = engine.pal_batch(&queries);
                for (q, got) in queries.iter().zip(&batch) {
                    assert_eq!(
                        got,
                        &est.pal_prefix(&q.seq, &q.thresholds),
                        "model {model:?}, seq {:?}",
                        q.seq
                    );
                }
            }
        }
    }

    #[test]
    fn folding_reduces_column_passes_on_full_enumerations() {
        let s = spec3(4.0);
        let bank = s.sample_bank(16, 1);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::uncached(est, 1);
        let thresholds = [2.0, 3.0, 1.0];
        let queries: Vec<PalQuery> = AuditOrder::enumerate_all(3)
            .iter()
            .map(|o| PalQuery::full(o, &thresholds))
            .collect();
        engine.pal_batch(&queries);
        let stats = engine.cache_stats();
        // 6 orders × 3 columns = 18 scalar passes. The plain trie has
        // 3 + 6 + 6 = 15 nodes; folding merges the depth-3 level down to
        // 3 classes: 3 + 6 + 3 = 12.
        assert_eq!(stats.columns_evaluated, 12);
        assert_eq!(stats.columns_saved, 6);
        // The operational model cannot fold: 15 passes.
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::Operational);
        let engine = PalEngine::uncached(est, 1);
        engine.pal_batch(&queries);
        assert_eq!(engine.cache_stats().columns_evaluated, 15);
    }

    #[test]
    fn engine_batch_preserves_query_order_and_caches() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 2);
        let queries = vec![
            PalQuery::full(&AuditOrder::identity(2), &[1.0, 10.0]),
            PalQuery::prefix(&[0], &[1.0, 10.0]),
            PalQuery::full(&AuditOrder::new(vec![1, 0]).unwrap(), &[1.0, 10.0]),
        ];
        let first = engine.pal_batch(&queries);
        assert_eq!(first.len(), 3);
        for (q, r) in queries.iter().zip(&first) {
            assert_eq!(r, &est.pal_prefix(&q.seq, &q.thresholds));
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 3);

        // Second round: all hits, same results.
        let second = engine.pal_batch(&queries);
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn trie_shares_prefix_columns_within_a_batch() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::uncached(est, 1);
        // Both queries share the [0] prefix: 1 + 2 scalar columns, but the
        // trie evaluates only 2 nodes.
        let queries = vec![
            PalQuery::prefix(&[0], &[1.0, 1.0]),
            PalQuery::prefix(&[0, 1], &[1.0, 1.0]),
        ];
        let batch = engine.pal_batch(&queries);
        assert_eq!(batch[0], est.pal_prefix(&[0], &[1.0, 1.0]));
        assert_eq!(batch[1], est.pal_prefix(&[0, 1], &[1.0, 1.0]));
        let stats = engine.cache_stats();
        assert_eq!(stats.columns_evaluated, 2);
        assert_eq!(stats.columns_saved, 1);
    }

    #[test]
    fn prefix_states_carry_across_batches() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 1);
        // Greedy-oracle shape: first the prefix trial, then its extension.
        engine.pal_prefix(&[0], &[1.0, 1.0]);
        let before = engine.cache_stats();
        assert_eq!(before.columns_evaluated, 1);
        engine.pal_prefix(&[0, 1], &[1.0, 1.0]);
        let after = engine.cache_stats();
        // The second call pays only the extension column: the [0] prefix
        // state is adopted from the cache.
        assert_eq!(after.columns_evaluated, 2);
        assert_eq!(after.state_hits, 1);
        assert_eq!(
            engine.pal_prefix(&[0, 1], &[1.0, 1.0]),
            est.pal_prefix(&[0, 1], &[1.0, 1.0])
        );
    }

    #[test]
    fn saturated_thresholds_share_one_class() {
        // Bank max counts are (2, 3); any threshold with cap ≥ max count
        // is detection-equivalent (the paper model), so 5.0, 7.5 and ∞
        // collapse into one cached class per coordinate.
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 1);
        let a = engine.pal(&AuditOrder::identity(2), &[5.0, 5.0]);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        let b = engine.pal(&AuditOrder::identity(2), &[7.5, f64::INFINITY]);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1, "saturated variant must hit the class");
        assert_eq!(a, b);
        // And the class answer is bit-identical to both scalar evaluations.
        assert_eq!(a, est.pal(&AuditOrder::identity(2), &[5.0, 5.0]));
        assert_eq!(b, est.pal(&AuditOrder::identity(2), &[7.5, f64::INFINITY]));
        // Sub-saturation thresholds stay exact-keyed.
        let c = engine.pal(&AuditOrder::identity(2), &[1.0, 2.0]);
        assert_eq!(c, est.pal(&AuditOrder::identity(2), &[1.0, 2.0]));
        assert_eq!(engine.cache_stats().entries, 2);
    }

    /// One query per candidate: `seq` under `base` with coordinate
    /// `coord` replaced by the candidate, a single-coordinate sweep.
    fn sweep(seq: &[usize], base: &[f64], coord: usize, candidates: &[f64]) -> Vec<PalQuery> {
        candidates
            .iter()
            .map(|&v| {
                let mut th = base.to_vec();
                th[coord] = v;
                PalQuery::prefix(seq, &th)
            })
            .collect()
    }

    #[test]
    fn sweep_matches_per_candidate_loop() {
        let s = spec(2.5);
        let bank = bank_for(&s);
        for model in MODELS {
            let est = DetectionEstimator::new(&s, &bank, model);
            let engine = PalEngine::new(est, 2);
            let candidates = [0.0, 1.0, 1.5, 2.0, 1.0, 9.0, 17.0];
            for seq in [vec![0usize, 1], vec![1, 0], vec![1], vec![0]] {
                for coord in [0usize, 1] {
                    let queries = sweep(&seq, &[1.5, 2.0], coord, &candidates);
                    let swept = engine.pal_batch(&queries);
                    assert_eq!(swept.len(), candidates.len());
                    for ((q, got), &v) in queries.iter().zip(&swept).zip(&candidates) {
                        assert_eq!(
                            got,
                            &est.pal_prefix(&seq, &q.thresholds),
                            "model {model:?}, seq {seq:?}, coord {coord}, v {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_collapses_duplicate_and_saturated_candidates() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 1);
        // Max count of type 0 is 2: candidates 2.0, 5.0, 9.0 saturate; the
        // two 1.0 duplicates share. Three type-0 siblings {1.0, 1.5, sat},
        // each with one type-1 child: six column passes for six queries.
        let swept = engine.pal_batch(&sweep(
            &[0, 1],
            &[1.0, 1.0],
            0,
            &[1.0, 5.0, 1.5, 1.0, 2.0, 9.0],
        ));
        assert_eq!(swept.len(), 6);
        assert_eq!(engine.cache_stats().columns_evaluated, 6);
        assert_eq!(swept[1], swept[4]);
        assert_eq!(swept[1], swept[5]);
        assert_eq!(swept[0], swept[3]);
        // Coordinate outside the sequence: one node serves all.
        let engine = PalEngine::new(est, 1);
        let swept = engine.pal_batch(&sweep(&[1], &[1.0, 1.0], 0, &[0.5, 1.0, 2.0]));
        assert_eq!(engine.cache_stats().columns_evaluated, 1);
        assert_eq!(swept[0], swept[2]);
        assert_eq!(swept[0], est.pal_prefix(&[1], &[0.5, 1.0]));
    }

    #[test]
    fn engine_cache_capacity_bounds_entries_with_evictions() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::with_cache_capacity(est, 1, 2);
        for k in 0..5u32 {
            let b = f64::from(k) * 0.25; // sub-saturation: distinct classes
            engine.pal(&AuditOrder::identity(2), &[b, b]);
        }
        let stats = engine.cache_stats();
        assert!(stats.entries <= 2, "entries {}", stats.entries);
        // Second-chance eviction displaces single entries, never wipes.
        assert!(stats.evictions >= 1);
        assert_eq!(stats.entries, 2);

        // A batch larger than the capacity stays bounded too.
        let engine = PalEngine::with_cache_capacity(est, 1, 2);
        let queries: Vec<PalQuery> = (0..5u32)
            .map(|k| PalQuery::full(&AuditOrder::identity(2), &[f64::from(k) * 0.25, 1.0]))
            .collect();
        let batch = engine.pal_batch(&queries);
        assert_eq!(batch.len(), 5);
        assert!(engine.cache_stats().entries <= 2);

        // Uncached engine never stores anything but still answers.
        let uncached = PalEngine::uncached(est, 1);
        let a = uncached.pal(&AuditOrder::identity(2), &[1.0, 1.0]);
        let b = uncached.pal(&AuditOrder::identity(2), &[1.0, 1.0]);
        assert_eq!(a, b);
        let stats = uncached.cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.state_entries, 0);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_gauges() {
        let mut a = CacheStats {
            hits: 10,
            misses: 5,
            entries: 7,
            evictions: 1,
            state_entries: 3,
            state_hits: 2,
            state_evictions: 0,
            columns_evaluated: 100,
            columns_saved: 40,
        };
        let b = CacheStats {
            hits: 1,
            misses: 2,
            entries: 4,
            evictions: 3,
            state_entries: 9,
            state_hits: 5,
            state_evictions: 6,
            columns_evaluated: 10,
            columns_saved: 20,
        };
        a.absorb(&b);
        assert_eq!(a.hits, 11);
        assert_eq!(a.misses, 7);
        assert_eq!(a.evictions, 4);
        assert_eq!(a.state_hits, 7);
        assert_eq!(a.state_evictions, 6);
        assert_eq!(a.columns_evaluated, 110);
        assert_eq!(a.columns_saved, 60);
        // Gauges take the high-water mark, not a meaningless sum.
        assert_eq!(a.entries, 7);
        assert_eq!(a.state_entries, 9);
    }

    #[test]
    fn hot_entries_survive_eviction_pressure() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::with_cache_capacity(est, 1, 4);
        let hot = [0.25, 0.25];
        engine.pal(&AuditOrder::identity(2), &hot);
        for k in 1..24u32 {
            // Re-touch the hot entry between cold inserts.
            engine.pal(&AuditOrder::identity(2), &hot);
            let b = f64::from(k) * 0.125;
            engine.pal(&AuditOrder::identity(2), &[b, 0.0]);
        }
        let stats = engine.cache_stats();
        assert!(stats.evictions >= 1);
        // 24 hot lookups: 1 miss + 23 hits means it was never evicted.
        assert!(stats.hits >= 23, "hot entry was evicted: {stats:?}");
    }

    #[test]
    fn eviction_order_is_pinned() {
        // Both caches at tiny capacities, driven through evictions by a
        // fixed stream whose queries recur every other round: the counters
        // after every round and the path ids of the surviving prefix
        // states, in slot order, pin which entries the clock kept.
        let s = spec3(4.0);
        let bank = s.sample_bank(16, 2);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::with_capacities(est, 1, 4, 5);
        let grids = [[2.0, 3.0, 1.0], [1.0, 4.5, 0.5]];
        let mut trace = Vec::new();
        for round in 0..4 {
            let th = &grids[round % 2];
            for order in AuditOrder::enumerate_all(3) {
                engine.pal_prefix(&order.types()[..2], th);
                engine.pal(&order, th);
                engine.pal_prefix(&order.types()[..2], th);
            }
            let st = engine.cache_stats();
            trace.push([
                st.hits,
                st.misses,
                st.entries as u64,
                st.evictions,
                st.state_entries as u64,
                st.state_hits,
                st.state_evictions,
                st.columns_evaluated,
                st.columns_saved,
            ]);
        }
        assert_eq!(
            trace,
            [
                [6, 12, 4, 8, 5, 15, 4, 15, 15],
                [12, 24, 4, 20, 5, 30, 13, 30, 30],
                [18, 36, 4, 32, 5, 45, 22, 45, 45],
                [24, 48, 4, 44, 5, 60, 31, 60, 60],
            ]
        );
        let kept: Vec<PathId> = engine.states.borrow().iter().map(|(&id, _)| id).collect();
        let id = |steps: &[(usize, f64)]| {
            let steps = steps.iter().map(|&(t, b)| (t, b.to_bits()));
            engine.paths.borrow_mut().path(steps)
        };
        let inf = f64::INFINITY;
        assert_eq!(
            kept,
            [
                id(&[(2, 0.5), (0, 1.0)]),
                id(&[(1, inf), (2, 0.5)]),
                id(&[(2, 0.5)]),
                id(&[(2, 0.5), (1, inf)]),
                id(&[(1, inf), (0, 1.0)]),
            ]
        );
        // Which of the last round's full orders the estimate cache kept,
        // probed newest first.
        let survived: Vec<bool> = AuditOrder::enumerate_all(3)
            .iter()
            .rev()
            .map(|order| {
                let before = engine.cache_stats().hits;
                engine.pal(order, &grids[1]);
                engine.cache_stats().hits > before
            })
            .collect();
        assert_eq!(survived, [true, true, false, false, false, false]);
    }

    #[test]
    #[should_panic(expected = "repeats type")]
    fn engine_rejects_repeated_types_in_sequence() {
        // A duplicated type would silently diverge from the scalar path
        // (one column visit vs two row-walk visits), so it must panic.
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 1);
        engine.pal_prefix(&[0, 0], &[1.0, 1.0]);
    }

    #[test]
    fn engine_distinguishes_threshold_bit_patterns() {
        // 1.5 vs 1.0 thresholds floor to the same audit capacity but consume
        // different raw budget — the cache must key them apart (both are
        // below the type's saturation point of 2).
        let s = spec(2.5);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 1);
        let a = engine.pal(&AuditOrder::identity(2), &[1.0, 5.0]);
        let b = engine.pal(&AuditOrder::identity(2), &[1.5, 5.0]);
        assert_eq!(a, est.pal(&AuditOrder::identity(2), &[1.0, 5.0]));
        assert_eq!(b, est.pal(&AuditOrder::identity(2), &[1.5, 5.0]));
        assert_eq!(engine.cache_stats().entries, 2);
    }

    #[test]
    fn threshold_class_keys_separate_only_equivalent_vectors() {
        // B = 10 lies above every threshold these assertions tell apart,
        // so the count saturation point alone draws the class boundary.
        let s = spec(10.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 1);
        // Saturated coordinates collapse...
        assert_eq!(
            engine.threshold_class_key(&[5.0, 3.0]),
            engine.threshold_class_key(&[2.0, 97.5])
        );
        // ...but binding ones never do.
        assert_ne!(
            engine.threshold_class_key(&[1.0, 3.0]),
            engine.threshold_class_key(&[1.5, 3.0])
        );
        // Attack-inclusive needs one more unit of cap to saturate.
        let incl = DetectionEstimator::new(&s, &bank, DetectionModel::AttackInclusive);
        let engine = PalEngine::new(incl, 1);
        assert_ne!(
            engine.threshold_class_key(&[2.0, 4.0]),
            engine.threshold_class_key(&[3.0, 4.0])
        );
        assert_eq!(
            engine.threshold_class_key(&[3.0, 4.0]),
            engine.threshold_class_key(&[4.0, 4.0])
        );
    }

    #[test]
    fn thresholds_at_or_above_the_budget_share_a_class() {
        // B = 2: type-0 thresholds 2.0 and 3.0 both reach the budget, so
        // neither binds (attack-inclusive would need a cap of 3 to reach
        // count saturation) and every model gives identical `Pal`.
        let s = spec(2.0);
        let bank = bank_for(&s);
        for model in MODELS {
            let est = DetectionEstimator::new(&s, &bank, model);
            let engine = PalEngine::new(est, 1);
            assert_eq!(
                engine.threshold_class_key(&[2.0, 1.0]),
                engine.threshold_class_key(&[3.0, 1.0]),
                "model {model:?}"
            );
            for order in AuditOrder::enumerate_all(2) {
                assert_eq!(
                    est.pal(&order, &[2.0, 1.0]),
                    est.pal(&order, &[3.0, 1.0]),
                    "model {model:?}, order {order}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not be negative")]
    fn engine_rejects_negative_thresholds() {
        let s = spec(2.0);
        let bank = bank_for(&s);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        PalEngine::new(est, 1).pal_prefix(&[0], &[1.0, -1.0]);
    }
}
