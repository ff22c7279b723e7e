//! The type-cluster decomposed inner evaluator and its parallel
//! best-response pricing.
//!
//! The exact inner evaluator materializes all `|T|!` order columns; CGGS
//! prices them one greedy column per master iteration. At 20–50 types
//! the former is impossible and the latter's *outer* caller (ISHM)
//! still evaluates thousands of candidate thresholds. The decomposed
//! evaluator splits the difference:
//!
//! * **Block pool** — enumerate orders *within* each workload cluster
//!   (≤ `k!` permutations each, `k` = cluster size) against the fixed
//!   canonical cross-cluster spine ([`decomposed_pool`]). For 50 types
//!   that is ~100 columns instead of `50!`, and the master LP over them
//!   is exact for the decomposition.
//! * **Memoized pool evaluation** — the evaluator holds an
//!   [`ExactEvaluator`] over the block pool: `evaluate` and `prime`
//!   delegate to it, so the master runs over the block pool only,
//!   memoized by the engine's canonical threshold class, and `prime`
//!   batches whole ISHM sweep frontiers through one prefix-trie pass.
//! * **Binding-cluster refinement** — `solve_full` (ISHM calls it once,
//!   at the accepted optimum) re-prices: rank clusters by their
//!   `y`-weighted detection mass, run a multi-start greedy
//!   best-response from each of the top (binding) clusters, and admit
//!   improving columns for up to [`REFINE_ROUNDS`] master re-solves.
//!   Candidate scoring fans out through
//!   [`parallel_map_indexed`] — pure arithmetic on already-computed
//!   `Pal` vectors, chunked by candidate index and merged back in index
//!   order, so results are bit-identical at every thread count.
//!
//! At ≤ [`EXACT_MAX_TYPES`](super::EXACT_MAX_TYPES) types the pool *is*
//! the full enumeration and refinement is skipped, so the evaluator is
//! `ExactEvaluator` itself — the agreement tests assert bit-identity
//! there.

use super::{TypeClusters, DEFAULT_CLUSTER_SIZE, EXACT_MAX_TYPES};
use crate::cggs::{detection_weights, score_from_pal};
use crate::detection::{DetectionEstimator, PalEngine, PalQuery};
use crate::error::GameError;
use crate::ishm::{ExactEvaluator, ThresholdEvaluator};
use crate::master::{MasterSolution, MasterSolver};
use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use crate::parallel::parallel_map_indexed;
use std::collections::HashSet;

/// Master re-solve rounds the refinement may spend admitting new columns.
pub const REFINE_ROUNDS: usize = 3;

/// Binding clusters (ranked by `y`-weighted detection mass) seeding
/// greedy restarts per refinement round.
const MAX_STARTS: usize = 4;

/// A refinement column must beat the incumbent master value by this much
/// to be admitted (mirrors the CGGS reduced-cost tolerance).
const REFINE_TOL: f64 = 1e-7;

/// All permutations of `items` in lexicographic position order (Heap's
/// algorithm would scramble determinism guarantees for no gain at these
/// sizes). Falls back to the `len` rotations when the slice is too long
/// to enumerate — clusters built with [`DEFAULT_CLUSTER_SIZE`] never hit
/// the fallback.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    const MAX_ENUMERATED: usize = 6; // 6! = 720 columns, already generous
    if items.len() > MAX_ENUMERATED {
        return (0..items.len())
            .map(|r| {
                let mut rot = items[r..].to_vec();
                rot.extend_from_slice(&items[..r]);
                rot
            })
            .collect();
    }
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(items.len());
    let mut used = vec![false; items.len()];
    fn recurse(
        items: &[usize],
        used: &mut [bool],
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == items.len() {
            out.push(current.clone());
            return;
        }
        for i in 0..items.len() {
            if !used[i] {
                used[i] = true;
                current.push(items[i]);
                recurse(items, used, current, out);
                current.pop();
                used[i] = false;
            }
        }
    }
    recurse(items, &mut used, &mut current, &mut out);
    out
}

/// The block column pool of a clustered decomposition: for every cluster,
/// every within-cluster permutation spliced in front of the remaining
/// clusters' canonical spine. The canonical order itself is the identity
/// permutation of the first cluster, so it is always present. Columns are
/// deduplicated; the pool size is `Σ_c |c|!` (minus overlaps) — ~50
/// columns at 25 types, ~100 at 50.
pub fn decomposed_pool(spec: &GameSpec, clusters: &TypeClusters) -> Vec<AuditOrder> {
    let _ = spec.n_types(); // the clusters came from this spec
    let mut pool: Vec<AuditOrder> = Vec::new();
    for (ci, cluster) in clusters.iter().enumerate() {
        let rest: Vec<usize> = clusters
            .iter()
            .enumerate()
            .filter(|(cj, _)| *cj != ci)
            .flat_map(|(_, c)| c.iter().copied())
            .collect();
        for perm in permutations(cluster) {
            let mut col = perm;
            col.extend_from_slice(&rest);
            let order = AuditOrder::new(col).expect("block column is a permutation");
            if !pool.contains(&order) {
                pool.push(order);
            }
        }
    }
    pool
}

/// Inner evaluator for wide-type games: master LP over the clustered
/// block pool, memoized per canonical threshold class, with
/// binding-cluster best-response refinement at `solve_full`. See the
/// module docs for the full contract; the headline properties are
/// (1) bit-identity with [`ExactEvaluator`] at ≤ [`EXACT_MAX_TYPES`]
/// types and (2) thread-count invariance everywhere.
pub struct DecomposedEvaluator<'a> {
    spec: &'a GameSpec,
    /// The fixed-pool evaluator over the block pool (plus admitted seeds).
    pool: ExactEvaluator<'a>,
    clusters: TypeClusters,
    exhaustive: bool,
}

impl<'a> DecomposedEvaluator<'a> {
    /// Build for `spec` with `threads` workers (engine batches and
    /// refinement scoring both use them). `seed_columns` — typically a
    /// warm start's incumbent basis — are appended to the block pool when
    /// feasible and fresh; an empty seed list is bit-identical to a cold
    /// build. At ≤ [`EXACT_MAX_TYPES`] types the pool is the full order
    /// enumeration (seeds are then redundant by construction and skipped)
    /// and refinement never runs.
    pub fn new(
        spec: &'a GameSpec,
        est: DetectionEstimator<'a>,
        threads: usize,
        seed_columns: Vec<AuditOrder>,
    ) -> Self {
        let n = spec.n_types();
        let exhaustive = n <= EXACT_MAX_TYPES;
        let clusters = TypeClusters::build(spec, DEFAULT_CLUSTER_SIZE);
        let mut pool = if exhaustive {
            AuditOrder::enumerate_all(n)
        } else {
            decomposed_pool(spec, &clusters)
        };
        if !exhaustive {
            for seed in seed_columns {
                if seed.len() == n && !pool.contains(&seed) {
                    pool.push(seed);
                }
            }
        }
        Self {
            spec,
            pool: ExactEvaluator::over_pool(spec, est, threads, pool),
            clusters,
            exhaustive,
        }
    }

    /// The engine backing this evaluator.
    pub fn engine(&self) -> &PalEngine<'a> {
        self.pool.engine()
    }

    /// The current column pool (block columns plus admitted seeds).
    pub fn pool(&self) -> &[AuditOrder] {
        self.pool.orders()
    }

    /// Multi-start greedy best-response columns for the refinement: one
    /// greedy construction per binding cluster (top [`MAX_STARTS`] by
    /// `y`-weighted detection mass, ties by cluster index), each forced
    /// to open with its start cluster's types before greedily completing
    /// over the rest. Per greedy step the candidate extensions are
    /// `Pal`-batched through the trie on the calling thread, then their
    /// gains are scored concurrently and arg-maxed in index order.
    fn refine_candidates(&self, w: &[f64], thresholds: &[f64]) -> Vec<AuditOrder> {
        let mut ranked: Vec<usize> = (0..self.clusters.len()).collect();
        let cluster_w: Vec<f64> = self
            .clusters
            .iter()
            .map(|c| c.iter().map(|&t| w[t]).sum())
            .collect();
        ranked.sort_by(|&a, &b| {
            cluster_w[b]
                .partial_cmp(&cluster_w[a])
                .expect("detection weights are finite")
                .then(a.cmp(&b))
        });
        ranked.truncate(MAX_STARTS);
        let mut out: Vec<AuditOrder> = Vec::new();
        for &ci in &ranked {
            let col = self.greedy_from_cluster(ci, w, thresholds);
            if !out.contains(&col) {
                out.push(col);
            }
        }
        out
    }

    /// One greedy best-response construction whose first picks are
    /// restricted to cluster `start` (until it is exhausted), mirroring
    /// the CGGS pricing oracle otherwise: each appended position
    /// maximizes the marginal weighted detection mass `w_t·Pal(o,t)`,
    /// first-wins on ties beyond `1e-15`.
    fn greedy_from_cluster(&self, start: usize, w: &[f64], thresholds: &[f64]) -> AuditOrder {
        let n = self.spec.n_types();
        let members: HashSet<usize> = self.clusters.clusters()[start].iter().copied().collect();
        let mut prefix: Vec<usize> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let mut cluster_left = members.len();
        for _ in 0..n {
            let candidates: Vec<usize> = (0..n)
                .filter(|&t| !placed[t] && (cluster_left == 0 || members.contains(&t)))
                .collect();
            let queries: Vec<PalQuery> = candidates
                .iter()
                .map(|&t| {
                    let mut trial = Vec::with_capacity(prefix.len() + 1);
                    trial.extend_from_slice(&prefix);
                    trial.push(t);
                    PalQuery {
                        seq: trial,
                        thresholds: thresholds.to_vec(),
                    }
                })
                .collect();
            let pals = self.engine().pal_batch(&queries);
            // Pure arithmetic over the already-computed Pal vectors:
            // parallel by candidate index, merged positionally.
            let gains = parallel_map_indexed(self.engine().threads(), &candidates, |i, &t| {
                w[t] * pals[i][t]
            });
            let mut best: Option<(usize, f64)> = None;
            for (&t, &gain) in candidates.iter().zip(&gains) {
                if best.map(|(_, g)| gain > g + 1e-15).unwrap_or(true) {
                    best = Some((t, gain));
                }
            }
            let (t, _) = best.expect("some type is always placeable");
            placed[t] = true;
            if members.contains(&t) {
                cluster_left -= 1;
            }
            prefix.push(t);
        }
        AuditOrder::new(prefix).expect("greedy construction yields a permutation")
    }
}

impl ThresholdEvaluator for DecomposedEvaluator<'_> {
    fn evaluate(&mut self, thresholds: &[f64]) -> Result<f64, GameError> {
        self.pool.evaluate(thresholds)
    }

    fn solve_full(
        &mut self,
        thresholds: &[f64],
    ) -> Result<(MasterSolution, Vec<AuditOrder>), GameError> {
        let mut matrix = self.pool.matrix(thresholds);
        let mut sol = MasterSolver::solve(self.spec, &matrix)?;
        if self.exhaustive {
            return Ok((sol, matrix.orders));
        }
        // Binding-cluster refinement: admit improving best-response
        // columns, re-solve, repeat while progress lasts. The admitted
        // columns only grow the pool the master optimizes over, so the
        // value is monotone non-increasing round over round.
        let spec = self.spec;
        let engine = self.engine();
        for _ in 0..REFINE_ROUNDS {
            let w = detection_weights(spec, &sol.y_actions);
            let candidates = self.refine_candidates(&w, thresholds);
            let queries: Vec<PalQuery> = candidates
                .iter()
                .map(|o| PalQuery::full(o, thresholds))
                .collect();
            let pals = engine.pal_batch(&queries);
            let y = &sol.y_actions;
            let scores = parallel_map_indexed(engine.threads(), &pals, |_, pal| {
                score_from_pal(spec, pal, y)
            });
            let mut admitted = false;
            for (o, f) in candidates.into_iter().zip(scores) {
                if f < sol.value - REFINE_TOL && !matrix.orders.contains(&o) {
                    matrix.push_order_with_engine(spec, engine, o, thresholds);
                    admitted = true;
                }
            }
            if !admitted {
                break;
            }
            sol = MasterSolver::solve(spec, &matrix)?;
        }
        Ok((sol, matrix.orders))
    }

    fn prime(&mut self, candidates: &[Vec<f64>]) -> Result<(), GameError> {
        self.pool.prime(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::ishm::{ExactEvaluator, Ishm, IshmConfig};
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::{Constant, DiscretizedGaussian};

    fn spec_of(n_types: usize, budget: f64) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let ts: Vec<usize> = (0..n_types)
            .map(|i| {
                if i % 2 == 0 {
                    b.alert_type(
                        format!("t{i}"),
                        1.0,
                        Arc::new(DiscretizedGaussian::with_halfwidth(2.0, 1.0, 2)),
                    )
                } else {
                    b.alert_type(format!("t{i}"), 1.0, Arc::new(Constant(1 + (i % 3) as u64)))
                }
            })
            .collect();
        for (i, &t) in ts.iter().enumerate() {
            b.attacker(Attacker::new(
                format!("e{i}"),
                1.0,
                vec![AttackAction::deterministic(
                    format!("v{i}"),
                    t,
                    4.0 + i as f64,
                    0.4,
                    3.0,
                )],
            ));
        }
        b.budget(budget);
        b.build().unwrap()
    }

    #[test]
    fn permutations_enumerate_exactly() {
        assert_eq!(permutations(&[7]).len(), 1);
        assert_eq!(permutations(&[1, 2]).len(), 2);
        let p3 = permutations(&[4, 5, 6]);
        assert_eq!(p3.len(), 6);
        assert!(p3.contains(&vec![6, 4, 5]));
        // Past the enumeration cap: rotations only.
        let wide: Vec<usize> = (0..8).collect();
        assert_eq!(permutations(&wide).len(), 8);
    }

    #[test]
    fn block_pool_covers_each_cluster_permutation() {
        let spec = spec_of(7, 3.0);
        let clusters = TypeClusters::build(&spec, 3);
        let pool = decomposed_pool(&spec, &clusters);
        // 3 clusters of sizes 3/3/1 → 6 + 6 + 1 perms, canonical overlaps
        // each cluster's identity column twice.
        assert!(pool.len() >= 11 && pool.len() <= 13, "got {}", pool.len());
        for o in &pool {
            assert_eq!(o.len(), 7);
        }
        let canonical = AuditOrder::new(clusters.canonical_order()).unwrap();
        assert!(pool.contains(&canonical));
    }

    #[test]
    fn exhaustive_path_is_bit_identical_to_exact_evaluator() {
        let spec = spec_of(3, 2.0);
        let bank = spec.sample_bank(200, 5);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut exact = ExactEvaluator::with_threads(&spec, est, 2);
        let mut dec = DecomposedEvaluator::new(&spec, est, 2, Vec::new());
        let ishm = Ishm::new(IshmConfig::default());
        let a = ishm.solve(&spec, &mut exact).unwrap();
        let b = ishm.solve(&spec, &mut dec).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.thresholds, b.thresholds);
        assert_eq!(a.master.p_orders, b.master.p_orders);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.stats.thresholds_explored, b.stats.thresholds_explored);
    }

    #[test]
    fn wide_solve_is_thread_count_invariant() {
        let spec = spec_of(9, 4.0);
        let bank = spec.sample_bank(60, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let ishm = Ishm::new(IshmConfig {
            epsilon: 0.5,
            max_level: Some(1),
            ..Default::default()
        });
        let mut base = DecomposedEvaluator::new(&spec, est, 1, Vec::new());
        let out1 = ishm.solve(&spec, &mut base).unwrap();
        for threads in [2usize, 4] {
            let mut eval = DecomposedEvaluator::new(&spec, est, threads, Vec::new());
            let out = ishm.solve(&spec, &mut eval).unwrap();
            assert_eq!(out1.value.to_bits(), out.value.to_bits());
            assert_eq!(out1.thresholds, out.thresholds);
            assert_eq!(out1.master.p_orders, out.master.p_orders);
            assert_eq!(out1.orders, out.orders);
        }
    }

    #[test]
    fn refinement_never_worsens_the_pool_only_value() {
        let spec = spec_of(8, 4.0);
        let bank = spec.sample_bank(60, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut eval = DecomposedEvaluator::new(&spec, est, 2, Vec::new());
        let thresholds = spec.threshold_upper_bounds();
        let pool_only = eval.evaluate(&thresholds).unwrap();
        let (refined, orders) = eval.solve_full(&thresholds).unwrap();
        assert!(
            refined.value <= pool_only + 1e-9,
            "refined {} > pool-only {pool_only}",
            refined.value
        );
        assert!(orders.len() >= eval.pool().len());
    }

    #[test]
    fn empty_seed_pool_is_bit_identical_to_cold_build() {
        let spec = spec_of(8, 4.0);
        let bank = spec.sample_bank(50, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let thresholds = spec.threshold_upper_bounds();
        let mut cold = DecomposedEvaluator::new(&spec, est, 2, Vec::new());
        let mut seeded = DecomposedEvaluator::new(&spec, est, 2, Vec::new());
        let a = cold.solve_full(&thresholds).unwrap();
        let b = seeded.solve_full(&thresholds).unwrap();
        assert_eq!(a.0.value.to_bits(), b.0.value.to_bits());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn feasible_seeds_join_the_pool_and_infeasible_are_skipped() {
        let spec = spec_of(8, 4.0);
        let bank = spec.sample_bank(50, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let cold = DecomposedEvaluator::new(&spec, est, 1, Vec::new());
        let fresh: AuditOrder = {
            // Reverse of the canonical order: certainly a valid column and
            // (given ≥2 clusters) not a block column.
            let mut rev = cold.pool()[0].types().to_vec();
            rev.reverse();
            AuditOrder::new(rev).unwrap()
        };
        let seeded = DecomposedEvaluator::new(
            &spec,
            est,
            1,
            vec![
                fresh.clone(),
                fresh.clone(),                        // duplicate
                AuditOrder::new(vec![0, 1]).unwrap(), // wrong arity
                cold.pool()[0].clone(),               // already pooled
            ],
        );
        assert_eq!(seeded.pool().len(), cold.pool().len() + 1);
        assert_eq!(
            seeded
                .pool()
                .iter()
                .filter(|o| o.types() == fresh.types())
                .count(),
            1
        );
    }
}
