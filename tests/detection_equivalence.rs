//! Differential tests of the batched `PalEngine` against the legacy scalar
//! `pal` path.
//!
//! The engine promises more than statistical agreement: because work is
//! split by trie subtree (never by sample row) and every prefix
//! accumulates in a fixed order through the shared per-sample kernel, its
//! results are **bit-identical** to `DetectionEstimator::pal` /
//! `pal_prefix` for every query, at every thread count — including
//! everything the incremental layers reorganize: prefix-trie sharing,
//! commutative path folding, cross-batch prefix states, saturation
//! classing, single-coordinate sweeps, and counts beyond 32 bits. These
//! tests enforce exact `==` on the returned `f64` vectors — no tolerances
//! anywhere.

use alert_audit::game::cggs::CggsConfig;
use alert_audit::game::datasets::{random_game, RandomGameConfig};
use alert_audit::game::detection::{
    CacheStats, DetectionEstimator, DetectionModel, PalEngine, PalQuery,
};
use alert_audit::game::ishm::{
    CggsEvaluator, ExactEvaluator, Ishm, IshmConfig, ThresholdEvaluator,
};
use alert_audit::game::model::GameSpec;
use alert_audit::game::ordering::AuditOrder;
use stochastics::SampleBank;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const MODELS: [DetectionModel; 3] = [
    DetectionModel::PaperApprox,
    DetectionModel::AttackInclusive,
    DetectionModel::Operational,
];

fn cfg(n_types: usize, budget: f64) -> RandomGameConfig {
    RandomGameConfig {
        n_types,
        n_attackers: 3,
        n_victims: 5,
        budget,
        allow_opt_out: false,
        benign_prob: 0.15,
    }
}

/// Deterministic threshold grids for a seed: integral, fractional, zero,
/// and oversized entries — every code path of the recourse formula.
fn threshold_grids(n_types: usize, seed: u64) -> Vec<Vec<f64>> {
    let base = (seed % 5) as f64;
    vec![
        vec![base + 1.0; n_types],
        (0..n_types).map(|t| t as f64 * 0.5).collect(),
        (0..n_types)
            .map(|t| if t % 2 == 0 { 0.0 } else { 10.0 + base })
            .collect(),
        (0..n_types).map(|t| 1.5 + t as f64 * 0.25).collect(),
    ]
}

/// Every policy the solvers can ask about on a small game: all full
/// orders plus every prefix of each, for each threshold grid.
fn all_queries(n_types: usize, seed: u64) -> Vec<PalQuery> {
    let mut queries = Vec::new();
    for thresholds in threshold_grids(n_types, seed) {
        for order in AuditOrder::enumerate_all(n_types) {
            for len in 0..=n_types {
                queries.push(PalQuery::prefix(&order.types()[..len], &thresholds));
            }
        }
    }
    queries
}

/// Bank sizes around the engine's 64-sample column block: a lone
/// sample, one short block, one full block, a full block plus a
/// one-sample tail, and many blocks with a 40-sample tail.
const BANK_SIZES: [usize; 5] = [1, 63, 64, 65, 1000];

#[test]
fn engine_is_bit_identical_to_scalar_path_on_random_games() {
    for seed in 0..8u64 {
        let n_types = 2 + (seed % 3) as usize; // 2, 3, or 4 types
        let spec = random_game(&cfg(n_types, 3.0 + seed as f64), seed);
        let queries = all_queries(n_types, seed);
        for n_samples in BANK_SIZES {
            let bank = spec.sample_bank(n_samples, seed ^ 0xC0FFEE);
            for model in MODELS {
                let est = DetectionEstimator::new(&spec, &bank, model);
                let want: Vec<Vec<f64>> = queries
                    .iter()
                    .map(|q| est.pal_prefix(&q.seq, &q.thresholds))
                    .collect();
                for threads in THREAD_COUNTS {
                    let engine = PalEngine::new(est, threads);
                    let batch = engine.pal_batch(&queries);
                    for ((q, got), want) in queries.iter().zip(&batch).zip(&want) {
                        assert_eq!(
                            got, want,
                            "seed {seed}, {n_samples} samples, model {model:?}, \
                             threads {threads}, query {q:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn full_order_queries_match_legacy_pal_exactly() {
    for seed in 0..6u64 {
        let spec = random_game(&cfg(3, 4.0), seed);
        let bank = spec.sample_bank(100, seed);
        for model in MODELS {
            let est = DetectionEstimator::new(&spec, &bank, model);
            for threads in THREAD_COUNTS {
                let engine = PalEngine::new(est, threads);
                for order in AuditOrder::enumerate_all(3) {
                    for thresholds in threshold_grids(3, seed) {
                        assert_eq!(
                            engine.pal(&order, &thresholds),
                            est.pal(&order, &thresholds),
                            "seed {seed}, model {model:?}, threads {threads}, order {order}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batch_results_are_independent_of_thread_count() {
    let spec = random_game(&cfg(4, 6.0), 99);
    let bank = spec.sample_bank(256, 7);
    let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
    let queries = all_queries(4, 99);
    let reference = PalEngine::new(est, 1).pal_batch(&queries);
    for threads in [2usize, 3, 4, 8] {
        let engine = PalEngine::new(est, threads);
        assert_eq!(
            engine.pal_batch(&queries),
            reference,
            "threads {threads} diverged"
        );
    }
}

/// A small deterministic policy set for games too large to enumerate all
/// `|T|!` orders: the identity order, its reverse, every rotation of the
/// identity, plus every prefix of the first three. Rotations guarantee
/// each type appears in the lead position (exercising trie roots) and the
/// prefixes exercise partial sequences.
fn probe_queries(n_types: usize, thresholds: &[f64]) -> Vec<PalQuery> {
    let identity: Vec<usize> = (0..n_types).collect();
    let reverse: Vec<usize> = identity.iter().rev().copied().collect();
    let mut seqs: Vec<Vec<usize>> = vec![identity.clone(), reverse];
    for r in 1..n_types {
        let mut rot = identity.clone();
        rot.rotate_left(r);
        seqs.push(rot);
    }
    let mut queries = Vec::new();
    for seq in seqs.iter().take(3) {
        for len in 0..=seq.len() {
            queries.push(PalQuery::prefix(&seq[..len], thresholds));
        }
    }
    for seq in seqs.iter().skip(3) {
        queries.push(PalQuery::prefix(seq, thresholds));
    }
    queries
}

#[test]
fn trie_batch_matches_scalar_on_all_registry_scenarios() {
    // The full cross-solver net runs on every scenario in the registry:
    // real-data shapes (mixed audit costs, empirical count models, joint
    // correlated samplers) exercise every branch of the trie evaluator —
    // folding on/off, saturation classing with bank-max below the support
    // max.
    let reg = alert_audit::scenario::registry();
    for sc in reg.iter() {
        let spec = sc.build_small(7).expect("scenario builds");
        let bank = spec.sample_bank(32, 11);
        let n = spec.n_types();
        let upper = spec.threshold_upper_bounds();
        let grids: Vec<Vec<f64>> = vec![
            upper.iter().map(|&u| (u * 0.4).floor()).collect(),
            upper
                .iter()
                .enumerate()
                .map(|(t, &u)| if t % 2 == 0 { 0.0 } else { u * 2.0 })
                .collect(),
            upper.iter().map(|&u| (u * 0.75).floor() + 0.5).collect(),
        ];
        for model in MODELS {
            let est = DetectionEstimator::new(&spec, &bank, model);
            for threads in THREAD_COUNTS {
                let engine = PalEngine::new(est, threads);
                for thresholds in &grids {
                    let queries = probe_queries(n, thresholds);
                    let batch = engine.pal_batch(&queries);
                    for (q, got) in queries.iter().zip(&batch) {
                        assert_eq!(
                            got,
                            &est.pal_prefix(&q.seq, &q.thresholds),
                            "scenario {}, model {model:?}, threads {threads}, seq {:?}",
                            sc.key(),
                            q.seq
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sweep_matches_per_candidate_loop_on_random_games() {
    for seed in 0..6u64 {
        let n_types = 2 + (seed % 3) as usize;
        let spec = random_game(&cfg(n_types, 4.0 + seed as f64), seed);
        let bank = spec.sample_bank(64, seed);
        // Candidate grid mixing duplicates, fractional values, zero, and a
        // saturated tail.
        let candidates: Vec<f64> = vec![0.0, 1.0, 2.5, 1.0, 0.75, 40.0, 4.0, 40.0];
        for model in MODELS {
            let est = DetectionEstimator::new(&spec, &bank, model);
            for threads in THREAD_COUNTS {
                let engine = PalEngine::new(est, threads);
                for base in threshold_grids(n_types, seed) {
                    for order in AuditOrder::enumerate_all(n_types).iter().take(3) {
                        for coord in 0..n_types {
                            // One batch per coordinate: the candidates are
                            // siblings of one trie level.
                            let queries: Vec<PalQuery> = candidates
                                .iter()
                                .map(|&v| {
                                    let mut th = base.clone();
                                    th[coord] = v;
                                    PalQuery::full(order, &th)
                                })
                                .collect();
                            let swept = engine.pal_batch(&queries);
                            for ((q, got), &v) in queries.iter().zip(&swept).zip(&candidates) {
                                assert_eq!(
                                    got,
                                    &est.pal(order, &q.thresholds),
                                    "seed {seed}, model {model:?}, threads {threads}, \
                                     coord {coord}, v {v}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn counts_above_u32_match_the_scalar_reference() {
    // The bank holds every count as a `u64`: one beyond `u32::MAX` flows
    // through the engine's column passes exactly as the scalar path reads
    // it.
    let spec = random_game(&cfg(2, 5.0), 3);
    let bank = SampleBank::from_rows(vec![
        vec![2, 3],
        vec![0, 7],
        vec![u64::from(u32::MAX) + 9, 1],
        vec![4, 4],
    ]);
    for model in MODELS {
        let est = DetectionEstimator::new(&spec, &bank, model);
        for threads in THREAD_COUNTS {
            let engine = PalEngine::new(est, threads);
            let queries = probe_queries(2, &[1.5, 6.0]);
            let batch = engine.pal_batch(&queries);
            for (q, got) in queries.iter().zip(&batch) {
                assert_eq!(
                    got,
                    &est.pal_prefix(&q.seq, &q.thresholds),
                    "model {model:?}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn cross_batch_prefix_states_replay_scalar_results() {
    // Drive the engine the way CGGS does — prefix trials, then their
    // extensions, across several calls — and then the way ISHM does —
    // single-coordinate perturbed full frontiers — asserting exact
    // equality throughout, so the prefix-state cache can never leak an
    // approximation.
    let spec = random_game(&cfg(4, 6.0), 21);
    let bank = spec.sample_bank(128, 2);
    for model in MODELS {
        let est = DetectionEstimator::new(&spec, &bank, model);
        let engine = PalEngine::new(est, 2);
        let base = vec![2.0, 3.0, 1.5, 4.0];
        // CGGS shape: greedy prefix growth.
        let mut prefix: Vec<usize> = Vec::new();
        for t in [2usize, 0, 3, 1] {
            let trials: Vec<PalQuery> = (0..4)
                .filter(|x| !prefix.contains(x))
                .map(|x| {
                    let mut s = prefix.clone();
                    s.push(x);
                    PalQuery::prefix(&s, &base)
                })
                .collect();
            for (q, got) in trials.iter().zip(engine.pal_batch(&trials)) {
                assert_eq!(
                    got,
                    est.pal_prefix(&q.seq, &q.thresholds),
                    "model {model:?}"
                );
            }
            prefix.push(t);
        }
        // ISHM shape: coordinate-perturbed frontiers over all orders.
        for coord in 0..4 {
            for shrink in [0.9, 0.5, 0.0] {
                let mut th = base.clone();
                th[coord] = (th[coord] * shrink).floor();
                let queries: Vec<PalQuery> = AuditOrder::enumerate_all(4)
                    .iter()
                    .map(|o| PalQuery::full(o, &th))
                    .collect();
                for (q, got) in queries.iter().zip(engine.pal_batch(&queries)) {
                    assert_eq!(
                        got,
                        est.pal_prefix(&q.seq, &q.thresholds),
                        "model {model:?}, coord {coord}, shrink {shrink}"
                    );
                }
            }
        }
        let stats = engine.cache_stats();
        assert!(
            stats.state_hits > 0,
            "prefix states never engaged: {stats:?}"
        );
        assert!(stats.columns_saved > 0);
    }
}

#[test]
fn thresholds_at_or_above_the_budget_are_served_from_the_caches() {
    // A threshold at or above the period budget B can never bind, so
    // moving every such coordinate to another value ≥ B changes no `Pal`
    // and no cache key. Both values stay below the count-saturation point,
    // so only the budget rule puts them in one class.
    const B: f64 = 2.0;
    let lift = |b: f64| if b >= B { b + 0.5 } else { b };
    for seed in 0..4u64 {
        let n_types = 3 + (seed % 2) as usize;
        let spec = random_game(&cfg(n_types, B), seed);
        let bank = spec.sample_bank(64, seed ^ 0xB0B);
        let grids: Vec<Vec<f64>> = vec![
            vec![B; n_types],
            (0..n_types)
                .map(|t| if t % 2 == 0 { B + 0.25 } else { 0.5 * t as f64 })
                .collect(),
            (0..n_types)
                .map(|t| [1.5, B, 0.0, B + 0.25][t % 4])
                .collect(),
        ];
        for t in 0..n_types {
            let highest = lift(B + 0.25);
            assert!(
                highest.floor() < bank.max_count(t) as f64,
                "seed {seed}: type {t} would saturate by count"
            );
        }
        let queries_over = |lifted: bool| -> Vec<PalQuery> {
            let mut queries = Vec::new();
            for grid in &grids {
                let thresholds: Vec<f64> = if lifted {
                    grid.iter().map(|&b| lift(b)).collect()
                } else {
                    grid.clone()
                };
                for order in AuditOrder::enumerate_all(n_types) {
                    for len in 1..=n_types {
                        queries.push(PalQuery::prefix(&order.types()[..len], &thresholds));
                    }
                }
            }
            queries
        };
        let (first, second) = (queries_over(false), queries_over(true));
        for model in MODELS {
            let est = DetectionEstimator::new(&spec, &bank, model);
            for threads in THREAD_COUNTS {
                let engine = PalEngine::new(est, threads);
                let check = |queries: &[PalQuery]| {
                    for (q, got) in queries.iter().zip(engine.pal_batch(queries)) {
                        assert_eq!(
                            got,
                            est.pal_prefix(&q.seq, &q.thresholds),
                            "seed {seed}, model {model:?}, threads {threads}, query {q:?}"
                        );
                    }
                };
                check(&first);
                let evaluated = engine.cache_stats().columns_evaluated;
                check(&second);
                assert_eq!(
                    engine.cache_stats().columns_evaluated,
                    evaluated,
                    "seed {seed}, model {model:?}, threads {threads}: the lifted grid \
                     evaluated columns"
                );
            }
        }
    }
}

#[test]
fn cache_hits_replay_the_exact_first_answer() {
    let spec = random_game(&cfg(3, 5.0), 11);
    let bank = spec.sample_bank(128, 3);
    let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
    let engine = PalEngine::new(est, 2);
    let queries = all_queries(3, 11);
    let cold = engine.pal_batch(&queries);
    let warm = engine.pal_batch(&queries);
    assert_eq!(cold, warm);
    let stats = engine.cache_stats();
    assert_eq!(stats.hits as usize, queries.len());
    assert_eq!(stats.misses as usize, queries.len());
    // Not every query is distinct (prefixes repeat across orders), so the
    // cache holds fewer entries than the batch had queries.
    assert!(stats.entries < queries.len());
}

/// Run ISHM over `eval` and return its engine's counters.
fn ishm_counters<E: ThresholdEvaluator>(
    spec: &GameSpec,
    epsilon: f64,
    mut eval: E,
    stats: impl Fn(&E) -> CacheStats,
) -> CacheStats {
    let ishm = Ishm::new(IshmConfig {
        epsilon,
        ..Default::default()
    });
    ishm.solve(spec, &mut eval).expect("fixture solves");
    stats(&eval)
}

#[test]
fn engine_counters_are_pinned() {
    // Every lookup, hit, eviction and column pass the engine performs is a
    // deterministic function of its query stream, so whole-solve counters
    // are pinned exactly: a change to the engine's keys or bookkeeping
    // that alters its work shows up here, even when every result bit
    // stays the same.
    let reg = alert_audit::scenario::registry();
    let paper = reg.build("syn-a-b6", 0).unwrap().dedup_actions();
    let bank = paper.sample_bank(200, 3);
    let est = DetectionEstimator::new(&paper, &bank, DetectionModel::PaperApprox);
    for threads in [1usize, 2] {
        let stats = ishm_counters(
            &paper,
            0.2,
            ExactEvaluator::with_threads(&paper, est, threads),
            |e| e.engine().cache_stats(),
        );
        assert_eq!(
            stats,
            CacheStats {
                hits: 1392,
                misses: 1560,
                entries: 1560,
                evictions: 0,
                state_entries: 621,
                state_hits: 986,
                state_evictions: 0,
                columns_evaluated: 1401,
                columns_saved: 4839,
            },
            "syn-a-b6, threads {threads}"
        );
    }
    let rea = reg.build("emr-reaa", 0).unwrap().dedup_actions();
    let bank = rea.sample_bank(40, 5);
    let est = DetectionEstimator::new(&rea, &bank, DetectionModel::PaperApprox);
    let stats = ishm_counters(
        &rea,
        0.5,
        CggsEvaluator::new(&rea, est, CggsConfig::default()),
        |e| e.engine().cache_stats(),
    );
    assert_eq!(
        stats,
        CacheStats {
            hits: 10548,
            misses: 1992,
            entries: 1992,
            evictions: 0,
            state_entries: 1205,
            state_hits: 5874,
            state_evictions: 0,
            columns_evaluated: 1630,
            columns_saved: 8419,
        },
        "emr-reaa"
    );
}
