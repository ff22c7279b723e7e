//! Column Generation Greedy Search (paper Algorithm 1).
//!
//! The master LP over all `|T|!` orderings is intractable to materialize,
//! but only a small basis of orderings carries probability at the optimum.
//! CGGS iterates:
//!
//! 1. solve the master restricted to the current column set `Q` and read
//!    the attacker mixture `π_Q = y` off it (Algorithm 1, line 3);
//! 2. search for a new ordering with negative reduced cost — i.e. one whose
//!    attacker utility against `y` is *below* the current value `μ`;
//! 3. the pricing subproblem is itself hard, so a **greedy** oracle builds
//!    the ordering one type at a time, each step appending the type that
//!    most increases the `y`-weighted detection mass (line 6);
//! 4. stop when the best candidate no longer improves (reduced cost ≥ 0).
//!
//! Because `U_a` is affine in the detection probabilities, the candidate
//! score decomposes as `f(o) = const − Σ_t w_t·Pal(o,b,t)` with
//! `w_t = Σ_ev y_ev·(M+R)_ev·P^t_ev ≥ 0`, so the greedy step only needs the
//! *marginal* detection mass of the appended type — and a type's `Pal`
//! depends only on its predecessors, making the extension incremental.
//!
//! The loop (`generate_columns`) and the oracle (`greedy_order`) are
//! crate-level functions: the planner's decomposed refinement runs the
//! same loop, pricing with the same oracle from several starts.

use crate::detection::{DetectionEstimator, PalEngine, PalQuery};
use crate::error::GameError;
use crate::master::{MasterMemo, MasterSolution};
use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use crate::payoff::{action_utility, PayoffMatrix};

/// Reduced-cost tolerance for convergence: a priced column enters the
/// master only if it improves the value by more than this.
const REDUCED_COST_TOL: f64 = 1e-7;

/// Upper bound on a CGGS master's columns (a safety valve; the algorithm
/// normally converges in far fewer).
const MAX_COLUMNS: usize = 256;

/// CGGS configuration.
#[derive(Debug, Clone)]
pub struct CggsConfig {
    /// Worker threads for batched `Pal` evaluation (results are identical
    /// at every thread count; see [`PalEngine`]).
    pub threads: usize,
    /// Warm-start column pool: orderings seeded into the restricted master
    /// before the first pricing iteration (typically the incumbent basis of
    /// a previous solve, so an online re-solve restarts from the old
    /// optimum instead of rediscovering it column by column). Seeds that
    /// have the wrong arity for the current game or are duplicates are
    /// silently skipped. An **empty** pool is bit-identical to a cold
    /// solve.
    pub seed_columns: Vec<AuditOrder>,
}

impl Default for CggsConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            seed_columns: Vec::new(),
        }
    }
}

/// Result of a CGGS run.
#[derive(Debug, Clone)]
pub struct CggsOutcome {
    /// Final master solution over the generated columns.
    pub master: MasterSolution,
    /// The generated order columns (aligned with `master.p_orders`).
    pub orders: Vec<AuditOrder>,
    /// Number of master iterations; repeats are answered from the solve's
    /// memo.
    pub iterations: usize,
    /// `true` when the oracle proved no improving column exists (within
    /// its heuristic power); `false` when the column cap was hit.
    pub converged: bool,
}

/// Column Generation Greedy Search solver.
#[derive(Debug, Clone, Default)]
pub struct Cggs {
    /// Configuration.
    pub config: CggsConfig,
}

impl Cggs {
    /// Construct with a configuration.
    pub fn new(config: CggsConfig) -> Self {
        Self { config }
    }

    /// Run CGGS for a fixed threshold vector.
    ///
    /// Builds a fresh [`PalEngine`] with `config.threads` workers for this
    /// one solve; callers that re-solve over the same sample bank *and*
    /// revisit threshold vectors (ISHM does both) should hold an engine
    /// and use [`Cggs::solve_with_engine`] so `Pal` estimates carry over.
    pub fn solve(
        &self,
        spec: &GameSpec,
        est: &DetectionEstimator<'_>,
        thresholds: &[f64],
    ) -> Result<CggsOutcome, GameError> {
        let engine = PalEngine::new(*est, self.config.threads);
        self.solve_with_engine(spec, &engine, thresholds)
    }

    /// Run CGGS against a caller-owned engine (Algorithm 1). All `Pal`
    /// evaluations — matrix columns, greedy trials, candidate scoring — go
    /// through the engine's batch path and its cache.
    pub fn solve_with_engine(
        &self,
        spec: &GameSpec,
        engine: &PalEngine<'_>,
        thresholds: &[f64],
    ) -> Result<CggsOutcome, GameError> {
        self.solve_with_memo(spec, engine, &mut MasterMemo::default(), thresholds)
    }

    /// [`Cggs::solve_with_engine`] with a caller-owned master memo, so a
    /// search that replays identical column-generation runs (ISHM
    /// candidates differing only in types the budget never reaches) solves
    /// each distinct master once. The memo must serve `spec` alone.
    pub(crate) fn solve_with_memo(
        &self,
        spec: &GameSpec,
        engine: &PalEngine<'_>,
        masters: &mut MasterMemo,
        thresholds: &[f64],
    ) -> Result<CggsOutcome, GameError> {
        spec.validate()?;
        let n = spec.n_types();
        assert_eq!(thresholds.len(), n);

        // Seed Q with one feasible pure strategy (Algorithm 1 input), plus
        // any warm-start columns carried over from a previous solve. The
        // whole seed pool is built as ONE engine batch: warm-start columns
        // overwhelmingly share prefixes (they came out of one incumbent
        // basis), so the trie pays each shared prefix once.
        let mut pool = vec![AuditOrder::identity(n)];
        for seed in &self.config.seed_columns {
            if pool.len() >= MAX_COLUMNS {
                break;
            }
            if seed.len() == n && !pool.contains(seed) {
                pool.push(seed.clone());
            }
        }
        let mut matrix = PayoffMatrix::build_with_engine(spec, engine, pool, thresholds);
        let (master, iterations, converged) = generate_columns(
            spec,
            engine,
            thresholds,
            &mut matrix,
            masters,
            None,
            MAX_COLUMNS,
            |y| {
                let w = detection_weights(spec, y);
                vec![greedy_order(engine, thresholds, &w, |_, _| true)]
            },
        )?;
        Ok(CggsOutcome {
            master,
            orders: matrix.orders,
            iterations,
            converged,
        })
    }
}

/// The column-generation loop of Algorithm 1 over the restricted master
/// `matrix`, shared by CGGS and the planner's decomposed refinement. Each
/// round:
///
/// 1. once `matrix` holds `max_columns` columns, returns the master over
///    them;
/// 2. solves the master through `masters`;
/// 3. stops once `max_rounds` rounds have priced;
/// 4. asks `price` for candidate columns against the attacker mixture `y`
///    (Algorithm 1, line 3);
/// 5. evaluates the candidates' `Pal` in one engine batch and appends
///    every fresh candidate whose reduced cost `f(o) − μ` is below
///    `−REDUCED_COST_TOL`, so it lets the auditor push the value below `μ`.
///
/// The loop converges when a round appends nothing. Returns the last
/// master, the rounds priced, and whether the loop converged (`false`
/// when a cap stopped it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_columns(
    spec: &GameSpec,
    engine: &PalEngine<'_>,
    thresholds: &[f64],
    matrix: &mut PayoffMatrix,
    masters: &mut MasterMemo,
    max_rounds: Option<usize>,
    max_columns: usize,
    mut price: impl FnMut(&[f64]) -> Vec<AuditOrder>,
) -> Result<(MasterSolution, usize, bool), GameError> {
    let mut rounds = 0usize;
    loop {
        if matrix.n_orders() >= max_columns {
            return Ok((masters.solve(spec, matrix)?, rounds, false));
        }
        let master = masters.solve(spec, matrix)?;
        if max_rounds.is_some_and(|cap| rounds >= cap) {
            return Ok((master, rounds, false));
        }
        rounds += 1;
        let y = &master.y_actions;
        let candidates = price(y);
        let queries: Vec<PalQuery> = candidates
            .iter()
            .map(|o| PalQuery::full(o, thresholds))
            .collect();
        let pals = engine.pal_batch(&queries);
        let mut admitted = false;
        for (order, pal) in candidates.into_iter().zip(&pals) {
            let improving = score_from_pal(spec, pal, y) < master.value - REDUCED_COST_TOL;
            if improving && !matrix.orders.contains(&order) {
                matrix.push_order_with_engine(spec, engine, order, thresholds);
                admitted = true;
            }
        }
        if !admitted {
            return Ok((master, rounds, true));
        }
    }
}

/// Greedy pricing oracle (Algorithm 1, lines 4–7): build an order one
/// position at a time, appending the type among the unplaced ones that
/// `placeable` admits (given the placed set) with the largest marginal
/// weighted detection mass `w_t·Pal(o,b,t)`, first-wins on ties beyond
/// `1e-15`. Each step evaluates *all* candidate extensions in one engine
/// batch, which is exactly a prefix-trie fan-out: every trial extends the
/// same prefix by one type, so the engine pays one column pass per trial
/// plus (at most) one for the prefix extension, which the prefix-state
/// cache usually answers from the previous step. Whole constructions are
/// thereby linear in trials instead of quadratic in sequence length.
pub(crate) fn greedy_order(
    engine: &PalEngine<'_>,
    thresholds: &[f64],
    w: &[f64],
    placeable: impl Fn(usize, &[bool]) -> bool,
) -> AuditOrder {
    let n = w.len();
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    for _ in 0..n {
        let candidates: Vec<usize> = (0..n)
            .filter(|&t| !placed[t] && placeable(t, &placed))
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
        let pals = engine.pal_batch(&queries);
        let mut best: Option<(usize, f64)> = None;
        for (&t, pal) in candidates.iter().zip(&pals) {
            let gain = w[t] * pal[t];
            if best.map(|(_, g)| gain > g + 1e-15).unwrap_or(true) {
                best = Some((t, gain));
            }
        }
        let (t, _) = best.expect("`placeable` must admit some unplaced type");
        placed[t] = true;
        prefix.push(t);
    }
    AuditOrder::new(prefix).expect("greedy construction yields a permutation")
}

/// Per-type detection weights `w_t = Σ_ev y_ev·(M+R)_ev·P^t_ev` — the
/// marginal value of detecting one more type-`t` attack under the
/// attacker mixture `y`: the weights [`greedy_order`] ranks trials by.
/// With `y = 1` on every action they are the planner's per-type attack
/// mass.
pub(crate) fn detection_weights(spec: &GameSpec, y: &[f64]) -> Vec<f64> {
    let mut w = vec![0.0; spec.n_types()];
    let mut i = 0usize;
    for att in &spec.attackers {
        for act in &att.actions {
            let mass = y[i] * (act.penalty + act.reward);
            if mass != 0.0 {
                for &(t, p) in &act.alert_probs {
                    w[t] += mass * p;
                }
            }
            i += 1;
        }
    }
    w
}

/// `f(o) = Σ_ev y_ev·U_a(o,b,⟨e,v⟩)` — the attacker mixture's payoff if the
/// auditor played the pure order whose detection vector is `pal`.
pub(crate) fn score_from_pal(spec: &GameSpec, pal: &[f64], y: &[f64]) -> f64 {
    let mut f = 0.0;
    let mut i = 0usize;
    for att in &spec.attackers {
        for act in &att.actions {
            if y[i] != 0.0 {
                f += y[i] * action_utility(act, pal);
            }
            i += 1;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::master::MasterSolver;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::Constant;

    fn three_type_spec() -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type("t0", 1.0, Arc::new(Constant(1)));
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(1)));
        let t2 = b.alert_type("t2", 1.0, Arc::new(Constant(1)));
        for (i, &(t, r)) in [(t0, 9.0), (t1, 7.0), (t2, 5.0)].iter().enumerate() {
            b.attacker(Attacker::new(
                format!("e{i}"),
                1.0,
                vec![AttackAction::deterministic(format!("v{t}"), t, r, 0.5, 6.0)],
            ));
        }
        b.budget(1.0);
        b.build().unwrap()
    }

    #[test]
    fn cggs_matches_exact_master_on_small_game() {
        let spec = three_type_spec();
        let bank = spec.sample_bank(8, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let thresholds = vec![1.0, 1.0, 1.0];

        let cggs = Cggs::default().solve(&spec, &est, &thresholds).unwrap();

        let all = AuditOrder::enumerate_all(3);
        let m = PayoffMatrix::build(&spec, &est, all, &thresholds);
        let exact = MasterSolver::solve(&spec, &m).unwrap();

        assert!(cggs.converged);
        assert!(
            cggs.master.value >= exact.value - 1e-6,
            "CGGS value {} below exact optimum {}",
            cggs.master.value,
            exact.value
        );
        // On this small symmetric instance greedy pricing is exact.
        assert!(
            (cggs.master.value - exact.value).abs() < 1e-5,
            "CGGS {} vs exact {}",
            cggs.master.value,
            exact.value
        );
        // And it should need far fewer columns than 3! = 6.
        assert!(cggs.orders.len() <= 6);
    }

    /// One attacker choosing which of three types to trigger: against any
    /// single column it attacks an unaudited type, so column generation
    /// has columns to admit.
    fn one_attacker_spec() -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let ts: Vec<usize> = (0..3)
            .map(|i| b.alert_type(format!("t{i}"), 1.0, Arc::new(Constant(1))))
            .collect();
        b.attacker(Attacker::new(
            "e0",
            1.0,
            ts.iter()
                .zip([9.0, 7.0, 5.0])
                .map(|(&t, r)| AttackAction::deterministic(format!("v{t}"), t, r, 0.5, 6.0))
                .collect(),
        ));
        b.budget(1.0);
        b.build().unwrap()
    }

    #[test]
    fn generate_columns_reports_rounds_and_stops_at_either_cap() {
        let spec = one_attacker_spec();
        let bank = spec.sample_bank(8, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let engine = PalEngine::new(est, 1);
        let thresholds = [1.0, 1.0, 1.0];
        let greedy = |y: &[f64]| {
            let w = detection_weights(&spec, y);
            vec![greedy_order(&engine, &thresholds, &w, |_, _| true)]
        };
        let run = |max_rounds, max_columns| {
            let mut matrix = PayoffMatrix::build_with_engine(
                &spec,
                &engine,
                vec![AuditOrder::identity(3)],
                &thresholds,
            );
            let (master, rounds, converged) = generate_columns(
                &spec,
                &engine,
                &thresholds,
                &mut matrix,
                &mut MasterMemo::default(),
                max_rounds,
                max_columns,
                greedy,
            )
            .unwrap();
            (master, rounds, converged, matrix.n_orders())
        };

        // Uncapped: every round but the last admits the one priced column.
        let (_, rounds, converged, columns) = run(None, usize::MAX);
        assert!(converged);
        assert!(columns >= 3, "only {columns} columns generated");
        assert_eq!(rounds, columns);

        // One round: the priced column is admitted and the master re-solved
        // over both columns, but no second round prices.
        let (by_round, rounds, converged, columns) = run(Some(1), usize::MAX);
        assert_eq!((rounds, converged, columns), (1, false, 2));
        // Two columns: the same stop, reached through the column cap.
        let (by_column, rounds, converged, columns) = run(None, 2);
        assert_eq!((rounds, converged, columns), (1, false, 2));
        assert_eq!(by_round.value.to_bits(), by_column.value.to_bits());
        assert_eq!(by_round.p_orders, by_column.p_orders);
        // No rounds: the master over the seed column alone.
        let (_, rounds, converged, columns) = run(Some(0), usize::MAX);
        assert_eq!((rounds, converged, columns), (0, false, 1));
    }

    #[test]
    fn detection_weights_aggregate_reward_and_penalty() {
        let spec = three_type_spec();
        // y puts mass 1 on attacker 0's only action (type 0, R=9, M=6).
        let y = vec![1.0, 0.0, 0.0];
        let w = detection_weights(&spec, &y);
        assert!((w[0] - 15.0).abs() < 1e-12);
        assert_eq!(w[1], 0.0);
        assert_eq!(w[2], 0.0);
    }

    #[test]
    fn greedy_orders_by_weighted_mass() {
        let spec = three_type_spec();
        let bank = spec.sample_bank(8, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        // All mass on attacker 2 (type 2): greedy must front-load type 2.
        let w = detection_weights(&spec, &[0.0, 0.0, 1.0]);
        let engine = PalEngine::new(est, 1);
        let o = greedy_order(&engine, &[1.0, 1.0, 1.0], &w, |_, _| true);
        assert_eq!(o.types()[0], 2);
    }

    #[test]
    fn engine_solve_is_thread_count_invariant() {
        let spec = three_type_spec();
        let bank = spec.sample_bank(64, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let thresholds = vec![1.0, 1.0, 1.0];
        let baseline = Cggs::default().solve(&spec, &est, &thresholds).unwrap();
        for threads in [2usize, 4] {
            let cggs = Cggs::new(CggsConfig {
                threads,
                ..Default::default()
            });
            let out = cggs.solve(&spec, &est, &thresholds).unwrap();
            assert_eq!(out.master.value, baseline.master.value);
            assert_eq!(out.orders, baseline.orders);
            assert_eq!(out.iterations, baseline.iterations);
            assert_eq!(out.master.p_orders, baseline.master.p_orders);
        }
    }

    #[test]
    fn empty_seed_pool_is_bit_identical_to_cold_solve() {
        let spec = three_type_spec();
        let bank = spec.sample_bank(32, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let thresholds = vec![1.0, 1.0, 1.0];
        let cold = Cggs::default().solve(&spec, &est, &thresholds).unwrap();
        let warm = Cggs::new(CggsConfig {
            seed_columns: Vec::new(),
            ..Default::default()
        })
        .solve(&spec, &est, &thresholds)
        .unwrap();
        assert_eq!(cold.master.value.to_bits(), warm.master.value.to_bits());
        assert_eq!(cold.orders, warm.orders);
        assert_eq!(cold.iterations, warm.iterations);
        assert_eq!(cold.master.p_orders, warm.master.p_orders);
    }

    #[test]
    fn seeded_resolve_skips_pricing_work_and_matches_cold_value() {
        let spec = three_type_spec();
        let bank = spec.sample_bank(32, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let thresholds = vec![1.0, 1.0, 1.0];
        let cold = Cggs::default().solve(&spec, &est, &thresholds).unwrap();
        // Re-solve seeded with the cold incumbent basis: same optimum, and
        // the pricing loop must not need more master iterations than cold.
        let warm = Cggs::new(CggsConfig {
            seed_columns: cold.orders.clone(),
            ..Default::default()
        })
        .solve(&spec, &est, &thresholds)
        .unwrap();
        assert!(warm.converged);
        assert!((warm.master.value - cold.master.value).abs() < 1e-9);
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn infeasible_and_duplicate_seeds_are_skipped() {
        let spec = three_type_spec();
        let bank = spec.sample_bank(8, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let cggs = Cggs::new(CggsConfig {
            seed_columns: vec![
                AuditOrder::new(vec![0, 1]).unwrap(),    // wrong arity
                AuditOrder::new(vec![0, 1, 2]).unwrap(), // duplicates the identity
                AuditOrder::new(vec![1, 0, 2]).unwrap(), // feasible
                AuditOrder::new(vec![1, 0, 2]).unwrap(), // duplicate
            ],
            ..Default::default()
        });
        let out = cggs.solve(&spec, &est, &[1.0, 1.0, 1.0]).unwrap();
        assert!(out.orders.iter().all(|o| o.len() == 3));
        for seed in [[0, 1, 2], [1, 0, 2]] {
            assert_eq!(
                out.orders.iter().filter(|o| o.types() == seed).count(),
                1,
                "seed {seed:?}"
            );
        }
        assert_eq!(
            out.orders[..2],
            [
                AuditOrder::identity(3),
                AuditOrder::new(vec![1, 0, 2]).unwrap()
            ]
        );
    }
}
