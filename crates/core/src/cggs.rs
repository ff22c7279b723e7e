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

use crate::detection::{DetectionEstimator, PalEngine, PalQuery};
use crate::error::GameError;
use crate::master::{MasterMemo, MasterSolution};
use crate::model::GameSpec;
use crate::ordering::{AuditOrder, PrecedenceConstraints};
use crate::payoff::{action_utility, PayoffMatrix};

/// Reduced-cost tolerance for convergence: a priced column enters the
/// master only if it improves the value by more than this.
const REDUCED_COST_TOL: f64 = 1e-7;

/// CGGS configuration.
#[derive(Debug, Clone)]
pub struct CggsConfig {
    /// Upper bound on generated columns (safety valve; the algorithm
    /// normally converges in far fewer).
    pub max_columns: usize,
    /// Organizational constraints restricting the feasible order set `O`.
    pub precedence: PrecedenceConstraints,
    /// Worker threads for batched `Pal` evaluation (results are identical
    /// at every thread count; see [`PalEngine`]).
    pub threads: usize,
    /// Warm-start column pool: orderings seeded into the restricted master
    /// before the first pricing iteration (typically the incumbent basis of
    /// a previous solve, so an online re-solve restarts from the old
    /// optimum instead of rediscovering it column by column). Seeds that
    /// are infeasible for the current game (wrong arity, precedence
    /// violation) or duplicates are silently skipped. An **empty** pool is
    /// bit-identical to a cold solve.
    pub seed_columns: Vec<AuditOrder>,
}

impl Default for CggsConfig {
    fn default() -> Self {
        Self {
            max_columns: 256,
            precedence: PrecedenceConstraints::none(),
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
    /// its heuristic power); `false` when `max_columns` was hit.
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
        let initial = self.initial_order(n)?;
        let mut pool = vec![initial];
        for seed in &self.config.seed_columns {
            if pool.len() >= self.config.max_columns {
                break;
            }
            let feasible = seed.len() == n
                && self.config.precedence.is_satisfied(seed)
                && !pool.contains(seed);
            if feasible {
                pool.push(seed.clone());
            }
        }
        let mut matrix = PayoffMatrix::build_with_engine(spec, engine, pool, thresholds);
        let mut iterations = 0usize;
        let mut converged = false;

        while matrix.n_orders() < self.config.max_columns {
            let master = masters.solve(spec, &matrix)?;
            iterations += 1;

            let candidate = self.greedy_column(spec, engine, thresholds, &master.y_actions);

            // Reduced cost: f(o') − μ. Negative ⇒ the new column lets the
            // auditor push the value below the current μ.
            let pal = engine.pal(&candidate, thresholds);
            let f = score_from_pal(spec, &pal, &master.y_actions);
            let improving = f < master.value - REDUCED_COST_TOL;
            let fresh = !matrix.orders.contains(&candidate);
            if improving && fresh {
                matrix.push_order_with_engine(spec, engine, candidate, thresholds);
            } else {
                converged = true;
                return Ok(CggsOutcome {
                    master,
                    orders: matrix.orders.clone(),
                    iterations,
                    converged,
                });
            }
        }

        // Column budget exhausted: return the best master found.
        let master = masters.solve(spec, &matrix)?;
        Ok(CggsOutcome {
            master,
            orders: matrix.orders,
            iterations,
            converged,
        })
    }

    /// A deterministic feasible initial order (identity filtered through a
    /// precedence-respecting topological placement).
    fn initial_order(&self, n: usize) -> Result<AuditOrder, GameError> {
        if self.config.precedence.is_empty() {
            return Ok(AuditOrder::identity(n));
        }
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let next = (0..n)
                .find(|&t| !placed[t] && self.config.precedence.can_place_next(t, &placed))
                .ok_or_else(|| {
                    GameError::InvalidSpec("precedence constraints are unsatisfiable".into())
                })?;
            placed[next] = true;
            order.push(next);
        }
        AuditOrder::new(order)
    }

    /// Greedy pricing oracle (Algorithm 1, lines 4–7): repeatedly append the
    /// feasible type maximizing the marginal weighted detection mass. Each
    /// greedy step evaluates *all* candidate extensions in one batch — one
    /// engine call per appended position instead of one per trial — and the
    /// batch is exactly a prefix-trie fan-out: every trial extends the same
    /// shared prefix by one type, so the engine pays one column pass per
    /// trial plus (at most) one for the prefix extension, which the
    /// prefix-state cache usually answers from the previous step. Whole
    /// best-response constructions are thereby linear in trials instead of
    /// quadratic in sequence length.
    fn greedy_column(
        &self,
        spec: &GameSpec,
        engine: &PalEngine<'_>,
        thresholds: &[f64],
        y: &[f64],
    ) -> AuditOrder {
        let n = spec.n_types();
        let w = detection_weights(spec, y);
        let mut prefix: Vec<usize> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        for _ in 0..n {
            let candidates: Vec<usize> = (0..n)
                .filter(|&t| !placed[t] && self.config.precedence.can_place_next(t, &placed))
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
            let (t, _) = best.expect("some type must be placeable (DAG precedence)");
            placed[t] = true;
            prefix.push(t);
        }
        AuditOrder::new(prefix).expect("greedy construction yields a permutation")
    }
}

/// Per-type detection weights `w_t = Σ_ev y_ev·(M+R)_ev·P^t_ev` — the
/// marginal value of detecting one more type-`t` attack under the
/// attacker mixture `y`. Shared by the CGGS greedy oracle and the
/// planner's decomposed refinement pricing.
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
        let cggs = Cggs::default();
        // All mass on attacker 2 (type 2): greedy must front-load type 2.
        let y = vec![0.0, 0.0, 1.0];
        let engine = PalEngine::new(est, 1);
        let o = cggs.greedy_column(&spec, &engine, &[1.0, 1.0, 1.0], &y);
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
    fn precedence_respected_in_generated_columns() {
        let spec = three_type_spec();
        let bank = spec.sample_bank(8, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let precedence = PrecedenceConstraints::new(vec![(1, 0)], 3).unwrap();
        let cggs = Cggs::new(CggsConfig {
            precedence: precedence.clone(),
            ..Default::default()
        });
        let out = cggs.solve(&spec, &est, &[1.0, 1.0, 1.0]).unwrap();
        for o in &out.orders {
            assert!(precedence.is_satisfied(o), "order {o} violates precedence");
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
        let precedence = PrecedenceConstraints::new(vec![(1, 0)], 3).unwrap();
        let cggs = Cggs::new(CggsConfig {
            precedence: precedence.clone(),
            seed_columns: vec![
                AuditOrder::new(vec![0, 1, 2]).unwrap(), // violates 1-before-0
                AuditOrder::new(vec![0, 1]).unwrap(),    // wrong arity
                AuditOrder::new(vec![1, 0, 2]).unwrap(), // feasible
                AuditOrder::new(vec![1, 0, 2]).unwrap(), // duplicate
            ],
            ..Default::default()
        });
        let out = cggs.solve(&spec, &est, &[1.0, 1.0, 1.0]).unwrap();
        for o in &out.orders {
            assert_eq!(o.len(), 3);
            assert!(precedence.is_satisfied(o), "order {o} violates precedence");
        }
        assert_eq!(
            out.orders.iter().filter(|o| o.types() == [1, 0, 2]).count(),
            1
        );
    }

    #[test]
    fn column_budget_is_respected() {
        let spec = three_type_spec();
        let bank = spec.sample_bank(8, 3);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let cggs = Cggs::new(CggsConfig {
            max_columns: 2,
            ..Default::default()
        });
        let out = cggs.solve(&spec, &est, &[1.0, 1.0, 1.0]).unwrap();
        assert!(out.orders.len() <= 2);
    }
}
