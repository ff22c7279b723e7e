//! Iterative Shrink Heuristic Method (paper Algorithm 2).
//!
//! ISHM searches the (continuous) threshold space by starting from the
//! full-coverage vector `Ĥ_t = C_t · max supp(F_t)` — above which
//! `F_t(b_t/C_t) ≈ 1` and further budget is wasted (Section III-B) — and
//! repeatedly *shrinking* subsets of thresholds by a ratio `1 − i·ε`:
//!
//! * level `lh` enumerates all `C(|T|, lh)` subsets of that size;
//! * for each shrink ratio (coarse to fine: `i = 1 … ⌈1/ε⌉`) the best
//!   subset at the current level is evaluated through the inner LP;
//! * the first strict improvement is accepted and the search *restarts* at
//!   level 1; when a full ratio sweep yields no improvement the level
//!   increases, and the search terminates once `lh > |T|`.
//!
//! The inner evaluation (one LP per candidate) is pluggable: exact
//! enumeration of all orderings for small `|T|` or [`crate::cggs::Cggs`]
//! column generation for large `|T|` — the two variants compared in paper
//! Tables IV and V.

use crate::attacker::AttackerModel;
use crate::cggs::{Cggs, CggsConfig};
use crate::detection::{DetectionEstimator, PalEngine, PalQuery};
use crate::error::GameError;
use crate::master::{MasterMemo, MasterSolution, MasterSolver};
use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use crate::payoff::PayoffMatrix;
use std::collections::{HashMap, HashSet};

/// All `k`-element subsets of `0..n` in lexicographic order (the `choose`
/// of Algorithm 2, line 4).
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    assert!(k <= n, "cannot choose {k} of {n}");
    let mut out = Vec::new();
    let mut combo: Vec<usize> = (0..k).collect();
    if k == 0 {
        out.push(Vec::new());
        return out;
    }
    loop {
        out.push(combo.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if combo[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        combo[i] += 1;
        for j in i + 1..k {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

/// Evaluates the auditor's objective for a candidate threshold vector by
/// solving the induced LP. Implementations may cache across calls.
pub trait ThresholdEvaluator {
    /// Objective value (auditor's loss) under `thresholds`.
    fn evaluate(&mut self, thresholds: &[f64]) -> Result<f64, GameError>;

    /// Full policy (master solution + its order columns) under `thresholds`.
    fn solve_full(
        &mut self,
        thresholds: &[f64],
    ) -> Result<(MasterSolution, Vec<AuditOrder>), GameError>;

    /// Hint that `evaluate` is about to be called for each of `candidates`
    /// (ISHM announces every `(level, ratio)` sweep batch this way):
    /// implementations may evaluate the whole frontier jointly — e.g. one
    /// prefix-trie batch over every `(order, candidate)` pair — and serve
    /// the subsequent `evaluate` calls from their memo. Results must be
    /// bit-identical to evaluating each candidate alone; the default
    /// does nothing, leaving all work to `evaluate`.
    fn prime(&mut self, _candidates: &[Vec<f64>]) -> Result<(), GameError> {
        Ok(())
    }
}

/// Inner evaluator that materializes **all** feasible orderings — exact but
/// exponential in `|T|` (paper Table IV path).
///
/// It scores each candidate by its [`AttackerModel::loss`]: the master
/// value for the paper's rational attacker (every constructor but
/// [`ExactEvaluator::against`]), or the quantal or general-sum objective
/// at the master's mixture. The objective is a pure function of the
/// matrix columns and the master solved from them, so the class memo and
/// the prime batches below serve every model exactly.
///
/// Holds a [`PalEngine`] for the whole ISHM run, so `Pal` estimates are
/// shared across every candidate threshold vector the search revisits, and
/// an objective memo keyed by the engine's **canonical threshold class**
/// (saturated coordinates collapse, including every one at or above the
/// period budget), so revisited and detection-equivalent candidates skip
/// the master LP entirely. (ISHM revisits a lot: different shrink ratios
/// floor onto the same lattice point, each accepted improvement restarts
/// the level-1 sweep, and the early search shrinks thresholds that are
/// still above the budget.) With that memo a master rarely repeats (on
/// syn-a-b6 the one repeat per solve is [`ThresholdEvaluator::solve_full`]'s
/// final master), so this evaluator keeps no master memo.
/// [`ThresholdEvaluator::prime`] evaluates a whole sweep batch as one
/// `(order × candidate)` trie frontier, so candidates differing in a
/// single coordinate share every audit prefix that avoids it.
pub struct ExactEvaluator<'a> {
    spec: &'a GameSpec,
    engine: PalEngine<'a>,
    orders: Vec<AuditOrder>,
    attacker: AttackerModel,
    values: HashMap<Vec<u64>, f64>,
}

impl<'a> ExactEvaluator<'a> {
    /// Build with the full order set and a single-threaded engine.
    pub fn new(spec: &'a GameSpec, est: DetectionEstimator<'a>) -> Self {
        Self::with_threads(spec, est, 1)
    }

    /// Build with the full order set and `threads` batch workers.
    pub fn with_threads(spec: &'a GameSpec, est: DetectionEstimator<'a>, threads: usize) -> Self {
        Self::over_pool(
            spec,
            est,
            threads,
            AuditOrder::enumerate_all(spec.n_types()),
        )
    }

    /// Build with the full order set and a single-threaded engine, scoring
    /// candidates by `attacker`'s objective at the rational master's
    /// mixture (the robust-evaluation setup of the quantal and
    /// general-sum extensions).
    pub fn against(
        spec: &'a GameSpec,
        est: DetectionEstimator<'a>,
        attacker: AttackerModel,
    ) -> Self {
        Self {
            attacker,
            ..Self::new(spec, est)
        }
    }

    /// Build over a fixed column pool `orders` (the planner's
    /// decomposed evaluator passes its block pool).
    pub(crate) fn over_pool(
        spec: &'a GameSpec,
        est: DetectionEstimator<'a>,
        threads: usize,
        orders: Vec<AuditOrder>,
    ) -> Self {
        Self {
            spec,
            engine: PalEngine::new(est, threads),
            orders,
            attacker: AttackerModel::Rational,
            values: HashMap::new(),
        }
    }

    /// The engine backing this evaluator.
    pub fn engine(&self) -> &PalEngine<'a> {
        &self.engine
    }

    /// The column pool every master runs over.
    pub(crate) fn orders(&self) -> &[AuditOrder] {
        &self.orders
    }

    /// The payoff matrix of the whole pool under `thresholds`.
    pub(crate) fn matrix(&self, thresholds: &[f64]) -> PayoffMatrix {
        PayoffMatrix::build_with_engine(self.spec, &self.engine, self.orders.clone(), thresholds)
    }
}

impl ThresholdEvaluator for ExactEvaluator<'_> {
    fn evaluate(&mut self, thresholds: &[f64]) -> Result<f64, GameError> {
        let key = self.engine.threshold_class_key(thresholds);
        if let Some(&v) = self.values.get(&key) {
            return Ok(v);
        }
        let matrix = self.matrix(thresholds);
        let master = MasterSolver::solve(self.spec, &matrix)?;
        let v = self.attacker.loss(self.spec, &matrix, &master);
        self.values.insert(key, v);
        Ok(v)
    }

    fn solve_full(
        &mut self,
        thresholds: &[f64],
    ) -> Result<(MasterSolution, Vec<AuditOrder>), GameError> {
        let m = self.matrix(thresholds);
        let sol = MasterSolver::solve(self.spec, &m)?;
        Ok((sol, m.orders))
    }

    /// Evaluate a whole sweep batch jointly: every `(order, candidate)`
    /// pair goes into **one** engine batch, so the prefix trie shares all
    /// common audit prefixes across the frontier (ISHM's single-coordinate
    /// candidates share every prefix avoiding the shrunk coordinate), then
    /// one master LP per distinct candidate class lands in the memo. The
    /// subsequent `evaluate` calls are pure memo hits — values, acceptance
    /// decisions, and exploration counts are bit-identical to the
    /// unprimed path.
    fn prime(&mut self, candidates: &[Vec<f64>]) -> Result<(), GameError> {
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let fresh: Vec<Vec<f64>> = candidates
            .iter()
            .filter(|c| {
                let key = self.engine.threshold_class_key(c);
                !self.values.contains_key(&key) && seen.insert(key)
            })
            .cloned()
            .collect();
        // A lone fresh candidate gains nothing here: `evaluate` already
        // batches all of its orders through the trie.
        if fresh.len() > 1 {
            let queries: Vec<PalQuery> = fresh
                .iter()
                .flat_map(|c| self.orders.iter().map(move |o| PalQuery::full(o, c)))
                .collect();
            self.engine.pal_batch(&queries);
        }
        for c in &fresh {
            self.evaluate(c)?;
        }
        Ok(())
    }
}

/// Inner evaluator backed by CGGS column generation (paper Table V path).
/// Owns one [`PalEngine`] (with `config.threads` workers) for the whole
/// run, plus the same class-keyed objective memo as [`ExactEvaluator`].
/// It keeps the default (no-op) [`ThresholdEvaluator::prime`]: column
/// generation adapts its query stream per candidate, so cross-candidate
/// reuse comes from the engine instead — the prefix-state cache serves
/// every greedy trial whose prefix avoids the shrunk coordinate, and the
/// canonical keys collapse saturated candidates outright.
///
/// It also owns one master memo for its lifetime, which is one solve.
/// Candidates of different classes often replay the same column
/// generation — they differ only in types the budget never reaches, so
/// every column's `Pal` agrees — and each distinct master is solved once.
pub struct CggsEvaluator<'a> {
    spec: &'a GameSpec,
    engine: PalEngine<'a>,
    cggs: Cggs,
    values: HashMap<Vec<u64>, f64>,
    masters: MasterMemo,
}

impl<'a> CggsEvaluator<'a> {
    /// Build with a CGGS configuration.
    pub fn new(spec: &'a GameSpec, est: DetectionEstimator<'a>, config: CggsConfig) -> Self {
        let engine = PalEngine::new(est, config.threads);
        Self {
            spec,
            engine,
            cggs: Cggs::new(config),
            values: HashMap::new(),
            masters: MasterMemo::default(),
        }
    }

    /// The engine backing this evaluator.
    pub fn engine(&self) -> &PalEngine<'a> {
        &self.engine
    }
}

impl ThresholdEvaluator for CggsEvaluator<'_> {
    fn evaluate(&mut self, thresholds: &[f64]) -> Result<f64, GameError> {
        let key = self.engine.threshold_class_key(thresholds);
        if let Some(&v) = self.values.get(&key) {
            return Ok(v);
        }
        let v = self
            .cggs
            .solve_with_memo(self.spec, &self.engine, &mut self.masters, thresholds)?
            .master
            .value;
        self.values.insert(key, v);
        Ok(v)
    }

    fn solve_full(
        &mut self,
        thresholds: &[f64],
    ) -> Result<(MasterSolution, Vec<AuditOrder>), GameError> {
        let out =
            self.cggs
                .solve_with_memo(self.spec, &self.engine, &mut self.masters, thresholds)?;
        Ok((out.master, out.orders))
    }
}

/// Minimal strict improvement ISHM accepts for a shrink (guards against
/// accepting float noise and guarantees termination).
const IMPROVEMENT_TOL: f64 = 1e-9;

/// ISHM configuration.
#[derive(Debug, Clone)]
pub struct IshmConfig {
    /// Step size `ε ∈ (0, 1]` controlling the shrink-ratio grid.
    pub epsilon: f64,
    /// Warm-start threshold vector: when set, the shrink search starts
    /// from this point (clamped elementwise to the full-coverage upper
    /// bounds) instead of from full coverage. An online re-solve passes a
    /// vector bracketing the previous optimum so the search begins near
    /// the incumbent and terminates after far fewer LP evaluations.
    /// `None` is bit-identical to a cold solve.
    pub initial_thresholds: Option<Vec<f64>>,
    /// Cap on the subset level `lh` the shrink search may reach. The
    /// search is exponential in the level (`C(|T|, lh)` subsets each
    /// sweep, and termination requires a no-improvement pass at *every*
    /// level up to `|T|`), which is fine at paper scale but intractable
    /// at 20–50 types — the planner caps wide instances at one or two
    /// levels ([`crate::planner::plan`]). `None` (the default) runs the
    /// full search and is bit-identical to the pre-cap behavior; `Some(c)`
    /// is clamped into `[1, |T|]`.
    pub max_level: Option<usize>,
    /// Deterministic work budget on the shrink search: a cap on inner LP
    /// evaluations (the `thresholds_explored` counter — never wall-clock,
    /// so budgeted runs are bit-reproducible). The initial evaluation of
    /// the start vector always runs, so a budgeted solve still commits a
    /// feasible policy; when the cap stops the search early the best
    /// vector found so far is kept and [`SearchStats::budget_exhausted`]
    /// is set. `None` (the default) is bit-identical to an unbudgeted
    /// search.
    pub eval_budget: Option<usize>,
}

impl Default for IshmConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.1,
            initial_thresholds: None,
            max_level: None,
            eval_budget: None,
        }
    }
}

/// Instrumentation counters (paper Table VII / Section IV.C `T` vector).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Threshold vectors evaluated (LP calls), including the initial one.
    pub thresholds_explored: usize,
    /// Accepted shrinks.
    pub improvements: usize,
    /// Highest subset level `lh` reached.
    pub max_level: usize,
    /// True when [`IshmConfig::eval_budget`] stopped the search before it
    /// converged; the committed policy is the best vector found in budget.
    pub budget_exhausted: bool,
}

/// Result of an ISHM run.
#[derive(Debug, Clone)]
pub struct IshmOutcome {
    /// Best threshold vector found.
    pub thresholds: Vec<f64>,
    /// The master's value at `thresholds` (`master.value`). For an
    /// [`ExactEvaluator::against`] a non-rational attacker this is not the
    /// objective the search minimized; `evaluate(&thresholds)` returns
    /// that.
    pub value: f64,
    /// Master solution (mixed strategy) at the best thresholds.
    pub master: MasterSolution,
    /// Order columns aligned with `master.p_orders`.
    pub orders: Vec<AuditOrder>,
    /// Search counters.
    pub stats: SearchStats,
}

/// Iterative Shrink Heuristic Method driver.
#[derive(Debug, Clone)]
pub struct Ishm {
    /// Configuration.
    pub config: IshmConfig,
}

impl Ishm {
    /// Construct with a configuration.
    pub fn new(config: IshmConfig) -> Self {
        Self { config }
    }

    /// Run ISHM against an inner evaluator (Algorithm 2).
    pub fn solve<E: ThresholdEvaluator>(
        &self,
        spec: &GameSpec,
        evaluator: &mut E,
    ) -> Result<IshmOutcome, GameError> {
        if !(self.config.epsilon > 0.0 && self.config.epsilon <= 1.0) {
            return Err(GameError::InvalidConfig(format!(
                "ISHM step size must lie in (0, 1], got {}",
                self.config.epsilon
            )));
        }
        spec.validate()?;
        let n = spec.n_types();
        let n_ratios = (1.0 / self.config.epsilon).ceil() as usize;
        let costs = spec.audit_costs();
        // Thresholds live on the audit-unit lattice: a fractional budget
        // share above ⌊b_t/C_t⌋·C_t buys no audit yet is still consumed by
        // the paper's recourse formula, so every shrink is floored to a
        // multiple of C_t (this also matches the integer thresholds the
        // paper reports, e.g. 11·0.9 → 9 in Table IV).
        let floor_unit = |b: f64, t: usize| (b / costs[t]).floor().max(0.0) * costs[t];

        // Ĥ initialized at full coverage (Algorithm 2, line 1), or at the
        // caller's warm-start point clamped into [0, Ĥ].
        let upper = spec.threshold_upper_bounds();
        let mut h: Vec<f64> = match &self.config.initial_thresholds {
            None => upper,
            Some(init) => {
                if init.len() != n {
                    return Err(GameError::InvalidConfig(format!(
                        "warm-start thresholds cover {} types but the game has {n}",
                        init.len()
                    )));
                }
                init.iter()
                    .zip(&upper)
                    .map(|(&b, &ub)| b.clamp(0.0, ub))
                    .collect()
            }
        };
        let mut stats = SearchStats::default();
        let mut obj = evaluator.evaluate(&h)?;
        stats.thresholds_explored += 1;

        // The budget caps LP evaluations, never wall-clock, so a budgeted
        // run is bit-reproducible; the start-vector evaluation above is
        // always allowed so even `Some(0)` commits a feasible policy.
        let budget = self.config.eval_budget;
        let spent = |stats: &SearchStats| budget.is_some_and(|b| stats.thresholds_explored >= b);

        let level_cap = self.config.max_level.map_or(n, |c| c.clamp(1, n));
        let mut lh = 1usize;
        'search: while lh <= level_cap {
            stats.max_level = stats.max_level.max(lh);
            let combos = combinations(n, lh);
            let mut progress = 0usize;
            for i in 1..=n_ratios {
                if spent(&stats) {
                    stats.budget_exhausted = true;
                    break 'search;
                }
                let ratio = (1.0 - i as f64 * self.config.epsilon).max(0.0);
                // Materialize this sweep's candidate vectors once (`None`
                // where flooring absorbed the shrink — a no-op cannot
                // improve) and announce the whole frontier to the
                // evaluator: it may evaluate the batch jointly (shared
                // audit prefixes, one LP per candidate class) so the
                // sequential accept-first scan below runs on memo hits.
                // Values, decisions, and the explored counter are
                // bit-identical to evaluating one candidate at a time.
                let temps: Vec<Option<Vec<f64>>> = combos
                    .iter()
                    .map(|combo| {
                        let mut temp = h.clone();
                        for &k in combo {
                            temp[k] = floor_unit(temp[k] * ratio, k);
                        }
                        (temp != h).then_some(temp)
                    })
                    .collect();
                let mut batch: Vec<Vec<f64>> = temps.iter().flatten().cloned().collect();
                if let Some(b) = budget {
                    // Only prime what the scan below may still evaluate:
                    // the scan stops at the cap, and priming past it would
                    // spend (deterministic) work the budget exists to bound.
                    batch.truncate(b - stats.thresholds_explored);
                }
                evaluator.prime(&batch)?;
                let mut best_obj = f64::INFINITY;
                let mut best_combo: Option<usize> = None;
                for (j, temp) in temps.iter().enumerate() {
                    let Some(temp) = temp else {
                        continue;
                    };
                    if spent(&stats) {
                        stats.budget_exhausted = true;
                        break;
                    }
                    let candidate = evaluator.evaluate(temp)?;
                    stats.thresholds_explored += 1;
                    if candidate < best_obj {
                        best_obj = candidate;
                        best_combo = Some(j);
                    }
                }
                // An improvement found in a partial (budget-clipped) scan
                // is still accepted: degradation commits the best vector
                // seen, it never discards paid-for progress.
                if best_obj < obj - IMPROVEMENT_TOL {
                    obj = best_obj;
                    let combo = &combos[best_combo.expect("improvement implies a combo")];
                    for &k in combo {
                        h[k] = floor_unit(h[k] * ratio, k);
                    }
                    stats.improvements += 1;
                    progress = 0;
                    if stats.budget_exhausted {
                        break 'search;
                    }
                    break;
                }
                if stats.budget_exhausted {
                    break 'search;
                }
                progress = i;
            }
            if progress == n_ratios {
                lh += 1;
            } else {
                lh = 1;
            }
        }

        let (master, orders) = evaluator.solve_full(&h)?;
        Ok(IshmOutcome {
            thresholds: h,
            value: master.value,
            master,
            orders,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::{Constant, DiscretizedGaussian};

    #[test]
    fn combinations_enumerate_correctly() {
        assert_eq!(combinations(4, 1), vec![vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(
            combinations(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(combinations(5, 0), vec![Vec::<usize>::new()]);
        // Binomial sizes.
        assert_eq!(combinations(6, 3).len(), 20);
        assert_eq!(combinations(7, 2).len(), 21);
    }

    fn small_spec(budget: f64) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let t0 = b.alert_type(
            "t0",
            1.0,
            Arc::new(DiscretizedGaussian::with_halfwidth(3.0, 1.0, 2)),
        );
        let t1 = b.alert_type("t1", 1.0, Arc::new(Constant(2)));
        b.attacker(Attacker::new(
            "e0",
            1.0,
            vec![
                AttackAction::deterministic("v0", t0, 6.0, 0.4, 4.0),
                AttackAction::deterministic("v1", t1, 7.0, 0.4, 4.0),
            ],
        ));
        b.attacker(Attacker::new(
            "e1",
            1.0,
            vec![AttackAction::deterministic("v1", t1, 5.0, 0.4, 4.0)],
        ));
        b.budget(budget);
        b.build().unwrap()
    }

    #[test]
    fn ishm_improves_on_full_coverage_start() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(400, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut eval = ExactEvaluator::new(&spec, est);
        let start = eval.evaluate(&spec.threshold_upper_bounds()).unwrap();
        let out = Ishm::new(IshmConfig {
            epsilon: 0.1,
            ..Default::default()
        })
        .solve(&spec, &mut eval)
        .unwrap();
        assert!(
            out.value <= start + 1e-9,
            "ISHM worsened: {} > {start}",
            out.value
        );
        assert!(out.stats.thresholds_explored > 1);
        assert!(out.stats.max_level >= 1);
    }

    #[test]
    fn ishm_with_cggs_close_to_exact_inner() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(400, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);

        let mut exact = ExactEvaluator::new(&spec, est);
        let out_exact = Ishm::default_config().solve(&spec, &mut exact).unwrap();

        let mut cggs = CggsEvaluator::new(&spec, est, CggsConfig::default());
        let out_cggs = Ishm::default_config().solve(&spec, &mut cggs).unwrap();

        // CGGS under-approximates the order set, so its value can only be
        // equal or slightly worse; on a 2-type game they must coincide.
        assert!(
            (out_exact.value - out_cggs.value).abs() < 1e-5,
            "exact {} vs cggs {}",
            out_exact.value,
            out_cggs.value
        );
    }

    #[test]
    fn coarser_epsilon_explores_fewer_candidates() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);

        let mut e1 = ExactEvaluator::new(&spec, est);
        let fine = Ishm::new(IshmConfig {
            epsilon: 0.05,
            ..Default::default()
        })
        .solve(&spec, &mut e1)
        .unwrap();
        let mut e2 = ExactEvaluator::new(&spec, est);
        let coarse = Ishm::new(IshmConfig {
            epsilon: 0.5,
            ..Default::default()
        })
        .solve(&spec, &mut e2)
        .unwrap();
        assert!(coarse.stats.thresholds_explored < fine.stats.thresholds_explored);
        // Finer grid can only help (or tie) on the objective.
        assert!(fine.value <= coarse.value + 1e-6);
    }

    #[test]
    fn warm_start_at_full_coverage_is_bit_identical_to_cold() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);

        let mut e1 = ExactEvaluator::new(&spec, est);
        let cold = Ishm::default_config().solve(&spec, &mut e1).unwrap();
        let mut e2 = ExactEvaluator::new(&spec, est);
        let warm = Ishm::new(IshmConfig {
            initial_thresholds: Some(spec.threshold_upper_bounds()),
            ..Default::default()
        })
        .solve(&spec, &mut e2)
        .unwrap();
        assert_eq!(cold.value.to_bits(), warm.value.to_bits());
        assert_eq!(cold.thresholds, warm.thresholds);
        assert_eq!(cold.master.p_orders, warm.master.p_orders);
        assert_eq!(
            cold.stats.thresholds_explored,
            warm.stats.thresholds_explored
        );
    }

    #[test]
    fn warm_start_from_incumbent_matches_value_with_less_search() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);

        let mut e1 = ExactEvaluator::new(&spec, est);
        let cold = Ishm::default_config().solve(&spec, &mut e1).unwrap();
        let mut e2 = ExactEvaluator::new(&spec, est);
        let warm = Ishm::new(IshmConfig {
            initial_thresholds: Some(cold.thresholds.clone()),
            ..Default::default()
        })
        .solve(&spec, &mut e2)
        .unwrap();
        assert!(
            (warm.value - cold.value).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.value,
            cold.value
        );
        assert!(
            warm.stats.thresholds_explored <= cold.stats.thresholds_explored,
            "warm explored {} > cold {}",
            warm.stats.thresholds_explored,
            cold.stats.thresholds_explored
        );
    }

    #[test]
    fn warm_start_is_clamped_into_the_feasible_box() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(100, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let upper = spec.threshold_upper_bounds();
        let mut eval = ExactEvaluator::new(&spec, est);
        let out = Ishm::new(IshmConfig {
            initial_thresholds: Some(vec![1e9, -4.0]),
            ..Default::default()
        })
        .solve(&spec, &mut eval)
        .unwrap();
        for (t, &b) in out.thresholds.iter().enumerate() {
            assert!(b <= upper[t] + 1e-12 && b >= 0.0);
        }
    }

    #[test]
    fn warm_start_arity_mismatch_rejected() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(50, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut eval = ExactEvaluator::new(&spec, est);
        let bad = Ishm::new(IshmConfig {
            initial_thresholds: Some(vec![1.0]),
            ..Default::default()
        });
        assert!(bad.solve(&spec, &mut eval).is_err());
    }

    #[test]
    fn level_cap_at_or_above_n_is_bit_identical_to_uncapped() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut e1 = ExactEvaluator::new(&spec, est);
        let full = Ishm::default_config().solve(&spec, &mut e1).unwrap();
        for cap in [spec.n_types(), spec.n_types() + 3] {
            let mut e2 = ExactEvaluator::new(&spec, est);
            let capped = Ishm::new(IshmConfig {
                max_level: Some(cap),
                ..Default::default()
            })
            .solve(&spec, &mut e2)
            .unwrap();
            assert_eq!(full.value.to_bits(), capped.value.to_bits());
            assert_eq!(full.thresholds, capped.thresholds);
            assert_eq!(
                full.stats.thresholds_explored,
                capped.stats.thresholds_explored
            );
        }
    }

    #[test]
    fn level_cap_bounds_the_search() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut e1 = ExactEvaluator::new(&spec, est);
        let full = Ishm::default_config().solve(&spec, &mut e1).unwrap();
        let mut e2 = ExactEvaluator::new(&spec, est);
        let capped = Ishm::new(IshmConfig {
            max_level: Some(1),
            ..Default::default()
        })
        .solve(&spec, &mut e2)
        .unwrap();
        assert_eq!(capped.stats.max_level, 1);
        assert!(capped.stats.thresholds_explored <= full.stats.thresholds_explored);
        // The cap prunes the search space, so the value can only tie or
        // worsen relative to the full search.
        assert!(capped.value >= full.value - 1e-9);
    }

    #[test]
    fn generous_eval_budget_is_bit_identical_to_unbudgeted() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut e1 = ExactEvaluator::new(&spec, est);
        let full = Ishm::default_config().solve(&spec, &mut e1).unwrap();
        assert!(!full.stats.budget_exhausted);
        let mut e2 = ExactEvaluator::new(&spec, est);
        let budgeted = Ishm::new(IshmConfig {
            eval_budget: Some(full.stats.thresholds_explored + 1),
            ..Default::default()
        })
        .solve(&spec, &mut e2)
        .unwrap();
        assert!(!budgeted.stats.budget_exhausted);
        assert_eq!(full.value.to_bits(), budgeted.value.to_bits());
        assert_eq!(full.thresholds, budgeted.thresholds);
        assert_eq!(full.master.p_orders, budgeted.master.p_orders);
        assert_eq!(
            full.stats.thresholds_explored,
            budgeted.stats.thresholds_explored
        );
    }

    #[test]
    fn eval_budget_caps_exploration_and_flags_exhaustion() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut e1 = ExactEvaluator::new(&spec, est);
        let full = Ishm::default_config().solve(&spec, &mut e1).unwrap();
        for budget in [0usize, 1, 3, 5] {
            let mut e2 = ExactEvaluator::new(&spec, est);
            let out = Ishm::new(IshmConfig {
                eval_budget: Some(budget),
                ..Default::default()
            })
            .solve(&spec, &mut e2)
            .unwrap();
            // The start vector is always evaluated, so even budget 0
            // commits a feasible policy from exactly one LP evaluation.
            assert!(out.stats.thresholds_explored <= budget.max(1), "{budget}");
            assert!(out.stats.budget_exhausted, "{budget}");
            assert!(out.value.is_finite());
            let psum: f64 = out.master.p_orders.iter().sum();
            assert!((psum - 1.0).abs() < 1e-6, "{budget}");
            // Pruned search can only tie or worsen the objective.
            assert!(out.value >= full.value - 1e-9, "{budget}");
        }
    }

    #[test]
    fn eval_budget_runs_are_reproducible() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let cfg = IshmConfig {
            eval_budget: Some(4),
            ..Default::default()
        };
        let mut e1 = ExactEvaluator::new(&spec, est);
        let a = Ishm::new(cfg.clone()).solve(&spec, &mut e1).unwrap();
        let mut e2 = ExactEvaluator::new(&spec, est);
        let b = Ishm::new(cfg).solve(&spec, &mut e2).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.thresholds, b.thresholds);
        assert_eq!(a.stats.thresholds_explored, b.stats.thresholds_explored);
        assert_eq!(a.stats.budget_exhausted, b.stats.budget_exhausted);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let spec = small_spec(2.0);
        let bank = spec.sample_bank(50, 0);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut eval = ExactEvaluator::new(&spec, est);
        let bad = Ishm::new(IshmConfig {
            epsilon: 0.0,
            ..Default::default()
        });
        assert!(bad.solve(&spec, &mut eval).is_err());
        let bad = Ishm::new(IshmConfig {
            epsilon: 1.5,
            ..Default::default()
        });
        assert!(bad.solve(&spec, &mut eval).is_err());
    }

    #[test]
    fn primed_sweep_matches_per_value_master_solves() {
        // A five-value sweep of one coordinate, the saturated 50 included,
        // primed as one batch: every value must equal a scalar matrix build
        // and master solve, bit for bit.
        let s = crate::datasets::syn_a_with_budget(6.0);
        let bank = s.sample_bank(120, 3);
        let est = DetectionEstimator::new(&s, &bank, DetectionModel::PaperApprox);
        let base = vec![3.0, 3.0, 3.0, 3.0];
        let candidates: Vec<Vec<f64>> = [0.0, 1.0, 2.0, 4.0, 50.0]
            .iter()
            .map(|&v| {
                let mut th = base.clone();
                th[1] = v;
                th
            })
            .collect();
        let mut eval = ExactEvaluator::with_threads(&s, est, 2);
        eval.prime(&candidates).unwrap();
        let orders = AuditOrder::enumerate_all(4);
        for th in &candidates {
            let m = PayoffMatrix::build(&s, &est, orders.clone(), th);
            let want = MasterSolver::solve(&s, &m).unwrap().value;
            assert_eq!(
                eval.evaluate(th).unwrap().to_bits(),
                want.to_bits(),
                "{th:?}"
            );
        }
    }

    #[test]
    fn against_rational_is_bit_identical_to_the_plain_evaluator() {
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(300, 1);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let mut plain = ExactEvaluator::with_threads(&spec, est, 1);
        let mut rational = ExactEvaluator::against(&spec, est, AttackerModel::Rational);
        let ishm = Ishm::default_config();
        let a = ishm.solve(&spec, &mut plain).unwrap();
        let b = ishm.solve(&spec, &mut rational).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.thresholds, b.thresholds);
        assert_eq!(a.master.p_orders, b.master.p_orders);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.stats.thresholds_explored, b.stats.thresholds_explored);
        assert_eq!(a.stats.improvements, b.stats.improvements);
    }

    #[test]
    fn against_scores_the_attacker_objective_at_the_master_mixture() {
        use crate::general_sum::{damage_under_mixture, DamageModel};
        use crate::quantal::QuantalResponse;
        let spec = small_spec(3.0);
        let bank = spec.sample_bank(200, 4);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let qr = QuantalResponse::new(1.5);
        let dm = DamageModel {
            damage_per_reward: 2.0,
            recovery_per_penalty: 0.5,
        };
        let points = [
            vec![5.0, 2.0],
            vec![2.0, 2.0],
            vec![1.0, 0.0],
            vec![3.0, 1.0],
        ];
        let mut quantal = ExactEvaluator::against(&spec, est, AttackerModel::Quantal(qr));
        let mut general = ExactEvaluator::against(&spec, est, AttackerModel::GeneralSum(dm));
        // The prime batch and the memo must serve every model exactly.
        quantal.prime(&points[..2]).unwrap();
        general.prime(&points[..2]).unwrap();
        for b in &points {
            let m = PayoffMatrix::build(&spec, &est, AuditOrder::enumerate_all(2), b);
            let master = MasterSolver::solve(&spec, &m).unwrap();
            let want_qr = qr.loss_under_mixture(&spec, &m, &master.p_orders);
            let want_dm = damage_under_mixture(&spec, &m, &master.p_orders, &dm);
            assert_eq!(quantal.evaluate(b).unwrap().to_bits(), want_qr.to_bits());
            assert_eq!(general.evaluate(b).unwrap().to_bits(), want_dm.to_bits());
            assert_ne!(want_qr.to_bits(), master.value.to_bits(), "{b:?}");
        }
    }

    impl Ishm {
        fn default_config() -> Self {
            Ishm::new(IshmConfig::default())
        }
    }

    /// [`CggsEvaluator`] without the shared master memo: every CGGS run
    /// goes through [`Cggs::solve_with_engine`] and its fresh memo. Sums
    /// the master iterations of all runs.
    struct FreshMasterEvaluator<'a> {
        spec: &'a GameSpec,
        engine: PalEngine<'a>,
        cggs: Cggs,
        values: HashMap<Vec<u64>, f64>,
        iterations: usize,
    }

    impl ThresholdEvaluator for FreshMasterEvaluator<'_> {
        fn evaluate(&mut self, thresholds: &[f64]) -> Result<f64, GameError> {
            let key = self.engine.threshold_class_key(thresholds);
            if let Some(&v) = self.values.get(&key) {
                return Ok(v);
            }
            let (master, _) = self.solve_full(thresholds)?;
            self.values.insert(key, master.value);
            Ok(master.value)
        }

        fn solve_full(
            &mut self,
            thresholds: &[f64],
        ) -> Result<(MasterSolution, Vec<AuditOrder>), GameError> {
            let out = self
                .cggs
                .solve_with_engine(self.spec, &self.engine, thresholds)?;
            self.iterations += out.iterations;
            Ok((out.master, out.orders))
        }
    }

    #[test]
    fn master_memo_is_bit_identical_and_skips_repeated_masters() {
        use crate::datasets::{random_game, RandomGameConfig};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // B = 4 against full-coverage thresholds of 6 to 17: the budget
        // binds, so many candidates replay the same column generation.
        let spec = random_game(
            &RandomGameConfig {
                n_types: 7,
                n_attackers: 4,
                n_victims: 6,
                budget: 4.0,
                allow_opt_out: false,
                benign_prob: 0.15,
            },
            5,
        );
        let bank = spec.sample_bank(64, 5);
        let est = DetectionEstimator::new(&spec, &bank, DetectionModel::PaperApprox);
        let ishm = Ishm::new(IshmConfig {
            epsilon: 0.5,
            ..Default::default()
        });

        let mut memo = CggsEvaluator::new(&spec, est, CggsConfig::default());
        let got = ishm.solve(&spec, &mut memo).unwrap();
        let mut fresh = FreshMasterEvaluator {
            spec: &spec,
            engine: PalEngine::new(est, 1),
            cggs: Cggs::default(),
            values: HashMap::new(),
            iterations: 0,
        };
        let want = ishm.solve(&spec, &mut fresh).unwrap();

        assert_eq!(got.value.to_bits(), want.value.to_bits());
        assert_eq!(bits(&got.thresholds), bits(&want.thresholds));
        assert_eq!(bits(&got.master.p_orders), bits(&want.master.p_orders));
        assert_eq!(bits(&got.master.y_actions), bits(&want.master.y_actions));
        assert_eq!(got.orders, want.orders);
        assert_eq!(
            got.stats.thresholds_explored,
            want.stats.thresholds_explored
        );
        assert!(
            memo.masters.len() < fresh.iterations,
            "the memo solved {} masters for {} master iterations",
            memo.masters.len(),
            fresh.iterations
        );
    }
}
