//! One-call facade combining ISHM (threshold search) with an inner LP
//! evaluator (exact enumeration, CGGS, or the planner's type-cluster
//! decomposition) — the full pipeline of the paper plus the wide-type
//! scale-out of [`crate::planner`].

use crate::cggs::CggsConfig;
use crate::detection::{CacheStats, DetectionEstimator, DetectionModel, PalEngine};
use crate::error::GameError;
use crate::execute::AuditPolicy;
use crate::ishm::{
    CggsEvaluator, ExactEvaluator, Ishm, IshmConfig, SearchStats, ThresholdEvaluator,
};
use crate::master::MasterSolution;
use crate::model::GameSpec;
use crate::ordering::AuditOrder;
use crate::planner::{self, DecomposedEvaluator, InstanceFeatures, SolveStrategy};

/// Which inner LP strategy evaluates threshold candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InnerKind {
    /// Let the planner choose from the instance's hardness features
    /// ([`crate::planner::plan`]): exact order enumeration up to
    /// [`crate::planner::EXACT_MAX_TYPES`] alert types, column generation
    /// up to [`crate::planner::ISHM_FULL_MAX_TYPES`], and the level-capped
    /// type-cluster decomposition beyond.
    #[default]
    Auto,
    /// Materialize all `|T|!` orderings (small `|T|` only).
    Exact,
    /// Column Generation Greedy Search (Algorithm 1).
    Cggs,
    /// Force the planner's type-cluster decomposed evaluator
    /// ([`crate::planner::DecomposedEvaluator`]) at any width. Tractable
    /// everywhere: at ≤ [`crate::planner::EXACT_MAX_TYPES`] types its pool
    /// is the full enumeration (bit-identical to [`InnerKind::Exact`]),
    /// and past [`crate::planner::ISHM_FULL_MAX_TYPES`] it adopts the
    /// planner's outer-search level cap.
    Decomposed,
}

/// Facade configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// ISHM step size ε.
    pub epsilon: f64,
    /// Monte-Carlo sample count for `Pal` estimation.
    pub n_samples: usize,
    /// RNG seed (sample bank; everything downstream is deterministic).
    pub seed: u64,
    /// Inner LP strategy.
    pub inner: InnerKind,
    /// Detection-probability variant.
    pub detection: DetectionModel,
    /// Merge strategically identical attack actions before solving.
    pub dedup_actions: bool,
    /// Worker threads for batched `Pal` evaluation. Results are identical
    /// at every thread count (see [`crate::detection::PalEngine`]).
    pub threads: usize,
    /// Deterministic work budget per solve rung: a cap on inner LP
    /// evaluations of the ISHM shrink search
    /// ([`crate::ishm::IshmConfig::eval_budget`] — a counter, never
    /// wall-clock, so budgeted solves stay bit-reproducible). When the
    /// planned strategy exhausts the budget the solver descends the
    /// degradation ladder (Exact → Cggs → Decomposed), giving each rung
    /// the same allowance; the first rung that converges in budget is
    /// committed, and [`AuditSolution::degrade`] records the descent. If
    /// every rung exhausts, the final (cheapest) rung's best-in-budget
    /// policy — always feasible, since the start vector is always
    /// evaluated — is committed as `DegradeReason::Truncated`. `None`
    /// (the default) disables the ladder and is bit-identical to the
    /// unbudgeted solver.
    pub work_budget: Option<usize>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.1,
            n_samples: 500,
            seed: 0,
            inner: InnerKind::Auto,
            detection: DetectionModel::PaperApprox,
            dedup_actions: true,
            threads: 1,
            work_budget: None,
        }
    }
}

/// Why (and how far) a budgeted solve degraded from its planned strategy.
/// Recorded on [`AuditSolution::degrade`] and carried into the runtime's
/// fingerprinted telemetry, so degraded epochs are grep-able and chaos runs
/// reproduce bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The planned strategy exhausted its work budget; the solve walked
    /// `tiers` rungs down the Exact → Cggs → Decomposed ladder before a
    /// rung converged within budget (`tiers ≥ 1`).
    Degraded {
        /// Rungs descended below the planned strategy.
        tiers: usize,
    },
    /// Every ladder rung exhausted the budget; the final rung's
    /// best-in-budget policy was committed.
    Truncated,
    /// The scheduled re-solve failed outright and the runtime re-committed
    /// the incumbent policy instead (recorded by `audit-runtime`, never by
    /// the solver itself).
    KeptIncumbent,
}

impl DegradeReason {
    /// Stable short key for telemetry, JSON, and grep lines.
    pub fn key(&self) -> String {
        match self {
            DegradeReason::Degraded { tiers } => format!("degraded:{tiers}"),
            DegradeReason::Truncated => "truncated".into(),
            DegradeReason::KeptIncumbent => "kept-incumbent".into(),
        }
    }

    /// Stable numeric code for fingerprinting (`Degraded{tiers}` maps to
    /// `16 + tiers` so distinct descents hash apart).
    pub fn code(&self) -> u64 {
        match self {
            DegradeReason::Degraded { tiers } => 16 + *tiers as u64,
            DegradeReason::Truncated => 1,
            DegradeReason::KeptIncumbent => 2,
        }
    }
}

/// Warm-start state carried from a previous solve into the next one: the
/// ISHM search starts from `thresholds` (instead of full coverage) and the
/// CGGS restricted master is seeded with `orders` (instead of one pure
/// strategy). Both seams are individually optional and individually
/// bit-identical to a cold solve when empty — see
/// [`crate::ishm::IshmConfig::initial_thresholds`] and
/// [`crate::cggs::CggsConfig::seed_columns`].
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Starting threshold vector (clamped to the new game's upper bounds);
    /// `None` starts ISHM from full coverage as usual. The shrink search
    /// never raises a threshold above its start, so a re-solve after an
    /// upward workload drift should rescale the incumbent's thresholds
    /// first, as `audit_runtime::warm_start_rescaled` does.
    pub thresholds: Option<Vec<f64>>,
    /// Column pool seeding the CGGS restricted master; infeasible or
    /// duplicate entries are skipped, and the exact inner evaluator (which
    /// materializes every order anyway) ignores it.
    pub orders: Vec<AuditOrder>,
}

/// The solved audit policy plus diagnostics.
#[derive(Debug, Clone)]
pub struct AuditSolution {
    /// Deployable policy (thresholds + mixed orders).
    pub policy: AuditPolicy,
    /// Auditor's optimal (heuristic) loss.
    pub loss: f64,
    /// Master solution at the chosen thresholds.
    pub master: MasterSolution,
    /// ISHM search counters.
    pub stats: SearchStats,
    /// Detection-engine counters of the solve (estimate/prefix-state cache
    /// hits, evictions, trie column passes) — the observability behind the
    /// `--cache-stats` flag of the experiment drivers. Covers the search
    /// alone: it is read before `expected_pal` is evaluated.
    pub cache: CacheStats,
    /// The committed policy's mixture `Pal` per type
    /// ([`AuditPolicy::expected_pal`]) — what an attacker best-responds to.
    /// Evaluated on the engine that ran the solve, so it costs no new bank
    /// draw; its queries are already cached, and cached values are exact,
    /// so it is bit-identical to evaluating the policy on a fresh
    /// [`PalEngine`] over `spec.sample_bank(n_samples, seed)`.
    pub expected_pal: Vec<f64>,
    /// The inner strategy that produced this solution — `exact`, `cggs`,
    /// or a clustered decomposition with its outer level cap. Under a
    /// binding work budget this can sit *below* the planner's pick: it is
    /// the ladder rung actually committed.
    pub strategy: SolveStrategy,
    /// `Some` when a work budget forced this solve off its planned
    /// strategy (ladder descent or truncation); `None` on an unbudgeted or
    /// within-budget solve.
    pub degrade: Option<DegradeReason>,
}

/// High-level OAP solver.
#[derive(Debug, Clone)]
pub struct OapSolver {
    /// Configuration.
    pub config: SolverConfig,
}

impl OapSolver {
    /// Construct with a configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self { config }
    }

    /// Solve the full OAP: ISHM over thresholds with the configured inner
    /// evaluator, returning a deployable policy.
    pub fn solve(&self, spec: &GameSpec) -> Result<AuditSolution, GameError> {
        self.solve_warm(spec, None)
    }

    /// Solve the full OAP, optionally warm-started from a previous
    /// solution. `None` (and an empty [`WarmStart`]) is bit-identical to
    /// [`OapSolver::solve`]; a populated warm start begins the ISHM search
    /// at the carried thresholds and seeds the CGGS restricted master with
    /// the carried order columns — the cheap re-solve path the online
    /// runtime takes when workload drift invalidates the committed policy.
    pub fn solve_warm(
        &self,
        spec: &GameSpec,
        warm: Option<&WarmStart>,
    ) -> Result<AuditSolution, GameError> {
        spec.validate()?;
        if self.config.n_samples == 0 {
            return Err(GameError::InvalidConfig(
                "n_samples must be positive".into(),
            ));
        }
        let working = if self.config.dedup_actions {
            spec.dedup_actions()
        } else {
            spec.clone()
        };
        let bank = working.sample_bank(self.config.n_samples, self.config.seed);
        self.solve_ladder(&working, &bank, warm)
    }

    /// The inner strategy this solve will run: the configured
    /// [`InnerKind`] taken literally, with `Auto` delegated to the
    /// hardness-aware planner policy and `Decomposed` to its forced
    /// variant (both read the instance features of `working`, the
    /// dedup-applied spec; the raw spec it came from does not matter).
    pub fn strategy_for(&self, _raw: &GameSpec, working: &GameSpec) -> SolveStrategy {
        self.strategy_with(|| InstanceFeatures::of(working))
    }

    /// [`OapSolver::strategy_for`], measuring the features only when the
    /// configured [`InnerKind`] reads them.
    fn strategy_with(&self, features: impl FnOnce() -> InstanceFeatures) -> SolveStrategy {
        match self.config.inner {
            InnerKind::Exact => SolveStrategy::Exact,
            InnerKind::Cggs => SolveStrategy::Cggs,
            InnerKind::Auto => planner::plan(&features()),
            InnerKind::Decomposed => planner::decomposed_strategy(&features()),
        }
    }

    /// The Exact → Cggs → Decomposed rung sequence a budgeted solve of
    /// this instance walks: the planned strategy first, then every
    /// strictly cheaper tier. A solve planned `Decomposed` is already on
    /// the cheapest rung.
    fn ladder_for(&self, working: &GameSpec) -> Vec<SolveStrategy> {
        let features = InstanceFeatures::of(working);
        let planned = self.strategy_with(|| features);
        let decomposed = planner::decomposed_strategy(&features);
        match planned {
            SolveStrategy::Exact => vec![planned, SolveStrategy::Cggs, decomposed],
            SolveStrategy::Cggs => vec![planned, decomposed],
            SolveStrategy::Decomposed { .. } => vec![planned],
        }
    }

    /// Budget-aware solve: without a work budget this is exactly one run
    /// of the planned strategy (bit-identical to the pre-ladder solver);
    /// with one, each rung of [`OapSolver::ladder_for`] gets the full
    /// allowance and the first rung that converges within it is committed.
    /// Total work is therefore bounded by `rungs × budget` evaluations —
    /// still deterministic, and in the worst case the final rung's
    /// best-in-budget policy ships as [`DegradeReason::Truncated`].
    fn solve_ladder(
        &self,
        working: &GameSpec,
        bank: &stochastics::SampleBank,
        warm: Option<&WarmStart>,
    ) -> Result<AuditSolution, GameError> {
        let Some(budget) = self.config.work_budget else {
            let strategy = self.strategy_with(|| InstanceFeatures::of(working));
            return self.solve_on(working, bank, warm, strategy, None);
        };
        let ladder = self.ladder_for(working);
        let last = ladder.len() - 1;
        for (tier, strategy) in ladder.into_iter().enumerate() {
            let sol = self.solve_on(working, bank, warm, strategy, Some(budget))?;
            if !sol.stats.budget_exhausted {
                return Ok(AuditSolution {
                    degrade: (tier > 0).then_some(DegradeReason::Degraded { tiers: tier }),
                    ..sol
                });
            }
            if tier == last {
                return Ok(AuditSolution {
                    degrade: Some(DegradeReason::Truncated),
                    ..sol
                });
            }
        }
        unreachable!("ladder is never empty")
    }

    /// Shared solve pipeline over a prepared (deduped) spec and bank,
    /// running the planner-selected `strategy` under an optional
    /// evaluation budget.
    fn solve_on(
        &self,
        working: &GameSpec,
        bank: &stochastics::SampleBank,
        warm: Option<&WarmStart>,
        strategy: SolveStrategy,
        eval_budget: Option<usize>,
    ) -> Result<AuditSolution, GameError> {
        let est = DetectionEstimator::new(working, bank, self.config.detection);
        let ishm = Ishm::new(IshmConfig {
            epsilon: self.config.epsilon,
            initial_thresholds: warm.and_then(|w| w.thresholds.clone()),
            max_level: strategy.level_cap(),
            eval_budget,
        });

        match strategy {
            SolveStrategy::Exact => self.run_ishm(
                &ishm,
                working,
                ExactEvaluator::with_threads(working, est, self.config.threads),
                ExactEvaluator::engine,
                strategy,
            ),
            SolveStrategy::Cggs => self.run_ishm(
                &ishm,
                working,
                CggsEvaluator::new(
                    working,
                    est,
                    CggsConfig {
                        threads: self.config.threads,
                        seed_columns: warm.map(|w| w.orders.clone()).unwrap_or_default(),
                    },
                ),
                CggsEvaluator::engine,
                strategy,
            ),
            SolveStrategy::Decomposed { .. } => self.run_ishm(
                &ishm,
                working,
                DecomposedEvaluator::new(
                    working,
                    est,
                    self.config.threads,
                    warm.map(|w| w.orders.clone()).unwrap_or_default(),
                ),
                DecomposedEvaluator::engine,
                strategy,
            ),
        }
    }

    /// Run ISHM over `eval` and commit its outcome. The cache counters
    /// are read right after the search, so they cover the search alone;
    /// the committed policy's `expected_pal` is then evaluated on the
    /// same engine.
    fn run_ishm<'a, E: ThresholdEvaluator>(
        &self,
        ishm: &Ishm,
        working: &GameSpec,
        mut eval: E,
        engine: fn(&E) -> &PalEngine<'a>,
        strategy: SolveStrategy,
    ) -> Result<AuditSolution, GameError> {
        let outcome = ishm.solve(working, &mut eval)?;
        let cache = engine(&eval).cache_stats();
        let policy = AuditPolicy::new(
            outcome.thresholds,
            outcome.orders,
            outcome.master.p_orders.clone(),
        );
        let expected_pal = policy.expected_pal(engine(&eval));
        Ok(AuditSolution {
            policy,
            loss: outcome.value,
            master: outcome.master,
            stats: outcome.stats,
            cache,
            expected_pal,
            strategy,
            degrade: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{random_game, RandomGameConfig};
    use crate::ishm::IshmOutcome;

    #[test]
    fn facade_solves_random_game_end_to_end() {
        let spec = random_game(&RandomGameConfig::default(), 5);
        let solver = OapSolver::new(SolverConfig {
            n_samples: 100,
            epsilon: 0.25,
            ..Default::default()
        });
        let sol = solver.solve(&spec).unwrap();
        assert!(sol.loss.is_finite());
        assert!(sol.loss <= spec.max_possible_loss() + 1e-9);
        let psum: f64 = sol.policy.probs.iter().sum();
        assert!((psum - 1.0).abs() < 1e-6);
        assert_eq!(sol.policy.thresholds.len(), spec.n_types());
        assert!(sol.stats.thresholds_explored > 0);
    }

    #[test]
    fn exact_and_auto_agree_on_small_games() {
        let spec = random_game(&RandomGameConfig::default(), 11);
        let auto = OapSolver::new(SolverConfig {
            n_samples: 80,
            epsilon: 0.25,
            inner: InnerKind::Auto,
            ..Default::default()
        })
        .solve(&spec)
        .unwrap();
        let exact = OapSolver::new(SolverConfig {
            n_samples: 80,
            epsilon: 0.25,
            inner: InnerKind::Exact,
            ..Default::default()
        })
        .solve(&spec)
        .unwrap();
        assert!((auto.loss - exact.loss).abs() < 1e-9);
    }

    #[test]
    fn forced_decomposed_is_bit_identical_to_exact_on_small_games() {
        let spec = random_game(&RandomGameConfig::default(), 41);
        let base = SolverConfig {
            n_samples: 80,
            epsilon: 0.25,
            ..Default::default()
        };
        let exact = OapSolver::new(SolverConfig {
            inner: InnerKind::Exact,
            ..base.clone()
        })
        .solve(&spec)
        .unwrap();
        let dec = OapSolver::new(SolverConfig {
            inner: InnerKind::Decomposed,
            ..base
        })
        .solve(&spec)
        .unwrap();
        assert_eq!(exact.loss.to_bits(), dec.loss.to_bits());
        assert_eq!(exact.policy.thresholds, dec.policy.thresholds);
        assert_eq!(exact.policy.orders, dec.policy.orders);
        assert_eq!(exact.policy.probs, dec.policy.probs);
        assert_eq!(
            exact.stats.thresholds_explored,
            dec.stats.thresholds_explored
        );
        assert!(matches!(dec.strategy, SolveStrategy::Decomposed { .. }));
        assert_eq!(exact.strategy, SolveStrategy::Exact);
    }

    #[test]
    fn auto_reports_the_planner_strategy() {
        let small = random_game(&RandomGameConfig::default(), 5);
        let sol = OapSolver::new(SolverConfig {
            n_samples: 60,
            epsilon: 0.25,
            ..Default::default()
        })
        .solve(&small)
        .unwrap();
        assert_eq!(sol.strategy, SolveStrategy::Exact);

        let medium = random_game(
            &RandomGameConfig {
                n_types: 7,
                ..Default::default()
            },
            5,
        );
        let sol = OapSolver::new(SolverConfig {
            n_samples: 40,
            epsilon: 0.5,
            ..Default::default()
        })
        .solve(&medium)
        .unwrap();
        assert_eq!(sol.strategy, SolveStrategy::Cggs);
    }

    #[test]
    fn dedup_preserves_value() {
        let cfg = RandomGameConfig {
            n_victims: 12, // plenty of duplicate (type, payoff) actions
            ..Default::default()
        };
        let spec = random_game(&cfg, 3);
        let base = SolverConfig {
            n_samples: 80,
            epsilon: 0.3,
            ..Default::default()
        };
        let with = OapSolver::new(SolverConfig {
            dedup_actions: true,
            ..base.clone()
        })
        .solve(&spec)
        .unwrap();
        let without = OapSolver::new(SolverConfig {
            dedup_actions: false,
            ..base
        })
        .solve(&spec)
        .unwrap();
        assert!(
            (with.loss - without.loss).abs() < 1e-7,
            "dedup changed the value: {} vs {}",
            with.loss,
            without.loss
        );
    }

    #[test]
    fn thread_count_does_not_change_the_solution() {
        let spec = random_game(&RandomGameConfig::default(), 17);
        let base = SolverConfig {
            n_samples: 60,
            epsilon: 0.25,
            ..Default::default()
        };
        let solo = OapSolver::new(base.clone()).solve(&spec).unwrap();
        for threads in [2usize, 4] {
            let multi = OapSolver::new(SolverConfig {
                threads,
                ..base.clone()
            })
            .solve(&spec)
            .unwrap();
            assert_eq!(solo.loss, multi.loss, "threads {threads}");
            assert_eq!(solo.policy.thresholds, multi.policy.thresholds);
            assert_eq!(solo.policy.probs, multi.policy.probs);
        }
    }

    #[test]
    fn empty_warm_start_is_bit_identical_to_cold_solve() {
        let spec = random_game(&RandomGameConfig::default(), 23);
        let cfg = SolverConfig {
            n_samples: 60,
            epsilon: 0.25,
            ..Default::default()
        };
        for inner in [InnerKind::Exact, InnerKind::Cggs, InnerKind::Decomposed] {
            let solver = OapSolver::new(SolverConfig {
                inner,
                ..cfg.clone()
            });
            let cold = solver.solve(&spec).unwrap();
            let warm = solver
                .solve_warm(&spec, Some(&WarmStart::default()))
                .unwrap();
            assert_eq!(cold.loss.to_bits(), warm.loss.to_bits(), "{inner:?}");
            assert_eq!(cold.policy.thresholds, warm.policy.thresholds);
            assert_eq!(cold.policy.orders, warm.policy.orders);
            assert_eq!(cold.policy.probs, warm.policy.probs);
        }
    }

    #[test]
    fn warm_start_from_own_solution_matches_cold_objective() {
        let spec = random_game(&RandomGameConfig::default(), 29);
        let solver = OapSolver::new(SolverConfig {
            n_samples: 60,
            epsilon: 0.25,
            inner: InnerKind::Cggs,
            ..Default::default()
        });
        let cold = solver.solve(&spec).unwrap();
        let warm = solver
            .solve_warm(
                &spec,
                Some(&WarmStart {
                    thresholds: Some(cold.policy.thresholds.clone()),
                    orders: cold.policy.orders.clone(),
                }),
            )
            .unwrap();
        // Warm starts at the incumbent, so its first evaluation reproduces
        // the cold optimum; further shrinks can only improve on it.
        assert!(
            warm.loss <= cold.loss + 1e-9,
            "warm {} vs cold {}",
            warm.loss,
            cold.loss
        );
        assert!(
            warm.stats.thresholds_explored <= cold.stats.thresholds_explored,
            "warm explored {} > cold {}",
            warm.stats.thresholds_explored,
            cold.stats.thresholds_explored
        );
    }

    /// The committed policy's mixture `Pal` on a fresh engine over a fresh
    /// bank of the raw spec, as bits.
    fn fresh_expected_pal(spec: &GameSpec, cfg: &SolverConfig, policy: &AuditPolicy) -> Vec<u64> {
        let bank = spec.sample_bank(cfg.n_samples, cfg.seed);
        let est = DetectionEstimator::new(spec, &bank, cfg.detection);
        bits(&policy.expected_pal(&PalEngine::new(est, 1)))
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn expected_pal_matches_a_fresh_engine_bit_for_bit() {
        let narrow = random_game(&RandomGameConfig::default(), 59);
        let wide = random_game(
            &RandomGameConfig {
                n_types: 7,
                ..Default::default()
            },
            59,
        );
        for (spec, inner) in [
            (&narrow, InnerKind::Exact),
            (&narrow, InnerKind::Cggs),
            (&wide, InnerKind::Cggs),
            (&wide, InnerKind::Decomposed),
        ] {
            let cfg = SolverConfig {
                n_samples: 60,
                epsilon: 0.5,
                inner,
                ..Default::default()
            };
            let sol = OapSolver::new(cfg.clone()).solve(spec).unwrap();
            assert_eq!(sol.expected_pal.len(), spec.n_types());
            assert_eq!(
                bits(&sol.expected_pal),
                fresh_expected_pal(spec, &cfg, &sol.policy),
                "{inner:?}"
            );
        }
        // A truncated ladder commits its final rung's policy, and its Pal.
        let cfg = SolverConfig {
            n_samples: 60,
            epsilon: 0.5,
            work_budget: Some(1),
            ..Default::default()
        };
        let sol = OapSolver::new(cfg.clone()).solve(&narrow).unwrap();
        assert_eq!(sol.degrade, Some(DegradeReason::Truncated));
        assert_eq!(
            bits(&sol.expected_pal),
            fresh_expected_pal(&narrow, &cfg, &sol.policy)
        );
    }

    /// The facade against the same ISHM run driven by hand: same outcome
    /// and same engine counters, since the counters are read before the
    /// `expected_pal` pass. The experiment drivers' printed numbers and
    /// `--cache-stats` lines rest on this equivalence.
    #[test]
    fn cache_counters_exclude_the_expected_pal_pass() {
        fn check(sol: &AuditSolution, by_hand: IshmOutcome, engine: &PalEngine<'_>) {
            assert_eq!(sol.loss.to_bits(), by_hand.value.to_bits());
            assert_eq!(sol.policy.thresholds, by_hand.thresholds);
            assert_eq!(
                sol.stats.thresholds_explored,
                by_hand.stats.thresholds_explored
            );
            assert_eq!(sol.cache, engine.cache_stats());
            // The pass itself is visible in the counters, so the equality
            // above shows it was left out.
            sol.policy.expected_pal(engine);
            assert_ne!(sol.cache, engine.cache_stats());
        }

        let spec = random_game(&RandomGameConfig::default(), 61);
        for inner in [InnerKind::Exact, InnerKind::Cggs] {
            let cfg = SolverConfig {
                n_samples: 60,
                epsilon: 0.5,
                inner,
                ..Default::default()
            };
            let sol = OapSolver::new(cfg.clone()).solve(&spec).unwrap();

            let working = spec.dedup_actions();
            let bank = working.sample_bank(cfg.n_samples, cfg.seed);
            let est = DetectionEstimator::new(&working, &bank, cfg.detection);
            let ishm = Ishm::new(IshmConfig {
                epsilon: cfg.epsilon,
                ..Default::default()
            });
            if inner == InnerKind::Exact {
                let mut eval = ExactEvaluator::with_threads(&working, est, cfg.threads);
                let by_hand = ishm.solve(&working, &mut eval).unwrap();
                check(&sol, by_hand, eval.engine());
            } else {
                let mut eval = CggsEvaluator::new(&working, est, CggsConfig::default());
                let by_hand = ishm.solve(&working, &mut eval).unwrap();
                check(&sol, by_hand, eval.engine());
            }
        }
    }

    #[test]
    fn generous_work_budget_is_bit_identical_to_unbudgeted() {
        let spec = random_game(&RandomGameConfig::default(), 43);
        let base = SolverConfig {
            n_samples: 60,
            epsilon: 0.25,
            ..Default::default()
        };
        let plain = OapSolver::new(base.clone()).solve(&spec).unwrap();
        assert_eq!(plain.degrade, None);
        let budgeted = OapSolver::new(SolverConfig {
            work_budget: Some(plain.stats.thresholds_explored + 1),
            ..base
        })
        .solve(&spec)
        .unwrap();
        assert_eq!(budgeted.degrade, None);
        assert_eq!(plain.loss.to_bits(), budgeted.loss.to_bits());
        assert_eq!(plain.policy.thresholds, budgeted.policy.thresholds);
        assert_eq!(plain.policy.orders, budgeted.policy.orders);
        assert_eq!(plain.policy.probs, budgeted.policy.probs);
        assert_eq!(plain.strategy, budgeted.strategy);
    }

    #[test]
    fn exhausted_ladder_commits_feasible_truncated_policy() {
        let spec = random_game(&RandomGameConfig::default(), 47);
        let sol = OapSolver::new(SolverConfig {
            n_samples: 60,
            epsilon: 0.25,
            work_budget: Some(1),
            ..Default::default()
        })
        .solve(&spec)
        .unwrap();
        // Budget 1 admits only the start-vector evaluation on every rung,
        // so the ladder bottoms out on the decomposed tier and truncates —
        // but still commits a feasible policy.
        assert_eq!(sol.degrade, Some(DegradeReason::Truncated));
        assert!(sol.stats.budget_exhausted);
        assert!(matches!(sol.strategy, SolveStrategy::Decomposed { .. }));
        assert!(sol.loss.is_finite());
        let psum: f64 = sol.policy.probs.iter().sum();
        assert!((psum - 1.0).abs() < 1e-6);
        assert_eq!(sol.policy.thresholds.len(), spec.n_types());
    }

    #[test]
    fn every_budget_yields_a_feasible_policy_with_consistent_degrade() {
        let spec = random_game(&RandomGameConfig::default(), 53);
        let base = SolverConfig {
            n_samples: 60,
            epsilon: 0.25,
            ..Default::default()
        };
        let plain = OapSolver::new(base.clone()).solve(&spec).unwrap();
        for budget in 1..=plain.stats.thresholds_explored + 1 {
            let sol = OapSolver::new(SolverConfig {
                work_budget: Some(budget),
                ..base.clone()
            })
            .solve(&spec)
            .unwrap();
            assert!(sol.loss.is_finite(), "budget {budget}");
            let psum: f64 = sol.policy.probs.iter().sum();
            assert!((psum - 1.0).abs() < 1e-6, "budget {budget}");
            // degrade is recorded exactly when the committed rung either
            // sits below the plan or ran out of budget itself.
            match sol.degrade {
                None => {
                    assert!(!sol.stats.budget_exhausted, "budget {budget}");
                    assert_eq!(sol.strategy, plain.strategy, "budget {budget}");
                }
                Some(DegradeReason::Degraded { tiers }) => {
                    assert!(tiers >= 1, "budget {budget}");
                    assert!(!sol.stats.budget_exhausted, "budget {budget}");
                    assert_ne!(sol.strategy, plain.strategy, "budget {budget}");
                }
                Some(DegradeReason::Truncated) => {
                    assert!(sol.stats.budget_exhausted, "budget {budget}");
                }
                Some(DegradeReason::KeptIncumbent) => {
                    panic!("solver never records KeptIncumbent (budget {budget})")
                }
            }
            // Budgeted runs are reproducible.
            let again = OapSolver::new(SolverConfig {
                work_budget: Some(budget),
                ..base.clone()
            })
            .solve(&spec)
            .unwrap();
            assert_eq!(sol.loss.to_bits(), again.loss.to_bits(), "budget {budget}");
            assert_eq!(sol.degrade, again.degrade, "budget {budget}");
            assert_eq!(sol.policy.thresholds, again.policy.thresholds);
        }
    }

    #[test]
    fn zero_samples_rejected() {
        let spec = random_game(&RandomGameConfig::default(), 1);
        let solver = OapSolver::new(SolverConfig {
            n_samples: 0,
            ..Default::default()
        });
        assert!(solver.solve(&spec).is_err());
    }
}
