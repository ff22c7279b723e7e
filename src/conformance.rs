//! Cross-solver golden conformance harness.
//!
//! For every registry scenario this module solves the (conformance-scale)
//! game with each applicable solver mode under each detection model, and
//! serializes the resulting objective values and thresholds. The
//! `tests/scenario_conformance.rs` suite solves the registry once and
//! compares each report's rendering with its committed snapshot in
//! `tests/golden/*.json` byte for byte ([`ScenarioReport::check_golden`]):
//! 132 cells in 15 goldens, pinned to the bit in debug, release and
//! x86-64-v2 builds alike, so a performance refactor that drifts any
//! number by one ulp fails CI immediately. Regenerate snapshots with
//! `UPDATE_GOLDEN=1 cargo test --test scenario_conformance`.
//!
//! Everything here is deterministic: fixed seeds, fixed sample counts,
//! single-threaded engines (thread count is separately proven not to
//! change results by `tests/detection_equivalence.rs`).

use crate::json::Value;
use audit_game::attacker::AttackerModel;
use audit_game::cggs::Cggs;
use audit_game::detection::{DetectionEstimator, DetectionModel};
use audit_game::error::GameError;
use audit_game::general_sum::DamageModel;
use audit_game::ishm::{ExactEvaluator, Ishm, IshmConfig};
use audit_game::model::GameSpec;
use audit_game::quantal::{solve_qr_thresholds, QuantalResponse};
use audit_game::scenario::Scenario;
use audit_game::solver::{InnerKind, OapSolver, SolverConfig};
use audit_runtime::{AuditService, DriftConfig, RuntimeConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Monte-Carlo samples per conformance cell — small on purpose: the suite
/// runs in debug CI, and golden comparison needs determinism, not
/// statistical accuracy.
pub const CONFORMANCE_SAMPLES: usize = 40;

/// ISHM step size for the conformance cells (coarse, for speed).
pub const CONFORMANCE_EPSILON: f64 = 0.4;

/// Tractability gates of the matrix, shared with the solver's planner so
/// the conformance harness and `InnerKind::Auto` can never disagree about
/// where a tier ends: `EXACT_MAX_TYPES` bounds the `ishm-exact` cells
/// (the exact inner enumerates `|T|!` audit orders per threshold vector —
/// the registry's 7-type EMR scenarios would need 5040), and
/// `ISHM_FULL_MAX_TYPES` bounds the `ishm-cggs` cells (past it the full
/// un-capped ISHM outer search is the planner's job).
pub use audit_game::planner::{EXACT_MAX_TYPES, ISHM_FULL_MAX_TYPES};

/// One solver configuration of the conformance matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverMode {
    /// Plain CGGS at the canonical threshold vector (no threshold search).
    Cggs,
    /// ISHM threshold search over the exact order enumeration.
    IshmExact,
    /// ISHM threshold search over the CGGS inner solver.
    IshmCggs,
    /// The hardness-aware planner (`InnerKind::Auto`): strategy selection
    /// plus type-cluster decomposition. Only materialized past the
    /// full-ISHM gate — below it the planner picks the same strategies
    /// the other modes already pin, so the cell would be a duplicate.
    Planner,
}

impl SolverMode {
    /// Every mode, in snapshot order.
    pub const ALL: [SolverMode; 4] = [
        SolverMode::Cggs,
        SolverMode::IshmExact,
        SolverMode::IshmCggs,
        SolverMode::Planner,
    ];

    /// Stable snapshot key.
    pub fn key(&self) -> &'static str {
        match self {
            SolverMode::Cggs => "cggs",
            SolverMode::IshmExact => "ishm-exact",
            SolverMode::IshmCggs => "ishm-cggs",
            SolverMode::Planner => "ishm-planner",
        }
    }

    /// Whether the mode runs for this game.
    pub fn applicable(&self, spec: &GameSpec) -> bool {
        match self {
            SolverMode::IshmExact => spec.n_types() <= EXACT_MAX_TYPES,
            SolverMode::IshmCggs => spec.n_types() <= ISHM_FULL_MAX_TYPES,
            SolverMode::Planner => spec.n_types() > ISHM_FULL_MAX_TYPES,
            SolverMode::Cggs => true,
        }
    }

    /// The `#[ignore]`-style marker for an inapplicable mode, or `None`
    /// when the omission is definitional rather than an intractability
    /// skip: the planner cell simply does not exist below the full-ISHM
    /// gate (it would duplicate `ishm-cggs`), and plain CGGS always runs.
    pub fn skip_reason(&self, spec: &GameSpec) -> Option<String> {
        match self {
            SolverMode::IshmExact => Some(format!(
                "{} alert types exceed EXACT_MAX_TYPES = {EXACT_MAX_TYPES}: the exact inner \
                 enumerates |T|! audit orders per threshold vector",
                spec.n_types()
            )),
            SolverMode::IshmCggs => Some(format!(
                "{} alert types exceed ISHM_FULL_MAX_TYPES = {ISHM_FULL_MAX_TYPES}: the \
                 un-capped ISHM outer search sweeps C(|T|, l) shrink subsets per level; \
                 the ishm-planner cell covers this width",
                spec.n_types()
            )),
            SolverMode::Cggs | SolverMode::Planner => None,
        }
    }
}

/// Snapshot key of a detection model.
pub fn detection_key(model: DetectionModel) -> &'static str {
    match model {
        DetectionModel::PaperApprox => "paper-approx",
        DetectionModel::AttackInclusive => "attack-inclusive",
        DetectionModel::Operational => "operational",
    }
}

/// The detection models of the conformance matrix, in snapshot order.
pub const DETECTION_MODELS: [DetectionModel; 3] = [
    DetectionModel::PaperApprox,
    DetectionModel::AttackInclusive,
    DetectionModel::Operational,
];

/// One solved cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Solver mode key.
    pub solver: &'static str,
    /// Detection model key.
    pub detection: &'static str,
    /// Objective value (auditor's loss).
    pub objective: f64,
    /// Threshold vector (budget units) the solve settled on.
    pub thresholds: Vec<f64>,
}

/// A cell the matrix deliberately did not solve, with the reason — the
/// `#[ignore]`-style marker that replaces silent omission. Not part of
/// the golden serialization (goldens pin solved cells only); the
/// conformance suite prints these as explicit `ignored:` lines.
#[derive(Debug, Clone)]
pub struct SkippedCell {
    /// Solver mode key.
    pub solver: &'static str,
    /// Detection model key.
    pub detection: &'static str,
    /// Why the cell was skipped.
    pub reason: String,
}

/// The full conformance report of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Registry key.
    pub scenario: String,
    /// Seed the cells were solved at.
    pub seed: u64,
    /// `|T|` of the conformance-scale game.
    pub n_types: usize,
    /// `|E|` of the conformance-scale game.
    pub n_attackers: usize,
    /// Total actions of the conformance-scale game.
    pub n_actions: usize,
    /// Budget `B`.
    pub budget: f64,
    /// All solved cells, in matrix order.
    pub cells: Vec<Cell>,
    /// Cells deliberately skipped as intractable, with reasons.
    pub skipped: Vec<SkippedCell>,
}

/// The canonical fixed threshold vector for the plain-CGGS cells: full
/// coverage per type, capped by the budget.
pub fn canonical_thresholds(spec: &GameSpec) -> Vec<f64> {
    spec.threshold_upper_bounds()
        .into_iter()
        .map(|b| b.min(spec.budget))
        .collect()
}

/// Solve one cell.
pub fn run_cell(
    spec: &GameSpec,
    mode: SolverMode,
    model: DetectionModel,
    seed: u64,
) -> Result<Cell, GameError> {
    let (objective, thresholds) = match mode {
        SolverMode::Cggs => {
            let working = spec.dedup_actions();
            let bank = working.sample_bank(CONFORMANCE_SAMPLES, seed);
            let est = DetectionEstimator::new(&working, &bank, model);
            let thresholds = canonical_thresholds(&working);
            let out = Cggs::default().solve(&working, &est, &thresholds)?;
            (out.master.value, thresholds)
        }
        SolverMode::IshmExact | SolverMode::IshmCggs | SolverMode::Planner => {
            let inner = match mode {
                SolverMode::IshmExact => InnerKind::Exact,
                SolverMode::IshmCggs => InnerKind::Cggs,
                _ => InnerKind::Auto,
            };
            let sol = OapSolver::new(SolverConfig {
                epsilon: CONFORMANCE_EPSILON,
                n_samples: CONFORMANCE_SAMPLES,
                seed,
                inner,
                detection: model,
                dedup_actions: true,
                threads: 1,
                work_budget: None,
            })
            .solve(spec)?;
            (sol.loss, sol.policy.thresholds)
        }
    };
    Ok(Cell {
        solver: mode.key(),
        detection: detection_key(model),
        objective,
        thresholds,
    })
}

/// Solve one quantal-response cell: ISHM over the QR loss, exact order
/// enumeration. The spec is **not** dedup'd — duplicate actions each carry
/// logit probability mass, so deduplication would change the objective.
fn run_qr_cell(
    spec: &GameSpec,
    qr: QuantalResponse,
    model: DetectionModel,
    seed: u64,
) -> Result<Cell, GameError> {
    let bank = spec.sample_bank(CONFORMANCE_SAMPLES, seed);
    let est = DetectionEstimator::new(spec, &bank, model);
    let out = solve_qr_thresholds(spec, &est, qr, CONFORMANCE_EPSILON)?;
    Ok(Cell {
        solver: "ishm-qr",
        detection: detection_key(model),
        objective: out.value,
        thresholds: out.thresholds,
    })
}

/// Solve one general-sum cell: ISHM minimizing auditor damage over the
/// exact order enumeration. The cell pins the damage-optimal thresholds
/// and, as its objective, [`IshmOutcome::value`]: the zero-sum master
/// value at those thresholds, not the damage there.
///
/// [`IshmOutcome::value`]: audit_game::ishm::IshmOutcome::value
fn run_gsum_cell(
    spec: &GameSpec,
    damage: DamageModel,
    model: DetectionModel,
    seed: u64,
) -> Result<Cell, GameError> {
    let bank = spec.sample_bank(CONFORMANCE_SAMPLES, seed);
    let est = DetectionEstimator::new(spec, &bank, model);
    let mut eval = ExactEvaluator::against(spec, est, AttackerModel::GeneralSum(damage));
    let out = Ishm::new(IshmConfig {
        epsilon: CONFORMANCE_EPSILON,
        ..Default::default()
    })
    .solve(spec, &mut eval)?;
    Ok(Cell {
        solver: "ishm-gsum",
        detection: detection_key(model),
        objective: out.value,
        thresholds: out.thresholds,
    })
}

/// Solve one adaptive-attacker cell: a short deterministic
/// [`AuditService`] run (4 epochs, staleness-forced re-solves) with the
/// scenario's adaptive attackers injecting traffic; the cell pins the
/// final committed objective and thresholds.
fn run_adaptive_cell(
    sc: &Arc<dyn Scenario>,
    model: DetectionModel,
    seed: u64,
) -> Result<Cell, GameError> {
    let report = AuditService::new(
        Arc::clone(sc),
        RuntimeConfig {
            epochs: 4,
            periods_per_epoch: 3,
            seed,
            solver: SolverConfig {
                epsilon: CONFORMANCE_EPSILON,
                n_samples: CONFORMANCE_SAMPLES,
                seed,
                inner: InnerKind::Cggs,
                detection: model,
                dedup_actions: true,
                threads: 1,
                work_budget: None,
            },
            drift: DriftConfig {
                window_periods: 6,
                max_stale_epochs: Some(2),
                ..Default::default()
            },
        },
    )
    .run()?;
    let last = report
        .epochs
        .last()
        .expect("service ran at least one epoch");
    Ok(Cell {
        solver: "adaptive-soak",
        detection: detection_key(model),
        objective: last.objective,
        thresholds: last.thresholds.clone(),
    })
}

/// Solve the full conformance matrix of one scenario (at its small scale
/// and default seed): the three standard solver modes, plus the cells of
/// the scenario's declared attacker model. Intractable cells are recorded
/// in [`ScenarioReport::skipped`] with reasons instead of silently
/// omitted.
pub fn run_scenario(sc: &Arc<dyn Scenario>) -> Result<ScenarioReport, GameError> {
    let seed = sc.default_seed();
    let spec = sc.build_small(seed)?;
    let exact_skip_reason = || {
        SolverMode::IshmExact
            .skip_reason(&spec)
            .expect("ishm-exact always has a skip reason")
    };
    let mut cells = Vec::new();
    let mut skipped = Vec::new();
    for mode in SolverMode::ALL {
        if !mode.applicable(&spec) {
            if let Some(reason) = mode.skip_reason(&spec) {
                for model in DETECTION_MODELS {
                    skipped.push(SkippedCell {
                        solver: mode.key(),
                        detection: detection_key(model),
                        reason: reason.clone(),
                    });
                }
            }
            continue;
        }
        for model in DETECTION_MODELS {
            cells.push(run_cell(&spec, mode, model, seed)?);
        }
    }
    match sc.attacker_model() {
        AttackerModel::Rational => {}
        AttackerModel::Quantal(qr) => {
            for model in DETECTION_MODELS {
                if spec.n_types() <= EXACT_MAX_TYPES {
                    cells.push(run_qr_cell(&spec, qr, model, seed)?);
                } else {
                    skipped.push(SkippedCell {
                        solver: "ishm-qr",
                        detection: detection_key(model),
                        reason: exact_skip_reason(),
                    });
                }
            }
        }
        AttackerModel::GeneralSum(damage) => {
            for model in DETECTION_MODELS {
                if spec.n_types() <= EXACT_MAX_TYPES {
                    cells.push(run_gsum_cell(&spec, damage, model, seed)?);
                } else {
                    skipped.push(SkippedCell {
                        solver: "ishm-gsum",
                        detection: detection_key(model),
                        reason: exact_skip_reason(),
                    });
                }
            }
        }
        AttackerModel::Adaptive(_) => {
            for model in DETECTION_MODELS {
                cells.push(run_adaptive_cell(sc, model, seed)?);
            }
        }
    }
    Ok(ScenarioReport {
        scenario: sc.key().to_string(),
        seed,
        n_types: spec.n_types(),
        n_attackers: spec.n_attackers(),
        n_actions: spec.n_actions(),
        budget: spec.budget,
        cells,
        skipped,
    })
}

impl ScenarioReport {
    /// Serialize to the golden JSON format.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("scenario", Value::Str(self.scenario.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("n_types", Value::Num(self.n_types as f64)),
            ("n_attackers", Value::Num(self.n_attackers as f64)),
            ("n_actions", Value::Num(self.n_actions as f64)),
            ("budget", Value::Num(self.budget)),
            (
                "cells",
                Value::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Value::obj([
                                ("solver", Value::Str(c.solver.to_string())),
                                ("detection", Value::Str(c.detection.to_string())),
                                ("objective", Value::Num(c.objective)),
                                ("thresholds", Value::nums(c.thresholds.iter().copied())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Compare the golden rendering — `to_json().render()`, exactly the
    /// bytes `UPDATE_GOLDEN=1` writes — with a snapshot's bytes. `Err`
    /// lists every differing line by its 1-based number, with the golden
    /// version and the rendered one.
    pub fn check_golden(&self, golden: &str) -> Result<(), String> {
        let rendered = self.to_json().render();
        if rendered == golden {
            return Ok(());
        }
        let golden: Vec<&str> = golden.lines().collect();
        let got: Vec<&str> = rendered.lines().collect();
        let problems: Vec<String> = (0..golden.len().max(got.len()))
            .filter(|&i| golden.get(i) != got.get(i))
            .map(|i| {
                let [want, have] = [&golden, &got].map(|l| l.get(i).copied().unwrap_or("<none>"));
                format!("line {}:\n  golden: {want}\n  got:    {have}", i + 1)
            })
            .collect();
        if problems.is_empty() {
            return Err(
                "every line matches, but the line endings or the final newline differ".into(),
            );
        }
        Err(problems.join("\n"))
    }
}

/// Directory holding the committed golden snapshots.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Path of one scenario's snapshot.
pub fn golden_path(scenario_key: &str) -> PathBuf {
    golden_dir().join(format!("{scenario_key}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_and_models_have_stable_keys() {
        assert_eq!(
            SolverMode::ALL.map(|m| m.key()),
            ["cggs", "ishm-exact", "ishm-cggs", "ishm-planner"]
        );
        assert_eq!(
            DETECTION_MODELS.map(detection_key),
            ["paper-approx", "attack-inclusive", "operational"]
        );
    }

    #[test]
    fn exact_mode_gates_on_type_count() {
        let small = audit_game::datasets::syn_a(); // 4 types
        assert!(SolverMode::IshmExact.applicable(&small));
        assert!(SolverMode::Cggs.applicable(&small));
        // Below the full-ISHM gate the planner cell is definitionally
        // absent — no skip marker, because nothing tractable was skipped.
        assert!(!SolverMode::Planner.applicable(&small));
        assert!(SolverMode::Planner.skip_reason(&small).is_none());
    }

    #[test]
    fn planner_mode_takes_over_past_the_full_ishm_gate() {
        let reg = audit_game::scenario::registry();
        let wide = reg.get("syn-wide25").unwrap();
        let spec = wide.build_small(wide.default_seed()).unwrap();
        assert!(spec.n_types() > ISHM_FULL_MAX_TYPES);
        assert!(SolverMode::Planner.applicable(&spec));
        assert!(!SolverMode::IshmCggs.applicable(&spec));
        let reason = SolverMode::IshmCggs.skip_reason(&spec).unwrap();
        assert!(
            reason.contains("ISHM_FULL_MAX_TYPES") && reason.contains("ishm-planner"),
            "reason should name the gate and the successor: {reason}"
        );
    }

    /// The golden comparison is byte for byte: a one-ulp drift in one
    /// objective, or in one threshold, fails it and names the line.
    #[test]
    fn one_ulp_drift_fails_the_golden_comparison() {
        let report = ScenarioReport {
            scenario: "hand-built".into(),
            seed: 7,
            n_types: 2,
            n_attackers: 1,
            n_actions: 2,
            budget: 2.0,
            cells: vec![Cell {
                solver: "cggs",
                detection: "paper-approx",
                objective: 12.374088811889944,
                thresholds: vec![2.0, 1.5],
            }],
            skipped: Vec::new(),
        };
        let golden = report.to_json().render();
        report.check_golden(&golden).unwrap();
        let line_of = |text: &str| 1 + golden.lines().position(|l| l.contains(text)).unwrap();
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);

        let mut drifted = report.clone();
        drifted.cells[0].objective = next_up(drifted.cells[0].objective);
        let err = drifted.check_golden(&golden).unwrap_err();
        assert_eq!(
            err,
            format!(
                "line {}:\n  golden:       \"objective\": 12.374088811889944,\n  \
                 got:          \"objective\": 12.374088811889946,",
                line_of("objective")
            )
        );

        let mut drifted = report.clone();
        drifted.cells[0].thresholds[1] = next_up(1.5);
        let err = drifted.check_golden(&golden).unwrap_err();
        assert_eq!(
            err,
            format!(
                "line {}:\n  golden:         1.5\n  got:            1.5000000000000002",
                line_of("1.5")
            )
        );

        // Equal lines under other line endings are still other bytes.
        let err = report
            .check_golden(&golden.replace('\n', "\r\n"))
            .unwrap_err();
        assert!(err.contains("line endings"), "{err}");
    }

    #[test]
    fn intractable_exact_cells_are_marked_skipped_not_omitted() {
        use audit_game::model::{AttackAction, Attacker, GameSpecBuilder};
        use stochastics::Constant;

        /// A synthetic 6-type scenario: one past the exact-inner gate.
        struct SixTypes;
        impl Scenario for SixTypes {
            fn key(&self) -> &str {
                "test-six-types"
            }
            fn source(&self) -> &str {
                "core"
            }
            fn describe(&self) -> String {
                "6 constant types, forces the ishm-exact skip path".into()
            }
            fn build(&self, _seed: u64) -> Result<GameSpec, GameError> {
                let mut b = GameSpecBuilder::new();
                for t in 0..6 {
                    b.alert_type(format!("t{t}"), 1.0, std::sync::Arc::new(Constant(1)));
                }
                b.attacker(Attacker::new(
                    "e0",
                    1.0,
                    vec![AttackAction::deterministic("v0", 0, 5.0, 0.4, 4.0)],
                ));
                b.budget(2.0);
                b.build()
            }
        }

        let sc: Arc<dyn Scenario> = Arc::new(SixTypes);
        let report = run_scenario(&sc).unwrap();
        // 2 tractable modes x 3 detection models solved ...
        assert_eq!(report.cells.len(), 6);
        assert!(report.cells.iter().all(|c| c.solver != "ishm-exact"));
        // ... and the 3 ishm-exact cells are explicit skip markers.
        assert_eq!(report.skipped.len(), 3);
        for s in &report.skipped {
            assert_eq!(s.solver, "ishm-exact");
            assert!(
                s.reason.contains("EXACT_MAX_TYPES") && s.reason.contains('6'),
                "reason should name the gate: {}",
                s.reason
            );
        }
        // Skip markers stay out of the golden serialization.
        let json = report.to_json().render();
        assert!(!json.contains("skipped") && !json.contains("ishm-exact"));
    }
}
