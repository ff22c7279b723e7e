//! Golden cross-solver conformance net.
//!
//! One pass over the full registry solves each scenario's
//! conformance-scale game in every applicable (solver mode × detection
//! model) cell, and the tests below check the reports of that pass. The
//! golden test compares each report's rendering with the committed
//! snapshot `tests/golden/<key>.json` byte for byte, so the same bytes
//! must come out of debug, release and x86-64-v2 builds. The whole
//! pipeline — scenario generators, sample banks, detection engine, LP,
//! CGGS, ISHM — is deterministic, so a one-ulp drift in any number on any
//! scenario fails here, listing each differing line.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test scenario_conformance
//! ```
//!
//! CI also regenerates the snapshots in release mode and diffs them, so
//! the `UPDATE_GOLDEN` path itself stays a no-op on committed goldens.

use alert_audit::conformance::{
    golden_dir, golden_path, run_scenario, ScenarioReport, EXACT_MAX_TYPES, ISHM_FULL_MAX_TYPES,
};
use alert_audit::scenario::registry;
use std::sync::OnceLock;

fn update_mode() -> bool {
    std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The one pass over the registry, in registry order: each scenario's
/// report, or why it failed to solve. Every test below reads this pass,
/// so the suite solves each scenario once.
fn registry_pass() -> &'static [Result<ScenarioReport, String>] {
    static PASS: OnceLock<Vec<Result<ScenarioReport, String>>> = OnceLock::new();
    PASS.get_or_init(|| {
        registry()
            .iter()
            .map(|sc| run_scenario(sc).map_err(|e| format!("{}: failed to solve: {e}", sc.key())))
            .collect()
    })
}

/// The reports of the pass; panics on a scenario that failed to solve
/// (the golden test lists every such failure).
fn reports() -> impl Iterator<Item = &'static ScenarioReport> {
    registry_pass()
        .iter()
        .map(|r| r.as_ref().unwrap_or_else(|e| panic!("{e}")))
}

/// Whether a report holds the `solver` cell under every detection model.
fn has_cells(report: &ScenarioReport, solver: &str) -> bool {
    ["paper-approx", "attack-inclusive", "operational"]
        .iter()
        .all(|d| {
            report
                .cells
                .iter()
                .any(|c| c.solver == solver && c.detection == *d)
        })
}

/// One test per registry scenario would need a proc macro; instead check
/// the whole pass and aggregate failures so a drift report shows every
/// broken scenario at once.
#[test]
fn every_registry_scenario_matches_its_golden_snapshot() {
    let update = update_mode();
    if update {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
    }
    let mut failures: Vec<String> = Vec::new();
    for result in registry_pass() {
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                failures.push(e.clone());
                continue;
            }
        };
        let key = &report.scenario;
        // Intractable cells are explicit, not silent: surface each skip
        // the way `cargo test` surfaces an `#[ignore]`d test.
        for s in &report.skipped {
            eprintln!("ignored: {key} {}/{}: {}", s.solver, s.detection, s.reason);
        }
        let path = golden_path(key);
        if update {
            std::fs::write(&path, report.to_json().render()).expect("write golden");
            eprintln!("regenerated {}", path.display());
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(golden) => {
                if let Err(diff) = report.check_golden(&golden) {
                    failures.push(format!("{key} differs from {}:\n{diff}", path.display()));
                }
            }
            Err(_) => failures.push(format!(
                "{key}: no golden snapshot at {} (run UPDATE_GOLDEN=1 to create)",
                path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "conformance failures:\n{}",
        failures.join("\n---\n")
    );
}

/// Every snapshot on disk must correspond to a registered scenario —
/// deleting or renaming a scenario without retiring its golden file is an
/// error (dead snapshots would silently stop guarding anything).
#[test]
fn no_stray_golden_snapshots() {
    let reg = registry();
    let keys: Vec<String> = reg.keys().iter().map(|k| k.to_string()).collect();
    let dir = golden_dir();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(_) => return, // no goldens yet (fresh checkout mid-update)
    };
    for entry in entries {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().to_string();
        if name.ends_with(".snap") {
            // The persistence layer pins its on-disk byte layout with one
            // binary golden per format version (see tests/persist_roundtrip.rs).
            // A version bump must retire the old file alongside adding the
            // new one, or the stale pin would linger here unguarded.
            let want = format!(
                "persist_format_v{}.snap",
                alert_audit::stochastics::snapshot::FORMAT_VERSION
            );
            assert_eq!(
                name, want,
                "stray binary golden {name}: the current format golden is {want}"
            );
            continue;
        }
        let Some(stem) = name.strip_suffix(".json") else {
            panic!("unexpected file in tests/golden: {name}");
        };
        assert!(
            keys.iter().any(|k| k == stem),
            "stray golden snapshot {name}: no scenario with key '{stem}'"
        );
    }
}

/// The ISHM exact-inner gate must be *explicit*: every registry scenario
/// either solves the ishm-exact cells or reports them as skipped with a
/// reason naming the gate — and the skip must fire exactly for the
/// scenarios whose conformance-scale game exceeds `EXACT_MAX_TYPES`.
#[test]
fn ishm_exact_gating_is_explicit() {
    for report in reports() {
        let key = report.scenario.as_str();
        let solved_exact = report.cells.iter().any(|c| c.solver == "ishm-exact");
        let skipped_exact: Vec<_> = report
            .skipped
            .iter()
            .filter(|s| s.solver == "ishm-exact")
            .collect();
        if report.n_types > EXACT_MAX_TYPES {
            assert!(
                !solved_exact && skipped_exact.len() == 3,
                "{key}: {} types must skip ishm-exact with 3 explicit markers (got {} markers)",
                report.n_types,
                skipped_exact.len()
            );
            assert!(
                ["emr-reaa", "emr-reaa-empirical", "syn-wide25", "syn-wide50"].contains(&key),
                "{key}: unexpected scenario above the exact gate"
            );
            for s in &skipped_exact {
                assert!(
                    s.reason.contains("EXACT_MAX_TYPES"),
                    "vague reason: {}",
                    s.reason
                );
            }
        } else {
            assert!(
                solved_exact && skipped_exact.is_empty(),
                "{key}: {} types must solve ishm-exact cells",
                report.n_types
            );
        }
    }
}

/// The strategic-attacker scenarios must pin their model-specific cells
/// in the golden net, on top of the standard matrix.
#[test]
fn strategic_scenarios_pin_their_model_cells() {
    for (key, solver) in [
        ("syn-quantal", "ishm-qr"),
        ("syn-general-sum", "ishm-gsum"),
        ("syn-adaptive", "adaptive-soak"),
    ] {
        let report = reports()
            .find(|r| r.scenario == key)
            .unwrap_or_else(|| panic!("{key}: not in the registry"));
        assert!(
            has_cells(report, solver),
            "{key}: report lacks a {solver} cell per detection model"
        );
    }
}

/// The acceptance floor of the substrate: at least 8 scenarios spanning
/// all four substrates, each covering at least CGGS plus the
/// width-appropriate ISHM mode (ISHM-CGGS up to the full-ISHM gate, the
/// planner's decomposed tier past it) under all three detection models.
#[test]
fn registry_coverage_floor() {
    assert!(
        registry_pass().len() >= 8,
        "registry shrank to {}",
        registry_pass().len()
    );
    for report in reports() {
        let ishm_mode = if report.n_types > ISHM_FULL_MAX_TYPES {
            "ishm-planner"
        } else {
            "ishm-cggs"
        };
        for solver in ["cggs", ishm_mode] {
            assert!(
                has_cells(report, solver),
                "{}: report lacks a {solver} cell per detection model",
                report.scenario
            );
        }
    }
}
