//! Golden cross-solver conformance net.
//!
//! For every scenario in the full registry, solve the conformance-scale
//! game with every applicable (solver mode × detection model) cell and
//! compare objective values and thresholds against the committed
//! snapshots in `tests/golden/<key>.json`. The whole pipeline — scenario
//! generators, sample banks, detection engine, LP, CGGS, ISHM — is
//! deterministic, so any drift in any number on any scenario fails here
//! with a precise diff.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test scenario_conformance
//! ```
//!
//! CI runs the suite in release mode and then verifies regeneration is a
//! no-op, so stale snapshots cannot land.

use alert_audit::conformance::{golden_dir, golden_path, run_scenario};
use alert_audit::json::Value;
use alert_audit::scenario::registry;

fn update_mode() -> bool {
    std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// One test per registry scenario would need a proc macro; instead run
/// the whole matrix and aggregate failures so a drift report shows every
/// broken cell at once.
#[test]
fn every_registry_scenario_matches_its_golden_snapshot() {
    let reg = registry();
    let update = update_mode();
    if update {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
    }
    let mut failures: Vec<String> = Vec::new();
    for sc in reg.iter() {
        let report = match run_scenario(sc) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{}: failed to solve: {e}", sc.key()));
                continue;
            }
        };
        // Intractable cells are explicit, not silent: surface each skip
        // the way `cargo test` surfaces an `#[ignore]`d test.
        for s in &report.skipped {
            eprintln!(
                "ignored: {} {}/{}: {}",
                sc.key(),
                s.solver,
                s.detection,
                s.reason
            );
        }
        let path = golden_path(sc.key());
        if update {
            std::fs::write(&path, report.to_json().render()).expect("write golden");
            eprintln!("regenerated {}", path.display());
            continue;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                failures.push(format!(
                    "{}: no golden snapshot at {} (run UPDATE_GOLDEN=1 to create)",
                    sc.key(),
                    path.display()
                ));
                continue;
            }
        };
        let golden = match Value::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                failures.push(format!("{}: golden file unparseable: {e}", sc.key()));
                continue;
            }
        };
        if let Err(diff) = report.compare_to_golden(&golden) {
            failures.push(format!("{} drifted:\n{diff}", sc.key()));
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
    use alert_audit::conformance::EXACT_MAX_TYPES;
    let reg = registry();
    for sc in reg.iter() {
        let spec = sc.build_small(sc.default_seed()).expect("build_small");
        let report = run_scenario(sc).expect("matrix solves");
        let solved_exact = report.cells.iter().any(|c| c.solver == "ishm-exact");
        let skipped_exact: Vec<_> = report
            .skipped
            .iter()
            .filter(|s| s.solver == "ishm-exact")
            .collect();
        if spec.n_types() > EXACT_MAX_TYPES {
            assert!(
                !solved_exact && skipped_exact.len() == 3,
                "{}: {} types must skip ishm-exact with 3 explicit markers (got {} markers)",
                sc.key(),
                spec.n_types(),
                skipped_exact.len()
            );
            assert!(
                ["emr-reaa", "emr-reaa-empirical", "syn-wide25", "syn-wide50"].contains(&sc.key()),
                "{}: unexpected scenario above the exact gate",
                sc.key()
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
                "{}: {} types must solve ishm-exact cells",
                sc.key(),
                spec.n_types()
            );
        }
    }
}

/// The strategic-attacker scenarios must pin their model-specific cells
/// in the golden net, on top of the standard matrix.
#[test]
fn strategic_scenarios_pin_their_model_cells() {
    if update_mode() {
        return; // files may be mid-regeneration
    }
    for (key, solver) in [
        ("syn-quantal", "ishm-qr"),
        ("syn-general-sum", "ishm-gsum"),
        ("syn-adaptive", "adaptive-soak"),
    ] {
        let text = std::fs::read_to_string(golden_path(key))
            .unwrap_or_else(|_| panic!("{key}: missing golden snapshot"));
        let golden = Value::parse(&text).expect("parseable golden");
        let cells = golden
            .get("cells")
            .and_then(Value::as_arr)
            .unwrap_or_default();
        for detection in ["paper-approx", "attack-inclusive", "operational"] {
            assert!(
                cells.iter().any(|c| {
                    c.get("solver").and_then(Value::as_str) == Some(solver)
                        && c.get("detection").and_then(Value::as_str) == Some(detection)
                }),
                "{key}: golden missing cell {solver}/{detection}"
            );
        }
    }
}

/// The acceptance floor of the substrate: at least 8 scenarios spanning
/// all four substrates, each with a committed snapshot covering at least
/// CGGS plus the width-appropriate ISHM mode (ISHM-CGGS up to the
/// full-ISHM gate, the planner's decomposed tier past it) under all
/// three detection models.
#[test]
fn registry_coverage_floor() {
    use alert_audit::conformance::ISHM_FULL_MAX_TYPES;
    let reg = registry();
    assert!(reg.len() >= 8, "registry shrank to {}", reg.len());
    if update_mode() {
        return; // files may be mid-regeneration
    }
    for sc in reg.iter() {
        let path = golden_path(sc.key());
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("{}: missing golden snapshot", sc.key()));
        let golden = Value::parse(&text).expect("parseable golden");
        let n_types = golden
            .get("n_types")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{}: golden lacks n_types", sc.key()))
            as usize;
        let ishm_mode = if n_types > ISHM_FULL_MAX_TYPES {
            "ishm-planner"
        } else {
            "ishm-cggs"
        };
        let cells = golden
            .get("cells")
            .and_then(Value::as_arr)
            .unwrap_or_default();
        for solver in ["cggs", ishm_mode] {
            for detection in ["paper-approx", "attack-inclusive", "operational"] {
                assert!(
                    cells.iter().any(|c| {
                        c.get("solver").and_then(Value::as_str) == Some(solver)
                            && c.get("detection").and_then(Value::as_str) == Some(detection)
                    }),
                    "{}: golden missing cell {solver}/{detection}",
                    sc.key()
                );
            }
        }
    }
}
