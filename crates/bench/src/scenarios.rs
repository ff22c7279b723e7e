//! Scenario resolution for the `exp_*` binaries.
//!
//! Every experiment driver accepts a `--scenario <key>` flag (anywhere on
//! the command line) selecting a registry scenario as the base game; the
//! remaining positional arguments keep their historical meaning.
//! [`crate::cli::take_scenario_flag`] extracts the flag; this module
//! resolves the key against the full cross-crate registry and offers the
//! quick registry-wide sweep that `exp_all` runs.

use crate::report::{f4, Table};
use alert_audit::scenario::{registry, Scenario};
use audit_game::error::GameError;
use audit_game::model::GameSpec;
use audit_game::parallel::parallel_map_indexed;
use audit_game::solver::{OapSolver, SolverConfig};
use std::sync::Arc;

/// Resolve a scenario key (defaulting when the flag was absent) and build
/// its full-scale game at `seed`. Exits with the known-key list on an
/// unknown key.
pub fn resolve_base_spec(key: Option<String>, default_key: &str, seed: u64) -> (String, GameSpec) {
    let key = key.unwrap_or_else(|| default_key.to_string());
    let reg = registry();
    let scenario = reg.resolve(&key).unwrap_or_else(|e| panic!("{e}")).clone();
    let spec = scenario
        .build(seed)
        .unwrap_or_else(|e| panic!("scenario '{key}' failed to build: {e}"));
    eprintln!("scenario {key}: {}", scenario.describe());
    (key, spec)
}

/// One row of the registry sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Registry key.
    pub key: String,
    /// Substrate that generated the workload.
    pub source: String,
    /// `|T|`, `|E|`, and total actions of the solved (small) game.
    pub shape: (usize, usize, usize),
    /// Budget the scenario ships with.
    pub budget: f64,
    /// ISHM+CGGS loss at the scenario's suggested ε.
    pub loss: f64,
}

/// Solve every registry scenario at conformance scale with ISHM+CGGS —
/// the "does every workload still flow end to end" sweep of `exp_all`.
/// The scenarios run `threads` at a time; rows come back in registry
/// order.
pub fn registry_sweep(n_samples: usize, threads: usize) -> Result<Vec<SweepRow>, GameError> {
    let scenarios: Vec<Arc<dyn Scenario>> = registry().iter().cloned().collect();
    parallel_map_indexed(threads, &scenarios, |_, sc| {
        let spec = sc.build_small(sc.default_seed())?;
        let solution = OapSolver::new(SolverConfig {
            epsilon: sc.suggested_epsilon(),
            n_samples,
            seed: sc.default_seed(),
            ..Default::default()
        })
        .solve(&spec)?;
        Ok(SweepRow {
            key: sc.key().to_string(),
            source: sc.source().to_string(),
            shape: (spec.n_types(), spec.n_attackers(), spec.n_actions()),
            budget: spec.budget,
            loss: solution.loss,
        })
    })
    .into_iter()
    .collect()
}

/// Render the sweep as a table.
pub fn render_sweep(rows: &[SweepRow]) -> String {
    let mut t = Table::new(vec![
        "scenario", "source", "|T|", "|E|", "actions", "B", "loss",
    ]);
    for r in rows {
        t.row(vec![
            r.key.clone(),
            r.source.clone(),
            format!("{}", r.shape.0),
            format!("{}", r.shape.1),
            format!("{}", r.shape.2),
            format!("{}", r.budget),
            f4(r.loss),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::take_scenario_flag;

    #[test]
    fn flag_extraction_handles_both_spellings() {
        let mut args = vec!["2,4".to_string(), "--scenario".into(), "syn-a".into()];
        assert_eq!(take_scenario_flag(&mut args).as_deref(), Some("syn-a"));
        assert_eq!(args, vec!["2,4".to_string()]);

        let mut args = vec!["--scenario=emr-reaa".to_string(), "40".into()];
        assert_eq!(take_scenario_flag(&mut args).as_deref(), Some("emr-reaa"));
        assert_eq!(args, vec!["40".to_string()]);

        let mut args = vec!["40".to_string()];
        assert_eq!(take_scenario_flag(&mut args), None);
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn default_key_is_used_when_flag_absent() {
        let (key, spec) = resolve_base_spec(None, "syn-a", 0);
        assert_eq!(key, "syn-a");
        assert_eq!(spec.n_types(), 4);
    }

    #[test]
    #[should_panic]
    fn unknown_key_panics_with_known_list() {
        resolve_base_spec(Some("not-a-scenario".into()), "syn-a", 0);
    }
}
