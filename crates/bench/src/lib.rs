//! Experiment harness for the alert-audit reproduction.
//!
//! One binary per table/figure of the paper (see `src/bin/`), built on the
//! shared runners in this library:
//!
//! * [`report`] — plain-text/markdown table rendering, including the
//!   Table IV/V grid;
//! * [`syn_experiments`] — synthetic-grid sweeps (Tables III–VII, Section
//!   IV.C) over any base scenario;
//! * [`real_experiments`] — budget sweeps with baselines (Figures 1–2);
//! * [`scenarios`] — scenario resolution and the registry-wide sweep;
//! * [`cli`] — the binaries' shared command-line dialect (flag and
//!   positional parsing, the grid drivers' layout, `--scenario` handling,
//!   `--cache-stats` rendering);
//! * [`defaults`] — the budget grids and seeds shared across binaries.
//!
//! Every zero-sum solve these runners make goes through
//! `audit_game::solver::OapSolver`, configured by its `SolverConfig`;
//! only Table III's brute-force optimum and the baselines work below it
//! (as does `exp_attacker`, which scores one bank under two objectives).
//! A runner that makes many independent solves runs them on one
//! `audit_game::parallel::parallel_map_indexed` whose width is the
//! driver's `[threads]` argument (default: the host's available cores),
//! and each solve uses one engine thread, so the width is the run's only
//! parallelism and never changes a result. Every runner takes explicit
//! seeds and sample counts so results are reproducible; the binaries print
//! the same rows/series the paper reports, and each accepts
//! `--scenario <key>` to re-run its experiment on any scenario from
//! `alert_audit::scenario::registry()`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cli;
pub mod defaults;
pub mod real_experiments;
pub mod report;
pub mod scenarios;
pub mod syn_experiments;
