//! # alert-audit — game-theoretic prioritization of database auditing
//!
//! Umbrella crate for the reproduction of *Yan et al., "Get Your Workload
//! in Order: Game Theoretic Prioritization of Database Auditing"* (ICDE
//! 2018). It re-exports the workspace crates so downstream users can depend
//! on a single package:
//!
//! * [`game`] (`audit-game`) — the Stackelberg alert-prioritization game:
//!   model, detection math, CGGS, ISHM, brute force, baselines;
//! * [`lp`] (`lp-solver`) — the two-phase simplex substrate with duals;
//! * [`stochastics`] — count distributions and CRN sample banks;
//! * [`tdmt`] — the rule-based alert engine substrate;
//! * [`emr`] (`emrsim`) — the synthetic EMR workload (Rea A substitute);
//! * [`credit`] (`creditsim`) — the synthetic credit dataset (Rea B
//!   substitute).
//!
//! On top of the re-exports, this crate hosts the cross-crate glue:
//!
//! * [`runtime`] (`audit-runtime`) — the online epoch-based auditing
//!   service: streaming workload fits, drift-gated warm re-solving,
//!   structured telemetry;
//! * [`scenario`] — the full scenario registry assembling the core
//!   synthetic families with the `emrsim` / `creditsim` / `tdmt`
//!   workloads under string keys;
//! * [`conformance`] — the golden conformance harness solving every
//!   registry scenario under every solver/detection-model combination
//!   (snapshots in `tests/golden/`);
//! * [`json`] — the minimal JSON layer behind the snapshots (the
//!   workspace uses no serialization library);
//! * [`telemetry`] — JSON rendering of the runtime's epoch telemetry
//!   (the `exp_online` wire format and the `BENCH_runtime.json`
//!   artifact).
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.
//!
//! ## Quick start
//!
//! ```
//! use alert_audit::prelude::*;
//!
//! // The paper's synthetic game (Table II) at budget 4.
//! let spec = alert_audit::game::datasets::syn_a_with_budget(4.0);
//! let solver = OapSolver::new(SolverConfig { n_samples: 200, epsilon: 0.25, ..Default::default() });
//! let solution = solver.solve(&spec).unwrap();
//! assert!(solution.loss < spec.max_possible_loss());
//! ```

#![warn(missing_docs)]

pub use audit_game as game;
pub use audit_runtime as runtime;
pub use creditsim as credit;
pub use emrsim as emr;
pub use lp_solver as lp;
pub use stochastics;
pub use tdmt;

pub mod conformance;
pub mod json;
pub mod scenario;
pub mod telemetry;

/// One-stop re-exports for application code.
pub mod prelude {
    pub use audit_game::prelude::*;
}
