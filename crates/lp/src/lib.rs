//! A self-contained dense linear-programming solver.
//!
//! The alert-prioritization game of Yan et al. (ICDE 2018) is solved through
//! a sequence of linear programs whose *dual values* drive column generation
//! (Algorithm 1, CGGS). Off-the-shelf Rust LP crates either lack dual
//! extraction or are unsuitable for the Stackelberg master/subproblem loop,
//! so this crate implements the classic **two-phase primal simplex** on a
//! dense tableau from scratch:
//!
//! * arbitrary variable bounds (finite/infinite lower and upper),
//! * `≤`, `=`, `≥` constraints, minimization or maximization,
//! * Dantzig pricing with an automatic switch to Bland's rule to break
//!   cycling on degenerate problems,
//! * primal solution, optimal basis, **and dual values / shadow prices**
//!   read off the final tableau — the ingredient CGGS needs for reduced
//!   costs,
//! * careful infeasibility / unboundedness reporting.
//!
//! The implementation favours clarity and numerical robustness over raw
//! speed: the tableau is dense (`O(m·n)` per pivot), which is the right
//! trade-off for the game master problems in this workspace (at most a few
//! hundred rows once the game is expressed in its attacker-mixture
//! orientation; see `audit-game`'s LP formulation module).
//!
//! # Example
//!
//! ```
//! use lp_solver::{Problem, Relation, Sense};
//!
//! // max 3x + 5y  s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 3.0, 0.0, f64::INFINITY);
//! let y = p.add_var("y", 5.0, 0.0, f64::INFINITY);
//! p.add_constraint("c1", vec![(x, 1.0)], Relation::Le, 4.0);
//! p.add_constraint("c2", vec![(y, 2.0)], Relation::Le, 12.0);
//! p.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 36.0).abs() < 1e-9);
//! assert!((sol.value(x) - 2.0).abs() < 1e-9);
//! assert!((sol.value(y) - 6.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod error;
mod problem;
mod simplex;
mod solution;

pub use error::LpError;
pub use problem::{ConstrId, Problem, Relation, Sense, VarId};
pub use simplex::SimplexOptions;
pub use solution::Solution;
