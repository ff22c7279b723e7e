//! Error types for LP solving.

use std::fmt;

/// Why an LP could not be solved to optimality.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// No point satisfies all constraints and bounds. The payload is the
    /// residual phase-1 objective (total constraint violation at the best
    /// attainable point) — useful when diagnosing near-feasible models.
    Infeasible {
        /// Residual infeasibility (sum of artificial variables).
        residual: f64,
    },
    /// The objective can be improved without bound. The payload names the
    /// tableau column whose recession direction proves unboundedness.
    Unbounded {
        /// Internal column index certifying the unbounded ray.
        column: usize,
    },
    /// The pivot loop exceeded its budget of 100,000 pivots across both
    /// phases.
    IterationLimit {
        /// Number of pivots performed before giving up.
        iterations: usize,
    },
    /// A model-construction error (e.g. contradictory bounds `lo > hi`).
    InvalidModel(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible { residual } => {
                write!(f, "LP is infeasible (residual violation {residual:.3e})")
            }
            LpError::Unbounded { column } => {
                write!(f, "LP is unbounded (ray through column {column})")
            }
            LpError::IterationLimit { iterations } => {
                write!(
                    f,
                    "simplex iteration limit reached after {iterations} pivots"
                )
            }
            LpError::InvalidModel(msg) => write!(f, "invalid LP model: {msg}"),
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let s = LpError::Infeasible { residual: 0.5 }.to_string();
        assert!(s.contains("infeasible"));
        let s = LpError::Unbounded { column: 3 }.to_string();
        assert!(s.contains("unbounded"));
        let s = LpError::IterationLimit { iterations: 10 }.to_string();
        assert!(s.contains("10"));
        let s = LpError::InvalidModel("bad".into()).to_string();
        assert!(s.contains("bad"));
    }
}
