//! Solved-LP result type.

use crate::problem::{ConstrId, VarId};

/// The result of a successful LP solve.
///
/// Carries the optimal objective, the primal point in user variable order,
/// and one dual value (shadow price) per constraint in user constraint
/// order. Duals follow the *shadow price* convention: `duals[i]` is the
/// rate of change of the optimal objective as the right-hand side of
/// constraint `i` increases, for the problem **as stated** (minimization or
/// maximization alike).
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value of the stated problem.
    pub objective: f64,
    /// Primal values, indexed by [`VarId::index`].
    pub x: Vec<f64>,
    /// Dual values, indexed by [`ConstrId::index`].
    pub duals: Vec<f64>,
    /// Total simplex pivots across both phases.
    pub iterations: usize,
}

impl Solution {
    pub(crate) fn new(objective: f64, x: Vec<f64>, duals: Vec<f64>, iterations: usize) -> Self {
        Self {
            objective,
            x,
            duals,
            iterations,
        }
    }

    /// Primal value of a variable.
    pub fn value(&self, v: VarId) -> f64 {
        self.x[v.0]
    }

    /// Dual value (shadow price) of a constraint.
    pub fn dual(&self, c: ConstrId) -> f64 {
        self.duals[c.0]
    }

    /// Reduced cost `c_j − yᵀA_j` of a *candidate* column that is not in the
    /// model, given its objective coefficient and its coefficients in the
    /// existing constraints. This is the column-generation pricing primitive.
    pub fn reduced_cost_of_column(&self, obj_coeff: f64, coeffs: &[(ConstrId, f64)]) -> f64 {
        let mut rc = obj_coeff;
        for &(c, a) in coeffs {
            rc -= self.duals[c.0] * a;
        }
        rc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solution::new(5.0, vec![1.0, 2.0], vec![0.5], 3);
        assert_eq!(s.value(VarId(1)), 2.0);
        assert_eq!(s.dual(ConstrId(0)), 0.5);
        assert_eq!(s.iterations, 3);
    }

    #[test]
    fn reduced_cost_formula() {
        let s = Solution::new(0.0, vec![], vec![2.0, -1.0], 0);
        // rc = 3 − (2·1 + (−1)·4) = 3 − (−2) = 5.
        let rc = s.reduced_cost_of_column(3.0, &[(ConstrId(0), 1.0), (ConstrId(1), 4.0)]);
        assert!((rc - 5.0).abs() < 1e-12);
    }
}
