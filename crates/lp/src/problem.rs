//! LP model builder: variables, bounds, constraints, objective sense.

use crate::error::LpError;
use crate::simplex;
use crate::solution::Solution;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
}

/// Handle to a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Positional index of the variable in insertion order.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Handle to a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstrId(pub(crate) usize);

impl ConstrId {
    /// Positional index of the constraint in insertion order.
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Var {
    pub name: String,
    pub obj: f64,
    pub lo: f64,
    pub hi: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub name: String,
    pub terms: Vec<(usize, f64)>,
    pub rel: Relation,
    pub rhs: f64,
}

/// A linear program under construction.
///
/// Variables and constraints are appended; [`Problem::solve`] runs the
/// two-phase simplex and returns a [`Solution`] carrying primal values,
/// the objective, and dual values (shadow prices) per constraint.
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Var>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Start an empty model with the given objective sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Convenience constructor for a minimization model.
    pub fn minimize() -> Self {
        Self::new(Sense::Minimize)
    }

    /// Convenience constructor for a maximization model.
    pub fn maximize() -> Self {
        Self::new(Sense::Maximize)
    }

    /// Add a decision variable.
    ///
    /// * `obj` — objective coefficient;
    /// * `lo` — lower bound (may be `f64::NEG_INFINITY` for a free variable);
    /// * `hi` — upper bound (may be `f64::INFINITY`).
    pub fn add_var(&mut self, name: impl Into<String>, obj: f64, lo: f64, hi: f64) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Var {
            name: name.into(),
            obj,
            lo,
            hi,
        });
        id
    }

    /// Add a free (unbounded both ways) variable.
    pub fn add_free_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, obj, f64::NEG_INFINITY, f64::INFINITY)
    }

    /// Add a linear constraint `Σ coeff·var (rel) rhs`.
    ///
    /// Duplicate variable references in `terms` are merged into one term at
    /// the variable's first position; its coefficient is the sum of the
    /// duplicates taken left to right in the order given. The merge costs
    /// O(k log k) in the number of terms.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        rel: Relation,
        rhs: f64,
    ) -> ConstrId {
        let id = ConstrId(self.constraints.len());
        debug_assert!(
            terms.iter().all(|(v, _)| v.0 < self.vars.len()),
            "variable from another model"
        );
        self.constraints.push(Constraint {
            name: name.into(),
            terms: merge_duplicate_terms(terms),
            rel,
            rhs,
        });
        id
    }

    /// Validate structural soundness (finite coefficients, consistent
    /// bounds). Called by [`Problem::solve`]; exposed for early checking.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if !v.obj.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "objective coefficient of variable #{i} ({}) is not finite",
                    v.name
                )));
            }
            if v.lo.is_nan() || v.hi.is_nan() || v.lo > v.hi {
                return Err(LpError::InvalidModel(format!(
                    "variable #{i} ({}) has contradictory bounds [{}, {}]",
                    v.name, v.lo, v.hi
                )));
            }
            if v.lo == f64::INFINITY || v.hi == f64::NEG_INFINITY {
                return Err(LpError::InvalidModel(format!(
                    "variable #{i} ({}) has an empty domain",
                    v.name
                )));
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if !c.rhs.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "constraint #{i} ({}) has non-finite rhs",
                    c.name
                )));
            }
            for &(_, coeff) in &c.terms {
                if !coeff.is_finite() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint #{i} ({}) has non-finite coefficient",
                        c.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validate the model and solve it with the two-phase simplex.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.validate()?;
        simplex::solve(self)
    }

    /// Evaluate the objective at a candidate point (for verification).
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Maximum constraint/bound violation at a candidate point.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        let mut worst: f64 = 0.0;
        for (v, &xi) in self.vars.iter().zip(x) {
            if v.lo.is_finite() {
                worst = worst.max(v.lo - xi);
            }
            if v.hi.is_finite() {
                worst = worst.max(xi - v.hi);
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(j, a)| a * x[j]).sum();
            let viol = match c.rel {
                Relation::Le => lhs - c.rhs,
                Relation::Ge => c.rhs - lhs,
                Relation::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }
}

/// Merge duplicate variables of one constraint: stable-sort the terms by
/// variable (each variable's duplicates stay in the order given), sum each
/// run left to right, then restore first-appearance order.
fn merge_duplicate_terms(terms: Vec<(VarId, f64)>) -> Vec<(usize, f64)> {
    let mut by_var: Vec<(usize, usize, f64)> = terms
        .into_iter()
        .enumerate()
        .map(|(pos, (v, c))| (v.0, pos, c))
        .collect();
    by_var.sort_by_key(|&(v, _, _)| v);
    // (first position, variable, running sum)
    let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(by_var.len());
    for (v, pos, c) in by_var {
        match merged.last_mut() {
            Some(last) if last.1 == v => last.2 += c,
            _ => merged.push((pos, v, c)),
        }
    }
    merged.sort_unstable_by_key(|&(pos, _, _)| pos);
    merged.into_iter().map(|(_, v, c)| (v, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_sizes_and_names() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 1.0, 0.0, 10.0);
        let y = p.add_free_var("y", -1.0);
        let c = p.add_constraint("cap", vec![(x, 1.0), (y, 2.0)], Relation::Le, 5.0);
        assert_eq!(p.vars.len(), 2);
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(p.vars[x.index()].name, "x");
        assert_eq!(p.vars[y.index()].name, "y");
        assert_eq!(p.constraints[c.index()].name, "cap");
        assert_eq!(x.index(), 0);
        assert_eq!(c.index(), 0);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 1.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", 1.0, 0.0, f64::INFINITY);
        let z = p.add_var("z", 1.0, 0.0, f64::INFINITY);
        p.add_constraint("c", vec![(x, 1.0), (x, 2.0)], Relation::Eq, 6.0);
        assert_eq!(p.constraints[0].terms, vec![(0, 3.0)]);
        // Interleaved duplicates keep first-appearance order.
        p.add_constraint(
            "d",
            vec![(y, 1.0), (x, 2.0), (y, 3.0), (z, 4.0), (x, 5.0)],
            Relation::Le,
            0.0,
        );
        assert_eq!(p.constraints[1].terms, vec![(1, 4.0), (0, 7.0), (2, 4.0)]);
        // The sum runs in the order given: (1e16 + 1) + (−1e16) = 0, where
        // adding the two large terms first would give 1.
        p.add_constraint(
            "e",
            vec![(z, 1e16), (x, 1.0), (z, 1.0), (z, -1e16)],
            Relation::Le,
            0.0,
        );
        assert_eq!(p.constraints[2].terms, vec![(2, 0.0), (0, 1.0)]);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut p = Problem::minimize();
        p.add_var("x", 1.0, 2.0, 1.0);
        assert!(matches!(p.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn validate_rejects_nan_rhs() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 1.0, 0.0, 1.0);
        p.add_constraint("c", vec![(x, 1.0)], Relation::Le, f64::NAN);
        assert!(matches!(p.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn violation_and_objective_evaluators() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", 2.0, 0.0, 4.0);
        let y = p.add_var("y", 3.0, 0.0, f64::INFINITY);
        p.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        assert_eq!(p.objective_at(&[1.0, 2.0]), 8.0);
        assert!(p.max_violation(&[1.0, 2.0]) <= 0.0);
        assert!((p.max_violation(&[5.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
