//! Two-phase dense tableau simplex.
//!
//! The model from [`crate::Problem`] is brought to computational standard
//! form (minimize, equality rows, non-negative variables, non-negative
//! right-hand sides) through variable shifting/mirroring/splitting and
//! slack/surplus/artificial columns. Phase 1 minimizes the sum of the
//! artificials to find a basic feasible point; phase 2 minimizes the real
//! objective. Pricing is Dantzig's rule with an automatic switch to Bland's
//! rule after a stall budget, which guarantees finite termination on
//! degenerate instances.
//!
//! Dual values are read off the final tableau: each row carries a *reference
//! column* (its slack, or its artificial for `=`/`≥` rows) whose reduced
//! cost equals `−yᵢ`.

use crate::error::LpError;
use crate::problem::{Problem, Relation, Sense};
use crate::solution::Solution;

/// Hard cap on total pivots across both phases.
const MAX_ITERATIONS: usize = 100_000;
/// Switch from Dantzig to Bland pricing after this many consecutive
/// degenerate (non-improving) pivots.
const BLAND_AFTER_STALLS: usize = 256;
/// Reduced-cost optimality tolerance.
const COST_TOL: f64 = 1e-9;
/// Pivot-element magnitude tolerance.
const PIVOT_TOL: f64 = 1e-9;
/// Phase-1 residual above which the model is declared infeasible.
const FEAS_TOL: f64 = 1e-7;

/// How a user variable maps to standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lo + col`.
    Shifted { col: usize, lo: f64 },
    /// `x = hi − col` (used for `(−∞, hi]` domains).
    Mirrored { col: usize, hi: f64 },
    /// `x = pos − neg` (free variables).
    Split { pos: usize, neg: usize },
}

struct StandardForm {
    /// Row-major `m × n` constraint matrix.
    a: Vec<f64>,
    rhs: Vec<f64>,
    /// Phase-2 cost per column (internal minimization).
    cost: Vec<f64>,
    m: usize,
    n: usize,
    /// Column index of each row's initially-basic slack/artificial.
    initial_basis: Vec<usize>,
    /// Reference column per row for dual extraction.
    ref_col: Vec<usize>,
    /// `true` for artificial columns.
    is_artificial: Vec<bool>,
    /// −1 where the user row was negated to make the rhs non-negative;
    /// only the first `n_user_rows` entries are meaningful to callers.
    row_flip: Vec<f64>,
    n_user_rows: usize,
    var_map: Vec<VarMap>,
}

/// Assemble the standard form. Rows are the user constraints followed by
/// internal upper-bound rows; columns are structural, then slack/surplus,
/// then artificial.
fn build_standard_form(p: &Problem) -> StandardForm {
    let internal_sign = match p.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    // --- Columns for variables -------------------------------------------
    let mut var_map = Vec::with_capacity(p.vars.len());
    let mut n_struct = 0usize;
    // Upper-bound rows to append: (column, bound).
    let mut ub_rows: Vec<(usize, f64)> = Vec::new();
    for v in &p.vars {
        if v.lo.is_finite() {
            let col = n_struct;
            n_struct += 1;
            var_map.push(VarMap::Shifted { col, lo: v.lo });
            if v.hi.is_finite() {
                ub_rows.push((col, v.hi - v.lo));
            }
        } else if v.hi.is_finite() {
            let col = n_struct;
            n_struct += 1;
            var_map.push(VarMap::Mirrored { col, hi: v.hi });
        } else {
            let pos = n_struct;
            let neg = n_struct + 1;
            n_struct += 2;
            var_map.push(VarMap::Split { pos, neg });
        }
    }

    // --- Dense rows over structural columns ------------------------------
    let n_user_rows = p.constraints.len();
    let m = n_user_rows + ub_rows.len();
    let mut rows: Vec<Vec<f64>> = vec![vec![0.0; n_struct]; m];
    let mut rhs = vec![0.0; m];
    let mut rels = vec![Relation::Le; m];

    for (i, c) in p.constraints.iter().enumerate() {
        rels[i] = c.rel;
        let mut b = c.rhs;
        for &(j, coeff) in &c.terms {
            match var_map[j] {
                VarMap::Shifted { col, lo } => {
                    rows[i][col] += coeff;
                    b -= coeff * lo;
                }
                VarMap::Mirrored { col, hi } => {
                    rows[i][col] -= coeff;
                    b -= coeff * hi;
                }
                VarMap::Split { pos, neg } => {
                    rows[i][pos] += coeff;
                    rows[i][neg] -= coeff;
                }
            }
        }
        rhs[i] = b;
    }
    for (k, &(col, bound)) in ub_rows.iter().enumerate() {
        let i = n_user_rows + k;
        rows[i][col] = 1.0;
        rhs[i] = bound;
        rels[i] = Relation::Le;
    }

    // --- Normalize signs, then attach slack/surplus/artificials ----------
    let mut row_flip = vec![1.0; m];
    for i in 0..m {
        if rhs[i] < 0.0 {
            row_flip[i] = -1.0;
            rhs[i] = -rhs[i];
            for a in &mut rows[i] {
                *a = -*a;
            }
            rels[i] = match rels[i] {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }

    // Count auxiliary columns.
    let n_slack = rels
        .iter()
        .filter(|r| matches!(r, Relation::Le | Relation::Ge))
        .count();
    let n_art = rels
        .iter()
        .filter(|r| matches!(r, Relation::Ge | Relation::Eq))
        .count();
    let n = n_struct + n_slack + n_art;

    let mut a = vec![0.0; m * n];
    for (i, row) in rows.iter().enumerate() {
        a[i * n..i * n + n_struct].copy_from_slice(row);
    }

    let mut cost = vec![0.0; n];
    for (j, v) in p.vars.iter().enumerate() {
        let c = internal_sign * v.obj;
        match var_map[j] {
            VarMap::Shifted { col, .. } => cost[col] += c,
            VarMap::Mirrored { col, .. } => cost[col] -= c,
            VarMap::Split { pos, neg } => {
                cost[pos] += c;
                cost[neg] -= c;
            }
        }
    }

    let mut is_artificial = vec![false; n];
    let mut initial_basis = vec![usize::MAX; m];
    let mut ref_col = vec![usize::MAX; m];
    let mut next_slack = n_struct;
    let mut next_art = n_struct + n_slack;
    for i in 0..m {
        match rels[i] {
            Relation::Le => {
                a[i * n + next_slack] = 1.0;
                initial_basis[i] = next_slack;
                ref_col[i] = next_slack;
                next_slack += 1;
            }
            Relation::Ge => {
                a[i * n + next_slack] = -1.0; // surplus
                next_slack += 1;
                a[i * n + next_art] = 1.0;
                is_artificial[next_art] = true;
                initial_basis[i] = next_art;
                ref_col[i] = next_art;
                next_art += 1;
            }
            Relation::Eq => {
                a[i * n + next_art] = 1.0;
                is_artificial[next_art] = true;
                initial_basis[i] = next_art;
                ref_col[i] = next_art;
                next_art += 1;
            }
        }
    }

    StandardForm {
        a,
        rhs,
        cost,
        m,
        n,
        initial_basis,
        ref_col,
        is_artificial,
        row_flip,
        n_user_rows,
        var_map,
    }
}

/// Working state of the tableau method.
struct Tableau {
    /// `m × n` coefficient block, row-major (kept as `B⁻¹A`).
    t: Vec<f64>,
    /// Current basic values (`B⁻¹b`).
    rhs: Vec<f64>,
    /// Reduced-cost row for the active phase.
    red: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Columns allowed to enter the basis.
    allowed: Vec<bool>,
    m: usize,
    n: usize,
    iterations: usize,
}

impl Tableau {
    fn new(sf: &StandardForm) -> Self {
        Self {
            t: sf.a.clone(),
            rhs: sf.rhs.clone(),
            red: vec![0.0; sf.n],
            basis: sf.initial_basis.clone(),
            allowed: vec![true; sf.n],
            m: sf.m,
            n: sf.n,
            iterations: 0,
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.t[i * self.n + j]
    }

    /// Recompute the reduced-cost row `r_j = c_j − c_Bᵀ·(B⁻¹A)_j` and return
    /// the current objective `c_Bᵀ·(B⁻¹b)`.
    fn price(&mut self, cost: &[f64]) -> f64 {
        self.red.copy_from_slice(cost);
        let mut z = 0.0;
        for i in 0..self.m {
            let cb = cost[self.basis[i]];
            if cb != 0.0 {
                z += cb * self.rhs[i];
                let row = &self.t[i * self.n..(i + 1) * self.n];
                for (r, &a) in self.red.iter_mut().zip(row) {
                    *r -= cb * a;
                }
            }
        }
        z
    }

    /// Perform one pivot: column `enter` enters the basis at row `leave`.
    fn pivot(&mut self, enter: usize, leave: usize) {
        let n = self.n;
        let pivot = self.at(leave, enter);
        debug_assert!(pivot.abs() > 0.0);
        let inv = 1.0 / pivot;
        {
            let row = &mut self.t[leave * n..(leave + 1) * n];
            for a in row.iter_mut() {
                *a *= inv;
            }
            // Clean the pivot element exactly.
            row[enter] = 1.0;
        }
        self.rhs[leave] *= inv;

        // Split borrow: copy the (normalized) pivot row once, then sweep.
        let pivot_row: Vec<f64> = self.t[leave * n..(leave + 1) * n].to_vec();
        let pivot_rhs = self.rhs[leave];
        for i in 0..self.m {
            if i == leave {
                continue;
            }
            let factor = self.at(i, enter);
            if factor.abs() > 1e-14 {
                let row = &mut self.t[i * n..(i + 1) * n];
                for (a, &pr) in row.iter_mut().zip(&pivot_row) {
                    *a -= factor * pr;
                }
                row[enter] = 0.0;
                self.rhs[i] -= factor * pivot_rhs;
                if self.rhs[i].abs() < 1e-12 {
                    self.rhs[i] = 0.0;
                }
            }
        }
        let factor = self.red[enter];
        if factor.abs() > 1e-14 {
            for (r, &pr) in self.red.iter_mut().zip(&pivot_row) {
                *r -= factor * pr;
            }
            self.red[enter] = 0.0;
        }
        self.basis[leave] = enter;
        self.iterations += 1;
    }

    /// Choose the entering column: Dantzig (most negative reduced cost) or
    /// Bland (lowest index with negative reduced cost).
    fn choose_entering(&self, bland: bool) -> Option<usize> {
        if bland {
            (0..self.n).find(|&j| self.allowed[j] && self.red[j] < -COST_TOL)
        } else {
            let mut best = None;
            let mut best_val = -COST_TOL;
            for j in 0..self.n {
                if self.allowed[j] && self.red[j] < best_val {
                    best_val = self.red[j];
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Ratio test. Returns the leaving row, or `None` (unbounded column).
    ///
    /// Rows whose basic variable is an artificial stuck at level zero are
    /// given priority whenever the entering column touches them, so
    /// artificials can never re-grow during phase 2.
    ///
    /// Tie-breaking is mode-dependent: under Bland pricing, ties resolve to
    /// the lowest basic index (required for the anti-cycling guarantee);
    /// under Dantzig pricing they resolve to the **largest pivot element**,
    /// which avoids the numerical blow-ups that near-zero pivots cause on
    /// heavily degenerate game LPs.
    fn choose_leaving(&self, enter: usize, is_artificial: &[bool], bland: bool) -> Option<usize> {
        // Artificial-guard: a zero-level artificial row intersected by the
        // entering column is pivoted out immediately (a degenerate pivot).
        let mut guard: Option<usize> = None;
        for i in 0..self.m {
            if is_artificial[self.basis[i]]
                && self.rhs[i] <= PIVOT_TOL
                && self.at(i, enter).abs() > PIVOT_TOL
            {
                let better = guard
                    .map(|g| self.at(i, enter).abs() > self.at(g, enter).abs())
                    .unwrap_or(true);
                if better {
                    guard = Some(i);
                }
            }
        }
        if guard.is_some() {
            return guard;
        }
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            let a = self.at(i, enter);
            if a > PIVOT_TOL {
                let ratio = self.rhs[i] / a;
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        let tied = ratio < br + 1e-12;
                        let strictly_better = ratio < br - 1e-12;
                        let tie_break = if bland {
                            self.basis[i] < self.basis[bi]
                        } else {
                            a.abs() > self.at(bi, enter).abs()
                        };
                        if strictly_better || (tied && tie_break) {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Run the pivot loop for the active phase to optimality.
    fn optimize(
        &mut self,
        is_artificial: &[bool],
        budget: &mut usize,
        force_bland: bool,
    ) -> Result<(), LpError> {
        let mut stalls = 0usize;
        let mut bland = force_bland;
        loop {
            let Some(enter) = self.choose_entering(bland) else {
                return Ok(());
            };
            let Some(leave) = self.choose_leaving(enter, is_artificial, bland) else {
                return Err(LpError::Unbounded { column: enter });
            };
            let degenerate = self.rhs[leave] <= PIVOT_TOL;
            let leaving_col = self.basis[leave];
            self.pivot(enter, leave);
            // Once an artificial leaves the basis it may never return.
            if is_artificial[leaving_col] {
                self.allowed[leaving_col] = false;
            }
            if *budget == 0 {
                return Err(LpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            *budget -= 1;
            if degenerate {
                stalls += 1;
                if stalls >= BLAND_AFTER_STALLS {
                    bland = true;
                }
            } else {
                stalls = 0;
                bland = force_bland;
            }
        }
    }
}

/// Solve the problem; called by [`Problem::solve`].
pub(crate) fn solve(p: &Problem) -> Result<Solution, LpError> {
    solve_within(p, MAX_ITERATIONS)
}

/// Solve within `max_iterations` pivots across both phases.
///
/// Runs the fast Dantzig-priced pass first; if that pass reports an
/// unbounded ray — which on heavily degenerate problems can be an artifact
/// of an ill-conditioned pivot — the solve is repeated from scratch under
/// Bland's rule, whose verdicts are trustworthy. A genuine unbounded model
/// costs one redundant pass; a false positive is corrected silently.
fn solve_within(p: &Problem, max_iterations: usize) -> Result<Solution, LpError> {
    match solve_attempt(p, max_iterations, false) {
        Err(LpError::Unbounded { .. }) => solve_attempt(p, max_iterations, true),
        other => other,
    }
}

fn solve_attempt(
    p: &Problem,
    max_iterations: usize,
    force_bland: bool,
) -> Result<Solution, LpError> {
    let sf = build_standard_form(p);
    let mut tab = Tableau::new(&sf);
    let mut budget = max_iterations;

    // ---- Phase 1: minimize the sum of artificial variables --------------
    let any_artificial = sf.is_artificial.iter().any(|&b| b);
    if any_artificial {
        let phase1_cost: Vec<f64> = sf
            .is_artificial
            .iter()
            .map(|&b| if b { 1.0 } else { 0.0 })
            .collect();
        // Artificials never *enter*; they only start basic.
        for j in 0..sf.n {
            if sf.is_artificial[j] {
                tab.allowed[j] = false;
            }
        }
        let z1 = tab.price(&phase1_cost);
        debug_assert!(z1 >= -1e-9);
        tab.optimize(&sf.is_artificial, &mut budget, force_bland)?;
        let residual: f64 = (0..tab.m)
            .filter(|&i| sf.is_artificial[tab.basis[i]])
            .map(|i| tab.rhs[i])
            .sum();
        if residual > FEAS_TOL {
            return Err(LpError::Infeasible { residual });
        }
        // Pivot remaining zero-level artificials out where possible; rows
        // with no eligible pivot are redundant and harmless (the guard in
        // `choose_leaving` keeps their artificials at level zero).
        for i in 0..tab.m {
            if sf.is_artificial[tab.basis[i]] {
                let swap =
                    (0..sf.n).find(|&j| !sf.is_artificial[j] && tab.at(i, j).abs() > PIVOT_TOL);
                if let Some(j) = swap {
                    let old = tab.basis[i];
                    tab.pivot(j, i);
                    tab.allowed[old] = false;
                }
            }
        }
    }

    // ---- Phase 2: minimize the real objective ----------------------------
    tab.price(&sf.cost);
    tab.optimize(&sf.is_artificial, &mut budget, force_bland)?;

    // ---- Recover the primal point in user coordinates --------------------
    let mut x_std = vec![0.0; sf.n];
    for i in 0..tab.m {
        x_std[tab.basis[i]] = tab.rhs[i];
    }
    let x: Vec<f64> = sf
        .var_map
        .iter()
        .map(|vm| match *vm {
            VarMap::Shifted { col, lo } => lo + x_std[col],
            VarMap::Mirrored { col, hi } => hi - x_std[col],
            VarMap::Split { pos, neg } => x_std[pos] - x_std[neg],
        })
        .collect();
    let objective = p.objective_at(&x);

    // ---- Duals: reduced cost of each row's reference column is −yᵢ ------
    // (phase-2 costs of slack/surplus/artificial columns are all zero).
    let sense_sign = match p.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let duals: Vec<f64> = (0..sf.n_user_rows)
        .map(|i| sense_sign * sf.row_flip[i] * -tab.red[sf.ref_col[i]])
        .collect();

    Ok(Solution::new(objective, x, duals, tab.iterations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_form_shapes() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 1.0, 0.0, 5.0); // shift (lo=0) + ub row
        let y = p.add_free_var("y", 2.0); // split
        let z = p.add_var("z", 0.0, f64::NEG_INFINITY, 3.0); // mirror
        p.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint("c2", vec![(y, 1.0), (z, 1.0)], Relation::Ge, -2.0);
        let sf = build_standard_form(&p);
        // Rows: 2 user + 1 ub. Structural cols: 1 (x) + 2 (y) + 1 (z).
        assert_eq!(sf.m, 3);
        assert_eq!(sf.n_user_rows, 2);
        let n_struct = 4;
        // c2 has negative rhs: flipped from Ge to Le → slack only.
        // So slacks: c1, c2(after flip), ub = 3; artificials: 0.
        assert_eq!(sf.n, n_struct + 3);
        assert!(sf.is_artificial.iter().all(|&b| !b));
        assert_eq!(sf.row_flip[1], -1.0);
    }

    #[test]
    fn iteration_limit_respected() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", 3.0, 0.0, f64::INFINITY);
        let y = p.add_var("y", 5.0, 0.0, f64::INFINITY);
        p.add_constraint("c1", vec![(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint("c2", vec![(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        assert!(matches!(
            solve_within(&p, 0),
            Err(LpError::IterationLimit { .. })
        ));
        assert!(solve_within(&p, MAX_ITERATIONS).is_ok());
    }

    #[test]
    fn equality_rows_get_artificials() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", 1.0, 0.0, f64::INFINITY);
        p.add_constraint("c", vec![(x, 1.0)], Relation::Eq, 3.0);
        let sf = build_standard_form(&p);
        assert_eq!(sf.is_artificial.iter().filter(|&&b| b).count(), 1);
        assert_eq!(sf.ref_col[0], sf.initial_basis[0]);
    }
}
