//! Audit orders: permutations over alert types, their enumeration, and
//! organizational precedence constraints (the feasible set `O` of the
//! paper, which "may be a subset of all possible orders over types").

use crate::error::GameError;
use serde::{Deserialize, Serialize};

/// A complete prioritization of the alert types: `order.types()[i]` is the
/// alert type audited in position `i`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AuditOrder(Vec<usize>);

impl AuditOrder {
    /// Construct from a permutation of `0..n`.
    pub fn new(perm: Vec<usize>) -> Result<Self, GameError> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &t in &perm {
            if t >= n || seen[t] {
                return Err(GameError::InvalidSpec(format!(
                    "{perm:?} is not a permutation of 0..{n}"
                )));
            }
            seen[t] = true;
        }
        Ok(Self(perm))
    }

    /// The identity order `0, 1, …, n−1`.
    pub fn identity(n: usize) -> Self {
        Self((0..n).collect())
    }

    /// Types in audit order (`o_1, o_2, …`).
    pub fn types(&self) -> &[usize] {
        &self.0
    }

    /// Number of alert types.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `o(t)`: zero-based position of alert type `t` in this order.
    pub fn position(&self, t: usize) -> usize {
        self.0
            .iter()
            .position(|&x| x == t)
            .expect("type not present in order")
    }

    /// Enumerate **all** `n!` orders over `n` types, in lexicographic order
    /// of the underlying permutation. Intended for small `n` (the exact
    /// solver); the column-generation path never materializes this set.
    pub fn enumerate_all(n: usize) -> Vec<AuditOrder> {
        assert!(n <= 10, "refusing to materialize {n}! orderings");
        let mut out = Vec::new();
        let mut current = Vec::with_capacity(n);
        let mut used = vec![false; n];
        fn rec(
            n: usize,
            current: &mut Vec<usize>,
            used: &mut Vec<bool>,
            out: &mut Vec<AuditOrder>,
        ) {
            if current.len() == n {
                out.push(AuditOrder(current.clone()));
                return;
            }
            for t in 0..n {
                if !used[t] {
                    used[t] = true;
                    current.push(t);
                    rec(n, current, used, out);
                    current.pop();
                    used[t] = false;
                }
            }
        }
        rec(n, &mut current, &mut used, &mut out);
        out
    }
}

impl std::fmt::Display for AuditOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            // Display 1-based to match the paper's tables.
            write!(f, "{}", t + 1)?;
        }
        write!(f, "]")
    }
}

/// Organizational constraints on feasible orders: pairs `(a, b)` meaning
/// "alert type `a` must be audited before alert type `b`".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrecedenceConstraints {
    pairs: Vec<(usize, usize)>,
}

impl PrecedenceConstraints {
    /// No constraints: every permutation is feasible.
    pub fn none() -> Self {
        Self::default()
    }

    /// Build from explicit precedence pairs; rejects self-precedences and
    /// (via a cycle check) unsatisfiable constraint sets.
    pub fn new(pairs: Vec<(usize, usize)>, n_types: usize) -> Result<Self, GameError> {
        for &(a, b) in &pairs {
            if a == b {
                return Err(GameError::InvalidSpec(format!(
                    "precedence ({a}, {b}) is self-referential"
                )));
            }
            if a >= n_types || b >= n_types {
                return Err(GameError::InvalidSpec(format!(
                    "precedence ({a}, {b}) references a type outside 0..{n_types}"
                )));
            }
        }
        let cons = Self { pairs };
        if cons.has_cycle(n_types) {
            return Err(GameError::InvalidSpec(
                "precedence constraints contain a cycle; no feasible order exists".into(),
            ));
        }
        Ok(cons)
    }

    /// The precedence pairs.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Whether there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Does `order` satisfy every precedence?
    pub fn is_satisfied(&self, order: &AuditOrder) -> bool {
        self.pairs
            .iter()
            .all(|&(a, b)| order.position(a) < order.position(b))
    }

    /// Restrict a greedy construction: given the set of already-placed
    /// types, may `t` be placed next?
    pub fn can_place_next(&self, t: usize, placed: &[bool]) -> bool {
        self.pairs.iter().all(|&(a, b)| b != t || placed[a])
    }

    fn has_cycle(&self, n: usize) -> bool {
        // Kahn's algorithm: constraints are a DAG iff a topological order
        // exists.
        let mut indeg = vec![0usize; n];
        for &(_, b) in &self.pairs {
            indeg[b] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &(a, b) in &self.pairs {
                if a == u {
                    indeg[b] -= 1;
                    if indeg[b] == 0 {
                        queue.push(b);
                    }
                }
            }
        }
        seen != n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_validation() {
        assert!(AuditOrder::new(vec![2, 0, 1]).is_ok());
        assert!(AuditOrder::new(vec![0, 0, 1]).is_err());
        assert!(AuditOrder::new(vec![0, 3]).is_err());
    }

    #[test]
    fn position_lookup() {
        let o = AuditOrder::new(vec![2, 0, 1]).unwrap();
        assert_eq!(o.position(2), 0);
        assert_eq!(o.position(0), 1);
        assert_eq!(o.position(1), 2);
    }

    #[test]
    fn enumerate_counts_factorial() {
        assert_eq!(AuditOrder::enumerate_all(1).len(), 1);
        assert_eq!(AuditOrder::enumerate_all(3).len(), 6);
        assert_eq!(AuditOrder::enumerate_all(4).len(), 24);
        // All distinct.
        let all = AuditOrder::enumerate_all(4);
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn display_is_one_based() {
        let o = AuditOrder::new(vec![1, 0, 3, 2]).unwrap();
        assert_eq!(o.to_string(), "[2,1,4,3]");
    }

    #[test]
    fn precedence_filters_enumeration() {
        let cons = PrecedenceConstraints::new(vec![(0, 1)], 3).unwrap();
        let feas: Vec<AuditOrder> = AuditOrder::enumerate_all(3)
            .into_iter()
            .filter(|o| cons.is_satisfied(o))
            .collect();
        assert_eq!(feas.len(), 3); // half of 6
        assert!(feas.iter().all(|o| o.position(0) < o.position(1)));
    }

    #[test]
    fn precedence_rejects_cycles_and_self() {
        assert!(PrecedenceConstraints::new(vec![(0, 0)], 2).is_err());
        assert!(PrecedenceConstraints::new(vec![(0, 1), (1, 0)], 2).is_err());
        assert!(PrecedenceConstraints::new(vec![(0, 1), (1, 2)], 3).is_ok());
    }

    #[test]
    fn can_place_next_respects_pairs() {
        let cons = PrecedenceConstraints::new(vec![(0, 1)], 3).unwrap();
        assert!(!cons.can_place_next(1, &[false, false, false]));
        assert!(cons.can_place_next(1, &[true, false, false]));
        assert!(cons.can_place_next(0, &[false, false, false]));
        assert!(cons.can_place_next(2, &[false, false, false]));
    }

    #[test]
    fn identity_round_trip() {
        let o = AuditOrder::identity(4);
        assert_eq!(o.types(), &[0, 1, 2, 3]);
        assert_eq!(o.len(), 4);
        assert!(!o.is_empty());
    }
}
