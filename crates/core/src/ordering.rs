//! Audit orders: permutations over alert types and their enumeration.
//! Every permutation is feasible, so the paper's order set `O` is all of
//! them.

use crate::error::GameError;

/// A complete prioritization of the alert types: `order.types()[i]` is the
/// alert type audited in position `i`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    fn identity_round_trip() {
        let o = AuditOrder::identity(4);
        assert_eq!(o.types(), &[0, 1, 2, 3]);
        assert_eq!(o.len(), 4);
        assert!(!o.is_empty());
    }
}
