//! Workload-similarity clustering of alert types — the decomposition
//! substrate for the wide-type inner evaluator.
//!
//! Two types belong together when they attract comparable attack mass
//! per audit dollar: the master mixture trades them off against each
//! other, so their relative order matters, while the order *across*
//! density tiers is largely settled (high-density types go early in any
//! good column). Clustering therefore sorts types by mass-per-cost
//! density and chunks adjacent runs, giving within-cluster order
//! enumeration where it pays and fixed cross-cluster structure where it
//! does not.

use super::attack_mass;
use crate::model::GameSpec;

/// Types per cluster. Three keeps within-cluster enumeration trivial
/// (3! = 6 permutations) while covering 20–50 types in 7–17 clusters.
pub const DEFAULT_CLUSTER_SIZE: usize = 3;

/// A partition of the alert types into workload-similarity clusters,
/// ordered from the densest (most attack mass per audit cost) tier down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeClusters {
    clusters: Vec<Vec<usize>>,
}

impl TypeClusters {
    /// Partition `spec`'s types: rank by attack-mass-per-cost density
    /// (descending, ties by type index) and chunk adjacent runs of
    /// [`DEFAULT_CLUSTER_SIZE`]. Deterministic — the same spec always
    /// clusters identically.
    pub fn build(spec: &GameSpec) -> Self {
        let mass = attack_mass(spec);
        let costs = spec.audit_costs();
        let mut ranked: Vec<usize> = (0..spec.n_types()).collect();
        ranked.sort_by(|&a, &b| {
            let da = mass[a] / costs[a];
            let db = mass[b] / costs[b];
            db.partial_cmp(&da)
                .expect("attack densities are finite")
                .then(a.cmp(&b))
        });
        let clusters = ranked
            .chunks(DEFAULT_CLUSTER_SIZE)
            .map(|c| c.to_vec())
            .collect();
        Self { clusters }
    }

    /// How many clusters `n_types` types split into — the planner reports
    /// this without building a spec.
    pub fn cluster_count(n_types: usize) -> usize {
        n_types.div_ceil(DEFAULT_CLUSTER_SIZE)
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when the partition is empty (zero-type spec).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The clusters, densest tier first; each cluster lists its types in
    /// density order.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Iterate the clusters in tier order.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<usize>> {
        self.clusters.iter()
    }

    /// The canonical flat order: clusters concatenated tier by tier. This
    /// is the decomposition's "all-else-fixed" spine — every block column
    /// permutes one cluster against this backdrop.
    pub fn canonical_order(&self) -> Vec<usize> {
        self.clusters.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::syn_a;
    use crate::model::{AttackAction, Attacker, GameSpecBuilder};
    use std::sync::Arc;
    use stochastics::Constant;

    fn spec_with_rewards(rewards: &[f64]) -> GameSpec {
        let mut b = GameSpecBuilder::new();
        let ts: Vec<usize> = (0..rewards.len())
            .map(|i| b.alert_type(format!("t{i}"), 1.0, Arc::new(Constant(1))))
            .collect();
        for (i, (&t, &r)) in ts.iter().zip(rewards).enumerate() {
            b.attacker(Attacker::new(
                format!("e{i}"),
                1.0,
                vec![AttackAction::deterministic(format!("v{i}"), t, r, 0.5, 2.0)],
            ));
        }
        b.budget(2.0);
        b.build().unwrap()
    }

    #[test]
    fn clusters_partition_all_types_once() {
        let spec = spec_with_rewards(&[1.0, 5.0, 3.0, 2.0, 4.0, 6.0, 0.5]);
        let tc = TypeClusters::build(&spec);
        assert_eq!(tc.len(), 3);
        let mut all = tc.canonical_order();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn densest_types_land_in_the_first_cluster() {
        // Rewards pick the density order directly (unit costs, M fixed).
        let spec = spec_with_rewards(&[1.0, 9.0, 3.0, 8.0]);
        let tc = TypeClusters::build(&spec);
        assert_eq!(tc.clusters()[0], vec![1, 3, 2]);
        assert_eq!(tc.clusters()[1], vec![0]);
    }

    #[test]
    fn ties_break_by_type_index() {
        let spec = spec_with_rewards(&[2.0, 2.0, 2.0, 2.0]);
        let tc = TypeClusters::build(&spec);
        assert_eq!(tc.canonical_order(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cluster_count_matches_build() {
        for (n, want) in [(25, 9), (50, 17), (5, 2), (3, 1), (0, 0)] {
            assert_eq!(TypeClusters::cluster_count(n), want);
        }
        let spec = syn_a();
        let tc = TypeClusters::build(&spec);
        assert_eq!(tc.len(), TypeClusters::cluster_count(spec.n_types()));
    }

    #[test]
    fn clustering_is_deterministic() {
        let spec = spec_with_rewards(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let a = TypeClusters::build(&spec);
        let b = TypeClusters::build(&spec);
        assert_eq!(a, b);
    }
}
