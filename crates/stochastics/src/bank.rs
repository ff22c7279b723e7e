//! Common-random-number sample banks.
//!
//! The detection probability `Pal(o, b, t) ≈ E_Z[n_t(o,b,Z)/Z_t]` (eq. 1 of
//! the paper) is estimated by Monte Carlo over joint count realizations
//! `Z = (Z_1, …, Z_|T|)`. ISHM's accept/reject test compares objective values
//! of *different* threshold vectors; if each evaluation drew fresh samples,
//! sampling noise would routinely flip comparisons and derail the search.
//! A [`SampleBank`] therefore freezes one matrix of realizations per solver
//! run and evaluates every candidate policy on the same samples ("common
//! random numbers").

use crate::discrete::CountDistribution;
use crate::rng::stream_rng;
use crate::snapshot::JointParams;

/// A joint sampler of per-period count vectors `Z = (Z_1, …, Z_|T|)`.
///
/// The paper's model draws each type independently from its marginal `F_t`,
/// which is what [`SampleBank::generate_from`] does. Scenarios with
/// *correlated* benign workload (a latent calm/storm regime lifting every
/// type at once, or a seasonal weekday/weekend cycle) instead implement this
/// trait: [`SampleBank::generate_joint`] asks the model for one full row per
/// sample. Implementations must be deterministic functions of
/// `(sample_index, rng)` — the bank derives one RNG stream per row from the
/// master seed, so row `s` never depends on how many rows are drawn around
/// it.
pub trait JointCountModel: Send + Sync {
    /// Number of alert types per row.
    fn n_types(&self) -> usize;

    /// Draw realization `sample_index` using the provided per-row stream.
    /// `sample_index` is made available so deterministic structure (e.g. a
    /// season phase cycling with the period) can depend on the period
    /// itself rather than on RNG state.
    fn sample_row(&self, sample_index: usize, rng: &mut dyn rand::RngCore) -> Vec<u64>;

    /// Constructor parameters for persistence, or `None` when the model
    /// cannot be snapshotted. The default keeps ad-hoc test models out of
    /// the persistence layer; the registry's concrete models override it.
    fn snapshot_params(&self) -> Option<JointParams> {
        None
    }
}

/// A frozen matrix of joint alert-count realizations.
///
/// Sample `s` is one realization of the benign workload: `row(s)[t]` is the
/// number of benign type-`t` alerts in sample `s`. Types are sampled
/// independently, matching the paper's per-type `F_t` model.
///
/// The matrix is stored once, **column-major** (`n_types × n_samples`):
/// [`SampleBank::column`] is the contiguous slice the batched `Pal` engine
/// streams for each type in the audit order, and the same buffer is what
/// snapshots persist. Per-sample readers index `column(t)[s]`.
#[derive(Debug, Clone)]
pub struct SampleBank {
    n_types: usize,
    n_samples: usize,
    /// Column-major `n_types × n_samples` counts.
    cols: Vec<u64>,
}

impl SampleBank {
    /// Draw `n_samples` joint realizations from per-type distributions.
    ///
    /// Each type is sampled from its own derived RNG stream so that adding
    /// or removing a type does not perturb the draws of the others.
    pub fn generate_from<'a, I>(dists: I, n_samples: usize, seed: u64) -> Self
    where
        I: IntoIterator<Item = &'a dyn CountDistribution>,
    {
        let dists: Vec<&dyn CountDistribution> = dists.into_iter().collect();
        let n_types = dists.len();
        assert!(n_types > 0, "need at least one alert type");
        assert!(n_samples > 0, "need at least one sample");
        let mut cols = Vec::with_capacity(n_samples * n_types);
        for (t, dist) in dists.iter().enumerate() {
            let mut rng = stream_rng(seed, t as u64);
            cols.extend((0..n_samples).map(|_| dist.sample(&mut rng)));
        }
        Self {
            n_types,
            n_samples,
            cols,
        }
    }

    /// Draw `n_samples` joint realizations from a correlated count model.
    ///
    /// Each row gets its own RNG stream derived from `(seed, row index)`,
    /// mirroring the per-type streams of [`SampleBank::generate_from`]: the
    /// draws of row `s` are independent of `n_samples`, so growing the bank
    /// extends it without perturbing existing rows.
    pub fn generate_joint(model: &dyn JointCountModel, n_samples: usize, seed: u64) -> Self {
        Self::from_row_iter(
            model.n_types(),
            n_samples,
            (0..n_samples).map(|s| {
                // Stream labels offset by a large constant so joint banks
                // never collide with the per-type streams of `generate_from`.
                let mut rng = stream_rng(seed, 0x4A01_0000_0000_0000u64 ^ s as u64);
                model.sample_row(s, &mut rng)
            }),
        )
    }

    /// Build from explicit rows (used by tests and the hardness reduction,
    /// where `Z` is deterministic).
    pub fn from_rows(rows: Vec<Vec<u64>>) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        Self::from_row_iter(rows[0].len(), rows.len(), rows)
    }

    /// Scatter `n_samples` rows of width `n_types` into the columns.
    fn from_row_iter<R>(n_types: usize, n_samples: usize, rows: R) -> Self
    where
        R: IntoIterator<Item = Vec<u64>>,
    {
        assert!(n_types > 0, "need at least one alert type");
        assert!(n_samples > 0, "need at least one sample");
        let mut cols = vec![0u64; n_samples * n_types];
        for (s, row) in rows.into_iter().enumerate() {
            assert_eq!(row.len(), n_types, "ragged sample rows");
            for (t, z) in row.into_iter().enumerate() {
                cols[t * n_samples + s] = z;
            }
        }
        Self {
            n_types,
            n_samples,
            cols,
        }
    }

    /// Build from a column-major matrix (`n_types × n_samples`, the
    /// orientation snapshots persist).
    pub fn from_column_major(n_types: usize, n_samples: usize, cols: Vec<u64>) -> Self {
        assert!(n_types > 0, "need at least one alert type");
        assert!(n_samples > 0, "need at least one sample");
        assert_eq!(cols.len(), n_samples * n_types, "column matrix shape");
        Self {
            n_types,
            n_samples,
            cols,
        }
    }

    /// Number of alert types per row.
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// Number of realizations.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// One realization of the joint count vector `Z`, gathered from the
    /// columns.
    pub fn row(&self, s: usize) -> Vec<u64> {
        assert!(s < self.n_samples, "sample index out of range");
        (0..self.n_types)
            .map(|t| self.cols[t * self.n_samples + s])
            .collect()
    }

    /// All realizations of type `t`, contiguous in memory: `column(t)[s]`
    /// equals `row(s)[t]`. This is the layout the batched `Pal` engine
    /// streams type-by-type.
    #[inline]
    pub fn column(&self, t: usize) -> &[u64] {
        assert!(t < self.n_types, "type index out of range");
        &self.cols[t * self.n_samples..(t + 1) * self.n_samples]
    }

    /// The full column-major matrix (`n_types × n_samples`, type-contiguous)
    /// — the layout the snapshot writer persists.
    pub fn columns_flat(&self) -> &[u64] {
        &self.cols
    }

    /// Sample mean count of type `t` across the bank.
    pub fn mean_count(&self, t: usize) -> f64 {
        let sum: u64 = self.column(t).iter().sum();
        sum as f64 / self.n_samples as f64
    }

    /// Largest observed count of type `t` in the bank.
    pub fn max_count(&self, t: usize) -> u64 {
        self.column(t).iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::{Constant, DiscretizedGaussian, UniformCount};

    fn dists() -> Vec<Box<dyn CountDistribution>> {
        vec![
            Box::new(DiscretizedGaussian::with_halfwidth(6.0, 2.0, 5)),
            Box::new(UniformCount::new(0, 4)),
            Box::new(Constant(3)),
        ]
    }

    fn generate(n_samples: usize, seed: u64) -> SampleBank {
        SampleBank::generate_from(dists().iter().map(|d| d.as_ref()), n_samples, seed)
    }

    #[test]
    fn shape_and_determinism() {
        let a = generate(500, 99);
        let b = generate(500, 99);
        assert_eq!(a.n_samples(), 500);
        assert_eq!(a.n_types(), 3);
        assert_eq!(a.columns_flat(), b.columns_flat());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(200, 1);
        let b = generate(200, 2);
        assert_ne!(a.columns_flat(), b.columns_flat());
    }

    #[test]
    fn per_type_streams_are_stable() {
        // Adding a new type must not change the draws of existing types.
        let all = dists();
        let narrow = SampleBank::generate_from(all[..2].iter().map(|d| d.as_ref()), 100, 5);
        let wide = generate(100, 5);
        assert_eq!(narrow.column(0), wide.column(0));
        assert_eq!(narrow.column(1), wide.column(1));
    }

    #[test]
    fn constant_column_is_constant() {
        let bank = generate(50, 3);
        assert!(bank.column(2).iter().all(|&z| z == 3));
        assert_eq!(bank.max_count(2), 3);
        assert!((bank.mean_count(2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_tracks_distribution() {
        let bank = generate(20_000, 11);
        assert!((bank.mean_count(0) - 6.0).abs() < 0.1);
        assert!((bank.mean_count(1) - 2.0).abs() < 0.1);
    }

    struct PhaseShift;

    impl JointCountModel for PhaseShift {
        fn n_types(&self) -> usize {
            2
        }

        fn sample_row(&self, sample_index: usize, rng: &mut dyn rand::RngCore) -> Vec<u64> {
            let base = (sample_index % 3) as u64 * 10;
            let d = UniformCount::new(0, 4);
            vec![base + d.sample(rng), base + d.sample(rng)]
        }
    }

    #[test]
    fn joint_bank_is_deterministic_and_row_stable() {
        let a = SampleBank::generate_joint(&PhaseShift, 30, 7);
        let b = SampleBank::generate_joint(&PhaseShift, 30, 7);
        assert_eq!(a.columns_flat(), b.columns_flat());
        // Per-row streams: extending the bank keeps the prefix bit-identical.
        let longer = SampleBank::generate_joint(&PhaseShift, 60, 7);
        for s in 0..30 {
            assert_eq!(a.row(s), longer.row(s));
        }
        // The deterministic phase structure survives into the rows.
        for s in 0..30 {
            let base = (s % 3) as u64 * 10;
            assert!(a.row(s).iter().all(|&z| (base..base + 5).contains(&z)));
        }
    }

    #[test]
    fn from_rows_roundtrip() {
        let bank = SampleBank::from_rows(vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(bank.n_samples(), 3);
        assert_eq!(bank.row(1), vec![3, 4]);
        assert_eq!(bank.column(1), &[2, 4, 6]);
        assert_eq!(bank.max_count(1), 6);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        SampleBank::from_rows(vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn columns_mirror_rows() {
        let bank = generate(137, 42);
        for t in 0..bank.n_types() {
            let col = bank.column(t);
            assert_eq!(col.len(), bank.n_samples());
            for (s, &z) in col.iter().enumerate() {
                assert_eq!(z, bank.row(s)[t], "mismatch at ({s}, {t})");
            }
        }
    }

    /// Replays fixed rows, ignoring its RNG stream.
    struct Replay(Vec<Vec<u64>>);

    impl JointCountModel for Replay {
        fn n_types(&self) -> usize {
            self.0[0].len()
        }

        fn sample_row(&self, sample_index: usize, _rng: &mut dyn rand::RngCore) -> Vec<u64> {
            self.0[sample_index].clone()
        }
    }

    #[test]
    fn constructors_agree_on_the_same_counts() {
        // The per-type streams `generate_from` draws, taken by hand.
        let (n_samples, seed) = (41, 9);
        let cols: Vec<u64> = dists()
            .iter()
            .enumerate()
            .flat_map(|(t, d)| {
                let mut rng = stream_rng(seed, t as u64);
                (0..n_samples)
                    .map(|_| d.sample(&mut rng))
                    .collect::<Vec<_>>()
            })
            .collect();
        let rows: Vec<Vec<u64>> = (0..n_samples)
            .map(|s| (0..3).map(|t| cols[t * n_samples + s]).collect())
            .collect();
        let banks = [
            generate(n_samples, seed),
            SampleBank::generate_joint(&Replay(rows.clone()), n_samples, seed),
            SampleBank::from_rows(rows.clone()),
            SampleBank::from_column_major(3, n_samples, cols.clone()),
        ];
        for bank in &banks {
            assert_eq!(bank.columns_flat(), cols.as_slice());
            for (s, row) in rows.iter().enumerate() {
                assert_eq!(&bank.row(s), row);
                for (t, &z) in row.iter().enumerate() {
                    assert_eq!(bank.column(t)[s], z);
                }
            }
        }
    }

    #[test]
    fn from_column_major_mirrors_row_major() {
        // Two types, three samples: type 0 reads 1, 2, 3 and type 1 reads
        // 4, 5, 6.
        let cols = SampleBank::from_column_major(2, 3, vec![1, 2, 3, 4, 5, 6]);
        let rows = SampleBank::from_rows(vec![vec![1, 4], vec![2, 5], vec![3, 6]]);
        assert_eq!(cols.columns_flat(), rows.columns_flat());
        assert_eq!(cols.row(2), vec![3, 6]);
    }

    #[test]
    #[should_panic]
    fn from_column_major_rejects_bad_shape() {
        SampleBank::from_column_major(2, 3, vec![0; 5]);
    }
}
