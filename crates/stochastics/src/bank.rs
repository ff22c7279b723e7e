//! Common-random-number sample banks.
//!
//! The detection probability `Pal(o, b, t) ≈ E_Z[n_t(o,b,Z)/Z_t]` (eq. 1 of
//! the paper) is estimated by Monte Carlo over joint count realizations
//! `Z = (Z_1, …, Z_|T|)`. ISHM's accept/reject test compares objective values
//! of *different* threshold vectors; if each evaluation drew fresh samples,
//! sampling noise would routinely flip comparisons and derail the search.
//! A [`SampleBank`] therefore freezes one matrix of realizations per solver
//! run and evaluates every candidate policy on the same rows ("common random
//! numbers"). The `ablation_crn` benchmark quantifies what goes wrong
//! without this.

use crate::discrete::CountDistribution;
use crate::rng::stream_rng;
use crate::snapshot::JointParams;

/// A joint sampler of per-period count vectors `Z = (Z_1, …, Z_|T|)`.
///
/// The paper's model draws each type independently from its marginal `F_t`,
/// which is what [`SampleBank::generate`] does. Scenarios with *correlated*
/// benign workload (a latent calm/storm regime lifting every type at once,
/// or a seasonal weekday/weekend cycle) instead implement this trait:
/// [`SampleBank::generate_joint`] asks the model for one full row per
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
/// Row `s` is one realization of the benign workload: `row(s)[t]` is the
/// number of benign type-`t` alerts in sample `s`. Types are sampled
/// independently, matching the paper's per-type `F_t` model.
///
/// The matrix is stored in **both** orientations: row-major for per-sample
/// walks (one realization at a time) and column-major for per-type walks
/// ([`SampleBank::column`]), which is what the batched `Pal` engine streams
/// — for a fixed type in the audit order it touches one contiguous column
/// instead of striding through every row. The duplication costs
/// `8·|T|·S` bytes (a few hundred KB at experiment scale) and buys the
/// dominant hot loop sequential memory access.
///
/// When every count fits in 32 bits (validated once at build time — true
/// for every realistic alert workload), a **compact `u32` mirror** of the
/// column-major layout is kept as well ([`SampleBank::compact_column`]):
/// the hot columns the detection engine streams then occupy half the
/// footprint. Counts widen back to `u64` before any arithmetic, so the
/// compact path is bit-identical to the wide one; banks with counts above
/// `u32::MAX` simply fall back to the `u64` columns.
#[derive(Debug, Clone)]
pub struct SampleBank {
    n_types: usize,
    n_samples: usize,
    /// Row-major `n_samples × n_types`.
    data: Vec<u64>,
    /// Column-major `n_types × n_samples` mirror of `data`.
    cols: Vec<u64>,
    /// Compact column-major mirror, present when all counts fit in `u32`.
    cols32: Option<Vec<u32>>,
}

impl SampleBank {
    /// Draw `n_samples` joint realizations from per-type distributions.
    ///
    /// Each type is sampled from its own derived RNG stream so that adding
    /// or removing a type does not perturb the draws of the others.
    pub fn generate(dists: &[Box<dyn CountDistribution>], n_samples: usize, seed: u64) -> Self {
        Self::generate_from(dists.iter().map(|d| d.as_ref()), n_samples, seed)
    }

    /// As [`SampleBank::generate`] but borrowing unboxed distributions.
    pub fn generate_from<'a, I>(dists: I, n_samples: usize, seed: u64) -> Self
    where
        I: IntoIterator<Item = &'a dyn CountDistribution>,
    {
        let dists: Vec<&dyn CountDistribution> = dists.into_iter().collect();
        let n_types = dists.len();
        assert!(n_types > 0, "need at least one alert type");
        assert!(n_samples > 0, "need at least one sample");
        let mut data = vec![0u64; n_samples * n_types];
        for (t, dist) in dists.iter().enumerate() {
            let mut rng = stream_rng(seed, t as u64);
            for s in 0..n_samples {
                data[s * n_types + t] = dist.sample(&mut rng);
            }
        }
        Self::from_row_major(n_types, n_samples, data)
    }

    /// Draw `n_samples` joint realizations from a correlated count model.
    ///
    /// Each row gets its own RNG stream derived from `(seed, row index)`,
    /// mirroring the per-type streams of [`SampleBank::generate`]: the
    /// draws of row `s` are independent of `n_samples`, so growing the bank
    /// extends it without perturbing existing rows.
    pub fn generate_joint(model: &dyn JointCountModel, n_samples: usize, seed: u64) -> Self {
        let n_types = model.n_types();
        assert!(n_types > 0, "need at least one alert type");
        assert!(n_samples > 0, "need at least one sample");
        let mut data = Vec::with_capacity(n_samples * n_types);
        for s in 0..n_samples {
            // Stream labels offset by a large constant so joint banks never
            // collide with the per-type streams of `generate`.
            let mut rng = stream_rng(seed, 0x4A01_0000_0000_0000u64 ^ s as u64);
            let row = model.sample_row(s, &mut rng);
            assert_eq!(row.len(), n_types, "joint model returned a ragged row");
            data.extend_from_slice(&row);
        }
        Self::from_row_major(n_types, n_samples, data)
    }

    /// Build from explicit rows (used by tests and the hardness reduction,
    /// where `Z` is deterministic).
    pub fn from_rows(rows: Vec<Vec<u64>>) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let n_types = rows[0].len();
        assert!(n_types > 0, "rows must be non-empty");
        let n_samples = rows.len();
        let mut data = Vec::with_capacity(n_samples * n_types);
        for row in &rows {
            assert_eq!(row.len(), n_types, "ragged sample rows");
            data.extend_from_slice(row);
        }
        Self::from_row_major(n_types, n_samples, data)
    }

    /// Build both layouts from a row-major matrix.
    fn from_row_major(n_types: usize, n_samples: usize, data: Vec<u64>) -> Self {
        debug_assert_eq!(data.len(), n_samples * n_types);
        let mut cols = vec![0u64; n_samples * n_types];
        for (s, row) in data.chunks_exact(n_types).enumerate() {
            for (t, &z) in row.iter().enumerate() {
                cols[t * n_samples + s] = z;
            }
        }
        let cols32 = Self::derive_compact(&cols);
        Self {
            n_types,
            n_samples,
            data,
            cols,
            cols32,
        }
    }

    /// Build both layouts from a column-major matrix (`n_types × n_samples`,
    /// the orientation snapshots persist).
    pub fn from_column_major(n_types: usize, n_samples: usize, cols: Vec<u64>) -> Self {
        assert!(n_types > 0, "need at least one alert type");
        assert!(n_samples > 0, "need at least one sample");
        assert_eq!(cols.len(), n_samples * n_types, "column matrix shape");
        let mut data = vec![0u64; n_samples * n_types];
        // Row-outer order keeps the writes streaming (the reads advance
        // `n_types` sequential column cursors) — the transposed loop
        // scatters writes at a `n_types`-word stride and is several times
        // slower on the million-row banks the snapshot path loads.
        for (s, row) in data.chunks_exact_mut(n_types).enumerate() {
            for (t, slot) in row.iter_mut().enumerate() {
                *slot = cols[t * n_samples + s];
            }
        }
        let cols32 = Self::derive_compact(&cols);
        Self {
            n_types,
            n_samples,
            data,
            cols,
            cols32,
        }
    }

    /// The one place the compact-mirror validation lives: every
    /// constructor funnels through this, so the "all counts fit `u32`"
    /// check cannot drift between the generate / joint / explicit-row /
    /// snapshot-load paths. Counts beyond `u32` (never seen in practice)
    /// keep the `u64` fallback.
    fn derive_compact(cols: &[u64]) -> Option<Vec<u32>> {
        cols.iter()
            .map(|&z| u32::try_from(z).ok())
            .collect::<Option<Vec<u32>>>()
    }

    /// Number of alert types per row.
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// Number of realizations.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// One realization of the joint count vector `Z`.
    #[inline]
    pub fn row(&self, s: usize) -> &[u64] {
        &self.data[s * self.n_types..(s + 1) * self.n_types]
    }

    /// Iterate over all realizations.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.data.chunks_exact(self.n_types)
    }

    /// All realizations of type `t`, contiguous in memory: `column(t)[s]`
    /// equals `row(s)[t]`. This is the layout the batched `Pal` engine
    /// streams type-by-type.
    #[inline]
    pub fn column(&self, t: usize) -> &[u64] {
        assert!(t < self.n_types, "type index out of range");
        &self.cols[t * self.n_samples..(t + 1) * self.n_samples]
    }

    /// The compact (`u32`) mirror of [`SampleBank::column`], or `None`
    /// when some count exceeds `u32::MAX` and the bank fell back to the
    /// wide columns. Values are bit-equal after widening, so consumers can
    /// prefer this layout for half the memory traffic without changing any
    /// result.
    #[inline]
    pub fn compact_column(&self, t: usize) -> Option<&[u32]> {
        assert!(t < self.n_types, "type index out of range");
        self.cols32
            .as_ref()
            .map(|c| &c[t * self.n_samples..(t + 1) * self.n_samples])
    }

    /// Whether the compact `u32` column mirror is present (all counts fit).
    pub fn has_compact_columns(&self) -> bool {
        self.cols32.is_some()
    }

    /// The full column-major matrix (`n_types × n_samples`, type-contiguous)
    /// — the authoritative layout the snapshot writer persists.
    pub fn columns_flat(&self) -> &[u64] {
        &self.cols
    }

    /// The full compact column-major mirror, when present.
    pub fn compact_columns_flat(&self) -> Option<&[u32]> {
        self.cols32.as_deref()
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

    #[test]
    fn shape_and_determinism() {
        let a = SampleBank::generate(&dists(), 500, 99);
        let b = SampleBank::generate(&dists(), 500, 99);
        assert_eq!(a.n_samples(), 500);
        assert_eq!(a.n_types(), 3);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SampleBank::generate(&dists(), 200, 1);
        let b = SampleBank::generate(&dists(), 200, 2);
        assert_ne!(a.data, b.data);
    }

    #[test]
    fn per_type_streams_are_stable() {
        // Adding a new type must not change the draws of existing types.
        let all = dists();
        let narrow = SampleBank::generate_from(all[..2].iter().map(|d| d.as_ref()), 100, 5);
        let wide = SampleBank::generate(&all, 100, 5);
        for s in 0..100 {
            assert_eq!(narrow.row(s)[0], wide.row(s)[0]);
            assert_eq!(narrow.row(s)[1], wide.row(s)[1]);
        }
    }

    #[test]
    fn constant_column_is_constant() {
        let bank = SampleBank::generate(&dists(), 50, 3);
        assert!(bank.rows().all(|r| r[2] == 3));
        assert_eq!(bank.max_count(2), 3);
        assert!((bank.mean_count(2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_tracks_distribution() {
        let bank = SampleBank::generate(&dists(), 20_000, 11);
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
        assert_eq!(a.data, b.data);
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
        assert_eq!(bank.row(1), &[3, 4]);
        assert_eq!(bank.max_count(1), 6);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        SampleBank::from_rows(vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn columns_mirror_rows() {
        let bank = SampleBank::generate(&dists(), 137, 42);
        for t in 0..bank.n_types() {
            let col = bank.column(t);
            assert_eq!(col.len(), bank.n_samples());
            for (s, &z) in col.iter().enumerate() {
                assert_eq!(z, bank.row(s)[t], "mismatch at ({s}, {t})");
            }
        }
    }

    #[test]
    fn compact_columns_mirror_wide_columns() {
        let bank = SampleBank::generate(&dists(), 137, 42);
        assert!(bank.has_compact_columns());
        for t in 0..bank.n_types() {
            let wide = bank.column(t);
            let compact = bank.compact_column(t).expect("small counts fit u32");
            assert_eq!(compact.len(), wide.len());
            for (&c, &w) in compact.iter().zip(wide) {
                assert_eq!(u64::from(c), w);
            }
        }
    }

    #[test]
    fn oversized_counts_fall_back_to_wide_columns() {
        let big = u64::from(u32::MAX) + 7;
        let bank = SampleBank::from_rows(vec![vec![1, big], vec![2, 3]]);
        assert!(!bank.has_compact_columns());
        assert_eq!(bank.compact_column(0), None);
        assert_eq!(bank.compact_column(1), None);
        assert_eq!(bank.column(1), &[big, 3]);
    }

    #[test]
    fn from_column_major_mirrors_row_major() {
        let bank = SampleBank::generate(&dists(), 73, 21);
        let rebuilt =
            SampleBank::from_column_major(bank.n_types(), bank.n_samples(), bank.cols.clone());
        assert_eq!(rebuilt.data, bank.data);
        assert_eq!(rebuilt.cols, bank.cols);
        assert_eq!(rebuilt.cols32, bank.cols32);
    }

    #[test]
    #[should_panic]
    fn from_column_major_rejects_bad_shape() {
        SampleBank::from_column_major(2, 3, vec![0; 5]);
    }
}
