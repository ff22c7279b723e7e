//! Discrete stochastic substrate for the alert-audit workspace.
//!
//! The alert-prioritization game of Yan et al. (ICDE 2018) is driven by the
//! distribution `F_t(n)` of the number of *benign* alerts of each type `t`
//! raised per audit period. This crate provides:
//!
//! * [`CountDistribution`] — the trait every alert-count model implements
//!   (pmf, cdf `F_t`, sampling, coverage bounds);
//! * concrete models: [`DiscretizedGaussian`] (the paper's synthetic model),
//!   [`Empirical`] (fit from logs, used for the real-data experiments),
//!   [`Poisson`], [`Constant`], and [`UniformCount`];
//! * [`bank::SampleBank`] — pre-drawn matrices of joint count realizations
//!   `Z = (Z_1, …, Z_|T|)` so that every candidate audit policy inside one
//!   search is evaluated under *common random numbers*;
//! * [`fit`] — maximum-likelihood / moment fitting of count models from
//!   observed per-period alert counts;
//! * [`stats`] — summary statistics used by the experiment harness.
//!
//! Everything is deterministic given a seed; no global RNG state is used.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bank;
pub mod discrete;
pub mod fit;
pub mod gof;
pub mod normal;
pub mod rng;
pub mod snapshot;
pub mod stats;

pub use bank::{JointCountModel, SampleBank};
pub use discrete::{
    Constant, CountDistribution, DiscretizedGaussian, Empirical, Mixture, Poisson, UniformCount,
    Zipf,
};
pub use fit::{fit_discretized_gaussian, fit_empirical, fit_gaussian_from_moments};
pub use rng::seeded_rng;
pub use snapshot::{DistParams, JointParams, Snapshot, SnapshotError};
pub use stats::StreamingMoments;
