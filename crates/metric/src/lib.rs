//! Metric-space substrate for the Random Ball Cover (RBC) library.
//!
//! The RBC paper (Cayton, *Accelerating Nearest Neighbor Search on Manycore
//! Systems*, 2012) operates in the general metric setting: a database `X`,
//! a query set `Q`, and a metric `ρ(·,·)`. Everything in the upper layers —
//! the brute-force primitive, the RBC itself, and the baselines — is written
//! against the two small traits defined here:
//!
//! * [`Dataset`] — an indexed collection of items (dense vectors, strings,
//!   …).
//! * [`Metric`] — a distance function over those items satisfying the metric
//!   axioms (non-negativity, identity, symmetry, triangle inequality).
//!
//! The crate ships concrete implementations used throughout the paper's
//! experiments:
//!
//! * [`VectorSet`] with the `ℓ2` ([`Euclidean`]), `ℓ1` ([`Manhattan`]),
//!   `ℓ∞` ([`Chebyshev`]), general [`Minkowski`] and angular [`Cosine`]
//!   metrics — the experiments in §7 all use `ℓ2`.
//! * [`StringSet`] with [`Levenshtein`] edit distance and [`Hamming`]
//!   distance — the paper motivates general metrics with the edit distance
//!   on strings (§6).
//!
//! Distances are returned as `f64` ([`Dist`]) regardless of the storage
//! precision so that the theory-validation tests (triangle-inequality based
//! pruning, expansion-rate estimation) are not confounded by accumulation
//! error; vector components are stored as `f32` for memory density.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dataset;
pub mod discrete;
pub mod metric;
pub mod simd;
pub mod validate;
pub mod vector;

pub use dataset::{Dataset, QueryBatch, SubsetView, VectorSet, VectorSetBuilder};
pub use discrete::{Hamming, Levenshtein, StringSet};
pub use metric::{Dist, Metric, PerPoint};
pub use simd::{
    active_kernel, cut_mask, force_kernel, screen_codes_l2, screen_squared_l2, squared_l2_lanes,
    BlockedVectors, CodeBlock, CodedVectors, KernelChoice, LaneBlock, LaneGroup, NormTile,
    Reported, LANES, SCREEN_QUERIES, TILE_GROUPS, TILE_QUERIES,
};
pub use validate::{check_metric_axioms, MetricViolation};
pub use vector::{Chebyshev, Cosine, Euclidean, Manhattan, Minkowski, SquaredEuclidean};
