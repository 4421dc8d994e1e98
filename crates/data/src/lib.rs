//! Synthetic workloads, dimensionality reduction, and intrinsic-dimension
//! estimation for the RBC experiments.
//!
//! The paper evaluates on five external datasets (Table 1): three UCI
//! benchmarks (*Bio*, *Covertype*, *Physics*), trajectories from a Barrett
//! WAM robotic arm (*Robot*), and descriptors from the 80-million Tiny
//! Images collection reduced to 4–32 dimensions by random projection
//! (*TinyIm*). None of those corpora ship with this repository, so this
//! crate provides **synthetic analogues with matched cardinality, ambient
//! dimension, and — crucially — controllable intrinsic dimension**. Every
//! quantity the paper measures (speedup over brute force, rank error,
//! parameter stability) depends on the data only through its size and its
//! expansion rate, which these generators expose directly. That is the
//! whole substitution argument: an analogue with the same `n`, ambient
//! dimension and expansion rate makes the same demands on the search as
//! the corpus it stands in for, and [`ExpansionRate`] measures the last
//! of the three rather than assuming it.
//!
//! The crate also provides:
//!
//! * [`RandomProjection`] — the Johnson–Lindenstrauss style projection the
//!   paper applies to the Tiny Images descriptors (§7.1, footnote 3);
//! * [`ExpansionRate`] — an empirical estimator of the growth constant `c`
//!   from Definition 1, used by the theory-validation tests and the
//!   EXPERIMENTS.md commentary;
//! * [`catalog`] — the Table 1 catalogue mapping dataset names to
//!   generators, with a global scale knob so every experiment can run at
//!   laptop scale or at paper scale;
//! * [`adversarial`] — hostile query streams (Zipf-skewed, drifting /
//!   non-stationary, adversarially clustered) aimed at a generated
//!   database's own cluster structure, for the perf-trajectory harness
//!   and the placement sweeps in `rbc-bench`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adversarial;
pub mod catalog;
pub mod expansion;
pub mod generators;
pub mod projection;

pub use adversarial::{adversarial_ball_queries, drifting_queries, skewed_queries};
pub use catalog::{standard_catalog, DatasetSpec, GeneratedDataset, WorkloadKind};
pub use expansion::ExpansionRate;
pub use generators::{
    gaussian_mixture, grid_lattice, low_dim_manifold, mixture_centers, robot_arm_trajectories,
    tiny_image_patches, uniform_cube,
};
pub use projection::RandomProjection;
