//! The Table 1 dataset catalogue.
//!
//! Maps the paper's dataset names to synthetic generators with matched
//! cardinality and dimensionality, with a global `scale` factor so that the
//! full experiment suite regenerates in minutes on a laptop while remaining
//! faithful in shape. The crate docs state why a synthetic analogue may
//! stand in for each corpus.
//!
//! | Name      | Paper size | Dim   | Analogue generator |
//! |-----------|-----------:|------:|--------------------|
//! | bio       |       200k |    74 | low-dimensional manifold (intrinsic 3) |
//! | cov       |       500k |    54 | Gaussian mixture (64 clusters) |
//! | phy       |       100k |    78 | low-dimensional manifold (intrinsic 4) |
//! | robot     |         2M |    21 | simulated 7-joint arm trajectories |
//! | tiny4..32 |        10M | 4–32  | image patches + random projection |
//!
//! The intrinsic dimensions are chosen noticeably lower than the ambient
//! ones because the reproduction runs at a small fraction of the paper's
//! database sizes (`scale` defaults to 0.005 in the harness): locality —
//! and therefore the accelerations the paper measures — only emerges when
//! the database is dense relative to its intrinsic dimension, so a scaled-
//! down database needs a correspondingly low intrinsic dimension to sit in
//! the same regime as the full-size original.

use serde::{Deserialize, Serialize};

use rbc_metric::VectorSet;

use crate::generators::{
    gaussian_mixture, low_dim_manifold, robot_arm_trajectories, tiny_image_patches,
};
use crate::projection::RandomProjection;

/// Which synthetic process generates a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Smooth low-dimensional manifold embedded in a higher ambient space.
    Manifold {
        /// Latent (intrinsic) dimensionality.
        intrinsic_dim: usize,
        /// Observation noise standard deviation.
        noise: f64,
    },
    /// Mixture of isotropic Gaussian clusters.
    ClusteredGaussian {
        /// Number of mixture components.
        clusters: usize,
        /// Per-cluster standard deviation.
        spread: f64,
    },
    /// Simulated robot-arm joint trajectories (angle, velocity, torque per
    /// joint).
    RobotArm {
        /// Number of joints; the dimension is `3 × joints`.
        joints: usize,
    },
    /// Synthetic image patches randomly projected down to the target
    /// dimension.
    ProjectedImages {
        /// Patch side length (ambient dimension is `side²`).
        side: usize,
        /// Number of low-frequency components per patch.
        components: usize,
    },
}

/// One entry of the Table 1 catalogue.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Short name used in the paper's tables ("bio", "cov", "tiny16", …).
    pub name: String,
    /// Database size at `scale = 1.0` (the paper's size).
    pub paper_n: usize,
    /// Dimensionality of the points handed to the search structures.
    pub dim: usize,
    /// Number of points after applying the scale factor.
    pub n: usize,
    /// Number of queries after applying the scale factor (the paper uses
    /// 10k queries throughout).
    pub n_queries: usize,
    /// Generating process.
    pub kind: WorkloadKind,
    /// Base RNG seed.
    pub seed: u64,
}

/// A generated workload: the database to index plus held-out queries.
#[derive(Clone, Debug)]
pub struct GeneratedDataset {
    /// The spec this workload was generated from.
    pub spec: DatasetSpec,
    /// Database points `X`.
    pub database: VectorSet,
    /// Query points `Q` (drawn from the same process, disjoint seeds).
    pub queries: VectorSet,
}

impl DatasetSpec {
    /// Creates a spec, applying `scale` to the paper's database size and to
    /// the 10k-query protocol. Sizes are clamped below so even tiny scales
    /// produce a usable workload.
    pub fn new(
        name: &str,
        paper_n: usize,
        dim: usize,
        kind: WorkloadKind,
        scale: f64,
        seed: u64,
    ) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        // Floor the database size: the accelerations the paper measures are
        // asymptotic in n (work drops from n to ~√n per query), so a
        // workload with only a few hundred points is outside the regime the
        // evaluation is about — any index degenerates to a linear scan
        // there. ~8k points is the smallest size at which the √n effect is
        // clearly visible for the catalogue's intrinsic dimensions.
        let n = ((paper_n as f64 * scale) as usize).max(8 * 1024);
        let n_queries = ((10_000f64 * scale) as usize).clamp(64, 10_000);
        Self {
            name: name.to_string(),
            paper_n,
            dim,
            n,
            n_queries,
            kind,
            seed,
        }
    }

    /// Generates the database and query sets for this spec.
    pub fn generate(&self) -> GeneratedDataset {
        let database = self.generate_points(self.n, self.seed);
        let queries = self.generate_points(self.n_queries, self.seed.wrapping_add(0x5EED_CAFE));
        GeneratedDataset {
            spec: self.clone(),
            database,
            queries,
        }
    }

    fn generate_points(&self, n: usize, seed: u64) -> VectorSet {
        match self.kind {
            WorkloadKind::Manifold {
                intrinsic_dim,
                noise,
            } => low_dim_manifold(n, intrinsic_dim, self.dim, noise, seed),
            WorkloadKind::ClusteredGaussian { clusters, spread } => {
                gaussian_mixture(n, self.dim, clusters, spread, seed)
            }
            WorkloadKind::RobotArm { joints } => robot_arm_trajectories(n, joints, seed),
            WorkloadKind::ProjectedImages { side, components } => {
                let patches = tiny_image_patches(n, side, components, seed);
                // The projection matrix is tied to the *catalogue* seed (not
                // the per-set seed) so database and queries share it.
                let proj = RandomProjection::new(side * side, self.dim, self.seed ^ 0xBEEF);
                proj.project(&patches)
            }
        }
    }
}

/// The full Table 1 catalogue at the given scale.
///
/// `scale = 1.0` reproduces the paper's sizes (bio 200k, cov 500k, phy
/// 100k, robot 2M, tiny 10M — the latter needs tens of GB of RAM); the
/// benchmark harness defaults to a much smaller scale.
pub fn standard_catalog(scale: f64) -> Vec<DatasetSpec> {
    vec![
        DatasetSpec::new(
            "bio",
            200_000,
            74,
            WorkloadKind::Manifold {
                intrinsic_dim: 3,
                noise: 0.005,
            },
            scale,
            101,
        ),
        DatasetSpec::new(
            "cov",
            500_000,
            54,
            WorkloadKind::ClusteredGaussian {
                clusters: 64,
                spread: 0.03,
            },
            scale,
            102,
        ),
        DatasetSpec::new(
            "phy",
            100_000,
            78,
            WorkloadKind::Manifold {
                intrinsic_dim: 4,
                noise: 0.02,
            },
            scale,
            103,
        ),
        DatasetSpec::new(
            "robot",
            2_000_000,
            21,
            WorkloadKind::RobotArm { joints: 7 },
            scale,
            104,
        ),
        DatasetSpec::new(
            "tiny4",
            10_000_000,
            4,
            WorkloadKind::ProjectedImages {
                side: 16,
                components: 2,
            },
            scale,
            105,
        ),
        DatasetSpec::new(
            "tiny8",
            10_000_000,
            8,
            WorkloadKind::ProjectedImages {
                side: 16,
                components: 2,
            },
            scale,
            106,
        ),
        DatasetSpec::new(
            "tiny16",
            10_000_000,
            16,
            WorkloadKind::ProjectedImages {
                side: 16,
                components: 2,
            },
            scale,
            107,
        ),
        DatasetSpec::new(
            "tiny32",
            10_000_000,
            32,
            WorkloadKind::ProjectedImages {
                side: 16,
                components: 2,
            },
            scale,
            108,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_names_and_dims() {
        let cat = standard_catalog(0.001);
        let names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["bio", "cov", "phy", "robot", "tiny4", "tiny8", "tiny16", "tiny32"]
        );
        let dims: Vec<usize> = cat.iter().map(|s| s.dim).collect();
        assert_eq!(dims, vec![74, 54, 78, 21, 4, 8, 16, 32]);
        let paper_sizes: Vec<usize> = cat.iter().map(|s| s.paper_n).collect();
        assert_eq!(
            paper_sizes,
            vec![
                200_000, 500_000, 100_000, 2_000_000, 10_000_000, 10_000_000, 10_000_000,
                10_000_000
            ]
        );
    }

    #[test]
    fn scale_shrinks_sizes_with_floors() {
        let cat = standard_catalog(0.1);
        let bio = &cat[0];
        assert_eq!(bio.n, 20_000);
        assert_eq!(bio.n_queries, 1_000);

        let tiny_scale = standard_catalog(1e-9);
        assert!(tiny_scale
            .iter()
            .all(|s| s.n == 8 * 1024 && s.n_queries >= 64));
    }

    #[test]
    fn generate_produces_consistent_shapes() {
        for spec in standard_catalog(0.002) {
            let g = spec.generate();
            assert_eq!(g.database.len(), spec.n, "{}", spec.name);
            assert_eq!(g.database.dim(), spec.dim, "{}", spec.name);
            assert_eq!(g.queries.len(), spec.n_queries, "{}", spec.name);
            assert_eq!(g.queries.dim(), spec.dim, "{}", spec.name);
        }
    }

    #[test]
    fn database_and_queries_differ() {
        let spec = &standard_catalog(0.002)[0];
        let g = spec.generate();
        assert_ne!(g.database.point(0), g.queries.point(0));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &standard_catalog(0.002)[1];
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.database, b.database);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = DatasetSpec::new(
            "x",
            1000,
            4,
            WorkloadKind::Manifold {
                intrinsic_dim: 2,
                noise: 0.0,
            },
            0.0,
            1,
        );
    }
}
