//! Parameter selection for the RBC (paper §6).
//!
//! Both search algorithms have a single essential parameter: the expected
//! number of representatives `n_r` (the one-shot algorithm additionally
//! takes the ownership-list size `s`, which the paper — and Theorem 2 —
//! simply sets equal to `n_r`). The theory prescribes:
//!
//! * exact search, "standard parameter setting": `n_r ≈ c^{3/2}·√n`, which
//!   balances the two brute-force stages at `O(c^{3/2}·√n)` each
//!   (Theorem 1);
//! * one-shot search: `n_r = s = c·√(n·ln(1/δ))` for failure probability
//!   at most `δ` (Theorem 2).
//!
//! In practice `c` is unknown; the paper's experiments simply sweep or fix
//! `n_r` and note that performance "was not particularly sensitive to this
//! choice" (Appendix C / Figure 3). [`RbcParams::standard`] therefore
//! defaults to `√n` scaled by a caller-supplied intrinsic-dimension fudge
//! factor, and the explicit constructors expose the theory-driven settings.

use serde::{Deserialize, Serialize};

use rbc_bruteforce::BfConfig;

/// Parameters of the RBC data structure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RbcParams {
    /// Expected number of representatives `n_r`. Representatives are drawn
    /// by independent coin flips with probability `n_r / n`, exactly as in
    /// the paper's analysis, so the realised count fluctuates around this.
    pub n_reps: usize,
    /// Ownership-list size `s` for the one-shot structure (ignored by the
    /// exact structure, whose lists are determined by the nearest-
    /// representative assignment).
    pub list_size: usize,
    /// Seed for representative sampling.
    pub seed: u64,
}

impl RbcParams {
    /// The "standard parameter setting" of §6.1: `n_r = √n`, with `seed`
    /// controlling the random representative draw. The one-shot list size
    /// is set equal to `n_r` as in Theorem 2.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn standard(n: usize, seed: u64) -> Self {
        assert!(n > 0, "database must be non-empty");
        let nr = (n as f64).sqrt().ceil() as usize;
        Self {
            n_reps: nr.max(1),
            list_size: nr.max(1),
            seed,
        }
    }

    /// The exact-search setting of Theorem 1 with an explicit expansion
    /// rate: `n_r = c^{3/2}·√n`.
    pub fn exact_with_expansion(n: usize, c: f64, seed: u64) -> Self {
        assert!(n > 0, "database must be non-empty");
        assert!(c >= 1.0, "expansion rate is at least 1");
        let nr = (c.powf(1.5) * (n as f64).sqrt()).ceil() as usize;
        let nr = nr.clamp(1, n);
        Self {
            n_reps: nr,
            list_size: nr,
            seed,
        }
    }

    /// The one-shot setting of Theorem 2: `n_r = s = c·√(n·ln(1/δ))`,
    /// giving success probability at least `1 − δ`.
    ///
    /// # Panics
    /// Panics if `δ` is not in `(0, 1)`.
    pub fn one_shot_with_guarantee(n: usize, c: f64, delta: f64, seed: u64) -> Self {
        assert!(n > 0, "database must be non-empty");
        assert!(c >= 1.0, "expansion rate is at least 1");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let v = (c * ((n as f64) * (1.0 / delta).ln()).sqrt()).ceil() as usize;
        let v = v.clamp(1, n);
        Self {
            n_reps: v,
            list_size: v,
            seed,
        }
    }

    /// Overrides the number of representatives (used by the Figure 1 and
    /// Figure 3 parameter sweeps).
    #[must_use]
    pub fn with_n_reps(mut self, n_reps: usize) -> Self {
        assert!(n_reps > 0, "need at least one representative");
        self.n_reps = n_reps;
        self
    }

    /// Overrides the ownership-list size (one-shot only).
    #[must_use]
    pub fn with_list_size(mut self, list_size: usize) -> Self {
        assert!(list_size > 0, "ownership lists must be non-empty");
        self.list_size = list_size;
        self
    }
}

/// Search-time settings shared by both structures. The exact search
/// always applies the paper's three rules (eq. 1, eq. 2 and the sorted-list
/// cut after Claim 2); what remains to choose is how brute force is tiled
/// and scheduled, and how much approximation slack to allow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RbcConfig {
    /// Tiling / parallelism configuration forwarded to every brute-force
    /// call.
    pub bf: BfConfig,
    /// Exact search: relative approximation slack `ε ≥ 0`. With `ε = 0`
    /// the result is the exact nearest neighbor; with `ε > 0` the returned
    /// point is guaranteed to be within `(1+ε)` of the true NN distance
    /// (the relaxation mentioned in the paper's footnote 1), which
    /// tightens every pruning rule by a factor `1/(1+ε)` and reduces work.
    pub epsilon: f64,
}

impl Default for RbcConfig {
    fn default() -> Self {
        Self {
            bf: BfConfig::default(),
            epsilon: 0.0,
        }
    }
}

impl RbcConfig {
    /// Configuration that runs every brute-force call sequentially; used
    /// for single-core baselines and wherever work counts must not depend
    /// on the schedule.
    pub fn sequential() -> Self {
        Self {
            bf: BfConfig::sequential(),
            ..Self::default()
        }
    }

    /// Sets the approximation slack `ε`.
    ///
    /// # Panics
    /// Panics if `epsilon` is negative or not finite.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon >= 0.0 && epsilon.is_finite(),
            "epsilon must be >= 0"
        );
        self.epsilon = epsilon;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_setting_is_sqrt_n() {
        let p = RbcParams::standard(10_000, 1);
        assert_eq!(p.n_reps, 100);
        assert_eq!(p.list_size, 100);
        let p2 = RbcParams::standard(10_001, 1);
        assert_eq!(p2.n_reps, 101); // ceiling
    }

    #[test]
    fn exact_with_expansion_scales_with_c() {
        let base = RbcParams::exact_with_expansion(10_000, 1.0, 1);
        let grown = RbcParams::exact_with_expansion(10_000, 4.0, 1);
        assert_eq!(base.n_reps, 100);
        assert_eq!(grown.n_reps, 800); // 4^{3/2} = 8
    }

    #[test]
    fn exact_with_expansion_clamps_to_n() {
        let p = RbcParams::exact_with_expansion(100, 100.0, 1);
        assert_eq!(p.n_reps, 100);
    }

    #[test]
    fn one_shot_guarantee_grows_as_delta_shrinks() {
        let loose = RbcParams::one_shot_with_guarantee(10_000, 2.0, 0.1, 1);
        let tight = RbcParams::one_shot_with_guarantee(10_000, 2.0, 0.001, 1);
        assert!(tight.n_reps > loose.n_reps);
        assert_eq!(tight.n_reps, tight.list_size);
    }

    #[test]
    fn builders_override_fields() {
        let p = RbcParams::standard(100, 7)
            .with_n_reps(13)
            .with_list_size(29);
        assert_eq!(p.n_reps, 13);
        assert_eq!(p.list_size, 29);
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn config_ablation_switches() {
        let c = RbcConfig::default();
        assert_eq!(c.epsilon, 0.0);
        let approx = c.with_epsilon(0.5);
        assert_eq!(approx.epsilon, 0.5);
        let sequential = RbcConfig::sequential();
        assert!(!sequential.bf.parallel);
        assert_eq!(
            sequential,
            RbcConfig {
                bf: sequential.bf,
                ..c
            }
        );
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn invalid_delta_rejected() {
        let _ = RbcParams::one_shot_with_guarantee(100, 1.0, 1.5, 1);
    }

    #[test]
    #[should_panic(expected = "epsilon must be >= 0")]
    fn negative_epsilon_rejected() {
        let _ = RbcConfig::default().with_epsilon(-0.1);
    }

    #[test]
    #[should_panic(expected = "database must be non-empty")]
    fn empty_database_rejected() {
        let _ = RbcParams::standard(0, 1);
    }
}
