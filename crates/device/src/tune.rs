//! Empirically tuned tile policies.
//!
//! [`MachineProfile::tile_policy`](crate::MachineProfile::tile_policy)
//! ships heuristic tile shapes derived from the thread count alone. The
//! `batch_bench --tune` sweep replaces guesswork with measurement: it
//! times the full batched search over a grid of
//! `query_tile × db_tile × layout` combinations on the actual machine and
//! persists the winner as a [`TilePolicy`] JSON file. Pointing the
//! `RBC_TILE_POLICY` environment variable at that file makes every
//! profile's `tile_policy()` return the measured shape instead of the
//! heuristic one, so the tuning result flows to every engine (exact,
//! one-shot, distributed, serve) without a code change.

use std::sync::OnceLock;

use rbc_bruteforce::BfConfig;
use serde::{Deserialize, Serialize};

/// A measured brute-force tile policy: the subset of [`BfConfig`] the
/// autotuner sweeps (parallelism stays a property of the machine profile).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilePolicy {
    /// Number of queries per parallel task.
    pub query_tile: usize,
    /// Number of database items per inner tile.
    pub db_tile: usize,
    /// Whether scans should use the blocked SoA layout + SIMD lane kernel.
    pub blocked: bool,
}

impl TilePolicy {
    /// Extracts the tunable subset of a full configuration.
    pub fn from_config(config: BfConfig) -> Self {
        Self {
            query_tile: config.query_tile,
            db_tile: config.db_tile,
            blocked: config.blocked,
        }
    }

    /// Applies this policy on top of `base`, keeping `base.parallel`
    /// (whether to parallelise is a property of the machine, not of the
    /// tile shape).
    pub fn apply(&self, base: BfConfig) -> BfConfig {
        BfConfig {
            query_tile: self.query_tile.max(1),
            db_tile: self.db_tile.max(1),
            blocked: self.blocked,
            ..base
        }
    }

    /// Serialises the policy to a JSON file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::other(format!("serialising tile policy: {e:?}")))?;
        std::fs::write(path, json)
    }

    /// Loads a policy from a JSON file produced by [`save`](Self::save)
    /// (or by `batch_bench --tune`).
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::other(format!("parsing tile policy {path:?}: {e:?}")))
    }
}

/// The tuned policy named by the `RBC_TILE_POLICY` environment variable,
/// if the variable is set and points at a readable policy file. Read once
/// per process; an unreadable or malformed file is treated as unset (the
/// heuristic policy is always a safe fallback).
pub fn env_policy() -> Option<TilePolicy> {
    static CACHED: OnceLock<Option<TilePolicy>> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let path = std::env::var_os("RBC_TILE_POLICY")?;
        if path.is_empty() {
            return None;
        }
        TilePolicy::load(std::path::Path::new(&path)).ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_round_trips_through_config() {
        let base = BfConfig {
            query_tile: 33,
            db_tile: 777,
            parallel: false,
            blocked: false,
        };
        let policy = TilePolicy::from_config(base);
        assert_eq!(
            policy,
            TilePolicy {
                query_tile: 33,
                db_tile: 777,
                blocked: false
            }
        );
        // `apply` keeps the base's parallelism and clamps zero tiles.
        let applied = policy.apply(BfConfig::default());
        assert_eq!(applied.query_tile, 33);
        assert_eq!(applied.db_tile, 777);
        assert!(!applied.blocked);
        assert!(applied.parallel);

        let degenerate = TilePolicy {
            query_tile: 0,
            db_tile: 0,
            blocked: true,
        };
        assert!(degenerate.apply(BfConfig::default()).validate().is_ok());
    }

    #[test]
    fn policy_round_trips_through_json_file() {
        let policy = TilePolicy {
            query_tile: 16,
            db_tile: 1024,
            blocked: true,
        };
        let path = std::env::temp_dir().join("rbc_tile_policy_test.json");
        policy.save(&path).unwrap();
        let back = TilePolicy::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(policy, back);
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join("rbc_tile_policy_garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        let result = TilePolicy::load(&path);
        let _ = std::fs::remove_file(&path);
        assert!(result.is_err());
    }
}
