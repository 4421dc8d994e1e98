//! The parallel brute-force primitive `BF(Q, X[L])` (paper §3).
//!
//! The whole point of the Random Ball Cover is that both its build routines
//! and both of its search algorithms factor into calls of a single, easily
//! parallelised subroutine: brute-force nearest-neighbor search from a set
//! of queries `Q` to a subset `X[L]` of the database. This crate is that
//! subroutine.
//!
//! The primitive is decomposed exactly as the paper describes:
//!
//! 1. a **distance computation** step with the structure of a (blocked)
//!    matrix–matrix product — here a cache-tiled double loop over query
//!    tiles × database tiles, parallelised with rayon over queries; and
//! 2. a **comparison** step — a parallel reduction that keeps, per query,
//!    the nearest neighbor (or the `k` nearest, or everything within a
//!    radius).
//!
//! For a *single* query (the streaming case), the roles flip: the database
//! is split across workers (matrix–vector structure) and the per-worker
//! candidates are merged with a reduction.
//!
//! Every entry point reports the number of distance evaluations performed
//! ([`BfStats`]); "work" in the paper's theory is measured in distance
//! evaluations, and the benchmark harness uses these counters to verify the
//! `O(√n)` claims independently of wall-clock noise.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod group_scan;
pub mod neighbor;
pub mod primitive;
pub mod stats;
pub mod topk;

pub use group_scan::{GroupCursor, GroupScanStats, ListMirror};
pub use neighbor::Neighbor;
pub use primitive::{BfConfig, BruteForce, MIN_PARALLEL_EVALS};
pub use stats::BfStats;
pub use topk::TopK;
