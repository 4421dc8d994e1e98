//! The Random Ball Cover (RBC): parallel metric nearest-neighbor search.
//!
//! This crate implements the primary contribution of Cayton,
//! *Accelerating Nearest Neighbor Search on Manycore Systems* (2012): a
//! single-level randomized cover of a metric space whose build and search
//! routines factor entirely into brute-force primitives, making them
//! trivially parallel while still performing only `O(√n)`-ish work per
//! query.
//!
//! # The data structure (paper §4)
//!
//! A random subset `R ⊂ X` of about `n_r` **representatives** is chosen by
//! independent coin flips with probability `n_r / n`. Each representative
//! `r` *owns* a list `L_r` of database points, and stores the radius
//! `ψ_r = max_{x ∈ L_r} ρ(x, r)` of that list. The two search algorithms
//! use slightly different ownership rules:
//!
//! * **one-shot** ([`OneShotRbc`]): `L_r` holds the `s` nearest database
//!   points to `r` (lists overlap); built with `BF(R, X)`, in two waves
//!   so that most representatives screen against a tight cap.
//! * **exact** ([`ExactRbc`]): `L_r` holds every `x` whose nearest
//!   representative is `r` (lists partition `X`); built with one call
//!   `BF(X, R)`.
//!
//! # The search algorithms (paper §5)
//!
//! * **One-shot** — find the nearest representative `r` with `BF(q, R)`,
//!   then answer with `BF(q, X[L_r])`. Correct with probability ≥ 1 − δ
//!   when `n_r = s = c·√(n·ln(1/δ))` (Theorem 2).
//! * **Exact** — compute all representative distances, let
//!   `γ = ρ(q, r_q)` be the smallest, discard every representative with
//!   `ρ(q, r) ≥ γ + ψ_r` (the radius bound, eq. 1) or `ρ(q, r) > 3γ`
//!   (Lemma 1, eq. 2), then answer with one brute-force pass over the
//!   surviving lists. Expected work is `O(c^{3/2}·√n)` at the standard
//!   parameter setting (Theorem 1).
//!
//! Every query reports its work in distance evaluations
//! ([`QueryStats`] / [`SearchStats`]) so the `√n` scaling can be verified
//! directly — this is what the benchmark harness and EXPERIMENTS.md do.
//!
//! # Batched search architecture
//!
//! Every k-NN search runs as a batch (`query_batch_k` on either structure,
//! and everything the serving layer routes through
//! [`SearchIndex::search_batch`]); `query` / `query_k` are batches of one.
//! A batch runs the paper's two brute-force calls:
//!
//! 1. **Stage 1 — seed.** One dense, tiled `BF(Q, R)` call scores every
//!    query against every representative, and each query's row is turned
//!    into its candidate row on the thread that scored it, while it is in
//!    cache (`BruteForce::rows_with`; the query × representative matrix is
//!    never assembled): for the exact structure a top-k collector seeded
//!    with the representatives (its threshold is `γ_k`) and the lists
//!    eq. 1 / eq. 2 keep against `γ_k`; for the one-shot, the argmin — all
//!    its stage 1 retains. A query whose distances are all NaN has no
//!    nearest representative: the one-shot search answers it empty, as the
//!    exact search does.
//! 2. **Stage 2 — list-major execution.** `BF` over the chosen lists,
//!    parallel over ownership *lists*, not queries
//!    ([`batch_plan::Stage2`]): (query, list) pairs are
//!    grouped by list, and each group's list goes **once** through
//!    `rbc_bruteforce`'s group scan, which finds every query's admissible
//!    run of the sorted list by binary search and scores its lane groups
//!    while the list is cache-resident, each query on a private top-k copy
//!    merged into the shared accumulator when its run is done. The one-shot
//!    search is one such phase. The exact search is two, with the plan
//!    *between* them: *phase A* scans each query's **nearest surviving
//!    list** — where Theorem 2 says its neighbours are; then each query's
//!    tightened threshold `τ_q` is read once, and *phase B* plans only the
//!    survivors whose run `τ_q` does not already empty (the scan's own
//!    near-side cut taken at the list's radius, strict, so ties still
//!    resolve by index). A plan made before any scan can cut only against
//!    `γ_k`, and its work grows with the batch (a list nearest to one query
//!    is merely a survivor for the others that share its group); this way a
//!    query evaluates the same ≈ single-query floor at every batch size,
//!    and cursors are built for ≈ 6 pairs per query instead of ≈ 78.
//!
//! [`BatchPlan`] — survivor pairs inverted into list groups — is what a
//! *distributed* coordinator routes (it holds no lists to scan). It runs
//! the two phases as two fan-out rounds: each query's nearest list on its
//! owner, then the survivors the returned `τ_q` does not empty; each node
//! runs the same two phases over the pairs it was sent.
//!
//! In exact mode (`epsilon == 0`) a batch's answers are brute force's,
//! bit for bit, and each row's answer is the one it gets alone: pruning
//! only ever discards points that provably cannot enter the final top-k
//! and ties break deterministically by index (NaN distances last), so
//! what a batch changes is memory traffic. With `epsilon > 0` the cut is
//! deliberately lossy; every answer honours the `(1+ε)` guarantee, but
//! which eligible answer comes back may depend on the batch.
//! [`SearchStats::tile_sharing_factor`] reports how many queries each
//! shared scan served.
//!
//! # Quick example
//!
//! ```
//! use rbc_core::{ExactRbc, OneShotRbc, RbcConfig, RbcParams};
//! use rbc_metric::{Euclidean, VectorSet};
//!
//! // A toy database of 1000 points on a noisy circle in R^8.
//! let pts: Vec<Vec<f32>> = (0..1000)
//!     .map(|i| {
//!         let t = i as f32 * 0.006283;
//!         let mut v = vec![t.cos(), t.sin()];
//!         v.extend(std::iter::repeat(0.01 * (i % 7) as f32).take(6));
//!         v
//!     })
//!     .collect();
//! let db = VectorSet::from_rows(&pts);
//!
//! let params = RbcParams::standard(db.len(), 7);
//! let exact = ExactRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
//! let (nn, stats) = exact.query(db.point(123));
//! assert_eq!(nn.index, 123);                 // the point itself is its NN
//! assert!(stats.total_distance_evals() < 1000); // far less work than brute force
//!
//! // One-shot search is probabilistic (Theorem 2): it answers from the
//! // nearest representative's ownership list only, so success depends on
//! // that list reaching the query's neighborhood. Quadrupling the standard
//! // √n list size makes recovering this query certain rather than likely.
//! let one_shot = OneShotRbc::build(
//!     &db,
//!     Euclidean,
//!     params.with_list_size(128),
//!     RbcConfig::default(),
//! );
//! let (nn_os, _) = one_shot.query(db.point(123));
//! assert_eq!(nn_os.index, 123);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod batch_plan;
pub mod exact;
pub mod index;
pub mod one_shot;
pub mod params;
pub mod rank;
pub mod reps;
pub mod stats;

pub use batch_plan::{BatchPlan, ListGroup};
pub use exact::ExactRbc;
pub use index::SearchIndex;
pub use one_shot::OneShotRbc;
pub use params::{RbcConfig, RbcParams};
pub use rank::{mean_rank, rank_of};
pub use reps::{sample_representatives, OwnershipList};
pub use stats::{QueryStats, SearchStats};
