//! Distributed Random Ball Cover — the paper's future-work direction.
//!
//! The conclusion of the paper (§8) sketches the extension this crate
//! builds: *"The RBC data structure suggests a simple distribution of the
//! database according to the representatives that could be quite effective
//! in such [distributed or multi-GPU] environments. There are many
//! interesting details for study here, such as I/O and communication
//! costs."*
//!
//! The design follows that sketch directly:
//!
//! * the coordinator builds an exact RBC over the database and places
//!   whole ownership lists onto worker nodes — balanced single-owner
//!   storage, r-fold replication, or traffic-steered hottest-list
//!   replication ([`placement`]) — or replays an explicit placement, for
//!   studying skewed layouts;
//! * every node holds only its shard of the database; the coordinator
//!   keeps the (small, `O(√n)`) representative set;
//! * a query runs the usual first stage locally on the coordinator,
//!   applies the paper's pruning rules, and is forwarded *only to the
//!   nodes owning surviving lists* — first to the owner of its nearest
//!   list, then, under the threshold that scan returned, to the owners of
//!   the lists it still needs; each contacted node answers from its shard
//!   and the coordinator reduces the partial results. This exact batch
//!   protocol is the cluster's only one; a single query is a batch of one.
//!
//! One protocol runs the cluster, and a node is reached only through a
//! [`NodeEndpoint`]: every contact is one [`QueryRequest`](net::QueryRequest)
//! per node per round, answered by that node's [`NodeShard`](net::NodeShard)
//! — its placed lists and only their points. Two endpoints serve a shard.
//! The default keeps each shard in the coordinator's process and asks the
//! shared liveness flags ([`NodeHealth`]) before each contact (see the
//! `rbc-distributed` section of docs/ARCHITECTURE.md). The [`net`] module
//! puts the same requests on length-prefixed framed TCP to node processes
//! that each own only their shard, where failure is detected by deadline
//! ([`DistributedRbc::with_endpoints`]). Either way the coordinator counts
//! the same frames at their exact encoded size ([`CommCost`]), so over the
//! wire the count equals the bytes the sockets carried —
//! `shard_bench --wire` asserts that equality. These are the
//! "I/O and communication costs" the paper defers to future work.
//!
//! # Sharded serving architecture
//!
//! [`DistributedRbc`] is a first-class batched
//! [`SearchIndex`](rbc_core::SearchIndex), which is how the sharding
//! layer and the online serving layer (`rbc-serve`) compose into one
//! system. A micro-batch closed by the serving engine flows through the
//! routed list-major protocol
//! ([`query_batch_exact`](DistributedRbc::query_batch_exact)):
//!
//! 1. **Plan once, centrally.** The coordinator runs the centralized
//!    search's stage 1 (`rbc_core::ExactRbc::stage1`, no matrix kept): each
//!    query keeps a collector seeded with the representatives and a row of
//!    surviving lists. Steps 2–4 are that search's stage-2 driver
//!    (`rbc_core::batch_plan::Candidates::nearest_then_rest`) with fan-out
//!    rounds as its executor.
//! 2. **Round one: nearest list first, where it lives.** Each query's
//!    nearest surviving list — the list the centralized search scans first
//!    (its phase A) — is inverted into a
//!    [`BatchPlan`](rbc_core::BatchPlan) and sent to that list's owner.
//! 3. **Re-plan between the rounds.** The round-one partials are merged
//!    into the seeded collectors, and each query's threshold `τ_q` drops
//!    every remaining list whose run it already empties — the centralized
//!    search's re-plan, made where the thresholds come back. Only
//!    thresholds cross the network, never lists.
//! 4. **Round two: the rest, capped by `τ_q`.** What is left goes out with
//!    `τ_q` as each query's cap, and the coordinator merges seeds, round
//!    one and round two. With `epsilon == 0` the merged answers are
//!    bit-identical to the centralized search (and to brute force), and the
//!    cluster does about the centralized search's evaluations.
//!
//! In each round the plan is split by the routing policy
//! (`BatchPlan::split_routed`): every group goes to the least-loaded
//! **live** replica of its list, and every contacted node receives **one**
//! message per round carrying the distinct query payloads its groups need
//! — not one message per `(query, node)` pair, so headers amortise and
//! bytes on the wire grow sublinearly in the batch size. Each node runs
//! the same driver over its pairs with the in-process group scans as the
//! executor (`rbc_core::batch_plan::Stage2::nearest_then_rest`), each list
//! streamed once per group through
//! `rbc_bruteforce::BruteForce::knn_group_in_list`, and replies with
//! per-query partial top-k sets.
//!
//! Work and traffic are observable per node: every result carries
//! [`NodeLoad`] records (who worked, who got the bytes — load skew is a
//! first-class measurement), and a shared [`ClusterLoad`] accumulates
//! them so a live serving engine can snapshot per-node totals alongside
//! its throughput and latency metrics
//! (`rbc_serve::ServeMetrics::track_cluster`). The `shard_bench` binary
//! in `rbc-bench` sweeps node counts × batch sizes × placement policies
//! over this protocol and pins the bit-identity, the sublinear
//! bytes-per-batch growth, and the replicated skew reduction in CI.
//!
//! # Placement & failover
//!
//! Balanced storage is not balanced traffic: the routed protocol showed
//! 4–9× eval skew on clustered query streams even with perfectly
//! balanced points-per-node, because the stream concentrates on a few
//! hot ownership lists — and a single-owner list has no second home when
//! its node fails. The placement layer closes both gaps. Owner-first
//! rounds deepen the first gap: round one sends every query to the owner
//! of its nearest list, so a hot list's single owner does most of round
//! one.
//!
//! **Placement.** Every list has a replica set
//! ([`Placement::replicas_of_list`]) built by a [`PlacementPolicy`]:
//!
//! * [`SingleOwner`](PlacementPolicy::SingleOwner) — the LPT baseline,
//!   one home per list;
//! * [`Replicated`](PlacementPolicy::Replicated) — every list on `r`
//!   distinct nodes, so any single failure leaves full coverage;
//! * [`HottestLists`](PlacementPolicy::HottestLists) — replicas only for
//!   the lists that actually receive traffic, steered by the observed
//!   per-list group frequencies ([`ClusterLoad::list_traffic`]);
//!   [`DistributedRbc::repartitioned`] closes the feedback loop (serve,
//!   observe, repartition).
//!
//! Replication is paid for in **storage**, not per-query messages: each
//! group is still routed to exactly one replica (the least-loaded live
//! one, so a hot list's groups spread across its homes), and the extra
//! copies show in [`ClusterLoad::storage_overhead`].
//!
//! **Failover and the degradation contract.** Node liveness is shared
//! state ([`NodeHealth`]): a failed node is routed around; a node that
//! dies **mid-batch** (armed with [`NodeHealth::poison`], which fails the
//! node at its next contact) never replies, and the coordinator re-routes
//! its groups to surviving replicas within the same batch
//! ([`DistributedQueryStats::rerouted_groups`]). Only when **every**
//! replica of a list is dead are its groups lost, and the affected
//! queries are answered with a **flagged partial answer**
//! ([`DistributedQueryStats::degraded`]): the representative candidates
//! plus all surviving groups' candidates, truncated to distances strictly
//! below `min_ℓ (ρ(q, rep_ℓ) − ψ_ℓ)` over the lost lists `ℓ` — by the
//! triangle inequality no lost point can beat such a candidate, so at
//! `ε = 0` the degraded answer is always a *prefix* of the exact top-k
//! (possibly shorter than `k`, never wrong; with `ε > 0` the usual
//! `(1+ε)` substitution margin applies, as everywhere else). Queries that
//! touched no lost list stay exact and unflagged.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod distributed;
pub mod load;
pub mod net;
pub mod placement;

pub use cluster::{ClusterConfig, CommCost};
pub use distributed::{DistributedQueryStats, DistributedRbc};
pub use load::{eval_skew, ClusterLoad, NodeHealth, NodeLoad};
pub use net::{NetConfig, NetError, NodeEndpoint, TcpNodeClient};
pub use placement::{Placement, PlacementPolicy};
