//! The real wire transport under the sharded cluster.
//!
//! Everything in this module exists so that `DistributedRbc` can run
//! the *same* routed-batch protocol over an actual network instead of
//! the in-process simulation — bit-identically:
//!
//! * [`frame`] — length-prefixed, versioned binary frames over
//!   `std::net` TCP, with request-id correlation and defensive reads;
//! * [`codec`] — binary codecs for the protocol's messages: routed
//!   sub-plans (per-list query groups from `BatchPlan::split_routed`, with
//!   one pruning cap per query: `γ_k` in the first round, the threshold
//!   `τ_q` the first round returned in the second — the frame is the same
//!   for both), partial top-k replies, and health probes;
//! * [`endpoint`] — the coordinator's side: [`NodeEndpoint`] and its
//!   framed-TCP implementation [`TcpNodeClient`], with connect/read
//!   deadlines, retry-with-backoff, `net.send`/`net.recv`/`net.timeout`
//!   spans and `rbc_net_*` metrics. An exchange splits into
//!   [`NodeEndpoint::send`] and [`InFlight::wait`], so a round can put
//!   every request on the wire before it reads a reply. Deadlines replace
//!   the `NodeHealth` oracle: a peer that hangs mid-frame is *detected*,
//!   not declared;
//! * [`server`] — the node's side: [`NodeShard`] (a worker owning only
//!   its placed lists) behind [`NodeServer`]'s accept loop, which binds
//!   port 0 and publishes the actual address. [`spawn_local_cluster`]
//!   stands a whole wire cluster up in-process for tests and
//!   `shard_bench --wire`; `examples/wire_cluster.rs` runs the same
//!   servers as separate OS processes.
//!
//! Attach endpoints with [`DistributedRbc::with_endpoints`]; the
//! coordinator then ships every routed sub-plan of both fan-out rounds
//! over the wire, each round as one pipelined exchange (all requests
//! written, then all replies read in contact order, so the nodes scan at
//! the same time), and a missed deadline in either round feeds the
//! existing mid-batch failover and flagged-prefix degradation paths
//! unchanged.
//!
//! [`DistributedRbc::with_endpoints`]: crate::DistributedRbc::with_endpoints

pub mod codec;
pub mod endpoint;
pub mod frame;
pub mod server;

pub use codec::{CodecError, ProbeAck, QueryReply, QueryRequest, WireGroup};
pub use endpoint::{InFlight, NetConfig, NetCounters, NetError, NodeEndpoint, TcpNodeClient};
pub use frame::{
    read_frame, write_frame, Frame, FrameError, MsgKind, FRAME_HEADER_BYTES, FRAME_MAGIC,
    MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
pub use server::{spawn_local_cluster, LocalWireCluster, NodeServer, NodeShard};
