//! The cluster's node protocol: its messages, its endpoints and its nodes.
//!
//! `DistributedRbc` reaches every node through a [`NodeEndpoint`] with one
//! [`QueryRequest`] per contacted node per round, and a [`NodeShard`]
//! answers it. This module holds both sides, in process and over an actual
//! network — bit-identically:
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
//!   its placed lists), served in the coordinator's process by the
//!   endpoint every `DistributedRbc` starts with, or behind
//!   [`NodeServer`]'s accept loop, which binds port 0 and publishes the
//!   actual address. [`spawn_local_cluster`] serves an index's own shards
//!   that way in-process for tests and `shard_bench --wire`;
//!   `examples/wire_cluster.rs` runs the same servers as separate OS
//!   processes.
//!
//! Attach TCP endpoints with [`DistributedRbc::with_endpoints`]; each
//! fan-out round is then one pipelined exchange (all requests written,
//! then all replies read in contact order, so the nodes scan at the same
//! time), and a missed deadline in either round feeds the same mid-batch
//! failover and flagged-prefix degradation paths as a failed in-process
//! node.
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
