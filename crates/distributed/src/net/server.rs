//! Node side of the cluster: a shard that owns its placed lists, and the
//! two endpoints that serve it — in this process, or behind framed TCP.
//!
//! A [`NodeShard`] is what a worker actually stores: only the points of
//! the ownership lists placed on it (gathered in ascending global index
//! order so local top-k tie-breaks agree with global ones), the
//! per-list sorted member distances, its lists' representative
//! coordinates (to recompute `ρ(q, rep_ℓ)` on arrival instead of
//! shipping one `f64` per routed pair), and the blocked SIMD mirrors —
//! everything needed to run the centralized search's group-scan kernel,
//! bit-identically.
//!
//! `LocalNode` is the in-process endpoint: it answers each contact from
//! the shard directly, after asking the shared [`NodeHealth`] whether the
//! node is up. [`NodeServer`] wraps a shard in a TCP accept loop. It binds
//! `127.0.0.1:0` and publishes the actual address, so concurrent CI
//! jobs (or concurrent tests in one process) can never collide on a
//! fixed port. A server can be *armed to hang*: it then stalls
//! mid-frame on every subsequent message — writing a few header bytes
//! and going silent — which is the failure mode only a read deadline
//! can detect.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rbc_bruteforce::{BfConfig, BruteForce, ListMirror, TopK};
use rbc_core::batch_plan::{CandidateRow, Candidates, ListBounds, ListView, Stage2};
use rbc_core::ExactRbc;
use rbc_metric::{Dataset, Dist, Metric, VectorSet, VectorSetBuilder};

use super::codec::{check_shrink, ProbeAck, QueryReply, QueryRequest};
use super::endpoint::{NetConfig, NetError, NodeEndpoint, TcpNodeClient};
use super::frame::{read_frame, write_frame, CountingReader, FrameError, MsgKind};
use crate::distributed::DistributedRbc;
use crate::load::NodeHealth;
use crate::placement::Placement;

/// One ownership list as stored on its node: members as local point
/// indices (original list order), the sorted representative distances
/// that drive the sorted-list cut, the representative's coordinates,
/// and the blocked SIMD mirror (representatives masked).
struct ShardList {
    members: Vec<usize>,
    member_dists: Vec<Dist>,
    rep_coords: Vec<f32>,
    blocks: Option<ListMirror>,
}

/// A worker node's shard: the placed lists and only their points.
pub struct NodeShard<M> {
    node: usize,
    dim: usize,
    metric: M,
    bf: BruteForce,
    /// Local points, ascending global index order.
    points: VectorSet,
    /// Local index → global database index.
    global_ids: Vec<usize>,
    /// Local representative flags (representatives are scored by the
    /// coordinator's stage 1; node scans skip them).
    rep_flags: Vec<bool>,
    lists: Vec<ShardList>,
    /// The placed lists' radii and lengths, by slot, for the re-plan.
    bounds: ListBounds,
    slot_of_list: HashMap<usize, usize>,
}

impl<M> fmt::Debug for NodeShard<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeShard")
            .field("node", &self.node)
            .field("lists", &self.lists.len())
            .field("points", &self.global_ids.len())
            .finish()
    }
}

impl<M: Metric<[f32]>> NodeShard<M> {
    /// Extracts node `node`'s shard from a built index and its
    /// placement: every list whose replica set contains the node, with
    /// members re-based onto a compact local point set.
    ///
    /// # Panics
    /// Panics if `node` is out of range for the placement.
    pub fn from_exact<D>(rbc: &ExactRbc<D, M>, placement: &Placement, node: usize) -> Self
    where
        D: Dataset<Item = [f32]>,
        M: Clone,
    {
        let db = rbc.database();
        let lists = rbc.lists();
        let placed: Vec<usize> = (0..lists.len())
            .filter(|&l| placement.replicas_of_list[l].contains(&node))
            .collect();

        // Gather owned points in ascending global order: local index
        // comparisons then agree with global ones, which preserves the
        // deterministic (distance, index) tie-break and hence
        // bit-identity with the centralized scan.
        let mut global_ids: Vec<usize> = placed
            .iter()
            .flat_map(|&l| lists[l].members.iter().copied())
            .collect();
        global_ids.sort_unstable();
        global_ids.dedup();

        let dim = if db.is_empty() { 0 } else { db.get(0).len() };
        let mut builder = VectorSetBuilder::with_capacity(dim, global_ids.len());
        for &g in &global_ids {
            builder.push(db.get(g));
        }
        let points = builder.build();

        let rep_set: std::collections::HashSet<usize> = rbc.rep_indices().iter().copied().collect();
        let rep_flags: Vec<bool> = global_ids.iter().map(|g| rep_set.contains(g)).collect();

        let mut shard_lists = Vec::with_capacity(placed.len());
        let mut slot_of_list = HashMap::with_capacity(placed.len());
        for &l in &placed {
            let list = &lists[l];
            let members: Vec<usize> = list
                .members
                .iter()
                .map(|&g| {
                    global_ids
                        .binary_search(&g)
                        .expect("member gathered into the local point set")
                })
                .collect();
            let blocks = ListMirror::gather(
                &points,
                &members,
                Some(&list.member_dists),
                Some(&rep_flags),
            );
            slot_of_list.insert(l, shard_lists.len());
            shard_lists.push(ShardList {
                members,
                member_dists: list.member_dists.clone(),
                rep_coords: db.get(list.rep_index).to_vec(),
                blocks,
            });
        }

        // A node scans its groups sequentially; the cluster's parallelism
        // is across nodes.
        let bf = BruteForce::with_config(BfConfig {
            parallel: false,
            ..rbc.config().bf
        });

        Self {
            node,
            dim,
            metric: rbc.metric().clone(),
            bf,
            points,
            global_ids,
            rep_flags,
            lists: shard_lists,
            bounds: ListBounds::new(placed.iter().map(|&l| (lists[l].radius, lists[l].len()))),
            slot_of_list,
        }
    }

    /// The node id this shard belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Ownership lists placed on this node.
    pub fn lists(&self) -> usize {
        self.lists.len()
    }

    /// Database points stored on this node.
    pub fn points(&self) -> usize {
        self.global_ids.len()
    }

    /// The shard's answer to a health probe.
    fn probe_ack(&self) -> ProbeAck {
        ProbeAck {
            node: self.node as u32,
            lists: self.lists.len() as u32,
            points: self.global_ids.len() as u64,
        }
    }

    /// Executes a routed sub-plan against the shard: recompute each
    /// pair's `ρ(q, rep_ℓ)` from the stored representative, run the shared
    /// stage 2 over the pairs (every query's nearest *local* list first,
    /// then what its threshold still admits), and remap the partial top-k
    /// results back to global database indices.
    ///
    /// # Errors
    /// A static message when the request is inconsistent with this
    /// shard (wrong dimension, a list not placed here, `k == 0`), when a
    /// group's members are not strictly ascending or reach past the query
    /// table, when a query is a member of two groups of one list, or when
    /// `shrink` is not finite or is below 1.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryReply, &'static str> {
        let k = request.k as usize;
        if k == 0 {
            return Err("k must be at least 1");
        }
        check_shrink(request.shrink)?;
        if request.dim as usize != self.dim {
            return Err("query dimension does not match the shard");
        }
        let nq = request.queries();
        if request.coords.len() != nq * self.dim {
            return Err("coordinate table does not match queries x dim");
        }
        let queries = VectorSet::from_flat(request.coords.clone(), self.dim.max(1));
        let accumulators: Vec<Mutex<TopK>> = (0..nq).map(|_| Mutex::new(TopK::new(k))).collect();
        // The routed pairs by query, each with its `ρ(q, rep_ℓ)`; lists are
        // named by shard slot. A pair repeated, within a group or across two
        // groups of one list, would scan its list twice for that query and
        // could admit a point twice. Two groups of one list with disjoint
        // members are the chunks of a split hot group routed to one home.
        let mut rows = vec![CandidateRow::new(); nq];
        for group in &request.groups {
            let &slot = self
                .slot_of_list
                .get(&(group.list_index as usize))
                .ok_or("list not placed on this node")?;
            if group.members.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err("group members must be strictly ascending");
            }
            if group.members.last().is_some_and(|&m| m as usize >= nq) {
                return Err("group member beyond the query table");
            }
            let rep_coords = &self.lists[slot].rep_coords;
            for &m in &group.members {
                let row = &mut rows[m as usize];
                if row.iter().any(|&(listed, _)| listed == slot) {
                    return Err("a query is a member of two groups of one list");
                }
                let d_to_rep = self.metric.dist(queries.point(m as usize), rep_coords);
                row.push((slot, d_to_rep));
            }
        }
        let stage2 = Stage2 {
            bf: &self.bf,
            parallel: false,
            queries: &queries,
            db: &self.points,
            metric: &self.metric,
            list: |slot: usize| {
                let list = &self.lists[slot];
                ListView {
                    members: &list.members,
                    member_dists: &list.member_dists,
                    mirror: list.blocks.as_ref(),
                }
            },
            bounds: &self.bounds,
            shrink: request.shrink,
            sorted_cut: true,
            skip: Some(&self.rep_flags),
        };
        let candidates = Candidates::new(rows);
        let evals = stage2
            .nearest_then_rest(&candidates, &request.gammas, &accumulators)
            .list_distance_evals;
        let results = accumulators
            .into_iter()
            .map(|acc| {
                acc.into_inner()
                    .expect("top-k accumulator lock poisoned")
                    .into_sorted()
                    .into_iter()
                    .map(|n| (self.global_ids[n.index] as u64, n.dist))
                    .collect()
            })
            .collect();
        Ok(QueryReply { evals, results })
    }
}

/// A cluster node in this process: the coordinator's own copy of the
/// node's shard. A contact first asks the shared [`NodeHealth`] whether the
/// node is up — so a failed node refuses it and a poisoned one fails it
/// once, as a deadline would on the wire — and then executes the request
/// on the shard. It keeps the provided [`NodeEndpoint::send`], so a round
/// runs its local nodes' calls on the pool.
pub(crate) struct LocalNode<M> {
    pub(crate) shard: Arc<NodeShard<M>>,
    pub(crate) health: Arc<NodeHealth>,
}

impl<M> fmt::Debug for LocalNode<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LocalNode").field(&self.shard).finish()
    }
}

impl<M: Metric<[f32]> + Send + Sync> NodeEndpoint for LocalNode<M> {
    fn node(&self) -> usize {
        self.shard.node()
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryReply, NetError> {
        if !self.health.contact(self.node()) {
            return Err(NetError::Io(io::ErrorKind::NotConnected.into()));
        }
        self.shard
            .execute(request)
            .map_err(|msg| NetError::Protocol(msg.to_owned()))
    }

    fn probe(&self) -> Result<ProbeAck, NetError> {
        Ok(self.shard.probe_ack())
    }
}

/// How often idle server connections poll the stop flag.
const SERVER_POLL: Duration = Duration::from_millis(100);

/// A running wire node: the accept loop around a [`NodeShard`].
pub struct NodeServer {
    addr: SocketAddr,
    hang: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Binds `127.0.0.1:0` (the OS picks a free port — no fixed ranges,
    /// no collisions between parallel jobs), spawns the accept loop,
    /// and returns with the actual address already published via
    /// [`addr`](Self::addr).
    ///
    /// # Errors
    /// Any socket error while binding.
    pub fn spawn<M>(shard: Arc<NodeShard<M>>, verbose: bool) -> io::Result<Self>
    where
        M: Metric<[f32]> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let hang = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let hang = Arc::clone(&hang);
            let stop = Arc::clone(&stop);
            // `accept` blocks, so a connection is taken the moment it
            // arrives; `stop` wakes the loop with a connection of its own.
            std::thread::spawn(move || {
                while let Ok((stream, peer)) = listener.accept() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if verbose {
                        eprintln!("node {}: accepted {peer}", shard.node());
                    }
                    // Replies are single small writes on a request/reply
                    // rhythm — Nagle + delayed ACK would add tens of ms per
                    // query.
                    let _ = stream.set_nodelay(true);
                    let shard = Arc::clone(&shard);
                    let hang = Arc::clone(&hang);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        serve_connection(&stream, &shard, &hang, &stop, verbose);
                    });
                }
            })
        };
        Ok(Self {
            addr,
            hang,
            stop,
            handle: Some(handle),
        })
    }

    /// The actual bound address (port chosen by the OS).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Arms the hang directly (tests in the same process); remote
    /// callers use [`TcpNodeClient::hang`].
    pub fn arm_hang(&self) {
        self.hang.store(true, Ordering::Relaxed);
    }

    /// Whether the server was told to stop (a wire `Shutdown`, or
    /// [`stop`](Self::stop)) — lets a node *process* park its main
    /// thread until the coordinator dismisses it.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and joins it. Hung connection handlers
    /// also observe the flag and unwind.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            // Wake the accept loop, blocked in `accept`, to see the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Stalls mid-frame: a few header bytes go out, then nothing — the
/// peer's read deadline is the only thing that can detect this.
fn hang_mid_frame(mut stream: &TcpStream, stop: &AtomicBool) {
    let partial = [super::frame::FRAME_MAGIC[0], super::frame::FRAME_MAGIC[1]];
    let _ = stream.write_all(&partial);
    let _ = stream.flush();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(SERVER_POLL);
    }
}

fn serve_connection<M: Metric<[f32]>>(
    mut stream: &TcpStream,
    shard: &NodeShard<M>,
    hang: &AtomicBool,
    stop: &AtomicBool,
    verbose: bool,
) {
    if stream.set_read_timeout(Some(SERVER_POLL)).is_err() {
        return;
    }
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let mut reader = CountingReader::new(stream);
        let frame = match read_frame(&mut reader) {
            Ok((frame, _)) => frame,
            // An idle poll tick: nothing consumed, keep waiting.
            Err(FrameError::Io(ref e))
                if reader.count == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                continue;
            }
            // Peer went away or sent garbage: drop the connection.
            Err(_) => return,
        };
        if hang.load(Ordering::Relaxed) {
            if verbose {
                eprintln!(
                    "node {}: hanging mid-frame on {:?} id={}",
                    shard.node(),
                    frame.kind,
                    frame.request_id
                );
            }
            hang_mid_frame(stream, stop);
            return;
        }
        let outcome = match frame.kind {
            MsgKind::Query => match QueryRequest::decode(&frame.payload) {
                Ok(request) => match shard.execute(&request) {
                    Ok(reply) => write_frame(
                        &mut stream,
                        MsgKind::Reply,
                        frame.request_id,
                        &reply.encode(),
                    ),
                    Err(msg) => write_frame(
                        &mut stream,
                        MsgKind::Error,
                        frame.request_id,
                        msg.as_bytes(),
                    ),
                },
                Err(e) => write_frame(
                    &mut stream,
                    MsgKind::Error,
                    frame.request_id,
                    e.to_string().as_bytes(),
                ),
            },
            MsgKind::Probe => write_frame(
                &mut stream,
                MsgKind::ProbeAck,
                frame.request_id,
                &shard.probe_ack().encode(),
            ),
            MsgKind::Hang => {
                hang.store(true, Ordering::Relaxed);
                write_frame(&mut stream, MsgKind::Ack, frame.request_id, &[])
            }
            MsgKind::Shutdown => {
                let _ = write_frame(&mut stream, MsgKind::Ack, frame.request_id, &[]);
                stop.store(true, Ordering::Relaxed);
                return;
            }
            // A server never receives reply-side kinds; treat as protocol
            // garbage and drop the connection.
            MsgKind::Reply | MsgKind::ProbeAck | MsgKind::Ack | MsgKind::Error => return,
        };
        if verbose {
            eprintln!(
                "node {}: served {:?} id={}",
                shard.node(),
                frame.kind,
                frame.request_id
            );
        }
        if outcome.is_err() {
            return;
        }
    }
}

/// A wire cluster living in this process: one [`NodeServer`] thread per
/// node, plus the matching clients. Used by tests and `shard_bench
/// --wire`; the multi-process variant (`examples/wire_cluster.rs`)
/// spawns the same servers in child processes instead.
pub struct LocalWireCluster {
    servers: Vec<NodeServer>,
    clients: Vec<Arc<TcpNodeClient>>,
}

impl LocalWireCluster {
    /// The per-node clients (for hang/shutdown controls and counters).
    pub fn clients(&self) -> &[Arc<TcpNodeClient>] {
        &self.clients
    }

    /// The per-node servers.
    pub fn servers(&self) -> &[NodeServer] {
        &self.servers
    }

    /// The endpoints to attach via
    /// [`DistributedRbc::with_endpoints`].
    pub fn endpoints(&self) -> Vec<Arc<dyn super::endpoint::NodeEndpoint>> {
        self.clients
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn super::endpoint::NodeEndpoint>)
            .collect()
    }

    /// Arms node `node` to hang mid-frame on its next message.
    pub fn hang_node(&self, node: usize) {
        self.servers[node].arm_hang();
    }

    /// Actual bytes that crossed all sockets so far (headers included).
    pub fn wire_bytes(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.counters().total_bytes())
            .sum()
    }

    /// Stops every server thread.
    pub fn shutdown(mut self) {
        for server in &mut self.servers {
            server.stop();
        }
    }
}

/// Spawns one wire node per cluster node of `index`, in this process,
/// each serving the index's own shard for that node (so a wired index
/// holds each shard once) and bound to `127.0.0.1:0`, probes them all,
/// and returns the cluster handle. Attach with:
///
/// ```ignore
/// let cluster = spawn_local_cluster(&index, NetConfig::default(), false)?;
/// let wired = index.with_endpoints(cluster.endpoints());
/// ```
///
/// # Errors
/// Any socket error while binding, or a probe failure.
pub fn spawn_local_cluster<D, M>(
    index: &DistributedRbc<D, M>,
    net: NetConfig,
    verbose: bool,
) -> io::Result<LocalWireCluster>
where
    D: Dataset<Item = [f32]>,
    M: Metric<[f32]> + Clone + Send + Sync + 'static,
{
    let nodes = index.cluster().nodes;
    let mut servers = Vec::with_capacity(nodes);
    let mut clients = Vec::with_capacity(nodes);
    for (node, shard) in index.shards().iter().enumerate() {
        let server = NodeServer::spawn(Arc::clone(shard), verbose)?;
        let client = Arc::new(TcpNodeClient::new(node, server.addr(), net));
        client
            .probe()
            .map_err(|e| io::Error::other(format!("probe of node {node} failed: {e}")))?;
        servers.push(server);
        clients.push(client);
    }
    Ok(LocalWireCluster { servers, clients })
}
