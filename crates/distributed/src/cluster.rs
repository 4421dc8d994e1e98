//! The cluster model: node count and communication cost accounting.
//!
//! The paper defers "I/O and communication costs" of a distributed RBC to
//! future work; this module makes them explicit. No bytes actually cross a
//! network — queries are executed against in-memory shards — but every
//! message that *would* be sent is recorded with a simple
//! latency-plus-bandwidth cost model so experiments can compare protocols.

use serde::{Deserialize, Serialize};

/// Static description of the simulated cluster.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes holding database shards.
    pub nodes: usize,
    /// One-way message latency in microseconds (per message).
    pub latency_us: f64,
    /// Link bandwidth in megabytes per second (per message payload).
    pub bandwidth_mb_per_s: f64,
    /// Bytes per point coordinate on the wire (f32 = 4).
    pub bytes_per_coord: usize,
    /// Fixed per-message header bytes.
    pub header_bytes: usize,
}

impl Default for ClusterConfig {
    /// An 8-node commodity cluster with 10 GbE-class links.
    fn default() -> Self {
        Self {
            nodes: 8,
            latency_us: 20.0,
            bandwidth_mb_per_s: 1_000.0,
            bytes_per_coord: 4,
            header_bytes: 64,
        }
    }
}

impl ClusterConfig {
    /// A cluster with a specific node count and the default link model.
    pub fn with_nodes(nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        Self {
            nodes,
            ..Self::default()
        }
    }

    /// Checks the cluster model for degenerate values.
    ///
    /// A zero node count leaves no shard to route to, and a zero (or
    /// non-finite, or negative) bandwidth / negative latency would turn
    /// every modeled message time into nonsense. Callers that accept
    /// configurations from the outside ([`DistributedRbc::from_exact`])
    /// reject them instead of computing garbage — the same pattern as
    /// `BfConfig::validate` in `rbc-bruteforce`.
    ///
    /// [`DistributedRbc::from_exact`]: crate::DistributedRbc::from_exact
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("ClusterConfig::nodes must be at least 1 (got 0)".into());
        }
        if !self.bandwidth_mb_per_s.is_finite() || self.bandwidth_mb_per_s <= 0.0 {
            return Err(format!(
                "ClusterConfig::bandwidth_mb_per_s must be a positive finite number (got {})",
                self.bandwidth_mb_per_s
            ));
        }
        if !self.latency_us.is_finite() || self.latency_us < 0.0 {
            return Err(format!(
                "ClusterConfig::latency_us must be a non-negative finite number (got {})",
                self.latency_us
            ));
        }
        if self.bytes_per_coord == 0 {
            return Err("ClusterConfig::bytes_per_coord must be at least 1 (got 0)".into());
        }
        Ok(())
    }

    /// Bytes on the wire for one query vector of the given dimensionality.
    pub fn query_message_bytes(&self, dim: usize) -> u64 {
        self.batch_query_message_bytes(dim, 1)
    }

    /// Bytes on the wire for a reply carrying `k` neighbor records
    /// (index + distance per record).
    pub fn reply_message_bytes(&self, k: usize) -> u64 {
        self.batch_reply_message_bytes(k, 1)
    }

    /// Bytes on the wire for one message carrying `queries` query vectors
    /// of the given dimensionality — the per-batch fan-out payload: one
    /// header, many queries.
    pub fn batch_query_message_bytes(&self, dim: usize, queries: usize) -> u64 {
        (self.header_bytes + queries * dim * self.bytes_per_coord) as u64
    }

    /// Bytes on the wire for one reply carrying a `k`-record result set
    /// (index + distance per record) for each of `queries` queries.
    pub fn batch_reply_message_bytes(&self, k: usize, queries: usize) -> u64 {
        (self.header_bytes + queries * k * (8 + 8)) as u64
    }

    /// Modeled time to deliver one message of the given size.
    pub fn message_time_us(&self, bytes: u64) -> f64 {
        self.latency_us + bytes as f64 / (self.bandwidth_mb_per_s * 1e6) * 1e6
    }
}

/// Accumulated communication performed by one query or a batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CommCost {
    /// Messages sent from the coordinator to workers.
    pub messages_out: u64,
    /// Messages returned by workers.
    pub messages_in: u64,
    /// Total bytes sent to workers.
    pub bytes_out: u64,
    /// Total bytes returned by workers.
    pub bytes_in: u64,
    /// Modeled wall-clock spent in communication, assuming the coordinator
    /// fans messages out in parallel and waits for the slowest reply
    /// (i.e. one round trip of the largest message pair per round).
    pub modeled_time_us: f64,
}

impl CommCost {
    /// Records one fan-out round: the same query sent to `targets` nodes,
    /// each answering with a `k`-record reply.
    pub fn fan_out_round(config: &ClusterConfig, targets: usize, dim: usize, k: usize) -> Self {
        if targets == 0 {
            return Self::default();
        }
        let out_bytes = config.query_message_bytes(dim);
        let in_bytes = config.reply_message_bytes(k);
        Self {
            messages_out: targets as u64,
            messages_in: targets as u64,
            bytes_out: out_bytes * targets as u64,
            bytes_in: in_bytes * targets as u64,
            // Parallel fan-out: one round trip, not `targets` of them.
            modeled_time_us: config.message_time_us(out_bytes) + config.message_time_us(in_bytes),
        }
    }

    /// Records one *batched* fan-out round: node `nd` receives a single
    /// message carrying `queries_per_node[nd]` query payloads (skipped
    /// entirely when that count is zero) and answers with a single reply
    /// carrying one `k`-record result set per delivered query.
    ///
    /// This is the accounting shape of the routed batch protocol (called
    /// once per fan-out round): one query payload per *node* per round
    /// instead of one message per
    /// `(query, node)` pair, so the per-message header is amortised over
    /// the whole micro-batch and total bytes grow sublinearly in batch
    /// size. Modeled time is one parallel round trip — the coordinator
    /// fans all messages out at once and waits for the slowest request and
    /// the slowest reply.
    pub fn batched_round(
        config: &ClusterConfig,
        queries_per_node: &[usize],
        dim: usize,
        k: usize,
    ) -> Self {
        let mut cost = Self::default();
        let mut slowest_out = 0.0f64;
        let mut slowest_in = 0.0f64;
        for &queries in queries_per_node {
            if queries == 0 {
                continue;
            }
            let out_bytes = config.batch_query_message_bytes(dim, queries);
            let in_bytes = config.batch_reply_message_bytes(k, queries);
            cost.messages_out += 1;
            cost.messages_in += 1;
            cost.bytes_out += out_bytes;
            cost.bytes_in += in_bytes;
            slowest_out = slowest_out.max(config.message_time_us(out_bytes));
            slowest_in = slowest_in.max(config.message_time_us(in_bytes));
        }
        cost.modeled_time_us = slowest_out + slowest_in;
        cost
    }

    /// Records the one-time cost of **shipping the shards** at placement
    /// time: node `nd` receives one message carrying its
    /// `points_per_node[nd]` stored points (replica copies included) of
    /// the given dimensionality; empty nodes receive nothing and there are
    /// no replies. Modeled time is one parallel fan-out — the coordinator
    /// ships all shards at once and waits for the largest transfer.
    ///
    /// This is how replicated storage enters the communication ledger:
    /// replication never adds per-query messages (each group is still
    /// routed to exactly one replica), but every extra copy is paid for
    /// up front, here.
    pub fn placement_round(config: &ClusterConfig, points_per_node: &[usize], dim: usize) -> Self {
        let mut cost = Self::default();
        let mut slowest = 0.0f64;
        for &points in points_per_node {
            if points == 0 {
                continue;
            }
            let bytes = config.batch_query_message_bytes(dim, points);
            cost.messages_out += 1;
            cost.bytes_out += bytes;
            slowest = slowest.max(config.message_time_us(bytes));
        }
        cost.modeled_time_us = slowest;
        cost
    }

    /// Merges the cost of another query/round into this accumulator.
    pub fn merge(&mut self, other: &CommCost) {
        self.messages_out += other.messages_out;
        self.messages_in += other.messages_in;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.modeled_time_us += other.modeled_time_us;
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_out + self.bytes_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes_account_for_dimension_and_k() {
        let c = ClusterConfig::default();
        assert_eq!(c.query_message_bytes(10), 64 + 40);
        assert_eq!(c.reply_message_bytes(3), 64 + 48);
        assert!(c.query_message_bytes(100) > c.query_message_bytes(10));
    }

    #[test]
    fn message_time_includes_latency_and_bandwidth() {
        let c = ClusterConfig::default();
        let small = c.message_time_us(64);
        let large = c.message_time_us(1_000_000);
        assert!(small >= c.latency_us);
        assert!(large > small + 900.0); // 1 MB over 1 GB/s ≈ 1000 us
    }

    #[test]
    fn fan_out_round_counts_every_target_but_one_round_trip() {
        let c = ClusterConfig::default();
        let cost = CommCost::fan_out_round(&c, 5, 16, 1);
        assert_eq!(cost.messages_out, 5);
        assert_eq!(cost.messages_in, 5);
        assert_eq!(cost.bytes_out, 5 * c.query_message_bytes(16));
        // modeled time is a single round trip regardless of the fan-out
        let single = CommCost::fan_out_round(&c, 1, 16, 1);
        assert!((cost.modeled_time_us - single.modeled_time_us).abs() < 1e-9);
    }

    #[test]
    fn empty_fan_out_costs_nothing() {
        let c = ClusterConfig::default();
        assert_eq!(CommCost::fan_out_round(&c, 0, 16, 1), CommCost::default());
    }

    #[test]
    fn merge_accumulates() {
        let c = ClusterConfig::default();
        let mut total = CommCost::default();
        total.merge(&CommCost::fan_out_round(&c, 2, 8, 1));
        total.merge(&CommCost::fan_out_round(&c, 3, 8, 1));
        assert_eq!(total.messages_out, 5);
        assert_eq!(total.total_bytes(), total.bytes_out + total.bytes_in);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterConfig::with_nodes(0);
    }

    #[test]
    fn validate_accepts_the_default_and_rejects_degenerate_models() {
        assert!(ClusterConfig::default().validate().is_ok());
        let zero_nodes = ClusterConfig {
            nodes: 0,
            ..ClusterConfig::default()
        };
        assert!(zero_nodes.validate().unwrap_err().contains("nodes"));
        let zero_bandwidth = ClusterConfig {
            bandwidth_mb_per_s: 0.0,
            ..ClusterConfig::default()
        };
        assert!(zero_bandwidth.validate().unwrap_err().contains("bandwidth"));
        let nan_latency = ClusterConfig {
            latency_us: f64::NAN,
            ..ClusterConfig::default()
        };
        assert!(nan_latency.validate().unwrap_err().contains("latency_us"));
        let zero_coord = ClusterConfig {
            bytes_per_coord: 0,
            ..ClusterConfig::default()
        };
        assert!(zero_coord
            .validate()
            .unwrap_err()
            .contains("bytes_per_coord"));
    }

    #[test]
    fn batched_round_amortises_headers_over_the_batch() {
        let c = ClusterConfig::default();
        // 3 nodes contacted, carrying 4 + 1 + 3 queries; one idle node.
        let cost = CommCost::batched_round(&c, &[4, 1, 0, 3], 16, 2);
        assert_eq!(cost.messages_out, 3);
        assert_eq!(cost.messages_in, 3);
        assert_eq!(
            cost.bytes_out,
            c.batch_query_message_bytes(16, 4)
                + c.batch_query_message_bytes(16, 1)
                + c.batch_query_message_bytes(16, 3)
        );
        // The same routing as 8 per-query fan-outs pays 8 headers; the
        // batched round pays 3.
        let per_query_bytes = 8 * c.query_message_bytes(16);
        assert!(cost.bytes_out < per_query_bytes);
        // Modeled time is one round trip dominated by the largest pair.
        let largest = c.message_time_us(c.batch_query_message_bytes(16, 4))
            + c.message_time_us(c.batch_reply_message_bytes(2, 4));
        assert!((cost.modeled_time_us - largest).abs() < 1e-9);
    }

    #[test]
    fn batched_round_with_no_queries_costs_nothing() {
        let c = ClusterConfig::default();
        assert_eq!(
            CommCost::batched_round(&c, &[0, 0, 0], 16, 1),
            CommCost::default()
        );
    }

    #[test]
    fn placement_round_charges_every_stored_copy_once_up_front() {
        let c = ClusterConfig::default();
        let single = CommCost::placement_round(&c, &[600, 400, 0], 16);
        assert_eq!(single.messages_out, 2, "empty nodes receive no shard");
        assert_eq!(single.messages_in, 0, "shipping shards has no replies");
        assert_eq!(
            single.bytes_out,
            c.batch_query_message_bytes(16, 600) + c.batch_query_message_bytes(16, 400)
        );
        // Replication factor 2 doubles the stored points and (nearly)
        // doubles the build-time bytes — the storage ledger of redundancy.
        let replicated = CommCost::placement_round(&c, &[700, 700, 600], 16);
        assert!(replicated.bytes_out > 2 * single.bytes_out - 3 * 64 - 1);
        // Modeled time is the largest single transfer, not the sum.
        let largest = c.message_time_us(c.batch_query_message_bytes(16, 700));
        assert!((replicated.modeled_time_us - largest).abs() < 1e-9);
    }

    #[test]
    fn batch_message_bytes_reduce_to_the_single_query_case() {
        let c = ClusterConfig::default();
        assert_eq!(
            c.batch_query_message_bytes(10, 1),
            c.query_message_bytes(10)
        );
        assert_eq!(c.batch_reply_message_bytes(3, 1), c.reply_message_bytes(3));
    }
}
