//! The cluster's size and the communication a batch performs.
//!
//! The paper defers "I/O and communication costs" of a distributed RBC to
//! future work; this module makes them explicit. A [`CommCost`] counts the
//! frames a batch exchanged with its nodes, each at its exact encoded size
//! ([`QueryRequest::frame_bytes`], [`QueryReply::frame_bytes`]), whatever
//! the endpoint: over framed TCP the count equals the bytes the sockets
//! carried, and a node in the coordinator's process counts the frames
//! the same request and reply would have made.
//!
//! [`QueryRequest::frame_bytes`]: crate::net::QueryRequest::frame_bytes
//! [`QueryReply::frame_bytes`]: crate::net::QueryReply::frame_bytes

use serde::{Deserialize, Serialize};

/// The cluster: how many worker nodes hold database shards.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of worker nodes holding database shards.
    pub nodes: usize,
}

impl ClusterConfig {
    /// A cluster of `nodes` worker nodes.
    pub fn with_nodes(nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        Self { nodes }
    }
}

/// The query and reply frames one query or a batch exchanged with the
/// nodes, counted at their encoded size (frame header included).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommCost {
    /// Request frames sent from the coordinator to workers, one per node
    /// contact.
    pub messages_out: u64,
    /// Reply frames returned by workers. A contact that failed has none.
    pub messages_in: u64,
    /// Total bytes of the request frames.
    pub bytes_out: u64,
    /// Total bytes of the reply frames.
    pub bytes_in: u64,
}

impl CommCost {
    /// Merges the cost of another query/round into this accumulator.
    pub fn merge(&mut self, other: &CommCost) {
        self.messages_out += other.messages_out;
        self.messages_in += other.messages_in;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
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
    fn merge_accumulates() {
        let mut total = CommCost::default();
        total.merge(&CommCost {
            messages_out: 2,
            messages_in: 2,
            bytes_out: 120,
            bytes_in: 80,
        });
        total.merge(&CommCost {
            messages_out: 3,
            messages_in: 2,
            bytes_out: 150,
            bytes_in: 60,
        });
        assert_eq!(total.messages_out, 5);
        assert_eq!(total.messages_in, 4);
        assert_eq!(total.total_bytes(), 270 + 140);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterConfig::with_nodes(0);
    }
}
