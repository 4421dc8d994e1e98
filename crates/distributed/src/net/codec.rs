//! Binary codecs for the routed-batch protocol's message bodies.
//!
//! Everything is hand-rolled little-endian — the wire format is part of
//! the protocol version ([`super::frame::PROTOCOL_VERSION`]), not an
//! artifact of a serialization library. Decoders are total: truncated,
//! trailing, or inconsistent bytes produce a [`CodecError`], never a
//! panic, and every length field is validated against the bytes actually
//! present before any allocation is sized by it.
//!
//! The query payload is deliberately tight: a request ships each distinct
//! query once (its `dim × f32` coordinates plus its `f64` cap, `γ_k` or
//! `τ_q`), and each routed group as a list id plus a bitmap over that
//! query table. Nodes recompute `ρ(q, rep_ℓ)` from their stored
//! representative coordinates instead of having one `f64` per
//! (query, list) pair shipped to them — bit-identical by the SIMD kernel
//! invariant, and cheaper than the wire. Replies carry one
//! `(u64 index, f64 distance)` record per neighbor.
//!
//! This module is the only one that knows how large a frame is:
//! [`QueryRequest::frame_bytes`] and [`QueryReply::frame_bytes`] give a
//! frame's size from its counts, and the coordinator's
//! [`crate::cluster::CommCost`] counts every exchange with them, so over
//! the wire it equals the bytes the sockets carried.

use std::fmt;

use super::frame::FRAME_HEADER_BYTES;

/// Why a message body could not be decoded.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a fixed-size field or a counted sequence.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// The buffer held bytes beyond the end of the message.
    TrailingBytes(usize),
    /// A count field claimed more elements than the remaining bytes
    /// could possibly hold — rejected before allocating.
    LengthOverrun {
        /// Elements the count field claimed.
        claimed: usize,
        /// Minimum bytes each element occupies.
        elem_bytes: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A field held a value the protocol forbids.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, remaining } => {
                write!(f, "truncated message: needed {needed} bytes, {remaining} left")
            }
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after message end"),
            Self::LengthOverrun {
                claimed,
                elem_bytes,
                remaining,
            } => write!(
                f,
                "count field claims {claimed} elements of >= {elem_bytes} bytes with only {remaining} bytes left"
            ),
            Self::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian byte-buffer writer for message bodies.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Cursor over a message body; every read is bounds-checked.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! reader_num {
    ($name:ident, $ty:ty, $bytes:expr) => {
        /// Reads a little-endian value, erroring on truncation.
        pub fn $name(&mut self) -> Result<$ty, CodecError> {
            let bytes = self.take($bytes)?;
            Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized take")))
        }
    };
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    reader_num!(u16, u16, 2);
    reader_num!(u32, u32, 4);
    reader_num!(u64, u64, 8);
    reader_num!(f32, f32, 4);
    reader_num!(f64, f64, 8);

    /// Reads a `u8`, erroring on truncation.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Validates that a count field of `claimed` elements, each at least
    /// `elem_bytes` bytes, can still fit in the remaining buffer —
    /// **before** any `Vec::with_capacity(claimed)` is sized by it.
    pub fn claim(&self, claimed: usize, elem_bytes: usize) -> Result<(), CodecError> {
        if claimed
            .checked_mul(elem_bytes)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(CodecError::LengthOverrun {
                claimed,
                elem_bytes,
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    /// Asserts the whole buffer was consumed — messages never carry
    /// unread trailing bytes.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// One routed (list, queries) group on the wire: the list to scan and
/// the member queries as indices into the request's query table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireGroup {
    /// Global ownership-list index.
    pub list_index: u32,
    /// Indices into [`QueryRequest::gammas`] / the coordinate table —
    /// **not** batch positions; the coordinator keeps that mapping.
    ///
    /// A member *set*, **strictly ascending**: on the wire each group
    /// is a bitmap over the query table (⌈queries / 8⌉ bytes), which
    /// both enforces the set property and keeps the routing metadata
    /// cheap. Member order cannot affect results: each member's scan
    /// feeds only that query's own accumulator, and the per-query
    /// top-k is totally ordered by `(distance, index)`.
    pub members: Vec<u16>,
}

/// Coordinator → node: the routed sub-plan of one batch round.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// Neighbors requested per query.
    pub k: u16,
    /// The `(1 + ε)` threshold shrink factor: finite and at least 1.
    pub shrink: f64,
    /// Coordinate dimension of every shipped query.
    pub dim: u16,
    /// Per distinct query: the pruning cap of this fan-out round — `γ_k`
    /// from the coordinator's stage-1 plan in round one, the threshold
    /// `τ_q ≤ γ_k` round one returned in round two. Length is the number
    /// of shipped queries.
    pub gammas: Vec<f64>,
    /// Flat `f32` coordinates, `gammas.len() * dim` values in query
    /// order.
    pub coords: Vec<f32>,
    /// The routed groups this node must execute.
    pub groups: Vec<WireGroup>,
}

impl QueryRequest {
    /// Number of distinct queries shipped.
    pub fn queries(&self) -> usize {
        self.gammas.len()
    }

    /// Bytes of the frame carrying a request that ships `queries`
    /// queries of dimension `dim` and `groups` routed groups, header
    /// included: `FRAME_HEADER_BYTES + encode().len()`, without encoding.
    pub fn frame_bytes(queries: usize, dim: usize, groups: usize) -> u64 {
        // k, shrink, dim, query count, group count.
        let head = 2 + 8 + 2 + 2 + 4;
        let body = head + queries * (8 + 4 * dim) + groups * (4 + queries.div_ceil(8));
        (FRAME_HEADER_BYTES + body) as u64
    }

    /// Encodes the message body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u16(self.k);
        w.f64(self.shrink);
        w.u16(self.dim);
        w.u16(self.gammas.len() as u16);
        w.u32(self.groups.len() as u32);
        for &g in &self.gammas {
            w.f64(g);
        }
        for &c in &self.coords {
            w.f32(c);
        }
        let bitmap_bytes = self.gammas.len().div_ceil(8);
        for group in &self.groups {
            w.u32(group.list_index);
            let mut bitmap = vec![0u8; bitmap_bytes];
            for &m in &group.members {
                assert!(
                    (m as usize) < self.gammas.len(),
                    "group member beyond the query table"
                );
                bitmap[m as usize / 8] |= 1 << (m % 8);
            }
            for byte in bitmap {
                w.u8(byte);
            }
        }
        w.into_bytes()
    }

    /// Decodes a message body, validating internal consistency: the
    /// coordinate table must match `queries × dim`, and every group
    /// member must reference a shipped query.
    ///
    /// # Errors
    /// Any truncation, length overrun, dangling member reference, or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(bytes);
        let k = r.u16()?;
        let shrink = r.f64()?;
        let dim = r.u16()?;
        let n_queries = r.u16()? as usize;
        let n_groups = r.u32()? as usize;
        if k == 0 {
            return Err(CodecError::Invalid("k must be at least 1"));
        }
        check_shrink(shrink).map_err(CodecError::Invalid)?;
        r.claim(n_queries, 8 + 4 * dim as usize)?;
        let mut gammas = Vec::with_capacity(n_queries);
        for _ in 0..n_queries {
            gammas.push(r.f64()?);
        }
        let n_coords = n_queries * dim as usize;
        r.claim(n_coords, 4)?;
        let mut coords = Vec::with_capacity(n_coords);
        for _ in 0..n_coords {
            coords.push(r.f32()?);
        }
        let bitmap_bytes = n_queries.div_ceil(8);
        r.claim(n_groups, 4 + bitmap_bytes)?;
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let list_index = r.u32()?;
            let mut members = Vec::new();
            for byte_index in 0..bitmap_bytes {
                let byte = r.u8()?;
                for bit in 0..8 {
                    if byte & (1 << bit) != 0 {
                        let m = byte_index * 8 + bit;
                        if m >= n_queries {
                            return Err(CodecError::Invalid("group member beyond query table"));
                        }
                        members.push(m as u16);
                    }
                }
            }
            groups.push(WireGroup {
                list_index,
                members,
            });
        }
        r.finish()?;
        Ok(Self {
            k,
            shrink,
            dim,
            gammas,
            coords,
            groups,
        })
    }
}

/// Checks that `shrink` is a `(1 + ε)` factor with a finite `ε ≥ 0` — the
/// rule `RbcConfig::with_epsilon` enforces on the coordinator. A smaller
/// factor clips every run empty and a non-finite one cuts away true
/// neighbours, so a node refuses both instead of answering wrongly.
pub(crate) fn check_shrink(shrink: f64) -> Result<(), &'static str> {
    if shrink.is_finite() && shrink >= 1.0 {
        Ok(())
    } else {
        Err("shrink must be finite and at least 1")
    }
}

/// Node → coordinator: partial top-k results for one executed sub-plan.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// Distance evaluations the node's list scans performed (reported
    /// per node in `DistributedQueryStats::per_node`).
    pub evals: u64,
    /// One result set per shipped query, aligned with the request's
    /// query table: `(global database index, distance)` pairs in
    /// ascending `(distance, index)` order.
    pub results: Vec<Vec<(u64, f64)>>,
}

impl QueryReply {
    /// Bytes of the frame carrying a reply with `queries` result sets
    /// holding `records` neighbors in all, header included:
    /// `FRAME_HEADER_BYTES + encode().len()`, without encoding.
    pub fn frame_bytes(queries: usize, records: usize) -> u64 {
        // evals, result-set count; then a length per set, 16 B per record.
        let body = 8 + 2 + 2 * queries + 16 * records;
        (FRAME_HEADER_BYTES + body) as u64
    }

    /// Encodes the message body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(self.evals);
        w.u16(self.results.len() as u16);
        for result in &self.results {
            w.u16(result.len() as u16);
            for &(index, dist) in result {
                w.u64(index);
                w.f64(dist);
            }
        }
        w.into_bytes()
    }

    /// Decodes a message body.
    ///
    /// # Errors
    /// Any truncation, length overrun, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(bytes);
        let evals = r.u64()?;
        let n_queries = r.u16()? as usize;
        r.claim(n_queries, 2)?;
        let mut results = Vec::with_capacity(n_queries);
        for _ in 0..n_queries {
            let n = r.u16()? as usize;
            r.claim(n, 16)?;
            let mut result = Vec::with_capacity(n);
            for _ in 0..n {
                let index = r.u64()?;
                let dist = r.f64()?;
                result.push((index, dist));
            }
            results.push(result);
        }
        r.finish()?;
        Ok(Self { evals, results })
    }
}

/// Node → coordinator: answer to a health probe, describing the shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeAck {
    /// The node's id in the cluster.
    pub node: u32,
    /// Ownership lists placed on this node.
    pub lists: u32,
    /// Database points stored on this node.
    pub points: u64,
}

impl ProbeAck {
    /// Encodes the message body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(self.node);
        w.u32(self.lists);
        w.u64(self.points);
        w.into_bytes()
    }

    /// Decodes a message body.
    ///
    /// # Errors
    /// Any truncation or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(bytes);
        let node = r.u32()?;
        let lists = r.u32()?;
        let points = r.u64()?;
        r.finish()?;
        Ok(Self {
            node,
            lists,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> QueryRequest {
        QueryRequest {
            k: 3,
            shrink: 1.0,
            dim: 2,
            gammas: vec![0.5, f64::INFINITY],
            coords: vec![1.0, 2.0, 3.0, 4.0],
            groups: vec![
                WireGroup {
                    list_index: 7,
                    members: vec![0, 1],
                },
                WireGroup {
                    list_index: 2,
                    members: vec![1],
                },
            ],
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        assert_eq!(QueryRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn reply_round_trips() {
        let reply = QueryReply {
            evals: 123,
            results: vec![vec![(5, 0.25), (9, 1.5)], vec![]],
        };
        assert_eq!(QueryReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn probe_ack_round_trips() {
        let ack = ProbeAck {
            node: 3,
            lists: 17,
            points: 4096,
        };
        assert_eq!(ProbeAck::decode(&ack.encode()).unwrap(), ack);
    }

    #[test]
    fn every_strict_prefix_of_a_request_errors() {
        let bytes = sample_request().encode();
        for cut in 0..bytes.len() {
            assert!(QueryRequest::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn dangling_group_member_is_rejected() {
        // Hand-built wire bytes: a 2-query table whose single group's
        // bitmap sets bit 2 — a member beyond the table, which
        // `WireGroup::encode` itself can never produce.
        let mut w = WireWriter::new();
        w.u16(3); // k
        w.f64(1.0); // shrink
        w.u16(2); // dim
        w.u16(2); // n_queries
        w.u32(1); // n_groups
        for g in [0.5, 1.5] {
            w.f64(g);
        }
        for c in [1.0f32, 2.0, 3.0, 4.0] {
            w.f32(c);
        }
        w.u32(7); // list_index
        w.u8(0b0000_0100); // bitmap: member 2 of a 2-entry table
        let err = QueryRequest::decode(&w.into_bytes()).unwrap_err();
        assert_eq!(err, CodecError::Invalid("group member beyond query table"));
    }

    #[test]
    fn length_overrun_is_rejected_before_allocation() {
        // A reply header claiming 65535 result sets with an empty tail.
        let mut w = WireWriter::new();
        w.u64(0);
        w.u16(u16::MAX);
        let err = QueryReply::decode(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::LengthOverrun { .. }), "{err}");
    }
}
