//! Property-based tests for the wire protocol's frames and codecs.
//!
//! The contract under test: every message the routed-batch protocol
//! puts on the wire round-trips bit-identically through its codec and
//! through the frame layer, and **no** mangled input — truncated,
//! corrupted, or lying about its length — can panic a decoder or trick
//! it into an oversized allocation. Errors, never crashes: a hostile or
//! half-dead peer must not take the coordinator down with it.

use std::io::Cursor;

use proptest::prelude::*;
use rbc_distributed::net::{
    read_frame, write_frame, CodecError, FrameError, MsgKind, ProbeAck, QueryReply, QueryRequest,
    WireGroup, FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};

/// Tiny deterministic generator so the structured messages can be
/// derived from a handful of strategy-drawn scalars.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() % 2_000_000) as f64 / 1000.0 - 1000.0
    }
}

/// A well-formed routed sub-plan request: a query table of `n` entries
/// (coords + per-query γ_k) and groups whose members index into it.
fn make_request(n: usize, dim: usize, k: u16, seed: u64) -> QueryRequest {
    let mut rng = Lcg::new(seed);
    let gammas: Vec<f64> = (0..n).map(|_| rng.next_f64().abs()).collect();
    let coords: Vec<f32> = (0..n * dim).map(|_| rng.next_f64() as f32).collect();
    let n_groups = (rng.next_u64() % 6) as usize;
    let groups: Vec<WireGroup> = (0..n_groups)
        .map(|_| {
            // Members are a strictly-ascending set (the wire encodes a
            // bitmap over the query table).
            let members: std::collections::BTreeSet<u16> = (0..1 + rng.next_u64() % 4)
                .map(|_| (rng.next_u64() % n as u64) as u16)
                .collect();
            WireGroup {
                list_index: (rng.next_u64() % 50) as u32,
                members: members.into_iter().collect(),
            }
        })
        .collect();
    QueryRequest {
        k,
        shrink: 1.0 + (rng.next_u64() % 500) as f64 / 1000.0,
        dim: dim as u16,
        gammas,
        coords,
        groups,
    }
}

/// A partial top-k reply aligned with some query table.
fn make_reply(rows: usize, seed: u64) -> QueryReply {
    let mut rng = Lcg::new(seed);
    let evals = rng.next_u64();
    let results: Vec<Vec<(u64, f64)>> = (0..rows)
        .map(|_| {
            (0..rng.next_u64() % 7)
                .map(|_| (rng.next_u64(), rng.next_f64().abs()))
                .collect()
        })
        .collect();
    QueryReply { evals, results }
}

const ALL_KINDS: [MsgKind; 8] = [
    MsgKind::Query,
    MsgKind::Reply,
    MsgKind::Probe,
    MsgKind::ProbeAck,
    MsgKind::Hang,
    MsgKind::Shutdown,
    MsgKind::Ack,
    MsgKind::Error,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests round-trip bit-identically through encode/decode, their
    /// frame size is known from their counts alone, and every strict
    /// prefix of the encoding errors — never panics, never yields a
    /// message.
    #[test]
    fn request_round_trip_and_truncation(
        n in 1usize..12,
        dim in 1usize..6,
        k in 1u16..9,
        seed in any::<u64>(),
        cut_seed in any::<usize>(),
    ) {
        let request = make_request(n, dim, k, seed);
        let bytes = request.encode();
        prop_assert_eq!(
            QueryRequest::frame_bytes(n, dim, request.groups.len()),
            (FRAME_HEADER_BYTES + bytes.len()) as u64
        );
        let back = QueryRequest::decode(&bytes).expect("well-formed request must decode");
        prop_assert_eq!(back, request);
        let cut = cut_seed % bytes.len();
        prop_assert!(QueryRequest::decode(&bytes[..cut]).is_err());
    }

    /// Single-byte corruption anywhere in an encoded request either
    /// still decodes (the flip hit payload data) or errors cleanly —
    /// it never panics and never over-allocates.
    #[test]
    fn corrupted_request_never_panics(
        n in 1usize..12,
        dim in 1usize..6,
        seed in any::<u64>(),
        at_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = make_request(n, dim, 3, seed).encode();
        let at = at_seed % bytes.len();
        bytes[at] ^= flip;
        let _ = QueryRequest::decode(&bytes);
    }

    /// Replies round-trip bit-identically, their frame size is known from
    /// their counts alone, and strict prefixes error.
    #[test]
    fn reply_round_trip_and_truncation(
        rows in 0usize..10,
        seed in any::<u64>(),
        cut_seed in any::<usize>(),
    ) {
        let reply = make_reply(rows, seed);
        let bytes = reply.encode();
        let records = reply.results.iter().map(Vec::len).sum();
        prop_assert_eq!(
            QueryReply::frame_bytes(rows, records),
            (FRAME_HEADER_BYTES + bytes.len()) as u64
        );
        let back = QueryReply::decode(&bytes).expect("well-formed reply must decode");
        prop_assert_eq!(back, reply);
        let cut = cut_seed % bytes.len();
        prop_assert!(QueryReply::decode(&bytes[..cut]).is_err());
    }

    /// Corrupting a reply never panics the decoder.
    #[test]
    fn corrupted_reply_never_panics(
        rows in 0usize..10,
        seed in any::<u64>(),
        at_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = make_reply(rows, seed).encode();
        let at = at_seed % bytes.len();
        bytes[at] ^= flip;
        let _ = QueryReply::decode(&bytes);
    }

    /// Probe acks round-trip, and their strict prefixes error.
    #[test]
    fn probe_ack_round_trip_and_truncation(
        node in any::<u32>(),
        lists in any::<u32>(),
        points in any::<u64>(),
        cut_seed in any::<usize>(),
    ) {
        let ack = ProbeAck { node, lists, points };
        let bytes = ack.encode();
        prop_assert_eq!(ProbeAck::decode(&bytes).expect("must decode"), ack);
        let cut = cut_seed % bytes.len();
        prop_assert!(ProbeAck::decode(&bytes[..cut]).is_err());
    }

    /// Frames round-trip through write/read for every message kind with
    /// exact byte accounting, and every strict prefix of the wire bytes
    /// errors.
    #[test]
    fn frame_round_trip_and_truncation(
        request_id in any::<u64>(),
        payload in prop::collection::vec(0u8..=255, 0..200),
        kind_pick in 0usize..8,
        cut_seed in any::<usize>(),
    ) {
        let kind = ALL_KINDS[kind_pick];
        let mut wire = Vec::new();
        let written =
            write_frame(&mut wire, kind, request_id, &payload).expect("vec write cannot fail");
        prop_assert_eq!(written as usize, wire.len());
        prop_assert_eq!(wire.len(), FRAME_HEADER_BYTES + payload.len());

        let (frame, read) = read_frame(&mut Cursor::new(&wire)).expect("must read back");
        prop_assert_eq!(read as usize, wire.len());
        prop_assert_eq!(frame.kind, kind);
        prop_assert_eq!(frame.request_id, request_id);
        prop_assert_eq!(frame.payload, payload);

        let cut = cut_seed % wire.len();
        prop_assert!(read_frame(&mut Cursor::new(&wire[..cut])).is_err());
    }

    /// A length prefix claiming more elements than the buffer could
    /// possibly hold is rejected *before* any allocation of that size.
    #[test]
    fn length_prefix_cannot_force_oversized_allocation(claimed in 1u16..=u16::MAX) {
        // A minimal "reply" whose result-row count lies: claims rows
        // with zero bytes of row data behind the count.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0u64.to_le_bytes()); // evals
        bytes.extend_from_slice(&claimed.to_le_bytes()); // n_results (lie)
        match QueryReply::decode(&bytes) {
            Err(CodecError::LengthOverrun { claimed: c, .. }) => {
                prop_assert_eq!(c, claimed as usize)
            }
            other => prop_assert!(false, "lying length must error, got {:?}", other),
        }
    }
}

/// A frame header advertising a payload beyond `MAX_FRAME_PAYLOAD` is
/// refused from the header alone — the reader must not try to allocate
/// or consume the claimed bytes.
#[test]
fn oversized_frame_is_refused_from_the_header() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&FRAME_MAGIC);
    wire.push(PROTOCOL_VERSION);
    wire.push(MsgKind::Query as u8);
    wire.extend_from_slice(&0u16.to_le_bytes());
    wire.extend_from_slice(&7u64.to_le_bytes());
    wire.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    match read_frame(&mut Cursor::new(&wire)) {
        Err(FrameError::Oversized(len)) => assert_eq!(len, MAX_FRAME_PAYLOAD + 1),
        other => panic!("oversized frame must be refused, got {other:?}"),
    }
}

/// Decoders enforce the cross-field invariants, not just framing: a
/// group bitmap bit pointing past the query table is rejected.
#[test]
fn dangling_group_member_is_rejected() {
    // Start from a well-formed one-group request over a 2-query table
    // and set the group bitmap's bit 2 — a member the encoder itself
    // can never produce. The bitmap is the last byte of the encoding.
    let request = QueryRequest {
        k: 2,
        shrink: 1.0,
        dim: 2,
        gammas: vec![1.0, 2.0],
        coords: vec![0.0; 4],
        groups: vec![WireGroup {
            list_index: 0,
            members: vec![0],
        }],
    };
    let mut bytes = request.encode();
    *bytes.last_mut().unwrap() |= 0b0000_0100;
    assert!(QueryRequest::decode(&bytes).is_err());
}
