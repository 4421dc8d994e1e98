//! Length-prefixed, versioned binary frames — the unit of exchange on
//! the cluster's wire.
//!
//! Every message between the coordinator and a node is one frame:
//!
//! | offset | size | field        | notes                                   |
//! |--------|------|--------------|-----------------------------------------|
//! | 0      | 4    | magic        | `b"RBCW"`                               |
//! | 4      | 1    | version      | [`PROTOCOL_VERSION`]                    |
//! | 5      | 1    | kind         | [`MsgKind`] discriminant                |
//! | 6      | 2    | reserved     | zero; room for flags in later versions  |
//! | 8      | 8    | request id   | little-endian `u64`, echoed in replies  |
//! | 16     | 4    | payload len  | little-endian `u32`, bytes that follow  |
//! | 20     | len  | payload      | message-specific binary body ([`crate::net::codec`]) |
//!
//! Reads are defensive: truncation, a bad magic/version/kind, and a
//! length prefix beyond [`MAX_FRAME_PAYLOAD`] all surface as
//! [`FrameError`]s — never a panic, and never an allocation sized by an
//! unvalidated length field.

use std::fmt;
use std::io::{self, Read, Write};

/// Marks the start of every frame on the wire.
pub const FRAME_MAGIC: [u8; 4] = *b"RBCW";

/// Version byte carried by every frame; receivers reject anything else.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed size of the frame header that precedes every payload.
pub const FRAME_HEADER_BYTES: usize = 20;

/// Upper bound on a frame's payload length. A length prefix beyond this
/// is rejected *before* any buffer is allocated, so a corrupted or
/// hostile peer cannot trigger an oversized allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

/// What a frame carries — the protocol's message vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Coordinator → node: a routed sub-plan to execute
    /// ([`crate::net::codec::QueryRequest`]).
    Query = 1,
    /// Node → coordinator: partial top-k results
    /// ([`crate::net::codec::QueryReply`]).
    Reply = 2,
    /// Coordinator → node: health probe, empty payload.
    Probe = 3,
    /// Node → coordinator: probe answer
    /// ([`crate::net::codec::ProbeAck`]).
    ProbeAck = 4,
    /// Test control: arm the node to hang mid-frame on every subsequent
    /// message (acknowledged with [`MsgKind::Ack`] before it takes
    /// effect).
    Hang = 5,
    /// Control: stop serving and exit; acknowledged first.
    Shutdown = 6,
    /// Generic acknowledgement, empty payload.
    Ack = 7,
    /// Node → coordinator: the request could not be served; the payload
    /// is a UTF-8 error message.
    Error = 8,
}

impl MsgKind {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Self::Query,
            2 => Self::Reply,
            3 => Self::Probe,
            4 => Self::ProbeAck,
            5 => Self::Hang,
            6 => Self::Shutdown,
            7 => Self::Ack,
            8 => Self::Error,
            _ => return None,
        })
    }
}

/// One decoded frame: kind, correlation id, and raw payload bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Message kind from the header.
    pub kind: MsgKind,
    /// Correlation id: replies echo the request's id.
    pub request_id: u64,
    /// Message-specific body, decoded by [`crate::net::codec`].
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (including truncation:
    /// [`io::ErrorKind::UnexpectedEof`], and deadline misses:
    /// [`io::ErrorKind::WouldBlock`] / [`io::ErrorKind::TimedOut`]).
    Io(io::Error),
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte did not match [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The kind byte named no known [`MsgKind`].
    BadKind(u8),
    /// The length prefix exceeded [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame i/o: {e}"),
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            Self::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (want {PROTOCOL_VERSION})"
                )
            }
            Self::BadKind(k) => write!(f, "unknown message kind {k}"),
            Self::Oversized(len) => {
                write!(f, "payload length {len} exceeds cap {MAX_FRAME_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes one frame; returns the total bytes put on the wire (header +
/// payload), so callers can meter actual traffic.
///
/// Header and payload go out in one `write_all`: on a `TCP_NODELAY`
/// socket two writes would be two segments.
///
/// # Errors
/// Propagates any error from the underlying writer.
pub fn write_frame(
    w: &mut impl Write,
    kind: MsgKind,
    request_id: u64,
    payload: &[u8],
) -> io::Result<u64> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD as usize);
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(PROTOCOL_VERSION);
    frame.push(kind as u8);
    frame.extend_from_slice(&[0, 0]); // reserved
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len() as u64)
}

/// Reads one frame; returns it with the total bytes consumed.
///
/// # Errors
/// Returns a [`FrameError`] on transport failure, truncation, a
/// malformed header, or a length prefix beyond [`MAX_FRAME_PAYLOAD`]
/// (checked before the payload buffer is allocated).
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64), FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    if header[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let kind = MsgKind::from_u8(header[5]).ok_or(FrameError::BadKind(header[5]))?;
    let request_id = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((
        Frame {
            kind,
            request_id,
            payload,
        },
        (FRAME_HEADER_BYTES + len as usize) as u64,
    ))
}

/// A [`Read`] adapter that counts consumed bytes — servers use it to
/// tell an idle poll timeout (zero bytes consumed) from a mid-frame
/// stall or truncation (some bytes consumed), and clients use it to
/// meter inbound traffic.
pub struct CountingReader<R> {
    inner: R,
    /// Bytes successfully read so far.
    pub count: u64,
}

impl<R: Read> CountingReader<R> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: R) -> Self {
        Self { inner, count: 0 }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_with_byte_counts() {
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, MsgKind::Query, 42, b"hello").unwrap();
        assert_eq!(wrote as usize, buf.len());
        let (frame, read) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(read, wrote);
        assert_eq!(frame.kind, MsgKind::Query);
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.payload, b"hello");
    }

    /// Counts the writes a frame takes.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_with_the_documented_layout() {
        let mut writes = Writes::default();
        let wrote = write_frame(&mut writes, MsgKind::Reply, 0x0102, b"abc").unwrap();
        assert_eq!(writes.0.len(), 1, "header and payload in one write");
        let frame = &writes.0[0];
        assert_eq!(wrote as usize, frame.len());
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + 3);
        assert_eq!(&frame[..4], b"RBCW");
        assert_eq!(frame[4], PROTOCOL_VERSION);
        assert_eq!(frame[5], MsgKind::Reply as u8);
        assert_eq!(&frame[6..8], &[0, 0]);
        assert_eq!(&frame[8..16], &0x0102u64.to_le_bytes());
        assert_eq!(&frame[16..20], &3u32.to_le_bytes());
        assert_eq!(&frame[20..], b"abc");
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgKind::Reply, 7, &[1, 2, 3, 4]).unwrap();
        for cut in 0..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Io(ref e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_kind_are_rejected() {
        let mut good = Vec::new();
        write_frame(&mut good, MsgKind::Probe, 1, &[]).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadVersion(99))
        ));

        let mut bad = good.clone();
        bad[5] = 0;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadKind(0))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgKind::Query, 9, &[]).unwrap();
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        // The header alone is present; the claimed 4 GiB body is not. The
        // length check must fire on the prefix, not on a failed 4 GiB read.
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}
