//! The framed wire protocol between `oracle-client` and `oracled`.
//!
//! The envelope — length prefix, per-direction sequence number, tag
//! byte, body — is [`ppc_bits::framed`]'s, the same one the distributed
//! oracle's links speak; this module supplies the protocol on top of
//! it: the frame bound ([`MAX_FRAME`]), the tag space, and the body
//! codecs. A connection holds a [`ppc_bits::framed::Sender`] and
//! [`ppc_bits::framed::Receiver`], which number and check the frames.
//!
//! Request tags: [`REQ_QUERY`] (a litmus program plus a [`Budget`]),
//! [`REQ_STATS`], [`REQ_SHUTDOWN`]. Response tags: [`RESP_RESULT`]
//! (a cached flag and the JSONL record line, verbatim bytes of the
//! stored record on hits), [`RESP_STATS`], [`RESP_SHUTDOWN_ACK`], and
//! [`RESP_ERROR`] (a human-readable message, e.g. a parse error).
//! Bodies use the same LEB128 varint codec as every other on-disk and
//! on-wire encoding in the repo (`ppc_bits`).

use crate::oracle::OracleStats;
use ppc_bits::framed;
pub use ppc_bits::framed::Frame;
use ppc_bits::{DecodeError, Reader, Writer};
use ppc_litmus::Expectation;
use std::io::{self, Read, Write};

/// Hard bound on one frame (header + body). A litmus source is a few
/// KiB; a record line under a KiB — 16 MiB is comfortably above any
/// legitimate frame and small enough to reject garbage length
/// prefixes before allocating.
pub const MAX_FRAME: usize = 16 << 20;

/// Request: run (or serve from cache) a litmus program.
pub const REQ_QUERY: u8 = 1;
/// Request: report the oracle's counter snapshot.
pub const REQ_STATS: u8 = 2;
/// Request: gracefully shut the server down.
pub const REQ_SHUTDOWN: u8 = 3;

/// Response to [`REQ_QUERY`]: `[u8 cached][record line bytes]`.
pub const RESP_RESULT: u8 = 0x81;
/// Response to [`REQ_STATS`]: five stat varints.
pub const RESP_STATS: u8 = 0x82;
/// Response to [`REQ_SHUTDOWN`]: empty body, sent before the server
/// stops accepting.
pub const RESP_SHUTDOWN_ACK: u8 = 0x83;
/// Response carrying a human-readable failure message.
pub const RESP_ERROR: u8 = 0xee;

/// A client's per-request budget. `0` means "the server's default";
/// nonzero values are clamped by the server's own maxima, so a client
/// can narrow a budget (accepting an honestly-inconclusive record
/// under its own cache key) but never widen one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Distinct-state budget for the exploration.
    pub max_states: usize,
    /// Wall-clock budget, milliseconds.
    pub timeout_ms: u64,
}

/// Write one frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects bodies over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, seq: u64, tag: u8, body: &[u8]) -> io::Result<()> {
    framed::write_frame(w, MAX_FRAME, seq, tag, body)
}

/// Read one frame. `Ok(None)` is a clean EOF *at a frame boundary*;
/// an EOF mid-frame is an error (a torn request/response must never
/// be silently accepted).
///
/// # Errors
///
/// I/O errors, torn frames, and length prefixes outside
/// `[9, MAX_FRAME]`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    framed::read_frame(r, MAX_FRAME, |_| false)
}

/// A decoded [`REQ_QUERY`] body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// The litmus source (the server parses it; a parse error comes
    /// back as [`RESP_ERROR`]).
    pub source: String,
    /// Expectation the verdict is compared against. Ad-hoc submissions
    /// conventionally use `Allowed` ("did the model witness it").
    pub expect: Expectation,
    /// Submitter provenance, recorded in the report's `pinned_by`.
    pub pinned_by: String,
    /// Per-request budget (`0` fields = server defaults).
    pub budget: Budget,
}

/// Encode a [`REQ_QUERY`] body.
#[must_use]
pub fn encode_query(q: &QueryRequest) -> Vec<u8> {
    let mut w = Writer::new();
    w.byte(match q.expect {
        Expectation::Allowed => 0,
        Expectation::Forbidden => 1,
    });
    w.usizev(q.pinned_by.len());
    w.bytes(q.pinned_by.as_bytes());
    w.usizev(q.budget.max_states);
    w.u64v(q.budget.timeout_ms);
    w.usizev(q.source.len());
    w.bytes(q.source.as_bytes());
    w.into_bytes()
}

/// Decode a [`REQ_QUERY`] body.
///
/// # Errors
///
/// Any truncation, bad tag, or invalid UTF-8.
pub fn decode_query(body: &[u8]) -> Result<QueryRequest, DecodeError> {
    let mut r = Reader::new(body);
    let expect = match r.byte()? {
        0 => Expectation::Allowed,
        1 => Expectation::Forbidden,
        tag => {
            return Err(DecodeError::BadTag {
                what: "Expectation",
                tag,
            })
        }
    };
    let str_field = |r: &mut Reader<'_>| -> Result<String, DecodeError> {
        let n = r.usizev()?;
        String::from_utf8(r.bytes(n)?.to_vec()).map_err(|_| DecodeError::Invalid("utf-8 string"))
    };
    let pinned_by = str_field(&mut r)?;
    let max_states = r.usizev()?;
    let timeout_ms = r.u64v()?;
    let source = str_field(&mut r)?;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bytes in query body"));
    }
    Ok(QueryRequest {
        source,
        expect,
        pinned_by,
        budget: Budget {
            max_states,
            timeout_ms,
        },
    })
}

/// Encode a [`RESP_STATS`] body.
#[must_use]
pub fn encode_stats(s: &OracleStats) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64v(s.hits);
    w.u64v(s.misses);
    w.u64v(s.explorations);
    w.u64v(s.coalesced);
    w.u64v(s.corrupt_dropped);
    w.into_bytes()
}

/// Decode a [`RESP_STATS`] body.
///
/// # Errors
///
/// Truncated input.
pub fn decode_stats(body: &[u8]) -> Result<OracleStats, DecodeError> {
    let mut r = Reader::new(body);
    Ok(OracleStats {
        hits: r.u64v()?,
        misses: r.u64v()?,
        explorations: r.u64v()?,
        coalesced: r.u64v()?,
        corrupt_dropped: r.u64v()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, REQ_QUERY, b"hello").expect("write");
        let frame = read_frame(&mut buf.as_slice())
            .expect("read")
            .expect("one frame");
        assert_eq!(
            frame,
            Frame {
                seq: 3,
                tag: REQ_QUERY,
                body: b"hello".to_vec()
            }
        );
        // Clean EOF after the frame.
        let mut rest = &buf[buf.len()..];
        assert!(read_frame(&mut rest).expect("eof").is_none());
    }

    #[test]
    fn torn_frames_and_bad_lengths_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, REQ_STATS, b"").expect("write");
        // Torn header.
        assert!(read_frame(&mut &buf[..2]).is_err());
        // Torn body.
        assert!(read_frame(&mut &buf[..buf.len() - 1]).is_err());
        // Oversized length prefix rejected before allocation.
        let huge = (u32::try_from(MAX_FRAME).expect("fits") + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
        // Undersized (shorter than seq+tag) rejected too.
        let tiny = 4u32.to_le_bytes();
        assert!(read_frame(&mut tiny.as_slice()).is_err());
    }

    #[test]
    fn sequence_gaps_are_detected() {
        let mut wire = Vec::new();
        for seq in [0, 1, 3] {
            write_frame(&mut wire, seq, REQ_STATS, b"").expect("write");
        }
        let mut rd = wire.as_slice();
        let mut seq = framed::Receiver::new(MAX_FRAME);
        seq.recv(&mut rd, |_| false).expect("first");
        seq.recv(&mut rd, |_| false).expect("second");
        assert!(
            seq.recv(&mut rd, |_| false).is_err(),
            "gap must be detected"
        );
    }

    /// The committed wire bytes of one query frame: a refactor of the
    /// framer or the body codec must reproduce them exactly.
    #[test]
    fn golden_query_frame_bytes() {
        let q = QueryRequest {
            source: "POWER T".to_owned(),
            expect: Expectation::Forbidden,
            pinned_by: "g".to_owned(),
            budget: Budget {
                max_states: 1234,
                timeout_ms: 9000,
            },
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, 3, REQ_QUERY, &encode_query(&q)).expect("write");
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "18000000030000000000000001010167d209a84607504f5745522054"
        );
        let frame = read_frame(&mut wire.as_slice())
            .expect("read")
            .expect("one frame");
        assert_eq!((frame.seq, frame.tag), (3, REQ_QUERY));
        assert_eq!(decode_query(&frame.body).expect("decode"), q);
    }

    #[test]
    fn query_body_roundtrip() {
        let q = QueryRequest {
            source: "POWER T\n…".to_owned(),
            expect: Expectation::Forbidden,
            pinned_by: "client-7".to_owned(),
            budget: Budget {
                max_states: 1234,
                timeout_ms: 9000,
            },
        };
        assert_eq!(decode_query(&encode_query(&q)).expect("decode"), q);
        assert!(decode_query(&[9]).is_err(), "bad expectation tag");
        assert!(
            decode_query(&encode_query(&q)[..4]).is_err(),
            "truncated body"
        );
    }

    #[test]
    fn stats_body_roundtrip() {
        let s = OracleStats {
            hits: 10,
            misses: 2,
            explorations: 2,
            coalesced: 5,
            corrupt_dropped: 1,
        };
        assert_eq!(decode_stats(&encode_stats(&s)).expect("decode"), s);
    }
}
