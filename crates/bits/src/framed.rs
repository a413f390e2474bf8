//! The framed link: the one length-prefixed, sequence-numbered envelope
//! every byte stream in the workspace speaks — the distributed oracle's
//! coordinator↔worker links (`ppc_model::distrib`) and the oracle
//! service's client↔server connections (`ppc_service::proto`).
//!
//! ```text
//! [u32 len][u64 seq][u8 tag][body…]      len = 9 + body.len()
//! ```
//!
//! Everything is little-endian. The length prefix delimits a frame
//! before it is interpreted and is checked against the protocol's own
//! bound *before* any allocation, so a corrupt or hostile prefix is an
//! error, never a multi-gigabyte `Vec`. Each direction of a link numbers
//! its frames from 0; the receiving end checks the sequence is exactly
//! `previous + 1`, so a frame dropped, repeated or reordered in transit
//! is a *detected* link failure instead of a silently desynchronised
//! stream (or a silently shrunk state space).
//!
//! This module is the only code that touches the envelope. A protocol
//! is a bound (its `MAX_*` constant), a tag space and a body codec; it
//! holds a [`Sender`] and a [`Receiver`] per link, which own the
//! sequence counters — there is no counter for a call site to forget to
//! advance. The unsequenced half, [`read_blob`] / [`write_blob`], is the
//! same bounded `[u32 len][payload]` record without the header, used
//! where there is no link to desynchronise (job shipping, relay
//! journals, spill segments).

use std::io::{self, Read, Write};

/// Bytes of frame header inside the length-prefixed payload: the `u64`
/// sequence number and the tag byte.
const HEADER: usize = 9;

/// `true` for the error kinds a timed-out socket read surfaces
/// (`WouldBlock` on Unix-domain `SO_RCVTIMEO`, `TimedOut` on some TCP
/// stacks) — silence, as opposed to EOF or reset.
#[must_use]
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fill `buf` exactly. `Ok(false)` is a clean EOF before the record's
/// first byte; an EOF after it is a torn record. `started` tracks
/// whether any byte of the current record has arrived, across the
/// prefix and payload reads.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    started: &mut bool,
    on_idle: &mut impl FnMut(bool) -> bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if !*started => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn frame: the stream ended mid-record",
                ))
            }
            Ok(n) => {
                filled += n;
                *started = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && on_idle(*started) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one `u32` length prefix and check it against `max`. `Ok(None)`
/// is a clean EOF before the prefix's first byte.
///
/// `on_idle` decides what a read timeout means (sources without read
/// deadlines never call it): it is told whether part of the record has
/// already arrived, and returns `true` to keep waiting or `false` to
/// surface the timeout as the error it is. A dead-peer detector passes
/// `|_| false`; a server polling a shutdown flag between requests keeps
/// waiting mid-record and gives up only at a boundary.
///
/// # Errors
///
/// I/O errors, a torn prefix, and lengths over `max` — rejected here so
/// no caller ever allocates for an unchecked length.
pub fn read_len(
    r: &mut impl Read,
    max: usize,
    mut on_idle: impl FnMut(bool) -> bool,
) -> io::Result<Option<usize>> {
    let mut lenbuf = [0u8; 4];
    if !fill(r, &mut lenbuf, &mut false, &mut on_idle)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(lenbuf) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len} (bound {max})"),
        ));
    }
    Ok(Some(len))
}

/// Read one `[u32 len][payload]` record of at most `max` payload bytes;
/// `on_idle` as for [`read_len`]. `Ok(None)` is a clean EOF *at a record
/// boundary*; an EOF mid-record is an error (a torn record is never
/// silently accepted).
///
/// # Errors
///
/// Everything [`read_len`] rejects, plus a torn payload.
pub fn read_blob(
    r: &mut impl Read,
    max: usize,
    mut on_idle: impl FnMut(bool) -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let Some(len) = read_len(r, max, &mut on_idle)? else {
        return Ok(None);
    };
    let mut payload = vec![0u8; len];
    fill(r, &mut payload, &mut true, &mut on_idle)?;
    Ok(Some(payload))
}

/// Write one `[u32 len][payload]` record and flush.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads whose length does not fit
/// the prefix.
pub fn write_blob(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "blob too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Sender's frame sequence number.
    pub seq: u64,
    /// Protocol-specific frame tag.
    pub tag: u8,
    /// Tag-specific body.
    pub body: Vec<u8>,
}

/// Read one frame of at most `max` bytes (header + body); `on_idle` and
/// `Ok(None)` as for [`read_blob`]. The sequence number is returned,
/// not checked — [`Receiver::recv`] is the checking reader.
///
/// # Errors
///
/// Everything [`read_blob`] rejects, plus frames too short to hold the
/// sequence number and tag.
pub fn read_frame(
    r: &mut impl Read,
    max: usize,
    on_idle: impl FnMut(bool) -> bool,
) -> io::Result<Option<Frame>> {
    let Some(mut payload) = read_blob(r, max, on_idle)? else {
        return Ok(None);
    };
    if payload.len() < HEADER {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {} (no room for seq + tag)", payload.len()),
        ));
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let tag = payload[8];
    payload.drain(..HEADER);
    Ok(Some(Frame {
        seq,
        tag,
        body: payload,
    }))
}

/// The wire bytes of one frame, length prefix included; `InvalidInput`
/// when header + body exceed `max`.
fn encode_frame(max: usize, seq: u64, tag: u8, body: &[u8]) -> io::Result<Vec<u8>> {
    let len = HEADER + body.len();
    let prefix = u32::try_from(len).ok().filter(|_| len <= max);
    let Some(prefix) = prefix else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {max}-byte bound"),
        ));
    };
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&prefix.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(body);
    Ok(buf)
}

/// Write one frame with a single `write_all`, then flush.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames over `max`.
pub fn write_frame(
    w: &mut impl Write,
    max: usize,
    seq: u64,
    tag: u8,
    body: &[u8],
) -> io::Result<()> {
    w.write_all(&encode_frame(max, seq, tag, body)?)?;
    w.flush()
}

/// The sending end of one link direction: numbers frames 0, 1, 2, ….
#[derive(Debug)]
pub struct Sender {
    next: u64,
    max: usize,
}

impl Sender {
    /// A sender at sequence 0 for a protocol whose frames are at most
    /// `max` bytes.
    #[must_use]
    pub fn new(max: usize) -> Self {
        Sender { next: 0, max }
    }

    /// Write the next frame and advance the sequence.
    ///
    /// # Errors
    ///
    /// See [`write_frame`]; the sequence only advances on success (a
    /// failed write ends the link either way).
    pub fn send(&mut self, w: &mut impl Write, tag: u8, body: &[u8]) -> io::Result<()> {
        write_frame(w, self.max, self.next, tag, body)?;
        self.next += 1;
        Ok(())
    }

    /// Consume a sequence number without writing anything: the peer sees
    /// a gap at the next frame. This is fault injection's "lossy relay".
    pub fn skip(&mut self) {
        self.next += 1;
    }

    /// The wire bytes [`Sender::send`] would write next, for fault
    /// injection that tears a frame mid-write.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the frame would exceed the bound.
    pub fn encode_next(&self, tag: u8, body: &[u8]) -> io::Result<Vec<u8>> {
        encode_frame(self.max, self.next, tag, body)
    }
}

/// The receiving end of one link direction: frames must arrive numbered
/// 0, 1, 2, … with no gaps or repeats.
#[derive(Debug)]
pub struct Receiver {
    next: u64,
    max: usize,
}

impl Receiver {
    /// A receiver expecting sequence 0, bounding frames at `max` bytes.
    #[must_use]
    pub fn new(max: usize) -> Self {
        Receiver { next: 0, max }
    }

    /// Read the next frame and verify its sequence number; `on_idle`
    /// and `Ok(None)` as for [`read_blob`].
    ///
    /// # Errors
    ///
    /// Everything [`read_frame`] rejects, plus `InvalidData` on any
    /// sequence gap or repeat — fatal for the link.
    pub fn recv(
        &mut self,
        r: &mut impl Read,
        on_idle: impl FnMut(bool) -> bool,
    ) -> io::Result<Option<Frame>> {
        let Some(frame) = read_frame(r, self.max, on_idle)? else {
            return Ok(None);
        };
        if frame.seq != self.next {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame sequence gap (expected {}, got {}): \
                     a frame was lost or repeated in transit",
                    self.next, frame.seq
                ),
            ));
        }
        self.next += 1;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source that times out once before every read it serves, and
    /// serves at most `step` bytes per read.
    struct Stutter<'a> {
        data: &'a [u8],
        step: usize,
        timed_out: bool,
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.timed_out, true) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.timed_out = false;
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn bounds_are_checked_on_both_ends_before_allocating() {
        assert!(encode_frame(16, 0, 0, &[0; 8]).is_err(), "9 + 8 > 16");
        let wire = encode_frame(17, 0, 0, &[0; 8]).expect("fits");
        assert!(read_frame(&mut wire.as_slice(), 16, |_| false).is_err());
        assert!(read_frame(&mut wire.as_slice(), 17, |_| false).is_ok());
        let huge = u32::MAX.to_le_bytes();
        assert!(read_blob(&mut huge.as_slice(), 1 << 20, |_| false).is_err());
        // Too short for seq + tag.
        let mut runt = Vec::new();
        write_blob(&mut runt, &[0; 8]).expect("write");
        assert!(read_frame(&mut runt.as_slice(), 64, |_| false).is_err());
    }

    #[test]
    fn on_idle_rides_out_or_surfaces_timeouts() {
        let wire = encode_frame(64, 0, 7, b"xyz").expect("fits");
        let stutter = || Stutter {
            data: &wire,
            step: 6,
            timed_out: false,
        };
        // Keep waiting everywhere: the frame arrives whole.
        let mut idles = Vec::new();
        let frame = read_frame(&mut stutter(), 64, |started| {
            idles.push(started);
            true
        });
        assert_eq!(frame.expect("read").expect("frame").body, b"xyz");
        assert_eq!(idles, [false, true, true]);
        // Give up at the boundary: the timeout is the error.
        let err = read_frame(&mut stutter(), 64, |_| false).expect_err("idle");
        assert!(is_timeout(&err));
        // Wait at the boundary, give up mid-frame.
        let err = read_frame(&mut stutter(), 64, |started| !started).expect_err("stalled");
        assert!(is_timeout(&err));
    }
}
