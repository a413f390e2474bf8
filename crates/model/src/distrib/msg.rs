//! What travels on a link: the [`Msg`] enum and its body codec, the
//! frame/visited record types shared with the checkpoint format, and
//! the per-link send/receive helpers. The envelope itself (length
//! prefix, sequence number, tag byte) is [`ppc_bits::framed`]'s; this
//! protocol supplies its bound, [`MAX_BLOB`], and the tag space.

use crate::net::is_timeout;
use crate::oracle::{ExplorationStats, FinalState};
use crate::store::decode_retired_set;
use crate::types::{ModelParams, ThreadId};
use ppc_bits::framed::{self, Receiver, Sender};
use ppc_bits::{Bv, DecodeError, Reader, Writer};
use ppc_idl::codec::{decode_reg, encode_reg};
use ppc_idl::Reg;
use std::collections::BTreeSet;
use std::io::{self, BufReader};
use std::net::TcpStream;

/// Hard sanity cap on one wire message (a frame batch of
/// [`super::ROUTE_BATCH`] litmus-scale states is orders of magnitude
/// smaller).
pub(crate) const MAX_BLOB: usize = 256 << 20;

// ---- length-prefixed blobs ---------------------------------------------

pub use ppc_bits::framed::write_blob;

/// Read one `[u32 LE length][payload]` blob (the unsequenced records:
/// the job frame, relay-journal entries).
pub fn read_blob(r: &mut impl io::Read) -> io::Result<Vec<u8>> {
    framed::read_blob(r, MAX_BLOB, |_| false)?.ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
}

pub(super) fn decode_failed(e: &DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt message: {e}"))
}

// ---- wire messages -----------------------------------------------------

/// One frontier frame on the wire or in a checkpoint: the state digest
/// (computed by the sender; rebuild-stable, so receivers seed their
/// digest cache from it) plus the spill-record bytes.
#[derive(Clone, Debug)]
pub struct FrameRecord {
    /// The state's structural digest (routing key).
    pub digest: u64,
    /// [`crate::store`] frame-record bytes (metadata + canonical state).
    pub bytes: Vec<u8>,
}

/// A worker's final report: its share of the statistics and finals,
/// plus — when a Stop requested one — a dump of its unexplored work.
#[derive(Debug)]
pub(super) struct WorkerResult {
    pub stats: ExplorationStats,
    pub finals: BTreeSet<FinalState>,
    pub dump: Option<WorkerDump>,
}

/// The resumable remainder of one worker's exploration.
#[derive(Debug, Default)]
pub(super) struct WorkerDump {
    /// Every digest this shard admitted (hot ∪ cold).
    pub visited: Vec<u64>,
    /// Admitted-but-unexpanded frames (stack + spilled segments).
    pub frontier: Vec<FrameRecord>,
    /// Routed-but-never-admitted candidates (the unflushed outbox);
    /// these re-enter through normal admission on resume.
    pub pending: Vec<FrameRecord>,
}

/// Protocol messages. Coordinator→worker: `Batch`, `SeedVisited`,
/// `Probe`, `Stop`, `Finish`. Worker→coordinator: `Route`,
/// `ProbeReply`, `Beat`, `Result`. Either direction: `Heartbeat`.
#[derive(Debug)]
pub(super) enum Msg {
    /// Frames for the receiving shard. `preadmitted` marks checkpoint
    /// frontier frames, which were admitted before the pause (their
    /// digests are in the seeded visited set) and bypass admission.
    Batch {
        preadmitted: bool,
        frames: Vec<FrameRecord>,
    },
    /// Resume seeding: visited entries owned by the receiving shard.
    SeedVisited { entries: Vec<u64> },
    /// Termination probe; the worker replies with a [`Msg::ProbeReply`]
    /// carrying the same round number.
    Probe { round: u64 },
    /// Stop exploring; reply with a Result, dumping unexplored work iff
    /// `dump`.
    Stop { dump: bool },
    /// Quiescence confirmed; reply with a Result (no dump needed —
    /// there is nothing left to dump).
    Finish,
    /// Worker→coordinator: frames owned by another shard, to relay.
    Route {
        dest: usize,
        frames: Vec<FrameRecord>,
    },
    /// Reply to [`Msg::Probe`]: `idle` = empty stack, empty spill,
    /// flushed outbox; `received` = Batch frames consumed so far.
    ProbeReply {
        round: u64,
        idle: bool,
        received: u64,
        expanded: u64,
    },
    /// Periodic progress (every `BEAT_PERIOD` expansions), feeding
    /// the coordinator's budget/deadline enforcement.
    Beat { expanded: u64 },
    /// The worker's final report; the worker exits after sending it.
    Result(Box<WorkerResult>),
    /// Link-liveness keepalive, sent by either side after
    /// [`crate::net::NetParams::heartbeat`] of write silence; carries no state and
    /// is ignored beyond resetting the receiver's dead-peer deadline.
    Heartbeat,
}

pub(super) fn encode_frame_record(w: &mut Writer, rec: &FrameRecord) {
    w.bytes(&rec.digest.to_le_bytes());
    w.usizev(rec.bytes.len());
    w.bytes(&rec.bytes);
}

pub(super) fn decode_frame_record(r: &mut Reader<'_>) -> Result<FrameRecord, DecodeError> {
    let digest = u64::from_le_bytes(r.bytes(8)?.try_into().expect("8 bytes"));
    let n = r.usizev()?;
    Ok(FrameRecord {
        digest,
        bytes: r.bytes(n)?.to_vec(),
    })
}

pub(super) fn encode_frame_records(w: &mut Writer, recs: &[FrameRecord]) {
    w.usizev(recs.len());
    for rec in recs {
        encode_frame_record(w, rec);
    }
}

pub(super) fn decode_frame_records(r: &mut Reader<'_>) -> Result<Vec<FrameRecord>, DecodeError> {
    let n = r.usizev()?;
    let mut out = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        out.push(decode_frame_record(r)?);
    }
    Ok(out)
}

/// A visited entry is `[u64 digest][retired set slot]`: the slot is
/// always a literal empty count (see `decode_retired_set`).
pub(super) fn encode_visited_entries(w: &mut Writer, digests: &[u64]) {
    w.usizev(digests.len());
    for d in digests {
        w.bytes(&d.to_le_bytes());
        w.usizev(0);
    }
}

pub(super) fn decode_visited_entries(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = r.usizev()?;
    let mut out = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        out.push(u64::from_le_bytes(r.bytes(8)?.try_into().expect("8 bytes")));
        decode_retired_set(r)?;
    }
    Ok(out)
}

pub(super) fn encode_stats(w: &mut Writer, s: &ExplorationStats) {
    w.usizev(s.states);
    w.usizev(s.transitions);
    w.usizev(s.final_hits);
    w.bool(s.truncated);
    w.usizev(s.resident_peak);
    w.usizev(s.spilled_states);
    w.bool(s.bounded);
    w.option(s.store_error.as_ref(), |w, e| {
        w.usizev(e.len());
        w.bytes(e.as_bytes());
    });
}

pub(super) fn decode_stats(r: &mut Reader<'_>) -> Result<ExplorationStats, DecodeError> {
    Ok(ExplorationStats {
        states: r.usizev()?,
        transitions: r.usizev()?,
        final_hits: r.usizev()?,
        truncated: r.bool()?,
        resident_peak: r.usizev()?,
        spilled_states: r.usizev()?,
        bounded: r.bool()?,
        store_error: {
            r.option(|r| {
                let n = r.usizev()?;
                String::from_utf8(r.bytes(n)?.to_vec())
                    .map_err(|_| DecodeError::Invalid("store_error utf8"))
            })?
        },
    })
}

fn encode_final(w: &mut Writer, f: &FinalState) {
    w.usizev(f.regs.len());
    for (&(tid, reg), v) in &f.regs {
        w.usizev(tid);
        encode_reg(w, reg);
        w.bv(v);
    }
    w.usizev(f.mem.len());
    for (&addr, v) in &f.mem {
        w.u64v(addr);
        w.bv(v);
    }
}

fn decode_final(r: &mut Reader<'_>) -> Result<FinalState, DecodeError> {
    let nr = r.usizev()?;
    let mut regs = std::collections::BTreeMap::new();
    for _ in 0..nr {
        let tid: ThreadId = r.usizev()?;
        let reg: Reg = decode_reg(r)?;
        let v: Bv = r.bv()?;
        regs.insert((tid, reg), v);
    }
    let nm = r.usizev()?;
    let mut mem = std::collections::BTreeMap::new();
    for _ in 0..nm {
        let addr = r.u64v()?;
        let v = r.bv()?;
        mem.insert(addr, v);
    }
    Ok(FinalState { regs, mem })
}

pub(super) fn encode_finals(w: &mut Writer, finals: &BTreeSet<FinalState>) {
    w.usizev(finals.len());
    for f in finals {
        encode_final(w, f);
    }
}

pub(super) fn decode_finals(r: &mut Reader<'_>) -> Result<BTreeSet<FinalState>, DecodeError> {
    let n = r.usizev()?;
    let mut out = BTreeSet::new();
    for _ in 0..n {
        out.insert(decode_final(r)?);
    }
    Ok(out)
}

/// Serialise [`ModelParams`] for job shipping (all fields, in
/// declaration order; additive like every codec in the repo). The sixth
/// slot belonged to the removed steal-batch knob: it holds a literal 32,
/// that knob's old default, so a default job's encoding — and with it
/// the checkpoint fingerprint — is what earlier builds wrote.
pub fn encode_params(w: &mut Writer, p: &ModelParams) {
    w.usizev(p.max_instances_per_thread);
    w.bool(p.coherence_commitments);
    w.bool(p.allow_spurious_stcx_failure);
    w.usizev(p.threads);
    w.usizev(p.max_states);
    w.usizev(RETIRED_STEAL_BATCH);
    w.usizev(p.max_resident_states);
    w.bool(p.reduced);
    w.usizev(p.max_context_switches);
}

/// What [`encode_params`] writes in the retired steal-batch slot.
const RETIRED_STEAL_BATCH: usize = 32;

/// Inverse of [`encode_params`]; the retired slot is read and ignored.
pub fn decode_params(r: &mut Reader<'_>) -> Result<ModelParams, DecodeError> {
    let max_instances_per_thread = r.usizev()?;
    let coherence_commitments = r.bool()?;
    let allow_spurious_stcx_failure = r.bool()?;
    let threads = r.usizev()?;
    let max_states = r.usizev()?;
    r.usizev()?;
    Ok(ModelParams {
        max_instances_per_thread,
        coherence_commitments,
        allow_spurious_stcx_failure,
        threads,
        max_states,
        max_resident_states: r.usizev()?,
        reduced: r.bool()?,
        max_context_switches: r.usizev()?,
    })
}

/// A message's frame tag and body.
pub(super) fn encode_msg(msg: &Msg) -> (u8, Vec<u8>) {
    let mut w = Writer::new();
    let tag = match msg {
        Msg::Batch {
            preadmitted,
            frames,
        } => {
            w.bool(*preadmitted);
            encode_frame_records(&mut w, frames);
            1
        }
        Msg::SeedVisited { entries } => {
            encode_visited_entries(&mut w, entries);
            2
        }
        Msg::Probe { round } => {
            w.u64v(*round);
            3
        }
        Msg::Stop { dump } => {
            w.bool(*dump);
            4
        }
        Msg::Finish => 5,
        Msg::Route { dest, frames } => {
            w.usizev(*dest);
            encode_frame_records(&mut w, frames);
            6
        }
        Msg::ProbeReply {
            round,
            idle,
            received,
            expanded,
        } => {
            w.u64v(*round);
            w.bool(*idle);
            w.u64v(*received);
            w.u64v(*expanded);
            7
        }
        Msg::Beat { expanded } => {
            w.u64v(*expanded);
            8
        }
        Msg::Result(res) => {
            encode_stats(&mut w, &res.stats);
            encode_finals(&mut w, &res.finals);
            w.option(res.dump.as_ref(), |w, d| {
                encode_visited_entries(w, &d.visited);
                encode_frame_records(w, &d.frontier);
                encode_frame_records(w, &d.pending);
            });
            9
        }
        Msg::Heartbeat => 10,
    };
    (tag, w.into_bytes())
}

/// Inverse of [`encode_msg`].
pub(super) fn decode_msg(tag: u8, body: &[u8]) -> Result<Msg, DecodeError> {
    let mut r = Reader::new(body);
    let msg = match tag {
        1 => Msg::Batch {
            preadmitted: r.bool()?,
            frames: decode_frame_records(&mut r)?,
        },
        2 => Msg::SeedVisited {
            entries: decode_visited_entries(&mut r)?,
        },
        3 => Msg::Probe { round: r.u64v()? },
        4 => Msg::Stop { dump: r.bool()? },
        5 => Msg::Finish,
        6 => Msg::Route {
            dest: r.usizev()?,
            frames: decode_frame_records(&mut r)?,
        },
        7 => Msg::ProbeReply {
            round: r.u64v()?,
            idle: r.bool()?,
            received: r.u64v()?,
            expanded: r.u64v()?,
        },
        8 => Msg::Beat {
            expanded: r.u64v()?,
        },
        9 => {
            let stats = decode_stats(&mut r)?;
            let finals = decode_finals(&mut r)?;
            let dump = r.option(|r| {
                Ok(WorkerDump {
                    visited: decode_visited_entries(r)?,
                    frontier: decode_frame_records(r)?,
                    pending: decode_frame_records(r)?,
                })
            })?;
            Msg::Result(Box::new(WorkerResult {
                stats,
                finals,
                dump,
            }))
        }
        10 => Msg::Heartbeat,
        tag => return Err(DecodeError::BadTag { what: "Msg", tag }),
    };
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bytes after message"));
    }
    Ok(msg)
}

/// Send one message as the link's next frame.
pub(super) fn send_msg(tx: &mut Sender, w: &mut impl io::Write, msg: &Msg) -> io::Result<()> {
    let (tag, body) = encode_msg(msg);
    tx.send(w, tag, &body)
}

/// Receive the link's next message. A sequence gap means a frame was
/// dropped in transit — fatal for the link (the exploration would
/// otherwise silently lose states) — and so is a read that outlasts the
/// socket's dead-peer deadline, at a frame boundary or inside a frame.
pub(super) fn recv_msg(rx: &mut Receiver, r: &mut impl io::Read) -> io::Result<Msg> {
    let frame = rx
        .recv(r, |_| false)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the link"))?;
    decode_msg(frame.tag, &frame.body).map_err(|e| decode_failed(&e))
}

/// Spawn the link's reader thread: it drains `sock` into `deliver` so
/// the owning loop polls between its other duties without blocking (and
/// so the socket never backs up while that side is busy writing). The
/// thread ends after delivering the first error, or when `deliver`
/// reports the consumer gone.
pub(super) fn spawn_reader(
    sock: TcpStream,
    mut deliver: impl FnMut(io::Result<Msg>) -> bool + Send + 'static,
) {
    std::thread::spawn(move || {
        let mut rd = BufReader::new(sock);
        let mut rx = Receiver::new(MAX_BLOB);
        loop {
            let msg = recv_msg(&mut rx, &mut rd);
            let last = msg.is_err();
            if !deliver(msg) || last {
                break;
            }
        }
    });
}

/// Humanise a link failure for `store_error`: timeouts get the
/// dead-peer phrasing, everything else keeps the io error text.
pub(super) fn link_error(e: &io::Error) -> String {
    if is_timeout(e) {
        "peer silent past the dead-peer timeout (no heartbeat)".to_string()
    } else {
        e.to_string()
    }
}
