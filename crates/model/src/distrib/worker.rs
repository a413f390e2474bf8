//! The worker side: [`crate::oracle`]'s depth-first engine — the same
//! `DfsFrontier` every in-process pool worker drives — plus routing:
//! successors owned by another shard leave through the outbox instead of
//! entering the local frontier, and frames owned by this one arrive as
//! messages.
//!
//! Admission sits in front of the codec on both ends of the link (the
//! soundness argument is in the [module docs](super), *Dedup before
//! codec*): a successor whose digest this worker already routed is not
//! encoded again ([`SentTable`]), and a received record is offered to
//! the visited set on its digest before it is decoded.

use super::msg::{
    encode_msg, send_msg, spawn_reader, FrameRecord, Msg, WorkerDump, WorkerResult, MAX_BLOB,
};
use super::{shard_of, ROUTE_BATCH};
use crate::net::{FaultAction, FaultPlan, NetParams, SendKind};
use crate::oracle::{DfsFrontier, ExplorationStats, FinalState, Frame};
use crate::store::{decode_frame, encode_frame, StateStore, StoreError};
use crate::system::SystemState;
use crate::types::ThreadId;
use ppc_bits::framed::Sender;
use ppc_idl::Reg;
use std::collections::BTreeSet;
use std::io::{self, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Expansions between worker Beat messages (the coordinator's view of
/// budget progress is at most this stale per worker).
const BEAT_PERIOD: u64 = 128;

/// Slots in a worker's [`SentTable`]: 2^16 digests, 512 KiB. A constant,
/// not a knob — a smaller table only re-sends more.
pub(super) const SENT_SLOTS: usize = 1 << 16;

/// The remote digests a worker has already routed: a fixed-size
/// direct-mapped table, one 64-bit digest per slot, indexed by the *low*
/// digest bits ([`shard_of`] spends the top 16, so the digests bound for
/// one owner still spread over every slot). A hit is an exact compare,
/// so the table never claims a digest it was not given; a colliding
/// digest evicts the slot's previous one, which is then merely sent
/// again. Memory is constant however large the state space grows.
pub(super) struct SentTable {
    /// `0` marks an empty slot. A digest that *is* 0 is therefore never
    /// remembered — it is re-sent every time, which is harmless.
    slots: Box<[u64]>,
}

impl SentTable {
    pub(super) fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "slot index is a bit mask");
        SentTable {
            slots: vec![0; slots].into_boxed_slice(),
        }
    }

    /// Whether `digest` is remembered as sent; remembers it if not.
    pub(super) fn check_and_insert(&mut self, digest: u64) -> bool {
        let slot = &mut self.slots[(digest as usize) & (self.slots.len() - 1)];
        if *slot == digest {
            return digest != 0;
        }
        *slot = digest;
        false
    }
}

/// What a worker process needs beyond its socket: its shard identity
/// and the (locally rebuilt) system the frames belong to.
pub struct WorkerEnv<'a> {
    /// This worker's shard index in `0..n_shards`.
    pub shard: usize,
    /// Total shard/worker count.
    pub n_shards: usize,
    /// The locally rebuilt initial state (supplies program, params, and
    /// the codec context; the root frame itself arrives over the wire).
    pub initial: &'a SystemState,
    /// Observed registers, as in [`crate::oracle::explore`].
    pub reg_obs: &'a [(ThreadId, Reg)],
    /// Observed memory footprints.
    pub mem_obs: &'a [(u64, usize)],
}

/// Run one worker's exploration loop over an established coordinator
/// connection, until a Stop/Finish message (normal: returns `Ok`) or a
/// transport failure (returns `Err`; the supervising process should
/// exit nonzero, which the coordinator reports as a dead worker).
/// `net` must match the coordinator's (it ships in the job frame).
///
/// Store failures do *not* return `Err`: the worker reports a truncated
/// Result with [`ExplorationStats::store_error`] set and exits cleanly
/// — the exploration degrades to inconclusive, exactly like the
/// single-process engines.
pub fn run_worker(sock: TcpStream, env: &WorkerEnv<'_>, net: &NetParams) -> io::Result<()> {
    Worker::new(sock, env, *net)?.run()
}

struct Worker<'a> {
    env: &'a WorkerEnv<'a>,
    frontier: DfsFrontier,
    outbox: Vec<Vec<FrameRecord>>,
    /// Digests already routed to their owners, consulted before the
    /// encode.
    sent: SentTable,
    finals: BTreeSet<FinalState>,
    stats: ExplorationStats,
    /// Batch frames consumed (the probe's `received`).
    received: u64,
    /// States expanded (the probe/beat progress counter).
    expanded: u64,
    sock: TcpStream,
    rx: mpsc::Receiver<io::Result<Msg>>,
    net: NetParams,
    /// The outgoing end of the link (owns the envelope's `seq`).
    tx: Sender,
    /// When this side last wrote anything (heartbeat pacing).
    last_sent: Instant,
    /// Injected faults (tests only; `None` in production).
    faults: Option<FaultPlan>,
}

impl<'a> Worker<'a> {
    fn new(sock: TcpStream, env: &'a WorkerEnv<'a>, net: NetParams) -> io::Result<Self> {
        let (tx, rx) = mpsc::channel::<io::Result<Msg>>();
        spawn_reader(sock.try_clone()?, move |msg| tx.send(msg).is_ok());
        Ok(Worker {
            frontier: DfsFrontier::new(env.initial),
            outbox: (0..env.n_shards).map(|_| Vec::new()).collect(),
            sent: SentTable::new(SENT_SLOTS),
            finals: BTreeSet::new(),
            stats: ExplorationStats::default(),
            received: 0,
            expanded: 0,
            net,
            tx: Sender::new(MAX_BLOB),
            last_sent: Instant::now(),
            faults: FaultPlan::from_env(env.shard),
            env,
            sock,
            rx,
        })
    }

    /// Every outgoing message funnels through here: fault injection,
    /// sequence numbering, heartbeat pacing.
    fn send(&mut self, msg: &Msg) -> io::Result<()> {
        let kind = match msg {
            Msg::Route { .. } => SendKind::Route,
            Msg::ProbeReply { .. } => SendKind::ProbeReply,
            _ => SendKind::Other,
        };
        match self
            .faults
            .as_mut()
            .map_or(FaultAction::Pass, |f| f.action(kind))
        {
            FaultAction::Pass => {}
            FaultAction::Drop => {
                // Burn the sequence number without writing: the peer
                // sees a gap on the next message — the "lossy relay"
                // fault the envelope exists to catch.
                self.tx.skip();
                return Ok(());
            }
            FaultAction::Mute => {
                // Pretend-send: pacing proceeds as if healthy, but the
                // peer sees pure silence.
                self.last_sent = Instant::now();
                return Ok(());
            }
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Truncate => {
                // A crash mid-write: half a frame, then abort.
                let (tag, body) = encode_msg(msg);
                let wire = self.tx.encode_next(tag, &body)?;
                let _ = self.sock.write_all(&wire[..4 + (wire.len() - 4) / 2]);
                let _ = self.sock.flush();
                let _ = self.sock.shutdown(Shutdown::Write);
                std::process::abort();
            }
        }
        self.last_sent = Instant::now();
        send_msg(&mut self.tx, &mut self.sock, msg)
    }

    /// Send a heartbeat if nothing has been written for a heartbeat
    /// period (the coordinator's dead-peer detector needs *some*
    /// traffic from a healthy worker).
    fn maybe_heartbeat(&mut self) -> io::Result<()> {
        if self.last_sent.elapsed() >= self.net.heartbeat {
            self.send(&Msg::Heartbeat)?;
        }
        Ok(())
    }

    /// Send every buffered outbox batch to the coordinator for relay.
    fn flush_outbox(&mut self) -> io::Result<()> {
        for dest in 0..self.outbox.len() {
            if !self.outbox[dest].is_empty() {
                let frames = std::mem::take(&mut self.outbox[dest]);
                self.send(&Msg::Route { dest, frames })?;
            }
        }
        Ok(())
    }

    /// Report a truncated Result (store failure or corrupt wire frame)
    /// and end the worker cleanly — never a silent partial pass, never
    /// a process abort.
    fn finish_failed(&mut self, what: &str) -> io::Result<()> {
        self.stats.truncated = true;
        if self.stats.store_error.is_none() {
            self.stats.store_error = Some(what.to_string());
        }
        self.send_result(None)
    }

    fn send_result(&mut self, dump: Option<WorkerDump>) -> io::Result<()> {
        self.stats.resident_peak = self.frontier.store.resident_peak();
        self.stats.spilled_states = self.frontier.store.spilled_states();
        let res = WorkerResult {
            stats: self.stats.clone(),
            finals: std::mem::take(&mut self.finals),
            dump,
        };
        self.send(&Msg::Result(Box::new(res)))
    }

    /// Dump everything unexplored for a checkpoint: visited digests,
    /// stack + spilled frames, unflushed outbox.
    fn dump(&mut self) -> Result<WorkerDump, StoreError> {
        let visited = self.frontier.store.visited_digests()?;
        let frames = self.frontier.drain()?;
        let frontier = frames
            .iter()
            .map(|f| record(&self.frontier.store, f))
            .collect();
        let pending: Vec<FrameRecord> = self.outbox.iter_mut().flat_map(std::mem::take).collect();
        Ok(WorkerDump {
            visited,
            frontier,
            pending,
        })
    }

    fn run(mut self) -> io::Result<()> {
        loop {
            // Poll for messages between expansions; wait (after
            // flushing buffered routes — they are other shards' work)
            // when there is nothing local to expand, waking to keep the
            // heartbeat flowing.
            let gone = || io::Error::new(io::ErrorKind::UnexpectedEof, "coordinator disconnected");
            let msg = if self.frontier.is_empty() {
                self.flush_outbox()?;
                self.maybe_heartbeat()?;
                let wait = self
                    .net
                    .heartbeat
                    .saturating_sub(self.last_sent.elapsed())
                    .max(Duration::from_millis(1));
                match self.rx.recv_timeout(wait) {
                    Ok(m) => Some(m?),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Err(gone()),
                }
            } else {
                self.maybe_heartbeat()?;
                match self.rx.try_recv() {
                    Ok(m) => Some(m?),
                    Err(mpsc::TryRecvError::Empty) => None,
                    Err(mpsc::TryRecvError::Disconnected) => return Err(gone()),
                }
            };
            if let Some(msg) = msg {
                match msg {
                    Msg::Batch {
                        preadmitted,
                        frames,
                    } => {
                        // Every record counts as received, admitted or
                        // not: the probe compares this with what the
                        // coordinator forwarded.
                        self.received += frames.len() as u64;
                        for rec in frames {
                            // Admission needs only the digest, so a
                            // record the visited set rejects is dropped
                            // undecoded. A checkpoint frontier frame was
                            // admitted before the pause (its digest is
                            // in the seeded visited set), so admission
                            // would wrongly reject it.
                            if !preadmitted {
                                match self.frontier.store.insert_visited(rec.digest) {
                                    Ok(true) => {}
                                    Ok(false) => continue,
                                    Err(e) => return self.finish_failed(&e.to_string()),
                                }
                            }
                            // An admitted digest whose frame does not
                            // decode would be a hole in the state space:
                            // the run ends truncated.
                            let frame = match decode_frame(self.frontier.store.ctx(), &rec.bytes) {
                                Ok(f) => f,
                                Err(e) => {
                                    return self.finish_failed(&format!("corrupt wire frame: {e}"))
                                }
                            };
                            // The sender computed the digest; it is
                            // rebuild-stable, so seed the cache instead
                            // of re-hashing.
                            frame.state.digest.seed(rec.digest);
                            self.frontier.push(frame);
                        }
                    }
                    Msg::SeedVisited { entries } => {
                        for d in entries {
                            if let Err(err) = self.frontier.store.insert_visited(d) {
                                return self.finish_failed(&err.to_string());
                            }
                        }
                    }
                    Msg::Probe { round } => {
                        self.flush_outbox()?;
                        let reply = Msg::ProbeReply {
                            round,
                            idle: self.frontier.is_empty(),
                            received: self.received,
                            expanded: self.expanded,
                        };
                        self.send(&reply)?;
                    }
                    Msg::Stop { dump } => {
                        self.stats.truncated = true;
                        let d = if dump {
                            match self.dump() {
                                Ok(d) => Some(d),
                                Err(e) => return self.finish_failed(&e.to_string()),
                            }
                        } else {
                            None
                        };
                        return self.send_result(d);
                    }
                    Msg::Finish => {
                        return self.send_result(None);
                    }
                    // Keepalive: nothing to do beyond the read itself
                    // having reset the dead-peer deadline.
                    Msg::Heartbeat => {}
                    // Worker→coordinator messages never arrive here.
                    Msg::Route { .. }
                    | Msg::ProbeReply { .. }
                    | Msg::Beat { .. }
                    | Msg::Result(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "coordinator sent a worker-side message",
                        ));
                    }
                }
                continue;
            }

            // No message pending: one step of the pool worker's loop,
            // except that successors owned by another shard are routed
            // instead of admitted.
            let frame = match self.frontier.pop() {
                Ok(Some(f)) => f,
                Ok(None) => continue,
                Err(e) => return self.finish_failed(&e.to_string()),
            };
            self.expanded += 1;
            self.stats.states += 1;
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.dies_at(self.expanded))
            {
                std::process::abort();
            }
            let (shard, n_shards) = (self.env.shard, self.env.n_shards);
            let (outbox, sent) = (&mut self.outbox, &mut self.sent);
            // Route batches that filled up during the step, in order.
            let mut full = Vec::new();
            let stepped = self.frontier.step(
                &frame,
                self.env.reg_obs,
                self.env.mem_obs,
                &mut self.finals,
                &mut self.stats,
                |store, next| {
                    let digest = next.state.digest();
                    let owner = shard_of(digest, n_shards);
                    if owner == shard {
                        return true;
                    }
                    // Already routed: the owner has it, or will.
                    if sent.check_and_insert(digest) {
                        return false;
                    }
                    outbox[owner].push(record(store, next));
                    if outbox[owner].len() >= ROUTE_BATCH {
                        full.push((owner, std::mem::take(&mut outbox[owner])));
                    }
                    false
                },
            );
            for (dest, frames) in full {
                self.send(&Msg::Route { dest, frames })?;
            }
            if let Err(e) = stepped {
                return self.finish_failed(&e.to_string());
            }
            if self.expanded.is_multiple_of(BEAT_PERIOD) {
                self.send(&Msg::Beat {
                    expanded: self.expanded,
                })?;
            }
        }
    }
}

/// The wire/checkpoint record of a frame, encoded through the worker's
/// one codec context.
fn record(store: &StateStore, frame: &Frame) -> FrameRecord {
    FrameRecord {
        digest: frame.state.digest(),
        bytes: encode_frame(store.ctx(), frame),
    }
}
