//! The coordinator side: relays worker→worker frame batches, enforces
//! the state budget and deadline, runs the termination probe
//! ([`super::probe`]), and degrades a lost worker into a truncated —
//! and, with a checkpoint path, resumable — outcome.

use super::checkpoint::{save_checkpoint, Checkpoint};
use super::msg::{
    decode_failed, decode_frame_record, encode_frame_record, link_error, send_msg, spawn_reader,
    FrameRecord, Msg, WorkerResult, MAX_BLOB,
};
use super::probe::{ProbeTracker, ProbeVerdict};
use super::{shard_of, ROUTE_BATCH};
use crate::net::NetParams;
use crate::oracle::{ExplorationStats, ExploreLimits, FinalState, Frame, Outcomes, SuccMemoStats};
use crate::state_codec::{CodecCtx, MemoStats};
use crate::store::encode_frame;
use ppc_bits::framed::{self, Sender};
use ppc_bits::{Reader, Writer};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Visited digests per SeedVisited message during resume seeding.
const SEED_BATCH: usize = 4096;

/// How long the coordinator waits for worker Results after broadcasting
/// Stop/Finish before declaring the stragglers dead.
const WIND_DOWN_GRACE: Duration = Duration::from_secs(30);

/// What the coordinator hands back: the merged outcome plus the
/// degradation/checkpoint flags the caller reports.
#[derive(Debug)]
pub struct DistribOutcome {
    pub outcomes: Outcomes,
    /// At least one worker died before reporting (result truncated).
    pub worker_died: bool,
    /// A checkpoint file was written for this pause.
    pub checkpoint_written: bool,
    /// Frame records the coordinator forwarded to workers, summed over
    /// links (the probe invariant's `r_out`): the root or resume seed
    /// plus everything relayed between shards. Counted here, not on the
    /// wire.
    pub relayed_frames: u64,
}

/// Coordinator-side configuration.
pub struct CoordinatorConfig<'a> {
    pub limits: &'a ExploreLimits,
    /// Write a checkpoint here on a graceful budget/deadline stop (and
    /// delete it after an untruncated completion).
    pub checkpoint: Option<&'a Path>,
    /// Job fingerprint stored in (and verified against) checkpoints.
    pub job_digest: u64,
    /// A previously saved checkpoint to resume from, instead of
    /// starting at the root frame.
    pub resume: Option<Checkpoint>,
    /// Link-liveness pacing (must match what the workers were told).
    pub net: NetParams,
    /// Directory for the per-shard relay journals that make a
    /// worker-death checkpoint possible. `None` disables journaling
    /// (sensible when `checkpoint` is `None` — the journal would never
    /// be read).
    pub journal_dir: Option<PathBuf>,
}

/// The per-worker connection state the coordinator tracks.
struct Link {
    sock: TcpStream,
    /// The outgoing end of this link (owns the envelope's `seq`).
    tx: Sender,
    /// Batch frames forwarded to this worker (the probe invariant's
    /// `r_out`).
    r_out: u64,
    /// Latest expansion count heard (Beat/ProbeReply/Result).
    expanded: u64,
    /// The worker's Result, once received.
    result: Option<WorkerResult>,
    /// Link failed or closed (normal after a Result; fatal before one).
    gone: bool,
    /// Append-only journal of every frame forwarded to this shard:
    /// replayed into the checkpoint's pending list if the shard dies
    /// without dumping.
    journal: Option<BufWriter<File>>,
    /// The journal file path, for replay.
    journal_path: Option<PathBuf>,
}

impl Link {
    fn new(sock: TcpStream) -> Self {
        Link {
            sock,
            tx: Sender::new(MAX_BLOB),
            r_out: 0,
            expanded: 0,
            result: None,
            gone: false,
            journal: None,
            journal_path: None,
        }
    }
}

/// Bucket `items` by the shard that owns each one's digest.
fn by_owner<T>(
    items: Vec<T>,
    n: usize,
    digest: impl Fn(&T) -> u64,
) -> impl Iterator<Item = (usize, Vec<T>)> {
    let mut buckets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for item in items {
        buckets[shard_of(digest(&item), n)].push(item);
    }
    buckets.into_iter().enumerate()
}

/// Drive a distributed exploration over established worker connections.
///
/// `children` are the worker processes (killed and reaped on exit —
/// by the time this returns, no zombies remain). The root frame is
/// routed to its owning shard unless `cfg.resume` seeds the workers
/// from a checkpoint instead. All failures degrade to a truncated
/// outcome with [`ExplorationStats::store_error`] set — this function
/// never panics on transport errors and never returns a partial result
/// labelled conclusive.
pub fn coordinate(
    conns: Vec<TcpStream>,
    mut children: Vec<Child>,
    root: Frame,
    ctx: &CodecCtx,
    mut cfg: CoordinatorConfig<'_>,
) -> DistribOutcome {
    let n = conns.len();
    assert!(n >= 1, "at least one worker");
    let (tx, rx) = mpsc::channel::<(usize, Result<Msg, String>)>();
    let mut links: Vec<Link> = Vec::with_capacity(n);
    for (i, sock) in conns.into_iter().enumerate() {
        if let Ok(rd) = sock.try_clone() {
            let tx = tx.clone();
            // The reason string reaches `store_error`, so "sequence
            // gap" and "dead-peer timeout" read differently from a
            // plain crash.
            spawn_reader(rd, move |msg| {
                tx.send((i, msg.map_err(|e| link_error(&e)))).is_ok()
            });
        }
        links.push(Link::new(sock));
    }
    drop(tx);

    let journal_dir = if cfg.checkpoint.is_some() {
        cfg.journal_dir.clone()
    } else {
        None
    };
    let mut st = Coordinator::new(links, journal_dir, cfg.net);

    // Seed the frontier: checkpoint resume or the root frame.
    match cfg.resume.take() {
        Some(ck) => st.seed_resume(ck),
        None => {
            let digest = root.state.digest();
            let rec = FrameRecord {
                digest,
                bytes: encode_frame(ctx, &root),
            };
            st.send_batch(shard_of(digest, n), false, vec![rec]);
        }
    }

    // Event-driven main loop: sleep until the next message or the next
    // scheduled duty (heartbeat, probe, deadline, wind-down bound) —
    // an idle coordinator no longer spins on a 2 ms poll.
    let mut last_activity = Instant::now();
    loop {
        if st.done() {
            break;
        }
        let now = Instant::now();
        st.heartbeat_links(now);
        if let Some(d) = cfg.limits.deadline {
            if !st.stopping && now >= d {
                st.stop(cfg.checkpoint.is_some());
            }
        }
        if st.stopping {
            if let Some(t0) = st.wind_down {
                if t0.elapsed() > WIND_DOWN_GRACE {
                    // Stragglers are hung or dead; stop waiting.
                    for link in &mut st.links {
                        if link.result.is_none() {
                            link.gone = true;
                            st.died = true;
                        }
                    }
                    if st.died {
                        st.death_reason.get_or_insert_with(|| {
                            "worker never reported after stop (wind-down expired)".to_string()
                        });
                    }
                    break;
                }
            }
        } else if !st.probe.active() && last_activity.elapsed() >= st.probe.pace {
            st.start_probe();
        }
        let wait = st.next_wait(now, cfg.limits, last_activity);
        match rx.recv_timeout(wait) {
            Ok((w, Ok(msg))) => {
                last_activity = Instant::now();
                st.handle(w, msg, cfg.limits);
            }
            Ok((w, Err(reason))) => st.handle_lost(w, &reason),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // All reader threads exited; link errors were delivered
                // first.
                break;
            }
        }
    }

    // Reap every worker: normally they have already exited after their
    // Result; kill covers hung or fault-injected stragglers.
    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }

    st.finish(&cfg)
}

struct Coordinator {
    links: Vec<Link>,
    /// Frames caught mid-relay after the stop broadcast: no worker will
    /// consume them, so they go into the checkpoint's pending list.
    orphans: Vec<FrameRecord>,
    stopping: bool,
    want_dump: bool,
    died: bool,
    /// Why the first lost worker was declared dead (for `store_error`).
    death_reason: Option<String>,
    truncated: bool,
    probe: ProbeTracker,
    /// When the stop/finish broadcast went out (bounds the wait for
    /// Results).
    wind_down: Option<Instant>,
    /// Stats/finals carried in from a resumed checkpoint.
    base_stats: ExplorationStats,
    base_finals: BTreeSet<FinalState>,
    /// Where per-shard relay journals live (`None`: journaling off).
    journal_dir: Option<PathBuf>,
    /// All journal appends so far succeeded; once false, a death
    /// checkpoint is off the table (it would silently drop frames).
    journal_ok: bool,
    net: NetParams,
    /// Last keepalive broadcast (workers detect a dead *coordinator*
    /// by the same silence rule).
    last_heartbeat: Instant,
}

impl Coordinator {
    fn new(links: Vec<Link>, journal_dir: Option<PathBuf>, net: NetParams) -> Self {
        Coordinator {
            links,
            orphans: Vec::new(),
            stopping: false,
            want_dump: false,
            died: false,
            death_reason: None,
            truncated: false,
            probe: ProbeTracker::new(),
            wind_down: None,
            base_stats: ExplorationStats::default(),
            base_finals: BTreeSet::new(),
            journal_dir,
            journal_ok: true,
            net,
            last_heartbeat: Instant::now(),
        }
    }

    fn n(&self) -> usize {
        self.links.len()
    }

    /// Every worker accounted for: Result received or socket gone.
    fn done(&self) -> bool {
        self.links.iter().all(|l| l.result.is_some() || l.gone)
    }

    /// Send to one worker; a failed send means the worker is dead
    /// (handled like a lost link).
    fn send(&mut self, w: usize, msg: &Msg) {
        if self.links[w].gone {
            return;
        }
        let link = &mut self.links[w];
        if let Err(e) = send_msg(&mut link.tx, &mut link.sock, msg) {
            self.handle_lost(w, &link_error(&e));
        } else {
            self.last_heartbeat = Instant::now();
        }
    }

    /// Broadcast a heartbeat when nothing else has been written for a
    /// heartbeat period, so idle-but-healthy links never trip a
    /// worker's dead-peer timeout.
    fn heartbeat_links(&mut self, now: Instant) {
        if now.duration_since(self.last_heartbeat) < self.net.heartbeat {
            return;
        }
        self.last_heartbeat = now;
        for w in 0..self.n() {
            if self.links[w].result.is_none() && !self.links[w].gone {
                self.send(w, &Msg::Heartbeat);
            }
        }
    }

    /// How long the main loop may sleep: until the next heartbeat, the
    /// next probe opportunity, the deadline, or the wind-down bound —
    /// whichever is soonest (clamped to [1 ms, heartbeat]).
    fn next_wait(&self, now: Instant, limits: &ExploreLimits, last_activity: Instant) -> Duration {
        let mut wait = self.net.heartbeat;
        if !self.stopping && !self.probe.active() {
            let probe_in = self
                .probe
                .pace
                .saturating_sub(now.duration_since(last_activity));
            wait = wait.min(probe_in);
        }
        if let Some(d) = limits.deadline {
            if !self.stopping {
                wait = wait.min(d.saturating_duration_since(now));
            }
        }
        if let Some(t0) = self.wind_down {
            let grace_end = t0 + WIND_DOWN_GRACE;
            wait = wait.min(grace_end.saturating_duration_since(now));
        }
        wait.max(Duration::from_millis(1))
    }

    /// Append `frames` to shard `dest`'s relay journal (when journaling
    /// is on). Called *before* the send: frames black-holed by a dying
    /// link must still be recoverable from the journal.
    fn journal_frames(&mut self, dest: usize, frames: &[FrameRecord]) {
        let Some(dir) = &self.journal_dir else {
            return;
        };
        if !self.journal_ok {
            return;
        }
        let link = &mut self.links[dest];
        let mut append = || -> io::Result<()> {
            if link.journal.is_none() {
                let path = dir.join(format!("journal-{dest}.bin"));
                link.journal = Some(BufWriter::new(File::create(&path)?));
                link.journal_path = Some(path);
            }
            let j = link.journal.as_mut().expect("journal just created");
            for rec in frames {
                let mut w = Writer::new();
                encode_frame_record(&mut w, rec);
                framed::write_blob(j, &w.into_bytes())?;
            }
            Ok(())
        };
        if append().is_err() {
            // Journaling failed (disk full?): a death checkpoint would
            // now silently drop frames, so disable it. Graceful-stop
            // checkpoints (built from worker dumps) are unaffected.
            self.journal_ok = false;
        }
    }

    /// Read shard `w`'s journal back as frame records.
    fn replay_journal(&mut self, w: usize) -> io::Result<Vec<FrameRecord>> {
        let link = &mut self.links[w];
        if let Some(j) = &mut link.journal {
            j.flush()?;
        }
        let Some(path) = &link.journal_path else {
            // No journal file: nothing was ever forwarded to this shard.
            return Ok(Vec::new());
        };
        let mut rd = BufReader::new(File::open(path)?);
        let mut out = Vec::new();
        while let Some(blob) = framed::read_blob(&mut rd, MAX_BLOB, |_| false)? {
            let rec =
                decode_frame_record(&mut Reader::new(&blob)).map_err(|e| decode_failed(&e))?;
            out.push(rec);
        }
        Ok(out)
    }

    /// Forward a frame batch to its owner, counting it against the
    /// probe invariant and journaling it for death recovery.
    fn send_batch(&mut self, dest: usize, preadmitted: bool, frames: Vec<FrameRecord>) {
        if frames.is_empty() {
            return;
        }
        self.journal_frames(dest, &frames);
        self.links[dest].r_out += frames.len() as u64;
        self.send(
            dest,
            &Msg::Batch {
                preadmitted,
                frames,
            },
        );
    }

    /// Seed workers from a checkpoint: visited entries and preadmitted
    /// frontier frames go to their owners; pending candidates re-enter
    /// through normal admission.
    fn seed_resume(&mut self, ck: Checkpoint) {
        let n = self.n();
        self.base_stats = ck.stats;
        // The resumed run decides truncation afresh.
        self.base_stats.truncated = false;
        self.base_stats.store_error = None;
        self.base_finals = ck.finals;
        for (w, entries) in by_owner(ck.visited, n, |&d| d) {
            for chunk in entries.chunks(SEED_BATCH) {
                self.send(
                    w,
                    &Msg::SeedVisited {
                        entries: chunk.to_vec(),
                    },
                );
            }
        }
        for (preadmitted, recs) in [(true, ck.frontier), (false, ck.pending)] {
            for (w, recs) in by_owner(recs, n, |r| r.digest) {
                for chunk in recs.chunks(ROUTE_BATCH) {
                    self.send_batch(w, preadmitted, chunk.to_vec());
                }
            }
        }
    }

    /// Broadcast Stop: budget/deadline ran out, or a worker failed.
    fn stop(&mut self, dump: bool) {
        if self.stopping {
            return;
        }
        self.stopping = true;
        self.want_dump = dump;
        self.truncated = true;
        self.probe.cancel();
        self.wind_down = Some(Instant::now());
        for w in 0..self.n() {
            self.send(w, &Msg::Stop { dump });
        }
    }

    /// Broadcast Finish: quiescence confirmed.
    fn finish_all(&mut self) {
        self.stopping = true;
        self.want_dump = false;
        self.probe.cancel();
        self.wind_down = Some(Instant::now());
        for w in 0..self.n() {
            self.send(w, &Msg::Finish);
        }
    }

    /// Whether a worker-death checkpoint is possible: journaling was
    /// requested and every append so far succeeded.
    fn can_death_checkpoint(&self) -> bool {
        self.journal_dir.is_some() && self.journal_ok
    }

    fn start_probe(&mut self) {
        let round = self.probe.start(self.n());
        for w in 0..self.n() {
            self.send(w, &Msg::Probe { round });
        }
    }

    /// Total expansions heard of, for budget enforcement.
    fn total_expanded(&self) -> usize {
        self.base_stats.states
            + self
                .links
                .iter()
                .map(|l| l.expanded as usize)
                .sum::<usize>()
    }

    fn note_progress(&mut self, limits: &ExploreLimits) {
        if !self.stopping && self.total_expanded() > limits.max_states {
            self.stop(true);
        }
    }

    fn handle(&mut self, w: usize, msg: Msg, limits: &ExploreLimits) {
        match msg {
            Msg::Route { dest, frames } => {
                if self.stopping {
                    // No worker will consume these; preserve them for
                    // the checkpoint's pending list.
                    self.orphans.extend(frames);
                } else if dest >= self.n() {
                    // Re-homing the frames onto some shard that does not
                    // own them would admit states twice and drift the
                    // counts with no error: fail the link instead.
                    let n = self.n();
                    self.handle_lost(
                        w,
                        &format!("protocol violation: Route to shard {dest} of {n}"),
                    );
                } else {
                    self.probe.on_relay();
                    self.send_batch(dest, false, frames);
                }
            }
            Msg::Beat { expanded } => {
                self.links[w].expanded = self.links[w].expanded.max(expanded);
                self.note_progress(limits);
            }
            Msg::Heartbeat => {
                // Keepalive: the read itself already reset the
                // dead-peer deadline.
            }
            Msg::ProbeReply {
                round,
                idle,
                received,
                expanded,
            } => {
                self.links[w].expanded = self.links[w].expanded.max(expanded);
                self.note_progress(limits);
                if self.stopping {
                    return;
                }
                let r_out: Vec<u64> = self.links.iter().map(|l| l.r_out).collect();
                match self.probe.on_reply(w, round, idle, received, &r_out) {
                    ProbeVerdict::Quiesced => self.finish_all(),
                    ProbeVerdict::CleanUnconfirmed => self.start_probe(),
                    ProbeVerdict::Pending | ProbeVerdict::NotClean => {}
                }
            }
            Msg::Result(res) => {
                self.links[w].expanded = self.links[w].expanded.max(res.stats.states as u64);
                let unsolicited = !self.stopping;
                if res.stats.truncated {
                    self.truncated = true;
                }
                self.links[w].result = Some(*res);
                if unsolicited {
                    // A worker bailed on its own (store failure): stop
                    // the rest, dumping them if a death checkpoint is
                    // possible (the bailed worker's frontier comes back
                    // from its relay journal).
                    self.stop(self.can_death_checkpoint());
                }
            }
            // Coordinator→worker messages never arrive here; ignore
            // rather than kill the run.
            Msg::Batch { .. }
            | Msg::SeedVisited { .. }
            | Msg::Probe { .. }
            | Msg::Stop { .. }
            | Msg::Finish => {}
        }
    }

    /// A link failed: EOF, reset, sequence gap, or dead-peer timeout.
    /// Normal after the worker's Result (it exits after sending);
    /// before one it means the worker is lost — degrade gracefully:
    /// truncated, never silent, and *attempt* a checkpoint (survivors
    /// dump; the lost shard is rebuilt from its relay journal).
    fn handle_lost(&mut self, w: usize, reason: &str) {
        if self.links[w].gone {
            return;
        }
        self.links[w].gone = true;
        if self.links[w].result.is_none() {
            self.died = true;
            self.truncated = true;
            self.death_reason
                .get_or_insert_with(|| format!("distributed worker {w} lost: {reason}"));
            self.stop(self.can_death_checkpoint());
        }
    }

    /// Merge results, write/delete the checkpoint, build the outcome.
    fn finish(mut self, cfg: &CoordinatorConfig<'_>) -> DistribOutcome {
        let mut stats = self.base_stats.clone();
        let mut finals = std::mem::take(&mut self.base_finals);
        for res in self.links.iter_mut().filter_map(|l| l.result.as_mut()) {
            stats.states += res.stats.states;
            stats.transitions += res.stats.transitions;
            stats.final_hits += res.stats.final_hits;
            stats.resident_peak = stats.resident_peak.max(res.stats.resident_peak);
            stats.spilled_states += res.stats.spilled_states;
            stats.bounded |= res.stats.bounded;
            if stats.store_error.is_none() {
                stats.store_error = res.stats.store_error.clone();
            }
            finals.append(&mut res.finals);
            // The dump's frontier/visited stay with the link: they are
            // merged below only if a checkpoint is written.
            if let Some(dump) = &mut res.dump {
                self.orphans.append(&mut dump.pending);
            }
        }
        stats.truncated = self.truncated;
        if self.died && stats.store_error.is_none() {
            stats.store_error = Some(
                self.death_reason
                    .clone()
                    .unwrap_or_else(|| "distributed worker died mid-exploration".to_string()),
            );
        }

        let mut checkpoint_written = false;
        if let Some(path) = cfg.checkpoint {
            if self.truncated && self.want_dump {
                // Assemble the checkpoint: dumped links contribute
                // their visited set and frontier directly; a link that
                // never dumped (it died, or hung past wind-down) has
                // its visited set *dropped* and its relay journal
                // replayed into the pending list — the resumed run
                // re-derives every state the lost shard had discovered
                // from those entry points, so finals stay exact.
                let mut ck = Checkpoint {
                    job_digest: cfg.job_digest,
                    stats: stats.clone(),
                    finals: finals.clone(),
                    visited: Vec::new(),
                    frontier: Vec::new(),
                    pending: std::mem::take(&mut self.orphans),
                };
                let mut assembled = true;
                for w in 0..self.n() {
                    let dump = self.links[w].result.as_mut().and_then(|r| r.dump.take());
                    if let Some(dump) = dump {
                        ck.visited.extend(dump.visited);
                        ck.frontier.extend(dump.frontier);
                    } else if !self.can_death_checkpoint() {
                        // No journal (or an append failed): replaying a
                        // missing/partial journal would silently drop
                        // frames, so refuse the checkpoint.
                        assembled = false;
                    } else {
                        match self.replay_journal(w) {
                            Ok(recs) => ck.pending.extend(recs),
                            Err(e) => {
                                assembled = false;
                                if stats.store_error.is_none() {
                                    stats.store_error = Some(format!("journal replay failed: {e}"));
                                }
                            }
                        }
                    }
                }
                if assembled {
                    match save_checkpoint(path, &ck) {
                        Ok(()) => checkpoint_written = true,
                        Err(e) => {
                            if stats.store_error.is_none() {
                                stats.store_error = Some(format!("checkpoint write failed: {e}"));
                            }
                        }
                    }
                }
            } else if !self.truncated {
                // Completed: a stale pause file must not resurrect on
                // the next run.
                let _ = std::fs::remove_file(path);
            }
        }

        DistribOutcome {
            outcomes: Outcomes {
                finals,
                stats,
                // The coordinator relays records; it never opens one.
                codec_memo: MemoStats::default(),
                // Nor expands a state: the workers' memos stay theirs.
                succ_memo: SuccMemoStats::default(),
            },
            worker_died: self.died,
            checkpoint_written,
            relayed_frames: self.links.iter().map(|l| l.r_out).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::loopback_pair;

    /// A wire-supplied `Route { dest }` outside `0..n` is a protocol
    /// violation that loses the sending link (truncated + `store_error`)
    /// — it must never be clamped onto a shard that does not own the
    /// frames.
    #[test]
    fn route_to_unknown_shard_fails_the_link_instead_of_rehoming() {
        let (socks, _peers): (Vec<_>, Vec<_>) = (0..2)
            .map(|_| loopback_pair().expect("loopback pair"))
            .unzip();
        let links = socks.into_iter().map(Link::new).collect();
        let mut st = Coordinator::new(links, None, NetParams::default());
        let frames = vec![FrameRecord {
            digest: u64::MAX,
            bytes: vec![1, 2, 3],
        }];
        st.handle(0, Msg::Route { dest: 2, frames }, &ExploreLimits::default());
        assert_eq!(st.links[1].r_out, 0, "nothing re-homed onto the last shard");
        assert!(st.links[0].gone && st.died && st.stopping);
        let out = st.finish(&CoordinatorConfig {
            limits: &ExploreLimits::default(),
            checkpoint: None,
            job_digest: 0,
            resume: None,
            net: NetParams::default(),
            journal_dir: None,
        });
        assert!(out.outcomes.stats.truncated);
        let why = out.outcomes.stats.store_error.expect("store_error set");
        assert!(why.contains("Route to shard 2 of 2"), "{why}");
    }
}
