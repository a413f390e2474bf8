use super::msg::{
    decode_msg, encode_msg, recv_msg, send_msg, FrameRecord, Msg, WorkerDump, WorkerResult,
    MAX_BLOB,
};
use super::probe::{ProbeTracker, ProbeVerdict, PROBE_PACE, PROBE_PACE_CAP};
use super::worker::{SentTable, SENT_SLOTS};
use super::{
    decode_params, encode_params, load_checkpoint, run_worker, save_checkpoint, shard_of,
    Checkpoint, WorkerEnv,
};
use crate::net::{loopback_pair, NetParams};
use crate::oracle::{ExplorationStats, Frame};
use crate::state_codec::{encode_transition, CodecCtx};
use crate::store::{decode_frame, encode_frame};
use crate::system::{SystemState, Transition};
use crate::tests::sb_system;
use crate::thread::ThreadTransition;
use crate::types::ModelParams;
use ppc_bits::framed::{Receiver, Sender};
use ppc_bits::{Prng, Reader, Writer};
use std::collections::{BTreeSet, HashSet};
use std::net::TcpStream;

/// Prefix routing must cover `0..n` and be monotone in the digest.
#[test]
fn shard_of_is_a_partition() {
    for n in 1..=7 {
        assert_eq!(shard_of(0, n), 0);
        assert_eq!(shard_of(u64::MAX, n), n - 1);
        let mut last = 0;
        for i in 0..1000u64 {
            let d = i << 54; // walk the top bits
            let s = shard_of(d, n);
            assert!(s < n);
            assert!(s >= last, "monotone in the prefix");
            last = s;
        }
    }
}

/// The message codec round-trips every variant.
#[test]
fn msg_codec_round_trips() {
    let rec = FrameRecord {
        digest: 0xDEAD_BEEF_0BAD_F00D,
        bytes: vec![1, 2, 3, 4, 5],
    };
    let msgs = vec![
        Msg::Batch {
            preadmitted: true,
            frames: vec![rec.clone(), rec.clone()],
        },
        Msg::SeedVisited {
            entries: vec![42, 7],
        },
        Msg::Probe { round: 7 },
        Msg::Stop { dump: true },
        Msg::Finish,
        Msg::Route {
            dest: 3,
            frames: vec![rec],
        },
        Msg::ProbeReply {
            round: 7,
            idle: true,
            received: 123,
            expanded: 456,
        },
        Msg::Beat { expanded: 99 },
        Msg::Heartbeat,
        Msg::Result(Box::new(WorkerResult {
            stats: ExplorationStats {
                states: 10,
                transitions: 20,
                final_hits: 3,
                truncated: true,
                resident_peak: 5,
                spilled_states: 2,
                bounded: false,
                store_error: Some("disk full".to_string()),
            },
            finals: BTreeSet::new(),
            dump: Some(WorkerDump::default()),
        })),
    ];
    for msg in msgs {
        let (tag, body) = encode_msg(&msg);
        let back = decode_msg(tag, &body).expect("round trip");
        assert_eq!(encode_msg(&back), (tag, body), "re-encode is stable");
    }
}

/// The sequence-numbered envelope round-trips and detects gaps.
#[test]
fn seq_envelope_detects_dropped_frames() {
    let mut buf = Vec::new();
    let mut tx = Sender::new(MAX_BLOB);
    send_msg(&mut tx, &mut buf, &Msg::Probe { round: 1 }).unwrap();
    // Simulate a dropped frame: burn the sequence number.
    tx.skip();
    send_msg(&mut tx, &mut buf, &Msg::Probe { round: 2 }).unwrap();
    let mut rd = buf.as_slice();
    let mut rx = Receiver::new(MAX_BLOB);
    assert!(matches!(
        recv_msg(&mut rx, &mut rd).unwrap(),
        Msg::Probe { round: 1 }
    ));
    let err = recv_msg(&mut rx, &mut rd).unwrap_err();
    assert!(
        err.to_string().contains("sequence gap"),
        "gap must be loud: {err}"
    );
}

/// The committed wire bytes of one message: a refactor of the framer or
/// the body codec must reproduce them exactly. Torn and oversized
/// frames are link errors, never messages.
#[test]
fn golden_probe_reply_bytes_and_torn_frames() {
    let reply = Msg::ProbeReply {
        round: 7,
        idle: true,
        received: 123,
        expanded: 456,
    };
    // Three keepalives first, so the golden frame carries `seq = 3`.
    let mut tx = Sender::new(MAX_BLOB);
    let mut wire = Vec::new();
    for _ in 0..3 {
        send_msg(&mut tx, &mut wire, &Msg::Heartbeat).unwrap();
    }
    let golden_at = wire.len();
    send_msg(&mut tx, &mut wire, &reply).unwrap();
    let hex: String = wire[golden_at..]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, "0e00000003000000000000000707017bc803");

    // The fourth message of `bytes`, through the sequence-checking reader.
    let fourth = |mut bytes: &[u8]| {
        let mut rx = Receiver::new(MAX_BLOB);
        for _ in 0..3 {
            recv_msg(&mut rx, &mut bytes).unwrap();
        }
        recv_msg(&mut rx, &mut bytes)
    };
    assert!(matches!(
        fourth(&wire).unwrap(),
        Msg::ProbeReply {
            round: 7,
            idle: true,
            received: 123,
            expanded: 456
        }
    ));
    assert!(fourth(&wire[..golden_at + 2]).is_err(), "torn header");
    assert!(fourth(&wire[..wire.len() - 1]).is_err(), "torn body");
    assert!(fourth(&wire[..golden_at]).is_err(), "EOF is a lost link");
    let mut oversized = wire[..golden_at].to_vec();
    oversized.extend((u32::try_from(MAX_BLOB).unwrap() + 1).to_le_bytes());
    assert!(fourth(&oversized).is_err(), "over MAX_BLOB");
}

/// A probe round completes only with replies from its own epoch: a
/// stale "idle" reply from an earlier round — one that sat in a
/// slow pipe while new work was relayed — can never complete the
/// current round, so it can never terminate the run early.
#[test]
fn stale_probe_reply_cannot_complete_a_round() {
    let mut t = ProbeTracker::new();
    let r_out = [5u64, 7u64];
    let round1 = t.start(2);
    assert_eq!(round1, 1);
    // Worker 0 replies idle to round 1; then a relay dirties it.
    assert_eq!(
        t.on_reply(0, round1, true, r_out[0], &r_out),
        ProbeVerdict::Pending
    );
    t.on_relay();
    assert_eq!(
        t.on_reply(1, round1, true, r_out[1], &r_out),
        ProbeVerdict::NotClean,
        "relay during the round keeps it dirty"
    );
    // New round. Worker 0's *duplicate/stale* round-1 idle reply
    // arrives late: it must be ignored, not complete round 2.
    let round2 = t.start(2);
    assert_eq!(
        t.on_reply(0, round1, true, r_out[0], &r_out),
        ProbeVerdict::Pending,
        "stale epoch ignored"
    );
    assert_eq!(
        t.on_reply(1, round2, true, r_out[1], &r_out),
        ProbeVerdict::Pending,
        "round 2 still lacks worker 0's round-2 reply"
    );
    // Worker 0 is actually busy now.
    assert_eq!(
        t.on_reply(0, round2, false, r_out[0], &r_out),
        ProbeVerdict::NotClean
    );
}

/// An in-flight frame (received < r_out) blocks a clean round even
/// when every worker claims idle.
#[test]
fn in_flight_frame_blocks_clean_round() {
    let mut t = ProbeTracker::new();
    let r_out = [10u64, 10u64];
    let round = t.start(2);
    assert_eq!(
        t.on_reply(0, round, true, 10, &r_out),
        ProbeVerdict::Pending
    );
    assert_eq!(
        t.on_reply(1, round, true, 9, &r_out),
        ProbeVerdict::NotClean,
        "worker 1 has not consumed everything sent to it"
    );
}

/// Two consecutive clean rounds quiesce; one does not.
#[test]
fn quiescence_needs_two_consecutive_clean_rounds() {
    let mut t = ProbeTracker::new();
    let r_out = [3u64];
    let round = t.start(1);
    assert_eq!(
        t.on_reply(0, round, true, 3, &r_out),
        ProbeVerdict::CleanUnconfirmed
    );
    let round = t.start(1);
    assert_eq!(
        t.on_reply(0, round, true, 3, &r_out),
        ProbeVerdict::Quiesced
    );
    // And a dirty round in between resets the streak.
    let mut t = ProbeTracker::new();
    let round = t.start(1);
    assert_eq!(
        t.on_reply(0, round, true, 3, &r_out),
        ProbeVerdict::CleanUnconfirmed
    );
    let round = t.start(1);
    t.on_relay();
    assert_eq!(
        t.on_reply(0, round, true, 3, &r_out),
        ProbeVerdict::NotClean
    );
    let round = t.start(1);
    assert_eq!(
        t.on_reply(0, round, true, 3, &r_out),
        ProbeVerdict::CleanUnconfirmed,
        "streak restarted from zero"
    );
}

/// The adaptive pace backs off on non-clean rounds and resets on
/// relays.
#[test]
fn probe_pace_adapts() {
    let mut t = ProbeTracker::new();
    assert_eq!(t.pace, PROBE_PACE);
    let r_out = [1u64];
    for _ in 0..10 {
        let round = t.start(1);
        let _ = t.on_reply(0, round, false, 1, &r_out);
    }
    assert_eq!(t.pace, PROBE_PACE_CAP, "backed off to the cap");
    t.on_relay();
    assert_eq!(t.pace, PROBE_PACE, "relay resets the pace");
}

/// Params codec round-trips (job shipping depends on it).
#[test]
fn params_codec_round_trips() {
    let p = ModelParams {
        max_instances_per_thread: 7,
        coherence_commitments: true,
        allow_spurious_stcx_failure: false,
        threads: 3,
        max_states: 12345,
        max_resident_states: 64,
        reduced: true,
        max_context_switches: 5,
    };
    let mut w = Writer::new();
    encode_params(&mut w, &p);
    let bytes = w.into_bytes();
    let back = decode_params(&mut Reader::new(&bytes)).expect("decode");
    assert_eq!(back, p);
}

/// The sent-table against a `HashSet` model of everything ever given to
/// it, on a table small enough that most inserts evict: it may forget
/// (a re-send), it must never claim a digest it was not given (a state
/// silently lost), and digest 0 — the empty-slot marker — is never
/// claimed at all.
#[test]
fn sent_table_forgets_but_never_invents() {
    let mut rng = Prng::seed_from_u64(0x5E27_7AB1_E000_0001);
    let mut table = SentTable::new(16);
    let mut given: HashSet<u64> = HashSet::new();
    // A pool of 64 digests over 16 slots: repeats and collisions both
    // happen constantly. Digest 0 is in the pool.
    let pool: Vec<u64> = (0..64u64)
        .map(|i| if i == 0 { 0 } else { rng.next_u64() })
        .collect();
    let (mut claimed, mut forgotten) = (0u32, 0u32);
    for _ in 0..10_000 {
        let d = pool[rng.gen_range(0..pool.len())];
        let seen = table.check_and_insert(d);
        if seen {
            assert!(given.contains(&d), "claimed never-sent digest {d:#x}");
            assert_ne!(d, 0, "digest 0 is indistinguishable from an empty slot");
            claimed += 1;
        } else if !given.insert(d) {
            forgotten += 1;
        }
    }
    assert!(claimed > 0, "an un-evicted digest is remembered");
    assert!(forgotten > 0, "the run exercised eviction");

    // The eviction case spelled out: two digests sharing a slot.
    let mut table = SentTable::new(16);
    let (a, b) = (0xA0, 0xB0);
    assert!(!table.check_and_insert(a), "first sight of a");
    assert!(table.check_and_insert(a), "a remembered");
    assert!(!table.check_and_insert(b), "first sight of b, evicting a");
    assert!(
        !table.check_and_insert(a),
        "a was forgotten: it is sent again"
    );
    assert!(!table.check_and_insert(0) && !table.check_and_insert(0));
}

/// The coordinator's end of one worker link, driven by hand: a
/// [`run_worker`] thread on the other end of a loopback link, exploring
/// SB (`initial`) as the shard that owns the root.
struct ScriptedLink {
    sock: TcpStream,
    tx: Sender,
    rx: Receiver,
    worker: std::thread::JoinHandle<std::io::Result<()>>,
    /// The root frame's record.
    root: FrameRecord,
    /// Every record the worker has routed so far, in order.
    routed: Vec<FrameRecord>,
    probes: u64,
}

impl ScriptedLink {
    fn start(initial: SystemState) -> ScriptedLink {
        let ctx = CodecCtx::new(initial.program.clone(), initial.params.clone());
        let root = FrameRecord {
            digest: initial.digest(),
            bytes: encode_frame(&ctx, &Frame::root(initial.clone())),
        };
        let shard = shard_of(root.digest, 2);
        let (ours, theirs) = loopback_pair().expect("loopback pair");
        // A worker thread that panics leaves its reader's end of the
        // pair open: fail the test instead of waiting forever.
        ours.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout");
        let worker = std::thread::spawn(move || {
            let env = WorkerEnv {
                shard,
                n_shards: 2,
                initial: &initial,
                reg_obs: &[],
                mem_obs: &[],
            };
            run_worker(theirs, &env, &NetParams::default())
        });
        let mut link = ScriptedLink {
            sock: ours,
            tx: Sender::new(MAX_BLOB),
            rx: Receiver::new(MAX_BLOB),
            worker,
            root: root.clone(),
            routed: Vec::new(),
            probes: 0,
        };
        link.send(&Msg::Batch {
            preadmitted: false,
            frames: vec![root],
        });
        link
    }

    fn send(&mut self, msg: &Msg) {
        send_msg(&mut self.tx, &mut self.sock, msg).expect("send to worker");
    }

    /// The worker's next message that is not a keepalive or a progress
    /// beat; Route frames are logged on the way.
    fn next(&mut self) -> Msg {
        loop {
            match recv_msg(&mut self.rx, &mut self.sock).expect("worker link") {
                Msg::Heartbeat | Msg::Beat { .. } => {}
                Msg::Route { dest, frames } => {
                    assert_ne!(dest, shard_of(self.root.digest, 2), "routed to itself");
                    self.routed.extend(frames);
                }
                other => return other,
            }
        }
    }

    /// Probe until the worker reports idle; `(received, expanded)`.
    fn settle(&mut self) -> (u64, u64) {
        loop {
            self.probes += 1;
            let round = self.probes;
            self.send(&Msg::Probe { round });
            match self.next() {
                Msg::ProbeReply {
                    round: r,
                    idle,
                    received,
                    expanded,
                } => {
                    assert_eq!(r, round);
                    if idle {
                        return (received, expanded);
                    }
                }
                other => panic!("expected a probe reply, got {other:?}"),
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Send `last`, take the worker's Result, and join it.
    fn finish(mut self, last: &Msg) -> WorkerResult {
        self.send(last);
        let Msg::Result(res) = self.next() else {
            panic!("expected the worker's Result");
        };
        self.worker
            .join()
            .expect("worker thread")
            .expect("worker exits cleanly");
        *res
    }
}

/// Dedup before codec, seen from the coordinator's chair: one worker
/// never routes a digest twice, and a record whose digest the shard has
/// already visited is dropped before its state bytes are looked at —
/// not expanded again, not even decoded — while still counting as
/// received, which is what the termination probe compares.
#[test]
fn worker_routes_each_digest_once_and_rejects_before_decoding() {
    let mut link = ScriptedLink::start(sb_system());
    let (received, expanded) = link.settle();
    assert_eq!(received, 1, "the root");
    assert!(expanded > 1, "the root's shard-local subtree was explored");
    assert!(
        link.routed.len() > 10,
        "SB crosses shards: {:?}",
        link.routed
    );
    // Replayed through a fresh table, the Route stream never hits: the
    // worker routed nothing its table still remembered. On SB no
    // eviction is followed by the evicted digest, so no digest repeats.
    let mut replay = SentTable::new(SENT_SLOTS);
    let digests = link.routed.iter().map(|rec| rec.digest);
    assert!(digests.clone().all(|d| !replay.check_and_insert(d)));
    let distinct: HashSet<u64> = digests.collect();
    assert_eq!(
        (distinct.len(), link.routed.len()),
        (321, 321),
        "a digest was routed twice by one worker"
    );
    // The worker encodes through one long-lived context whose memo is
    // warm for most of these; each record is still byte for byte what a
    // context that has seen nothing writes for the state it carries.
    let program = sb_system().program;
    let cold = || CodecCtx::new(program.clone(), ModelParams::default());
    for rec in &link.routed {
        let frame = decode_frame(&cold(), &rec.bytes).expect("routed record decodes");
        assert_eq!(frame.state.digest(), rec.digest);
        assert_eq!(encode_frame(&cold(), &frame), rec.bytes);
    }

    // The root again, verbatim, and once more with its state bytes
    // scrambled behind an intact prefix: both carry a visited digest.
    let mut scrambled = link.root.clone();
    let prefix = root_prefix(&scrambled);
    scrambled.bytes[prefix..].iter_mut().for_each(|b| *b = !*b);
    let frames = vec![link.root.clone(), scrambled];
    link.send(&Msg::Batch {
        preadmitted: false,
        frames,
    });
    assert_eq!(
        link.settle(),
        (3, expanded),
        "rejected records count as received and expand nothing"
    );
    let routed = link.routed.len();
    let res = link.finish(&Msg::Finish);
    assert!(!res.stats.truncated, "{:?}", res.stats.store_error);
    assert_eq!(res.stats.states as u64, expanded);
    assert_eq!(
        routed,
        distinct.len(),
        "nothing was routed after the replay"
    );
}

/// Admission before decode must not turn corruption into a smaller
/// state space: a record with a *fresh* digest is admitted, and when its
/// state bytes (or its prefix) then fail to decode the worker ends the
/// run truncated, naming the corrupt frame.
#[test]
fn corrupt_record_with_a_fresh_digest_truncates_the_run() {
    for scramble_prefix in [false, true] {
        let mut link = ScriptedLink::start(sb_system());
        link.settle();
        let mut bad = link.root.clone();
        bad.digest ^= 1;
        let from = if scramble_prefix {
            0
        } else {
            root_prefix(&bad)
        };
        bad.bytes[from..].iter_mut().for_each(|b| *b = !*b);
        let res = link.finish(&Msg::Batch {
            preadmitted: false,
            frames: vec![bad],
        });
        assert!(res.stats.truncated, "corruption must never be conclusive");
        let why = res.stats.store_error.expect("store_error set");
        assert!(why.contains("corrupt wire frame"), "{why}");
    }
}

/// The length of a root frame record's metadata prefix — switch count
/// 0, actor tag 0 and the two empty retired set slots, one zero byte
/// each — ahead of its state bytes.
fn root_prefix(rec: &FrameRecord) -> usize {
    assert_eq!(rec.bytes[..4], [0, 0, 0, 0], "a root record's metadata");
    4
}

/// A non-empty set in a retired slot: one encoded transition behind a
/// count of 1.
fn retired_set(w: &mut Writer) {
    w.usizev(1);
    encode_transition(
        w,
        &Transition::Thread(ThreadTransition::Finish { tid: 0, ioid: 0 }),
    );
}

/// A worker refuses an admitted wire record that carries a non-empty
/// set in either retired slot: the run ends truncated, naming the
/// corrupt frame — no panic, in debug or release.
#[test]
fn retired_set_wire_record_truncates_the_run() {
    let mut reduced = sb_system();
    reduced.params.reduced = true;
    for slot in 0..2 {
        let mut link = ScriptedLink::start(reduced.clone());
        link.settle();
        // The root's state bytes behind a fresh digest and a prefix
        // (no switches, no actor) with one slot filled.
        let state = &link.root.bytes[root_prefix(&link.root)..];
        let mut w = Writer::new();
        w.u64v(0);
        w.byte(0);
        for s in 0..2 {
            if s == slot {
                retired_set(&mut w);
            } else {
                w.usizev(0);
            }
        }
        w.bytes(state);
        let bad = FrameRecord {
            digest: link.root.digest ^ 1,
            bytes: w.into_bytes(),
        };
        let res = link.finish(&Msg::Batch {
            preadmitted: false,
            frames: vec![bad],
        });
        assert!(
            res.stats.truncated,
            "slot {slot}: corruption must never be conclusive"
        );
        let why = res.stats.store_error.expect("store_error set");
        assert!(why.contains("corrupt wire frame"), "{why}");
    }
}

/// A checkpoint whose visited entry carries a non-empty retired set is
/// refused at load, and so is a `SeedVisited` body with one: both go
/// through the one visited-entry decoder. The entries `save_checkpoint`
/// writes load back.
#[test]
fn retired_set_checkpoint_is_refused() {
    let path = std::env::temp_dir().join(format!("ppcmem-retired-ck-{}", std::process::id()));
    let checkpoint = Checkpoint {
        job_digest: 1,
        stats: ExplorationStats::default(),
        finals: BTreeSet::new(),
        visited: vec![9, 3],
        frontier: Vec::new(),
        pending: Vec::new(),
    };
    save_checkpoint(&path, &checkpoint).expect("write checkpoint");
    let loaded = load_checkpoint(&path).expect("empty slots load");
    assert_eq!(loaded.visited, checkpoint.visited);
    // The visited list is `[count][u64 digest][slot]...`; it sits right
    // before the two (empty) frame-record lists at the end of the file.
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let entry = |d: u64| [&d.to_le_bytes()[..], &[0]].concat();
    let list = [&[2][..], &entry(9), &entry(3), &[0, 0]].concat();
    assert!(bytes.ends_with(&list), "the visited list closes the file");
    let mut bad = bytes[..bytes.len() - list.len()].to_vec();
    let mut w = Writer::new();
    w.usizev(1);
    w.bytes(&9u64.to_le_bytes());
    retired_set(&mut w);
    let body = w.into_bytes();
    bad.extend_from_slice(&body);
    bad.extend_from_slice(&[0, 0]);
    std::fs::write(&path, &bad).expect("write checkpoint");
    assert!(load_checkpoint(&path).is_err(), "a non-empty slot loaded");
    // The same entry list as a `SeedVisited` body (tag 2).
    assert!(decode_msg(2, &body).is_err(), "a non-empty slot decoded");
    let (tag, body) = encode_msg(&Msg::SeedVisited {
        entries: checkpoint.visited,
    });
    assert!(decode_msg(tag, &body).is_ok(), "empty slots decode");
    let _ = std::fs::remove_file(&path);
}
