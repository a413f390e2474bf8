use super::msg::{
    decode_msg, encode_msg, recv_msg, send_msg, FrameRecord, Msg, VisitedEntry, WorkerDump,
    WorkerResult, MAX_BLOB,
};
use super::probe::{ProbeTracker, ProbeVerdict, PROBE_PACE, PROBE_PACE_CAP};
use super::{decode_params, encode_params, shard_of};
use crate::oracle::ExplorationStats;
use crate::types::ModelParams;
use ppc_bits::framed::{Receiver, Sender};
use ppc_bits::{Reader, Writer};
use std::collections::BTreeSet;

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
    let entry = VisitedEntry {
        digest: 42,
        sleep: Vec::new(),
    };
    let msgs = vec![
        Msg::Batch {
            preadmitted: true,
            frames: vec![rec.clone(), rec.clone()],
        },
        Msg::SeedVisited {
            entries: vec![entry],
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
        steal_batch: 9,
        max_resident_states: 64,
        sleep_sets: true,
        max_context_switches: 5,
    };
    let mut w = Writer::new();
    encode_params(&mut w, &p);
    let bytes = w.into_bytes();
    let back = decode_params(&mut Reader::new(&bytes)).expect("decode");
    assert_eq!(back, p);
}
