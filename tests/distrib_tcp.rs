//! Loopback-TCP differential and network-fault pinning of the
//! multi-machine transport (`crates/model/src/net.rs` +
//! `crates/model/src/distrib.rs`).
//!
//! The TCP transport carries the exact same seq-tagged frame protocol
//! as the Unix-socket path, so its acceptance bar is the same:
//! untruncated loopback-TCP runs must be **byte-identical**
//! (`Outcomes::finals` element-wise, plus visited-state / transition /
//! final-hit counts) to the sequential in-process engine — on a
//! library ladder, composed with spill stores / the reduction /
//! context bounding, through a checkpoint pause + resharded resume,
//! and on random programs from the shared fuzz generator.
//!
//! Robustness: every injected *lossy* network fault (dropped frame,
//! truncated frame, muted peer with stalled heartbeats, killed worker)
//! must end in a truncated result carrying a `store_error` and — with
//! a checkpoint configured — a *resumable* death checkpoint; never a
//! silent pass, never a hang (the mute test asserts wall-clock). Pure
//! *latency* faults (delayed frames, delayed probe replies) must be
//! absorbed: untruncated and byte-identical, pinning the probe-epoch
//! termination hardening end to end.
//!
//! Environment knobs: `DISTRIB_TCP_FUZZ_PROGRAMS` (default 4),
//! `DISTRIB_TCP_FUZZ_SEED`, `DISTRIB_TCP_FUZZ_BUDGET`, and
//! `DISTRIB_TCP_CHAOS_ITERS` (default 6) for the randomized fault
//! sweep.

mod common;

use common::{env_u64, gen_program};
use ppcmem::litmus::distrib::{outcomes_distributed, DistribConfig, WorkerLaunch};
use ppcmem::litmus::{build_system, library, observations, parse};
use ppcmem::model::net::FAULT_ENV;
use ppcmem::model::{explore_limited, ExploreLimits, ModelParams, Outcomes};
use std::time::Instant;

/// Worker re-exec entry point (same shim contract as
/// `tests/distrib_oracle.rs`): a no-op in a normal test run, the
/// worker main when the coordinator's TCP env var is set.
#[test]
fn distrib_worker_shim() {
    ppcmem::litmus::maybe_run_worker();
}

/// A config whose workers are this test binary re-executed, connected
/// over loopback TCP instead of a Unix socket.
fn tcfg(workers: usize) -> DistribConfig {
    DistribConfig {
        workers,
        worker_args: vec!["distrib_worker_shim".to_owned(), "--exact".to_owned()],
        launch: WorkerLaunch::TcpLoopback,
        ..DistribConfig::default()
    }
}

/// Sequential in-process reference with the same observation footprint
/// the distributed workers derive from the test's condition.
fn sequential_reference(source: &str, params: &ModelParams, limits: &ExploreLimits) -> Outcomes {
    let test = parse(source).expect("source parses");
    let (reg_obs, mem_obs) = observations(&test);
    let state = build_system(&test, params);
    explore_limited(
        &state,
        &reg_obs,
        &mem_obs,
        &ExploreLimits {
            threads: 1,
            ..limits.clone()
        },
    )
}

/// Byte-identity of a TCP-distributed run against the sequential
/// reference: finals element-wise, and every count.
fn assert_identical(name: &str, mode: &str, reference: &Outcomes, got: &Outcomes) {
    assert!(
        !got.stats.truncated,
        "{name} [{mode}]: truncated ({:?})",
        got.stats.store_error
    );
    assert_eq!(
        reference.stats.states, got.stats.states,
        "{name} [{mode}]: visited-state count diverged"
    );
    assert_eq!(
        reference.stats.transitions, got.stats.transitions,
        "{name} [{mode}]: transition count diverged"
    );
    assert_eq!(
        reference.stats.final_hits, got.stats.final_hits,
        "{name} [{mode}]: final-hit count diverged"
    );
    assert!(
        reference.finals == got.finals,
        "{name} [{mode}]: final states diverged ({} vs {})",
        reference.finals.len(),
        got.finals.len()
    );
}

fn library_source(name: &str) -> &'static str {
    library()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} in library"))
        .source
}

/// A ladder subset over loopback TCP, 2 and 3 shards, against the
/// sequential engine: byte-identical finals and counts (the tentpole's
/// clean-run acceptance bar; the full 30-test sweep runs in CI via
/// `conformance --distributed 2 --tcp`).
#[test]
fn tcp_matches_sequential_on_ladder() {
    let params = ModelParams::default();
    let limits = ExploreLimits::default();
    for name in ["CoRR", "MP", "SB", "2+2W", "WRC+pos"] {
        let source = library_source(name);
        let reference = sequential_reference(source, &params, &limits);
        assert!(!reference.stats.truncated, "{name}: reference truncated");
        for workers in [2usize, 3] {
            let got = outcomes_distributed(source, &params, &limits, &tcfg(workers));
            assert_identical(name, &format!("tcp-{workers}"), &reference, &got);
        }
    }
}

/// Composition: per-worker spill stores (`--max-resident`), the
/// eager-`Finish` reduction (`--reduced`: the unreduced finals, and the
/// sequential reduced engine's counts), and a context bound that must
/// surface as `bounded` — all over the TCP transport.
#[test]
fn tcp_composes_with_engine_features() {
    let limits = ExploreLimits::default();

    let source = library_source("2+2W");
    let reference = sequential_reference(source, &ModelParams::default(), &limits);
    let spill = ModelParams {
        max_resident_states: 16,
        ..ModelParams::default()
    };
    let got = outcomes_distributed(source, &spill, &limits, &tcfg(2));
    assert_identical("2+2W", "tcp-2+spill", &reference, &got);

    let source = library_source("MP+syncs");
    let reference = sequential_reference(source, &ModelParams::default(), &limits);
    let reduced = ModelParams {
        reduced: true,
        ..ModelParams::default()
    };
    let got = outcomes_distributed(source, &reduced, &limits, &tcfg(2));
    let reduced_reference = sequential_reference(source, &reduced, &limits);
    assert_identical("MP+syncs", "tcp-2+reduced", &reduced_reference, &got);
    assert!(
        reference.finals == got.finals,
        "MP+syncs: reduced TCP finals diverged ({} vs {})",
        reference.finals.len(),
        got.finals.len()
    );

    let source = library_source("MP");
    let bounded = ModelParams {
        max_context_switches: 1,
        ..ModelParams::default()
    };
    let got = outcomes_distributed(source, &bounded, &limits, &tcfg(2));
    assert!(!got.stats.truncated, "bounded TCP run truncated");
    assert!(
        got.stats.bounded,
        "a 1-switch bound on MP must suppress successors over TCP too"
    );
}

/// Checkpoint pause over TCP, resharded resume over TCP: byte-identical
/// to an uninterrupted sequential run, checkpoint deleted on
/// completion. The checkpoint format is transport-agnostic — the same
/// file would resume on Unix sockets.
#[test]
fn tcp_checkpoint_pause_resume_is_byte_identical() {
    let source = library_source("MP");
    let params = ModelParams::default();
    let full = ExploreLimits::default();
    let reference = sequential_reference(source, &params, &full);
    assert!(!reference.stats.truncated);

    let tmp = std::env::temp_dir().join(format!("ppcmem-tcp-ck-{}", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let mut cfg = tcfg(2);
    cfg.checkpoint = Some(tmp.clone());

    let paused = outcomes_distributed(
        source,
        &params,
        &ExploreLimits {
            max_states: 200,
            ..ExploreLimits::default()
        },
        &cfg,
    );
    assert!(paused.stats.truncated, "budget pause must truncate");
    assert!(tmp.exists(), "graceful pause must write the checkpoint");

    cfg.workers = 3;
    let resumed = outcomes_distributed(source, &params, &full, &cfg);
    assert_identical("MP", "tcp pause+resume", &reference, &resumed);
    assert!(
        !tmp.exists(),
        "an untruncated completion must delete the checkpoint"
    );
}

/// Random-program differential over a seed range disjoint from every
/// other fuzz suite: sequential vs 2-shard loopback TCP, byte for byte.
#[test]
fn tcp_fuzz_matches_sequential() {
    let programs = env_u64("DISTRIB_TCP_FUZZ_PROGRAMS", 4);
    let seed0 = env_u64("DISTRIB_TCP_FUZZ_SEED", 0x7C9_0D15_7AB1_E001);
    let budget = env_u64("DISTRIB_TCP_FUZZ_BUDGET", 60_000) as usize;
    let limits = ExploreLimits {
        max_states: budget,
        ..ExploreLimits::default()
    };
    let params = ModelParams::default();
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for i in 0..programs {
        let seed = seed0.wrapping_add(i);
        let prog = gen_program(seed);
        let reference = sequential_reference(&prog.source, &params, &limits);
        if reference.stats.truncated {
            skipped += 1;
            continue;
        }
        let got = outcomes_distributed(&prog.source, &params, &limits, &tcfg(2));
        assert_identical(
            &format!("seed {seed:#018x}\n{}", prog.source),
            "tcp-2",
            &reference,
            &got,
        );
        checked += 1;
    }
    assert!(
        checked > skipped,
        "fuzz coverage collapsed: {checked} checked vs {skipped} skipped"
    );
}

/// Run MP over 2 TCP shards with `fault` injected into shard 0, a
/// checkpoint configured, and (optionally) tightened liveness
/// tunables. Returns the degraded outcome plus the checkpoint path.
fn faulted_mp_run(
    fault: &str,
    heartbeat_ms: Option<u64>,
    peer_timeout_ms: Option<u64>,
    tag: &str,
) -> (Outcomes, DistribConfig, std::path::PathBuf) {
    let tmp = std::env::temp_dir().join(format!("ppcmem-tcp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let mut cfg = tcfg(2);
    cfg.checkpoint = Some(tmp.clone());
    cfg.worker_env = vec![(FAULT_ENV.to_owned(), fault.to_owned())];
    cfg.heartbeat_ms = heartbeat_ms;
    cfg.peer_timeout_ms = peer_timeout_ms;
    let got = outcomes_distributed(
        library_source("MP"),
        &ModelParams::default(),
        &ExploreLimits::default(),
        &cfg,
    );
    (got, cfg, tmp)
}

/// Assert the lossy-fault contract: truncated + `store_error`, a
/// resumable death checkpoint, and a fault-free resume completing to
/// the exact sequential final-state set.
fn assert_lossy_fault_degrades_then_resumes(what: &str, got: &Outcomes, mut cfg: DistribConfig) {
    assert!(got.stats.truncated, "{what}: lossy fault must truncate");
    let err = got
        .stats
        .store_error
        .as_deref()
        .unwrap_or_else(|| panic!("{what}: lossy fault must set store_error"));
    assert!(
        err.contains("lost") || err.contains("worker"),
        "{what}: unhelpful degradation report: {err}"
    );
    let ck = cfg.checkpoint.clone().expect("checkpoint configured");
    assert!(
        ck.exists(),
        "{what}: lossy fault must leave a resumable death checkpoint"
    );
    let reference = sequential_reference(
        library_source("MP"),
        &ModelParams::default(),
        &ExploreLimits::default(),
    );
    cfg.worker_env.clear();
    let resumed = outcomes_distributed(
        library_source("MP"),
        &ModelParams::default(),
        &ExploreLimits::default(),
        &cfg,
    );
    assert!(
        !resumed.stats.truncated,
        "{what}: resume must complete ({:?})",
        resumed.stats.store_error
    );
    // After a crash, counts may legitimately overcount re-expanded
    // states; the finals — the model's verdict — are the pin.
    assert!(
        reference.finals == resumed.finals,
        "{what}: finals after death-checkpoint resume diverged ({} vs {})",
        reference.finals.len(),
        resumed.finals.len()
    );
    assert!(
        !ck.exists(),
        "{what}: completion must delete the checkpoint"
    );
}

/// A dropped frame: the per-direction sequence numbers expose the gap
/// on the worker's next message, the link is declared lost, and the
/// run degrades to truncated + `store_error` with a resumable
/// checkpoint — never a silent pass with missing states.
#[test]
fn fault_dropped_frame_truncates_with_resumable_checkpoint() {
    let (got, cfg, _ck) = faulted_mp_run("drop-route:1", None, None, "drop");
    assert_lossy_fault_degrades_then_resumes("drop-route:1", &got, cfg);
}

/// A frame cut off mid-write (worker aborts halfway through a length-
/// prefixed frame — a crashed machine or severed link): the reader
/// sees a short read, the link is lost, the run degrades loudly and
/// resumably.
#[test]
fn fault_truncated_frame_truncates_with_resumable_checkpoint() {
    let (got, cfg, _ck) = faulted_mp_run("truncate-route:1", None, None, "trunc");
    assert_lossy_fault_degrades_then_resumes("truncate-route:1", &got, cfg);
}

/// A muted peer: after its first messages the worker swallows every
/// write — including heartbeats — while staying connected and reading
/// (a hung process or one-way partition; EOF never fires). The
/// dead-peer timeout must flag it within the configured window: the
/// run ends truncated + `store_error`, quickly, never hanging.
#[test]
fn fault_stalled_heartbeat_detected_no_hang() {
    let t0 = Instant::now();
    let (got, cfg, _ck) = faulted_mp_run("mute:2", Some(300), Some(1500), "mute");
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_secs() < 30,
        "dead-peer detection took {elapsed:?} — the heartbeat timeout is not working"
    );
    assert_lossy_fault_degrades_then_resumes("mute:2", &got, cfg);
}

/// A delayed probe reply (800 ms of injected latency on the exact
/// message the termination detector depends on): the epoch-tagged
/// probe rounds must absorb it — the stale/late reply can delay
/// termination but never corrupt it. Untruncated, byte-identical.
#[test]
fn fault_delayed_probe_reply_is_absorbed() {
    let reference = sequential_reference(
        library_source("MP"),
        &ModelParams::default(),
        &ExploreLimits::default(),
    );
    let (got, _cfg, ck) = faulted_mp_run("delay-probe:1:800", None, None, "dprobe");
    assert_identical("MP", "tcp+delay-probe", &reference, &got);
    assert!(!ck.exists(), "clean completion must delete the checkpoint");
}

/// A delayed data frame (400 ms on a routed batch): pure latency, no
/// loss — the run must stay untruncated and byte-identical.
#[test]
fn fault_delayed_frame_is_absorbed() {
    let reference = sequential_reference(
        library_source("MP"),
        &ModelParams::default(),
        &ExploreLimits::default(),
    );
    let (got, _cfg, ck) = faulted_mp_run("delay-route:2:400", None, None, "droute");
    assert_identical("MP", "tcp+delay-route", &reference, &got);
    assert!(!ck.exists(), "clean completion must delete the checkpoint");
}

/// A killed worker over TCP (same `die:N` abort as the Unix-socket
/// suite): truncated + `store_error` + resumable death checkpoint.
#[test]
fn fault_killed_worker_over_tcp_resumes() {
    let tmp = std::env::temp_dir().join(format!("ppcmem-tcp-kill-{}", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let mut cfg = tcfg(2);
    cfg.checkpoint = Some(tmp.clone());
    cfg.worker_env = vec![(FAULT_ENV.to_owned(), "die:40".to_owned())];
    let got = outcomes_distributed(
        library_source("MP"),
        &ModelParams::default(),
        &ExploreLimits::default(),
        &cfg,
    );
    assert_lossy_fault_degrades_then_resumes("die:40", &got, cfg);
}

/// Chaos sweep: random programs × random faults from the full grammar.
/// The invariant under chaos is exactly "no silent pass": a run that
/// reports untruncated must be byte-identical to the sequential
/// engine (the fault either never fired or was pure latency); a run
/// that truncates must say why in `store_error`. Lossy faults must
/// fire on at least one iteration, or the sweep lost its teeth.
#[test]
fn chaos_random_faults_never_silently_pass() {
    let iters = env_u64("DISTRIB_TCP_CHAOS_ITERS", 6);
    let seed0 = env_u64("DISTRIB_TCP_FUZZ_SEED", 0x7C9_0D15_7AB1_E001).wrapping_add(0x1000);
    let budget = env_u64("DISTRIB_TCP_FUZZ_BUDGET", 60_000) as usize;
    let faults: &[(&str, bool)] = &[
        ("drop-route:1", true),
        ("truncate-route:2", true),
        ("mute:3", true),
        ("delay-route:1:100", false),
        ("delay-probe:1:150", false),
    ];
    let limits = ExploreLimits {
        max_states: budget,
        ..ExploreLimits::default()
    };
    let params = ModelParams::default();
    let mut fired = 0usize;
    for i in 0..iters {
        let seed = seed0.wrapping_add(i);
        let prog = gen_program(seed);
        let reference = sequential_reference(&prog.source, &params, &limits);
        if reference.stats.truncated {
            continue;
        }
        // Deterministic fault choice per seed — reproducible without a
        // clock and uncorrelated with the program generator.
        let (fault, lossy) = faults[(seed % faults.len() as u64) as usize];
        let mut cfg = tcfg(2);
        cfg.worker_env = vec![(FAULT_ENV.to_owned(), fault.to_owned())];
        if fault.starts_with("mute") {
            cfg.heartbeat_ms = Some(300);
            cfg.peer_timeout_ms = Some(1500);
        }
        let got = outcomes_distributed(&prog.source, &params, &limits, &cfg);
        let what = format!("seed {seed:#018x} fault {fault}\n{}", prog.source);
        if got.stats.truncated {
            assert!(
                lossy,
                "{what}: a pure-latency fault must never truncate ({:?})",
                got.stats.store_error
            );
            assert!(
                got.stats.store_error.is_some(),
                "{what}: truncation without a store_error is a silent failure"
            );
            fired += 1;
        } else {
            // Untruncated under chaos ⇒ provably unharmed: small
            // explorations can finish before a lossy fault's Nth
            // message ever exists, and latency faults are absorbed by
            // design — either way the result must be byte-identical.
            assert_identical(&what, "tcp-chaos", &reference, &got);
        }
    }
    assert!(
        fired > 0,
        "no lossy fault ever fired across {iters} chaos iterations — \
         the sweep is not exercising the degradation paths"
    );
}
