//! Equivalence, fault-injection, and checkpoint/resume pinning of the
//! multi-process distributed oracle (`crates/model/src/distrib.rs`).
//!
//! The distributed engine partitions the visited set across worker
//! *processes* by digest prefix and ships successor states between
//! shards as canonical-codec frame batches, so its acceptance bar is
//! the same as every engine before it: **byte-identical**
//! `Outcomes::finals` and identical visited-state / transition /
//! final-hit counts against the single-process engines, on a library
//! ladder and on random programs from the shared fuzz generator
//! (`tests/common`, over a seed range disjoint from the other fuzz
//! suites). Composition with `--max-resident` (per-worker spill
//! stores) and `--reduced` (the eager-`Finish` choice, which reads only
//! the state: unreduced finals, and reduced counts equal to every
//! in-process reduced engine's) is pinned the same way.
//!
//! Robustness: a fault-injected worker death (`std::process::abort`
//! mid-exploration, indistinguishable from SIGKILL/OOM) must surface
//! as a *truncated* result carrying a `store_error` — never a silent
//! partial pass. When a checkpoint path is configured, the coordinator
//! journals every cross-shard frame it relays and uses those journals
//! to reconstruct the dead shard's entry points, so even a crashed
//! fleet leaves a *resumable* checkpoint: resuming completes to finals
//! byte-identical to an uninterrupted run. A graceful budget pause
//! checkpoints exactly as before (byte-identical finals *and* counts
//! on resume).
//!
//! Worker processes are this test binary re-executed with
//! `["distrib_worker_shim", "--exact"]`: the shim test calls
//! [`ppcmem::litmus::maybe_run_worker`], which is a no-op in a normal
//! test run and the worker entry point when the coordinator's socket
//! env var is set.
//!
//! Environment knobs: `DISTRIB_FUZZ_PROGRAMS` (default 8),
//! `DISTRIB_FUZZ_SEED`, `DISTRIB_FUZZ_BUDGET` (as in `oracle_fuzz`,
//! disjoint seed base).

mod common;

use common::{env_u64, gen_program};
use ppcmem::litmus::distrib::{
    explore_distributed, outcomes_distributed, run_source_distributed, DistribConfig,
};
use ppcmem::litmus::{build_system, library, observations, parse};
use ppcmem::model::distrib::{load_checkpoint, DistribOutcome};
use ppcmem::model::net::FAULT_ENV;
use ppcmem::model::{explore_limited, ExploreLimits, ModelParams, Outcomes};

/// Worker re-exec entry point: in a normal test run the env var is
/// absent and this is an instant pass; in a spawned worker it runs the
/// shard to completion and exits the process.
#[test]
fn distrib_worker_shim() {
    ppcmem::litmus::maybe_run_worker();
}

/// The equivalence ladder (sizes chosen so each test distributes twice
/// and explores sequentially once in CI-friendly time on one CPU).
const LADDER: &[&str] = &[
    "CoRR", "CoWW", "MP", "SB", "LB", "MP+syncs", "2+2W", "WRC+pos",
];

/// A worker config that re-executes this test binary as the workers.
fn dcfg(workers: usize) -> DistribConfig {
    DistribConfig {
        workers,
        worker_args: vec!["distrib_worker_shim".to_owned(), "--exact".to_owned()],
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

/// Byte-identity of a distributed run against the sequential reference:
/// finals element-wise, and every count.
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

/// A distributed run with the coordinator's own counters still attached
/// (`outcomes_distributed` keeps only the merged [`Outcomes`]).
fn explore_with_counters(
    source: &str,
    params: &ModelParams,
    limits: &ExploreLimits,
    cfg: &DistribConfig,
) -> DistribOutcome {
    let test = parse(source).expect("source parses");
    explore_distributed(source, &test, params, limits, cfg).expect("distributed setup")
}

fn library_source(name: &str) -> &'static str {
    library()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} in library"))
        .source
}

/// The ladder, distributed over 2 and 3 shards, against the sequential
/// engine: byte-identical finals and counts.
#[test]
fn distributed_matches_sequential_on_ladder() {
    let params = ModelParams::default();
    let limits = ExploreLimits::default();
    for name in LADDER {
        let source = library_source(name);
        let reference = sequential_reference(source, &params, &limits);
        assert!(!reference.stats.truncated, "{name}: reference truncated");
        for workers in [2usize, 3] {
            let got = outcomes_distributed(source, &params, &limits, &dcfg(workers));
            assert_identical(name, &format!("dist-{workers}"), &reference, &got);
        }
    }
}

/// Dedup before codec, end to end: a worker encodes a remote digest
/// once, so what the coordinator relays is bounded by *distinct states*
/// — each can be routed by at most the `n − 1` workers that do not own
/// it, plus the root — not by fired transitions (SB fires 3 per state,
/// and about `(n − 1) / n` of them cross shards). The bound has slack
/// for the table's rare evictions: a state none of whose predecessors
/// lives on another shard is never routed at all.
/// Reduced runs engage the same table, so the bound holds for them too.
#[test]
fn relayed_frames_are_bounded_by_distinct_states() {
    let source = library_source("SB");
    let limits = ExploreLimits::default();
    for reduced in [false, true] {
        let params = ModelParams {
            reduced,
            ..ModelParams::default()
        };
        let reference = sequential_reference(source, &params, &limits);
        for workers in [2usize, 3] {
            let mode = format!("dist-{workers}, reduced {reduced}");
            let got = explore_with_counters(source, &params, &limits, &dcfg(workers));
            assert_identical("SB", &mode, &reference, &got.outcomes);
            let bound = (workers - 1) * reference.stats.states + 1;
            assert!(
                got.relayed_frames >= 1 && got.relayed_frames <= bound as u64,
                "{mode}: {} frames relayed for {} states (bound {bound})",
                got.relayed_frames,
                reference.stats.states
            );
        }
    }
}

/// Composition with `--max-resident`: each worker runs its own spill
/// store; a tiny resident budget must not change anything observable.
#[test]
fn distributed_composes_with_max_resident() {
    let limits = ExploreLimits::default();
    for name in ["MP", "2+2W", "WRC+pos"] {
        let source = library_source(name);
        let reference = sequential_reference(source, &ModelParams::default(), &limits);
        let spill_params = ModelParams {
            max_resident_states: 16,
            ..ModelParams::default()
        };
        let got = outcomes_distributed(source, &spill_params, &limits, &dcfg(2));
        assert_identical(name, "dist-2+spill", &reference, &got);
    }
}

/// Composition with `--reduced`. The eager choice reads only the state,
/// so reduced counts do not depend on the engine: sequential, two
/// threads, a 16-state resident budget, and 2 or 3 worker processes
/// all visit the same states and fire the same transitions. The finals
/// are the unreduced search's.
#[test]
fn distributed_reduced_matches_unreduced_finals() {
    let limits = ExploreLimits::default();
    for name in ["MP", "SB", "WRC+pos", "2+2W"] {
        let source = library_source(name);
        let unreduced = sequential_reference(source, &ModelParams::default(), &limits);
        let reduced = ModelParams {
            reduced: true,
            ..ModelParams::default()
        };
        let reference = sequential_reference(source, &reduced, &limits);
        assert!(
            unreduced.finals == reference.finals,
            "{name}: reduced finals diverged ({} vs {})",
            unreduced.finals.len(),
            reference.finals.len()
        );
        assert!(
            reference.stats.states * 2 < unreduced.stats.states,
            "{name}: the reduction did not reduce"
        );
        let test = parse(source).expect("source parses");
        let (reg_obs, mem_obs) = observations(&test);
        let in_process = |params: &ModelParams, threads: usize| {
            let state = build_system(&test, params);
            let limits = ExploreLimits {
                threads,
                ..limits.clone()
            };
            explore_limited(&state, &reg_obs, &mem_obs, &limits)
        };
        let spill = ModelParams {
            max_resident_states: 16,
            ..reduced.clone()
        };
        assert_identical(name, "threads=2", &reference, &in_process(&reduced, 2));
        assert_identical(name, "max_resident 16", &reference, &in_process(&spill, 1));
        for workers in [2, 3] {
            let got = outcomes_distributed(source, &reduced, &limits, &dcfg(workers));
            assert_identical(name, &format!("dist-{workers}"), &reference, &got);
        }
    }
}

/// Composition with `--context-bound`: the bound applies per worker
/// exactly as in-process (the switch count rides in each shipped
/// frame), and a bound that suppresses successors must surface as
/// `bounded` — the explicitly-approximate flag — not as a conclusive
/// exhaustive run.
#[test]
fn distributed_context_bound_reports_bounded() {
    let source = library_source("MP");
    let params = ModelParams {
        max_context_switches: 1,
        ..ModelParams::default()
    };
    let got = outcomes_distributed(source, &params, &ExploreLimits::default(), &dcfg(2));
    assert!(
        !got.stats.truncated,
        "bounded run truncated ({:?})",
        got.stats.store_error
    );
    assert!(
        got.stats.bounded,
        "a 1-switch bound on MP must suppress successors"
    );
}

/// Fault injection: one worker process aborts mid-exploration (no
/// unwind, no goodbye — exactly a SIGKILL/OOM). The coordinator must
/// degrade to a *truncated* result with the death recorded, never a
/// silent or partial pass — and, because a checkpoint path is
/// configured, must leave a death checkpoint assembled from the relay
/// journals, from which a fresh fleet resumes to byte-identical
/// *finals* (counts may legitimately overcount re-expanded states
/// after a crash, so only the finals — the model's verdict — are
/// pinned).
#[test]
fn killed_worker_reports_truncation_never_silent() {
    let source = library_source("MP");
    let params = ModelParams::default();
    let limits = ExploreLimits::default();
    let reference = sequential_reference(source, &params, &limits);
    assert!(!reference.stats.truncated);

    let tmp = std::env::temp_dir().join(format!("ppcmem-distrib-kill-ck-{}", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let mut cfg = dcfg(2);
    cfg.checkpoint = Some(tmp.clone());
    cfg.worker_env = vec![(FAULT_ENV.to_owned(), "die:40".to_owned())];
    let result = run_source_distributed(source, &params, &limits, &cfg);
    assert!(
        result.stats.truncated,
        "a killed worker must truncate the run"
    );
    let err = result
        .stats
        .store_error
        .as_deref()
        .expect("a killed worker must be recorded in store_error");
    assert!(
        err.contains("died") || err.contains("worker") || err.contains("lost"),
        "unhelpful death report: {err}"
    );
    assert!(
        tmp.exists(),
        "a worker death with a configured checkpoint must leave a \
         resumable death checkpoint (assembled from the relay journals)"
    );

    // Resume with the fault cleared: the crashed fleet's progress plus
    // the journaled entry points must complete to the exact final-state
    // set of an uninterrupted run.
    cfg.worker_env.clear();
    let resumed = outcomes_distributed(source, &params, &limits, &cfg);
    assert!(
        !resumed.stats.truncated,
        "resume after death must complete ({:?})",
        resumed.stats.store_error
    );
    assert!(
        reference.finals == resumed.finals,
        "finals after death-checkpoint resume diverged ({} vs {})",
        reference.finals.len(),
        resumed.finals.len()
    );
    assert!(
        !tmp.exists(),
        "an untruncated completion must delete the checkpoint"
    );
}

/// Checkpoint → kill the run → resume: a graceful budget pause writes a
/// checkpoint; the workers are then torn down (the coordinator kills
/// and reaps them); a fresh set of workers resumes from the file and
/// must complete to finals and counts byte-identical to an
/// uninterrupted run. The checkpoint is deleted on completion.
#[test]
fn checkpoint_pause_resume_is_byte_identical() {
    let source = library_source("MP");
    let params = ModelParams::default();
    let full = ExploreLimits::default();
    let reference = sequential_reference(source, &params, &full);
    assert!(!reference.stats.truncated);

    let tmp = std::env::temp_dir().join(format!("ppcmem-distrib-ck-{}", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let mut cfg = dcfg(2);
    cfg.checkpoint = Some(tmp.clone());

    // Phase 1: a state budget below MP's space forces a graceful pause
    // — far enough in that the workers' sent-tables have been
    // suppressing re-sends for a while. The paused result is truncated
    // (inconclusive) and the frontier+visited dump lands in the
    // checkpoint.
    let paused = explore_with_counters(
        source,
        &params,
        &ExploreLimits {
            max_states: 500,
            ..ExploreLimits::default()
        },
        &cfg,
    );
    let relayed = paused.relayed_frames;
    let paused = paused.outcomes;
    assert!(paused.stats.truncated, "budget pause must truncate");
    assert!(
        paused.stats.states < reference.stats.states,
        "pause must stop before exhaustion"
    );
    assert!(tmp.exists(), "graceful pause must write the checkpoint");
    // With two uniform shards half the fired transitions cross. Every
    // crossing one was either encoded — relayed, or caught by the stop
    // and parked in the checkpoint's pending list — or suppressed, so
    // well under half means the stop landed after suppressed sends. The
    // checkpoint must be complete regardless: phase 2 checks that.
    let sent = relayed as usize + load_checkpoint(&tmp).expect("checkpoint").pending.len();
    assert!(
        sent * 5 < paused.stats.transitions * 2,
        "{sent} records encoded for {} fired transitions: nothing was suppressed before the pause",
        paused.stats.transitions
    );

    // Phase 2: resume with the full budget — on a different shard
    // count, since the checkpoint format is resharding-agnostic.
    cfg.workers = 3;
    let resumed = outcomes_distributed(source, &params, &full, &cfg);
    assert_identical("MP", "pause+resume", &reference, &resumed);
    assert!(
        !tmp.exists(),
        "an untruncated completion must delete the checkpoint"
    );
}

/// The reduced half of a pause: a reduced run paused on 2 workers and
/// resumed on 3 completes to the counts of an uninterrupted sequential
/// reduced run, and to the unreduced finals.
#[test]
fn checkpoint_pause_resume_reduced() {
    let source = library_source("SB");
    let full = ExploreLimits::default();
    let unreduced = sequential_reference(source, &ModelParams::default(), &full);
    let reduced = ModelParams {
        reduced: true,
        ..ModelParams::default()
    };
    let reference = sequential_reference(source, &reduced, &full);
    let tmp =
        std::env::temp_dir().join(format!("ppcmem-distrib-ck-reduced-{}", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let mut cfg = dcfg(2);
    cfg.checkpoint = Some(tmp.clone());
    let budget = ExploreLimits {
        max_states: reference.stats.states / 2,
        ..ExploreLimits::default()
    };
    let paused = outcomes_distributed(source, &reduced, &budget, &cfg);
    assert!(paused.stats.truncated, "budget pause must truncate");
    let ck = load_checkpoint(&tmp).expect("graceful pause must write the checkpoint");
    assert!(!ck.visited.is_empty(), "the dump carries the visited set");
    cfg.workers = 3;
    let resumed = outcomes_distributed(source, &reduced, &full, &cfg);
    assert_identical("SB", "reduced pause+resume", &reference, &resumed);
    assert!(
        unreduced.finals == resumed.finals,
        "reduced pause+resume finals diverged ({} vs {})",
        unreduced.finals.len(),
        resumed.finals.len()
    );
    assert!(
        !tmp.exists(),
        "an untruncated completion must delete the checkpoint"
    );
}

/// A checkpoint written by an earlier build, committed under
/// `tests/data/checkpoint_v1/`, resumes under this one on a different
/// shard count: the file format, the frame records' state bytes and
/// the visited entries (with their retired, empty set slots) are
/// compatibility surfaces. `mp_unreduced.ck` is MP paused by a
/// 500-state budget on 2 workers.
#[test]
fn committed_checkpoints_resume() {
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/checkpoint_v1");
    let file = "mp_unreduced.ck";
    let tmp = std::env::temp_dir().join(format!("ppcmem-{}-{file}", std::process::id()));
    std::fs::copy(data.join(file), &tmp).expect("copy fixture");
    let mut cfg = dcfg(3);
    cfg.checkpoint = Some(tmp.clone());
    let params = ModelParams::default();
    let mp = outcomes_distributed(
        library_source("MP"),
        &params,
        &ExploreLimits::default(),
        &cfg,
    );
    assert!(
        !tmp.exists(),
        "{file}: a completed resume deletes the checkpoint"
    );
    let reference = sequential_reference(library_source("MP"), &params, &ExploreLimits::default());
    assert_identical("MP", "committed checkpoint", &reference, &mp);
    assert_eq!(
        (mp.stats.states, mp.stats.transitions, mp.finals.len()),
        (1155, 3383, 4)
    );
}

/// Random-program differential over a seed range disjoint from the
/// other fuzz suites: sequential vs 2-shard distributed, byte for byte.
#[test]
fn distrib_fuzz_matches_sequential() {
    let programs = env_u64("DISTRIB_FUZZ_PROGRAMS", 8);
    let seed0 = env_u64("DISTRIB_FUZZ_SEED", 0xD157_AB1E_0000_0001);
    let budget = env_u64("DISTRIB_FUZZ_BUDGET", 60_000) as usize;
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
            // Truncated explorations legitimately visit different
            // prefixes; counted so generator drift fails the test.
            skipped += 1;
            continue;
        }
        let got = outcomes_distributed(&prog.source, &params, &limits, &dcfg(2));
        assert_identical(
            &format!("seed {seed:#018x}\n{}", prog.source),
            "dist-2",
            &reference,
            &got,
        );
        checked += 1;
    }
    assert!(
        checked > skipped,
        "fuzz coverage collapsed: {checked} checked vs {skipped} skipped — \
         the generator is producing mostly oversized programs"
    );
}
