//! Observational equivalence of the exploration pool: for a ladder of
//! library tests, exploring with 2 and 4 worker threads must yield
//! *byte-identical* `Outcomes::finals` (and the same state count and
//! verdict) as one worker. Also here: the pool's edge cases — more
//! workers than work, work left only on disk, a deadline that expires
//! while workers are idle.

use ppcmem::idl::Reg;
use ppcmem::litmus::{build_system, library, parse, run, run_limited, LitmusTest};
use ppcmem::model::{explore_limited, ExploreLimits, ModelParams};
use std::time::{Duration, Instant};

/// The equivalence ladder: coherence shapes up through three-thread
/// cumulativity tests (kept to sizes that explore three times over in
/// CI-friendly time).
const LADDER: &[&str] = &[
    "CoRR",
    "CoWW",
    "CoWR",
    "MP",
    "SB",
    "LB",
    "MP+syncs",
    "MP+sync+addr",
    "S+sync+addr",
    "2+2W",
    "WRC+pos",
];

#[test]
fn parallel_explore_matches_sequential_on_ladder() {
    let params = ModelParams::default();
    for name in LADDER {
        let entry = library()
            .into_iter()
            .find(|e| e.name == *name)
            .unwrap_or_else(|| panic!("{name} in library"));
        let test = parse(entry.source).expect("library parses");
        let seq = run_limited(&test, &params, &ExploreLimits::default());
        for threads in [2, 4] {
            let par = run_limited(
                &test,
                &params,
                &ExploreLimits {
                    threads,
                    ..ExploreLimits::default()
                },
            );
            assert_eq!(
                seq.finals, par.finals,
                "{name}: distinct-final-state count diverged at {threads} threads"
            );
            assert_eq!(
                seq.witnessed, par.witnessed,
                "{name}: verdict diverged at {threads} threads"
            );
            assert_eq!(
                seq.stats.states, par.stats.states,
                "{name}: visited-state count diverged at {threads} threads"
            );
            assert_eq!(
                seq.stats.transitions, par.stats.transitions,
                "{name}: transition count diverged at {threads} threads"
            );
            assert!(!par.stats.truncated, "{name}: unexpected truncation");
        }
    }
}

/// The raw oracle outcomes (register and memory observations, not just
/// the condition verdict) are byte-identical between engines.
#[test]
fn parallel_outcomes_bytes_identical() {
    let entry = library()
        .into_iter()
        .find(|e| e.name == "MP")
        .expect("MP in library");
    let test = parse(entry.source).expect("parses");
    let state = build_system(&test, &ModelParams::default());
    let reg_obs: Vec<(usize, Reg)> = vec![(1, Reg::Gpr(4)), (1, Reg::Gpr(5))];
    let mem_obs: Vec<(u64, usize)> = test.locations.values().map(|&a| (a, 4)).collect();
    let seq = explore_limited(&state, &reg_obs, &mem_obs, &ExploreLimits::default());
    for threads in [2, 4] {
        let par = explore_limited(
            &state,
            &reg_obs,
            &mem_obs,
            &ExploreLimits {
                threads,
                ..ExploreLimits::default()
            },
        );
        // BTreeSet<FinalState> equality is element-wise over every
        // observed register and memory bitvector.
        assert_eq!(
            seq.finals, par.finals,
            "finals diverged at {threads} threads"
        );
        assert_eq!(seq.stats.final_hits, par.stats.final_hits);
    }
}

/// `ModelParams::threads` drives the parallel engine through the plain
/// `run` entry point.
#[test]
fn model_params_threads_knob() {
    let entry = library()
        .into_iter()
        .find(|e| e.name == "MP+syncs")
        .expect("MP+syncs in library");
    let test = parse(entry.source).expect("parses");
    let seq = run(&test, &ModelParams::default());
    let par = run(
        &test,
        &ModelParams {
            threads: 4,
            ..ModelParams::default()
        },
    );
    assert_eq!(seq.finals, par.finals);
    assert_eq!(seq.witnessed, par.witnessed);
    assert!(!seq.witnessed, "MP+syncs is forbidden");
}

/// One worker and a pool both respect the state budget and report
/// truncation.
#[test]
fn both_engines_report_truncation() {
    let entry = library()
        .into_iter()
        .find(|e| e.name == "2+2W")
        .expect("2+2W in library");
    let test = parse(entry.source).expect("parses");
    let params = ModelParams::default();
    for threads in [1, 4] {
        let r = run_limited(
            &test,
            &params,
            &ExploreLimits {
                threads,
                max_states: 500,
                deadline: None,
            },
        );
        assert!(
            r.stats.truncated,
            "threads={threads}: 500-state budget must truncate 2+2W"
        );
        // A failed claim is rolled back, so one worker stops at exactly
        // the budget; a pool never expands more.
        if threads == 1 {
            assert_eq!(r.stats.states, 500, "threads=1: budget not met exactly");
        } else {
            assert!(
                r.stats.states <= 500,
                "threads={threads}: budget overrun ({} states)",
                r.stats.states
            );
        }
    }
}

/// The library test `name`, parsed.
fn library_test(name: &str) -> LitmusTest {
    let entry = library()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} in library"));
    parse(entry.source).expect("library parses")
}

/// More workers than the search can feed: CoRR's 88 states at eight
/// workers, most of them idle most of the time, match one worker.
#[test]
fn pool_of_eight_matches_one_worker() {
    let test = library_test("CoRR");
    let params = ModelParams::default();
    let one = run_limited(&test, &params, &ExploreLimits::default());
    let eight = run_limited(
        &test,
        &params,
        &ExploreLimits {
            threads: 8,
            ..ExploreLimits::default()
        },
    );
    assert!(!eight.stats.truncated);
    assert_eq!(
        (one.stats.states, one.stats.transitions, &one.finals),
        (eight.stats.states, eight.stats.transitions, &eight.finals)
    );
}

/// A pool whose only work left is on disk: under a 16-state resident
/// budget four workers spill, run dry, and must take the spilled
/// segments before counting themselves idle. A termination rule that
/// ignores the disk ends early with too few states.
#[test]
fn spilling_pool_matches_one_worker() {
    let mut spilled = 0;
    for name in ["SB", "MP"] {
        let test = library_test(name);
        let one = run_limited(&test, &ModelParams::default(), &ExploreLimits::default());
        let params = ModelParams {
            max_resident_states: 16,
            ..ModelParams::default()
        };
        let limits = ExploreLimits {
            threads: 4,
            ..ExploreLimits::default()
        };
        for run in 0..20 {
            let pool = run_limited(&test, &params, &limits);
            assert!(!pool.stats.truncated, "{name}, run {run}: truncated");
            assert_eq!(
                (one.stats.states, one.stats.transitions, &one.finals),
                (pool.stats.states, pool.stats.transitions, &pool.finals),
                "{name}, run {run}: the spilling pool diverged"
            );
            spilled += pool.stats.spilled_states;
        }
    }
    assert!(spilled > 0, "no run spilled: the disk path did not engage");
}

/// A deadline that expires while workers are idle, waiting for a
/// donation: the stop must wake them. Deadlines from already past to
/// 19 ms out on a 215k-state test, so the trip lands at different
/// moments of the pool's start; a stop that leaves idle workers asleep
/// hangs here.
#[test]
fn expired_deadline_wakes_idle_workers() {
    let test = library_test("LB+addrs+WW");
    for ms in 0..20 {
        let r = run_limited(
            &test,
            &ModelParams::default(),
            &ExploreLimits {
                threads: 4,
                deadline: Some(Instant::now() + Duration::from_millis(ms)),
                ..ExploreLimits::default()
            },
        );
        assert!(
            r.stats.truncated,
            "{ms} ms: the deadline did not stop the pool"
        );
    }
}
