//! The successor memo differential on litmus sources: every engine
//! configuration explores the same states, fires the same transitions
//! and reaches byte-identical finals with the oracle's successor memos
//! as with every memo disengaged (`explore_limited_memoless`, which
//! sends each transition through `SystemState::apply`).
//!
//! Two corpora: the 30-test library (a small-state slice of it in debug
//! builds, where every memo hit is re-derived by `apply` and every
//! applied transition's footprint write set is checked, so the slice
//! already covers both footprint halves; all 30 tests in release, where
//! that audit is compiled out and the memo runs as shipped) and
//! programs from the `tests/common` fuzz generator — `lwarx`/`stwcx.`
//! and `sync` included, coverage asserted. Four configurations each:
//! sequential, two work-stealing threads, the eager-`Finish` reduction, and a
//! 16-state resident budget that spills through the codec.

mod common;

use common::{gen_program, has_rmw};
use ppcmem::litmus::{build_system, library, observations, parse, LitmusTest};
use ppcmem::model::{
    explore_limited, explore_limited_memoless, ExploreLimits, ModelParams, Outcomes,
};

/// `(name, worker threads, reduced, resident budget)`.
const MODES: [(&str, usize, bool, usize); 4] = [
    ("sequential", 1, false, 0),
    ("threads = 2", 2, false, 0),
    ("reduced", 1, true, 0),
    ("max_resident_states = 16", 1, false, 16),
];

/// Library tests small enough for debug builds (each under 6k states);
/// between them every barrier kind and dependency shape of the library.
const DEBUG_SLICE: &[&str] = &[
    "CoRR",
    "CoWW",
    "CoWR",
    "CoRW1",
    "SB",
    "MP",
    "LB",
    "LB+addrs",
    "MP+syncs",
    "MP+sync+addr",
    "MP+lwsync+addr",
    "MP+sync+ctrlisync",
    "MP+sync+addr-cr",
    "S+sync+addr",
];

/// Explore `test` with and without successor memos in `mode`; `None` if
/// the memo-less reference does not fit `budget` states.
fn differential(
    test: &LitmusTest,
    mode: (&str, usize, bool, usize),
    budget: usize,
    context: &dyn Fn() -> String,
) -> Option<Outcomes> {
    let (name, threads, reduced, resident) = mode;
    let params = ModelParams {
        reduced,
        max_resident_states: resident,
        ..ModelParams::default()
    };
    let initial = build_system(test, &params);
    let (reg_obs, mem_obs) = observations(test);
    let limits = ExploreLimits {
        threads,
        max_states: budget,
        deadline: None,
    };
    let reference = explore_limited_memoless(&initial, &reg_obs, &mem_obs, &limits);
    if reference.stats.truncated {
        return None;
    }
    let memo = explore_limited(&initial, &reg_obs, &mem_obs, &limits);
    let what = || format!("{}, {name}", context());
    assert!(!memo.stats.truncated, "{}: memo run truncated", what());
    assert!(
        memo.finals == reference.finals,
        "{}: finals diverged ({} vs {})",
        what(),
        memo.finals.len(),
        reference.finals.len()
    );
    assert_eq!(
        (
            memo.stats.states,
            memo.stats.transitions,
            memo.stats.final_hits
        ),
        (
            reference.stats.states,
            reference.stats.transitions,
            reference.stats.final_hits
        ),
        "{}: counts diverged",
        what()
    );
    let all = memo.succ_memo.total();
    assert_eq!(
        all.hits + all.misses,
        memo.stats.transitions as u64,
        "{}: the memo lost count",
        what()
    );
    assert_eq!(reference.succ_memo.total().hits, 0, "{}", what());
    Some(memo)
}

#[test]
fn succ_memo_library_matches_memoless() {
    let mut hits = 0;
    let mut checked = 0;
    for e in library() {
        if cfg!(debug_assertions) && !DEBUG_SLICE.contains(&e.name) {
            continue;
        }
        let test = parse(e.source).expect("library parses");
        for mode in MODES {
            let out = differential(&test, mode, ModelParams::DEFAULT_MAX_STATES, &|| {
                e.name.to_owned()
            })
            .unwrap_or_else(|| panic!("{}: library test truncated", e.name));
            hits += out.succ_memo.total().hits;
            checked += 1;
        }
    }
    let expected = if cfg!(debug_assertions) {
        DEBUG_SLICE.len()
    } else {
        30
    };
    assert_eq!(checked, expected * MODES.len(), "library slice drifted");
    assert!(hits > 0, "the memo never hit across the library");
}

#[test]
fn succ_memo_fuzz_programs_match_memoless() {
    // Seed range disjoint from every other fuzz suite's.
    let base: u64 = 0x5CC3_3E30_0000_0000;
    let (programs, budget) = if cfg!(debug_assertions) {
        (32, 10_000)
    } else {
        (96, 20_000)
    };
    let (mut checked, mut rmw, mut sync, mut skipped) = (0, 0, 0, 0);
    for i in 0..programs {
        let seed = base + i;
        let prog = gen_program(seed);
        let test = parse(&prog.source).expect("generated source parses");
        let context = || format!("fuzz seed {seed:#018x}\n{}", prog.source);
        let mut fits = true;
        for mode in MODES {
            fits &= differential(&test, mode, budget, &context).is_some();
        }
        if fits {
            checked += 1;
            rmw += usize::from(has_rmw(&prog));
            sync += usize::from(prog.source.split(['|', ';']).any(|c| c.trim() == "sync"));
        } else {
            skipped += 1;
        }
    }
    println!("succ memo fuzz: {checked} programs checked ({rmw} lwarx/stwcx., {sync} sync), {skipped} over budget");
    assert!(
        checked * 2 >= programs as usize,
        "only {checked}/{programs} programs fit"
    );
    assert!(rmw > 0 && sync > 0, "lwarx/stwcx. or sync went unchecked");
}
