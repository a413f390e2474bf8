//! Randomized differential fuzzing of the multi-worker exploration pool.
//!
//! A seeded [`Prng`] generates small random litmus programs (shared
//! generator in `tests/common`) — 2–4 hardware threads of loads, stores,
//! barriers, address/data/control dependencies, and `lwarx`/`stwcx.`
//! read-modify-write pairs over 2–3 shared word locations — and every
//! program is explored exhaustively by a one-worker pool (the reference)
//! and a multi-worker pool (with randomized worker counts and — for
//! programs with reservation pairs — randomized spurious-stcx-failure
//! permission). The two must agree *byte for byte* on `Outcomes::finals`, and on
//! the visited-state and transition counts. Any mismatch prints the
//! offending seed and the generated program so the failure replays
//! deterministically.
//!
//! Also here: the `ExploreLimits` truncation contract under the new
//! engine — a deliberately oversized test must come back truncated from
//! `explore_limited` and *inconclusive* (never a silent pass) from the
//! harness, for both the state budget and the wall-clock deadline.
//!
//! Environment knobs (for longer local soaks): `ORACLE_FUZZ_PROGRAMS`
//! (default 200), `ORACLE_FUZZ_SEED` (default fixed, so CI is
//! deterministic; accepts `0x…` hex), and `ORACLE_FUZZ_BUDGET` (the
//! per-program distinct-state budget — raise it to differentially check
//! the bigger tail of generated programs instead of skipping them).
//!
//! The `por_`-prefixed tests are the reduction differential: the
//! eager-`Finish` search (`ModelParams::reduced`) must reproduce the
//! unreduced engine's `Outcomes::finals` byte for byte (over a
//! *disjoint* seed range —
//! `ORACLE_POR_SEED`/`ORACLE_POR_PROGRAMS`/`ORACLE_POR_BUDGET`), with
//! the same counts in every engine configuration; debug builds also
//! audit the stability and commutation of every eager choice. The
//! footprint-based independence relation must actually commute on
//! sampled enabled pairs.

mod common;

use common::{env_u64, gen_program, has_rmw, has_wrong_path};
use ppcmem::bits::Prng;
use ppcmem::idl::Reg;
use ppcmem::litmus::harness::{run_one, run_suite, HarnessConfig};
use ppcmem::litmus::{build_system, library, parse, run_limited};
use ppcmem::model::{explore_limited, independent, ExploreLimits, ModelParams, SystemState};
use std::time::{Duration, Instant};

/// The outcome of one differential run.
enum FuzzOutcome {
    /// Both engines ran to exhaustion and agreed. Carries whether the
    /// program contained an lwarx/stwcx. pair, for coverage accounting
    /// (the check derives it anyway, so the caller need not regenerate
    /// the program).
    Checked {
        /// The program exercised the reservation machinery.
        rmw: bool,
    },
    /// The sequential reference blew the per-program state budget —
    /// truncated explorations may legitimately visit different prefixes,
    /// so the program is skipped (and counted, so a generator drift that
    /// makes everything oversized fails the test).
    Skipped,
}

/// Walk a bounded random exploration prefix asserting, at every state
/// and for every enabled transition, that the incremental dirty-instance
/// worklist engine and the retained full-rescan reference produce the
/// same successor *and the same advance trace* (set of instances
/// stepped by eager progress). A worklist seeding rule that misses a
/// wake-up would change which instances advance long before it changes
/// finals — the trace comparison catches it at the first divergent
/// transition, with the generating seed attached.
fn advance_trace_differential(initial: &SystemState, seed: u64, steps: usize) {
    let mut rng = Prng::seed_from_u64(seed ^ 0x7ACE_D1FF_0000_0000);
    let mut state = initial.clone();
    for step in 0..steps {
        let ts = state.enumerate_transitions();
        // Enumeration-trace differential alongside the advance one: the
        // per-component transition caches (shared down the walk via the
        // CoW Arcs, so ancestors may have populated them) must agree
        // per-slot with a cache-bypassing rescan on every visited state.
        assert_eq!(
            state.enumerate_traced(),
            state.enumerate_rescan_traced(),
            "fuzz seed {seed:#018x} step {step}: cached enumeration diverged \
             from the full-rescan reference"
        );
        if ts.is_empty() {
            break;
        }
        for t in &ts {
            let (succ_inc, trace_inc) = state.apply_traced(t);
            let (succ_ref, trace_ref) = state.apply_rescan_traced(t);
            assert!(
                succ_inc == succ_ref,
                "fuzz seed {seed:#018x} step {step}: worklist successor differs \
                 from full-rescan reference for {t:?}"
            );
            assert_eq!(
                trace_inc, trace_ref,
                "fuzz seed {seed:#018x} step {step}: advance trace diverged \
                 (worklist skipped or added a wake-up) for {t:?}"
            );
        }
        let pick = rng.gen_range(0..ts.len() as u32) as usize;
        state = state.apply(&ts[pick]);
    }
}

/// Explore one generated program with one worker and with a pool of a
/// randomized size, and require byte-identical outcomes.
fn differential_check(seed: u64, budget: usize) -> FuzzOutcome {
    let prog = gen_program(seed);
    let test = parse(&prog.source).unwrap_or_else(|e| {
        panic!(
            "fuzz seed {seed:#018x}: generated source failed to parse: {e}\n{}",
            prog.source
        )
    });
    // Engine configuration comes from an independent stream so program
    // shapes stay stable if the configuration menu changes.
    let mut cfg_rng = Prng::seed_from_u64(seed ^ 0x0057_EA1B_A7C4_FFFF);
    let threads: usize = [2, 3, 4][cfg_rng.gen_range(0..3usize)];
    // For programs with a reservation pair, sometimes also allow
    // spurious store-conditional failures — the extra failure branch is
    // part of the architectural envelope and exercises the restart-free
    // stcx-fail path in `thread.rs`/`system.rs`.
    let rmw = has_rmw(&prog);
    let spurious = rmw && cfg_rng.gen_range(0..4u32) == 0;

    let params = ModelParams {
        allow_spurious_stcx_failure: spurious,
        ..ModelParams::default()
    };
    let state = build_system(&test, &params);
    let mem_obs: Vec<(u64, usize)> = test.locations.values().map(|&a| (a, 4)).collect();

    // Pin the incremental advance against the full-rescan reference on
    // a bounded walk before the (much larger) engine differential.
    advance_trace_differential(&state, seed, 10);

    let seq = explore_limited(
        &state,
        &prog.reg_obs,
        &mem_obs,
        &ExploreLimits {
            threads: 1,
            max_states: budget,
            deadline: None,
        },
    );
    if seq.stats.truncated {
        return FuzzOutcome::Skipped;
    }
    let par = explore_limited(
        &state,
        &prog.reg_obs,
        &mem_obs,
        &ExploreLimits {
            threads,
            max_states: budget,
            deadline: None,
        },
    );

    let context = || {
        format!(
            "fuzz seed {seed:#018x} ({threads} workers, spurious stcx {spurious})\n\
             replay: ORACLE_FUZZ_SEED={seed:#x} ORACLE_FUZZ_PROGRAMS=1 \
             cargo test --release --test oracle_fuzz\n{}",
            prog.source
        )
    };
    assert!(
        !par.stats.truncated,
        "the pool truncated where one worker did not\n{}",
        context()
    );
    assert_eq!(
        seq.stats.states,
        par.stats.states,
        "visited-state count diverged\n{}",
        context()
    );
    assert_eq!(
        seq.stats.transitions,
        par.stats.transitions,
        "transition count diverged\n{}",
        context()
    );
    assert_eq!(
        seq.stats.final_hits,
        par.stats.final_hits,
        "final-hit count diverged\n{}",
        context()
    );
    assert!(
        seq.finals == par.finals,
        "final states diverged (one worker {} vs the pool {})\n{}",
        seq.finals.len(),
        par.finals.len(),
        context()
    );
    FuzzOutcome::Checked { rmw }
}

#[test]
fn fuzz_pool_matches_sequential() {
    let programs = env_u64("ORACLE_FUZZ_PROGRAMS", 200) as usize;
    let base = env_u64("ORACLE_FUZZ_SEED", 0x0DDB_A11C_0FFE_E000);
    // Per-program distinct-state budget: programs the sequential
    // reference cannot exhaust under it are skipped, not compared. The
    // default keeps the 200-program sweep in CI-friendly time while
    // still differentially checking the large majority of programs.
    let budget = env_u64("ORACLE_FUZZ_BUDGET", 10_000) as usize;

    let mut checked = 0usize;
    let mut skipped = 0usize;
    let mut rmw_checked = 0usize;
    for i in 0..programs {
        let seed = base.wrapping_add(i as u64);
        // Attach seed + program context to *any* panic from inside the
        // model (e.g. an interpreter error deep in `advance_instance` —
        // which itself names the thread/instance ids), not just to the
        // differential asserts that already format it, so every
        // fuzz-found failure replays deterministically.
        let outcome = std::panic::catch_unwind(|| differential_check(seed, budget)).unwrap_or_else(
            |payload| {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string panic payload)");
                panic!(
                    "fuzz seed {seed:#018x} panicked\n\
                     replay: ORACLE_FUZZ_SEED={seed:#x} ORACLE_FUZZ_PROGRAMS=1 \
                     cargo test --release --test oracle_fuzz\n\
                     {}\npanic: {msg}",
                    gen_program(seed).source
                )
            },
        );
        match outcome {
            FuzzOutcome::Checked { rmw } => {
                checked += 1;
                rmw_checked += usize::from(rmw);
            }
            FuzzOutcome::Skipped => skipped += 1,
        }
    }
    println!(
        "oracle fuzz: {checked} programs checked ({rmw_checked} with lwarx/stwcx.), \
         {skipped} skipped (base seed {base:#x})"
    );
    // About two thirds of generated programs fit the default budget
    // (lwarx/stwcx. pairs inflate the tail past it — CI's release soak
    // raises ORACLE_FUZZ_BUDGET to differentially check deeper); if
    // coverage drifts below half, the differential sweep is quietly
    // rotting, so fail loudly instead.
    assert!(
        checked >= programs.div_ceil(2),
        "only {checked}/{programs} fuzz programs fit the {budget}-state budget — \
         shrink the generator shapes or raise the budget"
    );
    // Likewise for the reservation machinery: a full-size sweep that
    // never differentially checks an lwarx/stwcx. program means the op
    // menu drifted and the §6.2 paths went dark.
    assert!(
        programs < 50 || rmw_checked > 0,
        "no lwarx/stwcx. program survived the budget in a {programs}-program sweep"
    );
}

// ---- ExploreLimits truncation contract under the new engine ----------

/// An oversized library test (≈34k states, expected Forbidden, so a
/// truncated run can never be rescued by an early witness).
const OVERSIZED: &str = "SB+syncs";

fn oversized_entry() -> ppcmem::litmus::LitmusEntry {
    library()
        .into_iter()
        .find(|e| e.name == OVERSIZED)
        .expect("oversized test in library")
}

#[test]
fn state_budget_truncates_both_engines() {
    let entry = oversized_entry();
    let test = parse(entry.source).expect("library parses");
    let params = ModelParams::default();
    for threads in [1, 4] {
        let r = run_limited(
            &test,
            &params,
            &ExploreLimits {
                threads,
                max_states: 300,
                deadline: None,
            },
        );
        assert!(
            r.stats.truncated,
            "threads={threads}: a 300-state budget must truncate {OVERSIZED}"
        );
        assert!(
            r.stats.states <= 301,
            "threads={threads}: budget overrun ({} states)",
            r.stats.states
        );
        assert!(
            !r.witnessed,
            "threads={threads}: {OVERSIZED} is forbidden; a truncated run must not witness"
        );
    }
}

#[test]
fn past_deadline_truncates_both_engines() {
    let entry = oversized_entry();
    let test = parse(entry.source).expect("library parses");
    let params = ModelParams::default();
    for threads in [1, 4] {
        let r = run_limited(
            &test,
            &params,
            &ExploreLimits {
                threads,
                max_states: ModelParams::DEFAULT_MAX_STATES,
                deadline: Some(Instant::now()),
            },
        );
        assert!(
            r.stats.truncated,
            "threads={threads}: an already-expired deadline must truncate {OVERSIZED}"
        );
    }
}

#[test]
fn harness_reports_oversized_budget_as_inconclusive() {
    let entry = oversized_entry();
    let cfg = HarnessConfig {
        params: ModelParams {
            max_states: 300,
            threads: 4,
            ..ModelParams::default()
        },
        jobs: 1,
        timeout_per_test: None,
        distributed: 0,
    };
    let report = run_one(&entry, &cfg);
    assert!(report.truncated, "budget must truncate {OVERSIZED}");
    assert!(
        !report.conclusive(),
        "a truncated, unwitnessed run must be inconclusive, never a silent pass"
    );

    let suite = run_suite(&[entry], &cfg);
    assert!(!suite.all_conclusive_matches());
    assert_eq!(suite.inconclusive().len(), 1);
    assert!(
        suite.mismatches().is_empty(),
        "inconclusive is not the same thing as a mismatch"
    );
    assert!(suite.summary().contains("1 inconclusive"));
}

#[test]
fn harness_reports_expired_deadline_as_inconclusive() {
    let entry = oversized_entry();
    let cfg = HarnessConfig {
        params: ModelParams::default(),
        jobs: 1,
        timeout_per_test: Some(Duration::ZERO),
        distributed: 0,
    };
    let report = run_one(&entry, &cfg);
    assert!(
        report.truncated,
        "a zero deadline must truncate {OVERSIZED}"
    );
    assert!(!report.conclusive());
}

// ---- Reduction differential ------------------------------------------

/// Explore one generated program with the unreduced sequential engine
/// and with the eager-`Finish` reduction, sequentially and in a
/// randomized engine configuration (worker count, spill bound, so the
/// reduced frontier codec gets fuzzed too). The reduction must
/// reproduce `Outcomes::finals` byte for byte, visit a subset of the
/// unreduced states, and count the same in both configurations: its
/// choice reads only the state.
fn por_differential_check(seed: u64, budget: usize) -> FuzzOutcome {
    let prog = gen_program(seed);
    let test = parse(&prog.source).unwrap_or_else(|e| {
        panic!(
            "por seed {seed:#018x}: generated source failed to parse: {e}\n{}",
            prog.source
        )
    });
    // Independent configuration stream, as in the engine differential.
    let mut cfg_rng = Prng::seed_from_u64(seed ^ 0x00B5_1EE9_5E75_FFFF);
    let threads: usize = [1, 2, 3][cfg_rng.gen_range(0..3usize)];
    // Sometimes bound the resident frontier so reduced-mode frames
    // round-trip through the spill codec.
    let max_resident: usize = [0, 0, 64][cfg_rng.gen_range(0..3usize)];
    let rmw = has_rmw(&prog);
    let spurious = rmw && cfg_rng.gen_range(0..4u32) == 0;

    let params = ModelParams {
        allow_spurious_stcx_failure: spurious,
        ..ModelParams::default()
    };
    let state = build_system(&test, &params);
    let mem_obs: Vec<(u64, usize)> = test.locations.values().map(|&a| (a, 4)).collect();
    let explore = |params: &ModelParams, threads: usize| {
        explore_limited(
            &build_system(&test, params),
            &prog.reg_obs,
            &mem_obs,
            &ExploreLimits {
                threads,
                max_states: budget,
                deadline: None,
            },
        )
    };

    let full = explore_limited(
        &state,
        &prog.reg_obs,
        &mem_obs,
        &ExploreLimits {
            threads: 1,
            max_states: budget,
            deadline: None,
        },
    );
    if full.stats.truncated {
        return FuzzOutcome::Skipped;
    }

    let red_params = ModelParams {
        reduced: true,
        ..params.clone()
    };
    let red_seq = explore(&red_params, 1);
    let red = explore(
        &ModelParams {
            max_resident_states: max_resident,
            ..red_params.clone()
        },
        threads,
    );

    let context = || {
        format!(
            "por seed {seed:#018x} ({threads} reduced workers, max resident {max_resident}, \
             spurious stcx {spurious})\n\
             replay: ORACLE_POR_SEED={seed:#x} ORACLE_POR_PROGRAMS=1 \
             cargo test --release --test oracle_fuzz por_reduced\n{}",
            prog.source
        )
    };
    assert!(
        !red.stats.truncated && !red_seq.stats.truncated,
        "reduced engine truncated where the unreduced reference did not\n{}",
        context()
    );
    // Every reduced transition is a real one, so the reduced search
    // visits a subset of the unreduced states.
    assert!(
        red_seq.stats.states <= full.stats.states
            && red_seq.stats.transitions <= full.stats.transitions,
        "reduction visited more ({} states, {} transitions vs {}, {})\n{}",
        red_seq.stats.states,
        red_seq.stats.transitions,
        full.stats.states,
        full.stats.transitions,
        context()
    );
    assert_eq!(
        (red.stats.states, red.stats.transitions),
        (red_seq.stats.states, red_seq.stats.transitions),
        "reduced counts depend on the engine\n{}",
        context()
    );
    assert!(
        full.finals == red.finals && full.finals == red_seq.finals,
        "the reduction changed the finals (unreduced {} vs reduced {} / {})\n{}",
        full.finals.len(),
        red_seq.finals.len(),
        red.finals.len(),
        context()
    );
    FuzzOutcome::Checked { rmw }
}

#[test]
fn por_reduced_matches_unreduced_finals() {
    let programs = env_u64("ORACLE_POR_PROGRAMS", 100) as usize;
    // Disjoint seed base from the engine sweep, so the two differentials
    // cover different program ranges in the same CI run.
    let base = env_u64("ORACLE_POR_SEED", 0x5EE9_5E75_0DD5_EED5);
    let budget = env_u64("ORACLE_POR_BUDGET", 10_000) as usize;

    let mut checked = 0usize;
    let mut skipped = 0usize;
    let mut rmw_checked = 0usize;
    let mut wrong_path_checked = 0usize;
    for i in 0..programs {
        let seed = base.wrapping_add(i as u64);
        let outcome = std::panic::catch_unwind(|| por_differential_check(seed, budget))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string panic payload)");
                panic!(
                    "por seed {seed:#018x} panicked\n\
                         replay: ORACLE_POR_SEED={seed:#x} ORACLE_POR_PROGRAMS=1 \
                         cargo test --release --test oracle_fuzz por_reduced\n\
                         {}\npanic: {msg}",
                    gen_program(seed).source
                )
            });
        match outcome {
            FuzzOutcome::Checked { rmw } => {
                checked += 1;
                rmw_checked += usize::from(rmw);
                wrong_path_checked += usize::from(has_wrong_path(&gen_program(seed)));
            }
            FuzzOutcome::Skipped => skipped += 1,
        }
    }
    println!(
        "por fuzz: {checked} programs checked ({rmw_checked} with lwarx/stwcx., \
         {wrong_path_checked} with a wrong path), \
         {skipped} skipped (base seed {base:#x})"
    );
    assert!(
        checked >= programs.div_ceil(2),
        "only {checked}/{programs} por fuzz programs fit the {budget}-state budget — \
         shrink the generator shapes or raise the budget"
    );
    assert!(
        programs < 50 || wrong_path_checked > 0,
        "no checked program ran a wrong path — widen the seed range"
    );
}

/// Walk a bounded random prefix of one generated program, and at every
/// visited state check that each enabled pair the footprint relation
/// deems [`independent`] really commutes: each transition leaves the
/// other enabled, and the two interleavings converge on the *same*
/// successor state. This ties the conservative component-mask relation
/// to the semantic property its docs claim.
/// Returns how many independent pairs were checked.
fn por_commutation_check(seed: u64, max_pairs: usize) -> usize {
    let prog = gen_program(seed);
    let test = parse(&prog.source).unwrap_or_else(|e| {
        panic!(
            "por seed {seed:#018x}: generated source failed to parse: {e}\n{}",
            prog.source
        )
    });
    let mut rng = Prng::seed_from_u64(seed ^ 0xC033_07E5_0000_0000);
    let mut state = build_system(&test, &ModelParams::default());
    let mut pairs = 0usize;
    for step in 0..12 {
        let ts = state.enumerate_transitions();
        if ts.is_empty() {
            break;
        }
        'pairs: for i in 0..ts.len() {
            for j in (i + 1)..ts.len() {
                let (a, b) = (&ts[i], &ts[j]);
                if !independent(&state, a, b) {
                    continue;
                }
                let sa = state.apply(a);
                let sb = state.apply(b);
                assert!(
                    sa.enumerate_transitions().contains(b),
                    "por seed {seed:#018x} step {step}: {b:?} claimed independent of \
                     {a:?} but is disabled after it\n{}",
                    prog.source
                );
                assert!(
                    sb.enumerate_transitions().contains(a),
                    "por seed {seed:#018x} step {step}: {a:?} claimed independent of \
                     {b:?} but is disabled after it\n{}",
                    prog.source
                );
                assert!(
                    sa.apply(b) == sb.apply(a),
                    "por seed {seed:#018x} step {step}: independent pair does not \
                     commute ({a:?} vs {b:?})\n{}",
                    prog.source
                );
                pairs += 1;
                if pairs >= max_pairs {
                    break 'pairs;
                }
            }
        }
        let pick = rng.gen_range(0..ts.len() as u32) as usize;
        state = state.apply(&ts[pick]);
    }
    pairs
}

#[test]
fn por_independent_pairs_commute() {
    let programs = env_u64("ORACLE_POR_COMMUTE_PROGRAMS", 40) as usize;
    // Offset from the finals sweep so the two por tests see different
    // programs too.
    let base = env_u64("ORACLE_POR_SEED", 0x5EE9_5E75_0DD5_EED5) ^ 0x00FF_0000_0000_0000;
    let mut total = 0usize;
    for i in 0..programs {
        let seed = base.wrapping_add(i as u64);
        total += por_commutation_check(seed, 16);
    }
    println!("por commutation: {total} independent pairs checked across {programs} programs");
    // If the relation stops finding independent pairs this test is
    // silently vacuous.
    assert!(
        total >= programs,
        "only {total} independent pairs in {programs} programs — \
         the independence relation has gone vacuous"
    );
}

/// The reduction on real library tests: a small/medium slice (the full
/// 73-test sweep runs via `conformance --reduced` in CI) must keep the
/// verdict — final-state count, witness, quantified condition — exactly,
/// while firing no more transitions than the unreduced engine.
#[test]
fn por_reduced_library_slice_keeps_verdicts() {
    const SLICE: &[&str] = &[
        "CoWW",
        "CoRR",
        "SB",
        "MP",
        "LB",
        "MP+syncs",
        "MP+sync+addr",
        "MP+sync+ctrl",
    ];
    let limits = ExploreLimits {
        threads: 1,
        max_states: ModelParams::DEFAULT_MAX_STATES,
        deadline: None,
    };
    for name in SLICE {
        let e = library()
            .into_iter()
            .find(|e| e.name == *name)
            .unwrap_or_else(|| panic!("{name} in library"));
        let test = parse(e.source).expect("library parses");
        let full = run_limited(&test, &ModelParams::default(), &limits);
        let red_params = ModelParams {
            reduced: true,
            ..ModelParams::default()
        };
        let red = run_limited(&test, &red_params, &limits);
        assert!(
            !full.stats.truncated && !red.stats.truncated,
            "{name}: library slice must fit the default budget"
        );
        assert_eq!(
            (full.finals, full.witnessed, full.holds),
            (red.finals, red.witnessed, red.holds),
            "{name}: the reduction changed the verdict"
        );
        assert!(
            red.stats.transitions <= full.stats.transitions,
            "{name}: reduction fired more transitions ({} vs {})",
            red.stats.transitions,
            full.stats.transitions
        );
    }
}

/// Byte-identical finals on a library test, through the same observation
/// extraction the harness uses — not just counts. `MP+syncs` is the
/// largest Forbidden slice member, so agreement is over the full
/// reachable envelope (no early witness can mask a divergence).
#[test]
fn por_reduced_library_finals_byte_identical() {
    let e = library()
        .into_iter()
        .find(|e| e.name == "MP+syncs")
        .expect("MP+syncs in library");
    let test = parse(e.source).expect("library parses");
    let mut regs = Vec::new();
    test.cond.expr.reg_atoms(&mut regs);
    regs.sort_unstable();
    regs.dedup();
    let reg_obs: Vec<(usize, Reg)> = regs.into_iter().map(|(t, g)| (t, Reg::Gpr(g))).collect();
    let mem_obs: Vec<(u64, usize)> = test.locations.values().map(|&a| (a, 4)).collect();
    let limits = ExploreLimits {
        threads: 1,
        max_states: ModelParams::DEFAULT_MAX_STATES,
        deadline: None,
    };
    let full_state = build_system(&test, &ModelParams::default());
    let full = explore_limited(&full_state, &reg_obs, &mem_obs, &limits);
    let red_params = ModelParams {
        reduced: true,
        ..ModelParams::default()
    };
    let red_state = build_system(&test, &red_params);
    let red = explore_limited(&red_state, &reg_obs, &mem_obs, &limits);
    assert!(!full.stats.truncated && !red.stats.truncated);
    assert!(
        full.finals == red.finals,
        "MP+syncs: reduced finals diverged (unreduced {} vs reduced {})",
        full.finals.len(),
        red.finals.len()
    );
}

/// A wrong-path `lwarx` whose reservation outlives its branch: `P0`
/// reads `y=1`, so `beq L` is taken and the `lwarx` is on the wrong
/// path, but it may satisfy (reserving `x`) before the branch finishes,
/// and the branch's `prune_children` removes the instance, not the
/// reservation — so the `stwcx.` after the label can succeed and write
/// `x=2`. `Dep` makes the `lwarx` address depend on the `lwz`; the
/// twin does not.
const WRONG_PATH_LWARX: [(&str, &str); 2] = [
    (
        "WrongPathLwarxDep",
        "POWER WrongPathLwarxDep
{ 0:r1=x; 0:r2=y; 0:r7=1; 0:r8=2; x=0; y=1; }
 P0 ;
 lwz r5,0(r2) ;
 xor r9,r5,r5 ;
 cmpw r5,r7 ;
 beq L ;
 lwarx r6,r9,r1 ;
 L: ;
 stwcx. r8,r0,r1 ;
exists (x=2)
",
    ),
    (
        "WrongPathLwarx",
        "POWER WrongPathLwarx
{ 0:r1=x; 0:r2=y; 0:r7=1; 0:r8=2; x=0; y=1; }
 P0 ;
 lwz r5,0(r2) ;
 cmpw r5,r7 ;
 beq L ;
 lwarx r6,r0,r1 ;
 L: ;
 stwcx. r8,r0,r1 ;
exists (x=2)
",
    ),
];

/// The reduced finals of the wrong-path programs equal the exhaustive
/// ones, `x=2` included, sequentially and on two threads. Firing *any*
/// enabled `Finish` eagerly — branches included — fails this test: the
/// branch finishes before the wrong-path `lwarx` can reserve, and `x=2`
/// is lost (in debug builds the commutation audit fails first).
#[test]
fn por_wrong_path_reservation_keeps_finals() {
    for (name, source) in WRONG_PATH_LWARX {
        let test = parse(source).expect("wrong-path program parses");
        let mem_obs: Vec<(u64, usize)> = test.locations.values().map(|&a| (a, 4)).collect();
        let reg_obs = [(0, Reg::Gpr(6))];
        for threads in [1, 2] {
            let limits = ExploreLimits {
                threads,
                max_states: ModelParams::DEFAULT_MAX_STATES,
                deadline: None,
            };
            let run = |reduced: bool| {
                let params = ModelParams {
                    reduced,
                    ..ModelParams::default()
                };
                let finals =
                    explore_limited(&build_system(&test, &params), &reg_obs, &mem_obs, &limits);
                (finals, run_limited(&test, &params, &limits))
            };
            let (full, full_verdict) = run(false);
            let (red, red_verdict) = run(true);
            assert!(!full.stats.truncated && !red.stats.truncated);
            assert!(
                full_verdict.witnessed,
                "{name}: x=2 is reachable exhaustively"
            );
            assert!(red_verdict.witnessed, "{name}: the reduction lost x=2");
            assert!(
                full.finals == red.finals,
                "{name} ({threads} threads): reduced finals diverged ({} vs {})",
                full.finals.len(),
                red.finals.len()
            );
        }
    }
}
