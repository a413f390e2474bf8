//! The successor memo: differential against the memo-less engines, the
//! footprint claim it stands on, the sharing it buys, and its bounds.
//! The differential over the litmus library and the fuzz generator's
//! programs is in `tests/succ_memo.rs`.

use super::*;
use crate::reduction::{check_write_set, footprint};
use crate::tests::{mp_system, sb_system, sys, two_plus_two_w_system, wrc_pos_system, W, X, Y, Z};
use std::collections::HashSet;

/// The model-level systems every test here runs on.
fn systems() -> [(&'static str, SystemState); 4] {
    [
        ("SB", sb_system()),
        ("MP", mp_system()),
        ("WRC+pos", wrc_pos_system()),
        ("2+2W", two_plus_two_w_system()),
    ]
}

/// Call `f` once per state reachable from `initial`, with every enabled
/// transition and its successor — found with `apply` alone, no memo.
fn walk(initial: &SystemState, mut f: impl FnMut(&SystemState, &[(Transition, SystemState)])) {
    let mut seen = HashSet::from([initial.digest()]);
    let mut stack = vec![initial.clone()];
    while let Some(s) = stack.pop() {
        let succs: Vec<(Transition, SystemState)> = s
            .enumerate_transitions()
            .into_iter()
            .map(|t| {
                let next = s.apply(&t);
                (t, next)
            })
            .collect();
        f(&s, &succs);
        for (_, next) in succs {
            if seen.insert(next.digest()) {
                stack.push(next);
            }
        }
    }
}

/// (a) Every engine configuration explores the same states, fires the
/// same transitions and reaches the same finals with the memo as with
/// every memo disengaged — and the memo accounts for every transition.
#[test]
fn succ_memo_engines_match_memoless_on_model_tests() {
    const MODES: [(&str, usize, bool, usize); 4] = [
        ("sequential", 1, false, 0),
        ("threads = 2", 2, false, 0),
        ("reduced", 1, true, 0),
        ("max_resident_states = 16", 1, false, 16),
    ];
    for (name, initial) in systems() {
        let reg_obs: Vec<(ThreadId, Reg)> = (0..initial.threads.len())
            .flat_map(|tid| (4..7).map(move |g| (tid, Reg::Gpr(g))))
            .collect();
        let mem_obs = [X, Y, Z, W].map(|a| (a, 4));
        for (mode, threads, reduced, resident) in MODES {
            let mut s = initial.clone();
            s.params.reduced = reduced;
            s.params.max_resident_states = resident;
            let limits = ExploreLimits {
                threads,
                ..ExploreLimits::default()
            };
            let memo = explore_limited(&s, &reg_obs, &mem_obs, &limits);
            let reference = explore_limited_memoless(&s, &reg_obs, &mem_obs, &limits);
            let what = format!("{name}, {mode}");
            assert!(
                !memo.stats.truncated && !reference.stats.truncated,
                "{what}"
            );
            assert!(memo.finals == reference.finals, "{what}: finals diverged");
            assert_eq!(
                (memo.stats.states, memo.stats.transitions),
                (reference.stats.states, reference.stats.transitions),
                "{what}: counts diverged"
            );
            let (used, unused) = (memo.succ_memo.total(), reference.succ_memo.total());
            assert_eq!(
                used.hits + used.misses,
                memo.stats.transitions as u64,
                "{what}"
            );
            assert!(used.hits > 0, "{what}: the memo never hit");
            assert_eq!((unused.hits, reference.succ_memo.slots), (0, 0), "{what}");
        }
    }
}

/// (b) The write-set half of every footprint, for every enabled
/// transition of every reachable state: `apply` leaves each component
/// outside W `Arc::ptr_eq` to the parent's and the id allocators alone
/// unless `ID ∈ W`. The reduction's independence relation and the memo
/// both stand on it (debug builds also check it on every transition the
/// engines apply, which covers the fuzz programs).
#[test]
fn succ_memo_footprint_write_sets_hold() {
    let mut checked = 0;
    for (name, initial) in systems() {
        walk(&initial, |s, succs| {
            for (t, next) in succs {
                let (_, w) = footprint(s, t);
                if let Err(e) = check_write_set(s, next, w) {
                    panic!("{name}: {t:?}: {e}");
                }
                checked += 1;
            }
        });
    }
    assert!(checked > 100_000, "only {checked} transitions checked");
}

/// (c) Siblings that share a thread `Arc` and fire the same thread-local
/// transition on it get the very same successor thread from one memo,
/// where `apply` would build two equal copies.
#[test]
fn succ_memo_siblings_share_successor_threads() {
    let mut memo = SuccMemo {
        engage_after: 0,
        ..SuccMemo::new()
    };
    let mut shared = 0;
    walk(&sb_system(), |_, succs| {
        for (i, (_, one)) in succs.iter().enumerate() {
            for (_, two) in &succs[i + 1..] {
                for a in one.enumerate_transitions() {
                    let (r, w) = footprint(one, &a);
                    let tid = match a {
                        Transition::Thread(_) if (r | w).count_ones() == 1 => {
                            (r | w).trailing_zeros() as ThreadId
                        }
                        _ => continue,
                    };
                    if !Arc::ptr_eq(&one.threads[tid], &two.threads[tid]) {
                        continue;
                    }
                    let (x, y) = (memo.successor(one, &a), memo.successor(two, &a));
                    assert!(
                        Arc::ptr_eq(&x.threads[tid], &y.threads[tid]),
                        "{a:?}: siblings got two copies of thread {tid}"
                    );
                    shared += 1;
                }
            }
        }
    });
    assert!(shared > 1000, "only {shared} shared firings checked");
    assert!(memo.stats().thread_local.hits >= shared);
}

/// (d) A sequential run's counters are a function of the run, and every
/// fired transition is one hit or one miss.
#[test]
fn succ_memo_counters_repeat_exactly() {
    let run = || explore_limited(&wrc_pos_system(), &[], &[], &ExploreLimits::default());
    let (one, two) = (run(), run());
    assert_eq!(
        one.succ_memo, two.succ_memo,
        "counters differ between identical runs"
    );
    let all = one.succ_memo.total();
    assert_eq!(all.hits + all.misses, one.stats.transitions as u64);
    assert!(
        all.hits > 2 * all.misses,
        "WRC+pos should mostly hit: {}",
        one.succ_memo
    );
    let slots = one.succ_memo.slots;
    assert!(
        slots.is_power_of_two() && (SUCC_MEMO_MIN_SLOTS..=SUCC_MEMO_MAX_SLOTS).contains(&slots)
    );
}

/// (d) Fed every edge of all four state graphs — more distinct keys
/// than it has slots (keys equal up to `Arc` identity share a slot, so
/// WRC+pos alone fills only half) — one table grows to its bound and
/// stops there.
#[test]
fn succ_memo_table_stays_bounded() {
    let mut memo = SuccMemo::new();
    for (_, initial) in systems() {
        walk(&initial, |s, succs| {
            for (t, next) in succs {
                assert!(memo.successor(s, t) == *next);
                assert!(memo.slots.len() <= SUCC_MEMO_MAX_SLOTS);
            }
        });
    }
    assert_eq!(memo.slots.len(), SUCC_MEMO_MAX_SLOTS);
    assert!(memo.occupied > SUCC_MEMO_MAX_SLOTS * 3 / 4);
}

/// (d) An exploration that fires fewer transitions than the engagement
/// threshold never allocates a table: every successor is applied.
#[test]
fn succ_memo_small_exploration_allocates_no_table() {
    let initial = sys(
        &[(&["stw r7,0(r1)", "lwz r5,0(r1)"], &[(1, X), (7, 1)])],
        &[],
        ModelParams::default(),
    );
    let out = explore_limited(&initial, &[], &[], &ExploreLimits::default());
    let transitions = out.stats.transitions as u64;
    assert!(transitions > 0 && transitions < SUCC_MEMO_ENGAGE_AFTER);
    assert_eq!(out.succ_memo.slots, 0);
    assert_eq!(
        out.succ_memo.total(),
        SuccCounts {
            hits: 0,
            misses: transitions
        }
    );
}
