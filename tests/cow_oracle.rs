//! Differential tests for copy-on-write successor generation.
//!
//! The CoW state layout (`Arc`-shared thread states, instruction
//! instances, and storage components, with `Arc::make_mut` on mutation
//! plus compute-once cached digests) must be *observably invisible*:
//! applying a transition to a state whose components are shared with a
//! predecessor must yield exactly the state that a fully independent
//! deep copy would yield — structurally equal, same digest, same
//! canonical bytes. The deep-copy baseline is built through the
//! canonical codec (`decode(encode(s))`), which produces a state
//! sharing *no* dynamic structure with the original (only the immutable
//! program cache), so a missed copy-on-write or a stale digest cache
//! shows up as a divergence here. Both halves go through throwaway
//! contexts ([`deep_copy`]): a long-lived context's component memo
//! answers an encode from bytes it remembers for that `Arc` and a
//! decode with the very `Arc`s it encoded, which is no copy at all.

mod common;

use common::gen_program;
use ppcmem::bits::Prng;
use ppcmem::litmus::{build_system, parse};
use ppcmem::model::{decode_state, encode_state, CodecCtx, ModelParams, SystemState};
use std::sync::Arc;

/// `state` rebuilt from its canonical bytes by a fresh context: every
/// thread, instance and storage component newly allocated and uniquely
/// owned, every digest cell and enumeration cache empty.
fn deep_copy(state: &SystemState) -> SystemState {
    let deep =
        decode_state(&encode_state(state), &state.program, &state.params).expect("state decodes");
    let shared = (deep.threads.iter().zip(&state.threads)).any(|(d, s)| Arc::ptr_eq(d, s));
    assert!(
        !shared && !Arc::ptr_eq(&deep.storage, &state.storage),
        "the deep-copy baseline shares a component with the original"
    );
    deep
}

/// One step of the differential: for each enabled transition, apply it
/// both to the (Arc-sharing) `state` and to an independent deep clone,
/// and require identical results. Returns a random CoW successor to
/// continue the walk (so later states share structure across several
/// generations of predecessors).
fn check_state(state: &SystemState, ctx: &CodecCtx, rng: &mut Prng) -> Option<SystemState> {
    let deep = deep_copy(state);
    assert!(deep == *state, "deep clone differs before any transition");
    assert_eq!(deep.digest(), state.digest());

    let ts = state.enumerate_transitions();
    assert_eq!(deep.enumerate_transitions(), ts);
    // Enumeration-trace differential: the per-component transition
    // caches (possibly populated by ancestors sharing the same Arcs)
    // must reproduce exactly what a cache-bypassing full rescan
    // enumerates — per slot, not just as a flat list — so a missed
    // cache invalidation in a mutation funnel fails loudly here.
    let trace_cached = state.enumerate_traced();
    let trace_rescan = state.enumerate_rescan_traced();
    assert_eq!(
        trace_cached, trace_rescan,
        "cached enumeration diverged from the full-rescan reference"
    );
    let flat: Vec<_> = trace_cached
        .0
        .iter()
        .flatten()
        .copied()
        .map(ppcmem::model::Transition::Thread)
        .chain(
            trace_cached
                .1
                .iter()
                .copied()
                .map(ppcmem::model::Transition::Storage),
        )
        .collect();
    assert_eq!(
        flat, ts,
        "enumeration trace does not concatenate to enumerate_transitions"
    );
    if ts.is_empty() {
        return None;
    }
    for t in &ts {
        // CoW path: `state` still shares thread/storage Arcs with its
        // own predecessors, and `succ` will share whatever `t` leaves
        // untouched. Baseline path: `deep` owns everything uniquely, so
        // every make_mut is the refcount-1 in-place case.
        let succ = state.apply(t);
        let base = deep.apply(t);
        assert!(
            succ == base,
            "CoW-applied successor differs from deep-clone-then-apply: {t:?}"
        );
        assert_eq!(
            succ.digest(),
            base.digest(),
            "successor digests diverged (stale digest cache?): {t:?}"
        );
        // Canonical bytes must not depend on how much structure the
        // successor shares with its ancestors.
        assert_eq!(
            ctx.encode(&succ),
            ctx.encode(&base),
            "canonical bytes depend on Arc sharing: {t:?}"
        );
        // Advance-trace differential: the incremental dirty-instance
        // worklist must step exactly the instances the retained
        // full-rescan reference steps (a missed worklist seed would
        // silently skip a wake-up and only *sometimes* change finals;
        // the trace comparison catches it on every transition).
        let (succ_inc, trace_inc) = state.apply_traced(t);
        let (succ_ref, trace_ref) = state.apply_rescan_traced(t);
        assert!(
            succ_inc == succ && succ_ref == succ,
            "traced engines disagree with apply: {t:?}"
        );
        assert_eq!(
            trace_inc, trace_ref,
            "worklist advance trace diverged from the full-rescan reference: {t:?}"
        );
    }
    let pick = rng.gen_range(0..ts.len() as u32) as usize;
    Some(state.apply(&ts[pick]))
}

/// Walk a random exploration path, running the full differential at
/// every prefix state.
fn check_random_walk(initial: &SystemState, rng: &mut Prng, steps: usize) -> usize {
    let ctx = CodecCtx::for_state(initial);
    let mut state = initial.clone();
    let mut checked = 0;
    for _ in 0..=steps {
        checked += 1;
        match check_state(&state, &ctx, rng) {
            Some(next) => state = next,
            None => break,
        }
    }
    checked
}

#[test]
fn cow_successors_match_deep_clone_baseline_fuzz() {
    let mut rng = Prng::seed_from_u64(0xC0DE_CB0B_0000_0001);
    let params = ModelParams::default();
    let mut checked = 0;
    let mut rmw_seen = 0;
    for seed in 0..24u64 {
        let prog = gen_program(0xBEEF_0000 + seed);
        rmw_seen += usize::from(common::has_rmw(&prog));
        let test = parse(&prog.source).expect("generated program parses");
        let initial = build_system(&test, &params);
        checked += check_random_walk(&initial, &mut rng, 24);
    }
    assert!(
        checked > 200,
        "only {checked} states differentially checked"
    );
    assert!(
        rmw_seen > 0,
        "generator never produced a reservation pair; widen the seed range"
    );
}

/// Digest-cache soundness along a deep chain: a digest read early (and
/// cached) must equal a from-scratch recomputation by an independent
/// copy at every depth, even as ancestors sharing the same `Arc`s are
/// mutated into successors.
#[test]
fn cached_digests_stay_sound_down_a_shared_chain() {
    let params = ModelParams::default();
    let mut rng = Prng::seed_from_u64(0xD16E_5700);
    let prog = gen_program(0xBEEF_CAFE);
    let test = parse(&prog.source).expect("generated program parses");
    let initial = build_system(&test, &params);

    // Keep the whole chain alive so Arc refcounts stay > 1 and every
    // apply takes the genuine copy-on-write path (make_mut must clone).
    let mut chain: Vec<SystemState> = vec![initial];
    for _ in 0..40 {
        let state = chain.last().expect("non-empty");
        let digest_cached = state.digest(); // populate the cache
        let fresh = deep_copy(state);
        assert_eq!(
            digest_cached,
            fresh.digest(),
            "cached digest differs from an independent recomputation"
        );
        let ts = state.enumerate_transitions();
        if ts.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..ts.len() as u32) as usize;
        let next = state.apply(&ts[pick]);
        chain.push(next);
    }
    assert!(chain.len() > 5, "walk ended too early to test sharing");

    // Every ancestor must still equal its own round-trip: successors
    // mutating shared structure may never write through to it.
    for (depth, state) in chain.iter().enumerate() {
        let fresh = deep_copy(state);
        assert!(
            fresh == *state,
            "ancestor at depth {depth} was mutated by a descendant"
        );
        assert_eq!(fresh.digest(), state.digest());
    }
}

/// The `debug_assertions` digest audit must catch a mutation that
/// bypasses the `thread_mut`/`inst_mut`/`storage_mut` funnels — the
/// ROADMAP's standing digest hazard. A stale cached digest silently
/// collides (or splits) visited-set entries, dropping states; the audit
/// turns that into a loud failure at successor-publish time.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "stale cached digest")]
fn digest_audit_catches_funnel_bypass() {
    let params = ModelParams::default();
    let prog = gen_program(0xBEEF_0001);
    let test = parse(&prog.source).expect("generated program parses");
    let mut state = build_system(&test, &params);
    let _ = state.digest(); // populate every cache level
                            // Bypass the funnel: mutate a digested field through the Arc
                            // directly, without invalidating (the state is sole owner, so no
                            // CoW clone empties the cell for us).
    let th = Arc::get_mut(&mut state.threads[0]).expect("sole owner");
    th.reservation = Some((0xdead, 4));
    let _ = state.digest(); // audit must detect the stale thread cell
}
