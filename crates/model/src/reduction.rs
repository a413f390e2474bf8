//! The oracle's one reduction — eager non-branch `Finish`, what
//! [`crate::ModelParams::reduced`] turns on — with its proof, and the
//! component footprints of [`Transition`]s.
//!
//! # Eager `Finish`
//!
//! In a state `s` where some instruction instance that is not a branch
//! can finish, `eager_finish` names the first such
//! `F = Finish { tid, ioid }` in enumeration order, and the oracle's
//! `expand` fires `F` alone; a state with no such transition fires
//! everything. `{F}` is a persistent set: every final reachable from `s`
//! is reachable through `F` first. `Finish` is 58 % of the transitions
//! an exhaustive library30 search fires, so this cuts library30 from
//! 884,248 states to 64,687 and the 73-test corpus from 1,360,642 to
//! 133,374, with identical finals. The choice reads only the state, so
//! a state is expanded the same way whichever path or engine reaches
//! it: dedup by digest stays sound and reduced counts are the same in
//! every engine. The proof has three parts.
//!
//! 1. **Stability.** Once enabled, `F` stays enabled under every other
//!    transition. Every conjunct of `can_finish` is monotone. The
//!    instance is done, its writes are committed, its barrier
//!    obligations are met, and its register sources are finished; only
//!    a restart could undo any of that, and `finished` never resets.
//!    It is non-speculative (every po-previous branch is finished) and
//!    load-stable: every po-previous write footprint is determined,
//!    every overlapping po-previous write is committed, and every
//!    overlapping po-previous load is finished. Restarts come only from
//!    a po-previous write or read that overlaps a satisfied read, and
//!    the restart walks skip finished instances, so nothing can restart
//!    a load-stable, non-speculative instance or its register sources.
//! 2. **Commutation.** A non-branch `Finish` writes only
//!    `inst.finished` (its `prune_children` removes nothing: a
//!    non-branch has one possible successor address), plus the eager
//!    progress that flag seeds in its own thread. Every predicate reads
//!    `finished` of *another* instance only as a permission (a finished
//!    source, a finished po-previous load or branch, a write that can
//!    no longer change), so every other enabled `u` stays enabled after
//!    `F`, and `u`'s effect does not read the flag it could be waiting
//!    on: the restart walks that skip finished instances never meet
//!    the finishable one (part 1). Both orders therefore reach the same
//!    state. Two cases touch `F`'s thread from outside it.
//!    `AcknowledgeSync` writes `t(origin)`, setting `barrier_acked` on a
//!    `sync`; but a `sync` cannot be finishable before it is acked, so
//!    `F` names another instance and the two writes are disjoint.
//!    `PropagateWrite` can kill the destination thread's reservation,
//!    which `Finish` neither reads nor writes.
//! 3. **Preservation.** The instance is non-speculative, so no later
//!    branch `Finish` prunes it (a branch prunes only its own po-later
//!    children), and it cannot restart (part 1); every final has every
//!    instance finished, so every path from `s` to a final fires `F`
//!    exactly once. By parts 1 and 2, `F` can be moved to the front of
//!    that path without changing where it ends: each state before it
//!    has `F` enabled and commuting with the next step. Induction on
//!    path length then shows the reduced search from `apply(s, F)`
//!    reaches every final the path reached.
//!
//! Debug builds check parts 1 and 2 on every eager choice
//! (`audit_eager_finish`): for each other enabled `u`, `F` is enabled
//! in `apply(s, u)`, `u` is enabled in `apply(s, F)`, and the two
//! orders reach equal states, structurally and by digest.
//!
//! **Why branches are excluded.** A branch's `Finish` runs
//! `prune_children`, and a wrong-path `lwarx` that satisfied before
//! that keeps its reservation: `SatisfyReadStorage` sets it, and
//! pruning only removes instances. Finishing the branch first disables
//! that satisfy, so the two do not commute, and the naive "any
//! `Finish`" rule loses finals (`WrongPathLwarxDep` in
//! `tests/oracle_fuzz.rs` reaches `x=2` only through the wrong-path
//! reservation). Excluding branches costs 0.2 % of the reduction
//! (64,575 → 64,687 states on library30).
//!
//! Under a context bound ([`crate::ModelParams::max_context_switches`])
//! the bound may suppress the eager `Finish` itself; the run then
//! reports `bounded`, as every bounded run that cuts a path does.
//!
//! # Footprints
//!
//! The footprint is load-bearing in *every* exploration mode: the
//! oracle's successor memo keys a transition on the components of its
//! R ∪ W set and swaps in the successor's copies of them (see the
//! `oracle` module docs, *Successor memo*). A missing read would let
//! the memo serve one state's successor to another that differs in the
//! unlisted component — which is why debug builds re-derive every memo
//! hit and check, on every applied transition, that nothing outside W
//! changed (`check_write_set`).
//!
//! Each transition is assigned read/write sets over the *components* of
//! a [`SystemState`] — per-thread [`crate::ThreadState`]s, per-thread
//! storage propagation lists, and the global storage tables — encoded
//! as bits of a `u64` mask. Two transitions are [`independent`] exactly
//! when their footprints do not conflict (neither writes what the other
//! reads or writes); the commutation fuzz test in `tests/oracle_fuzz.rs`
//! checks that such pairs commute. Soundness rests on three facts about
//! the model:
//!
//! - a transition's enabling predicate and its effect (including the
//!   eager-progress advance that follows `apply`, which never consults
//!   storage state and stays within the seeded threads) read only
//!   components in its R set and mutate only components in its W set;
//! - any state-dependent part of a footprint below (a barrier's kind,
//!   a propagation's would-commit-coherence probe, an event's origin
//!   thread) is itself computed from components in the transition's R
//!   set, so footprints are stable under independent application;
//! - id allocation (`next_write_id` / `next_barrier_id`) is modelled
//!   as its own written component, so any two allocating transitions
//!   conflict — reordering them would renumber events.
//!
//! When in doubt a footprint must claim more: a missing component
//! breaks the memo, while a spurious one only costs memo hits. Threads
//! beyond [`MAX_TRACKED_THREADS`] collapse to a full mask for the same
//! reason.

use crate::storage::StorageTransition;
use crate::system::{SystemState, Transition};
use crate::thread::ThreadTransition;
use crate::types::ThreadId;
use std::sync::Arc;

/// Footprint masks track this many distinct threads; transitions naming
/// a thread at or beyond it get a full (conflicts-with-everything)
/// mask. Litmus-scale programs have 2–4 threads, so this is never hit
/// in practice — it only bounds the bit layout.
pub const MAX_TRACKED_THREADS: usize = 16;

/// Every thread bit (one per tracked [`crate::ThreadState`]).
pub(crate) const THREADS: u64 = (1 << MAX_TRACKED_THREADS) - 1;

/// Global storage writes table + writes-seen set.
const GW: u64 = 1 << 32;
/// Global coherence order.
const GC: u64 = 1 << 33;
/// Global barriers table.
const GB: u64 = 1 << 34;
/// Unacknowledged-sync-request set.
const GS: u64 = 1 << 35;
/// The `next_write_id` / `next_barrier_id` allocators.
pub(crate) const ID: u64 = 1 << 36;
/// Every bit that lives in the one [`crate::StorageState`]: the
/// per-thread propagation lists and the global tables.
pub(crate) const STORAGE: u64 = (THREADS << MAX_TRACKED_THREADS) | GW | GC | GB | GS;
/// Everything: the conservative fallback mask.
const ALL: u64 = u64::MAX;

/// The bit for thread `tid`'s [`crate::ThreadState`].
fn t(tid: ThreadId) -> u64 {
    if tid < MAX_TRACKED_THREADS {
        1 << tid
    } else {
        ALL
    }
}

/// The bit for thread `tid`'s storage propagation list.
fn l(tid: ThreadId) -> u64 {
    if tid < MAX_TRACKED_THREADS {
        1 << (MAX_TRACKED_THREADS + tid)
    } else {
        ALL
    }
}

/// The bits for every thread's propagation list (what a sync
/// acknowledgement's enabledness reads).
fn all_lists(threads: usize) -> u64 {
    if threads > MAX_TRACKED_THREADS {
        ALL
    } else {
        ((1u64 << threads) - 1) << MAX_TRACKED_THREADS
    }
}

/// The first enabled `Finish` of a non-branch instance in `enabled`
/// (the enumeration of `state`), if any: the transition a reduced
/// expansion fires alone. See the module docs for why it is enough.
pub(crate) fn eager_finish(state: &SystemState, enabled: &[Transition]) -> Option<Transition> {
    enabled.iter().copied().find(|t| {
        matches!(t, Transition::Thread(ThreadTransition::Finish { tid, ioid })
            if !state.threads[*tid].instances[*ioid].is_branch())
    })
}

/// Debug-build check of the proof's stability and commutation parts on
/// one eager choice `f` in `state`, against every other transition in
/// `enabled`.
#[cfg(debug_assertions)]
pub(crate) fn audit_eager_finish(state: &SystemState, f: &Transition, enabled: &[Transition]) {
    let after_f = state.apply(f);
    let enabled_after_f = after_f.enumerate_transitions();
    for u in enabled.iter().filter(|u| *u != f) {
        let after_u = state.apply(u);
        assert!(
            after_u.enumerate_transitions().contains(f),
            "eager {f:?} is not stable: {u:?} disables it"
        );
        assert!(
            enabled_after_f.contains(u),
            "eager {f:?} does not commute: it disables {u:?}"
        );
        let (uf, fu) = (after_u.apply(f), after_f.apply(u));
        assert!(uf == fu, "eager {f:?} does not commute with {u:?}");
        assert_eq!(
            uf.digest(),
            fu.digest(),
            "eager {f:?} and {u:?} commute to states with other digests"
        );
    }
}

/// The (read, write) component footprint of `tr` in `state`.
///
/// `tr` must be enabled in `state` (footprints consult the event
/// tables and instance the transition names).
pub(crate) fn footprint(state: &SystemState, tr: &Transition) -> (u64, u64) {
    match tr {
        Transition::Thread(tt) => match tt {
            // Purely thread-local steps: fetching, forwarding from an
            // uncommitted po-previous write, deciding a conditional
            // store as failed, finishing, and committing an `isync`
            // all read and write only the thread's own state.
            ThreadTransition::Fetch { tid, .. }
            | ThreadTransition::SatisfyReadForward { tid, .. }
            | ThreadTransition::CommitStcxFail { tid, .. }
            | ThreadTransition::Finish { tid, .. } => (t(*tid), t(*tid)),
            // Reads the thread's propagation list byte-wise (plus the
            // writes table behind the event ids); mutates only the
            // thread (satisfied read, possibly a new reservation).
            ThreadTransition::SatisfyReadStorage { tid, .. } => (t(*tid) | l(*tid) | GW, t(*tid)),
            // Accepting a write: reads the thread's own list for
            // overlapping writes and the coherence order; writes the
            // thread, its list, the writes tables, coherence, and the
            // id allocator.
            ThreadTransition::CommitWrite { tid, .. }
            | ThreadTransition::CommitStcxSuccess { tid, .. } => (
                t(*tid) | l(*tid) | GW | GC,
                t(*tid) | l(*tid) | GW | GC | ID,
            ),
            ThreadTransition::CommitBarrier { tid, ioid } => {
                let to_storage = match state.threads[*tid]
                    .instances
                    .get(*ioid)
                    .and_then(|i| i.barrier)
                {
                    Some(kind) => kind.goes_to_storage(),
                    // Unknown instance/kind: assume the wider footprint.
                    None => true,
                };
                if to_storage {
                    (t(*tid), t(*tid) | l(*tid) | GB | GS | ID)
                } else {
                    // `isync` commits thread-locally.
                    (t(*tid), t(*tid))
                }
            }
        },
        Transition::Storage(st) => match st {
            StorageTransition::PropagateWrite { write, to } => {
                // Enabledness reads the write tables, the origin
                // thread's list (B-cumulativity gate), the destination
                // list and the coherence order; applying appends to
                // the destination list, may kill the destination
                // thread's reservation, and commits coherence edges
                // when an overlapping write is already there.
                let origin = state.storage.write_origin(*write);
                let r = GW | GC | l(origin) | l(*to) | t(*to);
                let mut w = l(*to) | t(*to);
                if state.storage.would_commit_coherence(*write, *to) {
                    w |= GC;
                }
                (r, w)
            }
            StorageTransition::PropagateBarrier { barrier, to } => {
                let origin = state.storage.barrier_origin(*barrier);
                (GB | l(origin) | l(*to), l(*to))
            }
            StorageTransition::AcknowledgeSync { barrier } => {
                // Enabledness reads every propagation list; applying
                // clears the request and marks the origin thread's
                // instance acknowledged (waking its eager progress).
                let origin = state.storage.barrier_origin(*barrier);
                (GS | GB | all_lists(state.storage.threads), GS | t(origin))
            }
            StorageTransition::PartialCoherence { .. } => (GW | GC, GC),
        },
    }
}

/// Whether `a` and `b` (both enabled in `state`) are independent by
/// their footprints: applying them in either order commutes to the same
/// state and neither disables the other. Conservative — `false` is
/// always safe.
#[must_use]
pub fn independent(state: &SystemState, a: &Transition, b: &Transition) -> bool {
    let (ra, wa) = footprint(state, a);
    let (rb, wb) = footprint(state, b);
    (wa & rb) | (wb & ra) | (wa & wb) == 0
}

/// The write-set claim, checked on one applied transition: `succ` (the
/// successor of `parent` by a transition with write mask `w`) shares
/// every component outside `w` with `parent` by `Arc` pointer, and has
/// the parent's id allocators unless `ID ∈ w`.
///
/// # Errors
///
/// Names the first component that changed outside `w`.
pub(crate) fn check_write_set(
    parent: &SystemState,
    succ: &SystemState,
    w: u64,
) -> Result<(), String> {
    for (tid, (a, b)) in parent.threads.iter().zip(&succ.threads).enumerate() {
        if w & t(tid) == 0 && !Arc::ptr_eq(a, b) {
            return Err(format!("thread {tid} changed outside the write set"));
        }
    }
    if w & STORAGE == 0 && !Arc::ptr_eq(&parent.storage, &succ.storage) {
        return Err("storage changed outside the write set".into());
    }
    let ids = |s: &SystemState| (s.next_write_id, s.next_barrier_id);
    if w & ID == 0 && ids(parent) != ids(succ) {
        return Err("an id allocator moved outside the write set".into());
    }
    Ok(())
}
