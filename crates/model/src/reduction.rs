//! Component footprints of [`Transition`]s, and the conservative
//! independence relation the sleep-set partial-order reduction layer in
//! [`crate::oracle`] builds on them.
//!
//! The footprint is load-bearing in *every* exploration mode, not only
//! under the reduction: the oracle's successor memo keys a transition on
//! the components of its R ∪ W set and swaps in the successor's copies
//! of them (see the `oracle` module docs, *Successor memo*). A missing
//! read therefore costs more than pruning there — the memo would serve
//! one state's successor to another that differs in the unlisted
//! component — which is why debug builds re-derive every memo hit and
//! check, on every applied transition, that nothing outside W changed
//! (`check_write_set`).
//!
//! Two transitions enabled in the same state are *independent* when
//! applying them in either order reaches the same state and neither
//! disables the other — then exploring both interleavings is redundant,
//! and the sleep-set search prunes one of them without losing any
//! reachable state (so `Outcomes::finals` stays exactly identical to
//! the unreduced search; the POR differential in `tests/oracle_fuzz.rs`
//! pins this).
//!
//! The relation here is footprint-based and deliberately conservative:
//! each transition is assigned read/write sets over the *components* of
//! a [`SystemState`] — per-thread [`crate::ThreadState`]s, per-thread
//! storage propagation lists, and the global storage tables — encoded
//! as bits of a `u64` mask. Transitions are independent exactly when
//! their footprints do not conflict (neither writes what the other
//! reads or writes). Soundness rests on three facts about the model:
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
//! When in doubt the relation must say *dependent*: a missing conflict
//! breaks the reduction's exhaustiveness, while a spurious conflict
//! only costs pruning. Threads beyond [`MAX_TRACKED_THREADS`] collapse
//! to a full mask (always dependent) for the same reason.

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

/// Whether `a` and `b` (both enabled in `state`) are independent:
/// applying them in either order commutes to the same state and
/// neither disables the other. Conservative — `false` is always safe.
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
