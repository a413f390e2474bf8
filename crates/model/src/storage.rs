//! The storage subsystem model (paper §5).
//!
//! The state is the paper's record, reproduced here field-for-field:
//!
//! ```text
//! type storage_subsystem_state = <|
//!   threads: set thread_id;
//!   writes_seen: set write;
//!   coherence: rel write write;
//!   events_propagated_to: thread_id -> list event;
//!   unacknowledged_sync_requests: set barrier; |>
//! ```
//!
//! Transitions: accept a write or barrier from a thread, propagate a
//! write or barrier to another thread, acknowledge a sync, answer a read
//! request, and commit new coherence edges. Accepting and read-answering
//! are fused with the corresponding thread transitions (the thread cannot
//! observe the intermediate state, so no behaviour is lost); the
//! remaining transitions are enumerated by the system layer.
//!
//! Mixed-size support (the §5 extension over PLDI'11): coherence relates
//! *overlapping* writes of distinct footprints, and read requests are
//! answered byte-wise from the most recent propagated write covering each
//! byte.

use crate::types::{
    BarrierEv, BarrierId, DigestCell, Digested, ThreadId, TransitionCache, Write, WriteId, INIT_TID,
};
use ppc_bits::Bv;
use ppc_idl::BarrierKind;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An event in a per-thread propagation list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageEvent {
    /// A propagated write.
    W(WriteId),
    /// A propagated barrier.
    B(BarrierId),
}

/// The storage-subsystem half of a system state.
///
/// Lives behind an `Arc` inside [`crate::SystemState`], and every
/// non-scalar component is behind its own `Arc`, so copy-on-write
/// successor generation clones only what a transition actually touches:
/// a thread-only transition shares the whole storage state, a write
/// propagation clones one per-thread event list (plus coherence if new
/// edges commit), and so on. Mutation goes through
/// [`crate::SystemState::storage_mut`], which invalidates the cached
/// digest; the `&mut self` methods here additionally invalidate it
/// themselves, so direct use on an owned state stays correct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageState {
    /// Number of (real) threads.
    pub threads: usize,
    /// All write events, by id (append-only table; initial writes
    /// included).
    pub writes: Arc<Digested<BTreeMap<WriteId, Write>>>,
    /// All barrier events, by id.
    pub barriers: Arc<Digested<BTreeMap<BarrierId, BarrierEv>>>,
    /// The writes the storage subsystem has seen.
    pub writes_seen: Arc<Digested<BTreeSet<WriteId>>>,
    /// Coherence: a strict partial order over overlapping writes, kept
    /// transitively closed.
    pub coherence: Arc<Digested<BTreeSet<(WriteId, WriteId)>>>,
    /// Events propagated to each thread, oldest first. Each thread's
    /// list is independently shared, so propagating to one thread leaves
    /// the other lists untouched.
    pub events_propagated_to: Vec<Arc<Digested<Vec<StorageEvent>>>>,
    /// Sync barriers not yet acknowledged to their origin thread.
    pub unacknowledged_sync_requests: Arc<Digested<BTreeSet<BarrierId>>>,
    /// Compute-once cache of [`StorageState::digest`]: the fold of the
    /// per-component digests (each cached inside its component's `Arc`
    /// via [`Digested`], so a storage transition re-hashes only the
    /// component it touched and this fold re-combines ~six cached
    /// 64-bit values).
    pub(crate) digest: DigestCell,
    /// Compute-once cache of the enabled storage transitions (see
    /// [`TransitionCache`]). Invalidated wherever `digest` is.
    pub(crate) enum_cache: TransitionCache<StorageTransition>,
}

/// Storage transitions enumerated by the system layer. All-scalar and
/// `Copy`, so replaying a cached enumeration is a flat memcpy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageTransition {
    /// Propagate a write to another thread.
    PropagateWrite {
        /// The write.
        write: WriteId,
        /// Destination thread.
        to: ThreadId,
    },
    /// Propagate a barrier to another thread.
    PropagateBarrier {
        /// The barrier.
        barrier: BarrierId,
        /// Destination thread.
        to: ThreadId,
    },
    /// Acknowledge a sync back to its origin thread (enabled once the
    /// barrier has propagated to all threads).
    AcknowledgeSync {
        /// The sync barrier.
        barrier: BarrierId,
    },
    /// Commit a new coherence edge between two as-yet-unrelated
    /// overlapping writes (enabled only when
    /// [`crate::ModelParams::coherence_commitments`] is set).
    PartialCoherence {
        /// Coherence-earlier write.
        first: WriteId,
        /// Coherence-later write.
        second: WriteId,
    },
}

impl StorageState {
    /// A fresh storage state for `threads` threads with the given initial
    /// writes (propagated to every thread up front, so every byte of the
    /// test's memory has a defined initial value).
    #[must_use]
    pub fn new(threads: usize, initial_writes: Vec<Write>) -> Self {
        let mut writes = BTreeMap::new();
        let mut seen = BTreeSet::new();
        let mut prop = Vec::new();
        for w in &initial_writes {
            seen.insert(w.id);
            prop.push(StorageEvent::W(w.id));
        }
        for w in initial_writes {
            writes.insert(w.id, w);
        }
        // All threads start with the same propagation list; share it.
        let prop = Arc::new(Digested::new(prop));
        StorageState {
            threads,
            writes: Arc::new(Digested::new(writes)),
            barriers: Arc::new(Digested::new(BTreeMap::new())),
            writes_seen: Arc::new(Digested::new(seen)),
            coherence: Arc::new(Digested::new(BTreeSet::new())),
            events_propagated_to: vec![prop; threads],
            unacknowledged_sync_requests: Arc::new(Digested::new(BTreeSet::new())),
            digest: DigestCell::new(),
            enum_cache: TransitionCache::new(),
        }
    }

    /// The storage subsystem's structural digest, cached compute-once at
    /// *two* levels: the top-level fold here, and one [`Digested`] cell
    /// per component (writes, barriers, writes-seen, coherence, each
    /// per-thread propagation list, sync requests). Components are
    /// `Arc`-shared with successor states, so after a storage transition
    /// only the touched component is re-hashed and the rest fold in as
    /// cached 64-bit values — digesting a successor's storage half is
    /// O(changed), not O(events).
    ///
    /// Hashes the *content* behind every event id, not just the ids:
    /// write/barrier ids are allocated in path order, so the same id can
    /// denote different events on different interleavings. Ids alone
    /// would make semantically different states collide (and
    /// id-mentioning structures like coherence ambiguous), losing states
    /// in an order-dependent way. Any new storage-side state must both
    /// enter this hash and be covered by the invalidation discipline
    /// (mutating methods invalidate the top-level cell, and component
    /// mutation goes through [`Digested`]'s auto-invalidating access).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest.get_or_compute(|| {
            let mut h = crate::types::DigestHasher::new();
            self.writes.digest().hash(&mut h);
            self.barriers.digest().hash(&mut h);
            self.writes_seen.digest().hash(&mut h);
            self.coherence.digest().hash(&mut h);
            for list in &self.events_propagated_to {
                list.digest().hash(&mut h);
            }
            self.unacknowledged_sync_requests.digest().hash(&mut h);
            h.finish()
        })
    }

    /// [`StorageState::digest`] recomputed from scratch, bypassing the
    /// top-level cache *and* every per-component cell — the reference
    /// the `debug_assertions` digest audit in
    /// [`crate::SystemState::digest`] compares stale cells against.
    /// Folds the components in the same order as [`StorageState::digest`]
    /// so the two agree whenever every cell is sound.
    #[must_use]
    pub fn digest_uncached(&self) -> u64 {
        let mut h = crate::types::DigestHasher::new();
        self.writes.digest_uncached().hash(&mut h);
        self.barriers.digest_uncached().hash(&mut h);
        self.writes_seen.digest_uncached().hash(&mut h);
        self.coherence.digest_uncached().hash(&mut h);
        for list in &self.events_propagated_to {
            list.digest_uncached().hash(&mut h);
        }
        self.unacknowledged_sync_requests
            .digest_uncached()
            .hash(&mut h);
        h.finish()
    }

    /// Debug-build audit of every per-component [`Digested`] cell:
    /// recompute each *populated* cell from scratch and compare, so a
    /// component mutation that bypassed the auto-invalidating access
    /// (e.g. interior mutation smuggled around `Arc::make_mut`) fails
    /// loudly. Called from [`crate::SystemState::digest`]'s audit.
    #[cfg(debug_assertions)]
    pub(crate) fn audit_component_digests(&self) {
        fn check<T: std::hash::Hash>(component: &Digested<T>, name: &str) {
            if let Some(cached) = component.peek() {
                assert_eq!(
                    cached,
                    component.digest_uncached(),
                    "stale cached digest for storage component {name}: some \
                     mutation bypassed the Digested auto-invalidating access"
                );
            }
        }
        check(&self.writes, "writes");
        check(&self.barriers, "barriers");
        check(&self.writes_seen, "writes_seen");
        check(&self.coherence, "coherence");
        for (tid, list) in self.events_propagated_to.iter().enumerate() {
            check(list, &format!("events_propagated_to[{tid}]"));
        }
        check(
            &self.unacknowledged_sync_requests,
            "unacknowledged_sync_requests",
        );
    }

    /// Whether `a` is coherence-before `b`.
    #[must_use]
    pub fn coh_before(&self, a: WriteId, b: WriteId) -> bool {
        self.coherence.contains(&(a, b))
    }

    /// Invalidate the caches derived from storage content (the top-level
    /// digest fold and the enabled-transition list). Every `&mut self`
    /// mutator calls this before touching a component; the component's
    /// own digest cell is invalidated by [`Digested`]'s mutable access.
    fn touch(&mut self) {
        self.digest.invalidate();
        self.enum_cache.invalidate();
    }

    /// Add a coherence edge and re-close transitively. Returns `false`
    /// (leaving the state unchanged in a way callers must treat as
    /// "transition disabled") if the edge would create a cycle.
    pub fn add_coherence(&mut self, a: WriteId, b: WriteId) -> bool {
        if a == b || self.coh_before(b, a) {
            return false;
        }
        if self.coh_before(a, b) {
            return true;
        }
        // Close: everything ≤ a precedes everything ≥ b.
        let mut befores: Vec<WriteId> = vec![a];
        befores.extend(
            self.coherence
                .iter()
                .filter(|(_, y)| *y == a)
                .map(|(x, _)| *x),
        );
        let mut afters: Vec<WriteId> = vec![b];
        afters.extend(
            self.coherence
                .iter()
                .filter(|(x, _)| *x == b)
                .map(|(_, y)| *y),
        );
        self.touch();
        let coherence = Arc::make_mut(&mut self.coherence);
        for &x in &befores {
            for &y in &afters {
                if x != y {
                    coherence.insert((x, y));
                }
            }
        }
        true
    }

    /// Accept a write from a thread: add to `writes_seen`, make it
    /// coherence-after every overlapping write already propagated to its
    /// thread, and append it to the thread's own propagation list.
    ///
    /// # Panics
    ///
    /// Panics if the write id was already accepted.
    pub fn accept_write(&mut self, w: Write) {
        assert!(!self.writes_seen.contains(&w.id), "write accepted twice");
        let tid = w.tid;
        let overlapping: Vec<WriteId> = self.events_propagated_to[tid]
            .iter()
            .filter_map(|e| match e {
                StorageEvent::W(id) => Some(*id),
                StorageEvent::B(_) => None,
            })
            .filter(|id| self.writes[id].overlaps(w.addr, w.size))
            .collect();
        let id = w.id;
        self.touch();
        Arc::make_mut(&mut self.writes_seen).insert(id);
        Arc::make_mut(&mut self.writes).insert(id, w);
        for o in overlapping {
            let ok = self.add_coherence(o, id);
            debug_assert!(ok, "fresh write cannot be coherence-before existing");
        }
        Arc::make_mut(&mut self.events_propagated_to[tid]).push(StorageEvent::W(id));
    }

    /// Accept a barrier from a thread (its Group A is implicitly the
    /// prefix of the thread's propagation list before it).
    pub fn accept_barrier(&mut self, b: BarrierEv) {
        assert!(!self.barriers.contains_key(&b.id), "barrier accepted twice");
        let tid = b.tid;
        let id = b.id;
        self.touch();
        if b.kind == BarrierKind::Sync {
            Arc::make_mut(&mut self.unacknowledged_sync_requests).insert(id);
        }
        Arc::make_mut(&mut self.barriers).insert(id, b);
        Arc::make_mut(&mut self.events_propagated_to[tid]).push(StorageEvent::B(id));
    }

    /// The events preceding `ev` in thread `tid`'s propagation list
    /// (for a barrier accepted by `tid`, this is its Group A).
    fn prefix_before(&self, tid: ThreadId, ev: StorageEvent) -> &[StorageEvent] {
        let list = &self.events_propagated_to[tid];
        match list.iter().position(|e| *e == ev) {
            Some(i) => &list[..i],
            None => &[],
        }
    }

    /// Whether `PropagateWrite { write, to }` is enabled.
    #[must_use]
    pub fn can_propagate_write(&self, write: WriteId, to: ThreadId) -> bool {
        if !self.writes_seen.contains(&write) {
            return false;
        }
        let w = &self.writes[&write];
        if w.tid == INIT_TID || to >= self.threads {
            return false;
        }
        if self.events_propagated_to[to].contains(&StorageEvent::W(write)) {
            return false;
        }
        // Barriers that reached the write's thread before the write gate
        // its propagation (B-cumulativity; also orders same-thread writes
        // separated by a barrier).
        for ev in self.prefix_before(w.tid, StorageEvent::W(write)) {
            if let StorageEvent::B(b) = ev {
                if !self.events_propagated_to[to].contains(&StorageEvent::B(*b)) {
                    return false;
                }
            }
        }
        // Coherence compatibility: the write must not be coherence-before
        // any overlapping write already propagated to `to`.
        for ev in self.events_propagated_to[to].iter() {
            if let StorageEvent::W(o) = ev {
                if self.writes[o].overlaps(w.addr, w.size) && self.coh_before(write, *o) {
                    return false;
                }
            }
        }
        true
    }

    /// Apply `PropagateWrite` (caller checked enabledness). Returns the
    /// write's footprint so the thread layer can clear overlapping
    /// reservations.
    pub fn propagate_write(&mut self, write: WriteId, to: ThreadId) -> (u64, usize) {
        let (addr, size) = {
            let w = &self.writes[&write];
            (w.addr, w.size)
        };
        // Commit coherence edges: the arriving write goes after every
        // overlapping write already there.
        let overlapping: Vec<WriteId> = self.events_propagated_to[to]
            .iter()
            .filter_map(|e| match e {
                StorageEvent::W(id) => Some(*id),
                StorageEvent::B(_) => None,
            })
            .filter(|id| *id != write && self.writes[id].overlaps(addr, size))
            .collect();
        self.touch();
        for o in overlapping {
            if !self.coh_before(o, write) {
                let ok = self.add_coherence(o, write);
                debug_assert!(ok, "enabledness guaranteed no reverse edge");
            }
        }
        Arc::make_mut(&mut self.events_propagated_to[to]).push(StorageEvent::W(write));
        (addr, size)
    }

    /// Whether `PropagateBarrier { barrier, to }` is enabled: all of the
    /// barrier's Group A must already have propagated to `to`.
    #[must_use]
    pub fn can_propagate_barrier(&self, barrier: BarrierId, to: ThreadId) -> bool {
        let Some(b) = self.barriers.get(&barrier) else {
            return false;
        };
        if to >= self.threads || self.events_propagated_to[to].contains(&StorageEvent::B(barrier)) {
            return false;
        }
        self.prefix_before(b.tid, StorageEvent::B(barrier))
            .iter()
            .all(|ev| self.events_propagated_to[to].contains(ev))
    }

    /// Apply `PropagateBarrier`.
    pub fn propagate_barrier(&mut self, barrier: BarrierId, to: ThreadId) {
        self.touch();
        Arc::make_mut(&mut self.events_propagated_to[to]).push(StorageEvent::B(barrier));
    }

    /// Whether a sync can be acknowledged: propagated to every thread.
    #[must_use]
    pub fn can_acknowledge_sync(&self, barrier: BarrierId) -> bool {
        self.unacknowledged_sync_requests.contains(&barrier)
            && (0..self.threads)
                .all(|t| self.events_propagated_to[t].contains(&StorageEvent::B(barrier)))
    }

    /// Apply `AcknowledgeSync` (the thread layer marks the instruction).
    pub fn acknowledge_sync(&mut self, barrier: BarrierId) {
        self.touch();
        Arc::make_mut(&mut self.unacknowledged_sync_requests).remove(&barrier);
    }

    /// Answer a read request from `tid` for `[addr, addr+size)`: for each
    /// byte, the value of the most recent write in the thread's
    /// propagation list covering that byte. Returns the value and the
    /// per-byte source writes.
    ///
    /// # Panics
    ///
    /// Panics if some byte has no covering write (the system constructs
    /// initial writes covering all test memory).
    #[must_use]
    pub fn read(&self, tid: ThreadId, addr: u64, size: usize) -> (Bv, Vec<WriteId>) {
        let mut value = Bv::empty();
        let mut sources = Vec::with_capacity(size);
        for i in 0..size {
            let b = addr + i as u64;
            let src = self.events_propagated_to[tid]
                .iter()
                .rev()
                .find_map(|e| match e {
                    StorageEvent::W(id) if self.writes[id].covers(b) => Some(*id),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no write covers byte 0x{b:x} for thread {tid}"));
            value = value.concat(&self.writes[&src].byte_at(b));
            sources.push(src);
        }
        (value, sources)
    }

    /// The thread that issued `write` (queried by the independence
    /// relation in [`crate::reduction`] to name the propagation list a
    /// `PropagateWrite` reads).
    ///
    /// # Panics
    ///
    /// Panics if the write id is unknown.
    #[must_use]
    pub fn write_origin(&self, write: WriteId) -> ThreadId {
        self.writes[&write].tid
    }

    /// The thread that issued `barrier` (see [`StorageState::write_origin`]).
    ///
    /// # Panics
    ///
    /// Panics if the barrier id is unknown.
    #[must_use]
    pub fn barrier_origin(&self, barrier: BarrierId) -> ThreadId {
        self.barriers[&barrier].tid
    }

    /// Whether applying `PropagateWrite { write, to }` would commit new
    /// coherence edges (an overlapping write is already in `to`'s list
    /// without being coherence-before `write`). The independence
    /// relation uses this to decide whether a propagation writes the
    /// global coherence order or only `to`'s propagation list.
    #[must_use]
    pub fn would_commit_coherence(&self, write: WriteId, to: ThreadId) -> bool {
        let w = &self.writes[&write];
        self.events_propagated_to[to].iter().any(|e| match e {
            StorageEvent::W(o) => {
                *o != write
                    && self.writes[o].overlaps(w.addr, w.size)
                    && !self.coh_before(*o, write)
            }
            StorageEvent::B(_) => false,
        })
    }

    /// All unrelated overlapping write pairs (candidates for
    /// `PartialCoherence`).
    #[must_use]
    pub fn unrelated_overlapping_pairs(&self) -> Vec<(WriteId, WriteId)> {
        let ids: Vec<WriteId> = self.writes_seen.iter().copied().collect();
        let mut out = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let wa = &self.writes[&a];
                let wb = &self.writes[&b];
                if wa.overlaps(wb.addr, wb.size) && !self.coh_before(a, b) && !self.coh_before(b, a)
                {
                    out.push((a, b));
                    out.push((b, a));
                }
            }
        }
        out
    }

    /// Enumerate all currently enabled storage transitions.
    #[must_use]
    pub fn enumerate(&self, coherence_commitments: bool) -> Vec<StorageTransition> {
        let mut out = Vec::new();
        self.enumerate_each(coherence_commitments, |t| out.push(t));
        out
    }

    /// [`StorageState::enumerate`] driven through a callback, so callers
    /// assembling a mixed transition list (the system layer) can push
    /// straight into their own reusable buffer without an intermediate
    /// allocation per state.
    pub fn enumerate_each(
        &self,
        coherence_commitments: bool,
        mut f: impl FnMut(StorageTransition),
    ) {
        for &w in self.writes_seen.iter() {
            for t in 0..self.threads {
                if self.can_propagate_write(w, t) {
                    f(StorageTransition::PropagateWrite { write: w, to: t });
                }
            }
        }
        for &b in self.barriers.keys() {
            for t in 0..self.threads {
                if self.can_propagate_barrier(b, t) {
                    f(StorageTransition::PropagateBarrier { barrier: b, to: t });
                }
            }
        }
        for &b in self.unacknowledged_sync_requests.iter() {
            if self.can_acknowledge_sync(b) {
                f(StorageTransition::AcknowledgeSync { barrier: b });
            }
        }
        if coherence_commitments {
            for (a, b) in self.unrelated_overlapping_pairs() {
                f(StorageTransition::PartialCoherence {
                    first: a,
                    second: b,
                });
            }
        }
    }

    /// [`StorageState::enumerate_each`] through the compute-once cache:
    /// the enabled storage transitions are a pure function of this state
    /// plus `coherence_commitments`, so successor states still sharing
    /// this storage `Arc` replay the cached list instead of re-scanning
    /// every event. On a key mismatch (the params drifted while the
    /// storage was shared) the enumeration runs fresh without caching.
    pub(crate) fn enumerate_cached(
        &self,
        coherence_commitments: bool,
        mut f: impl FnMut(StorageTransition),
    ) {
        let key = u64::from(coherence_commitments);
        match self
            .enum_cache
            .get_or_compute(key, || self.enumerate(coherence_commitments))
        {
            Some(cached) => cached.iter().copied().for_each(&mut f),
            None => self.enumerate_each(coherence_commitments, f),
        }
    }

    /// The write supplying byte `b` under a *linearisation* `order` of
    /// the writes (the last covering write in the order), borrowed — the
    /// hot final-state extraction reads bits straight out of it without
    /// cloning per-byte values.
    #[must_use]
    pub fn final_byte_write(&self, order: &[WriteId], b: u64) -> Option<&Write> {
        order
            .iter()
            .rev()
            .find(|id| self.writes[id].covers(b))
            .map(|id| &self.writes[id])
    }

    /// The coherence-maximal value of each byte of `[addr, addr+size)`
    /// under a *linearisation* `order` of the writes (used by final-state
    /// extraction; `order` lists all writes, coherence-consistent).
    #[must_use]
    pub fn final_byte_value(&self, order: &[WriteId], b: u64) -> Option<Bv> {
        self.final_byte_write(order, b).map(|w| w.byte_at(b))
    }
}
