//! The whole-system state and its labelled transition relation.
//!
//! ```text
//! type system_state = <|
//!   program_memory: address -> fetch_decode_outcome;
//!   initial_writes: list write;
//!   interp_context: Interp_interface.context;
//!   thread_states: map thread_id thread_state;
//!   storage_subsystem: storage_subsystem_state;
//!   idstate: id_state; model: model_params; |>
//! ```
//!
//! with `enumerate_transitions_of_system` and
//! `system_state_after_transition` (paper §5). Deterministic progress
//! (internal interpreter steps, register writes, register reads whose
//! values are available, recording of determined memory writes) is taken
//! eagerly after every transition — these steps are confluent, so the
//! enumerated transition system has the same reachable observable
//! behaviours as one with explicit internal transitions, just fewer
//! interleavings (the paper's tool offers the same thing as "skip
//! internal transitions").

use crate::storage::{StorageState, StorageTransition};
use crate::thread::{
    InstanceId, InstrInstance, PendingWrite, ReadSource, RegReadRec, SatRead, ThreadState,
    ThreadTransition,
};
use crate::types::{
    BarrierEv, BarrierId, DigestCell, ModelParams, ThreadId, Write, WriteId, INIT_TID,
};
use ppc_bits::Bv;
use ppc_idl::{
    analyze, BarrierKind, Footprint, InstrState, Outcome, ReadKind, Reg, Sem, WriteKind,
};
use ppc_isa::Instruction;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A decoded program: instruction words plus cached semantics and static
/// footprints per address (shared across all states of a search, which
/// also gives stable pointer identity for state hashing).
#[derive(Debug)]
pub struct Program {
    pub(crate) entries: BTreeMap<u64, ProgEntry>,
}

#[derive(Debug)]
pub(crate) struct ProgEntry {
    pub(crate) instr: Instruction,
    pub(crate) sem: Arc<Sem>,
    pub(crate) fp: Arc<Footprint>,
}

impl Program {
    /// Build a program from instruction words. Words that fail to decode
    /// are simply absent (fetching them is impossible, like fetching
    /// unmapped memory).
    #[must_use]
    pub fn new(words: &BTreeMap<u64, u32>) -> Self {
        let mut entries = BTreeMap::new();
        for (&addr, &w) in words {
            if let Ok(instr) = ppc_isa::decode(w) {
                let sem = Arc::new(ppc_isa::semantics(&instr));
                let fp = Arc::new(analyze(&sem));
                entries.insert(addr, ProgEntry { instr, sem, fp });
            }
        }
        Program { entries }
    }

    /// Assemble a program from per-thread instruction lists placed at
    /// the given start addresses.
    #[must_use]
    pub fn from_threads(code: &[(u64, Vec<Instruction>)]) -> Self {
        let mut words = BTreeMap::new();
        for (start, instrs) in code {
            for (k, i) in instrs.iter().enumerate() {
                words.insert(start + 4 * k as u64, ppc_isa::encode(i));
            }
        }
        Program::new(&words)
    }

    /// Whether an instruction exists at `addr`.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.entries.contains_key(&addr)
    }

    /// The decoded instruction at `addr`.
    #[must_use]
    pub fn instr_at(&self, addr: u64) -> Option<&Instruction> {
        self.entries.get(&addr).map(|e| &e.instr)
    }
}

/// A system transition: one thread or storage step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Transition {
    /// A thread-subsystem transition.
    Thread(ThreadTransition),
    /// A storage-subsystem transition.
    Storage(StorageTransition),
}

/// A per-component breakdown of one state's enabled transitions: one
/// `Vec` per thread (in thread order) plus the storage list — exactly
/// the slices the per-component enumeration caches hold, in exactly the
/// order [`SystemState::enumerate_transitions`] concatenates them.
///
/// Like [`AdvanceTrace`] for eager progress, this is the differential
/// contract for incremental enumeration: [`SystemState::enumerate_traced`]
/// (the cached path) and [`SystemState::enumerate_rescan_traced`] (the
/// cache-bypassing full rescan) must produce identical traces, so a
/// missed cache invalidation fails loudly per-slot instead of hiding in
/// a flat list comparison.
pub type EnumTrace = (Vec<Vec<ThreadTransition>>, Vec<StorageTransition>);

/// The set of instances that took at least one deterministic step during
/// the eager-progress phase of one [`SystemState::apply`] (an *advance
/// trace*). The steps are confluent, so the set — unlike the step
/// sequence — is engine-independent: the incremental worklist engine and
/// the full-rescan reference must produce identical traces, which is
/// what the differential tests compare to prove the worklist never
/// skips a wake-up.
pub type AdvanceTrace = BTreeSet<(ThreadId, InstanceId)>;

/// The dirty-instance worklist driving incremental eager progress.
///
/// A transition touches one thread (or only storage), so instead of
/// rescanning every thread × every instance to a global fixed point
/// after each transition, [`SystemState::apply_mut`] seeds the worklist
/// with exactly the instances the transition unblocked, and the drain
/// re-seeds from an instance's *descendants* whenever a step changes it
/// (the only cross-instance dependence inside eager progress is a
/// pending register read on its po-ancestors) and from every instance a
/// restart cascade touches. Entries are deduplicated over the undrained
/// tail only — a drained instance may legitimately become dirty again.
#[derive(Debug, Default)]
pub(crate) struct Worklist {
    items: Vec<(ThreadId, InstanceId)>,
    /// Index of the next undrained entry (drained entries are kept so
    /// `items` never shifts; the whole list is transient per `apply`).
    next: usize,
    /// When present, collects the advance trace (instances that changed).
    trace: Option<AdvanceTrace>,
}

impl Worklist {
    fn new(traced: bool) -> Self {
        Worklist {
            items: Vec::new(),
            next: 0,
            trace: traced.then(BTreeSet::new),
        }
    }

    /// Empty the list for reuse, keeping its allocation (the hot
    /// [`SystemState::apply`] path borrows one per-thread scratch
    /// worklist instead of allocating per transition).
    fn reset(&mut self, traced: bool) {
        self.items.clear();
        self.next = 0;
        self.trace = traced.then(BTreeSet::new);
    }

    /// Mark an instance dirty (no-op if it is already queued and
    /// undrained).
    pub(crate) fn push(&mut self, tid: ThreadId, id: InstanceId) {
        let key = (tid, id);
        if !self.items[self.next..].contains(&key) {
            self.items.push(key);
        }
    }

    fn pop(&mut self) -> Option<(ThreadId, InstanceId)> {
        let item = self.items.get(self.next).copied();
        self.next += item.is_some() as usize;
        item
    }

    fn record_changed(&mut self, tid: ThreadId, id: InstanceId) {
        if let Some(trace) = &mut self.trace {
            trace.insert((tid, id));
        }
    }
}

/// The complete model state.
///
/// Laid out for O(changed) successor generation: each thread state and
/// the storage subsystem live behind `Arc`s, so [`SystemState::clone`]
/// copies only a handful of reference counts and
/// [`SystemState::apply`]'s mutation path deep-clones just the thread
/// subtree / storage component a transition actually touches
/// (copy-on-write via [`SystemState::thread_mut`] /
/// [`SystemState::storage_mut`], which also invalidate the cached
/// digests). Before this layout every successor paid a full deep clone
/// of every thread tree and every storage event list.
#[derive(Clone, Debug)]
pub struct SystemState {
    /// The (shared, immutable) program.
    pub program: Arc<Program>,
    /// Per-thread states, individually shared with predecessor states.
    /// Mutate through [`SystemState::thread_mut`] only.
    pub threads: Vec<Arc<ThreadState>>,
    /// The storage subsystem, shared with predecessor states. Mutate
    /// through [`SystemState::storage_mut`] only.
    pub storage: Arc<StorageState>,
    /// Model parameters.
    pub params: ModelParams,
    pub(crate) next_write_id: u32,
    pub(crate) next_barrier_id: u32,
    /// Compute-once cache of [`SystemState::digest`] (empty in clones;
    /// invalidated by the mutation funnels).
    pub(crate) digest: DigestCell,
}

/// Structural equality of whole system states. Programs are compared by
/// pointer (they are shared, immutable, and cached per search); all
/// dynamic state — threads, storage, event-id allocators, parameters —
/// is compared structurally. This is the `decode(encode(s)) == s`
/// contract of the canonical state codec.
impl PartialEq for SystemState {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.program, &other.program)
            && self.threads == other.threads
            && self.storage == other.storage
            && self.params == other.params
            && self.next_write_id == other.next_write_id
            && self.next_barrier_id == other.next_barrier_id
    }
}

impl Eq for SystemState {}

impl SystemState {
    /// Build the initial state: threads with initial registers and entry
    /// points, and initial memory writes (owners of every test byte).
    #[must_use]
    pub fn new(
        program: Arc<Program>,
        threads: Vec<(BTreeMap<Reg, Bv>, u64)>,
        initial_mem: &[(u64, Bv)],
        params: ModelParams,
    ) -> Self {
        let n = threads.len();
        let mut writes = Vec::new();
        for (k, (addr, value)) in initial_mem.iter().enumerate() {
            assert!(value.len() % 8 == 0, "memory values are whole bytes");
            writes.push(Write {
                id: WriteId(k as u32),
                tid: INIT_TID,
                ioid: None,
                addr: *addr,
                size: value.len() / 8,
                value: value.clone(),
            });
        }
        let next_write_id = writes.len() as u32;
        let storage = StorageState::new(n, writes);
        let threads = threads
            .into_iter()
            .enumerate()
            .map(|(tid, (regs, start))| Arc::new(ThreadState::new(tid, regs, start)))
            .collect();
        let mut st = SystemState {
            program,
            threads,
            storage: Arc::new(storage),
            params,
            next_write_id,
            next_barrier_id: 0,
            digest: DigestCell::new(),
        };
        st.advance_all();
        st
    }

    // ---- copy-on-write mutation funnels --------------------------------

    /// Copy-on-write mutable access to one thread: clones the thread
    /// state out of shared `Arc`s only if a predecessor state still
    /// shares it, and invalidates the thread's and the whole state's
    /// cached digests. Every thread mutation must come through here.
    pub fn thread_mut(&mut self, tid: ThreadId) -> &mut ThreadState {
        self.digest.invalidate();
        let th = Arc::make_mut(&mut self.threads[tid]);
        th.digest.invalidate();
        th.enum_cache.invalidate();
        th
    }

    /// Copy-on-write mutable access to the storage subsystem (see
    /// [`SystemState::thread_mut`]). Every storage mutation must come
    /// through here.
    pub fn storage_mut(&mut self) -> &mut StorageState {
        self.digest.invalidate();
        let st = Arc::make_mut(&mut self.storage);
        st.digest.invalidate();
        st.enum_cache.invalidate();
        st
    }

    // ---- eager deterministic progress --------------------------------

    /// Drain the dirty-instance worklist: advance each queued instance
    /// through its confluent deterministic steps, re-seeding from its
    /// descendants whenever a step changes it (their pending register
    /// reads may now resolve — the only cross-instance dependence inside
    /// eager progress) and from every instance a restart cascade
    /// touches. Eager progress is confluent (see the module docs), so
    /// the fixed point — and therefore the successor state — is
    /// identical to the full rescan's; only the work to find it shrinks
    /// from O(threads × instances) per transition to O(dirty).
    fn advance_worklist(&mut self, wl: &mut Worklist) {
        while let Some((tid, id)) = wl.pop() {
            if !self.threads[tid].instances.contains(id) {
                continue; // pruned while queued
            }
            if self.advance_instance(tid, id, wl) {
                wl.record_changed(tid, id);
                self.threads[tid].for_each_descendant(id, &mut |d| wl.push(tid, d));
            }
        }
    }

    /// The retained full-rescan reference for eager progress: run every
    /// instance of every thread until a global fixed point. Used to seed
    /// the initial state and by [`SystemState::apply_rescan_traced`] as
    /// the differential baseline the worklist engine is checked against;
    /// the hot path ([`SystemState::apply`]) uses the worklist instead.
    pub(crate) fn advance_all(&mut self) {
        let mut wl = Worklist::new(false);
        self.advance_all_with(&mut wl);
    }

    fn advance_all_with(&mut self, wl: &mut Worklist) {
        loop {
            let mut changed = false;
            for tid in 0..self.threads.len() {
                for id in 0..self.threads[tid].instances.id_bound() {
                    if self.threads[tid].instances.contains(id)
                        && self.advance_instance(tid, id, wl)
                    {
                        wl.record_changed(tid, id);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Advance one instance; returns whether anything changed. Restarts
    /// triggered by a newly determined write are *deferred*: the
    /// restarted instances go onto `wl` instead of being advanced
    /// re-entrantly from inside this loop (the old re-entrant
    /// `advance_all_thread` could come back to this very instance
    /// mid-advance).
    #[allow(clippy::too_many_lines)]
    fn advance_instance(&mut self, tid: ThreadId, id: InstanceId, wl: &mut Worklist) -> bool {
        let mut changed = false;
        loop {
            let inst = &self.threads[tid].instances[id];
            if inst.finished || inst.done {
                break;
            }
            // Paused at an uncommitted barrier?
            if inst.barrier.is_some() && !inst.barrier_committed {
                break;
            }
            if inst.pending_cond_write {
                break;
            }
            if inst.state.is_pending() {
                if let Some(slice) = inst.state.pending_reg() {
                    // Try to satisfy the register read.
                    match self.threads[tid].resolve_reg_read(id, slice) {
                        Some((value, sources)) => {
                            let inst = self.thread_mut(tid).inst_mut(id).expect("live");
                            inst.reg_reads.push(RegReadRec {
                                slice,
                                value: value.clone(),
                                sources,
                            });
                            inst.state.resume_reg(value).expect("pending reg");
                            changed = true;
                            continue;
                        }
                        None => break, // blocked on a predecessor
                    }
                }
                // Pending memory read or write-cond: an explicit
                // transition must fire.
                break;
            }
            // Take an interpreter step.
            let outcome = {
                let inst = self.thread_mut(tid).inst_mut(id).expect("live");
                inst.state.step().unwrap_or_else(|e| {
                    // Attribution matters for fuzz-found failures: name
                    // the thread and instance ids, not just the opcode.
                    panic!(
                        "thread {tid} instance {id} (ioid {tid}:{id}): \
                         instruction {} at 0x{:x}: {e}",
                        inst.instr.mnemonic(),
                        inst.addr
                    )
                })
            };
            changed = true;
            match outcome {
                Outcome::Internal => {}
                Outcome::ReadReg { .. } => {
                    // state became pending; loop round to satisfy
                }
                Outcome::WriteReg { slice, value } => {
                    let inst = self.thread_mut(tid).inst_mut(id).expect("live");
                    if slice.reg == Reg::Nia {
                        let nia = value.to_u64().expect("NIA written with an undefined value");
                        inst.nia = Some(nia);
                    } else {
                        inst.reg_writes.push((slice, value));
                    }
                }
                Outcome::ReadMem {
                    address,
                    size,
                    kind,
                } => {
                    let inst = self.thread_mut(tid).inst_mut(id).expect("live");
                    inst.pending_read = Some((address, size, kind == ReadKind::Reserve));
                }
                Outcome::WriteMem {
                    address,
                    size,
                    value,
                    kind,
                } => {
                    let conditional = kind == WriteKind::Conditional;
                    {
                        let inst = self.thread_mut(tid).inst_mut(id).expect("live");
                        inst.mem_writes.push(PendingWrite {
                            addr: address,
                            size,
                            value,
                            committed: None,
                            conditional,
                        });
                        if conditional {
                            inst.pending_cond_write = true;
                        }
                    }
                    // A newly determined write invalidates po-later reads
                    // that "skipped" it (§2 restarts). The restarted
                    // instances are queued, not advanced re-entrantly.
                    self.restart_reads_skipping_write(tid, id, address, size, wl);
                }
                Outcome::Barrier { kind } => {
                    let inst = self.thread_mut(tid).inst_mut(id).expect("live");
                    inst.barrier = Some(kind);
                }
                Outcome::Done => {
                    let inst = self.thread_mut(tid).inst_mut(id).expect("live");
                    inst.done = true;
                    if inst.nia.is_none() {
                        inst.nia = Some(inst.addr + 4);
                    }
                }
            }
        }
        if changed {
            if let Some(inst) = self.thread_mut(tid).inst_mut(id) {
                inst.refresh_dyn_fp();
            }
        }
        changed
    }

    /// Restart every po-later read that overlaps a newly determined write
    /// of instance `k` but was satisfied from something po-before it (or
    /// from storage, which at this point cannot include the new write).
    ///
    /// The restarted closure is *queued* on the worklist rather than
    /// advanced here: this runs from inside [`SystemState::advance_instance`]'s
    /// step loop, and the old re-entrant `advance_all_thread` call could
    /// advance (and cascade further restarts over) the very instance the
    /// caller is still mid-way through — deferring keeps exactly one
    /// advance loop live per instance at a time, with the same fixed
    /// point by confluence.
    fn restart_reads_skipping_write(
        &mut self,
        tid: ThreadId,
        k: InstanceId,
        addr: u64,
        size: usize,
        wl: &mut Worklist,
    ) {
        let th = &self.threads[tid];
        let mut seed = BTreeSet::new();
        th.for_each_descendant(k, &mut |d| {
            let inst = &th.instances[d];
            if inst.finished {
                return;
            }
            for r in &inst.mem_reads {
                let overlaps = r.addr < addr + size as u64 && addr < r.addr + r.size as u64;
                if !overlaps {
                    continue;
                }
                let skipped = match &r.source {
                    ReadSource::Storage(_) => true,
                    ReadSource::Forward(from, _) => {
                        // Sound iff the source is po-after k (between k
                        // and the reader).
                        !(*from == k || th.is_ancestor(k, *from))
                    }
                };
                if skipped {
                    seed.insert(d);
                }
            }
        });
        if !seed.is_empty() {
            let restarted = self.thread_mut(tid).cascade_restart(seed);
            for id in restarted {
                wl.push(tid, id);
            }
        }
    }

    // ---- barrier / ordering helper predicates -------------------------

    /// Whether all po-previous barrier obligations needed before a read
    /// may be *satisfied* hold: syncs acknowledged, lwsyncs and isyncs
    /// committed (eieio does not order loads).
    fn read_barrier_gates_ok(&self, tid: ThreadId, id: InstanceId) -> bool {
        self.threads[tid].ancestors(id).all(|a| match a.barrier {
            Some(BarrierKind::Sync) => a.barrier_acked,
            Some(BarrierKind::Lwsync | BarrierKind::Isync) => a.barrier_committed,
            _ => true,
        })
    }

    /// Whether all po-previous barrier obligations needed before a write
    /// may be *committed* hold: syncs acknowledged, lwsyncs and eieios
    /// committed.
    fn write_barrier_gates_ok(&self, tid: ThreadId, id: InstanceId) -> bool {
        self.threads[tid].ancestors(id).all(|a| match a.barrier {
            Some(BarrierKind::Sync) => a.barrier_acked,
            Some(BarrierKind::Lwsync | BarrierKind::Eieio) => a.barrier_committed,
            _ => true,
        })
    }

    /// All po-previous branches finished (no unresolved speculation).
    fn non_speculative(&self, tid: ThreadId, id: InstanceId) -> bool {
        self.threads[tid]
            .ancestors(id)
            .all(|a| !a.is_branch() || a.finished)
    }

    // ---- transition enumeration ---------------------------------------

    /// Enumerate every enabled transition (the paper's
    /// `enumerate_transitions_of_system`).
    ///
    /// The order is a stable contract shared by every consumer (the
    /// oracle engines, the interactive pretty-printer, the differential
    /// suites): threads in thread order, each thread's transitions in
    /// instance-id order with the per-instance kinds in a fixed sequence
    /// (fetches, read satisfactions, write commits, store-conditional
    /// decisions, barrier commit, finish), then the storage transitions.
    /// [`SystemState::enumerate_traced`] exposes the same enumeration
    /// broken down per component.
    #[must_use]
    pub fn enumerate_transitions(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        self.enumerate_transitions_into(&mut out);
        out
    }

    /// [`SystemState::enumerate_transitions`] into a caller-provided
    /// buffer (cleared first), so per-state exploration loops can reuse
    /// one allocation across the whole search.
    ///
    /// Incremental: each thread's list and the storage list come from
    /// per-component compute-once caches that live inside the same
    /// `Arc`s copy-on-write successor generation shares, invalidated by
    /// the same funnels that invalidate the digests
    /// ([`SystemState::thread_mut`] / [`SystemState::storage_mut`] /
    /// [`ThreadState::inst_mut`]). After a transition, only the touched
    /// component is re-enumerated; the untouched components replay
    /// their cached lists. [`SystemState::enumerate_rescan_traced`] is
    /// the retained cache-bypassing reference the differential tests
    /// compare against.
    pub fn enumerate_transitions_into(&self, out: &mut Vec<Transition>) {
        out.clear();
        let key = self.thread_enum_key();
        for tid in 0..self.threads.len() {
            match self.threads[tid].enum_cache.get_or_compute(key, || {
                let mut fresh = Vec::new();
                self.enumerate_thread_into(tid, &mut fresh);
                fresh
            }) {
                Some(cached) => out.extend(cached.iter().copied().map(Transition::Thread)),
                // Key mismatch (program/params drifted while the thread
                // was shared): enumerate fresh without caching.
                None => {
                    let mut fresh = Vec::new();
                    self.enumerate_thread_into(tid, &mut fresh);
                    out.extend(fresh.into_iter().map(Transition::Thread));
                }
            }
        }
        self.storage
            .enumerate_cached(self.params.coherence_commitments, |s| {
                out.push(Transition::Storage(s));
            });
    }

    /// The enumeration-context fingerprint guarding the per-thread
    /// transition caches: everything thread enumeration reads besides
    /// the thread state itself. The program is identified by pointer
    /// (shared and immutable per search, like state hashing does).
    fn thread_enum_key(&self) -> u64 {
        let mut h = crate::types::DigestHasher::new();
        (Arc::as_ptr(&self.program) as usize).hash(&mut h);
        self.params.max_instances_per_thread.hash(&mut h);
        self.params.allow_spurious_stcx_failure.hash(&mut h);
        h.finish()
    }

    /// The enabled transitions broken down per state component (the
    /// cached incremental path — see [`EnumTrace`]). Concatenating the
    /// trace in order reproduces [`SystemState::enumerate_transitions`].
    #[must_use]
    pub fn enumerate_traced(&self) -> EnumTrace {
        let key = self.thread_enum_key();
        let threads = (0..self.threads.len())
            .map(|tid| {
                let compute = || {
                    let mut fresh = Vec::new();
                    self.enumerate_thread_into(tid, &mut fresh);
                    fresh
                };
                match self.threads[tid].enum_cache.get_or_compute(key, compute) {
                    Some(cached) => cached.to_vec(),
                    None => compute(),
                }
            })
            .collect();
        let mut storage = Vec::new();
        self.storage
            .enumerate_cached(self.params.coherence_commitments, |s| storage.push(s));
        (threads, storage)
    }

    /// The retained full-rescan reference for enumeration: every thread
    /// and the storage subsystem enumerated from scratch, bypassing
    /// every transition cache. Same trace as
    /// [`SystemState::enumerate_traced`] whenever the caches are sound —
    /// the differential tests compare the two on every state they visit,
    /// so a missed cache invalidation fails loudly.
    #[must_use]
    pub fn enumerate_rescan_traced(&self) -> EnumTrace {
        let threads = (0..self.threads.len())
            .map(|tid| {
                let mut fresh = Vec::new();
                self.enumerate_thread_into(tid, &mut fresh);
                fresh
            })
            .collect();
        let storage = self.storage.enumerate(self.params.coherence_commitments);
        (threads, storage)
    }

    #[allow(clippy::too_many_lines)]
    fn enumerate_thread_into(&self, tid: ThreadId, out: &mut Vec<ThreadTransition>) {
        let th = &self.threads[tid];
        let live = th.instances.len();

        // Fetch the root.
        if th.root.is_none() && self.program.contains(th.start_addr) {
            out.push(ThreadTransition::Fetch {
                tid,
                parent: None,
                addr: th.start_addr,
            });
        }

        for (id, inst) in th.instances.iter() {
            // Fetches of successors. Candidate targets live in a tiny
            // inline buffer (a resolved NIA is one target; static NIA
            // lists are at most a successor plus a branch target), not a
            // heap set — this runs for every instance of every state.
            if live < self.params.max_instances_per_thread {
                let mut targets = [0u64; 8];
                let mut ntargets = 0usize;
                let mut add = |t: u64| {
                    if !targets[..ntargets].contains(&t) {
                        assert!(ntargets < targets.len(), "more than 8 static NIA targets");
                        targets[ntargets] = t;
                        ntargets += 1;
                    }
                };
                if let Some(nia) = inst.nia {
                    add(nia);
                } else {
                    for n in &inst.static_fp.nias {
                        match n {
                            ppc_idl::NiaTarget::Succ => add(inst.addr + 4),
                            ppc_idl::NiaTarget::Concrete(t) => add(*t),
                            ppc_idl::NiaTarget::Indirect => {}
                        }
                    }
                }
                targets[..ntargets].sort_unstable();
                for &t in &targets[..ntargets] {
                    if self.program.contains(t)
                        && !inst.children.iter().any(|&c| th.instances[c].addr == t)
                    {
                        out.push(ThreadTransition::Fetch {
                            tid,
                            parent: Some(id),
                            addr: t,
                        });
                    }
                }
            }

            // Read satisfaction.
            if let Some((addr, size, reserve)) = inst.pending_read {
                if self.read_barrier_gates_ok(tid, id) {
                    if !reserve {
                        // Forwarding candidates (not for load-reserve).
                        for j in th.ancestors(id) {
                            for (widx, w) in j.mem_writes.iter().enumerate() {
                                if w.conditional && w.committed.is_none() {
                                    continue;
                                }
                                let covers =
                                    w.addr <= addr && addr + size as u64 <= w.addr + w.size as u64;
                                if covers
                                    && self.no_determined_write_between(tid, j.id, id, addr, size)
                                {
                                    out.push(ThreadTransition::SatisfyReadForward {
                                        tid,
                                        ioid: id,
                                        from: j.id,
                                        windex: widx,
                                    });
                                }
                            }
                        }
                    }
                    if self.storage_read_ok(tid, id, addr, size) {
                        out.push(ThreadTransition::SatisfyReadStorage { tid, ioid: id });
                    }
                }
            }

            // Write commits.
            for (widx, w) in inst.mem_writes.iter().enumerate() {
                if w.committed.is_none()
                    && !w.conditional
                    && self.can_commit_write(tid, id, w.addr, w.size)
                {
                    out.push(ThreadTransition::CommitWrite {
                        tid,
                        ioid: id,
                        windex: widx,
                    });
                }
            }

            // Store-conditional decisions.
            if inst.pending_cond_write {
                let w = inst
                    .mem_writes
                    .iter()
                    .find(|w| w.conditional && w.committed.is_none())
                    .expect("pending conditional write exists");
                if self.can_commit_write(tid, id, w.addr, w.size) {
                    let reservation_valid = th
                        .reservation
                        .map(|(ra, rs)| ra < w.addr + w.size as u64 && w.addr < ra + rs as u64)
                        .unwrap_or(false);
                    if reservation_valid {
                        out.push(ThreadTransition::CommitStcxSuccess { tid, ioid: id });
                    }
                    if !reservation_valid || self.params.allow_spurious_stcx_failure {
                        out.push(ThreadTransition::CommitStcxFail { tid, ioid: id });
                    }
                }
            }

            // Barrier commit.
            if inst.barrier.is_some() && !inst.barrier_committed && self.can_commit_barrier(tid, id)
            {
                out.push(ThreadTransition::CommitBarrier { tid, ioid: id });
            }

            // Finish.
            if self.can_finish(tid, id) {
                out.push(ThreadTransition::Finish { tid, ioid: id });
            }
        }
    }

    /// No instance strictly po-between `j` and `i` has a *determined*
    /// write overlapping the footprint (forwarding must take the nearest
    /// determined write; undetermined intervening stores may be
    /// speculated past, with restarts on conflict).
    fn no_determined_write_between(
        &self,
        tid: ThreadId,
        j: InstanceId,
        i: InstanceId,
        addr: u64,
        size: usize,
    ) -> bool {
        let th = &self.threads[tid];
        for k in th.ancestors(i) {
            if k.id == j {
                break;
            }
            let recorded = k
                .mem_writes
                .iter()
                .any(|w| w.addr < addr + size as u64 && addr < w.addr + w.size as u64);
            let future = !k.done
                && k.dyn_fp.mem_writes.is_determined()
                && k.dyn_fp.mem_writes.may_overlap(addr, size);
            if recorded || future {
                return false;
            }
        }
        true
    }

    /// Storage satisfaction requires every po-previous *determined*
    /// overlapping write to be committed (it is then visible in the
    /// thread's propagation list); undetermined footprints may be
    /// speculated past.
    fn storage_read_ok(&self, tid: ThreadId, i: InstanceId, addr: u64, size: usize) -> bool {
        let th = &self.threads[tid];
        for k in th.ancestors(i) {
            for w in &k.mem_writes {
                let overlaps = w.addr < addr + size as u64 && addr < w.addr + w.size as u64;
                if overlaps && w.committed.is_none() {
                    return false;
                }
            }
            if !k.done
                && k.dyn_fp.mem_writes.is_determined()
                && k.dyn_fp.mem_writes.may_overlap(addr, size)
            {
                return false;
            }
        }
        true
    }

    /// Preconditions for committing a write of instance `i` to storage.
    fn can_commit_write(&self, tid: ThreadId, i: InstanceId, addr: u64, size: usize) -> bool {
        if !self.non_speculative(tid, i) || !self.write_barrier_gates_ok(tid, i) {
            return false;
        }
        let th = &self.threads[tid];
        for k in th.ancestors(i) {
            // Program-order same-address write coherence: overlapping
            // po-previous writes must be committed first, and footprints
            // must be determined to know.
            if !k.done && !k.dyn_fp.mem_writes.is_determined() {
                return false;
            }
            if k.mem_writes.iter().any(|w| {
                w.committed.is_none()
                    && w.addr < addr + size as u64
                    && addr < w.addr + w.size as u64
            }) {
                return false;
            }
            if !k.done && k.dyn_fp.mem_writes.may_overlap(addr, size) {
                return false;
            }
            // Overlapping po-previous reads must be finished (CoWR /
            // CoRW); read footprints must be determined to know.
            if !k.done && !k.dyn_fp.mem_reads.is_determined() {
                return false;
            }
            if k.may_read_overlapping(addr, size) && !k.finished {
                return false;
            }
        }
        true
    }

    /// Preconditions for committing a barrier of instance `i`.
    fn can_commit_barrier(&self, tid: ThreadId, i: InstanceId) -> bool {
        let th = &self.threads[tid];
        let kind = th.instances[i].barrier.expect("barrier present");
        if !self.non_speculative(tid, i) {
            return false;
        }
        match kind {
            BarrierKind::Sync | BarrierKind::Lwsync => th.ancestors(i).all(|k| {
                let loads_done = !k.is_load_like() || k.finished;
                let stores_done = k.all_writes_committed();
                let barriers_done = k.barrier.is_none() || k.barrier_committed;
                loads_done && stores_done && barriers_done
            }),
            BarrierKind::Eieio => th.ancestors(i).all(InstrInstance::all_writes_committed),
            // isync: all po-previous branches finished is already
            // required by `non_speculative`.
            BarrierKind::Isync => true,
        }
    }

    /// Preconditions for finishing instance `i` (paper: committing).
    #[allow(clippy::too_many_lines)]
    fn can_finish(&self, tid: ThreadId, i: InstanceId) -> bool {
        let th = &self.threads[tid];
        let inst = &th.instances[i];
        if inst.finished || !inst.done || inst.state.is_pending() {
            return false;
        }
        if inst.pending_read.is_some() || inst.pending_cond_write {
            return false;
        }
        // Barrier obligations of this instruction itself.
        match inst.barrier {
            Some(BarrierKind::Sync) if !inst.barrier_acked => return false,
            Some(k) if k != BarrierKind::Sync && !inst.barrier_committed => return false,
            _ => {}
        }
        // All writes committed (or decided, for stcx).
        if inst
            .mem_writes
            .iter()
            .any(|w| w.committed.is_none() && !w.conditional)
        {
            return false;
        }
        // Register dataflow sources irrevocable.
        for r in &inst.reg_reads {
            for &s in &r.sources {
                if !th.instances[s].finished {
                    return false;
                }
            }
        }
        // No unresolved speculation.
        if !self.non_speculative(tid, i) {
            return false;
        }
        // Load stability: nothing can still invalidate a satisfied read.
        for r in &inst.mem_reads {
            for k in th.ancestors(i) {
                // Writes: footprints determined, overlapping writes
                // committed.
                if !k.done && !k.dyn_fp.mem_writes.is_determined() {
                    return false;
                }
                if k.may_write_overlapping(r.addr, r.size) {
                    if k.mem_writes.iter().any(|w| {
                        w.committed.is_none()
                            && w.addr < r.addr + r.size as u64
                            && r.addr < w.addr + w.size as u64
                    }) {
                        return false;
                    }
                    if !k.done && k.dyn_fp.mem_writes.may_overlap(r.addr, r.size) {
                        return false;
                    }
                }
                // Overlapping po-previous loads finished (coherence
                // read-read stability).
                if !k.done && !k.dyn_fp.mem_reads.is_determined() {
                    return false;
                }
                if k.may_read_overlapping(r.addr, r.size) && !k.finished {
                    return false;
                }
            }
        }
        true
    }

    // ---- transition application ---------------------------------------

    /// Apply a transition, producing the successor state (the paper's
    /// `system_state_after_transition`).
    ///
    /// # Panics
    ///
    /// Panics if the transition is not enabled in this state (callers
    /// must apply transitions from [`SystemState::enumerate_transitions`]
    /// to the same state).
    #[must_use]
    pub fn apply(&self, t: &Transition) -> SystemState {
        thread_local! {
            /// Per-thread scratch worklist: `apply` runs hundreds of
            /// thousands of times per exploration, and the list is
            /// always drained before return, so one reusable buffer per
            /// OS thread removes an allocation from every transition.
            static SCRATCH: std::cell::RefCell<Worklist> =
                std::cell::RefCell::new(Worklist::new(false));
        }
        SCRATCH.with(|wl| {
            let mut wl = wl.borrow_mut();
            wl.reset(false);
            let mut s = self.clone();
            s.apply_mut(t, &mut wl);
            s.advance_worklist(&mut wl);
            s
        })
    }

    /// [`SystemState::apply`] returning the advance trace alongside the
    /// successor (the instances eager progress actually stepped). This
    /// is the incremental worklist engine — the differential tests
    /// compare its trace against [`SystemState::apply_rescan_traced`]'s.
    #[must_use]
    pub fn apply_traced(&self, t: &Transition) -> (SystemState, AdvanceTrace) {
        let mut s = self.clone();
        let mut wl = Worklist::new(true);
        s.apply_mut(t, &mut wl);
        s.advance_worklist(&mut wl);
        let trace = wl.trace.take().expect("traced worklist");
        (s, trace)
    }

    /// Apply a transition through the retained full-rescan reference
    /// path: after the transition mutates the state, *every* instance of
    /// every thread is re-advanced to a global fixed point, exactly like
    /// the pre-worklist engine (worklist seeds are ignored; the rescan
    /// subsumes them). Same successor and same advance trace as
    /// [`SystemState::apply_traced`] by confluence — kept so the
    /// differential tests can prove the worklist never misses a wake-up.
    #[must_use]
    pub fn apply_rescan_traced(&self, t: &Transition) -> (SystemState, AdvanceTrace) {
        let mut s = self.clone();
        let mut wl = Worklist::new(true);
        s.apply_mut(t, &mut wl);
        s.advance_all_with(&mut wl);
        let trace = wl.trace.take().expect("traced worklist");
        (s, trace)
    }

    /// Mutate `self` by one transition, seeding `wl` with the instances
    /// the transition may have unblocked. Seeding rules (the worklist
    /// contract): every instance whose own fields this method mutates is
    /// pushed — the fetched instance, a satisfied reader, a decided
    /// store-conditional, a committed or finished instruction, a sync
    /// acknowledgement's origin instance (cross-thread) — and every
    /// instance a restart cascade clears. Pure storage bookkeeping (write/barrier
    /// propagation, coherence edges, reservation kills) seeds nothing:
    /// eager progress never consults storage state, so propagation can
    /// enable new *transitions* but never a deterministic step.
    #[allow(clippy::too_many_lines)]
    fn apply_mut(&mut self, t: &Transition, wl: &mut Worklist) {
        match t {
            Transition::Thread(tt) => match tt {
                ThreadTransition::Fetch { tid, parent, addr } => {
                    let id = self.fetch(*tid, *parent, *addr);
                    wl.push(*tid, id);
                }
                ThreadTransition::SatisfyReadForward {
                    tid,
                    ioid,
                    from,
                    windex,
                } => {
                    let (addr, size, reserve) = self.threads[*tid].instances[*ioid]
                        .pending_read
                        .expect("pending");
                    assert!(!reserve, "load-reserve satisfies from storage");
                    let value = {
                        let src = &self.threads[*tid].instances[*from].mem_writes[*windex];
                        let off = (addr - src.addr) as usize;
                        src.value.slice(off * 8, size * 8)
                    };
                    self.finish_read_satisfaction(
                        *tid,
                        *ioid,
                        SatRead {
                            addr,
                            size,
                            value,
                            source: ReadSource::Forward(*from, *windex),
                            reserve: false,
                        },
                        wl,
                    );
                }
                ThreadTransition::SatisfyReadStorage { tid, ioid } => {
                    let (addr, size, reserve) = self.threads[*tid].instances[*ioid]
                        .pending_read
                        .expect("pending");
                    let (value, sources) = self.storage.read(*tid, addr, size);
                    if reserve {
                        self.thread_mut(*tid).reservation = Some((addr, size));
                    }
                    self.finish_read_satisfaction(
                        *tid,
                        *ioid,
                        SatRead {
                            addr,
                            size,
                            value,
                            source: ReadSource::Storage(sources),
                            reserve,
                        },
                        wl,
                    );
                }
                ThreadTransition::CommitWrite { tid, ioid, windex } => {
                    self.commit_write(*tid, *ioid, *windex);
                    wl.push(*tid, *ioid);
                }
                ThreadTransition::CommitStcxSuccess { tid, ioid } => {
                    let windex = self.threads[*tid].instances[*ioid]
                        .mem_writes
                        .iter()
                        .position(|w| w.conditional && w.committed.is_none())
                        .expect("conditional write");
                    self.commit_write(*tid, *ioid, windex);
                    self.thread_mut(*tid).reservation = None;
                    let inst = self.thread_mut(*tid).inst_mut(*ioid).expect("live");
                    inst.pending_cond_write = false;
                    inst.state.resume_write_cond(true).expect("pending cond");
                    wl.push(*tid, *ioid);
                }
                ThreadTransition::CommitStcxFail { tid, ioid } => {
                    self.thread_mut(*tid).reservation = None;
                    let inst = self.thread_mut(*tid).inst_mut(*ioid).expect("live");
                    let windex = inst
                        .mem_writes
                        .iter()
                        .position(|w| w.conditional && w.committed.is_none())
                        .expect("conditional write");
                    inst.mem_writes.remove(windex);
                    inst.pending_cond_write = false;
                    inst.state.resume_write_cond(false).expect("pending cond");
                    wl.push(*tid, *ioid);
                }
                ThreadTransition::CommitBarrier { tid, ioid } => {
                    let kind = self.threads[*tid].instances[*ioid]
                        .barrier
                        .expect("barrier");
                    if kind.goes_to_storage() {
                        let id = BarrierId(self.next_barrier_id);
                        self.next_barrier_id += 1;
                        self.storage_mut().accept_barrier(BarrierEv {
                            id,
                            tid: *tid,
                            ioid: (*tid, *ioid),
                            kind,
                        });
                        let inst = self.thread_mut(*tid).inst_mut(*ioid).expect("live");
                        inst.barrier_committed = true;
                        inst.barrier_id = Some(id);
                    } else {
                        let inst = self.thread_mut(*tid).inst_mut(*ioid).expect("live");
                        inst.barrier_committed = true;
                    }
                    // The paused instruction resumes stepping.
                    wl.push(*tid, *ioid);
                }
                ThreadTransition::Finish { tid, ioid } => {
                    let inst = self.thread_mut(*tid).inst_mut(*ioid).expect("live");
                    inst.finished = true;
                    self.thread_mut(*tid).prune_children(*ioid);
                    wl.push(*tid, *ioid);
                }
            },
            Transition::Storage(st) => match st {
                StorageTransition::PropagateWrite { write, to } => {
                    let (addr, size) = self.storage_mut().propagate_write(*write, *to);
                    // A foreign write propagating into the thread kills
                    // an overlapping reservation. (No worklist seed:
                    // reservations gate store-conditional *transitions*,
                    // never a deterministic step.)
                    let w_tid = self.storage.writes[write].tid;
                    if w_tid != *to {
                        if let Some((ra, rs)) = self.threads[*to].reservation {
                            if ra < addr + size as u64 && addr < ra + rs as u64 {
                                self.thread_mut(*to).reservation = None;
                            }
                        }
                    }
                }
                StorageTransition::PropagateBarrier { barrier, to } => {
                    self.storage_mut().propagate_barrier(*barrier, *to);
                }
                StorageTransition::AcknowledgeSync { barrier } => {
                    self.storage_mut().acknowledge_sync(*barrier);
                    // Cross-thread unblock: the acknowledgement lands in
                    // the *origin* thread's instance, so that thread —
                    // and only that thread — re-enters eager progress.
                    let (tid, ioid) = self.storage.barriers[barrier].ioid;
                    if self.threads[tid].instances.contains(ioid) {
                        let inst = self.thread_mut(tid).inst_mut(ioid).expect("live");
                        inst.barrier_acked = true;
                        wl.push(tid, ioid);
                    }
                }
                StorageTransition::PartialCoherence { first, second } => {
                    let ok = self.storage_mut().add_coherence(*first, *second);
                    assert!(ok, "partial coherence commitment must be acyclic");
                }
            },
        }
    }

    fn fetch(&mut self, tid: ThreadId, parent: Option<InstanceId>, addr: u64) -> InstanceId {
        let (instr, sem, fp) = {
            let entry = self
                .program
                .entries
                .get(&addr)
                .expect("fetch of unmapped address");
            (entry.instr.clone(), entry.sem.clone(), entry.fp.clone())
        };
        let limit = crate::thread::instance_id_limit(self.params.max_instances_per_thread);
        let th = self.thread_mut(tid);
        let id = th.next_id;
        th.next_id += 1;
        debug_assert!(
            th.next_id <= limit,
            "thread {tid} allocated more instance ids than instance_id_limit allows"
        );
        let inst = InstrInstance {
            id,
            parent,
            children: Vec::new(),
            addr,
            instr,
            state: InstrState::new(sem.clone()),
            sem,
            static_fp: fp.clone(),
            dyn_fp: fp,
            reg_reads: Vec::new(),
            reg_writes: Vec::new(),
            mem_reads: Vec::new(),
            pending_read: None,
            mem_writes: Vec::new(),
            pending_cond_write: false,
            barrier: None,
            barrier_committed: false,
            barrier_id: None,
            barrier_acked: false,
            done: false,
            finished: false,
            nia: None,
            digest: crate::types::DigestCell::new(),
        };
        th.instances.insert(Arc::new(inst));
        match parent {
            None => th.root = Some(id),
            Some(p) => th.inst_mut(p).expect("parent").children.push(id),
        }
        id
    }

    /// Record a read satisfaction and restart po-later same-footprint
    /// reads that read from different (hence coherence-suspect) sources
    /// (RDW forbidden; RSW stays allowed because equal sources don't
    /// restart). The satisfied reader and every restarted instance are
    /// queued on the worklist for eager progress.
    fn finish_read_satisfaction(
        &mut self,
        tid: ThreadId,
        ioid: InstanceId,
        read: SatRead,
        wl: &mut Worklist,
    ) {
        {
            let inst = self.thread_mut(tid).inst_mut(ioid).expect("live");
            inst.pending_read = None;
            inst.mem_reads.push(read.clone());
            inst.state
                .resume_mem(read.value.clone())
                .expect("pending mem");
        }
        wl.push(tid, ioid);
        // Coherence-order restart check on po-later satisfied reads.
        let th = &self.threads[tid];
        let mut seed = BTreeSet::new();
        th.for_each_descendant(ioid, &mut |d| {
            let dinst = &th.instances[d];
            if dinst.finished {
                return;
            }
            for r2 in &dinst.mem_reads {
                let overlaps =
                    r2.addr < read.addr + read.size as u64 && read.addr < r2.addr + r2.size as u64;
                if !overlaps {
                    continue;
                }
                if !self.same_source(tid, &read, r2) {
                    // A forward from po-between ioid and d is newer than
                    // our read by construction; keep those.
                    if let ReadSource::Forward(from, _) = r2.source {
                        if from == ioid || th.is_ancestor(ioid, from) {
                            continue;
                        }
                    }
                    seed.insert(d);
                }
            }
        });
        if !seed.is_empty() {
            let restarted = self.thread_mut(tid).cascade_restart(seed);
            for id in restarted {
                wl.push(tid, id);
            }
        }
    }

    /// Whether two satisfied reads took their overlapping bytes from the
    /// same writes.
    fn same_source(&self, tid: ThreadId, a: &SatRead, b: &SatRead) -> bool {
        let lo = a.addr.max(b.addr);
        let hi = (a.addr + a.size as u64).min(b.addr + b.size as u64);
        for byte in lo..hi {
            if self.byte_source(tid, a, byte) != self.byte_source(tid, b, byte) {
                return false;
            }
        }
        true
    }

    /// A canonical identity for the write supplying `byte` to a read:
    /// committed storage writes are identified by `WriteId`, uncommitted
    /// forwards by `(instance, index)`.
    fn byte_source(&self, tid: ThreadId, r: &SatRead, byte: u64) -> (u64, u64) {
        match &r.source {
            ReadSource::Storage(srcs) => {
                let idx = (byte - r.addr) as usize;
                (0, u64::from(srcs[idx].0))
            }
            ReadSource::Forward(from, widx) => {
                match self.threads[tid]
                    .instances
                    .get(*from)
                    .and_then(|i| i.mem_writes.get(*widx))
                    .and_then(|w| w.committed)
                {
                    Some(wid) => (0, u64::from(wid.0)),
                    None => (1, (*from as u64) << 16 | *widx as u64),
                }
            }
        }
    }

    fn commit_write(&mut self, tid: ThreadId, ioid: InstanceId, windex: usize) {
        let id = WriteId(self.next_write_id);
        self.next_write_id += 1;
        let (addr, size, value) = {
            let w = &self.threads[tid].instances[ioid].mem_writes[windex];
            (w.addr, w.size, w.value.clone())
        };
        self.storage_mut().accept_write(Write {
            id,
            tid,
            ioid: Some((tid, ioid)),
            addr,
            size,
            value,
        });
        self.thread_mut(tid)
            .inst_mut(ioid)
            .expect("live")
            .mem_writes[windex]
            .committed = Some(id);
    }

    // ---- state classification ------------------------------------------

    /// Whether the state is *final*: every instance of every thread is
    /// finished and no fetch is possible. (Storage propagation may still
    /// be enabled; it cannot affect registers, and final memory values
    /// are enumerated over all coherence completions.)
    #[must_use]
    pub fn is_final(&self) -> bool {
        self.threads.iter().all(|th| th.all_finished())
            && !self
                .enumerate_transitions()
                .iter()
                .any(|t| matches!(t, Transition::Thread(ThreadTransition::Fetch { .. })))
    }

    /// A 64-bit structural digest for search memoisation, computed once
    /// per state and cached.
    ///
    /// The digest is a fold of per-component digests — one per thread
    /// ([`ThreadState::digest`], covering the reservation and the full
    /// instance content) plus the storage subsystem's
    /// ([`StorageState::digest`], which hashes the *content* behind
    /// every event id; see its docs for why ids alone would collide).
    /// Components are `Arc`-shared with successor states, and each
    /// caches its own digest, so after a transition only the touched
    /// thread and/or storage component is re-hashed and the rest fold in
    /// as cached 64-bit values: digesting a successor is O(changed), not
    /// O(state). Mutation funnels ([`SystemState::thread_mut`] /
    /// [`SystemState::storage_mut`]) invalidate the affected caches; any
    /// new storage-side state must both enter [`StorageState::digest`]
    /// and follow that invalidation discipline.
    #[must_use]
    pub fn digest(&self) -> u64 {
        #[cfg(debug_assertions)]
        self.audit_digest_caches();
        self.digest.get_or_compute(|| {
            let mut h = crate::types::DigestHasher::new();
            for th in &self.threads {
                th.digest().hash(&mut h);
            }
            self.storage.digest().hash(&mut h);
            h.finish()
        })
    }

    /// Debug-build digest audit, run on every [`SystemState::digest`]
    /// call (i.e. at successor-publish time, when the oracle engines
    /// dedup against the visited set): every *populated* `DigestCell` is
    /// recomputed from scratch and compared against its cached value, so
    /// a mutation that bypassed the `thread_mut`/`storage_mut`/`inst_mut`
    /// funnels — the standing digest hazard — fails loudly in `cargo
    /// test` instead of silently colliding or dropping states. Empty
    /// cells need no check (their next read computes fresh). Costs one
    /// full-state hash per call, debug builds only.
    #[cfg(debug_assertions)]
    fn audit_digest_caches(&self) {
        for th in &self.threads {
            if let Some(cached) = th.digest.peek() {
                assert_eq!(
                    cached,
                    th.digest_uncached(),
                    "stale cached digest for thread {}: some mutation bypassed \
                     SystemState::thread_mut / ThreadState::inst_mut",
                    th.tid
                );
            }
            for (id, inst) in th.instances.iter() {
                if let Some(cached) = inst.digest.peek() {
                    assert_eq!(
                        cached,
                        inst.digest_uncached(),
                        "stale cached digest for instance {}:{id}: some mutation \
                         bypassed ThreadState::inst_mut",
                        th.tid
                    );
                }
            }
        }
        self.storage.audit_component_digests();
        if let Some(cached) = self.storage.digest.peek() {
            assert_eq!(
                cached,
                self.storage.digest_uncached(),
                "stale cached storage digest: some mutation bypassed \
                 SystemState::storage_mut"
            );
        }
        if let Some(cached) = self.digest.peek() {
            let mut h = crate::types::DigestHasher::new();
            for th in &self.threads {
                th.digest_uncached().hash(&mut h);
            }
            self.storage.digest_uncached().hash(&mut h);
            assert_eq!(
                cached,
                h.finish(),
                "stale cached whole-state digest: some mutation bypassed the \
                 SystemState mutation funnels"
            );
        }
    }
}

impl InstrInstance {
    /// Whether the instance performs (or may perform) memory reads.
    #[must_use]
    pub fn is_load_like(&self) -> bool {
        !self.mem_reads.is_empty()
            || self.pending_read.is_some()
            || (!self.done && self.dyn_fp.mem_reads.may_access())
    }

    /// All recorded memory writes committed, and no more can appear.
    #[must_use]
    pub fn all_writes_committed(&self) -> bool {
        self.mem_writes.iter().all(|w| w.committed.is_some())
            && (self.done || !self.dyn_fp.mem_writes.may_access())
    }
}
