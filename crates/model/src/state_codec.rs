//! Canonical, deterministic byte encoding for whole [`SystemState`]s.
//!
//! The exhaustive oracle memoises states by a 64-bit digest that hashes
//! shared-`Arc` pointers ([`SystemState::digest`]), which is stable only
//! within one built system. This codec is the rebuild-stable complement:
//! it serialises every thread state, every in-flight instruction
//! instance (including its suspended interpreter continuation, via
//! [`ppc_idl::codec`]'s block-index encoding), and the whole
//! [`StorageState`] into a compact byte string with an exact inverse —
//! `decode(encode(s)) == s` under [`SystemState`]'s structural equality,
//! and `encode` produces identical bytes for architecturally identical
//! states of two *independently built* systems for the same program.
//!
//! The encoding is what lets the [`crate::store::StateStore`] spill
//! frontier states to temp files mid-exploration and read them back
//! without perturbing the search (digests of decoded states equal the
//! originals', because decode resolves all shared structure — semantics,
//! blocks, static footprints — back to the same program-cache `Arc`s),
//! and is the groundwork for resumable and cross-machine distributed
//! exploration.
//!
//! Format notes: all integers are LEB128 varints (`usize` travels as
//! `u64`), bitvectors pack four lifted bits per byte, `BTreeMap`/
//! `BTreeSet` contents are emitted in their (deterministic) sorted
//! order, and the stream opens with a one-byte format version.
//!
//! ## Component memo
//!
//! A state is `T` thread components plus storage, each behind its own
//! `Arc`, and a successor differs from its parent in one or two of them.
//! A [`CodecCtx`] therefore remembers, per thread slot, for storage, and
//! one level down per `(thread slot, instance id)`, the last few
//! `(Arc<component>, its canonical bytes)` pairs it wrote or read.
//! `encode` looks a component up by `Arc::ptr_eq` and copies its bytes
//! instead of walking it; `decode` looks one up by comparing the
//! memoised bytes with the unread input and returns the memoised `Arc`
//! instead of rebuilding it. Decoded states then share their unchanged
//! components — cached digests and transition enumerations included —
//! exactly as in-process successors do, where a memo-less decode is a
//! deep copy whose first expansion re-hashes and re-enumerates
//! everything. A miss in one direction inserts what the other can hit,
//! and a miss (or an absent memo) falls through the *same*
//! `encode_thread` / `decode_thread` / `…_instance` / `…_storage`
//! function: there is no second path.
//!
//! The memo is invisible outside the process: not one byte of a state,
//! frame record, spill segment, checkpoint, journal or message depends
//! on it, the two ends of a link need not agree on anything, and no
//! digest is trusted. Why it is exact:
//!
//! - **Encode: a pinned `Arc` cannot change.** The memo holds a clone of
//!   the `Arc`, so while an entry lives the pointer cannot be reused for
//!   another value and `Arc::make_mut` — what the only mutation funnels
//!   (`SystemState::thread_mut` / `storage_mut`, `ThreadState::inst_mut`)
//!   go through — sees a count above one and clones rather than mutate
//!   in place. Pointer equality therefore implies the value the bytes
//!   were written from. (The digest and enumeration cells do fill in
//!   behind a shared `Arc`; they are not part of the encoding.)
//! - **Decode: the parser is prefix-deterministic.** Each `decode_*` is a
//!   sequential parser over a [`Reader`] whose result is a function of
//!   the bytes it consumes and of the context's immutable program. If a
//!   component was once parsed from exactly the bytes `B`, any input
//!   that starts with `B` parses to an equal component and consumes
//!   `|B|` bytes. The one place a parser asks how much input is left
//!   (`ppc_idl`'s slot-count guard) only rejects inputs shorter than
//!   what the parse would go on to consume, so it cannot tell two inputs
//!   with the same consumed prefix apart. Checks that are about the
//!   enclosing thread rather than the instance's own bytes (`id <
//!   next_id`, duplicate ids) run after the lookup, hit or miss.
//! - **Keys are pointers and bytes, never digests.**
//!   `ThreadState::digest` leaves out `tid`, `next_id`, `root`,
//!   `start_addr` and `init_regs`, and an instance's digest leaves out
//!   its `id`, `children`, `dyn_fp` and `barrier_id` (all derivable
//!   *within one state*), so two components with equal digests can
//!   encode differently; and a 64-bit collision would be a wrong state.
//! - **Input cannot size it.** Thread count and instance ids come from
//!   the record; the memo indexes them only below `MEMO_THREAD_SLOTS`
//!   and `MEMO_INSTANCE_IDS` and walks anything beyond, so memory is
//!   `ways × (slots + bounded instance ids)` entries whatever the state
//!   space or a corrupt record says.
//!
//! Debug builds re-derive every hit the slow way and compare — fresh
//! bytes on an encode hit, a fresh parse on a decode hit — beside
//! `SystemState::digest`'s cache audit, so every debug test that moves a
//! state through the codec checks exactness on every hit.
//! [`CodecCtx::memo_stats`] counts hits, misses and bytes per level and
//! direction.

use crate::storage::{StorageEvent, StorageState, StorageTransition};
use crate::system::{Program, SystemState, Transition};
use crate::thread::ThreadTransition;
use crate::thread::{
    instance_id_limit, InstanceArena, InstanceId, InstrInstance, PendingWrite, ReadSource,
    RegReadRec, SatRead, ThreadState,
};
use crate::types::{
    BarrierEv, BarrierId, DigestCell, Digested, ModelParams, TransitionCache, Write, WriteId,
};
use ppc_bits::{DecodeError, Reader, Writer};
use ppc_idl::codec::{
    decode_barrier_kind, decode_footprint, decode_instr_state, decode_reg, decode_reg_slice,
    encode_barrier_kind, encode_footprint, encode_instr_state, encode_reg, encode_reg_slice,
    sem_blocks,
};
use ppc_idl::Block;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Format version byte leading every encoded state.
const VERSION: u8 = 1;

/// Ways per component slot (one thread slot, or storage). A state's
/// search neighbours differ from it in one or two components, so the last
/// few values of a slot are the ones that recur. A constant, not a knob —
/// fewer ways only walk more.
const COMPONENT_WAYS: usize = 16;

/// Ways per `(thread slot, instance id)`: one instance takes far fewer
/// distinct values than the thread around it.
const INSTANCE_WAYS: usize = 8;

/// Thread slots the memo covers. The thread count of a record is
/// untrusted input, so it must not size anything: threads past this
/// bound are walked every time.
const MEMO_THREAD_SLOTS: usize = 8;

/// Instance ids per thread slot the memo covers (twice the default
/// `max_instances_per_thread`). The id is read from untrusted bytes, so
/// ids past this bound bypass the memo instead of growing it.
const MEMO_INSTANCE_IDS: usize = 64;

/// Hits and misses of one memo level in one direction, with the bytes
/// each covered. Deterministic counters: they depend on the sequence of
/// encode/decode calls and nothing else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to the walk / parse.
    pub misses: u64,
    /// Canonical bytes the hits covered (copied out, or skipped over).
    pub hit_bytes: u64,
    /// Canonical bytes the misses covered (walked, or parsed).
    pub miss_bytes: u64,
}

impl MemoCounts {
    fn hit(&mut self, bytes: usize) {
        self.hits += 1;
        self.hit_bytes += bytes as u64;
    }

    fn miss(&mut self, bytes: usize) {
        self.misses += 1;
        self.miss_bytes += bytes as u64;
    }

    /// Hits over lookups (`0.0` before the first lookup).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

impl std::ops::AddAssign for MemoCounts {
    fn add_assign(&mut self, other: MemoCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.hit_bytes += other.hit_bytes;
        self.miss_bytes += other.miss_bytes;
    }
}

/// What a [`CodecCtx`]'s component memo has done: component level
/// (threads and storage) and instance level, by direction. Instances are
/// looked up only under a thread miss, so an instance hit's bytes are
/// part of that thread's `miss_bytes`; [`MemoStats::encode_bytes`] and
/// [`MemoStats::decode_bytes`] net that out. (A decode that fails inside
/// a thread has counted its instance hits but not the thread's miss.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Thread and storage lookups by `Arc` pointer.
    pub component_encode: MemoCounts,
    /// Thread and storage lookups by byte prefix.
    pub component_decode: MemoCounts,
    /// Instance lookups by `Arc` pointer.
    pub instance_encode: MemoCounts,
    /// Instance lookups by byte prefix.
    pub instance_decode: MemoCounts,
}

impl MemoStats {
    /// `(copied from the memo, produced by walking)` bytes of memoised
    /// components on the encode side.
    #[must_use]
    pub fn encode_bytes(&self) -> (u64, u64) {
        let copied = self.component_encode.hit_bytes + self.instance_encode.hit_bytes;
        let walked =
            (self.component_encode.miss_bytes).saturating_sub(self.instance_encode.hit_bytes);
        (copied, walked)
    }

    /// `(skipped by a memo hit, parsed)` bytes on the decode side.
    #[must_use]
    pub fn decode_bytes(&self) -> (u64, u64) {
        let skipped = self.component_decode.hit_bytes + self.instance_decode.hit_bytes;
        let parsed =
            (self.component_decode.miss_bytes).saturating_sub(self.instance_decode.hit_bytes);
        (skipped, parsed)
    }
}

/// Counters of several contexts (a CLI summing its explorations).
impl std::ops::AddAssign for MemoStats {
    fn add_assign(&mut self, other: MemoStats) {
        self.component_encode += other.component_encode;
        self.component_decode += other.component_decode;
        self.instance_encode += other.instance_encode;
        self.instance_decode += other.instance_decode;
    }
}

/// The one-line form the CLIs print (`hits/lookups` per level and
/// direction, then the byte split).
impl std::fmt::Display for MemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let frac = |c: &MemoCounts| format!("{}/{}", c.hits, c.hits + c.misses);
        let (copied, walked) = self.encode_bytes();
        let (skipped, parsed) = self.decode_bytes();
        write!(
            f,
            "encode component {} instance {} bytes {copied} copied {walked} walked; \
             decode component {} instance {} bytes {skipped} skipped {parsed} parsed",
            frac(&self.component_encode),
            frac(&self.instance_encode),
            frac(&self.component_decode),
            frac(&self.instance_decode),
        )
    }
}

/// A small most-recent-first table of `(component, its canonical bytes)`
/// — the one memo type behind all three levels and both directions.
/// Lookups are exact (pointer identity, byte equality); a full table
/// forgets its least recently used entry, which is then walked again.
#[derive(Debug)]
struct Memo<T> {
    ways: usize,
    entries: Vec<(Arc<T>, Box<[u8]>)>,
    encode: MemoCounts,
    decode: MemoCounts,
}

impl<T: PartialEq + std::fmt::Debug> Memo<T> {
    fn new(ways: usize) -> Self {
        Memo {
            ways,
            entries: Vec::new(),
            encode: MemoCounts::default(),
            decode: MemoCounts::default(),
        }
    }

    /// Move entry `i` to the front and return it.
    fn touch(&mut self, i: usize) -> &(Arc<T>, Box<[u8]>) {
        self.entries[..=i].rotate_right(1);
        &self.entries[0]
    }

    /// Encode side: if `c` itself (by `Arc` pointer) is memoised, append
    /// its bytes to `w`. Debug builds re-derive them with `fresh` (the
    /// memo-less walk) and compare.
    fn by_ptr(&mut self, c: &Arc<T>, w: &mut Writer, fresh: impl FnOnce(&mut Writer)) -> bool {
        let Some(i) = self.entries.iter().position(|(a, _)| Arc::ptr_eq(a, c)) else {
            return false;
        };
        let bytes = &self.touch(i).1;
        if cfg!(debug_assertions) {
            let mut walked = Writer::new();
            fresh(&mut walked);
            assert_eq!(
                walked.as_slice(),
                &**bytes,
                "codec memo served stale bytes for a pinned component"
            );
        }
        w.bytes(bytes);
        let n = bytes.len();
        self.encode.hit(n);
        true
    }

    /// Decode side: if a memoised component's bytes are a prefix of the
    /// unread input, consume them and return that component. Debug
    /// builds re-derive it with `fresh` (the memo-less parse) and compare.
    fn by_prefix(
        &mut self,
        r: &mut Reader<'_>,
        fresh: impl FnOnce(&mut Reader<'_>) -> Result<Arc<T>, DecodeError>,
    ) -> Option<Arc<T>> {
        let input = r.rest();
        let i = self
            .entries
            .iter()
            .position(|(_, b)| input.starts_with(b))?;
        let (c, bytes) = self.touch(i);
        let (c, n) = (c.clone(), bytes.len());
        if cfg!(debug_assertions) {
            let mut probe = Reader::new(input);
            let parsed = fresh(&mut probe);
            assert!(
                parsed.as_ref() == Ok(&c) && input.len() - probe.remaining() == n,
                "codec memo served a component its bytes do not parse to: {parsed:?} vs {c:?}"
            );
        }
        r.bytes(n).expect("the matched prefix is unread input");
        self.decode.hit(n);
        Some(c)
    }

    /// Remember `c` and its bytes after a miss (`decoded` says in which
    /// direction), evicting the least recently used entry when full.
    fn insert(&mut self, c: &Arc<T>, bytes: &[u8], decoded: bool) {
        if decoded {
            self.decode.miss(bytes.len());
        } else {
            self.encode.miss(bytes.len());
            // An equal component under another `Arc` (`apply` re-created
            // a value decoded earlier) takes that entry over instead of
            // a second way: the live pointer is the one encoded next,
            // and one byte string keeps mapping to one `Arc`. A decode
            // miss cannot find one — `by_prefix` has just looked.
            if let Some(i) = self.entries.iter().position(|(_, b)| **b == *bytes) {
                self.entries[i].0 = c.clone();
                self.touch(i);
                return;
            }
        }
        self.entries.truncate(self.ways - 1);
        self.entries.insert(0, (c.clone(), bytes.into()));
    }
}

/// The memo of one thread slot: whole thread states, and one level down
/// the instances by id (consulted only when the thread itself misses).
#[derive(Debug)]
struct ThreadMemo {
    whole: Memo<ThreadState>,
    instances: Vec<Memo<InstrInstance>>,
}

impl ThreadMemo {
    /// The memo for instance `id`; `None` past [`MEMO_INSTANCE_IDS`].
    fn instance(&mut self, id: InstanceId) -> Option<&mut Memo<InstrInstance>> {
        grow_to(&mut self.instances, id, MEMO_INSTANCE_IDS, || {
            Memo::new(INSTANCE_WAYS)
        })
    }
}

/// `v[i]`, created on first use, for `i` below the constant `bound`
/// only: `i` comes from untrusted bytes and must not become an
/// allocation.
fn grow_to<M>(v: &mut Vec<M>, i: usize, bound: usize, new: impl FnMut() -> M) -> Option<&mut M> {
    if i >= bound {
        return None;
    }
    if i >= v.len() {
        v.resize_with(i + 1, new);
    }
    Some(&mut v[i])
}

/// Everything a [`CodecCtx`] memoises. At most
/// `COMPONENT_WAYS × (MEMO_THREAD_SLOTS + 1) + INSTANCE_WAYS ×
/// MEMO_THREAD_SLOTS × MEMO_INSTANCE_IDS` entries, whatever the size of
/// the state space and whatever the input says.
#[derive(Debug)]
struct MemoState {
    threads: Vec<ThreadMemo>,
    storage: Memo<StorageState>,
}

impl MemoState {
    /// The memo for thread slot `slot`; `None` past [`MEMO_THREAD_SLOTS`].
    fn thread(&mut self, slot: usize) -> Option<&mut ThreadMemo> {
        grow_to(&mut self.threads, slot, MEMO_THREAD_SLOTS, || ThreadMemo {
            whole: Memo::new(COMPONENT_WAYS),
            instances: Vec::new(),
        })
    }

    fn stats(&self) -> MemoStats {
        let mut s = MemoStats {
            component_encode: self.storage.encode,
            component_decode: self.storage.decode,
            ..MemoStats::default()
        };
        for t in &self.threads {
            s.component_encode += t.whole.encode;
            s.component_decode += t.whole.decode;
            for i in &t.instances {
                s.instance_encode += i.encode;
                s.instance_decode += i.decode;
            }
        }
        s
    }
}

/// Shared context for encoding/decoding the states of one exploration:
/// the (immutable) program, the model parameters, the per-address
/// block enumerations of every instruction's semantics (computed once,
/// so per-state encode/decode does no AST walking), and the component
/// memo (see the module docs).
#[derive(Debug)]
pub struct CodecCtx {
    program: Arc<Program>,
    params: ModelParams,
    blocks: BTreeMap<u64, Vec<Block>>,
    /// Taken with `try_lock` once per state: a context shared by
    /// work-stealing threads must never serialise their encodes, so a
    /// contended (or poisoned) memo is simply not used for that state.
    memo: Mutex<MemoState>,
    /// Length of the last record [`CodecCtx::encode_into`] finished —
    /// the next writer's capacity hint. Neighbouring states are within
    /// a few bytes of each other.
    record_hint: AtomicUsize,
}

impl CodecCtx {
    /// Build a codec context for one program + parameter set. Every
    /// state passed to [`CodecCtx::encode`] / [`CodecCtx::decode`] must
    /// belong to this program (share its `Arc`) and carry these params.
    #[must_use]
    pub fn new(program: Arc<Program>, params: ModelParams) -> Self {
        let blocks = program
            .entries
            .iter()
            .map(|(&addr, e)| (addr, sem_blocks(&e.sem)))
            .collect();
        CodecCtx {
            program,
            params,
            blocks,
            memo: Mutex::new(MemoState {
                threads: Vec::new(),
                storage: Memo::new(COMPONENT_WAYS),
            }),
            record_hint: AtomicUsize::new(0),
        }
    }

    /// The context implied by a state (its program and parameters).
    #[must_use]
    pub fn for_state(state: &SystemState) -> Self {
        CodecCtx::new(state.program.clone(), state.params.clone())
    }

    /// What this context's component memo has done so far.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stats()
    }

    /// The capacity to start the next record's [`Writer`] with.
    pub(crate) fn record_hint(&self) -> usize {
        self.record_hint.load(Ordering::Relaxed)
    }

    /// Encode a state to its canonical byte string.
    ///
    /// # Panics
    ///
    /// Panics if the state does not belong to this context's program
    /// (an instance is fetched from an address the program lacks).
    #[must_use]
    pub fn encode(&self, state: &SystemState) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.record_hint());
        self.encode_into(&mut w, state);
        w.into_bytes()
    }

    /// [`CodecCtx::encode`] appended to a record the caller has begun
    /// (the state is the last thing in a frame record).
    ///
    /// # Panics
    ///
    /// As [`CodecCtx::encode`].
    pub fn encode_into(&self, w: &mut Writer, state: &SystemState) {
        let mut guard = self.memo.try_lock().ok();
        let mut memo = guard.as_deref_mut();
        w.byte(VERSION);
        w.usizev(state.threads.len());
        for (slot, th) in state.threads.iter().enumerate() {
            let memo = memo.as_deref_mut().and_then(|m| m.thread(slot));
            self.encode_thread(w, th, memo);
        }
        encode_storage(w, &state.storage, memo.map(|m| &mut m.storage));
        w.u64v(u64::from(state.next_write_id));
        w.u64v(u64::from(state.next_barrier_id));
        self.record_hint.store(w.len(), Ordering::Relaxed);
    }

    /// Decode a canonical byte string back into a state of this
    /// context's program, resolving all shared structure (semantics,
    /// control-stack blocks, static footprints, instruction words) to
    /// the program cache's own `Arc`s — so the decoded state's digest
    /// equals the original's. Components whose bytes the memo has seen
    /// come back as the *same* `Arc`s earlier calls returned (or
    /// encoded), cached digests and enumerations included.
    ///
    /// # Errors
    ///
    /// Any truncation, version/tag mismatch, or reference to structure
    /// the program does not contain.
    pub fn decode(&self, bytes: &[u8]) -> Result<SystemState, DecodeError> {
        let mut guard = self.memo.try_lock().ok();
        let mut memo = guard.as_deref_mut();
        let mut r = Reader::new(bytes);
        let v = r.byte()?;
        if v != VERSION {
            return Err(DecodeError::BadTag {
                what: "state codec version",
                tag: v,
            });
        }
        // No capacity hint: `nthreads` is attacker-controlled until the
        // per-thread decodes validate it, and a corrupt varint must not
        // become a pathological up-front allocation. For the same reason
        // the memo is indexed only below constant bounds.
        let nthreads = r.usizev()?;
        let mut threads = Vec::new();
        for slot in 0..nthreads {
            let memo = memo.as_deref_mut().and_then(|m| m.thread(slot));
            threads.push(self.decode_thread(&mut r, memo)?);
        }
        let storage = decode_storage(&mut r, memo.map(|m| &mut m.storage))?;
        let next_write_id =
            u32::try_from(r.u64v()?).map_err(|_| DecodeError::Invalid("next_write_id range"))?;
        let next_barrier_id =
            u32::try_from(r.u64v()?).map_err(|_| DecodeError::Invalid("next_barrier_id range"))?;
        if !r.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bytes after state"));
        }
        Ok(SystemState {
            program: self.program.clone(),
            threads,
            storage,
            params: self.params.clone(),
            next_write_id,
            next_barrier_id,
            digest: DigestCell::new(),
        })
    }

    fn encode_thread(
        &self,
        w: &mut Writer,
        th: &Arc<ThreadState>,
        mut memo: Option<&mut ThreadMemo>,
    ) {
        if let Some(m) = &mut memo {
            if m.whole
                .by_ptr(th, w, |fresh| self.encode_thread(fresh, th, None))
            {
                return;
            }
        }
        let start = w.len();
        w.usizev(th.tid);
        w.u64v(th.start_addr);
        w.usizev(th.next_id);
        w.option(th.root.as_ref(), |w, &r| w.usizev(r));
        w.option(th.reservation.as_ref(), |w, &(a, s)| {
            w.u64v(a);
            w.usizev(s);
        });
        w.usizev(th.init_regs.len());
        for (&reg, v) in th.init_regs.iter() {
            encode_reg(w, reg);
            w.bv(v);
        }
        w.usizev(th.instances.len());
        for inst in th.instances.arcs() {
            let memo = memo.as_deref_mut().and_then(|m| m.instance(inst.id));
            self.encode_instance(w, inst, memo);
        }
        if let Some(m) = memo {
            m.whole.insert(th, &w.as_slice()[start..], false);
        }
    }

    fn decode_thread(
        &self,
        r: &mut Reader<'_>,
        mut memo: Option<&mut ThreadMemo>,
    ) -> Result<Arc<ThreadState>, DecodeError> {
        if let Some(m) = &mut memo {
            if let Some(th) = m
                .whole
                .by_prefix(r, |fresh| self.decode_thread(fresh, None))
            {
                return Ok(th);
            }
        }
        let input = r.rest();
        let tid = r.usizev()?;
        let start_addr = r.u64v()?;
        let next_id = r.usizev()?;
        // `next_id` bounds every id below, and is itself bounded by what
        // a thread of this context's exploration can allocate at all: an
        // id sizes the arena's slot vector, so neither may come from the
        // record alone.
        if next_id > instance_id_limit(self.params.max_instances_per_thread) {
            return Err(DecodeError::Invalid("next_id beyond the instance id limit"));
        }
        let root = r.option(Reader::usizev)?;
        let reservation = r.option(|r| {
            let a = r.u64v()?;
            let s = r.usizev()?;
            Ok((a, s))
        })?;
        let mut init_regs = BTreeMap::new();
        for _ in 0..r.usizev()? {
            let reg = decode_reg(r)?;
            let v = r.bv()?;
            init_regs.insert(reg, v);
        }
        // Instances travel in ascending id order (the arena's live
        // sequence, formerly the `BTreeMap`'s — bytes are unchanged).
        // Ids index the dense arena, so bound them by the thread's own
        // id allocator before inserting: a corrupt varint must surface
        // as a decode error, not as a near-usize::MAX slot allocation.
        // A memoised instance goes through the same two checks — they
        // are about this thread, not about the instance's bytes.
        let mut instances = InstanceArena::new();
        for _ in 0..r.usizev()? {
            // An instance record leads with its id: peek it to pick the
            // memo. If it does not parse, neither will the instance.
            let memo = match (&mut memo, Reader::new(r.rest()).usizev()) {
                (Some(m), Ok(id)) => m.instance(id),
                _ => None,
            };
            let inst = self.decode_instance(r, memo)?;
            if inst.id >= next_id {
                return Err(DecodeError::Invalid("instance id beyond next_id"));
            }
            if instances.contains(inst.id) {
                return Err(DecodeError::Invalid("duplicate instance id"));
            }
            instances.insert(inst);
        }
        let th = Arc::new(ThreadState {
            tid,
            init_regs: Arc::new(init_regs),
            instances,
            root,
            next_id,
            reservation,
            start_addr,
            digest: DigestCell::new(),
            enum_cache: TransitionCache::new(),
        });
        if let Some(m) = memo {
            m.whole
                .insert(&th, &input[..input.len() - r.remaining()], true);
        }
        Ok(th)
    }

    fn encode_instance(
        &self,
        w: &mut Writer,
        inst: &Arc<InstrInstance>,
        mut memo: Option<&mut Memo<InstrInstance>>,
    ) {
        if let Some(m) = &mut memo {
            if m.by_ptr(inst, w, |fresh| self.encode_instance(fresh, inst, None)) {
                return;
            }
        }
        let start = w.len();
        w.usizev(inst.id);
        w.option(inst.parent.as_ref(), |w, &p| w.usizev(p));
        w.usizev(inst.children.len());
        for &c in &inst.children {
            w.usizev(c);
        }
        w.u64v(inst.addr);
        let blocks = self
            .blocks
            .get(&inst.addr)
            .expect("instance address is in the program");
        encode_instr_state(w, &inst.state, blocks);
        encode_footprint(w, &inst.dyn_fp);
        w.usizev(inst.reg_reads.len());
        for rr in &inst.reg_reads {
            encode_reg_slice(w, rr.slice);
            w.bv(&rr.value);
            w.usizev(rr.sources.len());
            for &s in &rr.sources {
                w.usizev(s);
            }
        }
        w.usizev(inst.reg_writes.len());
        for (slice, v) in &inst.reg_writes {
            encode_reg_slice(w, *slice);
            w.bv(v);
        }
        w.usizev(inst.mem_reads.len());
        for mr in &inst.mem_reads {
            encode_sat_read(w, mr);
        }
        w.option(inst.pending_read.as_ref(), |w, &(a, s, res)| {
            w.u64v(a);
            w.usizev(s);
            w.bool(res);
        });
        w.usizev(inst.mem_writes.len());
        for mw in &inst.mem_writes {
            w.u64v(mw.addr);
            w.usizev(mw.size);
            w.bv(&mw.value);
            w.option(mw.committed.as_ref(), |w, id| w.u64v(u64::from(id.0)));
            w.bool(mw.conditional);
        }
        w.bool(inst.pending_cond_write);
        w.option(inst.barrier.as_ref(), |w, &k| encode_barrier_kind(w, k));
        w.bool(inst.barrier_committed);
        w.option(inst.barrier_id.as_ref(), |w, id| w.u64v(u64::from(id.0)));
        w.bool(inst.barrier_acked);
        w.bool(inst.done);
        w.bool(inst.finished);
        w.option(inst.nia.as_ref(), |w, &n| w.u64v(n));
        if let Some(m) = memo {
            m.insert(inst, &w.as_slice()[start..], false);
        }
    }

    fn decode_instance(
        &self,
        r: &mut Reader<'_>,
        mut memo: Option<&mut Memo<InstrInstance>>,
    ) -> Result<Arc<InstrInstance>, DecodeError> {
        if let Some(m) = &mut memo {
            if let Some(inst) = m.by_prefix(r, |fresh| self.decode_instance(fresh, None)) {
                return Ok(inst);
            }
        }
        let input = r.rest();
        let id: InstanceId = r.usizev()?;
        let parent = r.option(Reader::usizev)?;
        let mut children = Vec::new();
        for _ in 0..r.usizev()? {
            children.push(r.usizev()?);
        }
        let addr = r.u64v()?;
        let entry = self
            .program
            .entries
            .get(&addr)
            .ok_or(DecodeError::Invalid("instance address not in program"))?;
        let blocks = self
            .blocks
            .get(&addr)
            .ok_or(DecodeError::Invalid("instance address not in program"))?;
        let state = decode_instr_state(r, &entry.sem, blocks)?;
        let dyn_fp_content = decode_footprint(r)?;
        // Share the program's static-footprint Arc when the dynamic one
        // has not diverged (the common case), as `fetch` does.
        let dyn_fp = if dyn_fp_content == *entry.fp {
            entry.fp.clone()
        } else {
            Arc::new(dyn_fp_content)
        };
        let mut reg_reads = Vec::new();
        for _ in 0..r.usizev()? {
            let slice = decode_reg_slice(r)?;
            let value = r.bv()?;
            let mut sources = BTreeSet::new();
            for _ in 0..r.usizev()? {
                sources.insert(r.usizev()?);
            }
            reg_reads.push(RegReadRec {
                slice,
                value,
                sources,
            });
        }
        let mut reg_writes = Vec::new();
        for _ in 0..r.usizev()? {
            let slice = decode_reg_slice(r)?;
            let v = r.bv()?;
            reg_writes.push((slice, v));
        }
        let mut mem_reads = Vec::new();
        for _ in 0..r.usizev()? {
            mem_reads.push(decode_sat_read(r)?);
        }
        let pending_read = r.option(|r| {
            let a = r.u64v()?;
            let s = r.usizev()?;
            let res = r.bool()?;
            Ok((a, s, res))
        })?;
        let mut mem_writes = Vec::new();
        for _ in 0..r.usizev()? {
            let addr = r.u64v()?;
            let size = r.usizev()?;
            let value = r.bv()?;
            let committed = r.option(|r| decode_write_id(r))?;
            let conditional = r.bool()?;
            mem_writes.push(PendingWrite {
                addr,
                size,
                value,
                committed,
                conditional,
            });
        }
        let pending_cond_write = r.bool()?;
        let barrier = r.option(decode_barrier_kind)?;
        let barrier_committed = r.bool()?;
        let barrier_id = r.option(|r| decode_barrier_id(r))?;
        let barrier_acked = r.bool()?;
        let done = r.bool()?;
        let finished = r.bool()?;
        let nia = r.option(Reader::u64v)?;
        let inst = Arc::new(InstrInstance {
            id,
            parent,
            children,
            addr,
            instr: entry.instr.clone(),
            sem: entry.sem.clone(),
            state,
            static_fp: entry.fp.clone(),
            dyn_fp,
            reg_reads,
            reg_writes,
            mem_reads,
            pending_read,
            mem_writes,
            pending_cond_write,
            barrier,
            barrier_committed,
            barrier_id,
            barrier_acked,
            done,
            finished,
            nia,
            digest: DigestCell::new(),
        });
        if let Some(m) = memo {
            m.insert(&inst, &input[..input.len() - r.remaining()], true);
        }
        Ok(inst)
    }
}

fn encode_sat_read(w: &mut Writer, mr: &SatRead) {
    w.u64v(mr.addr);
    w.usizev(mr.size);
    w.bv(&mr.value);
    match &mr.source {
        ReadSource::Forward(from, widx) => {
            w.byte(0);
            w.usizev(*from);
            w.usizev(*widx);
        }
        ReadSource::Storage(srcs) => {
            w.byte(1);
            w.usizev(srcs.len());
            for id in srcs {
                w.u64v(u64::from(id.0));
            }
        }
    }
    w.bool(mr.reserve);
}

fn decode_sat_read(r: &mut Reader<'_>) -> Result<SatRead, DecodeError> {
    let addr = r.u64v()?;
    let size = r.usizev()?;
    let value = r.bv()?;
    let source = match r.byte()? {
        0 => {
            let from = r.usizev()?;
            let widx = r.usizev()?;
            ReadSource::Forward(from, widx)
        }
        1 => {
            let mut srcs = Vec::new();
            for _ in 0..r.usizev()? {
                srcs.push(decode_write_id(r)?);
            }
            ReadSource::Storage(srcs)
        }
        tag => {
            return Err(DecodeError::BadTag {
                what: "ReadSource",
                tag,
            })
        }
    };
    let reserve = r.bool()?;
    Ok(SatRead {
        addr,
        size,
        value,
        source,
        reserve,
    })
}

fn decode_write_id(r: &mut Reader<'_>) -> Result<WriteId, DecodeError> {
    u32::try_from(r.u64v()?)
        .map(WriteId)
        .map_err(|_| DecodeError::Invalid("WriteId range"))
}

fn decode_barrier_id(r: &mut Reader<'_>) -> Result<BarrierId, DecodeError> {
    u32::try_from(r.u64v()?)
        .map(BarrierId)
        .map_err(|_| DecodeError::Invalid("BarrierId range"))
}

fn encode_storage(
    w: &mut Writer,
    st: &Arc<StorageState>,
    mut memo: Option<&mut Memo<StorageState>>,
) {
    if let Some(m) = &mut memo {
        if m.by_ptr(st, w, |fresh| encode_storage(fresh, st, None)) {
            return;
        }
    }
    let start = w.len();
    w.usizev(st.threads);
    w.usizev(st.writes.len());
    for wr in st.writes.values() {
        w.u64v(u64::from(wr.id.0));
        w.usizev(wr.tid);
        w.option(wr.ioid.as_ref(), |w, &(t, i)| {
            w.usizev(t);
            w.usizev(i);
        });
        w.u64v(wr.addr);
        w.usizev(wr.size);
        w.bv(&wr.value);
    }
    w.usizev(st.barriers.len());
    for b in st.barriers.values() {
        w.u64v(u64::from(b.id.0));
        w.usizev(b.tid);
        w.usizev(b.ioid.0);
        w.usizev(b.ioid.1);
        encode_barrier_kind(w, b.kind);
    }
    w.usizev(st.writes_seen.len());
    for id in st.writes_seen.iter() {
        w.u64v(u64::from(id.0));
    }
    w.usizev(st.coherence.len());
    for (a, b) in st.coherence.iter() {
        w.u64v(u64::from(a.0));
        w.u64v(u64::from(b.0));
    }
    w.usizev(st.events_propagated_to.len());
    for list in &st.events_propagated_to {
        w.usizev(list.len());
        for ev in list.iter() {
            match ev {
                StorageEvent::W(id) => {
                    w.byte(0);
                    w.u64v(u64::from(id.0));
                }
                StorageEvent::B(id) => {
                    w.byte(1);
                    w.u64v(u64::from(id.0));
                }
            }
        }
    }
    w.usizev(st.unacknowledged_sync_requests.len());
    for id in st.unacknowledged_sync_requests.iter() {
        w.u64v(u64::from(id.0));
    }
    if let Some(m) = memo {
        m.insert(st, &w.as_slice()[start..], false);
    }
}

fn decode_storage(
    r: &mut Reader<'_>,
    mut memo: Option<&mut Memo<StorageState>>,
) -> Result<Arc<StorageState>, DecodeError> {
    if let Some(m) = &mut memo {
        if let Some(st) = m.by_prefix(r, |fresh| decode_storage(fresh, None)) {
            return Ok(st);
        }
    }
    let input = r.rest();
    let threads = r.usizev()?;
    let mut writes = BTreeMap::new();
    for _ in 0..r.usizev()? {
        let id = decode_write_id(r)?;
        let tid = r.usizev()?;
        let ioid = r.option(|r| {
            let t = r.usizev()?;
            let i = r.usizev()?;
            Ok((t, i))
        })?;
        let addr = r.u64v()?;
        let size = r.usizev()?;
        let value = r.bv()?;
        writes.insert(
            id,
            Write {
                id,
                tid,
                ioid,
                addr,
                size,
                value,
            },
        );
    }
    let mut barriers = BTreeMap::new();
    for _ in 0..r.usizev()? {
        let id = decode_barrier_id(r)?;
        let tid = r.usizev()?;
        let it = r.usizev()?;
        let ii = r.usizev()?;
        let kind = decode_barrier_kind(r)?;
        barriers.insert(
            id,
            BarrierEv {
                id,
                tid,
                ioid: (it, ii),
                kind,
            },
        );
    }
    let mut writes_seen = BTreeSet::new();
    for _ in 0..r.usizev()? {
        writes_seen.insert(decode_write_id(r)?);
    }
    let mut coherence = BTreeSet::new();
    for _ in 0..r.usizev()? {
        let a = decode_write_id(r)?;
        let b = decode_write_id(r)?;
        coherence.insert((a, b));
    }
    let mut events_propagated_to = Vec::new();
    for _ in 0..r.usizev()? {
        let mut list = Vec::new();
        for _ in 0..r.usizev()? {
            let ev = match r.byte()? {
                0 => StorageEvent::W(decode_write_id(r)?),
                1 => StorageEvent::B(decode_barrier_id(r)?),
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "StorageEvent",
                        tag,
                    })
                }
            };
            list.push(ev);
        }
        events_propagated_to.push(list);
    }
    let mut unacknowledged_sync_requests = BTreeSet::new();
    for _ in 0..r.usizev()? {
        unacknowledged_sync_requests.insert(decode_barrier_id(r)?);
    }
    let st = Arc::new(StorageState {
        threads,
        writes: Arc::new(Digested::new(writes)),
        barriers: Arc::new(Digested::new(barriers)),
        writes_seen: Arc::new(Digested::new(writes_seen)),
        coherence: Arc::new(Digested::new(coherence)),
        events_propagated_to: events_propagated_to
            .into_iter()
            .map(|l| Arc::new(Digested::new(l)))
            .collect(),
        unacknowledged_sync_requests: Arc::new(Digested::new(unacknowledged_sync_requests)),
        digest: DigestCell::new(),
        enum_cache: TransitionCache::new(),
    });
    if let Some(m) = memo {
        m.insert(&st, &input[..input.len() - r.remaining()], true);
    }
    Ok(st)
}

/// Encode one [`Transition`] (tag byte + LEB128 fields);
/// `decode_transition` is its exact inverse.
pub fn encode_transition(w: &mut Writer, t: &Transition) {
    match t {
        Transition::Thread(tt) => match tt {
            ThreadTransition::Fetch { tid, parent, addr } => {
                w.byte(0);
                w.usizev(*tid);
                w.option(parent.as_ref(), |w, &p| w.usizev(p));
                w.u64v(*addr);
            }
            ThreadTransition::SatisfyReadForward {
                tid,
                ioid,
                from,
                windex,
            } => {
                w.byte(1);
                w.usizev(*tid);
                w.usizev(*ioid);
                w.usizev(*from);
                w.usizev(*windex);
            }
            ThreadTransition::SatisfyReadStorage { tid, ioid } => {
                w.byte(2);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
            ThreadTransition::CommitWrite { tid, ioid, windex } => {
                w.byte(3);
                w.usizev(*tid);
                w.usizev(*ioid);
                w.usizev(*windex);
            }
            ThreadTransition::CommitStcxSuccess { tid, ioid } => {
                w.byte(4);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
            ThreadTransition::CommitStcxFail { tid, ioid } => {
                w.byte(5);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
            ThreadTransition::CommitBarrier { tid, ioid } => {
                w.byte(6);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
            ThreadTransition::Finish { tid, ioid } => {
                w.byte(7);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
        },
        Transition::Storage(st) => match st {
            StorageTransition::PropagateWrite { write, to } => {
                w.byte(8);
                w.u64v(u64::from(write.0));
                w.usizev(*to);
            }
            StorageTransition::PropagateBarrier { barrier, to } => {
                w.byte(9);
                w.u64v(u64::from(barrier.0));
                w.usizev(*to);
            }
            StorageTransition::AcknowledgeSync { barrier } => {
                w.byte(10);
                w.u64v(u64::from(barrier.0));
            }
            StorageTransition::PartialCoherence { first, second } => {
                w.byte(11);
                w.u64v(u64::from(first.0));
                w.u64v(u64::from(second.0));
            }
        },
    }
}

/// Decode one [`Transition`] written by [`encode_transition`].
///
/// # Errors
///
/// Any truncation or unknown tag.
pub fn decode_transition(r: &mut Reader<'_>) -> Result<Transition, DecodeError> {
    let tag = r.byte()?;
    Ok(match tag {
        0 => Transition::Thread(ThreadTransition::Fetch {
            tid: r.usizev()?,
            parent: r.option(Reader::usizev)?,
            addr: r.u64v()?,
        }),
        1 => Transition::Thread(ThreadTransition::SatisfyReadForward {
            tid: r.usizev()?,
            ioid: r.usizev()?,
            from: r.usizev()?,
            windex: r.usizev()?,
        }),
        2 => Transition::Thread(ThreadTransition::SatisfyReadStorage {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        3 => Transition::Thread(ThreadTransition::CommitWrite {
            tid: r.usizev()?,
            ioid: r.usizev()?,
            windex: r.usizev()?,
        }),
        4 => Transition::Thread(ThreadTransition::CommitStcxSuccess {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        5 => Transition::Thread(ThreadTransition::CommitStcxFail {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        6 => Transition::Thread(ThreadTransition::CommitBarrier {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        7 => Transition::Thread(ThreadTransition::Finish {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        8 => Transition::Storage(StorageTransition::PropagateWrite {
            write: decode_write_id(r)?,
            to: r.usizev()?,
        }),
        9 => Transition::Storage(StorageTransition::PropagateBarrier {
            barrier: decode_barrier_id(r)?,
            to: r.usizev()?,
        }),
        10 => Transition::Storage(StorageTransition::AcknowledgeSync {
            barrier: decode_barrier_id(r)?,
        }),
        11 => Transition::Storage(StorageTransition::PartialCoherence {
            first: decode_write_id(r)?,
            second: decode_write_id(r)?,
        }),
        tag => {
            return Err(DecodeError::BadTag {
                what: "Transition",
                tag,
            })
        }
    })
}

/// Encode one state with a throwaway context (convenience for tests and
/// one-off uses; explorations reuse a [`CodecCtx`]).
#[must_use]
pub fn encode_state(state: &SystemState) -> Vec<u8> {
    CodecCtx::for_state(state).encode(state)
}

/// Decode one state against `program`/`params` with a throwaway context.
///
/// # Errors
///
/// As [`CodecCtx::decode`].
pub fn decode_state(
    bytes: &[u8],
    program: &Arc<Program>,
    params: &ModelParams,
) -> Result<SystemState, DecodeError> {
    CodecCtx::new(program.clone(), params.clone()).decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{expand, explore_limited, ExploreLimits, Frame, SuccMemo};
    use crate::tests::{mp_system, sb_system, wrc_pos_system};
    use ppc_bits::Prng;
    use std::collections::HashSet;

    /// Every state the engines visit from `initial`, in depth-first
    /// order (so consecutive states are search neighbours).
    fn all_states(initial: &SystemState) -> Vec<SystemState> {
        let mut seen = HashSet::from([initial.digest()]);
        let mut stack = vec![Frame::root(initial.clone())];
        let (mut finals, mut scratch, mut memo) = (BTreeSet::new(), Vec::new(), SuccMemo::new());
        let mut out = Vec::new();
        while let Some(frame) = stack.pop() {
            for next in expand(&frame, &[], &[], &mut finals, &mut scratch, &mut memo).succs {
                if seen.insert(next.state.digest()) {
                    stack.push(next);
                }
            }
            out.push(frame.state);
        }
        out
    }

    /// Where each thread, then storage, starts in `s`'s record, and
    /// where storage ends.
    fn component_offsets(ctx: &CodecCtx, s: &SystemState) -> Vec<usize> {
        let mut w = Writer::new();
        w.byte(VERSION);
        w.usizev(s.threads.len());
        let mut at = vec![w.len()];
        for th in &s.threads {
            ctx.encode_thread(&mut w, th, None);
            at.push(w.len());
        }
        encode_storage(&mut w, &s.storage, None);
        at.push(w.len());
        at
    }

    /// (a) A long-lived context and a fresh one per state write the same
    /// bytes, and the long-lived one reads them back to the same state.
    #[test]
    fn memo_warm_bytes_equal_cold_bytes() {
        for initial in [sb_system(), mp_system(), wrc_pos_system()] {
            // One context only writes and one only reads, so each walks
            // its own misses down to the instance level.
            let (writer, reader) = (CodecCtx::for_state(&initial), CodecCtx::for_state(&initial));
            for s in all_states(&initial) {
                let cold = CodecCtx::for_state(&initial).encode(&s);
                assert_eq!(writer.encode(&s), cold, "a memo hit changed the bytes");
                let back = reader.decode(&cold).expect("canonical bytes decode");
                assert!(back == s, "a memo hit changed the decoded state");
            }
            let (wrote, read) = (writer.memo_stats(), reader.memo_stats());
            assert!(wrote.component_encode.hits > 0 && wrote.instance_encode.hits > 0);
            assert!(read.component_decode.hits > 0 && read.instance_decode.hits > 0);
        }
    }

    /// (b) Sibling successors decoded through one context share every
    /// component the siblings themselves share, and a decoded state is
    /// the sender's: structurally equal, same digest.
    #[test]
    fn memo_decoded_siblings_share_unchanged_components() {
        let initial = sb_system();
        let sender = CodecCtx::for_state(&initial);
        let receiver = CodecCtx::for_state(&initial);
        let mut shared = 0;
        for s in all_states(&initial) {
            let ts = s.enumerate_transitions();
            let succs: Vec<SystemState> = ts.iter().map(|t| s.apply(t)).collect();
            let decoded: Vec<SystemState> = succs
                .iter()
                .map(|n| {
                    let back = receiver.decode(&sender.encode(n)).expect("decodes");
                    assert!(back == *n, "decode(encode(s)) != s");
                    assert_eq!(back.digest(), n.digest());
                    back
                })
                .collect();
            for i in 0..succs.len() {
                for j in i + 1..succs.len() {
                    for slot in 0..succs[i].threads.len() {
                        if Arc::ptr_eq(&succs[i].threads[slot], &succs[j].threads[slot]) {
                            assert!(
                                Arc::ptr_eq(&decoded[i].threads[slot], &decoded[j].threads[slot]),
                                "siblings {i} and {j} decoded two copies of thread {slot}"
                            );
                            shared += 1;
                        }
                    }
                    if Arc::ptr_eq(&succs[i].storage, &succs[j].storage) {
                        assert!(Arc::ptr_eq(&decoded[i].storage, &decoded[j].storage));
                        shared += 1;
                    }
                }
            }
        }
        assert!(shared > 1000, "only {shared} shared components checked");
    }

    /// (c) Damaged input read through a warm memo gives exactly what a
    /// fresh context gives — the same state or the same error — for
    /// every truncation, for random bit flips, and for two records
    /// spliced at and off component boundaries.
    #[test]
    fn memo_hostile_input_matches_a_cold_context() {
        let initial = sb_system();
        let states = all_states(&initial);
        let warm = CodecCtx::for_state(&initial);
        let records: Vec<Vec<u8>> = states.iter().map(|s| warm.encode(s)).collect();
        for rec in &records {
            warm.decode(rec).expect("canonical bytes decode");
        }
        let same = |bytes: &[u8], what: &str| {
            let cold = CodecCtx::for_state(&initial).decode(bytes);
            let got = warm.decode(bytes);
            assert!(got == cold, "{what}: warm {got:?}, cold {cold:?}");
            got.is_ok()
        };
        let mut rng = Prng::seed_from_u64(0x3E30_0C0D_EC00_0001);
        let sample: Vec<usize> = (0..records.len()).step_by(records.len() / 24).collect();
        for &i in &sample {
            let rec = &records[i];
            for cut in 0..rec.len() {
                assert!(!same(&rec[..cut], "truncation"), "a strict prefix decoded");
            }
            for _ in 0..64 {
                let mut flipped = rec.clone();
                let bit = rng.gen_range(0..rec.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                same(&flipped, "bit flip");
            }
        }
        for pair in sample.windows(2) {
            let (a, b) = (&records[pair[0]], &records[pair[1]]);
            let at_a = component_offsets(&warm, &states[pair[0]]);
            let at_b = component_offsets(&warm, &states[pair[1]]);
            for (&ka, &kb) in at_a.iter().zip(&at_b) {
                let on = [&a[..ka], &b[kb..]].concat();
                assert!(same(&on, "boundary splice"), "whole components must decode");
                let off = rng.gen_range(1..8usize);
                same(
                    &[&a[..(ka + off).min(a.len())], &b[kb..]].concat(),
                    "off-boundary splice",
                );
                same(
                    &[&a[..ka], &b[(kb + off).min(b.len())..]].concat(),
                    "off-boundary splice",
                );
            }
        }
    }

    /// Thread counts and instance ids read from a record index the memo
    /// only below its constant bounds: past them the component is
    /// walked, nothing is allocated, and the bytes are still exact.
    #[test]
    fn memo_is_not_sized_by_its_input() {
        let initial = sb_system();
        let mid = all_states(&initial).swap_remove(700);
        let mut wide = mid.clone();
        wide.threads = (0..3 * MEMO_THREAD_SLOTS)
            .map(|i| mid.threads[i % 2].clone())
            .collect();
        let mut far = mid.clone();
        let th = far.thread_mut(0);
        let mut inst = th
            .instances
            .arcs()
            .next()
            .expect("a fetched thread")
            .clone();
        // Far past the memo's bound, inside the codec's own id limit.
        let id = 10 * MEMO_INSTANCE_IDS;
        assert!(id < instance_id_limit(initial.params.max_instances_per_thread));
        Arc::make_mut(&mut inst).id = id;
        th.instances = InstanceArena::new();
        th.instances.insert(inst);
        (th.root, th.next_id) = (Some(id), id + 1);

        let ctx = CodecCtx::for_state(&initial);
        for s in [&wide, &far] {
            let cold = CodecCtx::for_state(&initial).encode(s);
            for _ in 0..2 {
                assert_eq!(ctx.encode(s), cold);
                assert!(ctx.decode(&cold).expect("decodes") == *s);
            }
        }
        let memo = ctx.memo.lock().unwrap();
        assert_eq!(memo.threads.len(), MEMO_THREAD_SLOTS);
        assert!(memo
            .threads
            .iter()
            .all(|t| t.instances.len() <= MEMO_INSTANCE_IDS));
    }

    /// A record whose thread claims a huge `next_id` (and an instance id
    /// just below it) is refused before the id can size the instance
    /// arena: `Err`, not a multi-gigabyte slot vector or an abort. The
    /// limit itself still decodes.
    #[test]
    fn hostile_next_id_is_refused_before_it_sizes_an_arena() {
        let initial = sb_system();
        let mid = all_states(&initial).swap_remove(700);
        let root = mid.threads[0].instances.arcs().next().expect("fetched");
        assert_eq!(root.id, 0);
        let ctx = CodecCtx::for_state(&initial);
        // One thread whose only instance is `mid`'s root renumbered to
        // `id`, with `next_id` just past it — written field by field,
        // since a state holding such an id would need the arena itself.
        let record = |id: usize| {
            let mut inst = Writer::new();
            ctx.encode_instance(&mut inst, root, None);
            let mut w = Writer::new();
            w.byte(VERSION);
            w.usizev(1);
            w.usizev(0);
            w.u64v(mid.threads[0].start_addr);
            w.usizev(id + 1);
            w.option(Some(&id), |w, &r| w.usizev(r));
            w.option(None::<&(u64, usize)>, |_, _| {});
            w.usizev(0);
            w.usizev(1);
            w.usizev(id);
            w.bytes(&inst.as_slice()[1..]); // past the one-byte id 0
            encode_storage(&mut w, &mid.storage, None);
            w.u64v(u64::from(mid.next_write_id));
            w.u64v(u64::from(mid.next_barrier_id));
            w.into_bytes()
        };
        let limit = instance_id_limit(initial.params.max_instances_per_thread);
        let fits = ctx
            .decode(&record(limit - 1))
            .expect("the limit itself decodes");
        assert_eq!(fits.threads[0].next_id, limit);
        for id in [limit, 1 << 24, 1 << 40, usize::MAX >> 8] {
            assert_eq!(
                ctx.decode(&record(id)),
                Err(DecodeError::Invalid("next_id beyond the instance id limit")),
                "instance id {id}"
            );
        }
    }

    /// An equal component that arrives under a new `Arc` takes over the
    /// entry its bytes already have: no second way, and those bytes
    /// decode to the newcomer from then on.
    #[test]
    fn memo_equal_component_under_a_new_arc_reuses_its_entry() {
        let initial = sb_system();
        let ctx = CodecCtx::for_state(&initial);
        let bytes = ctx.encode(&initial);
        let copy = CodecCtx::for_state(&initial)
            .decode(&bytes)
            .expect("decodes");
        assert!(!Arc::ptr_eq(&copy.threads[0], &initial.threads[0]));
        assert_eq!(ctx.encode(&copy), bytes);
        {
            let memo = ctx.memo.lock().unwrap();
            assert!(memo.threads.iter().all(|t| t.whole.entries.len() == 1));
            assert_eq!(memo.storage.entries.len(), 1);
        }
        let back = ctx.decode(&bytes).expect("decodes");
        assert!(Arc::ptr_eq(&back.threads[0], &copy.threads[0]));
        assert!(Arc::ptr_eq(&back.storage, &copy.storage));
    }

    /// (d) The counters are a function of the run: a sequential SB
    /// exploration that spills under a 16-state budget repeats them
    /// exactly, and most components it reads back are shared.
    ///
    /// The pinned encode counts depend on how much the spilled states
    /// share, not only on the codec: since the oracle's successor memo
    /// hands siblings and cousins the *same* successor component where
    /// `apply` used to build equal copies, more spilled components are
    /// already-memoised `Arc`s (component encode hits 175 → 199 of 255,
    /// instance encode misses 83 → 49). The bytes written are the same.
    #[test]
    fn memo_counters_repeat_exactly_on_a_spilling_run() {
        let run = || {
            let mut initial = sb_system();
            initial.params.max_resident_states = 16;
            let limits = ExploreLimits {
                threads: 1,
                ..ExploreLimits::default()
            };
            let out = explore_limited(&initial, &[], &[], &limits);
            assert!(!out.stats.truncated, "{:?}", out.stats.store_error);
            assert_eq!((out.stats.states, out.stats.spilled_states), (1497, 85));
            out.codec_memo
        };
        let stats = run();
        assert_eq!(stats, run(), "memo counters differ between identical runs");
        let counts = |hits, misses, hit_bytes, miss_bytes| MemoCounts {
            hits,
            misses,
            hit_bytes,
            miss_bytes,
        };
        let pinned = MemoStats {
            component_encode: counts(199, 56, 42142, 12846),
            component_decode: counts(255, 0, 54988, 0),
            instance_encode: counts(8, 49, 1080, 6535),
            instance_decode: counts(0, 0, 0, 0),
        };
        assert_eq!(stats, pinned);
        assert!(stats.component_decode.hit_ratio() >= 0.7, "{stats}");
    }
}
