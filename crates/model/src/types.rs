//! Shared event types and model parameters.

use ppc_bits::Bv;
use ppc_idl::BarrierKind;

/// A hardware thread identifier.
pub type ThreadId = usize;

/// A globally unique memory-write event identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriteId(pub u32);

/// A globally unique barrier event identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

/// A memory-write event: "a record type containing a unique id, an
/// address and size, and a memory value (a list of bytes of lifted bits)"
/// (paper §5).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Write {
    /// Unique id.
    pub id: WriteId,
    /// Originating thread (initial-state writes use a pseudo thread).
    pub tid: ThreadId,
    /// Originating instruction instance, if any (`None` for the initial
    /// writes).
    pub ioid: Option<(ThreadId, usize)>,
    /// Byte address.
    pub addr: u64,
    /// Size in bytes.
    pub size: usize,
    /// Value: `8 * size` lifted bits.
    pub value: Bv,
}

impl Write {
    /// Whether this write's footprint overlaps `[addr, addr+size)`.
    #[must_use]
    pub fn overlaps(&self, addr: u64, size: usize) -> bool {
        self.addr < addr + size as u64 && addr < self.addr + self.size as u64
    }

    /// Whether this write covers byte `b`.
    #[must_use]
    pub fn covers(&self, b: u64) -> bool {
        self.addr <= b && b < self.addr + self.size as u64
    }

    /// The lifted byte at absolute address `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside the footprint.
    #[must_use]
    pub fn byte_at(&self, b: u64) -> Bv {
        assert!(self.covers(b));
        let off = (b - self.addr) as usize;
        self.value.slice(off * 8, 8)
    }
}

/// A barrier event sent to the storage subsystem.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BarrierEv {
    /// Unique id.
    pub id: BarrierId,
    /// Originating thread.
    pub tid: ThreadId,
    /// Originating instruction instance.
    pub ioid: (ThreadId, usize),
    /// The barrier kind (`Sync`, `Lwsync`, or `Eieio`; `isync` never
    /// reaches storage).
    pub kind: BarrierKind,
}

/// Model parameters (the paper's `model_params`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ModelParams {
    /// Maximum number of instruction instances fetched per thread
    /// (bounds speculation down unbounded loops).
    pub max_instances_per_thread: usize,
    /// Enable the *partial coherence commitment* storage transition
    /// (nondeterministically relating unrelated overlapping writes
    /// mid-run). Final-state extraction always enumerates all coherence
    /// completions, so this only matters for mid-run observability and is
    /// off by default to keep exhaustive search tractable.
    pub coherence_commitments: bool,
    /// Allow store-conditionals to fail spuriously (the architecture
    /// permits it; turning it off prunes the failure branch when a valid
    /// reservation is held, useful to keep lock-based tests small).
    pub allow_spurious_stcx_failure: bool,
    /// Worker threads used by in-process exhaustive exploration: the size
    /// of the pool of depth-first frontiers over one shared store. `1`
    /// explores on the calling thread alone. Every size visits exactly
    /// the same state set (and so produces identical `Outcomes::finals`)
    /// whenever the state budget is not exhausted. `0` means "one worker
    /// per available CPU".
    pub threads: usize,
    /// State budget for exhaustive exploration; beyond it the search
    /// stops and `ExplorationStats::truncated` is set.
    pub max_states: usize,
    /// Resident-state budget for exhaustive exploration: the maximum
    /// number of *decoded* frontier states held in memory at once. When
    /// the frontier crosses it, overflow states are spilled to temp
    /// files through the canonical state codec (and visited-set shards
    /// flush digests to sorted on-disk runs), so explorations far larger
    /// than RAM stay exact. A pool of `threads` frontiers splits the
    /// budget evenly, each keeping at least one 16-state spill segment's
    /// worth. `0` means unlimited (everything stays in memory, as
    /// before). Purely a memory/perf knob: spilling cannot
    /// change which states are visited, the counts, or the finals.
    pub max_resident_states: usize,
    /// Enable the eager-`Finish` reduction: in a state where some
    /// non-branch instruction can finish, only the first such `Finish`
    /// fires (see `ppc_model::reduction` for the proof). The reduced
    /// search produces exactly the same `Outcomes::finals` as the
    /// exhaustive one — pinned by the POR differential in
    /// `tests/oracle_fuzz.rs` — while visiting about 10× fewer states.
    /// The choice depends only on the state, so reduced counts are the
    /// same in every engine, but they are only comparable between runs
    /// with the same `reduced` setting.
    pub reduced: bool,
    /// Context-switch bound for the explicitly-approximate fast tier:
    /// when nonzero, any execution path is cut off once the active
    /// *actor* (a thread, or the storage subsystem) has changed more
    /// than this many times. `0` means unbounded (exhaustive). A run in
    /// which the bound actually suppressed a successor reports
    /// `ExplorationStats::bounded = true` and must never be presented
    /// as an exhaustive result.
    pub max_context_switches: usize,
}

/// Resolve a worker-count knob: `0` means one worker per available CPU.
/// The single definition of what `threads == 0` / `jobs == 0` means,
/// shared by [`ModelParams`], `ExploreLimits`, and the litmus harness.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

impl ModelParams {
    /// Default state budget for exhaustive exploration.
    pub const DEFAULT_MAX_STATES: usize = 5_000_000;

    /// The effective worker-thread count (resolves `threads == 0` to the
    /// available parallelism).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            max_instances_per_thread: 32,
            coherence_commitments: false,
            allow_spurious_stcx_failure: false,
            threads: 1,
            max_states: Self::DEFAULT_MAX_STATES,
            max_resident_states: 0,
            reduced: false,
            max_context_switches: 0,
        }
    }
}

/// The pseudo "thread" owning the initial-state writes.
pub(crate) const INIT_TID: ThreadId = usize::MAX;

/// The hasher behind every state digest.
///
/// Digests are *in-process* visited-set keys and dirty-cache
/// validity stamps — never persisted (the canonical codec is the
/// durable format) — so the only requirements are determinism within a
/// run and good 64-bit dispersion. Exploration hashes a few mutated
/// components per successor, hundreds of thousands of times per test,
/// and `SipHash` (the `DefaultHasher`) was ~a quarter of sequential
/// exploration time. This is the MurmurHash3 mixing step: four
/// multiply/rotate ops per word instead of SipHash's compression
/// rounds, with a full avalanche finalizer.
#[derive(Default)]
pub(crate) struct DigestHasher(u64);

impl DigestHasher {
    pub(crate) fn new() -> Self {
        // Arbitrary odd seed so a digest never starts at zero.
        DigestHasher(0x9e37_79b9_7f4a_7c15)
    }
}

impl std::hash::Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length-tag the tail so "ab" | "c" != "a" | "bc".
            tail[7] = rest.len() as u8;
            self.write_u64(u64::from_le_bytes(tail));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut k = v.wrapping_mul(0x87c3_7b91_1142_53d5);
        k = k.rotate_left(31);
        k = k.wrapping_mul(0x4cf5_ad43_2745_937f);
        self.0 ^= k;
        self.0 = self
            .0
            .rotate_left(27)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // MurmurHash3 fmix64: every input bit avalanches to every
        // output bit, so shard selection by digest prefix stays
        // unbiased.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }
}

/// A compute-once digest cache attached to a state component.
///
/// The copy-on-write state layout shares unchanged components between a
/// state and its successors via `Arc`, so a component's digest can be
/// computed once and reused by every state that still shares it. The
/// cell is deliberately *not* part of a component's identity:
///
/// - **`Clone` empties the cell.** A component is only ever cloned on
///   the copy-on-write path (`Arc::make_mut` just before a mutation),
///   so the copy's digest is about to be stale anyway; starting empty
///   makes a stale carry-over impossible even if an invalidation call
///   is missed after the clone.
/// - **`PartialEq` ignores the cell** (always equal), so structural
///   equality of states — the codec's `decode(encode(s)) == s`
///   contract — is unaffected by which digests happen to be cached.
///
/// Mutation paths must still call [`DigestCell::invalidate`] before
/// changing the component they guard (the in-place case, where no clone
/// happens because the `Arc` is unshared).
#[derive(Debug, Default)]
pub struct DigestCell(std::sync::OnceLock<u64>);

impl DigestCell {
    /// An empty (uncomputed) cell.
    #[must_use]
    pub const fn new() -> Self {
        DigestCell(std::sync::OnceLock::new())
    }

    /// The cached digest, computing and caching it on first use.
    pub fn get_or_compute(&self, f: impl FnOnce() -> u64) -> u64 {
        *self.0.get_or_init(f)
    }

    /// Drop any cached digest (call before mutating the guarded data).
    pub fn invalidate(&mut self) {
        self.0.take();
    }

    /// The cached digest, if one is populated (no computation). The
    /// `debug_assertions` digest audit uses this to find populated cells
    /// and compare them against a from-scratch recomputation — a stale
    /// value here means some mutation bypassed the invalidating funnels.
    /// Compiled only where the audit lives (debug builds).
    #[cfg(debug_assertions)]
    #[must_use]
    pub fn peek(&self) -> Option<u64> {
        self.0.get().copied()
    }

    /// Seed the cell with a known digest (e.g. one carried alongside a
    /// spilled state record). A no-op if already populated.
    pub fn seed(&self, digest: u64) {
        let _ = self.0.set(digest);
    }
}

/// Cloning a component copies it *in order to change it* (CoW), so the
/// clone starts with no cached digest — see the type-level invariant.
impl Clone for DigestCell {
    fn clone(&self) -> Self {
        DigestCell::new()
    }
}

/// The cache never participates in structural equality.
impl PartialEq for DigestCell {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for DigestCell {}

/// A value paired with its own [`DigestCell`], for per-component digest
/// caching *inside* a shared `Arc`.
///
/// The storage subsystem's components (`writes`, `barriers`,
/// `writes_seen`, `coherence`, each per-thread propagation list, the
/// sync-request set) each live behind their own `Arc` so copy-on-write
/// successor generation clones only what a transition touches — but a
/// digest cell stored *beside* those `Arc`s (in [`crate::StorageState`]
/// itself) would be emptied by every storage CoW clone, re-hashing every
/// component even though all but one are still shared. Storing the cell
/// *inside* the `Arc` gives the cell exactly the component's sharing
/// lifetime: a storage clone bumps refcounts and keeps every component
/// digest; mutating one component clones (or invalidates) only that
/// component's cell.
///
/// Reads deref transparently to `T`. **All mutable access goes through
/// [`Digested::deref_mut`], which invalidates the cell first** — so the
/// `Arc::make_mut(..).mutate()` idiom used by every storage mutator is
/// digest-correct by construction in both the cloning case (`Clone`
/// empties the cell) and the refcount-1 in-place case (`DerefMut`
/// invalidates it).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Digested<T> {
    cell: DigestCell,
    value: T,
}

impl<T: std::hash::Hash> Digested<T> {
    /// Wrap a component value with an empty digest cell.
    #[must_use]
    pub fn new(value: T) -> Self {
        Digested {
            cell: DigestCell::new(),
            value,
        }
    }

    /// The component's structural digest, cached compute-once.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.cell.get_or_compute(|| self.digest_uncached())
    }

    /// [`Digested::digest`] recomputed from scratch, bypassing the cache
    /// — the reference the `debug_assertions` digest audit compares
    /// populated cells against.
    #[must_use]
    pub fn digest_uncached(&self) -> u64 {
        let mut h = crate::types::DigestHasher::new();
        std::hash::Hash::hash(&self.value, &mut h);
        std::hash::Hasher::finish(&h)
    }

    /// The cached digest, if populated (no computation) — the digest
    /// audit's probe. Debug builds only, like [`DigestCell::peek`].
    #[cfg(debug_assertions)]
    #[must_use]
    pub fn peek(&self) -> Option<u64> {
        self.cell.peek()
    }
}

impl<T> std::ops::Deref for Digested<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// Mutable access invalidates the digest cell first (see the type docs).
impl<T> std::ops::DerefMut for Digested<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.cell.invalidate();
        &mut self.value
    }
}

/// A compute-once cache of a state component's enabled-transition list,
/// keyed by an *enumeration context* fingerprint.
///
/// Transition enumeration is a pure function of one state component
/// (a [`crate::ThreadState`], or the [`crate::StorageState`]) plus
/// enumeration context that is constant across one exploration (the
/// program and the relevant [`ModelParams`] knobs). Successor states
/// share untouched components by `Arc`, so caching the enumeration
/// inside the component makes re-enumerating a successor O(changed):
/// only the slot a transition invalidated (through the
/// `thread_mut`/`storage_mut`/`inst_mut` funnels) is recomputed, the
/// rest replay as `memcpy`s of cached lists.
///
/// The key guards the one hazard: a caller cloning a state and then
/// editing `params` (or swapping programs) while still sharing
/// components. A mismatched key makes [`TransitionCache::get`] miss, so
/// the caller recomputes without poisoning the cache. Like
/// [`DigestCell`], the cell is emptied by `Clone` and ignored by
/// `PartialEq`, so it is invisible to structural equality and the
/// canonical codec.
#[derive(Debug, Default)]
pub(crate) struct TransitionCache<T>(std::sync::OnceLock<(u64, Vec<T>)>);

impl<T> TransitionCache<T> {
    /// An empty (uncomputed) cache.
    #[must_use]
    pub(crate) const fn new() -> Self {
        TransitionCache(std::sync::OnceLock::new())
    }

    /// The cached list for context `key`, computing and caching on first
    /// use. Returns `None` on a key mismatch (cache populated under a
    /// different enumeration context); the caller must then enumerate
    /// fresh without caching.
    pub(crate) fn get_or_compute(&self, key: u64, f: impl FnOnce() -> Vec<T>) -> Option<&[T]> {
        let (k, v) = self.0.get_or_init(|| (key, f()));
        (*k == key).then_some(v.as_slice())
    }

    /// Drop the cached list (call before mutating the component whose
    /// enumeration it caches — wired into the same funnels that
    /// invalidate the digest cells).
    pub(crate) fn invalidate(&mut self) {
        self.0.take();
    }
}

/// A CoW clone is about to diverge from the cached enumeration.
impl<T> Clone for TransitionCache<T> {
    fn clone(&self) -> Self {
        TransitionCache::new()
    }
}

/// The cache never participates in structural equality.
impl<T> PartialEq for TransitionCache<T> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl<T> Eq for TransitionCache<T> {}
