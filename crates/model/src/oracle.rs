//! The test oracle: exhaustive enumeration of all allowed executions, and
//! a deterministic sequential mode.
//!
//! "This lets one either interactively explore or exhaustively compute
//! the set of all allowed behaviours of intricate test cases, to provide
//! a reference for hardware and software development" (paper abstract).
//!
//! Every in-process exhaustive exploration is a **pool** of
//! [`ModelParams::threads`] depth-first frontiers (`DfsFrontier`) over
//! one shared [`StateStore`]. Each worker drives its own frontier
//! through `DfsFrontier::step`, the expand → admit → spill body the
//! distributed workers ([`crate::distrib`]) run too. A pool of one runs
//! on the calling thread and spawns nothing.
//!
//! - **Same states at every size.** A state is expanded iff its digest
//!   wins the insertion race in the store's digest-sharded visited set,
//!   and the per-worker final-state sets merge into a `BTreeSet`, so for
//!   any run that does not exhaust its budget the resulting
//!   [`Outcomes::finals`] are identical bit for bit at every pool size,
//!   and so are the visited-state and transition counts. The
//!   `parallel_oracle` integration tests and the randomized `oracle_fuzz`
//!   differential tests pin this down.
//! - **Donation on demand.** After each step a worker reads the pool's
//!   idle count, a relaxed atomic. When another worker is idle, the
//!   stack holds at least two frames and the shared slot is empty, the
//!   worker moves the bottom (oldest) half of its stack there. The
//!   oldest frames root the largest unexplored subtrees. No step takes a
//!   lock otherwise.
//! - **Termination under one lock.** A dry worker, holding the pool
//!   lock, takes the shared frames, else one spilled segment, else counts
//!   itself idle and waits for a donation. Spills happen only in busy
//!   workers, so when the idle count reaches the pool size no frame is
//!   left in any stack, in the shared slot or on disk: the search is
//!   over.
//! - **Limits.** Workers claim states against the budget one at a time
//!   (a failed claim is rolled back, so a truncated run reports exactly
//!   the states it expanded) and poll the wall-clock deadline every
//!   `DEADLINE_POLL_PERIOD` claims. A spill-store failure ends the run
//!   truncated, with the failure in [`ExplorationStats::store_error`].
//!
//! The paper's §8 point that exhaustive checking is "combinatorially
//! challenging" is why the pool exists: state expansion (clone +
//! transition application + eager deterministic progress) dominates the
//! cost and parallelises embarrassingly.
//!
//! ## Successor memo
//!
//! A transition reads and writes only the components in its
//! [`crate::reduction`] footprint, and copy-on-write successors share
//! every other component by `Arc` — so states that share a thread (or
//! the storage subsystem) keep firing the same transition on that same
//! component and re-deriving the same successor component. Every
//! exploring worker therefore owns one bounded, direct-mapped
//! `SuccMemo` (each `DfsFrontier` owns one — no lock, no thread-local):
//! keyed by the transition plus the identities of the components in its
//! R ∪ W set — the one thread's `Arc`, the storage `Arc`, the values of
//! the id allocators — and valued by the successor's versions of the same components. A hit is
//! the state's clone with those swapped in: no `apply`, no eager-progress
//! advance, and the swapped-in components bring their cached digests
//! and transition enumerations with them. A miss is the one
//! [`SystemState::apply`]. What is visited does not change, only what
//! visiting costs. Why a hit is exact:
//!
//! - **The key is everything `apply` reads.** A transition's effect is a
//!   function of the program and parameters (fixed for an exploration)
//!   and of the components in its R ∪ W set — the footprint's first
//!   soundness fact. States with equal keys therefore have successors
//!   that agree on the keyed components.
//! - **Nothing outside the key changes.** An entry is recorded only
//!   after checking that `apply` left every other component
//!   `Arc::ptr_eq` to the parent's (and the id allocators equal), so
//!   swapping the keyed components into another parent's clone gives
//!   exactly what `apply` would have.
//! - **Keys are pinned pointers, never digests.** Components compare by
//!   `Arc::ptr_eq`, and an entry holds clones of the `Arc`s it names, so
//!   no key pointer can be freed and reused for another value while the
//!   entry lives (and `Arc::make_mut` on a pinned component clones
//!   rather than mutate in place). Digests only choose the slot.
//! - A transition whose footprint names more than one thread (the
//!   fallback mask) is never memoised.
//!
//! It stays cheap and repeatable: the slot index hashes the transition,
//! the keyed components' cached digests and the id values — never a
//! pointer, so the counters repeat run to run — and a memo allocates its
//! table only after `SUCC_MEMO_ENGAGE_AFTER` applies (a dozen-state
//! service request never builds one), starting at
//! `SUCC_MEMO_MIN_SLOTS` slots and doubling up to
//! `SUCC_MEMO_MAX_SLOTS`. Debug builds re-derive every hit with
//! `apply` and compare it structurally and by digest, and check the
//! footprint's write set on every transition applied, so every debug
//! exploration tests both halves of the footprint. [`Outcomes::succ_memo`]
//! counts hits and misses per footprint class.

use crate::reduction::{self, ID, STORAGE};
use crate::state_codec::MemoStats;
use crate::storage::StorageState;
use crate::store::{StateStore, StoreError};
use crate::system::{SystemState, Transition};
use crate::thread::{ThreadState, ThreadTransition};
use crate::types::{DigestHasher, ModelParams, ThreadId, WriteId};
use ppc_bits::Bv;
use ppc_idl::Reg;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One observable final state: the queried registers and memory
/// locations.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FinalState {
    /// Final architected register values, by `(thread, register)`.
    pub regs: BTreeMap<(ThreadId, Reg), Bv>,
    /// Final memory values, keyed by queried location address.
    pub mem: BTreeMap<u64, Bv>,
}

/// The result of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct Outcomes {
    /// The distinct observable final states.
    pub finals: BTreeSet<FinalState>,
    /// Exploration statistics.
    pub stats: ExplorationStats,
    /// What the canonical codec's component memo did for this
    /// process's spill store (zero when nothing spilled; a distributed
    /// run's memos live in its worker processes and are not reported).
    /// In-process only: no report, record or message carries it.
    pub codec_memo: MemoStats,
    /// What the successor memos of this process's exploring workers did
    /// (zero for a distributed run, whose memos live in its worker
    /// processes). In-process only, like `codec_memo`.
    pub succ_memo: SuccMemoStats,
}

/// Statistics from an exploration (for the paper's "combinatorially
/// challenging" discussion and the E5 experiment).
#[derive(Clone, Debug, Default)]
pub struct ExplorationStats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions fired.
    pub transitions: usize,
    /// Final (quiescent) states reached, pre-deduplication.
    pub final_hits: usize,
    /// Whether the state budget (or deadline) was exhausted (results
    /// incomplete).
    pub truncated: bool,
    /// Peak number of decoded frontier states resident in memory at
    /// once. Bounded (softly) by [`ModelParams::max_resident_states`]
    /// when that is non-zero — overflow spills to disk through the
    /// canonical state codec.
    pub resident_peak: usize,
    /// Frontier states that round-tripped through disk segments (always
    /// `0` when [`ModelParams::max_resident_states`] is unlimited).
    /// Lets tests assert that a forced-spill run actually exercised the
    /// spill path rather than staying under its budget.
    pub spilled_states: usize,
    /// Whether the context-switch bound
    /// ([`ModelParams::max_context_switches`]) actually suppressed at
    /// least one successor. A bounded run is explicitly approximate:
    /// absent outcomes may still be architecturally allowed, so it must
    /// never be reported as a conclusive exhaustive result. Stays
    /// `false` when a bound is set but never reached (the exploration
    /// was exhaustive after all).
    pub bounded: bool,
    /// A spill-store I/O/corruption failure (or, distributed, a dead
    /// worker) that cut the exploration short. Always paired with
    /// `truncated = true`: the result is inconclusive, never silently
    /// partial, but the process survives (the failure used to be an
    /// `expect()` abort).
    pub store_error: Option<String>,
}

/// Default state budget for exhaustive exploration.
const DEFAULT_MAX_STATES: usize = ModelParams::DEFAULT_MAX_STATES;

/// Resource limits and parallelism for one exploration.
#[derive(Clone, Debug)]
pub struct ExploreLimits {
    /// Pool size: worker threads (`0` = one per available CPU, `1` = the
    /// calling thread alone).
    pub threads: usize,
    /// Distinct-state budget; exceeding it sets
    /// [`ExplorationStats::truncated`].
    pub max_states: usize,
    /// Optional wall-clock deadline; exploration stops (truncated) when
    /// it passes. Checked between search rounds, so it is a soft bound.
    pub deadline: Option<Instant>,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            threads: 1,
            max_states: DEFAULT_MAX_STATES,
            deadline: None,
        }
    }
}

impl ExploreLimits {
    /// The limits implied by a state's [`ModelParams`].
    #[must_use]
    pub fn from_params(params: &ModelParams) -> Self {
        ExploreLimits {
            threads: params.effective_threads(),
            max_states: params.max_states,
            deadline: None,
        }
    }

    /// The effective worker-thread count (resolves `threads == 0` to the
    /// available parallelism).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        crate::types::resolve_threads(self.threads)
    }
}

/// Exhaustively explore all executions of `initial`, observing the given
/// registers and memory footprints in each reachable final state.
///
/// Parallelism and the state budget come from `initial.params`
/// ([`ModelParams::threads`] / [`ModelParams::max_states`]).
///
/// Final memory values are enumerated over every coherence-consistent
/// linearisation of the writes covering each queried location (writes to
/// disjoint locations are never coherence-related, so per-location
/// enumeration is exact).
#[must_use]
pub fn explore(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
) -> Outcomes {
    explore_limited(
        initial,
        reg_obs,
        mem_obs,
        &ExploreLimits::from_params(&initial.params),
    )
}

/// [`explore`] with an explicit state budget, on the calling thread.
#[must_use]
pub fn explore_bounded(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    max_states: usize,
) -> Outcomes {
    explore_limited(
        initial,
        reg_obs,
        mem_obs,
        &ExploreLimits {
            threads: 1,
            max_states,
            deadline: None,
        },
    )
}

/// [`explore`] with explicit limits and parallelism.
#[must_use]
pub fn explore_limited(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    limits: &ExploreLimits,
) -> Outcomes {
    explore_with(initial, reg_obs, mem_obs, limits, SuccMemo::new)
}

/// [`explore_limited`] with every successor memo left disengaged, so
/// each transition goes through [`SystemState::apply`]: the reference
/// side of the memo differential tests. Not an option of the engines.
#[doc(hidden)]
#[must_use]
pub fn explore_limited_memoless(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    limits: &ExploreLimits,
) -> Outcomes {
    explore_with(initial, reg_obs, mem_obs, limits, SuccMemo::disengaged)
}

/// Run a pool of `limits.effective_threads()` frontiers over one store
/// (see the module docs), each with a successor memo from `memo`.
/// Worker 0 runs on the calling thread; a pool of one spawns nothing.
fn explore_with(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    limits: &ExploreLimits,
    memo: fn() -> SuccMemo,
) -> Outcomes {
    let workers = limits.effective_threads().max(1);
    let store = Arc::new(StateStore::new(
        initial.program.clone(),
        &initial.params,
        workers,
    ));
    let mut frontiers: Vec<DfsFrontier> = (0..workers)
        .map(|_| DfsFrontier {
            memo: memo(),
            ..DfsFrontier::over(store.clone())
        })
        .collect();
    let root = Frame::root(initial.clone());
    // The store is empty, so the root admission cannot touch disk.
    let admitted = store
        .insert_visited(root.state.digest())
        .expect("root insert into an empty store cannot touch disk");
    debug_assert!(admitted, "the root always enters an empty frontier");
    frontiers[0].push(root);

    let pool = Pool {
        limits,
        workers,
        shared: Mutex::new(Vec::new()),
        wake: Condvar::new(),
        idle: AtomicUsize::new(0),
        claimed: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        truncated: AtomicBool::new(false),
        store_error: Mutex::new(None),
    };
    let outs: Vec<(BTreeSet<FinalState>, ExplorationStats)> = std::thread::scope(|s| {
        let pool = &pool;
        let (first, rest) = frontiers.split_first_mut().expect("a pool has a worker");
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|f| s.spawn(move || pool.work(f, reg_obs, mem_obs)))
            .collect();
        let mut outs = vec![pool.work(first, reg_obs, mem_obs)];
        outs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("exploration worker panicked")),
        );
        outs
    });

    let mut stats = ExplorationStats {
        states: pool.claimed.load(Ordering::SeqCst),
        truncated: pool.truncated.load(Ordering::SeqCst),
        resident_peak: store.resident_peak(),
        spilled_states: store.spilled_states(),
        store_error: pool
            .store_error
            .lock()
            .expect("store_error poisoned")
            .take(),
        ..ExplorationStats::default()
    };
    let mut finals = BTreeSet::new();
    let mut succ_memo = SuccMemoStats::default();
    for ((mut worker_finals, worker), frontier) in outs.into_iter().zip(&frontiers) {
        finals.append(&mut worker_finals);
        stats.transitions += worker.transitions;
        stats.final_hits += worker.final_hits;
        stats.bounded |= worker.bounded;
        succ_memo += frontier.memo.stats();
    }
    Outcomes {
        finals,
        stats,
        codec_memo: store.codec_memo(),
        succ_memo,
    }
}

/// The actor whose transition produced a state: a hardware thread, or
/// the storage subsystem. Context-bounded exploration
/// ([`ModelParams::max_context_switches`]) counts changes of actor
/// along each execution path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Actor {
    /// The root state — no transition taken yet (the first transition
    /// is never a context switch).
    None,
    /// A transition of thread `.0`.
    Thread(ThreadId),
    /// A storage-subsystem transition.
    Storage,
}

/// One frontier record: an unexpanded state plus the search metadata
/// the context-bounding layer threads through the frontier (and through
/// the spill codec, as additive record fields). In the default
/// (unbounded) configuration the metadata is inert: the switch count is
/// ignored.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The unexpanded state.
    pub state: SystemState,
    /// The actor of the transition that produced this state.
    pub last_actor: Actor,
    /// Context switches accumulated along the producing path.
    pub switches: u32,
}

impl Frame {
    /// The root frame of an exploration.
    #[must_use]
    pub fn root(state: SystemState) -> Self {
        Frame {
            state,
            last_actor: Actor::None,
            switches: 0,
        }
    }
}

/// The actor a transition belongs to.
fn actor_of(t: &Transition) -> Actor {
    match t {
        Transition::Thread(tt) => Actor::Thread(match tt {
            ThreadTransition::Fetch { tid, .. }
            | ThreadTransition::SatisfyReadForward { tid, .. }
            | ThreadTransition::SatisfyReadStorage { tid, .. }
            | ThreadTransition::CommitWrite { tid, .. }
            | ThreadTransition::CommitStcxSuccess { tid, .. }
            | ThreadTransition::CommitStcxFail { tid, .. }
            | ThreadTransition::CommitBarrier { tid, .. }
            | ThreadTransition::Finish { tid, .. } => *tid,
        }),
        Transition::Storage(_) => Actor::Storage,
    }
}

/// What expanding one frame yields.
pub(crate) struct Expansion {
    /// Successor frames (pre-dedup), or empty for a quiescent state.
    pub(crate) succs: Vec<Frame>,
    /// Transitions fired (= successors produced; transitions the
    /// reduction leaves out and bound-suppressed ones are not fired).
    pub(crate) transitions: usize,
    /// Whether the state was quiescent (a final hit).
    pub(crate) is_final: bool,
    /// Whether the context-switch bound suppressed at least one
    /// successor here.
    pub(crate) bounded_hit: bool,
}

/// Expand one frame: either classify its state as quiescent (collecting
/// its observable final states into `finals`) or produce its successor
/// frames. Called only by `DfsFrontier::step`, the one body of every
/// engine — in-process pools and distributed workers alike — so they
/// cannot drift apart, and the one place that decides which enabled
/// transitions fire.
///
/// With [`ModelParams::reduced`] on, a state in which some non-branch
/// instruction can `Finish` fires only the first such `Finish` in
/// enumeration order (a singleton persistent set); every other state
/// fires everything. The proof that this keeps every final is in the
/// [`crate::reduction`] module docs, and debug builds re-check its
/// stability and commutation halves on every eager choice. The choice
/// reads only the state, so reduced counts are engine-independent too.
///
/// With [`ModelParams::max_context_switches`] nonzero, a successor
/// whose path would exceed the bound is suppressed (and reported via
/// [`Expansion::bounded_hit`] — never silently).
///
/// `scratch` is a per-worker transition buffer reused across every state
/// the worker expands (the enumeration is rebuilt into it each call), so
/// the hot loop performs no per-state transition-list allocation; `memo`
/// is the worker's successor memo (see the module docs), through which
/// every successor is derived.
pub(crate) fn expand(
    frame: &Frame,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    finals: &mut BTreeSet<FinalState>,
    scratch: &mut Vec<Transition>,
    memo: &mut SuccMemo,
) -> Expansion {
    let state = &frame.state;
    state.enumerate_transitions_into(scratch);
    let all_finished = state.threads.iter().all(|th| th.all_finished());
    let fetchable = scratch
        .iter()
        .any(|t| matches!(t, Transition::Thread(ThreadTransition::Fetch { .. })));
    if all_finished && !fetchable {
        extract_finals(state, reg_obs, mem_obs, finals);
        return Expansion {
            succs: Vec::new(),
            transitions: 0,
            is_final: true,
            bounded_hit: false,
        };
    }
    if state.params.reduced {
        if let Some(f) = reduction::eager_finish(state, scratch) {
            #[cfg(debug_assertions)]
            reduction::audit_eager_finish(state, &f, scratch);
            scratch.clear();
            scratch.push(f);
        }
    }
    let bound = state.params.max_context_switches;
    let mut succs = Vec::with_capacity(scratch.len());
    let mut bounded_hit = false;
    for t in scratch.iter() {
        let actor = actor_of(t);
        let switches = frame.switches
            + u32::from(frame.last_actor != Actor::None && frame.last_actor != actor);
        if bound != 0 && switches as usize > bound {
            bounded_hit = true;
            continue;
        }
        succs.push(Frame {
            state: memo.successor(state, t),
            last_actor: actor,
            switches,
        });
    }
    Expansion {
        transitions: succs.len(),
        succs,
        is_final: false,
        bounded_hit,
    }
}

/// Applies an exploring worker makes through its [`SuccMemo`] before the
/// memo allocates a table: explorations smaller than this (most service
/// requests) pay for no table at all.
pub(crate) const SUCC_MEMO_ENGAGE_AFTER: u64 = 256;

/// Slots of a freshly engaged [`SuccMemo`] table.
pub(crate) const SUCC_MEMO_MIN_SLOTS: usize = 16;

/// The most slots a [`SuccMemo`] table grows to. It bounds the memory the
/// memo pins (each slot at most two threads and two storage states),
/// whatever the size of the state space. A constant, not a knob — a
/// smaller table only applies more.
pub(crate) const SUCC_MEMO_MAX_SLOTS: usize = 4096;

/// Hits and misses of the successor memo for one footprint class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuccCounts {
    /// Successors taken from the memo.
    pub hits: u64,
    /// Successors derived by [`SystemState::apply`].
    pub misses: u64,
}

impl std::ops::AddAssign for SuccCounts {
    fn add_assign(&mut self, other: SuccCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// What the successor memos of an exploration did, by the footprint
/// class of the transitions they were asked for. Every fired transition
/// is one hit or one miss. Deterministic counters for a pool of one (or
/// a distributed worker); summed over workers, and so dependent on work
/// arrival, for a larger pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuccMemoStats {
    /// Thread transitions that read and write only their own thread.
    pub thread_local: SuccCounts,
    /// Thread transitions that also read storage (a read satisfied
    /// from storage).
    pub storage_reading: SuccCounts,
    /// Transitions that allocate a write or barrier id.
    pub id_allocating: SuccCounts,
    /// The other storage-subsystem transitions.
    pub storage: SuccCounts,
    /// The largest table any of the memos had (`0`: none engaged).
    pub slots: usize,
}

impl SuccMemoStats {
    /// All classes together.
    #[must_use]
    pub fn total(&self) -> SuccCounts {
        let mut all = self.thread_local;
        all += self.storage_reading;
        all += self.id_allocating;
        all += self.storage;
        all
    }

    /// Count one successor of `t`, whose footprint is `(r, w)`.
    fn record(&mut self, t: &Transition, (r, w): (u64, u64), hit: bool) {
        let class = if w & ID != 0 {
            &mut self.id_allocating
        } else if matches!(t, Transition::Storage(_)) {
            &mut self.storage
        } else if (r | w) & STORAGE != 0 {
            &mut self.storage_reading
        } else {
            &mut self.thread_local
        };
        if hit {
            class.hits += 1;
        } else {
            class.misses += 1;
        }
    }
}

/// Counters of several explorations (a CLI summing its runs, or a pool
/// summing its workers).
impl std::ops::AddAssign for SuccMemoStats {
    fn add_assign(&mut self, other: SuccMemoStats) {
        self.thread_local += other.thread_local;
        self.storage_reading += other.storage_reading;
        self.id_allocating += other.id_allocating;
        self.storage += other.storage;
        self.slots = self.slots.max(other.slots);
    }
}

/// The one-line form the CLIs print (`hits/successors` per class).
impl std::fmt::Display for SuccMemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let frac = |c: &SuccCounts| format!("{}/{}", c.hits, c.hits + c.misses);
        let all = self.total();
        write!(
            f,
            "thread-local {}, storage-reading {}, id-allocating {}, storage {}; \
             {} hits ({:.1} %), table {} slots",
            frac(&self.thread_local),
            frac(&self.storage_reading),
            frac(&self.id_allocating),
            frac(&self.storage),
            frac(&all),
            100.0 * all.hits as f64 / (all.hits + all.misses).max(1) as f64,
            self.slots,
        )
    }
}

/// Which components a memo key names: those of a transition's R ∪ W set
/// — at most one thread, the storage subsystem, the id allocators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct KeyShape {
    thread: Option<ThreadId>,
    storage: bool,
    ids: bool,
}

impl KeyShape {
    /// The shape of footprint mask `rw`; `None` (never memoised) when it
    /// names more than one thread, as the fallback mask does.
    fn of(rw: u64) -> Option<KeyShape> {
        let threads = rw & reduction::THREADS;
        (threads.count_ones() <= 1).then(|| KeyShape {
            thread: (threads != 0).then(|| threads.trailing_zeros() as ThreadId),
            storage: rw & STORAGE != 0,
            ids: rw & ID != 0,
        })
    }

    /// The slot hash of `t` on `state`'s keyed components: their cached
    /// digests and the id values, never a pointer (so a run's counters
    /// repeat exactly).
    fn slot_hash(self, state: &SystemState, t: &Transition) -> u64 {
        let mut h = DigestHasher::new();
        t.hash(&mut h);
        if let Some(tid) = self.thread {
            state.threads[tid].digest().hash(&mut h);
        }
        if self.storage {
            state.storage.digest().hash(&mut h);
        }
        if self.ids {
            (state.next_write_id, state.next_barrier_id).hash(&mut h);
        }
        h.finish()
    }
}

/// The keyed components of one state, as its own `Arc`s (so an entry
/// pins them) and id values.
struct Parts {
    thread: Option<Arc<ThreadState>>,
    storage: Option<Arc<StorageState>>,
    ids: (u32, u32),
}

impl Parts {
    fn of(state: &SystemState, shape: KeyShape) -> Parts {
        Parts {
            thread: shape.thread.map(|tid| state.threads[tid].clone()),
            storage: shape.storage.then(|| state.storage.clone()),
            ids: (state.next_write_id, state.next_barrier_id),
        }
    }

    /// Whether `state`'s keyed components are these, by pointer.
    fn are_in(&self, state: &SystemState, shape: KeyShape) -> bool {
        let thread = match (shape.thread, &self.thread) {
            (Some(tid), Some(th)) => Arc::ptr_eq(th, &state.threads[tid]),
            (None, None) => true,
            _ => false,
        };
        let storage = self
            .storage
            .as_ref()
            .is_none_or(|st| Arc::ptr_eq(st, &state.storage));
        let ids = !shape.ids || self.ids == (state.next_write_id, state.next_barrier_id);
        thread && storage && ids
    }

    /// Swap these components into `state`.
    fn put_into(&self, state: &mut SystemState, shape: KeyShape) {
        if let (Some(tid), Some(th)) = (shape.thread, &self.thread) {
            state.threads[tid] = th.clone();
        }
        if let Some(st) = &self.storage {
            state.storage = st.clone();
        }
        if shape.ids {
            (state.next_write_id, state.next_barrier_id) = self.ids;
        }
    }
}

/// One remembered transition: its key (`t` on the `before` components)
/// and what it produced from them (`after`).
struct SuccEntry {
    hash: u64,
    t: Transition,
    shape: KeyShape,
    before: Parts,
    after: Parts,
}

/// One exploring worker's successor memo (see the module docs): a
/// direct-mapped table of [`SuccEntry`]s in front of
/// [`SystemState::apply`].
pub(crate) struct SuccMemo {
    /// Empty until the memo engages; then a power of two in
    /// `SUCC_MEMO_MIN_SLOTS..=SUCC_MEMO_MAX_SLOTS`.
    slots: Vec<Option<SuccEntry>>,
    occupied: usize,
    /// Misses before the table is allocated.
    engage_after: u64,
    stats: SuccMemoStats,
}

impl SuccMemo {
    pub(crate) fn new() -> Self {
        SuccMemo {
            slots: Vec::new(),
            occupied: 0,
            engage_after: SUCC_MEMO_ENGAGE_AFTER,
            stats: SuccMemoStats::default(),
        }
    }

    /// A memo that never engages: every successor is applied. The
    /// reference side of the memo differential tests.
    pub(crate) fn disengaged() -> Self {
        SuccMemo {
            engage_after: u64::MAX,
            ..SuccMemo::new()
        }
    }

    /// What this memo has done so far.
    pub(crate) fn stats(&self) -> SuccMemoStats {
        SuccMemoStats {
            slots: self.slots.len(),
            ..self.stats
        }
    }

    /// The successor of `state` by `t` (which must be enabled in it):
    /// from the memo when `t` was fired before on the same keyed
    /// components, else by [`SystemState::apply`].
    pub(crate) fn successor(&mut self, state: &SystemState, t: &Transition) -> SystemState {
        let (r, w) = reduction::footprint(state, t);
        let shape = KeyShape::of(r | w).filter(|_| self.engaged());
        let Some(shape) = shape else {
            self.stats.record(t, (r, w), false);
            return checked_apply(state, t, w);
        };
        let hash = shape.slot_hash(state, t);
        let slot = hash as usize & (self.slots.len() - 1);
        if let Some(e) = &self.slots[slot] {
            if e.hash == hash && e.t == *t && e.shape == shape && e.before.are_in(state, shape) {
                let mut succ = state.clone();
                e.after.put_into(&mut succ, shape);
                #[cfg(debug_assertions)]
                audit_hit(state, t, w, &succ);
                self.stats.record(t, (r, w), true);
                return succ;
            }
        }
        self.stats.record(t, (r, w), false);
        let succ = checked_apply(state, t, w);
        // Only what the key pins down may differ: an `apply` that moved
        // anything else would make the entry wrong for the next parent.
        if reduction::check_write_set(state, &succ, r | w).is_ok() {
            self.insert(SuccEntry {
                hash,
                t: *t,
                shape,
                before: Parts::of(state, shape),
                after: Parts::of(&succ, shape),
            });
        }
        succ
    }

    /// Whether the table exists, allocating it once enough applies have
    /// gone by.
    fn engaged(&mut self) -> bool {
        if self.slots.is_empty() {
            if self.stats.total().misses < self.engage_after {
                return false;
            }
            self.slots.resize_with(SUCC_MEMO_MIN_SLOTS, || None);
        }
        true
    }

    /// Put `e` in its slot (evicting the slot's entry), doubling the
    /// table once three quarters of its slots are taken.
    fn insert(&mut self, e: SuccEntry) {
        let slot = e.hash as usize & (self.slots.len() - 1);
        if self.slots[slot].replace(e).is_some() {
            return;
        }
        self.occupied += 1;
        if self.occupied * 4 > self.slots.len() * 3 && self.slots.len() < SUCC_MEMO_MAX_SLOTS {
            let old = std::mem::take(&mut self.slots);
            self.slots.resize_with(old.len() * 2, || None);
            // Doubling splits each slot in two, so nothing collides.
            for e in old.into_iter().flatten() {
                let slot = e.hash as usize & (self.slots.len() - 1);
                self.slots[slot] = Some(e);
            }
        }
    }
}

/// `state.apply(t)`; debug builds also check that it changed nothing
/// outside the footprint's write set `w`.
fn checked_apply(state: &SystemState, t: &Transition, w: u64) -> SystemState {
    let succ = state.apply(t);
    debug_assert_eq!(
        reduction::check_write_set(state, &succ, w),
        Ok(()),
        "the footprint of {t:?} misses a component its apply writes"
    );
    succ
}

/// Debug-build audit of a memo hit, beside the digest-cache audit in
/// [`SystemState::digest`]: re-derive the successor with `apply` and
/// require the memo's to equal it, structurally and by digest. A
/// footprint whose R set misses a component `apply` reads fails here.
#[cfg(debug_assertions)]
fn audit_hit(state: &SystemState, t: &Transition, w: u64, succ: &SystemState) {
    let fresh = checked_apply(state, t, w);
    assert!(
        fresh == *succ,
        "successor memo served a wrong successor for {t:?}"
    );
    assert_eq!(
        fresh.digest(),
        succ.digest(),
        "successor memo served a successor with another digest for {t:?}"
    );
}

/// One depth-first frontier — what each worker of an in-process pool
/// and each distributed worker ([`crate::distrib`]) drives: the
/// in-memory stack of unexpanded frames, the shared store holding the
/// visited set and the spilled frames, and the successor memo its
/// expansions go through, with [`DfsFrontier::step`] the one expand →
/// admit → spill body every engine runs. Only a `DfsFrontier` pops,
/// unspills and spills.
///
/// The visited set and spilled frames live in a [`StateStore`]: fully
/// in memory when [`ModelParams::max_resident_states`] is `0`, spilling
/// the *oldest* (bottom-of-stack) frames and overgrown visited shards
/// to temp files when the budget is crossed. Spilling cannot change the
/// result — membership stays exact and decoded states are structurally
/// identical to the originals — so finals and counts are byte-identical
/// in both modes.
pub(crate) struct DfsFrontier {
    pub(crate) store: Arc<StateStore>,
    /// The [`expand`] memo of this frontier's one exploring thread.
    memo: SuccMemo,
    /// The transition buffer [`expand`] rebuilds for every state.
    scratch: Vec<Transition>,
    stack: Vec<Frame>,
}

impl DfsFrontier {
    /// An empty frontier over a store of its own, for explorations of
    /// `initial`'s program.
    pub(crate) fn new(initial: &SystemState) -> Self {
        DfsFrontier::over(Arc::new(StateStore::new(
            initial.program.clone(),
            &initial.params,
            1,
        )))
    }

    /// An empty frontier over `store`, which other frontiers may share.
    fn over(store: Arc<StateStore>) -> Self {
        DfsFrontier {
            store,
            memo: SuccMemo::new(),
            scratch: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Expand a popped frame and file what it yields: its counts go to
    /// `stats` and its final states to `finals`; each successor is shown
    /// to `route` first, and one that `route` calls local is admitted
    /// ([`StateStore::insert_visited`]) and pushed; then the excess spills.
    /// A pool worker's `route` calls every successor local, a
    /// distributed worker's routes those another shard owns. The budget,
    /// deadline and messaging around a step are the caller's.
    pub(crate) fn step(
        &mut self,
        frame: &Frame,
        reg_obs: &[(ThreadId, Reg)],
        mem_obs: &[(u64, usize)],
        finals: &mut BTreeSet<FinalState>,
        stats: &mut ExplorationStats,
        mut route: impl FnMut(&StateStore, &Frame) -> bool,
    ) -> Result<(), StoreError> {
        let exp = expand(
            frame,
            reg_obs,
            mem_obs,
            finals,
            &mut self.scratch,
            &mut self.memo,
        );
        stats.bounded |= exp.bounded_hit;
        stats.final_hits += usize::from(exp.is_final);
        stats.transitions += exp.transitions;
        for next in exp.succs {
            if route(&self.store, &next) && self.store.insert_visited(next.state.digest())? {
                self.push(next);
            }
        }
        self.spill_excess()
    }

    /// Put an admitted frame on top of the stack.
    pub(crate) fn push(&mut self, frame: Frame) {
        self.store.note_enqueued(1);
        self.stack.push(frame);
    }

    /// Take the newest unexpanded frame; when the in-memory stack is
    /// dry, reload the newest spilled segment first (sequential batched
    /// readback). `Ok(None)` means nothing is left anywhere.
    pub(crate) fn pop(&mut self) -> Result<Option<Frame>, StoreError> {
        if self.stack.is_empty() && !self.unspill()? {
            return Ok(None);
        }
        Ok(self.pop_resident())
    }

    /// Take the newest frame of the in-memory stack.
    fn pop_resident(&mut self) -> Option<Frame> {
        let frame = self.stack.pop();
        if frame.is_some() {
            self.store.note_dequeued(1);
        }
        frame
    }

    /// Reload the store's newest spilled segment onto the stack;
    /// `Ok(false)` when nothing is spilled.
    fn unspill(&mut self) -> Result<bool, StoreError> {
        let Some(segment) = self.store.unspill()? else {
            return Ok(false);
        };
        self.store.note_enqueued(segment.len());
        self.stack.extend(segment);
        Ok(true)
    }

    /// Over this frontier's resident budget: spill the oldest frames
    /// (the stack bottom, the ones depth-first search would touch last
    /// anyway) down to half the budget, so spills are batched rather
    /// than per-push.
    fn spill_excess(&mut self) -> Result<(), StoreError> {
        let budget = self.store.budget();
        if budget != 0 && self.stack.len() > budget {
            let excess = self.stack.len() - budget / 2;
            let victims: Vec<Frame> = self.stack.drain(..excess).collect();
            self.store.spill_batch(&victims)?;
            self.store.note_dequeued(victims.len());
        }
        Ok(())
    }

    /// Whether no unexpanded frame is left, in memory or on disk.
    pub(crate) fn is_empty(&self) -> bool {
        self.stack.is_empty() && !self.store.has_spilled_frontier()
    }

    /// Take every unexpanded frame — the stack, then each spilled
    /// segment — leaving the frontier empty (the checkpoint dump).
    pub(crate) fn drain(&mut self) -> Result<Vec<Frame>, StoreError> {
        let mut frames = std::mem::take(&mut self.stack);
        while let Some(segment) = self.store.unspill()? {
            frames.extend(segment);
        }
        Ok(frames)
    }
}

/// How often (in claimed states, over the whole pool) the wall-clock
/// deadline is polled. Expansions are short, so this keeps the deadline
/// soft but tight without an `Instant::now()` call per state.
const DEADLINE_POLL_PERIOD: usize = 256;

/// The shared control block of one in-process exploration: what the
/// `workers` frontiers over one store share besides the store.
struct Pool<'a> {
    limits: &'a ExploreLimits,
    workers: usize,
    /// Frames a busy worker donated (the bottom half of its stack) for
    /// an idle one to take. Every change of `idle` and every unspill by
    /// a dry worker happens under this lock, which is what makes
    /// `idle == workers` mean that nothing is left anywhere. Donated
    /// frames stay counted as resident in the store.
    shared: Mutex<Vec<Frame>>,
    /// Wakes idle workers: a donation, the end of the search or a stop.
    wake: Condvar,
    /// Workers waiting for work. Changed only under the `shared` lock,
    /// which orders every access that decides anything; the lock-free
    /// read after every step is only the hint to try donating, so it
    /// publishes nothing and `Relaxed` suffices.
    idle: AtomicUsize,
    /// States claimed against `limits.max_states`, one at a time
    /// immediately before expansion. A failed claim is rolled back, so
    /// at rest this equals the number of states expanded
    /// ([`ExplorationStats::states`]).
    claimed: AtomicUsize,
    /// Set when the budget or deadline trips, a store fails or a worker
    /// panics; every worker quits promptly, abandoning what is left.
    stop: AtomicBool,
    /// Whether the stop was a truncation (budget, deadline or store
    /// failure), as opposed to the search running dry.
    truncated: AtomicBool,
    /// The first spill-store failure any worker hit (the stop it caused
    /// is recorded via [`Pool::trip`], so the run surfaces as truncated
    /// + this message, never as a panic or a silent pass).
    store_error: Mutex<Option<String>>,
}

impl Pool<'_> {
    /// One worker's loop over its frontier: pop, claim, step, and donate
    /// while another worker is idle; refill when the stack runs dry.
    /// Returns the worker's final states and counts.
    fn work(
        &self,
        frontier: &mut DfsFrontier,
        reg_obs: &[(ThreadId, Reg)],
        mem_obs: &[(u64, usize)],
    ) -> (BTreeSet<FinalState>, ExplorationStats) {
        let _guard = StopOnPanic(self);
        let mut finals = BTreeSet::new();
        let mut stats = ExplorationStats::default();
        while !self.stop.load(Ordering::SeqCst) {
            let Some(frame) = frontier.pop_resident() else {
                match self.refill(frontier) {
                    Ok(true) => continue,
                    Ok(false) => break,
                    Err(e) => {
                        self.fail_store(&e);
                        break;
                    }
                }
            };
            if !self.claim() {
                break;
            }
            let stepped =
                frontier.step(&frame, reg_obs, mem_obs, &mut finals, &mut stats, |_, _| {
                    true
                });
            if let Err(e) = stepped {
                self.fail_store(&e);
                break;
            }
            if self.idle.load(Ordering::Relaxed) > 0 && frontier.stack.len() >= 2 {
                self.donate(frontier);
            }
        }
        (finals, stats)
    }

    /// Claim one state against the budget, polling the deadline every
    /// [`DEADLINE_POLL_PERIOD`] claims; on failure roll the claim back
    /// and stop the pool as truncated.
    fn claim(&self) -> bool {
        let n = self.claimed.fetch_add(1, Ordering::SeqCst);
        let expired = n.is_multiple_of(DEADLINE_POLL_PERIOD)
            && self.limits.deadline.is_some_and(|d| Instant::now() >= d);
        if n >= self.limits.max_states || expired {
            self.claimed.fetch_sub(1, Ordering::SeqCst);
            self.truncated.store(true, Ordering::SeqCst);
            self.trip();
            return false;
        }
        true
    }

    /// Refill a dry worker's stack, under the pool lock: the donated
    /// frames, else one spilled segment, else wait idle for a donation.
    /// `Ok(false)`: the search is over — every worker is idle, or the
    /// pool stopped.
    fn refill(&self, frontier: &mut DfsFrontier) -> Result<bool, StoreError> {
        let mut shared = self.shared.lock().expect("pool lock poisoned");
        let mut idle = false;
        let refilled = loop {
            if self.stop.load(Ordering::SeqCst) {
                break false;
            }
            if !shared.is_empty() {
                frontier.stack.append(&mut shared);
                break true;
            }
            if frontier.unspill()? {
                break true;
            }
            if !idle {
                idle = true;
                self.idle.fetch_add(1, Ordering::Relaxed);
            }
            if self.idle.load(Ordering::Relaxed) == self.workers {
                self.wake.notify_all();
                break false;
            }
            shared = self.wake.wait(shared).expect("pool lock poisoned");
        };
        if idle && refilled {
            self.idle.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(refilled)
    }

    /// Move the bottom (oldest) half of `frontier`'s stack into the
    /// shared slot for an idle worker, unless the slot is still full or
    /// no worker is idle any more.
    fn donate(&self, frontier: &mut DfsFrontier) {
        let mut shared = self.shared.lock().expect("pool lock poisoned");
        if shared.is_empty() && self.idle.load(Ordering::Relaxed) > 0 {
            let half = frontier.stack.len() / 2;
            shared.extend(frontier.stack.drain(..half));
            self.wake.notify_one();
        }
    }

    /// Tell every worker to stop, waking the idle ones.
    fn trip(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Taking the lock orders the store before any idle worker's
        // next check, so none can miss the wake-up.
        let _shared = self
            .shared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.wake.notify_all();
    }

    /// Record a spill-store failure and stop the exploration (truncated,
    /// with the failure message attached to the stats).
    fn fail_store(&self, e: &StoreError) {
        let mut slot = self.store_error.lock().expect("store_error poisoned");
        if slot.is_none() {
            *slot = Some(e.to_string());
        }
        drop(slot);
        self.truncated.store(true, Ordering::SeqCst);
        self.trip();
    }
}

/// Stops the pool if its worker unwinds, so a panic inside one
/// expansion cannot leave the other workers waiting forever for a
/// donation — they exit, the scope joins, and the panic propagates.
struct StopOnPanic<'a>(&'a Pool<'a>);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.trip();
        }
    }
}

/// Extract the observable final states of a quiescent system state
/// (possibly several, one per coherence completion of each queried
/// location) straight into `finals`.
///
/// The cartesian product over locations works on *borrowed* candidate
/// values and clones each register map and memory value exactly once, at
/// the leaf that builds the emitted [`FinalState`] — the earlier
/// level-by-level construction cloned every partial state (whole maps)
/// once per candidate per location.
fn extract_finals(
    state: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    finals: &mut BTreeSet<FinalState>,
) {
    let mut regs = BTreeMap::new();
    for &(tid, reg) in reg_obs {
        regs.insert((tid, reg), state.threads[tid].final_reg(reg));
    }
    // Per-location candidate final values.
    let mut per_loc: Vec<(u64, Vec<Bv>)> = Vec::new();
    for &(addr, size) in mem_obs {
        per_loc.push((addr, final_values_at(state, addr, size)));
    }
    // Cartesian product over locations, borrowing until the leaf.
    let mut chosen: Vec<(u64, &Bv)> = Vec::with_capacity(per_loc.len());
    finals_product(&regs, &per_loc, &mut chosen, finals);
}

/// Recursive leg of the per-location cartesian product: `chosen` holds
/// one borrowed candidate per already-visited location; each complete
/// assignment becomes one owned [`FinalState`].
fn finals_product<'a>(
    regs: &BTreeMap<(ThreadId, Reg), Bv>,
    per_loc: &'a [(u64, Vec<Bv>)],
    chosen: &mut Vec<(u64, &'a Bv)>,
    finals: &mut BTreeSet<FinalState>,
) {
    // `chosen` borrows from earlier `per_loc` entries, so the recursion
    // threads the remaining suffix; `split_first` keeps lifetimes tied
    // to `per_loc` itself.
    match per_loc.split_first() {
        None => {
            finals.insert(FinalState {
                regs: regs.clone(),
                mem: chosen.iter().map(|&(a, v)| (a, v.clone())).collect(),
            });
        }
        Some(((addr, candidates), rest)) => {
            for v in candidates {
                chosen.push((*addr, v));
                finals_product(regs, rest, chosen, finals);
                chosen.pop();
            }
        }
    }
}

/// All possible final values of `[addr, addr+size)`: one per
/// coherence-consistent linearisation of the covering writes.
fn final_values_at(state: &SystemState, addr: u64, size: usize) -> Vec<Bv> {
    let covering: Vec<WriteId> = state
        .storage
        .writes_seen
        .iter()
        .copied()
        .filter(|w| state.storage.writes[w].overlaps(addr, size))
        .collect();
    let mut values = BTreeSet::new();
    let mut order = Vec::new();
    let mut used = vec![false; covering.len()];
    permute(
        state,
        &covering,
        &mut used,
        &mut order,
        addr,
        size,
        &mut values,
    );
    values.into_iter().collect()
}

fn permute(
    state: &SystemState,
    covering: &[WriteId],
    used: &mut [bool],
    order: &mut Vec<WriteId>,
    addr: u64,
    size: usize,
    values: &mut BTreeSet<Bv>,
) {
    if order.len() == covering.len() {
        // Assemble the value bit-by-bit from the *borrowed* supplying
        // writes; the only allocation is the final `Bv` inserted into
        // the set (the per-byte `final_byte_value` path cloned a fresh
        // one-byte `Bv` per byte per linearisation, then re-allocated
        // the accumulator on every concat).
        let mut bits = Vec::with_capacity(size * 8);
        for i in 0..size {
            let b = addr + i as u64;
            match state.storage.final_byte_write(order, b) {
                Some(w) => {
                    let off = ((b - w.addr) as usize) * 8;
                    for k in 0..8 {
                        bits.push(w.value.bit(off + k));
                    }
                }
                None => bits.extend(std::iter::repeat_n(ppc_bits::Bit::Undef, 8)),
            }
        }
        values.insert(Bv::from_bits(bits));
        return;
    }
    for (i, &w) in covering.iter().enumerate() {
        if used[i] {
            continue;
        }
        // Respect coherence: w may come next only if no unplaced write is
        // coherence-before it.
        let ok = covering
            .iter()
            .enumerate()
            .all(|(j, &o)| used[j] || j == i || !state.storage.coh_before(o, w));
        if !ok {
            continue;
        }
        used[i] = true;
        order.push(w);
        permute(state, covering, used, order, addr, size, values);
        order.pop();
        used[i] = false;
    }
}

/// Run a single deterministic execution to quiescence (the tool's "run
/// sequentially" mode; with one thread this is a conventional emulator).
///
/// Transition choice: non-fetch thread transitions first (lowest thread,
/// lowest instance, enumeration order), then storage transitions, then
/// fetches whose parent's next address is resolved — so no speculative
/// wrong-path work is ever done.
///
/// Returns the final state and the number of transitions taken.
///
/// # Panics
///
/// Panics if quiescence is not reached within `max_steps`.
#[must_use]
pub fn run_sequential(initial: &SystemState, max_steps: usize) -> (SystemState, usize) {
    let mut state = initial.clone();
    let mut steps = 0;
    loop {
        if state.is_final() {
            return (state, steps);
        }
        let ts = state.enumerate_transitions();
        let pick = choose_sequential(&state, &ts);
        match pick {
            Some(t) => {
                state = state.apply(&t);
                steps += 1;
                assert!(
                    steps <= max_steps,
                    "sequential run exceeded {max_steps} steps"
                );
            }
            None => return (state, steps),
        }
    }
}

pub(crate) fn choose_sequential(state: &SystemState, ts: &[Transition]) -> Option<Transition> {
    // 1. Non-fetch thread transitions.
    if let Some(t) = ts.iter().find(
        |t| matches!(t, Transition::Thread(tt) if !matches!(tt, ThreadTransition::Fetch { .. })),
    ) {
        return Some(*t);
    }
    // 2. Storage transitions.
    if let Some(t) = ts.iter().find(|t| matches!(t, Transition::Storage(_))) {
        return Some(*t);
    }
    // 3. Resolved fetches only.
    ts.iter()
        .find(|t| match t {
            Transition::Thread(ThreadTransition::Fetch { tid, parent, .. }) => match parent {
                None => true,
                Some(p) => state.threads[*tid].instances[*p].nia.is_some(),
            },
            _ => false,
        })
        .cloned()
}

#[cfg(test)]
#[path = "succ_memo_tests.rs"]
mod succ_memo_tests;
