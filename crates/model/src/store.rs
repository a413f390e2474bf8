//! The two-tier exploration store: digest-sharded visited set and
//! frontier segments, in memory by default, transparently spilling to
//! temp files when the resident-state budget
//! ([`ModelParams::max_resident_states`]) is crossed.
//!
//! Exhaustive exploration of the biggest litmus tests blows past what an
//! in-memory visited set and frontier can hold (ROADMAP: "frontier
//! spill-to-disk for >10^7-state tests"). The store keeps both exact
//! while bounding resident memory:
//!
//! - **Visited set**: one mutexed shard per low-digest-bits bucket, as
//!   the work-stealing engine always had. Each shard holds a *hot*
//!   `HashSet` plus at most one *cold run* — a [`SortedRun`] of 8-byte
//!   digests, so a cold membership probe costs one 4 KiB positioned read.
//!   When the hot set outgrows its budget the shard streams hot ∪ cold
//!   into a fresh sorted run (LSM-style, merge deferred until the hot
//!   set is at least a quarter of the run, so total write amplification
//!   stays logarithmic). Membership stays *exact* — a false "new" would
//!   change visited-state counts, a false "seen" would drop states.
//!   Under [`ModelParams::sleep_sets`] the same shards hold the sleep
//!   table instead — each visited digest with the sleep set it was
//!   explored with — which stays resident: a cold run keeps digests
//!   only. [`StateStore::admit`] is every engine's one admission, in
//!   either mode.
//! - **Frontier segments**: overflow states are serialised through the
//!   canonical [`crate::state_codec`] into length-prefixed segment
//!   files (newest segment read back first, preserving the search's
//!   depth-first flavour) and decoded in sequential batches on readback.
//!   Decoding resolves all shared structure against the program cache,
//!   so a spilled-and-reloaded state has the same digest and the same
//!   successors as the original — spilling cannot change what is
//!   explored, only where it waits.
//!
//! Every disk touch returns a [`StoreError`] instead of panicking:
//! disk-full, a short read, or a corrupt segment must surface as a
//! *truncated* (inconclusive) exploration result, never abort the
//! process or poison a worker pool. The engines treat any store error
//! as a budget trip.
//!
//! The work-stealing engine's pending-count termination protocol is
//! unchanged: spilled states are still *pending* (they were counted when
//! published and are only retired after expansion), so `pending == 0`
//! still means "nothing left anywhere, including on disk".
//!
//! Temp files live in a per-exploration directory under the system temp
//! dir, created lazily on first spill and removed when the store drops;
//! consumed segments are deleted as soon as they are read back. The
//! directory itself is created with `create_dir` (fail-if-exists) and a
//! retried process-local suffix, so a stale same-named directory left by
//! a SIGKILLed run after pid recycling is never joined (its segment
//! files would otherwise be read back as frontier states of a different
//! exploration).

use crate::oracle::{Actor, Frame};
use crate::state_codec::{decode_transition_set, encode_transition_set, CodecCtx, MemoStats};
use crate::system::{Program, SystemState, Transition};
use crate::types::ModelParams;
use ppc_bits::{framed, DecodeError, Reader, SortedRun, Writer};
use std::collections::{hash_map, HashMap, HashSet};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Minimum hot digests per shard before any flush is considered, even
/// under tiny budgets (digests are ~100× smaller than states, so the
/// visited set deserves a proportionally larger resident allowance).
const MIN_HOT: usize = 64;

/// Target states per frontier segment file under a budget `b`
/// (`max(b/2, 16)`): half a budget's worth, so a readback refills the
/// frontier without immediately re-crossing the threshold.
fn segment_target(budget: usize) -> usize {
    (budget / 2).max(16)
}

/// Process-unique suffix for spill directories.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A failed interaction with the spill store's disk half. Exploration
/// engines convert this into a truncated (inconclusive) result — a
/// full disk or a corrupted/short segment never aborts the process.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed (disk full, short read, permission…).
    Io {
        /// What the store was doing, e.g. `"read frontier segment"`.
        op: &'static str,
        source: io::Error,
    },
    /// On-disk bytes failed to decode back into a frame.
    Corrupt {
        op: &'static str,
        source: DecodeError,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, source } => write!(f, "spill store: {op}: {source}"),
            StoreError::Corrupt { op, source } => {
                write!(f, "spill store: {op}: corrupt record: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { source, .. } => Some(source),
        }
    }
}

/// Wrap an [`io::Error`] with the operation that hit it.
fn io_err(op: &'static str) -> impl FnOnce(io::Error) -> StoreError {
    move |source| StoreError::Io { op, source }
}

/// Create a fresh, collision-safe directory under the system temp dir.
///
/// The name is `{prefix}-{pid}-{seq}`, but the pid+sequence pair alone
/// is *not* trusted to be unique: a SIGKILLed process leaves its
/// directory behind, and after pid recycling a later run can mint the
/// same name. `create_dir` (fail-if-exists) plus retry with a fresh
/// suffix guarantees the returned directory is newly created and empty —
/// stale contents under a colliding name are never joined.
pub fn create_unique_temp_dir(prefix: &str) -> io::Result<PathBuf> {
    let tmp = std::env::temp_dir();
    loop {
        let n = SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let d = tmp.join(format!("{prefix}-{}-{}", std::process::id(), n));
        match fs::create_dir(&d) {
            Ok(()) => return Ok(d),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// One visited-set entry as a dump, a checkpoint or a resume seed
/// carries it: the digest plus, in reduced mode, the sleep set it was
/// last explored with (empty unreduced).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VisitedEntry {
    pub digest: u64,
    pub sleep: Vec<Transition>,
}

/// Reduced mode's visited set ([`ModelParams::sleep_sets`]): every state
/// reached so far, by digest, with the sleep set it was (last) explored
/// with.
type SleepTable = HashMap<u64, Box<[Transition]>>;

/// One shard of the visited set: exact membership over a hot in-memory
/// set plus at most one cold sorted run on disk — or, reduced, the
/// sleep table.
struct VisitedShard {
    hot: HashSet<u64>,
    cold: Option<ColdRun>,
    /// Admission reads the stored sleep set, and a state must be
    /// *re*-explored when it comes back with a strictly less restrictive
    /// one (else outcomes only reachable through its sleeping
    /// transitions would be lost), so reduced this replaces `hot` and
    /// `cold`. Empty unreduced.
    sleep: SleepTable,
}

/// A shard's sorted run of digests, in a temp file it deletes on drop.
struct ColdRun {
    run: SortedRun<8>,
    path: PathBuf,
}

impl Drop for ColdRun {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// A finalized, unread frontier segment on disk.
struct Segment {
    path: PathBuf,
    states: usize,
}

/// The open (still-appending) frontier segment.
struct OpenSegment {
    path: PathBuf,
    writer: BufWriter<File>,
    states: usize,
}

/// The frontier's disk half: an optional open segment plus the stack of
/// finalized ones (LIFO, so readback prefers the newest spill).
#[derive(Default)]
struct FrontierSpill {
    open: Option<OpenSegment>,
    segments: Vec<Segment>,
}

/// The two-tier exploration store shared by one exploration's workers.
pub struct StateStore {
    /// The codec context, built on first spill: the per-address block
    /// enumerations walk every semantics AST, which is wasted work in
    /// the (default, unlimited-budget) configuration where nothing ever
    /// touches disk.
    ctx: std::sync::OnceLock<CodecCtx>,
    program: Arc<Program>,
    params: ModelParams,
    /// Resident-state budget (`0` = unlimited, never spill).
    budget: usize,
    /// Hot-digest budget per visited shard before a flush is considered.
    hot_budget: usize,
    shards: Vec<Mutex<VisitedShard>>,
    mask: u64,
    frontier: Mutex<FrontierSpill>,
    /// Decoded frontier states currently resident in memory (all deques
    /// or stacks), maintained by the engines via
    /// [`StateStore::note_enqueued`] / [`StateStore::note_dequeued`].
    resident: AtomicUsize,
    resident_peak: AtomicUsize,
    /// States that have been written to segment files (statistics).
    spilled: AtomicUsize,
    /// Lazily created spill directory.
    dir: Mutex<Option<PathBuf>>,
    seq: AtomicU64,
}

impl StateStore {
    /// A store for one exploration: `threads` sizes the visited-set
    /// sharding (as the work-stealing engine always did), and the
    /// resident budget comes from `params.max_resident_states`.
    #[must_use]
    pub fn new(program: Arc<Program>, params: &ModelParams, threads: usize) -> Self {
        let n = (threads.max(1) * 16).next_power_of_two();
        let budget = params.max_resident_states;
        // Digests are two orders of magnitude smaller than states, so
        // the visited set's resident allowance scales the state budget
        // up by 8× before splitting it across shards.
        let hot_budget = if budget == 0 {
            usize::MAX
        } else {
            (budget * 8 / n).max(MIN_HOT)
        };
        StateStore {
            ctx: std::sync::OnceLock::new(),
            program,
            params: params.clone(),
            budget,
            hot_budget,
            shards: (0..n)
                .map(|_| {
                    Mutex::new(VisitedShard {
                        hot: HashSet::new(),
                        cold: None,
                        sleep: SleepTable::new(),
                    })
                })
                .collect(),
            mask: (n - 1) as u64,
            frontier: Mutex::new(FrontierSpill::default()),
            resident: AtomicUsize::new(0),
            resident_peak: AtomicUsize::new(0),
            spilled: AtomicUsize::new(0),
            dir: Mutex::new(None),
            seq: AtomicU64::new(0),
        }
    }

    /// The resident-state budget (`0` = unlimited).
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The codec context, built on first use. One per exploring process:
    /// a distributed worker's wire records and its spill segments go
    /// through the same context, so what one decodes the other can copy.
    pub(crate) fn ctx(&self) -> &CodecCtx {
        self.ctx
            .get_or_init(|| CodecCtx::new(self.program.clone(), self.params.clone()))
    }

    /// Whether publishing `incoming` more resident states would cross
    /// the budget (always `false` when unlimited).
    #[must_use]
    pub fn should_spill(&self, incoming: usize) -> bool {
        self.budget != 0 && self.resident.load(Ordering::Relaxed) + incoming > self.budget
    }

    /// Record `n` states entering in-memory frontiers.
    pub fn note_enqueued(&self, n: usize) {
        let now = self.resident.fetch_add(n, Ordering::Relaxed) + n;
        self.resident_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Record `n` states leaving in-memory frontiers.
    pub fn note_dequeued(&self, n: usize) {
        self.resident.fetch_sub(n, Ordering::Relaxed);
    }

    /// Peak number of resident frontier states observed.
    #[must_use]
    pub fn resident_peak(&self) -> usize {
        self.resident_peak.load(Ordering::Relaxed)
    }

    /// Total states spilled to segment files (statistics/tests).
    #[must_use]
    pub fn spilled_states(&self) -> usize {
        self.spilled.load(Ordering::Relaxed)
    }

    /// What the codec's component memo did for this store (all zero for
    /// a store that never spilled: the context is built on first use).
    #[must_use]
    pub fn codec_memo(&self) -> MemoStats {
        self.ctx.get().map(CodecCtx::memo_stats).unwrap_or_default()
    }

    // ---- visited set ---------------------------------------------------

    /// The visited shard `digest` belongs to, locked.
    fn shard(&self, digest: u64) -> MutexGuard<'_, VisitedShard> {
        self.shards[(digest & self.mask) as usize]
            .lock()
            .expect("visited shard poisoned")
    }

    /// Decide whether a state enters the search, from its digest and the
    /// sleep set it arrives with: every engine's one admission. `None`
    /// prunes; `Some(wake)` admits, restricted to the wake-up list on a
    /// reduced re-visit (always empty unreduced). Unreduced this is
    /// [`StateStore::insert_visited`] and `sleep` is ignored; under
    /// [`ModelParams::sleep_sets`] it is [`reduced_admit`] on the
    /// digest's shard, whose lock serialises same-digest arrivals, so
    /// concurrent admissions are race-free. Needing no decoded state,
    /// this is also what a distributed worker asks *before* it decodes a
    /// received frame.
    pub fn admit(
        &self,
        digest: u64,
        sleep: &[Transition],
    ) -> Result<Option<Vec<Transition>>, StoreError> {
        if !self.params.sleep_sets {
            return Ok(self.insert_visited(digest)?.then(Vec::new));
        }
        Ok(reduced_admit(&mut self.shard(digest).sleep, digest, sleep))
    }

    /// [`StateStore::admit`] for a frame in hand: an admitted frame takes
    /// the visit's wake-up restriction with it; `Ok(false)` prunes.
    pub fn admit_frame(&self, frame: &mut Frame) -> Result<bool, StoreError> {
        let Some(wake) = self.admit(frame.state.digest(), &frame.sleep)? else {
            return Ok(false);
        };
        frame.wake = wake;
        Ok(true)
    }

    /// Put one entry of a dump back into the visited set (resume
    /// seeding): the digest and, reduced, the sleep set it was explored
    /// with.
    pub fn seed(&self, entry: VisitedEntry) -> Result<(), StoreError> {
        if self.params.sleep_sets {
            let sleep = entry.sleep.into_boxed_slice();
            self.shard(entry.digest).sleep.insert(entry.digest, sleep);
        } else {
            self.insert_visited(entry.digest)?;
        }
        Ok(())
    }

    /// Every entry of the visited set — the hot ∪ cold digests with
    /// empty sleep sets unreduced, the sleep table reduced — sorted by
    /// digest. This is the checkpoint/dump view of the visited set; the
    /// exploration must be quiescent while it runs.
    pub fn visited_entries(&self) -> Result<Vec<VisitedEntry>, StoreError> {
        let digest_only = |digest| VisitedEntry {
            digest,
            sleep: Vec::new(),
        };
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut s = shard.lock().expect("visited shard poisoned");
            out.extend(s.hot.iter().copied().map(digest_only));
            out.extend(s.sleep.iter().map(|(&digest, sleep)| VisitedEntry {
                digest,
                sleep: sleep.to_vec(),
            }));
            if let Some(cold) = &mut s.cold {
                cold.run
                    .for_each(|digest| {
                        out.push(digest_only(u64::from_le_bytes(*digest)));
                        Ok(())
                    })
                    .map_err(io_err("read visited run"))?;
            }
        }
        out.sort_unstable_by_key(|e| e.digest);
        Ok(out)
    }

    /// Insert a digest into the visited set; `Ok(true)` iff it was new.
    /// Exact regardless of spilling: the hot set and the cold run are
    /// both consulted before inserting. This is unreduced admission.
    pub fn insert_visited(&self, digest: u64) -> Result<bool, StoreError> {
        let mut s = self.shard(digest);
        if s.hot.contains(&digest) {
            return Ok(false);
        }
        if let Some(cold) = &mut s.cold {
            let found = cold.run.find(digest);
            if found.map_err(io_err("read visited run"))?.is_some() {
                return Ok(false);
            }
        }
        s.hot.insert(digest);
        // LSM-style deferred flush: only once the hot set is both over
        // its budget and a meaningful fraction of the cold run, so each
        // merge grows the run geometrically and total rewrite cost stays
        // O(n log n).
        let cold_len = s.cold.as_ref().map_or(0, |c| c.run.len());
        if s.hot.len() >= self.hot_budget && s.hot.len() * 4 >= cold_len {
            self.flush_shard(&mut s)?;
        }
        Ok(true)
    }

    /// Merge a shard's hot set and cold run into a fresh sorted run.
    fn flush_shard(&self, s: &mut VisitedShard) -> Result<(), StoreError> {
        let mut hot: Vec<u64> = s.hot.drain().collect();
        hot.sort_unstable();
        let path = self.fresh_path("run")?;
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(io_err("create visited run"))?;
        // Stream-merge the old run (if any) with the sorted hot set. The
        // two are disjoint by construction (inserts probe cold before
        // landing in hot). `old` drops at the end, deleting its file.
        let mut merged = SortedRun::<8>::create(file, 0);
        let mut hot = hot.into_iter().peekable();
        let mut old = s.cold.take();
        let mut merge = || -> io::Result<()> {
            if let Some(old) = &mut old {
                old.run.for_each(|digest| {
                    let next_old = u64::from_le_bytes(*digest);
                    while let Some(h) = hot.next_if(|&h| h < next_old) {
                        merged.push(&h.to_le_bytes())?;
                    }
                    merged.push(digest)
                })?;
            }
            hot.try_for_each(|h| merged.push(&h.to_le_bytes()))
        };
        merge().map_err(io_err("merge visited run"))?;
        let run = merged.finish().map_err(io_err("flush visited run"))?;
        s.cold = Some(ColdRun { run, path });
        Ok(())
    }

    // ---- frontier segments ---------------------------------------------

    /// Spill a batch of frontier frames to the current open segment,
    /// finalizing it once it reaches the segment target. The states must
    /// belong to this store's program/params (they are encoded through
    /// the canonical codec).
    ///
    /// Each record carries the state's 64-bit digest and the frame's
    /// search metadata (context-switch count, last actor, sleep set —
    /// additive fields ahead of the state bytes; the canonical state
    /// encoding itself is unchanged) alongside the canonical bytes.
    /// Spilled states had their digest computed at admission, so this is
    /// a cached read; on readback the digest seeds the decoded state's
    /// compute-once cache, so no downstream consumer ever re-hashes a
    /// state that round-tripped through disk.
    pub fn spill_batch(&self, frames: &[Frame]) -> Result<(), StoreError> {
        if frames.is_empty() {
            return Ok(());
        }
        // Encode outside the frontier lock: encoding is the CPU-heavy
        // part, writing is sequential-buffered.
        let encoded: Vec<(u64, Vec<u8>)> = frames
            .iter()
            .map(|f| (f.state.digest(), encode_frame(self.ctx(), f)))
            .collect();
        let target = segment_target(self.budget);
        let mut fr = self.frontier.lock().expect("frontier spill poisoned");
        for (digest, bytes) in encoded {
            if fr.open.is_none() {
                let path = self.fresh_path("seg")?;
                let file = File::create(&path).map_err(io_err("create frontier segment"))?;
                fr.open = Some(OpenSegment {
                    writer: BufWriter::new(file),
                    path,
                    states: 0,
                });
            }
            let open = fr.open.as_mut().expect("open segment just ensured");
            let len = u32::try_from(bytes.len()).expect("encoded state fits u32");
            open.writer
                .write_all(&len.to_le_bytes())
                .map_err(io_err("write frontier segment"))?;
            open.writer
                .write_all(&digest.to_le_bytes())
                .map_err(io_err("write frontier segment"))?;
            open.writer
                .write_all(&bytes)
                .map_err(io_err("write frontier segment"))?;
            open.states += 1;
            if open.states >= target {
                let open = fr.open.take().expect("open segment present");
                fr.segments.push(seal(open)?);
            }
        }
        self.spilled.fetch_add(frames.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Read back one spilled segment (the newest), decoding its frames
    /// in order. Returns `Ok(None)` when nothing is spilled. The caller
    /// owns the returned frames (and should [`StateStore::note_enqueued`]
    /// them if they re-enter an in-memory frontier).
    pub fn unspill(&self) -> Result<Option<Vec<Frame>>, StoreError> {
        let seg = {
            let mut fr = self.frontier.lock().expect("frontier spill poisoned");
            match fr.segments.pop() {
                Some(seg) => seg,
                None => match fr.open.take() {
                    Some(open) => seal(open)?,
                    None => return Ok(None),
                },
            }
        };
        let file = File::open(&seg.path).map_err(io_err("open frontier segment"))?;
        // A record is `[u32 n][u64 digest][n frame bytes]`. The prefix
        // goes through the bounded reader with the bytes the file still
        // holds as its bound, so a corrupt one is an error, never an
        // allocation.
        let mut left = file
            .metadata()
            .map_err(io_err("open frontier segment"))?
            .len();
        let mut reader = BufReader::new(file);
        let mut read_record = || -> io::Result<Vec<u8>> {
            let room = left.checked_sub(12).ok_or(io::ErrorKind::UnexpectedEof)?;
            let bound = usize::try_from(room).unwrap_or(usize::MAX);
            let n = framed::read_len(&mut reader, bound, |_| false)?
                .ok_or(io::ErrorKind::UnexpectedEof)?;
            left = room - n as u64;
            let mut record = vec![0u8; 8 + n];
            reader.read_exact(&mut record)?;
            Ok(record)
        };
        let mut out = Vec::with_capacity(seg.states);
        for _ in 0..seg.states {
            let record = read_record().map_err(io_err("read frontier segment"))?;
            let frame =
                decode_frame(self.ctx(), &record[8..]).map_err(|source| StoreError::Corrupt {
                    op: "decode spilled frame",
                    source,
                })?;
            // Seed the compute-once cache with the digest recorded at
            // spill time (decode resolves shared structure back to the
            // program cache, so the structural digest is unchanged).
            let digest = u64::from_le_bytes(record[..8].try_into().expect("8 bytes"));
            frame.state.digest.seed(digest);
            out.push(frame);
        }
        let _ = fs::remove_file(&seg.path);
        Ok(Some(out))
    }

    /// Whether any frontier states are currently on disk.
    #[must_use]
    pub fn has_spilled_frontier(&self) -> bool {
        let fr = self.frontier.lock().expect("frontier spill poisoned");
        !fr.segments.is_empty() || fr.open.as_ref().is_some_and(|o| o.states > 0)
    }

    // ---- temp-file lifecycle -------------------------------------------

    /// A fresh file path in the (lazily created) spill directory.
    fn fresh_path(&self, kind: &str) -> Result<PathBuf, StoreError> {
        let mut dir = self.dir.lock().expect("spill dir poisoned");
        if dir.is_none() {
            *dir =
                Some(create_unique_temp_dir("ppcmem-spill").map_err(io_err("create spill dir"))?);
        }
        let dir = dir.as_ref().expect("spill dir just ensured");
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        Ok(dir.join(format!("{kind}-{n}.bin")))
    }
}

// ---- reduced-mode admission ---------------------------------------------

/// Admit a frame into the reduced search against the sleep table of its
/// digest's shard. Returns `None` to prune, or `Some(wake)` — the
/// wake-up restriction for the visit:
///
/// - first arrival: admitted unrestricted (`wake` empty — every
///   non-slept transition is expanded) and the sleep set is stored;
/// - re-arrival whose sleep set covers the stored one: pruned — the
///   earlier visit already expanded at least as much;
/// - re-arrival whose sleep set *misses* some stored members: those
///   members (`stored \ sleep`) were slept on every earlier visit but
///   must be explored under this arrival's pruning argument — the visit
///   is admitted restricted to exactly them (everything else was
///   expanded before), and the stored set shrinks to the intersection.
///   The shrink is strict, so each state re-explores at most
///   `|enabled|` times — termination.
fn reduced_admit(
    table: &mut SleepTable,
    digest: u64,
    sleep: &[Transition],
) -> Option<Vec<Transition>> {
    debug_assert!(sleep.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
    match table.entry(digest) {
        hash_map::Entry::Vacant(v) => {
            v.insert(sleep.into());
            Some(Vec::new())
        }
        hash_map::Entry::Occupied(mut o) => {
            let wake = sorted_diff(o.get(), sleep);
            if wake.is_empty() {
                return None;
            }
            o.insert(sorted_intersect(sleep, o.get()).into_boxed_slice());
            Some(wake)
        }
    }
}

/// The elements of sorted `a` not in sorted `b`, sorted.
fn sorted_diff(a: &[Transition], b: &[Transition]) -> Vec<Transition> {
    let mut out = Vec::new();
    let mut j = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j >= b.len() || b[j] != *x {
            out.push(*x);
        }
    }
    out
}

/// The intersection of two sorted transition slices, sorted.
fn sorted_intersect(a: &[Transition], b: &[Transition]) -> Vec<Transition> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

// ---- frame record codec ------------------------------------------------

/// One frontier-frame record's payload: the frame metadata (switch
/// count, actor tag, sleep/wake sets) followed by the canonical state
/// bytes. This is both the spill-segment record format and, with a
/// digest prefix, the distributed wire/checkpoint format
/// ([`crate::distrib`]) — one encoding, everywhere a frame leaves the
/// process.
pub(crate) fn encode_frame(ctx: &CodecCtx, f: &Frame) -> Vec<u8> {
    let mut w = Writer::with_capacity(ctx.record_hint());
    w.u64v(u64::from(f.switches));
    match f.last_actor {
        Actor::None => w.byte(0),
        Actor::Storage => w.byte(1),
        Actor::Thread(tid) => {
            w.byte(2);
            w.usizev(tid);
        }
    }
    encode_transition_set(&mut w, &f.sleep);
    encode_transition_set(&mut w, &f.wake);
    ctx.encode_into(&mut w, &f.state);
    w.into_bytes()
}

/// The metadata prefix of a frame record: everything [`encode_frame`]
/// writes ahead of the canonical state bytes. It is all an admission
/// decision needs beside the digest, so a receiver
/// ([`crate::distrib`]'s worker) parses this much, asks its visited set,
/// and decodes the state — the expensive part — only for a frame that
/// will be expanded.
pub(crate) struct FrameMeta {
    pub(crate) sleep: Vec<Transition>,
    pub(crate) wake: Vec<Transition>,
    last_actor: Actor,
    switches: u32,
}

impl FrameMeta {
    /// The frame this prefix and its decoded state make.
    pub(crate) fn into_frame(self, state: SystemState) -> Frame {
        Frame {
            state,
            sleep: self.sleep,
            wake: self.wake,
            last_actor: self.last_actor,
            switches: self.switches,
        }
    }
}

/// Parse a frame record's metadata prefix; the second half of the pair
/// is the canonical state bytes that follow it, undecoded. A sleep or
/// wake set that is not strictly increasing is refused as corrupt.
pub(crate) fn decode_frame_meta(bytes: &[u8]) -> Result<(FrameMeta, &[u8]), DecodeError> {
    let mut r = Reader::new(bytes);
    let switches =
        u32::try_from(r.u64v()?).map_err(|_| DecodeError::Invalid("switch count range"))?;
    let last_actor = match r.byte()? {
        0 => Actor::None,
        1 => Actor::Storage,
        2 => Actor::Thread(r.usizev()?),
        tag => return Err(DecodeError::BadTag { what: "Actor", tag }),
    };
    let meta = FrameMeta {
        sleep: decode_transition_set(&mut r)?,
        wake: decode_transition_set(&mut r)?,
        last_actor,
        switches,
    };
    Ok((meta, r.bytes(r.remaining())?))
}

/// Inverse of [`encode_frame`]. The decoded state's digest cache is
/// *not* seeded here — callers carrying a recorded digest seed it
/// themselves.
pub(crate) fn decode_frame(ctx: &CodecCtx, bytes: &[u8]) -> Result<Frame, DecodeError> {
    let (meta, state) = decode_frame_meta(bytes)?;
    Ok(meta.into_frame(ctx.decode(state)?))
}

/// Finalize an open segment: flush and convert to a readable [`Segment`].
fn seal(open: OpenSegment) -> Result<Segment, StoreError> {
    let OpenSegment {
        path,
        mut writer,
        states,
    } = open;
    writer.flush().map_err(io_err("flush frontier segment"))?;
    drop(writer);
    Ok(Segment { path, states })
}

impl Drop for StateStore {
    fn drop(&mut self) {
        // Cold runs delete their own files; remove any remaining
        // segments and the directory itself (best effort). Locks may be
        // poisoned if a worker panicked mid-exploration — cleanup must
        // still run then (the data is being discarded either way), so
        // recover the guard from the poison instead of skipping.
        let mut fr = self
            .frontier
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(open) = fr.open.take() {
            let _ = fs::remove_file(&open.path);
        }
        for seg in fr.segments.drain(..) {
            let _ = fs::remove_file(&seg.path);
        }
        drop(fr);
        // Drop shards' cold runs before removing the directory.
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .cold = None;
        }
        let dir = self
            .dir
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(d) = dir.as_ref() {
            let _ = fs::remove_dir_all(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Frame;
    use crate::tests::sys;
    use crate::thread::ThreadTransition;

    /// A worker panicking mid-exploration poisons the store's locks;
    /// [`Drop`] must still delete every segment file and the spill
    /// directory itself. The regression was an `expect()` on the
    /// poisoned guards that aborted cleanup, leaking a
    /// `ppcmem-spill-*` temp directory on every panicked run.
    #[test]
    fn drop_cleans_spill_dir_after_worker_panic() {
        let params = ModelParams {
            max_resident_states: 2,
            ..ModelParams::default()
        };
        let state = sys(&[(&["li r1,1"], &[])], &[], params.clone());
        let store = Arc::new(StateStore::new(state.program.clone(), &params, 2));
        store
            .spill_batch(&[Frame::root(state)])
            .expect("spill to a healthy store");
        let dir = store
            .dir
            .lock()
            .unwrap()
            .clone()
            .expect("spilling created the temp dir");
        assert!(dir.exists(), "segment written ⇒ directory on disk");

        // Poison every lock the destructor takes, the way a panicking
        // worker would: grab them on another thread and panic while
        // holding them. (The panic output below is expected.)
        let s = Arc::clone(&store);
        let worker = std::thread::spawn(move || {
            let _frontier = s.frontier.lock().unwrap();
            let _dir = s.dir.lock().unwrap();
            let _shard = s.shards[0].lock().unwrap();
            panic!("simulated worker panic");
        });
        assert!(worker.join().is_err(), "worker must have panicked");
        assert!(store.frontier.lock().is_err(), "frontier lock poisoned");
        assert!(store.dir.lock().is_err(), "dir lock poisoned");

        drop(store);
        assert!(
            !dir.exists(),
            "a poisoned drop must still remove the spill directory"
        );
    }

    /// A truncated segment file (short read mid-record) must surface as
    /// a [`StoreError`], not a panic: the engines turn it into a
    /// truncated (inconclusive) result. Regression for the
    /// `expect("read frontier segment")` aborts.
    #[test]
    fn truncated_segment_is_an_error_not_a_panic() {
        let params = ModelParams {
            max_resident_states: 2,
            ..ModelParams::default()
        };
        let state = sys(&[(&["li r1,1"], &[])], &[], params.clone());
        let store = StateStore::new(state.program.clone(), &params, 1);
        // Segment target under budget 2 is max(1,16)=16 states, so 17
        // spills seal one segment to disk (plus one record still open).
        let frames: Vec<Frame> = (0..17).map(|_| Frame::root(state.clone())).collect();
        store.spill_batch(&frames).expect("healthy spill");
        let sealed = {
            let fr = store.frontier.lock().unwrap();
            assert_eq!(fr.segments.len(), 1, "one sealed segment expected");
            fr.segments[0].path.clone()
        };
        // Chop the sealed segment mid-record, as a crashed writer or a
        // full disk would leave it.
        let len = fs::metadata(&sealed).expect("segment metadata").len();
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&sealed)
            .expect("reopen segment");
        f.set_len(len / 2).expect("truncate segment");
        drop(f);
        // Readback drains sealed segments first, so the truncated one
        // is hit immediately.
        let err = store
            .unspill()
            .expect_err("truncated segment must surface an error");
        assert!(
            matches!(err, StoreError::Io { .. } | StoreError::Corrupt { .. }),
            "unexpected error shape: {err:?}"
        );
    }

    /// Corrupted record *bytes* (full-length read, garbage content) must
    /// surface as [`StoreError::Corrupt`]; a corrupted 12-byte record
    /// *prefix* must surface as an error too — and a scrambled length
    /// is refused against the bytes the file actually holds, before
    /// anything is allocated for it.
    #[test]
    fn corrupt_segment_bytes_are_an_error_not_a_panic() {
        let params = ModelParams {
            max_resident_states: 2,
            ..ModelParams::default()
        };
        let state = sys(&[(&["li r1,1"], &[])], &[], params.clone());
        let unspill_after = |corrupt: &dyn Fn(&mut [u8])| -> StoreError {
            let store = StateStore::new(state.program.clone(), &params, 1);
            let frames: Vec<Frame> = (0..16).map(|_| Frame::root(state.clone())).collect();
            store.spill_batch(&frames).expect("healthy spill");
            let sealed = store.frontier.lock().unwrap().segments[0].path.clone();
            let mut bytes = fs::read(&sealed).expect("read segment");
            corrupt(&mut bytes);
            fs::write(&sealed, &bytes).expect("write corrupt segment");
            store
                .unspill()
                .expect_err("corrupt segment must surface an error")
        };
        // Scramble the record payload (skip the 4-byte length and 8-byte
        // digest prefix so the framing still parses).
        let err = unspill_after(&|bytes| bytes.iter_mut().skip(12).for_each(|b| *b = !*b));
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "expected Corrupt, got: {err:?}"
        );
        // Scramble the prefix: the length now reads just under 4 GiB.
        let err = unspill_after(&|bytes| bytes[..12].iter_mut().for_each(|b| *b = !*b));
        assert!(
            matches!(&err, StoreError::Io { source, .. }
                if source.kind() == io::ErrorKind::InvalidData),
            "an oversized length must be refused up front, got: {err:?}"
        );
    }

    /// Pid recycling can hand a new run the same `ppcmem-spill-{pid}-{n}`
    /// name as a stale directory left by a SIGKILLed process. The store
    /// must never *join* such a directory (its segment files belong to a
    /// different exploration): creation is `create_dir` fail-if-exists
    /// with a retried suffix, so the stale dir and its contents are left
    /// untouched.
    #[test]
    fn stale_spill_dir_with_same_name_is_never_joined() {
        let params = ModelParams {
            max_resident_states: 2,
            ..ModelParams::default()
        };
        let state = sys(&[(&["li r1,1"], &[])], &[], params.clone());
        let store = StateStore::new(state.program.clone(), &params, 1);
        // Pre-create the next candidate name with a stale segment in it,
        // as a SIGKILLed previous run (same recycled pid) would leave.
        // Another store spilling concurrently may consume this sequence
        // number first — the assertions below hold either way.
        let next = SPILL_DIR_SEQ.load(Ordering::Relaxed);
        let stale =
            std::env::temp_dir().join(format!("ppcmem-spill-{}-{}", std::process::id(), next));
        fs::create_dir_all(&stale).expect("create stale dir");
        let stale_seg = stale.join("seg-0.bin");
        fs::write(&stale_seg, b"stale segment from a dead run").expect("write stale file");

        store
            .spill_batch(&[Frame::root(state)])
            .expect("spill with a colliding candidate name");
        let dir = store
            .dir
            .lock()
            .unwrap()
            .clone()
            .expect("spill created a dir");
        assert_ne!(dir, stale, "store must not join the stale directory");
        assert!(
            stale_seg.exists(),
            "stale run's files must be left untouched"
        );
        let stale_bytes = fs::read(&stale_seg).expect("stale file readable");
        assert_eq!(&stale_bytes, b"stale segment from a dead run");
        drop(store);
        assert!(stale.exists(), "drop must not delete the stale directory");
        let _ = fs::remove_dir_all(&stale);
    }

    /// Distinct transitions ordered by `i`, for the admission tests
    /// (admission never looks inside them).
    fn t(i: usize) -> Transition {
        Transition::Thread(ThreadTransition::Finish { tid: 0, ioid: i })
    }

    fn reduced() -> ModelParams {
        ModelParams {
            sleep_sets: true,
            ..ModelParams::default()
        }
    }

    /// A store over a one-instruction program.
    fn store_with(params: &ModelParams) -> StateStore {
        let state = sys(&[(&["li r1,1"], &[])], &[], params.clone());
        StateStore::new(state.program.clone(), params, 1)
    }

    /// Reduced admission case by case: a first arrival is admitted
    /// unrestricted; a re-arrival whose sleep set covers the stored one
    /// is pruned; one whose sleep set misses stored members wakes
    /// exactly those (stored ∖ sleep) and shrinks the stored set to the
    /// intersection.
    #[test]
    fn sleep_sets_admit_prunes_covered_and_wakes_the_difference() {
        let store = store_with(&reduced());
        let d = 0xABCD;
        let admit = |sleep: &[Transition]| store.admit(d, sleep).expect("in memory");
        assert_eq!(admit(&[t(1), t(2), t(3)]), Some(vec![]), "first arrival");
        assert_eq!(admit(&[t(1), t(2), t(3)]), None, "the same set is covered");
        assert_eq!(
            admit(&[t(0), t(1), t(2), t(3), t(4)]),
            None,
            "so is a superset"
        );
        assert_eq!(
            admit(&[t(0), t(2)]),
            Some(vec![t(1), t(3)]),
            "stored ∖ sleep"
        );
        let stored = VisitedEntry {
            digest: d,
            sleep: vec![t(2)],
        };
        assert_eq!(
            store.visited_entries().expect("in memory"),
            [stored],
            "shrunk to the intersection"
        );
        assert_eq!(admit(&[t(2)]), None);
        assert_eq!(admit(&[]), Some(vec![t(2)]));
        assert_eq!(admit(&[t(2)]), None, "nothing is left asleep");
        assert_eq!(
            store.admit(d + 1, &[t(5)]).expect("in memory"),
            Some(vec![]),
            "another digest is a first arrival"
        );
    }

    /// A dump reseeds an equal visited set: `visited_entries` → `seed`
    /// in both modes, including an unreduced shard whose digests have
    /// gone to a cold run.
    #[test]
    fn visited_entries_seed_round_trip_in_both_modes() {
        // Unreduced under a resident budget: 200 digests that all land
        // in shard 0 outgrow its 64-digest hot allowance three times.
        let params = ModelParams {
            max_resident_states: 1,
            ..ModelParams::default()
        };
        let store = store_with(&params);
        let digests: Vec<u64> = (1..=200u64).map(|i| i << 8).collect();
        for &d in &digests {
            let admitted = store.admit(d, &[t(9)]).expect("healthy store");
            assert_eq!(admitted, Some(vec![]), "unreduced ignores the sleep set");
        }
        assert!(store.shards[0].lock().unwrap().cold.is_some(), "flushed");
        let entries = store.visited_entries().expect("healthy store");
        let listed: Vec<u64> = entries.iter().map(|e| e.digest).collect();
        assert_eq!(listed, digests, "hot ∪ cold, sorted");
        assert!(entries.iter().all(|e| e.sleep.is_empty()), "digests only");
        let again = store_with(&params);
        for e in entries.clone() {
            again.seed(e).expect("healthy store");
        }
        assert_eq!(again.visited_entries().expect("healthy store"), entries);
        for &d in &digests {
            assert_eq!(again.admit(d, &[]).expect("healthy store"), None);
        }

        // Reduced: each sleep set travels with its digest.
        let store = store_with(&reduced());
        for (d, sleep) in [(7, vec![t(1), t(2)]), (3, vec![]), (5, vec![t(0)])] {
            assert_eq!(store.admit(d, &sleep).expect("in memory"), Some(vec![]));
        }
        let entries = store.visited_entries().expect("in memory");
        let listed: Vec<u64> = entries.iter().map(|e| e.digest).collect();
        assert_eq!(listed, [3, 5, 7]);
        assert_eq!(entries[2].sleep, [t(1), t(2)]);
        let again = store_with(&reduced());
        for e in entries.clone() {
            again.seed(e).expect("in memory");
        }
        assert_eq!(again.visited_entries().expect("in memory"), entries);
        assert_eq!(again.admit(7, &[t(1), t(2)]).expect("in memory"), None);
        assert_eq!(
            again.admit(7, &[t(1)]).expect("in memory"),
            Some(vec![t(2)]),
            "a seeded sleep set still wakes"
        );
    }

    /// A spilled record whose sleep or wake set is not strictly
    /// increasing is corrupt: reduced admission would intersect it
    /// wrongly and silently shrink the state space, so readback refuses
    /// it. The same record with sorted sets reads back.
    #[test]
    fn sleep_sets_unsorted_spilled_record_is_corrupt() {
        let params = ModelParams {
            max_resident_states: 2,
            ..reduced()
        };
        let state = sys(&[(&["li r1,1"], &[])], &[], params.clone());
        let spill_and_unspill = |sleep: Vec<Transition>, wake: Vec<Transition>| {
            let store = StateStore::new(state.program.clone(), &params, 1);
            let frame = Frame {
                sleep,
                wake,
                ..Frame::root(state.clone())
            };
            store.spill_batch(&[frame]).expect("healthy spill");
            store
                .unspill()
                .map(|frames| frames.expect("one spilled segment"))
        };
        let garbled = [
            (vec![t(2), t(1)], vec![]),
            (vec![t(1), t(1)], vec![]),
            (vec![], vec![t(3), t(0)]),
        ];
        for (sleep, wake) in garbled {
            let err = spill_and_unspill(sleep, wake).expect_err("unsorted set decoded");
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
        }
        let back = spill_and_unspill(vec![t(1), t(2)], vec![t(0)]).expect("sorted sets decode");
        assert_eq!(back[0].sleep, [t(1), t(2)]);
        assert_eq!(back[0].wake, [t(0)]);
    }
}
