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
//! - **Visited set**: one mutexed shard per low-digest-bits bucket, so
//!   the workers of a pool rarely meet on a lock. Each shard holds a *hot*
//!   `HashSet` plus at most one *cold run* — a [`SortedRun`] of 8-byte
//!   digests, so a cold membership probe costs one 4 KiB positioned read.
//!   When the hot set outgrows its budget the shard streams hot ∪ cold
//!   into a fresh sorted run (LSM-style, merge deferred until the hot
//!   set is at least a quarter of the run, so total write amplification
//!   stays logarithmic). Membership stays *exact* — a false "new" would
//!   change visited-state counts, a false "seen" would drop states.
//!   [`StateStore::insert_visited`] is every engine's one admission,
//!   reduced or not.
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
//! Temp files live in a per-exploration directory under the system temp
//! dir, created lazily on first spill and removed when the store drops;
//! consumed segments are deleted as soon as they are read back. The
//! directory itself is created with `create_dir` (fail-if-exists) and a
//! retried process-local suffix, so a stale same-named directory left by
//! a SIGKILLed run after pid recycling is never joined (its segment
//! files would otherwise be read back as frontier states of a different
//! exploration).

use crate::oracle::{Actor, Frame};
use crate::state_codec::{CodecCtx, MemoStats};
use crate::system::Program;
use crate::types::ModelParams;
use ppc_bits::{framed, DecodeError, Reader, SortedRun, Writer};
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Minimum hot digests per shard before any flush is considered, even
/// under tiny budgets (digests are ~100× smaller than states, so the
/// visited set deserves a proportionally larger resident allowance).
const MIN_HOT: usize = 64;

/// The fewest states a frontier segment file targets.
const MIN_SEGMENT: usize = 16;

/// Target states per frontier segment file under a per-frontier budget
/// `b` (`max(b/2, 16)`): half a budget's worth, so a readback refills
/// the frontier without immediately re-crossing the threshold.
fn segment_target(budget: usize) -> usize {
    (budget / 2).max(MIN_SEGMENT)
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

/// One shard of the visited set: exact membership over a hot in-memory
/// set plus at most one cold sorted run on disk.
struct VisitedShard {
    hot: HashSet<u64>,
    cold: Option<ColdRun>,
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
    /// Resident-state budget of each frontier over this store: the
    /// exploration's budget split evenly between its `threads` frontiers
    /// (`0` = unlimited, never spill).
    budget: usize,
    /// Hot-digest budget per visited shard before a flush is considered.
    hot_budget: usize,
    shards: Vec<Mutex<VisitedShard>>,
    mask: u64,
    frontier: Mutex<FrontierSpill>,
    /// Decoded frontier states currently resident in memory (every
    /// stack, and frames donated between them), maintained via
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
    /// A store for one exploration: `threads` (the pool size) sizes the
    /// visited-set sharding, and the resident budget comes from
    /// `params.max_resident_states`.
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
            // Each frontier's share, but never less than one segment (or
            // the whole budget, if smaller): a share smaller than what
            // one readback brings in would spill that readback again.
            budget: (budget / threads.max(1)).max(budget.min(MIN_SEGMENT)),
            hot_budget,
            shards: (0..n)
                .map(|_| {
                    Mutex::new(VisitedShard {
                        hot: HashSet::new(),
                        cold: None,
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

    /// The resident-state budget of each frontier (`0` = unlimited).
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

    /// Every digest of the visited set — hot ∪ cold — sorted. This is
    /// the checkpoint/dump view of the visited set (a resume puts each
    /// digest back with [`StateStore::insert_visited`]); the
    /// exploration must be quiescent while it runs.
    pub fn visited_digests(&self) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut s = shard.lock().expect("visited shard poisoned");
            out.extend(s.hot.iter().copied());
            if let Some(cold) = &mut s.cold {
                cold.run
                    .for_each(|digest| {
                        out.push(u64::from_le_bytes(*digest));
                        Ok(())
                    })
                    .map_err(io_err("read visited run"))?;
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Insert a digest into the visited set; `Ok(true)` iff it was new.
    /// Exact regardless of spilling: the hot set and the cold run are
    /// both consulted before inserting. This is every engine's one
    /// admission; needing no decoded state, it is also what a
    /// distributed worker asks *before* it decodes a received frame.
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
    /// search metadata (context-switch count, last actor — additive
    /// fields ahead of the state bytes; the canonical state
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

// ---- frame record codec ------------------------------------------------

/// One frontier-frame record's payload: the frame metadata (switch
/// count, actor tag, two retired set slots) followed by the canonical
/// state bytes. This is both the spill-segment record format and, with a
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
    // The two retired slots (see `decode_retired_set`).
    w.usizev(0);
    w.usizev(0);
    ctx.encode_into(&mut w, &f.state);
    w.into_bytes()
}

/// A retired transition-set slot: the frame records and visited entries
/// of the removed sleep-set reduction carried transition sets here.
/// Writers put a literal empty count in each slot, so every record keeps
/// its byte layout; a non-empty count is refused as corrupt.
pub(crate) fn decode_retired_set(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    match r.usizev()? {
        0 => Ok(()),
        _ => Err(DecodeError::Invalid("retired transition set not empty")),
    }
}

/// Inverse of [`encode_frame`]. The decoded state's digest cache is
/// *not* seeded here — callers carrying a recorded digest seed it
/// themselves.
pub(crate) fn decode_frame(ctx: &CodecCtx, bytes: &[u8]) -> Result<Frame, DecodeError> {
    let mut r = Reader::new(bytes);
    let switches =
        u32::try_from(r.u64v()?).map_err(|_| DecodeError::Invalid("switch count range"))?;
    let last_actor = match r.byte()? {
        0 => Actor::None,
        1 => Actor::Storage,
        2 => Actor::Thread(r.usizev()?),
        tag => return Err(DecodeError::BadTag { what: "Actor", tag }),
    };
    decode_retired_set(&mut r)?;
    decode_retired_set(&mut r)?;
    Ok(Frame {
        state: ctx.decode(r.bytes(r.remaining())?)?,
        last_actor,
        switches,
    })
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
    use crate::state_codec::encode_transition;
    use crate::system::Transition;
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

    /// A store over a one-instruction program.
    fn store_with(params: &ModelParams) -> StateStore {
        let state = sys(&[(&["li r1,1"], &[])], &[], params.clone());
        StateStore::new(state.program.clone(), params, 1)
    }

    /// A dump reseeds an equal visited set: `visited_digests` → one
    /// `insert_visited` each, including a shard whose digests have gone
    /// to a cold run. A reduced store keeps digests only, like any other.
    #[test]
    fn visited_entries_seed_round_trip_in_both_modes() {
        for reduced in [false, true] {
            // Under a resident budget: 200 digests that all land in
            // shard 0 outgrow its 64-digest hot allowance three times.
            let params = ModelParams {
                max_resident_states: 1,
                reduced,
                ..ModelParams::default()
            };
            let store = store_with(&params);
            let digests: Vec<u64> = (1..=200u64).map(|i| i << 8).collect();
            for &d in &digests {
                assert!(store.insert_visited(d).expect("healthy store"), "new");
            }
            assert!(store.shards[0].lock().unwrap().cold.is_some(), "flushed");
            let dump = store.visited_digests().expect("healthy store");
            assert_eq!(dump, digests, "hot ∪ cold, sorted");
            let again = store_with(&params);
            for &d in &dump {
                assert!(again.insert_visited(d).expect("healthy store"));
            }
            assert_eq!(again.visited_digests().expect("healthy store"), dump);
            for &d in &digests {
                assert!(!again.insert_visited(d).expect("healthy store"));
            }
        }
    }

    /// A spilled record whose retired set slot holds a non-empty set is
    /// corrupt: `unspill` refuses it. The same record with the literal
    /// empty count `encode_frame` writes reads back.
    #[test]
    fn retired_set_spilled_record_is_corrupt() {
        let params = ModelParams {
            max_resident_states: 2,
            reduced: true,
            ..ModelParams::default()
        };
        let state = sys(&[(&["li r1,1"], &[])], &[], params.clone());
        let finish = Transition::Thread(ThreadTransition::Finish { tid: 0, ioid: 0 });
        for slot in [None, Some(0), Some(1)] {
            let store = StateStore::new(state.program.clone(), &params, 1);
            store
                .spill_batch(&[Frame::root(state.clone())])
                .expect("healthy spill");
            if let Some(slot) = slot {
                // `[u32 len][u64 digest]`, then a root frame's metadata:
                // switch count 0, actor tag 0 and the two empty slots.
                let path = store.frontier.lock().unwrap().open.as_mut().map(|o| {
                    o.writer.flush().expect("flush segment");
                    o.path.clone()
                });
                let path = path.expect("one open segment");
                let bytes = fs::read(&path).expect("read segment");
                assert_eq!(bytes[12..16], [0, 0, 0, 0], "a root record's metadata");
                let mut body = Writer::new();
                body.bytes(&bytes[12..14 + slot]);
                body.usizev(1);
                encode_transition(&mut body, &finish);
                body.bytes(&bytes[15 + slot..]);
                let body = body.into_bytes();
                let len = u32::try_from(body.len()).expect("small record");
                let mut out = len.to_le_bytes().to_vec();
                out.extend_from_slice(&bytes[4..12]);
                out.extend_from_slice(&body);
                fs::write(&path, out).expect("write segment");
            }
            let back = store.unspill();
            match slot {
                None => {
                    let frames = back.expect("healthy segment").expect("one segment");
                    assert_eq!(frames[0].state, state, "an empty slot reads back");
                }
                Some(_) => {
                    let err = back.expect_err("a non-empty retired set decoded");
                    assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
                }
            }
        }
    }
}
