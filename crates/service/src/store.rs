//! The persistent content-addressed result store: an append-only
//! checksummed record log plus a two-tier index over it — a hot map of
//! the unindexed tail and a cold [`SortedRun`] of `(digest, log offset)`
//! pairs (one positioned block read per cold probe), the structure the
//! exploration store's visited set keeps its digests in.
//!
//! # Layout (`--cache DIR`)
//!
//! - `oracle.v1.log` — the record log. Each record is
//!   `[u32 len][u64 key-digest][u32 checksum][body]` (all
//!   little-endian), `body = [u32 key-len][key bytes][record bytes]`,
//!   `checksum` = FNV-1a 32 over the body, `len` = body length. A
//!   record is appended with a single `write_all` + flush; records are
//!   never rewritten or moved, so the only torn state a crash can leave
//!   is a torn *tail*, which reload truncates away.
//! - `oracle.v1.idx` — a sorted run of `(digest, log-offset)` pairs
//!   with a small header recording how much of the log it covers.
//!   Rebuilt by streaming hot ∪ cold into `oracle.v1.idx.tmp` and
//!   atomically renaming over the old index (crash mid-rebuild leaves
//!   the previous index intact; crash mid-rename is atomic on POSIX).
//!   A missing, stale, or corrupt index is never trusted — reload falls
//!   back to scanning the log, so the index is purely an accelerator.
//!
//! # Integrity (satellite: never serve a torn record)
//!
//! Every probe re-verifies the record it is about to serve: length
//! framing, checksum over the body, and a byte-for-byte comparison of
//! the stored key against the probe key (so a 64-bit digest collision
//! degrades to a miss, not a wrong answer). Any failure — short read,
//! bad checksum, key mismatch, invalid UTF-8 — makes the probe a
//! *miss* (reported as [`Probe::Corrupt`] so the caller can count it);
//! the caller then re-explores and appends a fresh record, whose newer
//! log offset shadows the corrupt one on every future probe. Nothing
//! in this module panics on disk content.

use crate::query::QueryKey;
use ppc_bits::SortedRun;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Record-log file name (the `v1` is [`crate::REPORT_VERSION`]-aligned:
/// a record-schema break gets a new file, never a reinterpretation).
pub const LOG_NAME: &str = "oracle.v1.log";
/// Index file name.
pub const IDX_NAME: &str = "oracle.v1.idx";

/// Index-file magic.
const IDX_MAGIC: &[u8; 4] = b"PPCX";
/// Index-file format version.
const IDX_VERSION: u32 = 1;
/// Index-file header bytes ahead of the run: magic, version, log bytes
/// covered, pair count.
const IDX_HEADER: u64 = 24;
/// Hot-map entries before the index is rebuilt. Few hundred suites fit
/// in memory trivially; the rebuild exists so a long-lived server's
/// reload cost stays proportional to the unindexed tail, not the log.
const DEFAULT_HOT_LIMIT: usize = 4096;
/// Upper bound on a single record body (key + JSONL line): anything
/// larger in a length prefix is framing corruption, not data.
const MAX_BODY: usize = 16 << 20;

/// FNV-1a 32 (the record checksum; 32 bits is plenty for catching torn
/// writes and bit rot — the full key comparison backstops it).
#[must_use]
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The outcome of a store probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Probe {
    /// A verified record: checksum good, stored key identical.
    Hit(String),
    /// No record under this key.
    Miss,
    /// A record was located but failed verification (torn write, bit
    /// rot, digest collision, unreadable file). Treated as a miss by
    /// callers — and *overwritten* by the re-explored record they
    /// append — but surfaced distinctly so it can be counted.
    Corrupt,
}

/// The index run: `(digest, log offset)` pairs sorted by digest.
type ColdIndex = SortedRun<16>;

fn pair(digest: u64, offset: u64) -> [u8; 16] {
    let mut record = [0u8; 16];
    record[..8].copy_from_slice(&digest.to_le_bytes());
    record[8..].copy_from_slice(&offset.to_le_bytes());
    record
}

fn unpair(record: &[u8; 16]) -> (u64, u64) {
    (
        u64::from_le_bytes(record[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(record[8..].try_into().expect("8 bytes")),
    )
}

/// The persistent key → record store. Not internally synchronized —
/// the [`crate::Oracle`] wraps it in a mutex (probes are one block
/// read; the expensive work happens outside the lock).
pub struct ResultStore {
    dir: PathBuf,
    /// Read handle on the log (positioned reads).
    log_read: File,
    /// Append handle on the log.
    log_write: File,
    /// Current log length — the offset the next record lands at.
    log_len: u64,
    /// Unindexed records: digest → newest log offset.
    hot: HashMap<u64, u64>,
    cold: Option<ColdIndex>,
    hot_limit: usize,
}

impl ResultStore {
    /// Open (or create) the store in `dir`, crash-safely reloading any
    /// existing state: the index is validated and the log's unindexed
    /// tail is re-scanned, truncating a torn final record if the
    /// previous process died mid-append.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or reading the files. On-disk
    /// *content* problems are never errors here: a bad index is
    /// discarded and rebuilt from the log; a torn log tail is truncated.
    pub fn open(dir: &Path) -> io::Result<ResultStore> {
        ResultStore::open_with(dir, DEFAULT_HOT_LIMIT)
    }

    /// [`ResultStore::open`] with an explicit hot-map limit before an
    /// index rebuild (tests use tiny limits to exercise the cold path).
    ///
    /// # Errors
    ///
    /// See [`ResultStore::open`].
    pub fn open_with(dir: &Path, hot_limit: usize) -> io::Result<ResultStore> {
        fs::create_dir_all(dir)?;
        let log_path = dir.join(LOG_NAME);
        let log_write = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)?;
        let log_read = File::open(&log_path)?;
        let log_len = log_read.metadata()?.len();
        // The index says how much of the log it covers; the scan
        // picks up from there.
        let (cold, covered) = match load_index(dir, log_len) {
            Some((cold, covered)) => (Some(cold), covered),
            None => (None, 0),
        };
        let mut store = ResultStore {
            dir: dir.to_path_buf(),
            log_read,
            log_write,
            log_len,
            hot: HashMap::new(),
            cold,
            hot_limit: hot_limit.max(1),
        };
        store.scan_tail(covered)?;
        Ok(store)
    }

    /// Records currently addressable (distinct digests).
    #[must_use]
    pub fn len(&self) -> usize {
        // Hot shadows cold on duplicate digests; the count is only used
        // by tests and diagnostics, so the small overlap overcount from
        // re-put keys is acceptable there — dedup would need a cold
        // scan.
        self.hot.len() + self.cold.as_ref().map_or(0, SortedRun::len)
    }

    /// Whether the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probe for `key`'s record, fully verifying anything found (see
    /// the module docs). Never panics and never returns unverified
    /// bytes; I/O errors during the probe degrade to [`Probe::Corrupt`].
    pub fn get(&mut self, key: &QueryKey) -> Probe {
        let hot = self.hot.get(&key.digest).copied();
        let offset = match hot {
            Some(off) => Some(off),
            None => match self.cold.as_mut().map(|c| c.find(key.digest)) {
                None | Some(Ok(None)) => None,
                Some(Ok(Some(record))) => Some(unpair(&record).1),
                // An unreadable index is treated like a corrupt record:
                // the caller re-explores and the re-put eventually
                // rebuilds the index.
                Some(Err(_)) => return Probe::Corrupt,
            },
        };
        match offset {
            None => Probe::Miss,
            Some(off) => self.read_record(off, key),
        }
    }

    /// Append `line` as the record for `key` (one `write_all`, then
    /// flush, so a crash can only tear the file *tail*) and make it the
    /// newest record for the digest. Re-putting a key shadows any older
    /// (possibly corrupt) record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the in-memory maps are left
    /// unchanged (the partial tail, if any, is truncated on next open).
    pub fn put(&mut self, key: &QueryKey, line: &str) -> io::Result<()> {
        let line = line.trim_end_matches('\n');
        let mut body = Vec::with_capacity(4 + key.bytes.len() + line.len());
        body.extend_from_slice(
            &u32::try_from(key.bytes.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "key too large"))?
                .to_le_bytes(),
        );
        body.extend_from_slice(&key.bytes);
        body.extend_from_slice(line.as_bytes());
        if body.len() > MAX_BODY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record exceeds MAX_BODY",
            ));
        }
        let mut rec = Vec::with_capacity(16 + body.len());
        rec.extend_from_slice(
            &u32::try_from(body.len())
                .expect("bounded above")
                .to_le_bytes(),
        );
        rec.extend_from_slice(&key.digest.to_le_bytes());
        rec.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        rec.extend_from_slice(&body);
        let offset = self.log_len;
        self.log_write.write_all(&rec)?;
        self.log_write.flush()?;
        self.log_len += rec.len() as u64;
        self.hot.insert(key.digest, offset);
        if self.hot.len() >= self.hot_limit {
            // Index rebuild is an accelerator: a failure (disk full…)
            // leaves the hot map in place and the store fully correct.
            let _ = self.rebuild_index();
        }
        Ok(())
    }

    /// Read and verify the record at `offset` against `key`.
    fn read_record(&mut self, offset: u64, key: &QueryKey) -> Probe {
        let mut header = [0u8; 16];
        if self.log_read.seek(SeekFrom::Start(offset)).is_err()
            || self.log_read.read_exact(&mut header).is_err()
        {
            return Probe::Corrupt;
        }
        let body_len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let digest = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let checksum = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        if digest != key.digest || !(4..=MAX_BODY).contains(&body_len) {
            return Probe::Corrupt;
        }
        let mut body = vec![0u8; body_len];
        if self.log_read.read_exact(&mut body).is_err() {
            return Probe::Corrupt;
        }
        if fnv1a32(&body) != checksum {
            return Probe::Corrupt;
        }
        let key_len = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
        if 4 + key_len > body.len() {
            return Probe::Corrupt;
        }
        if body[4..4 + key_len] != key.bytes[..] {
            // Digest collision (or a foreign key after corruption that
            // still checksummed — impossible, but the comparison is
            // what makes it impossible to *serve*): not our record.
            return Probe::Corrupt;
        }
        match String::from_utf8(body[4 + key_len..].to_vec()) {
            Ok(line) => Probe::Hit(line),
            Err(_) => Probe::Corrupt,
        }
    }

    /// Scan the log from `start` (the index's coverage point), filling
    /// the hot map and truncating a torn tail.
    fn scan_tail(&mut self, start: u64) -> io::Result<()> {
        let mut pos = start;
        self.log_read.seek(SeekFrom::Start(pos))?;
        let mut reader = io::BufReader::new(&self.log_read);
        let mut header = [0u8; 16];
        loop {
            if pos + 16 > self.log_len {
                break;
            }
            if reader.read_exact(&mut header).is_err() {
                break;
            }
            let body_len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as u64;
            let digest = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
            if body_len < 4 || body_len > MAX_BODY as u64 || pos + 16 + body_len > self.log_len {
                // Torn or misframed tail: everything from here on is
                // untrustworthy (the length prefix is gone), so the log
                // is truncated to the last whole record. Verification
                // at probe time protects against in-place corruption
                // that keeps framing intact.
                break;
            }
            // Skip the body without deserializing (probe verifies).
            io::copy(&mut reader.by_ref().take(body_len), &mut io::sink())?;
            self.hot.insert(digest, pos);
            pos += 16 + body_len;
        }
        if pos < self.log_len {
            drop(reader);
            self.log_write.flush()?;
            // Reopen write handle after set_len: append-mode offsets
            // track the file end, so truncation via a separate handle
            // is safe, but do it explicitly for clarity.
            let f = OpenOptions::new()
                .write(true)
                .open(self.dir.join(LOG_NAME))?;
            f.set_len(pos)?;
            self.log_len = pos;
        }
        Ok(())
    }

    /// Merge hot ∪ cold into a fresh sorted run, written to a temp file
    /// and atomically renamed over the index (the log is untouched —
    /// the index never owns data).
    fn rebuild_index(&mut self) -> io::Result<()> {
        let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(self.len());
        if let Some(cold) = self.cold.as_mut() {
            cold.for_each(|record| {
                pairs.push(unpair(record));
                Ok(())
            })?;
        }
        pairs.extend(self.hot.iter().map(|(&d, &o)| (d, o)));
        // Newest offset wins on duplicate digests: sort by (digest,
        // offset) and keep the last of each digest group.
        pairs.sort_unstable();
        pairs.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 = next.1.max(prev.1);
                true
            } else {
                false
            }
        });

        let tmp = self.dir.join(format!("{IDX_NAME}.tmp"));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let header = [
            IDX_MAGIC.as_slice(),
            &IDX_VERSION.to_le_bytes(),
            &self.log_len.to_le_bytes(),
            &(pairs.len() as u64).to_le_bytes(),
        ];
        file.write_all(&header.concat())?;
        let mut run = ColdIndex::create(file, IDX_HEADER);
        for &(digest, offset) in &pairs {
            run.push(&pair(digest, offset))?;
        }
        let cold = run.finish()?;
        cold.sync_all()?;
        // The handle stays valid across the rename (same inode).
        fs::rename(&tmp, self.dir.join(IDX_NAME))?;
        self.cold = Some(cold);
        self.hot.clear();
        Ok(())
    }
}

/// Validate and load the index file, if any, returning the run and the
/// log bytes it covers. Any problem — missing file, bad magic/version,
/// size mismatch, coverage beyond the log (an index paired with the
/// wrong log), an unsorted key table — discards the index; the log is
/// the source of truth.
fn load_index(dir: &Path, log_len: u64) -> Option<(ColdIndex, u64)> {
    let path = dir.join(IDX_NAME);
    let mut file = File::open(&path).ok()?;
    let file_len = file.metadata().ok()?.len();
    let mut header = [0u8; IDX_HEADER as usize];
    file.read_exact(&mut header).ok()?;
    if &header[..4] != IDX_MAGIC {
        return None;
    }
    if u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) != IDX_VERSION {
        return None;
    }
    let covered = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let count = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if covered > log_len || file_len != IDX_HEADER + count * 16 {
        return None;
    }
    let count = usize::try_from(count).ok()?;
    // `open` refuses a run whose sparse key table is out of order.
    Some((ColdIndex::open(file, IDX_HEADER, count).ok()?, covered))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> QueryKey {
        let mut bytes = b"test-key-".to_vec();
        bytes.extend_from_slice(&tag.to_le_bytes());
        QueryKey::from_bytes(bytes)
    }

    fn tmp() -> PathBuf {
        ppc_model::store::create_unique_temp_dir("ppcmem-svc-test").expect("temp dir")
    }

    #[test]
    fn put_get_roundtrip_and_reload() {
        let dir = tmp();
        let mut s = ResultStore::open(&dir).expect("open");
        assert_eq!(s.get(&key(1)), Probe::Miss);
        s.put(&key(1), "{\"a\":1}").expect("put");
        s.put(&key(2), "{\"a\":2}").expect("put");
        assert_eq!(s.get(&key(1)), Probe::Hit("{\"a\":1}".to_owned()));
        assert_eq!(s.get(&key(2)), Probe::Hit("{\"a\":2}".to_owned()));
        drop(s);
        // Crash-safe reload: a fresh open serves the same records.
        let mut s = ResultStore::open(&dir).expect("reopen");
        assert_eq!(s.get(&key(1)), Probe::Hit("{\"a\":1}".to_owned()));
        assert_eq!(s.get(&key(2)), Probe::Hit("{\"a\":2}".to_owned()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reput_shadows_older_record() {
        let dir = tmp();
        let mut s = ResultStore::open(&dir).expect("open");
        s.put(&key(1), "old").expect("put");
        s.put(&key(1), "new").expect("put");
        assert_eq!(s.get(&key(1)), Probe::Hit("new".to_owned()));
        drop(s);
        let mut s = ResultStore::open(&dir).expect("reopen");
        assert_eq!(s.get(&key(1)), Probe::Hit("new".to_owned()));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The corruption sweep (satellite): flip every byte of the log in
    /// turn; no position may panic, serve altered bytes, or serve a
    /// record whose stored key no longer matches. After re-putting, the
    /// fresh record must be served again.
    #[test]
    fn corruption_sweep_never_serves_torn_records() {
        let dir = tmp();
        let line = "{\"name\":\"x\",\"states\":12}";
        {
            let mut s = ResultStore::open(&dir).expect("open");
            s.put(&key(7), line).expect("put");
        }
        let log = dir.join(LOG_NAME);
        let pristine = fs::read(&log).expect("read log");
        for i in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[i] ^= 0xff;
            fs::write(&log, &bytes).expect("write corrupted log");
            let mut s = ResultStore::open(&dir).expect("open survives corruption");
            match s.get(&key(7)) {
                Probe::Hit(served) => panic!(
                    "byte {i} corrupted but record served: {served:?} \
                     (a checksum or key comparison failed to fire)"
                ),
                Probe::Miss | Probe::Corrupt => {}
            }
            // Overwrite: the re-explored record must be served.
            s.put(&key(7), line).expect("re-put after corruption");
            assert_eq!(
                s.get(&key(7)),
                Probe::Hit(line.to_owned()),
                "byte {i}: re-put record not served"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash mid-append leaves a torn tail; reload must truncate it
    /// and keep every whole record.
    #[test]
    fn torn_tail_is_truncated_on_reload() {
        let dir = tmp();
        {
            let mut s = ResultStore::open(&dir).expect("open");
            s.put(&key(1), "first").expect("put");
            s.put(&key(2), "second").expect("put");
        }
        let log = dir.join(LOG_NAME);
        let len = fs::metadata(&log).expect("metadata").len();
        // Chop mid-record: inside the second record's body.
        let f = OpenOptions::new().write(true).open(&log).expect("reopen");
        f.set_len(len - 3).expect("truncate");
        drop(f);
        let mut s = ResultStore::open(&dir).expect("reload with torn tail");
        assert_eq!(s.get(&key(1)), Probe::Hit("first".to_owned()));
        assert_eq!(s.get(&key(2)), Probe::Miss, "torn record must be gone");
        // And the log is writable again from the truncation point.
        s.put(&key(2), "second again")
            .expect("append after truncation");
        assert_eq!(s.get(&key(2)), Probe::Hit("second again".to_owned()));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Exercise the cold path: a tiny hot limit forces index rebuilds;
    /// cold probes must go through the sparse index and still verify.
    #[test]
    fn cold_index_probes_and_reload() {
        let dir = tmp();
        let n = 50u64;
        {
            let mut s = ResultStore::open_with(&dir, 8).expect("open");
            for i in 0..n {
                s.put(&key(i), &format!("record-{i}")).expect("put");
            }
            // Most records are now cold (hot flushed at every 8th put).
            for i in 0..n {
                assert_eq!(
                    s.get(&key(i)),
                    Probe::Hit(format!("record-{i}")),
                    "record {i} must be retrievable through the index"
                );
            }
        }
        assert!(dir.join(IDX_NAME).exists(), "index file written");
        // Reload uses the index for the covered prefix, scans the tail.
        let mut s = ResultStore::open_with(&dir, 8).expect("reopen");
        for i in 0..n {
            assert_eq!(s.get(&key(i)), Probe::Hit(format!("record-{i}")));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A corrupt index file is discarded, not trusted: records stay
    /// retrievable via the log scan.
    #[test]
    fn corrupt_index_falls_back_to_log_scan() {
        let dir = tmp();
        {
            let mut s = ResultStore::open_with(&dir, 4).expect("open");
            for i in 0..12u64 {
                s.put(&key(i), &format!("r{i}")).expect("put");
            }
        }
        let idx = dir.join(IDX_NAME);
        assert!(idx.exists());
        let mut bytes = fs::read(&idx).expect("read idx");
        for b in bytes.iter_mut() {
            *b = !*b;
        }
        fs::write(&idx, &bytes).expect("corrupt idx");
        let mut s = ResultStore::open_with(&dir, 4).expect("open with corrupt idx");
        for i in 0..12u64 {
            assert_eq!(s.get(&key(i)), Probe::Hit(format!("r{i}")));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A digest collision (same digest, different key bytes) must miss,
    /// not serve the other key's record.
    #[test]
    fn digest_collision_is_a_miss_not_a_wrong_answer() {
        let dir = tmp();
        let a = key(1);
        let b = QueryKey {
            digest: a.digest,
            bytes: b"completely different key".to_vec(),
        };
        let mut s = ResultStore::open(&dir).expect("open");
        s.put(&a, "a's record").expect("put");
        assert_eq!(s.get(&b), Probe::Corrupt, "collision must not serve");
        assert_eq!(s.get(&a), Probe::Hit("a's record".to_owned()));
        let _ = fs::remove_dir_all(&dir);
    }
}
