//! The cold half of every two-tier lookup structure in the workspace:
//! one sorted run of fixed-width records in a file, with a sparse
//! in-memory key table, so a probe costs one positioned 4 KiB block
//! read plus a binary search.
//!
//! A record is `W` bytes whose first 8 (little-endian) are its key; the
//! rest is payload the run carries but never interprets. The exploration
//! store's visited set keeps bare digests (`W = 8`, membership); the
//! oracle service's result index keeps `(digest, log offset)` pairs
//! (`W = 16`, retrieval). The run starts `base` bytes into its file, so
//! a caller's own header can precede it.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};

/// A sorted run of `len` `W`-byte records at `base` in `file`.
#[derive(Debug)]
pub struct SortedRun<const W: usize> {
    file: File,
    base: u64,
    len: usize,
    /// The key of the first record of each [`Self::BLOCK`]-sized block.
    sparse: Vec<u64>,
}

fn key_of(record: &[u8]) -> u64 {
    u64::from_le_bytes(record[..8].try_into().expect("records start with a key"))
}

impl<const W: usize> SortedRun<W> {
    /// Records per block: one sparse-table key each, and the unit a
    /// probe reads (4 KiB).
    pub const BLOCK: usize = 4096 / W;

    /// Start writing a run into `file` at its current position, `base`;
    /// [`RunWriter::push`] the records in key order, then
    /// [`RunWriter::finish`]. `file` must be open for reading as well as
    /// writing — the finished run probes through the same handle.
    #[must_use]
    pub fn create(file: File, base: u64) -> RunWriter<W> {
        RunWriter {
            out: BufWriter::new(file),
            base,
            len: 0,
            sparse: Vec::new(),
        }
    }

    /// Flush the run's file to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the `fsync` error.
    pub fn sync_all(&self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Open an existing run of `len` records starting `base` bytes into
    /// `file`, loading its sparse key table.
    ///
    /// # Errors
    ///
    /// I/O errors (a file too short for `len` records among them), and
    /// `InvalidData` when the sparse table is out of order — a scrambled
    /// table would misroute probes into the wrong block, a silent
    /// systematic miss.
    pub fn open(mut file: File, base: u64, len: usize) -> io::Result<Self> {
        let blocks = len.div_ceil(Self::BLOCK);
        let mut sparse = Vec::with_capacity(blocks);
        let mut key = [0u8; 8];
        for block in 0..blocks {
            file.seek(SeekFrom::Start(base + (block * Self::BLOCK * W) as u64))?;
            file.read_exact(&mut key)?;
            sparse.push(u64::from_le_bytes(key));
        }
        if sparse.windows(2).any(|w| w[0] > w[1]) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sorted run's key table is out of order",
            ));
        }
        Ok(SortedRun {
            file,
            base,
            len,
            sparse,
        })
    }

    /// Records in the run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record under `key`, if any: locate the candidate block via
    /// the sparse table, read it, binary-search within.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the block read.
    pub fn find(&mut self, key: u64) -> io::Result<Option<[u8; W]>> {
        // Last block whose first key is <= key.
        let block = match self.sparse.partition_point(|&k| k <= key) {
            0 => return Ok(None), // key precedes every record
            p => p - 1,
        };
        let start = block * Self::BLOCK;
        let count = Self::BLOCK.min(self.len - start);
        let mut buf = vec![0u8; count * W];
        self.file
            .seek(SeekFrom::Start(self.base + (start * W) as u64))?;
        self.file.read_exact(&mut buf)?;
        let (mut lo, mut hi) = (0usize, count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let record = &buf[mid * W..(mid + 1) * W];
            match key_of(record).cmp(&key) {
                std::cmp::Ordering::Equal => {
                    return Ok(Some(record.try_into().expect("W bytes")));
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    /// Stream every record in the run to `each`, in key order.
    ///
    /// # Errors
    ///
    /// I/O errors from the run's file, or the first error `each`
    /// returns.
    pub fn for_each(&mut self, mut each: impl FnMut(&[u8; W]) -> io::Result<()>) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.base))?;
        let mut reader = BufReader::new(&self.file);
        let mut record = [0u8; W];
        for _ in 0..self.len {
            reader.read_exact(&mut record)?;
            each(&record)?;
        }
        Ok(())
    }
}

/// A [`SortedRun`] being written (see [`SortedRun::create`]): it builds
/// the sparse key table as the records stream past.
#[derive(Debug)]
pub struct RunWriter<const W: usize> {
    out: BufWriter<File>,
    base: u64,
    len: usize,
    sparse: Vec<u64>,
}

impl<const W: usize> RunWriter<W> {
    /// Append the next record; its key must not precede the last one's.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn push(&mut self, record: &[u8; W]) -> io::Result<()> {
        if self.len.is_multiple_of(SortedRun::<W>::BLOCK) {
            self.sparse.push(key_of(record));
        }
        self.len += 1;
        self.out.write_all(record)
    }

    /// Flush, and hand back the run over what was written.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn finish(self) -> io::Result<SortedRun<W>> {
        Ok(SortedRun {
            file: self
                .out
                .into_inner()
                .map_err(io::IntoInnerError::into_error)?,
            base: self.base,
            len: self.len,
            sparse: self.sparse,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of the given keys at `base` in a fresh temp file; payload
    /// bytes (if any) repeat the key's low byte.
    fn run_of<const W: usize>(name: &str, base: u64, keys: &[u64]) -> io::Result<SortedRun<W>> {
        let path = std::env::temp_dir().join(format!(
            "ppcmem-sorted-run-{}-{name}-{W}",
            std::process::id()
        ));
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&vec![0xAA; base as usize])?;
        let mut writer = SortedRun::<W>::create(file, base);
        for k in keys {
            let mut r = [*k as u8; W];
            r[..8].copy_from_slice(&k.to_le_bytes());
            writer.push(&r)?;
        }
        let written = writer.finish()?;
        assert_eq!(written.len(), keys.len());
        // What the writer hands back and what a later `open` of the
        // same bytes loads must be the same run.
        let reopened = SortedRun::<W>::open(File::open(&path)?, base, keys.len());
        let _ = std::fs::remove_file(&path);
        let reopened = reopened?;
        assert_eq!(reopened.sparse, written.sparse);
        Ok(reopened)
    }

    fn check_width<const W: usize>() {
        let block = SortedRun::<W>::BLOCK as u64;
        assert_eq!(block as usize * W, 4096);

        let mut empty = run_of::<W>("empty", 0, &[]).expect("empty run");
        assert!(empty.is_empty());
        assert_eq!(empty.find(0).expect("probe"), None);
        empty
            .for_each(|_| panic!("an empty run has no records"))
            .expect("stream");

        // Single block, behind a caller header.
        let mut one = run_of::<W>("one", 24, &[10, 20, 30]).expect("one block");
        assert_eq!(one.len(), 3);
        assert_eq!(one.find(5).expect("probe"), None, "below the first key");
        assert_eq!(one.find(31).expect("probe"), None, "above the last key");
        assert_eq!(one.find(15).expect("probe"), None, "between keys");
        let hit = one.find(20).expect("probe").expect("present");
        assert_eq!(key_of(&hit), 20);
        assert!(hit[8..].iter().all(|&b| b == 20), "payload carried");

        // Three blocks (the last partial): every key is found, the keys
        // either side of each block boundary included, and no gap is.
        let keys: Vec<u64> = (0..2 * block + 7).map(|i| 3 * i + 1).collect();
        let mut multi = run_of::<W>("multi", 0, &keys).expect("multi block");
        for &k in &keys {
            assert!(multi.find(k).expect("probe").is_some(), "key {k}");
            assert_eq!(multi.find(k + 1).expect("probe"), None, "gap {k}+1");
        }
        assert_eq!(multi.find(0).expect("probe"), None);
        let mut streamed = Vec::new();
        multi
            .for_each(|r| {
                streamed.push(key_of(r));
                Ok(())
            })
            .expect("stream");
        assert_eq!(streamed, keys);

        // A run whose block-leading keys descend is refused on open.
        let mut scrambled = keys.clone();
        scrambled.swap(0, 2 * block as usize);
        let err = run_of::<W>("scrambled", 0, &scrambled).expect_err("unsorted table");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn digest_width_runs_probe_and_stream() {
        check_width::<8>();
    }

    #[test]
    fn pair_width_runs_probe_and_stream() {
        check_width::<16>();
    }
}
