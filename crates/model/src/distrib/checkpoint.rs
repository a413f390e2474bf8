//! The `PPCMEMCK` checkpoint file: a paused exploration, serialised
//! with the same record codecs the wire uses ([`super::msg`]).

use super::msg::{
    decode_failed, decode_finals, decode_frame_records, decode_stats, decode_visited_entries,
    encode_finals, encode_frame_records, encode_stats, encode_visited_entries, FrameRecord,
};
use crate::oracle::{ExplorationStats, FinalState};
use ppc_bits::{DecodeError, Reader, Writer};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

const CK_MAGIC: &[u8; 8] = b"PPCMEMCK";
const CK_VERSION: u8 = 1;

/// A paused exploration: everything needed to resume it with any worker
/// count (the dump is flat — routing re-derives ownership from the
/// digests). State bytes inside the frame records are the canonical
/// codec's, so the file is as rebuild-stable as the codec goldens.
#[derive(Debug)]
pub struct Checkpoint {
    /// Fingerprint of the job (test source + params); resume refuses a
    /// mismatch rather than silently mixing explorations.
    pub job_digest: u64,
    /// Statistics accumulated across all paused segments.
    pub stats: ExplorationStats,
    /// Finals accumulated so far.
    pub finals: BTreeSet<FinalState>,
    /// The merged visited set, by digest.
    pub visited: Vec<u64>,
    /// Admitted-but-unexpanded frames.
    pub frontier: Vec<FrameRecord>,
    /// Routed-but-unadmitted candidates (dedup on resume).
    pub pending: Vec<FrameRecord>,
}

/// Serialise and atomically write a checkpoint (tmp + rename, so a
/// crash mid-write can never leave a half checkpoint under the real
/// name).
pub fn save_checkpoint(path: &Path, ck: &Checkpoint) -> io::Result<()> {
    let mut w = Writer::new();
    w.bytes(CK_MAGIC);
    w.byte(CK_VERSION);
    w.bytes(&ck.job_digest.to_le_bytes());
    encode_stats(&mut w, &ck.stats);
    encode_finals(&mut w, &ck.finals);
    encode_visited_entries(&mut w, &ck.visited);
    encode_frame_records(&mut w, &ck.frontier);
    encode_frame_records(&mut w, &ck.pending);
    let tmp = path.with_extension("ck-tmp");
    std::fs::write(&tmp, w.into_bytes())?;
    std::fs::rename(&tmp, path)
}

/// Load a checkpoint written by [`save_checkpoint`].
pub fn load_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let bytes = std::fs::read(path)?;
    let parse = |r: &mut Reader<'_>| -> Result<Checkpoint, DecodeError> {
        if r.bytes(8)? != CK_MAGIC {
            return Err(DecodeError::Invalid("not a ppcmem checkpoint"));
        }
        let version = r.byte()?;
        if version != CK_VERSION {
            return Err(DecodeError::BadTag {
                what: "checkpoint version",
                tag: version,
            });
        }
        let job_digest = u64::from_le_bytes(r.bytes(8)?.try_into().expect("8 bytes"));
        Ok(Checkpoint {
            job_digest,
            stats: decode_stats(r)?,
            finals: decode_finals(r)?,
            visited: decode_visited_entries(r)?,
            frontier: decode_frame_records(r)?,
            pending: decode_frame_records(r)?,
        })
    };
    parse(&mut Reader::new(&bytes)).map_err(|e| decode_failed(&e))
}
