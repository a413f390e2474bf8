//! Distributed exploration: the visited set partitioned across N worker
//! *processes* by digest prefix, with successor states shipped between
//! shards as canonical-codec frame batches and termination detected by a
//! coordinator-driven two-phase quiescence probe.
//!
//! This is ROADMAP item 2, and the reason the canonical state codec
//! ([`crate::state_codec`]) was specified rebuild-stable: each worker
//! independently rebuilds the program from source, decodes incoming
//! frames against its own program cache, and still computes the *same*
//! structural digests — so "which shard owns this state" is a pure
//! function of the digest, consistent across every process.
//!
//! ## Topology and wire format
//!
//! Hub-and-spoke over TCP links ([`crate::net`]) — loopback for
//! self-spawned workers, the LAN for a `--connect` fleet: the
//! coordinator relays every worker→worker frame batch, so each process
//! owns exactly one connection and FIFO ordering per link is guaranteed
//! by the stream. Both sides run a dedicated reader thread that drains the
//! socket into an unbounded channel, so neither side ever blocks a
//! write on its peer's reads (no deadlock by construction).
//!
//! Every message travels in the [`ppc_bits::framed`] envelope — `[u32 LE
//! length][u64 LE seq][tag byte][body]`, the sequence number counting
//! messages per link direction from zero; a receiver that observes a
//! gap knows a frame was lost in transit (a lossy relay, a half-written
//! crash) and fails the link loudly instead of silently
//! under-exploring. A frontier
//! frame on the wire is `[u64 digest][frame record]` where the record
//! is byte-for-byte the spill-segment record of [`crate::store`] —
//! switch count, last actor, two retired set slots (always empty), then
//! the canonical state bytes. One encoding everywhere a frame leaves the process: spill
//! file, socket, checkpoint.
//!
//! ## Liveness
//!
//! Each side sends a `Msg::Heartbeat` after
//! [`crate::net::NetParams::heartbeat`] of write silence, and each
//! side's socket reads carry a
//! [`crate::net::NetParams::peer_timeout`] deadline — so a peer that
//! hangs (or a network that partitions) without closing the socket is
//! detected within the timeout and handled exactly like a death, never
//! as an indefinite hang.
//!
//! ## Ownership and equivalence
//!
//! A successor with digest `d` belongs to shard [`shard_of`]`(d, n)` —
//! a contiguous prefix range of the top 16 digest bits (safe to carve
//! up because [`crate::types::DigestHasher`] finishes with a full
//! avalanche, so the prefix is uniform). Each distinct state is
//! admitted by exactly one shard's visited set and expanded exactly
//! once, and [`crate::oracle`]'s `expand` is deterministic — so the
//! summed state/transition counts and the merged `finals` of an
//! untruncated distributed run are byte-identical to the single-process
//! engines', the same argument (and the same differential tests) as for
//! a multi-worker in-process pool.
//!
//! ### Dedup before codec
//!
//! A state has several predecessors (3.7 fired transitions per distinct
//! state on `mid8`), so most successors that cross a shard boundary are
//! ones the owner has already seen. Encoding, relaying and decoding such
//! a frame only to have the owner's visited set reject it is the bulk
//! of the engine's overhead, so admission is asked *before* the codec
//! runs, on both ends of a link:
//!
//! - **Sender.** A worker keeps a fixed-size direct-mapped table of the
//!   remote digests it has already routed (2^16 slots, 512 KiB, indexed
//!   by the low digest bits because [`shard_of`] spends the top ones; a
//!   constant, so memory stays bounded under any
//!   `max_resident_states`). A successor whose digest is in the table
//!   is dropped before it is encoded. A hit is an exact 64-bit compare,
//!   so the table never claims a digest it was not given — a collision
//!   evicts, and the evicted digest is simply sent again. This is sound
//!   because admission is by digest alone in every mode (the switch
//!   count of a context bound rides in the frame, but admission never
//!   reads it, and under `--reduced` the eager choice is a function of
//!   the state, so a second copy would be expanded exactly as the first)
//!   and a shard's visited set only grows while its fleet lives: the
//!   first send reached the owner (or is still in the outbox, the relay
//!   or the owner's socket, all of which the termination wave and the
//!   checkpoint account for), so the owner would reject every later
//!   copy — the table drops exactly what the owner would drop, and
//!   counts and finals are unchanged.
//! - **Receiver.** A frame record leads with its digest, so the owner
//!   asks its visited set
//!   ([`crate::store::StateStore::insert_visited`], the one admission
//!   every engine ends in) first, and decodes the record — metadata and
//!   state bytes, most of what a frame costs the codec — only when the
//!   answer is yes. A rejected record still counts as `received`: the
//!   probe invariant below compares frames, not admissions. An
//!   *admitted* record that then fails to decode ends the run truncated
//!   (`corrupt wire frame`); skipping the decode of records that would
//!   have been discarded anyway cannot shrink the state space.
//! - **Then the memo, then the codec.** A record that survives both
//!   admissions is still mostly something this process has seen: it
//!   differs from a state the worker routed or decoded a moment ago in
//!   one or two of its thread / storage components. The codec context
//!   ([`crate::state_codec`], *Component memo*) keeps the last few
//!   values of each component with their canonical bytes, so the sender
//!   copies the bytes of every component the successor still shares
//!   with something it encoded (or decoded) before, and the owner gets
//!   back the very `Arc`s — cached digest and transition enumeration
//!   included — of every component whose bytes it has read (or written)
//!   before; only what is left is walked or parsed. The order is
//!   admission → memo → codec, each step exact: the first two never
//!   drop a state the visited sets would keep, the memo never changes a
//!   byte or a decoded value (pointer identity one way, byte equality
//!   the other, audited on every hit in debug builds), so records,
//!   counts and finals are what they were. A worker has one context —
//!   its frontier store's — so wire records and spill segments feed the
//!   same memo.
//!
//! ## Termination wave
//!
//! The pending-count detector generalises to messages: the coordinator
//! tracks `r_out[w]` — Batch frames forwarded to worker `w` — and
//! probes on channel silence. A probe round is **clean** when every
//! worker replies idle (empty stack, empty spill, flushed outbox), no
//! relay happened during the round, and each worker's replied
//! `received` equals `r_out[w]` (FIFO: the reply counts everything the
//! coordinator ever sent). A clean round means no frame is in flight
//! anywhere — a worker's un-relayed Route would have reached the
//! coordinator before that worker's ProbeReply — and two consecutive
//! clean rounds are required before `Finish`, belt and braces.
//!
//! ## Checkpoint / resume and degradation
//!
//! A serialised frontier + visited set *is* a resumable exploration.
//! On a graceful stop (state budget or deadline) with a checkpoint path
//! configured, every worker dumps its visited digests, unexpanded
//! frames, and unflushed outbox; the coordinator adds frames it was
//! still relaying and writes one atomic (tmp+rename) checkpoint file.
//! Resume seeds any number of workers — the dump is flat, so the shard
//! count may change — and continues to byte-identical finals/counts.
//!
//! The sender tables are not part of a checkpoint and do not need to
//! be. Every pause and every death tears the *whole* fleet down, and a
//! table lives and dies with one [`run_worker`] call — a resumed run
//! starts new workers with empty tables, also inside a long-lived
//! `--connect` process — so a table never outlives the visited sets it
//! summarises. Nothing a table
//! suppressed is missing from the dump either: a suppressed successor
//! is by construction one whose first copy was already handed on, and
//! that copy is in the owner's visited set, in an unflushed outbox (→
//! the worker dump's `pending` list), or was a `Route` caught after the
//! stop (→ the coordinator's orphans). The relay journal likewise still
//! sees every distinct state bound for a shard at least once, which is
//! all the death-recovery argument below uses.
//!
//! If a worker *dies* (socket EOF, a sequence gap, or dead-peer timeout
//! before its Result), the run degrades gracefully: remaining workers
//! are stopped and dumped, the result is reported truncated with
//! [`crate::oracle::ExplorationStats::store_error`] set, and — when a
//! checkpoint path is configured — the coordinator still writes a
//! *resumable* checkpoint. The dead shard's in-process state is unrecoverable, so
//! the coordinator keeps a per-shard on-disk journal of every frame it
//! ever forwarded; on death it drops the dead shard's visited set and
//! replays that journal into the checkpoint's pending list. Every state
//! the dead shard discovered is reachable from those journaled entry
//! points through shard-internal expansion, so the resumed run
//! re-derives the lost subtree: finals are byte-identical, and for a
//! first-incarnation crash so are the state/transition counts (the dead
//! worker's were never merged). A crash *after* an earlier pause/resume
//! may recount dead-shard states expanded before the pause — counts can
//! then exceed the single-process engines'; finals never differ.
//!
//! ## Module map
//!
//! | file | owns |
//! |---|---|
//! | `msg.rs` | the `Msg` enum and its body codec, the frame/visited record types, the per-link send/receive helpers and reader thread over [`ppc_bits::framed`] |
//! | `checkpoint.rs` | the `PPCMEMCK` checkpoint file format |
//! | `worker.rs` | the worker loop: [`crate::oracle`]'s `DfsFrontier` plus routing |
//! | `coordinator.rs` | relay, budget/deadline enforcement, degradation, result merge |
//! | `probe.rs` | termination-probe epochs and pacing |

mod checkpoint;
mod coordinator;
mod msg;
mod probe;
mod worker;

pub use checkpoint::{load_checkpoint, save_checkpoint, Checkpoint};
pub use coordinator::{coordinate, CoordinatorConfig, DistribOutcome};
pub use msg::{decode_params, encode_params, read_blob, write_blob, FrameRecord};
pub use worker::{run_worker, WorkerEnv};

/// Frames buffered per destination shard before a Route is sent.
const ROUTE_BATCH: usize = 64;

/// The shard owning a digest among `n`: the top 16 bits scaled into `n`
/// contiguous prefix ranges. Uniform because the digest hasher's fmix64
/// finaliser avalanches every input bit into the prefix.
#[must_use]
pub fn shard_of(digest: u64, n: usize) -> usize {
    (((digest >> 48) as usize) * n) >> 16
}

#[cfg(test)]
mod tests;
