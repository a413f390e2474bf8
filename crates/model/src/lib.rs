//! The operational concurrency model and test oracle — the paper's
//! primary contribution, integrating the ISA semantics of [`ppc_isa`]
//! (through the outcome interface of [`ppc_idl`]) with an abstract-machine
//! model of POWER multiprocessor concurrency extending Sarkar et al.
//! (PLDI 2011).
//!
//! The model has two halves (paper §5):
//!
//! - a **storage subsystem** ([`storage::StorageState`]) holding the
//!   writes seen so far, the coherence commitments among them (a strict
//!   partial order over overlapping writes), the per-thread lists of
//!   propagated events, and the unacknowledged syncs — abstracting from
//!   cache protocols and storage hierarchy while exposing POWER's
//!   non-multi-copy-atomic behaviour;
//! - a **thread subsystem** ([`thread::ThreadState`]) maintaining, per
//!   hardware thread, a *tree of in-flight instruction instances*
//!   (out-of-order and speculative execution), with bit-granular register
//!   dataflow, forwarding from uncommitted writes, dynamic footprint
//!   re-analysis, and restarts.
//!
//! A [`system::SystemState`] combines both with the program memory and
//! the model parameters; [`system::SystemState::enumerate_transitions`]
//! and [`system::SystemState::apply`] give the labelled transition system,
//! and [`oracle`] computes the set of all architecturally allowed final
//! states of a test (the paper's exhaustive mode), or drives a single
//! deterministic execution (sequential mode, used for the §7 conformance
//! testing). Exhaustive exploration runs on a pool of
//! [`ModelParams::threads`] depth-first frontiers over one
//! digest-sharded store (a pool of one on the calling thread; busy
//! workers donate half their stack to idle ones), and every pool size
//! visits the same state envelope and produces bit-identical
//! [`oracle::Outcomes`].

pub mod distrib;
pub mod net;
pub mod oracle;
pub mod pretty;
pub mod reduction;
pub mod state_codec;
pub mod storage;
pub mod store;
pub mod system;
pub mod thread;
mod types;

#[doc(hidden)]
pub use oracle::explore_limited_memoless;
pub use oracle::{
    explore, explore_bounded, explore_limited, run_sequential, Actor, ExplorationStats,
    ExploreLimits, FinalState, Frame, Outcomes, SuccCounts, SuccMemoStats,
};
pub use reduction::independent;
pub use state_codec::{decode_state, encode_state, CodecCtx, MemoCounts, MemoStats};
pub use storage::{StorageState, StorageTransition};
pub use store::StateStore;
pub use system::{AdvanceTrace, EnumTrace, Program, SystemState, Transition};
pub use thread::{InstanceArena, InstanceId, InstrInstance, ThreadState, ThreadTransition};
pub use types::{
    resolve_threads, BarrierEv, BarrierId, Digested, ModelParams, ThreadId, Write, WriteId,
};

#[cfg(test)]
mod storage_tests;
#[cfg(test)]
mod tests;
