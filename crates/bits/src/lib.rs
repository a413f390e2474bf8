//! Lifted bitvectors for the POWER architectural model.
//!
//! The paper (§2.1.7) works over *lifted* bits — `0`, `1`, or `undef` — so
//! that instruction descriptions which leave register bits explicitly
//! undefined can still be executed and compared against hardware "up to
//! undef". This crate provides:
//!
//! - [`Bit`]: a single lifted bit;
//! - [`Bv`]: a bitvector of lifted bits, stored MSB-first to match POWER's
//!   MSB0 numbering convention (bit 0 is the most significant);
//! - [`Tribool`]: three-valued booleans produced by comparisons over
//!   possibly-undefined values;
//! - arithmetic, logical, shift/rotate, and counting operations with
//!   conservative undef propagation (any undefined input bit that can affect
//!   an output bit makes that output bit undefined).
//!
//! It is also the workspace's dependency-free substrate crate: the
//! canonical byte [`codec`], the deterministic [`Prng`], the
//! [`framed`] link envelope both wire protocols speak, the
//! [`SortedRun`] on-disk lookup run both stores keep their cold half
//! in, and the [`fnv1a64`] locator hash.
//!
//! The same `undef` value doubles as the distinguished *unknown* used by the
//! exhaustive footprint analysis of partially executed instructions
//! (paper §2.2): "the interpreter operations treat unknown similarly to
//! undef".
//!
//! # Example
//!
//! ```
//! use ppc_bits::Bv;
//!
//! let a = Bv::from_u64(5, 64);
//! let b = Bv::from_u64(7, 64);
//! assert_eq!(a.add(&b).to_u64().unwrap(), 12);
//!
//! // POWER MSB0 numbering: bit 0 is the most significant.
//! let w = Bv::from_u64(1, 32);
//! assert_eq!(w.bit(31), ppc_bits::Bit::One);
//! ```

mod arith;
mod bit;
mod bv;
pub mod codec;
mod fmt;
pub mod framed;
pub mod rng;
pub mod sorted_run;

pub use bit::{Bit, Tribool};
pub use bv::Bv;
pub use codec::{DecodeError, Reader, Writer};
pub use rng::Prng;
pub use sorted_run::SortedRun;

/// FNV-1a 64 over a byte string: the well-spread (not cryptographic)
/// hash behind the result store's record locator and the checkpoint's
/// job fingerprint. Both store the value, so the function is format.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests;
