//! Byte-stream codec primitives for canonical state encoding.
//!
//! The exhaustive oracle's disk-spilling store serialises whole system
//! states to temp files and reads them back; the encoding must be
//! *canonical* (the same state always encodes to the same bytes, across
//! independently built systems) and *exact* (`decode(encode(s)) == s`).
//! This module provides the shared low-level pieces: an append-only
//! [`Writer`] over `Vec<u8>`, a checked [`Reader`], LEB128 varints for
//! integers, and the packed lifted-bitvector encoding for [`Bv`].
//!
//! Everything here is deterministic byte-for-byte: no pointers, no hash
//! iteration order, no platform-dependent widths (`usize` values travel
//! as `u64` varints).

use crate::{Bit, Bv};

/// An encoding error surfaced while *decoding* (encoding is total).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value being read was complete.
    Truncated,
    /// A varint ran past the 64-bit range.
    VarintOverflow,
    /// A tag byte had no corresponding variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A decoded value violated an invariant of the target type.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            DecodeError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} for {what}"),
            DecodeError::Invalid(what) => write!(f, "invalid encoded value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// An append-only byte sink for canonical encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `cap` bytes (a size hint, e.g. the
    /// previous record's length; the output is the same at any value).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consume the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one raw byte.
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }

    /// Append a `u64` as a LEB128 varint.
    pub fn u64v(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Append a `usize` (as a `u64` varint — the encoding is
    /// width-independent).
    pub fn usizev(&mut self, v: usize) {
        self.u64v(v as u64);
    }

    /// Append an `i64` as a zigzag-coded varint.
    pub fn i64v(&mut self, v: i64) {
        self.u64v(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append an optional value: a presence byte, then the value.
    pub fn option<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.byte(0),
            Some(x) => {
                self.byte(1);
                f(self, x);
            }
        }
    }

    /// Append a [`Bv`]: bit length as a varint, then the lifted bits
    /// packed four per byte (2 bits each: `00` zero, `01` one, `10`
    /// undef), MSB0 order, zero-padded in the final byte.
    pub fn bv(&mut self, v: &Bv) {
        self.usizev(v.len());
        let mut acc: u8 = 0;
        let mut n = 0;
        for b in v.iter() {
            let code = match b {
                Bit::Zero => 0u8,
                Bit::One => 1,
                Bit::Undef => 2,
            };
            acc |= code << (2 * n);
            n += 1;
            if n == 4 {
                self.buf.push(acc);
                acc = 0;
                n = 0;
            }
        }
        if n > 0 {
            self.buf.push(acc);
        }
    }
}

/// A checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The unread bytes (nothing is consumed).
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Read one raw byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a LEB128 varint as `u64`.
    ///
    /// # Errors
    ///
    /// Truncation or a varint exceeding 64 bits.
    pub fn u64v(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(DecodeError::VarintOverflow);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a `usize` varint.
    ///
    /// # Errors
    ///
    /// As [`Reader::u64v`], plus overflow of the platform `usize`.
    pub fn usizev(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64v()?).map_err(|_| DecodeError::VarintOverflow)
    }

    /// Read a zigzag-coded `i64` varint.
    ///
    /// # Errors
    ///
    /// As [`Reader::u64v`].
    pub fn i64v(&mut self) -> Result<i64, DecodeError> {
        let z = self.u64v()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a boolean byte.
    ///
    /// # Errors
    ///
    /// Truncation, or a byte other than 0/1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }

    /// Read an optional value written by [`Writer::option`].
    ///
    /// # Errors
    ///
    /// Truncation, a bad presence byte, or a failure in `f`.
    pub fn option<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(DecodeError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    /// Read a [`Bv`] written by [`Writer::bv`].
    ///
    /// # Errors
    ///
    /// Truncation, or an invalid 2-bit code (`11`).
    pub fn bv(&mut self) -> Result<Bv, DecodeError> {
        let len = self.usizev()?;
        let nbytes = len.div_ceil(4);
        let packed = self.bytes(nbytes)?;
        let mut bits = Vec::with_capacity(len);
        for i in 0..len {
            let code = (packed[i / 4] >> (2 * (i % 4))) & 0b11;
            bits.push(match code {
                0 => Bit::Zero,
                1 => Bit::One,
                2 => Bit::Undef,
                _ => {
                    return Err(DecodeError::BadTag {
                        what: "lifted bit",
                        tag: code,
                    })
                }
            });
        }
        // Padding bits in the last byte must be zero for canonicality.
        if len % 4 != 0 {
            let pad = packed[nbytes - 1] >> (2 * (len % 4));
            if pad != 0 {
                return Err(DecodeError::Invalid("non-zero Bv padding"));
            }
        }
        Ok(Bv::from_bits(bits))
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn varint_round_trips() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = Writer::new();
        for &c in &cases {
            w.u64v(c);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &c in &cases {
            assert_eq!(r.u64v().unwrap(), c);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn i64_zigzag_round_trips() {
        let cases = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        let mut w = Writer::new();
        for &c in &cases {
            w.i64v(c);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &c in &cases {
            assert_eq!(r.i64v().unwrap(), c);
        }
    }

    #[test]
    fn bv_round_trips_with_undef() {
        let mut rng = Prng::seed_from_u64(0xb17_c0dec);
        for len in [0usize, 1, 3, 4, 7, 8, 31, 64, 65, 200] {
            let bits: Vec<Bit> = (0..len)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => Bit::Zero,
                    1 => Bit::One,
                    _ => Bit::Undef,
                })
                .collect();
            let v = Bv::from_bits(bits);
            let mut w = Writer::new();
            w.bv(&v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.bv().unwrap(), v);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn truncated_inputs_error() {
        let mut w = Writer::new();
        w.u64v(300);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..1]);
        assert_eq!(r.u64v(), Err(DecodeError::Truncated));
        let mut r = Reader::new(&[]);
        assert_eq!(r.byte(), Err(DecodeError::Truncated));
        assert!(Reader::new(&[2]).bool().is_err());
    }

    #[test]
    fn nonzero_bv_padding_rejected() {
        let mut w = Writer::new();
        w.bv(&Bv::from_u64(0b101, 3));
        let mut bytes = w.into_bytes();
        // Corrupt the padding (top 2 bits of the single packed byte).
        *bytes.last_mut().unwrap() |= 0b1100_0000;
        let mut r = Reader::new(&bytes);
        assert!(r.bv().is_err());
    }
}
