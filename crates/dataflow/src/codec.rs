//! A tiny deterministic binary codec used for operator state snapshots and
//! record payload size accounting.
//!
//! The engine charges CPU time proportional to encoded byte counts
//! (serialization is a first-order cost in the paper's testbed), so every
//! encodable entity must have a well-defined, stable encoding. We use an
//! explicit little-endian format instead of a serde backend so that sizes
//! are predictable and the format is identical across platforms.

use std::fmt;

/// Error returned when decoding malformed snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    pub context: &'static str,
    pub offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.context)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Continue encoding at the end of an existing buffer ([`Enc::finish`]
/// hands it back): how append-only logs encode entry after entry into
/// one allocation.
impl From<Vec<u8>> for Enc {
    fn from(buf: Vec<u8>) -> Self {
        Self { buf }
    }
}

/// Cursor-based decoder matching [`Enc`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError {
                context,
                offset: self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        let s = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(s.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let s = self.take(8, "f64")?;
        Ok(f64::from_le_bytes(s.try_into().unwrap()))
    }

    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n, "bytes body")
    }

    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|_| DecodeError {
            context: "invalid utf8",
            offset: self.pos,
        })
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts that the buffer was fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError {
                context: "trailing bytes",
                offset: self.pos,
            })
        }
    }
}

/// Types that can round-trip through the snapshot codec.
pub trait Codec: Sized {
    fn encode(&self, enc: &mut Enc);
    fn decode(dec: &mut Dec<'_>) -> Result<Self, DecodeError>;

    /// Exact (or lower-bound) encoded size, used by [`Codec::to_bytes`]
    /// to allocate the output buffer once instead of growing it per
    /// field. 0 (the default) means "unknown" and falls back to an empty
    /// buffer that grows on demand.
    fn encoded_len_hint(&self) -> usize {
        0
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::with_capacity(self.encoded_len_hint());
        self.encode(&mut enc);
        enc.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Dec::new(bytes);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

impl Codec for u64 {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        dec.u64()
    }
}

impl Codec for i64 {
    fn encode(&self, enc: &mut Enc) {
        enc.i64(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        dec.i64()
    }
}

impl Codec for String {
    fn encode(&self, enc: &mut Enc) {
        enc.str(self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(dec.str()?.to_owned())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(self.len() as u32);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = dec.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(T::decode(dec)?);
        }
        Ok(v)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for std::collections::BTreeMap<K, V> {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(self.len() as u32);
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = dec.u32()? as usize;
        let mut m = Self::new();
        for _ in 0..n {
            let k = K::decode(dec)?;
            let v = V::decode(dec)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scalar_roundtrip() {
        let mut enc = Enc::new();
        enc.u8(7).u32(42).u64(u64::MAX).i64(-5).f64(1.5).bool(true);
        enc.str("hello").bytes(&[1, 2, 3]);
        let buf = enc.finish();
        let mut dec = Dec::new(&buf);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 42);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.i64().unwrap(), -5);
        assert_eq!(dec.f64().unwrap(), 1.5);
        assert!(dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "hello");
        assert_eq!(dec.bytes().unwrap(), &[1, 2, 3]);
        dec.finish().unwrap();
    }

    #[test]
    fn decode_error_on_truncation() {
        let buf = 12345u64.to_bytes();
        let mut dec = Dec::new(&buf[..4]);
        assert!(dec.u64().is_err());
    }

    #[test]
    fn decode_error_on_trailing() {
        let mut buf = 12345u64.to_bytes();
        buf.push(0);
        assert!(u64::from_bytes(&buf).is_err());
    }

    #[test]
    fn container_roundtrip() {
        let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "bb".into())];
        let bytes = v.to_bytes();
        assert_eq!(Vec::<(u64, String)>::from_bytes(&bytes).unwrap(), v);

        let mut m = BTreeMap::new();
        m.insert(9u64, "nine".to_string());
        m.insert(1u64, "one".to_string());
        let bytes = m.to_bytes();
        assert_eq!(BTreeMap::<u64, String>::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn map_encoding_is_deterministic() {
        // BTreeMap iterates in key order regardless of insertion order.
        let mut a = BTreeMap::new();
        a.insert(2u64, 20u64);
        a.insert(1u64, 10u64);
        let mut b = BTreeMap::new();
        b.insert(1u64, 10u64);
        b.insert(2u64, 20u64);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Enc::new();
        enc.bytes(&[0xff, 0xfe]);
        let buf = enc.finish();
        let mut dec = Dec::new(&buf);
        assert!(dec.str().is_err());
    }
}
