//! Little-endian codecs: `put_*` encoders; a [`Reader`] for every
//! container read back from a file or a socket, so a corrupt or hostile one
//! is a [`DecodeError`], never a panic or an allocation its bytes do not
//! back; and `get_*` for reads inside a page whose header a [`Reader`] has
//! already bounded (a tree's key search and fence scan).

use std::fmt;

/// Write a `u32` at `off`, returning the next offset.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) -> usize {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    off + 4
}

/// Write a `u64` at `off`, returning the next offset.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) -> usize {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    off + 8
}

/// Read a `u64` at `off` of a page whose layout is already checked.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

/// Write an `f64` at `off`, returning the next offset.
#[inline]
pub fn put_f64(buf: &mut [u8], off: usize, v: f64) -> usize {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    off + 8
}

/// Read an `f64` at `off` of a page whose layout is already checked.
#[inline]
pub fn get_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_bits(get_u64(buf, off))
}

/// A read a [`Reader`] refused: the field, the offset the read started at,
/// and the bytes it needed against the bytes left there. `need` saturates
/// at `usize::MAX` for a count whose bytes overflow, and is 0 for bytes
/// left over past a container's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// What was being decoded.
    pub field: &'static str,
    /// Offset of the read within the reader's bytes.
    pub offset: usize,
    /// Bytes the read needed.
    pub need: usize,
    /// Bytes left at `offset`.
    pub have: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self { field, offset, need, have } = self;
        write!(f, "corrupt {field} at byte {offset}: needs {need} bytes, {have} left")
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over untrusted bytes: each read takes the next bytes or
/// refuses, naming its field, and consumes nothing when it refuses.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// Bytes not yet read.
    pub fn left(&self) -> usize {
        self.buf.len() - self.at
    }

    fn error(&self, field: &'static str, need: usize) -> DecodeError {
        DecodeError { field, offset: self.at, need, have: self.left() }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, field: &'static str, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.left() {
            return Err(self.error(field, n));
        }
        self.at += n;
        Ok(&self.buf[self.at - n..self.at])
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self.bytes(field, N)?.try_into().expect("N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        self.array(field).map(u8::from_le_bytes)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self, field: &'static str) -> Result<u16, DecodeError> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// The next `f64`, bit for bit.
    pub fn f64(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        self.u64(field).map(f64::from_bits)
    }

    /// The next `n` `f64`s, allocated once their `8 × n` bytes are there.
    pub fn f64s(&mut self, field: &'static str, n: usize) -> Result<Vec<f64>, DecodeError> {
        let bytes = self.bytes(field, n.saturating_mul(8))?;
        Ok(bytes.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().expect("8"))).collect())
    }

    /// The next `u32`, a count of `elem_len`-byte elements, refused unless
    /// they fit in the bytes left after it: the one way a decoded number
    /// may size memory.
    pub fn count(&mut self, field: &'static str, elem_len: usize) -> Result<usize, DecodeError> {
        let n = self.u32(field)? as usize;
        match n.saturating_mul(elem_len) {
            need if need > self.left() => Err(self.error(field, need)),
            _ => Ok(n),
        }
    }

    /// Refuse bytes left over past the container's end.
    pub fn end(&self, field: &'static str) -> Result<(), DecodeError> {
        match self.left() {
            0 => Ok(()),
            _ => Err(self.error(field, 0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut buf = vec![0u8; 64];
        let o = put_u32(&mut buf, 0, 0xDEAD_BEEF);
        let o = put_u64(&mut buf, o, u64::MAX - 3);
        let o = put_f64(&mut buf, o, -1234.5678);
        assert_eq!(o, 4 + 8 + 8);
        assert_eq!(Reader::new(&buf).u32("u32"), Ok(0xDEAD_BEEF));
        assert_eq!(get_u64(&buf, 4), u64::MAX - 3);
        assert_eq!(get_f64(&buf, 12), -1234.5678);
    }

    #[test]
    fn f64_preserves_bit_patterns() {
        let mut buf = vec![0u8; 8];
        for v in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN_POSITIVE] {
            put_f64(&mut buf, 0, v);
            assert_eq!(get_f64(&buf, 0).to_bits(), v.to_bits());
        }
        put_f64(&mut buf, 0, f64::NAN);
        assert!(get_f64(&buf, 0).is_nan());
    }

    #[test]
    fn a_reader_reads_every_width_in_order_bit_for_bit() {
        let mut buf = vec![0u8; 64];
        let o = put_u32(&mut buf, 0, 0xDEAD_BEEF);
        let o = put_u64(&mut buf, o, u64::MAX - 3);
        put_f64(&mut buf, o, -0.0);
        buf[21] = 0x7F;
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32("a"), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64("b"), Ok(u64::MAX - 3));
        assert_eq!(r.f64("c").map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.u16("d"), Ok(0x7F00));
        assert_eq!(r.u8("e"), Ok(0));
        assert_eq!(r.f64s("f", 2).map(|v| v.len()), Ok(2));
        assert_eq!(r.left(), 64 - 23 - 16);
    }

    #[test]
    fn a_read_one_byte_short_names_its_field_offset_need_and_have() {
        let buf = [1u8, 2, 3, 4, 5, 6, 7];
        let mut r = Reader::new(&buf);
        assert_eq!(r.u16("head"), Ok(0x0201));
        let err = r.u64("word").unwrap_err();
        assert_eq!(err, DecodeError { field: "word", offset: 2, need: 8, have: 5 });
        assert_eq!(err.to_string(), "corrupt word at byte 2: needs 8 bytes, 5 left");
        // A refused read consumes nothing.
        assert_eq!(r.u32("next"), Ok(0x0605_0403));
        assert_eq!(r.u32("last"), Err(DecodeError { field: "last", offset: 6, need: 4, have: 1 }));
        assert_eq!(r.end("tail"), Err(DecodeError { field: "tail", offset: 6, need: 0, have: 1 }));
    }

    #[test]
    fn zero_length_reads_succeed_anywhere() {
        let mut r = Reader::new(&[]);
        assert_eq!(r.bytes("none", 0), Ok(&[][..]));
        assert_eq!(r.array::<0>("none"), Ok([]));
        assert_eq!(r.f64s("none", 0), Ok(vec![]));
        assert_eq!(r.end("end"), Ok(()));
        assert_eq!(r.u8("byte").unwrap_err().need, 1);
    }

    #[test]
    fn a_count_fits_exactly_or_is_refused() {
        let blob = |n: u32, tail: usize| [&n.to_le_bytes()[..], &vec![0u8; tail]].concat();
        // Exactly fits: 3 elements of 8 bytes in 24.
        let bytes = blob(3, 24);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.count("n", 8), Ok(3));
        assert_eq!(r.left(), 24);
        // One byte short.
        let short = blob(3, 23);
        let err = Reader::new(&short).count("n", 8).unwrap_err();
        assert_eq!(err, DecodeError { field: "n", offset: 4, need: 24, have: 23 });
        // Zero-length elements always fit; a zero count always fits.
        assert_eq!(Reader::new(&blob(u32::MAX, 0)).count("n", 0), Ok(u32::MAX as usize));
        assert_eq!(Reader::new(&blob(0, 0)).count("n", 8), Ok(0));
    }

    #[test]
    fn a_count_whose_bytes_overflow_usize_is_refused() {
        let bytes = u32::MAX.to_le_bytes();
        let err = Reader::new(&bytes).count("n", usize::MAX / 2).unwrap_err();
        assert_eq!(err, DecodeError { field: "n", offset: 4, need: usize::MAX, have: 0 });
        // So is a run of `f64`s whose bytes overflow, before anything is
        // allocated for it.
        let err = Reader::new(&bytes).f64s("f", usize::MAX / 4).unwrap_err();
        assert_eq!((err.need, err.have), (usize::MAX, 4));
    }
}
