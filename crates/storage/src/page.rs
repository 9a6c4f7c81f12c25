//! Little-endian page codec helpers.
//!
//! All on-disk records in this workspace are fixed-size and little-endian.
//! These helpers centralize the offset arithmetic; each returns the offset
//! just past the value written/read so encoders can be written as chains.

/// Write a `u32` at `off`, returning the next offset.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) -> usize {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    off + 4
}

/// Read a `u32` at `off`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
}

/// Write a `u64` at `off`, returning the next offset.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) -> usize {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    off + 8
}

/// Read a `u64` at `off`.
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

/// Read an `f64` at `off`.
#[inline]
pub fn get_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
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
        assert_eq!(get_u32(&buf, 0), 0xDEAD_BEEF);
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
}
