//! Unsigned LEB128 varints, the integer form of the frame head
//! ([`crate::message`]) and of the ack payload ([`crate::reliable`]).
//!
//! Seven bits a byte, the low group first; every byte but the last has its
//! top bit set. Values under 128 take one byte, a `u32` at most
//! [`MAX_LEN_U32`], a `u64` at most [`MAX_LEN_U64`].
//!
//! Reading is strict, so that every value has exactly one encoding: a
//! varint that runs past its input, is longer than its type needs, carries
//! bits its type does not have, or ends in a zero byte after the first
//! (a padded, non-minimal form) is refused. Reading never panics and looks
//! at each byte once.

/// The most bytes a `u32` takes.
pub const MAX_LEN_U32: usize = 5;

/// The most bytes a `u64` takes.
pub const MAX_LEN_U64: usize = 10;

/// Bytes `v` takes.
#[must_use]
pub const fn len(v: u64) -> usize {
    let bits = 64 - v.leading_zeros() as usize;
    if bits == 0 {
        1
    } else {
        bits.div_ceil(7)
    }
}

/// Writes `v` at the front of `out` and returns how many bytes it took.
///
/// # Panics
///
/// If `out` is shorter than [`len`]`(v)`.
pub fn put(out: &mut [u8], mut v: u64) -> usize {
    let mut i = 0;
    while v >= 0x80 {
        out[i] = v as u8 | 0x80;
        v >>= 7;
        i += 1;
    }
    out[i] = v as u8;
    i + 1
}

/// Reads a varint of at most `bits` significant bits off the front of
/// `raw`, advancing it. `None` (and `raw` left as it was) on every form
/// the module docs refuse.
fn read(raw: &mut &[u8], bits: u32) -> Option<u64> {
    let max = bits.div_ceil(7) as usize;
    let mut v = 0u64;
    for (i, &b) in raw.iter().take(max).enumerate() {
        let shift = 7 * i as u32;
        let group = u64::from(b & 0x7F);
        if bits - shift < 7 && group >> (bits - shift) != 0 {
            return None; // bits past the type's top
        }
        v |= group << shift;
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return None; // a padded, non-minimal form
            }
            *raw = &raw[i + 1..];
            return Some(v);
        }
    }
    None // cut short, or longer than the type needs
}

/// Reads a `u32` varint off the front of `raw`, advancing it.
#[must_use]
pub fn read_u32(raw: &mut &[u8]) -> Option<u32> {
    read(raw, 32).map(|v| v as u32)
}

/// Reads a `u64` varint off the front of `raw`, advancing it.
#[must_use]
pub fn read_u64(raw: &mut &[u8]) -> Option<u64> {
    read(raw, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: u64) -> Vec<u8> {
        let mut out = [0u8; MAX_LEN_U64];
        let n = put(&mut out, v);
        assert_eq!(n, len(v));
        out[..n].to_vec()
    }

    #[test]
    fn lengths_step_every_seven_bits() {
        let cases = [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), MAX_LEN_U32),
            (u64::MAX, MAX_LEN_U64),
        ];
        for (v, want) in cases {
            assert_eq!(len(v), want, "{v}");
            assert_eq!(enc(v).len(), want, "{v}");
        }
        assert_eq!(enc(300), [0xAC, 0x02]);
    }

    #[test]
    fn reads_round_trip_and_advance() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut wire = enc(v);
            wire.push(0xEE);
            let mut raw = &wire[..];
            assert_eq!(read_u64(&mut raw), Some(v));
            assert_eq!(raw, [0xEE]);
        }
        let wire = enc(u64::from(u32::MAX));
        assert_eq!(read_u32(&mut &wire[..]), Some(u32::MAX));
    }

    #[test]
    fn refuses_cut_long_overflowing_and_padded_forms() {
        let refused: [(&[u8], bool); 8] = [
            (&[], false),
            (&[0x80], false),                              // cut short
            (&[0x80, 0x00], false),                        // padded zero
            (&[0x81, 0x00], false),                        // padded one
            (&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F], true),       // 2^35 - 1 in a u32
            (&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], true), // six bytes for a u32
            (
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x03],
                false,
            ), // 2^65 - 1
            (&[0x80; 11], false),                          // eleven bytes
        ];
        for (wire, u32_only) in refused {
            let mut raw = wire;
            assert_eq!(read_u32(&mut raw), None, "{wire:02x?}");
            assert_eq!(raw, wire, "a refused read does not advance");
            if !u32_only {
                assert_eq!(read_u64(&mut raw), None, "{wire:02x?}");
            }
        }
        // The widest forms each type has are fine.
        assert_eq!(
            read_u32(&mut &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F][..]),
            Some(u32::MAX)
        );
        let top = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(read_u64(&mut &top[..]), Some(u64::MAX));
    }
}
