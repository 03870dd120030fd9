//! Encode buffers kept for reuse.
//!
//! A sender that encodes many small frames keeps the payloads of its last
//! few and encodes the next into one of them that nothing else holds any
//! more ([`Bytes::is_unique`], then [`Bytes::try_into_mut`]): once the
//! transport has let go of an earlier frame — the simulator delivered it,
//! a link wrote it to its socket — the next costs no allocation. The vote
//! exchange's `VOTES` frames and the reliable plane's control frames both
//! encode through [`encode_reusing`]; each keeps its own pool, bounded by a
//! `const` of its own.

use bytes::{Bytes, BytesMut};

/// The longest payload [`encode_reusing`] keeps to encode into again: a
/// control or `VOTES` frame is far shorter, and a long one is not worth its
/// room for the sender's lifetime.
pub const KEPT_LEN: usize = 1024;

/// Encodes a payload of `len` bytes with `write`, into the buffer of the
/// first of `kept` — the payloads of frames encoded earlier — that nothing
/// else holds any more, if it has the room; into a new buffer of exactly
/// `len` bytes otherwise. The new payload joins `kept`, which keeps the
/// `max` newest (none when `max` is 0), and none longer than [`KEPT_LEN`];
/// `kept` grows to room for `max` at once, not by doubling.
pub fn encode_reusing(
    kept: &mut Vec<Bytes>,
    max: usize,
    len: usize,
    write: impl FnOnce(&mut BytesMut),
) -> Bytes {
    let reclaimed = (kept.iter().position(Bytes::is_unique))
        .and_then(|i| kept.remove(i).try_into_mut().ok())
        .filter(|buf| buf.capacity() >= len);
    let mut buf = match reclaimed {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => BytesMut::with_capacity(len),
    };
    write(&mut buf);
    let payload = buf.freeze();
    if max > 0 && payload.len() <= KEPT_LEN {
        if kept.len() >= max {
            kept.remove(0);
        }
        kept.reserve_exact(max - kept.len());
        kept.push(payload.clone());
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    fn encode(kept: &mut Vec<Bytes>, fill: u8, len: usize) -> Bytes {
        encode_reusing(kept, 2, len, |buf| (0..len).for_each(|_| buf.put_u8(fill)))
    }

    #[test]
    fn a_released_payload_is_encoded_into_again_a_held_one_is_not() {
        let mut kept = Vec::new();
        let first = encode(&mut kept, 1, 8);
        let at = first.as_ptr();
        let held = encode(&mut kept, 2, 8);
        assert_ne!(held.as_ptr(), at, "the first is still held");
        drop(first);
        let third = encode(&mut kept, 3, 4);
        assert_eq!(third.as_ptr(), at, "the first was let go of: reused");
        assert_eq!(&third[..], [3; 4]);
        assert_eq!(&held[..], [2; 8], "a held payload is never written over");
        assert_eq!(kept.len(), 2, "the newest `max`");
    }

    #[test]
    fn a_buffer_too_small_or_a_payload_too_long_is_not_kept() {
        let mut kept = Vec::new();
        drop(encode(&mut kept, 1, 4));
        let bigger = encode(&mut kept, 2, 16);
        assert_eq!(kept.len(), 1, "4 bytes of room cannot take 16: they went");
        drop(bigger);
        let long = encode(&mut kept, 3, KEPT_LEN + 1);
        assert_eq!(
            kept.len(),
            0,
            "the 16-byte one went; the long one is not kept"
        );
        assert_eq!(long.len(), KEPT_LEN + 1);
        let mut none = Vec::new();
        let _ = encode_reusing(&mut none, 0, 4, |buf| buf.put_u32(7));
        assert!(none.is_empty(), "max 0 keeps nothing");
    }
}
