//! Per-origin broadcast ids: `(origin, sequence)` packed into one `u64`.
//!
//! Application data ids on the runtime are minted here — the origin in
//! the high half, a per-origin sequence number in the low half — so an id
//! names its origin and its place in that origin's stream.

/// Packs an `(origin, seq)` pair into a broadcast id.
#[must_use]
pub fn fifo_id(origin: u32, seq: u32) -> u64 {
    (u64::from(origin) << 32) | u64::from(seq)
}

/// Unpacks a broadcast id into `(origin, seq)`.
#[must_use]
pub fn fifo_parts(id: u64) -> (u32, u32) {
    ((id >> 32) as u32, id as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trips() {
        assert_eq!(fifo_parts(fifo_id(7, 42)), (7, 42));
        assert_eq!(fifo_parts(fifo_id(u32::MAX, 0)), (u32::MAX, 0));
    }
}
