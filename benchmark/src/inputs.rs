//! Everything a workload feeds the program is derived here from `--seed`:
//! which node originates each broadcast, the payload bytes, and the seeds
//! handed to the simulator's link-latency and fault generators. The same
//! seed gives the same inputs; the program itself never sees the seed.

/// SplitMix64: small, seedable, and good enough to pick origins and fill
/// payloads. Owned by the benchmark so that a change to the repo's vendored
/// `rand` stand-in cannot silently change the workloads.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` so the origin
    /// sequence, the payload and the simulator seeds do not share state.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (modulo bias is irrelevant at these bounds).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

const STREAM_ORIGINS: u64 = 1;
const STREAM_PAYLOAD: u64 = 2;
const STREAM_SIM: u64 = 3;

/// The originating node of each of `count` broadcasts, uniform over `n`.
pub fn origins(seed: u64, count: usize, n: usize) -> Vec<u32> {
    let mut g = SplitMix64::new(seed, STREAM_ORIGINS);
    (0..count).map(|_| g.below(n as u64) as u32).collect()
}

/// `len` payload bytes.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut g = SplitMix64::new(seed, STREAM_PAYLOAD);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&g.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The seed handed to the simulator (link jitter) and to the fault
/// injector, so that both schedules follow `--seed`.
pub fn sim_seed(seed: u64) -> u64 {
    SplitMix64::new(seed, STREAM_SIM).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(origins(7, 1000, 16), origins(7, 1000, 16));
        assert_eq!(payload(7, 1024), payload(7, 1024));
        assert_eq!(sim_seed(7), sim_seed(7));
    }

    #[test]
    fn other_seed_other_inputs() {
        assert_ne!(origins(7, 1000, 16), origins(8, 1000, 16));
        assert_ne!(payload(7, 1024), payload(8, 1024));
        assert_ne!(sim_seed(7), sim_seed(8));
    }

    #[test]
    fn origins_cover_every_node_and_stay_in_range() {
        let o = origins(1, 2000, 16);
        assert!(o.iter().all(|&v| v < 16));
        for node in 0..16 {
            assert!(o.contains(&node), "node {node} never originates");
        }
    }

    #[test]
    fn payload_has_the_asked_length() {
        for len in [0, 1, 64, 1000, 16 * 1024] {
            assert_eq!(payload(3, len).len(), len);
        }
    }
}
