//! Deterministic per-link fault injection.
//!
//! [`FaultInjector`] is the shared seam both engines (the discrete-event
//! simulator and the TCP runtime) consult before a frame crosses a link. Decisions are *deterministic functions of the
//! injector seed and the frame's identity* — a hash of
//! `(seed, from, to, seq)` — never of shared mutable RNG state. Two runs
//! with the same seed and the same per-link sequence numbers therefore make
//! identical drop/duplicate/delay choices regardless of thread
//! interleaving, which is what makes chaos failures reproducible from a
//! printed seed.
//!
//! The injector models four fault families:
//!
//! * **link rates** ([`LinkFaults`]) — per-link drop / duplicate /
//!   extra-delay / reorder probabilities, with a default applying to every
//!   link and per-link overrides;
//! * **partitions** ([`Partition`]) — time-windowed, optionally directed
//!   cuts between two node sets (an empty `b` side means "everyone else");
//! * **node down windows** — closed-open `[from, until)` intervals during
//!   which a node is dead; the sim maps these onto crash/recover events and
//!   the TCP runtime uses them for kill/rejoin schedules;
//! * **dial blocking** — [`FaultInjector::blocked`] also gates connection
//!   establishment in the TCP runtime so a partitioned node cannot simply
//!   re-dial through the cut.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// Per-link fault rates. All probabilities are in `[0, 1]`; the default is
/// a perfectly clean link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Extra latency (microseconds) added to every frame on the link.
    pub extra_delay_us: u64,
    /// Probability a frame is additionally delayed by a random amount in
    /// `[0, reorder_window_us]`, letting later frames overtake it.
    pub reorder: f64,
    /// Maximum reorder displacement in microseconds.
    pub reorder_window_us: u64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            extra_delay_us: 0,
            reorder: 0.0,
            reorder_window_us: 0,
        }
    }
}

impl LinkFaults {
    /// True when this configuration never perturbs traffic.
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.extra_delay_us == 0 && self.reorder == 0.0
    }
}

/// A time-windowed cut between two node sets.
///
/// While active (`from_us <= now < until_us`), frames from a node in `a` to
/// a node in `b` are blocked; undirected partitions block the reverse
/// direction too. An empty `b` is a wildcard: it matches every node not in
/// `a`, which is how single-node isolation and heartbeat flaps are
/// expressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub a: BTreeSet<u32>,
    /// The other side; empty means "all nodes not in `a`".
    pub b: BTreeSet<u32>,
    /// Activation time (microseconds since the injector epoch).
    pub from_us: u64,
    /// Deactivation time; `u64::MAX` means "until cleared".
    pub until_us: u64,
    /// When true only the `a → b` direction is cut.
    pub directed: bool,
}

impl Partition {
    /// True when the partition blocks `from → to` at time `now_us`.
    fn blocks(&self, from: u32, to: u32, now_us: u64) -> bool {
        if now_us < self.from_us || now_us >= self.until_us {
            return false;
        }
        let in_a = |n: u32| self.a.contains(&n);
        let in_b = |n: u32| {
            if self.b.is_empty() {
                !self.a.contains(&n)
            } else {
                self.b.contains(&n)
            }
        };
        let forward = in_a(from) && in_b(to);
        let backward = in_a(to) && in_b(from);
        forward || (!self.directed && backward)
    }
}

/// SplitMix64 finalizer: avalanche-mixes one word.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 53 bits of a mixed word to a uniform float in `[0, 1)`.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Compiled, engine-agnostic fault state.
///
/// Thread-safe: the TCP runtime shares one injector (behind `Arc`) across
/// every node thread. Partitions can be added and cleared at run time —
/// that mutation is the only interior mutability; probabilistic decisions
/// never mutate.
pub struct FaultInjector {
    seed: u64,
    default_rates: LinkFaults,
    link_overrides: HashMap<(u32, u32), LinkFaults>,
    partitions: Mutex<Vec<Partition>>,
    node_down: HashMap<u32, Vec<(u64, u64)>>,
    epoch: Instant,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.seed)
            .field("default_rates", &self.default_rates)
            .field("link_overrides", &self.link_overrides.len())
            .field("node_down", &self.node_down.len())
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Creates a clean injector (no faults) with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            default_rates: LinkFaults::default(),
            link_overrides: HashMap::new(),
            partitions: Mutex::new(Vec::new()),
            node_down: HashMap::new(),
            epoch: Instant::now(),
        }
    }

    /// The decision seed (printed by the chaos runner to reproduce a run).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the rates applied to every link without an override.
    pub fn set_default_rates(&mut self, rates: LinkFaults) {
        self.default_rates = rates;
    }

    /// Overrides the rates on the directed link `from → to`.
    pub fn set_link(&mut self, from: u32, to: u32, rates: LinkFaults) {
        self.link_overrides.insert((from, to), rates);
    }

    /// Schedules a partition (see [`Partition`] for the window semantics).
    pub fn add_partition(&mut self, partition: Partition) {
        self.partitions.lock().unwrap().push(partition);
    }

    /// Adds a partition through the shared reference, for runtime
    /// orchestration while node threads hold the injector.
    pub fn add_partition_shared(&self, partition: Partition) {
        self.partitions.lock().unwrap().push(partition);
    }

    /// Removes every scheduled partition (heals all cuts immediately).
    pub fn clear_partitions(&self) {
        self.partitions.lock().unwrap().clear();
    }

    /// Marks `node` as down during `[from_us, until_us)`.
    pub fn set_node_down(&mut self, node: u32, from_us: u64, until_us: u64) {
        self.node_down
            .entry(node)
            .or_default()
            .push((from_us, until_us));
    }

    /// True when `node` is inside one of its down windows at `now_us`.
    pub fn node_down(&self, node: u32, now_us: u64) -> bool {
        self.node_down
            .get(&node)
            .is_some_and(|ws| ws.iter().any(|&(f, u)| now_us >= f && now_us < u))
    }

    /// The down windows scheduled for `node` (used by the sim to derive
    /// crash/recover events and by the chaos runner for its oracle).
    pub fn down_windows(&self, node: u32) -> &[(u64, u64)] {
        self.node_down.get(&node).map_or(&[], |v| v.as_slice())
    }

    /// True when an active partition cuts `from → to` at `now_us`.
    ///
    /// The TCP runtime also consults this before *dialing*, so connection
    /// establishment respects partitions, not just frames.
    pub fn blocked(&self, from: u32, to: u32, now_us: u64) -> bool {
        self.partitions
            .lock()
            .unwrap()
            .iter()
            .any(|p| p.blocks(from, to, now_us))
    }

    /// The fault rates in force on `from → to`.
    pub fn rates(&self, from: u32, to: u32) -> LinkFaults {
        self.link_overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_rates)
    }

    /// Decides the fate of frame number `seq` on `from → to` at `now_us`.
    ///
    /// Returns the extra delays (microseconds) of the copies to deliver: an
    /// empty vector means the frame is dropped; one entry is normal
    /// delivery; two entries is a duplicate. Deterministic in
    /// `(seed, from, to, seq)` — `now_us` only gates partitions.
    pub fn decide(&self, from: u32, to: u32, now_us: u64, seq: u64) -> Vec<u64> {
        if self.blocked(from, to, now_us) {
            return Vec::new();
        }
        let rates = self.rates(from, to);
        if rates.is_clean() {
            return vec![0];
        }
        let base = mix64(self.seed ^ mix64((u64::from(from) << 32) | u64::from(to)) ^ mix64(seq));
        if rates.drop > 0.0 && unit(base) < rates.drop {
            return Vec::new();
        }
        let mut delay = rates.extra_delay_us;
        if rates.reorder > 0.0 && rates.reorder_window_us > 0 {
            let r = mix64(base ^ 0xA5A5_A5A5_A5A5_A5A5);
            if unit(r) < rates.reorder {
                delay += mix64(r) % (rates.reorder_window_us + 1);
            }
        }
        let mut copies = vec![delay];
        if rates.duplicate > 0.0 {
            let d = mix64(base ^ 0x5A5A_5A5A_5A5A_5A5A);
            if unit(d) < rates.duplicate {
                copies.push(delay + mix64(d) % 1_000);
            }
        }
        copies
    }

    /// Microseconds elapsed since the injector was created; the wall-clock
    /// engines use this as `now_us` for partition and down-window checks.
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_injector_passes_everything() {
        let inj = FaultInjector::new(7);
        for seq in 0..100 {
            assert_eq!(inj.decide(0, 1, 0, seq), vec![0]);
        }
        assert!(!inj.blocked(0, 1, 0));
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let mut a = FaultInjector::new(1);
        let mut b = FaultInjector::new(1);
        let mut c = FaultInjector::new(2);
        let rates = LinkFaults {
            drop: 0.5,
            ..LinkFaults::default()
        };
        a.set_default_rates(rates);
        b.set_default_rates(rates);
        c.set_default_rates(rates);
        let fate = |inj: &FaultInjector| -> Vec<usize> {
            (0..256).map(|seq| inj.decide(2, 3, 0, seq).len()).collect()
        };
        assert_eq!(fate(&a), fate(&b));
        assert_ne!(fate(&a), fate(&c), "different seeds should diverge");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let mut inj = FaultInjector::new(99);
        inj.set_default_rates(LinkFaults {
            drop: 0.3,
            ..LinkFaults::default()
        });
        let dropped = (0..10_000)
            .filter(|&seq| inj.decide(0, 1, 0, seq).is_empty())
            .count();
        assert!((2500..3500).contains(&dropped), "got {dropped}");
    }

    #[test]
    fn duplicate_yields_two_copies() {
        let mut inj = FaultInjector::new(5);
        inj.set_default_rates(LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::default()
        });
        let copies = inj.decide(0, 1, 0, 42);
        assert_eq!(copies.len(), 2);
    }

    #[test]
    fn link_override_beats_default() {
        let mut inj = FaultInjector::new(3);
        inj.set_default_rates(LinkFaults {
            drop: 1.0,
            ..LinkFaults::default()
        });
        inj.set_link(4, 5, LinkFaults::default());
        assert!(inj.decide(0, 1, 0, 0).is_empty(), "default drops");
        assert_eq!(inj.decide(4, 5, 0, 0), vec![0], "override is clean");
    }

    #[test]
    fn partition_windows_and_directionality() {
        let mut inj = FaultInjector::new(0);
        inj.add_partition(Partition {
            a: BTreeSet::from([0, 1]),
            b: BTreeSet::from([2]),
            from_us: 100,
            until_us: 200,
            directed: false,
        });
        assert!(!inj.blocked(0, 2, 50), "before window");
        assert!(inj.blocked(0, 2, 150), "inside window");
        assert!(inj.blocked(2, 1, 150), "undirected cuts both ways");
        assert!(!inj.blocked(0, 1, 150), "same side stays connected");
        assert!(!inj.blocked(0, 2, 200), "window end is exclusive");

        inj.add_partition(Partition {
            a: BTreeSet::from([7]),
            b: BTreeSet::new(),
            from_us: 0,
            until_us: u64::MAX,
            directed: true,
        });
        assert!(inj.blocked(7, 3, 0), "wildcard b matches everyone else");
        assert!(!inj.blocked(3, 7, 0), "directed leaves reverse path");

        inj.clear_partitions();
        assert!(!inj.blocked(0, 2, 150));
        assert!(!inj.blocked(7, 3, 0));
    }

    #[test]
    fn node_down_windows() {
        let mut inj = FaultInjector::new(0);
        inj.set_node_down(3, 1_000, 2_000);
        inj.set_node_down(3, 5_000, u64::MAX);
        assert!(!inj.node_down(3, 500));
        assert!(inj.node_down(3, 1_500));
        assert!(!inj.node_down(3, 3_000));
        assert!(inj.node_down(3, 9_000_000));
        assert!(!inj.node_down(4, 1_500));
        assert_eq!(inj.down_windows(3).len(), 2);
        assert!(inj.down_windows(4).is_empty());
    }

    #[test]
    fn blocked_frames_are_dropped_regardless_of_rates() {
        let mut inj = FaultInjector::new(0);
        inj.add_partition(Partition {
            a: BTreeSet::from([0]),
            b: BTreeSet::from([1]),
            from_us: 0,
            until_us: u64::MAX,
            directed: false,
        });
        assert!(inj.decide(0, 1, 0, 0).is_empty());
        assert!(inj.decide(1, 0, 0, 0).is_empty());
        assert_eq!(inj.decide(0, 2, 0, 0), vec![0]);
    }
}
