//! What a frame costs the reliable plane and the simulator under it,
//! measured with a counting allocator: nothing, once warm.
//!
//! * Deciding a frame's fate ([`FaultInjector::decide`]) under drop,
//!   duplicate and reorder allocates nothing: the copies come back inline.
//!   When they came back in a `Vec`, the 10,000 decisions below made 8,792
//!   allocations, one for each that let a copy through.
//! * Two [`ReliableCore`]s past warm-up exchange data and every kind of
//!   control frame — acks with NACKs and clean ones, the retransmissions
//!   the NACKs draw, adverts, pulls, the data serving them and held lists
//!   — and allocate nothing at all. When each ack, advert, pull and held
//!   list was encoded into a fresh buffer, an ack was decoded into a `Vec`
//!   of NACKs and the sender's ack path returned a `Vec`, the 100 rounds
//!   below made 1,100 allocations for 800 control and 400 data frames:
//!   1.4 per control frame.
//! * Two cores past warm-up flood bursts of data frames at each other over
//!   a link that loses a fifth of every kind of frame and shuffles the
//!   rest: the window runs full and queues behind it, NACKs draw
//!   retransmissions, out-of-order arrivals wait above their holes, the
//!   pull store evicts past `store_cap` and dedup forgets an id for each
//!   it takes in — and nothing is allocated. While the unacked window was
//!   a `BTreeMap` and the out-of-order set a `BTreeSet`, the 25 rounds
//!   below (6,064 data frames) made 1,097 allocations: 610 window nodes
//!   and 487 set nodes.
//!
//! The counting allocator is why this is an integration test (the crates
//! themselves forbid `unsafe`) and why it is a single `#[test]`: no other
//! test thread may allocate while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bytes::Bytes;
use lhg_net::fault::{FaultInjector, LinkFaults};
use lhg_net::message::Message;
use lhg_net::reliable::{ReliableConfig, ReliableCore, Sends, ACK_TAG, SUMMARY_TAG};
use lhg_net::seen::SeenSet;
use lhg_net::varint::read_u64;

/// An ack payload's cumulative point and NACK count: its first two varints.
fn ack_head(payload: &[u8]) -> (u64, u64) {
    let mut raw = payload;
    let cum = read_u64(&mut raw).expect("an ack payload");
    (cum, read_u64(&mut raw).expect("an ack payload"))
}

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// around it touches only an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, old: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(old, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it performed.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (out, ALLOCS.load(Relaxed) - before)
}

#[test]
fn the_reliable_plane_allocates_nothing_per_frame_once_warm() {
    fault_decisions_allocate_nothing();
    control_frames_allocate_nothing();
    data_frames_allocate_nothing();
}

/// 10,000 decisions on the benchmark's lossy rates.
fn fault_decisions_allocate_nothing() {
    let mut inj = FaultInjector::new(7);
    inj.set_default_rates(LinkFaults {
        drop: 0.2,
        duplicate: 0.1,
        reorder: 0.2,
        reorder_window_us: 3_000,
        ..LinkFaults::default()
    });
    let (copies, all) = allocs_in(|| {
        (0..10_000u64)
            .map(|seq| black_box(inj.decide((seq % 16) as u32, 16, seq, seq)).len())
            .sum::<usize>()
    });
    assert!((8_500..9_500).contains(&copies), "{copies} copies");
    assert_eq!(all, 0, "FaultInjector::decide");
}

/// Node A and node B, reliable over the link between them. A's upstream
/// peer U hands A ids that B lacks (so A advertises, B pulls and A serves);
/// B's upstream peer V hands B one of those ids first (so B owes A a held
/// list). Frames to U and V — A's and B's acks — fall on the floor.
const A: u32 = 0;
const B: u32 = 1;
const U: u32 = 2;
const V: u32 = 3;

/// What crossed the link, by kind.
#[derive(Debug, Default)]
struct Tally {
    data: u64,
    retransmits: u64,
    nack_acks: u64,
    clean_acks: u64,
    adverts: u64,
    pulls: u64,
    held: u64,
}

impl Tally {
    fn control(&self) -> u64 {
        self.nack_acks + self.clean_acks + self.adverts + self.pulls + self.held
    }
}

struct Node {
    core: ReliableCore<u32>,
    seen: SeenSet,
    peers: Vec<u32>,
    /// Link sequence of the next frame from this node's upstream peer.
    upstream_seq: u64,
}

struct Pair {
    nodes: [Node; 2],
    out: Sends<u32>,
    /// `(from, to, frame)` on the wire.
    wire: VecDeque<(u32, u32, Message)>,
    /// Data frames with this id on their way to B are lost once.
    lose: Option<u64>,
    /// `(to, link seq)` of every data frame sent, to tell retransmissions.
    sent: HashSet<(u32, u64)>,
    tally: Tally,
    allocs: usize,
    now: u64,
}

impl Pair {
    fn new() -> Self {
        let node = |me: u32, peers: Vec<u32>| Node {
            core: ReliableCore::new(ReliableConfig::default(), me, ACK_TAG, SUMMARY_TAG),
            seen: SeenSet::new(256),
            peers,
            upstream_seq: 0,
        };
        Pair {
            nodes: [node(A, vec![B]), node(B, vec![A])],
            out: Vec::with_capacity(64),
            wire: VecDeque::with_capacity(64),
            lose: None,
            sent: HashSet::new(),
            tally: Tally::default(),
            allocs: 0,
            now: 0,
        }
    }

    /// Runs `f` on `at`'s core, counting what it allocates, and puts what
    /// it sent on the wire.
    fn on(
        &mut self,
        at: u32,
        f: impl FnOnce(&mut ReliableCore<u32>, &mut SeenSet, &[u32], &mut Sends<u32>, u64),
    ) {
        let (node, out, now) = (&mut self.nodes[at as usize], &mut self.out, self.now);
        let ((), allocs) = allocs_in(|| f(&mut node.core, &mut node.seen, &node.peers, out, now));
        self.allocs += allocs;
        for (to, msg) in self.out.drain(..) {
            self.wire.push_back((at, to, msg));
        }
    }

    /// Hands every frame on the wire to its receiver, and what that sends
    /// in turn, until the wire is empty.
    fn settle(&mut self) {
        while let Some((from, to, msg)) = self.wire.pop_front() {
            self.book(to, &msg);
            if to > B || (to == B && self.lose.take_if(|id| *id == msg.broadcast_id).is_some()) {
                continue;
            }
            self.on(to, |core, seen, peers, out, now| match msg.broadcast_id {
                ACK_TAG => core.on_ack(from, msg.payload, now, out),
                SUMMARY_TAG => {
                    core.on_summary(from, msg.payload, seen, now, out);
                }
                _ => {
                    let peers = peers.iter().copied();
                    core.on_data(from, &msg, seen, now, peers, out);
                }
            });
        }
    }

    fn book(&mut self, to: u32, msg: &Message) {
        let t = &mut self.tally;
        match (msg.broadcast_id, msg.payload.first()) {
            (ACK_TAG, _) if ack_head(&msg.payload).1 == 0 => t.clean_acks += 1,
            (ACK_TAG, _) => t.nack_acks += 1,
            (SUMMARY_TAG, Some(0)) => t.adverts += 1,
            (SUMMARY_TAG, Some(1)) => t.pulls += 1,
            (SUMMARY_TAG, _) => t.held += 1,
            _ => {
                let seq = msg.link_seq.expect("a data frame is stamped").get();
                t.data += 1;
                if !self.sent.insert((to, seq)) {
                    t.retransmits += 1;
                }
            }
        }
    }

    /// A frame with id `id` from `at`'s upstream peer, whose tree goes on
    /// to nobody: the other node learns of it only from adverts.
    fn hear_upstream(&mut self, at: u32, id: u64) {
        let upstream = if at == A { U } else { V };
        let node = &mut self.nodes[at as usize];
        node.upstream_seq += 1;
        let msg = Message::new(id, upstream, Bytes::from_static(b"body"))
            .with_link_seq(node.upstream_seq);
        self.on(at, |core, seen, _, out, now| {
            core.on_data(upstream, &msg, seen, now, [], out);
        });
    }

    /// Advances the clock by `us`, then every node's reliability tick.
    fn tick(&mut self, us: u64) {
        self.now += us;
        for at in [A, B] {
            self.on(at, |core, _, peers, out, now| {
                core.tick(now, peers.iter().copied().chain([U, V]), out);
            });
        }
        self.settle();
    }

    /// One round, 100 ms: A originates x (lost on the way to B) and y;
    /// B's NACK draws x again; U hands A ids w and z, and V hands B w; A's
    /// advert draws B's pull of z, which A serves, and B's held list of w.
    fn round(&mut self, r: u64) {
        let [x, y, w, z] = [1, 2, 3, 4].map(|k| (r << 8) | k);
        self.lose = Some(x);
        for id in [x, y] {
            let msg = Message::new(id, A, Bytes::from_static(b"body"));
            self.on(A, |core, seen, peers, out, now| {
                seen.insert(id);
                core.originate(&msg, now, peers.iter().copied(), out);
            });
        }
        self.settle();
        self.tick(1_000); // B's NACK, A's retransmission
        self.hear_upstream(B, w);
        self.hear_upstream(A, w);
        self.hear_upstream(A, z);
        self.tick(9_000); // the acks owed
        self.on(A, |core, _, peers, out, _| {
            core.advertise(peers.iter().copied(), out);
        });
        self.settle(); // the pull, served
        self.on(B, |core, _, _, out, _| {
            core.answer(A, out);
        });
        self.settle();
        for _ in 0..9 {
            self.tick(10_000);
        }
    }
}

/// Warm-up: the core's hash tables reach the size they keep. Growth and
/// the one resize that tombstones force on each come within the first 850
/// rounds (seen over eight runs; where, depends on the hasher's seed).
const WARM_ROUNDS: u64 = 3_000;

fn control_frames_allocate_nothing() {
    let mut pair = Pair::new();
    for r in 0..WARM_ROUNDS {
        pair.round(r);
    }
    pair.tally = Tally::default();
    pair.allocs = 0;
    for r in WARM_ROUNDS..WARM_ROUNDS + 100 {
        pair.round(r);
    }
    let t = &pair.tally;
    assert_eq!(t.retransmits, 100, "one NACKed frame a round: {t:?}");
    for (kind, n) in [
        ("acks with NACKs", t.nack_acks),
        ("clean acks", t.clean_acks),
        ("adverts", t.adverts),
        ("pulls", t.pulls),
        ("held lists", t.held),
    ] {
        assert!(n >= 100, "{n} {kind} in 100 rounds: {t:?}");
    }
    assert_eq!(
        pair.allocs,
        0,
        "{} allocations for {} control and {} data frames",
        pair.allocs,
        t.control(),
        t.data
    );
}

/// Deterministic coin flips and shuffles for the lossy wire (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `true` with probability `pct` %.
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

/// What the lossy wire saw, to show each path of the data plane ran.
#[derive(Debug, Default)]
struct Traffic {
    data: u64,
    retransmits: u64,
    nack_acks: u64,
    /// Data frames that arrived above a hole in their link's sequence.
    out_of_order: u64,
    /// The most frames a sender had stamped past the last ack it got.
    deepest: u64,
}

/// Nodes A and B flood bursts at each other over one link that drops and
/// reorders every kind of frame.
struct Lossy {
    nodes: [Node; 2],
    out: Sends<u32>,
    wire: Vec<(u32, u32, Message)>,
    batch: Vec<(u32, u32, Message)>,
    rng: Rng,
    /// Per sender: the last sequence it stamped, the last cumulative ack it
    /// got, and every sequence it sent (to tell retransmissions).
    stamped: [u64; 2],
    acked: [u64; 2],
    sent: [HashSet<u64>; 2],
    /// Per receiver: the highest sequence that has arrived.
    highest: [u64; 2],
    traffic: Traffic,
    allocs: usize,
    now: u64,
    next_id: u64,
}

/// Frames each node originates per round: more than the window of 64, so
/// the window fills and the rest queue behind it.
const BURST: u64 = 80;
/// Dedup's size: small, so that warm-up fills it and it then evicts one
/// id for each it takes in, as a node's does in a long run.
const SEEN_CAP: usize = 1_024;

impl Lossy {
    fn new() -> Self {
        let node = |me: u32, peer: u32| Node {
            core: ReliableCore::new(ReliableConfig::default(), me, ACK_TAG, SUMMARY_TAG),
            seen: SeenSet::new(SEEN_CAP),
            peers: vec![peer],
            upstream_seq: 0,
        };
        Lossy {
            nodes: [node(A, B), node(B, A)],
            out: Vec::with_capacity(1_024),
            wire: Vec::with_capacity(4_096),
            batch: Vec::with_capacity(4_096),
            rng: Rng(35),
            stamped: [0; 2],
            acked: [0; 2],
            sent: [HashSet::new(), HashSet::new()],
            highest: [0; 2],
            traffic: Traffic::default(),
            allocs: 0,
            now: 0,
            next_id: 1,
        }
    }

    /// Runs `f` on `at`'s core, counting what it allocates, and puts what
    /// it sent on the wire.
    fn on(
        &mut self,
        at: u32,
        f: impl FnOnce(&mut ReliableCore<u32>, &mut SeenSet, &[u32], &mut Sends<u32>, u64),
    ) {
        let (node, out, now) = (&mut self.nodes[at as usize], &mut self.out, self.now);
        let ((), allocs) = allocs_in(|| f(&mut node.core, &mut node.seen, &node.peers, out, now));
        self.allocs += allocs;
        for (to, msg) in self.out.drain(..) {
            if let Some(seq) = msg.link_seq {
                let (seq, s) = (seq.get(), at as usize);
                self.stamped[s] = self.stamped[s].max(seq);
                if !self.sent[s].insert(seq) {
                    self.traffic.retransmits += 1;
                }
                let depth = self.stamped[s] - self.acked[s];
                self.traffic.deepest = self.traffic.deepest.max(depth);
            }
            self.wire.push((at, to, msg));
        }
    }

    /// Delivers what is on the wire, a fifth of it lost and the rest in a
    /// shuffled order, and what that sends in turn, until the wire is empty.
    fn settle(&mut self) {
        while !self.wire.is_empty() {
            let mut batch = std::mem::replace(&mut self.wire, std::mem::take(&mut self.batch));
            for i in (1..batch.len()).rev() {
                let j = (self.rng.next() % (i as u64 + 1)) as usize;
                batch.swap(i, j);
            }
            for (from, to, msg) in batch.drain(..) {
                if !self.rng.chance(20) {
                    self.deliver(from, to, msg);
                }
            }
            self.batch = batch;
        }
    }

    fn deliver(&mut self, from: u32, to: u32, msg: Message) {
        let t = to as usize;
        if msg.broadcast_id == ACK_TAG {
            let (cum, nacks) = ack_head(&msg.payload);
            self.acked[t] = self.acked[t].max(cum);
            if nacks != 0 {
                self.traffic.nack_acks += 1;
            }
            self.on(to, |core, _, _, out, now| {
                core.on_ack(from, msg.payload, now, out)
            });
            return;
        }
        let seq = msg.link_seq.expect("only data frames and acks cross").get();
        self.traffic.data += 1;
        if seq > self.highest[t] + 1 {
            self.traffic.out_of_order += 1;
        }
        self.highest[t] = self.highest[t].max(seq);
        if let Some(cum) = msg.link_ack {
            self.acked[t] = self.acked[t].max(cum.get());
        }
        self.on(to, |core, seen, peers, out, now| {
            core.on_data(from, &msg, seen, now, peers.iter().copied(), out);
        });
    }

    /// One round, 30 ms: both nodes originate a burst, then three ticks
    /// 10 ms apart send the NACKs, the retransmissions and the acks owed.
    fn round(&mut self) {
        for at in [A, B] {
            for _ in 0..BURST {
                let id = self.next_id;
                self.next_id += 1;
                let msg = Message::new(id, at, Bytes::from_static(b"body"));
                self.on(at, |core, seen, peers, out, now| {
                    seen.insert(id);
                    core.originate(&msg, now, peers.iter().copied(), out);
                });
            }
        }
        self.settle();
        for _ in 0..3 {
            self.now += 10_000;
            for at in [A, B] {
                self.on(at, |core, _, peers, out, now| {
                    core.tick(now, peers.iter().copied(), out);
                });
            }
            self.settle();
        }
    }
}

/// Warm-up: dedup fills (each round brings 160 ids to each node), and the
/// hash tables and rings reach the size they keep.
const DATA_WARM_ROUNDS: u64 = 500;

fn data_frames_allocate_nothing() {
    let mut lossy = Lossy::new();
    for _ in 0..DATA_WARM_ROUNDS {
        lossy.round();
    }
    lossy.traffic = Traffic::default();
    lossy.allocs = 0;
    for _ in 0..25 {
        lossy.round();
    }
    let s = &lossy.traffic;
    assert!(s.data >= 3_000, "{s:?}");
    assert!(s.deepest >= 64, "the window ran full: {s:?}");
    assert!(s.retransmits >= 300 && s.nack_acks >= 50, "{s:?}");
    assert!(s.out_of_order >= 250, "{s:?}");
    assert_eq!(
        lossy.allocs, 0,
        "{} allocations for {} data frames: {s:?}",
        lossy.allocs, s.data
    );
}
