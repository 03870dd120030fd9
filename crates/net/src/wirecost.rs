//! Per-class, per-link wire-cost accounting.
//!
//! The metrics registry answers *how much* traffic an engine moved
//! (`*.messages_sent`, `*.bytes_sent`); this module answers *what the
//! traffic was for*. Every broadcast id in the workspace carries its
//! message class in the tag bits above [`MAX_MEMBERS`](crate::reliable)
//! (bit 56 and up), so a frame can be classified from its id alone — no
//! payload parsing on the hot path:
//!
//! | bit | class | stamped by |
//! |-----|-------|------------|
//! | 56  | byzantine echo/ready gossip | `lhg_byzantine::frame` |
//! | 57  | hello handshake | `lhg-runtime` wire |
//! | 58  | heartbeat | `lhg-runtime` wire |
//! | 59  | crash wave | `lhg-runtime` wire |
//! | 60  | join wave | `lhg-runtime` wire |
//! | 61  | reserved: an id carrying it is malformed | — |
//! | 62  | cumulative ack / NACK | [`crate::reliable`] |
//! | 63  | anti-entropy summary/pull | [`crate::reliable`] |
//! | none | flood data | everyone |
//!
//! This module is the canonical home of the tag bits the `lhg-net` crate
//! itself does not stamp (56–60): `lhg_byzantine::frame::BYZ_ID_TAG` and
//! the `lhg-runtime` wire constants re-derive theirs from here, so the id
//! space cannot silently fork across crates.
//!
//! A [`WireAccountant`] lives inside every
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) and is fed at the
//! exact code sites that already increment the engines' `messages_sent` /
//! `bytes_sent` counters — which is what makes the per-class totals match
//! those counters *exactly*, frame for frame and byte for byte.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::reliable::{ACK_TAG, SUMMARY_TAG};

/// Tag bit for Byzantine gossip ids (canonical definition;
/// `lhg_byzantine::frame::BYZ_ID_TAG` re-derives from here).
pub const BYZ_TAG: u64 = 1 << 56;
/// Tag bit for runtime hello handshakes (canonical; the runtime's wire
/// module re-derives from here).
pub const HELLO_TAG: u64 = 1 << 57;
/// Tag bit for runtime heartbeats.
pub const HEARTBEAT_TAG: u64 = 1 << 58;
/// Tag bit for runtime crash waves.
pub const CRASH_TAG: u64 = 1 << 59;
/// Tag bit for runtime join waves.
pub const JOIN_TAG: u64 = 1 << 60;
/// Reserved tag bit: it names no class, and no correct node stamps it, so
/// an id carrying it is malformed — never data.
pub const RESERVED_TAG: u64 = 1 << 61;

/// Every tag bit, the reserved one included. Ids stamp at most one class
/// bit; an id carrying two, or the reserved bit, is malformed
/// ([`MessageClass::classify_strict`]).
pub const CLASS_TAG_MASK: u64 = BYZ_TAG
    | HELLO_TAG
    | HEARTBEAT_TAG
    | CRASH_TAG
    | JOIN_TAG
    | RESERVED_TAG
    | ACK_TAG
    | SUMMARY_TAG;

/// What a frame on the wire is *for*, recovered from its broadcast id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Application flood data (no tag bits set).
    Data,
    /// Reliable-layer cumulative ack / selective NACK.
    Ack,
    /// Reliable-layer anti-entropy summary or pull.
    Summary,
    /// Failure-detector heartbeat.
    Heartbeat,
    /// Connection hello handshake.
    Hello,
    /// Crash gossip wave.
    Crash,
    /// Join gossip wave.
    Join,
    /// Byzantine echo/ready gossip.
    Byz,
}

/// Number of message classes.
pub const CLASS_COUNT: usize = 8;

impl MessageClass {
    /// Every class, in [`MessageClass::index`] order.
    pub const ALL: [MessageClass; CLASS_COUNT] = [
        MessageClass::Data,
        MessageClass::Ack,
        MessageClass::Summary,
        MessageClass::Heartbeat,
        MessageClass::Hello,
        MessageClass::Crash,
        MessageClass::Join,
        MessageClass::Byz,
    ];

    /// Classifies a broadcast id by its tag bits: the one mask and the one
    /// match every classifier in the workspace derives from (the runtime's
    /// `wire::classify` included). `None` for an id carrying more than one
    /// class bit, or [`RESERVED_TAG`] — no correct node stamps such an id,
    /// so receivers drop the frame as malformed instead of guessing which
    /// class was meant.
    #[must_use]
    pub fn classify_strict(broadcast_id: u64) -> Option<MessageClass> {
        Some(match broadcast_id & CLASS_TAG_MASK {
            0 => MessageClass::Data,
            ACK_TAG => MessageClass::Ack,
            SUMMARY_TAG => MessageClass::Summary,
            HEARTBEAT_TAG => MessageClass::Heartbeat,
            HELLO_TAG => MessageClass::Hello,
            CRASH_TAG => MessageClass::Crash,
            JOIN_TAG => MessageClass::Join,
            BYZ_TAG => MessageClass::Byz, // the low 56 bits are a digest
            _ => return None,
        })
    }

    /// The accounting view of [`MessageClass::classify_strict`]: total, so
    /// every frame an engine writes is booked somewhere — a malformed id
    /// (only a traitor sends one) lands under `byz`.
    #[must_use]
    pub fn classify(broadcast_id: u64) -> MessageClass {
        MessageClass::classify_strict(broadcast_id).unwrap_or(MessageClass::Byz)
    }

    /// Dense index into per-class tables.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in JSON and metric series.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MessageClass::Data => "data",
            MessageClass::Ack => "ack",
            MessageClass::Summary => "summary",
            MessageClass::Heartbeat => "heartbeat",
            MessageClass::Hello => "hello",
            MessageClass::Crash => "crash",
            MessageClass::Join => "join",
            MessageClass::Byz => "byz",
        }
    }
}

/// Frame and byte counters for each message class: a pair of fixed atomic
/// arrays, so recording never allocates or locks.
#[derive(Debug)]
pub struct ClassCounts {
    frames: [AtomicU64; CLASS_COUNT],
    bytes: [AtomicU64; CLASS_COUNT],
}

impl Default for ClassCounts {
    fn default() -> Self {
        ClassCounts {
            frames: [(); CLASS_COUNT].map(|()| AtomicU64::new(0)),
            bytes: [(); CLASS_COUNT].map(|()| AtomicU64::new(0)),
        }
    }
}

/// One class's totals within a [`ClassCounts`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassTotal {
    /// The message class.
    pub class: MessageClass,
    /// Frames recorded.
    pub frames: u64,
    /// Bytes recorded.
    pub bytes: u64,
}

impl ClassCounts {
    /// Records one frame of `bytes` bytes under `class`.
    pub fn record(&self, class: MessageClass, bytes: u64) {
        let i = class.index();
        self.frames[i].fetch_add(1, Ordering::Relaxed);
        self.bytes[i].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Current totals for every class, in [`MessageClass::ALL`] order.
    #[must_use]
    pub fn totals(&self) -> [ClassTotal; CLASS_COUNT] {
        let mut out = [ClassTotal {
            class: MessageClass::Data,
            frames: 0,
            bytes: 0,
        }; CLASS_COUNT];
        for (i, class) in MessageClass::ALL.into_iter().enumerate() {
            out[i] = ClassTotal {
                class,
                frames: self.frames[i].load(Ordering::Relaxed),
                bytes: self.bytes[i].load(Ordering::Relaxed),
            };
        }
        out
    }

    /// Sum of frames across all classes.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.frames.iter().map(|f| f.load(Ordering::Relaxed)).sum()
    }

    /// Sum of bytes across all classes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// Per-broadcast cost row: frames and bytes a single data broadcast put
/// on the wire (cluster-wide, all links).
#[derive(Debug, Default)]
struct BroadcastCost {
    frames: AtomicU64,
    bytes: AtomicU64,
}

/// Cap on distinct broadcast ids tracked per accountant; beyond it new
/// ids are counted in class totals but not per-broadcast (bounded
/// memory under chaos churn).
pub const MAX_TRACKED_BROADCASTS: usize = 4096;

/// Cluster-wide wire-cost table: frames and bytes per message class, per
/// directed link, and per data broadcast.
///
/// One accountant rides inside every
/// [`MetricsRegistry`](crate::metrics::MetricsRegistry); engines call
/// [`WireAccountant::record`] at the same site that increments their
/// `messages_sent` / `bytes_sent` counters, so the two views reconcile
/// exactly.
#[derive(Debug, Default)]
pub struct WireAccountant {
    totals: ClassCounts,
    links: RwLock<BTreeMap<(u32, u32), Arc<ClassCounts>>>,
    broadcasts: RwLock<BTreeMap<u64, Arc<BroadcastCost>>>,
}

impl WireAccountant {
    /// Creates an empty accountant.
    #[must_use]
    pub fn new() -> Self {
        WireAccountant::default()
    }

    /// Records one encoded frame of `bytes` bytes sent `from → to`,
    /// classified by its broadcast id. `bytes` should be whatever the
    /// engine's own byte counter adds for the same frame, so the views
    /// stay reconciled — on every engine [`crate::codec::frame_len`], the
    /// frame with its length prefix.
    pub fn record(&self, from: u32, to: u32, broadcast_id: u64, bytes: u64) {
        let class = MessageClass::classify(broadcast_id);
        self.totals.record(class, bytes);
        let link = {
            let links = self.links.read();
            links.get(&(from, to)).map(Arc::clone)
        };
        let link = link.unwrap_or_else(|| {
            Arc::clone(
                self.links
                    .write()
                    .entry((from, to))
                    .or_insert_with(|| Arc::new(ClassCounts::default())),
            )
        });
        link.record(class, bytes);
        if class == MessageClass::Data {
            let row = {
                let map = self.broadcasts.read();
                map.get(&broadcast_id).map(Arc::clone)
            };
            let row = match row {
                Some(r) => Some(r),
                None => {
                    let mut map = self.broadcasts.write();
                    if map.len() >= MAX_TRACKED_BROADCASTS && !map.contains_key(&broadcast_id) {
                        None
                    } else {
                        Some(Arc::clone(
                            map.entry(broadcast_id)
                                .or_insert_with(|| Arc::new(BroadcastCost::default())),
                        ))
                    }
                }
            };
            if let Some(row) = row {
                row.frames.fetch_add(1, Ordering::Relaxed);
                row.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Cluster-wide per-class totals.
    #[must_use]
    pub fn class_totals(&self) -> [ClassTotal; CLASS_COUNT] {
        self.totals.totals()
    }

    /// Total frames recorded across every class.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.totals.total_frames()
    }

    /// Total bytes recorded across every class.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.totals.total_bytes()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_frames() == 0
    }

    /// Per-link breakdown: every directed link that carried traffic, with
    /// its per-class totals, in `(from, to)` order.
    #[must_use]
    pub fn link_totals(&self) -> Vec<((u32, u32), [ClassTotal; CLASS_COUNT])> {
        self.links
            .read()
            .iter()
            .map(|(&link, counts)| (link, counts.totals()))
            .collect()
    }

    /// Per-broadcast cost rows `(broadcast_id, frames, bytes)` for data
    /// broadcasts, in id order. Control traffic never appears here.
    #[must_use]
    pub fn broadcast_costs(&self) -> Vec<(u64, u64, u64)> {
        self.broadcasts
            .read()
            .iter()
            .map(|(&id, c)| {
                (
                    id,
                    c.frames.load(Ordering::Relaxed),
                    c.bytes.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Renders the accountant as a JSON-ready tree:
    /// `{"total_frames": .., "total_bytes": .., "classes": {name:
    /// {"frames": .., "bytes": ..}}, "links": N}` — per-link rows are
    /// summarized to a count (the full matrix is O(links × classes);
    /// callers wanting it use [`WireAccountant::link_totals`]).
    #[must_use]
    pub fn to_value(&self) -> serde::Value {
        let classes: Vec<(String, serde::Value)> = self
            .class_totals()
            .iter()
            .filter(|t| t.frames > 0)
            .map(|t| {
                (
                    t.class.name().to_owned(),
                    serde::Value::Obj(vec![
                        ("frames".to_owned(), serde::Value::U64(t.frames)),
                        ("bytes".to_owned(), serde::Value::U64(t.bytes)),
                    ]),
                )
            })
            .collect();
        serde::Value::Obj(vec![
            (
                "total_frames".to_owned(),
                serde::Value::U64(self.total_frames()),
            ),
            (
                "total_bytes".to_owned(),
                serde::Value::U64(self.total_bytes()),
            ),
            ("classes".to_owned(), serde::Value::Obj(classes)),
            (
                "links".to_owned(),
                serde::Value::U64(self.links.read().len() as u64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_every_tag_bit() {
        assert_eq!(MessageClass::classify(42), MessageClass::Data);
        assert_eq!(MessageClass::classify(ACK_TAG | 7), MessageClass::Ack);
        assert_eq!(
            MessageClass::classify(SUMMARY_TAG | 7),
            MessageClass::Summary
        );
        assert_eq!(
            MessageClass::classify(HEARTBEAT_TAG | 7),
            MessageClass::Heartbeat
        );
        assert_eq!(MessageClass::classify(HELLO_TAG | 7), MessageClass::Hello);
        assert_eq!(
            MessageClass::classify(CRASH_TAG | (9 << 24) | 7),
            MessageClass::Crash
        );
        assert_eq!(
            MessageClass::classify(JOIN_TAG | (9 << 24) | 7),
            MessageClass::Join
        );
        // Byz ids are BYZ_TAG | 56-bit digest: any digest bits below 56.
        assert_eq!(
            MessageClass::classify(BYZ_TAG | 0x00ff_ffff_ffff_ffff),
            MessageClass::Byz
        );
    }

    #[test]
    fn two_class_bits_are_malformed_but_still_booked() {
        for id in [
            HELLO_TAG | HEARTBEAT_TAG | 3,
            BYZ_TAG | ACK_TAG,
            RESERVED_TAG | 7,
            u64::MAX,
        ] {
            assert_eq!(MessageClass::classify_strict(id), None);
            assert_eq!(MessageClass::classify(id), MessageClass::Byz);
        }
        // One bit each, in `MessageClass::ALL` order.
        let tags = [
            0,
            ACK_TAG,
            SUMMARY_TAG,
            HEARTBEAT_TAG,
            HELLO_TAG,
            CRASH_TAG,
            JOIN_TAG,
            BYZ_TAG,
        ];
        for (class, tag) in MessageClass::ALL.into_iter().zip(tags) {
            assert_eq!(MessageClass::classify_strict(tag | 5), Some(class));
        }
    }

    #[test]
    fn class_indices_are_dense_and_named() {
        for (i, class) in MessageClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
            assert!(!class.name().is_empty());
        }
    }

    #[test]
    fn totals_reconcile_with_links_and_broadcasts() {
        let acc = WireAccountant::new();
        acc.record(0, 1, 5, 100); // data broadcast 5
        acc.record(0, 1, 5, 100);
        acc.record(1, 2, 5, 120); // same broadcast, other link
        acc.record(0, 1, ACK_TAG | 1, 30);
        acc.record(2, 0, HEARTBEAT_TAG | 2, 25);

        assert_eq!(acc.total_frames(), 5);
        assert_eq!(acc.total_bytes(), 375);
        let by_class: BTreeMap<&str, (u64, u64)> = acc
            .class_totals()
            .iter()
            .map(|t| (t.class.name(), (t.frames, t.bytes)))
            .collect();
        assert_eq!(by_class["data"], (3, 320));
        assert_eq!(by_class["ack"], (1, 30));
        assert_eq!(by_class["heartbeat"], (1, 25));

        // Per-link rows sum back to the cluster totals.
        let links = acc.link_totals();
        assert_eq!(links.len(), 3);
        let link_frames: u64 = links
            .iter()
            .flat_map(|(_, t)| t.iter().map(|c| c.frames))
            .sum();
        let link_bytes: u64 = links
            .iter()
            .flat_map(|(_, t)| t.iter().map(|c| c.bytes))
            .sum();
        assert_eq!(link_frames, acc.total_frames());
        assert_eq!(link_bytes, acc.total_bytes());

        // Broadcast rows carry only data frames.
        assert_eq!(acc.broadcast_costs(), vec![(5, 3, 320)]);
    }

    #[test]
    fn broadcast_tracking_is_capped_but_totals_are_not() {
        let acc = WireAccountant::new();
        for id in 0..(MAX_TRACKED_BROADCASTS as u64 + 10) {
            acc.record(0, 1, id + 1, 10);
        }
        assert_eq!(acc.broadcast_costs().len(), MAX_TRACKED_BROADCASTS);
        assert_eq!(acc.total_frames(), MAX_TRACKED_BROADCASTS as u64 + 10);
    }

    #[test]
    fn to_value_renders_only_active_classes() {
        let acc = WireAccountant::new();
        acc.record(0, 1, 9, 50);
        let json = serde_json::to_string(&acc.to_value()).unwrap();
        assert!(json.contains("\"data\""), "{json}");
        assert!(!json.contains("\"heartbeat\""), "{json}");
        assert!(json.contains("\"total_bytes\":50") || json.contains("\"total_bytes\": 50"));
    }
}
