//! [`LinkSender`] against a reference model of its unacked window kept in
//! a `BTreeMap` (sequence → frame): random sequences of sends, acks with
//! NACKs (below the window, inside it, above `next_seq`, `u64::MAX`) and
//! sweeps, with a retry budget small enough that frames are given up
//! behind older ones still in flight. The frames each call puts on the
//! wire, `in_flight`, `queued`, `given_up` and finally `take_undelivered`
//! must match the model's step for step.

use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroU64;

use bytes::Bytes;
use lhg_net::message::Message;
use lhg_net::reliable::{LinkSender, ReliableConfig};
use proptest::prelude::*;

/// One frame in the model's window.
struct Frame {
    id: u64,
    last_tx_us: u64,
    retries: u32,
}

/// The window as a sorted map, the queue as the ids parked behind it.
#[derive(Default)]
struct Model {
    next_seq: u64,
    unacked: BTreeMap<u64, Frame>,
    queued: VecDeque<u64>,
    given_up: u64,
}

/// `(broadcast id, link seq)` of each frame put on the wire.
type Wire = Vec<(u64, Option<u64>)>;

impl Model {
    fn stamp(&mut self, id: u64, now: u64, out: &mut Wire) {
        self.next_seq += 1;
        let frame = Frame {
            id,
            last_tx_us: now,
            retries: 0,
        };
        self.unacked.insert(self.next_seq, frame);
        out.push((id, Some(self.next_seq)));
    }

    fn drain(&mut self, cfg: &ReliableConfig, now: u64, out: &mut Wire) {
        while self.unacked.len() < cfg.window {
            let Some(id) = self.queued.pop_front() else {
                break;
            };
            self.stamp(id, now, out);
        }
    }

    fn send(&mut self, id: u64, cfg: &ReliableConfig, now: u64) -> Wire {
        let mut out = Vec::new();
        if self.unacked.len() < cfg.window {
            self.stamp(id, now, &mut out);
        } else {
            if self.queued.len() >= cfg.queue_cap {
                self.queued.pop_front();
                self.given_up += 1;
            }
            self.queued.push_back(id);
        }
        out
    }

    fn on_ack(&mut self, cum: u64, nacks: &[u64], cfg: &ReliableConfig, now: u64) -> Wire {
        let mut out = Vec::new();
        self.unacked.retain(|&seq, _| seq > cum);
        for s in nacks {
            let budget = cfg.max_retries;
            if let Some(f) = self.unacked.get_mut(s).filter(|f| f.retries < budget) {
                f.retries += 1;
                f.last_tx_us = now;
                out.push((f.id, Some(*s)));
            }
        }
        self.drain(cfg, now, &mut out);
        out
    }

    fn sweep(&mut self, cfg: &ReliableConfig, now: u64) -> Wire {
        let mut out = Vec::new();
        let mut given_up = 0;
        self.unacked.retain(|&seq, f| {
            if now.saturating_sub(f.last_tx_us) < cfg.rto_us {
                return true;
            }
            if f.retries >= cfg.max_retries {
                given_up += 1;
                return false;
            }
            f.retries += 1;
            f.last_tx_us = now;
            out.push((f.id, Some(seq)));
            true
        });
        self.given_up += given_up;
        self.drain(cfg, now, &mut out);
        out
    }

    fn take_undelivered(&mut self) -> Wire {
        let unacked = self.unacked.values().map(|f| f.id);
        let out = unacked.chain(self.queued.iter().copied());
        let out = out.map(|id| (id, None)).collect();
        *self = Model::default();
        out
    }
}

fn wire(frames: Vec<Message>) -> Wire {
    (frames.iter())
        .map(|m| (m.broadcast_id, m.link_seq.map(NonZeroU64::get)))
        .collect()
}

/// One step: `kind` picks send / ack / sweep, `time` advances the clock,
/// `cum` and `nacks` are placed relative to the sender's window (see
/// [`place`]).
type Step = (u8, u64, u64, Vec<u64>);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        0u8..6,
        0u64..60,
        0u64..16,
        proptest::collection::vec(0u64..16, 0..5),
    );
    proptest::collection::vec(step, 1..120)
}

/// A sequence number near the window: mostly inside it, sometimes below
/// its base or above `next_seq`, and now and then `u64::MAX`.
fn place(raw: u64, next_seq: u64) -> u64 {
    match raw {
        15 => u64::MAX,
        _ => (next_seq + 3).saturating_sub(raw),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_window_ring_matches_a_sorted_map_step_for_step(
        window in 2usize..7,
        max_retries in 0u32..3,
        steps in steps(),
    ) {
        let cfg = ReliableConfig {
            window,
            rto_us: 100,
            max_retries,
            queue_cap: 4,
            ..ReliableConfig::default()
        };
        let (mut tx, mut model) = (LinkSender::new(), Model::default());
        let mut now = 0;
        for (i, (kind, dt, cum, nacks)) in steps.into_iter().enumerate() {
            now += dt;
            let (got, want) = match kind {
                0..=2 => {
                    let id = i as u64 + 1;
                    let msg = Message::new(id, 0, Bytes::from_static(b"m"));
                    (wire(tx.send(msg, &cfg, now).into_iter().collect()), model.send(id, &cfg, now))
                }
                3 | 4 => {
                    let cum = place(cum, model.next_seq).min(model.next_seq);
                    let nacks: Vec<u64> = nacks.iter().map(|&n| place(n, model.next_seq)).collect();
                    (wire(tx.on_ack(cum, &nacks, &cfg, now)), model.on_ack(cum, &nacks, &cfg, now))
                }
                _ => (wire(tx.sweep(&cfg, now)), model.sweep(&cfg, now)),
            };
            prop_assert_eq!(got, want, "step {}", i);
            prop_assert_eq!(tx.in_flight(), model.unacked.len(), "step {}", i);
            prop_assert_eq!(tx.queued(), model.queued.len(), "step {}", i);
            prop_assert_eq!(tx.given_up(), model.given_up, "step {}", i);
        }
        prop_assert_eq!(wire(tx.take_undelivered()), model.take_undelivered());
        prop_assert_eq!(tx.in_flight() + tx.queued(), 0);
    }
}
