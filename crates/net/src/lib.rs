//! # lhg-net
//!
//! Discrete-event message-passing substrate and reliable broadcast over LHG
//! overlays — the "distributed system" side of the reproduction.
//!
//! The flooding simulator in `lhg-flood` abstracts time into lockstep
//! rounds; this crate models the asynchronous reality the LHG paper targets:
//! processes on overlay nodes, links with latency and jitter, fail-stop
//! crashes at arbitrary times, and a flooding reliable-broadcast protocol
//! running on top.
//!
//! * [`message`] — the wire format ([`message::Message`], encoded over
//!   [`bytes::Bytes`]);
//! * [`codec`] — length-prefixed framing of messages over byte streams,
//!   used by the `lhg-runtime` TCP runtime;
//! * [`sim`] — the deterministic discrete-event simulator
//!   ([`sim::Simulation`], the [`sim::Process`] trait);
//! * [`broadcast`] — flooding reliable broadcast as a process
//!   ([`broadcast::FloodProcess`], [`broadcast::run_overlay_broadcast`]);
//! * [`reliable`] — per-link reliability (sequence numbers, cumulative
//!   ack + selective NACK, retransmit-on-timeout, backpressure) and
//!   anti-entropy summaries, so flooding's delivery guarantee survives
//!   lossy links ([`reliable::LinkSender`], [`reliable::ReliableFlooder`]);
//! * [`kept`] — encode buffers kept for reuse
//!   ([`kept::encode_reusing`]), so a sender's small frames stop allocating
//!   once the transport lets go of earlier ones;
//! * [`seen`] — capacity-capped dedup of seen broadcast ids
//!   ([`seen::SeenSet`]), bounding flooding state on long-lived nodes;
//! * [`fifo`] — per-origin broadcast ids ([`fifo::fifo_id`]);
//! * [`varint`] — the LEB128 integers of the frame head and the ack
//!   payload, one encoding per value.
//!
//! The same protocol runs on real sockets in `lhg-runtime`, which drives
//! the [`reliable::ReliableCore`] this crate's simulator adapter drives.
//!
//! # Example
//!
//! ```
//! use bytes::Bytes;
//! use lhg_core::ktree::build_ktree;
//! use lhg_graph::NodeId;
//! use lhg_net::broadcast::run_overlay_broadcast;
//! use lhg_net::sim::LinkModel;
//!
//! // Broadcast over a 3-connected LHG with 2 crashed processes.
//! let lhg = build_ktree(14, 3)?;
//! let report = run_overlay_broadcast(
//!     lhg.graph(),
//!     NodeId(0),
//!     Bytes::from_static(b"payload"),
//!     LinkModel::default(),
//!     &[(NodeId(3), 0), (NodeId(7), 0)],
//!     42,
//! );
//! assert!(report.all_correct_delivered());
//! # Ok::<(), lhg_core::LhgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod broadcast;
pub mod codec;
pub mod fault;
pub mod fifo;
pub mod kept;
pub mod message;
pub mod metrics;
pub mod reliable;
pub mod seen;
pub mod sim;
pub mod varint;
pub mod wirecost;
