//! Cluster-wide telemetry timeline over the per-node metrics registries.
//!
//! The [`lhg_net::metrics::MetricsRegistry`] answers "what are the totals
//! right now?"; this crate answers "what happened *when*". A
//! [`TelemetrySampler`] snapshots one registry on a fixed cadence into a
//! bounded ring of timestamped **deltas** — counter increments since the
//! previous sample, gauge levels, per-interval histogram bucket diffs
//! (via [`lhg_net::metrics::Histogram::delta_since`]), and per-class
//! wire-cost increments from the registry's
//! [`WireAccountant`](lhg_net::wirecost::WireAccountant), surfaced as
//! synthetic `wire.<class>.frames` / `wire.<class>.bytes` counter series.
//!
//! [`merge`] collates sample streams from many nodes into one [`Timeline`]
//! ordered by `(at_us, node, seq)`, which renders as JSONL
//! ([`Timeline::to_jsonl`]) and aggregates into per-second rates
//! ([`Timeline::rates`]). Time is whatever clock the engine runs on:
//! wall-clock µs for the TCP runtime (see
//! [`TelemetrySampler::spawn_periodic`]), virtual µs for the simulator
//! (see [`attach_to_sim`]) — the timeline machinery never looks at a real
//! clock itself.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhg_net::metrics::{HistogramCursor, HistogramDelta, MetricsRegistry};
use lhg_net::sim::Simulation;
use lhg_net::wirecost::{MessageClass, CLASS_COUNT};
use parking_lot::Mutex;

/// Default ring capacity: one hour of samples at a 1 s cadence.
pub const DEFAULT_CAPACITY: usize = 3600;

/// One node's registry deltas over one sampling interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Node (or stream) label this sample belongs to.
    pub node: String,
    /// Sample timestamp, µs on the engine's clock (wall or virtual).
    pub at_us: u64,
    /// Per-sampler sequence number (ties on `at_us` stay ordered).
    pub seq: u64,
    /// Counter increments since the previous sample (zero deltas are
    /// omitted). Includes the synthetic `wire.<class>.frames` /
    /// `wire.<class>.bytes` series from the wire-cost accountant.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels at sample time (levels, not deltas — gauges move
    /// both ways).
    pub gauges: Vec<(String, i64)>,
    /// Histogram deltas over the interval (empty deltas are omitted).
    pub histograms: Vec<(String, HistogramDelta)>,
}

impl Sample {
    /// Sum of a named counter's delta in this sample (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Renders the sample as a JSON-ready value tree (histograms are
    /// summarized to `count`/`sum`/`p50`/`p99`; the full bucket arrays
    /// stay in memory only).
    #[must_use]
    pub fn to_value(&self) -> serde::Value {
        let counters: Vec<(String, serde::Value)> = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), serde::Value::U64(*v)))
            .collect();
        let gauges: Vec<(String, serde::Value)> = self
            .gauges
            .iter()
            .map(|(n, v)| {
                let val = if *v >= 0 {
                    serde::Value::U64(*v as u64)
                } else {
                    serde::Value::I64(*v)
                };
                (n.clone(), val)
            })
            .collect();
        let histograms: Vec<(String, serde::Value)> = self
            .histograms
            .iter()
            .map(|(n, d)| {
                (
                    n.clone(),
                    serde::Value::Obj(vec![
                        ("count".to_owned(), serde::Value::U64(d.count)),
                        ("sum".to_owned(), serde::Value::U64(d.sum)),
                        ("p50".to_owned(), serde::Value::U64(d.percentile(0.50))),
                        ("p99".to_owned(), serde::Value::U64(d.percentile(0.99))),
                    ]),
                )
            })
            .collect();
        serde::Value::Obj(vec![
            ("node".to_owned(), serde::Value::Str(self.node.clone())),
            ("at_us".to_owned(), serde::Value::U64(self.at_us)),
            ("seq".to_owned(), serde::Value::U64(self.seq)),
            ("counters".to_owned(), serde::Value::Obj(counters)),
            ("gauges".to_owned(), serde::Value::Obj(gauges)),
            ("histograms".to_owned(), serde::Value::Obj(histograms)),
        ])
    }
}

/// Cadence sampler over one [`MetricsRegistry`]: every [`sample`] call
/// snapshots deltas since the previous call into a capacity-bounded ring
/// (oldest samples evicted first). Non-destructive: the registry's
/// cumulative totals are never reset, so concurrent readers (Prometheus
/// exposition, `snapshot_json`) are unaffected.
///
/// [`sample`]: TelemetrySampler::sample
#[derive(Debug)]
pub struct TelemetrySampler {
    node: String,
    registry: Arc<MetricsRegistry>,
    counter_cursors: BTreeMap<String, u64>,
    hist_cursors: BTreeMap<String, HistogramCursor>,
    wire_cursor: [(u64, u64); CLASS_COUNT],
    ring: VecDeque<Sample>,
    capacity: usize,
    seq: u64,
}

impl TelemetrySampler {
    /// Creates a sampler labeled `node` over `registry` with the
    /// [`DEFAULT_CAPACITY`] ring.
    #[must_use]
    pub fn new(node: impl Into<String>, registry: Arc<MetricsRegistry>) -> Self {
        Self::with_capacity(node, registry, DEFAULT_CAPACITY)
    }

    /// Creates a sampler with an explicit ring capacity (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(
        node: impl Into<String>,
        registry: Arc<MetricsRegistry>,
        capacity: usize,
    ) -> Self {
        assert!(capacity > 0, "sampler ring capacity must be positive");
        TelemetrySampler {
            node: node.into(),
            registry,
            counter_cursors: BTreeMap::new(),
            hist_cursors: BTreeMap::new(),
            wire_cursor: [(0, 0); CLASS_COUNT],
            ring: VecDeque::new(),
            capacity,
            seq: 0,
        }
    }

    /// The node label this sampler stamps on its samples.
    #[must_use]
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Takes one sample at `at_us`: counter and histogram deltas since
    /// the previous sample, current gauge levels, and wire-cost class
    /// increments. The sample is appended to the ring (evicting the
    /// oldest at capacity) and also returned.
    pub fn sample(&mut self, at_us: u64) -> Sample {
        let mut counters: Vec<(String, u64)> = Vec::new();
        for (name, c) in self.registry.counters() {
            let now = c.get();
            let prev = self.counter_cursors.insert(name.clone(), now).unwrap_or(0);
            let delta = now.wrapping_sub(prev);
            if delta > 0 {
                counters.push((name, delta));
            }
        }
        for (i, class) in MessageClass::ALL.into_iter().enumerate() {
            let totals = self.registry.wire().class_totals()[i];
            let (pf, pb) = self.wire_cursor[i];
            self.wire_cursor[i] = (totals.frames, totals.bytes);
            let (df, db) = (
                totals.frames.wrapping_sub(pf),
                totals.bytes.wrapping_sub(pb),
            );
            if df > 0 {
                counters.push((format!("wire.{}.frames", class.name()), df));
                counters.push((format!("wire.{}.bytes", class.name()), db));
            }
        }
        let gauges: Vec<(String, i64)> = self
            .registry
            .gauges()
            .into_iter()
            .map(|(name, g)| (name, g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramDelta)> = Vec::new();
        for (name, h) in self.registry.histograms() {
            let cursor = self.hist_cursors.entry(name.clone()).or_default();
            let delta = h.delta_since(cursor);
            if delta.count > 0 {
                histograms.push((name, delta));
            }
        }
        let sample = Sample {
            node: self.node.clone(),
            at_us,
            seq: self.seq,
            counters,
            gauges,
            histograms,
        };
        self.seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(sample.clone());
        sample
    }

    /// Samples currently held in the ring, oldest first.
    #[must_use]
    pub fn samples(&self) -> Vec<Sample> {
        self.ring.iter().cloned().collect()
    }

    /// Drains the ring, returning its samples oldest first.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        self.ring.drain(..).collect()
    }

    /// Number of samples in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when the ring holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Moves the sampler onto a background thread that samples every
    /// `interval` of wall-clock time (timestamps are µs since the spawn).
    /// [`PeriodicSampler::stop`] takes a final sample, joins the thread,
    /// and hands the sampler back with its ring intact — this is how the
    /// TCP cluster gets live sampling without the engine knowing about
    /// telemetry at all.
    #[must_use]
    pub fn spawn_periodic(mut self, interval: Duration) -> PeriodicSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let epoch = Instant::now();
            loop {
                std::thread::sleep(interval.min(Duration::from_millis(20)));
                let now_us = u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
                let due = self
                    .ring
                    .back()
                    .is_none_or(|s| now_us.saturating_sub(s.at_us) >= interval.as_micros() as u64);
                if stop_flag.load(Ordering::Relaxed) {
                    // Final flush so the tail interval is never lost.
                    self.sample(now_us);
                    return self;
                }
                if due {
                    self.sample(now_us);
                }
            }
        });
        PeriodicSampler { stop, handle }
    }
}

/// Handle to a sampler running on its own thread
/// (see [`TelemetrySampler::spawn_periodic`]).
#[derive(Debug)]
pub struct PeriodicSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<TelemetrySampler>,
}

impl PeriodicSampler {
    /// Stops the sampling thread (after one final flush sample) and
    /// returns the sampler with its ring intact.
    ///
    /// # Panics
    ///
    /// Panics if the sampling thread panicked.
    #[must_use]
    pub fn stop(self) -> TelemetrySampler {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread panicked")
    }
}

/// Arms `sim` to drive `sampler` on a virtual-time cadence of `every_us`:
/// the simulator calls back at each cadence boundary it crosses (plus a
/// final flush at end time), and the callback snapshots the registry with
/// the virtual timestamp. The shared handle keeps the sampler reachable
/// after the run for [`merge`].
pub fn attach_to_sim(sim: &mut Simulation, sampler: &Arc<Mutex<TelemetrySampler>>, every_us: u64) {
    let sampler = Arc::clone(sampler);
    sim.with_sampler(
        every_us,
        Box::new(move |at_us| {
            sampler.lock().sample(at_us);
        }),
    );
}

/// Collates sample streams from many nodes into one cluster-wide
/// [`Timeline`], ordered by `(at_us, node, seq)` — a deterministic total
/// order even when nodes sample at identical timestamps.
#[must_use]
pub fn merge(streams: Vec<Vec<Sample>>) -> Timeline {
    let mut samples: Vec<Sample> = streams.into_iter().flatten().collect();
    samples.sort_by(|a, b| (a.at_us, &a.node, a.seq).cmp(&(b.at_us, &b.node, b.seq)));
    Timeline { samples }
}

/// Aggregate rate of one series across a [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct RateRow {
    /// Series name (a counter name, e.g. `wire.data.bytes`).
    pub name: String,
    /// Total delta summed over every sample.
    pub total: u64,
    /// `total` per second of timeline span (0 when the span is empty).
    pub per_sec: f64,
}

/// A merged, time-ordered cluster telemetry timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    samples: Vec<Sample>,
}

impl Timeline {
    /// The samples, in `(at_us, node, seq)` order.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Time covered by the timeline, µs (0 for fewer than two samples).
    #[must_use]
    pub fn span_us(&self) -> u64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.at_us.saturating_sub(a.at_us),
            _ => 0,
        }
    }

    /// Sums every counter series across all samples.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for s in &self.samples {
            for (name, v) in &s.counters {
                *out.entry(name.clone()).or_insert(0u64) += v;
            }
        }
        out
    }

    /// Aggregate per-second rates for every counter series, in name
    /// order. Rates divide by the timeline span; a single-instant
    /// timeline reports totals with `per_sec = 0`.
    #[must_use]
    pub fn rates(&self) -> Vec<RateRow> {
        let span_secs = self.span_us() as f64 / 1e6;
        self.totals()
            .into_iter()
            .map(|(name, total)| RateRow {
                name,
                total,
                per_sec: if span_secs > 0.0 {
                    total as f64 / span_secs
                } else {
                    0.0
                },
            })
            .collect()
    }

    /// Merges every sampled delta of the named histogram across all
    /// samples (bucket-wise), so cluster-wide interval percentiles can
    /// be recomputed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramDelta {
        let mut out = HistogramDelta::empty();
        for s in &self.samples {
            for (n, d) in &s.histograms {
                if n == name {
                    out.merge(d);
                }
            }
        }
        out
    }

    /// One JSON object per sample, newline-delimited — the artifact
    /// format CI uploads and offline tooling greps.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&serde_json::to_string(&s.to_value()).expect("value trees render"));
            out.push('\n');
        }
        out
    }

    /// Compact JSON summary for embedding in per-run records (chaos
    /// `--json` lines): sample count, span, and total/rate per counter
    /// series.
    #[must_use]
    pub fn summary_value(&self) -> serde::Value {
        let rates: Vec<(String, serde::Value)> = self
            .rates()
            .into_iter()
            .map(|r| {
                (
                    r.name,
                    serde::Value::Obj(vec![
                        ("total".to_owned(), serde::Value::U64(r.total)),
                        ("per_sec".to_owned(), serde::Value::F64(r.per_sec)),
                    ]),
                )
            })
            .collect();
        serde::Value::Obj(vec![
            (
                "samples".to_owned(),
                serde::Value::U64(self.samples.len() as u64),
            ),
            ("span_us".to_owned(), serde::Value::U64(self.span_us())),
            ("series".to_owned(), serde::Value::Obj(rates)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(counts: &[(&str, u64)]) -> Arc<MetricsRegistry> {
        let reg = Arc::new(MetricsRegistry::new());
        for &(name, v) in counts {
            reg.counter(name).add(v);
        }
        reg
    }

    #[test]
    fn samples_report_deltas_not_totals() {
        let reg = reg_with(&[("msgs", 5)]);
        let mut s = TelemetrySampler::new("n0", Arc::clone(&reg));
        assert_eq!(s.sample(1000).counter("msgs"), 5);
        reg.counter("msgs").add(3);
        assert_eq!(s.sample(2000).counter("msgs"), 3);
        // Quiet interval: the series is omitted entirely.
        let quiet = s.sample(3000);
        assert!(quiet.counters.is_empty(), "{quiet:?}");
        // Cumulative total untouched by sampling.
        assert_eq!(reg.counter("msgs").get(), 8);
    }

    #[test]
    fn wire_series_surface_as_counters() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.wire().record(0, 1, 7, 100);
        reg.wire().record(0, 1, lhg_net::reliable::ACK_TAG | 1, 30);
        let mut s = TelemetrySampler::new("n0", Arc::clone(&reg));
        let first = s.sample(10);
        assert_eq!(first.counter("wire.data.frames"), 1);
        assert_eq!(first.counter("wire.data.bytes"), 100);
        assert_eq!(first.counter("wire.ack.bytes"), 30);
        reg.wire().record(1, 0, 8, 50);
        let second = s.sample(20);
        assert_eq!(second.counter("wire.data.bytes"), 50);
        assert_eq!(second.counter("wire.ack.frames"), 0, "quiet class omitted");
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let reg = reg_with(&[]);
        let mut s = TelemetrySampler::with_capacity("n0", reg, 3);
        for t in 0..5 {
            s.sample(t * 100);
        }
        let kept: Vec<u64> = s.samples().iter().map(|x| x.at_us).collect();
        assert_eq!(kept, vec![200, 300, 400]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn merge_orders_across_nodes_by_time_then_node_then_seq() {
        let reg = reg_with(&[]);
        let mut a = TelemetrySampler::new("a", Arc::clone(&reg));
        let mut b = TelemetrySampler::new("b", reg);
        // Interleaved and tied timestamps across two nodes.
        a.sample(100);
        b.sample(50);
        a.sample(200);
        b.sample(100); // ties with a@100: node breaks the tie
        b.sample(200);
        let tl = merge(vec![a.take_samples(), b.take_samples()]);
        let order: Vec<(u64, String)> = tl
            .samples()
            .iter()
            .map(|s| (s.at_us, s.node.clone()))
            .collect();
        assert_eq!(
            order,
            vec![
                (50, "b".to_owned()),
                (100, "a".to_owned()),
                (100, "b".to_owned()),
                (200, "a".to_owned()),
                (200, "b".to_owned()),
            ]
        );
        assert_eq!(tl.span_us(), 150);
    }

    #[test]
    fn merge_is_deterministic_under_stream_permutation() {
        let reg = reg_with(&[]);
        let mut a = TelemetrySampler::new("a", Arc::clone(&reg));
        let mut b = TelemetrySampler::new("b", reg);
        for t in [10u64, 20, 30] {
            a.sample(t);
            b.sample(t);
        }
        let (sa, sb) = (a.take_samples(), b.take_samples());
        let one = merge(vec![sa.clone(), sb.clone()]);
        let two = merge(vec![sb, sa]);
        assert_eq!(one.samples(), two.samples());
    }

    #[test]
    fn rates_divide_totals_by_span() {
        let reg = reg_with(&[]);
        let mut s = TelemetrySampler::new("n0", Arc::clone(&reg));
        s.sample(0);
        reg.counter("msgs").add(10);
        s.sample(500_000); // 0.5 s in
        reg.counter("msgs").add(10);
        s.sample(1_000_000); // 1 s span
        let tl = merge(vec![s.take_samples()]);
        let rates = tl.rates();
        let row = rates.iter().find(|r| r.name == "msgs").unwrap();
        assert_eq!(row.total, 20);
        assert!((row.per_sec - 20.0).abs() < 1e-9, "{}", row.per_sec);
    }

    #[test]
    fn timeline_histograms_remerge_for_cluster_percentiles() {
        let reg_a = Arc::new(MetricsRegistry::new());
        let reg_b = Arc::new(MetricsRegistry::new());
        reg_a.histogram("lat").record(10);
        reg_b.histogram("lat").record(5000);
        let mut a = TelemetrySampler::new("a", reg_a);
        let mut b = TelemetrySampler::new("b", reg_b);
        a.sample(100);
        b.sample(100);
        let tl = merge(vec![a.take_samples(), b.take_samples()]);
        let d = tl.histogram("lat");
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 5010);
        assert!(d.percentile(0.99) >= 5000);
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let reg = reg_with(&[("x", 1)]);
        let mut s = TelemetrySampler::new("n0", Arc::clone(&reg));
        reg.gauge("open").set(-2);
        reg.histogram("lat").record(42);
        s.sample(7);
        let tl = merge(vec![s.take_samples()]);
        let jsonl = tl.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        for line in jsonl.lines() {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v.field("node").and_then(serde::Value::as_str), Some("n0"));
            assert_eq!(v.field("at_us").and_then(serde::Value::as_u64), Some(7));
        }
        let summary = serde_json::to_string(&tl.summary_value()).unwrap();
        assert!(summary.contains("\"samples\""), "{summary}");
    }

    #[test]
    fn periodic_sampler_collects_and_flushes_on_stop() {
        let reg = reg_with(&[]);
        let sampler = TelemetrySampler::new("n0", Arc::clone(&reg));
        let handle = sampler.spawn_periodic(Duration::from_millis(10));
        reg.counter("msgs").add(4);
        std::thread::sleep(Duration::from_millis(40));
        let sampler = handle.stop();
        assert!(!sampler.is_empty(), "periodic samples were taken");
        let tl = merge(vec![sampler.samples()]);
        assert_eq!(tl.totals().get("msgs"), Some(&4), "final flush caught it");
    }

    #[test]
    fn sim_virtual_time_sampling_fires_on_cadence() {
        use bytes::Bytes;
        use lhg_core::ktree::build_ktree;
        use lhg_net::broadcast::FloodProcess;
        use lhg_net::sim::{LinkModel, Process};

        let overlay = build_ktree(8, 2).expect("builds");
        let reg = Arc::new(MetricsRegistry::new());
        let mut sim = Simulation::new(
            overlay.graph(),
            LinkModel {
                base_latency_us: 1000,
                jitter_us: 0,
            },
            1,
        );
        sim.with_metrics(Arc::clone(&reg));
        let sampler = Arc::new(Mutex::new(TelemetrySampler::new("sim", Arc::clone(&reg))));
        attach_to_sim(&mut sim, &sampler, 1000);
        let processes: Vec<Box<dyn Process>> = (0..8)
            .map(|v| -> Box<dyn Process> {
                if v == 0 {
                    Box::new(FloodProcess::origin(1, Bytes::from_static(b"hi")))
                } else {
                    Box::new(FloodProcess::relay())
                }
            })
            .collect();
        let report = sim.run(processes, 1_000_000);
        let sampler = Arc::try_unwrap(sampler)
            .expect("sim dropped its hook")
            .into_inner();
        let tl = merge(vec![sampler.samples()]);
        assert!(tl.samples().len() >= 2, "cadence fired during the run");
        // Virtual timestamps, strictly on the cadence grid (plus the
        // final flush at end time).
        for s in &tl.samples()[..tl.samples().len() - 1] {
            assert_eq!(s.at_us % 1000, 0, "off-cadence sample at {}", s.at_us);
        }
        // The sampled message total matches the engine's own report.
        assert_eq!(
            tl.totals().get("sim.messages_sent").copied().unwrap_or(0),
            report.messages_sent
        );
        // Wire-class series reconcile with the same totals.
        assert_eq!(
            tl.totals().get("wire.data.frames").copied().unwrap_or(0),
            report.messages_sent
        );
    }
}
