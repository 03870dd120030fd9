//! Lock-light metrics registry shared by the simulators and the TCP
//! runtime.
//!
//! Three instrument kinds cover what the experiments need:
//!
//! * [`Counter`] — monotone event counts (messages sent, bytes on wire,
//!   reconnects);
//! * [`Gauge`] — instantaneous values that move both ways (open
//!   connections, live members);
//! * [`Histogram`] — latency distributions in log₂ buckets (broadcast
//!   delivery time, reconnect time), with approximate percentiles.
//!
//! Instruments are plain atomics behind `Arc`s, so recording never takes a
//! lock; the registry's `parking_lot::RwLock` maps are touched only on
//! first registration and on snapshot. [`MetricsRegistry::snapshot`]
//! renders everything into a [`serde::Value`] tree, which
//! `serde_json::to_string_pretty` turns into the JSON the CLI and the
//! examples print.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: values up to 2⁶³ land in a bucket.
const BUCKETS: usize = 64;

/// A latency/size distribution in log₂ buckets.
///
/// `record(v)` files `v` under bucket `⌈log₂(v+1)⌉`; percentiles are
/// reported as the upper bound of the bucket containing the rank, which is
/// within 2× of the true value — plenty for the order-of-magnitude
/// comparisons the experiments make.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        // `u64::MAX` has no leading zeros, which would index one past the
        // last bucket — saturate into it instead of panicking.
        ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i).wrapping_sub(1).max(1)
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Observations and sum accumulated since `cursor` was last advanced,
    /// without disturbing the histogram (concurrent writers keep
    /// recording; other readers see cumulative totals as before). The
    /// cursor is advanced to the levels read, so consecutive calls
    /// partition the stream into non-overlapping intervals — this is what
    /// lets a sampler report per-interval rates instead of
    /// cumulative-only values.
    ///
    /// Bucket counts are diffed per bucket; `min`/`max` are lifetime
    /// values (atomics cannot be rewound per-interval) and are not part
    /// of the delta.
    pub fn delta_since(&self, cursor: &mut HistogramCursor) -> HistogramDelta {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let now = b.load(Ordering::Relaxed);
            buckets[i] = now.wrapping_sub(cursor.buckets[i]);
            cursor.buckets[i] = now;
            count = count.wrapping_add(buckets[i]);
        }
        let sum_now = self.sum.load(Ordering::Relaxed);
        let sum = sum_now.wrapping_sub(cursor.sum);
        cursor.sum = sum_now;
        HistogramDelta {
            buckets,
            count,
            sum,
        }
    }

    /// A consistent-enough point-in-time summary.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        };
        let max = self.max.load(Ordering::Relaxed);
        // A percentile can never fall outside the observed range, so clamp
        // the bucket upper bound into [min, max]: a single recorded 0 yields
        // p50 = 0 (not the phantom bucket edge), and a single 5 yields 5.
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::bucket_upper(i).clamp(min, max);
                }
            }
            max
        };
        HistogramSummary {
            count,
            sum,
            min,
            max,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
        }
    }
}

/// Reader-side position into a [`Histogram`]: the bucket levels seen at
/// the last [`Histogram::delta_since`] call. One cursor per reader; the
/// histogram itself is never reset.
#[derive(Debug, Clone)]
pub struct HistogramCursor {
    buckets: [u64; BUCKETS],
    sum: u64,
}

impl Default for HistogramCursor {
    fn default() -> Self {
        HistogramCursor {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramCursor {
    /// A cursor positioned at zero (the first `delta_since` reads the
    /// full history).
    #[must_use]
    pub fn new() -> Self {
        HistogramCursor::default()
    }
}

/// Observations accumulated over one sampling interval, produced by
/// [`Histogram::delta_since`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramDelta {
    /// Per-bucket observation counts for the interval (log₂ buckets,
    /// same layout as the histogram itself).
    pub buckets: [u64; BUCKETS],
    /// Observations in the interval.
    pub count: u64,
    /// Sum of observed values in the interval.
    pub sum: u64,
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Approximate 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Approximate 90th percentile (bucket upper bound).
    pub p90: u64,
    /// Approximate 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// Registry of named instruments.
///
/// Clone the `Arc`-wrapped instruments out of the registry once and record
/// through them on hot paths; `get-or-create` takes the write lock only on
/// first use of a name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    wire: Arc<crate::wirecost::WireAccountant>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// The registry's wire-cost accountant: per-class / per-link / per-
    /// broadcast frame and byte counts (see [`crate::wirecost`]). Engines
    /// feed it at the same sites as their `messages_sent` / `bytes_sent`
    /// counters; returned as an `Arc` so send paths on other threads can
    /// record without holding the registry.
    #[must_use]
    pub fn wire(&self) -> Arc<crate::wirecost::WireAccountant> {
        Arc::clone(&self.wire)
    }

    /// All registered counters, as `(name, instrument)` pairs in name
    /// order. Samplers iterate these to diff against their cursors.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, Arc<Counter>)> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// All registered gauges, as `(name, instrument)` pairs in name order.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, Arc<Gauge>)> {
        self.gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// All registered histograms, as `(name, instrument)` pairs in name
    /// order.
    #[must_use]
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Renders every instrument into a JSON-ready value tree:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: summary}}`.
    #[must_use]
    pub fn snapshot(&self) -> serde::Value {
        let counters: Vec<(String, serde::Value)> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), serde::Value::U64(v.get())))
            .collect();
        let gauges: Vec<(String, serde::Value)> = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| {
                let g = v.get();
                let val = if g >= 0 {
                    serde::Value::U64(g as u64)
                } else {
                    serde::Value::I64(g)
                };
                (k.clone(), val)
            })
            .collect();
        let histograms: Vec<(String, serde::Value)> = self
            .histograms
            .read()
            .iter()
            .map(|(k, v)| {
                let s = v.summary();
                (
                    k.clone(),
                    serde::Value::Obj(vec![
                        ("count".to_owned(), serde::Value::U64(s.count)),
                        ("sum".to_owned(), serde::Value::U64(s.sum)),
                        ("min".to_owned(), serde::Value::U64(s.min)),
                        ("max".to_owned(), serde::Value::U64(s.max)),
                        ("mean".to_owned(), serde::Value::F64(s.mean)),
                        ("p50".to_owned(), serde::Value::U64(s.p50)),
                        ("p90".to_owned(), serde::Value::U64(s.p90)),
                        ("p99".to_owned(), serde::Value::U64(s.p99)),
                    ]),
                )
            })
            .collect();
        serde::Value::Obj(vec![
            ("counters".to_owned(), serde::Value::Obj(counters)),
            ("gauges".to_owned(), serde::Value::Obj(gauges)),
            ("histograms".to_owned(), serde::Value::Obj(histograms)),
        ])
    }

    /// The snapshot as pretty-printed JSON.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("value trees always render")
    }

    /// Renders every instrument in the Prometheus text exposition format
    /// (version 0.0.4): counters and gauges as single samples, histograms
    /// as summary-typed quantile series plus `_sum`/`_count`. Metric names
    /// are prefixed with `lhg_` and sanitized to `[a-zA-Z0-9_:]`.
    ///
    /// Each series gets a `# HELP` line (the original, unsanitized name —
    /// the only place it survives sanitization), and `# HELP`/`# TYPE`
    /// headers are emitted once per *sanitized* name: two registry names
    /// that collapse to the same series (`a.b` and `a:b` both sanitize to
    /// `lhg_a_b` for counters) would otherwise emit conflicting TYPE
    /// blocks, which Prometheus rejects at scrape time.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 4);
            out.push_str("lhg_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn escape_help(name: &str) -> String {
            name.replace('\\', "\\\\").replace('\n', "\\n")
        }
        let mut out = String::new();
        let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut header = |out: &mut String, n: &str, name: &str, kind: &str| {
            if seen.insert(n.to_owned()) {
                out.push_str(&format!(
                    "# HELP {n} {}\n# TYPE {n} {kind}\n",
                    escape_help(name)
                ));
            }
        };
        for (name, c) in self.counters.read().iter() {
            let n = sanitize(name);
            header(&mut out, &n, name, "counter");
            out.push_str(&format!("{n} {}\n", c.get()));
        }
        for (name, g) in self.gauges.read().iter() {
            let n = sanitize(name);
            header(&mut out, &n, name, "gauge");
            out.push_str(&format!("{n} {}\n", g.get()));
        }
        for (name, h) in self.histograms.read().iter() {
            let n = sanitize(name);
            let s = h.summary();
            header(&mut out, &n, name, "summary");
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", s.sum, s.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter("msgs").add(3);
        reg.counter("msgs").inc();
        assert_eq!(reg.counter("msgs").get(), 4);
        reg.gauge("links").set(5);
        reg.gauge("links").add(-2);
        assert_eq!(reg.gauge("links").get(), 3);
    }

    #[test]
    fn instruments_are_shared_not_replaced() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn histogram_summary_tracks_distribution() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 221.2).abs() < 1e-9);
        assert!(s.p50 >= 3, "median bucket covers 3, got {}", s.p50);
        assert!(s.p99 >= 1000, "p99 bucket covers max, got {}", s.p99);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let s = Histogram::default().summary();
        assert_eq!(
            s,
            HistogramSummary {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn zero_observation_lands_in_bucket_zero() {
        let h = Histogram::default();
        h.record(0);
        let s = h.summary();
        assert_eq!((s.min, s.max, s.p50), (0, 0, 0));
        assert_eq!((s.p90, s.p99), (0, 0), "all percentiles of a single 0");
    }

    #[test]
    fn single_value_percentiles_report_the_value() {
        let h = Histogram::default();
        h.record(5);
        let s = h.summary();
        // Bucket upper bound is 7; percentiles must clamp to the observed
        // range rather than report a phantom bucket edge.
        assert_eq!((s.p50, s.p90, s.p99), (5, 5, 5));
        assert_eq!((s.min, s.max), (5, 5));
    }

    #[test]
    fn max_value_saturates_into_last_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX); // must not index out of bounds
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99, u64::MAX, "clamped to observed max");
        assert_eq!(s.sum, u64::MAX.wrapping_mul(2), "sum wraps, by design");
    }

    #[test]
    fn percentiles_stay_within_observed_range() {
        let h = Histogram::default();
        for v in [10u64, 11, 12, 13] {
            h.record(v);
        }
        let s = h.summary();
        for p in [s.p50, s.p90, s.p99] {
            assert!((10..=13).contains(&p), "percentile {p} outside range");
        }
    }

    #[test]
    fn prometheus_text_renders_all_instrument_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("runtime.deliveries").add(7);
        reg.gauge("runtime.open-links").set(-2);
        reg.histogram("runtime.delivery_latency_us").record(100);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE lhg_runtime_deliveries counter\n"));
        assert!(text.contains("lhg_runtime_deliveries 7\n"));
        assert!(text.contains("# TYPE lhg_runtime_open_links gauge\n"));
        assert!(text.contains("lhg_runtime_open_links -2\n"));
        assert!(text.contains("# TYPE lhg_runtime_delivery_latency_us summary\n"));
        assert!(text.contains("lhg_runtime_delivery_latency_us{quantile=\"0.5\"} 100\n"));
        assert!(text.contains("lhg_runtime_delivery_latency_us_sum 100\n"));
        assert!(text.contains("lhg_runtime_delivery_latency_us_count 1\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad exposition line: {line}");
        }
    }

    #[test]
    fn prometheus_text_emits_help_and_dedupes_colliding_types() {
        let reg = MetricsRegistry::new();
        // Both sanitize to `lhg_a_b`; the TYPE/HELP block must appear once.
        reg.counter("a.b").add(1);
        reg.counter("a-b").add(2);
        let text = reg.prometheus_text();
        assert_eq!(
            text.matches("# TYPE lhg_a_b counter\n").count(),
            1,
            "{text}"
        );
        assert_eq!(text.matches("# HELP lhg_a_b ").count(), 1, "{text}");
        // Both samples still render.
        assert!(text.contains("lhg_a_b 1\n"), "{text}");
        assert!(text.contains("lhg_a_b 2\n"), "{text}");
        // Every series carries a HELP line ahead of its TYPE line.
        let help_pos = text.find("# HELP lhg_a_b").unwrap();
        let type_pos = text.find("# TYPE lhg_a_b").unwrap();
        assert!(help_pos < type_pos, "{text}");
    }

    #[test]
    fn histogram_delta_reads_partition_the_stream() {
        let h = Histogram::default();
        let mut cursor = HistogramCursor::new();
        h.record(10);
        h.record(20);
        let d1 = h.delta_since(&mut cursor);
        assert_eq!((d1.count, d1.sum), (2, 30));
        // Nothing recorded since: the next interval is empty.
        let d2 = h.delta_since(&mut cursor);
        assert_eq!((d2.count, d2.sum), (0, 0));
        h.record(5);
        let d3 = h.delta_since(&mut cursor);
        assert_eq!((d3.count, d3.sum), (1, 5));
        // The histogram itself was never reset: cumulative view intact.
        assert_eq!(h.summary().count, 3);
        assert_eq!(h.summary().sum, 35);
        // A fresh cursor replays the full history.
        let full = h.delta_since(&mut HistogramCursor::new());
        assert_eq!((full.count, full.sum), (3, 35));
    }

    #[test]
    fn registry_iteration_lists_all_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("c1").inc();
        reg.counter("c2").inc();
        reg.gauge("g1").set(4);
        reg.histogram("h1").record(9);
        let names: Vec<String> = reg.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["c1".to_owned(), "c2".to_owned()]);
        assert_eq!(reg.gauges().len(), 1);
        assert_eq!(reg.histograms().len(), 1);
        // Iteration hands back the live instruments, not copies.
        let (_, c1) = &reg.counters()[0];
        c1.inc();
        assert_eq!(reg.counter("c1").get(), 2);
    }

    #[test]
    fn concurrent_writers_never_tear_snapshots() {
        use std::sync::atomic::AtomicBool;
        let reg = Arc::new(MetricsRegistry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..4 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            writers.push(std::thread::spawn(move || {
                let c = reg.counter("w.msgs");
                let h = reg.histogram("w.lat");
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                    // Same value from every thread so sum/count stay
                    // provably consistent: sum must equal 7 × count.
                    h.record(7);
                    reg.gauge(&format!("w.g{t}")).set(sent as i64);
                    sent += 1;
                }
                sent
            }));
        }
        // Snapshot repeatedly while the writers hammer the instruments.
        // Mid-flight, count and sum may skew by in-flight writes (they are
        // separate atomics), but no value may ever look *torn*: every
        // observation is exactly 7, so the partial sum is always a
        // multiple of 7 and every order statistic is exactly 7.
        for _ in 0..50 {
            let s = reg.histogram("w.lat").summary();
            assert_eq!(s.sum % 7, 0, "torn histogram sum: {}", s.sum);
            if s.count > 0 {
                assert_eq!((s.min, s.max), (7, 7));
                assert_eq!((s.p50, s.p99), (7, 7));
            }
            // The JSON tree renders without panicking mid-update.
            assert!(serde_json::to_string(&reg.snapshot()).is_ok());
            let _ = reg.prometheus_text();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        // After quiescence every write is visible exactly once.
        assert_eq!(reg.counter("w.msgs").get(), total);
        let s = reg.histogram("w.lat").summary();
        assert_eq!(s.count, total);
        assert_eq!(s.sum, total * 7);
    }

    #[test]
    fn concurrent_delta_reader_loses_nothing() {
        let h = Arc::new(Histogram::default());
        let writer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    h.record(3);
                }
            })
        };
        let mut cursor = HistogramCursor::new();
        let (mut count, mut sum) = (0u64, 0u64);
        let mut read = |d: HistogramDelta| {
            count += d.count;
            sum += d.sum;
        };
        while !writer.is_finished() {
            read(h.delta_since(&mut cursor));
        }
        writer.join().unwrap();
        read(h.delta_since(&mut cursor));
        // Interval reads partition the stream: nothing lost, nothing
        // double-counted, even against a live writer.
        assert_eq!(count, 10_000);
        assert_eq!(sum, 30_000);
    }

    #[test]
    fn snapshot_renders_json() {
        let reg = MetricsRegistry::new();
        reg.counter("sent").add(2);
        reg.gauge("open").set(-1);
        reg.histogram("lat_us").record(42);
        let json = reg.snapshot_json();
        assert!(json.contains("\"sent\": 2"));
        assert!(json.contains("\"open\": -1"));
        assert!(json.contains("\"count\": 1"));
        // Round-trips through the JSON parser.
        assert!(serde_json::from_str::<serde::Value>(&json).is_ok());
    }
}
