//! Interval deltas over one metrics registry.
//!
//! The [`lhg_net::metrics::MetricsRegistry`] answers "what are the totals
//! right now?"; a [`TelemetrySampler`] answers "what changed since I last
//! looked?". Each [`TelemetrySampler::sample`] call returns one [`Sample`]:
//! counter increments since the previous call, gauge levels, per-interval
//! histogram bucket diffs (via
//! [`lhg_net::metrics::Histogram::delta_since`]), and per-class wire-cost
//! increments from the registry's
//! [`WireAccountant`](lhg_net::wirecost::WireAccountant), surfaced as
//! synthetic `wire.<class>.frames` / `wire.<class>.bytes` counter series.
//! Time is whatever the caller passes in; the sampler never reads a clock.

use std::collections::BTreeMap;
use std::sync::Arc;

use lhg_net::metrics::{HistogramCursor, HistogramDelta, MetricsRegistry};
use lhg_net::wirecost::{MessageClass, CLASS_COUNT};

/// One node's registry deltas over one sampling interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Node (or stream) label this sample belongs to.
    pub node: String,
    /// Sample timestamp, µs on the engine's clock (wall or virtual).
    pub at_us: u64,
    /// Per-sampler sequence number, counting from 0.
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
}

/// Delta sampler over one [`MetricsRegistry`]: every [`sample`] call
/// reports what changed since the previous call. Non-destructive: the
/// registry's cumulative totals are never reset, so concurrent readers
/// (`snapshot_json`) are unaffected.
///
/// [`sample`]: TelemetrySampler::sample
#[derive(Debug)]
pub struct TelemetrySampler {
    node: String,
    registry: Arc<MetricsRegistry>,
    counter_cursors: BTreeMap<String, u64>,
    hist_cursors: BTreeMap<String, HistogramCursor>,
    wire_cursor: [(u64, u64); CLASS_COUNT],
    seq: u64,
}

impl TelemetrySampler {
    /// Creates a sampler labeled `node` over `registry`.
    #[must_use]
    pub fn new(node: impl Into<String>, registry: Arc<MetricsRegistry>) -> Self {
        TelemetrySampler {
            node: node.into(),
            registry,
            counter_cursors: BTreeMap::new(),
            hist_cursors: BTreeMap::new(),
            wire_cursor: [(0, 0); CLASS_COUNT],
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
    /// increments.
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
        let class_totals = self.registry.wire().class_totals();
        for (i, class) in MessageClass::ALL.into_iter().enumerate() {
            let totals = class_totals[i];
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
        sample
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
    fn gauges_report_levels_and_histograms_report_interval_deltas() {
        let reg = reg_with(&[]);
        let mut s = TelemetrySampler::new("n0", Arc::clone(&reg));
        reg.gauge("open").set(-2);
        reg.histogram("lat").record(10);
        reg.histogram("lat").record(20);
        let first = s.sample(10);
        assert_eq!(first.gauges, vec![("open".to_owned(), -2)]);
        assert_eq!(
            (first.histograms[0].1.count, first.histograms[0].1.sum),
            (2, 30)
        );
        reg.histogram("lat").record(5);
        let second = s.sample(20);
        assert_eq!(second.gauges, first.gauges, "a level, not a delta");
        assert_eq!(
            (second.histograms[0].1.count, second.histograms[0].1.sum),
            (1, 5)
        );
        assert!(
            s.sample(30).histograms.is_empty(),
            "quiet histogram omitted"
        );
    }
}
