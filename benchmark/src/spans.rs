//! Spans of the traced run, recorded only by the benchmark around its
//! calls into the program, kept in memory and written as one JSON file
//! when the run ends.
//!
//! A span is `(id, name, start, end, parent, broadcast)`; spans of one
//! broadcast share its id. Handlers the simulator calls millions of times
//! per pass are not written one by one: they go into `totals` (call count
//! and summed duration per name), which is what self time is computed
//! from.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One recorded interval, in µs since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Start, µs since the epoch of the log.
    pub start_us: f64,
    /// End, µs since the epoch of the log.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The broadcast this span belongs to, if any.
    pub bcast: Option<u64>,
}

/// Call count and summed duration of a handler too frequent to span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Calls.
    pub count: u64,
    /// Summed duration, ns.
    pub ns: u64,
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// The instant every span time counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// µs from the epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3
    }

    /// Records a finished span; returns its index, for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        bcast: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            bcast,
        });
        self.spans.len() - 1
    }

    /// Moves the end of span `id`: for a parent opened before its
    /// children and closed after them.
    pub fn set_end(&mut self, id: usize, end_us: f64) {
        self.spans[id].end_us = end_us;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.push(name, self.at(start), self.at(end), parent, None);
        (out, id)
    }

    /// Adds `count` calls lasting `ns` in all to the total named `name`.
    pub fn add_total(&mut self, name: &'static str, count: u64, ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.count += count;
        t.ns += ns;
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the part its direct children cover.
    pub fn self_time_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_us - c.start_us)
            .sum();
        (s.end_us - s.start_us - children).max(0.0)
    }

    /// The log as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"us\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{:.3},\"end\":{:.3},\"parent\":{},\"bcast\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                opt(s.parent.map(|p| p as u64)),
                opt(s.bcast),
            );
        }
        out.push_str("\n],\"totals\":[");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{name}\",\"count\":{},\"total_us\":{:.3}}}",
                t.count,
                t.ns as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the log to `benchmark/out/trace-<workload>.json`; returns
    /// the path. The directory is the one below the working directory when
    /// the run was started from the root of a checkout, as the benchmark's
    /// command is; otherwise the one of the package this was built from.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = if std::path::Path::new("benchmark/Cargo.toml").is_file() {
            PathBuf::from("benchmark/out")
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, self.to_json(workload, seed))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new();
        let root = log.push("root", 0.0, 100.0, None, None);
        let child = log.push("child", 10.0, 40.0, Some(root), Some(7));
        log.push("grandchild", 15.0, 20.0, Some(child), Some(7));
        log.push("child", 50.0, 60.0, Some(root), None);
        assert_eq!(log.self_time_us(root), 60.0);
        assert_eq!(log.self_time_us(child), 25.0);
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let mut log = SpanLog::new();
        let ((), id) = log.scope("outer", None, || ());
        log.push("hop", 1.0, 2.5, Some(id), Some(42));
        log.add_total("sim.on_message", 3, 4500);
        let doc = serde_json::parse(&log.to_json("w", 9)).expect("valid JSON");
        assert_eq!(
            doc.field("spans")
                .and_then(|s| s.as_array())
                .map(<[_]>::len),
            Some(2)
        );
        let totals = doc
            .field("totals")
            .and_then(|t| t.as_array())
            .expect("totals");
        assert_eq!(
            totals[0].field("count").and_then(serde::Value::as_u64),
            Some(3)
        );
        assert_eq!(doc.field("seed").and_then(serde::Value::as_u64), Some(9));
    }
}
