//! The per-layer cost budget of a workload: the operations one delivery
//! is made of, counted from the traced window, each priced by its probe.
//! `accounted` is their sum; `unaccounted` is what is left of the window's
//! `cpu_us_per_delivery` — thread hand-offs, wake-ups, syscalls, locks on
//! TCP; queue and allocator work not covered by a probe on the simulator.

use std::collections::BTreeMap;

use crate::report::Outcome;
use crate::sut::WireTotals;

/// What a workload's traced window hands to the budget.
#[derive(Debug)]
pub struct Traced {
    /// The window's own per-layer metrics and checks.
    pub outcome: Outcome,
    /// CPU µs per delivery of the traced window.
    pub cpu_us_per_delivery: f64,
    /// Frames per delivery, by message class.
    pub wire_per_delivery: BTreeMap<&'static str, f64>,
    /// What kind of window it was.
    pub window: Window,
}

/// The engine-specific operation counts of a traced window.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// A window on the TCP runtime.
    Tcp {
        /// Nodes.
        n: usize,
        /// Payload bytes of a data or vote frame.
        payload_len: usize,
        /// Wall seconds per delivery (prices the idle cluster).
        wall_s_per_delivery: f64,
        /// Whether the window ran Bracha.
        bracha: bool,
    },
    /// Passes on the simulator.
    Sim {
        /// Nodes.
        n: usize,
        /// Handler calls (events) per delivery.
        events_per_delivery: f64,
        /// Frames offered to the fault injector per delivery.
        fault_decisions_per_delivery: f64,
        /// Whether the passes ran Bracha.
        bracha: bool,
    },
}

/// Sets the `runtime.frames_<class>_per_delivery` metrics from `wire`.
pub fn set_frame_mix(outcome: &mut Outcome, wire: &WireTotals, deliveries: f64) {
    for (metric, class) in [
        ("runtime.frames_data_per_delivery", "data"),
        ("runtime.frames_ack_per_delivery", "ack"),
        ("runtime.frames_heartbeat_per_delivery", "heartbeat"),
        ("runtime.frames_summary_per_delivery", "summary"),
        ("runtime.frames_byz_per_delivery", "byz"),
    ] {
        outcome.set(metric, wire.class_frames(class) as f64 / deliveries);
    }
}

/// One line of the budget.
#[derive(Debug)]
pub struct Line {
    /// The layer operation.
    pub op: &'static str,
    /// Its probe cost.
    pub ns_per_op: f64,
    /// How often the window did it per delivery.
    pub ops_per_delivery: f64,
}

impl Line {
    fn us_per_delivery(&self) -> f64 {
        self.ns_per_op * self.ops_per_delivery / 1e3
    }
}

/// The budget lines of `traced`, priced from the probe metrics `m`.
pub fn lines(m: &BTreeMap<&'static str, f64>, traced: &Traced) -> Vec<Line> {
    let wire = &traced.wire_per_delivery;
    let frames: f64 = wire.values().sum();
    let class = |c: &str| wire.get(c).copied().unwrap_or(0.0);
    let (data, byz) = (class("data"), class("byz"));
    let mut lines = Vec::new();
    let mut add = |op: &'static str, ns_per_op: f64, ops_per_delivery: f64| {
        lines.push(Line {
            op,
            ns_per_op,
            ops_per_delivery,
        });
    };
    let (n, is_bracha) = match traced.window {
        Window::Tcp { n, bracha, .. } | Window::Sim { n, bracha, .. } => (n, bracha),
    };
    match traced.window {
        Window::Tcp {
            payload_len,
            wall_s_per_delivery,
            ..
        } => {
            // Heartbeats flow whether or not anything is broadcast: their
            // cost is inside the idle-cluster line, not the per-frame ones.
            let active = frames - class("heartbeat");
            let control = active - data - byz;
            // Every frame is encoded once and decoded once; when written it
            // bumps two counters by name and the wire accountant; the
            // flight recorder logs it on both sides. Codec cost is probed
            // at 64 B and 16 KiB and interpolated for sizes in between.
            let share = (payload_len.saturating_sub(64) as f64 / (16.0 * 1024.0 - 64.0)).min(1.0);
            let sized = |small: &str, big: &str| m[small] + (m[big] - m[small]) * share;
            let encode = sized("codec.encode_ns_64b", "codec.encode_ns_16k");
            let decode = sized("codec.decode_ns_64b", "codec.decode_ns_16k");
            add("codec: encode payload frames", encode, data + byz);
            add("codec: decode payload frames", decode, data + byz);
            add(
                "codec: encode control frames",
                m["codec.encode_ns_64b"],
                control,
            );
            add(
                "codec: decode control frames",
                m["codec.decode_ns_64b"],
                control,
            );
            add(
                "metrics: 2 counters by name per frame",
                m["metrics.counter_by_name_ns"],
                2.0 * active,
            );
            add(
                "wirecost: record per frame",
                m["wirecost.record_ns"],
                active,
            );
            add(
                "trace: recorder append, tx + rx",
                m["trace.recorder_append_ns"],
                2.0 * active,
            );
            add("reliable: stamp + retire", m["reliable.send_ack_ns"], data);
            add(
                "reliable: receiver window",
                m["reliable.rx_on_frame_ns"],
                data,
            );
            add(
                "metrics: deliveries counter",
                m["metrics.counter_by_name_ns"],
                1.0,
            );
            add(
                "metrics: latency histogram",
                m["metrics.histogram_record_ns"],
                1.0,
            );
            add(
                "trace: deliver + forward events",
                m["trace.recorder_append_ns"],
                2.0,
            );
            add("trace: path record", m["trace.collector_record_ns"], 1.0);
            add(
                "runtime: idle cluster (heartbeats, ticks, sweeps)",
                m["runtime.idle_cpu_ms_per_s"] * 1e6,
                wall_s_per_delivery,
            );
        }
        Window::Sim {
            events_per_delivery,
            fault_decisions_per_delivery,
            ..
        } => {
            add(
                "sim: event queue + context",
                m["sim.event_ns"],
                events_per_delivery,
            );
            add(
                "fault: decide per frame offered",
                m["fault.decide_ns"],
                fault_decisions_per_delivery,
            );
            if !is_bracha {
                add("reliable: stamp + retire", m["reliable.send_ack_ns"], data);
                add(
                    "reliable: receiver window",
                    m["reliable.rx_on_frame_ns"],
                    data,
                );
            }
        }
    }
    add("seen: first copy", m["seen.insert_new_ns"], 1.0);
    add(
        "reliable: ack codec",
        m["reliable.ack_codec_ns"],
        class("ack"),
    );
    add(
        "reliable: summary codec",
        m["reliable.summary_codec_ns"],
        class("summary"),
    );
    if is_bracha {
        // A node handles 2n + 1 distinct votes per Bracha instance (SEND, n
        // ECHOs, n READYs) and casts two votes of its own. Checking the
        // digest of the n + 1 votes that carry the payload happens inside
        // `on_gossip` and is priced there.
        let votes = (2 * n + 1) as f64;
        let on_gossip = match traced.window {
            Window::Tcp { .. } => m["bracha.on_gossip_ns_n16"],
            Window::Sim { .. } => m["bracha.on_gossip_ns_n128"],
        };
        add(
            "seen: further copies of votes",
            m["seen.insert_dup_ns"],
            (byz - votes).max(0.0),
        );
        add(
            "byzframe: decode vote",
            m["byzframe.from_message_ns_1k"],
            votes,
        );
        add("bracha: on_gossip", on_gossip, votes);
        add(
            "byzframe: encode own votes",
            m["byzframe.to_message_ns_1k"],
            2.0,
        );
    } else {
        add(
            "seen: further copies",
            m["seen.insert_dup_ns"],
            (data - 1.0).max(0.0),
        );
    }
    lines
}

/// Sets `budget.accounted_us_per_delivery` and
/// `budget.unaccounted_us_per_delivery` (they sum to the window's CPU per
/// delivery) and prints the table to stderr.
pub fn apply(workload: &str, out: &mut Outcome, traced: &Traced) {
    let lines = lines(&out.metrics, traced);
    let cpu = traced.cpu_us_per_delivery;
    let accounted: f64 = lines.iter().map(Line::us_per_delivery).sum();
    out.set("budget.accounted_us_per_delivery", accounted);
    out.set("budget.unaccounted_us_per_delivery", cpu - accounted);
    eprintln!("# budget of {workload}: {cpu:.3} us CPU per delivery in the traced window");
    eprintln!(
        "# {:<50} {:>11} {:>13} {:>12}",
        "operation", "ns/op", "ops/delivery", "us/delivery"
    );
    for l in &lines {
        eprintln!(
            "# {:<50} {:>11.1} {:>13.3} {:>12.3}",
            l.op,
            l.ns_per_op,
            l.ops_per_delivery,
            l.us_per_delivery()
        );
    }
    eprintln!(
        "# {:<50} {:>11} {:>13} {:>12.3}",
        "accounted", "", "", accounted
    );
    eprintln!(
        "# {:<50} {:>11} {:>13} {:>12.3}",
        match traced.window {
            Window::Tcp { .. } => "unaccounted (hand-offs, wake-ups, syscalls, locks)",
            Window::Sim { .. } => "unaccounted (message clones, allocator, glue)",
        },
        "",
        "",
        cpu - accounted
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn probe_metrics() -> BTreeMap<&'static str, f64> {
        spec::PER_LAYER
            .iter()
            .map(|(name, _)| (*name, 100.0))
            .collect()
    }

    fn traced(window: Window) -> Traced {
        Traced {
            outcome: Outcome::default(),
            cpu_us_per_delivery: 50.0,
            wire_per_delivery: [
                ("data", 3.0),
                ("ack", 0.5),
                ("heartbeat", 0.25),
                ("byz", 0.0),
            ]
            .into_iter()
            .collect(),
            window,
        }
    }

    #[test]
    fn accounted_plus_unaccounted_is_the_cpu_per_delivery() {
        for window in [
            Window::Tcp {
                n: 16,
                payload_len: 64,
                wall_s_per_delivery: 1.0 / 8000.0,
                bracha: false,
            },
            Window::Tcp {
                n: 16,
                payload_len: 1024,
                wall_s_per_delivery: 0.01,
                bracha: true,
            },
            Window::Sim {
                n: 128,
                events_per_delivery: 4.0,
                fault_decisions_per_delivery: 4.5,
                bracha: false,
            },
            Window::Sim {
                n: 128,
                events_per_delivery: 500.0,
                fault_decisions_per_delivery: 0.0,
                bracha: true,
            },
        ] {
            let t = traced(window);
            let mut out = Outcome {
                metrics: probe_metrics(),
                ..Outcome::default()
            };
            apply("w", &mut out, &t);
            let sum = out.metrics["budget.accounted_us_per_delivery"]
                + out.metrics["budget.unaccounted_us_per_delivery"];
            assert!((sum - t.cpu_us_per_delivery).abs() < 1e-9, "{window:?}");
            assert!(out.metrics["budget.accounted_us_per_delivery"] > 0.0);
        }
    }

    #[test]
    fn only_bracha_windows_pay_for_votes() {
        let m = probe_metrics();
        let plain = lines(
            &m,
            &traced(Window::Sim {
                n: 128,
                events_per_delivery: 4.0,
                fault_decisions_per_delivery: 4.5,
                bracha: false,
            }),
        );
        assert!(plain.iter().all(|l| !l.op.starts_with("bracha")));
        let votes = lines(
            &m,
            &traced(Window::Sim {
                n: 128,
                events_per_delivery: 500.0,
                fault_decisions_per_delivery: 0.0,
                bracha: true,
            }),
        );
        let on_gossip = votes
            .iter()
            .find(|l| l.op == "bracha: on_gossip")
            .expect("line");
        assert_eq!(on_gossip.ops_per_delivery, 257.0);
    }
}
