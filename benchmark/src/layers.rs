//! The traced run: per-layer probes, the workload's own traced window, and
//! the budget that sets the two against `cpu_us_per_delivery`.
//!
//! A probe calls one layer's public functions with inputs of a stated
//! shape (`_64b`, `_n256`, …) and reports ns per call: the lower quartile
//! over batches, one span per batch. The probes are the same on every
//! workload: they are the prices. The workload's window adds what only it
//! can measure (frame mix, tree depth, hop and tail latency, generator
//! lateness, simulator self time), and the budget multiplies the prices
//! by the operation counts of that window.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::alloc::AllocSnapshot;
use crate::budget;
use crate::inputs;
use crate::report::Outcome;
use crate::simwl;
use crate::spans::SpanLog;
use crate::stats::{lower_quartile, median};
use crate::sut::layer::{
    decode_ack_payload, decode_frame, decode_summary_payload, digest, encode_ack_payload,
    encode_frame, encode_summary_payload, vertex_disjoint_paths, Action, BrachaConfig,
    BrachaEngine, Constraint, DynamicOverlay, EventKind, FlightRecorder, GossipFrame, LinkReceiver,
    LinkSender, Message, MetricsRegistry, NodeId, PathRecord, ReliableConfig, SeenSet,
    TelemetrySampler, TraceCollector,
};
use crate::sut::{fault_injector, Bytes, Overlay, SimLink, SimProcesses, SimRun, TcpCluster};
use crate::sys;
use crate::tcp;
use crate::Workload;

/// Batches per probe; the reported figure is their lower quartile.
const BATCHES: usize = 7;
/// A batch is grown until it lasts at least this long.
const MIN_BATCH: Duration = Duration::from_millis(3);
/// The failure-detector window of the heal probe.
const HEAL_TIMEOUT: Duration = Duration::from_secs(1);

/// Times layer functions and records one span per batch.
struct Probe<'a> {
    log: &'a mut SpanLog,
    parent: usize,
}

impl Probe<'_> {
    /// ns per call of `op`, on state that `setup` builds outside the timing
    /// for a batch of the given size. `op` receives a running index so
    /// that inputs can differ per call.
    fn ns_per_op<S>(
        &mut self,
        name: &'static str,
        mut setup: impl FnMut(u64) -> S,
        mut op: impl FnMut(&mut S, u64),
    ) -> f64 {
        let mut batch = |per_batch: u64| {
            let mut state = setup(per_batch);
            let start = Instant::now();
            for i in 0..per_batch {
                op(&mut state, i);
            }
            let end = Instant::now();
            (start, end)
        };
        let mut per_batch = 1u64;
        loop {
            let (start, end) = batch(per_batch);
            if end - start >= MIN_BATCH || per_batch >= 1 << 22 {
                break;
            }
            per_batch *= 2;
        }
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let (start, end) = batch(per_batch);
            self.log.push(
                name,
                self.log.at(start),
                self.log.at(end),
                Some(self.parent),
                None,
            );
            samples.push((end - start).as_nanos() as f64 / per_batch as f64);
        }
        lower_quartile(&samples)
    }

    /// ns per call of a stateless `op`.
    fn ns(&mut self, name: &'static str, mut op: impl FnMut(u64)) -> f64 {
        self.ns_per_op(name, |_| (), |(), i| op(i))
    }
}

/// A data frame as the runtime puts it on a link: traced and stamped.
fn data_frame(payload_len: usize) -> Message {
    Message::new(
        0x0003_0000_0007,
        3,
        Bytes::from(inputs::payload(1, payload_len)),
    )
    .with_trace(0x0003_0000_0007)
    .with_link_seq(7)
    .forwarded()
}

/// A registry holding as many series as a running cluster's.
fn populated_registry() -> Arc<MetricsRegistry> {
    let registry = Arc::new(MetricsRegistry::new());
    for i in 0..40 {
        registry.counter(&format!("runtime.series_{i:02}")).add(i);
    }
    for name in [
        "runtime.messages_sent",
        "runtime.bytes_sent",
        "runtime.deliveries",
    ] {
        registry.counter(name).inc();
    }
    registry
        .histogram("runtime.delivery_latency_us")
        .record(800);
    registry
}

fn core_and_graph(p: &mut Probe<'_>, out: &mut Outcome) -> Result<(), String> {
    let ns = p.ns("core.build_kdiamond", |_| {
        black_box(Overlay::build(256, 3).map(|o| o.n()).ok());
    });
    out.set("core.build_kdiamond_us_n256", ns / 1e3);
    let overlay = Overlay::build(256, 3)?;
    let ns = p.ns("core.validate", |_| {
        black_box(overlay.is_lhg());
    });
    out.set("core.validate_ms_n256", ns / 1e6);

    let boot = DynamicOverlay::bootstrap(Constraint::KDiamond, 16, 3)
        .map_err(|e| format!("DynamicOverlay::bootstrap: {e}"))?;
    let mut healed = true;
    let ns = p.ns_per_op(
        "core.crash_many",
        |per_batch| (0..per_batch).map(|_| boot.clone()).collect::<Vec<_>>(),
        |replicas, i| {
            // Each replica heals around one crash, as a survivor does.
            if replicas[i as usize].crash_many(&[i % 16]).is_err() {
                healed = false;
            }
        },
    );
    out.check(healed, || {
        "crash_many refused a single crash at n = 16".to_owned()
    });
    out.set("core.crash_many_us_n16", ns / 1e3);

    let g128 = Overlay::build(128, 3)?;
    let ns = p.ns("graph.disjoint_paths", |i| {
        let s = NodeId((i % 128) as usize);
        let t = NodeId(((i * 37 + 64) % 128) as usize);
        if s != t {
            black_box(vertex_disjoint_paths(g128.graph(), s, t).len());
        }
    });
    out.set("graph.disjoint_paths_us_n128", ns / 1e3);
    Ok(())
}

fn codec(p: &mut Probe<'_>, out: &mut Outcome) {
    for (len, enc, dec) in [
        (64, "codec.encode_ns_64b", "codec.decode_ns_64b"),
        (16 * 1024, "codec.encode_ns_16k", "codec.decode_ns_16k"),
    ] {
        let msg = data_frame(len);
        let frame = encode_frame(&msg);
        let ns = p.ns("codec.encode_frame", |_| {
            black_box(encode_frame(black_box(&msg)));
        });
        out.set(enc, ns);
        let ns = p.ns("codec.decode_frame", |_| {
            black_box(decode_frame(black_box(&frame)).is_ok());
        });
        out.set(dec, ns);
        if len == 16 * 1024 {
            // This thread is the only one running here, so the counter
            // delta is exactly what one encode and one decode allocate.
            let before = AllocSnapshot::now();
            let round_trip = decode_frame(&encode_frame(&msg));
            let bytes = AllocSnapshot::now().since(before).bytes;
            out.check(round_trip.as_ref() == Ok(&msg), || {
                "16 KiB frame does not survive encode + decode".to_owned()
            });
            out.set("codec.alloc_bytes_per_frame_16k", bytes as f64);
        }
    }
}

fn seen_and_reliable(p: &mut Probe<'_>, out: &mut Outcome) {
    let ns = p.ns_per_op(
        "seen.insert(new)",
        |_| SeenSet::default(),
        |seen, i| {
            black_box(seen.insert((3 << 32) | i));
        },
    );
    out.set("seen.insert_new_ns", ns);
    let ns = p.ns_per_op(
        "seen.insert(dup)",
        |_| {
            let mut seen = SeenSet::default();
            for i in 0..4096 {
                seen.insert((3 << 32) | i);
            }
            seen
        },
        |seen, i| {
            black_box(seen.insert((3 << 32) | (i % 4096)));
        },
    );
    out.set("seen.insert_dup_ns", ns);

    let cfg = ReliableConfig::default();
    let msg = data_frame(64);
    // The clean path of one link: stamp and remember a frame, then retire
    // it on the peer's cumulative ack.
    let ns = p.ns_per_op(
        "reliable.send+on_ack",
        |_| LinkSender::new(),
        |tx, i| {
            black_box(tx.send(msg.clone(), &cfg, i));
            black_box(tx.on_ack(i + 1, &[], &cfg, i));
        },
    );
    out.set("reliable.send_ack_ns", ns);
    let ns = p.ns_per_op(
        "reliable.rx.on_frame",
        |_| LinkReceiver::new(),
        |rx, i| {
            black_box(rx.on_frame(i + 1));
        },
    );
    out.set("reliable.rx_on_frame_ns", ns);
    let ns = p.ns_per_op(
        "reliable.sweep",
        |_| {
            let mut tx = LinkSender::new();
            for _ in 0..cfg.window {
                tx.send(msg.clone(), &cfg, 0);
            }
            tx
        },
        |tx, _| {
            // Nothing is due: this is what every tick pays per busy link.
            black_box(tx.sweep(&cfg, 1));
        },
    );
    out.set("reliable.sweep_full_window_ns", ns);
    let ns = p.ns("reliable.ack_codec", |i| {
        black_box(decode_ack_payload(encode_ack_payload(i, &[])));
    });
    out.set("reliable.ack_codec_ns", ns);
    let ids: Vec<u64> = (0..64).map(|i| (3 << 32) | i).collect();
    let ns = p.ns("reliable.summary_codec", |_| {
        black_box(decode_summary_payload(encode_summary_payload(false, &ids)));
    });
    out.set("reliable.summary_codec_ns", ns);
}

fn sim_and_fault(p: &mut Probe<'_>, out: &mut Outcome) -> Result<(), String> {
    // A flood with no protocol work on a big overlay: what is left is the
    // simulator's queue, context and bookkeeping per event.
    let overlay = Overlay::build(1024, 3)?;
    let link = SimLink {
        base_us: 1_000,
        jitter_us: 0,
    };
    let mut events = 0u64;
    let ns = p.ns("sim.run(noop flood)", |_| {
        let pass =
            SimRun::new(&overlay, link, 1, None).run(SimProcesses::noop_flood(1024), u64::MAX);
        events = pass.wire.frames() + 1024;
    });
    out.set("sim.event_ns", ns / events.max(1) as f64);

    let simwl::Protocol::ReliableLossy(rates) = simwl::reliable_lossy().protocol else {
        return Err("sim_reliable_lossy has no fault rates".to_owned());
    };
    let lossy = fault_injector(7, rates);
    let ns = p.ns("fault.decide", |i| {
        black_box(lossy.decide((i % 256) as u32, ((i + 1) % 256) as u32, i, i));
    });
    out.set("fault.decide_ns", ns);
    Ok(())
}

fn metrics_and_wirecost(p: &mut Probe<'_>, out: &mut Outcome) {
    let registry = populated_registry();
    let ns = p.ns("metrics.counter(name).inc", |_| {
        registry.counter("runtime.messages_sent").inc();
    });
    out.set("metrics.counter_by_name_ns", ns);
    let cached = registry.counter("runtime.messages_sent");
    let ns = p.ns("metrics.cached.inc", |_| cached.inc());
    out.set("metrics.counter_cached_ns", ns);
    let histogram = registry.histogram("runtime.delivery_latency_us");
    let ns = p.ns("metrics.histogram.record", |i| {
        histogram.record(500 + i % 1000)
    });
    out.set("metrics.histogram_record_ns", ns);
    let wire = registry.wire();
    let ns = p.ns("wirecost.record", |i| {
        // 48 directed links, a rolling window of a thousand data ids.
        let from = (i % 16) as u32;
        wire.record(
            from,
            (from + 1 + (i % 3) as u32) % 16,
            (3 << 32) | (i % 1024),
            103,
        );
    });
    out.set("wirecost.record_ns", ns);
}

/// The distinct gossip frames node 0 receives while `instances` Bracha
/// instances run on an (n, 3) overlay, in arrival order: what its engine
/// is fed after the flooding dedup.
fn record_gossip(n: usize, instances: usize) -> Result<Vec<GossipFrame>, String> {
    let mut params = simwl::bracha();
    params.n = n;
    params.broadcasts = instances;
    let sched = simwl::schedule(&params, 1);
    let sink = Rc::new(RefCell::new(Vec::new()));
    let (procs, faults, horizon) = simwl::processes(&params, &sched)?;
    let pass = SimRun::new(
        &Overlay::build(n, params.k)?,
        params.link,
        sched.sim_seed,
        faults,
    )
    .run(procs.recording(0, &sink), horizon);
    if pass.deliveries.len() != n * instances {
        return Err(format!("gossip recording at n={n} lost deliveries"));
    }
    let mut seen = SeenSet::default();
    let frames: Vec<GossipFrame> = sink
        .borrow()
        .iter()
        .filter(|m| seen.insert(m.broadcast_id))
        .filter_map(GossipFrame::from_message)
        .collect();
    if frames.is_empty() {
        return Err(format!("no gossip frames recorded at n={n}"));
    }
    Ok(frames)
}

/// Feeds `frames` to a fresh engine for node 0 of an (n, 3) overlay.
fn replay(n: usize, frames: &[GossipFrame]) -> Result<BrachaEngine, String> {
    let cfg = BrachaConfig::for_overlay(n, 3).map_err(|e| format!("BrachaConfig: {e}"))?;
    let mut engine = BrachaEngine::new(0, cfg);
    for f in frames {
        black_box(engine.on_gossip(f));
    }
    Ok(engine)
}

fn byzantine(p: &mut Probe<'_>, out: &mut Outcome) -> Result<(), String> {
    let mut recorded = Vec::new();
    for (n, instances, metric, span) in [
        (16, 4, "bracha.on_gossip_ns_n16", "bracha.on_gossip(n=16)"),
        (
            128,
            2,
            "bracha.on_gossip_ns_n128",
            "bracha.on_gossip(n=128)",
        ),
    ] {
        let frames = record_gossip(n, instances)?;
        replay(n, &frames)?; // fails here, not inside the timing
        let ns = p.ns(span, |_| {
            black_box(replay(n, &frames).is_ok());
        });
        out.set(metric, ns / frames.len() as f64);
        recorded.push(frames);
    }
    let regossip = replay(16, &recorded[0])?
        .regossip()
        .iter()
        .filter(|a| matches!(a, Action::Gossip(_)))
        .count();
    out.set("bracha.regossip_frames_i4", regossip as f64);

    let payload = Bytes::from(inputs::payload(1, 1024));
    let frame = recorded[0]
        .iter()
        .find(|f| !f.payload.is_empty())
        .ok_or("no payload-carrying gossip frame recorded")?;
    let ns = p.ns("byzframe.to_message", |_| {
        black_box(frame.to_message());
    });
    out.set("byzframe.to_message_ns_1k", ns);
    let msg = frame.to_message();
    let ns = p.ns("byzframe.from_message", |_| {
        black_box(GossipFrame::from_message(black_box(&msg)));
    });
    out.set("byzframe.from_message_ns_1k", ns);
    let ns = p.ns("byzframe.digest", |_| {
        black_box(digest(black_box(&payload)));
    });
    out.set("byzframe.digest_ns_1k", ns);
    Ok(())
}

fn trace_and_telemetry(p: &mut Probe<'_>, out: &mut Outcome) {
    let ns = p.ns_per_op(
        "trace.recorder.record",
        |_| FlightRecorder::new(0),
        |rec, i| {
            rec.record(EventKind::FrameTx {
                peer: (i % 16) as u32,
                bytes: 103,
            });
        },
    );
    out.set("trace.recorder_append_ns", ns);
    let ns = p.ns_per_op(
        "trace.collector.record",
        |_| TraceCollector::new(),
        |col, i| {
            col.record(PathRecord {
                trace_id: i / 16,
                node: (i % 16) as u32,
                parent: Some(((i + 1) % 16) as u32),
                hops: 2,
                at_us: i,
            });
        },
    );
    out.set("trace.collector_record_ns", ns);
    let registry = populated_registry();
    let ns = p.ns_per_op(
        "telemetry.sample",
        |_| TelemetrySampler::new("probe", Arc::clone(&registry)),
        |sampler, i| {
            registry.counter("runtime.messages_sent").inc();
            black_box(sampler.sample(i));
        },
    );
    out.set("telemetry.sample_us", ns / 1e3);
}

/// Launches, idles, kills and heals, shuts down: the runtime's fixed costs
/// as seen from outside.
fn runtime(log: &mut SpanLog, parent: usize, out: &mut Outcome) -> Result<(), String> {
    let (mut launch_ms, mut shutdown_ms, mut heal_ms) = (Vec::new(), Vec::new(), Vec::new());
    let threads_before = sys::thread_count();
    for round in 0..2u32 {
        let start = Instant::now();
        let mut cluster = TcpCluster::launch(&tcp::probe_spec(HEAL_TIMEOUT))?;
        let launched = Instant::now();
        let span = log.push(
            "launch",
            log.at(start),
            log.at(launched),
            Some(parent),
            None,
        );
        launch_ms.push((launched - start).as_secs_f64() * 1e3);

        if round == 0 {
            out.set(
                "runtime.threads",
                sys::thread_count().saturating_sub(threads_before) as f64,
            );
            let cpu0 = sys::process_cpu_us();
            let idle_start = Instant::now();
            std::thread::sleep(Duration::from_secs(1));
            let idle_s = idle_start.elapsed().as_secs_f64();
            out.set(
                "runtime.idle_cpu_ms_per_s",
                (sys::process_cpu_us() - cpu0) / 1e3 / idle_s,
            );
            log.push(
                "idle",
                log.at(idle_start),
                log.at(Instant::now()),
                Some(span),
                None,
            );
        }

        // Two kills, one after the other: k − 1 = 2 is the most the
        // overlay heals around.
        for victim in [5 + round, 11 + round] {
            let kill = Instant::now();
            cluster.kill(victim)?;
            let healed = cluster.await_heal(HEAL_TIMEOUT * 10);
            let end = Instant::now();
            out.check(healed, || {
                format!("cluster did not heal around node {victim}")
            });
            log.push(
                "kill+await_heal",
                log.at(kill),
                log.at(end),
                Some(span),
                None,
            );
            heal_ms.push((end - kill).as_secs_f64() * 1e3);
        }
        let stop = Instant::now();
        cluster.shutdown();
        let end = Instant::now();
        log.push("shutdown", log.at(stop), log.at(end), Some(span), None);
        shutdown_ms.push((end - stop).as_secs_f64() * 1e3);
    }
    out.set("runtime.launch_ms", median(&launch_ms));
    out.set("runtime.shutdown_ms", median(&shutdown_ms));
    out.set("runtime.heal_ms", median(&heal_ms));
    out.set(
        "runtime.heal_overhead_ms",
        median(&heal_ms) - HEAL_TIMEOUT.as_secs_f64() * 1e3,
    );
    Ok(())
}

/// What this host does with fixed work, so that two traced runs can be
/// told apart from two hosts: an arithmetic loop, and a one-byte
/// ping-pong over a loopback TCP connection (no code of the repo in
/// either).
fn reference(p: &mut Probe<'_>, out: &mut Outcome) -> Result<(), String> {
    let ns = p.ns("ref.spin", |_| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        black_box(x);
    });
    out.set("ref.spin_ms", ns / 1e6);

    let io = |e: std::io::Error| format!("loopback ping-pong: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut b = [0u8; 1];
        while s.read(&mut b)? == 1 {
            s.write_all(&b)?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    let mut failed = None;
    let ns = p.ns("ref.loopback_pingpong", |_| {
        let mut b = [7u8; 1];
        if let Err(e) = s.write_all(&b).and_then(|()| s.read_exact(&mut b)) {
            failed.get_or_insert(e);
        }
    });
    drop(s);
    echo.join()
        .map_err(|_| "loopback echo thread panicked".to_owned())?
        .map_err(io)?;
    if let Some(e) = failed {
        return Err(io(e));
    }
    out.set("ref.loopback_pingpong_us", ns / 1e3);
    Ok(())
}

/// Every probe, in layer order.
fn probes(log: &mut SpanLog) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = Instant::now();
    let root = log.push("probes", log.at(start), log.at(start), None, None);
    runtime(log, root, &mut out)?;
    let mut p = Probe { log, parent: root };
    core_and_graph(&mut p, &mut out)?;
    codec(&mut p, &mut out);
    seen_and_reliable(&mut p, &mut out);
    sim_and_fault(&mut p, &mut out)?;
    metrics_and_wirecost(&mut p, &mut out);
    byzantine(&mut p, &mut out)?;
    trace_and_telemetry(&mut p, &mut out);
    reference(&mut p, &mut out)?;
    let end = log.at(Instant::now());
    log.set_end(root, end);
    Ok(out)
}

/// The traced run of a workload: every per-layer metric, the span file,
/// and the budget table on stderr.
pub fn traced_run(
    name: &str,
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut log = SpanLog::new();
    let mut out = probes(&mut log)?;
    let mut traced = match workload {
        Workload::Flood(p) => tcp::trace_flood(p, seed, seconds, &mut log)?,
        Workload::Bracha(p) => tcp::trace_bracha(p, seed, seconds, &mut log)?,
        Workload::Sim(p) => simwl::trace(p, seed, seconds, &mut log)?,
    };
    out.absorb(std::mem::take(&mut traced.outcome));
    budget::apply(name, &mut out, &traced);
    let path = log
        .write(name, seed)
        .map_err(|e| format!("writing the span file: {e}"))?;
    eprintln!(
        "# {} spans written to {}",
        log.spans().len(),
        path.display()
    );
    Ok(out)
}
