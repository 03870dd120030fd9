//! Regenerates the recorded simulator-scale rows:
//! `cargo run --release -p lhg-bench --bin baseline`
//!
//! Measures plain flooding and Bracha Byzantine broadcast at
//! n ∈ {64, 256, 1024}: 32 staggered broadcasts over one K-DIAMOND(n, 3)
//! run, messages and bytes on the wire, virtual p50 / p99 latency (exact
//! for a seed) and wall time (machine-dependent, recorded for scale only).
//! `BENCH_6.json` / `BENCH_7.json` are its earlier outputs — Bracha stopped
//! at n = 256 there, when every vote was a flood and n = 1024 meant tens of
//! millions of messages; later records embed the output as their
//! `sim_scale` block.

fn main() {
    let sizes = [64, 256, 1024];
    print!("{}", lhg_bench::baseline::baseline_json_for(&sizes, &sizes));
}
