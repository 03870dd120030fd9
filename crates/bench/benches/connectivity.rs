//! Cost of the exact connectivity validators (flow-based P1–P3 checks).
//!
//! `validate` computes κ exactly once, on one node-split network reused for
//! every Even pair; it takes λ = δ from Whitney's κ ≤ λ ≤ δ when κ = δ
//! (every LHG), and spends two flows on each link P3's fast path cannot
//! settle. The capped `≥ k` variants and the exact sweeps are here for
//! comparison: at k = δ a capped sweep does the exact sweep's work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lhg_core::ktree::build_ktree;
use lhg_core::properties::validate;
use lhg_graph::connectivity::{
    edge_connectivity, is_k_edge_connected, is_k_vertex_connected, vertex_connectivity,
};

fn bench_connectivity(c: &mut Criterion) {
    let k = 4;
    let mut group = c.benchmark_group("connectivity");
    group.sample_size(10);
    for n in [32usize, 64, 128, 256, 1024] {
        let g = build_ktree(n, k).unwrap().into_graph();
        group.bench_with_input(BenchmarkId::new("validate", n), &g, |b, g| {
            b.iter(|| validate(black_box(g), k));
        });
        group.bench_with_input(BenchmarkId::new("is_k_vertex_connected", n), &g, |b, g| {
            b.iter(|| is_k_vertex_connected(black_box(g), k));
        });
        group.bench_with_input(BenchmarkId::new("is_k_edge_connected", n), &g, |b, g| {
            b.iter(|| is_k_edge_connected(black_box(g), k));
        });
        group.bench_with_input(BenchmarkId::new("vertex_connectivity", n), &g, |b, g| {
            b.iter(|| vertex_connectivity(black_box(g)));
        });
        group.bench_with_input(BenchmarkId::new("edge_connectivity", n), &g, |b, g| {
            b.iter(|| edge_connectivity(black_box(g)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_connectivity);
criterion_main!(benches);
