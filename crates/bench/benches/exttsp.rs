//! Criterion benchmarks of the Ext-TSP implementation, including the
//! §4.7 observation that inter-procedural (whole-program) layout takes
//! 3-10x longer than intra-function layout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use propeller_wpa::exttsp::{order_nodes, Edge, ExtTspParams, Node};

/// Builds a synthetic CFG-shaped graph of `n` nodes: a spine of
/// fall-through edges plus random forward/backward shortcuts.
fn graph(n: u32, seed: u64) -> (Vec<Node>, Vec<Edge>) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let nodes: Vec<Node> = (0..n)
        .map(|i| Node {
            id: i,
            size: 8 + (next() % 48) as u32,
            count: next() % 1000,
        })
        .collect();
    let mut edges: Vec<Edge> = (0..n - 1)
        .map(|i| Edge {
            src: i,
            dst: i + 1,
            weight: 1 + next() % 500,
        })
        .collect();
    for _ in 0..n / 2 {
        let src = (next() % n as u64) as u32;
        let dst = (next() % n as u64) as u32;
        if src != dst {
            edges.push(Edge {
                src,
                dst,
                weight: 1 + next() % 800,
            });
        }
    }
    (nodes, edges)
}

/// Builds an inter-procedural-shaped graph: `n` section-sized nodes
/// and call-graph-like edges — every section is called from an earlier
/// one (so the graph is connected and chains keep merging), plus as
/// many extra calls again, a third of them into a few hub callees.
/// Ordered with page-scale windows this grows chains past 100 blocks,
/// so almost all the time goes to split-point enumeration — the path
/// the benchmark's `refresh_interproc` workload spends its time in.
fn section_graph(n: u32, seed: u64) -> (Vec<Node>, Vec<Edge>) {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let nodes: Vec<Node> = (0..n)
        .map(|i| Node {
            id: i,
            size: 16 + (next() % 240) as u32,
            count: 1 + next() % 5000,
        })
        .collect();
    let mut edges: Vec<Edge> = (1..n)
        .map(|callee| Edge {
            src: (next() % callee as u64) as u32,
            dst: callee,
            weight: 1 + next() % 2000,
        })
        .collect();
    for i in 0..n {
        let src = (next() % n as u64) as u32;
        let dst = (next() % if i % 3 == 0 { 8 } else { n as u64 }) as u32;
        if src != dst {
            edges.push(Edge {
                src,
                dst,
                weight: 1 + next() % 600,
            });
        }
    }
    (nodes, edges)
}

fn bench_interproc(c: &mut Criterion) {
    let mut group = c.benchmark_group("exttsp/interproc");
    group.sample_size(10);
    let (nodes, edges) = section_graph(170, 11);
    let params = ExtTspParams {
        forward_window: 4096,
        backward_window: 4096,
        ..ExtTspParams::default()
    };
    group.bench_function("170_sections", |b| {
        b.iter(|| order_nodes(&nodes, &edges, 0, &params));
    });
    group.finish();
}

fn bench_order_nodes(c: &mut Criterion) {
    let mut group = c.benchmark_group("exttsp/order_nodes");
    group.sample_size(10);
    for n in [64u32, 256, 1024] {
        let (nodes, edges) = graph(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| order_nodes(&nodes, &edges, 0, &ExtTspParams::default()));
        });
    }
    group.finish();
}

fn bench_split_threshold(c: &mut Criterion) {
    // The chain-split threshold is the §4.7 scalability knob: larger
    // thresholds explore far more merge variants.
    let mut group = c.benchmark_group("exttsp/split_threshold");
    group.sample_size(10);
    let (nodes, edges) = graph(512, 7);
    for threshold in [0usize, 32, 128, 512] {
        let params = ExtTspParams {
            chain_split_threshold: threshold,
            ..ExtTspParams::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, _| {
                b.iter(|| order_nodes(&nodes, &edges, 0, &params));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_order_nodes,
    bench_split_threshold,
    bench_interproc
);
criterion_main!(benches);
