//! E-S1 / E-S2 — the scaling experiments.
//!
//! * E-S1: the paper's authoring guidance that "fewer than 15 packets between
//!   any source and destination displays well": sweep the per-cell packet
//!   count and report the legibility score plus the 3-D render cost.
//! * E-S2: the motivating claim that matrix methods scale to large traffic
//!   volumes: build sparse traffic matrices from synthetic packet streams and
//!   run GraphBLAS-style analytics. The kernels are serial: a rayon-parallel
//!   variant lost to them on every row on a 2-vCPU host and was removed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tw_bench::{banner, quick_criterion};
use tw_core::prelude::*;
use tw_core::render::{legibility_score, DISPLAY_LIMIT};
use tw_matrix::ops::{mxv, reduce_rows};
use tw_matrix::stream::{synthetic_events, PacketEvent};
use tw_matrix::{CooMatrix, CsrMatrix, PlusTimes};

/// Build a traffic matrix from packet events with one serial COO pass.
fn serial_matrix_from_events(node_count: usize, events: &[PacketEvent]) -> CsrMatrix<u64> {
    let mut coo = CooMatrix::with_capacity(node_count, node_count, events.len());
    for e in events {
        coo.push(e.source as usize, e.destination as usize, e.packets as u64);
    }
    coo.to_csr()
}

fn print_legibility_sweep() {
    banner(
        "E-S1",
        "Packet-count legibility sweep (paper: 'fewer than 15 packets ... displays well')",
    );
    println!(
        "{:>8} {:>12} {:>14}",
        "packets", "legibility", "display ok?"
    );
    for count in [1u32, 2, 4, 8, 12, 14, 15, 16, 20, 24, 32, 48] {
        let score = legibility_score(count);
        println!(
            "{count:>8} {score:>12.3} {:>14}",
            if count <= DISPLAY_LIMIT && score >= 1.0 {
                "yes"
            } else if score >= 1.0 {
                "edge"
            } else {
                "no"
            }
        );
    }
    println!(
        "Legibility stays at 1.0 through the paper's limit of {DISPLAY_LIMIT} packets and degrades beyond the 16-box pallet footprint."
    );
}

fn print_analytics_sweep() {
    banner(
        "E-S2",
        "Sparse traffic-matrix analytics scaling (serial kernels)",
    );
    println!(
        "{:>10} {:>10} {:>10} {:>14} {:>14}",
        "events", "nodes", "nnz", "total packets", "mean row sum"
    );
    for &events in &[1_000usize, 10_000, 100_000, 500_000] {
        let nodes = 1024u32;
        let stream = synthetic_events(nodes, events, 7);
        let matrix = serial_matrix_from_events(nodes as usize, &stream);
        let row_sums = reduce_rows(&PlusTimes, &matrix);
        let total: u64 = row_sums.iter().sum();
        let mean = total as f64 / nodes as f64;
        println!(
            "{events:>10} {nodes:>10} {:>10} {total:>14} {mean:>14.1}",
            matrix.nnz()
        );
    }
}

fn bench_scaling(c: &mut Criterion) {
    print_legibility_sweep();
    print_analytics_sweep();

    // E-S1: render cost as the heaviest cell grows.
    let mut group = c.benchmark_group("legibility_render");
    for &packets in &[1u32, 8, 14, 32] {
        let mut matrix = TrafficMatrix::zeros(tw_core::matrix::LabelSet::paper_default_10());
        matrix.set(2, 7, packets).unwrap();
        matrix.set(7, 2, packets / 2).unwrap();
        let module = tw_core::module::ModuleBuilder::new("legibility", "bench")
            .matrix(matrix)
            .unwrap()
            .build();
        let scene = tw_core::game::WarehouseScene::build(&module);
        let mut view = tw_core::game::ViewState::new();
        view.toggle_mode();
        group.bench_with_input(
            BenchmarkId::new("render_3d_96px", packets),
            &packets,
            |b, _| b.iter(|| black_box(scene.render(&view, 96, 96).covered_pixels())),
        );
    }
    group.finish();

    // E-S2: matrix construction and analytics.
    let nodes = 1024usize;
    let events = synthetic_events(nodes as u32, 200_000, 11);
    let matrix = serial_matrix_from_events(nodes, &events);
    let dense_vector: Vec<u64> = (0..nodes as u64).map(|i| i % 7).collect();

    let mut group = c.benchmark_group("traffic_analytics_200k_events");
    group.bench_function("construct_serial", |b| {
        b.iter(|| black_box(serial_matrix_from_events(nodes, &events).nnz()))
    });
    group.bench_function("mxv_serial", |b| {
        b.iter(|| black_box(mxv(&PlusTimes, &matrix, &dense_vector).unwrap().len()))
    });
    group.bench_function("degrees_serial", |b| {
        b.iter(|| black_box(reduce_rows(&PlusTimes, &matrix).len()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_scaling
}
criterion_main!(benches);
