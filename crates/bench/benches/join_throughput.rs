//! Criterion benchmarks of end-to-end join throughput for the main operator
//! configurations (single-threaded B+-Tree / PIM-Tree, parallel PIM-Tree on
//! the lock-free task ring, including a deliberately tiny ring that maximises
//! wraparound and coordination pressure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pimtree_bench::harness::{
    pim_config, run_parallel, run_parallel_ring, run_single, two_way_workload,
};
use pimtree_common::{IndexKind, RingConfig};
use pimtree_join::SharedIndexKind;
use pimtree_workload::KeyDistribution;

fn bench_join(c: &mut Criterion) {
    let w = 1usize << 15;
    let n = 1usize << 17;
    let (tuples, predicate) =
        two_way_workload(n + 2 * w, w, 2.0, KeyDistribution::uniform(), 50.0, 42);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(8)
        .min(8);

    let mut group = c.benchmark_group("join_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("single_btree", w), |b| {
        b.iter(|| {
            run_single(
                IndexKind::BTree,
                w,
                2,
                pim_config(w).with_merge_ratio(0.125),
                predicate,
                &tuples,
                2 * w,
                false,
            )
            .results
        })
    });
    group.bench_function(BenchmarkId::new("single_pim", w), |b| {
        b.iter(|| {
            run_single(
                IndexKind::PimTree,
                w,
                2,
                pim_config(w).with_merge_ratio(0.125),
                predicate,
                &tuples,
                2 * w,
                false,
            )
            .results
        })
    });
    group.bench_function(BenchmarkId::new("parallel_pim", w), |b| {
        b.iter(|| {
            run_parallel(
                SharedIndexKind::PimTree,
                w,
                w,
                threads,
                8,
                pim_config(w),
                predicate,
                &tuples,
                false,
            )
            .results
        })
    });
    // A 256-slot ring wraps ~hundreds of times per run: this measures the
    // task ring's coordination overhead in isolation from cache effects.
    group.bench_function(BenchmarkId::new("parallel_pim_tiny_ring", w), |b| {
        b.iter(|| {
            run_parallel_ring(
                SharedIndexKind::PimTree,
                w,
                w,
                threads,
                8,
                pim_config(w),
                RingConfig::default().with_capacity(256),
                predicate,
                &tuples,
                false,
            )
            .results
        })
    });
    group.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);
