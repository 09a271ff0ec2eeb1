//! Hot-path kernel benches: the per-feature compiled path against the
//! lane-SoA kernels at every available SIMD level, and the gather-sum
//! confidence kernel pair.
//!
//! Companion to `bench_snapshot`'s `batched_hot_path` section (which
//! records the same comparisons as committed JSON); this bench gives the
//! interactive view. All kernels compute identical offsets —
//! `mrp-verify`'s kernel-identity pass proves it — so every line here is
//! pure throughput, not a behavioral variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrp_core::context::FeatureContext;
use mrp_core::simd;
use mrp_core::tables::WeightTables;
use mrp_core::{feature_sets, FeaturePlan};

/// Contexts rotated through by the per-access benches.
const CONTEXTS: usize = 16;

/// A rolling window of deterministic contexts sharing one history.
fn contexts(history: &[u64], n: usize) -> Vec<FeatureContext<'_>> {
    (0..n as u64)
        .map(|i| {
            let pc = 0x40_0000 + i * 4;
            FeatureContext {
                pc,
                address: pc.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                pc_history: history,
                is_mru: i % 2 == 0,
                is_insert: i % 3 == 0,
                last_miss: i % 5 == 0,
            }
        })
        .collect()
}

fn bench_index_kernels(c: &mut Criterion) {
    let features = feature_sets::table_1a();
    let plan = FeaturePlan::new(&features);
    let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 1357).collect();
    let ctxs = contexts(&history, CONTEXTS);

    let mut group = c.benchmark_group("index_kernels");
    group.throughput(Throughput::Elements(1));
    group.bench_function("compiled", |b| {
        let mut out = Vec::with_capacity(16);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ctxs.len();
            plan.compute_offsets_compiled(&ctxs[i], &mut out);
            criterion::black_box(out.len())
        })
    });
    for &level in simd::available_levels() {
        group.bench_with_input(
            BenchmarkId::new("lane", level.name()),
            &level,
            |b, &level| {
                let mut out = Vec::with_capacity(16);
                let mut i = 0;
                b.iter(|| {
                    i = (i + 1) % ctxs.len();
                    plan.compute_offsets_with(level, &ctxs[i], &mut out);
                    criterion::black_box(out.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_gather_sum(c: &mut Criterion) {
    let features = feature_sets::table_1a();
    let plan = FeaturePlan::new(&features);
    let mut tables = WeightTables::new(&features);
    // Spread the weights so the sum is not trivially zero.
    for offset in 0..tables.arena_len() {
        for _ in 0..(offset % 5) {
            if offset % 2 == 0 {
                tables.increment_at(offset as u16);
            } else {
                tables.decrement_at(offset as u16);
            }
        }
    }
    let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 1357).collect();
    let ctxs = contexts(&history, CONTEXTS);
    let mut offsets = Vec::with_capacity(16);
    plan.compute_offsets(&ctxs[0], &mut offsets);

    let mut group = c.benchmark_group("gather_sum");
    group.throughput(Throughput::Elements(1));
    for &level in simd::available_levels() {
        group.bench_with_input(
            BenchmarkId::from_parameter(level.name()),
            &level,
            |b, &level| b.iter(|| criterion::black_box(tables.confidence_with(level, &offsets))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_index_kernels, bench_gather_sum);
criterion_main!(benches);
