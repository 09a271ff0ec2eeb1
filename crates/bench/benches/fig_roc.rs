//! Bench-scale Figures 1/8: ROC accuracy measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use mrp_bench::BENCH_WORKLOADS;
use mrp_experiments::{roc, RunScale};

fn bench(c: &mut Criterion) {
    let scale = RunScale::single_thread().warmup(20_000).measure(100_000);
    let mut group = c.benchmark_group("fig_roc");
    group.sample_size(10);
    group.bench_function("roc_three_predictors", |b| {
        b.iter(|| {
            let curves = roc::run(scale, BENCH_WORKLOADS);
            criterion::black_box(curves[2].tpr_at_fpr(0.28))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
