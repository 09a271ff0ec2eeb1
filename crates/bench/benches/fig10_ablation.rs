//! Bench-scale Figure 10: leave-one-feature-out ablation (two features).

use criterion::{criterion_group, criterion_main, Criterion};
use mrp_experiments::ablation;
use mrp_experiments::RunScale;

fn bench(c: &mut Criterion) {
    let scale = RunScale::multi_core()
        .warmup(10_000)
        .measure(50_000)
        .seed(5);
    let mut group = c.benchmark_group("fig10");
    group.sample_size(10);
    group.bench_function("ablate_2_features_1mix", |b| {
        b.iter(|| {
            let result = ablation::run(scale, 1, 2);
            criterion::black_box(result.original)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
