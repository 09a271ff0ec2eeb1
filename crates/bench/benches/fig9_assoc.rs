//! Bench-scale Figure 9: uniform associativity sweep (two points).

use criterion::{criterion_group, criterion_main, Criterion};
use mrp_experiments::assoc_sweep;
use mrp_experiments::RunScale;

fn bench(c: &mut Criterion) {
    let scale = RunScale::multi_core()
        .warmup(15_000)
        .measure(60_000)
        .seed(5);
    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);
    group.bench_function("assoc_sweep_2pts_1mix", |b| {
        b.iter(|| {
            let sweep = assoc_sweep::run(scale, 1, 9);
            criterion::black_box(sweep.original)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
