//! Bench-scale Figure 4/5: the 4-core multi-programmed comparison
//! (weighted speedup and MPKI share one run matrix).

use criterion::{criterion_group, criterion_main, Criterion};
use mrp_bench::BENCH_MIXES;
use mrp_experiments::multi;
use mrp_experiments::RunScale;

fn bench(c: &mut Criterion) {
    let scale = RunScale::multi_core().warmup(20_000).measure(80_000);
    let mut group = c.benchmark_group("fig4_fig5");
    group.sample_size(10);
    group.bench_function("mp_comparison_1mix", |b| {
        b.iter(|| {
            let matrix = multi::run(scale, BENCH_MIXES, 1);
            criterion::black_box(matrix.geomean_speedup("MPPPB"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
