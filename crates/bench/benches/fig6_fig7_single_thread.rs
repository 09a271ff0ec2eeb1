//! Bench-scale Figure 6/7: the single-thread policy comparison (speedup
//! and MPKI share one run matrix).

use criterion::{criterion_group, criterion_main, Criterion};
use mrp_bench::{BENCH_MEASURE, BENCH_WARMUP, BENCH_WORKLOADS};
use mrp_experiments::{single_thread, RunScale};

fn bench(c: &mut Criterion) {
    let scale = RunScale::single_thread()
        .warmup(BENCH_WARMUP)
        .measure(BENCH_MEASURE);
    let mut group = c.benchmark_group("fig6_fig7");
    group.sample_size(10);
    group.bench_function("st_comparison_2wl", |b| {
        b.iter(|| {
            let matrix = single_thread::run(scale, BENCH_WORKLOADS, true);
            criterion::black_box(matrix.geomean_speedup("MPPPB"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
