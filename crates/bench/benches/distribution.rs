//! Cost of the §6 analytic machinery: breakpoint computation, Hd
//! distributions, convolution, and the sign activity (the orthant form at
//! zero mean, Owen's T otherwise). These are the per-stream costs of the
//! "fast" estimation path, so they must stay trivial next to simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdpm_datamodel::{region_model, sign_change_probability, HdDistribution, WordModel};

fn bench_distribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("datamodel");

    for width in [8usize, 16, 32] {
        let model = WordModel::new(12.0, 900.0, 0.93, width);
        group.bench_with_input(BenchmarkId::new("region_model", width), &model, |b, m| {
            b.iter(|| region_model(m))
        });
        let regions = region_model(&model);
        group.bench_with_input(
            BenchmarkId::new("hd_distribution", width),
            &regions,
            |b, r| b.iter(|| HdDistribution::from_regions(r)),
        );
    }

    let a = HdDistribution::from_regions(&region_model(&WordModel::new(0.0, 500.0, 0.9, 16)));
    let b_dist = HdDistribution::from_regions(&region_model(&WordModel::new(30.0, 200.0, 0.5, 16)));
    group.bench_function("convolve_16x16", |b| b.iter(|| a.convolve(&b_dist)));

    group.bench_function("sign_activity_closed_form", |b| {
        b.iter(|| sign_change_probability(0.0, 1.0, 0.93))
    });
    group.bench_function("sign_activity_nonzero_mean", |b| {
        b.iter(|| sign_change_probability(0.4, 1.0, 0.93))
    });

    group.finish();
}

criterion_group!(benches, bench_distribution);
criterion_main!(benches);
