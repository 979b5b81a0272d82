//! Reference-simulator throughput versus module size: how the unit-delay
//! event-driven engine scales with gate count, and what register clocking
//! costs. Quantifies the wall the macro-model removes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hdpm_netlist::{modules, ValidatedNetlist};
use hdpm_sim::{random_patterns, run_patterns, DelayModel};

fn bench_scaling(c: &mut Criterion) {
    let cases: Vec<(String, ValidatedNetlist)> = vec![
        (
            "ripple_adder_16".into(),
            modules::ripple_adder(16).unwrap().validate().unwrap(),
        ),
        (
            "csa_mul_8x8".into(),
            modules::csa_multiplier(8, 8).unwrap().validate().unwrap(),
        ),
        (
            "csa_mul_16x16".into(),
            modules::csa_multiplier(16, 16).unwrap().validate().unwrap(),
        ),
        (
            "booth_wallace_16x16".into(),
            modules::booth_wallace_multiplier(16, 16)
                .unwrap()
                .validate()
                .unwrap(),
        ),
        ("mac_8".into(), modules::mac(8).unwrap().validate().unwrap()),
    ];

    let mut group = c.benchmark_group("simulate_200_cycles");
    for (name, netlist) in &cases {
        let m = netlist.netlist().input_bit_count();
        let patterns = random_patterns(m, 200, 1);
        group.throughput(Throughput::Elements(
            200 * netlist.netlist().gate_count() as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("unit_delay", name),
            &patterns,
            |b, patterns| b.iter(|| run_patterns(netlist, patterns, DelayModel::Unit)),
        );
        group.bench_with_input(
            BenchmarkId::new("zero_delay", name),
            &patterns,
            |b, patterns| b.iter(|| run_patterns(netlist, patterns, DelayModel::Zero)),
        );
    }
    group.finish();
}

/// Simulator hot loop with telemetry disabled versus enabled: the disabled
/// cost must stay within noise of the un-instrumented engine (the ≤2%
/// overhead budget), and the enabled cost shows what per-cycle timing and
/// metric flushing add.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let netlist = modules::csa_multiplier(8, 8).unwrap().validate().unwrap();
    let m = netlist.netlist().input_bit_count();
    let patterns = random_patterns(m, 200, 1);

    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Elements(200));
    hdpm_telemetry::set_mode(hdpm_telemetry::Mode::Off);
    group.bench_function("simulate_200_cycles/disabled", |b| {
        b.iter(|| run_patterns(&netlist, &patterns, DelayModel::Unit))
    });
    // Error level keeps the event stream silent; only counters/histograms
    // are live, which is the steady-state production configuration.
    hdpm_telemetry::set_mode(hdpm_telemetry::Mode::Human);
    hdpm_telemetry::set_level(hdpm_telemetry::Level::Error);
    group.bench_function("simulate_200_cycles/enabled", |b| {
        b.iter(|| run_patterns(&netlist, &patterns, DelayModel::Unit))
    });
    hdpm_telemetry::set_mode(hdpm_telemetry::Mode::Off);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scaling, bench_telemetry_overhead
}
criterion_main!(benches);
