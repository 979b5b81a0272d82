//! Event-driven oracle vs bit-parallel engine on the same
//! characterization workload — the speedup that shrinks every cold start
//! the engine and server pay. Both backends produce bit-identical charge
//! tables (tests/sim_conformance.rs), so this group measures pure
//! throughput: `event/<family>/<width>` over `bitplane/<family>/<width>`
//! is the speedup factor recorded in BENCH_sim.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdpm_core::{characterize_with_backend, CharacterizationConfig, ShardingConfig, SimBackend};
use hdpm_netlist::{ModuleKind, ModuleSpec};

fn bench_bitparallel(c: &mut Criterion) {
    let config = CharacterizationConfig {
        max_patterns: 1000,
        convergence_tol: 0.0, // fixed budget: measure the full run
        ..CharacterizationConfig::default()
    };

    let mut group = c.benchmark_group("characterize_bitparallel");
    for (kind, width) in [
        (ModuleKind::RippleAdder, 16usize),
        (ModuleKind::ClaAdder, 16),
        (ModuleKind::CsaMultiplier, 8),
        (ModuleKind::CsaMultiplier, 12),
        (ModuleKind::BoothWallaceMultiplier, 8),
        (ModuleKind::BoothWallaceMultiplier, 12),
    ] {
        let netlist = ModuleSpec::new(kind, width)
            .build()
            .expect("valid spec")
            .validate()
            .expect("valid module");
        for backend in [SimBackend::Event, SimBackend::Bitplane] {
            group.bench_with_input(
                BenchmarkId::new(format!("{}/{}", backend.id(), kind.id()), width),
                &netlist,
                |b, netlist| {
                    b.iter(|| {
                        characterize_with_backend(
                            netlist,
                            &config,
                            &ShardingConfig::SEQUENTIAL,
                            backend,
                        )
                        .expect("non-empty budget")
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_bitparallel
}
criterion_main!(benches);
