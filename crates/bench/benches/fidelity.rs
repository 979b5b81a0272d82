//! Cold-start latency per fidelity tier: what a never-characterized spec
//! costs at each rung of the ladder. Tier A answers from netlist
//! structure alone (nanoseconds–microseconds), tier B from a memoized
//! regression over characterized siblings (microseconds), tier C pays the
//! full characterization (milliseconds). The spread between the rungs is
//! the reason the ladder exists; `BENCH_engine.json` records it as the
//! `engine_cold_tier` series.
//!
//! The tier-A/B engines get a no-op upgrade hook so the background worker
//! never promotes the benched spec to the memory tier mid-measurement —
//! every iteration stays on the tier being measured.
//!
//! Snapshot with
//! `cargo bench -p hdpm-bench --bench engine --bench fidelity` followed by
//! two `perf_summary` runs (`--group engine_throughput`,
//! `--group engine_cold_tier`) merged into `BENCH_engine.json`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use hdpm_core::{
    characterize_sharded, CharacterizationConfig, EngineOptions, Fidelity, PowerEngine,
    ShardingConfig, TraceCtx,
};
use hdpm_datamodel::HdDistribution;
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};

fn quick_engine(config: CharacterizationConfig, sharding: ShardingConfig) -> Arc<PowerEngine> {
    let engine = Arc::new(PowerEngine::new(EngineOptions {
        config,
        sharding: Some(sharding),
        disk_root: None,
        capacity: 16,
    }));
    engine.set_upgrade_hook(|_, _| {});
    engine
}

fn bench_cold_tiers(c: &mut Criterion) {
    let config = CharacterizationConfig::builder()
        .max_patterns(2000)
        .build()
        .expect("valid config");
    let sharding = ShardingConfig {
        shards: 4,
        threads: 0,
    };
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Uniform(6));
    let m = spec.kind.input_bits(spec.width);
    let dist = HdDistribution::from_bit_activities(&vec![0.5; m]);

    let mut group = c.benchmark_group("engine_cold_tier");

    // Tier A: closed-form structural estimate, nothing characterized.
    let analytic = quick_engine(config, sharding);
    group.bench_function("tier_a_analytic", |b| {
        b.iter(|| {
            analytic
                .estimate_at(spec, &dist, Fidelity::Analytic, &mut TraceCtx::disabled())
                .expect("analytic tier")
        })
    });

    // Tier B: regression over characterized sibling widths (the benched
    // width itself stays uncharacterized).
    let regressed = quick_engine(config, sharding);
    for width in [4usize, 8, 10] {
        regressed
            .model(ModuleSpec::new(spec.kind, width))
            .expect("sibling characterization");
    }
    group.bench_function("tier_b_regressed", |b| {
        b.iter(|| {
            let estimate = regressed
                .estimate_at(spec, &dist, Fidelity::Regressed, &mut TraceCtx::disabled())
                .expect("regressed tier");
            assert_eq!(estimate.fidelity, Fidelity::Regressed);
            estimate
        })
    });

    // Tier C: the full cold characterize-then-estimate cost.
    let netlist = spec
        .build()
        .expect("valid spec")
        .validate()
        .expect("valid module");
    group.bench_function("tier_c_full", |b| {
        b.iter(|| {
            let characterization =
                characterize_sharded(&netlist, &config, &sharding).expect("non-empty budget");
            characterization
                .model
                .estimate_distribution(&dist)
                .expect("width matches")
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cold_tiers
}
criterion_main!(benches);
