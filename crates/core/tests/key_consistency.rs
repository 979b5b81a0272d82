//! The engine builds its keys, in memory and for the artifact names on
//! disk, from a fingerprint taken once, at construction; `ModelKey::new`
//! computes it afresh from the config. The two must never drift apart:
//! not in memory, not in the artifact names on disk, and not from the
//! fingerprint values already written into existing stores.

use hdpm_core::test_support::TempDir;
use hdpm_core::{
    config_fingerprint, CharacterizationConfig, EngineOptions, ModelKey, PowerEngine,
    ShardingConfig, StimulusKind, ZeroClustering,
};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};

/// Configs that differ in every field kind, the default among them.
fn configs() -> Vec<CharacterizationConfig> {
    let base = CharacterizationConfig::default();
    vec![
        base,
        CharacterizationConfig {
            max_patterns: 300,
            check_interval: 100,
            ..base
        },
        CharacterizationConfig {
            stimulus: StimulusKind::UniformHd,
            seed: 0xDEAD_BEEF,
            ..base
        },
        CharacterizationConfig {
            delay_model: hdpm_sim::DelayModel::Zero,
            convergence_tol: 0.125,
            min_class_samples: 3,
            clustering: ZeroClustering::Clustered(4),
            ..base
        },
    ]
}

fn specs() -> [ModuleSpec; 3] {
    [
        ModuleSpec::new(ModuleKind::RippleAdder, 4usize),
        ModuleSpec::new(ModuleKind::ClaAdder, 12usize),
        ModuleSpec::new(ModuleKind::CsaMultiplier, ModuleWidth::Rect(5, 3)),
    ]
}

/// A disk-backed engine on `root` under `config` and `shards`.
fn engine(config: CharacterizationConfig, shards: usize, root: &TempDir) -> PowerEngine {
    PowerEngine::new(EngineOptions {
        config,
        sharding: Some(ShardingConfig { shards, threads: 1 }),
        disk_root: Some(root.path().to_path_buf()),
        capacity: 4,
    })
}

#[test]
fn engine_keys_equal_model_key_new() {
    let root = TempDir::new("key_consistency_keys");
    for config in configs() {
        for shards in [0, 1, 4, 8] {
            let engine = engine(config, shards, &root);
            for spec in specs() {
                let expected = ModelKey::new(spec, &config, shards);
                assert_eq!(engine.key_for(spec), expected, "{config:?} sh{shards}");
            }
        }
    }
    // An engine without a sharding shape runs the sequential stream.
    let config = CharacterizationConfig::default();
    let engine = PowerEngine::new(EngineOptions {
        config,
        sharding: None,
        disk_root: None,
        capacity: 4,
    });
    let spec = specs()[0];
    assert_eq!(engine.key_for(spec), ModelKey::new(spec, &config, 0));
}

#[test]
fn engines_find_artifacts_named_by_model_key_new() {
    let dir = TempDir::new("key_consistency");
    let configs = configs();
    // Every (config, shard count) pair writes its artifacts under the
    // name `ModelKey::new` gives them, all into one root.
    let shard_counts = [0, 4];
    for (index, config) in configs.iter().enumerate() {
        for shards in shard_counts {
            for spec in &specs()[..=index % 3] {
                let name = ModelKey::new(*spec, config, shards).artifact_file_name();
                std::fs::write(dir.join(&name), b"{}").unwrap();
            }
        }
    }
    // Each engine sees exactly the artifacts of its own config and shard
    // count in the shared root. (That its tier-B fit harvests only those
    // is `engine::tests::disk_siblings_of_another_configuration_are_not_fitted`.)
    for (index, config) in configs.iter().enumerate() {
        for shards in shard_counts {
            let engine = engine(*config, shards, &dir);
            for (position, spec) in specs().into_iter().enumerate() {
                assert_eq!(
                    engine.has_model(spec),
                    position <= index % 3,
                    "{spec} under {config:?} sh{shards}"
                );
            }
        }
    }
}

#[test]
fn fingerprints_of_existing_stores_never_change() {
    // Stores on disk name their artifacts by these values; a change to
    // the fingerprint would orphan every artifact they hold.
    let pinned: [u64; 4] = [
        0x1791_2492_3b67_38f4,
        0x9da4_b45a_dfff_c4dd,
        0x8769_2354_e60d_be9d,
        0xdeb3_392b_0b1a_9777,
    ];
    for (config, expected) in configs().iter().zip(pinned) {
        assert_eq!(config_fingerprint(config), expected, "{config:?}");
    }
    let key = ModelKey::new(specs()[0], &configs()[0], 8);
    assert_eq!(
        key.artifact_file_name(),
        format!("ripple_adder_4_cfg{:016x}_sh8.json", pinned[0])
    );
}
