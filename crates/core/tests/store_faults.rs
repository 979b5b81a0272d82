//! Crash-consistency suite for the model store.
//!
//! Every fault the test-only hook in `persist` can inject — truncations,
//! bit flips, simulated kills mid-write and before rename, rename
//! failures — must leave the store in one of exactly two observable
//! states: a valid model identical to the original, or a precise typed
//! [`ModelError::Artifact`]. A silently *different* model is the one
//! outcome that must never occur. The suite also drives `fsck` end to
//! end: scan a deliberately corrupted root, repair it, and verify the
//! store is fully valid afterwards; and it runs two engines on one store.

use std::path::PathBuf;

use hdpm_core::persist::{self, fault, EnvelopeMeta, EnvelopeStatus};
use hdpm_core::test_support::TempDir;
use hdpm_core::{
    characterize, config_fingerprint, fsck, ArtifactFaultKind, CacheSource, Characterization,
    CharacterizationConfig, EngineOptions, FsckOptions, FsckStatus, ModelError, ModelKey,
    PowerEngine, RepairAction, StimulusKind, QUARANTINE_DIR,
};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use proptest::prelude::*;

fn quick_config() -> CharacterizationConfig {
    CharacterizationConfig {
        max_patterns: 1500,
        ..CharacterizationConfig::default()
    }
}

fn quick_characterization(width: usize) -> Characterization {
    let netlist = ModuleSpec::new(ModuleKind::RippleAdder, width)
        .build()
        .unwrap()
        .validate()
        .unwrap();
    characterize(&netlist, &quick_config()).unwrap()
}

/// A disk-backed engine on `dir` running the sequential stream, the
/// stream [`quick_characterization`] runs.
fn engine_on(dir: &TempDir) -> PowerEngine {
    PowerEngine::new(EngineOptions {
        config: quick_config(),
        sharding: None,
        disk_root: Some(dir.path().to_path_buf()),
        capacity: 8,
    })
}

/// Where [`engine_on`] keeps the artifact of a ripple adder of `width`.
fn artifact_path(dir: &TempDir, width: usize) -> PathBuf {
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, width);
    dir.join(&ModelKey::new(spec, &quick_config(), 0).artifact_file_name())
}

/// The invariant every injected fault must respect on the read side.
fn assert_valid_or_typed_error(
    loaded: Result<Characterization, ModelError>,
    original: &Characterization,
    context: &str,
) {
    match loaded {
        Ok(read_back) => assert_eq!(
            &read_back, original,
            "{context}: a load that succeeds must return the original model"
        ),
        Err(ModelError::Artifact { kind, .. }) => {
            let _ = kind; // any typed kind is acceptable; silence is not
        }
        Err(other) => panic!("{context}: expected a typed Artifact error, got {other}"),
    }
}

#[test]
fn truncation_matrix_never_yields_a_wrong_model() {
    let dir = TempDir::new("faults_truncate");
    let original = quick_characterization(4);
    let reference = dir.join("reference.json");
    persist::save(&original, &reference).unwrap();
    let len = std::fs::metadata(&reference).unwrap().len() as usize;

    for keep in [0, 1, 8, 17, 64, len / 4, len / 2, len - 1, len] {
        let path = dir.join("truncated.json");
        fault::arm(fault::Fault::TruncateWrite(keep));
        persist::save(&original, &path).unwrap();
        let loaded = persist::load::<Characterization>(&path);
        if keep == len {
            assert_eq!(loaded.unwrap(), original, "full length is untruncated");
        } else {
            assert_valid_or_typed_error(loaded, &original, &format!("truncate at {keep}/{len}"));
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn bit_flip_matrix_never_yields_a_wrong_model() {
    let dir = TempDir::new("faults_flip");
    let original = quick_characterization(4);
    let reference = dir.join("reference.json");
    persist::save(&original, &reference).unwrap();
    let bits = std::fs::metadata(&reference).unwrap().len() as usize * 8;

    let mut detected = 0usize;
    let samples = 48;
    for i in 0..samples {
        // A deterministic spread of positions across the whole envelope:
        // version field, meta, checksum, payload all get hit.
        let bit = (i * bits) / samples + 3;
        let path = dir.join("flipped.json");
        fault::arm(fault::Fault::FlipBit(bit));
        persist::save(&original, &path).unwrap();
        let loaded = persist::load::<Characterization>(&path);
        if loaded.is_err() {
            detected += 1;
        }
        assert_valid_or_typed_error(loaded, &original, &format!("bit flip at {bit}"));
        std::fs::remove_file(&path).unwrap();
    }
    assert!(
        detected >= samples / 2,
        "the checksum must catch most flips, caught {detected}/{samples}"
    );
}

#[test]
fn killed_mid_write_leaves_no_artifact_and_the_next_engine_recovers() {
    let dir = TempDir::new("faults_kill");
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
    let original = quick_characterization(4);
    let key = ModelKey::new(spec, &quick_config(), 0);
    let path = artifact_path(&dir, 4);

    for crash in [
        fault::Fault::CrashMidWrite(25),
        fault::Fault::CrashBeforeRename,
    ] {
        // The fault hook is per thread and an engine saves on its persist
        // thread, so the crash hits the engine's write made here.
        fault::arm(crash);
        let err =
            persist::save_with_meta(&original, &EnvelopeMeta::for_key(&key), &path).unwrap_err();
        assert!(matches!(err, ModelError::Io(_)), "{crash:?}: {err}");
        assert!(
            !path.exists(),
            "{crash:?}: an interrupted write must leave nothing at the final path"
        );
        // The store is not wedged: a fresh engine re-characterizes and
        // stores atomically, and the next one reads the valid artifact.
        let (_, source) = engine_on(&dir).fetch(spec).unwrap();
        assert_eq!(source, CacheSource::Fresh, "{crash:?}");
        let (read, source) = engine_on(&dir).fetch(spec).unwrap();
        assert_eq!(
            (source, &*read),
            (CacheSource::Disk, &original),
            "{crash:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn failed_rename_reports_io_and_leaves_no_droppings() {
    let dir = TempDir::new("faults_rename");
    let original = quick_characterization(4);
    let path = dir.join("model.json");
    fault::arm(fault::Fault::FailRename);
    let err = persist::save(&original, &path).unwrap_err();
    assert!(matches!(err, ModelError::Io(_)), "{err}");
    let names: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.is_empty(),
        "temp cleaned up on rename failure: {names:?}"
    );
    // One-shot: the retry succeeds without rearming.
    persist::save(&original, &path).unwrap();
    assert_eq!(persist::load::<Characterization>(&path).unwrap(), original);
}

#[test]
fn faults_are_one_shot_and_disarmable() {
    let dir = TempDir::new("faults_oneshot");
    let original = quick_characterization(4);
    fault::arm(fault::Fault::TruncateWrite(3));
    fault::disarm();
    let path = dir.join("model.json");
    persist::save(&original, &path).unwrap();
    assert_eq!(persist::load::<Characterization>(&path).unwrap(), original);
}

#[test]
fn serving_survives_every_injected_fault() {
    // Whatever garbage the faults leave at the final path, a fresh
    // engine must serve a correct model.
    let dir = TempDir::new("faults_serving");
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
    let (clean, _) = engine_on(&dir).fetch(spec).unwrap();

    for (i, keep) in [0usize, 10, 100, 300].into_iter().enumerate() {
        fault::arm(fault::Fault::TruncateWrite(keep));
        persist::save(&*clean, artifact_path(&dir, 4)).unwrap();
        let (recovered, _) = engine_on(&dir).fetch(spec).unwrap();
        assert_eq!(recovered.model, clean.model, "recovery #{i} is exact");
    }
    let quarantined = std::fs::read_dir(dir.path().join(QUARANTINE_DIR))
        .unwrap()
        .count();
    assert!(quarantined >= 1, "corrupt artifacts were preserved");
}

#[test]
fn fsck_scan_and_repair_restore_a_corrupted_library() {
    let dir = TempDir::new("faults_fsck");
    let healthy_spec = ModuleSpec::new(ModuleKind::RippleAdder, 5usize);
    let broken_spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
    let legacy_spec = ModuleSpec::new(ModuleKind::RippleAdder, 6usize);
    let (broken_original, legacy_original) = {
        // Dropping the engine makes its artifacts durable.
        let engine = engine_on(&dir);
        engine.model(healthy_spec).unwrap();
        let originals = (engine.model(broken_spec), engine.model(legacy_spec));
        (originals.0.unwrap(), originals.1.unwrap())
    };

    // Corrupt the store four different ways.
    std::fs::write(artifact_path(&dir, 4), "{torn mid-write").unwrap();
    std::fs::write(
        artifact_path(&dir, 6),
        persist::to_json(&*legacy_original).unwrap(),
    )
    .unwrap();
    std::fs::write(dir.join("notes.json"), "{\"not\":\"a model\"}").unwrap();
    std::fs::write(dir.join("stale.json.tmp.1234.0"), "partial").unwrap();
    std::fs::write(dir.join("dead.json.lock"), "999999999").unwrap();

    // Scan only: classified, untouched.
    let report = fsck(dir.path(), &FsckOptions { repair: false }).unwrap();
    assert!(!report.is_clean());
    let status_of = |name: &str| {
        report
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("missing entry {name}"))
            .status
            .clone()
    };
    let name_of = |spec| ModelKey::new(spec, &quick_config(), 0).artifact_file_name();
    let broken_name = name_of(broken_spec);
    let legacy_name = name_of(legacy_spec);
    let healthy_name = name_of(healthy_spec);
    assert_eq!(status_of(&healthy_name), FsckStatus::Valid);
    assert_eq!(
        status_of(&broken_name),
        FsckStatus::Fault(ArtifactFaultKind::Truncated)
    );
    assert_eq!(
        status_of(&legacy_name),
        FsckStatus::Fault(ArtifactFaultKind::StaleVersion)
    );
    assert_eq!(
        status_of("notes.json"),
        FsckStatus::Fault(ArtifactFaultKind::Foreign)
    );
    assert_eq!(status_of("stale.json.tmp.1234.0"), FsckStatus::OrphanTemp);
    assert_eq!(status_of("dead.json.lock"), FsckStatus::StaleLock);
    assert!(dir.join("notes.json").exists(), "scan-only moves nothing");

    // Repair: quarantine + re-characterize (torn and bare) + sweep.
    let report = fsck(dir.path(), &FsckOptions { repair: true }).unwrap();
    let action_of = |name: &str| {
        report
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("missing entry {name}"))
            .action
    };
    assert_eq!(action_of(&healthy_name), RepairAction::None);
    assert_eq!(action_of(&broken_name), RepairAction::Recharacterized);
    assert_eq!(action_of(&legacy_name), RepairAction::Recharacterized);
    assert_eq!(action_of("notes.json"), RepairAction::Quarantined);
    assert_eq!(action_of("stale.json.tmp.1234.0"), RepairAction::Removed);
    assert_eq!(action_of("dead.json.lock"), RepairAction::Removed);

    // The repaired store is fully valid and serves the same models.
    let report = fsck(dir.path(), &FsckOptions { repair: false }).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let engine = engine_on(&dir);
    let (restored, source) = engine.fetch(broken_spec).unwrap();
    assert_eq!(source, CacheSource::Disk);
    assert_eq!(restored.model, broken_original.model, "repair is bit-exact");
    let (rebuilt, source) = engine.fetch(legacy_spec).unwrap();
    assert_eq!(source, CacheSource::Disk);
    assert_eq!(rebuilt.model, legacy_original.model, "repair is bit-exact");
    // The corrupt originals survive in quarantine for the post-mortem.
    let quarantined = std::fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count();
    assert_eq!(
        quarantined, 3,
        "torn artifact + bare payload + foreign file"
    );
}

#[test]
fn foreign_artifact_at_the_wrong_path_is_rejected() {
    // An artifact whose envelope belongs to a *different* key must never
    // be served just because it sits at the queried path.
    let dir = TempDir::new("faults_foreign");
    let spec_b = ModuleSpec::new(ModuleKind::RippleAdder, 5usize);
    let (a, _) = engine_on(&dir)
        .fetch(ModuleSpec::new(ModuleKind::RippleAdder, 4usize))
        .unwrap();
    // Copy A's artifact over B's path: same config, wrong spec.
    std::fs::copy(artifact_path(&dir, 4), artifact_path(&dir, 5)).unwrap();
    let expected = EnvelopeMeta::for_key(&ModelKey::new(spec_b, &quick_config(), 0));
    match persist::load_classified::<Characterization>(&artifact_path(&dir, 5), &expected) {
        Err(ModelError::Artifact { kind, detail, .. }) => {
            assert_eq!(kind, ArtifactFaultKind::Foreign);
            assert!(detail.contains("different key"), "{detail}");
        }
        other => panic!("expected Foreign artifact error, got {other:?}"),
    }
    // The engine sets it aside and characterizes B itself.
    let (b, source) = engine_on(&dir).fetch(spec_b).unwrap();
    assert_eq!(source, CacheSource::Fresh);
    assert_eq!(*b, quick_characterization(5));
    assert_ne!(b.model, a.model);
}

#[test]
fn stale_version_envelope_is_reported_not_guessed() {
    let dir = TempDir::new("faults_version");
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
    let path = artifact_path(&dir, 4);
    std::fs::write(
        &path,
        "{\"hdpm_envelope\":2,\"checksum\":\"fnv1a64:0000000000000000\",\"payload\":{}}",
    )
    .unwrap();
    let expected = EnvelopeMeta::for_key(&ModelKey::new(spec, &quick_config(), 0));
    match persist::load_classified::<Characterization>(&path, &expected) {
        Err(ModelError::Artifact { kind, .. }) => {
            assert_eq!(kind, ArtifactFaultKind::StaleVersion);
        }
        other => panic!("expected StaleVersion, got {other:?}"),
    }
    let report = fsck(dir.path(), &FsckOptions { repair: false }).unwrap();
    assert_eq!(
        report.count(|s| *s == FsckStatus::Fault(ArtifactFaultKind::StaleVersion)),
        1
    );
    // The engine never guesses at a newer format: it sets the file aside
    // and characterizes.
    let (served, source) = engine_on(&dir).fetch(spec).unwrap();
    assert_eq!(
        (source, &*served),
        (CacheSource::Fresh, &quick_characterization(4))
    );
}

/// Two engines on one store, as two server processes share one: the
/// artifact lock lets exactly one characterize the key, the other reads
/// what it stored, and once both are gone the store holds that one
/// artifact and no lock.
#[test]
fn two_engines_on_one_store_characterize_a_key_once() {
    let dir = TempDir::new("faults_two_engines");
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
    let engines = [engine_on(&dir), engine_on(&dir)];
    let start = std::sync::Barrier::new(engines.len());
    let mut sources: Vec<CacheSource> = std::thread::scope(|scope| {
        let fetches: Vec<_> = engines
            .iter()
            .map(|engine| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    engine.fetch(spec).unwrap().1
                })
            })
            .collect();
        fetches.into_iter().map(|f| f.join().unwrap()).collect()
    });
    sources.sort_by_key(|source| source.as_str());
    assert_eq!(sources, [CacheSource::Disk, CacheSource::Fresh]);
    let characterizations: u64 = engines.iter().map(|e| e.stats().characterizations).sum();
    assert_eq!(characterizations, 1);
    drop(engines);
    let names: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name != hdpm_core::META_DIR)
        .collect();
    let artifact = ModelKey::new(spec, &quick_config(), 0).artifact_file_name();
    assert_eq!(names, [artifact], "one artifact, no lock");
}

#[test]
fn envelope_meta_round_trips_through_load_classified() {
    let dir = TempDir::new("faults_meta");
    let original = quick_characterization(4);
    let key = ModelKey::new(
        ModuleSpec::new(ModuleKind::RippleAdder, 4usize),
        &quick_config(),
        0,
    );
    let meta = EnvelopeMeta {
        spec: Some(key.spec.to_string()),
        config_fingerprint: Some(key.config_hash),
        shards: Some(key.shards),
    };
    let path = dir.join(&key.artifact_file_name());
    persist::save_with_meta(&original, &meta, &path).unwrap();
    let (loaded, status) = persist::load_classified::<Characterization>(&path, &meta).unwrap();
    assert_eq!(status, EnvelopeStatus::Current);
    assert_eq!(loaded, original);
}

type ConfigParts = ((u8, u8, u8, u8), (u8, u8, u8, u8));

fn config_from(parts: ConfigParts) -> CharacterizationConfig {
    let ((patterns, stim, seed, delay), (tol, interval, min_samples, cluster)) = parts;
    CharacterizationConfig {
        max_patterns: 1000 + patterns as usize,
        stimulus: match stim % 3 {
            0 => StimulusKind::UniformRandom,
            1 => StimulusKind::SignalProbSweep,
            _ => StimulusKind::UniformHd,
        },
        seed: seed as u64,
        delay_model: if delay % 2 == 0 {
            hdpm_sim::DelayModel::Unit
        } else {
            hdpm_sim::DelayModel::Zero
        },
        convergence_tol: 0.01 + f64::from(tol) / 1000.0,
        check_interval: 500 + interval as usize,
        min_class_samples: min_samples as u64,
        // No `..default()`: every config field participates on purpose, so
        // adding a field without extending this property is a compile error.
        clustering: match cluster % 3 {
            0 => hdpm_core::ZeroClustering::Full,
            n => hdpm_core::ZeroClustering::Clustered(n as usize + 1),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline-bug property: ANY difference between two
    /// characterization configurations must separate both the in-memory
    /// key and the on-disk artifact path — and the two must always agree,
    /// because they derive from the same fingerprint.
    #[test]
    fn distinct_configs_never_share_a_key_or_path(
        a in (
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        ),
        b in (
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        ),
    ) {
        let (cfg_a, cfg_b) = (config_from(a), config_from(b));
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let engine = |config| {
            PowerEngine::new(EngineOptions {
                config,
                sharding: None,
                disk_root: None,
                capacity: 1,
            })
        };
        let (key_a, key_b) = (engine(cfg_a).key_for(spec), engine(cfg_b).key_for(spec));
        let same_config = cfg_a == cfg_b;
        prop_assert_eq!(
            config_fingerprint(&cfg_a) == config_fingerprint(&cfg_b),
            same_config,
            "fingerprint equality must track config equality"
        );
        prop_assert_eq!(
            key_a.artifact_file_name() == key_b.artifact_file_name(),
            same_config,
            "artifact paths must separate exactly when configs differ"
        );
        // The engine key is the key the disk names its artifact by.
        prop_assert_eq!(key_a, ModelKey::new(spec, &cfg_a, 0));
    }
}
