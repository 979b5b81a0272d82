//! Model libraries: persistent, load-or-characterize collections of
//! module models — the shipped form of a characterized macro-model
//! library, with parallel characterization for prototype sweeps,
//! cross-process write locking and a typed corrupt-artifact policy.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hdpm_netlist::ModuleSpec;
use hdpm_telemetry as telemetry;

use crate::cache::{config_fingerprint, ModelKey};
use crate::characterize::{characterize_sharded, Characterization, CharacterizationConfig};
use crate::error::ModelError;
use crate::persist::{self, EnvelopeMeta};
use crate::shard::{parallel_map_ordered, ShardingConfig};
use crate::store::{self, StoreLock};

/// How long a library waits on another process's artifact lock before
/// giving up with [`ModelError::StoreLock`]. Generous because the holder
/// may legitimately be running a multi-second gate-level
/// characterization.
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(120);

/// What [`ModelLibrary::get`] does when an artifact exists but fails
/// validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptArtifactPolicy {
    /// Surface the typed [`ModelError::Artifact`] and leave the file in
    /// place for inspection — a corrupt store is never silently
    /// re-characterized over. The default, and the right choice for
    /// tooling.
    #[default]
    Report,
    /// Move the corrupt file to `<root>/quarantine/` and re-characterize.
    /// The serving path ([`crate::PowerEngine`]) uses this so one flipped
    /// bit on disk cannot take a server down.
    Quarantine,
}

/// Which path of the store served a [`ModelLibrary::get_traced`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibrarySource {
    /// A verified current-version artifact was read from disk.
    DiskValid,
    /// No artifact existed; a fresh characterization was stored.
    Characterized,
    /// A corrupt artifact was quarantined and re-characterized
    /// (only under [`CorruptArtifactPolicy::Quarantine`]).
    Recovered,
}

/// A fresh characterization whose artifact is not written yet. It holds
/// the artifact's cross-process lock until [`PendingSave::commit`] has
/// written it, so no other process characterizes the key meanwhile and
/// a reader that waits on the lock finds the artifact. Dropped without a
/// commit, it releases the lock and the store stays as it was: only the
/// work is lost, as when a process dies mid-characterization.
#[derive(Debug)]
#[must_use = "the artifact is not durable until the save commits"]
pub(crate) struct PendingSave {
    path: PathBuf,
    meta: EnvelopeMeta,
    _lock: StoreLock,
}

impl PendingSave {
    /// Write `characterization` atomically to the artifact path (temp
    /// file, fsync, rename, directory fsync), then release the lock.
    pub(crate) fn commit(self, characterization: &Characterization) -> Result<(), ModelError> {
        persist::save_with_meta(characterization, &self.meta, &self.path)
    }

    /// The artifact path this save writes.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

/// A directory-backed library of characterized models.
///
/// Every [`ModuleSpec`] maps to one JSON artifact named by the same
/// [`ModelKey`] that keys [`crate::PowerEngine`]'s memory tier — module
/// spec, the full canonical [`crate::config_fingerprint`] of the
/// characterization configuration, and the shard count — so **every**
/// configuration field change addresses a different artifact, and the
/// memory and disk tiers can never disagree about a key.
/// [`ModelLibrary::get`] loads the artifact if present and characterizes
/// (then stores, atomically and under a per-artifact cross-process lock)
/// otherwise, so the expensive gate-level runs happen once per library
/// even with several processes sharing the directory.
///
/// # Examples
///
/// ```no_run
/// use hdpm_core::{CharacterizationConfig, ModelLibrary};
/// use hdpm_netlist::{ModuleKind, ModuleSpec};
///
/// # fn main() -> Result<(), hdpm_core::ModelError> {
/// let library = ModelLibrary::new("models", CharacterizationConfig::default());
/// let c = library.get(ModuleSpec::new(ModuleKind::RippleAdder, 8usize))?;
/// println!("p_4 = {}", c.model.coefficient(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelLibrary {
    root: PathBuf,
    config: CharacterizationConfig,
    /// [`crate::config_fingerprint`] of `config`, computed once: every
    /// key, artifact path and expected envelope identity carries it.
    config_hash: u64,
    sharding: ShardingConfig,
    policy: CorruptArtifactPolicy,
    lock_timeout: Duration,
}

impl ModelLibrary {
    /// Create a library rooted at `root` (created on first store) whose
    /// uncached characterizations run the sequential reference stream
    /// ([`ShardingConfig::SEQUENTIAL`], artifacts named `_sh0`).
    pub fn new(root: impl Into<PathBuf>, config: CharacterizationConfig) -> Self {
        ModelLibrary::with_sharding(root, config, ShardingConfig::SEQUENTIAL)
    }

    /// Create a library whose uncached characterizations run through
    /// [`characterize_sharded`] in the given shape. Artifacts carry an
    /// `_sh{S}` name suffix because the shard count selects the pattern
    /// streams (`_sh0` is the sequential stream); the thread count never
    /// changes a result bit and is kept out of the key.
    pub fn with_sharding(
        root: impl Into<PathBuf>,
        config: CharacterizationConfig,
        sharding: ShardingConfig,
    ) -> Self {
        ModelLibrary {
            root: root.into(),
            config_hash: config_fingerprint(&config),
            config,
            sharding,
            policy: CorruptArtifactPolicy::default(),
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
        }
    }

    /// Set what [`ModelLibrary::get`] does with corrupt artifacts.
    pub fn with_corrupt_policy(mut self, policy: CorruptArtifactPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Override the cross-process lock wait budget (default
    /// [`DEFAULT_LOCK_TIMEOUT`]).
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// The library's characterization configuration.
    pub fn config(&self) -> &CharacterizationConfig {
        &self.config
    }

    /// The cache key a spec maps to: identical to the one
    /// [`crate::PowerEngine`] computes for the same options.
    pub fn key_for(&self, spec: ModuleSpec) -> ModelKey {
        ModelKey {
            spec,
            config_hash: self.config_hash,
            shards: self.sharding.shards,
        }
    }

    /// The artifact path a spec maps to: the [`ModelKey`] file name under
    /// the library root.
    pub fn path_for(&self, spec: ModuleSpec) -> PathBuf {
        self.root.join(self.key_for(spec).artifact_file_name())
    }

    fn expected_meta(&self, spec: ModuleSpec) -> EnvelopeMeta {
        EnvelopeMeta::for_key(&self.key_for(spec))
    }

    /// Load the characterization of `spec`, characterizing and storing it
    /// if the artifact does not exist yet.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Netlist`] if the module cannot be built,
    /// [`ModelError::Artifact`] if the artifact exists but fails
    /// validation (under the default [`CorruptArtifactPolicy::Report`]; a
    /// corrupt store is reported, never silently re-characterized over),
    /// [`ModelError::StoreLock`] if another process holds the artifact's
    /// write lock past the timeout, or a persistence error if a fresh
    /// artifact cannot be written.
    pub fn get(&self, spec: ModuleSpec) -> Result<Characterization, ModelError> {
        self.get_traced(spec).map(|(c, _)| c)
    }

    /// [`ModelLibrary::get`], also reporting which store path served the
    /// request — the hook [`crate::PowerEngine`] uses to attribute disk
    /// hits vs characterizations without a time-of-check race.
    ///
    /// # Errors
    ///
    /// As for [`ModelLibrary::get`].
    pub fn get_traced(
        &self,
        spec: ModuleSpec,
    ) -> Result<(Characterization, LibrarySource), ModelError> {
        let (result, source, save) = self.get_unsaved(spec)?;
        if let Some(save) = save {
            save.commit(&result)?;
        }
        Ok((result, source))
    }

    /// [`ModelLibrary::get_traced`] up to, but not including, the save of
    /// a fresh characterization: that comes back as a [`PendingSave`],
    /// which still holds the artifact's lock, so a caller can publish the
    /// result before it pays for the write and its fsyncs.
    pub(crate) fn get_unsaved(
        &self,
        spec: ModuleSpec,
    ) -> Result<(Characterization, LibrarySource, Option<PendingSave>), ModelError> {
        let path = self.path_for(spec);
        let expected = self.expected_meta(spec);

        // Fast path: a verified current artifact needs no lock (reads
        // are safe against concurrent atomic writers by construction).
        // The stated identity means only a current envelope loads.
        match load_verified(&path, &expected) {
            Ok(Some(c)) => return Ok((c, LibrarySource::DiskValid, None)),
            Ok(None) => {}
            // Quarantined below, under the lock.
            Err(ModelError::Artifact { .. })
                if self.policy == CorruptArtifactPolicy::Quarantine => {}
            Err(e) => return Err(e),
        }

        // Slow path: anything that writes (characterize, quarantine)
        // holds the artifact's cross-process advisory lock.
        let lock = StoreLock::acquire(&path, self.lock_timeout)?;
        // Re-check under the lock: another process may have resolved the
        // miss (or replaced a corrupt file) while we waited.
        let recovered = match load_verified(&path, &expected) {
            Ok(Some(c)) => return Ok((c, LibrarySource::DiskValid, None)),
            Ok(None) => false,
            Err(ModelError::Artifact { .. })
                if self.policy == CorruptArtifactPolicy::Quarantine =>
            {
                self.quarantine(&path)?;
                true
            }
            Err(e) => return Err(e),
        };

        // The sidecar records the full configuration behind the
        // fingerprint so `hdpm fsck --repair` can rebuild this artifact.
        store::write_config_sidecar(&self.root, &self.config)?;
        let netlist = spec.build()?.validate()?;
        let result = characterize_sharded(&netlist, &self.config, &self.sharding)?;
        let source = if recovered {
            LibrarySource::Recovered
        } else {
            LibrarySource::Characterized
        };
        let save = PendingSave {
            path,
            meta: expected,
            _lock: lock,
        };
        Ok((result, source, Some(save)))
    }

    /// The verified artifact of `spec`, or `None` when the store holds
    /// no valid one: absent, or corrupt and now quarantined (under
    /// [`CorruptArtifactPolicy::Quarantine`]; the default policy reports
    /// it). Never characterizes.
    pub(crate) fn load_or_quarantine(
        &self,
        spec: ModuleSpec,
    ) -> Result<Option<Characterization>, ModelError> {
        let path = self.path_for(spec);
        let expected = self.expected_meta(spec);
        match load_verified(&path, &expected) {
            Err(ModelError::Artifact { .. })
                if self.policy == CorruptArtifactPolicy::Quarantine =>
            {
                // Re-check under the lock, as `get_unsaved` does.
                let _lock = StoreLock::acquire(&path, self.lock_timeout)?;
                match load_verified(&path, &expected) {
                    Err(ModelError::Artifact { .. }) => self.quarantine(&path).map(|()| None),
                    other => other,
                }
            }
            other => other,
        }
    }

    /// Move the corrupt artifact at `path` to `<root>/quarantine/`.
    fn quarantine(&self, path: &Path) -> Result<(), ModelError> {
        let quarantined = store::quarantine_file(&self.root, path)?;
        telemetry::event(
            telemetry::Level::Warn,
            "store.quarantine",
            &[
                ("artifact", path.display().to_string().into()),
                ("moved_to", quarantined.display().to_string().into()),
            ],
        );
        Ok(())
    }

    /// Whether the artifact for `spec` already exists on disk (in any
    /// state — see [`ModelLibrary::get`] for validation).
    pub fn contains(&self, spec: ModuleSpec) -> bool {
        self.path_for(spec).exists()
    }

    /// Characterize many specs, running uncached ones in parallel across
    /// up to `threads` worker threads (capped by the spec count). Results
    /// come back in input order.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered; remaining work is abandoned.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn get_all(
        &self,
        specs: &[ModuleSpec],
        threads: usize,
    ) -> Result<Vec<Characterization>, ModelError> {
        assert!(threads > 0, "need at least one worker thread");
        parallel_map_ordered(specs, threads, |_, spec| self.get(*spec))
            .into_iter()
            .collect()
    }

    /// Every spec with an artifact on disk under **this** library's
    /// configuration and shard count, read back from the artifact file
    /// names with [`ModelKey::from_file_name`]. Artifacts written by other
    /// configurations are skipped — their fingerprint suffix differs.
    /// Order is deterministic (sorted by spec name); a missing or
    /// unreadable root yields an empty list.
    pub fn stored_specs(&self) -> Vec<ModuleSpec> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut specs: Vec<ModuleSpec> = entries
            .flatten()
            .filter_map(|entry| ModelKey::from_file_name(entry.file_name().to_str()?))
            .filter(|key| *key == self.key_for(key.spec))
            .map(|key| key.spec)
            .collect();
        specs.sort_by_key(|spec| spec.to_string());
        specs
    }

    /// Load the artifact of `spec` if a **valid** one is already on disk;
    /// `None` otherwise. Never characterizes, never quarantines — a
    /// read-only probe for opportunistic consumers (the engine's tier-B
    /// sibling harvest) that must not pay or mutate anything on a miss.
    pub fn load_if_present(&self, spec: ModuleSpec) -> Option<Characterization> {
        load_verified(&self.path_for(spec), &self.expected_meta(spec))
            .ok()
            .flatten()
    }

    /// The library root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

/// The library's one verified read of an artifact: the characterization
/// when a current envelope for `expected` verifies, `None` when no
/// artifact exists, the typed fault otherwise.
fn load_verified(
    path: &Path,
    expected: &EnvelopeMeta,
) -> Result<Option<Characterization>, ModelError> {
    match persist::load_classified::<Characterization>(path, expected) {
        Ok((c, _)) => {
            telemetry::counter_add("store.artifact.valid", 1);
            Ok(Some(c))
        }
        Err(ModelError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ZeroClustering;
    use crate::test_support::TempDir;
    use crate::StimulusKind;
    use hdpm_netlist::ModuleKind;
    use hdpm_sim::DelayModel;

    fn quick_config() -> CharacterizationConfig {
        CharacterizationConfig {
            max_patterns: 1500,
            ..CharacterizationConfig::default()
        }
    }

    fn temp_library(dir: &TempDir) -> ModelLibrary {
        ModelLibrary::new(dir.path(), quick_config())
    }

    #[test]
    fn get_caches_on_disk() {
        let dir = TempDir::new("library");
        let lib = temp_library(&dir);
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        assert!(!lib.contains(spec));
        let (first, source) = lib.get_traced(spec).unwrap();
        assert_eq!(source, LibrarySource::Characterized);
        assert!(lib.contains(spec));
        let (second, source) = lib.get_traced(spec).unwrap();
        assert_eq!(source, LibrarySource::DiskValid);
        assert_eq!(first.model, second.model);
        assert!(
            !store::lock_path(&lib.path_for(spec)).exists(),
            "locks are released"
        );
    }

    #[test]
    fn disk_and_memory_tiers_share_one_key() {
        let dir = TempDir::new("library_key");
        let lib = temp_library(&dir);
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let key = lib.key_for(spec);
        assert_eq!(key, ModelKey::new(spec, &quick_config(), 0));
        assert_eq!(
            lib.path_for(spec),
            dir.path().join(key.artifact_file_name()),
            "the disk path is the ModelKey file name"
        );
    }

    #[test]
    fn every_config_field_changes_the_artifact_path() {
        // The headline regression: the old key dropped delay_model,
        // convergence_tol, check_interval, min_class_samples and
        // clustering, silently colliding different configurations onto
        // one artifact.
        let dir = TempDir::new("library_fields");
        let base = quick_config();
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let variants: [(&str, CharacterizationConfig); 8] = [
            (
                "max_patterns",
                CharacterizationConfig {
                    max_patterns: base.max_patterns + 1,
                    ..base
                },
            ),
            (
                "stimulus",
                CharacterizationConfig {
                    stimulus: StimulusKind::UniformHd,
                    ..base
                },
            ),
            (
                "seed",
                CharacterizationConfig {
                    seed: base.seed ^ 1,
                    ..base
                },
            ),
            (
                "delay_model",
                CharacterizationConfig {
                    delay_model: DelayModel::Zero,
                    ..base
                },
            ),
            (
                "convergence_tol",
                CharacterizationConfig {
                    convergence_tol: base.convergence_tol * 2.0,
                    ..base
                },
            ),
            (
                "check_interval",
                CharacterizationConfig {
                    check_interval: base.check_interval + 1,
                    ..base
                },
            ),
            (
                "min_class_samples",
                CharacterizationConfig {
                    min_class_samples: base.min_class_samples + 1,
                    ..base
                },
            ),
            (
                "clustering",
                CharacterizationConfig {
                    clustering: ZeroClustering::Clustered(2),
                    ..base
                },
            ),
        ];
        let base_lib = ModelLibrary::new(dir.path(), base);
        for (field, changed) in variants {
            let lib = ModelLibrary::new(dir.path(), changed);
            assert_ne!(
                base_lib.path_for(spec),
                lib.path_for(spec),
                "changing `{field}` must change the artifact path"
            );
            assert_ne!(
                base_lib.key_for(spec),
                lib.key_for(spec),
                "changing `{field}` must change the engine key"
            );
        }
    }

    #[test]
    fn get_all_preserves_order_and_matches_serial() {
        let dir = TempDir::new("library_all");
        let lib = temp_library(&dir);
        let specs: Vec<ModuleSpec> = [4usize, 5, 6, 7]
            .iter()
            .map(|&w| ModuleSpec::new(ModuleKind::RippleAdder, w))
            .collect();
        let parallel = lib.get_all(&specs, 4).unwrap();
        for (spec, c) in specs.iter().zip(&parallel) {
            let serial = lib.get(*spec).unwrap();
            assert_eq!(serial.model, c.model, "{spec}");
            assert_eq!(
                c.model.input_bits(),
                spec.kind.input_bits(spec.width),
                "order preserved"
            );
        }
    }

    #[test]
    fn sharded_library_keys_artifacts_by_shard_count() {
        let dir = TempDir::new("library_sharded");
        let lib = temp_library(&dir);
        let sharded = ModelLibrary::with_sharding(
            dir.path(),
            *lib.config(),
            crate::shard::ShardingConfig {
                shards: 4,
                threads: 2,
            },
        );
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        assert_ne!(lib.path_for(spec), sharded.path_for(spec));
        assert!(sharded
            .path_for(spec)
            .to_string_lossy()
            .contains("_sh4.json"));

        // A cached sharded artifact must round-trip exactly, and the
        // thread count must not be part of the key or the result.
        let first = sharded.get(spec).unwrap();
        let reloaded = sharded.get(spec).unwrap();
        assert_eq!(first, reloaded);
        let st_dir = TempDir::new("library_st");
        let single_threaded = ModelLibrary::with_sharding(
            st_dir.path(),
            *lib.config(),
            crate::shard::ShardingConfig {
                shards: 4,
                threads: 1,
            },
        );
        let serial = single_threaded.get(spec).unwrap();
        assert_eq!(first.model, serial.model);
    }

    #[test]
    fn zero_shards_library_is_the_sequential_library() {
        let dir = TempDir::new("library_sh0");
        let lib = temp_library(&dir);
        let zero = ModelLibrary::with_sharding(
            dir.path(),
            *lib.config(),
            crate::shard::ShardingConfig {
                shards: 0,
                threads: 2,
            },
        );
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        assert_eq!(zero.path_for(spec), lib.path_for(spec));
        assert!(zero.path_for(spec).to_string_lossy().ends_with("_sh0.json"));
        let (written, source) = zero.get_traced(spec).unwrap();
        assert_eq!(source, LibrarySource::Characterized);
        let (read, source) = lib.get_traced(spec).unwrap();
        assert_eq!(source, LibrarySource::DiskValid);
        assert_eq!(written, read);
        assert_eq!(zero.stored_specs(), vec![spec]);
    }

    #[test]
    fn corrupt_artifact_reports_path_instead_of_recharacterizing() {
        let dir = TempDir::new("library_corrupt");
        let lib = temp_library(&dir);
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        std::fs::create_dir_all(lib.root()).unwrap();
        std::fs::write(lib.path_for(spec), "{not json").unwrap();
        match lib.get(spec) {
            Err(ModelError::Artifact { path, kind, .. }) => {
                assert_eq!(path, lib.path_for(spec));
                assert_eq!(kind, crate::error::ArtifactFaultKind::Truncated);
            }
            other => panic!("expected Artifact error, got {other:?}"),
        }
        // The corrupt file must remain for inspection, not be overwritten.
        assert_eq!(
            std::fs::read_to_string(lib.path_for(spec)).unwrap(),
            "{not json"
        );
    }

    #[test]
    fn quarantine_policy_recovers_from_a_corrupt_artifact() {
        let dir = TempDir::new("library_quarantine");
        let lib = temp_library(&dir).with_corrupt_policy(CorruptArtifactPolicy::Quarantine);
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        std::fs::create_dir_all(lib.root()).unwrap();
        std::fs::write(lib.path_for(spec), "{not json").unwrap();
        let (c, source) = lib.get_traced(spec).unwrap();
        assert_eq!(source, LibrarySource::Recovered);
        assert!(c.model.input_bits() > 0);
        // The corrupt bytes survive in quarantine for the post-mortem...
        let quarantined = dir.path().join(store::QUARANTINE_DIR);
        let names: Vec<String> = std::fs::read_dir(&quarantined)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        assert_eq!(
            std::fs::read_to_string(quarantined.join(&names[0])).unwrap(),
            "{not json"
        );
        // ...and the path now holds a verified artifact.
        let (_, source) = lib.get_traced(spec).unwrap();
        assert_eq!(source, LibrarySource::DiskValid);
    }

    #[test]
    fn legacy_bare_artifact_is_stale_and_recharacterized() {
        let dir = TempDir::new("library_legacy");
        let lib = temp_library(&dir);
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let fresh = lib.get(spec).unwrap();
        // Rewrite the artifact as a bare payload without an envelope.
        std::fs::write(lib.path_for(spec), persist::to_json(&fresh).unwrap()).unwrap();
        match lib.get_traced(spec) {
            Err(ModelError::Artifact { kind, .. }) => {
                assert_eq!(kind, crate::ArtifactFaultKind::StaleVersion);
            }
            other => panic!("expected a stale-version fault, got {other:?}"),
        }
        // The serving policy quarantines it and re-characterizes the
        // same model.
        let lib = lib.with_corrupt_policy(CorruptArtifactPolicy::Quarantine);
        let (recovered, source) = lib.get_traced(spec).unwrap();
        assert_eq!(source, LibrarySource::Recovered);
        assert_eq!(recovered.model, fresh.model);
        // The file on disk is now a current envelope.
        let (_, source) = lib.get_traced(spec).unwrap();
        assert_eq!(source, LibrarySource::DiskValid);
    }

    #[test]
    fn concurrent_libraries_sharing_a_root_characterize_once() {
        let dir = TempDir::new("library_race");
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let sources: Vec<LibrarySource> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let root = dir.path().to_path_buf();
                    scope.spawn(move || {
                        let lib = ModelLibrary::new(root, quick_config());
                        lib.get_traced(spec).map(|(_, source)| source)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic").expect("no error"))
                .collect()
        });
        let characterized = sources
            .iter()
            .filter(|s| **s == LibrarySource::Characterized)
            .count();
        assert_eq!(
            characterized, 1,
            "exactly one characterization: {sources:?}"
        );
        assert!(sources.contains(&LibrarySource::DiskValid), "{sources:?}");
    }

    #[test]
    fn invalid_spec_surfaces_netlist_error() {
        let dir = TempDir::new("library_invalid");
        let lib = temp_library(&dir);
        let spec = ModuleSpec::new(ModuleKind::CsaMultiplier, 1usize);
        assert!(matches!(lib.get(spec), Err(ModelError::Netlist(_))));
    }
}
