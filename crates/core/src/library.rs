//! The disk tier of [`crate::PowerEngine`]: a directory of model
//! artifacts, one per [`ModelKey`], each written atomically under its own
//! cross-process lock so several processes sharing the directory
//! characterize a key once. Crate-private: the engine is the one way into
//! a model store, and `hdpm fsck --repair` rebuilds an artifact through
//! the same locked routine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hdpm_telemetry as telemetry;

use crate::cache::{config_fingerprint, ModelKey};
use crate::characterize::{characterize_sharded, Characterization, CharacterizationConfig};
use crate::error::ModelError;
use crate::persist::{self, EnvelopeMeta};
use crate::shard::ShardingConfig;
use crate::store::{self, StoreLock};

/// How long a writer waits on another process's artifact lock before
/// giving up with [`ModelError::StoreLock`]. Generous because the holder
/// may legitimately be running a multi-second gate-level
/// characterization.
const LOCK_TIMEOUT: Duration = Duration::from_secs(120);

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

/// One store root under one characterization configuration and run
/// shape. The caller brings the [`ModelKey`]s, so the configuration
/// fingerprint is taken once, by the engine; the artifact of a key is
/// its [`ModelKey::artifact_file_name`] under the root.
///
/// A miss takes two steps, with the remote tier between them:
/// [`ModelLibrary::load_or_quarantine`] reads the artifact once and moves
/// a corrupt one aside, and [`ModelLibrary::load_or_characterize`]
/// re-checks under the lock and characterizes.
#[derive(Debug)]
pub(crate) struct ModelLibrary {
    root: PathBuf,
    config: CharacterizationConfig,
    sharding: ShardingConfig,
    /// Whether the probe has written (or tried to write) the
    /// configuration sidecar: it does so on its first call only.
    sidecar_probed: AtomicBool,
}

impl ModelLibrary {
    /// A library over `root` (created on first store) whose
    /// characterizations run `config` in the `sharding` shape.
    pub(crate) fn new(
        root: PathBuf,
        config: CharacterizationConfig,
        sharding: ShardingConfig,
    ) -> Self {
        ModelLibrary {
            root,
            config,
            sharding,
            sidecar_probed: AtomicBool::new(false),
        }
    }

    fn path(&self, key: &ModelKey) -> PathBuf {
        self.root.join(key.artifact_file_name())
    }

    /// Record the configuration behind `key`'s fingerprint in
    /// `<root>/meta/` unless it is there: the sidecar is what lets `hdpm
    /// fsck --repair` rebuild any artifact this library serves, whether
    /// it characterized it or found it stored by a peer.
    fn write_sidecar(&self, key: &ModelKey) -> Result<(), ModelError> {
        store::write_config_sidecar(&self.root, key.config_hash, &self.config)
    }

    /// The first step of a miss: the verified artifact of `key`, read
    /// once, or `None` when the store holds no valid one — absent, or
    /// corrupt and now moved to `<root>/quarantine/` (under the lock, and
    /// only if it is still corrupt there). Never characterizes. Writes the
    /// sidecar on the first call only, so a disk hit costs at most one
    /// stat per library; a failure there is left to
    /// [`ModelLibrary::load_or_characterize`], so it never fails a disk
    /// hit.
    pub(crate) fn load_or_quarantine(
        &self,
        key: &ModelKey,
    ) -> Result<Option<Characterization>, ModelError> {
        if !self.sidecar_probed.swap(true, Ordering::Relaxed) {
            let _ = self.write_sidecar(key);
        }
        let path = self.path(key);
        let expected = EnvelopeMeta::for_key(key);
        match load_verified(&path, &expected) {
            Err(ModelError::Artifact { .. }) => {}
            other => return other,
        }
        let _lock = StoreLock::acquire(&path, LOCK_TIMEOUT)?;
        match load_verified(&path, &expected) {
            Err(ModelError::Artifact { .. }) => {
                let moved_to = store::quarantine_file(&self.root, &path)?;
                telemetry::event(
                    telemetry::Level::Warn,
                    "store.quarantine",
                    &[
                        ("artifact", path.display().to_string().into()),
                        ("moved_to", moved_to.display().to_string().into()),
                    ],
                );
                Ok(None)
            }
            other => other,
        }
    }

    /// The second step of a miss, after the remote tier: under `key`'s
    /// lock, the artifact that a concurrent writer or the remote tier
    /// stored meanwhile (and no save), or else a fresh characterization
    /// and the [`PendingSave`] that stores it, still holding the lock.
    ///
    /// # Errors
    ///
    /// [`ModelError::StoreLock`] if another process holds the lock past
    /// [`LOCK_TIMEOUT`], [`ModelError::Artifact`] if the artifact found
    /// under the lock fails validation, [`ModelError::Netlist`] if the
    /// module cannot be built, or the I/O error of the sidecar write.
    pub(crate) fn load_or_characterize(
        &self,
        key: &ModelKey,
    ) -> Result<(Characterization, Option<PendingSave>), ModelError> {
        debug_assert_eq!(
            (key.config_hash, key.shards),
            (config_fingerprint(&self.config), self.sharding.shards),
            "a key of another configuration or run shape"
        );
        let path = self.path(key);
        let expected = EnvelopeMeta::for_key(key);
        let lock = StoreLock::acquire(&path, LOCK_TIMEOUT)?;
        if let Some(c) = load_verified(&path, &expected)? {
            return Ok((c, None));
        }
        self.write_sidecar(key)?;
        let netlist = key.spec.build()?.validate()?;
        let result = characterize_sharded(&netlist, &self.config, &self.sharding)?;
        let save = PendingSave {
            path,
            meta: expected,
            _lock: lock,
        };
        Ok((result, Some(save)))
    }

    /// Whether an artifact for `key` exists on disk, valid or not.
    pub(crate) fn contains(&self, key: &ModelKey) -> bool {
        self.path(key).exists()
    }

    /// Every key with an artifact under the root, of any configuration
    /// or shard count, read back from the file names with
    /// [`ModelKey::from_file_name`] and sorted by spec name. A missing or
    /// unreadable root yields none.
    pub(crate) fn stored_keys(&self) -> Vec<ModelKey> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut keys: Vec<ModelKey> = entries
            .flatten()
            .filter_map(|entry| ModelKey::from_file_name(entry.file_name().to_str()?))
            .collect();
        keys.sort_by_key(|key| key.spec.to_string());
        keys
    }

    /// The artifact of `key` if a **valid** one is on disk; `None`
    /// otherwise. Never characterizes, never quarantines — a read-only
    /// probe for the engine's tier-B sibling harvest, which must not pay
    /// or mutate anything on a miss.
    pub(crate) fn load_if_present(&self, key: &ModelKey) -> Option<Characterization> {
        load_verified(&self.path(key), &EnvelopeMeta::for_key(key))
            .ok()
            .flatten()
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
    use crate::test_support::TempDir;
    use hdpm_netlist::{ModuleKind, ModuleSpec};

    fn quick_config() -> CharacterizationConfig {
        CharacterizationConfig {
            max_patterns: 1500,
            ..CharacterizationConfig::default()
        }
    }

    fn temp_library(dir: &TempDir) -> ModelLibrary {
        let sharding = ShardingConfig::SEQUENTIAL;
        ModelLibrary::new(dir.path().to_path_buf(), quick_config(), sharding)
    }

    fn key(width: usize) -> ModelKey {
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, width);
        ModelKey::new(spec, &quick_config(), 0)
    }

    /// The locked step characterizes and holds the lock until the save
    /// commits; afterwards both steps read the artifact.
    #[test]
    fn a_miss_characterizes_under_the_lock_and_commits_to_a_disk_hit() {
        let dir = TempDir::new("library");
        let lib = temp_library(&dir);
        let key = key(4);
        assert!(lib.load_or_quarantine(&key).unwrap().is_none());
        assert!(!lib.contains(&key));
        let (fresh, save) = lib.load_or_characterize(&key).unwrap();
        let save = save.expect("a miss characterizes");
        assert!(store::lock_path(save.path()).exists(), "held until commit");
        save.commit(&fresh).unwrap();
        assert!(!store::lock_path(&lib.path(&key)).exists(), "released");
        assert_eq!(lib.load_or_quarantine(&key).unwrap(), Some(fresh.clone()));
        let (stored, save) = lib.load_or_characterize(&key).unwrap();
        assert!(save.is_none(), "the re-check under the lock finds it");
        assert_eq!(stored, fresh);
        assert_eq!(lib.stored_keys(), vec![key]);
    }

    /// A bare payload without an envelope is corrupt: the probe moves its
    /// bytes to quarantine, and the rebuilt artifact is the same model.
    #[test]
    fn a_corrupt_artifact_is_quarantined_then_recharacterized() {
        let dir = TempDir::new("library_quarantine");
        let lib = temp_library(&dir);
        let key = key(4);
        let (fresh, save) = lib.load_or_characterize(&key).unwrap();
        save.unwrap().commit(&fresh).unwrap();
        let bare = persist::to_json(&fresh).unwrap();
        std::fs::write(lib.path(&key), &bare).unwrap();
        assert!(lib.load_or_quarantine(&key).unwrap().is_none());
        let quarantined: Vec<PathBuf> = std::fs::read_dir(dir.join(store::QUARANTINE_DIR))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(quarantined.len(), 1, "{quarantined:?}");
        assert_eq!(std::fs::read_to_string(&quarantined[0]).unwrap(), bare);
        let (rebuilt, save) = lib.load_or_characterize(&key).unwrap();
        save.expect("characterized again").commit(&rebuilt).unwrap();
        assert_eq!(rebuilt.model, fresh.model);
        assert!(lib.load_or_quarantine(&key).unwrap().is_some());
    }

    /// The sidecar cannot be written here (`meta` is a file): a disk hit
    /// is still served, and only a characterization fails on it.
    #[test]
    fn a_sidecar_write_failure_fails_characterizations_not_disk_hits() {
        let origin = TempDir::new("library_sidecar_origin");
        let stored = key(4);
        let origin_lib = temp_library(&origin);
        let (c, save) = origin_lib.load_or_characterize(&stored).unwrap();
        save.unwrap().commit(&c).unwrap();
        let dir = TempDir::new("library_sidecar");
        std::fs::write(dir.join(store::META_DIR), "not a directory").unwrap();
        let name = stored.artifact_file_name();
        std::fs::copy(origin.join(&name), dir.join(&name)).unwrap();
        let lib = temp_library(&dir);
        assert_eq!(lib.load_or_quarantine(&stored).unwrap(), Some(c));
        assert!(matches!(
            lib.load_or_characterize(&key(5)),
            Err(ModelError::Io(_))
        ));
    }

    #[test]
    fn invalid_spec_surfaces_netlist_error() {
        let dir = TempDir::new("library_invalid");
        let lib = temp_library(&dir);
        let spec = ModuleSpec::new(ModuleKind::CsaMultiplier, 1usize);
        let key = ModelKey::new(spec, &quick_config(), 0);
        assert!(matches!(
            lib.load_or_characterize(&key),
            Err(ModelError::Netlist(_))
        ));
    }
}
