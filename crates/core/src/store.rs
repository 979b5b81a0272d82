//! Store maintenance: per-artifact advisory locks for cross-process
//! coordination, config-fingerprint sidecars, quarantine, and the
//! `hdpm fsck` scan/repair engine.
//!
//! The on-disk layout of a library root is:
//!
//! ```text
//! <root>/
//!   <spec>_cfg<16-hex fingerprint>_sh<N>.json   # model artifacts
//!   <artifact>.lock                             # advisory write locks
//!   meta/cfg_<16-hex fingerprint>.json          # config sidecars
//!   quarantine/                                 # artifacts fsck moved aside
//! ```
//!
//! See `docs/persistence.md` for the full workflow.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hdpm_telemetry as telemetry;
use serde::de::DeserializeOwned;

use crate::cache::{config_fingerprint, ModelKey};
use crate::characterize::{Characterization, CharacterizationConfig};
use crate::error::{ArtifactFaultKind, ModelError};
use crate::library::ModelLibrary;
use crate::persist::{self, EnvelopeMeta};
use crate::shard::ShardingConfig;

/// Name of the quarantine subdirectory under a library root.
pub const QUARANTINE_DIR: &str = "quarantine";
/// Name of the sidecar subdirectory under a library root.
pub const META_DIR: &str = "meta";

// ---------------------------------------------------------------------------
// Advisory locks
// ---------------------------------------------------------------------------

/// A held per-artifact advisory lock: a `<artifact>.lock` file created
/// with `O_EXCL`, containing the holder's pid and process start time.
/// Released (deleted) on drop.
///
/// Two processes sharing a model directory use these to serialize
/// characterize-and-store of the same key; a lock whose holder is no
/// longer alive (checked via `/proc` on Linux) is treated as stale and
/// broken. Recording the start time guards against pid reuse: a live
/// process that merely recycled a dead holder's pid has a different
/// start time, so its presence does not keep the stale lock held.
#[derive(Debug)]
pub(crate) struct StoreLock {
    path: PathBuf,
}

/// The lock path guarding an artifact path.
pub(crate) fn lock_path(artifact: &Path) -> PathBuf {
    let name = artifact
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    artifact.with_file_name(format!("{name}.lock"))
}

impl StoreLock {
    /// Acquire the lock guarding `artifact`, polling up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`ModelError::StoreLock`] if a live holder keeps the lock past the
    /// timeout, [`ModelError::Io`] on unexpected filesystem failures.
    pub fn acquire(artifact: &Path, timeout: Duration) -> Result<StoreLock, ModelError> {
        let path = lock_path(artifact);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let start = Instant::now();
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    // Best-effort: the pid and start time are advisory
                    // metadata for staleness checks and diagnostics, not
                    // correctness.
                    let pid = std::process::id();
                    match proc_start_time(pid) {
                        Some(start) => {
                            let _ = write!(file, "{pid} {start}");
                        }
                        None => {
                            let _ = write!(file, "{pid}");
                        }
                    }
                    let _ = file.sync_all();
                    return Ok(StoreLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&path) {
                        // Break the dead holder's lock and race to re-create
                        // it; exactly one contender wins the `create_new`.
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if start.elapsed() >= timeout {
                        let holder = fs::read_to_string(&path).unwrap_or_default();
                        let detail = match holder.split_whitespace().next() {
                            None => "holder unknown".to_string(),
                            Some(pid) => format!("held by pid {pid}"),
                        };
                        return Err(ModelError::StoreLock {
                            path,
                            waited_ms: start.elapsed().as_millis() as u64,
                            detail,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(ModelError::Io(e)),
            }
        }
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether a lock file's recorded holder is provably dead. Conservative:
/// unreadable/unparseable holders (e.g. a lock mid-write) are *not* stale.
///
/// A lock recording `pid start_time` is also stale when the pid is alive
/// but its start time differs from the recorded one: the original holder
/// died and an unrelated process recycled its pid. Locks recording only a
/// pid (older writers) keep the conservative pid-liveness check.
fn lock_is_stale(path: &Path) -> bool {
    let Ok(content) = fs::read_to_string(path) else {
        return false;
    };
    let mut parts = content.split_whitespace();
    let Some(Ok(pid)) = parts.next().map(str::parse::<u32>) else {
        return false;
    };
    if pid_is_dead(pid) {
        return true;
    }
    if let Some(recorded) = parts.next().and_then(|t| t.parse::<u64>().ok()) {
        if let Some(live) = proc_start_time(pid) {
            // The pid is alive, but it is not the process that wrote the
            // lock — the holder died and its pid was recycled.
            return live != recorded;
        }
    }
    false
}

#[cfg(target_os = "linux")]
fn pid_is_dead(pid: u32) -> bool {
    !Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_is_dead(_pid: u32) -> bool {
    // Without a portable liveness probe, never break a lock; waiters
    // fall back to the timeout error.
    false
}

/// Kernel start time of a process (`starttime`, clock ticks since boot),
/// the field that distinguishes two incarnations of the same pid.
#[cfg(target_os = "linux")]
fn proc_start_time(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Field 2 (comm) may itself contain spaces and parentheses, so split
    // after the LAST ')': the remainder is whitespace-separated starting
    // at field 3 (state). starttime is field 22, i.e. index 19 here.
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(19)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn proc_start_time(_pid: u32) -> Option<u64> {
    None
}

// ---------------------------------------------------------------------------
// Artifact names and sidecars
// ---------------------------------------------------------------------------

/// The sidecar path recording the full configuration behind a
/// fingerprint.
pub(crate) fn sidecar_path(root: &Path, fingerprint: u64) -> PathBuf {
    root.join(META_DIR)
        .join(format!("cfg_{fingerprint:016x}.json"))
}

/// Record `config` under its `fingerprint` in `<root>/meta/` unless a
/// sidecar is there already. The sidecar is what lets `hdpm fsck
/// --repair` re-characterize a quarantined artifact whose own payload is
/// unreadable.
pub(crate) fn write_config_sidecar(
    root: &Path,
    fingerprint: u64,
    config: &CharacterizationConfig,
) -> Result<(), ModelError> {
    let path = sidecar_path(root, fingerprint);
    if path.exists() {
        return Ok(());
    }
    let meta = EnvelopeMeta {
        config_fingerprint: Some(fingerprint),
        ..EnvelopeMeta::default()
    };
    persist::save_with_meta(config, &meta, path)
}

/// The quarantine naming rule: the first free `<root>/quarantine/<name>`,
/// `<name>.1`, `<name>.2`, … path, so a capture never overwrites an
/// earlier one. Creates the quarantine directory.
///
/// # Errors
///
/// [`ModelError::Io`] if the directory cannot be created.
pub fn quarantine_path(root: &Path, name: &str) -> Result<PathBuf, ModelError> {
    let dir = root.join(QUARANTINE_DIR);
    fs::create_dir_all(&dir)?;
    let mut dest = dir.join(name);
    let mut n = 0u32;
    while dest.exists() {
        n += 1;
        dest = dir.join(format!("{name}.{n}"));
    }
    Ok(dest)
}

/// Move `path` into `<root>/quarantine/` under [`quarantine_path`].
/// Returns the destination.
pub(crate) fn quarantine_file(root: &Path, path: &Path) -> Result<PathBuf, ModelError> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let dest = quarantine_path(root, &name)?;
    fs::rename(path, &dest)?;
    telemetry::counter_add("store.artifact.quarantined", 1);
    Ok(dest)
}

// ---------------------------------------------------------------------------
// fsck
// ---------------------------------------------------------------------------

/// How one store entry classified under `hdpm fsck`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckStatus {
    /// A current-version artifact with a verified checksum and matching
    /// key.
    Valid,
    /// A typed artifact fault (a bare payload without an envelope is
    /// `stale-version`); `--repair` quarantines the file and
    /// re-characterizes it when its config sidecar survives.
    Fault(ArtifactFaultKind),
    /// A temp file left by an interrupted atomic write; `--repair`
    /// removes it.
    OrphanTemp,
    /// A lock file whose recorded holder is dead; `--repair` removes it.
    StaleLock,
    /// A lock file with a live (or unknown) holder; always left alone.
    HeldLock,
}

impl FsckStatus {
    /// Stable kebab-case name, as printed by `hdpm fsck`.
    pub fn as_str(&self) -> &'static str {
        match self {
            FsckStatus::Valid => "valid",
            FsckStatus::Fault(kind) => kind.as_str(),
            FsckStatus::OrphanTemp => "orphan-temp",
            FsckStatus::StaleLock => "stale-lock",
            FsckStatus::HeldLock => "held-lock",
        }
    }

    /// Whether this entry needs repair attention.
    pub fn is_healthy(&self) -> bool {
        matches!(self, FsckStatus::Valid | FsckStatus::HeldLock)
    }
}

/// What `--repair` did about one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAction {
    /// Nothing needed or repair not requested.
    None,
    /// Moved to `<root>/quarantine/`.
    Quarantined,
    /// Quarantined, then re-characterized from its config sidecar.
    Recharacterized,
    /// Orphan temp or stale lock deleted.
    Removed,
}

impl RepairAction {
    /// Stable kebab-case name, as printed by `hdpm fsck --repair`.
    pub fn as_str(self) -> &'static str {
        match self {
            RepairAction::None => "-",
            RepairAction::Quarantined => "quarantined",
            RepairAction::Recharacterized => "recharacterized",
            RepairAction::Removed => "removed",
        }
    }
}

/// One scanned store entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckEntry {
    /// Path relative to the scanned root, `/`-separated.
    pub name: String,
    /// Classification.
    pub status: FsckStatus,
    /// What repair did (always [`RepairAction::None`] on scan-only runs).
    pub action: RepairAction,
    /// Human-readable detail for unhealthy entries.
    pub detail: String,
}

/// Outcome of an [`fsck`] run over one library root.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Scanned entries, sorted by name.
    pub entries: Vec<FsckEntry>,
}

impl FsckReport {
    /// Whether every entry is healthy (valid artifacts, held locks).
    pub fn is_clean(&self) -> bool {
        self.entries.iter().all(|e| e.status.is_healthy())
    }

    /// Number of entries with the given status predicate.
    pub fn count(&self, f: impl Fn(&FsckStatus) -> bool) -> usize {
        self.entries.iter().filter(|e| f(&e.status)).count()
    }
}

/// Options of an [`fsck`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsckOptions {
    /// Quarantine faulty artifacts, remove orphan temps and stale locks,
    /// and re-characterize quarantined artifacts whose configuration
    /// sidecar survives.
    pub repair: bool,
}

/// Scan (and optionally repair) a model-library root.
///
/// Classifies every top-level artifact, lock and temp file plus the
/// `meta/` sidecars; the `quarantine/` directory itself is not rescanned.
/// With [`FsckOptions::repair`], unhealthy entries are repaired as
/// described on [`FsckStatus`]; re-characterization failures degrade to
/// plain quarantine (recorded in the entry detail) rather than failing
/// the run.
///
/// # Errors
///
/// [`ModelError::Io`] if the root cannot be read or a repair move fails.
pub fn fsck(root: &Path, options: &FsckOptions) -> Result<FsckReport, ModelError> {
    let _span = telemetry::span("store.fsck");
    let mut entries = Vec::new();
    scan_dir(root, root, None, options, &mut entries)?;
    let meta_dir = root.join(META_DIR);
    if meta_dir.is_dir() {
        scan_dir(root, &meta_dir, Some(META_DIR), options, &mut entries)?;
    }
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(FsckReport { entries })
}

fn scan_dir(
    root: &Path,
    dir: &Path,
    prefix: Option<&str>,
    options: &FsckOptions,
    entries: &mut Vec<FsckEntry>,
) -> Result<(), ModelError> {
    let read = match fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(ModelError::Io(e)),
    };
    for entry in read {
        let entry = entry?;
        let path = entry.path();
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            continue; // quarantine/ and meta/ are handled explicitly
        }
        let name = match prefix {
            Some(p) => format!("{p}/{file_name}"),
            None => file_name.clone(),
        };
        let (status, detail) = classify_entry(&path, &file_name, prefix.is_some());
        let action = if options.repair {
            repair_entry(root, &path, &file_name, &status, prefix.is_some())?
        } else {
            RepairAction::None
        };
        let detail = match &action {
            RepairAction::Quarantined if !detail.is_empty() => {
                format!("{detail}; quarantined without re-characterization")
            }
            _ => detail,
        };
        entries.push(FsckEntry {
            name,
            status,
            action,
            detail,
        });
    }
    Ok(())
}

fn classify_entry(path: &Path, file_name: &str, in_meta: bool) -> (FsckStatus, String) {
    if persist::is_orphan_temp(file_name) {
        return (
            FsckStatus::OrphanTemp,
            "leftover of an interrupted atomic write".to_string(),
        );
    }
    if file_name.ends_with(".lock") {
        return if lock_is_stale(path) {
            (FsckStatus::StaleLock, "holder is dead".to_string())
        } else {
            let holder = fs::read_to_string(path).unwrap_or_default();
            let pid = holder.split_whitespace().next().unwrap_or("").to_string();
            (FsckStatus::HeldLock, format!("holder pid {pid}"))
        };
    }
    if in_meta {
        return classify_sidecar(path, file_name);
    }
    let Some(key) = ModelKey::from_file_name(file_name) else {
        return foreign("file name is not a store key");
    };
    match admitted::<Characterization>(path, &EnvelopeMeta::for_key(&key)) {
        Ok(_) => (FsckStatus::Valid, String::new()),
        Err(verdict) => verdict,
    }
}

fn classify_sidecar(path: &Path, file_name: &str) -> (FsckStatus, String) {
    let fingerprint = file_name
        .strip_prefix("cfg_")
        .and_then(|rest| rest.strip_suffix(".json"))
        .filter(|hex| hex.len() == 16)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok());
    let Some(fingerprint) = fingerprint else {
        return foreign("file name is not a sidecar key");
    };
    let expected = EnvelopeMeta {
        config_fingerprint: Some(fingerprint),
        ..EnvelopeMeta::default()
    };
    match admitted::<CharacterizationConfig>(path, &expected) {
        // Deep check: the recorded configuration must actually hash to
        // the fingerprint in the file name.
        Ok(config) if config_fingerprint(&config) == fingerprint => {
            (FsckStatus::Valid, String::new())
        }
        Ok(_) => foreign("recorded configuration does not hash to the sidecar name"),
        Err(verdict) => verdict,
    }
}

/// fsck's reading of one artifact or sidecar through the store's one
/// admission routine ([`persist::load_classified`]): the decoded value,
/// or the status and detail to report. A file that vanished since the
/// directory listing, or that cannot be read, is reported truncated.
fn admitted<T: DeserializeOwned>(
    path: &Path,
    expected: &EnvelopeMeta,
) -> Result<T, (FsckStatus, String)> {
    let truncated = |detail: String| (FsckStatus::Fault(ArtifactFaultKind::Truncated), detail);
    match persist::load_classified::<T>(path, expected) {
        Ok((value, _)) => Ok(value),
        Err(ModelError::Artifact { kind, detail, .. }) => Err((FsckStatus::Fault(kind), detail)),
        Err(ModelError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(truncated("vanished during the scan".to_string()))
        }
        Err(e) => Err(truncated(e.to_string())),
    }
}

fn foreign(detail: &str) -> (FsckStatus, String) {
    (
        FsckStatus::Fault(ArtifactFaultKind::Foreign),
        detail.to_string(),
    )
}

fn repair_entry(
    root: &Path,
    path: &Path,
    file_name: &str,
    status: &FsckStatus,
    in_meta: bool,
) -> Result<RepairAction, ModelError> {
    match status {
        FsckStatus::Valid | FsckStatus::HeldLock => Ok(RepairAction::None),
        FsckStatus::OrphanTemp | FsckStatus::StaleLock => {
            fs::remove_file(path)?;
            Ok(RepairAction::Removed)
        }
        FsckStatus::Fault(_) => {
            quarantine_file(root, path)?;
            if in_meta {
                return Ok(RepairAction::Quarantined);
            }
            match recharacterize(root, file_name) {
                Ok(true) => Ok(RepairAction::Recharacterized),
                Ok(false) | Err(_) => Ok(RepairAction::Quarantined),
            }
        }
    }
}

/// Rebuild a quarantined artifact from its file name and config sidecar,
/// through the library's locked routine, and write it before reporting
/// success. Returns `Ok(false)` when the name does not parse or no
/// (valid) sidecar exists — the artifact stays quarantined and the
/// caller reports that.
fn recharacterize(root: &Path, file_name: &str) -> Result<bool, ModelError> {
    let Some(key) = ModelKey::from_file_name(file_name) else {
        return Ok(false);
    };
    let sidecar = sidecar_path(root, key.config_hash);
    let config = match persist::load::<CharacterizationConfig>(&sidecar) {
        Ok(config) if config_fingerprint(&config) == key.config_hash => config,
        _ => return Ok(false),
    };
    let sharding = ShardingConfig {
        shards: key.shards,
        threads: 0,
    };
    let library = ModelLibrary::new(root.to_path_buf(), config, sharding);
    if let (c, Some(save)) = library.load_or_characterize(&key)? {
        save.commit(&c)?;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TempDir;
    use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};

    #[test]
    fn artifact_names_round_trip_through_the_parser() {
        let configs = [
            CharacterizationConfig::default(),
            CharacterizationConfig {
                max_patterns: 1500,
                ..CharacterizationConfig::default()
            },
        ];
        let shard_counts = [0usize, 1, 8];
        let specs: Vec<ModuleSpec> = ModuleKind::ALL
            .iter()
            .flat_map(|&kind| {
                [
                    ModuleSpec::new(kind, 8usize),
                    ModuleSpec::new(kind, ModuleWidth::Rect(12, 6)),
                ]
            })
            .collect();
        let dir = TempDir::new("store_names");
        let mut stores = Vec::new();
        for config in configs {
            for &shards in &shard_counts {
                // Each store holds every spec but a different one, so a
                // listing that strays into another store's keys shows.
                let skip = stores.len();
                let mut own = Vec::new();
                for (j, &spec) in specs.iter().enumerate() {
                    let key = ModelKey::new(spec, &config, shards);
                    let name = key.artifact_file_name();
                    assert_eq!(ModelKey::from_file_name(&name), Some(key), "{name}");
                    if j != skip {
                        std::fs::write(dir.join(&name), "").unwrap();
                        own.push(spec);
                    }
                }
                own.sort_by_key(|spec| spec.to_string());
                stores.push((config_fingerprint(&config), shards, own));
            }
        }
        // The listing of the shared root, narrowed to one config and
        // shard count as the engine narrows it, is exactly that store's
        // keys, in spec-name order.
        let sharding = ShardingConfig::SEQUENTIAL;
        let library = ModelLibrary::new(dir.path().to_path_buf(), configs[0], sharding);
        let listed = library.stored_keys();
        for (config_hash, shards, own) in &stores {
            let specs: Vec<ModuleSpec> = listed
                .iter()
                .filter(|key| key.config_hash == *config_hash && key.shards == *shards)
                .map(|key| key.spec)
                .collect();
            assert_eq!(&specs, own, "cfg {config_hash:016x} sh{shards}");
        }
        for bad in [
            "ripple_adder_4.json",
            "ripple_adder_4_cfg12_sh4.json",
            "ripple_adder_4_cfg0123456789abcdef_sh4.txt",
            "notes.json",
            "x_cfg0123456789abcdef_shfour.json",
        ] {
            assert!(ModelKey::from_file_name(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn lock_is_exclusive_and_released_on_drop() {
        let dir = TempDir::new("store_lock");
        let artifact = dir.join("m.json");
        let lock = StoreLock::acquire(&artifact, Duration::from_secs(5)).unwrap();
        let contested = StoreLock::acquire(&artifact, Duration::from_millis(60));
        match contested {
            Err(ModelError::StoreLock {
                waited_ms, detail, ..
            }) => {
                assert!(waited_ms >= 60, "{waited_ms}");
                assert!(detail.contains(&std::process::id().to_string()), "{detail}");
            }
            other => panic!("expected StoreLock timeout, got {other:?}"),
        }
        drop(lock);
        assert!(!lock_path(&artifact).exists(), "drop releases the lock");
        let _relock = StoreLock::acquire(&artifact, Duration::from_millis(60)).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn stale_lock_of_a_dead_holder_is_broken() {
        let dir = TempDir::new("store_stale");
        let artifact = dir.join("m.json");
        // A pid far above any real pid_max: provably dead.
        std::fs::write(lock_path(&artifact), "999999999").unwrap();
        let _lock = StoreLock::acquire(&artifact, Duration::from_millis(200))
            .expect("stale lock is broken, not waited out");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn recycled_pid_lock_is_broken_via_start_time() {
        let dir = TempDir::new("store_recycled");
        let artifact = dir.join("m.json");
        // A live pid with a start time no real process has: models a lock
        // whose holder died and whose pid was recycled by another process.
        let pid = std::process::id();
        std::fs::write(lock_path(&artifact), format!("{pid} {}", u64::MAX)).unwrap();
        let _lock = StoreLock::acquire(&artifact, Duration::from_millis(200))
            .expect("recycled-pid lock is broken, not waited out");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_holder_with_matching_start_time_keeps_the_lock() {
        let dir = TempDir::new("store_live_holder");
        let artifact = dir.join("m.json");
        let pid = std::process::id();
        let start = proc_start_time(pid).expect("own /proc stat is readable");
        std::fs::write(lock_path(&artifact), format!("{pid} {start}")).unwrap();
        match StoreLock::acquire(&artifact, Duration::from_millis(80)) {
            Err(ModelError::StoreLock { detail, .. }) => {
                assert!(detail.contains(&pid.to_string()), "{detail}");
            }
            other => panic!("expected a held lock timeout, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_never_overwrites() {
        let dir = TempDir::new("store_quarantine");
        let a = dir.join("m.json");
        std::fs::write(&a, "one").unwrap();
        let first = quarantine_file(dir.path(), &a).unwrap();
        std::fs::write(&a, "two").unwrap();
        let second = quarantine_file(dir.path(), &a).unwrap();
        assert_ne!(first, second);
        assert_eq!(std::fs::read_to_string(&first).unwrap(), "one");
        assert_eq!(std::fs::read_to_string(&second).unwrap(), "two");
        assert!(!a.exists());
    }

    #[test]
    fn fsck_classifies_a_mixed_root() {
        let dir = TempDir::new("store_fsck");
        let config = CharacterizationConfig::default();
        write_config_sidecar(dir.path(), config_fingerprint(&config), &config).unwrap();
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
        let key = crate::cache::ModelKey::new(spec, &config, 0);
        // A truncated artifact at a well-formed key path.
        std::fs::write(dir.join(&key.artifact_file_name()), "{torn").unwrap();
        // A foreign file.
        std::fs::write(dir.join("notes.json"), "{\"hello\":1}").unwrap();
        // An orphan temp and a stale lock.
        std::fs::write(dir.join("m.json.tmp.1.2"), "x").unwrap();
        std::fs::write(dir.join("m.json.lock"), "999999999").unwrap();
        let report = fsck(dir.path(), &FsckOptions::default()).unwrap();
        assert!(!report.is_clean());
        let status_of = |name: &str| {
            report
                .entries
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("no entry {name} in {report:?}"))
                .status
                .clone()
        };
        assert_eq!(
            status_of(&key.artifact_file_name()),
            FsckStatus::Fault(ArtifactFaultKind::Truncated)
        );
        assert_eq!(
            status_of("notes.json"),
            FsckStatus::Fault(ArtifactFaultKind::Foreign)
        );
        assert_eq!(status_of("m.json.tmp.1.2"), FsckStatus::OrphanTemp);
        #[cfg(target_os = "linux")]
        assert_eq!(status_of("m.json.lock"), FsckStatus::StaleLock);
        let sidecar = format!("meta/cfg_{:016x}.json", config_fingerprint(&config));
        assert_eq!(status_of(&sidecar), FsckStatus::Valid);
        // Scan-only: nothing moved.
        assert!(dir.join("notes.json").exists());
        assert!(!dir.join(QUARANTINE_DIR).exists());
    }
}
