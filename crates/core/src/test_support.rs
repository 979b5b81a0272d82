//! Shared test scaffolding. `#[doc(hidden)]` — exported so integration
//! tests and downstream crates' test suites can use the same collision-free
//! temp-directory guard, but not part of the public API contract.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth, ValidatedNetlist};

use crate::{CharacterizationConfig, ModelKey};

/// Every module family in the generator catalog, in catalog order — the
/// full matrix the conformance suites sweep.
pub const ALL_FAMILIES: [ModuleKind; 14] = [
    ModuleKind::RippleAdder,
    ModuleKind::ClaAdder,
    ModuleKind::CarrySelectAdder,
    ModuleKind::CarrySkipAdder,
    ModuleKind::AbsVal,
    ModuleKind::CsaMultiplier,
    ModuleKind::BoothWallaceMultiplier,
    ModuleKind::Incrementer,
    ModuleKind::Subtractor,
    ModuleKind::Comparator,
    ModuleKind::BarrelShifter,
    ModuleKind::GfMultiplier,
    ModuleKind::Mac,
    ModuleKind::Divider,
];

/// The subset of families cheap enough for wide property-test sweeps
/// (small gate counts at widths 2..=6, no degenerate classes). Index into
/// this from a proptest strategy via
/// `(0..PROPERTY_FAMILIES.len()).prop_map(|i| PROPERTY_FAMILIES[i])`.
pub const PROPERTY_FAMILIES: [ModuleKind; 8] = [
    ModuleKind::RippleAdder,
    ModuleKind::ClaAdder,
    ModuleKind::AbsVal,
    ModuleKind::CsaMultiplier,
    ModuleKind::BoothWallaceMultiplier,
    ModuleKind::Incrementer,
    ModuleKind::Subtractor,
    ModuleKind::Comparator,
];

/// Build and validate a uniform-width module prototype, panicking with
/// the family and width on any failure — the standard test-fixture
/// constructor.
///
/// # Panics
///
/// Panics when the spec cannot be built or validated.
pub fn build_module(kind: ModuleKind, width: usize) -> ValidatedNetlist {
    ModuleSpec::new(kind, ModuleWidth::Uniform(width))
        .build()
        .unwrap_or_else(|e| panic!("{kind} width {width}: {e}"))
        .validate()
        .unwrap_or_else(|e| panic!("{kind} width {width}: {e}"))
}

/// A short characterization config for differential tests: a small
/// pattern budget with checkpoints every 200 patterns, defaults
/// otherwise.
pub fn quick_config(max_patterns: usize) -> CharacterizationConfig {
    CharacterizationConfig {
        max_patterns,
        check_interval: 200,
        ..CharacterizationConfig::default()
    }
}

/// A uniquely named temporary directory that is removed on drop.
///
/// Unlike the older pid+thread-id naming convention, creation *claims* the
/// directory with `create_dir` and retries on collision, so re-runs after
/// a panicking test (which leaves droppings but also a dead guard) and
/// concurrent test binaries can never share or trip over a path.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory under the system temp root, its name
    /// prefixed with `label` for debuggability.
    ///
    /// # Panics
    ///
    /// Panics if the temp root is not writable.
    pub fn new(label: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let pid = std::process::id();
        loop {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("hdpm_{label}_{pid}_{seq}"));
            match std::fs::create_dir(&path) {
                Ok(()) => return TempDir { path },
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("cannot create temp dir {}: {e}", path.display()),
            }
        }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Convenience: a child path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A store's artifact lock held by this (live) process, as another
/// writer would hold it: characterizing the key under that store root
/// blocks in the lock wait until the guard is released or dropped. A test
/// that needs a worker busy keeps it busy for exactly as long as it
/// needs, however fast characterization gets.
#[derive(Debug)]
pub struct HeldStoreLock {
    path: PathBuf,
}

impl HeldStoreLock {
    /// Take `key`'s artifact lock under `root`.
    ///
    /// # Panics
    ///
    /// Panics if the lock is already held or cannot be written.
    pub fn hold(root: &Path, key: &ModelKey) -> Self {
        let path = crate::store::lock_path(&root.join(key.artifact_file_name()));
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .and_then(|mut file| {
                std::io::Write::write_all(&mut file, std::process::id().to_string().as_bytes())
            })
            .unwrap_or_else(|e| panic!("cannot hold {}: {e}", path.display()));
        HeldStoreLock { path }
    }

    /// Let the blocked writer proceed.
    pub fn release(self) {}
}

impl Drop for HeldStoreLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdirs_are_unique_and_cleaned_up() {
        let a = TempDir::new("guard");
        let b = TempDir::new("guard");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        let kept = a.path().to_path_buf();
        std::fs::write(a.join("file.txt"), "x").unwrap();
        drop(a);
        assert!(!kept.exists(), "dropping the guard removes the tree");
        assert!(b.path().is_dir(), "sibling guard unaffected");
    }

    #[test]
    fn a_held_store_lock_blocks_writers_until_released() {
        let dir = TempDir::new("held_lock");
        let key = ModelKey::new(
            ModuleSpec::new(ModuleKind::RippleAdder, 4usize),
            &quick_config(200),
            0,
        );
        let artifact = dir.join(&key.artifact_file_name());
        let held = HeldStoreLock::hold(dir.path(), &key);
        let timeout = std::time::Duration::from_millis(30);
        assert!(matches!(
            crate::store::StoreLock::acquire(&artifact, timeout),
            Err(crate::ModelError::StoreLock { .. })
        ));
        held.release();
        assert!(crate::store::StoreLock::acquire(&artifact, timeout).is_ok());
    }
}
