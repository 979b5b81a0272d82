//! Crash-safe model persistence: every artifact is wrapped in a versioned,
//! checksummed envelope and written via temp-file + fsync + atomic rename,
//! so a reader either sees a complete valid artifact or none at all —
//! never a torn one.
//!
//! # Envelope format (version 1)
//!
//! ```json
//! {"hdpm_envelope":1,
//!  "meta":{"spec":"ripple_adder_4","config_fingerprint":"…16 hex…","shards":8},
//!  "checksum":"fnv1a64:…16 hex…",
//!  "payload":{…the model JSON…}}
//! ```
//!
//! * `hdpm_envelope` — format version; unknown versions are reported as
//!   [`ArtifactFaultKind::StaleVersion`], never guessed at.
//! * `meta` — the identity the artifact was written for. When a caller
//!   states the identity it expects (the [`EnvelopeMeta`] derived from a
//!   [`crate::ModelKey`]), every stated field must be present in `meta`,
//!   readable and equal; anything else is reported as
//!   [`ArtifactFaultKind::Foreign`]: a model for a different (or an
//!   unreadable) spec/configuration is *wrong*, not merely stale.
//! * `checksum` — FNV-1a over the canonical (compact) serialization of
//!   `payload`; a failed check is [`ArtifactFaultKind::ChecksumMismatch`].
//!
//! A bare payload (model JSON without an envelope) carries no checksum
//! and no identity. The anonymous [`load`] still accepts one, for user
//! files such as `hdpm estimate --model`, and reports it as
//! [`EnvelopeStatus::LegacyPayload`]; a load that states an identity
//! classifies it as [`ArtifactFaultKind::StaleVersion`], because there is
//! nothing to verify that identity against. See `docs/persistence.md`.
//!
//! # Fault injection
//!
//! The `fault` module exposes a **test-only**, thread-local hook that
//! corrupts the next atomic write on the calling thread (truncation, bit
//! flip, simulated crash, rename failure). The crash-consistency suite
//! uses it to prove the load path classifies every corruption instead of
//! returning a silently wrong model.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::de::DeserializeOwned;
use serde::{Serialize, Value};

use crate::cache::fnv1a64;
use crate::error::{ArtifactFaultKind, ModelError};

/// Current artifact envelope format version.
pub const ENVELOPE_VERSION: u64 = 1;

/// Identity stamped into (and expected from) an artifact envelope.
///
/// All fields are optional: a plain [`save`] writes an anonymous envelope,
/// and fields absent from the expected meta are never checked on load
/// (a stated one must be in the envelope). [`crate::ModelLibrary`]
/// fills every field from its [`crate::ModelKey`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvelopeMeta {
    /// The module spec the payload was characterized for (`Display` form).
    pub spec: Option<String>,
    /// [`crate::config_fingerprint`] of the characterization configuration.
    pub config_fingerprint: Option<u64>,
    /// Shard count of the characterization driver (0 = sequential).
    pub shards: Option<usize>,
}

impl EnvelopeMeta {
    /// The full identity of a [`crate::ModelKey`]: spec, configuration
    /// fingerprint and shard count, all stated. Peer-fetch admits a
    /// remote envelope only against this exact identity.
    pub fn for_key(key: &crate::cache::ModelKey) -> EnvelopeMeta {
        EnvelopeMeta {
            spec: Some(key.spec.to_string()),
            config_fingerprint: Some(key.config_hash),
            shards: Some(key.shards),
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(spec) = &self.spec {
            fields.push(("spec".to_string(), Value::Str(spec.clone())));
        }
        if let Some(fp) = self.config_fingerprint {
            fields.push((
                "config_fingerprint".to_string(),
                Value::Str(format!("{fp:016x}")),
            ));
        }
        if let Some(shards) = self.shards {
            fields.push(("shards".to_string(), Value::UInt(shards as u64)));
        }
        Value::Object(fields)
    }

    fn from_value(value: &Value) -> EnvelopeMeta {
        EnvelopeMeta {
            spec: value
                .get("spec")
                .and_then(Value::as_str)
                .map(str::to_string),
            config_fingerprint: value
                .get("config_fingerprint")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok()),
            shards: value
                .get("shards")
                .and_then(Value::as_u64)
                .map(|s| s as usize),
        }
    }

    /// The first field stated in `self` that `found` does not state
    /// identically, if any. A stated field that `found` lacks or could
    /// not parse is a mismatch; fields absent from `self` are not
    /// compared.
    fn mismatch_against(&self, found: &EnvelopeMeta) -> Option<String> {
        let hex = |fp: &u64| format!("{fp:016x}");
        differ("spec", self.spec.as_ref(), found.spec.as_ref())
            .or_else(|| {
                differ(
                    "config fingerprint",
                    self.config_fingerprint.as_ref().map(hex),
                    found.config_fingerprint.as_ref().map(hex),
                )
            })
            .or_else(|| differ("shard count", self.shards, found.shards))
    }
}

fn differ<T: PartialEq + std::fmt::Display>(
    field: &str,
    want: Option<T>,
    got: Option<T>,
) -> Option<String> {
    let want = want?;
    match got {
        Some(got) if got == want => None,
        Some(got) => Some(format!("{field} `{got}` (expected `{want}`)")),
        None => Some(format!("no readable {field} (expected `{want}`)")),
    }
}

/// How a successfully loaded artifact was stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeStatus {
    /// A current-version envelope with a verified checksum.
    Current,
    /// A bare payload without an envelope (valid, but unprotected).
    /// Only a load with an anonymous [`EnvelopeMeta`] returns it.
    LegacyPayload,
}

/// Serialize any model type of this crate to a JSON string (the bare
/// payload, without the on-disk envelope).
///
/// # Errors
///
/// Returns [`ModelError::Persist`] on serialization failure.
///
/// # Examples
///
/// ```
/// use hdpm_core::{persist, HdModel};
///
/// # fn main() -> Result<(), hdpm_core::ModelError> {
/// let model = HdModel::from_parts(
///     "demo", 2, vec![0.0, 1.0, 2.0], vec![0.0; 3], vec![0, 4, 4],
/// );
/// let json = persist::to_json(&model)?;
/// let back: HdModel = persist::from_json(&json)?;
/// assert_eq!(model, back);
/// # Ok(())
/// # }
/// ```
pub fn to_json<T: Serialize>(value: &T) -> Result<String, ModelError> {
    Ok(serde_json::to_string_pretty(value)?)
}

/// Deserialize a model from a JSON string (bare payload form).
///
/// # Errors
///
/// Returns [`ModelError::Persist`] on malformed input.
pub fn from_json<T: DeserializeOwned>(json: &str) -> Result<T, ModelError> {
    Ok(serde_json::from_str(json)?)
}

/// Write a model to disk as an anonymous version-1 envelope, atomically.
///
/// Equivalent to [`save_with_meta`] with an empty [`EnvelopeMeta`].
///
/// # Errors
///
/// Returns [`ModelError::Io`] on filesystem failure or
/// [`ModelError::Persist`] on serialization failure.
pub fn save<T: Serialize>(value: &T, path: impl AsRef<Path>) -> Result<(), ModelError> {
    save_with_meta(value, &EnvelopeMeta::default(), path)
}

/// Write a model to disk as a version-1 envelope carrying `meta`,
/// creating parent directories as needed.
///
/// The write is crash-safe: the envelope goes to a unique temp file in
/// the same directory, is flushed with `fsync`, and is renamed over the
/// final path in one atomic step (the directory itself is then synced,
/// best-effort). A crash at any point leaves either the old artifact, no
/// artifact, or the complete new artifact at the final path — never a
/// torn file.
///
/// # Errors
///
/// Returns [`ModelError::Io`] on filesystem failure or
/// [`ModelError::Persist`] on serialization failure.
pub fn save_with_meta<T: Serialize>(
    value: &T,
    meta: &EnvelopeMeta,
    path: impl AsRef<Path>,
) -> Result<(), ModelError> {
    let payload = serde_json::to_string(value)?;
    let checksum = fnv1a64(payload.as_bytes());
    let meta_json = serde_json::to_string(&meta.to_value())?;
    let text = format!(
        "{{\"hdpm_envelope\":{ENVELOPE_VERSION},\"meta\":{meta_json},\
         \"checksum\":\"fnv1a64:{checksum:016x}\",\"payload\":{payload}}}"
    );
    write_atomic(path.as_ref(), text.as_bytes())
}

/// Load a model from a JSON artifact, accepting both the version-1
/// envelope (verified) and pre-envelope bare payloads.
///
/// # Errors
///
/// Returns [`ModelError::Io`] if the file cannot be read and
/// [`ModelError::Artifact`] (with a typed [`ArtifactFaultKind`]) if it is
/// truncated, corrupt, foreign or of an unsupported version.
pub fn load<T: DeserializeOwned>(path: impl AsRef<Path>) -> Result<T, ModelError> {
    load_classified(path, &EnvelopeMeta::default()).map(|(value, _)| value)
}

/// Load a model and report how it was stored, verifying the envelope
/// against the identity the caller `expected`.
///
/// # Errors
///
/// As for [`load`]; additionally, an envelope whose `meta` contradicts a
/// field stated in `expected` is an [`ArtifactFaultKind::Foreign`] fault
/// — an artifact for a different key must never be served from this path.
pub fn load_classified<T: DeserializeOwned>(
    path: impl AsRef<Path>,
    expected: &EnvelopeMeta,
) -> Result<(T, EnvelopeStatus), ModelError> {
    let path = path.as_ref();
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        // Corruption can destroy UTF-8 validity; that is an artifact
        // fault, not an environment error like a missing file.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            return Err(ModelError::Artifact {
                path: path.to_path_buf(),
                kind: ArtifactFaultKind::Truncated,
                detail: format!("not readable as UTF-8 text: {e}"),
            })
        }
        Err(e) => return Err(ModelError::Io(e)),
    };
    match classify_text::<T>(&text, expected) {
        Classified::Valid { value, status } => Ok((value, status)),
        Classified::Fault { kind, detail } => Err(ModelError::Artifact {
            path: path.to_path_buf(),
            kind,
            detail,
        }),
    }
}

/// Read an artifact's raw envelope bytes for verbatim wire transfer,
/// verifying them first exactly as [`load_classified`] would.
///
/// Only a current-version envelope with a verified checksum and an
/// identity matching `expected` is returned; a legacy bare payload is
/// refused (it carries no checksum to re-verify on the receiving side),
/// so the bytes handed out here are always independently checkable by
/// the peer that admits them.
///
/// # Errors
///
/// [`ModelError::Io`] if the file cannot be read, [`ModelError::Artifact`]
/// if it does not verify as a current envelope for `expected`.
pub fn read_envelope_bytes<T: DeserializeOwned>(
    path: impl AsRef<Path>,
    expected: &EnvelopeMeta,
) -> Result<Vec<u8>, ModelError> {
    let path = path.as_ref();
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            return Err(ModelError::Artifact {
                path: path.to_path_buf(),
                kind: ArtifactFaultKind::Truncated,
                detail: format!("not readable as UTF-8 text: {e}"),
            })
        }
        Err(e) => return Err(ModelError::Io(e)),
    };
    match classify_text::<T>(&text, expected) {
        Classified::Valid {
            status: EnvelopeStatus::Current,
            ..
        } => Ok(text.into_bytes()),
        Classified::Valid {
            status: EnvelopeStatus::LegacyPayload,
            ..
        } => Err(ModelError::Artifact {
            path: path.to_path_buf(),
            kind: ArtifactFaultKind::StaleVersion,
            detail: "bare payload without an envelope cannot be shipped verbatim (no checksum)"
                .to_string(),
        }),
        Classified::Fault { kind, detail } => Err(ModelError::Artifact {
            path: path.to_path_buf(),
            kind,
            detail,
        }),
    }
}

/// Admit envelope bytes received from a peer into the local store at
/// `path`, verifying them first.
///
/// The bytes must parse as a current-version envelope whose checksum
/// verifies and whose identity matches `expected`; legacy bare payloads
/// are refused over the wire. On success the bytes are written verbatim
/// via the same crash-safe atomic path as [`save_with_meta`], so the
/// admitted artifact is byte-identical to the sender's. Nothing is
/// written on any verification failure.
///
/// # Errors
///
/// [`ModelError::Artifact`] (typed, with `path` as the intended
/// destination) when verification fails; [`ModelError::Io`] when the
/// atomic write fails.
pub fn admit_envelope_bytes<T: DeserializeOwned>(
    bytes: &[u8],
    expected: &EnvelopeMeta,
    path: impl AsRef<Path>,
) -> Result<(), ModelError> {
    let path = path.as_ref();
    let artifact_fault = |kind, detail: String| ModelError::Artifact {
        path: path.to_path_buf(),
        kind,
        detail,
    };
    let text = std::str::from_utf8(bytes).map_err(|e| {
        artifact_fault(
            ArtifactFaultKind::Truncated,
            format!("received bytes are not UTF-8 text: {e}"),
        )
    })?;
    match classify_text::<T>(text, expected) {
        Classified::Valid {
            status: EnvelopeStatus::Current,
            ..
        } => write_atomic(path, bytes),
        Classified::Valid {
            status: EnvelopeStatus::LegacyPayload,
            ..
        } => Err(artifact_fault(
            ArtifactFaultKind::StaleVersion,
            "bare pre-envelope payload is not admissible over the wire (no checksum)".to_string(),
        )),
        Classified::Fault { kind, detail } => Err(artifact_fault(kind, detail)),
    }
}

/// How a present artifact file classified: its [`EnvelopeStatus`] when it
/// loads, or the typed fault (kind plus detail) when it does not.
pub(crate) type FileClass = Result<EnvelopeStatus, (ArtifactFaultKind, String)>;

/// Classify an artifact file without keeping the payload: `Ok(None)` when
/// the file does not exist, otherwise its [`FileClass`]. Only unexpected
/// I/O failures error.
pub(crate) fn classify_file<T: DeserializeOwned>(
    path: &Path,
    expected: &EnvelopeMeta,
) -> Result<Option<FileClass>, ModelError> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            return Ok(Some(Err((
                ArtifactFaultKind::Truncated,
                format!("not readable as UTF-8 text: {e}"),
            ))))
        }
        Err(e) => return Err(ModelError::Io(e)),
    };
    Ok(Some(match classify_text::<T>(&text, expected) {
        Classified::Valid { status, .. } => Ok(status),
        Classified::Fault { kind, detail } => Err((kind, detail)),
    }))
}

enum Classified<T> {
    Valid {
        value: T,
        status: EnvelopeStatus,
    },
    Fault {
        kind: ArtifactFaultKind,
        detail: String,
    },
}

fn fault<T>(kind: ArtifactFaultKind, detail: impl Into<String>) -> Classified<T> {
    Classified::Fault {
        kind,
        detail: detail.into(),
    }
}

/// The single classification routine behind [`load_classified`] and
/// `hdpm fsck`: map artifact text to a value or a typed fault.
fn classify_text<T: DeserializeOwned>(text: &str, expected: &EnvelopeMeta) -> Classified<T> {
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            return fault(
                ArtifactFaultKind::Truncated,
                format!("not parseable as JSON (torn or truncated write?): {e}"),
            )
        }
    };
    if value.as_object().is_none() {
        return fault(ArtifactFaultKind::Foreign, "not a JSON object");
    }
    let Some(version_field) = value.get("hdpm_envelope") else {
        // A bare payload: acceptable to an anonymous load, but a stated
        // identity has no envelope to be checked against.
        return match T::from_value(&value) {
            Ok(_) if *expected != EnvelopeMeta::default() => fault(
                ArtifactFaultKind::StaleVersion,
                "bare payload without an envelope: no checksum or identity to verify",
            ),
            Ok(payload) => Classified::Valid {
                value: payload,
                status: EnvelopeStatus::LegacyPayload,
            },
            Err(e) => fault(
                ArtifactFaultKind::Foreign,
                format!("neither an hdpm envelope nor a bare model payload: {e}"),
            ),
        };
    };
    let Some(version) = version_field.as_u64() else {
        return fault(
            ArtifactFaultKind::Foreign,
            "envelope version is not an integer",
        );
    };
    if version != ENVELOPE_VERSION {
        return fault(
            ArtifactFaultKind::StaleVersion,
            format!("envelope version {version}, this build reads version {ENVELOPE_VERSION}"),
        );
    }
    let Some(declared) = value
        .get("checksum")
        .and_then(Value::as_str)
        .and_then(|s| s.strip_prefix("fnv1a64:"))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
    else {
        return fault(
            ArtifactFaultKind::Truncated,
            "envelope is missing a well-formed `checksum` field",
        );
    };
    let Some(payload) = value.get("payload") else {
        return fault(
            ArtifactFaultKind::Truncated,
            "envelope is missing its `payload` field",
        );
    };
    let canonical = match serde_json::to_string(payload) {
        Ok(text) => text,
        Err(e) => return fault(ArtifactFaultKind::Foreign, e.to_string()),
    };
    let actual = fnv1a64(canonical.as_bytes());
    if actual != declared {
        return fault(
            ArtifactFaultKind::ChecksumMismatch,
            format!("payload checksum {actual:016x} does not match recorded {declared:016x}"),
        );
    }
    let found = value
        .get("meta")
        .map(EnvelopeMeta::from_value)
        .unwrap_or_default();
    if let Some(mismatch) = expected.mismatch_against(&found) {
        return fault(
            ArtifactFaultKind::Foreign,
            format!("artifact belongs to a different key: {mismatch}"),
        );
    }
    match T::from_value(payload) {
        Ok(payload) => Classified::Valid {
            value: payload,
            status: EnvelopeStatus::Current,
        },
        Err(e) => fault(
            ArtifactFaultKind::Foreign,
            format!("payload has the wrong shape for the requested model type: {e}"),
        ),
    }
}

/// Whether a directory entry name is a temp file left behind by an
/// interrupted [`save_with_meta`] (crash between write and rename).
pub(crate) fn is_orphan_temp(name: &str) -> bool {
    name.contains(".json.tmp.")
}

/// Write `bytes` to `path` atomically: unique temp file in the same
/// directory, `write` + `fsync`, atomic rename, best-effort directory
/// sync. Honours one armed [`fault`] on the calling thread.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ModelError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let temp = path.with_file_name(format!(
        "{file_name}.tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));

    let injected = fault::take();
    let mut written: Vec<u8>;
    let mut to_write: &[u8] = bytes;
    match injected {
        Some(fault::Fault::TruncateWrite(keep)) => {
            to_write = &bytes[..keep.min(bytes.len())];
        }
        Some(fault::Fault::FlipBit(bit)) => {
            written = bytes.to_vec();
            let at = (bit / 8) % written.len().max(1);
            written[at] ^= 1 << (bit % 8);
            to_write = &written;
        }
        _ => {}
    }

    let mut file = File::create(&temp)?;
    if let Some(fault::Fault::CrashMidWrite(n)) = injected {
        // Simulate a kill mid-write: a torn, unsynced temp file and no
        // rename. The final path must remain untouched.
        file.write_all(&to_write[..n.min(to_write.len())])?;
        drop(file);
        return Err(injected_crash("mid-write"));
    }
    file.write_all(to_write)?;
    file.sync_all()?;
    drop(file);

    match injected {
        Some(fault::Fault::CrashBeforeRename) => {
            // Fully written and synced temp file, killed before rename.
            return Err(injected_crash("before rename"));
        }
        Some(fault::Fault::FailRename) => {
            let _ = fs::remove_file(&temp);
            return Err(ModelError::Io(std::io::Error::other(
                "injected rename failure",
            )));
        }
        _ => {}
    }

    if let Err(e) = fs::rename(&temp, path) {
        let _ = fs::remove_file(&temp);
        return Err(ModelError::Io(e));
    }
    // Make the rename durable. Failure to sync the directory is not
    // fatal for correctness (the rename is still atomic), so best-effort.
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

fn injected_crash(stage: &str) -> ModelError {
    ModelError::Io(std::io::Error::other(format!(
        "injected crash {stage} (fault injection)"
    )))
}

#[doc(hidden)]
pub mod fault {
    //! Test-only fault injection for the atomic write path.
    //!
    //! [`arm`] installs a one-shot fault on the **calling thread**; the
    //! next `persist` write on that thread consumes it. Faults are
    //! thread-local so concurrent tests cannot corrupt each other. Not
    //! part of the public API contract — for the crash-consistency suite
    //! and `store-fault` CI job only.

    use std::cell::Cell;

    /// One injected fault, consumed by the next atomic write.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fault {
        /// Keep only the first `n` bytes of the envelope, but complete the
        /// rename: models a torn write reaching the final path.
        TruncateWrite(usize),
        /// Flip one bit of the envelope (index wraps), completing the
        /// rename: models silent bit rot.
        FlipBit(usize),
        /// Write `n` bytes to the temp file, then fail as a killed
        /// process would: torn temp file, no rename, final path untouched.
        CrashMidWrite(usize),
        /// Write and sync the temp file fully, then fail before the
        /// rename: complete temp file, final path untouched.
        CrashBeforeRename,
        /// Fail the rename itself with an I/O error (temp cleaned up).
        FailRename,
    }

    thread_local! {
        static ARMED: Cell<Option<Fault>> = const { Cell::new(None) };
    }

    /// Arm a one-shot fault for the next write on this thread.
    pub fn arm(fault: Fault) {
        ARMED.with(|cell| cell.set(Some(fault)));
    }

    /// Clear any armed fault on this thread.
    pub fn disarm() {
        ARMED.with(|cell| cell.set(None));
    }

    /// Consume the armed fault, if any.
    pub(crate) fn take() -> Option<Fault> {
        ARMED.with(Cell::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HdModel, ZeroClustering};
    use crate::test_support::TempDir;

    fn model() -> HdModel {
        HdModel::from_parts(
            "persist_test",
            3,
            vec![0.0, 1.5, 3.0, 4.5],
            vec![0.0, 0.1, 0.1, 0.1],
            vec![0, 10, 10, 10],
        )
    }

    #[test]
    fn json_round_trip() {
        let m = model();
        let json = to_json(&m).unwrap();
        let back: HdModel = from_json(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn file_round_trip_is_enveloped() {
        let dir = TempDir::new("persist");
        let path = dir.path().join("nested/model.json");
        let m = model();
        save(&m, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"hdpm_envelope\":1,"), "{text}");
        assert!(text.contains("\"checksum\":\"fnv1a64:"));
        let (back, status) = load_classified::<HdModel>(&path, &EnvelopeMeta::default()).unwrap();
        assert_eq!(m, back);
        assert_eq!(status, EnvelopeStatus::Current);
    }

    #[test]
    fn legacy_bare_payload_still_loads() {
        let dir = TempDir::new("persist_legacy");
        let path = dir.path().join("legacy.json");
        let m = model();
        std::fs::write(&path, to_json(&m).unwrap()).unwrap();
        let (back, status) = load_classified::<HdModel>(&path, &EnvelopeMeta::default()).unwrap();
        assert_eq!(m, back);
        assert_eq!(status, EnvelopeStatus::LegacyPayload);
    }

    #[test]
    fn malformed_json_is_a_persist_error() {
        let err = from_json::<HdModel>("{not json").unwrap_err();
        assert!(matches!(err, ModelError::Persist(_)));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load::<HdModel>("/nonexistent/hdpm/model.json").unwrap_err();
        assert!(matches!(err, ModelError::Io(_)));
    }

    #[test]
    fn corrupt_file_is_a_typed_artifact_error() {
        let dir = TempDir::new("persist_corrupt");
        let path = dir.path().join("model.json");
        std::fs::write(&path, "{\"hdpm_envelope\":1, torn").unwrap();
        match load::<HdModel>(&path) {
            Err(ModelError::Artifact { kind, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::Truncated);
            }
            other => panic!("expected typed Artifact error, got {other:?}"),
        }
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let dir = TempDir::new("persist_checksum");
        let path = dir.path().join("model.json");
        save(&model(), &path).unwrap();
        // Corrupt one digit inside the payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("1.5", "1.6", 1);
        assert_ne!(text, corrupted, "fixture contains the digit to corrupt");
        std::fs::write(&path, corrupted).unwrap();
        match load::<HdModel>(&path) {
            Err(ModelError::Artifact { kind, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::ChecksumMismatch);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_stale() {
        let dir = TempDir::new("persist_version");
        let path = dir.path().join("model.json");
        std::fs::write(
            &path,
            "{\"hdpm_envelope\":99,\"checksum\":\"fnv1a64:0000000000000000\",\"payload\":{}}",
        )
        .unwrap();
        match load::<HdModel>(&path) {
            Err(ModelError::Artifact { kind, detail, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::StaleVersion);
                assert!(detail.contains("99"), "{detail}");
            }
            other => panic!("expected stale version, got {other:?}"),
        }
    }

    #[test]
    fn meta_mismatch_is_foreign() {
        let dir = TempDir::new("persist_meta");
        let path = dir.path().join("model.json");
        let written = EnvelopeMeta {
            spec: Some("ripple_adder_4".into()),
            config_fingerprint: Some(0xAB),
            shards: Some(8),
        };
        save_with_meta(&model(), &written, &path).unwrap();
        // Same spec, different fingerprint: the artifact is for another
        // configuration and must not be served.
        let expected = EnvelopeMeta {
            config_fingerprint: Some(0xCD),
            ..written.clone()
        };
        match load_classified::<HdModel>(&path, &expected) {
            Err(ModelError::Artifact { kind, detail, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::Foreign);
                assert!(detail.contains("fingerprint"), "{detail}");
            }
            other => panic!("expected foreign fault, got {other:?}"),
        }
        // The exact expected identity verifies.
        let (_, status) = load_classified::<HdModel>(&path, &written).unwrap();
        assert_eq!(status, EnvelopeStatus::Current);
    }

    #[test]
    fn atomic_write_leaves_no_temp_droppings() {
        let dir = TempDir::new("persist_atomic");
        let path = dir.path().join("model.json");
        save(&model(), &path).unwrap();
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["model.json".to_string()], "{names:?}");
    }

    #[test]
    fn injected_crash_before_rename_leaves_final_path_absent() {
        let dir = TempDir::new("persist_crash");
        let path = dir.path().join("model.json");
        fault::arm(fault::Fault::CrashBeforeRename);
        let err = save(&model(), &path).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(!path.exists(), "no artifact visible at the final path");
        let droppings: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            droppings.iter().any(|n| is_orphan_temp(n)),
            "crash leaves a recognizable temp file: {droppings:?}"
        );
        // The store recovers: the next save simply succeeds.
        save(&model(), &path).unwrap();
        let back: HdModel = load(&path).unwrap();
        assert_eq!(back, model());
    }

    #[test]
    fn envelope_bytes_round_trip_verbatim_between_stores() {
        let dir = TempDir::new("persist_wire");
        let src = dir.path().join("src/model.json");
        let dst = dir.path().join("dst/model.json");
        let meta = EnvelopeMeta {
            spec: Some("persist_test_3".into()),
            config_fingerprint: Some(0xAB),
            shards: Some(4),
        };
        save_with_meta(&model(), &meta, &src).unwrap();
        let bytes = read_envelope_bytes::<HdModel>(&src, &meta).unwrap();
        admit_envelope_bytes::<HdModel>(&bytes, &meta, &dst).unwrap();
        assert_eq!(
            std::fs::read(&src).unwrap(),
            std::fs::read(&dst).unwrap(),
            "admitted artifact is byte-identical to the source"
        );
        let (back, status) = load_classified::<HdModel>(&dst, &meta).unwrap();
        assert_eq!(back, model());
        assert_eq!(status, EnvelopeStatus::Current);
    }

    #[test]
    fn corrupt_or_foreign_bytes_are_never_admitted() {
        let dir = TempDir::new("persist_admit");
        let src = dir.path().join("model.json");
        let dst = dir.path().join("admitted.json");
        let meta = EnvelopeMeta {
            spec: Some("persist_test_3".into()),
            config_fingerprint: Some(0xAB),
            shards: Some(4),
        };
        save_with_meta(&model(), &meta, &src).unwrap();
        let good = std::fs::read(&src).unwrap();
        // Flipped payload byte: checksum mismatch.
        let corrupt = String::from_utf8(good.clone())
            .unwrap()
            .replacen("1.5", "1.6", 1)
            .into_bytes();
        assert_ne!(good, corrupt);
        match admit_envelope_bytes::<HdModel>(&corrupt, &meta, &dst) {
            Err(ModelError::Artifact { kind, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::ChecksumMismatch);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        assert!(!dst.exists(), "nothing written on verification failure");
        // Envelope for a different key: foreign.
        let foreign = EnvelopeMeta {
            config_fingerprint: Some(0xCD),
            ..meta.clone()
        };
        match admit_envelope_bytes::<HdModel>(&good, &foreign, &dst) {
            Err(ModelError::Artifact { kind, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::Foreign);
            }
            other => panic!("expected foreign fault, got {other:?}"),
        }
        assert!(!dst.exists());
        // Legacy bare payload: refused over the wire.
        let legacy = to_json(&model()).unwrap().into_bytes();
        match admit_envelope_bytes::<HdModel>(&legacy, &EnvelopeMeta::default(), &dst) {
            Err(ModelError::Artifact { kind, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::StaleVersion);
            }
            other => panic!("expected stale-version refusal, got {other:?}"),
        }
        assert!(!dst.exists());
    }

    #[test]
    fn legacy_artifacts_are_not_readable_as_wire_bytes() {
        let dir = TempDir::new("persist_wire_legacy");
        let path = dir.path().join("legacy.json");
        std::fs::write(&path, to_json(&model()).unwrap()).unwrap();
        match read_envelope_bytes::<HdModel>(&path, &EnvelopeMeta::default()) {
            Err(ModelError::Artifact { kind, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::StaleVersion);
            }
            other => panic!("expected stale-version refusal, got {other:?}"),
        }
    }

    #[test]
    fn meta_for_key_states_the_full_identity() {
        let config = crate::CharacterizationConfig::default();
        let spec = hdpm_netlist::ModuleSpec::new(hdpm_netlist::ModuleKind::RippleAdder, 8usize);
        let key = crate::cache::ModelKey::new(spec, &config, 4);
        let meta = EnvelopeMeta::for_key(&key);
        assert_eq!(meta.spec.as_deref(), Some("ripple_adder_8"));
        assert_eq!(meta.config_fingerprint, Some(key.config_hash));
        assert_eq!(meta.shards, Some(4));
    }

    #[test]
    fn clustering_enum_round_trips() {
        let json = to_json(&ZeroClustering::Clustered(4)).unwrap();
        let back: ZeroClustering = from_json(&json).unwrap();
        assert_eq!(back, ZeroClustering::Clustered(4));
    }
}
