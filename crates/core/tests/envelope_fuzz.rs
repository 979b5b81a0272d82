//! The persisted-envelope parsers against untrusted bytes: whatever a
//! peer sends or a disk holds, `admit_envelope_bytes` and
//! `load_classified` admit only an intact envelope for the stated key.
//! Anything else is a typed `ModelError::Artifact`, leaves nothing at the
//! destination, and never panics. Every reader of the store, `hdpm fsck`
//! included, gives a damaged artifact the same fault kind.

use std::path::Path;
use std::sync::OnceLock;

use hdpm_core::persist::{self, EnvelopeMeta, EnvelopeStatus};
use hdpm_core::test_support::{build_module, quick_config, TempDir};
use hdpm_core::{
    characterize, fsck, ArtifactFaultKind, Characterization, FsckOptions, FsckStatus, ModelError,
    ModelKey,
};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use proptest::prelude::*;
use serde::Value;

/// One characterized model, its key and its envelope bytes, built once.
struct Fixture {
    model: Characterization,
    meta: EnvelopeMeta,
    /// The artifact file name of the fixture's key.
    name: String,
    envelope: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = quick_config(600);
        let model = characterize(&build_module(ModuleKind::RippleAdder, 3), &config).unwrap();
        let key = ModelKey::new(ModuleSpec::new(ModuleKind::RippleAdder, 3), &config, 0);
        let meta = EnvelopeMeta::for_key(&key);
        let dir = TempDir::new("envelope_fuzz_fixture");
        let name = key.artifact_file_name();
        let path = dir.join(&name);
        persist::save_with_meta(&model, &meta, &path).unwrap();
        let envelope = std::fs::read(&path).unwrap();
        Fixture {
            model,
            meta,
            name,
            envelope,
        }
    })
}

/// The identity `bytes` state in their `meta` object, read directly
/// from the JSON (independently of the parser under test).
fn stated_meta(bytes: &[u8]) -> EnvelopeMeta {
    let text = std::str::from_utf8(bytes).expect("admitted bytes are UTF-8");
    let value: Value = serde_json::from_str(text).expect("admitted bytes are JSON");
    let meta = value
        .get("meta")
        .expect("an admitted envelope states `meta`");
    EnvelopeMeta {
        spec: meta.get("spec").and_then(Value::as_str).map(str::to_string),
        config_fingerprint: meta
            .get("config_fingerprint")
            .and_then(Value::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok()),
        shards: meta
            .get("shards")
            .and_then(Value::as_u64)
            .map(|s| s as usize),
    }
}

/// Feed `bytes` through both parsers. Returns whether they were
/// admitted; an admitted envelope must state exactly the fixture's key
/// and load back as the fixture's model.
fn check(bytes: &[u8], dir: &Path) -> bool {
    let f = fixture();
    let dest = dir.join("admitted.json");
    let admitted = match persist::admit_envelope_bytes::<Characterization>(bytes, &f.meta, &dest) {
        Ok(()) => {
            assert_eq!(
                stated_meta(bytes),
                f.meta,
                "admitted under another identity"
            );
            let (loaded, status) =
                persist::load_classified::<Characterization>(&dest, &f.meta).unwrap();
            assert_eq!(status, EnvelopeStatus::Current);
            assert!(loaded == f.model, "admitted a different model");
            std::fs::remove_file(&dest).unwrap();
            true
        }
        Err(ModelError::Artifact { .. }) => {
            assert!(!dest.exists(), "a refused admission wrote its destination");
            false
        }
        Err(other) => panic!("untyped error: {other}"),
    };
    let file = dir.join("on_disk.json");
    std::fs::write(&file, bytes).unwrap();
    match persist::load_classified::<Characterization>(&file, &f.meta) {
        Ok((loaded, status)) => {
            assert!(admitted, "the file loads but the same bytes were refused");
            assert_eq!(status, EnvelopeStatus::Current);
            assert!(loaded == f.model, "loaded a different model");
        }
        Err(ModelError::Artifact { .. }) => assert!(!admitted, "admitted but unloadable"),
        Err(other) => panic!("untyped error: {other}"),
    }
    admitted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes are never an envelope for the key.
    #[test]
    fn arbitrary_bytes_are_refused(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let dir = TempDir::new("envelope_fuzz_any");
        prop_assert!(!check(&bytes, dir.path()));
    }

    /// A cut-off envelope is never admitted.
    #[test]
    fn truncated_envelopes_are_refused(cut in any::<u64>()) {
        let envelope = &fixture().envelope;
        let end = (cut % envelope.len() as u64) as usize;
        let dir = TempDir::new("envelope_fuzz_cut");
        prop_assert!(!check(&envelope[..end], dir.path()));
    }

    /// A flipped byte is refused unless the damage is one the parser
    /// reads the same way (say, a hex digit changing case), in which
    /// case the admitted envelope still states the key and holds the
    /// original model. A flip inside `meta` (which the checksum does
    /// not cover) that hides a stated field is refused.
    #[test]
    fn flipped_envelopes_never_admit_a_different_model(at in any::<u64>(), mask in 1u8..=255) {
        let mut bytes = fixture().envelope.clone();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        let dir = TempDir::new("envelope_fuzz_flip");
        check(&bytes, dir.path());
    }
}

#[test]
fn the_intact_envelope_is_admitted() {
    let dir = TempDir::new("envelope_fuzz_intact");
    assert!(check(&fixture().envelope, dir.path()));
}

#[test]
fn a_stated_identity_refuses_a_bare_payload() {
    let f = fixture();
    let dir = TempDir::new("envelope_fuzz_bare");
    let bare = persist::to_json(&f.model).unwrap();
    let dest = dir.join("admitted.json");
    match persist::admit_envelope_bytes::<Characterization>(bare.as_bytes(), &f.meta, &dest) {
        Err(ModelError::Artifact { kind, .. }) => {
            assert_eq!(kind, ArtifactFaultKind::StaleVersion);
        }
        other => panic!("expected a stale-version refusal, got {other:?}"),
    }
    assert!(!dest.exists());
    let file = dir.join("bare.json");
    std::fs::write(&file, &bare).unwrap();
    match persist::load_classified::<Characterization>(&file, &f.meta) {
        Err(ModelError::Artifact { kind, .. }) => {
            assert_eq!(kind, ArtifactFaultKind::StaleVersion);
        }
        other => panic!("expected a stale-version fault, got {other:?}"),
    }
    // The anonymous load still reads user files without an envelope.
    let (loaded, status) =
        persist::load_classified::<Characterization>(&file, &EnvelopeMeta::default()).unwrap();
    assert_eq!(status, EnvelopeStatus::LegacyPayload);
    assert_eq!(loaded, f.model);
}

/// The fixture envelope with its `meta` object replaced (`None`: removed).
/// The checksum covers only the payload, so it stays valid.
fn with_meta(meta: Option<Value>) -> Vec<u8> {
    let text = std::str::from_utf8(&fixture().envelope).unwrap();
    let Value::Object(fields) = serde_json::from_str::<Value>(text).unwrap() else {
        panic!("the envelope is a JSON object");
    };
    let mut fields: Vec<(String, Value)> = fields
        .into_iter()
        .filter(|(name, _)| name != "meta")
        .collect();
    if let Some(meta) = meta {
        fields.insert(1, ("meta".to_string(), meta));
    }
    serde_json::to_string(&Value::Object(fields))
        .unwrap()
        .into_bytes()
}

#[test]
fn a_stated_identity_refuses_a_missing_or_unreadable_meta() {
    let f = fixture();
    let dir = TempDir::new("envelope_fuzz_meta");
    let field = |name: &str, value: Value| (name.to_string(), value);
    let spec = Value::Str(f.meta.spec.clone().unwrap());
    let fp = Value::Str(format!("{:016x}", f.meta.config_fingerprint.unwrap()));
    let shards = Value::UInt(f.meta.shards.unwrap() as u64);
    // Rebuilding the intact meta through the same path is admitted, so
    // the refusals below are about the meta alone.
    let intact = with_meta(Some(Value::Object(vec![
        field("spec", spec.clone()),
        field("config_fingerprint", fp.clone()),
        field("shards", shards.clone()),
    ])));
    assert!(check(&intact, dir.path()));
    let damaged = [
        ("no meta", with_meta(None)),
        ("empty meta", with_meta(Some(Value::Object(Vec::new())))),
        (
            "meta not an object",
            with_meta(Some(Value::Str("x".into()))),
        ),
        (
            "no spec",
            with_meta(Some(Value::Object(vec![
                field("config_fingerprint", fp.clone()),
                field("shards", shards.clone()),
            ]))),
        ),
        (
            "unreadable fingerprint",
            with_meta(Some(Value::Object(vec![
                field("spec", spec.clone()),
                field("config_fingerprint", Value::Str("not-hex".into())),
                field("shards", shards.clone()),
            ]))),
        ),
        (
            "shards as a string",
            with_meta(Some(Value::Object(vec![
                field("spec", spec),
                field("config_fingerprint", fp),
                field("shards", Value::Str("0".into())),
            ]))),
        ),
    ];
    for (what, bytes) in damaged {
        let dest = dir.join("admitted.json");
        match persist::admit_envelope_bytes::<Characterization>(&bytes, &f.meta, &dest) {
            Err(ModelError::Artifact { kind, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::Foreign, "{what}");
            }
            other => panic!("{what}: expected a foreign refusal, got {other:?}"),
        }
        assert!(!dest.exists(), "{what}");
        assert!(!check(&bytes, dir.path()), "{what}");
    }
}

/// Nesting past the JSON reader's limit is a typed `truncated` fault on
/// both parsers, never a stack overflow: 10,000 unclosed `[` once
/// aborted whatever thread parsed them, and a deep value hidden in an
/// otherwise plausible envelope is refused the same way.
#[test]
fn deeply_nested_bytes_are_a_typed_fault() {
    let f = fixture();
    let dir = TempDir::new("envelope_fuzz_deep");
    let deep = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    for bytes in [
        "[".repeat(10_000),
        deep(10_000),
        format!("{{\"hdpm_envelope\":{}}}", deep(200)),
    ] {
        let dest = dir.join("admitted.json");
        match persist::admit_envelope_bytes::<Characterization>(bytes.as_bytes(), &f.meta, &dest) {
            Err(ModelError::Artifact { kind, detail, .. }) => {
                assert_eq!(kind, ArtifactFaultKind::Truncated, "{detail}");
                assert!(detail.contains("recursion limit exceeded"), "{detail}");
            }
            other => panic!("expected a truncated fault, got {other:?}"),
        }
        assert!(!check(bytes.as_bytes(), dir.path()));
    }
}

/// What one reader made of some bytes: `None` when it admitted them,
/// otherwise the fault kind it reported.
fn verdict<T>(result: Result<T, ModelError>) -> Option<ArtifactFaultKind> {
    match result {
        Ok(_) => None,
        Err(ModelError::Artifact { kind, .. }) => Some(kind),
        Err(other) => panic!("untyped error: {other}"),
    }
}

/// Store `bytes` as the fixture's artifact under `root` and run every
/// reader over them: the library's load, the peer-fetch read, the peer
/// admission and fsck. All four must reach the same verdict.
fn every_reader_agrees(bytes: &[u8], root: &Path, what: &str) {
    let f = fixture();
    let file = root.join(&f.name);
    std::fs::write(&file, bytes).unwrap();
    let load = verdict(persist::load_classified::<Characterization>(&file, &f.meta));
    let read = verdict(persist::read_envelope_bytes::<Characterization>(
        &file, &f.meta,
    ));
    // fsck skips subdirectories, so the admission target stays unscanned.
    let dest = root.join("admitted").join(&f.name);
    let admit = verdict(persist::admit_envelope_bytes::<Characterization>(
        bytes, &f.meta, &dest,
    ));
    let _ = std::fs::remove_file(&dest);
    let report = fsck(root, &FsckOptions::default()).unwrap();
    let entry = report
        .entries
        .iter()
        .find(|e| e.name == f.name)
        .expect("fsck lists the artifact");
    let scanned = match entry.status {
        FsckStatus::Valid => None,
        FsckStatus::Fault(kind) => Some(kind),
        ref other => panic!("{what}: an artifact classified as {other:?}"),
    };
    assert_eq!(
        [read, admit, scanned],
        [load; 3],
        "{what}: read_envelope_bytes, admit_envelope_bytes and fsck disagree with load_classified"
    );
}

/// One loop over the fixture envelope: at every byte, a flipped bit and
/// a cut there reach every reader, which must agree on each.
#[test]
fn every_reader_classifies_damage_alike() {
    let envelope = &fixture().envelope;
    let root = TempDir::new("envelope_fuzz_readers");
    for at in 0..envelope.len() {
        let mut flipped = envelope.clone();
        flipped[at] ^= 1 << (at % 8);
        every_reader_agrees(
            &flipped,
            root.path(),
            &format!("bit {} of byte {at}", at % 8),
        );
        every_reader_agrees(&envelope[..at], root.path(), &format!("cut at {at}"));
    }
}
