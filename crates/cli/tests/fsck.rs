//! Golden-transcript test of `hdpm fsck`: a library root with one valid,
//! one torn, one legacy and one foreign entry plus an orphan temp and a
//! stale lock is scanned, repaired, and re-scanned through the real
//! binary, comparing full stdout at every step.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use hdpm_core::{CacheSource, CharacterizationConfig, EngineOptions, ModelKey, PowerEngine};
use hdpm_netlist::{ModuleKind, ModuleSpec};

fn hdpm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hdpm"))
        .args(args)
        // Keep the tests hermetic against the caller's telemetry settings.
        .env_remove("HDPM_TELEMETRY")
        .env_remove("HDPM_LOG")
        .output()
        .expect("binary launches")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A scratch root unique to this process and this guard (tests in one
/// binary run concurrently), removed on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new() -> TempRoot {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "hdpm_cli_fsck_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir(&path).expect("fresh scratch root");
        TempRoot(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn transcript(header_rows: &[(&str, &str, &str)], trailer: &[&str]) -> String {
    let mut text = format!("{:<20} {:<16} entry\n", "status", "action");
    for (status, action, name) in header_rows {
        text.push_str(&format!("{status:<20} {action:<16} {name}\n"));
    }
    for line in trailer {
        text.push_str(line);
        text.push('\n');
    }
    text
}

#[test]
fn fsck_scan_repair_rescan_transcript() {
    let root = TempRoot::new();
    let config = CharacterizationConfig::builder()
        .max_patterns(1500)
        .build()
        .expect("valid config");
    // A disk-backed engine on the root; dropping it makes its artifacts
    // durable.
    let engine = || {
        PowerEngine::new(EngineOptions {
            config,
            sharding: None,
            disk_root: Some(root.path().to_path_buf()),
            ..EngineOptions::default()
        })
    };
    let spec = |width: usize| ModuleSpec::new(ModuleKind::RippleAdder, width);
    let name_of = |width: usize| ModelKey::new(spec(width), &config, 0).artifact_file_name();
    let path_of = |width: usize| root.path().join(name_of(width));

    // One valid artifact (plus its config sidecar under meta/), and the
    // model of the bare-payload artifact below.
    let legacy = {
        let engine = engine();
        engine.model(spec(4)).expect("characterizes");
        engine.model(spec(5)).expect("characterizes")
    };
    let sidecar = {
        let fingerprint = hdpm_core::config_fingerprint(&config);
        format!("meta/cfg_{fingerprint:016x}.json")
    };

    // A torn artifact at a well-formed key path (same config, so the
    // surviving sidecar lets --repair re-characterize it).
    std::fs::write(path_of(3), "{torn").expect("plant torn artifact");
    // A bare-payload artifact: the model JSON without an envelope, which
    // cannot be verified against its key.
    let payload = hdpm_core::persist::to_json(&*legacy).expect("serializes");
    std::fs::write(path_of(5), payload).expect("plant legacy artifact");
    // A foreign file, an orphan temp and a stale lock.
    std::fs::write(root.path().join("notes.json"), "{\"hello\":1}").expect("plant foreign");
    std::fs::write(root.path().join("stale.json.tmp.1234.0"), "x").expect("plant temp");
    std::fs::write(root.path().join("dead.json.lock"), "999999999").expect("plant lock");

    // Only Linux can prove pid 999999999 dead; elsewhere the lock is
    // conservatively reported as held (healthy) and left alone.
    let (lock_status, lock_action) = if cfg!(target_os = "linux") {
        ("stale-lock", "removed")
    } else {
        ("held-lock", "-")
    };
    let unhealthy = if cfg!(target_os = "linux") { 5 } else { 4 };
    let scan_summary = format!("7 entries, {unhealthy} unhealthy");

    // Scan only: dirty store, non-zero exit, nothing moved.
    let out = hdpm(&["fsck", root.path().to_str().expect("utf8 root")]);
    assert!(
        !out.status.success(),
        "dirty scan must fail:\n{}",
        stderr(&out)
    );
    let expected = transcript(
        &[
            (lock_status, "-", "dead.json.lock"),
            ("valid", "-", &sidecar),
            ("foreign", "-", "notes.json"),
            ("truncated", "-", &name_of(3)),
            ("valid", "-", &name_of(4)),
            ("stale-version", "-", &name_of(5)),
            ("orphan-temp", "-", "stale.json.tmp.1234.0"),
        ],
        &[&scan_summary],
    );
    assert_eq!(stdout(&out), expected);
    assert!(stderr(&out).contains("store is dirty"));
    assert!(path_of(3).exists(), "scan-only moves nothing");

    // Repair: quarantine + re-characterize the torn and the bare
    // artifacts, quarantine the foreign file, drop temp and stale lock.
    let out = hdpm(&["fsck", root.path().to_str().expect("utf8 root"), "--repair"]);
    assert!(out.status.success(), "repair run:\n{}", stderr(&out));
    let expected = transcript(
        &[
            (lock_status, lock_action, "dead.json.lock"),
            ("valid", "-", &sidecar),
            ("foreign", "quarantined", "notes.json"),
            ("truncated", "recharacterized", &name_of(3)),
            ("valid", "-", &name_of(4)),
            ("stale-version", "recharacterized", &name_of(5)),
            ("orphan-temp", "removed", "stale.json.tmp.1234.0"),
        ],
        &[&scan_summary],
    );
    assert_eq!(stdout(&out), expected);
    let quarantine = root.path().join(hdpm_core::QUARANTINE_DIR);
    assert!(quarantine.join("notes.json").exists());
    assert!(quarantine.join(name_of(3)).exists());
    assert!(quarantine.join(name_of(5)).exists());

    // Re-scan: clean store, and the repaired artifacts load for real.
    let out = hdpm(&["fsck", root.path().to_str().expect("utf8 root")]);
    assert!(out.status.success(), "clean rescan:\n{}", stderr(&out));
    let (n3, n4, n5) = (name_of(3), name_of(4), name_of(5));
    let mut rows = vec![
        ("valid", "-", sidecar.as_str()),
        ("valid", "-", n3.as_str()),
        ("valid", "-", n4.as_str()),
        ("valid", "-", n5.as_str()),
    ];
    if !cfg!(target_os = "linux") {
        rows.insert(0, ("held-lock", "-", "dead.json.lock"));
    }
    let rescan_summary = format!("{} entries, 0 unhealthy", rows.len());
    let expected = transcript(&rows, &[&rescan_summary, "store is clean"]);
    assert_eq!(stdout(&out), expected);
    // And the repaired artifacts actually load back as models.
    let engine = engine();
    let (_, source) = engine
        .fetch(spec(3))
        .expect("re-characterized artifact loads");
    assert_eq!(source, CacheSource::Disk);
    let (rebuilt, source) = engine
        .fetch(spec(5))
        .expect("re-characterized artifact loads");
    assert_eq!(source, CacheSource::Disk);
    assert_eq!(rebuilt.model, legacy.model, "repair is bit-exact");
}

#[test]
fn fsck_rejects_missing_and_bogus_roots() {
    let out = hdpm(&["fsck"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing library root"));

    let out = hdpm(&["fsck", "/nonexistent/hdpm/root"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("is not a directory"));

    let root = TempRoot::new();
    let out = hdpm(&["fsck", root.path().to_str().expect("utf8"), "--verbose"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag `--verbose`"));
}
