//! The metric catalogue in docs/telemetry.md against the code: every
//! metric name the workspace records as a string literal is documented,
//! and every name the catalogue tables list is still recorded somewhere.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The recording entry points whose first argument is a metric name.
const RECORDERS: [&str; 4] = [
    "counter_add",
    "gauge_set",
    "gauge_add",
    "record_duration_ns",
];

/// Families whose names are built at run time, so no literal names them:
/// per-shard gauges (`format!`), span histograms (`span.<name>`) and the
/// per-stage histograms flushed through pre-rendered keys.
const DYNAMIC_FAMILIES: [&str; 3] = ["characterize.shard.", "span.", "server.stage_ns"];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// String-literal names passed to a recorder anywhere in `text`,
/// including calls whose argument sits on the next line.
fn recorded_names(text: &str, out: &mut BTreeSet<String>) {
    for recorder in RECORDERS {
        let call = format!("{recorder}(");
        for (at, _) in text.match_indices(&call) {
            let before = text[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let Some(rest) = text[at + call.len()..].trim_start().strip_prefix('"') else {
                continue;
            };
            let name = &rest[..rest.find('"').expect("closed literal")];
            if !name.starts_with("test.") {
                out.insert(name.to_string());
            }
        }
    }
}

fn source_names() -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(workspace_root().join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut names = BTreeSet::new();
    for file in files {
        recorded_names(
            &std::fs::read_to_string(&file).expect("utf8 source"),
            &mut names,
        );
    }
    names
}

/// The names in the first column of the catalogue's tables, with the
/// `` `a.b` / `.c` `` shorthand expanded to `a.b` and `a.c`.
fn documented_names() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(workspace_root().join("docs/telemetry.md"))
        .expect("docs/telemetry.md");
    let start = doc.find("## Metric catalogue").expect("catalogue section");
    let end = start
        + doc[start..]
            .find("\n## ")
            .expect("section after the catalogue");
    let mut names = BTreeSet::new();
    for row in doc[start..end].lines().filter(|l| l.starts_with("| `")) {
        let cell = row.split('|').nth(1).expect("first cell");
        let mut first: Option<&str> = None;
        for name in cell.split('`').skip(1).step_by(2) {
            match (first, name.strip_prefix('.')) {
                (Some(base), Some(suffix)) => {
                    let stem = &base[..base.rfind('.').expect("dotted name")];
                    names.insert(format!("{stem}.{suffix}"));
                }
                _ => {
                    first = Some(name);
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

fn dynamic(name: &str) -> bool {
    DYNAMIC_FAMILIES
        .iter()
        .any(|family| name.starts_with(family))
}

#[test]
fn every_recorded_metric_is_in_the_catalogue() {
    let documented = documented_names();
    let missing: Vec<String> = source_names()
        .into_iter()
        .filter(|name| !documented.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "recorded but not in docs/telemetry.md: {missing:?}"
    );
}

#[test]
fn every_catalogued_metric_is_still_recorded() {
    let recorded = source_names();
    let stale: Vec<String> = documented_names()
        .into_iter()
        .filter(|name| !recorded.contains(name) && !dynamic(name))
        .collect();
    assert!(
        stale.is_empty(),
        "in docs/telemetry.md but recorded nowhere: {stale:?}"
    );
}

#[test]
fn the_scanner_reads_split_calls_and_skips_definitions() {
    let mut names = BTreeSet::new();
    recorded_names(
        "pub fn counter_add(name: &str) {}\n\
         telemetry::counter_add(\n    \"a.b\",\n    1,\n);\n\
         record_duration_ns(\"c.d\", 1);\n\
         counter_add(\"test.skipped\", 1);\n\
         my_counter_add(\"not.a.recorder\", 1);\n\
         gauge_set(&format!(\"dyn.{i}\"), 1.0);",
        &mut names,
    );
    assert_eq!(names, BTreeSet::from(["a.b".into(), "c.d".into()]));
}
