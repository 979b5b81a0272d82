//! # hdpm-bench
//!
//! Shared support for the experiment-regeneration binaries (one per table
//! and figure of the paper) and the Criterion performance benches.
//!
//! Every binary prints a paper-style table to stdout and writes a
//! machine-readable JSON artifact under `target/experiments/` (override
//! with the `HDPM_EXPERIMENTS_DIR` environment variable). Characterized
//! models are cached there as well, in a model store that the binaries
//! reach through a [`PowerEngine`] ([`experiment_engine`]), so the
//! experiment suite reuses the expensive characterization runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::Arc;

use hdpm_core::{persist, Characterization, CharacterizationConfig, EngineOptions, PowerEngine};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use hdpm_sim::{run_words, DelayModel, Trace};
use hdpm_streams::DataType;
use serde::Serialize;

/// Stream length used by the evaluation experiments (the paper uses 5000
/// to 10000 patterns per set).
pub const STREAM_LEN: usize = 5000;

/// Root directory for experiment artifacts and the model cache.
pub fn experiments_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HDPM_EXPERIMENTS_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from("target/experiments")
}

/// Initialise telemetry from the environment (`HDPM_TELEMETRY`,
/// `HDPM_LOG`) for an experiment binary and return a guard that writes a
/// JSON metrics snapshot under the experiments directory when dropped.
/// A no-op scope when telemetry is off.
pub fn telemetry_scope(name: &'static str) -> TelemetryScope {
    hdpm_telemetry::init_from_env();
    TelemetryScope { name }
}

/// Drop guard returned by [`telemetry_scope`].
#[must_use = "hold the scope for the lifetime of the experiment"]
pub struct TelemetryScope {
    name: &'static str,
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        if !hdpm_telemetry::enabled() {
            return;
        }
        let path = experiments_dir().join(format!("{}.telemetry.json", self.name));
        match serde_json::to_string_pretty(&hdpm_telemetry::snapshot()) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("telemetry snapshot not written to {}: {e}", path.display());
                } else {
                    eprintln!("telemetry snapshot written to {}", path.display());
                }
            }
            Err(e) => eprintln!("telemetry snapshot serialization failed: {e}"),
        }
    }
}

/// Persist a JSON artifact under the experiments directory and report the
/// path on stdout.
///
/// # Panics
///
/// Panics if the artifact cannot be written (experiment binaries treat
/// that as fatal).
pub fn save_artifact<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    persist::save(value, &path).expect("failed to write experiment artifact");
    println!("\n[artifact] {}", path.display());
}

/// The characterization configuration shared by all experiments.
///
/// Uses the Hd-stratified stimulus so that every event class — including
/// `E_1` and `E_m`, which a uniform random stream populates with
/// probability `m/2^m` — receives `≈ max_patterns/(m+1)` samples. The
/// class-conditional transition law is identical to uniform random
/// characterization (see `StimulusKind::UniformHd`).
pub fn standard_config() -> CharacterizationConfig {
    CharacterizationConfig {
        max_patterns: 12_000,
        stimulus: hdpm_core::StimulusKind::UniformHd,
        ..CharacterizationConfig::default()
    }
}

/// The engine over the experiments' model store, `models/` under
/// [`experiments_dir`], running the sequential reference stream (`_sh0`
/// artifacts). A binary builds one and reads every model through
/// [`characterize_cached`].
pub fn experiment_engine(config: &CharacterizationConfig) -> PowerEngine {
    PowerEngine::new(EngineOptions {
        config: *config,
        sharding: None,
        disk_root: Some(experiments_dir().join("models")),
        ..EngineOptions::default()
    })
}

/// The model of a module instance from an [`experiment_engine`],
/// characterized on the first run and read back from the store after.
/// Returns once the artifact is durable in the store.
///
/// # Panics
///
/// Panics if the module cannot be built — the experiment specs are all
/// known-valid — or if its artifact was not saved, so a run that keeps
/// no model fails instead of passing.
pub fn characterize_cached(
    engine: &PowerEngine,
    kind: ModuleKind,
    width: ModuleWidth,
) -> Characterization {
    let spec = ModuleSpec::new(kind, width);
    let characterization = engine.model(spec).expect("experiment module specs build");
    engine.wait_all_saved();
    let root = engine.options().disk_root.as_ref().expect("a model store");
    let artifact = root.join(engine.key_for(spec).artifact_file_name());
    assert!(artifact.exists(), "{} was not saved", artifact.display());
    Arc::unwrap_or_clone(characterization)
}

/// Run one data-type stream through a module and return the reference
/// trace (cached per module/width/type/seed).
///
/// # Panics
///
/// Panics if the module cannot be built.
pub fn reference_trace(
    kind: ModuleKind,
    width: ModuleWidth,
    data_type: DataType,
    seed: u64,
) -> Trace {
    let spec = ModuleSpec::new(kind, width);
    let cache = experiments_dir().join(format!(
        "traces/{}_{}_{}_n{}_s{}.json",
        kind,
        width,
        data_type.name(),
        STREAM_LEN,
        seed
    ));
    if let Ok(cached) = persist::load::<Trace>(&cache) {
        return cached;
    }
    let netlist = spec
        .build()
        .expect("experiment module spec must build")
        .validate()
        .expect("generated modules are valid");
    let (m1, _m2) = width.operand_widths();
    let streams = data_type.generate_operands(kind.operand_count(), m1, STREAM_LEN, seed);
    let trace = run_words(&netlist, &streams, DelayModel::Unit);
    persist::save(&trace, &cache).expect("failed to cache trace");
    trace
}

/// Print a report header naming the paper artifact being regenerated.
pub fn header(artifact: &str, description: &str) {
    println!("================================================================");
    println!("{artifact} — {description}");
    println!("Paper: A New Parameterizable Power Macro-Model for Datapath");
    println!("       Components (Jochens, Kruse, Schmidt, Nebel — DATE 1999)");
    println!("================================================================");
}

/// Render a simple ASCII chart of a series (used for "figure" artifacts).
pub fn ascii_chart(title: &str, series: &[(String, f64)], width: usize) {
    let max = series
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::MIN_POSITIVE, f64::max);
    println!("\n{title}");
    for (label, value) in series {
        let bar = ((value / max) * width as f64).round() as usize;
        println!("  {label:>12} | {:bar$} {value:.3}", "", bar = bar);
    }
}

/// Render a labelled ASCII bar chart where each bar is `#` characters.
pub fn ascii_bars(title: &str, series: &[(String, f64)], width: usize) {
    let max = series
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::MIN_POSITIVE, f64::max);
    println!("\n{title}");
    for (label, value) in series {
        let bar = ((value / max) * width as f64).round() as usize;
        println!("  {label:>12} |{} {value:.4}", "#".repeat(bar));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_honours_env_override() {
        // Uses the ambient value if set; the default ends in
        // target/experiments.
        let dir = experiments_dir();
        assert!(!dir.as_os_str().is_empty());
    }

    #[test]
    fn standard_config_is_stable() {
        let c = standard_config();
        assert_eq!(c.max_patterns, 12_000);
        assert!(c.convergence_tol > 0.0);
    }

    #[test]
    fn ascii_charts_do_not_panic_on_edge_values() {
        ascii_chart("t", &[("a".into(), 0.0), ("b".into(), 1.0)], 20);
        ascii_bars("t", &[("x".into(), 5.0)], 10);
    }
}
