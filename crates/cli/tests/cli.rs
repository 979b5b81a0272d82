//! End-to-end tests of the `hdpm` binary: every subcommand is driven
//! through a real process, with artifacts flowing between invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

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

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdpm_cli_{}_{name}", std::process::id()))
}

#[test]
fn no_arguments_prints_usage() {
    let out = hdpm(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE:"));
}

#[test]
fn list_names_every_module_family() {
    let out = hdpm(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for module in [
        "ripple_adder",
        "cla_adder",
        "carry_select_adder",
        "carry_skip_adder",
        "absval",
        "csa_multiplier",
        "booth_wallace_mult",
        "barrel_shifter",
        "gf_multiplier",
        "mac",
        "divider",
    ] {
        assert!(text.contains(module), "missing {module} in:\n{text}");
    }
}

#[test]
fn characterize_then_estimate_round_trip() {
    let model_path = temp_path("model.json");
    let out = hdpm(&[
        "characterize",
        "--module",
        "ripple_adder",
        "--width",
        "4",
        "--patterns",
        "1500",
        "--out",
        model_path.to_str().expect("utf8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("p_i"));
    assert!(model_path.exists());

    let out = hdpm(&[
        "estimate",
        "--model",
        model_path.to_str().expect("utf8 temp path"),
        "--module",
        "ripple_adder",
        "--width",
        "4",
        "--data",
        "music",
        "--cycles",
        "500",
        "--simulate",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("analytic estimate"));
    assert!(text.contains("reference simulation"));
    let _ = std::fs::remove_file(&model_path);
}

#[test]
fn stats_reports_regions() {
    let out = hdpm(&[
        "stats", "--data", "speech", "--width", "12", "--cycles", "4000",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("BP0"));
    assert!(text.contains("n_rand"));
    assert!(text.contains("p(Hd = i)"));
}

#[test]
fn emit_writes_verilog() {
    let v_path = temp_path("adder.v");
    let out = hdpm(&[
        "emit",
        "--module",
        "cla_adder",
        "--width",
        "4",
        "--out",
        v_path.to_str().expect("utf8 temp path"),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&v_path).expect("file written");
    assert!(text.starts_with("module cla_adder_4"));
    assert!(text.ends_with("endmodule\n"));
    let _ = std::fs::remove_file(&v_path);
}

#[test]
fn report_breaks_down_power() {
    let out = hdpm(&[
        "report",
        "--module",
        "csa_multiplier",
        "--width",
        "4",
        "--data",
        "random",
        "--cycles",
        "300",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("by driver kind"));
    assert!(text.contains("top nets"));
}

#[test]
fn vcd_produces_waveforms() {
    let vcd_path = temp_path("waves.vcd");
    let out = hdpm(&[
        "vcd",
        "--module",
        "ripple_adder",
        "--width",
        "4",
        "--data",
        "counter",
        "--cycles",
        "16",
        "--out",
        vcd_path.to_str().expect("utf8 temp path"),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&vcd_path).expect("file written");
    assert!(text.contains("$enddefinitions"));
    assert!(text.contains("#160"));
    let _ = std::fs::remove_file(&vcd_path);
}

#[test]
fn characterize_is_thread_count_invariant() {
    // The serialized model artifact must be byte-identical across thread
    // counts (shard count held fixed) — the CLI face of the determinism
    // guarantee in docs/parallelism.md.
    let mut artifacts = Vec::new();
    for threads in ["1", "4"] {
        let path = temp_path(&format!("det_model_t{threads}.json"));
        let out = hdpm(&[
            "characterize",
            "--module",
            "ripple_adder",
            "--width",
            "4",
            "--patterns",
            "1200",
            "--shards",
            "4",
            "--threads",
            threads,
            "--out",
            path.to_str().expect("utf8 temp path"),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        artifacts.push(std::fs::read(&path).expect("artifact written"));
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(artifacts[0], artifacts[1]);
}

#[test]
fn characterize_shards_zero_runs_sequential_path() {
    // `--shards 0` must reach the sequential stream the golden fixture
    // pins, not a sharded run.
    let path = temp_path("sh0_model.json");
    let out = hdpm(&[
        "characterize",
        "--module",
        "ripple_adder",
        "--width",
        "8",
        "--patterns",
        "3000",
        "--shards",
        "0",
        "--out",
        path.to_str().expect("utf8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("p_i"));
    let written: hdpm_core::Characterization =
        hdpm_core::persist::load(&path).expect("artifact loads");
    let _ = std::fs::remove_file(&path);
    let golden: hdpm_core::Characterization = serde_json::from_str(include_str!(
        "../../../tests/fixtures/ripple_adder_8_seq.json"
    ))
    .expect("fixture parses as a Characterization");
    assert_eq!(written, golden);
}

#[test]
fn usage_documents_thread_default() {
    let out = hdpm(&[]);
    let text = stdout(&out);
    assert!(text.contains("--threads"), "{text}");
    assert!(text.contains("all available parallelism"), "{text}");
    assert!(text.contains("HDPM_THREADS"), "{text}");
}

#[test]
fn unknown_subcommand_fails_nonzero() {
    let out = hdpm(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand `frobnicate`"), "{err}");
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn invalid_telemetry_mode_fails_nonzero() {
    let out = hdpm(&["list", "--telemetry", "bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown telemetry mode `bogus`"), "{err}");
}

#[test]
fn telemetry_json_emits_parseable_json_lines() {
    let model_path = temp_path("telemetry_model.json");
    let out = hdpm(&[
        "characterize",
        "--module",
        "ripple_adder",
        "--width",
        "8",
        "--patterns",
        "5000",
        "--telemetry",
        "json",
        "--out",
        model_path.to_str().expect("utf8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every stdout line must be a standalone JSON object.
    let text = stdout(&out);
    let mut checkpoints = 0usize;
    let mut class_samples = 0usize;
    let mut counters = std::collections::BTreeMap::new();
    let mut saw_cycle_histogram = false;
    for line in text.lines() {
        let value: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"));
        let kind = value
            .get("type")
            .and_then(|t| t.as_str())
            .expect("type tag");
        let name = value.get("name").and_then(|n| n.as_str()).unwrap_or("");
        match kind {
            "event" if name == "characterize.checkpoint" => checkpoints += 1,
            "event" if name == "characterize.class_samples" => class_samples += 1,
            "counter" => {
                let count = value.get("value").and_then(|v| v.as_u64()).expect("count");
                counters.insert(name.to_string(), count);
            }
            // The default bit-plane backend times 64-lane blocks rather
            // than individual transitions.
            "histogram" if name == "sim.block_ns" => {
                saw_cycle_histogram = true;
                assert!(value.get("p50_ns").and_then(|v| v.as_f64()).is_some());
                assert!(value.get("p95_ns").and_then(|v| v.as_f64()).is_some());
                assert!(value.get("count").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
            }
            _ => {}
        }
    }
    assert!(checkpoints >= 2, "expected >= 2 checkpoints in:\n{text}");
    // One class_samples event per Hd class, 0..=16 for two 8-bit operands.
    assert_eq!(class_samples, 17, "in:\n{text}");
    assert!(counters["sim.gate_evals"] > 0);
    assert!(counters["sim.net_toggles"] > 0);
    assert_eq!(counters["sim.patterns"], 5000);
    assert!(
        saw_cycle_histogram,
        "missing sim.block_ns histogram in:\n{text}"
    );

    // A run manifest lands next to the --out artifact.
    let manifest_path = model_path.with_extension("json.manifest.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest: serde_json::Value = serde_json::from_str(&manifest).expect("manifest parses");
    assert_eq!(
        manifest.get("command").and_then(|c| c.as_str()),
        Some("characterize")
    );
    assert!(manifest.get("metrics").is_some());
    let _ = std::fs::remove_file(&model_path);
    let _ = std::fs::remove_file(&manifest_path);
}

#[test]
fn telemetry_human_prints_metrics_table() {
    let out = hdpm(&[
        "characterize",
        "--module",
        "ripple_adder",
        "--width",
        "4",
        "--patterns",
        "800",
        "--sim-backend",
        "event",
        "--telemetry",
        "human",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    // Human mode keeps the coefficient table and appends the metrics table.
    assert!(text.contains("p_i"), "{text}");
    assert!(text.contains("-- telemetry"), "{text}");
    assert!(text.contains("sim.patterns"), "{text}");
    assert!(text.contains("sim.cycle_ns"), "{text}");
}

#[test]
fn unknown_module_fails_with_message() {
    let out = hdpm(&["emit", "--module", "flux_capacitor", "--width", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown module kind"));
}

#[test]
fn missing_required_option_fails() {
    let out = hdpm(&["characterize", "--width", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--module"));
}
