//! `hdpm` — command-line front end for the Hamming-distance power
//! macro-model suite.
//!
//! ```text
//! hdpm list
//! hdpm characterize --module csa_multiplier --width 8 --out model.json
//! hdpm estimate     --model model.json --module csa_multiplier --width 8 \
//!                   --data speech --simulate
//! hdpm stats        --data speech --width 16
//! hdpm emit         --module ripple_adder --width 8 --out adder.v
//! hdpm vcd          --module ripple_adder --width 4 --data counter \
//!                   --cycles 64 --out waves.vcd
//! ```

mod args;
mod fsck;
mod serve;
mod server_cmd;
mod top;

use std::process::ExitCode;

use args::ParsedArgs;
use hdpm_core::{
    characterize_with_backend, evaluate, persist, threads_from_env, CharacterizationConfig,
    HdModel, ShardingConfig, SimBackend, StimulusKind,
};
use hdpm_datamodel::{breakpoints, region_model, HdDistribution, WordModel};
use hdpm_netlist::{emit_verilog, ModuleKind, ModuleSpec, ModuleWidth, NetlistStats};
use hdpm_sim::{dump_vcd, patterns_from_words, run_words, DelayModel, PowerReport};
use hdpm_streams::{bit_stats, word_stats};
use hdpm_telemetry::{self as telemetry, RunManifest};

const USAGE: &str = "\
hdpm — Hamming-distance power macro-model suite

USAGE:
  hdpm list
  hdpm characterize --module <kind> --width <m> [--width2 <m2>]
                    [--patterns <n>] [--seed <s>] [--sweep | --stratified]
                    [--shards <S>] [--threads <t>]
                    [--sim-backend <event|bitplane>] [--out <file>]
  hdpm estimate     --model <file> --module <kind> --width <m> --data <type>
                    [--cycles <n>] [--seed <s>] [--simulate]
  hdpm stats        (--data <type> | --wav <file>) --width <m>
                    [--cycles <n>] [--seed <s>]
  hdpm emit         --module <kind> --width <m> [--width2 <m2>] [--out <file>]
  hdpm report       --module <kind> --width <m> --data <type>
                    [--cycles <n>] [--seed <s>]
  hdpm serve        [--models <dir>] [--capacity <n>] [--patterns <n>]
                    [--seed <s>] [--shards <S>] [--threads <t>]
  hdpm server       [--addr <ip:port>] [--admin-addr <ip:port>]
                    [--workers <n>] [--queue-depth <d>]
                    [--deadline-ms <ms>] [--idle-timeout-ms <ms>]
                    [--write-timeout-ms <ms>] [--max-conns <n>]
                    [--tracing <on|off>] [--slow-ms <ms>]
                    [--trace-capacity <n>] [--manifest <file>]
                    [--node-id <id> --peers <id=ip:port,...>]
                    [--replicas <r>] [--gossip-ms <ms>]
                    [--warm-timeout-ms <ms>]
                    [engine options as for serve]
  hdpm top          --addr <admin ip:port> [--interval-ms <ms>] [--once]
                    [--raw] [--get <path>]
  hdpm vcd          --module <kind> --width <m> --data <type>
                    [--cycles <n>] [--seed <s>] --out <file>
  hdpm fsck         <model-dir> [--repair]

  <kind>: ripple_adder cla_adder absval csa_multiplier booth_wallace_mult
          incrementer subtractor comparator carry_select_adder
          carry_skip_adder barrel_shifter gf_multiplier mac divider
  <type>: random music speech video counter

CHARACTERIZE OPTIONS:
  --shards <S>   deterministic pattern shards (default: 8; 0 runs the
                 sequential reference path). The shard count selects the
                 pattern streams and so is part of the result identity.
  --threads <t>  worker threads (default: all available parallelism, or
                 HDPM_THREADS when set; 0 = all cores). The thread count
                 never changes the resulting coefficient tables — results
                 are bit-identical for any <t>; see docs/parallelism.md.
  --sim-backend  reference simulator: `bitplane` (default) packs 64
                 stimulus transitions per machine word; `event` forces
                 the event-driven oracle. Both produce bit-identical
                 models (see docs/simulation.md); HDPM_SIM_BACKEND sets
                 the default when the flag is absent.

SERVE:
  a JSON-lines request/response loop on stdin/stdout over a cached
  PowerEngine; ops: estimate, characterize, stats (see docs/engine.md).
  --models <dir> adds an on-disk model tier; --capacity bounds the
  in-memory LRU (default: 64 models). stdio only — for networked
  serving use `hdpm server`.

SERVER:
  the same protocol over TCP (see docs/server.md): an accept loop feeds
  a bounded queue drained by a worker pool sharing one engine, with load
  shedding, per-request deadlines, idle reaping and graceful drain.
  --addr defaults to 127.0.0.1:0 (the resolved address is printed to
  stderr); --workers 0 uses all cores; --deadline-ms 0 disables request
  deadlines; close stdin or send a `shutdown` line to drain; --manifest
  writes the drain report as JSON. Observability: every request carries
  a trace id echoed in its reply (--tracing off restores byte-identical
  untraced replies); requests slower than --slow-ms (default 250) log a
  structured slow_request line; the last --trace-capacity traces
  (default 256) live in a flight recorder dumped on drain, on panic and
  at /tracez. --admin-addr serves /metrics /healthz /readyz /tracez
  /clusterz over HTTP for scrapers and `hdpm top`.
  Cluster mode (docs/cluster.md): start every node with its own
  --node-id, the other members under --peers and a shared --models
  store root. A rendezvous ring assigns each model an owner plus
  --replicas holders; non-owners fetch checksummed artifacts from the
  owner or forward cold characterizations to it, and warm-key gossip
  (every --gossip-ms, default 2000) pre-warms a fresh node before
  /readyz flips (or after --warm-timeout-ms, default 10000, expires).

TOP:
  live ops view over a running server's admin plane: polls
  /metrics every --interval-ms (default 2000) and renders gauges,
  counter rates and latency summaries; --once polls a single time,
  --raw prints the exposition verbatim, and --get <path> fetches any
  admin endpoint (exit non-zero unless 2xx) — the curl-free scrape
  tool CI uses.

FSCK:
  scan a --models library root for corrupt, stale-version, truncated or
  foreign artifacts (see docs/persistence.md). A scan-only run exits
  non-zero on a dirty store; --repair migrates legacy artifacts in
  place, quarantines faulty ones to <root>/quarantine/, removes orphan
  temps and stale locks, and re-characterizes quarantined artifacts
  whose configuration sidecar survives.

GLOBAL OPTIONS:
  --telemetry <human|json>  emit metrics and events (default: off);
                            `json` prints one JSON object per stdout line
                            and writes a run manifest next to --out files

ENVIRONMENT:
  HDPM_LOG=<error|warn|info|debug|trace>  event filter (default: info)
  HDPM_TELEMETRY=<off|human|json>         default telemetry mode
  HDPM_THREADS=<t>                        default --threads value
";

fn main() -> ExitCode {
    let args = match ParsedArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return report_error(None, &e),
    };

    telemetry::init_from_env();
    if let Some(raw) = args.option("telemetry") {
        match telemetry::Mode::parse(raw) {
            Some(mode) => telemetry::set_mode(mode),
            None => {
                return report_error(
                    args.command.as_deref(),
                    &format!("unknown telemetry mode `{raw}` (expected off, human or json)"),
                )
            }
        }
    }

    let result = match args.command.as_deref() {
        None => {
            print!("{USAGE}");
            Ok(())
        }
        Some("list") => cmd_list(),
        Some("characterize") => cmd_characterize(&args),
        Some("estimate") => cmd_estimate(&args),
        Some("stats") => cmd_stats(&args),
        Some("emit") => cmd_emit(&args),
        Some("report") => cmd_report(&args),
        Some("serve") => serve::cmd_serve(&args),
        Some("server") => server_cmd::cmd_server(&args),
        Some("top") => top::cmd_top(&args),
        Some("vcd") => cmd_vcd(&args),
        Some("fsck") => fsck::cmd_fsck(&args),
        Some(other) => {
            return report_error(None, &format!("unknown subcommand `{other}`"));
        }
    };
    telemetry::emit_snapshot();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => report_error(args.command.as_deref(), &e),
    }
}

/// Report a fatal error to stderr with the failing subcommand and a usage
/// hint, returning the process exit code. The single error path of the
/// CLI: every failure prints through here.
fn report_error(command: Option<&str>, error: &dyn std::fmt::Display) -> ExitCode {
    match command {
        Some(cmd) => eprintln!("hdpm {cmd}: error: {error}"),
        None => eprintln!("hdpm: error: {error}"),
    }
    eprintln!("run `hdpm` without arguments for usage");
    ExitCode::FAILURE
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

// The canonical name → kind/type parsers live in the wire codec, shared
// with both serving transports so CLI and protocol never drift.
use hdpm_server::protocol::{data_type, module_kind};

/// Reject options and flags outside a subcommand's surface with the
/// standard usage-hint error. `hint` names the sibling command that owns
/// the rejected surface (`--addr` on `serve` means the user wanted
/// `hdpm server`, not a silently ignored flag).
fn reject_unknown_options(
    args: &ParsedArgs,
    allowed: &[&str],
    also: &[&str],
    hint: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    const GLOBAL: &[&str] = &["telemetry"];
    let known =
        |name: &str| GLOBAL.contains(&name) || allowed.contains(&name) || also.contains(&name);
    for name in args.options().keys() {
        if !known(name) {
            return Err(format!("unknown option `--{name}` ({hint})").into());
        }
    }
    for name in args.flag_names() {
        if !known(name) {
            return Err(format!("unknown flag `--{name}` ({hint})").into());
        }
    }
    Ok(())
}

fn spec_from(args: &ParsedArgs) -> Result<ModuleSpec, Box<dyn std::error::Error>> {
    let kind = module_kind(args.require("module")?)?;
    let width: usize = args
        .require("width")?
        .parse()
        .map_err(|_| "width must be an integer")?;
    let width = match args.option("width2") {
        Some(w2) => ModuleWidth::Rect(width, w2.parse().map_err(|_| "width2 must be an integer")?),
        None => ModuleWidth::Uniform(width),
    };
    Ok(ModuleSpec::new(kind, width))
}

fn cmd_list() -> CliResult {
    println!(
        "{:<22} {:>8} {:>8} {:>8}  complexity features",
        "module", "g(8)", "g(12)", "g(16)"
    );
    for kind in [
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
    ] {
        let gates = |m: usize| -> String {
            kind.build(ModuleWidth::Uniform(m))
                .map(|nl| nl.gate_count().to_string())
                .unwrap_or_else(|_| "-".into())
        };
        println!(
            "{:<22} {:>8} {:>8} {:>8}  [{}]",
            kind.id(),
            gates(8),
            gates(12),
            gates(16),
            kind.feature_names().join(", ")
        );
    }
    Ok(())
}

fn cmd_characterize(args: &ParsedArgs) -> CliResult {
    let _span = telemetry::span("cli.characterize");
    let spec = spec_from(args)?;
    let config = CharacterizationConfig {
        max_patterns: args.get_or("patterns", 12_000usize)?,
        seed: args.get_or("seed", 0xC0FFEEu64)?,
        stimulus: if args.flag("sweep") {
            StimulusKind::SignalProbSweep
        } else if args.flag("stratified") {
            StimulusKind::UniformHd
        } else {
            StimulusKind::UniformRandom
        },
        ..CharacterizationConfig::default()
    };
    let shards = args.get_or("shards", 8usize)?;
    let threads = match args.option("threads") {
        Some(_) => args.get_or("threads", 0usize)?,
        None => threads_from_env(),
    };
    let backend = SimBackend::resolve(match args.option("sim-backend") {
        Some(raw) => Some(raw.parse().map_err(|_| args::ArgsError::InvalidValue {
            option: "sim-backend".to_string(),
            value: raw.to_string(),
            expected: "`event` or `bitplane`",
        })?),
        None => None,
    });
    let netlist = spec.build()?.validate()?;
    eprintln!(
        "characterizing {} ({} gates, {} input bits)...",
        spec,
        netlist.netlist().gate_count(),
        netlist.netlist().input_bit_count()
    );
    let result = characterize_with_backend(
        &netlist,
        &config,
        &ShardingConfig { shards, threads },
        backend,
    )?;
    // In JSON telemetry mode stdout is reserved for JSON-lines; the same
    // coefficient data is emitted there as `characterize.class_samples`.
    if telemetry::mode() != telemetry::Mode::Json {
        println!(
            "{:>4} {:>14} {:>8} {:>8}",
            "Hd", "p_i", "eps_i[%]", "samples"
        );
        for i in 1..=result.model.input_bits() {
            println!(
                "{i:>4} {:>14.2} {:>8.1} {:>8}",
                result.model.coefficient(i),
                100.0 * result.model.deviation(i),
                result.model.sample_counts()[i]
            );
        }
    }
    if let Some(at) = result.converged_after {
        eprintln!("converged after {at} patterns");
    }
    if let Some(path) = args.option("out") {
        persist::save(&result, path)?;
        eprintln!("model written to {path}");
        write_manifest_with(
            "characterize",
            Some(config.seed),
            args,
            path,
            &[
                ("shards_resolved", shards.to_string()),
                (
                    "threads_resolved",
                    hdpm_core::resolve_threads(threads).to_string(),
                ),
                ("sim_backend_resolved", backend.id().to_string()),
            ],
        )?;
    }
    Ok(())
}

/// Write a run manifest (config, seed, git revision, metrics snapshot)
/// next to an `--out` artifact. No-op unless telemetry is enabled.
fn write_manifest(
    command: &str,
    seed: Option<u64>,
    args: &ParsedArgs,
    artifact: &str,
) -> CliResult {
    write_manifest_with(command, seed, args, artifact, &[])
}

/// [`write_manifest`] with extra resolved parameters (values the command
/// derived from defaults or the environment rather than the raw argv).
fn write_manifest_with(
    command: &str,
    seed: Option<u64>,
    args: &ParsedArgs,
    artifact: &str,
    extra: &[(&str, String)],
) -> CliResult {
    if !telemetry::enabled() {
        return Ok(());
    }
    let mut params: std::collections::BTreeMap<String, String> = args.options().clone();
    for flag in args.flag_names() {
        params.insert(flag.clone(), "true".into());
    }
    for (key, value) in extra {
        params.insert((*key).to_string(), value.clone());
    }
    let manifest = RunManifest::capture(command, seed, params);
    let path = RunManifest::path_for(std::path::Path::new(artifact));
    std::fs::write(&path, serde_json::to_string_pretty(&manifest)?)?;
    eprintln!("manifest written to {}", path.display());
    Ok(())
}

fn cmd_estimate(args: &ParsedArgs) -> CliResult {
    let _span = telemetry::span("cli.estimate");
    let spec = spec_from(args)?;
    let dt = data_type(args.require("data")?)?;
    let cycles = args.get_or("cycles", 5000usize)?;
    let seed = args.get_or("seed", 7u64)?;
    let model_path = args.require("model")?;
    // Accept either a bare HdModel or a full Characterization artifact.
    let model: HdModel = persist::load(model_path)
        .or_else(|_| persist::load::<hdpm_core::Characterization>(model_path).map(|c| c.model))?;

    let (m1, _) = spec.width.operand_widths();
    let streams = dt.generate_operands(spec.kind.operand_count(), m1, cycles, seed);

    // Simulation-free estimate via the analytic Hd distribution.
    let dists: Vec<HdDistribution> = streams
        .iter()
        .map(|w| HdDistribution::from_regions(&region_model(&WordModel::from_words(w, m1))))
        .collect();
    let dist = HdDistribution::convolve_all(&dists);
    let json_mode = telemetry::mode() == telemetry::Mode::Json;
    if dist.width() == model.input_bits() {
        let estimate = model.estimate_distribution(&dist)?;
        let via_average = model.estimate_interpolated(dist.mean());
        if json_mode {
            telemetry::event(
                telemetry::Level::Info,
                "estimate.analytic",
                &[
                    ("charge_per_cycle", estimate.into()),
                    ("via_average", via_average.into()),
                    ("average_hd", dist.mean().into()),
                ],
            );
        } else {
            println!("analytic estimate: {estimate:.2} charge/cycle (Hd distribution, eq. 18)");
            println!(
                "average-Hd estimate: {via_average:.2} charge/cycle (interpolated at Hd = {:.2})",
                dist.mean()
            );
        }
    } else {
        eprintln!(
            "note: analytic path skipped (distribution width {} != model width {})",
            dist.width(),
            model.input_bits()
        );
    }

    if args.flag("simulate") {
        let netlist = spec.build()?.validate()?;
        let trace = run_words(&netlist, &streams, DelayModel::Unit);
        let report = evaluate(&model, &trace)?;
        if json_mode {
            telemetry::event(
                telemetry::Level::Info,
                "estimate.simulated",
                &[
                    ("charge_per_cycle", trace.average_charge().into()),
                    ("cycles", trace.samples.len().into()),
                    ("average_error_pct", report.average_error_pct.into()),
                    ("cycle_error_pct", report.cycle_error_pct.into()),
                ],
            );
        } else {
            println!(
                "reference simulation: {:.2} charge/cycle over {} cycles",
                trace.average_charge(),
                trace.samples.len()
            );
            println!(
                "trace-based model error: eps = {:+.1}%, eps_a = {:.1}%",
                report.average_error_pct, report.cycle_error_pct
            );
        }
    }
    Ok(())
}

fn cmd_stats(args: &ParsedArgs) -> CliResult {
    let _span = telemetry::span("cli.stats");
    let width = args.get_or("width", 16usize)?;
    let cycles = args.get_or("cycles", 20_000usize)?;
    let seed = args.get_or("seed", 7u64)?;
    let (words, label) = if let Some(path) = args.option("wav") {
        let file = std::fs::File::open(path)?;
        let stream = hdpm_streams::read_wav(file)?;
        let mut words = hdpm_streams::requantize(&stream.samples, width);
        words.truncate(cycles);
        (words, format!("wav file {path}"))
    } else {
        let dt = data_type(args.require("data")?)?;
        (dt.generate(width, cycles, seed), dt.to_string())
    };
    let ws = word_stats(&words);
    let model = WordModel::from_stats(&ws, width);
    let bps = breakpoints(&model);
    let regions = region_model(&model);
    println!(
        "stream {label} at {width} bits over {} samples:",
        words.len()
    );
    println!(
        "  mu = {:.2}, sigma = {:.2}, rho = {:.4}",
        ws.mean,
        ws.sigma(),
        ws.rho1
    );
    println!("  BP0 = {:.2}, BP1 = {:.2}", bps.bp0, bps.bp1);
    println!(
        "  n_rand = {}, n_sign = {}, t_sign = {:.4}, Hd_avg = {:.3}",
        regions.n_rand,
        regions.n_sign,
        regions.t_sign,
        regions.average_hd()
    );
    let bits = bit_stats(&words, width);
    println!("  per-bit transition probabilities (LSB first):");
    print!("   ");
    for t in &bits.transition_probs {
        print!(" {t:.2}");
    }
    println!();
    let dist = HdDistribution::from_regions(&regions);
    println!("  analytic p(Hd = i):");
    for (i, &p) in dist.probs().iter().enumerate() {
        if p > 0.0005 {
            println!("    Hd={i:<3} {p:.4}");
        }
    }
    Ok(())
}

fn cmd_emit(args: &ParsedArgs) -> CliResult {
    let _span = telemetry::span("cli.emit");
    let spec = spec_from(args)?;
    let netlist = spec.build()?;
    let text = emit_verilog(&netlist);
    match args.option("out") {
        Some(path) => {
            std::fs::write(path, &text)?;
            eprintln!("{}", NetlistStats::of(&netlist));
            eprintln!("written to {path}");
            write_manifest("emit", None, args, path)?;
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_report(args: &ParsedArgs) -> CliResult {
    let _span = telemetry::span("cli.report");
    let spec = spec_from(args)?;
    let dt = data_type(args.require("data")?)?;
    let cycles = args.get_or("cycles", 2000usize)?;
    let seed = args.get_or("seed", 7u64)?;
    let netlist = spec.build()?.validate()?;
    let (m1, _) = spec.width.operand_widths();
    let streams = dt.generate_operands(spec.kind.operand_count(), m1, cycles, seed);
    let patterns = patterns_from_words(netlist.netlist(), &streams);
    let report = PowerReport::from_run(&netlist, &patterns, DelayModel::Unit);
    print!("{report}");
    Ok(())
}

fn cmd_vcd(args: &ParsedArgs) -> CliResult {
    let _span = telemetry::span("cli.vcd");
    let spec = spec_from(args)?;
    let dt = data_type(args.require("data")?)?;
    let cycles = args.get_or("cycles", 256usize)?;
    let seed = args.get_or("seed", 7u64)?;
    let out = args.require("out")?;
    let netlist = spec.build()?.validate()?;
    let (m1, _) = spec.width.operand_widths();
    let streams = dt.generate_operands(spec.kind.operand_count(), m1, cycles, seed);
    let patterns = patterns_from_words(netlist.netlist(), &streams);
    let file = std::fs::File::create(out)?;
    dump_vcd(&netlist, &patterns, file)?;
    eprintln!("{cycles} cycles dumped to {out}");
    write_manifest("vcd", Some(seed), args, out)?;
    Ok(())
}
