//! `hdpm-perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_closed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run starts in-process servers on fresh model stores under
//! `perfbench/out/`, drives them through the public client on two
//! connections, checks every answer against an in-process reference
//! engine, and prints one JSON result line. `--trace 1` adds a pass that
//! times each layer's public functions on the same inputs and writes the
//! per-workload budget and spans next to the run facts. See
//! `perfbench/README.md` for the workloads and metrics.

mod cold;
mod harness;
mod inputs;
mod json;
mod layers;
mod reference;
mod stats;
mod warm;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hdpm_server::client::Proto;
use hdpm_server::Server;

use crate::harness::{connect, start_server, Ledger};
use crate::inputs::Plan;
use crate::json::Json;
use crate::layers::{Layers, Spans};
use crate::reference::Reference;
use crate::stats::{median, percentile_sorted, relative_spread};
use crate::warm::Phase;

const USAGE: &str = "usage: hdpm-perfbench --workload warm_closed|warm_bulk|cold_ladder \
                     --seed <n> --seconds <n> --trace 0|1";

/// Cold-ladder passes in set-up; `setup_s` is their median. The first
/// also warms the process, so the cold latencies skip it.
const SETUP_PASSES: usize = 5;
/// Length of each v1 and each v2 block of a warm round. Each latency
/// percentile is the median of its per-block values, and blocks are
/// short so that many server restarts, each with its own thread
/// placement, go into that median.
const WARM_BLOCK: Duration = Duration::from_millis(200);
/// Warm rounds per cold pass in the warm workloads.
const WARM_ROUNDS_PER_PASS: usize = 3;
/// cold_ladder runs one short warm round per cold pass, so most of its
/// window goes to cold passes.
const PROBE_BLOCK: Duration = Duration::from_millis(100);
/// Untimed lead-in of every warm block, so the per-worker memos fill.
const LEAD: Duration = Duration::from_millis(30);

/// End-to-end metrics, in `BENCHMARK.json` order, with their units.
const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("v1_p50_us", "us"),
    ("v1_p90_us", "us"),
    ("v2_p50_us", "us"),
    ("v2_p90_us", "us"),
    ("v1_rps", "1/s"),
    ("v2_rps", "1/s"),
    ("first_answer_p50_us", "us"),
    ("full_answer_p50_ms", "ms"),
    ("restart_answer_p50_us", "us"),
    ("tier_a_err_pct", "%"),
    ("tier_b_err_pct", "%"),
    ("est_err_pct", "%"),
];

/// Per-layer metrics, in `BENCHMARK.json` order, with their units.
const PER_LAYER: [(&str, &str); 31] = [
    ("server.protocol.v1_decode_ns", "ns"),
    ("server.protocol.v1_handle_us", "us"),
    ("server.protocol.v1_render_ns", "ns"),
    ("server.wire.v2_codec_ns", "ns"),
    ("core.engine.fetch_hit_ns", "ns"),
    ("core.engine.estimate_ns", "ns"),
    ("core.model.estimate_distribution_ns", "ns"),
    ("server.transport_residual.v1_us", "us"),
    ("server.transport_residual.v2_us", "us"),
    ("server.v2.memo_share", "ratio"),
    ("server.v2.replies", "count"),
    ("server.shed", "count"),
    ("server.late", "count"),
    ("netlist.build_us", "us"),
    ("datamodel.input_dist_us", "us"),
    ("core.fidelity.analytic_us", "us"),
    ("core.regress.fit_us", "us"),
    ("core.characterize_ms", "ms"),
    ("sim.bitplane.ns_per_transition", "ns"),
    ("core.characterize.sim_share", "ratio"),
    ("core.persist.save_ms", "ms"),
    ("core.persist.load_us", "us"),
    ("core.persist.artifact_kib", "KiB"),
    ("cold.residual_ms", "ms"),
    ("core.engine.characterizations", "count"),
    ("core.engine.coalesced", "count"),
    ("core.engine.analytic_served", "count"),
    ("core.engine.regressed_served", "count"),
    ("core.engine.upgrades_done", "count"),
    ("core.engine.disk_hits", "count"),
    ("core.engine.misses", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    WarmClosed,
    WarmBulk,
    ColdLadder,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm_closed" => Some(Workload::WarmClosed),
            "warm_bulk" => Some(Workload::WarmBulk),
            "cold_ladder" => Some(Workload::ColdLadder),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WarmClosed => "warm_closed",
            Workload::WarmBulk => "warm_bulk",
            Workload::ColdLadder => "cold_ladder",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hdpm-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(run) => {
            let facts_path = out_dir.join(format!(
                "{}-seed{}-trace{}.json",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            ));
            if let Err(e) = std::fs::write(&facts_path, run.facts.render() + "\n") {
                eprintln!("hdpm-perfbench: cannot write {}: {e}", facts_path.display());
                std::process::exit(1);
            }
            for failure in &run.ledger.gate_failures {
                eprintln!("hdpm-perfbench: gate failed: {failure}");
            }
            eprintln!("hdpm-perfbench: run facts in {}", facts_path.display());
            println!("{}", run.result.render());
            if !run.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("hdpm-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A finished run: the result line, the facts file and the verdict.
struct Run {
    result: Json,
    facts: Json,
    ledger: Ledger,
    correct: bool,
}

/// Everything measured with tracing off.
struct EndToEnd {
    setup_s: Vec<f64>,
    passes: Vec<cold::Pass>,
    v1: Vec<Phase>,
    v2: Vec<Phase>,
    measured_s: f64,
}

fn run(args: &Args, scratch: &Path) -> Result<Run, String> {
    let origin = Instant::now();
    let plan = Plan::new(args.seed);
    let reference = Reference::build(&plan)?;
    let mut ledger = Ledger::default();
    let e2e = end_to_end(args, &plan, &reference, scratch, &mut ledger)?;
    for pass in &e2e.passes {
        ledger.merge(&pass.ledger);
    }
    for phase in e2e.v1.iter().chain(&e2e.v2) {
        ledger.merge(&phase.ledger);
    }
    let metrics = end_to_end_metrics(&e2e, &reference)?;

    let mut facts = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("run_seconds", Json::Int(args.seconds)),
        ("measured_s", Json::Num(e2e.measured_s)),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cold_passes", Json::Int(e2e.passes.len() as u64)),
        ("samples", samples(&e2e)),
        ("series", series(&e2e)),
        ("end_to_end", metric_values(&END_TO_END, &metrics)),
    ];
    let reported = if args.trace {
        let mut spans = Spans::new(origin);
        let layers = layers::measure(&plan, &scratch.join("layers"), &mut spans)?;
        let per_layer = per_layer_metrics(&e2e, &metrics, &layers, &ledger);
        facts.push(("per_layer", metric_values(&PER_LAYER, &per_layer)));
        facts.push(("budget", budget(&metrics, &layers)));
        facts.push(("spans_dropped", Json::Int(spans.dropped)));
        facts.push(("spans", spans_json(&spans)));
        metric_values(&PER_LAYER, &per_layer)
    } else {
        metric_values(&END_TO_END, &metrics)
    };
    facts.push(("ledger", ledger_json(&ledger)));
    let correct = ledger.gate_failures.is_empty() && ledger.unexpected == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(ledger.attempted)),
        ("failed", Json::Int(ledger.failed())),
        ("metrics", reported),
    ]);
    Ok(Run {
        result,
        facts: Json::obj(facts),
        ledger,
        correct,
    })
}

/// Set-up passes, then the workload's timed window: warm rounds (see
/// [`warm_round`]), each group of them followed by one cold-ladder pass
/// on servers of its own. Every metric is thus sampled across the whole
/// window, so a slow stretch of the host lands on all of them alike.
fn end_to_end(
    args: &Args,
    plan: &Plan,
    reference: &Reference,
    scratch: &Path,
    ledger: &mut Ledger,
) -> Result<EndToEnd, String> {
    let mut e2e = EndToEnd {
        setup_s: Vec::new(),
        passes: Vec::new(),
        v1: Vec::new(),
        v2: Vec::new(),
        measured_s: 0.0,
    };
    let store = |k: usize| -> PathBuf { scratch.join(format!("store-{k}")) };
    for k in 0..SETUP_PASSES {
        let started = Instant::now();
        let (pass, server) = cold::pass(plan, reference, &store(k))?;
        e2e.setup_s.push(started.elapsed().as_secs_f64());
        e2e.passes.push(pass);
        server.shutdown();
        if k > 0 {
            let _ = std::fs::remove_dir_all(store(k - 1));
        }
    }
    // The last set-up store holds the whole ladder; each round's warm
    // server restarts on it.
    let warm_store = store(SETUP_PASSES - 1);
    let (phase, block, rounds_per_pass): (PhaseFn, Duration, usize) = match args.workload {
        Workload::WarmClosed => (warm::closed, WARM_BLOCK, WARM_ROUNDS_PER_PASS),
        Workload::WarmBulk => (warm::bulk, WARM_BLOCK, WARM_ROUNDS_PER_PASS),
        Workload::ColdLadder => (warm::closed, PROBE_BLOCK, 1),
    };
    let window = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut k = SETUP_PASSES;
    while started.elapsed() < window {
        for _ in 0..rounds_per_pass {
            let server = start_server(&warm_store)?;
            let round = warm_round(&server, plan, reference, phase, block, ledger);
            server.shutdown();
            let (v1, v2) = round?;
            e2e.v1.push(v1);
            e2e.v2.push(v2);
        }
        let (pass, cold_server) = cold::pass(plan, reference, &store(k))?;
        e2e.passes.push(pass);
        cold_server.shutdown();
        let _ = std::fs::remove_dir_all(store(k));
        k += 1;
    }
    e2e.measured_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&warm_store);
    Ok(e2e)
}

type PhaseFn = fn(
    std::net::SocketAddr,
    Proto,
    &[inputs::Key],
    &[harness::Answer],
    Duration,
    Duration,
) -> Phase;

/// One v1 block and one v2 block on a warm server freshly restarted on
/// the full store, so no single thread placement holds for a whole run.
/// Every warm spec is loaded first; the timed blocks must then neither
/// miss nor characterize.
fn warm_round(
    server: &Server,
    plan: &Plan,
    reference: &Reference,
    phase: PhaseFn,
    block: Duration,
    ledger: &mut Ledger,
) -> Result<(Phase, Phase), String> {
    let addr = server.local_addr();
    for proto in [Proto::V1, Proto::V2] {
        let mut client = connect(addr, proto)?;
        for key in &plan.warm {
            let _ = ledger.estimate(&mut client, &key.request(None));
        }
    }
    let mut stats = connect(addr, Proto::V2)?;
    let before = ledger.stats(&mut stats);
    let v1 = phase(addr, Proto::V1, &plan.warm, &reference.warm, LEAD, block);
    let v2 = phase(addr, Proto::V2, &plan.warm, &reference.warm, LEAD, block);
    let after = ledger.stats(&mut stats);
    ledger.gate(
        matches!((&before, &after), (Ok(b), Ok(a))
            if a.misses == b.misses && a.characterizations == b.characterizations),
        || format!("warm blocks missed or characterized: before {before:?}, after {after:?}"),
    );
    Ok((v1, v2))
}

/// Each phase's latency percentile, in µs.
fn phase_latencies_us(phases: &[Phase], q: f64) -> Vec<f64> {
    phases
        .iter()
        .filter_map(|p| {
            let mut sorted = p.latencies_ns.clone();
            sorted.sort_unstable();
            percentile_sorted(&sorted, q).map(|ns| ns as f64 / 1e3)
        })
        .collect()
}

/// The median over phases of each phase's latency percentile, in µs.
fn latency_us(phases: &[Phase], q: f64) -> Option<f64> {
    median(&phase_latencies_us(phases, q))
}

/// Throughput samples, in replies per second: per phase, the rate of
/// its median burst over both connections when it pipelined, else its
/// completions per block.
fn block_rates(phases: &[Phase]) -> Vec<f64> {
    phases
        .iter()
        .flat_map(|p| {
            let bursts: Vec<f64> = p.bursts_ns.iter().map(|&ns| ns as f64).collect();
            match median(&bursts) {
                Some(ns) => vec![(warm::CONNECTIONS * warm::BURST) as f64 * 1e9 / ns],
                None => p
                    .block_counts
                    .iter()
                    .map(|&n| n as f64 / p.block.as_secs_f64())
                    .collect(),
            }
        })
        .collect()
}

/// The per-phase and per-pass values each end-to-end median is taken
/// over, in run order, with their interquartile spread over the median:
/// how steady the host was during this run.
fn series(e2e: &EndToEnd) -> Json {
    let per_pass = |field: fn(&cold::Pass) -> &Vec<f64>| -> Vec<f64> {
        e2e.passes.iter().filter_map(|p| median(field(p))).collect()
    };
    let rows = [
        ("setup_s", e2e.setup_s.clone()),
        ("v1_p50_us", phase_latencies_us(&e2e.v1, 0.5)),
        ("v2_p50_us", phase_latencies_us(&e2e.v2, 0.5)),
        ("v1_rps", block_rates(&e2e.v1)),
        ("v2_rps", block_rates(&e2e.v2)),
        ("first_answer_p50_us", per_pass(|p| &p.first_us)),
        ("full_answer_p50_ms", per_pass(|p| &p.full_ms)),
        ("restart_answer_p50_us", per_pass(|p| &p.restart_us)),
    ];
    Json::obj(rows.into_iter().map(|(name, values)| {
        let spread = relative_spread(&values).map_or(Json::Null, Json::Num);
        (
            name,
            Json::obj([
                ("spread", spread),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        )
    }))
}

/// One cold latency over every pass but the first.
fn pooled(passes: &[cold::Pass], field: impl Fn(&cold::Pass) -> &Vec<f64>) -> Vec<f64> {
    passes[1..]
        .iter()
        .flat_map(|p| field(p).iter().copied())
        .collect()
}

fn end_to_end_metrics(e2e: &EndToEnd, reference: &Reference) -> Result<Vec<f64>, String> {
    let missing = |name: &str| format!("no samples for {name}");
    let us_at = |phases: &[Phase], q: f64, name: &str| -> Result<f64, String> {
        latency_us(phases, q).ok_or_else(|| missing(name))
    };
    let med = |values: Vec<f64>, name: &str| median(&values).ok_or_else(|| missing(name));
    Ok(vec![
        med(e2e.setup_s.clone(), "setup_s")?,
        us_at(&e2e.v1, 0.5, "v1_p50_us")?,
        us_at(&e2e.v1, 0.9, "v1_p90_us")?,
        us_at(&e2e.v2, 0.5, "v2_p50_us")?,
        us_at(&e2e.v2, 0.9, "v2_p90_us")?,
        med(block_rates(&e2e.v1), "v1_rps")?,
        med(block_rates(&e2e.v2), "v2_rps")?,
        med(pooled(&e2e.passes, |p| &p.first_us), "first_answer_p50_us")?,
        med(pooled(&e2e.passes, |p| &p.full_ms), "full_answer_p50_ms")?,
        med(
            pooled(&e2e.passes, |p| &p.restart_us),
            "restart_answer_p50_us",
        )?,
        reference.tier_a_err_pct,
        reference.tier_b_err_pct,
        reference.est_err_pct,
    ])
}

fn per_layer_metrics(
    e2e: &EndToEnd,
    metrics: &[f64],
    layers: &Layers,
    ledger: &Ledger,
) -> Vec<f64> {
    let [_, v1_p50, _, v2_p50, _, _, _, _, full_ms, ..] = metrics else {
        unreachable!("end-to-end metrics are complete")
    };
    let v2_replies: u64 = e2e.v2.iter().map(|p| p.latencies_ns.len() as u64).sum();
    let memo: u64 = e2e.v2.iter().map(|p| p.memo).sum();
    let first = &e2e.passes[0];
    vec![
        layers.v1_decode_ns,
        layers.v1_handle_us,
        layers.v1_render_ns,
        layers.v2_codec_ns,
        layers.fetch_hit_ns,
        layers.estimate_ns,
        layers.estimate_distribution_ns,
        v1_p50 - v1_layers_us(layers),
        v2_p50 - layers.v2_codec_ns / 1e3,
        memo as f64 / v2_replies.max(1) as f64,
        v2_replies as f64,
        ledger.overloaded as f64,
        ledger.late as f64,
        layers.build_us,
        layers.input_dist_us,
        layers.analytic_us,
        layers.regress_fit_us,
        layers.characterize_ms,
        layers.ns_per_transition,
        layers.sim_share,
        layers.save_ms,
        layers.load_us,
        layers.artifact_kib,
        full_ms - cold_layers_ms(layers),
        first.cold_stats.characterizations as f64,
        first.cold_stats.coalesced as f64,
        first.cold_stats.analytic_served as f64,
        first.cold_stats.regressed_served as f64,
        first.cold_stats.upgrades_done as f64,
        first.restart_stats.disk_hits as f64,
        first.cold_stats.misses as f64,
    ]
}

fn v1_layers_us(layers: &Layers) -> f64 {
    (layers.v1_decode_ns + layers.v1_render_ns) / 1e3 + layers.v1_handle_us
}

fn cold_layers_ms(layers: &Layers) -> f64 {
    layers.build_us / 1e3 + layers.characterize_ms + layers.save_ms
}

/// Each end-to-end p50 as layer p50s plus the residual they leave.
fn budget(metrics: &[f64], layers: &Layers) -> Json {
    let [_, v1_p50, _, v2_p50, _, _, _, first_us, full_ms, restart_us, ..] = metrics else {
        unreachable!("end-to-end metrics are complete")
    };
    let entry = |total: f64, unit: &str, parts: Vec<(&str, f64)>, residual: &str| {
        let sum: f64 = parts.iter().map(|(_, v)| v).sum();
        Json::obj([
            ("end_to_end", Json::Num(total)),
            ("unit", Json::str(unit)),
            (
                "layers",
                Json::obj(parts.into_iter().map(|(name, v)| (name, Json::Num(v)))),
            ),
            ("residual", Json::Num(total - sum)),
            ("residual_is", Json::str(residual)),
        ])
    };
    let transport = "server.reactor + server.queue + sockets + client (transport)";
    Json::obj([
        (
            "v1_p50_us",
            entry(
                *v1_p50,
                "us",
                vec![
                    ("server.protocol.v1_decode", layers.v1_decode_ns / 1e3),
                    ("server.protocol.v1_handle", layers.v1_handle_us),
                    ("server.protocol.v1_render", layers.v1_render_ns / 1e3),
                ],
                transport,
            ),
        ),
        (
            "v2_p50_us",
            entry(
                *v2_p50,
                "us",
                vec![("server.wire.v2_codec", layers.v2_codec_ns / 1e3)],
                transport,
            ),
        ),
        (
            "first_answer_p50_us",
            entry(
                *first_us,
                "us",
                vec![
                    ("datamodel.input_dist", layers.input_dist_us),
                    ("core.fidelity.analytic", layers.analytic_us),
                ],
                "transport + engine ladder decision + upgrade enqueue",
            ),
        ),
        (
            "full_answer_p50_ms",
            entry(
                *full_ms,
                "ms",
                vec![
                    ("netlist.build", layers.build_us / 1e3),
                    ("core.characterize", layers.characterize_ms),
                    ("core.persist.save", layers.save_ms),
                ],
                "first answer + wait behind the single upgrade worker + transport",
            ),
        ),
        (
            "restart_answer_p50_us",
            entry(
                *restart_us,
                "us",
                vec![
                    ("core.persist.load", layers.load_us),
                    ("datamodel.input_dist", layers.input_dist_us),
                ],
                "transport + store lookup + estimate",
            ),
        ),
    ])
}

fn metric_values(table: &[(&str, &str)], values: &[f64]) -> Json {
    Json::obj(table.iter().zip(values).map(|(&(name, unit), &value)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

fn samples(e2e: &EndToEnd) -> Json {
    let count =
        |phases: &[Phase]| Json::Int(phases.iter().map(|p| p.latencies_ns.len() as u64).sum());
    let blocks = |phases: &[Phase]| Json::Int(block_rates(phases).len() as u64);
    let pooled_len = |f: fn(&cold::Pass) -> usize| {
        Json::Int(e2e.passes[1..].iter().map(f).sum::<usize>() as u64)
    };
    Json::obj([
        ("setup_s", Json::Int(e2e.setup_s.len() as u64)),
        ("v1_latency", count(&e2e.v1)),
        ("v2_latency", count(&e2e.v2)),
        ("v1_rate_blocks", blocks(&e2e.v1)),
        ("v2_rate_blocks", blocks(&e2e.v2)),
        ("first_answer", pooled_len(|p| p.first_us.len())),
        ("full_answer", pooled_len(|p| p.full_ms.len())),
        ("restart_answer", pooled_len(|p| p.restart_us.len())),
    ])
}

fn ledger_json(ledger: &Ledger) -> Json {
    Json::obj([
        ("attempted", Json::Int(ledger.attempted)),
        ("failed", Json::Int(ledger.failed())),
        ("overloaded", Json::Int(ledger.overloaded)),
        ("timeout", Json::Int(ledger.timeout)),
        ("engine", Json::Int(ledger.engine)),
        ("transport", Json::Int(ledger.transport)),
        ("unexpected", Json::Int(ledger.unexpected)),
        ("late", Json::Int(ledger.late)),
        (
            "gate_failures",
            Json::Arr(ledger.gate_failures.iter().map(Json::str).collect()),
        ),
    ])
}

fn spans_json(spans: &Spans) -> Json {
    Json::Arr(
        spans
            .kept
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id)),
                    ("request", Json::Int(s.request)),
                    ("parent", s.parent.map_or(Json::Null, Json::Int)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                ])
            })
            .collect(),
    )
}

/// First line of a command's output, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_under(text: &str, section: &str) -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_under(text, "end_to_end"), e2e);
        assert_eq!(names_under(text, "per_layer"), layer);
        assert_eq!(
            names_under(text, "workloads"),
            ["warm_closed", "warm_bulk", "cold_ladder"]
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let ok = args("--workload cold_ladder --seed 9 --seconds 4 --trace 1").expect("valid");
        assert_eq!(ok.workload, Workload::ColdLadder);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 4, true));
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload warm_bulk --seconds 1").is_err());
        assert!(args("--workload warm_bulk --seed 1 --seconds 0").is_err());
        assert!(args("--workload warm_bulk --seed 1 --seconds 1 --trace 2").is_err());
    }
}
