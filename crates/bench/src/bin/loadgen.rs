//! `loadgen` — TCP load generator and replay client for `hdpm-server`.
//!
//! Drives N connections × M warm requests against a running server and
//! prints the served rate per protocol and discipline on stderr:
//!
//! ```sh
//! loadgen --addr 127.0.0.1:7070 --proto v2 --connections 2 --requests 500
//! ```
//!
//! A load run needs a target: `--addr` for one server, or
//! `--targets addr1,addr2,...` to spread the load across a fleet
//! (connection *i* dials target *i* mod N, the round-robin shape of the
//! cluster smoke). `--proto v1|v2|both` (default both) selects the wire
//! protocol — v1 JSON lines or the binary framed v2. Two driving
//! disciplines run per protocol:
//!
//! * **closed** loop — each connection sends a request and waits for the
//!   reply before sending the next;
//! * **pipelined** (open) loop — each connection keeps a 512-request
//!   window in flight.
//!
//! `--mode closed|pipelined` restricts to one discipline (default both).
//! Requests answered `overloaded` are counted as shed, not served.
//! Any other non-estimate reply ends the run with a non-zero exit, so a
//! load run doubles as a wire smoke test.
//!
//! `--idle-conns N` opens N extra connections that send nothing while
//! the load runs, then verifies a sample of them still answers — the
//! reactor-pool soak used by CI (idle connections must cost fds, not
//! threads, and must survive a traffic burst next to them).
//!
//! With `--replay <file>` the binary becomes a v1 protocol client
//! instead: it sends every line of the file to `--addr`, prints one
//! reply per request to stdout and exits — CI replays the golden
//! transcript over TCP this way and diffs the output byte-for-byte.
//! Replay strips the per-request `"trace":"t…"` ids a tracing server
//! echoes, so the diff against the untraced golden fixtures passes
//! either way.
//!
//! `--compare-tracing` measures the v1 pipelined discipline against a
//! tracing-off and a tracing-on in-process server and prints the
//! warm-path overhead as JSON on stdout (the `BENCH_obs.json` recording
//! flow):
//!
//! ```sh
//! cargo run --release -p hdpm-bench --bin loadgen -- \
//!   --connections 8 --requests 4000 --compare-tracing > BENCH_obs.json
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{Client, Proto, Request, Response};
use hdpm_server::{Server, ServerConfig};
use serde::Serialize;

/// The warm request every discipline drives: an estimate against a
/// cached model (64 cycles keeps the distribution fit cheap).
fn request() -> Request {
    Request::Estimate {
        spec: ModuleSpec::new(ModuleKind::RippleAdder, 8usize),
        data: hdpm_server::protocol::data_type("counter").expect("known type"),
        cycles: 64,
        seed: 7,
        floor: None,
    }
}

/// Open-loop window: requests kept in flight per pipelined connection.
const WINDOW: usize = 512;

#[derive(Serialize)]
struct Discipline {
    requests: usize,
    /// Requests the server answered `overloaded` — backpressure working
    /// as designed under an open loop. The rate below counts only
    /// successfully served requests.
    shed: usize,
    elapsed_s: f64,
    requests_per_sec: f64,
}

/// The `--compare-tracing` snapshot: the same pipelined load against a
/// tracing-off and a tracing-on server, and the relative cost.
///
/// Host throughput drifts (CPU frequency, hypervisor credits, noisy
/// neighbours), so one off-then-on pass measures the drift, not the
/// tracing plane. Both servers live for the whole run and each block
/// measures **off, on, on, off** — the ABBA design cancels linear drift
/// within a block — and `overhead_pct` is the median block overhead.
/// Per-round rates are kept for transparency.
#[derive(Serialize)]
struct TracingComparison {
    connections: usize,
    requests_per_connection: usize,
    blocks: usize,
    rounds_off_requests_per_sec: Vec<f64>,
    rounds_on_requests_per_sec: Vec<f64>,
    block_overhead_pct: Vec<f64>,
    tracing_off: Discipline,
    tracing_on: Discipline,
    overhead_pct: f64,
}

fn main() {
    let mut addr: Option<String> = None;
    let mut targets_arg: Option<String> = None;
    let mut connections = 8usize;
    let mut requests = 2000usize;
    let mut mode = "both".to_string();
    let mut proto = "both".to_string();
    let mut idle_conns = 0usize;
    let mut replay: Option<String> = None;
    let mut compare_tracing = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--targets" => targets_arg = Some(value("--targets")),
            "--connections" => connections = parse(&value("--connections")),
            "--requests" => requests = parse(&value("--requests")),
            "--mode" => mode = value("--mode"),
            "--proto" => proto = value("--proto"),
            "--idle-conns" => idle_conns = parse(&value("--idle-conns")),
            "--replay" => replay = Some(value("--replay")),
            "--compare-tracing" => compare_tracing = true,
            other => die(&format!(
                "unknown option `{other}` (expected --addr, --targets, --connections, \
                 --requests, --mode, --proto, --idle-conns, --replay or --compare-tracing)"
            )),
        }
    }
    if !matches!(mode.as_str(), "both" | "closed" | "pipelined") {
        die("--mode must be closed, pipelined or both");
    }
    let protos: Vec<Proto> = match proto.as_str() {
        "both" => vec![Proto::V1, Proto::V2],
        other => vec![Proto::parse(other).unwrap_or_else(|| die("--proto must be v1, v2 or both"))],
    };
    if compare_tracing {
        if addr.is_some() || targets_arg.is_some() {
            die("--compare-tracing runs its own in-process servers; drop --addr/--targets");
        }
        run_compare_tracing(connections, requests);
        return;
    }
    // The list connections round-robin across: the --targets fleet, or
    // the single --addr.
    let targets: Vec<String> = match (addr, targets_arg) {
        (Some(_), Some(_)) => {
            die("--addr and --targets are exclusive (use --targets alone for a fleet)")
        }
        (None, None) => {
            die("--addr or --targets is required (only --compare-tracing starts its own servers)")
        }
        (Some(addr), None) => vec![addr],
        (None, Some(list)) => list
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .collect(),
    };
    if targets.is_empty() {
        die("--targets needs at least one address");
    }

    if let Some(path) = replay {
        if targets.len() > 1 {
            die("--replay is a single-server conformance flow; use --addr");
        }
        run_replay(&targets[0], &path);
        return;
    }

    // Idle soak: the connections open before the load and answer after
    // it, so the burst next door cannot have starved or killed them.
    let idle: Vec<Client> = (0..idle_conns)
        .map(|i| {
            Client::connect(&targets[i % targets.len()], *protos.last().expect("proto"))
                .unwrap_or_else(|e| die(&format!("idle connection {i}: {e}")))
        })
        .collect();
    if idle_conns > 0 {
        eprintln!("holding {idle_conns} idle connections through the run");
    }

    for proto in &protos {
        for target in &targets {
            warm(target, *proto);
        }
        let closed =
            (mode != "pipelined").then(|| run_closed(&targets, *proto, connections, requests));
        let pipelined =
            (mode != "closed").then(|| run_pipelined(&targets, *proto, connections, requests));
        for (name, d) in [("closed", closed), ("pipelined", pipelined)] {
            if let Some(d) = d {
                eprintln!(
                    "{} {name:>9}: {:.0} requests/sec over {} requests ({} shed)",
                    proto.as_str(),
                    d.requests_per_sec,
                    d.requests,
                    d.shed
                );
            }
        }
    }

    // Every 100th idle connection (and the last) must still answer.
    for (i, mut client) in idle.into_iter().enumerate() {
        if i % 100 != 0 && i != idle_conns - 1 {
            continue;
        }
        let probe = match client.proto() {
            Proto::V2 => Request::Ping,
            Proto::V1 => Request::Stats,
        };
        match client.call(&probe, None) {
            Ok(reply) => match reply.response {
                Response::Pong | Response::Stats(_) => {}
                other => die(&format!("idle connection {i}: unexpected reply {other:?}")),
            },
            Err(e) => die(&format!("idle connection {i} died during the run: {e}")),
        }
    }
    if idle_conns > 0 {
        eprintln!("idle connections survived the run");
    }
}

fn die(message: &str) -> ! {
    eprintln!("loadgen: {message}");
    std::process::exit(2);
}

fn parse(raw: &str) -> usize {
    raw.parse()
        .unwrap_or_else(|_| die(&format!("`{raw}` is not an integer")))
}

/// An in-process server for one side of `--compare-tracing`.
fn start_local(tracing: bool) -> Server {
    Server::start(
        ServerConfig::builder()
            .queue_depth(65_536)
            .tracing(tracing)
            .max_connections(256)
            // An open-loop flood spends most of its latency queued, which
            // would put every request over the default slow threshold; the
            // slow-request log is not what this binary measures.
            .slow_threshold(Duration::from_secs(3600))
            .engine(EngineOptions {
                config: CharacterizationConfig::builder()
                    .max_patterns(1500)
                    .build()
                    .expect("valid config"),
                sharding: Some(ShardingConfig {
                    shards: 4,
                    threads: 0,
                }),
                disk_root: None,
                capacity: 64,
            })
            .build()
            .expect("valid config"),
    )
    .expect("server starts")
}

fn client(target: &str, proto: Proto) -> Client {
    Client::connect(target, proto)
        .unwrap_or_else(|e| die(&format!("cannot connect to {target}: {e}")))
}

/// One round trip so the model cache is hot before anything is timed.
fn warm(target: &str, proto: Proto) {
    let mut client = client(target, proto);
    let reply = client
        .call(&request(), None)
        .unwrap_or_else(|e| die(&format!("warm-up failed: {e}")));
    match reply.response {
        Response::Estimate(_) => {}
        other => die(&format!("warm-up failed: {other:?}")),
    }
}

/// Count a reply toward the shed tally, or die on anything that is
/// neither success nor backpressure.
fn tally(response: &Response, shed: &mut usize) {
    match response {
        Response::Estimate(_) => {}
        Response::Error { kind, .. } if kind == "overloaded" => *shed += 1,
        other => die(&format!("unexpected reply: {other:?}")),
    }
}

/// Open one client per connection, round-robined across `targets`, run
/// `drive` on each (it returns its shed count) and rate the whole load.
fn drive_connections(
    targets: &[String],
    proto: Proto,
    connections: usize,
    requests: usize,
    drive: impl Fn(&mut Client, &Request) -> usize + Sync,
) -> Discipline {
    let started = Instant::now();
    let request = request();
    let (request, drive) = (&request, &drive);
    let shed: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|i| {
                let target = &targets[i % targets.len()];
                scope.spawn(move || drive(&mut client(target, proto), request))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let total = connections * requests;
    Discipline {
        requests: total,
        shed,
        elapsed_s: elapsed,
        requests_per_sec: (total - shed) as f64 / elapsed,
    }
}

fn run_closed(targets: &[String], proto: Proto, connections: usize, requests: usize) -> Discipline {
    drive_connections(targets, proto, connections, requests, |client, request| {
        let mut shed = 0usize;
        for _ in 0..requests {
            let reply = client
                .call(request, None)
                .unwrap_or_else(|e| die(&format!("closed loop: {e}")));
            tally(&reply.response, &mut shed);
        }
        shed
    })
}

fn run_pipelined(
    targets: &[String],
    proto: Proto,
    connections: usize,
    requests: usize,
) -> Discipline {
    drive_connections(targets, proto, connections, requests, |client, request| {
        // A sliding window keeps the pipe full without the sender and
        // receiver deadlocking on socket buffers.
        let mut sent = 0usize;
        let mut received = 0usize;
        let mut shed = 0usize;
        while received < requests {
            while sent < requests && sent - received < WINDOW {
                client
                    .send(request, None)
                    .unwrap_or_else(|e| die(&format!("pipelined send: {e}")));
                sent += 1;
            }
            client
                .flush()
                .unwrap_or_else(|e| die(&format!("pipelined flush: {e}")));
            let reply = client
                .recv()
                .unwrap_or_else(|e| die(&format!("pipelined recv: {e}")));
            tally(&reply.response, &mut shed);
            received += 1;
        }
        shed
    })
}

/// Replay a request file against `target` over raw v1 lines, one reply
/// line per non-blank request line on stdout. Trace ids are stripped so
/// the output diffs cleanly against untraced golden fixtures. Kept on
/// raw sockets, not the typed [`Client`], because the point is
/// byte-for-byte conformance of the wire.
fn run_replay(target: &str, path: &str) {
    let script =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let requests: Vec<&str> = script.lines().filter(|l| !l.trim().is_empty()).collect();
    let stream = TcpStream::connect(target)
        .unwrap_or_else(|e| die(&format!("cannot connect to {target}: {e}")));
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for request in &requests {
        writer.write_all(request.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut line = String::new();
    for _ in 0..requests.len() {
        line.clear();
        if reader.read_line(&mut line).expect("reply") == 0 {
            die("server closed the connection mid-replay");
        }
        out.write_all(strip_trace(&line).as_bytes())
            .expect("stdout");
    }
}

/// Remove the `,"trace":"t…"` field a tracing server appends to replies.
fn strip_trace(line: &str) -> String {
    match line.find(",\"trace\":\"t") {
        Some(at) => {
            let rest = &line[at + ",\"trace\":\"".len()..];
            match rest.find('"') {
                Some(close) => format!("{}{}", &line[..at], &rest[close + 1..]),
                None => line.to_string(),
            }
        }
        None => line.to_string(),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `--compare-tracing` flow: identical v1 pipelined load against a
/// long-lived tracing-off and tracing-on server pair, measured in
/// drift-cancelling ABBA blocks (see [`TracingComparison`]), reporting
/// the relative warm-path cost of the tracing plane as JSON on stdout.
fn run_compare_tracing(connections: usize, requests: usize) {
    // Enough blocks that hypervisor steal bursts landing on individual
    // blocks (observed: isolated 12-17% outliers against a ~5% mode)
    // cannot drag the median.
    const BLOCKS: usize = 9;
    let server_off = start_local(false);
    let server_on = start_local(true);
    let target_off = server_off.local_addr().to_string();
    let target_on = server_on.local_addr().to_string();
    warm(&target_off, Proto::V1);
    warm(&target_on, Proto::V1);
    let measure = |tracing: bool| {
        let target = if tracing { &target_on } else { &target_off };
        let result = run_pipelined(
            std::slice::from_ref(target),
            Proto::V1,
            connections,
            requests,
        );
        eprintln!(
            "tracing {:>3}: {:.0} requests/sec over {} requests",
            if tracing { "on" } else { "off" },
            result.requests_per_sec,
            result.requests
        );
        result
    };
    let mut rounds_off: Vec<Discipline> = Vec::new();
    let mut rounds_on: Vec<Discipline> = Vec::new();
    let mut block_overhead_pct: Vec<f64> = Vec::new();
    for _ in 0..BLOCKS {
        let off_a = measure(false);
        let on_a = measure(true);
        let on_b = measure(true);
        let off_b = measure(false);
        let off_rate = off_a.requests_per_sec + off_b.requests_per_sec;
        let on_rate = on_a.requests_per_sec + on_b.requests_per_sec;
        let block = 100.0 * (1.0 - on_rate / off_rate.max(f64::MIN_POSITIVE));
        eprintln!("block overhead: {block:.2}%");
        block_overhead_pct.push(block);
        rounds_off.extend([off_a, off_b]);
        rounds_on.extend([on_a, on_b]);
    }
    server_off.shutdown();
    server_on.shutdown();
    let rounds_off_requests_per_sec: Vec<f64> =
        rounds_off.iter().map(|d| d.requests_per_sec).collect();
    let rounds_on_requests_per_sec: Vec<f64> =
        rounds_on.iter().map(|d| d.requests_per_sec).collect();
    let overhead_pct = median(&block_overhead_pct);
    let peak = |rounds: Vec<Discipline>| {
        rounds
            .into_iter()
            .max_by(|a, b| a.requests_per_sec.total_cmp(&b.requests_per_sec))
            .expect("at least one round")
    };
    let tracing_off = peak(rounds_off);
    let tracing_on = peak(rounds_on);
    eprintln!(
        "peak over {BLOCKS} ABBA blocks — off: {:.0} req/s, on: {:.0} req/s",
        tracing_off.requests_per_sec, tracing_on.requests_per_sec
    );
    eprintln!(
        "tracing overhead (median of blocks): {overhead_pct:.2}% of warm pipelined throughput"
    );
    let comparison = TracingComparison {
        connections,
        requests_per_connection: requests,
        blocks: BLOCKS,
        rounds_off_requests_per_sec,
        rounds_on_requests_per_sec,
        block_overhead_pct,
        tracing_off,
        tracing_on,
        overhead_pct,
    };
    let json = serde_json::to_string_pretty(&comparison).expect("comparison serializes");
    println!("{json}");
}
