//! Admin-plane integration tests: the HTTP endpoints (`/metrics`,
//! `/healthz`, `/readyz`, `/tracez`), the golden metric-family skeleton,
//! readiness flipping during drain, and the end-to-end tracing
//! acceptance check — a slow cold request whose per-stage timings must
//! reconcile with the wall clock measured at the client.
//!
//! The metrics registry and the flight recorder are process-global, so
//! every test serializes on one lock and resets both before starting.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{Proto, Request, Response};
use hdpm_server::{wire, Server, ServerConfig};
use hdpm_telemetry as telemetry;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// Serialize on the global telemetry state and wipe it.
fn fresh_state() -> std::sync::MutexGuard<'static, ()> {
    let guard = GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::reset();
    telemetry::trace::recorder().clear();
    guard
}

fn quick_engine() -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(1500)
            .build()
            .unwrap(),
        sharding: Some(ShardingConfig {
            shards: 4,
            threads: 1,
        }),
        disk_root: None,
        capacity: 64,
    }
}

fn admin_options(engine: EngineOptions) -> ServerConfig {
    ServerConfig::builder()
        .workers(1)
        .no_deadline()
        .engine(engine)
        .admin_addr(SocketAddr::from(([127, 0, 0, 1], 0)))
        .build()
        .unwrap()
}

/// One blocking HTTP/1.0 GET against the admin plane.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;
    write!(writer, "GET {path} HTTP/1.0\r\nConnection: close\r\n\r\n")?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut header = String::new();
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    Ok((status, body))
}

/// A blocking line-oriented protocol client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    }
}

fn admin_addr(server: &Server) -> SocketAddr {
    server.admin_addr().expect("admin plane configured")
}

const STATS: &str = "{\"op\":\"stats\"}";
const SLOW_CHARACTERIZE: &str =
    "{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":8}";

#[test]
fn admin_endpoints_serve_health_metrics_and_traces() {
    let _state = fresh_state();
    let server = Server::start(admin_options(quick_engine())).expect("start");
    let admin = admin_addr(&server);

    let (status, body) = http_get(admin, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = http_get(admin, "/readyz").expect("readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"));

    let reply = Client::connect(&server).round_trip(STATS);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let trace_id = trace_id_of(&reply);

    let (status, metrics) = http_get(admin, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("# TYPE engine_cache_entries gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE server_request_ns summary"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE server_request_ok counter"),
        "{metrics}"
    );

    // The trace record is filed after the reply is on the wire, so the
    // scrape can race the worker's completion hook: poll briefly.
    let needle = format!("\"trace\":\"{trace_id}\"");
    let deadline = Instant::now() + Duration::from_secs(5);
    let traces = loop {
        let (status, body) = http_get(admin, "/tracez").expect("tracez");
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"capacity\":"), "{body}");
        if body.contains(&needle) || Instant::now() >= deadline {
            break body;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(
        traces.contains(&needle),
        "trace from the reply is in the recorder: {traces}"
    );

    let (status, body) = http_get(admin, "/nonsense").expect("404");
    assert_eq!(status, 404);
    assert!(body.contains("/metrics"), "{body}");

    server.shutdown();
}

/// The `"trace":"t…"` id embedded in a reply line.
fn trace_id_of(reply: &str) -> String {
    let value: serde::Value = serde_json::from_str(reply).expect("reply parses");
    value
        .get("trace")
        .and_then(serde::Value::as_str)
        .unwrap_or_else(|| panic!("reply carries a trace id: {reply}"))
        .to_string()
}

/// The golden skeleton: after a fixed request sequence the `/metrics`
/// exposition must declare exactly the metric families in
/// `tests/fixtures/metrics_skeleton.txt` (names and types only — values
/// and label sets are load-dependent). CI replays the same sequence
/// against a real `hdpm server` process and diffs the same lines.
#[test]
fn metrics_skeleton_matches_golden_fixture() {
    let _state = fresh_state();
    let mut options = admin_options(quick_engine());
    // Everything is "slow" so the slow-request counter family appears.
    options.slow_threshold = Duration::from_nanos(1);
    let server = Server::start(options).expect("start");
    let mut client = Client::connect(&server);

    let estimate =
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":6,\"data\":\"counter\",\"cycles\":128}";
    // Cold estimate, warm estimate (cache + dist-cache hits), a
    // characterize hit, a stats probe and one malformed line: together
    // they touch every metric family a healthy server produces.
    for request in [
        estimate,
        estimate,
        "{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":6}",
        STATS,
        "not json",
    ] {
        client.round_trip(request);
    }

    let (status, metrics) = http_get(admin_addr(&server), "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let skeleton: String = metrics
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .map(|l| format!("{l}\n"))
        .collect();

    let fixture_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/fixtures/metrics_skeleton.txt");
    // `HDPM_BLESS=1 cargo test -p hdpm-server --test admin` regenerates
    // the fixture after an intentional metric change.
    if std::env::var_os("HDPM_BLESS").is_some() {
        std::fs::write(&fixture_path, &skeleton).expect("bless fixture");
    }
    let golden = std::fs::read_to_string(&fixture_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", fixture_path.display()));
    assert_eq!(
        skeleton, golden,
        "metric families drifted — update tests/fixtures/metrics_skeleton.txt \
         and docs/telemetry.md together"
    );
    server.shutdown();
}

#[test]
fn readyz_flips_to_503_while_draining_and_admin_stops_last() {
    let _state = fresh_state();
    let engine = EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(12_000)
            .build()
            .unwrap(),
        ..quick_engine()
    };
    let server = Server::start(admin_options(engine)).expect("start");
    let admin = admin_addr(&server);

    let (status, _) = http_get(admin, "/readyz").expect("readyz");
    assert_eq!(status, 200, "ready before drain");

    // Occupy the single worker with a pipeline of slow characterizations
    // (distinct widths → distinct models, no cache reuse), then drain
    // from another thread. Drain answers everything already queued, so
    // the 503 window stays open for the whole queued backlog — seconds,
    // not one request — and the poll below cannot miss it.
    let mut client = Client::connect(&server);
    for width in [8u32, 9, 10] {
        let line = format!(
            "{{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":{width}}}\n"
        );
        client.stream.write_all(line.as_bytes()).unwrap();
    }
    // Wait until the reader thread has framed all three requests (one in
    // the worker, two queued): draining earlier would shed them instead.
    let framed = Instant::now();
    loop {
        let (_, body) = http_get(admin, "/metrics").expect("metrics");
        let queued = body
            .lines()
            .find_map(|l| l.strip_prefix("server_queue_len "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        if queued >= 2.0 {
            break;
        }
        assert!(
            framed.elapsed() < Duration::from_secs(10),
            "requests were never queued (queue len {queued})"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let drain = std::thread::spawn(move || server.shutdown());

    let saw_draining = Instant::now();
    let mut flipped = false;
    while saw_draining.elapsed() < Duration::from_secs(10) {
        match http_get(admin, "/readyz") {
            Ok((503, body)) => {
                assert!(body.contains("draining"), "{body}");
                flipped = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break, // admin already gone: drain won the race
        }
    }
    assert!(flipped, "readyz must report 503 during the drain window");

    // The held requests still complete (drain answers everything queued).
    for _ in 0..3 {
        let mut reply = String::new();
        client.reader.read_line(&mut reply).expect("drained reply");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    let report = drain.join().expect("drain");
    assert_eq!(report.ok, 3);

    // After shutdown returns the admin listener is gone.
    let gone = Instant::now();
    let mut refused = false;
    while gone.elapsed() < Duration::from_secs(5) {
        if TcpStream::connect(admin).is_err() {
            refused = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(refused, "admin plane must stop after the drain");
}

/// The acceptance criterion of the tracing tentpole: a slow cold request
/// produces a flight-recorder entry whose per-stage timings sum to
/// within 5% of the wall time measured at the client, under the same
/// trace id the reply echoed — and trips the slow-request counter.
#[test]
fn slow_cold_request_reconciles_stage_timings_with_wall_time() {
    let _state = fresh_state();
    let engine = EngineOptions {
        // Heavy enough (hundreds of ms) that untimed gaps — loopback
        // transit and queue hand-off overhead — stay far inside the 5%
        // reconciliation budget.
        config: CharacterizationConfig::builder()
            .max_patterns(60_000)
            .build()
            .unwrap(),
        ..quick_engine()
    };
    let mut options = admin_options(engine);
    options.slow_threshold = Duration::from_millis(1);
    let server = Server::start(options).expect("start");
    let admin = admin_addr(&server);

    let mut client = Client::connect(&server);
    let started = Instant::now();
    let reply = client.round_trip(SLOW_CHARACTERIZE);
    let wall_ns = started.elapsed().as_nanos() as f64;
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let trace_id = trace_id_of(&reply);

    // The flight recorder entry lands after the reply is on the wire;
    // give the finisher a moment.
    let mut entry = None;
    let deadline = Instant::now() + Duration::from_secs(5);
    while entry.is_none() && Instant::now() < deadline {
        let (status, body) = http_get(admin, "/tracez").expect("tracez");
        assert_eq!(status, 200);
        let value: serde::Value = serde_json::from_str(&body).expect("tracez parses");
        entry = value
            .get("traces")
            .and_then(serde::Value::as_array)
            .and_then(|traces| {
                traces
                    .iter()
                    .find(|t| t.get("trace").and_then(serde::Value::as_str) == Some(&trace_id))
                    .cloned()
            });
        if entry.is_none() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let entry = entry.expect("the traced request reaches /tracez");

    assert_eq!(
        entry.get("op").and_then(serde::Value::as_str),
        Some("characterize")
    );
    assert_eq!(
        entry.get("status").and_then(serde::Value::as_str),
        Some("ok")
    );
    let total_ns = entry
        .get("total_ns")
        .and_then(serde::Value::as_f64)
        .expect("total_ns");
    let stage_sum: f64 = entry
        .get("stages")
        .and_then(serde::Value::as_object)
        .expect("stages")
        .iter()
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    let reconcile = |label: &str, reference: f64| {
        let gap = (reference - stage_sum).abs();
        assert!(
            gap <= 0.05 * reference,
            "stage sum {stage_sum} ns must be within 5% of {label} {reference} ns \
             (gap {gap} ns, trace {trace_id})"
        );
    };
    reconcile("recorded total", total_ns);
    reconcile("client wall time", wall_ns);

    let (status, metrics) = http_get(admin, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let slow = metrics
        .lines()
        .find_map(|l| l.strip_prefix("server_request_slow "))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("slow-request counter exposed");
    assert!(slow >= 1.0, "the slow request is counted: {slow}");

    server.shutdown();
}

/// A single-worker, depth-1 server whose worker a 12k-pattern
/// characterization holds for hundreds of ms, so requests sent behind it
/// are shed.
fn saturable_server() -> Server {
    let engine = EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(12_000)
            .build()
            .unwrap(),
        ..quick_engine()
    };
    let config = ServerConfig::builder()
        .workers(1)
        .queue_depth(1)
        .no_deadline()
        .engine(engine)
        .build()
        .unwrap();
    Server::start(config).expect("start")
}

/// The flight recorder's records with `status`.
fn recorded(status: &str) -> Vec<telemetry::trace::TraceRecord> {
    telemetry::trace::recorder()
        .snapshot()
        .into_iter()
        .filter(|r| r.status == status)
        .collect()
}

/// Every shed job files one `overloaded` record that names its work: the
/// request of a v1 line, the `batch` of a v2 read burst.
#[test]
fn shed_jobs_file_named_overloaded_traces_on_both_protocols() {
    let _state = fresh_state();

    let server = saturable_server();
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    const FLOOD: usize = 30;
    writeln!(writer, "{SLOW_CHARACTERIZE}").expect("send");
    for _ in 0..FLOOD {
        writeln!(writer, "{STATS}").expect("send");
    }
    let mut shed = 0;
    for _ in 0..=FLOOD {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        shed += usize::from(reply.contains("\"kind\":\"overloaded\""));
    }
    server.shutdown();
    assert!(shed > 0, "a saturated queue must shed");
    let v1 = recorded("overloaded");
    assert_eq!(v1.len(), shed, "one record per shed v1 line: {v1:?}");
    assert!(v1.iter().all(|r| r.op == "stats"), "{v1:?}");

    telemetry::trace::recorder().clear();
    let server = saturable_server();
    let mut client =
        hdpm_server::client::Client::connect(server.local_addr(), Proto::V2).expect("connect");
    let slow = Request::Characterize {
        spec: ModuleSpec::new(ModuleKind::CsaMultiplier, 8),
    };
    client.send(&slow, None).expect("send");
    client.flush().expect("flush");
    // Let the worker take the slow frame, so the first burst below fills
    // the queue and the rest are refused whole.
    std::thread::sleep(Duration::from_millis(20));
    const BURSTS: usize = 4;
    const FRAMES: usize = 3;
    for _ in 0..BURSTS {
        for _ in 0..FRAMES {
            client.send(&Request::Stats, None).expect("send");
        }
        client.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(5));
    }
    let shed = (0..=BURSTS * FRAMES)
        .map(|_| client.recv().expect("reply").response)
        .filter(|r| matches!(r, Response::Error { kind, .. } if kind == "overloaded"))
        .count();
    server.shutdown();
    assert!(shed > 0, "a saturated queue must shed");
    let v2 = recorded("overloaded");
    assert!(!v2.is_empty(), "shed v2 bursts file traces");
    assert!(v2.iter().all(|r| r.op == "batch"), "{v2:?}");
    let frames: usize = v2
        .iter()
        .map(|r| {
            r.detail
                .strip_prefix("frames/")
                .and_then(|n| n.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("batch detail: {r:?}"))
        })
        .sum();
    assert_eq!(frames, shed, "the shed records cover every shed frame");
}

/// A v2 batch's record reports the kind of its first failed frame, not
/// `ok`.
#[test]
fn v2_batch_trace_reports_its_first_failed_frame() {
    let _state = fresh_state();
    let server = Server::start(admin_options(quick_engine())).expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut frames = wire::MAGIC.to_vec();
    wire::encode_frame(&mut frames, 1, wire::Opcode::Ping as u8, 0, b"");
    wire::encode_frame(&mut frames, 2, 99, 0, b"");
    stream.write_all(&frames).expect("send");
    for _ in 0..2 {
        let mut header = [0u8; wire::HEADER_LEN];
        stream.read_exact(&mut header).expect("reply header");
        let mut payload = vec![0u8; wire::decode_header(&header).len as usize];
        stream.read_exact(&mut payload).expect("reply payload");
    }
    server.shutdown();
    let failed = recorded("bad_request");
    assert_eq!(
        failed.len(),
        1,
        "{:?}",
        telemetry::trace::recorder().snapshot()
    );
    assert_eq!(failed[0].op, "batch");
}
