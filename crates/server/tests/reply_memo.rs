//! The per-server reply memo, shared by both protocols: keyed on the
//! decoded estimate, it answers a v2 repeat at once (source `memo`) and a
//! v1 repeat only while the model is resident, when the engine itself
//! would say `memory`. So TCP v1 bytes and `stats` counters stay those of
//! the stdio loop ([`protocol::serve_lines`]) whatever the memo holds.
//!
//! The metrics registry is process-global, so the tests that read it
//! serialize on one lock and reset it first.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use hdpm_core::{CharacterizationConfig, EngineOptions, Fidelity, PowerEngine, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{Client, Proto, Request, Response};
use hdpm_server::wire::{self, EstimateParams};
use hdpm_server::{protocol, Server, ServerConfig};
use hdpm_telemetry as telemetry;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn fresh_state() -> MutexGuard<'static, ()> {
    let guard = GLOBAL_STATE.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::reset();
    guard
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn engine_options(capacity: usize) -> EngineOptions {
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
        capacity,
    }
}

/// One worker, so requests that reach the queue run in arrival order.
fn start(capacity: usize, tracing: bool) -> Server {
    Server::start(
        ServerConfig::builder()
            .workers(1)
            .no_deadline()
            .tracing(tracing)
            .engine(engine_options(capacity))
            .build()
            .unwrap(),
    )
    .expect("start")
}

fn estimate_line(width: usize, data: &str, extra: &str) -> String {
    format!(
        "{{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":{width},\"data\":\"{data}\",\"cycles\":128{extra}}}"
    )
}

const STATS: &str = "{\"op\":\"stats\"}";

/// The replies of the stdio loop to `lines`, on a fresh engine.
fn replay_stdio(lines: &[String], capacity: usize) -> Vec<String> {
    let engine = Arc::new(PowerEngine::new(engine_options(capacity)));
    let script = lines.join("\n") + "\n";
    let mut out = Vec::new();
    protocol::serve_lines(&engine, Fidelity::Full, script.as_bytes(), &mut out)
        .expect("serve_lines");
    String::from_utf8(out)
        .expect("utf-8 replies")
        .lines()
        .map(String::from)
        .collect()
}

/// Strip the `"trace":"t…"` field a tracing server appends to a reply.
fn strip_trace(line: &str) -> String {
    match line.find(",\"trace\":\"t") {
        Some(at) => {
            let rest = &line[at + ",\"trace\":\"".len()..];
            let close = rest.find('"').expect("unterminated trace field") + 1;
            format!("{}{}", &line[..at], &rest[close..])
        }
        None => line.to_string(),
    }
}

/// Send each line and read its reply before the next: closed loop.
fn replay_closed_loop(server: &Server, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    lines
        .iter()
        .map(|line| {
            stream.write_all(line.as_bytes()).expect("send");
            stream.write_all(b"\n").expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            reply.trim_end().to_string()
        })
        .collect()
}

/// On a one-model engine, alternating two specs evicts each in turn. The
/// memo holds both answers throughout, but a v1 repeat of an evicted
/// model must still say what the engine says (`fresh`, after a new
/// characterization), never `memory`; only a v2 repeat answers `memo`.
#[test]
fn v1_memo_hits_never_say_memory_for_an_evicted_model() {
    let _state = fresh_state();
    let a = estimate_line(4, "counter", "");
    let b = estimate_line(5, "counter", "");
    let lines: Vec<String> = [&a, &a, &b, &b, &a, STATS, &a, &b, &a, STATS]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let golden = replay_stdio(&lines, 1);
    let sources: Vec<&str> = golden
        .iter()
        .filter_map(|r| r.split("\"source\":\"").nth(1))
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    assert_eq!(
        sources,
        ["fresh", "memory", "fresh", "memory", "fresh", "memory", "fresh", "fresh"],
        "the transcript alternates resident and evicted models"
    );

    let server = start(1, false);
    assert_eq!(replay_closed_loop(&server, &lines), golden);
    // The three resident repeats, and no evicted one, were memo hits.
    assert_eq!(counter("server.memo.hit"), 3);

    // `a` is evicted now, but its answer is memoized: over v2 it answers
    // at once, labeled `memo`.
    let mut v2 = Client::connect(server.local_addr(), Proto::V2).expect("connect v2");
    let request = Request::Estimate {
        spec: ModuleSpec::new(ModuleKind::RippleAdder, 4usize),
        data: protocol::data_type("counter").unwrap(),
        cycles: 128,
        seed: 7,
        floor: None,
    };
    let decoded = protocol::decode(a.as_bytes()).unwrap().unwrap();
    assert_eq!(decoded.request.as_ref(), Ok(&request), "the same key");
    match v2.call(&request, None).expect("v2 estimate").response {
        Response::Estimate(e) => assert_eq!(e.source, "memo"),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(counter("server.memo.hit"), 4);
    server.shutdown();
}

/// Warm repeats between `stats` lines, closed loop: every reply and every
/// `hits` count matches the stdio loop byte for byte, with tracing off
/// and on (trace ids stripped). A below-full floor on a resident model
/// hits the memo too: the engine would answer it at full fidelity.
#[test]
fn closed_loop_warm_repeats_match_stdio_with_tracing_off_and_on() {
    let _state = fresh_state();
    let a = estimate_line(4, "counter", "");
    let c = estimate_line(4, "speech", "");
    let lines = vec![
        a.clone(),
        a.clone(),
        STATS.to_string(),
        a.clone(),
        c.clone(),
        a.clone(),
        STATS.to_string(),
        "{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":4}".to_string(),
        c.clone(),
        a.clone(),
        estimate_line(4, "counter", ",\"fidelity_floor\":\"analytic\""),
        STATS.to_string(),
    ];
    let golden = replay_stdio(&lines, 64);
    assert!(golden[11].contains("\"hits\":8"), "{}", golden[11]);
    for tracing in [false, true] {
        let server = start(64, tracing);
        let hits_before = counter("server.memo.hit");
        let replies = replay_closed_loop(&server, &lines);
        for reply in &replies {
            assert_eq!(reply.contains(",\"trace\":\"t"), tracing, "{reply}");
        }
        let stripped: Vec<String> = replies.iter().map(|r| strip_trace(r)).collect();
        assert_eq!(stripped, golden, "tracing {tracing}");
        assert_eq!(
            counter("server.memo.hit") - hits_before,
            6,
            "tracing {tracing}"
        );
        server.shutdown();
    }
}

/// A v1 memo hit past its own deadline earns `timeout`, as a v2 hit
/// does: the deadline check comes before the memoized bytes.
#[test]
fn a_v1_memo_hit_past_its_deadline_times_out() {
    let _state = fresh_state();
    let a = estimate_line(4, "counter", "");
    let doomed = estimate_line(4, "counter", ",\"deadline_ms\":0");
    let server = start(64, true);
    let replies = replay_closed_loop(&server, &[a.clone(), a, doomed]);
    assert!(
        replies[1].contains("\"source\":\"memory\""),
        "{}",
        replies[1]
    );
    assert!(
        replies[2].starts_with("{\"ok\":false,\"error\":{\"kind\":\"timeout\""),
        "{}",
        replies[2]
    );
    assert!(replies[2].contains("deadline exceeded"), "{}", replies[2]);
    // Answered through the memo, not the request core: a worker running
    // the core would have taken a distribution-memo hit.
    assert_eq!(
        counter("server.memo.hit"),
        1,
        "a timed-out hit is not served"
    );
    assert_eq!(counter("protocol.dist_cache.hit"), 0);
    assert_eq!(server.shutdown().timeouts, 1);
}

/// A legacy 18-byte estimate payload keys as its 19-byte form, and the
/// floor byte is not in the key: three encodings of one estimate share
/// one memo entry.
#[test]
fn legacy_and_current_v2_estimate_payloads_share_one_entry() {
    let _state = fresh_state();
    let server = start(64, false);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(&wire::MAGIC).expect("magic");
    let params = EstimateParams {
        spec: ModuleSpec::new(ModuleKind::RippleAdder, 4usize),
        data: protocol::data_type("counter").unwrap(),
        cycles: 128,
        seed: 7,
        floor: None,
    };
    let current = wire::encode_estimate_request(&params);
    let legacy = &current[..wire::LEGACY_ESTIMATE_REQ_LEN];
    let analytic = wire::encode_estimate_request(&EstimateParams {
        floor: Some(Fidelity::Analytic),
        ..params
    });
    let mut source_of = |id: u64, payload: &[u8]| -> String {
        let mut frame = Vec::new();
        wire::encode_frame(&mut frame, id, wire::Opcode::Estimate as u8, 0, payload);
        stream.write_all(&frame).expect("send");
        let mut header = [0u8; wire::HEADER_LEN];
        stream.read_exact(&mut header).expect("header");
        let header = wire::decode_header(&header);
        assert_eq!(header.id, id);
        let mut reply = vec![0u8; header.len as usize];
        stream.read_exact(&mut reply).expect("payload");
        match wire::decode_reply(wire::Opcode::Estimate, header.op, &reply) {
            Ok(Response::Estimate(e)) => e.source,
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert_eq!(source_of(1, legacy), "fresh");
    assert_eq!(source_of(2, &current), "memo");
    assert_eq!(source_of(3, legacy), "memo");
    assert_eq!(source_of(4, &analytic), "memo");
    assert_eq!(counter("server.memo.miss"), 1, "one entry built");
    assert_eq!(counter("server.memo.hit"), 3);
    server.shutdown();
}
