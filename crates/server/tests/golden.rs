//! Protocol conformance: the `docs/engine.md` transcript and the
//! `tests/fixtures/serve_*.jsonl` golden pair must replay byte-identically
//! through both transports — the in-memory stdio loop
//! ([`protocol::serve_lines`]) and a real TCP [`Server`] — because the two
//! share one codec. Any drift between docs, fixtures and either transport
//! fails here.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use hdpm_core::{CharacterizationConfig, EngineOptions, Fidelity, PowerEngine, ShardingConfig};
use hdpm_server::{protocol, Server, ServerConfig};

/// The engine the golden files were generated with:
/// `hdpm serve --patterns 1500 --shards 4` (capacity default 64).
fn golden_engine_options() -> EngineOptions {
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

fn repo_file(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `→ request` / `← reply` pairs of the docs/engine.md transcript.
fn doc_transcript() -> (Vec<String>, Vec<String>) {
    let doc = repo_file("docs/engine.md");
    let requests: Vec<String> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("→ "))
        .map(String::from)
        .collect();
    let replies: Vec<String> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("← "))
        .map(String::from)
        .collect();
    assert!(!requests.is_empty(), "docs/engine.md transcript not found");
    assert_eq!(requests.len(), replies.len(), "unpaired transcript line");
    (requests, replies)
}

/// Replay through the stdio loop with a fresh engine.
fn replay_stdio(requests: &[String]) -> Vec<String> {
    let engine = std::sync::Arc::new(PowerEngine::new(golden_engine_options()));
    let script = requests.join("\n") + "\n";
    let mut out = Vec::new();
    protocol::serve_lines(&engine, Fidelity::Full, script.as_bytes(), &mut out)
        .expect("serve_lines");
    String::from_utf8(out)
        .expect("utf-8 replies")
        .lines()
        .map(String::from)
        .collect()
}

/// Strip the nondeterministic `"trace":"t…"` field a tracing server
/// appends to every reply, leaving the deterministic payload.
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

/// Replay through a real TCP server with a fresh engine. One worker:
/// golden replies embed stateful cache counters, so execution must be
/// serialized in request order for the bytes to match.
fn replay_tcp(requests: &[String], tracing: bool) -> Vec<String> {
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .tracing(tracing)
            .engine(golden_engine_options())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    for request in requests {
        stream.write_all(request.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
    }
    let mut reader = BufReader::new(stream);
    let replies = (0..requests.len())
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            line.trim_end().to_string()
        })
        .collect();
    server.shutdown();
    replies
}

#[test]
fn doc_transcript_replays_identically_over_stdio() {
    let (requests, golden) = doc_transcript();
    assert_eq!(replay_stdio(&requests), golden, "docs/engine.md drifted");
}

#[test]
fn doc_transcript_replays_identically_over_tcp_without_tracing() {
    let (requests, golden) = doc_transcript();
    assert_eq!(
        replay_tcp(&requests, false),
        golden,
        "docs/engine.md drifted"
    );
}

#[test]
fn doc_transcript_replays_over_tcp_with_tracing_modulo_trace_ids() {
    let (requests, golden) = doc_transcript();
    let replies = replay_tcp(&requests, true);
    for reply in &replies {
        assert!(
            reply.contains(",\"trace\":\"t"),
            "tracing reply missing its trace id: {reply}"
        );
    }
    let stripped: Vec<String> = replies.iter().map(|r| strip_trace(r)).collect();
    assert_eq!(stripped, golden, "docs/engine.md drifted (tracing on)");
}

#[test]
fn fixture_pair_replays_identically_over_both_transports() {
    let requests: Vec<String> = repo_file("tests/fixtures/serve_requests.jsonl")
        .lines()
        .map(String::from)
        .collect();
    let golden: Vec<String> = repo_file("tests/fixtures/serve_replies.jsonl")
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(
        replay_stdio(&requests),
        golden,
        "tests/fixtures/serve_replies.jsonl drifted (stdio)"
    );
    assert_eq!(
        replay_tcp(&requests, false),
        golden,
        "tests/fixtures/serve_replies.jsonl drifted (tcp)"
    );
    let traced: Vec<String> = replay_tcp(&requests, true)
        .iter()
        .map(|r| strip_trace(r))
        .collect();
    assert_eq!(
        traced, golden,
        "tests/fixtures/serve_replies.jsonl drifted (tcp, tracing on)"
    );
}
