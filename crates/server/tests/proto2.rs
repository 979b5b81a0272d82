//! Protocol v2 integration tests: framed round-trips, out-of-order
//! completion, in-band deadlines (timeout frames and late-but-labeled
//! replies), and wire-abuse handling — all against a live TCP server
//! through the typed [`Client`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hdpm_core::test_support::HeldStoreLock;
use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{Client, Proto, Request, Response};
use hdpm_server::{wire, Server, ServerConfig, ServerConfigBuilder};

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

fn slow_engine() -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(12_000)
            .build()
            .unwrap(),
        ..quick_engine()
    }
}

/// Wait until the engine has one characterization in flight: the slow
/// request has reached a worker. A poll, not a fixed sleep, because a
/// release build can finish the characterization inside a sleep that a
/// debug build outlasts.
fn await_inflight(server: &Server) {
    let patience = Instant::now() + Duration::from_secs(60);
    while server.engine().stats().inflight != 1 {
        assert!(
            Instant::now() < patience,
            "the slow request never reached a worker"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
}

fn quick_config() -> ServerConfigBuilder {
    ServerConfig::builder()
        .workers(4)
        .no_deadline()
        .engine(quick_engine())
}

fn estimate(width: usize) -> Request {
    Request::Estimate {
        spec: ModuleSpec::new(ModuleKind::RippleAdder, width),
        data: hdpm_server::protocol::data_type("counter").expect("known type"),
        cycles: 64,
        seed: 7,
        floor: None,
    }
}

#[test]
fn v2_round_trips_every_opcode() {
    // The reply memo is the server's, shared by every worker and
    // reactor, so the repeated estimate below hits it wherever it runs.
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");

    let reply = client.call(&Request::Ping, None).expect("ping");
    assert_eq!(reply.response, Response::Pong);
    assert!(!reply.late);

    let reply = client
        .call(
            &Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::RippleAdder, 6usize),
            },
            None,
        )
        .expect("characterize");
    match reply.response {
        Response::Characterize(c) => {
            assert_eq!(c.input_bits, 12);
            assert!(c.transitions > 0);
            assert_eq!(c.source, "fresh");
        }
        other => panic!("unexpected reply {other:?}"),
    }

    let reply = client.call(&estimate(6), None).expect("estimate");
    match reply.response {
        Response::Estimate(e) => {
            assert!(e.charge_per_cycle > 0.0);
            assert!(e.average_hd > 0.0);
            assert_eq!(e.source, "memory", "model cached by the characterize");
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // A repeated estimate short-circuits through the server's reply
    // memo, labeled as such.
    let reply = client.call(&estimate(6), None).expect("estimate");
    match reply.response {
        Response::Estimate(e) => assert_eq!(e.source, "memo"),
        other => panic!("unexpected reply {other:?}"),
    }

    let reply = client.call(&Request::Stats, None).expect("stats");
    match reply.response {
        Response::Stats(s) => {
            assert_eq!(s.characterizations, 1);
            assert!(s.entries >= 1);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    server.shutdown();
}

/// The cluster ops are typed requests of the one protocol: any node
/// with a disk store answers them through the same executor, cluster
/// mode or not, and a v1 connection cannot express them.
#[test]
fn v2_cluster_ops_answer_on_a_plain_node_with_a_store() {
    let root = hdpm_core::test_support::TempDir::new("proto2_cluster_ops");
    let engine = EngineOptions {
        disk_root: Some(root.path().to_path_buf()),
        ..quick_engine()
    };
    let server = Server::start(quick_config().engine(engine).build().unwrap()).expect("start");
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 5usize);
    let mut call = |request: Request| client.call(&request, None).expect("call").response;

    assert_eq!(call(Request::FetchModel { spec }), Response::Artifact(None));
    assert!(matches!(
        call(Request::Characterize { spec }),
        Response::Characterize(_)
    ));
    let Response::Artifact(Some(bytes)) = call(Request::FetchModel { spec }) else {
        panic!("a stored artifact is fetchable");
    };
    let key = server.engine().key_for(spec);
    assert_eq!(
        bytes,
        std::fs::read(root.join(&key.artifact_file_name())).unwrap(),
        "the envelope travels byte for byte"
    );
    assert_eq!(
        call(Request::WarmKeys { specs: vec![] }),
        Response::WarmKeys(vec![spec])
    );
    server.shutdown();

    // Without a disk store there is nothing to fetch from.
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    match client
        .call(&Request::FetchModel { spec }, None)
        .unwrap()
        .response
    {
        Response::Error { kind, message } => {
            assert_eq!(kind, "bad_request");
            assert!(message.contains("no disk store"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    let mut v1 = Client::connect(server.local_addr(), Proto::V1).expect("connect v1");
    assert!(matches!(
        v1.send(&Request::FetchModel { spec }, None),
        Err(hdpm_server::client::ClientError::Unsupported(_))
    ));
    server.shutdown();
}

/// A model is served before its artifact is durable. A peer's
/// `FetchModel` that arrives in that window waits for the save and gets
/// the envelope bytes, never "no artifact".
#[test]
fn v2_fetch_model_right_after_a_fresh_answer_gets_the_artifact() {
    let root = hdpm_core::test_support::TempDir::new("proto2_fetch_window");
    let engine = EngineOptions {
        disk_root: Some(root.path().to_path_buf()),
        ..quick_engine()
    };
    let server = Server::start(quick_config().engine(engine).build().unwrap()).expect("start");
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    for width in 4..=9usize {
        let spec = ModuleSpec::new(ModuleKind::RippleAdder, width);
        let reply = client
            .call(&Request::Characterize { spec }, None)
            .expect("characterize");
        assert!(matches!(reply.response, Response::Characterize(_)));
        let reply = client
            .call(&Request::FetchModel { spec }, None)
            .expect("fetch");
        let Response::Artifact(Some(bytes)) = reply.response else {
            panic!("{spec}: a served model must be fetchable: {reply:?}");
        };
        let key = server.engine().key_for(spec);
        assert_eq!(
            bytes,
            std::fs::read(root.join(&key.artifact_file_name())).unwrap()
        );
    }
    server.shutdown();
}

/// A one-connection v2 peer on a loopback socket: read the preamble and
/// one request frame, write `reply(request id)`'s bytes, close.
fn serve_once(reply: impl FnOnce(u64) -> Vec<u8> + Send + 'static) -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut magic = [0u8; wire::MAGIC.len()];
        stream.read_exact(&mut magic).expect("magic");
        assert_eq!(magic, wire::MAGIC);
        let mut raw = [0u8; wire::HEADER_LEN];
        stream.read_exact(&mut raw).expect("header");
        let header = wire::decode_header(&raw);
        let mut payload = vec![0u8; header.len as usize];
        stream.read_exact(&mut payload).expect("payload");
        let _ = stream.write_all(&reply(header.id));
    });
    addr
}

/// Call `request` on a one-shot peer that answers `response`.
fn call_peer_answering(request: &Request, response: Response) -> Response {
    let addr = serve_once(move |id| {
        let mut out = Vec::new();
        wire::encode_reply(&mut out, id, false, &response);
        out
    });
    let mut client = Client::connect(addr, Proto::V2).expect("connect");
    client.call(request, None).expect("call").response
}

#[test]
fn v2_replies_of_every_length_read_back_intact() {
    // The low byte of a frame's `len` can be any value, `{` (123)
    // included; no reply length may be mistaken for a JSON line.
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 5usize);
    for len in [1usize, 122, 123, 124, 379, 635, 123 + 4096] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(
            call_peer_answering(
                &Request::FetchModel { spec },
                Response::Artifact(Some(bytes.clone()))
            ),
            Response::Artifact(Some(bytes)),
            "artifact of {len} bytes"
        );
    }
    // 229 specs: a 1147-byte (0x47B) warm-keys reply.
    let specs: Vec<ModuleSpec> = (1..=229usize)
        .map(|w| ModuleSpec::new(ModuleKind::RippleAdder, w))
        .collect();
    assert_eq!(
        call_peer_answering(
            &Request::WarmKeys { specs: vec![] },
            Response::WarmKeys(specs.clone())
        ),
        Response::WarmKeys(specs)
    );
}

#[test]
fn v2_client_reads_a_connection_limit_rejection_line() {
    let server = Server::start(quick_config().max_connections(1).build().unwrap()).expect("start");
    let mut first = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    assert_eq!(
        first.call(&Request::Ping, None).unwrap().response,
        Response::Pong
    );
    let mut second = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    match second
        .call(&Request::Ping, None)
        .expect("rejection")
        .response
    {
        Response::Error { kind, message } => {
            assert_eq!(kind, "overloaded");
            assert!(message.contains("connection limit"), "{message}");
        }
        other => panic!("expected an overloaded rejection, got {other:?}"),
    }
    assert_eq!(
        first.call(&Request::Ping, None).unwrap().response,
        Response::Pong
    );
    server.shutdown();

    // A `{` line that never ends is cut off at MAX_PAYLOAD, not buffered
    // without bound.
    let addr = serve_once(|_| {
        let mut line = b"{\"ok\":false,\"error\":\"".to_vec();
        line.resize(wire::MAX_PAYLOAD as usize + 64, b'x');
        line
    });
    let mut client = Client::connect(addr, Proto::V2).expect("connect");
    match client.call(&Request::Ping, None) {
        Err(hdpm_server::client::ClientError::Protocol(message)) => {
            assert!(message.contains("unterminated"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn v2_and_v1_agree_on_the_numbers() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut v1 = Client::connect(server.local_addr(), Proto::V1).expect("connect v1");
    let mut v2 = Client::connect(server.local_addr(), Proto::V2).expect("connect v2");
    let request = estimate(5);
    let via_v1 = match v1.call(&request, None).expect("v1").response {
        Response::Estimate(e) => e,
        other => panic!("unexpected v1 reply {other:?}"),
    };
    let via_v2 = match v2.call(&request, None).expect("v2").response {
        Response::Estimate(e) => e,
        other => panic!("unexpected v2 reply {other:?}"),
    };
    assert_eq!(via_v1.charge_per_cycle, via_v2.charge_per_cycle);
    assert_eq!(via_v1.via_average, via_v2.via_average);
    assert_eq!(via_v1.average_hd, via_v2.average_hd);
    server.shutdown();
}

/// The tentpole behavior: a slow characterization ahead in the pipeline
/// does NOT hold back the cheap requests behind it. The two frame
/// batches are separated by a flush + delay so they cross the socket
/// independently, and the pings must come back before the
/// characterization does.
#[test]
fn v2_replies_complete_out_of_order_past_a_slow_request() {
    let server = Server::start(
        quick_config()
            .workers(2)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    let slow_id = client
        .send(
            &Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::CsaMultiplier, 8usize),
            },
            None,
        )
        .expect("send slow");
    client.flush().expect("flush");
    // The reactor batched the slow frame alone and handed it to a worker
    // before the pings arrive in a second batch.
    await_inflight(&server);
    let ping_ids: Vec<u64> = (0..3)
        .map(|_| client.send(&Request::Ping, None).expect("send ping"))
        .collect();
    client.flush().expect("flush");
    let mut order = Vec::new();
    for _ in 0..4 {
        let reply = client.recv().expect("reply");
        order.push(reply.id);
    }
    assert_eq!(
        &order[..3],
        &ping_ids[..],
        "pings overtake the slow characterization: {order:?}"
    );
    assert_eq!(order[3], slow_id, "slow reply still arrives: {order:?}");
    server.shutdown();
}

/// A reactor answers a reply-memo hit itself: pipelined behind a cold
/// characterization on a one-worker server, whose only worker is busy
/// with that characterization, the memoized estimate's reply still comes
/// first.
#[test]
fn v2_warm_estimate_is_answered_inline_past_a_cold_characterize() {
    let server = Server::start(
        quick_config()
            .workers(1)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    // Warm over v1: the reply memo is the server's, so the v1 estimate
    // memoizes the reply that the v2 frame for the same key then hits.
    let warm = estimate(4);
    let mut v1 = Client::connect(server.local_addr(), Proto::V1).expect("connect v1");
    v1.call(&warm, None).expect("warm-up");
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    let cold_id = client
        .send(
            &Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::CsaMultiplier, 8usize),
            },
            None,
        )
        .expect("send cold");
    let warm_id = client.send(&warm, None).expect("send warm");
    client.flush().expect("flush");
    let first = client.recv().expect("reply");
    assert_eq!(first.id, warm_id, "the warm estimate answers first");
    match first.response {
        Response::Estimate(e) => assert_eq!(e.source, "memo"),
        other => panic!("unexpected reply {other:?}"),
    }
    let second = client.recv().expect("reply");
    assert_eq!(second.id, cold_id);
    assert!(matches!(second.response, Response::Characterize(_)));
    server.shutdown();
}

#[test]
fn v2_deadline_expiring_in_queue_earns_a_timeout_frame() {
    let server = Server::start(
        quick_config()
            .workers(1)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    // Occupy the single worker, then queue a request with a 1 ms in-band
    // deadline: by the time a worker sees it, it is long expired.
    let slow_id = client
        .send(
            &Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::CsaMultiplier, 8usize),
            },
            None,
        )
        .expect("send slow");
    client.flush().expect("flush");
    await_inflight(&server);
    let doomed = client.send(&Request::Ping, Some(1)).expect("send doomed");
    client.flush().expect("flush");
    let mut timed_out = false;
    for _ in 0..2 {
        let reply = client.recv().expect("reply");
        if reply.id == doomed {
            match reply.response {
                Response::Error {
                    ref kind,
                    ref message,
                } => {
                    assert_eq!(kind, "timeout", "{reply:?}");
                    assert!(message.contains("deadline exceeded"), "{message}");
                    timed_out = true;
                }
                ref other => panic!("expected timeout, got {other:?}"),
            }
        } else {
            assert_eq!(reply.id, slow_id);
        }
    }
    assert!(timed_out, "the doomed request must earn a timeout frame");
    let report = server.shutdown();
    assert_eq!(report.timeouts, 1);
}

/// Regression for the documented deadline semantics: a deadline that
/// expires while a characterization is EXECUTING (not queued) yields the
/// full answer labeled late, not a timeout and not an unlabeled success.
#[test]
fn v2_deadline_expiring_mid_characterization_is_late_but_labeled() {
    let root = hdpm_core::test_support::TempDir::new("proto2_late");
    let engine = EngineOptions {
        disk_root: Some(root.path().to_path_buf()),
        ..quick_engine()
    };
    let server =
        Server::start(quick_config().workers(1).engine(engine).build().unwrap()).expect("start");
    let spec = ModuleSpec::new(ModuleKind::CsaMultiplier, 8usize);
    // The characterization waits on the held artifact lock. The 25 ms
    // deadline is alive when the worker starts (nothing is queued
    // ahead), and the lock outlives it, so it is dead when the work
    // finishes.
    let held = HeldStoreLock::hold(root.path(), &server.engine().key_for(spec));
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    client
        .send(&Request::Characterize { spec }, Some(25))
        .expect("send");
    client.flush().expect("flush");
    await_inflight(&server);
    std::thread::sleep(Duration::from_millis(50));
    held.release();
    let reply = client.recv().expect("characterize");
    assert!(
        reply.late,
        "mid-execution expiry must set FLAG_LATE: {reply:?}"
    );
    match reply.response {
        Response::Characterize(c) => {
            assert!(c.transitions > 0, "the full answer is still delivered");
            assert_eq!(c.source, "fresh");
        }
        other => panic!("expected a late characterize answer, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.timeouts, 0, "late-but-labeled is not a timeout");
    assert_eq!(report.ok, 1);
}

#[test]
fn v2_unknown_opcode_and_bad_payload_answer_structured_errors() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&wire::MAGIC).expect("magic");
    // Unknown opcode 99.
    let mut frame = Vec::new();
    wire::encode_frame(&mut frame, 7, 99, 0, b"");
    // Estimate with a truncated payload.
    wire::encode_frame(&mut frame, 8, wire::Opcode::Estimate as u8, 0, &[1, 2, 3]);
    // Opcode 6 is unassigned, whatever its payload.
    wire::encode_frame(&mut frame, 10, 6, 0, &[0, 5, 0, 0, 0]);
    stream.write_all(&frame).expect("send");
    fn read_reply(stream: &mut TcpStream, expect_id: u64) -> (u8, String) {
        let mut header = [0u8; wire::HEADER_LEN];
        stream.read_exact(&mut header).expect("header");
        let header = wire::decode_header(&header);
        assert_eq!(header.id, expect_id);
        let mut payload = vec![0u8; header.len as usize];
        stream.read_exact(&mut payload).expect("payload");
        (header.op, String::from_utf8_lossy(&payload).into_owned())
    }
    let (status, message) = read_reply(&mut stream, 7);
    assert_eq!(
        wire::kind_of(status).map(|k| k.as_str()),
        Some("bad_request")
    );
    assert!(message.contains("unknown opcode 99"), "{message}");
    let (status, message) = read_reply(&mut stream, 8);
    assert_eq!(
        wire::kind_of(status).map(|k| k.as_str()),
        Some("bad_request")
    );
    assert!(message.contains("estimate payload"), "{message}");
    let (status, message) = read_reply(&mut stream, 10);
    assert_eq!(
        wire::kind_of(status).map(|k| k.as_str()),
        Some("bad_request")
    );
    assert!(message.contains("unknown opcode 6"), "{message}");
    // The connection survives all three.
    let mut probe = Vec::new();
    wire::encode_frame(&mut probe, 9, wire::Opcode::Ping as u8, 0, b"");
    stream.write_all(&probe).expect("send");
    let (status, _) = read_reply(&mut stream, 9);
    assert_eq!(status, wire::STATUS_OK);
    server.shutdown();
}

/// A v2 preamble cut short by EOF is not a v1 line: the connection
/// closes with no reply.
#[test]
fn truncated_v2_preamble_closes_without_a_reply() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&wire::MAGIC[..3]).expect("partial magic");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut rest = Vec::new();
    let eof = stream.read_to_end(&mut rest);
    assert!(
        matches!(eof, Ok(0)),
        "no reply before the close: {eof:?} {:?}",
        String::from_utf8_lossy(&rest)
    );
    server.shutdown();
}

/// A preamble that leaves [`wire::MAGIC`] is refused at its first wrong
/// byte, and counted, without waiting for eight bytes.
#[test]
fn wrong_v2_preamble_prefix_is_refused_and_counted() {
    let bad_magic = || {
        hdpm_telemetry::snapshot()
            .counters
            .get("server.conn.bad_magic")
            .copied()
            .unwrap_or(0)
    };
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let before = bad_magic();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"\0XY").expect("wrong prefix");
    let mut rest = Vec::new();
    let eof = stream.read_to_end(&mut rest);
    assert!(
        matches!(eof, Ok(0)),
        "the connection is closed, unanswered: {eof:?} {rest:?}"
    );
    assert_eq!(bad_magic(), before + 1);
    server.shutdown();
}

#[test]
fn v2_oversized_frame_tears_the_connection_down_after_a_reply() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&wire::MAGIC).expect("magic");
    // A header announcing 2 MiB: protocol abuse, not a request.
    let mut header = Vec::new();
    header.extend_from_slice(&(2u32 << 20).to_le_bytes());
    header.extend_from_slice(&1u64.to_le_bytes());
    header.push(wire::Opcode::Ping as u8);
    header.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&header).expect("send");
    // One malformed error frame comes back, then EOF.
    let mut reply = [0u8; wire::HEADER_LEN];
    stream.read_exact(&mut reply).expect("error frame");
    let decoded = wire::decode_header(&reply);
    assert_eq!(decoded.id, 1);
    assert_eq!(
        wire::kind_of(decoded.op).map(|k| k.as_str()),
        Some("malformed")
    );
    let mut payload = vec![0u8; decoded.len as usize];
    stream.read_exact(&mut payload).expect("payload");
    let mut rest = Vec::new();
    let eof = stream.read_to_end(&mut rest);
    assert!(
        matches!(eof, Ok(0)),
        "connection must be closed after the abuse reply: {eof:?} {rest:?}"
    );
    // The server is unharmed.
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    assert_eq!(
        client.call(&Request::Ping, None).expect("ping").response,
        Response::Pong
    );
    server.shutdown();
}

#[test]
fn v2_pipelined_load_is_answered_completely() {
    let server = Server::start(quick_config().queue_depth(65_536).build().unwrap()).expect("start");
    let mut client = Client::connect(server.local_addr(), Proto::V2).expect("connect");
    // Warm the model once so the flood is pure serving.
    client.call(&estimate(8), None).expect("warm");
    const N: usize = 5000;
    let mut expected: Vec<u64> = Vec::with_capacity(N);
    for _ in 0..N {
        expected.push(client.send(&estimate(8), None).expect("send"));
    }
    client.flush().expect("flush");
    let mut got: Vec<u64> = Vec::with_capacity(N);
    for _ in 0..N {
        let reply = client.recv().expect("recv");
        match reply.response {
            Response::Estimate(_) => got.push(reply.id),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    got.sort_unstable();
    assert_eq!(got, expected, "every id answered exactly once");
    let report = server.shutdown();
    assert_eq!(report.errors, 0);
    assert_eq!(report.shed, 0);
}
