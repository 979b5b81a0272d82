//! Loopback integration tests of the TCP server: single-flight under
//! concurrency, queue-full shedding, deadlines, slow-client teardown,
//! idle reaping, ordering, connection limits and graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::{Server, ServerConfigBuilder};

/// A blocking line-oriented test client.
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

    fn send(&mut self, line: &str) {
        self.try_send(line).expect("send");
    }

    /// Like [`Client::send`] but surfaces the error — for tests where the
    /// server has already torn the connection down.
    fn try_send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Next reply line, or `None` at EOF / teardown.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("reply")
    }
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

/// Config tuned for fast tests; deadline off unless a test sets one.
fn quick_config() -> ServerConfigBuilder {
    hdpm_server::ServerConfig::builder()
        .workers(4)
        .no_deadline()
        .engine(quick_engine())
}

/// A request whose characterization is slow enough (hundreds of ms with
/// the 12k-pattern config below) to occupy a worker while a test floods.
const SLOW_CHARACTERIZE: &str =
    "{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":8}";
const STATS: &str = "{\"op\":\"stats\"}";

fn slow_engine() -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(12_000)
            .build()
            .unwrap(),
        ..quick_engine()
    }
}

#[test]
fn concurrent_clients_on_one_uncached_spec_characterize_once() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let request =
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":6,\"data\":\"counter\",\"cycles\":128}";
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&server);
                    client.round_trip(request)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for reply in &replies {
        assert!(reply.contains("\"ok\":true"), "reply: {reply}");
        assert!(reply.contains("charge_per_cycle"), "reply: {reply}");
    }
    let fresh = replies
        .iter()
        .filter(|r| r.contains("\"source\":\"fresh\""))
        .count();
    assert_eq!(fresh, 1, "exactly one request characterized: {replies:?}");
    let stats = Client::connect(&server).round_trip(STATS);
    assert!(
        stats.contains("\"characterizations\":1"),
        "engine ran one characterization: {stats}"
    );
    let report = server.shutdown();
    assert_eq!(report.ok, 9);
    assert_eq!(report.shed, 0);
}

#[test]
fn saturated_queue_sheds_with_structured_overloaded_replies() {
    let server = Server::start(
        quick_config()
            .workers(1)
            .queue_depth(1)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    // Flood while the single worker is busy: the queue admits one
    // request, everything else must shed — immediately, not by hanging.
    const FLOOD: usize = 50;
    for _ in 0..FLOOD {
        client.send(STATS);
    }
    let replies: Vec<String> = (0..=FLOOD).map(|_| client.recv().expect("reply")).collect();
    assert!(
        replies[0].contains("\"ok\":true") && replies[0].contains("\"op\":\"characterize\""),
        "slow request completes: {}",
        replies[0]
    );
    let shed = replies
        .iter()
        .filter(|r| r.contains("\"kind\":\"overloaded\""))
        .count();
    let ok = replies.iter().filter(|r| r.contains("\"ok\":true")).count();
    assert!(shed > 0, "a saturated queue must shed: {replies:?}");
    assert_eq!(ok + shed, FLOOD + 1, "every request answered: {replies:?}");
    // The connection survives shedding.
    let after = client.round_trip(STATS);
    assert!(after.contains("\"ok\":true"), "after: {after}");
    let report = server.shutdown();
    assert_eq!(report.shed as usize, shed);
}

#[test]
fn queued_requests_past_their_deadline_reply_timeout() {
    let server = Server::start(
        quick_config()
            .workers(1)
            .deadline(Duration::from_millis(5))
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    for _ in 0..3 {
        client.send(STATS);
    }
    let first = client.recv().expect("slow reply");
    assert!(first.contains("\"ok\":true"), "popped fresh, runs: {first}");
    let rest: Vec<String> = (0..3).map(|_| client.recv().expect("reply")).collect();
    for reply in &rest {
        assert!(
            reply.contains("\"kind\":\"timeout\"") && reply.contains("deadline exceeded"),
            "queued past deadline: {reply}"
        );
    }
    let report = server.shutdown();
    assert_eq!(report.timeouts, 3);
}

#[test]
fn per_request_deadline_field_tightens_the_server_deadline() {
    let server = Server::start(
        quick_config()
            .workers(1)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    client.send("{\"op\":\"stats\",\"deadline_ms\":1}");
    let first = client.recv().expect("slow reply");
    assert!(first.contains("\"ok\":true"), "{first}");
    let second = client.recv().expect("reply");
    assert!(
        second.contains("\"kind\":\"timeout\""),
        "request-level deadline honoured with no server deadline: {second}"
    );
    server.shutdown();
}

#[test]
fn slow_client_is_disconnected_by_write_timeout_and_server_survives() {
    let server = Server::start(
        quick_config()
            .queue_depth(100_000)
            .write_timeout(Duration::from_millis(200))
            .build()
            .unwrap(),
    )
    .expect("start");
    // Each reply echoes the unknown op, so a 4 KiB op makes ~4 KiB
    // replies. The client keeps writing and never reads: once the reply
    // path outgrows the socket buffers the server's write times out, it
    // tears the connection down, its reader exits, and our own writes
    // back up until they fail.
    let request = format!("{{\"op\":\"{}\"}}\n", "x".repeat(4096));
    let mut client = Client::connect(&server);
    client
        .stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    const CAP: usize = 50_000;
    let mut submitted = 0usize;
    for _ in 0..CAP {
        if client.stream.write_all(request.as_bytes()).is_err() {
            break; // server stopped reading after tearing us down
        }
        submitted += 1;
    }
    assert!(
        submitted < CAP,
        "writes must eventually fail once the server disconnects us"
    );
    client
        .stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = 0usize;
    while client.recv().is_some() {
        received += 1;
    }
    assert!(
        received < submitted,
        "teardown must drop replies ({received} of {submitted} delivered)"
    );
    // The server is still healthy for other clients.
    let ok = Client::connect(&server).round_trip(STATS);
    assert!(ok.contains("\"ok\":true"), "{ok}");
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let server = Server::start(
        quick_config()
            .idle_timeout(Duration::from_millis(100))
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    let reply = client.round_trip(STATS);
    assert!(reply.contains("\"ok\":true"));
    std::thread::sleep(Duration::from_millis(600));
    // The server shut the socket down; we observe EOF without sending.
    assert_eq!(client.recv(), None, "reaped connection is closed");
    server.shutdown();
}

#[test]
fn malformed_and_invalid_utf8_lines_do_not_kill_the_connection() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut client = Client::connect(&server);
    client.stream.write_all(b"not json\n").unwrap();
    client.stream.write_all(&[0xFF, 0xFE, 0x80, b'\n']).unwrap();
    client.send(STATS);
    let first = client.recv().expect("reply");
    assert!(first.contains("\"kind\":\"malformed\""), "{first}");
    let second = client.recv().expect("reply");
    assert!(second.contains("\"kind\":\"invalid_utf8\""), "{second}");
    let third = client.recv().expect("reply");
    assert!(third.contains("\"ok\":true"), "{third}");
    server.shutdown();
}

#[test]
fn replies_arrive_in_request_order_despite_the_worker_pool() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    // Warm the spec so estimates are fast but still slower than stats.
    server
        .engine()
        .warm(&[ModuleSpec::new(ModuleKind::RippleAdder, 4usize)], 0)
        .expect("warm");
    let estimate =
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\",\"cycles\":64}";
    let mut client = Client::connect(&server);
    const PAIRS: usize = 100;
    for _ in 0..PAIRS {
        client.send(estimate);
        client.send(STATS);
    }
    for i in 0..PAIRS {
        let first = client.recv().expect("reply");
        let second = client.recv().expect("reply");
        assert!(
            first.contains("\"op\":\"estimate\""),
            "pair {i}: expected estimate, got {first}"
        );
        assert!(
            second.contains("\"op\":\"stats\""),
            "pair {i}: expected stats, got {second}"
        );
    }
    server.shutdown();
}

/// A reactor answers a reply-memo hit itself, at once, but the v1
/// sequencer still holds its reply until the cold estimate ahead of it
/// on the connection has been answered by a worker.
#[test]
fn pipelined_cold_then_warm_estimates_reply_in_request_order() {
    let server = Server::start(quick_config().workers(1).build().unwrap()).expect("start");
    let warm =
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\",\"cycles\":64}";
    let cold =
        "{\"op\":\"estimate\",\"module\":\"csa_multiplier\",\"width\":8,\"data\":\"counter\",\"cycles\":64}";
    let mut client = Client::connect(&server);
    // Reply memoized and model resident: the next one is inline.
    let first = client.round_trip(warm);
    assert!(first.contains("\"ok\":true"), "{first}");
    client.send(cold);
    client.send(warm);
    let replies = [client.recv().expect("reply"), client.recv().expect("reply")];
    assert!(
        replies[0].contains("\"module\":\"csa_multiplier_8\""),
        "the cold estimate answers first: {replies:?}"
    );
    assert!(
        replies[1].contains("\"module\":\"ripple_adder_4\"")
            && replies[1].contains("\"source\":\"memory\""),
        "then the warm one: {replies:?}"
    );
    server.shutdown();
}

#[test]
fn connection_limit_rejects_with_overloaded() {
    let server = Server::start(quick_config().max_connections(1).build().unwrap()).expect("start");
    let mut first = Client::connect(&server);
    assert!(first.round_trip(STATS).contains("\"ok\":true"));
    let mut second = Client::connect(&server);
    let reply = second.recv().expect("rejection reply");
    assert!(
        reply.contains("\"kind\":\"overloaded\"") && reply.contains("connection limit"),
        "{reply}"
    );
    assert_eq!(second.recv(), None, "rejected connection is closed");
    // The admitted connection still works.
    assert!(first.round_trip(STATS).contains("\"ok\":true"));
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Server::start(
        quick_config()
            .workers(2)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    // Let the worker pick the job up, then drain while it runs.
    std::thread::sleep(Duration::from_millis(50));
    let report = server.shutdown();
    assert_eq!(report.ok, 1, "in-flight request completed during drain");
    let reply = client.recv().expect("reply flushed before drain finished");
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"op\":\"characterize\""),
        "{reply}"
    );
    assert_eq!(client.recv(), None, "connection closed after drain");
}

#[test]
fn server_cold_starts_and_serves_from_a_dirty_model_store() {
    let root = std::env::temp_dir().join(format!("hdpm_server_dirty_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir(&root).expect("scratch root");
    let engine_options = || EngineOptions {
        disk_root: Some(root.clone()),
        ..quick_engine()
    };
    // A torn artifact planted at the exact key the engine will ask for.
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 5usize);
    let key = hdpm_core::ModelKey::new(spec, &engine_options().config, 4);
    std::fs::write(root.join(key.artifact_file_name()), "{torn artifact").expect("plant");

    let server = Server::start(quick_config().engine(engine_options()).build().unwrap())
        .expect("cold start survives a dirty store");
    let request =
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":5,\"data\":\"counter\",\"cycles\":64}";
    let reply = Client::connect(&server).round_trip(request);
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"source\":\"fresh\""),
        "corrupt artifact is quarantined and re-characterized, not fatal: {reply}"
    );
    assert!(
        root.join(hdpm_core::QUARANTINE_DIR)
            .join(key.artifact_file_name())
            .exists(),
        "the torn artifact was moved aside"
    );
    server.shutdown();

    // A second server over the repaired root serves straight from disk.
    let server =
        Server::start(quick_config().engine(engine_options()).build().unwrap()).expect("restart");
    let reply = Client::connect(&server).round_trip(request);
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"source\":\"disk\""),
        "repaired store is a warm disk tier: {reply}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn draining_server_sheds_requests_that_arrive_too_late() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut client = Client::connect(&server);
    assert!(client.round_trip(STATS).contains("\"ok\":true"));
    server.shutdown();
    // After drain the socket is closed; the write may fail outright (EPIPE)
    // or the read observes EOF — never a hang, never a torn loop. A request
    // that squeaks in mid-drain earns a structured draining reply instead.
    if client.try_send(STATS).is_ok() {
        match client.recv() {
            None => {}
            Some(reply) => assert!(reply.contains("\"kind\":\"overloaded\""), "{reply}"),
        }
    }
}

#[test]
fn a_deeply_nested_line_is_malformed_and_the_server_lives() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut client = Client::connect(&server);
    // 10,000 `[` once overflowed the reactor thread's stack and aborted
    // the process; the reader's nesting limit answers it instead.
    let reply = client.round_trip(&"[".repeat(10_000));
    assert!(reply.contains("\"kind\":\"malformed\""), "{reply}");
    assert!(
        reply.contains("recursion limit exceeded at line 1 column 129"),
        "{reply}"
    );
    assert!(client.round_trip(STATS).contains("\"ok\":true"));
    server.shutdown();
}

#[test]
fn an_overlong_line_is_refused_and_its_connection_closed() {
    let cap = hdpm_server::wire::MAX_PAYLOAD as usize;
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    // A line at the cap is still a line (here a malformed one).
    let mut client = Client::connect(&server);
    let reply = client.round_trip(&"x".repeat(cap));
    assert!(reply.contains("\"kind\":\"malformed\""), "{reply}");
    assert!(client.round_trip(STATS).contains("\"ok\":true"));
    // One byte more, with or without its newline, and the connection is
    // answered in order and then closed, its bytes never buffered past
    // the cap.
    for newline in ["", "\n"] {
        let mut client = Client::connect(&server);
        client.send(STATS);
        let mut line = "y".repeat(cap + 1);
        line.push_str(newline);
        client.stream.write_all(line.as_bytes()).unwrap();
        let stats = client.recv().expect("the line before is answered");
        assert!(stats.contains("\"ok\":true"), "{stats}");
        let refusal = client.recv().expect("the overlong line is answered");
        assert!(refusal.contains("\"kind\":\"malformed\""), "{refusal}");
        assert!(
            refusal.contains("request line exceeds the 1048576 byte cap"),
            "{refusal}"
        );
        assert_eq!(client.recv(), None, "then the connection closes");
    }
    let mut client = Client::connect(&server);
    assert!(client.round_trip(STATS).contains("\"ok\":true"));
    server.shutdown();
}
