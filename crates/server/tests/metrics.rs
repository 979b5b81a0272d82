//! Queue-pressure metrics vs the wire: every structured `overloaded` or
//! `timeout` reply a client receives must be matched by exactly one
//! increment of the corresponding `server.queue.*` counter — the
//! dashboards and the clients must never disagree about how much load
//! was refused.
//!
//! The metrics registry is process-global, so the tests serialize on one
//! lock and reset it first.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hdpm_core::test_support::{HeldStoreLock, TempDir};
use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{self, Proto, Request, Response};
use hdpm_server::{Server, ServerConfig};
use hdpm_telemetry as telemetry;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn fresh_state() -> std::sync::MutexGuard<'static, ()> {
    let guard = GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::reset();
    guard
}

/// A characterization slow enough (12k patterns) to occupy the single
/// worker while the tests pile requests up behind it.
const SLOW_CHARACTERIZE: &str =
    "{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":8}";
const STATS: &str = "{\"op\":\"stats\"}";

fn slow_engine() -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(12_000)
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
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        line.trim_end().to_string()
    }
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn shed_counter_matches_overloaded_replies_on_the_wire() {
    let _state = fresh_state();
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .queue_depth(1)
            .no_deadline()
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    const FLOOD: usize = 40;
    for _ in 0..FLOOD {
        client.send(STATS);
    }
    let replies: Vec<String> = (0..=FLOOD).map(|_| client.recv()).collect();
    let overloaded = replies
        .iter()
        .filter(|r| r.contains("\"kind\":\"overloaded\""))
        .count() as u64;
    assert!(overloaded > 0, "a saturated queue must shed: {replies:?}");
    assert_eq!(
        counter("server.queue.shed_full"),
        overloaded,
        "one shed_full increment per overloaded reply"
    );
    assert_eq!(counter("server.queue.timeout"), 0);
    let report = server.shutdown();
    assert_eq!(report.shed, overloaded);
}

/// The same rule on v2, where a refused read burst answers every frame
/// in it: one `shed_full` increment per `overloaded` frame, not one per
/// batch.
#[test]
fn v2_shed_counter_matches_overloaded_frames_on_the_wire() {
    let _state = fresh_state();
    let root = TempDir::new("metrics_shed_v2");
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .queue_depth(1)
            .no_deadline()
            .engine(EngineOptions {
                disk_root: Some(root.path().to_path_buf()),
                ..slow_engine()
            })
            .build()
            .unwrap(),
    )
    .expect("start");
    let spec = ModuleSpec::new(ModuleKind::CsaMultiplier, 8);
    // The characterization waits on the held artifact lock, so the
    // worker stays busy until a batch below has met a full queue.
    let held = HeldStoreLock::hold(root.path(), &server.engine().key_for(spec));
    let mut client = client::Client::connect(server.local_addr(), Proto::V2).expect("connect");
    client
        .send(&Request::Characterize { spec }, None)
        .expect("send");
    client.flush().expect("flush");
    // Wait until the worker has taken the slow frame, so the first batch
    // below fills the queue and the rest are refused whole.
    let patience = Instant::now() + Duration::from_secs(30);
    while server.engine().stats().inflight != 1 {
        assert!(Instant::now() < patience, "the slow request never started");
        std::thread::sleep(Duration::from_micros(100));
    }
    const BATCHES: usize = 6;
    const FRAMES: usize = 3;
    for _ in 0..BATCHES {
        for _ in 0..FRAMES {
            client.send(&Request::Stats, None).expect("send");
        }
        client.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Release the worker once a whole batch has been refused.
    while counter("server.queue.shed_full") < FRAMES as u64 {
        assert!(Instant::now() < patience, "the batches were never shed");
        std::thread::sleep(Duration::from_millis(1));
    }
    held.release();
    let overloaded = (0..=BATCHES * FRAMES)
        .map(|_| client.recv().expect("reply").response)
        .filter(|r| matches!(r, Response::Error { kind, .. } if kind == "overloaded"))
        .count() as u64;
    assert!(
        overloaded >= FRAMES as u64,
        "a saturated queue must shed whole batches: {overloaded} overloaded frames"
    );
    assert_eq!(
        counter("server.queue.shed_full"),
        overloaded,
        "one shed_full increment per overloaded frame"
    );
    assert_eq!(counter("server.queue.timeout"), 0);
    let report = server.shutdown();
    assert_eq!(report.shed, overloaded);
}

#[test]
fn timeout_counter_matches_timeout_replies_on_the_wire() {
    let _state = fresh_state();
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .deadline(Duration::from_millis(5))
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    const QUEUED: usize = 4;
    for _ in 0..QUEUED {
        client.send(STATS);
    }
    let replies: Vec<String> = (0..=QUEUED).map(|_| client.recv()).collect();
    assert!(
        replies[0].contains("\"ok\":true"),
        "the in-flight request completes: {}",
        replies[0]
    );
    let timeouts = replies
        .iter()
        .filter(|r| r.contains("\"kind\":\"timeout\""))
        .count() as u64;
    assert_eq!(
        timeouts, QUEUED as u64,
        "everything queued behind the slow request expires: {replies:?}"
    );
    assert_eq!(
        counter("server.queue.timeout"),
        timeouts,
        "one timeout increment per timeout reply"
    );
    assert_eq!(counter("server.queue.shed_full"), 0);
    // Queue-wait time was recorded for every popped job, expired or not.
    let waits = telemetry::snapshot()
        .histograms
        .get("server.queue.wait_ns")
        .map_or(0, |h| h.count);
    assert_eq!(waits, 1 + QUEUED as u64);
    let report = server.shutdown();
    assert_eq!(report.timeouts, timeouts);
}

/// Requests answered on the reactor are counted per request by
/// `server.request.inline`, and only those record no queue wait. A
/// reactor answers only reply-memo hits, so the counter equals
/// `server.memo.hit` over the whole sequence. A capacity-1 engine evicts
/// a model between requests: that key's next estimate goes to the queue
/// and is answered correctly by a worker. So does a resident model whose
/// input distribution another spec memoized, but whose reply is not
/// memoized yet.
#[test]
fn inline_counter_counts_only_reply_memo_hits() {
    let _state = fresh_state();
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .no_deadline()
            .engine(EngineOptions {
                config: CharacterizationConfig::builder()
                    .max_patterns(1500)
                    .build()
                    .unwrap(),
                capacity: 1,
                ..slow_engine()
            })
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = client::Client::connect(server.local_addr(), Proto::V1).expect("connect");
    let estimate = |kind: ModuleKind, width: usize| Request::Estimate {
        spec: ModuleSpec::new(kind, width),
        data: hdpm_server::protocol::data_type("counter").expect("known type"),
        cycles: 64,
        seed: 7,
        floor: None,
    };
    let mut call = |request: &Request| client.call(request, None).expect("reply").response;
    let estimated = |response: Response| match response {
        Response::Estimate(e) => e,
        other => panic!("unexpected reply {other:?}"),
    };
    let waits = || {
        telemetry::snapshot()
            .histograms
            .get("server.queue.wait_ns")
            .map_or(0, |h| h.count)
    };

    let ripple = ModuleKind::RippleAdder;
    let cold = estimated(call(&estimate(ripple, 4)));
    assert_eq!(cold.source, "fresh");
    assert_eq!((counter("server.request.inline"), waits()), (0, 1));

    let warm = estimated(call(&estimate(ripple, 4)));
    assert_eq!(warm.source, "memory");
    assert_eq!(warm.charge_per_cycle, cold.charge_per_cycle);
    assert_eq!((counter("server.request.inline"), waits()), (1, 1));

    // Width 5 takes the only slot; width 4's distribution stays memoized
    // but its model is gone, so its estimate is not inline.
    estimated(call(&estimate(ripple, 5)));
    let evicted = estimated(call(&estimate(ripple, 4)));
    assert_eq!(evicted.source, "fresh", "re-characterized by a worker");
    assert_eq!(evicted.charge_per_cycle, cold.charge_per_cycle);
    assert_eq!((counter("server.request.inline"), waits()), (1, 3));
    assert_eq!(counter("protocol.dist_cache.miss"), 2);

    // A 4-bit carry-lookahead adder, resident through a characterize,
    // asked with the distribution the 4-bit ripple adder memoized: its
    // own reply is not memoized, so a worker answers it.
    let cla = ModuleSpec::new(ModuleKind::ClaAdder, 4usize);
    assert!(matches!(
        call(&Request::Characterize { spec: cla }),
        Response::Characterize(_)
    ));
    assert_eq!(waits(), 4);
    let cross = estimated(call(&estimate(ModuleKind::ClaAdder, 4)));
    assert_eq!(cross.source, "memory");
    assert_eq!((counter("server.request.inline"), waits()), (1, 5));
    assert_eq!(
        counter("protocol.dist_cache.miss"),
        2,
        "shared distribution"
    );
    assert_eq!(counter("server.request.inline"), counter("server.memo.hit"));
    server.shutdown();
}
