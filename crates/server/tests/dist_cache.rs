//! The per-server input-distribution memo vs its telemetry, while real
//! v1 requests flow through the reactor pool, and its layering under the
//! per-server reply memo: a repeated estimate is answered from the reply
//! memo and never reaches the distribution memo, so these tests count
//! repeats there. The memo's own LRU order (one miss, a hit, exactly one
//! eviction past capacity, the evicted key missing again) is a unit test
//! of `exec::DistMemo`, which a repeat over TCP can no longer reach.
//!
//! The memo is shared by the server's reactors and workers, so a key is
//! built once per server however many workers and connections ask for
//! it. The metrics registry is process-global, so the tests serialize on
//! one lock and reset it first.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_server::{Server, ServerConfig};
use hdpm_telemetry as telemetry;

/// The memo bound of `exec::DistMemo`.
const CACHE_CAPACITY: usize = 128;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn fresh_state() -> std::sync::MutexGuard<'static, ()> {
    let guard = GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::reset();
    guard
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
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

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn estimate(cycles: usize) -> String {
    format!(
        "{{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\",\"cycles\":{cycles}}}"
    )
}

/// Distinct estimates reach the distribution memo, which evicts one
/// entry past its capacity, not the whole map; a repeat of any of them is
/// a reply-memo hit that leaves the distribution memo's counters alone.
#[test]
fn repeats_are_answered_by_the_reply_memo_before_the_dist_cache() {
    let _state = fresh_state();
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .no_deadline()
            .engine(quick_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let (stream, mut reader) = connect(&server);
    let mut exchange = |line: &str| -> String {
        let mut stream = &stream;
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(
            reply.contains("\"ok\":true"),
            "request {line} failed: {reply}"
        );
        reply
    };

    // Cold key: one miss in each memo.
    exchange(&estimate(64));
    assert_eq!(counter("protocol.dist_cache.miss"), 1);
    assert_eq!(counter("protocol.dist_cache.hit"), 0);
    assert_eq!(counter("server.memo.miss"), 1);
    // The identical request again: one reply-memo hit, and the
    // distribution memo is not asked.
    exchange(&estimate(64));
    assert_eq!(counter("server.memo.hit"), 1);
    assert_eq!(counter("protocol.dist_cache.miss"), 1);
    assert_eq!(counter("protocol.dist_cache.hit"), 0);
    assert_eq!(counter("protocol.dist_cache.evict"), 0);

    // Fill the distribution memo with distinct keys until one past
    // capacity: it holds the cycles=64 entry plus CACHE_CAPACITY fresh
    // ones, so exactly one eviction fires, not a wipe.
    for cycles in 200..200 + CACHE_CAPACITY {
        exchange(&estimate(cycles));
    }
    assert_eq!(
        counter("protocol.dist_cache.miss"),
        1 + CACHE_CAPACITY as u64
    );
    assert_eq!(
        counter("protocol.dist_cache.evict"),
        1,
        "one entry, not a wipe"
    );

    // A recent key and the evicted one both repeat through the reply
    // memo: neither reaches the distribution memo.
    for cycles in [200 + CACHE_CAPACITY - 1, 64] {
        let hits_before = counter("server.memo.hit");
        exchange(&estimate(cycles));
        assert_eq!(counter("server.memo.hit"), hits_before + 1);
        assert_eq!(
            counter("protocol.dist_cache.miss"),
            1 + CACHE_CAPACITY as u64
        );
        assert_eq!(counter("protocol.dist_cache.hit"), 0);
    }

    server.shutdown();
}

/// One memo per server, single-flight per key: with two workers and two
/// connections, K identical estimates on a cold key build the
/// distribution once. Per-worker memos would miss once on each worker
/// that took one, and a memo without single flight once on each worker
/// that missed the cold key at the same moment.
#[test]
fn identical_estimates_across_workers_and_connections_miss_once() {
    let _state = fresh_state();
    let server = Server::start(
        ServerConfig::builder()
            .workers(2)
            .no_deadline()
            .engine(quick_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut connections = [connect(&server), connect(&server)];
    let line = format!("{}\n", estimate(64));
    let read_reply = |reader: &mut BufReader<TcpStream>| {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    };
    // Every request arrives pipelined on both connections at once, the
    // first ones on a cold key: the two workers can miss it at the same
    // moment, and the memo still builds it once.
    const PER_CONNECTION: usize = 20;
    for (stream, _) in &mut connections {
        stream
            .write_all(line.repeat(PER_CONNECTION).as_bytes())
            .expect("send");
    }
    for (_, reader) in &mut connections {
        for _ in 0..PER_CONNECTION {
            read_reply(reader);
        }
    }
    // Every request but the one that built the distribution is a hit in
    // exactly one memo: the distribution memo's until the first answer is
    // memoized, the reply memo's after.
    let k = 2 * PER_CONNECTION as u64;
    assert_eq!(counter("protocol.dist_cache.miss"), 1);
    assert_eq!(
        counter("protocol.dist_cache.hit") + counter("server.memo.hit"),
        k - 1
    );
    server.shutdown();
}
