//! Cluster-mode integration tests against the real `hdpm server`
//! binary: a three-node fleet stormed from every side must characterize
//! a cold spec exactly once cluster-wide and end up with byte-identical
//! artifacts everywhere, a miss on a non-owner reaches the owner at any
//! fidelity floor and from the background upgrade alike, a hit costs
//! one peer call and a cold key three, and every cluster failure mode —
//! dead owner, peer serving corrupt bytes — must degrade to a bounded
//! local characterization, never to a client-visible error.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hdpm_cluster::Ring;
use hdpm_core::{CharacterizationConfig, EngineOptions, ModelKey, PowerEngine, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{CharacterizeAnswer, Response};
use hdpm_server::wire::{self, Opcode};

/// The engine flags every node in these tests runs with; the in-process
/// twin below must match so ring keys computed here agree with the
/// servers'.
const ENGINE_FLAGS: &[&str] = &["--patterns", "1500", "--shards", "4"];

/// An engine configured exactly as [`ENGINE_FLAGS`] starts one, for
/// computing the `ModelKey` strings the servers hash onto the ring.
fn twin_engine() -> PowerEngine {
    PowerEngine::new(EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(1500)
            .build()
            .expect("valid config"),
        sharding: Some(ShardingConfig {
            shards: 4,
            threads: 0,
        }),
        disk_root: None,
        capacity: 8,
    })
}

/// A width whose ring key is owned by `wanted` among `members` (no
/// replicas). Ring placement is deterministic, so scanning widths always
/// terminates quickly.
fn width_owned_by(members: &[&str], wanted: &str) -> usize {
    let ring = Ring::new(members.iter().map(|m| m.to_string()), 0);
    let engine = twin_engine();
    (4..200)
        .find(|w| {
            let key = engine.key_for(ModuleSpec::new(ModuleKind::RippleAdder, *w));
            ring.owner(&key.to_string()) == Some(wanted)
        })
        .expect("some width hashes to every member")
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdpm_cluster_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Reserve `n` distinct ports by binding and immediately releasing
/// ephemeral listeners. Cluster peers must be known at spawn time, so
/// the usual bind-port-0-and-scrape trick cannot work for the fleet.
fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").port())
        .collect()
}

struct Node {
    child: Child,
    addr: String,
    admin: String,
    stderr: BufReader<ChildStderr>,
}

/// Spawn one `hdpm server` fleet member and scrape both resolved
/// addresses off its banner line.
fn spawn_node(port: u16, models: &Path, node_id: &str, peers: &str, extra: &[&str]) -> Node {
    let addr_flag = format!("127.0.0.1:{port}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdpm"))
        .arg("server")
        .args(ENGINE_FLAGS)
        .args([
            "--addr",
            &addr_flag,
            "--admin-addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--reactors",
            "1",
            "--tracing",
            "off",
            "--models",
            models.to_str().expect("utf-8 path"),
            "--node-id",
            node_id,
            "--peers",
            peers,
        ])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .env_remove("HDPM_TELEMETRY")
        .env_remove("HDPM_LOG")
        .spawn()
        .expect("binary launches");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("banner line");
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in `{line}`"))
        .to_string();
    let admin = line
        .split("(admin ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("no admin address in `{line}`"))
        .to_string();
    Node {
        child,
        addr,
        admin,
        stderr,
    }
}

impl Node {
    /// Drain via the control stream and assert a clean exit.
    fn shutdown(mut self) {
        let mut stdin = self.child.stdin.take().expect("stdin piped");
        stdin.write_all(b"shutdown\n").expect("control");
        drop(stdin);
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exits cleanly");
        let mut rest = String::new();
        self.stderr
            .read_to_string(&mut rest)
            .expect("stderr drains");
        assert!(rest.contains("drained ("), "no drain report in: {rest}");
    }
}

/// Connect with patience for a backlog still settling.
fn connect(addr: &str) -> TcpStream {
    let mut last = None;
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("connect {addr}: {last:?}");
}

/// One v1 request/reply round trip on a fresh connection.
fn call(addr: &str, request: &str) -> String {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    let mut reply = String::new();
    BufReader::new(&mut stream)
        .read_line(&mut reply)
        .expect("reply");
    reply
}

/// One admin-plane GET; returns the whole response (status line,
/// headers, body).
fn http_get(admin: &str, path: &str) -> String {
    let mut stream = connect(admin);
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
}

/// Poll `/readyz` until it answers `200`, or panic after `deadline`.
fn await_ready(admin: &str, deadline: Duration) {
    let started = Instant::now();
    loop {
        let response = http_get(admin, "/readyz");
        if response.starts_with("HTTP/1.0 200") {
            return;
        }
        assert!(
            started.elapsed() < deadline,
            "{admin} never became ready: {response}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The `"characterizations"` counter out of a v1 stats reply.
fn characterizations(addr: &str) -> u64 {
    let reply = call(addr, "{\"op\":\"stats\"}");
    let tail = reply
        .split("\"characterizations\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no characterizations counter in {reply}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter digits")
}

/// A fleet of `node1`..`nodeN` on one host, each listing every other
/// member as a peer, each with its own model store under one temp root.
struct Fleet {
    root: PathBuf,
    ids: Vec<String>,
    models: Vec<PathBuf>,
    nodes: Vec<Node>,
}

fn spawn_fleet(label: &str, size: usize) -> Fleet {
    let root = temp_dir(label);
    let ports = reserve_ports(size);
    let ids: Vec<String> = (1..=size).map(|i| format!("node{i}")).collect();
    let models: Vec<PathBuf> = ids.iter().map(|id| root.join(id)).collect();
    let nodes = (0..size)
        .map(|i| {
            // The readiness store probe wants an existing root.
            std::fs::create_dir_all(&models[i]).expect("models dir");
            let peers = (0..size)
                .filter(|j| *j != i)
                .map(|j| format!("{}=127.0.0.1:{}", ids[j], ports[j]))
                .collect::<Vec<_>>()
                .join(",");
            spawn_node(
                ports[i],
                &models[i],
                &ids[i],
                &peers,
                &["--gossip-ms", "200"],
            )
        })
        .collect();
    Fleet {
        root,
        ids,
        models,
        nodes,
    }
}

impl Fleet {
    fn member_ids(&self) -> Vec<&str> {
        self.ids.iter().map(String::as_str).collect()
    }

    /// Each node's `characterizations` counter, in member order.
    fn characterizations(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| characterizations(&n.addr))
            .collect()
    }

    /// Each node's stored artifact of `key`, `None` where it is absent.
    fn artifacts(&self, key: &ModelKey) -> Vec<Option<Vec<u8>>> {
        self.models
            .iter()
            .map(|dir| std::fs::read(dir.join(key.artifact_file_name())).ok())
            .collect()
    }

    fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The ring key of a ripple adder of `width`, as every node computes it.
fn ripple_key(width: usize) -> ModelKey {
    twin_engine().key_for(ModuleSpec::new(ModuleKind::RippleAdder, width))
}

/// A v1 estimate of a ripple adder of `width` under `floor`.
fn estimate_at(width: usize, floor: &str) -> String {
    format!(
        "{{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":{width},\
         \"data\":\"counter\",\"cycles\":64,\"fidelity_floor\":\"{floor}\"}}"
    )
}

/// The tentpole end-to-end proof: a cold spec stormed by eight clients
/// on each of three nodes at once is characterized exactly once in the
/// whole fleet — each node's engine single-flight coalesces its own
/// storm, the non-owners forward to the owner instead of burning their
/// own CPU, and the artifact every node ends up serving is the owner's,
/// byte for byte.
#[test]
fn storm_on_three_nodes_characterizes_exactly_once_cluster_wide() {
    const CLIENTS_PER_NODE: usize = 8;
    let fleet = spawn_fleet("storm", 3);

    // The warm gate opens on the first gossip round that reaches a
    // peer; with the whole fleet up that is one gossip interval away.
    for node in &fleet.nodes {
        await_ready(&node.admin, Duration::from_secs(20));
    }

    // The storm: every client asks for the same cold spec at once.
    let request = "{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":10}";
    std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .nodes
            .iter()
            .flat_map(|node| {
                (0..CLIENTS_PER_NODE).map(|_| {
                    let addr = node.addr.clone();
                    scope.spawn(move || call(&addr, request))
                })
            })
            .collect();
        for handle in handles {
            let reply = handle.join().expect("client thread");
            assert!(reply.contains("\"ok\":true"), "storm reply failed: {reply}");
        }
    });

    // Exactly one fresh characterization across the fleet.
    let per_node = fleet.characterizations();
    assert_eq!(
        per_node.iter().sum::<u64>(),
        1,
        "the fleet characterized more than once: {per_node:?}"
    );

    // Every node holds the artifact, and all three copies are the
    // owner's bytes verbatim (checksummed envelopes, admitted only
    // after verification).
    let key = ripple_key(10);
    let copies: Vec<Vec<u8>> = fleet
        .artifacts(&key)
        .into_iter()
        .zip(&fleet.ids)
        .map(|(copy, id)| copy.unwrap_or_else(|| panic!("artifact missing on {id}")))
        .collect();
    assert!(!copies[0].is_empty());
    assert!(
        copies.iter().all(|c| *c == copies[0]),
        "fleet artifacts diverged"
    );
    for dir in &fleet.models {
        assert!(
            !dir.join("quarantine").exists(),
            "healthy fleet quarantined something"
        );
    }

    // The cluster view reflects the fleet.
    let clusterz = http_get(&fleet.nodes[0].admin, "/clusterz");
    for id in &fleet.ids {
        assert!(clusterz.contains(id.as_str()), "missing {id} in {clusterz}");
    }

    fleet.shutdown();
}

/// A `regressed`-floor estimate whose family has no characterized
/// sibling anywhere cannot be met instantly, so it takes the full miss
/// path — and on a non-owner that path goes through the owner, as a
/// `full`-floor request's does: the answer comes from the owner's
/// admitted artifact (`disk`), and only the owner characterizes.
#[test]
fn regressed_floor_miss_on_a_non_owner_is_characterized_by_the_owner() {
    let fleet = spawn_fleet("regressed", 3);
    let width = width_owned_by(&fleet.member_ids(), "node1");
    let reply = call(&fleet.nodes[1].addr, &estimate_at(width, "regressed"));
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"fidelity\":\"full\""), "{reply}");
    assert!(
        reply.contains("\"source\":\"disk\""),
        "the non-owner must take the owner's artifact: {reply}"
    );
    assert_eq!(fleet.characterizations(), [1, 0, 0]);
    fleet.shutdown();
}

/// A below-full answer on a non-owner is instant, and its background
/// upgrade reaches the owner: the owner characterizes once, the
/// non-owner admits the owner's bytes.
#[test]
fn analytic_floor_upgrade_on_a_non_owner_goes_through_the_owner() {
    let fleet = spawn_fleet("upgrade", 2);
    let width = width_owned_by(&fleet.member_ids(), "node1");
    let reply = call(&fleet.nodes[1].addr, &estimate_at(width, "analytic"));
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"source\":\"analytic\""), "{reply}");

    let key = ripple_key(width);
    let started = Instant::now();
    let copies = loop {
        let copies = fleet.artifacts(&key);
        if copies.iter().all(Option::is_some) {
            break copies;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the upgrade never reached every store"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(copies[0], copies[1], "fleet artifacts diverged");
    assert_eq!(fleet.characterizations(), [1, 0]);
    fleet.shutdown();
}

/// Owner down: a request for a key owned by an unreachable peer must be
/// answered by a deadline-bounded local characterization, and the warm
/// gate must hold `/readyz` at `warming` until the warm timeout expires
/// (no peer ever answers gossip).
#[test]
fn dead_owner_degrades_to_bounded_local_characterization() {
    let root = temp_dir("dead_owner");
    let ports = reserve_ports(1);
    // Port 1 refuses connections immediately on any sane host.
    let spawned_at = Instant::now();
    let node = spawn_node(
        ports[0],
        &root,
        "live",
        "dead=127.0.0.1:1",
        &[
            "--replicas",
            "0",
            "--warm-timeout-ms",
            "3000",
            "--gossip-ms",
            "100",
        ],
    );

    // No reachable peer: before the warm timeout the node reports
    // warming (checked only while safely inside the window, so a slow
    // CI host cannot turn this racy), after it expires it serves anyway.
    if spawned_at.elapsed() < Duration::from_millis(2_000) {
        let response = http_get(&node.admin, "/readyz");
        assert!(
            response.starts_with("HTTP/1.0 503") && response.contains("warming"),
            "expected warming before the timeout: {response}"
        );
    }
    await_ready(&node.admin, Duration::from_secs(20));

    // A spec the dead peer owns: the fetch fails fast and the node
    // characterizes locally — slower, never wrong, never an error.
    let width = width_owned_by(&["live", "dead"], "dead");
    let started = Instant::now();
    let reply = call(
        &node.addr,
        &format!("{{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":{width}}}"),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"source\":\"fresh\""), "{reply}");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "fallback was not deadline-bounded"
    );

    node.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Fields resolve before cluster routing: an estimate the node will
/// reject (unknown `data`, unknown `fidelity_floor`) for a key a peer
/// owns answers `bad_request` without fetching from or forwarding to
/// that peer.
#[test]
fn rejected_requests_do_no_cluster_work() {
    let root = temp_dir("rejected");
    let ports = reserve_ports(1);
    let node = spawn_node(
        ports[0],
        &root,
        "live",
        "dead=127.0.0.1:1",
        &["--replicas", "0"],
    );
    let width = width_owned_by(&["live", "dead"], "dead");
    for field in ["\"data\":\"bogus\"", "\"fidelity_floor\":\"fast\""] {
        let reply = call(
            &node.addr,
            &format!(
                "{{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":{width},{field}}}"
            ),
        );
        assert!(reply.contains("\"kind\":\"bad_request\""), "{reply}");
    }
    let clusterz = http_get(&node.admin, "/clusterz");
    for counter in [
        "fetch_hits",
        "fetch_misses",
        "fetch_errors",
        "forwards",
        "forward_fallbacks",
    ] {
        assert!(
            clusterz.contains(&format!("\"{counter}\":0")),
            "{counter} moved for a rejected request: {clusterz}"
        );
    }

    node.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A rogue fleet member serving corrupt bytes: the fetched payload
/// fails envelope verification, is quarantined (never admitted, never
/// served), and the client still gets a correct, locally characterized
/// answer.
#[test]
fn corrupt_peer_bytes_are_quarantined_and_recharacterized_locally() {
    let root = temp_dir("rogue");
    let ports = reserve_ports(1);
    // Serve garbage bytes for every fetch, answer gossip with an empty
    // warm list.
    let rogue_addr = spawn_fake_peer(|op| match op {
        Some(Opcode::FetchModel) => {
            Response::Artifact(Some(b"these bytes are not a model envelope".to_vec()))
        }
        _ => Response::WarmKeys(vec![]),
    });

    let node = spawn_node(
        ports[0],
        &root,
        "live",
        &format!("rogue={rogue_addr}"),
        &["--replicas", "0", "--gossip-ms", "200"],
    );
    // The rogue answers gossip, so the warm gate opens normally.
    await_ready(&node.admin, Duration::from_secs(20));

    let width = width_owned_by(&["live", "rogue"], "rogue");
    let reply = call(
        &node.addr,
        &format!("{{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":{width}}}"),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(
        reply.contains("\"source\":\"fresh\""),
        "corrupt bytes must never be served: {reply}"
    );

    // The garbage is parked for inspection, not admitted.
    let quarantine = root.join("quarantine");
    let captures = std::fs::read_dir(&quarantine)
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert!(
        captures >= 1,
        "nothing quarantined under {}",
        quarantine.display()
    );
    let clusterz = http_get(&node.admin, "/clusterz");
    assert!(
        !clusterz.contains("\"quarantined\":0"),
        "quarantine counter never moved: {clusterz}"
    );

    node.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A fake fleet member on an ephemeral port. One thread per
/// connection: the node opens a fresh connection per peer call, and the
/// gossip loop may overlap a request-path fetch. Each connection gets
/// one v2 request, answered with `answer(opcode)`.
fn spawn_fake_peer(
    answer: impl Fn(Option<Opcode>) -> Response + Send + Sync + 'static,
) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("fake peer binds");
    let addr = listener.local_addr().expect("addr");
    let answer = Arc::new(answer);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let answer = Arc::clone(&answer);
            std::thread::spawn(move || serve_fake(stream, &*answer));
        }
    });
    addr
}

fn serve_fake(mut stream: TcpStream, answer: &dyn Fn(Option<Opcode>) -> Response) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut magic = [0u8; wire::MAGIC.len()];
    if stream.read_exact(&mut magic).is_err() || magic != wire::MAGIC {
        return;
    }
    let mut raw = [0u8; wire::HEADER_LEN];
    if stream.read_exact(&mut raw).is_err() {
        return;
    }
    let header = wire::decode_header(&raw);
    let mut payload = vec![0u8; header.len as usize];
    if stream.read_exact(&mut payload).is_err() {
        return;
    }
    let mut reply = Vec::new();
    wire::encode_reply(
        &mut reply,
        header.id,
        false,
        &answer(Opcode::from_u8(header.op)),
    );
    let _ = stream.write_all(&reply);
}

/// What a node asked of a recording fake owner of `spec`, and what it
/// answered: the fake logs every op it receives (gossip aside) and
/// serves a valid envelope — from the start when `warm`, otherwise only
/// once it has been asked to characterize. Returns the node's
/// `characterize` reply, the logged ops and the node's own
/// characterization count.
fn ask_through_recording_peer(label: &str, warm: bool) -> (String, Vec<Option<Opcode>>, u64) {
    let root = temp_dir(label);
    let width = width_owned_by(&["live", "fake"], "fake");
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, width);
    // A disk-backed twin of the nodes' engine writes the envelope.
    let twin_root = root.join("twin");
    let twin = PowerEngine::new(EngineOptions {
        disk_root: Some(twin_root.clone()),
        ..twin_engine().options().clone()
    });
    twin.fetch(spec).expect("twin characterizes");
    twin.wait_saved(spec);
    let envelope =
        std::fs::read(twin_root.join(twin.key_for(spec).artifact_file_name())).expect("envelope");
    drop(twin);

    let ops = Arc::new(Mutex::new(Vec::new()));
    let holds = Arc::new(AtomicBool::new(warm));
    let fake_addr = spawn_fake_peer({
        let ops = Arc::clone(&ops);
        move |op| {
            if op != Some(Opcode::WarmKeys) {
                ops.lock().unwrap().push(op);
            }
            match op {
                Some(Opcode::FetchModel) => {
                    Response::Artifact(holds.load(Ordering::SeqCst).then(|| envelope.clone()))
                }
                Some(Opcode::Characterize) => {
                    holds.store(true, Ordering::SeqCst);
                    Response::Characterize(CharacterizeAnswer {
                        input_bits: 2 * width as u32,
                        transitions: 0,
                        converged_after: None,
                        source: "fresh".to_string(),
                    })
                }
                Some(Opcode::WarmKeys) => Response::WarmKeys(vec![]),
                _ => Response::Error {
                    kind: "bad_request".to_string(),
                    message: "the fake peer answers no other op".to_string(),
                },
            }
        }
    });

    let models = root.join("live");
    std::fs::create_dir_all(&models).expect("models dir");
    let node = spawn_node(
        reserve_ports(1)[0],
        &models,
        "live",
        &format!("fake={fake_addr}"),
        &["--replicas", "0", "--gossip-ms", "200"],
    );
    await_ready(&node.admin, Duration::from_secs(20));
    let reply = call(
        &node.addr,
        &format!("{{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":{width}}}"),
    );
    let characterized = characterizations(&node.addr);
    node.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let ops = ops.lock().unwrap().clone();
    (reply, ops, characterized)
}

/// A hit costs one peer call: the holder's first answer to
/// `fetch_model` is the envelope, and the node serves it from disk.
#[test]
fn a_cluster_hit_is_one_fetch() {
    let (reply, ops, characterized) = ask_through_recording_peer("hit", true);
    assert!(reply.contains("\"source\":\"disk\""), "{reply}");
    assert_eq!(ops, [Some(Opcode::FetchModel)]);
    assert_eq!(characterized, 0);
}

/// A cold key costs three: an empty fetch, the forwarded
/// `characterize`, and the fetch of the artifact it wrote. The node
/// characterizes nothing itself.
#[test]
fn a_cold_key_is_fetched_after_a_forwarded_characterization() {
    let (reply, ops, characterized) = ask_through_recording_peer("cold", false);
    assert!(reply.contains("\"source\":\"disk\""), "{reply}");
    assert_eq!(
        ops,
        [
            Some(Opcode::FetchModel),
            Some(Opcode::Characterize),
            Some(Opcode::FetchModel)
        ]
    );
    assert_eq!(characterized, 0);
}
