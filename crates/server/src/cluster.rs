//! Cluster-mode glue on the server side: peer calls through the typed
//! [`Client`], the one admission routine for peer bytes, the per-key
//! ensure gate that makes peer fetching single-flight on this node, and
//! the warm-key gossip loop.
//!
//! The design keeps every cluster interaction *advisory*: any peer
//! failure — connect refused, timeout, refused op, corrupt bytes —
//! degrades to the node's standalone behaviour (characterize locally),
//! never to an error surfaced to the requesting client. Corrupt bytes
//! are additionally quarantined so an operator can inspect what a peer
//! actually sent. The full failure-modes table is in `docs/cluster.md`.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hdpm_cluster::{ClusterConfig, ClusterState, Peer};
use hdpm_core::persist::{self, EnvelopeMeta};
use hdpm_core::{Characterization, ModelError, ModelKey, PowerEngine};
use hdpm_netlist::ModuleSpec;
use hdpm_telemetry as telemetry;

use crate::client::{Client, ClientError, Proto, Request, Response};

/// Everything the request path needs for cluster mode: the shared
/// [`ClusterState`] plus this node's ensure gate.
pub(crate) struct ClusterRuntime {
    /// The node's ring, counters, peer health and warm gate.
    pub(crate) state: Arc<ClusterState>,
    gate: EnsureGate,
}

impl ClusterRuntime {
    /// Validate `config` into a runtime.
    ///
    /// # Errors
    ///
    /// The [`ClusterState::new`] validation error, verbatim.
    pub(crate) fn new(config: ClusterConfig) -> Result<ClusterRuntime, String> {
        Ok(ClusterRuntime {
            state: Arc::new(ClusterState::new(config)?),
            gate: EnsureGate::default(),
        })
    }
}

/// Node-local single-flight for [`ensure_model`]: the first thread in
/// per key leads the peer interaction, every concurrent thread for the
/// same key blocks until the leader is done and then proceeds straight
/// to the engine (where the artifact now is, or the engine's own
/// single-flight coalesces the fallback characterization).
#[derive(Default)]
struct EnsureGate {
    inflight: Mutex<HashSet<String>>,
    done: Condvar,
}

impl EnsureGate {
    /// Returns `true` when the caller is the leader for `key` (and must
    /// call [`EnsureGate::release`]); `false` when it waited a leader
    /// out.
    fn lead(&self, key: &str) -> bool {
        let mut inflight = self.inflight.lock().expect("ensure gate lock");
        if inflight.insert(key.to_string()) {
            return true;
        }
        while inflight.contains(key) {
            inflight = self.done.wait(inflight).expect("ensure gate lock");
        }
        false
    }

    fn release(&self, key: &str) {
        let mut inflight = self.inflight.lock().expect("ensure gate lock");
        inflight.remove(key);
        drop(inflight);
        self.done.notify_all();
    }
}

// --- peer calls --------------------------------------------------------

/// One blocking v2 call to a peer through the typed [`Client`], on a
/// connection of its own: `timeout` bounds the connect and each
/// read/write syscall. Returns the peer's ok answer.
///
/// # Errors
///
/// The transport failure or the peer's error reply, naming the peer
/// address and the op, as the health table shows it.
fn ask(addr: SocketAddr, request: &Request, timeout: Duration) -> Result<Response, String> {
    let op = request.opcode().as_str();
    let stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .and_then(|()| Client::from_stream(stream, Proto::V2))
        .map_err(ClientError::Io)
        .and_then(|mut client| client.call(request, None))
        .map_err(|e| format!("{op} to {addr}: {e}"))?;
    match reply.response {
        Response::Error { kind, message } => {
            Err(format!("{op} refused by {addr} ({kind}): {message}"))
        }
        response => Ok(response),
    }
}

/// The error for an ok answer of the wrong kind (the client decodes
/// replies by the op it sent, so this marks a client-side bug).
fn unexpected(addr: SocketAddr, response: &Response) -> String {
    format!("{addr} answered with an unexpected {response:?}")
}

/// Probe whether a peer holds a model (memory or disk).
fn have_model(addr: SocketAddr, spec: ModuleSpec, timeout: Duration) -> Result<bool, String> {
    match ask(addr, &Request::HaveModel { spec }, timeout)? {
        Response::HaveModel(present) => Ok(present),
        other => Err(unexpected(addr, &other)),
    }
}

/// Fetch a model's raw envelope bytes from a peer. `Ok(None)` means the
/// peer answered but has no artifact on disk.
fn fetch_model(
    addr: SocketAddr,
    spec: ModuleSpec,
    timeout: Duration,
) -> Result<Option<Vec<u8>>, String> {
    match ask(addr, &Request::FetchModel { spec }, timeout)? {
        Response::Artifact(bytes) => Ok(bytes),
        other => Err(unexpected(addr, &other)),
    }
}

/// Ask a peer (the key's owner) to characterize a model into its own
/// store, so this node can fetch the artifact instead of duplicating
/// the work.
fn forward_characterize(
    addr: SocketAddr,
    spec: ModuleSpec,
    timeout: Duration,
) -> Result<(), String> {
    ask(addr, &Request::Characterize { spec }, timeout).map(drop)
}

/// One warm-key gossip exchange: advertise `ours`, learn the peer's
/// hottest specs.
fn exchange_warm_keys(
    addr: SocketAddr,
    ours: &[ModuleSpec],
    timeout: Duration,
) -> Result<Vec<ModuleSpec>, String> {
    let request = Request::WarmKeys {
        specs: ours.to_vec(),
    };
    match ask(addr, &request, timeout)? {
        Response::WarmKeys(specs) => Ok(specs),
        other => Err(unexpected(addr, &other)),
    }
}

// --- admit / quarantine ------------------------------------------------

/// Fetch `spec`'s artifact from `peer` and admit it through
/// [`admit_or_quarantine`], the one gate for peer bytes. Returns `true`
/// when the artifact was admitted; a miss or a failed call is counted
/// here.
fn fetch_and_admit(
    state: &ClusterState,
    store_root: &Path,
    key: &ModelKey,
    peer: &Peer,
    spec: ModuleSpec,
) -> bool {
    match fetch_model(peer.addr, spec, state.config().peer_timeout) {
        Ok(Some(bytes)) => admit_or_quarantine(state, store_root, key, peer, &bytes),
        Ok(None) => {
            state.stats().record_fetch_miss();
            false
        }
        Err(e) => {
            state.stats().record_fetch_error();
            state.health().record_error(&peer.id, e);
            false
        }
    }
}

/// Verify peer bytes and admit them into the local store, or quarantine
/// them. Returns `true` when the artifact was admitted. Only bytes that
/// fail verification are quarantined; a local write failure is a fetch
/// error, not the peer's fault.
fn admit_or_quarantine(
    state: &ClusterState,
    store_root: &Path,
    key: &ModelKey,
    peer: &Peer,
    bytes: &[u8],
) -> bool {
    let dest = store_root.join(key.artifact_file_name());
    match persist::admit_envelope_bytes::<Characterization>(
        bytes,
        &EnvelopeMeta::for_key(key),
        &dest,
    ) {
        Ok(()) => {
            state.stats().record_fetch_hit();
            state.health().record_ok(&peer.id);
            true
        }
        Err(ModelError::Artifact { kind, detail, .. }) => {
            // Never admit, never serve: park the bytes for inspection
            // and let the caller fall back to a local characterization.
            let parked = quarantine_bytes(store_root, key, bytes);
            state.stats().record_quarantine();
            state.stats().record_fetch_error();
            state.health().record_error(
                &peer.id,
                format!("sent unverifiable artifact ({kind}): {detail}"),
            );
            telemetry::event(
                telemetry::Level::Warn,
                "cluster.quarantine",
                &[
                    ("peer", peer.id.clone().into()),
                    ("key", key.to_string().into()),
                    ("fault", kind.to_string().into()),
                    (
                        "parked",
                        parked
                            .map_or_else(|| "unwritable".to_string(), |p| p.display().to_string())
                            .into(),
                    ),
                ],
            );
            false
        }
        Err(other) => {
            state.stats().record_fetch_error();
            state
                .health()
                .record_error(&peer.id, format!("admit failed: {other}"));
            false
        }
    }
}

/// Park unverifiable peer bytes as `<root>/quarantine/<artifact>.wire`,
/// never overwriting an earlier capture (the store's naming rule).
fn quarantine_bytes(store_root: &Path, key: &ModelKey, bytes: &[u8]) -> Option<PathBuf> {
    let name = format!("{}.wire", key.artifact_file_name());
    let path = hdpm_core::quarantine_path(store_root, &name).ok()?;
    std::fs::write(&path, bytes).ok()?;
    Some(path)
}

// --- ensure-model (the request-path hook) ------------------------------

/// Make sure `spec`'s model exists locally before the engine looks for
/// it, *without* characterizing here when another node owns the key:
///
/// 1. model already in memory or on disk → nothing to do;
/// 2. this node owns the key → fall through to the engine, whose
///    single-flight characterizes exactly once on this node;
/// 3. otherwise, the first thread in (per key) probes the remote
///    holders in ring order: a holder that has the artifact streams its
///    envelope bytes, which are checksum-verified before admission; a
///    holder that does not is asked to characterize (the cluster-wide
///    single-flight — every non-owner converges on the owner, whose
///    engine coalesces) and then fetched from.
///
/// Every failure path returns with nothing admitted, and the caller's
/// normal engine path characterizes locally — slower, never wrong.
pub(crate) fn ensure_model(
    rt: &ClusterRuntime,
    engine: &PowerEngine,
    store_root: &Path,
    spec: ModuleSpec,
) {
    if engine.has_model(spec) {
        return;
    }
    let key = engine.key_for(spec);
    let key_str = key.to_string();
    if rt.state.owns(&key_str) {
        return;
    }
    if !rt.gate.lead(&key_str) {
        // A leader just finished for this key; whatever it achieved
        // (artifact admitted, or nothing) the engine path takes over.
        return;
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if !engine.has_model(spec) {
            ensure_from_peers(rt, store_root, &key, spec);
        }
    }));
    rt.gate.release(&key_str);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

fn ensure_from_peers(rt: &ClusterRuntime, store_root: &Path, key: &ModelKey, spec: ModuleSpec) {
    let state = &rt.state;
    let config = state.config();
    for peer in state.holder_peers(&key.to_string()) {
        match have_model(peer.addr, spec, config.peer_timeout) {
            Ok(true) => {
                if fetch_and_admit(state, store_root, key, peer, spec) {
                    return;
                }
            }
            Ok(false) => {
                // The holder has not characterized yet: ask it to (the
                // cluster-wide single-flight), then fetch the artifact.
                state.stats().record_forward();
                match forward_characterize(peer.addr, spec, config.forward_timeout) {
                    Ok(()) => {
                        if fetch_and_admit(state, store_root, key, peer, spec) {
                            return;
                        }
                        state.stats().record_forward_fallback();
                    }
                    Err(e) => {
                        state.stats().record_forward_fallback();
                        state.health().record_error(&peer.id, e);
                    }
                }
            }
            Err(e) => {
                state.stats().record_fetch_error();
                state.health().record_error(&peer.id, e);
            }
        }
    }
    // Every holder failed us: the caller's engine path characterizes
    // locally. Correctness never depends on the fleet.
}

// --- warm-key gossip ---------------------------------------------------

/// How many of this node's hottest keys one gossip exchange advertises.
const GOSSIP_KEYS: usize = 32;

/// The gossip loop body, run on its own thread until `stop` returns
/// true: every `gossip_interval`, exchange warm keys with each peer and
/// pre-warm any learned model this node is missing — by fetching the
/// peer's artifact, never by characterizing (gossip must not burn CPU a
/// client did not ask for). The warm gate opens after the first round
/// that reached at least one peer (or immediately with no peers);
/// `/readyz` keeps answering `warming` until then or until the
/// configured warm timeout expires.
pub(crate) fn run_gossip(
    state: &ClusterState,
    engine: &PowerEngine,
    store_root: &Path,
    stop: &dyn Fn() -> bool,
) {
    let config = state.config();
    if config.peers.is_empty() {
        state.warm().mark_complete();
        return;
    }
    while !stop() {
        let ours: Vec<ModuleSpec> = engine
            .hottest_keys(GOSSIP_KEYS)
            .iter()
            .map(|key| key.spec)
            .collect();
        let mut reached_any = false;
        for peer in &config.peers {
            if stop() {
                return;
            }
            match exchange_warm_keys(peer.addr, &ours, config.peer_timeout) {
                Ok(learned) => {
                    reached_any = true;
                    state.health().record_ok(&peer.id);
                    state.stats().record_warm_keys_sent(ours.len() as u64);
                    let fresh: Vec<ModuleSpec> = learned
                        .into_iter()
                        .filter(|spec| !engine.has_model(*spec))
                        .collect();
                    state.stats().record_warm_keys_learned(fresh.len() as u64);
                    for spec in fresh {
                        if stop() {
                            return;
                        }
                        prewarm_one(state, engine, store_root, peer, spec);
                    }
                }
                Err(e) => state.health().record_error(&peer.id, e),
            }
        }
        state.stats().record_gossip_round();
        if reached_any {
            state.warm().mark_complete();
        }
        // Sleep in small slices so a drain is observed promptly.
        let wake = Instant::now() + config.gossip_interval;
        while Instant::now() < wake {
            if stop() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Pre-warm one learned key: fetch the peer's artifact and admit it
/// through the same gate as the request path, then pull it through the
/// engine so the LRU (not just the disk) is warm before `/readyz` flips.
fn prewarm_one(
    state: &ClusterState,
    engine: &PowerEngine,
    store_root: &Path,
    peer: &Peer,
    spec: ModuleSpec,
) {
    let key = engine.key_for(spec);
    if !store_root.join(key.artifact_file_name()).exists()
        && !fetch_and_admit(state, store_root, &key, peer, spec)
    {
        return;
    }
    // Disk hit only: the artifact was just admitted (or already there),
    // so this load never characterizes.
    if engine.fetch(spec).is_ok() {
        state.warm().record_prewarmed(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_gate_serializes_leaders_per_key() {
        let gate = Arc::new(EnsureGate::default());
        assert!(gate.lead("k1"), "first thread in leads");
        assert!(gate.lead("k2"), "distinct keys do not contend");
        let contender = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.lead("k1"))
        };
        // The contender blocks on k1 until the leader releases, then
        // reports it waited instead of leading.
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !contender.is_finished(),
            "contender parks behind the leader"
        );
        gate.release("k1");
        assert!(!contender.join().unwrap(), "waiter never becomes a leader");
        gate.release("k2");
        assert!(gate.lead("k1"), "a released key can be led again");
        gate.release("k1");
    }

    #[test]
    fn quarantine_never_overwrites_prior_captures() {
        let dir = tempdir();
        let key = ModelKey {
            spec: ModuleSpec::new(
                hdpm_netlist::ModuleKind::RippleAdder,
                hdpm_netlist::ModuleWidth::Uniform(4),
            ),
            config_hash: 0xDEAD_BEEF,
            shards: 8,
        };
        let first = quarantine_bytes(&dir, &key, b"bad-1").unwrap();
        let second = quarantine_bytes(&dir, &key, b"bad-2").unwrap();
        assert_ne!(first, second);
        assert_eq!(std::fs::read(&first).unwrap(), b"bad-1");
        assert_eq!(std::fs::read(&second).unwrap(), b"bad-2");
        assert!(first.starts_with(dir.join("quarantine")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_peer_calls_fail_fast_with_the_address_in_the_error() {
        // Port 1 on localhost refuses (or at worst times out) immediately.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let started = Instant::now();
        let err = ask(addr, &Request::Ping, Duration::from_millis(300)).unwrap_err();
        assert!(err.contains("127.0.0.1:1"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "bounded by the timeout"
        );
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hdpm-cluster-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
