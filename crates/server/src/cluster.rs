//! Cluster-mode glue on the server side: peer calls through the typed
//! [`Client`], the one admission routine for peer bytes, the engine's
//! remote tier that routes a miss through the key's owner, and the
//! warm-key gossip loop.
//!
//! The design keeps every cluster interaction *advisory*: any peer
//! failure — connect refused, timeout, refused op, corrupt bytes —
//! degrades to the node's standalone behaviour (characterize locally),
//! never to an error surfaced to the requesting client. Corrupt bytes
//! are additionally quarantined so an operator can inspect what a peer
//! actually sent. The full failure-modes table is in `docs/cluster.md`.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdpm_cluster::{ClusterState, Peer};
use hdpm_core::persist::{self, EnvelopeMeta};
use hdpm_core::{Characterization, ModelError, ModelKey, PowerEngine};
use hdpm_netlist::ModuleSpec;
use hdpm_telemetry as telemetry;

use crate::client::{Client, ClientError, Proto, Request, Response};

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

/// Fetch `key`'s artifact from `peer` and admit it through
/// [`admit_or_quarantine`], the one gate for peer bytes. Returns `true`
/// when the artifact was admitted; a miss or a failed call is counted
/// here.
fn fetch_and_admit(state: &ClusterState, store_root: &Path, key: &ModelKey, peer: &Peer) -> bool {
    match fetch_model(peer.addr, key.spec, state.config().peer_timeout) {
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

// --- the remote tier ---------------------------------------------------

/// The engine's remote tier in cluster mode
/// ([`PowerEngine::with_remote_tier`]). The engine's single-flight leader
/// calls it for a key in neither memory nor disk, so it runs once per
/// key on this node, whichever request, floor or upgrade missed:
///
/// 1. this node owns the key → nothing to do: the leader characterizes,
///    and its single-flight is the fleet's;
/// 2. otherwise it probes the remote holders in ring order: a holder
///    that has the artifact streams its envelope bytes, which are
///    checksum-verified before admission; a holder that does not is
///    asked to characterize (the cluster-wide single-flight — every
///    non-owner converges on the owner, whose engine coalesces) and then
///    fetched from.
///
/// Every failure path returns with nothing admitted, and the leader
/// characterizes locally — slower, never wrong.
pub(crate) fn remote_tier(
    state: Arc<ClusterState>,
    store_root: PathBuf,
) -> impl Fn(&ModelKey) + Send + Sync + 'static {
    move |key| {
        let name = key.to_string();
        if !state.owns(&name) {
            ensure_from_peers(&state, &store_root, key, &name);
        }
    }
}

fn ensure_from_peers(state: &ClusterState, store_root: &Path, key: &ModelKey, name: &str) {
    let config = state.config();
    for peer in state.holder_peers(name) {
        match have_model(peer.addr, key.spec, config.peer_timeout) {
            Ok(true) => {
                if fetch_and_admit(state, store_root, key, peer) {
                    return;
                }
            }
            Ok(false) => {
                // The holder has not characterized yet: ask it to (the
                // cluster-wide single-flight), then fetch the artifact.
                state.stats().record_forward();
                match forward_characterize(peer.addr, key.spec, config.forward_timeout) {
                    Ok(()) => {
                        if fetch_and_admit(state, store_root, key, peer) {
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
    // Every holder failed us: the leader characterizes locally.
    // Correctness never depends on the fleet.
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
/// through the same gate as the remote tier, then pull it through the
/// engine so the LRU (not just the disk) is warm before `/readyz` flips.
/// Only from the advertising peer: gossip never forwards a
/// characterization.
fn prewarm_one(
    state: &ClusterState,
    engine: &PowerEngine,
    store_root: &Path,
    peer: &Peer,
    spec: ModuleSpec,
) {
    let key = engine.key_for(spec);
    if !store_root.join(key.artifact_file_name()).exists()
        && !fetch_and_admit(state, store_root, &key, peer)
    {
        return;
    }
    // Disk hit only: the artifact was just admitted (or already there),
    // so this load never characterizes or asks the remote tier.
    if engine.fetch(spec).is_ok() {
        state.warm().record_prewarmed(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
