//! The request core: one executor behind both codecs and every
//! transport.
//!
//! The TCP server's one request pipeline (`crate::server`) and the
//! `hdpm serve` stdio loop decode v1 lines and v2 frames into the typed
//! [`Request`] and hand it to [`ExecCtx::execute`], which owns every
//! request-level policy: the deadline (one limit rule, one message), the
//! default fidelity floor, the ok/error/timeout totals and counters, and
//! the per-stage trace. Cluster routing is not among them: a miss
//! reaches the peers through the engine's single-flight leader (its
//! remote tier), after every field has resolved. Only the framing
//! around it differs: the codecs turn bytes into requests and responses
//! back into bytes. The cluster peer ops (v2-only) are requests like any
//! other and are answered here too.
//!
//! Error precedence, the same on both protocols: `malformed` /
//! `invalid_utf8` (v1 framing) first, then `timeout`, then
//! `bad_request`, then `engine`.
//!
//! On the TCP server a reactor answers only reply-memo hits, through
//! [`ExecCtx::guarded`], and every other request runs here on a worker.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hdpm_cluster::ClusterState;
use hdpm_core::persist::{self, EnvelopeMeta};
use hdpm_core::{Characterization, Fidelity, LruCache, ModelError, PowerEngine};
use hdpm_datamodel::{operand_distribution, HdDistribution};
use hdpm_netlist::ModuleSpec;
use hdpm_streams::DataType;
use hdpm_telemetry as telemetry;
use hdpm_telemetry::{Stage, TraceCtx};

use crate::client::{CharacterizeAnswer, EstimateAnswer, Request, Response, StatsAnswer};
use crate::protocol::{ErrorKind, RequestError};
use crate::server::Totals;
use crate::wire;

/// What one request runs against: the engine and the transport's
/// policy, plus the request's arrival time and trace.
pub(crate) struct ExecCtx<'a> {
    pub(crate) engine: &'a Arc<PowerEngine>,
    /// Floor for estimates that name none.
    pub(crate) default_floor: Fidelity,
    /// Server-wide deadline; a request's own deadline can only tighten
    /// it.
    pub(crate) deadline: Option<Duration>,
    /// When the request was read off the transport; deadlines count from
    /// here.
    pub(crate) arrived: Instant,
    /// The input-distribution memo of this server or stdio loop.
    pub(crate) dists: &'a DistMemo,
    /// The engine's disk tier root, which fetch-model reads from.
    pub(crate) store_root: Option<&'a Path>,
    /// Cluster mode: the ring, counters and peer health.
    pub(crate) cluster: Option<&'a ClusterState>,
    /// Server totals; `None` on stdio, which counts nothing.
    pub(crate) totals: Option<&'a Totals>,
    pub(crate) trace: &'a mut TraceCtx,
}

/// The outcome of one request.
pub(crate) struct Executed {
    /// The answer, or the structured error.
    pub(crate) response: Response,
    /// The deadline expired while the request ran: this is the full,
    /// late answer (v2 labels it [`crate::wire::FLAG_LATE`]).
    pub(crate) late: bool,
}

impl Executed {
    /// `ok`, or the error kind: the trace record's status.
    pub(crate) fn status(&self) -> &str {
        match &self.response {
            Response::Error { kind, .. } => kind,
            _ => "ok",
        }
    }
}

impl<'a> ExecCtx<'a> {
    /// The stdio transport's context: no deadline, no cluster, no
    /// counters.
    pub(crate) fn stdio(
        engine: &'a Arc<PowerEngine>,
        default_floor: Fidelity,
        dists: &'a DistMemo,
        trace: &'a mut TraceCtx,
    ) -> ExecCtx<'a> {
        ExecCtx {
            engine,
            default_floor,
            deadline: None,
            arrived: Instant::now(),
            dists,
            store_root: None,
            cluster: None,
            totals: None,
            trace,
        }
    }

    /// Execute one decoded request. `request` is the codec's outcome:
    /// the typed request or the error its bytes earned.
    pub(crate) fn execute(
        &mut self,
        request: Result<&Request, &RequestError>,
        deadline_ms: Option<u64>,
    ) -> Executed {
        let (result, late) = match request {
            // A line that is not JSON has no deadline to honour.
            Err((kind @ (ErrorKind::Malformed | ErrorKind::InvalidUtf8), message)) => {
                self.count(false);
                (Err((*kind, message.clone())), false)
            }
            Err(e) => self.guarded(deadline_ms, |_| Err(e.clone())),
            Ok(request) => self.guarded(deadline_ms, |ctx| ctx.answer(request)),
        };
        Executed {
            response: result.unwrap_or_else(|(kind, message)| Response::Error {
                kind: kind.as_str().to_string(),
                message,
            }),
            late,
        }
    }

    /// Run `body` under the request's deadline and count its outcome.
    /// A request already past its limit answers `timeout` without
    /// running; one whose limit expires while it runs returns its full
    /// result, flagged late. Reply-memo hits on both protocols run
    /// through here too.
    pub(crate) fn guarded<T>(
        &mut self,
        deadline_ms: Option<u64>,
        body: impl FnOnce(&mut Self) -> Result<T, RequestError>,
    ) -> (Result<T, RequestError>, bool) {
        let limit = match (self.deadline, deadline_ms.map(Duration::from_millis)) {
            (Some(server), Some(request)) => Some(server.min(request)),
            (server, request) => server.or(request),
        };
        if let Some(limit) = limit {
            let waited = self.arrived.elapsed();
            if waited > limit {
                if let Some(totals) = self.totals {
                    totals.timeouts.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter_add("server.queue.timeout", 1);
                }
                let message = format!(
                    "deadline exceeded: {} ms since arrival, limit {} ms",
                    waited.as_millis(),
                    limit.as_millis()
                );
                return (Err((ErrorKind::Timeout, message)), false);
            }
        }
        let result = body(self);
        self.count(result.is_ok());
        let late = limit.is_some_and(|limit| self.arrived.elapsed() > limit);
        (result, late)
    }

    fn count(&self, ok: bool) {
        let Some(totals) = self.totals else { return };
        if ok {
            totals.ok.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("server.request.ok", 1);
        } else {
            totals.errors.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("server.request.error", 1);
        }
    }

    /// Run a resolved request against the engine.
    fn answer(&mut self, request: &Request) -> Result<Response, RequestError> {
        let engine_error = |e: ModelError| (ErrorKind::Engine, e.to_string());
        match request {
            &Request::Estimate {
                spec,
                data,
                cycles,
                seed,
                floor,
            } => {
                let floor = floor.unwrap_or(self.default_floor);
                // The input distribution is estimation math, so its time
                // (≈20–380 µs on a memo miss, mostly stream synthesis)
                // lands in the estimate stage.
                let dists = self.dists;
                let dist = self.trace.time(Stage::Estimate, || {
                    dists.get_or_build(dist_key(spec, data, cycles, seed))
                });
                let estimate = self
                    .engine
                    .estimate_at(spec, &dist, floor, self.trace)
                    .map_err(engine_error)?;
                Ok(Response::Estimate(EstimateAnswer {
                    charge_per_cycle: estimate.charge_per_cycle,
                    via_average: estimate.via_average,
                    average_hd: estimate.average_hd,
                    source: estimate.source.as_str().to_string(),
                    fidelity: estimate.fidelity,
                    confidence: estimate.confidence,
                }))
            }
            &Request::Characterize { spec } => {
                let (characterization, source) = self
                    .engine
                    .fetch_traced(spec, self.trace)
                    .map_err(engine_error)?;
                Ok(Response::Characterize(CharacterizeAnswer {
                    input_bits: characterization.model.input_bits() as u32,
                    transitions: characterization.transitions as u64,
                    converged_after: characterization.converged_after.map(|p| p as u64),
                    source: source.as_str().to_string(),
                }))
            }
            Request::Stats => Ok(Response::Stats(StatsAnswer::from(self.engine.stats()))),
            Request::Ping => Ok(Response::Pong),
            &Request::FetchModel { spec } => self.fetch_model(spec).map(Response::Artifact),
            &Request::HaveModel { spec } => Ok(Response::HaveModel(self.engine.has_model(spec))),
            // The sender's side of the gossip does the learning; the
            // replier validated the list in decode and answers with its
            // own hottest keys.
            Request::WarmKeys { .. } => {
                let specs: Vec<ModuleSpec> = self
                    .engine
                    .hottest_keys(wire::WARM_KEYS_MAX)
                    .iter()
                    .map(|key| key.spec)
                    .collect();
                if let Some(state) = self.cluster {
                    state.stats().record_warm_keys_sent(specs.len() as u64);
                }
                Ok(Response::WarmKeys(specs))
            }
        }
    }

    /// A peer's fetch-model: the stored artifact's envelope bytes,
    /// verified here and streamed verbatim so the peer re-verifies the
    /// checksum independently; `None` when the artifact is not on disk.
    fn fetch_model(&self, spec: ModuleSpec) -> Result<Option<Vec<u8>>, RequestError> {
        let Some(root) = self.store_root else {
            return Err((
                ErrorKind::BadRequest,
                "this node has no disk store to fetch from".to_string(),
            ));
        };
        // A model this node serves may still be on its way to disk.
        self.engine.wait_saved(spec);
        let key = self.engine.key_for(spec);
        let path = root.join(key.artifact_file_name());
        match persist::read_envelope_bytes::<Characterization>(&path, &EnvelopeMeta::for_key(&key))
        {
            Ok(bytes) if bytes.len() > wire::MAX_PAYLOAD as usize => Err((
                ErrorKind::Engine,
                format!(
                    "artifact {} is {} bytes, over the {} byte frame cap",
                    path.display(),
                    bytes.len(),
                    wire::MAX_PAYLOAD
                ),
            )),
            Ok(bytes) => Ok(Some(bytes)),
            Err(ModelError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err((ErrorKind::Engine, e.to_string())),
        }
    }
}

/// The memo key of an input distribution: data type, operand count,
/// first-operand width, cycles and seed.
type DistKey = (DataType, usize, usize, u32, u64);

fn dist_key(spec: ModuleSpec, data: DataType, cycles: u32, seed: u64) -> DistKey {
    let (m1, _) = spec.width.operand_widths();
    (data, spec.kind.operand_count(), m1, cycles, seed)
}

/// The memo of the analytic §6.3 input distribution, one per server (or
/// stdio loop), shared by its reactors and workers. The distribution is
/// a pure function of its key costing ~20–380 µs to build on a 2-core
/// Xeon (two 2000-word operands), nearly all of it stream synthesis; the
/// region fit and convolution take ~2 µs. So a 128-entry LRU keeps it:
/// identical warm `estimate` requests (the common monitoring workload)
/// cost a lookup instead of a rebuild, and the 129th distinct key evicts
/// one cold entry instead of the warm set.
///
/// Builds are single-flight per key: the first caller to miss inserts an
/// empty slot under the memo lock and fills it outside the lock, and a
/// caller that finds the slot still empty waits on it instead of
/// building the same distribution a second time.
pub(crate) struct DistMemo(Mutex<LruCache<DistKey, Arc<DistSlot>>>);

/// One memo entry: empty while its first caller builds it.
type DistSlot = OnceLock<Arc<HdDistribution>>;

impl DistMemo {
    /// Entries kept before the least recently used one is evicted.
    const CAPACITY: usize = 128;

    pub(crate) fn new() -> DistMemo {
        DistMemo(Mutex::new(LruCache::new(Self::CAPACITY)))
    }

    /// The memoized distribution, or a fresh one from
    /// [`operand_distribution`], built with no lock held. Of the callers
    /// that miss one key at once, one builds and counts the miss; the
    /// rest wait for its result and count hits.
    fn get_or_build(&self, key: DistKey) -> Arc<HdDistribution> {
        let slot = {
            let memo = &mut *self.0.lock().expect("dist memo");
            match memo.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(DistSlot::new());
                    if memo.insert(key, Arc::clone(&slot)).is_some() {
                        telemetry::counter_add("protocol.dist_cache.evict", 1);
                    }
                    slot
                }
            }
        };
        let mut built = false;
        let dist = slot.get_or_init(|| {
            built = true;
            let (data, operands, m1, cycles, seed) = key;
            Arc::new(operand_distribution(
                data,
                operands,
                m1,
                cycles as usize,
                seed,
            ))
        });
        if built {
            telemetry::counter_add("protocol.dist_cache.miss", 1);
        } else {
            telemetry::counter_add("protocol.dist_cache.hit", 1);
        }
        Arc::clone(dist)
    }
}

/// A request's op name and `module/width` detail, for trace records and
/// the slow-request log.
pub(crate) fn describe(request: Option<&Request>) -> (String, String) {
    let Some(request) = request else {
        return (String::new(), String::new());
    };
    let detail = match request {
        Request::Estimate { spec, .. }
        | Request::Characterize { spec }
        | Request::FetchModel { spec }
        | Request::HaveModel { spec } => format!("{}/{}", spec.kind, spec.width),
        Request::Stats | Request::Ping | Request::WarmKeys { .. } => String::new(),
    };
    (request.opcode().as_str().to_string(), detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};

    fn quick_engine() -> Arc<PowerEngine> {
        Arc::new(PowerEngine::new(EngineOptions {
            config: CharacterizationConfig::builder()
                .max_patterns(1500)
                .build()
                .unwrap(),
            sharding: Some(ShardingConfig {
                shards: 4,
                threads: 1,
            }),
            disk_root: None,
            capacity: 8,
        }))
    }

    /// Run one decoded request through a server-shaped context whose
    /// request arrived `ago` before execution, under `deadline_ms`.
    fn run(
        engine: &Arc<PowerEngine>,
        request: Result<&Request, &RequestError>,
        deadline_ms: Option<u64>,
        ago: Duration,
    ) -> String {
        let totals = Totals::default();
        let dists = DistMemo::new();
        let mut trace = TraceCtx::disabled();
        let mut ctx = ExecCtx {
            engine,
            default_floor: Fidelity::Full,
            deadline: None,
            arrived: Instant::now() - ago,
            dists: &dists,
            store_root: None,
            cluster: None,
            totals: Some(&totals),
            trace: &mut trace,
        };
        ctx.execute(request, deadline_ms).status().to_string()
    }

    /// Error precedence is one rule in one place: framing, then
    /// timeout, then bad request, then engine — and a request decoded
    /// from v1 bytes meets the same rule as one decoded from v2 bytes.
    #[test]
    fn error_precedence_is_the_same_on_both_protocols() {
        let engine = quick_engine();
        let late = Duration::from_millis(50);
        let v1 = |line: &str| protocol::decode_line(line.as_bytes()).expect("not blank");
        let v2 = |op: u8, payload: &[u8]| wire::decode_request(op, payload);
        // A width-1 csa_multiplier is well formed but fails netlist
        // construction inside the engine.
        let failing = ModuleSpec::new(hdpm_netlist::ModuleKind::CsaMultiplier, 1);
        let mut failing_v2 = Vec::new();
        wire::encode_request(
            &mut failing_v2,
            1,
            &Request::Characterize { spec: failing },
            0,
        );
        let failing_v2 = failing_v2.split_off(wire::HEADER_LEN);

        // v1 framing errors come first, even past the deadline.
        for raw in [&b"not json"[..], &[0xFF, 0xFE][..]] {
            let decoded = protocol::decode_line(raw).expect("not blank");
            let status = run(&engine, decoded.request.as_ref(), Some(1), late);
            assert!(
                status == "malformed" || status == "invalid_utf8",
                "{status}"
            );
        }

        // Timeout beats bad_request and engine, on both protocols.
        let bad_v1 = v1("{\"op\":\"estimate\",\"module\":\"warp_core\",\"width\":4}");
        let bad_v2 = v2(wire::Opcode::Characterize as u8, &[0u8; 2]);
        let engine_v1 = v1("{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":1}");
        let engine_v2 = v2(wire::Opcode::Characterize as u8, &failing_v2);
        for request in [&bad_v1.request, &bad_v2, &engine_v1.request, &engine_v2] {
            assert_eq!(run(&engine, request.as_ref(), Some(1), late), "timeout");
        }

        // Within the deadline: bad_request, then engine.
        for request in [&bad_v1.request, &bad_v2] {
            assert_eq!(
                run(&engine, request.as_ref(), Some(60_000), late),
                "bad_request"
            );
        }
        assert_eq!(
            engine_v1.request,
            Ok(Request::Characterize { spec: failing })
        );
        for request in [&engine_v1.request, &engine_v2] {
            assert_eq!(run(&engine, request.as_ref(), None, late), "engine");
        }
    }

    #[test]
    fn timeouts_and_late_answers_are_counted_once() {
        let engine = quick_engine();
        let totals = Totals::default();
        let dists = DistMemo::new();
        let mut trace = TraceCtx::disabled();
        let mut ctx = ExecCtx {
            engine: &engine,
            default_floor: Fidelity::Full,
            deadline: Some(Duration::from_millis(5)),
            arrived: Instant::now(),
            dists: &dists,
            store_root: None,
            cluster: None,
            totals: Some(&totals),
            trace: &mut trace,
        };
        let done = ctx.guarded(None, |_| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(())
        });
        assert_eq!(done, (Ok(()), true), "finished past the limit: late");
        let timed_out = ctx.execute(Ok(&Request::Stats), None);
        assert_eq!(timed_out.status(), "timeout");
        assert!(!timed_out.late);
        let report = totals.report();
        assert_eq!((report.ok, report.errors, report.timeouts), (1, 0, 1));
    }

    /// The memo's LRU order: one miss, then a hit; capacity + 1 distinct
    /// keys evict exactly one entry, the least recently used, not the
    /// whole map, so a recent key still hits while the evicted one misses
    /// again. Counted on the memo's own tally, which agrees with its
    /// `protocol.dist_cache.*` counters for one caller at a time: the
    /// metrics registry is process-global, and this crate's other tests
    /// run estimates concurrently.
    #[test]
    fn a_full_memo_evicts_its_least_recently_used_entry() {
        let dists = DistMemo::new();
        let spec = ModuleSpec::new(hdpm_netlist::ModuleKind::RippleAdder, 4);
        let key = |cycles: usize| dist_key(spec, DataType::Counter, cycles as u32, 7);
        let counts = || {
            let memo = dists.0.lock().unwrap();
            (memo.misses(), memo.hits(), memo.evictions())
        };
        let capacity = DistMemo::CAPACITY as u64;

        // Cold key: one miss; the identical key again: one hit.
        dists.get_or_build(key(64));
        assert_eq!(counts(), (1, 0, 0));
        dists.get_or_build(key(64));
        assert_eq!(counts(), (1, 1, 0));

        // One past capacity: exactly one eviction, and its victim is the
        // least recently used key (cycles=64).
        for cycles in 200..200 + DistMemo::CAPACITY {
            dists.get_or_build(key(cycles));
        }
        assert_eq!(counts(), (1 + capacity, 1, 1), "one entry, not a wipe");

        // The warm working set survived the eviction: a recent key still
        // hits…
        dists.get_or_build(key(200 + DistMemo::CAPACITY - 1));
        assert_eq!(counts(), (1 + capacity, 2, 1));
        // …while the evicted LRU key misses and is re-fitted.
        dists.get_or_build(key(64));
        assert_eq!(counts().0, 2 + capacity);
    }

    /// Callers that miss one cold key together share one build: every
    /// one of them gets the very same `Arc`, and a later lookup finds it.
    #[test]
    fn concurrent_misses_on_one_key_share_one_build() {
        let dists = DistMemo::new();
        let spec = ModuleSpec::new(hdpm_netlist::ModuleKind::RippleAdder, 8);
        let key = dist_key(spec, DataType::Music, 2000, 7);
        let start = std::sync::Barrier::new(4);
        let built: Vec<Arc<HdDistribution>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        dists.get_or_build(key)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for dist in &built[1..] {
            assert!(Arc::ptr_eq(dist, &built[0]), "one build per key");
        }
        assert!(Arc::ptr_eq(&dists.get_or_build(key), &built[0]));
    }
}
