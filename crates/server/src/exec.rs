//! The request core: one executor behind both codecs and every
//! transport.
//!
//! The TCP server's one request pipeline (`crate::server`) and the
//! `hdpm serve` stdio loop decode v1 lines and v2 frames into the typed
//! [`Request`] and hand it to [`ExecCtx::execute`], which owns every
//! request-level policy: the deadline (one limit rule, one message), the
//! default fidelity floor, cluster routing after every field has
//! resolved, the ok/error/timeout totals and counters, and the
//! per-stage trace. Only the framing around it differs: the codecs turn
//! bytes into requests and responses back into bytes. The cluster peer
//! ops (v2-only) are requests like any other and are answered here too.
//!
//! Error precedence, the same on both protocols: `malformed` /
//! `invalid_utf8` (v1 framing) first, then `timeout`, then
//! `bad_request`, then `engine`.
//!
//! The TCP server runs requests in two places, whatever the protocol. A
//! reactor answers an estimate itself when [`ExecCtx::resident`] finds
//! every input already in memory; everything else goes through the queue
//! to a worker. Both call [`ExecCtx::execute`], so the policies above
//! hold on either path.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hdpm_core::persist::{self, EnvelopeMeta};
use hdpm_core::{Characterization, Estimate, Fidelity, LruCache, ModelError, PowerEngine};
use hdpm_datamodel::{region_model, HdDistribution, WordModel};
use hdpm_netlist::ModuleSpec;
use hdpm_streams::DataType;
use hdpm_telemetry as telemetry;
use hdpm_telemetry::{Stage, TraceCtx};

use crate::client::{CharacterizeAnswer, EstimateAnswer, Request, Response, StatsAnswer};
use crate::cluster::{self, ClusterRuntime};
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
    /// Cluster mode: the ring, peer health and this node's ensure gate.
    pub(crate) cluster: Option<&'a ClusterRuntime>,
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

/// An estimate's inputs, both already in memory: the resident model and
/// the memoized input distribution. Taken once, when the reactor decides
/// to answer inline, so an eviction before the answer cannot send the
/// reactor back to the engine.
pub(crate) struct Resident {
    model: Arc<Characterization>,
    dist: Arc<HdDistribution>,
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

    /// The inputs of `request` when it can be answered without blocking:
    /// an estimate whose model is resident in the engine's memory tier
    /// and whose input distribution is memoized. `None` for anything
    /// else, counting no miss: the request then goes to a worker, which
    /// looks both up again and counts there.
    pub(crate) fn resident(&mut self, request: &Request) -> Option<Resident> {
        let &Request::Estimate {
            spec,
            data,
            cycles,
            seed,
            ..
        } = request
        else {
            return None;
        };
        let key = dist_key(spec, data, cycles, seed);
        let dist = self.dists.peek(&key)?;
        let model = self.engine.resident(spec, self.trace)?;
        telemetry::counter_add("protocol.dist_cache.hit", 1);
        Some(Resident { model, dist })
    }

    /// Execute one decoded request. `request` is the codec's outcome:
    /// the typed request or the error its bytes earned; `resident` holds
    /// its inputs when [`ExecCtx::resident`] found them.
    pub(crate) fn execute(
        &mut self,
        request: Result<&Request, &RequestError>,
        deadline_ms: Option<u64>,
        resident: Option<Resident>,
    ) -> Executed {
        let (result, late) = match request {
            // A line that is not JSON has no deadline to honour.
            Err((kind @ (ErrorKind::Malformed | ErrorKind::InvalidUtf8), message)) => {
                self.count(false);
                (Err((*kind, message.clone())), false)
            }
            Err(e) => self.guarded(deadline_ms, |_| Err(e.clone())),
            Ok(request) => self.guarded(deadline_ms, |ctx| ctx.answer(request, resident)),
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
    /// result, flagged late. The v2 loop runs its reply-memo hits through
    /// here too.
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

    /// Run a resolved request against the engine, or against the
    /// inputs the reactor already took for it.
    fn answer(
        &mut self,
        request: &Request,
        resident: Option<Resident>,
    ) -> Result<Response, RequestError> {
        let engine_error = |e: ModelError| (ErrorKind::Engine, e.to_string());
        match request {
            &Request::Estimate {
                spec,
                data,
                cycles,
                seed,
                floor,
            } => {
                let estimate = match resident {
                    // A resident model answers at full fidelity whatever
                    // the floor, and needs no cluster ensure.
                    Some(Resident { model, dist }) => self
                        .trace
                        .time(Stage::Estimate, || Estimate::resident(&model, &dist)),
                    None => {
                        let floor = floor.unwrap_or(self.default_floor);
                        // Below-full floors answer from the local ladder at
                        // once; the upgrade hook routes cluster ownership
                        // afterwards.
                        if floor == Fidelity::Full {
                            self.ensure(spec);
                        }
                        // The input distribution is estimation math, so its
                        // time (≈20–380 µs on a memo miss, mostly stream
                        // synthesis) lands in the estimate stage.
                        let dists = self.dists;
                        let dist = self.trace.time(Stage::Estimate, || {
                            dists.get_or_build(dist_key(spec, data, cycles, seed))
                        });
                        self.engine.estimate_at(spec, &dist, floor, self.trace)
                    }
                }
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
                self.ensure(spec);
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
                if let Some(rt) = self.cluster {
                    rt.state.stats().record_warm_keys_sent(specs.len() as u64);
                }
                Ok(Response::WarmKeys(specs))
            }
        }
    }

    /// Cluster mode: make the model local through its owner before the
    /// engine would characterize it here.
    fn ensure(&self, spec: ModuleSpec) {
        if let (Some(rt), Some(root)) = (self.cluster, self.store_root) {
            cluster::ensure_model(rt, self.engine, root, spec);
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

    /// The memoized distribution, touched as most recently used; `None`
    /// while absent or still being built, so the caller never waits.
    /// Counts nothing, so a lookup that the caller abandons leaves the
    /// hit and miss counters to the one that follows.
    fn peek(&self, key: &DistKey) -> Option<Arc<HdDistribution>> {
        let memo = &mut *self.0.lock().expect("dist memo");
        memo.get(key)?.get().map(Arc::clone)
    }

    /// The memoized distribution, or a fresh one — the named operand
    /// streams generated, a region model fitted per operand, the two
    /// convolved — built with no lock held. Of the callers that miss one
    /// key at once, one builds and counts the miss; the rest wait for
    /// its result and count hits.
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
            build_distribution(key)
        });
        if built {
            telemetry::counter_add("protocol.dist_cache.miss", 1);
        } else {
            telemetry::counter_add("protocol.dist_cache.hit", 1);
        }
        Arc::clone(dist)
    }
}

/// The analytic input distribution of a memo key: the named operand
/// streams generated, a region model fitted per operand, the two
/// convolved.
fn build_distribution(key: DistKey) -> Arc<HdDistribution> {
    let (data, operands, m1, cycles, seed) = key;
    let streams = data.generate_operands(operands, m1, cycles as usize, seed);
    let dists: Vec<HdDistribution> = streams
        .iter()
        .map(|w| HdDistribution::from_regions(&region_model(&WordModel::from_words(w, m1))))
        .collect();
    Arc::new(HdDistribution::convolve_all(&dists))
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
        ctx.execute(request, deadline_ms, None).status().to_string()
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
        let timed_out = ctx.execute(Ok(&Request::Stats), None, None);
        assert_eq!(timed_out.status(), "timeout");
        assert!(!timed_out.late);
        let report = totals.report();
        assert_eq!((report.ok, report.errors, report.timeouts), (1, 0, 1));
    }

    /// Callers that miss one cold key together share one build: every
    /// one of them gets the very same `Arc`, and `peek` finds it after.
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
        assert!(Arc::ptr_eq(&dists.peek(&key).unwrap(), &built[0]));
    }
}
