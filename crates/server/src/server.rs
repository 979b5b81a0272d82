//! The TCP service: reactor pool → bounded queue → worker pool, wrapped
//! around one shared [`PowerEngine`].
//!
//! Threading model (fixed thread count, independent of connection
//! count):
//!
//! * one **accept** thread admits connections (up to
//!   [`ServerConfig::max_connections`]; beyond that, an `overloaded`
//!   reply and an immediate close) and assigns them round-robin to the
//!   reactors;
//! * a **fixed reactor pool** ([`crate::reactor`]) multiplexes every
//!   connection over epoll: negotiation, framing, write-side drainage,
//!   idle reaping and write timeouts. An idle connection costs one
//!   registered fd, not a thread;
//! * a **fixed worker pool** drains the bounded queue with everything
//!   that can block (characterization, disk loads, single-flight waits,
//!   peer fetches, distribution synthesis, every non-estimate op), so
//!   concurrent misses on one model coalesce in the engine.
//!
//! # One request pipeline
//!
//! v1 lines and v2 frames differ only in codec. A reactor hands each v1
//! line, or each read burst of v2 frames, to [`Shared::dispatch`], which
//! per request (1) decodes through the codec (the `decode` stage), then
//! (2) answers a reply-memo hit on the reactor, skipping the queue hop
//! that is most of a warm request's latency, or (3) collects it into the
//! one [`Job`] it queues. [`Shared::run`] answers a job on a worker
//! through the request core ([`crate::exec`]); [`Shared::shed`] answers a
//! refused job `overloaded`. Replies are encoded by the codec (a v1 line
//! with the trace id; a v2 frame) and leave in the protocol's order: v1
//! in request order through the connection's sequencer ([`ConnOut`]), v2
//! at once, matched by id.
//!
//! The reply memo is keyed on the decoded estimate and holds each
//! full-fidelity answer encoded once for each protocol. A v2 hit answers
//! at once, labeled source `memo`. A v1 hit answers only while
//! [`PowerEngine::resident`] finds the model, which counts the engine hit
//! and touches its LRU: then the engine itself would say `memory`, so TCP
//! v1 bytes and `stats` counters still match `hdpm serve`. Both memos
//! (input distributions and estimate replies) are per server.
//!
//! Robustness: per-request deadlines counted from the socket read (one
//! rule for both protocols; v2 labels late completions
//! [`crate::wire::FLAG_LATE`]), idle reaping, write timeouts that cut
//! slow readers instead of blocking a worker, and tolerance of
//! malformed input. [`Server::shutdown`] drains gracefully: stop
//! accepting, stop reading, finish every queued request, flush, join
//! every pool, report totals.
//!
//! # Observability
//!
//! When [`ServerConfig::tracing`] is on (the default), the requests one
//! dispatch answers on the reactor share a [`TraceCtx`], and its queued
//! job carries another (the same one when nothing was answered inline).
//! So every v1 line has its own trace, echoed as `"trace":"t…"`, and a v2
//! read burst is a `batch` trace: ids are already in band, and per-frame
//! contexts would cost more than the requests they measure. A record's
//! status is `ok` or the kind of its first failed request; shed jobs file
//! `overloaded`, jobs whose connection died first file `dropped`.
//! Records land in the flight recorder (`/tracez`, dumped on drain) and
//! the `server.stage_ns{stage=…}` histograms; ones slower than
//! [`ServerConfig::slow_threshold`] emit a `{"type":"slow_request",…}`
//! line on stderr. The optional admin plane
//! ([`ServerConfig::admin_addr`], `crate::admin`) serves `/metrics`,
//! `/healthz`, `/readyz` and `/tracez`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdpm_cluster::ClusterState;
use hdpm_core::{resolve_threads, CacheSource, Fidelity, PowerEngine};
use hdpm_netlist::ModuleSpec;
use hdpm_streams::DataType;
use hdpm_telemetry as telemetry;
use hdpm_telemetry::{trace as trace_mod, Stage, TraceCtx};
use poller::Poller;
use serde::{Serialize, Value};

use crate::admin::AdminServer;
use crate::client::{EstimateAnswer, Proto, Request, Response};
use crate::cluster;
use crate::config::ServerConfig;
use crate::exec::{self, DistMemo, ExecCtx, Executed};
use crate::protocol::{self, ErrorKind, RequestError};
use crate::queue::{Bounded, PushError};
use crate::reactor::{self, ConnOut, Mail, ReactorHandle};
use crate::wire;

/// Totals accumulated over a server's lifetime, returned by
/// [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct DrainReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered ok (v1 `ok:true` lines and v2 ok frames).
    pub ok: u64,
    /// Requests answered with a structured error (malformed, bad
    /// request, engine failure).
    pub errors: u64,
    /// Requests shed with `overloaded` (queue full, draining, or the
    /// connection limit).
    pub shed: u64,
    /// Requests answered with `timeout` (v1: expired in the queue; v2:
    /// in-band deadline expired before execution).
    pub timeouts: u64,
}

/// Live counters behind [`DrainReport`]; the request core
/// ([`crate::exec`]) keeps ok/errors/timeouts, the transport the rest.
#[derive(Default)]
pub(crate) struct Totals {
    pub(crate) connections: AtomicU64,
    pub(crate) ok: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) timeouts: AtomicU64,
}

impl Totals {
    pub(crate) fn report(&self) -> DrainReport {
        DrainReport {
            connections: self.connections.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// One framed request as the reactor hands it over: a v1 line or a v2
/// frame, located in the bytes passed along with it.
pub(crate) struct FrameRef {
    /// The reply tag: the v2 request id, or the v1 line's place in the
    /// connection's reply sequence.
    pub(crate) id: u64,
    /// The v2 opcode byte (validated by decode); 0 on a v1 line, whose
    /// op rides in the line.
    pub(crate) op: u8,
    /// The v2 in-band deadline in ms (0 = none); 0 on a v1 line.
    pub(crate) deadline_ms: u32,
    /// The request's byte range within the dispatched data: a v2
    /// payload, or a whole v1 line.
    pub(crate) payload: (usize, usize),
}

impl FrameRef {
    /// The v2 in-band deadline, when the frame set one.
    fn deadline(&self) -> Option<u64> {
        (self.deadline_ms > 0).then_some(u64::from(self.deadline_ms))
    }
}

/// One decoded request, owed one reply.
struct Unit {
    /// [`FrameRef::id`]: where the reply goes.
    id: u64,
    /// The codec's outcome: the typed request, or the error its bytes
    /// earned.
    request: Result<Request, RequestError>,
    /// The request's own deadline in ms, which can only tighten the
    /// server's.
    deadline_ms: Option<u64>,
}

/// Queued work: the requests of one dispatch that the reply memo could
/// not answer (one v1 line, or the rest of one v2 read burst), with
/// the connection they answer on, their arrival time and their trace.
/// Batching a burst amortizes the queue handoff and the reply write
/// across every frame the socket delivered together.
pub(crate) struct Job {
    out: Arc<ConnOut>,
    proto: Proto,
    /// When the reactor read the requests; deadlines count from here.
    arrived: Instant,
    /// When the job entered the queue; the queue wait counts from here.
    queued: Instant,
    trace: TraceCtx,
    units: Vec<Unit>,
}

/// The encoded replies of one trace, and what its record needs.
#[derive(Default)]
struct Answers {
    bytes: Vec<u8>,
    /// The trace id v1 replies echo; `None` when tracing is off.
    trace_id: Option<u64>,
    /// The first answered request's tag (a v1 reply's sequence slot) and
    /// the request, when it decoded.
    seq: u64,
    first: Option<Request>,
    count: u64,
    /// Of those, the ones answered from the reply memo: counted once per
    /// dispatch, not once per frame of a v2 burst.
    memo_hits: u64,
    /// The error kind of the first request that failed.
    failed: Option<String>,
}

impl Answers {
    const REPLY_ROOM: usize = 320;

    fn new(trace: &TraceCtx) -> Answers {
        Answers {
            // Room for a traced v1 estimate reply, the longest common
            // one, so encoding it reallocates nothing.
            bytes: Vec::with_capacity(Answers::REPLY_ROOM),
            trace_id: trace.is_enabled().then(|| trace.id()),
            ..Answers::default()
        }
    }

    /// Count one answered request: its tag, the request when it decoded,
    /// and how it ended (`ok` or an error kind).
    fn note(&mut self, id: u64, request: Option<&Request>, status: &str) {
        if self.count == 0 {
            self.seq = id;
            self.first = request.cloned();
        }
        self.count += 1;
        if self.failed.is_none() && status != "ok" {
            self.failed = Some(status.to_string());
        }
    }
}

/// Everything needed to close out a trace once its replies are on the
/// wire (or abandoned): the completed context, what the work was, and
/// how it ended. Built when the replies are handed to the write side, so
/// the socket-write stage covers sequencer hold + the actual write.
pub(crate) struct TraceFinish {
    pub(crate) trace: TraceCtx,
    pub(crate) op: String,
    pub(crate) detail: String,
    pub(crate) status: String,
    pub(crate) slow_threshold: Duration,
    /// [`telemetry::clock::now_ns`] when the replies were handed to the
    /// write side.
    pub(crate) submitted_ns: u64,
}

/// Canonical metric keys of the `server.stage_ns{stage=…}` series,
/// pre-rendered (and verified against [`telemetry::metric_key`] by a
/// test) so the per-request stage flush allocates nothing.
const STAGE_KEYS: [&str; trace_mod::STAGE_COUNT] = [
    "server.stage_ns{stage=\"decode\"}",
    "server.stage_ns{stage=\"queue_wait\"}",
    "server.stage_ns{stage=\"cache_lookup\"}",
    "server.stage_ns{stage=\"single_flight_wait\"}",
    "server.stage_ns{stage=\"characterize\"}",
    "server.stage_ns{stage=\"estimate\"}",
    "server.stage_ns{stage=\"serialize\"}",
    "server.stage_ns{stage=\"socket_write\"}",
];

impl TraceFinish {
    /// Record the socket-write stage, file the trace with the flight
    /// recorder and the stage histograms, and emit the slow-request log
    /// line if the end-to-end time crossed the threshold.
    pub(crate) fn complete(mut self, wrote: bool) {
        if wrote {
            self.trace.add(
                Stage::SocketWrite,
                telemetry::clock::now_ns().saturating_sub(self.submitted_ns),
            );
        }
        let record = self.trace.finish(self.op, self.detail, self.status);
        // Flush every nonzero stage under one registry lock, with keys
        // resolved at compile time: the warm path allocates nothing here.
        let mut pairs = [("", 0u64); trace_mod::STAGE_COUNT];
        let mut nonzero = 0;
        for stage in trace_mod::STAGES {
            let ns = record.stages[stage as usize];
            if ns > 0 {
                pairs[nonzero] = (STAGE_KEYS[stage as usize], ns);
                nonzero += 1;
            }
        }
        telemetry::record_durations_ns(&pairs[..nonzero]);
        let slow =
            record.total_ns > u64::try_from(self.slow_threshold.as_nanos()).unwrap_or(u64::MAX);
        if slow {
            telemetry::counter_add("server.request.slow", 1);
            // One self-contained JSON line on stderr, greppable by trace
            // id, regardless of the telemetry output mode.
            let record_json = record.to_json();
            eprintln!("{{\"type\":\"slow_request\",{}", &record_json[1..]);
        }
        trace_mod::recorder().push(record);
    }
}

pub(crate) struct Shared {
    engine: Arc<PowerEngine>,
    /// Fidelity floor applied to estimate requests that don't name one
    /// ([`ServerConfig::fidelity_floor`]).
    default_floor: Fidelity,
    /// The input-distribution memo of this server.
    dists: DistMemo,
    /// The estimate-reply memo of this server, for both protocols.
    replies: ReplyMemo,
    queue: Bounded<Job>,
    draining: AtomicBool,
    /// Workers joined; reactors flush what remains and exit.
    finished: AtomicBool,
    /// Reactors that muted their read interests for the drain.
    drain_acks: AtomicUsize,
    connections: AtomicUsize,
    totals: Totals,
    deadline: Option<Duration>,
    idle_timeout: Duration,
    write_timeout: Duration,
    max_connections: usize,
    tracing: bool,
    slow_threshold: Duration,
    /// The engine's disk tier root, probed by `/readyz`.
    store_root: Option<PathBuf>,
    /// Cluster mode, when configured: the ring, peer health and
    /// counters. The engine's remote tier holds it too.
    cluster: Option<Arc<ClusterState>>,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    pub(crate) fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    pub(crate) fn ack_drain(&self) {
        self.drain_acks.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    pub(crate) fn write_timeout(&self) -> Duration {
        self.write_timeout
    }

    pub(crate) fn release_connection(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// A fresh trace context when tracing is on, an inert one otherwise.
    fn new_trace(&self) -> TraceCtx {
        if self.tracing {
            TraceCtx::new()
        } else {
            TraceCtx::disabled()
        }
    }

    /// The request core's context for requests that arrived at
    /// `arrived`, under this server's policy.
    fn exec_ctx<'a>(&'a self, arrived: Instant, trace: &'a mut TraceCtx) -> ExecCtx<'a> {
        ExecCtx {
            engine: &self.engine,
            default_floor: self.default_floor,
            deadline: self.deadline,
            arrived,
            dists: &self.dists,
            store_root: self.store_root.as_deref(),
            cluster: self.cluster.as_deref(),
            totals: Some(&self.totals),
            trace,
        }
    }

    /// Take framed requests off the reactor (one v1 line, or one read
    /// burst of v2 frames) and answer each here from the reply memo, or
    /// collect it into one queued job. The answers given here leave with
    /// one write and one trace.
    pub(crate) fn dispatch(
        &self,
        out: &Arc<ConnOut>,
        proto: Proto,
        data: &[u8],
        frames: &[FrameRef],
    ) {
        let arrived = Instant::now();
        let mut trace = self.new_trace();
        let mut answers = Answers::new(&trace);
        let mut queued = Vec::new();
        let mut ctx = self.exec_ctx(arrived, &mut trace);
        for frame in frames {
            let raw = &data[frame.payload.0..frame.payload.1];
            let Some(unit) = ctx.trace.time(Stage::Decode, || decode(proto, frame, raw)) else {
                // A blank v1 line is owed no reply: release its place in
                // the sequence.
                out.reply(proto, frame.id, Vec::new(), None);
                continue;
            };
            if !self.answer_memoized(&mut ctx, proto, &unit, &mut answers) {
                queued.push(unit);
            }
        }
        if !queued.is_empty() {
            // With nothing answered here, the job carries this dispatch's
            // trace and its decode stage.
            let trace = if answers.count == 0 {
                std::mem::take(&mut trace)
            } else {
                self.new_trace()
            };
            self.enqueue(out, proto, arrived, trace, queued);
        }
        if answers.count == 0 {
            return;
        }
        telemetry::counter_add("server.request.inline", answers.count);
        telemetry::counter_add("server.memo.hit", answers.memo_hits);
        telemetry::record_duration_ns("server.request_ns", arrived.elapsed().as_nanos() as u64);
        self.reply(out, proto, &trace, answers);
    }

    /// Answer `unit` from the reply memo: a v2 frame at once, a v1 line
    /// only while [`PowerEngine::resident`] finds the model. That lookup
    /// counts the engine hit and touches its LRU as the request core
    /// would, so the line's `memory` source and the `stats` counters stay
    /// what `hdpm serve` gives. Whether it answered.
    fn answer_memoized(
        &self,
        ctx: &mut ExecCtx<'_>,
        proto: Proto,
        unit: &Unit,
        answers: &mut Answers,
    ) -> bool {
        let Some(key) = unit.request.as_ref().ok().and_then(ReplyKey::of) else {
            return false;
        };
        // A v2 payload is copied out; a v1 body goes straight onto the
        // replies, and is taken back when it does not answer after all.
        let start = answers.bytes.len();
        let mut v2 = [0u8; wire::ESTIMATE_REPLY_LEN];
        let found = self.replies.with(&key, |memoized| match proto {
            Proto::V1 => answers.bytes.extend_from_slice(&memoized.v1),
            Proto::V2 => v2 = memoized.v2,
        });
        let hit = found.is_some()
            && (proto == Proto::V2 || ctx.engine.resident(key.0, ctx.trace).is_some());
        if !hit {
            answers.bytes.truncate(start);
            return false;
        }
        let (result, late) = ctx.guarded(unit.deadline_ms, |_| Ok(()));
        if let Err((kind, message)) = result {
            answers.bytes.truncate(start);
            let response = Response::Error {
                kind: kind.as_str().to_string(),
                message,
            };
            self.encode(proto, unit, &Executed { response, late }, answers);
            return true;
        }
        answers.note(unit.id, unit.request.as_ref().ok(), "ok");
        answers.memo_hits += 1;
        match proto {
            Proto::V1 => protocol::close_reply(&mut answers.bytes, answers.trace_id),
            Proto::V2 => {
                let flags = if late { wire::FLAG_LATE } else { 0 };
                wire::encode_frame(&mut answers.bytes, unit.id, wire::STATUS_OK, flags, &v2);
            }
        }
        true
    }

    /// Queue `units` as one job, or shed them all when the queue refuses
    /// it. The shed counters count requests (v2 frames, not batches), one
    /// per `overloaded` reply.
    fn enqueue(
        &self,
        out: &Arc<ConnOut>,
        proto: Proto,
        arrived: Instant,
        trace: TraceCtx,
        units: Vec<Unit>,
    ) {
        out.begin_job();
        let job = Job {
            out: Arc::clone(out),
            proto,
            arrived,
            queued: Instant::now(),
            trace,
            units,
        };
        let (job, message) = match self.queue.try_push(job) {
            Ok(depth) => {
                telemetry::gauge_set("server.queue.depth", depth as f64);
                return;
            }
            Err(PushError::Full(job)) => {
                telemetry::counter_add("server.queue.shed_full", job.units.len() as u64);
                let capacity = self.queue.capacity();
                let message = format!("queue full ({capacity} jobs queued): request shed");
                (job, message)
            }
            Err(PushError::Closed(job)) => {
                telemetry::counter_add("server.queue.shed_draining", job.units.len() as u64);
                (job, "server draining: request shed".to_string())
            }
        };
        self.shed(job, message);
    }

    /// Answer every request of a refused job with `overloaded`.
    fn shed(&self, job: Job, message: String) {
        self.totals
            .shed
            .fetch_add(job.units.len() as u64, Ordering::Relaxed);
        let overloaded = Executed {
            response: Response::Error {
                kind: ErrorKind::Overloaded.as_str().to_string(),
                message,
            },
            late: false,
        };
        let mut answers = Answers::new(&job.trace);
        for unit in &job.units {
            self.encode(job.proto, unit, &overloaded, &mut answers);
        }
        self.reply(&job.out, job.proto, &job.trace, answers);
        job.out.finish_job();
    }

    /// Run one queued job on a worker: every request in arrival order,
    /// the replies written with one send. A job whose connection died
    /// runs nothing and files a `dropped` trace. `server.request_ns`
    /// measures processing time: from the socket read to the reply, less
    /// the queue wait.
    fn run(&self, mut job: Job) {
        let waited = job.queued.elapsed();
        let waited_ns = waited.as_nanos() as u64;
        telemetry::record_duration_ns("server.queue.wait_ns", waited_ns);
        job.trace.add(Stage::QueueWait, waited_ns);
        let mut answers = Answers::new(&job.trace);
        if job.out.is_alive() {
            let mut ctx = self.exec_ctx(job.arrived, &mut job.trace);
            for unit in &job.units {
                let done = ctx.execute(unit.request.as_ref(), unit.deadline_ms);
                ctx.trace.time(Stage::Serialize, || {
                    self.encode(job.proto, unit, &done, &mut answers);
                });
            }
            let processing = job.arrived.elapsed().saturating_sub(waited);
            telemetry::record_duration_ns("server.request_ns", processing.as_nanos() as u64);
        } else {
            for unit in &job.units {
                answers.note(unit.id, unit.request.as_ref().ok(), "dropped");
            }
        }
        self.reply(&job.out, job.proto, &job.trace, answers);
        job.out.finish_job();
    }

    /// Hand `answers` to the connection in the protocol's reply order,
    /// with the bookkeeping that files `trace` once they are written
    /// (none when tracing is off).
    fn reply(&self, out: &ConnOut, proto: Proto, trace: &TraceCtx, answers: Answers) {
        let finish = trace.is_enabled().then(|| {
            // A v1 line is one request; a v2 read burst is a batch.
            let (op, detail) = match proto {
                Proto::V1 => exec::describe(answers.first.as_ref()),
                Proto::V2 => ("batch".to_string(), format!("frames/{}", answers.count)),
            };
            Box::new(TraceFinish {
                trace: trace.clone(),
                op,
                detail,
                status: answers.failed.unwrap_or_else(|| "ok".to_string()),
                slow_threshold: self.slow_threshold,
                submitted_ns: telemetry::clock::now_ns(),
            })
        });
        out.reply(proto, answers.seq, answers.bytes, finish);
    }

    /// Encode the reply to `unit` onto `answers` and count it: a v1 line
    /// carrying the trace id, or a v2 frame. A full-fidelity estimate
    /// enters the reply memo, the one place it is filled.
    fn encode(&self, proto: Proto, unit: &Unit, done: &Executed, answers: &mut Answers) {
        let request = unit.request.as_ref().ok();
        answers.note(unit.id, request, done.status());
        let out = &mut answers.bytes;
        match proto {
            Proto::V1 => protocol::encode_reply(out, request, &done.response, answers.trace_id),
            Proto::V2 => wire::encode_reply(out, unit.id, done.late, &done.response),
        }
        let (Some(request), Response::Estimate(answer)) = (request, &done.response) else {
            return;
        };
        telemetry::counter_add("server.memo.miss", 1);
        // Only full-fidelity replies are memoizable: a tier-A/B answer for
        // this key is expected to improve once the background upgrade
        // lands, and a memo hit would pin the stale tier forever.
        if answer.fidelity == Fidelity::Full {
            self.replies.memoize(request, answer);
        }
    }

    // --- admin-plane probes (crate::admin) ------------------------------

    /// Whether the server should report ready: not draining, the
    /// engine's disk tier (when configured) still present, and — in
    /// cluster mode — the gossip pre-warm either complete or out of
    /// budget. The engine stats probe doubles as a health check of the
    /// engine lock.
    pub(crate) fn readiness(&self) -> Result<(), String> {
        if self.draining() {
            return Err("draining".to_string());
        }
        if let Some(root) = &self.store_root {
            if !root.is_dir() {
                return Err(format!("store root missing: {}", root.display()));
            }
        }
        if let Some(state) = &self.cluster {
            if !state.warm().ready(state.config().warm_timeout) {
                return Err(format!(
                    "warming: gossip pre-warm in progress ({} models pre-warmed)",
                    state.warm().prewarmed()
                ));
            }
        }
        let _ = self.engine.stats();
        Ok(())
    }

    /// The `/clusterz` body: one JSON object with this node's ring view,
    /// warm-gate status, cluster counters and per-peer health. `None`
    /// when the server is not in cluster mode.
    pub(crate) fn clusterz_text(&self) -> Option<String> {
        let state = self.cluster.as_ref()?;
        let config = state.config();
        let stats = state.stats().snapshot();
        let ring = Value::Object(vec![
            (
                "members".into(),
                Value::Array(
                    state
                        .ring()
                        .members()
                        .iter()
                        .map(|m| Value::Str(m.clone()))
                        .collect(),
                ),
            ),
            ("replicas".into(), Value::Int(config.replicas as i64)),
        ]);
        let warm = Value::Object(vec![
            ("complete".into(), Value::Bool(state.warm().is_complete())),
            (
                "ready".into(),
                Value::Bool(state.warm().ready(config.warm_timeout)),
            ),
            (
                "prewarmed".into(),
                Value::Int(state.warm().prewarmed() as i64),
            ),
        ]);
        let counters = Value::Object(vec![
            ("fetch_hits".into(), Value::Int(stats.fetch_hits as i64)),
            ("fetch_misses".into(), Value::Int(stats.fetch_misses as i64)),
            ("fetch_errors".into(), Value::Int(stats.fetch_errors as i64)),
            ("forwards".into(), Value::Int(stats.forwards as i64)),
            (
                "forward_fallbacks".into(),
                Value::Int(stats.forward_fallbacks as i64),
            ),
            (
                "gossip_rounds".into(),
                Value::Int(stats.gossip_rounds as i64),
            ),
            (
                "warm_keys_sent".into(),
                Value::Int(stats.warm_keys_sent as i64),
            ),
            (
                "warm_keys_learned".into(),
                Value::Int(stats.warm_keys_learned as i64),
            ),
            ("quarantined".into(), Value::Int(stats.quarantined as i64)),
        ]);
        let peers = Value::Array(
            state
                .health()
                .snapshot()
                .into_iter()
                .map(|(id, status)| {
                    Value::Object(vec![
                        ("id".into(), Value::Str(id)),
                        ("reachable".into(), Value::Bool(status.reachable)),
                        ("ok".into(), Value::Int(status.ok as i64)),
                        ("errors".into(), Value::Int(status.errors as i64)),
                        (
                            "last_error".into(),
                            status.last_error.map_or(Value::Null, Value::Str),
                        ),
                    ])
                })
                .collect(),
        );
        let body = Value::Object(vec![
            ("node_id".into(), Value::Str(config.node_id.clone())),
            ("ring".into(), ring),
            ("warm".into(), warm),
            ("counters".into(), counters),
            ("peers".into(), peers),
        ]);
        let mut text = protocol::render(&body);
        text.push('\n');
        Some(text)
    }

    /// The `/metrics` exposition: live engine/server gauges rendered
    /// directly (names chosen not to collide with registry series),
    /// followed by the full metrics registry in Prometheus text format.
    pub(crate) fn metrics_text(&self) -> String {
        let stats = self.engine.stats();
        let mut out = String::with_capacity(8192);
        for (name, value) in [
            ("engine_cache_entries", stats.entries as f64),
            ("engine_cache_capacity", stats.capacity as f64),
            ("engine_inflight", stats.inflight as f64),
            (
                "server_connections_active",
                self.connections.load(Ordering::Relaxed) as f64,
            ),
            ("server_queue_len", self.queue.len() as f64),
            ("server_draining", f64::from(u8::from(self.draining()))),
            (
                "server_traces_recorded",
                trace_mod::recorder().pushed() as f64,
            ),
        ] {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        out.push_str(&telemetry::prometheus::render(&telemetry::snapshot()));
        out
    }
}

/// A running TCP power-estimation service. Construct with
/// [`Server::start`], stop with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    reactor_handles: Vec<Arc<ReactorHandle>>,
    admin: Option<AdminServer>,
    gossip: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop, the reactor pool, the worker pool
    /// and (when configured) the admin-plane listener, and return the
    /// running server. Turns on background metric recording
    /// ([`telemetry::set_recording`]) so the admin plane scrapes live
    /// data regardless of the output mode, and calibrates the trace
    /// clock before the first accept.
    ///
    /// # Errors
    ///
    /// Binding or thread spawning failures (either listener), or an
    /// unsupported platform (the reactor needs epoll; Linux only).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        telemetry::set_recording(true);
        // Whether a request is answered on the reactor depends on timing
        // (a pipelined warm request read before its cold predecessor
        // finished is queued), and so does whether a repeat is a
        // reply-memo hit or a distribution-memo hit: these counters exist
        // from the start.
        for counter in [
            "server.request.inline",
            "server.memo.hit",
            "protocol.dist_cache.hit",
        ] {
            telemetry::counter_declare(counter);
        }
        // The first clock read calibrates the TSC (a ~5 ms spin); pay it
        // here, not inside the first request's deadline.
        telemetry::clock::now_ns();
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let worker_count = resolve_threads(config.workers);
        let reactor_count = if config.reactors == 0 {
            resolve_threads(0).clamp(1, 4)
        } else {
            config.reactors
        };
        let store_root = config.engine.disk_root.clone();
        let cluster = config
            .cluster
            .clone()
            .map(|c| ClusterState::new(c).map(Arc::new))
            .transpose()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut engine = PowerEngine::new(config.engine);
        if let (Some(state), Some(root)) = (&cluster, &store_root) {
            // A miss this node does not own goes to the fleet first.
            engine = engine.with_remote_tier(cluster::remote_tier(Arc::clone(state), root.clone()));
        }
        let shared = Arc::new(Shared {
            engine: Arc::new(engine),
            default_floor: config.fidelity_floor,
            dists: DistMemo::new(),
            replies: ReplyMemo::default(),
            queue: Bounded::new(config.queue_depth),
            draining: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            drain_acks: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            totals: Totals::default(),
            deadline: config.deadline,
            idle_timeout: config.idle_timeout,
            write_timeout: config.write_timeout,
            max_connections: config.max_connections,
            tracing: config.tracing,
            slow_threshold: config.slow_threshold.max(Duration::from_nanos(1)),
            store_root,
            cluster,
        });
        let gossip = if shared.cluster.is_some() {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("hdpm-gossip".into())
                    .spawn(move || {
                        let state = shared.cluster.as_ref().expect("cluster configured");
                        let root = shared
                            .store_root
                            .as_ref()
                            .expect("cluster mode requires a disk store");
                        cluster::run_gossip(state, &shared.engine, root, &|| shared.draining());
                    })?,
            )
        } else {
            None
        };
        let admin = config
            .admin_addr
            .map(|admin_addr| AdminServer::start(admin_addr, Arc::clone(&shared)))
            .transpose()?;
        let mut reactor_handles = Vec::with_capacity(reactor_count);
        let mut reactors = Vec::with_capacity(reactor_count);
        for i in 0..reactor_count {
            let poller = Poller::new()?;
            let handle = Arc::new(ReactorHandle::new(&poller)?);
            reactor_handles.push(Arc::clone(&handle));
            let shared = Arc::clone(&shared);
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("hdpm-reactor-{i}"))
                    .spawn(move || reactor::run_reactor(&shared, &handle, &poller))?,
            );
        }
        let accept = {
            let shared = Arc::clone(&shared);
            let handles = reactor_handles.clone();
            std::thread::Builder::new()
                .name("hdpm-accept".into())
                .spawn(move || run_accept(&shared, &listener, &handles))?
        };
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hdpm-worker-{i}"))
                    .spawn(move || run_worker(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        telemetry::event(
            telemetry::Level::Info,
            "server.listening",
            &[
                ("addr", addr.to_string().into()),
                (
                    "admin_addr",
                    admin
                        .as_ref()
                        .map_or_else(|| "off".to_string(), |a| a.local_addr().to_string())
                        .into(),
                ),
                ("workers", workers.len().into()),
                ("reactors", reactors.len().into()),
                ("queue_depth", shared.queue.capacity().into()),
                ("tracing", shared.tracing.into()),
            ],
        );
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
            reactors,
            reactor_handles,
            admin,
            gossip,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin-plane address, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(AdminServer::local_addr)
    }

    /// The engine shared by the worker pool (e.g. for pre-warming).
    pub fn engine(&self) -> &PowerEngine {
        &self.shared.engine
    }

    /// Gracefully drain: stop accepting, stop reading, answer
    /// everything already queued, flush, join every pool, and report
    /// lifetime totals. In-flight characterizations run to completion —
    /// their replies are on the wire, and their artifacts on disk, before
    /// this returns. The admin
    /// plane keeps serving through the drain (`/readyz` reports 503)
    /// and stops last.
    pub fn shutdown(mut self) -> DrainReport {
        self.begin_drain();
        // Reactors ack the drain (reads muted) within one poll tick;
        // only then may the queue close, or late-parsed requests would
        // shed instead of being answered.
        let patience = Instant::now() + Duration::from_secs(5);
        while self.shared.drain_acks.load(Ordering::SeqCst) < self.reactor_handles.len()
            && Instant::now() < patience
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.shared.queue.close();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The gossip loop observes `draining` within one sleep slice.
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
        // Workers are done writing; let the reactors flush the last
        // buffered bytes (bounded by the write timeout) and exit.
        self.shared.finished.store(true, Ordering::SeqCst);
        for handle in &self.reactor_handles {
            handle.wake();
        }
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
        // Every model served is on disk before the drain reports.
        self.shared.engine.wait_all_saved();
        if let Some(admin) = self.admin.take() {
            admin.stop();
        }
        let report = self.shared.totals.report();
        telemetry::event(
            telemetry::Level::Info,
            "server.drained",
            &[
                ("connections", report.connections.into()),
                ("ok", report.ok.into()),
                ("errors", report.errors.into()),
                ("shed", report.shed.into()),
                ("timeouts", report.timeouts.into()),
            ],
        );
        report
    }

    fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        for handle in &self.reactor_handles {
            handle.wake();
        }
    }
}

impl Drop for Server {
    /// A dropped (not shut down) server still releases its threads:
    /// accept, reactors, workers and the admin plane are told to exit,
    /// but nothing is joined and no drain guarantee is made — call
    /// [`Server::shutdown`] for that.
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.begin_drain();
            self.shared.queue.close();
            self.shared.finished.store(true, Ordering::SeqCst);
            for handle in &self.reactor_handles {
                handle.wake();
            }
        }
        if let Some(admin) = self.admin.take() {
            admin.stop();
        }
    }
}

/// Global connection-token allocator (tokens are epoll registration
/// keys; `u64::MAX` is reserved for the reactor wakers).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

fn run_accept(shared: &Arc<Shared>, listener: &TcpListener, reactors: &[Arc<ReactorHandle>]) {
    let mut next_reactor = 0usize;
    for incoming in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = incoming else { continue };
        if shared.connections.load(Ordering::Relaxed) >= shared.max_connections {
            telemetry::counter_add("server.conn.rejected", 1);
            shared.totals.shed.fetch_add(1, Ordering::Relaxed);
            // The reject races protocol negotiation, so it is always the
            // v1 JSON line; v2 clients recognize the non-NUL first byte
            // as a pre-negotiation rejection (docs/protocol.md).
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(shared.write_timeout));
            let reject = Response::Error {
                kind: ErrorKind::Overloaded.as_str().to_string(),
                message: format!(
                    "connection limit reached ({} active)",
                    shared.max_connections
                ),
            };
            let mut line = Vec::new();
            protocol::encode_reply(&mut line, None, &reject, None);
            let _ = stream.write_all(&line);
            continue; // dropped: closed
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        shared.totals.connections.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("server.conn.accepted", 1);
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(stream);
        let handle = Arc::clone(&reactors[next_reactor % reactors.len()]);
        next_reactor = next_reactor.wrapping_add(1);
        let out = Arc::new(ConnOut::new(
            token,
            Arc::clone(&stream),
            Arc::clone(&handle),
        ));
        handle.post(Mail::Register { stream, out });
    }
}

fn run_worker(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        telemetry::gauge_set("server.queue.depth", shared.queue.len() as f64);
        shared.run(job);
    }
}

/// Decode one framed request through its protocol's codec. `None` for a
/// blank v1 line, which is owed no reply.
fn decode(proto: Proto, frame: &FrameRef, raw: &[u8]) -> Option<Unit> {
    let (request, deadline_ms) = match proto {
        Proto::V1 => {
            let decoded = protocol::decode_line(protocol::trim_line(raw))?;
            (decoded.request, decoded.deadline_ms)
        }
        Proto::V2 => (wire::decode_request(frame.op, raw), frame.deadline()),
    };
    Some(Unit {
        id: frame.id,
        request,
        deadline_ms,
    })
}

/// The reply-memo key of an estimate: spec, data type, cycles, seed. A
/// full-fidelity answer is the same at every floor, so the floor is not
/// in it, and a legacy 18-byte v2 payload keys as its 19-byte form.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ReplyKey(ModuleSpec, DataType, u32, u64);

impl ReplyKey {
    fn of(request: &Request) -> Option<ReplyKey> {
        let Request::Estimate {
            spec,
            data,
            cycles,
            seed,
            ..
        } = *request
        else {
            return None;
        };
        Some(ReplyKey(spec, data, cycles, seed))
    }
}

impl Hash for ReplyKey {
    /// Three words: the derived hash feeds each enum tag and field to the
    /// hasher on its own, which doubles the cost of a lookup.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ReplyKey(spec, data, cycles, seed) = *self;
        let (m1, m2) = spec.width.operand_widths();
        state.write_u64(seed);
        state.write_u64(u64::from(cycles) | ((spec.kind as u64) << 32) | ((data as u64) << 40));
        state.write_u64(m1 as u64 ^ (m2 as u64).rotate_left(32));
    }
}

/// One memoized full-fidelity estimate, encoded once for each protocol:
/// the v2 reply payload with source `memo`, and the v1 reply line up to
/// its trace id ([`protocol::close_reply`] ends it) with source `memory`,
/// since a v1 hit answers only while the model is resident.
struct Memoized {
    v2: [u8; wire::ESTIMATE_REPLY_LEN],
    v1: Box<[u8]>,
}

/// The estimate-reply memo of one server, for both protocols, shared by
/// its reactors and workers. Identical estimates (the monitoring /
/// design-sweep steady state) copy memoized reply bytes instead of
/// running the request core and the encoder again. Safe because
/// estimates are pure functions of the key — characterization is
/// deterministic, so even a re-characterized model yields the same
/// numbers.
#[derive(Default)]
struct ReplyMemo(Mutex<HashMap<ReplyKey, Memoized>>);

impl ReplyMemo {
    /// Blunt bound: distinct estimates are rare (catalogue × widths ×
    /// data types), so a full memo is cleared, not kept in LRU order.
    const CAPACITY: usize = 4096;

    /// Run `read` on `key`'s entry under the memo lock, so hits share no
    /// reference count between reactors; `None` when there is none.
    fn with<T>(&self, key: &ReplyKey, read: impl FnOnce(&Memoized) -> T) -> Option<T> {
        self.0.lock().expect("reply memo").get(key).map(read)
    }

    /// Memoize the full-fidelity `answer` to `request`, encoding it once.
    fn memoize(&self, request: &Request, answer: &EstimateAnswer) {
        let Some(key) = ReplyKey::of(request).filter(|key| self.with(key, |_| ()).is_none()) else {
            return;
        };
        let mut frame = Vec::new();
        wire::encode_reply(&mut frame, 0, false, &Response::Estimate(answer.clone()));
        let mut v2 = [0u8; wire::ESTIMATE_REPLY_LEN];
        v2.copy_from_slice(&frame[wire::HEADER_LEN..]);
        v2[wire::ESTIMATE_REPLY_SOURCE_OFFSET] = wire::SOURCE_MEMO;
        let resident = EstimateAnswer {
            source: CacheSource::Memory.as_str().to_string(),
            ..answer.clone()
        };
        let mut v1 = Vec::new();
        protocol::encode_reply_body(&mut v1, Some(request), &Response::Estimate(resident));
        let mut memo = self.0.lock().expect("reply memo");
        if memo.len() >= Self::CAPACITY {
            memo.clear();
        }
        memo.entry(key).or_insert(Memoized { v2, v1: v1.into() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_keys_match_the_canonical_metric_key() {
        for stage in trace_mod::STAGES {
            assert_eq!(
                STAGE_KEYS[stage as usize],
                telemetry::metric_key("server.stage_ns", &[("stage", stage.as_str())]),
            );
        }
    }
}
