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
//!   connection over epoll: protocol negotiation (v1 JSON lines / v2
//!   binary frames), framing, write-side drainage, idle reaping and
//!   write timeouts. An idle connection costs one registered fd, not a
//!   thread. A reactor answers **in-memory work** itself, through the
//!   request core ([`crate::exec`]): v2 reply-memo hits, and estimates
//!   whose model is resident in the engine's memory tier and whose input
//!   distribution is memoized. That skips the queue hop, which is most
//!   of a warm request's latency;
//! * a **fixed worker pool** drains the bounded queue with everything
//!   else — anything that can block: characterization, disk loads,
//!   single-flight waits, peer fetches, distribution synthesis and every
//!   non-estimate op — and runs it through the same request core against
//!   the shared engine, so concurrent misses on one model still coalesce
//!   through the engine's single-flight path. A reactor must never block
//!   on any of these, which is why the queue stays.
//!
//! Both memos (input distributions and v2 reply bytes) are per server,
//! shared by its reactors and workers, so a reactor sees what any worker
//! memoized.
//!
//! v1 replies on one connection are written in request order even
//! though workers complete out of order (the per-connection sequencer
//! lives in [`crate::reactor::ConnOut`]); v2 replies carry request ids
//! and complete **out of order** — one slow characterization no longer
//! stalls the pipelined requests behind it.
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
//! When [`ServerConfig::tracing`] is on (the default), every v1 request
//! (and every v2 batch) gets a [`TraceCtx`] riding the [`Job`] through
//! the pipeline, accumulating per-stage timings; requests answered on
//! the reactor record no `queue_wait` stage. v1 replies echo the
//! trace id as `"trace":"t…"`; completed traces land in the flight
//! recorder (`/tracez`, dumped on drain) and the
//! `server.stage_ns{stage=…}` histograms; requests slower than
//! [`ServerConfig::slow_threshold`] emit one `{"type":"slow_request",…}`
//! line on stderr. The optional admin plane
//! ([`ServerConfig::admin_addr`], `crate::admin`) serves `/metrics`,
//! `/healthz`, `/readyz` and `/tracez`. v2 traces are **per batch** (a
//! read burst of frames shares one trace): ids are already in band, and
//! per-frame contexts would cost more than the requests they measure.
//! The frames of a burst that a reactor answers share one trace, and
//! those it queues share another.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdpm_core::{resolve_threads, Fidelity, PowerEngine};
use hdpm_telemetry as telemetry;
use hdpm_telemetry::{trace as trace_mod, Stage, TraceCtx};
use poller::Poller;
use serde::{Serialize, Value};

use crate::admin::AdminServer;
use crate::client::Response;
use crate::cluster::{self, ClusterRuntime};
use crate::config::ServerConfig;
use crate::exec::{self, DistMemo, ExecCtx};
use crate::protocol::{self, Decoded, ErrorKind};
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

/// One reference into a [`V2Batch`]'s data: a single frame.
pub(crate) struct FrameRef {
    /// Request id, echoed in the reply.
    pub(crate) id: u64,
    /// Raw opcode byte (validated at execution).
    pub(crate) op: u8,
    /// In-band deadline in ms (0 = none).
    pub(crate) deadline_ms: u32,
    /// Payload byte range within the batch data.
    pub(crate) payload: (usize, usize),
}

/// A unit of queued work: one v1 request or the queued frames of one v2
/// read burst, with the connection it answers on, its arrival time and
/// its trace.
pub(crate) struct Job {
    out: Arc<ConnOut>,
    /// When the reactor read the request; deadlines count from here.
    arrived: Instant,
    /// When the job entered the queue; the queue wait counts from here.
    queued: Instant,
    trace: TraceCtx,
    work: Work,
}

enum Work {
    /// One v1 request, decoded on the reactor, and its place in the
    /// connection's reply sequence.
    V1 { seq: u64, decoded: Decoded },
    /// The frames of one read burst that the reactor could not answer.
    /// Batching amortizes the queue handoff and the reply write across
    /// every frame the socket delivered together — the main lever behind
    /// the v2 throughput bar.
    V2 {
        data: Vec<u8>,
        frames: Vec<FrameRef>,
    },
}

impl Work {
    /// Requests in this unit of work, each owed one reply.
    fn requests(&self) -> u64 {
        match self {
            Work::V1 { .. } => 1,
            Work::V2 { frames, .. } => frames.len() as u64,
        }
    }
}

/// Everything needed to close out a request's trace once its reply is
/// on the wire (or abandoned): the completed context, what the request
/// was, and how it ended. Created by the worker, consumed by the writer
/// side so the socket-write stage covers sequencer hold + the actual
/// write.
pub(crate) struct TraceFinish {
    pub(crate) trace: TraceCtx,
    pub(crate) op: String,
    pub(crate) detail: String,
    pub(crate) status: String,
    pub(crate) slow_threshold: Duration,
    /// [`telemetry::clock::now_ns`] when the worker handed the reply to
    /// the write side.
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
        let record = self.trace.finish_owned(self.op, self.detail, self.status);
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

/// A v1 reply line plus the trace bookkeeping owed once it is written.
pub(crate) struct Reply {
    pub(crate) line: String,
    pub(crate) finish: Option<Box<TraceFinish>>,
}

pub(crate) struct Shared {
    engine: Arc<PowerEngine>,
    /// Fidelity floor applied to estimate requests that don't name one
    /// ([`ServerConfig::fidelity_floor`]).
    default_floor: Fidelity,
    /// The input-distribution memo of this server.
    dists: DistMemo,
    /// The v2 estimate-reply memo of this server.
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
    /// Cluster mode, when configured: the ring, peer health, counters
    /// and this node's ensure gate.
    cluster: Option<ClusterRuntime>,
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

    /// The trace bookkeeping owed once a reply is written (`None` when
    /// tracing is off).
    fn trace_finish(
        &self,
        trace: &TraceCtx,
        op: String,
        detail: String,
        status: &str,
    ) -> Option<Box<TraceFinish>> {
        trace.is_enabled().then(|| {
            Box::new(TraceFinish {
                trace: trace.clone(),
                op,
                detail,
                status: status.to_string(),
                slow_threshold: self.slow_threshold,
                submitted_ns: telemetry::clock::now_ns(),
            })
        })
    }

    /// The request core's context for a request that arrived at
    /// `arrived`, under this server's policy.
    fn exec_ctx<'a>(&'a self, arrived: Instant, trace: &'a mut TraceCtx) -> ExecCtx<'a> {
        ExecCtx {
            engine: &self.engine,
            default_floor: self.default_floor,
            deadline: self.deadline,
            arrived,
            dists: &self.dists,
            store_root: self.store_root.as_deref(),
            cluster: self.cluster.as_ref(),
            totals: Some(&self.totals),
            trace,
        }
    }

    /// Take one raw v1 line off the reactor: decode it, then answer it
    /// here when its inputs are in memory, or queue it. Blank lines are
    /// skipped without consuming a sequence number (no reply is owed for
    /// them).
    pub(crate) fn dispatch_v1(&self, out: &Arc<ConnOut>, next_seq: &mut u64, raw: &[u8]) {
        let arrived = Instant::now();
        let mut trace = self.new_trace();
        let Some(decoded) = trace.time(Stage::Decode, || {
            protocol::decode_line(protocol::trim_line(raw))
        }) else {
            return;
        };
        let seq = *next_seq;
        *next_seq += 1;
        let resident = match &decoded.request {
            Ok(request) => self.exec_ctx(arrived, &mut trace).resident(request),
            Err(_) => None,
        };
        let Some(resident) = resident else {
            self.enqueue(out, arrived, trace, Work::V1 { seq, decoded });
            return;
        };
        telemetry::counter_add("server.request.inline", 1);
        let reply = self.run_v1(&decoded, arrived, arrived, &mut trace, Some(resident));
        out.submit_v1(seq, Some(reply));
    }

    /// Take one read burst of v2 frames off the reactor: answer the
    /// frames whose inputs are in memory here, with one write, and queue
    /// the rest as one batch.
    pub(crate) fn dispatch_v2(&self, out: &Arc<ConnOut>, data: &[u8], frames: Vec<FrameRef>) {
        let arrived = Instant::now();
        let mut trace = self.new_trace();
        let mut replies = Vec::new();
        let mut queued = Vec::new();
        let mut inline = 0u64;
        let mut ctx = self.exec_ctx(arrived, &mut trace);
        for frame in frames {
            let payload = &data[frame.payload.0..frame.payload.1];
            if answer_frame(&mut ctx, &self.replies, &frame, payload, &mut replies, true) {
                inline += 1;
            } else {
                queued.push(frame);
            }
        }
        if !queued.is_empty() {
            let work = Work::V2 {
                data: data.to_vec(),
                frames: queued,
            };
            self.enqueue(out, arrived, self.new_trace(), work);
        }
        if inline == 0 {
            return;
        }
        telemetry::counter_add("server.request.inline", inline);
        telemetry::record_duration_ns("server.request_ns", arrived.elapsed().as_nanos() as u64);
        let detail = format!("frames/{inline}");
        let finish = self.trace_finish(&trace, "batch".to_string(), detail, "ok");
        out.send(&replies);
        if let Some(finish) = finish {
            finish.complete(true);
        }
    }

    /// Queue `work`, or answer every request in it with `overloaded`
    /// when the queue refuses it. The shed counters count requests (v2
    /// frames, not batches), one per `overloaded` reply.
    fn enqueue(&self, out: &Arc<ConnOut>, arrived: Instant, trace: TraceCtx, work: Work) {
        out.begin_job();
        let job = Job {
            out: Arc::clone(out),
            arrived,
            queued: Instant::now(),
            trace,
            work,
        };
        let (job, message) = match self.queue.try_push(job) {
            Ok(depth) => {
                telemetry::gauge_set("server.queue.depth", depth as f64);
                return;
            }
            Err(PushError::Full(job)) => {
                telemetry::counter_add("server.queue.shed_full", job.work.requests());
                let unit = match job.work {
                    Work::V1 { .. } => "requests",
                    Work::V2 { .. } => "batches",
                };
                let capacity = self.queue.capacity();
                (
                    job,
                    format!("queue full ({capacity} {unit} queued): request shed"),
                )
            }
            Err(PushError::Closed(job)) => {
                telemetry::counter_add("server.queue.shed_draining", job.work.requests());
                (job, "server draining: request shed".to_string())
            }
        };
        self.totals
            .shed
            .fetch_add(job.work.requests(), Ordering::Relaxed);
        match job.work {
            Work::V1 { seq, .. } => {
                let mut line = protocol::error_line(ErrorKind::Overloaded, &message);
                if job.trace.is_enabled() {
                    protocol::append_trace_id(&mut line, job.trace.id());
                }
                let finish = self.trace_finish(
                    &job.trace,
                    String::new(),
                    String::new(),
                    ErrorKind::Overloaded.as_str(),
                );
                job.out.submit_v1(seq, Some(Reply { line, finish }));
            }
            Work::V2 { frames, .. } => {
                let status = wire::status_of(ErrorKind::Overloaded);
                let mut replies = Vec::new();
                for frame in &frames {
                    wire::encode_frame(&mut replies, frame.id, status, 0, message.as_bytes());
                }
                job.out.send(&replies);
            }
        }
        job.out.finish_job();
    }

    /// Run one decoded v1 request through the request core and render
    /// its reply (trace id attached when tracing). `server.request_ns`
    /// measures processing time only: the decode on the reactor, up to
    /// `queued`, and the run and render here.
    fn run_v1(
        &self,
        decoded: &Decoded,
        arrived: Instant,
        queued: Instant,
        trace: &mut TraceCtx,
        resident: Option<exec::Resident>,
    ) -> Reply {
        let started = Instant::now();
        let request = decoded.request.as_ref();
        let done = self
            .exec_ctx(arrived, trace)
            .execute(request, decoded.deadline_ms, resident);
        let trace_id = trace.is_enabled().then(|| trace.id());
        let line = trace.time(Stage::Serialize, || {
            let mut line = protocol::render(&protocol::reply_value(request.ok(), &done.response));
            if let Some(id) = trace_id {
                protocol::append_trace_id(&mut line, id);
            }
            line
        });
        let processing = queued.duration_since(arrived) + started.elapsed();
        telemetry::record_duration_ns("server.request_ns", processing.as_nanos() as u64);
        let (op, detail) = exec::describe(request.ok());
        Reply {
            line,
            finish: self.trace_finish(trace, op, detail, done.status()),
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
        if let Some(rt) = &self.cluster {
            let state = &rt.state;
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
        let rt = self.cluster.as_ref()?;
        let state = &rt.state;
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
        // finished is queued), so the counter exists from the start.
        telemetry::counter_declare("server.request.inline");
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
            .map(ClusterRuntime::new)
            .transpose()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let shared = Arc::new(Shared {
            engine: Arc::new(PowerEngine::new(config.engine)),
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
        if shared.cluster.is_some() {
            // Background fidelity upgrades must respect cluster
            // ownership: route through ensure_model (peer fetch /
            // forward to the owner) and only then make the model
            // locally resident. `Weak` so the hook never keeps a
            // dropped server's Shared alive through the engine.
            let weak = Arc::downgrade(&shared);
            shared.engine.set_upgrade_hook(move |engine, spec| {
                if let Some(shared) = weak.upgrade() {
                    if let (Some(rt), Some(root)) = (&shared.cluster, &shared.store_root) {
                        cluster::ensure_model(rt, engine, root, spec);
                    }
                }
                let _ = engine.fetch(spec);
            });
        }
        let gossip = if shared.cluster.is_some() {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("hdpm-gossip".into())
                    .spawn(move || {
                        let rt = shared.cluster.as_ref().expect("cluster configured");
                        let root = shared
                            .store_root
                            .as_ref()
                            .expect("cluster mode requires a disk store");
                        cluster::run_gossip(&rt.state, &shared.engine, root, &|| shared.draining());
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
    /// their replies are on the wire before this returns. The admin
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
            let reject = protocol::error_line(
                ErrorKind::Overloaded,
                &format!(
                    "connection limit reached ({} active)",
                    shared.max_connections
                ),
            );
            let _ = stream.write_all(reject.as_bytes());
            let _ = stream.write_all(b"\n");
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
        let Job {
            out,
            arrived,
            queued,
            mut trace,
            work,
        } = job;
        let waited_ns = queued.elapsed().as_nanos() as u64;
        telemetry::record_duration_ns("server.queue.wait_ns", waited_ns);
        trace.add(Stage::QueueWait, waited_ns);
        match work {
            Work::V1 { seq, decoded } => {
                // A dead connection gets no reply, but its sequencer
                // still advances and the flight recorder still sees the
                // drop.
                let reply = if out.is_alive() {
                    Some(shared.run_v1(&decoded, arrived, queued, &mut trace, None))
                } else {
                    if let Some(finish) =
                        shared.trace_finish(&trace, String::new(), String::new(), "dropped")
                    {
                        finish.complete(false);
                    }
                    None
                };
                out.submit_v1(seq, reply);
            }
            Work::V2 { data, frames } => {
                run_batch(shared, &out, arrived, &mut trace, &data, &frames);
            }
        }
        out.finish_job();
    }
}

/// Execute one queued v2 batch: every frame in arrival order, replies
/// encoded into one buffer and written with one send. Frames across
/// batches (and connections) complete out of order; the ids sort it out
/// client side.
fn run_batch(
    shared: &Shared,
    out: &ConnOut,
    arrived: Instant,
    trace: &mut TraceCtx,
    data: &[u8],
    frames: &[FrameRef],
) {
    let (op, detail) = ("batch".to_string(), format!("frames/{}", frames.len()));
    if !out.is_alive() {
        if let Some(finish) = shared.trace_finish(trace, op, detail, "dropped") {
            finish.complete(false);
        }
        return;
    }
    let started = Instant::now();
    let mut replies: Vec<u8> =
        Vec::with_capacity(frames.len() * (wire::HEADER_LEN + wire::ESTIMATE_REPLY_LEN));
    let mut ctx = shared.exec_ctx(arrived, trace);
    for frame in frames {
        let payload = &data[frame.payload.0..frame.payload.1];
        answer_frame(
            &mut ctx,
            &shared.replies,
            frame,
            payload,
            &mut replies,
            false,
        );
    }
    telemetry::record_duration_ns("server.request_ns", started.elapsed().as_nanos() as u64);
    let finish = shared.trace_finish(trace, op, detail, "ok");
    out.send(&replies);
    if let Some(finish) = finish {
        finish.complete(true);
    }
}

/// Answer one v2 frame through the request core, appending its reply
/// frame to `replies`. On the reactor (`inline`), only frames whose
/// inputs are all in memory are answered — reply-memo hits and resident
/// estimates; any other returns `false` with nothing written, for the
/// queue. Deadline semantics (docs/protocol.md) are the core's: the
/// tighter of the frame's `deadline_ms` and the server deadline, counted
/// from the moment the burst was read off the socket; a frame past it
/// answers `timeout` without running, one that expires while running is
/// answered in full with [`wire::FLAG_LATE`].
fn answer_frame(
    ctx: &mut ExecCtx<'_>,
    memo: &ReplyMemo,
    frame: &FrameRef,
    payload: &[u8],
    replies: &mut Vec<u8>,
    inline: bool,
) -> bool {
    let deadline_ms = (frame.deadline_ms > 0).then_some(u64::from(frame.deadline_ms));
    let key = memo_key(frame.op, payload);
    if let Some(hit) = key.and_then(|key| memo.get(&key)) {
        let (result, late) = ctx.guarded(deadline_ms, |_| {
            telemetry::counter_add("server.memo.hit", 1);
            Ok(())
        });
        let flags = if late { wire::FLAG_LATE } else { 0 };
        let (status, payload) = match &result {
            Ok(()) => (wire::STATUS_OK, &hit[..]),
            Err((kind, message)) => (wire::status_of(*kind), message.as_bytes()),
        };
        wire::encode_frame(replies, frame.id, status, flags, payload);
        return true;
    }
    // Only an estimate can be answered inline; leave the rest undecoded.
    if inline && key.is_none() {
        return false;
    }
    let request = wire::decode_request(frame.op, payload);
    let resident = if inline {
        let Some(resident) = request.as_ref().ok().and_then(|r| ctx.resident(r)) else {
            return false;
        };
        Some(resident)
    } else {
        None
    };
    let done = ctx.execute(request.as_ref(), deadline_ms, resident);
    let start = replies.len();
    wire::encode_reply(replies, frame.id, done.late, &done.response);
    let (Some(key), Response::Estimate(answer)) = (key, &done.response) else {
        return true;
    };
    telemetry::counter_add("server.memo.miss", 1);
    // Only full-fidelity replies are memoizable: a tier-A/B answer for
    // this key is expected to improve once the background upgrade
    // lands, and a memo hit would pin the stale tier forever.
    if answer.fidelity == Fidelity::Full {
        let mut memoized = [0u8; wire::ESTIMATE_REPLY_LEN];
        memoized.copy_from_slice(&replies[start + wire::HEADER_LEN..]);
        memoized[wire::ESTIMATE_REPLY_SOURCE_OFFSET] = wire::SOURCE_MEMO;
        memo.insert(key, memoized);
    }
    true
}

type MemoKey = [u8; wire::ESTIMATE_REQ_LEN];
type MemoReply = [u8; wire::ESTIMATE_REPLY_LEN];

/// The v2 estimate-reply memo of one server, keyed on raw payload bytes
/// and shared by its reactors and workers. A warm v2 estimate is
/// dominated by re-rendering an identical answer, so identical request
/// payloads (the monitoring / design-sweep steady state) short-circuit
/// to the cached reply bytes with the source rewritten to `memo`. Safe
/// because estimates are pure functions of the request payload —
/// characterization is deterministic, so even a re-characterized model
/// yields the same numbers. Checked before decode.
#[derive(Default)]
struct ReplyMemo(Mutex<HashMap<MemoKey, MemoReply>>);

impl ReplyMemo {
    fn get(&self, key: &MemoKey) -> Option<MemoReply> {
        self.0.lock().expect("reply memo").get(key).copied()
    }

    fn insert(&self, key: MemoKey, reply: MemoReply) {
        let mut memo = self.0.lock().expect("reply memo");
        // Blunt bound: distinct estimate payloads are rare (catalogue ×
        // widths × data types).
        if memo.len() >= 4096 {
            memo.clear();
        }
        memo.insert(key, reply);
    }
}

/// The memo key of an estimate frame's payload. Legacy 18-byte payloads
/// key as their 19-byte form with floor 0 ("server default") — the memo
/// must not fork on encoding.
fn memo_key(op: u8, payload: &[u8]) -> Option<MemoKey> {
    if op != wire::Opcode::Estimate as u8 {
        return None;
    }
    match payload.len() {
        wire::ESTIMATE_REQ_LEN => payload.try_into().ok(),
        wire::LEGACY_ESTIMATE_REQ_LEN => {
            let mut padded = [0u8; wire::ESTIMATE_REQ_LEN];
            padded[..wire::LEGACY_ESTIMATE_REQ_LEN].copy_from_slice(payload);
            Some(padded)
        }
        _ => None,
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
