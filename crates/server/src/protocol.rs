//! Protocol v1: the JSON-lines codec, shared by `hdpm serve` (stdin),
//! `hdpm server` (TCP) and the typed [`crate::client`].
//!
//! One request per line, one reply per line. Three operations:
//!
//! * `{"op":"estimate","module":...,"width":...,"data":...}` — analytic
//!   power estimate through the engine cache;
//! * `{"op":"characterize","module":...,"width":...}` — force a model
//!   into the cache and report where it came from;
//! * `{"op":"stats"}` — the engine's counter snapshot.
//!
//! Lines decode into the typed [`Request`] and replies encode from the
//! typed [`Response`]; execution is the server's one request core
//! (`exec.rs`), which the v2 codec ([`crate::wire`]) feeds as well.
//! Every failure produces a structured reply
//! `{"ok":false,"error":{"kind":"<kind>","message":"<detail>"}}` and never
//! tears the transport down; [`ErrorKind`] enumerates the kinds. Blank
//! lines are skipped. The transcript in `docs/engine.md` is a golden
//! fixture: both transports must replay it byte-identically
//! (`crates/server/tests/golden.rs`).

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::Arc;

use hdpm_core::{Fidelity, PowerEngine};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use hdpm_streams::{DataType, ALL_DATA_TYPES};
use hdpm_telemetry::TraceCtx;
use serde::{Deserialize, Value};

use crate::client::{CharacterizeAnswer, EstimateAnswer, Request, Response, StatsAnswer};
use crate::exec::{DistMemo, ExecCtx};

/// Resolve a module kind by its wire id.
///
/// # Errors
///
/// Returns a message naming the unknown kind.
pub fn module_kind(name: &str) -> Result<ModuleKind, String> {
    ModuleKind::from_id(name).ok_or_else(|| format!("unknown module kind `{name}`"))
}

/// Resolve a data type by name or paper roman numeral.
///
/// # Errors
///
/// Returns a message naming the unknown type.
pub fn data_type(name: &str) -> Result<DataType, String> {
    ALL_DATA_TYPES
        .iter()
        .copied()
        .find(|d| d.name() == name || d.roman() == name)
        .ok_or_else(|| format!("unknown data type `{name}`"))
}

/// Classification of a failed request, carried on the wire as
/// `error.kind` (v1) or as the reply status byte, the discriminant (v2).
/// The full failure-semantics table is in `docs/server.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorKind {
    /// The line was not valid JSON.
    Malformed = 1,
    /// The line was not valid UTF-8.
    InvalidUtf8 = 2,
    /// Valid JSON that is not a valid request (unknown op, missing or
    /// unresolvable fields).
    BadRequest = 3,
    /// The engine failed to serve the request (netlist construction,
    /// characterization, width mismatch, corrupt artifact ...).
    Engine = 4,
    /// The server shed the request: queue full, connection limit, or
    /// draining. Never emitted by the stdin transport.
    Overloaded = 5,
    /// The request's deadline expired before a worker reached it. Never
    /// emitted by the stdin transport.
    Timeout = 6,
}

impl ErrorKind {
    pub(crate) const ALL: [ErrorKind; 6] = [
        ErrorKind::Malformed,
        ErrorKind::InvalidUtf8,
        ErrorKind::BadRequest,
        ErrorKind::Engine,
        ErrorKind::Overloaded,
        ErrorKind::Timeout,
    ];

    /// The lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::InvalidUtf8 => "invalid_utf8",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Engine => "engine",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    pub fn parse(text: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.as_str() == text)
    }
}

/// A failed request: kind plus human-readable detail.
pub type RequestError = (ErrorKind, String);

/// The structured error reply object: `{"ok":false,"error":{...}}`.
fn error_object(kind: &str, message: &str) -> Value {
    Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str(kind.into())),
                ("message".into(), Value::Str(message.into())),
            ]),
        ),
    ])
}

/// Serialize a reply value to its wire line (without the newline).
pub fn render(reply: &Value) -> String {
    serde_json::to_string(reply).expect("reply values always serialize")
}

/// The structured error reply for a failed request, rendered to its
/// wire line.
pub fn error_line(kind: ErrorKind, message: &str) -> String {
    render(&error_object(kind.as_str(), message))
}

/// Append the trace id to a rendered reply line: splices
/// `,"trace":"t…"` in before the closing brace, so clients can join a
/// reply against the server's flight recorder and slow-request log. The
/// TCP server does this for every reply when tracing is on; the stdin
/// transport never does (its golden transcript is id-free).
pub fn append_trace_id(line: &mut String, id: u64) {
    debug_assert!(line.ends_with('}'), "replies are JSON objects: {line}");
    line.truncate(line.len() - 1);
    line.reserve(29);
    line.push_str(",\"trace\":\"");
    hdpm_telemetry::trace::write_trace_id(line, id);
    line.push_str("\"}");
}

/// The JSON shape of a request line. Unknown keys are ignored; absent
/// optional keys fall back to the same defaults as the batch
/// subcommands.
#[derive(Debug, Deserialize)]
struct Line {
    op: String,
    module: Option<String>,
    width: Option<usize>,
    width2: Option<usize>,
    data: Option<String>,
    cycles: Option<usize>,
    seed: Option<u64>,
    deadline_ms: Option<u64>,
    fidelity_floor: Option<String>,
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoded {
    /// The typed request, or the `bad_request` its fields earn (unknown
    /// op, missing or unresolvable fields). Kept apart from the framing
    /// errors of [`decode`] so a request past its deadline answers
    /// `timeout` before its field errors, as on v2.
    pub request: Result<Request, RequestError>,
    /// Per-request deadline in milliseconds, honoured by the TCP server
    /// (capped by the server's own deadline); ignored on stdin.
    pub deadline_ms: Option<u64>,
}

/// Decode one raw line, classifying failures. Returns `Ok(None)` for
/// blank lines (no reply is owed).
///
/// # Errors
///
/// [`ErrorKind::InvalidUtf8`] for non-UTF-8 bytes, [`ErrorKind::Malformed`]
/// for invalid JSON or a shape mismatch.
pub fn decode(raw: &[u8]) -> Result<Option<Decoded>, RequestError> {
    let text = std::str::from_utf8(raw).map_err(|_| {
        (
            ErrorKind::InvalidUtf8,
            "request line is not valid UTF-8".to_string(),
        )
    })?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    let line: Line = serde_json::from_str(text)
        .map_err(|e| (ErrorKind::Malformed, format!("malformed request: {e}")))?;
    Ok(Some(Decoded {
        request: line.resolve(),
        deadline_ms: line.deadline_ms,
    }))
}

/// [`decode`] with its framing errors folded into the [`Decoded`]
/// request, the form the request core takes. `None` for blank lines.
pub(crate) fn decode_line(raw: &[u8]) -> Option<Decoded> {
    decode(raw).unwrap_or_else(|e| {
        Some(Decoded {
            request: Err(e),
            deadline_ms: None,
        })
    })
}

impl Line {
    fn resolve(&self) -> Result<Request, RequestError> {
        let bad = |message: String| (ErrorKind::BadRequest, message);
        match self.op.as_str() {
            "estimate" => {
                let spec = self.spec()?;
                let floor = match self.fidelity_floor.as_deref() {
                    None => None,
                    Some(text) => Some(Fidelity::parse(text).ok_or_else(|| {
                        bad(format!(
                            "unknown fidelity floor `{text}` (expected analytic, regressed or full)"
                        ))
                    })?),
                };
                let data = data_type(self.data.as_deref().unwrap_or("random")).map_err(bad)?;
                let cycles = self.cycles.unwrap_or(2000);
                let cycles = u32::try_from(cycles)
                    .map_err(|_| bad(format!("cycles {cycles} out of range")))?;
                Ok(Request::Estimate {
                    spec,
                    data,
                    cycles,
                    seed: self.seed.unwrap_or(7),
                    floor,
                })
            }
            "characterize" => Ok(Request::Characterize { spec: self.spec()? }),
            "stats" => Ok(Request::Stats),
            other => Err(bad(format!(
                "unknown op `{other}` (expected estimate, characterize or stats)"
            ))),
        }
    }

    fn spec(&self) -> Result<ModuleSpec, RequestError> {
        let bad = |message: String| (ErrorKind::BadRequest, message);
        let name = self
            .module
            .as_deref()
            .ok_or_else(|| bad("missing field `module`".into()))?;
        let kind = module_kind(name).map_err(bad)?;
        let width = self
            .width
            .ok_or_else(|| bad("missing field `width`".into()))?;
        let width = match self.width2 {
            Some(w2) => ModuleWidth::Rect(width, w2),
            None => ModuleWidth::Uniform(width),
        };
        Ok(ModuleSpec::new(kind, width))
    }
}

/// Encode a request as its JSON line (without the newline), the inverse
/// of [`decode`]. `None` for [`Request::Ping`] and the cluster ops, which
/// v1 cannot express.
pub fn encode_request(request: &Request, deadline_ms: Option<u64>) -> Option<String> {
    let mut line = String::with_capacity(96);
    match request {
        Request::Estimate {
            spec,
            data,
            cycles,
            seed,
            floor,
        } => {
            write!(
                line,
                "{{\"op\":\"estimate\",\"module\":\"{}\"{},\"data\":\"{}\",\"cycles\":{cycles},\"seed\":{seed}",
                spec.kind,
                width_fields(spec.width),
                data.name(),
            )
            .expect("write to string");
            if let Some(floor) = floor {
                write!(line, ",\"fidelity_floor\":\"{floor}\"").expect("write to string");
            }
        }
        Request::Characterize { spec } => {
            write!(
                line,
                "{{\"op\":\"characterize\",\"module\":\"{}\"{}",
                spec.kind,
                width_fields(spec.width),
            )
            .expect("write to string");
        }
        Request::Stats => line.push_str("{\"op\":\"stats\""),
        Request::Ping
        | Request::FetchModel { .. }
        | Request::HaveModel { .. }
        | Request::WarmKeys { .. } => return None,
    }
    if let Some(ms) = deadline_ms {
        write!(line, ",\"deadline_ms\":{ms}").expect("write to string");
    }
    line.push('}');
    Some(line)
}

fn width_fields(width: ModuleWidth) -> String {
    match width {
        ModuleWidth::Uniform(w) => format!(",\"width\":{w}"),
        ModuleWidth::Rect(m1, m2) => format!(",\"width\":{m1},\"width2\":{m2}"),
    }
}

/// The reply object answering `request` with `response`. Estimate and
/// characterize replies echo the request's module (and data type);
/// error replies ignore the request, which is `None` when it never
/// decoded.
pub fn reply_value(request: Option<&Request>, response: &Response) -> Value {
    match (response, request) {
        (Response::Estimate(a), Some(Request::Estimate { spec, data, .. })) => ok_object(
            "estimate",
            [
                ("module", Value::Str(spec.to_string())),
                ("data", Value::Str(data.to_string())),
                ("charge_per_cycle", Value::Float(a.charge_per_cycle)),
                ("via_average", Value::Float(a.via_average)),
                ("average_hd", Value::Float(a.average_hd)),
                ("source", Value::Str(a.source.clone())),
                ("fidelity", Value::Str(a.fidelity.as_str().into())),
                ("confidence", Value::Float(a.confidence)),
            ],
        ),
        (Response::Characterize(c), Some(Request::Characterize { spec })) => ok_object(
            "characterize",
            [
                ("module", Value::Str(spec.to_string())),
                ("input_bits", Value::Int(i64::from(c.input_bits))),
                ("transitions", Value::Int(c.transitions as i64)),
                (
                    "converged_after",
                    c.converged_after
                        .map_or(Value::Null, |p| Value::Int(p as i64)),
                ),
                ("source", Value::Str(c.source.clone())),
                ("fidelity", Value::Str(Fidelity::Full.as_str().into())),
            ],
        ),
        (Response::Stats(s), _) => ok_object(
            "stats",
            stats_fields(s).map(|(name, v)| (name, Value::Int(v as i64))),
        ),
        (Response::Pong, _) => ok_object("ping", []),
        (Response::Error { kind, message }, _) => error_object(kind, message),
        (answer, _) => unreachable!("{answer:?} does not answer {request:?}"),
    }
}

/// Append the reply line answering `request` with `response` to `out`:
/// [`reply_value`] rendered, the trace id when one is given (the TCP
/// server's, see [`append_trace_id`]), and the newline.
pub(crate) fn encode_reply(
    out: &mut Vec<u8>,
    request: Option<&Request>,
    response: &Response,
    trace_id: Option<u64>,
) {
    let mut line = render(&reply_value(request, response));
    if let Some(id) = trace_id {
        append_trace_id(&mut line, id);
    }
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}

fn ok_object<const N: usize>(op: &str, fields: [(&str, Value); N]) -> Value {
    let mut object = Vec::with_capacity(N + 2);
    object.push(("ok".into(), Value::Bool(true)));
    object.push(("op".into(), Value::Str(op.into())));
    object.extend(fields.map(|(key, value)| (key.to_string(), value)));
    Value::Object(object)
}

/// A stats answer's fields in wire order (v1 key names; v2 takes the
/// same order).
pub(crate) fn stats_fields(s: &StatsAnswer) -> [(&'static str, u64); 12] {
    [
        ("entries", s.entries),
        ("capacity", s.capacity),
        ("hits", s.hits),
        ("misses", s.misses),
        ("evictions", s.evictions),
        ("disk_hits", s.disk_hits),
        ("characterizations", s.characterizations),
        ("coalesced", s.coalesced),
        ("inflight", s.inflight),
        ("analytic_served", s.analytic_served),
        ("regressed_served", s.regressed_served),
        ("upgrades_done", s.upgrades_done),
    ]
}

/// Decode a reply line into a [`Response`], the inverse of
/// [`reply_value`] + [`render`]. The module and data echoes are not part
/// of the typed answer and are not checked.
///
/// # Errors
///
/// A message naming what is wrong with the line (bad JSON, missing or
/// mistyped field, unknown op or fidelity).
pub fn decode_reply(line: &str) -> Result<Response, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad v1 reply JSON: {e}"))?;
    let ok = value
        .get("ok")
        .and_then(Value::as_bool)
        .ok_or("v1 reply without `ok`")?;
    if !ok {
        let error = value.get("error").cloned().unwrap_or(Value::Null);
        return Ok(Response::Error {
            kind: str_field(&error, "kind").unwrap_or_else(|_| "unknown".into()),
            message: str_field(&error, "message").unwrap_or_default(),
        });
    }
    match value.get("op").and_then(Value::as_str) {
        Some("estimate") => {
            let fidelity = str_field(&value, "fidelity")?;
            Ok(Response::Estimate(EstimateAnswer {
                charge_per_cycle: f64_field(&value, "charge_per_cycle")?,
                via_average: f64_field(&value, "via_average")?,
                average_hd: f64_field(&value, "average_hd")?,
                source: str_field(&value, "source")?,
                fidelity: Fidelity::parse(&fidelity)
                    .ok_or_else(|| format!("unknown fidelity `{fidelity}`"))?,
                confidence: f64_field(&value, "confidence")?,
            }))
        }
        Some("characterize") => Ok(Response::Characterize(CharacterizeAnswer {
            input_bits: u32::try_from(u64_field(&value, "input_bits")?)
                .map_err(|_| "input_bits out of range".to_string())?,
            transitions: u64_field(&value, "transitions")?,
            converged_after: match value.get("converged_after") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("non-integer converged_after")?),
            },
            source: str_field(&value, "source")?,
        })),
        Some("stats") => {
            let mut fields = [0u64; 12];
            for (slot, (name, _)) in fields.iter_mut().zip(stats_fields(&StatsAnswer::default())) {
                *slot = u64_field(&value, name)?;
            }
            Ok(Response::Stats(StatsAnswer::from_fields(fields)))
        }
        Some("ping") => Ok(Response::Pong),
        other => Err(format!("v1 reply with unexpected op {other:?}")),
    }
}

fn f64_field(value: &Value, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("v1 reply missing number `{key}`"))
}

fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("v1 reply missing integer `{key}`"))
}

fn str_field(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("v1 reply missing string `{key}`"))
}

/// Execute a decoded line with the stdin transport's defaults (floor
/// `full`, no deadline, no cluster) and build its reply value.
///
/// # Errors
///
/// The request's `bad_request`, or [`ErrorKind::Engine`] for engine
/// failures.
pub fn handle(engine: &Arc<PowerEngine>, decoded: &Decoded) -> Result<Value, RequestError> {
    // A one-shot call has no server or loop to own a distribution memo,
    // so repeated calls share one per calling thread. Servers and
    // `serve_lines` never touch it.
    thread_local! {
        static DISTS: DistMemo = DistMemo::new();
    }
    let request = decoded.request.as_ref().map_err(Clone::clone)?;
    let mut trace = TraceCtx::disabled();
    let done = DISTS.with(|dists| {
        ExecCtx::stdio(engine, Fidelity::Full, dists, &mut trace).execute(Ok(request), None, None)
    });
    match done.response {
        Response::Error { kind, message } => Err((
            ErrorKind::parse(&kind).expect("the request core emits known kinds"),
            message,
        )),
        response => Ok(reply_value(Some(request), &response)),
    }
}

/// The request/reply loop over byte streams: `hdpm serve`'s engine room,
/// also driven in-memory by tests and the golden-transcript replay.
/// Reads raw bytes (not [`BufRead::lines`]) so invalid UTF-8 yields a
/// structured reply instead of an `io::Error` that would end the loop.
/// `floor` is the default fidelity floor for estimates that name none
/// (`full` preserves the golden transcript); per-request deadlines are
/// ignored.
///
/// # Errors
///
/// Only transport failures (reading input, writing output) end the loop.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &Arc<PowerEngine>,
    floor: Fidelity,
    mut input: R,
    mut output: W,
) -> std::io::Result<()> {
    let _span = hdpm_telemetry::span("serve.loop");
    let dists = DistMemo::new();
    let mut trace = TraceCtx::disabled();
    let mut raw = Vec::new();
    let mut reply = Vec::new();
    loop {
        raw.clear();
        if input.read_until(b'\n', &mut raw)? == 0 {
            return Ok(());
        }
        let Some(decoded) = decode_line(trim_line(&raw)) else {
            continue;
        };
        let request = decoded.request.as_ref();
        let done = ExecCtx::stdio(engine, floor, &dists, &mut trace).execute(request, None, None);
        reply.clear();
        encode_reply(&mut reply, request.ok(), &done.response, None);
        output.write_all(&reply)?;
        output.flush()?;
    }
}

/// Strip one trailing `\n` or `\r\n` from a raw line.
pub fn trim_line(raw: &[u8]) -> &[u8] {
    let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
    raw.strip_suffix(b"\r").unwrap_or(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
    use hdpm_netlist::ModuleKind;

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

    fn run(engine: &Arc<PowerEngine>, script: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        serve_lines(engine, Fidelity::Full, script, &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    }

    #[test]
    fn estimate_then_stats_round_trip() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":4}\n\
              {\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\"}\n\
              {\"op\":\"stats\"}\n",
        );
        assert_eq!(replies.len(), 3);
        assert!(replies[0].contains("\"ok\":true"));
        assert!(replies[0].contains("\"source\":\"fresh\""));
        assert!(replies[1].contains("\"source\":\"memory\""));
        assert!(replies[1].contains("charge_per_cycle"));
        assert!(replies[2].contains("\"characterizations\":1"));
        assert!(replies[2].contains("\"inflight\":0"));
    }

    #[test]
    fn failures_are_structured_and_do_not_stop_the_loop() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"not json\n\
              {\"op\":\"transmogrify\"}\n\
              {\"op\":\"estimate\",\"module\":\"warp_core\",\"width\":4}\n\
              {\"op\":\"estimate\",\"module\":\"ripple_adder\"}\n\
              \n\
              {\"op\":\"stats\"}\n",
        );
        assert_eq!(replies.len(), 5, "blank lines skipped, errors replied");
        assert!(replies[0].contains("\"ok\":false"));
        assert!(replies[0].contains("\"kind\":\"malformed\""));
        assert!(replies[0].contains("malformed request"));
        assert!(replies[1].contains("\"kind\":\"bad_request\""));
        assert!(replies[1].contains("unknown op `transmogrify`"));
        assert!(replies[2].contains("unknown module kind `warp_core`"));
        assert!(replies[3].contains("missing field `width`"));
        assert!(replies[4].contains("\"ok\":true"));
    }

    #[test]
    fn invalid_utf8_lines_reply_and_continue() {
        let engine = quick_engine();
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(b"{\"op\":\"stats\"}\n");
        script.extend_from_slice(&[0xFF, 0xFE, b'{', 0x80, b'\n']);
        script.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let replies = run(&engine, &script);
        assert_eq!(replies.len(), 3, "the bad line answered, the loop alive");
        assert!(replies[0].contains("\"ok\":true"));
        assert!(replies[1].contains("\"kind\":\"invalid_utf8\""));
        assert!(replies[1].contains("not valid UTF-8"));
        assert!(replies[2].contains("\"ok\":true"));
    }

    #[test]
    fn engine_failures_are_distinguished_from_bad_requests() {
        let engine = quick_engine();
        // Width 1 csa_multiplier fails netlist construction inside the
        // engine — a well-formed request the engine cannot serve.
        let replies = run(
            &engine,
            b"{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":1}\n",
        );
        assert!(replies[0].contains("\"kind\":\"engine\""), "{}", replies[0]);
    }

    #[test]
    fn width_two_counter_estimate_answers() {
        // A 2-bit counter alternates 0, 1, 0, 1, …, so its lag-1
        // correlation is exactly -1: the sign activity's limiting case.
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":2,\"data\":\"counter\",\"cycles\":512}\n\
              {\"op\":\"stats\"}\n",
        );
        assert_eq!(replies.len(), 2);
        assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);
        assert!(replies[0].contains("charge_per_cycle"), "{}", replies[0]);
        assert!(replies[1].contains("\"ok\":true"));
    }

    #[test]
    fn crlf_lines_are_tolerated() {
        let engine = quick_engine();
        let replies = run(&engine, b"{\"op\":\"stats\"}\r\n");
        assert!(replies[0].contains("\"ok\":true"));
    }

    #[test]
    fn replies_are_deterministic_for_a_fresh_engine() {
        let script: &[u8] =
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"speech\"}\n\
              {\"op\":\"stats\"}\n";
        assert_eq!(run(&quick_engine(), script), run(&quick_engine(), script));
    }

    #[test]
    fn default_floor_replies_are_labeled_full() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4}\n",
        );
        assert!(
            replies[0].contains("\"fidelity\":\"full\""),
            "{}",
            replies[0]
        );
        assert!(replies[0].contains("\"confidence\":1"), "{}", replies[0]);
    }

    #[test]
    fn per_request_floor_serves_an_instant_analytic_answer() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"fidelity_floor\":\"analytic\"}\n",
        );
        assert!(
            replies[0].contains("\"fidelity\":\"analytic\""),
            "{}",
            replies[0]
        );
        assert!(
            replies[0].contains("\"source\":\"analytic\""),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn unknown_floor_spellings_are_bad_requests() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"fidelity_floor\":\"fast\"}\n",
        );
        assert!(
            replies[0].contains("\"kind\":\"bad_request\""),
            "{}",
            replies[0]
        );
        assert!(
            replies[0].contains("unknown fidelity floor `fast`"),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn characterize_replies_are_labeled_full_fidelity() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":4}\n",
        );
        assert!(
            replies[0].contains("\"fidelity\":\"full\""),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn stats_reports_the_fidelity_counters() {
        let engine = quick_engine();
        let replies = run(&engine, b"{\"op\":\"stats\"}\n");
        for field in ["analytic_served", "regressed_served", "upgrades_done"] {
            assert!(replies[0].contains(field), "{}", replies[0]);
        }
    }

    #[test]
    fn v1_estimate_line_decodes_as_a_protocol_request() {
        let request = Request::Estimate {
            spec: ModuleSpec::new(ModuleKind::CsaMultiplier, ModuleWidth::Rect(6, 4)),
            data: data_type("speech").expect("known type"),
            cycles: 1500,
            seed: 11,
            floor: Some(Fidelity::Analytic),
        };
        let line = encode_request(&request, Some(250)).expect("encodable");
        assert_eq!(
            line,
            "{\"op\":\"estimate\",\"module\":\"csa_multiplier\",\"width\":6,\"width2\":4,\"data\":\"speech\",\"cycles\":1500,\"seed\":11,\"fidelity_floor\":\"analytic\",\"deadline_ms\":250}"
        );
        assert_eq!(
            decode(line.as_bytes()).expect("decodes"),
            Some(Decoded {
                request: Ok(request),
                deadline_ms: Some(250),
            })
        );

        // No floor named → no field on the wire (server default applies).
        let line = encode_request(
            &Request::Estimate {
                spec: ModuleSpec::new(ModuleKind::RippleAdder, 8),
                data: data_type("random").expect("known type"),
                cycles: 500,
                seed: 1,
                floor: None,
            },
            None,
        )
        .expect("encodable");
        assert!(!line.contains("fidelity_floor"), "{line}");
    }

    #[test]
    fn v1_characterize_and_stats_lines_decode() {
        for request in [
            Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::RippleAdder, 8),
            },
            Request::Stats,
        ] {
            let line = encode_request(&request, None).expect("encodable");
            let decoded = decode(line.as_bytes())
                .expect("decodes")
                .expect("not blank");
            assert_eq!(decoded.request, Ok(request));
            assert_eq!(decoded.deadline_ms, None);
        }
    }

    #[test]
    fn ping_is_rejected_on_v1() {
        assert_eq!(encode_request(&Request::Ping, None), None);
    }

    #[test]
    fn defaults_fill_absent_estimate_fields() {
        let decoded = decode(b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4}")
            .expect("decodes")
            .expect("not blank");
        assert_eq!(
            decoded.request,
            Ok(Request::Estimate {
                spec: ModuleSpec::new(ModuleKind::RippleAdder, 4),
                data: data_type("random").expect("known type"),
                cycles: 2000,
                seed: 7,
                floor: None,
            })
        );
    }

    #[test]
    fn v1_replies_decode_to_typed_responses() {
        let estimate = decode_reply(
            "{\"ok\":true,\"op\":\"estimate\",\"module\":\"ripple_adder_4\",\"data\":\"V (counter)\",\"charge_per_cycle\":67.77,\"via_average\":70.92,\"average_hd\":3.2,\"source\":\"memory\",\"fidelity\":\"full\",\"confidence\":1.0}",
        )
        .expect("decodes");
        assert!(matches!(
            estimate,
            Response::Estimate(EstimateAnswer { ref source, fidelity: Fidelity::Full, .. })
                if source == "memory"
        ));

        let tiered = decode_reply(
            "{\"ok\":true,\"op\":\"estimate\",\"module\":\"ripple_adder_4\",\"data\":\"random\",\"charge_per_cycle\":60.0,\"via_average\":61.0,\"average_hd\":3.1,\"source\":\"analytic\",\"fidelity\":\"analytic\",\"confidence\":0.25}",
        )
        .expect("decodes");
        assert!(matches!(
            tiered,
            Response::Estimate(EstimateAnswer { fidelity: Fidelity::Analytic, confidence, .. })
                if confidence == 0.25
        ));

        let characterize = decode_reply(
            "{\"ok\":true,\"op\":\"characterize\",\"module\":\"ripple_adder_4\",\"input_bits\":8,\"transitions\":1496,\"converged_after\":null,\"source\":\"fresh\"}",
        )
        .expect("decodes");
        assert_eq!(
            characterize,
            Response::Characterize(CharacterizeAnswer {
                input_bits: 8,
                transitions: 1496,
                converged_after: None,
                source: "fresh".into(),
            })
        );

        let error = decode_reply(
            "{\"ok\":false,\"error\":{\"kind\":\"timeout\",\"message\":\"deadline exceeded\"}}",
        )
        .expect("decodes");
        assert_eq!(
            error,
            Response::Error {
                kind: "timeout".into(),
                message: "deadline exceeded".into(),
            }
        );
    }
}
