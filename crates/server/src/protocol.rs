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
//! Lines decode straight into the typed [`Request`] through the pull
//! [`Reader`] of the vendored `serde_json`, and replies encode straight
//! from the typed [`Response`] ([`encode_reply`]); no JSON tree is built
//! on either end, here or in the client. [`reply_value`] builds the same
//! reply as a `Value` tree: it is the encoder's test oracle and what
//! [`handle`] returns. Execution is the server's one request core
//! (`exec.rs`), which the v2 codec ([`crate::wire`]) feeds as well.
//! Every failure produces a structured reply
//! `{"ok":false,"error":{"kind":"<kind>","message":"<detail>"}}` and never
//! tears the transport down; [`ErrorKind`] enumerates the kinds. Blank
//! lines are skipped. The transcript in `docs/engine.md` is a golden
//! fixture: both transports must replay it byte-identically
//! (`crates/server/tests/golden.rs`).

use std::borrow::Cow;
use std::io::{BufRead, Write};
use std::sync::Arc;

use hdpm_core::{Fidelity, PowerEngine};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use hdpm_streams::{DataType, ALL_DATA_TYPES};
use hdpm_telemetry::TraceCtx;
use serde::Value;
use serde_json::{Event, Reader};

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

/// The fields of a request line, read straight off the text. Unknown
/// keys are skipped, the first of duplicate keys wins, and absent
/// optional keys fall back to the same defaults as the batch
/// subcommands.
#[derive(Default)]
struct Line<'a> {
    op: Option<Cow<'a, str>>,
    module: Option<Cow<'a, str>>,
    width: Option<usize>,
    width2: Option<usize>,
    data: Option<Cow<'a, str>>,
    cycles: Option<usize>,
    seed: Option<u64>,
    deadline_ms: Option<u64>,
    fidelity_floor: Option<Cow<'a, str>>,
}

/// The request keys in the order their type errors are reported.
const LINE_KEYS: [&str; 9] = [
    "op",
    "module",
    "width",
    "width2",
    "data",
    "cycles",
    "seed",
    "deadline_ms",
    "fidelity_floor",
];

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
    let line =
        Line::read(text).map_err(|e| (ErrorKind::Malformed, format!("malformed request: {e}")))?;
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

impl<'a> Line<'a> {
    /// Read a request object. A syntax error anywhere in the text comes
    /// first; then the first mistyped key in [`LINE_KEYS`] order, a
    /// missing `op` counting as `null`.
    fn read(text: &'a str) -> Result<Line<'a>, String> {
        let mut reader = Reader::new(text);
        let mut line = Line::default();
        let mut seen = 0u16;
        let mut shape: Option<(usize, String)> = None;
        let top = reader
            .next_event()
            .map_err(|e| e.to_string())?
            .expect("a document holds a value");
        if top != Event::StartObject {
            reader.finish().map_err(|e| e.to_string())?;
            return Err(format!("expected object for Line, found {}", top.kind()));
        }
        members(&mut reader, |_, key, value| {
            let Some(slot) = LINE_KEYS.iter().position(|k| *k == key) else {
                return Ok(());
            };
            if seen & (1 << slot) != 0 {
                return Ok(());
            }
            seen |= 1 << slot;
            if let Err(e) = line.set(slot, value) {
                if shape.as_ref().is_none_or(|(first, _)| slot < *first) {
                    shape = Some((slot, format!("Line.{}: {e}", LINE_KEYS[slot])));
                }
            }
            Ok(())
        })
        .and_then(|()| reader.finish())
        .map_err(|e| e.to_string())?;
        match shape {
            Some((0, message)) => Err(message),
            _ if line.op.is_none() => Err("Line.op: expected string, found null".into()),
            Some((_, message)) => Err(message),
            None => Ok(line),
        }
    }

    /// Store the value of key `LINE_KEYS[slot]`; `null` leaves it absent.
    fn set(&mut self, slot: usize, value: Event<'a>) -> Result<(), String> {
        if value == Event::Null {
            return Ok(());
        }
        match slot {
            0 => self.op = Some(string(value)?),
            1 => self.module = Some(string(value)?),
            2 => self.width = Some(unsigned(value)?),
            3 => self.width2 = Some(unsigned(value)?),
            4 => self.data = Some(string(value)?),
            5 => self.cycles = Some(unsigned(value)?),
            6 => self.seed = Some(unsigned(value)?),
            7 => self.deadline_ms = Some(unsigned(value)?),
            _ => self.fidelity_floor = Some(string(value)?),
        }
        Ok(())
    }

    fn resolve(&self) -> Result<Request, RequestError> {
        let bad = |message: String| (ErrorKind::BadRequest, message);
        match self.op.as_deref().unwrap_or_default() {
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

/// Read the members of the object `reader` has just opened, handing each
/// key and the first event of its value to `member`. Whatever the
/// callback leaves unread of a container value is skipped.
fn members<'a>(
    reader: &mut Reader<'a>,
    mut member: impl FnMut(&mut Reader<'a>, Cow<'a, str>, Event<'a>) -> Result<(), serde_json::Error>,
) -> Result<(), serde_json::Error> {
    let depth = reader.depth();
    while let Some(Event::Key(key)) = reader.next_event()? {
        let value = reader
            .next_event()?
            .expect("a key is followed by its value");
        member(reader, key, value)?;
        while reader.depth() > depth {
            reader.next_event()?;
        }
    }
    Ok(())
}

/// A string value, as the derived request decoder typed it.
fn string(value: Event<'_>) -> Result<Cow<'_, str>, String> {
    match value {
        Event::Str(s) => Ok(s),
        other => Err(format!("expected string, found {}", other.kind())),
    }
}

/// A non-negative integer value, as the derived request decoder typed
/// it.
fn unsigned<T: TryFrom<u64>>(value: Event<'_>) -> Result<T, String> {
    let raw = match value {
        Event::Int(i) if i >= 0 => i as u64,
        Event::UInt(u) => u,
        other => return Err(format!("expected unsigned integer, found {}", other.kind())),
    };
    T::try_from(raw).map_err(|_| {
        format!(
            "integer {raw} out of range for {}",
            std::any::type_name::<T>()
        )
    })
}

/// Encode a request as its JSON line (without the newline), the inverse
/// of [`decode`]. `None` for [`Request::Ping`] and the cluster ops, which
/// v1 cannot express.
pub fn encode_request(request: &Request, deadline_ms: Option<u64>) -> Option<String> {
    let mut line = Vec::with_capacity(96);
    write_request(&mut line, request, deadline_ms)
        .then(|| String::from_utf8(line).expect("the encoder writes UTF-8"))
}

/// Append [`encode_request`]'s line to `out`; `false`, with nothing
/// appended, when v1 cannot express the request.
pub(crate) fn write_request(
    out: &mut Vec<u8>,
    request: &Request,
    deadline_ms: Option<u64>,
) -> bool {
    let spec = match request {
        Request::Estimate { spec, .. } | Request::Characterize { spec } => spec,
        Request::Stats => {
            out.extend_from_slice(b"{\"op\":\"stats\"");
            write_deadline(out, deadline_ms);
            return true;
        }
        Request::Ping | Request::FetchModel { .. } | Request::WarmKeys { .. } => return false,
    };
    write!(
        out,
        "{{\"op\":\"{}\",\"module\":\"{}\"",
        request.opcode().as_str(),
        spec.kind
    )
    .expect("write to a Vec");
    match spec.width {
        ModuleWidth::Uniform(w) => write!(out, ",\"width\":{w}"),
        ModuleWidth::Rect(m1, m2) => write!(out, ",\"width\":{m1},\"width2\":{m2}"),
    }
    .expect("write to a Vec");
    if let Request::Estimate {
        data,
        cycles,
        seed,
        floor,
        ..
    } = request
    {
        write!(
            out,
            ",\"data\":\"{}\",\"cycles\":{cycles},\"seed\":{seed}",
            data.name()
        )
        .expect("write to a Vec");
        if let Some(floor) = floor {
            write!(out, ",\"fidelity_floor\":\"{floor}\"").expect("write to a Vec");
        }
    }
    write_deadline(out, deadline_ms);
    true
}

/// Close a request line, with its deadline when it has one.
fn write_deadline(out: &mut Vec<u8>, deadline_ms: Option<u64>) {
    if let Some(ms) = deadline_ms {
        write!(out, ",\"deadline_ms\":{ms}").expect("write to a Vec");
    }
    out.push(b'}');
}

/// The reply object answering `request` with `response`, as a `Value`
/// tree: [`encode_reply`] writes exactly its rendered bytes. Estimate and
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

/// Append the reply line answering `request` with `response` to `out`,
/// written straight from the typed answer: the bytes of
/// [`reply_value`] rendered, then the trace id when one is given (the
/// TCP server's: `,"trace":"t…"` before the closing brace, so clients
/// can join a reply against the flight recorder and slow-request log;
/// the stdin transport gives none, so its golden transcript is id-free),
/// and the newline.
pub fn encode_reply(
    out: &mut Vec<u8>,
    request: Option<&Request>,
    response: &Response,
    trace_id: Option<u64>,
) {
    encode_reply_body(out, request, response);
    close_reply(out, trace_id);
}

/// The reply line of [`encode_reply`] up to its trace id: the object
/// left open, so [`close_reply`] can finish it. The server's reply memo
/// keeps estimate bodies in this form.
pub(crate) fn encode_reply_body(out: &mut Vec<u8>, request: Option<&Request>, response: &Response) {
    use serde_json::{write_f64, write_str, write_str_fmt};
    match (response, request) {
        (Response::Estimate(a), Some(Request::Estimate { spec, data, .. })) => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"estimate\",\"module\":");
            write_str_fmt(out, format_args!("{spec}"));
            out.extend_from_slice(b",\"data\":");
            write_str_fmt(out, format_args!("{data}"));
            out.extend_from_slice(b",\"charge_per_cycle\":");
            write_f64(out, a.charge_per_cycle);
            out.extend_from_slice(b",\"via_average\":");
            write_f64(out, a.via_average);
            out.extend_from_slice(b",\"average_hd\":");
            write_f64(out, a.average_hd);
            out.extend_from_slice(b",\"source\":");
            write_str(out, &a.source);
            out.extend_from_slice(b",\"fidelity\":");
            write_str(out, a.fidelity.as_str());
            out.extend_from_slice(b",\"confidence\":");
            write_f64(out, a.confidence);
        }
        (Response::Characterize(c), Some(Request::Characterize { spec })) => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"characterize\",\"module\":");
            write_str_fmt(out, format_args!("{spec}"));
            write!(
                out,
                ",\"input_bits\":{},\"transitions\":{},\"converged_after\":",
                c.input_bits, c.transitions as i64
            )
            .expect("write to a Vec");
            match c.converged_after {
                Some(p) => write!(out, "{}", p as i64).expect("write to a Vec"),
                None => out.extend_from_slice(b"null"),
            }
            out.extend_from_slice(b",\"source\":");
            write_str(out, &c.source);
            out.extend_from_slice(b",\"fidelity\":");
            write_str(out, Fidelity::Full.as_str());
        }
        (Response::Stats(s), _) => {
            out.extend_from_slice(b"{\"ok\":true,\"op\":\"stats\"");
            for (name, v) in stats_fields(s) {
                write!(out, ",\"{name}\":{}", v as i64).expect("write to a Vec");
            }
        }
        (Response::Pong, _) => out.extend_from_slice(b"{\"ok\":true,\"op\":\"ping\""),
        (Response::Error { kind, message }, _) => {
            out.extend_from_slice(b"{\"ok\":false,\"error\":{\"kind\":");
            write_str(out, kind);
            out.extend_from_slice(b",\"message\":");
            write_str(out, message);
            out.push(b'}');
        }
        (answer, _) => unreachable!("{answer:?} does not answer {request:?}"),
    }
}

/// Close a reply body from [`encode_reply_body`]: the trace id when one
/// is given, the closing brace and the newline.
pub(crate) fn close_reply(out: &mut Vec<u8>, trace_id: Option<u64>) {
    if let Some(id) = trace_id {
        out.extend_from_slice(b",\"trace\":\"");
        out.extend_from_slice(&hdpm_telemetry::trace::trace_id_bytes(id));
        out.push(b'"');
    }
    out.extend_from_slice(b"}\n");
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

/// A reply key [`decode_reply`] reads; `Kind` and `Message` are read
/// inside `error`. Its discriminant is its slot in [`ReplyFields`]; the
/// stats counters take the slots after [`ReplyKey::STATS`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReplyKey {
    Ok,
    Op,
    Error,
    Kind,
    Message,
    Fidelity,
    Source,
    ChargePerCycle,
    ViaAverage,
    AverageHd,
    Confidence,
    InputBits,
    Transitions,
    ConvergedAfter,
}

impl ReplyKey {
    /// The first stats counter's slot.
    const STATS: usize = ReplyKey::ConvergedAfter as usize + 1;

    /// The slot of a top-level member name, if [`decode_reply`] reads
    /// it.
    fn slot_of(name: &str) -> Option<usize> {
        let key = match name {
            "ok" => ReplyKey::Ok,
            "op" => ReplyKey::Op,
            "error" => ReplyKey::Error,
            "fidelity" => ReplyKey::Fidelity,
            "source" => ReplyKey::Source,
            "charge_per_cycle" => ReplyKey::ChargePerCycle,
            "via_average" => ReplyKey::ViaAverage,
            "average_hd" => ReplyKey::AverageHd,
            "confidence" => ReplyKey::Confidence,
            "input_bits" => ReplyKey::InputBits,
            "transitions" => ReplyKey::Transitions,
            "converged_after" => ReplyKey::ConvergedAfter,
            "module" | "data" | "trace" => return None,
            _ => {
                return stats_fields(&StatsAnswer::default())
                    .iter()
                    .position(|(stat, _)| *stat == name)
                    .map(|i| ReplyKey::STATS + i)
            }
        };
        Some(key as usize)
    }
}

/// The first value under each key [`decode_reply`] reads, by slot: its
/// scalar event, or the event opening a container.
struct ReplyFields<'a>([Option<Event<'a>>; ReplyKey::STATS + 12]);

impl<'a> ReplyFields<'a> {
    fn read(line: &'a str) -> Result<ReplyFields<'a>, serde_json::Error> {
        let mut fields = ReplyFields([const { None }; ReplyKey::STATS + 12]);
        let mut reader = Reader::new(line);
        let top = reader.next_event()?.expect("a document holds a value");
        if top == Event::StartObject {
            let slots = &mut fields.0;
            members(&mut reader, |reader, name, value| {
                let Some(slot) = ReplyKey::slot_of(&name) else {
                    return Ok(());
                };
                if slots[slot].is_some() {
                    return Ok(());
                }
                if slot == ReplyKey::Error as usize && value == Event::StartObject {
                    members(reader, |_, name, value| {
                        let key = match &*name {
                            "kind" => ReplyKey::Kind,
                            "message" => ReplyKey::Message,
                            _ => return Ok(()),
                        };
                        slots[key as usize].get_or_insert(value);
                        Ok(())
                    })?;
                }
                slots[slot] = Some(value);
                Ok(())
            })?;
        }
        reader.finish()?;
        Ok(fields)
    }

    fn get(&self, key: ReplyKey) -> Option<&Event<'a>> {
        self.0[key as usize].as_ref()
    }

    fn str(&self, key: ReplyKey) -> Option<&str> {
        match self.get(key) {
            Some(Event::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn string(&self, key: ReplyKey, name: &str) -> Result<String, String> {
        self.str(key)
            .map(str::to_string)
            .ok_or_else(|| format!("v1 reply missing string `{name}`"))
    }

    fn f64(&self, key: ReplyKey, name: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(&Event::Int(i)) => Ok(i as f64),
            Some(&Event::UInt(u)) => Ok(u as f64),
            Some(&Event::Float(f)) => Ok(f),
            _ => Err(format!("v1 reply missing number `{name}`")),
        }
    }

    fn u64(&self, slot: usize, name: &str) -> Result<u64, String> {
        self.0[slot]
            .as_ref()
            .and_then(as_u64)
            .ok_or_else(|| format!("v1 reply missing integer `{name}`"))
    }
}

/// A non-negative integer event's value.
fn as_u64(value: &Event<'_>) -> Option<u64> {
    match *value {
        Event::Int(i) if i >= 0 => Some(i as u64),
        Event::UInt(u) => Some(u),
        _ => None,
    }
}

/// Decode a reply line into a [`Response`], the inverse of
/// [`encode_reply`]. The module and data echoes are not part of the
/// typed answer and are not checked.
///
/// # Errors
///
/// A message naming what is wrong with the line (bad JSON, missing or
/// mistyped field, unknown op or fidelity).
pub fn decode_reply(line: &str) -> Result<Response, String> {
    use ReplyKey as K;
    let reply = ReplyFields::read(line).map_err(|e| format!("bad v1 reply JSON: {e}"))?;
    let ok = match reply.get(K::Ok) {
        Some(&Event::Bool(ok)) => ok,
        _ => return Err("v1 reply without `ok`".into()),
    };
    if !ok {
        return Ok(Response::Error {
            kind: reply.str(K::Kind).unwrap_or("unknown").to_string(),
            message: reply.str(K::Message).unwrap_or_default().to_string(),
        });
    }
    match reply.str(K::Op) {
        Some("estimate") => {
            let fidelity = reply
                .str(K::Fidelity)
                .ok_or("v1 reply missing string `fidelity`")?;
            Ok(Response::Estimate(EstimateAnswer {
                charge_per_cycle: reply.f64(K::ChargePerCycle, "charge_per_cycle")?,
                via_average: reply.f64(K::ViaAverage, "via_average")?,
                average_hd: reply.f64(K::AverageHd, "average_hd")?,
                source: reply.string(K::Source, "source")?,
                fidelity: Fidelity::parse(fidelity)
                    .ok_or_else(|| format!("unknown fidelity `{fidelity}`"))?,
                confidence: reply.f64(K::Confidence, "confidence")?,
            }))
        }
        Some("characterize") => Ok(Response::Characterize(CharacterizeAnswer {
            input_bits: u32::try_from(reply.u64(K::InputBits as usize, "input_bits")?)
                .map_err(|_| "input_bits out of range".to_string())?,
            transitions: reply.u64(K::Transitions as usize, "transitions")?,
            converged_after: match reply.get(K::ConvergedAfter) {
                None | Some(Event::Null) => None,
                Some(v) => Some(as_u64(v).ok_or("non-integer converged_after")?),
            },
            source: reply.string(K::Source, "source")?,
        })),
        Some("stats") => {
            let mut fields = [0u64; 12];
            for (i, (slot, (name, _))) in fields
                .iter_mut()
                .zip(stats_fields(&StatsAnswer::default()))
                .enumerate()
            {
                *slot = reply.u64(K::STATS + i, name)?;
            }
            Ok(Response::Stats(StatsAnswer::from_fields(fields)))
        }
        Some("ping") => Ok(Response::Pong),
        other => Err(format!("v1 reply with unexpected op {other:?}")),
    }
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
        ExecCtx::stdio(engine, Fidelity::Full, dists, &mut trace).execute(Ok(request), None)
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
        let done = ExecCtx::stdio(engine, floor, &dists, &mut trace).execute(request, None);
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
