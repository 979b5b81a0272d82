//! Protocol v2: length-prefixed binary frames with request ids — the
//! multiplexed wire format of the TCP server.
//!
//! v1 (JSON lines, [`crate::protocol`]) has no request ids, so a
//! per-connection sequencer must hold replies until their predecessors
//! are written and one slow characterization stalls every pipelined
//! request behind it. v2 puts an id, an opcode and a per-request
//! deadline **in band**, so workers answer out of order and clients
//! correlate by id.
//!
//! # Negotiation
//!
//! A v2 client opens with the 8-byte preamble [`MAGIC`]
//! (`\0HDPMv2\n`). Its first byte is NUL, which can never begin a v1
//! JSON-lines request, so the server decides the protocol from the very
//! first byte received: `0x00` → v2 frames, anything else → v1 compat
//! (byte-identical to the historical server, golden fixtures included).
//! The server sends no banner in either mode; a v2 client simply starts
//! framing after the preamble.
//!
//! # Frame layout (both directions, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     len    — payload length in bytes (≤ MAX_PAYLOAD)
//! 4       8     id     — request id, echoed verbatim in the reply
//! 12      1     op     — request: opcode; reply: status (0 = ok)
//! 13      4     extra  — request: deadline_ms (0 = none);
//!                        reply: flags (bit 0 = FLAG_LATE)
//! 17      len   payload
//! ```
//!
//! Request payloads are fixed-layout binary; ok-reply payloads are
//! op-specific binary records the client decodes by remembering which op
//! it sent under that id; error-reply payloads are the UTF-8 error
//! message, with the [`ErrorKind`] carried as the status byte. Full field
//! tables: `docs/protocol.md`.
//!
//! [`encode_request`]/[`decode_request`] and [`encode_reply`]/
//! [`decode_reply`] map frames to and from the typed
//! [`crate::client::Request`] and [`crate::client::Response`], the form
//! the server's request core and the client share with the v1 codec.
//! The cluster ops (fetch-model, warm-keys) travel the same way; only
//! v2 can express them.

use hdpm_core::{CacheSource, Estimate, Fidelity};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use hdpm_streams::{DataType, ALL_DATA_TYPES};

use crate::client::{CharacterizeAnswer, EstimateAnswer, Request, Response, StatsAnswer};
use crate::protocol::{self, ErrorKind, RequestError};

/// The v2 preamble a client writes immediately after connecting. First
/// byte NUL: unambiguous against any v1 JSON-lines opener.
pub const MAGIC: [u8; 8] = *b"\0HDPMv2\n";

/// Bytes of a frame header (`len`, `id`, `op`, `extra`).
pub const HEADER_LEN: usize = 17;

/// Upper bound on a frame payload; a peer announcing more is protocol
/// abuse and the connection is torn down.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Reply flag: the request's in-band deadline expired while it was
/// executing, and this is the full (late) answer rather than a timeout.
/// See `docs/protocol.md` § deadline semantics.
pub const FLAG_LATE: u32 = 1;

/// Reply status: success (the payload is the op-specific record).
pub const STATUS_OK: u8 = 0;

/// v2 request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Analytic power estimate (payload: [`EstimateParams`]).
    Estimate = 1,
    /// Force a model into the cache (payload: 5-byte spec).
    Characterize = 2,
    /// Engine counter snapshot (empty payload).
    Stats = 3,
    /// Liveness no-op (empty payload, empty ok reply).
    Ping = 4,
    /// Cluster peer-fetch: stream a stored artifact's envelope bytes
    /// verbatim (payload: 5-byte spec; ok reply: the envelope, or empty
    /// when the artifact is not on disk).
    FetchModel = 5,
    // 6 is unassigned: decoding it answers `bad_request`.
    /// Cluster warm-key gossip: exchange hottest specs (payload and ok
    /// reply: a `u16` count and that many 5-byte specs).
    WarmKeys = 7,
}

impl Opcode {
    const ALL: [Opcode; 6] = [
        Opcode::Estimate,
        Opcode::Characterize,
        Opcode::Stats,
        Opcode::Ping,
        Opcode::FetchModel,
        Opcode::WarmKeys,
    ];

    /// Decode a wire opcode byte.
    pub fn from_u8(op: u8) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|o| *o as u8 == op)
    }

    /// The v1 `op` string this opcode corresponds to (trace records and
    /// the slow-request log keep using the v1 names).
    pub fn as_str(self) -> &'static str {
        match self {
            Opcode::Estimate => "estimate",
            Opcode::Characterize => "characterize",
            Opcode::Stats => "stats",
            Opcode::Ping => "ping",
            Opcode::FetchModel => "fetch-model",
            Opcode::WarmKeys => "warm-keys",
        }
    }
}

/// Map an [`ErrorKind`] to its reply status byte (its discriminant).
pub fn status_of(kind: ErrorKind) -> u8 {
    kind as u8
}

/// The [`ErrorKind`] behind a non-ok reply status byte.
pub fn kind_of(status: u8) -> Option<ErrorKind> {
    ErrorKind::ALL.into_iter().find(|k| status_of(*k) == status)
}

/// Wire code of a model source (reply payloads). `5` marks a reply
/// served from the server's reply memo — indistinguishable from a
/// memory hit in content, distinguishable on the wire so benchmarks and
/// tests can see the cache tier.
pub fn source_code(source: CacheSource) -> u8 {
    match source {
        CacheSource::Memory => 1,
        CacheSource::Disk => 2,
        CacheSource::Fresh => 3,
        CacheSource::Coalesced => 4,
        CacheSource::Analytic => 6,
        CacheSource::Regressed => 7,
    }
}

/// Source code of a reply served from the server's reply memo.
pub const SOURCE_MEMO: u8 = 5;

/// The v1 source strings, at their reply source code minus one.
const SOURCES: [&str; 7] = [
    "memory",
    "disk",
    "fresh",
    "coalesced",
    "memo",
    "analytic",
    "regressed",
];

/// The reply source code behind a v1 source string (`0`, never
/// assigned, for an unknown one).
fn source_code_of(source: &str) -> u8 {
    SOURCES
        .iter()
        .position(|s| *s == source)
        .map_or(0, |i| i as u8 + 1)
}

/// The v1 source string behind a reply source code.
pub fn source_str(code: u8) -> Option<&'static str> {
    SOURCES.get(usize::from(code).checked_sub(1)?).copied()
}

/// One decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes.
    pub len: u32,
    /// Request id (echoed in the reply).
    pub id: u64,
    /// Request opcode, or reply status.
    pub op: u8,
    /// Request deadline_ms (0 = none), or reply flags.
    pub extra: u32,
}

/// Decode the 17 header bytes. Infallible at this layer; `len` is the
/// caller's to validate against [`MAX_PAYLOAD`].
pub fn decode_header(raw: &[u8; HEADER_LEN]) -> FrameHeader {
    FrameHeader {
        len: u32::from_le_bytes(raw[0..4].try_into().expect("4 bytes")),
        id: u64::from_le_bytes(raw[4..12].try_into().expect("8 bytes")),
        op: raw[12],
        extra: u32::from_le_bytes(raw[13..17].try_into().expect("4 bytes")),
    }
}

/// Append one frame (header + payload) to `out`.
pub fn encode_frame(out: &mut Vec<u8>, id: u64, op: u8, extra: u32, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.push(op);
    out.extend_from_slice(&extra.to_le_bytes());
    out.extend_from_slice(payload);
}

// --- estimate ----------------------------------------------------------

/// Decoded payload of an [`Opcode::Estimate`] request (19 bytes on the
/// wire: module `u8`, m1 `u16`, m2 `u16` (0 = uniform), data `u8`,
/// cycles `u32`, seed `u64`, fidelity floor `u8` with 0 = server
/// default). Pre-fidelity 18-byte payloads are still accepted and read
/// as "server default".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimateParams {
    /// Module under estimation.
    pub spec: ModuleSpec,
    /// Operand stream statistics.
    pub data: DataType,
    /// Stream length in cycles.
    pub cycles: u32,
    /// Stream generator seed.
    pub seed: u64,
    /// Minimum fidelity tier the client accepts; `None` defers to the
    /// server's configured floor.
    pub floor: Option<Fidelity>,
}

/// Wire size of an estimate request payload.
pub const ESTIMATE_REQ_LEN: usize = 19;

/// Wire size of a pre-fidelity estimate request (no floor byte);
/// accepted for compatibility and treated as floor = server default.
pub const LEGACY_ESTIMATE_REQ_LEN: usize = 18;

fn module_code(kind: ModuleKind) -> u8 {
    // Position in the stable `ModuleKind::ALL` order (the `hdpm list`
    // order); fits u8 by construction (14 kinds).
    ModuleKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is in ALL") as u8
}

fn module_from_code(code: u8) -> Option<ModuleKind> {
    ModuleKind::ALL.get(code as usize).copied()
}

fn data_code(data: DataType) -> u8 {
    ALL_DATA_TYPES
        .iter()
        .position(|d| *d == data)
        .expect("every data type is in ALL_DATA_TYPES") as u8
}

fn data_from_code(code: u8) -> Option<DataType> {
    ALL_DATA_TYPES.get(code as usize).copied()
}

fn spec_bytes(spec: ModuleSpec) -> [u8; 5] {
    let (m1, m2) = match spec.width {
        ModuleWidth::Uniform(m) => (m, 0usize),
        ModuleWidth::Rect(m1, m2) => (m1, m2),
    };
    let mut out = [0u8; 5];
    out[0] = module_code(spec.kind);
    out[1..3].copy_from_slice(&(m1.min(u16::MAX as usize) as u16).to_le_bytes());
    out[3..5].copy_from_slice(&(m2.min(u16::MAX as usize) as u16).to_le_bytes());
    out
}

fn spec_from_bytes(raw: &[u8]) -> Result<ModuleSpec, String> {
    let kind = module_from_code(raw[0]).ok_or_else(|| format!("unknown module code {}", raw[0]))?;
    let m1 = u16::from_le_bytes(raw[1..3].try_into().expect("2 bytes")) as usize;
    let m2 = u16::from_le_bytes(raw[3..5].try_into().expect("2 bytes")) as usize;
    let width = if m2 == 0 {
        ModuleWidth::Uniform(m1)
    } else {
        ModuleWidth::Rect(m1, m2)
    };
    Ok(ModuleSpec::new(kind, width))
}

/// Render an estimate request payload.
pub fn encode_estimate_request(params: &EstimateParams) -> [u8; ESTIMATE_REQ_LEN] {
    let mut out = [0u8; ESTIMATE_REQ_LEN];
    out[0..5].copy_from_slice(&spec_bytes(params.spec));
    out[5] = data_code(params.data);
    out[6..10].copy_from_slice(&params.cycles.to_le_bytes());
    out[10..18].copy_from_slice(&params.seed.to_le_bytes());
    out[18] = params.floor.map_or(0, Fidelity::code);
    out
}

/// Decode an estimate request payload (current 19-byte or legacy
/// 18-byte layout).
///
/// # Errors
///
/// A message naming the malformed field (wrong length, unknown module,
/// data or fidelity code) — replied as [`ErrorKind::BadRequest`].
pub fn decode_estimate_request(payload: &[u8]) -> Result<EstimateParams, String> {
    if payload.len() != ESTIMATE_REQ_LEN && payload.len() != LEGACY_ESTIMATE_REQ_LEN {
        return Err(format!(
            "estimate payload must be {ESTIMATE_REQ_LEN} bytes ({LEGACY_ESTIMATE_REQ_LEN} legacy), got {}",
            payload.len()
        ));
    }
    let spec = spec_from_bytes(&payload[0..5])?;
    let data =
        data_from_code(payload[5]).ok_or_else(|| format!("unknown data code {}", payload[5]))?;
    let floor = match payload.get(18).copied().unwrap_or(0) {
        0 => None,
        code => {
            Some(Fidelity::from_code(code).ok_or_else(|| format!("unknown fidelity code {code}"))?)
        }
    };
    Ok(EstimateParams {
        spec,
        data,
        cycles: u32::from_le_bytes(payload[6..10].try_into().expect("4 bytes")),
        seed: u64::from_le_bytes(payload[10..18].try_into().expect("8 bytes")),
        floor,
    })
}

/// Wire size of an estimate ok-reply payload (3 × f64, source byte,
/// fidelity byte, confidence f64).
pub const ESTIMATE_REPLY_LEN: usize = 34;

/// Byte offset of the source code in an estimate ok reply — the one
/// byte the server's reply memo rewrites to [`SOURCE_MEMO`].
pub const ESTIMATE_REPLY_SOURCE_OFFSET: usize = 24;

/// Render an estimate ok-reply payload. `source` is a wire source code
/// ([`source_code`] or [`SOURCE_MEMO`]); fidelity and confidence come
/// from the estimate itself.
pub fn encode_estimate_reply(estimate: &Estimate, source: u8) -> [u8; ESTIMATE_REPLY_LEN] {
    estimate_reply(
        [
            estimate.charge_per_cycle,
            estimate.via_average,
            estimate.average_hd,
        ],
        source,
        estimate.fidelity,
        estimate.confidence,
    )
}

fn estimate_reply(
    charges: [f64; 3],
    source: u8,
    fidelity: Fidelity,
    confidence: f64,
) -> [u8; ESTIMATE_REPLY_LEN] {
    let mut out = [0u8; ESTIMATE_REPLY_LEN];
    for (slot, value) in out[..24].chunks_exact_mut(8).zip(charges) {
        slot.copy_from_slice(&value.to_le_bytes());
    }
    out[24] = source;
    out[25] = fidelity.code();
    out[26..34].copy_from_slice(&confidence.to_le_bytes());
    out
}

/// Wire size of a characterize ok-reply payload (input_bits `u32`,
/// transitions `u64`, converged_after `u64` with `u64::MAX` = never,
/// source `u8`).
pub const CHARACTERIZE_REPLY_LEN: usize = 21;

/// Wire size of a stats ok-reply payload (12 × u64 in
/// [`hdpm_core::EngineStats`] field order).
pub const STATS_REPLY_LEN: usize = 96;

// --- typed requests and replies ----------------------------------------

/// Append the frame carrying `request` under `id` to `out`, the inverse
/// of [`decode_request`]. `deadline_ms` 0 means none.
pub fn encode_request(out: &mut Vec<u8>, id: u64, request: &Request, deadline_ms: u32) {
    let op = request.opcode() as u8;
    match request {
        &Request::Estimate {
            spec,
            data,
            cycles,
            seed,
            floor,
        } => {
            let params = EstimateParams {
                spec,
                data,
                cycles,
                seed,
                floor,
            };
            encode_frame(out, id, op, deadline_ms, &encode_estimate_request(&params));
        }
        Request::Characterize { spec } | Request::FetchModel { spec } => {
            encode_frame(out, id, op, deadline_ms, &spec_bytes(*spec));
        }
        Request::Stats | Request::Ping => encode_frame(out, id, op, deadline_ms, &[]),
        Request::WarmKeys { specs } => encode_frame(out, id, op, deadline_ms, &warm_keys(specs)),
    }
}

/// Decode a request frame's opcode and payload into a [`Request`].
///
/// # Errors
///
/// [`ErrorKind::BadRequest`] naming an unknown opcode or the malformed
/// payload field.
pub fn decode_request(op: u8, payload: &[u8]) -> Result<Request, RequestError> {
    let bad = |message: String| (ErrorKind::BadRequest, message);
    match Opcode::from_u8(op) {
        Some(Opcode::Estimate) => {
            let p = decode_estimate_request(payload).map_err(bad)?;
            Ok(Request::Estimate {
                spec: p.spec,
                data: p.data,
                cycles: p.cycles,
                seed: p.seed,
                floor: p.floor,
            })
        }
        Some(Opcode::Characterize) => Ok(Request::Characterize {
            spec: spec_payload(payload, "characterize").map_err(bad)?,
        }),
        Some(Opcode::Stats) => Ok(Request::Stats),
        Some(Opcode::Ping) => Ok(Request::Ping),
        Some(Opcode::FetchModel) => Ok(Request::FetchModel {
            spec: spec_payload(payload, "spec").map_err(bad)?,
        }),
        Some(Opcode::WarmKeys) => Ok(Request::WarmKeys {
            specs: decode_warm_keys(payload).map_err(bad)?,
        }),
        None => Err(bad(format!("unknown opcode {op}"))),
    }
}

/// Append the reply frame carrying `response` under `id` to `out`;
/// `late` sets [`FLAG_LATE`].
pub fn encode_reply(out: &mut Vec<u8>, id: u64, late: bool, response: &Response) {
    let flags = if late { FLAG_LATE } else { 0 };
    match response {
        Response::Estimate(a) => {
            let payload = estimate_reply(
                [a.charge_per_cycle, a.via_average, a.average_hd],
                source_code_of(&a.source),
                a.fidelity,
                a.confidence,
            );
            encode_frame(out, id, STATUS_OK, flags, &payload);
        }
        Response::Characterize(c) => {
            let mut payload = [0u8; CHARACTERIZE_REPLY_LEN];
            payload[0..4].copy_from_slice(&c.input_bits.to_le_bytes());
            payload[4..12].copy_from_slice(&c.transitions.to_le_bytes());
            payload[12..20].copy_from_slice(&c.converged_after.unwrap_or(u64::MAX).to_le_bytes());
            payload[20] = source_code_of(&c.source);
            encode_frame(out, id, STATUS_OK, flags, &payload);
        }
        Response::Stats(s) => {
            let mut payload = [0u8; STATS_REPLY_LEN];
            for (slot, (_, value)) in payload.chunks_exact_mut(8).zip(protocol::stats_fields(s)) {
                slot.copy_from_slice(&value.to_le_bytes());
            }
            encode_frame(out, id, STATUS_OK, flags, &payload);
        }
        Response::Pong => encode_frame(out, id, STATUS_OK, flags, &[]),
        Response::Artifact(bytes) => {
            encode_frame(
                out,
                id,
                STATUS_OK,
                flags,
                bytes.as_deref().unwrap_or_default(),
            );
        }
        Response::WarmKeys(specs) => encode_frame(out, id, STATUS_OK, flags, &warm_keys(specs)),
        Response::Error { kind, message } => {
            let status = ErrorKind::parse(kind).map_or(status_of(ErrorKind::Engine), status_of);
            encode_frame(out, id, status, flags, message.as_bytes());
        }
    }
}

/// Decode a reply frame's status and payload into a [`Response`], given
/// the opcode of the request it answers (ok payloads are op-specific).
/// Error statuses decode to [`Response::Error`], unknown ones as kind
/// `status_<n>`.
///
/// # Errors
///
/// A message naming what violates the protocol: wrong payload length,
/// unassigned fidelity or source code, a malformed warm-keys list.
pub fn decode_reply(op: Opcode, status: u8, payload: &[u8]) -> Result<Response, String> {
    if status != STATUS_OK {
        return Ok(Response::Error {
            kind: kind_of(status).map_or_else(|| format!("status_{status}"), |k| k.as_str().into()),
            message: String::from_utf8_lossy(payload).into_owned(),
        });
    }
    let expect_len = |len: usize| {
        if payload.len() == len {
            Ok(())
        } else {
            Err(format!(
                "{} reply must be {len} bytes, got {}",
                op.as_str(),
                payload.len()
            ))
        }
    };
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    let f64_at = |at: usize| f64::from_bits(u64_at(at));
    let source = |code: u8| {
        source_str(code)
            .map(str::to_string)
            .ok_or_else(|| format!("unknown source code {code}"))
    };
    match op {
        Opcode::Estimate => {
            expect_len(ESTIMATE_REPLY_LEN)?;
            Ok(Response::Estimate(EstimateAnswer {
                charge_per_cycle: f64_at(0),
                via_average: f64_at(8),
                average_hd: f64_at(16),
                source: source(payload[24])?,
                fidelity: Fidelity::from_code(payload[25])
                    .ok_or_else(|| format!("unknown fidelity code {}", payload[25]))?,
                confidence: f64_at(26),
            }))
        }
        Opcode::Characterize => {
            expect_len(CHARACTERIZE_REPLY_LEN)?;
            let converged = u64_at(12);
            Ok(Response::Characterize(CharacterizeAnswer {
                input_bits: u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")),
                transitions: u64_at(4),
                converged_after: (converged != u64::MAX).then_some(converged),
                source: source(payload[20])?,
            }))
        }
        Opcode::Stats => {
            expect_len(STATS_REPLY_LEN)?;
            let mut fields = [0u64; 12];
            for (i, field) in fields.iter_mut().enumerate() {
                *field = u64_at(8 * i);
            }
            Ok(Response::Stats(StatsAnswer::from_fields(fields)))
        }
        Opcode::Ping if payload.is_empty() => Ok(Response::Pong),
        Opcode::Ping => Err("non-empty pong payload".into()),
        // Envelopes are never empty, so an empty payload unambiguously
        // means "answered, but not on disk".
        Opcode::FetchModel => Ok(Response::Artifact(
            (!payload.is_empty()).then(|| payload.to_vec()),
        )),
        Opcode::WarmKeys => decode_warm_keys(payload).map(Response::WarmKeys),
    }
}

// --- cluster: fetch-model / warm-keys ----------------------------------

/// Wire size of a spec payload (characterize, fetch-model).
pub const SPEC_REQ_LEN: usize = 5;

fn spec_payload(payload: &[u8], what: &str) -> Result<ModuleSpec, String> {
    if payload.len() != SPEC_REQ_LEN {
        return Err(format!(
            "{what} payload must be {SPEC_REQ_LEN} bytes, got {}",
            payload.len()
        ));
    }
    spec_from_bytes(payload)
}

/// Most specs one warm-keys frame may carry; senders truncate, receivers
/// reject (a bigger list is protocol abuse, not load).
pub const WARM_KEYS_MAX: usize = 256;

/// A warm-keys list (request and ok reply share the layout): count `u16`
/// followed by `count` 5-byte specs. Lists longer than [`WARM_KEYS_MAX`]
/// are truncated — warm keys are ordered hottest first, so truncation
/// drops the coldest.
fn warm_keys(specs: &[ModuleSpec]) -> Vec<u8> {
    let take = specs.len().min(WARM_KEYS_MAX);
    let mut out = Vec::with_capacity(2 + take * SPEC_REQ_LEN);
    out.extend_from_slice(&(take as u16).to_le_bytes());
    for spec in &specs[..take] {
        out.extend_from_slice(&spec_bytes(*spec));
    }
    out
}

/// Decode a warm-keys list: a message naming the malformed field (short
/// payload, count/length disagreement, oversized list, unknown module
/// code) on failure.
fn decode_warm_keys(payload: &[u8]) -> Result<Vec<ModuleSpec>, String> {
    if payload.len() < 2 {
        return Err(format!(
            "warm-keys payload must be at least 2 bytes, got {}",
            payload.len()
        ));
    }
    let count = u16::from_le_bytes(payload[0..2].try_into().expect("2 bytes")) as usize;
    if count > WARM_KEYS_MAX {
        return Err(format!(
            "warm-keys list of {count} specs exceeds the cap of {WARM_KEYS_MAX}"
        ));
    }
    let body = &payload[2..];
    if body.len() != count * SPEC_REQ_LEN {
        return Err(format!(
            "warm-keys body of {} bytes does not match {count} specs",
            body.len()
        ));
    }
    body.chunks_exact(SPEC_REQ_LEN)
        .map(spec_from_bytes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_starts_with_nul_and_cannot_be_v1() {
        assert_eq!(MAGIC.len(), 8);
        assert_eq!(MAGIC[0], 0, "first byte decides the protocol");
        // No valid v1 opener starts with NUL: v1 requests are JSON text.
        assert!(std::str::from_utf8(&MAGIC[1..]).is_ok());
    }

    #[test]
    fn frame_header_round_trips() {
        let mut out = Vec::new();
        encode_frame(&mut out, 0xDEAD_BEEF_CAFE, 2, 1500, b"payload");
        assert_eq!(out.len(), HEADER_LEN + 7);
        let header = decode_header(out[..HEADER_LEN].try_into().unwrap());
        assert_eq!(
            header,
            FrameHeader {
                len: 7,
                id: 0xDEAD_BEEF_CAFE,
                op: 2,
                extra: 1500,
            }
        );
        assert_eq!(&out[HEADER_LEN..], b"payload");
    }

    #[test]
    fn estimate_request_round_trips_uniform_and_rect() {
        for spec in [
            ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Uniform(16)),
            ModuleSpec::new(ModuleKind::CsaMultiplier, ModuleWidth::Rect(12, 8)),
        ] {
            for floor in [None, Some(Fidelity::Analytic), Some(Fidelity::Full)] {
                let params = EstimateParams {
                    spec,
                    data: DataType::Speech,
                    cycles: 2000,
                    seed: 7,
                    floor,
                };
                let wire = encode_estimate_request(&params);
                assert_eq!(decode_estimate_request(&wire).unwrap(), params);
            }
        }
    }

    #[test]
    fn legacy_18_byte_estimate_requests_decode_with_default_floor() {
        let params = EstimateParams {
            spec: ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Uniform(8)),
            data: DataType::Random,
            cycles: 512,
            seed: 11,
            floor: None,
        };
        let wire = encode_estimate_request(&params);
        let legacy = &wire[..LEGACY_ESTIMATE_REQ_LEN];
        assert_eq!(decode_estimate_request(legacy).unwrap(), params);
        let mut bad_floor = wire;
        bad_floor[18] = 9;
        assert!(decode_estimate_request(&bad_floor)
            .unwrap_err()
            .contains("unknown fidelity code 9"));
    }

    /// Encode `response` as the reply to `op` and read it back.
    fn reply_round_trip(op: Opcode, response: &Response) -> Response {
        let mut frame = Vec::new();
        encode_reply(&mut frame, 9, false, response);
        let header = decode_header(frame[..HEADER_LEN].try_into().unwrap());
        assert_eq!(header.len as usize, frame.len() - HEADER_LEN);
        decode_reply(op, header.op, &frame[HEADER_LEN..]).unwrap()
    }

    #[test]
    fn estimate_reply_round_trips() {
        let estimate = Estimate {
            charge_per_cycle: 123.456,
            via_average: 120.0,
            average_hd: 3.25,
            source: CacheSource::Fresh,
            fidelity: Fidelity::Full,
            confidence: 1.0,
        };
        let wire = encode_estimate_reply(&estimate, source_code(estimate.source));
        assert_eq!(
            wire[ESTIMATE_REPLY_SOURCE_OFFSET],
            source_code(CacheSource::Fresh)
        );
        let expected = Response::Estimate(EstimateAnswer {
            charge_per_cycle: estimate.charge_per_cycle,
            via_average: estimate.via_average,
            average_hd: estimate.average_hd,
            source: "fresh".into(),
            fidelity: Fidelity::Full,
            confidence: 1.0,
        });
        assert_eq!(
            decode_reply(Opcode::Estimate, STATUS_OK, &wire),
            Ok(expected.clone())
        );
        assert_eq!(reply_round_trip(Opcode::Estimate, &expected), expected);
    }

    #[test]
    fn tiered_estimate_replies_carry_their_fidelity() {
        let estimate = Estimate {
            charge_per_cycle: 4.5,
            via_average: 4.4,
            average_hd: 2.0,
            source: CacheSource::Analytic,
            fidelity: Fidelity::Analytic,
            confidence: 0.25,
        };
        let wire = encode_estimate_reply(&estimate, source_code(estimate.source));
        let Ok(Response::Estimate(decoded)) = decode_reply(Opcode::Estimate, STATUS_OK, &wire)
        else {
            panic!("estimate reply");
        };
        assert_eq!(decoded.source, "analytic");
        assert_eq!(decoded.fidelity, Fidelity::Analytic);
        assert_eq!(decoded.confidence, 0.25);
        assert_eq!(
            source_str(source_code(CacheSource::Regressed)),
            Some("regressed")
        );
        let mut bad = wire;
        bad[25] = 0;
        assert!(decode_reply(Opcode::Estimate, STATUS_OK, &bad)
            .unwrap_err()
            .contains("unknown fidelity code 0"));
    }

    #[test]
    fn characterize_round_trips_including_unconverged() {
        let request = Request::Characterize {
            spec: ModuleSpec::new(ModuleKind::Mac, ModuleWidth::Uniform(8)),
        };
        let mut frame = Vec::new();
        encode_request(&mut frame, 3, &request, 0);
        assert_eq!(frame.len(), HEADER_LEN + SPEC_REQ_LEN);
        assert_eq!(decode_request(frame[12], &frame[HEADER_LEN..]), Ok(request));
        for converged_after in [Some(1500u64), None] {
            let reply = Response::Characterize(CharacterizeAnswer {
                input_bits: 24,
                transitions: 987_654,
                converged_after,
                source: "disk".into(),
            });
            assert_eq!(reply_round_trip(Opcode::Characterize, &reply), reply);
        }
    }

    #[test]
    fn stats_reply_round_trips() {
        let stats = Response::Stats(StatsAnswer::from_fields([
            3, 64, 100, 4, 1, 2, 2, 9, 1, 5, 6, 4,
        ]));
        let mut frame = Vec::new();
        encode_reply(&mut frame, 1, false, &stats);
        assert_eq!(frame.len(), HEADER_LEN + STATS_REPLY_LEN);
        assert_eq!(reply_round_trip(Opcode::Stats, &stats), stats);
    }

    #[test]
    fn error_replies_keep_kind_message_and_late_flag() {
        let error = Response::Error {
            kind: "timeout".into(),
            message: "deadline exceeded".into(),
        };
        let mut frame = Vec::new();
        encode_reply(&mut frame, 4, true, &error);
        let header = decode_header(frame[..HEADER_LEN].try_into().unwrap());
        assert_eq!(header.op, status_of(ErrorKind::Timeout));
        assert_eq!(header.extra, FLAG_LATE);
        assert_eq!(
            decode_reply(Opcode::Stats, header.op, &frame[HEADER_LEN..]),
            Ok(error)
        );
        assert_eq!(
            decode_reply(Opcode::Stats, 99, b"?"),
            Ok(Response::Error {
                kind: "status_99".into(),
                message: "?".into(),
            })
        );
    }

    #[test]
    fn malformed_payloads_name_the_problem() {
        assert!(decode_estimate_request(&[0u8; 3])
            .unwrap_err()
            .contains("19 bytes"));
        let mut bad_module = encode_estimate_request(&EstimateParams {
            spec: ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Uniform(4)),
            data: DataType::Random,
            cycles: 64,
            seed: 7,
            floor: None,
        });
        bad_module[0] = 200;
        assert!(decode_estimate_request(&bad_module)
            .unwrap_err()
            .contains("unknown module code 200"));
        let mut bad_data = encode_estimate_request(&EstimateParams {
            spec: ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Uniform(4)),
            data: DataType::Random,
            cycles: 64,
            seed: 7,
            floor: None,
        });
        bad_data[5] = 99;
        assert!(decode_estimate_request(&bad_data)
            .unwrap_err()
            .contains("unknown data code 99"));
        assert_eq!(
            decode_request(Opcode::Characterize as u8, &[0u8; 2]),
            Err((
                ErrorKind::BadRequest,
                "characterize payload must be 5 bytes, got 2".into()
            ))
        );
        assert_eq!(
            decode_request(42, &[]),
            Err((ErrorKind::BadRequest, "unknown opcode 42".into()))
        );
    }

    #[test]
    fn cluster_op_payloads_round_trip() {
        let spec = ModuleSpec::new(ModuleKind::BarrelShifter, ModuleWidth::Uniform(12));
        let request = Request::FetchModel { spec };
        let mut frame = Vec::new();
        encode_request(&mut frame, 5, &request, 0);
        assert_eq!(frame.len(), HEADER_LEN + SPEC_REQ_LEN);
        assert_eq!(decode_request(frame[12], &frame[HEADER_LEN..]), Ok(request));
        assert!(decode_request(Opcode::FetchModel as u8, &[0u8; 2])
            .unwrap_err()
            .1
            .contains("5 bytes"));
        for artifact in [Some(b"{\"hdpm_envelope\":1}".to_vec()), None] {
            let reply = Response::Artifact(artifact);
            assert_eq!(reply_round_trip(Opcode::FetchModel, &reply), reply);
        }

        // Warm-keys lists travel as requests and as replies.
        let warm = |specs: &[ModuleSpec]| {
            let mut frame = Vec::new();
            encode_request(
                &mut frame,
                6,
                &Request::WarmKeys {
                    specs: specs.to_vec(),
                },
                0,
            );
            frame.split_off(HEADER_LEN)
        };
        let decode_warm = |payload: &[u8]| match decode_request(Opcode::WarmKeys as u8, payload) {
            Ok(Request::WarmKeys { specs }) => Ok(specs),
            Ok(other) => panic!("decoded as {other:?}"),
            Err((_, message)) => Err(message),
        };
        let specs: Vec<ModuleSpec> = (4..9)
            .map(|w| ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Uniform(w)))
            .collect();
        let wire = warm(&specs);
        assert_eq!(wire.len(), 2 + specs.len() * SPEC_REQ_LEN);
        assert_eq!(decode_warm(&wire).unwrap(), specs);
        assert_eq!(decode_warm(&warm(&[])).unwrap(), vec![]);
        let reply = Response::WarmKeys(specs.clone());
        assert_eq!(reply_round_trip(Opcode::WarmKeys, &reply), reply);
        // Oversized lists truncate on encode and are rejected on decode.
        let many: Vec<ModuleSpec> = (0..WARM_KEYS_MAX + 40)
            .map(|i| ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Uniform(4 + i % 60)))
            .collect();
        assert_eq!(decode_warm(&warm(&many)).unwrap().len(), WARM_KEYS_MAX);
        let mut forged = warm(&specs);
        forged[0..2].copy_from_slice(&(WARM_KEYS_MAX as u16 + 1).to_le_bytes());
        assert!(decode_warm(&forged).unwrap_err().contains("cap"));
        assert!(decode_reply(Opcode::WarmKeys, STATUS_OK, &forged)
            .unwrap_err()
            .contains("cap"));
        let mut mismatched = warm(&specs);
        mismatched.pop();
        assert!(decode_warm(&mismatched)
            .unwrap_err()
            .contains("does not match"));
    }

    #[test]
    fn every_error_kind_has_a_distinct_status() {
        let kinds = [
            ErrorKind::Malformed,
            ErrorKind::InvalidUtf8,
            ErrorKind::BadRequest,
            ErrorKind::Engine,
            ErrorKind::Overloaded,
            ErrorKind::Timeout,
        ];
        let mut seen = std::collections::HashSet::new();
        for kind in kinds {
            let status = status_of(kind);
            assert_ne!(status, STATUS_OK);
            assert!(seen.insert(status), "duplicate status for {kind:?}");
            assert_eq!(kind_of(status), Some(kind));
        }
        assert_eq!(kind_of(STATUS_OK), None);
        // Status, opcode and source bytes are wire format: pinned.
        assert_eq!(kinds.map(status_of), [1, 2, 3, 4, 5, 6]);
        assert_eq!(
            (0..=8).map(Opcode::from_u8).collect::<Vec<_>>(),
            [
                None,
                Some(Opcode::Estimate),
                Some(Opcode::Characterize),
                Some(Opcode::Stats),
                Some(Opcode::Ping),
                Some(Opcode::FetchModel),
                None,
                Some(Opcode::WarmKeys),
                None,
            ]
        );
        assert_eq!(
            (0..=8).map(source_str).collect::<Vec<_>>(),
            [
                None,
                Some("memory"),
                Some("disk"),
                Some("fresh"),
                Some("coalesced"),
                Some("memo"),
                Some("analytic"),
                Some("regressed"),
                None,
            ]
        );
        for source in [
            CacheSource::Memory,
            CacheSource::Disk,
            CacheSource::Fresh,
            CacheSource::Coalesced,
            CacheSource::Analytic,
            CacheSource::Regressed,
        ] {
            assert_eq!(source_code_of(source.as_str()), source_code(source));
        }
    }

    #[test]
    fn every_module_and_data_code_round_trips() {
        for kind in ModuleKind::ALL {
            assert_eq!(module_from_code(module_code(kind)), Some(kind));
        }
        for data in ALL_DATA_TYPES {
            assert_eq!(data_from_code(data_code(data)), Some(data));
        }
    }
}
