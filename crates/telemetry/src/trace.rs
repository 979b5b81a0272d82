//! Per-request tracing and the flight recorder.
//!
//! A [`TraceCtx`] is created when a request enters the system (at frame
//! decode time in the server) and is threaded through queue → worker →
//! engine → reply write, accumulating a per-[`Stage`] nanosecond
//! breakdown. When the request completes, the finished [`TraceRecord`]
//! is pushed into the global [`FlightRecorder`] — a fixed-size striped
//! ring buffer of the last N traces that is always on, costs one atomic
//! increment plus one uncontended slot lock per request, and can be
//! dumped at any time (`/tracez`, drain, crash) without stopping the
//! server.
//!
//! Trace ids are 64-bit splitmix64 outputs of a per-process seed and a
//! monotonic counter: unique within and across restarts for practical
//! purposes, rendered as `t` + 16 hex digits, and echoed in server
//! replies so a client-observed slow request can be joined against the
//! flight recorder and the slow-request log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use serde_json::write_str;

use crate::clock;

/// Pipeline stages a request passes through, in order. Used as a dense
/// array index in [`TraceCtx`]; keep `COUNT` in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Frame read + JSON parse + request validation.
    Decode = 0,
    /// Time spent queued between the reader and a worker.
    QueueWait = 1,
    /// Engine cache probe (memory LRU + library index), lock included.
    CacheLookup = 2,
    /// Blocked on another request characterizing the same model.
    SingleFlightWait = 3,
    /// Characterization (or disk model load) performed by this request.
    Characterize = 4,
    /// Estimation math: distribution fit + table interpolation.
    Estimate = 5,
    /// Reply rendering to a JSON line.
    Serialize = 6,
    /// Reply sequencing + socket write.
    SocketWrite = 7,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 8;

/// All stages in pipeline order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::Decode,
    Stage::QueueWait,
    Stage::CacheLookup,
    Stage::SingleFlightWait,
    Stage::Characterize,
    Stage::Estimate,
    Stage::Serialize,
    Stage::SocketWrite,
];

impl Stage {
    /// Stable snake_case name used in metric labels, trace dumps and the
    /// slow-request log.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::SingleFlightWait => "single_flight_wait",
            Stage::Characterize => "characterize",
            Stage::Estimate => "estimate",
            Stage::Serialize => "serialize",
            Stage::SocketWrite => "socket_write",
        }
    }
}

/// splitmix64 — tiny, well-mixed 64-bit permutation (public domain,
/// Vigna). Good enough to make sequential counters look like ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(now ^ (std::process::id() as u64).rotate_left(32))
    })
}

/// Allocate a fresh nonzero trace id.
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(process_seed() ^ n);
    if id == 0 {
        1
    } else {
        id
    }
}

/// A rendered trace id (`t` + 16 lowercase hex digits) as bytes, with
/// no allocation. Hand-rolled (no formatting machinery) because the
/// server renders one per request, straight into the reply line.
pub fn trace_id_bytes(id: u64) -> [u8; 17] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [b't'; 17];
    for (i, byte) in buf[1..].iter_mut().enumerate() {
        *byte = HEX[((id >> ((15 - i) * 4)) & 0xf) as usize];
    }
    buf
}

/// Render a trace id the way it appears in replies and dumps:
/// `t` + 16 lowercase hex digits.
pub fn format_trace_id(id: u64) -> String {
    String::from_utf8(trace_id_bytes(id).to_vec()).expect("hex digits are UTF-8")
}

/// Mutable per-request trace state carried through the pipeline.
///
/// A disabled ctx ([`TraceCtx::disabled`]) never reads the clock and all
/// its methods are no-ops beyond a branch, so the tracing-off server
/// path pays essentially nothing.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    id: u64,
    enabled: bool,
    /// [`clock::now_ns`] at trace start (0 when disabled).
    started_ns: u64,
    stages: [u64; STAGE_COUNT],
}

impl TraceCtx {
    /// Start a new enabled trace with a fresh id.
    pub fn new() -> TraceCtx {
        TraceCtx {
            id: next_trace_id(),
            enabled: true,
            started_ns: clock::now_ns(),
            stages: [0; STAGE_COUNT],
        }
    }

    /// An inert ctx: id 0, no clock reads, every method a no-op.
    pub fn disabled() -> TraceCtx {
        TraceCtx {
            id: 0,
            enabled: false,
            started_ns: 0,
            stages: [0; STAGE_COUNT],
        }
    }

    /// Whether this ctx records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The raw 64-bit id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id as echoed to clients (`t…`); empty string when disabled.
    pub fn id_string(&self) -> String {
        if self.enabled {
            format_trace_id(self.id)
        } else {
            String::new()
        }
    }

    /// Add `ns` to a stage's accumulated time.
    pub fn add(&mut self, stage: Stage, ns: u64) {
        if self.enabled {
            self.stages[stage as usize] = self.stages[stage as usize].saturating_add(ns);
        }
    }

    /// Time the closure and attribute its wall time to `stage`. When the
    /// ctx is disabled the closure runs without any clock reads.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = clock::now_ns();
        let out = f();
        self.add(stage, clock::now_ns().saturating_sub(start));
        out
    }

    /// Accumulated nanoseconds for one stage.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stages[stage as usize]
    }

    /// The full per-stage breakdown, indexed by `Stage as usize`.
    pub fn stages(&self) -> [u64; STAGE_COUNT] {
        self.stages
    }

    /// Wall time since the trace started.
    pub fn elapsed_ns(&self) -> u64 {
        clock::now_ns().saturating_sub(self.started_ns)
    }

    /// Finish this trace into an immutable [`TraceRecord`], taking
    /// ownership of op, detail and status (the server's completion path
    /// already owns them).
    pub fn finish(&self, op: String, detail: String, status: String) -> TraceRecord {
        // One clock read supplies both the wall total and the completion
        // timestamp.
        let now = clock::now_ns();
        TraceRecord {
            id: self.id,
            op,
            detail,
            status,
            unix_ms: clock::unix_ms_from(now),
            total_ns: now.saturating_sub(self.started_ns),
            stages: self.stages,
        }
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::disabled()
    }
}

/// A completed request trace as stored in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The 64-bit trace id ([`format_trace_id`] renders it).
    pub id: u64,
    /// Protocol op (`estimate`, `characterize`, `stats`, …).
    pub op: String,
    /// Op-specific detail, e.g. `ripple_adder/8`.
    pub detail: String,
    /// Terminal status: `ok`, an error kind, or `dropped`.
    pub status: String,
    /// Completion time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Wall time from decode start to completion.
    pub total_ns: u64,
    /// Per-stage nanoseconds, indexed by [`Stage`] `as usize`.
    pub stages: [u64; STAGE_COUNT],
}

impl TraceRecord {
    /// Sum of the per-stage timings (≤ `total_ns` up to timer noise).
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().sum()
    }

    /// Render as one self-contained JSON object (the `/tracez` and
    /// slow-request-log representation).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"trace\":");
        write_str(&mut out, &format_trace_id(self.id));
        out.push_str(",\"op\":");
        write_str(&mut out, &self.op);
        out.push_str(",\"detail\":");
        write_str(&mut out, &self.detail);
        out.push_str(",\"status\":");
        write_str(&mut out, &self.status);
        out.push_str(&format!(",\"unix_ms\":{}", self.unix_ms));
        out.push_str(&format!(",\"total_ns\":{}", self.total_ns));
        out.push_str(",\"stages\":{");
        let mut first = true;
        for stage in STAGES {
            let ns = self.stages[stage as usize];
            if ns == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            write_str(&mut out, stage.as_str());
            out.push_str(&format!(":{ns}"));
        }
        out.push_str("}}");
        out
    }
}

/// Fixed-capacity ring buffer of the most recent [`TraceRecord`]s.
///
/// One atomic cursor allocates slots; each slot is its own tiny mutex,
/// so concurrent writers collide only when the ring has wrapped all the
/// way around to a slot another writer still holds — in practice never.
/// Readers ([`FlightRecorder::snapshot`]) walk the slots without
/// blocking writers for more than one slot at a time.
pub struct FlightRecorder {
    cursor: AtomicU64,
    slots: Vec<Mutex<Option<TraceRecord>>>,
}

impl FlightRecorder {
    /// Create a recorder keeping the last `capacity` traces (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            cursor: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Number of trace slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever pushed (not capped by capacity).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Store a completed trace, evicting the oldest when full.
    pub fn push(&self, record: TraceRecord) {
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (n % self.slots.len() as u64) as usize;
        let mut guard = match self.slots[slot].lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *guard = Some(record);
    }

    /// Copy out the stored traces, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let n = self.cursor.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let mut out = Vec::with_capacity(self.slots.len());
        // Oldest surviving slot is cursor % cap when the ring has
        // wrapped, slot 0 otherwise.
        let (start, count) = if n >= cap { (n % cap, cap) } else { (0, n) };
        for i in 0..count {
            let slot = ((start + i) % cap) as usize;
            let guard = match self.slots[slot].lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            if let Some(record) = guard.as_ref() {
                out.push(record.clone());
            }
        }
        out
    }

    /// Drop all stored traces (used between tests).
    pub fn clear(&self) {
        for slot in &self.slots {
            let mut guard = match slot.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            *guard = None;
        }
        self.cursor.store(0, Ordering::Relaxed);
    }
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// Default flight-recorder capacity when [`configure_recorder`] was not
/// called before first use.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// Size the global flight recorder. Only effective before the first
/// [`recorder`] call; returns whether the capacity was applied.
pub fn configure_recorder(capacity: usize) -> bool {
    let mut applied = false;
    RECORDER.get_or_init(|| {
        applied = true;
        FlightRecorder::new(capacity)
    });
    applied
}

/// The process-wide flight recorder (created on first use).
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(|| FlightRecorder::new(DEFAULT_RECORDER_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id");
        }
    }

    #[test]
    fn id_string_shape() {
        assert_eq!(format_trace_id(0x1234), "t0000000000001234");
        let ctx = TraceCtx::new();
        let s = ctx.id_string();
        assert_eq!(s.len(), 17);
        assert!(s.starts_with('t'));
        assert!(s[1..].chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(TraceCtx::disabled().id_string(), "");
    }

    #[test]
    fn stages_accumulate_and_sum() {
        let mut ctx = TraceCtx::new();
        ctx.add(Stage::Decode, 100);
        ctx.add(Stage::Decode, 50);
        ctx.add(Stage::Estimate, 200);
        assert_eq!(ctx.stage_ns(Stage::Decode), 150);
        assert_eq!(ctx.stage_ns(Stage::Estimate), 200);
        let record = ctx.finish("estimate".into(), "ripple_adder/8".into(), "ok".into());
        assert_eq!(record.stage_sum_ns(), 350);
        assert_eq!(record.id, ctx.id());
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let mut ctx = TraceCtx::disabled();
        ctx.add(Stage::Decode, 100);
        let value = ctx.time(Stage::Estimate, || 7);
        assert_eq!(value, 7);
        assert_eq!(ctx.stages(), [0; STAGE_COUNT]);
        assert!(!ctx.is_enabled());
        assert_eq!(ctx.id(), 0);
    }

    #[test]
    fn time_attributes_wall_time() {
        let mut ctx = TraceCtx::new();
        ctx.time(Stage::Characterize, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        assert!(ctx.stage_ns(Stage::Characterize) >= 4_000_000);
        assert!(ctx.elapsed_ns() >= ctx.stage_ns(Stage::Characterize));
    }

    #[test]
    fn record_json_skips_zero_stages() {
        let mut ctx = TraceCtx::new();
        ctx.add(Stage::QueueWait, 42);
        let json = ctx
            .finish("estimate".into(), "mod/4".into(), "ok".into())
            .to_json();
        assert!(json.contains("\"queue_wait\":42"), "{json}");
        assert!(!json.contains("decode"), "{json}");
        assert!(json.contains(&format!("\"trace\":\"{}\"", ctx.id_string())));
        assert!(json.contains("\"status\":\"ok\""));
    }

    #[test]
    fn ring_keeps_newest_and_orders_oldest_first() {
        let ring = FlightRecorder::new(4);
        for i in 0..6u64 {
            let mut ctx = TraceCtx::new();
            ctx.add(Stage::Decode, i);
            ring.push(ctx.finish("estimate".into(), format!("m/{i}"), "ok".into()));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let details: Vec<&str> = snap.iter().map(|r| r.detail.as_str()).collect();
        assert_eq!(details, ["m/2", "m/3", "m/4", "m/5"]);
        assert_eq!(ring.pushed(), 6);
    }

    #[test]
    fn ring_partial_fill_snapshot() {
        let ring = FlightRecorder::new(8);
        assert!(ring.snapshot().is_empty());
        ring.push(TraceCtx::new().finish("stats".into(), String::new(), "ok".into()));
        assert_eq!(ring.snapshot().len(), 1);
        ring.clear();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.pushed(), 0);
    }

    #[test]
    fn ring_is_safe_under_concurrent_push() {
        let ring = std::sync::Arc::new(FlightRecorder::new(16));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        ring.push(TraceCtx::new().finish(
                            "estimate".into(),
                            "x/1".into(),
                            "ok".into(),
                        ));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.pushed(), 8000);
        assert_eq!(ring.snapshot().len(), 16);
    }
}
