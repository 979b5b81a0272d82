//! `hdpm-telemetry` — tracing, metrics and profiling for the hdpm suite.
//!
//! Observability on std plus the vendored `serde` and `serde_json`
//! (whose writers quote every JSON line emitted here), shared by the
//! simulator, characterization and estimation layers:
//!
//! * **events** — leveled, structured log records ([`event`]) filtered by
//!   the `HDPM_LOG` environment variable;
//! * **metrics** — monotonic [counters](metrics::counter_add),
//!   [gauges](metrics::gauge_set) and log-scale latency
//!   [histograms](metrics::record_duration_ns) with p50/p95/p99 summaries,
//!   collected in a global registry and emitted as a human table or as
//!   JSON-lines ([`emit_snapshot`]);
//! * **spans** — RAII wall-clock timers ([`span()`]) feeding the histogram
//!   registry, with thread-local nesting;
//! * **run manifests** — [`RunManifest`] snapshots (command, seed, git
//!   describe, metrics) written next to output artifacts.
//!
//! Everything is compiled away to a single relaxed atomic load when the
//! mode is [`Mode::Off`] (the default), so instrumented hot loops pay no
//! measurable cost unless telemetry was explicitly enabled.
//!
//! # Output discipline
//!
//! In [`Mode::Json`] every telemetry line written to stdout is one
//! self-contained JSON object (JSON-lines), so `hdpm ... --telemetry json`
//! output can be piped straight into `jq` or a log collector. In
//! [`Mode::Human`] events go to stderr and the metrics table to stdout.

// `deny` rather than `forbid`: the sole exemption is `clock`'s rdtsc
// intrinsic (one leaf function, explicitly allowed there).
#![deny(unsafe_code)]

pub mod clock;
pub mod manifest;
pub mod metrics;
pub mod prometheus;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicU8, Ordering};

use serde_json::{write_f64, write_str};

pub use manifest::RunManifest;
pub use metrics::{
    counter_add, counter_declare, gauge_add, gauge_set, metric_key, record_duration_ns,
    record_durations_ns, reset, set_recording, snapshot, Histogram, HistogramSummary,
    MetricsSnapshot,
};
pub use span::{span, Span};
pub use trace::{FlightRecorder, Stage, TraceCtx, TraceRecord};

/// Severity of an [`event`]. Order matters: a filter level admits every
/// level up to and including itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed.
    Error = 1,
    /// Suspicious but recoverable (e.g. starved sample classes).
    Warn = 2,
    /// Progress and results of normal operation.
    Info = 3,
    /// Detail useful when debugging a run.
    Debug = 4,
    /// Very chatty per-step detail.
    Trace = 5,
}

impl Level {
    /// Lower-case name, as printed and as accepted by `HDPM_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a level name (case-insensitive); `None` if unknown.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// Output mode of the telemetry layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Mode {
    /// Everything disabled; instrumentation reduces to one atomic load.
    #[default]
    Off = 0,
    /// Events as readable lines on stderr, metrics as a table on stdout.
    Human = 1,
    /// Events and metrics as JSON-lines on stdout.
    Json = 2,
}

impl Mode {
    /// Parse a mode name (case-insensitive); `None` if unknown.
    pub fn parse(s: &str) -> Option<Mode> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" => Some(Mode::Off),
            "human" => Some(Mode::Human),
            "json" => Some(Mode::Json),
            _ => None,
        }
    }
}

static MODE: AtomicU8 = AtomicU8::new(Mode::Off as u8);
static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Set the global output mode.
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current output mode.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Human,
        2 => Mode::Json,
        _ => Mode::Off,
    }
}

/// Whether telemetry is enabled at all. This is the single check
/// instrumented hot paths make before doing any work.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != Mode::Off as u8
}

/// Set the global event filter level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current event filter level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        4 => Level::Debug,
        5 => Level::Trace,
        _ => Level::Info,
    }
}

/// Initialize level and mode from the environment: `HDPM_LOG` selects the
/// event filter level (`error`..`trace`), `HDPM_TELEMETRY` the output mode
/// (`off`/`human`/`json`). Unknown values are ignored. Explicit
/// [`set_mode`]/[`set_level`] calls (e.g. from a CLI flag) override the
/// environment simply by running after this.
pub fn init_from_env() {
    if let Some(level) = std::env::var("HDPM_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
    {
        set_level(level);
    }
    if let Some(mode) = std::env::var("HDPM_TELEMETRY")
        .ok()
        .and_then(|v| Mode::parse(&v))
    {
        set_mode(mode);
    }
}

/// A structured event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}

impl_field_from! {
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => write_f64(out, *v),
            FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            FieldValue::Str(s) => write_str(out, s),
        }
    }

    fn write_human(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => out.push_str(&format!("{v:.6}")),
            FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            FieldValue::Str(s) => out.push_str(s),
        }
    }
}

/// Emit one structured event. A no-op unless telemetry is enabled and
/// `level` passes the `HDPM_LOG` filter.
///
/// ```
/// use hdpm_telemetry::{event, Level};
/// event(Level::Info, "characterize.checkpoint", &[
///     ("patterns", 2000u64.into()),
///     ("max_relative_change", 0.034.into()),
/// ]);
/// ```
pub fn event(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    let mode = mode();
    if mode == Mode::Off || level > self::level() {
        return;
    }
    match mode {
        Mode::Off => {}
        Mode::Human => {
            let mut line = format!("[{:<5}] {name}", level.as_str());
            for (key, value) in fields {
                line.push(' ');
                line.push_str(key);
                line.push('=');
                value.write_human(&mut line);
            }
            eprintln!("{line}");
        }
        Mode::Json => {
            let mut line = String::from("{\"type\":\"event\",\"level\":\"");
            line.push_str(level.as_str());
            line.push_str("\",\"name\":");
            write_str(&mut line, name);
            line.push_str(",\"fields\":{");
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_str(&mut line, key);
                line.push(':');
                value.write_json(&mut line);
            }
            line.push_str("}}");
            println!("{line}");
        }
    }
}

/// Emit the current metrics registry through the active sink: an aligned
/// table on stdout in [`Mode::Human`], one JSON object per metric on
/// stdout in [`Mode::Json`], nothing in [`Mode::Off`].
pub fn emit_snapshot() {
    metrics::emit_snapshot_in_mode(mode());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_matches_verbosity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Trace);
    }

    #[test]
    fn level_and_mode_parse_round_trip() {
        for level in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Mode::parse("JSON"), Some(Mode::Json));
        assert_eq!(Mode::parse("human"), Some(Mode::Human));
        assert_eq!(Mode::parse("off"), Some(Mode::Off));
        assert_eq!(Mode::parse("verbose"), None);
    }

    #[test]
    fn json_string_escaping() {
        let record = TraceCtx::new().finish("a\"b\\c\nd\u{1}".into(), String::new(), "ok".into());
        assert!(
            record
                .to_json()
                .contains(",\"op\":\"a\\\"b\\\\c\\nd\\u0001\","),
            "{}",
            record.to_json()
        );
    }

    #[test]
    fn json_floats_keep_fractional_part() {
        let mut out = String::new();
        FieldValue::F64(3.0).write_json(&mut out);
        assert_eq!(out, "3.0");
        out.clear();
        FieldValue::F64(f64::NAN).write_json(&mut out);
        assert_eq!(out, "null");
    }

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i64), FieldValue::I64(-3));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }
}
