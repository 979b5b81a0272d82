//! `hdpm serve` — the JSON-lines request/response loop over a
//! [`PowerEngine`] on stdin/stdout.
//!
//! One request per stdin line, one reply per stdout line; stderr carries
//! human-readable logs. The loop is [`hdpm_server::protocol::serve_lines`]:
//! the v1 JSON-lines codec around the same request core the networked
//! `hdpm server` runs for both its protocols (`estimate`, `characterize`,
//! `stats`), so both transports replay the `docs/engine.md` transcript
//! identically. Per-request deadlines are ignored here. Malformed or
//! non-UTF-8 lines produce structured `{"ok":false,"error":{...}}`
//! replies and never tear the loop down.
//!
//! For serving over TCP (worker pool, backpressure, deadlines), use
//! `hdpm server` instead.

use std::error::Error;

use hdpm_core::{CharacterizationConfig, EngineOptions, Fidelity, PowerEngine, ShardingConfig};
use hdpm_server::protocol;
use hdpm_telemetry as telemetry;

use crate::args::ParsedArgs;

/// Options shared by every engine-backed serving command.
pub(crate) const ENGINE_OPTIONS: &[&str] = &[
    "patterns",
    "seed",
    "shards",
    "threads",
    "capacity",
    "models",
    "fidelity-floor",
];

/// Parse `--fidelity-floor` (default `full`, the historical blocking
/// behavior).
pub(crate) fn fidelity_floor_from(args: &ParsedArgs) -> Result<Fidelity, Box<dyn Error>> {
    match args.option("fidelity-floor") {
        None => Ok(Fidelity::Full),
        Some(text) => text
            .parse::<Fidelity>()
            .map_err(|e| format!("--fidelity-floor: {e}").into()),
    }
}

/// Run the serve loop over real stdin/stdout.
pub fn cmd_serve(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    // `serve` is stdio-only: network-shaped flags such as `--addr` or
    // `--workers` belong to `hdpm server`, and silently ignoring them
    // would serve on the wrong transport.
    crate::reject_unknown_options(
        args,
        ENGINE_OPTIONS,
        &[],
        "networked serving is `hdpm server`",
    )?;
    let floor = fidelity_floor_from(args)?;
    let engine = std::sync::Arc::new(PowerEngine::new(engine_options_from(args)?));
    eprintln!(
        "hdpm serve: engine ready (capacity {}, {} patterns/model, fidelity floor {floor}); one JSON request per line",
        engine.options().capacity,
        engine.options().config.max_patterns
    );
    let _span = telemetry::span("cli.serve");
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    protocol::serve_lines(&engine, floor, stdin.lock(), stdout.lock())?;
    Ok(())
}

/// The engine options of `--patterns/--seed/--shards/--threads/--capacity`
/// and an optional `--models` disk tier.
pub(crate) fn engine_options_from(args: &ParsedArgs) -> Result<EngineOptions, Box<dyn Error>> {
    let defaults = CharacterizationConfig::default();
    let config = CharacterizationConfig::builder()
        .max_patterns(args.get_or("patterns", defaults.max_patterns)?)
        .seed(args.get_or("seed", defaults.seed)?)
        .build()?;
    let shards = args.get_or("shards", 8usize)?;
    let threads = args.get_or("threads", 0usize)?;
    Ok(EngineOptions {
        config,
        sharding: Some(ShardingConfig { shards, threads }),
        disk_root: args.option("models").map(Into::into),
        capacity: args.get_or("capacity", 64usize)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn engine_options_are_accepted() {
        let args = parse(&["serve", "--patterns", "1500", "--shards", "4"]);
        assert!(cmd_serve_rejection(&args).is_none());
    }

    #[test]
    fn addr_style_flags_are_rejected_with_a_pointer_to_server() {
        for tokens in [
            &["serve", "--addr", "127.0.0.1:0"][..],
            &["serve", "--workers", "4"][..],
            &["serve", "--queue-depth", "64"][..],
        ] {
            let args = parse(tokens);
            let message = cmd_serve_rejection(&args).expect("rejected");
            assert!(
                message.contains("unknown option") && message.contains("hdpm server"),
                "tokens {tokens:?}: {message}"
            );
        }
    }

    /// The rejection message `cmd_serve` would produce, without running
    /// the serve loop.
    fn cmd_serve_rejection(args: &ParsedArgs) -> Option<String> {
        crate::reject_unknown_options(
            args,
            ENGINE_OPTIONS,
            &[],
            "networked serving is `hdpm server`",
        )
        .err()
        .map(|e| e.to_string())
    }
}
