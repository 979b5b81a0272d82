//! `hdpm-server` — the networked power-estimation service.
//!
//! Exposes the [`PowerEngine`](hdpm_core::PowerEngine) over TCP, speaking
//! two protocols on one port (negotiated from the first byte of each
//! connection, [`wire::MAGIC`]):
//!
//! * **v2** — length-prefixed binary frames with a request id, opcode
//!   and per-request deadline ([`wire`]); replies complete **out of
//!   order**, so one slow characterization no longer stalls the
//!   pipelined requests behind it;
//! * **v1** — the JSON-lines protocol of `hdpm serve`, byte-for-byte
//!   compatible with its transcripts ([`protocol`] is the single source
//!   of truth for both transports), replies in request order.
//!
//! Both codecs decode into the typed [`client::Request`] and encode from
//! the typed [`client::Response`]; one request core executes every
//! request, whichever protocol (or `hdpm serve` on stdio) carried it.
//!
//! The [`Server`] is built for sustained load:
//!
//! * a **fixed reactor pool** multiplexes every connection over epoll
//!   ([`poller`]), so 10k mostly-idle connections cost registered fds,
//!   not threads; framed requests feed a **bounded MPMC queue**
//!   ([`Bounded`]) drained by a **fixed worker pool** sharing one
//!   engine, so concurrent cache misses on the same model coalesce
//!   through the engine's single-flight path (N clients, one
//!   characterization);
//! * **load shedding**: a full queue answers `overloaded` immediately
//!   instead of growing an unbounded backlog;
//! * **deadlines**: a request that out-waits its limit before execution
//!   earns a structured `timeout` reply (the limit rides in-band per v2
//!   frame, in a field on v1); late v2 completions are labeled
//!   ([`wire::FLAG_LATE`]) instead of discarded;
//! * **connection hygiene**: idle reaping, write timeouts that
//!   disconnect slow readers, and malformed input that never tears the
//!   server down;
//! * **graceful drain** ([`Server::shutdown`]): stop accepting, finish
//!   everything in flight, flush, join every pool, report totals;
//! * **observability**: per-request traces with stage timings, a flight
//!   recorder of recent traces, a slow-request log, and an optional
//!   HTTP admin plane ([`ServerConfig::admin_addr`]) serving
//!   `/metrics`, `/healthz`, `/readyz` and `/tracez`.
//!
//! Configuration is a validated builder — invalid combinations
//! (zero queue depth, a deadline beyond the idle timeout) fail at
//! [`ServerConfigBuilder::build`] with a typed [`ConfigError`] instead
//! of misbehaving at runtime:
//!
//! ```no_run
//! use hdpm_server::{Server, ServerConfig};
//!
//! let config = ServerConfig::builder()
//!     .queue_depth(512)
//!     .build()
//!     .expect("valid config");
//! let server = Server::start(config)?;
//! println!("listening on {}", server.local_addr());
//! // ... serve traffic ...
//! let report = server.shutdown();
//! assert_eq!(report.shed, 0);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The [`client`] module speaks both protocol versions (sync and
//! pipelined modes). Protocol reference and failure semantics:
//! `docs/protocol.md` and `docs/server.md`.

#![forbid(unsafe_code)]

mod admin;
pub mod client;
mod cluster;
mod config;
mod exec;
pub mod protocol;
mod queue;
mod reactor;
mod server;
pub mod wire;

pub use admin::tracez_body as flight_recorder_json;
pub use config::{ConfigError, ServerConfig, ServerConfigBuilder};
pub use queue::{Bounded, PushError};
pub use server::{DrainReport, Server};
