//! Typed client for the hdpm TCP service, speaking both protocol
//! versions over one API.
//!
//! A [`Client`] owns one connection and runs in either of two modes:
//!
//! * **sync** — [`Client::call`] sends one request and blocks for its
//!   reply (no other requests may be outstanding);
//! * **pipelined** — [`Client::send`] buffers requests and returns
//!   their ids, [`Client::flush`] pushes them out, [`Client::recv`]
//!   returns replies as they arrive. Under v2 replies arrive **out of
//!   order**; the returned [`Reply::id`] says which request each one
//!   answers. Under v1 the server replies strictly in request order and
//!   the client assigns ids FIFO, so the same loop works unchanged.
//!
//! Ids are allocated by the client, monotonically from 1 per
//! connection. The v1 wire has no id field — the id is client-side
//! bookkeeping that makes the two protocols interchangeable behind this
//! API (the load generator's `--proto` flag is one `match` at connect
//! time).
//!
//! ```no_run
//! use hdpm_netlist::{ModuleKind, ModuleSpec};
//! use hdpm_server::client::{Client, Proto, Request, Response};
//!
//! let mut client = Client::connect("127.0.0.1:7070", Proto::V2)?;
//! let reply = client.call(
//!     &Request::Characterize { spec: ModuleSpec::new(ModuleKind::RippleAdder, 8) },
//!     None,
//! )?;
//! match reply.response {
//!     Response::Characterize(c) => println!("{} transitions", c.transitions),
//!     other => panic!("unexpected reply {other:?}"),
//! }
//! # Ok::<(), hdpm_server::client::ClientError>(())
//! ```

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use hdpm_core::{EngineStats, Fidelity};
use hdpm_netlist::ModuleSpec;
use hdpm_streams::DataType;

use crate::{protocol, wire};

/// Which protocol to speak on a connection. Negotiated by the client:
/// the server follows the first byte it receives ([`wire::MAGIC`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// JSON lines, replies in request order.
    V1,
    /// Binary frames, replies out of order, in-band deadlines.
    V2,
}

impl Proto {
    /// The flag spelling (`v1` / `v2`), as accepted by the load
    /// generator's `--proto`.
    pub fn as_str(self) -> &'static str {
        match self {
            Proto::V1 => "v1",
            Proto::V2 => "v2",
        }
    }

    /// Parse the flag spelling.
    pub fn parse(text: &str) -> Option<Proto> {
        match text {
            "v1" => Some(Proto::V1),
            "v2" => Some(Proto::V2),
            _ => None,
        }
    }
}

/// One request, protocol-agnostic — also the server's internal form: the
/// v1 codec ([`protocol`]) and the v2 codec ([`wire`]) both decode into
/// it and encode from it. [`Request::Ping`] and the three cluster ops
/// are v2-only.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Analytic power estimate for a module under a named input
    /// distribution.
    Estimate {
        /// Module kind and operand widths.
        spec: ModuleSpec,
        /// Input data class (paper table I–V).
        data: DataType,
        /// Stream length used for the distribution fit.
        cycles: u32,
        /// Stream generator seed.
        seed: u64,
        /// Minimum fidelity tier accepted; `None` defers to the
        /// server's configured floor.
        floor: Option<Fidelity>,
    },
    /// Force a model into the cache (characterize if absent).
    Characterize {
        /// Module kind and operand widths.
        spec: ModuleSpec,
    },
    /// Engine counter snapshot.
    Stats,
    /// Liveness no-op (v2 only — v1 has no ping op).
    Ping,
    /// Cluster peer fetch: the stored artifact's envelope bytes.
    FetchModel {
        /// Module kind and operand widths.
        spec: ModuleSpec,
    },
    /// Cluster warm-key gossip: advertise the sender's hottest specs.
    WarmKeys {
        /// Hottest first; encoders keep the first
        /// [`wire::WARM_KEYS_MAX`].
        specs: Vec<ModuleSpec>,
    },
}

impl Request {
    /// The v2 opcode of this request (its name is the v1 `op`).
    pub(crate) fn opcode(&self) -> wire::Opcode {
        match self {
            Request::Estimate { .. } => wire::Opcode::Estimate,
            Request::Characterize { .. } => wire::Opcode::Characterize,
            Request::Stats => wire::Opcode::Stats,
            Request::Ping => wire::Opcode::Ping,
            Request::FetchModel { .. } => wire::Opcode::FetchModel,
            Request::WarmKeys { .. } => wire::Opcode::WarmKeys,
        }
    }
}

/// An estimate answer (v1 `estimate` reply / v2 ok frame).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateAnswer {
    /// Expected charge dissipated per cycle (µC, paper Eq. 9).
    pub charge_per_cycle: f64,
    /// The same quantity via the average-HD shortcut (Eq. 10).
    pub via_average: f64,
    /// Mean input Hamming distance of the fitted distribution.
    pub average_hd: f64,
    /// Where the model came from: `memory`, `disk`, `fresh`,
    /// `coalesced`, `memo` (v2 reply-memo hit), `analytic` or
    /// `regressed` (fidelity-ladder tiers).
    pub source: String,
    /// Fidelity tier of the answer.
    pub fidelity: Fidelity,
    /// Confidence in `[0, 1]` (1.0 for full fidelity).
    pub confidence: f64,
}

/// A characterize answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharacterizeAnswer {
    /// Total input bits of the characterized module.
    pub input_bits: u32,
    /// Transitions simulated during characterization.
    pub transitions: u64,
    /// Patterns applied when the charge tables converged, if they did.
    pub converged_after: Option<u64>,
    /// Where the model came from.
    pub source: String,
}

/// An engine stats snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsAnswer {
    /// Models resident in the memory tier.
    pub entries: u64,
    /// Memory-tier capacity.
    pub capacity: u64,
    /// Memory-tier hits.
    pub hits: u64,
    /// Memory-tier misses.
    pub misses: u64,
    /// Models evicted from the memory tier.
    pub evictions: u64,
    /// Disk-tier hits.
    pub disk_hits: u64,
    /// Characterizations run.
    pub characterizations: u64,
    /// Requests that coalesced onto another request's characterization.
    pub coalesced: u64,
    /// Characterizations in flight.
    pub inflight: u64,
    /// Estimates answered by the tier-A analytic model.
    pub analytic_served: u64,
    /// Estimates answered by a tier-B sibling regression.
    pub regressed_served: u64,
    /// Background fidelity upgrades completed.
    pub upgrades_done: u64,
}

impl StatsAnswer {
    /// The answer from its fields in wire order (see
    /// `protocol::stats_fields`).
    pub(crate) fn from_fields(fields: [u64; 12]) -> StatsAnswer {
        let [entries, capacity, hits, misses, evictions, disk_hits, characterizations, coalesced, inflight, analytic_served, regressed_served, upgrades_done] =
            fields;
        StatsAnswer {
            entries,
            capacity,
            hits,
            misses,
            evictions,
            disk_hits,
            characterizations,
            coalesced,
            inflight,
            analytic_served,
            regressed_served,
            upgrades_done,
        }
    }
}

impl From<EngineStats> for StatsAnswer {
    fn from(stats: EngineStats) -> StatsAnswer {
        StatsAnswer::from_fields([
            stats.entries as u64,
            stats.capacity as u64,
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.disk_hits,
            stats.characterizations,
            stats.coalesced,
            stats.inflight as u64,
            stats.analytic_served,
            stats.regressed_served,
            stats.upgrades_done,
        ])
    }
}

/// One decoded reply body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful estimate.
    Estimate(EstimateAnswer),
    /// Successful characterize.
    Characterize(CharacterizeAnswer),
    /// Successful stats snapshot.
    Stats(StatsAnswer),
    /// Successful ping (v2).
    Pong,
    /// A fetch-model answer: the envelope bytes, or `None` when the
    /// artifact is not on disk.
    Artifact(Option<Vec<u8>>),
    /// A warm-keys answer: the replier's hottest specs.
    WarmKeys(Vec<ModuleSpec>),
    /// A structured server-side error (`timeout`, `overloaded`, …) —
    /// part of normal operation, not a transport failure.
    Error {
        /// The error kind string (`ErrorKind::as_str` spelling).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

/// One reply, correlated to the request it answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Id returned by [`Client::send`] for the request this answers.
    pub id: u64,
    /// The request's deadline expired while it executed; this is the
    /// full (late) answer. v2 only — v1 never sets it.
    pub late: bool,
    /// The decoded reply body.
    pub response: Response,
}

/// A client-side failure: transport error, or a reply the client could
/// not make sense of. Server-side errors are [`Response::Error`], not
/// this.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes EOF with replies outstanding).
    Io(io::Error),
    /// A reply that violates the protocol (bad frame, bogus JSON,
    /// unknown source code, …).
    Protocol(String),
    /// The request cannot be expressed on the negotiated protocol.
    Unsupported(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Bytes the client reads from the socket at a time.
const READ_BUFFER: usize = 64 * 1024;

/// A connection to the server, in the mode fixed at
/// [`Client::connect`].
pub struct Client {
    proto: Proto,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// v1: ids in send order (replies are FIFO).
    fifo: VecDeque<(u64, wire::Opcode)>,
    /// v2: outstanding ids → the opcode sent, for reply decoding.
    pending: HashMap<u64, wire::Opcode>,
    /// v1: the line being written or read, reused from line to line.
    line: Vec<u8>,
}

impl Client {
    /// Connect and negotiate `proto` (for v2: write the [`wire::MAGIC`]
    /// preamble).
    ///
    /// # Errors
    ///
    /// Connection or preamble-write failure.
    pub fn connect(addr: impl ToSocketAddrs, proto: Proto) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?, proto)
    }

    /// Wrap an existing stream (so callers can set timeouts first) and
    /// negotiate `proto`.
    ///
    /// # Errors
    ///
    /// Stream duplication or preamble-write failure.
    pub fn from_stream(stream: TcpStream, proto: Proto) -> io::Result<Client> {
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone()?;
        let mut client = Client {
            proto,
            // Room for a pipelined burst of replies per read.
            reader: BufReader::with_capacity(READ_BUFFER, stream),
            writer: BufWriter::new(write_half),
            next_id: 1,
            fifo: VecDeque::new(),
            pending: HashMap::new(),
            line: Vec::new(),
        };
        if proto == Proto::V2 {
            client.writer.write_all(&wire::MAGIC)?;
        }
        Ok(client)
    }

    /// The negotiated protocol.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Outstanding requests (sent or buffered, reply not yet received).
    pub fn outstanding(&self) -> usize {
        self.fifo.len() + self.pending.len()
    }

    /// Buffer one request and return its id. Nothing hits the wire
    /// until [`Client::flush`] (or the buffer fills); pipelined callers
    /// send a window of requests and then drain replies with
    /// [`Client::recv`].
    ///
    /// `deadline_ms` sets the per-request deadline (v2: in band; v1:
    /// the `deadline_ms` field), counted on the server from the socket
    /// read to the start of execution.
    ///
    /// # Errors
    ///
    /// Transport failure, or a v2-only request on a v1 connection.
    pub fn send(
        &mut self,
        request: &Request,
        deadline_ms: Option<u32>,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.proto {
            Proto::V1 => {
                self.line.clear();
                if !protocol::write_request(&mut self.line, request, deadline_ms.map(u64::from)) {
                    return Err(ClientError::Unsupported(
                        "ping and the cluster ops are v2-only",
                    ));
                }
                self.line.push(b'\n');
                self.writer.write_all(&self.line)?;
                self.fifo.push_back((id, request.opcode()));
            }
            Proto::V2 => {
                let mut frame = Vec::with_capacity(wire::HEADER_LEN + wire::ESTIMATE_REQ_LEN);
                wire::encode_request(&mut frame, id, request, deadline_ms.unwrap_or(0));
                self.writer.write_all(&frame)?;
                self.pending.insert(id, request.opcode());
            }
        }
        Ok(id)
    }

    /// Push buffered requests to the socket.
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Block for the next reply. Under v2 this is whichever request the
    /// server finished first; correlate with [`Reply::id`].
    ///
    /// # Errors
    ///
    /// Transport failure (including EOF), a reply violating the
    /// protocol, or no requests outstanding.
    pub fn recv(&mut self) -> Result<Reply, ClientError> {
        if self.outstanding() == 0 {
            return Err(ClientError::Protocol(
                "recv with nothing outstanding".into(),
            ));
        }
        match self.proto {
            Proto::V1 => self.recv_v1(),
            Proto::V2 => self.recv_v2(),
        }
    }

    /// Sync mode: send one request, flush, and block for its reply.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] / [`Client::recv`]; also refuses when
    /// pipelined requests are outstanding (their replies would
    /// interleave).
    pub fn call(
        &mut self,
        request: &Request,
        deadline_ms: Option<u32>,
    ) -> Result<Reply, ClientError> {
        if self.outstanding() > 0 {
            return Err(ClientError::Protocol(
                "call() with pipelined requests outstanding".into(),
            ));
        }
        let id = self.send(request, deadline_ms)?;
        self.flush()?;
        let reply = self.recv()?;
        if reply.id != id {
            return Err(ClientError::Protocol(format!(
                "reply id {} does not match request id {id}",
                reply.id
            )));
        }
        Ok(reply)
    }

    fn recv_v1(&mut self) -> Result<Reply, ClientError> {
        let (id, _op) = self.fifo.pop_front().expect("outstanding checked");
        self.line.clear();
        let n = self.reader.read_until(b'\n', &mut self.line)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed with replies outstanding",
            )));
        }
        let line = std::str::from_utf8(&self.line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let response = protocol::decode_reply(line.trim_end()).map_err(ClientError::Protocol)?;
        Ok(Reply {
            id,
            late: false,
            response,
        })
    }

    fn recv_v2(&mut self) -> Result<Reply, ClientError> {
        let mut raw = [0u8; wire::HEADER_LEN];
        self.reader.read_exact(&mut raw)?;
        let header = wire::decode_header(&raw);
        if header.len > wire::MAX_PAYLOAD {
            // A pre-negotiation rejection (connection limit) is the one
            // case where a v2 client sees v1 bytes: a JSON error line.
            // Only it can open with `{` *and* announce more than
            // MAX_PAYLOAD: a frame's `len` has a zero top byte, a JSON
            // line's fourth byte never is.
            if raw[0] == b'{' {
                return self.recv_v1_rejection(&raw);
            }
            return Err(ClientError::Protocol(format!(
                "reply frame announces {} bytes (max {})",
                header.len,
                wire::MAX_PAYLOAD
            )));
        }
        let mut payload = vec![0u8; header.len as usize];
        self.reader.read_exact(&mut payload)?;
        let Some(op) = self.pending.remove(&header.id) else {
            return Err(ClientError::Protocol(format!(
                "reply for unknown request id {}",
                header.id
            )));
        };
        let response =
            wire::decode_reply(op, header.op, &payload).map_err(ClientError::Protocol)?;
        Ok(Reply {
            id: header.id,
            late: header.extra & wire::FLAG_LATE != 0,
            response,
        })
    }

    /// Finish reading a v1 JSON rejection line whose first
    /// [`wire::HEADER_LEN`] bytes are `head`, reading at most
    /// [`wire::MAX_PAYLOAD`] bytes, and answer the oldest outstanding id
    /// with it.
    fn recv_v1_rejection(&mut self, head: &[u8]) -> Result<Reply, ClientError> {
        let mut line = head.to_vec();
        (&mut self.reader)
            .take(u64::from(wire::MAX_PAYLOAD))
            .read_until(b'\n', &mut line)?;
        if line.last() != Some(&b'\n') {
            return Err(ClientError::Protocol(
                "unterminated JSON line in place of a v2 reply frame".into(),
            ));
        }
        let response = protocol::decode_reply(String::from_utf8_lossy(&line).trim_end())
            .map_err(ClientError::Protocol)?;
        let id = *self.pending.keys().min().expect("outstanding checked");
        self.pending.remove(&id);
        Ok(Reply {
            id,
            late: false,
            response,
        })
    }
}
