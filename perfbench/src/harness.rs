//! Server lifecycle, client connections and the failure ledger every
//! workload shares.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_server::client::{Client, ClientError, EstimateAnswer, Proto, Reply, Request, Response};
use hdpm_server::{Server, ServerConfig};

/// The engine every server and the in-process reference share: the
/// production defaults, with a disk tier when `store` is given.
pub fn engine_options(store: Option<&Path>) -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::default(),
        sharding: Some(ShardingConfig::default()),
        disk_root: store.map(Path::to_path_buf),
        capacity: 64,
    }
}

/// Start an in-process server on `store`. Its own per-request tracing
/// is off: end-to-end figures are measured untraced.
pub fn start_server(store: &Path) -> Result<Server, String> {
    let config = ServerConfig::builder()
        .queue_depth(4096)
        .max_connections(64)
        .tracing(false)
        .slow_threshold(Duration::from_secs(3600))
        .engine(engine_options(Some(store)))
        .build()
        .map_err(|e| format!("server config: {e}"))?;
    Server::start(config).map_err(|e| format!("server start: {e}"))
}

/// Connect with a read timeout, so a stalled server fails the run
/// instead of hanging it.
pub fn connect(addr: SocketAddr, proto: Proto) -> Result<Client, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    Client::from_stream(stream, proto).map_err(|e| format!("negotiate {addr}: {e}"))
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    Overloaded,
    Timeout,
    Engine,
    Transport,
    /// A reply of a kind or value the request did not call for.
    Unexpected,
}

/// Operations attempted and failed, split by kind, plus the late and
/// memo-served reply counts of the v2 paths.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub overloaded: u64,
    pub timeout: u64,
    pub engine: u64,
    pub transport: u64,
    pub unexpected: u64,
    pub late: u64,
    /// Correctness gates that failed, with what they saw.
    pub gate_failures: Vec<String>,
}

impl Ledger {
    pub fn failed(&self) -> u64 {
        self.overloaded + self.timeout + self.engine + self.transport + self.unexpected
    }

    pub fn record(&mut self, failure: Failure) {
        match failure {
            Failure::Overloaded => self.overloaded += 1,
            Failure::Timeout => self.timeout += 1,
            Failure::Engine => self.engine += 1,
            Failure::Transport => self.transport += 1,
            Failure::Unexpected => self.unexpected += 1,
        }
    }

    /// Fail a gate unless `ok`; the message is built only on failure.
    pub fn gate(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(message());
        }
    }

    pub fn merge(&mut self, other: &Ledger) {
        self.attempted += other.attempted;
        self.overloaded += other.overloaded;
        self.timeout += other.timeout;
        self.engine += other.engine;
        self.transport += other.transport;
        self.unexpected += other.unexpected;
        self.late += other.late;
        self.gate_failures
            .extend(other.gate_failures.iter().cloned());
    }

    /// Classify one reply, counting it as attempted.
    pub fn check(&mut self, result: Result<Reply, ClientError>) -> Result<Reply, Failure> {
        self.attempted += 1;
        let outcome = match result {
            Err(ClientError::Io(_)) => Err(Failure::Transport),
            Err(_) => Err(Failure::Unexpected),
            Ok(reply) => match &reply.response {
                Response::Error { kind, .. } => Err(match kind.as_str() {
                    "overloaded" => Failure::Overloaded,
                    "timeout" => Failure::Timeout,
                    "engine" => Failure::Engine,
                    _ => Failure::Unexpected,
                }),
                _ => Ok(reply),
            },
        };
        match &outcome {
            Ok(reply) if reply.late => self.late += 1,
            Ok(_) => {}
            Err(failure) => self.record(*failure),
        }
        outcome
    }

    /// One synchronous estimate call, classified.
    pub fn estimate(
        &mut self,
        client: &mut Client,
        request: &Request,
    ) -> Result<EstimateAnswer, Failure> {
        let reply = self.check(client.call(request, None))?;
        match reply.response {
            Response::Estimate(answer) => Ok(answer),
            _ => {
                self.record(Failure::Unexpected);
                Err(Failure::Unexpected)
            }
        }
    }

    /// One synchronous stats call, classified.
    pub fn stats(
        &mut self,
        client: &mut Client,
    ) -> Result<hdpm_server::client::StatsAnswer, Failure> {
        let reply = self.check(client.call(&Request::Stats, None))?;
        match reply.response {
            Response::Stats(stats) => Ok(stats),
            _ => {
                self.record(Failure::Unexpected);
                Err(Failure::Unexpected)
            }
        }
    }
}

/// The numeric part of an estimate answer, compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub charge_per_cycle: f64,
    pub via_average: f64,
    pub average_hd: f64,
}

impl Answer {
    pub fn of(answer: &EstimateAnswer) -> Answer {
        Answer {
            charge_per_cycle: answer.charge_per_cycle,
            via_average: answer.via_average,
            average_hd: answer.average_hd,
        }
    }

    pub fn same_bits(&self, other: &Answer) -> bool {
        self.charge_per_cycle.to_bits() == other.charge_per_cycle.to_bits()
            && self.via_average.to_bits() == other.via_average.to_bits()
            && self.average_hd.to_bits() == other.average_hd.to_bits()
    }
}
