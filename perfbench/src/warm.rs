//! Warm traffic over the working set: closed-loop and pipelined phases
//! on two connections, one client thread each.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hdpm_core::Fidelity;
use hdpm_server::client::{Client, Proto, Request, Response};

use crate::harness::{connect, Answer, Failure, Ledger};
use crate::inputs::Key;

/// Connections (and client threads) driving every warm phase.
pub const CONNECTIONS: usize = 2;

/// Requests per pipelined burst on each connection (warm_bulk).
pub const BURST: usize = 64;

/// Completion-rate blocks per measured window.
const BLOCKS: usize = 10;

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-request latency of the requests sent inside the window.
    pub latencies_ns: Vec<u64>,
    /// Closed phases: replies completed inside the window, per block.
    pub block_counts: Vec<u64>,
    pub block: Duration,
    /// Pipelined phases: first send → last reply of each burst. The
    /// median burst sets the phase's rate: completions counted per block
    /// swing with thread placement far more than a burst's duration.
    pub bursts_ns: Vec<u64>,
    /// Replies served from the v2 reply memo inside the window.
    pub memo: u64,
    pub ledger: Ledger,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latencies_ns.extend(other.latencies_ns);
        self.bursts_ns.extend(other.bursts_ns);
        for (mine, theirs) in self.block_counts.iter_mut().zip(other.block_counts) {
            *mine += theirs;
        }
        self.memo += other.memo;
        self.ledger.merge(&other.ledger);
    }
}

/// Shared timing frame of one phase: an untimed warm-up, then the window.
#[derive(Clone, Copy)]
struct Window {
    from: Instant,
    to: Instant,
    block: Duration,
}

impl Window {
    fn new(warmup: Duration, measure: Duration) -> Window {
        let from = Instant::now() + warmup;
        Window {
            from,
            to: from + measure,
            block: measure / BLOCKS as u32,
        }
    }

    fn block_of(&self, at: Instant) -> Option<usize> {
        (at >= self.from && at < self.to).then(|| {
            let index = (at - self.from).as_nanos() / self.block.as_nanos().max(1);
            (index as usize).min(BLOCKS - 1)
        })
    }
}

/// Check one estimate reply against its expected answer.
fn verify(
    ledger: &mut Ledger,
    response: &Response,
    key: &Key,
    expected: &Answer,
    memo: &mut bool,
) -> bool {
    match response {
        Response::Estimate(answer)
            if answer.fidelity == Fidelity::Full && Answer::of(answer).same_bits(expected) =>
        {
            *memo = answer.source == "memo";
            true
        }
        other => {
            ledger.record(Failure::Unexpected);
            if ledger.gate_failures.len() < 8 {
                ledger.gate_failures.push(format!(
                    "warm {}: {other:?} != reference {expected:?}",
                    key.spec
                ));
            }
            false
        }
    }
}

/// Run `body` on each connection's thread and merge the results.
fn on_connections(
    addr: SocketAddr,
    proto: Proto,
    window: Window,
    body: impl Fn(&mut Client, usize, Window, &mut Phase) + Sync,
) -> Phase {
    let mut total = Phase {
        block_counts: vec![0; BLOCKS],
        block: window.block,
        ..Phase::default()
    };
    let body = &body;
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut phase = Phase {
                        block_counts: vec![0; BLOCKS],
                        block: window.block,
                        ..Phase::default()
                    };
                    match connect(addr, proto) {
                        Ok(mut client) => body(&mut client, c, window, &mut phase),
                        Err(e) => {
                            phase.ledger.attempted += 1;
                            phase.ledger.record(Failure::Transport);
                            phase.ledger.gate_failures.push(e);
                        }
                    }
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for part in parts {
        total.merge(part);
    }
    total
}

/// Closed loop: each connection sends its next request only after the
/// previous reply, cycling through the working set from its own offset.
pub fn closed(
    addr: SocketAddr,
    proto: Proto,
    keys: &[Key],
    expected: &[Answer],
    warmup: Duration,
    measure: Duration,
) -> Phase {
    let requests: Vec<Request> = keys.iter().map(|k| k.request(None)).collect();
    let window = Window::new(warmup, measure);
    on_connections(addr, proto, window, |client, c, window, phase| {
        let mut i = c * keys.len() / CONNECTIONS;
        loop {
            let sent = Instant::now();
            if sent >= window.to {
                break;
            }
            let at = i % keys.len();
            i += 1;
            let result = client.call(&requests[at], None);
            let done = Instant::now();
            let reply = match phase.ledger.check(result) {
                Ok(reply) => reply,
                Err(Failure::Transport) => break,
                Err(_) => continue,
            };
            let mut memo = false;
            if !verify(
                &mut phase.ledger,
                &reply.response,
                &keys[at],
                &expected[at],
                &mut memo,
            ) {
                continue;
            }
            if let Some(block) = window.block_of(done) {
                phase.block_counts[block] += 1;
            }
            if sent >= window.from {
                phase.latencies_ns.push((done - sent).as_nanos() as u64);
                phase.memo += u64::from(memo);
            }
        }
    })
}

/// Pipelined: each connection sends a burst of [`BURST`] requests in one
/// flush and reads all their replies before the next burst. Under v2
/// replies complete out of order and are matched by id.
pub fn bulk(
    addr: SocketAddr,
    proto: Proto,
    keys: &[Key],
    expected: &[Answer],
    warmup: Duration,
    measure: Duration,
) -> Phase {
    let requests: Vec<Request> = keys.iter().map(|k| k.request(None)).collect();
    let window = Window::new(warmup, measure);
    on_connections(addr, proto, window, |client, c, window, phase| {
        let mut i = c * keys.len() / CONNECTIONS;
        let mut inflight: HashMap<u64, usize> = HashMap::with_capacity(BURST);
        loop {
            let sent = Instant::now();
            if sent >= window.to {
                return;
            }
            for _ in 0..BURST {
                let at = i % keys.len();
                i += 1;
                match client.send(&requests[at], None) {
                    Ok(id) => {
                        inflight.insert(id, at);
                    }
                    Err(_) => {
                        phase.ledger.attempted += 1;
                        phase.ledger.record(Failure::Transport);
                        return;
                    }
                }
            }
            if client.flush().is_err() {
                phase.ledger.attempted += inflight.len() as u64;
                phase.ledger.transport += inflight.len() as u64;
                return;
            }
            let mut done = sent;
            while !inflight.is_empty() {
                let result = client.recv();
                done = Instant::now();
                let Ok(reply) = result else {
                    // The connection is unusable: this reply and every
                    // other outstanding one are lost.
                    phase.ledger.check(result).ok();
                    let lost = inflight.len() as u64 - 1;
                    phase.ledger.attempted += lost;
                    phase.ledger.transport += lost;
                    return;
                };
                let entry = inflight.remove(&reply.id);
                let Ok(reply) = phase.ledger.check(Ok(reply)) else {
                    continue;
                };
                let Some(at) = entry else {
                    phase.ledger.record(Failure::Unexpected);
                    continue;
                };
                let mut memo = false;
                if !verify(
                    &mut phase.ledger,
                    &reply.response,
                    &keys[at],
                    &expected[at],
                    &mut memo,
                ) {
                    continue;
                }
                if sent >= window.from {
                    phase.latencies_ns.push((done - sent).as_nanos() as u64);
                    phase.memo += u64::from(memo);
                }
            }
            if sent >= window.from {
                phase.bursts_ns.push((done - sent).as_nanos() as u64);
            }
        }
    })
}
