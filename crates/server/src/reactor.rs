//! The event-driven front end: a small fixed pool of reactor threads
//! multiplexing every connection over epoll ([`poller`]).
//!
//! Each reactor owns a [`poller::Poller`] plus the read-side state of
//! the connections assigned to it (round-robin by the accept thread).
//! A connection costs one registered fd and a few hundred bytes of
//! state — not two threads — so 10k+ mostly-idle connections are served
//! by `reactors + workers + 2` threads total.
//!
//! Responsibilities per reactor:
//!
//! * **negotiation** — the first byte of a connection picks the
//!   protocol: `0x00` opens the v2 preamble ([`crate::wire::MAGIC`]),
//!   anything else is a v1 JSON-lines client;
//! * **framing** — v1 bytes are cut into lines, each numbered in the
//!   connection's reply sequence, and v2 bytes into frames, in bursts of
//!   up to [`MAX_BATCH`]. Each line, or each burst, goes to the one
//!   request pipeline ([`Shared::dispatch`], see [`crate::server`]),
//!   which answers on this thread only what needs nothing but memory;
//!   nothing a reactor runs can block;
//! * **reply order and write-side drainage** — whichever thread answered
//!   hands its replies to [`ConnOut::reply`]: v1 replies pass the
//!   per-connection sequencer so they leave in request order, v2 replies
//!   leave at once. Bytes are written opportunistically by that thread;
//!   only when the socket would block does the reactor take over via
//!   `EPOLLOUT`, enforcing the write timeout and the output-buffer cap;
//! * **hygiene** — idle reaping, peer-close detection, and the
//!   flush-then-close endgame after EOF or drain.
//!
//! Locking: a connection's v1 sequencer lock is always taken **before**
//! its output-buffer lock (reply writers hold `v1 → out` nested so reply
//! bytes hit the buffer in sequence order); nothing ever takes them in
//! the other order. Writer-side failures under the `out` lock mark the
//! connection dead in place and defer sequencer cleanup to the
//! reactor's teardown.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hdpm_telemetry as telemetry;
use poller::{Interest, Poller, Waker};

use crate::client::Proto;
use crate::protocol::ErrorKind;
use crate::server::{FrameRef, Shared, TraceFinish};
use crate::wire;

/// Token reserved for each reactor's waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// Most frames coalesced into one v2 batch job.
pub(crate) const MAX_BATCH: usize = 1024;

/// Output-buffer cap per connection; a consumer this far behind is cut
/// instead of buffering without bound.
const OUT_CAP: usize = 4 << 20;

/// Bytes read per `read` call into the reactor's scratch buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Cross-thread mailbox messages into a reactor.
pub(crate) enum Mail {
    /// A freshly accepted connection to adopt.
    Register {
        /// The nonblocking stream (shared with [`ConnOut`]).
        stream: Arc<TcpStream>,
        /// Its write side.
        out: Arc<ConnOut>,
    },
    /// A reply write hit `WouldBlock`; arm `EPOLLOUT` for this token.
    WantWrite(u64),
    /// The last in-flight job of a read-closed connection finished;
    /// flush whatever is buffered and close.
    Close(u64),
}

/// The handle other threads use to reach a reactor: a mailbox plus the
/// eventfd waker that interrupts its `epoll_wait`.
pub(crate) struct ReactorHandle {
    mailbox: Mutex<Vec<Mail>>,
    waker: Waker,
}

impl ReactorHandle {
    pub(crate) fn new(poller: &Poller) -> io::Result<ReactorHandle> {
        Ok(ReactorHandle {
            mailbox: Mutex::new(Vec::new()),
            waker: Waker::new(poller, WAKER_TOKEN)?,
        })
    }

    /// Post mail and wake the reactor.
    pub(crate) fn post(&self, mail: Mail) {
        self.mailbox.lock().expect("reactor mailbox").push(mail);
        self.waker.wake();
    }

    /// Wake without mail (drain/finish phase changes).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn take_mail(&self) -> Vec<Mail> {
        std::mem::take(&mut *self.mailbox.lock().expect("reactor mailbox"))
    }
}

/// How a flush attempt left the output buffer.
enum FlushState {
    /// Everything buffered is on the wire.
    Drained,
    /// The socket would block; `EPOLLOUT` is needed.
    Blocked,
    /// The write side failed; the connection is dead.
    Dead,
}

struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written.
    pos: usize,
    /// When the socket first refused bytes still pending; cleared on a
    /// full drain. The reactor's scan turns this into the write timeout.
    blocked_since: Option<Instant>,
}

struct V1State {
    /// Sequence number the wire is waiting for next.
    next: u64,
    /// Completed replies with earlier gaps outstanding, each with the
    /// trace it files once written; empty bytes mark a slot owing no
    /// output.
    pending: std::collections::BTreeMap<u64, (Vec<u8>, Option<Box<TraceFinish>>)>,
}

/// The write side of a connection, shared between the owning reactor
/// and the worker pool. Whichever thread answered a request appends its
/// reply bytes and flushes opportunistically; the reactor finishes the
/// job under `EPOLLOUT` when a socket pushes back.
pub(crate) struct ConnOut {
    /// The epoll token (stable for the connection's lifetime).
    pub(crate) token: u64,
    stream: Arc<TcpStream>,
    reactor: Arc<ReactorHandle>,
    alive: AtomicBool,
    /// The peer half-closed (or the reactor stopped reading for good);
    /// the connection closes once `inflight` jobs drain and the buffer
    /// flushes.
    read_closed: AtomicBool,
    /// Queue jobs (v1 lines / v2 batches) not yet fully answered.
    inflight: AtomicUsize,
    out: Mutex<OutBuf>,
    v1: Mutex<V1State>,
}

impl ConnOut {
    pub(crate) fn new(token: u64, stream: Arc<TcpStream>, reactor: Arc<ReactorHandle>) -> ConnOut {
        ConnOut {
            token,
            stream,
            reactor,
            alive: AtomicBool::new(true),
            read_closed: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            out: Mutex::new(OutBuf {
                buf: Vec::new(),
                pos: 0,
                blocked_since: None,
            }),
            v1: Mutex::new(V1State {
                next: 0,
                pending: std::collections::BTreeMap::new(),
            }),
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Account one queue job against this connection.
    pub(crate) fn begin_job(&self) {
        self.inflight.fetch_add(1, Ordering::SeqCst);
    }

    /// Retire one queue job; the last job of a read-closed connection
    /// asks the reactor to flush-and-close.
    pub(crate) fn finish_job(&self) {
        if self.inflight.fetch_sub(1, Ordering::SeqCst) == 1
            && self.read_closed.load(Ordering::SeqCst)
            && self.is_alive()
        {
            self.reactor.post(Mail::Close(self.token));
        }
    }

    /// Tear the write side down: refuse future bytes, wake blocked peer
    /// I/O, drop everything buffered. Idempotent; callable from any
    /// thread. The reactor also deregisters the fd when it observes the
    /// death (HUP or scan).
    pub(crate) fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        let mut st = self.out.lock().expect("conn out lock");
        st.buf.clear();
        st.pos = 0;
        st.blocked_since = None;
    }

    /// Like [`ConnOut::kill`] for a caller already holding the `out`
    /// lock (flush failures).
    fn mark_dead(&self, st: &mut OutBuf) {
        self.alive.store(false, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        st.buf.clear();
        st.pos = 0;
        st.blocked_since = None;
    }

    /// Drop the v1 sequencer state (reactor teardown). Any replies
    /// still held for reordering are abandoned with their traces —
    /// the connection is gone; nobody would read them.
    fn clear_v1(&self) {
        self.v1.lock().expect("conn v1 lock").pending.clear();
    }

    /// Whether nothing remains to write (or ever will).
    fn flushed_or_dead(&self) -> bool {
        if !self.is_alive() {
            return true;
        }
        let st = self.out.lock().expect("conn out lock");
        st.pos >= st.buf.len()
    }

    fn try_flush(&self, st: &mut OutBuf) -> FlushState {
        while st.pos < st.buf.len() {
            match (&*self.stream).write(&st.buf[st.pos..]) {
                Ok(0) => {
                    self.mark_dead(st);
                    return FlushState::Dead;
                }
                Ok(n) => st.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if st.blocked_since.is_none() {
                        st.blocked_since = Some(Instant::now());
                    }
                    // Reclaim the written prefix so a long-blocked
                    // buffer does not grow by its own history.
                    if st.pos > READ_CHUNK {
                        st.buf.drain(..st.pos);
                        st.pos = 0;
                    }
                    return FlushState::Blocked;
                }
                Err(e) => {
                    telemetry::counter_add("server.conn.write_failed", 1);
                    telemetry::event(
                        telemetry::Level::Warn,
                        "server.conn.write_failed",
                        &[("error", e.to_string().into())],
                    );
                    self.mark_dead(st);
                    return FlushState::Dead;
                }
            }
        }
        st.buf.clear();
        st.pos = 0;
        st.blocked_since = None;
        FlushState::Drained
    }

    /// Append reply bytes and flush as far as the socket allows without
    /// blocking, from whichever thread answered; when the socket pushes
    /// back, the owning reactor takes over via [`Mail::WantWrite`].
    fn send(&self, bytes: &[u8]) {
        if bytes.is_empty() || !self.is_alive() {
            return;
        }
        let mut st = self.out.lock().expect("conn out lock");
        if !self.is_alive() {
            return;
        }
        st.buf.extend_from_slice(bytes);
        if st.buf.len() - st.pos > OUT_CAP {
            telemetry::counter_add("server.conn.write_failed", 1);
            telemetry::event(
                telemetry::Level::Warn,
                "server.conn.write_failed",
                &[("error", "output buffer cap exceeded".into())],
            );
            self.mark_dead(&mut st);
            return;
        }
        match self.try_flush(&mut st) {
            FlushState::Drained | FlushState::Dead => {}
            FlushState::Blocked => {
                drop(st);
                self.reactor.post(Mail::WantWrite(self.token));
            }
        }
    }

    /// Put one dispatch's or job's replies on the wire in the protocol's
    /// reply order: v2 at once, v1 through the sequencer at slot `seq`,
    /// together with every consecutively-ready later slot. Empty `bytes`
    /// owe no output (a blank v1 line, a dropped job). Traces are filed
    /// after the write, with both locks released.
    pub(crate) fn reply(
        &self,
        proto: Proto,
        seq: u64,
        bytes: Vec<u8>,
        finish: Option<Box<TraceFinish>>,
    ) {
        let mut finishes: Vec<Box<TraceFinish>> = Vec::new();
        let mut wrote = false;
        if proto == Proto::V2 {
            wrote = !bytes.is_empty() && self.is_alive();
            self.send(&bytes);
            finishes.extend(finish);
        } else {
            let v1 = &mut *self.v1.lock().expect("conn v1 lock");
            if !self.is_alive() {
                // Dead connection: advance the sequencer for form's sake
                // and let the trace go unrecorded as a socket write.
                v1.next = v1.next.max(seq + 1);
                finishes.extend(finish);
            } else {
                v1.pending.insert(seq, (bytes, finish));
                let mut ready: Vec<u8> = Vec::new();
                while let Some((bytes, finish)) = v1.pending.remove(&v1.next) {
                    v1.next += 1;
                    if ready.is_empty() {
                        ready = bytes;
                    } else {
                        ready.extend_from_slice(&bytes);
                    }
                    finishes.extend(finish);
                }
                wrote = !ready.is_empty();
                // v1 → out nested (the crate-wide lock order): the bytes
                // of consecutive sequences reach the buffer in order even
                // with workers racing on different sequences.
                self.send(&ready);
            }
        }
        for finish in finishes {
            finish.complete(wrote);
        }
    }
}

/// Read-side state of one connection, owned by its reactor.
struct Conn {
    stream: Arc<TcpStream>,
    out: Arc<ConnOut>,
    /// The protocol the first bytes chose; `None` while negotiating.
    proto: Option<Proto>,
    /// Unconsumed input: a partial v1 line or v2 frame.
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` already scanned for a v1 newline.
    scanned: usize,
    /// The v1 reply sequence number of the next line.
    next_seq: u64,
    last_activity: Instant,
    /// Currently registered epoll interest.
    interest: Interest,
    /// EOF seen (or drain): close once in-flight jobs and the output
    /// buffer drain.
    closing: bool,
}

enum ReadOutcome {
    Open,
    /// Peer half-closed; no more requests will arrive.
    Eof,
    /// Protocol violation or transport error; tear down now.
    Dead,
}

/// One reactor thread: `epoll_wait` → mailbox → readiness events →
/// timeout scans, until the server finishes draining.
pub(crate) fn run_reactor(shared: &Arc<Shared>, handle: &Arc<ReactorHandle>, poller: &Poller) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<poller::Event> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut drain_acked = false;
    // The poll tick bounds how late the idle/write-timeout scans and the
    // drain handshake can run.
    let tick = shared
        .idle_timeout()
        .checked_div(4)
        .unwrap_or(Duration::from_millis(100))
        .min(Duration::from_millis(100))
        .max(Duration::from_millis(1));
    loop {
        let _ = poller.wait(&mut events, Some(tick));
        for mail in handle.take_mail() {
            match mail {
                Mail::Register { stream, out } => {
                    let token = out.token;
                    // Connections arriving after the drain ack are never
                    // read; they close in the finish phase.
                    let interest = if drain_acked {
                        Interest::NONE
                    } else {
                        Interest::READ
                    };
                    if poller.add(stream.as_raw_fd(), token, interest).is_err() {
                        out.kill();
                        shared.release_connection();
                        continue;
                    }
                    conns.insert(
                        token,
                        Conn {
                            stream,
                            out,
                            proto: None,
                            rbuf: Vec::new(),
                            scanned: 0,
                            next_seq: 0,
                            last_activity: Instant::now(),
                            interest,
                            closing: false,
                        },
                    );
                }
                Mail::WantWrite(token) => {
                    if let Some(conn) = conns.get_mut(&token) {
                        let readable = conn.interest.readable;
                        set_interest(poller, conn, readable, true);
                    }
                }
                Mail::Close(token) => {
                    let flushed = match conns.get_mut(&token) {
                        Some(conn) => {
                            conn.closing = true;
                            // Make sure the flush completes even if the
                            // last worker write hit WouldBlock.
                            let readable = conn.interest.readable;
                            set_interest(poller, conn, readable, true);
                            conn.out.flushed_or_dead()
                        }
                        None => continue,
                    };
                    if flushed {
                        teardown(shared, poller, &mut conns, token);
                    }
                }
            }
        }
        // `events` is only refilled by `wait`; the body mutates `conns`,
        // never the event list.
        for &event in events.iter() {
            if event.token == WAKER_TOKEN {
                handle.waker.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&event.token) else {
                continue;
            };
            if event.error {
                teardown(shared, poller, &mut conns, event.token);
                continue;
            }
            if event.writable {
                let state = {
                    let mut st = conn.out.out.lock().expect("conn out lock");
                    conn.out.try_flush(&mut st)
                };
                match state {
                    FlushState::Dead => {
                        teardown(shared, poller, &mut conns, event.token);
                        continue;
                    }
                    FlushState::Drained => {
                        let conn = conns.get_mut(&event.token).expect("still present");
                        let readable = conn.interest.readable;
                        set_interest(poller, conn, readable, false);
                        if conn.closing && conn.out.inflight.load(Ordering::SeqCst) == 0 {
                            teardown(shared, poller, &mut conns, event.token);
                            continue;
                        }
                    }
                    FlushState::Blocked => {}
                }
            }
            let Some(conn) = conns.get_mut(&event.token) else {
                continue;
            };
            if event.readable || event.closed {
                match handle_read(shared, conn, &mut scratch) {
                    ReadOutcome::Open => {}
                    ReadOutcome::Eof => {
                        conn.out.read_closed.store(true, Ordering::SeqCst);
                        conn.closing = true;
                        let writable = conn.interest.writable;
                        set_interest(poller, conn, false, writable);
                        if conn.out.inflight.load(Ordering::SeqCst) == 0
                            && conn.out.flushed_or_dead()
                        {
                            teardown(shared, poller, &mut conns, event.token);
                        }
                    }
                    ReadOutcome::Dead => {
                        teardown(shared, poller, &mut conns, event.token);
                    }
                }
            }
        }
        events.clear();
        // Idle and write-timeout scans. Cheap even at 10k connections:
        // two loads and an Instant comparison per connection per tick.
        let now = Instant::now();
        let idle = shared.idle_timeout();
        let write_timeout = shared.write_timeout();
        let reap: Vec<u64> = conns
            .iter()
            .filter_map(|(&token, conn)| {
                if !conn.out.is_alive() {
                    return Some(token);
                }
                if !conn.closing && now.duration_since(conn.last_activity) >= idle {
                    telemetry::counter_add("server.conn.reaped", 1);
                    return Some(token);
                }
                let st = conn.out.out.lock().expect("conn out lock");
                if let Some(blocked) = st.blocked_since {
                    if now.duration_since(blocked) >= write_timeout {
                        telemetry::counter_add("server.conn.write_failed", 1);
                        telemetry::event(
                            telemetry::Level::Warn,
                            "server.conn.write_failed",
                            &[("error", "write timeout".into())],
                        );
                        return Some(token);
                    }
                }
                None
            })
            .collect();
        for token in reap {
            teardown(shared, poller, &mut conns, token);
        }
        if shared.draining() && !drain_acked {
            // Stop reading (and with it, enqueuing) on every connection,
            // then tell the drain orchestrator this reactor is quiet.
            // Interest must drop before the ack: level-triggered
            // readiness on ignored sockets would spin the loop.
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                if let Some(conn) = conns.get_mut(&token) {
                    let writable = conn.interest.writable;
                    set_interest(poller, conn, false, writable);
                }
            }
            drain_acked = true;
            shared.ack_drain();
        }
        if shared.finished() {
            // Workers are gone; flush what remains (bounded by the
            // write-timeout scan above) and leave.
            let done: Vec<u64> = conns
                .iter()
                .filter(|(_, conn)| conn.out.flushed_or_dead())
                .map(|(&token, _)| token)
                .collect();
            for token in done {
                teardown(shared, poller, &mut conns, token);
            }
            if conns.is_empty() {
                break;
            }
        }
    }
}

fn set_interest(poller: &Poller, conn: &mut Conn, readable: bool, writable: bool) {
    let interest = Interest { readable, writable };
    if interest == conn.interest {
        return;
    }
    if poller
        .modify(conn.stream.as_raw_fd(), conn.out.token, interest)
        .is_ok()
    {
        conn.interest = interest;
    }
}

fn teardown(shared: &Arc<Shared>, poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    let Some(conn) = conns.remove(&token) else {
        return;
    };
    let _ = poller.delete(conn.stream.as_raw_fd());
    conn.out.kill();
    conn.out.clear_v1();
    shared.release_connection();
}

/// Drain the socket into `conn.rbuf`, parsing as bytes arrive so the
/// buffer only ever holds one partial line or frame.
fn handle_read(shared: &Arc<Shared>, conn: &mut Conn, scratch: &mut [u8]) -> ReadOutcome {
    loop {
        match (&*conn.stream).read(scratch) {
            Ok(0) => {
                // EOF. A final unterminated v1 line still gets a reply,
                // matching the historical reader; a connection still
                // negotiating (a v2 preamble cut short) closes with none.
                if conn.proto == Some(Proto::V1) && !conn.rbuf.is_empty() {
                    conn.rbuf.push(b'\n');
                    parse_v1(shared, conn);
                }
                return ReadOutcome::Eof;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.rbuf.extend_from_slice(&scratch[..n]);
                if !parse_available(shared, conn) {
                    return ReadOutcome::Dead;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Dead,
        }
    }
}

/// Consume every complete line/frame in `conn.rbuf`. Returns `false`
/// when the connection violated the protocol and must die.
fn parse_available(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    if conn.proto.is_none() {
        let Some(&first) = conn.rbuf.first() else {
            return true;
        };
        if first == 0 {
            // Refuse the preamble at its first wrong byte, not once
            // eight bytes have arrived.
            let seen = conn.rbuf.len().min(wire::MAGIC.len());
            if conn.rbuf[..seen] != wire::MAGIC[..seen] {
                telemetry::counter_add("server.conn.bad_magic", 1);
                return false;
            }
            if seen < wire::MAGIC.len() {
                return true; // preamble still arriving
            }
            conn.rbuf.drain(..seen);
            conn.proto = Some(Proto::V2);
        } else {
            conn.proto = Some(Proto::V1);
        }
    }
    match conn.proto {
        Some(Proto::V1) => {
            parse_v1(shared, conn);
            true
        }
        Some(Proto::V2) => parse_v2(shared, conn),
        None => unreachable!("negotiated above"),
    }
}

fn parse_v1(shared: &Arc<Shared>, conn: &mut Conn) {
    let mut start = 0usize;
    loop {
        let from = start.max(conn.scanned);
        let Some(rel) = conn.rbuf[from..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let nl = from + rel;
        // Each line is its own unit of work, numbered in the reply
        // sequence.
        let line = FrameRef {
            id: conn.next_seq,
            op: 0,
            deadline_ms: 0,
            payload: (start, nl + 1),
        };
        conn.next_seq += 1;
        shared.dispatch(&conn.out, Proto::V1, &conn.rbuf, &[line]);
        start = nl + 1;
    }
    conn.rbuf.drain(..start);
    conn.scanned = conn.rbuf.len();
}

fn parse_v2(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    let mut consumed = 0usize;
    let mut frames: Vec<FrameRef> = Vec::new();
    let ok = loop {
        let base = consumed;
        frames.clear();
        let mut poison: Option<(u64, String)> = None;
        while frames.len() < MAX_BATCH {
            let avail = conn.rbuf.len() - consumed;
            if avail < wire::HEADER_LEN {
                break;
            }
            let header = wire::decode_header(
                conn.rbuf[consumed..consumed + wire::HEADER_LEN]
                    .try_into()
                    .expect("HEADER_LEN bytes"),
            );
            if header.len > wire::MAX_PAYLOAD {
                poison = Some((
                    header.id,
                    format!(
                        "frame payload {} exceeds the {} byte cap",
                        header.len,
                        wire::MAX_PAYLOAD
                    ),
                ));
                break;
            }
            let total = wire::HEADER_LEN + header.len as usize;
            if avail < total {
                break;
            }
            frames.push(FrameRef {
                id: header.id,
                op: header.op,
                deadline_ms: header.extra,
                payload: (consumed + wire::HEADER_LEN - base, consumed + total - base),
            });
            consumed += total;
        }
        if !frames.is_empty() {
            shared.dispatch(&conn.out, Proto::V2, &conn.rbuf[base..consumed], &frames);
        }
        if let Some((id, message)) = poison {
            // The stream cannot be trusted past an oversized frame:
            // answer it, then cut the connection.
            let mut reject = Vec::new();
            wire::encode_frame(
                &mut reject,
                id,
                wire::status_of(ErrorKind::Malformed),
                0,
                message.as_bytes(),
            );
            conn.out.send(&reject);
            break false;
        }
        if consumed == base {
            break true; // nothing more complete in the buffer
        }
    };
    conn.rbuf.drain(..consumed);
    ok
}
