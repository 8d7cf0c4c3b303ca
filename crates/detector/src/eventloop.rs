//! The `pncheckd` connection core and the pieces it is built from.
//!
//! [`Core`] is the one implementation of what happens on a connection:
//! framing request lines ([`LineFramer`]), queuing them fairly per
//! client ([`FairQueue`]), answering the protocol errors no request
//! handler sees (`too-large`, bad UTF-8, `quota-exceeded`, `busy` at
//! the hard connection cap, `idle-timeout`), buffering output, reaping
//! idle connections, closing finished ones, and draining after a
//! `shutdown`. It is sans-IO: it never touches a socket, a thread or
//! the clock. Its input is a stream of events, each stamped with the
//! caller's `now_ns` — a connection accepted, bytes read, EOF or
//! failure, a finished [`Reply`], bytes written — and
//! [`Core::sweep`] applies the decisions that fall due with time.
//!
//! Three thin drivers feed it those events:
//!
//! * [`Server::serve_listener`] — TCP: a blocking accept, a worker
//!   pool, and one thread per connection that writes what the core owes
//!   it and reads only when the core [awaits its input](Core::awaits_input),
//!   so a connection's next bytes are read once everything it sent
//!   before is answered and written.
//! * [`Server::serve_connection`] — stdio: input is fed one line at a
//!   time and each request is served before the next is read.
//! * the deterministic simulator (the `pnew-dst` crate): seeded read
//!   chunks, seeded partial writes and a virtual clock, so the DST soak
//!   runs this code rather than a model of it. It reads whenever the
//!   core [wants input](Core::readable), a superset of the TCP orders.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::server::{hard_connection_cap, Reply, Server};

// ---------------------------------------------------------------------
// The connection core.
// ---------------------------------------------------------------------

/// Per-connection state owned by the [`Core`].
#[derive(Debug, Default)]
struct Conn {
    framer: LineFramer,
    /// Bytes owed to the peer; `written` of them are already out.
    out: Vec<u8>,
    written: usize,
    /// `now_ns` of the last read or reply, for idle reaping.
    last_activity_ns: u64,
    /// The peer closed its write side: serve what is pending, then close.
    eof: bool,
    /// Close once the output is written (shutdown reply, idle reap, busy).
    closing: bool,
    /// The transport failed: nothing more can be delivered.
    dead: bool,
    /// Admitted by [`Core::accept`], so counted as an active connection.
    admitted: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.written == self.out.len()
    }

    /// Output bytes the transport has not taken yet.
    fn owed(&self) -> usize {
        self.out.len() - self.written
    }

    /// Still reading requests: no EOF, no failure, not closing.
    fn open(&self) -> bool {
        !(self.eof || self.closing || self.dead)
    }

    fn push(&mut self, reply: &Reply) {
        self.out.extend_from_slice(reply.header.as_bytes());
        self.out.push(b'\n');
        self.out.extend_from_slice(reply.payload.as_bytes());
    }
}

/// What one [`Core::sweep`] decided.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Connections this sweep closed; the driver drops their transports.
    pub closed: Vec<u64>,
    /// Idle connections spared because a request is queued or in flight.
    pub spared: usize,
    /// Reaps and closes held back because owed output is unwritten.
    pub held: usize,
}

/// The sans-IO connection state machine. See the [module docs](self).
///
/// A connection is closed by the core, never by a driver: at once when
/// its transport failed, and otherwise only when nothing it sent is
/// queued or in flight and every byte owed to it has been written.
#[derive(Debug)]
pub struct Core<'a> {
    server: &'a Server,
    conns: BTreeMap<u64, Conn>,
    queue: FairQueue<String>,
    next_id: u64,
    /// Open connections that [`Core::accept`] admitted.
    admitted: usize,
}

impl<'a> Core<'a> {
    /// A core serving requests for `server` under its limits.
    pub fn new(server: &'a Server) -> Core<'a> {
        Core {
            server,
            conns: BTreeMap::new(),
            queue: FairQueue::new(server.config().client_quota),
            next_id: 0,
            admitted: 0,
        }
    }

    /// A listener accepted a connection; returns its id. Past the hard
    /// cap (8 × `max_connections`) the connection gets one `busy` frame
    /// and closes once that is written.
    pub fn accept(&mut self, now_ns: u64) -> u64 {
        let cap = hard_connection_cap(self.server.config());
        let id = self.open(now_ns);
        if self.admitted < cap {
            self.admitted += 1;
            self.server.track_connection(true);
            self.conn(id).admitted = true;
        } else {
            self.refuse(id, "busy", format!("connection hard cap ({cap}) reached; retry later"));
            self.conn(id).closing = true;
        }
        id
    }

    /// Opens a connection outside listener admission (stdio's one
    /// session): no hard cap, not counted among active connections.
    pub fn open(&mut self, now_ns: u64) -> u64 {
        self.next_id += 1;
        self.conns.insert(self.next_id, Conn { last_activity_ns: now_ns, ..Conn::default() });
        self.next_id
    }

    /// Connections whose input the core still wants; none once a
    /// `shutdown` has been served. A connection that owes
    /// `max_request_bytes` or more of unwritten output is left out until
    /// its transport takes the bytes, so a client that never reads its
    /// replies cannot grow the daemon's buffers without bound.
    pub fn readable(&self) -> Vec<u64> {
        self.conns.keys().copied().filter(|&id| self.wants_input(id)).collect()
    }

    /// Whether [`readable`](Core::readable) lists `id`.
    fn wants_input(&self, id: u64) -> bool {
        let max = self.server.config().max_request_bytes;
        !self.server.is_shutdown()
            && self.conns.get(&id).is_some_and(|conn| conn.open() && conn.owed() < max)
    }

    /// Whether a driver that reads `id` only between its requests may
    /// block in a read now: the core wants its input, and nothing `id`
    /// sent is queued, in flight or unwritten.
    pub(crate) fn awaits_input(&self, id: u64) -> bool {
        self.wants_input(id) && self.queue.pending(id) == 0 && self.output(id).is_empty()
    }

    /// `bytes` arrived on `id`. Every request they complete is queued
    /// or answered with a protocol error; returns whether any was
    /// queued.
    pub fn read(&mut self, id: u64, bytes: &[u8], now_ns: u64) -> bool {
        let max = self.server.config().max_request_bytes;
        let shutdown = self.server.is_shutdown();
        let Some(conn) = self.conns.get_mut(&id).filter(|conn| conn.open() && !shutdown) else {
            return false;
        };
        conn.last_activity_ns = now_ns;
        let frames = conn.framer.feed(bytes, max);
        self.admit(id, frames)
    }

    /// The peer of `id` closed its side: a final unterminated line is
    /// still a request, and the connection closes once every reply it
    /// is owed has been written. Returns whether a request was queued.
    pub fn eof(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id).filter(|conn| conn.open()) else { return false };
        conn.eof = true;
        let frames = conn.framer.finish().into_iter().collect();
        self.admit(id, frames)
    }

    /// The transport of `id` failed: the next sweep closes it, and
    /// replies still owed to it are discarded.
    pub fn fail(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.dead = true;
        }
    }

    /// The next request in fair round-robin order. It counts against
    /// its connection as in flight until its [`reply`](Core::reply).
    pub fn pop(&mut self) -> Option<(u64, String)> {
        self.queue.pop()
    }

    /// The request popped for `id` finished with `reply`.
    pub fn reply(&mut self, id: u64, reply: &Reply, now_ns: u64) {
        self.queue.complete(id);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.last_activity_ns = now_ns;
            conn.push(reply);
            conn.closing |= reply.shutdown;
        }
    }

    /// The bytes owed to `id` that its transport has not taken yet.
    pub fn output(&self, id: u64) -> &[u8] {
        self.conns.get(&id).map_or(&[], |conn| &conn.out[conn.written..])
    }

    /// Connections with owed output, in id order.
    pub fn unwritten(&self) -> Vec<u64> {
        self.conns.iter().filter(|(_, conn)| !conn.flushed()).map(|(&id, _)| id).collect()
    }

    /// The transport of `id` took the first `n` bytes of its
    /// [`output`](Core::output). Once it has taken all of them, the
    /// buffer is freed, so an idle connection holds no memory for its
    /// largest reply.
    pub fn wrote(&mut self, id: u64, n: usize) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.written = (conn.written + n).min(conn.out.len());
            if conn.flushed() {
                conn.out = Vec::new();
                conn.written = 0;
            }
        }
    }

    /// Applies what falls due at `now_ns`. An idle connection — nothing
    /// queued, in flight or unwritten for `idle_timeout` — gets an
    /// `idle-timeout` frame and closes once it is written. Finished
    /// connections close (see [`Core`]); after a `shutdown`, once
    /// nothing is queued or in flight and every owed byte is written,
    /// that is all of them.
    pub fn sweep(&mut self, now_ns: u64) -> Sweep {
        let mut sweep = Sweep::default();
        let shutdown = self.server.is_shutdown();
        let idle = self.server.config().idle_timeout.filter(|_| !shutdown);
        let mut reaped = Vec::new();
        for (&id, conn) in &self.conns {
            let owed = self.queue.pending(id) > 0;
            let stale = idle.is_some_and(|idle| {
                u128::from(now_ns.saturating_sub(conn.last_activity_ns)) >= idle.as_nanos()
            });
            if conn.open() && stale {
                if owed {
                    sweep.spared += 1;
                } else if !conn.flushed() {
                    sweep.held += 1;
                } else {
                    reaped.push(id);
                }
            } else if !conn.open() && !conn.dead && !owed && !conn.flushed() {
                sweep.held += 1;
            }
        }
        for id in reaped {
            self.refuse(id, "idle-timeout", "connection idle too long".to_owned());
            self.conn(id).closing = true;
        }

        let drained =
            shutdown && self.queue.total_pending() == 0 && self.conns.values().all(Conn::flushed);
        let queue = &self.queue;
        sweep.closed = self
            .conns
            .iter()
            .filter(|&(&id, conn)| {
                drained || conn.dead || (!conn.open() && conn.flushed() && queue.pending(id) == 0)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in &sweep.closed {
            let conn = self.conns.remove(id).expect("closing a live connection");
            self.queue.remove(*id);
            if conn.admitted {
                self.admitted -= 1;
                self.server.track_connection(false);
            }
        }
        sweep
    }

    /// `true` when no connection is open and nothing is queued or in
    /// flight: after a `shutdown`, the drain is complete.
    pub fn is_idle(&self) -> bool {
        self.conns.is_empty() && self.queue.total_pending() == 0
    }

    fn conn(&mut self, id: u64) -> &mut Conn {
        self.conns.get_mut(&id).expect("known connection")
    }

    /// Queues each framed line of `id`, or answers it with a protocol
    /// error; blank lines are skipped. Returns whether any was queued.
    fn admit(&mut self, id: u64, frames: Vec<Frame>) -> bool {
        let mut queued = false;
        for frame in frames {
            let line = match frame {
                Frame::TooLong => {
                    let max = self.server.config().max_request_bytes;
                    self.refuse(id, "too-large", format!("request exceeds the {max}-byte limit"));
                    continue;
                }
                Frame::Line(bytes) => match String::from_utf8(bytes) {
                    Ok(line) => line,
                    Err(_) => {
                        self.refuse(id, "bad-request", "request is not valid UTF-8".to_owned());
                        continue;
                    }
                },
            };
            if line.trim().is_empty() {
                continue; // blank lines keep NDJSON pipelines simple
            }
            match self.queue.push(id, line) {
                Ok(()) => queued = true,
                Err(PushError::QuotaExceeded) => {
                    let quota = self.server.config().client_quota;
                    self.refuse(
                        id,
                        "quota-exceeded",
                        format!(
                            "client already has {quota} requests queued or in flight; \
                             wait for replies before sending more"
                        ),
                    );
                }
            }
        }
        queued
    }

    /// Appends a protocol-error frame for `id` and counts it.
    fn refuse(&mut self, id: u64, code: &'static str, message: String) {
        let reply = self.server.refusal(code, message);
        self.conn(id).push(&reply);
    }
}

// ---------------------------------------------------------------------
// Fair per-client queue.
// ---------------------------------------------------------------------

/// Why [`FairQueue::push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The client already has `quota` requests queued or in flight.
    QuotaExceeded,
}

#[derive(Debug)]
struct ClientQueue<T> {
    queued: VecDeque<T>,
    inflight: usize,
}

/// A round-robin queue of per-client work items.
///
/// Workers [`pop`](FairQueue::pop) one item per ready client in
/// rotation, so a client that pipelines 100 requests shares the pool
/// evenly with one that sends a single request. An item stays counted
/// against its client — as *in flight* — from `pop` until its reply is
/// recorded with [`complete`](FairQueue::complete).
#[derive(Debug)]
pub struct FairQueue<T> {
    clients: HashMap<u64, ClientQueue<T>>,
    /// Clients with at least one queued item, in round-robin order.
    ready: VecDeque<u64>,
    quota: usize,
    queued_total: usize,
    inflight_total: usize,
}

impl<T> FairQueue<T> {
    /// An empty queue where each client may have at most `quota`
    /// requests queued + in flight (a quota of 0 is treated as 1).
    pub fn new(quota: usize) -> Self {
        FairQueue {
            clients: HashMap::new(),
            ready: VecDeque::new(),
            quota: quota.max(1),
            queued_total: 0,
            inflight_total: 0,
        }
    }

    /// Enqueues `item` for `client`, unless the client is at quota.
    pub fn push(&mut self, client: u64, item: T) -> Result<(), PushError> {
        let entry = self
            .clients
            .entry(client)
            .or_insert_with(|| ClientQueue { queued: VecDeque::new(), inflight: 0 });
        if entry.queued.len() + entry.inflight >= self.quota {
            return Err(PushError::QuotaExceeded);
        }
        entry.queued.push_back(item);
        self.queued_total += 1;
        if entry.queued.len() == 1 {
            self.ready.push_back(client);
        }
        Ok(())
    }

    /// Takes the next item in round-robin order, marking it in flight.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let client = self.ready.pop_front()?;
        let entry = self.clients.get_mut(&client).expect("ready client has a queue");
        let item = entry.queued.pop_front().expect("ready client has a queued item");
        entry.inflight += 1;
        self.queued_total -= 1;
        self.inflight_total += 1;
        if !entry.queued.is_empty() {
            self.ready.push_back(client);
        }
        Some((client, item))
    }

    /// Records that one in-flight item for `client` finished. Safe to
    /// call after [`remove`](FairQueue::remove): the global in-flight
    /// count still balances, so a drain waiting on
    /// [`total_pending`](FairQueue::total_pending) terminates.
    pub fn complete(&mut self, client: u64) {
        self.inflight_total = self.inflight_total.saturating_sub(1);
        if let Some(entry) = self.clients.get_mut(&client) {
            entry.inflight = entry.inflight.saturating_sub(1);
            if entry.queued.is_empty() && entry.inflight == 0 {
                self.clients.remove(&client);
            }
        }
    }

    /// Queued + in-flight items for `client` — 0 means the client is
    /// genuinely idle and safe to reap.
    pub fn pending(&self, client: u64) -> usize {
        self.clients.get(&client).map_or(0, |entry| entry.queued.len() + entry.inflight)
    }

    /// Drops `client` and everything it still has queued. In-flight
    /// items are not recalled — their [`complete`](FairQueue::complete)
    /// still balances the global count when the reply is collected.
    pub fn remove(&mut self, client: u64) {
        if let Some(entry) = self.clients.remove(&client) {
            self.queued_total -= entry.queued.len();
            if entry.inflight > 0 {
                // Keep a tombstone so `complete` still finds the client
                // counted; only the queued items are discarded.
                self.clients.insert(
                    client,
                    ClientQueue { queued: VecDeque::new(), inflight: entry.inflight },
                );
            }
        }
        self.ready.retain(|&c| c != client);
    }

    /// Queued + in-flight items across all clients.
    pub fn total_pending(&self) -> usize {
        self.queued_total + self.inflight_total
    }
}

// ---------------------------------------------------------------------
// Incremental line framing.
// ---------------------------------------------------------------------

/// One framed unit out of a [`LineFramer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line, newline stripped.
    Line(Vec<u8>),
    /// A line that exceeded the limit; its bytes were discarded through
    /// the newline so the stream stays request-aligned.
    TooLong,
}

/// Reassembles newline-delimited requests from arbitrary read chunks.
///
/// Mirrors the blocking reader's bounds: a line of exactly `max` bytes
/// passes, one byte more is discarded (cheaply — oversized bytes are
/// dropped as they arrive, never buffered) and reported as a single
/// [`Frame::TooLong`] once its newline shows up.
#[derive(Debug, Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    discarding: bool,
}

impl LineFramer {
    /// Feeds one read chunk; returns every frame it completed.
    pub fn feed(&mut self, bytes: &[u8], max: usize) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    if self.discarding {
                        self.discarding = false;
                        frames.push(Frame::TooLong);
                    } else if self.buf.len() + newline > max {
                        self.buf.clear();
                        frames.push(Frame::TooLong);
                    } else {
                        let mut line = std::mem::take(&mut self.buf);
                        line.extend_from_slice(&rest[..newline]);
                        frames.push(Frame::Line(line));
                    }
                    rest = &rest[newline + 1..];
                }
                None => {
                    if !self.discarding {
                        if self.buf.len() + rest.len() > max {
                            self.buf.clear();
                            self.discarding = true;
                        } else {
                            self.buf.extend_from_slice(rest);
                        }
                    }
                    rest = &[];
                }
            }
        }
        frames
    }

    /// Flushes the final unterminated line at EOF, if any.
    pub fn finish(&mut self) -> Option<Frame> {
        if std::mem::take(&mut self.discarding) {
            return Some(Frame::TooLong);
        }
        if self.buf.is_empty() {
            None
        } else {
            Some(Frame::Line(std::mem::take(&mut self.buf)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    const HOUR_NS: u64 = 3_600_000_000_000;

    fn take_output(core: &mut Core<'_>, id: u64) -> String {
        let out = String::from_utf8(core.output(id).to_vec()).expect("frames are UTF-8");
        core.wrote(id, out.len());
        out
    }

    #[test]
    fn idle_reaping_spares_queued_work_and_waits_for_unwritten_output() {
        let server = Server::new(ServerConfig::default()).expect("server builds");
        let mut core = Core::new(&server);
        let id = core.accept(0);
        assert!(core.read(id, b"{\"op\":\"ping\"}\n", 0));
        // An hour stale, but a request is queued: spared.
        let sweep = core.sweep(HOUR_NS);
        assert_eq!((sweep.spared, sweep.held, sweep.closed.len()), (1, 0, 0));
        // Replied but not yet written: held, never reaped.
        let (conn, line) = core.pop().expect("the ping is queued");
        core.reply(conn, &server.handle_line(&line), 0);
        let sweep = core.sweep(HOUR_NS);
        assert_eq!((sweep.spared, sweep.held, sweep.closed.len()), (0, 1, 0));
        assert!(take_output(&mut core, id).contains("pong"));
        // Nothing owed: reaped, and closed once its frame is written.
        assert!(core.sweep(HOUR_NS).closed.is_empty());
        assert!(take_output(&mut core, id).contains("idle-timeout"));
        assert_eq!(core.sweep(HOUR_NS).closed, vec![id]);
        // Fresh activity is never stale.
        let fresh = core.accept(HOUR_NS);
        assert!(core.sweep(HOUR_NS).closed.is_empty());
        assert!(core.output(fresh).is_empty());
    }

    #[test]
    fn the_hard_cap_answers_busy_and_closes_once_written() {
        let config = ServerConfig { max_connections: 1, ..ServerConfig::default() };
        let server = Server::new(config).expect("server builds");
        let mut core = Core::new(&server);
        let admitted: Vec<u64> = (0..8).map(|_| core.accept(0)).collect();
        assert!(admitted.iter().all(|&id| core.output(id).is_empty()));
        let refused = core.accept(0);
        assert!(!core.readable().contains(&refused), "a refused connection is not read");
        assert!(core.sweep(0).closed.is_empty(), "busy is written before the close");
        assert!(take_output(&mut core, refused).contains("\"code\":\"busy\""));
        assert_eq!(core.sweep(0).closed, vec![refused]);
        core.eof(admitted[0]);
        assert_eq!(core.sweep(0).closed, vec![admitted[0]]);
        let late = core.accept(0);
        assert!(core.output(late).is_empty(), "a closed connection frees its slot");
    }

    #[test]
    fn the_shutdown_drain_waits_for_every_owed_byte() {
        let server = Server::new(ServerConfig::default()).expect("server builds");
        let mut core = Core::new(&server);
        let (a, b) = (core.accept(0), core.accept(0));
        core.read(a, b"{\"op\":\"ping\"}\n", 0);
        core.read(b, b"{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n", 0);
        while let Some((conn, line)) = core.pop() {
            core.reply(conn, &server.handle_line(&line), 0);
        }
        assert!(core.readable().is_empty(), "no new requests once shutting down");
        assert!(core.sweep(0).closed.is_empty());
        take_output(&mut core, a);
        assert!(core.sweep(0).closed.is_empty(), "b still has owed bytes");
        let rest = take_output(&mut core, b);
        assert_eq!(rest.matches("\"ok\":true").count(), 2, "{rest}");
        assert_eq!(core.sweep(0).closed, vec![a, b]);
        assert!(core.is_idle());
    }

    #[test]
    fn a_connection_that_owes_max_request_bytes_is_not_read_until_written() {
        let config = ServerConfig { max_request_bytes: 1024, ..ServerConfig::default() };
        let server = Server::new(config).expect("server builds");
        let mut core = Core::new(&server);
        let id = core.accept(0);
        // Reply to every request, but let the transport take nothing.
        let mut replies = 0;
        while core.readable().contains(&id) {
            assert!(core.read(id, b"{\"op\":\"ping\"}\n", 0));
            let (conn, line) = core.pop().expect("the ping is queued");
            core.reply(conn, &server.handle_line(&line), 0);
            replies += 1;
            assert!(replies < 1024, "the connection never left readable()");
        }
        assert!(core.output(id).len() >= 1024, "left readable() early");
        // Once the transport takes the bytes, reading resumes.
        let owed = core.output(id).len();
        core.wrote(id, owed);
        assert_eq!(core.readable(), vec![id]);
    }

    #[test]
    fn a_fully_written_connection_gives_its_buffer_back() {
        let server = Server::new(ServerConfig::default()).expect("server builds");
        let mut core = Core::new(&server);
        let id = core.accept(0);
        assert!(core.read(id, b"{\"op\":\"ping\"}\n", 0));
        let (conn, _) = core.pop().expect("the ping is queued");
        let payload = "x".repeat(64 * 1024);
        core.reply(conn, &Reply { header: "{}".to_owned(), payload, shutdown: false }, 0);
        core.wrote(id, 1024);
        assert!(core.conns[&id].out.capacity() >= 64 * 1024, "a partial write keeps the buffer");
        let rest = core.output(id).len();
        core.wrote(id, rest);
        assert_eq!(core.conns[&id].out.capacity(), 0, "a full write frees the buffer");
    }

    #[test]
    fn fair_queue_round_robins_across_clients() {
        let mut q = FairQueue::new(16);
        for item in ["a1", "a2", "a3"] {
            q.push(1, item).unwrap();
        }
        q.push(2, "b1").unwrap();
        q.push(3, "c1").unwrap();
        let order: Vec<(u64, &str)> = std::iter::from_fn(|| q.pop()).collect();
        // One per client in rotation, then client 1 drains its backlog.
        assert_eq!(order, vec![(1, "a1"), (2, "b1"), (3, "c1"), (1, "a2"), (1, "a3")]);
    }

    #[test]
    fn fair_queue_quota_counts_queued_plus_inflight() {
        let mut q = FairQueue::new(2);
        q.push(1, "a").unwrap();
        q.push(1, "b").unwrap();
        assert_eq!(q.push(1, "c"), Err(PushError::QuotaExceeded));
        // Popping moves an item to in-flight; it still counts.
        let (client, _) = q.pop().unwrap();
        assert_eq!(client, 1);
        assert_eq!(q.push(1, "c"), Err(PushError::QuotaExceeded));
        assert_eq!(q.pending(1), 2);
        // Completion frees a slot.
        q.complete(1);
        q.push(1, "c").unwrap();
        assert_eq!(q.pending(1), 2);
    }

    #[test]
    fn fair_queue_remove_drops_queued_but_balances_inflight() {
        let mut q = FairQueue::new(16);
        q.push(7, "popped").unwrap();
        q.push(7, "discarded").unwrap();
        let _ = q.pop().unwrap();
        assert_eq!(q.total_pending(), 2);
        q.remove(7);
        assert_eq!(q.pending(7), 1, "in-flight survives removal");
        assert_eq!(q.total_pending(), 1, "queued items were discarded");
        q.complete(7);
        assert_eq!(q.total_pending(), 0, "drain can terminate");
        assert!(q.pop().is_none());
    }

    #[test]
    fn line_framer_reassembles_lines_split_across_chunks() {
        let mut framer = LineFramer::default();
        assert!(framer.feed(b"{\"op\":\"pi", 1024).is_empty());
        let frames = framer.feed(b"ng\"}\n{\"op\":\"stats\"}\n{", 1024);
        assert_eq!(
            frames,
            vec![
                Frame::Line(b"{\"op\":\"ping\"}".to_vec()),
                Frame::Line(b"{\"op\":\"stats\"}".to_vec()),
            ]
        );
        assert_eq!(framer.finish(), Some(Frame::Line(b"{".to_vec())));
        assert_eq!(framer.finish(), None);
    }

    #[test]
    fn line_framer_discards_oversized_lines_and_stays_aligned() {
        let mut framer = LineFramer::default();
        // 8-byte limit: a 9-byte line is discarded, the next survives.
        let mut frames = framer.feed(b"123456789", 8);
        frames.extend(framer.feed(b"still-too-long\nok\n", 8));
        assert_eq!(frames, vec![Frame::TooLong, Frame::Line(b"ok".to_vec())]);
        // Exactly at the limit passes.
        assert_eq!(framer.feed(b"12345678\n", 8), vec![Frame::Line(b"12345678".to_vec())]);
        // Discarding state surfaces at EOF too.
        assert!(framer.feed(b"123456789", 8).is_empty());
        assert_eq!(framer.finish(), Some(Frame::TooLong));
    }
}
