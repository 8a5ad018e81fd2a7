//! TCP front end for the audit daemon: many connections, one warm pool.
//!
//! [`AuditService::serve`] speaks the TDRC control plane over any
//! `Read + Write` pair but handles exactly one peer. [`serve_tcp_with`]
//! makes the service deployable: it takes a bound [`TcpListener`],
//! accepts connections on a dedicated thread, and runs one `serve` loop
//! per connection on its own thread — every connection multiplexes its
//! submissions onto the **same** warm worker pool and sees the same
//! battery generation, which is the whole point of a fleet daemon (one
//! spin-up, many log sources).
//!
//! The accept loop, the connection-thread ledger and reaper, and the
//! wake-connection shutdown live in one listener harness, generic over a
//! per-connection handler. The daemon and the coordinator
//! ([`crate::coord`]) both run on it.
//!
//! ## Connection lifecycle (normative rules in `docs/FORMATS.md` §5.4)
//!
//! * Each connection carries one independent TDRC request/response
//!   stream; response frames of different connections are never
//!   interleaved.
//! * [`ControlFrame::Shutdown`] is
//!   **connection** shutdown: the daemon acks and closes that connection.
//!   The daemon itself stops only via [`TcpDaemon::shutdown`] (an
//!   operator action), which stops accepting, waits for every in-flight
//!   connection to finish — graceful drain — and hands the still-warm
//!   [`AuditService`] back.
//! * A peer that vanishes mid-frame, writes garbage, or goes away while
//!   verdicts are being written ends **its own** connection with a typed
//!   [`ControlError`] (counted by
//!   [`TcpDaemon::connection_errors`]) and never takes the daemon down.
//!   Writes to a dead peer surface as `io::Error` (`EPIPE`) rather than a
//!   fatal `SIGPIPE`, because the Rust runtime ignores `SIGPIPE` at
//!   startup; the serve loop maps them into `ControlError::Io` like any
//!   other transport failure.
//!
//! ## Admission control (normative rules in `docs/FORMATS.md` §5.6)
//!
//! With [`DaemonOptions::max_conns`] set, a connection arriving while
//! `max_conns` are already active is **shed**: the daemon answers with a
//! single connection-scoped
//! [`ControlFrame::Busy`] frame and closes —
//! no serve thread, no unbounded thread growth. Shed connections are
//! counted by `conn_shed` (reported as [`DaemonReport::connections_shed`])
//! and are **neither** accepted **nor** errored, so
//! `accepted + shed` is exactly the number of TCP connects the daemon
//! answered. With [`DaemonOptions::tenant_quota`] set, each connection's
//! serve loop enforces the quota in-band via
//! [`AuditService::serve_as_tenant`] — the connection id is the tenant id.
//!
//! The torture suite (`tests/protocol_torture.rs`,
//! `tests/integration_daemon_tcp.rs`, `tests/fairness_torture.rs`) pins
//! all of this: corrupt frames, slow-loris writers, mid-frame
//! disconnects, concurrent clients, and flooding tenants all leave the
//! daemon serving, with verdict bytes identical to the in-memory duplex
//! path and to in-process submission.

use std::io::{self, BufWriter};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::control::{BusyScope, ControlError, ControlFrame};
use crate::obs::{
    Counter, CountingRead, CountingWrite, Gauge, MetricsRegistry, MetricsSnapshot, ServiceMetrics,
    TraceKind,
};
use crate::service::{send, AuditService, TenantQuota};

// ---------------------------------------------------------------------------
// The listener harness
// ---------------------------------------------------------------------------

/// What a TCP front end does with its connections; the [`Listener`] does
/// the rest (accept, count, spawn, reap, shut down).
pub(crate) trait ConnHandler: Send + Sync + 'static {
    /// Decide, on the accept thread, whether to admit `stream`. `false`
    /// sheds it: the handler has already answered and counted it, and the
    /// listener closes it without a connection thread. Admits everything
    /// by default.
    fn admit(&self, _stream: &TcpStream) -> bool {
        true
    }

    /// Record a lifecycle event of connection `conn_id` (default: none).
    fn trace(&self, _kind: TraceKind, _conn_id: u64) {}

    /// Serve one admitted connection on its own thread until it ends.
    /// `Err` is counted by `conn_errors`; it never stops the listener.
    fn serve(&self, stream: &TcpStream, conn_id: u64) -> Result<(), ControlError>;
}

/// Connection threads still owed a join. Finished ones are reaped on each
/// accept **and** as each connection exits (so an idle listener that
/// stops receiving connects does not hold every handle it ever served
/// until the next accept — at most the last connection to finish stays
/// unreaped, since a thread cannot join itself); the remainder joins at
/// shutdown. Every join increments `conn_reaped`, so after a drain the
/// ledger balances: `conn_reaped` equals the connection threads ever
/// spawned.
///
/// The ledger also holds the connection-lifecycle metrics, under the
/// `conn_*` names both front ends export.
#[derive(Debug)]
struct Ledger {
    conns: Mutex<Vec<JoinHandle<()>>>,
    accepted: Arc<Counter>,
    active: Arc<Gauge>,
    errors: Arc<Counter>,
    reaped: Arc<Counter>,
}

impl Ledger {
    /// Join connection threads that already finished.
    fn reap_finished(&self) {
        let mut conns = self.conns.lock().expect("conns lock");
        let mut live = Vec::with_capacity(conns.len());
        for handle in conns.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
                self.reaped.inc();
            } else {
                live.push(handle);
            }
        }
        *conns = live;
    }
}

/// A running accept loop plus one thread per admitted connection.
/// Dropping it performs the same graceful shutdown as
/// [`shutdown`](Self::shutdown).
#[derive(Debug)]
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    ledger: Arc<Ledger>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Start accepting on `listener`, handing each admitted connection to
    /// `handler` on a thread named `{name}-conn-{id}`, and counting
    /// connections in `registry`.
    pub(crate) fn spawn<H: ConnHandler>(
        listener: TcpListener,
        name: &str,
        registry: &MetricsRegistry,
        handler: Arc<H>,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ledger = Arc::new(Ledger {
            conns: Mutex::new(Vec::new()),
            accepted: registry.counter("conn_accepted"),
            active: registry.gauge("conn_active"),
            errors: registry.counter("conn_errors"),
            reaped: registry.counter("conn_reaped"),
        });
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let ledger = Arc::clone(&ledger);
            let name = name.to_string();
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(listener, handler, stop, ledger, name))?
        };
        Ok(Listener {
            addr,
            stop,
            ledger,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address being accepted on (resolves `:0` binds).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, then wait for every connection
    /// thread to finish. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        let Some(accept) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // `accept()` has no timeout; wake it with a throwaway connection.
        // A wildcard bind (0.0.0.0 / ::) is not connectable everywhere,
        // so target loopback on the bound port in that case. If
        // connecting fails (listener already dead), the accept loop has
        // already returned or will error out and observe `stop`.
        let wake_addr = if self.addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = if self.addr.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            };
            SocketAddr::new(loopback, self.addr.port())
        } else {
            self.addr
        };
        let _ = TcpStream::connect(wake_addr);
        let _ = accept.join();
        let conns = std::mem::take(&mut *self.ledger.conns.lock().expect("conns lock"));
        for handle in conns {
            let _ = handle.join();
            self.ledger.reaped.inc();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<H: ConnHandler>(
    listener: TcpListener,
    handler: Arc<H>,
    stop: Arc<AtomicBool>,
    ledger: Arc<Ledger>,
    name: String,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): the
                // listener must outlive it. Back off briefly and retry.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            // The wake-up connection from `shutdown` (or a client racing
            // it). Either way the listener is closing: drop it unanswered.
            return;
        }
        if !handler.admit(&stream) {
            continue;
        }
        // The accept counter doubles as the 1-based connection id keying
        // this connection's trace events and thread name.
        let conn_id = ledger.accepted.inc();
        handler.trace(TraceKind::ConnAccept, conn_id);
        ledger.active.inc();
        ledger.reap_finished();
        let spawned = {
            let handler = Arc::clone(&handler);
            let ledger = Arc::clone(&ledger);
            std::thread::Builder::new()
                .name(format!("{name}-conn-{conn_id}"))
                .spawn(move || serve_connection(&*handler, &ledger, stream, conn_id))
        };
        match spawned {
            Ok(handle) => ledger.conns.lock().expect("conns lock").push(handle),
            Err(_) => {
                // Could not spawn a thread: count it as a connection error
                // and keep accepting — refusing one client is
                // recoverable, dying is not.
                ledger.active.dec();
                ledger.errors.inc();
                handler.trace(TraceKind::ConnError, conn_id);
            }
        }
    }
}

/// One connection's lifetime: serve it, count the outcome, close it.
fn serve_connection<H: ConnHandler>(handler: &H, ledger: &Ledger, stream: TcpStream, conn_id: u64) {
    // Verdict frames are small and latency matters for the submit→verdict
    // stream; disable Nagle and buffer writes per frame instead.
    let _ = stream.set_nodelay(true);
    if handler.serve(&stream, conn_id).is_err() {
        ledger.errors.inc();
    }
    ledger.active.dec();
    let _ = stream.shutdown(Shutdown::Both);
    // Reap on the way out, not only on the next accept: an idle listener
    // (or a coordinator backend between batches) may never see another
    // connect, and without this every handle it ever served would sit
    // unjoined until shutdown. This thread's own handle reports
    // unfinished to `is_finished` and is left for the next reaper.
    ledger.reap_finished();
}

// ---------------------------------------------------------------------------
// The audit daemon
// ---------------------------------------------------------------------------

/// Front-end policy knobs for [`serve_tcp_with`].
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Per-connection read deadline. A peer that goes silent for this
    /// long mid-stream has its connection closed with a typed
    /// [`ControlError::IdleTimeout`] (counted by `conn_idle_timeout`),
    /// freeing the connection thread — the slow-loris defense. `None`
    /// (the default) keeps the historical semantics: a connection may
    /// idle forever.
    pub idle_timeout: Option<Duration>,
    /// Connection cap. While this many connections are active, further
    /// arrivals are shed with one connection-scoped
    /// [`ControlFrame::Busy`] frame and a
    /// close (counted by `conn_shed`, never an error). `None` (the
    /// default) accepts without bound.
    pub max_conns: Option<usize>,
    /// Per-connection submission quota, enforced in-band by each
    /// connection's serve loop (see
    /// [`AuditService::serve_as_tenant`]). `None` (the default) leaves
    /// submissions unbounded.
    pub tenant_quota: Option<TenantQuota>,
}

/// What a daemon hands back at [`TcpDaemon::shutdown`]: the still-warm
/// service plus final tallies. The tallies are views over the service's
/// metric set, captured after every connection thread joined — they
/// cannot disagree with a `Stats` snapshot taken at the same point.
#[derive(Debug)]
pub struct DaemonReport {
    /// The service the daemon was serving, still warm — reusable
    /// directly or via another [`serve_tcp_with`] call.
    pub service: AuditService,
    /// Connections accepted over the daemon's lifetime (the
    /// `conn_accepted` counter).
    pub connections_accepted: u64,
    /// Connections that ended with a protocol or transport error (the
    /// `conn_errors` counter).
    pub connection_errors: u64,
    /// Connections shed at the cap with a `Busy` frame (the `conn_shed`
    /// counter) — distinct from both accepted and errored connections:
    /// `accepted + shed` is every TCP connect the daemon answered.
    pub connections_shed: u64,
    /// Every service metric at shutdown, name-ordered (what a
    /// [`ControlFrame::Stats`] response would
    /// have carried at that instant).
    pub snapshot: MetricsSnapshot,
}

/// A running TCP audit daemon: an accept loop plus one serve thread per
/// connection, all sharing one warm [`AuditService`].
///
/// Built by [`serve_tcp_with`]. Dropping the daemon performs the same
/// graceful shutdown as [`shutdown`](Self::shutdown) (minus returning the
/// service).
#[derive(Debug)]
pub struct TcpDaemon {
    // Declared first so it drops (joining every thread) before the
    // daemon's own service handle.
    listener: Listener,
    service: Arc<AuditService>,
}

/// The daemon's per-connection handler.
struct DaemonConns {
    service: Arc<AuditService>,
    options: DaemonOptions,
}

impl ConnHandler for DaemonConns {
    fn admit(&self, stream: &TcpStream) -> bool {
        let Some(cap) = self.options.max_conns else {
            return true;
        };
        let metrics = self.service.metrics();
        let active = metrics.conn_active.get();
        if (active as usize) < cap {
            return true;
        }
        shed_connection(stream, metrics, active, cap as u64);
        false
    }

    fn trace(&self, kind: TraceKind, conn_id: u64) {
        self.service.metrics().trace(kind, conn_id, 0);
    }

    fn serve(&self, stream: &TcpStream, conn_id: u64) -> Result<(), ControlError> {
        let metrics = self.service.metrics();
        if let Some(deadline) = self.options.idle_timeout {
            // A read past the deadline fails with WouldBlock/TimedOut,
            // which the serve loop classifies as `ControlError::IdleTimeout`.
            let _ = stream.set_read_timeout(Some(deadline));
        }
        let reader = CountingRead::new(stream, Arc::clone(&metrics.bytes_in));
        let writer = CountingWrite::new(BufWriter::new(stream), Arc::clone(&metrics.bytes_out));
        // The connection id is the tenant id: submissions from this peer
        // are round-robin scheduled against other connections' work and
        // metered under `tenant_{conn_id}_*`.
        let outcome =
            self.service
                .serve_as_tenant(reader, writer, conn_id, self.options.tenant_quota);
        match &outcome {
            Ok(()) => self.trace(TraceKind::ConnClose, conn_id),
            Err(ControlError::IdleTimeout) => {
                metrics.conn_idle_timeout.inc();
                self.trace(TraceKind::ConnIdleTimeout, conn_id);
            }
            Err(_) => self.trace(TraceKind::ConnError, conn_id),
        }
        outcome
    }
}

/// Serve the TDRC control plane over TCP: accept connections on
/// `listener` (typically bound to an explicit port, or `127.0.0.1:0` for
/// an ephemeral one — read it back via [`TcpDaemon::local_addr`]) and run
/// one [`AuditService::serve_as_tenant`] loop per connection,
/// connection-per-thread, under the front-end policy in `options`
/// ([`DaemonOptions::default`] imposes none).
///
/// The returned handle owns the service; [`TcpDaemon::shutdown`] stops
/// accepting, drains in-flight connections, and returns the service still
/// warm. Per-connection failures — protocol garbage, a client vanishing
/// mid-frame, a broken pipe while writing verdicts — end that connection
/// only (see [`TcpDaemon::connection_errors`]).
pub fn serve_tcp_with(
    service: AuditService,
    listener: TcpListener,
    options: DaemonOptions,
) -> io::Result<TcpDaemon> {
    let service = Arc::new(service);
    let handler = Arc::new(DaemonConns {
        service: Arc::clone(&service),
        options,
    });
    let registry = service.metrics().registry();
    let listener = Listener::spawn(listener, "tdrd", registry, handler)?;
    Ok(TcpDaemon { listener, service })
}

/// Refuse one over-cap connection: answer with a single
/// connection-scoped `Busy` frame (`batch_id` 0 — no request was read)
/// and let the caller close the socket. Best-effort write: a peer that
/// already vanished is shed all the same.
fn shed_connection(stream: &TcpStream, metrics: &ServiceMetrics, active: u64, cap: u64) {
    let mut writer = CountingWrite::new(BufWriter::new(stream), Arc::clone(&metrics.bytes_out));
    let busy = ControlFrame::Busy {
        batch_id: 0,
        scope: BusyScope::Connections,
        active,
        limit: cap,
    };
    let _ = send(metrics, &mut writer, &busy, &metrics.frames_out_busy);
    metrics.conn_shed.inc();
    metrics.trace(TraceKind::ConnShed, active, cap);
}

impl TcpDaemon {
    /// The address the daemon is accepting on (resolves `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The service the connections multiplex onto.
    pub fn service(&self) -> &AuditService {
        &self.service
    }

    /// Connections accepted over the daemon's lifetime (a live view over
    /// the `conn_accepted` metric).
    pub fn connections_accepted(&self) -> u64 {
        self.service.metrics().conn_accepted.get()
    }

    /// Connections that ended with a protocol or transport error (a
    /// corrupt frame, a peer vanishing mid-frame, a broken pipe, an idle
    /// timeout). Clean EOFs and acknowledged `Shutdown`s are not errors.
    /// A live view over the `conn_errors` metric.
    pub fn connection_errors(&self) -> u64 {
        self.service.metrics().conn_errors.get()
    }

    /// Connections shed at the [`DaemonOptions::max_conns`] cap with a
    /// `Busy` frame — never counted as accepted or errored. A live view
    /// over the `conn_shed` metric.
    pub fn connections_shed(&self) -> u64 {
        self.service.metrics().conn_shed.get()
    }

    /// Graceful shutdown: stop accepting, wait for every in-flight
    /// connection to end (their submissions complete — the drain
    /// semantics the stress test pins), and return the still-warm
    /// [`AuditService`] plus the final connection tallies (exact once
    /// every connection thread is joined, unlike the live accessors).
    ///
    /// Waits for connections, so close (or `Shutdown`-frame) any client
    /// this caller controls first; a connection held open forever by a
    /// peer blocks shutdown by design — killing its work silently would
    /// violate the drain guarantee.
    pub fn shutdown(self) -> DaemonReport {
        let TcpDaemon {
            mut listener,
            service,
        } = self;
        listener.shutdown();
        // Every connection thread is joined: the snapshot below is final,
        // and the tally fields are just named views into it.
        let snapshot = service.metrics_snapshot();
        DaemonReport {
            connections_accepted: snapshot.counter("conn_accepted"),
            connection_errors: snapshot.counter("conn_errors"),
            connections_shed: snapshot.counter("conn_shed"),
            snapshot,
            service: match Arc::try_unwrap(service) {
                Ok(service) => service,
                Err(_) => {
                    unreachable!("all daemon threads joined and dropped their service handles")
                }
            },
        }
    }
}
