//! The serving stack under test, built in-process on localhost ephemeral
//! ports, and the closed loop of clients that drives it.
//!
//! Single-daemon workloads run an `AuditService` behind `serve_tcp_with`;
//! `echo_fleet` puts `serve_coordinator` in front of two such daemons.
//! Every client blocks until its batch's `Summary` arrives, so the load
//! is a closed loop with one outstanding batch per connection.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sanity_tdr::audit_pipeline::{
    serve_coordinator, serve_tcp_with, AckStatus, AuditService, AuditVerdict, BatchOutcome, Client,
    ControlError, Coordinator, DaemonOptions, FleetSummary, MetricsSnapshot, TcpDaemon,
};

use crate::gen::Inputs;
use crate::measure::{cpu_s, steal_s, SpanLog};

/// Shortest measurement window: the leader closes a window at the first
/// round boundary after this long, so windows hold whole rounds.
const WINDOW: Duration = Duration::from_millis(500);

/// A TCP transport that notes when the first response byte arrives after
/// a request was written: with tracing on, that is the client-side time
/// to the batch's first verdict.
pub struct Probe {
    stream: TcpStream,
    traced: Cell<bool>,
    awaiting: bool,
    first_read: Cell<Option<Instant>>,
}

impl Probe {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Probe> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Probe {
            stream,
            traced: Cell::new(false),
            awaiting: false,
            first_read: Cell::new(None),
        })
    }
}

impl Read for Probe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        if self.awaiting && n > 0 {
            self.awaiting = false;
            if self.traced.get() {
                self.first_read.set(Some(Instant::now()));
            }
        }
        Ok(n)
    }
}

impl Write for Probe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.awaiting = true;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// What every wire result must equal: the in-process
/// `ReferenceCache::audit` verdict of each pool job, and the summary of
/// each batch built from those verdicts.
pub struct Expected {
    pub verdicts: Vec<AuditVerdict>,
    pub summaries: Vec<FleetSummary>,
}

impl Expected {
    pub fn new(inputs: &Inputs, verdicts: Vec<AuditVerdict>) -> Expected {
        let summaries = inputs
            .batches
            .iter()
            .map(|b| {
                let vs: Vec<AuditVerdict> = b.jobs.iter().map(|&j| verdicts[j].clone()).collect();
                FleetSummary::from_verdicts(&vs)
            })
            .collect();
        Expected {
            verdicts,
            summaries,
        }
    }
}

/// Bit-exact verdict equality: scores compare as IEEE-754 bits.
pub fn same_verdict(a: &AuditVerdict, b: &AuditVerdict) -> bool {
    a.session_id == b.session_id
        && a.score.to_bits() == b.score.to_bits()
        && a.flagged == b.flagged
        && a.tx_packets == b.tx_packets
        && a.replayed_cycles == b.replayed_cycles
        && a.error == b.error
        && a.detector_scores.len() == b.detector_scores.len()
        && a.detector_scores
            .iter()
            .zip(&b.detector_scores)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// One measurement window of closed-loop load: whole rounds, at least
/// [`WINDOW`] long.
pub struct Window {
    pub seconds: f64,
    pub sessions: u64,
    pub cpu_s: f64,
    /// CPU time stolen from the host's vCPUs during the window.
    pub steal_s: f64,
    pub latency_ms: Vec<f64>,
}

/// Tallies of one stretch of closed-loop load (or of set-up).
#[derive(Default)]
pub struct LoadStats {
    pub attempted: u64,
    pub failed: u64,
    pub sessions: u64,
    pub batches: u64,
    /// Client-side submit-to-`Summary` time of each batch, tagged with
    /// the window it completed in.
    pub latency_ms: Vec<(usize, f64)>,
    pub windows: Vec<Window>,
    pub first_verdict_ms: Vec<f64>,
    /// PutReference round trips that loaded a program.
    pub put_ms: Vec<f64>,
    /// Failed operations, described (kept to the first few).
    pub failures: Vec<String>,
    /// Correctness-gate violations, described.
    pub mismatches: Vec<String>,
    /// Wire TDR score and flag per session id.
    pub scores: BTreeMap<u64, (f64, bool)>,
    pub spans: SpanLog,
}

impl LoadStats {
    pub fn absorb(&mut self, mut other: LoadStats) {
        self.sessions += other.sessions;
        self.batches += other.batches;
        self.latency_ms.append(&mut other.latency_ms);
        self.windows.append(&mut other.windows);
        self.first_verdict_ms.append(&mut other.first_verdict_ms);
        self.spans.spans.append(&mut other.spans.spans);
        self.absorb_untimed(other);
    }

    /// Keep `other`'s operation counts and gate results but none of its
    /// timings (those of a burn-in).
    pub fn absorb_untimed(&mut self, other: LoadStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.put_ms.extend(other.put_ms);
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.mismatches.extend(other.mismatches);
        self.scores.extend(other.scores);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Per-run context shared by every connection thread.
pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    pub expected: &'a Expected,
    pub epoch: Instant,
}

/// The running stack: daemons, the coordinator if any, and one client
/// per connection.
pub struct Stack {
    daemons: Vec<TcpDaemon>,
    coordinator: Option<Coordinator>,
    clients: Vec<Client<Probe>>,
    /// References known resident on every backend (registry workloads).
    resident: Vec<usize>,
    /// Rounds started so far; the schedule repeats, and the count carries
    /// over between load slices.
    next_round: usize,
    /// Ids of puts and warm-up batches; load batches use ids from bit 48.
    next_id: u64,
}

/// Final tallies of a torn-down stack.
pub struct Teardown {
    pub daemons: Vec<MetricsSnapshot>,
    pub coordinator: Option<MetricsSnapshot>,
}

impl Stack {
    /// Build the stack, register the references the schedule starts
    /// with, and finish one verified warm-up batch.
    pub fn build(ctx: &Ctx, stats: &mut LoadStats) -> Result<Stack, String> {
        let inputs = ctx.inputs;
        let w = inputs.workload;
        let mut daemons = Vec::new();
        for _ in 0..w.backends().max(1) {
            let mut builder = AuditService::builder(inputs.default_ref.clone())
                .workers(w.workers())
                .battery(inputs.battery);
            if let Some(budget) = inputs.reference_budget {
                builder = builder.reference_budget(budget);
            }
            let service = builder
                .build()
                .map_err(|e| format!("service config: {e}"))?;
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            daemons.push(
                serve_tcp_with(service, listener, DaemonOptions::default())
                    .map_err(|e| format!("daemon: {e}"))?,
            );
        }
        let coordinator = if w.backends() > 0 {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            let addrs = daemons.iter().map(|d| d.local_addr().to_string()).collect();
            Some(serve_coordinator(listener, addrs).map_err(|e| format!("coordinator: {e}"))?)
        } else {
            None
        };
        let front = match &coordinator {
            Some(c) => c.local_addr(),
            None => daemons[0].local_addr(),
        };
        let clients = (0..w.connections())
            .map(|_| Probe::connect(front).map(Client::new))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("connect: {e}"))?;
        let mut stack = Stack {
            daemons,
            coordinator,
            clients,
            resident: Vec::new(),
            next_round: 0,
            next_id: 0,
        };
        let initial: Vec<usize> = match inputs.reference_budget {
            Some(_) => inputs.rounds[0].needs.clone(),
            None => (0..inputs.refs.len()).collect(),
        };
        let before = stats.failed;
        let mut resident = Vec::new();
        ensure_resident(
            ctx,
            &mut stack.clients[0],
            &initial,
            &mut resident,
            &mut stack.next_id,
            stats,
        );
        stack.resident = resident;
        stack.next_id += 1;
        let _ = submit_checked(
            ctx,
            &mut stack.clients[0],
            stack.next_id,
            inputs.warmup,
            stats,
        );
        if stats.failed > before || !stats.mismatches.is_empty() {
            return Err(format!(
                "set-up failed: {:?} {:?}",
                stats.failures, stats.mismatches
            ));
        }
        Ok(stack)
    }

    /// Worker-pool metrics of every daemon, now.
    pub fn snapshots(&self) -> Vec<MetricsSnapshot> {
        self.daemons
            .iter()
            .map(|d| d.service().metrics_snapshot())
            .collect()
    }

    /// Audit workers across all daemons.
    pub fn workers(&self) -> usize {
        self.daemons.iter().map(|d| d.service().workers()).sum()
    }

    /// Drive the closed loop for `seconds`, then let every connection
    /// finish its round.
    pub fn run(&mut self, ctx: &Ctx, seconds: f64, traced: bool) -> LoadStats {
        for client in &self.clients {
            client.get_ref().traced.set(traced);
        }
        let n = self.clients.len();
        let shared = Shared {
            barrier: Barrier::new(n),
            stop: AtomicBool::new(false),
            round: AtomicUsize::new(0),
            window: AtomicUsize::new(0),
            window_sessions: AtomicU64::new(0),
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            traced,
        };
        let mut leader = Some(Leader {
            resident: &mut self.resident,
            next_round: &mut self.next_round,
            next_put_id: &mut self.next_id,
        });
        let mut total = LoadStats::default();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (conn, client) in self.clients.iter_mut().enumerate() {
                let mut leader = leader.take();
                let shared = &shared;
                handles.push(scope.spawn(move || {
                    let mut stats = LoadStats::default();
                    conn_loop(ctx, shared, conn, n, client, leader.as_mut(), &mut stats);
                    stats
                }));
            }
            for h in handles {
                total.absorb(h.join().expect("connection thread panicked"));
            }
        });
        // Only the leader closes windows; file each latency under its own.
        for &(w, ms) in &total.latency_ms {
            if let Some(window) = total.windows.get_mut(w) {
                window.latency_ms.push(ms);
            }
        }
        total
    }

    /// Close every connection and stop the coordinator and daemons.
    pub fn teardown(self) -> Teardown {
        for client in self.clients {
            let _ = client.shutdown();
        }
        let coordinator = self.coordinator.map(|c| c.shutdown().snapshot);
        let daemons = self
            .daemons
            .into_iter()
            .map(|d| {
                let report = d.shutdown();
                report.service.shutdown();
                report.snapshot
            })
            .collect();
        Teardown {
            daemons,
            coordinator,
        }
    }
}

struct Shared {
    barrier: Barrier,
    stop: AtomicBool,
    round: AtomicUsize,
    /// Index of the open window, and sessions completed in it.
    window: AtomicUsize,
    window_sessions: AtomicU64,
    deadline: Instant,
    traced: bool,
}

/// State only connection 0 touches: it alone writes to the registry, and
/// only while every connection waits between rounds.
struct Leader<'a> {
    resident: &'a mut Vec<usize>,
    next_round: &'a mut usize,
    next_put_id: &'a mut u64,
}

fn conn_loop(
    ctx: &Ctx,
    shared: &Shared,
    conn: usize,
    n: usize,
    client: &mut Client<Probe>,
    mut leader: Option<&mut Leader>,
    stats: &mut LoadStats,
) {
    let rounds = &ctx.inputs.rounds;
    let mut window_start = (Instant::now(), cpu_s(), steal_s());
    loop {
        if n > 1 {
            shared.barrier.wait();
        }
        if let Some(l) = leader.as_mut() {
            // Every connection is between rounds here, so the window
            // boundary cuts no batch in two.
            let now = Instant::now();
            let stop = now >= shared.deadline;
            if stop || now.duration_since(window_start.0) >= WINDOW {
                let (cpu, steal) = (cpu_s(), steal_s());
                stats.windows.push(Window {
                    seconds: now.duration_since(window_start.0).as_secs_f64(),
                    sessions: shared.window_sessions.swap(0, Ordering::SeqCst),
                    cpu_s: cpu - window_start.1,
                    steal_s: steal - window_start.2,
                    latency_ms: Vec::new(),
                });
                shared.window.fetch_add(1, Ordering::SeqCst);
                window_start = (now, cpu, steal);
            }
            if stop {
                shared.stop.store(true, Ordering::SeqCst);
            } else {
                shared.round.store(*l.next_round, Ordering::SeqCst);
                let needs = &rounds[*l.next_round % rounds.len()].needs;
                *l.next_round += 1;
                ensure_resident(ctx, client, needs, l.resident, l.next_put_id, stats);
            }
        }
        if n > 1 {
            shared.barrier.wait();
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Absolute round number: batch ids stay unique across load slices.
        let round = shared.round.load(Ordering::SeqCst);
        let window = shared.window.load(Ordering::SeqCst);
        for (k, &b) in rounds[round % rounds.len()].per_conn[conn]
            .iter()
            .enumerate()
        {
            let id = ((conn as u64 + 1) << 48) | ((round as u64) << 8) | k as u64;
            let start = Instant::now();
            let sessions = stats.sessions;
            if let Some(ms) = submit_checked(ctx, client, id, b, stats) {
                stats.latency_ms.push((window, ms));
                shared
                    .window_sessions
                    .fetch_add(stats.sessions - sessions, Ordering::SeqCst);
            }
            if shared.traced {
                let end = Instant::now();
                stats
                    .spans
                    .record(ctx.epoch, "client.batch", id, 0, start, end);
                if let Some(first) = client.get_ref().first_read.take() {
                    stats
                        .spans
                        .record(ctx.epoch, "client.first_verdict", id, id, start, first);
                    stats
                        .first_verdict_ms
                        .push(first.duration_since(start).as_secs_f64() * 1e3);
                }
            }
        }
    }
}

/// Make `needs` resident on every backend. Kept references are re-put
/// first (refreshing their recency) so the one evicted by the new load is
/// always a reference the round no longer needs.
fn ensure_resident(
    ctx: &Ctx,
    client: &mut Client<Probe>,
    needs: &[usize],
    resident: &mut Vec<usize>,
    next_put_id: &mut u64,
    stats: &mut LoadStats,
) {
    let missing: Vec<usize> = needs
        .iter()
        .copied()
        .filter(|r| !resident.contains(r))
        .collect();
    if missing.is_empty() {
        return;
    }
    let kept = needs.iter().copied().filter(|r| resident.contains(r));
    for r in kept.chain(missing.iter().copied()) {
        let reference = &ctx.inputs.refs[r];
        *next_put_id += 1;
        let start = Instant::now();
        let put = client.put_reference(*next_put_id, reference.tdrp.clone());
        let end = Instant::now();
        stats.attempted += 1;
        match put {
            Ok(p) if p.reference == reference.id => match p.status {
                AckStatus::Loaded => {
                    stats
                        .put_ms
                        .push(end.duration_since(start).as_secs_f64() * 1e3);
                    stats
                        .spans
                        .record(ctx.epoch, "client.put", *next_put_id, 0, start, end);
                }
                AckStatus::AlreadyResident => {}
                ref other => stats.fail(format!("put {}: {}", reference.name, other.name())),
            },
            Ok(p) => stats.fail(format!(
                "put {}: acked {}",
                reference.name,
                p.reference.to_hex()
            )),
            Err(e) => stats.fail(format!("put {}: {e}", reference.name)),
        }
    }
    *resident = needs.to_vec();
}

/// Submit one batch and hold its result to the correctness gate; the
/// latency in ms if the batch completed.
fn submit_checked(
    ctx: &Ctx,
    client: &mut Client<Probe>,
    batch_id: u64,
    b: usize,
    stats: &mut LoadStats,
) -> Option<f64> {
    let inputs = ctx.inputs;
    let batch = &inputs.batches[b];
    let tdrb = batch.tdrb.clone();
    let start = Instant::now();
    let result: Result<BatchOutcome, ControlError> = match batch.reference {
        None => client.submit_batch(batch_id, tdrb),
        Some(r) => {
            let reference = &inputs.refs[r];
            client.submit_batch_reput(batch_id, tdrb, reference.id, &reference.tdrp)
        }
    };
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    stats.attempted += 1;
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            stats.fail(format!("batch {batch_id}: {e}"));
            return None;
        }
    };
    let summary = match outcome.result {
        Ok(summary) => summary,
        Err(msg) => {
            stats.fail(format!("batch {batch_id}: daemon error: {msg}"));
            return None;
        }
    };
    if outcome.verdicts.iter().any(|v| v.error.is_some()) {
        stats.fail(format!("batch {batch_id}: replay-error verdict"));
    }
    let want = &ctx.expected;
    if outcome.verdicts.len() != batch.jobs.len() {
        stats.mismatches.push(format!(
            "batch {batch_id}: {} verdicts for {} sessions",
            outcome.verdicts.len(),
            batch.jobs.len()
        ));
    }
    for (v, &j) in outcome.verdicts.iter().zip(&batch.jobs) {
        if !same_verdict(v, &want.verdicts[j]) {
            stats.mismatches.push(format!(
                "session {}: wire {v:?} != in-process {:?}",
                v.session_id, want.verdicts[j]
            ));
        }
        if v.flagged != inputs.pool[j].covert {
            stats.mismatches.push(format!(
                "session {}: flagged={} but covert={}",
                v.session_id, v.flagged, inputs.pool[j].covert
            ));
        }
        stats
            .scores
            .insert(v.session_id, (v.score, inputs.pool[j].covert));
    }
    if summary.summary != want.summaries[b] {
        stats
            .mismatches
            .push(format!("batch {batch_id}: summary differs from in-process"));
    }
    stats.sessions += outcome.verdicts.len() as u64;
    stats.batches += 1;
    Some(elapsed_ms)
}
