//! The persistent audit service: a warmed worker pool behind job tickets.
//!
//! A fleet operator auditing traffic continuously (the deployment of
//! Aviram et al. and Deterland) cannot pay a worker spin-up and a
//! per-worker [`ReferenceCache`] rebuild on every batch. [`AuditService`]
//! pays it **once**:
//!
//! * [`AuditService::builder`] validates the configuration up front
//!   ([`AuditConfig::validate`] — zero workers or a zero high-water mark
//!   are typed [`ConfigError`]s, not silent fallbacks) and spawns the
//!   worker pool at `build()`. Each worker owns a warm [`ReferenceCache`]
//!   for the service's lifetime.
//! * [`AuditService::submit`] enqueues [`Sessions`] — decoded jobs or a
//!   TDRB byte stream — against the built-in or a registered reference
//!   and returns a [`BatchTicket`] immediately
//!   ([`AuditService::submit_batch`] is the borrowed-slice convenience).
//!   The ticket yields per-session verdicts as they arrive
//!   ([`BatchTicket::recv`]) and a final deterministic [`BatchReport`]
//!   ([`BatchTicket::wait`]). Dropping a ticket cancels its
//!   not-yet-audited sessions.
//! * [`AuditService::serve`] is the daemon loop: [`crate::control`]
//!   frames in, verdict/summary frames out, over any `Read + Write` pair
//!   (a socket, or the in-memory [`duplex`] used by the tests and
//!   `repro daemon`).
//!
//! ## Idle/shutdown protocol
//!
//! Idle workers park in a blocking wait on the shared work queue — no
//! spinning, no polling. [`AuditService::shutdown`] (and `Drop`) closes
//! the queue; workers drain every job already queued — in-flight tickets
//! still complete — and then exit, and shutdown joins them. Cancellation
//! is per-ticket: a dropped ticket flips a shared flag and workers skip
//! its remaining sessions without auditing them.
//!
//! ## Fair scheduling
//!
//! The work queue is not a single FIFO: items carry a **tenant id** (the
//! daemon's connection id; 0 for in-process submissions) and the queue
//! dequeues round-robin across tenants with queued work (a
//! deficit-round-robin scheduler at unit quantum — every job costs one
//! deficit credit, so each tenant with backlog gets one job per round).
//! A peer flooding thousands of sessions therefore delays another
//! tenant's batch by at most `other_tenants × in_flight` jobs, never by
//! its own backlog — the no-starvation invariant
//! (`docs/ARCHITECTURE.md`, "Admission control & fairness"), proven by
//! `tests/fairness_torture.rs`. Within one tenant, order is FIFO, so
//! verdict streams are unchanged for a lone submitter.
//!
//! Determinism: a verdict depends only on the job, the service
//! configuration, and the session seed — never on pool temperature. The
//! test suite pins warm-service resubmission byte-identical to a fresh
//! service.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use detectors::{DetectorBattery, TraceView};
use replay::codec::wire;

use jbc::ReferenceId;

use crate::cache::ReferenceCache;
use crate::control::{AckStatus, BusyScope, ControlError, ControlFrame};
use crate::ingest::{BatchStream, IngestError};
use crate::obs::{Counter, Gauge, MetricsSnapshot, ServiceMetrics, TraceEvent, TraceKind};
use crate::registry::{
    PinnedReference, ReferenceRegistry, RegistryError, RegistryLoad, DEFAULT_REFERENCE_BUDGET,
};
use crate::verdict::{AuditVerdict, FleetSummary};
use crate::{AuditConfig, AuditJob, BatteryMode, ConfigError, Reference};

// ---------------------------------------------------------------------------
// Residency gate (streaming backpressure)
// ---------------------------------------------------------------------------

/// Counting gate bounding the resident-session set; blocks the decode side
/// when `resident == cap` and records the high-water mark actually reached.
struct ResidencyGate {
    state: Mutex<(usize, usize)>, // (resident, peak)
    freed: Condvar,
}

impl ResidencyGate {
    fn new() -> Self {
        ResidencyGate {
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
        }
    }

    /// Block until a residency slot is free, then claim it. The slot is
    /// speculative until [`commit`](Self::commit): the feeder claims before
    /// pulling, but the pull may yield end-of-stream instead of a session.
    fn acquire(&self, cap: usize) {
        let mut s = self.state.lock().expect("gate lock");
        while s.0 >= cap {
            s = self.freed.wait(s).expect("gate wait");
        }
        s.0 += 1;
    }

    /// Record the claimed slot as a real resident session (peak tracking).
    fn commit(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.1 = s.1.max(s.0);
    }

    /// Release a residency slot (the session was audited and dropped).
    fn release(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.0 -= 1;
        self.freed.notify_one();
        drop(s);
    }

    fn peak(&self) -> usize {
        self.state.lock().expect("gate lock").1
    }
}

/// Most clean traces one *streamed* batch may contribute to cross-batch
/// retraining ([`ServiceBuilder::retrain_on_clean`]): streamed ingest
/// promises memory bounded by the high-water mark, so the retraining
/// capture cannot be allowed to grow with the batch.
pub const RETRAIN_CAPTURE_CAP: usize = 256;

// ---------------------------------------------------------------------------
// Submissions
// ---------------------------------------------------------------------------

/// What one [`AuditService::submit`] audits.
pub enum Sessions {
    /// Decoded jobs, moved into one shared allocation and queued at once.
    Jobs(Vec<AuditJob>),
    /// A TDRB byte stream (`docs/FORMATS.md` §2), decoded lazily under the
    /// service's high-water residency bound — a batch far larger than RAM
    /// audits in bounded memory. Buffered internally, so a raw `File` or
    /// socket is fine.
    Tdrb(Box<dyn Read + Send>),
}

impl Sessions {
    /// A TDRB stream over `reader`.
    pub fn tdrb(reader: impl Read + Send + 'static) -> Self {
        Sessions::Tdrb(Box::new(reader))
    }
}

/// Why [`AuditService::submit`] refused a submission; nothing was queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The named reference is not resident in the registry (never loaded,
    /// or evicted): [`AuditService::put_reference`] it and resubmit.
    UnknownReference(ReferenceId),
    /// The TDRB batch header failed to decode.
    Ingest(IngestError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownReference(id) => write!(f, "reference {id} is not registered"),
            SubmitError::Ingest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

// ---------------------------------------------------------------------------
// Work items and worker threads
// ---------------------------------------------------------------------------

/// Where a work item's job lives: batch submissions share one `Arc`'d
/// vector (one clone of the slice total, not one per worker), streamed
/// sessions are owned (they exist one at a time by design).
enum JobSource {
    Shared(Arc<Vec<AuditJob>>, usize),
    Owned(Box<AuditJob>),
}

impl JobSource {
    fn job(&self) -> &AuditJob {
        match self {
            JobSource::Shared(jobs, i) => &jobs[*i],
            JobSource::Owned(job) => job,
        }
    }
}

/// One session queued for a worker.
struct WorkItem {
    /// Submission index within its batch (verdict ordering key).
    index: usize,
    source: JobSource,
    /// Battery generation this item was submitted under (see
    /// [`ReferenceCache::set_battery`]); always `None` for registry
    /// submissions (a TDRP ships no battery).
    battery: Option<Arc<DetectorBattery>>,
    /// Registry entry this item audits against, pinned for the batch's
    /// lifetime (all items of one batch share the `Arc`; the last drop
    /// unpins). `None` = the service's built-in default reference.
    reference: Option<Arc<PinnedReference>>,
    /// Ticket-wide cancellation flag: set → skip the audit entirely.
    cancelled: Arc<AtomicBool>,
    /// Residency slot to release after the audit (stream mode only).
    gate: Option<Arc<ResidencyGate>>,
    /// Where the verdict goes (the ticket's receiver).
    sink: mpsc::Sender<(usize, AuditVerdict)>,
    /// Scheduling key: the daemon connection id that submitted this item,
    /// or [`LOCAL_TENANT`] for in-process submissions.
    tenant: u64,
    /// Per-tenant queue-depth gauge (`tenant_{id}_queue_depth`), present
    /// only for daemon tenants; decremented when the item is dequeued.
    tenant_depth: Option<Arc<Gauge>>,
}

/// Tenant id for in-process submissions ([`AuditService::submit_batch`]
/// and friends) and for daemon connections served without a tenant id.
/// Daemon connection ids start at 1, so 0 never collides.
const LOCAL_TENANT: u64 = 0;

// ---------------------------------------------------------------------------
// Fair work queue (deficit round-robin across tenants)
// ---------------------------------------------------------------------------

/// Per-connection/tenant submission quota, enforced in-band by
/// [`AuditService::serve_as_tenant`] — an over-quota `SubmitBatch` is
/// answered with a [`ControlFrame::Busy`] frame and the connection
/// survives; rejected submissions consume no budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Most sessions one `SubmitBatch` may declare in its TDRB header.
    /// Batches declaring more are refused with
    /// [`crate::control::BusyScope::InFlightSessions`] before any session
    /// is decoded or audited.
    pub max_sessions: u64,
    /// Most `SubmitBatch` requests one connection may have admitted over
    /// its lifetime (the serve loop is synchronous — each batch fully
    /// drains before the next frame is read, so admitted == completed).
    /// Further batches are refused with
    /// [`crate::control::BusyScope::QueuedBatches`].
    pub max_batches: u64,
}

/// One tenant's backlog inside the [`WorkQueue`].
struct TenantQueue {
    /// Deficit-round-robin credit. With [`WorkQueue::QUANTUM`] = 1 and
    /// every job costing one credit this stays at zero — the structure is
    /// kept so a future cost model (e.g. declared session cycles) only
    /// changes the arithmetic, not the queue.
    deficit: u64,
    items: VecDeque<WorkItem>,
}

/// What [`WorkQueue::try_pop`] observed without blocking.
enum Popped {
    Item(Box<WorkItem>),
    Empty,
    Closed,
}

#[derive(Default)]
struct DrrState {
    /// Tenants with queued work. Empty per-tenant queues are removed, so
    /// the map never grows beyond the set of tenants with live backlog.
    queues: std::collections::BTreeMap<u64, TenantQueue>,
    /// Round-robin service order over `queues` keys.
    active: VecDeque<u64>,
    closed: bool,
}

/// The shared work queue: items are enqueued FIFO *per tenant* and
/// dequeued deficit-round-robin *across* tenants, so one tenant's flood
/// delays another tenant by at most one job per round instead of by the
/// whole backlog. Replaces the old single `mpsc` FIFO hand-off.
///
/// Close semantics mirror the channel it replaced: [`close`](Self::close)
/// rejects new pushes, but pops keep draining queued items — `None`/
/// `Closed` only once the queue is closed **and** empty, so graceful
/// shutdown still completes in-flight tickets.
struct WorkQueue {
    state: Mutex<DrrState>,
    ready: Condvar,
}

impl WorkQueue {
    /// Credits granted per round. Unit quantum + unit cost = one job per
    /// tenant per round (classic round-robin as the DRR degenerate case).
    const QUANTUM: u64 = 1;

    fn new() -> Self {
        WorkQueue {
            state: Mutex::new(DrrState::default()),
            ready: Condvar::new(),
        }
    }

    /// Enqueue an item under its tenant. `Err(item)` iff the queue is
    /// closed (the service shut down under the submitter).
    fn push(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut s = self.state.lock().expect("work queue lock");
        if s.closed {
            return Err(item);
        }
        let tenant = item.tenant;
        match s.queues.get_mut(&tenant) {
            Some(q) => q.items.push_back(item),
            None => {
                s.queues.insert(
                    tenant,
                    TenantQueue {
                        deficit: 0,
                        items: VecDeque::from([item]),
                    },
                );
                s.active.push_back(tenant);
            }
        }
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// One DRR scheduling step under the lock: advance the round-robin
    /// head, spend a credit, and requeue the tenant if backlog remains.
    fn pop_locked(s: &mut DrrState) -> Option<Box<WorkItem>> {
        let tenant = s.active.pop_front()?;
        let q = s
            .queues
            .get_mut(&tenant)
            .expect("active tenant has a queue");
        q.deficit += Self::QUANTUM;
        let item = q.items.pop_front().expect("active tenant queue nonempty");
        q.deficit -= 1; // unit cost per job
        if q.items.is_empty() {
            s.queues.remove(&tenant);
        } else {
            s.active.push_back(tenant);
        }
        Some(Box::new(item))
    }

    /// Non-blocking pop, so workers can distinguish a genuinely empty
    /// queue (→ park) from available work.
    fn try_pop(&self) -> Popped {
        let mut s = self.state.lock().expect("work queue lock");
        match Self::pop_locked(&mut s) {
            Some(item) => Popped::Item(item),
            None if s.closed => Popped::Closed,
            None => Popped::Empty,
        }
    }

    /// Blocking pop: parks until an item arrives or the queue is closed
    /// *and* drained.
    fn pop_wait(&self) -> Option<Box<WorkItem>> {
        let mut s = self.state.lock().expect("work queue lock");
        loop {
            if let Some(item) = Self::pop_locked(&mut s) {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).expect("work queue wait");
        }
    }

    /// Close the queue: pushes fail from here on, pops drain what's left.
    /// Idempotent (called from both `shutdown` and `Drop`).
    fn close(&self) {
        self.state.lock().expect("work queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// State shared by the service handle, its workers, and its tickets.
struct Shared {
    reference: Reference,
    cfg: AuditConfig,
    /// Current battery generation. Starts as `reference.battery`; swapped
    /// by cross-batch retraining ([`ServiceBuilder::retrain_on_clean`]).
    battery: Mutex<Option<Arc<DetectorBattery>>>,
    retrain_on_clean: bool,
    /// The service's single source of truth for counters and lifecycle
    /// events — workers, feeders, serve loops, and the TCP front end all
    /// record into this one set (see [`crate::obs::ServiceMetrics`]).
    metrics: ServiceMetrics,
    /// Wire-registered reference programs (verify-on-load, LRU-evicted);
    /// the built-in `reference` above is *not* an entry here — v1
    /// `SubmitBatch` frames and the plain submit paths keep using it.
    registry: ReferenceRegistry,
}

/// Releases a claimed residency slot on drop — **including unwind**. If a
/// worker panics mid-audit, the slot must not leak: a leaked slot would
/// wedge the streaming feeder in `gate.acquire` forever, turning a worker
/// death into a silent hang instead of the loud short-verdict-set failure
/// `BatchTicket::wait` raises.
struct SlotGuard(Option<Arc<ResidencyGate>>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if let Some(gate) = self.0.take() {
            gate.release();
        }
    }
}

fn worker_main(worker: u64, shared: Arc<Shared>, queue: Arc<WorkQueue>) {
    let mut cache = ReferenceCache::new(&shared.reference);
    loop {
        // The queue holds its lock only for the dequeue, not the audit. An
        // idle worker parks in `pop_wait`; a closed-and-drained queue is
        // the shutdown signal. `try_pop` first so the park/unpark trace
        // records only *true* blocking waits, not queue-was-already-full
        // dequeues.
        let item = match queue.try_pop() {
            Popped::Item(item) => Some(item),
            Popped::Closed => None,
            Popped::Empty => {
                shared.metrics.trace(TraceKind::WorkerPark, worker, 0);
                let got = queue.pop_wait();
                shared.metrics.trace(TraceKind::WorkerUnpark, worker, 0);
                got
            }
        };
        let Some(item) = item else { break };
        shared.metrics.queue_depth.dec();
        let WorkItem {
            index,
            source,
            battery,
            reference,
            cancelled,
            gate,
            sink,
            tenant: _,
            tenant_depth,
        } = *item;
        if let Some(depth) = tenant_depth {
            depth.dec();
        }
        let slot = SlotGuard(gate);
        if cancelled.load(Ordering::Relaxed) {
            shared.metrics.sessions_cancelled.inc();
            drop(source);
            drop(slot);
            continue;
        }
        shared.metrics.in_flight_jobs.inc();
        let started = Instant::now();
        let verdict = match &reference {
            // Registry submission: audit on a warm cache from the pinned
            // entry's pool. Registered references ship no battery, so
            // they score TDR-only regardless of the service-wide mode;
            // threshold and seed derivation come from the service
            // configuration as usual.
            Some(pin) => {
                let mut ref_cache = pin.checkout_cache();
                let cfg = AuditConfig {
                    battery: BatteryMode::TdrOnly,
                    ..shared.cfg
                };
                let verdict = ref_cache.audit(source.job(), &cfg);
                pin.return_cache(ref_cache);
                verdict
            }
            None => {
                cache.set_battery(battery);
                cache.audit(source.job(), &shared.cfg)
            }
        };
        let elapsed = started.elapsed();
        shared.metrics.in_flight_jobs.dec();
        drop(source);
        drop(slot);
        shared
            .metrics
            .worker_busy_nanos
            .add(elapsed.as_nanos() as u64);
        shared
            .metrics
            .verdict_latency_us
            .observe(elapsed.as_secs_f64() * 1e6);
        shared.metrics.replayed_cycles.add(verdict.replayed_cycles);
        shared.metrics.sessions_audited.inc();
        // A dropped ticket is not an error: the verdict is simply unwanted.
        let _ = sink.send((index, verdict));
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and spawns an [`AuditService`].
///
/// Defaults: one worker per available core, the default high-water mark,
/// TDR-only scoring, and no cross-batch retraining. Unlike
/// [`AuditConfig::workers`] in `Sanity::audit_batch`, `0` is **not** a
/// magic value here — `build()` returns a typed [`ConfigError`] for zero
/// workers or a zero high-water mark.
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    reference: Reference,
    cfg: AuditConfig,
    retrain_on_clean: bool,
    reference_budget: u64,
}

impl ServiceBuilder {
    /// Worker threads to keep warm (must be positive).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Streaming residency bound (must be positive).
    pub fn high_water(mut self, w: usize) -> Self {
        self.cfg.high_water = w;
        self
    }

    /// Which detectors score each session. [`BatteryMode::Full`] requires
    /// a trained battery on the reference (or via
    /// [`trained_battery`](Self::trained_battery)).
    pub fn battery(mut self, mode: BatteryMode) -> Self {
        self.cfg.battery = mode;
        self
    }

    /// Attach a trained battery to the service's reference (equivalent to
    /// building the [`Reference`] with [`Reference::with_battery`]).
    ///
    /// # Panics
    ///
    /// Panics if the battery is untrained, like
    /// [`Reference::with_battery`].
    pub fn trained_battery(mut self, battery: DetectorBattery) -> Self {
        self.reference = self.reference.with_battery(battery);
        self
    }

    /// TDR flagging threshold (default 2%).
    pub fn threshold(mut self, t: f64) -> Self {
        self.cfg.threshold = t;
        self
    }

    /// Base replay seed (sessions derive per-session seeds from it).
    pub fn run_seed(mut self, seed: u64) -> Self {
        self.cfg.run_seed = seed;
        self
    }

    /// Replace the whole configuration at once (a caller's
    /// [`AuditConfig`] verbatim — `build()` rejects a zero worker count or
    /// high-water mark, so resolve those first).
    pub fn config(mut self, cfg: AuditConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// After each completed batch, fold the observed IPDs of its *clean*
    /// sessions (not flagged, no replay error) back into the battery
    /// ([`DetectorBattery::absorb_all`]) and use the retrained battery
    /// for subsequent submissions — the cross-batch retraining hook.
    /// Requires a trained battery on the service. Default off: retraining
    /// changes statistical baselines across batches by design, so
    /// warm-service output is byte-identical to a fresh service only with
    /// this off.
    ///
    /// Streamed submissions keep their bounded-memory promise: only the
    /// first [`RETRAIN_CAPTURE_CAP`] sessions of a streamed batch are
    /// candidates for absorption ([`Sessions::Jobs`] submissions absorb
    /// every clean session — the caller already holds them all).
    pub fn retrain_on_clean(mut self, on: bool) -> Self {
        self.retrain_on_clean = on;
        self
    }

    /// Residency budget (bytes of canonical program code) for the
    /// reference registry — wire-registered programs are LRU-evicted
    /// when they exceed it (default
    /// [`DEFAULT_REFERENCE_BUDGET`]).
    /// The built-in default reference is not charged against it.
    pub fn reference_budget(mut self, bytes: u64) -> Self {
        self.reference_budget = bytes;
        self
    }

    /// Validate the configuration and spawn the worker pool.
    pub fn build(self) -> Result<AuditService, ConfigError> {
        self.cfg.validate()?;
        if self.cfg.battery == BatteryMode::Full && self.reference.battery.is_none() {
            return Err(ConfigError::MissingBattery);
        }
        if self.retrain_on_clean && self.reference.battery.is_none() {
            return Err(ConfigError::MissingBattery);
        }
        let battery = self.reference.battery.clone();
        let metrics = ServiceMetrics::new();
        let registry = ReferenceRegistry::with_service_metrics(self.reference_budget, &metrics);
        let shared = Arc::new(Shared {
            reference: self.reference,
            cfg: self.cfg,
            battery: Mutex::new(battery),
            retrain_on_clean: self.retrain_on_clean,
            metrics,
            registry,
        });
        let queue = Arc::new(WorkQueue::new());
        let workers = (0..self.cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("audit-service-worker-{w}"))
                    .spawn(move || worker_main(w as u64, shared, queue))
                    .expect("spawn audit service worker")
            })
            .collect();
        Ok(AuditService {
            shared,
            queue,
            workers,
        })
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A long-lived audit service: one warmed worker pool, many submissions.
///
/// See the [module docs](self) for the lifecycle. Submissions from
/// multiple batches share the tenant-fair work queue (per-tenant FIFO,
/// round-robin across tenants); verdicts are routed to the submitting
/// ticket.
pub struct AuditService {
    shared: Arc<Shared>,
    queue: Arc<WorkQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for AuditService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditService")
            .field("workers", &self.workers.len())
            .field("cfg", &self.shared.cfg)
            .field(
                "sessions_audited",
                &self.shared.metrics.sessions_audited.get(),
            )
            .finish()
    }
}

/// What a streaming feeder reports back when it finishes.
struct FeederOutcome {
    error: Option<IngestError>,
    /// Sessions actually handed to the workers (the verdict count a
    /// clean run must deliver — fewer means a worker died).
    submitted: usize,
    peak_resident: usize,
    /// `(session_id, observed IPDs)` per submitted session, captured only
    /// when cross-batch retraining is on.
    retrain_traces: Option<Vec<(u64, Vec<u64>)>>,
}

impl AuditService {
    /// Start configuring a service over `reference`.
    pub fn builder(reference: Reference) -> ServiceBuilder {
        ServiceBuilder {
            reference,
            cfg: AuditConfig {
                // The builder resolves the defaults *now*; `0` is invalid
                // at build() rather than a fallback deep in the pool.
                workers: AuditConfig::default().resolved_workers(),
                ..AuditConfig::default()
            },
            retrain_on_clean: false,
            reference_budget: DEFAULT_REFERENCE_BUDGET,
        }
    }

    /// The service-wide configuration (fixed at build time).
    pub fn config(&self) -> &AuditConfig {
        &self.shared.cfg
    }

    /// Worker threads kept warm.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Sessions audited over the service's lifetime (skipped/cancelled
    /// sessions are not counted). A view over the `sessions_audited`
    /// metric — see [`metrics_snapshot`](Self::metrics_snapshot).
    pub fn sessions_audited(&self) -> u64 {
        self.shared.metrics.sessions_audited.get()
    }

    /// Batches submitted over the service's lifetime (a view over the
    /// `batches_submitted` metric).
    pub fn batches_submitted(&self) -> u64 {
        self.shared.metrics.batches_submitted.get()
    }

    /// The service's metric set (shared with workers, feeders, serve
    /// loops, and the TCP front end).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
    }

    /// Capture every service metric as a deterministic, name-ordered
    /// snapshot — the payload of [`ControlFrame::Stats`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The retained lifecycle trace, oldest event first. Timestamps are
    /// process-monotonic wall-clock measurements: diagnostic only, never
    /// part of a determinism-pinned artifact, never sent on the control
    /// plane.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.metrics.trace_events()
    }

    /// The battery generation new submissions would score with (changes
    /// only under [`ServiceBuilder::retrain_on_clean`]).
    pub fn battery(&self) -> Option<Arc<DetectorBattery>> {
        self.shared.battery.lock().expect("battery lock").clone()
    }

    /// Submit a materialized batch against the service's built-in
    /// reference — the convenience form of [`submit`](Self::submit) for a
    /// borrowed slice (the jobs are copied once into the submission).
    pub fn submit_batch(&self, jobs: &[AuditJob]) -> BatchTicket {
        self.enqueue(Sessions::Jobs(jobs.to_vec()), None, LOCAL_TENANT, None)
            .expect("a materialized batch has no header to reject")
    }

    /// Submit `sessions` for audit and return immediately; the ticket
    /// yields verdicts as workers produce them and the final report on
    /// [`BatchTicket::wait`].
    ///
    /// `reference` selects a program registered with
    /// [`put_reference`](Self::put_reference) — the in-process twin of a
    /// `SubmitBatch` v2 frame — or, when `None`, the service's built-in
    /// reference. Registered references carry no trained battery, so
    /// their sessions score TDR-only regardless of the service-wide
    /// battery mode.
    ///
    /// A [`Sessions::Tdrb`] stream has its batch header validated here, so
    /// a malformed header fails fast on the caller; its sessions then
    /// decode lazily on a feeder thread, holding at most
    /// [`AuditConfig::high_water`] resident. Verdicts are byte-identical to
    /// a [`Sessions::Jobs`] submission of the same sessions.
    pub fn submit(
        &self,
        sessions: Sessions,
        reference: Option<ReferenceId>,
    ) -> Result<BatchTicket, SubmitError> {
        let pin = match reference {
            None => None,
            Some(id) => Some(Arc::new(
                self.shared
                    .registry
                    .checkout(&id)
                    .ok_or(SubmitError::UnknownReference(id))?,
            )),
        };
        self.enqueue(sessions, pin, LOCAL_TENANT, None)
            .map_err(SubmitError::Ingest)
    }

    /// Open, verify, and admit a TDRP container into the service's
    /// reference registry — the in-process twin of the wire
    /// [`ControlFrame::PutReference`] (`Client::put_reference`).
    pub fn put_reference(&self, tdrp: &[u8]) -> Result<RegistryLoad, RegistryError> {
        self.shared.registry.load(tdrp)
    }

    /// Parse and install a trained detector battery from its canonical
    /// JSON form, replacing the current generation in one atomic swap —
    /// the in-process twin of the wire [`ControlFrame::PutBattery`]
    /// (`Client::put_battery`). Returns the new generation number.
    ///
    /// Refused (with the reason) when the JSON fails to parse, the
    /// battery is untrained, or the service was built without a battery
    /// (TDR-only scoring — an installed battery would silently never
    /// score, so pretending to accept it would hide a fleet
    /// misconfiguration). In-flight sessions keep the generation they
    /// were submitted under; only subsequent submissions see the new one
    /// — the same swap discipline as cross-batch retraining.
    pub fn install_battery(&self, json: &str) -> Result<u64, String> {
        let battery =
            DetectorBattery::from_json(json).map_err(|e| format!("battery JSON refused: {e}"))?;
        if !battery.is_trained() {
            return Err("battery is untrained".to_string());
        }
        if self.shared.reference.battery.is_none() {
            return Err(
                "service scores TDR-only (built without a battery); install refused".to_string(),
            );
        }
        let mut guard = self.shared.battery.lock().expect("battery lock");
        *guard = Some(Arc::new(battery));
        drop(guard);
        let generation = self.shared.metrics.retrain_generations.inc();
        self.shared
            .metrics
            .trace(TraceKind::RetrainPublish, generation, 0);
        Ok(generation)
    }

    /// The service's reference registry (shared with every serve loop).
    pub fn reference_registry(&self) -> &ReferenceRegistry {
        &self.shared.registry
    }

    /// The one enqueue core behind [`submit`](Self::submit),
    /// [`submit_batch`](Self::submit_batch) and the serve loop: work items
    /// are tagged with `tenant` for the fair scheduler, and `handles` (if
    /// any) receive per-tenant throughput/depth updates. Jobs are queued
    /// at once from one shared allocation; a TDRB stream is fed by a
    /// feeder thread under the high-water residency bound. `Err` only for
    /// a stream whose batch header fails to decode (nothing enqueued).
    fn enqueue(
        &self,
        sessions: Sessions,
        reference: Option<Arc<PinnedReference>>,
        tenant: u64,
        handles: Option<&TenantMetricHandles>,
    ) -> Result<BatchTicket, IngestError> {
        let metrics = &self.shared.metrics;
        let (jobs, stream) = match sessions {
            Sessions::Jobs(jobs) => (jobs, None),
            Sessions::Tdrb(reader) => {
                let stream = BatchStream::new(io::BufReader::new(reader))?;
                (Vec::new(), Some(stream))
            }
        };
        let batch_seq = metrics.batches_submitted.inc();
        // A stream's session count is unknown until it drains: `b = 0`
        // marks a streamed submission in the trace.
        metrics.trace(TraceKind::BatchSubmit, batch_seq, jobs.len() as u64);
        let (sink, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        let default_reference = reference.is_none();
        let submission = Submission {
            queue: Arc::clone(&self.queue),
            sink,
            cancelled: Arc::clone(&cancelled),
            battery: default_reference.then(|| self.battery()).flatten(),
            reference,
            // Cross-batch retraining feeds the *default* battery; a
            // registry batch's clean traces belong to a different program
            // and must not be absorbed into it.
            retrain: self.shared.retrain_on_clean && default_reference,
            tenant,
            queue_depth: Arc::clone(&metrics.queue_depth),
            tenant_depth: handles.map(|h| Arc::clone(&h.queue_depth)),
        };
        let mut ticket = BatchTicket {
            rx,
            cancelled,
            batch_seq,
            collected: Vec::with_capacity(jobs.len()),
            feeder: None,
            immediate_outcome: None,
            workers: 1,
            shared: Arc::clone(&self.shared),
            finished: false,
        };
        if let Some(stream) = stream {
            let ctx = FeedContext {
                submission,
                high_water: self.shared.cfg.high_water,
                sessions_submitted: Arc::clone(&metrics.sessions_submitted),
                tenant_sessions: handles.map(|h| Arc::clone(&h.sessions)),
            };
            let feeder = std::thread::Builder::new()
                .name("audit-service-feeder".to_string())
                .spawn(move || feed(stream, ctx))
                .expect("spawn audit service feeder");
            ticket.feeder = Some(feeder);
            ticket.workers = self.workers.len().min(self.shared.cfg.high_water).max(1);
            return Ok(ticket);
        }
        let n = jobs.len();
        metrics.sessions_submitted.add(n as u64);
        if let Some(h) = handles {
            h.sessions.add(n as u64);
        }
        let retrain_traces = submission.retrain.then(|| {
            jobs.iter()
                .map(|j| (j.session_id, j.observed_ipds.clone()))
                .collect()
        });
        let jobs = Arc::new(jobs);
        for index in 0..n {
            let source = JobSource::Shared(Arc::clone(&jobs), index);
            assert!(
                submission.push(index, source, None),
                "service workers outlive submissions"
            );
        }
        // Dropping the submission's sender lets the ticket's receiver
        // close once every worker has delivered (or skipped) its verdict.
        drop(submission);
        ticket.immediate_outcome = Some(FeederOutcome {
            error: None,
            submitted: n,
            peak_resident: 0,
            retrain_traces,
        });
        ticket.workers = self.workers.len().min(n).max(1);
        Ok(ticket)
    }

    /// Graceful shutdown: close the work queue, let workers drain every
    /// queued item (in-flight tickets still complete), and join them.
    /// Dropping the service does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// The daemon loop: serve [`ControlFrame`] requests from `reader`,
    /// writing responses to `writer`, until the peer disconnects (clean
    /// EOF) or sends [`ControlFrame::Shutdown`].
    ///
    /// Per [`ControlFrame::SubmitBatch`] request the response is zero or
    /// more [`ControlFrame::Verdict`] frames **in submission order**
    /// followed by exactly one [`ControlFrame::Summary`] (success) or
    /// [`ControlFrame::Error`] (the embedded TDRB failed to decode; the
    /// service stays up). A [`ControlFrame::StatsRequest`] is answered
    /// with one [`ControlFrame::Stats`] carrying a live
    /// [`metrics_snapshot`](Self::metrics_snapshot). Protocol-level
    /// failures — corrupt control frames, client-only frames arriving as
    /// requests, transport errors — return a [`ControlError`] and end the
    /// loop (a read timing out on an endpoint with a configured read
    /// deadline is reported as [`ControlError::IdleTimeout`]).
    pub fn serve<R: Read, W: Write>(&self, reader: R, writer: W) -> Result<(), ControlError> {
        self.serve_as_tenant(reader, writer, LOCAL_TENANT, None)
    }

    /// [`serve`](Self::serve) with multi-tenant governance: work this
    /// connection submits is scheduled under `tenant` (the daemon's
    /// connection id — per-tenant round-robin onto the worker pool, plus
    /// lazily-registered `tenant_{id}_sessions` / `tenant_{id}_rejected` /
    /// `tenant_{id}_queue_depth` metrics), and `quota` (if any) bounds
    /// what it may submit. An over-quota `SubmitBatch` is answered in-band
    /// with a [`ControlFrame::Busy`] frame — the client surfaces it as
    /// [`ControlError::QuotaExceeded`] — and the connection survives;
    /// rejected batches consume no quota. A `tenant` of 0 disables the
    /// per-tenant metrics (it is the in-process submitter's id).
    pub fn serve_as_tenant<R: Read, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
        tenant: u64,
        quota: Option<TenantQuota>,
    ) -> Result<(), ControlError> {
        let metrics = &self.shared.metrics;
        let handles =
            (tenant != LOCAL_TENANT).then(|| TenantMetricHandles::register(metrics, tenant));
        let mut admitted_batches = 0u64;
        let mut frames_seen = 0u64;
        let outcome = loop {
            let frame = match ControlFrame::read_from(&mut reader) {
                Ok(None) => break Ok(()), // peer hung up cleanly
                Ok(Some(frame)) => frame,
                Err(ControlError::Io(kind, _))
                    if kind == io::ErrorKind::WouldBlock || kind == io::ErrorKind::TimedOut =>
                {
                    // A read deadline fired (net.rs sets one when the
                    // daemon runs with an idle timeout): the peer stalled.
                    break Err(ControlError::IdleTimeout);
                }
                Err(e) => break Err(e),
            };
            frames_seen += 1;
            metrics.frames_in.inc();
            let result = match frame {
                ControlFrame::SubmitBatch {
                    batch_id,
                    tdrb,
                    reference,
                } => {
                    metrics.frames_in_submit_batch.inc();
                    // Resolve the reference before admitting: an unknown
                    // id is answered in-band (the client surfaces it as
                    // `ControlError::UnknownReference`) and, like a quota
                    // refusal, consumes no quota.
                    let resolved = match reference {
                        None => Ok(None),
                        Some(id) => match self.shared.registry.checkout(&id) {
                            Some(pin) => Ok(Some(Arc::new(pin))),
                            None => Err(id),
                        },
                    };
                    match resolved {
                        Err(id) => send(
                            metrics,
                            &mut writer,
                            &ControlFrame::ReferenceAck {
                                put_id: batch_id,
                                reference: id,
                                status: AckStatus::Unknown,
                                resident_bytes: self.shared.registry.resident_bytes(),
                            },
                            &metrics.frames_out_reference_ack,
                        ),
                        Ok(pin) => {
                            if let Some(refusal) =
                                quota_refusal(quota, admitted_batches, &tdrb, batch_id)
                            {
                                metrics.quota_rejections.inc();
                                if let Some(h) = &handles {
                                    h.rejected.inc();
                                }
                                metrics.trace(TraceKind::QuotaReject, tenant, batch_id);
                                send(metrics, &mut writer, &refusal, &metrics.frames_out_busy)
                            } else {
                                admitted_batches += 1;
                                self.serve_batch(
                                    batch_id,
                                    tdrb,
                                    pin,
                                    &mut writer,
                                    tenant,
                                    handles.as_ref(),
                                )
                            }
                        }
                    }
                }
                ControlFrame::PutReference { put_id, tdrp } => {
                    metrics.frames_in_put_reference.inc();
                    // Verify/CRC failures are *in-band* rejections: the
                    // connection — and the daemon — keep serving.
                    let ack = match self.shared.registry.load(&tdrp) {
                        Ok(load) => ControlFrame::ReferenceAck {
                            put_id,
                            reference: load.id,
                            status: if load.newly_loaded {
                                AckStatus::Loaded
                            } else {
                                AckStatus::AlreadyResident
                            },
                            resident_bytes: load.resident_bytes,
                        },
                        Err(e) => ControlFrame::ReferenceAck {
                            put_id,
                            reference: ReferenceId([0u8; 32]),
                            status: AckStatus::Rejected(e.to_string()),
                            resident_bytes: self.shared.registry.resident_bytes(),
                        },
                    };
                    send(
                        metrics,
                        &mut writer,
                        &ack,
                        &metrics.frames_out_reference_ack,
                    )
                }
                ControlFrame::PutBattery { put_id, json } => {
                    metrics.frames_in_put_battery.inc();
                    // Like a refused container: rejections travel in-band,
                    // the connection and the daemon keep serving.
                    let ack = match self.install_battery(&json) {
                        Ok(generation) => ControlFrame::BatteryAck {
                            put_id,
                            generation,
                            status: AckStatus::Loaded,
                        },
                        Err(reason) => ControlFrame::BatteryAck {
                            put_id,
                            generation: 0,
                            status: AckStatus::Rejected(reason),
                        },
                    };
                    send(metrics, &mut writer, &ack, &metrics.frames_out_battery_ack)
                }
                ControlFrame::StatsRequest => {
                    metrics.frames_in_stats_request.inc();
                    let stats = ControlFrame::Stats {
                        snapshot: metrics.snapshot(),
                    };
                    send(metrics, &mut writer, &stats, &metrics.frames_out_stats)
                }
                ControlFrame::Shutdown => {
                    metrics.frames_in_shutdown.inc();
                    break send(
                        metrics,
                        &mut writer,
                        &ControlFrame::ShutdownAck,
                        &metrics.frames_out_shutdown_ack,
                    );
                }
                other => Err(ControlError::UnexpectedFrame(other.kind_name())),
            };
            if let Err(e) = result {
                break Err(e);
            }
        };
        metrics.conn_frames.observe(frames_seen as f64);
        if let Err(e) = &outcome {
            metrics.record_control_error(e);
        }
        outcome
    }

    /// Audit one admitted `SubmitBatch` and write its response: the
    /// verdicts in submission order, then one `Summary` or `Error`.
    fn serve_batch<W: Write>(
        &self,
        batch_id: u64,
        tdrb: Vec<u8>,
        reference: Option<Arc<PinnedReference>>,
        writer: &mut W,
        tenant: u64,
        handles: Option<&TenantMetricHandles>,
    ) -> Result<(), ControlError> {
        let metrics = &self.shared.metrics;
        let sessions = Sessions::tdrb(io::Cursor::new(tdrb));
        let mut ticket = match self.enqueue(sessions, reference, tenant, handles) {
            Ok(ticket) => ticket,
            Err(e) => {
                metrics.batch_errors.inc();
                let error = ControlFrame::Error {
                    batch_id,
                    message: e.to_string(),
                };
                return send(metrics, writer, &error, &metrics.frames_out_error);
            }
        };
        // Re-order scheduling-dependent arrivals into submission order so
        // the response byte stream is deterministic.
        let mut pending: std::collections::BTreeMap<usize, AuditVerdict> =
            std::collections::BTreeMap::new();
        let mut next = 0usize;
        while let Some((index, verdict)) = ticket.recv() {
            pending.insert(index, verdict);
            let mut wrote = false;
            while let Some(verdict) = pending.remove(&next) {
                ControlFrame::Verdict {
                    batch_id,
                    index: next as u64,
                    verdict,
                }
                .write_to(writer)?;
                metrics.frames_out.inc();
                metrics.frames_out_verdict.inc();
                next += 1;
                wrote = true;
            }
            // Flush whenever in-order verdicts went out, so a client on a
            // buffered transport (the TCP front end wraps the socket in a
            // BufWriter) sees verdicts live as workers produce them, not
            // all at once with the summary.
            if wrote {
                writer.flush().map_err(ControlError::from_io)?;
            }
        }
        debug_assert!(pending.is_empty(), "verdict indexes are contiguous");
        match ticket.wait() {
            Ok(report) => {
                let summary = ControlFrame::Summary {
                    batch_id,
                    workers: report.workers as u64,
                    peak_resident: report.peak_resident as u64,
                    summary: report.summary,
                };
                send(metrics, writer, &summary, &metrics.frames_out_summary)
            }
            Err(e) => {
                let error = ControlFrame::Error {
                    batch_id,
                    message: e.to_string(),
                };
                send(metrics, writer, &error, &metrics.frames_out_error)
            }
        }
    }
}

/// Write one response frame and flush it. Only a frame that was written
/// is counted — in `frames_out` and in `kind`, its per-kind counter.
pub(crate) fn send<W: Write>(
    metrics: &ServiceMetrics,
    writer: &mut W,
    frame: &ControlFrame,
    kind: &Counter,
) -> Result<(), ControlError> {
    frame.write_to(writer)?;
    writer.flush().map_err(ControlError::from_io)?;
    metrics.frames_out.inc();
    kind.inc();
    Ok(())
}

impl Drop for AuditService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Handles to one tenant's lazily-registered metrics
/// (`tenant_{id}_sessions` / `tenant_{id}_rejected` /
/// `tenant_{id}_queue_depth`), fetched once per connection so the
/// name-keyed registry lookup is off the per-session path.
struct TenantMetricHandles {
    /// Sessions this tenant handed to the workers (throughput).
    sessions: Arc<Counter>,
    /// Batches refused by quota (each one also counted in the global
    /// `quota_rejections`).
    rejected: Arc<Counter>,
    /// This tenant's share of the shared work queue.
    queue_depth: Arc<Gauge>,
}

impl TenantMetricHandles {
    fn register(metrics: &ServiceMetrics, tenant: u64) -> Self {
        let r = metrics.registry();
        TenantMetricHandles {
            sessions: r.counter(&format!("tenant_{tenant}_sessions")),
            rejected: r.counter(&format!("tenant_{tenant}_rejected")),
            queue_depth: r.gauge(&format!("tenant_{tenant}_queue_depth")),
        }
    }
}

/// Admission decision for one `SubmitBatch`: `Some(Busy)` if `quota`
/// refuses it. Batch budget is checked first, then the session count the
/// TDRB header *declares* — a cheap peek, no session is decoded. A
/// malformed header skips the session check (the ingest path downstream
/// reports it in-band as a decode [`ControlFrame::Error`], which must not
/// be masked by a quota refusal).
fn quota_refusal(
    quota: Option<TenantQuota>,
    admitted: u64,
    tdrb: &[u8],
    batch_id: u64,
) -> Option<ControlFrame> {
    let quota = quota?;
    if admitted >= quota.max_batches {
        return Some(ControlFrame::Busy {
            batch_id,
            scope: BusyScope::QueuedBatches,
            active: admitted,
            limit: quota.max_batches,
        });
    }
    if tdrb.get(..4) == Some(&crate::ingest::BATCH_MAGIC[..]) && tdrb.len() >= 8 {
        let mut pos = 8usize; // magic + version + flags
        if let Ok(declared) = wire::read_varint(tdrb, &mut pos) {
            if declared > quota.max_sessions {
                return Some(ControlFrame::Busy {
                    batch_id,
                    scope: BusyScope::InFlightSessions,
                    active: declared,
                    limit: quota.max_sessions,
                });
            }
        }
    }
    None
}

/// What every work item of one submission shares.
struct Submission {
    queue: Arc<WorkQueue>,
    sink: mpsc::Sender<(usize, AuditVerdict)>,
    cancelled: Arc<AtomicBool>,
    battery: Option<Arc<DetectorBattery>>,
    /// Pinned registry entry the whole submission audits against
    /// (`None` = default reference).
    reference: Option<Arc<PinnedReference>>,
    /// Capture clean traces for cross-batch retraining.
    retrain: bool,
    /// Scheduling key stamped on every work item.
    tenant: u64,
    queue_depth: Arc<Gauge>,
    tenant_depth: Option<Arc<Gauge>>,
}

impl Submission {
    /// Queue one session as a work item. `false` if the service shut down
    /// under the submitter (nothing was queued).
    fn push(&self, index: usize, source: JobSource, gate: Option<Arc<ResidencyGate>>) -> bool {
        let item = WorkItem {
            index,
            source,
            battery: self.battery.clone(),
            reference: self.reference.clone(),
            cancelled: Arc::clone(&self.cancelled),
            gate,
            sink: self.sink.clone(),
            tenant: self.tenant,
            tenant_depth: self.tenant_depth.clone(),
        };
        self.queue_depth.inc();
        if let Some(depth) = &self.tenant_depth {
            depth.inc();
        }
        if self.queue.push(item).is_ok() {
            return true;
        }
        self.queue_depth.dec();
        if let Some(depth) = &self.tenant_depth {
            depth.dec();
        }
        false
    }
}

/// Everything a feeder needs besides the session source.
struct FeedContext {
    submission: Submission,
    high_water: usize,
    /// Metric handles (not the whole set: the feeder may outlive the
    /// ticket but records only these).
    sessions_submitted: Arc<Counter>,
    tenant_sessions: Option<Arc<Counter>>,
}

/// The streaming feeder loop: pull sessions under the residency gate and
/// enqueue them as work items. Runs on the submission's feeder thread.
fn feed<I>(sessions: I, ctx: FeedContext) -> FeederOutcome
where
    I: IntoIterator<Item = Result<AuditJob, IngestError>>,
{
    let gate = Arc::new(ResidencyGate::new());
    let mut retrain_traces = ctx.submission.retrain.then(Vec::new);
    let mut error = None;
    let mut submitted = 0usize;
    let mut iter = sessions.into_iter();
    loop {
        if ctx.submission.cancelled.load(Ordering::Relaxed) {
            break;
        }
        // Claim a residency slot *before* decoding the next session: the
        // pull itself is what materializes it.
        gate.acquire(ctx.high_water);
        match iter.next() {
            Some(Ok(job)) => {
                gate.commit();
                // Bounded capture: streamed ingest promises memory
                // proportional to `high_water`, not the batch, so only a
                // capped prefix of a streamed batch can feed retraining
                // (absorb_clean zips verdicts with this prefix). A
                // `Sessions::Jobs` submission captures every session — the
                // caller already holds the whole batch there.
                if let Some(traces) = &mut retrain_traces {
                    if traces.len() < RETRAIN_CAPTURE_CAP {
                        traces.push((job.session_id, job.observed_ipds.clone()));
                    }
                }
                let source = JobSource::Owned(Box::new(job));
                if !ctx
                    .submission
                    .push(submitted, source, Some(Arc::clone(&gate)))
                {
                    // The service shut down under us; hand the slot back
                    // and stop feeding.
                    gate.release();
                    break;
                }
                ctx.sessions_submitted.inc();
                if let Some(sessions) = &ctx.tenant_sessions {
                    sessions.inc();
                }
                submitted += 1;
            }
            Some(Err(e)) => {
                gate.release();
                error = Some(e);
                break;
            }
            None => {
                gate.release();
                break;
            }
        }
    }
    drop(ctx.submission);
    FeederOutcome {
        error,
        submitted,
        peak_resident: gate.peak(),
        retrain_traces,
    }
}

// ---------------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------------

/// Everything one submission produces.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One verdict per submitted session, in submission order.
    pub verdicts: Vec<AuditVerdict>,
    /// Deterministic fleet-wide aggregation — byte-identical for the same
    /// sessions whether they were submitted as jobs or as a TDRB stream.
    pub summary: FleetSummary,
    /// Workers that could serve the submission (the pool size, capped by
    /// the session count for jobs and by the high-water mark for streams).
    pub workers: usize,
    /// The most sessions ever resident at once during streamed ingest
    /// (decoded, not yet audited). Never exceeds
    /// [`AuditConfig::high_water`]; zero for [`Sessions::Jobs`].
    pub peak_resident: usize,
}

/// Handle to one submission in flight on an [`AuditService`].
///
/// Yields per-session verdicts as workers produce them
/// ([`recv`](Self::recv); arrival order is scheduling-dependent, indexes
/// are submission order) and the final deterministic report on
/// [`wait`](Self::wait). **Dropping
/// the ticket cancels the submission**: sessions not yet audited are
/// skipped (their residency slots released) and the service moves on to
/// the next batch.
pub struct BatchTicket {
    rx: mpsc::Receiver<(usize, AuditVerdict)>,
    cancelled: Arc<AtomicBool>,
    /// 1-based submission sequence number (the `batches_submitted` count
    /// at submission), keying this batch's trace events.
    batch_seq: u64,
    collected: Vec<(usize, AuditVerdict)>,
    feeder: Option<JoinHandle<FeederOutcome>>,
    /// Outcome known at submission time ([`Sessions::Jobs`]); mutually
    /// exclusive with `feeder`.
    immediate_outcome: Option<FeederOutcome>,
    workers: usize,
    shared: Arc<Shared>,
    finished: bool,
}

impl std::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTicket")
            .field("collected", &self.collected.len())
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

impl BatchTicket {
    /// The next verdict as it arrives, or `None` once every session of the
    /// submission has reported. Verdicts are also retained internally for
    /// the final report, so mixing `recv` and [`wait`](Self::wait) is
    /// fine.
    pub fn recv(&mut self) -> Option<(usize, AuditVerdict)> {
        match self.rx.recv() {
            Ok((index, verdict)) => {
                self.collected.push((index, verdict.clone()));
                Some((index, verdict))
            }
            Err(_) => None,
        }
    }

    /// Drain remaining verdicts and produce the final batch report.
    ///
    /// For [`Sessions::Jobs`] submissions the `Err` arm is unreachable;
    /// for [`Sessions::Tdrb`] streams it carries the first ingest error,
    /// after in-flight sessions drained. A malformed session poisons the
    /// batch, but bytes before it are never replayed twice and sessions
    /// after it are never pulled.
    pub fn wait(mut self) -> Result<BatchReport, IngestError> {
        // Drain by moving — no per-verdict clone on the internal path.
        while let Ok(pair) = self.rx.recv() {
            self.collected.push(pair);
        }
        self.finished = true;
        let outcome = match self.feeder.take() {
            Some(handle) => handle.join().expect("feeder thread never panics"),
            None => self
                .immediate_outcome
                .take()
                .expect("ticket has a feeder or an immediate outcome"),
        };
        let metrics = &self.shared.metrics;
        if let Some(e) = outcome.error {
            metrics.batch_errors.inc();
            metrics.trace(
                TraceKind::BatchError,
                self.batch_seq,
                outcome.submitted as u64,
            );
            return Err(e);
        }
        // The old scoped pool asserted "every job produces a verdict" and
        // propagated worker panics; persistent workers swallow panics into
        // their join handles, so a short verdict set is the only evidence
        // a worker died mid-audit — fail loudly, never report a truncated
        // fleet summary as complete.
        assert_eq!(
            self.collected.len(),
            outcome.submitted,
            "an audit worker died before delivering every verdict"
        );
        metrics.batches_completed.inc();
        metrics.batch_sessions.observe(outcome.submitted as f64);
        metrics.residency_peak.set_max(outcome.peak_resident as u64);
        metrics.trace(
            TraceKind::BatchComplete,
            self.batch_seq,
            outcome.submitted as u64,
        );
        let mut collected = std::mem::take(&mut self.collected);
        collected.sort_by_key(|&(i, _)| i);
        let verdicts: Vec<AuditVerdict> = collected.into_iter().map(|(_, v)| v).collect();
        let summary = FleetSummary::from_verdicts(&verdicts);
        if let Some(traces) = outcome.retrain_traces {
            absorb_clean(&self.shared, &verdicts, &traces);
        }
        Ok(BatchReport {
            verdicts,
            summary,
            workers: self.workers,
            peak_resident: outcome.peak_resident,
        })
    }
}

impl Drop for BatchTicket {
    fn drop(&mut self) {
        if !self.finished {
            self.cancelled.store(true, Ordering::Relaxed);
        }
    }
}

/// Cross-batch retraining: absorb each clean session's observed IPDs (in
/// submission order — deterministic) and publish the new battery
/// generation for subsequent submissions. Publishes per-generation drift
/// metrics: the mean/max absolute change in detector score across the
/// absorbed clean traces, old generation vs. new — the score-drift
/// monitoring substrate (a quietly shifting baseline shows up here before
/// it shows up as verdict churn).
fn absorb_clean(shared: &Shared, verdicts: &[AuditVerdict], traces: &[(u64, Vec<u64>)]) {
    let mut clean: Vec<Vec<u64>> = Vec::new();
    for (verdict, (session_id, ipds)) in verdicts.iter().zip(traces) {
        debug_assert_eq!(verdict.session_id, *session_id);
        if !verdict.flagged && verdict.error.is_none() && !ipds.is_empty() {
            clean.push(ipds.clone());
        }
    }
    if clean.is_empty() {
        return;
    }
    // Read-modify-write under one lock acquisition: two batches finishing
    // concurrently must not clone the same base generation and lose one
    // batch's absorptions to the other's store.
    let mut guard = shared.battery.lock().expect("battery lock");
    let Some(current) = guard.as_ref() else {
        return;
    };
    let old = Arc::clone(current);
    let mut battery = (**current).clone();
    battery.absorb_all(&clean);
    let new = Arc::new(battery);
    *guard = Some(Arc::clone(&new));
    drop(guard);

    // Drift is measured on the traces just absorbed — every (trace,
    // detector) score pair, |new − old|. Deterministic: a function of the
    // traces and the two generations, no wall clock involved.
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    let mut n = 0u64;
    for ipds in &clean {
        let view = TraceView::observed(ipds);
        let before = old.score_all(&view);
        let after = new.score_all(&view);
        for (name, b) in &before {
            if let Some(a) = after.get(name) {
                let d = (a - b).abs();
                sum += d;
                max = max.max(d);
                n += 1;
            }
        }
    }
    let generation = shared.metrics.retrain_generations.inc();
    if n > 0 {
        shared.metrics.retrain_drift_mean.set(sum / n as f64);
        shared.metrics.retrain_drift_max.set(max);
    }
    shared
        .metrics
        .trace(TraceKind::RetrainPublish, generation, clean.len() as u64);
}

// ---------------------------------------------------------------------------
// In-memory duplex (the daemon's loopback transport)
// ---------------------------------------------------------------------------

/// One direction of the duplex: a byte queue with EOF tracking.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// One end of an in-memory, thread-safe duplex byte stream.
///
/// `Read` blocks until bytes arrive or the peer drops (then EOF);
/// `Write` never blocks (the buffer is unbounded — control traffic is
/// small). Dropping an end closes both directions for the peer. This is
/// the loopback transport the daemon tests and `repro daemon` drive
/// [`AuditService::serve`] with; a real deployment hands `serve` a
/// socket's reader/writer instead.
#[derive(Debug)]
pub struct DuplexEnd {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

/// A connected pair of in-memory duplex endpoints.
pub fn duplex() -> (DuplexEnd, DuplexEnd) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        DuplexEnd {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        DuplexEnd { rx: b, tx: a },
    )
}

// Like `TcpStream`, reads and writes also work through a shared
// reference, so one end can serve as a daemon's reader *and* writer at
// once: `service.serve(&end, &end)`.
impl Read for &DuplexEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().expect("pipe lock");
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = state.buf.pop_front().expect("n bytes queued");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            state = self.rx.ready.wait(state).expect("pipe wait");
        }
    }
}

impl Write for &DuplexEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.tx.state.lock().expect("pipe lock");
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer end dropped",
            ));
        }
        state.buf.extend(buf);
        self.tx.ready.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for DuplexEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for DuplexEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexEnd {
    fn drop(&mut self) {
        for pipe in [&self.tx, &self.rx] {
            pipe.state.lock().expect("pipe lock").closed = true;
            pipe.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use jbc::hll::{dsl::*, HTy, Module};
    use jbc::ElemTy;
    use replay::record;

    use super::*;

    /// A tiny echo service: one request in, one response out, with a bit
    /// of payload-dependent compute — enough for real verdicts, fast
    /// enough to submit dozens of sessions in a unit test.
    fn echo_program(n: i32) -> Arc<jbc::Program> {
        let mut m = Module::new("Echo");
        m.native("wait_packet", &[], None);
        m.native("net_recv", &[HTy::Arr(ElemTy::I8)], Some(HTy::I32));
        m.native("net_send", &[HTy::Arr(ElemTy::I8), HTy::I32], None);
        m.func(fn_void(
            "main",
            vec![],
            vec![
                let_("buf", newarr(ElemTy::I8, i(256))),
                let_("done", i(0)),
                while_(
                    lt(var("done"), i(n)),
                    vec![
                        expr(native("wait_packet", vec![])),
                        let_("len", native("net_recv", vec![var("buf")])),
                        if_(
                            gt(var("len"), i(0)),
                            vec![
                                let_("work", idx(var("buf"), i(0))),
                                let_("acc", i(0)),
                                for_(
                                    "k",
                                    i(0),
                                    mul(var("work"), i(10)),
                                    vec![set("acc", add(var("acc"), var("k")))],
                                ),
                                expr(native("net_send", vec![var("buf"), var("len")])),
                                set("done", add(var("done"), i(1))),
                            ],
                            vec![],
                        ),
                    ],
                ),
            ],
        ));
        Arc::new(m.compile().expect("compile"))
    }

    fn session(program: &Arc<jbc::Program>, session_id: u64, tamper: &[usize]) -> AuditJob {
        let rec = record(
            Arc::clone(program),
            machine::MachineConfig::sanity(),
            vm::VmConfig::default(),
            1000 + session_id,
            |vm| {
                for k in 0..3u64 {
                    let data = vec![(10 + k * 3) as u8; 64];
                    vm.machine_mut().deliver_packet(100_000 + k * 400_000, data);
                }
            },
        )
        .expect("record");
        let mut observed = rec.tx_ipds_cycles();
        for &t in tamper {
            observed[t] += observed[t] / 5;
        }
        AuditJob {
            session_id,
            log: rec.log,
            observed_ipds: observed,
        }
    }

    /// Sessions `0..n`; every id ≡ 2 (mod 3) is tampered (see [`covert_ids`]).
    fn mixed_jobs(program: &Arc<jbc::Program>, n: u64) -> Vec<AuditJob> {
        (0..n)
            .map(|id| {
                if id % 3 == 2 {
                    session(program, id, &[1])
                } else {
                    session(program, id, &[])
                }
            })
            .collect()
    }

    /// The tampered session ids of a [`mixed_jobs`] batch.
    fn covert_ids(jobs: &[AuditJob]) -> Vec<u64> {
        jobs.iter()
            .map(|j| j.session_id)
            .filter(|id| id % 3 == 2)
            .collect()
    }

    /// Audit `jobs` on a fresh service built from `cfg`, then shut it down.
    fn one_shot(reference: &Reference, jobs: &[AuditJob], cfg: AuditConfig) -> BatchReport {
        let service = AuditService::builder(reference.clone())
            .config(cfg)
            .build()
            .expect("builds");
        let report = service
            .submit_batch(jobs)
            .wait()
            .expect("jobs never fail ingest");
        service.shutdown();
        report
    }

    /// Submit `jobs` as an encoded TDRB stream.
    fn submit_tdrb(service: &AuditService, jobs: &[AuditJob]) -> BatchTicket {
        let bytes = crate::ingest::encode_batch(jobs);
        service
            .submit(Sessions::tdrb(io::Cursor::new(bytes)), None)
            .expect("header ok")
    }

    #[test]
    fn builder_rejects_zero_workers_and_high_water() {
        let reference = Reference::new(echo_program(1));
        assert_eq!(
            AuditService::builder(reference.clone())
                .workers(0)
                .build()
                .err(),
            Some(ConfigError::ZeroWorkers)
        );
        assert_eq!(
            AuditService::builder(reference.clone())
                .high_water(0)
                .build()
                .err(),
            Some(ConfigError::ZeroHighWater)
        );
        assert_eq!(
            AuditService::builder(reference.clone())
                .battery(BatteryMode::Full)
                .build()
                .err(),
            Some(ConfigError::MissingBattery),
            "Full battery mode without a battery is a build error"
        );
        assert_eq!(
            AuditService::builder(reference)
                .retrain_on_clean(true)
                .build()
                .err(),
            Some(ConfigError::MissingBattery),
            "retraining needs a battery to retrain"
        );
    }

    #[test]
    fn warm_service_resubmission_matches_one_shot() {
        let program = echo_program(3);
        let reference = Reference::new(Arc::clone(&program));
        let jobs_a = mixed_jobs(&program, 5);
        let jobs_b: Vec<AuditJob> = mixed_jobs(&program, 8).split_off(5);

        let cfg = AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        };
        let service = AuditService::builder(reference.clone())
            .config(cfg)
            .build()
            .expect("builds");
        let warm_a = service
            .submit_batch(&jobs_a)
            .wait()
            .expect("batch never fails ingest");
        let warm_b = service
            .submit_batch(&jobs_b)
            .wait()
            .expect("batch never fails ingest");
        assert_eq!(service.batches_submitted(), 2);
        assert_eq!(
            service.sessions_audited(),
            (jobs_a.len() + jobs_b.len()) as u64
        );
        service.shutdown();

        let cold_a = one_shot(&reference, &jobs_a, cfg);
        let cold_b = one_shot(&reference, &jobs_b, cfg);
        assert_eq!(warm_a, cold_a, "first warm batch == fresh service");
        assert_eq!(warm_b, cold_b, "second warm batch == fresh service");
    }

    #[test]
    fn dropping_a_ticket_cancels_and_leaves_the_service_usable() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 12);
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(1)
            .build()
            .expect("builds");
        // Cancel immediately: most of the 12 sessions should be skipped
        // (scheduling-dependent, so only the upper bound is asserted).
        drop(service.submit_batch(&jobs));
        let report = service
            .submit_batch(&jobs[..3])
            .wait()
            .expect("post-cancel submission audits");
        assert_eq!(report.verdicts.len(), 3);
        assert!(
            service.sessions_audited() <= (jobs.len() + 3) as u64,
            "cancelled sessions are not audited twice"
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_with_inflight_ticket_drains_it() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 6);
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(2)
            .build()
            .expect("builds");
        let baseline = one_shot(
            &Reference::new(Arc::clone(&program)),
            &jobs,
            *service.config(),
        );
        let ticket = service.submit_batch(&jobs);
        // Shut down with the whole batch in flight: graceful shutdown
        // drains the queue, so the ticket still completes in full.
        service.shutdown();
        let report = ticket.wait().expect("inflight batch drains");
        assert_eq!(report.verdicts.len(), jobs.len());
        assert_eq!(report.summary, baseline.summary);
    }

    #[test]
    fn stream_submission_over_reader_matches_batch() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 6);
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(2)
            .high_water(3)
            .build()
            .expect("builds");
        let batch = service.submit_batch(&jobs).wait().expect("batch");
        let stream = submit_tdrb(&service, &jobs).wait().expect("stream audits");
        assert_eq!(stream.verdicts, batch.verdicts);
        assert_eq!(stream.summary, batch.summary);
        assert!(stream.peak_resident <= 3);
        service.shutdown();
    }

    #[test]
    fn retrain_on_clean_publishes_a_new_battery_generation() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 6);
        let clean_traces: Vec<Vec<u64>> = jobs
            .iter()
            .filter(|j| j.session_id % 3 != 2)
            .map(|j| j.observed_ipds.clone())
            .collect();
        let battery = DetectorBattery::trained(&clean_traces);
        let before_traces = battery.training_traces();
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .trained_battery(battery)
            .battery(BatteryMode::Full)
            .workers(2)
            .retrain_on_clean(true)
            .build()
            .expect("builds");
        let initial = service.battery().expect("battery attached");
        let report = service.submit_batch(&jobs).wait().expect("audits");
        let clean = report.verdicts.iter().filter(|v| !v.flagged).count();
        assert!(clean > 0, "fixture has clean sessions");
        let after = service.battery().expect("battery still attached");
        assert!(
            !Arc::ptr_eq(&initial, &after),
            "clean absorption publishes a new generation"
        );
        assert_eq!(
            after.training_traces(),
            before_traces + clean,
            "one absorbed trace per clean verdict"
        );
        // The generation publish left its drift fingerprint: generation
        // counter, mean ≤ max drift, and a RetrainPublish trace event
        // naming the generation and absorbed-trace count.
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("retrain_generations"), 1);
        let mean = snap.float_gauge("retrain_drift_mean");
        let max = snap.float_gauge("retrain_drift_max");
        assert!(
            mean >= 0.0 && max >= mean,
            "drift stats ordered: {mean} {max}"
        );
        assert!(service
            .trace_events()
            .iter()
            .any(|e| e.kind == TraceKind::RetrainPublish && e.a == 1 && e.b == clean as u64));
        service.shutdown();
    }

    #[test]
    fn duplex_moves_bytes_both_ways_and_eofs_on_drop() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").expect("write");
        a.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"pong");
        drop(b);
        assert_eq!(a.read(&mut buf).expect("eof"), 0, "peer drop is EOF");
        assert!(a.write_all(b"x").is_err(), "peer drop breaks the pipe");
    }

    #[test]
    fn serve_rejects_response_frames_as_requests() {
        let program = echo_program(1);
        let service = AuditService::builder(Reference::new(program))
            .workers(1)
            .build()
            .expect("builds");
        let request = ControlFrame::ShutdownAck.encode();
        let mut responses = Vec::new();
        let got = service.serve(&request[..], &mut responses);
        assert_eq!(got, Err(ControlError::UnexpectedFrame("ShutdownAck")));
        service.shutdown();
    }

    #[test]
    fn serve_answers_shutdown_and_clean_eof() {
        let program = echo_program(1);
        let service = AuditService::builder(Reference::new(program))
            .workers(1)
            .build()
            .expect("builds");
        // Clean EOF: no frames at all.
        let mut responses = Vec::new();
        service.serve(&[][..], &mut responses).expect("clean eof");
        assert!(responses.is_empty());
        // Shutdown: one ack, then the loop returns.
        let request = ControlFrame::Shutdown.encode();
        let mut responses = Vec::new();
        service
            .serve(&request[..], &mut responses)
            .expect("shutdown handled");
        let ack = ControlFrame::read_from(&mut &responses[..])
            .expect("decodes")
            .expect("one frame");
        assert_eq!(ack, ControlFrame::ShutdownAck);
        service.shutdown();
    }

    #[test]
    fn serve_answers_stats_requests_with_a_live_snapshot() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 3);
        let tdrb = crate::ingest::encode_batch(&jobs);
        let service = AuditService::builder(Reference::new(program))
            .workers(2)
            .build()
            .expect("builds");
        let mut requests = Vec::new();
        ControlFrame::StatsRequest
            .write_to(&mut requests)
            .expect("encode");
        ControlFrame::SubmitBatch {
            batch_id: 1,
            tdrb,
            reference: None,
        }
        .write_to(&mut requests)
        .expect("encode");
        ControlFrame::StatsRequest
            .write_to(&mut requests)
            .expect("encode");
        ControlFrame::Shutdown
            .write_to(&mut requests)
            .expect("encode");
        let mut responses = Vec::new();
        service
            .serve(&requests[..], &mut responses)
            .expect("protocol stays clean");

        let mut frames = Vec::new();
        let mut src = &responses[..];
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            frames.push(frame);
        }
        // First frame: a snapshot from before any submission.
        let ControlFrame::Stats { snapshot: first } = &frames[0] else {
            panic!("first response is Stats, got {frames:?}");
        };
        assert_eq!(first.counter("sessions_audited"), 0);
        assert_eq!(first.counter("frames_in_stats_request"), 1);
        // Last two frames: the post-batch snapshot (serve_batch drains the
        // ticket before the next request, so every session is audited by
        // the time the second StatsRequest is read) and the shutdown ack.
        let ControlFrame::Stats { snapshot: second } = &frames[frames.len() - 2] else {
            panic!("penultimate response is Stats, got {frames:?}");
        };
        assert_eq!(second.counter("sessions_audited"), 3);
        assert_eq!(second.counter("sessions_submitted"), 3);
        assert_eq!(second.counter("batches_submitted"), 1);
        assert_eq!(second.counter("batches_completed"), 1);
        assert_eq!(second.counter("frames_in_submit_batch"), 1);
        assert_eq!(second.counter("frames_out_verdict"), 3);
        assert_eq!(second.counter("frames_out_summary"), 1);
        assert_eq!(second.gauge("queue_depth"), 0);
        assert_eq!(second.gauge("in_flight_jobs"), 0);
        assert!(second.float_gauge("uptime_seconds") >= 0.0);
        assert_eq!(frames[frames.len() - 1], ControlFrame::ShutdownAck);

        // The service-side accessors agree with the exported snapshot.
        assert_eq!(service.sessions_audited(), 3);
        assert_eq!(service.metrics_snapshot().counter("frames_out_stats"), 2);
        service.shutdown();
    }

    #[test]
    fn metrics_ground_truth_and_trace_for_a_batch_submission() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 4);
        let service = AuditService::builder(Reference::new(program))
            .workers(2)
            .build()
            .expect("builds");
        let report = service.submit_batch(&jobs).wait().expect("audits");
        assert_eq!(report.verdicts.len(), 4);

        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("sessions_submitted"), 4);
        assert_eq!(snap.counter("sessions_audited"), 4);
        assert_eq!(snap.counter("batches_submitted"), 1);
        assert_eq!(snap.counter("batches_completed"), 1);
        assert_eq!(snap.counter("batch_errors"), 0);
        assert_eq!(snap.gauge("queue_depth"), 0, "all jobs dequeued");
        assert_eq!(snap.gauge("in_flight_jobs"), 0, "all audits done");
        assert!(snap.counter("replayed_cycles") > 0, "replay cost recorded");
        assert!(snap.counter("worker_busy_nanos") > 0);
        let latency = &snap.histograms["verdict_latency_us"];
        assert_eq!(latency.total, 4, "one latency observation per session");
        let batch_sessions = &snap.histograms["batch_sessions"];
        assert_eq!(batch_sessions.total, 1);

        // The trace ring saw the submission lifecycle, stamped with the
        // 1-based batch sequence number.
        let events = service.trace_events();
        assert!(events
            .iter()
            .any(|e| e.kind == TraceKind::BatchSubmit && e.a == 1 && e.b == 4));
        assert!(events
            .iter()
            .any(|e| e.kind == TraceKind::BatchComplete && e.a == 1 && e.b == 4));
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "trace seq is strictly increasing"
        );
        service.shutdown();
    }

    #[test]
    fn serve_classifies_read_deadline_errors_as_idle_timeout() {
        /// A transport whose read stalls forever — as seen through a
        /// socket read timeout: `WouldBlock`.
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out"))
            }
        }
        let program = echo_program(1);
        let service = AuditService::builder(Reference::new(program))
            .workers(1)
            .build()
            .expect("builds");
        let mut responses = Vec::new();
        let got = service.serve(Stalled, &mut responses);
        assert_eq!(got, Err(ControlError::IdleTimeout));
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("control_errors"), 1);
        assert_eq!(snap.counter("control_err_idle_timeout"), 1);
        service.shutdown();
    }

    #[test]
    fn serve_reports_bad_batches_in_band_and_stays_up() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 4);
        let mut bad = crate::ingest::encode_batch(&jobs);
        let n = bad.len();
        bad[n - 10] ^= 0xff; // corrupt the last session's log frame
        let good = crate::ingest::encode_batch(&jobs);

        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(2)
            .build()
            .expect("builds");
        let mut requests = Vec::new();
        ControlFrame::SubmitBatch {
            batch_id: 1,
            tdrb: bad,
            reference: None,
        }
        .write_to(&mut requests)
        .expect("encode");
        ControlFrame::SubmitBatch {
            batch_id: 2,
            tdrb: good,
            reference: None,
        }
        .write_to(&mut requests)
        .expect("encode");
        let mut responses = Vec::new();
        service
            .serve(&requests[..], &mut responses)
            .expect("protocol stays clean");

        let mut frames = Vec::new();
        let mut src = &responses[..];
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            frames.push(frame);
        }
        // Batch 1: three clean verdicts stream out, then the in-band error
        // for the corrupted fourth session. Batch 2: four verdicts and a
        // summary — the daemon survived the bad batch.
        assert!(frames
            .iter()
            .any(|f| matches!(f, ControlFrame::Error { batch_id: 1, .. })));
        let summaries: Vec<_> = frames
            .iter()
            .filter(|f| matches!(f, ControlFrame::Summary { batch_id: 2, .. }))
            .collect();
        assert_eq!(summaries.len(), 1);
        let verdicts_2 = frames
            .iter()
            .filter(|f| matches!(f, ControlFrame::Verdict { batch_id: 2, .. }))
            .count();
        assert_eq!(verdicts_2, jobs.len());
        service.shutdown();
    }

    /// A bare work item for queue-ordering tests: a real recorded job (the
    /// queue moves items, it never audits them here), no gate, no battery.
    fn queue_item(
        job: &AuditJob,
        tenant: u64,
        index: usize,
        sink: &mpsc::Sender<(usize, AuditVerdict)>,
    ) -> WorkItem {
        WorkItem {
            index,
            source: JobSource::Owned(Box::new(job.clone())),
            battery: None,
            reference: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            gate: None,
            sink: sink.clone(),
            tenant,
            tenant_depth: None,
        }
    }

    #[test]
    fn work_queue_round_robins_across_tenants_fifo_within() {
        let program = echo_program(3);
        let job = session(&program, 0, &[]);
        let (sink, _rx) = mpsc::channel();
        let queue = WorkQueue::new();
        // Tenant 1 floods three items before tenants 2 and 3 enqueue one
        // each; DRR must interleave, not serve tenant 1's backlog first.
        for (tenant, index) in [(1, 0), (1, 1), (1, 2), (2, 3), (3, 4)] {
            assert!(queue.push(queue_item(&job, tenant, index, &sink)).is_ok());
        }
        let mut order = Vec::new();
        while let Popped::Item(item) = queue.try_pop() {
            order.push((item.tenant, item.index));
        }
        assert_eq!(
            order,
            vec![(1, 0), (2, 3), (3, 4), (1, 1), (1, 2)],
            "one job per tenant per round, FIFO within a tenant"
        );
    }

    #[test]
    fn work_queue_drains_after_close_then_reports_closed() {
        let program = echo_program(3);
        let job = session(&program, 0, &[]);
        let (sink, _rx) = mpsc::channel();
        let queue = WorkQueue::new();
        assert!(queue.push(queue_item(&job, 1, 0, &sink)).is_ok());
        assert!(queue.push(queue_item(&job, 2, 1, &sink)).is_ok());
        queue.close();
        assert!(
            queue.push(queue_item(&job, 3, 2, &sink)).is_err(),
            "closed queue rejects new work"
        );
        assert!(matches!(queue.try_pop(), Popped::Item(_)));
        assert!(queue.pop_wait().is_some(), "queued items drain after close");
        assert!(matches!(queue.try_pop(), Popped::Closed));
        assert!(queue.pop_wait().is_none());
    }

    #[test]
    fn serve_enforces_tenant_quota_in_band_and_stays_up() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 3);
        let oversized = crate::ingest::encode_batch(&jobs); // declares 3
        let small = crate::ingest::encode_batch(&jobs[..2]); // declares 2
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(2)
            .build()
            .expect("builds");
        let quota = TenantQuota {
            max_sessions: 2,
            max_batches: 2,
        };
        let mut requests = Vec::new();
        for (batch_id, tdrb) in [
            (1, oversized.clone()),
            (2, small.clone()),
            (3, small.clone()),
            (4, small.clone()),
        ] {
            ControlFrame::SubmitBatch {
                batch_id,
                tdrb,
                reference: None,
            }
            .write_to(&mut requests)
            .expect("encode");
        }
        ControlFrame::Shutdown
            .write_to(&mut requests)
            .expect("encode");
        let mut responses = Vec::new();
        service
            .serve_as_tenant(&requests[..], &mut responses, 7, Some(quota))
            .expect("quota refusals are in-band, not protocol errors");

        let mut frames = Vec::new();
        let mut src = &responses[..];
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            frames.push(frame);
        }
        // Batch 1 declares 3 > max_sessions: refused before any decode.
        assert_eq!(
            frames[0],
            ControlFrame::Busy {
                batch_id: 1,
                scope: BusyScope::InFlightSessions,
                active: 3,
                limit: 2,
            }
        );
        // Batches 2 and 3 fit and audit in full.
        for id in [2u64, 3] {
            assert_eq!(
                frames
                    .iter()
                    .filter(
                        |f| matches!(f, ControlFrame::Verdict { batch_id, .. } if *batch_id == id)
                    )
                    .count(),
                2
            );
            assert!(frames
                .iter()
                .any(|f| matches!(f, ControlFrame::Summary { batch_id, .. } if *batch_id == id)));
        }
        // Batch 4 exceeds the lifetime batch budget; refusals consumed
        // none of it (batch 1's rejection did not count).
        assert!(frames.contains(&ControlFrame::Busy {
            batch_id: 4,
            scope: BusyScope::QueuedBatches,
            active: 2,
            limit: 2,
        }));
        assert_eq!(*frames.last().expect("ack"), ControlFrame::ShutdownAck);

        // Per-tenant and global governance counters match ground truth.
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("quota_rejections"), 2);
        assert_eq!(snap.counter("frames_out_busy"), 2);
        assert_eq!(snap.counter("tenant_7_sessions"), 4);
        assert_eq!(snap.counter("tenant_7_rejected"), 2);
        assert_eq!(snap.gauge("tenant_7_queue_depth"), 0);
        assert!(service
            .trace_events()
            .iter()
            .any(|e| e.kind == TraceKind::QuotaReject && e.a == 7 && e.b == 1));
        service.shutdown();
    }

    #[test]
    fn serve_counts_only_frames_actually_written() {
        /// A transport that takes `ok` frame writes, then fails every
        /// write after (a peer that vanished before the Summary).
        struct FailAfter {
            ok: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.ok == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"));
                }
                self.ok -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 3);
        let service = AuditService::builder(Reference::new(program))
            .workers(2)
            .build()
            .expect("builds");
        let request = ControlFrame::SubmitBatch {
            batch_id: 1,
            tdrb: crate::ingest::encode_batch(&jobs),
            reference: None,
        }
        .encode();
        // Every verdict frame goes through; the Summary write fails.
        let got = service.serve(&request[..], FailAfter { ok: jobs.len() });
        assert!(matches!(got, Err(ControlError::Io(..))), "{got:?}");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("frames_out"), jobs.len() as u64);
        assert_eq!(snap.counter("frames_out_verdict"), jobs.len() as u64);
        assert_eq!(snap.counter("frames_out_summary"), 0);
        service.shutdown();
    }

    #[test]
    fn batch_flags_exactly_the_tampered_sessions() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 8);
        let cfg = AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        };
        let report = one_shot(&Reference::new(program), &jobs, cfg);
        assert_eq!(report.summary.flagged, covert_ids(&jobs));
        assert_eq!(report.summary.errors, 0);
        assert_eq!(report.summary.sessions, jobs.len() as u64);
    }

    #[test]
    fn verdicts_independent_of_worker_count() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 8);
        let reference = Reference::new(program);
        let base = AuditConfig::default();
        let one = one_shot(&reference, &jobs, AuditConfig { workers: 1, ..base });
        let four = one_shot(&reference, &jobs, AuditConfig { workers: 4, ..base });
        assert_eq!(one.verdicts, four.verdicts);
        assert_eq!(one.summary, four.summary);
        assert_eq!(one.workers, 1);
    }

    #[test]
    fn verdicts_independent_of_submission_order() {
        let program = echo_program(3);
        let mut jobs = mixed_jobs(&program, 8);
        let service = AuditService::builder(Reference::new(program))
            .workers(2)
            .build()
            .expect("builds");
        let forward = service.submit_batch(&jobs).wait().expect("audits");
        jobs.reverse();
        let backward = service.submit_batch(&jobs).wait().expect("audits");
        let mut f = forward.verdicts.clone();
        let mut b = backward.verdicts.clone();
        f.sort_by_key(|v| v.session_id);
        b.sort_by_key(|v| v.session_id);
        assert_eq!(f, b);
        assert_eq!(forward.summary, backward.summary);
        service.shutdown();
    }

    #[test]
    fn streaming_sees_every_verdict_once() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 8);
        let service = AuditService::builder(Reference::new(program))
            .workers(3)
            .build()
            .expect("builds");
        let mut ticket = service.submit_batch(&jobs);
        let mut seen = vec![0u32; jobs.len()];
        while let Some((i, v)) = ticket.recv() {
            seen[i] += 1;
            assert_eq!(v.session_id, jobs[i].session_id);
        }
        let report = ticket.wait().expect("jobs never fail ingest");
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        assert_eq!(report.verdicts.len(), jobs.len());
        service.shutdown();
    }

    #[test]
    fn suppressed_output_scores_maximal() {
        let program = echo_program(3);
        let mut job = session(&program, 0, &[]);
        // The suspect machine sent one packet fewer than it should have
        // (e.g. a channel encoding in packet *presence*): the IPD count no
        // longer matches the reference, which is maximal evidence.
        job.observed_ipds.pop();
        let cfg = AuditConfig {
            workers: 1,
            ..AuditConfig::default()
        };
        let report = one_shot(&Reference::new(program), &[job], cfg);
        let v = &report.verdicts[0];
        assert_eq!(v.score, 1.0);
        assert!(v.flagged);
        assert!(v.error.is_none());
    }

    #[test]
    fn empty_batch_is_empty_report() {
        let cfg = AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        };
        let report = one_shot(&Reference::new(echo_program(3)), &[], cfg);
        assert!(report.verdicts.is_empty());
        assert_eq!(report.summary.sessions, 0);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn battery_mode_scores_all_detectors_and_keeps_tdr_bit_identical() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 8);
        let covert = covert_ids(&jobs);
        let clean_traces: Vec<Vec<u64>> = jobs
            .iter()
            .filter(|j| !covert.contains(&j.session_id))
            .map(|j| j.observed_ipds.clone())
            .collect();

        let plain = Reference::new(Arc::clone(&program));
        let with_battery = Reference::new(Arc::clone(&program))
            .with_battery(DetectorBattery::trained(&clean_traces));

        let base = AuditConfig {
            workers: 3,
            ..AuditConfig::default()
        };
        let full_cfg = AuditConfig {
            battery: BatteryMode::Full,
            ..base
        };
        let tdr_only = one_shot(&plain, &jobs, base);
        let full = one_shot(&with_battery, &jobs, full_cfg);

        assert_eq!(full.summary.flagged, covert);
        for (a, b) in tdr_only.verdicts.iter().zip(&full.verdicts) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "battery must not perturb the TDR score"
            );
            assert_eq!(a.flagged, b.flagged);
            assert!(a.detector_scores.is_empty());
            assert_eq!(b.detector_scores.len(), 5);
            assert_eq!(b.detector_scores["Sanity"].to_bits(), b.score.to_bits());
        }
        assert_eq!(full.summary.detector_stats.len(), 5);

        // The streamed path agrees byte-for-byte.
        let service = AuditService::builder(with_battery)
            .config(full_cfg)
            .build()
            .expect("builds");
        let stream = submit_tdrb(&service, &jobs).wait().expect("clean stream");
        assert_eq!(stream.verdicts, full.verdicts);
        assert_eq!(stream.summary, full.summary);
        service.shutdown();
    }

    #[test]
    fn stream_respects_tiny_high_water_mark() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 8);
        let service = AuditService::builder(Reference::new(program))
            .workers(3)
            .high_water(1)
            .build()
            .expect("builds");
        let report = submit_tdrb(&service, &jobs).wait().expect("clean stream");
        assert_eq!(report.peak_resident, 1, "one session resident at a time");
        assert_eq!(report.workers, 1, "workers capped by residency slots");
        assert_eq!(report.verdicts.len(), jobs.len());
        service.shutdown();
    }

    #[test]
    fn stream_error_aborts_and_stops_pulling() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 6);
        let mut bytes = crate::ingest::encode_batch(&jobs);
        // Corrupt the fourth session's log frame (its CRC no longer matches).
        let fourth_end = crate::ingest::encode_batch(&jobs[..4]).len();
        bytes[fourth_end - 10] ^= 0xff;
        let service = AuditService::builder(Reference::new(program))
            .workers(2)
            .build()
            .expect("builds");
        let mut ticket = service
            .submit(Sessions::tdrb(io::Cursor::new(bytes)), None)
            .expect("batch header ok");
        let mut delivered = 0;
        while ticket.recv().is_some() {
            delivered += 1;
        }
        let got = ticket.wait();
        assert!(
            matches!(got, Err(IngestError::BadSession { index: 3, .. })),
            "{got:?}"
        );
        assert_eq!(delivered, 3, "sessions before the bad one still audit");
        assert_eq!(
            service.metrics_snapshot().counter("sessions_submitted"),
            3,
            "nothing pulled past the malformed session"
        );
        service.shutdown();
    }

    #[test]
    fn empty_stream_is_empty_report() {
        let service = AuditService::builder(Reference::new(echo_program(3)))
            .workers(1)
            .build()
            .expect("builds");
        let report = submit_tdrb(&service, &[]).wait().expect("empty stream");
        assert!(report.verdicts.is_empty());
        assert_eq!(report.summary.sessions, 0);
        assert_eq!(report.peak_resident, 0);
        service.shutdown();
    }
}
