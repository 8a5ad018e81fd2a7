//! Observability: a zero-dependency metrics registry and event-trace ring
//! for the audit pipeline.
//!
//! The daemon audits machines an operator does not fully trust; this
//! module makes the daemon itself auditable. Three pieces:
//!
//! * **Handles** — [`Counter`], [`Gauge`], [`FloatGauge`], [`Histogram`]:
//!   lock-free atomic recording on the hot paths (one `fetch_add` per
//!   event, no mutex, no allocation). Registration is the only locked
//!   operation and happens once per name.
//! * **[`MetricsRegistry`] / [`MetricsSnapshot`]** — a named catalogue of
//!   handles and its point-in-time value capture. The snapshot stores
//!   every family in a `BTreeMap`, so iteration order — and therefore the
//!   TDRC `Stats` wire encoding built from it (`docs/FORMATS.md` §5.5) —
//!   is a pure function of the snapshot's *values*: equal snapshots
//!   serialize bit-identically, on any host, in any run.
//! * **[`TraceRing`]** — a bounded per-service ring of structured
//!   lifecycle events ([`TraceEvent`]: connection accept/close, batch
//!   submit/complete, worker park/unpark, retrain publish, errors) with
//!   monotonic nanosecond timestamps.
//!
//! ## The determinism boundary
//!
//! The pipeline pins verdict bytes and fleet summaries bit-identical
//! across transports and worker counts; metrics must not blur that line.
//! The rule: **counters derived from audited work** (sessions, batches,
//! frames, replayed cycles) are deterministic for a given workload, while
//! **wall-clock-valued metrics** (latency histograms, busy time,
//! `uptime_seconds`, trace-event timestamps) are measurement, not
//! evidence. Snapshots carry both, but determinism-pinned artifacts —
//! verdict frames, summaries, `BENCH_*.json` acceptance asserts — only
//! ever compare the deterministic counters; trace timestamps never leave
//! the process on the control plane at all (the ring is accessible only
//! in-process, e.g. [`crate::AuditService::trace_events`]).

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one; returns the new value (usable as a 1-based sequence id).
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, live connections, peak residency).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Raise the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower the level by one. Callers order their inc/dec pairs so the
    /// level never goes below zero (e.g. a queue gauge is raised *before*
    /// enqueue and lowered *after* dequeue); a violation would wrap and
    /// is loud rather than silent.
    pub fn dec(&self) {
        let prev = self.0.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "gauge underflow");
    }

    /// Set the level outright.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the level to `v` if it is below (high-water tracking).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an `f64` (stored as its IEEE-754 bit pattern, so the
/// value read back is bit-identical to the value stored).
#[derive(Debug)]
pub struct FloatGauge(AtomicU64);

impl Default for FloatGauge {
    fn default() -> Self {
        FloatGauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl FloatGauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: `edges.len() + 1` buckets, where bucket `i`
/// counts observations `v <= edges[i]` (and the last bucket is overflow).
/// Recording is one atomic add on the bucket plus total/sum upkeep; the
/// edges are fixed at registration.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    buckets: Vec<AtomicU64>,
    total: AtomicU64,
    /// Running sum of observed values, as f64 bits updated by CAS — the
    /// histogram stays lock-free even for the floating-point accumulator.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(edges: &[f64]) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let slot = self
            .edges
            .iter()
            .position(|&edge| v <= edge)
            .unwrap_or(self.edges.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Observations recorded so far.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            total: self.total.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry and snapshot
// ---------------------------------------------------------------------------

/// A named catalogue of metric handles.
///
/// `counter`/`gauge`/`float_gauge`/`histogram` get-or-register by name:
/// the first call creates the handle, later calls return the same one
/// (for histograms, with the same edges — re-registering with different
/// edges is a programming error and panics). Registration takes a mutex;
/// recording through the returned [`Arc`]'d handle never does.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    float_gauges: Mutex<BTreeMap<String, Arc<FloatGauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry lock");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry lock");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Get or register the float gauge `name`.
    pub fn float_gauge(&self, name: &str) -> Arc<FloatGauge> {
        let mut map = self.float_gauges.lock().expect("metrics registry lock");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(FloatGauge::default())),
        )
    }

    /// Get or register the histogram `name` with the given bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with different edges.
    pub fn histogram(&self, name: &str, edges: &[f64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry lock");
        let h = Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(edges))),
        );
        assert_eq!(
            h.edges, edges,
            "histogram {name:?} re-registered with different edges"
        );
        h
    }

    /// Capture every registered metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics registry lock")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics registry lock")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            float_gauges: self
                .float_gauges
                .lock()
                .expect("metrics registry lock")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics registry lock")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// One histogram's captured state (see [`Histogram`]): `counts.len() ==
/// edges.len() + 1`, the last count being the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket edges, strictly increasing.
    pub edges: Vec<f64>,
    /// Per-bucket observation counts (one more than `edges`).
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// A point-in-time capture of a [`MetricsRegistry`].
///
/// Every family is a `BTreeMap`, so iteration — and the TDRC `Stats`
/// frame body built from it — is deterministically ordered by name: two
/// equal snapshots encode to bit-identical bytes. Values themselves split
/// into deterministic counts and wall-clock measurements; see the
/// [module docs](self) for which is which.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Float gauges by name.
    pub float_gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter `name`, or 0 if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge `name`, or 0 if it was never registered.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The float gauge `name`, or 0.0 if it was never registered.
    pub fn float_gauge(&self, name: &str) -> f64 {
        self.float_gauges.get(name).copied().unwrap_or(0.0)
    }

    /// A multi-line human-readable rendering (the `tdrd --stats` output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !self.float_gauges.is_empty() {
            out.push_str("float gauges:\n");
            for (name, v) in &self.float_gauges {
                let _ = writeln!(out, "  {name} = {v:.6}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: total {} sum {:.1} counts {:?} (edges {:?})",
                    h.total, h.sum, h.counts, h.edges
                );
            }
        }
        out
    }

    /// A one-line curated rendering (the `tdrd --stats-interval` line).
    pub fn render_line(&self) -> String {
        format!(
            "up={:.1}s conn_active={} conn_accepted={} conn_errors={} \
             sessions={}/{} batches={}/{} queue_depth={} in_flight={}",
            self.float_gauge("uptime_seconds"),
            self.gauge("conn_active"),
            self.counter("conn_accepted"),
            self.counter("conn_errors"),
            self.counter("sessions_audited"),
            self.counter("sessions_submitted"),
            self.counter("batches_completed"),
            self.counter("batches_submitted"),
            self.gauge("queue_depth"),
            self.gauge("in_flight_jobs"),
        )
    }
}

// ---------------------------------------------------------------------------
// Event-trace ring
// ---------------------------------------------------------------------------

/// A lifecycle event kind (see [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A TCP connection was accepted (`a` = connection id).
    ConnAccept,
    /// A serve loop ended cleanly (`a` = connection id).
    ConnClose,
    /// A serve loop ended with a typed error (`a` = connection id).
    ConnError,
    /// A connection exceeded the idle timeout (`a` = connection id).
    ConnIdleTimeout,
    /// A batch was submitted (`a` = batch sequence, `b` = sessions, 0
    /// when unknown at submission — streamed batches).
    BatchSubmit,
    /// A batch completed (`a` = batch sequence, `b` = sessions audited).
    BatchComplete,
    /// A batch ended in an ingest error (`a` = batch sequence).
    BatchError,
    /// A worker found the queue empty and blocked (`a` = worker index).
    WorkerPark,
    /// A parked worker woke with work or shutdown (`a` = worker index).
    WorkerUnpark,
    /// Cross-batch retraining published a new battery generation
    /// (`a` = generation, `b` = clean traces absorbed).
    RetrainPublish,
    /// An accept was shed at the connection cap (`a` = connections
    /// active at the shed, `b` = the cap).
    ConnShed,
    /// A submission was refused by a tenant quota (`a` = tenant id,
    /// `b` = the refused batch id).
    QuotaReject,
}

/// One structured lifecycle event.
///
/// `at_nanos` is monotonic time since the owning service's construction —
/// wall-clock-domain measurement that never enters a determinism-pinned
/// artifact (the ring is in-process only; the `Stats` wire frame carries
/// the metrics snapshot, not trace events).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// 1-based sequence number (gapless across the service lifetime, so
    /// `seq` minus the ring length reveals how many events were evicted).
    pub seq: u64,
    /// Monotonic nanoseconds since service construction.
    pub at_nanos: u64,
    /// What happened.
    pub kind: TraceKind,
    /// First argument (meaning per [`TraceKind`]).
    pub a: u64,
    /// Second argument (meaning per [`TraceKind`]).
    pub b: u64,
}

#[derive(Debug, Default)]
struct RingState {
    buf: VecDeque<TraceEvent>,
    next_seq: u64,
}

/// A bounded ring of [`TraceEvent`]s: recording evicts the oldest event
/// once the capacity is reached, so a long-lived daemon holds the most
/// recent window, never an unbounded log.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    epoch: Instant,
    state: Mutex<RingState>,
}

/// Default [`TraceRing`] capacity.
pub const DEFAULT_TRACE_CAP: usize = 1024;

impl TraceRing {
    /// A ring holding at most `cap` events, timestamped relative to now.
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap: cap.max(1),
            epoch: Instant::now(),
            state: Mutex::new(RingState::default()),
        }
    }

    /// Record one event.
    pub fn record(&self, kind: TraceKind, a: u64, b: u64) {
        let at_nanos = self.epoch.elapsed().as_nanos() as u64;
        let mut state = self.state.lock().expect("trace ring lock");
        state.next_seq += 1;
        let seq = state.next_seq;
        if state.buf.len() == self.cap {
            state.buf.pop_front();
        }
        state.buf.push_back(TraceEvent {
            seq,
            at_nanos,
            kind,
            a,
            b,
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state
            .lock()
            .expect("trace ring lock")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Events recorded over the ring's lifetime (≥ retained count).
    pub fn recorded(&self) -> u64 {
        self.state.lock().expect("trace ring lock").next_seq
    }
}

// ---------------------------------------------------------------------------
// Byte-counting transport wrappers
// ---------------------------------------------------------------------------

/// A `Read` adapter adding every byte read to a [`Counter`]
/// (`bytes_in` on the daemon's connections).
#[derive(Debug)]
pub struct CountingRead<R> {
    inner: R,
    counter: Arc<Counter>,
}

impl<R: Read> CountingRead<R> {
    /// Wrap `inner`, counting into `counter`.
    pub fn new(inner: R, counter: Arc<Counter>) -> Self {
        CountingRead { inner, counter }
    }
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counter.add(n as u64);
        Ok(n)
    }
}

/// A `Write` adapter adding every byte written to a [`Counter`]
/// (`bytes_out` on the daemon's connections).
#[derive(Debug)]
pub struct CountingWrite<W> {
    inner: W,
    counter: Arc<Counter>,
}

impl<W: Write> CountingWrite<W> {
    /// Wrap `inner`, counting into `counter`.
    pub fn new(inner: W, counter: Arc<Counter>) -> Self {
        CountingWrite { inner, counter }
    }
}

impl<W: Write> Write for CountingWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counter.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// The service's typed metric set
// ---------------------------------------------------------------------------

/// Upper edges (µs) for the per-verdict wall-clock latency histogram.
pub const VERDICT_LATENCY_EDGES_US: [f64; 10] = [
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
];

/// Upper edges for the sessions-per-batch histogram.
pub const BATCH_SESSIONS_EDGES: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1_024.0];

/// Upper edges for the frames-per-connection histogram.
pub const CONN_FRAMES_EDGES: [f64; 6] = [1.0, 2.0, 4.0, 16.0, 64.0, 256.0];

/// Every metric an [`crate::AuditService`] records, pre-registered as
/// typed handles (so the hot paths never take the registry lock), plus
/// the service's [`TraceRing`].
///
/// One instance per service, shared by its workers, feeders, the serve
/// loops of every connection, and the TCP front end — the single source
/// of truth behind [`crate::AuditService::sessions_audited`],
/// [`crate::net::DaemonReport`], and the TDRC `Stats` frame.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: MetricsRegistry,
    trace: TraceRing,
    epoch: Instant,
    uptime_seconds: Arc<FloatGauge>,

    // service.rs — submission and audit progress
    pub(crate) sessions_submitted: Arc<Counter>,
    pub(crate) sessions_audited: Arc<Counter>,
    pub(crate) sessions_cancelled: Arc<Counter>,
    pub(crate) batches_submitted: Arc<Counter>,
    pub(crate) batches_completed: Arc<Counter>,
    pub(crate) batch_errors: Arc<Counter>,
    pub(crate) replayed_cycles: Arc<Counter>,
    pub(crate) worker_busy_nanos: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) in_flight_jobs: Arc<Gauge>,
    pub(crate) residency_peak: Arc<Gauge>,
    pub(crate) verdict_latency_us: Arc<Histogram>,
    pub(crate) batch_sessions: Arc<Histogram>,

    // retraining
    pub(crate) retrain_generations: Arc<Counter>,
    pub(crate) retrain_drift_mean: Arc<FloatGauge>,
    pub(crate) retrain_drift_max: Arc<FloatGauge>,

    // net.rs — connection lifecycle
    pub(crate) conn_accepted: Arc<Counter>,
    pub(crate) conn_active: Arc<Gauge>,
    pub(crate) conn_errors: Arc<Counter>,
    pub(crate) conn_idle_timeout: Arc<Counter>,
    pub(crate) conn_shed: Arc<Counter>,
    pub(crate) bytes_in: Arc<Counter>,
    pub(crate) bytes_out: Arc<Counter>,
    pub(crate) conn_frames: Arc<Histogram>,

    // control.rs serve loop — frame traffic
    pub(crate) frames_in: Arc<Counter>,
    pub(crate) frames_out: Arc<Counter>,
    pub(crate) frames_in_submit_batch: Arc<Counter>,
    pub(crate) frames_in_stats_request: Arc<Counter>,
    pub(crate) frames_in_shutdown: Arc<Counter>,
    pub(crate) frames_in_put_reference: Arc<Counter>,
    pub(crate) frames_in_put_battery: Arc<Counter>,
    pub(crate) frames_out_verdict: Arc<Counter>,
    pub(crate) frames_out_summary: Arc<Counter>,
    pub(crate) frames_out_error: Arc<Counter>,
    pub(crate) frames_out_shutdown_ack: Arc<Counter>,
    pub(crate) frames_out_stats: Arc<Counter>,
    pub(crate) frames_out_busy: Arc<Counter>,
    pub(crate) frames_out_reference_ack: Arc<Counter>,
    pub(crate) frames_out_battery_ack: Arc<Counter>,
    pub(crate) quota_rejections: Arc<Counter>,
    pub(crate) control_errors: Arc<Counter>,

    // registry.rs — reference-program registry
    pub(crate) registry_loads: Arc<Counter>,
    pub(crate) registry_verify_failures: Arc<Counter>,
    pub(crate) registry_hits: Arc<Counter>,
    pub(crate) registry_misses: Arc<Counter>,
    pub(crate) registry_evictions: Arc<Counter>,
    pub(crate) registry_resident_bytes: Arc<Gauge>,
    pub(crate) registry_references: Arc<Gauge>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// A fresh metric set with every service metric pre-registered (so a
    /// snapshot names them all from the start, at zero).
    pub fn new() -> Self {
        let r = MetricsRegistry::new();
        // Counted by the TCP listener harness (`net.rs`), named here so
        // every snapshot carries it.
        r.counter("conn_reaped");
        ServiceMetrics {
            uptime_seconds: r.float_gauge("uptime_seconds"),
            sessions_submitted: r.counter("sessions_submitted"),
            sessions_audited: r.counter("sessions_audited"),
            sessions_cancelled: r.counter("sessions_cancelled"),
            batches_submitted: r.counter("batches_submitted"),
            batches_completed: r.counter("batches_completed"),
            batch_errors: r.counter("batch_errors"),
            replayed_cycles: r.counter("replayed_cycles"),
            worker_busy_nanos: r.counter("worker_busy_nanos"),
            queue_depth: r.gauge("queue_depth"),
            in_flight_jobs: r.gauge("in_flight_jobs"),
            residency_peak: r.gauge("residency_peak"),
            verdict_latency_us: r.histogram("verdict_latency_us", &VERDICT_LATENCY_EDGES_US),
            batch_sessions: r.histogram("batch_sessions", &BATCH_SESSIONS_EDGES),
            retrain_generations: r.counter("retrain_generations"),
            retrain_drift_mean: r.float_gauge("retrain_drift_mean"),
            retrain_drift_max: r.float_gauge("retrain_drift_max"),
            conn_accepted: r.counter("conn_accepted"),
            conn_active: r.gauge("conn_active"),
            conn_errors: r.counter("conn_errors"),
            conn_idle_timeout: r.counter("conn_idle_timeout"),
            conn_shed: r.counter("conn_shed"),
            bytes_in: r.counter("bytes_in"),
            bytes_out: r.counter("bytes_out"),
            conn_frames: r.histogram("conn_frames", &CONN_FRAMES_EDGES),
            frames_in: r.counter("frames_in"),
            frames_out: r.counter("frames_out"),
            frames_in_submit_batch: r.counter("frames_in_submit_batch"),
            frames_in_stats_request: r.counter("frames_in_stats_request"),
            frames_in_shutdown: r.counter("frames_in_shutdown"),
            frames_in_put_reference: r.counter("frames_in_put_reference"),
            frames_in_put_battery: r.counter("frames_in_put_battery"),
            frames_out_verdict: r.counter("frames_out_verdict"),
            frames_out_summary: r.counter("frames_out_summary"),
            frames_out_error: r.counter("frames_out_error"),
            frames_out_shutdown_ack: r.counter("frames_out_shutdown_ack"),
            frames_out_stats: r.counter("frames_out_stats"),
            frames_out_busy: r.counter("frames_out_busy"),
            frames_out_reference_ack: r.counter("frames_out_reference_ack"),
            frames_out_battery_ack: r.counter("frames_out_battery_ack"),
            quota_rejections: r.counter("quota_rejections"),
            control_errors: r.counter("control_errors"),
            registry_loads: r.counter("registry_loads"),
            registry_verify_failures: r.counter("registry_verify_failures"),
            registry_hits: r.counter("registry_hits"),
            registry_misses: r.counter("registry_misses"),
            registry_evictions: r.counter("registry_evictions"),
            registry_resident_bytes: r.gauge("registry_resident_bytes"),
            registry_references: r.gauge("registry_references"),
            trace: TraceRing::new(DEFAULT_TRACE_CAP),
            epoch: Instant::now(),
            registry: r,
        }
    }

    /// The underlying registry (for ad-hoc, dynamically named metrics —
    /// e.g. the per-variant `control_err_*` tallies).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Record a lifecycle event into the service's trace ring.
    pub fn trace(&self, kind: TraceKind, a: u64, b: u64) {
        self.trace.record(kind, a, b);
    }

    /// The retained trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// Capture every metric, stamping `uptime_seconds` at capture time.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.uptime_seconds.set(self.epoch.elapsed().as_secs_f64());
        self.registry.snapshot()
    }

    /// Tally a typed control error: the `control_errors` total plus a
    /// per-variant `control_err_*` counter (registered on first use, so
    /// snapshots only name variants that actually occurred).
    pub(crate) fn record_control_error(&self, err: &crate::ControlError) {
        self.control_errors.inc();
        self.registry.counter(err.metric_name()).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_float_gauges_record() {
        let c = Counter::default();
        assert_eq!(c.inc(), 1);
        assert_eq!(c.inc(), 2);
        c.add(40);
        assert_eq!(c.get(), 42);

        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set_max(10);
        g.set_max(5);
        assert_eq!(g.get(), 10);
        g.set(3);
        assert_eq!(g.get(), 3);

        let f = FloatGauge::default();
        f.set(-0.0);
        assert_eq!(f.get().to_bits(), (-0.0f64).to_bits(), "bit-exact");
        f.set(1.25);
        assert_eq!(f.get(), 1.25);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 500.0, 5_000.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(
            snap.counts,
            vec![2, 1, 1, 2],
            "v <= edge buckets + overflow"
        );
        assert_eq!(snap.total, 6);
        assert!((snap.sum - 5_556.5).abs() < 1e-9);
        assert_eq!(snap.edges, vec![1.0, 10.0, 100.0]);
    }

    #[test]
    fn registry_get_or_register_returns_the_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1, "same underlying counter");
        assert!(Arc::ptr_eq(&a, &b));
        let h1 = r.histogram("h", &[1.0, 2.0]);
        let h2 = r.histogram("h", &[1.0, 2.0]);
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn histogram_edge_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.histogram("h", &[1.0]);
        r.histogram("h", &[2.0]);
    }

    #[test]
    fn snapshot_is_ordered_and_equal_across_registration_order() {
        // Two registries with the same metrics registered in opposite
        // orders produce equal snapshots — BTreeMap ordering, not
        // registration order, defines the snapshot.
        let a = MetricsRegistry::new();
        a.counter("alpha").add(1);
        a.counter("beta").add(2);
        a.gauge("g").set(7);
        let b = MetricsRegistry::new();
        b.gauge("g").set(7);
        b.counter("beta").add(2);
        b.counter("alpha").add(1);
        assert_eq!(a.snapshot(), b.snapshot());
        let snap = a.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted by name");
    }

    #[test]
    fn trace_ring_is_bounded_and_keeps_the_newest_window() {
        let ring = TraceRing::new(4);
        for k in 0..10u64 {
            ring.record(TraceKind::BatchSubmit, k, 0);
        }
        let events = ring.events();
        assert_eq!(events.len(), 4);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "oldest evicted, newest retained, gapless seq"
        );
        assert!(events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
    }

    #[test]
    fn counting_wrappers_tally_bytes() {
        let c_in = Arc::new(Counter::default());
        let c_out = Arc::new(Counter::default());
        let mut reader = CountingRead::new(&b"hello world"[..], Arc::clone(&c_in));
        let mut buf = [0u8; 5];
        reader.read_exact(&mut buf).expect("read");
        assert_eq!(c_in.get(), 5);
        let mut sink = Vec::new();
        let mut writer = CountingWrite::new(&mut sink, Arc::clone(&c_out));
        writer.write_all(b"abc").expect("write");
        writer.flush().expect("flush");
        assert_eq!(c_out.get(), 3);
        assert_eq!(sink, b"abc");
    }

    #[test]
    fn service_metrics_snapshot_names_every_metric_at_zero() {
        let m = ServiceMetrics::new();
        let snap = m.snapshot();
        for name in [
            "sessions_submitted",
            "sessions_audited",
            "batches_submitted",
            "batches_completed",
            "conn_accepted",
            "conn_errors",
            "conn_idle_timeout",
            "conn_shed",
            "quota_rejections",
            "frames_out_busy",
            "bytes_in",
            "bytes_out",
            "frames_in",
            "frames_out",
            "control_errors",
            "replayed_cycles",
        ] {
            assert!(
                snap.counters.contains_key(name),
                "{name} pre-registered at zero"
            );
            assert_eq!(snap.counter(name), 0);
        }
        assert!(snap.gauges.contains_key("queue_depth"));
        assert!(snap.histograms.contains_key("verdict_latency_us"));
        assert!(snap.float_gauges.contains_key("uptime_seconds"));
        assert!(snap.float_gauge("uptime_seconds") >= 0.0);
        // The rendered forms mention the load-bearing counters.
        assert!(snap.render().contains("sessions_audited"));
        assert!(snap.render_line().contains("conn_active=0"));
    }
}
