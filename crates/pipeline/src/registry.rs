//! The reference-program registry: verify-on-load, hash-addressed,
//! LRU-evicted.
//!
//! The paper's thesis is that the auditor replays *the prover's actual
//! program*; a fleet auditor therefore needs programs to be first-class,
//! nameable objects rather than compile-time constants. This module turns
//! a sealed TDRP container ([`jbc::container`], `docs/FORMATS.md` §7)
//! into a resident [`Reference`] the audit service can schedule work
//! against:
//!
//! * **Hash addressing.** A reference's id *is* the SHA-256 digest of its
//!   canonical program bytes ([`jbc::ReferenceId`]), so ids are
//!   self-certifying and the registry is a content-addressed cache — the
//!   same program loaded twice is one entry.
//! * **Verify on load.** [`ReferenceRegistry::load`] admits a program
//!   only after the container opens (length/CRC/digest/canonicality) and
//!   the bytecode passes [`jbc::verify()`]. Nothing unverified is ever
//!   handed to a replay worker.
//! * **Warm cache pools.** Each entry keeps a pool of
//!   [`ReferenceCache`]s, so a worker auditing against a registered
//!   reference checks a warm cache out and returns it instead of
//!   rebuilding detector state per session.
//! * **Pinned LRU eviction.** Residency is bounded by a byte budget;
//!   when it overflows, the least-recently-used *idle* entry is evicted.
//!   In-flight batches pin their entry ([`PinnedReference`], an RAII
//!   guard mirroring the worker-residency discipline), and the
//!   most-recently-touched entry is never evicted — so the reference a
//!   batch is about to use cannot be yanked out from under it, and a
//!   budget smaller than one program still admits it.
//!
//! ## Determinism boundary
//!
//! Eviction changes *which* entries are resident, never what a verdict
//! says: a verdict is a function of the job, the configuration, and the
//! session seed. An evicted-then-reloaded reference is byte-identical to
//! its first incarnation (it is content-addressed), so eviction pressure
//! is invisible in the verdict stream — pinned by the registry
//! determinism tests.
//!
//! Registered references carry no trained [`detectors::DetectorBattery`]
//! (a TDRP ships the program alone), so sessions audited against them
//! score TDR-only regardless of the service-wide battery mode.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use jbc::container::{self, ContainerError};
use jbc::{ReferenceId, VerifyError};

use crate::cache::ReferenceCache;
use crate::obs::{Counter, Gauge, ServiceMetrics};
use crate::Reference;

/// Default registry residency budget (bytes of canonical program code).
///
/// Generous relative to the workloads crate's programs (kilobytes each):
/// eviction under the default budget means someone registered thousands
/// of distinct references, not normal operation.
pub const DEFAULT_REFERENCE_BUDGET: u64 = 64 << 20;

/// Why a TDRP container was refused admission, or a lookup missed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The container failed to open (framing, CRC, digest, canonicality).
    Container(ContainerError),
    /// The program decoded but failed bytecode verification.
    Verify(VerifyError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Container(e) => write!(f, "container rejected: {e}"),
            RegistryError::Verify(e) => write!(f, "program failed verification: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// What [`ReferenceRegistry::load`] reports about an admitted container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryLoad {
    /// The content-addressed reference id (SHA-256 of canonical bytes).
    pub id: ReferenceId,
    /// `false` iff the id was already resident (load was a no-op beyond
    /// refreshing recency).
    pub newly_loaded: bool,
    /// Total canonical program bytes resident after the load (and any
    /// evictions it forced).
    pub resident_bytes: u64,
}

/// One resident reference: the verified program plus its warm cache pool.
#[derive(Debug)]
pub struct ReferenceEntry {
    id: ReferenceId,
    reference: Reference,
    /// Canonical program byte length — the entry's budget cost.
    cost: u64,
    /// Live [`PinnedReference`] guards; an entry with pins is never
    /// evicted.
    pins: AtomicU64,
    /// Registry tick of the last load/checkout touching this entry (the
    /// LRU ordering key; ticks are unique, so LRU order is total).
    last_used: AtomicU64,
    /// Warm worker caches, checked out for one audit at a time.
    pool: Mutex<Vec<ReferenceCache>>,
}

impl ReferenceEntry {
    /// The entry's content-addressed id.
    pub fn id(&self) -> ReferenceId {
        self.id
    }

    /// The verified reference environment (program-only: empty file set,
    /// no battery).
    pub fn reference(&self) -> &Reference {
        &self.reference
    }

    /// Canonical program bytes this entry charges against the budget.
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

/// RAII pin on a resident reference: while any clone of a batch's pin
/// guard is alive, the entry cannot be evicted. Dropping the last guard
/// returns the entry to eviction candidacy.
#[derive(Debug)]
pub struct PinnedReference {
    entry: Arc<ReferenceEntry>,
}

impl PinnedReference {
    /// The pinned entry.
    pub fn entry(&self) -> &ReferenceEntry {
        &self.entry
    }

    /// Check a warm [`ReferenceCache`] out of the entry's pool (building
    /// a fresh one on a cold pool). Pair with
    /// [`return_cache`](Self::return_cache).
    pub(crate) fn checkout_cache(&self) -> ReferenceCache {
        self.entry
            .pool
            .lock()
            .expect("reference pool lock")
            .pop()
            .unwrap_or_else(|| ReferenceCache::new(&self.entry.reference))
    }

    /// Return a cache to the pool for the next audit against this entry.
    pub(crate) fn return_cache(&self, cache: ReferenceCache) {
        self.entry
            .pool
            .lock()
            .expect("reference pool lock")
            .push(cache);
    }
}

impl Drop for PinnedReference {
    fn drop(&mut self) {
        let prev = self.entry.pins.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "pin count underflow");
    }
}

/// Metric handles the registry records into — the `registry_*` subset of
/// [`ServiceMetrics`], or detached counters for a standalone registry.
#[derive(Debug)]
struct RegistryMetrics {
    loads: Arc<Counter>,
    verify_failures: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    resident_bytes: Arc<Gauge>,
    references: Arc<Gauge>,
}

impl Default for RegistryMetrics {
    fn default() -> Self {
        RegistryMetrics {
            loads: Arc::new(Counter::default()),
            verify_failures: Arc::new(Counter::default()),
            hits: Arc::new(Counter::default()),
            misses: Arc::new(Counter::default()),
            evictions: Arc::new(Counter::default()),
            resident_bytes: Arc::new(Gauge::default()),
            references: Arc::new(Gauge::default()),
        }
    }
}

impl RegistryMetrics {
    fn from_service(m: &ServiceMetrics) -> Self {
        RegistryMetrics {
            loads: Arc::clone(&m.registry_loads),
            verify_failures: Arc::clone(&m.registry_verify_failures),
            hits: Arc::clone(&m.registry_hits),
            misses: Arc::clone(&m.registry_misses),
            evictions: Arc::clone(&m.registry_evictions),
            resident_bytes: Arc::clone(&m.registry_resident_bytes),
            references: Arc::clone(&m.registry_references),
        }
    }
}

/// Mutable registry state, all under one lock (loads and checkouts are
/// control-plane operations; audits never touch it).
#[derive(Debug, Default)]
struct RegState {
    entries: BTreeMap<ReferenceId, Arc<ReferenceEntry>>,
    /// Canonical bytes currently resident (sum of entry costs).
    resident: u64,
    /// Logical clock: every load/checkout gets a fresh tick, stamping the
    /// touched entry's `last_used`. Deterministic for a deterministic
    /// operation sequence — no wall clock.
    tick: u64,
    /// Evicted ids in eviction order (the determinism tests compare this
    /// across runs).
    evictions: Vec<ReferenceId>,
}

/// The verify-on-load reference registry. See the [module docs](self).
#[derive(Debug)]
pub struct ReferenceRegistry {
    budget: u64,
    metrics: RegistryMetrics,
    state: Mutex<RegState>,
}

impl ReferenceRegistry {
    /// An empty registry with residency bounded by `budget` bytes of
    /// canonical program code.
    pub fn new(budget: u64) -> Self {
        ReferenceRegistry {
            budget,
            metrics: RegistryMetrics::default(),
            state: Mutex::new(RegState::default()),
        }
    }

    /// A registry recording into a service's `registry_*` metrics.
    pub(crate) fn with_service_metrics(budget: u64, metrics: &ServiceMetrics) -> Self {
        ReferenceRegistry {
            budget,
            metrics: RegistryMetrics::from_service(metrics),
            state: Mutex::new(RegState::default()),
        }
    }

    /// The configured residency budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Open, verify, and admit a TDRP container. Idempotent: re-loading a
    /// resident id refreshes its recency and reports
    /// `newly_loaded: false`. Admission may evict idle LRU entries to
    /// respect the budget (never the entry just loaded).
    pub fn load(&self, tdrp: &[u8]) -> Result<RegistryLoad, RegistryError> {
        let (id, program) = container::open(tdrp).map_err(|e| {
            self.metrics.verify_failures.inc();
            RegistryError::Container(e)
        })?;
        jbc::verify(&program).map_err(|e| {
            self.metrics.verify_failures.inc();
            RegistryError::Verify(e)
        })?;
        let cost = container::canonical_program_bytes(&program).len() as u64;
        let mut s = self.state.lock().expect("registry lock");
        s.tick += 1;
        let tick = s.tick;
        if let Some(entry) = s.entries.get(&id) {
            entry.last_used.store(tick, Ordering::Release);
            return Ok(RegistryLoad {
                id,
                newly_loaded: false,
                resident_bytes: s.resident,
            });
        }
        let entry = Arc::new(ReferenceEntry {
            id,
            reference: Reference::new(Arc::new(program)),
            cost,
            pins: AtomicU64::new(0),
            last_used: AtomicU64::new(tick),
            pool: Mutex::new(Vec::new()),
        });
        s.entries.insert(id, entry);
        s.resident += cost;
        self.metrics.loads.inc();
        self.evict_locked(&mut s);
        self.publish_residency(&s);
        Ok(RegistryLoad {
            id,
            newly_loaded: true,
            resident_bytes: s.resident,
        })
    }

    /// Pin `id` for a batch: refresh recency, bump the pin count, and
    /// hand back the RAII guard. `None` (a registry miss) means the id
    /// was never loaded or has been evicted — the caller resubmits after
    /// a fresh [`load`](Self::load).
    pub fn checkout(&self, id: &ReferenceId) -> Option<PinnedReference> {
        let mut s = self.state.lock().expect("registry lock");
        s.tick += 1;
        let tick = s.tick;
        let Some(entry) = s.entries.get(id).map(Arc::clone) else {
            self.metrics.misses.inc();
            return None;
        };
        entry.last_used.store(tick, Ordering::Release);
        entry.pins.fetch_add(1, Ordering::AcqRel);
        self.metrics.hits.inc();
        Some(PinnedReference { entry })
    }

    /// Whether `id` is currently resident.
    pub fn contains(&self, id: &ReferenceId) -> bool {
        self.state
            .lock()
            .expect("registry lock")
            .entries
            .contains_key(id)
    }

    /// Resident reference count.
    pub fn len(&self) -> usize {
        self.state.lock().expect("registry lock").entries.len()
    }

    /// Whether the registry holds no references.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical program bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().expect("registry lock").resident
    }

    /// Every eviction so far, in eviction order — the artifact the
    /// eviction-determinism tests compare across runs.
    pub fn eviction_log(&self) -> Vec<ReferenceId> {
        self.state.lock().expect("registry lock").evictions.clone()
    }

    /// Evict idle LRU entries until the budget holds. Pinned entries and
    /// the most-recently-touched entry are exempt, so the reference a
    /// load/submit just touched survives even a budget smaller than one
    /// program.
    fn evict_locked(&self, s: &mut RegState) {
        while s.resident > self.budget && s.entries.len() > 1 {
            let mru = s
                .entries
                .values()
                .map(|e| e.last_used.load(Ordering::Acquire))
                .max()
                .expect("nonempty registry has an MRU");
            let victim = s
                .entries
                .values()
                .filter(|e| {
                    e.pins.load(Ordering::Acquire) == 0
                        && e.last_used.load(Ordering::Acquire) != mru
                })
                .min_by_key(|e| e.last_used.load(Ordering::Acquire))
                .map(|e| e.id);
            let Some(id) = victim else { break };
            let entry = s.entries.remove(&id).expect("victim is resident");
            s.resident -= entry.cost;
            s.evictions.push(id);
            self.metrics.evictions.inc();
        }
    }

    fn publish_residency(&self, s: &RegState) {
        self.metrics.resident_bytes.set(s.resident);
        self.metrics.references.set(s.entries.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbc::hll::{dsl::*, Module};

    /// A small distinct program per `n` (distinct constant → distinct
    /// canonical bytes → distinct id).
    fn program(n: i32) -> jbc::Program {
        let mut m = Module::new("Reg");
        m.native("println_i", &[jbc::hll::HTy::I32], None);
        m.func(fn_void(
            "main",
            vec![],
            vec![
                let_("x", i(n)),
                expr(native("println_i", vec![mul(var("x"), i(3))])),
            ],
        ));
        m.compile().expect("compiles")
    }

    fn sealed(n: i32) -> Vec<u8> {
        container::seal(&program(n))
    }

    #[test]
    fn load_is_idempotent_and_content_addressed() {
        let reg = ReferenceRegistry::new(u64::MAX);
        let first = reg.load(&sealed(1)).expect("admits");
        assert!(first.newly_loaded);
        let again = reg.load(&sealed(1)).expect("admits");
        assert!(!again.newly_loaded, "same bytes, same entry");
        assert_eq!(first.id, again.id);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.resident_bytes(), first.resident_bytes);
    }

    #[test]
    fn tampered_container_is_refused_with_a_typed_error() {
        let reg = ReferenceRegistry::new(u64::MAX);
        let mut bytes = sealed(2);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = reg.load(&bytes).expect_err("tamper is refused");
        assert!(matches!(err, RegistryError::Container(_)), "got {err:?}");
        assert!(reg.is_empty(), "nothing unverified is admitted");
    }

    #[test]
    fn checkout_pins_against_eviction() {
        let a = sealed(10);
        let b = sealed(11);
        let c = sealed(12);
        // Budget that fits roughly one program: every new load wants to
        // evict the others.
        let budget = a.len() as u64;
        let reg = ReferenceRegistry::new(budget);
        let ida = reg.load(&a).expect("admits").id;
        let pin = reg.checkout(&ida).expect("resident");
        reg.load(&b).expect("admits");
        reg.load(&c).expect("admits");
        assert!(
            reg.contains(&ida),
            "pinned entry survives eviction pressure"
        );
        drop(pin);
        reg.load(&b).expect("admits");
        reg.load(&c).expect("admits");
        assert!(!reg.contains(&ida), "unpinned LRU entry is evicted");
    }

    #[test]
    fn unknown_checkout_is_a_miss() {
        let reg = ReferenceRegistry::new(u64::MAX);
        assert!(reg.checkout(&ReferenceId([9u8; 32])).is_none());
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let reg = ReferenceRegistry::new(sealed(0).len() as u64 * 2);
            let ids: Vec<ReferenceId> = (0..6)
                .map(|n| reg.load(&sealed(n)).expect("admits").id)
                .collect();
            // Touch a mid-sequence entry so recency isn't load order.
            drop(reg.checkout(&ids[3]).expect("resident"));
            for n in 6..10 {
                reg.load(&sealed(n)).expect("admits");
            }
            reg.eviction_log()
        };
        assert_eq!(run(), run(), "same op sequence, same eviction order");
    }
}
