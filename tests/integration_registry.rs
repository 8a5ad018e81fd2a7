//! Integration: the reference-program registry end to end.
//!
//! One daemon concurrently audits three *distinct* registered references
//! (echo, SciMark FFT, the NFS server) over real TCP, with an LRU budget
//! small enough to force eviction and reload mid-run — and every wire
//! verdict must be bit-identical to a single-reference in-process
//! `audit_batch` of the same jobs. Eviction is allowed to cost a reload
//! round-trip (`UnknownReference` → re-put → retry); it is never allowed
//! to change a verdict byte.
//!
//! Registry references travel program-only (FORMATS.md §7), so the NFS
//! sessions here are LOOKUP-only (the `OP_LOOKUP` path never touches the
//! stable-storage file set) and the FFT sessions are pure compute.

use std::net::TcpListener;
use std::sync::Arc;

use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::jbc::container;
use sanity_tdr::{
    serve_tcp_with, AckStatus, AuditConfig, AuditJob, BatchReport, Client, ControlError,
    DaemonOptions, ReferenceId, Sanity, Sessions,
};
use workloads::nfs::{encode_request, server_program, OP_LOOKUP};
use workloads::scimark::fft_program;

#[path = "torture_common.rs"]
mod torture_common;
use torture_common::{echo_jobs, echo_sanity_with};

/// One registered reference plus recorded suspect sessions for it.
struct Fixture {
    name: &'static str,
    tdrp: Vec<u8>,
    id: ReferenceId,
    jobs: Vec<AuditJob>,
    /// The single-reference in-process baseline for `jobs`.
    expected: BatchReport,
}

/// The audit config both sides score under. Verdicts are independent of
/// worker count and transport; the registry path is TDR-only by
/// construction (a TDRP ships no battery), which is also `Sanity::new`'s
/// scoring mode — so the two sides agree by default.
fn cfg() -> AuditConfig {
    AuditConfig {
        workers: 2,
        ..AuditConfig::default()
    }
}

fn fixtures() -> Vec<Fixture> {
    let mut out = Vec::new();

    // Echo: request/response rounds, the classic timing surface.
    let echo = echo_sanity_with(3);
    let echo_jobs = echo_jobs(&echo, 0..3);
    out.push(fixture("echo", echo, echo_jobs));

    // SciMark FFT: pure compute — no packets delivered, no transmissions.
    let fft = Sanity::new(fft_program(64));
    let fft_jobs: Vec<AuditJob> = (0..2u64)
        .map(|id| {
            let rec = fft.record(40 + id, |_vm| {}).expect("record FFT session");
            AuditJob {
                session_id: id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect();
    out.push(fixture("scimark_fft", fft, fft_jobs));

    // NFS: LOOKUP-only sessions against a file-less server (OP_LOOKUP
    // never calls file_read/file_size, so a program-only reference
    // replays it exactly).
    let nfs = Sanity::new(server_program(3));
    let nfs_jobs: Vec<AuditJob> = (0..3u64)
        .map(|id| {
            let rec = nfs
                .record(90 + id, move |vm| {
                    for k in 0..3u64 {
                        let req = encode_request(OP_LOOKUP, (id + k) as u8 % 5, 0, 0);
                        vm.machine_mut()
                            .deliver_packet(150_000 + k * 500_000 + id * 7_000, req);
                    }
                })
                .expect("record NFS session");
            AuditJob {
                session_id: id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect();
    out.push(fixture("nfs_lookup", nfs, nfs_jobs));

    out
}

fn fixture(name: &'static str, sanity: Sanity, jobs: Vec<AuditJob>) -> Fixture {
    let program = sanity.program();
    let expected = sanity.audit_batch(&jobs, &cfg());
    Fixture {
        name,
        tdrp: container::seal(program),
        id: container::reference_id(program),
        jobs,
        expected,
    }
}

/// A budget that admits any two of the three references but not all
/// three — so a run that cycles through all of them must evict. Costs
/// are measured the way the registry itself accounts them (canonical
/// program bytes), by loading each fixture into a throwaway registry.
fn thrash_budget(fixtures: &[Fixture]) -> u64 {
    use sanity_tdr::ReferenceRegistry;
    let costs: Vec<u64> = fixtures
        .iter()
        .map(|f| {
            let probe = ReferenceRegistry::new(u64::MAX);
            probe.load(&f.tdrp).expect("fixture admits").resident_bytes
        })
        .collect();
    let total: u64 = costs.iter().sum();
    assert!(costs.iter().all(|&c| c > 0), "zero-cost fixture");
    // `total - 1` admits every pair (any two costs sum to at most
    // `total - min`, and every cost is positive) but never all three.
    total - 1
}

/// The tentpole acceptance test: three references, one daemon, real TCP,
/// interleaved concurrent clients, LRU thrash — verdicts bit-identical
/// to in-process audits.
#[test]
fn daemon_audits_three_references_concurrently_with_eviction() {
    let fixtures = Arc::new(fixtures());
    let budget = thrash_budget(&fixtures);

    let service = echo_sanity_with(3)
        .audit_service()
        .workers(2)
        .reference_budget(budget)
        .build()
        .expect("valid configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let daemon = serve_tcp_with(service, listener, DaemonOptions::default()).expect("serve");
    let addr = daemon.local_addr();

    const ROUNDS: usize = 3;
    let mut handles = Vec::new();
    for (slot, _) in fixtures.iter().enumerate() {
        let fixtures = Arc::clone(&fixtures);
        handles.push(std::thread::spawn(move || {
            let f = &fixtures[slot];
            let stream = std::net::TcpStream::connect(addr).expect("connect");
            let mut client = Client::new(stream);
            let put = client
                .put_reference(slot as u64, f.tdrp.clone())
                .expect("put_reference exchange");
            assert_eq!(
                put.reference, f.id,
                "{}: daemon admitted a different id",
                f.name
            );
            assert!(
                matches!(put.status, AckStatus::Loaded | AckStatus::AlreadyResident),
                "{}: not admitted: {:?}",
                f.name,
                put.status
            );
            let mut reloads = 0usize;
            for round in 0..ROUNDS as u64 {
                let tdrb = ingest::encode_batch(&f.jobs);
                // Under LRU thrash another client's load may have evicted
                // this reference between batches: the daemon answers with
                // a typed UnknownReference and `submit_batch_reput`
                // recovers with one bounded re-put (the bytes are
                // content-addressed, so this is always safe). A second
                // eviction racing the same submission surfaces as a typed
                // ReferenceThrash, which this torture retries at its own
                // bounded level. Eviction costs round-trips, never a
                // verdict.
                let outcome = loop {
                    match client.submit_batch_reput(
                        slot as u64 * 100 + round,
                        tdrb.clone(),
                        f.id,
                        &f.tdrp,
                    ) {
                        Ok(outcome) => break outcome,
                        Err(ControlError::ReferenceThrash(id)) => {
                            assert_eq!(id, f.id);
                            reloads += 1;
                            assert!(reloads <= 64, "{}: reload livelock", f.name);
                        }
                        Err(e) => panic!("{}: round {round} protocol failure: {e}", f.name),
                    }
                };
                let summary = outcome.result.unwrap_or_else(|msg| {
                    panic!("{}: round {round} rejected in-band: {msg}", f.name)
                });
                assert_eq!(summary.summary, f.expected.summary, "{}: summary", f.name);
                assert_eq!(outcome.verdicts.len(), f.expected.verdicts.len());
                for (wire, local) in outcome.verdicts.iter().zip(&f.expected.verdicts) {
                    assert_eq!(wire, local, "{}: verdict diverged", f.name);
                    assert_eq!(
                        wire.score.to_bits(),
                        local.score.to_bits(),
                        "{}: score bits diverged",
                        f.name
                    );
                }
            }
            client.shutdown().expect("shutdown ack");
            reloads
        }));
    }
    let reloads: usize = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();

    // The budget admits two references but not three, so the working set
    // was over budget the moment the third client registered. Whether an
    // eviction already fired during the interleaved phase depends on pin
    // timing (a load never evicts a pinned or just-touched entry); force
    // the question deterministically by loading a *fourth* reference now
    // that nothing is pinned — `evict_locked` must shed the LRU tail.
    let fourth = echo_sanity_with(5);
    daemon
        .service()
        .put_reference(&container::seal(fourth.program()))
        .expect("fourth reference admits");
    let snap = daemon.service().metrics_snapshot();
    assert!(
        snap.counter("registry_evictions") >= 1,
        "no eviction under a {budget}-byte budget (reloads observed: {reloads})"
    );
    assert_eq!(snap.counter("registry_verify_failures"), 0);

    // And reload-after-eviction still changes no verdict byte: sweep
    // every fixture once more on a fresh connection, re-putting on a
    // typed miss.
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut client = Client::new(stream);
    for f in fixtures.iter() {
        let tdrb = ingest::encode_batch(&f.jobs);
        // No concurrent clients here, so the helper's single bounded
        // re-put deterministically covers the forced eviction.
        let outcome = client
            .submit_batch_reput(9_000, tdrb.clone(), f.id, &f.tdrp)
            .unwrap_or_else(|e| panic!("{}: post-eviction protocol failure: {e}", f.name));
        let summary = outcome.result.expect("audits");
        assert_eq!(
            summary.summary, f.expected.summary,
            "{}: post-eviction",
            f.name
        );
        for (wire, local) in outcome.verdicts.iter().zip(&f.expected.verdicts) {
            assert_eq!(wire, local, "{}: post-eviction verdict diverged", f.name);
        }
    }
    client.shutdown().expect("ack");
    daemon.shutdown();
}

/// A tampered container is refused with a typed in-band rejection naming
/// the failure, consumes nothing, and the connection (and daemon) keep
/// serving: the next good put and batch behave exactly as without the
/// attack.
#[test]
fn tampered_put_reference_is_rejected_in_band_and_daemon_keeps_serving() {
    let fixtures = fixtures();
    let f = &fixtures[0];

    let service = echo_sanity_with(3)
        .audit_service()
        .workers(1)
        .build()
        .expect("valid configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let daemon = serve_tcp_with(service, listener, DaemonOptions::default()).expect("serve");

    let stream = std::net::TcpStream::connect(daemon.local_addr()).expect("connect");
    let mut client = Client::new(stream);

    // Flip one program byte: the CRC (or digest) check must catch it.
    let mut tampered = f.tdrp.clone();
    let at = tampered.len() / 2;
    tampered[at] ^= 0x40;
    let put = client
        .put_reference(1, tampered)
        .expect("exchange completes");
    match &put.status {
        AckStatus::Rejected(msg) => assert!(!msg.is_empty(), "rejection names the failure"),
        other => panic!("tampered container admitted: {other:?}"),
    }
    assert_eq!(
        put.reference,
        ReferenceId([0; 32]),
        "no id for a refused put"
    );

    // Unknown id on submit: typed, in-band, connection survives.
    let err = client
        .submit(7, ingest::encode_batch(&f.jobs), Some(f.id), |_, _| {})
        .expect_err("unregistered reference must not audit");
    assert!(
        matches!(err, ControlError::UnknownReference(id) if id == f.id),
        "expected UnknownReference, got {err}"
    );

    // Same connection, good container: everything works.
    let put = client.put_reference(2, f.tdrp.clone()).expect("exchange");
    assert!(matches!(put.status, AckStatus::Loaded));
    assert_eq!(put.reference, f.id);
    let outcome = client
        .submit(8, ingest::encode_batch(&f.jobs), Some(f.id), |_, _| {})
        .expect("protocol clean");
    let summary = outcome.result.expect("audits");
    assert_eq!(summary.summary, f.expected.summary);
    for (wire, local) in outcome.verdicts.iter().zip(&f.expected.verdicts) {
        assert_eq!(wire, local);
    }

    let snap = daemon.service().metrics_snapshot();
    assert_eq!(snap.counter("registry_verify_failures"), 1);
    client.shutdown().expect("ack");
    daemon.shutdown();
}

/// Service-level determinism: the same load/submit sequence produces the
/// same eviction order, and verdicts are bit-identical at *any* budget
/// that admits the working set of each batch — pool temperature and
/// eviction state must never leak into a verdict.
#[test]
fn eviction_order_and_verdicts_are_deterministic_across_budgets() {
    let fixtures = fixtures();
    let thrash = thrash_budget(&fixtures);
    // Budgets: unbounded (no eviction ever) and two-of-three (thrash).
    let budgets = [u64::MAX, thrash];

    let mut verdict_bits: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut eviction_logs: Vec<Vec<ReferenceId>> = Vec::new();
    for &budget in &budgets {
        // Two identical runs per budget: eviction order must be a pure
        // function of the operation sequence.
        let mut logs_at_budget = Vec::new();
        for _run in 0..2 {
            let service = echo_sanity_with(3)
                .audit_service()
                .workers(2)
                .reference_budget(budget)
                .build()
                .expect("valid configuration");
            let mut bits_per_fixture = Vec::new();
            for f in &fixtures {
                let load = service.put_reference(&f.tdrp).expect("admitted");
                assert_eq!(load.id, f.id);
                let ticket = service
                    .submit(Sessions::Jobs(f.jobs.clone()), Some(f.id))
                    .expect("reference resident at submit time");
                let report = ticket.wait().expect("batch completes");
                assert_eq!(report.summary, f.expected.summary, "{}", f.name);
                let bits: Vec<u64> = report.verdicts.iter().map(|v| v.score.to_bits()).collect();
                for (wire, local) in report.verdicts.iter().zip(&f.expected.verdicts) {
                    assert_eq!(wire, local, "{} at budget {budget}", f.name);
                }
                bits_per_fixture.push(bits);
            }
            logs_at_budget.push(service.reference_registry().eviction_log());
            verdict_bits.push(bits_per_fixture);
            service.shutdown();
        }
        assert_eq!(
            logs_at_budget[0], logs_at_budget[1],
            "eviction order diverged between identical runs at budget {budget}"
        );
        eviction_logs.push(logs_at_budget.remove(0));
    }

    // Verdict bits identical across every run at every budget.
    for later in &verdict_bits[1..] {
        assert_eq!(&verdict_bits[0], later, "verdict bits depend on budget");
    }
    // The unbounded run never evicts; the thrash run does.
    assert!(eviction_logs[0].is_empty(), "unbounded budget evicted");
    assert!(
        !eviction_logs[1].is_empty(),
        "thrash budget ({thrash} bytes) never evicted"
    );
}

/// A client-side transport shim that plays the eviction adversary:
/// before forwarding each complete `SubmitBatch` frame to the daemon, it
/// loads a rival reference directly into the daemon's registry, evicting
/// the reference the batch is about to name. A single client can never
/// produce this interleaving on its own (its re-put makes the reference
/// most-recently-used, which the LRU never evicts), so the shim stands in
/// for the concurrent tenant that makes budget thrash real.
struct EvictingTransport<'a> {
    inner: std::net::TcpStream,
    service: &'a sanity_tdr::AuditService,
    rival_tdrp: Vec<u8>,
    sabotage: Arc<std::sync::atomic::AtomicBool>,
    pending: Vec<u8>,
}

impl std::io::Write for EvictingTransport<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        // Forward every complete frame ([u32 LE length][payload]); the
        // frame kind lives at payload offset 8 (FORMATS.md §5.1).
        loop {
            if self.pending.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(self.pending[..4].try_into().expect("4 bytes")) as usize;
            let total = 4 + len;
            if self.pending.len() < total {
                break;
            }
            const SUBMIT_BATCH: u8 = 0x01;
            if len > 8
                && self.pending[12] == SUBMIT_BATCH
                && self.sabotage.load(std::sync::atomic::Ordering::SeqCst)
            {
                self.service
                    .put_reference(&self.rival_tdrp)
                    .expect("rival reference admits");
            }
            self.inner.write_all(&self.pending[..total])?;
            self.pending.drain(..total);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl std::io::Read for EvictingTransport<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

/// Regression (bounded re-put): under adversarial budget thrash the
/// recovery path must surface a typed `ReferenceThrash` after exactly one
/// re-put attempt — the old client loop (`Unknown` → re-put → retry,
/// unbounded) livelocked here, burning a put + submit round-trip per
/// iteration forever. The error is batch-scoped: once the adversary goes
/// quiet, the same connection recovers and the verdicts are bit-identical
/// to the in-process baseline.
#[test]
fn re_put_thrash_surfaces_typed_error_not_livelock() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let victim = echo_sanity_with(3);
    let rival = echo_sanity_with(5);
    let victim_tdrp = container::seal(victim.program());
    let victim_id = container::reference_id(victim.program());
    let rival_tdrp = container::seal(rival.program());

    // A budget that admits either reference alone, never both — the
    // 1-reference daemon. Costs measured the way the registry accounts
    // them (canonical program bytes).
    let cost = |tdrp: &[u8]| {
        let probe = sanity_tdr::ReferenceRegistry::new(u64::MAX);
        probe.load(tdrp).expect("probe admits").resident_bytes
    };
    let budget = cost(&victim_tdrp).max(cost(&rival_tdrp));

    let service = echo_sanity_with(3)
        .audit_service()
        .workers(2)
        .reference_budget(budget)
        .build()
        .expect("valid configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let daemon = serve_tcp_with(service, listener, DaemonOptions::default()).expect("serve");

    let jobs = echo_jobs(&victim, 0..2);
    let expected = victim.audit_batch(&jobs, &cfg());
    let tdrb = ingest::encode_batch(&jobs);

    let sabotage = Arc::new(AtomicBool::new(true));
    let stream = std::net::TcpStream::connect(daemon.local_addr()).expect("connect");
    let mut client = Client::new(EvictingTransport {
        inner: stream,
        service: daemon.service(),
        rival_tdrp: rival_tdrp.clone(),
        sabotage: Arc::clone(&sabotage),
        pending: Vec::new(),
    });

    let put = client
        .put_reference(1, victim_tdrp.clone())
        .expect("put_reference exchange");
    assert_eq!(put.reference, victim_id);

    // Both the first submission and the post-re-put resubmission find the
    // reference evicted (the shim reloads the rival before each), so the
    // bounded path must give up typed — and after exactly 2 attempts.
    match client.submit_batch_reput(7, tdrb.clone(), victim_id, &victim_tdrp) {
        Err(ControlError::ReferenceThrash(id)) => assert_eq!(id, victim_id),
        other => panic!("expected a typed ReferenceThrash, got {other:?}"),
    }

    // Batch-scoped, not connection-fatal: with the adversary quiet the
    // same connection recovers via one bounded re-put, bit-identically.
    sabotage.store(false, Ordering::SeqCst);
    let outcome = client
        .submit_batch_reput(8, tdrb, victim_id, &victim_tdrp)
        .expect("recovers once the thrash stops");
    let summary = outcome.result.expect("audits");
    assert_eq!(summary.summary, expected.summary);
    assert_eq!(outcome.verdicts.len(), expected.verdicts.len());
    for (wire, local) in outcome.verdicts.iter().zip(&expected.verdicts) {
        assert_eq!(wire, local, "post-thrash verdict diverged");
    }
    client.shutdown().expect("shutdown ack");
    daemon.shutdown();
}
