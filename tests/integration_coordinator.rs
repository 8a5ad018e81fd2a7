//! Integration: the coordinator (`audit_pipeline::coord`) end to end.
//!
//! A coordinator over N backend daemons must be *invisible* to clients:
//! the unchanged TDRC protocol in, per-session verdicts and a
//! [`FleetSummary`] byte-identical to a single-daemon audit out —
//! including when a backend dies mid-batch and its shard is retried on a
//! survivor, and including the registry (`PutReference` fan-out) and
//! battery (`PutBattery` fan-out) control planes.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use sanity_tdr::audit_pipeline::{ingest, FleetSummary};
use sanity_tdr::{
    serve_coordinator, serve_tcp_with, AckStatus, AuditConfig, AuditJob, Client, ControlError,
    ControlFrame, DaemonOptions, DetectorBattery, Sanity, TcpDaemon,
};

#[path = "torture_common.rs"]
mod torture_common;
use torture_common::{echo_jobs, echo_sanity, echo_sanity_with};

fn backend(sanity: &Sanity, workers: usize) -> TcpDaemon {
    let service = sanity
        .audit_service()
        .workers(workers)
        .build()
        .expect("valid service configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    serve_tcp_with(service, listener, DaemonOptions::default()).expect("backend starts")
}

fn cfg() -> AuditConfig {
    AuditConfig {
        workers: 2,
        ..AuditConfig::default()
    }
}

/// Byte-identity for the merged summary: encode both through the same
/// pinned wire path with the topology-dependent `Summary`-frame fields
/// (workers, peak residency) held constant, and compare raw frames.
fn summary_bytes(summary: &FleetSummary) -> Vec<u8> {
    ControlFrame::Summary {
        batch_id: 0,
        workers: 0,
        peak_resident: 0,
        summary: summary.clone(),
    }
    .encode()
}

/// A scripted backend that dies mid-batch: it accepts the coordinator's
/// dial, then drops the connection the moment the first frame arrives —
/// the coordinator observes a typed mid-exchange disconnect, exactly as
/// if the daemon process was killed after the shard was submitted.
/// Returns the address to route to.
fn dying_backend() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                // Read exactly one frame, answer nothing, hang up.
                let _ = ControlFrame::read_from(&mut stream);
            });
        }
    });
    addr
}

// ---------------------------------------------------------------------------
// The tentpole pin: coordinator == single daemon, bit for bit
// ---------------------------------------------------------------------------

/// Two backends behind a coordinator serve a client that cannot tell the
/// difference: every verdict and the merged fleet summary are
/// bit-identical to the in-process single-audit baseline, and the
/// routing counters account for every session.
#[test]
fn coordinator_merge_is_byte_identical_to_a_single_daemon_audit() {
    const BATCHES: u64 = 2;
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..10);
    let expected = sanity.audit_batch(&jobs, &cfg());
    let tdrb = ingest::encode_batch(&jobs);

    let backends: Vec<TcpDaemon> = (0..2).map(|_| backend(&sanity, 2)).collect();
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    for b in 0..BATCHES {
        let outcome = client
            .submit_batch(b, tdrb.clone())
            .expect("batch completes");
        let summary = outcome.result.expect("audits");
        assert_eq!(outcome.verdicts.len(), expected.verdicts.len());
        for (wire, local) in outcome.verdicts.iter().zip(&expected.verdicts) {
            assert_eq!(
                wire, local,
                "batch {b}: verdict diverged through the coordinator"
            );
            assert_eq!(
                wire.score.to_bits(),
                local.score.to_bits(),
                "batch {b}: score bits diverged"
            );
        }
        assert_eq!(
            summary_bytes(&summary.summary),
            summary_bytes(&expected.summary),
            "batch {b}: merged FleetSummary is not byte-identical"
        );
    }

    // The Stats plane serves the coordinator's own routing counters.
    let snap = client.stats().expect("stats over the coordinator");
    assert_eq!(snap.counter("coord_batches_routed"), BATCHES);
    assert_eq!(snap.counter("coord_sessions_routed"), 10 * BATCHES);
    assert_eq!(snap.counter("coord_retries"), 0);
    assert_eq!(snap.counter("coord_backend_failures"), 0);
    // session_id mod 2 puts the five even ids on backend 0, five odd on 1.
    for i in 0..2 {
        assert_eq!(
            snap.counter(&format!("coord_backend_{i}_sessions")),
            5 * BATCHES,
            "uneven shard routing"
        );
        assert_eq!(snap.counter(&format!("coord_backend_{i}_batches")), BATCHES);
    }
    assert_eq!(snap.gauge("conn_active"), 1);

    client.shutdown().expect("shutdown ack");
    let report = coordinator.shutdown();
    assert_eq!(report.connections_accepted, 1);
    assert_eq!(report.connection_errors, 0);
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        1,
        "coordinator thread ledger unbalanced"
    );

    // Each backend audited exactly its shards, and drained clean — no
    // residency slots leak through the routing layer.
    for b in backends {
        let report = b.shutdown();
        assert_eq!(report.snapshot.counter("sessions_audited"), 5 * BATCHES);
        assert_eq!(report.snapshot.gauge("queue_depth"), 0);
        assert_eq!(report.snapshot.gauge("in_flight_jobs"), 0);
        report.service.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Partial-failure torture: a backend dies mid-batch
// ---------------------------------------------------------------------------

/// Kill one backend mid-batch (it drops the connection after reading the
/// shard submission): the coordinator marks it dead, retries the whole
/// shard on the survivor, and the client still receives every verdict
/// and a fleet summary bit-identical to the single-daemon audit. The
/// connection keeps serving afterwards, and no worker-residency slot
/// leaks on the survivor.
#[test]
fn backend_death_mid_batch_is_retried_on_a_survivor_bit_identically() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..8);
    let expected = sanity.audit_batch(&jobs, &cfg());
    let tdrb = ingest::encode_batch(&jobs);

    let survivor = backend(&sanity, 2);
    // Backend 0 dies on first contact; even session ids shard to it.
    let dying = dying_backend();
    let addrs = vec![dying.to_string(), survivor.local_addr().to_string()];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    for b in 0..2u64 {
        let outcome = client
            .submit_batch(b, tdrb.clone())
            .expect("batch completes despite the dead backend");
        let summary = outcome.result.expect("audits");
        assert_eq!(outcome.verdicts.len(), expected.verdicts.len());
        for (wire, local) in outcome.verdicts.iter().zip(&expected.verdicts) {
            assert_eq!(wire, local, "batch {b}: verdict diverged after shard retry");
        }
        assert_eq!(
            summary_bytes(&summary.summary),
            summary_bytes(&expected.summary),
            "batch {b}: merged summary diverged after shard retry"
        );
    }

    // The death and the retry are visible — and typed — in the counters:
    // backend 0 failed, its shard was retried, the survivor served all.
    let snap = client.stats().expect("stats over the coordinator");
    assert!(snap.counter("coord_backend_failures") >= 1);
    assert!(snap.counter("coord_backend_0_failures") >= 1);
    assert!(
        snap.counter("coord_retries") >= 2,
        "each batch's orphaned shard is one retry, got {}",
        snap.counter("coord_retries")
    );
    assert_eq!(
        snap.counter("coord_backend_1_batches"),
        4,
        "2 shards + 2 retried shards"
    );
    assert_eq!(snap.counter("coord_backend_1_sessions"), 16);

    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();

    // The survivor audited every session of both batches and drained
    // clean: no queue or residency slot leaked from the retried shards.
    let report = survivor.shutdown();
    assert_eq!(report.snapshot.counter("sessions_audited"), 16);
    assert_eq!(report.snapshot.gauge("queue_depth"), 0);
    assert_eq!(report.snapshot.gauge("in_flight_jobs"), 0);
    report.service.shutdown();
}

/// With every backend dead the coordinator answers the batch with an
/// in-band `Error` frame naming the dead backend — the connection (and
/// the Stats plane) keep serving, exactly like a daemon refusing one
/// batch.
#[test]
fn all_backends_dead_surfaces_an_in_band_error_and_keeps_serving() {
    // An address nothing listens on: bind, capture, drop.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, vec![dead_addr.clone()]).expect("starts");

    let sanity = echo_sanity();
    let tdrb = ingest::encode_batch(&echo_jobs(&sanity, 0..2));
    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);

    let outcome = client.submit_batch(1, tdrb).expect("answered in-band");
    let message = outcome.result.expect_err("no backend can audit");
    assert!(
        message.contains(&dead_addr) && message.contains("no survivor"),
        "error must name the dead backend: {message}"
    );
    assert!(outcome.verdicts.is_empty());

    // Reference puts are refused typed, not dropped.
    let put = client
        .put_reference(3, sanity_tdr::jbc::container::seal(sanity.program()))
        .expect("answered in-band");
    assert!(
        matches!(&put.status, AckStatus::Rejected(msg) if msg.contains("no live backends")),
        "got {:?}",
        put.status
    );

    // Still serving: the Stats plane answers and the shutdown handshake
    // completes on the same connection.
    let snap = client.stats().expect("stats still served");
    assert_eq!(snap.counter("coord_batch_errors"), 1);
    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
}

// ---------------------------------------------------------------------------
// Control-plane fan-out: references and batteries
// ---------------------------------------------------------------------------

/// `PutReference` through the coordinator lands the container on every
/// backend (resident bytes sum across the fleet), v2 submits against the
/// returned id shard and merge bit-identically, a re-put reports
/// `AlreadyResident` only because *all* backends already hold it, and an
/// unregistered id surfaces as the same typed `UnknownReference` a
/// single daemon raises.
#[test]
fn put_reference_fans_out_to_every_backend_and_v2_submits_merge() {
    let host = echo_sanity();
    let registered = echo_sanity_with(5);
    let tdrp = sanity_tdr::jbc::container::seal(registered.program());
    let id = sanity_tdr::jbc::container::reference_id(registered.program());
    // Five-round sessions for the five-round program (the shared helper
    // delivers only three packets).
    let record = |ids: std::ops::Range<u64>| -> Vec<AuditJob> {
        ids.map(|sid| {
            let rec = registered
                .record(700 + sid, move |vm| {
                    for k in 0..5u64 {
                        let data = vec![(9 + k) as u8 ^ sid as u8; 48];
                        vm.machine_mut().deliver_packet(100_000 + k * 400_000, data);
                    }
                })
                .expect("record echo session");
            AuditJob {
                session_id: sid,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect()
    };
    let jobs: Vec<AuditJob> = record(0..6);
    let expected = registered.audit_batch(&jobs, &cfg());
    let tdrb = ingest::encode_batch(&jobs);

    let per_backend_bytes = {
        let probe = sanity_tdr::ReferenceRegistry::new(u64::MAX);
        probe.load(&tdrp).expect("probe admits").resident_bytes
    };

    let backends: Vec<TcpDaemon> = (0..2).map(|_| backend(&host, 2)).collect();
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);

    let put = client.put_reference(1, tdrp.clone()).expect("put fans out");
    assert_eq!(put.reference, id);
    assert_eq!(put.status, AckStatus::Loaded);
    assert_eq!(
        put.resident_bytes,
        2 * per_backend_bytes,
        "resident bytes must sum across the fleet"
    );

    let again = client.put_reference(2, tdrp.clone()).expect("re-put");
    assert_eq!(
        again.status,
        AckStatus::AlreadyResident,
        "every backend already holds it"
    );

    let outcome = client
        .submit(7, tdrb, Some(id), |_, _| {})
        .expect("v2 batch");
    let summary = outcome.result.expect("audits");
    for (wire, local) in outcome.verdicts.iter().zip(&expected.verdicts) {
        assert_eq!(wire, local, "registered-reference verdict diverged");
    }
    assert_eq!(
        summary_bytes(&summary.summary),
        summary_bytes(&expected.summary)
    );

    // An id nobody registered: the same typed error a daemon raises.
    let bogus = sanity_tdr::jbc::container::reference_id(host.program());
    let tdrb2 = ingest::encode_batch(&record(0..2));
    match client.submit(8, tdrb2, Some(bogus), |_, _| {}) {
        Err(ControlError::UnknownReference(got)) => assert_eq!(got, bogus),
        other => panic!("expected a typed UnknownReference, got {other:?}"),
    }

    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
    for b in backends {
        let report = b.shutdown();
        assert_eq!(report.snapshot.counter("registry_loads"), 1);
        assert_eq!(report.snapshot.gauge("registry_references"), 1);
        report.service.shutdown();
    }
}

/// `PutBattery` through the coordinator: one retrain publishes one
/// generation fleet-wide (the ack reports the *minimum* generation — the
/// floor every backend reached), and rejections are uniform: an
/// untrained battery, or a TDR-only fleet, refuse everywhere.
#[test]
fn put_battery_fans_out_with_a_fleet_generation_floor() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..4);
    let clean: Vec<Vec<u64>> = jobs.iter().map(|j| j.observed_ipds.clone()).collect();
    let battery = DetectorBattery::trained(&clean);
    let json = battery.to_json();

    // Battery-armed fleet: install lands everywhere, generation floor 1,
    // then 2 on the second publish.
    let armed: Vec<TcpDaemon> = (0..2)
        .map(|_| {
            let service = sanity
                .clone()
                .with_battery(battery.clone())
                .audit_service()
                .workers(2)
                .battery(sanity_tdr::BatteryMode::Full)
                .build()
                .expect("valid configuration");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            serve_tcp_with(service, listener, DaemonOptions::default()).expect("backend starts")
        })
        .collect();
    let addrs: Vec<String> = armed.iter().map(|b| b.local_addr().to_string()).collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    let first = client.put_battery(1, json.clone()).expect("fans out");
    assert_eq!(first.status, AckStatus::Loaded);
    assert_eq!(first.generation, 1, "fresh fleet: both backends at gen 1");
    let second = client.put_battery(2, json.clone()).expect("fans out");
    assert_eq!(second.generation, 2, "fleet floor advances together");

    // An untrained battery is refused fleet-wide, typed.
    let untrained = DetectorBattery::new().to_json();
    let refused = client.put_battery(3, untrained).expect("answered in-band");
    assert!(
        matches!(&refused.status, AckStatus::Rejected(msg) if msg.contains("untrained")),
        "got {:?}",
        refused.status
    );

    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
    for b in armed {
        b.shutdown().service.shutdown();
    }

    // A TDR-only fleet refuses installs: scoring it could never apply
    // would otherwise hide a fleet misconfiguration.
    let tdr_only = backend(&sanity, 2);
    let addr = tdr_only.local_addr().to_string();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, vec![addr]).expect("starts");
    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    let refused = client.put_battery(4, json).expect("answered in-band");
    assert!(
        matches!(&refused.status, AckStatus::Rejected(msg) if msg.contains("battery")),
        "got {:?}",
        refused.status
    );
    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
    tdr_only.shutdown().service.shutdown();
}

// ---------------------------------------------------------------------------
// One server loop: the coordinator exports the daemon's traffic metrics
// ---------------------------------------------------------------------------

/// Over one TCP connection to `addr`: register `tdrp`, submit each of
/// `batches` against it (v2), fetch Stats, then send a frame whose CRC
/// trailer is corrupted. Returns the verdicts received.
fn traffic_exchange(
    addr: std::net::SocketAddr,
    tdrp: &[u8],
    id: sanity_tdr::ReferenceId,
    batches: &[Vec<u8>],
) -> u64 {
    let mut client = Client::new(TcpStream::connect(addr).expect("connect"));
    let put = client.put_reference(1, tdrp.to_vec()).expect("put");
    assert_eq!(put.status, AckStatus::Loaded);
    let mut verdicts = 0u64;
    for (b, tdrb) in batches.iter().enumerate() {
        let outcome = client
            .submit(10 + b as u64, tdrb.clone(), Some(id), |_, _| {})
            .expect("v2 batch");
        outcome.result.expect("audits");
        verdicts += outcome.verdicts.len() as u64;
    }
    client.stats().expect("stats");
    let mut bad = ControlFrame::StatsRequest.encode();
    *bad.last_mut().expect("CRC trailer") ^= 0xff;
    let mut stream = client.into_inner();
    stream.write_all(&bad).expect("send the corrupt frame");
    // The server ends the connection on the bad frame without a reply.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no reply to a corrupt frame");
    verdicts
}

/// The daemon and the coordinator run one server loop, so a coordinator's
/// Stats carry the daemon's frame, byte and control-error metrics, and
/// the same exchange moves them identically on both roles.
#[test]
fn coordinator_and_daemon_count_the_same_traffic() {
    let sanity = echo_sanity();
    let tdrp = sanity_tdr::jbc::container::seal(sanity.program());
    let id = sanity_tdr::jbc::container::reference_id(sanity.program());
    let batches = [echo_jobs(&sanity, 0..4), echo_jobs(&sanity, 4..7)]
        .map(|jobs| ingest::encode_batch(&jobs));
    let sessions = 7u64;

    let backends: Vec<TcpDaemon> = (0..2).map(|_| backend(&sanity, 1)).collect();
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");
    let sent = traffic_exchange(coordinator.local_addr(), &tdrp, id, &batches);
    assert_eq!(sent, sessions);
    let coord = coordinator.shutdown().snapshot;
    for b in backends {
        b.shutdown().service.shutdown();
    }

    let daemon = backend(&sanity, 1);
    let sent = traffic_exchange(daemon.local_addr(), &tdrp, id, &batches);
    assert_eq!(sent, sessions);
    let report = daemon.shutdown();
    let solo = report.snapshot;
    report.service.shutdown();

    for (name, want) in [
        ("frames_in", 4),
        ("frames_in_put_reference", 1),
        ("frames_in_submit_batch", 2),
        ("frames_in_stats_request", 1),
        ("frames_out_reference_ack", 1),
        ("frames_out_verdict", sessions),
        ("frames_out_summary", 2),
        ("frames_out_stats", 1),
        ("control_errors", 1),
        ("control_err_bad_checksum", 1),
    ] {
        assert_eq!(coord.counter(name), want, "coordinator {name}");
        assert_eq!(solo.counter(name), coord.counter(name), "daemon {name}");
    }
    assert!(coord.counter("bytes_in") > 0);
    assert!(coord.counter("bytes_out") > 0);
    assert_eq!(
        solo.counter("bytes_in"),
        coord.counter("bytes_in"),
        "both roles read the same request bytes"
    );
    for snapshot in [&coord, &solo] {
        let conn_frames = snapshot.histograms.get("conn_frames");
        assert_eq!(conn_frames.map(|h| h.total), Some(1), "one connection");
    }
}

// ---------------------------------------------------------------------------
// The shared listener harness
// ---------------------------------------------------------------------------

/// The daemon and the coordinator run on one listener harness. Bound to
/// the IPv4 wildcard, each must still serve a batch over loopback, and
/// `shutdown()` must wake its accept loop (the wildcard address itself is
/// not connectable everywhere, so the wake-up targets loopback) and join
/// every connection thread it spawned.
#[test]
fn wildcard_bound_daemon_and_coordinator_shut_down_with_balanced_ledgers() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..4);
    let expected = sanity.audit_batch(&jobs, &cfg());
    let tdrb = ingest::encode_batch(&jobs);

    let service = sanity
        .audit_service()
        .workers(2)
        .build()
        .expect("valid service configuration");
    let listener = TcpListener::bind("0.0.0.0:0").expect("bind wildcard");
    let daemon =
        serve_tcp_with(service, listener, DaemonOptions::default()).expect("daemon starts");
    assert!(daemon.local_addr().ip().is_unspecified());
    let backend = format!("127.0.0.1:{}", daemon.local_addr().port());
    let listener = TcpListener::bind("0.0.0.0:0").expect("bind wildcard");
    let coordinator = serve_coordinator(listener, vec![backend]).expect("coordinator starts");
    assert!(coordinator.local_addr().ip().is_unspecified());

    for port in [daemon.local_addr().port(), coordinator.local_addr().port()] {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect over loopback");
        let mut client = Client::new(stream);
        let outcome = client
            .submit_batch(1, tdrb.clone())
            .expect("protocol clean");
        assert_eq!(outcome.verdicts, expected.verdicts);
        client.shutdown().expect("shutdown ack");
    }

    let report = coordinator.shutdown();
    assert_eq!(report.connections_accepted, 1);
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "coordinator thread ledger unbalanced"
    );
    let report = daemon.shutdown();
    // The direct client plus the coordinator's backend link.
    assert_eq!(report.connections_accepted, 2);
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "daemon thread ledger unbalanced"
    );
    report.service.shutdown();
}
