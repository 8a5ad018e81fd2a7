//! Integration suite for the TCP daemon (`audit_pipeline::net`): a real
//! localhost round trip is pinned byte-identical to the in-memory duplex
//! path and to in-process submission, under 1 and 4 concurrent
//! connections; concurrent clients each get bit-identical verdicts;
//! slow-loris and mid-frame-stall connections are isolated; and
//! connection-level garbage never takes the daemon down.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, SeedableRng};
use sanity_tdr::audit_pipeline::{ingest, AuditVerdict, FleetSummary};
use sanity_tdr::{
    serve_tcp_with, AuditConfig, AuditJob, Client, ControlFrame, DaemonOptions, Sanity, Sessions,
    TcpDaemon,
};

#[path = "torture_common.rs"]
mod torture_common;
use torture_common::{echo_jobs, echo_sanity, mutate};

fn tcp_daemon(sanity: &Sanity, workers: usize, high_water: usize) -> TcpDaemon {
    let service = sanity
        .audit_service()
        .workers(workers)
        .high_water(high_water)
        .build()
        .expect("valid service configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    serve_tcp_with(service, listener, DaemonOptions::default()).expect("daemon starts")
}

/// Write `request` to a fresh connection, then read the response stream
/// to EOF (the daemon closes after answering `Shutdown` or erroring).
fn round_trip_raw(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read to EOF");
    response
}

/// Decode a full response stream: in-order verdicts, one summary, one
/// shutdown ack, nothing else.
fn decode_response(bytes: &[u8]) -> (Vec<AuditVerdict>, FleetSummary) {
    let mut src = bytes;
    let mut verdicts = Vec::new();
    let mut summary = None;
    let mut acked = false;
    while let Some(frame) = ControlFrame::read_from(&mut src).expect("response decodes") {
        match frame {
            ControlFrame::Verdict { index, verdict, .. } => {
                assert_eq!(index as usize, verdicts.len(), "verdicts in order");
                assert!(summary.is_none(), "no verdicts after the summary");
                verdicts.push(verdict);
            }
            ControlFrame::Summary { summary: s, .. } => {
                assert!(summary.replace(s).is_none(), "exactly one summary");
            }
            ControlFrame::ShutdownAck => acked = true,
            other => panic!("unexpected daemon frame: {other:?}"),
        }
    }
    assert!(acked, "shutdown acknowledged");
    (verdicts, summary.expect("summary present"))
}

// ---------------------------------------------------------------------------
// The acceptance pin: TCP == duplex == in-process, at 1 and 4 connections
// ---------------------------------------------------------------------------

/// `high_water == 1` makes the streamed peak residency deterministic
/// (exactly one session resident at a time), so the full response byte
/// stream — Summary frame included — is comparable across transports.
#[test]
fn tcp_round_trip_is_byte_identical_to_duplex_and_in_process() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..4);
    let bytes = ingest::encode_batch(&jobs);
    let expected = sanity.audit_batch(
        &jobs,
        &AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        },
    );

    let mut request = Vec::new();
    ControlFrame::SubmitBatch {
        batch_id: 7,
        tdrb: bytes,
        reference: None,
    }
    .write_to(&mut request)
    .expect("encode");
    ControlFrame::Shutdown
        .write_to(&mut request)
        .expect("encode");

    // Reference bytes: the same exchange over the in-memory duplex.
    let duplex_bytes = {
        let service = sanity
            .audit_service()
            .workers(2)
            .high_water(1)
            .build()
            .expect("valid service configuration");
        let (client_end, server_end) = sanity_tdr::audit_pipeline::service::duplex();
        let daemon = std::thread::spawn(move || {
            let outcome = service.serve(&server_end, &server_end);
            service.shutdown();
            outcome
        });
        (&client_end).write_all(&request).expect("send request");
        let mut response = Vec::new();
        (&client_end)
            .read_to_end(&mut response)
            .expect("read to EOF");
        daemon
            .join()
            .expect("daemon thread")
            .expect("serve loop exits cleanly");
        response
    };

    // One TCP connection: the exact same bytes come back.
    let daemon = tcp_daemon(&sanity, 2, 1);
    let addr = daemon.local_addr();
    let tcp_bytes = round_trip_raw(addr, &request);
    assert_eq!(
        tcp_bytes, duplex_bytes,
        "TCP response stream must be byte-identical to the duplex path"
    );

    // ...and those bytes carry verdicts bit-identical to the in-process
    // audit of the same jobs.
    let (verdicts, summary) = decode_response(&tcp_bytes);
    assert_eq!(verdicts.len(), expected.verdicts.len());
    for (wire, local) in verdicts.iter().zip(&expected.verdicts) {
        assert_eq!(wire, local);
        assert_eq!(wire.score.to_bits(), local.score.to_bits());
    }
    assert_eq!(summary, expected.summary);

    // Four concurrent connections: every connection's response stream is
    // byte-identical to the single-connection (and duplex) bytes.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let request = request.clone();
            std::thread::spawn(move || round_trip_raw(addr, &request))
        })
        .collect();
    for handle in clients {
        let response = handle.join().expect("client thread");
        assert_eq!(
            response, duplex_bytes,
            "every concurrent connection sees identical bytes"
        );
    }

    let report = daemon.shutdown();
    assert_eq!(report.connections_accepted, 5);
    assert_eq!(report.connection_errors, 0);
    assert_eq!(report.connections_shed, 0, "no cap, nothing shed");
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "thread ledger unbalanced: every connection thread must be joined exactly once"
    );
    report.service.shutdown();
}

// ---------------------------------------------------------------------------
// Concurrent-client stress + graceful drain
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clients_get_bit_identical_verdicts_and_shutdown_drains() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..6);
    let cfg = AuditConfig {
        workers: 2,
        ..AuditConfig::default()
    };
    // Three distinct batches; every client submits all three.
    let batches: Vec<Vec<AuditJob>> = (0..3).map(|b| jobs[b * 2..b * 2 + 2].to_vec()).collect();
    let baselines: Vec<_> = batches
        .iter()
        .map(|b| sanity.audit_batch(b, &cfg))
        .collect();
    let batch_bytes: Vec<Vec<u8>> = batches.iter().map(|b| ingest::encode_batch(b)).collect();

    let daemon = tcp_daemon(&sanity, 2, 8);
    let addr = daemon.local_addr();

    const CLIENTS: usize = 4;
    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            let batch_bytes = batch_bytes.clone();
            let baselines: Vec<_> = baselines
                .iter()
                .map(|r| (r.verdicts.clone(), r.summary.clone()))
                .collect();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut client = Client::new(stream);
                for (m, bytes) in batch_bytes.iter().enumerate() {
                    let outcome = client
                        .submit_batch(c * 100 + m as u64, bytes.clone())
                        .expect("protocol clean");
                    assert_eq!(outcome.batch_id, c * 100 + m as u64);
                    let summary = outcome.result.expect("batch audits");
                    let (expected_verdicts, expected_summary) = &baselines[m];
                    assert_eq!(&outcome.verdicts, expected_verdicts);
                    for (wire, local) in outcome.verdicts.iter().zip(expected_verdicts) {
                        assert_eq!(wire.score.to_bits(), local.score.to_bits());
                    }
                    assert_eq!(&summary.summary, expected_summary);
                }
                client.shutdown().expect("connection shutdown acked");
            })
        })
        .collect();
    for handle in clients {
        handle.join().expect("client thread");
    }

    // Graceful drain: start shutting down while a client is mid-exchange.
    // The serve loop flushes verdicts as workers produce them, so the
    // first-verdict callback fires while the remaining sessions of this
    // full-fleet batch are still being audited — shutdown() must let the
    // connection finish in full regardless.
    let full_baseline = sanity.audit_batch(&jobs, &cfg);
    let full_bytes = ingest::encode_batch(&jobs);
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let (late_verdicts, late_summary) = (
        full_baseline.verdicts.clone(),
        full_baseline.summary.clone(),
    );
    let late = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut client = Client::new(stream);
        let outcome = client
            .submit(999, full_bytes, None, |index, _| {
                if index == 0 {
                    let _ = started_tx.send(());
                }
            })
            .expect("protocol clean through the drain");
        assert_eq!(outcome.verdicts, late_verdicts);
        assert_eq!(outcome.result.expect("batch audits").summary, late_summary);
        client.shutdown().expect("ack during drain");
    });
    started_rx
        .recv()
        .expect("late client got its first verdict");
    let report = daemon.shutdown(); // blocks until the late connection ends
    late.join().expect("late client thread");

    assert_eq!(report.connections_accepted, (CLIENTS + 1) as u64);
    assert_eq!(report.connection_errors, 0);
    assert_eq!(report.connections_shed, 0, "no cap, nothing shed");
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "thread ledger unbalanced: every connection thread must be joined exactly once"
    );
    assert_eq!(
        report.service.sessions_audited(),
        (CLIENTS * 3 * 2 + jobs.len()) as u64,
        "every submitted session audited exactly once"
    );
    report.service.shutdown();
}

// ---------------------------------------------------------------------------
// Stats plane: polling is read-only, timeouts reap stalled peers
// ---------------------------------------------------------------------------

/// A stats-polling client hammering `StatsRequest` while four clients
/// submit batches concurrently: every submitted batch still returns
/// bit-identical verdicts and summaries (observation must not perturb the
/// audit), the polled counters are monotonic, and the final snapshot
/// equals ground truth.
#[test]
fn stats_polling_client_perturbs_neither_verdicts_nor_summaries() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..6);
    let cfg = AuditConfig {
        workers: 2,
        ..AuditConfig::default()
    };
    let batches: Vec<Vec<AuditJob>> = (0..3).map(|b| jobs[b * 2..b * 2 + 2].to_vec()).collect();
    let baselines: Vec<_> = batches
        .iter()
        .map(|b| sanity.audit_batch(b, &cfg))
        .collect();
    let batch_bytes: Vec<Vec<u8>> = batches.iter().map(|b| ingest::encode_batch(b)).collect();

    let daemon = tcp_daemon(&sanity, 2, 8);
    let addr = daemon.local_addr();

    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("poller connects");
            let mut client = Client::new(stream);
            let mut polls = 0u64;
            let mut last_audited = 0u64;
            while !done.load(Ordering::Relaxed) {
                let snap = client.stats().expect("stats round trip");
                let audited = snap.counter("sessions_audited");
                assert!(
                    audited >= last_audited,
                    "counters are monotonic: {audited} < {last_audited}"
                );
                last_audited = audited;
                assert_eq!(snap.counter("conn_errors"), 0);
                assert!(snap.gauge("conn_active") >= 1, "the poller itself");
                polls += 1;
            }
            client.shutdown().expect("poller shutdown acked");
            polls
        })
    };

    const CLIENTS: usize = 4;
    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            let batch_bytes = batch_bytes.clone();
            let baselines: Vec<_> = baselines
                .iter()
                .map(|r| (r.verdicts.clone(), r.summary.clone()))
                .collect();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut client = Client::new(stream);
                for (m, bytes) in batch_bytes.iter().enumerate() {
                    let outcome = client
                        .submit_batch(c * 100 + m as u64, bytes.clone())
                        .expect("protocol clean");
                    let summary = outcome.result.expect("batch audits");
                    let (expected_verdicts, expected_summary) = &baselines[m];
                    assert_eq!(&outcome.verdicts, expected_verdicts);
                    for (wire, local) in outcome.verdicts.iter().zip(expected_verdicts) {
                        assert_eq!(wire.score.to_bits(), local.score.to_bits());
                    }
                    assert_eq!(&summary.summary, expected_summary);
                }
                client.shutdown().expect("connection shutdown acked");
            })
        })
        .collect();
    for handle in clients {
        handle.join().expect("client thread");
    }
    done.store(true, Ordering::Relaxed);
    let polls = poller.join().expect("poller thread");
    assert!(polls > 0, "the poller actually polled");

    let report = daemon.shutdown();
    assert_eq!(report.connections_accepted, (CLIENTS + 1) as u64);
    assert_eq!(report.connection_errors, 0);
    assert_eq!(report.connections_shed, 0, "no cap, nothing shed");
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "thread ledger unbalanced: every connection thread must be joined exactly once"
    );
    let sessions = (CLIENTS * 3 * 2) as u64;
    assert_eq!(report.service.sessions_audited(), sessions);
    assert_eq!(report.snapshot.counter("sessions_audited"), sessions);
    assert_eq!(report.snapshot.counter("sessions_submitted"), sessions);
    assert_eq!(
        report.snapshot.counter("batches_completed"),
        (CLIENTS * 3) as u64
    );
    assert_eq!(
        report.snapshot.counter("frames_in_stats_request"),
        polls,
        "one Stats answer per poll"
    );
    report.service.shutdown();
}

/// `DaemonOptions::idle_timeout` reaps a slow-loris opener: the stalled
/// connection ends with the typed `IdleTimeout` error (counted by
/// `conn_idle_timeout`), its thread is freed, and healthy clients on the
/// same daemon are untouched.
#[test]
fn idle_timeout_reaps_stalled_connections_with_a_typed_error() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..2);
    let bytes = ingest::encode_batch(&jobs);
    let service = sanity
        .audit_service()
        .workers(2)
        .build()
        .expect("valid service configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let daemon = serve_tcp_with(
        service,
        listener,
        DaemonOptions {
            idle_timeout: Some(Duration::from_millis(250)),
            ..DaemonOptions::default()
        },
    )
    .expect("daemon starts");
    let addr = daemon.local_addr();

    // A slow-loris opener: two bytes of a length prefix, then silence.
    // Without the timeout this parks a connection thread forever (the
    // default-off behavior the other tests pin); with it, the daemon
    // reaps the connection — observed here as EOF/reset on our end.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(&[0x10, 0x00]).expect("partial prefix");
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("guard timeout");
    let mut buf = [0u8; 1];
    let reaped = matches!(stalled.read(&mut buf), Ok(0) | Err(_));
    assert!(reaped, "daemon reaped the stalled connection");

    // A healthy client is unaffected and sees the typed tally.
    let mut client = Client::new(TcpStream::connect(addr).expect("connect"));
    let outcome = client.submit_batch(1, bytes).expect("protocol clean");
    outcome.result.expect("batch audits");
    let snap = client.stats().expect("stats over TCP");
    assert_eq!(snap.counter("conn_idle_timeout"), 1);
    assert_eq!(snap.counter("control_err_idle_timeout"), 1);
    client.shutdown().expect("ack");

    let report = daemon.shutdown();
    assert_eq!(report.connections_accepted, 2);
    assert_eq!(
        report.connection_errors, 1,
        "the stalled connection, and only it"
    );
    assert_eq!(report.connections_shed, 0, "no cap, nothing shed");
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "thread ledger unbalanced: every connection thread must be joined exactly once"
    );
    assert_eq!(report.snapshot.counter("conn_idle_timeout"), 1);
    report.service.shutdown();
}

// ---------------------------------------------------------------------------
// Slow-loris / partial writes / mid-frame stalls
// ---------------------------------------------------------------------------

#[test]
fn slow_loris_and_mid_frame_stalls_are_isolated_per_connection() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..3);
    let bytes = ingest::encode_batch(&jobs);
    let cfg = AuditConfig {
        workers: 2,
        ..AuditConfig::default()
    };
    let expected = sanity.audit_batch(&jobs, &cfg);

    // Tight residency bound: a leaked worker-residency slot would wedge
    // every later streamed submission, so the post-stall submissions below
    // double as the leak detector.
    let daemon = tcp_daemon(&sanity, 2, 1);
    let addr = daemon.local_addr();

    let mut request = Vec::new();
    ControlFrame::SubmitBatch {
        batch_id: 1,
        tdrb: bytes.clone(),
        reference: None,
    }
    .write_to(&mut request)
    .expect("encode");

    // Connection 1 stalls mid-frame: two bytes of a length prefix, then
    // nothing — a classic slow-loris opener.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(&request[..2]).expect("partial prefix");

    // Connection 2 dribbles the whole request one byte per write while
    // connection 1 is stalled; it must be served in full regardless.
    let mut dribble = TcpStream::connect(addr).expect("connect");
    for byte in &request {
        dribble.write_all(std::slice::from_ref(byte)).expect("drip");
    }
    let mut verdicts = Vec::new();
    let summary = loop {
        match ControlFrame::read_from(&mut dribble)
            .expect("response decodes")
            .expect("daemon is up")
        {
            ControlFrame::Verdict { verdict, index, .. } => {
                assert_eq!(index as usize, verdicts.len());
                verdicts.push(verdict);
            }
            ControlFrame::Summary { summary, .. } => break summary,
            other => panic!("unexpected daemon frame: {other:?}"),
        }
    };
    assert_eq!(verdicts, expected.verdicts);
    assert_eq!(summary, expected.summary);
    drop(dribble); // clean EOF at a frame boundary: not an error

    // The stalled peer vanishes mid-frame: its connection errors (typed
    // Truncated on the daemon side), everyone else keeps being served.
    drop(stalled);
    let follow_up = TcpStream::connect(addr).expect("connect");
    let mut client = Client::new(follow_up);
    let outcome = client
        .submit_batch(2, bytes.clone())
        .expect("protocol clean");
    assert_eq!(outcome.verdicts, expected.verdicts);
    assert_eq!(
        outcome.result.expect("batch audits").summary,
        expected.summary
    );
    client.shutdown().expect("ack");

    let report = daemon.shutdown();
    assert_eq!(report.connections_accepted, 3);
    assert_eq!(
        report.connection_errors, 1,
        "exactly the stalled connection errored"
    );
    assert_eq!(report.connections_shed, 0, "no cap, nothing shed");
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "thread ledger unbalanced: every connection thread must be joined exactly once"
    );

    // No residency slot leaked: the warm service still streams a full
    // batch under the same high-water bound of 1.
    let stream = report
        .service
        .submit(Sessions::tdrb(std::io::Cursor::new(bytes)), None)
        .expect("header decodes")
        .wait()
        .expect("stream audits after the stall");
    assert_eq!(stream.summary, expected.summary);
    assert_eq!(stream.peak_resident, 1);
    report.service.shutdown();
}

// ---------------------------------------------------------------------------
// Connection-level garbage
// ---------------------------------------------------------------------------

/// Seeded mutations of a request stream thrown at raw TCP connections:
/// each connection's outcome (in-band service vs typed connection error)
/// must match `AuditService::serve` over the same bytes in memory, and
/// the daemon must keep serving throughout.
#[test]
fn connection_level_garbage_never_kills_the_daemon() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..3);
    let bytes = ingest::encode_batch(&jobs);
    let cfg = AuditConfig {
        workers: 2,
        ..AuditConfig::default()
    };
    let expected = sanity.audit_batch(&jobs, &cfg);

    let mut request = Vec::new();
    ControlFrame::SubmitBatch {
        batch_id: 3,
        tdrb: bytes.clone(),
        reference: None,
    }
    .write_to(&mut request)
    .expect("encode");
    ControlFrame::Shutdown
        .write_to(&mut request)
        .expect("encode");

    // The in-memory oracle: what `serve` does with each mutated stream.
    let oracle = sanity
        .audit_service()
        .workers(1)
        .build()
        .expect("valid service configuration");

    let daemon = tcp_daemon(&sanity, 2, 8);
    let addr = daemon.local_addr();
    let mut expected_errors = 0u64;
    const CONNS: u64 = 20;
    let mut rng = StdRng::seed_from_u64(0x07d5_e7c9);
    for _seed in 0..CONNS {
        let mutated = mutate(&mut rng, &request);
        if oracle.serve(&mutated[..], std::io::sink()).is_err() {
            expected_errors += 1;
        }
        let mut conn = TcpStream::connect(addr).expect("connect");
        // The daemon may error and close mid-write; that only this
        // connection cares about.
        let _ = conn.write_all(&mutated);
        let _ = conn.shutdown(Shutdown::Write); // deliver EOF like the oracle
        let mut sink = Vec::new();
        let _ = conn.read_to_end(&mut sink); // drain until the daemon closes
    }
    oracle.shutdown();

    // Still serving, verdicts still bit-identical.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut client = Client::new(stream);
    let outcome = client.submit_batch(42, bytes).expect("protocol clean");
    assert_eq!(outcome.verdicts, expected.verdicts);
    assert_eq!(
        outcome.result.expect("batch audits").summary,
        expected.summary
    );
    client.shutdown().expect("ack");

    let report = daemon.shutdown();
    assert_eq!(report.connections_accepted, CONNS + 1);
    assert_eq!(
        report.connection_errors, expected_errors,
        "every connection's outcome matches the in-memory serve oracle"
    );
    assert_eq!(report.connections_shed, 0, "no cap, nothing shed");
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "thread ledger unbalanced: every connection thread must be joined exactly once"
    );
    report.service.shutdown();
}

// ---------------------------------------------------------------------------
// Connection-cap shedding
// ---------------------------------------------------------------------------

/// `DaemonOptions::max_conns`: connections past the cap are shed with one
/// connection-scoped `Busy` frame and a close — typed on the client side
/// as `ControlError::Busy` — and the accounting is exact: every TCP
/// connect the daemon answered is either accepted or shed, never both,
/// and shed connections are not errors.
#[test]
fn over_cap_connections_are_shed_with_a_typed_busy_frame() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..2);
    let bytes = ingest::encode_batch(&jobs);
    let service = sanity
        .audit_service()
        .workers(2)
        .build()
        .expect("valid service configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let daemon = serve_tcp_with(
        service,
        listener,
        DaemonOptions {
            max_conns: Some(2),
            ..DaemonOptions::default()
        },
    )
    .expect("daemon starts");
    let addr = daemon.local_addr();

    // Fill the cap with two held connections, each proven live (a full
    // stats round trip means its serve thread is running and counted).
    let mut held: Vec<_> = (0..2)
        .map(|_| Client::new(TcpStream::connect(addr).expect("connect")))
        .collect();
    for client in &mut held {
        client.stats().expect("held connection serves");
    }

    // Three probes decode the refusal off the raw socket: exactly one
    // Busy frame — connection-scoped, batch_id 0 — then EOF. The probes
    // deliberately write nothing: bytes arriving at a socket the daemon
    // already closed would RST the connection and discard the buffered
    // refusal (kernel semantics, not daemon behavior).
    for _ in 0..3 {
        let mut probe = TcpStream::connect(addr).expect("connect");
        let frame = ControlFrame::read_from(&mut probe)
            .expect("refusal decodes")
            .expect("daemon answers before closing");
        assert_eq!(
            frame,
            ControlFrame::Busy {
                batch_id: 0,
                scope: sanity_tdr::BusyScope::Connections,
                active: 2,
                limit: 2,
            }
        );
        let mut rest = Vec::new();
        probe.read_to_end(&mut rest).expect("read to EOF");
        assert!(rest.is_empty(), "nothing after the Busy frame");
    }

    // Freeing a slot re-opens admission: after the held connections shut
    // down, a new client is served in full. The serve threads observe the
    // shutdown asynchronously and admission rechecks on every accept, so
    // probe first — a shed connection hears the daemon speak first (the
    // refusal), an admitted one hears silence (the daemon awaits a
    // request) — and retry until admitted.
    for client in held {
        client.shutdown().expect("held connection acks");
    }
    let outcome = loop {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("probe timeout");
        let mut first = [0u8; 1];
        match stream.peek(&mut first) {
            Ok(_) => {
                // Shed again: confirm the refusal, give the serve threads
                // a moment, retry.
                let frame = ControlFrame::read_from(&mut stream)
                    .expect("refusal decodes")
                    .expect("daemon answers before closing");
                assert!(matches!(
                    frame,
                    ControlFrame::Busy {
                        batch_id: 0,
                        scope: sanity_tdr::BusyScope::Connections,
                        ..
                    }
                ));
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Admitted: the daemon is waiting for our first request.
                stream.set_read_timeout(None).expect("clear probe timeout");
                let mut client = Client::new(stream);
                let outcome = client
                    .submit_batch(9, bytes.clone())
                    .expect("protocol clean after the cap drains");
                client.shutdown().expect("ack");
                break outcome;
            }
            Err(e) => panic!("unexpected probe error while the cap drains: {e}"),
        }
    };
    outcome.result.expect("batch audits after the cap drains");

    let report = daemon.shutdown();
    // Exact accounting: 2 held + 1 final success accepted; 3 probes plus
    // any Busy-refused retries shed; nothing errored, nothing lost.
    assert_eq!(report.connections_accepted, 3);
    assert_eq!(
        report.connection_errors, 0,
        "shed connections are not errors"
    );
    assert!(report.connections_shed >= 3);
    // Shed connections never spawn a serve thread, so the thread ledger
    // balances against *accepted* connections only.
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        report.connections_accepted,
        "thread ledger unbalanced: every connection thread must be joined exactly once"
    );
    assert_eq!(
        report.snapshot.counter("conn_shed"),
        report.connections_shed
    );
    assert_eq!(
        report.snapshot.counter("frames_out_busy"),
        report.connections_shed,
        "one Busy frame per shed connection"
    );
    report.service.shutdown();
}

// ---------------------------------------------------------------------------
// Thread-ledger hygiene: finished connections are reaped without new accepts
// ---------------------------------------------------------------------------

/// Regression: a daemon that stops receiving connects must not hold a
/// handle for every connection it ever served until the next accept.
/// Each exiting connection thread reaps its finished predecessors, so
/// after N sequential connections end, at most the last one to finish
/// stays unreaped (a thread cannot join itself) — observable on the live
/// `conn_reaped` counter with zero further accepts.
#[test]
fn idle_daemon_reaps_finished_connection_threads_without_new_accepts() {
    const CONNS: u64 = 4;
    let sanity = echo_sanity();
    let daemon = tcp_daemon(&sanity, 2, 1);
    let addr = daemon.local_addr();

    for _ in 0..CONNS {
        let client = Client::new(TcpStream::connect(addr).expect("connect"));
        client.shutdown().expect("shutdown ack");
    }

    // The serve threads finish asynchronously after the Shutdown acks;
    // each one's exit-path reap joins every predecessor that already
    // finished. Poll the live counter — no connects happen here.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let reaped = daemon.service().metrics_snapshot().counter("conn_reaped");
        assert!(reaped <= CONNS, "a thread was joined twice");
        if reaped >= CONNS - 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle daemon kept {} of {CONNS} finished connection threads unreaped",
            CONNS - reaped
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = daemon.shutdown();
    assert_eq!(report.connections_accepted, CONNS);
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        CONNS,
        "shutdown joins the remainder exactly once"
    );
    report.service.shutdown();
}
