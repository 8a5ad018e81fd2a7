//! Daemon mode: warm-service batch latency through the TDRC control
//! plane vs cold per-call pool spin-up.
//!
//! A persistent `AuditService` is started once and served over an
//! in-memory duplex (the same `serve(reader, writer)` loop a socket
//! would drive). A client submits TDRB batches as
//! `ControlFrame::SubmitBatch` requests and times each request→summary
//! round trip; the cold baseline audits the identical bytes through the
//! cold path, a fresh service (worker pool and caches) per batch. Summaries are asserted identical — the daemon can never change
//! a verdict — and `BENCH_daemon.json` records per-batch latency for
//! both paths plus the warm/cold ratio.

use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use jbc::hll::{dsl::*, HTy, Module};
use jbc::ElemTy;
use sanity_tdr::audit_pipeline::service::duplex;
use sanity_tdr::audit_pipeline::{ingest, FleetSummary};
use sanity_tdr::{
    serve_tcp_with, AuditConfig, AuditJob, Client, ControlFrame, DaemonOptions, Sanity,
};

use super::{audit_tdrb_cold, Options};

const BATCHES: usize = 6;
const WORKERS: usize = 4;

/// One-request echo server: small sessions keep the audit itself cheap,
/// so the per-batch fixed costs this experiment measures are visible.
fn echo_program() -> jbc::Program {
    let mut m = Module::new("Echo");
    m.native("wait_packet", &[], None);
    m.native("net_recv", &[HTy::Arr(ElemTy::I8)], Some(HTy::I32));
    m.native("net_send", &[HTy::Arr(ElemTy::I8), HTy::I32], None);
    m.func(fn_void(
        "main",
        vec![],
        vec![
            let_("buf", newarr(ElemTy::I8, i(64))),
            expr(native("wait_packet", vec![])),
            let_("len", native("net_recv", vec![var("buf")])),
            expr(native("net_send", vec![var("buf"), var("len")])),
        ],
    ));
    m.compile().expect("compile")
}

fn build_batches(sanity: &Sanity, batches: usize, per_batch: usize) -> Vec<Vec<u8>> {
    (0..batches)
        .map(|b| {
            let jobs: Vec<AuditJob> = (0..per_batch as u64)
                .map(|id| {
                    let payload = vec![7 + ((b as u8) ^ (id as u8)); 32];
                    let rec = sanity
                        .record(1_000 * b as u64 + id, move |vm| {
                            vm.machine_mut().deliver_packet(100_000, payload);
                        })
                        .expect("record");
                    AuditJob {
                        session_id: id,
                        observed_ipds: rec.tx_ipds_cycles(),
                        log: rec.log,
                    }
                })
                .collect();
            ingest::encode_batch(&jobs)
        })
        .collect()
}

/// Run the warm-daemon vs cold-spin-up latency comparison.
pub fn run(opts: &Options) {
    println!("== audit daemon: warm service vs per-call pool spin-up ==\n");
    let per_batch = opts.runs_or(16, 48);
    let sanity = Sanity::new(echo_program());
    let t0 = Instant::now();
    let batches = build_batches(&sanity, BATCHES, per_batch);
    println!(
        "recorded {BATCHES} batches of {per_batch} echo sessions in {:.1}s\n",
        t0.elapsed().as_secs_f64()
    );

    let cfg = AuditConfig {
        workers: WORKERS,
        ..AuditConfig::default()
    };

    // Cold baseline: every batch pays worker spawn + cache build + pool
    // teardown on a fresh service.
    let mut cold_ms = Vec::with_capacity(BATCHES);
    let mut cold_summaries = Vec::with_capacity(BATCHES);
    for bytes in &batches {
        let t = Instant::now();
        let report = audit_tdrb_cold(&sanity, bytes, &cfg);
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        cold_summaries.push(report.summary);
    }

    // Warm daemon: one service, served over an in-memory duplex exactly
    // as a socket transport would drive it.
    let service = sanity
        .audit_service()
        .workers(WORKERS)
        .build()
        .expect("valid service configuration");
    let (client_end, server) = duplex();
    let mut client = Client::new(client_end);
    let server_thread = std::thread::spawn(move || {
        let outcome = service.serve(&server, &server);
        service.shutdown();
        outcome
    });

    let mut warm_ms = Vec::with_capacity(BATCHES);
    for (b, bytes) in batches.iter().enumerate() {
        let t = Instant::now();
        let outcome = client
            .submit_batch(b as u64, bytes.clone())
            .expect("protocol clean");
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let summary = outcome.result.expect("daemon audits the batch").summary;
        assert_eq!(outcome.verdicts.len() as u64, summary.sessions);
        assert_eq!(
            summary, cold_summaries[b],
            "daemon summary must be byte-identical to the one-shot path"
        );
    }
    client.shutdown().expect("daemon acks the shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("daemon loop exits cleanly");

    let cold_mean = cold_ms.iter().sum::<f64>() / BATCHES as f64;
    let warm_mean = warm_ms.iter().sum::<f64>() / BATCHES as f64;
    let ratio = warm_mean / cold_mean;
    println!(" batch   cold (ms)   warm (ms)");
    for b in 0..BATCHES {
        println!("  {b:>4}   {:>9.2}   {:>9.2}", cold_ms[b], warm_ms[b]);
    }
    println!("\ncold mean {cold_mean:.2} ms, warm mean {warm_mean:.2} ms, warm/cold {ratio:.3}");
    println!("(daemon summaries byte-identical to the one-shot path)");

    let mut rows = String::new();
    for b in 0..BATCHES {
        let _ = write!(
            rows,
            "{}    {{\"batch\": {b}, \"cold_ms\": {:.4}, \"warm_ms\": {:.4}}}",
            if rows.is_empty() { "" } else { ",\n" },
            cold_ms[b],
            warm_ms[b]
        );
    }
    let json = format!(
        "{{\n  \"batches\": {BATCHES},\n  \"sessions_per_batch\": {per_batch},\n  \
         \"workers\": {WORKERS},\n  \"cold_mean_ms\": {cold_mean:.4},\n  \
         \"warm_mean_ms\": {warm_mean:.4},\n  \"warm_cold_ratio\": {ratio:.4},\n  \
         \"per_batch\": [\n{rows}\n  ]\n}}\n"
    );
    opts.write("BENCH_daemon.json", &json);
}

/// Batches each TCP client submits during the connection-count sweep.
const TCP_BATCHES_PER_CONN: usize = 3;

/// `repro daemon --tcp`: the daemon behind a real localhost `TcpListener`
/// (`serve_tcp_with`, connection-per-thread), swept over concurrent client
/// connection counts. Every connection multiplexes onto the **same** warm
/// worker pool; the sweep measures how fleet throughput scales as more
/// log sources connect at once. Summaries are asserted byte-identical to
/// the one-shot in-process path per batch, and the daemon must finish the
/// sweep with zero connection errors.
pub fn run_tcp(opts: &Options) {
    println!("== audit daemon over TCP: throughput vs concurrent connections ==\n");
    let per_batch = opts.runs_or(16, 48);
    let sanity = Sanity::new(echo_program());
    let t0 = Instant::now();
    let batches = build_batches(&sanity, TCP_BATCHES_PER_CONN, per_batch);
    println!(
        "recorded {} batches of {per_batch} echo sessions in {:.1}s",
        batches.len(),
        t0.elapsed().as_secs_f64()
    );

    let cfg = AuditConfig {
        workers: WORKERS,
        ..AuditConfig::default()
    };
    // The in-process reference summaries the wire results must match.
    let expected: Vec<FleetSummary> = batches
        .iter()
        .map(|bytes| audit_tdrb_cold(&sanity, bytes, &cfg).summary)
        .collect();

    let sweep_conns = [1usize, 2, 4];
    let mut results: Vec<(usize, f64, f64)> = Vec::new(); // (conns, wall_ms, sessions/s)
    for &conns in &sweep_conns {
        let service = sanity
            .audit_service()
            .workers(WORKERS)
            .build()
            .expect("valid service configuration");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let daemon =
            serve_tcp_with(service, listener, DaemonOptions::default()).expect("daemon starts");
        let addr = daemon.local_addr();

        // Clone each client's corpus *before* the timer starts: the copy
        // is harness setup, and charging it to the timed region would
        // skew the scaling curve more at higher connection counts.
        let per_client: Vec<(Vec<Vec<u8>>, Vec<FleetSummary>)> = (0..conns)
            .map(|_| (batches.clone(), expected.clone()))
            .collect();
        let t = Instant::now();
        let clients: Vec<std::thread::JoinHandle<()>> = per_client
            .into_iter()
            .enumerate()
            .map(|(c, (batches, expected))| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut client = Client::new(stream);
                    for (b, bytes) in batches.iter().enumerate() {
                        let outcome = client
                            .submit_batch((c * batches.len() + b) as u64, bytes.clone())
                            .expect("protocol clean");
                        let summary = outcome.result.expect("batch audits");
                        assert_eq!(
                            summary.summary, expected[b],
                            "TCP summary must match the in-process path"
                        );
                    }
                    client.shutdown().expect("connection shutdown acked");
                })
            })
            .collect();
        for handle in clients {
            handle.join().expect("client thread");
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let sessions = (conns * batches.len() * per_batch) as f64;

        // Stats cross-check: a probe connection fetches a live TDRC
        // `Stats` snapshot and its counters must equal ground truth —
        // every session the clients submitted was counted, exactly once.
        {
            let stream = TcpStream::connect(addr).expect("stats probe connects");
            let mut probe = Client::new(stream);
            let snap = probe.stats().expect("stats over TCP");
            assert_eq!(
                snap.counter("sessions_audited"),
                sessions as u64,
                "snapshot sessions == submitted sessions"
            );
            assert_eq!(snap.counter("sessions_submitted"), sessions as u64);
            assert_eq!(
                snap.counter("batches_completed"),
                (conns * TCP_BATCHES_PER_CONN) as u64
            );
            assert_eq!(snap.counter("conn_accepted"), conns as u64 + 1);
            // The probe itself is one active connection; a just-shut-down
            // client's serve thread may not have decremented yet (the
            // client learns of ShutdownAck before the daemon-side cleanup
            // runs), so the live gauge is bounded, not exact.
            let active = snap.gauge("conn_active");
            assert!(
                (1..=conns as u64 + 1).contains(&active),
                "conn_active {active} outside [1, {}]",
                conns + 1
            );
            assert_eq!(snap.counter("conn_errors"), 0);
            probe.shutdown().expect("probe shutdown acked");
        }

        let report = daemon.shutdown();
        // The probe connection is the +1; the final report is a view of
        // the same metric set the Stats frame exported.
        assert_eq!(report.connections_accepted, conns as u64 + 1);
        assert_eq!(report.connection_errors, 0, "no connection may error");
        assert_eq!(report.service.sessions_audited(), sessions as u64);
        assert_eq!(report.snapshot.counter("sessions_audited"), sessions as u64);
        report.service.shutdown();

        let throughput = sessions / (wall_ms / 1e3);
        println!(
            "  {conns} connection(s): {:.1} ms wall, {:.0} sessions/s",
            wall_ms, throughput
        );
        results.push((conns, wall_ms, throughput));
    }

    println!("\n(all wire summaries byte-identical to the in-process path)");
    let mut rows = String::new();
    for (conns, wall_ms, throughput) in &results {
        let _ = write!(
            rows,
            "{}    {{\"connections\": {conns}, \"wall_ms\": {wall_ms:.4}, \
             \"sessions_per_sec\": {throughput:.2}}}",
            if rows.is_empty() { "" } else { ",\n" },
        );
    }
    let json = format!(
        "{{\n  \"workers\": {WORKERS},\n  \"sessions_per_batch\": {per_batch},\n  \
         \"batches_per_connection\": {TCP_BATCHES_PER_CONN},\n  \"sweep\": [\n{rows}\n  ]\n}}\n"
    );
    opts.write("BENCH_daemon_tcp.json", &json);
}

/// Canonical byte encoding of a merged summary. The topology-dependent
/// `Summary` frame fields (workers, peak resident) are pinned to zero so
/// the comparison covers exactly the content inside the determinism
/// boundary — verdicts, scores, and fleet aggregates.
fn summary_bytes(summary: &FleetSummary) -> Vec<u8> {
    ControlFrame::Summary {
        batch_id: 0,
        workers: 0,
        peak_resident: 0,
        summary: summary.clone(),
    }
    .encode()
}

/// Echo server with a deterministic compute loop between receive and
/// send. The coordinator sweep uses this instead of the one-request
/// [`echo_program`]: per-session replay cost must dominate routing
/// overhead for the fleet-size scaling curve to measure the backends
/// rather than the coordinator's frame forwarding.
fn busy_echo_program(spin: i32) -> jbc::Program {
    let mut m = Module::new("BusyEcho");
    m.native("wait_packet", &[], None);
    m.native("net_recv", &[HTy::Arr(ElemTy::I8)], Some(HTy::I32));
    m.native("net_send", &[HTy::Arr(ElemTy::I8), HTy::I32], None);
    m.func(fn_void(
        "main",
        vec![],
        vec![
            let_("buf", newarr(ElemTy::I8, i(64))),
            expr(native("wait_packet", vec![])),
            let_("len", native("net_recv", vec![var("buf")])),
            let_("acc", i(1)),
            for_(
                "k",
                i(0),
                i(spin),
                vec![set(
                    "acc",
                    bxor(mul(var("acc"), i(31)), add(var("k"), var("len"))),
                )],
            ),
            // Fold the checksum into the reply so the loop cannot be
            // dead-code-eliminated by any future optimizer pass.
            set_idx(var("buf"), i(0), band(var("acc"), i(127))),
            expr(native("net_send", vec![var("buf"), var("len")])),
        ],
    ));
    m.compile().expect("compile")
}

/// Scripted backend that accepts every coordinator dial, reads exactly
/// one frame, and hangs up: a backend that dies mid-batch, every time.
fn dying_backend() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind dying backend");
    let addr = listener.local_addr().expect("dying backend addr");
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            let _ = ControlFrame::read_from(&mut stream);
        }
    });
    addr
}

/// `repro daemon --tcp --backends N`: a TDRC coordinator sharding one
/// client's batches across backend-daemon fleets of increasing size.
/// Every merged summary must stay byte-identical to the single-daemon
/// in-process audit at every fleet size — including the final cell,
/// where one backend dies mid-batch and its shard is retried on the
/// survivor. `BENCH_coordinator.json` records sessions/s per fleet size
/// plus the killed-backend cell.
pub fn run_coordinator(opts: &Options) {
    let max = opts.backends;
    println!("== coordinator: throughput vs backend fleet size ==\n");
    let per_batch = opts.runs_or(32, 96);
    let sanity = Sanity::new(busy_echo_program(60_000));
    let t0 = Instant::now();
    let batches = build_batches(&sanity, TCP_BATCHES_PER_CONN, per_batch);
    println!(
        "recorded {} batches of {per_batch} echo sessions in {:.1}s",
        batches.len(),
        t0.elapsed().as_secs_f64()
    );

    let cfg = AuditConfig {
        workers: WORKERS,
        ..AuditConfig::default()
    };
    // The single-daemon reference bytes every merged summary must match.
    let expected: Vec<Vec<u8>> = batches
        .iter()
        .map(|bytes| summary_bytes(&audit_tdrb_cold(&sanity, bytes, &cfg).summary))
        .collect();
    let sessions = (batches.len() * per_batch) as f64;

    // Fleet sizes: powers of two up to the requested maximum.
    let mut sizes = Vec::new();
    let mut n = 1usize;
    while n < max {
        sizes.push(n);
        n *= 2;
    }
    sizes.push(max);

    // Per fleet size: (fleet, wall_ms, wall sessions/s, deterministic
    // makespan ms, modeled sessions/s). Wall clock measures this host —
    // on a single-core runner every backend shares one CPU and the wall
    // curve stays flat. The makespan is the fleet quantity: each backend
    // counts the deterministic virtual cycles its shard replays
    // (`replayed_cycles`), and a fleet of independent
    // hosts finishes when its busiest member does, i.e. after
    // max-over-backends cycles. That maximum shrinks ~1/N under the
    // session-id shard function, so modeled sessions/s scales
    // near-linearly regardless of the runner's core count.
    let mut results: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
    for &fleet in &sizes {
        let backends: Vec<_> = (0..fleet)
            .map(|_| {
                let service = sanity
                    .audit_service()
                    .workers(WORKERS)
                    .build()
                    .expect("valid service configuration");
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
                serve_tcp_with(service, listener, DaemonOptions::default()).expect("backend starts")
            })
            .collect();
        let addrs: Vec<String> = backends
            .iter()
            .map(|d| d.local_addr().to_string())
            .collect();
        let coordinator = sanity_tdr::serve_coordinator(
            TcpListener::bind("127.0.0.1:0").expect("bind coordinator"),
            addrs,
        )
        .expect("coordinator starts");

        let t = Instant::now();
        let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
        let mut client = Client::new(stream);
        for (b, bytes) in batches.iter().enumerate() {
            let outcome = client
                .submit_batch(b as u64, bytes.clone())
                .expect("protocol clean");
            let summary = outcome.result.expect("batch audits");
            assert_eq!(
                summary_bytes(&summary.summary),
                expected[b],
                "merged summary must be byte-identical to the single-daemon audit"
            );
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;

        // Routing counters over the pinned Stats plane: every session
        // routed exactly once, and a healthy fleet never retries.
        let snap = client.stats().expect("stats over TCP");
        assert_eq!(snap.counter("coord_batches_routed"), batches.len() as u64);
        assert_eq!(snap.counter("coord_sessions_routed"), sessions as u64);
        assert_eq!(
            snap.counter("coord_retries"),
            0,
            "healthy fleet: no retries"
        );
        assert_eq!(snap.counter("coord_backend_failures"), 0);
        client.shutdown().expect("connection shutdown acked");

        let report = coordinator.shutdown();
        assert_eq!(report.connection_errors, 0, "no connection may error");
        let mut audited = 0u64;
        let mut max_cycles = 0u64;
        for daemon in backends {
            let report = daemon.shutdown();
            audited += report.service.sessions_audited();
            max_cycles = max_cycles.max(report.snapshot.counter("replayed_cycles"));
            report.service.shutdown();
        }
        assert_eq!(
            audited, sessions as u64,
            "the fleet audits every session exactly once"
        );

        let throughput = sessions / (wall_ms / 1e3);
        let makespan_ms = super::cycles_to_ms(max_cycles);
        let modeled = sessions / (makespan_ms / 1e3);
        println!(
            "  {fleet} backend(s): {wall_ms:.1} ms wall ({throughput:.0} sessions/s), \
             deterministic makespan {makespan_ms:.1} ms ({modeled:.0} sessions/s)"
        );
        results.push((fleet, wall_ms, throughput, makespan_ms, modeled));
    }

    // Killed-backend cell: backend 0 accepts the dial, reads the first
    // frame of every connection, and hangs up. Its shard must be retried
    // on the survivor without changing a byte of the merged summary.
    let survivor = {
        let service = sanity
            .audit_service()
            .workers(WORKERS)
            .build()
            .expect("valid service configuration");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
        serve_tcp_with(service, listener, DaemonOptions::default()).expect("backend starts")
    };
    let dying = dying_backend();
    let coordinator = sanity_tdr::serve_coordinator(
        TcpListener::bind("127.0.0.1:0").expect("bind coordinator"),
        vec![dying.to_string(), survivor.local_addr().to_string()],
    )
    .expect("coordinator starts");

    let t = Instant::now();
    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    for (b, bytes) in batches.iter().enumerate() {
        let outcome = client
            .submit_batch(b as u64, bytes.clone())
            .expect("protocol clean");
        let summary = outcome
            .result
            .expect("survivor takes the dead backend's shard");
        assert_eq!(
            summary_bytes(&summary.summary),
            expected[b],
            "retried shard must not change a byte of the merged summary"
        );
    }
    let killed_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let snap = client.stats().expect("stats over TCP");
    let retries = snap.counter("coord_retries");
    assert!(retries >= 1, "the dead backend's shard must be retried");
    assert!(snap.counter("coord_backend_failures") >= 1);
    client.shutdown().expect("connection shutdown acked");
    let report = coordinator.shutdown();
    assert_eq!(report.connection_errors, 0, "no connection may error");
    let survivor_report = survivor.shutdown();
    assert_eq!(
        survivor_report.service.sessions_audited(),
        sessions as u64,
        "the survivor ends up auditing the whole load"
    );
    survivor_report.service.shutdown();
    let killed_throughput = sessions / (killed_wall_ms / 1e3);
    println!(
        "  killed-backend cell (fleet of 2, one dead): {killed_wall_ms:.1} ms wall, \
         {killed_throughput:.0} sessions/s, {retries} retried shard submissions"
    );

    println!("\n(all merged summaries byte-identical to the single-daemon audit)");

    // The scaling claim, asserted: the deterministic makespan must shrink
    // near-linearly with fleet size. 0.7 leaves room for the uneven last
    // shard when the fleet size does not divide the session count.
    let base_makespan = results[0].3;
    let mut rows = String::new();
    for (fleet, wall_ms, throughput, makespan_ms, modeled) in &results {
        let speedup = base_makespan / makespan_ms;
        assert!(
            speedup >= 0.7 * *fleet as f64,
            "fleet of {fleet}: makespan speedup {speedup:.2} is not near-linear"
        );
        let _ = write!(
            rows,
            "{}    {{\"backends\": {fleet}, \"wall_ms\": {wall_ms:.4}, \
             \"sessions_per_sec\": {throughput:.2}, \"makespan_ms\": {makespan_ms:.4}, \
             \"modeled_sessions_per_sec\": {modeled:.2}, \"speedup\": {speedup:.4}}}",
            if rows.is_empty() { "" } else { ",\n" },
        );
    }
    let json = format!(
        "{{\n  \"workers\": {WORKERS},\n  \"sessions_per_batch\": {per_batch},\n  \
         \"batches\": {TCP_BATCHES_PER_CONN},\n  \"sweep\": [\n{rows}\n  ],\n  \
         \"killed_backend\": {{\"fleet\": 2, \"retries\": {retries}, \
         \"wall_ms\": {killed_wall_ms:.4}, \"sessions_per_sec\": {killed_throughput:.2}, \
         \"byte_identical\": true}}\n}}\n"
    );
    opts.write("BENCH_coordinator.json", &json);
}
