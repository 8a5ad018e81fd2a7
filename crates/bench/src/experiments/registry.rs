//! Reference registry: what multi-reference auditing costs.
//!
//! Three measurements, one artifact (`BENCH_registry.json`):
//!
//! 1. **Cold load vs warm hit** — admitting a sealed TDRP container
//!    (decode + CRC/digest + `jbc::verify`) vs checking out an
//!    already-resident reference. The gap is what content addressing
//!    buys: verification is paid once per program, not per batch.
//! 2. **Eviction thrash** — a budget sweep over a fixed load rotation;
//!    as the budget shrinks below the working set, idempotent re-puts
//!    turn into evict + full reload cycles.
//! 3. **Multi-reference daemon throughput** — one TCP daemon auditing
//!    three distinct registered references from three concurrent
//!    clients, against the single-default-reference baseline. Verdict
//!    summaries are asserted identical to in-process audits per
//!    reference — the registry can change costs, never bytes.

use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use sanity_tdr::audit_pipeline::{ingest, FleetSummary};
use sanity_tdr::jbc::container;
use sanity_tdr::{
    AckStatus, AuditConfig, AuditJob, Client, DaemonOptions, ReferenceRegistry, Sanity,
};
use workloads::artifacts::registry_artifacts;

use super::Options;

const WORKERS: usize = 4;
const TCP_BATCHES_PER_CONN: usize = 3;

/// The artifact set plus recorded sessions for each member.
///
/// Sessions must be recordable against a *program-only* reference (the
/// TDRP constraint), so the NFS member gets LOOKUP-only traffic and the
/// SciMark member pure-compute (no deliveries) — see
/// `workloads::artifacts`.
fn corpus(per_batch: usize) -> Vec<(&'static str, Sanity, Vec<u8>, Vec<AuditJob>)> {
    registry_artifacts()
        .into_iter()
        .map(|(name, program)| {
            let sanity = Sanity::new(program);
            let tdrp = container::seal(sanity.program());
            let jobs: Vec<AuditJob> = (0..per_batch as u64)
                .map(|id| {
                    let rec = sanity
                        .record(500 + id, move |vm| {
                            if name == "nfs_server" {
                                let n = workloads::artifacts::NFS_ARTIFACT_REQUESTS as u64;
                                for k in 0..n {
                                    let req = workloads::nfs::encode_request(
                                        workloads::nfs::OP_LOOKUP,
                                        (id + k) as u8 % 5,
                                        0,
                                        0,
                                    );
                                    vm.machine_mut().deliver_packet(150_000 + k * 500_000, req);
                                }
                            }
                            // scimark_fft computes and corpus_0 transmits
                            // on their own — nothing to deliver.
                        })
                        .expect("record session");
                    AuditJob {
                        session_id: id,
                        observed_ipds: rec.tx_ipds_cycles(),
                        log: rec.log,
                    }
                })
                .collect();
            (name, sanity, tdrp, jobs)
        })
        .collect()
}

/// Run the registry cost measurements.
pub fn run(opts: &Options) {
    println!("== reference registry: load/verify, eviction thrash, daemon throughput ==\n");
    let per_batch = opts.runs_or(8, 24);
    let t0 = Instant::now();
    let corpus = corpus(per_batch);
    println!(
        "recorded {} sessions for {} references in {:.1}s\n",
        per_batch * corpus.len(),
        corpus.len(),
        t0.elapsed().as_secs_f64()
    );

    // -- 1. cold load + verify vs warm hit ------------------------------
    let load_rounds = opts.runs_or(20, 100);
    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    for _ in 0..load_rounds {
        for (_, _, tdrp, _) in &corpus {
            let cold = ReferenceRegistry::new(u64::MAX);
            let t = Instant::now();
            let load = cold.load(tdrp).expect("artifact admits");
            cold_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let pin = cold.checkout(&load.id).expect("resident");
            warm_us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(pin);
        }
    }
    let cold_mean = cold_us.iter().sum::<f64>() / cold_us.len() as f64;
    let warm_mean = warm_us.iter().sum::<f64>() / warm_us.len() as f64;
    println!(
        "cold load+verify {cold_mean:.1} us, warm checkout {warm_mean:.2} us \
         (x{:.0} over {} loads)",
        cold_mean / warm_mean.max(1e-9),
        cold_us.len()
    );

    // -- 2. eviction-thrash sweep ---------------------------------------
    // Budgets from "working set fits" down to "one reference at a time";
    // each cell runs the same load rotation and counts evictions and the
    // reloads (full decode+verify) the budget forced.
    let costs: Vec<u64> = corpus
        .iter()
        .map(|(_, _, tdrp, _)| {
            let probe = ReferenceRegistry::new(u64::MAX);
            probe.load(tdrp).expect("admits").resident_bytes
        })
        .collect();
    let total: u64 = costs.iter().sum();
    let max_cost = *costs.iter().max().expect("nonempty");
    let budgets = [total, total - 1, max_cost];
    let rotation_rounds = opts.runs_or(30, 120);
    let mut thrash_rows = Vec::new();
    for &budget in &budgets {
        let registry = ReferenceRegistry::new(budget);
        let mut reloads = 0u64;
        let t = Instant::now();
        for _ in 0..rotation_rounds {
            for (_, _, tdrp, _) in &corpus {
                let load = registry.load(tdrp).expect("admits");
                if load.newly_loaded {
                    reloads += 1;
                }
            }
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let evictions = registry.eviction_log().len() as u64;
        println!(
            "budget {budget:>6} B: {evictions:>4} evictions, {reloads:>4} loads, \
             {wall_ms:>7.2} ms for {} puts",
            rotation_rounds * corpus.len()
        );
        thrash_rows.push((budget, evictions, reloads, wall_ms));
    }

    // -- 3. multi-reference daemon vs single-reference baseline ---------
    let cfg = AuditConfig {
        workers: WORKERS,
        ..AuditConfig::default()
    };
    let expected: Vec<FleetSummary> = corpus
        .iter()
        .map(|(_, sanity, _, jobs)| sanity.audit_batch(jobs, &cfg).summary)
        .collect();

    // Baseline: every client audits the *same* default reference (the
    // first artifact, compiled in), v1 SubmitBatch.
    let single = {
        let service = corpus[0]
            .1
            .audit_service()
            .workers(WORKERS)
            .build()
            .expect("valid configuration");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let daemon = sanity_tdr::serve_tcp_with(service, listener, DaemonOptions::default())
            .expect("daemon starts");
        let addr = daemon.local_addr();
        let tdrb = ingest::encode_batch(&corpus[0].3);
        let want = expected[0].clone();
        let t = Instant::now();
        let clients: Vec<_> = (0..corpus.len())
            .map(|c| {
                let tdrb = tdrb.clone();
                let want = want.clone();
                std::thread::spawn(move || {
                    let mut client = Client::new(TcpStream::connect(addr).expect("connect"));
                    for b in 0..TCP_BATCHES_PER_CONN {
                        let outcome = client
                            .submit_batch((c * 10 + b) as u64, tdrb.clone())
                            .expect("protocol clean");
                        assert_eq!(outcome.result.expect("audits").summary, want);
                    }
                    client.shutdown().expect("ack");
                })
            })
            .collect();
        for h in clients {
            h.join().expect("client thread");
        }
        let wall = t.elapsed().as_secs_f64();
        daemon.shutdown().service.shutdown();
        (corpus.len() * TCP_BATCHES_PER_CONN * per_batch) as f64 / wall
    };

    // Multi-reference: each client registers and audits its *own*
    // reference on the same daemon, v2 SubmitBatch.
    let multi = {
        let service = corpus[0]
            .1
            .audit_service()
            .workers(WORKERS)
            .build()
            .expect("valid configuration");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let daemon = sanity_tdr::serve_tcp_with(service, listener, DaemonOptions::default())
            .expect("daemon starts");
        let addr = daemon.local_addr();
        let t = Instant::now();
        let clients: Vec<_> = corpus
            .iter()
            .enumerate()
            .map(|(c, (_, _, tdrp, jobs))| {
                let tdrp = tdrp.clone();
                let tdrb = ingest::encode_batch(jobs);
                let want = expected[c].clone();
                std::thread::spawn(move || {
                    let mut client = Client::new(TcpStream::connect(addr).expect("connect"));
                    let put = client.put_reference(c as u64, tdrp.clone()).expect("put");
                    assert!(matches!(
                        put.status,
                        AckStatus::Loaded | AckStatus::AlreadyResident
                    ));
                    for b in 0..TCP_BATCHES_PER_CONN {
                        // Bounded recovery: one re-put on eviction, then
                        // a typed ReferenceThrash instead of a livelock.
                        let outcome = client
                            .submit_batch_reput(
                                (c * 10 + b) as u64,
                                tdrb.clone(),
                                put.reference,
                                &tdrp,
                            )
                            .expect("submit (with bounded re-put)");
                        assert_eq!(outcome.result.expect("audits").summary, want);
                    }
                    client.shutdown().expect("ack");
                })
            })
            .collect();
        for h in clients {
            h.join().expect("client thread");
        }
        let wall = t.elapsed().as_secs_f64();
        daemon.shutdown().service.shutdown();
        (corpus.len() * TCP_BATCHES_PER_CONN * per_batch) as f64 / wall
    };
    println!(
        "\ndaemon throughput: single-reference {single:.0} sessions/s, \
         multi-reference {multi:.0} sessions/s ({:.2}x)",
        multi / single
    );
    println!("(all wire summaries identical to the in-process per-reference audits)");

    let mut thrash_json = String::new();
    for (budget, evictions, reloads, wall_ms) in &thrash_rows {
        let _ = write!(
            thrash_json,
            "{}    {{\"budget_bytes\": {budget}, \"evictions\": {evictions}, \
             \"loads\": {reloads}, \"wall_ms\": {wall_ms:.4}}}",
            if thrash_json.is_empty() { "" } else { ",\n" },
        );
    }
    let json = format!(
        "{{\n  \"references\": {},\n  \"sessions_per_batch\": {per_batch},\n  \
         \"workers\": {WORKERS},\n  \"cold_load_verify_us_mean\": {cold_mean:.3},\n  \
         \"warm_checkout_us_mean\": {warm_mean:.3},\n  \
         \"thrash_rotation_rounds\": {rotation_rounds},\n  \"thrash\": [\n{thrash_json}\n  ],\n  \
         \"daemon_single_reference_sessions_per_sec\": {single:.2},\n  \
         \"daemon_multi_reference_sessions_per_sec\": {multi:.2}\n}}\n",
        corpus.len()
    );
    opts.write("BENCH_registry.json", &json);
}
