//! Fleet audit: the batch pipeline over dozens of mixed sessions.
//!
//! A cloud operator records every tenant session of one NFS service. Most
//! tenants are clean; a few smuggle data out through covert timing
//! channels — TRCTC (constant two-bin encoding) and the paper's §6.8
//! "needle": a single stretched packet. The operator trains a
//! `DetectorBattery` on clean sessions, builds a persistent
//! `AuditService` (`Sanity::audit_service`) whose worker pool and trained
//! battery stay warm, serializes the fleet into a TDRB batch (the
//! on-the-wire form sessions actually arrive in) and submits it: sessions
//! decode lazily in bounded memory, audit replays shard across cores, and
//! every session is scored with all five Fig. 8 detectors in one pass.
//! The ticket streams verdicts as workers produce them; the final report
//! is byte-identical to the one-shot `Sanity::audit_batch` over the same
//! bytes, with the TDR scores untouched by the battery.
//!
//! Run with `cargo run --release --example fleet_audit`.

use std::collections::HashSet;

use std::io::Cursor;
use std::net::{TcpListener, TcpStream};

use channels::{message_bits, Needle, TimingChannel, Trctc};
use detectors::{CceTest, Detector, DetectorBattery, RegularityTest};
use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::audit_pipeline::verdict::{labeled_roc, labeled_roc_by_detector};
use sanity_tdr::{
    compare, serve_tcp_with, AuditConfig, AuditJob, BatteryMode, Client, DaemonOptions, Sanity,
    Sessions,
};
use vm::TargetSendTimes;
use workloads::nfs;

const SESSIONS: u64 = 24;

fn targets_for_covert(base_sends: &[u64], covert_ipds: &[u64]) -> Vec<u64> {
    let mut cov_abs = vec![0u64];
    let mut t = 0u64;
    for &d in covert_ipds.iter().take(base_sends.len() - 1) {
        t += d;
        cov_abs.push(t);
    }
    let offset = base_sends
        .iter()
        .zip(&cov_abs)
        .map(|(&b, &c)| b.saturating_sub(c))
        .max()
        .unwrap_or(0)
        + 150_000;
    cov_abs.iter().map(|&c| c + offset).collect()
}

fn main() {
    // One service: same binary and file set for every session.
    let files = nfs::make_files(6, 2048, 6144, 4242);
    let sanity = Sanity::new(nfs::server_program(files.len() as i32)).with_files(files.clone());

    // Train the detector battery on clean sessions of the same service —
    // the traces a fleet operator already has from known-good days.
    let train: Vec<Vec<u64>> = (0..6u64)
        .map(|k| {
            let sched = nfs::client_schedule(&files, 200_000, 740_000, 30_000 + k);
            let rec = sanity
                .record(900 + k, move |vm| {
                    for (at, pkt) in sched.packets {
                        vm.machine_mut().deliver_packet(at, pkt);
                    }
                })
                .expect("record training session");
            compare::tx_ipds_cycles(&rec.tx)
        })
        .collect();
    // Sessions here are only a handful of IPDs long, so the windowed
    // detectors need smaller windows/patterns than the paper defaults.
    let mut battery = DetectorBattery::new();
    battery.rt = RegularityTest::new(3);
    battery.cce = CceTest::new(5, 3);
    battery.train(&train);
    let sanity = sanity.with_battery(battery);

    // Ground truth for this benchmark fleet.
    let trctc_ids: HashSet<u64> = [4, 9, 19].into_iter().collect();
    let needle_ids: HashSet<u64> = [14, 22].into_iter().collect();
    let covert_ids: HashSet<u64> = trctc_ids.union(&needle_ids).copied().collect();

    println!(
        "recording {SESSIONS} sessions ({} covert: TRCTC {:?}, needle {:?})...",
        covert_ids.len(),
        {
            let mut v: Vec<_> = trctc_ids.iter().collect();
            v.sort();
            v
        },
        {
            let mut v: Vec<_> = needle_ids.iter().collect();
            v.sort();
            v
        }
    );

    let mut jobs = Vec::new();
    for id in 0..SESSIONS {
        // Each session is a different client of the same service.
        let sched = nfs::client_schedule(&files, 200_000, 740_000, 10_000 + id);
        let packets = sched.packets;
        let deliver = |vm: &mut vm::Vm| {
            for (at, pkt) in packets.clone() {
                vm.machine_mut().deliver_packet(at, pkt);
            }
        };
        let clean = sanity.record(id, deliver).expect("record");

        let rec = if covert_ids.contains(&id) {
            // Re-record with the channel driving the send times.
            let clean_ipds = compare::tx_ipds_cycles(&clean.tx);
            let base_sends: Vec<u64> = clean.tx.iter().map(|t| t.cycle).collect();
            let covert_ipds = if trctc_ids.contains(&id) {
                let mut ch = Trctc::new(7 + id);
                ch.encode(&message_bits(clean_ipds.len(), 3 + id), &clean_ipds)
            } else {
                let mut needle = Needle::new(clean_ipds.len(), 0.40);
                needle.encode(&[true], &clean_ipds)
            };
            let targets = targets_for_covert(&base_sends, &covert_ipds[..clean_ipds.len()]);
            sanity
                .record(id, |vm| {
                    deliver(vm);
                    vm.set_delay_model(Box::new(TargetSendTimes::new(targets)));
                })
                .expect("record covert")
        } else {
            clean
        };

        jobs.push(AuditJob {
            session_id: id,
            observed_ipds: compare::tx_ipds_cycles(&rec.tx),
            log: rec.log,
        });
    }

    // Serialize the fleet into the TDRB wire format — this is what a batch
    // arriving from disk or the network looks like.
    let batch_bytes = ingest::encode_batch(&jobs);
    println!(
        "fleet serialized to {} KiB of TDRB ({} bytes/session)",
        batch_bytes.len() / 1024,
        batch_bytes.len() / jobs.len()
    );

    // The primary path: a persistent service, built once — its workers
    // and the trained battery stay warm for every batch this fleet will
    // ever submit. The batch streams through it with sessions decoded
    // lazily: at most `high_water` sessions are ever resident, so the
    // same code handles a batch far larger than RAM. (At least 4 workers
    // even on a small machine, so the sharded path is really exercised.)
    let workers = AuditConfig::default().resolved_workers().max(4);
    let service = sanity
        .audit_service()
        .workers(workers)
        .high_water(8)
        .battery(BatteryMode::Full)
        .build()
        .expect("valid service configuration");
    let mut ticket = service
        .submit(Sessions::tdrb(Cursor::new(batch_bytes.clone())), None)
        .expect("batch header decodes");
    // The ticket streams verdicts as workers finish them (arrival order
    // is scheduling-dependent; the final report is not).
    let mut streamed = 0usize;
    while ticket.recv().is_some() {
        streamed += 1;
    }
    let sharded = ticket.wait().expect("stream audits");
    assert_eq!(streamed, sharded.verdicts.len());

    // Cross-check: the materialized batch path on a single worker must
    // produce byte-identical verdicts — ingest mode, worker count, and
    // scheduling can never change an audit outcome.
    let single = sanity.audit_batch(
        &jobs,
        &AuditConfig {
            workers: 1,
            battery: BatteryMode::Full,
            ..AuditConfig::default()
        },
    );
    assert_eq!(
        single.verdicts, sharded.verdicts,
        "streamed verdicts must be identical to the 1-worker materialized batch"
    );
    assert_eq!(single.summary, sharded.summary);

    // Warm resubmission: the same service audits a second copy of the
    // batch without respawning anything, and the report is identical.
    let resubmitted = service
        .submit(Sessions::tdrb(Cursor::new(batch_bytes.clone())), None)
        .expect("batch header decodes")
        .wait()
        .expect("stream audits");
    assert_eq!(resubmitted.summary, sharded.summary);
    println!(
        "warm service re-audited the batch: {} sessions total through {} workers",
        service.sessions_audited(),
        service.workers()
    );

    // Deployment: the same warm service behind a TCP listener — the
    // daemon (`tdrd`) a fleet's log sources actually connect to. The
    // batch travels the TDRC control plane over localhost, and the wire
    // verdicts must come back bit-identical to the in-process ones.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let daemon =
        serve_tcp_with(service, listener, DaemonOptions::default()).expect("daemon starts");
    let mut client =
        Client::new(TcpStream::connect(daemon.local_addr()).expect("connect to daemon"));
    let outcome = client
        .submit_batch(1, batch_bytes)
        .expect("TDRC protocol stays clean");
    let wire = outcome.result.expect("batch audits over the wire");
    assert_eq!(
        outcome.verdicts, sharded.verdicts,
        "TCP wire verdicts must be bit-identical to the in-process audit"
    );
    assert_eq!(wire.summary, sharded.summary);
    client.shutdown().expect("connection shutdown acked");
    let report = daemon.shutdown();
    assert_eq!(report.connection_errors, 0);
    println!(
        "TCP daemon served the batch over {} connection(s): wire verdicts bit-identical",
        report.connections_accepted
    );
    report.service.shutdown();

    println!(
        "\naudited {} sessions on {} workers (peak {} sessions resident)\n",
        sharded.summary.sessions, sharded.workers, sharded.peak_resident
    );
    println!(" session    score  verdict");
    for v in &sharded.verdicts {
        println!(
            "  {:>6}  {:>6.2}%  {}",
            v.session_id,
            v.score * 100.0,
            if v.flagged { "FLAGGED" } else { "clean" }
        );
    }

    let summary = &sharded.summary;
    println!("\nflagged sessions: {:?}", summary.flagged);
    println!("score histogram:  {}", summary.histogram.render());
    let (_, auc) = labeled_roc(&sharded.verdicts, &covert_ids);
    println!("labeled ROC AUC:  {auc:.3}");

    // The per-detector fleet report (Fig. 8 per fleet): every session was
    // scored by all five detectors in the same pass.
    println!("\nper-detector fleet AUC (labeled):");
    let by_detector = labeled_roc_by_detector(&sharded.verdicts, &covert_ids);
    for (name, (_, det_auc)) in &by_detector {
        let stats = &summary.detector_stats[name];
        println!(
            "  {:<11} AUC {:.3}   mean {:>8.4}  max {:>8.4}",
            name, det_auc, stats.mean, stats.max
        );
    }
    let sanity_auc = by_detector["Sanity"].1;
    assert!(
        by_detector
            .iter()
            .all(|(n, (_, a))| n == "Sanity" || *a <= sanity_auc),
        "no statistical detector beats TDR on this fleet"
    );

    // The acceptance bar: every covert session flagged, no clean session
    // flagged.
    let mut expected: Vec<u64> = covert_ids.iter().copied().collect();
    expected.sort_unstable();
    assert_eq!(
        summary.flagged, expected,
        "all covert sessions flagged, zero false positives"
    );
    assert!((auc - 1.0).abs() < 1e-9, "perfect separation");
    println!("\nall covert sessions flagged, zero false positives ✓");
}
