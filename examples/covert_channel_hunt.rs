//! Covert-channel hunt: the paper's flagship application (§5, Fig. 8).
//!
//! ```text
//! cargo run --release --example covert_channel_hunt
//! ```
//!
//! An NFS server is compromised with a traffic-replay covert channel
//! (TRCTC) that exfiltrates a secret by modulating response timing. A
//! [`DetectorBattery`] trained on clean traces of the same service is
//! attached to a warm [`sanity_tdr::AuditService`] served as a TCP
//! daemon (the `tdrd` deployment); the suspect traces travel to it as a
//! TDRB batch over the TDRC control plane, and every session is scored
//! with all five Fig. 8 detectors in one pass: the statistical tests see
//! traffic that looks legitimate, while the TDR detector — comparing
//! against what the timing *should* have been, reproduced by audit
//! replay — catches the channel outright.

use std::net::{TcpListener, TcpStream};

use channels::{bit_error_rate, message_bits, TimingChannel, Trctc};
use detectors::{Detector, DetectorBattery, RegularityTest};
use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::{compare, serve_tcp_with, AuditJob, BatteryMode, Client, DaemonOptions, Sanity};
use vm::TargetSendTimes;
use workloads::nfs;

fn main() {
    println!("Covert channel hunt");
    println!("===================\n");

    // The machine under audit: an NFS server with a set of files.
    let files = nfs::make_files(8, 2048, 8192, 99);
    let sched = nfs::client_schedule(&files, 200_000, 740_000, 7);
    let server = Sanity::new(nfs::server_program(sched.len() as i32)).with_files(files.clone());
    let deliver = {
        let packets = sched.packets.clone();
        move |vm: &mut vm::Vm| {
            for (at, pkt) in packets.clone() {
                vm.machine_mut().deliver_packet(at, pkt);
            }
        }
    };

    // -- Day -1: train the battery on clean traces of the same service ----
    // (other clients, other days: same binary, different schedules).
    let train: Vec<Vec<u64>> = (0..6u64)
        .map(|k| {
            let sched = nfs::client_schedule(&files, 200_000, 740_000, 100 + k);
            let rec = server
                .record(10 + k, move |vm| {
                    for (at, pkt) in sched.packets {
                        vm.machine_mut().deliver_packet(at, pkt);
                    }
                })
                .expect("record training trace");
            compare::tx_ipds_cycles(&rec.tx)
        })
        .collect();
    let mut battery = DetectorBattery::new();
    battery.rt = RegularityTest::new(5); // short traces → small windows
    battery.train(&train);
    println!(
        "battery trained on {} clean traces of the same service\n",
        train.len()
    );

    // -- Day 0: a clean trace, for reference ------------------------------
    let clean = server.record(1, deliver.clone()).expect("record");
    let clean_ipds = compare::tx_ipds_cycles(&clean.tx);
    println!(
        "clean trace: {} responses, median IPD {:.2} ms",
        clean.tx.len(),
        median(&clean_ipds) as f64 / 100_000.0
    );

    // -- The attack: TRCTC encodes a secret into response IPDs ------------
    let secret = message_bits(clean_ipds.len(), 0xC0FFEE);
    let mut channel = Trctc::new(13);
    let covert_ipds = channel.encode(&secret, &clean_ipds);
    let base_sends: Vec<u64> = clean.tx.iter().map(|t| t.cycle).collect();
    let targets = targets_for(&base_sends, &covert_ipds);
    let compromised = server
        .record(1, {
            let deliver = deliver.clone();
            move |vm| {
                deliver(vm);
                vm.set_delay_model(Box::new(TargetSendTimes::new(targets)));
            }
        })
        .expect("record");
    let observed = compare::tx_ipds_cycles(&compromised.tx);
    let received = channel.decode(&observed, &clean_ipds);
    println!(
        "attacker decodes the secret with BER {:.1}% — the channel works\n",
        bit_error_rate(&secret, &received) * 100.0
    );

    // -- The hunt: a warm audit daemon, all five detectors per session --
    // The service's audit replays reproduce each trace's reference timing
    // (what the TDR detector scores against); the statistical detectors
    // only read the observed wire timing. Both suspect traces travel as
    // one TDRB batch over a real localhost socket — in production this
    // daemon (`tdrd`) stays up and audits every day's traffic from many
    // log sources with the same warm caches and battery.
    let service = server
        .clone()
        .with_battery(battery)
        .audit_service()
        .workers(2)
        .battery(BatteryMode::Full)
        .build()
        .expect("valid service configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let daemon =
        serve_tcp_with(service, listener, DaemonOptions::default()).expect("daemon starts");
    let jobs = vec![
        AuditJob {
            session_id: 0,
            observed_ipds: clean_ipds.clone(),
            log: clean.log.clone(),
        },
        AuditJob {
            session_id: 1,
            observed_ipds: observed.clone(),
            log: compromised.log.clone(),
        },
    ];
    let mut client =
        Client::new(TcpStream::connect(daemon.local_addr()).expect("connect to daemon"));
    let outcome = client
        .submit_batch(0, ingest::encode_batch(&jobs))
        .expect("TDRC protocol stays clean");
    let summary = outcome
        .result
        .clone()
        .expect("batch audits over the wire")
        .summary;
    client.shutdown().expect("connection shutdown acked");
    let report = daemon.shutdown();
    assert_eq!(report.connection_errors, 0);
    report.service.shutdown();
    let (clean_verdict, covert_verdict) = (&outcome.verdicts[0], &outcome.verdicts[1]);

    println!("{:<12} {:>12} {:>14}", "detector", "clean", "compromised");
    for (name, clean_score) in &clean_verdict.detector_scores {
        println!(
            "{:<12} {:>12.4} {:>14.4}",
            name, clean_score, covert_verdict.detector_scores[name]
        );
    }

    println!(
        "\nTDR verdict: clean deviation {:.2}% (not flagged), compromised {:.1}% (FLAGGED)",
        clean_verdict.score * 100.0,
        covert_verdict.score * 100.0
    );
    assert!(!clean_verdict.flagged && covert_verdict.flagged);
    assert_eq!(summary.flagged, vec![1], "only the covert session");
    assert_eq!(
        covert_verdict.detector_scores["Sanity"].to_bits(),
        covert_verdict.score.to_bits(),
        "the verdict's battery TDR entry is its scalar score"
    );
    println!("\nthe channel replays legitimate-looking IPDs, so the traffic");
    println!("statistics barely move — but it cannot survive a comparison");
    println!("against what the timing *should* have been");
}

fn median(xs: &[u64]) -> u64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[v.len() / 2]
}

fn targets_for(base_sends: &[u64], covert_ipds: &[u64]) -> Vec<u64> {
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
