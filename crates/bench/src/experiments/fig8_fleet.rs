//! `repro fig8-fleet`: the Fig. 8 detector comparison, run end-to-end
//! through the fleet pipeline.
//!
//! Where `repro fig8` scores traces one at a time, this experiment does
//! what a cloud operator would do:
//!
//! 1. record clean training sessions of one NFS service and train a
//!    [`DetectorBattery`] on them (the clean traces the pipeline already
//!    sees);
//! 2. record a mixed fleet — clean negatives plus, for each of the four
//!    channels (IPCTC, TRCTC, MBCTC, Needle), sessions whose send timing
//!    the channel modulates;
//! 3. serialize the whole fleet to TDRB bytes and stream it through an
//!    audit service under `BatteryMode::Full`, so every session
//!    is scored by all five detectors in one audit pass (and cross-check
//!    the materialized `audit_batch` path produces the identical summary);
//! 4. compute per-channel, per-detector labeled ROC/AUC from the verdicts
//!    (`labeled_roc_by_detector`) and write `BENCH_fig8_fleet.json`.
//!
//! The acceptance shape mirrors the paper: the TDR detector ("Sanity")
//! separates every channel perfectly while each statistical detector
//! degrades on at least one channel, so TDR's mean AUC is strictly
//! highest. The experiment asserts exactly that.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use detectors::{Detector, DetectorBattery, RegularityTest};
use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::audit_pipeline::verdict::labeled_roc_by_detector;
use sanity_tdr::{compare, AuditConfig, AuditJob, BatteryMode, Sanity};
use vm::TargetSendTimes;
use workloads::nfs;

use super::fig8::{covert_ipds_for, targets_from_ipds};
use super::{audit_tdrb_cold, Options};

const CHANNELS: [&str; 4] = ["IPCTC", "TRCTC", "MBCTC", "Needle"];
const DETECTORS: [&str; 5] = ["Shape test", "KS test", "RT test", "CCE test", "Sanity"];

struct Scale {
    files: usize,
    min_b: usize,
    max_b: usize,
    mean_gap: u64,
    /// Sessions per class (negatives, and positives per channel).
    class: usize,
    train: usize,
}

impl Scale {
    fn of(opts: &Options) -> Scale {
        Scale {
            files: if opts.full { 18 } else { 14 },
            min_b: 2048,
            max_b: if opts.full { 10 * 1024 } else { 6 * 1024 },
            mean_gap: 740_000,
            class: opts.runs_or(6, 10),
            train: if opts.full { 12 } else { 8 },
        }
    }
}

/// One service for the whole fleet: same binary, same file set.
fn fleet_service(scale: &Scale) -> (Sanity, Vec<Vec<u8>>) {
    let files = nfs::make_files(scale.files, scale.min_b, scale.max_b, 0xF1EE7);
    let sanity = Sanity::new(nfs::server_program(files.len() as i32)).with_files(files.clone());
    (sanity, files)
}

/// Record one session of the service; `targets` arms the covert primitive.
fn record_session(
    sanity: &Sanity,
    files: &[Vec<u8>],
    scale: &Scale,
    id: u64,
    targets: Option<Vec<u64>>,
) -> replay::Recorded {
    let sched = nfs::client_schedule(files, 200_000, scale.mean_gap, 20_000 + id);
    sanity
        .record(id, move |vm| {
            for (at, pkt) in sched.packets {
                vm.machine_mut().deliver_packet(at, pkt);
            }
            if let Some(t) = targets {
                vm.set_delay_model(Box::new(TargetSendTimes::new(t)));
            }
        })
        .expect("record")
}

/// Run the fleet-scale Fig. 8 experiment.
pub fn run(opts: &Options) {
    let scale = Scale::of(opts);
    println!("== Figure 8 at fleet scale: 4 channels × 5 detectors through the pipeline ==");
    println!(
        "   ({} sessions per class, {} training sessions, one TDRB batch)\n",
        scale.class, scale.train
    );
    let (sanity, files) = fleet_service(&scale);

    // 1. Train the battery on clean sessions of the same service.
    let train_traces: Vec<Vec<u64>> = (0..scale.train as u64)
        .map(|k| {
            let rec = record_session(&sanity, &files, &scale, 1_000 + k, None);
            compare::tx_ipds_cycles(&rec.tx)
        })
        .collect();
    let legit_sample: Vec<u64> = train_traces.iter().flatten().copied().collect();
    let mut battery = DetectorBattery::new();
    // Fleet sessions are tens of IPDs long; shrink the regularity window
    // so a session still yields several windows (cf. `repro fig8`).
    battery.rt = RegularityTest::new(5);
    battery.train(&train_traces);
    let sanity = sanity.with_battery(battery);

    // 2. The mixed fleet: ids [0, class) are clean; channel `c` owns the
    // disjoint id block [(c+1)·class, (c+2)·class) whatever `--runs` is.
    let class = scale.class as u64;
    let mut jobs: Vec<AuditJob> = Vec::new();
    let mut covert_by_channel: BTreeMap<&str, HashSet<u64>> = BTreeMap::new();
    for id in 0..scale.class as u64 {
        let rec = record_session(&sanity, &files, &scale, id, None);
        jobs.push(AuditJob {
            session_id: id,
            observed_ipds: compare::tx_ipds_cycles(&rec.tx),
            log: rec.log,
        });
    }
    for (c, &ch_name) in CHANNELS.iter().enumerate() {
        let ids = covert_by_channel.entry(ch_name).or_default();
        for k in 0..class {
            let id = (c as u64 + 1) * class + k;
            let clean = record_session(&sanity, &files, &scale, id, None);
            let clean_ipds = compare::tx_ipds_cycles(&clean.tx);
            let base_sends: Vec<u64> = clean.tx.iter().map(|t| t.cycle).collect();
            let covert = covert_ipds_for(
                ch_name,
                clean_ipds.len(),
                &legit_sample,
                &clean_ipds,
                clean_ipds.len(), // needle stride: one perturbed packet
                40 + id,
            );
            let targets = targets_from_ipds(&base_sends, &covert);
            let rec = record_session(&sanity, &files, &scale, id, Some(targets));
            jobs.push(AuditJob {
                session_id: id,
                observed_ipds: compare::tx_ipds_cycles(&rec.tx),
                log: rec.log,
            });
            ids.insert(id);
        }
    }
    let clean_ids: HashSet<u64> = (0..scale.class as u64).collect();

    // 3. One TDRB batch through the streaming pipeline, full battery.
    let bytes = ingest::encode_batch(&jobs);
    let cfg = AuditConfig {
        battery: BatteryMode::Full,
        ..AuditConfig::default()
    };
    let t = std::time::Instant::now();
    let stream = audit_tdrb_cold(&sanity, &bytes, &cfg);
    let secs = t.elapsed().as_secs_f64();
    println!(
        "audited {} sessions ({} KiB TDRB) in {:.1}s on {} workers, peak {} resident",
        stream.summary.sessions,
        bytes.len() / 1024,
        secs,
        stream.workers,
        stream.peak_resident
    );
    assert_eq!(stream.summary.errors, 0, "every session replays");
    assert_eq!(
        stream.summary.detector_stats.len(),
        DETECTORS.len(),
        "every detector aggregated"
    );

    // The materialized path emits the identical fleet report.
    let batch = sanity.audit_batch(&ingest::decode_batch(&bytes).expect("decodes"), &cfg);
    assert_eq!(
        batch.summary, stream.summary,
        "materialized and streamed audits agree byte-for-byte"
    );

    // 4. Per-channel, per-detector AUC from the pipeline's verdicts.
    let mut aucs: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();
    for &ch_name in &CHANNELS {
        let ids = &covert_by_channel[ch_name];
        let subset: Vec<_> = stream
            .verdicts
            .iter()
            .filter(|v| clean_ids.contains(&v.session_id) || ids.contains(&v.session_id))
            .cloned()
            .collect();
        let by_det = labeled_roc_by_detector(&subset, ids);
        aucs.insert(
            ch_name,
            by_det.into_iter().map(|(name, (_, a))| (name, a)).collect(),
        );
    }

    println!(
        "\n{:<8} {:>11} {:>9} {:>9} {:>10} {:>8}",
        "channel", "Shape", "KS", "RT", "CCE", "Sanity"
    );
    for &ch_name in &CHANNELS {
        let row = &aucs[ch_name];
        println!(
            "{:<8} {:>11.3} {:>9.3} {:>9.3} {:>10.3} {:>8.3}",
            ch_name,
            row["Shape test"],
            row["KS test"],
            row["RT test"],
            row["CCE test"],
            row["Sanity"]
        );
    }

    let mean_auc: BTreeMap<&str, f64> = DETECTORS
        .iter()
        .map(|&d| {
            let mean = CHANNELS.iter().map(|&c| aucs[c][d]).sum::<f64>() / CHANNELS.len() as f64;
            (d, mean)
        })
        .collect();
    println!("\nmean AUC over channels:");
    for &d in &DETECTORS {
        println!("  {:<11} {:.3}", d, mean_auc[d]);
    }

    // The paper's headline ordering: TDR strictly dominates.
    for &d in &DETECTORS {
        if d != "Sanity" {
            assert!(
                mean_auc["Sanity"] > mean_auc[d],
                "TDR mean AUC ({}) must be strictly above {d} ({})",
                mean_auc["Sanity"],
                mean_auc[d]
            );
        }
    }
    println!("\n(TDR/Sanity mean AUC strictly highest — the Fig. 8 ordering holds)");

    // 5. BENCH_fig8_fleet.json.
    let mut channels_json = String::new();
    for &ch_name in &CHANNELS {
        let row: Vec<String> = DETECTORS
            .iter()
            .map(|&d| format!("\"{d}\": {:.4}", aucs[ch_name][d]))
            .collect();
        let _ = write!(
            channels_json,
            "{}    \"{ch_name}\": {{{}}}",
            if channels_json.is_empty() { "" } else { ",\n" },
            row.join(", ")
        );
    }
    let mean_json: Vec<String> = DETECTORS
        .iter()
        .map(|&d| format!("\"{d}\": {:.4}", mean_auc[d]))
        .collect();
    let json = format!(
        "{{\n  \"sessions\": {},\n  \"sessions_per_class\": {},\n  \"train_sessions\": {},\n  \
         \"workers\": {},\n  \"peak_resident\": {},\n  \"seconds\": {secs:.3},\n  \
         \"auc\": {{\n{channels_json}\n  }},\n  \"mean_auc\": {{{}}}\n}}\n",
        stream.summary.sessions,
        scale.class,
        scale.train,
        stream.workers,
        stream.peak_resident,
        mean_json.join(", ")
    );
    opts.write("BENCH_fig8_fleet.json", &json);
}
