//! Cross-crate integration: the trained detector battery through the
//! fleet pipeline.
//!
//! The acceptance bar of the battery refactor: enabling full-battery
//! scoring must not perturb the TDR path — a battery-enabled streamed
//! audit produces TDR scores *byte-identical* to the
//! pre-refactor TDR-only path, on top of which every session gains the
//! other four Fig. 8 detector scores.

use std::collections::HashSet;

use detectors::{CceTest, Detector, DetectorBattery, RegularityTest, TraceView};
use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::audit_pipeline::verdict::labeled_roc_by_detector;
use sanity_tdr::{compare, AuditConfig, AuditJob, BatchReport, BatteryMode, Sanity, Sessions};
use workloads::nfs;

/// One NFS service, a training set of clean traces, and a fleet of
/// recorded sessions; sessions whose id is in `covert` get two packets
/// delayed by ~20% of the IPD.
fn fleet(n: u64, covert: &[u64]) -> (Sanity, Vec<Vec<u64>>, Vec<AuditJob>) {
    let files = nfs::make_files(6, 2048, 6144, 77);
    let sanity = Sanity::new(nfs::server_program(files.len() as i32)).with_files(files.clone());
    let train: Vec<Vec<u64>> = (0..5u64)
        .map(|k| {
            let sched = nfs::client_schedule(&files, 200_000, 740_000, 9_000 + k);
            let rec = sanity
                .record(700 + k, move |vm| {
                    for (at, pkt) in sched.packets {
                        vm.machine_mut().deliver_packet(at, pkt);
                    }
                })
                .expect("record training trace");
            compare::tx_ipds_cycles(&rec.tx)
        })
        .collect();
    let jobs = (0..n)
        .map(|id| {
            let sched = nfs::client_schedule(&files, 200_000, 740_000, 600 + id);
            let is_covert = covert.contains(&id);
            let rec = sanity
                .record(id, |vm| {
                    for (at, pkt) in sched.packets {
                        vm.machine_mut().deliver_packet(at, pkt);
                    }
                    if is_covert {
                        vm.set_delay_model(Box::new(vm::ScheduledDelays::new(vec![
                            0, 150_000, 0, 0, 150_000, 0,
                        ])));
                    }
                })
                .expect("record");
            AuditJob {
                session_id: id,
                observed_ipds: compare::tx_ipds_cycles(&rec.tx),
                log: rec.log,
            }
        })
        .collect();
    (sanity, train, jobs)
}

/// Stream `tdrb` through a fresh service of `sanity` built from `cfg`.
fn audit_stream(sanity: &Sanity, tdrb: &[u8], cfg: &AuditConfig) -> BatchReport {
    let service = sanity.audit_service().config(*cfg).build().expect("valid");
    let report = service
        .submit(Sessions::tdrb(std::io::Cursor::new(tdrb.to_vec())), None)
        .expect("header decodes")
        .wait()
        .expect("stream");
    service.shutdown();
    report
}

/// A battery tuned for these short sessions (a handful of IPDs each).
fn short_session_battery(train: &[Vec<u64>]) -> DetectorBattery {
    let mut battery = DetectorBattery::new();
    battery.rt = RegularityTest::new(3);
    battery.cce = CceTest::new(5, 3);
    battery.train(train);
    battery
}

#[test]
fn battery_stream_tdr_scores_byte_identical_to_tdr_only_path() {
    let (sanity, train, jobs) = fleet(6, &[1, 4]);
    let bytes = ingest::encode_batch(&jobs);

    // The pre-refactor path: TDR only, no battery attached.
    let tdr_cfg = AuditConfig {
        workers: 2,
        high_water: 3,
        ..AuditConfig::default()
    };
    let tdr_only = audit_stream(&sanity, &bytes, &tdr_cfg);

    // The battery-enabled path over the same bytes.
    let armed = sanity.clone().with_battery(short_session_battery(&train));
    let full_cfg = AuditConfig {
        battery: BatteryMode::Full,
        ..tdr_cfg
    };
    let full = audit_stream(&armed, &bytes, &full_cfg);

    assert_eq!(tdr_only.verdicts.len(), full.verdicts.len());
    for (a, b) in tdr_only.verdicts.iter().zip(&full.verdicts) {
        assert_eq!(a.session_id, b.session_id);
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "session {}: battery must not perturb the TDR score",
            a.session_id
        );
        assert_eq!(a.flagged, b.flagged);
        assert!(
            a.detector_scores.is_empty(),
            "TDR-only verdicts carry no map"
        );
        assert_eq!(b.detector_scores.len(), 5, "full battery scores all five");
        assert_eq!(
            b.detector_scores["Sanity"].to_bits(),
            b.score.to_bits(),
            "the map's Sanity entry is the scalar TDR score"
        );
    }
    assert_eq!(tdr_only.summary.flagged, vec![1, 4]);
    assert_eq!(full.summary.flagged, vec![1, 4]);
    assert_eq!(full.summary.detector_stats.len(), 5);

    // And the materialized battery path agrees byte-for-byte with the
    // streamed one.
    let batch = armed.audit_batch(&jobs, &full_cfg);
    assert_eq!(batch.verdicts, full.verdicts);
    assert_eq!(batch.summary, full.summary);
}

#[test]
fn battery_scores_match_standalone_scoring_of_the_same_traces() {
    // The pipeline's per-detector scores are exactly what scoring the
    // trace by hand produces: same trained state, same TraceView, no
    // pipeline-only transformations.
    let (sanity, train, jobs) = fleet(3, &[]);
    let battery = short_session_battery(&train);
    let armed = sanity.clone().with_battery(battery.clone());
    let report = armed.audit_batch(
        &jobs,
        &AuditConfig {
            workers: 1,
            battery: BatteryMode::Full,
            ..AuditConfig::default()
        },
    );
    let auditor = sanity_tdr::TimingAuditor::new(sanity);
    let cfg = AuditConfig::default();
    for (job, verdict) in jobs.iter().zip(&report.verdicts) {
        let single = auditor
            .audit(
                &job.log,
                &job.observed_ipds,
                cfg.session_seed(job.session_id),
            )
            .expect("audit");
        let by_hand = battery.score_all(&TraceView::with_replay(
            &job.observed_ipds,
            &single.replayed_ipds,
        ));
        for (name, score) in &by_hand {
            assert_eq!(
                score.to_bits(),
                verdict.detector_scores[name].to_bits(),
                "{name} differs between pipeline and standalone scoring"
            );
        }
    }
}

#[test]
fn fleet_report_contains_all_five_detector_curves() {
    let (sanity, train, jobs) = fleet(6, &[2, 5]);
    let armed = sanity.with_battery(short_session_battery(&train));
    let report = armed.audit_batch(
        &jobs,
        &AuditConfig {
            battery: BatteryMode::Full,
            ..AuditConfig::default()
        },
    );
    let covert_ids: HashSet<u64> = [2, 5].into_iter().collect();
    let by_det = labeled_roc_by_detector(&report.verdicts, &covert_ids);
    assert_eq!(by_det.len(), 5);
    let sanity_auc = by_det["Sanity"].1;
    assert!((sanity_auc - 1.0).abs() < 1e-9, "TDR separates perfectly");
    for (name, (curve, auc)) in &by_det {
        assert!(auc.is_finite(), "{name} AUC");
        assert!(*auc <= sanity_auc, "{name} must not beat TDR here");
        assert!(curve.len() >= 2, "{name} curve has anchors");
    }
}

#[test]
fn trained_battery_state_roundtrips_through_json_with_identical_verdicts() {
    let (sanity, train, jobs) = fleet(4, &[3]);
    let battery = short_session_battery(&train);
    let restored = DetectorBattery::from_json(&battery.to_json()).expect("parses");
    let cfg = AuditConfig {
        battery: BatteryMode::Full,
        ..AuditConfig::default()
    };
    let a = sanity
        .clone()
        .with_battery(battery)
        .audit_batch(&jobs, &cfg);
    let b = sanity.with_battery(restored).audit_batch(&jobs, &cfg);
    assert_eq!(
        a.verdicts, b.verdicts,
        "serialized state scores identically"
    );
    assert_eq!(a.summary, b.summary);
}
