//! Integration suite for the persistent `AuditService`: warm-service
//! reuse is byte-identical to fresh one-shot audits across worker counts
//! and battery modes, tickets cancel cleanly, shutdown drains in-flight
//! work, and the daemon loop over an in-memory duplex audits a TDRB
//! batch end to end through the TDRC control plane.

use std::io::Cursor;

use sanity_tdr::audit_pipeline::service::duplex;
use sanity_tdr::audit_pipeline::{ingest, FleetSummary};
use sanity_tdr::detectors::DetectorBattery;
use sanity_tdr::{
    AuditConfig, AuditJob, AuditService, BatchReport, BatteryMode, ConfigError, ControlFrame,
    Sanity, Sessions,
};
use vm::Vm;
use workloads::nfs;

#[path = "torture_common.rs"]
mod torture_common;

/// Submit `bytes` to `service` as one TDRB stream and wait for the report.
fn stream(service: &AuditService, bytes: &[u8]) -> BatchReport {
    service
        .submit(Sessions::tdrb(Cursor::new(bytes.to_vec())), None)
        .expect("header decodes")
        .wait()
        .expect("audits")
}

fn nfs_sanity(seed: u64) -> Sanity {
    Sanity::new(nfs::server_program(4)).with_files(nfs::make_files(4, 1500, 4000, seed))
}

fn deliver_nfs(vm: &mut Vm, seed: u64) {
    let files = nfs::make_files(4, 1500, 4000, seed);
    let sched = nfs::client_schedule(&files, 200_000, 700_000, seed ^ 1);
    for (at, pkt) in sched.packets.into_iter().take(4) {
        vm.machine_mut().deliver_packet(at, pkt);
    }
}

/// A small mixed fleet: mostly clean sessions, one with a covert delay.
fn fleet(sanity: &Sanity, ids: std::ops::Range<u64>, covert: u64) -> Vec<AuditJob> {
    ids.map(|id| {
        let rec = sanity
            .record(100 + id, |vm| {
                deliver_nfs(vm, 14);
                if id == covert {
                    vm.set_delay_model(Box::new(vm::ScheduledDelays::new(vec![
                        0, 150_000, 0, 150_000,
                    ])));
                }
            })
            .expect("record");
        AuditJob {
            session_id: id,
            observed_ipds: rec.tx_ipds_cycles(),
            log: rec.log,
        }
    })
    .collect()
}

fn trained_on_clean(jobs: &[AuditJob], covert: u64) -> DetectorBattery {
    let clean: Vec<Vec<u64>> = jobs
        .iter()
        .filter(|j| j.session_id != covert)
        .map(|j| j.observed_ipds.clone())
        .collect();
    DetectorBattery::trained(&clean)
}

#[test]
fn warm_service_reuse_is_byte_identical_to_one_shot() {
    let sanity = nfs_sanity(14);
    let batch_a = fleet(&sanity, 0..4, 2);
    let batch_b = fleet(&sanity, 4..8, 6);
    let battery = trained_on_clean(&batch_a, 2);
    let with_battery = sanity.clone().with_battery(battery);

    for workers in [1usize, 4] {
        for mode in [BatteryMode::TdrOnly, BatteryMode::Full] {
            let system = match mode {
                BatteryMode::TdrOnly => &sanity,
                BatteryMode::Full => &with_battery,
            };
            let cfg = AuditConfig {
                workers,
                battery: mode,
                ..AuditConfig::default()
            };

            // Two batches through one warm service...
            let service = system
                .audit_service()
                .workers(workers)
                .battery(mode)
                .build()
                .expect("valid service configuration");
            let warm_a = service.submit_batch(&batch_a).wait().expect("audits");
            let warm_b = service.submit_batch(&batch_b).wait().expect("audits");
            service.shutdown();

            // ...must equal two fresh one-shot calls, byte for byte.
            let cold_a = system.audit_batch(&batch_a, &cfg);
            let cold_b = system.audit_batch(&batch_b, &cfg);
            assert_eq!(
                warm_a, cold_a,
                "{workers} workers, {mode:?}: first batch diverged"
            );
            assert_eq!(
                warm_b, cold_b,
                "{workers} workers, {mode:?}: second batch diverged"
            );
            for (w, c) in warm_a.verdicts.iter().zip(&cold_a.verdicts) {
                assert_eq!(w.score.to_bits(), c.score.to_bits());
                for (name, score) in &w.detector_scores {
                    assert_eq!(score.to_bits(), c.detector_scores[name].to_bits());
                }
            }
        }
    }
}

#[test]
fn warm_stream_submission_matches_one_shot_audit_stream() {
    let sanity = nfs_sanity(14);
    let jobs = fleet(&sanity, 0..4, 2);
    let bytes = ingest::encode_batch(&jobs);
    let cfg = AuditConfig {
        workers: 2,
        high_water: 2,
        ..AuditConfig::default()
    };
    let fresh = sanity.audit_service().config(cfg).build().expect("valid");
    let one_shot = stream(&fresh, &bytes);
    fresh.shutdown();

    let service = sanity
        .audit_service()
        .workers(2)
        .high_water(2)
        .build()
        .expect("valid service configuration");
    let warm_1 = stream(&service, &bytes);
    let warm_2 = stream(&service, &bytes);
    service.shutdown();

    assert_eq!(warm_1, one_shot, "warm streamed == one-shot streamed");
    assert_eq!(warm_2, one_shot, "resubmission is reproducible");
    assert!(warm_1.peak_resident <= 2);
}

#[test]
fn ticket_drop_cancels_and_shutdown_drains_inflight() {
    let sanity = nfs_sanity(14);
    let jobs = fleet(&sanity, 0..6, 2);
    let service = sanity
        .audit_service()
        .workers(1)
        .build()
        .expect("valid service configuration");

    // Cancel: drop the ticket with everything still queued on one worker.
    drop(service.submit_batch(&jobs));

    // The service survives and audits the next submission in full.
    let ticket = service.submit_batch(&jobs[..2]);

    // Shutdown with that ticket in flight: the queue drains first.
    let baseline = sanity.audit_batch(
        &jobs[..2],
        &AuditConfig {
            workers: 1,
            ..AuditConfig::default()
        },
    );
    service.shutdown();
    let report = ticket.wait().expect("inflight ticket drains");
    assert_eq!(report.verdicts.len(), 2);
    assert_eq!(report.summary, baseline.summary);
}

#[test]
fn service_builder_rejects_invalid_configs_with_typed_errors() {
    let sanity = nfs_sanity(14);
    assert_eq!(
        sanity.audit_service().workers(0).build().err(),
        Some(ConfigError::ZeroWorkers)
    );
    assert_eq!(
        sanity.audit_service().high_water(0).build().err(),
        Some(ConfigError::ZeroHighWater)
    );
    assert_eq!(
        sanity
            .audit_service()
            .battery(BatteryMode::Full)
            .build()
            .err(),
        Some(ConfigError::MissingBattery)
    );
}

/// The end-to-end daemon path: a TDRB batch submitted as a
/// `ControlFrame::SubmitBatch` over an in-memory duplex comes back as
/// in-order verdict frames plus a summary byte-identical to the
/// in-process audit of the same bytes.
#[test]
fn daemon_over_duplex_audits_a_tdrb_batch_end_to_end() {
    let sanity = nfs_sanity(14);
    let jobs = fleet(&sanity, 0..4, 2);
    let bytes = ingest::encode_batch(&jobs);
    let expected = sanity.audit_batch(
        &jobs,
        &AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        },
    );

    let service = sanity
        .audit_service()
        .workers(2)
        .build()
        .expect("valid service configuration");
    let (mut client, server) = duplex();
    let daemon = std::thread::spawn(move || {
        let outcome = service.serve(&server, &server);
        service.shutdown();
        outcome
    });

    ControlFrame::SubmitBatch {
        batch_id: 77,
        tdrb: bytes,
        reference: None,
    }
    .write_to(&mut client)
    .expect("submit");

    let mut verdicts = Vec::new();
    let summary: FleetSummary = loop {
        match ControlFrame::read_from(&mut client)
            .expect("response decodes")
            .expect("daemon is up")
        {
            ControlFrame::Verdict {
                batch_id,
                index,
                verdict,
            } => {
                assert_eq!(batch_id, 77);
                assert_eq!(index as usize, verdicts.len(), "verdicts in order");
                verdicts.push(verdict);
            }
            ControlFrame::Summary {
                batch_id, summary, ..
            } => {
                assert_eq!(batch_id, 77);
                break summary;
            }
            other => panic!("unexpected daemon frame: {other:?}"),
        }
    };

    // The control plane carries verdicts bit-exactly.
    assert_eq!(verdicts.len(), expected.verdicts.len());
    for (wire, local) in verdicts.iter().zip(&expected.verdicts) {
        assert_eq!(wire, local);
        assert_eq!(wire.score.to_bits(), local.score.to_bits());
    }
    assert_eq!(summary, expected.summary);

    ControlFrame::Shutdown.write_to(&mut client).expect("bye");
    assert_eq!(
        ControlFrame::read_from(&mut client)
            .expect("ack decodes")
            .expect("daemon acks"),
        ControlFrame::ShutdownAck
    );
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon loop exits cleanly");
}

/// `RETRAIN_CAPTURE_CAP` boundary: a streamed batch of exactly
/// `CAP` clean sessions absorbs all of them; one more session (`CAP + 1`)
/// absorbs only the capped prefix — bounded-memory ingest must never let
/// the retraining capture grow with the batch. In both cases the
/// published battery generation is bit-identical (JSON form) to an
/// explicit `absorb_all` of the captured prefix.
#[test]
fn retrain_capture_cap_boundary_256_vs_257() {
    use sanity_tdr::audit_pipeline::service::RETRAIN_CAPTURE_CAP;
    use sanity_tdr::detectors::{CceTest, RegularityTest};
    use sanity_tdr::Detector as _;

    // The shared cheap echo reference (10 request/response rounds → 9
    // IPDs per session) so streaming CAP+1 sessions stays fast; the
    // windowed detectors get short-trace windows like the examples use.
    let sanity = torture_common::echo_sanity_with(10);

    // One recorded session, cloned into a large all-clean fleet: distinct
    // ids and sub-noise observed perturbations (a few cycles against
    // ~10^5-cycle IPDs) keep every captured trace distinct without
    // flagging anything.
    let rec = sanity
        .record(42, |vm| {
            for k in 0..10u64 {
                vm.machine_mut()
                    .deliver_packet(100_000 + k * 400_000, vec![7 + k as u8; 48]);
            }
        })
        .expect("record echo session");
    let base_ipds = rec.tx_ipds_cycles();
    let make_jobs = |n: usize| -> Vec<AuditJob> {
        (0..n as u64)
            .map(|id| {
                let mut observed = base_ipds.clone();
                for (k, ipd) in observed.iter_mut().enumerate() {
                    *ipd += (id + k as u64) % 3;
                }
                AuditJob {
                    session_id: id,
                    observed_ipds: observed,
                    log: rec.log.clone(),
                }
            })
            .collect()
    };

    let mut base_battery = DetectorBattery::new();
    base_battery.rt = RegularityTest::new(3);
    base_battery.cce = CceTest::new(5, 3);
    base_battery.train(&[base_ipds.clone(), base_ipds.clone()]);

    for n in [RETRAIN_CAPTURE_CAP, RETRAIN_CAPTURE_CAP + 1] {
        let jobs = make_jobs(n);
        let bytes = ingest::encode_batch(&jobs);
        // The fleet reuses one recorded log across per-session replay
        // seeds, so cross-seed noise on this short fixture can top the 2%
        // default threshold; the test is about the retraining capture,
        // so set the flagging bar where the whole fleet counts as clean.
        let service = sanity
            .clone()
            .with_battery(base_battery.clone())
            .audit_service()
            .workers(4)
            .high_water(8)
            .threshold(0.5)
            .retrain_on_clean(true)
            .build()
            .expect("valid service configuration");
        let report = stream(&service, &bytes);
        assert_eq!(report.summary.sessions, n as u64);
        assert!(
            report.summary.flagged.is_empty(),
            "fixture fleet is clean (n = {n}): {:?}",
            report.summary.flagged
        );
        assert!(report.peak_resident <= 8, "bounded ingest held");

        // Capture stays capped at the boundary...
        let published = service.battery().expect("battery attached");
        let captured = n.min(RETRAIN_CAPTURE_CAP);
        assert_eq!(
            published.training_traces(),
            base_battery.training_traces() + captured,
            "n = {n}: exactly the capped prefix is absorbed"
        );

        // ...and the published generation is bit-identical to an explicit
        // absorb of that prefix.
        let mut explicit = base_battery.clone();
        let prefix: Vec<Vec<u64>> = jobs[..captured]
            .iter()
            .map(|j| j.observed_ipds.clone())
            .collect();
        explicit.absorb_all(&prefix);
        assert_eq!(
            published.to_json(),
            explicit.to_json(),
            "n = {n}: published generation == explicit absorb_all of the captured prefix"
        );
        service.shutdown();
    }
}

/// Cross-batch retraining: with the knob on, the service absorbs each
/// batch's clean traces, and the next batch is scored by the retrained
/// generation (observable as a changed statistical baseline).
#[test]
fn retrain_on_clean_feeds_the_next_batch() {
    let sanity = nfs_sanity(14);
    let batch_a = fleet(&sanity, 0..4, 2);
    let batch_b = fleet(&sanity, 4..8, 6);
    let battery = trained_on_clean(&batch_a, 2);
    let system = sanity.clone().with_battery(battery.clone());

    let service = system
        .audit_service()
        .workers(2)
        .battery(BatteryMode::Full)
        .retrain_on_clean(true)
        .build()
        .expect("valid service configuration");
    let report_a = service.submit_batch(&batch_a).wait().expect("audits");
    let clean_a = report_a.verdicts.iter().filter(|v| !v.flagged).count();
    assert!(clean_a > 0);
    let retrained = service.battery().expect("battery attached");
    assert_eq!(
        retrained.training_traces(),
        battery.training_traces() + clean_a,
        "clean traces of batch A were absorbed"
    );
    let report_b = service.submit_batch(&batch_b).wait().expect("audits");
    service.shutdown();

    // TDR scores never depend on the battery generation...
    let plain_b = sanity.audit_batch(
        &batch_b,
        &AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        },
    );
    for (full, tdr) in report_b.verdicts.iter().zip(&plain_b.verdicts) {
        assert_eq!(full.score.to_bits(), tdr.score.to_bits());
    }
    // ...and batch B's statistical scores come from the retrained
    // generation, pinned by scoring against it directly.
    let first = &report_b.verdicts[0];
    let expected_scores =
        retrained.score_all(&sanity_tdr::TraceView::observed(&batch_b[0].observed_ipds));
    for name in ["Shape test", "KS test", "RT test", "CCE test"] {
        assert_eq!(
            first.detector_scores[name].to_bits(),
            expected_scores[name].to_bits(),
            "{name}: batch B must be scored by the retrained battery"
        );
    }
}
