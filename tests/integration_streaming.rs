//! Cross-crate integration: bounded-memory streaming ingest of TDRB byte
//! streams over real recorded NFS workloads.
//!
//! The contract under test is the one `docs/FORMATS.md` specifies and the
//! pipeline promises: *how* the bytes arrive can never change *what* they
//! mean. The same TDRB bytes audited materialized and streamed — at any
//! read-buffer size, any worker count, any high-water mark — must produce
//! byte-identical verdicts and fleet summaries, and the streaming path must
//! never hold more than the configured number of sessions resident.

use std::io::{Cursor, Read};

use replay::stream::ChunkReader;
use replay::CodecError;
use sanity_tdr::audit_pipeline::ingest::{self, BatchStream, IngestError};
use sanity_tdr::{compare, AuditConfig, AuditJob, BatchReport, Sanity, Sessions, SubmitError};
use workloads::nfs;

/// Stream the TDRB bytes `tdrb` yields through a fresh service built from
/// `cfg` (`workers == 0` means one per core); a malformed batch header
/// and a malformed session both come back as the ingest error.
fn audit_stream(
    sanity: &Sanity,
    tdrb: impl Read + Send + 'static,
    cfg: &AuditConfig,
) -> Result<BatchReport, IngestError> {
    let workers = cfg.resolved_workers();
    let service = sanity
        .audit_service()
        .config(AuditConfig { workers, ..*cfg })
        .build()
        .expect("valid configuration");
    let report = match service.submit(Sessions::tdrb(tdrb), None) {
        Ok(ticket) => ticket.wait(),
        Err(SubmitError::Ingest(e)) => Err(e),
        Err(e) => panic!("{e}"),
    };
    service.shutdown();
    report
}

/// One NFS service and a fleet of its recorded sessions; sessions whose id
/// is in `covert` get two packets delayed by ~20% of the IPD.
fn record_fleet(n: u64, covert: &[u64]) -> (Sanity, Vec<AuditJob>) {
    let files = nfs::make_files(6, 2048, 6144, 31);
    let sanity = Sanity::new(nfs::server_program(files.len() as i32)).with_files(files.clone());
    let jobs = (0..n)
        .map(|id| {
            let sched = nfs::client_schedule(&files, 200_000, 740_000, 500 + id);
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
    (sanity, jobs)
}

#[test]
fn streamed_and_materialized_summaries_are_byte_identical() {
    let (sanity, jobs) = record_fleet(6, &[2, 5]);
    let bytes = ingest::encode_batch(&jobs);
    let cfg = AuditConfig {
        workers: 3,
        high_water: 4,
        ..AuditConfig::default()
    };

    // The materialized path: decode everything, then audit.
    let materialized = sanity.audit_batch(&ingest::decode_batch(&bytes).expect("decodes"), &cfg);
    assert_eq!(materialized.summary.flagged, vec![2, 5]);

    // The streamed path, with the transport splitting the bytes at every
    // kind of adversarial boundary: chunk == 1 puts a read boundary at
    // every byte (mid-varint, mid-frame, mid-CRC); the larger sizes hit
    // frame-straddling and aligned cases.
    for read_buf in [1usize, 7, 4096] {
        let chunked = ChunkReader::new(Cursor::new(bytes.clone()), read_buf);
        let report = audit_stream(&sanity, chunked, &cfg)
            .unwrap_or_else(|e| panic!("read buffer {read_buf}: {e}"));
        assert_eq!(
            report.verdicts, materialized.verdicts,
            "read buffer {read_buf}: verdicts must be byte-identical"
        );
        assert_eq!(
            report.summary, materialized.summary,
            "read buffer {read_buf}: summaries must be byte-identical"
        );
        assert!(
            report.peak_resident <= cfg.high_water,
            "read buffer {read_buf}: peak {} exceeds high-water {}",
            report.peak_resident,
            cfg.high_water
        );
    }
}

#[test]
fn streaming_respects_high_water_mark_below_batch_size() {
    let (sanity, jobs) = record_fleet(6, &[1]);
    let bytes = ingest::encode_batch(&jobs);
    for high_water in [1usize, 2, 3] {
        let cfg = AuditConfig {
            workers: 4,
            high_water,
            ..AuditConfig::default()
        };
        let report =
            audit_stream(&sanity, Cursor::new(bytes.clone()), &cfg).expect("stream audits");
        assert_eq!(report.summary.sessions, jobs.len() as u64);
        assert!(
            report.peak_resident <= high_water,
            "peak {} exceeds high-water {high_water}",
            report.peak_resident
        );
        // The bound was binding, not vacuous: more sessions streamed
        // through than were ever allowed to be resident.
        assert!(jobs.len() > high_water);
        assert_eq!(report.summary.flagged, vec![1]);
    }
}

#[test]
fn verdicts_independent_of_worker_count_and_high_water() {
    let (sanity, jobs) = record_fleet(5, &[3]);
    let bytes = ingest::encode_batch(&jobs);
    let base = AuditConfig::default();
    let reference = audit_stream(
        &sanity,
        Cursor::new(bytes.clone()),
        &AuditConfig {
            workers: 1,
            high_water: 1,
            ..base
        },
    )
    .expect("serial stream");
    for (workers, high_water) in [(2, 2), (4, 8), (3, 5)] {
        let report = audit_stream(
            &sanity,
            Cursor::new(bytes.clone()),
            &AuditConfig {
                workers,
                high_water,
                ..base
            },
        )
        .expect("stream audits");
        assert_eq!(
            report.verdicts, reference.verdicts,
            "workers {workers}, high_water {high_water}"
        );
        assert_eq!(report.summary, reference.summary);
    }
}

#[test]
fn pull_based_ingest_decodes_real_fleet_lazily() {
    let (_, jobs) = record_fleet(4, &[]);
    let bytes = ingest::encode_batch(&jobs);
    let mut stream = BatchStream::new(&bytes[..]).expect("header");
    assert_eq!(stream.sessions_declared(), 4);
    let mut back = Vec::new();
    for item in &mut stream {
        back.push(item.expect("session decodes"));
    }
    assert_eq!(back, jobs, "streamed sessions equal the originals");
}

#[test]
fn truncated_stream_reports_the_failing_session_index() {
    let (sanity, jobs) = record_fleet(3, &[]);
    let bytes = ingest::encode_batch(&jobs);
    let cut = bytes.len() - 5; // inside the last session's log frame
    let err = audit_stream(
        &sanity,
        Cursor::new(bytes[..cut].to_vec()),
        &AuditConfig::default(),
    )
    .expect_err("truncation must fail");
    assert_eq!(
        err,
        IngestError::BadSession {
            index: 2,
            cause: CodecError::Truncated
        }
    );
}

#[test]
fn corrupted_crc_reports_the_failing_session_index() {
    let (sanity, jobs) = record_fleet(3, &[]);
    let mut bytes = ingest::encode_batch(&jobs);
    let mid = bytes.len() / 2; // inside some session's body
    bytes[mid] ^= 0x20;
    let err = audit_stream(&sanity, Cursor::new(bytes), &AuditConfig::default())
        .expect_err("corruption must fail");
    match err {
        IngestError::BadSession { index, cause } => {
            assert!(index < 3, "index {index} in range");
            assert!(
                matches!(
                    cause,
                    CodecError::BadChecksum { .. }
                        | CodecError::Truncated
                        | CodecError::BadMagic
                        | CodecError::LengthOverflow
                ),
                "corruption classified as data damage: {cause:?}"
            );
        }
        other => panic!("expected an indexed session error, got {other:?}"),
    }
}

#[test]
fn unknown_batch_version_rejected_before_any_decode() {
    let (sanity, jobs) = record_fleet(1, &[]);
    let mut bytes = ingest::encode_batch(&jobs);
    bytes[4] = 3; // version low byte
    let err = audit_stream(&sanity, Cursor::new(bytes), &AuditConfig::default())
        .expect_err("future version must fail");
    assert_eq!(err, IngestError::UnsupportedVersion(3));
}

#[test]
fn zero_session_batch_streams_to_an_empty_summary() {
    let (sanity, _) = record_fleet(1, &[]);
    let bytes = ingest::encode_batch(&[]);
    let report = audit_stream(&sanity, Cursor::new(bytes.clone()), &AuditConfig::default())
        .expect("empty batch streams");
    assert!(report.verdicts.is_empty());
    assert_eq!(report.summary.sessions, 0);
    assert_eq!(report.peak_resident, 0);
    // ...and the streaming summary still equals the materialized one.
    let materialized = sanity.audit_batch(
        &ingest::decode_batch(&bytes).expect("decodes"),
        &AuditConfig::default(),
    );
    assert_eq!(report.summary, materialized.summary);
}
