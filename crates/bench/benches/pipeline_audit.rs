//! Criterion bench for the audit pipeline: batch audit latency at 1 worker
//! vs a sharded pool over a pre-recorded NFS batch, plus streamed vs
//! materialized ingest of the same TDRB bytes (decode only, and the full
//! decode-and-audit path at the default high-water mark).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sanity_tdr::audit_pipeline::ingest::{self, BatchStream};
use sanity_tdr::{AuditConfig, AuditJob, Sanity, Sessions};
use vm::Vm;
use workloads::nfs;

fn build_batch(sessions: u64) -> (Sanity, Vec<AuditJob>) {
    let files = nfs::make_files(6, 2048, 6144, 777);
    let sanity = Sanity::new(nfs::server_program(files.len() as i32)).with_files(files.clone());
    let jobs = (0..sessions)
        .map(|id| {
            let sched = nfs::client_schedule(&files, 200_000, 740_000, 3_000 + id);
            let deliver = move |vm: &mut Vm| {
                for (at, pkt) in sched.packets {
                    vm.machine_mut().deliver_packet(at, pkt);
                }
            };
            let rec = sanity.record(id, deliver).expect("record");
            AuditJob {
                session_id: id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect();
    (sanity, jobs)
}

fn bench(c: &mut Criterion) {
    let (sanity, jobs) = build_batch(8);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for workers in [1usize, 4] {
        group.bench_function(format!("audit_batch/8_sessions/{workers}w"), |b| {
            let cfg = AuditConfig {
                workers,
                ..AuditConfig::default()
            };
            b.iter(|| sanity.audit_batch(&jobs, &cfg).summary.flagged.len())
        });
    }
    group.finish();

    // Ingest modes over identical TDRB bytes: materialized decode (whole
    // fleet resident) vs streaming decode (one session resident).
    let bytes = ingest::encode_batch(&jobs);
    let mut group = c.benchmark_group("ingest");
    group.sample_size(20);
    group.bench_function("decode_batch/materialized", |b| {
        b.iter(|| {
            ingest::decode_batch(black_box(&bytes))
                .expect("decodes")
                .len()
        })
    });
    group.bench_function("decode_batch/streamed", |b| {
        b.iter(|| {
            BatchStream::new(black_box(&bytes[..]))
                .expect("header")
                .fold(0usize, |n, s| {
                    black_box(s.expect("session decodes"));
                    n + 1
                })
        })
    });
    // Full path: bytes in, fleet summary out, both modes.
    group.sample_size(10);
    group.bench_function("audit/materialized", |b| {
        let cfg = AuditConfig::default();
        b.iter(|| {
            let decoded = ingest::decode_batch(black_box(&bytes)).expect("decodes");
            sanity.audit_batch(&decoded, &cfg).summary.flagged.len()
        })
    });
    group.bench_function("audit/streamed_hw8", |b| {
        // Like the materialized arm, each iteration spins up its own
        // workers (no more than the high-water mark can keep busy).
        let workers = AuditConfig::default().resolved_workers().min(8);
        let shared: std::sync::Arc<[u8]> = bytes.clone().into();
        b.iter(|| {
            let service = sanity
                .audit_service()
                .workers(workers)
                .high_water(8)
                .build()
                .expect("valid service configuration");
            let tdrb = std::io::Cursor::new(black_box(std::sync::Arc::clone(&shared)));
            let flagged = service
                .submit(Sessions::tdrb(tdrb), None)
                .expect("header decodes")
                .wait()
                .expect("stream audits")
                .summary
                .flagged
                .len();
            service.shutdown();
            flagged
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
