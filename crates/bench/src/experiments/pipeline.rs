//! Audit-pipeline throughput: sessions/sec vs worker count.
//!
//! The batch auditor's promise is that verdicts are worker-count
//! independent, so the only thing more cores change is throughput. This
//! experiment records a batch of NFS sessions once, then audits the same
//! batch through warm `AuditService`s of increasing size (the pool spins
//! up outside the timed region, so the sweep measures steady-state
//! throughput), reporting sessions/sec, speedup over one worker, and (as
//! a cross-check) that every configuration produced identical verdicts.
//!
//! With `--stream` the experiment instead compares ingest modes over the
//! same TDRB bytes: materialized (decode the whole batch, then audit)
//! against streaming (pull sessions lazily through the bounded channel)
//! at several high-water marks — the memory/throughput tradeoff of the
//! bounded-memory path, written to `BENCH_pipeline_stream.json`.

use std::fmt::Write as _;
use std::time::Instant;

use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::{AuditConfig, AuditJob, Sanity, Sessions};
use vm::Vm;
use workloads::nfs;

use super::{audit_tdrb_cold, Options};

fn build_batch(opts: &Options) -> (Sanity, Vec<AuditJob>) {
    let sessions = opts.runs_or(16, 64);
    let files = nfs::make_files(6, 2048, 6144, 777);
    let sanity = Sanity::new(nfs::server_program(files.len() as i32)).with_files(files.clone());

    let mut jobs = Vec::with_capacity(sessions);
    for id in 0..sessions as u64 {
        // Each session is the same service handling a different client.
        let sched = nfs::client_schedule(&files, 200_000, 740_000, 3_000 + id);
        let deliver = move |vm: &mut Vm| {
            for (at, pkt) in sched.packets {
                vm.machine_mut().deliver_packet(at, pkt);
            }
        };
        let rec = sanity.record(id, deliver).expect("record");
        jobs.push(AuditJob {
            session_id: id,
            observed_ipds: rec.tx_ipds_cycles(),
            log: rec.log,
        });
    }
    (sanity, jobs)
}

/// Run the audit-pipeline throughput sweep (or, with `--stream`, the
/// streamed-vs-materialized ingest comparison).
pub fn run(opts: &Options) {
    if opts.stream {
        run_stream(opts);
        return;
    }
    println!("== audit-pipeline: batch audit throughput ==\n");
    let t0 = Instant::now();
    let (sanity, jobs) = build_batch(opts);
    println!(
        "recorded {} NFS sessions in {:.1}s; sweeping worker counts\n",
        jobs.len(),
        t0.elapsed().as_secs_f64()
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts: Vec<usize> = vec![1, 2, 4, 8, 16]
        .into_iter()
        .filter(|&w| w <= cores)
        .collect();
    if !counts.contains(&cores) {
        counts.push(cores);
    }

    let mut csv = String::from("workers,seconds,sessions_per_sec,speedup\n");
    let mut baseline = 0.0f64;
    let mut reference_verdicts = None;
    for &workers in &counts {
        // The pool warm-up *and* the submission's one job-vector clone
        // happen outside the timed region — the sweep measures the audit
        // work itself, not thread spawn or memcpy.
        let service = sanity
            .audit_service()
            .workers(workers)
            .build()
            .expect("valid service configuration");
        let batch = jobs.clone();
        let t = Instant::now();
        let report = service
            .submit(Sessions::Jobs(batch), None)
            .expect("a materialized batch has no header to reject")
            .wait()
            .expect("batch submissions cannot fail ingest");
        let secs = t.elapsed().as_secs_f64();
        service.shutdown();
        let rate = jobs.len() as f64 / secs;
        if workers == 1 {
            baseline = secs;
        }
        let speedup = if baseline > 0.0 { baseline / secs } else { 1.0 };
        println!(
            "workers {workers:>2}: {secs:>7.2}s  {rate:>8.1} sessions/sec  speedup {speedup:>5.2}x  flagged {}",
            report.summary.flagged.len()
        );
        let _ = writeln!(csv, "{workers},{secs:.4},{rate:.2},{speedup:.3}");

        match &reference_verdicts {
            None => reference_verdicts = Some(report.verdicts),
            Some(reference) => assert_eq!(
                reference, &report.verdicts,
                "verdicts must not depend on worker count"
            ),
        }
    }
    println!("\n(verdicts identical across all worker counts)");
    opts.write("pipeline_throughput.csv", &csv);
}

/// Streamed vs materialized ingest of the same TDRB bytes: throughput and
/// peak session residency per high-water mark.
pub fn run_stream(opts: &Options) {
    println!("== audit-pipeline: streamed vs materialized ingest ==\n");
    let t0 = Instant::now();
    let (sanity, jobs) = build_batch(opts);
    let bytes = ingest::encode_batch(&jobs);
    println!(
        "recorded {} NFS sessions ({} KiB TDRB) in {:.1}s\n",
        jobs.len(),
        bytes.len() / 1024,
        t0.elapsed().as_secs_f64()
    );

    let cfg = AuditConfig::default();

    // Materialized baseline: decode the whole batch, then audit it. The
    // resident set is the entire fleet.
    let t = Instant::now();
    let decoded = ingest::decode_batch(&bytes).expect("batch decodes");
    let baseline = sanity.audit_batch(&decoded, &cfg);
    let base_secs = t.elapsed().as_secs_f64();
    let base_rate = jobs.len() as f64 / base_secs;
    println!(
        "materialized: {base_secs:>7.2}s  {base_rate:>8.1} sessions/sec  resident {} sessions",
        jobs.len()
    );

    // Streaming at increasing high-water marks: the memory bound rises,
    // the pipeline stalls less behind slow sessions.
    let mut rows = String::new();
    for high_water in [1usize, 2, 4, 8, 16] {
        let t = Instant::now();
        let report = audit_tdrb_cold(&sanity, &bytes, &AuditConfig { high_water, ..cfg });
        let secs = t.elapsed().as_secs_f64();
        let rate = jobs.len() as f64 / secs;
        println!(
            "streamed hw {high_water:>2}: {secs:>6.2}s  {rate:>8.1} sessions/sec  peak resident {:>2}  workers {}",
            report.peak_resident, report.workers
        );
        assert_eq!(
            report.summary, baseline.summary,
            "streamed summary must be byte-identical to the materialized one"
        );
        assert!(report.peak_resident <= high_water);
        let _ = write!(
            rows,
            "{}    {{\"high_water\": {high_water}, \"workers\": {}, \"seconds\": {secs:.4}, \
             \"sessions_per_sec\": {rate:.2}, \"peak_resident\": {}}}",
            if rows.is_empty() { "" } else { ",\n" },
            report.workers,
            report.peak_resident
        );
    }
    println!("\n(streamed summaries byte-identical to the materialized one)");

    let json = format!(
        "{{\n  \"sessions\": {},\n  \"batch_bytes\": {},\n  \"materialized\": \
         {{\"seconds\": {base_secs:.4}, \"sessions_per_sec\": {base_rate:.2}, \
         \"resident_sessions\": {}}},\n  \"streamed\": [\n{rows}\n  ]\n}}\n",
        jobs.len(),
        bytes.len(),
        jobs.len()
    );
    opts.write("BENCH_pipeline_stream.json", &json);
}
