//! Replay speed: host time per replay and per guest instruction, measured
//! end to end.
//!
//! Two measurements, both over the *same recorded logs*:
//!
//! 1. **Single-session replay** — a compute-bound SciMark kernel and an
//!    I/O-bound NFS session are each recorded once, then replayed many
//!    times. Replay is deterministic, so every timed replay must reproduce
//!    the untimed warm-up replay exactly: any divergence in cycles,
//!    wall_ps, console bytes, TX IPDs, or the core model's
//!    cache/TLB/branch/bus counters aborts the run with a nonzero exit.
//! 2. **Warm-service throughput** — an audit batch is pushed through a
//!    warm 4-worker `AuditService` as TDRB bytes, and its fleet summary
//!    must equal an in-process `Sanity::audit_batch` of the same jobs
//!    before sessions/s is reported.
//!
//! Results land in `BENCH_replay_speed.json`.

use std::fmt::Write as _;
use std::time::Instant;

use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::{AuditConfig, AuditJob, Sanity, Sessions};
use workloads::{nfs, scimark::Kernel};

use super::Options;

/// A replay outcome's determinism fingerprint: everything the audit
/// pipeline's verdicts derive from, plus the core model's counters, so a
/// timing-model change that moved one hit or miss diverges here even
/// where the cycle totals happen to agree.
fn fingerprint(rec: &replay::Recorded) -> String {
    format!(
        "{} {} {} {:?} {:?} {:?}",
        rec.outcome.icount,
        rec.outcome.cycles,
        rec.outcome.wall_ps,
        rec.outcome.console,
        rec.tx_ipds_cycles(),
        rec.core
    )
}

/// Replay `log` `iters` times under `s`, returning (mean ns per replay,
/// guest instructions per replay). Panics if any timed replay's
/// fingerprint differs from the warm-up replay's.
fn time_replays(name: &str, s: &Sanity, log: &replay::EventLog, iters: usize) -> (f64, u64) {
    // One untimed warm-up replay so allocator and cache state don't
    // charge the first timed iteration; it is also the reference every
    // timed replay must reproduce.
    let warm = s.replay(log, 2, |_| {}).expect("replay");
    let expected = fingerprint(&warm);
    let t = Instant::now();
    for k in 0..iters {
        let fp = fingerprint(&s.replay(log, 2, |_| {}).expect("replay"));
        // assert! exits nonzero on mismatch, which is what CI keys on.
        assert_eq!(fp, expected, "{name}: timed replay {k} diverged");
    }
    (
        t.elapsed().as_nanos() as f64 / iters as f64,
        warm.outcome.icount,
    )
}

type Setup = Box<dyn Fn(&mut vm::Vm)>;

/// Run the replay-speed measurement and write `BENCH_replay_speed.json`.
pub fn run(opts: &Options) {
    println!("== replay speed ==\n");
    let iters = opts.runs_or(10, 40);

    let workloads: Vec<(&'static str, Sanity, Setup)> = vec![
        (
            "scimark_fft_small",
            Sanity::new(Kernel::Fft.program_small()),
            Box::new(|_: &mut vm::Vm| {}),
        ),
        (
            "nfs_8req",
            {
                let files = nfs::make_files(4, 1500, 4000, 5);
                Sanity::new(nfs::server_program(8)).with_files(files)
            },
            {
                let files = nfs::make_files(4, 1500, 4000, 5);
                let sched = nfs::client_schedule(&files, 200_000, 700_000, 4);
                Box::new(move |vm: &mut vm::Vm| {
                    for (at, pkt) in sched.packets.iter().take(8) {
                        vm.machine_mut().deliver_packet(*at, pkt.clone());
                    }
                })
            },
        ),
    ];

    let mut json_rows = String::new();
    for (name, s, setup) in &workloads {
        let rec = s.record(1, |vm| setup(vm)).expect("record");
        let (ns, icount) = time_replays(name, s, &rec.log, iters);
        let per_instr = ns / icount as f64;
        println!("  {name:<20} {ns:>10.0} ns/replay ({per_instr:>5.1} ns/instr)");
        let _ = write!(
            json_rows,
            "{}    {{\"workload\": \"{name}\", \"guest_instructions\": {icount}, \
             \"ns_per_replay\": {ns:.0}, \"ns_per_instr\": {per_instr:.2}}}",
            if json_rows.is_empty() { "" } else { ",\n" },
        );
    }

    // Warm-service throughput, checked against an in-process audit.
    let sessions = opts.runs_or(12, 48) as u64;
    let s = Sanity::new(Kernel::Mc.program_small());
    let jobs: Vec<AuditJob> = (0..sessions)
        .map(|id| {
            let rec = s.record(1_000 + id, |_| {}).expect("record");
            AuditJob {
                session_id: id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect();
    let tdrb = ingest::encode_batch(&jobs);
    let service = s
        .audit_service()
        .workers(4)
        .build()
        .expect("valid service configuration");
    let t = Instant::now();
    let report = service
        .submit(Sessions::tdrb(std::io::Cursor::new(tdrb)), None)
        .expect("submit")
        .wait()
        .expect("batch audits");
    let secs = t.elapsed().as_secs_f64();
    service.shutdown();
    let throughput = sessions as f64 / secs;
    println!("  warm service (4 workers): {throughput:.0} sessions/s");
    let in_process = s.audit_batch(
        &jobs,
        &AuditConfig {
            workers: 1,
            ..AuditConfig::default()
        },
    );
    assert_eq!(
        format!("{:?}", report.summary),
        format!("{:?}", in_process.summary),
        "warm-service summary diverged from the in-process audit"
    );
    println!("\n(every timed replay reproduced its warm-up; service summary matches in-process)");

    let json = format!(
        "{{\n  \"replays_per_cell\": {iters},\n  \"workloads\": [\n{json_rows}\n  ],\n  \
         \"warm_service_sessions\": {sessions},\n  \
         \"warm_service_sessions_per_sec\": {throughput:.2},\n  \
         \"determinism_ok\": true\n}}\n"
    );
    opts.write("BENCH_replay_speed.json", &json);
}
