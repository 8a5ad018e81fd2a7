//! `repro` — regenerate every table and figure of the paper.
//!
//! One subcommand per artifact:
//!
//! ```text
//! repro fig2             Timing-variance CDFs across environments
//! repro fig3             Play vs. replay progress under functional replay
//! repro table1-ablation  Replay accuracy with each mitigation disabled
//! repro table2           SciMark: Sanity vs Oracle-INT vs Oracle-JIT
//! repro fig6             SciMark timing variance: Dirty / Clean / Sanity
//! repro fig7             NFS replay accuracy (play vs replay IPDs)
//! repro logsize          Log growth rate and composition (§6.5)
//! repro fig8             ROC/AUC for 4 channels × 5 detectors
//! repro fig8-fleet       The same comparison through the fleet pipeline
//!                        (trained battery, TDRB stream → BENCH_fig8_fleet.json)
//! repro noise-vs-jitter  TDR noise floor vs WAN jitter (§6.9)
//! repro pipeline         Batch-audit throughput: sessions/sec vs workers
//! repro pipeline --stream  Streamed vs materialized ingest throughput
//! repro daemon           Warm AuditService over the TDRC control plane
//!                        vs cold per-call spin-up (BENCH_daemon.json)
//! repro daemon --tcp     The daemon behind a localhost TCP listener:
//!                        throughput vs concurrent client connections
//!                        (BENCH_daemon_tcp.json)
//! repro daemon --tcp --backends N
//!                        A coordinator sharding the same client load
//!                        across 1..=N backend daemons: sessions/s per
//!                        fleet size, every merged summary byte-identical
//!                        to the single-daemon audit, plus a
//!                        killed-backend retry cell (BENCH_coordinator.json)
//! repro replay-speed     Host ns per replay and per guest instruction
//!                        (SciMark FFT, NFS 8-request) and warm-service
//!                        sessions/s, with determinism checks
//!                        (BENCH_replay_speed.json)
//! repro registry         Reference registry: cold load+verify vs warm
//!                        checkout, eviction-thrash sweep, multi- vs
//!                        single-reference daemon throughput
//!                        (BENCH_registry.json)
//! repro all              Everything above
//! ```
//!
//! Options: `--full` (paper-scale parameters), `--runs N` (override the
//! per-cell run count), `--out DIR` (results directory, default
//! `results/`), `--stream` (pipeline only: streaming-ingest comparison),
//! `--tcp` (daemon only: the TCP connection-count sweep), `--backends N`
//! (daemon --tcp only: the coordinator fleet-size sweep).

mod experiments;

use experiments::Options;

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| {
        eprintln!("usage: repro <fig2|fig3|table1-ablation|table2|fig6|fig7|logsize|fig8|fig8-fleet|noise-vs-jitter|pipeline|daemon|replay-speed|registry|all> [--full] [--runs N] [--out DIR] [--stream] [--tcp] [--backends N]");
        std::process::exit(2);
    });
    let mut opts = Options::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.full = true,
            "--stream" => opts.stream = true,
            "--tcp" => opts.tcp = true,
            "--backends" => {
                opts.backends = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--backends needs a number");
                    std::process::exit(2);
                });
            }
            "--runs" => {
                opts.runs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--runs needs a number");
                    std::process::exit(2);
                });
            }
            "--out" => {
                opts.out_dir = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&opts.out_dir).expect("create results dir");

    let t0 = std::time::Instant::now();
    match cmd.as_str() {
        "fig2" => experiments::fig2::run(&opts),
        "fig3" => experiments::fig3::run(&opts),
        "table1-ablation" => experiments::ablation::run(&opts),
        "table2" => experiments::table2::run(&opts),
        "fig6" => experiments::fig6::run(&opts),
        "fig7" => experiments::fig7::run(&opts),
        "logsize" => experiments::fig7::run_logsize(&opts),
        "fig8" => experiments::fig8::run(&opts),
        "fig8-fleet" => experiments::fig8_fleet::run(&opts),
        "noise-vs-jitter" => experiments::fig7::run_noise_vs_jitter(&opts),
        "pipeline" => experiments::pipeline::run(&opts),
        "daemon" if opts.tcp && opts.backends > 0 => experiments::daemon::run_coordinator(&opts),
        "daemon" if opts.tcp => experiments::daemon::run_tcp(&opts),
        "daemon" => experiments::daemon::run(&opts),
        "replay-speed" => experiments::replay_speed::run(&opts),
        "registry" => experiments::registry::run(&opts),
        "all" => {
            experiments::fig2::run(&opts);
            experiments::fig3::run(&opts);
            experiments::ablation::run(&opts);
            experiments::table2::run(&opts);
            experiments::fig6::run(&opts);
            experiments::fig7::run(&opts);
            experiments::fig7::run_logsize(&opts);
            experiments::fig8::run(&opts);
            experiments::fig8_fleet::run(&opts);
            experiments::fig7::run_noise_vs_jitter(&opts);
            experiments::pipeline::run(&opts);
            experiments::daemon::run(&opts);
            experiments::daemon::run_tcp(&opts);
            experiments::replay_speed::run(&opts);
            experiments::registry::run(&opts);
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}
