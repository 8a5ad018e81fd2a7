//! `tdrd` — the deployable audit daemon: a warm
//! [`AuditService`](sanity_tdr::AuditService) behind a TCP listener
//! speaking the TDRC control plane (`docs/FORMATS.md` §5).
//!
//! ```text
//! tdrd [--bind ADDR] [--workers N] [--high-water W] [--threshold T]
//!      [--battery FILE] [--retrain] [--idle-timeout SECS]
//!      [--stats-interval SECS] [--max-conns N]
//!      [--tenant-quota SESSIONS,BATCHES] [--reference-dir DIR]
//!      [--reference-budget BYTES]
//!      Serve. Prints "tdrd: listening on ADDR" once the listener is up
//!      (bind to port 0 for an ephemeral port and parse that line).
//!      `--idle-timeout` closes connections whose peer goes silent for
//!      SECS (default: never — pinned historical behavior).
//!      `--stats-interval` prints a one-line metrics summary to stderr
//!      every SECS.
//!      `--max-conns` caps concurrent connections: past the cap, a
//!      connection is answered with one TDRC `Busy` frame and closed
//!      (FORMATS.md §5.6). `--tenant-quota` bounds what each connection
//!      may submit — at most SESSIONS declared sessions per batch and
//!      BATCHES admitted batches per connection; over-quota submissions
//!      get an in-band `Busy` and the connection survives.
//!      `--reference-dir` preloads every `*.tdrp` container in DIR into
//!      the reference registry at boot (verify-on-load; a rejected file
//!      is a fatal configuration error). `--reference-budget` bounds the
//!      registry's resident canonical program bytes (LRU eviction of
//!      idle references past it).
//!
//! tdrd --client ADDR [--sessions N] [--batches M] [--threshold T]
//!      [--stats]
//!      Smoke-test client: seal the built-in reference workload as a TDRP
//!      container, register it with `PutReference`, record N clean
//!      sessions, submit them as M TDRB batches over TCP *against the
//!      registered reference id* (SubmitBatch v2), and verify the
//!      returned verdicts bit-identical against an in-process audit of
//!      the same jobs (pass the daemon's `--threshold` here too if it
//!      runs a non-default one, so the baseline's flags agree).
//!      `--stats` additionally fetches a TDRC `Stats` snapshot after the
//!      last batch and cross-checks the daemon's counters — including the
//!      registry counters — against the client's own tally (assumes this
//!      client is the daemon's only traffic, as in the CI smoke run).
//!      Exits nonzero on any mismatch.
//!
//! tdrd --export-references DIR
//!      Seal the built-in echo reference plus the workloads crate's
//!      registry artifacts (SciMark FFT, the NFS server, a corpus
//!      program) as `*.tdrp` files under DIR, printing each file's
//!      reference id. This is how CI provisions `--reference-dir`.
//!
//! tdrd --coordinator --backends ADDR[,ADDR...] [--bind ADDR]
//!      [--stats-interval SECS]
//!      Coordinator mode: accept the unchanged TDRC client protocol and
//!      shard each batch's sessions across the backend daemons at the
//!      given addresses (`session_id mod N`), merging the verdict
//!      streams into one response whose fleet summary is byte-identical
//!      to a single-daemon audit (`docs/FORMATS.md` §8). A backend that
//!      dies mid-batch has its shard retried on a survivor; clients of
//!      the coordinator never see backend topology. Prints the same
//!      "tdrd: listening on ADDR" line as serve mode. Backends under a
//!      coordinator should not run `--retrain` (§8.4).
//! ```
//!
//! The daemon audits suspects against *known-good reference programs*.
//! The built-in echo service remains the default reference (v1
//! `SubmitBatch` frames audit against it, unchanged), and since the
//! reference registry landed, deployments additionally ship programs
//! over the wire as sealed, hash-addressed TDRP containers — verified
//! on load, cached warm, LRU-evicted under `--reference-budget`. The
//! `--battery FILE` flag loads a trained
//! [`DetectorBattery`](detectors::DetectorBattery) from its JSON form and
//! enables full five-detector scoring for the default reference;
//! `--retrain` additionally folds each batch's clean traces back into
//! the battery across batches. Registered references score TDR-only (a
//! TDRP ships no battery).
//!
//! Shutdown semantics: a TDRC `Shutdown` frame ends one *connection*;
//! the daemon process is stopped by the operator (SIGTERM — connections
//! are dropped, which clients observe as a typed disconnect).

use std::net::{TcpListener, TcpStream};
use std::process::exit;

use jbc::hll::{dsl::*, HTy, Module};
use jbc::ElemTy;
use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::{
    serve_tcp_with, AuditConfig, AuditJob, BatteryMode, Client, DaemonOptions, Sanity, TenantQuota,
};

/// The compiled-in reference binary: a small echo service (receive a
/// packet, do payload-dependent work, respond — three rounds), the same
/// shape the bench suite's daemon experiment audits.
fn echo_program(rounds: i32) -> jbc::Program {
    let mut m = Module::new("Echo");
    m.native("wait_packet", &[], None);
    m.native("net_recv", &[HTy::Arr(ElemTy::I8)], Some(HTy::I32));
    m.native("net_send", &[HTy::Arr(ElemTy::I8), HTy::I32], None);
    m.func(fn_void(
        "main",
        vec![],
        vec![
            let_("buf", newarr(ElemTy::I8, i(256))),
            let_("done", i(0)),
            while_(
                lt(var("done"), i(rounds)),
                vec![
                    expr(native("wait_packet", vec![])),
                    let_("len", native("net_recv", vec![var("buf")])),
                    if_(
                        gt(var("len"), i(0)),
                        vec![
                            let_("work", idx(var("buf"), i(0))),
                            let_("acc", i(0)),
                            for_(
                                "k",
                                i(0),
                                mul(var("work"), i(10)),
                                vec![set("acc", add(var("acc"), var("k")))],
                            ),
                            expr(native("net_send", vec![var("buf"), var("len")])),
                            set("done", add(var("done"), i(1))),
                        ],
                        vec![],
                    ),
                ],
            ),
        ],
    ));
    m.compile().expect("compile built-in reference program")
}

const ROUNDS: i32 = 3;

fn reference() -> Sanity {
    Sanity::new(echo_program(ROUNDS))
}

/// Record one clean session of the reference workload (deterministic in
/// `run`), as both the daemon's clients and the smoke test produce them.
fn record_session(sanity: &Sanity, run: u64, session_id: u64) -> AuditJob {
    let rec = sanity
        .record(run, move |vm| {
            for k in 0..ROUNDS as u64 {
                let data = vec![(10 + k * 3) as u8 ^ (session_id as u8); 64];
                vm.machine_mut().deliver_packet(100_000 + k * 400_000, data);
            }
        })
        .expect("record reference session");
    AuditJob {
        session_id,
        observed_ipds: rec.tx_ipds_cycles(),
        log: rec.log,
    }
}

struct Args {
    bind: String,
    workers: usize,
    high_water: usize,
    threshold: Option<f64>,
    battery: Option<String>,
    retrain: bool,
    client: Option<String>,
    sessions: usize,
    batches: usize,
    stats: bool,
    stats_interval: Option<f64>,
    idle_timeout: Option<f64>,
    max_conns: Option<usize>,
    tenant_quota: Option<TenantQuota>,
    reference_dir: Option<String>,
    reference_budget: Option<u64>,
    export_references: Option<String>,
    coordinator: bool,
    backends: Option<String>,
    /// Flag names seen on the command line, for per-mode validation: a
    /// flag the selected mode ignores is a configuration mistake the
    /// operator must hear about, not a silent no-op.
    seen: Vec<&'static str>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tdrd [--bind ADDR] [--workers N] [--high-water W] [--threshold T] \
         [--battery FILE] [--retrain] [--idle-timeout SECS] [--stats-interval SECS] \
         [--max-conns N] [--tenant-quota SESSIONS,BATCHES] [--reference-dir DIR] \
         [--reference-budget BYTES]\n       \
         tdrd --client ADDR [--sessions N] [--batches M] [--threshold T] [--stats]\n       \
         tdrd --export-references DIR\n       \
         tdrd --coordinator --backends ADDR[,ADDR...] [--bind ADDR] [--stats-interval SECS]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        bind: "127.0.0.1:4980".to_string(),
        workers: 2,
        high_water: 8,
        threshold: None,
        battery: None,
        retrain: false,
        client: None,
        sessions: 6,
        batches: 2,
        stats: false,
        stats_interval: None,
        idle_timeout: None,
        max_conns: None,
        tenant_quota: None,
        reference_dir: None,
        reference_budget: None,
        export_references: None,
        coordinator: false,
        backends: None,
        seen: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                exit(2)
            })
        };
        match a.as_str() {
            "--bind" => args.bind = value("--bind"),
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers"),
            "--high-water" => args.high_water = parse_num(&value("--high-water"), "--high-water"),
            "--threshold" => {
                args.threshold = Some(value("--threshold").parse().unwrap_or_else(|_| usage()))
            }
            "--battery" => args.battery = Some(value("--battery")),
            "--retrain" => args.retrain = true,
            "--client" => args.client = Some(value("--client")),
            "--sessions" => args.sessions = parse_num(&value("--sessions"), "--sessions"),
            "--batches" => args.batches = parse_num(&value("--batches"), "--batches"),
            "--stats" => args.stats = true,
            "--stats-interval" => {
                args.stats_interval =
                    Some(parse_secs(&value("--stats-interval"), "--stats-interval"))
            }
            "--idle-timeout" => {
                args.idle_timeout = Some(parse_secs(&value("--idle-timeout"), "--idle-timeout"))
            }
            "--max-conns" => args.max_conns = Some(parse_num(&value("--max-conns"), "--max-conns")),
            "--tenant-quota" => {
                args.tenant_quota = Some(parse_quota(&value("--tenant-quota"), "--tenant-quota"))
            }
            "--reference-dir" => args.reference_dir = Some(value("--reference-dir")),
            "--reference-budget" => {
                args.reference_budget = Some(parse_bytes(
                    &value("--reference-budget"),
                    "--reference-budget",
                ))
            }
            "--export-references" => args.export_references = Some(value("--export-references")),
            "--coordinator" => args.coordinator = true,
            "--backends" => args.backends = Some(value("--backends")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option: {other}");
                usage()
            }
        }
        if a.starts_with("--") && a != "--help" {
            args.seen.push(match a.as_str() {
                "--bind" => "--bind",
                "--workers" => "--workers",
                "--high-water" => "--high-water",
                "--threshold" => "--threshold",
                "--battery" => "--battery",
                "--retrain" => "--retrain",
                "--client" => "--client",
                "--sessions" => "--sessions",
                "--batches" => "--batches",
                "--stats" => "--stats",
                "--stats-interval" => "--stats-interval",
                "--idle-timeout" => "--idle-timeout",
                "--max-conns" => "--max-conns",
                "--tenant-quota" => "--tenant-quota",
                "--reference-dir" => "--reference-dir",
                "--reference-budget" => "--reference-budget",
                "--export-references" => "--export-references",
                "--coordinator" => "--coordinator",
                "--backends" => "--backends",
                _ => unreachable!("unknown flags exit above"),
            });
        }
    }
    // Reject flags the selected mode would silently ignore: e.g.
    // `--client ... --battery f.json` would smoke-test a TDR-only
    // baseline while the operator believes battery scoring was checked.
    let (mode, inapplicable): (&str, &[&str]) = if args.export_references.is_some() {
        (
            "export",
            &[
                "--bind",
                "--workers",
                "--high-water",
                "--threshold",
                "--battery",
                "--retrain",
                "--client",
                "--sessions",
                "--batches",
                "--stats",
                "--stats-interval",
                "--idle-timeout",
                "--max-conns",
                "--tenant-quota",
                "--reference-dir",
                "--reference-budget",
                "--coordinator",
                "--backends",
            ],
        )
    } else if args.client.is_some() {
        (
            "client",
            &[
                "--bind",
                "--workers",
                "--high-water",
                "--battery",
                "--retrain",
                "--idle-timeout",
                "--stats-interval",
                "--max-conns",
                "--tenant-quota",
                "--reference-dir",
                "--reference-budget",
                "--coordinator",
                "--backends",
            ],
        )
    } else if args.coordinator {
        // A coordinator routes — it audits nothing itself, so every
        // service-configuration flag is a misunderstanding to reject.
        if args.backends.is_none() {
            eprintln!("--coordinator needs --backends ADDR[,ADDR...]");
            usage();
        }
        (
            "coordinator",
            &[
                "--workers",
                "--high-water",
                "--threshold",
                "--battery",
                "--retrain",
                "--idle-timeout",
                "--max-conns",
                "--tenant-quota",
                "--reference-dir",
                "--reference-budget",
                "--sessions",
                "--batches",
                "--stats",
            ],
        )
    } else {
        (
            "serve",
            &["--sessions", "--batches", "--stats", "--backends"],
        )
    };
    for flag in inapplicable {
        if args.seen.contains(flag) {
            eprintln!("{flag} does not apply in {mode} mode");
            usage();
        }
    }
    args
}

fn parse_num(s: &str, name: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{name} needs a number, got {s:?}");
        exit(2)
    })
}

/// Parse `--tenant-quota SESSIONS,BATCHES` (both positive).
fn parse_quota(s: &str, name: &str) -> TenantQuota {
    let bad = || -> ! {
        eprintln!("{name} needs SESSIONS,BATCHES (two positive numbers), got {s:?}");
        exit(2)
    };
    let Some((sessions, batches)) = s.split_once(',') else {
        bad()
    };
    let max_sessions: u64 = sessions.trim().parse().unwrap_or_else(|_| bad());
    let max_batches: u64 = batches.trim().parse().unwrap_or_else(|_| bad());
    if max_sessions == 0 || max_batches == 0 {
        bad();
    }
    TenantQuota {
        max_sessions,
        max_batches,
    }
}

/// Parse `--reference-budget BYTES` (a positive byte count).
fn parse_bytes(s: &str, name: &str) -> u64 {
    let bytes: u64 = s.parse().unwrap_or_else(|_| {
        eprintln!("{name} needs a byte count, got {s:?}");
        exit(2)
    });
    if bytes == 0 {
        eprintln!("{name} needs a positive byte count, got {s:?}");
        exit(2);
    }
    bytes
}

/// Parse a positive seconds value (fractional allowed: `0.5`).
fn parse_secs(s: &str, name: &str) -> f64 {
    let secs: f64 = s.parse().unwrap_or_else(|_| {
        eprintln!("{name} needs seconds, got {s:?}");
        exit(2)
    });
    if !secs.is_finite() || secs <= 0.0 {
        eprintln!("{name} needs positive seconds, got {s:?}");
        exit(2);
    }
    secs
}

fn main() {
    let args = parse_args();
    if let Some(dir) = args.export_references.clone() {
        run_export(&dir);
        return;
    }
    if args.coordinator {
        run_coordinator(&args);
    }
    match args.client.clone() {
        Some(addr) => run_client(&addr, &args),
        None => run_server(&args),
    }
}

/// `--coordinator --backends ADDR[,ADDR...]`: serve the TDRC control
/// plane as a shard router over the given backend daemons.
fn run_coordinator(args: &Args) -> ! {
    let backends: Vec<String> = args
        .backends
        .as_deref()
        .unwrap_or_default()
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        eprintln!("--backends needs at least one address");
        exit(2);
    }
    let listener = TcpListener::bind(&args.bind).unwrap_or_else(|e| {
        eprintln!("tdrd: cannot bind {}: {e}", args.bind);
        exit(1)
    });
    let coordinator = sanity_tdr::serve_coordinator(listener, backends).unwrap_or_else(|e| {
        eprintln!("tdrd: cannot start coordinator: {e}");
        exit(1)
    });
    // The same parseable line serve mode prints; stdout, flushed.
    println!("tdrd: listening on {}", coordinator.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush stdout");
    eprintln!(
        "tdrd: coordinator over {} backend(s): {}",
        coordinator.backends().len(),
        coordinator.backends().join(", ")
    );
    match args.stats_interval {
        Some(secs) => {
            let period = std::time::Duration::from_secs_f64(secs);
            loop {
                std::thread::sleep(period);
                eprintln!(
                    "tdrd: stats {}",
                    coordinator.metrics_snapshot().render_line()
                );
            }
        }
        None => loop {
            std::thread::park();
        },
    }
}

/// `--export-references DIR`: seal the daemon's built-in echo reference
/// plus the workloads crate's registry artifacts as `*.tdrp` files, the
/// set a CI or fleet bring-up feeds back through `--reference-dir`.
fn run_export(dir: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("tdrd: cannot create {dir}: {e}");
        exit(1)
    });
    let mut programs = vec![("echo".to_string(), echo_program(ROUNDS))];
    programs.extend(
        workloads::artifacts::registry_artifacts()
            .into_iter()
            .map(|(name, program)| (name.to_string(), program)),
    );
    for (name, program) in &programs {
        let tdrp = jbc::container::seal(program);
        let id = jbc::container::reference_id(program);
        let path = std::path::Path::new(dir).join(format!("{name}.tdrp"));
        std::fs::write(&path, &tdrp).unwrap_or_else(|e| {
            eprintln!("tdrd: cannot write {}: {e}", path.display());
            exit(1)
        });
        println!(
            "tdrd: exported {name}.tdrp id={} ({} bytes)",
            id.to_hex(),
            tdrp.len()
        );
    }
    println!(
        "tdrd: exported {} reference containers to {dir}",
        programs.len()
    );
}

fn run_server(args: &Args) -> ! {
    let mut sanity = reference();
    let mut battery_mode = BatteryMode::TdrOnly;
    if let Some(path) = &args.battery {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("tdrd: cannot read battery {path}: {e}");
            exit(1)
        });
        let battery = detectors::DetectorBattery::from_json(&json).unwrap_or_else(|e| {
            eprintln!("tdrd: battery {path} failed to parse: {e}");
            exit(1)
        });
        if !battery.is_trained() {
            eprintln!("tdrd: battery {path} is untrained");
            exit(1);
        }
        sanity = sanity.with_battery(battery);
        battery_mode = BatteryMode::Full;
    } else if args.retrain {
        eprintln!("tdrd: --retrain needs --battery FILE (nothing to retrain)");
        exit(2);
    }

    let mut builder = sanity
        .audit_service()
        .workers(args.workers)
        .high_water(args.high_water)
        .battery(battery_mode)
        .retrain_on_clean(args.retrain);
    if let Some(t) = args.threshold {
        builder = builder.threshold(t);
    }
    if let Some(bytes) = args.reference_budget {
        builder = builder.reference_budget(bytes);
    }
    let service = builder.build().unwrap_or_else(|e| {
        eprintln!("tdrd: invalid configuration: {e}");
        exit(2)
    });

    // Preload `--reference-dir` before the listener exists: a daemon that
    // prints "listening" has every configured reference resident, and a
    // container that fails verify-on-load is a fatal configuration error,
    // not a runtime surprise.
    if let Some(dir) = &args.reference_dir {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| {
                eprintln!("tdrd: cannot read --reference-dir {dir}: {e}");
                exit(1)
            })
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "tdrp"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            eprintln!("tdrd: --reference-dir {dir} holds no *.tdrp files");
            exit(1);
        }
        for path in &paths {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("tdrd: cannot read {}: {e}", path.display());
                exit(1)
            });
            let load = service.put_reference(&bytes).unwrap_or_else(|e| {
                eprintln!("tdrd: {} was refused: {e}", path.display());
                exit(1)
            });
            eprintln!(
                "tdrd: loaded reference {} id={} ({} bytes resident)",
                path.display(),
                load.id.to_hex(),
                load.resident_bytes
            );
        }
    }

    let listener = TcpListener::bind(&args.bind).unwrap_or_else(|e| {
        eprintln!("tdrd: cannot bind {}: {e}", args.bind);
        exit(1)
    });
    let options = DaemonOptions {
        idle_timeout: args.idle_timeout.map(std::time::Duration::from_secs_f64),
        max_conns: args.max_conns,
        tenant_quota: args.tenant_quota,
    };
    let daemon = serve_tcp_with(service, listener, options).unwrap_or_else(|e| {
        eprintln!("tdrd: cannot start accept loop: {e}");
        exit(1)
    });
    // The line scripts parse for ephemeral-port binds; stdout, flushed.
    println!("tdrd: listening on {}", daemon.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush stdout");
    eprintln!(
        "tdrd: {} workers, high-water {}, battery {:?}{}",
        args.workers,
        args.high_water,
        battery_mode,
        if args.retrain {
            ", retrain-on-clean"
        } else {
            ""
        },
    );
    // Serve until the operator kills the process; connections run on the
    // daemon's own threads. With --stats-interval the main thread doubles
    // as the stats reporter (stderr, so scripts parsing stdout are
    // unaffected).
    match args.stats_interval {
        Some(secs) => {
            let period = std::time::Duration::from_secs_f64(secs);
            loop {
                std::thread::sleep(period);
                eprintln!(
                    "tdrd: stats {}",
                    daemon.service().metrics_snapshot().render_line()
                );
            }
        }
        None => loop {
            std::thread::park();
        },
    }
}

/// `--stats`: fetch a TDRC `Stats` snapshot over the live connection and
/// cross-check the daemon's counters against this client's own tally.
/// Valid when this client is the daemon's only traffic (the CI smoke
/// run): a daemon that served other clients legitimately counts higher.
fn check_stats<T: std::io::Read + std::io::Write>(client: &mut Client<T>, args: &Args) {
    let snap = client.stats().unwrap_or_else(|e| {
        eprintln!("tdrd client: stats request failed: {e}");
        exit(1)
    });
    println!("daemon stats snapshot:\n{}", snap.render());
    let expected_sessions = (args.sessions * args.batches) as u64;
    let mut bad = 0usize;
    let mut check = |name: &str, got: u64, want: u64| {
        if got != want {
            eprintln!("tdrd client: stats counter {name} = {got}, expected {want}");
            bad += 1;
        }
    };
    check(
        "sessions_audited",
        snap.counter("sessions_audited"),
        expected_sessions,
    );
    check(
        "sessions_submitted",
        snap.counter("sessions_submitted"),
        expected_sessions,
    );
    check(
        "batches_completed",
        snap.counter("batches_completed"),
        args.batches as u64,
    );
    check("conn_active", snap.gauge("conn_active"), 1);
    check("queue_depth", snap.gauge("queue_depth"), 0);
    // The smoke run registers exactly one reference and audits every
    // batch against it, so the registry plane is fully determined too.
    check("registry_loads", snap.counter("registry_loads"), 1);
    check(
        "registry_hits",
        snap.counter("registry_hits"),
        args.batches as u64,
    );
    check("registry_misses", snap.counter("registry_misses"), 0);
    check("registry_evictions", snap.counter("registry_evictions"), 0);
    check("registry_references", snap.gauge("registry_references"), 1);
    if bad > 0 {
        eprintln!("tdrd client: {bad} stats counters disagree with the client tally");
        exit(1);
    }
    println!("stats OK: daemon counters match the client's own tally");
}

fn run_client(addr: &str, args: &Args) {
    let sanity = reference();
    println!(
        "tdrd client: recording {} reference sessions for {} batch(es)",
        args.sessions, args.batches
    );
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("tdrd client: cannot connect to {addr}: {e}");
        exit(1)
    });
    let mut client = Client::new(stream);

    // Register the reference program over the wire and audit against the
    // returned id (SubmitBatch v2) — the smoke test exercises the
    // registry path end to end, not the compiled-in default.
    let program = echo_program(ROUNDS);
    let expected_id = jbc::container::reference_id(&program);
    let put = client
        .put_reference(0, jbc::container::seal(&program))
        .unwrap_or_else(|e| {
            eprintln!("tdrd client: PutReference failed: {e}");
            exit(1)
        });
    if put.reference != expected_id {
        eprintln!(
            "tdrd client: daemon admitted reference {} but the sealed program hashes to {}",
            put.reference.to_hex(),
            expected_id.to_hex()
        );
        exit(1);
    }
    match &put.status {
        sanity_tdr::AckStatus::Loaded | sanity_tdr::AckStatus::AlreadyResident => {}
        other => {
            eprintln!("tdrd client: PutReference not admitted: {other:?}");
            exit(1);
        }
    }
    println!(
        "registered reference {} ({} bytes resident)",
        expected_id.to_hex(),
        put.resident_bytes
    );

    // The in-process baseline: verdict scores are independent of worker
    // count and transport, so any mismatch indicates daemon corruption.
    // The flagging *threshold* is daemon configuration, though — when
    // smoke-testing a daemon started with a non-default `--threshold`,
    // pass the same value to the client so the baseline flags match.
    let cfg = AuditConfig {
        workers: 2,
        threshold: args.threshold.unwrap_or(AuditConfig::default().threshold),
        ..AuditConfig::default()
    };
    let mut mismatches = 0usize;
    for b in 0..args.batches as u64 {
        let jobs: Vec<AuditJob> = (0..args.sessions as u64)
            .map(|id| record_session(&sanity, 1_000 * b + id, id))
            .collect();
        let local = sanity.audit_batch(&jobs, &cfg);
        let tdrb = ingest::encode_batch(&jobs);
        let outcome = client
            .submit(b, tdrb, Some(expected_id), |_, _| {})
            .unwrap_or_else(|e| {
                eprintln!("tdrd client: batch {b} protocol failure: {e}");
                exit(1)
            });
        let summary = match outcome.result {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("tdrd client: daemon rejected batch {b}: {msg}");
                exit(1);
            }
        };
        if outcome.verdicts.len() != jobs.len() {
            eprintln!(
                "tdrd client: batch {b}: {} verdicts for {} sessions",
                outcome.verdicts.len(),
                jobs.len()
            );
            exit(1);
        }
        // Every verdict field except `detector_scores` is
        // battery-independent, so compare them all bit-exact whatever
        // scoring mode the daemon runs (the score map exists only when
        // the daemon was started with `--battery`; the local baseline is
        // TDR-only, so it is compared only against a batteryless daemon).
        for (wire, local) in outcome.verdicts.iter().zip(&local.verdicts) {
            let diverged = wire.score.to_bits() != local.score.to_bits()
                || wire.flagged != local.flagged
                || wire.session_id != local.session_id
                || wire.tx_packets != local.tx_packets
                || wire.replayed_cycles != local.replayed_cycles
                || wire.error != local.error
                || (wire.detector_scores.is_empty()
                    && wire.detector_scores != local.detector_scores);
            if diverged {
                eprintln!(
                    "tdrd client: batch {b} session {}: wire verdict diverged \
                     (wire {:.6}/{}, local {:.6}/{})",
                    local.session_id, wire.score, wire.flagged, local.score, local.flagged
                );
                mismatches += 1;
            }
        }
        println!(
            "batch {b}: {} verdicts, flagged {:?}, {} workers, summary sessions {}",
            outcome.verdicts.len(),
            summary.summary.flagged,
            summary.workers,
            summary.summary.sessions
        );
    }
    if args.stats {
        check_stats(&mut client, args);
    }
    match client.shutdown() {
        Ok(_) => println!("connection shut down cleanly"),
        Err(e) => {
            eprintln!("tdrd client: shutdown handshake failed: {e}");
            exit(1);
        }
    }
    if mismatches > 0 {
        eprintln!("tdrd client: {mismatches} verdict mismatches");
        exit(1);
    }
    println!(
        "smoke OK: all wire verdicts bit-identical to the in-process audit \
         (every field; detector score maps excluded when the daemon runs a battery)"
    );
}
