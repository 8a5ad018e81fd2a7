//! perfbench: the repository's benchmark. Runs one workload against the
//! audit serving stack, in-process on localhost, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scimark_replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer ones, and writes its spans under `perfbench/out/`. The
//! last line of standard output is one JSON object. Any correctness-gate
//! failure exits nonzero. See `perfbench/README.md`.

mod gen;
mod layers;
mod measure;
mod stack;

use std::collections::BTreeMap;
use std::time::Instant;

use sanity_tdr::audit_pipeline::MetricsSnapshot;
use sanity_tdr::detectors::auc;

use gen::Workload;
use measure::{median, metrics_json, peak_rss_mb, quantile, ratio, rss_mb, Metric, SpanLog};
use stack::{Ctx, Expected, LoadStats, Stack, Window};

/// Set-ups per run, made in `SETUP_GROUPS` equal groups; `setup_s` is
/// their median. A set-up takes tens of milliseconds, so it takes many to
/// rise above scheduling noise, and the groups are spread over the run so
/// that one burst of host noise cannot move the whole sample. The count
/// is fixed, not timed: each set-up leaves the allocator a little larger,
/// and `peak_rss_mb` must not depend on how fast they ran.
const SETUPS: usize = 42;
const SETUP_GROUPS: usize = 6;

/// Untimed closed-loop load before the measurement, in slices with a
/// group of set-ups after each. On the reference host the first seconds
/// of sustained two-core load run up to 40% faster than the steady state
/// that follows; timing from a cold start would sample that burst in some
/// runs and not in others.
const BURN_IN_SECONDS: f64 = 8.0;
const BURN_IN_SLICES: usize = SETUP_GROUPS - 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let usage = "usage: perfbench --workload <scimark_replay|nfs_covert_mix|echo_fleet> --seed N --seconds S --trace 0|1";
    let seconds: u64 = seconds.ok_or(usage)?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds,
        trace: trace.ok_or(usage)?,
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Median of `f(window)` over the windows that completed a session and
/// were no more stolen from than the quietest third of them: the
/// hypervisor took the least CPU time from the host in those. The host's
/// vCPUs share a machine, and steal comes in bursts, some lasting most of
/// a run, that slow every thread of the stack. Windows are chosen by
/// steal, never by the metric itself, so the choice does not favour fast
/// windows; when steal is even, every window counts.
fn windowed(windows: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    let live: Vec<&Window> = windows.iter().filter(|w| w.sessions > 0).collect();
    let share = |w: &Window| w.steal_s / w.seconds;
    let mut shares: Vec<f64> = live.iter().map(|w| share(w)).collect();
    shares.sort_by(f64::total_cmp);
    let Some(&limit) = shares.get(shares.len().div_ceil(3).saturating_sub(1)) else {
        return 0.0;
    };
    let values: Vec<f64> = live
        .into_iter()
        .filter(|w| share(w) <= limit)
        .map(f)
        .collect();
    median(&values)
}

/// Build the stack once, timing it into `times`. A stack may already be
/// up beside it: the stacks share nothing but the host.
fn set_up(ctx: &Ctx, stats: &mut LoadStats, times: &mut Vec<f64>) -> Result<Stack, String> {
    let t0 = Instant::now();
    let stack = Stack::build(ctx, stats)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(stack)
}

/// Build and tear down `n` stacks, timing each set-up into `times`.
fn set_up_group(
    ctx: &Ctx,
    stats: &mut LoadStats,
    times: &mut Vec<f64>,
    n: usize,
) -> Result<(), String> {
    for _ in 0..n {
        Stack::teardown(set_up(ctx, stats, times)?);
    }
    Ok(())
}

fn counter_sum(snaps: &[MetricsSnapshot], name: &str) -> f64 {
    snaps.iter().map(|s| s.counter(name) as f64).sum()
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Run one workload; `Ok(false)` means the correctness gate failed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let epoch = Instant::now();
    let provenance = measure::provenance(args.workload.name(), args.seed, args.seconds, args.trace);
    println!("provenance {provenance}");

    let t = Instant::now();
    let inputs = gen::generate(args.workload, args.seed);
    let expected = Expected::new(&inputs, layers::expected_verdicts(&inputs));
    println!(
        "inputs: {} distinct sessions, {} batches, {} rounds, {} references, generated in {:.2} s (not timed)",
        inputs.pool.len(),
        inputs.batches.len(),
        inputs.rounds.len(),
        inputs.refs.len(),
        t.elapsed().as_secs_f64()
    );
    let inputs_rss_mb = rss_mb()?;
    let ctx = Ctx {
        inputs: &inputs,
        expected: &expected,
        epoch,
    };

    // The first group of set-ups keeps its last stack for the load; the
    // other groups follow each burn-in slice and the measurement.
    let mut setup_stats = LoadStats::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let per_group = SETUPS / SETUP_GROUPS;
    let mut stack = set_up(&ctx, &mut setup_stats, &mut setup_s)?;
    for _ in 1..per_group {
        Stack::teardown(stack);
        stack = set_up(&ctx, &mut setup_stats, &mut setup_s)?;
    }
    let mut load = LoadStats::default();
    for _ in 0..BURN_IN_SLICES {
        load.absorb_untimed(stack.run(&ctx, BURN_IN_SECONDS / BURN_IN_SLICES as f64, false));
        set_up_group(&ctx, &mut setup_stats, &mut setup_s, per_group)?;
    }

    let busy_before = counter_sum(&stack.snapshots(), "worker_busy_nanos");
    let workers = stack.workers() as f64;
    let start = Instant::now();
    // (traced, sessions per second) of each slice.
    let mut slices: Vec<(bool, f64)> = Vec::new();
    if args.trace {
        // Alternate untraced and traced slices; their rate ratio is the
        // tracing overhead.
        for k in 0..4 {
            let traced = k % 2 == 1;
            let s = stack.run(&ctx, args.seconds as f64 / 4.0, traced);
            slices.push((
                traced,
                windowed(&s.windows, |w| w.sessions as f64 / w.seconds),
            ));
            load.absorb(s);
        }
    } else {
        load.absorb(stack.run(&ctx, args.seconds as f64, false));
    }
    let wall = start.elapsed().as_secs_f64();
    let busy_ns = counter_sum(&stack.snapshots(), "worker_busy_nanos") - busy_before;
    let end = Stack::teardown(stack);
    set_up_group(&ctx, &mut setup_stats, &mut setup_s, per_group)?;
    let group_ms: Vec<String> = setup_s
        .chunks(per_group)
        .map(|g| format!("{:.3}", median(g) * 1e3))
        .collect();
    println!(
        "set-up: {SETUPS} times, median ms by group {}; memory: rss {inputs_rss_mb:.2} MiB after inputs, peak {:.2} MiB",
        group_ms.join(" "),
        peak_rss_mb()?
    );

    // Correctness gate.
    let mut problems: Vec<String> = setup_stats
        .mismatches
        .iter()
        .chain(&load.mismatches)
        .cloned()
        .collect();
    if load.sessions == 0 {
        problems.push("no session completed".to_string());
    }
    if load.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            load.failed, load.attempted
        ));
    }
    let scores = |covert: bool| -> Vec<f64> {
        load.scores
            .values()
            .filter(|s| s.1 == covert)
            .map(|s| s.0)
            .collect()
    };
    let (pos, neg) = (scores(true), scores(false));
    let tdr_auc = (!pos.is_empty() && !neg.is_empty()).then(|| auc(&pos, &neg));
    if args.workload == Workload::NfsCovertMix && tdr_auc != Some(1.0) {
        problems.push(format!(
            "tdr_auc {tdr_auc:?}, want 1.0 over clean and covert sessions"
        ));
    }

    let attempted = load.attempted.max(1);
    let failed_share = load.failed as f64 / attempted as f64;
    println!(
        "load: {} sessions in {} batches over {wall:.2} s ({} windows); {} operations, {} failed (failed_share {failed_share})",
        load.sessions,
        load.batches,
        load.windows.len(),
        load.attempted,
        load.failed
    );
    let rates: Vec<String> = load
        .windows
        .iter()
        .map(|w| {
            format!(
                "{:.1}/{:.4}/{:.0}%",
                w.sessions as f64 / w.seconds,
                w.cpu_s * 1e3 / w.sessions.max(1) as f64,
                w.steal_s * 100.0 / w.seconds
            )
        })
        .collect();
    println!(
        "windows (sessions/s / cpu ms per session / vCPU-steal % of wall): {}",
        rates.join(" ")
    );
    for f in setup_stats.failures.iter().chain(&load.failures) {
        println!("failed: {f}");
    }
    if let Some(a) = tdr_auc {
        println!("tdr_auc {a}");
    }
    let evictions = counter_sum(&end.daemons, "registry_evictions");
    println!(
        "registry: {} loads, {evictions} evictions across {} daemon(s)",
        counter_sum(&end.daemons, "registry_loads"),
        end.daemons.len()
    );

    let metrics = if !args.trace {
        vec![
            m(
                "sessions_per_s",
                windowed(&load.windows, |w| w.sessions as f64 / w.seconds),
                "1/s",
            ),
            m(
                "batch_latency_ms.p50",
                windowed(&load.windows, |w| quantile(&w.latency_ms, 0.5)),
                "ms",
            ),
            m(
                "batch_latency_ms.p90",
                windowed(&load.windows, |w| quantile(&w.latency_ms, 0.9)),
                "ms",
            ),
            m(
                "cpu_ms_per_session",
                windowed(&load.windows, |w| w.cpu_s * 1e3 / w.sessions as f64),
                "ms",
            ),
            m("setup_s", median(&setup_s), "s"),
            m("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ]
    } else {
        let mut spans = std::mem::take(&mut load.spans);
        let layered = (|| {
            Ok::<_, String>((
                layers::time_pool(&inputs, &expected, epoch, &mut spans)?,
                layers::time_codecs(&inputs, &expected)?,
                layers::ladder(&inputs, &expected, epoch, &mut spans)?,
            ))
        })();
        let (pool, codecs, ladder) = match layered {
            Ok(t) => t,
            Err(e) => {
                problems.push(e);
                report_gate(&problems);
                return Ok(false);
            }
        };
        let c = &pool.counts;
        let n = c.sessions as f64;
        let kinstr = c.instr as f64 / 1e3;
        let coord = end.coordinator.clone().unwrap_or_default();
        let hits = counter_sum(&end.daemons, "registry_hits");
        let misses = counter_sum(&end.daemons, "registry_misses");
        let puts: Vec<f64> = setup_stats
            .put_ms
            .iter()
            .chain(&load.put_ms)
            .copied()
            .collect();
        let rate = |traced: bool| {
            let r: Vec<f64> = slices
                .iter()
                .filter(|s| s.0 == traced)
                .map(|s| s.1)
                .collect();
            median(&r)
        };
        println!(
            "replay count fingerprint {} over {} sessions",
            c.fingerprint(),
            c.sessions
        );
        let metrics = vec![
            m(
                "ingest.decode_us_per_session",
                codecs.decode_us_per_session,
                "us",
            ),
            m(
                "ingest.tdrb_bytes_per_session",
                codecs.tdrb_bytes_per_session,
                "bytes",
            ),
            m("replay.ms_per_session", pool.replay_s * 1e3 / n, "ms"),
            m(
                "replay.ns_per_instr",
                pool.replay_s * 1e9 / c.instr as f64,
                "ns",
            ),
            m("replay.instr_per_session", c.instr as f64 / n, "count"),
            m(
                "replay.cycles_per_instr",
                c.cycles as f64 / c.instr as f64,
                "cycles",
            ),
            m("vm.gc_runs_per_session", c.gc_runs as f64 / n, "count"),
            m("machine.packets_per_session", c.packets as f64 / n, "count"),
            m(
                "sim_core.l1i_miss_per_kinstr",
                c.l1i_miss as f64 / kinstr,
                "count",
            ),
            m(
                "sim_core.l1d_miss_per_kinstr",
                c.l1d_miss as f64 / kinstr,
                "count",
            ),
            m(
                "sim_core.l2_miss_per_kinstr",
                c.l2_miss as f64 / kinstr,
                "count",
            ),
            m(
                "sim_core.tlb_miss_per_kinstr",
                c.tlb_miss as f64 / kinstr,
                "count",
            ),
            m(
                "sim_core.branch_mispredict_per_kinstr",
                c.branch_miss as f64 / kinstr,
                "count",
            ),
            m(
                "sim_core.bus_stall_cycles_per_session",
                c.bus_stall_cycles as f64 / n,
                "cycles",
            ),
            m(
                "detectors.score_us_per_session",
                pool.score_s * 1e6 / n,
                "us",
            ),
            m("cache.audit_ms_per_session", pool.audit_s * 1e3 / n, "ms"),
            m(
                "cache.adapter_us_per_session",
                (pool.audit_s - pool.replay_s - pool.score_s) * 1e6 / n,
                "us",
            ),
            m(
                "service.first_verdict_ms.p50",
                quantile(&load.first_verdict_ms, 0.5),
                "ms",
            ),
            m(
                "service.worker_util",
                ratio(busy_ns, workers * wall * 1e9),
                "ratio",
            ),
            m(
                "service.residency_peak",
                end.daemons
                    .iter()
                    .map(|s| s.gauge("residency_peak"))
                    .max()
                    .unwrap_or(0) as f64,
                "count",
            ),
            m(
                "control.encode_us_per_batch",
                codecs.encode_us_per_batch,
                "us",
            ),
            m(
                "control.decode_us_per_batch",
                codecs.frame_decode_us_per_batch,
                "us",
            ),
            m(
                "control.wire_bytes_per_session",
                codecs.wire_bytes_per_session,
                "bytes",
            ),
            m("ladder.cache_ms", ladder.cache_ms, "ms"),
            m(
                "service.overhead_ms",
                ladder.service_ms - ladder.cache_ms,
                "ms",
            ),
            m(
                "control.overhead_ms",
                ladder.duplex_ms - ladder.service_ms,
                "ms",
            ),
            m("net.overhead_ms", ladder.tcp_ms - ladder.duplex_ms, "ms"),
            m("coord.overhead_ms", ladder.coord_ms - ladder.tcp_ms, "ms"),
            m(
                "coord.retries",
                coord.counter("coord_retries") as f64,
                "count",
            ),
            m(
                "coord.backend_failures",
                coord.counter("coord_backend_failures") as f64,
                "count",
            ),
            m("registry.put_ms.p50", quantile(&puts, 0.5), "ms"),
            m("registry.hit_ratio", ratio(hits, hits + misses), "ratio"),
            m(
                "trace.overhead_ratio",
                ratio(rate(false), rate(true)),
                "ratio",
            ),
        ];
        write_trace(&args, &provenance, &metrics, &spans)?;
        metrics
    };

    for metric in &metrics {
        println!("{:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    report_gate(&problems);
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        load.failed,
        metrics_json(&metrics)
    );
    Ok(correct)
}

fn report_gate(problems: &[String]) {
    for p in problems.iter().take(20) {
        println!("GATE FAILED: {p}");
    }
    if problems.len() > 20 {
        println!("GATE FAILED: ... and {} more", problems.len() - 20);
    }
}

/// Write the traced run's spans and metrics, once, at the end.
fn write_trace(
    args: &Args,
    provenance: &str,
    metrics: &[Metric],
    spans: &SpanLog,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    for s in &spans.spans {
        *by_name.entry(s.name).or_default() += 1;
    }
    let body = format!(
        "{{\"provenance\": {provenance},\n\"metrics\": {},\n\"span_counts\": {:?},\n\"spans\": {}}}\n",
        metrics_json(metrics),
        by_name,
        spans.to_json()
    );
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        spans.spans.len(),
        path.display()
    );
    Ok(())
}
