//! In-process work around the calls into each layer: the expected
//! verdicts every wire result is checked against, and — in a traced run —
//! per-layer timings, deterministic replay counts, and the ladder.
//!
//! Timings here come from spans the benchmark records around public
//! calls, a few per session; nothing is timed per instruction.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sanity_tdr::audit_pipeline::service::duplex;
use sanity_tdr::audit_pipeline::Reference;
use sanity_tdr::audit_pipeline::{
    serve_coordinator, serve_tcp_with, AuditService, AuditVerdict, BatchStream, Client,
    ControlFrame, DaemonOptions, FleetSummary, ReferenceCache,
};
use sanity_tdr::detectors::TdrDetector;
use sanity_tdr::{AuditConfig, AuditJob, BatteryMode, Detector, TraceView};

use crate::gen::Inputs;
use crate::measure::{median, SpanLog};
use crate::stack::{same_verdict, Expected};

/// The reference and configuration a pool job is audited under — the
/// same ones the daemon uses for it.
fn audit_setup(inputs: &Inputs, reference: Option<usize>) -> (Reference, AuditConfig) {
    match reference {
        Some(r) => (
            Reference::new(inputs.refs[r].program.clone()),
            AuditConfig {
                workers: 1,
                battery: BatteryMode::TdrOnly,
                ..AuditConfig::default()
            },
        ),
        None => (
            inputs.default_ref.clone(),
            AuditConfig {
                workers: 1,
                battery: inputs.battery,
                ..AuditConfig::default()
            },
        ),
    }
}

/// Worker-local caches, one per reference a pool job can name.
struct Caches(BTreeMap<Option<usize>, (ReferenceCache, AuditConfig)>);

impl Caches {
    fn get(
        &mut self,
        inputs: &Inputs,
        reference: Option<usize>,
    ) -> &mut (ReferenceCache, AuditConfig) {
        self.0.entry(reference).or_insert_with(|| {
            let (r, cfg) = audit_setup(inputs, reference);
            (ReferenceCache::new(&r), cfg)
        })
    }
}

/// Expected verdict of every pool job, audited in-process on two threads.
pub fn expected_verdicts(inputs: &Inputs) -> Vec<AuditVerdict> {
    let half = inputs.pool.len().div_ceil(2);
    std::thread::scope(|scope| {
        let parts: Vec<_> = inputs
            .pool
            .chunks(half.max(1))
            .map(|part| {
                scope.spawn(move || {
                    let mut caches = Caches(BTreeMap::new());
                    part.iter()
                        .map(|p| {
                            let (cache, cfg) = caches.get(inputs, p.reference);
                            cache.audit(&p.job, cfg)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("audit thread panicked"))
            .collect()
    })
}

/// Deterministic counts summed over the pool's replays. They are pure
/// functions of the logs and seeds, so they repeat exactly for a seed and
/// must not move under a host-only speed-up.
#[derive(Default)]
pub struct Counts {
    pub sessions: u64,
    pub instr: u64,
    pub cycles: u64,
    pub gc_runs: u64,
    pub packets: u64,
    pub l1i_miss: u64,
    pub l1d_miss: u64,
    pub l2_miss: u64,
    pub tlb_miss: u64,
    pub branch_miss: u64,
    pub bus_stall_cycles: u64,
}

impl Counts {
    /// FNV-1a over every count: one number that must repeat exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [
            self.sessions,
            self.instr,
            self.cycles,
            self.gc_runs,
            self.packets,
            self.l1i_miss,
            self.l1d_miss,
            self.l2_miss,
            self.tlb_miss,
            self.branch_miss,
            self.bus_stall_cycles,
        ] {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        // Keep it exactly representable as a JSON number.
        h & ((1 << 52) - 1)
    }
}

/// Per-session timings of the cache adapter and the layers it calls.
#[derive(Default)]
pub struct PoolTimes {
    pub replay_s: f64,
    pub score_s: f64,
    pub audit_s: f64,
    pub counts: Counts,
}

/// Time `ReferenceCache::replay`, the detector scoring of that replay,
/// and `ReferenceCache::audit` as separate calls on each pool job; the
/// audit's verdict must equal the expected one.
pub fn time_pool(
    inputs: &Inputs,
    expected: &Expected,
    epoch: Instant,
    spans: &mut SpanLog,
) -> Result<PoolTimes, String> {
    let mut caches = Caches(BTreeMap::new());
    let tdr = TdrDetector::new();
    let mut t = PoolTimes::default();
    for (j, p) in inputs.pool.iter().enumerate() {
        let id = p.job.session_id;
        let battery = inputs.default_ref.battery.clone();
        let (cache, cfg) = caches.get(inputs, p.reference);
        let t0 = Instant::now();
        let rec = cache
            .replay(&p.job.log, cfg.session_seed(id))
            .map_err(|e| format!("session {id}: replay failed: {e}"))?;
        let t1 = Instant::now();
        let replayed = rec.tx_ipds_cycles();
        let trace = TraceView::with_replay(&p.job.observed_ipds, &replayed);
        let score = match (cfg.battery, &battery) {
            (BatteryMode::Full, Some(b)) => b.score_all(&trace)["Sanity"],
            _ => tdr.score(&trace),
        };
        std::hint::black_box(score);
        let t2 = Instant::now();
        let verdict = cache.audit(&p.job, cfg);
        let t3 = Instant::now();
        spans.record(epoch, "cache.replay", id, 0, t0, t1);
        spans.record(epoch, "detectors.score", id, 0, t1, t2);
        spans.record(epoch, "cache.audit", id, 0, t2, t3);
        if !same_verdict(&verdict, &expected.verdicts[j]) {
            return Err(format!("session {id}: repeated in-process audit differs"));
        }
        t.replay_s += (t1 - t0).as_secs_f64();
        t.score_s += (t2 - t1).as_secs_f64();
        t.audit_s += (t3 - t2).as_secs_f64();
        let c = &mut t.counts;
        c.sessions += 1;
        c.instr += rec.outcome.icount;
        c.cycles += rec.outcome.cycles;
        c.gc_runs += rec.gc_runs;
        c.packets += (p.job.log.packets.len() + rec.tx.len()) as u64;
        c.l1i_miss += rec.core.l1i.1;
        c.l1d_miss += rec.core.l1d.1;
        c.l2_miss += rec.core.l2.1;
        c.tlb_miss += rec.core.tlb.1;
        c.branch_miss += rec.core.branch.1;
        c.bus_stall_cycles += rec.core.bus.2;
    }
    Ok(t)
}

/// Repeat `f` until `budget` has passed (at least `min` times); return
/// the total time and the repetitions.
fn repeat_for(budget: Duration, min: usize, mut f: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < min || start.elapsed() < budget {
        f();
        reps += 1;
    }
    (start.elapsed().as_secs_f64(), reps)
}

pub struct CodecTimes {
    pub decode_us_per_session: f64,
    pub tdrb_bytes_per_session: f64,
    pub encode_us_per_batch: f64,
    pub frame_decode_us_per_batch: f64,
    pub wire_bytes_per_session: f64,
}

/// Time TDRB decode (`BatchStream` iteration) and TDRC framing
/// (`ControlFrame::encode` / `decode_payload`) on the workload's own
/// batches and verdict streams. Decoded values must round-trip exactly.
pub fn time_codecs(inputs: &Inputs, expected: &Expected) -> Result<CodecTimes, String> {
    let sessions: usize = inputs.batches.iter().map(|b| b.jobs.len()).sum();
    for b in &inputs.batches {
        let decoded: Vec<AuditJob> = BatchStream::new(&b.tdrb[..])
            .and_then(|s| s.collect::<Result<_, _>>())
            .map_err(|e| format!("TDRB decode: {e}"))?;
        if decoded
            .iter()
            .zip(&b.jobs)
            .any(|(d, &j)| *d != inputs.pool[j].job)
            || decoded.len() != b.jobs.len()
        {
            return Err("TDRB decode does not round-trip".to_string());
        }
    }
    let (decode_s, decode_reps) = repeat_for(Duration::from_millis(300), 3, || {
        for b in &inputs.batches {
            for job in BatchStream::new(&b.tdrb[..]).expect("decoded once already") {
                std::hint::black_box(job.expect("decoded once already"));
            }
        }
    });

    // The frames one batch puts on the wire: its SubmitBatch, one
    // Verdict per session, and the Summary.
    let frames: Vec<Vec<ControlFrame>> = inputs
        .batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let batch_id = i as u64 + 1;
            let mut fs = vec![ControlFrame::SubmitBatch {
                batch_id,
                tdrb: b.tdrb.clone(),
                reference: b.reference.map(|r| inputs.refs[r].id),
            }];
            fs.extend(
                b.jobs
                    .iter()
                    .enumerate()
                    .map(|(k, &j)| ControlFrame::Verdict {
                        batch_id,
                        index: k as u64,
                        verdict: expected.verdicts[j].clone(),
                    }),
            );
            fs.push(ControlFrame::Summary {
                batch_id,
                workers: inputs.workload.workers() as u64,
                peak_resident: 0,
                summary: expected.summaries[i].clone(),
            });
            fs
        })
        .collect();
    let encoded: Vec<Vec<Vec<u8>>> = frames
        .iter()
        .map(|fs| fs.iter().map(ControlFrame::encode).collect())
        .collect();
    for (fs, es) in frames.iter().zip(&encoded) {
        for (f, e) in fs.iter().zip(es) {
            let back =
                ControlFrame::decode_payload(&e[4..]).map_err(|e| format!("TDRC decode: {e}"))?;
            if back.encode() != *e || !frame_eq(&back, f) {
                return Err(format!("TDRC {} frame does not round-trip", f.kind_name()));
            }
        }
    }
    let wire_bytes: usize = encoded.iter().flatten().map(Vec::len).sum();
    let (encode_s, encode_reps) = repeat_for(Duration::from_millis(300), 3, || {
        for f in frames.iter().flatten() {
            std::hint::black_box(f.encode());
        }
    });
    let (fdecode_s, fdecode_reps) = repeat_for(Duration::from_millis(300), 3, || {
        for e in encoded.iter().flatten() {
            std::hint::black_box(
                ControlFrame::decode_payload(&e[4..]).expect("decoded once already"),
            );
        }
    });
    let n_batches = inputs.batches.len() as f64;
    Ok(CodecTimes {
        decode_us_per_session: decode_s * 1e6 / (decode_reps * sessions) as f64,
        tdrb_bytes_per_session: inputs.batches.iter().map(|b| b.tdrb.len()).sum::<usize>() as f64
            / sessions as f64,
        encode_us_per_batch: encode_s * 1e6 / (encode_reps as f64 * n_batches),
        frame_decode_us_per_batch: fdecode_s * 1e6 / (fdecode_reps as f64 * n_batches),
        wire_bytes_per_session: wire_bytes as f64 / sessions as f64,
    })
}

/// Frame equality with verdict scores compared as bits.
fn frame_eq(a: &ControlFrame, b: &ControlFrame) -> bool {
    match (a, b) {
        (ControlFrame::Verdict { verdict: va, .. }, ControlFrame::Verdict { verdict: vb, .. }) => {
            same_verdict(va, vb)
        }
        _ => a == b,
    }
}

/// Median time of one batch at each rung, in ms.
pub struct Ladder {
    pub cache_ms: f64,
    pub service_ms: f64,
    pub duplex_ms: f64,
    pub tcp_ms: f64,
    pub coord_ms: f64,
}

/// Push the ladder batch up five rungs at one worker — `ReferenceCache::audit`,
/// a warm `AuditService`, duplex `serve`, a TCP daemon, and a coordinator
/// in front of one backend — asserting the same summary at every rung.
/// Rungs run interleaved, so drift on the host hits them alike.
pub fn ladder(
    inputs: &Inputs,
    expected: &Expected,
    epoch: Instant,
    spans: &mut SpanLog,
) -> Result<Ladder, String> {
    let b = &inputs.batches[inputs.ladder];
    let want = &expected.summaries[inputs.ladder];
    let jobs: Vec<AuditJob> = b.jobs.iter().map(|&j| inputs.pool[j].job.clone()).collect();
    let (reference, cfg) = audit_setup(inputs, b.reference);
    let build = || {
        AuditService::builder(reference.clone())
            .workers(1)
            .battery(cfg.battery)
            .build()
            .map_err(|e| format!("ladder service: {e}"))
    };
    let local = build()?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let daemon = serve_tcp_with(build()?, listener, DaemonOptions::default())
        .map_err(|e| format!("daemon: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let coord = serve_coordinator(listener, vec![daemon.local_addr().to_string()])
        .map_err(|e| format!("coordinator: {e}"))?;
    let connect = |addr| {
        TcpStream::connect(addr)
            .and_then(|s| s.set_nodelay(true).map(|()| Client::new(s)))
            .map_err(|e| format!("connect: {e}"))
    };
    let mut tcp = connect(daemon.local_addr())?;
    let mut via_coord = connect(coord.local_addr())?;
    let mut cache = ReferenceCache::new(&reference);
    let (client_end, server_end) = duplex();

    let mut times: [Vec<f64>; 5] = Default::default();
    let result = std::thread::scope(|scope| {
        let serve = scope.spawn(|| local.serve(&server_end, &server_end));
        let mut duplex_client = Client::new(client_end);
        let check = |rung: &str, got: FleetSummary| {
            if got == *want {
                Ok(())
            } else {
                Err(format!("ladder rung {rung}: summary differs"))
            }
        };
        let mut batch_id = 0u64;
        let start = Instant::now();
        // Repetition 0 warms every rung and is not recorded.
        for rep in 0.. {
            if rep > 3 && (rep > 200 || start.elapsed() > Duration::from_millis(2000)) {
                break;
            }
            batch_id += 1;
            let mut rung_times = [0.0f64; 5];
            let names = [
                "ladder.cache",
                "ladder.service",
                "ladder.duplex",
                "ladder.tcp",
                "ladder.coord",
            ];
            for (k, slot) in rung_times.iter_mut().enumerate() {
                let t0 = Instant::now();
                let summary = match k {
                    0 => FleetSummary::from_verdicts(
                        &jobs
                            .iter()
                            .map(|j| cache.audit(j, &cfg))
                            .collect::<Vec<_>>(),
                    ),
                    1 => {
                        local
                            .submit_batch(&jobs)
                            .wait()
                            .map_err(|e| format!("service: {e}"))?
                            .summary
                    }
                    2 => {
                        duplex_client
                            .submit_batch(batch_id, b.tdrb.clone())
                            .map_err(|e| format!("duplex: {e}"))?
                            .result?
                            .summary
                    }
                    3 => {
                        tcp.submit_batch(batch_id, b.tdrb.clone())
                            .map_err(|e| format!("tcp: {e}"))?
                            .result?
                            .summary
                    }
                    _ => {
                        via_coord
                            .submit_batch(batch_id, b.tdrb.clone())
                            .map_err(|e| format!("coordinator: {e}"))?
                            .result?
                            .summary
                    }
                };
                let t1 = Instant::now();
                check(names[k], summary)?;
                *slot = (t1 - t0).as_secs_f64() * 1e3;
                if rep > 0 {
                    spans.record(epoch, names[k], batch_id, 0, t0, t1);
                }
            }
            if rep > 0 {
                for (k, t) in rung_times.iter().enumerate() {
                    times[k].push(*t);
                }
            }
        }
        duplex_client
            .shutdown()
            .map_err(|e| format!("duplex shutdown: {e}"))?;
        serve
            .join()
            .expect("serve thread panicked")
            .map_err(|e| format!("duplex serve: {e}"))
    });
    let _ = tcp.shutdown();
    let _ = via_coord.shutdown();
    coord.shutdown();
    daemon.shutdown().service.shutdown();
    local.shutdown();
    result?;
    Ok(Ladder {
        cache_ms: median(&times[0]),
        service_ms: median(&times[1]),
        duplex_ms: median(&times[2]),
        tcp_ms: median(&times[3]),
        coord_ms: median(&times[4]),
    })
}
