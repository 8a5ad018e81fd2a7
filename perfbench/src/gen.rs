//! Seeded input generation for the three workloads.
//!
//! Everything the program under test receives is made here, from the
//! seed alone: TDRP containers for the registered references, TDRB
//! batches of recorded sessions, and the order the closed loop sends
//! them in. Recording sessions is input generation and is not timed.

use std::collections::BTreeSet;
use std::sync::Arc;

use channels::{message_bits, Ipctc, Mbctc, Needle, TimingChannel, Trctc};
use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::audit_pipeline::Reference;
use sanity_tdr::detectors::RegularityTest;
use sanity_tdr::jbc::hll::{dsl::*, HTy, Module};
use sanity_tdr::jbc::{container, ElemTy, Program, ReferenceId};
use sanity_tdr::{compare, AuditJob, BatteryMode, Detector, DetectorBattery, Sanity};
use workloads::{nfs, scimark};

use crate::measure::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScimarkReplay,
    NfsCovertMix,
    EchoFleet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScimarkReplay,
        Workload::NfsCovertMix,
        Workload::EchoFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScimarkReplay => "scimark_replay",
            Workload::NfsCovertMix => "nfs_covert_mix",
            Workload::EchoFleet => "echo_fleet",
        }
    }

    /// Client connections driving the closed loop.
    pub fn connections(self) -> usize {
        match self {
            Workload::EchoFleet => 2,
            _ => 1,
        }
    }

    /// Backend daemons behind a coordinator; 0 means clients talk to a
    /// single daemon directly.
    pub fn backends(self) -> usize {
        match self {
            Workload::EchoFleet => 2,
            _ => 0,
        }
    }

    /// Audit workers per daemon.
    pub fn workers(self) -> usize {
        match self {
            Workload::EchoFleet => 1,
            _ => 2,
        }
    }
}

/// A program registered over the wire as a TDRP container.
pub struct RefProgram {
    pub name: String,
    pub program: Arc<Program>,
    pub tdrp: Vec<u8>,
    pub id: ReferenceId,
}

/// One distinct session and the reference it is audited against.
pub struct PoolJob {
    /// Index into [`Inputs::refs`]; `None` is the daemon's default
    /// reference.
    pub reference: Option<usize>,
    pub job: AuditJob,
    /// Whether a covert channel modulated the session's send timing.
    pub covert: bool,
}

/// One SubmitBatch: pool jobs that share a reference, pre-encoded.
pub struct Batch {
    pub reference: Option<usize>,
    pub jobs: Vec<usize>,
    pub tdrb: Vec<u8>,
}

/// A step of the closed loop: the references that must be resident, then
/// each connection's batches. Connections wait for each other between
/// rounds, so registry writes never overlap an in-flight batch.
pub struct Round {
    pub needs: Vec<usize>,
    pub per_conn: Vec<Vec<usize>>,
}

pub struct Inputs {
    pub workload: Workload,
    pub refs: Vec<RefProgram>,
    /// The daemon's default reference (with the trained battery on
    /// `nfs_covert_mix`).
    pub default_ref: Reference,
    pub battery: BatteryMode,
    /// Registry budget in canonical program bytes (`None`: the default).
    pub reference_budget: Option<u64>,
    pub pool: Vec<PoolJob>,
    pub batches: Vec<Batch>,
    pub rounds: Vec<Round>,
    /// Batch sent to finish set-up; fixed cost whatever the seed.
    pub warmup: usize,
    /// Batch pushed up the traced run's ladder.
    pub ladder: usize,
}

pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::ScimarkReplay => scimark_replay(&mut rng),
        Workload::NfsCovertMix => nfs_covert_mix(&mut rng),
        Workload::EchoFleet => echo_fleet(&mut rng),
    }
}

fn register(name: &str, program: Program) -> RefProgram {
    let tdrp = container::seal(&program);
    let id = container::reference_id(&program);
    RefProgram {
        name: name.to_string(),
        program: Arc::new(program),
        tdrp,
        id,
    }
}

fn add_batch(
    pool: &[PoolJob],
    batches: &mut Vec<Batch>,
    reference: Option<usize>,
    jobs: Vec<usize>,
) -> usize {
    let owned: Vec<AuditJob> = jobs.iter().map(|&j| pool[j].job.clone()).collect();
    batches.push(Batch {
        reference,
        jobs,
        tdrb: ingest::encode_batch(&owned),
    });
    batches.len() - 1
}

// ---------------------------------------------------------------------------
// scimark_replay
// ---------------------------------------------------------------------------

const SCIMARK_IDS_PER_REF: usize = 6;
const SCIMARK_BATCH: usize = 4;
const SCIMARK_CYCLES: usize = 4;

/// The five small kernels plus three larger grids whose data spills the
/// modelled 32 KiB L1D; pure compute, so every session is program-only.
fn scimark_replay(rng: &mut Rng) -> Inputs {
    let mut refs: Vec<RefProgram> = scimark::Kernel::all()
        .into_iter()
        .map(|k| register(&format!("{}_small", k.label()), k.program_small()))
        .collect();
    refs.push(register("SOR_96x96", scimark::sor_program(96, 2)));
    refs.push(register("LU_64", scimark::lu_program(64)));
    refs.push(register("FFT_2048", scimark::fft_program(2048)));

    let ids = rng.distinct_ids(refs.len() * SCIMARK_IDS_PER_REF);
    let mut pool = Vec::new();
    for (r, reference) in refs.iter().enumerate() {
        let sanity = Sanity::new((*reference.program).clone());
        let rec = sanity
            .record(rng.next_u64(), |_| {})
            .expect("SciMark kernels record");
        for k in 0..SCIMARK_IDS_PER_REF {
            pool.push(PoolJob {
                reference: Some(r),
                job: AuditJob {
                    session_id: ids[r * SCIMARK_IDS_PER_REF + k],
                    log: rec.log.clone(),
                    observed_ipds: rec.tx_ipds_cycles(),
                },
                covert: false,
            });
        }
    }

    // A round is one cycle: every reference once, in a seeded order, so
    // each run ends on whole cycles and sees the same mix of light and
    // heavy kernels whatever the seed.
    let mut batches = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..SCIMARK_CYCLES {
        let mut perm: Vec<usize> = (0..refs.len()).collect();
        rng.shuffle(&mut perm);
        let cycle = perm
            .into_iter()
            .map(|r| {
                let mut jobs: Vec<usize> = (0..SCIMARK_IDS_PER_REF)
                    .map(|k| r * SCIMARK_IDS_PER_REF + k)
                    .collect();
                rng.shuffle(&mut jobs);
                jobs.truncate(SCIMARK_BATCH);
                add_batch(&pool, &mut batches, Some(r), jobs)
            })
            .collect();
        rounds.push(Round {
            needs: Vec::new(),
            per_conn: vec![cycle],
        });
    }
    let mc = scimark::Kernel::all()
        .iter()
        .position(|&k| k == scimark::Kernel::Mc)
        .expect("MC is a kernel");
    let warmup = add_batch(
        &pool,
        &mut batches,
        Some(mc),
        vec![mc * SCIMARK_IDS_PER_REF, mc * SCIMARK_IDS_PER_REF + 1],
    );
    let ladder = warmup;

    Inputs {
        workload: Workload::ScimarkReplay,
        default_ref: Reference::new(Arc::clone(&refs[mc].program)),
        refs,
        battery: BatteryMode::TdrOnly,
        reference_budget: None,
        pool,
        rounds,
        batches,
        warmup,
        ladder,
    }
}

// ---------------------------------------------------------------------------
// nfs_covert_mix
// ---------------------------------------------------------------------------

const NFS_FILES: usize = 14;
const NFS_TRAIN: usize = 8;
const NFS_CLEAN: usize = 24;
const NFS_PER_CHANNEL: usize = 6;
const NFS_BATCH: usize = 6;
const NFS_CYCLES: usize = 3;
const CHANNELS: [&str; 4] = ["IPCTC", "TRCTC", "MBCTC", "Needle"];

/// NFS-server sessions at `repro fig8-fleet` scale: half clean, half
/// modulated by one of the four covert channels, audited against a
/// default reference that carries the battery trained on clean traffic.
fn nfs_covert_mix(rng: &mut Rng) -> Inputs {
    // The file set is the reference machine's storage, fixed like the
    // `repro fig8-fleet` one; the seed varies the sessions.
    let files = nfs::make_files(NFS_FILES, 2048, 6 * 1024, 0xF1EE7);
    let sanity = Sanity::new(nfs::server_program(NFS_FILES as i32)).with_files(files.clone());
    let record = |run: u64, sched_seed: u64, targets: Option<Vec<u64>>| {
        let sched = nfs::client_schedule(&files, 200_000, 740_000, sched_seed);
        sanity
            .record(run, move |vm| {
                for (at, pkt) in sched.packets {
                    vm.machine_mut().deliver_packet(at, pkt);
                }
                if let Some(t) = targets {
                    vm.set_delay_model(Box::new(sanity_tdr::vm::TargetSendTimes::new(t)));
                }
            })
            .expect("NFS sessions record")
    };

    let train: Vec<Vec<u64>> = (0..NFS_TRAIN)
        .map(|_| compare::tx_ipds_cycles(&record(rng.next_u64(), rng.next_u64(), None).tx))
        .collect();
    let legit: Vec<u64> = train.iter().flatten().copied().collect();
    let mut battery = DetectorBattery::new();
    // Sessions carry about a dozen IPDs; a short regularity window still
    // yields several windows per session (as in `repro fig8-fleet`).
    battery.rt = RegularityTest::new(5);
    battery.train(&train);

    let total = NFS_CLEAN + CHANNELS.len() * NFS_PER_CHANNEL;
    let ids = rng.distinct_ids(total);
    let mut pool = Vec::with_capacity(total);
    for (k, &session_id) in ids.iter().enumerate() {
        let (run, sched_seed) = (rng.next_u64(), rng.next_u64());
        let clean = record(run, sched_seed, None);
        let rec = if k < NFS_CLEAN {
            clean
        } else {
            let channel = CHANNELS[(k - NFS_CLEAN) / NFS_PER_CHANNEL];
            let clean_ipds = compare::tx_ipds_cycles(&clean.tx);
            let sends: Vec<u64> = clean.tx.iter().map(|t| t.cycle).collect();
            let covert = covert_ipds(channel, &legit, &clean_ipds, rng.next_u64());
            record(run, sched_seed, Some(targets_from_ipds(&sends, &covert)))
        };
        pool.push(PoolJob {
            reference: None,
            job: AuditJob {
                session_id,
                observed_ipds: compare::tx_ipds_cycles(&rec.tx),
                log: rec.log,
            },
            covert: k >= NFS_CLEAN,
        });
    }

    // A round is one cycle over the whole pool in a seeded order.
    let mut batches = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..NFS_CYCLES {
        let mut perm: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut perm);
        let cycle = perm
            .chunks(NFS_BATCH)
            .map(|chunk| add_batch(&pool, &mut batches, None, chunk.to_vec()))
            .collect();
        rounds.push(Round {
            needs: Vec::new(),
            per_conn: vec![cycle],
        });
    }
    // Warm-up and ladder: one clean and one covert session, whatever the
    // seed.
    let warmup = add_batch(&pool, &mut batches, None, vec![0, NFS_CLEAN]);
    let ladder = warmup;

    Inputs {
        workload: Workload::NfsCovertMix,
        refs: Vec::new(),
        default_ref: sanity.as_reference().with_battery(battery),
        battery: BatteryMode::Full,
        reference_budget: None,
        pool,
        rounds,
        batches,
        warmup,
        ladder,
    }
}

/// The covert IPD sequence `channel` sends in place of `base`, shaped on
/// the legitimate sample (the encodings of `repro fig8`).
fn covert_ipds(channel: &str, legit: &[u64], base: &[u64], seed: u64) -> Vec<u64> {
    let n = base.len();
    match channel {
        "IPCTC" => {
            let mut ch = Ipctc::new(legit.iter().sum::<u64>() / legit.len() as u64 / 2);
            let mut out = Vec::new();
            let mut round = 0u64;
            while out.len() < n {
                out.extend(ch.encode(&message_bits(64, seed ^ (round << 32)), legit));
                round += 1;
            }
            out.truncate(n);
            out
        }
        "TRCTC" => Trctc::new(seed).encode(&message_bits(n, seed), legit),
        "MBCTC" => Mbctc::new(64, seed).encode(&message_bits(n, seed), legit),
        "Needle" => {
            // One framed payload bit: the start bit perturbs one packet.
            let mut bits = message_bits(1, seed);
            bits[0] = true;
            let mut out = Needle::new(n, 0.40).encode(&bits, base);
            out.truncate(n);
            out
        }
        other => unreachable!("unknown channel {other}"),
    }
}

/// Absolute send cycles realising `covert` IPDs, anchored so no packet
/// leaves before its clean send instant (a sender can only delay).
fn targets_from_ipds(base_sends: &[u64], covert: &[u64]) -> Vec<u64> {
    let n = base_sends.len().min(covert.len() + 1);
    let mut rel = Vec::with_capacity(n);
    let mut t = 0u64;
    rel.push(0);
    for &d in covert.iter().take(n - 1) {
        t += d;
        rel.push(t);
    }
    let offset = base_sends
        .iter()
        .zip(&rel)
        .map(|(&b, &c)| b.saturating_sub(c))
        .max()
        .unwrap_or(0)
        + 150_000;
    rel.iter().map(|&c| c + offset).collect()
}

// ---------------------------------------------------------------------------
// echo_fleet
// ---------------------------------------------------------------------------

const ECHO_REFS: [i32; 3] = [64, 80, 96];
const ECHO_JOBS_PER_REF: usize = 256;
const ECHO_BATCH: usize = 128;
const ECHO_ROUNDS: usize = 64;
const ECHO_BATCHES_PER_ROUND: usize = 4;

/// One-request echo server with a `buf`-byte receive buffer (distinct
/// buffers give distinct programs of equal size).
fn echo_program(buf: i32) -> Program {
    let mut m = Module::new("Echo");
    m.native("wait_packet", &[], None);
    m.native("net_recv", &[HTy::Arr(ElemTy::I8)], Some(HTy::I32));
    m.native("net_send", &[HTy::Arr(ElemTy::I8), HTy::I32], None);
    m.func(fn_void(
        "main",
        vec![],
        vec![
            let_("buf", newarr(ElemTy::I8, i(buf))),
            expr(native("wait_packet", vec![])),
            let_("len", native("net_recv", vec![var("buf")])),
            expr(native("net_send", vec![var("buf"), var("len")])),
        ],
    ));
    m.compile().expect("echo program compiles")
}

/// One-packet echo sessions against three registered references, through
/// a coordinator whose backends' registries hold only two of them.
fn echo_fleet(rng: &mut Rng) -> Inputs {
    let refs: Vec<RefProgram> = ECHO_REFS
        .iter()
        .map(|&buf| register(&format!("echo_{buf}"), echo_program(buf)))
        .collect();
    // Any two references fit the budget; all three never do.
    let costs: u64 = refs
        .iter()
        .map(|r| container::canonical_program_bytes(&r.program).len() as u64)
        .sum();

    let ids = rng.distinct_ids(refs.len() * ECHO_JOBS_PER_REF);
    let mut pool = Vec::new();
    for (r, reference) in refs.iter().enumerate() {
        let sanity = Sanity::new((*reference.program).clone());
        for k in 0..ECHO_JOBS_PER_REF {
            let len = 16 + rng.below(48);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let at = 50_000 + rng.below(450_000) as u64;
            let rec = sanity
                .record(rng.next_u64(), move |vm| {
                    vm.machine_mut().deliver_packet(at, payload);
                })
                .expect("echo sessions record");
            pool.push(PoolJob {
                reference: Some(r),
                job: AuditJob {
                    session_id: ids[r * ECHO_JOBS_PER_REF + k],
                    observed_ipds: rec.tx_ipds_cycles(),
                    log: rec.log,
                },
                covert: false,
            });
        }
    }

    let mut batches = Vec::new();
    let mut by_ref: Vec<Vec<usize>> = Vec::new();
    for r in 0..refs.len() {
        let mut jobs: Vec<usize> = (0..ECHO_JOBS_PER_REF)
            .map(|k| r * ECHO_JOBS_PER_REF + k)
            .collect();
        rng.shuffle(&mut jobs);
        by_ref.push(
            jobs.chunks(ECHO_BATCH)
                .map(|c| add_batch(&pool, &mut batches, Some(r), c.to_vec()))
                .collect(),
        );
    }

    // The resident pair drifts: each round, with probability 1/4, one
    // member is swapped for the third reference, which forces a re-put
    // that evicts the dropped one.
    let mut pair = [0usize, 1];
    rng.shuffle(&mut pair);
    let mut cursor = vec![0usize; refs.len()];
    let mut rounds = Vec::with_capacity(ECHO_ROUNDS);
    for _ in 0..ECHO_ROUNDS {
        if rng.below(4) == 0 {
            let third = (0..refs.len())
                .find(|r| !pair.contains(r))
                .expect("three references");
            pair[rng.below(2)] = third;
        }
        let per_conn = pair
            .iter()
            .map(|&r| {
                (0..ECHO_BATCHES_PER_ROUND)
                    .map(|_| {
                        let b = by_ref[r][cursor[r] % by_ref[r].len()];
                        cursor[r] += 1;
                        b
                    })
                    .collect()
            })
            .collect();
        let needs: BTreeSet<usize> = pair.iter().copied().collect();
        rounds.push(Round {
            needs: needs.into_iter().collect(),
            per_conn,
        });
    }
    let first = &batches[rounds[0].per_conn[0][0]];
    let (reference, jobs) = (first.reference, first.jobs.clone());
    let warmup = add_batch(&pool, &mut batches, reference, jobs);
    let ladder = by_ref[0][0];

    Inputs {
        workload: Workload::EchoFleet,
        default_ref: Reference::new(Arc::clone(&refs[0].program)),
        refs,
        battery: BatteryMode::TdrOnly,
        reference_budget: Some(costs - 1),
        pool,
        batches,
        rounds,
        warmup,
        ladder,
    }
}
