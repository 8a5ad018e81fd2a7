//! Criterion bench for the replay hot paths: a dispatch-bound and a
//! housekeeping-bound replay, and prepared (batched) vs standalone
//! detector scoring.
//!
//! Each replay bench replays the *same recorded log* every iteration; the
//! scoring pair scores the *same traces*, so the two differ only in wall
//! clock.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sanity_tdr::detectors::{DetectorBattery, TraceView};
use sanity_tdr::Sanity;
use workloads::{nfs, scimark::Kernel};

/// Lognormal-ish IPD trace, same generator the detector tests use.
fn trace(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut scale = 700_000.0f64;
    for k in 0..n {
        if k % 64 == 0 {
            scale = rng.gen_range(400_000.0..1_200_000.0);
        }
        let u1: f64 = rng.gen_range(1e-9..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        out.push((scale * (0.5 * z).exp()) as u64);
    }
    out
}

fn bench_dispatch(c: &mut Criterion) {
    // Compute-bound kernel: almost all time is in the interpreter loop.
    let sanity = Sanity::new(Kernel::Fft.program_small());
    let rec = sanity.record(1, |_| {}).expect("record");
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(20);
    group.bench_function("replay_fft", |b| {
        b.iter(|| {
            sanity
                .replay(&rec.log, 2, |_| {})
                .expect("replay")
                .outcome
                .cycles
        })
    });
    group.finish();
}

fn bench_tick_loop(c: &mut Criterion) {
    // I/O-bound NFS session: packet delivery and the housekeeping tick
    // queue weigh more here than in the compute-bound kernel.
    let files = nfs::make_files(4, 1500, 4000, 5);
    let sanity = Sanity::new(nfs::server_program(8)).with_files(files.clone());
    let sched = nfs::client_schedule(&files, 200_000, 700_000, 4);
    let rec = sanity
        .record(1, |vm| {
            for (at, pkt) in sched.packets.iter().take(8) {
                vm.machine_mut().deliver_packet(*at, pkt.clone());
            }
        })
        .expect("record");
    let mut group = c.benchmark_group("tick_loop");
    group.sample_size(20);
    group.bench_function("replay_nfs", |b| {
        b.iter(|| {
            sanity
                .replay(&rec.log, 2, |_| {})
                .expect("replay")
                .outcome
                .cycles
        })
    });
    group.finish();
}

fn bench_batch_scoring(c: &mut Criterion) {
    let legit: Vec<Vec<u64>> = (0..10).map(|k| trace(100 + k, 600)).collect();
    let battery = DetectorBattery::trained(&legit);
    let probes: Vec<Vec<u64>> = (0..16).map(|k| trace(500 + k, 600)).collect();
    let mut group = c.benchmark_group("batch_scoring");
    group.sample_size(30);
    // Standalone: each detector redoes the f64 conversion/sort per trace.
    group.bench_function("standalone_per_detector/16_traces", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for p in &probes {
                let view = TraceView::observed(p);
                for d in battery.detectors() {
                    acc += d.score(&view);
                }
            }
            acc
        })
    });
    // Batched: one TracePrep per trace, shared by all five members.
    group.bench_function("battery_score_batch/16_traces", |b| {
        b.iter(|| {
            let views: Vec<TraceView<'_>> = probes.iter().map(|p| TraceView::observed(p)).collect();
            battery
                .score_batch(&views)
                .iter()
                .map(|m| m.values().sum::<f64>())
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_tick_loop,
    bench_batch_scoring
);
criterion_main!(benches);
