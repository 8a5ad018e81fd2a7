//! Measurement helpers: order statistics, process CPU time and
//! memory, host provenance, the seeded generator, and the in-memory span
//! log of a traced run.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5bd1_e995_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` distinct 48-bit session ids, none equal to zero.
    pub fn distinct_ids(&mut self, n: usize) -> Vec<u64> {
        let mut seen = std::collections::BTreeSet::new();
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = self.next_u64() & 0xffff_ffff_ffff;
            if id != 0 && seen.insert(id) {
                ids.push(id);
            }
        }
        ids
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds of the whole process: every thread,
/// including the in-process daemons, counts.
pub fn cpu_s() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// CPU time the hypervisor stole from this host's vCPUs so far, summed
/// over all of them, in seconds (0 where the kernel does not report it).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        // Kernel ticks are USER_HZ = 100 per second on Linux.
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Peak resident set size of this address space in MiB (`VmHWM`).
/// Unlike `getrusage`'s `ru_maxrss` it starts afresh at `exec`, so the
/// `cargo run` that launched the benchmark does not count.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

/// Resident set size now, in MiB (`VmRSS`).
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host and build a result came from, as one JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"traced\": {traced}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
    )
}

/// One timed interval at a layer boundary. Spans of one request share
/// `id`; `parent` is the id of the span that caused this one (0: none).
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// Spans kept in memory and written out once the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn record(
        &mut self,
        epoch: Instant,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_us: start.duration_since(epoch).as_secs_f64() * 1e6,
            end_us: end.duration_since(epoch).as_secs_f64() * 1e6,
        });
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.id,
                s.parent,
                s.start_us,
                s.end_us
            );
        }
        out.push_str("\n]");
        out
    }
}

/// A metric as printed: value and unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit of each value.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
