//! Differential oracle for the timing model's host-side fast paths.
//!
//! The reference models below are the straightforward implementations the
//! fast paths replaced: division-based indexing and a full way scan on
//! every cache access, a binary search on every TLB access, and `%`
//! indexing in the BTB. Seeded streams with skewed locality drive each
//! reference and its fast counterpart in lockstep, so the memos both hit
//! and miss; after every call the results, the `probe` answers and the
//! counters must agree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::branch::{BranchPredictor, BtbParams};
use crate::cache::{Cache, CacheAccess, CacheParams, Tlb, TlbParams};
use crate::{Cycles, PAddr};

#[derive(Clone, Copy)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

const REF_INVALID: RefLine = RefLine {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// The scan-based cache: every access divides and walks the whole set.
struct RefCache {
    params: CacheParams,
    lines: Vec<RefLine>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(params: CacheParams) -> Self {
        RefCache {
            params,
            lines: vec![REF_INVALID; (params.sets * params.ways) as usize],
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn ways(&self, addr: PAddr) -> (std::ops::Range<usize>, u64) {
        let line = addr / self.params.line as u64;
        let set = (line % self.params.sets as u64) as usize;
        let base = set * self.params.ways as usize;
        (
            base..base + self.params.ways as usize,
            line / self.params.sets as u64,
        )
    }

    fn access(&mut self, addr: PAddr, write: bool) -> CacheAccess {
        self.clock += 1;
        let (range, tag) = self.ways(addr);
        let ways = &mut self.lines[range];
        for l in ways.iter_mut() {
            if l.valid && l.tag == tag {
                l.lru = self.clock;
                l.dirty |= write;
                self.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: false,
                };
            }
        }
        self.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("ways is non-empty");
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.writebacks += 1;
        }
        *victim = RefLine {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    fn probe(&self, addr: PAddr) -> bool {
        let (range, tag) = self.ways(addr);
        self.lines[range].iter().any(|l| l.valid && l.tag == tag)
    }

    fn flush(&mut self) -> u64 {
        let dirty = self.lines.iter().filter(|l| l.valid && l.dirty).count() as u64;
        self.lines.fill(REF_INVALID);
        dirty
    }

    fn pollute(&mut self, fraction: f64, salt: u64) {
        let n = self.lines.len();
        let count = ((n as f64) * fraction.clamp(0.0, 1.0)) as usize;
        for k in 0..count {
            self.clock += 1;
            self.lines[pollute_slot(salt, k, n)] = RefLine {
                tag: pollute_tag(salt, k),
                valid: true,
                dirty: k % 3 == 0,
                lru: self.clock,
            };
        }
    }

    fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }

    fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// Slot that `Cache::pollute(_, salt)` overwrites at step `k` of `n` lines.
fn pollute_slot(salt: u64, k: usize, n: usize) -> usize {
    (salt
        .wrapping_mul(6364136223846793005)
        .wrapping_add((k as u64).wrapping_mul(1442695040888963407))
        % n as u64) as usize
}

/// Tag that `Cache::pollute(_, salt)` writes at step `k`.
fn pollute_tag(salt: u64, k: usize) -> u64 {
    salt.wrapping_add(k as u64) | (1 << 40)
}

/// The binary-search TLB: no memo, page number by division.
struct RefTlb {
    params: TlbParams,
    entries: Vec<(u64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    index: Vec<(u64, u32)>,
}

impl RefTlb {
    fn new(params: TlbParams) -> Self {
        RefTlb {
            params,
            entries: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            index: Vec::new(),
        }
    }

    fn access(&mut self, vaddr: u64) -> Cycles {
        self.clock += 1;
        let vpn = vaddr / self.params.page as u64;
        if let Ok(i) = self.index.binary_search_by_key(&vpn, |&(p, _)| p) {
            let slot = self.index[i].1 as usize;
            self.entries[slot].1 = self.clock;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        if self.entries.len() < self.params.entries as usize {
            let slot = self.entries.len() as u32;
            self.entries.push((vpn, self.clock));
            let at = self.index.partition_point(|&(p, _)| p < vpn);
            self.index.insert(at, (vpn, slot));
        } else if let Some((slot, victim)) = self
            .entries
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, (_, l))| *l)
        {
            let old = victim.0;
            *victim = (vpn, self.clock);
            let gone = self
                .index
                .binary_search_by_key(&old, |&(p, _)| p)
                .expect("indexed");
            self.index.remove(gone);
            let at = self.index.partition_point(|&(p, _)| p < vpn);
            self.index.insert(at, (vpn, slot as u32));
        }
        self.params.miss_cycles
    }

    fn flush(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[derive(Clone, Copy)]
struct RefBtbEntry {
    tag: u64,
    target: u64,
    counter: u8,
    valid: bool,
}

/// The `%`-indexed BTB.
struct RefBtb {
    params: BtbParams,
    entries: Vec<RefBtbEntry>,
    lookups: u64,
    mispredicts: u64,
}

impl RefBtb {
    fn new(params: BtbParams) -> Self {
        RefBtb {
            params,
            entries: vec![
                RefBtbEntry {
                    tag: 0,
                    target: 0,
                    counter: 0,
                    valid: false,
                };
                params.entries as usize
            ],
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn resolve(&mut self, pc: PAddr, taken: bool, target: PAddr) -> Cycles {
        self.lookups += 1;
        let e = &mut self.entries[((pc >> 2) % self.params.entries as u64) as usize];
        let tag = pc >> 2;
        let known = e.valid && e.tag == tag;
        let (pred_taken, pred_target) = if known {
            (e.counter >= 2, e.target)
        } else {
            (false, 0)
        };
        let correct = pred_taken == taken && (!taken || pred_target == target);
        if known {
            if taken {
                e.counter = (e.counter + 1).min(3);
                e.target = target;
            } else {
                e.counter = e.counter.saturating_sub(1);
            }
        } else if taken {
            *e = RefBtbEntry {
                tag,
                target,
                counter: 2,
                valid: true,
            };
        }
        if correct {
            0
        } else {
            self.mispredicts += 1;
            self.params.mispredict_cycles
        }
    }

    fn flush(&mut self) {
        for e in self.entries.iter_mut() {
            e.valid = false;
            e.counter = 0;
        }
    }

    fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts)
    }
}

const CACHE_GEOMETRIES: [CacheParams; 6] = [
    // L1D, L1I and L2 of the default core.
    CacheParams {
        sets: 64,
        ways: 8,
        line: 64,
        hit_cycles: 4,
    },
    CacheParams {
        sets: 64,
        ways: 8,
        line: 64,
        hit_cycles: 1,
    },
    CacheParams {
        sets: 512,
        ways: 8,
        line: 64,
        hit_cycles: 12,
    },
    // Tiny geometries, so conflicts and evictions are constant.
    CacheParams {
        sets: 1,
        ways: 2,
        line: 64,
        hit_cycles: 1,
    },
    CacheParams {
        sets: 4,
        ways: 1,
        line: 16,
        hit_cycles: 1,
    },
    CacheParams {
        sets: 2,
        ways: 4,
        line: 128,
        hit_cycles: 1,
    },
];

#[test]
fn cache_fast_path_matches_scan_reference() {
    for params in CACHE_GEOMETRIES {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ ((params.sets as u64) << 8));
            let mut fast = Cache::new(params);
            let mut slow = RefCache::new(params);
            let line = params.line as u64;
            let capacity = params.capacity();
            let hot: Vec<u64> = (0..6).map(|_| rng.gen_range(0..8 * capacity)).collect();
            let mut last = hot[0];
            // Salt and size of the latest pollution, to aim accesses at it.
            let mut polluted: Option<(u64, usize)> = None;
            for step in 0..20_000u32 {
                match rng.gen_range(0..1000u32) {
                    0..=2 => assert_eq!(fast.flush(), slow.flush(), "flush at {step}"),
                    3..=6 => {
                        let fraction = rng.gen_range(0.0..1.0);
                        // Small enough that a polluted tag still fits in an
                        // address, so the stream below can hit one.
                        let salt = rng.gen_range(0..1u64 << 40);
                        fast.pollute(fraction, salt);
                        slow.pollute(fraction, salt);
                        let n = (params.sets * params.ways) as usize;
                        polluted = Some((salt, ((n as f64) * fraction) as usize));
                    }
                    _ => {}
                }
                let addr = match rng.gen_range(0..100u32) {
                    // Same line as the previous access: the memo's case.
                    0..=44 => last / line * line + rng.gen_range(0..line),
                    45..=74 => hot[rng.gen_range(0..hot.len())] + rng.gen_range(0..line),
                    75..=94 => rng.gen_range(0..8 * capacity),
                    // A line whose tag the last pollution wrote, in the set
                    // it wrote it to.
                    _ => match polluted {
                        Some((salt, count)) if count > 0 => {
                            let k = rng.gen_range(0..count);
                            let n = (params.sets * params.ways) as usize;
                            let set = (pollute_slot(salt, k, n) / params.ways as usize) as u64;
                            let line_no =
                                (pollute_tag(salt, k) << params.sets.trailing_zeros()) | set;
                            line_no << params.line.trailing_zeros()
                        }
                        _ => last,
                    },
                };
                let write = rng.gen_bool(0.3);
                let got = fast.access(addr, write);
                let want = slow.access(addr, write);
                assert_eq!(
                    got, want,
                    "{params:?} seed {seed} step {step} addr {addr:#x}"
                );
                assert_eq!(fast.stats(), slow.stats(), "stats at step {step}");
                for a in [addr, last, hot[step as usize % hot.len()], addr ^ line] {
                    assert_eq!(fast.probe(a), slow.probe(a), "probe {a:#x} at {step}");
                }
                last = addr;
            }
            assert_eq!(fast.resident_lines(), slow.resident_lines());
        }
    }
}

#[test]
fn tlb_memo_matches_binary_search_reference() {
    for entries in [1u32, 2, 4, 64] {
        for seed in 0..3u64 {
            let params = TlbParams {
                entries,
                page: 4096,
                miss_cycles: 30,
            };
            let mut rng = StdRng::seed_from_u64(seed ^ ((entries as u64) << 8));
            let mut fast = Tlb::new(params);
            let mut slow = RefTlb::new(params);
            let pool = 3 * entries as u64 + 2;
            let mut fetch_page = 0u64;
            let mut data_page = 1u64;
            for step in 0..20_000u32 {
                if rng.gen_range(0..500u32) == 0 {
                    fast.flush();
                    slow.flush();
                }
                // Like the core model: a fetch, then a data reference.
                if rng.gen_range(0..50u32) == 0 {
                    fetch_page = rng.gen_range(0..pool);
                }
                if rng.gen_range(0..8u32) == 0 {
                    data_page = rng.gen_range(0..pool);
                }
                let page = if step % 2 == 0 { fetch_page } else { data_page };
                let vaddr = page * 4096 + rng.gen_range(0..4096);
                assert_eq!(
                    fast.access(vaddr),
                    slow.access(vaddr),
                    "{entries} entries seed {seed} step {step} vaddr {vaddr:#x}"
                );
                assert_eq!(fast.stats(), slow.stats(), "stats at step {step}");
            }
        }
    }
}

#[test]
fn btb_mask_index_matches_modulo_reference() {
    for entries in [1u32, 2, 16, 512, 4096] {
        for seed in 0..3u64 {
            let params = BtbParams {
                entries,
                mispredict_cycles: 12,
            };
            let mut rng = StdRng::seed_from_u64(seed ^ ((entries as u64) << 8));
            let mut fast = BranchPredictor::new(params);
            let mut slow = RefBtb::new(params);
            let pcs: Vec<u64> = (0..24).map(|_| rng.gen_range(0..1u64 << 20)).collect();
            for step in 0..20_000u32 {
                if rng.gen_range(0..2000u32) == 0 {
                    fast.flush();
                    slow.flush();
                }
                let pc = if rng.gen_bool(0.8) {
                    pcs[rng.gen_range(0..pcs.len())]
                } else {
                    rng.gen::<u64>()
                };
                let taken = rng.gen_bool(if pc & 4 == 0 { 0.9 } else { 0.2 });
                let target = pc.wrapping_add(rng.gen_range(0..3u64) * 64);
                assert_eq!(
                    fast.resolve(pc, taken, target),
                    slow.resolve(pc, taken, target),
                    "{entries} entries seed {seed} step {step} pc {pc:#x}"
                );
                assert_eq!(fast.stats(), slow.stats(), "stats at step {step}");
            }
        }
    }
}
