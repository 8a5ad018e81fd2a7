//! Set-associative caches and the TLB.
//!
//! The caches are tag-only (no data payload — the VM holds the real data);
//! the model tracks hit/miss, dirty lines, and LRU order. Lines are
//! physically indexed/physically tagged, which is why the paper must pin the
//! same physical frames across play and replay (§3.6): a different
//! virtual→physical assignment changes set indexing and thus conflict
//! misses. This model reproduces that effect faithfully.

use serde::{Deserialize, Serialize};

use crate::{Cycles, PAddr};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Number of sets (must be a power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (must be a power of two).
    pub line: u32,
    /// Latency of a hit, in cycles.
    pub hit_cycles: Cycles,
}

impl CacheParams {
    /// A small L1 data cache (32 KiB, 8-way, 64 B lines, 4-cycle hits).
    pub fn l1d() -> Self {
        CacheParams {
            sets: 64,
            ways: 8,
            line: 64,
            hit_cycles: 4,
        }
    }

    /// A small L1 instruction cache (32 KiB, 8-way, 64 B lines).
    pub fn l1i() -> Self {
        CacheParams {
            sets: 64,
            ways: 8,
            line: 64,
            hit_cycles: 1,
        }
    }

    /// A unified L2 (256 KiB, 8-way, 64 B lines, 12-cycle hits).
    pub fn l2() -> Self {
        CacheParams {
            sets: 512,
            ways: 8,
            line: 64,
            hit_cycles: 12,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line as u64
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was resident.
    pub hit: bool,
    /// Whether a dirty line had to be written back to make room.
    pub writeback: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp; higher = more recently used.
    lru: u64,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// Deterministic by construction: the replacement decision depends only on
/// the access sequence, which is the property Sanity's design leans on
/// ("if the instruction stream is exactly the same and the caches have a
/// deterministic replacement policy … this is almost sufficient to
/// reproduce the evolution of cache states", §3.6).
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    lines: Vec<Line>,
    /// `log2(line)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(sets)`: a line number's tag is `line >> set_shift`.
    set_shift: u32,
    /// `sets - 1`: a line number's set is `line & set_mask`.
    set_mask: u64,
    /// `(line number, slot in lines)` of the most recent hit or fill.
    /// Every access either hits or fills, so a memo match means the
    /// previous access touched the same line and nothing has moved it
    /// since: the way scan would stop at exactly this slot. `flush` and
    /// `pollute` rewrite slots behind the memo's back and clear it.
    mru: Option<(u64, usize)>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Create an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line` is not a power of two, or any dimension is
    /// zero — geometry is static configuration, not runtime input.
    pub fn new(params: CacheParams) -> Self {
        assert!(params.sets.is_power_of_two(), "sets must be a power of two");
        assert!(params.line.is_power_of_two(), "line must be a power of two");
        assert!(params.ways > 0, "ways must be nonzero");
        Cache {
            params,
            lines: vec![INVALID_LINE; (params.sets * params.ways) as usize],
            line_shift: params.line.trailing_zeros(),
            set_shift: params.sets.trailing_zeros(),
            set_mask: params.sets as u64 - 1,
            mru: None,
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configured geometry.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// `(first slot of the set, tag)` of line number `line`.
    fn locate(&self, line: u64) -> (usize, u64) {
        let set = (line & self.set_mask) as usize;
        (set * self.params.ways as usize, line >> self.set_shift)
    }

    /// Access `addr`; returns hit/writeback status. A write marks the line
    /// dirty (write-allocate on miss).
    pub fn access(&mut self, addr: PAddr, write: bool) -> CacheAccess {
        self.clock += 1;
        let line = addr >> self.line_shift;
        if let Some((mru_line, slot)) = self.mru {
            if mru_line == line {
                let l = &mut self.lines[slot];
                l.lru = self.clock;
                l.dirty |= write;
                self.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: false,
                };
            }
        }
        let (base, tag) = self.locate(line);
        let ways = &mut self.lines[base..base + self.params.ways as usize];

        // Hit path.
        for (way, l) in ways.iter_mut().enumerate() {
            if l.valid && l.tag == tag {
                l.lru = self.clock;
                l.dirty |= write;
                self.hits += 1;
                self.mru = Some((line, base + way));
                return CacheAccess {
                    hit: true,
                    writeback: false,
                };
            }
        }
        // Miss: fill into the invalid or least-recently-used way.
        self.misses += 1;
        let (way, victim) = ways
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .expect("ways is non-empty");
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        self.mru = Some((line, base + way));
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// True if the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: PAddr) -> bool {
        let (base, tag) = self.locate(addr >> self.line_shift);
        self.lines[base..base + self.params.ways as usize]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidate everything, returning the number of dirty lines that the
    /// hardware would have to write back (`wbinvd` semantics, §4.2).
    pub fn flush(&mut self) -> u64 {
        let dirty = self.lines.iter().filter(|l| l.valid && l.dirty).count() as u64;
        for l in self.lines.iter_mut() {
            *l = INVALID_LINE;
        }
        self.mru = None;
        dirty
    }

    /// Mark `fraction` (0..=1) of the lines valid with arbitrary tags, as a
    /// model of a "dirty" machine whose cache content is unknown at start.
    ///
    /// The pollution pattern is a deterministic function of `salt`.
    pub fn pollute(&mut self, fraction: f64, salt: u64) {
        self.mru = None;
        let n = self.lines.len();
        let count = ((n as f64) * fraction.clamp(0.0, 1.0)) as usize;
        for k in 0..count {
            // Simple LCG-scattered indices; determinism matters, beauty not.
            let idx = (salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add((k as u64).wrapping_mul(1442695040888963407)))
                % n as u64;
            self.clock += 1;
            self.lines[idx as usize] = Line {
                tag: salt.wrapping_add(k as u64) | (1 << 40),
                valid: true,
                dirty: k % 3 == 0,
                lru: self.clock,
            };
        }
    }

    /// `(hits, misses, writebacks)` counters since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// Geometry of the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbParams {
    /// Number of entries (fully associative).
    pub entries: u32,
    /// Page size in bytes (must be a power of two).
    pub page: u32,
    /// Penalty of a miss (page-table walk), in cycles.
    pub miss_cycles: Cycles,
}

impl TlbParams {
    /// A 64-entry TLB over 4 KiB pages with a 30-cycle walk.
    pub fn default_params() -> Self {
        TlbParams {
            entries: 64,
            page: 4096,
            miss_cycles: 30,
        }
    }
}

/// A fully associative TLB with LRU replacement.
///
/// Tracks virtual page numbers; the walk cost is charged on miss. `flush`
/// models the paper's `CR4.PCIDE` toggle that drops global entries too.
#[derive(Debug, Clone)]
pub struct Tlb {
    params: TlbParams,
    /// `log2(page)`: an address's page number is `vaddr >> page_shift`.
    page_shift: u32,
    entries: Vec<(u64, u64)>, // (vpn, lru)
    clock: u64,
    hits: u64,
    misses: u64,
    /// `(vpn, slot)` sorted by vpn — a binary-searchable view over
    /// `entries` so the hot hit path avoids the linear scan. Pure host-side
    /// acceleration: hit/miss/LRU outcomes are decided by `entries` alone.
    index: Vec<(u64, u32)>,
    /// The two most recently touched `(vpn, slot)` pairs, most recent
    /// first — in the core model, the fetch page and the data page. A pair
    /// is trusted only while `entries[slot]` still holds `vpn`; entries
    /// hold distinct vpns, so that slot is the one the index would find.
    memo: [(u64, u32); 2],
}

impl Tlb {
    /// Create an empty TLB.
    pub fn new(params: TlbParams) -> Self {
        assert!(params.page.is_power_of_two(), "page must be a power of two");
        Tlb {
            params,
            page_shift: params.page.trailing_zeros(),
            entries: Vec::with_capacity(params.entries as usize),
            clock: 0,
            hits: 0,
            misses: 0,
            index: Vec::with_capacity(params.entries as usize),
            // Slot u32::MAX is never populated, so these never match.
            memo: [(0, u32::MAX); 2],
        }
    }

    /// The configured geometry.
    pub fn params(&self) -> &TlbParams {
        &self.params
    }

    /// Whether memo pair `m` names a resident page `vpn`.
    fn memo_holds(&self, m: usize, vpn: u64) -> bool {
        let (p, slot) = self.memo[m];
        p == vpn
            && self
                .entries
                .get(slot as usize)
                .is_some_and(|&(e, _)| e == vpn)
    }

    /// Touch the page containing virtual address `vaddr`; returns the cycle
    /// cost (0 on hit, `miss_cycles` on miss).
    pub fn access(&mut self, vaddr: u64) -> Cycles {
        self.clock += 1;
        let vpn = vaddr >> self.page_shift;
        for m in 0..2 {
            if self.memo_holds(m, vpn) {
                self.memo.swap(0, m);
                self.entries[self.memo[0].1 as usize].1 = self.clock;
                self.hits += 1;
                return 0;
            }
        }
        if let Ok(i) = self.index.binary_search_by_key(&vpn, |&(p, _)| p) {
            let slot = self.index[i].1;
            self.entries[slot as usize].1 = self.clock;
            self.hits += 1;
            self.remember(vpn, slot);
            return 0;
        }
        self.misses += 1;
        if self.entries.len() < self.params.entries as usize {
            let slot = self.entries.len() as u32;
            self.entries.push((vpn, self.clock));
            let at = self.index.partition_point(|&(p, _)| p < vpn);
            self.index.insert(at, (vpn, slot));
            self.remember(vpn, slot);
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
            self.remember(vpn, slot as u32);
        }
        self.params.miss_cycles
    }

    /// Make `(vpn, slot)` the most recent memo pair.
    fn remember(&mut self, vpn: u64, slot: u32) {
        self.memo[1] = self.memo[0];
        self.memo[0] = (vpn, slot);
    }

    /// Drop every entry.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheParams::l1d());
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same line, different offset");
        assert!(!c.access(0x2000, false).hit, "different line misses");
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct construction of a 1-set, 2-way cache.
        let mut c = Cache::new(CacheParams {
            sets: 1,
            ways: 2,
            line: 64,
            hit_cycles: 1,
        });
        c.access(0x0, false); // A
        c.access(0x40, false); // B
        c.access(0x0, false); // A again (B is now LRU)
        c.access(0x80, false); // C evicts B
        assert!(c.probe(0x0), "A stays");
        assert!(!c.probe(0x40), "B evicted");
        assert!(c.probe(0x80), "C resident");
    }

    #[test]
    fn writeback_only_on_dirty_eviction() {
        let mut c = Cache::new(CacheParams {
            sets: 1,
            ways: 1,
            line: 64,
            hit_cycles: 1,
        });
        c.access(0x0, true); // Dirty A.
        let a = c.access(0x40, false); // Evicts dirty A.
        assert!(a.writeback);
        let b = c.access(0x80, false); // Evicts clean B.
        assert!(!b.writeback);
    }

    #[test]
    fn flush_counts_dirty_lines_and_empties() {
        let mut c = Cache::new(CacheParams::l1d());
        c.access(0x0, true);
        c.access(0x40, true);
        c.access(0x80, false);
        assert_eq!(c.flush(), 2);
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0x0, false).hit);
    }

    #[test]
    fn pollute_is_deterministic() {
        let mut a = Cache::new(CacheParams::l1d());
        let mut b = Cache::new(CacheParams::l1d());
        a.pollute(0.5, 42);
        b.pollute(0.5, 42);
        assert_eq!(a.resident_lines(), b.resident_lines());
        // Identical subsequent behavior.
        assert_eq!(a.access(0x123456, false).hit, b.access(0x123456, false).hit);
    }

    #[test]
    fn physical_indexing_differs_by_frame() {
        // The same access pattern through two different physical frames can
        // produce different conflict behavior — the reason Sanity pins
        // frames across play and replay.
        let params = CacheParams {
            sets: 4,
            ways: 1,
            line: 64,
            hit_cycles: 1,
        };
        let mut c1 = Cache::new(params);
        // Frame A: lines map to sets 0 and 2 (no conflict).
        c1.access(0x000, false);
        c1.access(0x080, false);
        assert!(c1.probe(0x000) && c1.probe(0x080));
        let mut c2 = Cache::new(params);
        // Frame B: both lines map to set 0 (conflict).
        c2.access(0x000, false);
        c2.access(0x100, false);
        assert!(!c2.probe(0x000), "conflicting frame assignment evicts");
    }

    #[test]
    fn tlb_hit_after_fill() {
        let mut t = Tlb::new(TlbParams::default_params());
        assert_eq!(t.access(0x1000), 30);
        assert_eq!(t.access(0x1fff), 0, "same page");
        assert_eq!(t.access(0x2000), 30, "next page");
    }

    #[test]
    fn tlb_lru_and_flush() {
        let mut t = Tlb::new(TlbParams {
            entries: 2,
            page: 4096,
            miss_cycles: 10,
        });
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // page 0 again; page 1 is LRU
        t.access(0x2000); // page 2 evicts page 1
        assert_eq!(t.access(0x0000), 0);
        assert_eq!(t.access(0x1000), 10, "page 1 was evicted");
        t.flush();
        assert_eq!(t.access(0x0000), 10, "flush drops everything");
    }

    #[test]
    fn capacity_math() {
        assert_eq!(CacheParams::l1d().capacity(), 32 * 1024);
        assert_eq!(CacheParams::l2().capacity(), 256 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheParams {
            sets: 3,
            ways: 1,
            line: 64,
            hit_cycles: 1,
        });
    }
}
