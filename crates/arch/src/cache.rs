//! Set-associative cache models and the three-level hierarchy.
//!
//! Addresses are 64-bit virtual addresses with the owning thread's
//! *address-space id* folded into the high bits by the workload layer, so
//! context switches pollute the caches naturally — the mechanism the paper
//! invokes for server-workload cache behaviour — rather than through an
//! artificial "flush fraction" knob.

use crate::config::CacheConfig;

/// Which level of the hierarchy serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// First-level hit.
    L1,
    /// Second-level hit.
    L2,
    /// Third-level hit.
    L3,
    /// Missed every cache; serviced by memory.
    Memory,
}

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store.
    Write,
}

/// One set-associative cache with true-LRU replacement.
///
/// Tags are full addresses shifted by the line bits; no data is stored.
///
/// ```
/// use fuzzyphase_arch::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(1024, 64, 2, 1));
/// assert!(!c.access(0x0));       // cold miss
/// assert!(c.access(0x4));        // same line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `ways[set * associativity + way]` holds `(tag, lru_stamp)`;
    /// `u64::MAX` tag = invalid. One flat allocation, each set contiguous.
    ways: Vec<(u64, u64)>,
    associativity: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let line_shift = config.line_bytes.trailing_zeros();
        let associativity = config.associativity as usize;
        Self {
            ways: vec![(u64::MAX, 0); associativity * num_sets as usize],
            associativity,
            stamp: 0,
            hits: 0,
            misses: 0,
            line_shift,
            set_bits: num_sets.trailing_zeros(),
            set_mask: num_sets - 1,
            config,
        }
    }

    /// Physical-style set index: fold-XOR the whole line number down to
    /// the index width.
    ///
    /// Pure low-bit indexing would make equal *virtual offsets* in
    /// different address spaces collide perfectly (every process stack at
    /// the same base fighting over the same few sets), which real
    /// physically-indexed caches do not do. Folding keeps the map
    /// bijective within any aligned `num_sets`-line block — sequential
    /// streams still spread across all sets exactly once — while
    /// incorporating the high (address-space) bits.
    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if self.set_bits == 0 {
            return 0;
        }
        // Hash the bits above the index field (page frame / address space)
        // and XOR them into the low bits. Within one aligned block the
        // upper bits are constant, so consecutive lines still cover every
        // set exactly once; across blocks and address spaces the offsets
        // are pseudo-random, like physical frame allocation.
        let upper = line >> self.set_bits;
        let mut h = upper.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        ((line ^ h) & self.set_mask) as usize
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses `addr`; returns `true` on hit. Allocates on miss (all
    /// levels are allocate-on-miss; writes are modelled write-allocate).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = self.set_index(line);
        let tag = line;
        self.stamp += 1;
        let start = set_idx * self.associativity;
        let set = &mut self.ways[start..start + self.associativity];
        // Hit path.
        if let Some(way) = set.iter_mut().find(|w| w.0 == tag) {
            way.1 = self.stamp;
            self.hits += 1;
            return true;
        }
        // Miss: evict LRU way.
        self.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.1)
            // fuzzylint: allow(panic) — a cache way-set is never empty:
            // associativity >= 1 is asserted at construction
            .expect("associativity >= 1");
        *victim = (tag, self.stamp);
        false
    }

    /// Probes without updating state or statistics; `true` if present.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = self.set_index(line);
        self.set(set_idx).iter().any(|w| w.0 == line)
    }

    /// The ways of set `idx`.
    fn set(&self, idx: usize) -> &[(u64, u64)] {
        let start = idx * self.associativity;
        &self.ways[start..start + self.associativity]
    }

    /// The set an address maps to (exposed for conflict tests).
    pub fn set_of(&self, addr: u64) -> usize {
        self.set_index(addr >> self.line_shift)
    }

    /// Total hits since construction or [`reset_stats`](Self::reset_stats).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio; 0.0 before any access.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Clears hit/miss counters but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Invalidates all lines (used between independent benchmark runs).
    pub fn flush(&mut self) {
        self.ways.fill((u64::MAX, 0));
    }
}

/// The full data/instruction cache hierarchy of one core.
///
/// Inclusive behaviour: a miss at level N probes level N+1 and allocates
/// on the way back. L2 and L3 are unified (instruction fetches that miss
/// L1I continue into them).
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    /// Demand data accesses that were serviced by each level.
    data_level_counts: [u64; 4],
    /// Instruction fetches serviced by each level.
    inst_level_counts: [u64; 4],
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a machine configuration.
    pub fn new(cfg: &crate::config::MachineConfig) -> Self {
        Self {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: cfg.l3.map(Cache::new),
            data_level_counts: [0; 4],
            inst_level_counts: [0; 4],
        }
    }

    /// Performs a demand data access and reports the servicing level.
    pub fn access_data(&mut self, addr: u64, _kind: AccessKind) -> HitLevel {
        let level = if self.l1d.access(addr) {
            HitLevel::L1
        } else if self.l2.access(addr) {
            HitLevel::L2
        } else {
            match &mut self.l3 {
                Some(l3) => {
                    if l3.access(addr) {
                        HitLevel::L3
                    } else {
                        HitLevel::Memory
                    }
                }
                None => HitLevel::Memory,
            }
        };
        self.data_level_counts[level_index(level)] += 1;
        level
    }

    /// Performs an instruction fetch and reports the servicing level.
    pub fn fetch_inst(&mut self, addr: u64) -> HitLevel {
        let level = if self.l1i.access(addr) {
            HitLevel::L1
        } else if self.l2.access(addr) {
            HitLevel::L2
        } else {
            match &mut self.l3 {
                Some(l3) => {
                    if l3.access(addr) {
                        HitLevel::L3
                    } else {
                        HitLevel::Memory
                    }
                }
                None => HitLevel::Memory,
            }
        };
        self.inst_level_counts[level_index(level)] += 1;
        level
    }

    /// Data accesses serviced by `level` so far.
    pub fn data_count(&self, level: HitLevel) -> u64 {
        self.data_level_counts[level_index(level)]
    }

    /// Instruction fetches serviced by `level` so far.
    pub fn inst_count(&self, level: HitLevel) -> u64 {
        self.inst_level_counts[level_index(level)]
    }

    /// Whether this hierarchy has a third-level cache.
    pub fn has_l3(&self) -> bool {
        self.l3.is_some()
    }

    /// The L1 data cache (for inspection in tests).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified L2 (for inspection in tests).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The unified L3, if present.
    pub fn l3(&self) -> Option<&Cache> {
        self.l3.as_ref()
    }

    /// Flushes every level.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        if let Some(l3) = &mut self.l3 {
            l3.flush();
        }
        self.data_level_counts = [0; 4];
        self.inst_level_counts = [0; 4];
    }
}

fn level_index(level: HitLevel) -> usize {
    match level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::L3 => 2,
        HitLevel::Memory => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use proptest::prelude::*;

    fn small_cache(assoc: u32) -> Cache {
        // 4 sets x assoc ways x 64B lines.
        Cache::new(CacheConfig::new(64 * 4 * assoc as u64, 64, assoc, 1))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache(2);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103F)); // same 64B line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache(2);
        // Find three distinct lines mapping to the same set.
        let target_set = c.set_of(0);
        let mut same: Vec<u64> = (0..64u64)
            .map(|i| i * 64)
            .filter(|&a| c.set_of(a) == target_set)
            .collect();
        assert!(same.len() >= 3, "need 3 conflicting lines");
        same.truncate(3);
        let (a, b, d) = (same[0], same[1], same[2]);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b (LRU)
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn set_index_bijective_on_aligned_block() {
        // Any aligned block of num_sets consecutive lines covers every set
        // exactly once, so sequential streams never self-conflict.
        let c = Cache::new(CacheConfig::new(64 * 16 * 2, 64, 2, 1)); // 16 sets
        for block in [0u64, 16, 32, 1 << 30, (7u64 << 48) >> 6] {
            let mut seen = std::collections::HashSet::new();
            for i in 0..16u64 {
                seen.insert(c.set_of((block + i) * 64));
            }
            assert_eq!(seen.len(), 16, "block {block} not a permutation");
        }
    }

    #[test]
    fn different_spaces_spread_across_sets() {
        // The bug this index fixes: identical offsets in different address
        // spaces must not all collide in one set.
        let c = Cache::new(CacheConfig::new(1 << 20, 64, 8, 1)); // 2048 sets
        let mut seen = std::collections::HashSet::new();
        for space in 0..64u64 {
            seen.insert(c.set_of((space << 48) | 0x6000_0000));
        }
        assert!(
            seen.len() > 32,
            "spaces spread over {} sets only",
            seen.len()
        );
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        let mut c = Cache::new(CacheConfig::new(4096, 64, 4, 1));
        let lines: Vec<u64> = (0..64).map(|i| i * 64).collect();
        for &a in &lines {
            c.access(a);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &a in &lines {
                assert!(c.access(a));
            }
        }
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig::new(4096, 64, 4, 1));
        // 128 lines cycled through a 64-line cache with LRU: always miss.
        let lines: Vec<u64> = (0..128).map(|i| i * 64).collect();
        for _ in 0..3 {
            for &a in &lines {
                c.access(a);
            }
        }
        assert!(c.miss_ratio() > 0.99);
    }

    #[test]
    fn address_space_tag_separates_threads() {
        let mut c = Cache::new(CacheConfig::new(64 * 1024, 64, 8, 1));
        let addr = 0x40;
        let space_a = 1u64 << 48;
        let space_b = 2u64 << 48;
        c.access(space_a | addr);
        assert!(!c.access(space_b | addr), "different space must miss");
        assert!(c.probe(space_a | addr), "original line still present");
    }

    #[test]
    fn hierarchy_promotes_through_levels() {
        let cfg = MachineConfig::itanium2();
        let mut h = MemoryHierarchy::new(&cfg);
        let addr = 0xDEAD_0000;
        assert_eq!(h.access_data(addr, AccessKind::Read), HitLevel::Memory);
        // Allocated in all levels on the way back.
        assert_eq!(h.access_data(addr, AccessKind::Read), HitLevel::L1);
        assert_eq!(h.data_count(HitLevel::Memory), 1);
        assert_eq!(h.data_count(HitLevel::L1), 1);
    }

    #[test]
    fn hierarchy_l2_hit_after_l1_eviction() {
        let cfg = MachineConfig::itanium2();
        let mut h = MemoryHierarchy::new(&cfg);
        let target = 0u64;
        h.access_data(target, AccessKind::Read);
        // Capacity-evict `target` from L1D (32 KB = 512 lines, 4-way): walk
        // 1024 fresh sequential lines (64 KB). The folded index covers each
        // L1 set exactly 8 times, beating the 4 ways, while 64 KB still
        // fits comfortably in the 256 KB L2.
        for i in 1..=1024u64 {
            h.access_data(0x10_0000 + i * 64, AccessKind::Read);
        }
        assert_eq!(h.access_data(target, AccessKind::Read), HitLevel::L2);
    }

    #[test]
    fn no_l3_goes_to_memory() {
        let cfg = MachineConfig::pentium4();
        let mut h = MemoryHierarchy::new(&cfg);
        assert!(!h.has_l3());
        assert_eq!(
            h.access_data(0x1234_5678, AccessKind::Read),
            HitLevel::Memory
        );
    }

    #[test]
    fn flush_empties() {
        let cfg = MachineConfig::xeon();
        let mut h = MemoryHierarchy::new(&cfg);
        h.access_data(0x10, AccessKind::Read);
        h.flush();
        assert_eq!(h.access_data(0x10, AccessKind::Read), HitLevel::Memory);
    }

    #[test]
    fn inst_and_data_paths_are_separate_l1() {
        let cfg = MachineConfig::itanium2();
        let mut h = MemoryHierarchy::new(&cfg);
        let addr = 0x8000;
        h.fetch_inst(addr);
        // Data access to the same address misses L1D but hits unified L2.
        assert_eq!(h.access_data(addr, AccessKind::Read), HitLevel::L2);
    }

    /// The nested-`Vec` set storage the flat layout replaced, with the
    /// same LRU policy; set selection is borrowed from the cache under
    /// test (`set_of`), which the layout change does not touch.
    struct NestedCache {
        sets: Vec<Vec<(u64, u64)>>,
        line_shift: u32,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl NestedCache {
        fn new(config: CacheConfig) -> Self {
            Self {
                sets: vec![
                    vec![(u64::MAX, 0); config.associativity as usize];
                    config.num_sets() as usize
                ],
                line_shift: config.line_bytes.trailing_zeros(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, set_idx: usize, addr: u64) -> bool {
            let tag = addr >> self.line_shift;
            self.stamp += 1;
            let set = &mut self.sets[set_idx];
            if let Some(way) = set.iter_mut().find(|w| w.0 == tag) {
                way.1 = self.stamp;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let victim = set.iter_mut().min_by_key(|w| w.1).unwrap();
            *victim = (tag, self.stamp);
            false
        }

        fn probe(&self, set_idx: usize, addr: u64) -> bool {
            self.sets[set_idx]
                .iter()
                .any(|w| w.0 == addr >> self.line_shift)
        }

        fn flush(&mut self) {
            for set in &mut self.sets {
                for way in set {
                    *way = (u64::MAX, 0);
                }
            }
        }
    }

    proptest! {
        /// The flat cache and the nested-`Vec` reference agree on every
        /// access, probe and counter, across flushes, for any geometry.
        #[test]
        fn flat_sets_match_nested_reference(
            set_bits in 0u32..6,
            assoc_bits in 0u32..4,
            line_shift in 4u32..8,
            ops in prop::collection::vec((0u64..1u64 << 14, 0u32..200), 1..1500),
        ) {
            let assoc = 1u32 << assoc_bits;
            let line = 1u64 << line_shift;
            let cfg = CacheConfig::new((line * u64::from(assoc)) << set_bits, line, assoc, 1);
            let mut flat = Cache::new(cfg);
            let mut nested = NestedCache::new(cfg);
            for (i, &(a, op)) in ops.iter().enumerate() {
                // Lines from a pool a few times the capacity, tagged with
                // one of three address spaces.
                let addr = ((a % (4 << set_bits) * u64::from(assoc)) << line_shift)
                    | (u64::from(op % 3) << 48)
                    | ((a >> 8) % line);
                if op == 0 {
                    flat.flush();
                    nested.flush();
                    continue;
                }
                let set = flat.set_of(addr);
                prop_assert_eq!(flat.probe(addr), nested.probe(set, addr), "probe {}", i);
                prop_assert_eq!(flat.access(addr), nested.access(set, addr), "access {}", i);
                prop_assert_eq!((flat.hits(), flat.misses()), (nested.hits, nested.misses));
            }
        }
    }
}
