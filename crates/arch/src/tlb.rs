//! A fully-associative TLB model with LRU replacement.
//!
//! TLB misses are charged to the paper's OTHER stall component.
//!
//! Lookups are O(1): a page → slot hash index finds the entry and an
//! intrusive doubly-linked list over the slots keeps exact LRU order. A
//! fully-associative buffer's slot numbers are unobservable, so this gives
//! the same hit/miss sequence as scanning every entry for the page and
//! for the least-recently-used victim (DESIGN.md D16).

/// Empty index cell / list end.
const NONE: u32 = u32::MAX;

/// A fully-associative translation lookaside buffer.
///
/// ```
/// use fuzzyphase_arch::Tlb;
/// let mut tlb = Tlb::new(4, 4096);
/// assert!(!tlb.access(0x1000)); // cold miss
/// assert!(tlb.access(0x1FFF));  // same page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Resident page of each slot; only slots `..filled` are valid.
    pages: Vec<u64>,
    /// Slots holding a page since the last flush.
    filled: usize,
    /// LRU list links per slot: `prev` is towards the MRU end.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next victim once every slot is full.
    tail: u32,
    /// Open-addressing (linear probing) page → slot table, at least twice
    /// the entry count so probe runs stay short.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: Fibonacci hashing keeps the top bits.
    index_shift: u32,
    page_shift: u32,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` slots over pages of `page_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `page_bytes` is not a power of two.
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(entries < NONE as usize, "TLB entry count must fit a u32");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let index_len = (2 * entries).next_power_of_two();
        Self {
            pages: vec![0; entries],
            filled: 0,
            prev: vec![NONE; entries],
            next: vec![NONE; entries],
            head: NONE,
            tail: NONE,
            index: vec![NONE; index_len],
            index_shift: 64 - index_len.trailing_zeros(),
            page_shift: page_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `addr`; returns `true` on hit, refills on miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        let mask = self.index.len() - 1;
        let mut pos = self.home(page);
        loop {
            let slot = self.index[pos];
            if slot == NONE {
                break;
            }
            if self.pages[slot as usize] == page {
                self.hits += 1;
                self.touch(slot);
                return true;
            }
            pos = (pos + 1) & mask;
        }
        self.misses += 1;
        let slot = if self.filled < self.pages.len() {
            let slot = self.filled as u32;
            self.filled += 1;
            self.push_front(slot);
            slot
        } else {
            let victim = self.tail;
            self.unindex(victim);
            self.touch(victim);
            victim
        };
        self.pages[slot as usize] = page;
        // Removing the victim may have shifted cells back into the probe
        // run above, so walk it again to its first empty cell.
        let mut pos = self.home(page);
        while self.index[pos] != NONE {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = slot;
        false
    }

    /// Home cell of `page` in the index.
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// Makes a listed `slot` the most recently used.
    #[inline]
    fn touch(&mut self, slot: u32) {
        if slot == self.head {
            return;
        }
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        // `slot` is not the head, so it has a predecessor.
        self.next[p as usize] = n;
        if n == NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.push_front(slot);
    }

    /// Links an unlisted `slot` in at the MRU end.
    #[inline]
    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NONE;
        self.next[slot as usize] = self.head;
        if self.head == NONE {
            self.tail = slot;
        } else {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
    }

    /// Removes `slot`'s page from the index (backward-shift deletion, so
    /// no tombstones accumulate).
    fn unindex(&mut self, slot: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.pages[slot as usize]);
        while self.index[hole] != slot {
            hole = (hole + 1) & mask;
        }
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let s = self.index[pos];
            if s == NONE {
                break;
            }
            // An entry may move back into the hole only if its home is
            // not cyclically within (hole, pos].
            let home = self.home(self.pages[s as usize]);
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                hole = pos;
            }
        }
        self.index[hole] = NONE;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.index.fill(NONE);
        self.filled = 0;
        self.head = NONE;
        self.tail = NONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn page_granularity() {
        let mut t = Tlb::new(8, 4096);
        t.access(0x0000);
        assert!(t.access(0x0FFF));
        assert!(!t.access(0x1000));
    }

    #[test]
    fn lru_replacement() {
        let mut t = Tlb::new(2, 4096);
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // page 0 now MRU
        t.access(0x2000); // evicts page 1
        assert!(t.access(0x0000));
        assert!(!t.access(0x1000));
    }

    #[test]
    fn counters() {
        let mut t = Tlb::new(4, 4096);
        t.access(0x0);
        t.access(0x0);
        assert_eq!(t.misses(), 1);
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn flush_forgets() {
        let mut t = Tlb::new(4, 4096);
        t.access(0x0);
        t.flush();
        assert!(!t.access(0x0));
    }

    #[test]
    fn working_set_within_entries_all_hit() {
        let mut t = Tlb::new(16, 4096);
        let pages: Vec<u64> = (0..16).map(|i| i * 4096).collect();
        for &p in &pages {
            t.access(p);
        }
        for &p in &pages {
            assert!(t.access(p));
        }
    }

    /// The linear-scan model the indexed TLB replaced: find the page by
    /// scanning every entry, evict the smallest LRU stamp on a miss.
    struct ScanTlb {
        entries: Vec<(u64, u64)>, // (page, lru_stamp); u64::MAX page = invalid
        page_shift: u32,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanTlb {
        fn new(entries: usize, page_bytes: u64) -> Self {
            Self {
                entries: vec![(u64::MAX, 0); entries],
                page_shift: page_bytes.trailing_zeros(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let page = addr >> self.page_shift;
            self.stamp += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
                e.1 = self.stamp;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let victim = self.entries.iter_mut().min_by_key(|e| e.1).unwrap();
            *victim = (page, self.stamp);
            false
        }

        fn flush(&mut self) {
            for e in &mut self.entries {
                *e = (u64::MAX, 0);
            }
        }
    }

    proptest! {
        /// The indexed TLB and the linear scan agree access by access on
        /// hit/miss and on the counters, across flushes. Pages are drawn
        /// from a pool a little larger than the TLB so hits, capacity
        /// misses and long probe runs (clustered and far-apart pages)
        /// all occur.
        #[test]
        fn matches_linear_scan(
            entries in 1usize..40,
            shift in 1u32..16,
            spread in 0u32..40,
            ops in prop::collection::vec((any::<u64>(), 0u32..100), 1..1500),
        ) {
            let page_bytes = 1u64 << shift;
            let mut fast = Tlb::new(entries, page_bytes);
            let mut scan = ScanTlb::new(entries, page_bytes);
            let pool = (entries as u64 * 3 / 2).max(2);
            for (i, &(r, op)) in ops.iter().enumerate() {
                if op == 0 {
                    fast.flush();
                    scan.flush();
                    continue;
                }
                let page = (r % pool) << spread;
                let addr = (page << shift) | ((r >> 40) & (page_bytes - 1));
                prop_assert_eq!(fast.access(addr), scan.access(addr), "access {}", i);
                prop_assert_eq!((fast.hits(), fast.misses()), (scan.hits, scan.misses));
            }
        }
    }
}
