//! A generic set-associative LRU cache model (shared by the icache
//! levels, TLBs, BTB and DSB proxy).

/// Set-associative cache with true-LRU replacement.
///
/// Tags are full addresses shifted by the line granularity; capacity is
/// `sets * assoc` lines.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    /// log2 of the line (or page) size in bytes.
    line_shift: u32,
    set_mask: u64,
    assoc: usize,
    /// `sets x assoc` tags; `u64::MAX` = invalid. LRU order is
    /// maintained by keeping the most recent at index 0.
    ways: Vec<u64>,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache of `sets` sets (power of two), `assoc` ways, and
    /// `line_bytes` granularity (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or
    /// `assoc` is zero.
    pub fn new(sets: usize, assoc: usize, line_bytes: u64) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc > 0, "associativity must be positive");
        SetAssocCache {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            assoc,
            ways: vec![u64::MAX; sets * assoc],
            accesses: 0,
            misses: 0,
        }
    }

    /// Convenience: build from a total capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity / (line_bytes * assoc)` is a positive
    /// power of two.
    pub fn with_capacity(capacity: u64, assoc: usize, line_bytes: u64) -> Self {
        let sets = (capacity / (line_bytes * assoc as u64)) as usize;
        Self::new(sets, assoc, line_bytes)
    }

    /// Accesses `addr`; returns `true` on hit. Misses fill.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let tag = addr >> self.line_shift;
        let set = (tag & self.set_mask) as usize;
        let base = set * self.assoc;
        // One pass that searches and ages at once: `tag` goes in at the
        // MRU way and every way down to the one that held it (or, on a
        // miss, the LRU way, which falls off) moves along by one. Most
        // accesses re-touch the line just used and stop at the first
        // way.
        let mut carry = tag;
        for way in &mut self.ways[base..base + self.assoc] {
            carry = std::mem::replace(way, carry);
            if carry == tag {
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `access` as it was before it searched and aged in one pass:
    /// `position`, then `rotate_right`.
    fn reference_access(c: &mut SetAssocCache, addr: u64) -> bool {
        c.accesses += 1;
        let tag = addr >> c.line_shift;
        let set = (tag & c.set_mask) as usize;
        let base = set * c.assoc;
        let ways = &mut c.ways[base..base + c.assoc];
        if let Some(pos) = ways.iter().position(|&w| w == tag) {
            // Move to MRU.
            ways[..=pos].rotate_right(1);
            true
        } else {
            c.misses += 1;
            ways.rotate_right(1);
            ways[0] = tag;
            false
        }
    }

    #[test]
    fn one_pass_access_matches_the_reference_on_random_streams() {
        let mut rng = crate::rng::SplitMix64::new(0xCAC4E);
        for (sets, assoc) in [(4, 1), (8, 2), (2, 8), (4, 16), (1, 3)] {
            let mut new = SetAssocCache::new(sets, assoc, 64);
            let mut old = new.clone();
            // Twice the capacity in lines, with runs of repeats: hits at
            // every way, misses, and evictions.
            let lines = 2 * (sets * assoc) as u64;
            let mut addr = 0;
            for step in 0..20_000 {
                if rng.below(3) != 0 {
                    addr = rng.below(lines) * 64 + rng.below(64);
                }
                assert_eq!(
                    new.access(addr),
                    reference_access(&mut old, addr),
                    "{sets}x{assoc}, step {step}"
                );
                assert_eq!(new.ways, old.ways, "{sets}x{assoc}, step {step}");
            }
            assert_eq!((new.accesses, new.misses), (old.accesses, old.misses));
            assert!(new.misses > 100 && new.misses < new.accesses / 2);
        }
        // A tag equal to the invalid marker (1-byte lines, as the BTB
        // has): both bodies "hit" the first empty way.
        let mut new = SetAssocCache::new(1, 4, 1);
        let mut old = new.clone();
        for addr in [7, u64::MAX, 9, u64::MAX, 7, 11, 12, 13, u64::MAX, 7] {
            assert_eq!(
                new.access(addr),
                reference_access(&mut old, addr),
                "{addr:#x}"
            );
            assert_eq!(new.ways, old.ways, "{addr:#x}");
        }
    }

    #[test]
    fn hits_within_line() {
        let mut c = SetAssocCache::new(4, 2, 64);
        assert!(!c.access(0x100));
        assert!(c.access(0x13F)); // same 64B line
        assert!(!c.access(0x140)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set, 2 ways.
        let mut c = SetAssocCache::new(1, 2, 64);
        c.access(0); // A
        c.access(64); // B
        c.access(0); // A -> MRU
        assert!(!c.access(128)); // C evicts B
        assert!(c.access(0)); // A survives
        assert!(!c.access(64)); // B was evicted
    }

    #[test]
    fn capacity_constructor() {
        // 32 KiB, 8-way, 64 B lines => 64 sets.
        let c = SetAssocCache::with_capacity(32 * 1024, 8, 64);
        assert_eq!(c.line_shift, 6);
        // Fill more than capacity and expect evictions.
        let mut c = c;
        for i in 0..1024u64 {
            c.access(i * 64);
        }
        assert_eq!(c.misses(), 1024);
        // Re-touch the last 512 lines (exactly capacity): all hits.
        let before = c.misses();
        for i in 512..1024u64 {
            assert!(c.access(i * 64));
        }
        assert_eq!(c.misses(), before);
    }

    #[test]
    fn page_granularity_works_for_tlb() {
        let mut tlb = SetAssocCache::new(16, 4, 4096);
        assert!(!tlb.access(0x40_0000));
        assert!(tlb.access(0x40_0FFF)); // same 4K page
        assert!(!tlb.access(0x40_1000)); // next page
    }
}
