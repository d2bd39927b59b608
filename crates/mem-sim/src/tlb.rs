//! A set-associative TLB model with hardware-faithful dirty-bit caching.
//!
//! The crucial behaviour for Viyojit (§5.2) is that the TLB caches the
//! dirty bit: a write through an entry whose cached dirty bit is already set
//! does **not** update the PTE. Software that clears PTE dirty bits without
//! flushing the TLB will therefore read stale values on the next epoch walk
//! — the exact effect the paper measures in its TLB-flush ablation (§6.3).
//!
//! Two things below are **not** part of the model; both are host-side
//! layout, and a property test drives the pair against a reference that has
//! neither (`Option<TlbEntry>` slots, a scan on every lookup).
//!
//! - The tag array (`Tlb::tags`): the page number of every way, or `EMPTY`,
//!   in a `Vec<u64>` beside the entries. A set's ways are adjacent words,
//!   so finding a page or a free way compares a few `u64`s instead of
//!   walking 24-byte `Option`s, and a flush is one `fill` over the tags;
//!   the entries behind emptied tags are left as they are and never read.
//! - The last-translation memo (`Tlb::memo`): a shortcut past the set scan
//!   for a repeated lookup of one page — a block-header read followed by
//!   the payload access, or the up to three lookups of one `Mmu::write` —
//!   that replays exactly what the scan would have done: the same stamp
//!   consumed, the same counter bumped, the same entry returned.

use crate::{PageId, PteFlags};

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The page this entry translates.
    pub page: PageId,
    /// Cached writable permission.
    pub writable: bool,
    /// Cached dirty status; while set, writes skip the PTE dirty update.
    pub dirty: bool,
    /// Cached §5.4 shadow-dirty status; while set, writes skip the PTE
    /// shadow update. Cleared independently of `dirty` so software can
    /// sample update recency without disturbing the hardware counter.
    pub shadow: bool,
    /// Insertion stamp used for LRU replacement within a set.
    stamp: u64,
}

/// Hit/miss/flush counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found a valid entry.
    pub hits: u64,
    /// Lookups that required a page-table walk.
    pub misses: u64,
    /// Full flushes.
    pub flushes: u64,
    /// Single-entry invalidations.
    pub invalidations: u64,
}

/// The tag of a way that caches nothing. No page can carry it: `fill`
/// refuses the one page number that would.
const EMPTY: u64 = u64::MAX;

/// A set-associative TLB.
///
/// # Examples
///
/// ```
/// use mem_sim::{PageId, PteFlags, Tlb};
///
/// let mut tlb = Tlb::new(4, 2);
/// assert!(tlb.lookup(PageId(1)).is_none());
/// tlb.fill(PageId(1), PteFlags::present().with_writable(true));
/// assert!(tlb.lookup(PageId(1)).unwrap().writable);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: usize,
    ways: usize,
    /// `tags[i]` is the page number `entries[i]` caches, or `EMPTY`; an
    /// entry is only ever read after its tag matched.
    tags: Vec<u64>,
    entries: Vec<TlbEntry>,
    next_stamp: u64,
    stats: TlbStats,
    /// `(page, index into entries)` of the slot a scan for `page` would
    /// stop at, or `None` when unknown. Set by a hit or a fill; dropped by
    /// anything that can empty or repurpose that slot.
    memo: Option<(PageId, usize)>,
}

impl Tlb {
    /// Creates a TLB with `sets` sets of `ways` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either argument is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets.is_power_of_two(),
            "TLB set count must be a power of two"
        );
        assert!(ways > 0, "TLB must have at least one way");
        let vacant = TlbEntry {
            page: PageId(EMPTY),
            writable: false,
            dirty: false,
            shadow: false,
            stamp: 0,
        };
        Tlb {
            sets,
            ways,
            tags: vec![EMPTY; sets * ways],
            entries: vec![vacant; sets * ways],
            next_stamp: 0,
            stats: TlbStats::default(),
            memo: None,
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Accumulated counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    fn set_range(&self, page: PageId) -> std::ops::Range<usize> {
        let set = (page.0 as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up `page`, bumping hit/miss counters. On a hit the entry's LRU
    /// stamp is refreshed and a mutable reference is returned so the MMU can
    /// update the cached dirty bit.
    pub fn lookup(&mut self, page: PageId) -> Option<&mut TlbEntry> {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let slot = match self.memo {
            Some((memo_page, slot)) if memo_page == page => Some(slot),
            _ => self
                .scan(page)
                .inspect(|&slot| self.memo = Some((page, slot))),
        };
        match slot {
            Some(slot) => {
                self.stats.hits += 1;
                let entry = &mut self.entries[slot];
                debug_assert_eq!(entry.page, page);
                entry.stamp = stamp;
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Index of the first way of `page`'s set that caches it: the model's
    /// lookup, which the memo stands in for.
    fn scan(&self, page: PageId) -> Option<usize> {
        if page.0 == EMPTY {
            return None;
        }
        let range = self.set_range(page);
        self.tags[range.clone()]
            .iter()
            .position(|&tag| tag == page.0)
            .map(|way| range.start + way)
    }

    /// Checks whether `page` is cached without affecting stats or LRU order.
    pub fn peek(&self, page: PageId) -> Option<TlbEntry> {
        self.scan(page).map(|slot| self.entries[slot])
    }

    /// Inserts a translation for `page` from its PTE flags, evicting the
    /// least-recently-used entry in the set if necessary.
    ///
    /// # Panics
    ///
    /// Panics if `page` is `PageId(u64::MAX)`, which no address space can
    /// map.
    pub fn fill(&mut self, page: PageId, flags: PteFlags) {
        assert_ne!(page.0, EMPTY, "{page} cannot be cached");
        let range = self.set_range(page);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let entry = TlbEntry {
            page,
            writable: flags.is_writable(),
            dirty: flags.is_dirty(),
            shadow: flags.is_shadow_dirty(),
            stamp,
        };
        // Prefer an empty way; otherwise evict the LRU way.
        let tags = &self.tags[range.clone()];
        let way = tags
            .iter()
            .position(|&tag| tag == EMPTY)
            .unwrap_or_else(|| {
                let lru = self.entries[range.clone()]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp);
                lru.expect("ways > 0").0
            });
        self.tags[range.start + way] = page.0;
        self.entries[range.start + way] = entry;
        // Whatever the memo named may just have been evicted. Repoint it
        // at this page, through a scan: filling a page that is already
        // cached leaves two copies, and a lookup stops at the first.
        self.memo = self.scan(page).map(|slot| (page, slot));
    }

    /// Invalidates the entry for `page`, if cached. Required after any PTE
    /// permission change (the paper's kernel module does this per page).
    pub fn invalidate(&mut self, page: PageId) {
        self.stats.invalidations += 1;
        if self.memo.is_some_and(|(memo_page, _)| memo_page == page) {
            self.memo = None;
        }
        let range = self.set_range(page);
        for tag in &mut self.tags[range] {
            if *tag == page.0 {
                *tag = EMPTY;
            }
        }
    }

    /// Flushes every entry (the full shootdown the epoch walker performs).
    pub fn flush(&mut self) {
        self.stats.flushes += 1;
        self.tags.fill(EMPTY);
        self.memo = None;
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_rw() -> PteFlags {
        PteFlags::present().with_writable(true)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new(8, 2);
        assert!(tlb.lookup(PageId(5)).is_none());
        tlb.fill(PageId(5), flags_rw());
        assert!(tlb.lookup(PageId(5)).is_some());
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest_in_set() {
        // 1 set, 2 ways: pages all map to the same set.
        let mut tlb = Tlb::new(1, 2);
        tlb.fill(PageId(1), flags_rw());
        tlb.fill(PageId(2), flags_rw());
        // Touch page 1 so page 2 becomes LRU.
        assert!(tlb.lookup(PageId(1)).is_some());
        tlb.fill(PageId(3), flags_rw());
        assert!(
            tlb.peek(PageId(1)).is_some(),
            "recently used entry survived"
        );
        assert!(tlb.peek(PageId(2)).is_none(), "LRU entry evicted");
        assert!(tlb.peek(PageId(3)).is_some());
    }

    #[test]
    fn flush_empties_everything() {
        let mut tlb = Tlb::new(4, 2);
        for i in 0..8 {
            tlb.fill(PageId(i), flags_rw());
        }
        assert!(tlb.occupancy() > 0);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    fn invalidate_removes_only_target() {
        let mut tlb = Tlb::new(1, 4);
        for i in 0..3 {
            tlb.fill(PageId(i), flags_rw());
        }
        tlb.invalidate(PageId(1));
        assert!(tlb.peek(PageId(0)).is_some());
        assert!(tlb.peek(PageId(1)).is_none());
        assert!(tlb.peek(PageId(2)).is_some());
    }

    #[test]
    fn cached_dirty_bit_is_mutable_through_lookup() {
        let mut tlb = Tlb::new(2, 1);
        tlb.fill(PageId(0), flags_rw());
        assert!(!tlb.lookup(PageId(0)).unwrap().dirty);
        tlb.lookup(PageId(0)).unwrap().dirty = true;
        assert!(tlb.peek(PageId(0)).unwrap().dirty);
    }

    #[test]
    fn pages_map_to_distinct_sets() {
        let mut tlb = Tlb::new(4, 1);
        // Pages 0..4 map to sets 0..4; all fit despite 1 way per set.
        for i in 0..4 {
            tlb.fill(PageId(i), flags_rw());
        }
        assert_eq!(tlb.occupancy(), 4);
    }

    #[test]
    fn the_empty_tag_matches_no_page() {
        let mut tlb = Tlb::new(2, 2);
        tlb.fill(PageId(u64::MAX - 1), flags_rw());
        tlb.fill(PageId(1), flags_rw());
        // Two ways still carry the empty tag, and after the flush all do.
        for _ in 0..2 {
            assert!(tlb.peek(PageId(u64::MAX)).is_none());
            assert!(tlb.lookup(PageId(u64::MAX)).is_none());
            tlb.invalidate(PageId(u64::MAX));
            tlb.flush();
        }
        assert_eq!(tlb.stats().hits, 0);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot be cached")]
    fn filling_the_empty_tag_panics() {
        Tlb::new(2, 2).fill(PageId(u64::MAX), flags_rw());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = Tlb::new(3, 1);
    }
}
