//! The dirty set: the synchronous, exact view of which NV-DRAM pages are
//! inconsistent with the backing SSD (§4.1).
//!
//! The paper rejects periodic counting because the dirty population can
//! overshoot the budget between samples; Viyojit instead maintains a
//! *synchronous* running count, incremented in the write-fault handler the
//! instant a page is first dirtied and decremented when its flush to the
//! SSD completes. `DirtySet` is that structure, plus the in-flight
//! bookkeeping the flusher needs. The engine keeps exactly one per
//! NV-DRAM space, whichever backend observes the writes.
//!
//! The per-page states are stored as two [`Bitmap2L`]s — one for `Dirty`,
//! one for `InFlight`; a page in neither is `Clean` — so iterating the
//! dirty population is O(dirty), not O(DRAM), and the invariant recount is
//! a word-level popcount pass over the set bits only.

use mem_sim::{Bitmap2L, PageId};

use crate::InvariantViolation;

/// Lifecycle state of a page as seen by the dirty tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Identical to its SSD copy (or never written); write-protected
    /// under the software walk.
    Clean,
    /// Dirty and writable; counted against the budget.
    Dirty,
    /// Dirty, re-protected, with a flush IO in flight; still counted
    /// against the budget until the IO completes (the data is not durable
    /// yet).
    InFlight,
}

/// Exact dirty-page accounting for one NV-DRAM space.
///
/// # Examples
///
/// ```
/// use mem_sim::PageId;
/// use viyojit::{DirtySet, PageState};
///
/// let mut set = DirtySet::new(8);
/// set.mark_dirty(PageId(3));
/// assert_eq!(set.state(PageId(3)), PageState::Dirty);
/// assert_eq!(set.dirty_count(), 1);
/// set.mark_in_flight(PageId(3));
/// assert_eq!(set.dirty_count(), 1, "in-flight pages still count");
/// set.mark_clean(PageId(3));
/// assert_eq!(set.dirty_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct DirtySet {
    /// Pages in the `Dirty` state. Disjoint from `in_flight`.
    dirty: Bitmap2L,
    /// Pages in the `InFlight` state. Disjoint from `dirty`.
    in_flight: Bitmap2L,
    dirty_count: u64,
    in_flight_count: u64,
}

impl DirtySet {
    /// Creates a tracker over `pages` clean pages.
    pub fn new(pages: usize) -> Self {
        DirtySet {
            dirty: Bitmap2L::new(pages),
            in_flight: Bitmap2L::new(pages),
            dirty_count: 0,
            in_flight_count: 0,
        }
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// `true` if the tracker covers no pages.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// The state of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn state(&self, page: PageId) -> PageState {
        if self.dirty.test(page.index()) {
            PageState::Dirty
        } else if self.in_flight.test(page.index()) {
            PageState::InFlight
        } else {
            PageState::Clean
        }
    }

    /// Pages currently counted against the budget (dirty + in-flight).
    pub fn dirty_count(&self) -> u64 {
        self.dirty_count
    }

    /// Pages with a flush IO in flight.
    pub fn in_flight_count(&self) -> u64 {
        self.in_flight_count
    }

    /// Marks a clean page dirty (fault-handler step 4 of Fig. 6).
    ///
    /// The state check is fused into the bit operations — `set`'s return
    /// value already says whether the page was dirty, so the fault path
    /// pays two word accesses instead of the four a separate `state()`
    /// probe cost.
    ///
    /// # Panics
    ///
    /// Panics if the page is not clean: the fault handler only runs on
    /// write-protected pages, and dirty pages are never protected.
    #[inline]
    pub fn mark_dirty(&mut self, page: PageId) {
        let i = page.index();
        let was_clean = self.dirty.set(i) && !self.in_flight.test(i);
        assert!(was_clean, "page {page} dirtied twice");
        self.dirty_count += 1;
    }

    /// Marks a dirty page as having a flush in flight (Fig. 6 step 6: the
    /// page has just been re-protected and its IO submitted).
    ///
    /// # Panics
    ///
    /// Panics if the page is not in the `Dirty` state.
    #[inline]
    pub fn mark_in_flight(&mut self, page: PageId) {
        let i = page.index();
        assert!(self.dirty.clear(i), "only dirty pages can be flushed");
        self.in_flight.set(i);
        self.in_flight_count += 1;
    }

    /// Marks an in-flight page clean (its flush IO completed; the budget
    /// slot is released).
    ///
    /// # Panics
    ///
    /// Panics if the page is not in the `InFlight` state.
    #[inline]
    pub fn mark_clean(&mut self, page: PageId) {
        let i = page.index();
        assert!(self.in_flight.clear(i), "only in-flight pages complete");
        self.dirty_count -= 1;
        self.in_flight_count -= 1;
    }

    /// Discards a dirty page without flushing it (its mapping is going
    /// away, so its contents no longer need durability). Releases the
    /// budget slot.
    ///
    /// # Panics
    ///
    /// Panics if the page is not in the `Dirty` state.
    #[inline]
    pub fn discard_dirty(&mut self, page: PageId) {
        let i = page.index();
        assert!(self.dirty.clear(i), "only dirty pages can be discarded");
        self.dirty_count -= 1;
    }

    /// Iterates over pages in the `Dirty` state (flushable victims), in
    /// ascending order, skipping clean space word-by-word.
    pub fn iter_dirty(&self) -> impl Iterator<Item = PageId> + '_ {
        self.dirty.iter_ones().map(|i| PageId(i as u64))
    }

    /// Appends the `Dirty`-state pages to `out` in ascending order — the
    /// eager, density-dispatched walk behind [`DirtySet::iter_dirty`].
    pub fn collect_dirty_into(&self, out: &mut Vec<PageId>) {
        self.dirty.collect_into_map(out, |i| PageId(i as u64));
    }

    /// The `Dirty`-state pages as a bitmap, for word-level scans.
    pub fn dirty_bits(&self) -> &Bitmap2L {
        &self.dirty
    }

    /// The `InFlight`-state pages as a bitmap, for word-level scans.
    pub fn in_flight_bits(&self) -> &Bitmap2L {
        &self.in_flight
    }

    /// Resets every page to `Clean` and both counters to zero (recovery
    /// re-establishes the startup state). O(words).
    pub fn reset(&mut self) {
        self.dirty.clear_all();
        self.in_flight.clear_all();
        self.dirty_count = 0;
        self.in_flight_count = 0;
    }

    /// Checks internal consistency: the running counters must match a
    /// recount of the per-page states, and no page may be both dirty and
    /// in-flight. One word-level pass over the set bits of both bitmaps —
    /// the two full-vector scans this used to take are gone.
    ///
    /// # Errors
    ///
    /// [`InvariantViolation::CounterOutOfSync`] naming the counter that
    /// drifted.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let mut dirty_only = 0u64;
        let mut in_flight = 0u64;
        let mut overlap = 0u64;
        self.dirty.for_each_word_union(&self.in_flight, |_, d, f| {
            dirty_only += u64::from(d.count_ones());
            in_flight += u64::from(f.count_ones());
            overlap += u64::from((d & f).count_ones());
        });
        // A page in both bitmaps would read as `Dirty` through `state()`,
        // silently hiding an in-flight IO: surface it as an in-flight
        // counter recount mismatch.
        let counted_dirty = dirty_only + in_flight - overlap;
        if counted_dirty != self.dirty_count || self.dirty.count() as u64 != dirty_only {
            return Err(InvariantViolation::CounterOutOfSync {
                counter: "dirty",
                counted: counted_dirty,
                recorded: self.dirty_count,
            });
        }
        if in_flight != self.in_flight_count || overlap != 0 {
            return Err(InvariantViolation::CounterOutOfSync {
                counter: "in-flight",
                counted: in_flight - overlap,
                recorded: self.in_flight_count,
            });
        }
        Ok(())
    }

    /// Panicking wrapper over [`DirtySet::check_invariants`] for tests.
    ///
    /// # Panics
    ///
    /// Panics with the violation's `Display` text on any inconsistency.
    pub fn validate(&self) {
        if let Err(violation) = self.check_invariants() {
            panic!("{violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_clean_dirty_inflight_clean() {
        let mut s = DirtySet::new(2);
        assert_eq!(s.state(PageId(0)), PageState::Clean);
        s.mark_dirty(PageId(0));
        assert_eq!(s.state(PageId(0)), PageState::Dirty);
        s.mark_in_flight(PageId(0));
        assert_eq!(s.state(PageId(0)), PageState::InFlight);
        assert_eq!(s.in_flight_count(), 1);
        s.mark_clean(PageId(0));
        assert_eq!(s.state(PageId(0)), PageState::Clean);
        assert_eq!(s.dirty_count(), 0);
        s.validate();
    }

    #[test]
    fn count_includes_in_flight_pages() {
        // Durability requires counting in-flight pages: their bytes are not
        // durable until the IO completes.
        let mut s = DirtySet::new(4);
        s.mark_dirty(PageId(0));
        s.mark_dirty(PageId(1));
        s.mark_in_flight(PageId(0));
        assert_eq!(s.dirty_count(), 2);
    }

    #[test]
    fn iter_dirty_excludes_in_flight() {
        let mut s = DirtySet::new(4);
        s.mark_dirty(PageId(0));
        s.mark_dirty(PageId(2));
        s.mark_in_flight(PageId(0));
        assert_eq!(s.iter_dirty().collect::<Vec<_>>(), vec![PageId(2)]);
    }

    #[test]
    #[should_panic(expected = "dirtied twice")]
    fn double_dirty_panics() {
        let mut s = DirtySet::new(1);
        s.mark_dirty(PageId(0));
        s.mark_dirty(PageId(0));
    }

    #[test]
    #[should_panic(expected = "only dirty pages")]
    fn flushing_clean_page_panics() {
        let mut s = DirtySet::new(1);
        s.mark_in_flight(PageId(0));
    }

    #[test]
    #[should_panic(expected = "only in-flight pages")]
    fn completing_non_inflight_page_panics() {
        let mut s = DirtySet::new(1);
        s.mark_dirty(PageId(0));
        s.mark_clean(PageId(0));
    }

    #[test]
    fn iteration_spans_word_boundaries() {
        let mut s = DirtySet::new(200);
        for i in [63u64, 64, 130] {
            s.mark_dirty(PageId(i));
        }
        s.mark_in_flight(PageId(64));
        assert_eq!(
            s.iter_dirty().collect::<Vec<_>>(),
            vec![PageId(63), PageId(130)]
        );
        s.validate();
    }

    #[test]
    fn collect_spans_full_sparse_and_empty_stretches() {
        // Pages 0..512 all counted (dirty and in-flight interleaved, so
        // every Dirty word is dense), 512..1024 sparse, the rest empty.
        let mut s = DirtySet::new(3 * 512);
        for i in 0..512u64 {
            s.mark_dirty(PageId(i));
        }
        for i in 0..128u64 {
            s.mark_in_flight(PageId(i * 4));
        }
        for i in (512..1024u64).step_by(17) {
            s.mark_dirty(PageId(i));
        }
        let mut dirty = Vec::new();
        s.collect_dirty_into(&mut dirty);
        assert_eq!(dirty, s.iter_dirty().collect::<Vec<_>>());
        let want: Vec<PageId> = (0..512u64)
            .filter(|i| i % 4 != 0)
            .chain((512..1024u64).step_by(17))
            .map(PageId)
            .collect();
        assert_eq!(dirty, want);
        s.validate();
    }

    #[test]
    fn reset_returns_to_startup_state() {
        let mut s = DirtySet::new(100);
        s.mark_dirty(PageId(7));
        s.mark_dirty(PageId(99));
        s.mark_in_flight(PageId(7));
        s.reset();
        assert_eq!(s.dirty_count(), 0);
        assert_eq!(s.in_flight_count(), 0);
        assert_eq!(s.state(PageId(7)), PageState::Clean);
        s.validate();
    }
}
