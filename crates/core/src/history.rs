//! Per-page update recency (§5.2).
//!
//! Viyojit walks the page-table dirty bits of known-dirty pages at every
//! epoch boundary and records which pages were updated. The victim policy
//! needs only the order of the most recent observations, so this module
//! keeps two numbers per page: a stamp from one counter that only grows,
//! which orders every observation (the least-recently-updated key), and
//! the epoch of the most recent observed update, which the trace reports.

use mem_sim::{PageId, PageVec};

/// Sentinel for "never updated".
const NEVER: u64 = u64::MAX;

/// Per-page record of the most recent observed update.
///
/// # Examples
///
/// ```
/// use mem_sim::PageId;
/// use viyojit::UpdateHistory;
///
/// let mut h = UpdateHistory::new(4, 64);
/// h.touch(PageId(1));
/// h.advance_epoch();
/// h.touch(PageId(2));
/// assert_eq!(h.last_update_epoch(PageId(1)), Some(0));
/// assert_eq!(h.last_update_epoch(PageId(2)), Some(1));
/// assert!(h.last_touch_seq(PageId(1)) < h.last_touch_seq(PageId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct UpdateHistory {
    last_update: PageVec<u64>,
    /// Monotonic per-observation stamp: total order over touches, so the
    /// least-recently-updated ordering has no ties even within an epoch.
    last_seq: PageVec<u64>,
    next_seq: u64,
    epoch: u64,
}

impl UpdateHistory {
    /// Creates a history over `pages` pages. `_retain` is ignored: only
    /// the most recent update of a page is kept.
    pub fn new(pages: usize, _retain: u32) -> Self {
        UpdateHistory {
            last_update: PageVec::new(pages, NEVER),
            last_seq: PageVec::new(pages, 0),
            next_seq: 1,
            epoch: 0,
        }
    }

    /// The current epoch index.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Moves to the next epoch.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Moves `n` epochs on at once — used to fast-forward across long idle
    /// gaps.
    pub fn advance_epochs(&mut self, n: u64) {
        self.epoch += n;
    }

    /// Records that `page` was observed updated during the current epoch
    /// (by the fault handler on first dirty, or by the epoch walker for
    /// continued updates).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn touch(&mut self, page: PageId) {
        *self.last_update.get_mut(page) = self.epoch;
        *self.last_seq.get_mut(page) = self.next_seq;
        self.next_seq += 1;
    }

    /// Monotonic stamp of the most recent observed update (0 = never).
    /// Totally ordered across all pages, so it breaks intra-epoch ties in
    /// least-recently-updated selection.
    pub fn last_touch_seq(&self, page: PageId) -> u64 {
        self.last_seq.get(page)
    }

    /// Epoch of the most recent observed update, or `None` if the page was
    /// never updated within the program's lifetime.
    pub fn last_update_epoch(&self, page: PageId) -> Option<u64> {
        let e = self.last_update.get(page);
        (e != NEVER).then_some(e)
    }

    /// Resets all history (used after recovery).
    pub fn reset(&mut self) {
        self.last_update.clear();
        self.last_seq.clear();
        self.next_seq = 1;
        self.epoch = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_pages_have_no_history() {
        let h = UpdateHistory::new(2, 64);
        assert_eq!(h.last_update_epoch(PageId(0)), None);
        assert_eq!(h.last_touch_seq(PageId(0)), 0);
    }

    #[test]
    fn touch_sets_current_epoch() {
        let mut h = UpdateHistory::new(2, 64);
        h.advance_epoch();
        h.advance_epoch();
        h.touch(PageId(1));
        assert_eq!(h.last_update_epoch(PageId(1)), Some(2));
        h.advance_epochs(1_000);
        h.touch(PageId(0));
        assert_eq!(h.last_update_epoch(PageId(0)), Some(1_002));
        assert_eq!(h.last_update_epoch(PageId(1)), Some(2));
        assert!(h.last_touch_seq(PageId(1)) < h.last_touch_seq(PageId(0)));
    }

    #[test]
    fn pages_past_the_highest_touched_read_never() {
        let mut h = UpdateHistory::new(1024, 64);
        h.touch(PageId(3));
        for page in [PageId(2), PageId(4), PageId(1023)] {
            assert_eq!(h.last_update_epoch(page), None, "{page}");
            assert_eq!(h.last_touch_seq(page), 0, "{page}");
        }
        h.touch(PageId(1023));
        h.reset();
        for page in [PageId(3), PageId(1023)] {
            assert_eq!(h.last_update_epoch(page), None, "{page} after reset");
            assert_eq!(h.last_touch_seq(page), 0, "{page} after reset");
        }
        h.touch(PageId(0));
        assert_eq!(
            (h.last_update_epoch(PageId(0)), h.last_touch_seq(PageId(0))),
            (Some(0), 1)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touching_a_page_past_the_capacity_panics() {
        UpdateHistory::new(4, 64).touch(PageId(4));
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = UpdateHistory::new(2, 64);
        h.touch(PageId(0));
        h.advance_epoch();
        h.reset();
        assert_eq!(h.current_epoch(), 0);
        assert_eq!(h.last_update_epoch(PageId(0)), None);
        assert_eq!(h.last_touch_seq(PageId(0)), 0);
    }
}
