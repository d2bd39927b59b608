//! Copy-out target selection (§5.2).
//!
//! Viyojit chooses flush victims with a *least recently updated* policy:
//! the write-only analogue of LRU, justified by the observation that
//! NV-DRAM always retains a readable copy of every page, so only write
//! recency matters.
//!
//! The policy runs on one index, [`VictimSelector`]: a lazy-deletion queue
//! of `(key, page)` entries kept in ascending order. The epoch walk re-keys
//! every page it finds updated, far more often than a victim is picked, so
//! a re-key only appends; stale entries are dropped when they reach the
//! front.
//!
//! Appending is exact, not approximate: the key,
//! [`UpdateHistory::last_touch_seq`], is a stamp drawn from one counter
//! that only grows, and both engine callers stamp the page before they
//! index it — so every key they hand in is the largest the queue has seen
//! and the back *is* its sorted position. Nothing relies on that: a page indexed
//! without a fresh stamp (re-dirtied under a key it held before) is
//! inserted where it sorts, which costs a shift of the shorter side of the
//! queue — `O(n)` — instead of `O(1)`.

use std::collections::VecDeque;

use mem_sim::{PageId, PageVec};

use crate::UpdateHistory;

/// The victim-selection policy the proactive copier uses: the paper's,
/// and the only one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TargetPolicy {
    /// Copy out the page whose last observed update is oldest.
    #[default]
    LeastRecentlyUpdated,
}

/// Stale queue entries tolerated beyond one per live page before the queue
/// is rebuilt from its live entries; large enough that a small index
/// never rebuilds.
const STALE_SLACK: usize = 64;

/// An ordered index over flushable (dirty, not in-flight) pages.
///
/// The index keeps one `u64` sort key per page and a *lazy-deletion* queue
/// of `(key, page)` entries in ascending order. `key_of[page]` is the
/// truth: a queue entry is live iff it carries its page's current key.
/// Indexing and re-keying a page add an entry at its sorted position — the
/// back, `O(1)`, whenever keys arrive in order, as the engine hands them in
/// (see the module docs) — without searching for the old one; removing a
/// page only forgets its key (`O(1)`); [`VictimSelector::peek`] discards
/// stale entries as they reach the front, so each entry added pays for at
/// most one later pop. The victim is the minimum live `(key, page)` — the
/// sequence an ordered set of the same tuples would give, under every call
/// sequence. Memory
/// stays proportional to the live population: once the queue holds more
/// than `2 * len() + 64` entries its stale ones are dropped in one pass.
///
/// # Examples
///
/// ```
/// use mem_sim::PageId;
/// use viyojit::{TargetPolicy, UpdateHistory, VictimSelector};
///
/// let mut h = UpdateHistory::new(4, 64);
/// let mut sel = VictimSelector::new(4, TargetPolicy::LeastRecentlyUpdated, 1);
/// h.touch(PageId(0));
/// sel.on_dirty(PageId(0), &h);
/// h.advance_epoch();
/// h.touch(PageId(1));
/// sel.on_dirty(PageId(1), &h);
/// // Page 0 was updated longest ago.
/// assert_eq!(sel.peek(), Some(PageId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct VictimSelector {
    /// Ascending by `(key, page)`, stale entries included.
    queue: VecDeque<(u64, PageId)>,
    key_of: PageVec<Option<u64>>,
    /// Pages with a key, i.e. live queue entries up to duplicates.
    live: usize,
}

impl VictimSelector {
    /// Creates a selector over `pages` pages. `_policy` has one value and
    /// `_seed` is ignored.
    pub fn new(pages: usize, _policy: TargetPolicy, _seed: u64) -> Self {
        VictimSelector {
            queue: VecDeque::new(),
            key_of: PageVec::new(pages, None),
            live: 0,
        }
    }

    /// Number of candidate pages currently indexed.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no candidates are indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Gives `page` the key `key` and queues its entry where it sorts;
    /// whatever entry carried the page's previous key is stale from here
    /// on.
    fn push(&mut self, page: PageId, key: u64) {
        *self.key_of.get_mut(page) = Some(key);
        let entry = (key, page);
        if self.queue.back().is_none_or(|&back| back <= entry) {
            self.queue.push_back(entry);
        } else {
            let at = self.queue.partition_point(|&queued| queued <= entry);
            self.queue.insert(at, entry);
        }
        self.bound_queue();
    }

    fn is_live(&self, key: u64, page: PageId) -> bool {
        self.key_of.get(page) == Some(key)
    }

    /// Keeps the queue within `2 * len() + 64` entries by dropping every
    /// entry but the live ones, one per indexed page (a page re-indexed
    /// under a key it held before can have left copies). That leaves
    /// `len()` entries, so the next pass is at least `len() / 2 + 32`
    /// additions or removals away and its linear cost amortises to `O(1)`
    /// per operation. `retain` keeps the survivors in order.
    fn bound_queue(&mut self) {
        if self.queue.len() <= 2 * self.live + STALE_SLACK {
            return;
        }
        // A page's key slot doubles as its seen mark: the first live entry
        // of a page takes the key out, so a later copy of that entry reads
        // as stale. Every kept entry then puts its key back.
        let key_of = &mut self.key_of;
        self.queue.retain(|&(key, page)| {
            let slot = key_of.get_mut(page);
            let first_live = *slot == Some(key);
            if first_live {
                *slot = None;
            }
            first_live
        });
        for &(key, page) in &self.queue {
            *key_of.get_mut(page) = Some(key);
        }
        debug_assert_eq!(self.queue.len(), self.live);
    }

    /// Indexes a page that just became flushable (entered the `Dirty`
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if the page is already indexed.
    pub fn on_dirty(&mut self, page: PageId, history: &UpdateHistory) {
        assert!(
            self.key_of.get(page).is_none(),
            "{page} indexed twice by the victim selector"
        );
        self.live += 1;
        self.push(page, history.last_touch_seq(page));
    }

    /// Re-keys a page after the epoch walker observed a fresh update.
    /// No-op if the page is not indexed.
    pub fn on_touch(&mut self, page: PageId, history: &UpdateHistory) {
        let Some(old_key) = self.key_of.get(page) else {
            return;
        };
        let key = history.last_touch_seq(page);
        if key != old_key {
            self.push(page, key);
        }
    }

    /// Removes a page from the index (flush issued, or page unmapped).
    /// No-op if the page is not indexed.
    pub fn on_removed(&mut self, page: PageId) {
        if self.key_of.get(page).is_some() {
            *self.key_of.get_mut(page) = None;
            self.live -= 1;
            self.bound_queue();
        }
    }

    /// The current best victim without removing it. Takes `&mut self` to
    /// discard the stale entries in front of it.
    pub fn peek(&mut self) -> Option<PageId> {
        while let Some(&(key, page)) = self.queue.front() {
            if self.is_live(key, page) {
                return Some(page);
            }
            self.queue.pop_front();
        }
        None
    }

    /// Clears the index (recovery).
    pub fn reset(&mut self) {
        self.queue.clear();
        self.key_of.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use propcheck::{check, int, vec_of, weighted};
    use sim_clock::SplitMix64;

    use super::*;

    fn lru_setup() -> (UpdateHistory, VictimSelector) {
        (
            UpdateHistory::new(8, 64),
            VictimSelector::new(8, TargetPolicy::LeastRecentlyUpdated, 42),
        )
    }

    #[test]
    fn lru_prefers_oldest_update() {
        let (mut h, mut s) = lru_setup();
        for i in 0..3u64 {
            h.touch(PageId(i));
            s.on_dirty(PageId(i), &h);
            h.advance_epoch();
        }
        assert_eq!(s.peek(), Some(PageId(0)));
        // Touching page 0 again makes page 1 the oldest.
        h.touch(PageId(0));
        s.on_touch(PageId(0), &h);
        assert_eq!(s.peek(), Some(PageId(1)));
    }

    #[test]
    fn removed_pages_stop_being_candidates() {
        let (mut h, mut s) = lru_setup();
        h.touch(PageId(0));
        s.on_dirty(PageId(0), &h);
        h.touch(PageId(1));
        s.on_dirty(PageId(1), &h);
        s.on_removed(PageId(0));
        assert_eq!(s.peek(), Some(PageId(1)));
        s.on_removed(PageId(1));
        assert!(s.peek().is_none());
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "indexed twice")]
    fn double_indexing_panics() {
        let (h, mut s) = lru_setup();
        s.on_dirty(PageId(0), &h);
        s.on_dirty(PageId(0), &h);
    }

    #[test]
    fn on_touch_of_unindexed_page_is_a_no_op() {
        let (mut h, mut s) = lru_setup();
        h.touch(PageId(5));
        s.on_touch(PageId(5), &h);
        assert!(s.is_empty());
    }

    /// The ordered-set index the lazy queue replaced, kept as the oracle:
    /// every operation searches and moves the page's one `(key, page)`
    /// entry, so its first entry is by construction the live minimum. Its
    /// `key_of` covers every page from the start, the reference for the
    /// selector's, which holds keys only up to the highest page indexed.
    struct OrderedModel {
        ordered: BTreeSet<(u64, PageId)>,
        key_of: Vec<Option<u64>>,
    }

    impl OrderedModel {
        fn new(pages: usize) -> Self {
            OrderedModel {
                ordered: BTreeSet::new(),
                key_of: vec![None; pages],
            }
        }

        fn on_dirty(&mut self, page: PageId, history: &UpdateHistory) {
            let key = history.last_touch_seq(page);
            self.ordered.insert((key, page));
            self.key_of[page.index()] = Some(key);
        }

        fn on_touch(&mut self, page: PageId, history: &UpdateHistory) {
            if let Some(old_key) = self.key_of[page.index()] {
                self.ordered.remove(&(old_key, page));
                self.on_dirty(page, history);
            }
        }

        fn on_removed(&mut self, page: PageId) {
            if let Some(key) = self.key_of[page.index()].take() {
                self.ordered.remove(&(key, page));
            }
        }

        fn reset(&mut self) {
            self.ordered.clear();
            self.key_of.fill(None);
        }
    }

    #[derive(Debug)]
    enum Op {
        /// Index the page if it is not indexed; `observe` stamps the
        /// history first, as the fault handler does — without it the page
        /// comes back under a key it may have held before.
        Dirty {
            page: u64,
            observe: bool,
        },
        Touch {
            page: u64,
            observe: bool,
        },
        Removed {
            page: u64,
        },
        /// Flush the current victim, as the copier does.
        Evict,
        AdvanceEpoch,
        Reset,
    }

    /// Few pages, long runs, and re-keys far outnumbering evictions (as on
    /// a read-mostly workload), so that stale entries pile up behind a cold
    /// victim and cross the rebuild bound several times per case.
    const PROP_PAGES: u64 = 16;

    fn gen_op(rng: &mut SplitMix64) -> Op {
        match weighted(rng, &[60, 300, 10, 3, 20, 1]) {
            0 => Op::Dirty {
                page: int(rng, 0..PROP_PAGES),
                observe: rng.chance(0.5),
            },
            1 => Op::Touch {
                page: int(rng, 0..PROP_PAGES),
                observe: rng.chance(0.5),
            },
            2 => Op::Removed {
                page: int(rng, 0..PROP_PAGES),
            },
            3 => Op::Evict,
            4 => Op::AdvanceEpoch,
            _ => Op::Reset,
        }
    }

    /// Replays `ops` on the lazy queue and on the ordered set: the same
    /// victim after every step, `len()` the live count, and a queue that
    /// never outgrows `2 * len() + 64` entries. Returns how many entries
    /// had to be inserted in front of a larger one.
    fn replay(ops: &[Op]) -> usize {
        let pages = PROP_PAGES as usize;
        let mut history = UpdateHistory::new(pages, 8);
        let mut lazy = VictimSelector::new(pages, TargetPolicy::LeastRecentlyUpdated, 0);
        let mut model = OrderedModel::new(pages);
        let mut out_of_order = 0;
        for op in ops {
            // The entry an index or a re-key adds is out of order if it
            // sorts before what was the back of the queue.
            let back = lazy.queue.back().copied();
            let keyed = match *op {
                Op::Dirty { page, .. } | Op::Touch { page, .. } => Some(PageId(page)),
                _ => None,
            };
            let old_key = keyed.and_then(|page| lazy.key_of.get(page));
            match *op {
                Op::Dirty { page, observe } => {
                    let page = PageId(page);
                    if model.key_of[page.index()].is_none() {
                        if observe {
                            history.touch(page);
                        }
                        lazy.on_dirty(page, &history);
                        model.on_dirty(page, &history);
                    }
                }
                Op::Touch { page, observe } => {
                    let page = PageId(page);
                    if observe {
                        history.touch(page);
                    }
                    lazy.on_touch(page, &history);
                    model.on_touch(page, &history);
                }
                Op::Removed { page } => {
                    lazy.on_removed(PageId(page));
                    model.on_removed(PageId(page));
                }
                Op::Evict => {
                    if let Some(victim) = lazy.peek() {
                        lazy.on_removed(victim);
                        model.on_removed(victim);
                    }
                }
                Op::AdvanceEpoch => history.advance_epoch(),
                Op::Reset => {
                    lazy.reset();
                    model.reset();
                }
            }
            if let Some(page) = keyed {
                let key = lazy.key_of.get(page);
                let behind = key.zip(back).is_some_and(|(key, back)| (key, page) < back);
                out_of_order += usize::from(key != old_key && behind);
            }
            // Peek a copy: only `Evict` lets the selector under test shed
            // stale entries, as in the engine, where many re-keys pass
            // between two victim picks.
            assert_eq!(
                lazy.clone().peek(),
                model.ordered.first().map(|&(_, p)| p),
                "victims diverged after {op:?}"
            );
            assert_eq!(lazy.len(), model.ordered.len());
            for (i, &key) in model.key_of.iter().enumerate() {
                assert_eq!(
                    lazy.key_of.get(PageId(i as u64)),
                    key,
                    "page {i} after {op:?}"
                );
            }
            assert_eq!(lazy.is_empty(), model.ordered.is_empty());
            assert!(
                lazy.queue.len() <= 2 * lazy.len() + STALE_SLACK,
                "{} queue entries for {} live pages",
                lazy.queue.len(),
                lazy.len()
            );
        }
        out_of_order
    }

    const PROP_CASES: u32 = 48;

    /// The lazy queue against the ordered set under random
    /// index/re-key/remove/evict/reset sequences. It must not only agree
    /// but be *tested off its fast path*: an unobserved `Dirty` brings a
    /// page back under a key older than the queue's back, and half of the
    /// cases at least must have done that.
    #[test]
    fn lazy_queue_matches_an_ordered_set() {
        let mut cases_out_of_order = 0u32;
        check("lazy_queue_matches_an_ordered_set", PROP_CASES, |rng| {
            let mut ops = vec_of(rng, 1..1500, gen_op);
            // In a third of the cases the highest page is indexed first,
            // so the selector's keys cover every page from the first op.
            if rng.chance(1.0 / 3.0) {
                let page = PROP_PAGES - 1;
                ops.insert(
                    0,
                    Op::Dirty {
                        page,
                        observe: true,
                    },
                );
            }
            cases_out_of_order += u32::from(replay(&ops) > 0);
        });
        // One replayed case owes only the agreement, not the sweep's share.
        assert!(
            cases_out_of_order >= PROP_CASES / 2 || propcheck::replayed_seed().is_some(),
            "only {cases_out_of_order} of {PROP_CASES} cases queued a key out of order: \
             the sorted insert went untested"
        );
    }
}
