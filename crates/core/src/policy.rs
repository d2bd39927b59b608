//! Copy-out target selection (§5.2).
//!
//! Viyojit chooses flush victims with a *least recently updated* policy:
//! the write-only analogue of LRU, justified by the observation that
//! NV-DRAM always retains a readable copy of every page, so only write
//! recency matters. This module implements that policy plus three
//! alternatives used by the ablation benches: least *frequently* updated
//! (popularity within the 64-epoch history window), FIFO (dirtied order),
//! and seeded-random.
//!
//! All four run on one index, [`VictimSelector`]: a lazy-deletion min-heap
//! over per-page sort keys. The epoch walk re-keys every page it finds
//! updated, far more often than a victim is picked, so a re-key only
//! pushes; stale entries are dropped when they reach the top.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mem_sim::PageId;
use sim_clock::SplitMix64;

use crate::UpdateHistory;

/// Which victim-selection policy the proactive copier uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TargetPolicy {
    /// Copy out the page whose last observed update is oldest (the paper's
    /// policy).
    #[default]
    LeastRecentlyUpdated,
    /// Copy out the page updated in the fewest epochs of the retained
    /// history window, breaking ties by recency.
    LeastFrequentlyUpdated,
    /// Copy out pages in the order they were dirtied.
    Fifo,
    /// Copy out a pseudo-random dirty page (deterministic, seeded).
    Random,
}

/// Stale heap entries tolerated beyond one per live page before the heap
/// is rebuilt from its live entries; large enough that a small index
/// never rebuilds.
const STALE_SLACK: usize = 64;

/// An ordered index over flushable (dirty, not in-flight) pages.
///
/// The index keeps one `u64` sort key per page and a *lazy-deletion*
/// min-heap of `(key, page)` entries. `key_of[page]` is the truth: a heap
/// entry is live iff it carries its page's current key. Indexing and
/// re-keying a page push an entry (`O(log n)`, no search for the old one);
/// removing a page only forgets its key (`O(1)`); [`VictimSelector::peek`]
/// discards stale entries as they surface, so each push pays for at most
/// one later pop. The victim is the minimum live `(key, page)` — the
/// sequence an ordered set of the same tuples would give, under every
/// policy. Memory stays proportional to the live population: once the heap
/// holds more than `2 * len() + 64` entries it is rebuilt from the live
/// ones.
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
    policy: TargetPolicy,
    heap: BinaryHeap<Reverse<(u64, PageId)>>,
    key_of: Vec<Option<u64>>,
    /// Pages with a key, i.e. live heap entries up to duplicates.
    live: usize,
    fifo_seq: u64,
    rng: SplitMix64,
}

impl VictimSelector {
    /// Creates a selector over `pages` pages with the given policy. `seed`
    /// only affects [`TargetPolicy::Random`].
    pub fn new(pages: usize, policy: TargetPolicy, seed: u64) -> Self {
        VictimSelector {
            policy,
            heap: BinaryHeap::new(),
            key_of: vec![None; pages],
            live: 0,
            fifo_seq: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> TargetPolicy {
        self.policy
    }

    /// Number of candidate pages currently indexed.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no candidates are indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn key(&mut self, page: PageId, history: &UpdateHistory) -> u64 {
        match self.policy {
            TargetPolicy::LeastRecentlyUpdated => history.last_touch_seq(page),
            TargetPolicy::LeastFrequentlyUpdated => {
                let popularity = history.update_count(page) as u64;
                let recency = history.last_touch_seq(page) & ((1 << 56) - 1);
                (popularity << 56) | recency
            }
            TargetPolicy::Fifo => {
                self.fifo_seq += 1;
                self.fifo_seq
            }
            TargetPolicy::Random => self.rng.next_u64(),
        }
    }

    /// Gives `page` the key `key` and pushes its heap entry; whatever entry
    /// carried the page's previous key is stale from here on.
    fn push(&mut self, page: PageId, key: u64) {
        self.key_of[page.index()] = Some(key);
        self.heap.push(Reverse((key, page)));
        self.bound_heap();
    }

    fn is_live(&self, key: u64, page: PageId) -> bool {
        self.key_of[page.index()] == Some(key)
    }

    /// Keeps the heap within `2 * len() + 64` entries by rebuilding it from
    /// its live ones, one per indexed page (a page re-indexed under a key
    /// it held before can have left copies). A rebuild leaves `len()`
    /// entries, so the next is at least `len() / 2 + 32` pushes or removals
    /// away and the amortised cost per operation stays `O(log n)`.
    ///
    /// The rebuild is linear: one `retain`, then a heapify. Distinct pages
    /// never tie on `(key, page)`, so the pop order cannot depend on how
    /// the entries happen to be laid out.
    fn bound_heap(&mut self) {
        if self.heap.len() <= 2 * self.live + STALE_SLACK {
            return;
        }
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        // A page's key slot doubles as its seen mark: the first live entry
        // of a page takes the key out, so a later copy of that entry reads
        // as stale. Every kept entry then puts its key back.
        let key_of = &mut self.key_of;
        entries.retain(|&Reverse((key, page))| {
            let slot = &mut key_of[page.index()];
            let first_live = *slot == Some(key);
            if first_live {
                *slot = None;
            }
            first_live
        });
        for &Reverse((key, page)) in &entries {
            key_of[page.index()] = Some(key);
        }
        debug_assert_eq!(entries.len(), self.live);
        self.heap = BinaryHeap::from(entries);
    }

    /// Indexes a page that just became flushable (entered the `Dirty`
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if the page is already indexed.
    pub fn on_dirty(&mut self, page: PageId, history: &UpdateHistory) {
        assert!(
            self.key_of[page.index()].is_none(),
            "{page} indexed twice by the victim selector"
        );
        let key = self.key(page, history);
        self.live += 1;
        self.push(page, key);
    }

    /// Re-keys a page after the epoch walker observed a fresh update.
    /// No-op for policies whose key does not depend on update history, or
    /// if the page is not indexed.
    pub fn on_touch(&mut self, page: PageId, history: &UpdateHistory) {
        let Some(old_key) = self.key_of[page.index()] else {
            return;
        };
        match self.policy {
            TargetPolicy::Fifo | TargetPolicy::Random => return,
            TargetPolicy::LeastRecentlyUpdated | TargetPolicy::LeastFrequentlyUpdated => {}
        }
        let key = self.key(page, history);
        if key != old_key {
            self.push(page, key);
        }
    }

    /// Removes a page from the index (flush issued, or page unmapped).
    /// No-op if the page is not indexed.
    pub fn on_removed(&mut self, page: PageId) {
        if self.key_of[page.index()].take().is_some() {
            self.live -= 1;
            self.bound_heap();
        }
    }

    /// The current best victim without removing it. Takes `&mut self` to
    /// discard the stale entries above it.
    pub fn peek(&mut self) -> Option<PageId> {
        while let Some(&Reverse((key, page))) = self.heap.peek() {
            if self.is_live(key, page) {
                return Some(page);
            }
            self.heap.pop();
        }
        None
    }

    /// Clears the index (recovery).
    pub fn reset(&mut self) {
        self.heap.clear();
        self.key_of.fill(None);
        self.live = 0;
        self.fifo_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

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
    fn lfu_prefers_least_popular() {
        let mut h = UpdateHistory::new(4, 64);
        let mut s = VictimSelector::new(4, TargetPolicy::LeastFrequentlyUpdated, 1);
        // Page 0: updated in 3 epochs. Page 1: updated in 1 epoch (latest).
        h.touch(PageId(0));
        h.advance_epoch();
        h.touch(PageId(0));
        h.advance_epoch();
        h.touch(PageId(0));
        h.touch(PageId(1));
        s.on_dirty(PageId(0), &h);
        s.on_dirty(PageId(1), &h);
        assert_eq!(s.peek(), Some(PageId(1)));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut h = UpdateHistory::new(4, 64);
        let mut s = VictimSelector::new(4, TargetPolicy::Fifo, 1);
        h.touch(PageId(2));
        s.on_dirty(PageId(2), &h);
        h.advance_epoch();
        h.touch(PageId(3));
        s.on_dirty(PageId(3), &h);
        // Page 2 is touched again, but FIFO still evicts it first.
        h.touch(PageId(2));
        s.on_touch(PageId(2), &h);
        assert_eq!(s.peek(), Some(PageId(2)));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let order = |seed: u64| {
            let mut h = UpdateHistory::new(8, 64);
            let mut s = VictimSelector::new(8, TargetPolicy::Random, seed);
            for i in 0..8u64 {
                h.touch(PageId(i));
                s.on_dirty(PageId(i), &h);
            }
            let mut out = Vec::new();
            while let Some(p) = s.peek() {
                out.push(p);
                s.on_removed(p);
            }
            out
        };
        assert_eq!(order(7), order(7), "same seed, same order");
        assert_ne!(order(7), order(8), "different seeds diverge");
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

    /// The ordered-set index the lazy heap replaced, kept as the oracle:
    /// every operation searches and moves the page's one `(key, page)`
    /// entry, so its first entry is by construction the live minimum.
    struct OrderedModel {
        policy: TargetPolicy,
        ordered: BTreeSet<(u64, PageId)>,
        key_of: Vec<Option<u64>>,
        fifo_seq: u64,
        rng: SplitMix64,
    }

    impl OrderedModel {
        fn new(pages: usize, policy: TargetPolicy, seed: u64) -> Self {
            OrderedModel {
                policy,
                ordered: BTreeSet::new(),
                key_of: vec![None; pages],
                fifo_seq: 0,
                rng: SplitMix64::new(seed),
            }
        }

        fn key(&mut self, page: PageId, history: &UpdateHistory) -> u64 {
            match self.policy {
                TargetPolicy::LeastRecentlyUpdated => history.last_touch_seq(page),
                TargetPolicy::LeastFrequentlyUpdated => {
                    let recency = history.last_touch_seq(page) & ((1 << 56) - 1);
                    ((history.update_count(page) as u64) << 56) | recency
                }
                TargetPolicy::Fifo => {
                    self.fifo_seq += 1;
                    self.fifo_seq
                }
                TargetPolicy::Random => self.rng.next_u64(),
            }
        }

        fn on_dirty(&mut self, page: PageId, history: &UpdateHistory) {
            let key = self.key(page, history);
            self.ordered.insert((key, page));
            self.key_of[page.index()] = Some(key);
        }

        fn on_touch(&mut self, page: PageId, history: &UpdateHistory) {
            let history_keyed = matches!(
                self.policy,
                TargetPolicy::LeastRecentlyUpdated | TargetPolicy::LeastFrequentlyUpdated
            );
            if let (Some(old_key), true) = (self.key_of[page.index()], history_keyed) {
                self.ordered.remove(&(old_key, page));
                self.on_dirty(page, history);
            }
        }

        fn on_removed(&mut self, page: PageId) {
            if let Some(key) = self.key_of[page.index()].take() {
                self.ordered.remove(&(key, page));
            }
        }

        /// Recovery restarts FIFO order but not the random stream.
        fn reset(&mut self) {
            self.ordered.clear();
            self.key_of.fill(None);
            self.fifo_seq = 0;
        }
    }

    #[derive(Debug, Clone)]
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

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            60 => (0..PROP_PAGES, any::<bool>())
                .prop_map(|(page, observe)| Op::Dirty { page, observe }),
            300 => (0..PROP_PAGES, any::<bool>())
                .prop_map(|(page, observe)| Op::Touch { page, observe }),
            10 => (0..PROP_PAGES).prop_map(|page| Op::Removed { page }),
            3 => Just(Op::Evict),
            20 => Just(Op::AdvanceEpoch),
            1 => Just(Op::Reset),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lazy heap against the ordered set under random
        /// index/re-key/remove/evict/reset sequences, for every policy: the
        /// same victim after every step, `len()` the live count, and a
        /// heap that never outgrows `2 * len() + 64` entries.
        #[test]
        fn lazy_heap_matches_an_ordered_set(
            ops in prop::collection::vec(op_strategy(), 1..1500),
            policy in prop_oneof![
                Just(TargetPolicy::LeastRecentlyUpdated),
                Just(TargetPolicy::LeastFrequentlyUpdated),
                Just(TargetPolicy::Fifo),
                Just(TargetPolicy::Random),
            ],
            seed in any::<u64>(),
        ) {
            let pages = PROP_PAGES as usize;
            let mut history = UpdateHistory::new(pages, 8);
            let mut heap = VictimSelector::new(pages, policy, seed);
            let mut model = OrderedModel::new(pages, policy, seed);
            for op in &ops {
                match *op {
                    Op::Dirty { page, observe } => {
                        let page = PageId(page);
                        if model.key_of[page.index()].is_none() {
                            if observe {
                                history.touch(page);
                            }
                            heap.on_dirty(page, &history);
                            model.on_dirty(page, &history);
                        }
                    }
                    Op::Touch { page, observe } => {
                        let page = PageId(page);
                        if observe {
                            history.touch(page);
                        }
                        heap.on_touch(page, &history);
                        model.on_touch(page, &history);
                    }
                    Op::Removed { page } => {
                        heap.on_removed(PageId(page));
                        model.on_removed(PageId(page));
                    }
                    Op::Evict => {
                        if let Some(victim) = heap.peek() {
                            heap.on_removed(victim);
                            model.on_removed(victim);
                        }
                    }
                    Op::AdvanceEpoch => history.advance_epoch(),
                    Op::Reset => {
                        heap.reset();
                        model.reset();
                    }
                }
                // Peek a copy: only `Evict` lets the selector under test
                // shed stale entries, as in the engine, where many re-keys
                // pass between two victim picks.
                prop_assert_eq!(heap.clone().peek(), model.ordered.first().map(|&(_, p)| p));
                prop_assert_eq!(heap.len(), model.ordered.len());
                prop_assert_eq!(heap.is_empty(), model.ordered.is_empty());
                prop_assert!(
                    heap.heap.len() <= 2 * heap.len() + STALE_SLACK,
                    "{} heap entries for {} live pages", heap.heap.len(), heap.len()
                );
            }
        }
    }
}
