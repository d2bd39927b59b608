//! A persistent skip list ordering keys lexicographically — the ordered
//! index behind `scan`, the cross-key capability the paper lists as
//! future work ("We could not run YCSB-E because it requires cross key
//! transactions which we do not support for now. We wish to add this to
//! our NV-DRAM based Redis in the future", §6.1).
//!
//! The index lives entirely in the persistent heap: nodes carry a pointer
//! to the hash-table entry header (which never relocates — only value
//! blobs do), per-level forward pointers, and the key bytes. Levels are
//! derived deterministically from the key hash, so no RNG state needs to
//! survive power cycles.
//!
//! Like the rest of the store, crash consistency comes from battery-backed
//! DRAM semantics: a power failure flushes the whole dirty image, so
//! in-place pointer updates are safe without logging.

use std::cmp::Ordering;

use pheap::{PHeap, PPtr};
use viyojit::NvHeap;

use crate::{fnv1a_64, KvError};

/// Maximum tower height; with p = 1/4 this covers ~4^12 keys.
pub(crate) const MAX_LEVEL: usize = 12;

/// Node field offsets.
const IDX_KEY_LEN: u64 = 0; // u32, low half of the word `shape_of` reads
const IDX_LEVEL: u64 = 4; // u32, its high half
const IDX_ENTRY: u64 = 8; // u64: hash-table entry header (0 = head)
const IDX_NEXT: u64 = 16; // u64 x level
const fn key_offset(level: usize) -> u64 {
    IDX_NEXT + (level as u64) * 8
}

/// Longest stored key compared through a stack buffer.
const INLINE_KEY: usize = 64;

/// Orders the `klen` key bytes stored at byte `at` of `node` against
/// `key`. The stored key is read where it is compared — the one read of
/// `klen` bytes a caller fetching the key would issue — into a stack
/// buffer, or a heap one past [`INLINE_KEY`] bytes.
pub(crate) fn cmp_stored_key<H: NvHeap>(
    heap: &mut PHeap<H>,
    node: PPtr,
    at: u64,
    klen: usize,
    key: &[u8],
) -> Result<Ordering, KvError> {
    let mut inline = [0u8; INLINE_KEY];
    let mut spilled = Vec::new();
    let stored = match inline.get_mut(..klen) {
        Some(stored) => stored,
        None => {
            spilled.resize(klen, 0);
            &mut spilled[..]
        }
    };
    heap.read(node, at, stored)?;
    Ok((*stored).cmp(key))
}

/// Deterministic tower height for `key` (p = 1/4 per extra level).
fn level_for(key: &[u8]) -> usize {
    // A different seed than bucket hashing, so bucket and level are
    // independent.
    let h = fnv1a_64(key) ^ 0x9e37_79b9_7f4a_7c15;
    ((h.trailing_zeros() / 2) as usize + 1).min(MAX_LEVEL)
}

/// The persistent ordered index. Holds only the head pointer; all state
/// is in the heap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SkipIndex {
    head: PPtr,
}

impl SkipIndex {
    /// Allocates an empty index (one head sentinel with a full tower).
    pub(crate) fn create<H: NvHeap>(heap: &mut PHeap<H>) -> Result<Self, KvError> {
        let head = heap.alloc(key_offset(MAX_LEVEL) as usize)?;
        let mut image = vec![0u8; key_offset(MAX_LEVEL) as usize];
        image[IDX_LEVEL as usize..IDX_LEVEL as usize + 4]
            .copy_from_slice(&(MAX_LEVEL as u32).to_le_bytes());
        heap.write(head, 0, &image)?;
        Ok(SkipIndex { head })
    }

    /// Reopens an index from its persisted head pointer.
    pub(crate) fn open(head: PPtr) -> Self {
        SkipIndex { head }
    }

    /// The head pointer, for persisting in the store's meta block.
    pub(crate) fn head(&self) -> PPtr {
        self.head
    }

    fn node_u64<H: NvHeap>(heap: &mut PHeap<H>, node: PPtr, field: u64) -> Result<u64, KvError> {
        let mut buf = [0u8; 8];
        heap.read(node, field, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn next_of<H: NvHeap>(heap: &mut PHeap<H>, node: PPtr, level: usize) -> Result<u64, KvError> {
        Self::node_u64(heap, node, IDX_NEXT + (level as u64) * 8)
    }

    fn set_next<H: NvHeap>(
        heap: &mut PHeap<H>,
        node: PPtr,
        level: usize,
        to: u64,
    ) -> Result<(), KvError> {
        heap.write(node, IDX_NEXT + (level as u64) * 8, &to.to_le_bytes())?;
        Ok(())
    }

    /// `(key length, tower height)` of `node`: two `u32`s sharing one
    /// word, read in one access.
    fn shape_of<H: NvHeap>(heap: &mut PHeap<H>, node: PPtr) -> Result<(usize, usize), KvError> {
        let word = Self::node_u64(heap, node, IDX_KEY_LEN)?;
        Ok((word as u32 as usize, (word >> 32) as usize))
    }

    fn key_of<H: NvHeap>(heap: &mut PHeap<H>, node: PPtr) -> Result<Vec<u8>, KvError> {
        let (klen, level) = Self::shape_of(heap, node)?;
        let mut key = vec![0u8; klen];
        heap.read(node, key_offset(level), &mut key)?;
        Ok(key)
    }

    /// Orders `node`'s key against `key`: [`SkipIndex::key_of`]'s two
    /// reads, without its allocation.
    fn cmp_key<H: NvHeap>(
        heap: &mut PHeap<H>,
        node: PPtr,
        key: &[u8],
    ) -> Result<Ordering, KvError> {
        let (klen, level) = Self::shape_of(heap, node)?;
        cmp_stored_key(heap, node, key_offset(level), klen, key)
    }

    /// Finds the last node strictly before `key` at every level.
    fn find_predecessors<H: NvHeap>(
        &self,
        heap: &mut PHeap<H>,
        key: &[u8],
    ) -> Result<[PPtr; MAX_LEVEL], KvError> {
        let mut preds = [self.head; MAX_LEVEL];
        let mut cur = self.head;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let next = Self::next_of(heap, cur, level)?;
                if next == 0 {
                    break;
                }
                let next_ptr = PPtr::from_offset(next);
                if Self::cmp_key(heap, next_ptr, key)? == Ordering::Less {
                    cur = next_ptr;
                } else {
                    break;
                }
            }
            preds[level] = cur;
        }
        Ok(preds)
    }

    /// Inserts `key` pointing at `entry` (the hash-table header node).
    /// The caller guarantees the key is not already present.
    #[allow(clippy::needless_range_loop)] // preds and the node tower are indexed in lockstep
    pub(crate) fn insert<H: NvHeap>(
        &self,
        heap: &mut PHeap<H>,
        key: &[u8],
        entry: PPtr,
    ) -> Result<(), KvError> {
        let level = level_for(key);
        let preds = self.find_predecessors(heap, key)?;
        let node = heap.alloc(key_offset(level) as usize + key.len())?;

        let mut image = Vec::with_capacity(key_offset(level) as usize + key.len());
        image.extend_from_slice(&(key.len() as u32).to_le_bytes());
        image.extend_from_slice(&(level as u32).to_le_bytes());
        image.extend_from_slice(&entry.offset().to_le_bytes());
        for l in 0..level {
            let succ = Self::next_of(heap, preds[l], l)?;
            image.extend_from_slice(&succ.to_le_bytes());
        }
        image.extend_from_slice(key);
        heap.write(node, 0, &image)?;

        for l in 0..level {
            Self::set_next(heap, preds[l], l, node.offset())?;
        }
        Ok(())
    }

    /// Removes `key`, returning whether it was present.
    #[allow(clippy::needless_range_loop)] // preds and levels are indexed in lockstep
    pub(crate) fn remove<H: NvHeap>(
        &self,
        heap: &mut PHeap<H>,
        key: &[u8],
    ) -> Result<bool, KvError> {
        let preds = self.find_predecessors(heap, key)?;
        let candidate = Self::next_of(heap, preds[0], 0)?;
        if candidate == 0 {
            return Ok(false);
        }
        let node = PPtr::from_offset(candidate);
        if Self::cmp_key(heap, node, key)? != Ordering::Equal {
            return Ok(false);
        }
        let (_, level) = Self::shape_of(heap, node)?;
        for l in 0..level {
            if Self::next_of(heap, preds[l], l)? == node.offset() {
                let succ = Self::next_of(heap, node, l)?;
                Self::set_next(heap, preds[l], l, succ)?;
            }
        }
        heap.free(node)?;
        Ok(true)
    }

    /// Visits up to `limit` entries with keys `>= start`, in key order,
    /// yielding `(key, entry header ptr)`.
    pub(crate) fn scan_from<H: NvHeap>(
        &self,
        heap: &mut PHeap<H>,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, PPtr)>, KvError> {
        let preds = self.find_predecessors(heap, start)?;
        let mut out = Vec::with_capacity(limit.min(1024));
        let mut cur = Self::next_of(heap, preds[0], 0)?;
        while cur != 0 && out.len() < limit {
            let node = PPtr::from_offset(cur);
            let key = Self::key_of(heap, node)?;
            let entry = Self::node_u64(heap, node, IDX_ENTRY)?;
            out.push((key, PPtr::from_offset(entry)));
            cur = Self::next_of(heap, node, 0)?;
        }
        Ok(out)
    }

    /// Walks level 0 asserting order and returning the entry count (test
    /// and recovery-audit support).
    pub(crate) fn audit<H: NvHeap>(&self, heap: &mut PHeap<H>) -> Result<u64, KvError> {
        let mut count = 0u64;
        let mut prev: Option<Vec<u8>> = None;
        let mut cur = Self::next_of(heap, self.head, 0)?;
        while cur != 0 {
            let node = PPtr::from_offset(cur);
            let key = Self::key_of(heap, node)?;
            if let Some(p) = &prev {
                assert!(p < &key, "skip list out of order");
            }
            prev = Some(key);
            count += 1;
            cur = Self::next_of(heap, node, 0)?;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::{Clock, CostModel};
    use ssd_sim::SsdConfig;
    use viyojit::NvdramBaseline;

    fn heap(pages: usize) -> PHeap<NvdramBaseline> {
        let nv = NvdramBaseline::new(pages, Clock::new(), CostModel::free(), SsdConfig::instant());
        PHeap::format(nv, (pages as u64 - 2) * 4096).unwrap()
    }

    #[test]
    fn insert_and_scan_in_key_order() {
        let mut h = heap(64);
        let idx = SkipIndex::create(&mut h).unwrap();
        let entry = h.alloc(16).unwrap();
        for key in ["delta", "alpha", "charlie", "bravo", "echo"] {
            idx.insert(&mut h, key.as_bytes(), entry).unwrap();
        }
        let hits = idx.scan_from(&mut h, b"", 10).unwrap();
        let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(
            keys,
            [b"alpha" as &[u8], b"bravo", b"charlie", b"delta", b"echo"]
        );
        assert_eq!(idx.audit(&mut h).unwrap(), 5);
    }

    #[test]
    fn scan_starts_at_the_requested_key() {
        let mut h = heap(64);
        let idx = SkipIndex::create(&mut h).unwrap();
        let entry = h.alloc(16).unwrap();
        for i in 0..20u32 {
            idx.insert(&mut h, format!("k{i:03}").as_bytes(), entry)
                .unwrap();
        }
        let hits = idx.scan_from(&mut h, b"k007", 5).unwrap();
        let keys: Vec<String> = hits
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, ["k007", "k008", "k009", "k010", "k011"]);
        // Start between keys: lands on the next one.
        let hits = idx.scan_from(&mut h, b"k0075", 2).unwrap();
        assert_eq!(hits[0].0, b"k008");
    }

    #[test]
    fn remove_unlinks_at_every_level() {
        let mut h = heap(64);
        let idx = SkipIndex::create(&mut h).unwrap();
        let entry = h.alloc(16).unwrap();
        for i in 0..50u32 {
            idx.insert(&mut h, format!("k{i:03}").as_bytes(), entry)
                .unwrap();
        }
        for i in (0..50u32).step_by(3) {
            assert!(idx.remove(&mut h, format!("k{i:03}").as_bytes()).unwrap());
        }
        assert!(!idx.remove(&mut h, b"k000").unwrap(), "double remove");
        assert!(!idx.remove(&mut h, b"nope").unwrap(), "absent key");
        let expected = (0..50u32).filter(|i| i % 3 != 0).count() as u64;
        assert_eq!(idx.audit(&mut h).unwrap(), expected);
    }

    #[test]
    fn scan_limit_is_respected() {
        let mut h = heap(64);
        let idx = SkipIndex::create(&mut h).unwrap();
        let entry = h.alloc(16).unwrap();
        for i in 0..30u32 {
            idx.insert(&mut h, format!("x{i:02}").as_bytes(), entry)
                .unwrap();
        }
        assert_eq!(idx.scan_from(&mut h, b"", 7).unwrap().len(), 7);
        assert_eq!(idx.scan_from(&mut h, b"x29", 7).unwrap().len(), 1);
        assert_eq!(idx.scan_from(&mut h, b"z", 7).unwrap().len(), 0);
    }

    #[test]
    fn levels_are_deterministic_and_bounded() {
        for i in 0..1_000u32 {
            let key = format!("user{i}");
            let l1 = level_for(key.as_bytes());
            let l2 = level_for(key.as_bytes());
            assert_eq!(l1, l2);
            assert!((1..=MAX_LEVEL).contains(&l1));
        }
        // The distribution actually uses multiple levels.
        let tall = (0..1_000u32)
            .filter(|i| level_for(format!("user{i}").as_bytes()) > 1)
            .count();
        assert!((100..500).contains(&tall), "p=1/4 tower growth: {tall}");
    }
}
