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

use std::borrow::Cow;
use std::cmp::Ordering;

use pheap::{PHeap, PPtr};
use viyojit::NvHeap;

use crate::{fnv1a_64, KvError};

/// Maximum tower height; with p = 1/4 this covers ~4^12 keys.
pub(crate) const MAX_LEVEL: usize = 12;

/// Node field offsets.
const IDX_KEY_LEN: u64 = 0; // u32, low half of the shape word
const IDX_LEVEL: u64 = 4; // u32, its high half
const IDX_ENTRY: u64 = 8; // u64: hash-table entry header (0 = head)
const IDX_NEXT: u64 = 16; // u64 x level
const fn key_offset(level: usize) -> u64 {
    IDX_NEXT + (level as u64) * 8
}

/// Bytes of a node one visit reads: enough for the shape word, the entry
/// pointer and the tallest tower (112 B), and for the key of any node
/// whose block is no larger.
const IMAGE_BYTES: usize = 128;

/// Deterministic tower height for `key` (p = 1/4 per extra level).
fn level_for(key: &[u8]) -> usize {
    // A different seed than bucket hashing, so bucket and level are
    // independent.
    let h = fnv1a_64(key) ^ 0x9e37_79b9_7f4a_7c15;
    ((h.trailing_zeros() / 2) as usize + 1).min(MAX_LEVEL)
}

/// What one read of a node's block delivers: its first [`IMAGE_BYTES`],
/// or the whole block when it is smaller. The tower always lies inside
/// (`key_offset(MAX_LEVEL)` is 112); the key does when the node fits the
/// image, and otherwise costs one more read of the key alone.
#[derive(Clone, Copy)]
struct Image {
    node: PPtr,
    len: usize,
    bytes: [u8; IMAGE_BYTES],
}

impl Image {
    /// Reads `node`'s block in one access, sized from the allocator's
    /// volatile class map.
    fn read<H: NvHeap>(heap: &mut PHeap<H>, node: PPtr) -> Result<Self, KvError> {
        let len = heap.usable_size(node)?.min(IMAGE_BYTES);
        let mut bytes = [0u8; IMAGE_BYTES];
        heap.read(node, 0, &mut bytes[..len])?;
        Ok(Image { node, len, bytes })
    }

    fn word(&self, at: u64) -> u64 {
        let word = self.bytes[at as usize..][..8].try_into();
        u64::from_le_bytes(word.expect("inside the image"))
    }

    fn key_len(&self) -> usize {
        self.word(IDX_KEY_LEN) as u32 as usize
    }

    fn level(&self) -> usize {
        (self.word(IDX_KEY_LEN) >> 32) as usize
    }

    fn entry(&self) -> PPtr {
        PPtr::from_offset(self.word(IDX_ENTRY))
    }

    /// The forward pointer at `level` (0: none).
    fn next(&self, level: usize) -> u64 {
        self.word(IDX_NEXT + (level as u64) * 8)
    }

    /// The stored key: borrowed from the image when it holds all of it,
    /// else read, in one more access.
    fn key<H: NvHeap>(&self, heap: &mut PHeap<H>) -> Result<Cow<'_, [u8]>, KvError> {
        let at = key_offset(self.level());
        let klen = self.key_len();
        if let Some(stored) = self.bytes[..self.len].get(at as usize..at as usize + klen) {
            return Ok(Cow::Borrowed(stored));
        }
        let mut key = vec![0u8; klen];
        heap.read(self.node, at, &mut key)?;
        Ok(Cow::Owned(key))
    }

    /// The image of the node after this one at `level`, if any.
    fn follow<H: NvHeap>(
        &self,
        heap: &mut PHeap<H>,
        level: usize,
    ) -> Result<Option<Image>, KvError> {
        match self.next(level) {
            0 => Ok(None),
            next => Image::read(heap, PPtr::from_offset(next)).map(Some),
        }
    }
}

/// Where a key sits in the index: at every level, the last node before
/// it and the node after that one.
struct Path {
    preds: [PPtr; MAX_LEVEL],
    succs: [u64; MAX_LEVEL],
    /// The image of `succs[0]`, the first node at or past the key, and
    /// whether its key is the key.
    first: Option<(Image, bool)>,
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

    fn set_next<H: NvHeap>(
        heap: &mut PHeap<H>,
        node: PPtr,
        level: usize,
        to: u64,
    ) -> Result<(), KvError> {
        heap.write(node, IDX_NEXT + (level as u64) * 8, &to.to_le_bytes())?;
        Ok(())
    }

    /// Walks down to `key`, one read per node visited. The candidate a
    /// level stops at is often the next level's successor too, so its
    /// image and verdict are kept and that node is not read again.
    fn find_predecessors<H: NvHeap>(
        &self,
        heap: &mut PHeap<H>,
        key: &[u8],
    ) -> Result<Path, KvError> {
        let mut preds = [self.head; MAX_LEVEL];
        let mut succs = [0u64; MAX_LEVEL];
        let mut cur = Image::read(heap, self.head)?;
        let mut rejected: Option<(Image, bool)> = None;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let next = cur.next(level);
                if next == 0
                    || rejected
                        .as_ref()
                        .is_some_and(|(r, _)| r.node.offset() == next)
                {
                    break;
                }
                let image = Image::read(heap, PPtr::from_offset(next))?;
                match (*image.key(heap)?).cmp(key) {
                    Ordering::Less => cur = image,
                    order => {
                        rejected = Some((image, order.is_eq()));
                        break;
                    }
                }
            }
            preds[level] = cur.node;
            succs[level] = cur.next(level);
        }
        let first = rejected.filter(|(r, _)| r.node.offset() == succs[0]);
        Ok(Path {
            preds,
            succs,
            first,
        })
    }

    /// Inserts `key` pointing at `entry` (the hash-table header node).
    /// The caller guarantees the key is not already present.
    pub(crate) fn insert<H: NvHeap>(
        &self,
        heap: &mut PHeap<H>,
        key: &[u8],
        entry: PPtr,
    ) -> Result<(), KvError> {
        let level = level_for(key);
        let Path { preds, succs, .. } = self.find_predecessors(heap, key)?;
        let node = heap.alloc(key_offset(level) as usize + key.len())?;

        let mut image = Vec::with_capacity(key_offset(level) as usize + key.len());
        image.extend_from_slice(&(key.len() as u32).to_le_bytes());
        image.extend_from_slice(&(level as u32).to_le_bytes());
        image.extend_from_slice(&entry.offset().to_le_bytes());
        for succ in &succs[..level] {
            image.extend_from_slice(&succ.to_le_bytes());
        }
        image.extend_from_slice(key);
        heap.write(node, 0, &image)?;

        for (l, &pred) in preds[..level].iter().enumerate() {
            Self::set_next(heap, pred, l, node.offset())?;
        }
        Ok(())
    }

    /// Removes `key`, returning whether it was present.
    #[allow(clippy::needless_range_loop)] // preds, succs and the tower are indexed in lockstep
    pub(crate) fn remove<H: NvHeap>(
        &self,
        heap: &mut PHeap<H>,
        key: &[u8],
    ) -> Result<bool, KvError> {
        let Path {
            preds,
            succs,
            first,
        } = self.find_predecessors(heap, key)?;
        let Some((found, true)) = first else {
            return Ok(false);
        };
        for l in 0..found.level() {
            if succs[l] == found.node.offset() {
                Self::set_next(heap, preds[l], l, found.next(l))?;
            }
        }
        heap.free(found.node)?;
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
        let mut out = Vec::with_capacity(limit.min(1024));
        let mut visit = self
            .find_predecessors(heap, start)?
            .first
            .map(|(image, _)| image);
        while let Some(image) = visit.take().filter(|_| out.len() < limit) {
            out.push((image.key(heap)?.into_owned(), image.entry()));
            if out.len() < limit {
                visit = image.follow(heap, 0)?;
            }
        }
        Ok(out)
    }

    /// Walks level 0 asserting order and returning the entry count (test
    /// and recovery-audit support).
    pub(crate) fn audit<H: NvHeap>(&self, heap: &mut PHeap<H>) -> Result<u64, KvError> {
        let mut count = 0u64;
        let mut prev: Option<Vec<u8>> = None;
        let mut visit = Image::read(heap, self.head)?.follow(heap, 0)?;
        while let Some(image) = visit {
            let key = image.key(heap)?.into_owned();
            if let Some(p) = &prev {
                assert!(p < &key, "skip list out of order");
            }
            prev = Some(key);
            count += 1;
            visit = image.follow(heap, 0)?;
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

    /// The keys linked at every level, bottom first, after checking that
    /// each level is in key order and holds exactly the keys whose tower
    /// reaches it.
    fn levels(idx: &SkipIndex, h: &mut PHeap<NvdramBaseline>) -> Vec<Vec<Vec<u8>>> {
        let head = Image::read(h, idx.head).unwrap();
        let levels: Vec<Vec<Vec<u8>>> = (0..MAX_LEVEL)
            .map(|level| {
                let mut keys = Vec::new();
                let mut visit = head.follow(h, level).unwrap();
                while let Some(image) = visit {
                    keys.push(image.key(h).unwrap().into_owned());
                    visit = image.follow(h, level).unwrap();
                }
                assert!(keys.is_sorted(), "level {level} out of order");
                keys
            })
            .collect();
        for (level, keys) in levels.iter().enumerate() {
            let reaching: Vec<&Vec<u8>> =
                levels[0].iter().filter(|k| level_for(k) > level).collect();
            assert!(
                keys.iter().eq(reaching),
                "level {level} links the wrong nodes"
            );
        }
        levels
    }

    /// A node as tall as a tower gets, holding a 200-byte key that lies
    /// past the image a visit reads, among keys that share its first 190
    /// bytes: insert links it on every level, scans and the audit read its
    /// key, remove unlinks it from every level.
    #[test]
    fn a_full_tower_with_a_key_past_the_image() {
        let long = |n: u32| [vec![b't'; 190], format!("{n:010}").into_bytes()].concat();
        let tall = long(19_628_929);
        assert_eq!((tall.len(), level_for(&tall)), (200, MAX_LEVEL));
        let mut h = heap(64);
        let idx = SkipIndex::create(&mut h).unwrap();
        let entry = h.alloc(16).unwrap();
        let mut keys: Vec<Vec<u8>> = (0..24u32)
            .map(|i| format!("k{i:03}").into_bytes())
            .chain((0..8).map(|i| long(19_628_918 + 3 * i)))
            .chain((0..24u32).map(|i| format!("z{i:03}").into_bytes()))
            .collect();
        for key in keys.iter().step_by(2) {
            idx.insert(&mut h, key, entry).unwrap();
        }
        idx.insert(&mut h, &tall, entry).unwrap();
        for key in keys.iter().skip(1).step_by(2) {
            idx.insert(&mut h, key, entry).unwrap();
        }
        keys.push(tall.clone());
        keys.sort();
        let linked = levels(&idx, &mut h);
        assert_eq!(linked[0], keys);
        assert_eq!(linked[MAX_LEVEL - 1], std::slice::from_ref(&tall));
        assert_eq!(idx.audit(&mut h).unwrap(), keys.len() as u64);

        let scanned = |h: &mut PHeap<NvdramBaseline>, start: &[u8], limit| -> Vec<Vec<u8>> {
            let hits = idx.scan_from(h, start, limit).unwrap();
            hits.into_iter().map(|(k, _)| k).collect()
        };
        let at = keys.binary_search(&tall).unwrap();
        assert_eq!(scanned(&mut h, &tall, 3), keys[at..at + 3]);
        let prefix = &tall[..199];
        let from = keys.partition_point(|k| k.as_slice() < prefix);
        assert_eq!(scanned(&mut h, prefix, 2), keys[from..from + 2]);
        assert_eq!(scanned(&mut h, b"", 100), keys);

        let absent = long(19_628_928);
        assert!(
            !idx.remove(&mut h, &absent).unwrap(),
            "differs past the image"
        );
        assert!(idx.remove(&mut h, &tall).unwrap());
        assert!(!idx.remove(&mut h, &tall).unwrap(), "double remove");
        keys.remove(at);
        let linked = levels(&idx, &mut h);
        assert_eq!(linked[0], keys);
        assert!(linked[MAX_LEVEL - 1].is_empty());
        assert_eq!(scanned(&mut h, &tall, 2), keys[at..at + 2]);
        assert_eq!(idx.audit(&mut h).unwrap(), keys.len() as u64);
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
