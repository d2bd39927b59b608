//! The persistent chained hash table, and the ordered index over its keys
//! that lives in host memory and is derived from it.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

use pheap::{PHeap, PPtr, MAX_ALLOC};
use viyojit::NvHeap;

use crate::{fnv1a_64, KvError};

/// Identifies a formatted store ("REDISNVM" in spirit).
const STORE_MAGIC: u64 = 0x5245_4449_534e_564d;

/// Meta block field offsets. The word after them once held the head of
/// an ordered index kept in the heap: an image that still carries it
/// opens, and nothing reads it.
const META_MAGIC: u64 = 0;
const META_BUCKETS: u64 = 8;
const META_SEG_BUCKETS: u64 = 16;
const META_COUNT: u64 = 24;
const META_DIR: u64 = 32;
const META_STAMP: u64 = 40;
const META_BYTES: usize = 48;

/// Entry header layout, mirroring Redis's split between the small object
/// header (dictEntry/robj: chain pointer, hash, lengths, LRU stamp, value
/// pointer) and the separately-allocated value blob (SDS string). Headers
/// are small, so many pack into each page; values get their own
/// allocations. This is why read-heavy workloads dirty far fewer pages
/// than write-heavy ones even though reads update the LRU stamp.
const NODE_NEXT: u64 = 0;
const NODE_HASH: u64 = 8;
const NODE_KEY_LEN: u64 = 16;
const NODE_VAL_LEN: u64 = 20;
const NODE_STAMP: u64 = 24;
const NODE_VAL_PTR: u64 = 32;
/// Expiration time (0 = never) — Redis dicts keep TTLs per key.
const NODE_EXPIRE: u64 = 40;
/// Object flags + encoding + refcount, as in Redis's robj.
const NODE_FLAGS: u64 = 48;
/// Reserved metadata area. Redis spends ~100-130 B of heap metadata per
/// key (dictEntry, robj, SDS header, expires-dict entry); colocating the
/// equivalent here keeps the per-key metadata *footprint* faithful, which
/// is what determines how many pages the read path's LRU stamps dirty.
const NODE_RESERVED: u64 = 56;
const NODE_HEADER: usize = 128;

/// Longest stored key compared through a stack buffer.
const INLINE_KEY: usize = 64;

/// Orders the `klen` key bytes stored at byte `at` of `node` against
/// `key`. The stored key is read where it is compared — the one read of
/// `klen` bytes a caller fetching the key would make — into a stack
/// buffer, or a heap one past [`INLINE_KEY`] bytes.
fn cmp_stored_key<H: NvHeap>(
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

/// The fields of an entry header that a probe, a hit or an unlink needs,
/// decoded from one read of `NODE_NEXT..NODE_EXPIRE`.
#[derive(Debug, Clone, Copy)]
struct NodeHead {
    next: u64,
    hash: u64,
    key_len: usize,
    val_len: usize,
    val_ptr: PPtr,
}

/// The bucket a probe started from: the slot holding its chain head (a
/// segment and a byte offset within it) and the head `find` read there.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    seg: PPtr,
    slot: u64,
    head: u64,
}

/// What [`KvStore::find`] found: the bucket it probed and, on a hit, the
/// node's predecessor (`None` for a chain head), the node and its head.
type Probe = (Bucket, Option<(Option<PPtr>, PPtr, NodeHead)>);

/// A batch of `(key, value)` pairs returned by [`KvStore::scan`].
pub type ScanResults = Vec<(Vec<u8>, Vec<u8>)>;

/// Buckets per directory segment (one segment = one heap allocation).
const SEG_BUCKETS: u64 = 4096;

/// Store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvStats {
    /// Live entries.
    pub entries: u64,
    /// Hash buckets.
    pub buckets: u64,
    /// Monotonic operation stamp (the Redis-style LRU clock).
    pub stamp: u64,
}

/// A Redis-like persistent key-value store. See the [crate docs](crate).
#[derive(Debug)]
pub struct KvStore<H> {
    heap: PHeap<H>,
    meta: PPtr,
    dir: PPtr,
    /// Every live key and its entry header, in key order: the index
    /// `scan` reads. Only the hash table is persistent; `open` rebuilds
    /// this from its chains.
    order: BTreeMap<Box<[u8]>, PPtr>,
    num_buckets: u64,
    seg_buckets: u64,
}

impl<H: NvHeap> KvStore<H> {
    /// Formats a new store with `buckets` hash buckets (rounded up to a
    /// power of two) in root slot 0 of `heap`.
    ///
    /// # Errors
    ///
    /// Propagates heap exhaustion; callers should size the region for
    /// `buckets * 8` bytes of table plus their data.
    pub fn create(mut heap: PHeap<H>, buckets: u64) -> Result<Self, KvError> {
        let num_buckets = buckets.max(1).next_power_of_two();
        let seg_buckets = num_buckets.min(SEG_BUCKETS);
        let num_segments = num_buckets / seg_buckets;

        let meta = heap.alloc(META_BYTES)?;
        let dir = heap.alloc((num_segments * 8) as usize)?;
        // Zero the directory, then allocate + zero each bucket segment.
        heap.write(dir, 0, &vec![0u8; (num_segments * 8) as usize])?;
        for s in 0..num_segments {
            let seg = heap.alloc((seg_buckets * 8) as usize)?;
            heap.write(seg, 0, &vec![0u8; (seg_buckets * 8) as usize])?;
            heap.write(dir, s * 8, &seg.offset().to_le_bytes())?;
        }
        let mut this = KvStore {
            heap,
            meta,
            dir,
            order: BTreeMap::new(),
            num_buckets,
            seg_buckets,
        };
        this.put_meta(META_MAGIC, STORE_MAGIC)?;
        this.put_meta(META_BUCKETS, num_buckets)?;
        this.put_meta(META_SEG_BUCKETS, seg_buckets)?;
        this.put_meta(META_COUNT, 0)?;
        this.put_meta(META_DIR, dir.offset())?;
        this.put_meta(META_STAMP, 0)?;
        this.heap.set_root(0, Some(meta))?;
        Ok(this)
    }

    /// Reopens the store in `heap`'s root slot 0 — the warm-cache restart
    /// path after a power cycle — and rebuilds the ordered index from the
    /// hash chains.
    ///
    /// # Errors
    ///
    /// [`KvError::NotAStore`] if root slot 0 is empty, the magic does not
    /// verify, the table geometry is not one [`KvStore::create`] makes, a
    /// stored hash is not its key's or sits in another bucket's chain, or
    /// the chains do not hold exactly the entry count of distinct keys;
    /// heap failures (a pointer to no live block, a read past one) surface
    /// as [`KvError::Heap`].
    pub fn open(mut heap: PHeap<H>) -> Result<Self, KvError> {
        let meta = heap.root(0)?.ok_or(KvError::NotAStore)?;
        let mut word = |field| -> Result<u64, KvError> {
            let mut buf = [0u8; 8];
            heap.read(meta, field, &mut buf)?;
            Ok(u64::from_le_bytes(buf))
        };
        if word(META_MAGIC)? != STORE_MAGIC {
            return Err(KvError::NotAStore);
        }
        let num_buckets = word(META_BUCKETS)?;
        let seg_buckets = word(META_SEG_BUCKETS)?;
        if !num_buckets.is_power_of_two()
            || !seg_buckets.is_power_of_two()
            || seg_buckets > num_buckets.min(SEG_BUCKETS)
        {
            return Err(KvError::NotAStore);
        }
        let dir = PPtr::from_offset(word(META_DIR)?);
        let count = word(META_COUNT)?;
        let mut this = KvStore {
            heap,
            meta,
            dir,
            order: BTreeMap::new(),
            num_buckets,
            seg_buckets,
        };
        let mut order = BTreeMap::new();
        let walked = this.walk_chains(count, |_, node, key| {
            order.insert(key, node);
        })?;
        if walked != count || order.len() as u64 != count {
            return Err(KvError::NotAStore);
        }
        this.order = order;
        Ok(this)
    }

    /// Shared access to the persistent heap.
    pub fn heap(&self) -> &PHeap<H> {
        &self.heap
    }

    /// Exclusive access to the persistent heap (and through it the
    /// NV-DRAM layer).
    pub fn heap_mut(&mut self) -> &mut PHeap<H> {
        &mut self.heap
    }

    /// Consumes the store, returning the heap.
    pub fn into_heap(self) -> PHeap<H> {
        self.heap
    }

    fn put_meta(&mut self, field: u64, value: u64) -> Result<(), KvError> {
        self.heap.write(self.meta, field, &value.to_le_bytes())?;
        Ok(())
    }

    fn get_meta(&mut self, field: u64) -> Result<u64, KvError> {
        let mut buf = [0u8; 8];
        self.heap.read(self.meta, field, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn next_stamp(&mut self) -> Result<u64, KvError> {
        // The Redis-style LRU clock: bumped on every operation, persisted
        // in the meta block — metadata write traffic even for reads.
        let stamp = self.get_meta(META_STAMP)? + 1;
        self.put_meta(META_STAMP, stamp)?;
        Ok(stamp)
    }

    /// `(segment ptr, byte offset of the bucket head within the segment)`.
    fn bucket_slot(&mut self, hash: u64) -> Result<(PPtr, u64), KvError> {
        let bucket = hash & (self.num_buckets - 1);
        let seg_idx = bucket / self.seg_buckets;
        let within = bucket % self.seg_buckets;
        let mut buf = [0u8; 8];
        self.heap.read(self.dir, seg_idx * 8, &mut buf)?;
        Ok((PPtr::from_offset(u64::from_le_bytes(buf)), within * 8))
    }

    /// Reads `node`'s probe fields — everything up to and including the
    /// value pointer — in one access: they are neighbours within a cache
    /// line or two, and an access is priced by the lines it covers.
    fn node_head(&mut self, node: PPtr) -> Result<NodeHead, KvError> {
        let mut image = [0u8; NODE_EXPIRE as usize];
        self.heap.read(node, 0, &mut image)?;
        fn field<const N: usize>(image: &[u8], at: u64) -> [u8; N] {
            image[at as usize..][..N]
                .try_into()
                .expect("inside the image")
        }
        Ok(NodeHead {
            next: u64::from_le_bytes(field(&image, NODE_NEXT)),
            hash: u64::from_le_bytes(field(&image, NODE_HASH)),
            key_len: u32::from_le_bytes(field(&image, NODE_KEY_LEN)) as usize,
            val_len: u32::from_le_bytes(field(&image, NODE_VAL_LEN)) as usize,
            val_ptr: PPtr::from_offset(u64::from_le_bytes(field(&image, NODE_VAL_PTR))),
        })
    }

    /// Finds the node holding `key` in its bucket's chain. Each chain node
    /// costs one head read, plus one read of the stored key — compared in
    /// place — when its hash matches. The bucket comes back too, so an
    /// insert or a head unlink after the probe reads neither the
    /// directory nor the chain head again.
    fn find(&mut self, hash: u64, key: &[u8]) -> Result<Probe, KvError> {
        let (seg, slot) = self.bucket_slot(hash)?;
        let mut buf = [0u8; 8];
        self.heap.read(seg, slot, &mut buf)?;
        let bucket = Bucket {
            seg,
            slot,
            head: u64::from_le_bytes(buf),
        };
        let mut cur = bucket.head;
        let mut prev: Option<PPtr> = None;
        while cur != 0 {
            let node = PPtr::from_offset(cur);
            let head = self.node_head(node)?;
            if head.hash == hash
                && cmp_stored_key(&mut self.heap, node, NODE_HEADER as u64, head.key_len, key)?
                    .is_eq()
            {
                return Ok((bucket, Some((prev, node, head))));
            }
            prev = Some(node);
            cur = head.next;
        }
        Ok((bucket, None))
    }

    /// Walks every hash chain, handing `visit` each entry's bucket, header
    /// and key, and returns how many it walked. A directory segment's
    /// bucket heads are one read; each node costs its `node_head` read and
    /// one read of its key.
    ///
    /// # Errors
    ///
    /// [`KvError::NotAStore`] when the chains hold more than `count`
    /// entries (a cycle would otherwise never end), a key length overruns
    /// its node's block, a stored hash is not its key's, or a node is
    /// chained in a bucket its hash does not name.
    fn walk_chains(
        &mut self,
        count: u64,
        mut visit: impl FnMut(u64, PPtr, Box<[u8]>),
    ) -> Result<u64, KvError> {
        let mut walked = 0;
        let mut heads = vec![0u8; (self.seg_buckets * 8) as usize];
        for seg_idx in 0..self.num_buckets / self.seg_buckets {
            let mut buf = [0u8; 8];
            self.heap.read(self.dir, seg_idx * 8, &mut buf)?;
            self.heap
                .read(PPtr::from_offset(u64::from_le_bytes(buf)), 0, &mut heads)?;
            for (within, slot) in (0..).zip(heads.chunks_exact(8)) {
                let mut cur = u64::from_le_bytes(slot.try_into().expect("an 8-byte slot"));
                while cur != 0 {
                    walked += 1;
                    let node = PPtr::from_offset(cur);
                    let head = self.node_head(node)?;
                    if walked > count || NODE_HEADER + head.key_len > self.heap.usable_size(node)? {
                        return Err(KvError::NotAStore);
                    }
                    let mut key = vec![0u8; head.key_len].into_boxed_slice();
                    self.heap.read(node, NODE_HEADER as u64, &mut key)?;
                    let bucket = seg_idx * self.seg_buckets + within;
                    if head.hash != fnv1a_64(&key) || head.hash & (self.num_buckets - 1) != bucket {
                        return Err(KvError::NotAStore);
                    }
                    visit(bucket, node, key);
                    cur = head.next;
                }
            }
        }
        Ok(walked)
    }

    #[allow(clippy::too_many_arguments)] // one serializer for the whole header layout
    fn write_header(
        &mut self,
        node: PPtr,
        next: u64,
        hash: u64,
        key: &[u8],
        val_len: usize,
        val_ptr: PPtr,
        stamp: u64,
    ) -> Result<(), KvError> {
        let mut image = Vec::with_capacity(NODE_HEADER + key.len());
        image.extend_from_slice(&next.to_le_bytes());
        image.extend_from_slice(&hash.to_le_bytes());
        image.extend_from_slice(&(key.len() as u32).to_le_bytes());
        image.extend_from_slice(&(val_len as u32).to_le_bytes());
        image.extend_from_slice(&stamp.to_le_bytes());
        image.extend_from_slice(&val_ptr.offset().to_le_bytes());
        debug_assert_eq!(image.len() as u64, NODE_EXPIRE);
        image.extend_from_slice(&0u64.to_le_bytes()); // expire: never
        debug_assert_eq!(image.len() as u64, NODE_FLAGS);
        image.extend_from_slice(&0u64.to_le_bytes());
        debug_assert_eq!(image.len() as u64, NODE_RESERVED);
        image.resize(NODE_HEADER, 0);
        image.extend_from_slice(key);
        self.heap.write(node, 0, &image)?;
        Ok(())
    }

    /// Inserts or updates `key`. Updates overwrite the value allocation in
    /// place when the new value fits its size class; otherwise the value
    /// blob is reallocated (like Redis's SDS reallocation) and the header
    /// repointed.
    ///
    /// # Errors
    ///
    /// [`KvError::ValueTooLarge`] when the key or value exceed one
    /// allocation; heap exhaustion surfaces as [`KvError::Heap`].
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        if key.len() > u32::MAX as usize {
            return Err(KvError::KeyTooLarge { len: key.len() });
        }
        if NODE_HEADER + key.len() > MAX_ALLOC || value.len() > MAX_ALLOC || value.is_empty() {
            return Err(KvError::ValueTooLarge {
                len: NODE_HEADER + key.len() + value.len(),
            });
        }
        let hash = fnv1a_64(key);
        let stamp = self.next_stamp()?;

        let (bucket, hit) = self.find(hash, key)?;
        if let Some((_, node, NodeHead { val_ptr, .. })) = hit {
            if value.len() <= self.heap.usable_size(val_ptr)? {
                // In-place value overwrite; header gets length + stamp.
                self.heap.write(val_ptr, 0, value)?;
            } else {
                // SDS-style reallocation of the value blob.
                let fresh = self.heap.alloc(value.len())?;
                self.heap.write(fresh, 0, value)?;
                self.heap
                    .write(node, NODE_VAL_PTR, &fresh.offset().to_le_bytes())?;
                self.heap.free(val_ptr)?;
            }
            self.heap
                .write(node, NODE_VAL_LEN, &(value.len() as u32).to_le_bytes())?;
            self.heap.write(node, NODE_STAMP, &stamp.to_le_bytes())?;
            return Ok(());
        }

        // Fresh insert at the chain head: value blob first, then header.
        let val_ptr = self.heap.alloc(value.len())?;
        self.heap.write(val_ptr, 0, value)?;
        let node = self.heap.alloc(NODE_HEADER + key.len())?;
        self.write_header(node, bucket.head, hash, key, value.len(), val_ptr, stamp)?;
        self.heap
            .write(bucket.seg, bucket.slot, &node.offset().to_le_bytes())?;
        let count = self.get_meta(META_COUNT)?;
        self.put_meta(META_COUNT, count + 1)?;
        self.order.insert(key.into(), node);
        Ok(())
    }

    /// Looks up `key`. Like Redis, a hit updates the entry's LRU stamp —
    /// a metadata *write* on the read path, landing on the densely-packed
    /// header pages rather than the value blobs.
    ///
    /// # Errors
    ///
    /// Heap failures surface as [`KvError::Heap`].
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let hash = fnv1a_64(key);
        let stamp = self.next_stamp()?;
        let (_, Some((_, node, head))) = self.find(hash, key)? else {
            return Ok(None);
        };
        self.heap.write(node, NODE_STAMP, &stamp.to_le_bytes())?;
        let mut value = vec![0u8; head.val_len];
        self.heap.read(head.val_ptr, 0, &mut value)?;
        Ok(Some(value))
    }

    /// Removes `key`, returning whether it was present.
    ///
    /// # Errors
    ///
    /// Heap failures surface as [`KvError::Heap`].
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, KvError> {
        let hash = fnv1a_64(key);
        self.next_stamp()?;
        let (bucket, Some((prev, node, NodeHead { next, val_ptr, .. }))) = self.find(hash, key)?
        else {
            return Ok(false);
        };
        match prev {
            Some(p) => self.heap.write(p, NODE_NEXT, &next.to_le_bytes())?,
            None => self
                .heap
                .write(bucket.seg, bucket.slot, &next.to_le_bytes())?,
        }
        self.heap.free(val_ptr)?;
        self.heap.free(node)?;
        let count = self.get_meta(META_COUNT)?;
        self.put_meta(META_COUNT, count - 1)?;
        self.order.remove(key);
        Ok(true)
    }

    /// Range scan: up to `limit` entries with keys `>= start`, in key
    /// order — YCSB-E's operation, and the cross-key capability the paper
    /// defers to future work. Like `get`, each visited entry's LRU stamp
    /// is refreshed.
    ///
    /// # Errors
    ///
    /// Heap failures surface as [`KvError::Heap`].
    pub fn scan(&mut self, start: &[u8], limit: usize) -> Result<ScanResults, KvError> {
        let stamp = self.next_stamp()?;
        let hits: Vec<(Vec<u8>, PPtr)> = self
            .order
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .take(limit)
            .map(|(key, &node)| (key.to_vec(), node))
            .collect();
        let mut out = Vec::with_capacity(hits.len());
        for (key, node) in hits {
            self.heap.write(node, NODE_STAMP, &stamp.to_le_bytes())?;
            let head = self.node_head(node)?;
            let mut value = vec![0u8; head.val_len];
            self.heap.read(head.val_ptr, 0, &mut value)?;
            out.push((key, value));
        }
        Ok(out)
    }

    /// Number of live entries.
    ///
    /// # Errors
    ///
    /// Heap failures surface as [`KvError::Heap`].
    pub fn len(&mut self) -> Result<u64, KvError> {
        self.get_meta(META_COUNT)
    }

    /// Walks the hash chains as `open` does and checks them and the
    /// ordered index derived from them: no key is stored twice, the chains
    /// hold the entry count, and the index holds exactly the walked keys
    /// and headers. Returns the entry count — a recovery audit.
    ///
    /// # Errors
    ///
    /// Heap failures surface as [`KvError::Heap`]; whatever `open` rejects
    /// in the chains (a chain longer than the entry count, a stored hash
    /// that is not its key's or a node in another bucket's chain) as
    /// [`KvError::NotAStore`].
    ///
    /// # Panics
    ///
    /// Panics if any of those checks fails.
    pub fn audit_index(&mut self) -> Result<u64, KvError> {
        let count = self.get_meta(META_COUNT)?;
        let order = std::mem::take(&mut self.order);
        // A key stored twice hashes to one bucket, so its copies share a
        // chain: the keys of the chain being walked are all a duplicate
        // can meet.
        let mut chain: (u64, Vec<Box<[u8]>>) = (0, Vec::new());
        let walked = self.walk_chains(count, |bucket, node, key| {
            assert_eq!(
                order.get(&key),
                Some(&node),
                "ordered index diverges from the hash table"
            );
            if chain.0 != bucket {
                chain = (bucket, Vec::new());
            }
            assert!(!chain.1.contains(&key), "key stored twice");
            chain.1.push(key);
        });
        self.order = order;
        assert_eq!(walked?, count, "chains diverge from the entry count");
        assert_eq!(
            self.order.len() as u64,
            count,
            "ordered index holds keys the table does not"
        );
        Ok(count)
    }

    /// `true` if the store holds no entries.
    ///
    /// # Errors
    ///
    /// Heap failures surface as [`KvError::Heap`].
    pub fn is_empty(&mut self) -> Result<bool, KvError> {
        Ok(self.len()? == 0)
    }

    /// Store statistics.
    ///
    /// # Errors
    ///
    /// Heap failures surface as [`KvError::Heap`].
    pub fn stats(&mut self) -> Result<KvStats, KvError> {
        Ok(KvStats {
            entries: self.get_meta(META_COUNT)?,
            buckets: self.num_buckets,
            stamp: self.get_meta(META_STAMP)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::{Clock, CostModel};
    use ssd_sim::SsdConfig;
    use viyojit::{NvdramBaseline, RegionId, Viyojit, ViyojitConfig, ViyojitError};

    fn store(pages: usize, buckets: u64) -> KvStore<NvdramBaseline> {
        let nv = NvdramBaseline::new(pages, Clock::new(), CostModel::free(), SsdConfig::instant());
        let heap = PHeap::format(nv, (pages as u64 - 2) * 4096).unwrap();
        KvStore::create(heap, buckets).unwrap()
    }

    #[test]
    fn set_get_delete_round_trip() {
        let mut kv = store(64, 16);
        assert_eq!(kv.get(b"missing").unwrap(), None);
        kv.set(b"k", b"v1").unwrap();
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"v1"[..]));
        kv.set(b"k", b"v2").unwrap();
        assert_eq!(kv.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        assert!(kv.delete(b"k").unwrap());
        assert!(!kv.delete(b"k").unwrap());
        assert_eq!(kv.get(b"k").unwrap(), None);
    }

    #[test]
    fn len_tracks_inserts_and_deletes() {
        let mut kv = store(64, 16);
        for i in 0..20u32 {
            kv.set(format!("key{i}").as_bytes(), b"x").unwrap();
        }
        assert_eq!(kv.len().unwrap(), 20);
        kv.set(b"key3", b"update, not insert").unwrap();
        assert_eq!(kv.len().unwrap(), 20);
        kv.delete(b"key3").unwrap();
        assert_eq!(kv.len().unwrap(), 19);
    }

    #[test]
    fn chains_survive_collisions() {
        // 1 bucket: everything chains.
        let mut kv = store(64, 1);
        for i in 0..30u32 {
            kv.set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        for i in 0..30u32 {
            assert_eq!(
                kv.get(format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "key {i}"
            );
        }
        // Delete middle-of-chain entries.
        for i in (0..30u32).step_by(3) {
            assert!(kv.delete(format!("k{i}").as_bytes()).unwrap());
        }
        for i in 0..30u32 {
            let expect = (i % 3 != 0).then(|| format!("v{i}").into_bytes());
            assert_eq!(kv.get(format!("k{i}").as_bytes()).unwrap(), expect);
        }
    }

    /// Stored keys are compared where they are read, through a 64-byte
    /// stack buffer or a heap one: keys on both sides of that size, two of
    /// them telling apart only past their 64th byte, chained in one bucket
    /// (every `find` compares its way past the others) and in key order
    /// for the scans.
    #[test]
    fn keys_longer_than_the_inline_compare_buffer() {
        let mut kv = store(256, 1);
        let shared = vec![b'p'; 64];
        let keys = [
            vec![b'a'; 64],
            vec![b'b'; 65],
            vec![b'c'; 300],
            [&shared[..], b"-left"].concat(),
            [&shared[..], b"-right"].concat(),
            shared.clone(),
            b"short".to_vec(),
        ];
        let value = |i: usize| vec![i as u8 + 1; 24];
        for (i, key) in keys.iter().enumerate() {
            kv.set(key, &value(i)).unwrap();
        }
        assert_eq!(kv.len().unwrap(), keys.len() as u64);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(kv.get(key).unwrap(), Some(value(i)), "key {i}");
        }
        // Same length and same first 64 bytes as a stored key, but absent.
        let absent = [&shared[..], b"-lefs"].concat();
        assert_eq!(kv.get(&absent).unwrap(), None);
        assert!(!kv.delete(&absent).unwrap());

        let mut sorted = keys.to_vec();
        sorted.sort();
        let scanned: Vec<Vec<u8>> = kv
            .scan(b"", 16)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(scanned, sorted, "scan order is byte order");
        let from = [&shared[..], b"-m"].concat();
        let hits = kv.scan(&from, 1).unwrap();
        assert_eq!(hits[0].0, keys[4], "scan start between the two long keys");

        // An update finds the node it wrote; a delete unlinks only its own.
        kv.set(&keys[3], b"rewritten").unwrap();
        assert_eq!(
            kv.get(&keys[3]).unwrap().as_deref(),
            Some(&b"rewritten"[..])
        );
        assert_eq!(kv.get(&keys[4]).unwrap(), Some(value(4)));
        let deleted = [3, 1, 5];
        for gone in deleted {
            assert!(kv.delete(&keys[gone]).unwrap());
            assert!(
                !kv.delete(&keys[gone]).unwrap(),
                "double delete of key {gone}"
            );
        }
        for (i, key) in keys.iter().enumerate() {
            let expect = (!deleted.contains(&i)).then(|| value(i));
            assert_eq!(kv.get(key).unwrap(), expect, "key {i} after the deletes");
        }
        assert_eq!(kv.audit_index().unwrap(), 4);
    }

    #[test]
    fn growing_updates_relocate_nodes() {
        let mut kv = store(128, 8);
        kv.set(b"grow", b"tiny").unwrap();
        let big = vec![7u8; 2000];
        kv.set(b"grow", &big).unwrap();
        assert_eq!(kv.get(b"grow").unwrap().as_deref(), Some(&big[..]));
        // Shrink back; in-place path.
        kv.set(b"grow", b"small again").unwrap();
        assert_eq!(
            kv.get(b"grow").unwrap().as_deref(),
            Some(&b"small again"[..])
        );
        assert_eq!(kv.len().unwrap(), 1);
    }

    #[test]
    fn reads_advance_the_lru_stamp() {
        let mut kv = store(64, 16);
        kv.set(b"a", b"1").unwrap();
        let before = kv.stats().unwrap().stamp;
        kv.get(b"a").unwrap();
        kv.get(b"nope").unwrap();
        let after = kv.stats().unwrap().stamp;
        assert_eq!(after, before + 2, "reads must bump the metadata clock");
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let mut kv = store(64, 4);
        let huge = vec![0u8; MAX_ALLOC + 1];
        assert!(matches!(
            kv.set(b"k", &huge),
            Err(KvError::ValueTooLarge { .. })
        ));
        assert!(matches!(
            kv.set(b"k", b""),
            Err(KvError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn store_survives_power_cycle_as_warm_cache() {
        let nv = Viyojit::new(
            128,
            ViyojitConfig::with_budget_pages(8),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let heap = PHeap::format(nv, 100 * 4096).unwrap();
        let mut kv = KvStore::create(heap, 64).unwrap();
        for i in 0..50u32 {
            kv.set(format!("user{i}").as_bytes(), format!("data{i}").as_bytes())
                .unwrap();
        }
        let region = kv.heap().region();

        // Power cycle.
        let mut nv = kv.into_heap().into_inner();
        let report = nv.power_failure();
        assert!(report.dirty_pages <= 8);
        nv.recover();

        // Warm-cache restart: all data already present.
        let heap = PHeap::open(nv, region).unwrap();
        let mut kv = KvStore::open(heap).unwrap();
        assert_eq!(kv.len().unwrap(), 50);
        for i in 0..50u32 {
            assert_eq!(
                kv.get(format!("user{i}").as_bytes()).unwrap(),
                Some(format!("data{i}").into_bytes()),
                "entry {i} lost in the power cycle"
            );
        }
        // And the store continues to serve writes.
        kv.set(b"post-recovery", b"yes").unwrap();
        assert_eq!(
            kv.get(b"post-recovery").unwrap().as_deref(),
            Some(&b"yes"[..])
        );
    }

    #[test]
    fn scan_returns_key_ordered_ranges() {
        let mut kv = store(128, 16);
        for i in [5u32, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            kv.set(
                format!("key{i:02}").as_bytes(),
                format!("val{i}").as_bytes(),
            )
            .unwrap();
        }
        let hits = kv.scan(b"key03", 4).unwrap();
        let keys: Vec<String> = hits
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, ["key03", "key04", "key05", "key06"]);
        assert_eq!(hits[0].1, b"val3");
        // Scans past the end return what exists.
        assert_eq!(kv.scan(b"key09", 10).unwrap().len(), 1);
        assert_eq!(kv.scan(b"zzz", 10).unwrap().len(), 0);
    }

    #[test]
    fn scan_reflects_updates_and_deletes() {
        let mut kv = store(128, 16);
        for i in 0..10u32 {
            kv.set(format!("s{i}").as_bytes(), b"old").unwrap();
        }
        kv.set(b"s4", b"new-value").unwrap();
        kv.delete(b"s5").unwrap();
        let hits = kv.scan(b"s4", 2).unwrap();
        assert_eq!(hits[0].1, b"new-value");
        assert_eq!(hits[1].0, b"s6", "deleted key must not appear in scans");
    }

    #[test]
    fn scans_survive_power_cycles() {
        let nv = Viyojit::new(
            256,
            ViyojitConfig::with_budget_pages(8),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let heap = PHeap::format(nv, 200 * 4096).unwrap();
        let mut kv = KvStore::create(heap, 64).unwrap();
        for i in 0..30u32 {
            kv.set(format!("p{i:02}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let region = kv.heap().region();
        let mut nv = kv.into_heap().into_inner();
        nv.power_failure();
        nv.recover();
        let mut kv = KvStore::open(PHeap::open(nv, region).unwrap()).unwrap();
        let hits = kv.scan(b"p10", 5).unwrap();
        let keys: Vec<String> = hits
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, ["p10", "p11", "p12", "p13", "p14"]);
    }

    /// An `NvHeap` that counts the calls passing through it and digests
    /// every write (offset, length, bytes), in order.
    struct Counting {
        inner: NvdramBaseline,
        reads: u64,
        writes: u64,
        write_digest: u64,
    }

    impl NvHeap for Counting {
        fn map(&mut self, len_bytes: u64) -> Result<RegionId, ViyojitError> {
            self.inner.map(len_bytes)
        }

        fn unmap(&mut self, region: RegionId) -> Result<(), ViyojitError> {
            self.inner.unmap(region)
        }

        fn read(
            &mut self,
            region: RegionId,
            offset: u64,
            buf: &mut [u8],
        ) -> Result<(), ViyojitError> {
            self.reads += 1;
            self.inner.read(region, offset, buf)
        }

        fn write(
            &mut self,
            region: RegionId,
            offset: u64,
            data: &[u8],
        ) -> Result<(), ViyojitError> {
            self.writes += 1;
            for chunk in [
                &offset.to_le_bytes()[..],
                &data.len().to_le_bytes()[..],
                data,
            ] {
                self.write_digest =
                    fnv1a_64(&[&self.write_digest.to_le_bytes()[..], chunk].concat());
            }
            self.inner.write(region, offset, data)
        }

        fn region_len(&self, region: RegionId) -> Result<u64, ViyojitError> {
            self.inner.region_len(region)
        }
    }

    /// `(reads, writes)` the `NvHeap` saw while `op` ran.
    fn calls<T>(
        kv: &mut KvStore<Counting>,
        op: impl FnOnce(&mut KvStore<Counting>) -> T,
    ) -> (u64, u64) {
        let before = {
            let nv = kv.heap().heap();
            (nv.reads, nv.writes)
        };
        op(kv);
        let nv = kv.heap().heap();
        (nv.reads - before.0, nv.writes - before.1)
    }

    /// What each operation costs in `NvHeap` calls, as literals: the next
    /// extra read turns this red. Eight 24-byte values over four buckets,
    /// so probes walk chains, not just their heads. The write counts and
    /// the digest of the whole write stream were captured on the allocator
    /// that read a block header before every access: since then a
    /// dereference lost that read, a node's adjacent fields are read
    /// together, and a probe hands its bucket to the insert or unlink
    /// after it — but not one write moved. Then the allocator's free lists
    /// left the image: each `alloc` lost its read of a list head, each
    /// `free` the head read and its two list writes (the next pointer into
    /// the payload, the head), and `format` its zero heads. Then the
    /// ordered index left the heap for host memory: an insert lost its
    /// index node's `alloc`, image and predecessor link, a delete the
    /// link and the node's `free`, a scan its walk, and `create` the head
    /// sentinel and the meta word naming it. The digest is of that stream:
    /// the store that kept its index in the heap, with the index moved to
    /// a heap of its own and that word not written, wrote
    /// `0x3f77_e4f1_37b1_aafc` to this one too.
    #[test]
    fn nvheap_calls_per_operation_are_pinned() {
        let nv = Counting {
            inner: NvdramBaseline::new(64, Clock::new(), CostModel::free(), SsdConfig::instant()),
            reads: 0,
            writes: 0,
            write_digest: 0,
        };
        let mut kv = KvStore::create(PHeap::format(nv, 62 * 4096).unwrap(), 4).unwrap();
        for i in 0..8u8 {
            kv.set(format!("key{i:02}").as_bytes(), &[i; 24]).unwrap();
        }

        let get_hit = calls(&mut kv, |kv| assert!(kv.get(b"key03").unwrap().is_some()));
        let get_miss = calls(&mut kv, |kv| assert!(kv.get(b"absent").unwrap().is_none()));
        let set_in_place = calls(&mut kv, |kv| kv.set(b"key03", &[0xAA; 24]).unwrap());
        let insert = calls(&mut kv, |kv| kv.set(b"key08", &[8; 24]).unwrap());
        let delete = calls(&mut kv, |kv| assert!(kv.delete(b"key05").unwrap()));
        let scan = calls(&mut kv, |kv| {
            assert_eq!(kv.scan(b"key02", 3).unwrap().len(), 3)
        });

        assert_eq!(
            [get_hit, get_miss, set_in_place, insert, delete, scan],
            [(7, 2), (5, 1), (6, 4), (12, 13), (8, 9), (7, 4)],
            "(reads, writes) of get hit, get miss, in-place set, insert, delete, 3-entry scan"
        );
        assert_eq!(
            kv.heap().heap().write_digest,
            0x3f77_e4f1_37b1_aafc,
            "the write stream moved"
        );
    }

    /// Churn — insert a new key or delete the oldest, in random order
    /// around a steady live count, as `kv_churn` does — must not scatter
    /// the store: freed blocks are reused lowest address first, so the
    /// eighth generation of keys dirties as many pages as the second (a
    /// generation: as many inserts as keys live). Reused most recently
    /// freed first, the blocks of consecutive keys drift apart and the
    /// count climbs, 343 to 777 here (307 to 299 lowest first).
    #[test]
    fn churn_keeps_the_pages_dirtied_per_generation_flat() {
        const LIVE: u64 = 600;
        let nv = Viyojit::new(
            512,
            ViyojitConfig::with_budget_pages(64),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let mut kv = KvStore::create(PHeap::format(nv, 480 * 4096).unwrap(), 256).unwrap();
        let key = |id: u64| format!("churn{id:08}");
        let value = [0x5A; 976];
        for id in 0..LIVE {
            kv.set(key(id).as_bytes(), &value).unwrap();
        }
        let (mut oldest, mut next) = (0, LIVE);
        let mut rng = sim_clock::SplitMix64::new(42);
        let mut dirtied = Vec::new();
        for _generation in 0..8 {
            let before = kv.heap().heap().stats().pages_dirtied;
            let end = next + LIVE;
            while next < end {
                if rng.next_u64() % 2 == 0 || next - oldest < LIVE / 2 {
                    kv.set(key(next).as_bytes(), &value).unwrap();
                    next += 1;
                } else {
                    assert!(kv.delete(key(oldest).as_bytes()).unwrap());
                    oldest += 1;
                }
            }
            dirtied.push(kv.heap().heap().stats().pages_dirtied - before);
        }
        let (second, eighth) = (dirtied[1] as f64, dirtied[7] as f64);
        assert!(
            (eighth - second).abs() <= second * 0.1,
            "pages dirtied per generation moved: {dirtied:?}"
        );
    }

    /// Writes over a store's image.
    type Doctor = fn(&mut KvStore<NvdramBaseline>);

    /// A 16-bucket store of 40 entries, reopened after `doctor` wrote
    /// over its image.
    fn reopen_doctored(doctor: Doctor) -> Result<KvStore<NvdramBaseline>, KvError> {
        let mut kv = store(64, 16);
        for i in 0..40u32 {
            kv.set(format!("key{i}").as_bytes(), b"value").unwrap();
        }
        doctor(&mut kv);
        let heap = kv.into_heap();
        let region = heap.region();
        KvStore::open(PHeap::open(heap.into_inner(), region).unwrap())
    }

    /// `open` sizes its walk from the meta block and follows every chain
    /// pointer it reads, so a geometry `create` cannot make, an entry
    /// count the chains contradict, a cycle among them, a key stored
    /// twice, a key length past its block, a stored hash that is not its
    /// key's or a node in another bucket's chain is an error — never a
    /// panic, a hang, a lost entry or a buffer the size of a wild length.
    #[test]
    fn open_rejects_a_table_that_contradicts_its_meta() {
        type Kv = KvStore<NvdramBaseline>;
        fn chain_node(kv: &Kv) -> PPtr {
            kv.order[&b"key7"[..]]
        }
        fn bucket(kv: &Kv, key: &[u8]) -> u64 {
            fnv1a_64(key) & (kv.num_buckets - 1)
        }
        /// Stores `key` and its hash in `node`, whose key is as long.
        fn rekey(kv: &mut Kv, node: PPtr, key: &[u8]) {
            kv.heap
                .write(node, NODE_HASH, &fnv1a_64(key).to_le_bytes())
                .unwrap();
            kv.heap.write(node, NODE_HEADER as u64, key).unwrap();
        }
        let doctored: [(&str, Doctor); 12] = [
            ("no buckets", |kv| kv.put_meta(META_BUCKETS, 0).unwrap()),
            ("buckets not a power of two", |kv| {
                kv.put_meta(META_BUCKETS, 48).unwrap()
            }),
            ("segment not a power of two", |kv| {
                kv.put_meta(META_SEG_BUCKETS, 3).unwrap()
            }),
            ("segment larger than the table", |kv| {
                kv.put_meta(META_SEG_BUCKETS, 32).unwrap()
            }),
            ("segment larger than any create makes", |kv| {
                kv.put_meta(META_BUCKETS, 1 << 20).unwrap();
                kv.put_meta(META_SEG_BUCKETS, SEG_BUCKETS * 2).unwrap();
            }),
            ("count short of the chains", |kv| {
                kv.put_meta(META_COUNT, 39).unwrap()
            }),
            ("count past the chains", |kv| {
                kv.put_meta(META_COUNT, 41).unwrap()
            }),
            ("a chain that loops", |kv| {
                let node = chain_node(kv);
                kv.heap
                    .write(node, NODE_NEXT, &node.offset().to_le_bytes())
                    .unwrap();
            }),
            ("a key stored twice", |kv| {
                // Two keys of one length in one chain (40 keys in 16
                // buckets, 30 of them five bytes long, must have a pair):
                // the copy keeps its hash and its bucket.
                let keys: Vec<Box<[u8]>> = kv.order.keys().cloned().collect();
                let (node, key) = keys
                    .iter()
                    .flat_map(|a| keys.iter().map(move |b| (a, b)))
                    .find(|(a, b)| a != b && a.len() == b.len() && bucket(kv, a) == bucket(kv, b))
                    .map(|(a, b)| (kv.order[a], b.clone()))
                    .expect("two keys share a chain");
                rekey(kv, node, &key);
            }),
            ("a key length past its block", |kv| {
                let node = chain_node(kv);
                kv.heap
                    .write(node, NODE_KEY_LEN, &u32::MAX.to_le_bytes())
                    .unwrap();
            }),
            ("a stored hash that is not its key's", |kv| {
                // A bit above the bucket mask: the bucket stays key7's.
                let hash = fnv1a_64(b"key7") ^ kv.num_buckets;
                let node = chain_node(kv);
                kv.heap.write(node, NODE_HASH, &hash.to_le_bytes()).unwrap();
            }),
            ("a node chained in another bucket", |kv| {
                // A key no entry holds, stored with its own hash: only the
                // placement is wrong.
                let home = bucket(kv, b"key7");
                let key = (b'a'..=b'z')
                    .map(|c| [b'k', b'e', b'y', c])
                    .find(|key| bucket(kv, key) != home)
                    .expect("a key hashing elsewhere");
                rekey(kv, chain_node(kv), &key);
            }),
        ];
        for (what, doctor) in doctored {
            assert!(
                matches!(reopen_doctored(doctor), Err(KvError::NotAStore)),
                "{what} must not open"
            );
        }
        assert!(
            matches!(
                reopen_doctored(|kv| kv.put_meta(META_DIR, 8).unwrap()),
                Err(KvError::Heap(_))
            ),
            "a directory pointer to no block must not open"
        );
        // The word after the meta fields once named an index head in the
        // heap; an image that carries one opens all the same.
        let mut kv = reopen_doctored(|kv| {
            let stale = chain_node(kv).offset().to_le_bytes();
            kv.heap.write(kv.meta, META_BYTES as u64, &stale).unwrap();
        })
        .expect("an image with the retired word opens");
        assert_eq!(kv.audit_index().unwrap(), 40);
    }

    #[test]
    fn open_rejects_foreign_heaps() {
        let nv = NvdramBaseline::new(16, Clock::new(), CostModel::free(), SsdConfig::instant());
        let heap = PHeap::format(nv, 10 * 4096).unwrap();
        assert!(matches!(KvStore::open(heap), Err(KvError::NotAStore)));
    }
}
