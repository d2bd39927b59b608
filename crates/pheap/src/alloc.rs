//! The persistent heap allocator.

use std::{cmp::Reverse, collections::BinaryHeap, fmt};

use viyojit::{NvHeap, RegionId};

use crate::error::PHeapError;
use crate::layout::{
    class_size, size_class, ALLOC_FLAG, DATA_START, HEADER_BYTES, MAGIC, NUM_CLASSES, NUM_ROOTS,
    OFF_ALLOC_BYTES, OFF_ALLOC_COUNT, OFF_BUMP, OFF_MAGIC, OFF_REGION_LEN, OFF_ROOTS,
    OFF_RUN_CURSOR, OFF_RUN_END, OFF_VERSION, RUN_BYTES, VERSION,
};

/// Runs are carved and recorded in whole pages of this size.
const PAGE_BYTES: u64 = 4096;
/// Payloads start on multiples of this, so liveness takes one bit per unit.
const LIVE_UNIT: u64 = 8;
/// Region bytes one `u64` of the liveness map covers; divides a page.
const LIVE_WORD_BYTES: u64 = LIVE_UNIT * 64;
/// [`PHeap::run_class`] entry of a page no run covers.
const NO_RUN: u8 = u8::MAX;

/// `(block bytes, run bytes)` of size class `class`: blocks are a header
/// plus the class payload, and a run is [`RUN_BYTES`] or, for a block
/// larger than that, the block rounded up to whole pages.
fn run_geometry(class: usize) -> (u64, u64) {
    let block = HEADER_BYTES + class_size(class) as u64;
    let run_bytes = if block <= RUN_BYTES {
        RUN_BYTES
    } else {
        block.div_ceil(PAGE_BYTES) * PAGE_BYTES
    };
    (block, run_bytes)
}

/// A persistent pointer: the region offset of an allocation's payload.
///
/// `PPtr` is stable across power cycles — persistent data structures store
/// `PPtr`s inside other allocations and in the root directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PPtr(u64);

impl PPtr {
    /// The raw region offset (for storing inside persistent structures).
    pub const fn offset(self) -> u64 {
        self.0
    }

    /// Reconstructs a pointer from a stored offset. The pointer is
    /// validated on first use.
    pub const fn from_offset(offset: u64) -> Self {
        PPtr(offset)
    }
}

impl fmt::Display for PPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pptr@{:#x}", self.0)
    }
}

/// Allocator statistics (read from the superblock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PHeapStats {
    /// Live allocations.
    pub live_allocs: u64,
    /// Payload bytes in live allocations (class-rounded).
    pub live_bytes: u64,
    /// Next never-allocated offset (high-water mark).
    pub bump: u64,
    /// Total region bytes.
    pub region_len: u64,
}

/// A persistent size-class heap over one NV-DRAM region.
///
/// See the [crate-level docs](crate) for design and an example.
///
/// Beside the persistent image the handle keeps volatile, host-side state
/// (as libpmemobj keeps its runtime state in DRAM): which size class each
/// page's run belongs to, where live payloads start and which blocks are
/// free. Every question about a pointer — is it live, how large is it — is
/// answered from there, so an access costs the one NV-DRAM access it asks
/// for. [`PHeap::open`] rebuilds that state from the block headers.
#[derive(Debug)]
pub struct PHeap<H> {
    heap: H,
    region: RegionId,
    /// Per 4 KiB page below the bump pointer: the size class of the run
    /// covering it (runs are page-aligned page multiples), or [`NO_RUN`].
    run_class: Vec<u8>,
    /// One bit per [`LIVE_UNIT`] bytes below the bump pointer: set where
    /// the payload of a live allocation starts.
    live: Vec<u64>,
    /// Per size class, its freed blocks' payloads: reused lowest first, so
    /// allocations keep landing on few pages however long the heap churns.
    freed: [BinaryHeap<Reverse<u64>>; NUM_CLASSES],
}

impl<H: NvHeap> PHeap<H> {
    /// Maps a fresh region of `bytes` bytes on `heap` and formats a heap
    /// in it.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures; [`PHeapError::OutOfMemory`] if `bytes`
    /// cannot hold even the superblock.
    pub fn format(mut heap: H, bytes: u64) -> Result<Self, PHeapError> {
        if bytes < DATA_START + 64 {
            return Err(PHeapError::OutOfMemory);
        }
        let region = heap.map(bytes)?;
        let mut this = PHeap::with_empty_maps(heap, region);
        this.put_u64(OFF_MAGIC, MAGIC)?;
        this.put_u64(OFF_VERSION, VERSION)?;
        this.put_u64(OFF_REGION_LEN, bytes)?;
        this.put_u64(OFF_BUMP, DATA_START)?;
        this.put_u64(OFF_ALLOC_COUNT, 0)?;
        this.put_u64(OFF_ALLOC_BYTES, 0)?;
        for c in 0..NUM_CLASSES {
            this.put_u64(OFF_RUN_CURSOR + (c as u64) * 8, 0)?;
            this.put_u64(OFF_RUN_END + (c as u64) * 8, 0)?;
        }
        for r in 0..NUM_ROOTS {
            this.put_u64(OFF_ROOTS + (r as u64) * 8, 0)?;
        }
        Ok(this)
    }

    /// Opens an already-formatted heap (after recovery, or a second
    /// handle). Verifies the superblock, then rebuilds the volatile state
    /// by walking the carved runs: each run's first block header names its
    /// class, each block header says whether the block is live or freed
    /// (every carved block lies below its class's run cursor, which tells
    /// a freed class-0 block from a never-carved slot: both read 0).
    /// Recovery pays those reads; the steady state reads no header again.
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadImage`] if the region was never formatted, or its
    /// superblock or block headers contradict the region or each other.
    pub fn open(heap: H, region: RegionId) -> Result<Self, PHeapError> {
        let mut this = PHeap::with_empty_maps(heap, region);
        if this.get_u64(OFF_MAGIC)? != MAGIC || this.get_u64(OFF_VERSION)? != VERSION {
            return Err(PHeapError::BadImage);
        }
        let (region_len, bump) = (this.get_u64(OFF_REGION_LEN)?, this.get_u64(OFF_BUMP)?);
        if region_len != this.heap.region_len(region)?
            || !(DATA_START..=region_len).contains(&bump)
            || bump % PAGE_BYTES != 0
        {
            return Err(PHeapError::BadImage);
        }
        let mut run = DATA_START;
        while run < bump {
            let class = (this.get_u64(run)? & !ALLOC_FLAG) as usize;
            if class >= NUM_CLASSES {
                return Err(PHeapError::BadImage);
            }
            let (block, run_bytes) = run_geometry(class);
            if run_bytes > bump - run {
                return Err(PHeapError::BadImage);
            }
            this.record_run(run, run_bytes, class);
            let cursor = this.get_u64(OFF_RUN_CURSOR + (class as u64) * 8)?;
            for slot in 0..run_bytes / block {
                let at = run + slot * block;
                let header = this.get_u64(at)?;
                match (at < cursor, header ^ class as u64) {
                    (true, ALLOC_FLAG) => this.set_live(at + HEADER_BYTES, true),
                    (true, 0) => this.freed[class].push(Reverse(at + HEADER_BYTES)),
                    _ if header == 0 => {} // a never-carved slot
                    // A block of another class or with stray bits, or one
                    // the run cursor has not reached yet.
                    _ => return Err(PHeapError::BadImage),
                }
            }
            run += run_bytes;
        }
        Ok(this)
    }

    /// A handle whose volatile maps cover the superblock page alone: no
    /// run recorded, nothing live.
    fn with_empty_maps(heap: H, region: RegionId) -> Self {
        PHeap {
            heap,
            region,
            run_class: vec![NO_RUN; (DATA_START / PAGE_BYTES) as usize],
            live: vec![0; (DATA_START / LIVE_WORD_BYTES) as usize],
            freed: std::array::from_fn(|_| BinaryHeap::new()),
        }
    }

    /// Extends the maps over the run just carved at `run`. Runs are carved
    /// off the bump pointer, so the maps always cover exactly `0..bump`.
    fn record_run(&mut self, run: u64, run_bytes: u64, class: usize) {
        debug_assert_eq!(run, self.run_class.len() as u64 * PAGE_BYTES);
        let end = run + run_bytes;
        self.run_class
            .resize((end / PAGE_BYTES) as usize, class as u8);
        self.live.resize((end / LIVE_WORD_BYTES) as usize, 0);
    }

    fn set_live(&mut self, payload: u64, live: bool) {
        let unit = payload / LIVE_UNIT;
        let (word, bit) = ((unit / 64) as usize, 1u64 << (unit % 64));
        if live {
            self.live[word] |= bit;
        } else {
            self.live[word] &= !bit;
        }
    }

    /// Whether a live allocation's payload starts at region offset
    /// `payload`; `false` for offsets off the [`LIVE_UNIT`] grid or past
    /// the bump pointer.
    fn is_live(&self, payload: u64) -> bool {
        let unit = payload / LIVE_UNIT;
        payload % LIVE_UNIT == 0
            && self
                .live
                .get((unit / 64) as usize)
                .is_some_and(|word| word >> (unit % 64) & 1 == 1)
    }

    /// The size class of the live allocation at `ptr`, from the volatile
    /// maps alone.
    fn live_class(&self, ptr: PPtr) -> Result<usize, PHeapError> {
        if !self.is_live(ptr.0) {
            return Err(PHeapError::BadPointer);
        }
        Ok(self.run_class[(ptr.0 / PAGE_BYTES) as usize] as usize)
    }

    /// The region this heap lives in.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Shared access to the underlying NV-DRAM layer.
    pub fn heap(&self) -> &H {
        &self.heap
    }

    /// Exclusive access to the underlying NV-DRAM layer (power-failure
    /// injection, statistics).
    pub fn heap_mut(&mut self) -> &mut H {
        &mut self.heap
    }

    /// Consumes the heap handle, returning the NV-DRAM layer.
    pub fn into_inner(self) -> H {
        self.heap
    }

    fn get_u64(&mut self, offset: u64) -> Result<u64, PHeapError> {
        let mut buf = [0u8; 8];
        self.heap.read(self.region, offset, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn put_u64(&mut self, offset: u64, value: u64) -> Result<(), PHeapError> {
        self.heap.write(self.region, offset, &value.to_le_bytes())?;
        Ok(())
    }

    /// The live allocation count and live bytes: adjacent superblock
    /// words, read in one access.
    fn live_totals(&mut self) -> Result<(u64, u64), PHeapError> {
        const _: () = assert!(OFF_ALLOC_BYTES == OFF_ALLOC_COUNT + 8);
        let mut buf = [0u8; 16];
        self.heap.read(self.region, OFF_ALLOC_COUNT, &mut buf)?;
        let (count, bytes) = buf.split_at(8);
        let word = |half: &[u8]| u64::from_le_bytes(half.try_into().expect("8 bytes"));
        Ok((word(count), word(bytes)))
    }

    /// Allocates `len` payload bytes, reusing the lowest freed block of
    /// the same size class when one exists.
    ///
    /// # Errors
    ///
    /// [`PHeapError::TooLarge`] beyond [`MAX_ALLOC`](crate::MAX_ALLOC);
    /// [`PHeapError::OutOfMemory`] when the region is exhausted.
    pub fn alloc(&mut self, len: usize) -> Result<PPtr, PHeapError> {
        let class = size_class(len).ok_or(PHeapError::TooLarge { requested: len })?;
        let payload = if let Some(Reverse(freed)) = self.freed[class].pop() {
            freed
        } else {
            // Slab path: slice the next block off this class's current
            // run, carving a fresh page-aligned run from the wilderness
            // when the run is exhausted. Per-class runs keep small
            // metadata blocks densely packed, away from large blobs.
            let (block, run_bytes) = run_geometry(class);
            let cursor_off = OFF_RUN_CURSOR + (class as u64) * 8;
            let end_off = OFF_RUN_END + (class as u64) * 8;
            let mut cursor = self.get_u64(cursor_off)?;
            let end = self.get_u64(end_off)?;
            if cursor == 0 || cursor + block > end {
                let bump = self.get_u64(OFF_BUMP)?;
                let region_len = self.get_u64(OFF_REGION_LEN)?;
                if bump + run_bytes > region_len {
                    return Err(PHeapError::OutOfMemory);
                }
                self.put_u64(OFF_BUMP, bump + run_bytes)?;
                self.put_u64(end_off, bump + run_bytes)?;
                self.record_run(bump, run_bytes, class);
                cursor = bump;
            }
            self.put_u64(cursor_off, cursor + block)?;
            cursor + HEADER_BYTES
        };
        self.put_u64(payload - HEADER_BYTES, class as u64 | ALLOC_FLAG)?;
        self.set_live(payload, true);
        let (count, bytes) = self.live_totals()?;
        self.put_u64(OFF_ALLOC_COUNT, count + 1)?;
        self.put_u64(OFF_ALLOC_BYTES, bytes + class_size(class) as u64)?;
        Ok(PPtr(payload))
    }

    /// Frees an allocation, making its block reusable by the same class:
    /// the header and live totals are written, the free set is volatile.
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadPointer`] for wild pointers and double frees.
    pub fn free(&mut self, ptr: PPtr) -> Result<(), PHeapError> {
        let class = self.live_class(ptr)?;
        self.put_u64(ptr.0 - HEADER_BYTES, class as u64)?; // clear ALLOC_FLAG
        self.set_live(ptr.0, false);
        self.freed[class].push(Reverse(ptr.0));
        let (count, bytes) = self.live_totals()?;
        self.put_u64(OFF_ALLOC_COUNT, count - 1)?;
        self.put_u64(OFF_ALLOC_BYTES, bytes - class_size(class) as u64)?;
        Ok(())
    }

    /// The usable payload size of a live allocation (its class size).
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadPointer`] if `ptr` is not a live allocation.
    pub fn usable_size(&mut self, ptr: PPtr) -> Result<usize, PHeapError> {
        Ok(class_size(self.live_class(ptr)?))
    }

    /// Writes `data` at byte `offset` within the allocation.
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadPointer`] / [`PHeapError::OutOfBounds`].
    pub fn write(&mut self, ptr: PPtr, offset: u64, data: &[u8]) -> Result<(), PHeapError> {
        let at = self.locate(ptr, offset, data.len())?;
        self.heap.write(self.region, at, data)?;
        Ok(())
    }

    /// Reads `buf.len()` bytes at byte `offset` within the allocation.
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadPointer`] / [`PHeapError::OutOfBounds`].
    pub fn read(&mut self, ptr: PPtr, offset: u64, buf: &mut [u8]) -> Result<(), PHeapError> {
        let at = self.locate(ptr, offset, buf.len())?;
        self.heap.read(self.region, at, buf)?;
        Ok(())
    }

    /// The region offset of byte `offset` of the allocation at `ptr`, once
    /// `offset..offset + len` is known to lie inside it. Both sums are
    /// checked: a wrapped one would pass the bound and land the access
    /// below the allocation, across its block header.
    fn locate(&mut self, ptr: PPtr, offset: u64, len: usize) -> Result<u64, PHeapError> {
        let size = self.usable_size(ptr)? as u64;
        let end = offset.checked_add(len as u64);
        if end.is_none_or(|end| end > size) {
            return Err(PHeapError::OutOfBounds);
        }
        ptr.0.checked_add(offset).ok_or(PHeapError::OutOfBounds)
    }

    /// Stores a pointer in root slot `slot` (or clears it with `None`).
    /// Roots are how persistent structures are found again after a power
    /// cycle.
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadPointer`] if `slot >= 16` or the pointer is not a
    /// live allocation.
    pub fn set_root(&mut self, slot: usize, ptr: Option<PPtr>) -> Result<(), PHeapError> {
        if slot >= NUM_ROOTS {
            return Err(PHeapError::BadPointer);
        }
        if let Some(p) = ptr {
            self.live_class(p)?;
        }
        self.put_u64(OFF_ROOTS + (slot as u64) * 8, ptr.map_or(0, |p| p.0))
    }

    /// Reads root slot `slot`.
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadPointer`] if `slot >= 16`.
    pub fn root(&mut self, slot: usize) -> Result<Option<PPtr>, PHeapError> {
        if slot >= NUM_ROOTS {
            return Err(PHeapError::BadPointer);
        }
        let raw = self.get_u64(OFF_ROOTS + (slot as u64) * 8)?;
        Ok((raw != 0).then_some(PPtr(raw)))
    }

    /// Current allocator statistics.
    ///
    /// # Errors
    ///
    /// Propagates NV-DRAM access failures.
    pub fn stats(&mut self) -> Result<PHeapStats, PHeapError> {
        Ok(PHeapStats {
            live_allocs: self.get_u64(OFF_ALLOC_COUNT)?,
            live_bytes: self.get_u64(OFF_ALLOC_BYTES)?,
            bump: self.get_u64(OFF_BUMP)?,
            region_len: self.get_u64(OFF_REGION_LEN)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::{Clock, CostModel};
    use ssd_sim::SsdConfig;
    use viyojit::{NvdramBaseline, Viyojit, ViyojitConfig};

    fn pheap_pages(pages: usize) -> PHeap<NvdramBaseline> {
        let nv = NvdramBaseline::new(pages, Clock::new(), CostModel::free(), SsdConfig::instant());
        PHeap::format(nv, (pages as u64 - 1) * 4096).unwrap()
    }

    #[test]
    fn alloc_write_read_round_trips() {
        let mut h = pheap_pages(16);
        let p = h.alloc(50).unwrap();
        h.write(p, 0, b"hello persistent world").unwrap();
        let mut buf = [0u8; 22];
        h.read(p, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello persistent world");
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let mut h = pheap_pages(32);
        let ptrs: Vec<PPtr> = (0..20).map(|_| h.alloc(64).unwrap()).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            h.write(p, 0, &[i as u8; 64]).unwrap();
        }
        for (i, &p) in ptrs.iter().enumerate() {
            let mut buf = [0u8; 64];
            h.read(p, 0, &mut buf).unwrap();
            assert_eq!(buf, [i as u8; 64], "allocation {i} was clobbered");
        }
    }

    #[test]
    fn free_makes_blocks_reusable() {
        let mut h = pheap_pages(16);
        let p = h.alloc(100).unwrap();
        h.free(p).unwrap();
        let q = h.alloc(100).unwrap();
        assert_eq!(p, q, "same class should reuse the freed block");
    }

    #[test]
    fn free_lists_are_per_class() {
        let mut h = pheap_pages(16);
        let small = h.alloc(16).unwrap();
        h.free(small).unwrap();
        let big = h.alloc(1000).unwrap();
        assert_ne!(small, big, "a freed 16 B block must not satisfy 1000 B");
    }

    #[test]
    fn double_free_is_detected() {
        let mut h = pheap_pages(16);
        let p = h.alloc(32).unwrap();
        h.free(p).unwrap();
        assert_eq!(h.free(p), Err(PHeapError::BadPointer));
    }

    #[test]
    fn wild_pointers_are_rejected() {
        let mut h = pheap_pages(16);
        assert_eq!(
            h.usable_size(PPtr::from_offset(3)),
            Err(PHeapError::BadPointer)
        );
        assert_eq!(
            h.read(PPtr::from_offset(0), 0, &mut [0u8; 1]),
            Err(PHeapError::BadPointer)
        );
    }

    #[test]
    fn bounds_are_enforced_at_class_size() {
        let mut h = pheap_pages(16);
        let p = h.alloc(20).unwrap(); // class 32
        assert!(h.write(p, 0, &[0u8; 32]).is_ok());
        assert_eq!(h.write(p, 0, &[0u8; 33]), Err(PHeapError::OutOfBounds));
        assert_eq!(h.read(p, 30, &mut [0u8; 3]), Err(PHeapError::OutOfBounds));
    }

    /// `offset + len` wraps to 4 here. Taken unchecked (release) it passes
    /// the bound and `ptr + offset` wraps to four bytes *below* the
    /// allocation, so the access straddles the block header; in debug the
    /// sum panics. Both profiles must report `OutOfBounds` and touch nothing.
    #[test]
    fn offsets_that_wrap_are_out_of_bounds() {
        let mut h = pheap_pages(16);
        let p = h.alloc(32).unwrap();
        h.write(p, 0, &[7u8; 32]).unwrap();
        let offset = u64::MAX - 3;
        assert_eq!(
            h.read(p, offset, &mut [0u8; 8]),
            Err(PHeapError::OutOfBounds)
        );
        assert_eq!(
            h.write(p, offset, &[0xFFu8; 8]),
            Err(PHeapError::OutOfBounds)
        );
        assert_eq!(h.usable_size(p), Ok(32), "block header left intact");
        let mut buf = [0u8; 32];
        h.read(p, 0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 32], "payload left intact");
    }

    #[test]
    fn oversized_allocations_are_rejected() {
        let mut h = pheap_pages(64);
        assert!(matches!(
            h.alloc(crate::MAX_ALLOC + 1),
            Err(PHeapError::TooLarge { .. })
        ));
        assert!(matches!(h.alloc(0), Err(PHeapError::TooLarge { .. })));
    }

    #[test]
    fn out_of_memory_is_reported_not_corrupted() {
        let mut h = pheap_pages(4); // tiny: superblock + ~3 pages
        let mut live = Vec::new();
        loop {
            match h.alloc(4096) {
                Ok(p) => live.push(p),
                Err(PHeapError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // Everything allocated before exhaustion still works.
        for (i, &p) in live.iter().enumerate() {
            h.write(p, 0, &[i as u8; 8]).unwrap();
        }
        let stats = h.stats().unwrap();
        assert_eq!(stats.live_allocs, live.len() as u64);
    }

    #[test]
    fn roots_survive_and_validate() {
        let mut h = pheap_pages(16);
        let p = h.alloc(64).unwrap();
        h.set_root(3, Some(p)).unwrap();
        assert_eq!(h.root(3).unwrap(), Some(p));
        h.set_root(3, None).unwrap();
        assert_eq!(h.root(3).unwrap(), None);
        assert_eq!(h.set_root(99, Some(p)), Err(PHeapError::BadPointer));
    }

    #[test]
    fn stats_track_alloc_and_free() {
        let mut h = pheap_pages(16);
        let p = h.alloc(100).unwrap(); // class 128
        let q = h.alloc(16).unwrap();
        let s = h.stats().unwrap();
        assert_eq!(s.live_allocs, 2);
        assert_eq!(s.live_bytes, 128 + 16);
        h.free(p).unwrap();
        h.free(q).unwrap();
        let s = h.stats().unwrap();
        assert_eq!(s.live_allocs, 0);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn open_rejects_unformatted_regions() {
        let mut nv = NvdramBaseline::new(8, Clock::new(), CostModel::free(), SsdConfig::instant());
        let region = nv.map(8 * 4096).unwrap();
        assert!(matches!(PHeap::open(nv, region), Err(PHeapError::BadImage)));
    }

    /// Where [`reopen_doctored`]'s heap ends: three four-page runs and the
    /// nine pages of the 32 KiB class's.
    const DOCTORED_BUMP: u64 = DATA_START + 3 * RUN_BYTES + 9 * 4096;

    /// A heap with live and freed blocks in four runs, reopened after
    /// `word` was written over the image at `offset` (`None`: untouched).
    fn reopen_doctored(doctor: Option<(u64, u64)>) -> Result<PHeap<NvdramBaseline>, PHeapError> {
        let mut h = pheap_pages(32);
        let region = h.region();
        let small: Vec<PPtr> = (0..3).map(|_| h.alloc(64).unwrap()).collect();
        h.alloc(1000).unwrap();
        h.alloc(20_000).unwrap();
        h.alloc(5000).unwrap();
        h.free(small[1]).unwrap();
        if let Some((offset, word)) = doctor {
            h.heap_mut()
                .write(region, offset, &word.to_le_bytes())
                .unwrap();
        }
        PHeap::open(h.into_inner(), region)
    }

    /// `open` sizes its walk from the superblock and believes each run's
    /// first header, so every one of those words is checked against the
    /// region and against its neighbours before it is used.
    #[test]
    fn open_rejects_a_superblock_or_header_that_contradicts_the_image() {
        let region_len = 31 * 4096;
        let mut intact = reopen_doctored(None).expect("the undoctored image opens");
        let bump = intact.stats().unwrap().bump;
        assert_eq!(bump, DOCTORED_BUMP);
        let block_64 = HEADER_BYTES + 64;
        let doctored = [
            ("magic", OFF_MAGIC, 0),
            ("version", OFF_VERSION, VERSION + 1),
            (
                "region length past the mapping",
                OFF_REGION_LEN,
                region_len + 4096,
            ),
            (
                "region length short of the mapping",
                OFF_REGION_LEN,
                region_len - 4096,
            ),
            ("bump inside the superblock", OFF_BUMP, 0),
            ("bump past the region", OFF_BUMP, region_len + 4096),
            ("bump far past the region", OFF_BUMP, !4095u64),
            ("bump off the page grid", OFF_BUMP, bump + 8),
            ("bump past the last run", OFF_BUMP, bump + 4096),
            ("bump inside the last run", OFF_BUMP, bump - 4096),
            ("run header of no class", DATA_START, NUM_CLASSES as u64),
            ("run header with stray bits", DATA_START, 2 | 1 << 40),
            (
                "run header of a class whose run overshoots",
                DOCTORED_BUMP - RUN_BYTES,
                12 | ALLOC_FLAG,
            ),
            (
                "block header of another run's class",
                DATA_START + block_64,
                6 | ALLOC_FLAG,
            ),
            (
                "run cursor behind a carved block",
                OFF_RUN_CURSOR + 2 * 8,
                DATA_START + block_64,
            ),
        ];
        for (what, offset, word) in doctored {
            assert!(
                matches!(
                    reopen_doctored(Some((offset, word))),
                    Err(PHeapError::BadImage)
                ),
                "{what}: {offset:#x} <- {word:#x} must not open"
            );
        }
    }

    /// A freed 16 B block's header reads 0, as do the never-carved slots
    /// behind it: the run cursor alone tells them apart. Slots taken for
    /// freed blocks come back in the cursor's own order, so the heap looks
    /// right until they run out and the cursor hands one out again: the
    /// run is filled to be sure.
    #[test]
    fn a_freed_class_0_block_is_told_from_never_carved_slots_by_the_run_cursor() {
        let mut h = pheap_pages(16);
        let region = h.region();
        let (freed, live) = (h.alloc(16).unwrap(), h.alloc(1).unwrap());
        h.free(freed).unwrap();
        let mut h = PHeap::open(h.into_inner(), region).unwrap();
        let block = HEADER_BYTES + 16;
        assert_eq!(h.alloc(16), Ok(freed));
        assert_eq!(h.alloc(16), Ok(PPtr(live.0 + block)));
        let mut seen = std::collections::BTreeSet::from([freed, live, PPtr(live.0 + block)]);
        // The rest of the run, then the first block of the next.
        for _ in 3..RUN_BYTES / block + 1 {
            let p = h.alloc(16).unwrap();
            assert!(seen.insert(p), "{p} handed out twice");
        }
        assert_eq!(h.stats().unwrap().bump, DATA_START + 2 * RUN_BYTES);
    }

    /// Freed blocks come back lowest address first, whatever order they
    /// were freed in, and the order is rebuilt by a reopen.
    #[test]
    fn freed_blocks_are_reused_lowest_address_first() {
        let mut h = pheap_pages(16);
        let region = h.region();
        let p: Vec<PPtr> = (0..4).map(|_| h.alloc(100).unwrap()).collect();
        for i in [2, 0, 3] {
            h.free(p[i]).unwrap();
        }
        assert_eq!(h.alloc(100), Ok(p[0]));
        h.free(p[1]).unwrap();
        let mut h = PHeap::open(h.into_inner(), region).unwrap();
        for i in [1, 2, 3] {
            assert_eq!(h.alloc(100), Ok(p[i]));
        }
        assert_eq!(h.alloc(100), Ok(PPtr(p[3].0 + HEADER_BYTES + 128)));
    }

    /// Pointers beside a live payload — its header, its second word, its
    /// middle — and pointers to freed blocks are not allocations, whatever
    /// bytes sit eight below them.
    #[test]
    fn only_payload_starts_of_live_blocks_are_pointers() {
        let mut h = pheap_pages(16);
        let p = h.alloc(64).unwrap();
        h.write(p, 0, &(2 | ALLOC_FLAG).to_le_bytes()).unwrap(); // a header look-alike
        for off in [-8i64, 8, 32, 1] {
            let near = PPtr::from_offset(p.offset().wrapping_add_signed(off));
            assert_eq!(h.usable_size(near), Err(PHeapError::BadPointer), "{off:+}");
            assert_eq!(h.free(near), Err(PHeapError::BadPointer), "{off:+}");
            assert_eq!(h.set_root(0, Some(near)), Err(PHeapError::BadPointer));
        }
        h.free(p).unwrap();
        assert_eq!(h.read(p, 0, &mut [0u8; 8]), Err(PHeapError::BadPointer));
        assert_eq!(h.write(p, 0, &[0u8; 8]), Err(PHeapError::BadPointer));
        assert_eq!(h.set_root(0, Some(p)), Err(PHeapError::BadPointer));
    }

    /// The on-NV layout is `VERSION` 1's, byte for byte: this image is
    /// written word by word at literal offsets, as the allocator that kept
    /// no volatile state wrote it, and must open and carry on.
    #[test]
    fn opens_an_image_written_word_by_word_in_the_version_1_layout() {
        const ALLOCATED: u64 = 1 << 63;
        let mut nv = NvdramBaseline::new(16, Clock::new(), CostModel::free(), SsdConfig::instant());
        let len = 14 * 4096;
        let region = nv.map(len).unwrap();
        let mut put = |offset: u64, word: u64| {
            nv.write(region, offset, &word.to_le_bytes()).unwrap();
        };
        // Superblock: magic, version, region length, bump, live count and bytes.
        put(0, 0x5649_594f_4a49_5431);
        put(8, 1);
        put(16, len);
        put(24, 4096 + 2 * 16_384);
        put(32, 2);
        put(40, 64 + 1024);
        // A run of 64 B blocks (class 2, 72 B apart) at page 1: slot 0 live,
        // slot 1 freed, the rest never carved. The allocator that wrote this
        // threaded freed blocks on a list whose head sat in the superblock;
        // the head and the block's next pointer are now ignored.
        put(4096, 2 | ALLOCATED);
        put(4096 + 8, 0xFEED);
        put(4096 + 72, 2);
        put(4096 + 72 + 8, 0); // end of the free list
        put(48 + 2 * 8, 4096 + 72 + 8); // free-list head, class 2
        put(280 + 2 * 8, 4096 + 2 * 72); // run cursor, class 2
        put(384 + 2 * 8, 4096 + 16_384); // run end, class 2
                                         // A run of 1 KiB blocks (class 6, 1032 B apart) behind it: slot 0 live.
        put(20_480, 6 | ALLOCATED);
        put(280 + 6 * 8, 20_480 + 1032);
        put(384 + 6 * 8, 20_480 + 16_384);
        put(152, 4096 + 8); // root slot 0

        let mut h = PHeap::open(nv, region).unwrap();
        let (small, large) = (PPtr(4096 + 8), PPtr(20_480 + 8));
        assert_eq!(h.root(0).unwrap(), Some(small));
        assert_eq!(h.usable_size(small), Ok(64));
        assert_eq!(h.usable_size(large), Ok(1024));
        let mut word = [0u8; 8];
        h.read(small, 0, &mut word).unwrap();
        assert_eq!(u64::from_le_bytes(word), 0xFEED);
        let freed = PPtr(4096 + 72 + 8);
        assert_eq!(h.usable_size(freed), Err(PHeapError::BadPointer));
        assert_eq!(h.alloc(64), Ok(freed), "the freed block is reused first");
        assert_eq!(h.alloc(64), Ok(PPtr(4096 + 2 * 72 + 8)), "then the cursor");
        assert_eq!(h.alloc(1000), Ok(PPtr(20_480 + 1032 + 8)));
        assert_eq!(
            h.alloc(100),
            Ok(PPtr(4096 + 2 * 16_384 + 8)),
            "a run off the bump"
        );
        h.free(small).unwrap();
        assert_eq!(h.free(small), Err(PHeapError::BadPointer));
        let stats = h.stats().unwrap();
        assert_eq!(
            (stats.live_allocs, stats.live_bytes),
            (5, 64 * 2 + 1024 * 2 + 128)
        );
    }

    #[test]
    fn heap_survives_power_cycle_on_viyojit() {
        let nv = Viyojit::new(
            32,
            ViyojitConfig::with_budget_pages(4),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let mut h = PHeap::format(nv, 24 * 4096).unwrap();
        let region = h.region();
        let p = h.alloc(200).unwrap();
        h.write(p, 0, b"outlives the power grid").unwrap();
        h.set_root(0, Some(p)).unwrap();

        let mut nv = h.into_inner();
        nv.power_failure();
        nv.recover();

        let mut h = PHeap::open(nv, region).unwrap();
        let p = h.root(0).unwrap().expect("root survives");
        let mut buf = [0u8; 23];
        h.read(p, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"outlives the power grid");
        // The allocator keeps working after recovery.
        let q = h.alloc(64).unwrap();
        h.write(q, 0, &[1; 64]).unwrap();
    }
}
