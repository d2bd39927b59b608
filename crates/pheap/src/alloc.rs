//! The persistent heap allocator.

use std::fmt;

use viyojit::{NvHeap, RegionId};

use crate::error::PHeapError;
use crate::layout::{
    class_size, size_class, ALLOC_FLAG, DATA_START, HEADER_BYTES, MAGIC, NUM_CLASSES, NUM_ROOTS,
    OFF_ALLOC_BYTES, OFF_ALLOC_COUNT, OFF_BUMP, OFF_FREE_HEADS, OFF_MAGIC, OFF_REGION_LEN,
    OFF_ROOTS, OFF_RUN_CURSOR, OFF_RUN_END, OFF_VERSION, RUN_BYTES, VERSION,
};

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
#[derive(Debug)]
pub struct PHeap<H> {
    heap: H,
    region: RegionId,
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
        let mut this = PHeap { heap, region };
        this.put_u64(OFF_MAGIC, MAGIC)?;
        this.put_u64(OFF_VERSION, VERSION)?;
        this.put_u64(OFF_REGION_LEN, bytes)?;
        this.put_u64(OFF_BUMP, DATA_START)?;
        this.put_u64(OFF_ALLOC_COUNT, 0)?;
        this.put_u64(OFF_ALLOC_BYTES, 0)?;
        for c in 0..NUM_CLASSES {
            this.put_u64(OFF_FREE_HEADS + (c as u64) * 8, 0)?;
            this.put_u64(OFF_RUN_CURSOR + (c as u64) * 8, 0)?;
            this.put_u64(OFF_RUN_END + (c as u64) * 8, 0)?;
        }
        for r in 0..NUM_ROOTS {
            this.put_u64(OFF_ROOTS + (r as u64) * 8, 0)?;
        }
        Ok(this)
    }

    /// Opens an already-formatted heap (after recovery, or a second
    /// handle). Verifies the superblock.
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadMagic`] if the region was never formatted.
    pub fn open(mut heap: H, region: RegionId) -> Result<Self, PHeapError> {
        let mut buf = [0u8; 8];
        heap.read(region, OFF_MAGIC, &mut buf)?;
        if u64::from_le_bytes(buf) != MAGIC {
            return Err(PHeapError::BadMagic);
        }
        heap.read(region, OFF_VERSION, &mut buf)?;
        if u64::from_le_bytes(buf) != VERSION {
            return Err(PHeapError::BadMagic);
        }
        Ok(PHeap { heap, region })
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

    fn header_of(&mut self, ptr: PPtr) -> Result<(usize, bool), PHeapError> {
        if ptr.0 < DATA_START + HEADER_BYTES {
            return Err(PHeapError::BadPointer);
        }
        let header = self.get_u64(ptr.0 - HEADER_BYTES)?;
        let class = (header & 0xFF) as usize;
        if class >= NUM_CLASSES {
            return Err(PHeapError::BadPointer);
        }
        Ok((class, header & ALLOC_FLAG != 0))
    }

    /// Allocates `len` payload bytes, reusing a freed block of the same
    /// size class when one exists.
    ///
    /// # Errors
    ///
    /// [`PHeapError::TooLarge`] beyond [`MAX_ALLOC`](crate::MAX_ALLOC);
    /// [`PHeapError::OutOfMemory`] when the region is exhausted.
    pub fn alloc(&mut self, len: usize) -> Result<PPtr, PHeapError> {
        let class = size_class(len).ok_or(PHeapError::TooLarge { requested: len })?;
        let head_off = OFF_FREE_HEADS + (class as u64) * 8;
        let head = self.get_u64(head_off)?;
        let payload = if head != 0 {
            // Pop the free list: the freed block stores the next pointer in
            // its first payload word.
            let next = self.get_u64(head)?;
            self.put_u64(head_off, next)?;
            head
        } else {
            // Slab path: slice the next block off this class's current
            // run, carving a fresh page-aligned run from the wilderness
            // when the run is exhausted. Per-class runs keep small
            // metadata blocks densely packed, away from large blobs.
            let block = HEADER_BYTES + class_size(class) as u64;
            let cursor_off = OFF_RUN_CURSOR + (class as u64) * 8;
            let end_off = OFF_RUN_END + (class as u64) * 8;
            let mut cursor = self.get_u64(cursor_off)?;
            let end = self.get_u64(end_off)?;
            if cursor == 0 || cursor + block > end {
                let run_bytes = if block <= RUN_BYTES {
                    RUN_BYTES
                } else {
                    block.div_ceil(4096) * 4096
                };
                let bump = self.get_u64(OFF_BUMP)?;
                let region_len = self.get_u64(OFF_REGION_LEN)?;
                if bump + run_bytes > region_len {
                    return Err(PHeapError::OutOfMemory);
                }
                self.put_u64(OFF_BUMP, bump + run_bytes)?;
                self.put_u64(end_off, bump + run_bytes)?;
                cursor = bump;
            }
            self.put_u64(cursor_off, cursor + block)?;
            cursor + HEADER_BYTES
        };
        self.put_u64(payload - HEADER_BYTES, class as u64 | ALLOC_FLAG)?;
        let count = self.get_u64(OFF_ALLOC_COUNT)?;
        self.put_u64(OFF_ALLOC_COUNT, count + 1)?;
        let bytes = self.get_u64(OFF_ALLOC_BYTES)?;
        self.put_u64(OFF_ALLOC_BYTES, bytes + class_size(class) as u64)?;
        Ok(PPtr(payload))
    }

    /// Frees an allocation, making its block reusable by the same class.
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadPointer`] for wild pointers and double frees.
    pub fn free(&mut self, ptr: PPtr) -> Result<(), PHeapError> {
        let (class, allocated) = self.header_of(ptr)?;
        if !allocated {
            return Err(PHeapError::BadPointer);
        }
        self.put_u64(ptr.0 - HEADER_BYTES, class as u64)?; // clear ALLOC_FLAG
        let head_off = OFF_FREE_HEADS + (class as u64) * 8;
        let head = self.get_u64(head_off)?;
        self.put_u64(ptr.0, head)?;
        self.put_u64(head_off, ptr.0)?;
        let count = self.get_u64(OFF_ALLOC_COUNT)?;
        self.put_u64(OFF_ALLOC_COUNT, count - 1)?;
        let bytes = self.get_u64(OFF_ALLOC_BYTES)?;
        self.put_u64(OFF_ALLOC_BYTES, bytes - class_size(class) as u64)?;
        Ok(())
    }

    /// The usable payload size of a live allocation (its class size).
    ///
    /// # Errors
    ///
    /// [`PHeapError::BadPointer`] if `ptr` is not a live allocation.
    pub fn usable_size(&mut self, ptr: PPtr) -> Result<usize, PHeapError> {
        let (class, allocated) = self.header_of(ptr)?;
        if !allocated {
            return Err(PHeapError::BadPointer);
        }
        Ok(class_size(class))
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
            let (_, allocated) = self.header_of(p)?;
            if !allocated {
                return Err(PHeapError::BadPointer);
            }
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
        assert!(matches!(PHeap::open(nv, region), Err(PHeapError::BadMagic)));
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
