//! On-NV-DRAM layout of the persistent heap.
//!
//! ```text
//! offset 0 ─┬─ superblock (one page)
//!           │    0  magic
//!           │    8  version
//!           │   16  region length (bytes)
//!           │   24  bump pointer (next unallocated offset)
//!           │   32  live allocation count
//!           │   40  live allocated bytes
//!           │   48  reserved (once free-list heads), one u64 per class
//!           │  152  root directory, 16 u64 slots; then run cursors, ends
//! page 1 ──┴─ data: [8-byte header][payload] blocks
//! ```

/// Identifies a formatted heap. ("VIYOJIT1" in ASCII.)
pub(crate) const MAGIC: u64 = 0x5649_594f_4a49_5431;
/// Layout version.
pub(crate) const VERSION: u64 = 1;

/// Number of size classes: powers of two from 16 B to 64 KiB.
pub const NUM_CLASSES: usize = 13;
/// Smallest class payload size.
pub(crate) const MIN_CLASS: usize = 16;
/// Largest supported allocation (payload bytes).
pub const MAX_ALLOC: usize = MIN_CLASS << (NUM_CLASSES - 1); // 64 KiB

/// Per-block header: low 8 bits = class index, bit 63 = allocated flag.
pub(crate) const HEADER_BYTES: u64 = 8;
pub(crate) const ALLOC_FLAG: u64 = 1 << 63;

/// Superblock field offsets.
pub(crate) const OFF_MAGIC: u64 = 0;
pub(crate) const OFF_VERSION: u64 = 8;
pub(crate) const OFF_REGION_LEN: u64 = 16;
pub(crate) const OFF_BUMP: u64 = 24;
pub(crate) const OFF_ALLOC_COUNT: u64 = 32;
pub(crate) const OFF_ALLOC_BYTES: u64 = 40;
pub(crate) const OFF_ROOTS: u64 = OFF_ALLOC_BYTES + 8 + (NUM_CLASSES as u64) * 8;
/// Number of named root slots.
pub(crate) const NUM_ROOTS: usize = 16;
/// Per-class slab-run cursors and limits: like jemalloc, each size class
/// carves page-aligned runs from the wilderness and slices them into
/// blocks, so small metadata objects pack densely instead of interleaving
/// with large blobs. (This density is what keeps read-path metadata
/// updates confined to few pages — the Redis behaviour behind the paper's
/// low YCSB-C overhead.)
pub(crate) const OFF_RUN_CURSOR: u64 = OFF_ROOTS + (NUM_ROOTS as u64) * 8;
pub(crate) const OFF_RUN_END: u64 = OFF_RUN_CURSOR + (NUM_CLASSES as u64) * 8;
/// Bytes per slab run for blocks that fit a page (4 pages keeps tail waste
/// under ~6% for the 1 KiB class).
pub(crate) const RUN_BYTES: u64 = 4 * 4096;
/// First data byte (superblock keeps a page to itself).
pub(crate) const DATA_START: u64 = 4096;

/// The size class that fits a payload of `len` bytes, if any.
///
/// # Examples
///
/// ```
/// use pheap::{class_size, size_class};
///
/// assert_eq!(size_class(1), Some(0));
/// assert_eq!(size_class(16), Some(0));
/// assert_eq!(size_class(17), Some(1));
/// assert_eq!(class_size(1), 32);
/// assert_eq!(size_class(usize::MAX), None);
/// ```
pub fn size_class(len: usize) -> Option<usize> {
    if len == 0 || len > MAX_ALLOC {
        return None;
    }
    let needed = len.max(MIN_CLASS).next_power_of_two();
    Some(needed.trailing_zeros() as usize - MIN_CLASS.trailing_zeros() as usize)
}

/// Payload bytes of size class `class`.
///
/// # Panics
///
/// Panics if `class >= NUM_CLASSES`.
pub fn class_size(class: usize) -> usize {
    assert!(class < NUM_CLASSES, "size class {class} out of range");
    MIN_CLASS << class
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_expected_ranges() {
        assert_eq!(size_class(0), None);
        assert_eq!(size_class(15), Some(0));
        assert_eq!(size_class(16), Some(0));
        assert_eq!(size_class(17), Some(1));
        assert_eq!(size_class(MAX_ALLOC), Some(NUM_CLASSES - 1));
        assert_eq!(size_class(MAX_ALLOC + 1), None);
    }

    #[test]
    fn class_size_round_trips_with_size_class() {
        for c in 0..NUM_CLASSES {
            let size = class_size(c);
            assert_eq!(size_class(size), Some(c));
            assert_eq!(
                size_class(size + 1),
                if c + 1 < NUM_CLASSES {
                    Some(c + 1)
                } else {
                    None
                }
            );
        }
    }

    #[test]
    fn superblock_fits_in_one_page() {
        assert!(OFF_RUN_END + (NUM_CLASSES as u64) * 8 <= DATA_START);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_size_rejects_bad_class() {
        let _ = class_size(NUM_CLASSES);
    }
}
