//! Page-table entries and the per-region page table.

use std::fmt;

use crate::bitmap::{extend_from_word, Bitmap2L};
use crate::PageId;

/// Permission and status bits of one page-table entry.
///
/// Mirrors the x86-64 bits Viyojit manipulates: present, writable (the
/// write-protection bit, inverted) and dirty, plus §5.4's shadow dirty
/// bit.
///
/// # Examples
///
/// ```
/// use mem_sim::PteFlags;
///
/// let f = PteFlags::present().with_writable(true).with_dirty(true);
/// assert!(f.is_writable() && f.is_dirty());
/// assert!(!f.with_dirty(false).is_dirty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags(u8);

impl PteFlags {
    const PRESENT: u8 = 1 << 0;
    const WRITABLE: u8 = 1 << 1;
    const DIRTY: u8 = 1 << 2;
    const SHADOW_DIRTY: u8 = 1 << 3;

    /// A present, read-only, clean entry.
    pub const fn present() -> Self {
        PteFlags(Self::PRESENT)
    }

    /// A non-present entry.
    pub const fn not_present() -> Self {
        PteFlags(0)
    }

    /// `true` if the page is mapped.
    pub const fn is_present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// `true` if writes are allowed (write-protection bit clear).
    pub const fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE != 0
    }

    /// `true` if the hardware dirty bit is set.
    pub const fn is_dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    /// Returns a copy with the writable bit set to `w`.
    #[must_use]
    pub const fn with_writable(self, w: bool) -> Self {
        if w {
            PteFlags(self.0 | Self::WRITABLE)
        } else {
            PteFlags(self.0 & !Self::WRITABLE)
        }
    }

    /// Returns a copy with the dirty bit set to `d`.
    #[must_use]
    pub const fn with_dirty(self, d: bool) -> Self {
        if d {
            PteFlags(self.0 | Self::DIRTY)
        } else {
            PteFlags(self.0 & !Self::DIRTY)
        }
    }

    /// `true` if the shadow dirty bit is set. The shadow bit is the §5.4
    /// MMU extension: hardware sets it together with the dirty bit, and
    /// software reads and clears it to track update recency *without*
    /// disturbing the dirty bit the hardware counter depends on.
    pub const fn is_shadow_dirty(self) -> bool {
        self.0 & Self::SHADOW_DIRTY != 0
    }

    /// Returns a copy with the shadow dirty bit set to `d`.
    #[must_use]
    pub const fn with_shadow_dirty(self, d: bool) -> Self {
        if d {
            PteFlags(self.0 | Self::SHADOW_DIRTY)
        } else {
            PteFlags(self.0 & !Self::SHADOW_DIRTY)
        }
    }
}

impl fmt::Display for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            if self.is_present() { 'P' } else { '-' },
            if self.is_writable() { 'W' } else { '-' },
            if self.is_dirty() { 'D' } else { '-' },
            if self.is_shadow_dirty() { 'S' } else { '-' },
        )
    }
}

/// The page table of one simulated NV-DRAM region.
///
/// Software (the Viyojit kernel module in the paper) manipulates these
/// entries directly; the [`Mmu`](crate::Mmu) consults and updates them on
/// every access that misses the TLB.
///
/// Internally the table is stored column-wise: one [`Bitmap2L`] per
/// mutable flag rather than a `Vec<PteFlags>` row per page. Scans that
/// care about one flag — the discovery scan, the shadow walk,
/// `dirty_count` — borrow that column (`dirty_bits`, `shadow_dirty_bits`,
/// `writable_bits`) and run the bitmap's density-dispatched collectors
/// over it instead of touching every entry. Every entry is present for
/// the table's whole life (the simulated region is never swapped out), so
/// that bit is a constant of [`PageTable::flags`], not a column.
///
/// # Examples
///
/// ```
/// use mem_sim::{PageId, PageTable};
///
/// let mut pt = PageTable::new(8);
/// pt.set_writable(PageId(3), true);
/// assert!(pt.flags(PageId(3)).is_writable());
/// assert!(!pt.flags(PageId(4)).is_writable());
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    writable: Bitmap2L,
    dirty: Bitmap2L,
    shadow: Bitmap2L,
}

impl PageTable {
    /// Creates a table of `pages` present, write-protected, clean entries —
    /// the state Viyojit establishes at startup (Fig. 6 step 1).
    pub fn new(pages: usize) -> Self {
        PageTable {
            writable: Bitmap2L::new(pages),
            dirty: Bitmap2L::new(pages),
            shadow: Bitmap2L::new(pages),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// The flags of `page`, reassembled from the per-flag bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn flags(&self, page: PageId) -> PteFlags {
        let i = page.index();
        PteFlags::present()
            .with_writable(self.writable.test(i))
            .with_dirty(self.dirty.test(i))
            .with_shadow_dirty(self.shadow.test(i))
    }

    /// Sets the writable bit of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn set_writable(&mut self, page: PageId, writable: bool) {
        if writable {
            self.writable.set(page.index());
        } else {
            self.writable.clear(page.index());
        }
    }

    /// Sets the dirty bit of `page` (as the MMU does on a tracked write).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[inline]
    pub fn set_dirty(&mut self, page: PageId, dirty: bool) {
        if dirty {
            self.dirty.set(page.index());
        } else {
            self.dirty.clear(page.index());
        }
    }

    /// Reads and clears the dirty bit of `page`, returning its prior value.
    /// This is the per-entry primitive of §5.2's epoch walk.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[inline]
    pub fn take_dirty(&mut self, page: PageId) -> bool {
        self.dirty.clear(page.index())
    }

    /// Reads and clears the dirty bit of every page set in `known`, a word
    /// at a time, appending the pages found dirty to `out` in ascending
    /// order — §5.2's epoch walk with the walker's known-dirty bitmap as
    /// the mask. Each non-zero word of `known` (found along its
    /// density-dispatched scan path, recorded in
    /// [`dispatch`](crate::dispatch)) is one [`Bitmap2L::take_word`] on the
    /// column, so the walk costs O(non-zero words of `known` + pages
    /// appended), not O(pages in `known`).
    ///
    /// # Panics
    ///
    /// Panics if `known` has a page set past this table's last word.
    pub fn take_dirty_in(&mut self, known: &Bitmap2L, out: &mut Vec<PageId>) {
        take_column_in(&mut self.dirty, known, out);
    }

    /// Sets the shadow dirty bit of `page` (hardware mirror of the dirty
    /// bit, §5.4).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn set_shadow_dirty(&mut self, page: PageId, dirty: bool) {
        if dirty {
            self.shadow.set(page.index());
        } else {
            self.shadow.clear(page.index());
        }
    }

    /// Reads and clears the shadow dirty bit of `page`, returning its
    /// prior value — the §5.4 recency-tracking primitive that leaves the
    /// real dirty bit (and the hardware counter) untouched.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn take_shadow_dirty(&mut self, page: PageId) -> bool {
        self.shadow.clear(page.index())
    }

    /// [`PageTable::take_dirty_in`] over the shadow dirty column.
    ///
    /// # Panics
    ///
    /// Panics if `known` has a page set past this table's last word.
    pub fn take_shadow_dirty_in(&mut self, known: &Bitmap2L, out: &mut Vec<PageId>) {
        take_column_in(&mut self.shadow, known, out);
    }

    /// `true` if the dirty bit of `page` is set, without assembling the
    /// full flag set — the write-path fast check.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn is_dirty(&self, page: PageId) -> bool {
        self.dirty.test(page.index())
    }

    /// Iterates over `(PageId, PteFlags)` for every entry.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, PteFlags)> + '_ {
        (0..self.len()).map(|i| {
            let page = PageId(i as u64);
            (page, self.flags(page))
        })
    }

    /// Count of entries whose dirty bit is set. O(1): the bitmap keeps a
    /// running popcount.
    pub fn dirty_count(&self) -> usize {
        self.dirty.count()
    }

    /// Clears every dirty bit. O(words), regardless of how many are set.
    pub fn clear_all_dirty(&mut self) {
        self.dirty.clear_all();
    }

    /// Clears every shadow dirty bit. O(words).
    pub fn clear_all_shadow_dirty(&mut self) {
        self.shadow.clear_all();
    }

    /// The dirty-bit column as a bitmap, for word-level scans.
    pub fn dirty_bits(&self) -> &Bitmap2L {
        &self.dirty
    }

    /// The shadow-dirty-bit column as a bitmap, for word-level scans.
    pub fn shadow_dirty_bits(&self) -> &Bitmap2L {
        &self.shadow
    }

    /// The writable-bit column as a bitmap, for word-level scans.
    pub fn writable_bits(&self) -> &Bitmap2L {
        &self.writable
    }
}

/// The masked word drain behind the `take_*_in` walks.
fn take_column_in(column: &mut Bitmap2L, known: &Bitmap2L, out: &mut Vec<PageId>) {
    known.for_each_word(|w, mask| {
        extend_from_word(out, w, column.take_word(w, mask), |i| PageId(i as u64));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_is_protected_and_clean() {
        let pt = PageTable::new(4);
        for (_, f) in pt.iter() {
            assert!(f.is_present());
            assert!(!f.is_writable());
            assert!(!f.is_dirty());
            assert!(!f.is_shadow_dirty());
        }
    }

    #[test]
    fn flag_bits_are_independent() {
        let f = PteFlags::present()
            .with_writable(true)
            .with_dirty(true)
            .with_shadow_dirty(true);
        assert!(f.is_present() && f.is_writable() && f.is_dirty() && f.is_shadow_dirty());
        let f2 = f.with_dirty(false);
        assert!(f2.is_writable() && f2.is_shadow_dirty() && !f2.is_dirty());
    }

    #[test]
    fn take_dirty_clears_and_reports() {
        let mut pt = PageTable::new(2);
        pt.set_dirty(PageId(1), true);
        assert!(pt.take_dirty(PageId(1)));
        assert!(!pt.take_dirty(PageId(1)));
        assert!(!pt.take_dirty(PageId(0)));
    }

    #[test]
    fn dirty_count_tracks_set_bits() {
        let mut pt = PageTable::new(10);
        assert_eq!(pt.dirty_count(), 0);
        for i in [1u64, 3, 5] {
            pt.set_dirty(PageId(i), true);
        }
        assert_eq!(pt.dirty_count(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_range_page_panics() {
        let pt = PageTable::new(1);
        let _ = pt.flags(PageId(1));
    }

    #[test]
    fn display_shows_all_bits() {
        let f = PteFlags::present().with_writable(true);
        assert_eq!(f.to_string(), "PW--");
        assert_eq!(PteFlags::not_present().to_string(), "----");
        assert_eq!(
            PteFlags::present().with_shadow_dirty(true).to_string(),
            "P--S"
        );
    }

    #[test]
    fn shadow_and_dirty_columns_are_independent() {
        let mut pt = PageTable::new(70);
        pt.set_dirty(PageId(69), true);
        pt.set_shadow_dirty(PageId(69), true);
        assert!(pt.take_shadow_dirty(PageId(69)));
        assert!(pt.flags(PageId(69)).is_dirty());
        pt.clear_all_dirty();
        assert_eq!(pt.dirty_count(), 0);
    }
}
