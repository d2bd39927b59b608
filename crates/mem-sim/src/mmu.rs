//! The MMU: translation, permission checks, dirty-bit maintenance, and
//! write-protection faults over a byte-addressable simulated DRAM region.

use std::error::Error;
use std::fmt;

use sim_clock::{Clock, CostModel, SimDuration};
use telemetry::{CostClass, Profiler};

use crate::{Bitmap2L, PageId, PageTable, Tlb, PAGE_SIZE};

/// Sub-page tracking granularity (§7's Mondrian-style extension): one
/// cache line.
pub const SECTOR_BYTES: usize = 64;

/// Why an access could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// A write hit a write-protected page. No bytes were written; the
    /// caller (Viyojit's fault handler) must unprotect and retry, exactly
    /// like the hardware fault/retry cycle in the paper's Fig. 6.
    WriteProtected(PageId),
    /// The access fell outside the mapped region.
    OutOfRange {
        /// Starting byte offset of the offending access.
        addr: u64,
        /// Length of the offending access.
        len: usize,
    },
    /// A write would have dirtied a new page while the hardware dirty
    /// counter already sits at its configured limit (§5.4's MMU
    /// extension). No bytes were written; the handler must free a budget
    /// slot and retry.
    DirtyLimitReached(PageId),
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::WriteProtected(p) => {
                write!(f, "write-protection fault on {p}")
            }
            AccessError::OutOfRange { addr, len } => {
                write!(f, "access of {len} bytes at offset {addr} is out of range")
            }
            AccessError::DirtyLimitReached(p) => {
                write!(f, "dirty-limit interrupt on {p}")
            }
        }
    }
}

impl Error for AccessError {}

/// How an epoch dirty-bit walk should behave.
///
/// # Examples
///
/// ```
/// use mem_sim::WalkOptions;
///
/// let exact = WalkOptions::exact();
/// assert!(exact.flush_tlb && !exact.charge_costs);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOptions {
    /// Flush the TLB before reading dirty bits, making them exact.
    pub flush_tlb: bool,
    /// Charge walk and flush costs to the shared clock (foreground walk).
    pub charge_costs: bool,
}

impl WalkOptions {
    /// Exact dirty bits, costs off the application's critical path — how
    /// Viyojit's background walker runs.
    pub const fn exact() -> Self {
        WalkOptions {
            flush_tlb: true,
            charge_costs: false,
        }
    }

    /// Stale dirty bits (no TLB flush): the §6.3 ablation configuration.
    pub const fn stale() -> Self {
        WalkOptions {
            flush_tlb: false,
            charge_costs: false,
        }
    }

    /// Exact dirty bits with costs charged to the calling timeline.
    pub const fn exact_foreground() -> Self {
        WalkOptions {
            flush_tlb: true,
            charge_costs: true,
        }
    }
}

/// Access counters maintained by the MMU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmuStats {
    /// Completed read accesses.
    pub reads: u64,
    /// Completed write accesses.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Write-protection faults raised.
    pub write_faults: u64,
    /// Writes that set a PTE dirty bit (first write since last clear,
    /// through a TLB entry with a clean cached dirty bit).
    pub pte_dirtied: u64,
}

impl MmuStats {
    /// Adds `other`'s counters field-wise into `self` (the fold a
    /// multi-MMU frontend aggregates through).
    pub fn accumulate(&mut self, other: &MmuStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.write_faults += other.write_faults;
        self.pte_dirtied += other.pte_dirtied;
    }
}

/// The simulated MMU for one NV-DRAM region: page table + TLB + backing
/// bytes + virtual-time cost accounting.
///
/// All application accesses go through [`Mmu::read`] / [`Mmu::write`];
/// privileged software (Viyojit) manipulates protection with
/// [`Mmu::protect_page`] / [`Mmu::unprotect_page`] and performs epoch walks
/// with [`Mmu::walk_and_clear_dirty_in`]. DMA-style access for the flusher and
/// recovery bypasses translation via [`Mmu::page_data`] /
/// [`Mmu::page_data_mut`] / [`Mmu::load_page`].
///
/// # Examples
///
/// ```
/// use mem_sim::{Mmu, PageId};
/// use sim_clock::{Clock, CostModel};
///
/// let mut mmu = Mmu::new(4, Clock::new(), CostModel::free());
/// mmu.write(10, b"abc")?;
/// let mut buf = [0u8; 3];
/// mmu.read(10, &mut buf)?;
/// assert_eq!(&buf, b"abc");
/// # Ok::<(), mem_sim::AccessError>(())
/// ```
#[derive(Debug)]
pub struct Mmu {
    page_table: PageTable,
    tlb: Tlb,
    memory: Vec<u8>,
    clock: Clock,
    costs: CostModel,
    /// Attribution of the costs this MMU charges; disabled by default.
    profiler: Profiler,
    stats: MmuStats,
    /// §5.4 hardware dirty accounting: when set, the MMU counts dirty-bit
    /// transitions and refuses (with [`AccessError::DirtyLimitReached`])
    /// to dirty a new page at the limit.
    dirty_limit: Option<u64>,
    dirty_counted: u64,
    /// Two bits per 64 B sector per page, both set by every write: the §7
    /// model mask and the host's copy shortcut (see [`SectorMasks`]).
    sector_masks: Vec<SectorMasks>,
    /// The pages the last masked epoch walk found updated, kept between
    /// walks so each one refills the buffer instead of allocating it.
    walk_hits: Vec<PageId>,
}

/// One page's sector masks: bit *i* covers the page's *i*-th 64 B sector.
/// [`Mmu::write`] sets the same bits in both; they differ in who clears
/// them.
#[derive(Debug, Clone, Copy, Default)]
struct SectorMasks {
    /// Mondrian-style sub-page tracking (§7), part of the simulated system:
    /// what a sector-granular flush would *ship*. Cleared by policy — when
    /// the flush path prices a page, and when a dying mapping's dirty page
    /// is discarded.
    shipped: u64,
    /// Host-side only: sectors whose bytes may differ from what was last
    /// handed to the device, so the simulator's own copy of a flushed page
    /// can skip the rest. Cleared only by handing the bytes over
    /// ([`Mmu::take_unsynced`]) or loading the device's
    /// ([`Mmu::load_page`]), never by policy: a discarded page's garbage is
    /// still in memory.
    unsynced: u64,
}

impl Mmu {
    /// Default TLB geometry: 256 sets x 4 ways = 1024 entries (4 MiB of
    /// reach), a typical L2 dTLB size for the Nehalem-era machine the paper
    /// calibrates against.
    const DEFAULT_TLB_SETS: usize = 256;
    const DEFAULT_TLB_WAYS: usize = 4;

    /// Creates an MMU over `pages` zeroed, present, *writable* pages with
    /// the default TLB geometry. (Viyojit write-protects pages explicitly
    /// at startup; a raw region starts writable like ordinary mmap memory.)
    pub fn new(pages: usize, clock: Clock, costs: CostModel) -> Self {
        Self::with_tlb_geometry(
            pages,
            clock,
            costs,
            Self::DEFAULT_TLB_SETS,
            Self::DEFAULT_TLB_WAYS,
        )
    }

    /// Creates an MMU with an explicit TLB geometry.
    ///
    /// # Panics
    ///
    /// Panics if `tlb_sets` is not a power of two or `tlb_ways` is zero.
    pub fn with_tlb_geometry(
        pages: usize,
        clock: Clock,
        costs: CostModel,
        tlb_sets: usize,
        tlb_ways: usize,
    ) -> Self {
        let mut page_table = PageTable::new(pages);
        for i in 0..pages {
            page_table.set_writable(PageId(i as u64), true);
        }
        Mmu {
            page_table,
            tlb: Tlb::new(tlb_sets, tlb_ways),
            memory: vec![0u8; pages * PAGE_SIZE],
            clock,
            costs,
            profiler: Profiler::disabled(),
            stats: MmuStats::default(),
            dirty_limit: None,
            dirty_counted: 0,
            sector_masks: vec![SectorMasks::default(); pages],
            walk_hits: Vec::new(),
        }
    }

    /// Enables §5.4 hardware dirty counting with the given page limit, or
    /// disables it with `None`. The counter starts from the current number
    /// of dirty PTEs.
    pub fn set_dirty_limit(&mut self, limit: Option<u64>) {
        self.dirty_limit = limit;
        self.dirty_counted = self.page_table.dirty_count() as u64;
    }

    /// The hardware dirty counter (§5.4). Only meaningful while a dirty
    /// limit is set.
    pub fn dirty_counted(&self) -> u64 {
        self.dirty_counted
    }

    /// Retires one dirty page from the hardware counter: clears its dirty
    /// and shadow bits and invalidates its TLB entry, so the next write
    /// re-counts it. Called by the §5.4 runtime when a page's flush
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if the page's dirty bit is not set.
    pub fn credit_dirty_page(&mut self, page: PageId) {
        assert!(
            self.page_table.take_dirty(page),
            "credited {page} was not dirty"
        );
        self.page_table.set_shadow_dirty(page, false);
        self.tlb.invalidate(page);
        self.dirty_counted -= 1;
    }

    /// Clears every PTE dirty and shadow bit in one word-level pass,
    /// without charging costs or touching the TLB — recovery's bulk reset.
    /// Callers must have invalidated any TLB entries whose cached dirty
    /// bits could go stale (recovery's unprotect pass already does), and
    /// should re-arm the dirty limit afterwards so the hardware counter
    /// recounts from the cleared table.
    pub fn clear_dirty_tracking_bits(&mut self) {
        self.page_table.clear_all_dirty();
        self.page_table.clear_all_shadow_dirty();
    }

    /// Number of mapped pages.
    pub fn pages(&self) -> usize {
        self.page_table.len()
    }

    /// Region size in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.page_table.len() * PAGE_SIZE) as u64
    }

    /// The region's page table (read-only view).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// TLB counters.
    pub fn tlb_stats(&self) -> crate::TlbStats {
        self.tlb.stats()
    }

    /// Access counters.
    pub fn stats(&self) -> MmuStats {
        self.stats
    }

    /// The shared virtual clock this MMU charges costs to.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Attaches a profiler; every cost this MMU charges to the clock is
    /// then attributed to its [`CostClass`] (TLB hit/miss, DRAM line,
    /// WP trap, PTE update, walk). Disabled by default.
    pub fn attach_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<(), AccessError> {
        if addr
            .checked_add(len as u64)
            .is_none_or(|end| end > self.size_bytes())
        {
            return Err(AccessError::OutOfRange { addr, len });
        }
        Ok(())
    }

    /// Translates `page`, filling the TLB on a miss. Returns the effective
    /// (possibly cached) `(writable, dirty, shadow)` view and the cost the
    /// caller owes the clock for it.
    #[inline]
    fn translate(&mut self, page: PageId) -> ((bool, bool, bool), CostClass, SimDuration) {
        if let Some(entry) = self.tlb.lookup(page) {
            let view = (entry.writable, entry.dirty, entry.shadow);
            (view, CostClass::TlbHit, self.costs.tlb_hit)
        } else {
            let flags = self.page_table.flags(page);
            self.page_table.set_accessed(page, true);
            self.tlb.fill(page, flags);
            let view = (
                flags.is_writable(),
                flags.is_dirty(),
                flags.is_shadow_dirty(),
            );
            (view, CostClass::TlbMiss, self.costs.tlb_miss)
        }
    }

    /// Accounts one cost of an access. With a profiler attached it is
    /// charged at once — advance, then attribute, per class, so the
    /// watermark credits each class its own interval. Without one it only
    /// joins `owed`, which the access settles with a single
    /// [`Clock::advance`] before returning: nothing reads the clock
    /// mid-access, so the sum lands on the same instant.
    #[inline]
    fn account(&mut self, owed: &mut SimDuration, class: CostClass, cost: SimDuration) {
        if self.profiler.is_enabled() {
            self.clock.advance(cost);
            self.profiler.charge(class, cost);
        } else {
            *owed += cost;
        }
    }

    /// Reads `buf.len()` bytes starting at byte offset `addr`. Reads may
    /// span pages and never fault on protection (Viyojit never
    /// read-protects).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::OutOfRange`] if the range exceeds the region.
    #[inline]
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), AccessError> {
        self.check_range(addr, buf.len())?;
        let start = addr as usize;
        let one_page = (1..=PAGE_SIZE - start % PAGE_SIZE).contains(&buf.len());
        if !one_page || self.profiler.is_enabled() {
            self.read_chunked(addr, buf);
            return Ok(());
        }
        // Within one page and nobody attributing per class: the chunking
        // loop would run exactly once, so do its one pass directly — one
        // translation, one copy, one charge of the two costs summed.
        let (_, _, tlb_cost) = self.translate(PageId::containing(addr));
        buf.copy_from_slice(&self.memory[start..start + buf.len()]);
        self.clock
            .advance(tlb_cost + self.costs.dram_access(buf.len()));
        self.stats.reads += 1;
        self.stats.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// [`Mmu::read`] of a range already checked, page by page, each cost
    /// accounted for by class.
    #[inline(never)]
    fn read_chunked(&mut self, addr: u64, buf: &mut [u8]) {
        let mut owed = SimDuration::ZERO;
        let mut off = addr;
        let mut remaining: &mut [u8] = buf;
        while !remaining.is_empty() {
            let page = PageId::containing(off);
            let in_page = (PAGE_SIZE - (off as usize % PAGE_SIZE)).min(remaining.len());
            let (_, class, cost) = self.translate(page);
            self.account(&mut owed, class, cost);
            let (chunk, rest) = remaining.split_at_mut(in_page);
            chunk.copy_from_slice(&self.memory[off as usize..off as usize + in_page]);
            let cost = self.costs.dram_access(in_page);
            self.account(&mut owed, CostClass::DramAccess, cost);
            remaining = rest;
            off += in_page as u64;
        }
        self.clock.advance(owed);
        self.stats.reads += 1;
        self.stats.bytes_read += buf.len() as u64;
    }

    /// Writes `data` starting at byte offset `addr`. The write must not
    /// cross a page boundary: callers (the NV region layer) chunk larger
    /// writes per page so the fault/retry protocol stays per-page, like a
    /// faulting store instruction.
    ///
    /// # Errors
    ///
    /// - [`AccessError::WriteProtected`] if the page is write-protected;
    ///   no bytes are written and the fault cost is charged.
    /// - [`AccessError::OutOfRange`] if the range exceeds the region.
    ///
    /// # Panics
    ///
    /// Panics if `data` crosses a page boundary.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), AccessError> {
        self.check_range(addr, data.len())?;
        assert!(
            data.is_empty()
                || PageId::containing(addr) == PageId::containing(addr + data.len() as u64 - 1),
            "Mmu::write must not cross a page boundary"
        );
        if data.is_empty() {
            return Ok(());
        }
        let page = PageId::containing(addr);
        let mut owed = SimDuration::ZERO;
        let ((writable, cached_dirty, cached_shadow), class, cost) = self.translate(page);
        self.account(&mut owed, class, cost);
        // Every exit from the block leaves what it cost in `owed`, for the
        // one clock charge below.
        let result = 'access: {
            if !writable {
                self.stats.write_faults += 1;
                self.account(&mut owed, CostClass::WpTrap, self.costs.write_fault);
                break 'access Err(AccessError::WriteProtected(page));
            }
            // Hardware dirty-bit protocol: only a write through a translation
            // whose cached dirty bit is clear updates the PTE dirty bit.
            if !cached_dirty {
                let newly_dirty = !self.page_table.is_dirty(page);
                if newly_dirty {
                    if let Some(limit) = self.dirty_limit {
                        if self.dirty_counted >= limit {
                            // §5.4: the MMU raises a dirty-limit interrupt
                            // instead of completing the write.
                            self.stats.write_faults += 1;
                            self.account(&mut owed, CostClass::WpTrap, self.costs.write_fault);
                            break 'access Err(AccessError::DirtyLimitReached(page));
                        }
                        self.dirty_counted += 1;
                    }
                }
                self.page_table.set_dirty(page, true);
                self.stats.pte_dirtied += 1;
                if let Some(entry) = self.tlb.lookup(page) {
                    entry.dirty = true;
                }
            }
            // The shadow bit (§5.4) is cached and updated independently, so
            // clearing it for recency sampling does not disturb the dirty bit
            // or the hardware counter.
            if !cached_shadow {
                self.page_table.set_shadow_dirty(page, true);
                if let Some(entry) = self.tlb.lookup(page) {
                    entry.shadow = true;
                }
            }
            self.memory[addr as usize..addr as usize + data.len()].copy_from_slice(data);
            // Mark every 64 B sector the write touched, for the §7 model
            // and for the host's copy shortcut alike. `span` is 1..=64, so
            // the right shift is by 0..=63.
            let first_sector = (addr as usize % PAGE_SIZE) / SECTOR_BYTES;
            let last_sector = ((addr as usize + data.len() - 1) % PAGE_SIZE) / SECTOR_BYTES;
            let span = last_sector - first_sector + 1;
            let touched = (u64::MAX >> (64 - span)) << first_sector;
            let masks = &mut self.sector_masks[page.index()];
            masks.shipped |= touched;
            masks.unsynced |= touched;
            let cost = self.costs.dram_access(data.len());
            self.account(&mut owed, CostClass::DramAccess, cost);
            self.stats.writes += 1;
            self.stats.bytes_written += data.len() as u64;
            Ok(())
        };
        self.clock.advance(owed);
        result
    }

    /// The §7 sub-page dirty mask of `page`: bit *i* set means sector *i*
    /// (64 B) was written since the mask was last cleared.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn sector_mask(&self, page: PageId) -> u64 {
        self.sector_masks[page.index()].shipped
    }

    /// Clears the sector mask of `page` (the flush path does this when it
    /// snapshots the page).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn clear_sector_mask(&mut self, page: PageId) {
        self.sector_masks[page.index()].shipped = 0;
    }

    /// Bytes of `page` modified since its mask was cleared (sector
    /// granularity).
    pub fn dirty_sector_bytes(&self, page: PageId) -> usize {
        self.sector_mask(page).count_ones() as usize * SECTOR_BYTES
    }

    /// Reads and clears the host-side mask of `page`: bit *i* set means
    /// sector *i* may differ from the bytes last handed to the device, so
    /// whoever takes the mask must hand over at least those sectors of
    /// [`Mmu::page_data`]. Unlike [`Mmu::sector_mask`] this is no part of
    /// the simulated system: it only spares the simulator copying bytes
    /// the device image already holds.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn take_unsynced(&mut self, page: PageId) -> u64 {
        std::mem::take(&mut self.sector_masks[page.index()].unsynced)
    }

    /// Write-protects `page`, invalidating its TLB entry (the paper's
    /// kernel module pairs every PTE permission change with an
    /// invalidation, §5.1).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn protect_page(&mut self, page: PageId) {
        self.page_table.set_writable(page, false);
        self.tlb.invalidate(page);
        self.clock.advance(self.costs.pte_protect);
        self.profiler
            .charge(CostClass::PteUpdate, self.costs.pte_protect);
    }

    /// Removes write protection from `page`, invalidating its TLB entry.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn unprotect_page(&mut self, page: PageId) {
        self.page_table.set_writable(page, true);
        self.tlb.invalidate(page);
        self.clock.advance(self.costs.pte_protect);
        self.profiler
            .charge(CostClass::PteUpdate, self.costs.pte_protect);
    }

    /// Epoch walk (§5.2): reads and clears the dirty bit of each page in
    /// `pages`, returning those that were dirty.
    ///
    /// If [`WalkOptions::flush_tlb`] is set the TLB is flushed first so the
    /// PTE dirty bits are exact. If not — the ablation the paper runs in
    /// §6.3 — cached dirty bits in the TLB mean subsequent writes will not
    /// re-set the cleared PTE bits, so later walks read stale data and the
    /// update-recency history degrades.
    ///
    /// If [`WalkOptions::charge_costs`] is clear, no virtual time is charged
    /// to the shared clock: the paper runs the walker on a core off the
    /// application's critical path, so only the TLB-state fallout (misses
    /// after the flush) is visible to the application timeline.
    pub fn walk_and_clear_dirty(&mut self, pages: &[PageId], options: WalkOptions) -> Vec<PageId> {
        self.flush_for_walk(options);
        let mut dirty = Vec::new();
        for &page in pages {
            if options.charge_costs {
                self.clock.advance(self.costs.pte_walk);
            }
            if self.page_table.take_dirty(page) {
                dirty.push(page);
            }
        }
        if options.charge_costs {
            // One bulk attribution for the whole scan: the watermark model
            // folds every per-PTE advance above into a single charge.
            self.profiler
                .charge(CostClass::PteWalk, self.costs.pte_walk * pages.len() as u64);
        }
        dirty
    }

    /// The TLB flush that opens an exact walk, charged if the walk is a
    /// foreground one.
    fn flush_for_walk(&mut self, options: WalkOptions) {
        if options.flush_tlb {
            self.tlb.flush();
            if options.charge_costs {
                self.clock.advance(self.costs.tlb_flush);
                self.profiler
                    .charge(CostClass::TlbFlush, self.costs.tlb_flush);
            }
        }
    }

    /// [`Mmu::walk_and_clear_dirty`] over the pages set in `known`, a word
    /// at a time ([`PageTable::take_dirty_in`]): the walker hands over its
    /// known-dirty bitmap instead of a page list, and only the pages found
    /// dirty are materialised. Same pages, same ascending order, same bits
    /// cleared and same costs as collecting `known` and walking the list.
    /// The hits are lent from a buffer the next masked walk overwrites.
    ///
    /// # Panics
    ///
    /// Panics if `known` has a page set past this MMU's last word of pages.
    pub fn walk_and_clear_dirty_in(&mut self, known: &Bitmap2L, options: WalkOptions) -> &[PageId] {
        self.walk_column_in(known, options, PageTable::take_dirty_in)
    }

    /// Shadow-bit epoch walk (§5.4): [`Mmu::walk_and_clear_dirty_in`] over
    /// the *shadow* dirty column, returning the pages of `known` updated
    /// since the last walk without touching the real dirty bits the
    /// hardware counter depends on.
    ///
    /// # Panics
    ///
    /// Panics if `known` has a page set past this MMU's last word of pages.
    pub fn walk_and_clear_shadow_in(
        &mut self,
        known: &Bitmap2L,
        options: WalkOptions,
    ) -> &[PageId] {
        self.walk_column_in(known, options, PageTable::take_shadow_dirty_in)
    }

    fn walk_column_in(
        &mut self,
        known: &Bitmap2L,
        options: WalkOptions,
        take_in: impl FnOnce(&mut PageTable, &Bitmap2L, &mut Vec<PageId>),
    ) -> &[PageId] {
        self.flush_for_walk(options);
        self.walk_hits.clear();
        take_in(&mut self.page_table, known, &mut self.walk_hits);
        if options.charge_costs {
            let cost = self.costs.pte_walk * known.count() as u64;
            self.clock.advance(cost);
            self.profiler.charge(CostClass::PteWalk, cost);
        }
        &self.walk_hits
    }

    /// Reads and clears the PTE dirty bit of one page, leaving the TLB and
    /// the clock alone — what the flush path does to a victim it has just
    /// re-protected (the protect already invalidated the TLB entry).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn take_dirty(&mut self, page: PageId) -> bool {
        self.page_table.take_dirty(page)
    }

    /// Direct (DMA-style) read of one page's bytes, bypassing translation
    /// and cost accounting. Used by the flusher to hand pages to the SSD
    /// and by tests to inspect memory.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_data(&self, page: PageId) -> &[u8] {
        let start = page.base_addr() as usize;
        &self.memory[start..start + PAGE_SIZE]
    }

    /// Direct (DMA-style) write of one page's bytes, bypassing translation,
    /// permission checks, and dirty tracking. The caller may change any
    /// byte, so the whole page counts as unsynced afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_data_mut(&mut self, page: PageId) -> &mut [u8] {
        self.sector_masks[page.index()].unsynced = u64::MAX;
        let start = page.base_addr() as usize;
        &mut self.memory[start..start + PAGE_SIZE]
    }

    /// Recovery's reload of `page` from `durable`, the device's copy of
    /// it: [`Mmu::page_data_mut`], except that the page ends in sync with
    /// the device instead of wholly unsynced.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `durable` is not one page.
    pub fn load_page(&mut self, page: PageId, durable: &[u8]) {
        self.page_data_mut(page).copy_from_slice(durable);
        self.sector_masks[page.index()].unsynced = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::SimDuration;

    fn mmu(pages: usize) -> Mmu {
        Mmu::new(pages, Clock::new(), CostModel::free())
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let a = MmuStats {
            reads: 1,
            writes: 2,
            bytes_read: 3,
            bytes_written: 4,
            write_faults: 5,
            pte_dirtied: 6,
        };
        let mut total = a;
        total.accumulate(&a);
        assert_eq!(
            total,
            MmuStats {
                reads: 2,
                writes: 4,
                bytes_read: 6,
                bytes_written: 8,
                write_faults: 10,
                pte_dirtied: 12,
            }
        );
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = mmu(2);
        m.write(100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn read_spans_pages() {
        let mut m = mmu(2);
        let boundary = PAGE_SIZE as u64 - 2;
        m.write(boundary, b"ab").unwrap();
        m.write(PAGE_SIZE as u64, b"cd").unwrap();
        let mut buf = [0u8; 4];
        m.read(boundary, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
    }

    #[test]
    #[should_panic(expected = "cross a page boundary")]
    fn write_across_pages_panics() {
        let mut m = mmu(2);
        let _ = m.write(PAGE_SIZE as u64 - 1, b"xy");
    }

    #[test]
    fn protected_write_faults_without_side_effects() {
        let mut m = mmu(1);
        m.write(0, b"orig").unwrap();
        m.protect_page(PageId(0));
        let err = m.write(0, b"newx").unwrap_err();
        assert_eq!(err, AccessError::WriteProtected(PageId(0)));
        let mut buf = [0u8; 4];
        m.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"orig", "faulting write must not modify memory");
        assert_eq!(m.stats().write_faults, 1);
    }

    #[test]
    fn unprotect_allows_retry() {
        let mut m = mmu(1);
        m.protect_page(PageId(0));
        assert!(m.write(0, b"x").is_err());
        m.unprotect_page(PageId(0));
        assert!(m.write(0, b"x").is_ok());
    }

    #[test]
    fn first_write_sets_pte_dirty_once() {
        let mut m = mmu(1);
        m.write(0, b"a").unwrap();
        assert!(m.page_table().flags(PageId(0)).is_dirty());
        assert_eq!(m.stats().pte_dirtied, 1);
        m.write(1, b"b").unwrap();
        assert_eq!(
            m.stats().pte_dirtied,
            1,
            "second write reuses cached dirty bit"
        );
    }

    #[test]
    fn walk_clears_dirty_and_reports() {
        let mut m = mmu(4);
        m.write(0, b"a").unwrap();
        m.write(2 * PAGE_SIZE as u64, b"b").unwrap();
        let pages: Vec<PageId> = (0..4).map(PageId).collect();
        let dirty = m.walk_and_clear_dirty(&pages, WalkOptions::exact_foreground());
        assert_eq!(dirty, vec![PageId(0), PageId(2)]);
        assert!(m
            .walk_and_clear_dirty(&pages, WalkOptions::exact_foreground())
            .is_empty());
    }

    #[test]
    fn stale_tlb_hides_rewrites_from_walker() {
        // The §6.3 ablation mechanism: without a TLB flush, a page written
        // again after its PTE dirty bit was cleared is invisible to the
        // next walk, because the cached dirty bit short-circuits the PTE
        // update.
        let mut m = mmu(1);
        m.write(0, b"a").unwrap();
        let pages = [PageId(0)];
        assert_eq!(
            m.walk_and_clear_dirty(&pages, WalkOptions::stale()).len(),
            1
        );
        m.write(1, b"b").unwrap(); // rewrite through the stale TLB entry
        assert!(
            m.walk_and_clear_dirty(&pages, WalkOptions::stale())
                .is_empty(),
            "stale cached dirty bit must hide the rewrite"
        );
        // With a flush the rewrite is observed again.
        m.write(2, b"c").unwrap();
        assert_eq!(
            m.walk_and_clear_dirty(&pages, WalkOptions::exact_foreground())
                .len(),
            0
        );
        m.write(3, b"d").unwrap();
        assert_eq!(
            m.walk_and_clear_dirty(&pages, WalkOptions::exact_foreground())
                .len(),
            1
        );
    }

    #[test]
    fn flushed_tlb_makes_walks_exact() {
        let mut m = mmu(1);
        let pages = [PageId(0)];
        for round in 0..5 {
            m.write(0, &[round]).unwrap();
            let dirty = m.walk_and_clear_dirty(&pages, WalkOptions::exact_foreground());
            assert_eq!(dirty.len(), 1, "round {round} must observe the write");
        }
    }

    #[test]
    fn out_of_range_accesses_are_rejected() {
        let mut m = mmu(1);
        let mut buf = [0u8; 8];
        assert!(matches!(
            m.read(PAGE_SIZE as u64 - 4, &mut buf),
            Err(AccessError::OutOfRange { .. })
        ));
        assert!(matches!(
            m.write(u64::MAX, b"x"),
            Err(AccessError::OutOfRange { .. })
        ));
    }

    #[test]
    fn costs_are_charged_to_the_clock() {
        let clock = Clock::new();
        let costs = CostModel::free()
            .with_tlb_miss(SimDuration::from_nanos(100))
            .with_dram_line_access(SimDuration::from_nanos(10));
        let mut m = Mmu::new(1, clock.clone(), costs);
        m.write(0, b"x").unwrap(); // 1 miss + 1 line
        assert_eq!(clock.now().as_nanos(), 110);
        m.write(1, b"y").unwrap(); // hit (free) + 1 line
        assert_eq!(clock.now().as_nanos(), 120);
    }

    #[test]
    fn fault_cost_is_charged() {
        let clock = Clock::new();
        let costs = CostModel::free().with_write_fault(SimDuration::from_micros(4));
        let mut m = Mmu::new(1, clock.clone(), costs);
        m.protect_page(PageId(0));
        let _ = m.write(0, b"x");
        assert_eq!(clock.now().as_micros(), 4);
    }

    #[test]
    fn profiler_attributes_every_mmu_charge() {
        let clock = Clock::new();
        let costs = CostModel::free()
            .with_tlb_miss(SimDuration::from_nanos(100))
            .with_dram_line_access(SimDuration::from_nanos(10))
            .with_write_fault(SimDuration::from_micros(4))
            .with_pte_protect(SimDuration::from_nanos(400));
        let mut m = Mmu::new(1, clock.clone(), costs);
        let profiler = telemetry::Profiler::enabled(clock.clone());
        m.attach_profiler(profiler.clone());

        m.write(0, b"x").unwrap(); // TLB miss + one DRAM line
        m.protect_page(PageId(0)); // PTE update, invalidates the TLB entry
        let _ = m.write(0, b"y"); // TLB miss again + WP trap

        let report = profiler.report().unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.class_nanos("tlb_miss"), 200);
        assert_eq!(report.class_nanos("dram_access"), 10);
        assert_eq!(report.class_nanos("pte_update"), 400);
        assert_eq!(report.class_nanos("wp_trap"), 4_000);
        assert_eq!(report.elapsed.as_nanos(), 4_610);
    }

    #[test]
    fn profiler_attributes_foreground_walks() {
        let clock = Clock::new();
        let costs = CostModel::free()
            .with_tlb_flush(SimDuration::from_micros(12))
            .with_pte_walk(SimDuration::from_nanos(60));
        let mut m = Mmu::new(4, clock.clone(), costs);
        let profiler = telemetry::Profiler::enabled(clock.clone());
        m.attach_profiler(profiler.clone());

        let pages: Vec<PageId> = (0..4).map(PageId).collect();
        m.walk_and_clear_dirty(&pages, WalkOptions::exact_foreground());

        let report = profiler.report().unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.class_nanos("tlb_flush"), 12_000);
        assert_eq!(report.class_nanos("pte_walk"), 4 * 60);
    }

    #[test]
    fn empty_write_is_a_no_op() {
        let mut m = mmu(1);
        m.protect_page(PageId(0));
        assert!(m.write(0, b"").is_ok(), "zero-length writes never fault");
        assert_eq!(m.stats().writes, 0);
    }

    #[test]
    fn dirty_limit_blocks_at_capacity_and_credits_release() {
        let mut m = mmu(8);
        m.set_dirty_limit(Some(2));
        m.write(0, b"a").unwrap();
        m.write(PAGE_SIZE as u64, b"b").unwrap();
        assert_eq!(m.dirty_counted(), 2);
        // Third page would exceed the limit: hardware interrupt, no write.
        let err = m.write(2 * PAGE_SIZE as u64, b"c").unwrap_err();
        assert_eq!(err, AccessError::DirtyLimitReached(PageId(2)));
        let mut buf = [0u8];
        m.read(2 * PAGE_SIZE as u64, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "blocked write must not land");
        // Crediting a page frees a slot; the retry then succeeds.
        m.credit_dirty_page(PageId(0));
        assert_eq!(m.dirty_counted(), 1);
        m.write(2 * PAGE_SIZE as u64, b"c").unwrap();
        assert_eq!(m.dirty_counted(), 2);
    }

    #[test]
    fn rewrites_of_dirty_pages_never_hit_the_limit() {
        let mut m = mmu(4);
        m.set_dirty_limit(Some(1));
        m.write(0, b"a").unwrap();
        for i in 0..100u64 {
            m.write(i % PAGE_SIZE as u64, b"x").unwrap();
        }
        assert_eq!(m.dirty_counted(), 1);
        assert_eq!(m.stats().write_faults, 0);
    }

    #[test]
    fn credited_pages_recount_on_rewrite() {
        let mut m = mmu(4);
        m.set_dirty_limit(Some(4));
        m.write(0, b"a").unwrap();
        m.credit_dirty_page(PageId(0));
        assert_eq!(m.dirty_counted(), 0);
        m.write(0, b"b").unwrap();
        assert_eq!(m.dirty_counted(), 1, "post-credit rewrite must recount");
    }

    /// A bitmap over `pages` pages with exactly `set` set.
    fn known(pages: usize, set: &[usize]) -> Bitmap2L {
        let mut b = Bitmap2L::new(pages);
        for &i in set {
            b.set(i);
        }
        b
    }

    #[test]
    fn shadow_walk_tracks_recency_without_disturbing_dirty_bits() {
        let mut m = mmu(4);
        m.write(0, b"a").unwrap();
        let pages = known(4, &[0]);
        let updated = m.walk_and_clear_shadow_in(&pages, WalkOptions::exact());
        assert_eq!(updated, vec![PageId(0)]);
        assert!(
            m.page_table().flags(PageId(0)).is_dirty(),
            "shadow walk must not clear the real dirty bit"
        );
        // A rewrite re-sets the shadow bit (after the flush emptied the TLB).
        m.write(1, b"b").unwrap();
        assert_eq!(
            m.walk_and_clear_shadow_in(&pages, WalkOptions::exact())
                .len(),
            1
        );
        // No rewrite: next walk sees nothing.
        assert!(m
            .walk_and_clear_shadow_in(&pages, WalkOptions::exact())
            .is_empty());
    }

    #[test]
    fn masked_walk_leaves_pages_outside_the_mask_dirty() {
        let mut m = mmu(130);
        for page in [1u64, 64, 65, 129] {
            m.write(page * PAGE_SIZE as u64, b"x").unwrap();
        }
        // Page 2 is known but clean; page 65 is dirty but not known.
        let pages = known(130, &[1, 2, 64, 129]);
        let dirty = m.walk_and_clear_dirty_in(&pages, WalkOptions::exact());
        assert_eq!(dirty, vec![PageId(1), PageId(64), PageId(129)]);
        assert!(m.page_table().is_dirty(PageId(65)));
        assert_eq!(m.page_table().dirty_count(), 1);
        assert!(m.take_dirty(PageId(65)));
        assert!(!m.take_dirty(PageId(65)));
    }

    #[test]
    fn masked_foreground_walk_charges_like_the_list_walk() {
        let costs = CostModel::free()
            .with_tlb_flush(SimDuration::from_micros(12))
            .with_pte_walk(SimDuration::from_nanos(60));
        let (by_list, by_mask) = (Clock::new(), Clock::new());
        let mut a = Mmu::new(8, by_list.clone(), costs.clone());
        let mut b = Mmu::new(8, by_mask.clone(), costs);
        let profiler = telemetry::Profiler::enabled(by_mask.clone());
        b.attach_profiler(profiler.clone());
        let pages = [PageId(1), PageId(5), PageId(6)];
        a.walk_and_clear_dirty(&pages, WalkOptions::exact_foreground());
        b.walk_and_clear_dirty_in(&known(8, &[1, 5, 6]), WalkOptions::exact_foreground());
        assert_eq!(by_mask.now(), by_list.now());
        let report = profiler.report().unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.class_nanos("pte_walk"), 3 * 60);
    }

    #[test]
    #[should_panic(expected = "was not dirty")]
    fn crediting_a_clean_page_panics() {
        let mut m = mmu(1);
        m.set_dirty_limit(Some(1));
        m.credit_dirty_page(PageId(0));
    }

    #[test]
    fn sector_masks_track_written_ranges() {
        let mut m = mmu(2);
        m.write(0, &[1u8; 64]).unwrap(); // sector 0
        m.write(130, &[2u8; 10]).unwrap(); // sectors 2 (byte 130..139)
        assert_eq!(m.sector_mask(PageId(0)), 0b101);
        assert_eq!(m.dirty_sector_bytes(PageId(0)), 128);
        // Spanning sector boundary sets both.
        m.write(63, &[3u8; 2]).unwrap(); // sectors 0 and 1
        assert_eq!(m.sector_mask(PageId(0)), 0b111);
        m.clear_sector_mask(PageId(0));
        assert_eq!(m.dirty_sector_bytes(PageId(0)), 0);
    }

    #[test]
    fn sector_masks_are_per_page() {
        let mut m = mmu(2);
        m.write(PAGE_SIZE as u64 + 4000, &[1u8; 96]).unwrap();
        assert_eq!(m.sector_mask(PageId(0)), 0);
        assert_eq!(m.dirty_sector_bytes(PageId(1)), 128);
    }

    #[test]
    fn unsynced_mask_is_cleared_by_copies_never_by_policy() {
        let mut m = mmu(2);
        let page = PageId(1);
        let base = page.base_addr();
        m.write(base, &[1]).unwrap(); // sector 0
        m.write(base + PAGE_SIZE as u64 - 1, &[2]).unwrap(); // sector 63
        m.write(base + 100, &[3; 100]).unwrap(); // sectors 1..=3
        let touched = 1 | 1 << 63 | 0b1110;
        assert_eq!(m.sector_mask(page), touched);
        m.clear_sector_mask(page);
        assert_eq!(m.sector_mask(page), 0);
        assert_eq!(m.take_unsynced(page), touched, "policy left it alone");
        assert_eq!(m.take_unsynced(page), 0, "the take cleared it");
        assert_eq!(m.take_unsynced(PageId(0)), 0, "masks are per page");

        // A whole-page write is the span-64 case of the shift.
        m.write(base, &[4; PAGE_SIZE]).unwrap();
        assert_eq!(m.sector_mask(page), u64::MAX);
        assert_eq!(m.take_unsynced(page), u64::MAX);

        // DMA may change any byte; a load from the device changes every
        // byte to what the device holds.
        m.page_data_mut(page)[0] = 5;
        assert_eq!(m.take_unsynced(page), u64::MAX);
        m.write(base, &[6]).unwrap();
        m.load_page(page, &[7; PAGE_SIZE]);
        assert_eq!(m.page_data(page), &[7; PAGE_SIZE]);
        assert_eq!(m.take_unsynced(page), 0);
        assert_eq!(m.sector_mask(page), u64::MAX, "DMA is outside the §7 model");
    }

    #[test]
    fn dma_access_bypasses_protection() {
        let mut m = mmu(1);
        m.protect_page(PageId(0));
        m.page_data_mut(PageId(0))[0] = 0xAB;
        assert_eq!(m.page_data(PageId(0))[0], 0xAB);
        assert!(!m.page_table().flags(PageId(0)).is_dirty());
    }
}
