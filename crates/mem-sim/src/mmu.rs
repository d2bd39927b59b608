//! The MMU: translation, permission checks, dirty-bit maintenance, and
//! write-protection faults over a byte-addressable simulated DRAM region.

use std::error::Error;
use std::fmt;
use std::ops::Range;

use sim_clock::{Clock, CostModel, SimDuration};
use telemetry::{CostClass, Profiler};

use crate::{Bitmap2L, PageId, PageTable, PageVec, Tlb, PAGE_SIZE};

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
/// with [`Mmu::walk_and_clear_dirty_in`]. DMA-style reads bypass
/// translation via [`Mmu::peek`].
///
/// The MMU also holds the host's only copy of what the device holds: the
/// device image of a page is its memory with the sectors written since
/// its last hand-over ([`Mmu::take_unsynced`]) replaced by their saved
/// pre-write bytes, which recovery lays back ([`Mmu::restore_durable`]).
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
    memory: Store,
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
    /// Two bits per 64 B sector per page, both set by every write, where
    /// the page's bytes lie, and its place in the device image (see
    /// [`SectorMasks`]); held for the pages written so far.
    sector_masks: PageVec<SectorMasks>,
    /// The pre-write bytes of every held page's unsynced sectors.
    undo: UndoPool,
    undo_stats: UndoStats,
    /// The pages the last masked epoch walk found updated, kept between
    /// walks so each one refills the buffer instead of allocating it.
    walk_hits: Vec<PageId>,
}

/// NV-DRAM's bytes, where each page's lie as the sectors written to it
/// say (its [`SectorMasks::place`]): an untouched page has none and reads
/// as zeroes; a sparse page is one block of the arena packed from its
/// resident sectors, sector *s* at `rank(resident, s)`, named by its
/// [`Sparse`] record; a dense page is its flat frame at `p · PAGE_SIZE`.
///
/// A page is promoted from sparse to dense by the write that would take
/// it past [`SPARSE_SECTORS`], and stays dense. The frames are one zeroed
/// reservation as large as the region, and a large zeroed allocation is
/// untouched mappings that read as zeroes, so only dense pages' frames are
/// ever mapped. Where a byte lies in host memory is no part of the
/// simulated system.
#[derive(Debug)]
struct Store {
    frames: Vec<u8>,
    /// The sparse pages' records; a free one is on `free_records`.
    records: Vec<Sparse>,
    free_records: Vec<u32>,
    /// The sparse pages' blocks.
    arena: SectorArena,
}

/// A sparse page's resident sectors — every sector ever written to it —
/// and the block of the arena that holds them, packed: the sparse mask
/// beside its block.
#[derive(Debug, Clone, Copy)]
struct Sparse {
    resident: u64,
    block: u32,
}

impl Sparse {
    /// What an untouched page holds.
    const NONE: Sparse = Sparse {
        resident: 0,
        block: 0,
    };

    /// Where sector `sector`, resident, lies in the arena's bytes.
    #[inline]
    fn at(self, sector: usize) -> usize {
        at_sector(self.block, rank(self.resident, sector))
    }
}

/// The most sectors a sparse page holds: one block of the arena, an
/// eighth of a page. The write that would make a ninth resident promotes
/// the page to its frame (DESIGN.md, "Why eight sectors").
const SPARSE_SECTORS: usize = EIGHTH_SECTORS;

impl Store {
    fn new(pages: usize) -> Self {
        Store {
            frames: vec![0; pages * PAGE_SIZE],
            records: Vec::new(),
            free_records: Vec::new(),
            arena: SectorArena::default(),
        }
    }

    /// Bytes `addr..addr + len` of a dense page's frame.
    #[inline]
    fn frame(&self, addr: u64, len: usize) -> &[u8] {
        &self.frames[addr as usize..][..len]
    }

    /// The record of a page whose bytes lie at `place`, which is not
    /// [`DENSE`]: its own, or [`Sparse::NONE`] for an untouched page.
    fn sparse(&self, place: u32) -> Sparse {
        match place {
            UNTOUCHED => Sparse::NONE,
            record => self.records[record as usize],
        }
    }

    /// Copies bytes `addr..addr + buf.len()` of one page, whose bytes lie
    /// at `place`, into `buf`.
    fn load(&self, place: u32, addr: u64, buf: &mut [u8]) {
        if place == DENSE {
            buf.copy_from_slice(self.frame(addr, buf.len()));
        } else {
            self.gather(self.sparse(place), addr as usize % PAGE_SIZE, buf);
        }
    }

    /// [`Store::load`] of a page that is not dense: a sector at a time,
    /// each resident one from its place in the block and every other one
    /// zeroes. Out of line: the dense heaps' reads never take it.
    #[inline(never)]
    fn gather(&self, sparse: Sparse, offset: usize, buf: &mut [u8]) {
        if sparse.resident == 0 {
            buf.fill(0);
            return;
        }
        let mut done = 0;
        while done < buf.len() {
            let at = offset + done;
            let (sector, within) = (at / SECTOR_BYTES, at % SECTOR_BYTES);
            let end = (done + SECTOR_BYTES - within).min(buf.len());
            let out = &mut buf[done..end];
            if sparse.resident >> sector & 1 == 1 {
                let from = sparse.at(sector) + within;
                out.copy_from_slice(&self.arena.bytes[from..][..out.len()]);
            } else {
                out.fill(0);
            }
            done += out.len();
        }
    }

    /// Where a run of sectors of `page` starting at `sector` lies, all of
    /// them resident if the page is not dense: in its frame, or in the
    /// arena.
    fn run_at(&self, page: PageId, place: u32, sector: usize) -> usize {
        if place == DENSE {
            page.base_addr() as usize + sector * SECTOR_BYTES
        } else {
            self.sparse(place).at(sector)
        }
    }

    /// The bytes of such a run: one slice of the frame or of the block.
    fn run(&self, page: PageId, place: u32, sectors: Range<usize>) -> &[u8] {
        let at = self.run_at(page, place, sectors.start);
        let bytes = if place == DENSE {
            &self.frames
        } else {
            &self.arena.bytes
        };
        &bytes[at..][..sectors.len() * SECTOR_BYTES]
    }

    /// Copies a run of sectors of `page` into `out`, resident ones from
    /// the block and any other as zeroes: the undo log's save of them.
    fn save_run(&self, page: PageId, place: u32, sectors: Range<usize>, out: &mut [u8]) {
        if place == DENSE {
            let from = page.base_addr() as usize + sectors.start * SECTOR_BYTES;
            out.copy_from_slice(&self.frames[from..][..out.len()]);
            return;
        }
        let sparse = self.sparse(place);
        for (sector, out) in sectors.zip(out.chunks_mut(SECTOR_BYTES)) {
            if sparse.resident >> sector & 1 == 1 {
                out.copy_from_slice(&self.arena.bytes[sparse.at(sector)..][..SECTOR_BYTES]);
            } else {
                out.fill(0);
            }
        }
    }

    /// [`Store::run`], writable.
    fn run_mut(&mut self, page: PageId, place: u32, sectors: Range<usize>) -> &mut [u8] {
        let at = self.run_at(page, place, sectors.start);
        let bytes = if place == DENSE {
            &mut self.frames
        } else {
            &mut self.arena.bytes
        };
        &mut bytes[at..][..sectors.len() * SECTOR_BYTES]
    }

    /// Copies `data` over bytes `addr..addr + data.len()` of a page that
    /// is not dense, whose bytes lie at `place`, and whose write touched
    /// the sectors `touched`; returns where they lie now. Sectors new to
    /// the page first take a block sized for all its sectors, the new ones
    /// zeroed in it, or, past [`SPARSE_SECTORS`], move the page to its
    /// frame. Out of line: the dense heaps' writes never take it.
    #[inline(never)]
    fn store_sparse(&mut self, mut place: u32, addr: u64, data: &[u8], touched: u64) -> u32 {
        let mut sparse = self.sparse(place);
        let (old, all) = (sparse.resident, sparse.resident | touched);
        if all != old {
            if all.count_ones() as usize > SPARSE_SECTORS {
                self.promote(PageId::containing(addr), place);
                self.frames[addr as usize..][..data.len()].copy_from_slice(data);
                return DENSE;
            }
            let block = self.arena.take(all.count_ones() as usize);
            for run in sector_runs(all & !old) {
                let at = at_sector(block, rank(all, run.start));
                self.arena.bytes[at..][..run.len() * SECTOR_BYTES].fill(0);
            }
            if old != 0 {
                self.arena.repack(sparse.block, old, block, all);
                self.arena.give(sparse.block, old.count_ones() as usize);
            } else {
                place = self.free_records.pop().unwrap_or_else(|| {
                    self.records.push(Sparse::NONE);
                    (self.records.len() - 1) as u32
                });
            }
            sparse = Sparse {
                resident: all,
                block,
            };
            self.records[place as usize] = sparse;
        }
        // `touched` is one run of resident sectors: one run of the block.
        let at = sparse.at(touched.trailing_zeros() as usize) + addr as usize % SECTOR_BYTES;
        self.arena.bytes[at..][..data.len()].copy_from_slice(data);
        place
    }

    /// Moves the resident sectors of `page`, whose bytes lie at `place`,
    /// into its frame, which holds zeroes until now, and frees its block
    /// and record: the page is dense from here on.
    fn promote(&mut self, page: PageId, place: u32) {
        let sparse = self.sparse(place);
        for run in sector_runs(sparse.resident) {
            let from = sparse.at(run.start);
            let to = page.base_addr() as usize + run.start * SECTOR_BYTES;
            let len = run.len() * SECTOR_BYTES;
            self.frames[to..][..len].copy_from_slice(&self.arena.bytes[from..][..len]);
        }
        if place != UNTOUCHED {
            self.arena
                .give(sparse.block, sparse.resident.count_ones() as usize);
            self.free_records.push(place);
        }
    }
}

/// One page's sector mask — bit *i* covers the page's *i*-th 64 B sector —
/// where its bytes lie, and where the device image of the page lies.
///
/// The device image is host-side state, no part of the simulated system:
/// the `Ssd` models time and wear, not bytes. A page the device holds
/// (handed over at least once) is memory with its `unsynced` sectors
/// replaced by the bytes its undo slot saved, and a page it does not hold
/// is zeroes.
#[derive(Debug, Clone, Copy)]
struct SectorMasks {
    /// Sectors whose bytes may differ from what was last handed to the
    /// device: what a sector-granular flush (§7, Mondrian-style) ships, and
    /// what the hand-over changes in the image. Cleared only by handing the
    /// bytes over ([`Mmu::take_unsynced`]) or laying the device's back
    /// ([`Mmu::restore_durable`]), never by policy: a discarded page's
    /// garbage is still in memory.
    unsynced: u64,
    /// Where the page's bytes lie: [`UNTOUCHED`], [`DENSE`], or its
    /// [`Sparse`] record, whose resident sectors hold `unsynced`.
    place: u32,
    /// The page's slot in the undo pool — its table of eighth-page
    /// blocks — or [`NO_SLOT`], or [`NEVER_HELD`] for a page never handed
    /// to the device. A held page has a slot exactly while `unsynced` is
    /// nonzero, with a block for exactly the eighths of the page
    /// `unsynced` touches.
    slot: u32,
}

// Every byte here is paid many times over: a KV run builds several `Mmu`s
// that each reach thousands of pages, and `PageVec` keeps spare capacity
// past them.
const _: () = assert!(std::mem::size_of::<SectorMasks>() <= 16);

impl SectorMasks {
    const NEW: SectorMasks = SectorMasks {
        unsynced: 0,
        place: UNTOUCHED,
        slot: NEVER_HELD,
    };

    /// The page has been handed to the device at least once.
    #[inline]
    fn held(self) -> bool {
        self.slot != NEVER_HELD
    }

    /// The page has an undo slot.
    fn has_slot(self) -> bool {
        self.slot < NO_SLOT
    }
}

/// The place of a page no write has reached: it has no bytes and reads as
/// zeroes.
const UNTOUCHED: u32 = u32::MAX;
/// The place of a page whose bytes are its frame.
const DENSE: u32 = u32::MAX - 1;

/// A held page whose sectors are all in sync.
const NO_SLOT: u32 = u32::MAX - 1;
/// A page never handed to the device.
const NEVER_HELD: u32 = u32::MAX;

/// Sectors in an eighth of a page: 512 B, the most one arena block holds.
const EIGHTH_SECTORS: usize = 8;
const EIGHTH_BYTES: usize = EIGHTH_SECTORS * SECTOR_BYTES;

/// A table entry for an eighth of the page with nothing saved.
const NO_BLOCK: u32 = u32::MAX;

/// One undo slot: the block that holds each eighth of a page.
type Table = [u32; PAGE_SIZE / EIGHTH_BYTES];

/// What the device holds in every sector of a page never handed over.
static ZERO_EIGHTH: [u8; EIGHTH_BYTES] = [0; EIGHTH_BYTES];

/// An arena of 64 B sectors handed out in blocks of 1 to 8, each named by
/// its first sector: the sparse pages have one and the undo log another.
/// Freed blocks are recycled through one LIFO list per size; the arena
/// never shrinks.
#[derive(Debug, Default)]
struct SectorArena {
    bytes: Vec<u8>,
    /// `free[k]`: the free blocks of `k` sectors (`free[0]` stays empty).
    free: [Vec<u32>; EIGHTH_SECTORS + 1],
}

impl SectorArena {
    /// Takes a block of `size` sectors: a free one of that size, else the
    /// front of the smallest larger free block, whose rest is filed under
    /// its own size, else new sectors at the end of the arena.
    fn take(&mut self, size: usize) -> u32 {
        if let Some(block) = self.free[size].pop() {
            return block;
        }
        let larger =
            (size + 1..=EIGHTH_SECTORS).find_map(|larger| Some((larger, self.free[larger].pop()?)));
        if let Some((larger, block)) = larger {
            self.give(block + size as u32, larger - size);
            return block;
        }
        let block = self.bytes.len() / SECTOR_BYTES;
        self.bytes.resize((block + size) * SECTOR_BYTES, 0);
        block as u32
    }

    /// Returns a block of `size` sectors to the free list of its size.
    fn give(&mut self, block: u32, size: usize) {
        self.free[size].push(block);
    }

    /// Copies the sectors of a block packed from `from_mask` into the
    /// places a block packed from `to_mask`, a superset, keeps them.
    fn repack(&mut self, from: u32, from_mask: u64, to: u32, to_mask: u64) {
        for run in sector_runs(from_mask) {
            let at = at_sector(from, rank(from_mask, run.start));
            let len = run.len() * SECTOR_BYTES;
            self.bytes
                .copy_within(at..at + len, at_sector(to, rank(to_mask, run.start)));
        }
    }
}

/// Where sector `sector` of `block` starts in the arena's bytes.
#[inline]
fn at_sector(block: u32, sector: usize) -> usize {
    (block as usize + sector) * SECTOR_BYTES
}

/// The undo log: a slot is a table of eight block ids, one per eighth of
/// its page, and a block is a run of 1 to 8 sectors of its own
/// [`SectorArena`]. Tables are recycled through a LIFO free list.
///
/// An eighth's block holds exactly that eighth's unsynced sectors as last
/// handed to the device, packed in sector order, and the table has a
/// block for exactly the eighths the unsynced mask touches. So a block's
/// size is the popcount of its eighth's unsynced bits, and the eighth's
/// sector *s* lives at `rank(mask, s)` in it: a 64 B write to a held page
/// holds 64 B, not an eighth or a page, and a run of unsynced sectors is
/// one contiguous slice of its block.
#[derive(Debug, Default)]
struct UndoPool {
    tables: Vec<Table>,
    free_tables: Vec<u32>,
    arena: SectorArena,
}

impl UndoPool {
    /// Takes a table with no block.
    fn alloc(&mut self) -> u32 {
        self.free_tables.pop().unwrap_or_else(|| {
            self.tables.push([NO_BLOCK; PAGE_SIZE / EIGHTH_BYTES]);
            (self.tables.len() - 1) as u32
        })
    }

    /// Makes room for the `fresh` sectors of one eighth of a page in
    /// `slot`'s block for that eighth, which holds its `old` sectors so
    /// far: a block of their combined size, into which the old sectors,
    /// if any, are merged and their block is freed. Returns the block, for
    /// the caller to copy the fresh sectors into, each at its rank.
    fn save(&mut self, slot: u32, eighth: usize, old: u64, fresh: u64) -> u32 {
        let all = old | fresh;
        let block = self.arena.take(all.count_ones() as usize);
        let was = std::mem::replace(&mut self.tables[slot as usize][eighth], block);
        if old != 0 {
            self.arena.repack(was, old, block, all);
            self.arena.give(was, old.count_ones() as usize);
        }
        block
    }

    /// Returns `slot` and the blocks of the eighths `unsynced` touches —
    /// all the table holds — each to the free list of its size.
    fn release(&mut self, slot: u32, unsynced: u64) {
        for eighth in eighths(unsynced) {
            let size = sectors_in(unsynced, eighth).count_ones() as usize;
            let block = std::mem::replace(&mut self.tables[slot as usize][eighth], NO_BLOCK);
            self.arena.give(block, size);
        }
        self.free_tables.push(slot);
    }

    /// What the device holds in the unsynced sectors of the page `masks`
    /// describes, one run of sectors within one eighth at a time: the run
    /// and its saved bytes, or zeroes for a page never handed over.
    fn saved(&self, masks: SectorMasks) -> impl Iterator<Item = (Range<usize>, &[u8])> {
        eighths(masks.unsynced).flat_map(move |eighth| {
            let mask = sectors_in(masks.unsynced, eighth);
            let block: &[u8] = if masks.has_slot() {
                let at = at_sector(self.tables[masks.slot as usize][eighth], 0);
                &self.arena.bytes[at..][..mask.count_ones() as usize * SECTOR_BYTES]
            } else {
                &ZERO_EIGHTH
            };
            let base = eighth * EIGHTH_SECTORS;
            sector_runs(mask).map(move |run| {
                let packed = rank(mask, run.start);
                (
                    base + run.start..base + run.end,
                    &block[byte_range(packed..packed + run.len())],
                )
            })
        })
    }

    /// What is wrong with `slot`'s table for a page whose unsynced mask is
    /// `unsynced`, if anything.
    fn table_violation(&self, slot: u32, unsynced: u64) -> Option<&'static str> {
        let table = &self.tables[slot as usize];
        (0..table.len()).find_map(|eighth| {
            let size = sectors_in(unsynced, eighth).count_ones() as usize;
            match (table[eighth], size) {
                (NO_BLOCK, 0) => None,
                (NO_BLOCK, _) => Some("an undo table has no block for an unsynced eighth"),
                (_, 0) => Some("an undo table has a block for an eighth in sync"),
                (block, size) if at_sector(block, size) > self.arena.bytes.len() => {
                    Some("an undo block runs past the arena")
                }
                _ => None,
            }
        })
    }

    /// Host bytes the arenas hold: the most the log has held at once.
    fn bytes(&self) -> u64 {
        (self.arena.bytes.len() + self.tables.len() * std::mem::size_of::<Table>()) as u64
    }
}

/// The eighths of a page that `mask` has a sector in, ascending, read off
/// a summary with one bit per eighth — so a release visits only the
/// blocks it frees.
fn eighths(mask: u64) -> impl Iterator<Item = usize> {
    let mut any = mask | mask >> 1;
    any |= any >> 2;
    any |= any >> 4;
    // Bit 8e of `any` is now the OR of eighth e's eight sectors.
    let mut summary = any & 0x0101_0101_0101_0101;
    std::iter::from_fn(move || {
        let eighth = (summary != 0).then(|| summary.trailing_zeros() as usize / EIGHTH_SECTORS);
        summary &= summary.wrapping_sub(1);
        eighth
    })
}

/// `mask`'s sectors in eighth `eighth`, as the low bits of a mask over
/// that eighth.
fn sectors_in(mask: u64, eighth: usize) -> u64 {
    mask >> (eighth * EIGHTH_SECTORS) & 0xFF
}

/// How many of `mask`'s sectors come before sector `sector`: where that
/// sector lies in a block packed from `mask`.
fn rank(mask: u64, sector: usize) -> usize {
    (mask & !(u64::MAX << sector)).count_ones() as usize
}

/// Host-side counters of the undo log: how the simulator keeps its one
/// copy of NV-DRAM, not anything the simulated system did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UndoStats {
    /// Saves of fewer than 64 sectors: a write that found part of its page
    /// unsynced already or touched only part of it.
    pub partial_saves: u64,
    /// Saves into an eighth of a page that held saved sectors already:
    /// its old block's sectors and the fresh ones were copied into one
    /// block of their combined size.
    pub merges: u64,
    /// Sectors [`Mmu::restore_durable`] laid back over memory: the bytes a
    /// power failure lost.
    pub sectors_restored: u64,
    /// High-water mark of the host memory the undo log held at once, in
    /// bytes: its 64 B sectors plus the 32 B tables that index them.
    pub peak_bytes: u64,
}

/// `mask`'s maximal runs of set bits, as ranges of sectors, ascending.
fn sector_runs(mut mask: u64) -> impl Iterator<Item = Range<usize>> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let first = mask.trailing_zeros();
        let len = (mask >> first).trailing_ones();
        // `len` is 1..=64, so the right shift is by 0..=63.
        mask &= !((u64::MAX >> (64 - len)) << first);
        Some(first as usize..(first + len) as usize)
    })
}

/// The bytes of a range of 64 B sectors.
fn byte_range(sectors: Range<usize>) -> Range<usize> {
    sectors.start * SECTOR_BYTES..sectors.end * SECTOR_BYTES
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
            memory: Store::new(pages),
            clock,
            costs,
            profiler: Profiler::disabled(),
            stats: MmuStats::default(),
            dirty_limit: None,
            dirty_counted: 0,
            sector_masks: PageVec::new(pages, SectorMasks::NEW),
            undo: UndoPool::default(),
            undo_stats: UndoStats::default(),
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
        let page = PageId::containing(addr);
        let one_page = (1..=PAGE_SIZE - addr as usize % PAGE_SIZE).contains(&buf.len());
        if !one_page || self.profiler.is_enabled() {
            self.read_chunked(addr, buf);
            return Ok(());
        }
        // Within one page and nobody attributing per class: the chunking
        // loop would run exactly once, so do its one pass directly — one
        // translation, one copy, one charge of the two costs summed. The
        // copy is one slice of a dense page's frame; any other page's
        // bytes are gathered out of line.
        let (_, _, tlb_cost) = self.translate(page);
        let place = self.sector_masks.get(page).place;
        if place == DENSE {
            buf.copy_from_slice(self.memory.frame(addr, buf.len()));
        } else {
            self.memory.load(place, addr, buf);
        }
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
            self.memory
                .load(self.sector_masks.get(page).place, off, chunk);
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
            // Mark every 64 B sector the write touched, for the §7 flush
            // and for the device image alike. `span` is 1..=64, so the
            // right shift is by 0..=63.
            let first_sector = (addr as usize % PAGE_SIZE) / SECTOR_BYTES;
            let last_sector = ((addr as usize + data.len() - 1) % PAGE_SIZE) / SECTOR_BYTES;
            let span = last_sector - first_sector + 1;
            let touched = (u64::MAX >> (64 - span)) << first_sector;
            let masks = self.sector_masks.get_mut(page);
            // A sector of a held page that is in sync is part of the device
            // image until this store lands on it: keep its bytes first.
            // Most writes find their sectors unsynced already.
            let fresh = touched & !masks.unsynced;
            masks.unsynced |= touched;
            let place = masks.place;
            if fresh != 0 && masks.held() {
                self.save_undo(page, fresh);
            }
            if place == DENSE {
                self.memory.frames[addr as usize..][..data.len()].copy_from_slice(data);
            } else {
                let moved = self.memory.store_sparse(place, addr, data, touched);
                if moved != place {
                    self.sector_masks.get_mut(page).place = moved;
                }
            }
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
    /// (64 B) was written since the page was last handed to the device
    /// ([`Mmu::take_unsynced`]) or restored ([`Mmu::restore_durable`]).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn sector_mask(&self, page: PageId) -> u64 {
        self.sector_masks.get(page).unsynced
    }

    /// Bytes of `page` modified since its last hand-over or restore
    /// (sector granularity).
    pub fn dirty_sector_bytes(&self, page: PageId) -> usize {
        self.sector_mask(page).count_ones() as usize * SECTOR_BYTES
    }

    /// Saves the bytes of `page`'s `fresh` sectors — held, in sync until
    /// now, about to change — into its undo slot, taking a slot if it has
    /// none and, for each eighth of the page they touch, a block sized to
    /// that eighth's saved sectors. Out of line: most writes find their
    /// sectors unsynced already.
    #[inline(never)]
    fn save_undo(&mut self, page: PageId, fresh: u64) {
        let masks = self.sector_masks.get_mut(page);
        if masks.slot == NO_SLOT {
            masks.slot = self.undo.alloc();
        }
        let masks = *masks;
        // The write has marked `fresh` unsynced already.
        let old = masks.unsynced & !fresh;
        for eighth in eighths(fresh) {
            let (old, fresh) = (sectors_in(old, eighth), sectors_in(fresh, eighth));
            let block = self.undo.save(masks.slot, eighth, old, fresh);
            let base = eighth * EIGHTH_SECTORS;
            for run in sector_runs(fresh) {
                let at = at_sector(block, rank(old | fresh, run.start));
                let out = &mut self.undo.arena.bytes[at..][..run.len() * SECTOR_BYTES];
                let sectors = base + run.start..base + run.end;
                self.memory.save_run(page, masks.place, sectors, out);
            }
            self.undo_stats.merges += u64::from(old != 0);
        }
        if fresh != u64::MAX {
            self.undo_stats.partial_saves += 1;
        }
    }

    /// Hands `page` over to the device: its bytes in memory become the
    /// device image, so its undo slot is released and the page counts as
    /// held. Returns the sectors that were unsynced — the ones whose bytes
    /// the hand-over changed in the image. Copies nothing.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn take_unsynced(&mut self, page: PageId) -> u64 {
        let masks = self.sector_masks.get_mut(page);
        if masks.has_slot() {
            self.undo.release(masks.slot, masks.unsynced);
        }
        masks.slot = NO_SLOT;
        std::mem::take(&mut masks.unsynced)
    }

    /// `true` if `page` has been handed to the device at least once
    /// ([`Mmu::take_unsynced`]), so the device holds a copy to patch.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn is_held(&self, page: PageId) -> bool {
        self.sector_masks.get(page).held()
    }

    /// `true` if `page`'s memory equals its device image — the bytes last
    /// handed over, or zeroes if it never was. Only the unsynced sectors
    /// can differ, so only they are compared.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn matches_durable(&self, page: PageId) -> bool {
        let masks = self.sector_masks.get(page);
        self.undo
            .saved(masks)
            .all(|(run, saved)| self.memory.run(page, masks.place, run) == saved)
    }

    /// The device image of `page`, assembled from memory and the undo
    /// log: what a recovery would bring back. `None` for a page never
    /// handed over, which recovery brings back as zeroes. The slow,
    /// allocating view, for checks.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn durable_page(&self, page: PageId) -> Option<Vec<u8>> {
        let masks = self.sector_masks.get(page);
        if !masks.held() {
            return None;
        }
        let mut image = vec![0; PAGE_SIZE];
        self.peek(page.base_addr(), &mut image);
        for (run, saved) in self.undo.saved(masks) {
            image[byte_range(run)].copy_from_slice(saved);
        }
        Some(image)
    }

    /// Recovery's reload of `page`: lays its undo back over the unsynced
    /// sectors — zeroes for a page never handed over — so memory returns
    /// to the device image and the page ends in sync. Sectors in sync are
    /// not touched. Returns how many sectors were restored.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn restore_durable(&mut self, page: PageId) -> u32 {
        let masks = self.sector_masks.get(page);
        let lost = masks.unsynced;
        if lost == 0 {
            return 0;
        }
        for (run, saved) in self.undo.saved(masks) {
            self.memory
                .run_mut(page, masks.place, run)
                .copy_from_slice(saved);
        }
        let masks = self.sector_masks.get_mut(page);
        if masks.has_slot() {
            self.undo.release(masks.slot, lost);
            masks.slot = NO_SLOT;
        }
        masks.unsynced = 0;
        self.undo_stats.sectors_restored += lost.count_ones() as u64;
        lost.count_ones()
    }

    /// Host-side counters of the undo log.
    pub fn undo_stats(&self) -> UndoStats {
        UndoStats {
            peak_bytes: self.undo.bytes(),
            ..self.undo_stats
        }
    }

    /// The first page that breaks the undo log's invariant or the
    /// store's, with what is wrong: a page has an undo slot exactly when
    /// it is held and has unsynced sectors, the slot's table has a block
    /// inside the arena for exactly the eighths of the page with an
    /// unsynced sector, no page in `in_flight` (write-protected since its
    /// hand-over) has a slot, and a page that is not dense holds each
    /// sector its unsynced mask names, in one block of at most
    /// eight sectors inside its arena. O(pages); for checks.
    pub fn undo_violation(&self, in_flight: &Bitmap2L) -> Option<(PageId, &'static str)> {
        let reached = self.sector_masks.reached().iter();
        reached.enumerate().find_map(|(i, &masks)| {
            let why = self.store_violation(masks).or_else(|| {
                match (masks.has_slot(), masks.held(), masks.unsynced != 0) {
                    (true, _, false) => Some("a page in sync has an undo slot"),
                    (false, true, true) => Some("a held page's unsynced sectors have no undo slot"),
                    (true, _, true) if in_flight.test(i) => {
                        Some("a page in flight has an undo slot")
                    }
                    (true, _, true) => self.undo.table_violation(masks.slot, masks.unsynced),
                    _ => None,
                }
            })?;
            Some((PageId(i as u64), why))
        })
    }

    /// What is wrong with where the page `masks` describes lies, if
    /// anything.
    fn store_violation(&self, masks: SectorMasks) -> Option<&'static str> {
        let store = &self.memory;
        match masks.place {
            DENSE => return None,
            UNTOUCHED => {}
            record if record as usize >= store.records.len() => {
                return Some("a sparse page's record is out of range");
            }
            _ => {}
        }
        let sparse = store.sparse(masks.place);
        if masks.unsynced & !sparse.resident != 0 {
            return Some("a sparse page's written sectors are not resident");
        }
        let size = sparse.resident.count_ones() as usize;
        match masks.place {
            UNTOUCHED => None,
            _ if size == 0 => Some("a sparse page has a record and no resident sector"),
            _ if size > SPARSE_SECTORS => Some("a sparse page holds more sectors than a block"),
            _ => (at_sector(sparse.block, size) > store.arena.bytes.len())
                .then_some("a sparse page's block runs past the arena"),
        }
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

    /// Direct (DMA-style) read of `buf.len()` bytes from byte offset
    /// `addr`, across pages if it must, bypassing translation, tracking
    /// and cost accounting: what the flush path's codecs price and what
    /// checks inspect.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn peek(&self, addr: u64, buf: &mut [u8]) {
        if let Err(e) = self.check_range(addr, buf.len()) {
            panic!("Mmu::peek: {e}");
        }
        let mut addr = addr;
        let (head, tail) = buf.split_at_mut((PAGE_SIZE - addr as usize % PAGE_SIZE).min(buf.len()));
        for chunk in std::iter::once(head).chain(tail.chunks_mut(PAGE_SIZE)) {
            let place = self.sector_masks.get(PageId::containing(addr)).place;
            self.memory.load(place, addr, chunk);
            addr += chunk.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::SimDuration;

    fn mmu(pages: usize) -> Mmu {
        Mmu::new(pages, Clock::new(), CostModel::free())
    }

    /// `page`'s bytes in memory, read without a charge.
    fn memory(m: &Mmu, page: PageId) -> Vec<u8> {
        let mut bytes = vec![0; PAGE_SIZE];
        m.peek(page.base_addr(), &mut bytes);
        bytes
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
    fn sector_masks_are_per_page() {
        let mut m = mmu(2);
        m.write(PAGE_SIZE as u64 + 4000, &[1u8; 96]).unwrap();
        assert_eq!(m.sector_mask(PageId(0)), 0);
        assert_eq!(m.dirty_sector_bytes(PageId(1)), 128);
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
        assert_eq!(m.take_unsynced(PageId(0)), 0b111);
        assert_eq!(m.dirty_sector_bytes(PageId(0)), 0);
    }

    #[test]
    fn unsynced_mask_is_cleared_by_copies_never_by_policy() {
        let mut m = mmu(2);
        m.write(0, &[1u8; 130]).unwrap(); // page 0, sectors 0..=2
        let page = PageId(1);
        let base = page.base_addr();
        m.write(base, &[1]).unwrap(); // sector 0
        m.write(base + PAGE_SIZE as u64 - 1, &[2]).unwrap(); // sector 63
        m.write(base + 100, &[3; 100]).unwrap(); // sectors 1..=3
        let touched = 1 | 1 << 63 | 0b1110;
        assert_eq!(m.sector_mask(page), touched);
        // What the flush and unmap paths do to a page is policy: an epoch
        // walk and a write-protect leave the mask alone.
        assert_eq!(
            m.walk_and_clear_dirty(&[page], WalkOptions::exact_foreground()),
            vec![page]
        );
        m.protect_page(page);
        assert_eq!(m.sector_mask(page), touched, "policy left it alone");
        m.unprotect_page(page);
        assert_eq!(m.take_unsynced(page), touched);
        assert_eq!(m.sector_mask(page), 0, "the take cleared it");
        assert_eq!(m.dirty_sector_bytes(page), 0);
        assert_eq!(m.take_unsynced(page), 0);
        assert_eq!(m.sector_mask(PageId(0)), 0b111, "masks are per page");

        // A whole-page write is the span-64 case of the shift.
        m.write(base, &[4; PAGE_SIZE]).unwrap();
        assert_eq!(m.sector_mask(page), u64::MAX);
        assert_eq!(m.take_unsynced(page), u64::MAX);
    }

    /// `m`'s undo log holds exactly the slots and blocks its pages need,
    /// and its sparse pages exactly their records and blocks, every other
    /// one is on a free list, and in each arena the blocks, live and free,
    /// tile the sectors.
    #[track_caller]
    fn assert_undo_sound(m: &Mmu) {
        assert_eq!(m.undo_violation(&Bitmap2L::new(m.pages())), None);
        let reached = m.sector_masks.reached();
        let slotted: Vec<SectorMasks> = reached.iter().copied().filter(|s| s.has_slot()).collect();
        let undo = &m.undo;
        assert_eq!(
            slotted.len() + undo.free_tables.len(),
            undo.tables.len(),
            "a slot leaked"
        );
        // Every block as (first sector, size).
        let saved = slotted.iter().flat_map(|s| {
            eighths(s.unsynced).map(|eighth| {
                let size = sectors_in(s.unsynced, eighth).count_ones() as usize;
                (undo.tables[s.slot as usize][eighth] as usize, size)
            })
        });
        assert_tiled(&undo.arena, saved);
        let store = &m.memory;
        let places: Vec<u32> = reached
            .iter()
            .map(|s| s.place)
            .filter(|&place| place < DENSE)
            .collect();
        assert_eq!(
            places.len() + store.free_records.len(),
            store.records.len(),
            "a sparse record leaked"
        );
        let sparse = places.iter().map(|&place| {
            let sparse = store.sparse(place);
            (sparse.block as usize, sparse.resident.count_ones() as usize)
        });
        assert_tiled(&store.arena, sparse);
    }

    /// `live` blocks, as (first sector, size), and `arena`'s free ones
    /// hold each of its sectors exactly once.
    #[track_caller]
    fn assert_tiled(arena: &SectorArena, live: impl Iterator<Item = (usize, usize)>) {
        let free = (0..arena.free.len()).flat_map(|size| {
            arena.free[size]
                .iter()
                .map(move |&block| (block as usize, size))
        });
        let blocks: Vec<(usize, usize)> = live.chain(free).collect();
        let sectors = arena.bytes.len() / SECTOR_BYTES;
        assert_eq!(
            blocks.iter().map(|&(_, size)| size).sum::<usize>(),
            sectors,
            "live plus free sectors are not the arena"
        );
        let mut claimed = vec![false; sectors];
        for (block, size) in blocks {
            for (i, claim) in claimed[block..block + size].iter_mut().enumerate() {
                assert!(
                    !std::mem::replace(claim, true),
                    "sector {} of the arena is in two blocks",
                    block + i
                );
            }
        }
    }

    /// `m` with `page` handed over holding `fill` in every byte.
    fn held(pages: usize, page: PageId, fill: u8) -> Mmu {
        let mut m = mmu(pages);
        m.write(page.base_addr(), &[fill; PAGE_SIZE]).unwrap();
        m.take_unsynced(page);
        m
    }

    /// `m` with `page` handed over holding sector *s*'s number *s* in each
    /// of its bytes, so a sector saved in the wrong place shows; and that
    /// image.
    fn held_striped(pages: usize, page: PageId) -> (Mmu, Vec<u8>) {
        let image: Vec<u8> = (0..PAGE_SIZE).map(|i| (i / SECTOR_BYTES) as u8).collect();
        let mut m = mmu(pages);
        m.write(page.base_addr(), &image).unwrap();
        m.take_unsynced(page);
        (m, image)
    }

    #[test]
    fn the_image_keeps_the_bytes_of_the_last_hand_over() {
        let page = PageId(1);
        let base = page.base_addr();
        let mut m = held(2, page, 1);
        assert_eq!(m.durable_page(page), Some(vec![1; PAGE_SIZE]));
        m.write(base + 70, &[2; 100]).unwrap(); // sectors 1..=2
        let first = m.durable_page(page);
        assert_eq!(first, Some(vec![1; PAGE_SIZE]));
        assert!(!m.matches_durable(page));
        m.write(base + 64, &[3; 64]).unwrap(); // sector 1 again
        assert_eq!(
            m.durable_page(page),
            first,
            "a re-save overwrote older undo"
        );
        assert_eq!(m.undo_stats().partial_saves, 1);
        assert_undo_sound(&m);

        // The next hand-over makes memory the image and frees the slot.
        assert_eq!(m.take_unsynced(page), 0b110);
        assert_eq!(m.durable_page(page), Some(memory(&m, page)));
        assert!(m.matches_durable(page));
        assert_eq!(
            (m.undo.free_tables.len(), m.undo.arena.free[2].len()),
            (1, 1)
        );
        m.write(base, &[4]).unwrap();
        assert_eq!(
            (m.undo.tables.len(), m.undo.arena.bytes.len()),
            (1, 2 * SECTOR_BYTES),
            "the slot and half its block were recycled"
        );
        assert_eq!(m.undo.arena.free[1].len(), 1, "the other half is free");
        assert_eq!(
            m.durable_page(page).unwrap()[..70],
            [&[1; 64][..], &[3; 6]].concat()
        );
        assert_undo_sound(&m);

        // Writing the image's own bytes back matches it again.
        m.write(base, &[1]).unwrap();
        assert!(m.matches_durable(page));
    }

    #[test]
    fn a_run_across_unsynced_sectors_saves_only_the_fresh_ones() {
        let page = PageId(0);
        let mut m = held(1, page, 1);
        m.write(2 * 64, &[2; 64]).unwrap(); // sector 2
        m.write(5 * 64 + 3, &[3; 1]).unwrap(); // sector 5
                                               // Sectors 1..=6, of which 2 and 5 hold newer bytes than the image.
        m.write(64, &[4; 6 * 64]).unwrap();
        assert_eq!(m.undo_stats().partial_saves, 3);
        assert_eq!(m.durable_page(page), Some(vec![1; PAGE_SIZE]));
        assert_eq!(m.take_unsynced(page), 0b111_1110);
        let mut image = vec![1; PAGE_SIZE];
        image[64..7 * 64].fill(4);
        assert_eq!(m.durable_page(page), Some(image));
        assert_undo_sound(&m);
    }

    #[test]
    fn a_whole_page_write_saves_every_sector_in_sync_first() {
        let page = PageId(0);
        let mut m = held(1, page, 7);
        m.write(0, &[8; 64]).unwrap(); // sector 0 unsynced, saved
        m.write(0, &[9; PAGE_SIZE]).unwrap();
        assert_eq!(m.durable_page(page), Some(vec![7; PAGE_SIZE]));
        assert_eq!(m.undo_stats().partial_saves, 2, "1 sector, then 63");
        assert_undo_sound(&m);
        // A second write finds everything unsynced and saves nothing.
        m.write(0, &[10]).unwrap();
        assert_eq!(m.undo_stats().partial_saves, 2);
        assert_eq!(m.restore_durable(page), 64);
        assert_eq!(memory(&m, page), [7; PAGE_SIZE]);
        assert_undo_sound(&m);
    }

    #[test]
    fn restore_lays_back_only_what_was_lost() {
        let (a, b, c) = (PageId(0), PageId(1), PageId(2));
        let mut m = held(3, a, 1);
        m.write(b.base_addr(), &[2; PAGE_SIZE]).unwrap();
        m.take_unsynced(b);
        m.write(a.base_addr() + 64, &[5; 128]).unwrap(); // a: sectors 1..=2
        m.write(c.base_addr() + 100, &[6; 8]).unwrap(); // c, never held: sector 1
        assert_eq!(m.restore_durable(a), 2);
        assert_eq!(m.restore_durable(b), 0, "in sync: untouched");
        assert_eq!(m.restore_durable(c), 1);
        assert_eq!(memory(&m, a), [1; PAGE_SIZE]);
        assert_eq!(memory(&m, b), [2; PAGE_SIZE]);
        assert_eq!(memory(&m, c), [0; PAGE_SIZE]);
        assert_eq!(m.undo_stats().sectors_restored, 3);
        for page in [a, b, c] {
            assert!(m.matches_durable(page));
            assert_eq!(m.restore_durable(page), 0, "{page} ends in sync");
        }
        assert_eq!((m.is_held(a), m.is_held(c)), (true, false));
        assert_undo_sound(&m);
    }

    #[test]
    fn a_page_never_held_never_takes_a_slot() {
        let mut m = mmu(4);
        for i in 0..4u64 {
            m.write(i * PAGE_SIZE as u64 + 8, &[1; 200]).unwrap();
            assert!(!m.matches_durable(PageId(i)), "its image is zeroes");
        }
        assert_eq!(m.durable_page(PageId(0)), None);
        assert!(m.undo.tables.is_empty() && m.undo.arena.bytes.is_empty());
        assert_eq!(
            m.memory.arena.bytes.len(),
            4 * 4 * SECTOR_BYTES,
            "each page's four sectors"
        );
        assert_eq!(m.undo_stats(), UndoStats::default());
        assert_undo_sound(&m);
    }

    #[test]
    fn a_run_straddling_two_eighths_takes_two_chunks() {
        let page = PageId(1);
        let base = page.base_addr();
        let mut m = held(2, page, 1);
        let mut image = vec![1; PAGE_SIZE];
        image[6 * 64..10 * 64].fill(2);
        m.write(base + 6 * 64, &[3; 4 * 64]).unwrap(); // sectors 6..=9
        assert_eq!(
            m.undo.arena.bytes.len(),
            4 * SECTOR_BYTES,
            "two sectors in each of eighths 0 and 1"
        );
        assert_undo_sound(&m);
        m.take_unsynced(page);
        m.write(base + 6 * 64, &[2; 4 * 64]).unwrap();
        m.take_unsynced(page);
        assert_eq!(m.durable_page(page).as_deref(), Some(&image[..]));

        // The lost run comes back byte-exact, both halves, through
        // recycled blocks that held other bytes before.
        m.write(base + 6 * 64 + 5, &[9; 4 * 64 - 10]).unwrap();
        assert_eq!(m.undo.arena.bytes.len(), 4 * SECTOR_BYTES);
        assert_eq!(m.durable_page(page).as_deref(), Some(&image[..]));
        assert_eq!(m.restore_durable(page), 4);
        assert_eq!(memory(&m, page), image);
        assert_eq!(m.undo.arena.free[2].len(), 2);
        assert_undo_sound(&m);
    }

    #[test]
    fn a_whole_page_save_takes_eight_chunks_and_the_hand_over_frees_them() {
        let page = PageId(0);
        let mut m = held(1, page, 1);
        m.write(0, &[2; PAGE_SIZE]).unwrap();
        assert_eq!(m.undo.arena.bytes.len(), PAGE_SIZE);
        assert!(m.undo.tables[0].iter().all(|&b| b != NO_BLOCK));
        assert_undo_sound(&m);
        m.take_unsynced(page);
        assert_eq!(m.undo.arena.free[8].len(), 8, "all eight freed");
        assert_eq!(m.undo.tables[0], [NO_BLOCK; 8]);
        m.write(0, &[3; PAGE_SIZE]).unwrap();
        assert_eq!(
            m.undo.arena.bytes.len(),
            PAGE_SIZE,
            "the next save reused them"
        );
        assert!(m.undo.arena.free[8].is_empty());
        assert_eq!(m.durable_page(page), Some(vec![2; PAGE_SIZE]));
        assert_undo_sound(&m);
    }

    #[test]
    fn sector_writes_to_n_held_pages_hold_n_chunks() {
        let n = 16;
        let mut m = mmu(n);
        for i in 0..n as u64 {
            m.write(i * PAGE_SIZE as u64, &[1; PAGE_SIZE]).unwrap();
            m.take_unsynced(PageId(i));
        }
        for i in 0..n as u64 {
            // Each in its own sector, from the first eighth to the last.
            m.write(i * PAGE_SIZE as u64 + i * 4 * 64, &[2; 64])
                .unwrap();
        }
        assert_eq!(
            (m.undo.tables.len(), m.undo.arena.bytes.len()),
            (n, n * SECTOR_BYTES)
        );
        assert_eq!(m.undo_stats().peak_bytes, n as u64 * (64 + 32));
        assert_undo_sound(&m);
        for i in 0..n as u64 {
            assert_eq!(m.durable_page(PageId(i)), Some(vec![1; PAGE_SIZE]));
        }
        // The arenas keep their high-water mark once everything is freed.
        for i in 0..n as u64 {
            m.take_unsynced(PageId(i));
        }
        assert_eq!(m.undo_stats().peak_bytes, n as u64 * (64 + 32));
        assert_undo_sound(&m);
    }

    #[test]
    fn a_merge_keeps_the_bytes_the_first_save_took() {
        let page = PageId(0);
        let (mut m, image) = held_striped(1, page);
        m.write(3 * 64, &[0xAA; 64]).unwrap(); // sector 3: a block of one
        m.write(64 + 10, &[0xBB; 8]).unwrap(); // sector 1: merged, two
        m.write(2 * 64 + 1, &[0xCC; 4 * 64]).unwrap(); // 2..=6 around 3: six
        assert_eq!(m.undo_stats().merges, 2);
        assert_eq!(
            m.durable_page(page).as_deref(),
            Some(&image[..]),
            "a merge lost or moved a sector an earlier save took"
        );
        // Blocks of one and two freed by the merges, and the six.
        assert_eq!(m.undo.arena.bytes.len(), 9 * SECTOR_BYTES);
        assert_eq!(
            (m.undo.arena.free[1].len(), m.undo.arena.free[2].len()),
            (1, 1)
        );
        assert_undo_sound(&m);
        assert_eq!(m.restore_durable(page), 6);
        assert_eq!(memory(&m, page), image);
        assert_undo_sound(&m);
    }

    #[test]
    fn a_freed_block_is_split_before_the_arena_grows() {
        let page = PageId(0);
        let mut m = held(1, page, 1);
        m.write(0, &[2; 8 * 64]).unwrap(); // eighth 0: a block of eight
        m.take_unsynced(page);
        let image = memory(&m, page);
        m.write(9 * 64, &[3]).unwrap(); // one sector of eighth 1
        assert_eq!(
            m.undo.arena.bytes.len(),
            8 * SECTOR_BYTES,
            "the block of eight was split, not the arena grown"
        );
        assert_eq!(m.undo.arena.free[7], [1], "its last seven are free");
        m.write(16 * 64, &[4; 7 * 64]).unwrap(); // seven sectors of eighth 2
        assert_eq!(m.undo.arena.bytes.len(), 8 * SECTOR_BYTES);
        assert!(m.undo.arena.free.iter().all(Vec::is_empty));
        assert_eq!(m.durable_page(page), Some(image));
        assert_undo_sound(&m);
    }

    #[test]
    fn line_stamps_on_held_pages_hold_their_sectors_not_eighths() {
        // What re-reading every key of a KV store after a recovery leaves:
        // one 64 B stamp in every other 128 B block of each held page.
        let n = 16u64;
        let mut m = mmu(n as usize);
        for i in 0..n {
            m.write(i * PAGE_SIZE as u64, &[1; PAGE_SIZE]).unwrap();
            m.take_unsynced(PageId(i));
        }
        for i in 0..n {
            for block in (0..PAGE_SIZE as u64 / 128).step_by(2) {
                m.write(i * PAGE_SIZE as u64 + block * 128, &[2; 64])
                    .unwrap();
            }
        }
        // Two stamps an eighth: the second merges into a block of two, and
        // the next eighth's first takes the one it freed. One free sector
        // is left over.
        let undo = m.undo_stats();
        assert_eq!(undo.merges, n * 8);
        assert_eq!(undo.peak_bytes, n * (16 * 64 + 32) + 64);
        assert!(undo.peak_bytes < n * 8 * 512 / 3, "{undo:?}");
        for i in 0..n {
            assert_eq!(m.durable_page(PageId(i)), Some(vec![1; PAGE_SIZE]));
        }
        assert_undo_sound(&m);
    }

    #[test]
    fn eighths_names_each_eighth_with_a_sector_once() {
        let eighths = |mask| eighths(mask).collect::<Vec<_>>();
        assert_eq!(eighths(0), vec![]);
        assert_eq!(eighths(u64::MAX), (0..8).collect::<Vec<_>>());
        assert_eq!(eighths(1 << 63), vec![7]);
        assert_eq!(eighths(0b11 << 7), vec![0, 1]);
        assert_eq!(eighths(0x8000_0001_0000_0080), vec![0, 4, 7]);
        assert_eq!(sectors_in(0x8000_0001_0000_0080, 7), 0x80);
    }

    #[test]
    fn sector_runs_are_maximal_and_ascending() {
        let runs = |mask| sector_runs(mask).collect::<Vec<_>>();
        assert_eq!(runs(0), vec![]);
        assert_eq!(runs(u64::MAX), vec![0..64]);
        assert_eq!(runs(1 << 63), vec![63..64]);
        assert_eq!(runs(0b1101_1001), vec![0..1, 3..5, 6..8]);
        assert_eq!(byte_range(3..5), 3 * 64..5 * 64);
    }

    #[test]
    fn rank_counts_the_sectors_packed_before_one() {
        assert_eq!(rank(0b1101_1001, 0), 0);
        assert_eq!(rank(0b1101_1001, 3), 1);
        assert_eq!(rank(0b1101_1001, 7), 4);
        assert_eq!(rank(0xFF, 7), 7);
    }

    #[test]
    fn undo_violations_name_the_page() {
        let mut m = held(3, PageId(2), 1);
        m.write(2 * PAGE_SIZE as u64, &[2]).unwrap();
        let mut in_flight = Bitmap2L::new(3);
        assert_eq!(m.undo_violation(&in_flight), None);
        in_flight.set(2);
        assert_eq!(
            m.undo_violation(&in_flight),
            Some((PageId(2), "a page in flight has an undo slot"))
        );
        m.sector_masks.get_mut(PageId(2)).unsynced = 0;
        assert_eq!(
            m.undo_violation(&in_flight),
            Some((PageId(2), "a page in sync has an undo slot"))
        );
        let masks = m.sector_masks.get_mut(PageId(1));
        (masks.unsynced, masks.slot, masks.place) = (1, NO_SLOT, DENSE);
        assert_eq!(
            m.undo_violation(&in_flight),
            Some((
                PageId(1),
                "a held page's unsynced sectors have no undo slot"
            ))
        );

        // A slot's table must match its page's unsynced eighths.
        let mut m = held(1, PageId(0), 1);
        m.write(0, &[2]).unwrap(); // eighth 0
        let none = Bitmap2L::new(1);
        assert_eq!(m.undo_violation(&none), None);
        m.sector_masks.get_mut(PageId(0)).unsynced |= 1 << 8;
        assert_eq!(
            m.undo_violation(&none),
            Some((
                PageId(0),
                "an undo table has no block for an unsynced eighth"
            ))
        );
        m.sector_masks.get_mut(PageId(0)).unsynced = 1 << 8;
        assert_eq!(
            m.undo_violation(&none),
            Some((PageId(0), "an undo table has a block for an eighth in sync"))
        );
        // A block must lie inside the arena, which holds one sector here.
        m.sector_masks.get_mut(PageId(0)).unsynced = 0b11;
        assert_eq!(
            m.undo_violation(&none),
            Some((PageId(0), "an undo block runs past the arena"))
        );
    }

    /// `m` with one sector written at `offset` of each of `sectors`, in
    /// turn, of page 0, each byte its sector's number plus one.
    fn written(sectors: &[usize]) -> Mmu {
        let mut m = mmu(1);
        for &s in sectors {
            m.write((s * SECTOR_BYTES) as u64, &[s as u8 + 1; SECTOR_BYTES])
                .unwrap();
        }
        m
    }

    #[test]
    fn a_page_of_eight_sectors_is_sparse_and_the_ninth_promotes_it() {
        let sectors = [60, 3, 17, 0, 41, 8, 9, 33];
        let mut m = written(&sectors);
        let place = m.sector_masks.get(PageId(0)).place;
        assert_ne!(place, DENSE, "eight sectors stay packed");
        assert_eq!(m.memory.sparse(place).resident.count_ones(), 8);
        assert_eq!(
            m.memory.arena.bytes.len(),
            (1..=8).sum::<usize>() * SECTOR_BYTES
        );
        assert_undo_sound(&m);
        let mut image = vec![0; PAGE_SIZE];
        for s in sectors {
            image[byte_range(s..s + 1)].fill(s as u8 + 1);
        }
        assert_eq!(memory(&m, PageId(0)), image);
        // A rewrite of a resident sector takes nothing.
        m.write(17 * 64 + 5, &[0xEE; 3]).unwrap();
        image[17 * 64 + 5..17 * 64 + 8].fill(0xEE);
        assert_ne!(m.sector_masks.get(PageId(0)).place, DENSE);

        m.write(62 * 64 + 10, &[0xAB; 4]).unwrap();
        image[62 * 64 + 10..62 * 64 + 14].fill(0xAB);
        assert_eq!(
            m.sector_masks.get(PageId(0)).place,
            DENSE,
            "a ninth promotes"
        );
        assert_eq!(m.memory.free_records, [0], "its record is free");
        assert_eq!(memory(&m, PageId(0)), image);
        assert_eq!(
            m.memory.arena.free[8].len(),
            1,
            "its block of eight is free"
        );
        assert_undo_sound(&m);
        let mut buf = [0; 100];
        m.read(61 * 64 + 20, &mut buf).unwrap();
        assert_eq!(buf[..], image[61 * 64 + 20..][..100]);
    }

    #[test]
    fn a_new_sector_reads_as_zeroes_around_a_short_write() {
        // Page 0 growing to three sectors frees a block of one and one of
        // two, holding its old bytes; page 1 then takes both back.
        let mut m = mmu(2);
        for s in 1..=3u64 {
            m.write(s * 64, &[s as u8; 64]).unwrap();
        }
        let base = PAGE_SIZE as u64;
        m.write(base + 10 * 64, &[9; 64]).unwrap();
        m.write(base + PAGE_SIZE as u64 - 70, &[7; 4]).unwrap(); // sector 62
        assert_eq!(
            m.memory.arena.bytes.len(),
            6 * SECTOR_BYTES,
            "both of page 1's blocks were recycled"
        );
        let mut image = vec![0; PAGE_SIZE];
        image[byte_range(10..11)].fill(9);
        image[PAGE_SIZE - 70..PAGE_SIZE - 66].fill(7);
        assert_eq!(memory(&m, PageId(1)), image);
        let mut buf = [0xA5; 3 * 64];
        m.read(base + PAGE_SIZE as u64 - 3 * 64, &mut buf).unwrap();
        assert_eq!(buf[..], image[PAGE_SIZE - 3 * 64..]);
        assert_undo_sound(&m);
    }

    #[test]
    fn a_whole_page_write_to_an_untouched_page_takes_no_block() {
        let mut m = mmu(2);
        m.write(PAGE_SIZE as u64, &[5; PAGE_SIZE]).unwrap();
        assert_eq!(m.sector_masks.get(PageId(1)).place, DENSE);
        assert!(m.memory.arena.bytes.is_empty());
        assert_eq!(m.sector_masks.get(PageId(0)).place, UNTOUCHED);
        assert_eq!(memory(&m, PageId(0)), [0; PAGE_SIZE]);
    }

    #[test]
    fn a_sparse_page_keeps_its_image_through_promotion_and_restore() {
        let page = PageId(0);
        let mut m = written(&[2, 5]);
        m.take_unsynced(page);
        let image = memory(&m, page);
        // Sector 5 was resident and in sync, sector 9 was not resident.
        m.write(5 * 64, &[0xC1; 64]).unwrap();
        m.write(9 * 64 + 1, &[0xC2; 2]).unwrap();
        assert_ne!(m.sector_masks.get(page).place, DENSE);
        assert_eq!(m.durable_page(page).as_deref(), Some(&image[..]));
        assert!(!m.matches_durable(page));
        assert_undo_sound(&m);
        // Past eight resident sectors after the hand-over: dense.
        m.write(20 * 64, &[0xC3; 7 * 64]).unwrap();
        assert_eq!(m.sector_masks.get(page).place, DENSE);
        assert_eq!(m.durable_page(page).as_deref(), Some(&image[..]));
        assert_undo_sound(&m);
        assert_eq!(m.restore_durable(page), 9);
        assert_eq!(memory(&m, page), image);
        assert!(m.matches_durable(page));
        assert_undo_sound(&m);

        // A sparse page restores in place, inside its block.
        let mut m = written(&[2, 5]);
        m.take_unsynced(page);
        m.write(5 * 64 + 3, &[0xD1; 10]).unwrap();
        m.write(40 * 64, &[0xD2; 64]).unwrap();
        assert_eq!(m.restore_durable(page), 2);
        assert_ne!(m.sector_masks.get(page).place, DENSE);
        assert_eq!(memory(&m, page), image);
        assert_undo_sound(&m);
    }

    #[test]
    fn store_violations_name_the_page() {
        let none = Bitmap2L::new(1);
        let mut m = written(&[4]);
        assert_eq!(m.undo_violation(&none), None);
        m.sector_masks.get_mut(PageId(0)).unsynced = 1 << 5;
        assert_eq!(
            m.undo_violation(&none),
            Some((
                PageId(0),
                "a sparse page's written sectors are not resident"
            ))
        );
        m.sector_masks.get_mut(PageId(0)).unsynced = 0;
        m.memory.records[0].resident = 0b11;
        assert_eq!(
            m.undo_violation(&none),
            Some((PageId(0), "a sparse page's block runs past the arena"))
        );
        m.memory.records[0].resident = 0;
        assert_eq!(
            m.undo_violation(&none),
            Some((
                PageId(0),
                "a sparse page has a record and no resident sector"
            ))
        );
        m.sector_masks.get_mut(PageId(0)).place = 1;
        assert_eq!(
            m.undo_violation(&none),
            Some((PageId(0), "a sparse page's record is out of range"))
        );
    }
}
