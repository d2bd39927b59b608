//! The dirty-tracking backends: how each mode observes page dirtiness.
//!
//! The shared engine (see [`super`]) drives Fig. 6; a [`DirtyTracker`]
//! supplies the mode-specific mechanics — what a write to a tracked page
//! costs, how newly dirty pages are discovered, what a flush pays, and
//! how power failure/recovery interact with the tracking state. Each
//! backend preserves the cost charging of the runtime it replaced: the
//! software walker traps on first writes and flushes the TLB on walks,
//! the hardware backend traps only at the budget boundary, the baseline
//! never traps at all.

use mem_sim::bitmap::extend_from_word;
use mem_sim::{AccessError, Mmu, PageId, WalkOptions, PAGE_SIZE};
use telemetry::{CostClass, TraceEvent};

use crate::codec::{encoded_page_bytes, page_content_hash, DEDUP_RECORD_BYTES};
use crate::{FlushCodec, InvariantViolation, PageState, RegionInfo, ViyojitConfig};

use super::emergency::{FlushObligation, ObligationItem};
use super::{retire_completions, stall_until_dirty_at_most, wait_for_page_io, EngineCore};

/// Page-tracking mechanics plugged into [`Engine`](super::Engine).
///
/// The engine owns each page's lifecycle in `EngineCore::pages`: a page
/// goes Clean → Dirty when the backend discovers its first write, Dirty →
/// InFlight when its flush is issued, and InFlight → Clean when the IO
/// completes. Implementations hold only the state their tracking
/// mechanism needs beyond that (the software walk's dedup hashes, or
/// nothing at all). Hooks take the core and the backend as separate
/// parameters so they can re-enter the shared control flow (stall,
/// retire, flush) without aliasing.
pub trait DirtyTracker: Sized + std::fmt::Debug {
    /// Display name used by the [`NvStore`](crate::NvStore) impl.
    const SYSTEM: &'static str;

    /// Whether this backend runs the Fig. 6 control loop (epoch walks,
    /// proactive copying, budget enforcement). The baseline does not.
    const HAS_CONTROL_LOOP: bool;

    /// Whether flush payloads go through the §7 codecs; when `false` the
    /// `viyojit.physical_bytes_flushed` counter stays unpublished, as
    /// every flush ships a full page.
    const TRACKS_PHYSICAL: bool;

    /// Arms the tracking mechanism at construction time (protection pass,
    /// dirty-limit arming, or nothing) and returns the backend state.
    fn init(mmu: &mut Mmu, config: &ViyojitConfig) -> Self;

    /// Pages currently counted against the dirty budget: by default the
    /// pages the engine holds Dirty or InFlight.
    fn dirty_count(core: &EngineCore) -> u64 {
        core.pages.dirty_count()
    }

    /// Handles a recoverable MMU write error (a write-protect fault or a
    /// dirty-limit interrupt); the engine retries the write afterwards.
    fn on_write_error(core: &mut EngineCore, backend: &mut Self, err: AccessError);

    /// The epoch walk (§5.2): refresh recency, discover newly dirty
    /// pages. Returns `(pages walked, newly dirty pages observed)` for
    /// the `EpochWalk` trace event and the pressure estimator.
    fn epoch_walk(core: &mut EngineCore, backend: &mut Self) -> (u64, u64);

    /// Called when the idle fast-forward path skips epochs.
    fn on_epochs_skipped(&mut self) {}

    /// `victim` has just been re-protected and moved InFlight; its IO is
    /// about to be submitted.
    fn mark_in_flight(_core: &mut EngineCore, _victim: PageId) {}

    /// The physical bytes one flush of `victim` ships (the §7
    /// reductions), priced from the page's bytes where they lie; by
    /// default a full page.
    fn flush_payload(_core: &mut EngineCore, _backend: &mut Self, _victim: PageId) -> usize {
        PAGE_SIZE
    }

    /// The flush IO for `page` completed and the engine moved it Clean.
    fn on_flush_complete(_core: &mut EngineCore, _page: PageId) {}

    /// Picks the victim for a forced flush when the stall loop finds no
    /// IO in flight.
    fn pick_forced_victim(core: &mut EngineCore) -> PageId;

    /// The §8 budget hook changed the budget to `pages` (the engine
    /// stalls down to it afterwards).
    fn on_budget_changed(_core: &mut EngineCore, _pages: u64) {}

    /// Releases tracking state for a dying mapping. The engine has waited
    /// out its in-flight flushes and discarded its Dirty pages, listed in
    /// `discarded` (their contents are garbage now, not data to
    /// preserve).
    fn unmap_region(_core: &mut EngineCore, _info: &RegionInfo, _discarded: &[PageId]) {}

    /// Enumerates what the design obliges the battery to flush at a power
    /// failure: the pages to submit, with their physical payloads. A page
    /// whose IO is in flight is no item: the executor charges that IO's
    /// tail instead. The engine's emergency executor (the `emergency`
    /// module) then steps the obligation against the (possibly faulty)
    /// SSD and the battery's hold-up energy.
    fn failure_obligation(core: &mut EngineCore, backend: &mut Self) -> FlushObligation;

    /// The pages a power failure's report accounts for, items or not: by
    /// default those counted against the budget, the in-flight ones
    /// included.
    fn failure_pages(core: &EngineCore) -> u64 {
        Self::dirty_count(core)
    }

    /// Reloads memory from the SSD and re-arms the tracking mechanism
    /// after a power cycle (the engine resets the page states and the
    /// shared trackers afterwards).
    fn recover_memory(core: &mut EngineCore, backend: &mut Self);

    /// Checks the invariants of the tracking mechanism; the engine checks
    /// the page states, the budget, the IO list and the undo log.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    fn check_invariants(_core: &EngineCore) -> Result<(), InvariantViolation> {
        Ok(())
    }

    /// `true` if every clean mapped page matches its durable SSD copy.
    fn durable_state_consistent(core: &EngineCore) -> bool;
}

// ----------------------------------------------------------------------
// SoftwareWalk: the paper's §5 design (write-protect faults + PTE walks)
// ----------------------------------------------------------------------

/// The paper's software tracking (§5): every page starts write-protected,
/// first writes trap into the fault handler, and the epoch walker samples
/// and clears PTE dirty bits (flushing the TLB for exactness).
///
/// A page is writable exactly while the engine holds it Dirty. Beyond the
/// engine's page states the backend keeps only the content hashes of the
/// dedup codec and the count of pages it admitted this epoch.
///
/// `Engine<SoftwareWalk>` is [`Viyojit`](crate::Viyojit).
#[derive(Debug)]
pub struct SoftwareWalk {
    /// Content hashes of pages durable on the SSD (dedup codec only).
    dedup_hashes: std::collections::HashSet<u64>,
    new_dirty_this_epoch: u64,
}

/// The write-protection fault handler (Fig. 6 steps 3-8).
fn handle_fault(core: &mut EngineCore, sw: &mut SoftwareWalk, page: PageId) {
    let _span = core.profiler.span(CostClass::WpTrap);
    core.stats.faults_handled += 1;
    core.telemetry
        .emit(|| TraceEvent::WriteFault { page: page.0 });
    retire_completions::<SoftwareWalk>(core);

    if core.pages.state(page) == PageState::InFlight {
        // The page is mid-flush; wait for its IO so the clean snapshot
        // is durable before the page is re-dirtied.
        core.stats.in_flight_collisions += 1;
        wait_for_page_io::<SoftwareWalk>(core, page);
    }
    debug_assert_eq!(core.pages.state(page), PageState::Clean);

    // Step 5: admitting this page must keep the count within budget.
    let admit = core.config.dirty_budget_pages - 1;
    stall_until_dirty_at_most(core, sw, admit, admit);

    // Step 8: unprotect, count, record.
    core.mmu.unprotect_page(page);
    core.pages.mark_dirty(page);
    core.history.touch(page);
    core.selector.on_dirty(page, &core.history);
    sw.new_dirty_this_epoch += 1;
    core.stats.pages_dirtied += 1;
}

impl DirtyTracker for SoftwareWalk {
    const SYSTEM: &'static str = "Viyojit";
    const HAS_CONTROL_LOOP: bool = true;
    const TRACKS_PHYSICAL: bool = true;

    fn init(mmu: &mut Mmu, _config: &ViyojitConfig) -> Self {
        for i in 0..mmu.pages() {
            mmu.protect_page(PageId(i as u64));
        }
        SoftwareWalk {
            dedup_hashes: std::collections::HashSet::new(),
            new_dirty_this_epoch: 0,
        }
    }

    fn on_write_error(core: &mut EngineCore, backend: &mut Self, err: AccessError) {
        match err {
            AccessError::WriteProtected(page) => handle_fault(core, backend, page),
            e @ AccessError::DirtyLimitReached(_) => {
                unreachable!("software Viyojit never arms the hardware dirty limit: {e}")
            }
            e @ AccessError::OutOfRange { .. } => {
                unreachable!("resolved addresses are in range: {e}")
            }
        }
    }

    fn epoch_walk(core: &mut EngineCore, backend: &mut Self) -> (u64, u64) {
        // The Dirty bitmap is the walk's mask: each of its non-zero words
        // is one read-and-clear of the PTE dirty column, and only the
        // pages found updated come back — ascending, as `iter_dirty` would
        // have listed them.
        let known = core.pages.dirty_bits();
        let options = WalkOptions {
            flush_tlb: core.config.tlb_flush_on_walk,
            charge_costs: false, // the walker runs off the app's critical path
        };
        for &page in core.mmu.walk_and_clear_dirty_in(known, options) {
            core.history.touch(page);
            core.selector.on_touch(page, &core.history);
            core.stats.walk_touches += 1;
        }
        let new_dirty = backend.new_dirty_this_epoch;
        backend.new_dirty_this_epoch = 0;
        (known.count() as u64, new_dirty)
    }

    fn on_epochs_skipped(&mut self) {
        self.new_dirty_this_epoch = 0;
    }

    fn mark_in_flight(core: &mut EngineCore, victim: PageId) {
        // Clear the PTE dirty bit so post-flush tracking starts clean; the
        // protect just performed already invalidated the TLB entry.
        core.mmu.take_dirty(victim);
    }

    /// The physical payload one page flush costs under the configured §7
    /// reductions: sector-granular shipping (when the device holds a base
    /// copy to patch), compression, or a dedup reference when the whole
    /// content is already durable. When both sector flushing and a codec
    /// are enabled, the cheaper of the two applies. The sectors priced are
    /// the ones the hand-over will change in the device image
    /// ([`Mmu::sector_mask`]).
    fn flush_payload(core: &mut EngineCore, sw: &mut Self, page: PageId) -> usize {
        let page_bytes = || {
            let mut data = [0; PAGE_SIZE];
            core.mmu.peek(page.base_addr(), &mut data);
            data
        };
        let codec_bytes = match core.config.flush_codec {
            FlushCodec::Raw => PAGE_SIZE,
            FlushCodec::Rle => encoded_page_bytes(FlushCodec::Rle, &page_bytes()),
            FlushCodec::RleDedup => {
                let data = page_bytes();
                let hash = page_content_hash(&data);
                if sw.dedup_hashes.insert(hash) {
                    encoded_page_bytes(FlushCodec::Rle, &data)
                } else {
                    DEDUP_RECORD_BYTES
                }
            }
        };
        if core.config.sector_flush && core.mmu.is_held(page) {
            // Clean sectors already match the durable base copy, so only
            // the modified sectors (plus an 8 B mask) need shipping.
            let sector_bytes = core.mmu.dirty_sector_bytes(page) + 8;
            codec_bytes.min(sector_bytes.min(PAGE_SIZE))
        } else {
            codec_bytes
        }
    }

    fn pick_forced_victim(core: &mut EngineCore) -> PageId {
        core.selector
            .peek()
            .expect("dirty pages exceed the limit but none are flushable or in flight")
    }

    fn unmap_region(core: &mut EngineCore, _info: &RegionInfo, discarded: &[PageId]) {
        for &page in discarded {
            core.mmu.protect_page(page);
        }
    }

    fn failure_obligation(core: &mut EngineCore, backend: &mut Self) -> FlushObligation {
        // The Dirty pages, in ascending page order; the InFlight ones are
        // counted but covered by their IOs' tail.
        let mut pages: Vec<PageId> = Vec::new();
        core.pages.collect_dirty_into(&mut pages);
        let items: Vec<ObligationItem> = pages
            .into_iter()
            .map(|page| ObligationItem {
                page,
                payload: Self::flush_payload(core, backend, page),
            })
            .collect();
        FlushObligation { items }
    }

    fn recover_memory(core: &mut EngineCore, backend: &mut Self) {
        for i in 0..core.mmu.pages() {
            let page = PageId(i as u64);
            core.mmu.restore_durable(page);
            core.mmu.protect_page(page);
        }
        backend.new_dirty_this_epoch = 0;
        // dedup_hashes survive: the SSD still holds those contents.
    }

    fn check_invariants(core: &EngineCore) -> Result<(), InvariantViolation> {
        // Exactly the Dirty-state pages must be writable. A page can only
        // mismatch where either bitmap has a bit set, so comparing the two
        // columns word-by-word over their union skips agreeing-clean space
        // entirely; the first differing bit is the lowest mismatching page.
        let mut mismatch: Option<(u64, bool)> = None;
        core.pages.dirty_bits().for_each_word_union(
            core.mmu.page_table().writable_bits(),
            |w, dirty, writable| {
                if mismatch.is_none() && dirty != writable {
                    let bit = (dirty ^ writable).trailing_zeros() as u64;
                    let page = w as u64 * 64 + bit;
                    mismatch = Some((page, dirty & (1 << bit) != 0));
                }
            },
        );
        match mismatch {
            Some((page, counted_dirty)) => Err(InvariantViolation::ProtectionMismatch {
                page,
                counted_dirty,
            }),
            None => Ok(()),
        }
    }

    fn durable_state_consistent(core: &EngineCore) -> bool {
        // Dirty and in-flight pages are legitimately ahead of the SSD;
        // the word mask excludes them 64 at a time.
        let (dirty, in_flight) = (core.pages.dirty_bits(), core.pages.in_flight_bits());
        core.regions
            .iter()
            .all(|(_, info)| clean_pages_match(core, &info, |w| dirty.word(w) | in_flight.word(w)))
    }
}

/// Checks [`Mmu::matches_durable`] for every page of `info` whose bit is
/// *clear* in the word-level `skip_word` mask (bit `b` of `skip_word(w)`
/// covers page `w * 64 + b`), returning `false` on the first mismatch.
/// The mask lets callers exclude legitimately-ahead pages 64 at a time.
fn clean_pages_match(
    core: &EngineCore,
    info: &RegionInfo,
    skip_word: impl Fn(usize) -> u64,
) -> bool {
    let start = info.first_page.index();
    let end = start + info.pages as usize;
    let mut p = start;
    while p < end {
        let w = p / 64;
        let word_end = ((w + 1) * 64).min(end);
        let mut bits = !skip_word(w) & (!0u64 << (p % 64));
        if word_end < (w + 1) * 64 {
            bits &= (1u64 << (word_end % 64)) - 1;
        }
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if !core.mmu.matches_durable(PageId((w * 64 + b) as u64)) {
                return false;
            }
        }
        p = word_end;
    }
    true
}

// ----------------------------------------------------------------------
// MmuAssisted: the §5.4 hardware offload
// ----------------------------------------------------------------------

/// The §5.4 hardware offload: the MMU counts dirty-bit transitions
/// itself, raises an interrupt only when the count reaches the OS-set
/// limit, and provides a shadow dirty bit for recency tracking. Writes to
/// clean pages proceed at full speed; traps happen only at the budget
/// boundary.
///
/// The backend holds no state. A page with its PTE dirty bit set that the
/// engine still holds Clean was dirtied silently since the last discovery
/// scan, which moves it Dirty; a page the engine holds InFlight is
/// write-protected with its flush IO pending (§5.1's ordering still
/// applies in hardware), and its completion credits the hardware counter.
///
/// `Engine<MmuAssisted>` is [`MmuAssistedViyojit`](crate::MmuAssistedViyojit).
#[derive(Debug)]
pub struct MmuAssisted;

/// Discovery scan over mapped pages: PTE dirty bit set but page still
/// Clean means it was dirtied silently since the last scan. The scan
/// walks the PTE dirty-bit column word-by-word instead of testing every
/// mapped page, visiting regions in slot order and pages in ascending
/// order within each region — the same order the full scan used, so
/// victim-selection recency is untouched.
fn hw_discover(core: &mut EngineCore) -> u64 {
    let mut candidates: Vec<PageId> = Vec::new();
    {
        // Dispatched range collection over the PTE dirty column; the
        // Clean filter runs over the collected positions, so candidates
        // keep ascending order within each region.
        let pte_dirty = core.mmu.page_table().dirty_bits();
        let mut raw: Vec<usize> = Vec::new();
        for (_, info) in core.regions.iter() {
            let start = info.first_page.index();
            let end = start + info.pages as usize;
            raw.clear();
            pte_dirty.collect_range_into(start, end, &mut raw);
            candidates.extend(
                raw.iter()
                    .map(|&i| PageId(i as u64))
                    .filter(|&page| core.pages.state(page) == PageState::Clean),
            );
        }
    }
    for &page in &candidates {
        core.pages.mark_dirty(page);
        core.history.touch(page);
        core.selector.on_dirty(page, &core.history);
        core.stats.pages_dirtied += 1;
        // Power cut mid-scan: this page moved Dirty, later candidates
        // still undiscovered.
        fault_sim::crashpoint!(core.crashes, DiscoveryScan);
    }
    candidates.len() as u64
}

/// Handles the §5.4 dirty-limit interrupt: free one hardware slot by
/// flushing, waiting for completions as needed.
fn handle_limit_interrupt(core: &mut EngineCore, hw: &mut MmuAssisted) {
    let _span = core.profiler.span(CostClass::WpTrap);
    core.stats.faults_handled += 1;
    retire_completions::<MmuAssisted>(core);
    let budget = core.config.dirty_budget_pages;
    stall_until_dirty_at_most(core, hw, budget - 1, budget);
}

impl DirtyTracker for MmuAssisted {
    const SYSTEM: &'static str = "Viyojit-MMU";
    const HAS_CONTROL_LOOP: bool = true;
    const TRACKS_PHYSICAL: bool = false;

    fn init(mmu: &mut Mmu, config: &ViyojitConfig) -> Self {
        // Pages start writable (no protection pass); the MMU's dirty limit
        // is armed at the budget.
        mmu.set_dirty_limit(Some(config.dirty_budget_pages));
        MmuAssisted
    }

    fn dirty_count(core: &EngineCore) -> u64 {
        // The hardware dirty counter is the exact budget-bound population,
        // undiscovered pages included.
        core.mmu.dirty_counted()
    }

    fn on_write_error(core: &mut EngineCore, backend: &mut Self, err: AccessError) {
        match err {
            AccessError::DirtyLimitReached(_) => handle_limit_interrupt(core, backend),
            AccessError::WriteProtected(page) => {
                // Only in-flight pages are protected in this mode.
                core.stats.in_flight_collisions += 1;
                wait_for_page_io::<Self>(core, page);
            }
            e @ AccessError::OutOfRange { .. } => {
                unreachable!("resolved addresses are in range: {e}")
            }
        }
    }

    /// Epoch duties: discover newly dirty pages (the OS only learns page
    /// *addresses* by scanning, since dirtying no longer traps), then
    /// refresh recency from shadow bits.
    fn epoch_walk(core: &mut EngineCore, _backend: &mut Self) -> (u64, u64) {
        let discovered = hw_discover(core);
        // Shadow walk over Dirty pages refreshes recency without touching
        // the counter. No full TLB flush is required for correctness here
        // — the shadow bit is only advisory — but the walk flushes when
        // configured, like the software mode.
        let options = WalkOptions {
            flush_tlb: core.config.tlb_flush_on_walk,
            charge_costs: false,
        };
        let updated = core
            .mmu
            .walk_and_clear_shadow_in(core.pages.dirty_bits(), options);
        // Recency stamps follow region slot order, pages ascending within
        // each region. Dirty pages are all mapped (an invariant), so the
        // per-region slices of the ascending walk cover every hit.
        for (_, info) in core.regions.iter() {
            let start = info.first_page.index();
            let end = start + info.pages as usize;
            let lo = updated.partition_point(|p| p.index() < start);
            let hi = updated.partition_point(|p| p.index() < end);
            for &page in &updated[lo..hi] {
                core.history.touch(page);
                core.selector.on_touch(page, &core.history);
                core.stats.walk_touches += 1;
            }
        }
        // The discovery scan still covers every mapped page (the summary
        // level just skips clean space), so the walked count it reports is
        // unchanged.
        let known = core.pages.dirty_bits().count() as u64;
        (core.regions.mapped_pages() + known, discovered)
    }

    fn on_flush_complete(core: &mut EngineCore, page: PageId) {
        // Hardware credit: dirty bit cleared, counter decremented; the
        // page becomes writable again with no fault pending.
        core.mmu.credit_dirty_page(page);
        core.mmu.unprotect_page(page);
    }

    fn pick_forced_victim(core: &mut EngineCore) -> PageId {
        match core.selector.peek() {
            Some(v) => v,
            None => {
                // The runtime's view lags the hardware: discover now.
                hw_discover(core);
                core.selector
                    .peek()
                    .expect("hardware counts a dirty page the scan cannot find")
            }
        }
    }

    fn on_budget_changed(core: &mut EngineCore, pages: u64) {
        // Re-arm the hardware limit at the new budget; the engine stalls
        // the population down to it right after.
        core.mmu.set_dirty_limit(Some(pages));
    }

    fn unmap_region(core: &mut EngineCore, info: &RegionInfo, _discarded: &[PageId]) {
        // Credit every page of the region the counter holds: the discarded
        // Dirty pages and those dirtied but not yet discovered.
        let start = info.first_page.index();
        let mut pte_dirty: Vec<usize> = Vec::new();
        core.mmu.page_table().dirty_bits().collect_range_into(
            start,
            start + info.pages as usize,
            &mut pte_dirty,
        );
        for i in pte_dirty {
            core.mmu.credit_dirty_page(PageId(i as u64));
        }
    }

    fn failure_obligation(core: &mut EngineCore, _backend: &mut Self) -> FlushObligation {
        // Everything with the PTE dirty bit set — discovered or not — is
        // ahead of the SSD; the pages InFlight are counted but covered by
        // their IOs' tail. One word-union walk, ascending page order.
        let mut items: Vec<ObligationItem> = Vec::new();
        core.mmu.page_table().dirty_bits().for_each_word_union(
            core.pages.in_flight_bits(),
            |w, dirty, in_flight| {
                extend_from_word(&mut items, w, dirty & !in_flight, |i| ObligationItem {
                    page: PageId(i as u64),
                    payload: PAGE_SIZE,
                });
            },
        );
        FlushObligation { items }
    }

    fn recover_memory(core: &mut EngineCore, _backend: &mut Self) {
        for i in 0..core.mmu.pages() {
            let page = PageId(i as u64);
            core.mmu.restore_durable(page);
            core.mmu.unprotect_page(page);
        }
        core.mmu.set_dirty_limit(None);
        // Reset dirty/shadow bits so the re-armed counter starts at 0. The
        // per-page stale walks this replaced charged no costs and left the
        // TLB alone (the unprotect pass above already invalidated every
        // entry), so the batch clear is observationally identical.
        core.mmu.clear_dirty_tracking_bits();
        core.mmu
            .set_dirty_limit(Some(core.config.dirty_budget_pages));
    }

    fn check_invariants(core: &EngineCore) -> Result<(), InvariantViolation> {
        let counted = core.mmu.dirty_counted();
        let pte_dirty = core.mmu.page_table().dirty_count() as u64;
        if pte_dirty != counted {
            return Err(InvariantViolation::HardwareCounterMismatch { pte_dirty, counted });
        }
        // Dirty and InFlight pages all lie in mapped regions (the shadow
        // walk drains the whole bitmap and reports its popcount as walked)
        // and keep their PTE dirty bit until their flush is credited (the
        // failure obligation counts the in-flight ones out of that column).
        let (dirty, in_flight) = (core.pages.dirty_bits(), core.pages.in_flight_bits());
        let pte_dirty = core.mmu.page_table().dirty_bits();
        let mapped_known: usize = core
            .regions
            .iter()
            .map(|(_, info)| {
                let start = info.first_page.index();
                let end = start + info.pages as usize;
                dirty
                    .iter_ones_in(start, end)
                    .chain(in_flight.iter_ones_in(start, end))
                    .filter(|&i| pte_dirty.test(i))
                    .count()
            })
            .sum();
        if mapped_known as u64 != core.pages.dirty_count() {
            return Err(InvariantViolation::CounterOutOfSync {
                counter: "known-dirty",
                counted: mapped_known as u64,
                recorded: core.pages.dirty_count(),
            });
        }
        Ok(())
    }

    fn durable_state_consistent(core: &EngineCore) -> bool {
        // Dirty, in-flight, and silently-dirtied (PTE bit set but still
        // Clean) pages are all legitimately ahead of the SSD; only
        // settled-clean pages must match, and the word-level mask skips
        // the rest 64 pages at a time.
        let (dirty, in_flight) = (core.pages.dirty_bits(), core.pages.in_flight_bits());
        let pte_dirty = core.mmu.page_table().dirty_bits();
        core.regions.iter().all(|(_, info)| {
            clean_pages_match(core, &info, |w| {
                dirty.word(w) | in_flight.word(w) | pte_dirty.word(w)
            })
        })
    }
}

// ----------------------------------------------------------------------
// FullDirty: the full-battery baseline (no tracking at all)
// ----------------------------------------------------------------------

/// The full-battery baseline's non-tracking: every page is presumed
/// dirty, so nothing traps, nothing walks, nothing is flushed before a
/// power failure, and a power failure must flush the entire capacity —
/// the scaling problem Viyojit removes. The engine's page states stay
/// Clean.
///
/// `Engine<FullDirty>` underlies [`NvdramBaseline`](crate::NvdramBaseline).
#[derive(Debug)]
pub struct FullDirty;

impl DirtyTracker for FullDirty {
    const SYSTEM: &'static str = "NV-DRAM";
    const HAS_CONTROL_LOOP: bool = false;
    const TRACKS_PHYSICAL: bool = false;

    fn init(_mmu: &mut Mmu, _config: &ViyojitConfig) -> Self {
        FullDirty
    }

    fn on_write_error(_core: &mut EngineCore, _backend: &mut Self, err: AccessError) {
        unreachable!("baseline pages are always writable: {err}")
    }

    fn epoch_walk(_core: &mut EngineCore, _backend: &mut Self) -> (u64, u64) {
        unreachable!("the baseline runs no epochs")
    }

    fn pick_forced_victim(_core: &mut EngineCore) -> PageId {
        unreachable!("the baseline never stalls on a budget")
    }

    fn failure_obligation(core: &mut EngineCore, _backend: &mut Self) -> FlushObligation {
        // Only mapped pages carry content to submit; the unmapped remainder
        // is durable as-is (all zeroes): counted as pages, carried by no IO.
        let mut items = Vec::new();
        for (_, info) in core.regions.iter() {
            for page in info.iter_pages() {
                items.push(ObligationItem {
                    page,
                    payload: PAGE_SIZE,
                });
            }
        }
        FlushObligation { items }
    }

    fn failure_pages(core: &EngineCore) -> u64 {
        // The baseline must assume *everything* could be dirty, so the
        // battery obligation is the entire NV-DRAM capacity.
        core.mmu.pages() as u64
    }

    fn recover_memory(core: &mut EngineCore, _backend: &mut Self) {
        for i in 0..core.mmu.pages() {
            core.mmu.restore_durable(PageId(i as u64));
        }
    }

    fn durable_state_consistent(_core: &EngineCore) -> bool {
        // With no tracking there is no clean-page invariant to check: the
        // baseline treats every page as potentially dirty.
        true
    }
}
