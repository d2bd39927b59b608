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

use mem_sim::{AccessError, Bitmap2L, Mmu, PageId, WalkOptions, PAGE_SIZE};
use telemetry::{CostClass, TraceEvent};

use crate::codec::{encoded_page_bytes, page_content_hash, DEDUP_RECORD_BYTES};
use crate::{DirtySet, FlushCodec, InvariantViolation, PageState, RegionInfo, ViyojitConfig};

use super::emergency::{FlushObligation, ObligationItem};
use super::{retire_completions, stall_until_dirty_at_most, wait_for_page_io, EngineCore};

/// Page-tracking mechanics plugged into [`Engine`](super::Engine).
///
/// Implementations hold only the state their tracking mechanism needs
/// (the software dirty set, the hardware's known-dirty shadow, or nothing
/// at all); everything else lives in the shared [`EngineCore`]. Hooks
/// take the core and the backend as separate parameters so they can
/// re-enter the shared control flow (stall, retire, flush) without
/// aliasing.
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
    fn init(mmu: &mut Mmu, config: &ViyojitConfig, total_pages: usize) -> Self;

    /// Pages currently counted against the dirty budget.
    fn dirty_count(&self, core: &EngineCore) -> u64;

    /// Pages with a flush IO in flight.
    fn in_flight_pages(&self) -> u64;

    /// Handles a recoverable MMU write error (a write-protect fault or a
    /// dirty-limit interrupt); the engine retries the write afterwards.
    fn on_write_error(core: &mut EngineCore, backend: &mut Self, err: AccessError);

    /// The epoch walk (§5.2): refresh recency, discover newly dirty
    /// pages. Returns `(pages walked, newly dirty pages observed)` for
    /// the `EpochWalk` trace event and the pressure estimator.
    fn epoch_walk(core: &mut EngineCore, backend: &mut Self) -> (u64, u64);

    /// Called when the idle fast-forward path skips epochs.
    fn on_epochs_skipped(&mut self) {}

    /// Transitions `victim` into the in-flight state (it has just been
    /// re-protected; its IO is about to be submitted).
    fn mark_in_flight(core: &mut EngineCore, backend: &mut Self, victim: PageId);

    /// The physical bytes one flush of `victim` ships (the §7
    /// reductions), priced from the page's bytes where they lie; full
    /// pages when the backend does not track payloads.
    fn flush_payload(core: &mut EngineCore, backend: &mut Self, victim: PageId) -> usize;

    /// A flush IO for `page` completed: move it clean and release its
    /// budget slot.
    fn on_flush_complete(core: &mut EngineCore, backend: &mut Self, page: PageId);

    /// Picks the victim for a forced flush when the stall loop finds no
    /// IO in flight.
    fn pick_forced_victim(core: &mut EngineCore, backend: &mut Self) -> PageId;

    /// The §8 budget hook changed the budget to `pages` (the engine
    /// stalls down to it afterwards).
    fn on_budget_changed(_core: &mut EngineCore, _backend: &mut Self, _pages: u64) {}

    /// Releases tracking state for a dying mapping: waits out in-flight
    /// flushes, then discards dirty pages (their contents are garbage
    /// now, not data to preserve).
    fn unmap_region(core: &mut EngineCore, backend: &mut Self, info: &RegionInfo);

    /// Enumerates what the design obliges the battery to flush at a power
    /// failure: the pages to submit (with their physical payloads) plus
    /// the obligation the report accounts for. The engine's emergency
    /// executor (the `emergency` module) then steps the obligation
    /// against the (possibly faulty) SSD and the battery's hold-up energy.
    fn failure_obligation(core: &mut EngineCore, backend: &mut Self) -> FlushObligation;

    /// Reloads memory from the SSD and resets the tracking state after a
    /// power cycle (the engine resets the shared trackers afterwards).
    fn recover_memory(core: &mut EngineCore, backend: &mut Self);

    /// Checks the backend's invariants, chiefly the durability bound.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    fn check_invariants(&self, core: &EngineCore) -> Result<(), InvariantViolation>;

    /// `true` if every clean mapped page matches its durable SSD copy.
    fn durable_state_consistent(&self, core: &EngineCore) -> bool;
}

// ----------------------------------------------------------------------
// SoftwareWalk: the paper's §5 design (write-protect faults + PTE walks)
// ----------------------------------------------------------------------

/// The paper's software tracking (§5): every page starts write-protected,
/// first writes trap into the fault handler, and the epoch walker samples
/// and clears PTE dirty bits (flushing the TLB for exactness).
///
/// `Engine<SoftwareWalk>` is [`Viyojit`](crate::Viyojit).
#[derive(Debug)]
pub struct SoftwareWalk {
    dirty: DirtySet,
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
    retire_completions(core, sw);

    if sw.dirty.state(page) == PageState::InFlight {
        // The page is mid-flush; wait for its IO so the clean snapshot
        // is durable before the page is re-dirtied.
        core.stats.in_flight_collisions += 1;
        wait_for_page_io(core, sw, page);
    }
    debug_assert_eq!(sw.dirty.state(page), PageState::Clean);

    // Step 5: admitting this page must keep the count within budget.
    let admit = core.config.dirty_budget_pages - 1;
    stall_until_dirty_at_most(core, sw, admit, admit);

    // Step 8: unprotect, count, record.
    core.mmu.unprotect_page(page);
    sw.dirty.mark_dirty(page);
    core.history.touch(page);
    core.selector.on_dirty(page, &core.history);
    sw.new_dirty_this_epoch += 1;
    core.stats.pages_dirtied += 1;
}

impl DirtyTracker for SoftwareWalk {
    const SYSTEM: &'static str = "Viyojit";
    const HAS_CONTROL_LOOP: bool = true;
    const TRACKS_PHYSICAL: bool = true;

    fn init(mmu: &mut Mmu, _config: &ViyojitConfig, total_pages: usize) -> Self {
        for i in 0..total_pages {
            mmu.protect_page(PageId(i as u64));
        }
        SoftwareWalk {
            dirty: DirtySet::new(total_pages),
            dedup_hashes: std::collections::HashSet::new(),
            new_dirty_this_epoch: 0,
        }
    }

    fn dirty_count(&self, _core: &EngineCore) -> u64 {
        self.dirty.dirty_count()
    }

    fn in_flight_pages(&self) -> u64 {
        self.dirty.in_flight_count()
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
        // The dirty set's bitmap is the walk's mask: each of its non-zero
        // words is one read-and-clear of the PTE dirty column, and only the
        // pages found updated come back — ascending, as `iter_dirty` would
        // have listed them.
        let known = backend.dirty.dirty_bits();
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

    fn mark_in_flight(core: &mut EngineCore, backend: &mut Self, victim: PageId) {
        // Clear the PTE dirty bit so post-flush tracking starts clean; the
        // protect just performed already invalidated the TLB entry.
        core.mmu.take_dirty(victim);
        backend.dirty.mark_in_flight(victim);
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

    fn on_flush_complete(_core: &mut EngineCore, backend: &mut Self, page: PageId) {
        backend.dirty.mark_clean(page);
    }

    fn pick_forced_victim(core: &mut EngineCore, _backend: &mut Self) -> PageId {
        core.selector
            .peek()
            .expect("dirty pages exceed the limit but none are flushable or in flight")
    }

    fn unmap_region(core: &mut EngineCore, backend: &mut Self, info: &RegionInfo) {
        let start = info.first_page.index();
        let end = start + info.pages as usize;
        // Wait out in-flight flushes of this region so freed pages cannot
        // be remapped while an IO still references them. Waiting retires
        // other completions too, so re-check each page when its turn comes.
        let waiting: Vec<PageId> = page_range(&[backend.dirty.in_flight_bits()], start, end);
        for page in waiting {
            if backend.dirty.state(page) == PageState::InFlight {
                wait_for_page_io(core, backend, page);
            }
        }
        let doomed: Vec<PageId> = page_range(&[backend.dirty.dirty_bits()], start, end);
        for page in doomed {
            if backend.dirty.state(page) == PageState::Dirty {
                core.selector.on_removed(page);
                backend.dirty.discard_dirty(page);
                core.mmu.protect_page(page);
            }
        }
    }

    fn failure_obligation(core: &mut EngineCore, backend: &mut Self) -> FlushObligation {
        // Emergency collection is one dispatched word-union walk over
        // dirty ∪ in-flight, in ascending page order.
        let mut pages: Vec<PageId> = Vec::new();
        backend.dirty.collect_counted_into(&mut pages);
        let items: Vec<ObligationItem> = pages
            .into_iter()
            .map(|page| ObligationItem {
                page,
                payload: Self::flush_payload(core, backend, page),
            })
            .collect();
        FlushObligation {
            pages: items.len() as u64,
            items,
        }
    }

    fn recover_memory(core: &mut EngineCore, backend: &mut Self) {
        for i in 0..core.mmu.pages() {
            let page = PageId(i as u64);
            core.mmu.restore_durable(page);
            core.mmu.protect_page(page);
        }
        backend.dirty.reset();
        backend.new_dirty_this_epoch = 0;
        // dedup_hashes survive: the SSD still holds those contents.
    }

    fn check_invariants(&self, core: &EngineCore) -> Result<(), InvariantViolation> {
        self.dirty.check_invariants()?;
        if self.dirty.dirty_count() > core.config.dirty_budget_pages {
            return Err(InvariantViolation::BudgetExceeded {
                dirty: self.dirty.dirty_count(),
                budget: core.config.dirty_budget_pages,
            });
        }
        if core.inflight.len() as u64 != self.dirty.in_flight_count() {
            return Err(InvariantViolation::InFlightListMismatch {
                ios: core.inflight.len() as u64,
                pages: self.dirty.in_flight_count(),
            });
        }
        // Exactly the Dirty-state pages must be writable. A page can only
        // mismatch where either bitmap has a bit set, so comparing the two
        // columns word-by-word over their union skips agreeing-clean space
        // entirely; the first differing bit is the lowest mismatching page.
        let mut mismatch: Option<(u64, bool)> = None;
        self.dirty.dirty_bits().for_each_word_union(
            core.mmu.page_table().writable_bits(),
            |w, dirty, writable| {
                if mismatch.is_none() && dirty != writable {
                    let bit = (dirty ^ writable).trailing_zeros() as u64;
                    let page = w as u64 * 64 + bit;
                    mismatch = Some((page, dirty & (1 << bit) != 0));
                }
            },
        );
        if let Some((page, counted_dirty)) = mismatch {
            return Err(InvariantViolation::ProtectionMismatch {
                page,
                counted_dirty,
            });
        }
        check_undo(core, self.dirty.in_flight_bits())
    }

    fn durable_state_consistent(&self, core: &EngineCore) -> bool {
        // Dirty and in-flight pages are legitimately ahead of the SSD;
        // the word mask excludes them 64 at a time.
        let (dirty, in_flight) = (self.dirty.dirty_bits(), self.dirty.in_flight_bits());
        core.regions
            .iter()
            .all(|(_, info)| clean_pages_match(core, &info, |w| dirty.word(w) | in_flight.word(w)))
    }
}

/// Pages within `start..end` whose bit is set in any of `maps`, in
/// ascending order. Used to snapshot the interesting pages of a region
/// before a loop that mutates the tracking state.
fn page_range(maps: &[&Bitmap2L], start: usize, end: usize) -> Vec<PageId> {
    let mut pages: Vec<usize> = Vec::new();
    for m in maps {
        m.collect_range_into(start, end, &mut pages);
    }
    pages.sort_unstable();
    pages.dedup();
    pages.into_iter().map(|i| PageId(i as u64)).collect()
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

/// Checks the undo log behind the device image: a slot exactly for each
/// held page with unsynced sectors, and none for a page in `in_flight`.
fn check_undo(core: &EngineCore, in_flight: &Bitmap2L) -> Result<(), InvariantViolation> {
    match core.mmu.undo_violation(in_flight) {
        Some((page, what)) => Err(InvariantViolation::UndoLog { page: page.0, what }),
        None => Ok(()),
    }
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
/// The runtime's view of the hardware state is two disjoint bitmaps: a
/// page in `known_dirty` was discovered dirty, a page in `in_flight` is
/// write-protected with a flush IO pending (§5.1's ordering still applies
/// in hardware), and a page in neither is clean and writable.
///
/// `Engine<MmuAssisted>` is [`MmuAssistedViyojit`](crate::MmuAssistedViyojit).
#[derive(Debug)]
pub struct MmuAssisted {
    known_dirty: Bitmap2L,
    in_flight: Bitmap2L,
}

/// Discovery scan over mapped pages: PTE dirty bit set but page not yet
/// known-dirty means it was dirtied silently since the last scan. The
/// scan walks the PTE dirty-bit column word-by-word instead of testing
/// every mapped page, visiting regions in slot order and pages in
/// ascending order within each region — the same order the full scan
/// used, so victim-selection recency is untouched.
fn hw_discover(core: &mut EngineCore, hw: &mut MmuAssisted) -> u64 {
    let mut candidates: Vec<PageId> = Vec::new();
    {
        // Dispatched range collection over the PTE dirty column; the
        // already-known filter runs over the collected positions, so
        // candidates keep ascending order within each region.
        let pte_dirty = core.mmu.page_table().dirty_bits();
        let mut raw: Vec<usize> = Vec::new();
        for (_, info) in core.regions.iter() {
            let start = info.first_page.index();
            let end = start + info.pages as usize;
            raw.clear();
            pte_dirty.collect_range_into(start, end, &mut raw);
            candidates.extend(
                raw.iter()
                    .copied()
                    .filter(|&i| !hw.known_dirty.test(i) && !hw.in_flight.test(i))
                    .map(|i| PageId(i as u64)),
            );
        }
    }
    for &page in &candidates {
        hw.known_dirty.set(page.index());
        core.history.touch(page);
        core.selector.on_dirty(page, &core.history);
        core.stats.pages_dirtied += 1;
        // Power cut mid-scan: this page absorbed into the known-dirty
        // set, later candidates still undiscovered.
        fault_sim::crashpoint!(core.crashes, DiscoveryScan);
    }
    candidates.len() as u64
}

/// Handles the §5.4 dirty-limit interrupt: free one hardware slot by
/// flushing, waiting for completions as needed.
fn handle_limit_interrupt(core: &mut EngineCore, hw: &mut MmuAssisted) {
    let _span = core.profiler.span(CostClass::WpTrap);
    core.stats.faults_handled += 1;
    retire_completions(core, hw);
    let budget = core.config.dirty_budget_pages;
    stall_until_dirty_at_most(core, hw, budget - 1, budget);
}

impl DirtyTracker for MmuAssisted {
    const SYSTEM: &'static str = "Viyojit-MMU";
    const HAS_CONTROL_LOOP: bool = true;
    const TRACKS_PHYSICAL: bool = false;

    fn init(mmu: &mut Mmu, config: &ViyojitConfig, total_pages: usize) -> Self {
        // Pages start writable (no protection pass); the MMU's dirty limit
        // is armed at the budget.
        mmu.set_dirty_limit(Some(config.dirty_budget_pages));
        MmuAssisted {
            known_dirty: Bitmap2L::new(total_pages),
            in_flight: Bitmap2L::new(total_pages),
        }
    }

    fn dirty_count(&self, core: &EngineCore) -> u64 {
        // The hardware dirty counter is the exact budget-bound population.
        core.mmu.dirty_counted()
    }

    fn in_flight_pages(&self) -> u64 {
        self.in_flight.count() as u64
    }

    fn on_write_error(core: &mut EngineCore, backend: &mut Self, err: AccessError) {
        match err {
            AccessError::DirtyLimitReached(_) => handle_limit_interrupt(core, backend),
            AccessError::WriteProtected(page) => {
                // Only in-flight pages are protected in this mode.
                core.stats.in_flight_collisions += 1;
                wait_for_page_io(core, backend, page);
            }
            e @ AccessError::OutOfRange { .. } => {
                unreachable!("resolved addresses are in range: {e}")
            }
        }
    }

    /// Epoch duties: discover newly dirty pages (the OS only learns page
    /// *addresses* by scanning, since dirtying no longer traps), then
    /// refresh recency from shadow bits.
    fn epoch_walk(core: &mut EngineCore, backend: &mut Self) -> (u64, u64) {
        let discovered = hw_discover(core, backend);
        // Shadow walk over known-dirty pages refreshes recency without
        // touching the counter. No full TLB flush is required for
        // correctness here — the shadow bit is only advisory — but the
        // walk flushes when configured, like the software mode.
        let options = WalkOptions {
            flush_tlb: core.config.tlb_flush_on_walk,
            charge_costs: false,
        };
        let updated = core
            .mmu
            .walk_and_clear_shadow_in(&backend.known_dirty, options);
        // Recency stamps follow region slot order, pages ascending within
        // each region. Known-dirty pages are all mapped (an invariant), so
        // the per-region slices of the ascending walk cover every hit.
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
        let known = backend.known_dirty.count() as u64;
        (core.regions.mapped_pages() + known, discovered)
    }

    fn mark_in_flight(_core: &mut EngineCore, backend: &mut Self, victim: PageId) {
        debug_assert!(backend.known_dirty.test(victim.index()));
        backend.known_dirty.clear(victim.index());
        backend.in_flight.set(victim.index());
    }

    fn flush_payload(_core: &mut EngineCore, _backend: &mut Self, _victim: PageId) -> usize {
        // The hardware mode ships full pages (no codec integration).
        PAGE_SIZE
    }

    fn on_flush_complete(core: &mut EngineCore, backend: &mut Self, page: PageId) {
        // Hardware credit: dirty bit cleared, counter decremented; the
        // page becomes writable again with no fault pending.
        core.mmu.credit_dirty_page(page);
        core.mmu.unprotect_page(page);
        backend.in_flight.clear(page.index());
    }

    fn pick_forced_victim(core: &mut EngineCore, backend: &mut Self) -> PageId {
        match core.selector.peek() {
            Some(v) => v,
            None => {
                // The runtime's view lags the hardware: discover now.
                hw_discover(core, backend);
                core.selector
                    .peek()
                    .expect("hardware counts a dirty page the scan cannot find")
            }
        }
    }

    fn on_budget_changed(core: &mut EngineCore, _backend: &mut Self, pages: u64) {
        // Re-arm the hardware limit at the new budget; the engine stalls
        // the population down to it right after.
        core.mmu.set_dirty_limit(Some(pages));
    }

    fn unmap_region(core: &mut EngineCore, backend: &mut Self, info: &RegionInfo) {
        let start = info.first_page.index();
        let end = start + info.pages as usize;
        let waiting: Vec<PageId> = page_range(&[&backend.in_flight], start, end);
        for page in waiting {
            if backend.in_flight.test(page.index()) {
                wait_for_page_io(core, backend, page);
            }
        }
        // Only pages known dirty or with the PTE dirty bit set need any
        // action; snapshot their union before mutating the counter.
        let doomed: Vec<PageId> = page_range(
            &[&backend.known_dirty, core.mmu.page_table().dirty_bits()],
            start,
            end,
        );
        for page in doomed {
            if backend.known_dirty.test(page.index()) {
                core.selector.on_removed(page);
                backend.known_dirty.clear(page.index());
                core.mmu.credit_dirty_page(page);
            } else if core.mmu.page_table().is_dirty(page) {
                // Dirty but not yet discovered: still credit the counter.
                core.mmu.credit_dirty_page(page);
            }
        }
    }

    fn failure_obligation(core: &mut EngineCore, _backend: &mut Self) -> FlushObligation {
        // Everything with the PTE dirty bit set — discovered or not — is
        // ahead of the SSD. The dispatched collection enumerates the
        // PTE dirty column in ascending page order.
        let mut items: Vec<ObligationItem> = Vec::new();
        core.mmu
            .page_table()
            .dirty_bits()
            .collect_into_map(&mut items, |i| ObligationItem {
                page: PageId(i as u64),
                payload: PAGE_SIZE,
            });
        FlushObligation {
            pages: items.len() as u64,
            items,
        }
    }

    fn recover_memory(core: &mut EngineCore, backend: &mut Self) {
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
        backend.known_dirty.clear_all();
        backend.in_flight.clear_all();
    }

    fn check_invariants(&self, core: &EngineCore) -> Result<(), InvariantViolation> {
        let counted = core.mmu.dirty_counted();
        if counted > core.config.dirty_budget_pages {
            return Err(InvariantViolation::BudgetExceeded {
                dirty: counted,
                budget: core.config.dirty_budget_pages,
            });
        }
        let pte_dirty = core.mmu.page_table().dirty_count() as u64;
        if pte_dirty != counted {
            return Err(InvariantViolation::HardwareCounterMismatch { pte_dirty, counted });
        }
        if core.inflight.len() as u64 != self.in_flight.count() as u64 {
            return Err(InvariantViolation::InFlightListMismatch {
                ios: core.inflight.len() as u64,
                pages: self.in_flight.count() as u64,
            });
        }
        // Known-dirty pages all lie in mapped regions: the shadow walk
        // drains the whole bitmap and reports its popcount as walked.
        let mapped_known: usize = core
            .regions
            .iter()
            .map(|(_, info)| {
                let start = info.first_page.index();
                let end = start + info.pages as usize;
                self.known_dirty.iter_ones_in(start, end).count()
            })
            .sum();
        if mapped_known != self.known_dirty.count() {
            return Err(InvariantViolation::CounterOutOfSync {
                counter: "known-dirty",
                counted: mapped_known as u64,
                recorded: self.known_dirty.count() as u64,
            });
        }
        check_undo(core, &self.in_flight)
    }

    fn durable_state_consistent(&self, core: &EngineCore) -> bool {
        // Known-dirty, in-flight, and silently-dirtied (PTE bit set but
        // undiscovered) pages are all legitimately ahead of the SSD; only
        // settled-clean pages must match, and the word-level mask skips
        // the rest 64 pages at a time.
        let pte_dirty = core.mmu.page_table().dirty_bits();
        core.regions.iter().all(|(_, info)| {
            clean_pages_match(core, &info, |w| {
                self.known_dirty.word(w) | self.in_flight.word(w) | pte_dirty.word(w)
            })
        })
    }
}

// ----------------------------------------------------------------------
// FullDirty: the full-battery baseline (no tracking at all)
// ----------------------------------------------------------------------

/// The full-battery baseline's non-tracking: every page is presumed
/// dirty, so nothing traps, nothing walks, and a power failure must
/// flush the entire capacity — the scaling problem Viyojit removes.
///
/// `Engine<FullDirty>` underlies [`NvdramBaseline`](crate::NvdramBaseline).
#[derive(Debug)]
pub struct FullDirty;

impl DirtyTracker for FullDirty {
    const SYSTEM: &'static str = "NV-DRAM";
    const HAS_CONTROL_LOOP: bool = false;
    const TRACKS_PHYSICAL: bool = false;

    fn init(_mmu: &mut Mmu, _config: &ViyojitConfig, _total_pages: usize) -> Self {
        FullDirty
    }

    fn dirty_count(&self, _core: &EngineCore) -> u64 {
        0
    }

    fn in_flight_pages(&self) -> u64 {
        0
    }

    fn on_write_error(_core: &mut EngineCore, _backend: &mut Self, err: AccessError) {
        unreachable!("baseline pages are always writable: {err}")
    }

    fn epoch_walk(_core: &mut EngineCore, _backend: &mut Self) -> (u64, u64) {
        unreachable!("the baseline runs no epochs")
    }

    fn mark_in_flight(_core: &mut EngineCore, _backend: &mut Self, _victim: PageId) {
        unreachable!("the baseline issues no flushes")
    }

    fn flush_payload(_core: &mut EngineCore, _backend: &mut Self, _victim: PageId) -> usize {
        PAGE_SIZE
    }

    fn on_flush_complete(_core: &mut EngineCore, _backend: &mut Self, _page: PageId) {
        unreachable!("the baseline issues no flushes")
    }

    fn pick_forced_victim(_core: &mut EngineCore, _backend: &mut Self) -> PageId {
        unreachable!("the baseline never stalls on a budget")
    }

    fn unmap_region(_core: &mut EngineCore, _backend: &mut Self, _info: &RegionInfo) {}

    fn failure_obligation(core: &mut EngineCore, _backend: &mut Self) -> FlushObligation {
        // The baseline must assume *everything* could be dirty, so the
        // battery obligation is the entire NV-DRAM capacity. Only mapped
        // pages carry content to submit; the unmapped remainder is durable
        // as-is (all zeroes): counted as pages, carried by no IO.
        let mut items = Vec::new();
        for (_, info) in core.regions.iter() {
            for page in info.iter_pages() {
                items.push(ObligationItem {
                    page,
                    payload: PAGE_SIZE,
                });
            }
        }
        FlushObligation {
            pages: core.mmu.pages() as u64,
            items,
        }
    }

    fn recover_memory(core: &mut EngineCore, _backend: &mut Self) {
        for i in 0..core.mmu.pages() {
            core.mmu.restore_durable(PageId(i as u64));
        }
    }

    fn check_invariants(&self, core: &EngineCore) -> Result<(), InvariantViolation> {
        // No copier: outside an emergency flush no IO is pending and no
        // page is in flight.
        if !core.inflight.is_empty() {
            return Err(InvariantViolation::InFlightListMismatch {
                ios: core.inflight.len() as u64,
                pages: 0,
            });
        }
        check_undo(core, &Bitmap2L::new(core.mmu.pages()))
    }

    fn durable_state_consistent(&self, _core: &EngineCore) -> bool {
        // With no tracking there is no clean-page invariant to check: the
        // baseline treats every page as potentially dirty.
        true
    }
}
