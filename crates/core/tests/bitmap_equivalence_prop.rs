//! Equivalence property tests for the bit-packed page-state structures.
//!
//! Part 1 drives the bitmap-backed [`PageTable`] and [`DirtySet`] and a
//! naive scalar reference model (one byte / one enum per page, exactly the
//! representation the bitmaps replaced) through random
//! dirty/protect/flush/discard/epoch sequences and asserts the two stay
//! observationally identical: same per-page states, same counts, same
//! iteration and collection order. Part 1b draws populations from four
//! density strata and checks the word walk, the range collect and the
//! union walk against the scalar order, and the masked word-level epoch
//! walks against the per-page walk. Part 1c
//! does the same for the one fast path in `mem-sim` that is not a bitmap:
//! the TLB's last-translation memo against a TLB that scans its set on
//! every lookup.
//!
//! Part 2 is the end-to-end check: three seeded workloads drive all three
//! engine backends — [`Viyojit`] (SoftwareWalk), [`MmuAssistedViyojit`]
//! (MmuAssisted), and [`NvdramBaseline`] (FullDirty) — through writes,
//! idles, and budget changes, holding the engine invariants at every step
//! and proving contents survive a power cycle. If a word-level scan ever
//! skipped or double-visited a page, these are the assertions that break.

use mem_sim::{
    Bitmap2L, Mmu, PageId, PageTable, PteFlags, Tlb, TlbEntry, TlbStats, WalkOptions, PAGE_SIZE,
};
use propcheck::{btree_set, check, int, subsequence, vec_of, weighted};
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{
    DirtySet, MmuAssistedViyojit, NvHeap, NvdramBaseline, PageState, Viyojit, ViyojitConfig,
};

/// Enough pages to cross several leaf words and end mid-word, so the
/// partial-last-word paths are always exercised.
const MODEL_PAGES: usize = 193;

// ---------------------------------------------------------------------------
// Naive scalar reference models: the O(DRAM) representation the bitmaps
// replaced. Deliberately simple — correctness oracle, not a data structure.
// ---------------------------------------------------------------------------

const S_WRITABLE: u8 = 1 << 1;
const S_DIRTY: u8 = 1 << 2;
const S_SHADOW: u8 = 1 << 3;

struct ScalarPageTable {
    flags: Vec<u8>,
}

impl ScalarPageTable {
    fn new(pages: usize) -> Self {
        ScalarPageTable {
            flags: vec![0; pages],
        }
    }

    fn set(&mut self, page: usize, bit: u8, on: bool) {
        if on {
            self.flags[page] |= bit;
        } else {
            self.flags[page] &= !bit;
        }
    }

    fn take_dirty(&mut self, page: usize) -> bool {
        let was = self.flags[page] & S_DIRTY != 0;
        self.flags[page] &= !S_DIRTY;
        was
    }

    fn take_shadow(&mut self, page: usize) -> bool {
        let was = self.flags[page] & S_SHADOW != 0;
        self.flags[page] &= !S_SHADOW;
        was
    }

    fn dirty_pages(&self) -> Vec<usize> {
        (0..self.flags.len())
            .filter(|&i| self.flags[i] & S_DIRTY != 0)
            .collect()
    }
}

struct ScalarDirtySet {
    states: Vec<PageState>,
}

impl ScalarDirtySet {
    fn new(pages: usize) -> Self {
        ScalarDirtySet {
            states: vec![PageState::Clean; pages],
        }
    }

    fn dirty_count(&self) -> u64 {
        self.states
            .iter()
            .filter(|s| !matches!(s, PageState::Clean))
            .count() as u64
    }

    fn in_flight_count(&self) -> u64 {
        self.states
            .iter()
            .filter(|s| matches!(s, PageState::InFlight))
            .count() as u64
    }

    fn iter_dirty(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| matches!(self.states[i], PageState::Dirty))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Part 1: random op sequences, bitmap structures vs scalar models.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum ModelOp {
    /// Toggle one PTE flag bit (writable, and the raw dirty /
    /// shadow-dirty setters the MMU write path uses).
    SetFlag { page: usize, bit: u8, on: bool },
    /// Test-and-clear one page's dirty / shadow-dirty bit (the fault and
    /// stale-walk paths).
    TakeDirty { page: usize, shadow: bool },
    /// Advance one page through the DirtySet lifecycle: whatever state the
    /// page is in, move it one legal step (clean→dirty→in-flight→clean).
    LifecycleStep { page: usize },
    /// Discard a page if dirty (unmap path).
    Discard { page: usize },
    /// Recovery: reset the dirty set.
    Reset,
}

fn gen_model_op(rng: &mut SplitMix64) -> ModelOp {
    let arm = weighted(rng, &[5, 3, 6, 2, 1]);
    let page = int(rng, 0..MODEL_PAGES as u64) as usize;
    match arm {
        0 => ModelOp::SetFlag {
            page,
            bit: [S_WRITABLE, S_DIRTY, S_SHADOW][int(rng, 0..3) as usize],
            on: rng.chance(0.5),
        },
        1 => ModelOp::TakeDirty {
            page,
            shadow: rng.chance(0.5),
        },
        2 => ModelOp::LifecycleStep { page },
        3 => ModelOp::Discard { page },
        _ => ModelOp::Reset,
    }
}

/// Full observational comparison: every per-page state, every count, and
/// every iteration order the engine relies on.
fn assert_states_agree(pt: &PageTable, spt: &ScalarPageTable, ds: &DirtySet, sds: &ScalarDirtySet) {
    for i in 0..MODEL_PAGES {
        let flags = pt.flags(PageId(i as u64));
        assert_eq!(
            flags.is_writable(),
            spt.flags[i] & S_WRITABLE != 0,
            "writable bit diverged at page {}",
            i
        );
        assert_eq!(flags.is_dirty(), spt.flags[i] & S_DIRTY != 0);
        assert_eq!(flags.is_shadow_dirty(), spt.flags[i] & S_SHADOW != 0);
        assert_eq!(pt.is_dirty(PageId(i as u64)), spt.flags[i] & S_DIRTY != 0);
        assert_eq!(ds.state(PageId(i as u64)), sds.states[i]);
    }
    assert_eq!(pt.dirty_count(), spt.dirty_pages().len());
    assert_eq!(
        pt.dirty_bits().iter_ones().collect::<Vec<_>>(),
        spt.dirty_pages(),
        "PageTable dirty iteration order diverged"
    );
    assert_eq!(ds.dirty_count(), sds.dirty_count());
    assert_eq!(ds.in_flight_count(), sds.in_flight_count());
    assert_eq!(
        ds.iter_dirty().map(|p| p.index()).collect::<Vec<_>>(),
        sds.iter_dirty(),
        "DirtySet dirty iteration order diverged"
    );
    ds.check_invariants()
        .unwrap_or_else(|v| panic!("bitmap invariants broke: {v}"));
}

/// The structure-level equivalence property: the bit-packed
/// `PageTable` + `DirtySet` and the byte-per-page scalar models are
/// indistinguishable under any op sequence.
#[test]
fn bitmap_structures_match_scalar_model() {
    check("bitmap_structures_match_scalar_model", 64, |rng| {
        let ops = vec_of(rng, 1..200, gen_model_op);
        let mut pt = PageTable::new(MODEL_PAGES);
        let mut spt = ScalarPageTable::new(MODEL_PAGES);
        let mut ds = DirtySet::new(MODEL_PAGES);
        let mut sds = ScalarDirtySet::new(MODEL_PAGES);

        for op in &ops {
            match *op {
                ModelOp::SetFlag { page, bit, on } => {
                    let id = PageId(page as u64);
                    match bit {
                        S_WRITABLE => pt.set_writable(id, on),
                        S_DIRTY => pt.set_dirty(id, on),
                        S_SHADOW => pt.set_shadow_dirty(id, on),
                        _ => unreachable!(),
                    }
                    spt.set(page, bit, on);
                }
                ModelOp::TakeDirty { page, shadow } => {
                    let id = PageId(page as u64);
                    let (got, want) = if shadow {
                        (pt.take_shadow_dirty(id), spt.take_shadow(page))
                    } else {
                        (pt.take_dirty(id), spt.take_dirty(page))
                    };
                    assert_eq!(got, want, "take_dirty result diverged at page {}", page);
                }
                ModelOp::LifecycleStep { page } => {
                    let id = PageId(page as u64);
                    match ds.state(id) {
                        PageState::Clean => {
                            ds.mark_dirty(id);
                            sds.states[page] = PageState::Dirty;
                        }
                        PageState::Dirty => {
                            ds.mark_in_flight(id);
                            sds.states[page] = PageState::InFlight;
                        }
                        PageState::InFlight => {
                            ds.mark_clean(id);
                            sds.states[page] = PageState::Clean;
                        }
                    }
                }
                ModelOp::Discard { page } => {
                    let id = PageId(page as u64);
                    if ds.state(id) == PageState::Dirty {
                        ds.discard_dirty(id);
                        sds.states[page] = PageState::Clean;
                    }
                }
                ModelOp::Reset => {
                    ds.reset();
                    sds.states.fill(PageState::Clean);
                }
            }
            assert_states_agree(&pt, &spt, &ds, &sds);
        }
    });
}

// ---------------------------------------------------------------------------
// Part 1b: density-stratified scan equivalence.
//
// A uniform random population would almost never reach the sparse or
// dense extremes, where a word walk meets whole summary words of clean
// space or runs of all-ones leaf words. These generators stratify the
// population by density, then assert the word walk, the range collect
// and (through `DirtySet`) the union walk agree with the scalar model on
// counts and order.
// ---------------------------------------------------------------------------

/// An aligned 2 MiB stretch of 4 KiB pages: the whole-cluster stratum
/// fills these wholesale, so every touched leaf word is all-ones.
const CLUSTER_PAGES: usize = 512;

/// Three full clusters plus a partial tail, so cluster-boundary and
/// partial-last-word arithmetic is always in play.
const STRATA_PAGES: usize = 3 * CLUSTER_PAGES + 137;

/// A population from one of four strata: a handful of pages (most leaf
/// words zero), a sprinkle (a few bits per word), a dense mix (most
/// words non-zero) and whole clusters (every touched word all-ones).
fn stratified_population(rng: &mut SplitMix64) -> Vec<usize> {
    let all: Vec<usize> = (0..STRATA_PAGES).collect();
    match int(rng, 0..4) {
        0 => subsequence(rng, &all, 1..=6),
        1 => subsequence(rng, &all, 8..=200),
        2 => subsequence(rng, &all, 220..=800),
        _ => {
            let clusters = btree_set(rng, 1..=4, |rng| int(rng, 0..4) as usize);
            clusters
                .iter()
                .flat_map(|c| c * CLUSTER_PAGES..((c + 1) * CLUSTER_PAGES).min(STRATA_PAGES))
                .collect()
        }
    }
}

/// The sorted scalar population packed as `(word, first, second)`
/// triples — what a word-level walk over one bitmap (`second` all false)
/// or a union walk over two must harvest. The flag says which of the two
/// bitmaps holds the page.
fn scalar_words(pages: impl IntoIterator<Item = (usize, bool)>) -> Vec<(usize, u64, u64)> {
    let mut words: Vec<(usize, u64, u64)> = Vec::new();
    for (p, in_second) in pages {
        if words.last().map(|w| w.0) != Some(p / 64) {
            words.push((p / 64, 0, 0));
        }
        let last = words.last_mut().expect("just pushed");
        let bit = 1u64 << (p % 64);
        if in_second {
            last.2 |= bit;
        } else {
            last.1 |= bit;
        }
    }
    words
}

/// Stratified equivalence: in each stratum the bitmap and the sorted
/// scalar population are observationally identical — same counts, same
/// collection order, same word harvest, and the range collect (whole,
/// mid-word, word-aligned-end, empty, inverted and past-the-end ranges)
/// returns exactly
/// the scalar pages inside each range.
#[test]
fn scan_paths_agree_at_every_density() {
    check("scan_paths_agree_at_every_density", 64, |rng| {
        let pages = stratified_population(rng);
        let a = int(rng, 0..STRATA_PAGES as u64 + 70) as usize;
        let b = int(rng, 0..STRATA_PAGES as u64 + 70) as usize;
        let mut bits = Bitmap2L::new(STRATA_PAGES);
        for &p in &pages {
            bits.set(p);
        }
        assert_eq!(bits.count(), pages.len());
        assert_eq!(bits.recount(), pages.len());
        bits.check_consistency()
            .unwrap_or_else(|e| panic!("bitmap inconsistent: {e}"));
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), pages);

        let mut collected = Vec::new();
        bits.collect_into_map(&mut collected, |i| i);
        assert_eq!(collected, pages, "collect order diverged");
        let mut words = Vec::new();
        bits.for_each_word(|w, bits| words.push((w, bits, 0)));
        assert_eq!(
            words,
            scalar_words(pages.iter().map(|&p| (p, false))),
            "word harvest diverged"
        );

        for (start, end) in [
            (0, STRATA_PAGES),
            (0, usize::MAX),
            (a, b),
            (b, a),
            (a, a),
            (a.min(b), a.max(b) + 1),
            (CLUSTER_PAGES - 1, 2 * CLUSTER_PAGES + 1),
            (1, CLUSTER_PAGES),
        ] {
            let want: Vec<usize> = pages
                .iter()
                .copied()
                .filter(|&p| p >= start && p < end)
                .collect();
            let mut got = Vec::new();
            bits.collect_range_into(start, end, &mut got);
            assert_eq!(got, want, "range collect {start}..{end} diverged");
            assert_eq!(
                bits.iter_ones_in(start, end).collect::<Vec<_>>(),
                want,
                "range iteration {start}..{end} diverged"
            );
        }
    });
}

/// In each stratum, with a share of the population in flight, the
/// `DirtySet` dirty collect is the scalar dirty order, and its union walk
/// harvests the scalar word pairs.
#[test]
fn dirty_set_collects_agree_at_every_density() {
    check("dirty_set_collects_agree_at_every_density", 64, |rng| {
        let pages = stratified_population(rng);
        let stride = int(rng, 1..5) as usize;
        let mut ds = DirtySet::new(STRATA_PAGES);
        let mut sds = ScalarDirtySet::new(STRATA_PAGES);
        for (n, &p) in pages.iter().enumerate() {
            ds.mark_dirty(PageId(p as u64));
            sds.states[p] = PageState::Dirty;
            if n % stride == 0 {
                ds.mark_in_flight(PageId(p as u64));
                sds.states[p] = PageState::InFlight;
            }
        }
        ds.check_invariants()
            .unwrap_or_else(|v| panic!("bitmap invariants broke: {v}"));
        let mut dirty = Vec::new();
        ds.collect_dirty_into(&mut dirty);
        assert_eq!(
            dirty.iter().map(|p| p.index()).collect::<Vec<_>>(),
            sds.iter_dirty(),
            "dirty collection order diverged"
        );
        let mut words = Vec::new();
        ds.dirty_bits()
            .for_each_word_union(ds.in_flight_bits(), |w, d, f| words.push((w, d, f)));
        assert_eq!(
            words,
            scalar_words(
                pages
                    .iter()
                    .map(|&p| (p, sds.states[p] == PageState::InFlight))
            ),
            "union harvest diverged"
        );
    });
}

/// The word-level epoch walks (`take_word` per non-zero word of the
/// known-dirty mask) against the per-page walk over the collected
/// mask, in each stratum: same pages in the same order, same column left
/// behind. Only every `stride`-th known page is written, so the mask
/// has bits the PTE columns lack, and the strays give the columns
/// bits the mask lacks.
#[test]
fn masked_walks_match_the_per_page_walk_at_every_density() {
    check(
        "masked_walks_match_the_per_page_walk_at_every_density",
        64,
        |rng| {
            let known_pages = stratified_population(rng);
            let stride = int(rng, 1..5) as usize;
            let strays = vec_of(rng, 0..40, |rng| int(rng, 0..STRATA_PAGES as u64) as usize);
            let mut known = Bitmap2L::new(STRATA_PAGES);
            for &p in &known_pages {
                known.set(p);
            }
            let mut mmu = Mmu::new(STRATA_PAGES, Clock::new(), CostModel::free());
            for &p in known_pages.iter().step_by(stride).chain(&strays) {
                mmu.write((p * PAGE_SIZE) as u64, &[1]).unwrap();
            }

            let mut slow = mmu.page_table().clone();
            let mut collected = Vec::new();
            known.collect_into_map(&mut collected, |i| PageId(i as u64));
            let want_dirty: Vec<PageId> = collected
                .iter()
                .copied()
                .filter(|&p| slow.take_dirty(p))
                .collect();
            let want_shadow: Vec<PageId> = collected
                .iter()
                .copied()
                .filter(|&p| slow.take_shadow_dirty(p))
                .collect();
            // The per-page walk itself finds exactly known ∩ written.
            let written: std::collections::BTreeSet<usize> = known_pages
                .iter()
                .step_by(stride)
                .chain(&strays)
                .copied()
                .collect();
            let hits: Vec<PageId> = known_pages
                .iter()
                .filter(|p| written.contains(p))
                .map(|&p| PageId(p as u64))
                .collect();
            assert_eq!(&want_dirty, &hits);
            assert_eq!(&want_shadow, &hits);

            assert_eq!(
                mmu.walk_and_clear_dirty_in(&known, WalkOptions::exact()),
                want_dirty
            );
            assert_eq!(
                mmu.walk_and_clear_shadow_in(&known, WalkOptions::stale()),
                want_shadow
            );
            for (got, want) in [
                (mmu.page_table().dirty_bits(), slow.dirty_bits()),
                (
                    mmu.page_table().shadow_dirty_bits(),
                    slow.shadow_dirty_bits(),
                ),
            ] {
                assert_eq!(got, want, "the walks left different columns behind");
                got.check_consistency()
                    .unwrap_or_else(|e| panic!("column inconsistent: {e}"));
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Part 1c: the TLB's host-side layout against the model alone.
//
// `Tlb` finds a page by comparing the `u64` tags of its set and answers a
// repeated lookup of one page from a remembered slot. Neither is part of
// the model, so the reference below has neither: one `Option` per way, and
// every lookup scans them. Geometries are tiny and the page domain barely
// larger, so the remembered slot is evicted, invalidated, flushed and
// refilled all the time, and fills of a page that is already cached (two
// copies in one set, which the MMU never produces but the type allows) are
// in the mix. One page of the domain is numbered `u64::MAX - 1`, a single
// bit away from the tag of an empty way.
// ---------------------------------------------------------------------------

/// What the scan-only reference keeps per way: a [`TlbEntry`] with the
/// stamp readable.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    page: PageId,
    writable: bool,
    dirty: bool,
    shadow: bool,
    stamp: u64,
}

/// `mem_sim::Tlb` with neither tags nor memo: a scan of the set's
/// `Option`s on every lookup.
struct ScanTlb {
    sets: usize,
    ways: usize,
    entries: Vec<Option<ScanEntry>>,
    next_stamp: u64,
    stats: TlbStats,
}

impl ScanTlb {
    fn new(sets: usize, ways: usize) -> Self {
        ScanTlb {
            sets,
            ways,
            entries: vec![None; sets * ways],
            next_stamp: 0,
            stats: TlbStats::default(),
        }
    }

    fn set_of(&mut self, page: PageId) -> &mut [Option<ScanEntry>] {
        let set = page.index() & (self.sets - 1);
        &mut self.entries[set * self.ways..(set + 1) * self.ways]
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp - 1
    }

    fn lookup(&mut self, page: PageId) -> Option<&mut ScanEntry> {
        let stamp = self.stamp();
        let hit = self
            .set_of(page)
            .iter()
            .position(|e| e.is_some_and(|e| e.page == page));
        match hit {
            Some(way) => {
                self.stats.hits += 1;
                let entry = self.set_of(page)[way].as_mut().expect("way just matched");
                entry.stamp = stamp;
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn peek(&mut self, page: PageId) -> Option<ScanEntry> {
        self.set_of(page)
            .iter()
            .flatten()
            .find(|e| e.page == page)
            .copied()
    }

    fn fill(&mut self, page: PageId, flags: PteFlags) {
        let stamp = self.stamp();
        let entry = ScanEntry {
            page,
            writable: flags.is_writable(),
            dirty: flags.is_dirty(),
            shadow: flags.is_shadow_dirty(),
            stamp,
        };
        let set = self.set_of(page);
        let way = set.iter().position(|e| e.is_none()).unwrap_or_else(|| {
            let oldest = set
                .iter()
                .flatten()
                .map(|e| e.stamp)
                .min()
                .expect("ways > 0");
            set.iter()
                .position(|e| e.is_some_and(|e| e.stamp == oldest))
                .expect("just found")
        });
        set[way] = Some(entry);
    }

    fn invalidate(&mut self, page: PageId) {
        self.stats.invalidations += 1;
        for e in self.set_of(page) {
            if e.is_some_and(|e| e.page == page) {
                *e = None;
            }
        }
    }

    fn flush(&mut self) {
        self.stats.flushes += 1;
        self.entries.fill(None);
    }
}

/// Pages the TLB ops draw from: more than any geometry below holds, few
/// enough that the same page comes up again and again.
const TLB_PAGES: u64 = 10;

/// The `i`th page of that domain; the last one is the largest page number
/// a TLB can cache.
fn tlb_page(i: u64) -> PageId {
    if i == TLB_PAGES - 1 {
        PageId(u64::MAX - 1)
    } else {
        PageId(i)
    }
}

/// `(sets, ways)`: direct-mapped, fully associative, and in between.
const TLB_GEOMETRIES: [(usize, usize); 6] = [(1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (1, 4)];

#[derive(Debug)]
enum TlbOp {
    /// Look `page` up and, on a hit, OR the two bits into the cached dirty
    /// and shadow flags through the returned entry, as `Mmu::write` does.
    Lookup {
        page: u64,
        dirty: bool,
        shadow: bool,
    },
    /// `Lookup`, then `Fill` from `flags` on a miss: `Mmu::translate`.
    Translate {
        page: u64,
        flags: (bool, bool, bool),
    },
    Fill {
        page: u64,
        flags: (bool, bool, bool),
    },
    Invalidate {
        page: u64,
    },
    Flush,
}

fn gen_tlb_op(rng: &mut SplitMix64) -> TlbOp {
    fn flags(rng: &mut SplitMix64) -> (bool, bool, bool) {
        (rng.chance(0.5), rng.chance(0.5), rng.chance(0.5))
    }
    let arm = weighted(rng, &[8, 6, 2, 2, 1]);
    let page = int(rng, 0..TLB_PAGES);
    match arm {
        0 => TlbOp::Lookup {
            page,
            dirty: rng.chance(0.5),
            shadow: rng.chance(0.5),
        },
        1 => TlbOp::Translate {
            page,
            flags: flags(rng),
        },
        2 => TlbOp::Fill {
            page,
            flags: flags(rng),
        },
        3 => TlbOp::Invalidate { page },
        _ => TlbOp::Flush,
    }
}

fn pte_flags((writable, dirty, shadow): (bool, bool, bool)) -> PteFlags {
    PteFlags::present()
        .with_writable(writable)
        .with_dirty(dirty)
        .with_shadow_dirty(shadow)
}

/// The flags a caller sees through an entry.
fn seen(e: &TlbEntry) -> (PageId, bool, bool, bool) {
    (e.page, e.writable, e.dirty, e.shadow)
}

fn seen_by_scan(e: &ScanEntry) -> (PageId, bool, bool, bool) {
    (e.page, e.writable, e.dirty, e.shadow)
}

/// One lookup on both sides: same hit or miss, same flags behind the
/// returned entry, and the same flag update applied through it.
fn lookup_both(
    tlb: &mut Tlb,
    model: &mut ScanTlb,
    page: PageId,
    dirty: bool,
    shadow: bool,
) -> bool {
    let (got, want) = (tlb.lookup(page), model.lookup(page));
    assert_eq!(
        got.as_deref().map(seen),
        want.as_deref().map(seen_by_scan),
        "lookup of {} diverged",
        page
    );
    let hit = got.is_some();
    if let (Some(got), Some(want)) = (got, want) {
        got.dirty |= dirty;
        got.shadow |= shadow;
        want.dirty |= dirty;
        want.shadow |= shadow;
    }
    hit
}

/// The tagged, memoised TLB and the scan-only one are indistinguishable
/// under any op sequence: every lookup's outcome, the counters, and
/// after every op — a flush included — what each page's `peek` shows,
/// so every eviction took the same victim, and how many ways are
/// occupied.
#[test]
fn tlb_memo_replays_the_set_scan() {
    check("tlb_memo_replays_the_set_scan", 128, |rng| {
        let (sets, ways) = TLB_GEOMETRIES[int(rng, 0..TLB_GEOMETRIES.len() as u64) as usize];
        let ops = vec_of(rng, 1..400, gen_tlb_op);
        let mut tlb = Tlb::new(sets, ways);
        let mut model = ScanTlb::new(sets, ways);
        for op in &ops {
            match *op {
                TlbOp::Lookup {
                    page,
                    dirty,
                    shadow,
                } => {
                    lookup_both(&mut tlb, &mut model, tlb_page(page), dirty, shadow);
                }
                TlbOp::Translate { page, flags } => {
                    if !lookup_both(&mut tlb, &mut model, tlb_page(page), false, false) {
                        tlb.fill(tlb_page(page), pte_flags(flags));
                        model.fill(tlb_page(page), pte_flags(flags));
                    }
                }
                TlbOp::Fill { page, flags } => {
                    tlb.fill(tlb_page(page), pte_flags(flags));
                    model.fill(tlb_page(page), pte_flags(flags));
                }
                TlbOp::Invalidate { page } => {
                    tlb.invalidate(tlb_page(page));
                    model.invalidate(tlb_page(page));
                }
                TlbOp::Flush => {
                    tlb.flush();
                    model.flush();
                }
            }
            assert_eq!(tlb.stats(), model.stats, "counters diverged after {:?}", op);
            assert_eq!(tlb.occupancy(), model.entries.iter().flatten().count());
            for page in (0..TLB_PAGES).map(tlb_page) {
                assert_eq!(
                    tlb.peek(page).as_ref().map(seen),
                    model.peek(page).as_ref().map(seen_by_scan),
                    "{} cached differently after {:?}",
                    page,
                    op
                );
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Part 2: seeded engine workloads across all three backends.
// ---------------------------------------------------------------------------

const ENGINE_PAGES: usize = 96;
const REGION_PAGES: u64 = 64;
const BUDGET: u64 = 12;
const SEEDS: [u64; 3] = [1, 7, 42];
const STEPS: usize = 400;

/// One seeded workload, applied identically to all three backends: random
/// writes (skewed toward a hot fraction of the region so the victim
/// selector has recency to exploit), idles, and occasional budget changes.
/// Every step holds the engine invariants on both budgeted backends; the
/// run ends with a power cycle and a byte-for-byte content check on all
/// three.
fn drive_all_backends(seed: u64) {
    let page = PAGE_SIZE as u64;
    let mut sw = Viyojit::new(
        ENGINE_PAGES,
        ViyojitConfig::with_budget_pages(BUDGET),
        Clock::new(),
        CostModel::free(),
        SsdConfig::instant(),
    );
    let mut hw = MmuAssistedViyojit::new(
        ENGINE_PAGES,
        ViyojitConfig::with_budget_pages(BUDGET),
        Clock::new(),
        CostModel::free(),
        SsdConfig::instant(),
    );
    let mut base = NvdramBaseline::new(
        ENGINE_PAGES,
        Clock::new(),
        CostModel::free(),
        SsdConfig::instant(),
    );
    let rs = sw.map(REGION_PAGES * page).unwrap();
    let rh = hw.map(REGION_PAGES * page).unwrap();
    let rb = base.map(REGION_PAGES * page).unwrap();
    let mut model = vec![0u8; (REGION_PAGES * page) as usize];

    let mut rng = SplitMix64::new(seed);
    for step in 0..STEPS {
        match rng.below(10) {
            0..=6 => {
                // 80/20 skew: most writes land in the first quarter.
                let span = if rng.below(10) < 8 {
                    REGION_PAGES * page / 4
                } else {
                    REGION_PAGES * page
                };
                let len = 1 + rng.below(4096);
                let offset = rng.below(span.saturating_sub(len).max(1));
                let fill = rng.next_u64() as u8;
                let data = vec![fill; len as usize];
                sw.write(rs, offset, &data).unwrap();
                hw.write(rh, offset, &data).unwrap();
                base.write(rb, offset, &data).unwrap();
                model[offset as usize..(offset + len) as usize].fill(fill);
            }
            7 | 8 => {
                let micros = 1 + rng.below(1500);
                sw.clock().advance(SimDuration::from_micros(micros));
                hw.clock().advance(SimDuration::from_micros(micros));
                base.clock().advance(SimDuration::from_micros(micros));
            }
            _ => {
                let budget = 4 + rng.below(12);
                sw.set_dirty_budget(budget);
                hw.set_dirty_budget(budget);
            }
        }
        assert!(
            sw.dirty_count() <= sw.dirty_budget(),
            "seed {seed} step {step}: software walker broke the budget bound"
        );
        assert!(
            hw.dirty_count() <= hw.dirty_budget(),
            "seed {seed} step {step}: MMU-assisted tracker broke the budget bound"
        );
        sw.check_invariants()
            .unwrap_or_else(|v| panic!("seed {seed} step {step}: software walker: {v}"));
        hw.check_invariants()
            .unwrap_or_else(|v| panic!("seed {seed} step {step}: MMU-assisted: {v}"));
    }

    let sr = sw.power_failure();
    let hr = hw.power_failure();
    base.power_failure();
    assert!(sr.dirty_pages <= sw.dirty_budget());
    assert!(hr.dirty_pages <= hw.dirty_budget());
    sw.recover();
    hw.recover();
    base.recover();
    assert!(
        sw.durable_state_consistent(),
        "seed {seed}: software walker"
    );
    assert!(hw.durable_state_consistent(), "seed {seed}: MMU-assisted");
    for (label, buf) in [
        ("software walker", read_all(&mut sw, rs, model.len())),
        ("MMU-assisted", read_all(&mut hw, rh, model.len())),
        (
            "full-battery baseline",
            read_all(&mut base, rb, model.len()),
        ),
    ] {
        assert_eq!(
            buf, model,
            "seed {seed}: {label} lost contents across the power cycle"
        );
    }
}

fn read_all<N: NvHeap>(nv: &mut N, region: viyojit::RegionId, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    nv.read(region, 0, &mut buf).unwrap();
    buf
}

#[test]
fn seeded_workloads_agree_across_backends_seed_1() {
    drive_all_backends(SEEDS[0]);
}

#[test]
fn seeded_workloads_agree_across_backends_seed_7() {
    drive_all_backends(SEEDS[1]);
}

#[test]
fn seeded_workloads_agree_across_backends_seed_42() {
    drive_all_backends(SEEDS[2]);
}
