//! Wall-clock microbenchmark of the simulator's page-state hot paths.
//!
//! Unlike the figure experiments, this one measures *host* time, not
//! virtual time: the point of the two-level bitmaps is that the simulator
//! itself stays fast at paper scale (140 GB ≈ 36.7M pages) even when the
//! dirty population is tiny. Each cell of the sweep times the epoch-walk,
//! discovery-scan, dirty-count, invariant-check, and fault/flush paths on
//! the live bitmap-backed `PageTable`/`DirtySet`, and — in the same run,
//! on the same page population — on an embedded scalar reference model
//! that reproduces the pre-bitmap byte-per-page implementation. The
//! scalar figures are the `baseline_*` numbers in `BENCH_wallclock.json`;
//! both are recorded so the speedup is auditable from the artifact alone.
//!
//! `--out FILE` writes the artifact as well as printing it. `--quick`
//! runs the small CI configuration: 1M pages at the 0.1% legacy gate
//! density, at 10% (the fault/flush density gate), and a uniform-runs
//! layout cell (whole 512-page clusters dirty, so every touched leaf
//! word is all-ones).
//! `--check FILE` additionally enforces four gates and exits non-zero
//! on any failure: the fresh optimized epoch-walk ns/page at 0.1%
//! density must be within [`REGRESSION_FACTOR`]× of the committed
//! artifact; the fresh epoch walk and the fresh discovery scan must each
//! be at least 1.0× the in-run scalar baseline at *every* cell (the
//! one bitmap walk must never lose to the byte-per-page model); and the
//! fresh fault/flush lifecycle must stay within [`FAULT_FLUSH_FACTOR`]×
//! of the scalar baseline at 10% density (the per-page mark path must
//! not drown in bitmap maintenance).

use std::hint::black_box;
use std::time::Instant;

use crate::report::{cell_value, meta_json, publish};
use mem_sim::{PageId, PageTable};
use sim_clock::SplitMix64;
use viyojit::DirtySet;

/// CI gate: fail if epoch-walk ns/page regresses past this factor over
/// the committed artifact (absorbs runner-to-runner noise).
const REGRESSION_FACTOR: f64 = 3.0;
/// CI gate: the per-page fault/flush lifecycle (three bitmap marks) may
/// cost at most this factor over the scalar byte-per-page marks, at
/// [`FAULT_GATE_DENSITY`]. In-run comparison, so runner speed cancels.
const FAULT_FLUSH_FACTOR: f64 = 2.0;

/// The committed artifact's headline cell: ≥8M pages at 0.1% density.
const HEADLINE_PAGES: usize = 8_388_608;
/// The CI quick cell (small config, same density).
const QUICK_PAGES: usize = 1_048_576;
const GATE_DENSITY: f64 = 0.001;
/// Density of the fault/flush lifecycle gate cell.
const FAULT_GATE_DENSITY: f64 = 0.1;
/// Density of the uniform-runs layout cell.
const UNIFORM_DENSITY: f64 = 0.25;
/// Pages per cluster of the uniform-runs layout: 2 MiB at 4 KiB pages.
const CLUSTER_PAGES: usize = 512;

/// How the dirty population is laid out in the address space.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Uniformly random distinct pages (the historical sweep).
    Random,
    /// Whole aligned 512-page clusters dirtied wholesale: every leaf
    /// word is all-ones or zero, the shape a large sequential write
    /// leaves behind and the best case for 64-page range appends.
    UniformRuns,
}

impl Layout {
    fn name(self) -> &'static str {
        match self {
            Layout::Random => "random",
            Layout::UniformRuns => "uniform_runs",
        }
    }
}

// ----------------------------------------------------------------------
// Scalar reference model: the pre-bitmap byte-per-page implementation
// ----------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum ScalarState {
    Clean,
    Dirty,
    InFlight,
}

/// `DirtySet` as it was before the bitmaps: a `Vec` of per-page states,
/// every query a full scan.
struct ScalarDirtySet {
    states: Vec<ScalarState>,
    dirty_count: u64,
    in_flight_count: u64,
}

impl ScalarDirtySet {
    fn new(pages: usize) -> Self {
        ScalarDirtySet {
            states: vec![ScalarState::Clean; pages],
            dirty_count: 0,
            in_flight_count: 0,
        }
    }

    // The marks assert the lifecycle exactly as the seed implementation
    // did — the scalar model must reproduce the code it benchmarks
    // against, not an idealized store-only version of it.
    fn mark_dirty(&mut self, page: usize) {
        let s = &mut self.states[page];
        assert!(*s == ScalarState::Clean, "page {page} dirtied twice");
        *s = ScalarState::Dirty;
        self.dirty_count += 1;
    }

    fn mark_in_flight(&mut self, page: usize) {
        let s = &mut self.states[page];
        assert!(*s == ScalarState::Dirty, "only dirty pages can be flushed");
        *s = ScalarState::InFlight;
        self.in_flight_count += 1;
    }

    fn mark_clean(&mut self, page: usize) {
        let s = &mut self.states[page];
        assert!(*s == ScalarState::InFlight, "only in-flight pages complete");
        *s = ScalarState::Clean;
        self.dirty_count -= 1;
        self.in_flight_count -= 1;
    }

    fn collect_dirty(&self) -> Vec<u64> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ScalarState::Dirty)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// The seed's `check_invariants`: two independent full scans.
    fn check_invariants(&self) -> bool {
        let dirty = self
            .states
            .iter()
            .filter(|s| **s != ScalarState::Clean)
            .count() as u64;
        let in_flight = self
            .states
            .iter()
            .filter(|s| **s == ScalarState::InFlight)
            .count() as u64;
        dirty == self.dirty_count && in_flight == self.in_flight_count
    }
}

/// `PageTable` as it was: a `Vec<u8>` of flag bytes (bit 2 = dirty).
struct ScalarPageTable {
    ptes: Vec<u8>,
}

const SCALAR_DIRTY: u8 = 1 << 2;

impl ScalarPageTable {
    fn new(pages: usize) -> Self {
        ScalarPageTable {
            ptes: vec![0u8; pages],
        }
    }

    fn set_dirty(&mut self, page: usize) {
        self.ptes[page] |= SCALAR_DIRTY;
    }

    fn take_dirty(&mut self, page: usize) -> bool {
        let was = self.ptes[page] & SCALAR_DIRTY != 0;
        self.ptes[page] &= !SCALAR_DIRTY;
        was
    }

    fn dirty_count(&self) -> usize {
        self.ptes.iter().filter(|f| **f & SCALAR_DIRTY != 0).count()
    }

    fn collect_dirty(&self) -> Vec<u64> {
        self.ptes
            .iter()
            .enumerate()
            .filter(|(_, f)| **f & SCALAR_DIRTY != 0)
            .map(|(i, _)| i as u64)
            .collect()
    }
}

// ----------------------------------------------------------------------
// Measurement
// ----------------------------------------------------------------------

/// Average ns per repetition of `f`; the returned checksum keeps the
/// optimizer from deleting the measured work.
fn time_ns(reps: u32, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        checksum = checksum.wrapping_add(black_box(f()));
    }
    let total = start.elapsed().as_nanos() as f64;
    (total / f64::from(reps), checksum)
}

struct Cell {
    pages: usize,
    density: f64,
    layout: Layout,
    dirty_pages: usize,
    /// (optimized ns, baseline ns) per metric.
    epoch_walk: (f64, f64),
    discovery: (f64, f64),
    dirty_count: (f64, f64),
    invariants: (f64, f64),
    fault_flush: (f64, f64),
}

fn measure_cell(pages: usize, density: f64, layout: Layout, reps: u32) -> Cell {
    // Deterministic dirty population, identical for both models.
    let target = ((pages as f64 * density) as usize).max(1);
    let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15 ^ (pages as u64) ^ (target as u64));
    let mut dirty = DirtySet::new(pages);
    let mut pt = PageTable::new(pages);
    let mut scalar_dirty = ScalarDirtySet::new(pages);
    let mut scalar_pt = ScalarPageTable::new(pages);
    let mut picked: Vec<usize> = Vec::with_capacity(target);
    let mark = |p: usize,
                dirty: &mut DirtySet,
                pt: &mut PageTable,
                sd: &mut ScalarDirtySet,
                sp: &mut ScalarPageTable| {
        dirty.mark_dirty(PageId(p as u64));
        pt.set_dirty(PageId(p as u64), true);
        sd.mark_dirty(p);
        sp.set_dirty(p);
    };
    match layout {
        Layout::Random => {
            while picked.len() < target {
                let p = rng.below(pages as u64) as usize;
                if dirty.dirty_bits().test(p) {
                    continue;
                }
                mark(p, &mut dirty, &mut pt, &mut scalar_dirty, &mut scalar_pt);
                picked.push(p);
            }
        }
        Layout::UniformRuns => {
            let runs = pages / CLUSTER_PAGES;
            let want = (target / CLUSTER_PAGES).max(1);
            let mut chosen = 0;
            while chosen < want {
                let r = rng.below(runs as u64) as usize;
                if dirty.dirty_bits().test(r * CLUSTER_PAGES) {
                    continue;
                }
                for p in r * CLUSTER_PAGES..(r + 1) * CLUSTER_PAGES {
                    mark(p, &mut dirty, &mut pt, &mut scalar_dirty, &mut scalar_pt);
                    picked.push(p);
                }
                chosen += 1;
            }
        }
    }
    let target = picked.len();

    // Epoch walk (§5.2 software mode): `PageTable::take_dirty_in`, the
    // masked word drain behind `Mmu::walk_and_clear_dirty_in` (what
    // SoftwareWalk actually runs) — each non-zero word of the dirty set
    // read-and-clears the PTE dirty column, and the pages found dirty are
    // materialised; restore untimed.
    // Every dirty page here is PTE-dirty, the walk's worst case.
    // The PTE re-dirty between reps is bench plumbing (production never
    // undoes a walk), so it runs outside the timed window on both sides.
    let mut walk_buf: Vec<PageId> = Vec::new();
    let epoch_opt = {
        let mut checksum = 0u64;
        let mut total = 0u128;
        for _ in 0..reps {
            walk_buf.clear();
            let start = Instant::now();
            pt.take_dirty_in(dirty.dirty_bits(), &mut walk_buf);
            let touched = walk_buf.len() as u64;
            total += start.elapsed().as_nanos();
            checksum = checksum.wrapping_add(black_box(touched));
            for &p in &walk_buf {
                pt.set_dirty(p, true);
            }
        }
        (total as f64 / f64::from(reps), checksum)
    };
    let epoch_base = {
        let mut checksum = 0u64;
        let mut total = 0u128;
        for _ in 0..reps {
            let start = Instant::now();
            let walk = scalar_dirty.collect_dirty();
            let mut touched = 0u64;
            for &p in &walk {
                if scalar_pt.take_dirty(p as usize) {
                    touched += 1;
                }
            }
            total += start.elapsed().as_nanos();
            checksum = checksum.wrapping_add(black_box(touched));
            for &p in &walk {
                scalar_pt.set_dirty(p as usize);
            }
        }
        (total as f64 / f64::from(reps), checksum)
    };

    // Discovery scan (§5.4 hardware mode): find every PTE-dirty page
    // through the range collection `hw_discover` runs, into a fresh
    // buffer per scan as it (and the scalar side) allocates one.
    let discovery_opt = time_ns(reps, || {
        let mut raw: Vec<usize> = Vec::new();
        pt.dirty_bits().collect_range_into(0, pages, &mut raw);
        raw.iter().map(|&i| i as u64).sum()
    });
    let discovery_base = time_ns(reps, || scalar_pt.collect_dirty().iter().sum());

    // Budget check: how many pages are dirty right now.
    let count_opt = time_ns(reps, || pt.dirty_count() as u64);
    let count_base = time_ns(reps, || scalar_pt.dirty_count() as u64);

    // DirtySet invariant recount.
    let inv_opt = time_ns(reps, || u64::from(dirty.check_invariants().is_ok()));
    let inv_base = time_ns(reps, || u64::from(scalar_dirty.check_invariants()));

    // Fault + flush lifecycle over every dirty page: in-flight, complete,
    // re-dirty (the per-page budget bookkeeping on the write/flush path).
    // `black_box(&mut ...)` between transitions on BOTH models: the
    // round-trip leaves state unchanged, so without the barrier LLVM
    // folds either side into a load-and-check — timing an optimizer
    // artifact, not the mark path.
    let fault_opt = time_ns(reps, || {
        for &p in &picked {
            let page = PageId(p as u64);
            black_box(&mut dirty).mark_in_flight(page);
            black_box(&mut dirty).mark_clean(page);
            black_box(&mut dirty).mark_dirty(page);
        }
        dirty.dirty_count()
    });
    let fault_base = time_ns(reps, || {
        for &p in &picked {
            black_box(&mut scalar_dirty).mark_in_flight(p);
            black_box(&mut scalar_dirty).mark_clean(p);
            black_box(&mut scalar_dirty).mark_dirty(p);
        }
        scalar_dirty.dirty_count
    });

    // Cross-check: both models must agree on the population they timed.
    assert_eq!(epoch_opt.1, epoch_base.1, "walk touch counts diverged");
    assert_eq!(
        discovery_opt.1, discovery_base.1,
        "discovery scans diverged"
    );
    assert_eq!(dirty.dirty_count() as usize, target);

    Cell {
        pages,
        density,
        layout,
        dirty_pages: target,
        epoch_walk: (epoch_opt.0, epoch_base.0),
        discovery: (discovery_opt.0, discovery_base.0),
        dirty_count: (count_opt.0, count_base.0),
        invariants: (inv_opt.0, inv_base.0),
        fault_flush: (fault_opt.0, fault_base.0),
    }
}

fn speedup(pair: (f64, f64)) -> f64 {
    if pair.0 > 0.0 {
        pair.1 / pair.0
    } else {
        f64::INFINITY
    }
}

fn cell_json(c: &Cell) -> String {
    format!(
        "    {{\"pages\": {}, \"density\": {}, \"layout\": \"{}\", \"dirty_pages\": {}, \
         \"epoch_walk_ns_optimized\": {:.1}, \"epoch_walk_ns_baseline\": {:.1}, \"epoch_walk_speedup\": {:.2}, \
         \"discovery_ns_optimized\": {:.1}, \"discovery_ns_baseline\": {:.1}, \"discovery_speedup\": {:.2}, \
         \"dirty_count_ns_optimized\": {:.1}, \"dirty_count_ns_baseline\": {:.1}, \"dirty_count_speedup\": {:.2}, \
         \"invariants_ns_optimized\": {:.1}, \"invariants_ns_baseline\": {:.1}, \"invariants_speedup\": {:.2}, \
         \"fault_flush_ns_optimized\": {:.1}, \"fault_flush_ns_baseline\": {:.1}}}",
        c.pages,
        c.density,
        c.layout.name(),
        c.dirty_pages,
        c.epoch_walk.0,
        c.epoch_walk.1,
        speedup(c.epoch_walk),
        c.discovery.0,
        c.discovery.1,
        speedup(c.discovery),
        c.dirty_count.0,
        c.dirty_count.1,
        speedup(c.dirty_count),
        c.invariants.0,
        c.invariants.1,
        speedup(c.invariants),
        c.fault_flush.0,
        c.fault_flush.1,
    )
}

fn report_json(mode: &str, cells: &[Cell]) -> String {
    let headline_pages = if mode == "quick" {
        QUICK_PAGES
    } else {
        HEADLINE_PAGES
    };
    let headline = cells
        .iter()
        .find(|c| {
            c.pages == headline_pages && c.density == GATE_DENSITY && c.layout == Layout::Random
        })
        .expect("the sweep always contains the headline cell");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"wallclock\",\n");
    out.push_str("  \"schema_version\": 2,\n");
    let meta = telemetry::RunMeta::new("wallclock", "host", &format!("mode={mode}"), None);
    out.push_str(&format!("  \"meta\": {},\n", meta_json(&meta)));
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(
        "  \"note\": \"ns figures are host wall-clock per operation; baseline_* times an \
         embedded scalar reference reproducing the pre-bitmap byte-per-page implementation \
         on the same page population in the same run\",\n",
    );
    out.push_str(&format!(
        "  \"headline\": {{\"pages\": {}, \"density\": {}, \"epoch_walk_ns_baseline\": {:.1}, \
         \"epoch_walk_ns_optimized\": {:.1}, \"epoch_walk_speedup\": {:.2}}},\n",
        headline.pages,
        headline.density,
        headline.epoch_walk.1,
        headline.epoch_walk.0,
        speedup(headline.epoch_walk),
    ));
    out.push_str("  \"cells\": [\n");
    let rows: Vec<String> = cells.iter().map(cell_json).collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

pub(crate) fn run(args: &super::Args) {
    // The gate always runs on the small configuration.
    let quick = args.quick || args.check;
    let (configs, reps): (Vec<(usize, f64, Layout)>, u32) = if quick {
        (
            vec![
                (QUICK_PAGES, GATE_DENSITY, Layout::Random),
                (QUICK_PAGES, FAULT_GATE_DENSITY, Layout::Random),
                (QUICK_PAGES, UNIFORM_DENSITY, Layout::UniformRuns),
            ],
            5,
        )
    } else {
        let mut configs = Vec::new();
        for &pages in &[QUICK_PAGES, HEADLINE_PAGES, 33_554_432] {
            for &density in &[0.0001, 0.001, 0.01, 0.1, 0.25, 0.5] {
                configs.push((pages, density, Layout::Random));
            }
            configs.push((pages, UNIFORM_DENSITY, Layout::UniformRuns));
        }
        (configs, 3)
    };

    let mut cells = Vec::new();
    for &(pages, density, layout) in &configs {
        eprintln!(
            "measuring {pages} pages at density {density} ({}) ...",
            layout.name()
        );
        cells.push(measure_cell(pages, density, layout, reps));
    }

    let mode = if quick { "quick" } else { "full" };
    if let Some(committed) = publish(&report_json(mode, &cells), args) {
        let mut failed = false;
        let tags = [
            format!("\"pages\": {QUICK_PAGES},"),
            format!("\"density\": {GATE_DENSITY},"),
        ];
        let committed_ns = cell_value(&committed, &tags, "epoch_walk_ns_optimized")
            .expect("committed artifact lacks the quick gate cell");
        let fresh = cells
            .iter()
            .find(|c| c.pages == QUICK_PAGES && c.density == GATE_DENSITY)
            .expect("quick sweep contains the gate cell");
        let fresh_per_page = fresh.epoch_walk.0 / fresh.pages as f64;
        let committed_per_page = committed_ns / QUICK_PAGES as f64;
        eprintln!(
            "gate: fresh epoch-walk {:.4} ns/page vs committed {:.4} ns/page (limit {REGRESSION_FACTOR}x)",
            fresh_per_page, committed_per_page
        );
        if fresh_per_page > committed_per_page * REGRESSION_FACTOR {
            eprintln!("FAIL: epoch-walk hot path regressed more than {REGRESSION_FACTOR}x");
            failed = true;
        }
        // The one bitmap walk must never lose to the scalar model:
        // every cell's epoch walk and discovery scan, against its own
        // in-run baseline (so runner speed cancels), must be at least
        // break-even.
        for c in &cells {
            for (scan, pair) in [("epoch walk", c.epoch_walk), ("discovery", c.discovery)] {
                let s = speedup(pair);
                eprintln!(
                    "gate: {scan} speedup {s:.2}x at density {} ({}) (limit >= 1.0x)",
                    c.density,
                    c.layout.name()
                );
                if s < 1.0 {
                    eprintln!(
                        "FAIL: {scan} slower than the scalar baseline at density {} ({})",
                        c.density,
                        c.layout.name()
                    );
                    failed = true;
                }
            }
        }
        // The per-page mark path must not drown in bitmap maintenance
        // at high density.
        let fault = cells
            .iter()
            .find(|c| c.density == FAULT_GATE_DENSITY && c.layout == Layout::Random)
            .expect("quick sweep contains the fault/flush gate cell");
        let ratio = fault.fault_flush.0 / fault.fault_flush.1.max(f64::MIN_POSITIVE);
        eprintln!(
            "gate: fault/flush {ratio:.2}x of scalar baseline at density {FAULT_GATE_DENSITY} \
             (limit <= {FAULT_FLUSH_FACTOR}x)"
        );
        if ratio > FAULT_FLUSH_FACTOR {
            eprintln!(
                "FAIL: fault/flush lifecycle more than {FAULT_FLUSH_FACTOR}x the scalar baseline"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("gate: OK");
    }
}
