//! Layer drives: each layer's public functions timed in isolation, on the
//! call stream and page populations the traced pass recorded.
//!
//! Spans cannot reach below the `NvHeap` boundary from outside, so the
//! cost of `mem-sim`, `ssd-sim`, `sim-clock` and the engine's bookkeeping
//! types is measured here instead and multiplied by the run's exact counts
//! into per-operation estimates. How much of the traced `viyojit` time
//! those estimates explain is `ledger.unattributed_share`.

use std::hint::black_box;
use std::time::Instant;

use mem_sim::{Mmu, PageId, WalkOptions, PAGE_SIZE};
use pheap::{PHeap, PPtr};
use sim_clock::{Clock, CostModel, SimDuration};
use ssd_sim::{Ssd, SsdConfig};
use viyojit::{
    DirtySet, NvHeap, NvdramBaseline, RegionId, TargetPolicy, UpdateHistory, VictimSelector,
    Viyojit, ViyojitConfig,
};

use crate::kv::make_nvdram;
use crate::store::{Access, FlatHeap, Shim};
use crate::trace::TimerCost;
use crate::workload::NV_PAGES;

/// Each drive is timed this many times; the fastest is reported, since
/// interference only ever adds time.
const ROUNDS: usize = 3;

fn best_ns(mut round: impl FnMut() -> f64) -> f64 {
    (0..ROUNDS).map(|_| round()).fold(f64::INFINITY, f64::min)
}

fn timed_ns(work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_nanos() as f64
}

fn per(total_ns: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns / count as f64
    }
}

/// Distinct pages the recorded writes touch, in first-touch order — the
/// population faults, flushes and walks act on.
pub fn written_pages(stream: &[Access]) -> Vec<PageId> {
    let mut seen = vec![false; NV_PAGES];
    let mut pages = Vec::new();
    for a in stream.iter().filter(|a| a.write) {
        let page = (a.offset / PAGE_SIZE as u64) as usize;
        if page < NV_PAGES && !std::mem::replace(&mut seen[page], true) {
            pages.push(PageId(page as u64));
        }
    }
    pages
}

fn bare_mmu() -> Mmu {
    Mmu::new(NV_PAGES, Clock::new(), CostModel::calibrated())
}

/// `Mmu::write` takes one page at a time; the engine chunks, so do we.
fn mmu_write(mmu: &mut Mmu, offset: u64, data: &[u8]) {
    let mut at = offset;
    let mut rest = data;
    while !rest.is_empty() {
        let n = (PAGE_SIZE - at as usize % PAGE_SIZE).min(rest.len());
        mmu.write(at, &rest[..n]).expect("bare pages are writable");
        at += n as u64;
        rest = &rest[n..];
    }
}

const NV_BYTES: u64 = (NV_PAGES * PAGE_SIZE) as u64;

/// A buffer long enough for any recorded call.
fn replay_buffer(calls: &[Access]) -> Vec<u8> {
    vec![0xA5; calls.iter().map(|a| a.len as usize).max().unwrap_or(0)]
}

/// Issues the recorded calls against `store`, in recorded order.
fn replay<S: NvHeap>(store: &mut S, region: RegionId, calls: &[Access], buf: &mut [u8]) {
    for a in calls {
        let len = a.len as usize;
        if a.write {
            store.write(region, a.offset, &buf[..len])
        } else {
            store.read(region, a.offset, &mut buf[..len])
        }
        .expect("recorded calls lie inside the mapped region");
    }
}

/// `(read ns per call, write ns per call)` of a bare `Mmu` replaying the
/// recorded reads, then the recorded writes, each in recorded order. The
/// simulated TLB is flushed every `calls_per_flush` calls, as the epoch
/// walker flushes it in the run, so that the replay misses as often.
pub fn mmu_access(stream: &[Access], calls_per_flush: Option<u64>) -> (f64, f64) {
    let mut buf = replay_buffer(stream);
    let (writes, reads): (Vec<&Access>, Vec<&Access>) = stream.iter().partition(|a| a.write);
    let mut mmu = bare_mmu();
    let cadence = calls_per_flush.unwrap_or(u64::MAX).max(1);
    let flush_due = |mmu: &mut Mmu, call: usize| {
        if call as u64 % cadence == cadence - 1 {
            mmu.walk_and_clear_dirty(&[], WalkOptions::exact());
        }
    };
    let read_ns = best_ns(|| {
        timed_ns(|| {
            for (i, a) in reads.iter().enumerate() {
                mmu.read(a.offset, &mut buf[..a.len as usize])
                    .expect("in range");
                flush_due(&mut mmu, i);
            }
        })
    });
    let write_ns = best_ns(|| {
        timed_ns(|| {
            for (i, a) in writes.iter().enumerate() {
                mmu_write(&mut mmu, a.offset, &buf[..a.len as usize]);
                flush_due(&mut mmu, i);
            }
        })
    });
    (per(read_ns, reads.len()), per(write_ns, writes.len()))
}

/// One call on plain memory behind the shim: what the flat-heap pass
/// spends below the `NvHeap` boundary.
pub fn flat_call(stream: &[Access]) -> f64 {
    let mut buf = replay_buffer(stream);
    let mut flat = Shim::new(FlatHeap::new(), 0);
    let region = flat.map(NV_BYTES).expect("plain memory maps");
    let ns = best_ns(|| timed_ns(|| replay(&mut flat, region, stream, &mut buf)));
    per(ns, stream.len())
}

/// What timing one `NvHeap` call costs in place: the shim's own code path
/// around an `NvdramBaseline` replaying recorded calls, once untimed and
/// once timed. A tight loop of clock reads alone overstates it, because
/// there the reads cannot overlap with any work.
pub fn timer_cost(stream: &[Access]) -> TimerCost {
    let calls = &stream[..stream.len().min(50_000)];
    if calls.is_empty() {
        return TimerCost::default();
    }
    let mut buf = replay_buffer(calls);
    let mut shim = Shim::new(make_nvdram(), 0);
    let region = shim.map(NV_BYTES).expect("the whole space maps");
    let plain = best_ns(|| timed_ns(|| replay(&mut shim, region, calls, &mut buf)));
    shim.state_mut().sampling = true;
    let timed = best_ns(|| timed_ns(|| replay(&mut shim, region, calls, &mut buf)));
    let spans = &shim.state().spans;
    let inside: u64 = spans.iter().map(|s| s.end_ns - s.start_ns).sum();
    let plain_call = per(plain, calls.len());
    TimerCost {
        inner_ns: (per(inside as f64, spans.len()) - plain_call).max(0.0),
        outer_ns: (per(timed, calls.len()) - plain_call).max(0.0),
    }
}

/// protect → faulting write → unprotect → write, per page.
pub fn fault_cycle(pages: &[PageId]) -> f64 {
    let mut mmu = bare_mmu();
    let ns = best_ns(|| {
        timed_ns(|| {
            for &page in pages {
                let addr = page.base_addr() + 128;
                mmu.protect_page(page);
                black_box(mmu.write(addr, &[1u8; 8]).is_err());
                mmu.unprotect_page(page);
                mmu.write(addr, &[1u8; 8]).expect("unprotected");
            }
        })
    });
    per(ns, pages.len())
}

/// One epoch scan at the workload's steady dirty population: collect the
/// dirty set's pages (a `mem-sim` bitmap scan) and walk-and-clear their
/// PTE dirty bits with a TLB flush, as `SoftwareWalk::epoch_walk` does.
pub fn walk_per_page(pages: &[PageId], dirty: usize) -> f64 {
    // The recorded pages first, then any others, up to `dirty` of them.
    let mut seen = vec![false; NV_PAGES];
    let mut population = Vec::new();
    for page in pages
        .iter()
        .copied()
        .chain((0..NV_PAGES as u64).map(PageId))
    {
        if population.len() == dirty {
            break;
        }
        if !std::mem::replace(&mut seen[page.index()], true) {
            population.push(page);
        }
    }
    let mut mmu = bare_mmu();
    let mut set = DirtySet::new(NV_PAGES);
    for &page in &population {
        set.mark_dirty(page);
    }
    let options = WalkOptions {
        flush_tlb: true,
        charge_costs: false,
    };
    let mut walked = Vec::new();
    let ns = best_ns(|| {
        for &page in &population {
            mmu.write(page.base_addr(), &[1])
                .expect("bare pages are writable");
        }
        timed_ns(|| {
            walked.clear();
            set.collect_dirty_into(&mut walked);
            black_box(mmu.walk_and_clear_dirty(&walked, options).len());
        })
    });
    per(ns, population.len())
}

/// mark_dirty → mark_in_flight → mark_clean, per page.
pub fn dirtyset_cycle(pages: &[PageId]) -> f64 {
    let mut set = DirtySet::new(NV_PAGES);
    let ns = best_ns(|| {
        timed_ns(|| {
            for &page in pages {
                set.mark_dirty(page);
                set.mark_in_flight(page);
                set.mark_clean(page);
            }
        })
    });
    per(ns, pages.len())
}

/// `(selector cycle ns, history touch ns)`: with `population` pages
/// indexed, evict the least recently updated one and index it again as
/// the most recent — the selector work of one fault-plus-flush.
pub fn selector_cycle(pages: &[PageId], population: usize) -> (f64, f64) {
    let mut history = UpdateHistory::new(NV_PAGES, 64);
    let mut selector = VictimSelector::new(NV_PAGES, TargetPolicy::LeastRecentlyUpdated, 0x5eed);
    let indexed = &pages[..population.min(pages.len())];
    for &page in indexed {
        history.touch(page);
        selector.on_dirty(page, &history);
    }
    let cycles = pages.len();
    let touch_ns = best_ns(|| {
        timed_ns(|| {
            for &page in pages {
                history.touch(page);
            }
        })
    });
    if indexed.is_empty() {
        return (0.0, per(touch_ns, cycles));
    }
    let both_ns = best_ns(|| {
        timed_ns(|| {
            for _ in 0..cycles {
                let victim = selector.peek().expect("the population is indexed");
                selector.on_removed(victim);
                history.touch(victim);
                selector.on_dirty(victim, &history);
            }
        })
    });
    let touch = per(touch_ns, cycles);
    ((per(both_ns, cycles) - touch).max(0.0), touch)
}

/// `Ssd::submit_write` of one page, waiting out each completion so the
/// device's queues stay as short as a stalled writer keeps them.
pub fn ssd_submit(pages: &[PageId]) -> f64 {
    let clock = Clock::new();
    let mut ssd = Ssd::new(NV_PAGES, SsdConfig::datacenter(), clock.clone());
    let data = vec![0x5Au8; PAGE_SIZE];
    let ns = best_ns(|| {
        timed_ns(|| {
            for &page in pages {
                let done = ssd.submit_write(page, &data);
                clock.advance_to(done);
            }
        })
    });
    per(ns, pages.len())
}

pub fn clock_advance() -> f64 {
    let clock = Clock::new();
    let calls = 1_000_000;
    let ns = best_ns(|| {
        timed_ns(|| {
            for _ in 0..calls {
                clock.advance(black_box(SimDuration::from_nanos(1)));
            }
        })
    });
    per(ns, calls)
}

/// The 4 KiB snapshot `issue_flush` takes of a victim page, out of an
/// NV-DRAM-sized image so that victims are as cold as they are in a run.
pub fn snapshot_copy(pages: &[PageId]) -> f64 {
    let image = vec![0x3Cu8; NV_PAGES * PAGE_SIZE];
    let ns = best_ns(|| {
        timed_ns(|| {
            for &page in pages {
                let at = page.index() * PAGE_SIZE;
                black_box(black_box(&image[at..at + PAGE_SIZE]).to_vec());
            }
        })
    });
    per(ns, pages.len())
}

/// What one `NvHeap` call costs in the engine on top of the `Mmu` access
/// it makes: the recorded stream through a store that neither faults nor
/// runs epochs, minus the same stream on a bare `Mmu`.
pub fn engine_call_overhead(stream: &[Access], tracked: bool, mmu_ns: (f64, f64)) -> f64 {
    let mut buf = replay_buffer(stream);
    let engine_ns = if tracked {
        // Budget = capacity and an hour-long epoch: after one untimed
        // replay every page is dirty and nothing faults, flushes or walks.
        let config = ViyojitConfig::builder(NV_PAGES as u64)
            .epoch(SimDuration::from_secs(3_600))
            .build()
            .expect("valid");
        let mut store = Viyojit::new(
            NV_PAGES,
            config,
            Clock::new(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let region = store.map(NV_BYTES).expect("the whole space maps");
        replay(&mut store, region, stream, &mut buf);
        best_ns(|| timed_ns(|| replay(&mut store, region, stream, &mut buf)))
    } else {
        let mut store = make_nvdram();
        let region = store.map(NV_BYTES).expect("the whole space maps");
        best_ns(|| timed_ns(|| replay(&mut store, region, stream, &mut buf)))
    };
    let writes = stream.iter().filter(|a| a.write).count();
    let bare = (stream.len() - writes) as f64 * mmu_ns.0 + writes as f64 * mmu_ns.1;
    per((engine_ns - bare).max(0.0), stream.len())
}

#[derive(Debug, Clone, Copy, Default)]
pub struct PheapDrives {
    pub read8_self_ns: f64,
    pub write8_self_ns: f64,
    pub write976_self_ns: f64,
    pub alloc_free_self_ns: f64,
    pub alloc_free_nvheap_calls: f64,
}

#[derive(Debug, Clone, Copy)]
enum PheapOp {
    Read8,
    Write8,
    Write976,
    AllocFree,
}

impl PheapOp {
    fn run<H: NvHeap>(self, heap: &mut PHeap<H>, small: PPtr, large: PPtr) {
        const VALUE: [u8; 976] = [0x42; 976];
        match self {
            PheapOp::Read8 => heap.read(small, 0, &mut [0u8; 8]),
            PheapOp::Write8 => heap.write(small, 0, &VALUE[..8]),
            PheapOp::Write976 => heap.write(large, 0, &VALUE),
            PheapOp::AllocFree => heap.alloc(976).and_then(|ptr| heap.free(ptr)),
        }
        .expect("live allocations in a heap with room");
    }

    /// `(pheap self ns per op, NvHeap calls per op)`: the op on
    /// `PHeap<NvdramBaseline>` minus the `NvHeap` calls it makes, replayed
    /// directly on the same store. One shimmed op says which calls those are.
    fn drive(self) -> (f64, f64) {
        const OPS: usize = 20_000;
        const HEAP_BYTES: u64 = 1 << 20;
        let mut shimmed =
            PHeap::format(Shim::new(make_nvdram(), usize::MAX), HEAP_BYTES).expect("1 MiB fits");
        let (small, large) = (shimmed.alloc(8).unwrap(), shimmed.alloc(976).unwrap());
        let before = shimmed.heap().state().recorded.len();
        self.run(&mut shimmed, small, large);
        let inner: Vec<Access> = shimmed.heap().state().recorded[before..].to_vec();

        let mut heap = PHeap::format(make_nvdram(), HEAP_BYTES).expect("1 MiB fits");
        let (small, large) = (heap.alloc(8).unwrap(), heap.alloc(976).unwrap());
        let whole = best_ns(|| {
            timed_ns(|| {
                for _ in 0..OPS {
                    self.run(&mut heap, small, large);
                }
            })
        });
        let region = heap.region();
        let store: &mut NvdramBaseline = heap.heap_mut();
        let mut buf = replay_buffer(&inner);
        let inside = best_ns(|| {
            timed_ns(|| {
                for _ in 0..OPS {
                    replay(store, region, &inner, &mut buf);
                }
            })
        });
        (per((whole - inside).max(0.0), OPS), inner.len() as f64)
    }
}

pub fn pheap_self() -> PheapDrives {
    let (alloc_free_self_ns, alloc_free_nvheap_calls) = PheapOp::AllocFree.drive();
    PheapDrives {
        read8_self_ns: PheapOp::Read8.drive().0,
        write8_self_ns: PheapOp::Write8.drive().0,
        write976_self_ns: PheapOp::Write976.drive().0,
        alloc_free_self_ns,
        alloc_free_nvheap_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<Access> {
        (0..2_000u64)
            .map(|i| Access {
                offset: (i * 7_919) % (NV_PAGES as u64 * 4096 - 2_048),
                len: if i % 5 == 0 { 976 } else { 8 },
                write: i % 3 == 0,
            })
            .collect()
    }

    #[test]
    fn written_pages_are_distinct_and_in_first_touch_order() {
        let s = [
            Access {
                offset: 8_192,
                len: 8,
                write: true,
            },
            Access {
                offset: 100,
                len: 8,
                write: false,
            },
            Access {
                offset: 8_200,
                len: 8,
                write: true,
            },
            Access {
                offset: 0,
                len: 8,
                write: true,
            },
        ];
        assert_eq!(written_pages(&s), [PageId(2), PageId(0)]);
    }

    #[test]
    fn every_drive_measures_something() {
        let s = stream();
        let pages = written_pages(&s);
        assert!(pages.len() > 100);
        let mmu = mmu_access(&s, Some(500));
        assert!(mmu.0 > 0.0 && mmu.1 > 0.0);
        assert!(flat_call(&s) > 0.0);
        assert!(fault_cycle(&pages) > 0.0);
        assert!(walk_per_page(&pages, 64) > 0.0);
        assert_eq!(walk_per_page(&pages, 0), 0.0);
        assert!(dirtyset_cycle(&pages) > 0.0);
        let (cycle, touch) = selector_cycle(&pages, 64);
        assert!(
            cycle >= 0.0 && touch > 0.0,
            "the cycle is a difference of timings"
        );
        assert!(ssd_submit(&pages) > 0.0);
        assert!(clock_advance() > 0.0);
        assert!(snapshot_copy(&pages) > 0.0);
        assert!(engine_call_overhead(&s, true, mmu) >= 0.0);
        assert!(engine_call_overhead(&s, false, mmu) >= 0.0);
    }

    #[test]
    fn timer_calibration_is_sane() {
        let cost = timer_cost(&stream());
        // Differences of two timings: never negative, and — beside other
        // tests on a busy host — not asserted to be more than that.
        assert!((0.0..10_000.0).contains(&cost.inner_ns), "{cost:?}");
        assert!((0.0..20_000.0).contains(&cost.outer_ns), "{cost:?}");
        assert!(cost.inner_ns + cost.outer_ns > 0.0, "{cost:?}");
        assert_eq!(timer_cost(&[]).outer_ns, 0.0);
    }

    #[test]
    fn pheap_drives_see_the_header_check() {
        let d = pheap_self();
        // alloc + free touch the free list, the header and both counters.
        assert!(d.alloc_free_nvheap_calls >= 10.0, "{d:?}");
        assert!(d.read8_self_ns >= 0.0 && d.write976_self_ns >= 0.0);
    }
}
