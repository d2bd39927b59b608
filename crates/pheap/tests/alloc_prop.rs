//! Property tests of the persistent allocator: model-based equivalence
//! under random alloc/free/write sequences, including across power cycles.
//!
//! The allocator answers "is this a live allocation, and how large?" from
//! volatile maps; the block headers on NV-DRAM are the slow model of those
//! maps. Three heaps take the same operations — one on `Viyojit` and one
//! on `NvdramBaseline` that lose power and are reopened (their maps
//! rebuilt from the headers), one that lives through the whole sequence —
//! and must hand out the same pointers and give the same answers, which
//! must be the headers' and the model's.
//!
//! Where each block goes has a slow model of its own, [`Placement`]: the
//! pointer every `alloc` returns is predicted before the heaps are asked,
//! across power cycles — the lowest freed block of its class, else the
//! next slot of the class's run.

use std::collections::{BTreeSet, HashMap};

use pheap::{class_size, size_class, PHeap, PHeapError, PPtr, MAX_ALLOC, NUM_CLASSES};
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{NvHeap, NvdramBaseline, Viyojit, ViyojitConfig};

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        len: usize,
        fill: u8,
    },
    /// Free the `nth % live` live allocation.
    Free {
        nth: usize,
    },
    /// Overwrite the `nth % live` live allocation with `fill`.
    Rewrite {
        nth: usize,
        fill: u8,
    },
    PowerCycle,
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match weighted(rng, &[5, 2, 3, 1]) {
        0 => Op::Alloc {
            // One request in ten is of a multi-page class.
            len: match weighted(rng, &[9, 1]) {
                0 => int(rng, 1..2048),
                _ => int(rng, 4096..20_000),
            } as usize,
            fill: rng.next_u64() as u8,
        },
        1 => Op::Free {
            nth: rng.next_u64() as usize,
        },
        2 => Op::Rewrite {
            nth: rng.next_u64() as usize,
            fill: rng.next_u64() as u8,
        },
        _ => Op::PowerCycle,
    }
}

/// Every case opens with these, so that none is vacuous: a block of a
/// multi-page class, freed, handed out again; two small blocks freed lower
/// address first, a reopen, and one of them handed out again (the lower:
/// the most recently freed is the higher).
fn prologue() -> [Op; 9] {
    let multi_page = Op::Alloc { len: 5000, fill: 1 };
    let small = Op::Alloc { len: 40, fill: 2 };
    [
        multi_page.clone(),
        Op::Free { nth: 0 },
        multi_page,
        small.clone(),
        small.clone(),
        Op::Free { nth: 1 },
        Op::Free { nth: 1 },
        Op::PowerCycle,
        small,
    ]
}

/// The slow model of where blocks go: per class, the freed payloads and
/// the `(cursor, end)` of the run being carved, and the bump pointer —
/// the allocator's rules restated from its layout.
struct Placement {
    freed: Vec<BTreeSet<u64>>,
    runs: Vec<(u64, u64)>,
    bump: u64,
    region_len: u64,
}

impl Placement {
    const PAGE: u64 = 4096;
    const HEADER: u64 = 8;
    const RUN: u64 = 4 * Self::PAGE;

    fn new(region_len: u64) -> Self {
        Placement {
            freed: vec![BTreeSet::new(); NUM_CLASSES],
            runs: vec![(0, 0); NUM_CLASSES],
            bump: Self::PAGE,
            region_len,
        }
    }

    /// The pointer `alloc(len)` must return.
    fn alloc(&mut self, len: usize) -> Result<PPtr, PHeapError> {
        let class = size_class(len).expect("requests fit a class");
        if let Some(payload) = self.freed[class].pop_first() {
            return Ok(PPtr::from_offset(payload));
        }
        let block = Self::HEADER + class_size(class) as u64;
        let run_bytes = match block {
            b if b <= Self::RUN => Self::RUN,
            b => b.div_ceil(Self::PAGE) * Self::PAGE,
        };
        let (cursor, end) = &mut self.runs[class];
        if *cursor == 0 || *cursor + block > *end {
            if self.bump + run_bytes > self.region_len {
                return Err(PHeapError::OutOfMemory);
            }
            (*cursor, *end) = (self.bump, self.bump + run_bytes);
            self.bump += run_bytes;
        }
        *cursor += block;
        Ok(PPtr::from_offset(*cursor - block + Self::HEADER))
    }

    fn free(&mut self, ptr: PPtr, len: usize) {
        let class = size_class(len).expect("allocated");
        assert!(self.freed[class].insert(ptr.offset()), "{ptr} freed twice");
    }
}

/// A store that can lose power and come back.
trait Store: NvHeap + Sized {
    fn power_cycle(&mut self);

    fn reopened(heap: PHeap<Self>) -> PHeap<Self> {
        let region = heap.region();
        let mut nv = heap.into_inner();
        nv.power_cycle();
        PHeap::open(nv, region).expect("the image the heap left behind opens")
    }
}

impl Store for Viyojit {
    fn power_cycle(&mut self) {
        self.power_failure();
        self.recover();
    }
}

impl Store for NvdramBaseline {
    fn power_cycle(&mut self) {
        self.power_failure();
        self.recover();
    }
}

/// An operation with its target resolved, so that three heaps can take it.
#[derive(Debug, Clone, Copy)]
enum Step {
    Alloc { len: usize, fill: u8 },
    Free(PPtr),
    Rewrite { ptr: PPtr, len: usize, fill: u8 },
}

fn take<H: NvHeap>(heap: &mut PHeap<H>, step: Step) -> Result<Option<PPtr>, PHeapError> {
    match step {
        Step::Alloc { len, fill } => {
            let ptr = heap.alloc(len)?;
            heap.write(ptr, 0, &vec![fill; len])?;
            Ok(Some(ptr))
        }
        Step::Free(ptr) => heap.free(ptr).map(|()| None),
        Step::Rewrite { ptr, len, fill } => heap.write(ptr, 0, &vec![fill; len]).map(|()| None),
    }
}

/// The usable size the block header eight bytes below `ptr` records, if
/// it marks the block live: what the allocator read before every access
/// when it kept no volatile state. Read around the allocator.
fn header_says<H: NvHeap>(heap: &mut PHeap<H>, ptr: PPtr) -> Option<usize> {
    let region = heap.region();
    let mut word = [0u8; 8];
    heap.heap_mut()
        .read(region, ptr.offset() - 8, &mut word)
        .expect("a pointer once handed out stays inside the region");
    let header = u64::from_le_bytes(word);
    (header >> 63 == 1).then(|| class_size((header & 0xFF) as usize))
}

/// The volatile answer for every pointer ever handed out is the header's
/// and the model's, its neighbours inside the block are no pointers, and
/// every live allocation reads back what was last written to it.
fn audit<H: NvHeap>(
    heap: &mut PHeap<H>,
    ever: &BTreeSet<PPtr>,
    model: &HashMap<PPtr, (usize, u8)>,
) {
    for &ptr in ever {
        let volatile = heap.usable_size(ptr).ok();
        let modelled = model
            .get(&ptr)
            .map(|&(len, _)| class_size(size_class(len).expect("allocated")));
        assert_eq!(
            volatile,
            header_says(heap, ptr),
            "{} against its header",
            ptr
        );
        assert_eq!(volatile, modelled, "{} against the model", ptr);
        // The header, the second word (the smallest block has one) and,
        // of a live block, the middle.
        let middle = modelled.unwrap_or(16) as u64 / 2;
        for near in [ptr.offset() - 8, ptr.offset() + 8, ptr.offset() + middle] {
            let near = PPtr::from_offset(near);
            assert_eq!(
                heap.usable_size(near),
                Err(PHeapError::BadPointer),
                "{} beside {} is not a payload start",
                near,
                ptr
            );
        }
    }
    for (&ptr, &(len, fill)) in model {
        let mut buf = vec![0u8; len];
        heap.read(ptr, 0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == fill),
            "allocation {ptr} corrupted (expected fill {fill})"
        );
    }
}

const CASES: u32 = 32;

#[test]
fn allocator_matches_model_across_power_cycles() {
    check(
        "allocator_matches_model_across_power_cycles",
        CASES,
        |rng| {
            let ops = vec_of(rng, 1..80, gen_op);
            const REGION: u64 = 80 * 4096;
            let baseline =
                || NvdramBaseline::new(96, Clock::new(), CostModel::free(), SsdConfig::instant());
            let mut on_viyojit = PHeap::format(
                Viyojit::new(
                    96,
                    ViyojitConfig::with_budget_pages(8),
                    Clock::new(),
                    CostModel::free(),
                    SsdConfig::instant(),
                ),
                REGION,
            )
            .unwrap();
            let mut on_baseline = PHeap::format(baseline(), REGION).unwrap();
            // Never reopened: its maps are the ones `alloc` and `free` kept.
            let mut lived = PHeap::format(baseline(), REGION).unwrap();

            // Model: live pointer -> (requested len, fill byte).
            let mut model: HashMap<PPtr, (usize, u8)> = HashMap::new();
            let mut order: Vec<PPtr> = Vec::new();
            let mut ever: BTreeSet<PPtr> = BTreeSet::new();
            let mut placement = Placement::new(REGION);
            let (mut reuses, mut multi_page, mut reopens) = (0u32, 0u32, 0u32);

            for op in prologue().iter().chain(&ops) {
                let step = match *op {
                    Op::Alloc { len, fill } => Step::Alloc { len, fill },
                    Op::Free { .. } | Op::Rewrite { .. } if order.is_empty() => continue,
                    Op::Free { nth } => Step::Free(order.swap_remove(nth % order.len())),
                    Op::Rewrite { nth, fill } => {
                        let ptr = order[nth % order.len()];
                        Step::Rewrite {
                            ptr,
                            len: model[&ptr].0,
                            fill,
                        }
                    }
                    Op::PowerCycle => {
                        on_viyojit = Store::reopened(on_viyojit);
                        on_baseline = Store::reopened(on_baseline);
                        reopens += 1;
                        audit(&mut on_viyojit, &ever, &model);
                        audit(&mut on_baseline, &ever, &model);
                        continue;
                    }
                };
                let outcome = take(&mut lived, step);
                if let Step::Alloc { len, .. } = step {
                    assert_eq!(outcome, placement.alloc(len).map(Some), "{:?}", step);
                }
                assert_eq!(
                    take(&mut on_viyojit, step),
                    outcome,
                    "{:?} on Viyojit",
                    step
                );
                assert_eq!(
                    take(&mut on_baseline, step),
                    outcome,
                    "{:?} on the baseline",
                    step
                );
                match (step, outcome) {
                    (Step::Alloc { len, fill }, Ok(Some(ptr))) => {
                        assert!(
                            model.insert(ptr, (len, fill)).is_none(),
                            "allocator returned a live pointer twice"
                        );
                        order.push(ptr);
                        reuses += u32::from(!ever.insert(ptr));
                        multi_page += u32::from(len > 4096);
                    }
                    (Step::Alloc { .. }, Err(PHeapError::OutOfMemory)) => {}
                    (Step::Free(ptr), Ok(None)) => {
                        let (len, _) = model.remove(&ptr).expect("freed a live pointer");
                        placement.free(ptr, len);
                    }
                    (Step::Rewrite { ptr, len, fill }, Ok(None)) => {
                        model.insert(ptr, (len, fill));
                    }
                    (step, outcome) => panic!("{step:?}: {outcome:?}"),
                }
                audit(&mut lived, &ever, &model);
                audit(&mut on_viyojit, &ever, &model);
                audit(&mut on_baseline, &ever, &model);
            }

            for stats in [lived.stats(), on_viyojit.stats(), on_baseline.stats()] {
                let stats = stats.unwrap();
                assert_eq!(stats.live_allocs, model.len() as u64);
                assert_eq!(stats.bump, placement.bump);
            }
            assert!(
                reuses >= 1 && multi_page >= 1 && reopens >= 1,
                "vacuous case: {} reuses, {} multi-page blocks, {} reopens",
                reuses,
                multi_page,
                reopens
            );
        },
    );
}

#[test]
fn size_class_bounds_every_request() {
    check("size_class_bounds_every_request", CASES, |rng| {
        let len = int(rng, 1..=MAX_ALLOC as u64) as usize;
        let class = pheap::size_class(len).expect("within max");
        let size = pheap::class_size(class);
        assert!(size >= len, "class too small");
        assert!(size < len.max(16) * 2, "class wastes more than 2x");
    });
}
