//! Property tests of the MMU model: memory behaves like flat bytes, write
//! protection is exact, the hardware dirty counter never diverges from
//! the page-table ground truth, pages past the highest one written read as
//! never written, and an attached profiler changes how an access is
//! charged (and keeps a one-plane read in the chunking loop) but nothing
//! it charges or returns.

use mem_sim::{AccessError, Bitmap2L, Mmu, PageId, WalkOptions, PAGE_SIZE};
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SplitMix64};
use telemetry::Profiler;

const PAGES: usize = 16;

#[derive(Debug)]
enum Op {
    Write { addr: u64, len: u16, fill: u8 },
    Read { addr: u64, len: u16 },
    Protect { page: u8 },
    Unprotect { page: u8 },
    WalkExact,
    WalkStale,
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    let max_addr = (PAGES * PAGE_SIZE) as u64 - 256;
    match weighted(rng, &[4, 3, 1, 1, 1, 1]) {
        0 => Op::Write {
            addr: int(rng, 0..max_addr),
            len: int(rng, 1..=255) as u16,
            fill: rng.next_u64() as u8,
        },
        1 => Op::Read {
            addr: int(rng, 0..max_addr),
            len: int(rng, 1..=255) as u16,
        },
        2 => Op::Protect {
            page: int(rng, 0..PAGES as u64) as u8,
        },
        3 => Op::Unprotect {
            page: int(rng, 0..PAGES as u64) as u8,
        },
        4 => Op::WalkExact,
        _ => Op::WalkStale,
    }
}

/// Reads on each side of a page edge, which `Mmu::read`'s one-plane path
/// must not cross: inside a page, ending on a page's last byte, one byte
/// longer than that, and running on into the next page or the one after.
fn gen_read_shape(rng: &mut SplitMix64) -> Op {
    const PAGE: u64 = PAGE_SIZE as u64;
    // The longest read starts on `page` and ends on `page + 2`.
    let page = int(rng, 0..PAGES as u64 - 2);
    let (before, len) = match int(rng, 0..4) {
        0 => {
            let at = int(rng, 0..PAGE);
            (PAGE - at, int(rng, 1..=PAGE).min(PAGE - at))
        }
        1 => {
            let len = int(rng, 1..=PAGE);
            (len, len)
        }
        2 => {
            let before = int(rng, 1..=300);
            (before, before + 1)
        }
        _ => {
            let before = int(rng, 1..=300);
            (before, before + int(rng, 1..=PAGE + 100))
        }
    };
    Op::Read {
        addr: (page + 1) * PAGE - before,
        len: len as u16,
    }
}

/// The finest width the planes of `Mmu`'s memory may take: the undo
/// log's eighth of a page. Every plane edge of a width it divides is one
/// of its multiples, so the shapes below land on the layout's edges.
const EDGE: u64 = 512;

/// Accesses at the edges of the planes `Mmu`'s memory is laid out in:
/// ending on a plane's last byte, ending one byte past it, spanning three
/// or more planes, and whole pages. A write is clamped to its page where
/// it is applied; a read runs on into the next pages.
fn gen_plane_shape(rng: &mut SplitMix64) -> Op {
    const PAGE: u64 = PAGE_SIZE as u64;
    let (start, len) = match int(rng, 0..4) {
        0 => {
            let end = int(rng, 1..=PAGE / EDGE) * EDGE;
            let len = int(rng, 1..=end);
            (end - len, len)
        }
        1 => {
            let end = int(rng, 1..=PAGE / EDGE) * EDGE + 1;
            let len = int(rng, 2..=end);
            (end - len, len)
        }
        // Longer than a page: three planes or more, at any width up to
        // half a page.
        2 => (int(rng, 0..PAGE), int(rng, PAGE + 1..=2 * PAGE)),
        _ => (0, PAGE),
    };
    // A read may end two pages on, so it never starts in the last two.
    let addr = int(rng, 0..PAGES as u64 - 2) * PAGE + start;
    let len = len as u16;
    if rng.chance(0.5) {
        Op::Write {
            addr,
            len,
            fill: rng.next_u64() as u8,
        }
    } else {
        Op::Read { addr, len }
    }
}

const CASES: u32 = 64;

/// Memory reads back what was written, as flat bytes would, through the
/// plane-major layout's edges; bytes no write reached read as zeroes,
/// which a read and a peek of the whole region check last.
#[test]
fn memory_matches_model_and_protection_is_exact() {
    check(
        "memory_matches_model_and_protection_is_exact",
        CASES,
        |rng| {
            let ops = vec_of(rng, 1..150, |rng| {
                if rng.chance(0.5) {
                    gen_op(rng)
                } else {
                    gen_plane_shape(rng)
                }
            });
            let mut mmu = Mmu::new(PAGES, Clock::new(), CostModel::calibrated());
            let mut model = vec![0u8; PAGES * PAGE_SIZE];
            let mut protected = [false; PAGES];
            let all_pages: Vec<PageId> = (0..PAGES as u64).map(PageId).collect();

            for op in &ops {
                match *op {
                    Op::Write { addr, len, fill } => {
                        // Clamp the chunk to its page, like the NV region layer.
                        let in_page = PAGE_SIZE - (addr as usize % PAGE_SIZE);
                        let n = (len as usize).min(in_page);
                        let data = vec![fill; n];
                        let page = PageId::containing(addr);
                        match mmu.write(addr, &data) {
                            Ok(()) => {
                                assert!(
                                    !protected[page.index()],
                                    "write through protection succeeded"
                                );
                                model[addr as usize..addr as usize + n].fill(fill);
                            }
                            Err(AccessError::WriteProtected(p)) => {
                                assert_eq!(p, page);
                                assert!(protected[page.index()], "spurious fault on writable page");
                            }
                            Err(e) => panic!("write: {e}"),
                        }
                    }
                    Op::Read { addr, len } => {
                        let mut buf = vec![0u8; len as usize];
                        mmu.read(addr, &mut buf).unwrap();
                        assert_eq!(
                            &buf[..],
                            &model[addr as usize..addr as usize + len as usize]
                        );
                    }
                    Op::Protect { page } => {
                        mmu.protect_page(PageId(page as u64));
                        protected[page as usize] = true;
                    }
                    Op::Unprotect { page } => {
                        mmu.unprotect_page(PageId(page as u64));
                        protected[page as usize] = false;
                    }
                    Op::WalkExact => {
                        let _ = mmu.walk_and_clear_dirty(&all_pages, WalkOptions::exact());
                    }
                    Op::WalkStale => {
                        let _ = mmu.walk_and_clear_dirty(&all_pages, WalkOptions::stale());
                    }
                }
            }
            let mut all = vec![0u8; PAGES * PAGE_SIZE];
            mmu.read(0, &mut all).unwrap();
            assert!(all == model, "memory is not the bytes written");
            all.fill(0xA5);
            mmu.peek(0, &mut all);
            assert!(all == model, "a peek is not the bytes written");
        },
    );
}

/// The `Mmu` keeps per-page state only up to the highest page written, so
/// a page past that prefix must read as one never written: zero bytes
/// through `read` and `peek`, no sector mask, not held, its zero image
/// matched and nothing to restore, and no undo violation anywhere. Half
/// the cases write the highest page first, so the prefix is the whole
/// region at once; pages are handed over as they go, so held pages sit
/// beside pages never reached.
#[test]
fn pages_never_written_read_as_new_whichever_page_comes_first() {
    check(
        "pages_never_written_read_as_new_whichever_page_comes_first",
        CASES,
        |rng| {
            let first = if rng.chance(0.5) {
                PAGES as u64 - 1
            } else {
                int(rng, 0..PAGES as u64)
            };
            let mut pages = vec![first];
            pages.extend(vec_of(rng, 0..12, |rng| int(rng, 0..PAGES as u64)));
            let mut mmu = Mmu::new(PAGES, Clock::new(), CostModel::calibrated());
            let mut written = [false; PAGES];
            for &page in &pages {
                let page = PageId(page);
                let offset = int(rng, 0..PAGE_SIZE as u64);
                let len = int(rng, 1..=PAGE_SIZE as u64 - offset) as usize;
                mmu.write(page.base_addr() + offset, &vec![0xC3; len])
                    .unwrap();
                written[page.index()] = true;
                if rng.chance(0.5) {
                    mmu.take_unsynced(page);
                }
                assert_eq!(mmu.undo_violation(&Bitmap2L::new(PAGES)), None);
                for never in (0..PAGES as u64)
                    .map(PageId)
                    .filter(|p| !written[p.index()])
                {
                    let mut bytes = vec![0xA5; PAGE_SIZE];
                    mmu.peek(never.base_addr(), &mut bytes);
                    assert!(bytes.iter().all(|&b| b == 0), "a peek of {never}");
                    bytes.fill(0xA5);
                    mmu.read(never.base_addr(), &mut bytes).unwrap();
                    assert!(bytes.iter().all(|&b| b == 0), "a read of {never}");
                    assert_eq!(mmu.sector_mask(never), 0, "{never}");
                    assert!(!mmu.is_held(never), "{never} reads as held");
                    assert!(mmu.matches_durable(never), "{never}");
                    assert_eq!(mmu.durable_page(never), None, "{never}");
                    assert_eq!(mmu.restore_durable(never), 0, "{never}");
                }
            }
        },
    );
}

#[test]
fn exact_walks_never_lose_dirty_pages() {
    check("exact_walks_never_lose_dirty_pages", CASES, |rng| {
        let writes = vec_of(rng, 1..60, |rng| {
            (int(rng, 0..PAGES as u64), rng.next_u64() as u8)
        });
        // After any write sequence, an exact walk must report exactly the
        // set of pages written since the previous exact walk.
        let mut mmu = Mmu::new(PAGES, Clock::new(), CostModel::calibrated());
        let all_pages: Vec<PageId> = (0..PAGES as u64).map(PageId).collect();
        let _ = mmu.walk_and_clear_dirty(&all_pages, WalkOptions::exact());

        let mut written: std::collections::HashSet<u64> = Default::default();
        for &(page, fill) in &writes {
            mmu.write(page * PAGE_SIZE as u64, &[fill]).unwrap();
            written.insert(page);
        }
        let dirty: std::collections::HashSet<u64> = mmu
            .walk_and_clear_dirty(&all_pages, WalkOptions::exact())
            .into_iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(dirty, written);
    });
}

#[test]
fn hardware_counter_equals_pte_dirty_population() {
    check(
        "hardware_counter_equals_pte_dirty_population",
        CASES,
        |rng| {
            let writes = vec_of(rng, 1..100, |rng| int(rng, 0..PAGES as u64));
            let limit = int(rng, 1..=PAGES as u64);
            let credits = vec_of(rng, 0..20, |rng| int(rng, 0..PAGES as u64));
            let mut mmu = Mmu::new(PAGES, Clock::new(), CostModel::calibrated());
            mmu.set_dirty_limit(Some(limit));
            for &page in &writes {
                match mmu.write(page * PAGE_SIZE as u64, &[1]) {
                    Ok(()) => {}
                    Err(AccessError::DirtyLimitReached(_)) => {
                        assert_eq!(
                            mmu.dirty_counted(),
                            limit,
                            "interrupt must fire exactly at the limit"
                        );
                    }
                    Err(e) => panic!("write: {e}"),
                }
                assert!(mmu.dirty_counted() <= limit);
                assert_eq!(
                    mmu.dirty_counted(),
                    mmu.page_table().dirty_count() as u64,
                    "counter must track PTE ground truth"
                );
            }
            for &page in &credits {
                if mmu.page_table().flags(PageId(page)).is_dirty() {
                    mmu.credit_dirty_page(PageId(page));
                }
                assert_eq!(mmu.dirty_counted(), mmu.page_table().dirty_count() as u64);
            }
        },
    );
}

/// An access settles its costs with one clock charge when no profiler
/// is attached and class by class when one is, and a read that fits one
/// plane skips the chunking loop only while none is: the profiled `Mmu`
/// is the slow model of the plain one. The same stream — faults,
/// dirty-limit interrupts, and reads inside a plane or a page, up to
/// their last byte and across them — must return the same bytes and end
/// both ways on the same instant, counters and PTE bits, and the profiled
/// run must attribute every nanosecond it charged.
#[test]
fn profiled_and_unprofiled_accesses_charge_the_same() {
    check(
        "profiled_and_unprofiled_accesses_charge_the_same",
        CASES,
        |rng| {
            let ops = vec_of(rng, 1..150, |rng| match int(rng, 0..3) {
                0 => gen_op(rng),
                1 => gen_read_shape(rng),
                _ => gen_plane_shape(rng),
            });
            let limit = rng.chance(0.5).then(|| int(rng, 1..=PAGES as u64));
            let all_pages: Vec<PageId> = (0..PAGES as u64).map(PageId).collect();
            // Each op's outcome and, for a read, the bytes it returned.
            let drive = |mmu: &mut Mmu| -> Vec<(Result<(), AccessError>, Vec<u8>)> {
                mmu.set_dirty_limit(limit);
                ops.iter()
                    .map(|op| match *op {
                        Op::Write { addr, len, fill } => {
                            let in_page = PAGE_SIZE - (addr as usize % PAGE_SIZE);
                            (
                                mmu.write(addr, &vec![fill; (len as usize).min(in_page)]),
                                Vec::new(),
                            )
                        }
                        Op::Read { addr, len } => {
                            let mut buf = vec![0u8; len as usize];
                            (mmu.read(addr, &mut buf), buf)
                        }
                        Op::Protect { page } => {
                            mmu.protect_page(PageId(page as u64));
                            (Ok(()), Vec::new())
                        }
                        Op::Unprotect { page } => {
                            mmu.unprotect_page(PageId(page as u64));
                            (Ok(()), Vec::new())
                        }
                        Op::WalkExact => {
                            mmu.walk_and_clear_dirty(&all_pages, WalkOptions::exact_foreground());
                            (Ok(()), Vec::new())
                        }
                        Op::WalkStale => {
                            mmu.walk_and_clear_dirty(&all_pages, WalkOptions::stale());
                            (Ok(()), Vec::new())
                        }
                    })
                    .collect()
            };
            let mut plain = Mmu::new(PAGES, Clock::new(), CostModel::calibrated());
            let clock = Clock::new();
            let mut profiled = Mmu::new(PAGES, clock.clone(), CostModel::calibrated());
            let profiler = Profiler::enabled(clock);
            profiled.attach_profiler(profiler.clone());

            assert_eq!(drive(&mut plain), drive(&mut profiled));
            assert_eq!(plain.clock().now(), profiled.clock().now());
            assert_eq!(plain.stats(), profiled.stats());
            assert_eq!(plain.tlb_stats(), profiled.tlb_stats());
            assert_eq!(plain.dirty_counted(), profiled.dirty_counted());
            for &page in &all_pages {
                assert_eq!(
                    plain.page_table().flags(page),
                    profiled.page_table().flags(page),
                    "PTE bits of {} diverged",
                    page
                );
            }
            let report = profiler.report().expect("the profiler is enabled");
            assert!(report.is_conserved());
            assert_eq!(report.elapsed.as_nanos(), profiled.clock().now().as_nanos());
        },
    );
}
