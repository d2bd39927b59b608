//! Property tests of the MMU model: memory and the device image behave
//! like flat bytes whether a page is packed or flat, write protection is
//! exact, the hardware dirty counter never diverges from the page-table
//! ground truth, pages past the highest one written read as never
//! written, and an attached profiler changes how an access is charged
//! (and keeps a one-page read in the chunking loop) but nothing it
//! charges or returns.

use mem_sim::{AccessError, Bitmap2L, Mmu, PageId, WalkOptions, PAGE_SIZE};
use propcheck::{check, int, vec_of, weighted};
use sim_clock::{Clock, CostModel, SplitMix64};
use telemetry::Profiler;

const PAGES: usize = 16;

#[derive(Debug, Clone, Copy)]
enum Op {
    Write {
        addr: u64,
        len: u16,
        fill: u8,
    },
    Read {
        addr: u64,
        len: u16,
    },
    Peek {
        addr: u64,
        len: u16,
    },
    Protect {
        page: u8,
    },
    Unprotect {
        page: u8,
    },
    WalkExact,
    WalkStale,
    /// `take_unsynced`: the page's memory becomes its device image.
    HandOver {
        page: u8,
    },
    /// `restore_durable`: the device image is laid back over memory.
    Restore {
        page: u8,
    },
    /// `durable_page` and `matches_durable` are read.
    Image {
        page: u8,
    },
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

/// Reads on each side of a page edge, which `Mmu::read`'s one-page path
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

/// The sectors of each page written so far, as the shape generator below
/// counts them: every sector a generated write touches, whether or not
/// the write faults on a protected page.
type Written = [u64; PAGES];

/// The most sectors a page keeps packed: the write that would make a
/// ninth resident moves it to its flat frame.
const SPARSE: u32 = 8;

const SECTOR: u64 = 64;

/// The sectors bytes `addr..addr + len` of one page touch, for
/// [`Written`]; a write is clamped to its page as it is applied.
fn note(written: &mut Written, op: &Op) {
    if let Op::Write { addr, len, .. } = *op {
        let page = PageId::containing(addr);
        let (at, len) = (addr % PAGE_SIZE as u64, len as u64);
        let end = (at + len).min(PAGE_SIZE as u64);
        for sector in at / SECTOR..end.div_ceil(SECTOR) {
            written[page.index()] |= 1 << sector;
        }
    }
}

/// One of `mask`'s sectors, any of them equally likely.
fn pick(rng: &mut SplitMix64, mask: u64) -> u64 {
    let nth = int(rng, 0..mask.count_ones() as u64) as usize;
    (0..64)
        .filter(|s| mask >> s & 1 == 1)
        .nth(nth)
        .expect("a set bit")
}

/// A write of 1 to `longest` bytes inside one sector of `page` not
/// written before, if it has one: the rest of the sector must read as
/// zeroes.
fn new_sector_write(
    rng: &mut SplitMix64,
    page: usize,
    written: &mut Written,
    longest: u64,
) -> Option<Op> {
    let unwritten = !written[page];
    if unwritten == 0 {
        return None;
    }
    let sector = pick(rng, unwritten);
    let len = int(rng, 1..=longest);
    let at = int(rng, 0..=SECTOR - len);
    let op = Op::Write {
        addr: PageId(page as u64).base_addr() + sector * SECTOR + at,
        len: len as u16,
        fill: rng.next_u64() as u8,
    };
    note(written, &op);
    Some(op)
}

/// Accesses at the edges of the store behind `Mmu`'s memory, in which a
/// page holds only the sectors written to it, packed, until a ninth would
/// be, and from then on its flat frame:
/// - writes that bring a page to exactly eight sectors and then nine,
///   reading the whole page at each;
/// - writes shorter than a sector into a sector not written before,
///   whose rest must read as zeroes;
/// - reads and peeks from a written sector of a packed page into one
///   never written, or the other way;
/// - hand-overs, restores and reads of the device image of packed pages,
///   and of pages promoted to their frame since their hand-over.
fn gen_store_shape(rng: &mut SplitMix64, written: &mut Written) -> Vec<Op> {
    const PAGE: u64 = PAGE_SIZE as u64;
    let sparse: Vec<usize> = (0..PAGES)
        .filter(|&p| written[p].count_ones() <= SPARSE)
        .collect();
    let page = if sparse.is_empty() || rng.chance(0.1) {
        int(rng, 0..PAGES as u64) as usize
    } else {
        sparse[int(rng, 0..sparse.len() as u64) as usize]
    };
    let base = PageId(page as u64).base_addr();
    let whole = Op::Read {
        addr: base,
        len: PAGE as u16,
    };
    let mut ops = Vec::new();
    match int(rng, 0..4) {
        0 => {
            while written[page].count_ones() < SPARSE {
                ops.extend(new_sector_write(rng, page, written, SECTOR));
            }
            ops.push(whole);
            ops.extend(new_sector_write(rng, page, written, SECTOR));
            ops.push(whole);
        }
        1 => {
            if let Some(write) = new_sector_write(rng, page, written, SECTOR - 1) {
                let Op::Write { addr, .. } = write else {
                    unreachable!("a write")
                };
                // The sector and its neighbours inside the page.
                let sector = addr - addr % SECTOR;
                let from = sector.saturating_sub(SECTOR).max(base);
                let to = (sector + 2 * SECTOR).min(base + PAGE);
                ops.push(write);
                ops.push(Op::Read {
                    addr: from,
                    len: (to - from) as u16,
                });
            }
        }
        2 => {
            if written[page] == 0 {
                ops.extend(new_sector_write(rng, page, written, SECTOR));
            }
            let (set, unset) = (written[page], !written[page]);
            if set != 0 && unset != 0 {
                let (a, b) = (pick(rng, set), pick(rng, unset));
                let (lo, hi) = (a.min(b), a.max(b));
                let addr = base + lo * SECTOR + int(rng, 0..SECTOR);
                let end = base + hi * SECTOR + int(rng, 1..=SECTOR);
                let len = (end - addr) as u16;
                ops.push(if rng.chance(0.5) {
                    Op::Read { addr, len }
                } else {
                    Op::Peek { addr, len }
                });
            }
        }
        _ => {
            let page_u8 = page as u8;
            ops.push(Op::HandOver { page: page_u8 });
            for _ in 0..int(rng, 1..=3) {
                let rewrite = written[page] != 0 && rng.chance(0.5);
                if rewrite {
                    let sector = pick(rng, written[page]);
                    ops.push(Op::Write {
                        addr: base + sector * SECTOR + int(rng, 0..SECTOR / 2),
                        len: int(rng, 1..=SECTOR / 2) as u16,
                        fill: rng.next_u64() as u8,
                    });
                } else {
                    ops.extend(new_sector_write(rng, page, written, SECTOR));
                }
            }
            ops.push(Op::Image { page: page_u8 });
            if rng.chance(0.5) {
                // Promoted since the hand-over.
                while written[page].count_ones() <= SPARSE {
                    ops.extend(new_sector_write(rng, page, written, SECTOR));
                }
                ops.push(Op::Image { page: page_u8 });
            }
            ops.push(if rng.chance(0.5) {
                Op::Restore { page: page_u8 }
            } else {
                Op::HandOver { page: page_u8 }
            });
            ops.push(Op::Image { page: page_u8 });
        }
    }
    ops
}

/// An op stream mixing `gen_op`'s with the store's shapes, `Written`
/// kept across both.
fn gen_ops(rng: &mut SplitMix64, extra: fn(&mut SplitMix64) -> Op) -> Vec<Op> {
    let mut written = [0; PAGES];
    let groups = vec_of(rng, 1..100, |rng| {
        let op = match int(rng, 0..3) {
            0 => gen_op(rng),
            1 => extra(rng),
            _ => return gen_store_shape(rng, &mut written),
        };
        note(&mut written, &op);
        vec![op]
    });
    groups.into_iter().flatten().collect()
}

const CASES: u32 = 64;

/// Memory reads back what was written, as flat bytes would, and the
/// device image is the bytes of the last hand-over, or zeroes before one,
/// through the store's edges: pages packed at eight sectors and flat at
/// nine, sectors new to a page, accesses across written and unwritten
/// sectors, and hand-overs and restores on either side of a promotion.
/// The store's invariant holds after every op, and bytes no write reached
/// read as zeroes, which a read and a peek of the whole region check last.
#[test]
fn memory_matches_model_and_protection_is_exact() {
    check(
        "memory_matches_model_and_protection_is_exact",
        CASES,
        |rng| {
            let ops = gen_ops(rng, gen_op);
            let mut mmu = Mmu::new(PAGES, Clock::new(), CostModel::calibrated());
            let mut model = vec![0u8; PAGES * PAGE_SIZE];
            // Each page's device image: `None` before its first hand-over.
            let mut durable: Vec<Option<Vec<u8>>> = vec![None; PAGES];
            let mut protected = [false; PAGES];
            let all_pages: Vec<PageId> = (0..PAGES as u64).map(PageId).collect();
            let bytes = |page: u8| page as usize * PAGE_SIZE..(page as usize + 1) * PAGE_SIZE;

            for (step, op) in ops.iter().enumerate() {
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
                        let mut buf = vec![0xA5; len as usize];
                        mmu.read(addr, &mut buf).unwrap();
                        assert_eq!(
                            &buf[..],
                            &model[addr as usize..addr as usize + len as usize],
                            "step {step}: {op:?}"
                        );
                    }
                    Op::Peek { addr, len } => {
                        let mut buf = vec![0xA5; len as usize];
                        mmu.peek(addr, &mut buf);
                        assert_eq!(
                            &buf[..],
                            &model[addr as usize..addr as usize + len as usize],
                            "step {step}: {op:?}"
                        );
                    }
                    Op::HandOver { page } => {
                        mmu.take_unsynced(PageId(page as u64));
                        durable[page as usize] = Some(model[bytes(page)].to_vec());
                    }
                    Op::Restore { page } => {
                        mmu.restore_durable(PageId(page as u64));
                        match &durable[page as usize] {
                            Some(image) => model[bytes(page)].copy_from_slice(image),
                            None => model[bytes(page)].fill(0),
                        }
                    }
                    Op::Image { page } => {
                        let image = &durable[page as usize];
                        let id = PageId(page as u64);
                        assert_eq!(&mmu.durable_page(id), image, "step {step}: {op:?}");
                        let zeroes = [0; PAGE_SIZE];
                        let image = image.as_deref().unwrap_or(&zeroes);
                        assert_eq!(
                            mmu.matches_durable(id),
                            model[bytes(page)] == *image,
                            "step {step}: {op:?}"
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
                assert_eq!(
                    mmu.undo_violation(&Bitmap2L::new(PAGES)),
                    None,
                    "step {step}: {op:?}"
                );
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
/// is attached and class by class when one is, and a read inside one
/// page skips the chunking loop only while none is: the profiled `Mmu`
/// is the slow model of the plain one. The same stream — faults,
/// dirty-limit interrupts, reads inside a page, up to its last byte and
/// across it, and the store's shapes, which read packed and untouched
/// pages as well as flat ones — must return the same bytes and images
/// and end both ways on the same instant, counters and PTE bits, and the
/// profiled run must attribute every nanosecond it charged.
#[test]
fn profiled_and_unprofiled_accesses_charge_the_same() {
    check(
        "profiled_and_unprofiled_accesses_charge_the_same",
        CASES,
        |rng| {
            let ops = gen_ops(rng, gen_read_shape);
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
                        Op::Peek { addr, len } => {
                            let mut buf = vec![0u8; len as usize];
                            mmu.peek(addr, &mut buf);
                            (Ok(()), buf)
                        }
                        Op::HandOver { page } => {
                            let unsynced = mmu.take_unsynced(PageId(page as u64));
                            (Ok(()), unsynced.to_le_bytes().to_vec())
                        }
                        Op::Restore { page } => {
                            let lost = mmu.restore_durable(PageId(page as u64));
                            (Ok(()), lost.to_le_bytes().to_vec())
                        }
                        Op::Image { page } => {
                            let page = PageId(page as u64);
                            let mut image = mmu.durable_page(page).unwrap_or_default();
                            image.push(mmu.matches_durable(page) as u8);
                            (Ok(()), image)
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
