//! The host memory behind an `Mmu`'s bytes follows the sectors written,
//! not the pages touched: 64 B at the start of every page of a 64 MiB
//! region hold those sectors packed (~1.5 MiB with the per-page state),
//! where flat frames map all 64 MiB; and pages written whole hold their
//! frames and nothing more. It reads the process's resident set from
//! `/proc`, so it runs on Linux only, in a test binary of its own, one
//! test at a time.
#![cfg(target_os = "linux")]

use std::sync::Mutex;

use mem_sim::{Mmu, PageId, PAGE_SIZE};
use sim_clock::{Clock, CostModel};

/// Held by each test while it measures, so that no other one's memory
/// moves the resident set under it.
static ALONE: Mutex<()> = Mutex::new(());

/// The process's resident set, in KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmRSS line in kB")
}

/// How far `write` grows the resident set of an `Mmu` over `pages`
/// pages, in MiB, and the `Mmu` it leaves. The `Mmu` is never dropped:
/// memory it freed would be resident already when the next test's
/// allocations reuse it, and would hide their growth.
fn grown_mib(pages: usize, write: impl FnOnce(&mut Mmu)) -> (f64, &'static Mmu) {
    let _alone = ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mmu = Box::leak(Box::new(Mmu::new(pages, Clock::new(), CostModel::free())));
    let before = rss_kib();
    write(mmu);
    let grown = rss_kib().saturating_sub(before) as f64 / 1024.0;
    (grown, mmu)
}

#[test]
fn a_line_written_per_page_maps_its_sectors_not_the_pages() {
    // The zeroed frames are a fresh mapping, resident only where written.
    const PAGES: usize = 16_384;
    let (grown, mmu) = grown_mib(PAGES, |mmu| {
        for page in 0..PAGES as u64 {
            mmu.write(PageId(page).base_addr(), &[1; 64]).unwrap();
        }
    });
    let mut last = [0; PAGE_SIZE];
    mmu.peek(PageId(PAGES as u64 - 1).base_addr(), &mut last);
    assert_eq!((last[63], last[64]), (1, 0), "the writes landed");
    assert!(
        grown <= 4.0,
        "64 B writes to {PAGES} pages grew the resident set by {grown:.1} MiB"
    );
}

#[test]
fn pages_written_whole_hold_their_frames_and_no_second_copy() {
    // Each page is written a line at a time, so it is packed until its
    // ninth line and then moved to its frame.
    const PAGES: usize = 4_096;
    let (grown, mmu) = grown_mib(PAGES, |mmu| {
        for page in 0..PAGES as u64 {
            for line in 0..PAGE_SIZE as u64 / 64 {
                mmu.write(PageId(page).base_addr() + line * 64, &[2; 64])
                    .unwrap();
            }
        }
    });
    let mut last = [0; PAGE_SIZE];
    mmu.peek(PageId(PAGES as u64 - 1).base_addr(), &mut last);
    assert_eq!(last, [2; PAGE_SIZE], "the writes landed");
    assert!(
        grown <= 17.0,
        "{PAGES} pages written whole ({} MiB) grew the resident set by {grown:.1} MiB",
        (PAGES * PAGE_SIZE) >> 20
    );
}
