//! The host memory behind an `Mmu`'s bytes follows the bytes written, not
//! the pages touched: 64 B at the start of every page of a 64 MiB region
//! map one half-page plane of it (32 MiB), where a flat layout maps all
//! 64 MiB. It reads the process's resident set from `/proc`, so it runs
//! on Linux only, in a test binary of its own.
#![cfg(target_os = "linux")]

use mem_sim::{Mmu, PageId, PAGE_SIZE};
use sim_clock::{Clock, CostModel};

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

#[test]
fn a_line_written_per_page_maps_a_plane_not_the_pages() {
    // 64 MiB is above glibc's largest dynamic mmap threshold (32 MiB), so
    // the zeroed bytes are always a fresh mapping, resident only where
    // written.
    const PAGES: usize = 16_384;
    let mut mmu = Mmu::new(PAGES, Clock::new(), CostModel::free());
    let before = rss_kib();
    for page in 0..PAGES as u64 {
        mmu.write(PageId(page).base_addr(), &[1; 64]).unwrap();
    }
    let grown_mib = rss_kib().saturating_sub(before) as f64 / 1024.0;
    let mut last = [0; PAGE_SIZE];
    mmu.peek(PageId(PAGES as u64 - 1).base_addr(), &mut last);
    assert_eq!((last[63], last[64]), (1, 0), "the writes landed");
    assert!(
        grown_mib <= 40.0,
        "64 B writes to {PAGES} pages grew the resident set by {grown_mib:.1} MiB"
    );
}
