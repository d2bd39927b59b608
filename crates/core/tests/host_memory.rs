//! An engine's per-page host state follows the pages a run reaches, not
//! the capacity: a software-walk engine over 65 536 pages (256 MiB) that
//! maps and writes 16 of them, loses power and recovers holds well under
//! 0.5 MiB more than before it was built. Sized by capacity, the sector
//! masks and the update epochs alone write 2 MiB at construction. It reads
//! the process's resident set from `/proc`, so it runs on Linux only, in a
//! test binary of its own.
#![cfg(target_os = "linux")]

use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel};
use ssd_sim::SsdConfig;
use viyojit::{NvHeap, RegionId, Viyojit, ViyojitConfig};

const WRITTEN: usize = 16;

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

/// An engine over `pages` pages whose first `WRITTEN` pages were mapped,
/// written, lost to a power failure and recovered (recovery passes over
/// every page of the region).
fn written_and_recovered(pages: usize) -> (Viyojit, RegionId) {
    let mut nv = Viyojit::new(
        pages,
        ViyojitConfig::with_budget_pages(8),
        Clock::new(),
        CostModel::free(),
        SsdConfig::instant(),
    );
    let region = nv.map((WRITTEN * PAGE_SIZE) as u64).unwrap();
    for page in 0..WRITTEN {
        let offset = (page * PAGE_SIZE) as u64;
        nv.write(region, offset, &[page as u8 + 1; PAGE_SIZE])
            .unwrap();
    }
    nv.power_failure();
    nv.recover();
    (nv, region)
}

#[test]
fn sixteen_pages_written_of_65536_hold_per_page_state_for_few() {
    const PAGES: usize = 65_536;
    // The same run at the size it writes first, so the code it executes
    // is resident before the measured one starts.
    drop(written_and_recovered(WRITTEN));
    let before = rss_kib();
    let (nv, region) = written_and_recovered(PAGES);
    let grown_mib = rss_kib().saturating_sub(before) as f64 / 1024.0;
    let mut last = [0; PAGE_SIZE];
    nv.peek(region, ((WRITTEN - 1) * PAGE_SIZE) as u64, &mut last)
        .unwrap();
    assert_eq!(last, [WRITTEN as u8; PAGE_SIZE], "the writes survived");
    assert!(
        grown_mib <= 0.5,
        "{WRITTEN} pages written of {PAGES} grew the resident set by {grown_mib:.2} MiB"
    );
}
