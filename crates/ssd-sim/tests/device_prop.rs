//! Property tests of the SSD device model: content fidelity, timing
//! sanity, and wear accounting.

use mem_sim::{PageId, PAGE_SIZE};
use propcheck::{check, int, vec_of};
use sim_clock::{Clock, SimDuration, SimTime};
use ssd_sim::{Ssd, SsdConfig};

const PAGES: usize = 32;

const CASES: u32 = 48;

#[test]
fn latest_write_wins_per_page() {
    check("latest_write_wins_per_page", CASES, |rng| {
        let writes = vec_of(rng, 1..80, |rng| {
            (int(rng, 0..PAGES as u64), rng.next_u64() as u8)
        });
        let clock = Clock::new();
        let mut ssd = Ssd::new(PAGES, SsdConfig::datacenter(), clock.clone());
        let mut last = std::collections::HashMap::new();
        for &(page, fill) in &writes {
            ssd.submit_write(PageId(page), &vec![fill; PAGE_SIZE]);
            last.insert(page, fill);
        }
        for (&page, &fill) in &last {
            assert_eq!(
                ssd.page_data(PageId(page)).expect("written page"),
                &vec![fill; PAGE_SIZE][..]
            );
        }
        assert_eq!(ssd.stats().writes, writes.len() as u64);
    });
}

#[test]
fn completions_are_never_before_submission_and_respect_latency() {
    check(
        "completions_are_never_before_submission_and_respect_latency",
        CASES,
        |rng| {
            let pages = vec_of(rng, 1..40, |rng| int(rng, 0..PAGES as u64));
            let advance_us = int(rng, 0..500);
            let clock = Clock::new();
            let cfg = SsdConfig::datacenter();
            let latency = cfg.write_latency;
            let mut ssd = Ssd::new(PAGES, cfg, clock.clone());
            for &page in &pages {
                clock.advance(SimDuration::from_micros(advance_us));
                let submitted = clock.now();
                let done = ssd.submit_write(PageId(page), &vec![1u8; PAGE_SIZE]);
                assert!(
                    done >= submitted + latency,
                    "completion {done} earlier than latency allows"
                );
            }
        },
    );
}

#[test]
fn outstanding_never_exceeds_submissions_and_drains_to_zero() {
    check(
        "outstanding_never_exceeds_submissions_and_drains_to_zero",
        CASES,
        |rng| {
            let pages = vec_of(rng, 1..40, |rng| int(rng, 0..PAGES as u64));
            let clock = Clock::new();
            let mut ssd = Ssd::new(PAGES, SsdConfig::datacenter(), clock.clone());
            let mut latest = SimTime::ZERO;
            for &page in &pages {
                let done = ssd.submit_write(PageId(page), &vec![1u8; PAGE_SIZE]);
                latest = latest.max(done);
                assert!(ssd.outstanding() <= pages.len());
            }
            clock.advance_to(latest);
            assert_eq!(ssd.outstanding(), 0);
        },
    );
}

#[test]
fn wear_is_conserved() {
    check("wear_is_conserved", CASES, |rng| {
        let writes = vec_of(rng, 1..100, |rng| int(rng, 0..PAGES as u64));
        let clock = Clock::new();
        let mut ssd = Ssd::new(PAGES, SsdConfig::datacenter(), clock);
        for &page in &writes {
            ssd.submit_write(PageId(page), &vec![0u8; PAGE_SIZE]);
        }
        let wear = ssd.wear();
        assert_eq!(
            wear.logical_bytes_written(),
            writes.len() as u64 * PAGE_SIZE as u64
        );
        assert!(wear.physical_bytes_written() >= wear.logical_bytes_written());
        assert!(wear.max_block_erases() <= wear.total_erases());
    });
}
