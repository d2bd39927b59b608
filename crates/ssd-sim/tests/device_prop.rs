//! Property tests of the SSD device model: service time, queuing, and
//! wear accounting. The device keeps no bytes, so there is no content to
//! check here; the durable image is `mem-sim`'s.

use mem_sim::{PageId, PAGE_SIZE};
use propcheck::{check, int, vec_of};
use sim_clock::{Clock, SimDuration, SimTime};
use ssd_sim::{Ssd, SsdConfig};

const PAGES: usize = 32;

const CASES: u32 = 48;

#[test]
fn one_channel_charges_each_write_its_latency_and_payload() {
    check(
        "one_channel_charges_each_write_its_latency_and_payload",
        CASES,
        |rng| {
            let writes = vec_of(rng, 1..80, |rng| {
                (int(rng, 0..PAGES as u64), int(rng, 0..=PAGE_SIZE as u64))
            });
            let clock = Clock::new();
            let cfg = SsdConfig {
                channels: 1,
                ..SsdConfig::datacenter()
            };
            let mut ssd = Ssd::new(PAGES, cfg.clone(), clock.clone());
            // Submitted at one instant, the writes queue back to back.
            let mut free = SimTime::ZERO;
            let mut bytes = 0;
            for &(page, payload) in &writes {
                let done = ssd.submit_write_sized(PageId(page), payload as usize);
                free = free + cfg.write_latency + cfg.drain_time(payload);
                assert_eq!(done, free, "page {page}, {payload} B");
                bytes += payload;
            }
            let stats = ssd.stats();
            assert_eq!(stats.writes, writes.len() as u64);
            assert_eq!(stats.bytes_written, bytes);
            assert_eq!(ssd.wear().logical_bytes_written(), bytes);
            assert_eq!(ssd.outstanding(), writes.len());
        },
    );
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
