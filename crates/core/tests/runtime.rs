//! Integration tests of the Viyojit runtime: the Fig. 6 fault flow, budget
//! enforcement, proactive copying, power failure, and recovery.

use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel, SimDuration};
use ssd_sim::SsdConfig;
use viyojit::{NvHeap, Telemetry, TraceEvent, Viyojit, ViyojitConfig, ViyojitError};

const PAGE: u64 = PAGE_SIZE as u64;

fn viyojit(total_pages: usize, budget: u64) -> Viyojit {
    Viyojit::new(
        total_pages,
        ViyojitConfig::with_budget_pages(budget),
        Clock::new(),
        CostModel::free(),
        SsdConfig::instant(),
    )
}

/// A Viyojit with realistic time so stalls and epochs actually occur.
fn viyojit_timed(total_pages: usize, budget: u64) -> Viyojit {
    Viyojit::new(
        total_pages,
        ViyojitConfig::with_budget_pages(budget),
        Clock::new(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    )
}

#[test]
fn first_write_faults_and_subsequent_writes_do_not() {
    let mut v = viyojit(16, 8);
    let r = v.map(PAGE * 4).unwrap();
    v.write(r, 0, b"first").unwrap();
    let faults_after_first = v.stats().faults_handled;
    assert_eq!(faults_after_first, 1);
    v.write(r, 100, b"second to same page").unwrap();
    assert_eq!(
        v.stats().faults_handled,
        1,
        "no fault on already-dirty page"
    );
    v.write(r, PAGE, b"different page").unwrap();
    assert_eq!(v.stats().faults_handled, 2);
}

#[test]
fn write_read_round_trip_through_fault_path() {
    let mut v = viyojit(16, 4);
    let r = v.map(PAGE * 4).unwrap();
    let data: Vec<u8> = (0..=255).collect();
    v.write(r, 10, &data).unwrap();
    let mut buf = vec![0u8; 256];
    v.read(r, 10, &mut buf).unwrap();
    assert_eq!(buf, data);
}

#[test]
fn writes_spanning_pages_fault_per_page() {
    let mut v = viyojit(16, 8);
    let r = v.map(PAGE * 3).unwrap();
    let big = vec![0xCD; PAGE_SIZE * 2];
    v.write(r, PAGE / 2, &big).unwrap();
    assert_eq!(v.stats().pages_dirtied, 3, "write touched three pages");
    let mut buf = vec![0u8; PAGE_SIZE * 2];
    v.read(r, PAGE / 2, &mut buf).unwrap();
    assert_eq!(buf, big);
}

#[test]
fn dirty_count_never_exceeds_budget() {
    let budget = 4;
    let mut v = viyojit(64, budget);
    let r = v.map(PAGE * 32).unwrap();
    for i in 0..32u64 {
        v.write(r, i * PAGE, &[i as u8; 32]).unwrap();
        assert!(v.dirty_count() <= budget, "page {i}: {}", v.dirty_count());
        v.validate();
    }
    assert!(
        v.stats().forced_flushes > 0,
        "budget pressure forced flushes"
    );
}

#[test]
fn budget_of_one_still_makes_progress() {
    let mut v = viyojit(16, 1);
    let r = v.map(PAGE * 8).unwrap();
    for i in 0..8u64 {
        v.write(r, i * PAGE, &[1]).unwrap();
        v.validate();
    }
    // Every page readable with its data.
    for i in 0..8u64 {
        let mut b = [0u8];
        v.read(r, i * PAGE, &mut b).unwrap();
        assert_eq!(b[0], 1);
    }
}

#[test]
fn durable_state_stays_consistent_under_churn() {
    let mut v = viyojit(32, 4);
    let r = v.map(PAGE * 16).unwrap();
    for round in 0..8u8 {
        for i in 0..16u64 {
            v.write(r, i * PAGE + round as u64, &[round ^ i as u8])
                .unwrap();
        }
        assert!(v.durable_state_consistent(), "round {round}");
    }
}

#[test]
fn power_failure_flushes_at_most_budget_pages() {
    let budget = 3;
    let mut v = viyojit(32, budget);
    let r = v.map(PAGE * 16).unwrap();
    for i in 0..16u64 {
        v.write(r, i * PAGE, &[0xAA]).unwrap();
    }
    let report = v.power_failure();
    assert!(report.dirty_pages <= budget);
    assert_eq!(report.bytes_flushed, report.dirty_pages * PAGE);
}

#[test]
fn recovery_restores_every_byte() {
    let mut v = viyojit(32, 4);
    let r = v.map(PAGE * 12).unwrap();
    // A recognizable pattern across all pages, overwritten a few times.
    for round in 0..3u8 {
        for i in 0..12u64 {
            let fill = round.wrapping_mul(31).wrapping_add(i as u8);
            v.write(r, i * PAGE, &[fill; 128]).unwrap();
        }
    }
    let mut expect = vec![0u8; (PAGE * 12) as usize];
    v.read(r, 0, &mut expect).unwrap();

    v.power_failure();
    v.recover();
    v.validate();

    let mut got = vec![0u8; (PAGE * 12) as usize];
    v.read(r, 0, &mut got).unwrap();
    assert_eq!(got, expect, "post-recovery contents differ");
}

#[test]
fn recovery_of_untouched_pages_yields_zeroes() {
    let mut v = viyojit(8, 2);
    let r = v.map(PAGE * 4).unwrap();
    v.write(r, 0, b"only page zero").unwrap();
    v.power_failure();
    v.recover();
    let mut buf = vec![0u8; PAGE_SIZE];
    v.read(r, PAGE * 2, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0));
}

#[test]
fn writes_after_recovery_fault_again() {
    let mut v = viyojit(8, 2);
    let r = v.map(PAGE * 2).unwrap();
    v.write(r, 0, b"x").unwrap();
    let faults_before = v.stats().faults_handled;
    v.power_failure();
    v.recover();
    v.write(r, 0, b"y").unwrap();
    assert!(
        v.stats().faults_handled > faults_before,
        "recovered pages must be write-protected again"
    );
}

#[test]
fn epochs_and_proactive_copies_happen_with_real_time() {
    let mut v = viyojit_timed(64, 8);
    let r = v.map(PAGE * 32).unwrap();
    // Enough writes to cross many 1 ms epochs (each op costs ~tens of us).
    for round in 0..40u64 {
        for i in 0..8u64 {
            v.write(r, (i + (round % 4) * 8) * PAGE, &[round as u8; 64])
                .unwrap();
        }
        v.clock().advance(SimDuration::from_micros(200));
    }
    // Force one more poll via an access.
    v.write(r, 0, &[1]).unwrap();
    assert!(v.stats().epochs > 0, "epochs should have run");
    assert!(
        v.stats().proactive_flushes > 0,
        "pressure should have triggered proactive copies: {:?}",
        v.stats()
    );
    v.validate();
}

#[test]
fn lru_policy_flushes_cold_pages_not_hot_ones() {
    let mut v = viyojit_timed(64, 4);
    let r = v.map(PAGE * 16).unwrap();
    // Page 0 is hot; pages 1..=7 are written once (cold).
    for i in 0..8u64 {
        v.write(r, i * PAGE, &[1]).unwrap();
        v.clock().advance(SimDuration::from_millis(2)); // epoch passes
        v.write(r, 0, &[2]).unwrap(); // keep page 0 hot
    }
    // Page 0 should still be dirty (never selected as victim).
    let mut hot_still_dirty = false;
    for _ in 0..1 {
        // If page 0 were flushed, the next write would fault; count faults.
        let before = v.stats().faults_handled;
        v.write(r, 0, &[3]).unwrap();
        hot_still_dirty = v.stats().faults_handled == before;
    }
    assert!(hot_still_dirty, "LRU must not evict the hottest page");
}

#[test]
fn unmap_releases_budget_and_space() {
    let mut v = viyojit(16, 2);
    let r = v.map(PAGE * 2).unwrap();
    v.write(r, 0, b"a").unwrap();
    v.write(r, PAGE, b"b").unwrap();
    assert_eq!(v.dirty_count(), 2);
    v.unmap(r).unwrap();
    assert_eq!(v.dirty_count(), 0, "unmapped dirty pages stop counting");
    // Space is reusable.
    let r2 = v.map(PAGE * 16).unwrap();
    assert_eq!(v.region_len(r2).unwrap(), PAGE * 16);
    v.validate();
}

#[test]
fn dead_region_accesses_error() {
    let mut v = viyojit(8, 2);
    let r = v.map(PAGE).unwrap();
    v.unmap(r).unwrap();
    assert!(matches!(
        v.write(r, 0, b"x"),
        Err(ViyojitError::BadRegion(_))
    ));
    let mut buf = [0u8];
    assert!(matches!(
        v.read(r, 0, &mut buf),
        Err(ViyojitError::BadRegion(_))
    ));
}

#[test]
fn out_of_range_accesses_error() {
    let mut v = viyojit(8, 2);
    let r = v.map(100).unwrap();
    assert!(matches!(
        v.write(r, 90, &[0u8; 20]),
        Err(ViyojitError::OutOfRange { .. })
    ));
}

#[test]
fn shrinking_budget_at_runtime_flushes_down() {
    let mut v = viyojit(32, 8);
    let r = v.map(PAGE * 16).unwrap();
    for i in 0..8u64 {
        v.write(r, i * PAGE, &[9]).unwrap();
    }
    assert_eq!(v.dirty_count(), 8);
    // A battery cell failed: budget drops to 3 (§8).
    v.set_dirty_budget(3);
    assert!(v.dirty_count() <= 3);
    v.validate();
    assert!(v.durable_state_consistent());
    // And the system keeps working at the smaller budget.
    for i in 0..16u64 {
        v.write(r, i * PAGE, &[10]).unwrap();
        assert!(v.dirty_count() <= 3);
    }
}

#[test]
fn growing_budget_at_runtime_reduces_stalls() {
    let mut v = viyojit(64, 2);
    let r = v.map(PAGE * 32).unwrap();
    for i in 0..32u64 {
        v.write(r, i * PAGE, &[1]).unwrap();
    }
    let stalls_small = v.stats().budget_stalls;
    v.set_dirty_budget(32);
    for i in 0..32u64 {
        v.write(r, i * PAGE, &[2]).unwrap();
    }
    assert_eq!(
        v.stats().budget_stalls,
        stalls_small,
        "no new stalls once the budget covers the working set"
    );
}

#[test]
fn stale_tlb_walks_degrade_victim_quality() {
    // §6.3 ablation: without TLB flushes on walks, the recency history goes
    // stale and hot pages get selected as victims, multiplying faults.
    let run = |flush: bool| -> u64 {
        let mut v = Viyojit::new(
            64,
            ViyojitConfig::builder(16)
                .tlb_flush_on_walk(flush)
                .build()
                .unwrap(),
            Clock::new(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let r = v.map(PAGE * 32).unwrap();
        // Hot set of 6 pages (comfortably inside the budget) at high page
        // ids + a stream of cold writes cycling through low page ids.
        for round in 0..120u64 {
            for hot in 26..32u64 {
                v.write(r, hot * PAGE, &[round as u8]).unwrap();
            }
            for cold in 0..2u64 {
                v.write(r, ((round * 2 + cold) % 20) * PAGE, &[round as u8])
                    .unwrap();
            }
            v.clock().advance(SimDuration::from_millis(1));
        }
        v.stats().faults_handled
    };
    let faults_exact = run(true);
    let faults_stale = run(false);
    assert!(
        faults_stale > faults_exact,
        "stale dirty bits should cause more faults: exact={faults_exact} stale={faults_stale}"
    );
}

#[test]
fn least_recently_updated_keeps_the_hot_page_out_of_the_victim_stream() {
    let clock = Clock::new();
    let telemetry = Telemetry::recording(clock.clone());
    let mut v = Viyojit::new(
        64,
        ViyojitConfig::with_budget_pages(4),
        clock,
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    );
    v.attach_telemetry(telemetry.clone());
    let r = v.map(PAGE * 32).unwrap();
    for round in 0..50u64 {
        v.write(r, 0, &[round as u8]).unwrap(); // hot page, dirtied first
        v.write(r, (1 + round % 31) * PAGE, &[round as u8]).unwrap();
        v.clock().advance(SimDuration::from_millis(1));
    }
    assert_eq!(telemetry.dropped_events(), 0);
    let mut flushes = [0u32; 32];
    let mut faults = [0u32; 32];
    for e in telemetry.events() {
        match e.event {
            TraceEvent::FlushIssued { page, .. } => flushes[page as usize] += 1,
            TraceEvent::WriteFault { page } => faults[page as usize] += 1,
            _ => {}
        }
    }
    // The walk re-stamps the hot page every epoch, so a cold page is
    // always older. A policy that ignores those re-stamps (FIFO order)
    // picks the page dirtied first — the hot one — over and over.
    assert_eq!(
        (flushes[0], faults[0]),
        (0, 1),
        "hot page flushed or re-faulted"
    );
    // Page 1 is cold: written in rounds 0 and 31, flushed after each.
    assert_eq!((flushes[1], faults[1]), (2, 2), "cold page 1");
    assert!(flushes[1..].iter().sum::<u32>() >= 40, "{flushes:?}");
}

#[test]
fn stall_time_is_accounted_when_budget_saturates() {
    let mut v = viyojit_timed(64, 2);
    let r = v.map(PAGE * 32).unwrap();
    for i in 0..32u64 {
        v.write(r, i * PAGE, &[1]).unwrap();
    }
    let stats = v.stats();
    assert!(stats.budget_stalls > 0);
    assert!(!stats.stall_time.is_zero());
    assert!(stats.forced_flushes > 0);
}

#[test]
fn in_flight_collision_waits_for_the_io() {
    // Budget 2, slow SSD: dirty two pages, a third write forces a flush of
    // an LRU victim; immediately re-writing that victim while its IO is in
    // flight must wait, then re-dirty.
    let mut v = Viyojit::new(
        16,
        ViyojitConfig::with_budget_pages(2),
        Clock::new(),
        CostModel::free(),
        SsdConfig::datacenter(), // 80us writes: IOs stay in flight
    );
    let r = v.map(PAGE * 8).unwrap();
    v.write(r, 0, b"a").unwrap();
    v.write(r, PAGE, b"b").unwrap();
    v.write(r, 2 * PAGE, b"c").unwrap(); // forces flush of page 0 (LRU)
    v.write(r, 0, b"A").unwrap(); // may collide with its in-flight IO
    v.validate();
    let mut buf = [0u8];
    v.read(r, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"A");
    assert!(v.durable_state_consistent());
}

#[test]
fn read_only_workload_never_faults_or_flushes() {
    let mut v = viyojit_timed(32, 4);
    let r = v.map(PAGE * 16).unwrap();
    let mut buf = [0u8; 64];
    for i in 0..200u64 {
        v.read(r, (i % 16) * PAGE, &mut buf).unwrap();
    }
    assert_eq!(v.stats().faults_handled, 0);
    assert_eq!(v.ssd_stats().writes, 0);
}

#[test]
fn multiple_regions_share_the_budget() {
    let mut v = viyojit(64, 4);
    let a = v.map(PAGE * 8).unwrap();
    let b = v.map(PAGE * 8).unwrap();
    for i in 0..8u64 {
        v.write(a, i * PAGE, &[1]).unwrap();
        v.write(b, i * PAGE, &[2]).unwrap();
        assert!(v.dirty_count() <= 4);
    }
    v.validate();
}

#[test]
fn flush_codecs_shrink_physical_traffic_without_changing_data() {
    use viyojit::FlushCodec;
    let run = |codec: FlushCodec| {
        let mut v = Viyojit::new(
            64,
            ViyojitConfig::builder(4)
                .flush_codec(codec)
                .build()
                .unwrap(),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let r = v.map(PAGE * 32).unwrap();
        for round in 0..3u8 {
            for i in 0..32u64 {
                v.write(r, i * PAGE, &[round; 256]).unwrap();
            }
        }
        v.power_failure();
        v.recover();
        let mut data = vec![0u8; (PAGE * 32) as usize];
        v.read(r, 0, &mut data).unwrap();
        (v.stats().physical_bytes_flushed, data)
    };
    let (raw_bytes, raw_data) = run(FlushCodec::Raw);
    let (rle_bytes, rle_data) = run(FlushCodec::Rle);
    let (dedup_bytes, dedup_data) = run(FlushCodec::RleDedup);
    assert_eq!(raw_data, rle_data, "codec must never change contents");
    assert_eq!(raw_data, dedup_data);
    assert!(
        rle_bytes < raw_bytes / 4,
        "fill pages compress: {rle_bytes} vs {raw_bytes}"
    );
    assert!(dedup_bytes <= rle_bytes, "identical pages dedup");
}

#[test]
fn sector_flush_ships_only_modified_sectors() {
    let run = |sector: bool| {
        let mut v = Viyojit::new(
            64,
            ViyojitConfig::builder(2)
                .sector_flush(sector)
                .build()
                .unwrap(),
            Clock::new(),
            CostModel::free(),
            SsdConfig::instant(),
        );
        let r = v.map(PAGE * 8).unwrap();
        // Establish durable base copies of pages 0..4.
        for i in 0..4u64 {
            v.write(r, i * PAGE, &vec![1u8; PAGE_SIZE]).unwrap();
        }
        v.power_failure();
        v.recover();
        let base_phys = v.stats().physical_bytes_flushed;
        // Now dirty only 64 bytes of each page, cycling so flushes happen.
        for round in 0..4u8 {
            for i in 0..4u64 {
                v.write(r, i * PAGE + 128, &[round; 64]).unwrap();
            }
        }
        v.power_failure();
        v.recover();
        let mut data = vec![0u8; (PAGE * 4) as usize];
        v.read(r, 0, &mut data).unwrap();
        (v.stats().physical_bytes_flushed - base_phys, data)
    };
    let (full_bytes, full_data) = run(false);
    let (sector_bytes, sector_data) = run(true);
    assert_eq!(
        full_data, sector_data,
        "sector flushing must not change contents"
    );
    assert!(
        sector_bytes < full_bytes / 20,
        "64 B writes should ship tiny payloads: {sector_bytes} vs {full_bytes}"
    );
}

/// An unmap discards a dirty page's budget slot, not its bytes: memory
/// still differs from the device image in the discarded sectors, so the
/// next hand-over writes them too, and a sector flush must price them.
#[test]
fn sector_flush_prices_the_sectors_an_unmap_discarded() {
    let mut v = Viyojit::new(
        4,
        ViyojitConfig::builder(4)
            .sector_flush(true)
            .build()
            .unwrap(),
        Clock::new(),
        CostModel::free(),
        SsdConfig::instant(),
    );
    // The region takes every page, so mapping it again finds the same ones.
    let r = v.map(PAGE * 4).unwrap();
    v.write(r, 0, &[1; 64]).unwrap();
    v.power_failure();
    v.recover();
    // Sectors A = {2, 3, 9} are written, then discarded while dirty.
    v.write(r, 2 * 64, &[0xa; 128]).unwrap();
    v.write(r, 9 * 64, &[0xa; 64]).unwrap();
    v.unmap(r).unwrap();
    assert_eq!(v.dirty_count(), 0);
    let r = v.map(PAGE * 4).unwrap();
    // Sector B = {5}: |A ∪ B| = 4.
    v.write(r, 5 * 64, &[0xb; 64]).unwrap();
    let report = v.power_failure();
    assert_eq!(report.pages_flushed, 1);
    assert_eq!(report.bytes_flushed, 64 * 4 + 8);
    v.recover();
    let mut buf = [0u8; 10 * 64];
    v.read(r, 0, &mut buf).unwrap();
    assert_eq!(buf[..64], [1; 64]);
    assert_eq!(
        buf[2 * 64..4 * 64],
        [0xa; 128],
        "the discarded bytes came back"
    );
    assert_eq!(buf[5 * 64..6 * 64], [0xb; 64]);
    assert_eq!(buf[9 * 64..], [0xa; 64], "the discarded bytes came back");
    v.validate();
}

#[test]
fn repeated_power_cycles_preserve_data() {
    let mut v = viyojit(32, 4);
    let r = v.map(PAGE * 8).unwrap();
    for cycle in 0..5u8 {
        for i in 0..8u64 {
            v.write(r, i * PAGE, &[cycle.wrapping_add(i as u8); 16])
                .unwrap();
        }
        v.power_failure();
        v.recover();
        for i in 0..8u64 {
            let mut buf = [0u8; 16];
            v.read(r, i * PAGE, &mut buf).unwrap();
            assert_eq!(
                buf,
                [cycle.wrapping_add(i as u8); 16],
                "cycle {cycle} page {i}"
            );
        }
    }
}
