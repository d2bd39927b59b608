//! §5.3 ablation: fixed vs adaptive proactive-copy thresholds under a
//! bursty writer.
//!
//! §5.3's argument: "If the threshold is very close to the dirty budget, a
//! burst of new dirty pages would cause high write latencies. On the other
//! hand, if the threshold is too low, Viyojit would unnecessarily copy
//! data to secondary storage" (IO contention + SSD wear). Steady YCSB
//! arrivals cannot distinguish these regimes — the failure modes appear
//! under *bursts*, so this harness drives an explicit burst pattern: every
//! millisecond, a hot set is rewritten and a batch of fresh cold pages is
//! dirtied.
//!
//! Expected shape: tiny fixed slack stalls writers on every burst; huge
//! fixed slack evicts the hot set each epoch (extra faults and SSD
//! copy-out, i.e. wear); the paper's adaptive EWMA threshold tracks the
//! burst size and avoids both.

use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, CostModel, SimDuration};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report};
use viyojit::{NvHeap, ThresholdPolicy, Viyojit, ViyojitConfig};

const PAGE: u64 = PAGE_SIZE as u64;
const BUDGET: u64 = 512;
/// Hot pages, rewritten every epoch — must stay dirty for good performance.
const HOT_PAGES: u64 = 200;
/// Steady trickle of fresh cold pages per epoch.
const COLD_TRICKLE: u64 = 4;
/// Burst of fresh cold pages arriving every `BURST_PERIOD` epochs.
const COLD_BURST: u64 = 100;
const BURST_PERIOD: u64 = 10;
const EPOCHS: u64 = 4_000;

fn drive(policy: ThresholdPolicy) -> (f64, u64, u64, u64, u64) {
    let clock = Clock::new();
    let mut nv = Viyojit::new(
        4096,
        ViyojitConfig::builder(BUDGET)
            .threshold_policy(policy)
            .total_pages(4096)
            .build()
            .expect("valid burst-harness configuration"),
        clock.clone(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    );
    let region = nv.map(PAGE * 3000).expect("region fits");
    let t0 = clock.now();
    let mut ops = 0u64;
    let mut next_cold = 0u64;
    for epoch in 0..EPOCHS {
        for h in 0..HOT_PAGES {
            nv.write(region, (2000 + h) * PAGE, &[epoch as u8; 64])
                .expect("hot write");
            ops += 1;
        }
        let cold_count = if epoch % BURST_PERIOD == 0 {
            COLD_TRICKLE + COLD_BURST
        } else {
            COLD_TRICKLE
        };
        for _ in 0..cold_count {
            nv.write(region, (next_cold % 1900) * PAGE, &[epoch as u8; 64])
                .expect("cold write");
            next_cold += 1;
            ops += 1;
        }
        clock.advance(SimDuration::from_millis(1));
    }
    let secs = (clock.now() - t0).as_secs_f64();
    let stats = nv.stats();
    (
        ops as f64 / secs / 1e3,
        stats.budget_stalls,
        stats.stall_time.as_millis(),
        nv.ssd_stats().bytes_written / 1_000_000,
        stats.faults_handled,
    )
}

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("§5.3 ablation — fixed vs adaptive copy thresholds under bursts");
    report.columns(&[
        "threshold",
        "throughput_kops",
        "budget_stalls",
        "stall_ms",
        "ssd_mb_written",
        "faults",
    ]);

    let configs: [(&str, ThresholdPolicy); 5] = [
        ("fixed slack 1", ThresholdPolicy::FixedSlack(1)),
        ("fixed slack 16", ThresholdPolicy::FixedSlack(16)),
        ("fixed slack 128", ThresholdPolicy::FixedSlack(128)),
        ("fixed slack 400", ThresholdPolicy::FixedSlack(400)),
        ("adaptive (paper)", ThresholdPolicy::Adaptive),
    ];
    for (label, policy) in configs {
        let (kops, stalls, stall_ms, ssd_mb, faults) = drive(policy);
        row!(
            report,
            "{label},{kops:.1},{stalls},{stall_ms},{ssd_mb},{faults}"
        );
    }

    note!(
        report,
        "expected: slack below the burst size ({COLD_BURST} new pages every {BURST_PERIOD} \
         epochs) stalls writers; slack far above it cannot keep the {HOT_PAGES}-page hot \
         set dirty (extra faults + SSD bytes = wear); the paper's adaptive threshold \
         avoids both"
    );
}
