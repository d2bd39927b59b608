//! §3's conservative assumption, tested against a real file system.
//!
//! The paper's trace analysis cannot see which NV-DRAM pages the file
//! system actually touches, so it assumes the adversarial log-structured
//! worst case: *every* write dirties a unique page (Fig. 2 is computed
//! under that assumption). This harness replays each application's
//! busiest volume through `nvfs` — a real, update-in-place extent file
//! system on Viyojit — and compares the worst-hour dirty volume the
//! conservative bound predicts against what the file system actually
//! produces.
//!
//! Expected shape: the conservative bound always dominates; for skewed
//! volumes the real layout dirties far less (updates land on already-
//! dirty pages), so the paper's "<15% per hour" sizing is, as claimed,
//! conservative.

use mem_sim::PAGE_SIZE;
use nvfs::NvFileSystem;
use pheap::PHeap;
use sim_clock::{Clock, CostModel, SimDuration};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report};
use viyojit::{Viyojit, ViyojitConfig};
use workloads::{paper_trace_suite, TraceGenerator};

/// Pages per file in the synthetic volume layout.
const PAGES_PER_FILE: u64 = 16;
/// Bytes written per trace write event.
const WRITE_BYTES: usize = 512;
const OPS_DIVISOR: u64 = 20;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("§3 check — conservative unique-page bound vs a real file system (worst hour)");
    report.columns(&[
        "app",
        "volume",
        "conservative_pct_of_volume",
        "actual_pct_of_volume",
        "tightening",
    ]);

    for app in paper_trace_suite() {
        // The busiest volume of each application.
        let vol = app
            .volumes
            .iter()
            .max_by_key(|v| (v.total_ops as f64 * v.write_fraction) as u64)
            .expect("apps have volumes");
        let pages = vol.pages / 8;
        let clock = Clock::new();
        // Full budget: no copy-out churn, so dirty transitions count each
        // unique page once per measurement window.
        let nv = Viyojit::new(
            (pages + pages / 4 + 128) as usize,
            ViyojitConfig::builder(pages + pages / 4 + 128)
                .total_pages(pages + pages / 4 + 128)
                .build()
                .expect("valid full-budget configuration"),
            clock.clone(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let heap =
            PHeap::format(nv, (pages + pages / 8 + 64) * PAGE_SIZE as u64).expect("volume fits");
        let mut fs = NvFileSystem::format(heap).expect("format");

        let spec = workloads::VolumeSpec {
            pages,
            total_ops: vol.total_ops / OPS_DIVISOR,
            ..vol.clone()
        };
        // Warm-up: production volumes pre-exist. Materialize every file
        // and extent (a one-time cost hour 0 should not be charged for),
        // then power-cycle so measurement starts from an all-clean image.
        let mut handles: std::collections::HashMap<u64, nvfs::FileId> =
            std::collections::HashMap::new();
        for file_no in 0..pages.div_ceil(PAGES_PER_FILE) {
            let file = fs
                .open_or_create(format!("f{file_no:06}").as_bytes())
                .expect("file");
            handles.insert(file_no, file);
            for p in 0..PAGES_PER_FILE.min(pages - file_no * PAGES_PER_FILE) {
                fs.write(file, p * PAGE_SIZE as u64, &[0xAA])
                    .expect("warmup");
            }
        }
        fs.nv_mut().power_failure();
        fs.nv_mut().recover();

        let hour = SimDuration::from_secs(3600).as_nanos();
        let mut hour_writes: Vec<u64> = vec![0];
        let mut hour_dirtied: Vec<u64> = Vec::new();
        let mut dirtied_at_hour_start = fs.nv().stats().pages_dirtied;
        let mut current_slot = 0usize;
        for event in TraceGenerator::new(&spec, app.duration, 0xF5 + vol.pages) {
            clock.advance_to(event.at);
            if !event.is_write {
                continue;
            }
            let slot = (event.at.as_nanos() / hour) as usize;
            if slot != current_slot {
                // Close the hour: unique pages dirtied = transition delta,
                // then power-cycle so the next hour counts fresh.
                hour_dirtied.push(fs.nv().stats().pages_dirtied - dirtied_at_hour_start);
                fs.nv_mut().power_failure();
                fs.nv_mut().recover();
                dirtied_at_hour_start = fs.nv().stats().pages_dirtied;
                hour_writes.resize(slot + 1, 0);
                current_slot = slot;
            }
            let file_no = event.page / PAGES_PER_FILE;
            let file = *handles.entry(file_no).or_insert_with(|| {
                fs.open_or_create(format!("f{file_no:06}").as_bytes())
                    .expect("file")
            });
            let offset = (event.page % PAGES_PER_FILE) * PAGE_SIZE as u64;
            fs.write(file, offset, &[0x11; WRITE_BYTES]).expect("write");
            hour_writes[current_slot] += 1;
        }
        hour_dirtied.push(fs.nv().stats().pages_dirtied - dirtied_at_hour_start);

        let conservative = hour_writes.iter().copied().max().unwrap_or(0).min(pages);
        let actual = hour_dirtied.iter().copied().max().unwrap_or(0).min(pages);
        row!(
            report,
            "{},{},{:.2},{:.2},{:.1}x",
            app.app.name(),
            vol.name,
            100.0 * conservative as f64 / pages as f64,
            100.0 * actual as f64 / pages as f64,
            conservative as f64 / actual.max(1) as f64,
        );
    }

    note!(
        report,
        "the conservative bound (every write = a fresh page) always dominates what the \
         update-in-place file system actually dirties, so §3's battery sizing holds with margin"
    );
}
