//! §7 extension: compression, deduplication, and Mondrian-style
//! sub-page flushing of copy-out traffic.
//!
//! "Viyojit can also perform dirty tracking and limiting at a finer
//! byte-level granularity using Mondrian Memory Protection ... The write
//! bandwidth to secondary storage could be further reduced by using
//! compression and de-duplication [50, 68]." This harness runs YCSB-A at
//! a tight budget under each reduction and reports the SSD traffic, wear,
//! and failure-flush energy each produces.
//!
//! Note: the YCSB driver writes constant-fill values, which compress far
//! better than production data; treat the RLE column as an upper bound
//! and the mechanism (and its zero throughput cost) as the result.

use crate::{gb_units_to_pages, run_on, ExperimentConfig};
use battery_sim::PowerModel;
use sim_clock::{Clock, CostModel};
use ssd_sim::SsdConfig;
use telemetry::{note, row, Report};
use viyojit::{FlushCodec, ViyojitConfig};
use workloads::YcsbWorkload;

pub(crate) fn run(_: &super::Args) {
    let mut report = Report::stdout_csv();
    report.section("§7 extension — copy-out codecs (YCSB-A, 2 GB budget)");
    report.columns(&[
        "codec",
        "throughput_kops",
        "logical_mb",
        "physical_mb",
        "reduction_pct",
        "ssd_erases",
        "failure_flush_joules",
    ]);

    let budget = gb_units_to_pages(2.0);
    let power = PowerModel::datacenter_server(0.064);
    for (label, codec, sector) in [
        ("raw (paper)", FlushCodec::Raw, false),
        ("rle", FlushCodec::Rle, false),
        ("rle+dedup", FlushCodec::RleDedup, false),
        ("sector (mondrian)", FlushCodec::Raw, true),
        ("sector+rle+dedup", FlushCodec::RleDedup, true),
    ] {
        let cfg = ExperimentConfig::for_workload(YcsbWorkload::A);
        // Rebuild the run with the codec plumbed through a custom config.
        let config = ViyojitConfig::builder(budget)
            .epoch(cfg.epoch)
            .flush_codec(codec)
            .sector_flush(sector)
            .total_pages(cfg.total_nv_pages as u64)
            .build()
            .expect("valid codec-ablation configuration");
        let nv = viyojit::Viyojit::new(
            cfg.total_nv_pages,
            config,
            Clock::new(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let result = run_on(&cfg, nv, Some(budget));
        let stats = result.stats.expect("viyojit run");
        let reduction =
            100.0 * (1.0 - stats.physical_bytes_flushed as f64 / stats.bytes_flushed.max(1) as f64);
        row!(
            report,
            "{label},{:.1},{:.1},{:.1},{:.1},{},{:.3}",
            result.throughput_kops,
            stats.bytes_flushed as f64 / 1e6,
            stats.physical_bytes_flushed as f64 / 1e6,
            reduction,
            result.ssd_erases,
            result.failure_flush_time.as_secs_f64() * power.total_watts(),
        );
    }

    note!(
        report,
        "expected: compression/dedup shrink SSD traffic, wear, and the battery energy a \
         failure flush draws, at no throughput cost — §7's 'better utilization of \
         provisioned battery capacity'"
    );
}
