//! The YCSB-on-KvStore experiment driver (paper §6.1's setup, scaled).

use crate::profile::ProfileCapture;
use kvstore::KvStore;
use pheap::PHeap;
use sim_clock::{Clock, CostModel, Histogram, SimDuration};
use ssd_sim::SsdConfig;
use viyojit::{
    DirtyTracker, Engine, MmuAssisted, NvStore, NvdramBaseline, SoftwareWalk, ViyojitConfig,
    ViyojitStats,
};
use workloads::{YcsbGenerator, YcsbOp, YcsbWorkload};

/// Scale factor: 1 paper-GB of capacity = 1 MiB simulated = 256 pages.
pub const PAGES_PER_GB_UNIT: u64 = 256;
/// Scaled operation count (the paper runs 10 M).
pub const DEFAULT_OPS: u64 = 200_000;
/// Records per GB-unit of *heap*: each record occupies ~1.37 KiB of heap
/// (1 KiB value class in 16 KiB slab runs + 256 B metadata-header class +
/// table share), so a 1 MiB heap unit holds ~766 records.
pub const DEFAULT_RECORDS_PER_GB_UNIT: u64 = 766;
/// Value payload: with the 32 B node header and a 16 B key this lands an
/// entry exactly in the 1 KiB allocation class, like YCSB's 1 KB records.
pub const VALUE_BYTES: usize = 976;

/// The Fig. 7/8/9 dirty-budget sweep in paper-GB units (11% to 103% of
/// the 17.5 GB-unit initial heap).
pub const BUDGET_SWEEP_GB: [f64; 9] = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0];

/// Converts a paper-GB quantity (heap size, dirty budget) to pages.
pub fn gb_units_to_pages(gb_units: f64) -> u64 {
    (gb_units * PAGES_PER_GB_UNIT as f64).round() as u64
}

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The YCSB workload to drive.
    pub workload: YcsbWorkload,
    /// Records loaded before the measured phase (the "initial dataset").
    pub initial_records: u64,
    /// Measured operations.
    pub operations: u64,
    /// Total NV-DRAM pages (the paper's 60 GB -> 15,360 pages).
    pub total_nv_pages: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Virtual-time cost model.
    pub costs: CostModel,
    /// Backing SSD model.
    pub ssd: SsdConfig,
    /// Epoch length (§6.1: 1 ms).
    pub epoch: SimDuration,
    /// TLB flush on epoch walks (disable for the §6.3 ablation).
    pub tlb_flush_on_walk: bool,
}

impl ExperimentConfig {
    /// The paper's Fig. 7 setup for one workload: a 17.5 GB-unit initial
    /// heap inside a 60 GB-unit NV-DRAM, 200 K ops.
    pub fn for_workload(workload: YcsbWorkload) -> Self {
        Self::for_heap_gb_units(workload, 17.5)
    }

    /// The same setup with a different initial heap size (Fig. 10 runs
    /// 52.5 GB-units).
    pub fn for_heap_gb_units(workload: YcsbWorkload, heap_gb_units: f64) -> Self {
        ExperimentConfig {
            workload,
            initial_records: (heap_gb_units * DEFAULT_RECORDS_PER_GB_UNIT as f64) as u64,
            operations: DEFAULT_OPS,
            total_nv_pages: (60 * PAGES_PER_GB_UNIT) as usize,
            seed: 0x5c1_e4ce,
            costs: CostModel::calibrated(),
            ssd: SsdConfig::datacenter(),
            epoch: SimDuration::from_millis(1),
            tlb_flush_on_walk: true,
        }
    }

    /// The initial dataset expressed in paper-GB units (what Fig. 7's
    /// upper x-axis normalizes budgets by).
    pub fn initial_heap_gb_units(&self) -> f64 {
        self.initial_records as f64 / DEFAULT_RECORDS_PER_GB_UNIT as f64
    }

    /// Bytes to map for the store's region: hash table + records (at their
    /// 1 KiB allocation class) + headroom for inserts and metadata.
    fn heap_bytes(&self) -> u64 {
        let buckets = self.initial_records.max(1).next_power_of_two();
        let table = buckets * 8 + 4096 * 4; // segments + dir + meta + superblock
        let expected_inserts = if matches!(self.workload, YcsbWorkload::D | YcsbWorkload::E) {
            self.operations * 6 / 100
        } else {
            0
        };
        // Per record: a 1 KiB value-class block (1032 B with its header,
        // 15 per 16 KiB slab run -> ~1.1 KiB effective), a 256 B
        // metadata-header block (~270 B effective), and ~100 B of headroom
        // (an ordered-index node's share when that index lived in the
        // heap; the region size, and so every figure's geometry, stays),
        // with slab tail waste.
        let nodes = (self.initial_records + expected_inserts) * (1100 + 270 + 100);
        table + nodes + nodes / 20 + 64 * 1024
    }

    fn buckets(&self) -> u64 {
        self.initial_records.max(1).next_power_of_two()
    }
}

/// Latency histograms per operation type.
#[derive(Debug, Clone, Default)]
pub struct OpLatencies {
    /// GET operations.
    pub read: Histogram,
    /// Full-record overwrites.
    pub update: Histogram,
    /// New-record inserts (YCSB-D/E).
    pub insert: Histogram,
    /// Read-modify-writes (YCSB-F).
    pub rmw: Histogram,
    /// Range scans (YCSB-E).
    pub scan: Histogram,
}

impl OpLatencies {
    /// The operation type the paper's Fig. 8 plots for this workload.
    pub fn focus(&self, workload: YcsbWorkload) -> &Histogram {
        match workload {
            YcsbWorkload::A | YcsbWorkload::B => &self.update,
            YcsbWorkload::C => &self.read,
            YcsbWorkload::D => &self.insert,
            YcsbWorkload::E => &self.scan,
            YcsbWorkload::F => &self.rmw,
        }
    }
}

/// Measured outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// "Viyojit" or "NV-DRAM" (the baseline).
    pub system: &'static str,
    /// The dirty budget, if the run used Viyojit.
    pub dirty_budget_pages: Option<u64>,
    /// Measured throughput in K-ops/sec of virtual time.
    pub throughput_kops: f64,
    /// Virtual duration of the measured phase.
    pub duration: SimDuration,
    /// Per-op-type latency histograms.
    pub latencies: OpLatencies,
    /// Bytes the copier wrote to the SSD during the measured phase.
    pub run_ssd_bytes: u64,
    /// Fig. 9's metric: (copy-out bytes + final whole-heap write-out) over
    /// the measured duration, in MB/s.
    pub avg_write_rate_mbps: f64,
    /// Viyojit runtime counters (None for the baseline).
    pub stats: Option<ViyojitStats>,
    /// Total erase-block cycles the run cost the SSD (wear).
    pub ssd_erases: u64,
    /// Hold-up time the end-of-run failure flush required (shrinks under
    /// the §7 codecs).
    pub failure_flush_time: SimDuration,
}

impl ExperimentResult {
    /// Throughput overhead of this run versus `baseline`, in percent
    /// (positive = slower than baseline).
    pub fn overhead_vs(&self, baseline: &ExperimentResult) -> f64 {
        100.0 * (1.0 - self.throughput_kops / baseline.throughput_kops)
    }
}

fn key_bytes(id: u64) -> Vec<u8> {
    format!("k{id:012}").into_bytes()
}

fn value_bytes(id: u64, generation: u8) -> Vec<u8> {
    vec![(id % 251) as u8 ^ generation; VALUE_BYTES]
}

/// Runs the measured YCSB phase against an already-constructed NV layer.
///
/// Generic over the public [`NvStore`] abstraction, so new store variants
/// (and telemetry-attached instances) need no driver changes.
pub fn run_on<H: NvStore>(cfg: &ExperimentConfig, nv: H, budget: Option<u64>) -> ExperimentResult {
    let mut nv = nv;
    let system = nv.system();
    let clock = nv.shared_clock();
    // Opt-in profiling capture (VIYOJIT_PROFILE=<dir>); constructs
    // nothing and attaches nothing when the variable is unset.
    let capture = ProfileCapture::from_env(
        &format!(
            "{system}-{}-b{}",
            cfg.workload.name(),
            budget.map_or_else(|| "none".to_string(), |b| b.to_string())
        ),
        system,
        &format!("{cfg:?} budget={budget:?}"),
        None,
        &clock,
    );
    if let Some(capture) = &capture {
        capture.attach(&mut nv);
    }
    let heap = PHeap::format(nv, cfg.heap_bytes()).expect("heap fits the NV space");
    let mut kv = KvStore::create(heap, cfg.buckets()).expect("store creation");

    // Load phase (untimed, like YCSB's load stage).
    for id in 0..cfg.initial_records {
        kv.set(&key_bytes(id), &value_bytes(id, 0))
            .expect("load-phase set");
    }

    let mut gen = YcsbGenerator::new(cfg.workload, cfg.initial_records, cfg.seed);
    let mut latencies = OpLatencies::default();
    let t0 = clock.now();
    let ssd0 = kv.heap().heap().ssd_bytes_written();

    for _ in 0..cfg.operations {
        let start = clock.now();
        clock.advance(cfg.costs.app_op_base);
        match gen.next_op() {
            YcsbOp::Read(id) => {
                let _ = kv.get(&key_bytes(id)).expect("get");
                latencies.read.record(clock.now() - start);
            }
            YcsbOp::Update(id) => {
                kv.set(&key_bytes(id), &value_bytes(id, 1)).expect("update");
                latencies.update.record(clock.now() - start);
            }
            YcsbOp::Insert(id) => {
                kv.set(&key_bytes(id), &value_bytes(id, 2)).expect("insert");
                latencies.insert.record(clock.now() - start);
            }
            YcsbOp::ReadModifyWrite(id) => {
                let key = key_bytes(id);
                let mut v = kv
                    .get(&key)
                    .expect("rmw read")
                    .unwrap_or_else(|| value_bytes(id, 0));
                v[0] = v[0].wrapping_add(1);
                kv.set(&key, &v).expect("rmw write");
                latencies.rmw.record(clock.now() - start);
            }
            YcsbOp::Scan(id, len) => {
                let _ = kv.scan(&key_bytes(id), len as usize).expect("scan");
                latencies.scan.record(clock.now() - start);
            }
        }
    }

    let duration = clock.now() - t0;
    let run_ssd_bytes = kv.heap().heap().ssd_bytes_written() - ssd0;
    let heap_footprint = kv
        .heap_mut()
        .stats()
        .map(|s| s.bump)
        .unwrap_or(cfg.heap_bytes());
    let stats = kv.heap().heap().runtime_stats();
    let mut nv = kv.into_heap().into_inner();
    // Fig. 9 counts the end-of-experiment whole-heap write-out too, which
    // the baseline would also perform.
    let failure_flush_time = nv.power_failure().flush_time;
    let ssd_erases = nv.ssd_erases();
    if let Some(capture) = capture {
        capture.finish();
    }
    let total_bytes = run_ssd_bytes + heap_footprint;
    let secs = duration.as_secs_f64();

    ExperimentResult {
        system,
        dirty_budget_pages: budget,
        throughput_kops: cfg.operations as f64 / secs / 1e3,
        duration,
        latencies,
        run_ssd_bytes,
        avg_write_rate_mbps: total_bytes as f64 / secs / 1e6,
        stats,
        ssd_erases,
        failure_flush_time,
    }
}

/// Runs the experiment on a tracking engine with the given dirty budget.
fn run_tracked<B: DirtyTracker>(
    cfg: &ExperimentConfig,
    dirty_budget_pages: u64,
) -> ExperimentResult {
    let config = ViyojitConfig::builder(dirty_budget_pages)
        .epoch(cfg.epoch)
        .tlb_flush_on_walk(cfg.tlb_flush_on_walk)
        .total_pages(cfg.total_nv_pages as u64)
        .build()
        .expect("valid experiment configuration");
    let nv = Engine::<B>::new(
        cfg.total_nv_pages,
        config,
        Clock::new(),
        cfg.costs.clone(),
        cfg.ssd.clone(),
    );
    run_on(cfg, nv, Some(dirty_budget_pages))
}

/// Runs the experiment on Viyojit with the given dirty budget.
pub fn run_viyojit(cfg: &ExperimentConfig, dirty_budget_pages: u64) -> ExperimentResult {
    run_tracked::<SoftwareWalk>(cfg, dirty_budget_pages)
}

/// Runs the experiment on the §5.4 MMU-assisted Viyojit variant.
pub fn run_mmu_assisted(cfg: &ExperimentConfig, dirty_budget_pages: u64) -> ExperimentResult {
    run_tracked::<MmuAssisted>(cfg, dirty_budget_pages)
}

/// Runs the experiment on the full-battery NV-DRAM baseline.
pub fn run_baseline(cfg: &ExperimentConfig) -> ExperimentResult {
    let nv = NvdramBaseline::new(
        cfg.total_nv_pages,
        Clock::new(),
        cfg.costs.clone(),
        cfg.ssd.clone(),
    );
    run_on(cfg, nv, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: YcsbWorkload) -> ExperimentConfig {
        ExperimentConfig {
            initial_records: 2_048, // 2 GB-units of data
            operations: 6_000,
            total_nv_pages: 2_048,
            ..ExperimentConfig::for_workload(workload)
        }
    }

    #[test]
    fn baseline_beats_or_matches_viyojit() {
        let cfg = small(YcsbWorkload::A);
        let base = run_baseline(&cfg);
        let tight = run_viyojit(&cfg, 64);
        assert!(tight.throughput_kops <= base.throughput_kops * 1.001);
        assert!(tight.overhead_vs(&base) >= -0.1);
    }

    #[test]
    fn bigger_budgets_never_hurt_much() {
        let cfg = small(YcsbWorkload::A);
        let tight = run_viyojit(&cfg, 32);
        let loose = run_viyojit(&cfg, 1_024);
        assert!(
            loose.throughput_kops >= tight.throughput_kops * 0.98,
            "loose {} vs tight {}",
            loose.throughput_kops,
            tight.throughput_kops
        );
    }

    #[test]
    fn read_only_workload_has_low_overhead() {
        let cfg = small(YcsbWorkload::C);
        let base = run_baseline(&cfg);
        let viy = run_viyojit(&cfg, 128);
        let overhead = viy.overhead_vs(&base);
        assert!(
            overhead < 40.0,
            "C overhead should be modest: {overhead:.1}%"
        );
    }

    #[test]
    fn latency_focus_matches_the_papers_figure8() {
        let cfg = small(YcsbWorkload::F);
        let viy = run_viyojit(&cfg, 128);
        assert!(
            !viy.latencies.focus(YcsbWorkload::F).is_empty(),
            "RMW latencies recorded"
        );
        assert_eq!(viy.latencies.insert.len(), 0, "F never inserts");
    }

    #[test]
    fn write_rate_is_positive_and_finite() {
        let cfg = small(YcsbWorkload::B);
        let viy = run_viyojit(&cfg, 64);
        assert!(viy.avg_write_rate_mbps.is_finite());
        assert!(viy.avg_write_rate_mbps > 0.0);
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = small(YcsbWorkload::A);
        let a = run_viyojit(&cfg, 64);
        let b = run_viyojit(&cfg, 64);
        assert_eq!(a.throughput_kops, b.throughput_kops);
        assert_eq!(a.run_ssd_bytes, b.run_ssd_bytes);
    }

    #[test]
    fn gb_unit_conversion_matches_scale() {
        assert_eq!(gb_units_to_pages(1.0), 256);
        assert_eq!(gb_units_to_pages(17.5), 4_480);
        assert_eq!(gb_units_to_pages(0.0), 0);
    }
}
