//! The six workloads: what each runs, how much, and why it exists.

use crate::gen::KvMix;

/// Fig. 7's geometry: a 17.5 GB-unit initial dataset (766 records per
/// unit) inside 60 GB-units of NV-DRAM, at 256 pages per unit.
pub const RECORDS: u64 = 13_405;
pub const NV_PAGES: usize = 15_360;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvBackend {
    /// `Viyojit` (SoftwareWalk) with this dirty budget.
    Viyojit { budget_pages: u64 },
    /// `NvdramBaseline` (FullDirty): no tracking, full-capacity battery.
    Nvdram,
}

#[derive(Debug, Clone)]
pub struct KvSpec {
    pub backend: KvBackend,
    pub mix: KvMix,
    /// The heap region, in multiples of what Fig. 7's dataset needs.
    pub region_mult: u64,
    /// `KvOp::kind` of the operation whose latency Fig. 8 plots.
    pub focus: usize,
    /// Fig. 7's throughput overhead at this budget, where the paper gives one.
    pub paper_overhead_pct: Option<f64>,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Kv(KvSpec),
    /// `shard_wallclock`'s sharded deployment, inline or behind one worker.
    Shard {
        parallel: bool,
    },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Operations measured per second of `--seconds`. Fixed, so that the
    /// op count — and with it every simulated statistic — depends only on
    /// the arguments; sized so the measured phase lasts about `--seconds`
    /// on the 2-core reference host.
    pub ops_per_second: u64,
}

pub fn all() -> Vec<Workload> {
    let ycsb = |backend, set_percent, focus, paper_overhead_pct| {
        Kind::Kv(KvSpec {
            backend,
            mix: KvMix::Ycsb { set_percent },
            region_mult: 1,
            focus,
            paper_overhead_pct,
        })
    };
    vec![
        Workload {
            name: "ycsb_a_tight",
            why: "YCSB-A on Viyojit at an 11 % budget: two ops in three fault and flush, so the per-write lifecycle (fault, DirtySet, protect, snapshot, SSD submit) does most of the work",
            kind: ycsb(KvBackend::Viyojit { budget_pages: 512 }, 50, 1, Some(25.0)),
            ops_per_second: 300_000,
        },
        Workload {
            name: "ycsb_c_loose",
            why: "YCSB-C on Viyojit at a 103 % budget: almost no faults, but LRU stamps keep ~4.6k pages dirty and every 1 ms epoch walks them, so scans and the read path dominate",
            kind: ycsb(KvBackend::Viyojit { budget_pages: 4_608 }, 0, 0, Some(0.0)),
            ops_per_second: 480_000,
        },
        Workload {
            name: "ycsb_a_nvdram",
            why: "the ycsb_a_tight stream on NvdramBaseline: the control loop is idle, so time is kvstore probing, pheap header checks and Mmu accesses; an engine change must show nothing here",
            kind: ycsb(KvBackend::Nvdram, 50, 1, None),
            ops_per_second: 750_000,
        },
        Workload {
            name: "kv_churn",
            why: "insert-new / delete-oldest / short scans: alloc, free, skip-index insert and remove, chain unlink; catches a bucket or allocator redesign that helps get/set but costs the rest",
            kind: Kind::Kv(KvSpec {
                backend: KvBackend::Viyojit { budget_pages: 1_536 },
                mix: KvMix::Churn,
                region_mult: 3,
                focus: 2,
                paper_overhead_pct: None,
            }),
            ops_per_second: 80_000,
        },
        Workload {
            name: "shard_seq",
            why: "shard_wallclock's skewed 64 B write stream through build_sequential(): the sharded frontend and budget rounds inline, no kvstore or pheap",
            kind: Kind::Shard { parallel: false },
            ops_per_second: 900_000,
        },
        Workload {
            name: "shard_par",
            why: "the shard_seq stream through build_parallel() with one worker: the difference is pure transport (per-write Vec staging, mpsc hops)",
            kind: Kind::Shard { parallel: true },
            ops_per_second: 900_000,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
