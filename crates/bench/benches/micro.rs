//! Criterion micro-benchmarks of the mechanisms on Viyojit's critical
//! paths: MMU access, fault handling, victim selection, workload
//! generation, and the persistent-store hot path. These measure *host*
//! performance of the simulator (how fast experiments run), complementing
//! the virtual-time figures.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kvstore::KvStore;
use mem_sim::{Mmu, PageId, WalkOptions};
use pheap::PHeap;
use sim_clock::{Clock, CostModel, Histogram, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{
    DirtySet, NvHeap, NvdramBaseline, TargetPolicy, UpdateHistory, VictimSelector, Viyojit,
    ViyojitConfig,
};
use workloads::{YcsbGenerator, YcsbWorkload, ZipfGenerator};

fn bench_mmu(c: &mut Criterion) {
    let mut g = c.benchmark_group("mmu");
    g.bench_function("write_hit_64B", |b| {
        let mut mmu = Mmu::new(64, Clock::new(), CostModel::calibrated());
        let data = [7u8; 64];
        b.iter(|| mmu.write(black_box(128), &data).unwrap());
    });
    g.bench_function("read_hit_64B", |b| {
        let mut mmu = Mmu::new(64, Clock::new(), CostModel::calibrated());
        let mut buf = [0u8; 64];
        b.iter(|| mmu.read(black_box(128), &mut buf).unwrap());
    });
    g.bench_function("walk_and_clear_1k_pages", |b| {
        let mut mmu = Mmu::new(1024, Clock::new(), CostModel::calibrated());
        let pages: Vec<PageId> = (0..1024).map(PageId).collect();
        b.iter(|| black_box(mmu.walk_and_clear_dirty(&pages, WalkOptions::exact())));
    });
    g.finish();
}

fn bench_fault_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("viyojit");
    g.bench_function("first_write_fault_cycle", |b| {
        // Each iteration: write a clean page (fault + admit), with a large
        // enough budget that no stall occurs.
        let mut nv = Viyojit::new(
            8192,
            ViyojitConfig::with_budget_pages(8000),
            Clock::new(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let r = nv.map(8000 * 4096).unwrap();
        let mut page = 0u64;
        b.iter(|| {
            nv.write(r, (page % 8000) * 4096, &[1u8; 8]).unwrap();
            page += 1;
        });
    });
    g.bench_function("dirty_write_no_fault", |b| {
        let mut nv = Viyojit::new(
            64,
            ViyojitConfig::with_budget_pages(32),
            Clock::new(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let r = nv.map(16 * 4096).unwrap();
        nv.write(r, 0, &[1u8; 8]).unwrap();
        b.iter(|| nv.write(r, black_box(64), &[2u8; 8]).unwrap());
    });
    g.finish();
}

fn bench_tracking_structures(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracking");
    g.bench_function("dirty_set_cycle", |b| {
        let mut set = DirtySet::new(4096);
        b.iter(|| {
            set.mark_dirty(PageId(77));
            set.mark_in_flight(PageId(77));
            set.mark_clean(PageId(77));
        });
    });
    g.bench_function("selector_dirty_touch_remove", |b| {
        let mut history = UpdateHistory::new(4096, 64);
        let mut sel = VictimSelector::new(4096, TargetPolicy::LeastRecentlyUpdated, 1);
        // Pre-fill with candidates so the BTree has realistic depth.
        for i in 0..2048u64 {
            history.touch(PageId(i));
            sel.on_dirty(PageId(i), &history);
        }
        b.iter(|| {
            history.touch(PageId(3000));
            sel.on_dirty(PageId(3000), &history);
            history.touch(PageId(3000));
            sel.on_touch(PageId(3000), &history);
            black_box(sel.peek());
            sel.on_removed(PageId(3000));
        });
    });
    g.bench_function("history_touch", |b| {
        let mut history = UpdateHistory::new(4096, 64);
        b.iter(|| history.touch(black_box(PageId(123))));
    });
    g.finish();
}

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("workloads");
    g.bench_function("zipf_sample", |b| {
        let zipf = ZipfGenerator::new(1_000_000, 0.99);
        let mut rng = SplitMix64::new(1);
        b.iter(|| black_box(zipf.sample_scrambled(&mut rng)));
    });
    g.bench_function("ycsb_a_next_op", |b| {
        let mut gen = YcsbGenerator::new(YcsbWorkload::A, 100_000, 1);
        b.iter(|| black_box(gen.next_op()));
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvstore");
    let make = || {
        let nv = NvdramBaseline::new(
            4096,
            Clock::new(),
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        let heap = PHeap::format(nv, 3500 * 4096).unwrap();
        let mut kv = KvStore::create(heap, 2048).unwrap();
        for i in 0..1000u64 {
            kv.set(format!("key{i:06}").as_bytes(), &[1u8; 256])
                .unwrap();
        }
        kv
    };
    g.bench_function("get_hit", |b| {
        let mut kv = make();
        b.iter(|| black_box(kv.get(b"key000500").unwrap()));
    });
    g.bench_function("set_in_place", |b| {
        let mut kv = make();
        b.iter(|| kv.set(b"key000500", &[9u8; 256]).unwrap());
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_clock");
    g.bench_function("histogram_record", |b| {
        let mut h = Histogram::new();
        b.iter(|| h.record(black_box(SimDuration::from_nanos(123_456))));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mmu,
    bench_fault_path,
    bench_tracking_structures,
    bench_workloads,
    bench_store,
    bench_histogram
);
criterion_main!(benches);
