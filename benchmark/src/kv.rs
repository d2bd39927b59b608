//! The key-value workloads: `kvstore → pheap → viyojit` driven in a closed
//! loop by one client, every result checked against an in-harness model.

use std::time::Instant;

use kvstore::KvStore;
use pheap::PHeap;
use sim_clock::{Clock, CostModel, SimDuration};
use ssd_sim::SsdConfig;
use viyojit::{NvdramBaseline, PowerFailureReport, Viyojit, ViyojitConfig};

use crate::gen::{fill_value, value_matches, write_key, KvOp, KvStream, KEY_BYTES, VALUE_BYTES};
use crate::store::{Backend, Counters};
use crate::trace::{Tracer, SAMPLE_EVERY};
use crate::workload::{KvBackend, KvSpec, NV_PAGES};

/// The measured phase is cut into this many equal slices (about 40 ms
/// each at ten seconds); see [`crate::stats::fast_slice_rate`].
pub const SLICES: usize = 240;

pub fn make_viyojit(budget_pages: u64) -> Viyojit {
    let config = ViyojitConfig::builder(budget_pages)
        .epoch(SimDuration::from_millis(1))
        .total_pages(NV_PAGES as u64)
        .build()
        .expect("the workload table holds valid budgets");
    Viyojit::new(
        NV_PAGES,
        config,
        Clock::new(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    )
}

pub fn make_nvdram() -> NvdramBaseline {
    NvdramBaseline::new(
        NV_PAGES,
        Clock::new(),
        CostModel::calibrated(),
        SsdConfig::datacenter(),
    )
}

/// The figure harnesses' sizing: hash table, records at their 1 KiB and
/// 256 B allocation classes, a skip-index node each, 5 % slab waste.
fn heap_bytes(records: u64, region_mult: u64) -> u64 {
    let table = records.next_power_of_two() * 8 + 4096 * 4;
    let nodes = records * (1100 + 270 + 100);
    (table + nodes + nodes / 20 + 64 * 1024) * region_mult
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What the store must hold: live ids are `oldest..next`; a loaded
/// record's value carries the number of times it was overwritten.
#[derive(Debug, Clone)]
pub struct Model {
    versions: Vec<u32>,
    oldest: u64,
    next: u64,
}

impl Model {
    fn version(&self, id: u64) -> Option<u32> {
        (self.oldest..self.next)
            .contains(&id)
            .then(|| self.versions.get(id as usize).copied().unwrap_or(0))
    }

    pub fn live(&self) -> std::ops::Range<u64> {
        self.oldest..self.next
    }
}

#[derive(Debug, Default)]
pub struct Measured {
    pub ops: u64,
    pub slice_secs: Vec<f64>,
    /// Pages counted dirty at the end of each slice.
    pub dirty_samples: Vec<u64>,
    /// Virtual nanoseconds of every focus operation, when recorded.
    pub latencies_ns: Vec<u32>,
    pub kind_counts: [u64; 5],
    pub counters: Counters,
}

#[derive(Debug)]
pub struct Finished {
    pub report: PowerFailureReport,
    pub power_failure_host_ms: f64,
    pub recover_host_ms: f64,
    pub tally: Tally,
}

pub struct KvBench<H: Backend> {
    kv: KvStore<H>,
    spec: KvSpec,
    stream: KvStream,
    model: Model,
    pub tally: Tally,
    clock: Clock,
    app_op_base: SimDuration,
    key: [u8; KEY_BYTES],
    value: Vec<u8>,
    op_index: u64,
    pub record_latencies: bool,
}

impl<H: Backend> KvBench<H> {
    /// Format, create, load and warm up: everything `setup_s` times.
    pub fn setup(spec: &KvSpec, records: u64, seed: u64, warm_ops: u64, store: H) -> Self {
        let clock = store.clock().clone();
        let heap = PHeap::format(store, heap_bytes(records, spec.region_mult))
            .expect("the region fits the NV space");
        let kv = KvStore::create(heap, records.next_power_of_two()).expect("the table fits");
        let mut bench = KvBench {
            kv,
            spec: spec.clone(),
            stream: KvStream::new(spec.mix.clone(), records, seed),
            model: Model {
                versions: vec![0; records as usize],
                oldest: 0,
                next: 0,
            },
            tally: Tally::default(),
            clock,
            app_op_base: CostModel::calibrated().app_op_base,
            key: [0; KEY_BYTES],
            value: vec![0; VALUE_BYTES],
            op_index: 0,
            record_latencies: false,
        };
        for id in 0..records {
            let ok = bench.apply(KvOp::Insert(id), None).0;
            bench.tally.note(ok);
        }
        // Warm-up: brings the dirty set to its budget, fills the TLB and
        // settles the pressure predictor before anything is timed.
        for _ in 0..warm_ops {
            let op = bench.stream.next_op();
            bench.clock.advance(bench.app_op_base);
            let ok = bench.apply(op, None).0;
            bench.tally.note(ok);
        }
        bench
    }

    pub fn store(&self) -> &H {
        self.kv.heap().heap()
    }

    pub fn store_mut(&mut self) -> &mut H {
        self.kv.heap_mut().heap_mut()
    }

    /// Runs one operation against the store and the model and says whether
    /// they agree. With `timing`, also returns when the program call began
    /// and ended, in nanoseconds since that origin.
    fn apply(&mut self, op: KvOp, timing: Option<Instant>) -> (bool, (u64, u64)) {
        let stamp = || timing.map_or(0, |origin| origin.elapsed().as_nanos() as u64);
        match op {
            KvOp::Get(id) => {
                write_key(&mut self.key, id);
                let start = stamp();
                let got = self.kv.get(&self.key);
                let span = (start, stamp());
                let ok = match (got, self.model.version(id)) {
                    (Ok(Some(value)), Some(version)) => value_matches(&value, id, version),
                    (Ok(None), None) => true,
                    _ => false,
                };
                (ok, span)
            }
            KvOp::Set(id) | KvOp::Insert(id) => {
                let version = match op {
                    KvOp::Set(_) => self.model.versions[id as usize] + 1,
                    _ => 0,
                };
                write_key(&mut self.key, id);
                fill_value(&mut self.value, id, version);
                let start = stamp();
                let done = self.kv.set(&self.key, &self.value);
                let span = (start, stamp());
                match op {
                    KvOp::Set(_) => self.model.versions[id as usize] = version,
                    _ => self.model.next = id + 1,
                }
                (done.is_ok(), span)
            }
            KvOp::Delete(id) => {
                write_key(&mut self.key, id);
                let start = stamp();
                let removed = self.kv.delete(&self.key);
                let span = (start, stamp());
                self.model.oldest = id + 1;
                (removed == Ok(true), span)
            }
            KvOp::Scan { start: first, len } => {
                write_key(&mut self.key, first);
                let start = stamp();
                let got = self.kv.scan(&self.key, len);
                let span = (start, stamp());
                let want = first..(first + len as u64).min(self.model.next);
                let ok = got.is_ok_and(|rows| {
                    rows.len() as u64 == want.end - want.start
                        && rows.iter().zip(want).all(|((key, value), id)| {
                            let mut expect = [0u8; KEY_BYTES];
                            write_key(&mut expect, id);
                            key[..] == expect
                                && self
                                    .model
                                    .version(id)
                                    .is_some_and(|v| value_matches(value, id, v))
                        })
                });
                (ok, span)
            }
        }
    }

    fn step(&mut self, tracer: Option<&mut Tracer>, out: &mut Measured) {
        let index = self.op_index;
        self.op_index += 1;
        // Two samples of one operation in eight each: one times the whole
        // operation and the program call only, the other also every
        // `NvHeap` call inside — whose timers would distort the first.
        let sample = match (&tracer, index % SAMPLE_EVERY) {
            (Some(t), 0) if t.heap_spans => Some(true),
            (Some(_), n) if n == SAMPLE_EVERY / 2 => Some(false),
            _ => None,
        };
        let origin = sample.map(|heap_calls_too| {
            let shim = self.store_mut().shim().expect("traced stores are shimmed");
            shim.sampling = heap_calls_too;
            shim.origin
        });
        let op_start = origin.map_or(0, |o| o.elapsed().as_nanos() as u64);

        let op = self.stream.next_op();
        let virt_start = self.clock.now();
        self.clock.advance(self.app_op_base);
        let (ok, call_span) = self.apply(op, origin);
        self.tally.note(ok);
        out.kind_counts[op.kind()] += 1;
        if self.record_latencies && op.kind() == self.spec.focus {
            out.latencies_ns
                .push((self.clock.now() - virt_start).as_nanos() as u32);
        }

        if let (Some(origin), Some(tracer)) = (origin, tracer) {
            let op_end = origin.elapsed().as_nanos() as u64;
            let shim = self.store_mut().shim().expect("traced stores are shimmed");
            let call = [
                "kvstore.get",
                "kvstore.set",
                "kvstore.set",
                "kvstore.delete",
                "kvstore.scan",
            ][op.kind()];
            let heap = shim.sampling.then_some(&shim.spans[..]);
            tracer.record_op(index, call, (op_start, op_end), call_span, heap);
            shim.sampling = false;
            shim.spans.clear();
        }
    }

    /// The measured phase: `ops` operations in [`SLICES`] timed slices.
    pub fn run(&mut self, ops: u64, mut tracer: Option<&mut Tracer>) -> Measured {
        let mut out = Measured {
            ops,
            ..Measured::default()
        };
        let before = self.store().counters();
        for slice in 0..SLICES as u64 {
            let (lo, hi) = (
                ops * slice / SLICES as u64,
                ops * (slice + 1) / SLICES as u64,
            );
            let start = Instant::now();
            for _ in lo..hi {
                self.step(tracer.as_deref_mut(), &mut out);
            }
            out.slice_secs.push(start.elapsed().as_secs_f64());
            out.dirty_samples.push(self.store().dirty_pages());
        }
        out.counters = self.store().counters().since(&before);
        out
    }

    /// Power failure → recovery → reopen → audit → re-read of every live
    /// key. Each re-read counts as attempted.
    pub fn finish(self) -> Finished {
        self.finish_with(|_| {})
    }

    /// [`KvBench::finish`] with a hook between `recover()` and the reopen,
    /// for the tests that corrupt the recovered image.
    pub fn finish_with(self, after_recover: impl FnOnce(&mut H)) -> Finished {
        let KvBench {
            kv,
            spec,
            model,
            mut tally,
            ..
        } = self;
        let region = kv.heap().region();
        let mut store = kv.into_heap().into_inner();

        let start = Instant::now();
        let report = store.power_failure();
        let power_failure_host_ms = start.elapsed().as_secs_f64() * 1e3;
        let bounded = match spec.backend {
            KvBackend::Viyojit { budget_pages } => report.dirty_pages <= budget_pages,
            KvBackend::Nvdram => true,
        };
        tally.note(bounded && report.pages_lost == 0);

        let start = Instant::now();
        store.recover();
        let recover_host_ms = start.elapsed().as_secs_f64() * 1e3;
        after_recover(&mut store);

        let reopened = PHeap::open(store, region)
            .ok()
            .and_then(|heap| KvStore::open(heap).ok());
        tally.note(reopened.is_some());
        if let Some(mut kv) = reopened {
            let live = model.live();
            tally.note(kv.audit_index() == Ok(live.end - live.start));
            let mut key = [0u8; KEY_BYTES];
            for id in live {
                write_key(&mut key, id);
                let ok = matches!(
                    (kv.get(&key), model.version(id)),
                    (Ok(Some(value)), Some(version)) if value_matches(&value, id, version)
                );
                tally.note(ok);
            }
            // The last deleted id and the first never-inserted one stay absent.
            for id in model.oldest.checked_sub(1).into_iter().chain([model.next]) {
                write_key(&mut key, id);
                tally.note(kv.get(&key) == Ok(None));
            }
        }
        Finished {
            report,
            power_failure_host_ms,
            recover_host_ms,
            tally,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::KvMix;
    use crate::workload::RECORDS;
    use viyojit::NvHeap;

    const SMALL: u64 = 256;

    fn spec(mix: KvMix, focus: usize) -> KvSpec {
        KvSpec {
            backend: KvBackend::Viyojit { budget_pages: 64 },
            mix,
            region_mult: 3,
            focus,
            paper_overhead_pct: None,
        }
    }

    fn small_bench(mix: KvMix) -> KvBench<Viyojit> {
        KvBench::setup(&spec(mix, 1), SMALL, 42, 500, make_viyojit(64))
    }

    #[test]
    fn a_clean_run_fails_nothing() {
        for mix in [KvMix::Ycsb { set_percent: 50 }, KvMix::Churn] {
            let mut bench = small_bench(mix);
            let measured = bench.run(4_000, None);
            assert_eq!(measured.slice_secs.len(), SLICES);
            assert_eq!(measured.kind_counts.iter().sum::<u64>(), 4_000);
            let done = bench.finish();
            assert_eq!(done.tally.failed, 0);
            assert!(done.tally.attempted > 4_000 + SMALL);
            assert!(done.report.dirty_pages <= 64);
        }
    }

    /// Non-vacuity: a single flipped byte in one recovered value is caught.
    #[test]
    fn a_flipped_byte_after_recovery_is_a_failure() {
        let mut bench = small_bench(KvMix::Ycsb { set_percent: 50 });
        bench.run(2_000, None);
        let version = bench.model.version(7).unwrap();
        let region = bench.kv.heap().region();
        let len = bench.store().region_len(region).unwrap();
        let done = bench.finish_with(|store| {
            // Find record 7's value by its tag and damage one fill byte.
            let mut image = vec![0u8; len as usize];
            store.read(region, 0, &mut image).unwrap();
            let mut tag = 7u64.to_le_bytes().to_vec();
            tag.extend_from_slice(&version.to_le_bytes());
            let at = image
                .windows(tag.len())
                .position(|w| w == tag)
                .expect("the value is in the recovered image");
            let victim = at as u64 + 100;
            let flipped = [image[victim as usize] ^ 0x01];
            store.write(region, victim, &flipped).unwrap();
        });
        assert_eq!(done.tally.failed, 1, "exactly the damaged key fails");
    }

    /// Non-vacuity: a store write the model never saw is caught.
    #[test]
    fn a_skipped_model_update_is_a_failure() {
        let mut bench = small_bench(KvMix::Ycsb { set_percent: 50 });
        bench.run(1_000, None);
        let mut key = [0u8; KEY_BYTES];
        write_key(&mut key, 3);
        let mut value = vec![0u8; VALUE_BYTES];
        fill_value(&mut value, 3, bench.model.version(3).unwrap() + 1);
        bench.kv.set(&key, &value).unwrap();
        let done = bench.finish();
        assert!(done.tally.failed > 0);
        assert!(done.tally.failed as f64 / done.tally.attempted as f64 > 0.0);
    }

    #[test]
    fn same_seed_same_simulated_statistics() {
        let run = |seed| {
            let mut bench =
                KvBench::setup(&spec(KvMix::Churn, 2), SMALL, seed, 300, make_viyojit(64));
            bench.record_latencies = true;
            let m = bench.run(3_000, None);
            (m.counters, m.latencies_ns, m.kind_counts)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }

    #[test]
    fn the_region_fits_the_nv_space_at_every_multiple() {
        for mult in [1, 3] {
            assert!(heap_bytes(RECORDS, mult) <= NV_PAGES as u64 * 4096);
        }
    }
}
