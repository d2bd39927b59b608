//! One run of one workload: the untraced end-to-end pass, or the traced
//! pass with its reference, observer and baseline passes and layer drives.

use std::time::Instant;

use viyojit::{Profiler, Telemetry};

use crate::drives;
use crate::gen::{fill_value, write_key, KvStream, KEY_BYTES, VALUE_BYTES};
use crate::kv::{make_nvdram, make_viyojit, Finished, KvBench, Measured, Tally, SLICES};
use crate::metrics::{Outcome, Values};
use crate::shard::{self, Observers, ShardBench};
use crate::stats::{fast_slice_rate, fnv1a_hex, median, percentile_u32, slice_spread_pct};
use crate::store::{Access, Backend, Counters, FlatHeap, Shim};
use crate::trace::Tracer;
use crate::workload::{Kind, KvBackend, KvSpec, Workload, NV_PAGES, RECORDS};

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The profiler slows a pass three- to fourfold; this share of a pass's
/// operations keeps the profiled pass as long as the others.
const PROFILED_SHARE: u64 = 4;
/// `NvHeap` calls of the traced pass kept for the drives to replay.
const RECORD_LIMIT: usize = 200_000;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// A smoke run at 1/20 of the operations; not comparable with full runs.
    pub quick: bool,
}

struct Sizes {
    /// Operations of the end-to-end measured phase.
    measured: u64,
    /// Operations of each pass of a traced run: a quarter of that.
    pass: u64,
    /// Load + this many operations are warm-up, in every pass alike: 1 %
    /// of the measured count, hundreds of epochs and dozens of rebalances,
    /// and short enough that `setup_s` is mostly set-up.
    warm: u64,
}

fn sizes(workload: &Workload, args: &RunArgs) -> Sizes {
    let full = workload.ops_per_second * args.seconds;
    // At least twenty operations in every slice.
    let measured = if args.quick { full / 20 } else { full }.max(SLICES as u64 * 20);
    Sizes {
        measured,
        pass: measured / 4,
        warm: measured / 100,
    }
}

pub fn run(workload: &Workload, args: &RunArgs) -> Outcome {
    let sizes = sizes(workload, args);
    match (&workload.kind, args.trace) {
        (Kind::Kv(spec), false) => match spec.backend {
            KvBackend::Viyojit { budget_pages } => {
                kv_end_to_end(spec, args, &sizes, || make_viyojit(budget_pages))
            }
            KvBackend::Nvdram => kv_end_to_end(spec, args, &sizes, make_nvdram),
        },
        (Kind::Kv(spec), true) => match spec.backend {
            KvBackend::Viyojit { budget_pages } => {
                kv_traced(workload.name, spec, args, &sizes, || {
                    make_viyojit(budget_pages)
                })
            }
            KvBackend::Nvdram => kv_traced(workload.name, spec, args, &sizes, make_nvdram),
        },
        (Kind::Shard { parallel }, false) => shard_end_to_end(*parallel, args, &sizes),
        (Kind::Shard { parallel }, true) => shard_traced(workload.name, *parallel, args, &sizes),
    }
}

/// `VmHWM` of this process: every workload runs in a process of its own.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn digest(measured: &Measured, done: &Finished) -> String {
    let mut text = String::new();
    for (name, value) in measured.counters.fields() {
        text.push_str(&format!("{name}={value}\n"));
    }
    let r = &done.report;
    text.push_str(&format!(
        "failure={},{},{},{},{}\nkinds={:?}\n",
        r.dirty_pages,
        r.pages_flushed,
        r.pages_lost,
        r.bytes_flushed,
        r.flush_time.as_nanos(),
        measured.kind_counts
    ));
    fnv1a_hex(&text)
}

/// The three simulated end-to-end metrics, from the measured phase's
/// counters and the end-of-run power failure.
fn virtual_end_to_end(
    values: &mut Values,
    measured: &Measured,
    done: &Finished,
    nv_bytes_written: u64,
    capacity_pages: usize,
) {
    let c = &measured.counters;
    values.set(
        "virt_ops_per_s",
        measured.ops as f64 / (c.virt_ns as f64 / 1e9),
    );
    values.set(
        "battery_need_pct",
        100.0 * done.report.dirty_pages as f64 / capacity_pages as f64,
    );
    values.set(
        "ssd_bytes_per_nv_byte",
        (c.ssd_bytes_written + done.report.bytes_flushed) as f64 / nv_bytes_written as f64,
    );
}

fn host_end_to_end(values: &mut Values, setups: &[f64], measured: &Measured) {
    values.set("setup_s", median(setups));
    values.set(
        "host_ops_per_s",
        fast_slice_rate(measured.ops, &measured.slice_secs),
    );
    values.set("peak_rss_mib", peak_rss_mib());
}

fn end_to_end_outcome(values: Values, measured: &Measured, done: &Finished) -> Outcome {
    Outcome {
        traced: false,
        attempted: done.tally.attempted,
        failed: done.tally.failed,
        values,
        virt_digest: digest(measured, done),
        notes: vec![
            ("measured_ops".into(), measured.ops.to_string()),
            (
                "measured_s".into(),
                format!("{:.3}", measured.slice_secs.iter().sum::<f64>()),
            ),
            (
                "slice_spread_pct".into(),
                format!("{:.2}", slice_spread_pct(&measured.slice_secs)),
            ),
            // Shows whether a slow run was slow throughout or hit by bursts.
            ("slice_kops_per_s".into(), {
                let mut secs = measured.slice_secs.clone();
                secs.sort_by(|a, b| b.total_cmp(a));
                let kops = |share: f64| {
                    let at = ((secs.len() - 1) as f64 * share) as usize;
                    measured.ops as f64 / SLICES as f64 / secs[at] / 1e3
                };
                format!(
                    "min {:.0}  p25 {:.0}  p50 {:.0}  p75 {:.0}  p95 {:.0}  max {:.0}",
                    kops(0.0),
                    kops(0.25),
                    kops(0.5),
                    kops(0.75),
                    kops(0.95),
                    kops(1.0)
                )
            }),
        ],
    }
}

/// Sets up `SETUPS` times, timing each; the last one is measured.
fn timed_setups<B>(mut setup: impl FnMut() -> B) -> (Vec<f64>, B) {
    let mut secs = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take()); // freed outside the timed region
        let start = Instant::now();
        bench = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (secs, bench.expect("SETUPS is positive"))
}

fn kv_end_to_end<H: Backend>(
    spec: &KvSpec,
    args: &RunArgs,
    sizes: &Sizes,
    make: impl Fn() -> H,
) -> Outcome {
    let (setups, mut bench) =
        timed_setups(|| KvBench::setup(spec, RECORDS, args.seed, sizes.warm, make()));
    let measured = bench.run(sizes.measured, None);
    let done = bench.finish();
    let mut values = Values::default();
    host_end_to_end(&mut values, &setups, &measured);
    let nv_bytes = measured.counters.mmu_bytes_written;
    virtual_end_to_end(&mut values, &measured, &done, nv_bytes, NV_PAGES);
    end_to_end_outcome(values, &measured, &done)
}

fn shard_end_to_end(parallel: bool, args: &RunArgs, sizes: &Sizes) -> Outcome {
    let (setups, mut bench) =
        timed_setups(|| ShardBench::setup(parallel, args.seed, sizes.warm, &Observers::default()));
    let measured = bench.run(sizes.measured, None);
    let clock_ok = bench.clock_agrees_with_ticks();
    let mut done = bench.finish();
    done.tally.note(clock_ok);
    let mut values = Values::default();
    host_end_to_end(&mut values, &setups, &measured);
    let nv_bytes = measured.ops * shard::WRITE_BYTES as u64;
    let capacity = shard::SHARDS * shard::PAGES_PER_SHARD;
    virtual_end_to_end(&mut values, &measured, &done, nv_bytes, capacity);
    end_to_end_outcome(values, &measured, &done)
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

fn per_kop(count: u64, ops: u64) -> f64 {
    1e3 * count as f64 / ops as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn pass_rate(measured: &Measured) -> f64 {
    fast_slice_rate(measured.ops, &measured.slice_secs)
}

/// What every traced run says about the harness and the observers: each
/// pass's fast-slice rate against the reference pass's.
fn harness_metrics(
    values: &mut Values,
    tracer: &Tracer,
    [reference, traced, with_telemetry, with_profiler]: [&Measured; 4],
    dropped_events: u64,
) {
    let reference_rate = pass_rate(reference);
    let overhead_pct = |m: &Measured| 100.0 * (reference_rate / pass_rate(m) - 1.0);
    values.set(
        "driver.slice_spread_pct",
        slice_spread_pct(&reference.slice_secs),
    );
    values.set("trace.timer_ns", tracer.timer.outer_ns / 2.0);
    values.set("trace.overhead_pct", overhead_pct(traced));
    values.set("telemetry.on_overhead_pct", overhead_pct(with_telemetry));
    values.set(
        "telemetry.profiler_overhead_pct",
        overhead_pct(with_profiler),
    );
    values.set("telemetry.dropped_events", dropped_events as f64);
    let dispatch = mem_sim::dispatch::snapshot();
    values.set("mem-sim.dispatch.skip", dispatch.skip as f64);
    values.set("mem-sim.dispatch.dense", dispatch.dense as f64);
    values.set("mem-sim.dispatch.unrolled", dispatch.unrolled as f64);
    values.set("sim-clock.advance.ns_per_call", drives::clock_advance());
}

/// Counts that every workload with a control loop reports, per 1 000 ops.
fn viyojit_counts(values: &mut Values, c: &Counters, ops: u64, done: &Finished) {
    values.set("viyojit.faults_per_kop", per_kop(c.faults, ops));
    values.set(
        "viyojit.pages_dirtied_per_kop",
        per_kop(c.pages_dirtied, ops),
    );
    values.set(
        "viyojit.forced_flushes_per_kop",
        per_kop(c.forced_flushes, ops),
    );
    values.set(
        "viyojit.proactive_flushes_per_kop",
        per_kop(c.proactive_flushes, ops),
    );
    values.set(
        "viyojit.proactive_share",
        ratio(c.proactive_flushes as f64, c.flushes() as f64),
    );
    values.set(
        "viyojit.budget_stalls_per_kop",
        per_kop(c.budget_stalls, ops),
    );
    values.set(
        "viyojit.stall_virt_share",
        ratio(c.stall_ns as f64, c.virt_ns as f64),
    );
    values.set(
        "viyojit.in_flight_collisions_per_kop",
        per_kop(c.in_flight_collisions, ops),
    );
    values.set("viyojit.epochs_per_kop", per_kop(c.epochs, ops));
    values.set(
        "viyojit.walk_touches_per_epoch",
        ratio(c.walk_touches as f64, c.epochs as f64),
    );
    values.set(
        "viyojit.dirty_at_failure_pages",
        done.report.dirty_pages as f64,
    );
    values.set(
        "viyojit.failure_flush_ms",
        done.report.flush_time.as_nanos() as f64 / 1e6,
    );
    values.set("viyojit.power_failure.host_ms", done.power_failure_host_ms);
    values.set("viyojit.recover.host_ms", done.recover_host_ms);
    values.set("ssd-sim.writes_per_kop", per_kop(c.ssd_writes, ops));
    values.set("ssd-sim.bytes_written", c.ssd_bytes_written as f64);
    values.set("ssd-sim.write_errors", c.ssd_write_errors as f64);
    values.set("ssd-sim.erases", c.ssd_erases as f64);
}

/// Shares of the pass's virtual time by cost class, from the `Profiler`.
fn virtual_shares(values: &mut Values, profiler: &Profiler) {
    let Some(report) = profiler.report() else {
        return;
    };
    values.set("virt.conserved", f64::from(u8::from(report.is_conserved())));
    let elapsed = report.elapsed.as_nanos() as f64;
    let share = |class: &str| ratio(report.class_nanos(class) as f64, elapsed);
    values.set("virt.wp_trap_share", share("wp_trap"));
    values.set("virt.tlb_miss_share", share("tlb_miss"));
    values.set("virt.tlb_flush_share", share("tlb_flush"));
    values.set("virt.pte_update_share", share("pte_update"));
    values.set("virt.pte_walk_share", share("pte_walk"));
    values.set("virt.dram_access_share", share("dram_access"));
    values.set("virt.epoch_walk_share", share("epoch_walk"));
    values.set("virt.copy_out_io_share", share("copy_out_io"));
    values.set("virt.budget_stall_share", share("budget_stall"));
    values.set("virt.app_share", share(PROFILER_ROOT));
    // Device time overlaps the clock, so it is accounted beside it.
    let aux = |class: &str| {
        let nanos = report
            .aux
            .iter()
            .find(|(name, _, _)| *name == class)
            .map_or(0, |&(_, _, nanos)| nanos);
        ratio(nanos as f64, elapsed)
    };
    values.set("virt.ssd_queue_wait_share", aux("ssd_queue_wait"));
    values.set("virt.ssd_transfer_share", aux("ssd_transfer"));
}

/// The profiler's root frame (`telemetry::ROOT_FRAME`), which absorbs the
/// time outside every span.
const PROFILER_ROOT: &str = "app";

fn write_trace(workload: &str, tracer: &Tracer) -> String {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.raw_jsonl()));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written ({e})"),
    }
}

fn gen_ns_per_op(spec: &KvSpec, seed: u64, ops: u64) -> f64 {
    let mut stream = KvStream::new(spec.mix.clone(), RECORDS, seed);
    let (mut key, mut value) = ([0u8; KEY_BYTES], vec![0u8; VALUE_BYTES]);
    let start = Instant::now();
    for _ in 0..ops {
        let id = std::hint::black_box(stream.next_op()).id();
        write_key(&mut key, id);
        fill_value(&mut value, id, 1);
        std::hint::black_box((&key, &value));
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

struct Pass {
    measured: Measured,
    done: Finished,
}

/// What the shim saw of a measured phase.
#[derive(Default)]
struct Observed {
    recorded: Vec<Access>,
    calls: u64,
    bytes: u64,
}

/// Set up, let the caller attach an observer, and measure. The caller
/// finishes the bench (power cycle and verification) when it has read
/// what it wants from the still-running store.
fn kv_measure<H: Backend>(
    spec: &KvSpec,
    args: &RunArgs,
    sizes: &Sizes,
    ops: u64,
    store: H,
    before_measuring: impl FnOnce(&mut H),
    tracer: Option<&mut Tracer>,
) -> (KvBench<H>, Measured, Observed) {
    let mut bench = KvBench::setup(spec, RECORDS, args.seed, sizes.warm, store);
    bench.record_latencies = true;
    before_measuring(bench.store_mut());
    let seen =
        |shim: &crate::store::ShimState| (shim.calls(), shim.bytes_read + shim.bytes_written);
    let before = bench
        .store_mut()
        .shim()
        .map(|s| seen(s))
        .unwrap_or_default();
    let measured = bench.run(ops, tracer);
    let observed = bench
        .store_mut()
        .shim()
        .map_or_else(Observed::default, |shim| {
            let after = seen(shim);
            Observed {
                recorded: std::mem::take(&mut shim.recorded),
                calls: after.0 - before.0,
                bytes: after.1 - before.1,
            }
        });
    (bench, measured, observed)
}

fn kv_pass<H: Backend>(
    spec: &KvSpec,
    args: &RunArgs,
    sizes: &Sizes,
    store: H,
    before_measuring: impl FnOnce(&mut H),
) -> Pass {
    let (bench, measured, _) =
        kv_measure(spec, args, sizes, sizes.pass, store, before_measuring, None);
    Pass {
        measured,
        done: bench.finish(),
    }
}

/// Per operation on a quiet machine: the untraced operation, and its parts
/// above and below the `NvHeap` boundary.
struct Layers {
    op_ns: f64,
    above: f64,
    busy: f64,
}

/// The layer drives on what the traced pass recorded, the estimates they
/// give with the run's exact counts, and the ledger. Returns the steady
/// dirty population the walk drives ran at.
fn drives_and_ledger(
    values: &mut Values,
    tracked: bool,
    reference: &Measured,
    observed: &Observed,
    Layers { op_ns, above, busy }: Layers,
) -> usize {
    let (c, ops) = (&reference.counters, reference.ops);
    let (recorded, calls) = (&observed.recorded[..], observed.calls);
    // Drives, on what the traced pass recorded.
    let pages = drives::written_pages(recorded);
    let dirty = median(
        &reference
            .dirty_samples
            .iter()
            .map(|&d| d as f64)
            .collect::<Vec<_>>(),
    ) as usize;
    let calls_per_flush = (c.mmu_reads + c.mmu_writes).checked_div(c.tlb_flushes);
    let mmu_ns = drives::mmu_access(recorded, calls_per_flush);
    let fault_ns = drives::fault_cycle(&pages);
    let walk_ns = drives::walk_per_page(&pages, dirty);
    let dirtyset_ns = drives::dirtyset_cycle(&pages);
    let (selector_ns, touch_ns) = drives::selector_cycle(&pages, dirty);
    let submit_ns = drives::ssd_submit(&pages);
    let copy_ns = drives::snapshot_copy(&pages);
    let call_ns = drives::engine_call_overhead(recorded, tracked, mmu_ns);
    let pheap = drives::pheap_self();
    values.set("mem-sim.read.ns_per_call", mmu_ns.0);
    values.set("mem-sim.write.ns_per_call", mmu_ns.1);
    values.set("mem-sim.fault_cycle.ns", fault_ns);
    values.set("mem-sim.walk.ns_per_page", walk_ns);
    values.set("viyojit.dirtyset.cycle_ns", dirtyset_ns);
    values.set("viyojit.selector.cycle_ns", selector_ns);
    values.set("viyojit.history.touch_ns", touch_ns);
    values.set("viyojit.call_overhead_ns", call_ns);
    values.set("viyojit.snapshot_copy_ns", copy_ns);
    values.set("ssd-sim.submit.ns_per_call", submit_ns);
    values.set("pheap.read8.self_ns", pheap.read8_self_ns);
    values.set("pheap.write8.self_ns", pheap.write8_self_ns);
    values.set("pheap.write976.self_ns", pheap.write976_self_ns);
    values.set("pheap.alloc_free.self_ns", pheap.alloc_free_self_ns);
    values.set(
        "pheap.alloc_free.nvheap_calls",
        pheap.alloc_free_nvheap_calls,
    );

    // Estimates: exact count per op × drive cost.
    let n = ops as f64;
    let (reads, writes) = (c.mmu_reads as f64 / n, c.mmu_writes as f64 / n);
    let walked_per_op = dirty as f64 * c.epochs as f64 / n;
    let mem_est = reads * mmu_ns.0
        + writes * mmu_ns.1
        + (c.write_faults as f64 / n) * (fault_ns - mmu_ns.1).max(0.0)
        + walked_per_op * walk_ns;
    let ssd_est = (c.flushes() as f64 / n) * submit_ns;
    let viyojit_est = (calls as f64 / n) * call_ns
        + (c.faults as f64 / n) * (dirtyset_ns + selector_ns + touch_ns)
        + (c.walk_touches as f64 / n) * (touch_ns + selector_ns)
        + (c.flushes() as f64 / n) * copy_ns;
    values.set("mem-sim.est_ns_per_op", mem_est);
    values.set("ssd-sim.est_ns_per_op", ssd_est);
    values.set("viyojit.est_self_ns_per_op", viyojit_est);
    // Every pheap read or write checks the block header first (one 8 B
    // read), so writes = NvHeap writes and reads = half the rest.
    let shim_writes = recorded.iter().filter(|a| a.write).count() as f64;
    let write_share = ratio(shim_writes, recorded.len() as f64);
    let heap_writes = (calls as f64 / n) * write_share;
    let heap_reads = ((calls as f64 / n) - 2.0 * heap_writes).max(0.0) / 2.0;
    let large = ratio(
        recorded.iter().filter(|a| a.write && a.len >= 512).count() as f64,
        shim_writes,
    );
    let counts = &reference.kind_counts;
    let allocs_per_op = 3.0 * (counts[2] + counts[3]) as f64 / 2.0 / n;
    let pheap_est = heap_reads * pheap.read8_self_ns
        + heap_writes * ((1.0 - large) * pheap.write8_self_ns + large * pheap.write976_self_ns)
        + allocs_per_op * pheap.alloc_free_self_ns;
    values.set("pheap.est_self_ns_per_op", pheap_est.min(above));
    values.set("kvstore.est_self_ns_per_op", (above - pheap_est).max(0.0));
    // The ledger: how much of an operation the bottom-up estimates miss.
    values.set(
        "ledger.unattributed_share",
        ratio((busy - (viyojit_est + mem_est + ssd_est)).abs(), op_ns),
    );
    dirty
}

fn kv_traced<H: Backend>(
    name: &str,
    spec: &KvSpec,
    args: &RunArgs,
    sizes: &Sizes,
    make: impl Fn() -> H,
) -> Outcome {
    let ops = sizes.pass;
    let mut values = Values::default();
    let mut tally = Tally::default();

    // Reference: the end-to-end configuration at pass length.
    let mut reference = kv_pass(spec, args, sizes, make(), |_| {});
    tally.absorb(reference.done.tally);

    // Traced: the same stream behind the shim, spans on every eighth op.
    let mut tracer = Tracer::new();
    let (bench, traced, observed) = kv_measure(
        spec,
        args,
        sizes,
        ops,
        Shim::new(make(), 0),
        |shim| shim.shim().expect("a shim").record_limit = RECORD_LIMIT,
        Some(&mut tracer),
    );
    tally.absorb(bench.finish().tally);
    // Observation must not change what is simulated.
    tally.note(traced.counters == reference.measured.counters);
    tracer.timer = drives::timer_cost(&observed.recorded);

    // Observers on, one at a time, attached when the measured phase starts.
    let mut telemetry = Telemetry::disabled();
    let with_telemetry = kv_pass(spec, args, sizes, make(), |store| {
        telemetry = Telemetry::recording(store.clock().clone());
        store.attach_telemetry(telemetry.clone());
    });
    tally.absorb(with_telemetry.done.tally);
    let mut profiler = Profiler::disabled();
    let (bench, with_profiler, _) = kv_measure(
        spec,
        args,
        sizes,
        ops / PROFILED_SHARE,
        make(),
        |store| {
            profiler = Profiler::enabled(store.clock().clone());
            store.attach_profiler(profiler.clone());
        },
        None,
    );
    // Read before the power failure adds its flush to the profile.
    virtual_shares(&mut values, &profiler);
    tally.absorb(bench.finish().tally);

    values.set("driver.gen_ns_per_op", gen_ns_per_op(spec, args.seed, ops));
    values.set("driver.op_p50_ns", tracer.percentile_ns("driver.op", 50.0));
    values.set("driver.op_p999_ns", tracer.percentile_ns("driver.op", 99.9));
    harness_metrics(
        &mut values,
        &tracer,
        [
            &reference.measured,
            &traced,
            &with_telemetry.measured,
            &with_profiler,
        ],
        telemetry.dropped_events(),
    );

    // What applies to key-value workloads only.
    let c = reference.measured.counters;
    let latencies = &mut reference.measured.latencies_ns;
    values.set("kv.virt_p50_us", percentile_u32(latencies, 50.0) / 1e3);
    values.set("kv.virt_p99_us", percentile_u32(latencies, 99.0) / 1e3);
    values.set("kv.virt_latency_samples", latencies.len() as f64);
    if let KvBackend::Viyojit { .. } = spec.backend {
        // The same stream with a full-capacity battery: Fig. 7's baseline.
        let baseline_spec = KvSpec {
            backend: KvBackend::Nvdram,
            ..spec.clone()
        };
        let baseline = kv_pass(&baseline_spec, args, sizes, make_nvdram(), |_| {});
        tally.absorb(baseline.done.tally);
        let overhead = 100.0 * (1.0 - baseline.measured.counters.virt_ns as f64 / c.virt_ns as f64);
        values.set("paper.virt_overhead_pct", overhead);
        if let Some(paper) = spec.paper_overhead_pct {
            values.set("paper.fidelity_err_pp", (overhead - paper).abs());
        }
    }

    // kvstore and viyojit, from the spans.
    values.set("kvstore.get.ns_per_call", tracer.mean_ns("kvstore.get"));
    values.set("kvstore.set.ns_per_call", tracer.mean_ns("kvstore.set"));
    values.set(
        "kvstore.delete.ns_per_call",
        tracer.mean_ns("kvstore.delete"),
    );
    values.set("kvstore.scan.ns_per_call", tracer.mean_ns("kvstore.scan"));
    // Above the `NvHeap` boundary, alone: the program call timed over
    // plain memory, less the memory copies. What is left of the untraced
    // operation below the boundary is `viyojit`'s. All per operation on a
    // quiet machine: pass times are their fast slice, drives their fastest
    // round, and span means are scaled by how much their pass was slowed.
    let mut flat_tracer = Tracer::new();
    flat_tracer.heap_spans = false;
    flat_tracer.timer = tracer.timer;
    let (bench, flat, _) = kv_measure(
        spec,
        args,
        sizes,
        ops,
        Shim::new(FlatHeap::new(), 0),
        |_| {},
        Some(&mut flat_tracer),
    );
    tally.absorb(bench.finish().tally);
    let slowdown =
        |m: &Measured| (m.slice_secs.iter().sum::<f64>() * pass_rate(m) / m.ops as f64).max(1.0);
    let calls_per_op = observed.calls as f64 / ops as f64;
    let driver_self = tracer.driver_self_ns_per_op() / slowdown(&traced);
    let op_ns = 1e9 / pass_rate(&reference.measured);
    let above = (flat_tracer.call_ns_per_op() / slowdown(&flat)
        - calls_per_op * drives::flat_call(&observed.recorded))
    .max(0.0);
    let busy = (op_ns - driver_self - above).max(0.0);
    values.set("kvstore.above_nvheap_ns_per_op", above);
    values.set("viyojit.read.ns_per_call", tracer.mean_ns("viyojit.read"));
    values.set("viyojit.write.ns_per_call", tracer.mean_ns("viyojit.write"));
    values.set(
        "viyojit.write.p50_ns",
        tracer.percentile_ns("viyojit.write", 50.0),
    );
    values.set(
        "viyojit.write.p999_ns",
        tracer.percentile_ns("viyojit.write", 99.9),
    );
    values.set("viyojit.busy_ns_per_op", busy);

    // Exact counts.
    viyojit_counts(&mut values, &c, ops, &reference.done);
    values.set("pheap.nvheap_calls_per_op", calls_per_op);
    values.set(
        "pheap.nvheap_bytes_per_op",
        observed.bytes as f64 / ops as f64,
    );
    let accesses = c.mmu_reads + c.mmu_writes;
    values.set("mem-sim.accesses_per_op", accesses as f64 / ops as f64);
    values.set(
        "mem-sim.tlb_hit_rate",
        ratio(c.tlb_hits as f64, (c.tlb_hits + c.tlb_misses) as f64),
    );
    values.set("mem-sim.tlb_flushes_per_kop", per_kop(c.tlb_flushes, ops));
    values.set("mem-sim.write_faults_per_kop", per_kop(c.write_faults, ops));
    values.set("mem-sim.pte_dirtied_per_kop", per_kop(c.pte_dirtied, ops));

    let tracked = matches!(spec.backend, KvBackend::Viyojit { .. });
    let dirty = drives_and_ledger(
        &mut values,
        tracked,
        &reference.measured,
        &observed,
        Layers { op_ns, above, busy },
    );

    Outcome {
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        virt_digest: digest(&reference.measured, &reference.done),
        notes: vec![
            ("pass_ops".into(), ops.to_string()),
            (
                "sampled_ops".into(),
                format!(
                    "{} + {} with NvHeap calls timed",
                    tracer.light_ops, tracer.heavy_ops
                ),
            ),
            ("steady_dirty_pages".into(), dirty.to_string()),
            ("untraced_op_ns".into(), format!("{op_ns:.1}")),
            ("driver_self_ns_per_op".into(), format!("{driver_self:.1}")),
            (
                "traced_pass_slowdown".into(),
                format!("{:.3}", slowdown(&traced)),
            ),
            (
                "traced_call_ns_per_op".into(),
                format!("{:.1}", tracer.call_ns_per_op()),
            ),
            // What the innermost spans add up to; the clock reads around
            // each call slow it, so this runs above `viyojit.busy_ns_per_op`.
            (
                "span_busy_ns_per_op".into(),
                format!("{:.1}", tracer.span_busy_ns_per_op()),
            ),
            (
                "timer_inner_outer_ns".into(),
                format!("{:.1} {:.1}", tracer.timer.inner_ns, tracer.timer.outer_ns),
            ),
            ("trace_file".into(), write_trace(name, &tracer)),
        ],
    }
}

fn shard_pass(
    parallel: bool,
    args: &RunArgs,
    sizes: &Sizes,
    observers: &Observers,
    tracer: Option<&mut Tracer>,
) -> (Pass, u64) {
    let mut bench = ShardBench::setup(parallel, args.seed, sizes.warm, observers);
    let measured = bench.run(sizes.pass, tracer);
    let rebalances = bench.rebalances();
    let done = bench.finish();
    (Pass { measured, done }, rebalances)
}

fn shard_traced(name: &str, parallel: bool, args: &RunArgs, sizes: &Sizes) -> Outcome {
    let ops = sizes.pass;
    let mut values = Values::default();
    let mut tally = Tally::default();
    let off = Observers::default();

    let (reference, rebalances) = shard_pass(parallel, args, sizes, &off, None);
    tally.absorb(reference.done.tally);
    let reference_rate = pass_rate(&reference.measured);
    let (other, _) = shard_pass(!parallel, args, sizes, &off, None);
    tally.absorb(other.done.tally);
    // The two modes promise identical statistics for one driver.
    tally.note(other.measured.counters == reference.measured.counters);
    let (seq_rate, par_rate) = if parallel {
        (pass_rate(&other.measured), reference_rate)
    } else {
        (reference_rate, pass_rate(&other.measured))
    };

    let mut tracer = Tracer::new();
    let (traced, _) = shard_pass(parallel, args, sizes, &off, Some(&mut tracer));
    tally.absorb(traced.done.tally);
    tally.note(traced.measured.counters == reference.measured.counters);
    // The shard spans time 64 B writes one at a time.
    let write = Access {
        offset: 0,
        len: shard::WRITE_BYTES as u32,
        write: true,
    };
    tracer.timer = drives::timer_cost(&vec![write; 10_000]);

    let mut on = Observers::default();
    on.telemetry = Telemetry::recording(on.clock.clone());
    let (with_telemetry, _) = shard_pass(parallel, args, sizes, &on, None);
    tally.absorb(with_telemetry.done.tally);
    let dropped = on.telemetry.dropped_events();
    let mut on = Observers::default();
    on.profiler = Profiler::enabled(on.clock.clone());
    let (with_profiler, _) = shard_pass(parallel, args, sizes, &on, None);
    tally.absorb(with_profiler.done.tally);

    harness_metrics(
        &mut values,
        &tracer,
        [
            &reference.measured,
            &traced.measured,
            &with_telemetry.measured,
            &with_profiler.measured,
        ],
        dropped,
    );
    // Worker threads fork the profiler; only the inline mode's report is
    // reachable from outside.
    if !parallel {
        virtual_shares(&mut values, &on.profiler);
    }
    viyojit_counts(
        &mut values,
        &reference.measured.counters,
        ops,
        &reference.done,
    );
    values.set(
        "viyojit.shard.write.ns_per_call",
        tracer.mean_ns("viyojit.shard.write"),
    );
    values.set(
        "viyojit.shard.step.ns_per_call",
        tracer.mean_ns("viyojit.shard.step"),
    );
    values.set(
        "viyojit.shard.sync.ns_per_call",
        tracer.mean_ns("viyojit.shard.sync"),
    );
    values.set("viyojit.shard.rebalances", rebalances as f64);
    values.set("viyojit.shard.par_over_seq", par_rate / seq_rate);

    Outcome {
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        virt_digest: digest(&reference.measured, &reference.done),
        notes: vec![
            ("pass_ops".into(), ops.to_string()),
            ("trace_file".into(), write_trace(name, &tracer)),
        ],
    }
}
