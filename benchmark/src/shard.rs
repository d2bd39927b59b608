//! The sharded workloads: `shard_wallclock`'s deployment and stream through
//! the sequential frontend or the thread-parallel runtime.
//!
//! The builder defaults apply (free cost model, instant SSD), as in
//! `shard_wallclock`: virtual time then moves only on `step`, which is the
//! condition under which the two modes promise identical statistics — so
//! `shard_par`'s digest must equal `shard_seq`'s.

use std::time::Instant;

use mem_sim::PAGE_SIZE;
use sim_clock::{Clock, SimDuration};
use viyojit::{
    NvHeap, Profiler, RegionId, ShardControlHandle, ShardControlPlane, ShardDataHandle,
    ShardDataPlane, ShardedViyojit, ShardedViyojitBuilder, Telemetry, ViyojitConfig, ViyojitError,
};

use crate::gen::{ShardStream, SHARD_REGIONS, SHARD_REGION_PAGES};
use crate::kv::{Finished, Measured, Tally, SLICES};
use crate::store::Counters;
use crate::trace::Tracer;

const PAGE: u64 = PAGE_SIZE as u64;
pub const SHARDS: usize = 8;
pub const PAGES_PER_SHARD: usize = 4_096;
pub const GLOBAL_BUDGET: u64 = 512;
const MIN_PER_SHARD: u64 = 16;
pub const WRITE_BYTES: usize = 64;
/// Writes between 1 ms `step`s, the rebalance heartbeat.
const WRITES_PER_TICK: u64 = 200;
const TICK: SimDuration = SimDuration::from_millis(1);
/// One write in this many is timed in the traced pass.
const SAMPLE_EVERY: u64 = 64;
const UNWRITTEN: u16 = u16::MAX;

/// Observers to attach; both off for every end-to-end number.
#[derive(Debug, Clone, Default)]
pub struct Observers {
    pub telemetry: Telemetry,
    pub profiler: Profiler,
    pub clock: Clock,
}

fn builder(observers: &Observers) -> ShardedViyojitBuilder {
    ShardedViyojitBuilder::new(
        SHARDS,
        PAGES_PER_SHARD,
        ViyojitConfig::builder(GLOBAL_BUDGET)
            .total_pages(PAGES_PER_SHARD as u64)
            .build()
            .expect("valid shard configuration"),
    )
    .min_per_shard(MIN_PER_SHARD)
    .rebalance_period(SimDuration::from_millis(5))
    .clock(observers.clock.clone())
    .telemetry(observers.telemetry.clone())
    .profiler(observers.profiler.clone())
}

enum Cluster {
    Seq(Box<ShardedViyojit>),
    /// One worker thread: with the driver that is `nproc` on the reference
    /// host, and what remains over `Seq` is transport alone.
    Par(ShardDataHandle, ShardControlHandle),
}

impl Cluster {
    fn control(&mut self) -> &mut dyn ShardControlPlane {
        match self {
            Cluster::Seq(nv) => nv.as_mut(),
            Cluster::Par(_, ctrl) => ctrl,
        }
    }

    fn counters(&mut self, ticks: u64) -> Result<Counters, ViyojitError> {
        let mut c = Counters {
            virt_ns: ticks * TICK.as_nanos(),
            ..Counters::default()
        };
        c.set_viyojit(&self.control().stats()?);
        // Erase counts are not reachable through the parallel handles, so
        // neither mode reports them.
        let ssd = match self {
            Cluster::Seq(nv) => nv.ssd_stats(),
            Cluster::Par(_, ctrl) => ctrl.ssd_stats()?,
        };
        c.set_ssd(&ssd, 0);
        Ok(c)
    }
}

/// Everything about the traffic that is independent of the execution mode.
struct Traffic {
    regions: Vec<RegionId>,
    stream: ShardStream,
    /// Last byte written to each `(region, page)`, or [`UNWRITTEN`].
    model: Vec<u16>,
    writes: u64,
    ticks: u64,
    tally: Tally,
}

pub struct ShardBench {
    cluster: Cluster,
    traffic: Traffic,
}

/// The timed loop, generic so that each mode's calls are static.
fn drive<D: NvHeap + ShardDataPlane>(
    nv: &mut D,
    t: &mut Traffic,
    count: u64,
    mut tracer: Option<&mut Tracer>,
) {
    for _ in 0..count {
        let (region, page) = t.stream.next_write();
        let byte = (t.writes % 251) as u8;
        let sampled = tracer.is_some() && t.writes.is_multiple_of(SAMPLE_EVERY);
        let start = sampled.then(Instant::now);
        let done = nv.write(t.regions[region], page * PAGE, &[byte; WRITE_BYTES]);
        if let (Some(start), Some(tracer)) = (start, tracer.as_deref_mut()) {
            tracer.record_flat("viyojit.shard.write", start.elapsed().as_nanos() as u64);
        }
        t.tally.note(done.is_ok());
        t.model[region * SHARD_REGION_PAGES as usize + page as usize] = byte as u16;
        t.writes += 1;
        if t.writes.is_multiple_of(WRITES_PER_TICK) {
            let start = Instant::now();
            let stepped = nv.step(TICK);
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record_flat("viyojit.shard.step", start.elapsed().as_nanos() as u64);
            }
            t.tally.note(stepped.is_ok());
            t.ticks += 1;
        }
    }
    // Drain what the parallel runtime staged, so a slice pays for its own
    // writes; a no-op inline.
    let start = Instant::now();
    let synced = nv.sync();
    if let Some(tracer) = tracer {
        tracer.record_flat("viyojit.shard.sync", start.elapsed().as_nanos() as u64);
    }
    t.tally.note(synced.is_ok());
}

impl ShardBench {
    /// Build (spawning the worker in parallel mode), map the regions and
    /// warm up: everything `setup_s` times.
    pub fn setup(parallel: bool, seed: u64, warm_writes: u64, observers: &Observers) -> Self {
        let builder = builder(observers);
        let mut cluster = if parallel {
            let (data, ctrl) = builder
                .threads(1)
                .build_parallel()
                .expect("valid shard configuration");
            Cluster::Par(data, ctrl)
        } else {
            Cluster::Seq(Box::new(
                builder
                    .build_sequential()
                    .expect("valid shard configuration"),
            ))
        };
        let regions = (0..SHARD_REGIONS)
            .map(|_| {
                let bytes = SHARD_REGION_PAGES * PAGE;
                match &mut cluster {
                    Cluster::Seq(nv) => nv.map(bytes),
                    Cluster::Par(data, _) => data.map(bytes),
                }
                .expect("sixteen regions fit eight shards")
            })
            .collect();
        let mut bench = ShardBench {
            cluster,
            traffic: Traffic {
                regions,
                stream: ShardStream::new(seed),
                model: vec![UNWRITTEN; (SHARD_REGIONS * SHARD_REGION_PAGES) as usize],
                writes: 0,
                ticks: 0,
                tally: Tally::default(),
            },
        };
        bench.write(warm_writes, None);
        bench
    }

    fn write(&mut self, count: u64, tracer: Option<&mut Tracer>) {
        match &mut self.cluster {
            Cluster::Seq(nv) => drive(nv.as_mut(), &mut self.traffic, count, tracer),
            Cluster::Par(data, _) => drive(data, &mut self.traffic, count, tracer),
        }
    }

    fn counters(&mut self) -> Counters {
        self.cluster
            .counters(self.traffic.ticks)
            .expect("no shard thread died")
    }

    /// The measured phase: `writes` writes in [`SLICES`] timed slices.
    pub fn run(&mut self, writes: u64, mut tracer: Option<&mut Tracer>) -> Measured {
        let mut out = Measured {
            ops: writes,
            ..Measured::default()
        };
        let before = self.counters();
        for slice in 0..SLICES as u64 {
            let count = writes * (slice + 1) / SLICES as u64 - writes * slice / SLICES as u64;
            let start = Instant::now();
            self.write(count, tracer.as_deref_mut());
            out.slice_secs.push(start.elapsed().as_secs_f64());
        }
        out.counters = self.counters().since(&before);
        out
    }

    pub fn rebalances(&mut self) -> u64 {
        self.cluster
            .control()
            .rebalances()
            .expect("the arbiter is alive")
    }

    /// In sequential mode the shared clock is readable: it must agree with
    /// the tick count the virtual metrics are derived from.
    pub fn clock_agrees_with_ticks(&self) -> bool {
        match &self.cluster {
            Cluster::Seq(nv) => nv.clock().now().as_nanos() == self.traffic.ticks * TICK.as_nanos(),
            Cluster::Par(..) => true,
        }
    }

    /// Global power failure → recovery → re-read of every written page.
    pub fn finish(mut self) -> Finished {
        let mut tally = self.traffic.tally;
        let start = Instant::now();
        let report = self
            .cluster
            .control()
            .power_failure()
            .expect("no shard thread died");
        let power_failure_host_ms = start.elapsed().as_secs_f64() * 1e3;
        tally.note(report.dirty_pages <= GLOBAL_BUDGET && report.pages_lost == 0);
        let start = Instant::now();
        tally.note(self.cluster.control().recover().is_ok());
        let recover_host_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut buf = [0u8; WRITE_BYTES];
        for (slot, &byte) in self.traffic.model.iter().enumerate() {
            if byte == UNWRITTEN {
                continue;
            }
            let region = self.traffic.regions[slot / SHARD_REGION_PAGES as usize];
            let offset = (slot as u64 % SHARD_REGION_PAGES) * PAGE;
            let read = match &mut self.cluster {
                Cluster::Seq(nv) => nv.read(region, offset, &mut buf),
                Cluster::Par(data, _) => data.read(region, offset, &mut buf),
            };
            tally.note(read.is_ok() && buf == [byte as u8; WRITE_BYTES]);
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
    use viyojit::PowerFailureReport;

    fn outcome(parallel: bool, seed: u64) -> (Counters, PowerFailureReport, Tally) {
        let mut bench = ShardBench::setup(parallel, seed, 2_000, &Observers::default());
        let measured = bench.run(30_000, None);
        assert!(bench.clock_agrees_with_ticks());
        assert!(bench.rebalances() > 0);
        let done = bench.finish();
        (measured.counters, done.report, done.tally)
    }

    #[test]
    fn both_modes_fail_nothing_and_agree_on_every_statistic() {
        let (seq, par) = (outcome(false, 42), outcome(true, 42));
        assert_eq!(seq.2.failed, 0);
        assert_eq!(seq, par, "parallel ≡ sequential under the builder defaults");
        assert!(seq.0.faults > 0 && seq.0.ssd_writes > 0);
        assert!(seq.1.dirty_pages > 0 && seq.1.dirty_pages <= GLOBAL_BUDGET);
        assert_ne!(seq.0, outcome(false, 43).0, "the seed reaches the traffic");
    }

    #[test]
    fn a_page_that_reads_back_wrong_is_a_failure() {
        let mut bench = ShardBench::setup(false, 42, 0, &Observers::default());
        bench.run(5_000, None);
        let slot = bench
            .traffic
            .model
            .iter()
            .position(|&b| b != UNWRITTEN)
            .unwrap();
        bench.traffic.model[slot] ^= 1; // the model now disagrees with the store
        assert_eq!(bench.finish().tally.failed, 1);
    }
}
