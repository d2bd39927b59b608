//! What the harness needs from an NV-DRAM store beyond [`NvHeap`], and the
//! [`Shim`] that observes the `NvHeap` boundary from outside.
//!
//! The traced pass wraps the store in a [`Shim`]; `KvStore<PHeap<Shim<_>>>`
//! then reports every call `kvstore`/`pheap` make into `viyojit` without a
//! line changed in any of the three.

use std::time::Instant;

use sim_clock::Clock;
use viyojit::{
    NvHeap, NvdramBaseline, PowerFailureReport, Profiler, RegionId, Telemetry, Viyojit,
    ViyojitError,
};

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Every simulated statistic the public surfaces expose, flat, so
        /// that a phase is a subtraction and a digest is a fold.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

counters!(
    virt_ns,
    faults,
    pages_dirtied,
    proactive_flushes,
    forced_flushes,
    flushes_completed,
    budget_stalls,
    stall_ns,
    in_flight_collisions,
    epochs,
    epochs_fast_forwarded,
    bytes_flushed,
    walk_touches,
    flush_retries,
    mmu_reads,
    mmu_writes,
    mmu_bytes_read,
    mmu_bytes_written,
    write_faults,
    pte_dirtied,
    tlb_hits,
    tlb_misses,
    tlb_flushes,
    ssd_writes,
    ssd_bytes_written,
    ssd_write_errors,
    ssd_erases,
);

impl Counters {
    pub fn set_viyojit(&mut self, s: &viyojit::ViyojitStats) {
        self.faults = s.faults_handled;
        self.pages_dirtied = s.pages_dirtied;
        self.proactive_flushes = s.proactive_flushes;
        self.forced_flushes = s.forced_flushes;
        self.flushes_completed = s.flushes_completed;
        self.budget_stalls = s.budget_stalls;
        self.stall_ns = s.stall_time.as_nanos();
        self.in_flight_collisions = s.in_flight_collisions;
        self.epochs = s.epochs;
        self.epochs_fast_forwarded = s.epochs_fast_forwarded;
        self.bytes_flushed = s.bytes_flushed;
        self.walk_touches = s.walk_touches;
        self.flush_retries = s.flush_retries;
    }

    pub fn set_mmu(&mut self, m: &mem_sim::MmuStats) {
        self.mmu_reads = m.reads;
        self.mmu_writes = m.writes;
        self.mmu_bytes_read = m.bytes_read;
        self.mmu_bytes_written = m.bytes_written;
        self.write_faults = m.write_faults;
        self.pte_dirtied = m.pte_dirtied;
    }

    pub fn set_ssd(&mut self, s: &ssd_sim::SsdStats, erases: u64) {
        self.ssd_writes = s.writes;
        self.ssd_bytes_written = s.bytes_written;
        self.ssd_write_errors = s.write_errors;
        self.ssd_erases = erases;
    }

    pub fn flushes(&self) -> u64 {
        self.proactive_flushes + self.forced_flushes
    }
}

/// A single-engine store the key-value workloads can run on.
pub trait Backend: NvHeap {
    fn clock(&self) -> &Clock;
    fn counters(&self) -> Counters;
    /// Pages currently counted against the budget (0 when nothing is tracked).
    fn dirty_pages(&self) -> u64;
    fn power_failure(&mut self) -> PowerFailureReport;
    fn recover(&mut self);
    fn attach_telemetry(&mut self, telemetry: Telemetry);
    fn attach_profiler(&mut self, profiler: Profiler);
    /// The observation state, when this store is wrapped in a [`Shim`].
    fn shim(&mut self) -> Option<&mut ShimState> {
        None
    }
}

impl Backend for Viyojit {
    fn clock(&self) -> &Clock {
        Viyojit::clock(self)
    }

    fn counters(&self) -> Counters {
        let mut c = Counters {
            virt_ns: self.clock().now().as_nanos(),
            ..Counters::default()
        };
        c.set_viyojit(&self.stats());
        c.set_mmu(&self.mmu_stats());
        let tlb = self.tlb_stats();
        (c.tlb_hits, c.tlb_misses, c.tlb_flushes) = (tlb.hits, tlb.misses, tlb.flushes);
        c.set_ssd(&self.ssd_stats(), self.ssd().wear().total_erases());
        c
    }

    fn dirty_pages(&self) -> u64 {
        self.dirty_count()
    }

    fn power_failure(&mut self) -> PowerFailureReport {
        Viyojit::power_failure(self)
    }

    fn recover(&mut self) {
        Viyojit::recover(self);
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        Viyojit::attach_telemetry(self, telemetry);
    }

    fn attach_profiler(&mut self, profiler: Profiler) {
        Viyojit::attach_profiler(self, profiler);
    }
}

impl Backend for NvdramBaseline {
    fn clock(&self) -> &Clock {
        NvdramBaseline::clock(self)
    }

    /// The baseline exposes no TLB counters and runs no control loop.
    fn counters(&self) -> Counters {
        let mut c = Counters {
            virt_ns: self.clock().now().as_nanos(),
            ..Counters::default()
        };
        c.set_mmu(&self.mmu_stats());
        c.set_ssd(&self.ssd().stats(), self.ssd().wear().total_erases());
        c
    }

    fn dirty_pages(&self) -> u64 {
        0
    }

    fn power_failure(&mut self) -> PowerFailureReport {
        NvdramBaseline::power_failure(self)
    }

    fn recover(&mut self) {
        NvdramBaseline::recover(self);
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        NvdramBaseline::attach_telemetry(self, telemetry);
    }

    fn attach_profiler(&mut self, profiler: Profiler) {
        NvdramBaseline::attach_profiler(self, profiler);
    }
}

/// The cheapest store that still works: one region of plain memory, no
/// translation, no tracking, no virtual-time charges. Running a workload
/// on it isolates what `kvstore` and `pheap` cost by themselves.
#[derive(Debug)]
pub struct FlatHeap {
    memory: Vec<u8>,
    clock: Clock,
}

impl FlatHeap {
    pub fn new() -> Self {
        FlatHeap {
            memory: Vec::new(),
            clock: Clock::new(),
        }
    }

    fn range(
        &self,
        region: RegionId,
        offset: u64,
        len: usize,
    ) -> Result<std::ops::Range<usize>, ViyojitError> {
        let end = offset as usize + len;
        if region != RegionId(0) || self.memory.is_empty() {
            Err(ViyojitError::BadRegion(region))
        } else if end > self.memory.len() {
            Err(ViyojitError::OutOfRange {
                region,
                offset,
                len,
            })
        } else {
            Ok(offset as usize..end)
        }
    }
}

impl NvHeap for FlatHeap {
    fn map(&mut self, len_bytes: u64) -> Result<RegionId, ViyojitError> {
        if len_bytes == 0 {
            return Err(ViyojitError::EmptyMapping);
        }
        assert!(self.memory.is_empty(), "a flat heap holds one region");
        self.memory = vec![0; len_bytes as usize];
        Ok(RegionId(0))
    }

    fn unmap(&mut self, region: RegionId) -> Result<(), ViyojitError> {
        self.range(region, 0, 0)?;
        self.memory = Vec::new();
        Ok(())
    }

    fn read(&mut self, region: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), ViyojitError> {
        let range = self.range(region, offset, buf.len())?;
        buf.copy_from_slice(&self.memory[range]);
        Ok(())
    }

    fn write(&mut self, region: RegionId, offset: u64, data: &[u8]) -> Result<(), ViyojitError> {
        let range = self.range(region, offset, data.len())?;
        self.memory[range].copy_from_slice(data);
        Ok(())
    }

    fn region_len(&self, region: RegionId) -> Result<u64, ViyojitError> {
        self.range(region, 0, 0).map(|_| self.memory.len() as u64)
    }
}

/// Plain memory is never dirty and loses nothing.
impl Backend for FlatHeap {
    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn counters(&self) -> Counters {
        Counters {
            virt_ns: self.clock.now().as_nanos(),
            ..Counters::default()
        }
    }

    fn dirty_pages(&self) -> u64 {
        0
    }

    fn power_failure(&mut self) -> PowerFailureReport {
        PowerFailureReport {
            dirty_pages: 0,
            pages_flushed: 0,
            pages_lost: 0,
            retries: 0,
            bytes_flushed: 0,
            flush_time: sim_clock::SimDuration::ZERO,
            energy_margin_joules: f64::INFINITY,
            outcome: viyojit::FlushOutcome::Complete,
        }
    }

    fn recover(&mut self) {}

    fn attach_telemetry(&mut self, _: Telemetry) {}

    fn attach_profiler(&mut self, _: Profiler) {}
}

/// One `NvHeap` call as the shim saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub offset: u64,
    pub len: u32,
    pub write: bool,
}

/// One timed `NvHeap` call of a sampled operation, in nanoseconds since
/// [`ShimState::origin`].
#[derive(Debug, Clone, Copy)]
pub struct HeapSpan {
    pub write: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct ShimState {
    pub origin: Instant,
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Time the calls of the current operation (the driver sets this on
    /// every sampled operation and drains `spans` after it).
    pub sampling: bool,
    pub spans: Vec<HeapSpan>,
    /// The first `record_limit` calls, for the layer drives to replay.
    pub recorded: Vec<Access>,
    pub record_limit: usize,
}

impl ShimState {
    fn note(&mut self, offset: u64, len: usize, write: bool) {
        if write {
            self.writes += 1;
            self.bytes_written += len as u64;
        } else {
            self.reads += 1;
            self.bytes_read += len as u64;
        }
        if self.recorded.len() < self.record_limit {
            self.recorded.push(Access {
                offset,
                len: len as u32,
                write,
            });
        }
    }

    pub fn calls(&self) -> u64 {
        self.reads + self.writes
    }
}

/// An [`NvHeap`] that counts, optionally times and optionally records
/// every call before passing it on.
#[derive(Debug)]
pub struct Shim<S> {
    inner: S,
    state: ShimState,
}

impl<S> Shim<S> {
    pub fn new(inner: S, record_limit: usize) -> Self {
        Shim {
            inner,
            state: ShimState {
                origin: Instant::now(),
                reads: 0,
                writes: 0,
                bytes_read: 0,
                bytes_written: 0,
                sampling: false,
                spans: Vec::new(),
                recorded: Vec::new(),
                record_limit,
            },
        }
    }

    pub fn state(&self) -> &ShimState {
        &self.state
    }

    pub fn state_mut(&mut self) -> &mut ShimState {
        &mut self.state
    }

    fn timed<T>(&mut self, write: bool, call: impl FnOnce(&mut S) -> T) -> T {
        if !self.state.sampling {
            return call(&mut self.inner);
        }
        let start = self.state.origin.elapsed();
        let out = call(&mut self.inner);
        let end = self.state.origin.elapsed();
        self.state.spans.push(HeapSpan {
            write,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }
}

impl<S: NvHeap> NvHeap for Shim<S> {
    fn map(&mut self, len_bytes: u64) -> Result<RegionId, ViyojitError> {
        self.inner.map(len_bytes)
    }

    fn unmap(&mut self, region: RegionId) -> Result<(), ViyojitError> {
        self.inner.unmap(region)
    }

    fn read(&mut self, region: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), ViyojitError> {
        self.state.note(offset, buf.len(), false);
        self.timed(false, |inner| inner.read(region, offset, buf))
    }

    fn write(&mut self, region: RegionId, offset: u64, data: &[u8]) -> Result<(), ViyojitError> {
        self.state.note(offset, data.len(), true);
        self.timed(true, |inner| inner.write(region, offset, data))
    }

    fn region_len(&self, region: RegionId) -> Result<u64, ViyojitError> {
        self.inner.region_len(region)
    }
}

impl<S: Backend> Backend for Shim<S> {
    fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }

    fn dirty_pages(&self) -> u64 {
        self.inner.dirty_pages()
    }

    fn power_failure(&mut self) -> PowerFailureReport {
        self.inner.power_failure()
    }

    fn recover(&mut self) {
        self.inner.recover();
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }

    fn attach_profiler(&mut self, profiler: Profiler) {
        self.inner.attach_profiler(profiler);
    }

    fn shim(&mut self) -> Option<&mut ShimState> {
        Some(&mut self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::CostModel;
    use ssd_sim::SsdConfig;

    #[test]
    fn shim_counts_records_and_times_without_changing_results() {
        let base = NvdramBaseline::new(8, Clock::new(), CostModel::free(), SsdConfig::instant());
        let mut shim = Shim::new(base, 2);
        let region = shim.map(4096 * 4).unwrap();
        shim.write(region, 100, b"abc").unwrap();
        shim.shim().unwrap().sampling = true;
        let mut buf = [0u8; 3];
        shim.read(region, 100, &mut buf).unwrap();
        shim.read(region, 101, &mut buf[..2]).unwrap();
        assert_eq!(&buf, b"bcc");
        let state = shim.state();
        assert_eq!((state.reads, state.writes), (2, 1));
        assert_eq!((state.bytes_read, state.bytes_written), (5, 3));
        assert_eq!(state.spans.len(), 2, "only sampled calls are timed");
        assert!(state
            .spans
            .iter()
            .all(|s| !s.write && s.end_ns >= s.start_ns));
        assert_eq!(
            state.recorded,
            [
                Access {
                    offset: 100,
                    len: 3,
                    write: true
                },
                Access {
                    offset: 100,
                    len: 3,
                    write: false
                },
            ],
            "recording stops at the limit"
        );
    }

    #[test]
    fn flat_heap_reads_back_what_was_written_and_checks_ranges() {
        let mut flat = FlatHeap::new();
        assert!(
            flat.read(RegionId(0), 0, &mut [0u8; 1]).is_err(),
            "nothing mapped yet"
        );
        let region = flat.map(8_192).unwrap();
        flat.write(region, 4_000, &[7u8; 200]).unwrap();
        let mut buf = [0u8; 200];
        flat.read(region, 4_000, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 200]);
        assert_eq!(flat.region_len(region), Ok(8_192));
        assert!(flat.write(region, 8_000, &[0u8; 200]).is_err());
        assert!(flat.read(RegionId(1), 0, &mut buf).is_err());
    }

    #[test]
    fn counters_subtract_field_by_field() {
        let a = Counters {
            faults: 3,
            ssd_writes: 10,
            ..Counters::default()
        };
        let b = Counters {
            faults: 5,
            ssd_writes: 14,
            ..Counters::default()
        };
        let d = b.since(&a);
        assert_eq!((d.faults, d.ssd_writes, d.epochs), (2, 4, 0));
        assert!(d.fields().contains(&("faults", 2)));
    }
}
