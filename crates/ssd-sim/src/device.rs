//! The SSD device: service-time model, wear, and statistics.

use fault_sim::FaultPlan;
use mem_sim::{PageId, PAGE_SIZE};
use sim_clock::{Clock, SimDuration, SimTime};
use telemetry::{CostClass, Profiler, Telemetry, TraceEvent};

use crate::WearTracker;

/// Device parameters.
///
/// # Examples
///
/// ```
/// use ssd_sim::SsdConfig;
///
/// let cfg = SsdConfig::datacenter();
/// assert!(cfg.channels >= 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Fixed device latency of one page write.
    pub write_latency: SimDuration,
    /// Sustained sequential bandwidth in bytes per second, shared across
    /// channels.
    pub bandwidth_bytes_per_sec: u64,
    /// Number of internal channels that can service IOs concurrently.
    pub channels: usize,
    /// Pages per erase block (wear accounting granularity).
    pub pages_per_block: usize,
    /// Write-amplification factor of the FTL.
    pub write_amplification: f64,
}

impl SsdConfig {
    /// A datacenter NVMe-class device like the paper's Azure VM SSD
    /// (625 K-IOPS class): ~30 us program latency, 2 GB/s sustained,
    /// 8 channels.
    pub fn datacenter() -> Self {
        SsdConfig {
            write_latency: SimDuration::from_micros(30),
            bandwidth_bytes_per_sec: 2_000_000_000,
            channels: 8,
            pages_per_block: 256,
            write_amplification: 1.1,
        }
    }

    /// An instantaneous device for functional unit tests.
    pub fn instant() -> Self {
        SsdConfig {
            write_latency: SimDuration::ZERO,
            bandwidth_bytes_per_sec: u64::MAX,
            channels: 1,
            pages_per_block: 256,
            write_amplification: 1.0,
        }
    }

    /// Time to move `bytes` bytes at sustained sequential bandwidth (the
    /// shared kernel of [`SsdConfig::drain_time`] and the per-IO transfer
    /// term).
    fn sequential_time(&self, bytes: f64) -> SimDuration {
        if self.bandwidth_bytes_per_sec == u64::MAX {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes / self.bandwidth_bytes_per_sec as f64)
    }

    /// Time the bandwidth term adds for `bytes` bytes.
    fn transfer_time(&self, bytes: usize) -> SimDuration {
        self.sequential_time(bytes as f64)
    }

    /// Conservative time to sequentially drain `bytes` bytes to the device
    /// at sustained bandwidth — the §5.1 estimate used to convert battery
    /// hold-up time into a dirty budget.
    pub fn drain_time(&self, bytes: u64) -> SimDuration {
        self.sequential_time(bytes as f64)
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig::datacenter()
    }
}

/// IO counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsdStats {
    /// Page writes submitted.
    pub writes: u64,
    /// Logical bytes written.
    pub bytes_written: u64,
    /// Transient write errors (injected or modelled); each occupied a
    /// channel and charged wear without making its page durable.
    pub write_errors: u64,
}

impl SsdStats {
    /// Adds `other`'s counters field-wise into `self` — the one fold every
    /// multi-device aggregate (a sharded cluster, one tenant's shards)
    /// goes through.
    pub fn accumulate(&mut self, other: &SsdStats) {
        self.writes += other.writes;
        self.bytes_written += other.bytes_written;
        self.write_errors += other.write_errors;
    }
}

/// A transiently failed write submission.
///
/// The failed attempt still occupied a channel and consumed program energy
/// (wear), but the page did not become durable; the caller may retry after
/// `retry_after`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdWriteError {
    /// The page whose write failed.
    pub page: u64,
    /// Instant at which the failed attempt released its channel.
    pub retry_after: SimTime,
}

/// The simulated SSD backing one NV-DRAM region.
///
/// The device models what a write costs — channel time, queuing, wear and
/// IO counters — and holds no bytes: which bytes a write made durable is
/// the caller's to keep (the engine's `Mmu` keeps NV-DRAM and an undo log
/// of what was last handed over, and recovery lays that back). Service
/// times are computed against the shared virtual clock: a submission
/// returns its completion instant, and the caller decides whether to block
/// (advance the clock) or proceed.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Ssd {
    config: SsdConfig,
    clock: Clock,
    pages: usize,
    channel_free: Vec<SimTime>,
    inflight: Vec<SimTime>,
    stats: SsdStats,
    wear: WearTracker,
    telemetry: Telemetry,
    profiler: Profiler,
    faults: FaultPlan,
}

impl Ssd {
    /// Creates a device with capacity for `pages` pages.
    pub fn new(pages: usize, config: SsdConfig, clock: Clock) -> Self {
        let wear = WearTracker::new(pages, config.pages_per_block, config.write_amplification);
        Ssd {
            channel_free: vec![SimTime::ZERO; config.channels.max(1)],
            config,
            clock,
            pages,
            inflight: Vec::new(),
            stats: SsdStats::default(),
            wear,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            faults: FaultPlan::none(),
        }
    }

    /// Device capacity in pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// IO counters.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// Wear accounting.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Attaches a telemetry handle; subsequent submissions emit
    /// `SsdSubmit`/`SsdComplete` trace events and [`Ssd::publish_metrics`]
    /// writes into its registry.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches a profiler; each serviced IO then records its channel
    /// queue wait and its device busy time (program latency + bus
    /// transfer) in the profiler's auxiliary table. Device time overlaps
    /// wall time across channels, so it is accounted off-clock and never
    /// against the span-conservation invariant.
    pub fn attach_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Attaches a fault plan; subsequent [`Ssd::try_submit_write_sized`]
    /// calls consult it for stalls, latency spikes, and transient errors.
    /// The plain [`Ssd::submit_write`]/[`Ssd::submit_write_sized`] path
    /// never consults the plan, so callers that cannot tolerate failure
    /// keep their historical behaviour bit for bit.
    pub fn attach_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The attached fault plan (inactive by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Records a transient write error modelled outside the device (the
    /// emergency-flush executor steps attempt time on a local timeline and
    /// accounts the failed program here so error-rate observers see it).
    pub fn note_write_error(&mut self, page: u64, physical_bytes: usize) {
        self.stats.write_errors += 1;
        self.wear.record_bytes_written(page, physical_bytes as u64);
    }

    /// Publishes IO, wear, and queue state into the attached registry.
    ///
    /// Called by the owning store at epoch boundaries; a no-op when the
    /// handle is disabled.
    pub fn publish_metrics(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let stats = self.stats;
        let (logical, physical, erases, max_block) = (
            self.wear.logical_bytes_written(),
            self.wear.physical_bytes_written(),
            self.wear.total_erases(),
            self.wear.max_block_erases(),
        );
        let queue = self.outstanding() as f64;
        self.telemetry.metrics(|m| {
            m.counter_set("ssd.writes", stats.writes);
            m.counter_set("ssd.bytes_written", stats.bytes_written);
            m.counter_set("ssd.logical_bytes_written", logical);
            m.counter_set("ssd.physical_bytes_written", physical);
            m.counter_set("ssd.erases", erases);
            m.gauge_set("ssd.max_block_erases", max_block as f64);
            m.gauge_set("ssd.outstanding", queue);
            // Published only once nonzero so fault-free runs keep their
            // historical snapshot layout byte for byte.
            if stats.write_errors > 0 {
                m.counter_set("ssd.write_errors", stats.write_errors);
            }
        });
    }

    fn prune_inflight(&mut self) {
        let now = self.clock.now();
        self.inflight.retain(|&t| t > now);
    }

    /// Number of IOs still in flight at the current instant.
    pub fn outstanding(&mut self) -> usize {
        self.prune_inflight();
        self.inflight.len()
    }

    /// Earliest completion instant among in-flight IOs, if any.
    pub fn earliest_completion(&mut self) -> Option<SimTime> {
        self.prune_inflight();
        self.inflight.iter().copied().min()
    }

    fn service(&mut self, latency: SimDuration, bytes: usize) -> SimTime {
        let now = self.clock.now();
        let (idx, &free) = self
            .channel_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("at least one channel");
        let start = now.max(free);
        let busy = latency + self.config.transfer_time(bytes);
        let done = start + busy;
        self.channel_free[idx] = done;
        // Nothing else prunes while telemetry is off. Doing it only when
        // the list is full keeps a submit amortised O(1), same-instant
        // bursts included, and bounds the list by the deepest queue seen.
        if self.inflight.len() == self.inflight.capacity() {
            self.prune_inflight();
        }
        self.inflight.push(done);
        let wait = start.saturating_since(now);
        if !wait.is_zero() {
            self.profiler.aux_charge(CostClass::SsdQueueWait, wait);
        }
        self.profiler.aux_charge(CostClass::SsdTransfer, busy);
        done
    }

    /// Submits a page write; the page is durable from the returned
    /// completion instant onward. `data` is the page's content, checked for
    /// size and not kept: the device models the write's cost, not its
    /// bytes. The caller is responsible for the write-protect-before-flush
    /// ordering (Fig. 6 step 6) that makes the submitted snapshot safe.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `data` is not exactly one page.
    pub fn submit_write(&mut self, page: PageId, data: &[u8]) -> SimTime {
        assert_eq!(data.len(), PAGE_SIZE, "SSD writes are page-granularity");
        self.submit_write_sized(page, PAGE_SIZE)
    }

    /// Submits a write of one page whose on-wire/programmed payload is only
    /// `physical_bytes` (compressed, deduplicated, or partial-sector
    /// flushes — the §7 traffic reductions): bandwidth, byte counters, and
    /// wear are charged for the physical payload.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `physical_bytes` exceeds a page.
    pub fn submit_write_sized(&mut self, page: PageId, physical_bytes: usize) -> SimTime {
        self.check_write(page, physical_bytes);
        let latency = self.config.write_latency;
        self.submit_with_latency(page, physical_bytes, latency)
    }

    /// Fault-aware submission: consults the attached [`FaultPlan`] for a
    /// whole-device stall, a latency spike, and a transient error, in that
    /// order. A failed attempt still occupies its channel and charges wear
    /// for the aborted program, but the page does not become durable and
    /// the caller gets the channel-release instant back for retry pacing.
    ///
    /// With an inactive plan this is exactly [`Ssd::submit_write_sized`].
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `physical_bytes` exceeds a page.
    pub fn try_submit_write_sized(
        &mut self,
        page: PageId,
        physical_bytes: usize,
    ) -> Result<SimTime, SsdWriteError> {
        self.check_write(page, physical_bytes);
        let fault = self.faults.ssd_write_fault(page.0);
        if !fault.stall.is_zero() {
            let now = self.clock.now();
            for free in &mut self.channel_free {
                *free = (*free).max(now) + fault.stall;
            }
        }
        let latency = self.config.write_latency * fault.latency_factor as u64;
        if fault.error {
            self.stats.write_errors += 1;
            self.wear
                .record_bytes_written(page.0, physical_bytes as u64);
            let retry_after = self.service(latency, physical_bytes);
            return Err(SsdWriteError {
                page: page.0,
                retry_after,
            });
        }
        Ok(self.submit_with_latency(page, physical_bytes, latency))
    }

    fn check_write(&self, page: PageId, physical_bytes: usize) {
        assert!(
            page.index() < self.pages,
            "{page} is past the device's {} pages",
            self.pages
        );
        assert!(
            physical_bytes <= PAGE_SIZE,
            "physical payload cannot exceed the logical page"
        );
    }

    fn submit_with_latency(
        &mut self,
        page: PageId,
        physical_bytes: usize,
        latency: SimDuration,
    ) -> SimTime {
        self.stats.writes += 1;
        self.stats.bytes_written += physical_bytes as u64;
        self.wear
            .record_bytes_written(page.0, physical_bytes as u64);
        let done = self.service(latency, physical_bytes);
        self.telemetry.emit(|| TraceEvent::SsdSubmit {
            page: page.0,
            bytes: physical_bytes as u64,
        });
        self.telemetry
            .emit_at(done, || TraceEvent::SsdComplete { page: page.0 });
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    /// `channels` channels of `latency_us` program latency each, and no
    /// bandwidth term.
    fn timed(latency_us: u64, channels: usize) -> SsdConfig {
        SsdConfig {
            write_latency: SimDuration::from_micros(latency_us),
            bandwidth_bytes_per_sec: u64::MAX,
            channels,
            pages_per_block: 64,
            write_amplification: 1.0,
        }
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let a = SsdStats {
            writes: 1,
            bytes_written: 3,
            write_errors: 5,
        };
        let mut total = a;
        total.accumulate(&a);
        total.accumulate(&SsdStats::default());
        assert_eq!(
            total,
            SsdStats {
                writes: 2,
                bytes_written: 6,
                write_errors: 10,
            }
        );
    }

    #[test]
    fn completion_reflects_latency_and_bandwidth() {
        let clock = Clock::new();
        let cfg = SsdConfig {
            bandwidth_bytes_per_sec: PAGE_SIZE as u64 * 1_000, // 1 page per ms
            ..timed(100, 1)
        };
        let mut ssd = Ssd::new(4, cfg, clock.clone());
        let done = ssd.submit_write(PageId(0), &page(1));
        assert_eq!(done.as_micros(), 100 + 1_000);
    }

    #[test]
    fn single_channel_serializes_requests() {
        let clock = Clock::new();
        let mut ssd = Ssd::new(4, timed(10, 1), clock.clone());
        let d1 = ssd.submit_write(PageId(0), &page(1));
        let d2 = ssd.submit_write(PageId(1), &page(2));
        assert_eq!(d1.as_micros(), 10);
        assert_eq!(d2.as_micros(), 20, "second IO queues behind the first");
    }

    #[test]
    fn channels_service_in_parallel() {
        let clock = Clock::new();
        let mut ssd = Ssd::new(4, timed(10, 2), clock.clone());
        let d1 = ssd.submit_write(PageId(0), &page(1));
        let d2 = ssd.submit_write(PageId(1), &page(2));
        assert_eq!(d1, d2, "two channels overlap two IOs fully");
    }

    #[test]
    fn outstanding_tracks_the_clock() {
        let clock = Clock::new();
        let mut ssd = Ssd::new(8, timed(10, 4), clock.clone());
        for i in 0..3 {
            ssd.submit_write(PageId(i), &page(i as u8));
        }
        assert_eq!(ssd.outstanding(), 3);
        let earliest = ssd.earliest_completion().unwrap();
        clock.advance_to(earliest);
        assert_eq!(ssd.outstanding(), 0, "all IOs complete at the same instant");
    }

    #[test]
    fn completed_ios_do_not_accumulate_without_an_observer() {
        // Telemetry off, nobody asking `outstanding()`: the shape of every
        // figure binary and benchmark run.
        let clock = Clock::new();
        let cfg = SsdConfig::datacenter();
        let channels = cfg.channels;
        let mut ssd = Ssd::new(8, cfg, clock.clone());
        for i in 0..100_000u64 {
            let done = ssd.submit_write(PageId(i % 8), &page(i as u8));
            clock.advance_to(done);
        }
        assert!(
            ssd.inflight.capacity() <= 4 * channels,
            "{} completions kept for {channels} channels",
            ssd.inflight.capacity()
        );
        assert_eq!(ssd.outstanding(), 0);
        assert_eq!(ssd.stats().writes, 100_000);
    }

    #[test]
    fn profiler_splits_queue_wait_from_device_busy_time() {
        let clock = Clock::new();
        let mut ssd = Ssd::new(4, timed(10, 1), clock.clone());
        let profiler = Profiler::enabled(clock.clone());
        ssd.attach_profiler(profiler.clone());
        ssd.submit_write(PageId(0), &page(1)); // starts immediately
        ssd.submit_write(PageId(1), &page(2)); // queues 10us behind it
        let report = profiler.report().unwrap();
        // Device time is off-clock: conservation still holds at 0 elapsed.
        assert!(report.is_conserved());
        assert_eq!(report.elapsed, SimDuration::ZERO);
        assert_eq!(
            report.aux,
            vec![("ssd_queue_wait", 1, 10_000), ("ssd_transfer", 2, 20_000)]
        );
    }

    #[test]
    #[should_panic(expected = "past the device's 2 pages")]
    fn writing_past_the_last_page_panics() {
        let mut ssd = Ssd::new(2, SsdConfig::instant(), Clock::new());
        ssd.submit_write_sized(PageId(2), 64);
    }

    #[test]
    fn stats_and_wear_accumulate() {
        let clock = Clock::new();
        let mut ssd = Ssd::new(4, SsdConfig::instant(), clock);
        ssd.submit_write(PageId(0), &page(1));
        ssd.submit_write(PageId(0), &page(2));
        assert_eq!(ssd.stats().writes, 2);
        assert_eq!(ssd.stats().bytes_written, 2 * PAGE_SIZE as u64);
        assert_eq!(ssd.wear().logical_bytes_written(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn a_partial_payload_is_charged_for_its_physical_bytes() {
        let cfg = SsdConfig {
            bandwidth_bytes_per_sec: PAGE_SIZE as u64 * 1_000, // 1 page per ms
            ..timed(100, 1)
        };
        let mut ssd = Ssd::new(4, cfg, Clock::new());
        ssd.submit_write(PageId(3), &page(4));
        let done = ssd.submit_write_sized(PageId(3), 2048);
        assert_eq!(
            done.as_micros(),
            2 * 100 + 1_000 + 500,
            "channel time follows the payload"
        );
        assert_eq!(ssd.stats().writes, 2);
        assert_eq!(ssd.stats().bytes_written, PAGE_SIZE as u64 + 2048);
        assert_eq!(ssd.wear().logical_bytes_written(), PAGE_SIZE as u64 + 2048);
    }

    #[test]
    fn faulty_submit_errors_occupy_channel_and_charge_wear() {
        use fault_sim::FaultConfig;
        let mut ssd = Ssd::new(4, timed(10, 1), Clock::new());
        let mut config = FaultConfig::none();
        config.ssd_write_error_rate = 1.0;
        ssd.attach_faults(FaultPlan::seeded(3, config));
        let err = ssd
            .try_submit_write_sized(PageId(0), PAGE_SIZE)
            .unwrap_err();
        assert_eq!(err.page, 0);
        assert_eq!(err.retry_after.as_micros(), 10, "error held the channel");
        assert_eq!(ssd.stats().write_errors, 1);
        assert_eq!(ssd.stats().writes, 0, "failed write is not durable");
        assert_eq!(ssd.wear().logical_bytes_written(), PAGE_SIZE as u64);
    }

    #[test]
    fn inactive_plan_try_submit_matches_plain_submit() {
        let clock_a = Clock::new();
        let clock_b = Clock::new();
        let mut a = Ssd::new(4, SsdConfig::datacenter(), clock_a);
        let mut b = Ssd::new(4, SsdConfig::datacenter(), clock_b);
        let done_a = a.try_submit_write_sized(PageId(1), 512).unwrap();
        let done_b = b.submit_write_sized(PageId(1), 512);
        assert_eq!(done_a, done_b);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            a.wear().logical_bytes_written(),
            b.wear().logical_bytes_written()
        );
    }

    #[test]
    fn latency_spike_multiplies_service_time() {
        use fault_sim::FaultConfig;
        let mut ssd = Ssd::new(4, timed(10, 1), Clock::new());
        let mut config = FaultConfig::none();
        config.ssd_latency_spike_rate = 1.0;
        config.ssd_latency_spike_factor = 4;
        ssd.attach_faults(FaultPlan::seeded(9, config));
        let done = ssd.try_submit_write_sized(PageId(0), PAGE_SIZE).unwrap();
        assert_eq!(done.as_micros(), 40);
        assert_eq!(ssd.stats().writes, 1);
    }

    #[test]
    fn stall_pushes_every_channel_back() {
        use fault_sim::FaultConfig;
        let mut ssd = Ssd::new(4, timed(10, 2), Clock::new());
        let mut config = FaultConfig::none();
        config.ssd_stall_rate = 1.0;
        config.ssd_stall = SimDuration::from_millis(1);
        ssd.attach_faults(FaultPlan::seeded(2, config));
        let done = ssd.try_submit_write_sized(PageId(0), PAGE_SIZE).unwrap();
        assert_eq!(
            done.as_micros(),
            1_010,
            "stall delays the servicing channel"
        );
    }

    #[test]
    fn drain_time_is_linear_in_bytes() {
        let cfg = SsdConfig {
            bandwidth_bytes_per_sec: 1_000_000_000,
            ..SsdConfig::datacenter()
        };
        assert_eq!(cfg.drain_time(1_000_000_000).as_millis(), 1_000);
        assert_eq!(cfg.drain_time(500_000_000).as_millis(), 500);
    }
}
