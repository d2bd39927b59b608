//! Seeded property test for the host's one copy of NV-DRAM: the device
//! image the `Mmu` keeps as memory plus an undo log must be the image
//! whole-page copies would have left.
//!
//! A flush copies nothing: the page's bytes in memory become its device
//! image, and every later write saves the sectors it is about to change
//! into the page's undo slot first, so that memory ⊕ undo is what the
//! device holds and a recovery lays the undo back. The slow model is a
//! device that copies the whole page at every submit. This test keeps its
//! own image of NV-DRAM and, from the `SsdSubmit` events of each step, the
//! image that device would hold, and compares the engine's
//! (`Mmu::durable_page`) against it after every step, next to
//! `durable_state_consistent` and the invariant check, which covers the
//! undo log's slots.
//!
//! Seed sweeps in the shape of `fault_recovery_prop.rs`: every life is a
//! pure function of a `u64` seed through `SplitMix64`. A failure names
//! its seed; `FAULT_SEED=<n>` replays that seed alone.

use battery_sim::{Battery, BatteryConfig, PowerModel};
use mem_sim::{PageId, UndoStats, PAGE_SIZE};
use propcheck::check_seeds;
use sim_clock::{Clock, CostModel, SimDuration, SplitMix64};
use ssd_sim::SsdConfig;
use viyojit::{
    DirtyTracker, Engine, FaultConfig, FaultPlan, FullDirty, MmuAssisted, NvHeap, RegionId,
    SoftwareWalk, Telemetry, TraceEvent, ViyojitConfig,
};

const PAGE: u64 = PAGE_SIZE as u64;
const TOTAL_PAGES: usize = 64;
const REGIONS: usize = 3;
const REGION_PAGES: u64 = 12;
const BUDGET: u64 = 8;
const STEPS: usize = 160;
const SEEDS_PER_BACKEND: u64 = 24;
const WRITE_ERROR_RATE: f64 = 0.2;
/// Non-vacuity: every life must save fewer than 64 sectors at least this
/// many times, or the undo log only ever held whole pages...
const MIN_PARTIAL_SAVES: u64 = 32;
/// ...merge fresh sectors into an eighth of a page holding saved ones at
/// least this many times, or no save ever met an earlier one's block...
const MIN_MERGES: u64 = 32;
/// ...and lay back at least one sector in a recovery that followed a loss,
/// or no lost write was ever undone.
const MIN_SECTORS_RESTORED: u64 = 1;

struct Life<B: DirtyTracker> {
    nv: Engine<B>,
    rng: SplitMix64,
    telemetry: Telemetry,
    /// `seq` of the first trace event not looked at yet.
    next_seq: u64,
    regions: Vec<RegionId>,
    /// What NV-DRAM holds, every page of it: recovery reloads unmapped
    /// pages too.
    memory: Vec<u8>,
    /// What a device that copied the whole page at every submit holds.
    reference: Vec<Option<Vec<u8>>>,
    /// Sectors restored by recoveries after a power failure that lost pages.
    restored_after_loss: u64,
    step: usize,
}

fn page_of(image: &[u8], page: usize) -> &[u8] {
    &image[page * PAGE_SIZE..(page + 1) * PAGE_SIZE]
}

impl<B: DirtyTracker> Life<B> {
    fn new(seed: u64) -> Self {
        let clock = Clock::new();
        let telemetry = Telemetry::recording(clock.clone());
        let config = ViyojitConfig::builder(BUDGET)
            .sector_flush(seed % 2 == 1)
            .build()
            .expect("a valid configuration");
        let mut nv = Engine::<B>::new(
            TOTAL_PAGES,
            config,
            clock,
            CostModel::calibrated(),
            SsdConfig::datacenter(),
        );
        nv.attach_telemetry(telemetry.clone());
        // One life in four runs fault-free.
        if seed % 4 != 0 {
            let mut faults = FaultConfig::none();
            faults.ssd_write_error_rate = WRITE_ERROR_RATE;
            nv.attach_faults(FaultPlan::seeded(seed, faults));
        }
        let regions = (0..REGIONS)
            .map(|_| nv.map(REGION_PAGES * PAGE).expect("map"))
            .collect();
        Life {
            nv,
            rng: SplitMix64::new(seed ^ 0xde17_ac09),
            telemetry,
            next_seq: 0,
            regions,
            memory: vec![0; TOTAL_PAGES * PAGE_SIZE],
            reference: vec![None; TOTAL_PAGES],
            restored_after_loss: 0,
            step: 0,
        }
    }

    fn first_page(&self, region: usize) -> usize {
        let (_, info) = self
            .nv
            .regions()
            .find(|&(id, _)| id == self.regions[region])
            .expect("a live region");
        info.first_page.index()
    }

    /// Pages submitted to the device since the last call, in order.
    fn submitted(&mut self) -> Vec<usize> {
        assert_eq!(self.telemetry.dropped_events(), 0, "trace ring overflowed");
        let fresh: Vec<usize> = self
            .telemetry
            .events()
            .iter()
            .filter(|e| e.seq >= self.next_seq)
            .filter_map(|e| match e.event {
                TraceEvent::SsdSubmit { page, .. } => Some(page as usize),
                _ => None,
            })
            .collect();
        self.next_seq = self.telemetry.recorded_events();
        fresh
    }

    /// The engine's image of `page` on the device: memory ⊕ undo.
    fn durable(&self, page: usize) -> Option<Vec<u8>> {
        self.nv.mmu().durable_page(PageId(page as u64))
    }

    /// Closes one step: brings the reference up to date with what the step
    /// submitted and checks the device image against it. `written` names
    /// the one page the step changed in memory and its bytes before: a
    /// submit of that page carried its bytes from before the write or from
    /// after, and the events do not say which, so either whole page is
    /// accepted — a page made of some sectors of each is not.
    fn settle(&mut self, what: &str, written: Option<(usize, &[u8])>) {
        // The undo log's and the store's invariants first, so that a
        // broken one names itself before the bytes it garbles do.
        self.nv.validate();
        let step = self.step;
        for page in self.submitted() {
            let now = page_of(&self.memory, page);
            let held = self.durable(page);
            self.reference[page] = match written {
                Some((changed, before)) if changed == page && held.as_deref() == Some(before) => {
                    Some(before.to_vec())
                }
                _ => Some(now.to_vec()),
            };
        }
        for page in 0..TOTAL_PAGES {
            assert!(
                self.durable(page) == self.reference[page],
                "step {step} ({what}): the device's page {page} is not what whole-page copies leave"
            );
        }
        for region in 0..REGIONS {
            let at = self.first_page(region) * PAGE_SIZE;
            let mut seen = vec![0u8; (REGION_PAGES * PAGE) as usize];
            self.nv
                .peek(self.regions[region], 0, &mut seen)
                .expect("peek");
            assert!(
                seen == self.memory[at..at + seen.len()],
                "step {step} ({what}): the test's image of region {region} went stale"
            );
        }
    }

    fn assert_clean_pages_are_durable(&self, what: &str) {
        assert!(
            self.nv.durable_state_consistent(),
            "step {} ({what}): a clean mapped page differs from its device copy",
            self.step
        );
    }

    /// One write of 1..=`longest` bytes that stays inside `page`.
    fn write_in_page(&mut self, region: usize, page: u64, longest: u64) {
        let offset = self.rng.below(PAGE);
        let len = 1 + self.rng.below(longest);
        self.write_at(region, page, offset, len);
    }

    /// Two to five writes of 1..=8 bytes into distinct sectors of one
    /// eighth of a page, as an LRU clock stamps the metadata it keeps on a
    /// page: on a held page in sync there, the first saves its sector and
    /// each later one merges into that eighth's block.
    fn stamp(&mut self, region: usize) {
        let page = self.rng.below(REGION_PAGES);
        // The eighth's first sector, and the first sector stamped in it.
        let (base, first) = (self.rng.below(8) * 8, self.rng.below(8));
        for i in 0..2 + self.rng.below(4) {
            // Steps of three visit all eight sectors before repeating one.
            let sector = base + (first + 3 * i) % 8;
            let offset = sector * 64 + self.rng.below(64 - 8);
            let len = 1 + self.rng.below(8);
            self.write_at(region, page, offset, len);
        }
    }

    /// One write of `len` bytes at `offset` in `page`, cut at its end.
    fn write_at(&mut self, region: usize, page: u64, offset: u64, len: u64) {
        let len = len.min(PAGE - offset) as usize;
        let fill = self.rng.next_u64() as u8;
        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        let frame = self.first_page(region) + page as usize;
        let before = page_of(&self.memory, frame).to_vec();
        self.nv
            .write(self.regions[region], page * PAGE + offset, &data)
            .expect("write");
        let at = frame * PAGE_SIZE + offset as usize;
        self.memory[at..at + len].copy_from_slice(&data);
        self.settle("write", Some((frame, &before)));
    }

    /// A power failure, unpowered or, half the time, on a battery that
    /// holds up fewer pages than may be owed, so some are lost.
    fn power_cycle(&mut self) {
        let owed = if B::HAS_CONTROL_LOOP {
            BUDGET
        } else {
            TOTAL_PAGES as u64
        };
        let hold_up = if self.rng.chance(0.5) {
            None
        } else {
            Some(1 + self.rng.below(owed))
        };
        self.fail_and_recover(hold_up);
    }

    /// A power failure whose battery holds up the flush of `hold_up` pages
    /// (no battery: every page), then the recovery.
    fn fail_and_recover(&mut self, hold_up: Option<u64>) {
        let report = match hold_up {
            None => self.nv.power_failure(),
            Some(pages) => {
                let power = PowerModel::datacenter_server(0.064);
                let drain = self.nv.ssd().config().drain_time(pages * PAGE);
                let joules = drain.as_secs_f64() * power.total_watts();
                let battery = Battery::new(
                    BatteryConfig::with_capacity_joules(joules).with_depth_of_discharge(1.0),
                );
                self.nv.power_failure_powered(&battery, &power)
            }
        };
        assert!(report.all_pages_accounted(), "{report:?}");
        self.settle("power_failure", None);
        let restored = self.nv.mmu().undo_stats().sectors_restored;
        self.nv.recover();
        if report.pages_lost > 0 {
            self.restored_after_loss += self.nv.mmu().undo_stats().sectors_restored - restored;
        }
        // Memory is now the device image: a lost page is back at its last
        // snapshot, a page never flushed at zeroes.
        for page in 0..TOTAL_PAGES {
            let frame = &mut self.memory[page * PAGE_SIZE..(page + 1) * PAGE_SIZE];
            match &self.reference[page] {
                Some(held) => frame.copy_from_slice(held),
                None => frame.fill(0),
            }
        }
        self.settle("recover", None);
    }

    /// Unmaps a region with whatever dirty pages it has, maps it again and
    /// rewrites a little of every page: the discarded pages' bytes are
    /// still in memory and mostly stay there.
    fn remap(&mut self, region: usize) {
        self.nv.unmap(self.regions[region]).expect("unmap");
        self.regions[region] = self.nv.map(REGION_PAGES * PAGE).expect("map");
        for page in 0..REGION_PAGES {
            self.write_in_page(region, page, 64);
        }
    }

    /// Runs the life; returns its undo counters and the sectors its
    /// recoveries after a loss restored.
    fn run(mut self) -> (UndoStats, u64) {
        for step in 0..STEPS {
            self.step = step;
            let region = self.rng.below(REGIONS as u64) as usize;
            match self.rng.below(100) {
                0..=19 => self.stamp(region),
                20..=69 => {
                    let longest = [64, 64, 512, PAGE][self.rng.below(4) as usize];
                    let page = self.rng.below(REGION_PAGES);
                    self.write_in_page(region, page, longest);
                }
                70..=81 => {
                    // Cross an epoch boundary or three: walks and proactive copies.
                    let idle = SimDuration::from_micros(200 + self.rng.below(3_000));
                    self.nv.clock().advance(idle);
                    self.nv
                        .read(self.regions[region], 0, &mut [0u8; 8])
                        .expect("read");
                    self.settle("idle", None);
                }
                82..=87 => {
                    // Shrinking the budget forces flushes down to it.
                    self.nv.set_dirty_budget(2 + self.rng.below(BUDGET - 1));
                    self.settle("set_dirty_budget", None);
                }
                88..=93 => self.remap(region),
                _ => self.power_cycle(),
            }
            self.assert_clean_pages_are_durable("after the step");
        }
        // A battery short of the dirty pages loses some whatever the life
        // did, so every life restores lost sectors at least once...
        self.step = STEPS;
        for page in 0..REGION_PAGES {
            self.write_in_page(0, page, 64);
        }
        self.fail_and_recover(Some(1));
        // ...and a loss-free failure brings every page home: the last
        // `settle` finds memory as the test's image had it before it.
        let report = self.nv.power_failure();
        assert_eq!(report.pages_lost, 0, "{report:?}");
        self.settle("the last power_failure", None);
        self.nv.recover();
        self.settle("the last recover", None);
        self.assert_clean_pages_are_durable("after the last recovery");
        (self.nv.mmu().undo_stats(), self.restored_after_loss)
    }
}

fn delta_copies_leave_the_whole_page_image<B: DirtyTracker>(name: &str) {
    check_seeds(name, 0..SEEDS_PER_BACKEND, |seed| {
        let (undo, restored) = Life::<B>::new(seed).run();
        let (partial, merges) = (undo.partial_saves, undo.merges);
        assert!(
            partial >= MIN_PARTIAL_SAVES,
            "only {partial} undo saves of fewer than 64 sectors: the property went vacuous"
        );
        assert!(
            merges >= MIN_MERGES,
            "only {merges} undo merges: the property went vacuous"
        );
        assert!(
            restored >= MIN_SECTORS_RESTORED,
            "only {restored} sectors restored after a loss: the property went vacuous"
        );
    });
}

#[test]
fn software_walk_delta_copies_leave_the_whole_page_image() {
    delta_copies_leave_the_whole_page_image::<SoftwareWalk>(
        "software_walk_delta_copies_leave_the_whole_page_image",
    );
}

#[test]
fn mmu_assisted_delta_copies_leave_the_whole_page_image() {
    delta_copies_leave_the_whole_page_image::<MmuAssisted>(
        "mmu_assisted_delta_copies_leave_the_whole_page_image",
    );
}

#[test]
fn full_dirty_delta_copies_leave_the_whole_page_image() {
    delta_copies_leave_the_whole_page_image::<FullDirty>(
        "full_dirty_delta_copies_leave_the_whole_page_image",
    );
}
