//! The thread-parallel sharded runtime: one worker thread per group of
//! shards, each running a [`ShardDriver`] behind a command loop.
//!
//! [`ShardedViyojitBuilder::build_parallel`] spawns `min(threads,
//! shards)` worker threads — each taking *ownership* of its shards'
//! driver and running it on its own virtual clock — and returns the two
//! handles the plane traits describe:
//!
//! - [`ShardDataHandle`] implements [`NvHeap`] + [`ShardDataPlane`]:
//!   writes are validated against its [`Router`] and staged per worker
//!   (batches of [`WRITE_BATCH`]) without taking any lock, reads and
//!   mappings are synchronous request/reply, `step` drives the shared
//!   driver timeline;
//! - [`ShardControlHandle`] implements
//!   [`ShardControlPlane`](super::ShardControlPlane) by locking the one
//!   [`Coordinator`] both handles share.
//!
//! The coordinator is the same code the sequential frontend runs; what
//! this module adds is its [`Transport`], [`Workers`]: every "ask driver
//! `i`" is a [`Request`] sent down worker `i`'s `mpsc` channel and a
//! `Result<Reply, WorkerDown>` received back, each wait bounded by
//! [`ROUND_TIMEOUT`]. A round's requests go out to every worker before
//! any answer is awaited, so workers shrink (and stall) concurrently;
//! the shrink-before-grow barrier is simply that the coordinator, which
//! holds the round mutex for the whole round, has every shrink answer in
//! hand before it sends the first grow.
//!
//! Determinism: with [`CostModel::free`] and [`SsdConfig::instant`]
//! (where clocks move only on explicit `step`), a single caller observes
//! bit-identical [`ViyojitStats`](crate::ViyojitStats), power-failure
//! reports, and memory contents from the sequential frontend and from
//! this runtime at any thread count: each shard's engine sees the same
//! calls in the same order on a clock that reads the same, and the tree
//! plans from the same per-shard reports. The equivalence property tests
//! assert exactly that.
//!
//! Supervision: a worker panic is caught at the command loop, whose
//! reply sender sits outside the unwind boundary, so the request in
//! flight is answered with [`WorkerDown`]. Within the builder's restart
//! budget the worker then reports `ShardPanicked`, runs the real
//! emergency flush from whatever intermediate state the unwind left
//! behind, reloads its shards from durable contents, pins them to the
//! budget floor, and rejoins (`ShardRespawned`); the coordinator, for
//! the rest of that round only, plans with floor-pinned zero-demand
//! stats for its shards, so the tree's burst-first reclaim hands the
//! freed budget to siblings. Commands are FIFO, so the next round's
//! first request queues behind the respawn: a recovering worker is never
//! observed between rounds. Beyond the restart budget a panic is fatal:
//! the worker exits and everything that needs it fails with
//! [`ViyojitError::ShardFailed`]. A wedged (alive but silent) worker
//! surfaces as [`ViyojitError::RoundTimeout`] instead of a hang.
//!
//! [`ShardedViyojitBuilder::build_parallel`]:
//!     super::ShardedViyojitBuilder::build_parallel
//! [`CostModel::free`]: sim_clock::CostModel::free
//! [`SsdConfig::instant`]: ssd_sim::SsdConfig::instant

use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use battery_sim::{Battery, PowerModel};
use fault_sim::CrashSignal;
use sim_clock::{Clock, SimDuration, SimTime};
use ssd_sim::SsdStats;
use telemetry::{FlightRecorder, Telemetry, TraceEvent};

use crate::{InvariantViolation, NvHeap, PowerFailureReport, RegionId, ViyojitError};

use super::builder::ShardedViyojitBuilder;
use super::coordinator::{quarantine_stats, Coordinated, Coordinator, Lost, Router, Transport};
use super::driver::{BudgetGrant, Phase, Route, ShardDriver, ShardStats};
use super::plane::ShardDataPlane;
use super::DirtyTracker;

/// Staged writes per worker before a batch is shipped.
pub const WRITE_BATCH: usize = 64;

/// Wall-clock deadline for any single wait on a worker's reply. Healthy
/// exchanges complete in microseconds; a thread silent this long is
/// wedged (alive but stuck), and the caller aborts with
/// [`ViyojitError::RoundTimeout`] instead of blocking forever.
pub const ROUND_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug)]
struct StagedWrite {
    route: Route,
    offset: u64,
    data: Vec<u8>,
}

/// Everything one can ask of a worker's driver.
enum Request {
    WriteBatch(Vec<StagedWrite>),
    Tick(SimDuration),
    Read {
        route: Route,
        offset: u64,
        len: usize,
    },
    Map {
        shard: usize,
        len_bytes: u64,
    },
    Unmap(Route),
    /// A barrier: answered once everything sent before it was served.
    Sync,
    Stats,
    SsdStats,
    Apply(Phase, Vec<BudgetGrant>),
    PowerFailure(Option<Box<(Battery, PowerModel)>>),
    Recover,
    Invariants,
}

enum Reply {
    Done,
    Read(Result<Vec<u8>, ViyojitError>),
    Mapped(Result<RegionId, ViyojitError>),
    Unmapped(Result<(), ViyojitError>),
    Stats(Vec<ShardStats>),
    Ssd(Vec<(usize, SsdStats)>),
    Failure(Vec<(usize, PowerFailureReport)>),
    Invariants(Result<(), InvariantViolation>),
}

/// What a worker that panicked serving a request answers it with.
struct WorkerDown {
    /// The restart budget is spent: the worker has exited for good.
    /// Otherwise it is respawning its shards and will serve the next
    /// request.
    fatal: bool,
}

type Answer = Result<Reply, WorkerDown>;

/// Worker and caller live in this file, so a mismatch is a bug here.
const REPLY_KIND: &str = "a worker answers every request with that request's reply kind";

/// A request and, unless it is fire-and-forget, where to answer it.
type Command = (Request, Option<Sender<Answer>>);

/// Why a wait on one worker ended without a reply.
enum WaitError {
    Down { fatal: bool },
    Silent,
}

/// The channels to the worker threads, shared by both handles. Dropping
/// the last reference closes the command channels — ending the worker
/// loops — and joins the threads.
#[derive(Debug)]
struct Links {
    txs: Vec<Sender<Command>>,
    thread_of_shard: Vec<usize>,
    /// The first error a fire-and-forget command hit; surfaced by the
    /// next `sync` or `step`.
    error: Arc<Mutex<Option<ViyojitError>>>,
    joins: Vec<JoinHandle<()>>,
}

impl Links {
    /// Sends a fire-and-forget request to `thread`.
    fn post(&self, thread: usize, request: Request) -> Result<(), ViyojitError> {
        self.txs[thread]
            .send((request, None))
            .map_err(|_| ViyojitError::ShardFailed { shard: thread })
    }

    /// Sends `request` to `thread`, returning where its answer arrives. A
    /// worker that already exited drops the command — and with it the
    /// answer's sender — so the loss shows up at [`Links::wait`].
    fn ask(&self, thread: usize, request: Request) -> Receiver<Answer> {
        let (tx, rx) = channel();
        let _ = self.txs[thread].send((request, Some(tx)));
        rx
    }

    fn wait(rx: Receiver<Answer>) -> Result<Reply, WaitError> {
        match rx.recv_timeout(ROUND_TIMEOUT) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(WorkerDown { fatal })) => Err(WaitError::Down { fatal }),
            Err(RecvTimeoutError::Timeout) => Err(WaitError::Silent),
            // The worker exited without serving the request.
            Err(RecvTimeoutError::Disconnected) => Err(WaitError::Down { fatal: true }),
        }
    }

    /// Round-trips a data-plane request to `thread`.
    fn exchange(&self, thread: usize, request: Request) -> Result<Reply, ViyojitError> {
        Links::wait(self.ask(thread, request)).map_err(|e| match e {
            WaitError::Down { .. } => ViyojitError::ShardFailed { shard: thread },
            WaitError::Silent => ViyojitError::RoundTimeout,
        })
    }

    fn take_async_error(&self) -> Result<(), ViyojitError> {
        let mut slot = self.error.lock().unwrap_or_else(PoisonError::into_inner);
        slot.take().map_or(Ok(()), Err)
    }
}

impl Drop for Links {
    fn drop(&mut self) {
        self.txs.clear();
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

/// The threaded transport: one driver per worker thread, reached over
/// [`Links`]. "Now" is the driver timeline `step` advances; every worker
/// clock follows it tick for tick.
#[derive(Debug)]
pub(super) struct Workers {
    links: Arc<Links>,
    now: SimTime,
    /// The per-shard budget floor a respawning worker pins its shards to,
    /// and so what their quarantine stats report.
    floor: u64,
}

impl Workers {
    /// Sends `make(thread)` to every worker not in `down` before awaiting
    /// any answer, then hands each reply to `take`. In a round (`down` is
    /// given), a worker answering that it is respawning joins `down`;
    /// any other loss is the caller's error.
    fn gather(
        &self,
        down: Option<&mut Vec<bool>>,
        mut make: impl FnMut(usize) -> Request,
        mut take: impl FnMut(Reply),
    ) -> Result<(), Lost> {
        let threads = self.links.txs.len();
        let in_round = down.is_some();
        let mut outside_a_round = Vec::new();
        let down = down.unwrap_or(&mut outside_a_round);
        down.resize(threads, false);
        let pending: Vec<_> = (0..threads)
            .filter(|&t| !down[t])
            .map(|t| (t, self.links.ask(t, make(t))))
            .collect();
        for (t, rx) in pending {
            match Links::wait(rx) {
                Ok(reply) => take(reply),
                Err(WaitError::Down { fatal: false }) if in_round => down[t] = true,
                Err(WaitError::Down { .. }) => return Err(Lost::Down { driver: t }),
                Err(WaitError::Silent) => return Err(Lost::Silent { driver: t }),
            }
        }
        Ok(())
    }

    fn shards(&self) -> usize {
        self.links.thread_of_shard.len()
    }
}

impl Transport for Workers {
    fn now(&self) -> SimTime {
        self.now
    }

    fn advance(&mut self, d: SimDuration) -> Result<(), Lost> {
        self.now += d;
        for t in 0..self.links.txs.len() {
            self.links
                .post(t, Request::Tick(d))
                .map_err(|_| Lost::Down { driver: t })?;
        }
        Ok(())
    }

    fn stats(&self, down: Option<&mut Vec<bool>>) -> Result<Vec<ShardStats>, Lost> {
        let mut out: Vec<ShardStats> = (0..self.shards())
            .map(|s| quarantine_stats(s, self.floor))
            .collect();
        self.gather(
            down,
            |_| Request::Stats,
            |reply| {
                let Reply::Stats(stats) = reply else {
                    unreachable!("{REPLY_KIND}")
                };
                for s in stats {
                    out[s.shard] = s;
                }
            },
        )?;
        Ok(out)
    }

    fn ssd_stats(&self) -> Result<Vec<SsdStats>, Lost> {
        let mut out = vec![SsdStats::default(); self.shards()];
        self.gather(
            None,
            |_| Request::SsdStats,
            |reply| {
                let Reply::Ssd(stats) = reply else {
                    unreachable!("{REPLY_KIND}")
                };
                for (shard, s) in stats {
                    out[shard] = s;
                }
            },
        )?;
        Ok(out)
    }

    fn apply(
        &mut self,
        phase: Phase,
        grants: &[BudgetGrant],
        down: &mut Vec<bool>,
    ) -> Result<(), Lost> {
        let thread_of_shard = &self.links.thread_of_shard;
        // Every worker hears of every phase, grants or not: the shrink
        // request is what a worker's round begins with.
        let own = |t: usize| {
            let grants = grants.iter().filter(|g| thread_of_shard[g.shard] == t);
            Request::Apply(phase, grants.copied().collect())
        };
        self.gather(Some(down), own, |_| {})
    }

    fn power_failure(
        &mut self,
        supply: Option<(&Battery, &PowerModel)>,
    ) -> Result<Vec<PowerFailureReport>, Lost> {
        let mut out = vec![None; self.shards()];
        self.gather(
            None,
            |_| Request::PowerFailure(supply.map(|(b, p)| Box::new((b.clone(), p.clone())))),
            |reply| {
                let Reply::Failure(reports) = reply else {
                    unreachable!("{REPLY_KIND}")
                };
                for (shard, report) in reports {
                    out[shard] = Some(report);
                }
            },
        )?;
        let reports = out.into_iter().map(|r| r.expect("every worker answered"));
        Ok(reports.collect())
    }

    fn recover(&mut self) -> Result<(), Lost> {
        self.gather(None, |_| Request::Recover, |_| {})
    }

    fn check_engines(&self) -> Result<Result<(), InvariantViolation>, Lost> {
        let mut first = Ok(());
        self.gather(
            None,
            |_| Request::Invariants,
            |reply| {
                let Reply::Invariants(checked) = reply else {
                    unreachable!("{REPLY_KIND}")
                };
                first = first.and(checked);
            },
        )?;
        Ok(first)
    }
}

// ----------------------------------------------------------------------
// Worker threads
// ----------------------------------------------------------------------

/// Classifies a caught panic payload into a stable postmortem trigger:
/// an injected crash names its seam, anything else is a plain `panic`.
fn panic_trigger(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<CrashSignal>() {
        Some(signal) => format!("crash_signal:{}", signal.point.name()),
        None => "panic".to_string(),
    }
}

struct Worker<B: DirtyTracker> {
    driver: ShardDriver<B>,
    rx: Receiver<Command>,
    error: Arc<Mutex<Option<ViyojitError>>>,
    /// This worker's thread index — also its first owned shard, which is
    /// how its events and errors name it.
    thread: usize,
    /// Panics this worker may absorb by respawning from durable state
    /// before one is fatal (0 = every panic is fatal, the pre-supervision
    /// behaviour).
    restart_budget: u32,
    restarts: u32,
    /// The cluster's per-shard budget floor: a respawned worker pins its
    /// engines here until the next round replans them.
    floor: u64,
    /// This worker's telemetry shard: every record locks only this
    /// thread's own recorder, never a shared one.
    telemetry: Telemetry,
    /// Black-box writer; a caught panic dumps this thread's trace window
    /// before recovery proceeds.
    flight: Option<Arc<FlightRecorder>>,
    /// Budget rounds this worker has entered, stamped into postmortem
    /// dumps.
    rounds: u64,
}

impl<B: DirtyTracker> Worker<B> {
    fn run(mut self) {
        while let Ok((request, answer)) = self.rx.recv() {
            // `answer` stays outside the unwind boundary, so a panic
            // still answers the request that triggered it.
            let served = catch_unwind(AssertUnwindSafe(|| self.serve(request)));
            let (reply, panicked) = match served {
                Ok(reply) => (Ok(reply), None),
                Err(payload) => {
                    self.dump_black_box(&panic_trigger(payload.as_ref()));
                    let fatal = self.restarts >= self.restart_budget;
                    (Err(WorkerDown { fatal }), Some(fatal))
                }
            };
            if let Some(answer) = answer {
                let _ = answer.send(reply);
            }
            match panicked {
                None => {}
                Some(false) => self.respawn(),
                Some(true) => {
                    self.record_error(ViyojitError::ShardFailed { shard: self.thread });
                    break;
                }
            }
        }
    }

    /// Dumps this thread's flight-recorder black box. Best-effort: the
    /// crash path must never die on a full disk.
    fn dump_black_box(&self, trigger: &str) {
        if let Some(flight) = &self.flight {
            let label = format!("worker{}", self.thread);
            let _ = flight.dump(&label, trigger, self.rounds, &self.telemetry);
        }
    }

    /// Self-recovery after a caught panic: power-cycle every owned shard
    /// at the floor budget and rejoin the command loop.
    fn respawn(&mut self) {
        self.restarts += 1;
        let (shard, restarts) = (self.thread as u64, u64::from(self.restarts));
        self.telemetry
            .emit(|| TraceEvent::ShardPanicked { shard, restarts });
        let pages_lost = self.driver.restart_at_floor(self.floor);
        self.telemetry
            .emit(|| TraceEvent::ShardRespawned { shard, pages_lost });
    }

    fn record_error(&self, e: ViyojitError) {
        self.error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(e);
    }

    fn serve(&mut self, request: Request) -> Reply {
        match request {
            Request::WriteBatch(batch) => {
                for w in batch {
                    if let Err(e) = self.driver.write(w.route, w.offset, &w.data) {
                        self.record_error(e);
                    }
                }
                Reply::Done
            }
            Request::Tick(d) => {
                self.driver.clock().advance(d);
                Reply::Done
            }
            Request::Read { route, offset, len } => {
                let mut buf = vec![0u8; len];
                let read = self.driver.read(route, offset, &mut buf);
                Reply::Read(read.map(|()| buf))
            }
            Request::Map { shard, len_bytes } => Reply::Mapped(self.driver.map(shard, len_bytes)),
            Request::Unmap(route) => Reply::Unmapped(self.driver.unmap(route)),
            Request::Sync => Reply::Done,
            Request::Stats => Reply::Stats(self.driver.shard_stats().collect()),
            Request::SsdStats => Reply::Ssd(self.driver.ssd_stats().collect()),
            Request::Apply(phase, grants) => {
                if phase == Phase::Shrink {
                    self.rounds += 1;
                    // Power cut between the stats upload and the grant
                    // download: the coordinator planned with this
                    // worker's demand but no grant was applied.
                    fault_sim::crashpoint!(self.driver.crashes(), BudgetRound);
                }
                self.driver.apply_grants(phase, &grants);
                Reply::Done
            }
            Request::PowerFailure(supply) => {
                let supply = supply.as_deref().map(|(battery, power)| (battery, power));
                Reply::Failure(self.driver.power_failure(supply))
            }
            Request::Recover => {
                self.driver.recover();
                Reply::Done
            }
            Request::Invariants => Reply::Invariants(self.driver.check_invariants()),
        }
    }
}

// ----------------------------------------------------------------------
// Spawning
// ----------------------------------------------------------------------

/// Spawns the worker threads described by `b` and returns the two plane
/// handles. `b` was already validated.
pub(super) fn spawn_parallel<B: DirtyTracker + Send + 'static>(
    b: ShardedViyojitBuilder<B>,
) -> (ShardDataHandle, ShardControlHandle) {
    let shards = b.shards;
    let threads = b.threads.unwrap_or(shards).min(shards);
    let t0 = b.clock.now();
    let tree = b.tree();
    let error = Arc::new(Mutex::new(None));
    let mut txs = Vec::with_capacity(threads);
    let mut joins = Vec::with_capacity(threads);
    for t in 0..threads {
        let clock = Clock::new();
        clock.advance_to(t0);
        // Each worker thread records into its own telemetry shard: the
        // write path locks a mutex no other thread ever touches, and the
        // parent handle merges shards on demand at snapshot time.
        let telemetry = b.telemetry.fork_shard(clock.clone());
        let profiler = b.profiler.fork(clock.clone());
        let owned = (t..shards).step_by(threads);
        let (tx, rx) = channel();
        txs.push(tx);
        let worker = Worker {
            driver: ShardDriver::build(&b, &tree, owned, clock, &telemetry, profiler),
            rx,
            error: Arc::clone(&error),
            thread: t,
            restart_budget: b.restart_budget,
            restarts: 0,
            floor: b.min_per_shard,
            telemetry,
            flight: b.flight.clone(),
            rounds: 0,
        };
        joins.push(
            std::thread::Builder::new()
                .name(format!("viyojit-worker{t}"))
                .spawn(move || worker.run())
                .expect("worker threads must spawn"),
        );
    }
    let links = Arc::new(Links {
        txs,
        thread_of_shard: (0..shards).map(|s| s % threads).collect(),
        error,
        joins,
    });
    let workers = Workers {
        links: Arc::clone(&links),
        now: t0,
        floor: b.min_per_shard,
    };
    let shared = Arc::new(Mutex::new(Coordinator::new(workers, tree, b)));
    (
        ShardDataHandle {
            router: Router::new(shards),
            staging: (0..threads).map(|_| Vec::new()).collect(),
            links,
            coord: Arc::clone(&shared),
        },
        ShardControlHandle { coord: shared },
    )
}

/// Locks the shared coordinator — the round mutex. Poisoning is ignored:
/// the coordinator updates its tree and ledger only after a round's
/// fallible exchanges are done, each in one step, so a panic under the
/// lock leaves them valid.
fn lock(coord: &Mutex<Coordinator<Workers>>) -> MutexGuard<'_, Coordinator<Workers>> {
    coord.lock().unwrap_or_else(PoisonError::into_inner)
}

// ----------------------------------------------------------------------
// The data-plane handle
// ----------------------------------------------------------------------

/// The application-facing handle of a parallel sharded deployment:
/// [`NvHeap`] routing plus [`ShardDataPlane`] time-stepping.
///
/// Writes are bounds-checked against the route table and staged in
/// per-worker batches; reads and mappings are synchronous request/reply
/// exchanges with the owning worker. Asynchronous write errors surface at
/// the next [`sync`](ShardDataPlane::sync) or
/// [`step`](ShardDataPlane::step).
#[derive(Debug)]
pub struct ShardDataHandle {
    router: Router,
    staging: Vec<Vec<StagedWrite>>,
    links: Arc<Links>,
    coord: Arc<Mutex<Coordinator<Workers>>>,
}

impl ShardDataHandle {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.router.shards()
    }

    /// The shard a global region handle routes to, if mapped.
    pub fn shard_of(&self, region: RegionId) -> Option<usize> {
        self.router.shard_of(region)
    }

    fn flush_thread(&mut self, thread: usize) -> Result<(), ViyojitError> {
        if self.staging[thread].is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.staging[thread]);
        self.links.post(thread, Request::WriteBatch(batch))
    }

    fn flush_all(&mut self) -> Result<(), ViyojitError> {
        (0..self.staging.len()).try_for_each(|t| self.flush_thread(t))
    }
}

impl NvHeap for ShardDataHandle {
    /// Maps a region on the preferred (hashed) shard, probing the other
    /// shards in order when that shard's space is exhausted — identical
    /// placement to the sequential frontend.
    fn map(&mut self, len_bytes: u64) -> Result<RegionId, ViyojitError> {
        let links = &self.links;
        self.router.map(len_bytes, |shard| {
            let request = Request::Map { shard, len_bytes };
            match links.exchange(links.thread_of_shard[shard], request)? {
                Reply::Mapped(mapped) => mapped,
                _ => unreachable!("{REPLY_KIND}"),
            }
        })
    }

    fn unmap(&mut self, region: RegionId) -> Result<(), ViyojitError> {
        let route = self.router.route(region)?;
        let thread = self.links.thread_of_shard[route.shard];
        self.flush_thread(thread)?;
        let Reply::Unmapped(unmapped) = self.links.exchange(thread, Request::Unmap(route))? else {
            unreachable!("{REPLY_KIND}")
        };
        unmapped?;
        self.router.unmap(region);
        Ok(())
    }

    fn read(&mut self, region: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), ViyojitError> {
        let route = self.router.route(region)?;
        let thread = self.links.thread_of_shard[route.shard];
        self.flush_thread(thread)?;
        let request = Request::Read {
            route,
            offset,
            len: buf.len(),
        };
        let Reply::Read(read) = self.links.exchange(thread, request)? else {
            unreachable!("{REPLY_KIND}")
        };
        buf.copy_from_slice(&read?);
        Ok(())
    }

    fn write(&mut self, region: RegionId, offset: u64, data: &[u8]) -> Result<(), ViyojitError> {
        let route = self.router.route(region)?;
        route.check(offset, data.len())?;
        let thread = self.links.thread_of_shard[route.shard];
        self.staging[thread].push(StagedWrite {
            route,
            offset,
            data: data.to_vec(),
        });
        if self.staging[thread].len() >= WRITE_BATCH {
            self.flush_thread(thread)?;
        }
        Ok(())
    }

    fn region_len(&self, region: RegionId) -> Result<u64, ViyojitError> {
        Ok(self.router.route(region)?.len_bytes)
    }
}

impl ShardDataPlane for ShardDataHandle {
    /// Flushes staged writes, ticks every worker's clock, and — when the
    /// driver timeline crosses a rebalance boundary — runs one round,
    /// exactly as the sequential frontend does.
    fn step(&mut self, d: SimDuration) -> Result<(), ViyojitError> {
        self.flush_all()?;
        lock(&self.coord).step(d)?;
        self.links.take_async_error()
    }

    /// Flushes staged writes, barriers on every worker, and surfaces any
    /// asynchronous write error.
    fn sync(&mut self) -> Result<(), ViyojitError> {
        self.flush_all()?;
        for t in 0..self.staging.len() {
            self.links.exchange(t, Request::Sync)?;
        }
        self.links.take_async_error()
    }
}

// ----------------------------------------------------------------------
// The control-plane handle
// ----------------------------------------------------------------------

/// The operator-facing handle of a parallel sharded deployment: budget
/// rounds, failure simulation, recovery, audits — the shared coordinator
/// behind its round mutex, every call a message exchange with the worker
/// threads.
#[derive(Debug)]
pub struct ShardControlHandle {
    coord: Arc<Mutex<Coordinator<Workers>>>,
}

impl Coordinated for ShardControlHandle {
    type Transport = Workers;

    fn coordinator(&self) -> impl Deref<Target = Coordinator<Workers>> {
        lock(&self.coord)
    }

    fn coordinator_mut(&mut self) -> impl DerefMut<Target = Coordinator<Workers>> {
        lock(&self.coord)
    }
}

impl ShardControlHandle {
    /// One [`ShardStats`] per shard, ascending by shard index — the same
    /// per-shard view a round starts from.
    pub fn shard_stats(&mut self) -> Result<Vec<ShardStats>, ViyojitError> {
        lock(&self.coord).shard_stats()
    }

    /// Aggregated SSD counters across all shards.
    pub fn ssd_stats(&mut self) -> Result<SsdStats, ViyojitError> {
        lock(&self.coord).ssd_stats(None)
    }
}
