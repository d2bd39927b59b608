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
//!   without taking any lock — one flat batch per worker, shipped at
//!   [`WRITE_BATCH`] writes or a payload-byte cap and handed back empty
//!   by the worker, so a steady-state `write` allocates nothing — reads
//!   and mappings are synchronous request/reply, `step` drives the
//!   shared driver timeline;
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
//! A round is four such rendezvous, and what they cost is not the channel
//! hops but the sleeps: a thread parked in a futex costs its peer a wake
//! call and itself a wake-up latency. So both ends wait the same way
//! (`receive`): poll the channel with a spin hint, then poll
//! yielding the core, and only then block — the caller until the deadline
//! it took on entry, the worker's command loop indefinitely. A healthy
//! exchange completes within the polls and nobody sleeps; an idle worker
//! or a long flush ends up parked as before; with more waiters than cores
//! the yields hand the core to whoever has work.
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
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError,
};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// The most payload one batch carries, whatever its write count — a
/// single larger write travels alone — and the most a buffer may have
/// carried for its worker to hand it back: staging memory stays bounded
/// however large the writes are.
const BATCH_BYTES: usize = 16 * 1024;

/// Served batches a worker's return channel holds; one handed back to a
/// full channel is dropped instead.
const RETURN_DEPTH: usize = 32;

/// A wait polls its channel this many times with a spin hint, then up to
/// [`YIELD_POLLS`] more times yielding the core in between, before it
/// parks. Parking costs the peer a futex wake and this side a wake-up
/// latency — tens of microseconds on a virtualised host, four times per
/// budget round — while a healthy peer answers within the polls.
const SPIN_POLLS: u32 = 128;
const YIELD_POLLS: u32 = 2_000;

/// Receives from `rx`, polling before parking. The deadline is taken on
/// entry, so the polls never extend a bounded wait.
fn receive<T>(rx: &Receiver<T>, timeout: Option<Duration>) -> Result<T, RecvTimeoutError> {
    let deadline = timeout.map(|timeout| Instant::now() + timeout);
    for poll in 0..SPIN_POLLS + YIELD_POLLS {
        match rx.try_recv() {
            Ok(message) => return Ok(message),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) if poll < SPIN_POLLS => std::hint::spin_loop(),
            // With more waiters than cores, the core goes to whoever has
            // work instead of to this loop.
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    match deadline {
        Some(deadline) => rx.recv_timeout(deadline.saturating_duration_since(Instant::now())),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    }
}

/// One worker's staged writes, flat: `(route, offset, len)` per write in
/// program order, the payloads back to back in `bytes`. The worker slices
/// it, clears it and hands it back, so both buffers keep their capacity
/// and a steady-state `write` allocates nothing.
#[derive(Debug, Default)]
struct WriteBatch {
    writes: Vec<(Route, u64, usize)>,
    bytes: Vec<u8>,
}

impl WriteBatch {
    fn push(&mut self, route: Route, offset: u64, data: &[u8]) {
        self.writes.push((route, offset, data.len()));
        self.bytes.extend_from_slice(data);
    }

    /// Whether `len` more payload bytes stay within [`BATCH_BYTES`].
    fn fits(&self, len: usize) -> bool {
        self.bytes.len() + len <= BATCH_BYTES
    }

    fn is_full(&self) -> bool {
        self.writes.len() >= WRITE_BATCH || self.bytes.len() >= BATCH_BYTES
    }
}

/// Everything one can ask of a worker's driver.
enum Request {
    WriteBatch(WriteBatch),
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
        match receive(&rx, Some(ROUND_TIMEOUT)) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(WorkerDown { fatal })) => Err(WaitError::Down { fatal }),
            Err(RecvTimeoutError::Timeout) => Err(WaitError::Silent),
            // The worker exited without serving the request.
            Err(RecvTimeoutError::Disconnected) => Err(WaitError::Down { fatal: true }),
        }
    }

    /// Awaits `thread`'s answer to a data-plane request.
    fn answer(thread: usize, rx: Receiver<Answer>) -> Result<Reply, ViyojitError> {
        Links::wait(rx).map_err(|e| match e {
            WaitError::Down { .. } => ViyojitError::ShardFailed { shard: thread },
            WaitError::Silent => ViyojitError::RoundTimeout,
        })
    }

    /// Round-trips a data-plane request to `thread`.
    fn exchange(&self, thread: usize, request: Request) -> Result<Reply, ViyojitError> {
        Links::answer(thread, self.ask(thread, request))
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
    /// Where served write batches go back to the data handle.
    served: SyncSender<WriteBatch>,
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
        while let Ok((request, answer)) = receive(&self.rx, None) {
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
            Request::WriteBatch(mut batch) => {
                let mut payload = batch.bytes.as_slice();
                for &(route, offset, len) in &batch.writes {
                    let (data, rest) = payload.split_at(len);
                    payload = rest;
                    if let Err(e) = self.driver.write(route, offset, data) {
                        self.record_error(e);
                    }
                }
                if batch.bytes.len() <= BATCH_BYTES {
                    batch.writes.clear();
                    batch.bytes.clear();
                    // A full channel (or a dropped data handle) frees it.
                    let _ = self.served.try_send(batch);
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
    let mut recycled = Vec::with_capacity(threads);
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
        let (served, back) = sync_channel(RETURN_DEPTH);
        recycled.push(Mutex::new(back));
        let worker = Worker {
            driver: ShardDriver::build(&b, &tree, owned, clock, &telemetry, profiler),
            rx,
            served,
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
            staging: (0..threads).map(|_| WriteBatch::default()).collect(),
            recycled,
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
/// [`step`](ShardDataPlane::step). Dropping the handle ships what is
/// still staged, but has nowhere to report an error to.
#[derive(Debug)]
pub struct ShardDataHandle {
    router: Router,
    staging: Vec<WriteBatch>,
    /// Per worker, the served batches it handed back for reuse. The
    /// mutex is never locked (`get_mut`): it keeps the handle `Sync`.
    recycled: Vec<Mutex<Receiver<WriteBatch>>>,
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
        if self.staging[thread].writes.is_empty() {
            return Ok(());
        }
        let recycled = self.recycled[thread].get_mut();
        let recycled = recycled.unwrap_or_else(PoisonError::into_inner);
        let spare = recycled.try_recv().unwrap_or_default();
        let batch = std::mem::replace(&mut self.staging[thread], spare);
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
        if !self.staging[thread].fits(data.len()) {
            self.flush_thread(thread)?;
        }
        self.staging[thread].push(route, offset, data);
        if self.staging[thread].is_full() {
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

    /// Flushes staged writes, barriers on every worker — all asked before
    /// any is awaited — and surfaces any asynchronous write error.
    fn sync(&mut self) -> Result<(), ViyojitError> {
        self.flush_all()?;
        let pending: Vec<_> = (0..self.staging.len())
            .map(|t| self.links.ask(t, Request::Sync))
            .collect();
        for (t, rx) in pending.into_iter().enumerate() {
            Links::answer(t, rx)?;
        }
        self.links.take_async_error()
    }
}

impl Drop for ShardDataHandle {
    /// Writes that returned `Ok` must reach their shards even if only the
    /// control handle lives on to `power_failure()` and `recover()`.
    fn drop(&mut self) {
        let _ = self.flush_all();
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

#[cfg(test)]
mod tests {
    use super::super::ShardControlPlane;
    use super::*;
    use crate::ViyojitConfig;
    use fault_sim::{CrashSchedule, Crashpoint};
    use mem_sim::PAGE_SIZE;

    const PAGE: u64 = PAGE_SIZE as u64;

    /// One shard of 64 pages: every write goes to worker 0.
    fn one_shard(budget: u64) -> ShardedViyojitBuilder {
        ShardedViyojitBuilder::new(1, 64, ViyojitConfig::with_budget_pages(budget))
    }

    fn contents<H: NvHeap>(nv: &mut H, region: RegionId, pages: u64) -> Vec<u8> {
        let mut buf = vec![0u8; (pages * PAGE) as usize];
        nv.read(region, 0, &mut buf).expect("an in-range read");
        buf
    }

    #[test]
    fn a_batch_of_mixed_length_writes_reads_back_as_the_sequential_frontend() {
        let long = [4u8; 200];
        let writes: [(u64, &[u8]); 7] = [
            (0, &[]),
            (5, &[1]),
            (100, &[2; 64]),
            (PAGE - 100, &long), // spans pages 0 and 1
            (2 * PAGE + 300, &[5; 16]),
            (2 * PAGE + 310, &[6; 16]), // overlaps the write before it
            (2 * PAGE + 320, &[7; 3]),
        ];
        let mut seq = one_shard(16).build_sequential().expect("valid");
        let (mut data, mut ctrl) = one_shard(16).build_parallel().expect("valid");
        let (rs, rp) = (seq.map(4 * PAGE).unwrap(), data.map(4 * PAGE).unwrap());
        for (offset, bytes) in writes {
            seq.write(rs, offset, bytes).unwrap();
            data.write(rp, offset, bytes).unwrap();
        }
        assert_eq!(data.staging[0].writes.len(), writes.len(), "one batch");
        assert_eq!(contents(&mut data, rp, 4), contents(&mut seq, rs, 4));
        assert!(data.staging[0].writes.is_empty(), "a read drains the batch");
        assert_eq!(ctrl.dirty_count().unwrap(), seq.dirty_count());
    }

    #[test]
    fn the_byte_cap_closes_a_batch_early_and_an_oversized_buffer_is_not_kept() {
        let (mut data, _ctrl) = one_shard(16).build_parallel().expect("valid");
        let region = data.map(16 * PAGE).unwrap();
        let chunk = vec![9u8; BATCH_BYTES / 3 - 100];
        for i in 0..3 {
            assert_eq!(data.staging[0].writes.len(), i);
            data.write(region, i as u64 * 2 * PAGE, &chunk).unwrap();
        }
        data.write(region, 6 * PAGE, &chunk).unwrap();
        assert_eq!(
            data.staging[0].writes.len(),
            1,
            "a fourth would cross the cap: three ship, far short of WRITE_BATCH"
        );
        data.sync().unwrap();

        // One write of twice the cap is a batch of its own; its buffer is
        // freed by the worker instead of travelling back.
        let big = vec![3u8; 2 * BATCH_BYTES];
        data.write(region, 0, &big).unwrap();
        assert!(data.staging[0].writes.is_empty());
        data.sync().unwrap();
        let back = data.recycled[0].get_mut().unwrap();
        assert!(back
            .try_iter()
            .chain([std::mem::take(&mut data.staging[0])])
            .all(|batch| batch.bytes.capacity() < big.len()));
        assert_eq!(contents(&mut data, region, 8), big);

        // Small batches do come back: after a sync the staging buffer is a
        // served one, capacity intact.
        for _ in 0..2 * WRITE_BATCH {
            data.write(region, 0, &[1; 64]).unwrap();
        }
        data.sync().unwrap();
        data.write(region, 0, &[1; 64]).unwrap();
        data.flush_all().unwrap();
        assert!(data.staging[0].bytes.capacity() >= WRITE_BATCH * 64);
    }

    #[test]
    fn an_asynchronous_write_error_surfaces_at_the_next_sync_and_later_batches_land() {
        let (mut data, _ctrl) = one_shard(16).build_parallel().expect("valid");
        let region = data.map(PAGE).unwrap();
        // `write` validates against the router, so only a route the
        // worker's engine does not know can fail behind it.
        let route = data.router.route(region).unwrap();
        let unknown = RegionId(route.local.0 + 7);
        let stale = Route {
            local: unknown,
            ..route
        };
        data.staging[0].push(stale, 0, &[1]);
        data.flush_all().unwrap();
        data.write(region, 8, &[2; 8]).unwrap();
        assert_eq!(data.sync(), Err(ViyojitError::BadRegion(unknown)));
        let mut buf = [0u8; 8];
        data.read(region, 8, &mut buf).unwrap();
        assert_eq!(buf, [2; 8], "the batch behind the failed one was served");
        assert_eq!(data.sync(), Ok(()), "an error is reported once");
    }

    #[test]
    fn a_worker_that_panics_mid_batch_respawns_and_staging_goes_on() {
        // Budget 4, eight pages: the fifth write forces a flush, and the
        // armed seam fires inside it — inside the worker's `WriteBatch`.
        let crashes = CrashSchedule::armed(Crashpoint::FlushInFlight, 1);
        let (mut data, mut ctrl) = one_shard(4)
            .crashes(crashes.clone())
            .restart_budget(1)
            .build_parallel()
            .expect("valid");
        let region = data.map(8 * PAGE).unwrap();
        for page in 0..8 {
            data.write(region, page * PAGE, &[1; 64]).unwrap();
        }
        data.sync().expect("the barrier queues behind the respawn");
        assert_eq!(
            crashes.fired().map(|signal| signal.point),
            Some(Crashpoint::FlushInFlight)
        );
        let back = data.recycled[0].get_mut().unwrap();
        assert!(back.try_recv().is_err(), "the unwind dropped the batch");

        for page in 0..8 {
            data.write(region, page * PAGE, &[2; 64]).unwrap();
        }
        data.sync().unwrap();
        let mut buf = [0u8; 64];
        for page in 0..8 {
            data.read(region, page * PAGE, &mut buf).unwrap();
            assert_eq!(buf, [2; 64]);
        }
        assert!(ctrl.dirty_count().unwrap() <= 4);
    }

    #[test]
    fn eight_workers_on_fewer_cores_complete_two_hundred_rounds() {
        let config = ViyojitConfig::with_budget_pages(64);
        let (mut data, mut ctrl) = ShardedViyojitBuilder::new(8, 64, config)
            .min_per_shard(2)
            .rebalance_period(SimDuration::from_millis(1))
            .build_parallel()
            .expect("valid");
        // One region, so one worker has the writes and seven only wait.
        let region = data.map(16 * PAGE).unwrap();
        for round in 0..200u64 {
            for page in 0..16 {
                data.write(region, page * PAGE, &[round as u8; 64]).unwrap();
            }
            data.step(SimDuration::from_millis(1)).unwrap();
        }
        assert_eq!(ctrl.rebalances().unwrap(), 200);
    }

    #[test]
    fn dropping_the_data_handle_ships_what_is_still_staged() {
        let mut seq = one_shard(16).build_sequential().expect("valid");
        let (mut data, mut ctrl) = one_shard(16).build_parallel().expect("valid");
        let (rs, rp) = (seq.map(4 * PAGE).unwrap(), data.map(4 * PAGE).unwrap());
        for page in 0..3 {
            seq.write(rs, page * PAGE, &[page as u8 + 1; 64]).unwrap();
            data.write(rp, page * PAGE, &[page as u8 + 1; 64]).unwrap();
        }
        let route = data.router.route(rp).unwrap();
        drop(data);
        assert_eq!(ctrl.dirty_count().unwrap(), seq.dirty_count());
        assert_eq!(ctrl.power_failure().unwrap(), seq.power_failure());
        ctrl.recover().unwrap();
        seq.recover();

        // Only the data handle reads; ask the worker as it would have.
        let request = Request::Read {
            route,
            offset: 0,
            len: 4 * PAGE_SIZE,
        };
        let links = Arc::clone(&lock(&ctrl.coord).transport.links);
        let Ok(Reply::Read(Ok(recovered))) = links.exchange(0, request) else {
            panic!("the worker serves reads after recovery");
        };
        assert_eq!(recovered, contents(&mut seq, rs, 4));
    }
}
