//! Virtual instants, durations, and the shared simulation clock.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An instant on the virtual timeline, in nanoseconds since simulation start.
///
/// `SimTime` is a transparent newtype over `u64`; it exists so that instants
/// and durations cannot be confused ([`SimDuration`] is the span type).
///
/// # Examples
///
/// ```
/// use sim_clock::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the simulation timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// This instant expressed in nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in whole microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// This instant expressed in whole milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This instant expressed in (fractional) seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of virtual time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use sim_clock::SimDuration;
///
/// let epoch = SimDuration::from_millis(1);
/// assert_eq!(epoch * 3, SimDuration::from_micros(3_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to whole nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// This span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// This span in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This span in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of two spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later SimTime from an earlier one"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a longer SimDuration from a shorter one"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

/// A shareable, monotonically advancing virtual clock.
///
/// Cloning a `Clock` yields a handle to the *same* timeline, so the MMU, the
/// SSD, and the Viyojit runtime all observe a single consistent notion of
/// "now". The clock only moves when some component explicitly charges time
/// to it, which keeps runs bit-for-bit deterministic.
///
/// # Single writer
///
/// A timeline has **one advancing thread at a time**: any number of
/// handles on any number of threads may call [`Clock::now`], but
/// [`Clock::advance`] belongs to the thread driving the simulation (an
/// engine built on one thread and then moved to a worker is fine — the
/// move is the hand-off). That is how every clock in this workspace is
/// used — the inline engines have one driver, each parallel worker owns a
/// fresh `Clock`, telemetry and exporter threads only read — and it lets
/// `advance` publish with a plain store instead of a locked
/// read-modify-write on every simulated memory access. Builds with
/// `debug_assertions` (tier-1 `cargo test`, the TSan job) check the rule:
/// there `advance` is a compare-exchange that panics on a lost update.
///
/// # Examples
///
/// ```
/// use sim_clock::{Clock, SimDuration};
///
/// let clock = Clock::new();
/// let view = clock.clone();
/// clock.advance(SimDuration::from_nanos(7));
/// assert_eq!(view.now().as_nanos(), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now_nanos: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a clock at `SimTime::ZERO`.
    pub fn new() -> Self {
        Clock::default()
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_nanos.load(Ordering::Acquire))
    }

    /// Advances the clock by `d` and returns the new instant.
    ///
    /// Only the timeline's single advancing thread may call this (see the
    /// type-level docs). The `Release` store pairs with the `Acquire` load
    /// in [`Clock::now`], so a reader that observes the new instant also
    /// observes everything the writer did before charging it — the same
    /// edge the `AcqRel` read-modify-write this replaces gave readers.
    ///
    /// # Panics
    ///
    /// In builds with `debug_assertions`, panics if another thread moved
    /// the clock between this call's load and its publish.
    #[inline]
    pub fn advance(&self, d: SimDuration) -> SimTime {
        // Relaxed: the single writer reads back its own last store.
        let prev = self.now_nanos.load(Ordering::Relaxed);
        let next = prev + d.as_nanos();
        self.publish(prev, next);
        SimTime(next)
    }

    /// The writing half of [`Clock::advance`]: moves the timeline from
    /// `prev`, which the caller just read, to `next`.
    #[inline]
    fn publish(&self, prev: u64, next: u64) {
        if cfg!(debug_assertions) {
            let published =
                self.now_nanos
                    .compare_exchange(prev, next, Ordering::AcqRel, Ordering::Relaxed);
            assert!(
                published.is_ok(),
                "two threads advanced one Clock timeline concurrently"
            );
        } else {
            self.now_nanos.store(next, Ordering::Release);
        }
    }

    /// Advances the clock to `t` if `t` is in the future; never moves the
    /// clock backwards. Returns the (possibly unchanged) current instant.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        self.now_nanos.fetch_max(t.as_nanos(), Ordering::AcqRel);
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_nanos(), 3_500);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_millis(), 250);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn duration_from_negative_secs_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn clock_handles_share_a_timeline() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(SimDuration::from_nanos(10));
        b.advance(SimDuration::from_nanos(5));
        assert_eq!(a.now(), SimTime::from_nanos(15));
        assert_eq!(b.now(), SimTime::from_nanos(15));
    }

    #[test]
    fn a_timeline_can_be_handed_to_another_thread() {
        // Built and first charged here, then driven by a worker while this
        // thread only reads: one advancing thread at a time.
        let clock = Clock::new();
        clock.advance(SimDuration::from_nanos(3));
        let worker = clock.clone();
        let end = std::thread::scope(|s| {
            s.spawn(move || {
                (0..1_000).fold(SimTime::ZERO, |_, _| {
                    worker.advance(SimDuration::from_nanos(2))
                })
            })
            .join()
            .expect("the single writer never loses an update")
        });
        assert_eq!(end, SimTime::from_nanos(2_003));
        assert_eq!(clock.now(), end);
        assert_eq!(clock.advance_to(SimTime::from_nanos(10)), end);
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let c = Clock::new();
        c.advance(SimDuration::from_nanos(100));
        // Into the past and onto the present: `now()`, unchanged.
        for t in [50, 100] {
            assert_eq!(
                c.advance_to(SimTime::from_nanos(t)),
                SimTime::from_nanos(100)
            );
            assert_eq!(c.now(), SimTime::from_nanos(100));
        }
        assert_eq!(
            c.advance_to(SimTime::from_nanos(150)),
            SimTime::from_nanos(150)
        );
        assert_eq!(c.now(), SimTime::from_nanos(150));
    }

    /// Two advancing threads, with the interleaving forced at the seam the
    /// check guards: this thread has read the instant it will advance from
    /// when another thread moves the timeline, and only then publishes.
    #[test]
    fn a_second_advancing_thread_is_caught_under_debug_assertions() {
        let clock = Clock::new();
        clock.advance(SimDuration::from_nanos(10));
        let prev = clock.now_nanos.load(Ordering::Relaxed);
        let other = clock.clone();
        std::thread::scope(|s| {
            s.spawn(move || other.advance(SimDuration::from_nanos(5)))
                .join()
                .expect("the other thread found the timeline where it read it");
        });
        let publish = std::panic::catch_unwind(|| clock.publish(prev, 12));
        if cfg!(debug_assertions) {
            let panic = publish.expect_err("the lost update must be caught");
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("two threads advanced"), "{message}");
            assert_eq!(clock.now(), SimTime::from_nanos(15));
        } else {
            // Unchecked in release: the later store wins, which is why the
            // rule is a rule.
            publish.expect("release builds do not check the rule");
            assert_eq!(clock.now(), SimTime::from_nanos(12));
        }
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(30);
        assert_eq!(late.saturating_since(early).as_nanos(), 20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_a_readable_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }
}
