//! The workspace's one monotonic time abstraction.
//!
//! Every component that needs wall time — span durations, receive-wait
//! histograms in the threaded executor, bench-session timings — reads it
//! through the [`Clock`] trait instead of calling `Instant::now()`
//! directly, so tests can substitute a [`FakeClock`] and get bit-for-bit
//! reproducible timestamps.

#![expect(
    clippy::disallowed_methods,
    reason = "the Clock is the sanctioned home of wall-time reads and waits"
)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic nanosecond source.
///
/// Implementations must be monotone non-decreasing per instance; the
/// absolute epoch is unspecified (only differences are meaningful).
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds since this clock's (arbitrary) epoch.
    fn now_nanos(&self) -> u64;

    /// Block the calling thread for `d` *on this clock's axis*.
    ///
    /// The production clock really sleeps; [`FakeClock`] advances its
    /// reading instantly instead, so retry/backoff schedules driven
    /// through a clock handle stay deterministic (and fast) in tests.
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Shared process-wide origin so every [`MonotonicClock`] instance reports
/// on the same axis.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// The production clock: `Instant`-backed, one shared epoch per process.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        origin().elapsed().as_nanos() as u64
    }
}

/// A manually advanced clock for deterministic tests.
///
/// Starts at zero; [`FakeClock::advance`] and [`FakeClock::set`] move it.
/// Shared through an `Arc`, so a test can hold one handle while the code
/// under test reads time through the facade.
#[derive(Debug, Default)]
pub struct FakeClock {
    nanos: AtomicU64,
}

impl FakeClock {
    /// A fresh clock at t = 0.
    pub fn new() -> FakeClock {
        FakeClock::default()
    }

    /// Move the clock forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Set the absolute reading (must not move backwards in real use;
    /// unchecked because tests may want to).
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    /// Fake sleep: advance the reading by `d` and return immediately.
    fn sleep(&self, d: Duration) {
        self.advance(d.as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock;
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn fake_clock_advances_deterministically() {
        let c = FakeClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_nanos(), 12);
        c.set(3);
        assert_eq!(c.now_nanos(), 3);
    }

    #[test]
    fn fake_sleep_advances_instead_of_blocking() {
        let c = FakeClock::new();
        let wall = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(5), "must not block");
        assert_eq!(c.now_nanos(), 3600 * 1_000_000_000);
    }

    #[test]
    fn real_sleep_moves_the_monotonic_clock() {
        let c = MonotonicClock;
        let before = c.now_nanos();
        c.sleep(Duration::from_millis(2));
        assert!(c.now_nanos() - before >= 1_000_000);
    }
}
