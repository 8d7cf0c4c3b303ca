//! Time as a capability: the [`Clock`] trait and the production
//! [`SystemClock`].
//!
//! The service stack (eventloop ticks, idle-timeout reaping, batch
//! stat-sweep timing, uptime reporting) reads time through a shared
//! `Arc<dyn Clock>` rather than `Instant::now()`, so every timing
//! boundary can be driven without real-time sleeps. [`SystemClock`] —
//! process-monotonic nanoseconds — is the default everywhere; the
//! deterministic-simulation harness (the `pnew-dst` crate) installs a
//! virtual clock that moves only when the harness advances it, so a
//! schedule that "waits" five virtual minutes for an idle reap runs
//! identically on every run.
//!
//! Clocks are deliberately tiny — nanoseconds since an arbitrary epoch
//! — because that is all the service layer needs: elapsed-time
//! comparisons. Wall-clock dates stay out of scope on purpose (they
//! would leak nondeterminism back in).

use std::fmt;
use std::time::Instant;

/// A monotonic time source.
///
/// Implementations must be cheap to query and safe to share across
/// threads; the epoch is arbitrary but fixed for the lifetime of the
/// clock, so only differences of [`Clock::now_ns`] values are
/// meaningful.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Monotonic nanoseconds since this clock's (arbitrary) epoch.
    fn now_ns(&self) -> u64;
}

/// The production clock: monotonic time anchored at construction.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock { epoch: Instant::now() }
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn system_clock_is_monotonic_and_roughly_tracks_real_time() {
        let clock = SystemClock::default();
        let a = clock.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        let b = clock.now_ns();
        assert!(b >= a + 1_000_000, "2ms sleep advanced {}ns", b - a);
    }

    #[test]
    fn clocks_are_object_safe_and_shareable() {
        let clock: std::sync::Arc<dyn Clock> = std::sync::Arc::new(SystemClock::default());
        let thread_clock = std::sync::Arc::clone(&clock);
        let seen = std::thread::spawn(move || thread_clock.now_ns()).join().unwrap();
        assert!(clock.now_ns() >= seen, "one epoch across threads");
    }
}
