//! Wall-clock primitives for real-time engines.
//!
//! The workspace's static analyzer (`ec-analysis`) bans direct wall-clock
//! reads and sleeps in the deterministic protocol crates, and `ec-runtime`
//! is the one crate whose *purpose* is real time. Real-time engines layered
//! above the protocol crates (the thread engine, the socket-backed net
//! engine) therefore take their clock from here instead of reaching for
//! `std::time` themselves: pacing and timestamping stay confined to the
//! runtime layer, where the policy deliberately allows them.

use std::time::{Duration, Instant};

/// A monotonic stopwatch started at construction — the single wall-clock
/// read point shared by the real-time engines (elapsed-milliseconds stamps
/// for output histories, pacing targets for facade ticks).
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Milliseconds elapsed since the stopwatch was started.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

// The telemetry clock for the real-time engines: a deployment starts one
// stopwatch and shares it (it is `Copy`) with every replica's recorder, so
// all flight-event timestamps of the deployment share one epoch. The
// deterministic engine never constructs this — its recorders run on logical
// ticks ([`ec_telemetry::TimeSource::Logical`]).
impl ec_telemetry::Clock for Stopwatch {
    fn now(&self) -> u64 {
        self.elapsed_ms()
    }
}

/// A periodic deadline — how the wall-clock event loops schedule `on_timer`.
///
/// A loop asks [`Ticker::fire`] at the top of every iteration and, when it
/// is not yet due, blocks on its inbox for at most [`Ticker::wait`]. The
/// timer therefore fires on schedule however busy the inbox is, instead of
/// only after a whole idle period. `fire` re-arms one period after *now*,
/// not after the missed deadline, so a slow handler or a stalled thread
/// yields one late fire rather than a burst of catch-up fires.
#[derive(Clone, Copy, Debug)]
pub struct Ticker {
    period: Duration,
    next: Instant,
}

impl Ticker {
    /// A ticker whose first deadline is one `period` from now.
    pub fn start(period: Duration) -> Self {
        Self::start_at(Instant::now(), period)
    }

    /// Time left until the next deadline; zero once it has passed.
    pub fn wait(&self) -> Duration {
        self.wait_at(Instant::now())
    }

    /// Returns `true` if the deadline has passed, re-arming it one period
    /// from now; `false` (and no change) otherwise.
    pub fn fire(&mut self) -> bool {
        self.fire_at(Instant::now())
    }

    fn start_at(now: Instant, period: Duration) -> Self {
        Ticker {
            period,
            next: now + period,
        }
    }

    fn wait_at(&self, now: Instant) -> Duration {
        self.next.saturating_duration_since(now)
    }

    fn fire_at(&mut self, now: Instant) -> bool {
        if now < self.next {
            return false;
        }
        self.next = now + self.period;
        true
    }
}

/// Blocks the calling thread for `ms` milliseconds (no-op for 0).
pub fn sleep_ms(ms: u64) {
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone_and_sleep_advances_it() {
        let watch = Stopwatch::start();
        let before = watch.elapsed_ms();
        sleep_ms(5);
        sleep_ms(0);
        let after = watch.elapsed_ms();
        assert!(
            after >= before + 4,
            "expected ≥4ms progress: {before}→{after}"
        );
        assert!(format!("{watch:?}").contains("Stopwatch"));
        let defaulted = Stopwatch::default();
        assert!(defaulted.elapsed_ms() <= watch.elapsed_ms());
    }

    const PERIOD: Duration = Duration::from_millis(5);

    #[test]
    fn ticker_wait_counts_down_to_zero_at_the_deadline() {
        let t0 = Instant::now();
        let ticker = Ticker::start_at(t0, PERIOD);
        assert_eq!(ticker.wait_at(t0), PERIOD);
        assert_eq!(
            ticker.wait_at(t0 + Duration::from_millis(2)),
            Duration::from_millis(3)
        );
        assert_eq!(ticker.wait_at(t0 + PERIOD), Duration::ZERO);
        assert_eq!(ticker.wait_at(t0 + 3 * PERIOD), Duration::ZERO);
    }

    #[test]
    fn ticker_fires_once_per_deadline_and_rearms_from_the_call() {
        let t0 = Instant::now();
        let mut ticker = Ticker::start_at(t0, PERIOD);
        assert!(!ticker.fire_at(t0 + Duration::from_millis(4)));
        // a refused fire leaves the deadline where it was
        assert_eq!(ticker.wait_at(t0), PERIOD);
        let late = t0 + Duration::from_millis(7);
        assert!(ticker.fire_at(late));
        assert!(!ticker.fire_at(late), "one fire per deadline");
        // re-armed one period after the call, not after the old deadline
        assert_eq!(ticker.wait_at(late), PERIOD);
        assert!(!ticker.fire_at(late + PERIOD - Duration::from_micros(1)));
        assert!(ticker.fire_at(late + PERIOD));
    }

    #[test]
    fn ticker_fires_once_after_a_stall_of_many_periods() {
        let t0 = Instant::now();
        let mut ticker = Ticker::start_at(t0, PERIOD);
        let resumed = t0 + 10 * PERIOD;
        let fires = (0..10).filter(|_| ticker.fire_at(resumed)).count();
        assert_eq!(fires, 1, "missed deadlines must not be replayed as a burst");
        assert_eq!(ticker.wait_at(resumed), PERIOD);
    }

    #[test]
    fn ticker_on_the_real_clock_waits_then_fires() {
        let mut ticker = Ticker::start(PERIOD);
        assert!(ticker.wait() <= PERIOD);
        std::thread::sleep(ticker.wait());
        assert_eq!(ticker.wait(), Duration::ZERO);
        assert!(ticker.fire());
        assert!(format!("{ticker:?}").contains("Ticker"));
    }
}
