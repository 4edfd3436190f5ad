//! The open-loop arrival schedule: requests are due at fixed times
//! whether or not earlier ones were answered, and latency is counted from
//! the due time, so a stall charges every request it delays.

use std::time::{Duration, Instant};

/// Evenly spaced due times for one generator of `lanes` sharing a rate:
/// lane `lane`'s request `i` is due at `start + (i * lanes + lane) / rate`,
/// which interleaves the lanes' arrivals instead of pairing them.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    period_ns: u64,
    lanes: u64,
    lane: u64,
}

impl Schedule {
    /// Lane `lane` of `lanes` at a combined `rate_rps`, first due at `start`.
    pub fn new(start: Instant, rate_rps: u64, lanes: u64, lane: u64) -> Schedule {
        assert!(rate_rps > 0 && lane < lanes);
        Schedule { start, period_ns: 1_000_000_000 / rate_rps, lanes, lane }
    }

    /// When this lane's request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i * self.lanes + self.lane) * self.period_ns)
    }

    /// How many of this lane's requests are due at or before `now`.
    pub fn due_by(&self, now: Instant) -> u64 {
        let Some(elapsed) = now.checked_duration_since(self.start) else { return 0 };
        let slots = elapsed.as_nanos() as u64 / self.period_ns;
        if slots < self.lane {
            0
        } else {
            (slots - self.lane) / self.lanes + 1
        }
    }
}

/// A request sent more than this long after it was due counts as late.
pub const LATE: Duration = Duration::from_millis(1);

/// How far behind its schedule the generator ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lateness {
    /// Requests sent.
    pub sent: u64,
    /// Requests sent more than [`LATE`] after their due time.
    pub late: u64,
    /// Worst lateness, nanoseconds.
    pub max_ns: u64,
}

impl Lateness {
    /// Count one send that happened at `sent_at` for a request due at `due`.
    pub fn record(&mut self, due: Instant, sent_at: Instant) {
        let behind = sent_at.saturating_duration_since(due);
        self.sent += 1;
        self.late += u64::from(behind > LATE);
        self.max_ns = self.max_ns.max(behind.as_nanos() as u64);
    }

    /// Fold another generator's counts in.
    pub fn merge(&mut self, other: Lateness) {
        self.sent += other.sent;
        self.late += other.late;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Share of sends that were late.
    pub fn late_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.late as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_interleave_at_the_combined_rate() {
        let t0 = Instant::now();
        let (a, b) = (Schedule::new(t0, 1000, 2, 0), Schedule::new(t0, 1000, 2, 1));
        assert_eq!(a.due(0), t0);
        assert_eq!(b.due(0), t0 + Duration::from_millis(1));
        assert_eq!(a.due(1), t0 + Duration::from_millis(2));
        assert_eq!(b.due(5), t0 + Duration::from_millis(11));
    }

    #[test]
    fn due_by_counts_requests_whose_time_has_come() {
        let t0 = Instant::now();
        let b = Schedule::new(t0, 1000, 2, 1);
        assert_eq!(b.due_by(t0), 0);
        assert_eq!(b.due_by(t0 + Duration::from_micros(999)), 0);
        assert_eq!(b.due_by(t0 + Duration::from_millis(1)), 1);
        assert_eq!(b.due_by(t0 + Duration::from_micros(2999)), 1);
        assert_eq!(b.due_by(t0 + Duration::from_millis(3)), 2);
        // `due_by` and `due` agree: request i is due exactly when the count reaches i + 1.
        for i in 0..50 {
            assert_eq!(b.due_by(b.due(i)), i + 1);
        }
        let a = Schedule::new(t0, 1000, 2, 0);
        assert_eq!(a.due_by(t0), 1);
        assert_eq!(a.due_by(t0 + Duration::from_secs(1)), 501);
    }

    #[test]
    fn lateness_counts_from_the_due_time() {
        let t0 = Instant::now();
        let mut l = Lateness::default();
        l.record(t0, t0);
        l.record(t0, t0 + Duration::from_micros(900));
        l.record(t0, t0 + Duration::from_millis(3));
        // Sent early (clock read before the due time): not late, not negative.
        l.record(t0 + Duration::from_millis(1), t0);
        assert_eq!(l, Lateness { sent: 4, late: 1, max_ns: 3_000_000 });
        assert_eq!(l.late_share(), 0.25);
        let mut m = Lateness { sent: 4, late: 0, max_ns: 5_000_000 };
        m.merge(l);
        assert_eq!(m, Lateness { sent: 8, late: 1, max_ns: 5_000_000 });
    }
}
