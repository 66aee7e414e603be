//! A clock-free circuit breaker guarding the exact solve path.
//!
//! When the solver starts failing (fallback-chain exhaustion, repeated
//! deadline cancellations under a latency fault), burning the in-flight
//! budget on more doomed exact solves makes overload worse. The breaker
//! watches a sliding window of exact-solve outcomes; past a failure
//! threshold it *opens* and the server answers from the degraded tier
//! (a stale exact cache entry, else the proportional closed form —
//! see `CombinedModel::estimate_processor_power_degraded`), every such
//! answer explicitly tagged `"degraded": true` on the wire.
//!
//! Recovery is by **request counting, not wall-clock time**: an open
//! breaker serves a fixed number of degraded requests (the cooldown),
//! then goes *half-open* and lets exactly one request probe the exact
//! path. A successful probe closes the breaker; a failed probe re-opens
//! it for another cooldown. Counting keeps the breaker fully
//! deterministic under the chaos harness's seeded fault plans — the
//! same request sequence always produces the same trip/recover trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the breaker tells the server to do with one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Breaker closed: solve exactly.
    Exact,
    /// Breaker half-open: solve exactly, as the recovery probe.
    Probe,
    /// Breaker open: answer from the degraded tier.
    Degraded,
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Normal operation; outcomes feed the sliding window.
    Closed,
    /// Tripped; requests degrade until the cooldown count elapses.
    Open,
    /// Cooldown elapsed; one probe may try the exact path.
    HalfOpen,
}

impl Mode {
    /// The stable wire name used in `stats` responses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open => "open",
            Mode::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug)]
enum State {
    Closed {
        /// Ring of the last `window` exact-solve outcomes (true = failure).
        outcomes: Vec<bool>,
        /// Next write position in the ring.
        at: usize,
        /// Outcomes recorded so far (saturates at `window`).
        filled: usize,
    },
    Open {
        /// Degraded requests left before going half-open.
        cooldown_left: u32,
    },
    HalfOpen {
        /// Whether a probe is currently out.
        probe_inflight: bool,
        /// Degraded decisions since the probe left; if the probe is lost
        /// (its connection died before recording), another is allowed
        /// after `cooldown` of these, so the breaker cannot wedge.
        waited: u32,
    },
}

/// Counters for `stats` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakerStats {
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Recovery probes issued.
    pub probes: u64,
    /// Requests answered from the degraded tier by breaker decision.
    pub degraded_decides: u64,
}

/// A count-based circuit breaker over exact-solve outcomes.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: Mutex<State>,
    window: usize,
    threshold: u32,
    cooldown: u32,
    trips: AtomicU64,
    probes: AtomicU64,
    degraded_decides: AtomicU64,
}

impl CircuitBreaker {
    /// A breaker tripping once `threshold` of the last `window` exact
    /// solves failed, then serving `cooldown` degraded requests before
    /// probing. `window` and `threshold` are clamped to at least 1;
    /// `cooldown` to at least 1.
    pub fn new(window: usize, threshold: u32, cooldown: u32) -> Self {
        let window = window.max(1);
        CircuitBreaker {
            state: Mutex::new(State::Closed { outcomes: vec![false; window], at: 0, filled: 0 }),
            window,
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            trips: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            degraded_decides: AtomicU64::new(0),
        }
    }

    /// Routes one request: exact, probe, or degraded.
    pub fn decide(&self) -> Decision {
        let mut st = self.lock();
        match &mut *st {
            State::Closed { .. } => Decision::Exact,
            State::Open { cooldown_left } => {
                *cooldown_left = cooldown_left.saturating_sub(1);
                if *cooldown_left == 0 {
                    *st = State::HalfOpen { probe_inflight: false, waited: 0 };
                }
                self.degraded_decides.fetch_add(1, Ordering::Relaxed);
                Decision::Degraded
            }
            State::HalfOpen { probe_inflight, waited } => {
                if !*probe_inflight {
                    *probe_inflight = true;
                    *waited = 0;
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    Decision::Probe
                } else {
                    *waited += 1;
                    if *waited >= self.cooldown {
                        // The outstanding probe never reported back (lost
                        // connection); allow a fresh one.
                        *waited = 0;
                        self.probes.fetch_add(1, Ordering::Relaxed);
                        Decision::Probe
                    } else {
                        self.degraded_decides.fetch_add(1, Ordering::Relaxed);
                        Decision::Degraded
                    }
                }
            }
        }
    }

    /// Records the outcome of an exact or probe solve (`failed` = the
    /// solve errored, was cancelled by its deadline, or fell back to the
    /// proportional split).
    pub fn record(&self, failed: bool) {
        let mut st = self.lock();
        match &mut *st {
            State::Closed { outcomes, at, filled } => {
                outcomes[*at] = failed;
                *at = (*at + 1) % self.window;
                *filled = (*filled + 1).min(self.window);
                let failures = outcomes.iter().filter(|&&f| f).count() as u32;
                if failures >= self.threshold {
                    *st = State::Open { cooldown_left: self.cooldown };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                }
            }
            State::HalfOpen { .. } => {
                if failed {
                    *st = State::Open { cooldown_left: self.cooldown };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                } else {
                    *st = State::Closed { outcomes: vec![false; self.window], at: 0, filled: 0 };
                }
            }
            // Outcomes arriving while open (e.g. a straggler probe from
            // before a re-trip) carry no routing information; drop them.
            State::Open { .. } => {}
        }
    }

    /// The current mode (for `stats`).
    pub fn mode(&self) -> Mode {
        match &*self.lock() {
            State::Closed { .. } => Mode::Closed,
            State::Open { .. } => Mode::Open,
            State::HalfOpen { .. } => Mode::HalfOpen,
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> BreakerStats {
        BreakerStats {
            trips: self.trips.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            degraded_decides: self.degraded_decides.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_closed_below_threshold() {
        let b = CircuitBreaker::new(8, 4, 2);
        for _ in 0..10 {
            assert_eq!(b.decide(), Decision::Exact);
            b.record(false);
        }
        b.record(true);
        b.record(true);
        b.record(true);
        assert_eq!(b.mode(), Mode::Closed);
        assert_eq!(b.stats().trips, 0);
    }

    #[test]
    fn trips_at_threshold_then_recovers_via_probe() {
        let b = CircuitBreaker::new(4, 2, 3);
        // Two failures in the window trip it.
        b.record(true);
        assert_eq!(b.mode(), Mode::Closed);
        b.record(true);
        assert_eq!(b.mode(), Mode::Open);
        assert_eq!(b.stats().trips, 1);
        // Cooldown: three degraded decisions, then half-open.
        assert_eq!(b.decide(), Decision::Degraded);
        assert_eq!(b.decide(), Decision::Degraded);
        assert_eq!(b.decide(), Decision::Degraded);
        assert_eq!(b.mode(), Mode::HalfOpen);
        // Exactly one probe; others still degrade.
        assert_eq!(b.decide(), Decision::Probe);
        assert_eq!(b.decide(), Decision::Degraded);
        // Successful probe closes with a clean window.
        b.record(false);
        assert_eq!(b.mode(), Mode::Closed);
        assert_eq!(b.decide(), Decision::Exact);
        b.record(true); // one failure in a fresh window does not re-trip
        assert_eq!(b.mode(), Mode::Closed);
        assert_eq!(b.stats().probes, 1);
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let b = CircuitBreaker::new(2, 1, 2);
        b.record(true);
        assert_eq!(b.mode(), Mode::Open);
        assert_eq!(b.decide(), Decision::Degraded);
        assert_eq!(b.decide(), Decision::Degraded);
        assert_eq!(b.decide(), Decision::Probe);
        b.record(true);
        assert_eq!(b.mode(), Mode::Open);
        assert_eq!(b.stats().trips, 2);
    }

    #[test]
    fn lost_probe_does_not_wedge_the_breaker() {
        let b = CircuitBreaker::new(2, 1, 2);
        b.record(true); // trip
        b.decide();
        b.decide(); // cooldown elapsed -> half-open
        assert_eq!(b.decide(), Decision::Probe);
        // The probe's connection dies; it never records. After `cooldown`
        // more degraded decisions a fresh probe is allowed.
        assert_eq!(b.decide(), Decision::Degraded);
        assert_eq!(b.decide(), Decision::Probe);
        b.record(false);
        assert_eq!(b.mode(), Mode::Closed);
        assert_eq!(b.stats().probes, 2);
    }

    #[test]
    fn deterministic_trace_for_a_fixed_sequence() {
        // Same outcome sequence, same decision trace — twice.
        let run = || {
            let b = CircuitBreaker::new(4, 2, 2);
            let mut trace = Vec::new();
            let outcomes = [false, true, true, false, false, true, true, false];
            let mut i = 0;
            for _ in 0..20 {
                let d = b.decide();
                trace.push(d);
                if d != Decision::Degraded {
                    b.record(outcomes[i % outcomes.len()]);
                    i += 1;
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(Mode::Closed.name(), "closed");
        assert_eq!(Mode::Open.name(), "open");
        assert_eq!(Mode::HalfOpen.name(), "half_open");
    }
}
