//! Connection- and tenant-level admission control.
//!
//! Admission composes with — never replaces — the service layer's own
//! Block/Shed queue policies. The gateway's job is to refuse work *before*
//! it costs a packet decode or a queue slot: per-tenant token buckets cap
//! sustained ingest rate, per-connection buffer caps bound what a slow or
//! hostile peer can make the server hold, and a stall deadline evicts
//! clients that park a partial frame (or never read their responses).

use std::time::{Duration, Instant};

/// A classic token bucket: `rate` tokens accrue per second up to `burst`;
/// each admitted packet spends one token.
///
/// Time is passed in explicitly ([`TokenBucket::try_take_at`]) so tests
/// and simulations can drive it deterministically; [`TokenBucket::try_take`]
/// is the wall-clock convenience.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec`, holding at most `burst`
    /// tokens, starting full. Rates and bursts are clamped to a small
    /// positive floor so a mis-configured zero cannot silently admit
    /// everything (use no bucket at all for "unlimited").
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        let rate_per_sec = rate_per_sec.max(f64::MIN_POSITIVE);
        let burst = burst.max(1.0);
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    /// Spends one token against the wall clock.
    pub fn try_take(&mut self) -> bool {
        self.try_take_at(Instant::now())
    }

    /// Spends one token with an explicit clock. A `now` earlier than the
    /// last observation refills nothing (monotonicity is the caller's
    /// concern; the bucket just saturates).
    pub fn try_take_at(&mut self, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (diagnostic).
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// Per-connection byte-level limits, enforced by each connection's thread.
#[derive(Clone, Copy, Debug)]
pub struct ConnLimits {
    /// Cap on one request payload; a frame declaring more is rejected
    /// before buffering and the connection closed.
    pub max_payload: usize,
    /// Cap on buffered-but-unparsed request bytes per connection (the
    /// "max in-flight bytes" bound). Each read is parsed at once, so with
    /// `max_payload` well below this cap no client hits it.
    pub max_buffer: usize,
    /// How long a connection may sit with a partial frame buffered, or
    /// blocked writing responses its client does not read, before it is
    /// evicted as a slow client.
    pub stall_deadline: Duration,
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits {
            max_payload: crate::envelope::DEFAULT_MAX_PAYLOAD,
            max_buffer: 1 << 21,
            stall_deadline: Duration::from_secs(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starve_then_refill() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 3.0);
        // Burst capacity admits exactly 3 back-to-back.
        assert!(b.try_take_at(t0));
        assert!(b.try_take_at(t0));
        assert!(b.try_take_at(t0));
        assert!(!b.try_take_at(t0));
        // 100 ms at 10/s refills one token.
        assert!(b.try_take_at(t0 + Duration::from_millis(100)));
        assert!(!b.try_take_at(t0 + Duration::from_millis(100)));
        // A long quiet period refills to burst, not beyond.
        let later = t0 + Duration::from_secs(60);
        assert!(b.try_take_at(later));
        assert!(b.try_take_at(later));
        assert!(b.try_take_at(later));
        assert!(!b.try_take_at(later));
    }

    #[test]
    fn clock_going_backwards_refills_nothing() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(1000.0, 1.0);
        assert!(b.try_take_at(t0 + Duration::from_secs(1)));
        // Earlier timestamp: saturating duration is zero, no refill.
        assert!(!b.try_take_at(t0));
        assert!(b.available() < 1.0);
    }

    #[test]
    fn zero_rate_is_clamped_not_unlimited() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(0.0, 0.0);
        assert!(b.try_take_at(t0), "burst floor of 1 admits one packet");
        assert!(!b.try_take_at(t0 + Duration::from_secs(1)));
    }
}
