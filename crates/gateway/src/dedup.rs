//! Per-tenant bounded dedup window: the server half of exactly-once
//! ingest.
//!
//! Every packet enters the gateway as an [`crate::OpCode::IngestSeq`]
//! frame, and a client retries one whenever it is not sure the last one
//! landed — the connection died before the ack, the ack was corrupted, a
//! timeout fired. The only way a retry is safe is if the server remembers
//! which `(session, seq)` pairs it has already absorbed: the first copy is
//! counted and acked `Accepted`, every later copy is acked `Duplicate`
//! without touching the evidence monoid. The window keys on
//! `(session, seq)` alone; the frame's trace context plays no part, so
//! traced and untraced frames are deduplicated alike.
//!
//! A copy is absorbed only when the pool takes it, and a `Block` enqueue
//! can park for as long as the shard is behind — long enough for the
//! client to time out and resend on a new connection. So the check that
//! finds a pair fresh also reserves it as **in flight**: a second copy
//! arriving while the first is still being admitted reads
//! [`DedupVerdict::InFlight`] and is answered `Busy` without being
//! enqueued. The first copy's outcome settles the reservation: absorbed,
//! it becomes a record ([`DedupState::record`]); refused, it is released
//! ([`DedupState::release`]) and a retry is fresh again.
//!
//! Memory is bounded in both dimensions:
//!
//! * **Sessions per tenant** are capped; adding one beyond the cap evicts
//!   the least-recently-used session (counted by the caller). A client
//!   whose session is evicted mid-retry would be double-counted, so the
//!   cap every tenant runs ([`DEFAULT_MAX_SESSIONS`], 1024) sits far
//!   above anything a single gateway serves today.
//! * **Out-of-order seqs per session** are capped by the window width.
//!   Acked seqs are compressed into a watermark (`everything below is
//!   acked`) as soon as they are contiguous; only acked seqs *above a
//!   gap* occupy window slots. A gap only forms when a seq reaches a
//!   terminal non-counted outcome (malformed packet) or a client
//!   pipelines more than one outstanding frame. If the window overflows,
//!   the watermark jumps over the oldest gap — retries of seqs below the
//!   watermark then read as `Duplicate` even if they were never counted.
//!   With the [`crate::GatewayClient::send`] discipline (one outstanding
//!   frame, terminal outcomes are never retried) the window never holds
//!   more than one entry and the degradation is unreachable.
//! * **In-flight reservations** last only while a copy is being admitted,
//!   so there are never more than the tenant's concurrent admissions.

use std::collections::{BTreeMap, BTreeSet};

/// Default cap on tracked sessions per tenant.
pub const DEFAULT_MAX_SESSIONS: usize = 1024;

/// Default cap on non-contiguous acked seqs retained per session.
pub const DEFAULT_WINDOW: usize = 1024;

/// One session's acked-seq state.
#[derive(Debug, Default)]
struct SessionWindow {
    /// Every seq strictly below this is acked.
    watermark: u64,
    /// Acked seqs at or above the watermark (non-contiguous tail).
    acked: BTreeSet<u64>,
    /// LRU tick of the last touch.
    last_used: u64,
}

impl SessionWindow {
    fn is_acked(&self, seq: u64) -> bool {
        seq < self.watermark || self.acked.contains(&seq)
    }

    /// Records an accepted seq, compresses the contiguous prefix into the
    /// watermark, and enforces the width cap (jumping the watermark over
    /// the oldest gap on overflow).
    fn record(&mut self, seq: u64, window: usize) {
        if seq < self.watermark {
            return;
        }
        self.acked.insert(seq);
        while self.acked.remove(&self.watermark) {
            self.watermark += 1;
        }
        while self.acked.len() > window {
            let oldest = *self.acked.iter().next().expect("non-empty");
            self.acked.remove(&oldest);
            self.watermark = oldest + 1;
            while self.acked.remove(&self.watermark) {
                self.watermark += 1;
            }
        }
    }
}

/// Verdict of a dedup reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupVerdict {
    /// Never seen, and now reserved as in flight: admit it, then
    /// [`DedupState::record`] or [`DedupState::release`] it.
    Fresh,
    /// Already counted: ack `Duplicate`, do not absorb again.
    Duplicate,
    /// Another copy is being admitted right now: ack `Busy`, do not
    /// enqueue.
    InFlight,
}

/// Bounded per-tenant dedup state across all of the tenant's sessions.
#[derive(Debug)]
pub struct DedupState {
    sessions: BTreeMap<u64, SessionWindow>,
    /// `(session, seq)` pairs reserved and not yet recorded or released.
    in_flight: BTreeSet<(u64, u64)>,
    max_sessions: usize,
    window: usize,
    tick: u64,
    evicted_sessions: u64,
}

impl Default for DedupState {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_SESSIONS, DEFAULT_WINDOW)
    }
}

impl DedupState {
    /// A window holding at most `max_sessions` sessions of `window`
    /// non-contiguous acked seqs each (both clamped to at least 1).
    pub fn new(max_sessions: usize, window: usize) -> Self {
        DedupState {
            sessions: BTreeMap::new(),
            in_flight: BTreeSet::new(),
            max_sessions: max_sessions.max(1),
            window: window.max(1),
            tick: 0,
            evicted_sessions: 0,
        }
    }

    /// Whether `(session, seq)` was already counted or is in flight;
    /// reserves it as in flight when it is neither.
    pub fn reserve(&mut self, session: u64, seq: u64) -> DedupVerdict {
        self.tick += 1;
        let tick = self.tick;
        if let Some(w) = self.sessions.get_mut(&session) {
            w.last_used = tick;
            if w.is_acked(seq) {
                return DedupVerdict::Duplicate;
            }
        }
        if self.in_flight.insert((session, seq)) {
            DedupVerdict::Fresh
        } else {
            DedupVerdict::InFlight
        }
    }

    /// Drops the in-flight reservation of `(session, seq)`: its copy was
    /// not absorbed, so a retry is fresh.
    pub fn release(&mut self, session: u64, seq: u64) {
        self.in_flight.remove(&(session, seq));
    }

    /// Records `(session, seq)` as counted, ending its reservation. Call
    /// only after the packet was actually absorbed (acked ≡ counted — the
    /// record and the ack must cover the same set).
    pub fn record(&mut self, session: u64, seq: u64) {
        self.release(session, seq);
        self.tick += 1;
        let tick = self.tick;
        if !self.sessions.contains_key(&session) && self.sessions.len() >= self.max_sessions {
            // Evict the least-recently-used session.
            let lru = self
                .sessions
                .iter()
                .min_by_key(|(_, w)| w.last_used)
                .map(|(&s, _)| s)
                .expect("non-empty at cap");
            self.sessions.remove(&lru);
            self.evicted_sessions += 1;
        }
        let w = self.sessions.entry(session).or_default();
        w.last_used = tick;
        w.record(seq, self.window);
    }

    /// Sessions currently tracked.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions evicted at the cap since construction.
    pub fn evicted_sessions(&self) -> u64 {
        self.evicted_sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_copy_fresh_every_retry_duplicate() {
        let mut d = DedupState::default();
        assert_eq!(d.reserve(1, 0), DedupVerdict::Fresh);
        d.record(1, 0);
        for _ in 0..3 {
            assert_eq!(d.reserve(1, 0), DedupVerdict::Duplicate);
        }
        // Same seq on a different session is a different frame.
        assert_eq!(d.reserve(2, 0), DedupVerdict::Fresh);
    }

    #[test]
    fn a_reserved_seq_is_in_flight_until_recorded_or_released() {
        let mut d = DedupState::default();
        assert_eq!(d.reserve(1, 0), DedupVerdict::Fresh);
        assert_eq!(d.reserve(1, 0), DedupVerdict::InFlight);
        d.release(1, 0);
        assert_eq!(d.reserve(1, 0), DedupVerdict::Fresh, "released");
        d.record(1, 0);
        assert_eq!(d.reserve(1, 0), DedupVerdict::Duplicate);
        assert!(d.in_flight.is_empty());
    }

    #[test]
    fn contiguous_seqs_compress_into_the_watermark() {
        let mut d = DedupState::new(4, 4);
        for seq in 0..10_000u64 {
            assert_eq!(d.reserve(9, seq), DedupVerdict::Fresh);
            d.record(9, seq);
        }
        let w = d.sessions.get(&9).unwrap();
        assert_eq!(w.watermark, 10_000);
        assert!(w.acked.is_empty(), "compressed, not retained");
        assert_eq!(d.reserve(9, 123), DedupVerdict::Duplicate);
    }

    #[test]
    fn gap_entries_are_bounded_by_the_window() {
        let mut d = DedupState::new(4, 8);
        // Leave seq 0 un-acked forever (a terminal malformed outcome):
        // the watermark cannot advance, so acked seqs pile into the set.
        for seq in 1..100u64 {
            d.record(9, seq);
        }
        let w = d.sessions.get(&9).unwrap();
        assert!(w.acked.len() <= 8, "window bound holds: {}", w.acked.len());
        // Recent seqs still dedup exactly.
        assert_eq!(d.reserve(9, 99), DedupVerdict::Duplicate);
        assert_eq!(d.reserve(9, 100), DedupVerdict::Fresh);
    }

    #[test]
    fn session_cap_evicts_least_recently_used() {
        let mut d = DedupState::new(2, 4);
        d.record(1, 0);
        d.record(2, 0);
        // Touch session 1 so session 2 is the LRU.
        assert_eq!(d.reserve(1, 0), DedupVerdict::Duplicate);
        d.record(3, 0);
        assert_eq!(d.sessions(), 2);
        assert_eq!(d.evicted_sessions(), 1);
        assert_eq!(d.reserve(1, 0), DedupVerdict::Duplicate, "kept");
        assert_eq!(d.reserve(3, 0), DedupVerdict::Duplicate, "kept");
        assert_eq!(d.reserve(2, 0), DedupVerdict::Fresh, "evicted");
    }

    #[test]
    fn out_of_order_acks_within_the_window_dedup_exactly() {
        let mut d = DedupState::new(4, 16);
        for &seq in &[5u64, 3, 7, 0, 1] {
            assert_eq!(d.reserve(4, seq), DedupVerdict::Fresh);
            d.record(4, seq);
        }
        for &seq in &[5u64, 3, 7, 0, 1] {
            assert_eq!(d.reserve(4, seq), DedupVerdict::Duplicate);
        }
        for &seq in &[2u64, 4, 6, 8] {
            assert_eq!(d.reserve(4, seq), DedupVerdict::Fresh);
        }
    }
}
