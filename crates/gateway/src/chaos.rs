//! Seeded, deterministic socket-level fault injection.
//!
//! [`ChaosTransport`] wraps any [`Transport`] and injects the failure
//! modes a real edge sees — connection kills, resets, partial writes,
//! stalls, delays, and byte corruption — *between* the protocol code and
//! the kernel, so the bytes on the wire (and the peer's view of the
//! connection) are genuinely damaged. This extends the packet-level
//! `FaultPlan` of `pnm-sim` down to the transport the gateway actually
//! serves.
//!
//! Determinism: every decision comes from an internal SplitMix64 stream
//! seeded at construction, so a failing soak run replays exactly from its
//! seed. Probabilities are evaluated **per I/O call**, not per byte —
//! coarse, but it keeps the fault rate independent of chunk sizes.
//!
//! The injected faults deliberately live on the **client side** of the
//! wire. Corrupting a write damages bytes *before* the server's CRC
//! checks; killing a connection mid-request loses the ack, not the
//! server's absorption — exactly the ambiguity the exactly-once protocol
//! ([`crate::SeqFrame`] / [`crate::IngestAck`] / [`crate::dedup`]) must
//! resolve.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::transport::Transport;

/// SplitMix64 step — the standard seed mixer; dependency-free and good
/// enough for fault scheduling (this is not cryptographic randomness).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a SplitMix64 state.
pub(crate) fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-I/O-call fault probabilities (each in `[0, 1]`) plus durations.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPlan {
    /// Kill the connection (shutdown both halves, then error). The peer
    /// sees a close; the client sees the error and must reconnect.
    pub kill: f64,
    /// Fail the call with `ConnectionReset` and poison the connection
    /// without a clean shutdown — the abortive-close flavor.
    pub reset: f64,
    /// Truncate a write to roughly half its bytes (the caller's
    /// `write_all` continues, so the frame crosses in fragments — and a
    /// kill between fragments leaves a half-written frame on the wire).
    pub partial_write: f64,
    /// Flip one bit of the outgoing bytes.
    pub corrupt: f64,
    /// Sleep [`stall`](Self::stall_for) before a read — delaying the ack
    /// past the client's patience if the timeout is tight.
    pub stall: f64,
    /// Sleep [`delay`](Self::delay_for) before a write — ordinary added
    /// latency.
    pub delay: f64,
    /// Stall duration.
    pub stall_for: Duration,
    /// Delay duration.
    pub delay_for: Duration,
}

impl ChaosPlan {
    /// No faults at all (every probability zero).
    pub fn calm() -> Self {
        ChaosPlan {
            kill: 0.0,
            reset: 0.0,
            partial_write: 0.0,
            corrupt: 0.0,
            stall: 0.0,
            delay: 0.0,
            stall_for: Duration::from_millis(40),
            delay_for: Duration::from_millis(2),
        }
    }

    /// The reference full-intensity mix the soak sweep scales: kills and
    /// resets rare per call, partial writes and delays common, corruption
    /// in between.
    pub fn full() -> Self {
        ChaosPlan {
            kill: 0.02,
            reset: 0.02,
            partial_write: 0.20,
            corrupt: 0.05,
            stall: 0.02,
            delay: 0.10,
            stall_for: Duration::from_millis(40),
            delay_for: Duration::from_millis(2),
        }
    }

    /// [`full`](Self::full) scaled by `intensity` in `[0, 1]` — the knob
    /// the `resilience` suite turns per tenant. Intensity 0 is exactly
    /// [`calm`](Self::calm) (zero injected faults).
    pub fn at_intensity(intensity: f64) -> Self {
        let x = intensity.clamp(0.0, 1.0);
        let f = Self::full();
        ChaosPlan {
            kill: f.kill * x,
            reset: f.reset * x,
            partial_write: f.partial_write * x,
            corrupt: f.corrupt * x,
            stall: f.stall * x,
            delay: f.delay * x,
            stall_for: f.stall_for,
            delay_for: f.delay_for,
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_calm(&self) -> bool {
        self.kill == 0.0
            && self.reset == 0.0
            && self.partial_write == 0.0
            && self.corrupt == 0.0
            && self.stall == 0.0
            && self.delay == 0.0
    }
}

/// Shared tally of every fault actually injected — the "injected" side of
/// the soak's counter-balance gate.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Connections killed (clean shutdown injected).
    pub kills: AtomicU64,
    /// Connections reset (abortive error injected).
    pub resets: AtomicU64,
    /// Writes truncated.
    pub partial_writes: AtomicU64,
    /// Outgoing buffers with a bit flipped.
    pub corruptions: AtomicU64,
    /// Reads stalled.
    pub stalls: AtomicU64,
    /// Writes delayed.
    pub delays: AtomicU64,
}

impl ChaosCounters {
    /// Total connection-fatal faults (kills + resets) — each one forces a
    /// client reconnect.
    pub fn fatal(&self) -> u64 {
        self.kills.load(Ordering::Relaxed) + self.resets.load(Ordering::Relaxed)
    }

    /// Total of every injected fault.
    pub fn total(&self) -> u64 {
        self.fatal()
            + self.partial_writes.load(Ordering::Relaxed)
            + self.corruptions.load(Ordering::Relaxed)
            + self.stalls.load(Ordering::Relaxed)
            + self.delays.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] that misbehaves on schedule.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    plan: ChaosPlan,
    rng: u64,
    counters: Arc<ChaosCounters>,
    /// A kill or reset already happened; every later call fails.
    dead: bool,
}

impl ChaosTransport {
    /// Wraps `inner` with the plan's faults, drawing decisions from
    /// `seed`. Injected faults are tallied into `counters` (shared across
    /// the reconnects of one logical client, so the totals survive the
    /// connections they killed).
    pub fn new(
        inner: Box<dyn Transport>,
        plan: ChaosPlan,
        seed: u64,
        counters: Arc<ChaosCounters>,
    ) -> Self {
        ChaosTransport {
            inner,
            plan,
            // Pre-mix so seed 0 and seed 1 diverge immediately.
            rng: seed ^ 0xD6E8_FEB8_6659_FD93,
            counters,
            dead: false,
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && unit(&mut self.rng) < p
    }

    fn die(&mut self, clean: bool) -> io::Error {
        self.dead = true;
        if clean {
            self.counters.kills.fetch_add(1, Ordering::Relaxed);
            self.inner.shutdown();
            io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection killed")
        } else {
            self.counters.resets.fetch_add(1, Ordering::Relaxed);
            io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection reset")
        }
    }
}

impl Transport for ChaosTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: connection already dead",
            ));
        }
        if self.roll(self.plan.kill) {
            return Err(self.die(true));
        }
        if self.roll(self.plan.reset) {
            return Err(self.die(false));
        }
        if self.roll(self.plan.stall) {
            self.counters.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.plan.stall_for);
        }
        self.inner.read(buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: connection already dead",
            ));
        }
        if self.roll(self.plan.kill) {
            return Err(self.die(true));
        }
        if self.roll(self.plan.reset) {
            return Err(self.die(false));
        }
        if self.roll(self.plan.delay) {
            self.counters.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.plan.delay_for);
        }
        let mut take = buf.len();
        if take > 1 && self.roll(self.plan.partial_write) {
            self.counters.partial_writes.fetch_add(1, Ordering::Relaxed);
            take = (take / 2).max(1);
        }
        if !buf.is_empty() && self.roll(self.plan.corrupt) {
            self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
            let mut damaged = buf[..take].to_vec();
            let pos = (splitmix64(&mut self.rng) as usize) % damaged.len();
            let bit = 1u8 << (splitmix64(&mut self.rng) % 8) as u8;
            damaged[pos] ^= bit;
            // Report the damaged bytes as fully written so the caller
            // does not "repair" the frame by resending a clean suffix.
            self.inner.write_all(&damaged)?;
            return Ok(take);
        }
        self.inner.write(&buf[..take])
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// An in-memory transport that records what was written.
    #[derive(Default)]
    struct Tape(Arc<Mutex<Vec<u8>>>);

    impl Transport for Tape {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn set_read_timeout(&self, _t: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_write_timeout(&self, _t: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn shutdown(&self) {}
    }

    #[test]
    fn calm_plan_is_a_transparent_wrapper() {
        let tape = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(ChaosCounters::default());
        let mut t = ChaosTransport::new(
            Box::new(Tape(Arc::clone(&tape))),
            ChaosPlan::calm(),
            7,
            Arc::clone(&counters),
        );
        for _ in 0..1000 {
            t.write_all(b"hello").unwrap();
        }
        assert_eq!(tape.lock().unwrap().len(), 5000);
        assert_eq!(counters.total(), 0, "calm injects nothing");
    }

    #[test]
    fn same_seed_same_faults_different_seed_different_faults() {
        let run = |seed: u64| {
            let counters = Arc::new(ChaosCounters::default());
            let mut t = ChaosTransport::new(
                Box::new(Tape::default()),
                ChaosPlan::at_intensity(1.0),
                seed,
                Arc::clone(&counters),
            );
            let mut outcomes = Vec::new();
            for i in 0..300u32 {
                outcomes.push(t.write(&i.to_be_bytes()).map_err(|e| e.kind()));
                if t.dead {
                    break;
                }
            }
            (outcomes, counters.total())
        };
        let (a1, c1) = run(42);
        let (a2, c2) = run(42);
        let (b, _) = run(43);
        assert_eq!(a1, a2, "deterministic per seed");
        assert_eq!(c1, c2);
        assert_ne!(a1, b, "seeds diverge");
    }

    #[test]
    fn full_intensity_injects_and_kills_poison_the_connection() {
        let counters = Arc::new(ChaosCounters::default());
        let mut t = ChaosTransport::new(
            Box::new(Tape::default()),
            ChaosPlan::at_intensity(1.0),
            1,
            Arc::clone(&counters),
        );
        let mut died = false;
        for _ in 0..5000 {
            if t.write(b"abcdefgh").is_err() {
                died = true;
                break;
            }
        }
        assert!(died, "1:25 fatal odds never hit in 5000 calls?");
        assert!(counters.fatal() >= 1);
        // Dead is dead: everything after the fatal fault fails.
        assert!(t.write(b"x").is_err());
        let mut buf = [0u8; 4];
        assert!(t.read(&mut buf).is_err());
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        // A plan that only corrupts, always.
        let plan = ChaosPlan {
            corrupt: 1.0,
            ..ChaosPlan::calm()
        };
        let tape = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(ChaosCounters::default());
        let mut t = ChaosTransport::new(
            Box::new(Tape(Arc::clone(&tape))),
            plan,
            9,
            Arc::clone(&counters),
        );
        let clean = [0u8; 32];
        assert_eq!(t.write(&clean).unwrap(), 32);
        let written = tape.lock().unwrap().clone();
        assert_eq!(written.len(), 32);
        let flipped: u32 = written
            .iter()
            .zip(clean.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit of damage");
        assert_eq!(counters.corruptions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn intensity_zero_is_calm_and_scaling_is_linear() {
        assert!(ChaosPlan::at_intensity(0.0).is_calm());
        assert!(!ChaosPlan::at_intensity(0.5).is_calm());
        let half = ChaosPlan::at_intensity(0.5);
        let full = ChaosPlan::full();
        assert!((half.kill - full.kill * 0.5).abs() < 1e-12);
        assert!((half.partial_write - full.partial_write * 0.5).abs() < 1e-12);
        // Out-of-range intensities clamp instead of exploding.
        assert!(ChaosPlan::at_intensity(-3.0).is_calm());
        assert!((ChaosPlan::at_intensity(9.0).kill - full.kill).abs() < 1e-12);
    }
}
