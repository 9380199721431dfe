//! A gateway client that survives the wire: reconnect, capped
//! seeded-jitter backoff, per-request timeouts, and exactly-once acked
//! ingest.
//!
//! [`ResilientClient`] owns one logical connection to a gateway. Every
//! packet it sends travels as an [`crate::OpCode::IngestSeq`] frame under
//! a (session, seq) identity; when the wire fails — connection killed
//! mid-ack, corrupted bytes, a `Busy` shed — the client reconnects and
//! resends **the same sequence number**, and the server's dedup window
//! guarantees the retry is never double-counted. The client keeps exactly
//! one frame outstanding, which also keeps the server's per-session
//! window at its minimal footprint (see [`crate::dedup`]).
//!
//! Accounting is exact by construction and exposed both as a plain
//! [`ClientReport`] and (optionally) through a
//! [`pnm_obs::Registry`]: `attempts − packets == retries`, and every
//! reconnect beyond the first connection is counted — the client-side
//! half of the chaos soak's balance gates.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pnm_obs::{Registry, TraceContext, Tracer};

use crate::backoff::{BackoffPolicy, BackoffSchedule};
use crate::chaos::{splitmix64, ChaosCounters, ChaosPlan, ChaosTransport};
use crate::client::{ClientConfig, GatewayClient};
use crate::envelope::AckCode;
use crate::tenant::DrainVerdict;
use crate::transport::Transport;

/// Where (and how) to establish gateway connections. One connector serves
/// one logical client, re-dialing the same target on every reconnect —
/// optionally through a fresh [`ChaosTransport`] whose per-connection
/// seed is derived deterministically from the base seed and the
/// connection ordinal.
pub struct Connector {
    target: Target,
    config: ClientConfig,
    chaos: Option<(ChaosPlan, u64)>,
    counters: Arc<ChaosCounters>,
    conns: u64,
}

enum Target {
    Tcp(SocketAddr),
    Uds(PathBuf),
}

impl Connector {
    /// Connects over TCP to `addr`.
    pub fn tcp(addr: SocketAddr) -> Self {
        Self::with_target(Target::Tcp(addr))
    }

    /// Connects over the Unix-domain socket at `path`.
    pub fn uds(path: impl AsRef<Path>) -> Self {
        Self::with_target(Target::Uds(path.as_ref().to_path_buf()))
    }

    fn with_target(target: Target) -> Self {
        Connector {
            target,
            config: ClientConfig::default(),
            chaos: None,
            counters: Arc::new(ChaosCounters::default()),
            conns: 0,
        }
    }

    /// Applies connect/read/write deadlines to every connection dialed.
    pub fn config(mut self, config: ClientConfig) -> Self {
        self.config = config;
        self
    }

    /// Wraps every connection in a [`ChaosTransport`] running `plan`,
    /// with per-connection seeds derived from `seed`. A calm plan is a
    /// no-op (no wrapper at all).
    pub fn chaos(mut self, plan: ChaosPlan, seed: u64) -> Self {
        self.chaos = if plan.is_calm() {
            None
        } else {
            Some((plan, seed))
        };
        self
    }

    /// The shared fault tally across all of this connector's connections.
    pub fn chaos_counters(&self) -> Arc<ChaosCounters> {
        Arc::clone(&self.counters)
    }

    /// Dials one connection (the resilient client calls this on every
    /// reconnect).
    ///
    /// # Errors
    ///
    /// Propagates the socket connect/option failure.
    pub fn connect(&mut self) -> io::Result<GatewayClient> {
        let raw: Box<dyn Transport> = match &self.target {
            Target::Tcp(addr) => {
                let s = TcpStream::connect_timeout(addr, self.config.connect_deadline())?;
                s.set_nodelay(true)?;
                Box::new(s)
            }
            Target::Uds(path) => Box::new(UnixStream::connect(path)?),
        };
        let ordinal = self.conns;
        self.conns += 1;
        let transport: Box<dyn Transport> = match &self.chaos {
            Some((plan, seed)) => {
                let mut mix = seed ^ ordinal.wrapping_mul(0xA24B_AED4_963E_E407);
                let conn_seed = splitmix64(&mut mix);
                Box::new(ChaosTransport::new(
                    raw,
                    *plan,
                    conn_seed,
                    Arc::clone(&self.counters),
                ))
            }
            None => raw,
        };
        GatewayClient::from_transport_with(transport, self.config)
    }
}

/// Retry shape for a [`ResilientClient`].
#[derive(Clone, Copy, Debug)]
pub struct ResilientConfig {
    backoff: BackoffPolicy,
    seed: u64,
    max_attempts: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            backoff: BackoffPolicy::new(Duration::from_millis(2), Duration::from_millis(250))
                .jitter(0.25),
            seed: 0,
            max_attempts: 16,
        }
    }
}

impl ResilientConfig {
    /// The backoff policy between attempts.
    pub fn backoff(mut self, policy: BackoffPolicy) -> Self {
        self.backoff = policy;
        self
    }

    /// Seed for the backoff jitter (mixed with the session id so two
    /// clients sharing a config do not retry in lockstep).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap on wire attempts per packet (≥ 1). When exhausted,
    /// [`ResilientClient::send`] fails with `TimedOut`.
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }
}

/// Exact accounting of everything a [`ResilientClient`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Packets whose outcome was counted ([`AckCode::is_counted`]).
    pub counted: u64,
    /// Of `counted`: packets confirmed via a `Duplicate` ack — the retry
    /// raced an ack that was lost, and dedup resolved it.
    pub duplicates: u64,
    /// Packets given up with a terminal rejection code.
    pub rejected: u64,
    /// Wire attempts (`attempts − packets sent == retries`, exactly).
    pub attempts: u64,
    /// Attempts beyond the first, per packet.
    pub retries: u64,
    /// Connections dialed.
    pub connects: u64,
    /// Connections beyond the first — each one paid for a fault.
    pub reconnects: u64,
    /// I/O failures absorbed (includes damaged acks and failed dials).
    pub io_errors: u64,
    /// Retryable acks absorbed (`Busy`, `Corrupt`, `RateLimited`).
    pub retryable_acks: u64,
}

/// How one [`ResilientClient::send`] concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The packet is absorbed into the tenant's evidence exactly once.
    Counted {
        /// `Accepted`, or `Duplicate` when a retry confirmed an earlier
        /// absorption.
        code: AckCode,
        /// Wire attempts spent.
        attempts: u32,
        /// Trace id the send travelled under (0 when the client has no
        /// tracer attached). Minted once per logical send — every retry
        /// reuses it, so a packet is one trace no matter how the wire
        /// behaved.
        trace: u64,
    },
    /// The server answered with a terminal rejection; the packet is not
    /// (and will never be) counted.
    Rejected {
        /// The terminal code (`Malformed`, `Drained`, `UnknownTenant`).
        code: AckCode,
        /// Wire attempts spent.
        attempts: u32,
        /// Trace id the send travelled under (0 without a tracer).
        trace: u64,
    },
}

impl SendOutcome {
    /// Whether the packet ended up counted.
    pub fn is_counted(&self) -> bool {
        matches!(self, SendOutcome::Counted { .. })
    }

    /// The trace id the send travelled under (0 without a tracer).
    pub fn trace(&self) -> u64 {
        match *self {
            SendOutcome::Counted { trace, .. } | SendOutcome::Rejected { trace, .. } => trace,
        }
    }
}

struct Metrics {
    registry: Registry,
    label: String,
}

impl Metrics {
    fn inc(&self, name: &str) {
        self.registry
            .counter(name, &[("client", &self.label)])
            .inc();
    }

    fn ack(&self, code: AckCode) {
        self.registry
            .counter(
                "pnm_client_acks_total",
                &[("client", &self.label), ("code", code.reason())],
            )
            .inc();
    }
}

/// A reconnecting, retrying gateway client with exactly-once sequenced
/// ingest (see the module docs).
pub struct ResilientClient {
    connector: Connector,
    schedule: BackoffSchedule,
    max_attempts: u32,
    session: u64,
    next_seq: u64,
    client: Option<GatewayClient>,
    report: ClientReport,
    metrics: Option<Metrics>,
    tracer: Option<Tracer>,
}

impl ResilientClient {
    /// A client with the given session identity. The session id is the
    /// client's durable name in the server's dedup window: reuse it
    /// across process restarts only together with a persisted `next_seq`,
    /// otherwise pick a fresh one (sequence numbers restart at 0).
    pub fn new(connector: Connector, session: u64, config: ResilientConfig) -> Self {
        ResilientClient {
            schedule: config.backoff.schedule(config.seed ^ session),
            max_attempts: config.max_attempts,
            connector,
            session,
            next_seq: 0,
            client: None,
            report: ClientReport::default(),
            metrics: None,
            tracer: None,
        }
    }

    /// Attaches a tracer: every [`send`](Self::send) opens a root
    /// `client.send` span, mints a trace id under it, and carries that
    /// context in the packet's [`crate::SeqFrame`] — the client end of
    /// end-to-end causal tracing. Retries stay inside the same span and
    /// resend the same trace id, and the server's ack must echo it back.
    /// Without a tracer, frames carry the all-zero context.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Mirrors the report counters into `registry` as
    /// `pnm_client_*_total{client="<label>"}` series.
    pub fn with_metrics(mut self, registry: &Registry, label: &str) -> Self {
        self.metrics = Some(Metrics {
            registry: registry.clone(),
            label: label.to_string(),
        });
        self
    }

    /// This client's session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The accounting so far.
    pub fn report(&self) -> ClientReport {
        self.report
    }

    /// The shared chaos fault tally (zero when no chaos is configured).
    pub fn chaos_counters(&self) -> Arc<ChaosCounters> {
        self.connector.chaos_counters()
    }

    fn mark(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.inc(name);
        }
    }

    fn client_mut(&mut self) -> io::Result<&mut GatewayClient> {
        if self.client.is_none() {
            let c = self.connector.connect()?;
            self.report.connects += 1;
            if self.report.connects > 1 {
                self.report.reconnects += 1;
                self.mark("pnm_client_reconnects_total");
            }
            self.client = Some(c);
        }
        Ok(self.client.as_mut().expect("just ensured"))
    }

    /// Sends one packet under the next sequence number and drives it to a
    /// definite outcome: counted exactly once, terminally rejected, or —
    /// only after `max_attempts` wire attempts — a `TimedOut` error. The
    /// sequence number is assigned once; every retry resends it, so a
    /// lost ack resolves to `Duplicate` instead of a double count.
    ///
    /// # Errors
    ///
    /// `TimedOut` when the attempt budget is exhausted without a
    /// trustworthy ack; the packet *may or may not* be counted server-side
    /// in that case (re-sending the same packet bytes under a **new**
    /// sequence number could double-count — persist and reuse the
    /// session/seq if you need to resume).
    pub fn send(&mut self, tenant: &[u8], packet_bytes: &[u8]) -> io::Result<SendOutcome> {
        let seq = self.next_seq;
        self.next_seq += 1;
        // One root span per logical send: the trace id is minted here,
        // once, and every retry below resends the same (trace, parent) —
        // so reconnects and resends stay inside one trace.
        let span = self
            .tracer
            .as_ref()
            .filter(|t| t.enabled())
            .map(|t| t.span_root("client.send"));
        let ctx = span
            .as_ref()
            .and_then(|s| s.context())
            .unwrap_or(TraceContext::NONE);
        let trace = ctx.trace;
        let mut hint = Duration::ZERO;
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.schedule.delay(attempt - 1).max(hint));
                hint = Duration::ZERO;
                self.report.retries += 1;
                self.mark("pnm_client_retries_total");
            }
            self.report.attempts += 1;
            self.mark("pnm_client_attempts_total");
            let session = self.session;
            let ack = self
                .client_mut()
                .and_then(|c| c.ingest_seq_ctx(tenant, ctx, session, seq, packet_bytes));
            let ack = match ack {
                Ok(ack) => ack,
                Err(_) => {
                    // Dial failure, connection death, timeout, damaged
                    // ack — all retryable through a fresh connection. The
                    // server may or may not have counted the frame; the
                    // retry's dedup lookup settles it either way.
                    self.report.io_errors += 1;
                    self.mark("pnm_client_io_errors_total");
                    self.client = None;
                    continue;
                }
            };
            if let Some(m) = &self.metrics {
                m.ack(ack.code);
            }
            if ack.code.is_counted() {
                self.report.counted += 1;
                if ack.code == AckCode::Duplicate {
                    self.report.duplicates += 1;
                }
                return Ok(SendOutcome::Counted {
                    code: ack.code,
                    attempts: attempt + 1,
                    trace,
                });
            }
            if ack.code.is_retryable() {
                self.report.retryable_acks += 1;
                hint = Duration::from_millis(u64::from(ack.retry_after_ms));
                continue;
            }
            self.report.rejected += 1;
            return Ok(SendOutcome::Rejected {
                code: ack.code,
                attempts: attempt + 1,
                trace,
            });
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "no trustworthy ack for seq {seq} after {} attempts",
                self.max_attempts
            ),
        ))
    }

    /// Runs a request with reconnect-and-retry on transport failure.
    /// Application-level rejections (`ErrorKind::Other`) are returned
    /// immediately — retrying cannot change the server's answer.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut GatewayClient) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut last = None;
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.schedule.delay(attempt - 1));
            }
            match self.client_mut().and_then(&mut op) {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == io::ErrorKind::Other => return Err(e),
                Err(e) => {
                    self.report.io_errors += 1;
                    self.mark("pnm_client_io_errors_total");
                    self.client = None;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "retries exhausted")))
    }

    /// Drains the tenant (idempotent server-side, so retrying over a
    /// fresh connection is safe) and returns its final verdict.
    ///
    /// # Errors
    ///
    /// The gateway's rejection, or the last transport error once the
    /// attempt budget is spent.
    pub fn drain(&mut self, tenant: &[u8]) -> io::Result<DrainVerdict> {
        self.with_retry(|c| c.drain(tenant))
    }

    /// Readiness probe with reconnect (`Ok(false)` = draining).
    ///
    /// # Errors
    ///
    /// The last transport error once the attempt budget is spent.
    pub fn ready(&mut self) -> io::Result<bool> {
        self.with_retry(|c| c.ready())
    }

    /// Liveness probe with reconnect.
    ///
    /// # Errors
    ///
    /// The last transport error once the attempt budget is spent.
    pub fn health(&mut self) -> io::Result<()> {
        self.with_retry(|c| c.health())
    }

    /// Whole-gateway metrics scrape with reconnect.
    ///
    /// # Errors
    ///
    /// The last transport error once the attempt budget is spent.
    pub fn metrics_text(&mut self) -> io::Result<String> {
        self.with_retry(|c| c.metrics_text())
    }

    /// Live ops snapshot (health/SLO JSON) with reconnect; tenant `*`
    /// returns every tenant keyed by name.
    ///
    /// # Errors
    ///
    /// The gateway's rejection, or the last transport error once the
    /// attempt budget is spent.
    pub fn ops_snapshot(&mut self, tenant: &[u8]) -> io::Result<String> {
        self.with_retry(|c| c.ops_snapshot(tenant))
    }
}
