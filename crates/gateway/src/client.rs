//! The gateway client: one blocking connection that redials and retries.
//!
//! Used by the chaos soak, the integration tests, and the README
//! quickstart; also a reference implementation for anyone speaking the
//! envelope protocol from another language. One request at a time, every
//! request answered in order — including each ingest frame, whose
//! [`IngestAck`] is checked before it is returned.
//!
//! [`GatewayClient`] dials TCP or a Unix-domain socket with the
//! [`ClientConfig`] deadlines, optionally wrapping every connection in a
//! [`ChaosTransport`], and runs every request through one loop. A wire
//! failure — dial refused, connection killed mid-ack, timeout, a damaged
//! or misattributed answer — drops the connection, waits out the capped
//! seeded-jitter backoff ([`BackoffPolicy`]), and redials the same target;
//! a retryable ack (`Busy`, `Corrupt`, `RateLimited`) waits at least its
//! retry hint. The default is one attempt, so a failure surfaces at once.
//!
//! Ingest is exactly once: every packet travels as an
//! [`crate::OpCode::IngestSeq`] frame under a (session, seq) identity,
//! and a retry resends **the same sequence number**, so the server's dedup
//! window never counts it twice. [`GatewayClient::send`] assigns the
//! sequence numbers itself and keeps exactly one frame outstanding, which
//! also keeps the server's per-session window at its minimal footprint
//! (see [`crate::dedup`]).
//!
//! Accounting is exact by construction and exposed both as a plain
//! [`ClientReport`] and (optionally) through a [`pnm_obs::Registry`]:
//! `attempts − ingest frames == retries`, and every reconnect beyond the
//! first connection is counted — the client-side half of the chaos soak's
//! balance gates.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pnm_obs::{Registry, TraceContext, Tracer};

use crate::backoff::BackoffPolicy;
use crate::chaos::{splitmix64, ChaosCounters, ChaosPlan, ChaosTransport};
use crate::envelope::{AckCode, Envelope, IngestAck, OpCode, Response, Status};
use crate::tenant::DrainVerdict;
use crate::transport::Transport;

/// Cap on one response payload accepted by the client. Sized for a drain
/// verdict carrying up to `MAX_EVIDENCE_BYTES` of canonical evidence plus
/// its JSON summary.
pub const CLIENT_MAX_RESPONSE: usize = 96 << 20;

/// How a [`GatewayClient`] connects and retries: I/O deadlines, the
/// attempt budget and backoff, and optional fault injection — applied
/// identically to every connection it dials.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    connect_timeout: Duration,
    read_timeout: Duration,
    write_timeout: Duration,
    backoff: BackoffPolicy,
    max_attempts: u32,
    chaos: Option<(ChaosPlan, u64)>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            backoff: BackoffPolicy::new(Duration::from_millis(2), Duration::from_millis(250))
                .jitter(0.25),
            max_attempts: 1,
            chaos: None,
        }
    }
}

impl ClientConfig {
    /// TCP connect deadline (Unix-domain connects are effectively local
    /// and ignore it). Default 5 s.
    pub fn connect_timeout(mut self, t: Duration) -> Self {
        self.connect_timeout = t;
        self
    }

    /// Per-read deadline — the client's per-request timeout, since every
    /// request is one write followed by reads until its response frame
    /// completes. Default 30 s.
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Per-write deadline. Default 30 s.
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = t;
        self
    }

    /// The backoff between attempts, its jitter seeded by the client's
    /// session so clients sharing a config do not retry in lockstep.
    /// Default 2 ms doubling to 250 ms, jitter 0.25.
    pub fn backoff(mut self, policy: BackoffPolicy) -> Self {
        self.backoff = policy;
        self
    }

    /// Cap on wire attempts per request (≥ 1). Default 1: no retry.
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Wraps every connection dialed in a [`ChaosTransport`] running
    /// `plan`, with per-connection seeds derived from `seed` and the
    /// connection ordinal. A calm plan is a no-op (no wrapper at all).
    pub fn chaos(mut self, plan: ChaosPlan, seed: u64) -> Self {
        self.chaos = (!plan.is_calm()).then_some((plan, seed));
        self
    }
}

/// Exact accounting of everything a [`GatewayClient`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Packets whose outcome was counted ([`AckCode::is_counted`]).
    pub counted: u64,
    /// Of `counted`: packets confirmed via a `Duplicate` ack — the retry
    /// raced an ack that was lost, and dedup resolved it.
    pub duplicates: u64,
    /// Packets given up with a terminal rejection code.
    pub rejected: u64,
    /// Wire attempts of ingest frames (`attempts − packets sent ==
    /// retries`, exactly).
    pub attempts: u64,
    /// Ingest attempts beyond the first, per packet.
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

/// How one [`GatewayClient::send`] concluded.
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

enum Target {
    Tcp(SocketAddr),
    Uds(PathBuf),
}

/// One live connection.
struct Conn {
    transport: Box<dyn Transport>,
    /// Response bytes read but not yet decoded.
    buf: Vec<u8>,
}

impl Conn {
    fn round_trip(&mut self, frame: &[u8]) -> io::Result<Response> {
        self.transport.write_all(frame)?;
        let mut chunk = [0u8; 8192];
        loop {
            match Response::decode(&self.buf, CLIENT_MAX_RESPONSE) {
                Ok(Some((resp, used))) => {
                    self.buf.drain(..used);
                    return Ok(resp);
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            match self.transport.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "gateway closed the connection mid-response",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// What one answered attempt settled.
enum Answer<T> {
    /// The request's result: a value, or the gateway's refusal, which no
    /// retry can change.
    Final(io::Result<T>),
    /// A retryable answer worth another attempt after at least the given
    /// hint; returned as is once no attempt is left.
    Retry(T, Duration),
}

/// The gateway's refusal of a request (`Rejected` or `Error` status).
fn refusal(resp: &Response) -> io::Error {
    io::Error::other(format!(
        "gateway {}: {}",
        if resp.status == Status::Rejected {
            "rejected request"
        } else {
            "protocol error"
        },
        String::from_utf8_lossy(&resp.payload)
    ))
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn text(payload: Vec<u8>) -> io::Result<String> {
    String::from_utf8(payload).map_err(invalid)
}

/// A blocking gateway client with exactly-once sequenced ingest (see the
/// module docs).
pub struct GatewayClient {
    /// Where to redial; `None` for a caller's transport, which cannot be
    /// redialed.
    target: Option<Target>,
    config: ClientConfig,
    conn: Option<Conn>,
    session: Option<u64>,
    next_seq: u64,
    report: ClientReport,
    chaos: Arc<ChaosCounters>,
    metrics: Option<Metrics>,
    tracer: Option<Tracer>,
}

impl GatewayClient {
    /// Connects over TCP with the default [`ClientConfig`] (Nagle disabled
    /// — requests are small frames).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_tcp_with(addr, ClientConfig::default())
    }

    /// Connects over TCP with an explicit config; redials `addr`.
    pub fn connect_tcp_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Self::connect(Target::Tcp(addr), config)
    }

    /// Connects over a Unix-domain socket with the default config.
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::connect_uds_with(path, ClientConfig::default())
    }

    /// Connects over a Unix-domain socket with an explicit config;
    /// redials `path`.
    pub fn connect_uds_with(path: impl AsRef<Path>, config: ClientConfig) -> io::Result<Self> {
        Self::connect(Target::Uds(path.as_ref().to_path_buf()), config)
    }

    /// Dials the first connection now, so an unreachable gateway fails
    /// here rather than at the first request.
    fn connect(target: Target, config: ClientConfig) -> io::Result<Self> {
        let mut client = Self::new(Some(target), config);
        client.conn = Some(client.dial()?);
        Ok(client)
    }

    /// Wraps an already-connected transport (a test double, a stream set
    /// up elsewhere) as is: no deadlines applied, and a wire failure
    /// cannot be retried, since there is nothing to redial.
    pub fn from_transport(transport: Box<dyn Transport>) -> Self {
        let mut client = Self::new(None, ClientConfig::default());
        client.conn = Some(Conn {
            transport,
            buf: Vec::new(),
        });
        client
    }

    fn new(target: Option<Target>, config: ClientConfig) -> Self {
        GatewayClient {
            target,
            config,
            conn: None,
            session: None,
            next_seq: 0,
            report: ClientReport::default(),
            chaos: Arc::new(ChaosCounters::default()),
            metrics: None,
            tracer: None,
        }
    }

    /// Names the session [`send`](Self::send) files its frames under in
    /// the server's dedup window; it also seeds the backoff jitter. Reuse
    /// a session across process restarts only together with a persisted
    /// sequence number, otherwise pick a fresh one (`send` numbers from 0).
    pub fn with_session(mut self, session: u64) -> Self {
        self.session = Some(session);
        self
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

    /// The accounting so far.
    pub fn report(&self) -> ClientReport {
        self.report
    }

    /// The shared chaos fault tally across every connection dialed (zero
    /// when no chaos is configured).
    pub fn chaos_counters(&self) -> Arc<ChaosCounters> {
        Arc::clone(&self.chaos)
    }

    fn mark(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.inc(name);
        }
    }

    /// Dials one connection to the target, through a fresh
    /// [`ChaosTransport`] when chaos is configured.
    fn dial(&mut self) -> io::Result<Conn> {
        let raw: Box<dyn Transport> = match &self.target {
            Some(Target::Tcp(addr)) => {
                let s = TcpStream::connect_timeout(addr, self.config.connect_timeout)?;
                s.set_nodelay(true)?;
                Box::new(s)
            }
            Some(Target::Uds(path)) => Box::new(UnixStream::connect(path)?),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "a client over a given transport cannot redial",
                ))
            }
        };
        let transport: Box<dyn Transport> = match self.config.chaos {
            Some((plan, seed)) => {
                // Each connection draws its own faults: the seed is mixed
                // with the connection's ordinal, the connections so far.
                let mut mix = seed ^ self.report.connects.wrapping_mul(0xA24B_AED4_963E_E407);
                let conn_seed = splitmix64(&mut mix);
                Box::new(ChaosTransport::new(
                    raw,
                    plan,
                    conn_seed,
                    Arc::clone(&self.chaos),
                ))
            }
            None => raw,
        };
        transport.set_read_timeout(Some(self.config.read_timeout))?;
        transport.set_write_timeout(Some(self.config.write_timeout))?;
        self.report.connects += 1;
        if self.report.connects > 1 {
            self.report.reconnects += 1;
            self.mark("pnm_client_reconnects_total");
        }
        Ok(Conn {
            transport,
            buf: Vec::new(),
        })
    }

    /// One attempt's round trip, redialing first if the last attempt lost
    /// the connection.
    fn round_trip(&mut self, frame: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        self.conn.as_mut().expect("just ensured").round_trip(frame)
    }

    /// The one request loop. Sends `frame` until `answer` settles a
    /// response or `max_attempts` are spent. An `Err` from the round trip
    /// or from `answer` is a wire failure: it drops the connection, and
    /// the next attempt redials. Between attempts the loop sleeps the
    /// backoff delay, or a retryable answer's hint if that is longer.
    /// Spent attempts return the last answer or wire failure as is.
    /// Ingest frames (`ingest`) count their attempts and retries.
    fn request<T>(
        &mut self,
        frame: &[u8],
        ingest: bool,
        mut answer: impl FnMut(&mut Self, Response) -> io::Result<Answer<T>>,
    ) -> io::Result<T> {
        let mut last = Err(io::Error::new(io::ErrorKind::TimedOut, "no attempt made"));
        let mut hint = Duration::ZERO;
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                let backoff = self.config.backoff.schedule(self.session.unwrap_or(0));
                std::thread::sleep(backoff.delay(attempt - 1).max(std::mem::take(&mut hint)));
                if ingest {
                    self.report.retries += 1;
                    self.mark("pnm_client_retries_total");
                }
            }
            if ingest {
                self.report.attempts += 1;
                self.mark("pnm_client_attempts_total");
            }
            match self.round_trip(frame).and_then(|resp| answer(self, resp)) {
                Ok(Answer::Final(result)) => return result,
                Ok(Answer::Retry(value, after)) => {
                    hint = after;
                    last = Ok(value);
                }
                Err(e) => {
                    self.report.io_errors += 1;
                    self.mark("pnm_client_io_errors_total");
                    self.conn = None;
                    last = Err(e);
                }
            }
        }
        last
    }

    /// Sends one untraced packet under the caller's (session, seq) and
    /// waits for its [`IngestAck`] — the acked, exactly-once delivery
    /// path. The ack is integrity-checked (CRC) and must echo `seq`, so a
    /// damaged or misattributed ack is a wire failure (`InvalidData` once
    /// attempts are spent) rather than being trusted — it cannot book the
    /// wrong packet. A retryable ack is retried within the attempt budget
    /// and returned once it is spent; counted and terminal acks are
    /// returned at once.
    pub fn ingest_seq(
        &mut self,
        tenant: &[u8],
        session: u64,
        seq: u64,
        packet_bytes: &[u8],
    ) -> io::Result<IngestAck> {
        self.ingest(tenant, TraceContext::NONE, session, seq, packet_bytes)
    }

    /// [`ingest_seq`](Self::ingest_seq) under the trace context `ctx`,
    /// whose trace id the ack must echo too.
    fn ingest(
        &mut self,
        tenant: &[u8],
        ctx: TraceContext,
        session: u64,
        seq: u64,
        packet_bytes: &[u8],
    ) -> io::Result<IngestAck> {
        let frame = Envelope::ingest_seq_ctx(tenant, ctx, session, seq, packet_bytes).encode();
        self.request(&frame, true, |client, resp| {
            if resp.status != Status::Ok {
                return Err(refusal(&resp));
            }
            let ack = IngestAck::decode(&resp.payload).map_err(invalid)?;
            // Only a Corrupt ack may echo zeros: the server could not trust
            // the frame's own numbers. Any other ack names its request.
            let echoed = (ack.seq, ack.trace) == (seq, ctx.trace)
                || (ack.code == AckCode::Corrupt && (ack.seq, ack.trace) == (0, 0));
            if !echoed {
                return Err(invalid(format!(
                    "{} ack echoes seq {} trace {:#x} for request seq {seq} trace {:#x}",
                    ack.code.reason(),
                    ack.seq,
                    ack.trace,
                    ctx.trace
                )));
            }
            if let Some(m) = &client.metrics {
                m.ack(ack.code);
            }
            let report = &mut client.report;
            if ack.code.is_retryable() {
                report.retryable_acks += 1;
                let hint = Duration::from_millis(u64::from(ack.retry_after_ms));
                return Ok(Answer::Retry(ack, hint));
            }
            if ack.code.is_counted() {
                report.counted += 1;
                report.duplicates += u64::from(ack.code == AckCode::Duplicate);
            } else {
                report.rejected += 1;
            }
            Ok(Answer::Final(Ok(ack)))
        })
    }

    /// Sends one packet under this client's session and its next sequence
    /// number, and drives it to a definite outcome: counted exactly once,
    /// terminally rejected, or — only after `max_attempts` wire attempts —
    /// a `TimedOut` error. The sequence number is assigned once; every
    /// retry resends it, so a lost ack resolves to `Duplicate` instead of
    /// a double count.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no session was set
    /// ([`with_session`](Self::with_session)). `TimedOut` when the attempt
    /// budget is exhausted without a trustworthy ack; the packet *may or
    /// may not* be counted server-side in that case (re-sending the same
    /// packet bytes under a **new** sequence number could double-count —
    /// persist and reuse the session/seq if you need to resume).
    pub fn send(&mut self, tenant: &[u8], packet_bytes: &[u8]) -> io::Result<SendOutcome> {
        let Some(session) = self.session else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "send needs a session: build the client with `with_session`",
            ));
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        // One root span per logical send: the trace id is minted here,
        // once, and every retry resends the same (trace, parent) — so
        // reconnects and resends stay inside one trace.
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
        let before = self.report.attempts;
        let result = self.ingest(tenant, ctx, session, seq, packet_bytes);
        let attempts = (self.report.attempts - before) as u32;
        match result {
            Ok(ack) if ack.code.is_counted() => Ok(SendOutcome::Counted {
                code: ack.code,
                attempts,
                trace,
            }),
            Ok(ack) if !ack.code.is_retryable() => Ok(SendOutcome::Rejected {
                code: ack.code,
                attempts,
                trace,
            }),
            _ => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no trustworthy ack for seq {seq} after {attempts} attempts"),
            )),
        }
    }

    /// One control request: an `Ok` payload goes through `parse` (a parse
    /// failure is a wire failure, retried); a `Rejected` or `Error` status
    /// is the gateway's final answer.
    fn control<T>(
        &mut self,
        op: OpCode,
        tenant: &[u8],
        parse: impl Fn(Vec<u8>) -> io::Result<T>,
    ) -> io::Result<T> {
        let frame = Envelope::control(op, tenant).encode();
        self.request(&frame, false, |_, resp| match resp.status {
            Status::Ok => parse(resp.payload).map(|v| Answer::Final(Ok(v))),
            _ => Ok(Answer::Final(Err(refusal(&resp)))),
        })
    }

    /// Requests the tenant's live ops snapshot: its metrics series,
    /// lifecycle state and flight-recorder fields as JSON
    /// ([`OpCode::Ops`]); tenant `*` returns every tenant keyed by name.
    pub fn ops_snapshot(&mut self, tenant: &[u8]) -> io::Result<String> {
        self.control(OpCode::Ops, tenant, text)
    }

    /// Liveness probe: `Ok(())` means the gateway answered.
    pub fn health(&mut self) -> io::Result<()> {
        self.control(OpCode::Health, b"_", |_| Ok(()))
    }

    /// Readiness probe: `Ok(true)` when the gateway accepts new work,
    /// `Ok(false)` once it is draining.
    pub fn ready(&mut self) -> io::Result<bool> {
        let frame = Envelope::control(OpCode::Ready, b"_").encode();
        self.request(&frame, false, |_, resp| {
            Ok(Answer::Final(match resp.status {
                Status::Ok => Ok(true),
                Status::Rejected => Ok(false),
                Status::Error => Err(refusal(&resp)),
            }))
        })
    }

    /// Requests the whole gateway's Prometheus text exposition.
    pub fn metrics_text(&mut self) -> io::Result<String> {
        self.control(OpCode::MetricsText, b"_", text)
    }

    /// Drains the tenant (idempotent server-side, so retrying over a
    /// fresh connection is safe) and returns its final verdict.
    pub fn drain(&mut self, tenant: &[u8]) -> io::Result<DrainVerdict> {
        self.control(OpCode::Drain, tenant, |payload| {
            DrainVerdict::decode(&payload).map_err(invalid)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A transport that answers every request with one canned ack.
    struct CannedAck {
        reply: Vec<u8>,
    }

    impl Transport for CannedAck {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.reply.len().min(buf.len());
            buf[..n].copy_from_slice(&self.reply[..n]);
            self.reply.drain(..n);
            Ok(n)
        }

        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn set_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn set_write_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn shutdown(&self) {}
    }

    fn answered_with(ack: IngestAck, ctx: TraceContext, seq: u64) -> io::Result<IngestAck> {
        let reply = Response::new(Status::Ok, ack.encode()).encode();
        GatewayClient::from_transport(Box::new(CannedAck { reply }))
            .ingest(b"alpha", ctx, 1, seq, b"packet")
    }

    #[test]
    fn ack_must_echo_its_request() {
        let traced = TraceContext {
            trace: 0xabc,
            parent: 0x1,
        };
        // An Accepted ack echoing seq 0 for a seq-5 request is
        // misattributed, not counted.
        let err =
            answered_with(IngestAck::new(AckCode::Accepted, 0), TraceContext::NONE, 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // So is one echoing the right seq under the wrong (or no) trace.
        for wrong in [0, 0xdef] {
            let ack = IngestAck::new(AckCode::Accepted, 5).with_trace(wrong);
            assert_eq!(
                answered_with(ack, traced, 5).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
        // A Corrupt ack echoes zeros, and only a Corrupt ack may.
        let corrupt = IngestAck::new(AckCode::Corrupt, 0);
        assert_eq!(answered_with(corrupt, traced, 5).unwrap(), corrupt);
        assert!(answered_with(IngestAck::new(AckCode::Malformed, 0), traced, 5).is_err());
        // A faithful echo is trusted, traced or not.
        let ok = IngestAck::new(AckCode::Accepted, 5).with_trace(0xabc);
        assert_eq!(answered_with(ok, traced, 5).unwrap(), ok);
        let ok = IngestAck::new(AckCode::Duplicate, 5);
        assert_eq!(answered_with(ok, TraceContext::NONE, 5).unwrap(), ok);
    }
}
