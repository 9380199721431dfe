//! A minimal blocking client for the gateway protocol.
//!
//! Used by the benches, the integration tests, and the README quickstart;
//! also a reference implementation for anyone speaking the envelope
//! protocol from another language. One connection, one request at a time,
//! every request answered in order — including each ingest frame, whose
//! [`IngestAck`] is checked before it is returned.
//!
//! The client is transport-generic ([`Transport`]): the connect helpers
//! build TCP/UDS streams with [`ClientConfig`] timeouts applied in one
//! place, and [`GatewayClient::from_transport`] accepts anything else —
//! notably a [`crate::ChaosTransport`]. For automatic reconnect and
//! retry, wrap it in [`crate::ResilientClient`].

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use pnm_obs::TraceContext;

use crate::envelope::{AckCode, Envelope, IngestAck, OpCode, Response, Status};
use crate::tenant::DrainVerdict;
use crate::transport::Transport;

/// Cap on one response payload accepted by the client. Sized for a drain
/// verdict carrying up to `MAX_EVIDENCE_BYTES` of canonical evidence plus
/// its JSON summary.
pub const CLIENT_MAX_RESPONSE: usize = 96 << 20;

/// Connection and per-request I/O deadlines, applied identically to every
/// transport flavor — the one code path that used to be two hardcoded
/// 30-second `set_read_timeout` calls.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    connect_timeout: Duration,
    read_timeout: Duration,
    write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
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

    /// The configured connect deadline.
    pub fn connect_deadline(&self) -> Duration {
        self.connect_timeout
    }

    fn apply(&self, t: &dyn Transport) -> io::Result<()> {
        t.set_read_timeout(Some(self.read_timeout))?;
        t.set_write_timeout(Some(self.write_timeout))
    }
}

/// A blocking gateway connection.
pub struct GatewayClient {
    transport: Box<dyn Transport>,
    /// Response bytes read but not yet decoded.
    buf: Vec<u8>,
}

impl GatewayClient {
    /// Connects over TCP with default [`ClientConfig`] deadlines (Nagle
    /// disabled — requests are small frames).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_tcp_with(addr, ClientConfig::default())
    }

    /// Connects over TCP with explicit deadlines.
    pub fn connect_tcp_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let s = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        s.set_nodelay(true)?;
        Self::from_transport_with(Box::new(s), config)
    }

    /// Connects over a Unix-domain socket with default deadlines.
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::connect_uds_with(path, ClientConfig::default())
    }

    /// Connects over a Unix-domain socket with explicit deadlines.
    pub fn connect_uds_with(path: impl AsRef<Path>, config: ClientConfig) -> io::Result<Self> {
        let s = UnixStream::connect(path)?;
        Self::from_transport_with(Box::new(s), config)
    }

    /// Wraps an already-connected transport (a chaos wrapper, a test
    /// double) without touching its deadlines.
    pub fn from_transport(transport: Box<dyn Transport>) -> Self {
        GatewayClient {
            transport,
            buf: Vec::new(),
        }
    }

    /// Wraps an already-connected transport and applies `config`'s I/O
    /// deadlines to it.
    pub fn from_transport_with(
        transport: Box<dyn Transport>,
        config: ClientConfig,
    ) -> io::Result<Self> {
        config.apply(transport.as_ref())?;
        Ok(Self::from_transport(transport))
    }

    /// Sends one untraced packet and waits for its [`IngestAck`] — the
    /// acked, exactly-once delivery path. Shorthand for
    /// [`ingest_seq_ctx`](Self::ingest_seq_ctx) with
    /// [`TraceContext::NONE`].
    pub fn ingest_seq(
        &mut self,
        tenant: &[u8],
        session: u64,
        seq: u64,
        packet_bytes: &[u8],
    ) -> io::Result<IngestAck> {
        self.ingest_seq_ctx(tenant, TraceContext::NONE, session, seq, packet_bytes)
    }

    /// Sends one packet under the client's trace context `ctx` and waits
    /// for its [`IngestAck`]. The ack is integrity-checked (CRC) and must
    /// echo `seq` and `ctx.trace`, so a damaged or misattributed ack
    /// surfaces as `InvalidData` (retryable by reconnecting) rather than
    /// being trusted — it cannot book the wrong packet or close the wrong
    /// trace.
    pub fn ingest_seq_ctx(
        &mut self,
        tenant: &[u8],
        ctx: TraceContext,
        session: u64,
        seq: u64,
        packet_bytes: &[u8],
    ) -> io::Result<IngestAck> {
        let payload = self.request(Envelope::ingest_seq_ctx(
            tenant,
            ctx,
            session,
            seq,
            packet_bytes,
        ))?;
        let ack = IngestAck::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // Only a Corrupt ack may echo zeros: the server could not trust
        // the frame's own numbers. Any other ack names its request.
        let echoed = (ack.seq, ack.trace) == (seq, ctx.trace)
            || (ack.code == AckCode::Corrupt && (ack.seq, ack.trace) == (0, 0));
        if !echoed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} ack echoes seq {} trace {:#x} for request seq {seq} trace {:#x}",
                    ack.code.reason(),
                    ack.seq,
                    ack.trace,
                    ctx.trace
                ),
            ));
        }
        Ok(ack)
    }

    /// Requests the tenant's live ops snapshot (health/SLO JSON); tenant
    /// `*` returns every tenant keyed by name.
    pub fn ops_snapshot(&mut self, tenant: &[u8]) -> io::Result<String> {
        let payload = self.request(Envelope::control(OpCode::Ops, tenant))?;
        String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Liveness probe: `Ok(())` means the gateway answered.
    pub fn health(&mut self) -> io::Result<()> {
        self.request(Envelope::control(OpCode::Health, b"_"))
            .map(|_| ())
    }

    /// Readiness probe: `Ok(true)` when the gateway accepts new work,
    /// `Ok(false)` once it is draining.
    pub fn ready(&mut self) -> io::Result<bool> {
        self.transport
            .write_all(&Envelope::control(OpCode::Ready, b"_").encode())?;
        let resp = self.read_response()?;
        match resp.status {
            Status::Ok => Ok(true),
            Status::Rejected => Ok(false),
            Status::Error => Err(io::Error::other(format!(
                "gateway protocol error: {}",
                String::from_utf8_lossy(&resp.payload)
            ))),
        }
    }

    /// Requests the tenant's live service snapshot as JSON.
    pub fn snapshot(&mut self, tenant: &[u8]) -> io::Result<String> {
        let payload = self.request(Envelope::control(OpCode::Snapshot, tenant))?;
        String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Requests the whole gateway's Prometheus text exposition.
    pub fn metrics_text(&mut self) -> io::Result<String> {
        let payload = self.request(Envelope::control(OpCode::MetricsText, b"_"))?;
        String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Drains the tenant and returns its verdict (idempotent server-side).
    pub fn drain(&mut self, tenant: &[u8]) -> io::Result<DrainVerdict> {
        let payload = self.request(Envelope::control(OpCode::Drain, tenant))?;
        DrainVerdict::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn request(&mut self, env: Envelope) -> io::Result<Vec<u8>> {
        self.transport.write_all(&env.encode())?;
        let resp = self.read_response()?;
        match resp.status {
            Status::Ok => Ok(resp.payload),
            Status::Rejected | Status::Error => Err(io::Error::other(format!(
                "gateway {}: {}",
                if resp.status == Status::Rejected {
                    "rejected request"
                } else {
                    "protocol error"
                },
                String::from_utf8_lossy(&resp.payload)
            ))),
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
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
            .ingest_seq_ctx(b"alpha", ctx, 1, seq, b"packet")
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
