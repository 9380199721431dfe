//! The gateway server: one blocking thread per listener and per connection.
//!
//! No async runtime and no new dependencies. Each listener (TCP or
//! Unix-domain) has a thread blocked in `accept`; each connection has a
//! thread that serves it through the [`Transport`](crate::Transport)
//! trait: read, dispatch every complete frame, write the batched
//! responses with one `write_all`, read again. A frame is served as soon
//! as it arrives, and connection state never leaves its thread. The read
//! timeout is a short tick, so an idle connection sees a graceful drain
//! within one tick; the write timeout is the stall deadline, so a client
//! that stops reading its responses is evicted.
//!
//! Admission composes in layers. The envelope decoder rejects garbage and
//! oversized frames before any unbounded buffering ([`crate::envelope`]);
//! per-connection caps bound buffered bytes and stall time
//! ([`crate::admission::ConnLimits`]); per-tenant token buckets and the
//! service pools' own Block/Shed queues sit behind those
//! ([`TenantRegistry::ingest_seq`]). Under `Block` backpressure a full
//! queue parks only the connection whose ingest hit it: its thread stops
//! reading, the kernel socket buffers fill, and the TCP window closes —
//! the service-layer policy becomes end-to-end flow control for free.
//! Other connections keep being served, and no scrape, `Ops` call or
//! `Drain` waits behind the parked ingest's lock. `Shed` answers `Busy`
//! and counts the drop instead.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pnm_obs::Counter;

use crate::admission::ConnLimits;
use crate::envelope::{Envelope, OpCode, Response, Status};
use crate::tenant::TenantRegistry;

/// How long a connection blocks in `read` before it checks for a drain
/// and a stalled partial frame (capped at the stall deadline).
const TICK: Duration = Duration::from_millis(25);
/// Bytes asked of the kernel per `read`.
const READ_CHUNK: usize = 64 * 1024;
/// Pause after a failed `accept` (out of descriptors, say) before the
/// next one.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);
/// How long shutdown tries to reach a TCP listener to wake its `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Tuning for a [`Gateway`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayConfig {
    limits: ConnLimits,
}

impl GatewayConfig {
    /// Per-connection byte and stall limits.
    pub fn limits(mut self, limits: ConnLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// A configured-but-not-yet-running gateway: bind listeners, then
/// [`spawn`](Gateway::spawn).
///
/// ```no_run
/// use std::sync::Arc;
/// use pnm_core::{SinkConfig, VerifyMode};
/// use pnm_crypto::KeyStore;
/// use pnm_gateway::{Gateway, GatewayConfig, TenantConfig, TenantRegistry};
/// use pnm_service::ServiceConfig;
///
/// let registry = Arc::new(
///     TenantRegistry::builder()
///         .tenant(
///             "acme",
///             TenantConfig::new(
///                 KeyStore::derive_from_master(b"acme-secret", 64),
///                 ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)),
///             ),
///         )
///         .build()
///         .unwrap(),
/// );
/// let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
/// let addr = gw.listen_tcp("127.0.0.1:0").unwrap();
/// gw.listen_uds("/tmp/pnm-gateway.sock").unwrap();
/// let handle = gw.spawn().unwrap();
/// println!("gateway on {addr}");
/// handle.shutdown();
/// ```
pub struct Gateway {
    registry: Arc<TenantRegistry>,
    config: GatewayConfig,
    tcp: Vec<TcpListener>,
    /// Each Unix listener with its socket file and that file's inode.
    uds: Vec<(UnixListener, PathBuf, u64)>,
}

impl Gateway {
    /// A gateway serving `registry`'s tenants. Bind at least one listener
    /// before spawning.
    pub fn new(registry: Arc<TenantRegistry>, config: GatewayConfig) -> Self {
        Gateway {
            registry,
            config,
            tcp: Vec::new(),
            uds: Vec::new(),
        }
    }

    /// Binds a TCP listener and returns the bound address (use port 0 to
    /// let the kernel pick).
    pub fn listen_tcp(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        self.tcp.push(listener);
        Ok(bound)
    }

    /// Binds a Unix-domain listener at `path`, removing a stale socket
    /// file from a previous run first. The file is removed again on
    /// shutdown, unless it has been replaced by then.
    pub fn listen_uds(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        let ino = std::fs::metadata(path)?.ino();
        self.uds.push((listener, path.to_path_buf(), ino));
        Ok(())
    }

    /// Starts one accept thread per listener and returns their handle.
    /// Each accepted connection is served on a thread of its own.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if no listener was bound; otherwise the error of a
    /// failed address lookup or thread spawn, after stopping the threads
    /// already started.
    pub fn spawn(self) -> io::Result<GatewayHandle> {
        if self.tcp.is_empty() && self.uds.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway has no listeners; call listen_tcp or listen_uds first",
            ));
        }
        // On an early return, dropping `handle` stops what it holds.
        let mut handle = GatewayHandle {
            shared: Arc::new(Shared {
                connections: self
                    .registry
                    .registry()
                    .counter("pnm_gateway_connections_total", &[]),
                registry: self.registry,
                limits: self.config.limits,
                draining: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
            }),
            acceptors: Vec::new(),
        };
        for listener in self.tcp {
            let mut addr = listener.local_addr()?;
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let thread = handle.shared.spawn_acceptor(move || {
                listener.accept().and_then(|(s, _)| Ok((s.try_clone()?, s)))
            })?;
            let wake = move || TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).is_ok();
            handle.acceptors.push((thread, Box::new(wake)));
        }
        for (listener, path, ino) in self.uds {
            let thread = handle.shared.spawn_acceptor(move || {
                listener.accept().and_then(|(s, _)| Ok((s.try_clone()?, s)))
            })?;
            // A socket file that was removed, or replaced by another
            // listener's, no longer leads here and is not ours to remove.
            let wake = move || {
                let ours = std::fs::metadata(&path).is_ok_and(|m| m.ino() == ino);
                let woken = ours && UnixStream::connect(&path).is_ok();
                if ours {
                    let _ = std::fs::remove_file(&path);
                }
                woken
            };
            handle.acceptors.push((thread, Box::new(wake)));
        }
        Ok(handle)
    }
}

/// A running gateway. Dropping it (or calling
/// [`shutdown`](GatewayHandle::shutdown)) stops the threads, closes every
/// connection, and removes the Unix socket files it still owns. Shutting
/// the server down does **not** drain tenant pools — send
/// [`OpCode::Drain`] per tenant, or keep a handle to the
/// [`TenantRegistry`] and drain in-process. For a shutdown that lets
/// in-flight work land first, use
/// [`shutdown_graceful`](GatewayHandle::shutdown_graceful).
pub struct GatewayHandle {
    shared: Arc<Shared>,
    /// One accept thread per listener, each with its [`Wake`].
    acceptors: Vec<(JoinHandle<()>, Wake)>,
}

/// Wakes a blocked `accept` with a throwaway connection to its listener
/// (loopback for an unspecified TCP address; for a Unix listener, also
/// removes its socket file), and says whether the connection got there.
type Wake = Box<dyn FnOnce() -> bool + Send + Sync>;

impl GatewayHandle {
    /// The tenant registry this gateway serves (for in-process scrapes,
    /// drains, and tests).
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.shared.registry
    }

    /// Stops accepting, closes every connection, and joins the threads.
    /// Each connection's socket is shut down first, so a thread blocked
    /// reading or writing returns at once, whatever its client does.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Graceful shutdown, in order: (1) stop accepting — every accept
    /// thread exits, every listener closes, and [`OpCode::Ready`] starts
    /// answering `Rejected("draining")` so load balancers steer away;
    /// (2) let in-flight connections finish — each closes once it has
    /// answered every frame it read; (3) flush every tenant pool — shard
    /// workers run their queues dry and write their **final durable
    /// checkpoint** to the tenant's evidence log; (4) stop the threads.
    ///
    /// Returns `true` if both the connections and every pool flushed
    /// within `timeout`; `false` means the deadline cut something off
    /// (the shutdown still completes). Tenant pools end up closed, not
    /// drained: a later [`TenantRegistry::drain`] still yields the
    /// verdict, and post-shutdown ingest is a counted `drained`
    /// rejection.
    pub fn shutdown_graceful(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.shared.draining.store(true, Ordering::Release);
        self.close_listeners();
        let conns_done = || {
            let conns = self.shared.conns.lock().expect("conns lock");
            conns.iter().all(|(t, _)| t.is_finished())
        };
        while !conns_done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let conns_flushed = conns_done();
        let pools_flushed = self.shared.registry.flush_all(deadline);
        self.stop_and_join();
        conns_flushed && pools_flushed
    }

    /// Whether a graceful shutdown has begun (readiness is the wire-level
    /// view of the same flag).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Wakes each accept thread, which has seen the drain flag set first,
    /// and joins it (closing its listener). A thread that cannot be
    /// reached is left detached: it owns only its listener, and spawns
    /// nothing once the flag is set.
    fn close_listeners(&mut self) {
        for (thread, wake) in self.acceptors.drain(..) {
            if wake() {
                let _ = thread.join();
            }
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        self.close_listeners();
        // Accept threads add none once the flag is set. This runs in `Drop`,
        // so a poisoned lock is taken as is: every update leaves it whole.
        let conns =
            std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for (_, stream) in &conns {
            stream.shutdown();
        }
        for (t, _) in conns {
            let _ = t.join();
        }
    }
}

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// What every gateway thread shares.
struct Shared {
    registry: Arc<TenantRegistry>,
    limits: ConnLimits,
    /// Connections ever accepted.
    connections: Counter,
    /// Set by either shutdown: stop accepting, and close each connection
    /// once it has nothing buffered.
    draining: AtomicBool,
    /// Live connection threads; finished ones are pruned on each accept.
    conns: Mutex<Vec<ConnThread>>,
}

/// A connection thread, and a clone of its socket for a hard stop to shut
/// down.
type ConnThread = (JoinHandle<()>, Box<dyn crate::Transport>);

impl Shared {
    /// `accept` yields a clone of each accepted socket, then the socket.
    fn spawn_acceptor<S: crate::Transport + 'static>(
        self: &Arc<Self>,
        accept: impl Fn() -> io::Result<(S, S)> + Send + 'static,
    ) -> io::Result<JoinHandle<()>> {
        let shared = Arc::clone(self);
        std::thread::Builder::new()
            .name("pnm-gateway-accept".into())
            .spawn(move || loop {
                let accepted = accept();
                // Shutdown sets a flag, then wakes `accept` with a
                // throwaway connection.
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                match accepted {
                    Ok((clone, stream)) => shared.spawn_conn(clone, stream),
                    Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                }
            })
    }

    fn spawn_conn<S: crate::Transport + 'static>(self: &Arc<Self>, clone: S, mut stream: S) {
        self.connections.inc();
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("pnm-gateway-conn".into())
            .spawn(move || {
                shared.serve(&mut stream);
                // The clone holds the socket open: end it for the client now.
                stream.shutdown();
            });
        let mut conns = self.conns.lock().expect("conns lock");
        conns.retain(|(t, _)| !t.is_finished());
        // A failed spawn drops both ends here, closing the connection.
        if let Ok(t) = spawned {
            conns.push((t, Box::new(clone)));
        }
    }

    /// Serves one connection until EOF, a socket or framing error, an
    /// eviction, or nothing left buffered once a shutdown begins.
    fn serve(&self, stream: &mut impl crate::Transport) {
        // A socket rejects a zero timeout; floor both.
        let stall = self.limits.stall_deadline.max(Duration::from_millis(1));
        if stream.set_read_timeout(Some(TICK.min(stall))).is_err()
            || stream.set_write_timeout(Some(stall)).is_err()
        {
            return;
        }
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut inbuf = Vec::new();
        let mut out = Vec::new();
        let mut last_read = Instant::now();
        loop {
            // A connection has answered every frame it read when nothing is
            // buffered: a busy one closes there, an idle one within a tick.
            if inbuf.is_empty() && self.draining.load(Ordering::Acquire) {
                return;
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => n,
                // A tick with nothing to read: a parked partial frame is
                // cut loose at the stall deadline.
                Err(e) if is_timeout(&e) => {
                    if !inbuf.is_empty() && last_read.elapsed() > self.limits.stall_deadline {
                        self.evict("stalled");
                        return;
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if inbuf.len() + n > self.limits.max_buffer {
                self.evict("buffer_overflow");
                return;
            }
            inbuf.extend_from_slice(&chunk[..n]);
            last_read = Instant::now();
            let open = self.parse(&mut inbuf, &mut out);
            if let Err(e) = stream.write_all(&out) {
                // The client stopped reading its responses.
                if is_timeout(&e) {
                    self.evict("stalled");
                }
                return;
            }
            out.clear();
            if !open {
                return;
            }
        }
    }

    /// Dispatches every complete frame in `inbuf`, appending each
    /// response to `out`, then drops the consumed bytes in one move.
    /// Returns `false` after a framing error: the stream cannot resync,
    /// so its `Error` response is the connection's last.
    fn parse(&self, inbuf: &mut Vec<u8>, out: &mut Vec<u8>) -> bool {
        let mut used = 0;
        let open = loop {
            match Envelope::decode(&inbuf[used..], self.limits.max_payload) {
                Ok(Some((env, len))) => {
                    used += len;
                    out.extend_from_slice(&self.dispatch(env).encode());
                }
                Ok(None) => break true,
                Err(e) => {
                    self.registry
                        .registry()
                        .counter("pnm_gateway_bad_frames_total", &[("reason", e.reason())])
                        .inc();
                    out.extend_from_slice(&Response::new(Status::Error, e.to_string()).encode());
                    break false;
                }
            }
        };
        inbuf.drain(..used);
        open
    }

    fn dispatch(&self, env: Envelope) -> Response {
        // A control frame whose CRC fails was damaged on the wire; it is
        // still well delimited, so the connection stays open.
        if env.opcode != OpCode::IngestSeq && !env.control_intact() {
            self.registry
                .registry()
                .counter("pnm_gateway_rejected_total", &[("reason", "corrupt")])
                .inc();
            return Response::new(Status::Error, "corrupt request");
        }
        match env.opcode {
            OpCode::MetricsText => Response::new(Status::Ok, self.registry.metrics_text()),
            OpCode::Drain => match self.registry.drain(&env.tenant) {
                Some(verdict) => Response::new(Status::Ok, verdict.encode()),
                None => Response::new(Status::Rejected, "unknown tenant"),
            },
            OpCode::IngestSeq => {
                // Every ingest frame gets an IngestAck carrying its
                // admission outcome, so clients can retry safely.
                let ack = self
                    .registry
                    .ingest_seq(&env.tenant, &env.payload, Instant::now());
                Response::new(Status::Ok, ack.encode())
            }
            OpCode::Ops => {
                // Live ops surface: one tenant's series as JSON, or
                // the whole fleet for tenant "*".
                if env.tenant == b"*" {
                    Response::new(Status::Ok, self.registry.ops_snapshot_all_json())
                } else {
                    match self.registry.ops_snapshot_json(&env.tenant) {
                        Some(json) => Response::new(Status::Ok, json),
                        None => Response::new(Status::Rejected, "unknown tenant"),
                    }
                }
            }
            // Liveness: the gateway answered, so the process serves.
            OpCode::Health => Response::new(Status::Ok, "ok"),
            // Readiness: flips to Rejected the moment a graceful
            // shutdown begins, steering traffic away before the
            // listeners close.
            OpCode::Ready => {
                if self.draining.load(Ordering::Acquire) {
                    Response::new(Status::Rejected, "draining")
                } else {
                    Response::new(Status::Ok, "ready")
                }
            }
        }
    }

    fn evict(&self, reason: &str) {
        self.registry
            .registry()
            .counter("pnm_gateway_evicted_total", &[("reason", reason)])
            .inc();
    }
}

/// A read or write that ran out its socket timeout.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GatewayClient;
    use crate::envelope::AckCode;
    use crate::tenant::TenantConfig;
    use pnm_core::{SinkConfig, VerifyMode};
    use pnm_crypto::KeyStore;
    use pnm_service::ServiceConfig;
    use pnm_wire::{Location, Packet, Report};
    use std::io::{Read, Write};

    fn registry() -> Arc<TenantRegistry> {
        Arc::new(
            TenantRegistry::builder()
                .tenant(
                    "alpha",
                    TenantConfig::new(
                        KeyStore::derive_from_master(b"alpha", 6),
                        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(1),
                    ),
                )
                .build()
                .unwrap(),
        )
    }

    /// A gateway for `registry()` with `limits` on a loopback TCP port.
    fn tcp_gateway(limits: ConnLimits) -> (GatewayHandle, SocketAddr) {
        let mut gw = Gateway::new(registry(), GatewayConfig::default().limits(limits));
        let addr = gw.listen_tcp("127.0.0.1:0").unwrap();
        (gw.spawn().unwrap(), addr)
    }

    /// A default gateway for `registry()` on a Unix socket named by `tag`.
    fn uds_gateway(tag: &str) -> (GatewayHandle, PathBuf) {
        let sock =
            std::env::temp_dir().join(format!("pnm-gw-server-{}-{tag}.sock", std::process::id()));
        let mut gw = Gateway::new(registry(), GatewayConfig::default());
        gw.listen_uds(&sock).unwrap();
        (gw.spawn().unwrap(), sock)
    }

    /// An unmarked packet: a sink accepts it and it costs next to nothing.
    fn packet(seq: u64) -> Vec<u8> {
        Packet::new(Report::new(vec![], Location::new(0.0, 0.0), seq)).to_bytes()
    }

    /// A connection that has finished one round trip and stays open.
    fn idle_client(sock: &Path) -> UnixStream {
        let conn = UnixStream::connect(sock).unwrap();
        let mut client = GatewayClient::from_transport(Box::new(conn.try_clone().unwrap()));
        client.health().unwrap();
        conn
    }

    /// Runs `f` on a thread of its own, asserting that it returns within a
    /// second (a hung `f` fails the test rather than hanging it).
    fn within_a_second<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(1)).expect("too slow")
    }

    #[test]
    fn tcp_metrics_and_snapshot_round_trip() {
        let (handle, addr) = tcp_gateway(ConnLimits::default());
        let mut client = GatewayClient::connect_tcp(addr).unwrap();
        let text = client.metrics_text().unwrap();
        assert!(text.contains("pnm_gateway_connections_total 1"));
        let snap = client.ops_snapshot(b"alpha").unwrap();
        assert!(snap.contains(r#""pnm_service_processed_total{shard=\"0\",tenant=\"alpha\"}": 0"#));
        assert!(
            client.ops_snapshot(b"ghost").is_err(),
            "unknown tenant rejected"
        );
        handle.shutdown();
    }

    #[test]
    fn garbage_frame_is_counted_and_connection_closed() {
        let (handle, addr) = tcp_gateway(ConnLimits::default());
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"\xde\xad\xbe\xef").unwrap();
        // Server answers with an Error response, then closes.
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        let (resp, _) = Response::decode(&buf, 1 << 20).unwrap().unwrap();
        assert_eq!(resp.status, Status::Error);
        assert!(String::from_utf8_lossy(&resp.payload).contains("magic"));
        let text = handle.registry().metrics_text();
        assert!(text.contains("pnm_gateway_bad_frames_total{reason=\"bad_magic\"} 1"));
        handle.shutdown();
    }

    /// A control frame damaged on the wire fails its CRC: a `Drain` for
    /// `alpha` with its first tenant byte flipped is answered corrupt and
    /// counted, not refused as an unknown tenant, and the connection stays
    /// open for the resend.
    #[test]
    fn damaged_control_frame_is_answered_corrupt() {
        let (handle, addr) = tcp_gateway(ConnLimits::default());
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut answer = |frame: &[u8]| {
            raw.write_all(frame).unwrap();
            let mut buf = Vec::new();
            loop {
                if let Some((resp, _)) = Response::decode(&buf, 1 << 20).unwrap() {
                    return (resp.status, String::from_utf8(resp.payload).unwrap());
                }
                let mut chunk = [0u8; 256];
                let n = raw.read(&mut chunk).unwrap();
                assert!(n > 0, "connection closed");
                buf.extend_from_slice(&chunk[..n]);
            }
        };
        let mut frame = Envelope::control(OpCode::Drain, b"alpha").encode();
        frame[crate::envelope::FIXED_HEADER] ^= 0x01;
        assert_eq!(answer(&frame), (Status::Error, "corrupt request".into()));
        let health = Envelope::control(OpCode::Health, b"_").encode();
        assert_eq!(answer(&health), (Status::Ok, "ok".into()));
        let text = handle.registry().metrics_text();
        assert!(text.contains("pnm_gateway_rejected_total{reason=\"corrupt\"} 1"));
        handle.shutdown();
    }

    #[test]
    fn oversized_declared_payload_rejected_before_buffering() {
        let limits = ConnLimits {
            max_payload: 128,
            ..ConnLimits::default()
        };
        let (handle, addr) = tcp_gateway(limits);
        let mut frame = Envelope::ingest_seq(b"alpha", 0, 0, &[0u8; 4]).encode();
        // Rewrite payload_len to a huge value; never send the body.
        let len_off = crate::envelope::FIXED_HEADER + 5;
        frame[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&frame[..len_off + 4]).unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        let (resp, _) = Response::decode(&buf, 1 << 20).unwrap().unwrap();
        assert_eq!(resp.status, Status::Error);
        let text = handle.registry().metrics_text();
        assert!(text.contains("pnm_gateway_bad_frames_total{reason=\"oversized\"} 1"));
        handle.shutdown();
    }

    #[test]
    fn stalled_partial_frame_is_evicted_at_deadline() {
        let limits = ConnLimits {
            stall_deadline: Duration::from_millis(50),
            ..ConnLimits::default()
        };
        let (handle, addr) = tcp_gateway(limits);
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // First half of a valid frame, then silence: the server hangs up.
        let frame = Envelope::control(OpCode::Ops, b"alpha").encode();
        raw.write_all(&frame[..3]).unwrap();
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest)
            .expect("evicted before the read timeout");
        assert!(rest.is_empty());
        let text = handle.registry().metrics_text();
        assert!(text.contains("pnm_gateway_evicted_total{reason=\"stalled\"} 1"));
        handle.shutdown();
    }

    #[test]
    fn frame_beyond_buffer_cap_is_evicted() {
        let limits = ConnLimits {
            max_buffer: 64,
            ..ConnLimits::default()
        };
        let (handle, addr) = tcp_gateway(limits);
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Well-formed, within `max_payload`, but it can never fit.
        let frame = Envelope::ingest_seq(b"alpha", 1, 1, &[0u8; 256]).encode();
        raw.write_all(&frame).unwrap();
        // The server hangs up; EOF or a reset, either way it is gone.
        let _ = raw.read_to_end(&mut Vec::new());
        let text = handle.registry().metrics_text();
        assert!(text.contains("pnm_gateway_evicted_total{reason=\"buffer_overflow\"} 1"));
        handle.shutdown();
    }

    /// A frame is served the moment it arrives: no poll interval sits
    /// inside a closed-loop round trip.
    #[test]
    fn closed_loop_round_trip_pays_no_poll_floor() {
        let (handle, sock) = uds_gateway("rtt");
        let mut client = GatewayClient::connect_uds(&sock).unwrap();
        let mut rtt = Vec::new();
        for seq in 0..200 {
            let bytes = packet(seq);
            let start = Instant::now();
            let ack = client.ingest_seq(b"alpha", 1, seq, &bytes).unwrap();
            rtt.push(start.elapsed());
            assert_eq!(ack.code, AckCode::Accepted);
        }
        rtt.sort();
        let median = rtt[rtt.len() / 2];
        assert!(median < Duration::from_micros(150), "median {median:?}");
        handle.shutdown();
    }

    /// Graceful shutdown closes an idle connection within a read tick,
    /// and a busy one at its first frame boundary after the drain starts.
    #[test]
    fn graceful_shutdown_closes_idle_and_busy_connections() {
        let (handle, sock) = uds_gateway("graceful");
        let mut idle = idle_client(&sock);
        let mut busy = GatewayClient::connect_uds(&sock).unwrap();
        let (acked, first_ack) = std::sync::mpsc::channel();
        let sender = std::thread::spawn(move || {
            for seq in 1.. {
                if busy.ingest_seq(b"alpha", 2, seq, &packet(seq)).is_err() {
                    return;
                }
                let _ = acked.send(());
            }
        });
        first_ack.recv().unwrap();
        assert!(within_a_second(
            move || handle.shutdown_graceful(Duration::from_secs(5))
        ));
        sender.join().unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(idle.read(&mut [0u8; 16]).unwrap(), 0, "client reads EOF");
    }

    /// A hard stop waits for no client: neither an idle one nor one that
    /// stopped reading while its responses fill the socket buffers.
    #[test]
    fn hard_shutdown_does_not_wait_for_clients() {
        let (handle, sock) = uds_gateway("hard");
        let _idle = idle_client(&sock);
        let mut unread = UnixStream::connect(&sock).unwrap();
        // Each scrape is tens of KB: far more in all than a socket buffers.
        let request = Envelope::control(OpCode::MetricsText, b"_").encode();
        unread.write_all(&request.repeat(64)).unwrap();
        // The first response byte: the server is writing the rest.
        unread.read_exact(&mut [0u8; 1]).unwrap();
        within_a_second(move || handle.shutdown());
    }

    /// Shutdown neither waits on nor removes a socket file that is no
    /// longer its own: replaced by another gateway's, or removed.
    #[test]
    fn shutdown_leaves_a_socket_file_it_no_longer_owns() {
        let (old, sock) = uds_gateway("taken-over");
        let (new, _) = uds_gateway("taken-over");
        within_a_second(move || old.shutdown());
        GatewayClient::connect_uds(&sock).unwrap().health().unwrap();
        std::fs::remove_file(&sock).unwrap();
        within_a_second(move || new.shutdown());
    }

    #[test]
    fn spawn_without_listeners_is_an_error() {
        let gw = Gateway::new(registry(), GatewayConfig::default());
        assert!(gw.spawn().is_err());
    }
}
