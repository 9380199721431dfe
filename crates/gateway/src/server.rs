//! The gateway server: nonblocking listeners and worker readiness loops.
//!
//! No async runtime and no new dependencies — a hand-rolled readiness
//! loop over `std::net` sockets in nonblocking mode. One acceptor thread
//! drains every listener (TCP and Unix-domain) and deals connections
//! round-robin to a fixed set of worker threads; each worker owns its
//! connections outright and loops: flush pending writes, read what the
//! kernel has, parse complete frames, dispatch, repeat. Ownership never
//! crosses threads after accept, so there are no locks on the data path.
//!
//! Admission composes in layers. The envelope decoder rejects garbage and
//! oversized frames before any unbounded buffering ([`crate::envelope`]);
//! per-connection caps bound buffered bytes and stall time
//! ([`crate::admission::ConnLimits`]); per-tenant token buckets and the
//! service pools' own Block/Shed queues sit behind those
//! ([`TenantRegistry::ingest_seq`]). Under `Block` backpressure a full
//! queue stalls the worker, the kernel socket buffers fill, and the TCP
//! window closes — the service-layer policy becomes end-to-end flow
//! control for free. `Shed` keeps workers responsive and counts the drops instead;
//! prefer it for multi-tenant gateways so one tenant's burst cannot stall
//! a worker serving others.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::ConnLimits;
use crate::envelope::{Envelope, OpCode, Response, Status};
use crate::tenant::TenantRegistry;

/// Tuning for a [`Gateway`].
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    workers: usize,
    limits: ConnLimits,
    poll_interval: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 2,
            limits: ConnLimits::default(),
            poll_interval: Duration::from_micros(300),
        }
    }
}

impl GatewayConfig {
    /// Number of worker threads (connections are dealt round-robin).
    /// Clamped to at least 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Per-connection byte and stall limits.
    pub fn limits(mut self, limits: ConnLimits) -> Self {
        self.limits = limits;
        self
    }

    /// How long an idle acceptor or worker sleeps between polls. Smaller
    /// is lower latency, larger is kinder to a shared host.
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
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
    uds: Vec<UnixListener>,
    uds_paths: Vec<PathBuf>,
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
            uds_paths: Vec::new(),
        }
    }

    /// Binds a TCP listener and returns the bound address (use port 0 to
    /// let the kernel pick).
    pub fn listen_tcp(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        self.tcp.push(listener);
        Ok(bound)
    }

    /// Binds a Unix-domain listener at `path`, removing a stale socket
    /// file from a previous run first. The file is removed again on
    /// shutdown.
    pub fn listen_uds(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        self.uds.push(listener);
        self.uds_paths.push(path.to_path_buf());
        Ok(())
    }

    /// Starts the acceptor and worker threads and returns their handle.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if no listener was bound.
    pub fn spawn(self) -> io::Result<GatewayHandle> {
        if self.tcp.is_empty() && self.uds.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway has no listeners; call listen_tcp or listen_uds first",
            ));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::with_capacity(self.config.workers + 1);
        let mut senders = Vec::with_capacity(self.config.workers);
        for id in 0..self.config.workers {
            let (tx, rx) = channel::<Conn>();
            senders.push(tx);
            let worker = Worker {
                registry: Arc::clone(&self.registry),
                limits: self.config.limits,
                poll_interval: self.config.poll_interval,
                stop: Arc::clone(&stop),
                draining: Arc::clone(&draining),
                active: Arc::clone(&active),
                rx,
                conns: Vec::new(),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pnm-gateway-worker-{id}"))
                    .spawn(move || worker.run())?,
            );
        }
        let acceptor = Acceptor {
            registry: Arc::clone(&self.registry),
            tcp: self.tcp,
            uds: self.uds,
            senders,
            poll_interval: self.config.poll_interval,
            stop: Arc::clone(&stop),
            draining: Arc::clone(&draining),
            active: Arc::clone(&active),
        };
        threads.push(
            std::thread::Builder::new()
                .name("pnm-gateway-acceptor".into())
                .spawn(move || acceptor.run())?,
        );
        Ok(GatewayHandle {
            registry: self.registry,
            stop,
            draining,
            active,
            threads,
            uds_paths: self.uds_paths,
        })
    }
}

/// A running gateway. Dropping it (or calling
/// [`shutdown`](GatewayHandle::shutdown)) stops the threads, closes every
/// connection, and removes Unix socket files. Shutting the server down
/// does **not** drain tenant pools — send [`OpCode::Drain`] per tenant, or
/// keep a handle to the [`TenantRegistry`] and drain in-process. For a
/// shutdown that lets in-flight work land first, use
/// [`shutdown_graceful`](GatewayHandle::shutdown_graceful).
pub struct GatewayHandle {
    registry: Arc<TenantRegistry>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
    uds_paths: Vec<PathBuf>,
}

impl GatewayHandle {
    /// The tenant registry this gateway serves (for in-process scrapes,
    /// drains, and tests).
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// Stops accepting, closes every connection, and joins the threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Graceful shutdown, in order: (1) stop accepting — the acceptor
    /// exits and every listener closes, and [`OpCode::Ready`] starts
    /// answering `Rejected("draining")` so load balancers steer away;
    /// (2) let in-flight connections finish — workers serve what is
    /// buffered and close each connection once it goes idle; (3) flush
    /// every tenant pool — shard workers run their queues dry and write
    /// their **final durable checkpoint** to the tenant's evidence log;
    /// (4) stop the threads and remove socket files.
    ///
    /// Returns `true` if both the connections and every pool flushed
    /// within `timeout`; `false` means the deadline cut something off
    /// (the shutdown still completes). Tenant pools end up closed, not
    /// drained: a later [`TenantRegistry::drain`] still yields the
    /// verdict, and post-shutdown ingest is a counted `drained`
    /// rejection.
    pub fn shutdown_graceful(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.draining.store(true, Ordering::Release);
        while self.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let conns_flushed = self.active.load(Ordering::Acquire) == 0;
        let pools_flushed = self.registry.flush_all(deadline);
        self.stop_and_join();
        conns_flushed && pools_flushed
    }

    /// Whether a graceful shutdown has begun (readiness is the wire-level
    /// view of the same flag).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        for p in self.uds_paths.drain(..) {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Either flavor of accepted stream; everything downstream is
/// transport-agnostic.
enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }
}

/// One connection owned by one worker.
struct Conn {
    sock: Sock,
    /// Bytes read but not yet parsed into frames.
    inbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the kernel.
    outbuf: Vec<u8>,
    /// Last moment the connection made progress (bytes moved either way).
    last_progress: Instant,
    /// Peer closed its write half; serve what is buffered, flush, close.
    eof: bool,
    /// Protocol violation: stop reading, flush the error response, close.
    poisoned: bool,
}

impl Conn {
    fn new(sock: Sock) -> Self {
        Conn {
            sock,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            last_progress: Instant::now(),
            eof: false,
            poisoned: false,
        }
    }
}

/// What one service pass over a connection concluded.
enum ConnFate {
    /// Keep polling it.
    Keep,
    /// Finished or failed; drop it.
    Close,
}

struct Acceptor {
    registry: Arc<TenantRegistry>,
    tcp: Vec<TcpListener>,
    uds: Vec<UnixListener>,
    senders: Vec<Sender<Conn>>,
    poll_interval: Duration,
    stop: Arc<AtomicBool>,
    /// Graceful shutdown: exit the accept loop (closing every listener)
    /// while workers keep serving what is already connected.
    draining: Arc<AtomicBool>,
    /// Connections accepted and not yet closed by a worker.
    active: Arc<AtomicUsize>,
}

impl Acceptor {
    fn run(self) {
        let accepted = self
            .registry
            .registry()
            .counter("pnm_gateway_connections_total", &[]);
        let mut next = 0usize;
        while !self.stop.load(Ordering::Acquire) && !self.draining.load(Ordering::Acquire) {
            let mut any = false;
            for l in &self.tcp {
                while let Ok((s, _)) = l.accept() {
                    if s.set_nonblocking(true).is_err() {
                        continue;
                    }
                    any = true;
                    accepted.inc();
                    self.dispatch(Conn::new(Sock::Tcp(s)), &mut next);
                }
            }
            for l in &self.uds {
                while let Ok((s, _)) = l.accept() {
                    if s.set_nonblocking(true).is_err() {
                        continue;
                    }
                    any = true;
                    accepted.inc();
                    self.dispatch(Conn::new(Sock::Unix(s)), &mut next);
                }
            }
            if !any {
                std::thread::sleep(self.poll_interval);
            }
        }
    }

    fn dispatch(&self, conn: Conn, next: &mut usize) {
        let w = *next % self.senders.len();
        *next = next.wrapping_add(1);
        self.active.fetch_add(1, Ordering::AcqRel);
        // A worker can only be gone during shutdown; drop the connection.
        if self.senders[w].send(conn).is_err() {
            self.active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

struct Worker {
    registry: Arc<TenantRegistry>,
    limits: ConnLimits,
    poll_interval: Duration,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    rx: Receiver<Conn>,
    conns: Vec<Conn>,
}

impl Worker {
    fn run(mut self) {
        while !self.stop.load(Ordering::Acquire) {
            while let Ok(conn) = self.rx.try_recv() {
                self.conns.push(conn);
            }
            let mut progressed = false;
            let mut i = 0;
            while i < self.conns.len() {
                let before = (self.conns[i].inbuf.len(), self.conns[i].outbuf.len());
                match self.service(i) {
                    ConnFate::Close => {
                        // swap_remove: order between connections carries no
                        // meaning, only order *within* one connection does.
                        self.conns.swap_remove(i);
                        self.active.fetch_sub(1, Ordering::AcqRel);
                        progressed = true;
                    }
                    ConnFate::Keep => {
                        let after = (self.conns[i].inbuf.len(), self.conns[i].outbuf.len());
                        progressed |= before != after;
                        i += 1;
                    }
                }
            }
            if !progressed {
                std::thread::sleep(self.poll_interval);
            }
        }
        // Hard stop: connections dropped without a graceful close still
        // leave the active gauge consistent.
        self.active.fetch_sub(self.conns.len(), Ordering::AcqRel);
    }

    /// One pass: flush, read, parse, dispatch, enforce deadlines.
    fn service(&mut self, i: usize) -> ConnFate {
        if let ConnFate::Close = self.flush(i) {
            return ConnFate::Close;
        }
        let conn = &mut self.conns[i];
        if conn.poisoned {
            // Error response flushed (outbuf empty after flush) → done.
            if conn.outbuf.is_empty() {
                return ConnFate::Close;
            }
        } else if !conn.eof {
            if let ConnFate::Close = self.fill(i) {
                return ConnFate::Close;
            }
            if let ConnFate::Close = self.parse(i) {
                return ConnFate::Close;
            }
            // Try to hand freshly produced responses to the kernel now
            // rather than waiting a poll cycle.
            if let ConnFate::Close = self.flush(i) {
                return ConnFate::Close;
            }
        }
        let conn = &mut self.conns[i];
        if conn.eof && conn.outbuf.is_empty() && !conn.poisoned {
            return ConnFate::Close;
        }
        // Graceful drain: once the gateway stops accepting, an idle
        // connection (nothing buffered either way) is flushed by
        // definition — close it so shutdown can proceed. A connection
        // mid-frame keeps its stall-deadline budget to finish.
        if conn.inbuf.is_empty() && conn.outbuf.is_empty() && self.draining.load(Ordering::Acquire)
        {
            return ConnFate::Close;
        }
        // Slow-client eviction: a parked partial frame or an unread
        // response pins buffer memory; cut it loose at the deadline.
        if (!conn.inbuf.is_empty() || !conn.outbuf.is_empty())
            && conn.last_progress.elapsed() > self.limits.stall_deadline
        {
            self.evict("stalled");
            return ConnFate::Close;
        }
        ConnFate::Keep
    }

    fn flush(&mut self, i: usize) -> ConnFate {
        let conn = &mut self.conns[i];
        while !conn.outbuf.is_empty() {
            match conn.sock.write(&conn.outbuf) {
                Ok(0) => return ConnFate::Close,
                Ok(n) => {
                    conn.outbuf.drain(..n);
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Close,
            }
        }
        ConnFate::Keep
    }

    fn fill(&mut self, i: usize) -> ConnFate {
        let conn = &mut self.conns[i];
        let mut chunk = [0u8; 8192];
        loop {
            match conn.sock.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    return ConnFate::Keep;
                }
                Ok(n) => {
                    if conn.inbuf.len() + n > self.limits.max_buffer {
                        self.evict("buffer_overflow");
                        return ConnFate::Close;
                    }
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnFate::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Close,
            }
        }
    }

    fn parse(&mut self, i: usize) -> ConnFate {
        loop {
            let conn = &mut self.conns[i];
            match Envelope::decode(&conn.inbuf, self.limits.max_payload) {
                Ok(Some((env, used))) => {
                    conn.inbuf.drain(..used);
                    self.dispatch(i, env);
                }
                Ok(None) => return ConnFate::Keep,
                Err(e) => {
                    // The stream cannot resync after a framing error:
                    // count it, say why, stop reading, close once flushed.
                    self.registry
                        .registry()
                        .counter("pnm_gateway_bad_frames_total", &[("reason", e.reason())])
                        .inc();
                    let conn = &mut self.conns[i];
                    conn.poisoned = true;
                    conn.inbuf.clear();
                    conn.outbuf
                        .extend_from_slice(&Response::new(Status::Error, e.to_string()).encode());
                    return ConnFate::Keep;
                }
            }
        }
    }

    fn dispatch(&mut self, i: usize, env: Envelope) {
        let response = match env.opcode {
            OpCode::Snapshot => match self.registry.snapshot_json(&env.tenant) {
                Some(json) => Response::new(Status::Ok, json),
                None => Response::new(Status::Rejected, "unknown tenant"),
            },
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
                // Live ops surface: per-tenant health/SLO snapshot, or
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
            // Liveness: the worker answered, so the process serves.
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
        };
        self.conns[i].outbuf.extend_from_slice(&response.encode());
    }

    fn evict(&self, reason: &str) {
        self.registry
            .registry()
            .counter("pnm_gateway_evicted_total", &[("reason", reason)])
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GatewayClient;
    use crate::tenant::TenantConfig;
    use pnm_core::{SinkConfig, VerifyMode};
    use pnm_crypto::KeyStore;
    use pnm_service::ServiceConfig;

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

    fn fast_config() -> GatewayConfig {
        GatewayConfig::default()
            .workers(1)
            .poll_interval(Duration::from_micros(200))
    }

    #[test]
    fn tcp_metrics_and_snapshot_round_trip() {
        let mut gw = Gateway::new(registry(), fast_config());
        let addr = gw.listen_tcp("127.0.0.1:0").unwrap();
        let handle = gw.spawn().unwrap();

        let mut client = GatewayClient::connect_tcp(addr).unwrap();
        let text = client.metrics_text().unwrap();
        assert!(text.contains("pnm_gateway_connections_total 1"));
        let snap = client.snapshot(b"alpha").unwrap();
        assert!(snap.contains("\"processed\""));
        assert!(
            client.snapshot(b"ghost").is_err(),
            "unknown tenant rejected"
        );
        handle.shutdown();
    }

    #[test]
    fn garbage_frame_is_counted_and_connection_closed() {
        let mut gw = Gateway::new(registry(), fast_config());
        let addr = gw.listen_tcp("127.0.0.1:0").unwrap();
        let handle = gw.spawn().unwrap();

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

    #[test]
    fn oversized_declared_payload_rejected_before_buffering() {
        let limits = ConnLimits {
            max_payload: 128,
            ..ConnLimits::default()
        };
        let mut gw = Gateway::new(registry(), fast_config().limits(limits));
        let addr = gw.listen_tcp("127.0.0.1:0").unwrap();
        let handle = gw.spawn().unwrap();

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
        let mut gw = Gateway::new(registry(), fast_config().limits(limits));
        let addr = gw.listen_tcp("127.0.0.1:0").unwrap();
        let handle = gw.spawn().unwrap();

        let mut raw = TcpStream::connect(addr).unwrap();
        // First half of a valid frame, then silence.
        let frame = Envelope::control(OpCode::Snapshot, b"alpha").encode();
        raw.write_all(&frame[..3]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let text = handle.registry().metrics_text();
            if text.contains("pnm_gateway_evicted_total{reason=\"stalled\"} 1") {
                break;
            }
            assert!(Instant::now() < deadline, "eviction never happened");
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
    }

    #[test]
    fn spawn_without_listeners_is_an_error() {
        let gw = Gateway::new(registry(), fast_config());
        assert!(gw.spawn().is_err());
    }
}
