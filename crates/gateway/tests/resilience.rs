//! Edge resilience end-to-end: exactly-once acked ingest under connection
//! chaos, graceful drain, and the health/readiness surface — all over real
//! sockets.
//!
//! The headline property mirrors `isolation.rs`: a tenant fed through a
//! retrying [`GatewayClient`] whose every connection is wrapped in a
//! [`ChaosTransport`] (kills, resets, partial writes, bit flips, stalls)
//! must produce evidence **byte-identical** to the same packet stream sent
//! over a fault-free connection. Retries resend the same (session, seq)
//! identity, the server's dedup window absorbs each frame at most once,
//! and the client's accounting balances exactly.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnm_core::store::Evidence;
use pnm_core::{
    IsolationPolicy, MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig,
    SinkEngine, VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_gateway::{
    AckCode, BackoffPolicy, ChaosPlan, ClientConfig, Envelope, Gateway, GatewayClient,
    GatewayConfig, GatewayHandle, IngestAck, Response, SendOutcome, TenantConfig, TenantRegistry,
};
use pnm_service::{BackpressurePolicy, ServiceConfig, ServicePool};
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: u16 = 6;

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-res-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn sink_config() -> SinkConfig {
    SinkConfig::new(VerifyMode::Nested)
        .isolation(IsolationPolicy::SuspectsOnly)
        .table_cache_capacity(4)
}

fn keys(master: &[u8]) -> Arc<KeyStore> {
    Arc::new(KeyStore::derive_from_master(master, NODES))
}

fn workload(ks: &KeyStore, count: u64, seed: u64) -> Vec<Vec<u8>> {
    let scheme = ProbabilisticNestedMarking::paper_default(NODES as usize);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|seq| {
            let report = Report::new(
                format!("res-{seq}").into_bytes(),
                Location::new(seq as f32, 0.0),
                seq,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..NODES {
                let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt.to_bytes()
        })
        .collect()
}

/// First integer value of the metrics line carrying `name` and every
/// label fragment in `labels` (label order in the exposition is not part
/// of the contract).
fn metric(text: &str, name: &str, labels: &[&str]) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(name) && labels.iter().all(|frag| l.contains(frag)))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The tentpole: full-intensity chaos on the client's wire, and the acked
/// packet stream still lands exactly once — evidence byte-identical to a
/// fault-free run of the same packets, client accounting balanced to the
/// last attempt, zero panics anywhere.
#[test]
fn acked_ingest_under_full_chaos_is_exactly_once() {
    const PACKETS: u64 = 100;
    let ks = keys(b"chaos-secret");
    let packets = workload(&ks, PACKETS, 0xC0FFEE);

    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "chaos",
                TenantConfig::new(Arc::clone(&ks), ServiceConfig::new(sink_config()).shards(1)),
            )
            .tenant(
                "calm",
                TenantConfig::new(Arc::clone(&ks), ServiceConfig::new(sink_config()).shards(1)),
            )
            .build()
            .unwrap(),
    );
    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_path("chaos.sock");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    // Fault-free reference stream into the "calm" tenant.
    let mut calm = GatewayClient::connect_uds(&sock).unwrap().with_session(1);
    for p in &packets {
        let out = calm.send(b"calm", p).unwrap();
        assert!(matches!(
            out,
            SendOutcome::Counted {
                code: AckCode::Accepted,
                attempts: 1,
                trace: 0
            }
        ));
    }
    assert_eq!(
        calm.chaos_counters().total(),
        0,
        "calm wire injects nothing"
    );

    // Same packets into the "chaos" tenant, through a wire that kills,
    // resets, half-writes, bit-flips, stalls, and delays. The short read
    // timeout turns the rare silently-swallowed frame (a bit flip that
    // lands on the opcode) into a prompt retry.
    let chaotic_wire = ClientConfig::default()
        .connect_timeout(Duration::from_secs(2))
        .read_timeout(Duration::from_millis(400))
        .write_timeout(Duration::from_millis(400))
        .chaos(ChaosPlan::at_intensity(1.0), 0x5EED)
        .backoff(
            BackoffPolicy::new(Duration::from_millis(1), Duration::from_millis(30)).jitter(0.25),
        )
        .max_attempts(400);
    let mut chaos = GatewayClient::connect_uds_with(&sock, chaotic_wire)
        .unwrap()
        .with_session(7);
    for p in &packets {
        let out = chaos.send(b"chaos", p).unwrap();
        assert!(out.is_counted(), "chaos wire never loses an acked packet");
    }

    // Client accounting is exact by construction.
    let report = chaos.report();
    assert_eq!(report.counted, PACKETS);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.attempts - PACKETS, report.retries);
    assert_eq!(report.connects - 1, report.reconnects);
    assert!(
        chaos.chaos_counters().total() > 0,
        "full-intensity chaos must actually fire"
    );

    // Server-side balance: despite every retry, each tenant absorbed the
    // stream exactly once.
    let text = registry.metrics_text();
    let ingested = |tenant: &str| {
        metric(
            text.as_str(),
            "pnm_gateway_ingested_total",
            &[&format!("tenant=\"{tenant}\"")],
        )
    };
    assert_eq!(ingested("chaos"), Some(PACKETS));
    assert_eq!(ingested("calm"), Some(PACKETS));
    let dup = metric(&text, "pnm_gateway_duplicate_total", &["tenant=\"chaos\""]).unwrap_or(0);
    assert!(
        dup >= report.duplicates,
        "server saw every duplicate the client trusted ({dup} < {})",
        report.duplicates
    );

    // The whole point: chaos-tenant evidence is byte-identical to the
    // fault-free run — no lost packet, no double count, no stray bytes.
    let mut c = GatewayClient::connect_uds(&sock).unwrap();
    let v_chaos = c.drain(b"chaos").unwrap();
    let v_calm = c.drain(b"calm").unwrap();
    assert_eq!(v_chaos.evidence_bytes, v_calm.evidence_bytes);
    let ev = Evidence::from_bytes(&v_chaos.evidence_bytes).unwrap();
    assert_eq!(ev.counters.packets, PACKETS as usize);
    assert!(v_chaos.summary_json.contains("\"panics\": 0"));
    assert!(v_calm.summary_json.contains("\"panics\": 0"));

    handle.shutdown();
}

/// Satellite regression: a second `Drain` returns the cached verdict
/// byte-identically, and sequenced ingest after the drain is a *counted,
/// structured* rejection — not a hang, not a protocol error.
#[test]
fn drain_twice_is_cached_and_ingest_after_drain_is_structured_rejection() {
    let ks = keys(b"drain-secret");
    let packets = workload(&ks, 10, 0xD12A);
    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "alpha",
                TenantConfig::new(Arc::clone(&ks), ServiceConfig::new(sink_config()).shards(1)),
            )
            .build()
            .unwrap(),
    );
    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_path("drain.sock");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    let mut c = GatewayClient::connect_uds(&sock).unwrap();
    for (seq, p) in packets.iter().enumerate() {
        let ack = c.ingest_seq(b"alpha", 3, seq as u64, p).unwrap();
        assert_eq!(ack.code, AckCode::Accepted);
    }

    let v1 = c.drain(b"alpha").unwrap();
    let v2 = c.drain(b"alpha").unwrap();
    assert_eq!(v1, v2, "second drain returns the cached verdict verbatim");
    assert!(!v1.evidence_bytes.is_empty());

    let ack = c.ingest_seq(b"alpha", 3, 10, &packets[0]).unwrap();
    assert_eq!(ack.code, AckCode::Drained);
    assert!(!ack.code.is_counted());
    assert!(!ack.code.is_retryable(), "drained is terminal");
    let text = registry.metrics_text();
    assert_eq!(
        metric(
            &text,
            "pnm_gateway_rejected_total",
            &["reason=\"drained\"", "tenant=\"alpha\""]
        ),
        Some(1)
    );

    // A retry of an already-counted frame still resolves as Duplicate
    // even after the pool is gone: acked ≡ counted survives the drain.
    let ack = c.ingest_seq(b"alpha", 3, 4, &packets[4]).unwrap();
    assert_eq!(ack.code, AckCode::Duplicate);

    handle.shutdown();
}

/// Graceful shutdown: health/readiness answer over the wire, the gateway
/// stops accepting, in-flight connections flush, and every tenant's final
/// evidence checkpoint lands durably — recoverable into the exact
/// evidence a solo sequential run produces.
#[test]
fn graceful_shutdown_flushes_a_recoverable_final_checkpoint() {
    const PACKETS: u64 = 30;
    let dir = temp_path("graceful-logs");
    std::fs::create_dir_all(&dir).unwrap();
    let ks = keys(b"graceful-secret");
    let packets = workload(&ks, PACKETS, 0x6F0D);
    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "alpha",
                TenantConfig::new(Arc::clone(&ks), ServiceConfig::new(sink_config()).shards(2)),
            )
            .evidence_dir(&dir)
            .build()
            .unwrap(),
    );
    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_path("graceful.sock");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    {
        let mut c = GatewayClient::connect_uds(&sock).unwrap();
        c.health().unwrap();
        assert!(c.ready().unwrap(), "ready before drain");
        for (seq, p) in packets.iter().enumerate() {
            let ack = c.ingest_seq(b"alpha", 11, seq as u64, p).unwrap();
            assert_eq!(ack.code, AckCode::Accepted);
        }
        assert!(!handle.is_draining());
    } // connection closes here, so the drain has nothing in flight

    assert!(
        handle.shutdown_graceful(Duration::from_secs(30)),
        "graceful shutdown flushes connections and pools within budget"
    );
    assert!(
        GatewayClient::connect_uds(&sock).is_err(),
        "listener is gone after shutdown"
    );

    // The final checkpoint recovers into exactly the evidence a solo
    // sequential run of the same packets produces.
    let (pool, stats) = ServicePool::recover_from_log(
        Arc::clone(&ks),
        ServiceConfig::new(sink_config()).shards(2),
        dir.join("alpha.pnme"),
    )
    .unwrap();
    assert_eq!(stats.packets_restored, PACKETS as usize);
    let recovered = pool.drain().engine.evidence().to_bytes();

    let mut seq_engine = SinkEngine::new(Arc::clone(&ks), sink_config().without_isolation());
    for p in &packets {
        seq_engine.ingest(&Packet::from_bytes(p).unwrap());
    }
    let mut merged = SinkEngine::new(Arc::clone(&ks), sink_config());
    merged.absorb(&seq_engine);
    merged.refresh_quarantine();
    merged.quarantine_source_regions();
    assert_eq!(recovered, merged.evidence().to_bytes());

    std::fs::remove_dir_all(&dir).ok();
}

/// Backpressure over the acked path: a full shard queue under `Shed`
/// answers `Busy` with the tenant's configured retry hint, while a retry
/// of an already-counted frame resolves `Duplicate` without needing queue
/// space — dedup sits in front of admission.
#[test]
fn busy_shed_carries_retry_hint_and_dedup_needs_no_queue_space() {
    let ks = keys(b"busy-secret");
    let packets = workload(&ks, 6, 0xB059);
    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "busy",
                TenantConfig::new(
                    Arc::clone(&ks),
                    ServiceConfig::new(sink_config())
                        .shards(1)
                        .queue_capacity(1)
                        .backpressure(BackpressurePolicy::Shed)
                        .start_paused(true),
                )
                .busy_retry_after_ms(7),
            )
            .build()
            .unwrap(),
    );
    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_path("busy.sock");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    let mut c = GatewayClient::connect_uds(&sock).unwrap();
    let first = c.ingest_seq(b"busy", 9, 0, &packets[0]).unwrap();
    assert_eq!(first.code, AckCode::Accepted);

    // The paused shard drains nothing, so within a few more frames the
    // bounded queue must shed one — with the configured hint attached.
    let mut busy_ack = None;
    let mut accepted = 1u64;
    for (seq, p) in packets.iter().enumerate().skip(1) {
        let ack = c.ingest_seq(b"busy", 9, seq as u64, p).unwrap();
        match ack.code {
            AckCode::Accepted => accepted += 1,
            AckCode::Busy => {
                busy_ack = Some(ack);
                break;
            }
            other => panic!("unexpected ack {other:?}"),
        }
    }
    let busy = busy_ack.expect("a capacity-1 queue under a paused shard must shed");
    assert_eq!(busy.retry_after_ms, 7, "tenant's configured retry hint");
    assert!(busy.code.is_retryable());
    assert!(!busy.code.is_counted());

    // Retrying the very first (already counted) frame while the queue is
    // still full: Duplicate, no token burned, no queue slot needed.
    let dup = c.ingest_seq(b"busy", 9, 0, &packets[0]).unwrap();
    assert_eq!(dup.code, AckCode::Duplicate);

    // Drain resumes the paused pool; exactly the accepted frames count.
    let verdict = c.drain(b"busy").unwrap();
    let ev = Evidence::from_bytes(&verdict.evidence_bytes).unwrap();
    assert_eq!(ev.counters.packets, accepted as usize);
    let text = registry.metrics_text();
    assert_eq!(
        metric(
            &text,
            "pnm_gateway_rejected_total",
            &["reason=\"shed\"", "tenant=\"busy\""]
        ),
        Some(1)
    );

    handle.shutdown();
}

/// A gateway whose one tenant, `slow`, sleeps 1 s on every packet behind
/// a one-slot `Block` queue, and a connection A that has sent it three
/// frames without reading: the shard sleeps on the first, the queue holds
/// the second, and the third parks A's ingest until the shard takes the
/// second.
fn stalled_gateway() -> (GatewayHandle, PathBuf, UnixStream, usize) {
    let ks = keys(b"stall-secret");
    let packets = workload(&ks, 3, 0x57A1);
    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "slow",
                TenantConfig::new(
                    Arc::clone(&ks),
                    ServiceConfig::new(sink_config())
                        .shards(1)
                        .queue_capacity(1)
                        .poison_hook(|_| {
                            std::thread::sleep(Duration::from_secs(1));
                            false
                        }),
                ),
            )
            .build()
            .unwrap(),
    );
    let mut gw = Gateway::new(registry, GatewayConfig::default());
    let sock = temp_path("stall.sock");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    let mut a = UnixStream::connect(&sock).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for (seq, p) in packets.iter().enumerate() {
        a.write_all(&Envelope::ingest_seq(b"slow", 5, seq as u64, p).encode())
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    (handle, sock, a, packets.len())
}

/// Reads `count` ingest acks off `stream`.
fn read_acks(stream: &mut UnixStream, count: usize) -> Vec<AckCode> {
    let (mut buf, mut chunk, mut acks) = (Vec::new(), [0u8; 1024], Vec::new());
    while acks.len() < count {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "gateway hung up before acking");
        buf.extend_from_slice(&chunk[..n]);
        while let Some((resp, used)) = Response::decode(&buf, 1 << 16).unwrap() {
            buf.drain(..used);
            acks.push(IngestAck::decode(&resp.payload).unwrap().code);
        }
    }
    acks
}

/// Asserts a `MetricsText` scrape over a fresh connection answers within
/// 500 ms.
fn assert_scrape_is_prompt(sock: &Path, behind: &str) {
    let mut c = GatewayClient::connect_uds(sock).unwrap();
    let start = Instant::now();
    c.metrics_text().unwrap();
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "scrape waited {waited:?} behind {behind}"
    );
}

/// A `Block`-policy ingest parked on a full shard queue holds up only its
/// own connection: a scrape from another connection, which reads every
/// tenant's pool, answers at once, and the parked frames are all accepted
/// once the shard catches up.
#[test]
fn stalled_ingest_does_not_hold_up_other_connections() {
    let (handle, sock, mut a, sent) = stalled_gateway();
    assert_scrape_is_prompt(&sock, "a stalled ingest");
    assert_eq!(read_acks(&mut a, sent), vec![AckCode::Accepted; sent]);
    handle.shutdown();
}

/// A `Drain` of the stalled tenant waits for the parked ingest, and
/// nothing else waits for the drain: a scrape from a third connection
/// answers at once, and the drained evidence holds every acked frame.
#[test]
fn drain_behind_a_stalled_ingest_does_not_hold_up_other_connections() {
    let (handle, sock, mut a, sent) = stalled_gateway();
    let drain = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            GatewayClient::connect_uds(&sock)
                .unwrap()
                .drain(b"slow")
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert_scrape_is_prompt(&sock, "a drain behind a stalled ingest");
    assert_eq!(read_acks(&mut a, sent), vec![AckCode::Accepted; sent]);
    let verdict = drain.join().unwrap();
    let ev = Evidence::from_bytes(&verdict.evidence_bytes).unwrap();
    assert_eq!(ev.counters.packets, sent);
    handle.shutdown();
}
