//! End-to-end multi-tenant isolation: verdicts served through the gateway
//! are **byte-identical** to per-tenant sequential engine runs, with
//! hostile traffic (garbage envelopes, malformed payloads, unknown
//! tenants) interleaved on the same listener and exactly counted.
//!
//! The byte comparison is the whole isolation argument: if any byte of
//! tenant B's traffic — or of the attacker's — reached tenant A's
//! evidence, A's canonical `Evidence` encoding would differ from the
//! solo sequential run. The sequential baseline mirrors the pool's drain
//! semantics (per-packet isolation stripped, policy applied once to the
//! merged graph), per `crates/service/tests/equivalence.rs`.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
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
    AckCode, Gateway, GatewayClient, GatewayConfig, Response, SeqFrame, Status, TenantConfig,
    TenantRegistry,
};
use pnm_service::{ServiceConfig, ServicePool};
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-gw-{}-{}-{}",
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

fn keys(master: &[u8], n: u16) -> Arc<KeyStore> {
    Arc::new(KeyStore::derive_from_master(master, n))
}

fn workload(ks: &KeyStore, n: u16, count: u64, seed: u64) -> Vec<Packet> {
    let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|seq| {
            let report = Report::new(
                format!("iso-{seq}").into_bytes(),
                Location::new(seq as f32, 0.0),
                seq,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..n {
                let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect()
}

/// The canonical evidence a solo sequential run produces, mirroring the
/// pool's drain semantics exactly: per-packet processing without the
/// isolation stage, then absorb into a fresh engine and apply the policy
/// once (the same steps `ServicePool::drain` performs on its shards).
fn sequential_verdict_bytes(ks: &Arc<KeyStore>, packets: &[Packet]) -> Vec<u8> {
    let mut seq = SinkEngine::new(Arc::clone(ks), sink_config().without_isolation());
    for p in packets {
        seq.ingest(p);
    }
    let mut merged = SinkEngine::new(Arc::clone(ks), sink_config());
    merged.absorb(&seq);
    merged.refresh_quarantine();
    merged.quarantine_source_regions();
    merged.evidence().to_bytes()
}

fn two_tenant_registry(alpha: &Arc<KeyStore>, beta: &Arc<KeyStore>) -> Arc<TenantRegistry> {
    Arc::new(
        TenantRegistry::builder()
            .tenant(
                "alpha",
                TenantConfig::new(
                    Arc::clone(alpha),
                    ServiceConfig::new(sink_config()).shards(1),
                ),
            )
            .tenant(
                "beta",
                TenantConfig::new(
                    Arc::clone(beta),
                    ServiceConfig::new(sink_config()).shards(1),
                ),
            )
            .build()
            .unwrap(),
    )
}

fn wait_for_quiescence(registry: &TenantRegistry) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while registry.backlog() > 0 {
        assert!(Instant::now() < deadline, "pools never drained backlog");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn gateway_verdicts_byte_identical_to_sequential_runs() {
    let alpha_keys = keys(b"alpha-secret", 8);
    let beta_keys = keys(b"beta-secret", 6);
    let alpha_packets = workload(&alpha_keys, 8, 160, 11);
    let beta_packets = workload(&beta_keys, 6, 120, 22);

    let registry = two_tenant_registry(&alpha_keys, &beta_keys);
    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_path("isolation.sock");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    // Two tenants stream concurrently on separate connections, each with
    // hostile traffic woven in: alpha's client intersperses malformed
    // packet payloads, beta's client intersperses frames for a tenant
    // that does not exist. Every frame is acked, and the hostile ones
    // are acked with their terminal rejection.
    let alpha_thread = {
        let sock = sock.clone();
        let packets = alpha_packets.clone();
        std::thread::spawn(move || {
            let mut c = GatewayClient::connect_uds(&sock).unwrap();
            let mut seq = 0..;
            for (i, p) in packets.iter().enumerate() {
                let ack = c
                    .ingest_seq(b"alpha", 1, seq.next().unwrap(), &p.to_bytes())
                    .unwrap();
                assert_eq!(ack.code, AckCode::Accepted);
                if i % 7 == 0 {
                    let ack = c
                        .ingest_seq(b"alpha", 1, seq.next().unwrap(), b"not a canonical packet")
                        .unwrap();
                    assert_eq!(ack.code, AckCode::Malformed);
                }
            }
            c.ops_snapshot(b"alpha").unwrap()
        })
    };
    let beta_thread = {
        let sock = sock.clone();
        let packets = beta_packets.clone();
        std::thread::spawn(move || {
            let mut c = GatewayClient::connect_uds(&sock).unwrap();
            let mut seq = 0..;
            for (i, p) in packets.iter().enumerate() {
                let ack = c
                    .ingest_seq(b"beta", 2, seq.next().unwrap(), &p.to_bytes())
                    .unwrap();
                assert_eq!(ack.code, AckCode::Accepted);
                if i % 9 == 0 {
                    let ack = c
                        .ingest_seq(b"ghost", 2, seq.next().unwrap(), &p.to_bytes())
                        .unwrap();
                    assert_eq!(ack.code, AckCode::UnknownTenant);
                }
            }
            c.ops_snapshot(b"beta").unwrap()
        })
    };
    // An attacker connection sends raw garbage: the gateway answers with
    // a protocol error and closes — no panic, no effect on any tenant.
    let mut attacker = UnixStream::connect(&sock).unwrap();
    attacker.write_all(b"\xde\xad\xbe\xef garbage").unwrap();
    let mut raw = Vec::new();
    attacker.read_to_end(&mut raw).unwrap();
    let (resp, _) = Response::decode(&raw, 1 << 20).unwrap().unwrap();
    assert_eq!(resp.status, Status::Error);

    // Each client's `Ops` reply, fetched after its last ack, counts every
    // packet it acked into its own tenant's pool.
    let alpha_snap = alpha_thread.join().unwrap();
    let beta_snap = beta_thread.join().unwrap();
    assert!(
        alpha_snap.contains(r#""pnm_service_accepted_total{shard=\"0\",tenant=\"alpha\"}": 160"#)
    );
    assert!(beta_snap.contains(r#""pnm_service_accepted_total{shard=\"0\",tenant=\"beta\"}": 120"#));
    wait_for_quiescence(&registry);

    // Scrape before draining: one exposition covers both tenants, plus
    // the gateway's own exactly-counted rejections.
    let mut c = GatewayClient::connect_uds(&sock).unwrap();
    let text = c.metrics_text().unwrap();
    assert!(text.contains("pnm_gateway_ingested_total{tenant=\"alpha\"} 160"));
    assert!(text.contains("pnm_gateway_ingested_total{tenant=\"beta\"} 120"));
    // ceil(160/7) malformed payloads, ceil(120/9) unknown-tenant frames.
    assert!(text.contains("pnm_gateway_rejected_total{reason=\"malformed\",tenant=\"alpha\"} 23"));
    assert!(text.contains("pnm_gateway_rejected_total{reason=\"unknown_tenant\"} 14"));
    assert!(text.contains("pnm_gateway_bad_frames_total{reason=\"bad_magic\"} 1"));
    assert!(text.contains("pnm_service_accepted_total{shard=\"0\",tenant=\"alpha\"} 160"));
    assert!(text.contains("pnm_service_accepted_total{shard=\"0\",tenant=\"beta\"} 120"));

    // Drain over the wire; a second drain returns identical bytes.
    let va = c.drain(b"alpha").unwrap();
    let vb = c.drain(b"beta").unwrap();
    let va2 = c.drain(b"alpha").unwrap();
    assert_eq!(va.evidence_bytes, va2.evidence_bytes);
    assert_eq!(va.summary_json, va2.summary_json);

    // The isolation property, in one line per tenant: gateway-served
    // evidence is byte-identical to the tenant's solo sequential run.
    assert_eq!(
        va.evidence_bytes,
        sequential_verdict_bytes(&alpha_keys, &alpha_packets),
        "alpha verdict must match its solo sequential run byte for byte"
    );
    assert_eq!(
        vb.evidence_bytes,
        sequential_verdict_bytes(&beta_keys, &beta_packets),
        "beta verdict must match its solo sequential run byte for byte"
    );
    assert_ne!(va.evidence_bytes, vb.evidence_bytes);

    // Decoded sanity: each tenant saw exactly its own valid packets —
    // none of the other tenant's, none of the attacker's.
    let ea = Evidence::from_bytes(&va.evidence_bytes).unwrap();
    let eb = Evidence::from_bytes(&vb.evidence_bytes).unwrap();
    assert_eq!(ea.counters.packets, 160);
    assert_eq!(eb.counters.packets, 120);
    assert_eq!(
        ea.counters.malformed, 0,
        "gateway rejects malformed pre-pool"
    );

    assert!(va.summary_json.contains("\"tenant\": \"alpha\""));
    assert!(vb.summary_json.contains("\"tenant\": \"beta\""));

    handle.shutdown();
    assert!(!sock.exists(), "socket file removed on shutdown");
}

#[test]
fn per_tenant_evidence_logs_are_namespaced_and_recover_independently() {
    let dir = temp_path("logs");
    std::fs::create_dir_all(&dir).unwrap();
    let alpha_keys = keys(b"alpha-secret", 8);
    let beta_keys = keys(b"beta-secret", 6);
    let alpha_packets = workload(&alpha_keys, 8, 40, 5);
    let beta_packets = workload(&beta_keys, 6, 30, 6);

    let registry = TenantRegistry::builder()
        .tenant(
            "alpha",
            TenantConfig::new(
                Arc::clone(&alpha_keys),
                ServiceConfig::new(sink_config()).shards(1),
            ),
        )
        .tenant(
            "beta",
            TenantConfig::new(
                Arc::clone(&beta_keys),
                ServiceConfig::new(sink_config()).shards(1),
            ),
        )
        .evidence_dir(&dir)
        .build()
        .unwrap();

    let now = Instant::now();
    for (tenant, packets) in [(&b"alpha"[..], &alpha_packets), (b"beta", &beta_packets)] {
        for (seq, p) in (0..).zip(packets) {
            let frame = SeqFrame::encode_payload(tenant, 1, seq, &p.to_bytes());
            assert_eq!(
                registry.ingest_seq(tenant, &frame, now).code,
                AckCode::Accepted
            );
        }
    }
    wait_for_quiescence(&registry);
    let va = registry.drain(b"alpha").unwrap();
    let vb = registry.drain(b"beta").unwrap();

    // One log file per tenant — evidence never shares a byte stream.
    let alpha_log = dir.join("alpha.pnme");
    let beta_log = dir.join("beta.pnme");
    assert!(alpha_log.exists());
    assert!(beta_log.exists());

    // Each tenant's log recovers exactly that tenant's evidence.
    let (pool, stats) = ServicePool::recover_from_log(
        Arc::clone(&alpha_keys),
        ServiceConfig::new(sink_config()).shards(1),
        &alpha_log,
    )
    .unwrap();
    assert_eq!(stats.packets_restored, 40);
    assert_eq!(pool.drain().engine.evidence().to_bytes(), va.evidence_bytes);

    let (pool, stats) = ServicePool::recover_from_log(
        Arc::clone(&beta_keys),
        ServiceConfig::new(sink_config()).shards(1),
        &beta_log,
    )
    .unwrap();
    assert_eq!(stats.packets_restored, 30);
    assert_eq!(pool.drain().engine.evidence().to_bytes(), vb.evidence_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restarted_registry_starts_from_its_evidence_logs() {
    let dir = temp_path("restart");
    std::fs::create_dir_all(&dir).unwrap();
    let alpha_keys = keys(b"alpha-secret", 8);
    let packets = workload(&alpha_keys, 8, 30, 7);
    let build = || {
        TenantRegistry::builder()
            .tenant(
                "alpha",
                TenantConfig::new(
                    Arc::clone(&alpha_keys),
                    ServiceConfig::new(sink_config()).shards(2),
                ),
            )
            .evidence_dir(&dir)
            .build()
            .unwrap()
    };

    let first = build();
    let now = Instant::now();
    for (seq, p) in (0..).zip(&packets) {
        let frame = SeqFrame::encode_payload(b"alpha", 1, seq, &p.to_bytes());
        assert_eq!(
            first.ingest_seq(b"alpha", &frame, now).code,
            AckCode::Accepted
        );
    }
    wait_for_quiescence(&first);
    let acked = first.drain(b"alpha").unwrap();
    drop(first);

    // A second registry on the same directory, sent no new frame, starts
    // from the log: it drains exactly what the first one acked. (A frame
    // resent after the restart would be counted twice: the dedup window
    // is not persisted.)
    let restarted = build().drain(b"alpha").unwrap();
    let evidence = Evidence::from_bytes(&restarted.evidence_bytes).unwrap();
    assert_eq!(evidence.counters.packets, 30);
    assert_eq!(restarted.evidence_bytes, acked.evidence_bytes);

    std::fs::remove_dir_all(&dir).ok();
}
