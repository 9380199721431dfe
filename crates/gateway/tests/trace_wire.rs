//! End-to-end causal tracing across the wire: one packet = one trace,
//! client → gateway → shard queue → sink stages, even when every
//! connection is wrapped in a [`ChaosTransport`].
//!
//! The tentpole property: a retrying `GatewayClient` with a tracer attached
//! sends every packet in an `IngestSeq` frame carrying a trace id minted
//! once per logical send. Retries resend the same id, the server's dedup
//! window absorbs the packet at most once, and the shard engine opens its
//! stage spans inside the propagated context — so the collector ends up
//! with exactly one `client.send` → `gateway.ingest` → `sink.ingest` →
//! stage-span chain per counted packet. Tracing must also change nothing:
//! the traced chaos run's evidence is byte-identical to an untraced calm
//! run of the same packets.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pnm_core::{IsolationPolicy, SinkConfig, VerifyMode};
use pnm_crypto::KeyStore;
use pnm_gateway::{
    BackoffPolicy, ChaosPlan, ClientConfig, Gateway, GatewayClient, GatewayConfig, TenantConfig,
    TenantRegistry,
};
use pnm_obs::{Event, EventKind, ShardedRingCollector, Tracer};
use pnm_service::ServiceConfig;
use pnm_sim::{AttackPath, AttackStream, SchemeKind};
use pnm_wire::{Location, Packet, Report};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: u16 = 6;

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-trace-{}-{}-{}",
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

/// Index one trace's span-open events by name.
fn opens_by_name(events: &[Event], trace: u64) -> BTreeMap<&'static str, Vec<&Event>> {
    let mut by_name: BTreeMap<&'static str, Vec<&Event>> = BTreeMap::new();
    for e in events {
        if e.trace == trace && e.kind == EventKind::SpanOpen {
            by_name.entry(e.name).or_default().push(e);
        }
    }
    by_name
}

/// Asserts one complete causal chain for `trace`: exactly one
/// `client.send` root, one `gateway.ingest` under it, one `sink.ingest`
/// under that, and every sink stage span under `sink.ingest`.
fn assert_single_chain(events: &[Event], trace: u64) {
    let by_name = opens_by_name(events, trace);
    let client = match by_name.get("client.send") {
        Some(v) => {
            assert_eq!(v.len(), 1, "trace {trace:#x}: one client.send root");
            v[0]
        }
        None => panic!("trace {trace:#x}: missing client.send"),
    };
    assert_eq!(client.parent, 0, "client.send is the root");
    let gateway = match by_name.get("gateway.ingest") {
        Some(v) => {
            assert_eq!(
                v.len(),
                1,
                "trace {trace:#x}: dedup admits the packet once, so one gateway.ingest"
            );
            v[0]
        }
        None => panic!("trace {trace:#x}: missing gateway.ingest"),
    };
    assert_eq!(
        gateway.parent, client.span,
        "gateway span under client span"
    );
    let sink = match by_name.get("sink.ingest") {
        Some(v) => {
            assert_eq!(v.len(), 1, "trace {trace:#x}: one sink.ingest");
            v[0]
        }
        None => panic!("trace {trace:#x}: missing sink.ingest"),
    };
    assert_eq!(
        sink.parent, gateway.span,
        "sink span survived the shard-queue hand-off under the gateway span"
    );
    // Every stage span (sink.classify, sink.verify, …) hangs off
    // sink.ingest. Not every packet runs every stage (e.g. resolve only
    // fires on MAC failures), so iterate what actually opened. Also pin
    // that the classify stage — which every packet runs — is present.
    let mut stages = 0;
    for (name, spans) in &by_name {
        if name.starts_with("sink.") && *name != "sink.ingest" {
            for s in spans {
                assert_eq!(
                    s.parent, sink.span,
                    "trace {trace:#x}: stage {name} under sink.ingest"
                );
                stages += 1;
            }
        }
    }
    assert!(stages > 0, "trace {trace:#x}: at least one stage span");
    assert!(
        by_name.contains_key("sink.classify"),
        "trace {trace:#x}: classify runs for every packet"
    );
}

/// The tentpole, deterministic flavor: full-intensity chaos on the wire,
/// and every counted packet still forms exactly one complete trace — and
/// the evidence is byte-identical to an untraced calm run.
#[test]
fn chaos_wire_yields_one_complete_trace_per_packet() {
    let ks = &Arc::new(KeyStore::derive_from_master(b"trace-secret", NODES));
    let mut path = AttackPath::new(Arc::clone(ks), SchemeKind::Pnm, 0, NODES);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let packets: Vec<Packet> = (0..60u64)
        .map(|seq| {
            let report = Report::new(
                format!("tw-{seq}").into_bytes(),
                Location::new(seq as f32, 0.0),
                seq,
            );
            path.forward(Packet::new(report), &mut rng).expect("honest")
        })
        .collect();

    let ring = Arc::new(ShardedRingCollector::new(8, 1 << 14));
    let tracer = Tracer::new(ring.clone());

    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "traced",
                TenantConfig::new(
                    Arc::clone(ks),
                    ServiceConfig::new(sink_config().tracer(tracer.clone()))
                        .shards(2)
                        .keep_outcomes(true),
                ),
            )
            .tenant(
                "plain",
                TenantConfig::new(Arc::clone(ks), ServiceConfig::new(sink_config()).shards(2)),
            )
            .build()
            .unwrap(),
    );
    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_path("chain.sock");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    // Traced tenant through a hostile wire.
    let wire = ClientConfig::default()
        .connect_timeout(Duration::from_secs(2))
        .read_timeout(Duration::from_millis(400))
        .write_timeout(Duration::from_millis(400))
        .chaos(ChaosPlan::at_intensity(1.0), 0x7712)
        .backoff(
            BackoffPolicy::new(Duration::from_millis(1), Duration::from_millis(30)).jitter(0.25),
        )
        .max_attempts(400);
    let mut traced = GatewayClient::connect_uds_with(&sock, wire)
        .unwrap()
        .with_session(11)
        .with_tracer(tracer.clone());
    let mut traces = Vec::new();
    for p in &packets {
        let out = traced.send(b"traced", &p.to_bytes()).unwrap();
        assert!(out.is_counted(), "chaos wire still lands every packet");
        assert_ne!(out.trace(), 0, "a traced client reports its trace id");
        traces.push(out.trace());
    }
    let distinct: BTreeSet<u64> = traces.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        packets.len(),
        "one fresh trace per logical send, reused across its retries"
    );

    // Untraced reference stream over a calm wire.
    let mut plain = GatewayClient::connect_uds(&sock).unwrap().with_session(12);
    for p in &packets {
        let out = plain.send(b"plain", &p.to_bytes()).unwrap();
        assert!(out.is_counted());
        assert_eq!(out.trace(), 0, "no tracer, no trace");
    }

    let traced_verdict = traced.drain(b"traced").unwrap();
    let plain_verdict = plain.drain(b"plain").unwrap();
    assert_eq!(
        traced_verdict.evidence_bytes, plain_verdict.evidence_bytes,
        "tracing changes no evidence byte"
    );

    let events = ring.events();
    assert_eq!(ring.dropped(), 0, "ring sized to keep everything");
    for &t in &distinct {
        assert_single_chain(&events, t);
    }
    // Nothing leaks across traces: every traced event belongs to a send.
    for e in &events {
        if e.trace != 0 {
            assert!(distinct.contains(&e.trace), "unknown trace {:#x}", e.trace);
        }
    }
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property flavor: across wire seeds and fault intensities, acked ≡
    /// traced — the set of counted sends and the set of complete traces
    /// in the collector are the same set, and retries never mint a
    /// second trace id.
    #[test]
    fn acked_equals_traced_across_chaos_seeds(
        seed in 0u64..1 << 48,
        intensity in 0.0f64..=1.0,
        count in 8usize..24,
    ) {
        let stream = AttackStream::pnm(NODES, None, count, seed ^ 0xD1CE);
        let (ks, packets) = (&stream.keys, &stream.packets);
        let ring = Arc::new(ShardedRingCollector::new(4, 1 << 13));
        let tracer = Tracer::new(ring.clone());
        let registry = Arc::new(
            TenantRegistry::builder()
                .tenant(
                    "t",
                    TenantConfig::new(
                        Arc::clone(ks),
                        ServiceConfig::new(sink_config().tracer(tracer.clone())).shards(2),
                    ),
                )
                .build()
                .unwrap(),
        );
        let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
        let sock = temp_path("prop.sock");
        gw.listen_uds(&sock).unwrap();
        let handle = gw.spawn().unwrap();

        let wire = ClientConfig::default()
            .connect_timeout(Duration::from_secs(2))
            .read_timeout(Duration::from_millis(300))
            .write_timeout(Duration::from_millis(300))
            .chaos(ChaosPlan::at_intensity(intensity), seed)
            .backoff(
                BackoffPolicy::new(Duration::from_millis(1), Duration::from_millis(20))
                    .jitter(0.25),
            )
            .max_attempts(400);
        let mut client = GatewayClient::connect_uds_with(&sock, wire)
            .unwrap()
            .with_session(seed ^ 0x5e55)
            .with_tracer(tracer.clone());

        let mut counted = BTreeSet::new();
        for p in packets {
            let out = client.send(b"t", &p.to_bytes()).unwrap();
            prop_assert!(out.is_counted());
            prop_assert!(counted.insert(out.trace()), "trace ids never repeat");
        }
        registry.drain(b"t").unwrap();

        let events = ring.events();
        // Acked ≡ traced: each counted send has a complete chain, and no
        // traced event names a trace outside the counted set.
        for &t in &counted {
            assert_single_chain(&events, t);
        }
        for e in &events {
            if e.trace != 0 {
                prop_assert!(counted.contains(&e.trace));
            }
        }
        handle.shutdown();
    }
}
