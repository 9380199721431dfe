//! Sink-side verification cost — the §4.2 feasibility claims:
//! "building such a table for even a reasonably large network (a few
//! thousand nodes) should take on the order of a few milliseconds. Thus
//! the sink can verify several hundred or more packets per second."
//!
//! Series: anonymous-ID table build vs network size; per-packet nested
//! verification; topology-aware vs exhaustive resolution (§7 ablation).

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use pnm_core::{
    AnonTable, MarkingConfig, MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig,
    SinkEngine, SinkVerifier, TopologyResolver, VerifyMode,
};
use pnm_crypto::{anon_id, KeyStore};
use pnm_net::Topology;
use pnm_wire::{Location, NodeId, Packet, Report};

fn report_packet() -> Packet {
    Packet::new(Report::new(
        b"sink-bench".to_vec(),
        Location::new(0.0, 0.0),
        1,
    ))
}

/// Anonymous-ID table build for 1000–4000-node networks ("a few ms").
fn anon_table_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("anon_table_build");
    g.sample_size(20);
    for n in [1000u16, 2000, 4000] {
        let schedule = KeyStore::derive_from_master(b"sink-bench", n).schedule();
        let rb = report_packet().report.to_bytes();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &schedule, |b, schedule| {
            b.iter(|| AnonTable::build(black_box(schedule), black_box(&rb)))
        });
    }
    g.finish();
}

/// Full per-packet verification (marking side pre-built): an n-hop PNM
/// packet with ~3 marks against a 1000-node key table — this is the
/// "several hundred packets per second" number.
fn packet_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_verification");
    g.sample_size(30);
    let network_size = 1000u16;
    let keys = KeyStore::derive_from_master(b"sink-bench", network_size);
    for path_len in [10u16, 20, 30] {
        let cfg = MarkingConfig::builder()
            .target_marks_per_packet(3.0, path_len as usize)
            .build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(path_len as u64);
        // Build a representative marked packet (retry until ≥2 marks).
        let pkt = loop {
            let mut pkt = report_packet();
            for hop in 0..path_len {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            if pkt.mark_count() >= 2 {
                break pkt;
            }
        };
        let verifier = SinkVerifier::new(keys.clone());
        g.throughput(Throughput::Elements(1));
        g.bench_function(BenchmarkId::from_parameter(path_len), |b| {
            b.iter(|| verifier.verify(black_box(&pkt), VerifyMode::Nested))
        });
    }
    g.finish();
}

/// The same verification with a pre-shared anon table (the sink reuses the
/// table across marks of one packet — and across retransmissions).
fn packet_verification_shared_table(c: &mut Criterion) {
    let keys = KeyStore::derive_from_master(b"sink-bench", 1000);
    let cfg = MarkingConfig::builder().marking_probability(0.15).build();
    let scheme = ProbabilisticNestedMarking::new(cfg);
    let mut rng = StdRng::seed_from_u64(20);
    let pkt = loop {
        let mut pkt = report_packet();
        for hop in 0..20u16 {
            let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
            scheme.mark(&ctx, &mut pkt, &mut rng);
        }
        if pkt.mark_count() >= 2 {
            break pkt;
        }
    };
    let table = AnonTable::build(&keys.schedule(), &pkt.report.to_bytes());
    let verifier = SinkVerifier::new(keys);
    c.bench_function("packet_verification_shared_table", |b| {
        b.iter(|| verifier.verify_nested_with_table_batched(black_box(&pkt), black_box(&table)))
    });
}

/// §7 ablation: anonymous-ID resolution by exhaustive scan vs
/// topology-aware ring search on a 1000-node grid.
fn resolution_topology_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("anon_resolution");
    g.sample_size(30);
    let topo = Topology::grid(32, 32, 10.0); // 1024 nodes
    let n = topo.len() as u16;
    let keys = KeyStore::derive_from_master(b"sink-bench", n);
    let rb = report_packet().report.to_bytes();
    // Resolve node 500's anon id, anchored at its routing successor.
    let target = 500u16;
    let aid = anon_id(keys.key(target).unwrap(), &rb, target);
    let anchor = NodeId(target - 1);

    let schedule = keys.schedule();
    g.bench_function("exhaustive_table", |b| {
        b.iter(|| {
            let table = AnonTable::build(black_box(&schedule), black_box(&rb));
            black_box(table.resolve(&aid).to_vec())
        })
    });

    let resolver = TopologyResolver::new(keys, topo.adjacency());
    g.bench_function("topology_ring_search", |b| {
        b.iter(|| resolver.resolve(black_box(&rb), black_box(&aid), Some(anchor)))
    });
    g.finish();
}

/// Staged-engine batch ingestion: 64 PNM packets spread over 4 reports
/// against a 1000-node key table. The engine's report-keyed table cache
/// amortizes anon-ID resolution across same-report packets, so batch
/// throughput is dominated by 4 table builds instead of 64.
fn engine_batch_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_batch_ingest");
    g.sample_size(20);
    let keys = Arc::new(KeyStore::derive_from_master(b"sink-bench", 1000));
    let cfg = MarkingConfig::builder().marking_probability(0.15).build();
    let scheme = ProbabilisticNestedMarking::new(cfg);
    let mut rng = StdRng::seed_from_u64(64);
    let packets: Vec<Packet> = (0..64u64)
        .map(|seq| {
            let report = Report::new(
                format!("bench-report-{}", seq % 4).into_bytes(),
                Location::new(0.0, 0.0),
                seq,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..20u16 {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect();
    g.throughput(Throughput::Elements(packets.len() as u64));
    g.bench_function("cached_tables", |b| {
        b.iter(|| {
            let mut sink = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(VerifyMode::Nested));
            black_box(sink.ingest_batch(black_box(&packets)))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    anon_table_build,
    packet_verification,
    packet_verification_shared_table,
    resolution_topology_ablation,
    engine_batch_ingest
);
criterion_main!(benches);
