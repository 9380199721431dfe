//! Trace propagation across the shard hand-off, property-tested: a
//! [`TraceContext`] passed into [`ServicePool::ingest_ctx`] rides the
//! shard queue with its packet, and the worker thread's engine opens its
//! `sink.ingest` and stage spans **inside** that context — parentage
//! survives the thread boundary for any shard count and interleaving.
//!
//! Each ingested packet gets its own root context, so the collector must
//! end up with exactly one `sink.ingest` span per context, parented to
//! the caller's span id, with every stage span under it — and no event
//! may name a trace the test did not mint.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, VerifyMode};
use pnm_crypto::KeyStore;
use pnm_obs::{Event, EventKind, ShardedRingCollector, TraceContext, Tracer};
use pnm_service::{ServiceConfig, ServicePool};
use pnm_wire::{Location, NodeId, Packet, Report};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: u16 = 6;

fn packets(count: usize, seed: u64) -> (Arc<KeyStore>, Vec<Packet>) {
    let keys = Arc::new(KeyStore::derive_from_master(b"trace-prop", NODES));
    let scheme = ProbabilisticNestedMarking::paper_default(NODES as usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let pkts = (0..count)
        .map(|i| {
            let report = Report::new(
                format!("tp-{i}").into_bytes(),
                Location::new(i as f32, 0.0),
                i as u64,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..NODES {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect();
    (keys, pkts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn context_survives_shard_hand_off(
        shards in 1usize..6,
        count in 4usize..40,
        seed in 0u64..1 << 40,
    ) {
        let (keys, pkts) = packets(count, seed);
        let ring = Arc::new(ShardedRingCollector::new(4, 1 << 13));
        let tracer = Tracer::new(ring.clone());
        let pool = ServicePool::new(
            keys,
            ServiceConfig::new(SinkConfig::new(VerifyMode::Nested).tracer(tracer.clone()))
                .shards(shards),
        );

        // One root span per packet, closed before drain so every chain is
        // complete in the collector. The span id is the context the shard
        // worker must parent under.
        let mut minted: BTreeMap<u64, u64> = BTreeMap::new(); // trace -> parent span
        for pkt in pkts {
            let span = tracer.span_root("caller.ingest");
            let ctx = span.context().unwrap();
            prop_assert!(minted.insert(ctx.trace, ctx.parent).is_none());
            pool.ingest_ctx(pkt, 0, ctx).unwrap();
        }
        // An untraced packet mixed in must stay untraced (legacy path).
        let (_, extra) = packets(1, seed ^ 0xFF);
        pool.ingest_ctx(extra.into_iter().next().unwrap(), 0, TraceContext::NONE)
            .unwrap();
        pool.drain();

        let events = ring.events();
        prop_assert_eq!(ring.dropped(), 0);
        let known: BTreeSet<u64> = minted.keys().copied().collect();
        for e in &events {
            if e.trace != 0 {
                prop_assert!(known.contains(&e.trace), "unknown trace {:#x}", e.trace);
            }
        }
        for (&trace, &parent) in &minted {
            let opens: Vec<&Event> = events
                .iter()
                .filter(|e| e.trace == trace && e.kind == EventKind::SpanOpen)
                .collect();
            let sink: Vec<&&Event> =
                opens.iter().filter(|e| e.name == "sink.ingest").collect();
            prop_assert!(sink.len() == 1, "one sink.ingest per context, got {}", sink.len());
            prop_assert!(
                sink[0].parent == parent,
                "sink.ingest parented to the caller's span across the queue"
            );
            for e in &opens {
                if e.name != "sink.ingest" && e.name != "caller.ingest" {
                    prop_assert!(
                        e.parent == sink[0].span,
                        "stage span {} not under its packet's sink.ingest",
                        e.name
                    );
                }
            }
        }
    }
}
