//! Trace propagation across the shard hand-off, property-tested: a
//! [`TraceContext`] passed into [`ServicePool::ingest_ctx`] rides the
//! shard queue with its packet, and the worker thread's engine opens its
//! `sink.ingest` and stage spans **inside** that context — parentage
//! survives the thread boundary for any shard count and interleaving.
//!
//! Each ingested packet gets its own root context, so the collector must
//! end up with exactly one `sink.ingest` span per context, parented to
//! the caller's span id, with every stage span under it — and no event
//! may name a trace the test did not mint. Tracing changes no verdict:
//! the drained evidence equals the untraced sequential reference's, on
//! honest streams and on each of the seven attacks.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pnm_core::{IsolationPolicy, SinkConfig, SinkEngine, VerifyMode};
use pnm_obs::{Event, EventKind, ShardedRingCollector, TraceContext, Tracer};
use pnm_service::{ServiceConfig, ServicePool};
use pnm_sim::{sequential_reference, AttackKind, AttackStream};
use proptest::prelude::*;

/// Packets on the 6-hop chain past which a drained verdict has settled:
/// a probe of 2,000 seeds per attack still found unsettled ones at 32,
/// and 100,000 seeds per attack found none at 65.
const SETTLED: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Each case drains a short stream, which often leaves shards idle,
    /// and a stream long enough for the verdict to settle, which must
    /// name only the moles' neighbourhoods.
    #[test]
    fn context_survives_shard_hand_off(
        shards in 1usize..6,
        count in 4usize..40,
        seed in 0u64..1 << 40,
        attack in 0usize..8,
    ) {
        // 0 is honest forwarding.
        let attack = attack.checked_sub(1).map(|k| AttackKind::all()[k]);
        traced_drain(shards, &AttackStream::pnm(6, attack, count + 1, seed))?;
        let settled = AttackStream::pnm(6, attack, SETTLED + 1, seed);
        let verdict = traced_drain(shards, &settled)?.localize();
        prop_assert!(settled.names_only_suspects(&verdict), "{:?} named {:?}", attack, verdict);
    }
}

/// Ingests all but the last packet of `stream` under fresh root contexts
/// and the last one untraced, drains, and checks the collector: one
/// `sink.ingest` span per context, parented to the caller's span, every
/// stage span under it, no trace the test did not mint. The drained
/// evidence must equal the untraced sequential reference's.
fn traced_drain(shards: usize, stream: &AttackStream) -> Result<SinkEngine, TestCaseError> {
    let (extra, pkts) = stream
        .packets
        .split_last()
        .expect("a packet reaches the sink");
    let ring = Arc::new(ShardedRingCollector::new(4, 1 << 13));
    let tracer = Tracer::new(ring.clone());
    let config = SinkConfig::new(VerifyMode::Nested).isolation(IsolationPolicy::SuspectsOnly);
    let pool = ServicePool::new(
        Arc::clone(&stream.keys),
        ServiceConfig::new(config.clone().tracer(tracer.clone())).shards(shards),
    );

    // One root span per packet, closed before drain so every chain is
    // complete in the collector. The span id is the context the shard
    // worker must parent under.
    let mut minted: BTreeMap<u64, u64> = BTreeMap::new(); // trace -> parent span
    for pkt in pkts {
        let span = tracer.span_root("caller.ingest");
        let ctx = span.context().unwrap();
        prop_assert!(minted.insert(ctx.trace, ctx.parent).is_none());
        pool.ingest_ctx(pkt.clone(), 0, ctx).unwrap();
    }
    // An untraced packet mixed in must stay untraced (legacy path).
    pool.ingest_ctx(extra.clone(), 0, TraceContext::NONE)
        .unwrap();
    let drained = pool.drain().engine;
    let want = sequential_reference(&stream.keys, &config, &stream.packets).engine;
    prop_assert_eq!(drained.evidence().to_bytes(), want.evidence().to_bytes());

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
        let sink: Vec<&&Event> = opens.iter().filter(|e| e.name == "sink.ingest").collect();
        prop_assert!(
            sink.len() == 1,
            "one sink.ingest per context, got {}",
            sink.len()
        );
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
    Ok(drained)
}
