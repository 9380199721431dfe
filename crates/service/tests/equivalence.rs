//! The service's one load-bearing correctness claim, property-tested:
//! sharded ingestion is observably equivalent to a single sequential
//! [`SinkEngine`] over the same packet stream — verdict for verdict,
//! chain for chain, and evidence byte for byte — for any shard count, any
//! table-cache capacity, any number of moles, and any report mix.
//!
//! The sequential baseline mirrors the service's drain semantics exactly:
//! per-packet processing runs without the isolation stage (shard-local
//! quarantine would be partition-dependent), and the configured policy is
//! applied once, at end of stream, to the full route graph — the same
//! refresh + source-region sweep [`ServicePool::drain`] performs on the
//! merged engine.

use std::collections::BTreeSet;
use std::sync::Arc;

use pnm_core::{
    EventRegistry, IsolationPolicy, MarkingScheme, NodeContext, ProbabilisticNestedMarking,
    SinkConfig, SinkEngine, SinkOutcome, TrafficClassifier, VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_service::{ServiceConfig, ServicePool};
use pnm_wire::{Location, NodeId, Packet, Report};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Nodes reserved per mole path; path `p` marks through nodes
/// `[p*BAND, p*BAND + path_len)`.
const BAND: u16 = 8;

/// Builds a multi-mole stream: `n_paths` disjoint mole routes, each
/// cycling `n_reports` distinct reports, `n_packets` packets total, for
/// engines holding `cache` anonymous-ID tables. Even-numbered reports are
/// corroborated by the registry (benign at the classifier); odd ones are
/// not.
fn scenario(
    n_paths: u16,
    path_len: u16,
    n_reports: u64,
    n_packets: usize,
    cache: usize,
    seed: u64,
) -> (Arc<KeyStore>, SinkConfig, Vec<Packet>) {
    let keys = Arc::new(KeyStore::derive_from_master(b"svc-equiv", n_paths * BAND));
    let scheme = ProbabilisticNestedMarking::paper_default(path_len as usize);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut registry = EventRegistry::new(1.0);
    for p in 0..n_paths {
        for r in (0..n_reports).step_by(2) {
            registry.register(r as f32 * 10.0, p as f32 * 10.0, 0, u64::MAX);
        }
    }
    let config = SinkConfig::new(VerifyMode::Nested)
        .table_cache_capacity(cache)
        .classifier(TrafficClassifier::permissive().with_registry(registry))
        .isolation(IsolationPolicy::SuspectsOnly);

    let packets = (0..n_packets)
        .map(|i| {
            let p = (i as u16) % n_paths;
            let r = (i as u64 / n_paths as u64) % n_reports;
            let report = Report::new(
                format!("eq-{p}-{r}").into_bytes(),
                Location::new(r as f32 * 10.0, p as f32 * 10.0),
                r,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..path_len {
                let node = p * BAND + hop;
                let ctx = NodeContext::new(NodeId(node), *keys.key(node).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect();
    (keys, config, packets)
}

/// The end-of-stream quarantine sweep the service runs at drain, applied
/// to a sequential engine's evidence.
fn drain_sweep(keys: &Arc<KeyStore>, config: &SinkConfig, evidence: &SinkEngine) -> SinkEngine {
    let mut merged = SinkEngine::new(Arc::clone(keys), config.clone());
    merged.absorb(evidence);
    merged.refresh_quarantine();
    merged.quarantine_source_regions();
    merged
}

/// More live reports than one engine's table cache holds, but no more per
/// shard than a shard's cache holds: the sequential engine rebuilds a
/// table for every marked packet while each shard builds one per report. The
/// table-cache work counters differ by two orders of magnitude; the
/// evidence must not.
#[test]
fn report_cycling_pool_drains_the_sequential_evidence_bytes() {
    const HOPS: u16 = 20;
    const REPORTS: u64 = 16;
    const PACKETS: u64 = 2048;
    let keys = Arc::new(KeyStore::derive_from_master(b"svc-cycling", HOPS));
    let scheme = ProbabilisticNestedMarking::paper_default(HOPS as usize);
    let mut rng = StdRng::seed_from_u64(2048);
    // Event bytes that spread under the pool's partitioning hash.
    let packets: Vec<Packet> = (0..PACKETS)
        .map(|i| {
            let r = i % REPORTS;
            let event = format!("{:016x}", r.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut pkt = Packet::new(Report::new(event.into_bytes(), Location::new(0.0, 0.0), r));
            for hop in 0..HOPS {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect();
    let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested));

    let mut seq = SinkEngine::new(Arc::clone(&keys), config.sink().clone().without_isolation());
    for p in &packets {
        seq.ingest(p);
    }
    // Every packet carrying a mark rebuilds its report's table.
    let marked = packets.iter().filter(|p| !p.marks.is_empty()).count();
    assert_eq!(marked, 1964);
    assert_eq!(seq.counters().table_builds, marked, "one engine thrashes");
    let want = drain_sweep(&keys, config.sink(), &seq)
        .evidence()
        .to_bytes();

    for shards in [2, 4] {
        let pool = ServicePool::new(Arc::clone(&keys), config.clone().shards(shards));
        for p in &packets {
            pool.ingest(p.clone()).expect("block policy never sheds");
        }
        let report = pool.drain();
        for s in &report.snapshot.shards {
            assert!(
                s.processed > 0,
                "shard {} of {shards} got no packet",
                s.shard
            );
        }
        assert_eq!(
            report.snapshot.totals.table_builds, REPORTS as usize,
            "every shard's reports fit its cache"
        );
        assert!(
            report.engine.evidence().to_bytes() == want,
            "{shards} shards drained evidence unlike one engine's"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any shard count, any table-cache capacity and any stream,
    /// `ServicePool` produces the same per-packet outcomes (in admission
    /// order), the same localization, the same source regions, and the
    /// same evidence bytes as one sequential engine.
    #[test]
    fn sharded_service_equals_sequential_engine(
        n_paths in 1u16..4,
        path_len in 2u16..9,
        n_reports in 1u64..5,
        n_packets in 1usize..48,
        shards in 1usize..=6,
        cache in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (keys, config, packets) =
            scenario(n_paths, path_len, n_reports, n_packets, cache, seed);

        // Sequential baseline: isolation stripped per packet, policy
        // applied once at end of stream (the drain semantics).
        let mut seq = SinkEngine::new(
            Arc::clone(&keys),
            config.clone().without_isolation(),
        );
        let seq_out: Vec<SinkOutcome> = packets.iter().map(|p| seq.ingest(p)).collect();
        let seq_final = drain_sweep(&keys, &config, &seq);

        // Sharded service over the identical stream.
        let pool = ServicePool::new(
            Arc::clone(&keys),
            ServiceConfig::new(config.clone())
                .shards(shards)
                .queue_capacity(8)
                .keep_outcomes(true),
        );
        for pkt in &packets {
            pool.ingest(pkt.clone()).expect("block policy never sheds");
        }
        let report = pool.drain();

        // Verdict-for-verdict: admission order is ingestion order here
        // (single producer, no shedding), so seq tickets are 0..n.
        prop_assert_eq!(report.outcomes.len(), seq_out.len());
        for (i, ((ticket, got), want)) in
            report.outcomes.iter().zip(seq_out.iter()).enumerate()
        {
            prop_assert_eq!(*ticket, i as u64);
            prop_assert_eq!(got, want);
        }

        // Same localization story.
        prop_assert_eq!(report.engine.localize(), seq_final.localize());
        prop_assert_eq!(report.engine.source_regions(), seq_final.source_regions());
        prop_assert_eq!(
            report.engine.unequivocal_source(),
            seq_final.unequivocal_source()
        );

        // Evidence byte-identical, whatever each shard's cache did; the
        // registry carries the drained engine's counters.
        prop_assert_eq!(
            report.engine.evidence().to_bytes(),
            seq_final.evidence().to_bytes()
        );
        prop_assert_eq!(report.snapshot.totals, report.engine.counters());
        prop_assert_eq!(report.snapshot.processed as usize, packets.len());
        prop_assert_eq!(report.snapshot.shed, 0);
    }

    /// A shard killed by an injected panicking packet restarts, the
    /// poison packets are quarantined, and the drained merge still equals
    /// a sequential engine fed only the surviving (non-poison) packets —
    /// graceful degradation loses exactly the poison, nothing else.
    #[test]
    fn poisoned_service_equals_sequential_engine_on_survivors(
        n_paths in 1u16..3,
        path_len in 2u16..8,
        n_reports in 1u64..4,
        n_packets in 1usize..32,
        shards in 1usize..5,
        n_poison in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (keys, config, packets) = scenario(n_paths, path_len, n_reports, n_packets, 3, seed);

        // Poison packets are ordinary, fully marked packets whose event
        // bytes trip the injected hook before the engine sees them.
        let scheme = ProbabilisticNestedMarking::paper_default(path_len as usize);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut stream: Vec<(bool, Packet)> =
            packets.into_iter().map(|p| (false, p)).collect();
        for i in 0..n_poison {
            let report = Report::new(
                format!("poison-{i}").into_bytes(),
                Location::new(0.0, 0.0),
                i as u64,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..path_len {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            let pos = (seed as usize).wrapping_add(i * 7919) % (stream.len() + 1);
            stream.insert(pos, (true, pkt));
        }

        // Sequential baseline over the survivors only.
        let mut seq = SinkEngine::new(
            Arc::clone(&keys),
            config.clone().without_isolation(),
        );
        let mut seq_out = Vec::new();
        for (is_poison, pkt) in &stream {
            if !*is_poison {
                seq_out.push(seq.ingest(pkt));
            }
        }
        let seq_final = drain_sweep(&keys, &config, &seq);

        let pool = ServicePool::new(
            Arc::clone(&keys),
            ServiceConfig::new(config.clone())
                .shards(shards)
                .queue_capacity(8)
                .keep_outcomes(true)
                .poison_hook(|pkt: &Packet| pkt.report.event.starts_with(b"poison")),
        );
        let mut poison_seqs = BTreeSet::new();
        let mut survivor_seqs = Vec::new();
        for (is_poison, pkt) in &stream {
            let ticket = pool.ingest(pkt.clone()).expect("block policy never sheds");
            if *is_poison {
                poison_seqs.insert(ticket);
            } else {
                survivor_seqs.push(ticket);
            }
        }
        let report = pool.drain();

        // Every poison packet was caught, quarantined, and nothing else.
        prop_assert!(report.wedged.is_empty());
        prop_assert_eq!(report.poisoned.len(), n_poison);
        prop_assert_eq!(report.snapshot.panics as usize, n_poison);
        let caught: BTreeSet<u64> = report.poisoned.iter().map(|p| p.seq).collect();
        prop_assert_eq!(&caught, &poison_seqs);

        // Survivor outcomes: verdict-for-verdict, in admission order.
        prop_assert_eq!(report.outcomes.len(), seq_out.len());
        for (((ticket, got), want), expect_seq) in report
            .outcomes
            .iter()
            .zip(seq_out.iter())
            .zip(survivor_seqs.iter())
        {
            prop_assert_eq!(ticket, expect_seq);
            prop_assert_eq!(got, want);
        }

        // Same localization story and the same evidence bytes as the
        // survivor-only sequential engine; the registry's verdict counters
        // survive the restarts.
        prop_assert_eq!(report.engine.localize(), seq_final.localize());
        prop_assert_eq!(report.engine.source_regions(), seq_final.source_regions());
        prop_assert_eq!(
            report.engine.evidence().to_bytes(),
            seq_final.evidence().to_bytes()
        );
        prop_assert_eq!(report.snapshot.totals.verdict(), seq.counters().verdict());
    }
}
