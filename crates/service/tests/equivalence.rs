//! The service's one load-bearing correctness claim, property-tested:
//! sharded ingestion is observably equivalent to a single sequential
//! [`SinkEngine`] over the same packet stream — verdict for verdict,
//! chain for chain, and evidence byte for byte — for any shard count, any
//! table-cache capacity, any number of moles, any report mix, and a mole
//! running any of the seven attacks.
//!
//! The baseline is [`sequential_reference`]: per-packet processing runs
//! without the isolation stage (shard-local quarantine would be
//! partition-dependent), and the configured policy is applied once, at
//! end of stream, to the full route graph — the refresh + source-region
//! sweep [`ServicePool::drain`] performs on the merged engine.

use std::collections::BTreeSet;
use std::sync::Arc;

use pnm_core::{
    EventRegistry, IsolationPolicy, SinkConfig, SinkCounters, SinkEngine, TrafficClassifier,
    VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_service::{ServiceConfig, ServicePool};
use pnm_sim::{sequential_reference, AttackKind, AttackPath, AttackStream, SchemeKind};
use pnm_wire::{Location, NodeId, Packet, Report};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Nodes reserved per mole path; path `p` marks through nodes
/// `[p*BAND, p*BAND + path_len)`.
const BAND: u16 = 8;

/// Packets on the 8-hop chain past which a drained verdict has settled:
/// identity swapping left 16 of 100,000 seeds unsettled at 64, and
/// 100,000 seeds per attack found none at 128.
const SETTLED: usize = 128;

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
    let mut paths: Vec<AttackPath> = (0..n_paths)
        .map(|p| AttackPath::new(Arc::clone(&keys), SchemeKind::Pnm, p * BAND, path_len))
        .collect();
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
            paths[p as usize]
                .forward(Packet::new(report), &mut rng)
                .expect("an honest path drops nothing")
        })
        .collect();
    (keys, config, packets)
}

/// Drains `packets` through a pool of `shards` and checks it against the
/// sequential reference: the same per-packet outcomes (in admission
/// order), the same localization and source regions, and the same
/// evidence bytes. Returns the drained engine.
fn pool_equals_reference(
    keys: &Arc<KeyStore>,
    config: &SinkConfig,
    packets: &[Packet],
    shards: usize,
) -> Result<SinkEngine, TestCaseError> {
    let want = sequential_reference(keys, config, packets);
    let pool = ServicePool::new(
        Arc::clone(keys),
        ServiceConfig::new(config.clone())
            .shards(shards)
            .queue_capacity(8)
            .keep_outcomes(true),
    );
    for pkt in packets {
        pool.ingest(pkt.clone()).expect("block policy never sheds");
    }
    let report = pool.drain();

    // Verdict-for-verdict: admission order is ingestion order here
    // (single producer, no shedding), so seq tickets are 0..n.
    prop_assert_eq!(report.outcomes.len(), want.outcomes.len());
    for (i, ((ticket, got), want)) in report.outcomes.iter().zip(&want.outcomes).enumerate() {
        prop_assert_eq!(*ticket, i as u64);
        prop_assert_eq!(got, want);
    }

    // Same localization story.
    let (got, want) = (&report.engine, &want.engine);
    prop_assert_eq!(got.localize(), want.localize());
    prop_assert_eq!(got.source_regions(), want.source_regions());
    prop_assert_eq!(got.unequivocal_source(), want.unequivocal_source());

    // Evidence byte-identical, whatever each shard's cache did; the
    // registry carries the drained engine's counters.
    prop_assert_eq!(got.evidence().to_bytes(), want.evidence().to_bytes());
    prop_assert_eq!(report.snapshot.totals, got.counters());
    prop_assert_eq!(report.snapshot.processed as usize, packets.len());
    prop_assert_eq!(report.snapshot.shed, 0);
    Ok(report.engine)
}

/// More live reports than one engine's table cache holds, but no more per
/// shard than a shard's cache holds. Each shard keeps every report's
/// table; the sequential engine's cache thrashes, so it probes every
/// packet and completes a table only on a probe miss. The work counters
/// differ, exactly as pinned; the evidence must not, with isolation off
/// or applied at drain.
#[test]
fn report_cycling_pool_drains_the_sequential_evidence_bytes() {
    const HOPS: u16 = 20;
    const REPORTS: u64 = 16;
    const PACKETS: u64 = 2048;
    let keys = Arc::new(KeyStore::derive_from_master(b"svc-cycling", HOPS));
    let mut path = AttackPath::new(Arc::clone(&keys), SchemeKind::Pnm, 0, HOPS);
    let mut rng = StdRng::seed_from_u64(2048);
    // Event bytes that spread under the pool's partitioning hash.
    let packets: Vec<Packet> = (0..PACKETS)
        .map(|i| {
            let r = i % REPORTS;
            let event = format!("{:016x}", r.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let report = Report::new(event.into_bytes(), Location::new(0.0, 0.0), r);
            path.forward(Packet::new(report), &mut rng).expect("honest")
        })
        .collect();

    // The 16 reports cycle through a cache of 8, so every packet misses
    // it and is probed; a probe miss completes its report's table. One
    // shard is one engine. At 2 and 4 shards every shard's reports fit
    // its cache: each table is built once and every later packet hits it.
    let marked = packets.iter().filter(|p| !p.marks.is_empty()).count();
    assert_eq!(marked, 1964);
    let work = |c: SinkCounters| (c.table_builds, c.table_cache_hits, c.hash_count);

    for isolation in [None, Some(IsolationPolicy::SuspectsOnly)] {
        let mut sink = SinkConfig::new(VerifyMode::Nested);
        if let Some(policy) = isolation {
            sink = sink.isolation(policy);
        }
        // The reference's one engine carries its work into the drained one.
        let want = sequential_reference(&keys, &sink, &packets).engine;
        assert_eq!(work(want.counters()), (131, 0, 28_948), "one engine");
        let quarantined: Vec<NodeId> = want.quarantine().quarantined().collect();
        let expected = isolation.map_or(vec![], |_| vec![NodeId(0)]);
        assert_eq!(quarantined, expected, "{isolation:?}");

        for shards in [1, 2, 4] {
            let pool = ServicePool::new(
                Arc::clone(&keys),
                ServiceConfig::new(sink.clone()).shards(shards),
            );
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
            let pinned = if shards == 1 {
                (131, 0, 28_948)
            } else {
                (16, 1_948, 320)
            };
            assert_eq!(work(report.snapshot.totals), pinned, "{shards} shards");
            assert!(
                report.engine.evidence().to_bytes() == want.evidence().to_bytes(),
                "{shards} shards, {isolation:?}: drained evidence unlike one engine's"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any shard count, any table-cache capacity and any stream,
    /// `ServicePool` produces the same per-packet outcomes (in admission
    /// order), the same localization, the same source regions, and the
    /// same evidence bytes as one sequential engine. Each case runs an
    /// honest multi-mole stream and a stream from a forwarding mole
    /// running one of the seven attacks, long enough for the verdict to
    /// settle; on the attacked one the drain names only the moles'
    /// neighbourhoods.
    #[test]
    fn sharded_service_equals_sequential_engine(
        n_paths in 1u16..4,
        path_len in 2u16..9,
        n_reports in 1u64..5,
        n_packets in 1usize..48,
        shards in 1usize..=6,
        cache in 1usize..=8,
        seed in any::<u64>(),
        attack in 0usize..7,
    ) {
        let (keys, config, packets) =
            scenario(n_paths, path_len, n_reports, n_packets, cache, seed);
        pool_equals_reference(&keys, &config, &packets, shards)?;

        let kind = AttackKind::all()[attack];
        let attacked = AttackStream::pnm(8, Some(kind), SETTLED, seed);
        let config = SinkConfig::new(VerifyMode::Nested)
            .table_cache_capacity(cache)
            .isolation(IsolationPolicy::SuspectsOnly);
        let verdict =
            pool_equals_reference(&attacked.keys, &config, &attacked.packets, shards)?.localize();
        prop_assert!(attacked.names_only_suspects(&verdict), "{:?} named {:?}", kind, verdict);
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
        let mut path = AttackPath::new(Arc::clone(&keys), SchemeKind::Pnm, 0, path_len);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut stream: Vec<(bool, Packet)> =
            packets.into_iter().map(|p| (false, p)).collect();
        for i in 0..n_poison {
            let report = Report::new(
                format!("poison-{i}").into_bytes(),
                Location::new(0.0, 0.0),
                i as u64,
            );
            let pkt = path.forward(Packet::new(report), &mut rng).expect("honest");
            let pos = (seed as usize).wrapping_add(i * 7919) % (stream.len() + 1);
            stream.insert(pos, (true, pkt));
        }

        // Sequential baseline over the survivors only.
        let survivors: Vec<Packet> =
            stream.iter().filter(|(poison, _)| !poison).map(|(_, p)| p.clone()).collect();
        let want = sequential_reference(&keys, &config, &survivors);

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
        prop_assert_eq!(report.outcomes.len(), want.outcomes.len());
        for (((ticket, got), want), expect_seq) in report
            .outcomes
            .iter()
            .zip(want.outcomes.iter())
            .zip(survivor_seqs.iter())
        {
            prop_assert_eq!(ticket, expect_seq);
            prop_assert_eq!(got, want);
        }

        // Same localization story and the same evidence bytes as the
        // survivor-only sequential engine; the registry's verdict counters
        // survive the restarts.
        let want = &want.engine;
        prop_assert_eq!(report.engine.localize(), want.localize());
        prop_assert_eq!(report.engine.source_regions(), want.source_regions());
        prop_assert_eq!(
            report.engine.evidence().to_bytes(),
            want.evidence().to_bytes()
        );
        prop_assert_eq!(report.snapshot.totals.verdict(), want.counters().verdict());
    }
}
