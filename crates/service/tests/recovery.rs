//! Crash/restore across the service layer: kill a pool mid-stream,
//! recover from the append-only log, and require the recovered pool's
//! evidence to be byte-identical to an uninterrupted run.
//!
//! The "kill" here is drain-then-damage: dropping a pool flushes final
//! deltas (that is graceful shutdown, not a crash), so these tests
//! simulate a SIGKILL by appending torn/garbage bytes to the log tail —
//! exactly the state a process killed mid-append leaves behind.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnm_core::store::{
    Evidence, EvidenceStore, LogStore, MemStore, RecordKind, StoreError, StoreReplay,
};
use pnm_core::{
    IsolationPolicy, MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig,
    SinkEngine, VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_service::{ServiceConfig, ServicePool};
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_log(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-recovery-{}-{}-{}.log",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn keys(n: u16) -> Arc<KeyStore> {
    Arc::new(KeyStore::derive_from_master(b"recovery-test", n))
}

fn marked_packet(ks: &KeyStore, n: u16, seq: u64, rng: &mut StdRng) -> Packet {
    let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
    let report = Report::new(
        format!("rec-{seq}").into_bytes(),
        Location::new(seq as f32, 0.0),
        seq,
    );
    let mut pkt = Packet::new(report);
    for hop in 0..n {
        let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
        scheme.mark(&ctx, &mut pkt, rng);
    }
    pkt
}

fn sink_config() -> SinkConfig {
    SinkConfig::new(VerifyMode::Nested).isolation(IsolationPolicy::SuspectsOnly)
}

fn workload(ks: &KeyStore, n: u16, count: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(4057);
    (0..count)
        .map(|s| marked_packet(ks, n, s, &mut rng))
        .collect()
}

/// An engine holding `evidence` with the drain-time quarantine sweep
/// applied: what a pool's drain answers for that evidence.
fn swept(ks: &Arc<KeyStore>, evidence: &Evidence) -> SinkEngine {
    let mut engine = SinkEngine::new(Arc::clone(ks), sink_config());
    engine.install_evidence(evidence);
    engine.refresh_quarantine();
    engine.quarantine_source_regions();
    engine
}

/// The uninterrupted sequential reference: one engine over the whole
/// stream with isolation stripped per packet, swept once at the end as a
/// drain sweeps. A drained pool's evidence equals its evidence byte for
/// byte, whatever the shard count and whether or not the pool recovered.
fn reference_engine(ks: &Arc<KeyStore>, packets: &[Packet]) -> SinkEngine {
    let mut engine = SinkEngine::new(Arc::clone(ks), sink_config().without_isolation());
    for p in packets {
        engine.ingest(p);
    }
    swept(ks, &engine.evidence())
}

/// A recovered pool's telemetry starts from the evidence it restored:
/// before any new packet its snapshot totals and its scraped per-shard
/// `pnm_sink_packets_total` series add up to the restored count, and
/// after drain the snapshot's totals are the merged engine's counters.
#[test]
fn recovered_pool_telemetry_counts_the_restored_evidence() {
    let ks = keys(8);
    let packets = workload(&ks, 8, 30);
    let path = temp_log("telemetry");
    let config = ServiceConfig::new(sink_config()).shards(2);
    let store = Arc::new(LogStore::open(&path).unwrap());
    let pool = ServicePool::new(Arc::clone(&ks), config.clone().store(store));
    for p in &packets[..20] {
        pool.ingest(p.clone()).unwrap();
    }
    pool.drain();

    let (pool, stats) = ServicePool::recover_from_log(Arc::clone(&ks), config, &path).unwrap();
    assert_eq!(stats.packets_restored, 20);
    let live = pool.snapshot();
    assert_eq!((live.processed, live.totals.packets), (0, 20));
    let text = pool.metrics_text();
    let scraped: u64 = (text.lines())
        .filter_map(|l| l.strip_prefix("pnm_sink_packets_total{shard="))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(scraped, 20, "scrape:\n{text}");
    for p in &packets[20..] {
        pool.ingest(p.clone()).unwrap();
    }
    let report = pool.drain();
    assert_eq!(report.snapshot.totals, report.engine.counters());
    assert_eq!(
        (report.snapshot.processed, report.snapshot.totals.packets),
        (10, 30)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pool_recovers_from_log_and_matches_uninterrupted_run() {
    let n = 10u16;
    let ks = keys(n);
    let packets = workload(&ks, n, 120);
    let path = temp_log("roundtrip");

    // Phase 1: a pool with a durable log ingests the first half, then
    // "crashes": we drain it (flushing deltas, as every checkpoint
    // already did) and then damage the tail the way a torn write would.
    let store = Arc::new(LogStore::open(&path).unwrap());
    let config = ServiceConfig::new(sink_config())
        .shards(3)
        .store(Arc::clone(&store) as Arc<dyn EvidenceStore>);
    let pool = ServicePool::new(Arc::clone(&ks), config);
    for p in &packets[..60] {
        pool.ingest(p.clone()).unwrap();
    }
    let first = pool.drain();
    assert_eq!(first.snapshot.processed, 60);
    assert_eq!(first.snapshot.store_errors, 0);
    drop(store);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&[0xAB; 13]).unwrap(); // torn frame from the "kill"
    drop(f);

    // Phase 2: recover and continue with the second half.
    let config = ServiceConfig::new(sink_config()).shards(3);
    let (pool, stats) = ServicePool::recover_from_log(Arc::clone(&ks), config, &path).unwrap();
    assert_eq!(stats.rejected_frames, 1);
    assert!(stats.records > 0);
    assert_eq!(stats.packets_restored, 60);
    for p in &packets[60..] {
        pool.ingest(p.clone()).unwrap();
    }
    let report = pool.drain();

    // The localization and the full evidence equal the uninterrupted
    // sequential run's.
    let reference = reference_engine(&ks, &packets);
    assert_eq!(report.engine.localize(), reference.localize());
    let recovered_evidence = report.engine.evidence();
    assert_eq!(
        recovered_evidence.to_bytes(),
        reference.evidence().to_bytes(),
        "recovered evidence must be byte-identical to the uninterrupted run"
    );

    // A second recovery from the drained log alone (no further packets)
    // also reproduces the full evidence: the final flush covered it.
    let config = ServiceConfig::new(sink_config()).shards(3);
    let (pool, stats) = ServicePool::recover_from_log(Arc::clone(&ks), config, &path).unwrap();
    assert_eq!(stats.packets_restored, 120);
    let report = pool.drain();
    assert_eq!(
        report.engine.evidence().to_bytes(),
        recovered_evidence.to_bytes()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn recovery_remaps_shards_when_count_changes() {
    // A log written by a 4-shard pool recovers into a 2-shard pool: the
    // evidence is a commutative monoid, so the remap (log shard % 2)
    // loses nothing.
    let n = 8u16;
    let ks = keys(n);
    let packets = workload(&ks, n, 80);
    let path = temp_log("remap");

    let store = Arc::new(LogStore::open(&path).unwrap());
    let config = ServiceConfig::new(sink_config())
        .shards(4)
        .store(store as Arc<dyn EvidenceStore>);
    let pool = ServicePool::new(Arc::clone(&ks), config);
    for p in &packets {
        pool.ingest(p.clone()).unwrap();
    }
    let original = pool.drain().engine.evidence().to_bytes();

    let config = ServiceConfig::new(sink_config()).shards(2);
    let (pool, stats) = ServicePool::recover_from_log(Arc::clone(&ks), config, &path).unwrap();
    assert_eq!(stats.packets_restored, 80);
    assert_eq!(stats.source_shards, 4);
    let report = pool.drain();
    // The remapped merge is the same monoid sum: byte-identical to what
    // the 4-shard pool drained.
    assert_eq!(report.engine.evidence().to_bytes(), original);
    std::fs::remove_file(&path).ok();
}

/// A marked packet the tests' poison hooks crash on.
fn poison_packet(ks: &KeyStore, n: u16) -> Packet {
    let mut rng = StdRng::seed_from_u64(99);
    let report = Report::new(b"poison-x".to_vec(), Location::new(0.0, 0.0), 7);
    let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
    let mut pkt = Packet::new(report);
    for hop in 0..n {
        let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
        scheme.mark(&ctx, &mut pkt, &mut rng);
    }
    pkt
}

fn is_poison(pkt: &Packet) -> bool {
    pkt.report.event.starts_with(b"poison")
}

/// A [`MemStore`] whose `fail_on`-th append (1-based) fails, once.
#[derive(Debug)]
struct FailNthAppend {
    inner: MemStore,
    appends: AtomicUsize,
    fail_on: usize,
}

impl EvidenceStore for FailNthAppend {
    fn append(&self, shard: u32, kind: RecordKind, ev: &Evidence) -> Result<(), StoreError> {
        if self.appends.fetch_add(1, Ordering::SeqCst) + 1 == self.fail_on {
            return Err(std::io::Error::other("injected append failure").into());
        }
        self.inner.append(shard, kind, ev)
    }

    fn replay(&self) -> Result<StoreReplay, StoreError> {
        self.inner.replay()
    }

    fn compact(&self) -> Result<(), StoreError> {
        self.inner.compact()
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.inner.sync()
    }
}

#[test]
fn failed_append_survives_poison_restart() {
    // Regression: the append for packet 20 fails, then packet 21 poisons
    // the shard. The restarted shard must still write the failed delta,
    // so the log holds every surviving packet — not one fewer than the
    // drained pool.
    let n = 8u16;
    let ks = keys(n);
    let packets = workload(&ks, n, 40);
    let store = Arc::new(FailNthAppend {
        inner: MemStore::new(),
        appends: AtomicUsize::new(0),
        fail_on: 20,
    });
    let config = ServiceConfig::new(sink_config())
        .shards(1)
        .store(Arc::clone(&store) as Arc<dyn EvidenceStore>)
        .poison_hook(is_poison);
    let pool = ServicePool::new(Arc::clone(&ks), config);
    for p in &packets[..20] {
        pool.ingest(p.clone()).unwrap();
    }
    pool.ingest(poison_packet(&ks, n)).unwrap();
    for p in &packets[20..] {
        pool.ingest(p.clone()).unwrap();
    }
    // The scrape shows the failed append once the workers are done.
    assert!(pool.close_and_join(Instant::now() + Duration::from_secs(30)));
    assert!(pool
        .metrics_text()
        .contains("pnm_service_store_errors_total{shard=\"0\"} 1"));
    let report = pool.drain();
    assert_eq!(report.poisoned.len(), 1);
    assert_eq!(report.snapshot.store_errors, 1);

    // Rebuilt from the log alone (the drain-time quarantine sweep
    // re-applied), the evidence is byte-identical to the drained pool's
    // and to the poison-free run's.
    let rebuilt = swept(&ks, &store.replay().unwrap().merged()).evidence();
    assert_eq!(rebuilt.to_bytes(), report.engine.evidence().to_bytes());
    assert_eq!(
        rebuilt.to_bytes(),
        reference_engine(&ks, &packets).evidence().to_bytes()
    );
}

#[test]
fn poison_restart_with_store_does_not_double_count() {
    // A shard that panics restarts from its checkpoint and re-attaches
    // the store; the evidence the log accumulates must still match the
    // poison-free packet set exactly (no delta written twice).
    let n = 8u16;
    let ks = keys(n);
    let packets = workload(&ks, n, 40);
    let path = temp_log("poison");

    let store = Arc::new(LogStore::open(&path).unwrap());
    let config = ServiceConfig::new(sink_config())
        .shards(2)
        .store(Arc::clone(&store) as Arc<dyn EvidenceStore>)
        .poison_hook(is_poison);
    let pool = ServicePool::new(Arc::clone(&ks), config);
    for p in &packets[..20] {
        pool.ingest(p.clone()).unwrap();
    }
    pool.ingest(poison_packet(&ks, n)).unwrap();
    for p in &packets[20..] {
        pool.ingest(p.clone()).unwrap();
    }
    let report = pool.drain();
    assert_eq!(report.poisoned.len(), 1);
    assert_eq!(report.snapshot.store_errors, 0);

    // Replay equals the merged engine equals the poison-free reference.
    let replayed = swept(&ks, &store.replay().unwrap().merged()).evidence();
    assert_eq!(replayed.to_bytes(), report.engine.evidence().to_bytes());
    assert_eq!(
        replayed.to_bytes(),
        reference_engine(&ks, &packets).evidence().to_bytes()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn memstore_pool_matches_storeless_pool() {
    // MemStore is the null backend: attaching it changes nothing about
    // the drained evidence.
    let n = 8u16;
    let ks = keys(n);
    let packets = workload(&ks, n, 60);

    let mem = Arc::new(MemStore::new());
    let config = ServiceConfig::new(sink_config())
        .shards(2)
        .store(Arc::clone(&mem) as Arc<dyn EvidenceStore>);
    let with_store = ServicePool::new(Arc::clone(&ks), config);
    let config = ServiceConfig::new(sink_config()).shards(2);
    let without = ServicePool::new(Arc::clone(&ks), config);
    for p in &packets {
        with_store.ingest(p.clone()).unwrap();
        without.ingest(p.clone()).unwrap();
    }
    let a = with_store.drain();
    let b = without.drain();
    assert_eq!(
        a.engine.evidence().to_bytes(),
        b.engine.evidence().to_bytes()
    );
    // And the MemStore replay reproduces the same merged evidence (the
    // merged engines carry drain-time quarantine the shards never see).
    let replayed = swept(&ks, &mem.replay().unwrap().merged());
    assert_eq!(
        replayed.evidence().to_bytes(),
        a.engine.evidence().to_bytes()
    );
}

#[test]
fn recover_without_store_is_an_error() {
    let ks = keys(4);
    let config = ServiceConfig::new(sink_config()).shards(1);
    assert!(ServicePool::recover(ks, config).is_err());
}
