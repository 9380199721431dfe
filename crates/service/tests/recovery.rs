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
use pnm_core::{IsolationPolicy, SinkConfig, VerifyMode};
use pnm_crypto::KeyStore;
use pnm_obs::{FlightRecorder, Tracer};
use pnm_service::{ServiceConfig, ServicePool, GROUP_COMMIT_PACKETS};
use pnm_sim::{drained_evidence, sequential_reference, AttackKind, AttackStream};
use pnm_wire::{Location, Packet, Report};

fn temp_log(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-recovery-{}-{}-{}.log",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn sink_config() -> SinkConfig {
    SinkConfig::new(VerifyMode::Nested).isolation(IsolationPolicy::SuspectsOnly)
}

/// A recovered pool's telemetry starts from the evidence it restored:
/// before any new packet its snapshot totals and its scraped per-shard
/// `pnm_sink_packets_total` series add up to the restored count, and
/// after drain the snapshot's totals are the merged engine's counters.
#[test]
fn recovered_pool_telemetry_counts_the_restored_evidence() {
    let AttackStream {
        keys: ks, packets, ..
    } = AttackStream::pnm(8, None, 30, 4057);
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

/// Recovered ≡ uninterrupted on an honest stream and on each of the
/// seven attacks.
#[test]
fn pool_recovers_from_log_and_matches_uninterrupted_run() {
    for attack in [None].into_iter().chain(AttackKind::all().map(Some)) {
        let stream = AttackStream::pnm(10, attack, 120, 4057);
        recovers_and_matches_uninterrupted_run(&stream);
    }
}

fn recovers_and_matches_uninterrupted_run(stream: &AttackStream) {
    let (ks, packets) = (&stream.keys, &stream.packets);
    let half = packets.len() / 2;
    let path = temp_log("roundtrip");

    // Phase 1: a pool with a durable log ingests the first half, then
    // "crashes": we drain it (appending each shard's last group) and then
    // damage the tail the way a torn write would.
    let store = Arc::new(LogStore::open(&path).unwrap());
    let config = ServiceConfig::new(sink_config())
        .shards(3)
        .store(Arc::clone(&store) as Arc<dyn EvidenceStore>);
    let pool = ServicePool::new(Arc::clone(ks), config);
    for p in &packets[..half] {
        pool.ingest(p.clone()).unwrap();
    }
    let first = pool.drain();
    assert_eq!(first.snapshot.processed as usize, half);
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
    let (pool, stats) = ServicePool::recover_from_log(Arc::clone(ks), config, &path).unwrap();
    assert_eq!(stats.rejected_frames, 1);
    assert!(stats.records > 0);
    assert_eq!(stats.packets_restored, half);
    for p in &packets[half..] {
        pool.ingest(p.clone()).unwrap();
    }
    let report = pool.drain();

    // The localization and the full evidence equal the uninterrupted
    // sequential run's.
    let reference = sequential_reference(ks, &sink_config(), packets).engine;
    let verdict = report.engine.localize();
    assert_eq!(verdict, reference.localize());
    assert!(stream.names_only_suspects(&verdict), "{verdict:?}");
    let recovered_evidence = report.engine.evidence();
    assert_eq!(
        recovered_evidence.to_bytes(),
        reference.evidence().to_bytes(),
        "recovered evidence must be byte-identical to the uninterrupted run"
    );

    // A second recovery from the drained log alone (no further packets)
    // also reproduces the full evidence: the final flush covered it.
    let config = ServiceConfig::new(sink_config()).shards(3);
    let (pool, stats) = ServicePool::recover_from_log(Arc::clone(ks), config, &path).unwrap();
    assert_eq!(stats.packets_restored, packets.len());
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
    let AttackStream {
        keys: ks, packets, ..
    } = AttackStream::pnm(8, None, 80, 4057);
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

/// A packet the tests' poison hooks crash on before the engine sees it.
fn poison_packet(like: &Packet) -> Packet {
    let mut pkt = like.clone();
    pkt.report = Report::new(b"poison-x".to_vec(), Location::new(0.0, 0.0), 7);
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
    // Regression: the shard's first grouped append, the full group right
    // before the poison packet, fails; then that packet poisons the
    // shard. The restarted shard must still write the failed group, so
    // the log holds every surviving packet — not one group fewer than the
    // drained pool. The pool starts paused, so the whole stream is queued
    // before the worker runs and the queue cannot empty early: which
    // append fails does not depend on timing.
    let AttackStream {
        keys: ks, packets, ..
    } = AttackStream::pnm(8, None, GROUP_COMMIT_PACKETS + 20, 4057);
    let store = Arc::new(FailNthAppend {
        inner: MemStore::new(),
        appends: AtomicUsize::new(0),
        fail_on: 1,
    });
    // An armed flight recorder, which the sink's tracer feeds too.
    let dir = temp_log("flight").with_extension("");
    let recorder = Arc::new(FlightRecorder::new(&dir, 4, 1 << 12));
    let tracer = Tracer::new(recorder.clone());
    let config = ServiceConfig::new(sink_config().tracer(tracer.clone()))
        .shards(1)
        .store(Arc::clone(&store) as Arc<dyn EvidenceStore>)
        .poison_hook(is_poison)
        .flight_recorder(Arc::clone(&recorder))
        .start_paused(true);
    let pool = ServicePool::new(Arc::clone(&ks), config);
    for p in &packets[..GROUP_COMMIT_PACKETS] {
        pool.ingest(p.clone()).unwrap();
    }
    // The poison packet travels under a root span of its own.
    let poison = poison_packet(&packets[0]);
    let now_us = poison.report.timestamp;
    let span = tracer.span_root("test.ingest");
    let poison_ctx = span.context().expect("a root span carries a context");
    pool.ingest_ctx(poison, now_us, poison_ctx).unwrap();
    drop(span);
    for p in &packets[GROUP_COMMIT_PACKETS..] {
        pool.ingest(p.clone()).unwrap();
    }
    pool.resume();
    // The scrape shows the failed append once the workers are done.
    assert!(pool.close_and_join(Instant::now() + Duration::from_secs(30)));
    assert!(pool
        .metrics_text()
        .contains("pnm_service_store_errors_total{shard=\"0\"} 1"));
    let report = pool.drain();
    assert_eq!(report.poisoned.len(), 1);
    assert_eq!(report.snapshot.store_errors, 1);

    // Each anomaly is black-boxed in order: the failed append, then the
    // quarantine, whose dump names the poisoned packet's trace.
    assert_eq!(recorder.dumps(), 2);
    assert!(dir.join("flight-0001-store_error.jsonl").is_file());
    let last = recorder.last_anomaly().expect("the quarantine dumps");
    assert_eq!(last.reason, "poison_quarantine");
    assert_eq!(last.trace, poison_ctx.trace);
    assert!(last.path.ends_with("flight-0002-poison_quarantine.jsonl"));
    std::fs::remove_dir_all(&dir).ok();

    // Rebuilt from the log alone (the drain-time quarantine sweep
    // re-applied), the evidence is byte-identical to the drained pool's
    // and to the poison-free run's.
    let rebuilt =
        drained_evidence(&ks, &sink_config(), &store.replay().unwrap().merged()).evidence();
    assert_eq!(rebuilt.to_bytes(), report.engine.evidence().to_bytes());
    assert_eq!(
        rebuilt.to_bytes(),
        sequential_reference(&ks, &sink_config(), &packets)
            .engine
            .evidence()
            .to_bytes()
    );
}

/// Group commit: a busy shard appends one record per
/// `GROUP_COMMIT_PACKETS` packets, not one per packet, and the grouped
/// log replays to the drained evidence byte for byte. The pool starts
/// paused, so each shard's queue holds its whole share when the worker
/// starts and empties only after the last packet.
#[test]
fn busy_shards_append_one_record_per_group() {
    let AttackStream {
        keys: ks, packets, ..
    } = AttackStream::pnm(8, None, 1024, 4057);
    let path = temp_log("group");
    let store = Arc::new(LogStore::open(&path).unwrap());
    let config = ServiceConfig::new(sink_config())
        .shards(2)
        .store(Arc::clone(&store) as Arc<dyn EvidenceStore>)
        .start_paused(true);
    let pool = ServicePool::new(Arc::clone(&ks), config);
    for p in &packets {
        pool.ingest(p.clone()).unwrap();
    }
    pool.resume();
    let report = pool.drain();
    assert_eq!(report.snapshot.processed, 1024);
    assert_eq!(report.snapshot.store_errors, 0);

    let replay = store.replay().unwrap();
    let bound: usize = (report.snapshot.shards.iter())
        .map(|shard| (shard.processed as usize).div_ceil(GROUP_COMMIT_PACKETS) + 1)
        .sum();
    assert!(
        replay.records <= bound,
        "{} records for 1024 packets; at most {bound} allowed",
        replay.records
    );
    let replayed = drained_evidence(&ks, &sink_config(), &replay.merged()).evidence();
    assert_eq!(replayed.to_bytes(), report.engine.evidence().to_bytes());
    std::fs::remove_file(&path).ok();
}

/// Group commit never holds a packet back for later traffic: a lone
/// packet reaches the log while the pool is still running, because its
/// shard appends as soon as its queue is empty.
#[test]
fn idle_shard_appends_a_lone_packet_without_a_drain() {
    let AttackStream {
        keys: ks, packets, ..
    } = AttackStream::pnm(8, None, 1, 4057);
    let path = temp_log("lone");
    let store = Arc::new(LogStore::open(&path).unwrap());
    let config = ServiceConfig::new(sink_config())
        .shards(2)
        .store(Arc::clone(&store) as Arc<dyn EvidenceStore>);
    let pool = ServicePool::new(Arc::clone(&ks), config);
    pool.ingest(packets[0].clone()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut replay = store.replay().unwrap();
    while replay.merged().counters.packets == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        replay = store.replay().unwrap();
    }
    assert_eq!(
        (replay.records, replay.merged().counters.packets),
        (1, 1),
        "the packet's evidence must reach the log without a drain"
    );
    assert!(!pool.is_closed());
    let report = pool.drain();
    let replayed =
        drained_evidence(&ks, &sink_config(), &store.replay().unwrap().merged()).evidence();
    assert_eq!(replayed.to_bytes(), report.engine.evidence().to_bytes());
    std::fs::remove_file(&path).ok();
}

#[test]
fn poison_restart_with_store_does_not_double_count() {
    // A shard that panics restarts from its checkpoint and re-attaches
    // the store; the evidence the log accumulates must still match the
    // poison-free packet set exactly (no delta written twice).
    let AttackStream {
        keys: ks, packets, ..
    } = AttackStream::pnm(8, None, 40, 4057);
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
    pool.ingest(poison_packet(&packets[0])).unwrap();
    for p in &packets[20..] {
        pool.ingest(p.clone()).unwrap();
    }
    let report = pool.drain();
    assert_eq!(report.poisoned.len(), 1);
    assert_eq!(report.snapshot.store_errors, 0);

    // Replay equals the merged engine equals the poison-free reference.
    let replayed =
        drained_evidence(&ks, &sink_config(), &store.replay().unwrap().merged()).evidence();
    assert_eq!(replayed.to_bytes(), report.engine.evidence().to_bytes());
    assert_eq!(
        replayed.to_bytes(),
        sequential_reference(&ks, &sink_config(), &packets)
            .engine
            .evidence()
            .to_bytes()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn memstore_pool_matches_storeless_pool() {
    // MemStore is the null backend: attaching it changes nothing about
    // the drained evidence.
    let AttackStream {
        keys: ks, packets, ..
    } = AttackStream::pnm(8, None, 60, 4057);

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
    let replayed = drained_evidence(&ks, &sink_config(), &mem.replay().unwrap().merged());
    assert_eq!(
        replayed.evidence().to_bytes(),
        a.engine.evidence().to_bytes()
    );
}

#[test]
fn recover_without_store_is_an_error() {
    let ks = Arc::new(KeyStore::derive_from_master(b"recovery-test", 4));
    let config = ServiceConfig::new(sink_config()).shards(1);
    assert!(ServicePool::recover(ks, config).is_err());
}
