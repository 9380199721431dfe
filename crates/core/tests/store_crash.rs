//! Crash-at-any-point equivalence: kill the process at an arbitrary
//! byte of the evidence log, recover, and the recovered engine must be
//! indistinguishable — localization verdicts and the full evidence bytes
//! (verdict counters, route graph, quarantine set) — from an engine that
//! was never interrupted.
//!
//! The engine checkpoints to the store after every packet here, so log
//! record `i` corresponds exactly to packet `i`: a cut that preserves
//! `r` complete frames must recover precisely the first `r` packets'
//! evidence, for every possible cut point. Continuing the remaining
//! packets on the recovered engine must then converge on the full run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pnm_core::store::{EvidenceStore, LogStore};
use pnm_core::{
    IsolationPolicy, MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig,
    SinkEngine, VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_wire::{Location, NodeId, Packet, Report};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_log(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-store-crash-{}-{}-{}.log",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

const HOPS: u16 = 8;

fn keys() -> Arc<KeyStore> {
    Arc::new(KeyStore::derive_from_master(b"crash-test", HOPS))
}

fn sink_config() -> SinkConfig {
    SinkConfig::new(VerifyMode::Nested).isolation(IsolationPolicy::SuspectsOnly)
}

fn workload(ks: &KeyStore, count: u64, seed: u64) -> Vec<Packet> {
    let scheme = ProbabilisticNestedMarking::paper_default(HOPS as usize);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|seq| {
            let report = Report::new(
                format!("crash-{seq}").into_bytes(),
                Location::new(seq as f32, 0.0),
                seq,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..HOPS {
                let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect()
}

/// An uninterrupted engine over `packets`, quarantine refreshed the way
/// the pipeline leaves it (no extra sweep — the recovered side gets the
/// identical treatment).
fn uninterrupted(ks: &Arc<KeyStore>, packets: &[Packet]) -> SinkEngine {
    let mut engine = SinkEngine::new(Arc::clone(ks), sink_config());
    for p in packets {
        engine.ingest(p);
    }
    engine
}

proptest! {
    // Each case builds a fresh log and replays it twice; keep the case
    // count moderate so the suite stays inside CI smoke budgets.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property. Write a log with one frame per packet,
    /// cut it at an arbitrary byte (any torn write a SIGKILL can
    /// produce), recover, and require byte-identical evidence with an
    /// uninterrupted run over exactly the packets whose frames
    /// completed. Then feed the rest: the final state must be
    /// byte-identical to a run that never crashed at all.
    #[test]
    fn kill_at_any_byte_recovers_exactly(
        count in 4u64..24,
        seed in 0u64..64,
        cut_salt in any::<u64>(),
    ) {
        let ks = keys();
        let packets = workload(&ks, count, seed);
        let path = temp_log("any-byte");

        // Run with a store attached, checkpointing after every packet,
        // and note the log length after each flush: the only places a
        // complete frame can end.
        let store = Arc::new(LogStore::open(&path).expect("open fresh log"));
        let mut engine = SinkEngine::new(Arc::clone(&ks), sink_config());
        engine.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
        let mut boundaries = Vec::with_capacity(packets.len());
        for p in &packets {
            engine.ingest(p);
            engine.checkpoint_to_store().expect("checkpoint");
            boundaries.push(std::fs::metadata(&path).expect("metadata").len());
        }
        let full_run_evidence = engine.evidence();
        drop(engine);
        drop(store);

        // The kill: truncate the file at an arbitrary byte.
        let len = *boundaries.last().expect("non-empty workload");
        let cut = cut_salt % (len + 1);
        let bytes = std::fs::read(&path).expect("read log");
        std::fs::write(&path, &bytes[..cut as usize]).expect("cut log");
        let survived = boundaries.iter().filter(|&&b| b <= cut).count();

        // Recovery: reopen (truncates any torn frame), replay, install.
        let store = Arc::new(LogStore::open(&path).expect("reopen cut log"));
        let replay = store.replay().expect("replay");
        prop_assert_eq!(replay.records, survived);
        let mut recovered = SinkEngine::new(Arc::clone(&ks), sink_config());
        recovered.install_evidence(&replay.merged());

        // Equivalence with the run that was never interrupted, over the
        // packets whose frames completed: localization and the entire
        // evidence encoding.
        let reference = uninterrupted(&ks, &packets[..survived]);
        prop_assert_eq!(recovered.localize(), reference.localize());
        prop_assert_eq!(recovered.unequivocal_source(), reference.unequivocal_source());
        prop_assert_eq!(
            recovered.evidence().to_bytes(),
            reference.evidence().to_bytes()
        );

        // Continue the interrupted run to completion (re-attaching the
        // store, as `ServicePool::recover` does): the final evidence
        // matches the crash-free run byte for byte, and the log itself
        // replays to that same state.
        recovered.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
        for p in &packets[survived..] {
            recovered.ingest(p);
            recovered.checkpoint_to_store().expect("checkpoint");
        }
        prop_assert_eq!(
            recovered.evidence().to_bytes(),
            full_run_evidence.to_bytes()
        );
        let final_replay = store.replay().expect("final replay").merged();
        prop_assert_eq!(final_replay.to_bytes(), full_run_evidence.to_bytes());

        std::fs::remove_file(&path).ok();
    }

    /// Same property under a sparser checkpoint cadence: deltas span
    /// several packets, so a cut loses at most `interval − 1` packets of
    /// evidence but recovery still lands exactly on a checkpoint
    /// boundary the uninterrupted run also passed through.
    #[test]
    fn sparse_checkpoints_recover_to_a_boundary(
        interval in 2u64..6,
        cut_salt in any::<u64>(),
    ) {
        let ks = keys();
        let packets = workload(&ks, 30, 7);
        let path = temp_log("sparse");

        let store = Arc::new(LogStore::open(&path).expect("open fresh log"));
        let mut engine = SinkEngine::new(Arc::clone(&ks), sink_config());
        engine.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
        // boundary[i] = (packets covered, log bytes) after each flush.
        let mut boundaries: Vec<(usize, u64)> = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            engine.ingest(p);
            if (i as u64 + 1).is_multiple_of(interval) {
                engine.checkpoint_to_store().expect("checkpoint");
                boundaries.push((i + 1, std::fs::metadata(&path).expect("metadata").len()));
            }
        }
        drop(engine);
        drop(store);

        let len = boundaries.last().expect("at least one checkpoint").1;
        let cut = cut_salt % (len + 1);
        let bytes = std::fs::read(&path).expect("read log");
        std::fs::write(&path, &bytes[..cut as usize]).expect("cut log");
        let covered = boundaries
            .iter()
            .filter(|&&(_, b)| b <= cut)
            .map(|&(n, _)| n)
            .max()
            .unwrap_or(0);

        let store = LogStore::open(&path).expect("reopen cut log");
        let mut recovered = SinkEngine::new(Arc::clone(&ks), sink_config());
        recovered.install_evidence(&store.replay().expect("replay").merged());
        let reference = uninterrupted(&ks, &packets[..covered]);
        prop_assert_eq!(
            recovered.evidence().to_bytes(),
            reference.evidence().to_bytes()
        );

        std::fs::remove_file(&path).ok();
    }
}

/// Compaction in the middle of the crash/recover cycle changes the log's
/// shape but not its meaning: recover after compact ≡ recover before.
#[test]
fn compaction_preserves_recovery() {
    let ks = keys();
    let packets = workload(&ks, 20, 11);
    let path = temp_log("compact");

    let store = Arc::new(LogStore::open(&path).expect("open"));
    let mut engine = SinkEngine::new(Arc::clone(&ks), sink_config());
    engine.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
    for p in &packets {
        engine.ingest(p);
        engine.checkpoint_to_store().expect("checkpoint");
    }
    let before = store.replay().expect("replay").merged();
    store.compact().expect("compact");
    let after = store.replay().expect("replay after compact");
    assert_eq!(after.records, 1, "one snapshot frame per shard");
    assert_eq!(after.merged().to_bytes(), before.to_bytes());

    let mut recovered = SinkEngine::new(Arc::clone(&ks), sink_config());
    recovered.install_evidence(&after.merged());
    assert_eq!(
        recovered.evidence().to_bytes(),
        engine.evidence().to_bytes()
    );
    std::fs::remove_file(&path).ok();
}
