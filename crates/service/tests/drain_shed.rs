//! Shutdown, drain, and backpressure accounting.
//!
//! Shedding is made deterministic with `start_paused`: workers hold at the
//! start gate, so queues fill to exactly their configured capacity and
//! every overflow packet sheds — no timing dependence. The tests then
//! check the service's books balance to the packet: every admission ticket
//! is either processed (and appears in the retained outcomes) or counted
//! shed, and a closed service rejects everything. Two more pin how a
//! worker takes from its queue: up to `GROUP_COMMIT_PACKETS` jobs at a
//! time, and never more than `queue_capacity + 1` unfinished; and one
//! that a shard whose worker died refuses its packets.

use std::collections::BTreeSet;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use pnm_core::{
    Evidence, EvidenceStore, MemStore, RecordKind, SinkConfig, StoreError, StoreReplay, VerifyMode,
};
use pnm_service::{
    BackpressurePolicy, IngestError, ServiceConfig, ServicePool, GROUP_COMMIT_PACKETS,
};
use pnm_sim::AttackStream;
use pnm_wire::NodeId;

#[test]
fn drain_processes_every_predrain_packet_and_closes_ingestion() {
    let stream = AttackStream::pnm(8, None, 61, 41);
    let pool = ServicePool::new(
        Arc::clone(&stream.keys),
        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(3)
            .keep_outcomes(true),
    );
    let (packets, late) = stream.packets.split_at(60);
    let n = packets.len() as u64;
    for p in packets {
        pool.ingest(p.clone()).unwrap();
    }

    // Close first: everything already queued must still be verified, and
    // nothing new gets in.
    pool.close();
    assert!(pool.is_closed());
    assert_eq!(pool.ingest(late[0].clone()), Err(IngestError::Closed));

    let report = pool.drain();
    assert_eq!(report.snapshot.accepted, n);
    assert_eq!(report.snapshot.processed, n);
    assert_eq!(report.snapshot.shed, 0);
    assert_eq!(report.snapshot.backlog(), 0);
    assert_eq!(report.snapshot.totals.packets as u64, n);
    // Every pre-drain packet made it through verification: the marks of
    // all 60 packets were verified and the source was localized.
    assert_eq!(report.engine.unequivocal_source(), Some(NodeId(0)));
    // Retained outcomes cover exactly the admitted tickets, in order.
    let tickets: Vec<u64> = report.outcomes.iter().map(|(t, _)| *t).collect();
    assert_eq!(tickets, (0..n).collect::<Vec<_>>());
    assert!(report.outcomes.iter().all(|(_, o)| o.chain.is_some()));
}

#[test]
fn shed_drops_are_exactly_accounted() {
    let stream = AttackStream::pnm(8, None, 40, 43);
    let shards = 2usize;
    let capacity = 4usize;
    let pool = ServicePool::new(
        Arc::clone(&stream.keys),
        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(shards)
            .queue_capacity(capacity)
            .backpressure(BackpressurePolicy::Shed)
            .keep_outcomes(true)
            .start_paused(true),
    );

    // Workers are parked at the start gate, so each shard's queue holds at
    // most `capacity` packets and every overflow sheds — deterministically.
    let mut expect_accepted = vec![0u64; shards];
    let mut expect_shed = vec![0u64; shards];
    let mut accepted_tickets = BTreeSet::new();
    let mut offered = 0u64;
    for pkt in stream.packets {
        let shard = pool.shard_of(&pkt);
        match pool.ingest(pkt) {
            Ok(ticket) => {
                expect_accepted[shard] += 1;
                assert_eq!(ticket, offered, "tickets are admission-ordered");
                accepted_tickets.insert(ticket);
            }
            Err(IngestError::Shed) => expect_shed[shard] += 1,
            Err(IngestError::Closed) => panic!("service closed prematurely"),
        }
        offered += 1;
        assert!(
            expect_accepted[shard] <= capacity as u64,
            "a parked shard cannot accept past its queue capacity"
        );
    }
    let total_accepted: u64 = expect_accepted.iter().sum();
    let total_shed: u64 = expect_shed.iter().sum();
    assert_eq!(total_accepted + total_shed, offered);
    assert!(total_shed > 0, "the test must actually overflow");

    let report = pool.drain();
    assert_eq!(report.snapshot.accepted, total_accepted);
    assert_eq!(report.snapshot.shed, total_shed);
    assert_eq!(report.snapshot.processed, total_accepted);
    assert_eq!(report.snapshot.totals.packets as u64, total_accepted);
    for (i, shard) in report.snapshot.shards.iter().enumerate() {
        assert_eq!(shard.accepted, expect_accepted[i], "shard {i} accepted");
        assert_eq!(shard.shed, expect_shed[i], "shard {i} shed");
        assert_eq!(shard.processed, expect_accepted[i], "shard {i} processed");
    }
    // A shed ticket never reappears: retained outcomes are exactly the
    // accepted tickets (with gaps where drops were counted).
    let outcome_tickets: BTreeSet<u64> = report.outcomes.iter().map(|(t, _)| *t).collect();
    assert_eq!(outcome_tickets, accepted_tickets);
}

#[test]
fn block_policy_never_sheds_even_past_capacity() {
    let stream = AttackStream::pnm(8, None, 30, 47);
    let pool = ServicePool::new(
        Arc::clone(&stream.keys),
        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(2)
            .queue_capacity(2)
            .backpressure(BackpressurePolicy::Block),
    );
    // 30 packets through 2-slot queues: the producer must block-and-wait
    // rather than drop.
    for pkt in stream.packets {
        pool.ingest(pkt).unwrap();
    }
    let report = pool.drain();
    assert_eq!(report.snapshot.accepted, 30);
    assert_eq!(report.snapshot.shed, 0);
    assert_eq!(report.snapshot.processed, 30);
}

#[test]
fn snapshot_is_safe_while_live() {
    let stream = AttackStream::pnm(8, None, 20, 53);
    let pool = ServicePool::new(
        Arc::clone(&stream.keys),
        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(2),
    );
    for pkt in stream.packets {
        pool.ingest(pkt).unwrap();
        let snap = pool.snapshot();
        // Live counters may lag in-flight work but never overshoot.
        assert!(snap.processed <= snap.accepted);
        assert_eq!(snap.shed, 0);
    }
    let report = pool.drain();
    assert_eq!(report.snapshot.processed, 20);
}

/// A shard holds at most `queue_capacity + 1` accepted packets it has not
/// finished. The worker's first take hands it 64 of a full queue's 100
/// packets and it holds the first in the poison hook; the 63 others still
/// count against the capacity, so one ingest (the held packet's slot) is
/// accepted and the next sheds.
#[test]
fn a_shard_holds_at_most_capacity_plus_one_unprocessed_packets() {
    let stream = AttackStream::pnm(8, None, 102, 59);
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let first = Mutex::new(Some((held_tx, release_rx)));
    let pool = ServicePool::new(
        Arc::clone(&stream.keys),
        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(1)
            .queue_capacity(100)
            .backpressure(BackpressurePolicy::Shed)
            .start_paused(true)
            .poison_hook(move |_| {
                let hold = first.lock().unwrap().take();
                if let Some((held, release)) = hold {
                    held.send(()).unwrap();
                    release.recv().unwrap();
                }
                false
            }),
    );
    let mut packets = stream.packets.into_iter();
    for p in packets.by_ref().take(100) {
        pool.ingest(p).unwrap();
    }
    pool.resume();
    held_rx.recv().unwrap();
    pool.ingest(packets.next().unwrap()).unwrap();
    assert_eq!(
        pool.ingest(packets.next().unwrap()),
        Err(IngestError::Shed),
        "a 102nd packet would put capacity + 2 in the shard"
    );
    assert_eq!(pool.backlog(), 101);
    release_tx.send(()).unwrap();
    let report = pool.drain();
    assert_eq!((report.snapshot.accepted, report.snapshot.shed), (101, 1));
    assert_eq!(report.snapshot.processed, 101);
}

/// A shard worker takes up to `GROUP_COMMIT_PACKETS` queued packets per
/// lock, and records each take's size in the pool registry: a burst of
/// 256 queued while the pool is paused is four takes of 64, in the drain
/// snapshot and the scrape alike.
#[test]
fn a_paused_burst_is_taken_in_groups_of_64() {
    assert_eq!(GROUP_COMMIT_PACKETS, 64);
    let stream = AttackStream::pnm(8, None, 256, 67);
    let pool = ServicePool::new(
        Arc::clone(&stream.keys),
        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(1)
            .start_paused(true),
    );
    for p in stream.packets {
        pool.ingest(p).unwrap();
    }
    assert!(pool.close_and_join(Instant::now() + Duration::from_secs(30)));
    let text = pool.metrics_text();
    for line in [
        "pnm_service_take_jobs_count{shard=\"0\"} 4\n",
        "pnm_service_take_jobs_sum{shard=\"0\"} 256\n",
    ] {
        assert!(text.contains(line), "no {line} in:\n{text}");
    }
    let report = pool.drain();
    let takes = &report.snapshot.shards[0].take_jobs;
    assert_eq!(
        (takes.count(), takes.sum_us(), takes.max_us()),
        (4, 256, 64)
    );
    assert_eq!(report.snapshot.processed, 256);
}

/// A store that reports its first append, then panics: the shard worker
/// appends outside its per-packet `catch_unwind`, so the panic kills it.
#[derive(Debug)]
struct PanickingStore(Mutex<mpsc::Sender<()>>);

impl EvidenceStore for PanickingStore {
    fn append(&self, _: u32, _: RecordKind, _: &Evidence) -> Result<(), StoreError> {
        let _ = self.0.lock().unwrap().send(());
        panic!("injected store panic");
    }

    fn replay(&self) -> Result<StoreReplay, StoreError> {
        MemStore::new().replay()
    }

    fn compact(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// A shard whose worker died refuses its packets: a producer blocked on
/// its full queue and every later ingest get `Closed`, none waits
/// forever or is accepted for nothing to process, and drain reports the
/// shard wedged.
#[test]
fn a_dead_shard_worker_refuses_its_ingests() {
    let stream = AttackStream::pnm(8, None, 12, 73);
    let (died_tx, died_rx) = mpsc::channel();
    let pool = Arc::new(ServicePool::new(
        Arc::clone(&stream.keys),
        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(1)
            .queue_capacity(2)
            .backpressure(BackpressurePolicy::Block)
            .store(Arc::new(PanickingStore(Mutex::new(died_tx)))),
    ));
    let mut packets = stream.packets.into_iter();
    pool.ingest(packets.next().unwrap()).unwrap();
    // Its queue empty, the worker appends that packet's group and dies.
    died_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker appends");
    // The rest go in on another thread, so a producer blocked for good
    // fails the test instead of hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    let feeder = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            let got: Vec<_> = packets.map(|p| pool.ingest(p)).collect();
            done_tx.send(got).unwrap();
        })
    };
    let got = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("no ingest blocks on a dead shard");
    feeder.join().unwrap();
    // Ingests racing the worker's unwinding may still land (at most the
    // queue's capacity); every later one is refused.
    assert!(
        got.iter()
            .all(|r| matches!(r, Ok(_) | Err(IngestError::Closed))),
        "{got:?}"
    );
    assert!(got.iter().filter(|r| r.is_ok()).count() <= 2, "{got:?}");
    assert_eq!(got.last(), Some(&Err(IngestError::Closed)));
    let report = Arc::into_inner(pool).unwrap().drain();
    assert_eq!(report.wedged, [0]);
}
