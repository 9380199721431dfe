//! Shutdown, drain, and backpressure accounting.
//!
//! Shedding is made deterministic with `start_paused`: workers hold at the
//! start gate, so queues fill to exactly their configured capacity and
//! every overflow packet sheds — no timing dependence. The tests then
//! check the service's books balance to the packet: every admission ticket
//! is either processed (and appears in the retained outcomes) or counted
//! shed, and a closed service rejects everything.

use std::collections::BTreeSet;
use std::sync::Arc;

use pnm_core::{SinkConfig, VerifyMode};
use pnm_service::{BackpressurePolicy, IngestError, ServiceConfig, ServicePool};
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
