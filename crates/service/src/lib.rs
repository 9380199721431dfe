//! # pnm-service — a sharded, concurrent traceback service
//!
//! The sink engine in `pnm-core` is a sequential pipeline: one call, one
//! packet, one verdict. This crate wraps it in a long-running service
//! shape suitable for a real sink node:
//!
//! * **Sharding.** A [`ServicePool`] owns `k` worker threads, each with a
//!   private [`SinkEngine`](pnm_core::SinkEngine). Packets are
//!   hash-partitioned by report bytes, so all deliveries of one report
//!   land on the same shard — the report-keyed anonymous-ID table cache
//!   stays shard-local (no locks on the hot path), and `k` shards hold
//!   `k×` the aggregate table-cache capacity.
//! * **Backpressure.** Ingestion goes through bounded queues with an
//!   explicit full-queue policy ([`BackpressurePolicy`]): block the
//!   producer, or shed the packet and count the drop exactly.
//! * **Drain.** [`ServicePool::drain`] closes ingestion, lets shards
//!   finish their backlogs, then merges every shard's evidence — counters,
//!   route graph, quarantine — into one engine via
//!   [`SinkEngine::absorb`](pnm_core::SinkEngine::absorb). The route graph
//!   is a set union, so the merged localization equals what a single
//!   sequential engine would have computed over the same packets, for any
//!   shard count and any arrival interleaving. Isolation policy is applied
//!   once, to the merged graph, at drain time (shard-local quarantine
//!   would be partition-dependent).
//! * **Supervision.** Shard workers run every packet under
//!   `catch_unwind`: a packet that panics the pipeline is recorded as
//!   poison ([`PoisonRecord`]) and quarantined, and the shard restarts
//!   from a fresh engine plus its last good checkpoint. A drain watchdog
//!   ([`ServiceConfig::drain_timeout`]) bounds how long
//!   [`ServicePool::drain`] waits for a wedged shard. The pool never
//!   retries: a shed packet is the caller's to resend (the gateway
//!   answers it `Busy`, and its client retries).
//! * **Durability.** [`ServiceConfig::store`] attaches an
//!   [`EvidenceStore`](pnm_core::EvidenceStore) (typically the
//!   append-only [`LogStore`](pnm_core::LogStore)): each shard appends an
//!   evidence delta at every checkpoint and once more at drain, and
//!   [`ServicePool::recover`] (or the [`ServicePool::recover_from_log`]
//!   shortcut) rebuilds a pool from the log after a process crash — the
//!   replayed engines are byte-identical in evidence to what the crashed
//!   shards had last checkpointed. The poison-quarantine restart reuses
//!   the same replay semantics. Store append failures are counted per
//!   shard ([`ShardSnapshot::store_errors`]), never fatal.
//! * **Telemetry.** The pool's `pnm-obs` [`Registry`](pnm_obs::Registry)
//!   ([`ServicePool::registry`]) is the only store of its telemetry: each
//!   shard worker records its counts, latency histograms and the
//!   [`SinkCounters`](pnm_core::SinkCounters) growth of every evidence
//!   delta straight into `shard`-labelled cells, and each shard engine
//!   records its stage laps there too
//!   ([`StageHistograms`](pnm_core::StageHistograms)). Nothing is copied
//!   per packet or at scrape time: [`ServicePool::metrics_text`] and
//!   [`ServicePool::snapshot`] read the same cells. The sink config's
//!   [`tracer`](pnm_core::SinkConfig::tracer) reaches every shard engine.
//!
//! Classifier caveat: registry-backed verdicts are per-report and thus
//! partition-invariant, but the volume monitor's rate window is
//! shard-local, so pure volume anomalies are detected per-shard
//! (approximately) rather than globally. The field study and background
//! simulations in `pnm-sim` run on this service.

mod config;
mod pool;
mod telemetry;

pub use config::{BackpressurePolicy, PoisonHook, ServiceConfig};
pub use pool::{DrainReport, IngestError, PoisonRecord, RecoveryStats, ServicePool};
pub use telemetry::{ServiceSnapshot, ShardSnapshot};

#[cfg(test)]
mod send_sync {
    use super::*;

    #[test]
    fn service_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServicePool>();
        assert_send_sync::<ServiceConfig>();
        assert_send_sync::<BackpressurePolicy>();
        assert_send_sync::<ServiceSnapshot>();
        assert_send_sync::<ShardSnapshot>();
        assert_send_sync::<DrainReport>();
        assert_send_sync::<IngestError>();
        assert_send_sync::<PoisonRecord>();
        assert_send_sync::<PoisonHook>();
        assert_send_sync::<RecoveryStats>();
    }
}
