//! Service telemetry: each shard's series in the pool's metrics registry,
//! and the typed snapshot read from them.
//!
//! The pool's [`Registry`] is the only store of service telemetry. Every
//! shard owns cells in it, labelled `shard="<i>"`: queue admission
//! (`pnm_service_{accepted,shed}_total`), processed, panic and store-error
//! counts, queue-wait, service and end-to-end latency
//! (`pnm_service_{queue_wait,service,total}_us`, [`LatencyHistogram`]s),
//! the shard engine's [`SinkCounters`] (`pnm_sink_<counter>_total`) and
//! its stage histograms (`pnm_sink_stage_ns{stage=...}`). The shard
//! worker and its engine record straight into those cells; the Prometheus
//! text, the gateway's `Ops` JSON and [`ServiceSnapshot`] are three reads
//! of the same cells.

use pnm_core::{SinkCounters, StageHistograms, StageMetrics};
use pnm_obs::{Counter, Histogram, LatencyHistogram, Registry};
use serde::{Deserialize, Serialize};

/// One shard's view at snapshot time.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index (also the hash-partition slot).
    pub shard: usize,
    /// Packets accepted into this shard's queue.
    pub accepted: u64,
    /// Packets shed at this shard's queue under the shed policy.
    pub shed: u64,
    /// Packets fully processed by this shard's engine.
    pub processed: u64,
    /// Packets that crashed this shard's worker (each one was quarantined
    /// as poison and the shard restarted from its last good checkpoint).
    pub panics: u64,
    /// Evidence-store appends that failed for this shard. Failures are
    /// counted, not fatal: the engine keeps its in-memory evidence and
    /// retries the cumulative delta at the next checkpoint. Always 0
    /// without an attached store.
    #[serde(default)]
    pub store_errors: u64,
    /// The shard engine's pipeline counters, including the verdict
    /// counters of any evidence the shard recovered from the store. The
    /// work counters count every engine the shard has run, across poison
    /// restarts, since the pool was built.
    pub counters: SinkCounters,
    /// Per-stage latency breakdown of the shard engine's pipeline
    /// (classify → verify → resolve → reconstruct → localize). Empty when
    /// the service was configured with stage timing off.
    pub stages: StageMetrics,
    /// Time spent waiting in the bounded queue.
    pub queue_wait_us: LatencyHistogram,
    /// Time spent inside the sink pipeline.
    pub service_us: LatencyHistogram,
    /// End-to-end (enqueue → verdict) latency.
    pub total_us: LatencyHistogram,
}

/// The merged, serializable service view: per-shard snapshots plus
/// cross-shard totals.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Per-shard state, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Sum of all shard engine counters ([`SinkCounters::merge`]).
    pub totals: SinkCounters,
    /// Total packets accepted into any queue.
    pub accepted: u64,
    /// Total packets shed across all queues.
    pub shed: u64,
    /// Total packets fully processed.
    pub processed: u64,
    /// Total packets that crashed a shard worker (quarantined as poison).
    pub panics: u64,
    /// Total evidence-store append failures across all shards (0 without
    /// an attached store).
    #[serde(default)]
    pub store_errors: u64,
}

impl ServiceSnapshot {
    pub(crate) fn from_shards(shards: Vec<ShardSnapshot>) -> Self {
        ServiceSnapshot {
            totals: shards.iter().map(|s| s.counters).sum(),
            accepted: shards.iter().map(|s| s.accepted).sum(),
            shed: shards.iter().map(|s| s.shed).sum(),
            processed: shards.iter().map(|s| s.processed).sum(),
            panics: shards.iter().map(|s| s.panics).sum(),
            store_errors: shards.iter().map(|s| s.store_errors).sum(),
            shards,
        }
    }

    /// Packets accepted but not yet processed (in queues or in flight).
    /// Poison packets are accounted separately — they were consumed by a
    /// crash, not left in flight.
    pub fn backlog(&self) -> u64 {
        self.accepted.saturating_sub(self.processed + self.panics)
    }

    /// Cross-shard per-stage pipeline breakdown (merge of every shard's
    /// [`StageMetrics`]).
    pub fn stage_metrics(&self) -> StageMetrics {
        let mut m = StageMetrics::new();
        for s in &self.shards {
            m.merge(&s.stages);
        }
        m
    }
}

/// [`SinkCounters`] fields with their names, in declaration order: a
/// shard's `name` count is its `pnm_sink_<name>_total` series.
fn sink_fields(c: &mut SinkCounters) -> [(&'static str, &mut usize); 11] {
    [
        ("packets", &mut c.packets),
        ("hash_count", &mut c.hash_count),
        ("marks_verified", &mut c.marks_verified),
        ("marks_rejected", &mut c.marks_rejected),
        ("table_builds", &mut c.table_builds),
        ("table_cache_hits", &mut c.table_cache_hits),
        ("resolver_fallback_scans", &mut c.resolver_fallback_scans),
        ("suspicious", &mut c.suspicious),
        ("benign", &mut c.benign),
        ("malformed", &mut c.malformed),
        ("duplicates_suppressed", &mut c.duplicates_suppressed),
    ]
}

/// One shard's cells in the pool registry (see the module docs). Clones
/// share the cells.
#[derive(Clone)]
pub(crate) struct ShardMetrics {
    shard: usize,
    pub(crate) accepted: Counter,
    pub(crate) shed: Counter,
    pub(crate) processed: Counter,
    pub(crate) panics: Counter,
    pub(crate) store_errors: Counter,
    pub(crate) queue_wait_us: Histogram,
    pub(crate) service_us: Histogram,
    pub(crate) total_us: Histogram,
    /// The shard's stage cells: every engine the shard builds records
    /// into them.
    pub(crate) stages: StageHistograms,
    sink: [Counter; 11],
}

impl ShardMetrics {
    /// Creates shard `index`'s cells in `registry`, so every series is
    /// exposed (at zero) before the first packet.
    pub(crate) fn register(registry: &Registry, index: usize) -> Self {
        let shard = index.to_string();
        let labels = [("shard", shard.as_str())];
        let counter = |name: &str| registry.counter(name, &labels);
        let histogram = |name: &str| registry.histogram(name, &labels);
        ShardMetrics {
            shard: index,
            accepted: counter("pnm_service_accepted_total"),
            shed: counter("pnm_service_shed_total"),
            processed: counter("pnm_service_processed_total"),
            panics: counter("pnm_service_panics_total"),
            store_errors: counter("pnm_service_store_errors_total"),
            queue_wait_us: histogram("pnm_service_queue_wait_us"),
            service_us: histogram("pnm_service_service_us"),
            total_us: histogram("pnm_service_total_us"),
            stages: StageHistograms::in_registry(registry, &labels),
            sink: sink_fields(&mut SinkCounters::default())
                .map(|(name, _)| counter(&format!("pnm_sink_{name}_total"))),
        }
    }

    /// Adds what the shard engine's counters grew by since `fed` (its
    /// reading when last fed) to the shard's `pnm_sink_*_total` cells,
    /// and moves `fed` up to `now`. From a default `fed`, this adds all
    /// of `now`: a recovered checkpoint's counters, before any packet.
    pub(crate) fn feed_sink_counters(&self, mut now: SinkCounters, fed: &mut SinkCounters) {
        let growth = sink_fields(&mut now).into_iter().zip(sink_fields(fed));
        for (cell, ((_, now), (_, fed))) in self.sink.iter().zip(growth) {
            if *now > *fed {
                cell.add((*now - *fed) as u64);
            }
            *fed = *now;
        }
    }

    /// A typed read of the cells. The completion counts are read first: a
    /// packet the read counts as processed has everything the worker
    /// recorded for it in the rest of the read.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        let processed = self.processed.get();
        let panics = self.panics.get();
        let mut counters = SinkCounters::default();
        for (cell, (_, v)) in self.sink.iter().zip(sink_fields(&mut counters)) {
            *v = cell.get() as usize;
        }
        ShardSnapshot {
            shard: self.shard,
            accepted: self.accepted.get(),
            shed: self.shed.get(),
            processed,
            panics,
            store_errors: self.store_errors.get(),
            counters,
            stages: self.stages.snapshot(),
            queue_wait_us: self.queue_wait_us.snapshot(),
            service_us: self.service_us.snapshot(),
            total_us: self.total_us.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_counters_round_trip_through_the_shard_cells() {
        let registry = Registry::new();
        let metrics = ShardMetrics::register(&registry, 3);
        // Every field distinct (packets 1 … duplicates_suppressed 11), so
        // a swapped pair of cells shows.
        let mut c = SinkCounters::default();
        for (i, (_, v)) in sink_fields(&mut c).into_iter().enumerate() {
            *v = i + 1;
        }
        let mut fed = SinkCounters::default();
        metrics.feed_sink_counters(c, &mut fed);
        metrics.feed_sink_counters(c + c, &mut fed);
        assert_eq!(fed, c + c);
        assert_eq!(metrics.snapshot().counters, c + c);
        let text = registry.prometheus_text();
        assert!(text.contains("pnm_sink_packets_total{shard=\"3\"} 2"));
        assert!(text.contains("pnm_sink_duplicates_suppressed_total{shard=\"3\"} 22"));
        assert!(text.contains("pnm_sink_stage_ns_count{shard=\"3\",stage=\"verify\"} 0"));
    }

    #[test]
    fn stage_metrics_merge_across_shards() {
        let mut a = ShardSnapshot::default();
        a.stages.classify.record(10);
        let mut b = ShardSnapshot::default();
        b.stages.classify.record(20);
        b.stages.localize.record(5);
        let snap = ServiceSnapshot {
            shards: vec![a, b],
            ..ServiceSnapshot::default()
        };
        let merged = snap.stage_metrics();
        assert_eq!(merged.classify.count(), 2);
        assert_eq!(merged.localize.count(), 1);
        assert_eq!(merged.verify.count(), 0);
    }
}
