//! Build-time description of a traceback service.

use std::sync::Arc;
use std::time::Duration;

use pnm_core::{EvidenceStore, SinkConfig};
use pnm_obs::FlightRecorder;
use pnm_wire::Packet;

/// A fault-injection predicate evaluated by each shard worker before a
/// packet reaches the engine; returning `true` makes the worker panic as
/// if the packet had crashed the pipeline. See
/// [`ServiceConfig::poison_hook`].
pub type PoisonHook = Arc<dyn Fn(&Packet) -> bool + Send + Sync>;

/// What `ingest` does when a shard's bounded queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the caller until the shard drains a slot. Ingestion never
    /// loses a packet; a slow sink slows its producers (the default).
    #[default]
    Block,
    /// Shed the packet immediately and count the drop. Producers never
    /// stall; the snapshot accounts every shed packet exactly.
    Shed,
}

/// Configuration for a [`ServicePool`](crate::ServicePool).
///
/// Only the inner [`SinkConfig`] is mandatory; defaults give one shard per
/// available core (capped at 8), a 1024-slot queue per shard, and blocking
/// backpressure.
#[derive(Clone)]
pub struct ServiceConfig {
    sink: SinkConfig,
    shards: usize,
    queue_capacity: usize,
    backpressure: BackpressurePolicy,
    keep_outcomes: bool,
    start_paused: bool,
    poison_hook: Option<PoisonHook>,
    drain_timeout: Duration,
    stage_timing: bool,
    store: Option<Arc<dyn EvidenceStore>>,
    flight: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("sink", &self.sink)
            .field("shards", &self.shards)
            .field("queue_capacity", &self.queue_capacity)
            .field("backpressure", &self.backpressure)
            .field("keep_outcomes", &self.keep_outcomes)
            .field("start_paused", &self.start_paused)
            .field("poison_hook", &self.poison_hook.as_ref().map(|_| "<fn>"))
            .field("drain_timeout", &self.drain_timeout)
            .field("stage_timing", &self.stage_timing)
            .field("store", &self.store.as_ref().map(|_| "<store>"))
            .field("flight", &self.flight.as_ref().map(|_| "<recorder>"))
            .finish()
    }
}

impl ServiceConfig {
    /// A service running the given sink pipeline in every shard.
    pub fn new(sink: SinkConfig) -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        ServiceConfig {
            sink,
            shards,
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Block,
            keep_outcomes: false,
            start_paused: false,
            poison_hook: None,
            drain_timeout: Duration::from_secs(30),
            stage_timing: true,
            store: None,
            flight: None,
        }
    }

    /// Sets the number of worker shards (≥ 1), each owning its own
    /// [`SinkEngine`](pnm_core::SinkEngine).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets each shard's bounded queue capacity (≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the full-queue policy.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Keeps every per-packet [`SinkOutcome`](pnm_core::SinkOutcome),
    /// keyed by admission sequence number, for the drain report. Off by
    /// default — a long-running service should not grow unboundedly; turn
    /// it on for audits, experiments, and equivalence tests.
    pub fn keep_outcomes(mut self, keep: bool) -> Self {
        self.keep_outcomes = keep;
        self
    }

    /// Starts the workers paused: queues fill (and, under
    /// [`BackpressurePolicy::Shed`], shed deterministically) until
    /// [`ServicePool::resume`](crate::ServicePool::resume) releases them.
    /// Useful for pre-loading a burst and for exact backpressure tests.
    pub fn start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }

    /// Installs a fault-injection predicate: each shard worker evaluates
    /// it on every dequeued packet *before* the engine sees the packet,
    /// and panics if it returns `true` — simulating a packet that crashes
    /// the pipeline. The supervisor catches the panic, records the packet
    /// as poison, and restarts the shard from its last checkpoint. Chaos
    /// and supervision tests use this; production services leave it unset.
    pub fn poison_hook(mut self, hook: impl Fn(&Packet) -> bool + Send + Sync + 'static) -> Self {
        self.poison_hook = Some(Arc::new(hook));
        self
    }

    /// Sets the drain watchdog budget: [`drain`](crate::ServicePool::drain)
    /// waits at most this long, in total, for shards to hand in their
    /// final state. Shards that miss the deadline are recorded as wedged
    /// and detached rather than joined, so `drain` can never hang.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Enables or disables per-stage latency histograms in the shard
    /// engines (on by default), overriding the sink config's
    /// [`SinkConfig::stage_timing`]. When on, the shard engines fill the
    /// pool's `pnm_sink_stage_ns{shard,stage}` series and each
    /// [`ShardSnapshot`](crate::ShardSnapshot) carries a populated
    /// [`StageMetrics`](pnm_core::StageMetrics) breakdown; turning it off
    /// removes the clock read per pipeline stage.
    pub fn stage_timing(mut self, enabled: bool) -> Self {
        self.stage_timing = enabled;
        self
    }

    /// Attaches a durable evidence store: every shard appends an evidence
    /// delta at each checkpoint (after every successfully processed
    /// packet) and again as it exits at drain, so the store always holds
    /// the pool's evidence up to the last checkpoint. A pool killed
    /// mid-ingest is rebuilt with
    /// [`ServicePool::recover`](crate::ServicePool::recover).
    /// Append failures are counted per shard (see
    /// [`ShardSnapshot::store_errors`](crate::ShardSnapshot)) rather than
    /// crashing the worker; a failed delta is carried into the shard's
    /// next append, across a poison restart too. Without a store,
    /// checkpoints stay in memory.
    pub fn store(mut self, store: Arc<dyn EvidenceStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached evidence store, if any.
    pub fn store_handle(&self) -> Option<&Arc<dyn EvidenceStore>> {
        self.store.as_ref()
    }

    /// Arms a flight recorder: shard workers dump its ring as an
    /// anomaly-tagged black-box when a poison packet is quarantined,
    /// a drain watchdog detaches a wedged shard, or a store append
    /// fails. Pair it with a [`SinkConfig::tracer`] fed by the same
    /// recorder so the black-box holds the events leading up to the
    /// anomaly. Unset by default: no recording, no dumps.
    pub fn flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// The armed flight recorder, if any.
    pub fn flight_recorder_handle(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// The per-shard sink pipeline configuration, tracer included: shard
    /// engines report to [`SinkConfig::tracer_handle`].
    pub fn sink(&self) -> &SinkConfig {
        &self.sink
    }

    /// Whether shard engines record per-stage latency histograms.
    pub fn stage_timing_enabled(&self) -> bool {
        self.stage_timing
    }

    /// The configured fault-injection predicate, if any.
    pub fn poison_hook_fn(&self) -> Option<&PoisonHook> {
        self.poison_hook.as_ref()
    }

    /// Configured drain watchdog budget.
    pub fn drain_timeout_budget(&self) -> Duration {
        self.drain_timeout
    }

    /// Configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Configured per-shard queue capacity.
    pub fn queue_capacity_per_shard(&self) -> usize {
        self.queue_capacity
    }

    /// Configured full-queue policy.
    pub fn backpressure_policy(&self) -> BackpressurePolicy {
        self.backpressure
    }

    /// Whether per-packet outcomes are retained for the drain report.
    pub fn keeps_outcomes(&self) -> bool {
        self.keep_outcomes
    }

    /// Whether workers start paused.
    pub fn starts_paused(&self) -> bool {
        self.start_paused
    }
}
