//! The sharded worker pool: bounded-queue ingestion, hash partitioning,
//! backpressure, shard supervision, drain, and cross-shard merge.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::collections::BTreeMap;
use std::path::Path;

use pnm_core::store::{DeltaWriter, Evidence, EvidenceStore, LogStore, StoreError};
use pnm_core::{SinkConfig, SinkCounters, SinkEngine, SinkOutcome};
use pnm_crypto::KeyStore;
use pnm_obs::{FieldValue, FlightRecorder, Registry, TraceContext};
use pnm_wire::Packet;

use crate::config::{BackpressurePolicy, PoisonHook, ServiceConfig};
use crate::telemetry::{ServiceSnapshot, ShardMetrics};

/// Why `ingest` refused a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The service is closed (draining or drained); the packet was not
    /// enqueued.
    Closed,
    /// The target shard's queue was full under
    /// [`BackpressurePolicy::Shed`]; the drop was counted in the shard's
    /// shed counter.
    Shed,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Closed => write!(f, "service is closed to new packets"),
            IngestError::Shed => write!(f, "shard queue full; packet shed"),
        }
    }
}

impl std::error::Error for IngestError {}

/// One enqueued unit of work.
struct Job {
    seq: u64,
    now_us: u64,
    enqueued: Instant,
    /// Trace context carried across the queue hand-off: the shard engine
    /// opens its `sink.ingest` span inside it, so the packet's pool pass
    /// stays in the trace the caller (gateway/client) started.
    ctx: TraceContext,
    packet: Packet,
}

/// A packet that crashed a shard worker. The supervisor caught the panic,
/// quarantined the packet's encoded bytes here, and restarted the shard
/// engine from its last good checkpoint — the poison packet contributes
/// no evidence and cannot crash the service again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoisonRecord {
    /// Admission sequence number of the poison packet.
    pub seq: u64,
    /// Index of the shard the packet crashed.
    pub shard: usize,
    /// The packet's encoded bytes, kept for offline analysis.
    pub bytes: Vec<u8>,
    /// The panic message the crash produced.
    pub panic: String,
}

/// What a worker hands back when it exits.
struct ShardFinal {
    engine: SinkEngine,
    outcomes: Vec<(u64, SinkOutcome)>,
    poisoned: Vec<PoisonRecord>,
}

/// Everything a shard worker needs besides its job queue.
struct ShardContext {
    shard: usize,
    keys: Arc<KeyStore>,
    sink: SinkConfig,
    /// The shard's cells in the pool registry; the worker records into
    /// them as it goes.
    metrics: ShardMetrics,
    gate: Arc<(Mutex<bool>, Condvar)>,
    keep_outcomes: bool,
    poison: Option<PoisonHook>,
    /// Armed black-box: dumped on poison quarantine and store-append
    /// failure, tagged with the offending trace id.
    flight: Option<Arc<FlightRecorder>>,
    done: Sender<(usize, ShardFinal)>,
    /// Durable evidence backend; when set, every checkpoint delta is also
    /// appended here.
    store: Option<Arc<dyn EvidenceStore>>,
    /// Evidence replayed from the store for this shard (crash recovery):
    /// the worker's first checkpoint, already in the store.
    recover: Option<Evidence>,
}

/// What [`ServicePool::recover`] found in the store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid records replayed from the store.
    pub records: usize,
    /// Frames found damaged (torn tail, bad CRC) and skipped/truncated.
    pub rejected_frames: usize,
    /// Distinct writer shards present in the store.
    pub source_shards: usize,
    /// Packets of evidence restored (sum of replayed packet counters).
    pub packets_restored: usize,
}

/// Everything the service knows once fully drained.
#[derive(Debug)]
pub struct DrainReport {
    /// The cross-shard merged engine: every shard's counters, route
    /// evidence, and quarantine state absorbed into one
    /// [`SinkEngine`], with the configured isolation policy re-applied to
    /// the merged localization (see [`SinkEngine::absorb`]). Query it like
    /// any sequential engine: `localize()`, `source_regions()`,
    /// `quarantine()`, `counters()`. Its work counters are its shard
    /// engines' own: they count from each engine's last (re)start.
    pub engine: SinkEngine,
    /// Final telemetry (identical in shape to a live snapshot).
    pub snapshot: ServiceSnapshot,
    /// Per-packet outcomes keyed by admission sequence number, ascending.
    /// Empty unless the service was configured with
    /// [`keep_outcomes`](crate::ServiceConfig::keep_outcomes).
    pub outcomes: Vec<(u64, SinkOutcome)>,
    /// Packets that crashed a shard worker, ascending by sequence number.
    /// Each one was quarantined and its shard restarted from the last
    /// good checkpoint; none contributed evidence to `engine`.
    pub poisoned: Vec<PoisonRecord>,
    /// Shards that failed to hand in their final state within the drain
    /// watchdog budget ([`ServiceConfig::drain_timeout`]). Their threads
    /// were detached, and their evidence is missing from `engine`.
    pub wedged: Vec<usize>,
}

/// A long-running, sharded traceback service.
///
/// `shards` worker threads each own a private [`SinkEngine`]; packets are
/// hash-partitioned by report bytes, so every packet carrying the same
/// report lands on the same shard and the report-keyed anonymous-ID table
/// cache stays shard-local — no locks on the hot path, and `k` shards hold
/// `k×` the aggregate table cache. Ingestion goes through bounded queues
/// with an explicit full-queue policy; [`ServicePool::close`] rejects new
/// packets while workers finish the backlog, and [`ServicePool::drain`]
/// joins the shards and merges their evidence into one engine.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, VerifyMode};
/// use pnm_crypto::KeyStore;
/// use pnm_service::{ServiceConfig, ServicePool};
/// use pnm_wire::{Location, NodeId, Packet, Report};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let keys = Arc::new(KeyStore::derive_from_master(b"deployment", 10));
/// let scheme = ProbabilisticNestedMarking::paper_default(10);
/// let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(2);
/// let pool = ServicePool::new(Arc::clone(&keys), config);
/// let mut rng = StdRng::seed_from_u64(7);
///
/// for seq in 0..100u64 {
///     let report = Report::new(format!("bogus-{seq}").into_bytes(), Location::new(0.0, 0.0), seq);
///     let mut pkt = Packet::new(report);
///     for hop in 0..10u16 {
///         let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
///         scheme.mark(&ctx, &mut pkt, &mut rng);
///     }
///     pool.ingest(pkt).unwrap();
/// }
/// let report = pool.drain();
/// assert_eq!(report.engine.unequivocal_source(), Some(NodeId(0)));
/// assert_eq!(report.snapshot.processed, 100);
/// ```
pub struct ServicePool {
    config: ServiceConfig,
    /// `None` once closed; senders dropped so workers run the queue dry.
    senders: Mutex<Option<Vec<SyncSender<Job>>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Workers report their final state here before exiting; `drain`
    /// collects with a timeout so a wedged shard cannot hang it.
    done_rx: Mutex<Option<Receiver<(usize, ShardFinal)>>>,
    /// Each shard's cells in `registry`, indexed by shard.
    metrics: Vec<ShardMetrics>,
    registry: Registry,
    next_seq: AtomicU64,
    /// Start gate: workers wait here while `true` (see
    /// [`ServiceConfig::start_paused`]).
    gate: Arc<(Mutex<bool>, Condvar)>,
    keys: Arc<KeyStore>,
}

impl ServicePool {
    /// Spawns the worker shards and returns the running service, started
    /// from whatever the config's attached store holds (see
    /// [`ServicePool::recover`]): a pool restarted on the same store
    /// carries on from its evidence, and one without a store starts empty.
    ///
    /// Every shard engine is built from the same sink config with the
    /// isolation stage stripped: shard-local quarantine would depend on
    /// which packets a shard happened to see, so the service applies the
    /// policy once, to the cross-shard merged route graph, at drain time.
    ///
    /// The drained evidence equals, byte for byte, the evidence of one
    /// engine fed the same stream and swept the same way — for any shard
    /// count and table-cache capacity. Two engine-local windows are
    /// outside that contract: a [`SinkConfig::dedup`] window and a rate-
    /// limiting [`TrafficClassifier`](pnm_core::TrafficClassifier) each see
    /// only their shard's share of the stream, so a pool using either may
    /// admit or reject packets one engine would not.
    ///
    /// # Panics
    ///
    /// Panics if the attached store's replay fails (I/O, bad header);
    /// [`ServicePool::recover`] returns that as an error instead.
    pub fn new(keys: impl Into<Arc<KeyStore>>, config: ServiceConfig) -> Self {
        match config.store_handle() {
            Some(_) => {
                Self::recover(keys, config)
                    .expect("replay the attached evidence store")
                    .0
            }
            None => Self::build(keys.into(), config, BTreeMap::new()),
        }
    }

    /// [`ServicePool::new`] for a pool with a store, returning what the
    /// store held instead of panicking on a failed replay — the restart
    /// path after a process crash. The store is replayed once; each
    /// persisted shard's evidence is installed into the worker shard it
    /// maps to (`log shard % shard count`, so a pool may recover a log
    /// written with a different shard count), and the same store is
    /// re-attached for continued appends. The replayed evidence is each
    /// worker's first checkpoint, and a checkpoint's deltas start after
    /// it, so recovery never re-appends what was replayed.
    ///
    /// Recovery and the poison-quarantine restart share one code path: a
    /// fresh engine plus [`SinkEngine::install_evidence`] of the
    /// checkpoint, whether that checkpoint was replayed from the log or
    /// kept in memory by a running shard.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAttached`] if the config has no store;
    /// otherwise whatever the store's replay returns (I/O, bad header).
    /// Damaged individual records are *counted* in
    /// [`RecoveryStats::rejected_frames`], not errors.
    pub fn recover(
        keys: impl Into<Arc<KeyStore>>,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryStats), StoreError> {
        let Some(store) = config.store_handle() else {
            return Err(StoreError::NotAttached);
        };
        let replay = store.replay()?;
        let shards = config.shard_count();
        let mut recover: BTreeMap<usize, Evidence> = BTreeMap::new();
        let mut packets = 0usize;
        for (&log_shard, evidence) in &replay.shards {
            packets += evidence.counters.packets;
            recover
                .entry(log_shard as usize % shards)
                .or_default()
                .merge(evidence);
        }
        let stats = RecoveryStats {
            records: replay.records,
            rejected_frames: replay.rejected_frames,
            source_shards: replay.shards.len(),
            packets_restored: packets,
        };
        Ok((Self::build(keys.into(), config, recover), stats))
    }

    /// Convenience wrapper: opens (or creates) the append-only
    /// [`LogStore`] at `path`, attaches it to `config`, and recovers.
    /// Opening already truncates any torn tail left by the crash, so the
    /// replayed evidence is exactly the log's last consistent prefix.
    ///
    /// # Errors
    ///
    /// Whatever [`LogStore::open`] or [`ServicePool::recover`] return.
    pub fn recover_from_log(
        keys: impl Into<Arc<KeyStore>>,
        config: ServiceConfig,
        path: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryStats), StoreError> {
        let store = Arc::new(LogStore::open(path)?);
        Self::recover(keys, config.store(store))
    }

    fn build(
        keys: Arc<KeyStore>,
        config: ServiceConfig,
        mut recover: BTreeMap<usize, Evidence>,
    ) -> Self {
        // Prewarm the precomputed HMAC schedule before any shard spawns:
        // the build runs exactly once here, and every shard's verifier picks
        // up the same cached `Arc<KeySchedule>` through the shared keystore
        // instead of racing to build its own on first packet.
        let _ = keys.schedule();
        let shards = config.shard_count();
        let shard_sink = config
            .sink()
            .clone()
            .without_isolation()
            .stage_timing(config.stage_timing_enabled());
        let gate = Arc::new((Mutex::new(config.starts_paused()), Condvar::new()));
        let registry = Registry::new();

        let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, ShardFinal)>();
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        // Every shard's series exists before any worker starts.
        let metrics: Vec<ShardMetrics> = (0..shards)
            .map(|shard| ShardMetrics::register(&registry, shard))
            .collect();
        for (shard, shard_metrics) in metrics.iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(config.queue_capacity_per_shard());
            let recover = recover.remove(&shard);
            // The replayed checkpoint's counters count once, before any
            // packet: the shard engine starts holding them.
            if let Some(evidence) = &recover {
                shard_metrics
                    .feed_sink_counters(evidence.counters.into(), &mut SinkCounters::default());
            }
            let ctx = ShardContext {
                shard,
                keys: Arc::clone(&keys),
                sink: shard_sink.clone(),
                metrics: shard_metrics.clone(),
                gate: Arc::clone(&gate),
                keep_outcomes: config.keeps_outcomes(),
                poison: config.poison_hook_fn().cloned(),
                flight: config.flight_recorder_handle().cloned(),
                done: done_tx.clone(),
                store: config.store_handle().cloned(),
                recover,
            };
            handles.push(std::thread::spawn(move || shard_worker(rx, ctx)));
            senders.push(tx);
        }
        // Workers hold the only senders: once every shard has exited (or
        // wedged), the done channel disconnects instead of blocking drain.
        drop(done_tx);

        ServicePool {
            senders: Mutex::new(Some(senders)),
            handles: Mutex::new(handles),
            done_rx: Mutex::new(Some(done_rx)),
            metrics,
            registry,
            next_seq: AtomicU64::new(0),
            gate,
            keys,
            config,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.config.shard_count()
    }

    /// The shard a packet partitions to (FNV-1a over the report bytes —
    /// the same key the anonymous-ID table cache uses, which is the point:
    /// all deliveries of one report share one shard's cache entry).
    pub fn shard_of(&self, packet: &Packet) -> usize {
        (fnv1a64(&packet.report.to_bytes()) % self.shards() as u64) as usize
    }

    /// Enqueues a packet, stamped with the report's own timestamp (as
    /// [`SinkEngine::ingest`] does). Returns the packet's admission
    /// sequence number.
    pub fn ingest(&self, packet: Packet) -> Result<u64, IngestError> {
        let now_us = packet.report.timestamp;
        self.ingest_at(packet, now_us)
    }

    /// Enqueues a packet with an explicit arrival clock for the
    /// classifier's rate window.
    ///
    /// Under [`BackpressurePolicy::Block`] a full shard queue blocks the
    /// caller until the shard catches up; under
    /// [`BackpressurePolicy::Shed`] the packet is dropped, the drop is
    /// counted, and `Err(IngestError::Shed)` is returned. Sequence numbers
    /// are admission tickets: a shed ticket never reappears, so retained
    /// outcomes may have gaps under shedding.
    pub fn ingest_at(&self, packet: Packet, now_us: u64) -> Result<u64, IngestError> {
        self.ingest_ctx(packet, now_us, TraceContext::NONE)
    }

    /// [`ServicePool::ingest_at`] inside a caller-supplied trace
    /// context. The context rides the shard queue with the packet and
    /// the worker's engine opens its spans inside it — parentage
    /// survives the thread hand-off. [`TraceContext::NONE`] makes this
    /// identical to `ingest_at`.
    pub fn ingest_ctx(
        &self,
        packet: Packet,
        now_us: u64,
        ctx: TraceContext,
    ) -> Result<u64, IngestError> {
        let shard = self.shard_of(&packet);
        // Clone the sender out of the lock so a blocking send never holds
        // the senders mutex against `close`.
        let tx = {
            let guard = self.senders.lock().expect("senders lock");
            match guard.as_ref() {
                Some(senders) => senders[shard].clone(),
                None => return Err(IngestError::Closed),
            }
        };
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            seq,
            now_us,
            enqueued: Instant::now(),
            ctx,
            packet,
        };
        match self.config.backpressure_policy() {
            BackpressurePolicy::Block => {
                tx.send(job).map_err(|_| IngestError::Closed)?;
            }
            BackpressurePolicy::Shed => match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.metrics[shard].shed.inc();
                    return Err(IngestError::Shed);
                }
                Err(TrySendError::Disconnected(_)) => return Err(IngestError::Closed),
            },
        }
        self.metrics[shard].accepted.inc();
        Ok(seq)
    }

    /// Releases workers held at the start gate (no-op when not paused).
    pub fn resume(&self) {
        let (lock, cvar) = &*self.gate;
        *lock.lock().expect("gate lock") = false;
        cvar.notify_all();
    }

    /// Closes ingestion: subsequent `ingest` calls return
    /// [`IngestError::Closed`]; already-enqueued packets are still
    /// processed. Idempotent.
    pub fn close(&self) {
        self.senders.lock().expect("senders lock").take();
    }

    /// Whether [`ServicePool::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.senders.lock().expect("senders lock").is_none()
    }

    /// Closes ingestion and waits (until `deadline`) for every shard
    /// worker to run its queue dry and exit — which flushes each shard's
    /// **final durable checkpoint** to the attached store. Returns `true`
    /// if every worker finished in time, `false` if the deadline passed
    /// with a shard still busy (its thread keeps running; nothing is
    /// detached or lost).
    ///
    /// Unlike [`drain`](Self::drain) this borrows the pool: the final
    /// shard states stay queued on the done channel, so a later `drain`
    /// still produces the merged verdict — this is the "flush in-flight
    /// work before the process exits" half of a graceful shutdown, not a
    /// teardown.
    pub fn close_and_join(&self, deadline: Instant) -> bool {
        self.resume();
        self.close();
        loop {
            let all_done = self
                .handles
                .lock()
                .expect("handles lock")
                .iter()
                .all(|h| h.is_finished());
            if all_done {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Live cross-shard telemetry: a typed read of the shards' registry
    /// cells. Callable at any time; counters lag the queues by whatever is
    /// in flight.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot::from_shards(self.metrics.iter().map(ShardMetrics::snapshot).collect())
    }

    /// Packets accepted but not yet processed, as
    /// [`ServiceSnapshot::backlog`] counts them, from three counters per
    /// shard — cheap enough to poll while waiting for quiescence.
    pub fn backlog(&self) -> u64 {
        let (mut accepted, mut done) = (0, 0);
        for m in &self.metrics {
            done += m.processed.get() + m.panics.get();
            accepted += m.accepted.get();
        }
        accepted.saturating_sub(done)
    }

    /// The pool's metrics registry: the only store of its telemetry (see
    /// the crate docs). Every series carries a `shard` label.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Renders the pool's registry in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.registry.prometheus_text()
    }

    /// Gracefully drains and shuts down: closes ingestion, lets every
    /// shard finish its backlog, joins the workers, and merges their
    /// evidence (counters, route graph, quarantine) into one engine via
    /// [`SinkEngine::absorb`]. If an isolation policy was configured, the
    /// merged engine re-derives the quarantine from the merged
    /// localization and source regions — a pure function of the ingested
    /// packet set, independent of shard count and arrival interleaving.
    ///
    /// A drain watchdog bounds the wait: shards have
    /// [`ServiceConfig::drain_timeout`] in total to hand in their final
    /// state; any shard that misses the deadline is recorded in
    /// [`DrainReport::wedged`] and its thread detached, so `drain` returns
    /// even if a shard is stuck mid-packet.
    pub fn drain(self) -> DrainReport {
        self.resume();
        self.close();
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles lock"));
        let done_rx = self
            .done_rx
            .lock()
            .expect("done lock")
            .take()
            .expect("drain consumes the pool, so the receiver is present");
        let shard_count = handles.len();
        let deadline = Instant::now() + self.config.drain_timeout_budget();
        let mut finals: Vec<Option<ShardFinal>> = Vec::new();
        finals.resize_with(shard_count, || None);
        let mut received = 0usize;
        while received < shard_count {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match done_rx.recv_timeout(remaining) {
                Ok((shard, fin)) => {
                    finals[shard] = Some(fin);
                    received += 1;
                }
                // Timeout: the budget is spent. Disconnected: every
                // remaining worker died without reporting. Either way the
                // missing shards are wedged.
                Err(_) => break,
            }
        }
        let mut wedged = Vec::new();
        for (shard, handle) in handles.into_iter().enumerate() {
            if finals[shard].is_some() {
                // Reported shards return right after sending; join is
                // bounded. A panicked-after-report worker is harmless.
                let _ = handle.join();
            } else {
                wedged.push(shard);
                drop(handle);
            }
        }
        if !wedged.is_empty() {
            // A detached shard is an anomaly: its evidence is gone from
            // the merge. Black-box the run-up for the post-mortem.
            if let Some(flight) = self.config.flight_recorder_handle() {
                let _ = flight.dump(
                    "watchdog_detach",
                    &[
                        ("wedged_shards", FieldValue::U64(wedged.len() as u64)),
                        ("first_shard", FieldValue::U64(wedged[0] as u64)),
                    ],
                );
            }
        }
        let mut merged = SinkEngine::new(Arc::clone(&self.keys), self.config.sink().clone());
        let mut outcomes: Vec<(u64, SinkOutcome)> = Vec::new();
        let mut poisoned: Vec<PoisonRecord> = Vec::new();
        for fin in finals.into_iter().flatten() {
            merged.absorb(&fin.engine);
            outcomes.extend(fin.outcomes);
            poisoned.extend(fin.poisoned);
        }
        merged.refresh_quarantine();
        merged.quarantine_source_regions();
        outcomes.sort_by_key(|(seq, _)| *seq);
        poisoned.sort_by_key(|p| p.seq);
        DrainReport {
            snapshot: self.snapshot(),
            engine: merged,
            outcomes,
            poisoned,
            wedged,
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        // Un-drained pools must not strand workers: release the gate and
        // drop the senders so every shard runs dry and exits.
        self.resume();
        self.close();
    }
}

/// A fresh shard engine holding exactly `evidence`: the one restart path,
/// shared by crash recovery (evidence replayed from the store) and poison
/// restart (the last good checkpoint). The engine records its stage laps
/// into the shard's registry cells, which outlive every engine: the
/// latency history is observability, not evidence.
fn restore_engine(ctx: &ShardContext, evidence: &Evidence) -> SinkEngine {
    let mut engine = SinkEngine::new(Arc::clone(&ctx.keys), ctx.sink.clone())
        .with_stage_histograms(ctx.metrics.stages.clone());
    engine.install_evidence(evidence);
    // The installed evidence is the checkpoint itself, already in the
    // store when there is one: the next delta starts after it.
    engine.take_evidence_delta();
    engine
}

/// One shard's supervised processing loop.
///
/// After every successful packet the worker adds the engine's counter
/// growth to the shard's registry cells, takes the engine's evidence
/// delta ([`SinkEngine::take_evidence_delta`]), merges it into the
/// in-memory checkpoint, and appends it to the store, if one is attached.
/// Its processed, panic and store-error counts and latency histograms go
/// straight into the same cells; nothing is copied per packet.
/// Each packet runs under [`catch_unwind`]: a panic — whether
/// from the engine or from an injected
/// [`PoisonHook`](crate::config::PoisonHook) — is caught, the packet is
/// recorded as poison, and the shard restarts from a fresh engine holding
/// the checkpoint, exactly as crash recovery restarts from the replayed
/// log. The store writer outlives the engine, so a delta whose append
/// failed is still written after a restart. Before exiting, the worker
/// hands its final state to the drain watchdog through the `done` channel.
fn shard_worker(rx: Receiver<Job>, mut ctx: ShardContext) {
    {
        let (lock, cvar) = &*ctx.gate;
        let mut paused = lock.lock().expect("gate lock");
        while *paused {
            paused = cvar.wait(paused).expect("gate wait");
        }
    }
    // The last good checkpoint: the evidence as of the last successful
    // packet, starting from whatever the store replayed for this shard.
    let mut checkpoint = ctx.recover.take().unwrap_or_default();
    let mut engine = restore_engine(&ctx, &checkpoint);
    // The engine's counters as last fed to the registry: `build` fed the
    // recovered checkpoint's.
    let mut fed = engine.counters();
    let metrics = &ctx.metrics;
    let mut writer = ctx
        .store
        .as_ref()
        .map(|store| DeltaWriter::new(Arc::clone(store), ctx.shard as u32));
    let mut outcomes = Vec::new();
    let mut poisoned = Vec::new();
    while let Ok(job) = rx.recv() {
        let dequeued = Instant::now();
        let queue_wait = dequeued.duration_since(job.enqueued).as_micros() as u64;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &ctx.poison {
                if hook(&job.packet) {
                    panic!("injected poison packet (seq {})", job.seq);
                }
            }
            engine.ingest_ctx(&job.packet, job.now_us, job.ctx)
        }));
        let service = dequeued.elapsed().as_micros() as u64;
        match result {
            Ok(outcome) => {
                metrics.feed_sink_counters(engine.counters(), &mut fed);
                let delta = engine.take_evidence_delta();
                checkpoint.merge(&delta);
                // Durable checkpoint: append the same delta. A failed
                // append is counted, never fatal — the writer keeps the
                // delta and retries it with the next one.
                let store_failed = writer
                    .as_mut()
                    .is_some_and(|writer| writer.append(delta).is_err());
                if store_failed {
                    metrics.store_errors.inc();
                    // Growing store_errors is an anomaly: black-box the
                    // events that led to the failed append.
                    if let Some(flight) = &ctx.flight {
                        let _ = flight.dump(
                            "store_error",
                            &[
                                ("trace", FieldValue::U64(job.ctx.trace)),
                                ("seq", FieldValue::U64(job.seq)),
                                ("shard", FieldValue::U64(ctx.shard as u64)),
                            ],
                        );
                    }
                }
                metrics.queue_wait_us.record(queue_wait);
                metrics.service_us.record(service);
                metrics.total_us.record(queue_wait.saturating_add(service));
                // Last: a reader that sees the packet processed sees all
                // of the above.
                metrics.processed.inc();
                if ctx.keep_outcomes {
                    outcomes.push((job.seq, outcome));
                }
            }
            Err(payload) => {
                // The panic may have left the engine mid-mutation (memory
                // safe but logically partial), so restart from the last
                // state known to be a complete merge. Its counters never
                // reached the registry; the stage laps it completed before
                // the panic stay recorded. The checkpoint holds no work
                // counters, so the new engine counts its work from zero
                // while the registry keeps the shard's totals.
                engine = restore_engine(&ctx, &checkpoint);
                fed = engine.counters();
                let record = PoisonRecord {
                    seq: job.seq,
                    shard: ctx.shard,
                    bytes: job.packet.to_bytes(),
                    panic: panic_message(payload.as_ref()),
                };
                // Black-box the quarantine: the dump names the poisoned
                // trace so an operator can walk the packet's whole
                // journey up to the crash.
                if let Some(flight) = &ctx.flight {
                    let _ = flight.dump(
                        "poison_quarantine",
                        &[
                            ("trace", FieldValue::U64(job.ctx.trace)),
                            ("seq", FieldValue::U64(job.seq)),
                            ("shard", FieldValue::U64(ctx.shard as u64)),
                            ("panic", FieldValue::Str(record.panic.clone())),
                        ],
                    );
                }
                poisoned.push(record);
                metrics.panics.inc();
            }
        }
    }
    // Final durable checkpoint: a delta whose append failed is flushed
    // before the shard hands in its state, so a drained pool's log always
    // holds its complete evidence.
    if let Some(writer) = &mut writer {
        if writer.append(engine.take_evidence_delta()).is_err() {
            metrics.store_errors.inc();
        }
    }
    // The receiver is gone when drain's watchdog already gave up on the
    // whole pool; nothing useful remains to do with the state then.
    let _ = ctx.done.send((
        ctx.shard,
        ShardFinal {
            engine,
            outcomes,
            poisoned,
        },
    ));
}

/// Best-effort extraction of a human-readable panic message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// FNV-1a 64-bit — a stable, dependency-free partitioning hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnm_core::{
        MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, VerifyMode,
    };
    use pnm_wire::{Location, NodeId, Report};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys(n: u16) -> Arc<KeyStore> {
        Arc::new(KeyStore::derive_from_master(b"service-test", n))
    }

    fn marked_report(ks: &KeyStore, n: u16, report: Report, rng: &mut StdRng) -> Packet {
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut pkt = Packet::new(report);
        for hop in 0..n {
            let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
            scheme.mark(&ctx, &mut pkt, rng);
        }
        pkt
    }

    fn marked_packet(ks: &KeyStore, n: u16, seq: u64, rng: &mut StdRng) -> Packet {
        let report = Report::new(
            format!("svc-{seq}").into_bytes(),
            Location::new(seq as f32, 0.0),
            seq,
        );
        marked_report(ks, n, report, rng)
    }

    #[test]
    fn pool_converges_like_a_single_engine() {
        let n = 10u16;
        let ks = keys(n);
        let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(3);
        let pool = ServicePool::new(Arc::clone(&ks), config);
        let mut rng = StdRng::seed_from_u64(17);
        for seq in 0..120 {
            pool.ingest(marked_packet(&ks, n, seq, &mut rng)).unwrap();
        }
        let report = pool.drain();
        assert_eq!(report.engine.unequivocal_source(), Some(NodeId(0)));
        assert_eq!(report.snapshot.accepted, 120);
        assert_eq!(report.snapshot.processed, 120);
        assert_eq!(report.snapshot.shed, 0);
        assert_eq!(report.snapshot.totals.packets, 120);
        assert_eq!(report.engine.counters(), report.snapshot.totals);
        assert_eq!(report.snapshot.backlog(), 0);
        let total_us: u64 = report
            .snapshot
            .shards
            .iter()
            .map(|s| s.total_us.count())
            .sum();
        assert_eq!(total_us, 120);
    }

    #[test]
    fn partitioning_is_stable_and_report_keyed() {
        let n = 6u16;
        let ks = keys(n);
        let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(4);
        let pool = ServicePool::new(Arc::clone(&ks), config);
        let mut rng = StdRng::seed_from_u64(3);
        let a1 = marked_packet(&ks, n, 1, &mut rng);
        let a2 = marked_packet(&ks, n, 1, &mut rng); // same report, new marks
        let b = marked_packet(&ks, n, 2, &mut rng);
        assert_eq!(pool.shard_of(&a1), pool.shard_of(&a2));
        // Not a guarantee in general, but these two reports differ.
        let _ = pool.shard_of(&b);
        drop(pool);
    }

    /// The sink config's tracer is the one every shard traces into.
    #[test]
    fn sink_config_tracer_reaches_every_shard() {
        let ks = keys(6);
        let (tracer, ring) = pnm_obs::Tracer::ring(1 << 12);
        let sink = SinkConfig::new(VerifyMode::Nested).tracer(tracer);
        let pool = ServicePool::new(Arc::clone(&ks), ServiceConfig::new(sink).shards(2));
        let mut rng = StdRng::seed_from_u64(8);
        for seq in 0..5 {
            pool.ingest(marked_packet(&ks, 6, seq, &mut rng)).unwrap();
        }
        pool.drain();
        let opens = ring
            .events()
            .into_iter()
            .filter(|e| e.kind == pnm_obs::EventKind::SpanOpen);
        assert_eq!(opens.filter(|e| e.name == "sink.ingest").count(), 5);
    }

    #[test]
    fn stage_metrics_flow_from_engines_to_snapshot_and_drain() {
        let n = 10u16;
        let ks = keys(n);
        let (tracer, ring) = pnm_obs::Tracer::ring(1 << 14);
        let config =
            ServiceConfig::new(SinkConfig::new(VerifyMode::Nested).tracer(tracer)).shards(3);
        let pool = ServicePool::new(Arc::clone(&ks), config);
        let mut rng = StdRng::seed_from_u64(29);
        for seq in 0..90 {
            pool.ingest(marked_packet(&ks, n, seq, &mut rng)).unwrap();
        }
        let report = pool.drain();
        // Every distinct suspicious packet ran all five stages; the merged
        // engine and the snapshot agree on the breakdown.
        let merged = report.snapshot.stage_metrics();
        for (stage, hist) in merged.iter() {
            assert_eq!(hist.count(), 90, "stage {stage} undercounted");
        }
        assert_eq!(merged, report.engine.stage_metrics());
        // The shard engines traced into the shared ring: spans balance.
        let events = ring.events();
        assert!(!events.is_empty());
        let opens = events
            .iter()
            .filter(|e| e.kind == pnm_obs::EventKind::SpanOpen)
            .count();
        let closes = events
            .iter()
            .filter(|e| e.kind == pnm_obs::EventKind::SpanClose)
            .count();
        assert_eq!(opens, closes);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn stage_timing_off_leaves_snapshot_stages_empty() {
        let ks = keys(6);
        let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(2)
            .stage_timing(false);
        let pool = ServicePool::new(Arc::clone(&ks), config);
        let mut rng = StdRng::seed_from_u64(41);
        for seq in 0..20 {
            pool.ingest(marked_packet(&ks, 6, seq, &mut rng)).unwrap();
        }
        let report = pool.drain();
        assert_eq!(report.snapshot.processed, 20);
        assert!(report.snapshot.stage_metrics().is_empty());
    }

    #[test]
    fn metrics_text_exposes_counters_and_stage_histograms() {
        let n = 8u16;
        let ks = keys(n);
        let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(2);
        let pool = ServicePool::new(Arc::clone(&ks), config);
        let mut rng = StdRng::seed_from_u64(53);
        for seq in 0..30 {
            pool.ingest(marked_packet(&ks, n, seq, &mut rng)).unwrap();
        }
        pool.close();
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool.snapshot().backlog() > 0 {
            assert!(Instant::now() < deadline, "backlog never drained");
            std::thread::sleep(Duration::from_millis(2));
        }
        let text = pool.metrics_text();
        assert!(text.contains("# TYPE pnm_service_accepted_total counter"));
        assert!(text.contains("pnm_service_accepted_total{shard=\"0\"}"));
        assert!(text.contains("pnm_service_accepted_total{shard=\"1\"}"));
        assert!(text.contains("pnm_service_total_us_bucket"));
        // Every shard's sink series is its own; the shards add up to 30.
        let snap = pool.snapshot();
        assert_eq!(snap.totals.packets, 30);
        for s in &snap.shards {
            let (shard, n) = (s.shard, s.counters.packets);
            assert!(n > 0, "shard {shard} saw packets");
            let mut series = vec![format!("pnm_sink_packets_total{{shard=\"{shard}\"}}")];
            series.extend(pnm_core::STAGE_NAMES.map(|stage| {
                format!("pnm_sink_stage_ns_count{{shard=\"{shard}\",stage=\"{stage}\"}}")
            }));
            for key in series {
                assert!(text.contains(&format!("{key} {n}\n")), "{key} {n}:\n{text}");
            }
        }
        // Scrapes are idempotent: rendering writes nothing back.
        assert_eq!(text, pool.metrics_text());
        // Extra labels namespace every series for multi-tenant exposition
        // without forking the registry.
        let labelled = pool.registry().prometheus_text_with(&[("tenant", "alpha")]);
        assert!(labelled.contains("pnm_service_accepted_total{shard=\"0\",tenant=\"alpha\"}"));
        assert!(labelled.contains(&format!(
            "pnm_sink_packets_total{{shard=\"1\",tenant=\"alpha\"}} {}",
            snap.shards[1].counters.packets
        )));
        drop(pool);
    }

    #[test]
    fn poison_packet_is_quarantined_and_shard_restarts() {
        let n = 8u16;
        let ks = keys(n);
        let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(2)
            .keep_outcomes(true)
            .poison_hook(|pkt: &Packet| pkt.report.event.starts_with(b"poison"));
        let pool = ServicePool::new(Arc::clone(&ks), config);
        let mut rng = StdRng::seed_from_u64(21);
        let mut marked = 0;
        let mut ingest = |pkt: Packet| {
            marked += usize::from(!pkt.marks.is_empty());
            pool.ingest(pkt).unwrap();
        };
        for seq in 0..30 {
            ingest(marked_packet(&ks, n, seq, &mut rng));
        }
        let poison = marked_report(
            &ks,
            n,
            Report::new(b"poison-1".to_vec(), Location::new(0.0, 0.0), 7),
            &mut rng,
        );
        let poison_seq = pool.ingest(poison.clone()).unwrap();
        // The shard must keep processing after its restart.
        for seq in 30..40 {
            ingest(marked_packet(&ks, n, seq, &mut rng));
        }
        let report = pool.drain();

        assert_eq!(report.poisoned.len(), 1);
        assert_eq!(report.poisoned[0].seq, poison_seq);
        assert_eq!(report.poisoned[0].bytes, poison.to_bytes());
        assert!(report.poisoned[0].panic.contains("injected poison"));
        assert!(report.wedged.is_empty());
        assert_eq!(report.snapshot.panics, 1);
        assert_eq!(report.snapshot.processed, 40);
        assert_eq!(report.snapshot.accepted, 41);
        assert_eq!(report.snapshot.backlog(), 0);
        // The poison packet contributed no evidence and no outcome.
        assert_eq!(report.engine.counters().packets, 40);
        // The registry keeps the restarted shard's work: 40 distinct
        // reports, one table build per packet carrying a mark (one of the
        // 40 carries none), whatever the rebuilt engine counts.
        assert_eq!(marked, 39);
        assert_eq!(report.snapshot.totals.table_builds, marked);
        assert_eq!(
            report.snapshot.totals.verdict(),
            report.engine.counters().verdict()
        );
        assert_eq!(report.outcomes.len(), 40);
        assert!(report.outcomes.iter().all(|(s, _)| *s != poison_seq));
        assert_eq!(report.engine.unequivocal_source(), Some(NodeId(0)));
        // The restarted shard kept the stage histograms its evidence does
        // not carry: every surviving packet is sampled once per stage.
        for (stage, hist) in report.engine.stage_metrics().iter() {
            assert_eq!(hist.count(), 40, "stage {stage}");
        }
        assert_eq!(
            report.snapshot.stage_metrics(),
            report.engine.stage_metrics()
        );
    }

    #[test]
    fn drain_watchdog_detaches_a_wedged_shard() {
        let ks = keys(4);
        let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(1)
            .drain_timeout(Duration::from_millis(200))
            .poison_hook(|pkt: &Packet| {
                if pkt.report.event.starts_with(b"wedge") {
                    // Not a panic: a worker stuck forever mid-packet.
                    loop {
                        std::thread::park();
                    }
                }
                false
            });
        let pool = ServicePool::new(Arc::clone(&ks), config);
        let mut rng = StdRng::seed_from_u64(33);
        pool.ingest(marked_packet(&ks, 4, 0, &mut rng)).unwrap();
        pool.ingest(marked_report(
            &ks,
            4,
            Report::new(b"wedge".to_vec(), Location::new(0.0, 0.0), 1),
            &mut rng,
        ))
        .unwrap();
        let started = Instant::now();
        let report = pool.drain();
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(report.wedged, vec![0]);
        // The wedged shard never handed in its state: its evidence is
        // missing rather than the drain hanging.
        assert_eq!(report.engine.counters().packets, 0);
        assert!(report.poisoned.is_empty());
    }

    #[test]
    fn ingest_after_close_fails_promptly() {
        let ks = keys(4);
        let pool = ServicePool::new(
            Arc::clone(&ks),
            ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(1),
        );
        pool.close();
        let mut rng = StdRng::seed_from_u64(4);
        let started = Instant::now();
        assert_eq!(
            pool.ingest(marked_packet(&ks, 4, 0, &mut rng)).unwrap_err(),
            IngestError::Closed
        );
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn dropping_an_undrained_pool_does_not_hang() {
        let ks = keys(4);
        let config = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(2)
            .start_paused(true);
        let pool = ServicePool::new(Arc::clone(&ks), config);
        let mut rng = StdRng::seed_from_u64(9);
        pool.ingest(marked_packet(&ks, 4, 0, &mut rng)).unwrap();
        drop(pool); // must release the gate and the workers
    }
}
