//! The staged sink engine: every sink-side duty behind one API.
//!
//! The paper's sink performs a fixed pipeline on every arriving packet:
//! admit it past the traffic classifier (§5), verify its marks backwards
//! (§4.1), resolve anonymous IDs to real ids (§4.2/§7), fold the verified
//! chain into the reconstructed route (§4.2), and maintain the quarantine
//! implied by the current localization (§7). Before this module each
//! simulation runner wired those pieces together by hand, cloning the whole
//! [`KeyStore`] for every verifier it built. [`SinkEngine`] owns the
//! pipeline instead:
//!
//! 1. **classify** — optional [`TrafficClassifier`] gate; benign packets
//!    never reach verification.
//! 2. **resolve** — maps a packet's anonymous IDs to real ids in an
//!    [`AnonTable`]: the report's table from a per-report cache (brute-force
//!    §4.2), or, when [`SinkConfig::topology`] supplies adjacency, a table
//!    the §7 ring search grows around the node resolved for the mark below.
//!    A packet without an anonymous mark needs no table.
//! 3. **verify** — backward nested MAC verification: every mark checked
//!    against the table in one lane-parallel sweep.
//! 4. **reconstruct** — the verified chain feeds the [`RouteReconstructor`]
//!    order matrix.
//! 5. **localize / quarantine** — unequivocal-source tracking and, when an
//!    [`IsolationPolicy`] is configured, quarantine-set maintenance.
//!
//! The engine is built once from a [`SinkConfig`] plus a shared
//! `Arc<KeyStore>` and exposes per-packet [`SinkEngine::ingest`] and batch
//! [`SinkEngine::ingest_batch`]. Both run the identical code path — batch
//! ingestion produces byte-identical chains and counters — but the engine
//! amortizes the expensive anonymous-ID work across packets: a multi-entry
//! LRU table cache keyed by report bytes means `k` distinct reports cost
//! `k` table builds no matter how many packets carry them, as long as `k`
//! fits the cache ([`SinkConfig::table_cache_capacity`], default 8). A
//! stream cycling through more live reports than that — or a fresh report
//! per packet — builds a table per packet. Reusable scratch buffers keep
//! per-mark verification allocation-free. Uniform instrumentation
//! ([`SinkCounters`]) reports hash evaluations, mark verdicts, cache
//! behavior, and resolver fallbacks.

use std::collections::HashMap;
use std::ops::{Add, AddAssign};
use std::sync::Arc;

use std::time::Instant;

use pnm_crypto::KeyStore;
use pnm_obs::{TraceContext, Tracer};
use pnm_wire::{NodeId, Packet, WireError};
use serde::{Deserialize, Serialize};

use crate::classifier::{TrafficClassifier, Verdict};
use crate::isolation::{quarantine_set, IsolationPolicy, QuarantineFilter};
use crate::reconstruct::{AnnotatedLocalization, Localization, RouteReconstructor, SourceRegion};
use crate::replay::DuplicateSuppressor;
use crate::stage::{StageHistograms, StageMetrics};
use crate::store::{DeltaWriter, Evidence, EvidenceStore, StoreError, VerdictCounters};
use crate::verify::{AnonTable, SinkVerifier, TopologyResolver, VerifiedChain, VerifyMode};

/// Default number of per-report anonymous-ID tables the engine keeps live.
///
/// A source mole must vary report content to evade duplicate suppression,
/// but retransmissions and loss-recovery re-deliver the same report; a
/// small LRU window captures those without letting a report-varying mole
/// inflate sink memory.
const DEFAULT_TABLE_CACHE_CAPACITY: usize = 8;

/// Build-time description of a sink pipeline.
///
/// Only the verify mode is mandatory; everything else defaults to the plain
/// §4.2 sink (brute-force anonymous-ID resolution, no admission control, no
/// quarantine).
#[derive(Clone, Debug)]
pub struct SinkConfig {
    mode: VerifyMode,
    table_cache_capacity: usize,
    adjacency: Option<HashMap<u16, Vec<u16>>>,
    classifier: Option<TrafficClassifier>,
    isolation: Option<IsolationPolicy>,
    dedup_capacity: Option<usize>,
    min_support: usize,
    tracer: Tracer,
    stage_timing: bool,
}

impl SinkConfig {
    /// A pipeline verifying under `mode` with all optional stages disabled.
    pub fn new(mode: VerifyMode) -> Self {
        SinkConfig {
            mode,
            table_cache_capacity: DEFAULT_TABLE_CACHE_CAPACITY,
            adjacency: None,
            classifier: None,
            isolation: None,
            dedup_capacity: None,
            min_support: 1,
            tracer: Tracer::noop(),
            stage_timing: false,
        }
    }

    /// Sets how many per-report anonymous-ID tables stay cached (≥ 1).
    pub fn table_cache_capacity(mut self, capacity: usize) -> Self {
        self.table_cache_capacity = capacity.max(1);
        self
    }

    /// Supplies sink-known adjacency, switching anonymous-ID resolution to
    /// the §7 topology-guided ring search (and giving the quarantine stage
    /// its one-hop neighborhoods). Each anonymous mark is searched for in
    /// rings 0–3 around the node resolved for the mark below it, with a
    /// full ascending scan where the rings miss; the resolved table is
    /// verified by the same lane sweep as a §4.2 table, so chains are the
    /// brute-force engine's at a fraction of the `H'` cost.
    pub fn topology(mut self, adjacency: HashMap<u16, Vec<u16>>) -> Self {
        self.adjacency = Some(adjacency);
        self
    }

    /// Installs an admission-control classifier in front of verification.
    pub fn classifier(mut self, classifier: TrafficClassifier) -> Self {
        self.classifier = Some(classifier);
        self
    }

    /// Enables the quarantine stage under the given policy.
    pub fn isolation(mut self, policy: IsolationPolicy) -> Self {
        self.isolation = Some(policy);
        self
    }

    /// Enables idempotent duplicate suppression: a packet whose encoded
    /// bytes were already ingested (within the last `capacity` distinct
    /// packets) is rejected as [`RejectReason::Duplicate`] without touching
    /// any evidence. Duplicating links (MAC retransmissions, fault
    /// injection) then cannot skew support counts or rate windows.
    ///
    /// The window is this engine's own. A shard of a partitioned pool sees
    /// only its share of the stream, so its last `capacity` packets reach
    /// further back than one engine's, and it may suppress a copy one
    /// engine would have admitted. A pool running with `dedup` is
    /// therefore outside the sharded ≡ sequential equivalence contract.
    pub fn dedup(mut self, capacity: usize) -> Self {
        self.dedup_capacity = Some(capacity.max(1));
        self
    }

    /// Requires `n` supporting chains before
    /// [`SinkEngine::localize_annotated`] reports a single most-upstream
    /// node; thinner evidence widens to a region (default 1 = never widen).
    pub fn min_localization_support(mut self, n: usize) -> Self {
        self.min_support = n.max(1);
        self
    }

    /// Attaches a tracer. Untraced ingest emits one packet-level
    /// `sink.ingest` span plus table-build instants — cheap enough to
    /// keep armed permanently for the flight recorder. Packets carrying
    /// a [`TraceContext`] additionally get per-stage spans
    /// (`sink.classify`, `sink.verify`, `sink.resolve`,
    /// `sink.reconstruct`, `sink.localize`) as children of the trace.
    /// The default [`Tracer::noop`] is inert — the pipeline pays one
    /// branch per stage.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Enables per-stage latency histograms
    /// ([`SinkEngine::stage_metrics`]) without requiring a tracer — and a
    /// tracer does not imply them: spans already carry their own
    /// durations, so the histograms are a separate, explicit opt-in
    /// rather than a second set of clock reads taxing every traced
    /// packet. Default off: the uninstrumented pipeline never reads the
    /// clock.
    pub fn stage_timing(mut self, on: bool) -> Self {
        self.stage_timing = on;
        self
    }

    /// The tracer engines built from this config report to.
    pub fn tracer_handle(&self) -> &Tracer {
        &self.tracer
    }

    /// The configured verify mode.
    pub fn mode(&self) -> VerifyMode {
        self.mode
    }

    /// Drops the isolation stage from this config.
    ///
    /// A sharded service builds its per-shard engines from a config with
    /// isolation stripped: shard-local quarantine decisions would depend on
    /// which packets a shard happened to see, so the service instead applies
    /// the policy once, on the cross-shard merged route graph.
    pub fn without_isolation(mut self) -> Self {
        self.isolation = None;
        self
    }
}

/// Uniform instrumentation across every pipeline stage.
///
/// All counts are cumulative since engine construction. Batch and
/// per-packet ingestion update them identically. Counters from several
/// engines (e.g. the shards of a service pool) combine with
/// [`SinkCounters::merge`] or `+=` — every field is a plain sum.
///
/// Seven fields count packets and marks; they are the
/// [`VerdictCounters`] an engine's [`Evidence`] carries. The other four
/// (`hash_count`, `table_builds`, `table_cache_hits`,
/// `resolver_fallback_scans`) count the engine's own work, which depends
/// on its table cache: they are not evidence, so they are neither
/// checkpointed nor restored with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkCounters {
    /// Packets offered to the pipeline (including classified-out ones).
    pub packets: usize,
    /// Total `H'` evaluations spent on anonymous-ID resolution (table
    /// builds plus ring searches).
    pub hash_count: usize,
    /// Marks whose MAC verified.
    pub marks_verified: usize,
    /// Marks rejected (invalid MAC, unknown key, or unreachable past the
    /// first invalid mark).
    pub marks_rejected: usize,
    /// Anonymous-ID tables built.
    pub table_builds: usize,
    /// Verifications served by an already-cached table.
    pub table_cache_hits: usize,
    /// Topology resolutions that missed the ring search and fell back to
    /// the full sorted scan.
    pub resolver_fallback_scans: usize,
    /// Packets the classifier admitted as suspicious.
    pub suspicious: usize,
    /// Packets the classifier rejected as benign (never verified).
    pub benign: usize,
    /// Byte buffers that failed wire decoding (corrupted/garbled input).
    pub malformed: usize,
    /// Packets rejected as exact duplicates of an already-ingested packet.
    pub duplicates_suppressed: usize,
}

impl SinkCounters {
    /// Fraction of nested verifications served from the table cache
    /// (`hits / (hits + builds)`); `None` before any nested verification.
    pub fn table_cache_hit_rate(&self) -> Option<f64> {
        let total = self.table_builds + self.table_cache_hits;
        (total > 0).then(|| self.table_cache_hits as f64 / total as f64)
    }

    /// Folds another engine's counters into this one (field-wise sum).
    pub fn merge(&mut self, other: &SinkCounters) {
        *self += *other;
    }

    /// The seven verdict counters, without the engine's work counters.
    pub fn verdict(&self) -> VerdictCounters {
        VerdictCounters {
            packets: self.packets,
            marks_verified: self.marks_verified,
            marks_rejected: self.marks_rejected,
            suspicious: self.suspicious,
            benign: self.benign,
            malformed: self.malformed,
            duplicates_suppressed: self.duplicates_suppressed,
        }
    }

    /// The four work counters, with every verdict counter zero.
    fn work(&self) -> SinkCounters {
        SinkCounters {
            hash_count: self.hash_count,
            table_builds: self.table_builds,
            table_cache_hits: self.table_cache_hits,
            resolver_fallback_scans: self.resolver_fallback_scans,
            ..SinkCounters::default()
        }
    }
}

/// Verdict counters with every work counter zero.
impl From<VerdictCounters> for SinkCounters {
    fn from(v: VerdictCounters) -> Self {
        SinkCounters {
            packets: v.packets,
            marks_verified: v.marks_verified,
            marks_rejected: v.marks_rejected,
            suspicious: v.suspicious,
            benign: v.benign,
            malformed: v.malformed,
            duplicates_suppressed: v.duplicates_suppressed,
            ..SinkCounters::default()
        }
    }
}

impl AddAssign for SinkCounters {
    fn add_assign(&mut self, rhs: SinkCounters) {
        self.packets += rhs.packets;
        self.hash_count += rhs.hash_count;
        self.marks_verified += rhs.marks_verified;
        self.marks_rejected += rhs.marks_rejected;
        self.table_builds += rhs.table_builds;
        self.table_cache_hits += rhs.table_cache_hits;
        self.resolver_fallback_scans += rhs.resolver_fallback_scans;
        self.suspicious += rhs.suspicious;
        self.benign += rhs.benign;
        self.malformed += rhs.malformed;
        self.duplicates_suppressed += rhs.duplicates_suppressed;
    }
}

impl Add for SinkCounters {
    type Output = SinkCounters;

    fn add(mut self, rhs: SinkCounters) -> SinkCounters {
        self += rhs;
        self
    }
}

impl std::iter::Sum for SinkCounters {
    fn sum<I: Iterator<Item = SinkCounters>>(iter: I) -> SinkCounters {
        iter.fold(SinkCounters::default(), Add::add)
    }
}

/// Why the pipeline refused a packet before verification.
///
/// Rejections are *counted outcomes*, never panics: the sink must stay
/// total over whatever the network delivers, including corrupted frames
/// and replayed duplicates.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The bytes did not decode as a wire packet (bit corruption,
    /// truncation, garbage injection). Carries the structured decode error.
    Malformed(WireError),
    /// The exact packet bytes were already ingested; suppressing the copy
    /// keeps ingestion idempotent under duplicating links.
    Duplicate,
}

/// What the pipeline decided about one packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkOutcome {
    /// The classifier's verdict; `None` when no classifier is configured
    /// (every packet proceeds to verification).
    pub verdict: Option<Verdict>,
    /// The verified chain; `None` when the classifier rejected the packet
    /// as benign before verification or the packet was rejected outright.
    pub chain: Option<VerifiedChain>,
    /// Set when the packet was refused before verification (malformed
    /// bytes, suppressed duplicate); `None` on every admitted or
    /// classified packet.
    pub reject: Option<RejectReason>,
}

impl SinkOutcome {
    /// `true` if the packet reached the verify stage.
    pub fn admitted(&self) -> bool {
        self.chain.is_some()
    }

    /// `true` if the packet was refused before classification (malformed
    /// or duplicate).
    pub fn rejected(&self) -> bool {
        self.reject.is_some()
    }
}

/// The staged, batch-oriented sink: classify → verify/resolve →
/// reconstruct → localize/quarantine.
///
/// See the [module docs](self) for the pipeline description.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, SinkEngine, VerifyMode};
/// use pnm_crypto::KeyStore;
/// use pnm_wire::{Location, NodeId, Packet, Report};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let keys = Arc::new(KeyStore::derive_from_master(b"deployment", 10));
/// let scheme = ProbabilisticNestedMarking::paper_default(10);
/// let mut sink = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(VerifyMode::Nested));
/// let mut rng = StdRng::seed_from_u64(7);
///
/// for seq in 0..100u64 {
///     let report = Report::new(format!("bogus-{seq}").into_bytes(), Location::new(0.0, 0.0), seq);
///     let mut pkt = Packet::new(report);
///     for hop in 0..10u16 {
///         let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
///         scheme.mark(&ctx, &mut pkt, &mut rng);
///     }
///     sink.ingest(&pkt);
/// }
/// assert_eq!(sink.unequivocal_source(), Some(NodeId(0)));
/// assert!(sink.counters().hash_count > 0);
/// ```
#[derive(Clone, Debug)]
pub struct SinkEngine {
    keys: Arc<KeyStore>,
    mode: VerifyMode,
    verifier: SinkVerifier,
    /// The §7 ring search and the only copy of the adjacency, which the
    /// quarantine stage reads too; `None` without a topology.
    resolver: Option<TopologyResolver>,
    classifier: Option<TrafficClassifier>,
    isolation: Option<IsolationPolicy>,
    reconstructor: RouteReconstructor,
    /// LRU cache of per-report anonymous-ID tables, most recent last.
    table_cache: Vec<(Vec<u8>, AnonTable)>,
    table_cache_capacity: usize,
    /// Reusable MAC-message buffer (shared across marks and packets).
    scratch: Vec<u8>,
    counters: SinkCounters,
    first_unequivocal: Option<usize>,
    quarantine: QuarantineFilter,
    last_quarantined_source: Option<NodeId>,
    dedup: Option<DuplicateSuppressor>,
    min_support: usize,
    tracer: Tracer,
    stage_timing: bool,
    stages: StageHistograms,
    store: Option<DeltaWriter>,
    pending: PendingDelta,
    /// Trace context of the packet currently in the pipeline
    /// ([`TraceContext::NONE`] outside [`SinkEngine::ingest_ctx`]):
    /// stage spans open as its children, so one wire-carried context
    /// turns the whole staged pass into one correlated trace.
    current_ctx: TraceContext,
}

/// The evidence grown since the last checkpoint, kept incrementally so a
/// checkpoint costs the size of the delta rather than a full
/// [`SinkEngine::evidence`] export and diff.
///
/// Set members and support increments are recorded into `grown` where the
/// evidence grows (new nodes and edges only if absent). The verdict
/// counters and `chains_observed` are differenced against the values
/// marked at the last take.
#[derive(Clone, Debug, Default)]
struct PendingDelta {
    /// `None` until the first take: an engine nobody checkpoints records
    /// nothing, and its first delta is simply all of its evidence.
    grown: Option<Evidence>,
    counters: VerdictCounters,
    chains_observed: usize,
}

/// What the resolve stage hands the verify stage.
enum Resolved {
    /// The report's table, at this index of the engine's table cache.
    Cached(usize),
    /// The packet's own table: empty without an anonymous mark, else grown
    /// by the §7 ring walk.
    Own(AnonTable),
    /// The ring walk's sweep found a mark below a missed one invalid; this
    /// is the packet's chain.
    Decided(VerifiedChain),
}

/// A lap clock for stage timing: reads the monotonic clock only when
/// instrumentation is on, so the default pipeline stays clock-free.
struct StageClock(Option<Instant>);

impl StageClock {
    fn start(enabled: bool) -> Self {
        StageClock(enabled.then(Instant::now))
    }

    /// Nanoseconds since start/previous lap; 0 (and no clock read) when
    /// disabled. Nanosecond resolution matters: the classify and localize
    /// stages run well under a microsecond, so coarser laps record 0 at
    /// every percentile.
    fn lap_ns(&mut self) -> u64 {
        match &mut self.0 {
            Some(t) => {
                // One clock read per lap: the instant that ends this lap
                // starts the next, so consecutive laps tile the timeline.
                let now = Instant::now();
                let ns = (now - *t).as_nanos() as u64;
                *t = now;
                ns
            }
            None => 0,
        }
    }

    fn enabled(&self) -> bool {
        self.0.is_some()
    }
}

impl SinkEngine {
    /// Builds the pipeline once from a config and the deployment keys.
    /// Accepts either an owned [`KeyStore`] or a shared `Arc<KeyStore>`;
    /// every stage holds the same `Arc`, so construction never copies key
    /// material.
    pub fn new(keys: impl Into<Arc<KeyStore>>, config: SinkConfig) -> Self {
        let keys = keys.into();
        let verifier = SinkVerifier::new(Arc::clone(&keys));
        let resolver = config
            .adjacency
            .map(|adj| TopologyResolver::new(Arc::clone(verifier.schedule()), adj));
        SinkEngine {
            verifier,
            keys,
            mode: config.mode,
            resolver,
            classifier: config.classifier,
            isolation: config.isolation,
            reconstructor: RouteReconstructor::new(),
            table_cache: Vec::new(),
            table_cache_capacity: config.table_cache_capacity,
            scratch: Vec::new(),
            counters: SinkCounters::default(),
            first_unequivocal: None,
            quarantine: QuarantineFilter::new(),
            last_quarantined_source: None,
            dedup: config.dedup_capacity.map(DuplicateSuppressor::new),
            min_support: config.min_support,
            tracer: config.tracer,
            stage_timing: config.stage_timing,
            stages: StageHistograms::default(),
            store: None,
            pending: PendingDelta::default(),
            current_ctx: TraceContext::NONE,
        }
    }

    /// Runs one packet through the full pipeline, stamped with the report's
    /// own timestamp (the simulators deliver reports stamped at send time).
    pub fn ingest(&mut self, packet: &Packet) -> SinkOutcome {
        self.ingest_at(packet, packet.report.timestamp)
    }

    /// Runs raw received bytes through the pipeline, stamped with the
    /// decoded report's own timestamp.
    ///
    /// This entry point is **total**: bytes that fail wire decoding become
    /// a counted [`RejectReason::Malformed`] outcome — never a panic, never
    /// an `unwrap` on [`WireError`] — so the sink survives whatever a
    /// corrupting channel delivers.
    pub fn ingest_bytes(&mut self, bytes: &[u8]) -> SinkOutcome {
        match Packet::from_bytes(bytes) {
            Ok(packet) => {
                let now_us = packet.report.timestamp;
                self.ingest_at(&packet, now_us)
            }
            Err(e) => self.reject_malformed(e),
        }
    }

    fn reject_malformed(&mut self, error: WireError) -> SinkOutcome {
        self.counters.packets += 1;
        self.counters.malformed += 1;
        SinkOutcome {
            verdict: None,
            chain: None,
            reject: Some(RejectReason::Malformed(error)),
        }
    }

    /// Runs one packet through the full pipeline with an explicit arrival
    /// clock for the classifier's rate window.
    pub fn ingest_at(&mut self, packet: &Packet, now_us: u64) -> SinkOutcome {
        self.ingest_ctx(packet, now_us, TraceContext::NONE)
    }

    /// [`SinkEngine::ingest_at`] inside a caller-supplied trace context.
    ///
    /// With a traced context and an attached tracer, the pass opens one
    /// `sink.ingest` span as a child of `ctx` and every stage span
    /// (`sink.classify` … `sink.localize`) opens under it — so a context
    /// carried from the gateway wire renders the packet's whole shard
    /// pass inside its originating trace. With [`TraceContext::NONE`]
    /// (or no tracer) this is byte-for-byte [`SinkEngine::ingest_at`]:
    /// counters, outcomes, and evidence never depend on tracing.
    pub fn ingest_ctx(&mut self, packet: &Packet, now_us: u64, ctx: TraceContext) -> SinkOutcome {
        let ingest_span = if ctx.is_traced() && self.tracer.enabled() {
            let span = self.tracer.span_in("sink.ingest", ctx);
            self.current_ctx = span.context().unwrap_or(TraceContext::NONE);
            Some(span)
        } else {
            None
        };
        let outcome = self.ingest_staged(packet, now_us);
        drop(ingest_span);
        self.current_ctx = TraceContext::NONE;
        outcome
    }

    /// The staged pipeline body shared by every ingest entry point.
    fn ingest_staged(&mut self, packet: &Packet, now_us: u64) -> SinkOutcome {
        self.counters.packets += 1;
        let ctx = self.current_ctx;
        let tracer = self.tracer.clone();
        let mut clock = StageClock::start(self.stage_timing);

        // Untraced ingest under an armed collector records one
        // packet-level span, so a flight-recorder black-box still shows
        // the packet timeline around an anomaly. Per-stage spans (below,
        // via `span_traced`) open only inside a carried trace: without a
        // trace id they would be orphan detail nobody can correlate, and
        // on the hot path they are the difference between a ~2% and a
        // ~8% always-on overhead (see `bench_obs`). Traced entry points
        // already opened `sink.ingest` inside the trace.
        let _packet_span = if ctx.is_traced() {
            None
        } else {
            Some(tracer.span("sink.ingest"))
        };

        // Stage 0: idempotent duplicate suppression (when configured).
        // Runs before the classifier so duplicated frames cannot skew its
        // rate window, and before verification so they cost no hashes.
        // Timed as part of classify: both are admission gates.
        let mut classify_span = tracer.span_traced("sink.classify", ctx);
        if let Some(dedup) = &mut self.dedup {
            if !dedup.observe(&packet.to_bytes()) {
                self.counters.duplicates_suppressed += 1;
                classify_span.field("duplicate", true);
                drop(classify_span);
                if clock.enabled() {
                    self.stages.classify.record(clock.lap_ns());
                }
                return SinkOutcome {
                    verdict: None,
                    chain: None,
                    reject: Some(RejectReason::Duplicate),
                };
            }
        }

        // Stage 1: classify/admit.
        let verdict = self
            .classifier
            .as_mut()
            .map(|c| c.classify(&packet.report, now_us));
        match verdict {
            Some(Verdict::Benign) => {
                self.counters.benign += 1;
                classify_span.field("benign", true);
                drop(classify_span);
                if clock.enabled() {
                    self.stages.classify.record(clock.lap_ns());
                }
                return SinkOutcome {
                    verdict,
                    chain: None,
                    reject: None,
                };
            }
            Some(Verdict::Suspicious) => self.counters.suspicious += 1,
            None => {}
        }
        drop(classify_span);
        if clock.enabled() {
            self.stages.classify.record(clock.lap_ns());
        }

        // Stage 2: resolve anonymous IDs (nested verification only).
        let resolved = (self.mode == VerifyMode::Nested).then(|| {
            let _resolve_span = tracer.span_traced("sink.resolve", ctx);
            self.resolve_stage(packet)
        });
        if clock.enabled() {
            self.stages.resolve.record(clock.lap_ns());
        }

        // Stage 3: verify marks backwards, every MAC in one lane sweep over
        // the resolved table. Verdict-identical to the §4.1 scalar walk
        // (pinned by test).
        let verify_span = tracer.span_traced("sink.verify", ctx);
        let chain = match resolved {
            None => self.verifier.verify(packet, self.mode),
            Some(Resolved::Cached(idx)) => self.verifier.verify_batched_impl(
                packet,
                &self.table_cache[idx].1,
                &mut self.scratch,
            ),
            Some(Resolved::Own(table)) => {
                self.verifier
                    .verify_batched_impl(packet, &table, &mut self.scratch)
            }
            Some(Resolved::Decided(chain)) => chain,
        };
        drop(verify_span);
        if clock.enabled() {
            self.stages.verify.record(clock.lap_ns());
        }
        self.counters.marks_verified += chain.nodes.len();
        self.counters.marks_rejected += chain.total_marks - chain.nodes.len();

        // Stage 4: fold into the reconstructed route.
        let reconstruct_span = tracer.span_traced("sink.reconstruct", ctx);
        self.reconstructor
            .observe_chain_recording(&chain.nodes, self.pending.grown.as_mut());
        if self.first_unequivocal.is_none() && self.reconstructor.is_unequivocal() {
            self.first_unequivocal = Some(self.counters.packets);
        }
        drop(reconstruct_span);
        if clock.enabled() {
            self.stages.reconstruct.record(clock.lap_ns());
        }

        // Stage 5: quarantine maintenance (cheap: only runs on a new
        // unequivocal source).
        let localize_span = tracer.span_traced("sink.localize", ctx);
        self.update_quarantine();
        drop(localize_span);
        if clock.enabled() {
            self.stages.localize.record(clock.lap_ns());
        }

        SinkOutcome {
            verdict,
            chain: Some(chain),
            reject: None,
        }
    }

    /// Runs a batch of packets through the pipeline.
    ///
    /// Batch ingestion is the same staged path as [`SinkEngine::ingest`] —
    /// outcomes and counters are byte-identical to ingesting the packets one
    /// by one on this engine — but because the engine's table cache and
    /// scratch buffers persist across the batch, `k` distinct reports cost
    /// `k` anonymous-ID table builds regardless of batch size, where `n`
    /// independent single-packet sinks would pay `n` — provided `k` fits
    /// the cache ([`SinkConfig::table_cache_capacity`], default 8). Past
    /// that, LRU eviction can rebuild a report's table each time it
    /// returns.
    pub fn ingest_batch(&mut self, packets: &[Packet]) -> Vec<SinkOutcome> {
        packets.iter().map(|p| self.ingest(p)).collect()
    }

    /// Folds another engine's accumulated evidence into this one: counters
    /// and support sum, route graphs and quarantine sets union.
    ///
    /// This is the cross-shard merge a sharded traceback service performs
    /// at snapshot/drain time: because every evidence field is a sum or a
    /// set union, absorbing shard engines in any order yields exactly the
    /// evidence a single engine would have accumulated over the whole
    /// stream. Both engines must verify under the same mode
    /// (debug-asserted); the absorbing engine keeps its own table cache and
    /// scratch buffers, and its own [`SinkEngine::first_unequivocal`]
    /// (shard-local packet counts are not a global arrival order). The
    /// other engine's work counters add to this engine's
    /// [`SinkEngine::counters`]. After absorbing, the quarantine stage
    /// re-runs on the next trigger (the merged graph may localize
    /// differently).
    ///
    /// Duplicate-suppression windows ([`SinkConfig::dedup`]) and a
    /// classifier's rate window are engine-local and not merged. Copies of
    /// a packet do land in one partition (identical bytes share a report),
    /// but a partition's window holds only that partition's last packets,
    /// so it can suppress a copy one engine would admit: the absorbed
    /// evidence then differs from one engine's.
    ///
    /// **Interaction with an attached store:** absorb merges in memory
    /// only — it appends nothing, and the absorbed evidence joins the
    /// pending delta, so it is carried by the *next*
    /// [`SinkEngine::checkpoint_to_store`] exactly once. Replaying the
    /// store therefore never double-counts absorbed evidence. The other
    /// engine's store attachment (if any) is not taken over.
    ///
    /// Evidence-wise this is [`SinkEngine::install_evidence`] of the other
    /// engine's [`SinkEngine::evidence`]; the stage histograms merge too.
    pub fn absorb(&mut self, other: &SinkEngine) {
        debug_assert_eq!(self.mode, other.mode, "absorbing mismatched verify modes");
        self.install_evidence(&other.evidence());
        self.counters += other.counters.work();
        self.stages.merge(&other.stages.snapshot());
    }

    /// Records stage laps into `stages` from now on, in place of the
    /// engine's own cells. A service hands each shard engine its shard's
    /// registry cells ([`StageHistograms::in_registry`]), so an engine
    /// rebuilt after a crash keeps recording into the same series. Like
    /// every cell handle, the engine's cells are shared with its clones.
    pub fn with_stage_histograms(mut self, stages: StageHistograms) -> Self {
        self.stages = stages;
        self
    }

    /// The resolve stage for one admitted nested packet. A packet without
    /// an anonymous mark needs no table. On a topology engine the §7 ring
    /// walk grows the packet's own table; otherwise the report's §4.2
    /// table comes from the cache, built on a miss.
    fn resolve_stage(&mut self, packet: &Packet) -> Resolved {
        if !packet.marks.iter().any(|m| m.id.as_anon().is_some()) {
            return Resolved::Own(AnonTable::empty());
        }
        let Some(resolver) = &self.resolver else {
            return Resolved::Cached(self.lookup_or_build_table(&packet.report.to_bytes()));
        };
        let walk = resolver.walk(&self.verifier, packet, &mut self.scratch);
        self.counters.hash_count += walk.table.hash_count;
        self.counters.resolver_fallback_scans += walk.fallback_scans;
        match walk.decided {
            Some(chain) => Resolved::Decided(chain),
            None => Resolved::Own(walk.table),
        }
    }

    /// Returns the cache index of the table for `report_bytes`, building
    /// and inserting it (LRU eviction) on a miss.
    fn lookup_or_build_table(&mut self, report_bytes: &[u8]) -> usize {
        if let Some(pos) = self
            .table_cache
            .iter()
            .position(|(rb, _)| rb == report_bytes)
        {
            // No instant event on a hit: hits are the per-packet common
            // case and the counter already tells the story; only the rare
            // (expensive) table build below is worth a trace line.
            self.counters.table_cache_hits += 1;
            // Move to the back: most recently used.
            let entry = self.table_cache.remove(pos);
            self.table_cache.push(entry);
        } else {
            let table = AnonTable::build(self.verifier.schedule(), report_bytes);
            self.counters.table_builds += 1;
            self.counters.hash_count += table.hash_count;
            self.tracer
                .event_in("sink.table_build", self.current_ctx, |f| {
                    f.push(("hashes", table.hash_count.into()));
                });
            if self.table_cache.len() >= self.table_cache_capacity {
                self.table_cache.remove(0);
            }
            self.table_cache.push((report_bytes.to_vec(), table));
        }
        self.table_cache.len() - 1
    }

    /// Quarantines around the unequivocal source when it first appears (or
    /// changes). No-op without an isolation policy.
    fn update_quarantine(&mut self) {
        let Some(policy) = self.isolation else {
            return;
        };
        let Some(src) = self.reconstructor.unequivocal_source() else {
            return;
        };
        if self.last_quarantined_source == Some(src) {
            return;
        }
        self.last_quarantined_source = Some(src);
        self.apply_quarantine(&Localization::MostUpstream(src), policy);
    }

    fn apply_quarantine(&mut self, localization: &Localization, policy: IsolationPolicy) {
        let resolver = self.resolver.as_ref();
        let set = quarantine_set(localization, policy, |n| {
            resolver
                .map(|r| r.neighbors(n).iter().copied().map(NodeId).collect())
                .unwrap_or_default()
        });
        self.quarantine_recording(set);
    }

    /// Quarantines `nodes`, recording the newly quarantined ones in the
    /// pending delta.
    fn quarantine_recording(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        let fresh: Vec<NodeId> = nodes
            .into_iter()
            .filter(|&n| self.quarantine.permits(n))
            .collect();
        if let Some(grown) = &mut self.pending.grown {
            grown.quarantined.extend(fresh.iter().map(|n| n.raw()));
        }
        self.quarantine.quarantine(fresh);
    }

    /// Recomputes the quarantine from the full current localization
    /// (including loops and ambiguity), folding it into the filter.
    /// No-op without an isolation policy.
    pub fn refresh_quarantine(&mut self) -> &QuarantineFilter {
        if let Some(policy) = self.isolation {
            let localization = self.reconstructor.localize();
            self.apply_quarantine(&localization, policy);
        }
        &self.quarantine
    }

    /// Quarantines the head of every reconstructed source region under the
    /// configured policy — the end-of-round sweep a multi-mole deployment
    /// runs (§7). No-op without an isolation policy.
    pub fn quarantine_source_regions(&mut self) -> &QuarantineFilter {
        if let Some(policy) = self.isolation {
            for region in self.reconstructor.source_regions() {
                self.apply_quarantine(&Localization::MostUpstream(region.head), policy);
            }
        }
        &self.quarantine
    }

    /// The shared deployment key table.
    pub fn keys(&self) -> &Arc<KeyStore> {
        &self.keys
    }

    /// The configured verify mode.
    pub fn mode(&self) -> VerifyMode {
        self.mode
    }

    /// Read access to the verify stage (for one-off out-of-band checks).
    pub fn verifier(&self) -> &SinkVerifier {
        &self.verifier
    }

    /// A copy of the per-stage latency histograms. Empty unless
    /// [`SinkConfig::stage_timing`] was enabled.
    pub fn stage_metrics(&self) -> StageMetrics {
        self.stages.snapshot()
    }

    /// Snapshot of the pipeline's instrumentation counters.
    pub fn counters(&self) -> SinkCounters {
        self.counters
    }

    /// Current localization decision.
    pub fn localize(&self) -> Localization {
        self.reconstructor.localize()
    }

    /// Current localization with its support/confidence annotation, under
    /// the configured minimum support
    /// ([`SinkConfig::min_localization_support`]): thin evidence degrades
    /// to a wider [`Localization::Ambiguous`] region instead of a single
    /// possibly-wrong node.
    pub fn localize_annotated(&self) -> AnnotatedLocalization {
        self.reconstructor.localize_annotated(self.min_support)
    }

    /// Reconstructed source regions (multi-mole deployments).
    pub fn source_regions(&self) -> Vec<SourceRegion> {
        self.reconstructor.source_regions()
    }

    /// The unequivocally identified most-upstream node, if reached.
    pub fn unequivocal_source(&self) -> Option<NodeId> {
        self.reconstructor.unequivocal_source()
    }

    /// Packets offered to the pipeline so far.
    pub fn packets_ingested(&self) -> usize {
        self.counters.packets
    }

    /// The packet count at which identification first became unequivocal
    /// on this engine. An arrival-order diagnostic, not evidence: it is
    /// neither exported, checkpointed nor merged, so an engine rebuilt from
    /// evidence or absorbing another starts from its own packets.
    pub fn first_unequivocal(&self) -> Option<usize> {
        self.first_unequivocal
    }

    /// Distinct nodes whose marks have been collected (Figure 5's metric).
    pub fn observed_count(&self) -> usize {
        self.reconstructor.observed_count()
    }

    /// Read access to the underlying reconstructor.
    pub fn reconstructor(&self) -> &RouteReconstructor {
        &self.reconstructor
    }

    /// The quarantine filter maintained by the isolation stage.
    pub fn quarantine(&self) -> &QuarantineFilter {
        &self.quarantine
    }

    /// Exports the engine's accumulated traceback evidence — verdict
    /// counters, route graph with support counts, and quarantine set — as
    /// one serializable [`Evidence`] value. Engine-local state (work
    /// counters, first-unequivocal index, dedup window, table cache,
    /// scratch buffers, stage latency histograms) is deliberately
    /// excluded: it depends on the engine's cache or on arrival order, or
    /// it is observability, not evidence.
    pub fn evidence(&self) -> Evidence {
        let r = &self.reconstructor;
        Evidence {
            counters: self.counters.verdict(),
            chains_observed: r.chains_observed(),
            nodes: r.nodes_set().clone(),
            edges: r.edge_pairs().collect(),
            head_support: r.head_support_map().clone(),
            edge_support: r.edge_support_map().clone(),
            quarantined: self.quarantine.quarantined().map(|n| n.raw()).collect(),
            first_unequivocal: None,
        }
    }

    /// Merges previously exported evidence into this engine — the replay
    /// half of crash recovery. Same monoid semantics as
    /// [`SinkEngine::absorb`]: counters sum, route graph and quarantine
    /// union. Installing the evidence of an uninterrupted run into a fresh
    /// engine reproduces its localization, quarantine, verdict counters
    /// and evidence bytes exactly; the work counters and
    /// `first_unequivocal` are not evidence and are left as they are.
    ///
    /// The installed evidence joins the pending delta like any other
    /// growth; [`SinkEngine::attach_store`] or
    /// [`SinkEngine::take_evidence_delta`] after installing marks it as
    /// already checkpointed.
    pub fn install_evidence(&mut self, evidence: &Evidence) {
        self.counters += SinkCounters::from(evidence.counters);
        self.reconstructor
            .install(evidence, self.pending.grown.as_mut());
        self.quarantine_recording(evidence.quarantined_nodes());
        self.last_quarantined_source = None;
    }

    /// The evidence grown since the last take (or since construction or
    /// [`SinkEngine::attach_store`]), as one delta; the next delta starts
    /// empty. From the first take on, growth is recorded as it happens and
    /// only the verdict counters and `chains_observed` are differenced at
    /// the take, so a take costs the size of the delta, not of the
    /// evidence. The first take itself exports the full evidence:
    /// an engine that is never checkpointed records nothing.
    ///
    /// Merging every delta taken, in order, into the evidence held at the
    /// first take's start reproduces [`SinkEngine::evidence`] exactly.
    /// This is what a checkpoint records. With a store attached, use
    /// [`SinkEngine::checkpoint_to_store`] instead, which takes the delta
    /// and appends it; a delta taken here is the caller's to keep.
    pub fn take_evidence_delta(&mut self) -> Evidence {
        let mut delta = match self.pending.grown.replace(Evidence::default()) {
            Some(grown) => grown,
            // Recording starts at the first take; before it, the delta is
            // everything since construction. A zero support count is no
            // growth, so it is left out as recording leaves it out.
            None => {
                let mut all = self.evidence();
                all.head_support.retain(|_, c| *c > 0);
                all.edge_support.retain(|_, c| *c > 0);
                all
            }
        };
        let mark = &mut self.pending;
        let counters = self.counters.verdict();
        let chains_observed = self.reconstructor.chains_observed();
        delta.counters = counters.since(&mark.counters);
        delta.chains_observed = chains_observed - mark.chains_observed;
        mark.counters = counters;
        mark.chains_observed = chains_observed;
        delta
    }

    /// Attaches a persistence backend. The engine's *current* evidence is
    /// presumed already in the store (true both for a fresh engine and
    /// for one just rebuilt via [`SinkEngine::install_evidence`] from that
    /// store): the pending delta restarts empty, so the first checkpoint
    /// appends only what happens after attachment.
    pub fn attach_store(&mut self, store: Arc<dyn EvidenceStore>, shard: u32) {
        self.take_evidence_delta();
        self.store = Some(DeltaWriter::new(store, shard));
    }

    /// Whether a persistence backend is attached.
    pub fn store_attached(&self) -> bool {
        self.store.is_some()
    }

    /// Appends the evidence accumulated since the last checkpoint (or
    /// attachment) to the attached store as one delta record, in O(delta)
    /// work ([`SinkEngine::take_evidence_delta`]). Returns `Ok(false)`
    /// when nothing changed (no record written).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAttached`] without a store; otherwise whatever
    /// the backend's append returns. On error the attachment keeps the
    /// failed delta ([`DeltaWriter`]), so the next checkpoint retries it
    /// merged with whatever accrued since.
    pub fn checkpoint_to_store(&mut self) -> Result<bool, StoreError> {
        let Some(mut writer) = self.store.take() else {
            return Err(StoreError::NotAttached);
        };
        let appended = writer.append(self.take_evidence_delta());
        self.store = Some(writer);
        appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{EventRegistry, TrafficClassifier};
    use crate::config::MarkingConfig;
    use crate::scheme::{
        ExtendedAms, MarkingScheme, NestedMarking, NodeContext, PlainMarking,
        ProbabilisticNestedMarking,
    };
    use pnm_wire::{Location, Report};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Compile-time guarantee that engines can move onto worker threads and
    /// be shared behind references: `SinkEngine` (and the pieces it embeds)
    /// must stay `Send + Sync`. Breaking this — e.g. by reintroducing
    /// `Cell`/`Rc` interior mutability — fails the build of this test.
    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SinkEngine>();
        assert_send_sync::<SinkConfig>();
        assert_send_sync::<SinkCounters>();
        assert_send_sync::<SinkOutcome>();
        assert_send_sync::<RouteReconstructor>();
        assert_send_sync::<QuarantineFilter>();
        assert_send_sync::<TrafficClassifier>();
    }

    fn keys(n: u16) -> Arc<KeyStore> {
        Arc::new(KeyStore::derive_from_master(b"sink-test", n))
    }

    fn packet(
        ks: &KeyStore,
        scheme: &dyn MarkingScheme,
        n: u16,
        seq: u64,
        rng: &mut StdRng,
    ) -> Packet {
        let report = Report::new(
            format!("ev-{seq}").into_bytes(),
            Location::new(seq as f32, 0.0),
            seq,
        );
        let mut pkt = Packet::new(report);
        for i in 0..n {
            let ctx = NodeContext::new(NodeId(i), *ks.key(i).unwrap());
            scheme.mark(&ctx, &mut pkt, rng);
        }
        pkt
    }

    pub(super) fn chain_adjacency(n: u16) -> HashMap<u16, Vec<u16>> {
        (0..n)
            .map(|i| {
                let mut neigh = Vec::new();
                if i > 0 {
                    neigh.push(i - 1);
                }
                if i + 1 < n {
                    neigh.push(i + 1);
                }
                (i, neigh)
            })
            .collect()
    }

    #[test]
    fn engine_converges_like_locator() {
        let n = 10u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut engine = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let mut rng = StdRng::seed_from_u64(11);
        let mut anonymous = 0;
        for seq in 0..200 {
            let pkt = packet(&ks, &scheme, n, seq, &mut rng);
            anonymous += usize::from(!pkt.marks.is_empty());
            let out = engine.ingest(&pkt);
            assert!(out.admitted());
            assert!(out.verdict.is_none());
        }
        assert_eq!(engine.packets_ingested(), 200);
        assert_eq!(engine.unequivocal_source(), Some(NodeId(0)));
        assert!(engine.first_unequivocal().unwrap() < 200);
        let c = engine.counters();
        assert_eq!(c.packets, 200);
        // 200 distinct reports, cache capacity 8: every report builds its
        // table, except on the 5 packets nobody marked.
        assert_eq!(anonymous, 195);
        assert_eq!(c.table_builds, anonymous);
        assert_eq!(c.hash_count, anonymous * n as usize);
        assert!(c.marks_verified > 0);
    }

    #[test]
    fn table_cache_amortizes_same_report() {
        let n = 8u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);
        let mut engine = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for _ in 0..5 {
            engine.ingest(&pkt);
        }
        let c = engine.counters();
        assert_eq!(c.table_builds, 1);
        assert_eq!(c.table_cache_hits, 4);
        assert_eq!(c.hash_count, n as usize);
        assert_eq!(c.table_cache_hit_rate(), Some(0.8));
    }

    #[test]
    fn table_cache_evicts_lru() {
        let n = 4u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg_sink = SinkConfig::new(VerifyMode::Nested).table_cache_capacity(2);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg_sink);
        let pkts: Vec<Packet> = (0..3)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();
        // 0, 1, 2 fill and overflow the 2-entry cache; 0 was evicted.
        for p in &pkts {
            engine.ingest(p);
        }
        engine.ingest(&pkts[0]);
        let c = engine.counters();
        assert_eq!(c.table_builds, 4);
        assert_eq!(c.table_cache_hits, 0);
        // 2 is still cached (most recent before the re-ingest of 0).
        engine.ingest(&pkts[2]);
        assert_eq!(engine.counters().table_cache_hits, 1);
    }

    #[test]
    fn topology_resolution_uses_fewer_hashes() {
        // Large network, short path: ring search touches ~2 keys per mark
        // while the brute-force table hashes all 300 provisioned nodes.
        let network = 300u16;
        let path = 20u16;
        let ks = keys(network);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let pkt = packet(&ks, &scheme, path, 1, &mut rng);

        let mut brute = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let chain_brute = brute.ingest(&pkt).chain.unwrap();

        let cfg_topo = SinkConfig::new(VerifyMode::Nested).topology(chain_adjacency(network));
        let mut topo = SinkEngine::new(Arc::clone(&ks), cfg_topo);
        let chain_topo = topo.ingest(&pkt).chain.unwrap();

        assert_eq!(chain_brute, chain_topo);
        assert!(chain_topo.fully_verified());
        // Every marker is the anchor's direct neighbor except the first
        // resolution (no anchor → fallback scan): far fewer hashes than the
        // full per-report table build.
        assert!(
            topo.counters().hash_count < brute.counters().hash_count,
            "topology {} vs brute {}",
            topo.counters().hash_count,
            brute.counters().hash_count
        );
        assert_eq!(topo.counters().table_builds, 0);
        assert!(topo.counters().resolver_fallback_scans >= 1);
    }

    /// §7 regression: a marker exactly one ring past the search radius
    /// (four hops above its anchor) must still be found by the fallback
    /// scan, so a topology engine's chain and localization equal the
    /// default engine's at every gap.
    #[test]
    fn topology_engine_finds_markers_past_the_ring_radius() {
        let n = 12u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(41);
        for gap in 1..=7u16 {
            let report = Report::new(
                format!("gap-{gap}").into_bytes(),
                Location::new(0.0, 0.0),
                u64::from(gap),
            );
            let mut pkt = Packet::new(report);
            for hop in [0, gap] {
                let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            let mut brute = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
            let cfg_topo = SinkConfig::new(VerifyMode::Nested).topology(chain_adjacency(n));
            let mut topo = SinkEngine::new(Arc::clone(&ks), cfg_topo);
            let expect = brute.ingest(&pkt).chain.unwrap();
            assert_eq!(expect.nodes, vec![NodeId(0), NodeId(gap)]);
            assert_eq!(topo.ingest(&pkt).chain.unwrap(), expect, "gap {gap}");
            assert_eq!(topo.localize(), brute.localize(), "gap {gap}");
            assert_eq!(topo.localize(), Localization::MostUpstream(NodeId(0)));
        }
    }

    /// Only a packet carrying an anonymous mark needs a table: plain-ID
    /// nested packets and an unmarked packet cost no `H'` and no table
    /// lookup, on a default engine and on a topology engine.
    #[test]
    fn packets_without_anonymous_marks_build_no_table() {
        let n = 12u16;
        let ks = keys(n);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let mut packets: Vec<Packet> = (0..10)
            .map(|seq| packet(&ks, &scheme, n, seq, &mut rng))
            .collect();
        packets.push(Packet::new(packets[0].report.clone()));
        let nested = SinkConfig::new(VerifyMode::Nested);
        for cfg in [nested.clone(), nested.topology(chain_adjacency(n))] {
            let mut engine = SinkEngine::new(Arc::clone(&ks), cfg);
            engine.ingest_batch(&packets);
            let c = engine.counters();
            assert_eq!(c.marks_verified, 10 * n as usize);
            assert_eq!(c.marks_rejected, 0);
            assert_eq!(
                (c.hash_count, c.table_builds, c.table_cache_hits),
                (0, 0, 0)
            );
        }
    }

    /// A topology engine's ring walk is its resolve stage: a traced packet
    /// opens `sink.resolve` under `sink.ingest`, in the wire trace, as the
    /// table path's lookup does.
    #[test]
    fn topology_engine_traces_the_resolve_stage() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(9);
        let pkt = packet(&ks, &scheme, n, 0, &mut rng);
        assert!(!pkt.marks.is_empty());
        let (tracer, ring) = pnm_obs::Tracer::ring(1024);
        let cfg = SinkConfig::new(VerifyMode::Nested)
            .topology(chain_adjacency(n))
            .tracer(tracer.clone());
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg);
        let wire_ctx = {
            let root = tracer.span_root("client.send");
            root.context().expect("recording")
        };
        engine.ingest_ctx(&pkt, pkt.report.timestamp, wire_ctx);

        let events = ring.events();
        let open = |name: &str| {
            events
                .iter()
                .find(|e| e.name == name && e.kind == pnm_obs::EventKind::SpanOpen)
                .unwrap_or_else(|| panic!("{name} span present"))
        };
        let ingest = open("sink.ingest");
        let resolve = open("sink.resolve");
        assert_eq!(resolve.trace, wire_ctx.trace);
        assert_eq!(resolve.parent, ingest.span);
    }

    #[test]
    fn classifier_gates_verification() {
        let n = 5u16;
        let ks = keys(n);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);
        // A registry corroborating the packet's claimed event: the report
        // is benign and must never reach verification.
        let mut registry = EventRegistry::new(10.0);
        registry.register(1.0, 0.0, 0, u64::MAX);
        let classifier = TrafficClassifier::permissive().with_registry(registry);
        let cfg = SinkConfig::new(VerifyMode::Nested).classifier(classifier);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg);
        let out = engine.ingest(&pkt);
        assert_eq!(out.verdict, Some(Verdict::Benign));
        assert!(!out.admitted());
        let c = engine.counters();
        assert_eq!(c.benign, 1);
        assert_eq!(c.marks_verified, 0);
        assert_eq!(c.hash_count, 0);
        assert_eq!(engine.observed_count(), 0);
    }

    #[test]
    fn quarantine_stage_tracks_unequivocal_source() {
        let n = 6u16;
        let ks = keys(n);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = SinkConfig::new(VerifyMode::Nested)
            .topology(chain_adjacency(n))
            .isolation(IsolationPolicy::OneHopNeighborhood);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);
        engine.ingest(&pkt);
        assert_eq!(engine.unequivocal_source(), Some(NodeId(0)));
        // Node 0 and its one-hop neighbor 1 are quarantined.
        assert!(!engine.quarantine().permits(NodeId(0)));
        assert!(!engine.quarantine().permits(NodeId(1)));
        assert!(engine.quarantine().permits(NodeId(2)));
    }

    #[test]
    fn batch_matches_sequential_and_beats_fresh_engines() {
        // The acceptance workload: multiple packets carrying few distinct
        // reports. Batch ingestion must equal sequential ingestion exactly
        // and spend strictly fewer anon-ID hash evaluations than N
        // independent single-packet sinks.
        let n = 12u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let base: Vec<Packet> = (0..2)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();
        let workload: Vec<Packet> = (0..6).map(|i| base[i % 2].clone()).collect();

        let mut seq = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let seq_out: Vec<SinkOutcome> = workload.iter().map(|p| seq.ingest(p)).collect();

        let mut batch = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let batch_out = batch.ingest_batch(&workload);

        assert_eq!(seq_out, batch_out);
        assert_eq!(seq.counters(), batch.counters());
        assert_eq!(seq.localize(), batch.localize());

        let fresh_total: usize = workload
            .iter()
            .map(|p| {
                let mut e = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
                e.ingest(p);
                e.counters().hash_count
            })
            .sum();
        assert!(
            batch.counters().hash_count < fresh_total,
            "batch {} vs {} across fresh engines",
            batch.counters().hash_count,
            fresh_total
        );
        // 2 distinct reports → exactly 2 table builds for the whole batch.
        assert_eq!(batch.counters().table_builds, 2);
        assert_eq!(batch.counters().table_cache_hits, 4);
    }

    #[test]
    fn absorb_merges_partitioned_engines() {
        // Partition a packet stream across two engines by report; the
        // absorbed union must match one engine fed the whole stream.
        let n = 10u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(21);
        let packets: Vec<Packet> = (0..40)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();

        let mut whole = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for p in &packets {
            whole.ingest(p);
        }

        let mut a = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let mut b = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for (i, p) in packets.iter().enumerate() {
            if i % 2 == 0 {
                a.ingest(p);
            } else {
                b.ingest(p);
            }
        }
        a.absorb(&b);
        assert_eq!(a.counters(), whole.counters());
        assert_eq!(a.localize(), whole.localize());
        assert_eq!(a.source_regions(), whole.source_regions());
        assert_eq!(a.unequivocal_source(), whole.unequivocal_source());
    }

    #[test]
    fn evidence_round_trips_through_install() {
        let n = 10u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = SinkConfig::new(VerifyMode::Nested).isolation(IsolationPolicy::SuspectsOnly);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg.clone());
        for seq in 0..80 {
            let pkt = packet(&ks, &scheme, n, seq, &mut rng);
            engine.ingest(&pkt);
        }
        engine.refresh_quarantine();
        let evidence = engine.evidence();
        assert!(!evidence.quarantined.is_empty());

        let mut rebuilt = SinkEngine::new(Arc::clone(&ks), cfg);
        rebuilt.install_evidence(&evidence);
        // Byte-identical evidence, identical verdicts. The work counters
        // and the first-unequivocal index are the original engine's own.
        assert_eq!(rebuilt.evidence().to_bytes(), evidence.to_bytes());
        assert_eq!(rebuilt.localize(), engine.localize());
        assert_eq!(rebuilt.unequivocal_source(), engine.unequivocal_source());
        assert_eq!(rebuilt.counters(), SinkCounters::from(evidence.counters));
        assert_eq!(rebuilt.first_unequivocal(), None);
        let q: Vec<NodeId> = rebuilt.quarantine().quarantined().collect();
        let q0: Vec<NodeId> = engine.quarantine().quarantined().collect();
        assert_eq!(q, q0);
    }

    #[test]
    fn install_evidence_invalidates_cached_source() {
        let route = |u: u16, v: u16| Evidence {
            chains_observed: 1,
            nodes: [u, v].into(),
            edges: [(u, v)].into(),
            head_support: [(u, 1)].into(),
            edge_support: [((u, v), 1)].into(),
            ..Evidence::default()
        };
        let mut engine = SinkEngine::new(keys(4), SinkConfig::new(VerifyMode::Nested));
        engine.install_evidence(&route(2, 3));
        // Computes and caches the source.
        assert_eq!(engine.unequivocal_source(), Some(NodeId(2)));
        engine.install_evidence(&route(1, 2));
        // The installed graph has a new most-upstream node.
        assert_eq!(engine.unequivocal_source(), Some(NodeId(1)));
    }

    #[test]
    fn absorb_with_attached_store_emits_delta_once() {
        // Satellite check: absorb merges in memory only; the absorbed
        // evidence rides the *next* checkpoint delta exactly once, so a
        // replay of the store never double-counts it.
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(37);
        let packets: Vec<Packet> = (0..20)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();

        let store = Arc::new(crate::store::MemStore::new());
        let mut a = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        a.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
        assert!(a.store_attached());
        for p in &packets[..10] {
            a.ingest(p);
        }
        assert!(a.checkpoint_to_store().unwrap());

        let mut b = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for p in &packets[10..] {
            b.ingest(p);
        }
        a.absorb(&b);
        // Absorb wrote nothing; the next checkpoint carries it.
        assert_eq!(store.len(), 1);
        assert!(a.checkpoint_to_store().unwrap());
        assert_eq!(store.len(), 2);

        let replayed = store.replay().unwrap().merged();
        assert_eq!(replayed.to_bytes(), a.evidence().to_bytes());
        // Nothing new accumulated: no further record is written.
        assert!(!a.checkpoint_to_store().unwrap());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn checkpoint_without_store_is_an_error() {
        let ks = keys(4);
        let mut engine = SinkEngine::new(ks, SinkConfig::new(VerifyMode::Nested));
        assert!(matches!(
            engine.checkpoint_to_store(),
            Err(crate::store::StoreError::NotAttached)
        ));
    }

    #[test]
    fn counters_merge_is_fieldwise_sum() {
        let a = SinkCounters {
            packets: 1,
            hash_count: 2,
            marks_verified: 3,
            marks_rejected: 4,
            table_builds: 5,
            table_cache_hits: 6,
            resolver_fallback_scans: 7,
            suspicious: 8,
            benign: 9,
            malformed: 10,
            duplicates_suppressed: 11,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b, a + a);
        assert_eq!(b.packets, 2);
        assert_eq!(b.benign, 18);
        assert_eq!(b.malformed, 20);
        assert_eq!(b.duplicates_suppressed, 22);
        let total: SinkCounters = [a, a, a].into_iter().sum();
        assert_eq!(total.hash_count, 6);
    }

    #[test]
    fn ingest_bytes_is_total_over_garbage() {
        let n = 6u16;
        let ks = keys(n);
        let mut engine = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        // Arbitrary garbage, empty input, and a truncated valid packet all
        // become counted rejections, never panics.
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut rng = StdRng::seed_from_u64(13);
        let valid = packet(&ks, &scheme, n, 1, &mut rng).to_bytes();
        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0xff; 3],
            vec![0u8; 4096],
            valid[..valid.len() - 1].to_vec(),
            {
                let mut v = valid.clone();
                v.push(0);
                v
            },
        ];
        for bytes in &inputs {
            let out = engine.ingest_bytes(bytes);
            assert!(!out.admitted());
            assert!(out.rejected());
            assert!(matches!(out.reject, Some(RejectReason::Malformed(_))));
        }
        let c = engine.counters();
        assert_eq!(c.packets, inputs.len());
        assert_eq!(c.malformed, inputs.len());
        assert_eq!(c.marks_verified + c.marks_rejected, 0);
        assert_eq!(engine.observed_count(), 0);
    }

    #[test]
    fn ingest_bytes_matches_ingest_on_valid_packets() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(14);
        let packets: Vec<Packet> = (0..20)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();
        let mut by_packet = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let mut by_bytes = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for p in &packets {
            let a = by_packet.ingest(p);
            let b = by_bytes.ingest_bytes(&p.to_bytes());
            assert_eq!(a, b);
        }
        assert_eq!(by_packet.counters(), by_bytes.counters());
        assert_eq!(by_packet.localize(), by_bytes.localize());
    }

    #[test]
    fn dedup_makes_ingestion_idempotent() {
        let n = 6u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(15);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);

        let mut once = SinkEngine::new(
            Arc::clone(&ks),
            SinkConfig::new(VerifyMode::Nested).dedup(64),
        );
        let first = once.ingest(&pkt);
        assert!(first.admitted());
        let after_one = (once.counters(), once.localize());

        for _ in 0..10 {
            let dup = once.ingest(&pkt);
            assert!(!dup.admitted());
            assert_eq!(dup.reject, Some(RejectReason::Duplicate));
        }
        // Evidence untouched; only the packet/duplicate tallies moved.
        assert_eq!(once.localize(), after_one.1);
        let c = once.counters();
        assert_eq!(c.duplicates_suppressed, 10);
        assert_eq!(c.packets, after_one.0.packets + 10);
        assert_eq!(c.marks_verified, after_one.0.marks_verified);
        assert_eq!(c.hash_count, after_one.0.hash_count);
        assert_eq!(c.table_cache_hits, after_one.0.table_cache_hits);
    }

    #[test]
    fn dedup_distinguishes_differently_marked_copies() {
        // Same report, different mark sets: not duplicates (the whole
        // packet bytes are the key, not just the report).
        let n = 6u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(0.5).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(16);
        let mut engine = SinkEngine::new(
            Arc::clone(&ks),
            SinkConfig::new(VerifyMode::Nested).dedup(64),
        );
        let mut admitted = 0;
        for _ in 0..20 {
            let pkt = packet(&ks, &scheme, n, 1, &mut rng);
            if engine.ingest(&pkt).admitted() {
                admitted += 1;
            }
        }
        // Probabilistic marking varies the mark set: most copies differ.
        assert!(admitted > 1, "only {admitted} admitted");
    }

    #[test]
    fn engine_annotated_localization_uses_configured_support() {
        let n = 8u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(17);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);
        let mut engine = SinkEngine::new(
            Arc::clone(&ks),
            SinkConfig::new(VerifyMode::Nested).min_localization_support(3),
        );
        engine.ingest(&pkt);
        // One fully verified chain: support 1 < 3 → widened region.
        let a = engine.localize_annotated();
        assert!(!a.is_unequivocal());
        assert_eq!(a.support, 1);
        match &a.localization {
            Localization::Ambiguous(region) => {
                assert!(region.contains(&NodeId(0)));
                assert!(region.len() >= 2);
            }
            other => panic!("expected widened region, got {other:?}"),
        }
        // Two more identical chains push support past the threshold.
        engine.ingest(&pkt);
        engine.ingest(&pkt);
        let a = engine.localize_annotated();
        assert!(a.is_unequivocal());
        assert_eq!(a.support, 3);
        assert_eq!(a.localization, Localization::MostUpstream(NodeId(0)));
    }

    #[test]
    fn non_nested_modes_skip_table_machinery() {
        let n = 5u16;
        let ks = keys(n);
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        for (mode, scheme) in [
            (
                VerifyMode::PlainTrust,
                Box::new(PlainMarking::new(cfg)) as Box<dyn MarkingScheme>,
            ),
            (VerifyMode::Ams, Box::new(ExtendedAms::new(cfg))),
        ] {
            let pkt = packet(&ks, scheme.as_ref(), n, 1, &mut rng);
            let mut engine = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(mode));
            let out = engine.ingest(&pkt);
            assert!(out.chain.unwrap().nodes.len() == n as usize, "{mode:?}");
            let c = engine.counters();
            assert_eq!(c.table_builds, 0, "{mode:?}");
            assert_eq!(c.hash_count, 0, "{mode:?}");
        }
    }

    /// Instrumentation is observably free: with a tracer and stage timing
    /// on, every verdict, counter, and localization matches the
    /// uninstrumented engine exactly, while stage histograms fill and the
    /// trace balances.
    #[test]
    fn instrumented_engine_matches_uninstrumented() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(31);
        let packets: Vec<Packet> = (0..60)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();

        let base_cfg = SinkConfig::new(VerifyMode::Nested)
            .table_cache_capacity(4)
            .dedup(16)
            .isolation(IsolationPolicy::SuspectsOnly);

        let mut plain = SinkEngine::new(Arc::clone(&ks), base_cfg.clone());
        let plain_out: Vec<SinkOutcome> = packets.iter().map(|p| plain.ingest(p)).collect();
        assert!(plain.stage_metrics().is_empty(), "timing off by default");

        let (tracer, ring) = pnm_obs::Tracer::ring(100_000);
        let mut traced = SinkEngine::new(
            Arc::clone(&ks),
            base_cfg.clone().tracer(tracer).stage_timing(true),
        );
        let traced_out: Vec<SinkOutcome> = packets.iter().map(|p| traced.ingest(p)).collect();

        assert_eq!(plain_out, traced_out);
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(plain.localize(), traced.localize());
        assert_eq!(plain.unequivocal_source(), traced.unequivocal_source());

        // Every stage histogram saw every admitted packet.
        let stages = traced.stage_metrics();
        assert_eq!(stages.classify.count(), 60);
        assert_eq!(stages.verify.count(), 60);
        assert_eq!(stages.resolve.count(), 60);
        assert_eq!(stages.reconstruct.count(), 60);
        assert_eq!(stages.localize.count(), 60);

        // The trace carries balanced spans plus table-build events.
        use pnm_obs::EventKind;
        let events = ring.events();
        let opens = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanOpen)
            .count();
        let closes = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanClose)
            .count();
        assert_eq!(opens, closes);
        assert!(events.iter().any(|e| e.name == "sink.table_build"));
        assert_eq!(ring.dropped(), 0);
    }

    /// A wire-carried [`TraceContext`] turns one staged pass into one
    /// correlated trace: a `sink.ingest` child of the caller's span,
    /// every stage span a child of `sink.ingest`, all in the same
    /// trace — and the outcome is identical to the untraced pass.
    #[test]
    fn ingest_ctx_correlates_stage_spans_under_one_trace() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(9);
        let pkt = packet(&ks, &scheme, n, 0, &mut rng);

        let base_cfg = SinkConfig::new(VerifyMode::Nested).table_cache_capacity(4);
        let mut plain = SinkEngine::new(Arc::clone(&ks), base_cfg.clone());
        let plain_out = plain.ingest(&pkt);

        let (tracer, ring) = pnm_obs::Tracer::ring(1024);
        let mut traced = SinkEngine::new(Arc::clone(&ks), base_cfg.tracer(tracer.clone()));
        let wire_ctx = {
            let root = tracer.span_root("client.send");
            root.context().expect("recording")
        };
        let traced_out = traced.ingest_ctx(&pkt, pkt.report.timestamp, wire_ctx);
        assert_eq!(plain_out, traced_out);
        assert_eq!(plain.counters(), traced.counters());

        use pnm_obs::EventKind;
        let events = ring.events();
        assert!(
            events.iter().all(|e| e.trace == wire_ctx.trace),
            "every event joins the wire trace"
        );
        let ingest_open = events
            .iter()
            .find(|e| e.name == "sink.ingest" && e.kind == EventKind::SpanOpen)
            .expect("sink.ingest span present");
        assert_eq!(ingest_open.parent, wire_ctx.parent);
        for stage in crate::STAGE_NAMES {
            let name = format!("sink.{stage}");
            let open = events
                .iter()
                .find(|e| e.name == name && e.kind == EventKind::SpanOpen)
                .unwrap_or_else(|| panic!("{name} span present"));
            assert_eq!(open.parent, ingest_open.span, "{name} parents sink.ingest");
        }
        // Instants (table builds) ride the same trace too.
        let build = events
            .iter()
            .find(|e| e.name == "sink.table_build")
            .expect("table build instant");
        assert_eq!(build.trace, wire_ctx.trace);
        assert_eq!(build.span, ingest_open.span);

        // An untraced pass on the same engine records a packet-level
        // span only: per-stage detail is reserved for carried traces.
        let mut rng2 = StdRng::seed_from_u64(10);
        let pkt2 = packet(&ks, &scheme, n, 1, &mut rng2);
        traced.ingest(&pkt2);
        let untraced: Vec<_> = ring.events().into_iter().filter(|e| e.trace == 0).collect();
        assert!(untraced
            .iter()
            .any(|e| e.kind == EventKind::SpanOpen && e.name == "sink.ingest"));
        assert!(
            !untraced.iter().any(|e| e.name == "sink.classify"),
            "stage spans never open without a trace"
        );
    }

    /// Stage timing alone (no tracer) fills histograms; topology-guided
    /// resolution attributes ring-search time to the resolve stage.
    #[test]
    fn stage_timing_covers_topology_resolution() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SinkConfig::new(VerifyMode::Nested)
            .topology(chain_adjacency(n))
            .stage_timing(true);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg);
        for seq in 0..40 {
            let pkt = packet(&ks, &scheme, n, seq, &mut rng);
            engine.ingest(&pkt);
        }
        let stages = engine.stage_metrics();
        assert_eq!(stages.verify.count(), 40);
        assert_eq!(stages.resolve.count(), 40);
        assert_eq!(engine.counters().table_builds, 0);
    }

    /// Each lap ends at the instant the next one starts, so a packet's
    /// stage laps add up to its whole pass with nothing lost between two
    /// clock reads.
    #[test]
    fn stage_clock_laps_sum_to_elapsed() {
        let mut clock = StageClock::start(true);
        let start = clock.0.expect("an enabled clock holds its start");
        let mut laps = 0u64;
        for i in 0..5u64 {
            std::hint::black_box((0..1000 * (i + 1)).sum::<u64>());
            laps += clock.lap_ns();
        }
        let end = clock.0.expect("an enabled clock holds its last lap");
        assert_eq!(laps, (end - start).as_nanos() as u64);

        let mut off = StageClock::start(false);
        assert_eq!(off.lap_ns(), 0);
        assert!(!off.enabled());
    }

    /// `absorb` folds stage histograms exactly like counters.
    #[test]
    fn absorb_merges_stage_metrics() {
        let n = 6u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(77);
        let cfg = SinkConfig::new(VerifyMode::Nested).stage_timing(true);
        let mut a = SinkEngine::new(Arc::clone(&ks), cfg.clone());
        let mut b = SinkEngine::new(Arc::clone(&ks), cfg);
        for seq in 0..10 {
            let pkt = packet(&ks, &scheme, n, seq, &mut rng);
            if seq % 2 == 0 {
                a.ingest(&pkt);
            } else {
                b.ingest(&pkt);
            }
        }
        let before = a.stage_metrics();
        a.absorb(&b);
        assert_eq!(a.stage_metrics().classify.count(), 10);
        let mut expect = before;
        expect.merge(&b.stage_metrics());
        assert_eq!(a.stage_metrics(), expect);
    }
}

#[cfg(test)]
mod lane_tests {
    use super::tests::chain_adjacency;
    use super::*;
    use crate::scheme::{MarkingScheme, NodeContext, ProbabilisticNestedMarking};
    use pnm_crypto::{AnonId, MacKey};
    use pnm_wire::{Location, Mark, Report};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Four-neighbour adjacency of a `side` × `side` grid, ids row-major.
    fn grid_adjacency(side: u16) -> HashMap<u16, Vec<u16>> {
        (0..side * side)
            .map(|i| {
                let (x, y) = (i % side, i / side);
                let neigh = [
                    (x > 0).then(|| i - 1),
                    (x + 1 < side).then(|| i + 1),
                    (y > 0).then(|| i - side),
                    (y + 1 < side).then(|| i + side),
                ];
                (i, neigh.into_iter().flatten().collect())
            })
            .collect()
    }

    /// A 20-hop route across the 16 × 16 grid: along row 0, then down
    /// column 15 toward the sink.
    fn grid_route() -> Vec<u16> {
        (0..16).chain([31, 47, 63, 79]).collect()
    }

    /// `packets` honest packets along `route` under PNM with three marks
    /// per packet on average, each packet's report one of `reports`
    /// cycling.
    fn honest_stream(
        keys: &KeyStore,
        route: &[u16],
        packets: u64,
        reports: u64,
        seed: u64,
    ) -> Vec<Packet> {
        let scheme = ProbabilisticNestedMarking::paper_default(route.len());
        let mut rng = StdRng::seed_from_u64(seed);
        (0..packets)
            .map(|seq| {
                let r = seq % reports;
                let report = Report::new(
                    format!("lane-{r}").into_bytes(),
                    Location::new(r as f32, 0.0),
                    r,
                );
                let mut pkt = Packet::new(report);
                for &hop in route {
                    let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                    scheme.mark(&ctx, &mut pkt, &mut rng);
                }
                pkt
            })
            .collect()
    }

    /// Four tampered variants of each packet: a corrupted MAC, a stripped
    /// MAC and a removed mark (at a position varying with the packet), and
    /// a forged anonymous mark appended. A packet without marks gets only
    /// the forged one.
    fn tampered(honest: &[Packet]) -> Vec<Packet> {
        let forger = MacKey::derive(b"forger", 0);
        let mut out = Vec::new();
        for (k, pkt) in honest.iter().enumerate() {
            if !pkt.marks.is_empty() {
                let i = (k * 7) % pkt.marks.len();
                let mut p = pkt.clone();
                p.marks[i].mac = p.marks[i].mac.map(|m| m.corrupted());
                out.push(p);
                let mut p = pkt.clone();
                p.marks[i].mac = None;
                out.push(p);
                let mut p = pkt.clone();
                p.marks.remove(i);
                out.push(p);
            }
            let mut p = pkt.clone();
            let aid = AnonId::from_bytes((k as u64).to_be_bytes());
            let mac = forger.mark_mac(&p.to_bytes(), 8);
            p.push_mark(Mark::anon(aid, mac));
            out.push(p);
        }
        out
    }

    /// Engine-level pin for the batched verify path: with no topology, a
    /// chain topology and a grid topology, every outcome's chain matches
    /// the §4.1 scalar oracle (scalar table build, scalar backward walk) —
    /// including tampered chains, where the batched sweep must replay the
    /// scalar walk's stop-at-first-invalid semantics. Marking is
    /// probabilistic, so gaps between markers exceed the §7 ring radius.
    /// The counters add up to what the oracle verified.
    #[test]
    fn engine_matches_scalar_oracle() {
        let chain_route: Vec<u16> = (0..24).collect();
        for (name, nodes, route, topology) in [
            ("none", 24, chain_route.clone(), None),
            ("chain", 24, chain_route, Some(chain_adjacency(24))),
            ("grid", 256, grid_route(), Some(grid_adjacency(16))),
        ] {
            let keys = Arc::new(KeyStore::derive_from_master(b"lane-sink", nodes));
            let honest = honest_stream(&keys, &route, 80, 6, 9);
            let packets = [honest.clone(), tampered(&honest)].concat();

            let mut cfg = SinkConfig::new(VerifyMode::Nested).stage_timing(true);
            if let Some(adjacency) = topology.clone() {
                cfg = cfg.topology(adjacency);
            }
            let mut engine = SinkEngine::new(Arc::clone(&keys), cfg);
            let oracle = SinkVerifier::new(Arc::clone(&keys));
            let (mut verified, mut rejected) = (0, 0);
            for pkt in &packets {
                let expect = oracle.verify_nested_scalar(pkt);
                verified += expect.nodes.len();
                rejected += expect.total_marks - expect.nodes.len();
                assert_eq!(engine.ingest(pkt).chain, Some(expect), "{name}");
            }
            let c = engine.counters();
            assert_eq!(c.marks_verified, verified, "{name}");
            assert_eq!(c.marks_rejected, rejected, "{name}");
            if topology.is_some() {
                assert_eq!(c.table_builds, 0, "{name}");
            } else {
                // Six distinct reports fit the default 8-table cache: one
                // table build (hashing every node) per report.
                assert_eq!(c.table_builds, 6);
                assert_eq!(c.hash_count, 6 * keys.len());
            }
            // Every stage recorded every packet.
            for (stage, h) in engine.stage_metrics().iter() {
                assert_eq!(h.count(), packets.len() as u64, "{name} stage {stage}");
            }
        }
    }

    /// §7 resolution cost on the grid workload, one fresh report per
    /// packet: the work a topology engine spends, pinned to the scalar
    /// ring walk's (rings 0–3 around the previously verified node, then
    /// the ascending scan of every node not probed). On honest packets
    /// both the `H'` count and the fallback scans are pinned; over the
    /// tampered variants too, the fallback scans.
    #[test]
    fn topology_engine_work_is_the_scalar_ring_walks() {
        let keys = Arc::new(KeyStore::derive_from_master(b"lane-grid", 256));
        let honest = honest_stream(&keys, &grid_route(), 400, 400, 20);
        let cfg = SinkConfig::new(VerifyMode::Nested).topology(grid_adjacency(16));
        let mut engine = SinkEngine::new(Arc::clone(&keys), cfg);
        engine.ingest_batch(&honest);
        let c = engine.counters();
        assert_eq!(
            (c.hash_count, c.resolver_fallback_scans),
            (24_484, 766),
            "honest packets"
        );
        engine.ingest_batch(&tampered(&honest));
        assert_eq!(engine.counters().resolver_fallback_scans, 2_152);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::MarkingConfig;
    use crate::scheme::{
        ExtendedAms, MarkingScheme, NestedMarking, NodeContext, PlainMarking,
        ProbabilisticNestedMarking,
    };
    use pnm_wire::{Location, Report};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds `n_packets` marked packets over `n_reports` distinct reports,
    /// under one of the five schemes (indexed 0..5, covering every
    /// [`VerifyMode`]).
    fn scenario(
        scheme_idx: usize,
        path_len: u16,
        n_packets: usize,
        n_reports: usize,
        seed: u64,
    ) -> (Arc<KeyStore>, VerifyMode, Vec<Packet>) {
        let keys = Arc::new(KeyStore::derive_from_master(b"sink-prop", path_len));
        let cfg = MarkingConfig::builder().marking_probability(0.5).build();
        let (mode, scheme): (VerifyMode, Box<dyn MarkingScheme>) = match scheme_idx {
            0 => (VerifyMode::PlainTrust, Box::new(PlainMarking::new(cfg))),
            1 => (VerifyMode::Ams, Box::new(ExtendedAms::new(cfg))),
            2 => (
                VerifyMode::Nested,
                Box::new(NestedMarking::new(MarkingConfig::default())),
            ),
            3 => (
                VerifyMode::Nested,
                Box::new(ProbabilisticNestedMarking::new(cfg)),
            ),
            _ => (
                VerifyMode::Nested,
                Box::new(ProbabilisticNestedMarking::paper_default(path_len as usize)),
            ),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let packets = (0..n_packets)
            .map(|i| {
                let rep = (i % n_reports) as u64;
                let report = Report::new(
                    format!("prop-{rep}").into_bytes(),
                    Location::new(rep as f32, 1.0),
                    rep,
                );
                let mut pkt = Packet::new(report);
                for hop in 0..path_len {
                    let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                    scheme.mark(&ctx, &mut pkt, &mut rng);
                }
                pkt
            })
            .collect();
        (keys, mode, packets)
    }

    /// A store that keeps every appended record's encoding, in order.
    #[derive(Debug, Default)]
    struct RecordingStore(std::sync::Mutex<Vec<Vec<u8>>>);

    impl EvidenceStore for RecordingStore {
        fn append(
            &self,
            _shard: u32,
            _kind: crate::store::RecordKind,
            evidence: &Evidence,
        ) -> Result<(), StoreError> {
            self.0.lock().unwrap().push(evidence.to_bytes());
            Ok(())
        }

        fn replay(&self) -> Result<crate::store::StoreReplay, StoreError> {
            unimplemented!("records are read directly")
        }

        fn compact(&self) -> Result<(), StoreError> {
            Ok(())
        }

        fn sync(&self) -> Result<(), StoreError> {
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The incremental checkpoint delta equals the full-diff oracle
        /// `now.delta_since(&prev)` byte for byte at every checkpoint —
        /// through duplicates, malformed bytes, quarantine growth, and
        /// evidence installed or absorbed before attachment and mid-run —
        /// and an empty oracle writes no record at all.
        #[test]
        fn incremental_delta_matches_delta_since_oracle(
            path_len in 3u16..12,
            n_packets in 1usize..30,
            n_reports in 1usize..6,
            interval_idx in 0usize..3,
            isolation in any::<bool>(),
            pre_install in any::<bool>(),
            pre_absorb in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let interval = [1usize, 3, 7][interval_idx];
            let (keys, mode, packets) = scenario(3, path_len, n_packets, n_reports, seed);
            let mut cfg = SinkConfig::new(mode).dedup(64);
            if isolation {
                cfg = cfg.isolation(IsolationPolicy::SuspectsOnly);
            }
            // The wire stream: every packet, every third one duplicated,
            // and garbage after every fourth.
            let mut stream: Vec<Vec<u8>> = Vec::new();
            for (i, p) in packets.iter().enumerate() {
                stream.push(p.to_bytes());
                if i % 3 == 1 {
                    stream.push(p.to_bytes());
                }
                if i % 4 == 2 {
                    stream.push(vec![0xA5; i % 7]);
                }
            }
            // Evidence from elsewhere: a second engine over other reports.
            let (_, _, others) = scenario(4, path_len, 6, 3, seed ^ 0x5eed);
            let mut other = SinkEngine::new(Arc::clone(&keys), cfg.clone());
            other.ingest_batch(&others);
            other.refresh_quarantine();

            let mut engine = SinkEngine::new(Arc::clone(&keys), cfg);
            if pre_install {
                engine.install_evidence(&other.evidence());
            }
            if pre_absorb {
                engine.absorb(&other);
            }
            // The same run with no store, taking deltas itself: its first
            // take, with nothing recorded yet, exports everything since
            // construction.
            let mut mirror = engine.clone();
            let mut mirror_prev = Evidence::default();
            let store = Arc::new(RecordingStore::default());
            engine.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
            let attached_at = engine.evidence();
            let mut prev = attached_at.clone();
            for (i, bytes) in stream.iter().enumerate() {
                for e in [&mut engine, &mut mirror] {
                    e.ingest_bytes(bytes);
                    if i == stream.len() / 2 {
                        e.absorb(&other);
                    }
                }
                if (i + 1) % interval != 0 && i + 1 != stream.len() {
                    continue;
                }
                if isolation && i % 2 == 0 {
                    engine.refresh_quarantine();
                    mirror.refresh_quarantine();
                }
                let mirror_now = mirror.evidence();
                prop_assert_eq!(
                    mirror.take_evidence_delta().to_bytes(),
                    mirror_now.delta_since(&mirror_prev).to_bytes()
                );
                mirror_prev = mirror_now;
                let now = engine.evidence();
                let oracle = now.delta_since(&prev);
                let before = store.0.lock().unwrap().len();
                let wrote = engine.checkpoint_to_store().unwrap();
                let records = store.0.lock().unwrap();
                prop_assert_eq!(wrote, !oracle.is_empty());
                prop_assert_eq!(records.len(), before + usize::from(wrote));
                if wrote {
                    prop_assert_eq!(records.last().unwrap(), &oracle.to_bytes());
                }
                prev = now;
            }
            // The records rebuild the evidence from the attachment point.
            let mut replayed = attached_at;
            for record in store.0.lock().unwrap().iter() {
                replayed.merge(&Evidence::from_bytes(record).unwrap());
            }
            prop_assert_eq!(replayed.to_bytes(), engine.evidence().to_bytes());
            // Nothing accrued since the last checkpoint: the next delta is
            // empty.
            prop_assert!(engine.take_evidence_delta().is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `ingest_batch` is observably identical to per-packet `ingest`
        /// across random scenarios and every verify mode: same chains, same
        /// localization, same counters. On nested multi-packet same-report
        /// workloads it additionally performs strictly fewer anon-ID hash
        /// evaluations than N independent single-packet engines.
        #[test]
        fn batch_equals_sequential_ingest(
            scheme_idx in 0usize..5,
            path_len in 2u16..14,
            n_packets in 1usize..10,
            n_reports in 1usize..4,
            seed in any::<u64>(),
        ) {
            let (keys, mode, packets) = scenario(scheme_idx, path_len, n_packets, n_reports, seed);

            let mut seq = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(mode));
            let seq_out: Vec<SinkOutcome> = packets.iter().map(|p| seq.ingest(p)).collect();

            let mut batch = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(mode));
            let batch_out = batch.ingest_batch(&packets);

            prop_assert_eq!(&seq_out, &batch_out);
            prop_assert_eq!(seq.counters(), batch.counters());
            prop_assert_eq!(seq.localize(), batch.localize());
            prop_assert_eq!(seq.unequivocal_source(), batch.unequivocal_source());
            prop_assert_eq!(seq.first_unequivocal(), batch.first_unequivocal());

            // Lane-parallel crypto is a pure optimization: every chain is
            // the one the §4.1 scalar oracle verifies (non-nested modes have
            // no lane path and answer through `verify`).
            let oracle = batch.verifier();
            for (p, out) in packets.iter().zip(&batch_out) {
                let expect = match mode {
                    VerifyMode::Nested => oracle.verify_nested_scalar(p),
                    _ => oracle.verify(p, mode),
                };
                prop_assert_eq!(out.chain.as_ref(), Some(&expect));
            }

            // Strict amortization vs independent engines whenever the
            // workload actually repeats a report under nested verification
            // with at least one anonymous mark resolved per duplicate.
            if mode == VerifyMode::Nested && n_packets > n_reports {
                let fresh_total: usize = packets
                    .iter()
                    .map(|p| {
                        let mut e = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(mode));
                        e.ingest(p);
                        e.counters().hash_count
                    })
                    .sum();
                let any_anon_repeat = batch.counters().table_cache_hits > 0
                    && batch.counters().hash_count > 0;
                if any_anon_repeat {
                    prop_assert!(
                        batch.counters().hash_count < fresh_total,
                        "batch {} vs fresh {}",
                        batch.counters().hash_count,
                        fresh_total
                    );
                }
            }
        }
    }
}
