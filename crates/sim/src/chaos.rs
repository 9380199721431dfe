//! Chaos soak: drives the full PNM pipeline through the fault-injection
//! layer in `pnm-net` and measures how localization degrades.
//!
//! Each sweep point runs the canonical bogus-report stream down a marked
//! forwarding chain while the link layer injects Gilbert–Elliott bursty
//! loss, per-byte bit corruption, and per-hop duplication. Everything the
//! network emits — clean deliveries, corrupted-but-parseable deliveries,
//! and garbled frames that no longer decode — is fed to a single
//! [`SinkEngine`] through its total ingestion paths
//! ([`SinkEngine::ingest`] / [`SinkEngine::ingest_bytes`]) with duplicate
//! suppression enabled.
//!
//! The quantities of interest are the paper-level robustness claims:
//!
//! * **Precision** — does the (possibly widened) localization region
//!   still contain the true most-upstream forwarder? Loss thins the
//!   evidence, so its failure mode is a *wider region* or lower
//!   confidence. Corruption breaks a nested chain at the flipped byte, so
//!   only marks added downstream of it verify: from about 1% per byte the
//!   region moves toward the sink and no longer holds the source.
//! * **False implication** — the fraction of implicated nodes that are
//!   not on the true forwarding path. Nested MACs make fabricating
//!   evidence under random corruption computationally negligible, so this
//!   stays at zero across the whole sweep. On a chain every node is on
//!   the path, so the rate only catches node ids the path lacks.
//!
//! Every run is a pure function of its seed: the fault plan draws from
//! its own RNG stream, so runs are reproducible bit-for-bit, and so is
//! the sweep's table ([`chaos_table`], `regen-figures chaos`).

use std::sync::Arc;

use rand::rngs::StdRng;

use pnm_core::{
    AnnotatedLocalization, Localization, MarkingScheme, NodeContext, ProbabilisticNestedMarking,
    SinkConfig, SinkCounters, SinkEngine, SinkOutcome, VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_net::{FaultPlan, GilbertElliott, Network, NodeDecision, SimReport, Topology};
use pnm_obs::Tracer;
use pnm_wire::{NodeId, Packet};

use crate::runner::bogus_packet;
use crate::table::Table;

/// One point in the fault-intensity sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosPoint {
    /// Target steady-state bursty loss probability per hop (Gilbert–
    /// Elliott, `[0, 1)`). Zero disables the burst channel.
    pub burst_loss: f64,
    /// Per-byte bit-flip probability applied to the encoded frame at each
    /// hop. Zero disables corruption.
    pub corrupt_byte: f64,
    /// Per-hop duplication probability. Zero disables duplication.
    pub duplicate: f64,
}

impl ChaosPoint {
    /// The fault-free origin of the sweep.
    pub fn clean() -> Self {
        ChaosPoint {
            burst_loss: 0.0,
            corrupt_byte: 0.0,
            duplicate: 0.0,
        }
    }

    /// The acceptance combo the soak must survive without a panic:
    /// 20% bursty loss, 1% per-byte corruption, 5% duplication.
    pub fn acceptance() -> Self {
        ChaosPoint {
            burst_loss: 0.20,
            corrupt_byte: 0.01,
            duplicate: 0.05,
        }
    }

    /// Short human-readable tag naming the point in test failures.
    pub fn label(&self) -> String {
        format!(
            "loss={:.3} corrupt={:.4} dup={:.3}",
            self.burst_loss, self.corrupt_byte, self.duplicate
        )
    }
}

/// Scenario shape shared by every point of a sweep.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Forwarding-chain length (node 0 is the most-upstream forwarder).
    pub path_len: u16,
    /// Bogus packets injected per point.
    pub packets: usize,
    /// Injection interval in simulated microseconds.
    pub interval_us: u64,
    /// Mean burst length, in hops, for the Gilbert–Elliott bad state.
    pub mean_burst_hops: f64,
    /// Sink-side duplicate-suppression window capacity.
    pub dedup_capacity: usize,
    /// Minimum head support below which localization widens to a region.
    pub min_support: usize,
    /// Base seed; both the simulation and the fault plan derive from it.
    pub seed: u64,
}

impl ChaosConfig {
    /// The sweep's scenario: a 10-hop chain, 400 packets per point.
    pub fn full() -> Self {
        ChaosConfig {
            path_len: 10,
            packets: 400,
            interval_us: 20_000,
            mean_burst_hops: 5.0,
            dedup_capacity: 1024,
            min_support: 2,
            seed: 2007,
        }
    }
}

/// Everything one sweep point produced.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// The fault intensities of this point.
    pub point: ChaosPoint,
    /// Packets injected at the source.
    pub injected: usize,
    /// Parseable packets that reached the sink (clean or corrupted).
    pub delivered: usize,
    /// Undecodable frames that reached the sink.
    pub garbled: usize,
    /// The network's per-fault counters.
    pub faults: pnm_net::FaultCounters,
    /// The sink engine's pipeline counters after the run.
    pub counters: SinkCounters,
    /// The annotated localization at end of run.
    pub annotated: AnnotatedLocalization,
    /// Nodes the localization implicates (most-upstream candidates).
    pub implicated: Vec<u16>,
    /// Whether the sink unequivocally identified the true node 0.
    pub identified: bool,
    /// Whether the implicated region contains the true node 0.
    pub contains_true_source: bool,
    /// Fraction of implicated nodes that are off the true path.
    pub false_implication_rate: f64,
}

/// Builds the fault plan for a sweep point (its RNG stream is derived
/// from the scenario seed, independent of the simulation RNG).
pub fn fault_plan(cfg: &ChaosConfig, point: &ChaosPoint) -> FaultPlan {
    let mut plan = FaultPlan::new(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    if point.burst_loss > 0.0 {
        plan = plan.with_burst_loss(GilbertElliott::bursty(
            point.burst_loss,
            cfg.mean_burst_hops,
        ));
    }
    if point.corrupt_byte > 0.0 {
        plan = plan.with_corruption(point.corrupt_byte);
    }
    if point.duplicate > 0.0 {
        plan = plan.with_duplication(point.duplicate);
    }
    plan
}

/// Runs the marked bogus stream through the faulty network and returns
/// the keystore plus the raw simulation report. Every injected fault emits
/// an event to `tracer` ([`Tracer::noop`] for none). Tracing is
/// observation only — the simulation's RNG streams, deliveries, and fault
/// counters are bit-identical with or without it.
pub fn simulate_faulty_path(
    cfg: &ChaosConfig,
    point: &ChaosPoint,
    tracer: &Tracer,
) -> (Arc<KeyStore>, SimReport) {
    let keys = Arc::new(KeyStore::derive_from_master(b"chaos", cfg.path_len));
    let scheme = ProbabilisticNestedMarking::paper_default(cfg.path_len as usize);
    let contexts: Vec<NodeContext> = (0..cfg.path_len)
        .map(|i| NodeContext::new(NodeId(i), *keys.key(i).expect("provisioned")))
        .collect();
    let net = Network::new(Topology::chain(cfg.path_len, 10.0))
        .with_faults(fault_plan(cfg, point))
        .with_tracer(tracer.clone());
    let mut handler = |node: u16, pkt: &mut Packet, _now: u64, rng: &mut StdRng| {
        scheme.mark(&contexts[node as usize], pkt, rng);
        NodeDecision::Forward
    };
    let report = net.simulate_stream(
        0,
        cfg.packets,
        cfg.interval_us,
        |seq| bogus_packet(seq, cfg.seed),
        &mut handler,
        cfg.seed,
    );
    (keys, report)
}

/// The sink configuration a chaos run ingests under: duplicate
/// suppression on, support-annotated localization.
pub fn chaos_sink_config(cfg: &ChaosConfig) -> SinkConfig {
    SinkConfig::new(VerifyMode::Nested)
        .dedup(cfg.dedup_capacity)
        .min_localization_support(cfg.min_support)
}

/// One arrival at the sink.
#[derive(Clone, Copy, Debug)]
pub enum Arrival<'a> {
    /// A packet that still decodes, clean or corrupted.
    Delivered(&'a Packet),
    /// A frame that no longer decodes.
    Garbled(&'a [u8]),
}

impl Arrival<'_> {
    /// Feeds the arrival to `engine` through its total ingestion path. A
    /// garbled frame is a counted rejection by construction.
    pub fn feed(self, engine: &mut SinkEngine) -> SinkOutcome {
        match self {
            Arrival::Delivered(pkt) => engine.ingest(pkt),
            Arrival::Garbled(bytes) => engine.ingest_bytes(bytes),
        }
    }
}

/// Everything the network emitted, deliveries and garbled frames
/// interleaved in arrival order (a delivery first on a tie).
pub fn arrivals(sim: &SimReport) -> Vec<Arrival<'_>> {
    let (deliveries, garbled) = (&sim.deliveries, &sim.garbled);
    let mut out = Vec::with_capacity(deliveries.len() + garbled.len());
    let (mut d, mut g) = (0, 0);
    while d < deliveries.len() || g < garbled.len() {
        if g < garbled.len()
            && (d >= deliveries.len() || garbled[g].time_us < deliveries[d].time_us)
        {
            out.push(Arrival::Garbled(&garbled[g].bytes));
            g += 1;
        } else {
            out.push(Arrival::Delivered(&deliveries[d].packet));
            d += 1;
        }
    }
    out
}

/// Feeds every [`arrivals`] of `sim` to a fresh engine whose pipeline
/// stages emit spans to `tracer`. Verdicts, counters, and localization are
/// unchanged by the instrumentation.
pub fn ingest_sim_report(
    cfg: &ChaosConfig,
    keys: &Arc<KeyStore>,
    sim: &SimReport,
    tracer: &Tracer,
) -> SinkEngine {
    let mut engine = SinkEngine::new(
        Arc::clone(keys),
        chaos_sink_config(cfg).tracer(tracer.clone()),
    );
    for arrival in arrivals(sim) {
        arrival.feed(&mut engine);
    }
    engine
}

/// The nodes a localization verdict implicates as most-upstream
/// candidates (empty for no evidence).
pub fn implicated_nodes(loc: &Localization) -> Vec<u16> {
    let mut nodes: Vec<u16> = match loc {
        Localization::NoEvidence => Vec::new(),
        Localization::MostUpstream(n) => vec![n.raw()],
        Localization::Ambiguous(candidates) => candidates.iter().map(|n| n.raw()).collect(),
        Localization::Loop { members, junction } => members
            .iter()
            .chain(junction.iter())
            .map(|n| n.raw())
            .collect(),
    };
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Runs one sweep point end to end and computes the degradation metrics,
/// with spans and fault events flowing to `tracer`. The returned
/// [`ChaosRun`] is bit-identical to an untraced run's — timing never
/// enters the degradation metrics, so they stay a pure function of the
/// seed.
pub fn run_point(cfg: &ChaosConfig, point: &ChaosPoint, tracer: &Tracer) -> ChaosRun {
    let (keys, sim) = simulate_faulty_path(cfg, point, tracer);
    let engine = ingest_sim_report(cfg, &keys, &sim, tracer);

    let annotated = engine.localize_annotated();
    let implicated = implicated_nodes(&annotated.localization);
    let off_path = implicated.iter().filter(|&&n| n >= cfg.path_len).count();
    let false_implication_rate = off_path as f64 / implicated.len().max(1) as f64;

    ChaosRun {
        point: *point,
        injected: cfg.packets,
        delivered: sim.deliveries.len(),
        garbled: sim.garbled.len(),
        faults: sim.faults,
        counters: engine.counters(),
        identified: engine.unequivocal_source() == Some(NodeId(0)),
        contains_true_source: implicated.contains(&0),
        false_implication_rate,
        implicated,
        annotated,
    }
}

/// One kill-and-recover measurement: the chaos arrival stream is cut at
/// `kill_fraction`, all process state is discarded, the evidence log's
/// tail is damaged the way a SIGKILL mid-append leaves it, and a fresh
/// engine is rebuilt from the log before ingesting the rest of the
/// stream. See [`run_recovery_point`].
#[derive(Clone, Debug)]
pub struct RecoveryRun {
    /// The fault intensities of this point.
    pub point: ChaosPoint,
    /// Fraction of the arrival stream ingested before the kill.
    pub kill_fraction: f64,
    /// Total arrivals (deliveries + garbled frames) in the stream.
    pub arrivals: usize,
    /// Arrivals ingested before the kill.
    pub killed_after: usize,
    /// Log records the recovery replayed.
    pub records_replayed: usize,
    /// Damaged/torn frames the replay counted and skipped.
    pub rejected_frames: usize,
    /// Packets of evidence restored from the log (the pre-kill count).
    pub packets_restored: usize,
    /// Whether the recovered-and-continued engine's localization and
    /// unequivocal-source verdicts equal the uninterrupted run's.
    pub verdict_identical: bool,
    /// Whether the full evidence encoding is byte-identical to the
    /// uninterrupted run. With duplication faults this can honestly be
    /// `false`: the dedup window is transient state, not evidence, so a
    /// duplicate straddling the kill is re-admitted and inflates support
    /// counts — it never changes which nodes are implicated.
    pub evidence_identical: bool,
    /// Whether the recovered run's implicated region contains node 0.
    pub contains_true_source: bool,
    /// Off-path fraction of the recovered run's implicated set.
    pub false_implication_rate: f64,
}

/// Runs one kill-and-recover point end to end.
///
/// The kill is simulated faithfully: nothing in-memory survives, and the
/// on-disk log gets a torn garbage tail (the bytes a process killed
/// mid-`write` leaves behind), which recovery must count and discard.
/// Determinism note: every recorded field is a pure function of the
/// seed — replay wall-clock never enters the result.
pub fn run_recovery_point(
    cfg: &ChaosConfig,
    point: &ChaosPoint,
    kill_fraction: f64,
) -> RecoveryRun {
    use pnm_core::store::{EvidenceStore, LogStore};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "pnm-chaos-recovery-{}-{}.log",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));

    let (keys, sim) = simulate_faulty_path(cfg, point, &Tracer::noop());
    let arrivals = arrivals(&sim);

    // The run that is never interrupted.
    let mut uninterrupted = SinkEngine::new(Arc::clone(&keys), chaos_sink_config(cfg));
    for a in &arrivals {
        a.feed(&mut uninterrupted);
    }

    // The killed run: log-backed, checkpointing every arrival.
    let killed_after = ((arrivals.len() as f64) * kill_fraction) as usize;
    let store = Arc::new(LogStore::open(&path).expect("open chaos recovery log"));
    let mut engine = SinkEngine::new(Arc::clone(&keys), chaos_sink_config(cfg));
    engine.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
    for a in &arrivals[..killed_after] {
        a.feed(&mut engine);
        engine.checkpoint_to_store().expect("checkpoint");
    }
    drop(engine);
    drop(store);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen log for tail damage");
        f.write_all(&[0x55; 9]).expect("write torn tail");
    }

    // Recovery: reopen (truncating the torn tail), replay, continue.
    let store = Arc::new(LogStore::open(&path).expect("reopen damaged log"));
    let replay = store.replay().expect("replay chaos log");
    let restored = replay.merged();
    let mut recovered = SinkEngine::new(Arc::clone(&keys), chaos_sink_config(cfg));
    recovered.install_evidence(&restored);
    recovered.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
    for a in &arrivals[killed_after..] {
        a.feed(&mut recovered);
        recovered.checkpoint_to_store().expect("checkpoint");
    }
    std::fs::remove_file(&path).ok();

    let annotated = recovered.localize_annotated();
    let implicated = implicated_nodes(&annotated.localization);
    let off_path = implicated.iter().filter(|&&n| n >= cfg.path_len).count();

    RecoveryRun {
        point: *point,
        kill_fraction,
        arrivals: arrivals.len(),
        killed_after,
        records_replayed: replay.records,
        rejected_frames: replay.rejected_frames,
        packets_restored: restored.counters.packets,
        verdict_identical: recovered.localize() == uninterrupted.localize()
            && recovered.unequivocal_source() == uninterrupted.unequivocal_source(),
        evidence_identical: recovered.evidence().to_bytes() == uninterrupted.evidence().to_bytes(),
        contains_true_source: implicated.contains(&0),
        false_implication_rate: off_path as f64 / implicated.len().max(1) as f64,
    }
}

/// The kill-and-recover sweep: clean and acceptance fault intensities,
/// each killed at a quarter, half and three quarters of the stream.
pub fn recovery_sweep() -> Vec<(ChaosPoint, f64)> {
    let mut sweep = Vec::new();
    for f in [0.25, 0.5, 0.75] {
        sweep.push((ChaosPoint::clean(), f));
        sweep.push((ChaosPoint::acceptance(), f));
    }
    sweep
}

/// The fault-intensity sweep, 17 points: one axis at a time from the
/// clean origin, plus combined-stress points including
/// [`ChaosPoint::acceptance`].
pub fn sweep_points() -> Vec<ChaosPoint> {
    let clean = ChaosPoint::clean();
    let mut points = vec![clean];
    for loss in [0.05, 0.10, 0.20, 0.30, 0.40] {
        points.push(ChaosPoint {
            burst_loss: loss,
            ..clean
        });
    }
    for corrupt in [0.002, 0.005, 0.01, 0.02, 0.04] {
        points.push(ChaosPoint {
            corrupt_byte: corrupt,
            ..clean
        });
    }
    for dup in [0.02, 0.05, 0.10, 0.20] {
        points.push(ChaosPoint {
            duplicate: dup,
            ..clean
        });
    }
    points.push(ChaosPoint::acceptance());
    points.push(ChaosPoint {
        burst_loss: 0.30,
        corrupt_byte: 0.02,
        duplicate: 0.10,
    });
    points
}

/// The degradation table: one row per [`sweep_points`] point, from
/// fault-free to combined stress. Loss and corruption thin the evidence,
/// so a row may show fewer chains, a wider region or no evidence at all;
/// its false-implication rate is zero throughout.
pub fn chaos_table(cfg: &ChaosConfig) -> Table {
    let mut t = Table::new(
        format!(
            "Chaos soak: localization under bursty loss, corruption and duplication \
             ({}-hop chain, {} pkts per point, dedup {}, min support {}, seed {})",
            cfg.path_len, cfg.packets, cfg.dedup_capacity, cfg.min_support, cfg.seed
        ),
        vec![
            "loss",
            "corrupt/B",
            "dup",
            "delivered/injected",
            "garbled",
            "suppressed",
            "chains",
            "confidence",
            "implicated",
            "has source",
            "false implication",
        ],
    );
    for point in sweep_points() {
        let r = run_point(cfg, &point, &Tracer::noop());
        let implicated: Vec<String> = r.implicated.iter().map(u16::to_string).collect();
        t.push_row(vec![
            format!("{:.2}", point.burst_loss),
            format!("{:.3}", point.corrupt_byte),
            format!("{:.2}", point.duplicate),
            format!("{}/{}", r.delivered, r.injected),
            r.garbled.to_string(),
            r.counters.duplicates_suppressed.to_string(),
            r.annotated.chains.to_string(),
            format!("{:.3}", r.annotated.confidence),
            if implicated.is_empty() {
                "-".to_string()
            } else {
                implicated.join(" ")
            },
            if r.contains_true_source { "yes" } else { "no" }.to_string(),
            format!("{:.3}", r.false_implication_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnm_obs::EventKind;
    use std::collections::HashSet;

    pub(super) fn small() -> ChaosConfig {
        ChaosConfig {
            path_len: 6,
            packets: 80,
            ..ChaosConfig::full()
        }
    }

    /// The soak's gates at every point of the full sweep: no panic, no
    /// off-path implication, and every arrival counted; at every
    /// kill-and-recover point the recovered verdict is the uninterrupted
    /// run's and the torn tail is counted.
    #[test]
    fn every_sweep_point_degrades_without_false_implication() {
        let cfg = ChaosConfig::full();
        for point in sweep_points() {
            let run = run_point(&cfg, &point, &Tracer::noop());
            assert_eq!(run.false_implication_rate, 0.0, "{}", point.label());
            assert_eq!(
                run.counters.packets,
                run.delivered + run.garbled,
                "{}",
                point.label()
            );
        }
        for (point, fraction) in recovery_sweep() {
            let run = run_recovery_point(&cfg, &point, fraction);
            let at = format!("{} kill {fraction}", point.label());
            assert!(run.verdict_identical, "{at}");
            assert_eq!(run.false_implication_rate, 0.0, "{at}");
            assert_eq!(run.rejected_frames, 1, "{at}");
        }
    }

    #[test]
    fn clean_point_injects_no_faults_and_identifies() {
        let run = run_point(&ChaosConfig::full(), &ChaosPoint::clean(), &Tracer::noop());
        assert_eq!(run.faults.total(), 0);
        assert_eq!(run.delivered, run.injected);
        assert_eq!(run.garbled, 0);
        assert!(run.identified);
        assert!(run.contains_true_source);
        assert_eq!(run.false_implication_rate, 0.0);
    }

    #[test]
    fn acceptance_point_survives_and_degrades_gracefully() {
        let cfg = ChaosConfig::full();
        let run = run_point(&cfg, &ChaosPoint::acceptance(), &Tracer::noop());
        // Every fault class actually fired.
        assert!(run.faults.burst_losses > 0);
        assert!(run.faults.corrupted > 0);
        assert!(run.faults.duplicates > 0);
        // Degradation is honest: with evidence thinned this hard the sink
        // reports *less* (a region, or nothing) — never an off-path node.
        assert_eq!(run.false_implication_rate, 0.0);
        assert!(run.implicated.iter().all(|&n| n < cfg.path_len));
        // The engine ingested every arrival without panicking, and its
        // accounting balances: each delivery or garbled frame is counted.
        assert_eq!(run.counters.packets, run.delivered + run.garbled);
        assert_eq!(run.counters.malformed, run.garbled);
    }

    #[test]
    fn pure_burst_loss_thins_evidence_but_keeps_the_answer() {
        let run = run_point(
            &ChaosConfig::full(),
            &ChaosPoint {
                burst_loss: 0.20,
                ..ChaosPoint::clean()
            },
            &Tracer::noop(),
        );
        // Compounded per-hop loss costs most deliveries...
        assert!(run.delivered < run.injected);
        assert!(run.faults.burst_losses > 0);
        // ...yet surviving chains still point at the true source: loss
        // shortens evidence, it cannot redirect it.
        assert!(run.contains_true_source, "implicated {:?}", run.implicated);
        assert_eq!(run.false_implication_rate, 0.0);
        assert!(run.annotated.chains > 0);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let cfg = small();
        let a = run_point(&cfg, &ChaosPoint::acceptance(), &Tracer::noop());
        let b = run_point(&cfg, &ChaosPoint::acceptance(), &Tracer::noop());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.garbled, b.garbled);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.annotated, b.annotated);
        assert_eq!(a.implicated, b.implicated);
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let cfg = small();
        let plain = run_point(&cfg, &ChaosPoint::acceptance(), &Tracer::noop());
        let (tracer, ring) = Tracer::ring(1 << 16);
        let traced = run_point(&cfg, &ChaosPoint::acceptance(), &tracer);
        assert_eq!(plain.faults, traced.faults);
        assert_eq!(plain.counters, traced.counters);
        assert_eq!(plain.annotated, traced.annotated);
        assert_eq!(plain.implicated, traced.implicated);
        // The trace saw both the fault layer and the sink pipeline.
        // Untraced ingest records packet-level spans only — per-stage
        // detail is reserved for packets carrying a trace context.
        let events = ring.events();
        assert!(events.iter().any(|e| e.name.starts_with("net.fault.")));
        assert!(events.iter().any(|e| e.name == "sink.ingest"));
        assert_eq!(ring.dropped(), 0);
        // Every span opens once and closes once, after it opened, and
        // none is left open.
        let (mut opened, mut open) = (HashSet::new(), HashSet::new());
        for e in &events {
            match e.kind {
                EventKind::SpanOpen => {
                    assert!(opened.insert(e.span), "span {} opened twice", e.span);
                    open.insert(e.span);
                }
                EventKind::SpanClose => assert!(
                    open.remove(&e.span),
                    "span {} closed twice or before it opened",
                    e.span
                ),
                EventKind::Instant => {}
            }
        }
        assert!(open.is_empty(), "spans left open: {open:?}");
    }

    #[test]
    fn clean_kill_and_recover_is_equivalent() {
        let run = run_recovery_point(&small(), &ChaosPoint::clean(), 0.5);
        // Without duplication faults the dedup-window caveat is moot:
        // recovery is byte-exact, not just verdict-exact.
        assert!(run.verdict_identical);
        assert!(run.evidence_identical);
        assert!(run.contains_true_source);
        assert_eq!(run.false_implication_rate, 0.0);
        assert!(run.rejected_frames >= 1, "the torn tail must be counted");
        assert_eq!(run.packets_restored, run.killed_after);
        assert_eq!(run.records_replayed, run.killed_after);
    }

    #[test]
    fn acceptance_kill_and_recover_keeps_verdicts() {
        let run = run_recovery_point(&small(), &ChaosPoint::acceptance(), 0.5);
        // The crash must not change the answer. Whether the (honestly
        // degraded) answer still contains the true source is a property
        // of the fault intensity, not of recovery — so it is recorded,
        // not asserted here.
        assert!(run.verdict_identical);
        assert_eq!(run.false_implication_rate, 0.0);
        assert!(run.records_replayed > 0);
    }

    #[test]
    fn sweep_contains_the_acceptance_combo() {
        assert!(sweep_points().contains(&ChaosPoint::acceptance()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Verdicts on surviving packets are byte-identical to a
        /// fault-free engine fed the same surviving set: the chaos-fed
        /// engine (dedup on, garbled frames interleaved) and a clean
        /// engine ingesting exactly the accepted survivors agree packet
        /// for packet, and on the final localization.
        #[test]
        fn chaos_verdicts_match_clean_engine_on_survivors(
            burst_loss in 0.0f64..0.45,
            corrupt_byte in 0.0f64..0.03,
            duplicate in 0.0f64..0.20,
            seed in any::<u64>(),
        ) {
            let cfg = ChaosConfig { seed, ..super::tests::small() };
            let point = ChaosPoint { burst_loss, corrupt_byte, duplicate };
            let (keys, sim) = simulate_faulty_path(&cfg, &point, &Tracer::noop());

            let mut chaos = SinkEngine::new(Arc::clone(&keys), chaos_sink_config(&cfg));
            let mut clean = SinkEngine::new(
                Arc::clone(&keys),
                SinkConfig::new(VerifyMode::Nested),
            );
            for arrival in arrivals(&sim) {
                let out = arrival.feed(&mut chaos);
                match arrival {
                    // Garbled frames never decode, so they are counted
                    // rejections that leave the evidence untouched.
                    Arrival::Garbled(_) => prop_assert!(out.rejected()),
                    // A surviving (non-duplicate) packet: the clean
                    // engine must reach the identical verdict.
                    Arrival::Delivered(pkt) if !out.rejected() => {
                        let want = clean.ingest(pkt);
                        prop_assert_eq!(&out.verdict, &want.verdict);
                        prop_assert_eq!(&out.chain, &want.chain);
                    }
                    Arrival::Delivered(_) => {}
                }
            }
            // Same survivors, same evidence: localization agrees too.
            prop_assert_eq!(chaos.localize(), clean.localize());
            prop_assert_eq!(chaos.unequivocal_source(), clean.unequivocal_source());
            prop_assert_eq!(chaos.counters().malformed as usize, sim.garbled.len());
        }
    }
}
