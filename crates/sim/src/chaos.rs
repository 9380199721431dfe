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
//!   still contain the true most-upstream forwarder? Loss and corruption
//!   thin the evidence, so the honest failure mode is a *wider region* or
//!   lower confidence, never a different node.
//! * **False implication** — the fraction of implicated nodes that are
//!   not on the true forwarding path. Nested MACs make fabricating
//!   evidence under random corruption computationally negligible, so this
//!   stays at zero across the whole sweep; corruption can only shorten
//!   chains, not redirect them.
//!
//! Every run is a pure function of its seed: the fault plan draws from
//! its own RNG stream, so runs are reproducible bit-for-bit and the
//! emitted JSON artifacts are deterministic.

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

    /// Short human-readable tag for tables and JSON.
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
    /// The full-soak scenario.
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

    /// A CI-sized scenario: same shape, fewer packets.
    pub fn smoke() -> Self {
        ChaosConfig {
            packets: 120,
            ..Self::full()
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
/// the keystore plus the raw simulation report.
pub fn simulate_faulty_path(cfg: &ChaosConfig, point: &ChaosPoint) -> (Arc<KeyStore>, SimReport) {
    simulate_faulty_path_traced(cfg, point, &Tracer::noop())
}

/// [`simulate_faulty_path`] with a tracer attached to the network's fault
/// layer: every injected fault emits a structured event. Tracing is
/// observation only — the simulation's RNG streams, deliveries, and fault
/// counters are bit-identical with or without it.
pub fn simulate_faulty_path_traced(
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

/// Feeds everything the network emitted — deliveries and garbled frames,
/// interleaved in arrival order — to a fresh engine through the total
/// ingestion paths. Returns the engine and the per-arrival outcomes
/// (deliveries only; garbled frames are counted rejections by
/// construction).
pub fn ingest_sim_report(
    cfg: &ChaosConfig,
    keys: &Arc<KeyStore>,
    sim: &SimReport,
) -> (SinkEngine, Vec<SinkOutcome>) {
    ingest_sim_report_traced(cfg, keys, sim, &Tracer::noop())
}

/// [`ingest_sim_report`] with a tracer attached to the sink engine: every
/// pipeline stage emits a span. Verdicts, counters, and localization are
/// unchanged by the instrumentation.
pub fn ingest_sim_report_traced(
    cfg: &ChaosConfig,
    keys: &Arc<KeyStore>,
    sim: &SimReport,
    tracer: &Tracer,
) -> (SinkEngine, Vec<SinkOutcome>) {
    let mut engine = SinkEngine::new(
        Arc::clone(keys),
        chaos_sink_config(cfg).tracer(tracer.clone()),
    );
    let mut outcomes = Vec::with_capacity(sim.deliveries.len());
    let (mut d, mut g) = (0, 0);
    while d < sim.deliveries.len() || g < sim.garbled.len() {
        let take_garbled = g < sim.garbled.len()
            && (d >= sim.deliveries.len() || sim.garbled[g].time_us < sim.deliveries[d].time_us);
        if take_garbled {
            engine.ingest_bytes(&sim.garbled[g].bytes);
            g += 1;
        } else {
            outcomes.push(engine.ingest(&sim.deliveries[d].packet));
            d += 1;
        }
    }
    (engine, outcomes)
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

/// Runs one sweep point end to end and computes the degradation metrics.
pub fn run_point(cfg: &ChaosConfig, point: &ChaosPoint) -> ChaosRun {
    run_point_traced(cfg, point, &Tracer::noop())
}

/// [`run_point`] with spans and fault events flowing to `tracer`. The
/// returned [`ChaosRun`] is bit-identical to the untraced run — timing
/// never enters the degradation metrics, so the JSON artifacts stay a
/// pure function of the seed.
pub fn run_point_traced(cfg: &ChaosConfig, point: &ChaosPoint, tracer: &Tracer) -> ChaosRun {
    let (keys, sim) = simulate_faulty_path_traced(cfg, point, tracer);
    let (engine, _outcomes) = ingest_sim_report_traced(cfg, &keys, &sim, tracer);

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
/// seed — replay wall-clock never enters the artifact.
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

    let (keys, sim) = simulate_faulty_path(cfg, point);

    // The arrival stream, deliveries and garbled frames interleaved in
    // arrival order — the same merge `ingest_sim_report` performs.
    enum Arrival<'a> {
        Delivered(&'a Packet),
        Garbled(&'a [u8]),
    }
    let mut arrivals: Vec<Arrival<'_>> = Vec::with_capacity(sim.deliveries.len());
    let (mut d, mut g) = (0, 0);
    while d < sim.deliveries.len() || g < sim.garbled.len() {
        let take_garbled = g < sim.garbled.len()
            && (d >= sim.deliveries.len() || sim.garbled[g].time_us < sim.deliveries[d].time_us);
        if take_garbled {
            arrivals.push(Arrival::Garbled(&sim.garbled[g].bytes));
            g += 1;
        } else {
            arrivals.push(Arrival::Delivered(&sim.deliveries[d].packet));
            d += 1;
        }
    }
    let feed = |engine: &mut SinkEngine, a: &Arrival<'_>| match a {
        Arrival::Delivered(pkt) => {
            engine.ingest(pkt);
        }
        Arrival::Garbled(bytes) => {
            engine.ingest_bytes(bytes);
        }
    };

    // The run that is never interrupted.
    let mut uninterrupted = SinkEngine::new(Arc::clone(&keys), chaos_sink_config(cfg));
    for a in &arrivals {
        feed(&mut uninterrupted, a);
    }

    // The killed run: log-backed, checkpointing every arrival.
    let killed_after = ((arrivals.len() as f64) * kill_fraction) as usize;
    let store = Arc::new(LogStore::open(&path).expect("open chaos recovery log"));
    let mut engine = SinkEngine::new(Arc::clone(&keys), chaos_sink_config(cfg));
    engine.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
    for a in &arrivals[..killed_after] {
        feed(&mut engine, a);
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
        feed(&mut recovered, a);
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
/// killed at one (smoke) or three (full) points of the stream.
pub fn recovery_sweep(smoke: bool) -> Vec<(ChaosPoint, f64)> {
    let fractions: &[f64] = if smoke { &[0.5] } else { &[0.25, 0.5, 0.75] };
    let mut sweep = Vec::new();
    for &f in fractions {
        sweep.push((ChaosPoint::clean(), f));
        sweep.push((ChaosPoint::acceptance(), f));
    }
    sweep
}

/// The fault-intensity sweep: one axis at a time from the clean origin,
/// plus combined-stress points including [`ChaosPoint::acceptance`].
pub fn sweep_points(smoke: bool) -> Vec<ChaosPoint> {
    let clean = ChaosPoint::clean();
    if smoke {
        return vec![
            clean,
            ChaosPoint {
                burst_loss: 0.20,
                ..clean
            },
            ChaosPoint {
                corrupt_byte: 0.01,
                ..clean
            },
            ChaosPoint {
                duplicate: 0.05,
                ..clean
            },
            ChaosPoint::acceptance(),
        ];
    }
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

/// The key that opens `BENCH_chaos.json`'s gateway section.
const GATEWAY_KEY: &str = "\n  \"gateway\":";

/// Splits a `BENCH_chaos.json` document, which two bins write, into the
/// soak's part — the object's text before its closing brace or its
/// `"gateway"` key, trailing comma and whitespace trimmed — and the
/// `"gateway"` section's value, if there is one. `chaos_soak` rewrites the
/// first part and `chaos_gateway` the second; each joins the two with
/// [`append_gateway_section`], so either can run first.
pub fn split_gateway_section(text: &str) -> (&str, Option<&str>) {
    let (soak, gateway) = match text.find(GATEWAY_KEY) {
        Some(i) => {
            let value = text[i + GATEWAY_KEY.len()..].trim_end().strip_suffix('}');
            (&text[..i], value.map(str::trim))
        }
        None => (text.trim_end().strip_suffix('}').unwrap_or(""), None),
    };
    (soak.trim_end().trim_end_matches(','), gateway)
}

/// Joins the soak's part and a gateway section as
/// [`split_gateway_section`] splits them.
pub fn append_gateway_section(soak: &str, gateway: Option<&str>) -> String {
    let (soak, comma) = match soak.trim() {
        "" | "{" => ("{", ""),
        _ => (soak, ","),
    };
    match gateway {
        Some(value) => format!("{soak}{comma}{GATEWAY_KEY} {value}\n}}\n"),
        None => format!("{soak}\n}}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn small() -> ChaosConfig {
        ChaosConfig {
            path_len: 6,
            packets: 80,
            ..ChaosConfig::smoke()
        }
    }

    /// A soak rewrite keeps the gateway section, a gateway run replaces
    /// only it (into an empty file too), and a split-append round trip is
    /// the identity.
    #[test]
    fn gateway_section_splits_and_appends_both_ways() {
        let soak = "{\n  \"mode\": \"full\",\n  \"zero_panics\": true\n}\n";
        let fields = "{\n  \"mode\": \"full\",\n  \"zero_panics\": true";
        let gateway = "{\n    \"points\": 5\n  }";
        let both = format!("{fields},\n  \"gateway\": {gateway}\n}}\n");
        assert_eq!(split_gateway_section(soak), (fields, None));
        assert_eq!(split_gateway_section(&both), (fields, Some(gateway)));
        assert_eq!(append_gateway_section(fields, None), soak);
        assert_eq!(append_gateway_section(fields, Some(gateway)), both);
        for empty in ["", "{}", "{\n}\n"] {
            assert_eq!(split_gateway_section(empty).1, None);
            assert_eq!(
                append_gateway_section(split_gateway_section(empty).0, Some(gateway)),
                format!("{{\n  \"gateway\": {gateway}\n}}\n")
            );
        }
    }

    #[test]
    fn clean_point_injects_no_faults_and_identifies() {
        let run = run_point(&ChaosConfig::smoke(), &ChaosPoint::clean());
        assert_eq!(run.faults.total(), 0);
        assert_eq!(run.delivered, run.injected);
        assert_eq!(run.garbled, 0);
        assert!(run.identified);
        assert!(run.contains_true_source);
        assert_eq!(run.false_implication_rate, 0.0);
    }

    #[test]
    fn acceptance_point_survives_and_degrades_gracefully() {
        let cfg = ChaosConfig::smoke();
        let run = run_point(&cfg, &ChaosPoint::acceptance());
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
            &ChaosConfig::smoke(),
            &ChaosPoint {
                burst_loss: 0.20,
                ..ChaosPoint::clean()
            },
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
        let a = run_point(&cfg, &ChaosPoint::acceptance());
        let b = run_point(&cfg, &ChaosPoint::acceptance());
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
        let plain = run_point(&cfg, &ChaosPoint::acceptance());
        let (tracer, ring) = Tracer::ring(1 << 16);
        let traced = run_point_traced(&cfg, &ChaosPoint::acceptance(), &tracer);
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
        for smoke in [true, false] {
            assert!(sweep_points(smoke)
                .iter()
                .any(|p| *p == ChaosPoint::acceptance()));
        }
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
            let (keys, sim) = simulate_faulty_path(&cfg, &point);

            let mut chaos = SinkEngine::new(Arc::clone(&keys), chaos_sink_config(&cfg));
            let mut clean = SinkEngine::new(
                Arc::clone(&keys),
                SinkConfig::new(VerifyMode::Nested),
            );
            let (mut d, mut g) = (0, 0);
            while d < sim.deliveries.len() || g < sim.garbled.len() {
                let take_garbled = g < sim.garbled.len()
                    && (d >= sim.deliveries.len()
                        || sim.garbled[g].time_us < sim.deliveries[d].time_us);
                if take_garbled {
                    // Garbled frames never decode, so they are counted
                    // rejections that leave the evidence untouched.
                    let out = chaos.ingest_bytes(&sim.garbled[g].bytes);
                    prop_assert!(out.rejected());
                    g += 1;
                } else {
                    let pkt = &sim.deliveries[d].packet;
                    let out = chaos.ingest(pkt);
                    if !out.rejected() {
                        // A surviving (non-duplicate) packet: the clean
                        // engine must reach the identical verdict.
                        let want = clean.ingest(pkt);
                        prop_assert_eq!(&out.verdict, &want.verdict);
                        prop_assert_eq!(&out.chain, &want.chain);
                    }
                    d += 1;
                }
            }
            // Same survivors, same evidence: localization agrees too.
            prop_assert_eq!(chaos.localize(), clean.localize());
            prop_assert_eq!(chaos.unequivocal_source(), clean.unequivocal_source());
            prop_assert_eq!(chaos.counters().malformed as usize, sim.garbled.len());
        }
    }
}
