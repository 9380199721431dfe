//! Measures what observability costs on the canonical sink scenario and
//! pins the tentpole claim: a disabled tracer is free.
//!
//! ```text
//! bench-obs [--smoke] [--out FILE]
//! ```
//!
//! Seven engine variants ingest the same seeded stream — the paper's §6.2
//! setting (20-hop path, PNM np = 3, distinct reports):
//!
//! * `baseline` — a plain engine, no observability configured.
//! * `noop_tracer` — an explicit [`Tracer::noop`]; this is the disabled
//!   path the whole workspace runs by default, and the bench **asserts**
//!   its overhead over `baseline` stays under 2% (5% in `--smoke`, which
//!   runs fewer, noisier rounds).
//! * `noop_collector` — an enabled tracer over a discarding collector,
//!   pricing event construction without storage.
//! * `stage_timing` — per-stage latency histograms on (two clock reads
//!   per stage).
//! * `sharded_ring` — the [`ShardedRingCollector`] the flight recorder
//!   keeps armed; the always-on configuration (one packet-level span
//!   plus table-build instants — stage detail waits for a carried
//!   trace), and the bench **asserts** its overhead stays under 5%
//!   (12% in `--smoke`).
//! * `flight_recorder` — a full [`FlightRecorder`] (sharded ring + dump
//!   plumbing, never triggered); must price like `sharded_ring`.
//! * `trace_propagation` — a root span minted per packet and carried
//!   through [`SinkEngine::ingest_ctx`], pricing the full-detail traced
//!   path including per-stage spans; reported, not bounded — trace
//!   detail is per-packet opt-in, not an always-on cost.
//!
//! The variants run interleaved, several rounds each, and the minimum
//! wall time per variant is reported (min-of-rounds discards scheduler
//! noise). Every variant must produce byte-identical pipeline counters —
//! instrumentation that changed an answer would fail the bench outright.
//! Results land in `BENCH_obs.json`.

use std::env;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pnm_core::{NodeContext, SinkConfig, SinkCounters, SinkEngine, StageMetrics, VerifyMode};
use pnm_obs::{FlightRecorder, JsonValue, ShardedRingCollector, Tracer};
use pnm_sim::{bogus_packet, PathScenario, SchemeKind};
use pnm_wire::{NodeId, Packet};

const PATH_LEN: u16 = 20;
const SEED: u64 = 2007;
const PACKETS: usize = 200;
const ROUNDS: usize = 400;
const SMOKE_PACKETS: usize = 100;
const SMOKE_ROUNDS: usize = 60;
const FULL_LIMIT_PCT: f64 = 2.0;
const SMOKE_LIMIT_PCT: f64 = 5.0;
const RING_FULL_LIMIT_PCT: f64 = 5.0;
const RING_SMOKE_LIMIT_PCT: f64 = 12.0;

const VARIANTS: [&str; 7] = [
    "baseline",
    "noop_tracer",
    "noop_collector",
    "stage_timing",
    "sharded_ring",
    "flight_recorder",
    "trace_propagation",
];
const NOOP_IDX: usize = 1;
const SHARDED_IDX: usize = 4;

/// Builds the canonical distinct-report stream once; every variant
/// ingests the identical packets.
fn build_stream(packets: usize) -> (Arc<pnm_crypto::KeyStore>, Vec<Packet>) {
    let scenario = PathScenario::paper(PATH_LEN);
    let keys = Arc::new(scenario.keystore(0));
    let scheme = SchemeKind::Pnm.build(scenario.config());
    let mut rng = StdRng::seed_from_u64(SEED);
    let stream = (0..packets as u64)
        .map(|seq| {
            let mut pkt = bogus_packet(seq, SEED);
            for hop in 0..PATH_LEN {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect();
    (keys, stream)
}

/// Ingests the stream through a fresh engine and returns wall nanoseconds
/// plus the counters and stage metrics it ended with.
fn run_once(
    keys: &Arc<pnm_crypto::KeyStore>,
    stream: &[Packet],
    cfg: SinkConfig,
) -> (u64, SinkCounters, StageMetrics) {
    let mut sink = SinkEngine::new(Arc::clone(keys), cfg);
    let start = Instant::now();
    for pkt in stream {
        sink.ingest(pkt);
    }
    let ns = start.elapsed().as_nanos() as u64;
    (ns, sink.counters(), sink.stage_metrics())
}

/// Runs one variant over the stream with a fresh engine (and fresh
/// collector — buffered events never accumulate across rounds).
fn run_variant(
    variant: &str,
    keys: &Arc<pnm_crypto::KeyStore>,
    stream: &[Packet],
) -> (u64, SinkCounters, StageMetrics) {
    let base = SinkConfig::new(VerifyMode::Nested);
    match variant {
        "baseline" => run_once(keys, stream, base),
        "noop_tracer" => run_once(keys, stream, base.tracer(Tracer::noop())),
        "noop_collector" => run_once(
            keys,
            stream,
            base.tracer(Tracer::new(Arc::new(pnm_obs::NoopCollector))),
        ),
        "stage_timing" => run_once(keys, stream, base.stage_timing(true)),
        "sharded_ring" => {
            let ring = Arc::new(ShardedRingCollector::new(8, 1 << 16));
            run_once(keys, stream, base.tracer(Tracer::new(ring)))
        }
        "flight_recorder" => {
            // Armed but never triggered: the dump directory is only
            // created when an anomaly fires, so the bench writes nothing.
            let rec = Arc::new(FlightRecorder::new(
                std::env::temp_dir().join("pnm-obs-bench-flight"),
                8,
                1 << 16,
            ));
            run_once(keys, stream, base.tracer(Tracer::new(rec)))
        }
        "trace_propagation" => {
            let tracer = Tracer::new(Arc::new(ShardedRingCollector::new(8, 1 << 16)));
            let mut sink = SinkEngine::new(Arc::clone(keys), base.tracer(tracer.clone()));
            let start = Instant::now();
            for pkt in stream {
                let span = tracer.span_root("bench.ingest");
                let ctx = span.context().expect("root span carries a context");
                sink.ingest_ctx(pkt, pkt.report.timestamp, ctx);
            }
            let ns = start.elapsed().as_nanos() as u64;
            (ns, sink.counters(), sink.stage_metrics())
        }
        other => unreachable!("unknown variant {other}"),
    }
}

fn main() -> ExitCode {
    let mut out = "BENCH_obs.json".to_string();
    let mut smoke = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("error: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (packets, rounds, limit_pct, ring_limit_pct) = if smoke {
        (
            SMOKE_PACKETS,
            SMOKE_ROUNDS,
            SMOKE_LIMIT_PCT,
            RING_SMOKE_LIMIT_PCT,
        )
    } else {
        (PACKETS, ROUNDS, FULL_LIMIT_PCT, RING_FULL_LIMIT_PCT)
    };
    let (keys, stream) = build_stream(packets);

    let mut min_ns = [u64::MAX; VARIANTS.len()];
    let mut counters: Vec<Option<SinkCounters>> = vec![None; VARIANTS.len()];
    let mut timed_stages = StageMetrics::new();
    for round in 0..rounds {
        // Alternate the visit order each round: with a fixed order, slow
        // clock/thermal drift within a round systematically taxes the
        // later variants, and min-of-rounds cannot cancel a bias that
        // points the same way every round.
        let order: Vec<usize> = if round % 2 == 0 {
            (0..VARIANTS.len()).collect()
        } else {
            (0..VARIANTS.len()).rev().collect()
        };
        for i in order {
            let variant = VARIANTS[i];
            let (ns, c, stages) = run_variant(variant, &keys, &stream);
            min_ns[i] = min_ns[i].min(ns);
            match &counters[i] {
                Some(first) => assert_eq!(
                    first, &c,
                    "{variant} counters changed between rounds — not deterministic"
                ),
                None => counters[i] = Some(c),
            }
            if variant == "stage_timing" {
                timed_stages = stages;
            }
        }
    }

    // Instrumentation must never change an answer.
    let base_counters = counters[0].expect("rounds >= 1");
    for (i, variant) in VARIANTS.iter().enumerate() {
        assert_eq!(
            Some(&base_counters),
            counters[i].as_ref(),
            "{variant} produced different pipeline counters than baseline"
        );
    }

    let base_ns = min_ns[0] as f64;
    let overhead_pct = |ns: u64| -> f64 { (ns as f64 / base_ns - 1.0) * 100.0 };
    let noop_pct = overhead_pct(min_ns[NOOP_IDX]);
    let ring_pct = overhead_pct(min_ns[SHARDED_IDX]);

    let variant_entries: Vec<(String, JsonValue)> = VARIANTS
        .iter()
        .enumerate()
        .map(|(i, variant)| {
            let mut fields = vec![
                ("min_wall_us", JsonValue::UInt(min_ns[i] / 1000)),
                ("ns_per_packet", JsonValue::UInt(min_ns[i] / packets as u64)),
            ];
            if i > 0 {
                fields.push(("overhead_pct", JsonValue::f1(overhead_pct(min_ns[i]))));
            }
            (variant.to_string(), JsonValue::obj(fields))
        })
        .collect();
    let doc = JsonValue::obj(vec![
        (
            "scenario",
            JsonValue::Str(format!(
                "PNM np=3, {PATH_LEN}-hop path, {packets} distinct-report packets, seed {SEED}"
            )),
        ),
        (
            "claim",
            JsonValue::Str(
                "a disabled (no-op) tracer costs nothing on the sink hot path, the \
                 always-on sharded flight ring stays under its overhead budget, and no \
                 observability configuration changes a pipeline counter"
                    .to_string(),
            ),
        ),
        (
            "mode",
            JsonValue::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("rounds", JsonValue::UInt(rounds as u64)),
        ("noop_overhead_pct", JsonValue::f1(noop_pct)),
        ("noop_overhead_limit_pct", JsonValue::f1(limit_pct)),
        ("sharded_ring_overhead_pct", JsonValue::f1(ring_pct)),
        (
            "sharded_ring_overhead_limit_pct",
            JsonValue::f1(ring_limit_pct),
        ),
        ("counters_identical_across_variants", JsonValue::Bool(true)),
        ("variants", JsonValue::Object(variant_entries)),
        ("stage_ns", timed_stages.to_json_value()),
    ]);
    let json = doc.render_pretty();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");

    for (i, variant) in VARIANTS.iter().enumerate() {
        println!(
            "{variant:<16} min {:>8} us  ({:>5} ns/pkt)",
            min_ns[i] / 1000,
            min_ns[i] / packets as u64,
        );
    }
    println!("noop tracer overhead: {noop_pct:.1}% (limit {limit_pct:.1}%)");
    println!("sharded ring overhead: {ring_pct:.1}% (limit {ring_limit_pct:.1}%)");
    if noop_pct >= limit_pct {
        eprintln!("noop tracer overhead {noop_pct:.1}% exceeds the {limit_pct:.1}% budget");
        return ExitCode::FAILURE;
    }
    if ring_pct >= ring_limit_pct {
        eprintln!("sharded ring overhead {ring_pct:.1}% exceeds the {ring_limit_pct:.1}% budget");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
