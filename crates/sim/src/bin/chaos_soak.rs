//! Chaos soak runner: sweeps fault intensity (Gilbert–Elliott bursty
//! loss, per-byte bit corruption, per-hop duplication) over the canonical
//! marked forwarding chain and records how localization degrades.
//!
//! ```text
//! chaos-soak [--smoke] [--out FILE] [--degradation FILE] [--trace FILE]
//!            [--flight DIR]
//! ```
//!
//! Every sweep point runs under `catch_unwind`: the soak's first job is
//! to prove the whole pipeline — network fault layer, wire decoding, sink
//! ingestion, localization — survives arbitrary fault intensity with
//! **zero panics**, including the acceptance combo (20% bursty loss + 1%
//! per-byte corruption + 5% duplication). Its second job is the
//! degradation story: localization precision (does the implicated region
//! still contain the true source?) decays to *wider regions* or *no
//! evidence* as faults intensify, while the false-implication rate stays
//! exactly zero — corruption can shorten nested-MAC chains but never
//! redirect them at an off-path node.
//!
//! A kill-and-recover sweep follows the fault sweep: at clean and
//! acceptance intensities the arrival stream is cut partway, the process
//! state discarded, the evidence log's tail damaged the way a SIGKILL
//! mid-append leaves it, and a fresh engine rebuilt from the log finishes
//! the stream. Recovered verdicts must equal the uninterrupted run's and
//! the zero-false-implication bar holds through the crash.
//!
//! Artifacts (deterministic for a fixed seed):
//! - `results/chaos_degradation.json` — one row per sweep point.
//! - `BENCH_chaos.json` — summary: zero-panic verdict, determinism
//!   check, acceptance-point row, kill-and-recover rows, sweep-wide
//!   false-implication maximum.
//!
//! `--smoke` runs the CI-sized sweep (5 points, 120 packets each) with
//! the same checks and artifacts.
//!
//! `--trace FILE` attaches a ring-buffer trace collector and writes every
//! span and fault event as JSONL to FILE. Tracing is observation only:
//! the degradation rows and both JSON artifacts are bit-identical with or
//! without it.
//!
//! `--flight DIR` runs the poison drill: a traced [`ServicePool`] armed
//! with a [`FlightRecorder`] ingests a clean stream plus one poison
//! packet, the shard worker quarantines it, and the recorder must dump a
//! black-box into DIR whose anomaly summary names the poisoned packet's
//! trace id. The dump path is printed so CI can hand it to
//! `obs_check --flight`.

use std::env;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, VerifyMode};
use pnm_crypto::KeyStore;
use pnm_obs::{FlightRecorder, Tracer};
use pnm_service::{ServiceConfig, ServicePool};
use pnm_sim::chaos::{
    append_gateway_section, recovery_sweep, run_point_traced, run_recovery_point,
    split_gateway_section, sweep_points, ChaosConfig, ChaosPoint, ChaosRun, RecoveryRun,
};
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Poison drill: ingest a traced stream with one poison packet through a
/// flight-recorder-armed pool, and return the black-box path after
/// checking the dump names the poisoned trace. Everything is asserted
/// here; the caller only prints and propagates failure.
fn flight_drill(dir: &str) -> Result<std::path::PathBuf, String> {
    const NODES: u16 = 6;
    const CLEAN: usize = 12;
    let keys = Arc::new(KeyStore::derive_from_master(b"flight-drill", NODES));
    let scheme = ProbabilisticNestedMarking::paper_default(NODES as usize);
    let mut rng = StdRng::seed_from_u64(0xF11);
    let mut mk = |payload: Vec<u8>, seq: u64| {
        let mut pkt = Packet::new(Report::new(payload, Location::new(seq as f32, 0.0), seq));
        for hop in 0..NODES {
            let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
            scheme.mark(&ctx, &mut pkt, &mut rng);
        }
        pkt
    };
    let clean: Vec<Packet> = (0..CLEAN)
        .map(|i| mk(format!("fd-{i}").into_bytes(), i as u64))
        .collect();
    let poison = mk(b"poison-me".to_vec(), CLEAN as u64);

    let recorder = Arc::new(FlightRecorder::new(dir, 4, 1 << 12));
    let tracer = Tracer::new(recorder.clone());
    let pool = ServicePool::new(
        Arc::clone(&keys),
        ServiceConfig::new(SinkConfig::new(VerifyMode::Nested).tracer(tracer.clone()))
            .shards(2)
            .poison_hook(|pkt: &Packet| pkt.report.event.starts_with(b"poison"))
            .flight_recorder(recorder.clone()),
    );

    for pkt in clean {
        let span = tracer.span_root("soak.ingest");
        let ctx = span.context().expect("root span carries a context");
        pool.ingest_ctx(pkt, 0, ctx)
            .map_err(|e| format!("clean ingest shed: {e:?}"))?;
    }
    let poison_span = tracer.span_root("soak.ingest");
    let poison_ctx = poison_span.context().expect("root span carries a context");
    let poison_trace = poison_ctx.trace;
    pool.ingest_ctx(poison, 0, poison_ctx)
        .map_err(|e| format!("poison ingest shed: {e:?}"))?;
    drop(poison_span);
    let report = pool.drain();

    if report.poisoned.len() != 1 {
        return Err(format!(
            "expected exactly one quarantined packet, got {}",
            report.poisoned.len()
        ));
    }
    if recorder.dumps() == 0 {
        return Err("poison quarantine produced no black-box dump".to_string());
    }
    let last = recorder
        .last_anomaly()
        .ok_or_else(|| "recorder dumped but kept no anomaly summary".to_string())?;
    if last.reason != "poison_quarantine" {
        return Err(format!(
            "anomaly reason {:?}, wanted poison_quarantine",
            last.reason
        ));
    }
    if last.trace != poison_trace {
        return Err(format!(
            "black-box names trace {:#x}, poisoned packet was {poison_trace:#x}",
            last.trace
        ));
    }
    if !last.path.is_file() {
        return Err(format!("dump path {} missing on disk", last.path.display()));
    }
    Ok(last.path)
}

fn run_json(r: &ChaosRun) -> String {
    let implicated = r
        .implicated
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "    {{\"burst_loss\": {}, \"corrupt_byte\": {}, \"duplicate\": {},\n",
            "     \"injected\": {}, \"delivered\": {}, \"garbled\": {},\n",
            "     \"burst_losses\": {}, \"duplicates\": {}, \"corrupted\": {}, ",
            "\"corrupt_drops\": {},\n",
            "     \"ingested\": {}, \"malformed\": {}, \"duplicates_suppressed\": {},\n",
            "     \"chains\": {}, \"support\": {}, \"confidence\": {:.4},\n",
            "     \"identified\": {}, \"contains_true_source\": {}, ",
            "\"region_width\": {}, \"false_implication_rate\": {:.4}, ",
            "\"implicated\": [{}]}}"
        ),
        r.point.burst_loss,
        r.point.corrupt_byte,
        r.point.duplicate,
        r.injected,
        r.delivered,
        r.garbled,
        r.faults.burst_losses,
        r.faults.duplicates,
        r.faults.corrupted,
        r.faults.corrupt_drops,
        r.counters.packets,
        r.counters.malformed,
        r.counters.duplicates_suppressed,
        r.annotated.chains,
        r.annotated.support,
        r.annotated.confidence,
        r.identified,
        r.contains_true_source,
        r.implicated.len(),
        r.false_implication_rate,
        implicated,
    )
}

fn recovery_json(r: &RecoveryRun) -> String {
    format!(
        concat!(
            "    {{\"burst_loss\": {}, \"corrupt_byte\": {}, \"duplicate\": {}, ",
            "\"kill_fraction\": {},\n",
            "     \"arrivals\": {}, \"killed_after\": {}, \"records_replayed\": {}, ",
            "\"rejected_frames\": {}, \"packets_restored\": {},\n",
            "     \"verdict_identical\": {}, \"evidence_identical\": {}, ",
            "\"contains_true_source\": {}, \"false_implication_rate\": {:.4}}}"
        ),
        r.point.burst_loss,
        r.point.corrupt_byte,
        r.point.duplicate,
        r.kill_fraction,
        r.arrivals,
        r.killed_after,
        r.records_replayed,
        r.rejected_frames,
        r.packets_restored,
        r.verdict_identical,
        r.evidence_identical,
        r.contains_true_source,
        r.false_implication_rate,
    )
}

fn write_artifact(path: &str, json: &str) -> bool {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                return false;
            }
        }
    }
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write {path}: {e}");
        return false;
    }
    true
}

fn main() -> ExitCode {
    let mut out = "BENCH_chaos.json".to_string();
    let mut degradation = "results/chaos_degradation.json".to_string();
    let mut trace: Option<String> = None;
    let mut flight: Option<String> = None;
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
            "--degradation" => match args.next() {
                Some(v) => degradation = v,
                None => {
                    eprintln!("error: --degradation needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(v) => trace = Some(v),
                None => {
                    eprintln!("error: --trace needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--flight" => match args.next() {
                Some(v) => flight = Some(v),
                None => {
                    eprintln!("error: --flight needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let cfg = if smoke {
        ChaosConfig::smoke()
    } else {
        ChaosConfig::full()
    };
    let points = sweep_points(smoke);
    // A generous ring: the full sweep emits well under 2^21 events, so a
    // trace never silently drops its oldest spans.
    let (tracer, ring) = match &trace {
        Some(_) => {
            let (t, r) = Tracer::ring(1 << 21);
            (t, Some(r))
        }
        None => (Tracer::noop(), None),
    };

    let mut rows: Vec<ChaosRun> = Vec::with_capacity(points.len());
    let mut panics = 0usize;
    for point in &points {
        match catch_unwind(AssertUnwindSafe(|| run_point_traced(&cfg, point, &tracer))) {
            Ok(run) => {
                println!(
                    "{:<40} delivered {:>3}/{:<3}  garbled {:>2}  region {:?}  fir {:.3}",
                    point.label(),
                    run.delivered,
                    run.injected,
                    run.garbled,
                    run.implicated,
                    run.false_implication_rate,
                );
                rows.push(run);
            }
            Err(_) => {
                eprintln!("PANIC at sweep point {}", point.label());
                panics += 1;
            }
        }
    }

    // Kill-and-recover sweep: cut the stream, discard the process, damage
    // the evidence log's tail, rebuild from the log, finish the stream.
    // The verdicts must match the uninterrupted run and the zero-false-
    // implication bar holds through the crash.
    let mut recovery_rows: Vec<RecoveryRun> = Vec::new();
    for (point, fraction) in recovery_sweep(smoke) {
        match catch_unwind(AssertUnwindSafe(|| {
            run_recovery_point(&cfg, &point, fraction)
        })) {
            Ok(run) => {
                println!(
                    "recover {:<40} kill {:.2}  replayed {:>3} ({} torn)  verdicts {}  fir {:.3}",
                    point.label(),
                    fraction,
                    run.records_replayed,
                    run.rejected_frames,
                    if run.verdict_identical { "ok" } else { "DIFF" },
                    run.false_implication_rate,
                );
                recovery_rows.push(run);
            }
            Err(_) => {
                eprintln!(
                    "PANIC at recovery point {} kill {fraction:.2}",
                    point.label()
                );
                panics += 1;
            }
        }
    }

    // The artifacts must be a pure function of the seed: re-run the
    // acceptance combo and demand a bit-identical row.
    let acceptance = ChaosPoint::acceptance();
    let deterministic = match (
        rows.iter().find(|r| r.point == acceptance),
        catch_unwind(AssertUnwindSafe(|| {
            run_point_traced(&cfg, &acceptance, &tracer)
        })),
    ) {
        (Some(first), Ok(second)) => run_json(first) == run_json(&second),
        _ => false,
    };

    let zero_panics = panics == 0;
    let max_fir = rows
        .iter()
        .map(|r| r.false_implication_rate)
        .chain(recovery_rows.iter().map(|r| r.false_implication_rate))
        .fold(0.0f64, f64::max);
    // The recovery bar: a crash must never change the verdict. Whether
    // the (honestly degraded) verdict still contains the true source is
    // a fault-intensity property, recorded per row but not gated on.
    let recovery_ok =
        !recovery_rows.is_empty() && recovery_rows.iter().all(|r| r.verdict_identical);
    println!(
        "zero panics: {zero_panics}  deterministic: {deterministic}  recovery verdicts: {}  max false-implication rate: {max_fir:.4}",
        if recovery_ok { "ok" } else { "FAILED" }
    );

    let degradation_json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"PNM np=3, {}-hop chain, {} bogus packets per point, ",
            "dedup {}, min support {}, seed {}\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"rows\": [\n{}\n  ]\n",
            "}}\n"
        ),
        cfg.path_len,
        cfg.packets,
        cfg.dedup_capacity,
        cfg.min_support,
        cfg.seed,
        if smoke { "smoke" } else { "full" },
        rows.iter().map(run_json).collect::<Vec<_>>().join(",\n"),
    );
    let acceptance_json = rows
        .iter()
        .find(|r| r.point == acceptance)
        .map(run_json)
        .unwrap_or_else(|| "null".to_string());
    let bench_json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"chaos soak, PNM np=3, {}-hop chain, {} packets per point, ",
            "seed {}\",\n",
            "  \"claim\": \"fault intensity degrades localization to wider regions or no ",
            "evidence, never an off-path implication; the pipeline survives every sweep ",
            "point without a panic\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"points\": {},\n",
            "  \"zero_panics\": {},\n",
            "  \"deterministic\": {},\n",
            "  \"max_false_implication_rate\": {:.4},\n",
            "  \"recovery_verdicts_identical\": {},\n",
            "  \"recovery\": [\n{}\n  ],\n",
            "  \"acceptance\": {}\n",
            "}}\n"
        ),
        cfg.path_len,
        cfg.packets,
        cfg.seed,
        if smoke { "smoke" } else { "full" },
        rows.len(),
        zero_panics,
        deterministic,
        max_fir,
        recovery_ok,
        recovery_rows
            .iter()
            .map(recovery_json)
            .collect::<Vec<_>>()
            .join(",\n"),
        acceptance_json.trim_start(),
    );

    // Keep the gateway section `chaos_gateway` wrote into the same file.
    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let bench_json = append_gateway_section(
        split_gateway_section(&bench_json).0,
        split_gateway_section(&existing).1,
    );
    if !write_artifact(&degradation, &degradation_json) || !write_artifact(&out, &bench_json) {
        return ExitCode::FAILURE;
    }
    println!("wrote {degradation} and {out}");

    if let (Some(path), Some(ring)) = (&trace, &ring) {
        if !write_artifact(path, &ring.export_jsonl()) {
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {path} ({} events, {} dropped)",
            ring.len(),
            ring.dropped()
        );
        if ring.dropped() > 0 {
            eprintln!("trace ring overflowed; enlarge the capacity");
            return ExitCode::FAILURE;
        }
    }

    if let Some(dir) = &flight {
        match flight_drill(dir) {
            Ok(path) => println!("flight drill ok: black-box at {}", path.display()),
            Err(e) => {
                eprintln!("flight drill failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if !zero_panics || !deterministic || !recovery_ok || max_fir > 0.0 {
        eprintln!(
            "soak failed: zero_panics={zero_panics} deterministic={deterministic} \
             recovery_ok={recovery_ok} max_fir={max_fir}"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
