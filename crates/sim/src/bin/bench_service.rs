//! Sweeps the sharded traceback service over shard counts on the canonical
//! 20-hop scenario and records throughput + telemetry into
//! `BENCH_service.json`.
//!
//! ```text
//! bench-service [--smoke] [--out FILE] [--trace FILE]
//! ```
//!
//! Scenario: the paper's §6.2 setting — a 20-hop path, PNM with np = 3,
//! seed 2007 — under a *report-cycling* load: the stream cycles through
//! more distinct reports than any single engine's anonymous-ID table cache
//! can hold. Cycling is the LRU worst case: one engine gets a 0% hit rate
//! and rebuilds the 20-entry table for every packet. The service hash-
//! partitions packets by report, so `k` shards hold `k×` the aggregate
//! cache capacity; once the per-shard working set fits, rebuilds vanish
//! and per-packet cost drops to the ~3 mark verifications. The measured
//! speedup is therefore a *cache-capacity* effect — real on a single core
//! (this is how the sweep can beat 2.5× on one CPU), and the run records
//! the hit rates that explain it alongside the wall-clock numbers.
//!
//! Every run also digests the drained evidence bytes (route graph with
//! support, quarantine set, verdict counters); the sweep fails if any shard
//! count disagrees — throughput must not change the answer.
//!
//! `--smoke` runs a down-scaled sweep (shards 1 and 4) and skips the JSON
//! artifact: a CI-speed check that the service produces identical outputs
//! across shard counts on this scenario.
//!
//! `--trace FILE` attaches a ring-buffer trace collector to every shard
//! engine and writes the pipeline spans as JSONL to FILE. Each run also
//! records the per-stage latency breakdown (`stage_ns`) from the shard
//! engines' [`StageMetrics`](pnm_core::StageMetrics); neither changes the
//! output digest the sweep checks.

use std::env;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pnm_core::{IsolationPolicy, NodeContext, SinkConfig, VerifyMode};
use pnm_crypto::Sha256;
use pnm_obs::Tracer;
use pnm_service::{ServiceConfig, ServicePool, ServiceSnapshot};
use pnm_sim::{PathScenario, SchemeKind};
use pnm_wire::{Location, NodeId, Packet, Report};

const PATH_LEN: u16 = 20;
const SEED: u64 = 2007;
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Wall-clock repetitions per shard count; the minimum is reported.
const REPS: usize = 3;

/// Full-sweep load: 128 cycling reports against a 48-entry per-shard
/// cache. One shard (and two) thrash; four shards fit (~32 reports each).
const FULL_REPORTS: u64 = 128;
const FULL_CACHE: usize = 48;
const FULL_ROUNDS: usize = 16;

/// Smoke-sweep load: same shape, CI-sized.
const SMOKE_REPORTS: u64 = 32;
const SMOKE_CACHE: usize = 12;
const SMOKE_ROUNDS: usize = 4;

struct RunResult {
    shards: usize,
    wall_ms: f64,
    pkts_per_sec: f64,
    snapshot: ServiceSnapshot,
    service_p50_us: u64,
    service_p99_us: u64,
    digest: String,
}

/// Builds the packet stream once: `rounds` full cycles over
/// `distinct_reports` reports, all marked along the canonical 20-hop path.
fn build_packets(distinct_reports: u64, rounds: usize) -> (Arc<pnm_crypto::KeyStore>, Vec<Packet>) {
    let scenario = PathScenario::paper(PATH_LEN);
    let keys = Arc::new(scenario.keystore(0));
    let scheme = SchemeKind::Pnm.build(scenario.config());
    let mut rng = StdRng::seed_from_u64(SEED);
    let packets = (0..distinct_reports * rounds as u64)
        .map(|seq| {
            let rep = seq % distinct_reports;
            let report = Report::new(
                format!("bench-{rep:03}").into_bytes(),
                Location::new(rep as f32, 0.0),
                rep,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..PATH_LEN {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect();
    (keys, packets)
}

/// Ingests the stream through a `shards`-way service and returns wall
/// time, telemetry, and an output digest.
fn run_once(
    keys: &Arc<pnm_crypto::KeyStore>,
    packets: &[Packet],
    shards: usize,
    cache_capacity: usize,
    tracer: &Tracer,
) -> (f64, ServiceSnapshot, u64, u64, String) {
    let sink = SinkConfig::new(VerifyMode::Nested)
        .table_cache_capacity(cache_capacity)
        .isolation(IsolationPolicy::SuspectsOnly)
        .tracer(tracer.clone());
    let pool = ServicePool::new(
        Arc::clone(keys),
        ServiceConfig::new(sink).shards(shards).queue_capacity(256),
    );
    let start = Instant::now();
    for pkt in packets {
        pool.ingest(pkt.clone()).expect("block policy never sheds");
    }
    let report = pool.drain();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let service = {
        let mut h = pnm_obs::LatencyHistogram::new();
        for s in &report.snapshot.shards {
            h.merge(&s.service_us);
        }
        h
    };
    let (p50, p99) = (service.quantile_us(0.50), service.quantile_us(0.99));

    // Everything the sink *answers* must be shard-count invariant.
    let digest = Sha256::digest(&report.engine.evidence().to_bytes()).to_hex();
    (wall_ms, report.snapshot, p50, p99, digest)
}

fn sweep(
    shard_counts: &[usize],
    distinct_reports: u64,
    cache_capacity: usize,
    rounds: usize,
    tracer: &Tracer,
) -> Vec<RunResult> {
    let (keys, packets) = build_packets(distinct_reports, rounds);
    shard_counts
        .iter()
        .map(|&shards| {
            let mut best: Option<(f64, ServiceSnapshot, u64, u64, String)> = None;
            for _ in 0..REPS {
                let run = run_once(&keys, &packets, shards, cache_capacity, tracer);
                if let Some(b) = &best {
                    assert_eq!(run.4, b.4, "digest changed between repetitions");
                }
                if best.as_ref().is_none_or(|b| run.0 < b.0) {
                    best = Some(run);
                }
            }
            let (wall_ms, snapshot, p50, p99, digest) = best.expect("REPS >= 1");
            RunResult {
                shards,
                pkts_per_sec: packets.len() as f64 / (wall_ms / 1e3),
                wall_ms,
                snapshot,
                service_p50_us: p50,
                service_p99_us: p99,
                digest,
            }
        })
        .collect()
}

fn run_json(r: &RunResult) -> String {
    let t = r.snapshot.totals;
    let hit_rate = t
        .table_cache_hit_rate()
        .map_or("null".to_string(), |x| format!("{x:.4}"));
    format!(
        concat!(
            "    {{\"shards\": {}, \"wall_ms\": {:.1}, \"pkts_per_sec\": {:.0}, ",
            "\"table_builds\": {}, \"table_cache_hits\": {}, \"table_cache_hit_rate\": {}, ",
            "\"hash_count\": {}, \"service_p50_us\": {}, \"service_p99_us\": {},\n",
            "     \"stage_ns\": {}}}"
        ),
        r.shards,
        r.wall_ms,
        r.pkts_per_sec,
        t.table_builds,
        t.table_cache_hits,
        hit_rate,
        t.hash_count,
        r.service_p50_us,
        r.service_p99_us,
        r.snapshot.stage_metrics().to_json(),
    )
}

fn main() -> ExitCode {
    let mut out = "BENCH_service.json".to_string();
    let mut trace: Option<String> = None;
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
            "--trace" => match args.next() {
                Some(v) => trace = Some(v),
                None => {
                    eprintln!("error: --trace needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (shard_counts, reports, cache, rounds): (&[usize], u64, usize, usize) = if smoke {
        (&[1, 4], SMOKE_REPORTS, SMOKE_CACHE, SMOKE_ROUNDS)
    } else {
        (&SHARD_SWEEP, FULL_REPORTS, FULL_CACHE, FULL_ROUNDS)
    };
    let (tracer, ring) = match &trace {
        Some(_) => {
            let (t, r) = Tracer::ring(1 << 21);
            (t, Some(r))
        }
        None => (Tracer::noop(), None),
    };
    let results = sweep(shard_counts, reports, cache, rounds, &tracer);

    if let (Some(path), Some(ring)) = (&trace, &ring) {
        if let Err(e) = std::fs::write(path, ring.export_jsonl()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {path} ({} events, {} dropped)",
            ring.len(),
            ring.dropped()
        );
    }

    // The load-bearing check: shard count must not change any answer.
    let identical = results.iter().all(|r| r.digest == results[0].digest);
    for r in &results {
        let t = r.snapshot.totals;
        println!(
            "shards={}  wall={:7.1} ms  {:8.0} pkt/s  cache hit rate {}  p99 {} us",
            r.shards,
            r.wall_ms,
            r.pkts_per_sec,
            t.table_cache_hit_rate()
                .map_or("n/a".to_string(), |x| format!("{x:.2}")),
            r.service_p99_us,
        );
    }
    println!("outputs identical across shard counts: {identical}");
    if !identical {
        for r in &results {
            eprintln!("  shards={} digest: {}", r.shards, r.digest);
        }
        return ExitCode::FAILURE;
    }

    if smoke {
        println!("smoke sweep ok ({} packets)", reports * rounds as u64);
        return ExitCode::SUCCESS;
    }

    let speedup_4 = results
        .iter()
        .find(|r| r.shards == 4)
        .map(|r| r.pkts_per_sec / results[0].pkts_per_sec)
        .unwrap_or(f64::NAN);
    println!("speedup 4 shards vs 1: {speedup_4:.2}x");

    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"PNM np=3, {}-hop path, {} packets cycling {} reports, ",
            "per-shard table cache {}, seed {}\",\n",
            "  \"mechanism\": \"report-keyed sharding multiplies aggregate anon-table cache ",
            "capacity; cycling reports thrash one engine's LRU (0% hits, full 20-entry rebuild ",
            "per packet) but fit across 4+ shard-local caches — a single-core win, not a ",
            "parallelism artifact\",\n",
            "  \"outputs_identical_across_shard_counts\": {},\n",
            "  \"speedup_4_over_1\": {:.2},\n",
            "  \"runs\": [\n{}\n  ]\n",
            "}}\n"
        ),
        PATH_LEN,
        reports * rounds as u64,
        reports,
        cache,
        SEED,
        identical,
        speedup_4,
        results.iter().map(run_json).collect::<Vec<_>>().join(",\n"),
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    ExitCode::SUCCESS
}
