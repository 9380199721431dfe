//! Measures the precomputed-key HMAC pipeline against the one-shot baseline,
//! the anonymous-ID table build against its one-shot baseline, and the
//! lane-parallel (SIMD multi-buffer) batched MAC path, recording the results
//! in `BENCH_crypto.json`.
//!
//! ```text
//! bench-crypto [--out FILE] [--smoke]
//! ```
//!
//! Three hot paths are timed:
//!
//! 1. **Mark-sized MAC**: `H_k` over a mark-sized message (report bytes plus
//!    an 8-byte anonymous ID), one-shot (`MacKey::mark_mac`, which re-derives
//!    the RFC 2104 pad blocks on every call) vs precomputed
//!    (`mark_mac_prepared` over a cached `HmacKey`, two SHA-256 compressions
//!    cheaper).
//! 2. **Batched mark MACs** (`lanes` section): `mark_mac_many_prepared` at
//!    batch ∈ {4, 8, 16, 64} distinct keys vs a scalar `mark_mac_prepared`
//!    loop over the same jobs. The batched path compresses up to
//!    [`pnm_crypto::MAX_LANES`] independent messages per SHA-256 round
//!    ([`pnm_crypto::Sha256xN`]); the recorded `backend` says which engine
//!    ran (AVX2/SSE2/portable — `PNM_SHA256_FORCE_PORTABLE=1` forces the
//!    struct-of-arrays fallback).
//! 3. **Anon-table build** at N ∈ {100, 300, 1000} nodes: the pre-change
//!    serial baseline (one-shot `anon_id` per node into a `Vec`-per-entry
//!    map) vs the sink's one build (`AnonTable::build`: precomputed key
//!    schedule, lane-parallel hashing).
//!
//! Every variant is checked for output equivalence before timing — the fast
//! paths must be pure optimizations. `--smoke` runs the equivalence checks
//! with tiny iteration counts and writes nothing, for CI. `host_cores`
//! records the machine; every path timed here is single-threaded.

use std::collections::HashMap;
use std::env;
use std::process::ExitCode;
use std::time::Instant;

use pnm_core::AnonTable;
use pnm_crypto::{
    anon_id, mark_mac_many_prepared, mark_mac_prepared, AnonId, HmacKey, KeyStore, MacKey, Sha256xN,
};

const TABLE_SIZES: [u16; 3] = [100, 300, 1000];
const MAC_WIDTH: usize = 8;
/// Batch sizes swept by the lanes section: one SIMD group (4/8), a
/// two-group batch, and a chain-of-marks-sized batch.
const LANE_BATCHES: [usize; 4] = [4, 8, 16, 64];

/// The host's core count, recorded so a reader knows the machine behind
/// the timings.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A mark-sized message: the canonical bench report bytes plus the 8-byte
/// anonymous ID a nested mark's MAC covers.
fn mark_message() -> Vec<u8> {
    let mut msg = b"bench-crypto-report-payload-2007".to_vec();
    msg.extend_from_slice(&[0xA5; 8]);
    msg
}

/// One timed run: wall-clock nanoseconds per call of `op` over `iters`
/// calls.
fn time_once<T>(iters: usize, op: &mut dyn FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(op());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Times every variant under the same load profile: each round runs each
/// variant once (interleaved, so a slow phase of a shared machine hits all
/// variants alike), and each variant keeps its best round — the standard
/// noise-rejecting estimator for short deterministic kernels.
fn time_interleaved<T, const N: usize>(
    rounds: usize,
    iters: usize,
    ops: &mut [&mut dyn FnMut() -> T; N],
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..rounds {
        for (slot, op) in best.iter_mut().zip(ops.iter_mut()) {
            let ns = time_once(iters, *op);
            if ns < *slot {
                *slot = ns;
            }
        }
    }
    best
}

/// The pre-change serial table build: one-shot `anon_id` per node (the pad
/// blocks re-derived per hash), heap-allocated candidate list per entry.
/// Kept as the timing baseline [`AnonTable::build`] is compared against.
fn build_oneshot_baseline(keys: &KeyStore, report_bytes: &[u8]) -> HashMap<AnonId, Vec<u16>> {
    let mut map: HashMap<AnonId, Vec<u16>> = HashMap::with_capacity(keys.len());
    for (id, key) in keys.iter() {
        map.entry(anon_id(key, report_bytes, id))
            .or_default()
            .push(id);
    }
    map
}

/// Asserts the table build resolves identically to the one-shot baseline.
fn check_table_equivalence(keys: &KeyStore, report_bytes: &[u8]) {
    let baseline = build_oneshot_baseline(keys, report_bytes);
    let table = AnonTable::build(&keys.schedule(), report_bytes);
    assert_eq!(table.len(), baseline.len());
    assert_eq!(table.hash_count, keys.len());
    for (aid, cands) in &baseline {
        assert_eq!(table.resolve(aid), cands.as_slice(), "aid {aid}");
    }
}

struct MacResult {
    message_len: usize,
    oneshot_ns: f64,
    precomputed_ns: f64,
}

fn bench_mac(repeats: usize, iters: usize) -> MacResult {
    let key = MacKey::derive(b"bench-crypto-master", 7);
    let prepared = key.prepare();
    let msg = mark_message();

    // Equivalence before speed: identical tags on both paths.
    assert_eq!(
        mark_mac_prepared(&prepared, &msg, MAC_WIDTH),
        key.mark_mac(&msg, MAC_WIDTH),
        "precomputed MAC must equal one-shot"
    );

    let [oneshot_ns, precomputed_ns] = time_interleaved(
        repeats,
        iters,
        &mut [&mut || key.mark_mac(&msg, MAC_WIDTH), &mut || {
            mark_mac_prepared(&prepared, &msg, MAC_WIDTH)
        }],
    );
    MacResult {
        message_len: msg.len(),
        oneshot_ns,
        precomputed_ns,
    }
}

/// The lane keyset: one distinct prepared key per batch slot, like a chain
/// of marks from distinct nodes.
fn lane_keys() -> Vec<HmacKey> {
    (0..*LANE_BATCHES.iter().max().expect("non-empty"))
        .map(|i| MacKey::derive(b"bench-crypto-lanes", i as u64).prepare())
        .collect()
}

/// Asserts `mark_mac_many_prepared` tags equal per-job scalar tags at every
/// swept batch size — lane ≡ scalar before any timing.
fn check_lane_equivalence(keys: &[HmacKey], msg: &[u8]) {
    for &batch in &LANE_BATCHES {
        let jobs: Vec<(&HmacKey, &[u8])> = keys[..batch].iter().map(|k| (k, msg)).collect();
        let lane_tags = mark_mac_many_prepared(&jobs, MAC_WIDTH);
        assert_eq!(lane_tags.len(), batch);
        for ((key, m), tag) in jobs.iter().zip(&lane_tags) {
            assert_eq!(
                *tag,
                mark_mac_prepared(key, m, MAC_WIDTH),
                "lane MAC must equal scalar (batch {batch})"
            );
        }
    }
}

struct LaneResult {
    batch: usize,
    serial_ns_per_mac: f64,
    lanes_ns_per_mac: f64,
}

fn bench_lanes(repeats: usize, iters: usize) -> Vec<LaneResult> {
    let keys = lane_keys();
    let msg = mark_message();
    check_lane_equivalence(&keys, &msg);

    LANE_BATCHES
        .iter()
        .map(|&batch| {
            let jobs: Vec<(&HmacKey, &[u8])> =
                keys[..batch].iter().map(|k| (k, &msg[..])).collect();
            let [serial_ns, lanes_ns] = time_interleaved(
                repeats,
                iters,
                &mut [
                    &mut || {
                        jobs.iter()
                            .map(|(k, m)| mark_mac_prepared(k, m, MAC_WIDTH))
                            .collect::<Vec<_>>()
                    },
                    &mut || mark_mac_many_prepared(&jobs, MAC_WIDTH),
                ],
            );
            LaneResult {
                batch,
                serial_ns_per_mac: serial_ns / batch as f64,
                lanes_ns_per_mac: lanes_ns / batch as f64,
            }
        })
        .collect()
}

struct TableResult {
    nodes: u16,
    oneshot_ns: f64,
    build_ns: f64,
}

fn bench_table(nodes: u16, repeats: usize, iters: usize) -> TableResult {
    let keys = KeyStore::derive_from_master(b"bench-crypto-deployment", nodes);
    let report_bytes = mark_message();
    check_table_equivalence(&keys, &report_bytes);
    // Prewarm the schedule so the timed builds measure the steady state
    // (the schedule is built once per deployment, not per report).
    let schedule = keys.schedule();

    let [oneshot_ns, build_ns] = time_interleaved(
        repeats,
        iters,
        &mut [
            &mut || build_oneshot_baseline(&keys, &report_bytes).len(),
            &mut || AnonTable::build(&schedule, &report_bytes).len(),
        ],
    );
    TableResult {
        nodes,
        oneshot_ns,
        build_ns,
    }
}

fn main() -> ExitCode {
    let mut out = "BENCH_crypto.json".to_string();
    let mut smoke = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("error: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--smoke" => smoke = true,
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let backend = Sha256xN::backend();

    if smoke {
        // Equivalence only, tiny sizes, no file output.
        let mac = bench_mac(1, 16);
        assert!(mac.oneshot_ns > 0.0 && mac.precomputed_ns > 0.0);
        check_lane_equivalence(&lane_keys(), &mark_message());
        for nodes in [1u16, 7, 64] {
            let keys = KeyStore::derive_from_master(b"bench-crypto-smoke", nodes);
            check_table_equivalence(&keys, &mark_message());
        }
        println!(
            "bench-crypto smoke: all fast paths equivalent (sha256 backend: {})",
            backend.name()
        );
        return ExitCode::SUCCESS;
    }

    let mac = bench_mac(7, 20_000);
    let lanes = bench_lanes(9, 4_000);
    let tables: Vec<TableResult> = TABLE_SIZES
        .iter()
        .map(|&n| {
            // Fewer iterations for bigger tables; each run stays ~comparable.
            let iters = (40_000 / n as usize).max(20);
            bench_table(n, 15, iters)
        })
        .collect();

    let lane_json: Vec<String> = lanes
        .iter()
        .map(|l| {
            format!(
                concat!(
                    "      {{\"batch\": {}, \"serial_ns_per_mac\": {:.1}, ",
                    "\"lanes_ns_per_mac\": {:.1}, \"speedup_vs_precomputed\": {:.2}}}"
                ),
                l.batch,
                l.serial_ns_per_mac,
                l.lanes_ns_per_mac,
                l.serial_ns_per_mac / l.lanes_ns_per_mac,
            )
        })
        .collect();
    let table_json: Vec<String> = tables
        .iter()
        .map(|t| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"nodes\": {},\n",
                    "      \"serial_oneshot_ns\": {:.0},\n",
                    "      \"build_ns\": {:.0},\n",
                    "      \"speedup_vs_oneshot\": {:.2}\n",
                    "    }}"
                ),
                t.nodes,
                t.oneshot_ns,
                t.build_ns,
                t.oneshot_ns / t.build_ns,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"precomputed-key HMAC pipeline vs one-shot baseline\",\n",
            "  \"note\": \"serial_oneshot is the pre-change path: RFC 2104 pads re-derived per hash; ",
            "precomputed paths reuse the keystore's cached midstate schedule; lane paths and the ",
            "table build (AnonTable::build) additionally hash up to MAX_LANES independent messages ",
            "per SHA-256 compression\",\n",
            "  \"host_cores\": {},\n",
            "  \"mac\": {{\n",
            "    \"message_len\": {},\n",
            "    \"width\": {},\n",
            "    \"oneshot_ns_per_op\": {:.1},\n",
            "    \"precomputed_ns_per_op\": {:.1},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"lanes\": {{\n",
            "    \"backend\": \"{}\",\n",
            "    \"forced_portable\": {},\n",
            "    \"mark_mac_batches\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"anon_table_builds\": [\n{}\n  ]\n",
            "}}\n"
        ),
        host_cores(),
        mac.message_len,
        MAC_WIDTH,
        mac.oneshot_ns,
        mac.precomputed_ns,
        mac.oneshot_ns / mac.precomputed_ns,
        backend.name(),
        env::var("PNM_SHA256_FORCE_PORTABLE").is_ok_and(|v| !v.is_empty() && v != "0"),
        lane_json.join(",\n"),
        table_json.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    ExitCode::SUCCESS
}
