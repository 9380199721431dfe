//! Measures the durable evidence store and records the results in
//! `BENCH_store.json`.
//!
//! ```text
//! bench-store [--out FILE] [--smoke]
//! ```
//!
//! Three questions, matching how the store sits in the service:
//!
//! 1. **Append throughput** — CRC-framed delta appends per second to a
//!    [`LogStore`], no fsync (the service default) and with fsync.
//! 2. **Replay time vs log size** — wall time for [`EvidenceStore::replay`]
//!    over logs of growing record counts, before and after compaction.
//! 3. **Ingest overhead** — ns/packet through a [`SinkEngine`] with no
//!    store, a [`MemStore`], and a [`LogStore`] attached (checkpointing
//!    every packet, the service's default cadence) — the price of
//!    durability on the hot path. The variants run interleaved, and each
//!    keeps its fastest round.
//!
//! Every mode validates recovery before timing: the replayed evidence must
//! be byte-identical to the engine that wrote it. `--smoke` runs the
//! validation with tiny sizes for CI and writes the same artifact shape.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pnm_core::store::{Evidence, EvidenceStore, LogStore, MemStore, RecordKind};
use pnm_core::{
    MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, SinkEngine, VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HOPS: u16 = 10;

fn temp_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnm-store-bench-{}-{tag}.log", std::process::id()))
}

/// A delta-sized evidence record: the shape a per-checkpoint append
/// carries (a handful of counters, a few nodes/edges of new support).
fn delta_evidence(i: u64) -> Evidence {
    let mut ev = Evidence::default();
    ev.counters.packets = 1;
    ev.counters.marks_verified = 8;
    ev.counters.suspicious = 1;
    ev.chains_observed = 1;
    let base = (i % 64) as u16;
    ev.nodes.extend([base, base + 1]);
    ev.edges.insert((base, base + 1));
    ev.head_support.insert(base, 1);
    ev.edge_support.insert((base, base + 1), 1);
    ev
}

fn marked_workload(ks: &KeyStore, count: u64) -> Vec<Packet> {
    let scheme = ProbabilisticNestedMarking::paper_default(HOPS as usize);
    let mut rng = StdRng::seed_from_u64(2007);
    (0..count)
        .map(|seq| {
            let report = Report::new(
                format!("bench-store-{seq}").into_bytes(),
                Location::new(seq as f32, 0.0),
                seq,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..HOPS {
                let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect()
}

/// Recovery round-trip validation: an engine's evidence, checkpointed
/// through a `LogStore`, must replay byte-identical — including after a
/// torn tail and after compaction.
fn validate_recovery(packets: &[Packet], ks: &Arc<KeyStore>) {
    use std::io::Write;
    let path = temp_log("validate");
    let store = Arc::new(LogStore::open(&path).expect("open log"));
    let mut engine = SinkEngine::new(Arc::clone(ks), SinkConfig::new(VerifyMode::Nested));
    engine.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
    for p in packets {
        engine.ingest(p);
        engine.checkpoint_to_store().expect("checkpoint");
    }
    drop(store);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("reopen");
    f.write_all(&[0xEE; 11]).expect("torn tail");
    drop(f);

    let store = LogStore::open(&path).expect("reopen damaged log");
    assert_eq!(store.rejected_at_open(), 1, "torn tail must be counted");
    let replayed = store.replay().expect("replay").merged();
    assert_eq!(
        replayed.to_bytes(),
        engine.evidence().to_bytes(),
        "replayed evidence must be byte-identical"
    );
    store.compact().expect("compact");
    let compacted = store.replay().expect("replay after compact");
    assert_eq!(compacted.records, 1);
    assert_eq!(compacted.merged().to_bytes(), engine.evidence().to_bytes());
    std::fs::remove_file(&path).ok();
}

struct AppendResult {
    records: usize,
    append_ns: f64,
    fsync_append_ns: f64,
    replay_ms: f64,
    compacted_replay_ms: f64,
    log_bytes: u64,
}

fn bench_appends(records: usize) -> AppendResult {
    let path = temp_log("append");
    let store = LogStore::open(&path).expect("open log");
    let start = Instant::now();
    for i in 0..records {
        store
            .append(i as u32 % 4, RecordKind::Delta, &delta_evidence(i as u64))
            .expect("append");
    }
    let append_ns = start.elapsed().as_nanos() as f64 / records as f64;
    let log_bytes = std::fs::metadata(&path).expect("metadata").len();

    let start = Instant::now();
    let replay = store.replay().expect("replay");
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(replay.records, records);

    store.compact().expect("compact");
    let start = Instant::now();
    let compacted = store.replay().expect("replay compacted");
    let compacted_replay_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(compacted.merged().to_bytes(), replay.merged().to_bytes());
    drop(store);
    std::fs::remove_file(&path).ok();

    // The fsync-per-append variant, over a smaller count (it is orders of
    // magnitude slower by design — that is the datum).
    let fsync_records = (records / 10).max(8);
    let path = temp_log("fsync");
    let store = LogStore::open(&path).expect("open log").with_fsync(true);
    let start = Instant::now();
    for i in 0..fsync_records {
        store
            .append(i as u32 % 4, RecordKind::Delta, &delta_evidence(i as u64))
            .expect("append");
    }
    let fsync_append_ns = start.elapsed().as_nanos() as f64 / fsync_records as f64;
    drop(store);
    std::fs::remove_file(&path).ok();

    AppendResult {
        records,
        append_ns,
        fsync_append_ns,
        replay_ms,
        compacted_replay_ms,
        log_bytes,
    }
}

struct IngestResult {
    packets: usize,
    rounds: usize,
    none_ns: f64,
    mem_ns: f64,
    log_ns: f64,
}

/// Interleaves the three variants over `rounds` rounds, each on a fresh
/// engine, and keeps each variant's fastest round: every variant sees
/// the same host conditions, and the minimum filters scheduler noise.
fn bench_ingest(ks: &Arc<KeyStore>, packets: &[Packet], rounds: usize) -> IngestResult {
    let time_ingest = |store: Option<Arc<dyn EvidenceStore>>| -> f64 {
        let mut engine = SinkEngine::new(Arc::clone(ks), SinkConfig::new(VerifyMode::Nested));
        if let Some(store) = store {
            engine.attach_store(store, 0);
        }
        let start = Instant::now();
        for p in packets {
            std::hint::black_box(engine.ingest(p));
            if engine.store_attached() {
                engine.checkpoint_to_store().expect("checkpoint");
            }
        }
        start.elapsed().as_nanos() as f64 / packets.len() as f64
    };

    let (mut none_ns, mut mem_ns, mut log_ns) = (f64::MAX, f64::MAX, f64::MAX);
    let path = temp_log("ingest");
    for _ in 0..rounds {
        none_ns = none_ns.min(time_ingest(None));
        mem_ns = mem_ns.min(time_ingest(Some(Arc::new(MemStore::new()))));
        std::fs::remove_file(&path).ok();
        let log = Arc::new(LogStore::open(&path).expect("open log"));
        log_ns = log_ns.min(time_ingest(Some(log as Arc<dyn EvidenceStore>)));
    }
    std::fs::remove_file(&path).ok();
    IngestResult {
        packets: packets.len(),
        rounds,
        none_ns,
        mem_ns,
        log_ns,
    }
}

fn main() -> ExitCode {
    let mut out = "BENCH_store.json".to_string();
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

    let ks = Arc::new(KeyStore::derive_from_master(b"bench-store", HOPS));
    let workload = marked_workload(&ks, if smoke { 40 } else { 400 });
    validate_recovery(&workload, &ks);
    println!("recovery round-trip: byte-identical (torn tail counted, compaction exact)");

    let append_sizes: &[usize] = if smoke { &[100] } else { &[100, 1_000, 10_000] };
    let appends: Vec<AppendResult> = append_sizes.iter().map(|&n| bench_appends(n)).collect();
    let ingest = bench_ingest(&ks, &workload, if smoke { 1 } else { 15 });

    for a in &appends {
        println!(
            "append {:>6} records: {:>8.0} ns/append ({:>8.0} with fsync)  replay {:>7.2} ms ({:.2} ms compacted)  {} bytes",
            a.records, a.append_ns, a.fsync_append_ns, a.replay_ms, a.compacted_replay_ms, a.log_bytes
        );
    }
    println!(
        "ingest overhead over {} packets: none {:.0} ns/pkt, mem {:.0} ns/pkt, log {:.0} ns/pkt",
        ingest.packets, ingest.none_ns, ingest.mem_ns, ingest.log_ns
    );

    let append_json: Vec<String> = appends
        .iter()
        .map(|a| {
            format!(
                concat!(
                    "    {{\"records\": {}, \"append_ns\": {:.0}, \"fsync_append_ns\": {:.0}, ",
                    "\"replay_ms\": {:.3}, \"compacted_replay_ms\": {:.3}, \"log_bytes\": {}}}"
                ),
                a.records,
                a.append_ns,
                a.fsync_append_ns,
                a.replay_ms,
                a.compacted_replay_ms,
                a.log_bytes
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"durable evidence store: append-only CRC-framed log, {}-hop chain workload\",\n",
            "  \"claim\": \"replay is byte-identical to the writing engine (validated before timing, ",
            "including a torn tail and post-compaction); checkpointing every packet costs ",
            "{:.0}% per packet into a MemStore and {:.0}% into a LogStore without fsync ",
            "(interleaved min of {} rounds)\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"appends\": [\n{}\n  ],\n",
            "  \"ingest\": {{\n",
            "    \"packets\": {},\n",
            "    \"rounds\": {},\n",
            "    \"no_store_ns_per_packet\": {:.0},\n",
            "    \"memstore_ns_per_packet\": {:.0},\n",
            "    \"logstore_ns_per_packet\": {:.0},\n",
            "    \"memstore_overhead\": {:.3},\n",
            "    \"logstore_overhead\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        HOPS,
        100.0 * (ingest.mem_ns / ingest.none_ns - 1.0),
        100.0 * (ingest.log_ns / ingest.none_ns - 1.0),
        ingest.rounds,
        if smoke { "smoke" } else { "full" },
        append_json.join(",\n"),
        ingest.packets,
        ingest.rounds,
        ingest.none_ns,
        ingest.mem_ns,
        ingest.log_ns,
        ingest.mem_ns / ingest.none_ns,
        ingest.log_ns / ingest.none_ns,
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    ExitCode::SUCCESS
}
