//! Measures multi-tenant gateway ingest over a Unix-domain socket,
//! recording throughput and server-side ingest latency quantiles in
//! `BENCH_gateway.json`.
//!
//! ```text
//! bench_gateway [--out FILE] [--smoke]
//! ```
//!
//! Each run stands up one [`Gateway`] over a fresh UDS path with N
//! tenants (N ∈ {1, 4, 16}), each tenant with its own keystore and its
//! own single-shard [`pnm_service`] pool. One client connection per
//! tenant pipelines a pre-framed batch of acked `IngestSeq` frames,
//! keeping at most [`WINDOW`] of them unacked, and checks every ack: it
//! must be `Accepted` and echo its frame's sequence number, in order.
//! Two wall clocks are kept:
//!
//! - **ingest wall**: first byte sent → every tenant's last ack, i.e.
//!   every frame parsed, admitted, and enqueued;
//! - **end-to-end wall**: first byte sent → every tenant's backlog at
//!   zero, i.e. every packet carries a verdict. Throughput is computed
//!   against this clock — frames parked in a queue are not "done".
//!
//! Latency quantiles come from the pools' own `total_us` histograms
//! (enqueue → verdict, measured server-side), scraped from the tenant
//! snapshot JSON; the reported p50/p99 are the **worst tenant's**
//! values, a conservative bound chosen over cross-tenant merging so a
//! starved tenant cannot hide behind a fast one.
//!
//! `--smoke` runs a 2-tenant batch with tiny counts, asserts the books
//! balance (every frame acked `Accepted`, verdicts drain cleanly), and
//! writes nothing — CI-sized, UDS only, no TCP port.

use std::env;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, VerifyMode};
use pnm_crypto::KeyStore;
use pnm_gateway::{
    AckCode, Envelope, Gateway, GatewayConfig, IngestAck, Response, Status, TenantConfig,
    TenantRegistry, CLIENT_MAX_RESPONSE,
};
use pnm_service::ServiceConfig;
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sensor nodes per tenant deployment.
const NODES: u16 = 6;
/// Marking hops stamped onto every benched packet.
const HOPS: u16 = 4;
/// Frames a client keeps in flight before it waits for an ack.
const WINDOW: usize = 64;
/// Client session id every tenant's connection sends under.
const SESSION: u64 = 1;

fn temp_sock(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-gwbench-{}-{}-{}.sock",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// First integer following `key` after the first occurrence of `anchor`
/// — enough of a scanner for the snapshot JSON and metrics text this
/// bench reads back, without growing a parser dependency.
fn scan_u64(text: &str, anchor: &str, key: &str) -> u64 {
    let Some(at) = text.find(anchor) else {
        return 0;
    };
    let tail = &text[at + anchor.len()..];
    let Some(kat) = tail.find(key) else { return 0 };
    let rest = tail[kat + key.len()..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0)
}

/// A tenant's pre-marked ingest batch as encoded `IngestSeq` frames,
/// sequence numbers from 0. Built outside the timed region.
fn framed_batch(tenant: &str, keys: &KeyStore, tenant_seed: u64, packets: usize) -> Vec<Vec<u8>> {
    let scheme = ProbabilisticNestedMarking::paper_default(NODES.into());
    let mut rng = StdRng::seed_from_u64(0x6077_0000 ^ tenant_seed);
    (0..packets)
        .map(|seq| {
            let report = Report::new(
                format!("gw-{tenant_seed}-{seq}").into_bytes(),
                Location::new(seq as f32, tenant_seed as f32),
                seq as u64,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..HOPS {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            Envelope::ingest_seq(tenant.as_bytes(), SESSION, seq as u64, &pkt.to_bytes()).encode()
        })
        .collect()
}

/// Sends every frame, keeping at most [`WINDOW`] unacked, and checks
/// every ack: `Accepted`, echoing its frame's sequence number, in order.
/// Returning means the last frame was admitted and enqueued.
fn pipeline(stream: &mut UnixStream, frames: &[Vec<u8>]) -> io::Result<()> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let (mut sent, mut acked) = (0usize, 0usize);
    let (mut out, mut buf) = (Vec::new(), Vec::new());
    let mut chunk = [0u8; 16 * 1024];
    while acked < frames.len() {
        let room = (WINDOW - (sent - acked)).min(frames.len() - sent);
        if room > 0 {
            out.clear();
            for frame in &frames[sent..sent + room] {
                out.extend_from_slice(frame);
            }
            stream.write_all(&out)?;
            sent += room;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "gateway hung up",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        while let Some((resp, len)) = Response::decode(&buf[used..], CLIENT_MAX_RESPONSE)
            .map_err(|e| invalid(e.to_string()))?
        {
            used += len;
            if resp.status != Status::Ok {
                return Err(invalid(String::from_utf8_lossy(&resp.payload).into_owned()));
            }
            let ack = IngestAck::decode(&resp.payload).map_err(|e| invalid(e.into()))?;
            if ack.code != AckCode::Accepted || ack.seq != acked as u64 {
                return Err(invalid(format!(
                    "frame {acked} acked {:?} with seq {}",
                    ack.code, ack.seq
                )));
            }
            acked += 1;
        }
        buf.drain(..used);
    }
    Ok(())
}

struct RunResult {
    tenants: usize,
    total_packets: u64,
    ingest_wall_ms: f64,
    e2e_wall_ms: f64,
    throughput_pps: f64,
    p50_ingest_us: u64,
    p99_ingest_us: u64,
}

/// One full scenario: N tenants, one pipelined UDS connection each.
fn run_scenario(tenants: usize, packets_per_tenant: usize) -> RunResult {
    let names: Vec<String> = (0..tenants).map(|i| format!("t{i:02}")).collect();
    let mut builder = TenantRegistry::builder();
    let mut stores: Vec<Arc<KeyStore>> = Vec::with_capacity(tenants);
    for (i, name) in names.iter().enumerate() {
        let master = format!("bench-gateway-tenant-{i}");
        let keys = Arc::new(KeyStore::derive_from_master(master.as_bytes(), NODES));
        builder = builder.tenant(
            name,
            TenantConfig::new(
                Arc::clone(&keys),
                ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(1),
            ),
        );
        stores.push(keys);
    }
    let registry = Arc::new(builder.build().expect("registry"));

    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_sock("run");
    gw.listen_uds(&sock).expect("bind UDS");
    let handle = gw.spawn().expect("spawn gateway");

    // Frames are built before the clock starts.
    let batches: Vec<Vec<Vec<u8>>> = names
        .iter()
        .zip(&stores)
        .enumerate()
        .map(|(i, (name, keys))| framed_batch(name, keys, i as u64, packets_per_tenant))
        .collect();

    let barrier = Arc::new(Barrier::new(tenants + 1));
    let clients: Vec<_> = batches
        .into_iter()
        .map(|batch| {
            let sock = sock.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut stream = UnixStream::connect(&sock).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                barrier.wait();
                pipeline(&mut stream, &batch).expect("every frame acked Accepted");
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    for c in clients {
        c.join().expect("client thread");
    }
    let ingest_wall = start.elapsed();

    // End-to-end: every enqueued packet carries a verdict.
    while registry.backlog() > 0 {
        std::thread::sleep(Duration::from_micros(500));
    }
    let e2e_wall = start.elapsed();

    let total_packets = (tenants * packets_per_tenant) as u64;
    let metrics = registry.metrics_text();
    let (mut p50, mut p99) = (0u64, 0u64);
    for name in &names {
        let ingested = scan_u64(
            &metrics,
            &format!("pnm_gateway_ingested_total{{tenant=\"{name}\"}}"),
            "",
        );
        assert_eq!(
            ingested, packets_per_tenant as u64,
            "tenant {name}: every frame must be accepted (no shed/malformed in a clean run)"
        );
        let snap = registry.snapshot_json(name.as_bytes()).expect("snapshot");
        // First `total_us` block is the cross-shard merged stage view.
        p50 = p50.max(scan_u64(&snap, "\"total_us\"", "\"p50_us\""));
        p99 = p99.max(scan_u64(&snap, "\"total_us\"", "\"p99_us\""));
    }
    for name in &names {
        let verdict = registry.drain(name.as_bytes()).expect("drain verdict");
        assert!(
            !verdict.evidence_bytes.is_empty(),
            "tenant {name}: drained evidence must round-trip"
        );
    }
    handle.shutdown();

    let e2e_ms = e2e_wall.as_secs_f64() * 1e3;
    RunResult {
        tenants,
        total_packets,
        ingest_wall_ms: ingest_wall.as_secs_f64() * 1e3,
        e2e_wall_ms: e2e_ms,
        throughput_pps: total_packets as f64 / e2e_wall.as_secs_f64(),
        p50_ingest_us: p50,
        p99_ingest_us: p99,
    }
}

fn main() -> ExitCode {
    let mut out = "BENCH_gateway.json".to_string();
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

    if smoke {
        // CI-sized: two tenants over UDS, books must balance, no file.
        let r = run_scenario(2, 40);
        assert_eq!(r.total_packets, 80);
        println!(
            "bench_gateway smoke: 2 tenants, {} packets, e2e {:.1} ms, p99 {} us",
            r.total_packets, r.e2e_wall_ms, r.p99_ingest_us
        );
        return ExitCode::SUCCESS;
    }

    let runs: Vec<RunResult> = [1usize, 4, 16]
        .iter()
        .map(|&n| run_scenario(n, 500))
        .collect();

    let run_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"tenants\": {},\n",
                    "      \"total_packets\": {},\n",
                    "      \"ingest_wall_ms\": {:.3},\n",
                    "      \"e2e_wall_ms\": {:.3},\n",
                    "      \"throughput_pps\": {:.0},\n",
                    "      \"p50_ingest_us\": {},\n",
                    "      \"p99_ingest_us\": {}\n",
                    "    }}"
                ),
                r.tenants,
                r.total_packets,
                r.ingest_wall_ms,
                r.e2e_wall_ms,
                r.throughput_pps,
                r.p50_ingest_us,
                r.p99_ingest_us,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"multi-tenant gateway ingest over a Unix-domain socket\",\n",
            "  \"note\": \"one connection per tenant pipelining acked IngestSeq frames, at \
             most {} unacked, every ack checked Accepted; the gateway runs one thread per \
             connection; ingest wall ends at the last tenant's last ack; throughput is \
             against the end-to-end clock (every packet carries a verdict); p50/p99 are \
             the worst tenant's server-side enqueue-to-verdict quantiles\",\n",
            "  \"nodes_per_tenant\": {},\n",
            "  \"packets_per_tenant\": 500,\n",
            "  \"host_cores\": {},\n",
            "  \"runs\": [\n{}\n  ]\n",
            "}}\n"
        ),
        WINDOW,
        NODES,
        std::thread::available_parallelism().map_or(1, usize::from),
        run_json.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    ExitCode::SUCCESS
}
