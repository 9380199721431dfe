//! Per-layer costs, measured on the workload's own packets by timing calls
//! into each layer's public functions from outside. Costs are means per
//! call, so on-path layers add up to a per-packet ledger.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnm_core::store::{Evidence, EvidenceStore, LogStore};
use pnm_core::{AnonTable, RouteReconstructor, SinkEngine, SinkVerifier};
use pnm_crypto::{HmacKey, KeyStore};
use pnm_gateway::{
    AckCode, Envelope, Gateway, GatewayClient, GatewayConfig, GatewayHandle, IngestAck, Response,
    SeqFrame, Status, TenantConfig, TenantRegistry, DEFAULT_MAX_PAYLOAD,
};
use pnm_wire::{NodeId, Packet};

use crate::report::Metric;
use crate::verdict::{service_config, shard_sink_config};

/// Packets each probe runs over (fewer when the workload has fewer).
const PROBE_PACKETS: usize = 2048;
/// Packets whose anonymous-ID tables the verify probe prebuilds.
const VERIFY_PACKETS: usize = 512;
/// Closed-loop round trips timed through a live gateway.
const ROUND_TRIPS: usize = 400;
/// The tenant every gateway in the benchmark serves.
pub const TENANT: &[u8] = b"edge";
/// Client session id for sequenced ingest.
pub const SESSION: u64 = 0x5e55_1011;

/// Mean nanoseconds per call of `f(i)` for `i` in `0..n`.
fn per_call<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        black_box(f(i));
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Measured layer costs, looked up by metric name.
pub struct Layers {
    pub metrics: Vec<Metric>,
}

impl Layers {
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }
}

/// Wire, sink, crypto, service-checkpoint and store costs on `packets`.
/// `replay_log` is the log the workload's recovery replays.
pub fn measure(
    keys: &Arc<KeyStore>,
    packets: &[Packet],
    tmp: &Path,
    replay_log: &Path,
) -> Result<Layers, String> {
    let packets = &packets[..packets.len().min(PROBE_PACKETS)];
    let k = packets.len();
    let mut metrics = Vec::new();

    // wire: canonical packet encoding both ways.
    let bytes: Vec<Vec<u8>> = packets.iter().map(Packet::to_bytes).collect();
    let decode_ns = per_call(k, |i| {
        Packet::from_bytes(&bytes[i]).expect("own encoding decodes")
    });
    let encode_ns = per_call(k, |i| packets[i].to_bytes());
    metrics.push(Metric::sampled("wire.decode_ns", "ns", decode_ns, k));
    metrics.push(Metric::sampled("wire.encode_ns", "ns", encode_ns, k));

    // sink: a single-threaded replica of one default shard engine.
    let mut engine = SinkEngine::new(Arc::clone(keys), shard_sink_config());
    let ingest_ns = per_call(k, |i| engine.ingest(&packets[i]));
    let counters = engine.counters();
    let clones = 64;
    let clone_ns = per_call(clones, |_| engine.clone());

    let schedule = keys.schedule();
    // Distinct reports, in stream order.
    let mut seen = BTreeSet::new();
    let reports: Vec<Vec<u8>> = packets
        .iter()
        .map(|p| p.report.to_bytes())
        .filter(|r| seen.insert(r.clone()))
        .collect();
    let builds = reports.len().clamp(64, 256);
    let resolve_ns = per_call(builds, |i| {
        AnonTable::build_parallel_lanes_with(&schedule, &reports[i % reports.len()], 1)
    });

    let verifier = SinkVerifier::new(Arc::clone(keys));
    let sample = &packets[..k.min(VERIFY_PACKETS)];
    let tables: BTreeMap<Vec<u8>, AnonTable> = sample
        .iter()
        .map(|p| {
            let report = p.report.to_bytes();
            let table = AnonTable::build_parallel_lanes_with(&schedule, &report, 1);
            (report, table)
        })
        .collect();
    let jobs: Vec<(&Packet, &AnonTable)> = sample
        .iter()
        .map(|p| (p, &tables[&p.report.to_bytes()]))
        .collect();
    let mut chains: Vec<Vec<NodeId>> = Vec::with_capacity(jobs.len());
    let verify_ns = per_call(jobs.len(), |i| {
        let chain = verifier.verify_nested_with_table_batched(jobs[i].0, jobs[i].1);
        chains.push(chain.nodes);
    });
    let mut route = RouteReconstructor::new();
    let reconstruct_ns = per_call(chains.len(), |i| route.observe_chain(&chains[i]));
    let localize_ns = per_call(256, |_| route.localize());

    let pkts = counters.packets.max(1) as f64;
    let marks = (counters.marks_verified + counters.marks_rejected) as f64 / pkts;
    let lookups = counters.table_builds + counters.table_cache_hits;
    metrics.extend([
        Metric::sampled("sink.ingest_ns", "ns", ingest_ns, k),
        Metric::sampled("sink.resolve_ns", "ns", resolve_ns, builds),
        Metric::sampled("sink.verify_ns", "ns", verify_ns, jobs.len()),
        Metric::sampled("sink.reconstruct_ns", "ns", reconstruct_ns, chains.len()),
        Metric::sampled("sink.localize_ns", "ns", localize_ns, 256),
        Metric::sampled(
            "sink.table_hit_rate",
            "ratio",
            counters.table_cache_hits as f64 / lookups.max(1) as f64,
            lookups,
        ),
        Metric::sampled(
            "sink.hash_per_pkt",
            "count",
            counters.hash_count as f64 / pkts,
            k,
        ),
        Metric::sampled("sink.marks_per_pkt", "count", marks, k),
        Metric::sampled("service.checkpoint_clone_ns", "ns", clone_ns, clones),
    ]);

    // crypto: lane-batched MACs at the workload's marks per packet, over
    // report-sized messages; anonymous IDs as a table build's share.
    let per_batch = (marks.round() as usize).max(1);
    let prepared = schedule.prepared();
    let messages: Vec<Vec<u8>> = sample.iter().map(|p| p.report.to_bytes()).collect();
    let mac_batch_ns = per_call(messages.len(), |i| {
        let batch: Vec<(&HmacKey, &[u8])> = (0..per_batch)
            .map(|j| (&prepared[(i + j) % prepared.len()], messages[i].as_slice()))
            .collect();
        HmacKey::mac_many(&batch)
    });
    metrics.push(Metric::sampled(
        "crypto.mac_ns",
        "ns",
        mac_batch_ns / per_batch as f64,
        messages.len() * per_batch,
    ));
    metrics.push(Metric::new(
        "crypto.anon_id_ns",
        "ns",
        resolve_ns / keys.len() as f64,
    ));

    // store: a replica checkpointing after every packet (the default
    // cadence), then open + replay of the log recovery reads.
    let path = tmp.join("probe.pnme");
    let _ = std::fs::remove_file(&path);
    let store = Arc::new(LogStore::open(&path).map_err(|e| format!("open probe log: {e}"))?);
    let mut durable = SinkEngine::new(Arc::clone(keys), shard_sink_config());
    durable.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
    let mut append = Duration::ZERO;
    for p in packets {
        durable.ingest(p);
        let start = Instant::now();
        durable
            .checkpoint_to_store()
            .map_err(|e| format!("checkpoint: {e}"))?;
        append += start.elapsed();
    }
    drop((durable, store));
    let log_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let start = Instant::now();
    let replayed = LogStore::open(replay_log)
        .and_then(|s| s.replay())
        .map_err(|e| format!("replay: {e}"))?;
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    metrics.extend([
        Metric::sampled(
            "store.append_ns",
            "ns",
            append.as_nanos() as f64 / k as f64,
            k,
        ),
        Metric::sampled("store.bytes_per_pkt", "B", log_bytes as f64 / k as f64, k),
        Metric::new("store.replay_ms", "ms", replay_ms),
        Metric::new("store.records", "count", replayed.records as f64),
    ]);
    Ok(Layers { metrics })
}

fn seq_frame(seq: u64, packet: &Packet) -> Vec<u8> {
    Envelope::ingest_seq(TENANT, SESSION, seq, &packet.to_bytes()).encode()
}

/// A registry serving one default tenant.
pub fn registry(keys: &Arc<KeyStore>) -> Result<Arc<TenantRegistry>, String> {
    TenantRegistry::builder()
        .tenant(
            std::str::from_utf8(TENANT).expect("ascii tenant"),
            TenantConfig::new(Arc::clone(keys), service_config()),
        )
        .build()
        .map(Arc::new)
        .map_err(|e| format!("registry: {e}"))
}

/// A running gateway and the registry it serves.
pub struct Server {
    handle: GatewayHandle,
    pub registry: Arc<TenantRegistry>,
}

impl Server {
    pub fn start(keys: &Arc<KeyStore>, sock: &Path) -> Result<Self, String> {
        let registry = registry(keys)?;
        let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
        gw.listen_uds(sock)
            .map_err(|e| format!("bind {}: {e}", sock.display()))?;
        let handle = gw.spawn().map_err(|e| format!("spawn gateway: {e}"))?;
        Ok(Server { handle, registry })
    }

    /// Stops the gateway and drains the tenant; returns its evidence.
    pub fn finish(self) -> Result<Evidence, String> {
        self.handle.shutdown();
        let verdict = self.registry.drain(TENANT).ok_or("tenant vanished")?;
        Evidence::from_bytes(&verdict.evidence_bytes).map_err(|e| format!("evidence: {e}"))
    }
}

/// Blocks until the tenant's pool has worked off its queue.
pub fn wait_backlog(registry: &TenantRegistry) {
    while registry.backlog() > 0 {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Gateway costs on `packets`: frame decode, admission, ack encode, the
/// bytes a frame carries, and what a closed-loop round trip spends
/// waiting in the readiness loop and the socket.
pub fn gateway(keys: &Arc<KeyStore>, packets: &[Packet], tmp: &Path) -> Result<Layers, String> {
    let packets = &packets[..packets.len().min(PROBE_PACKETS / 2)];
    let k = packets.len();
    let frames: Vec<Vec<u8>> = packets
        .iter()
        .enumerate()
        .map(|(i, p)| seq_frame(i as u64 + 1, p))
        .collect();
    let frame_decode_ns = per_call(k, |i| {
        Envelope::decode(&frames[i], DEFAULT_MAX_PAYLOAD).expect("own frame decodes")
    });
    let ack_encode_ns = per_call(k, |i| {
        Response::new(
            Status::Ok,
            IngestAck::new(AckCode::Accepted, i as u64).encode(),
        )
        .encode()
    });
    let bytes_per_pkt = frames.iter().map(Vec::len).sum::<usize>() as f64 / k as f64;

    // Admission in chunks small enough for the default queues, so the
    // timing holds no backpressure wait.
    let reg = registry(keys)?;
    let payloads: Vec<Vec<u8>> = packets
        .iter()
        .enumerate()
        .map(|(i, p)| SeqFrame::encode_payload(TENANT, SESSION, i as u64 + 1, &p.to_bytes()))
        .collect();
    let mut admit = Duration::ZERO;
    for chunk in payloads.chunks(256) {
        for payload in chunk {
            let start = Instant::now();
            let ack = reg.ingest_seq(TENANT, payload, start);
            admit += start.elapsed();
            if ack.code != AckCode::Accepted {
                return Err(format!("admission refused a clean frame: {:?}", ack.code));
            }
        }
        wait_backlog(&reg);
    }
    let admit_ns = admit.as_nanos() as f64 / k as f64;
    reg.drain(TENANT);

    // Closed-loop round trips through a live default gateway.
    let sock = tmp.join("probe.sock");
    let server = Server::start(keys, &sock)?;
    let trips = ROUND_TRIPS.min(k);
    let rtt = (|| -> std::io::Result<Duration> {
        let mut client = GatewayClient::connect_uds(&sock)?;
        let mut total = Duration::ZERO;
        for (i, p) in packets[..trips].iter().enumerate() {
            let bytes = p.to_bytes();
            let start = Instant::now();
            let ack = client.ingest_seq(TENANT, SESSION, i as u64 + 1, &bytes)?;
            total += start.elapsed();
            if ack.code != AckCode::Accepted {
                return Err(std::io::Error::other(format!("refused: {:?}", ack.code)));
            }
        }
        Ok(total)
    })();
    server.finish()?;
    let rtt_us =
        rtt.map_err(|e| format!("round trip: {e}"))?.as_nanos() as f64 / 1e3 / trips as f64;

    Ok(Layers {
        metrics: vec![
            Metric::sampled("gateway.frame_decode_ns", "ns", frame_decode_ns, k),
            Metric::sampled("gateway.admit_ns", "ns", admit_ns, k),
            Metric::sampled("gateway.ack_encode_ns", "ns", ack_encode_ns, k),
            Metric::sampled(
                "gateway.loop_wait_us",
                "us",
                rtt_us - (admit_ns + ack_encode_ns) / 1e3,
                trips,
            ),
            Metric::sampled("gateway.wire_bytes_per_pkt", "B", bytes_per_pkt, k),
        ],
    })
}

/// The ledger: process CPU per packet against the on-path layers' summed
/// self time, and the share nothing measured accounts for.
pub fn ledger(e2e_ns: f64, layers_ns: f64) -> Vec<Metric> {
    vec![
        Metric::new("ledger.e2e_cpu_ns_per_pkt", "ns", e2e_ns),
        Metric::new("ledger.layers_ns_per_pkt", "ns", layers_ns),
        Metric::new(
            "ledger.residual_pct",
            "%",
            100.0 * (e2e_ns - layers_ns) / e2e_ns,
        ),
    ]
}
