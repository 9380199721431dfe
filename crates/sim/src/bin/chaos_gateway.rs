//! Gateway-edge chaos soak: sweeps client-side wire-fault intensity
//! (connection kills, resets, partial writes, bit flips, stalls, delays)
//! over a **live gateway on a Unix-domain socket** and gates the edge
//! resilience contract.
//!
//! ```text
//! chaos-gateway [--smoke] [--out FILE]
//! ```
//!
//! At every sweep point a retrying [`GatewayClient`] pushes the same marked
//! packet stream through a [`ChaosTransport`](pnm_gateway::ChaosTransport)-wrapped wire into a fresh
//! gateway, then the tenant is drained and the gateway shut down
//! gracefully. The gates, all of which must hold at every intensity:
//!
//! - **exactly once**: every send resolves `Counted`, and the server's
//!   `ingested_total` equals the packet count — no loss, no double count,
//!   no matter how many retries and reconnects the faults forced;
//! - **evidence identity**: the drained evidence is byte-identical to a
//!   fault-free sequential run of the same packets — wire faults never
//!   alter (and therefore never falsely implicate) anything;
//! - **balanced accounting**: `attempts − packets == retries` and
//!   `connects − 1 == reconnects`, exactly; at intensity zero every
//!   fault/retry/duplicate counter is zero;
//! - **zero panics**: neither the client loop nor any shard worker
//!   panics (the drain summary's `panics` field is part of the gate);
//! - **graceful drain**: `shutdown_graceful` flushes within budget;
//! - **coherent ops**: a live ops snapshot fetched over the same
//!   chaos-wrapped connection names the tenant as running, its registry
//!   series count exactly the acked packets and no shard panic, and it
//!   shows a clean flight recorder (re-requested on garbled bodies — ops
//!   replies are read-only).
//!
//! The summary is merged into `BENCH_chaos.json` as a `"gateway"`
//! section, next to the network-layer soak written by `chaos_soak`.
//! `--smoke` runs the CI-sized sweep (2 points, 120 packets each).

use std::env;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use pnm_core::{
    IsolationPolicy, MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig,
    SinkEngine, VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_gateway::{
    BackoffPolicy, ChaosPlan, ClientConfig, ClientReport, Gateway, GatewayClient, GatewayConfig,
    TenantConfig, TenantRegistry,
};
use pnm_obs::{JsonValue, Registry};
use pnm_service::ServiceConfig;
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: u16 = 6;
const SEED: u64 = 2007;
const TENANT: &[u8] = b"edge";

fn temp_sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnm-chaosgw-{}-{tag}.sock", std::process::id()))
}

fn sink_config() -> SinkConfig {
    SinkConfig::new(VerifyMode::Nested)
        .isolation(IsolationPolicy::SuspectsOnly)
        .table_cache_capacity(4)
}

fn workload(ks: &KeyStore, count: u64) -> Vec<Vec<u8>> {
    let scheme = ProbabilisticNestedMarking::paper_default(NODES as usize);
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..count)
        .map(|seq| {
            let report = Report::new(
                format!("edge-{seq}").into_bytes(),
                Location::new(seq as f32, 0.0),
                seq,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..NODES {
                let ctx = NodeContext::new(NodeId(hop), *ks.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt.to_bytes()
        })
        .collect()
}

/// The fault-free reference: a solo sequential run mirroring the pool's
/// drain semantics (per-packet isolation stripped, policy applied once).
fn reference_evidence(ks: &Arc<KeyStore>, packets: &[Vec<u8>]) -> Vec<u8> {
    let mut seq = SinkEngine::new(Arc::clone(ks), sink_config().without_isolation());
    for p in packets {
        seq.ingest(&Packet::from_bytes(p).expect("workload packets are canonical"));
    }
    let mut merged = SinkEngine::new(Arc::clone(ks), sink_config());
    merged.absorb(&seq);
    merged.refresh_quarantine();
    merged.quarantine_source_regions();
    merged.evidence().to_bytes()
}

/// First integer value of the metrics line carrying `name` and every
/// label fragment in `labels`.
fn metric(text: &str, name: &str, labels: &[&str]) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && labels.iter().all(|frag| l.contains(frag)))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

struct PointResult {
    intensity: f64,
    report: ClientReport,
    faults: [u64; 6], // kills, resets, partial_writes, corruptions, stalls, delays
    server_ingested: u64,
    server_duplicates: u64,
    all_counted: bool,
    evidence_identical: bool,
    drain_panics: u64,
    graceful: bool,
    mirrored_consistent: bool,
    ops_consistent: bool,
}

impl PointResult {
    fn balanced(&self) -> bool {
        let r = &self.report;
        r.attempts - r.counted == r.retries
            && r.connects.saturating_sub(1) == r.reconnects
            && self.server_duplicates >= r.duplicates
            && self.mirrored_consistent
    }

    fn quiet_if_calm(&self) -> bool {
        self.intensity > 0.0
            || (self.report.retries == 0
                && self.report.reconnects == 0
                && self.report.duplicates == 0
                && self.report.io_errors == 0
                && self.faults.iter().all(|&f| f == 0))
    }

    fn json(&self) -> String {
        let r = &self.report;
        format!(
            concat!(
                "    {{\"intensity\": {:.2}, \"packets\": {}, \"attempts\": {}, ",
                "\"retries\": {}, \"connects\": {}, \"reconnects\": {}, ",
                "\"io_errors\": {}, \"retryable_acks\": {}, \"duplicates\": {},\n",
                "     \"kills\": {}, \"resets\": {}, \"partial_writes\": {}, ",
                "\"corruptions\": {}, \"stalls\": {}, \"delays\": {},\n",
                "     \"server_ingested\": {}, \"server_duplicates\": {}, ",
                "\"drain_panics\": {}, \"all_acked_counted\": {}, ",
                "\"evidence_identical\": {}, \"graceful_shutdown\": {}, ",
                "\"ops_consistent\": {}}}"
            ),
            self.intensity,
            r.counted,
            r.attempts,
            r.retries,
            r.connects,
            r.reconnects,
            r.io_errors,
            r.retryable_acks,
            r.duplicates,
            self.faults[0],
            self.faults[1],
            self.faults[2],
            self.faults[3],
            self.faults[4],
            self.faults[5],
            self.server_ingested,
            self.server_duplicates,
            self.drain_panics,
            self.all_counted,
            self.evidence_identical,
            self.graceful,
            self.ops_consistent,
        )
    }
}

fn run_point(
    intensity: f64,
    ks: &Arc<KeyStore>,
    packets: &[Vec<u8>],
    reference: &[u8],
) -> PointResult {
    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "edge",
                TenantConfig::new(Arc::clone(ks), ServiceConfig::new(sink_config()).shards(1)),
            )
            .build()
            .expect("tenant registry"),
    );
    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_sock(&format!("i{:03}", (intensity * 100.0) as u32));
    gw.listen_uds(&sock).expect("listen");
    let handle = gw.spawn().expect("spawn");

    let config = ClientConfig::default()
        .connect_timeout(Duration::from_secs(2))
        .read_timeout(Duration::from_millis(400))
        .write_timeout(Duration::from_millis(400))
        .chaos(
            ChaosPlan::at_intensity(intensity),
            SEED ^ intensity.to_bits(),
        )
        .backoff(
            BackoffPolicy::new(Duration::from_millis(1), Duration::from_millis(30)).jitter(0.25),
        )
        .max_attempts(400);
    let client_metrics = Registry::default();
    let mut client = GatewayClient::connect_uds_with(&sock, config)
        .expect("client connection")
        .with_session(SEED)
        .with_metrics(&client_metrics, "edge");
    let counters = client.chaos_counters();

    let mut all_counted = true;
    for p in packets {
        match client.send(TENANT, p) {
            Ok(out) if out.is_counted() => {}
            Ok(_) | Err(_) => all_counted = false,
        }
    }

    // The live ops surface must agree with the wire: a snapshot fetched
    // over the same chaos-wrapped connection as the ingest traffic
    // names this tenant as running, counts exactly the acked packets,
    // and shows a clean flight recorder. Ops replies are read-only and
    // carry no ingest-style CRC, so a fault can garble one body; the
    // reader's contract is to re-request until a snapshot parses — the
    // gate fails only if no coherent snapshot arrives at all.
    let ops_consistent = (0..5).any(|_| {
        client
            .ops_snapshot(TENANT)
            .ok()
            .and_then(|text| pnm_obs::json::parse(&text).ok())
            .is_some_and(|v| {
                let str_field = |k: &str| v.get(k).and_then(|x| x.as_str().map(str::to_string));
                let Some(all @ JsonValue::Object(series)) = v.get("series") else {
                    return false;
                };
                let ingested = all.get("pnm_gateway_ingested_total{tenant=\"edge\"}");
                // One panic series per shard, each at zero.
                let panics: Vec<Option<u64>> = series
                    .iter()
                    .filter(|(k, _)| k.starts_with("pnm_service_panics_total{"))
                    .map(|(_, x)| x.as_u64())
                    .collect();
                str_field("tenant").as_deref() == Some("edge")
                    && str_field("state").as_deref() == Some("running")
                    && ingested.and_then(JsonValue::as_u64) == Some(packets.len() as u64)
                    && v.get("flight_dumps").and_then(JsonValue::as_u64) == Some(0)
                    && !panics.is_empty()
                    && panics.iter().all(|p| *p == Some(0))
            })
    });

    let report = client.report();
    drop(client);

    use std::sync::atomic::Ordering::Relaxed;
    let faults = [
        counters.kills.load(Relaxed),
        counters.resets.load(Relaxed),
        counters.partial_writes.load(Relaxed),
        counters.corruptions.load(Relaxed),
        counters.stalls.load(Relaxed),
        counters.delays.load(Relaxed),
    ];

    // The obs mirror must agree with the report, attempt for attempt.
    let mirror = client_metrics.prometheus_text();
    let mirrored_consistent = metric(&mirror, "pnm_client_attempts_total", &["client=\"edge\""])
        == report.attempts
        && metric(&mirror, "pnm_client_retries_total", &["client=\"edge\""]) == report.retries
        && metric(&mirror, "pnm_client_acks_total", &["code=\"accepted\""])
            == report.counted - report.duplicates;

    let text = registry.metrics_text();
    let server_ingested = metric(&text, "pnm_gateway_ingested_total", &["tenant=\"edge\""]);
    let server_duplicates = metric(&text, "pnm_gateway_duplicate_total", &["tenant=\"edge\""]);

    let (evidence_identical, drain_panics) = {
        let mut c = GatewayClient::connect_uds(&sock).expect("drain connection");
        let verdict = c.drain(TENANT).expect("drain");
        let panics = pnm_obs::json::parse(&verdict.summary_json)
            .ok()
            .and_then(|v| v.get("panics").and_then(JsonValue::as_u64))
            .unwrap_or(u64::MAX);
        (verdict.evidence_bytes == reference, panics)
    };
    let graceful = handle.shutdown_graceful(Duration::from_secs(10));

    PointResult {
        intensity,
        report,
        faults,
        server_ingested,
        server_duplicates,
        all_counted,
        evidence_identical,
        drain_panics,
        graceful,
        mirrored_consistent,
        ops_consistent,
    }
}

fn merge_gateway_section(existing: Option<String>, section: &str) -> String {
    let head = match existing {
        Some(text) => {
            // Replace an earlier gateway section, or open up the closing
            // brace of the soak's summary object.
            let cut = text
                .find("\n  \"gateway\":")
                .map(|i| text[..i].trim_end().trim_end_matches(',').to_string())
                .or_else(|| {
                    text.trim_end()
                        .strip_suffix('}')
                        .map(|t| t.trim_end().trim_end_matches(',').to_string())
                });
            match cut {
                Some(h) if !h.trim().is_empty() && h.trim() != "{" => h,
                _ => "{".to_string(),
            }
        }
        None => "{".to_string(),
    };
    if head == "{" {
        format!("{{\n  \"gateway\": {section}\n}}\n")
    } else {
        format!("{head},\n  \"gateway\": {section}\n}}\n")
    }
}

fn main() -> ExitCode {
    let mut out = "BENCH_chaos.json".to_string();
    let mut smoke = false;
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
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

    let packets_per_point: u64 = if smoke { 120 } else { 400 };
    let intensities: &[f64] = if smoke {
        &[0.0, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };

    let ks = Arc::new(KeyStore::derive_from_master(b"edge-chaos", NODES));
    let packets = workload(&ks, packets_per_point);
    let reference = reference_evidence(&ks, &packets);

    let mut points = Vec::new();
    let mut panicked = false;
    for &intensity in intensities {
        eprintln!("chaos-gateway: intensity {intensity:.2}, {packets_per_point} packets over UDS");
        match catch_unwind(AssertUnwindSafe(|| {
            run_point(intensity, &ks, &packets, &reference)
        })) {
            Ok(p) => points.push(p),
            Err(_) => {
                eprintln!("chaos-gateway: PANIC at intensity {intensity:.2}");
                panicked = true;
            }
        }
    }

    let zero_panics = !panicked && points.iter().all(|p| p.drain_panics == 0);
    let all_counted = points
        .iter()
        .all(|p| p.all_counted && p.server_ingested == packets_per_point);
    let evidence_identical = points.iter().all(|p| p.evidence_identical);
    let counters_balanced = points.iter().all(PointResult::balanced);
    let calm_quiet = points.iter().all(PointResult::quiet_if_calm);
    let graceful = points.iter().all(|p| p.graceful);
    let ops_consistent = points.iter().all(|p| p.ops_consistent);
    let chaos_fired = points
        .iter()
        .any(|p| p.intensity >= 1.0 && p.faults.iter().sum::<u64>() > 0);

    let section = format!(
        concat!(
            "{{\n",
            "    \"scenario\": \"gateway edge chaos over UDS, {} packets per point, ",
            "{} nodes, seed {}\",\n",
            "    \"claim\": \"acked ingest is exactly-once under arbitrary wire chaos: ",
            "evidence byte-identical to the fault-free run, accounting balanced, ",
            "zero panics, graceful drain\",\n",
            "    \"mode\": \"{}\",\n",
            "    \"zero_panics\": {},\n",
            "    \"all_acked_counted\": {},\n",
            "    \"evidence_identical\": {},\n",
            "    \"counters_balanced\": {},\n",
            "    \"calm_point_quiet\": {},\n",
            "    \"graceful_shutdown\": {},\n",
            "    \"ops_consistent\": {},\n",
            "    \"chaos_fired\": {},\n",
            "    \"points\": [\n{}\n    ]\n",
            "  }}"
        ),
        packets_per_point,
        NODES,
        SEED,
        if smoke { "smoke" } else { "full" },
        zero_panics,
        all_counted,
        evidence_identical,
        counters_balanced,
        calm_quiet,
        graceful,
        ops_consistent,
        chaos_fired,
        points
            .iter()
            .map(PointResult::json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );

    let merged = merge_gateway_section(std::fs::read_to_string(&out).ok(), &section);
    if let Err(e) = std::fs::write(&out, &merged) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote gateway section to {out}");

    if zero_panics
        && all_counted
        && evidence_identical
        && counters_balanced
        && calm_quiet
        && graceful
        && ops_consistent
        && chaos_fired
    {
        println!(
            "chaos-gateway: PASS ({} points, exactly-once held at every intensity)",
            points.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "chaos-gateway: FAIL (zero_panics={zero_panics} all_acked_counted={all_counted} \
             evidence_identical={evidence_identical} counters_balanced={counters_balanced} \
             calm_point_quiet={calm_quiet} graceful_shutdown={graceful} \
             ops_consistent={ops_consistent} chaos_fired={chaos_fired})"
        );
        ExitCode::FAILURE
    }
}
