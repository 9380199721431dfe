//! The in-process workloads, `sink_fresh` and `durable_hot`: a default
//! `ServicePool` takes a burst of packets and is drained for its verdict,
//! batch after batch, each batch on a fresh pool.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnm_core::store::{Evidence, EvidenceStore, LogStore, RecordKind};
use pnm_crypto::KeyStore;
use pnm_service::{DrainReport, ServicePool};
use pnm_wire::Packet;

use crate::report::{Metric, Outcome};
use crate::scenario::{Deployment, Fresh, Hot};
use crate::stats::{
    least_disturbed_median, low_quantile, mean, median, quantile, repeat_into, window_quantiles,
};
use crate::verdict::{
    drained_cleanly, implicates_only, same_evidence, sequential_evidence, service_config,
};
use crate::{probes, sys, Args, SLICE_REPS, SLICE_TIME, WARM_UP};

/// One workload's fixed inputs.
struct Spec {
    deployment: Deployment,
    packets: Vec<Packet>,
    /// Attach a `LogStore` at the default checkpoint cadence.
    durable: bool,
    /// Nodes a correct verdict may implicate.
    suspects: Vec<u16>,
}

impl Spec {
    /// `sink_fresh`: 8192 distinct bogus reports per batch, so a batch
    /// overfills the pool's queues (2 × 1024 by default) fourfold and the
    /// burst's admission latency reflects sink throughput.
    fn fresh(seed: u64) -> Self {
        let field = Fresh::new(seed);
        let keys = field.deployment.provision();
        Spec {
            packets: field.packets(&keys, 8192),
            suspects: field.allowed_suspects(),
            deployment: field.deployment,
            durable: false,
        }
    }

    /// `durable_hot`: 16384 re-deliveries of 8 reports per batch.
    fn hot(seed: u64) -> Self {
        let path = Hot::new(seed);
        let keys = path.deployment.provision();
        Spec {
            packets: path.packets(&keys, 16_384),
            // Node 0 originates every report; PNM names it or its
            // downstream neighbour.
            suspects: vec![0, 1],
            deployment: path.deployment,
            durable: true,
        }
    }
}

/// One burst through one fresh pool.
pub struct Batch {
    /// First ingest call → drained verdict.
    pub wall: Duration,
    /// Per packet: batch start (every packet of a burst is due then) →
    /// `ServicePool::ingest` returned `Ok`, Block backpressure included.
    pub ack_us: Vec<f64>,
    /// Traced only: per packet, how late the harness issued the call
    /// beyond the previous call's return (its own overhead).
    pub lag_us: Vec<f64>,
    /// Traced only: per `ServicePool::ingest` call duration.
    pub enqueue_ns: Vec<f64>,
    pub drain: Duration,
    /// Process CPU time, and CPU time the hypervisor stole, over the
    /// timed region.
    pub cpu_ns: u64,
    pub steal_ns: u64,
    pub report: DrainReport,
}

/// Ingests `packets` as one burst into a default pool (with a fresh
/// `LogStore` at `log` when given) and drains it.
pub fn run_batch(
    keys: &Arc<KeyStore>,
    packets: &[Packet],
    log: Option<&Path>,
    traced: bool,
) -> Result<Batch, String> {
    let mut config = service_config();
    if let Some(path) = log {
        let _ = std::fs::remove_file(path);
        let store = LogStore::open(path).map_err(|e| format!("open log: {e}"))?;
        config = config.store(Arc::new(store));
    }
    let pool = ServicePool::new(Arc::clone(keys), config);
    let n = packets.len();
    let mut ack_us = Vec::with_capacity(n);
    let (mut lag_us, mut enqueue_ns) = if traced {
        (Vec::with_capacity(n), Vec::with_capacity(n))
    } else {
        (Vec::new(), Vec::new())
    };

    let cpu0 = sys::process_cpu_ns().ok_or("no process CPU clock")?;
    let steal0 = sys::steal_ns().ok_or("no steal counter")?;
    let t0 = Instant::now();
    let mut prev_end = t0;
    for packet in packets {
        let start = traced.then(Instant::now);
        // Cloned in the loop (a copy per call, far below the per-packet
        // sink cost) so no second copy of the burst inflates peak memory.
        pool.ingest(packet.clone())
            .map_err(|e| format!("ingest: {e}"))?;
        let end = Instant::now();
        ack_us.push(micros(end - t0));
        if let Some(start) = start {
            lag_us.push(micros(start.saturating_duration_since(prev_end)));
            enqueue_ns.push((end - start).as_nanos() as f64);
            prev_end = end;
        }
    }
    let drain_start = Instant::now();
    let report = pool.drain();
    let end = Instant::now();
    let cpu_ns = sys::process_cpu_ns().ok_or("no process CPU clock")? - cpu0;
    let steal_ns = sys::steal_ns().ok_or("no steal counter")? - steal0;
    drained_cleanly(&report, n)?;
    Ok(Batch {
        wall: end - t0,
        ack_us,
        lag_us,
        enqueue_ns,
        drain: end - drain_start,
        cpu_ns,
        steal_ns,
        report,
    })
}

/// Writes `evidence` as a one-record snapshot log — the shape a compacted
/// evidence log has.
pub fn write_snapshot_log(path: &Path, evidence: &Evidence) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let store = LogStore::open(path).map_err(|e| format!("open log: {e}"))?;
    store
        .append(0, RecordKind::Snapshot, evidence)
        .map_err(|e| format!("append snapshot: {e}"))
}

/// Runs `ServicePool::recover_from_log` until the recovered pool is
/// drained, checks it answers exactly `want`, and returns the CPU
/// seconds (all threads) the recovery cost.
pub fn recover(keys: &Arc<KeyStore>, log: &Path, want: &Evidence) -> Result<f64, String> {
    let start = sys::process_cpu_ns().ok_or("no process CPU clock")?;
    let (pool, _) = ServicePool::recover_from_log(Arc::clone(keys), service_config(), log)
        .map_err(|e| format!("recover: {e}"))?;
    let report = pool.drain();
    let cpu_ns = sys::process_cpu_ns().ok_or("no process CPU clock")? - start;
    let got = report.engine.evidence();
    if got.to_bytes() != want.to_bytes() {
        return Err(format!(
            "recovered evidence differs from the pre-crash evidence: got {:?}, want {:?}",
            got.counters, want.counters
        ));
    }
    Ok(cpu_ns as f64 / 1e9)
}

/// Most over fewest packets processed by one shard of a drained pool.
pub fn shard_skew(report: &DrainReport) -> f64 {
    let processed = report.snapshot.shards.iter().map(|s| s.processed as f64);
    processed.clone().fold(0.0, f64::max) / processed.fold(f64::INFINITY, f64::min)
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// One set-up — key derivation and schedule, log open (durable), and
/// pool spawn, until the pool accepts its first packet — in CPU seconds.
fn setup_once(spec: &Spec, log: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_file(log);
    let start = sys::process_cpu_ns().ok_or("no process CPU clock")?;
    let keys = spec.deployment.provision();
    let mut config = service_config();
    if spec.durable {
        let store = LogStore::open(log).map_err(|e| format!("open log: {e}"))?;
        config = config.store(Arc::new(store));
    }
    let pool = ServicePool::new(keys, config);
    let cpu_ns = sys::process_cpu_ns().ok_or("no process CPU clock")? - start;
    pool.drain();
    Ok(cpu_ns as f64 / 1e9)
}

/// Checks one drained batch: verdict equals the sequential run, names
/// only allowed suspects, and the log it leaves at `log` recovers it
/// exactly (the durable workload's live log; otherwise a snapshot of its
/// evidence). Returns the evidence.
fn check_batch(
    spec: &Spec,
    keys: &Arc<KeyStore>,
    batch: &Batch,
    oracle: &Evidence,
    log: &Path,
) -> Result<Evidence, String> {
    let evidence = batch.report.engine.evidence();
    same_evidence(&evidence, oracle)?;
    implicates_only(&batch.report.engine.localize(), &spec.suspects)?;
    if !spec.durable {
        write_snapshot_log(log, &evidence)?;
    }
    recover(keys, log, &evidence)?;
    Ok(evidence)
}

pub fn run(args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let spec = match args.workload.as_str() {
        "sink_fresh" => Spec::fresh(args.seed),
        _ => Spec::hot(args.seed),
    };
    let log: PathBuf = tmp.join("evidence.pnme");
    let setup_log: PathBuf = tmp.join("setup.pnme");
    let keys = spec.deployment.provision();
    let oracle = sequential_evidence(&keys, &spec.packets);
    sys::warm_cpus(WARM_UP);
    if args.trace {
        return traced(args, &spec, &keys, &oracle, tmp);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Per batch: (value, CPU time stolen by the hypervisor meanwhile).
    let (mut pps, mut p50) = (Vec::new(), Vec::new());
    let (mut setup_s, mut recovery_s) = (Vec::new(), Vec::new());
    while pps.len() < 3 || Instant::now() < deadline {
        let batch = run_batch(
            &keys,
            &spec.packets,
            spec.durable.then_some(log.as_path()),
            false,
        )?;
        let evidence = check_batch(&spec, &keys, &batch, &oracle, &log)?;
        let stolen = batch.steal_ns as f64;
        pps.push((spec.packets.len() as f64 / batch.wall.as_secs_f64(), stolen));
        p50.push((
            quantile(&mut batch.ack_us.clone(), 0.50)
                .expect("batch")
                .value,
            stolen,
        ));
        repeat_into(&mut recovery_s, SLICE_REPS, SLICE_TIME, || {
            recover(&keys, &log, &evidence)
        })?;
        repeat_into(&mut setup_s, SLICE_REPS, SLICE_TIME, || {
            setup_once(&spec, &setup_log)
        })?;
    }
    // Quantiles per batch, then the median over the batches the host
    // disturbed least.
    let n = spec.packets.len();
    let batches = pps.len();
    let pps = least_disturbed_median(&pps).expect("batches ran");
    let p50 = least_disturbed_median(&p50).expect("batches ran");
    Ok(Outcome {
        attempted: (batches * n) as u64,
        failed: 0,
        metrics: vec![
            low_quantile("setup_s", &mut setup_s),
            Metric::sampled("ack_p50_us", "us", p50.value, p50.samples * n),
            Metric::sampled("throughput_pps", "pkt/s", pps.value, pps.samples),
            low_quantile("recovery_s", &mut recovery_s),
            Metric::new(
                "peak_rss_mb",
                "MiB",
                sys::peak_rss_mib().unwrap_or(f64::NAN),
            ),
        ],
        notes: vec![format!(
            "{batches} batches of {n} packets, each on a fresh default pool"
        )],
    })
}

/// The traced run: alternates untraced and traced batches (process CPU
/// per packet, tracing overhead), then costs each layer on the
/// workload's own packets.
fn traced(
    args: &Args,
    spec: &Spec,
    keys: &Arc<KeyStore>,
    oracle: &Evidence,
    tmp: &Path,
) -> Result<Outcome, String> {
    let log = tmp.join("evidence.pnme");
    let log = log.as_path();
    let n = spec.packets.len();
    let store = spec.durable.then_some(log);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.6);
    let (mut plain_pps, mut traced_pps, mut drain_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_ns, mut lag_us, mut enqueue_ns) = (0u64, Vec::new(), Vec::new());
    let (mut ack_us, mut last) = (Vec::new(), None::<Batch>);
    while plain_pps.len() < 2 || Instant::now() < deadline {
        let plain = run_batch(keys, &spec.packets, store, false)?;
        cpu_ns += plain.cpu_ns;
        check_batch(spec, keys, &plain, oracle, log)?;
        plain_pps.push(n as f64 / plain.wall.as_secs_f64());
        ack_us.extend_from_slice(&plain.ack_us);

        let batch = run_batch(keys, &spec.packets, store, true)?;
        check_batch(spec, keys, &batch, oracle, log)?;
        traced_pps.push(n as f64 / batch.wall.as_secs_f64());
        drain_ms.push(batch.drain.as_secs_f64() * 1e3);
        lag_us.extend_from_slice(&batch.lag_us);
        enqueue_ns.extend_from_slice(&batch.enqueue_ns);
        last = Some(batch);
    }
    let rounds = plain_pps.len();
    // Tails per batch, then the median batch.
    let tail = |q| median(&mut window_quantiles(&ack_us, n, q)).expect("ran");
    let plain = median(&mut plain_pps).expect("ran");
    let traced = median(&mut traced_pps).expect("ran");
    let lag_p99 = quantile(&mut lag_us, 0.99).expect("ran");
    let drain = median(&mut drain_ms).expect("ran");

    let mut metrics = vec![
        Metric::sampled("ack_p90_us", "us", tail(0.90), ack_us.len()),
        Metric::sampled("ack_p99_us", "us", tail(0.99), ack_us.len()),
        Metric::sampled(
            "service.enqueue_ns",
            "ns",
            mean(&enqueue_ns).expect("ran"),
            enqueue_ns.len(),
        ),
        Metric::sampled("service.drain_ms", "ms", drain, rounds),
        Metric::new(
            "service.shard_skew",
            "ratio",
            shard_skew(&last.expect("ran").report),
        ),
        Metric::sampled(
            "obs.trace_overhead_pct",
            "%",
            100.0 * (plain - traced) / plain,
            rounds,
        ),
        Metric::sampled(
            "harness.send_lag_p99_us",
            "us",
            lag_p99.value,
            lag_p99.samples,
        ),
    ];
    let layers = probes::measure(keys, &spec.packets, tmp, log)?;
    // On-path self time per packet: the shard's engine pass and its
    // checkpoint clone, the durable append, and the drain's share.
    let mut on_path = layers.value("sink.ingest_ns") + layers.value("service.checkpoint_clone_ns");
    if spec.durable {
        on_path += layers.value("store.append_ns");
    }
    on_path += drain * 1e6 / n as f64;
    let e2e = cpu_ns as f64 / (rounds * n) as f64;
    metrics.extend(layers.metrics);
    metrics.extend(probes::gateway(keys, &spec.packets, tmp)?.metrics);
    metrics.extend(probes::ledger(e2e, on_path));
    Ok(Outcome {
        attempted: (2 * rounds * n) as u64,
        failed: 0,
        metrics,
        notes: vec![format!(
            "{rounds} untraced and {rounds} traced batches of {n} packets"
        )],
    })
}
