//! `edge_acked`: acked, sequenced ingest through a default gateway over a
//! Unix-domain socket. An open-loop phase measures ack latency from each
//! frame's due time; a fixed-window saturation phase measures throughput.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnm_core::store::Evidence;
use pnm_crypto::KeyStore;
use pnm_gateway::{AckCode, Envelope, IngestAck, Response, Status};

use crate::inproc::{micros, recover, run_batch, shard_skew, write_snapshot_log};
use crate::probes::{self, wait_backlog, Server, SESSION, TENANT};
use crate::report::{Metric, Outcome};
use crate::scenario::Edge;
use crate::stats::{
    least_disturbed_median, low_quantile, mean, median, quantile, repeat_into, window_quantiles,
};
use crate::verdict::{same_evidence, Sequential};
use crate::{sys, Args, SLICE_REPS, SLICE_TIME, WARM_UP};

/// Open-loop offered load, packets per second: well under what the
/// default gateway sustains, so the backlog stays flat.
const OPEN_RATE: u32 = 1000;
/// Frames in flight during the saturation phase.
const WINDOW: usize = 512;
/// Rounds per run, each on a fresh gateway.
const ROUNDS: usize = 3;
/// Saturation chunks per round and frames per chunk; throughput is the
/// median chunk's rate.
const SAT_CHUNKS: usize = 8;
const SAT_CHUNK: usize = 15_000;
/// Open-loop frames per latency window: ack quantiles are medians over
/// windows (a window's p99 leaves 10 samples beyond it).
const OPEN_WINDOW: usize = 1000;

/// Reads what the socket has and decodes every complete ack in it,
/// calling `on_ack(seq, code, arrival)`.
fn read_acks(
    stream: &mut UnixStream,
    buf: &mut Vec<u8>,
    mut on_ack: impl FnMut(u64, AckCode, Instant) -> io::Result<()>,
) -> io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    let n = stream.read(&mut chunk)?;
    let arrival = Instant::now();
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "gateway hung up",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut used = 0;
    while let Some((resp, len)) =
        Response::decode(&buf[used..], 1 << 16).map_err(|e| invalid(format!("{e:?}")))?
    {
        used += len;
        if resp.status != Status::Ok {
            return Err(invalid(String::from_utf8_lossy(&resp.payload).into_owned()));
        }
        let ack = IngestAck::decode(&resp.payload).map_err(|e| invalid(e.into()))?;
        on_ack(ack.seq, ack.code, arrival)?;
    }
    buf.drain(..used);
    Ok(())
}

/// What an open-loop phase saw.
struct OpenLoop {
    /// Per frame: due time → ack arrival, in µs.
    latency_us: Vec<f64>,
    /// Per frame: how late the writer sent, beyond its due time and the
    /// end of its previous write.
    lag_us: Vec<f64>,
    /// Frames answered with anything but `Accepted`.
    refused: u64,
    /// Steal counter (`sys::steal_ns`) read as each `OPEN_WINDOW` of
    /// frames began, and once after the last frame.
    steal_ns: Vec<u64>,
}

/// Sends `frames` (sequence numbers from `first_seq`) one per `period`
/// on a fixed schedule from a writer thread, whatever the acks do, and
/// times each ack from the frame's due time — so a stall shows in every
/// frame that came due during it, not just the one that hit it.
fn open_loop(
    stream: &UnixStream,
    frames: &[Vec<u8>],
    first_seq: u64,
    period: Duration,
) -> io::Result<OpenLoop> {
    let n = frames.len();
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_secs(10)))?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| t0 + period * i as u32;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<(Vec<f64>, Vec<u64>)> {
            let mut lag_us = Vec::with_capacity(n);
            let mut steal_ns = Vec::new();
            let mut prev_end = t0;
            for (i, frame) in frames.iter().enumerate() {
                if i % OPEN_WINDOW == 0 {
                    steal_ns.push(sys::steal_ns().unwrap_or(0));
                }
                let due = due(i);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let start = Instant::now();
                writer.write_all(frame)?;
                lag_us.push(micros(start.saturating_duration_since(due.max(prev_end))));
                prev_end = Instant::now();
            }
            steal_ns.push(sys::steal_ns().unwrap_or(0));
            Ok((lag_us, steal_ns))
        });
        let mut latency_us = vec![f64::NAN; n];
        let (mut acked, mut refused) = (0usize, 0u64);
        let mut buf = Vec::new();
        let received = (|| {
            while acked < n {
                read_acks(&mut reader, &mut buf, |seq, code, arrival| {
                    let i = seq
                        .checked_sub(first_seq)
                        .map(|i| i as usize)
                        .filter(|&i| i < n && latency_us[i].is_nan())
                        .ok_or_else(|| io::Error::other(format!("unexpected ack seq {seq}")))?;
                    latency_us[i] = micros(arrival.saturating_duration_since(due(i)));
                    refused += u64::from(code != AckCode::Accepted);
                    acked += 1;
                    Ok(())
                })?;
            }
            Ok(())
        })();
        let (lag_us, steal_ns) = sender.join().expect("open-loop writer panicked")?;
        received.map(|()| OpenLoop {
            latency_us,
            lag_us,
            refused,
            steal_ns,
        })
    })
}

/// Sends every frame, keeping `WINDOW` of them in flight, and collects
/// every ack. Returns how many were not `Accepted` and, traced, each
/// frame's send → ack time in µs.
fn saturate(
    stream: &mut UnixStream,
    frames: &[Vec<u8>],
    first_seq: u64,
    traced: bool,
) -> io::Result<(u64, Vec<f64>)> {
    let (mut sent, mut acked, mut refused) = (0usize, 0usize, 0u64);
    let mut sent_at: Vec<Instant> = Vec::with_capacity(if traced { frames.len() } else { 0 });
    let mut rtt_us = Vec::with_capacity(sent_at.capacity());
    let (mut out, mut buf) = (Vec::new(), Vec::new());
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    while acked < frames.len() {
        let room = (WINDOW - (sent - acked)).min(frames.len() - sent);
        if room > 0 {
            out.clear();
            for frame in &frames[sent..sent + room] {
                out.extend_from_slice(frame);
            }
            stream.write_all(&out)?;
            if traced {
                sent_at.resize(sent + room, Instant::now());
            }
            sent += room;
        }
        read_acks(stream, &mut buf, |seq, code, arrival| {
            if seq != first_seq + acked as u64 {
                return Err(io::Error::other(format!("ack seq {seq} out of order")));
            }
            if traced {
                rtt_us.push(micros(arrival - sent_at[acked]));
            }
            refused += u64::from(code != AckCode::Accepted);
            acked += 1;
            Ok(())
        })?;
    }
    Ok((refused, rtt_us))
}

/// The packet stream one connection sends, framed a chunk at a time:
/// stream packets `start..next` so far, sequence numbers from 1.
struct Feed<'a> {
    edge: &'a Edge,
    keys: &'a Arc<KeyStore>,
    start: u64,
    next: u64,
}

impl<'a> Feed<'a> {
    fn new(edge: &'a Edge, keys: &'a Arc<KeyStore>, start: u64) -> Self {
        Feed {
            edge,
            keys,
            start,
            next: start,
        }
    }

    /// The next `count` frames and the sequence number of the first.
    fn chunk(&mut self, count: usize) -> (Vec<Vec<u8>>, u64) {
        let first_seq = self.next - self.start + 1;
        let frames = self
            .edge
            .packets(self.keys, self.next, count)
            .iter()
            .zip(first_seq..)
            .map(|(p, seq)| Envelope::ingest_seq(TENANT, SESSION, seq, &p.to_bytes()).encode())
            .collect();
        self.next += count as u64;
        (frames, first_seq)
    }

    /// The gateway's verdict must equal a sequential engine's over every
    /// packet framed, regenerated here rather than kept in memory.
    fn check(&self, evidence: &Evidence) -> Result<(), String> {
        let mut oracle = Sequential::new(self.keys);
        for first in (self.start..self.next).step_by(SAT_CHUNK) {
            let count = (self.next - first).min(SAT_CHUNK as u64) as usize;
            oracle.feed(&self.edge.packets(self.keys, first, count));
        }
        same_evidence(evidence, &oracle.evidence())
    }
}

/// One saturation chunk, run until every frame is acked `Accepted` and
/// every packet carries a verdict.
struct Chunk {
    /// Verdicts per second.
    pps: f64,
    /// Process CPU time the chunk took, and CPU time the hypervisor
    /// stole meanwhile.
    cpu_ns: u64,
    steal_ns: u64,
    /// Traced only: per frame, send → ack, in µs.
    rtt_us: Vec<f64>,
}

fn saturation_phase(
    server: &Server,
    stream: &mut UnixStream,
    (frames, first_seq): &(Vec<Vec<u8>>, u64),
    traced: bool,
) -> Result<Chunk, String> {
    let cpu0 = sys::process_cpu_ns().ok_or("no process CPU clock")?;
    let steal0 = sys::steal_ns().ok_or("no steal counter")?;
    let start = Instant::now();
    let (refused, rtt_us) =
        saturate(stream, frames, *first_seq, traced).map_err(|e| format!("saturation: {e}"))?;
    if refused > 0 {
        return Err(format!(
            "{refused} of {} frames were not accepted",
            frames.len()
        ));
    }
    wait_backlog(&server.registry);
    Ok(Chunk {
        pps: frames.len() as f64 / start.elapsed().as_secs_f64(),
        cpu_ns: sys::process_cpu_ns().ok_or("no process CPU clock")? - cpu0,
        steal_ns: sys::steal_ns().ok_or("no steal counter")? - steal0,
        rtt_us,
    })
}

/// Frames `SAT_CHUNKS` chunks up front, warms the CPUs, then runs the
/// chunks back to back (odd ones traced when `alternate_traced`).
fn saturation_chunks(
    server: &Server,
    stream: &mut UnixStream,
    feed: &mut Feed,
    alternate_traced: bool,
) -> Result<Vec<Chunk>, String> {
    let chunks: Vec<_> = (0..SAT_CHUNKS).map(|_| feed.chunk(SAT_CHUNK)).collect();
    sys::warm_cpus(WARM_UP);
    chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| saturation_phase(server, stream, chunk, alternate_traced && i % 2 == 1))
        .collect()
}

fn open_phase(stream: &UnixStream, feed: &mut Feed, count: usize) -> Result<OpenLoop, String> {
    let (frames, first_seq) = feed.chunk(count);
    let period = Duration::from_secs(1) / OPEN_RATE;
    let open =
        open_loop(stream, &frames, first_seq, period).map_err(|e| format!("open loop: {e}"))?;
    if open.refused > 0 {
        return Err(format!(
            "{} of {count} open-loop frames were not accepted",
            open.refused
        ));
    }
    Ok(open)
}

/// One set-up — key derivation and schedule, tenant pool and gateway
/// spawn, until a client is connected — in CPU seconds.
fn setup_once(edge: &Edge, sock: &Path) -> Result<f64, String> {
    let start = sys::process_cpu_ns().ok_or("no process CPU clock")?;
    let keys = edge.deployment.provision();
    let server = Server::start(&keys, sock)?;
    let stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
    let cpu_ns = sys::process_cpu_ns().ok_or("no process CPU clock")? - start;
    drop(stream);
    server.finish()?;
    Ok(cpu_ns as f64 / 1e9)
}

/// Per-window quantiles of the open loop, for the notes.
fn listed(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
    shown.join(" ")
}

pub fn run(args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let edge = Edge::new(args.seed);
    let keys = edge.deployment.provision();
    let sock = tmp.join("gw.sock");
    if args.trace {
        let server = Server::start(&keys, &sock)?;
        let stream = UnixStream::connect(&sock).map_err(|e| format!("connect: {e}"))?;
        return traced(args, &keys, tmp, server, stream, Feed::new(&edge, &keys, 0));
    }

    // Rounds, each on a fresh gateway: an open-loop segment, a saturation
    // group, the verdict check, then slices of recovery and set-up timing.
    let open_n = ((args.seconds * 0.45 / ROUNDS as f64) as usize).max(1) * OPEN_WINDOW;
    let log = tmp.join("evidence.pnme");
    // Per window or chunk: (value, CPU time stolen by the hypervisor).
    let (mut p50, mut p90, mut p99, mut pps) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut setup_s, mut recovery_s) = (Vec::new(), Vec::new());
    let mut next = 0;
    for _ in 0..ROUNDS {
        let mut feed = Feed::new(&edge, &keys, next);
        let server = Server::start(&keys, &sock)?;
        let mut stream = UnixStream::connect(&sock).map_err(|e| format!("connect: {e}"))?;
        let open = open_phase(&stream, &mut feed, open_n)?;
        let stolen = open.steal_ns.windows(2).map(|w| (w[1] - w[0]) as f64);
        let windows = |q| window_quantiles(&open.latency_us, OPEN_WINDOW, q);
        p50.extend(windows(0.50).into_iter().zip(stolen.clone()));
        p90.extend(windows(0.90).into_iter().zip(stolen.clone()));
        p99.extend(windows(0.99).into_iter().zip(stolen));
        let chunks = saturation_chunks(&server, &mut stream, &mut feed, false)?;
        pps.extend(chunks.iter().map(|c| (c.pps, c.steal_ns as f64)));
        drop(stream);
        let evidence = server.finish()?;
        write_snapshot_log(&log, &evidence)?;
        repeat_into(&mut recovery_s, SLICE_REPS, SLICE_TIME, || {
            recover(&keys, &log, &evidence)
        })?;
        repeat_into(&mut setup_s, SLICE_REPS, SLICE_TIME, || {
            setup_once(&edge, &tmp.join("setup.sock"))
        })?;
        feed.check(&evidence)?;
        next = feed.next;
    }

    let first = |v: &[(f64, f64)]| v.iter().map(|s| s.0).collect::<Vec<_>>();
    let notes = vec![
        format!("{ROUNDS} rounds on fresh gateways; open loop: {open_n} frames per round at {OPEN_RATE} pkt/s"),
        format!(
            "per {OPEN_WINDOW}-frame window, p90 (us): {}; p99 (us): {}",
            listed(&first(&p90)),
            listed(&first(&p99))
        ),
        format!(
            "saturation: {SAT_CHUNKS} chunks of {SAT_CHUNK} frames per round, window {WINDOW}; pkt/s per chunk: {}",
            listed(&first(&pps))
        ),
    ];
    let p50 = least_disturbed_median(&p50).expect("open loop ran");
    let pps = least_disturbed_median(&pps).expect("chunks ran");
    Ok(Outcome {
        attempted: next,
        failed: 0,
        metrics: vec![
            low_quantile("setup_s", &mut setup_s),
            Metric::sampled("ack_p50_us", "us", p50.value, p50.samples * OPEN_WINDOW),
            Metric::sampled("throughput_pps", "pkt/s", pps.value, pps.samples),
            low_quantile("recovery_s", &mut recovery_s),
            Metric::new(
                "peak_rss_mb",
                "MiB",
                sys::peak_rss_mib().unwrap_or(f64::NAN),
            ),
        ],
        notes,
    })
}

/// The traced run: an open-loop phase (ack tail, writer lag), then
/// alternating untraced and traced saturation chunks (process CPU per
/// packet, tracing overhead), then the layer probes.
fn traced(
    args: &Args,
    keys: &Arc<KeyStore>,
    tmp: &Path,
    server: Server,
    mut stream: UnixStream,
    mut feed: Feed,
) -> Result<Outcome, String> {
    let open_n = ((args.seconds * 0.3).clamp(1.0, 5.0) * f64::from(OPEN_RATE)) as usize;
    let mut open = open_phase(&stream, &mut feed, open_n)?;
    let chunks = saturation_chunks(&server, &mut stream, &mut feed, true)?;
    drop(stream);
    feed.check(&server.finish()?)?;

    let (mut plain_pps, mut traced_pps, mut rtt_us, mut cpu_ns) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for (i, chunk) in chunks.iter().enumerate() {
        if i % 2 == 1 {
            traced_pps.push(chunk.pps);
            rtt_us.extend_from_slice(&chunk.rtt_us);
        } else {
            cpu_ns += chunk.cpu_ns;
            plain_pps.push(chunk.pps);
        }
    }
    let plain_packets = plain_pps.len() * SAT_CHUNK;
    let plain = median(&mut plain_pps).expect("ran");
    let traced = median(&mut traced_pps).expect("ran");
    // Tails per window, then the median window.
    let windows = open.latency_us.len() / OPEN_WINDOW;
    let tail = |q| median(&mut window_quantiles(&open.latency_us, OPEN_WINDOW, q));
    let (p90, p99) = (tail(0.90), tail(0.99));
    let (p90, p99) = p90.zip(p99).ok_or("open loop too short")?;
    let lag_p99 = quantile(&mut open.lag_us, 0.99).expect("ran");
    let packets = feed.edge.packets(keys, feed.next, 4096);
    // The pool behind the gateway, driven in-process on the same stream.
    let batch = run_batch(keys, &packets, None, true)?;

    let layers = probes::measure(keys, &packets, tmp, &tmp.join("probe.pnme"))?;
    let gateway = probes::gateway(keys, &packets, tmp)?;
    let on_path = gateway.value("gateway.frame_decode_ns")
        + gateway.value("gateway.admit_ns")
        + gateway.value("gateway.ack_encode_ns")
        + layers.value("sink.ingest_ns")
        + layers.value("service.checkpoint_clone_ns");
    let mut metrics = vec![
        Metric::sampled("ack_p90_us", "us", p90, windows * OPEN_WINDOW),
        Metric::sampled("ack_p99_us", "us", p99, windows * OPEN_WINDOW),
        Metric::sampled(
            "service.enqueue_ns",
            "ns",
            mean(&batch.enqueue_ns).expect("ran"),
            batch.enqueue_ns.len(),
        ),
        Metric::new("service.drain_ms", "ms", batch.drain.as_secs_f64() * 1e3),
        Metric::new("service.shard_skew", "ratio", shard_skew(&batch.report)),
        Metric::sampled(
            "obs.trace_overhead_pct",
            "%",
            100.0 * (plain - traced) / plain,
            chunks.len(),
        ),
        Metric::sampled(
            "harness.send_lag_p99_us",
            "us",
            lag_p99.value,
            lag_p99.samples,
        ),
    ];
    metrics.extend(layers.metrics);
    metrics.extend(gateway.metrics);
    metrics.extend(probes::ledger(
        cpu_ns as f64 / plain_packets as f64,
        on_path,
    ));
    let rtt = quantile(&mut rtt_us, 0.5).expect("traced chunks ran");
    Ok(Outcome {
        attempted: feed.next,
        failed: 0,
        metrics,
        notes: vec![format!(
            "traced saturation: median send-to-ack {:.1} us over a {WINDOW}-frame window (n={})",
            rtt.value, rtt.samples
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnm_gateway::{SeqFrame, DEFAULT_MAX_PAYLOAD};

    /// A stand-in gateway that acks every sequenced frame, but stops
    /// reading for `stall` once it reaches frame `stall_at`.
    fn stub_server(mut conn: UnixStream, frames: usize, stall_at: usize, stall: Duration) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut served = 0;
        while served < frames {
            let n = conn.read(&mut chunk).expect("stub read");
            assert!(n > 0, "client hung up early");
            buf.extend_from_slice(&chunk[..n]);
            while let Some((env, used)) =
                Envelope::decode(&buf, DEFAULT_MAX_PAYLOAD).expect("frame")
            {
                buf.drain(..used);
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                let frame = SeqFrame::decode_payload(&env.tenant, &env.payload).expect("seq frame");
                let ack = IngestAck::new(AckCode::Accepted, frame.seq).encode();
                conn.write_all(&Response::new(Status::Ok, ack).encode())
                    .expect("stub write");
                served += 1;
            }
        }
    }

    #[test]
    fn open_loop_latency_includes_a_server_stall() {
        const FRAMES: usize = 200;
        let stall = Duration::from_millis(50);
        let (client, server) = UnixStream::pair().expect("socket pair");
        let stub = std::thread::spawn(move || stub_server(server, FRAMES, 100, stall));
        let frames: Vec<Vec<u8>> = (1..=FRAMES as u64)
            .map(|seq| Envelope::ingest_seq(b"stub", 7, seq, b"packet").encode())
            .collect();
        let result = open_loop(&client, &frames, 1, Duration::from_millis(1)).expect("open loop");
        stub.join().expect("stub server");

        assert_eq!(result.refused, 0);
        let lat = &result.latency_us;
        assert!(lat.iter().all(|l| l.is_finite()), "every frame was acked");
        // The frame that hit the stall waited the whole stall...
        let worst = lat.iter().copied().fold(0.0, f64::max);
        assert!(
            worst >= 50_000.0,
            "worst latency {worst} µs hides the 50 ms stall"
        );
        // ...and so did every frame that came due during it: timed from
        // their due times, ~50 frames must read at least 1 ms late, far
        // more than the single slow sample a closed loop would report.
        let delayed = lat[100..].iter().filter(|&&l| l >= 1_000.0).count();
        assert!(
            delayed >= 40,
            "only {delayed} frames show the stall: {:?}",
            &lat[95..160]
        );
        // The writer kept to its schedule while the server stalled.
        let lag_p99 = quantile(&mut result.lag_us.clone(), 0.99)
            .expect("lags")
            .value;
        assert!(
            lag_p99 < 20_000.0,
            "writer lagged {lag_p99} µs behind schedule"
        );
    }
}
