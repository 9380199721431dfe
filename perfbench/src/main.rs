//! The PNM sink benchmark.
//!
//! ```text
//! perfbench --workload <edge_acked|sink_fresh|durable_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only through its public API, at its defaults, and
//! checks every verdict before printing a number. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1`, the per-layer ledger.
//! The last line of standard output is the result as one JSON object.
//!
//! - `edge_acked`: pipelined, acked `IngestSeq` frames to a default
//!   `pnm-gateway` over a Unix-domain socket — an open-loop phase at a
//!   fixed rate, then a fixed-window saturation phase. Per-packet sink
//!   work is tiny, so framing, admission and the readiness loop dominate.
//! - `sink_fresh`: a default in-process `ServicePool` over a 400-node
//!   field, a distinct bogus report per packet from a source mole and a
//!   tampering forwarding mole. Every packet misses the table cache, so
//!   anonymous-ID resolution and crypto dominate.
//! - `durable_hot`: a default `ServicePool` with a `LogStore` at the
//!   default checkpoint cadence, 8 reports re-delivered many times, then
//!   a rebuild from the log. Verify, checkpointing and replay dominate.
//!
//! Temporary files (the gateway socket, evidence logs) live under
//! `.bench_tmp/` in the working directory and are removed on exit.

mod edge;
mod inproc;
mod probes;
mod report;
mod scenario;
mod stats;
mod sys;
mod verdict;

use std::path::PathBuf;
use std::process::ExitCode;

use pnm_crypto::Sha256xN;
use pnm_obs::JsonValue;

/// Set-ups and recoveries are timed in slices between the workload's
/// batches or rounds, each slice at least `SLICE_REPS` repetitions and
/// `SLICE_TIME` long; `setup_s` and `recovery_s` are medians over all.
pub const SLICE_REPS: usize = 3;
pub const SLICE_TIME: std::time::Duration = std::time::Duration::from_millis(60);
/// Busy time on every CPU before each timed phase (see `sys::warm_cpus`).
pub const WARM_UP: std::time::Duration = std::time::Duration::from_secs(1);

pub const WORKLOADS: [&str; 3] = ["edge_acked", "sink_fresh", "durable_hot"];

/// Every end-to-end metric, printed by every `--trace 0` run.
pub const METRICS_E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ack_p50_us", "us"),
    ("throughput_pps", "pkt/s"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, printed by every `--trace 1` run.
pub const METRICS_LAYER: &[(&str, &str)] = &[
    ("ack_p90_us", "us"),
    ("ack_p99_us", "us"),
    ("gateway.frame_decode_ns", "ns"),
    ("gateway.admit_ns", "ns"),
    ("gateway.ack_encode_ns", "ns"),
    ("gateway.loop_wait_us", "us"),
    ("gateway.wire_bytes_per_pkt", "B"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("service.enqueue_ns", "ns"),
    ("service.drain_ms", "ms"),
    ("service.checkpoint_clone_ns", "ns"),
    ("service.shard_skew", "ratio"),
    ("sink.ingest_ns", "ns"),
    ("sink.resolve_ns", "ns"),
    ("sink.verify_ns", "ns"),
    ("sink.reconstruct_ns", "ns"),
    ("sink.localize_ns", "ns"),
    ("sink.table_hit_rate", "ratio"),
    ("sink.hash_per_pkt", "count"),
    ("sink.marks_per_pkt", "count"),
    ("crypto.mac_ns", "ns"),
    ("crypto.anon_id_ns", "ns"),
    ("store.append_ns", "ns"),
    ("store.bytes_per_pkt", "B"),
    ("store.replay_ms", "ms"),
    ("store.records", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("harness.send_lag_p99_us", "us"),
    ("ledger.e2e_cpu_ns_per_pkt", "ns"),
    ("ledger.layers_ns_per_pkt", "ns"),
    ("ledger.residual_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of edge_acked, sink_fresh, durable_hot")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(bad("between 1 and 60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The run's provenance, so results compare across hosts and commits.
fn metadata(args: &Args) -> String {
    JsonValue::obj(vec![
        ("workload", JsonValue::Str(args.workload.clone())),
        ("seed", JsonValue::UInt(args.seed)),
        ("seconds", JsonValue::f1(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("nproc", JsonValue::UInt(sys::nproc() as u64)),
        ("cpu", JsonValue::Str(sys::cpu_model())),
        (
            "lane_backend",
            JsonValue::Str(Sha256xN::backend().name().into()),
        ),
        ("git_rev", JsonValue::Str(sys::git_rev())),
    ])
    .render()
}

/// The outcome carries exactly the declared metrics for its mode.
fn check_complete(outcome: &report::Outcome, trace: bool) -> Result<(), String> {
    report::validate(outcome)?;
    let declared = if trace { METRICS_LAYER } else { METRICS_E2E };
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    for want in declared {
        if !got.contains(want) {
            return Err(format!("metric {} [{}] missing", want.0, want.1));
        }
    }
    if got.len() != declared.len() {
        return Err(format!(
            "{} metrics reported, {} declared",
            got.len(),
            declared.len()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("meta {}", metadata(&args));
    let root = PathBuf::from(".bench_tmp");
    let tmp = root.join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "edge_acked" => edge::run(&args, &tmp),
        _ => inproc::run(&args, &tmp),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(&root);
    let outcome = match result.and_then(|o| check_complete(&o, args.trace).map(|()| o)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("FAIL {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in outcome.notes.iter().chain(&report::human_lines(&outcome)) {
        println!("{line}");
    }
    println!("{}", report::result_json(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "sink_fresh",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sink_fresh", 7, 12.0, true)
        );
    }

    #[test]
    fn refuses_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "edge_acked"],
            &["--workload", "edge_acked", "--seed", "x"],
            &["--workload", "edge_acked", "--seed", "1", "--trace", "2"],
            &["--workload", "edge_acked", "--seed", "1", "--seconds", "0"],
            &["--workload", "edge_acked", "--seed", "1", "--bogus", "1"],
            &["--seed"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// The metrics this program prints are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = pnm_obs::json::parse(&text).expect("valid JSON");
        for (key, ours) in [("end_to_end", METRICS_E2E), ("per_layer", METRICS_LAYER)] {
            let Some(JsonValue::Array(list)) = json.get(key) else {
                panic!("{key} missing");
            };
            let declared: Vec<(&str, &str)> = list
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(JsonValue::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let Some(JsonValue::Array(workloads)) = json.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn declared_metrics_are_unique() {
        for list in [METRICS_E2E, METRICS_LAYER] {
            for (i, (name, _)) in list.iter().enumerate() {
                assert!(!list[..i].iter().any(|(n, _)| n == name), "{name} twice");
            }
        }
    }
}
