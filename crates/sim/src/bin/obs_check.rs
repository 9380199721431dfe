//! CI validator for observability artifacts.
//!
//! ```text
//! obs-check [--trace FILE]... [--flight FILE]...
//! ```
//!
//! For every `--trace` file (JSONL from a ring collector): each line must
//! parse as a JSON object with the event envelope (`event`, `kind`,
//! `span`, `at_us`), every `span_close` must carry a `dur_us` and match a
//! prior `span_open` on the same span id, and opens must balance closes
//! exactly at end of file. Trace identity is checked too: every traced
//! span naming a parent must have that parent opened **in the same
//! trace** somewhere in the file, and every traced instant's enclosing
//! span must belong to its trace — the causal-chain invariant behind
//! "one packet, one trace".
//!
//! For every `--flight` file (a flight-recorder black-box): the first
//! line must be the anomaly header (a JSON object with string `anomaly`
//! and integer `dump`), and every following line must be a valid event
//! envelope. No balance requirement — a black-box is a snapshot of a live
//! ring, so spans may be open mid-dump.
//!
//! Exits nonzero, naming the file and line, on the first violation.

use std::collections::HashMap;
use std::env;
use std::process::ExitCode;

use pnm_obs::JsonValue;

/// Validates one event line's envelope and returns its decoded identity.
fn check_event_line(v: &JsonValue, fail: &dyn Fn(&str) -> String) -> Result<Envelope, String> {
    if v.get("event").and_then(JsonValue::as_str).is_none() {
        return Err(fail("missing string field \"event\""));
    }
    if v.get("at_us").and_then(JsonValue::as_u64).is_none() {
        return Err(fail("missing integer field \"at_us\""));
    }
    let kind = match v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| fail("missing string field \"kind\""))?
    {
        "span_open" => Kind::Open,
        "span_close" => Kind::Close,
        "instant" => Kind::Instant,
        other => return Err(fail(&format!("unknown event kind {other:?}"))),
    };
    let span = v
        .get("span")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| fail("missing integer field \"span\""))?;
    if kind == Kind::Close && v.get("dur_us").and_then(JsonValue::as_u64).is_none() {
        return Err(fail("span_close without integer \"dur_us\""));
    }
    // Trace identity is optional (legacy events omit it) but must be
    // well-typed when present.
    let trace = match v.get("trace") {
        None => 0,
        Some(t) => t
            .as_u64()
            .ok_or_else(|| fail("field \"trace\" is not an integer"))?,
    };
    let parent = match v.get("parent") {
        None => 0,
        Some(p) => p
            .as_u64()
            .ok_or_else(|| fail("field \"parent\" is not an integer"))?,
    };
    Ok(Envelope {
        kind,
        span,
        trace,
        parent,
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    Close,
    Instant,
}

struct Envelope {
    kind: Kind,
    span: u64,
    trace: u64,
    parent: u64,
}

fn check_trace(path: &str) -> Result<(usize, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let mut open_spans: HashMap<u64, u64> = HashMap::new();
    // Every span ever opened in the file → its trace id (0 = untraced).
    let mut span_trace: HashMap<u64, u64> = HashMap::new();
    // Deferred parentage checks: (line, trace, parent span id). Checked
    // at EOF so concurrent shards' interleavings cannot false-positive.
    let mut need_parent: Vec<(usize, u64, u64)> = Vec::new();
    let mut events = 0usize;
    let mut spans = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |msg: &str| format!("{path}:{}: {msg}", lineno + 1);
        let v = pnm_obs::json::parse(line).map_err(|e| fail(&format!("bad JSON: {e}")))?;
        events += 1;
        let env = check_event_line(&v, &fail)?;
        match env.kind {
            Kind::Open => {
                spans += 1;
                *open_spans.entry(env.span).or_insert(0) += 1;
                span_trace.insert(env.span, env.trace);
                if env.trace != 0 && env.parent != 0 {
                    need_parent.push((lineno + 1, env.trace, env.parent));
                }
            }
            Kind::Close => {
                let depth = open_spans
                    .get_mut(&env.span)
                    .ok_or_else(|| fail(&format!("span_close for unopened span {}", env.span)))?;
                *depth -= 1;
                if *depth == 0 {
                    open_spans.remove(&env.span);
                }
            }
            Kind::Instant => {
                // A traced instant's `span` is the enclosing span; it
                // must belong to the same trace.
                if env.trace != 0 && env.span != 0 {
                    need_parent.push((lineno + 1, env.trace, env.span));
                }
            }
        }
    }
    if !open_spans.is_empty() {
        let mut ids: Vec<u64> = open_spans.keys().copied().collect();
        ids.sort_unstable();
        return Err(format!(
            "{path}: {} span(s) never closed: {ids:?}",
            ids.len()
        ));
    }
    for (line, trace, parent) in need_parent {
        match span_trace.get(&parent) {
            None => {
                return Err(format!(
                    "{path}:{line}: parent span {parent} of trace {trace:#x} never opened"
                ))
            }
            Some(&t) if t != trace => {
                return Err(format!(
                    "{path}:{line}: parent span {parent} belongs to trace {t:#x}, not {trace:#x}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok((events, spans))
}

fn check_flight(path: &str) -> Result<(usize, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (hline, header) = lines
        .next()
        .ok_or_else(|| format!("{path}: empty black-box"))?;
    let hline = hline + 1;
    let v = pnm_obs::json::parse(header).map_err(|e| format!("{path}:{hline}: bad JSON: {e}"))?;
    let anomaly = v
        .get("anomaly")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{path}:{hline}: header missing string field \"anomaly\""))?
        .to_string();
    if v.get("dump").and_then(JsonValue::as_u64).is_none() {
        return Err(format!(
            "{path}:{hline}: header missing integer field \"dump\""
        ));
    }
    let mut events = 0usize;
    for (lineno, line) in lines {
        let fail = |msg: &str| format!("{path}:{}: {msg}", lineno + 1);
        let v = pnm_obs::json::parse(line).map_err(|e| fail(&format!("bad JSON: {e}")))?;
        check_event_line(&v, &fail)?;
        events += 1;
    }
    Ok((events, anomaly))
}

fn main() -> ExitCode {
    let mut traces = Vec::new();
    let mut flights = Vec::new();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => match args.next() {
                Some(v) => traces.push(v),
                None => {
                    eprintln!("error: --trace needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--flight" => match args.next() {
                Some(v) => flights.push(v),
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
    if traces.is_empty() && flights.is_empty() {
        eprintln!("usage: obs-check [--trace FILE]... [--flight FILE]...");
        return ExitCode::FAILURE;
    }

    for path in &traces {
        match check_trace(path) {
            Ok((events, spans)) => {
                println!("{path}: ok ({events} events, {spans} spans, balanced)");
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for path in &flights {
        match check_flight(path) {
            Ok((events, anomaly)) => {
                println!("{path}: ok ({events} events, anomaly {anomaly:?})");
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
