//! The result a run prints: human-readable metric lines, then one JSON
//! object on the last line of standard output.

use std::fmt::Write as _;

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a percentile or mean, printed beside the value.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: None,
        }
    }

    pub fn sampled(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            samples: Some(samples),
            ..Metric::new(name, unit, value)
        }
    }
}

/// What one workload run produced once every correctness gate passed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered in the measured phases.
    pub attempted: u64,
    /// Of those, operations that failed (refused, shed, errored, timed out).
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context printed above the metrics (not part of the result).
    pub notes: Vec<String>,
}

/// Metric names a result may carry: `[A-Za-z0-9_.-]`, leading alphanumeric, at most 64.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// Checks the outcome can be printed: names and units well formed and
/// unique, every value finite, at least one attempt.
pub fn validate(outcome: &Outcome) -> Result<(), String> {
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    for (i, m) in outcome.metrics.iter().enumerate() {
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!("malformed metric {:?} [{}]", m.name, m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if outcome.metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
    }
    Ok(())
}

/// One line per metric: `name  value unit  (n=samples)`.
pub fn human_lines(outcome: &Outcome) -> Vec<String> {
    outcome
        .metrics
        .iter()
        .map(|m| {
            let mut line = format!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(line, "  (n={n})");
            }
            line
        })
        .collect()
}

/// The final result line. Values print with every digit Rust's shortest
/// round-trip formatting gives (never exponent notation).
pub fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnm_obs::json::{parse, JsonValue};

    fn number(v: &JsonValue) -> f64 {
        match v {
            JsonValue::UInt(u) => *u as f64,
            JsonValue::Int(i) => *i as f64,
            JsonValue::Float { value, .. } => *value,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn sample() -> Outcome {
        Outcome {
            attempted: 12_345,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", "s", 0.000_812_734_5),
                Metric::sampled("ack_p99_us", "us", 1_234.567_891_234, 9000),
                Metric::new("throughput_pps", "1/s", 98_765.432_1),
                Metric::new("obs.trace_overhead_pct", "%", -0.25),
                Metric::new("store.records", "count", 20_000.0),
                Metric::new("sink.table_hit_rate", "ratio", 0.0),
            ],
            notes: Vec::new(),
        }
    }

    #[test]
    fn result_json_round_trips_exactly() {
        let outcome = sample();
        validate(&outcome).expect("sample is valid");
        let text = result_json(&outcome);
        assert!(!text.contains('\n'), "the result must be one line");
        let parsed = parse(&text).expect("result is valid JSON");
        let JsonValue::Object(top) = &parsed else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            parsed.get("attempted").and_then(JsonValue::as_u64),
            Some(12_345)
        );
        assert_eq!(parsed.get("failed").and_then(JsonValue::as_u64), Some(0));
        let Some(JsonValue::Object(metrics)) = parsed.get("metrics") else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), outcome.metrics.len());
        for ((name, value), want) in metrics.iter().zip(&outcome.metrics) {
            assert_eq!(name, want.name);
            assert_eq!(
                value.get("unit").and_then(JsonValue::as_str),
                Some(want.unit)
            );
            let got = number(value.get("value").expect("value key"));
            assert_eq!(got, want.value, "{name} must keep all its digits");
        }
    }

    #[test]
    fn every_declared_metric_name_is_well_formed() {
        let declared = crate::METRICS_E2E
            .iter()
            .chain(crate::METRICS_LAYER)
            .map(|(name, _)| *name);
        for name in declared {
            assert!(valid_name(name), "{name}");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name} must match [A-Za-z0-9_.-]+"
            );
        }
        for bad in ["", "has space", "ünï", ".lead", "x{y}"] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
    }

    #[test]
    fn validation_refuses_non_finite_and_duplicate_metrics() {
        let mut o = sample();
        o.metrics.push(Metric::new("nan_metric", "ms", f64::NAN));
        assert!(validate(&o).is_err());
        let mut o = sample();
        o.metrics.push(Metric::new("setup_s", "s", 1.0));
        assert!(validate(&o).is_err());
        let mut o = sample();
        o.attempted = 0;
        assert!(validate(&o).is_err());
    }
}
