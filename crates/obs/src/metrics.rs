//! Metrics: mergeable latency histograms and a labeled metric registry.
//!
//! [`LatencyHistogram`] moved here from `pnm-service` (still re-exported
//! there) so every crate can record stage latencies without depending on
//! the service layer. [`Registry`] is a process-local, thread-safe
//! registry of named counters and histograms with label support. Handles
//! returned by the registry are cheap `Arc` clones; the hot path touches
//! one atomic (counters) or one uncontended mutex (histograms).
//!
//! Exposition reads the cells and writes nothing back: [`Registry::series`]
//! takes a point-in-time read of every series, and two renderers turn any
//! list of series — from one registry or several — into Prometheus text
//! ([`prometheus_text`]) or a JSON object ([`series_json`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonValue;
use serde::{Deserialize, Serialize};

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds, except bucket 0 which also holds 0 µs.
/// 40 buckets cover up to ~2^40 µs ≈ 12.7 days, far past any real latency.
pub const BUCKETS: usize = 40;

/// A mergeable power-of-two latency histogram.
///
/// Samples are plain `u64` ticks — the histogram never converts units, so
/// a recorder picks one (the service layer records microseconds, the sink
/// stage metrics nanoseconds) and renders with the matching unit suffix
/// ([`LatencyHistogram::to_json_value_with_unit`]). The `_us` accessor
/// names are historical; they mean "in the recorder's unit".
///
/// Recording is a couple of integer ops; merging across shards is
/// element-wise addition; quantile queries return conservative
/// (upper-bound) estimates. All arithmetic saturates: a stream of extreme
/// samples (up to `u64::MAX`) degrades `sum_us`/`mean_us` gracefully
/// instead of wrapping (or panicking in debug builds).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(us: u64) -> usize {
        // floor(log2(us)) with 0 mapped to bucket 0, clamped to the top.
        (63 - (us | 1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, us: u64) {
        self.buckets[Self::bucket_of(us)] = self.buckets[Self::bucket_of(us)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds another histogram into this one (element-wise sum).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples in microseconds (saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest recorded sample.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Per-bucket sample counts; bucket `i` covers `[2^i, 2^(i+1))` µs
    /// (bucket 0 also holds 0 µs, the top bucket is open-ended).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Inclusive upper edge of bucket `i` in µs (`u64::MAX` for the
    /// open-ended top bucket).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i + 1 >= BUCKETS {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Conservative (upper-bound) estimate of the `q`-quantile, `q` in
    /// `[0, 1]`. Returns the inclusive upper edge of the bucket holding the
    /// quantile sample, capped at the true maximum; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                // The top bucket is open-ended; its only honest upper
                // bound is the recorded maximum.
                return Self::bucket_upper_bound(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// The histogram's summary as a JSON tree — count, then mean,
    /// p50/p90/p99, max and sum with `unit` as their key suffix (`mean_ns`,
    /// `p50_ns`, … for `unit = "ns"`). The histogram stores whatever the
    /// recorder fed it; the suffix documents that choice — no conversion
    /// happens here.
    pub fn to_json_value_with_unit(&self, unit: &str) -> JsonValue {
        JsonValue::Object(vec![
            ("count".to_string(), JsonValue::UInt(self.count)),
            (format!("mean_{unit}"), JsonValue::f1(self.mean_us())),
            (
                format!("p50_{unit}"),
                JsonValue::UInt(self.quantile_us(0.50)),
            ),
            (
                format!("p90_{unit}"),
                JsonValue::UInt(self.quantile_us(0.90)),
            ),
            (
                format!("p99_{unit}"),
                JsonValue::UInt(self.quantile_us(0.99)),
            ),
            (format!("max_{unit}"), JsonValue::UInt(self.max_us)),
            (format!("sum_{unit}"), JsonValue::UInt(self.sum_us)),
        ])
    }
}

/// Sorted `label="value"` pairs identifying one time series of a metric.
type LabelSet = Vec<(String, String)>;

#[derive(Clone)]
enum Slot {
    Counter(Counter),
    Histogram(Histogram),
}

/// A monotonically increasing counter handle. Clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A reader whose [`Counter::get`] sees this addition also
    /// sees every write the adding thread made before it.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A histogram handle backed by a [`LatencyHistogram`]. Clones share the
/// same cell.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<LatencyHistogram>>);

impl Histogram {
    /// A cell of its own, in no registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample, in the unit the series name ends with.
    pub fn record(&self, us: u64) {
        self.0.lock().expect("histogram lock poisoned").record(us);
    }

    /// Folds `other` into this histogram.
    pub fn merge(&self, other: &LatencyHistogram) {
        self.0.lock().expect("histogram lock poisoned").merge(other);
    }

    /// A copy of the current contents.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().expect("histogram lock poisoned").clone()
    }
}

/// A thread-safe registry of named metrics with label support.
///
/// `Registry` is `Clone` (a shallow handle); all clones observe the same
/// metrics. Lookup (`counter`/`histogram`) is get-or-create and
/// takes a short global lock — call it once at setup and keep the returned
/// handle for the hot path. Registering the same name/labels with a
/// different metric type panics: that is a programming error, and silently
/// forking the series would corrupt the exposition.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<(String, LabelSet), Slot>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, name: &str, labels: &[(&str, &str)], make: fn() -> Slot) -> Slot {
        let mut labels: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        metrics
            .entry((name.to_string(), labels))
            .or_insert_with(make)
            .clone()
    }

    /// Get-or-create a counter for `name` + `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.slot(name, labels, || Slot::Counter(Counter::default())) {
            Slot::Counter(c) => c,
            Slot::Histogram(_) => panic!("metric {name:?} already registered as a histogram"),
        }
    }

    /// Get-or-create a histogram for `name` + `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.slot(name, labels, || Slot::Histogram(Histogram::new())) {
            Slot::Histogram(h) => h,
            Slot::Counter(_) => panic!("metric {name:?} already registered as a counter"),
        }
    }

    /// A point-in-time read of every series, with `extra` label pairs
    /// merged into each label set — how a multi-tenant front-end exposes
    /// one registry per tenant in a single namespace (`tenant="..."` on
    /// every series). Reading writes nothing into the registry.
    pub fn series(&self, extra: &[(&str, &str)]) -> Vec<Series> {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        metrics
            .iter()
            .map(|((name, labels), slot)| {
                let mut labels = labels.clone();
                labels.extend(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())));
                labels.sort();
                let value = match slot {
                    Slot::Counter(c) => SeriesValue::Counter(c.get()),
                    Slot::Histogram(h) => SeriesValue::Histogram(Box::new(h.snapshot())),
                };
                Series {
                    name: name.clone(),
                    labels,
                    value,
                }
            })
            .collect()
    }

    /// Renders every metric in Prometheus text exposition format
    /// ([`prometheus_text`] over [`Registry::series`]).
    pub fn prometheus_text(&self) -> String {
        self.prometheus_text_with(&[])
    }

    /// [`Registry::prometheus_text`] with `extra` label pairs merged into
    /// every series (see [`Registry::series`]).
    pub fn prometheus_text_with(&self, extra: &[(&str, &str)]) -> String {
        prometheus_text(self.series(extra))
    }

    /// The registry as a JSON tree ([`series_json`] over
    /// [`Registry::series`]).
    pub fn to_json_value(&self) -> JsonValue {
        series_json(self.series(&[]))
    }
}

/// A point-in-time read of one series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Series {
    /// The metric family name.
    pub name: String,
    /// Sorted `label="value"` pairs.
    pub labels: Vec<(String, String)>,
    /// The value at read time.
    pub value: SeriesValue,
}

impl Series {
    /// The series' exposition key: `name{label="v",...}`, exactly as its
    /// Prometheus sample line starts.
    pub fn key(&self) -> String {
        format!("{}{}", self.name, label_text(&self.labels, None))
    }

    /// The unit a histogram's samples are in: the name's last
    /// `_`-separated word (`pnm_sink_stage_ns` → `ns`).
    pub fn unit(&self) -> &str {
        self.name.rsplit('_').next().unwrap_or_default()
    }
}

/// What a [`Series`] read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeriesValue {
    /// A counter's count.
    Counter(u64),
    /// A copy of a histogram.
    Histogram(Box<LatencyHistogram>),
}

/// Renders series — from one registry or several — as one Prometheus text
/// exposition.
///
/// Series are grouped by family: sorted by name then label set, with one
/// `# TYPE` line per family, so a family split across registries (every
/// tenant's `pnm_service_accepted_total`, say) still renders as one
/// contiguous block. The output is deterministic. Histograms render as
/// cumulative `_bucket{le="..."}` series (upper edges are the histogram's
/// power-of-two bucket bounds, plus `+Inf`), with `_sum` and `_count` in
/// the unit the family name ends with.
pub fn prometheus_text(mut series: Vec<Series>) -> String {
    series.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    let mut out = String::new();
    let mut last_name = "";
    for s in &series {
        let name = s.name.as_str();
        let labels = &s.labels;
        match &s.value {
            SeriesValue::Counter(v) => {
                if name != last_name {
                    let _ = writeln!(out, "# TYPE {name} counter");
                }
                let _ = writeln!(out, "{name}{} {v}", label_text(labels, None));
            }
            SeriesValue::Histogram(h) => {
                if name != last_name {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                }
                let mut cumulative = 0u64;
                for (i, &b) in h.buckets().iter().enumerate() {
                    cumulative = cumulative.saturating_add(b);
                    let le = if i + 1 >= BUCKETS {
                        "+Inf".to_string()
                    } else {
                        LatencyHistogram::bucket_upper_bound(i).to_string()
                    };
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cumulative}",
                        label_text(labels, Some(&le)),
                    );
                }
                let _ = writeln!(out, "{name}_sum{} {}", label_text(labels, None), h.sum_us());
                let _ = writeln!(
                    out,
                    "{name}_count{} {}",
                    label_text(labels, None),
                    h.count()
                );
            }
        }
        last_name = name;
    }
    out
}

/// Renders series as one JSON object keyed by [`Series::key`], sorted as
/// [`prometheus_text`] sorts them. Counters are numbers; histograms are
/// summary objects whose keys carry the family's unit ([`Series::unit`]:
/// `p99_ns` for `pnm_sink_stage_ns`, `p99_us` for `pnm_service_total_us`).
pub fn series_json(mut series: Vec<Series>) -> JsonValue {
    series.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    JsonValue::Object(
        series
            .iter()
            .map(|s| {
                let value = match &s.value {
                    SeriesValue::Counter(v) => JsonValue::UInt(*v),
                    SeriesValue::Histogram(h) => h.to_json_value_with_unit(s.unit()),
                };
                (s.key(), value)
            })
            .collect(),
    )
}

fn label_text(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    // Prometheus text exposition escapes: backslash first, then the
    // quote, then newline as the two-character sequence `\n`.
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}=\"{}\"",
                v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_saturate_at_u64_max() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_us(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.max_us(), u64::MAX);

        let mut other = LatencyHistogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        // Mean stays finite and within range.
        assert!(h.mean_us() <= u64::MAX as f64);
    }

    #[test]
    fn counters_share_cells_across_clones() {
        let reg = Registry::new();
        let c = reg.counter("pnm_packets_total", &[("shard", "0")]);
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("pnm_packets_total", &[("shard", "0")]).get(), 5);
        // Label order does not fork the series.
        let c2 = reg.counter("pnm_x", &[("a", "1"), ("b", "2")]);
        c2.inc();
        assert_eq!(reg.counter("pnm_x", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("pnm_thing", &[]);
        reg.histogram("pnm_thing", &[]);
    }

    #[test]
    fn prometheus_text_is_deterministic_and_complete() {
        let reg = Registry::new();
        reg.counter("pnm_packets_total", &[("shard", "1")]).add(3);
        reg.counter("pnm_packets_total", &[("shard", "0")]).add(2);
        let h = reg.histogram("pnm_stage_us", &[("stage", "verify")]);
        h.record(3);
        h.record(700);

        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE pnm_packets_total counter"));
        assert!(text.contains("pnm_packets_total{shard=\"0\"} 2"));
        assert!(text.contains("pnm_packets_total{shard=\"1\"} 3"));
        assert!(text.contains("# TYPE pnm_stage_us histogram"));
        assert!(text.contains("pnm_stage_us_bucket{stage=\"verify\",le=\"3\"} 1"));
        assert!(text.contains("pnm_stage_us_bucket{stage=\"verify\",le=\"+Inf\"} 2"));
        assert!(text.contains("pnm_stage_us_sum{stage=\"verify\"} 703"));
        assert!(text.contains("pnm_stage_us_count{stage=\"verify\"} 2"));
        // Deterministic: two renders are identical.
        assert_eq!(text, reg.prometheus_text());
        // Sorted: shard 0 before shard 1.
        let i0 = text.find("shard=\"0\"").unwrap();
        let i1 = text.find("shard=\"1\"").unwrap();
        assert!(i0 < i1);
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        let reg = Registry::new();
        reg.counter("pnm_weird", &[("path", "a\\b\"c\nd")]).add(1);
        let text = reg.prometheus_text();
        // The exposition format wants the literal two-character
        // sequences \\, \", and \n inside the quoted value — never a
        // raw newline, which would tear the series line in half.
        assert!(
            text.contains("pnm_weird{path=\"a\\\\b\\\"c\\nd\"} 1"),
            "escaping wrong in {text:?}"
        );
        assert!(!text.contains("c\nd"), "raw newline leaked into {text:?}");
    }

    #[test]
    fn extra_labels_merge_and_sort_into_every_series() {
        let reg = Registry::new();
        reg.counter("pnm_packets_total", &[("shard", "0")]).add(2);
        reg.histogram("pnm_stage_us", &[("stage", "verify")])
            .record(5);

        let text = reg.prometheus_text_with(&[("tenant", "alpha")]);
        // Injected pairs sort together with the series' own labels.
        assert!(text.contains("pnm_packets_total{shard=\"0\",tenant=\"alpha\"} 2"));
        // 5 µs lands in the (3, 7] power-of-two bucket.
        assert!(text.contains("pnm_stage_us_bucket{stage=\"verify\",tenant=\"alpha\",le=\"7\"} 1"));
        assert!(text.contains("pnm_stage_us_count{stage=\"verify\",tenant=\"alpha\"} 1"));
        // Empty extra labels reproduce the plain rendering exactly.
        assert_eq!(reg.prometheus_text_with(&[]), reg.prometheus_text());
    }

    #[test]
    fn registry_json_parses_and_carries_series() {
        let reg = Registry::new();
        reg.counter("pnm_a", &[]).add(9);
        reg.histogram("pnm_h", &[]).record(5);
        reg.histogram("pnm_stage_ns", &[("stage", "verify")])
            .record(700);
        reg.histogram("pnm_total_us", &[]).record(3);
        let parsed = crate::json::parse(&reg.to_json_value().render()).unwrap();
        assert_eq!(parsed.get("pnm_a").and_then(|v| v.as_u64()), Some(9));
        assert_eq!(
            parsed
                .get("pnm_h")
                .and_then(|v| v.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        // A histogram's summary keys carry the unit its name ends with.
        let stage = parsed.get("pnm_stage_ns{stage=\"verify\"}").unwrap();
        assert_eq!(stage.get("p99_ns").and_then(|v| v.as_u64()), Some(700));
        assert_eq!(stage.get("sum_ns").and_then(|v| v.as_u64()), Some(700));
        assert!(stage.get("p99_us").is_none(), "ns samples read as µs");
        let total = parsed.get("pnm_total_us").unwrap();
        assert_eq!(total.get("max_us").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn histogram_json_matches_house_format() {
        let mut h = LatencyHistogram::new();
        for us in [0, 1, 2, 3, 5, 9, 17, 100, 1000] {
            h.record(us);
        }
        let json = h.to_json_value_with_unit("us").render();
        assert!(json.starts_with("{\"count\": 9, \"mean_us\": "));
        assert!(json.contains("\"p50_us\": "));
        assert!(json.contains("\"max_us\": 1000"));
        crate::json::validate(&json).unwrap();
    }
}
