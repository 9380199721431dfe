//! Per-stage latency accounting for the sink pipeline.
//!
//! [`StageMetrics`] holds one histogram per pipeline stage (classify →
//! verify → anon-resolve → reconstruct → localize): [`LatencyHistogram`]
//! values for reports and bench artifacts, or shared [`Histogram`] cells
//! ([`StageHistograms`]) for an engine to record into, which it does only
//! when [`SinkConfig::stage_timing`](crate::SinkConfig::stage_timing) is
//! on — an attached tracer does not turn it on. A service registers the
//! cells in its metrics registry and hands them to each engine it builds.

use pnm_obs::{Histogram, JsonValue, LatencyHistogram, Registry};

/// Stage names in pipeline order — the canonical key set every JSON
/// breakdown and metric label uses.
pub const STAGE_NAMES: [&str; 5] = ["classify", "verify", "resolve", "reconstruct", "localize"];

/// Per-stage latency histograms for one engine (nanosecond samples).
///
/// Nanosecond resolution is load-bearing: classify and localize complete
/// well under a microsecond, so µs-resolution laps recorded 0 for them at
/// every percentile. The JSON breakdown carries `_ns`-suffixed keys.
///
/// * `classify` — duplicate suppression plus the admission classifier.
/// * `verify` — backward MAC verification, *excluding* time spent
///   resolving anonymous IDs.
/// * `resolve` — anonymous-ID resolution: table lookups/builds (§4.2
///   brute force) or ring searches (§7 topology-guided).
/// * `reconstruct` — folding the verified chain into the route graph.
/// * `localize` — unequivocal-source tracking and quarantine maintenance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageMetrics<H = LatencyHistogram> {
    /// Dedup + classifier admission latency.
    pub classify: H,
    /// Mark verification latency (net of resolution).
    pub verify: H,
    /// Anonymous-ID resolution latency.
    pub resolve: H,
    /// Route-graph fold latency.
    pub reconstruct: H,
    /// Localization/quarantine maintenance latency.
    pub localize: H,
}

/// The five stage histograms as shared [`Histogram`] cells: what an
/// engine records into. [`StageHistograms::in_registry`] gets-or-creates
/// a registry's `pnm_sink_stage_ns{stage=...}` cells, so every call with
/// the same labels reaches the same five cells. Clones share the cells.
pub type StageHistograms = StageMetrics<Histogram>;

impl<H> StageMetrics<H> {
    /// Iterates `(stage name, histogram)` in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &H)> {
        STAGE_NAMES.into_iter().zip([
            &self.classify,
            &self.verify,
            &self.resolve,
            &self.reconstruct,
            &self.localize,
        ])
    }

    fn map<G>(&self, mut f: impl FnMut(&'static str, &H) -> G) -> StageMetrics<G> {
        StageMetrics {
            classify: f("classify", &self.classify),
            verify: f("verify", &self.verify),
            resolve: f("resolve", &self.resolve),
            reconstruct: f("reconstruct", &self.reconstruct),
            localize: f("localize", &self.localize),
        }
    }
}

impl StageMetrics {
    /// All-empty stage metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another engine's stage metrics into this one (histogram
    /// merge per stage).
    pub fn merge(&mut self, other: &StageMetrics) {
        self.classify.merge(&other.classify);
        self.verify.merge(&other.verify);
        self.resolve.merge(&other.resolve);
        self.reconstruct.merge(&other.reconstruct);
        self.localize.merge(&other.localize);
    }

    /// True when no stage has recorded a sample (timing was disabled).
    pub fn is_empty(&self) -> bool {
        self.iter().all(|(_, h)| h.count() == 0)
    }

    /// The per-stage breakdown as a JSON tree: stage name → histogram
    /// summary (nanosecond-suffixed keys), in pipeline order.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(
            self.iter()
                .map(|(name, h)| (name.to_string(), h.to_json_value_with_unit("ns")))
                .collect(),
        )
    }

    /// Renders [`StageMetrics::to_json_value`] compactly.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

impl StageHistograms {
    /// The registry's `pnm_sink_stage_ns` cells for `labels`, one per
    /// stage (`stage="classify"` … `stage="localize"`).
    pub fn in_registry(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        Self::default().map(|stage, _| {
            let mut labels = labels.to_vec();
            labels.push(("stage", stage));
            registry.histogram("pnm_sink_stage_ns", &labels)
        })
    }

    /// A copy of the cells' current contents.
    pub fn snapshot(&self) -> StageMetrics {
        self.map(|_, cell| cell.snapshot())
    }

    /// Folds `other` into the cells (histogram merge per stage).
    pub fn merge(&self, other: &StageMetrics) {
        for ((_, cell), (_, h)) in self.iter().zip(other.iter()) {
            cell.merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_matches_per_stage_merge() {
        let mut a = StageMetrics::new();
        a.classify.record(1);
        a.resolve.record(100);
        let mut b = StageMetrics::new();
        b.classify.record(3);
        b.localize.record(7);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.classify.count(), 2);
        assert_eq!(merged.resolve.count(), 1);
        assert_eq!(merged.localize.count(), 1);
        assert_eq!(merged.verify.count(), 0);
        assert!(!merged.is_empty());
        assert!(StageMetrics::new().is_empty());
    }

    #[test]
    fn json_breakdown_carries_every_stage_in_order() {
        let metrics = StageMetrics::new();
        let json = metrics.to_json();
        pnm_obs::json::validate(&json).unwrap();
        let mut last = 0;
        for name in STAGE_NAMES {
            let pos = json
                .find(&format!("\"{name}\""))
                .expect("stage key present");
            assert!(pos >= last, "stages out of pipeline order");
            last = pos;
        }
        // Stage samples are nanoseconds; the keys must say so.
        assert!(json.contains("\"mean_ns\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(!json.contains("_us\""), "stale microsecond key in {json}");
    }
}
