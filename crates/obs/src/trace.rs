//! Span/event tracing: trace/span identity with parentage, monotonic
//! timing, structured fields, pluggable collectors, JSONL export.
//!
//! Causality is explicit: a [`TraceContext`] (64-bit trace id + parent
//! span id) travels with the work — across threads, shard queues, and
//! the gateway wire — and [`Tracer::span_in`] opens child spans inside
//! it, so one packet's journey renders as one correlated trace no matter
//! how many hand-offs it crossed. [`Tracer::span_root`] mints a fresh
//! trace at an ingress point; [`Span::context`] yields the context to
//! hand to children.
//!
//! The design center is zero cost when disabled: a [`Tracer::noop`]
//! tracer holds no allocation and no collector, [`Tracer::span`] returns
//! an inert guard without reading the clock, and
//! [`Tracer::event_with`] never runs its field-building closure. The
//! `bench_obs` bin in `pnm-sim` pins this with an end-to-end overhead
//! assertion. When enabled, a [`Span`] guard records a `span_open` event
//! at creation and a `span_close` event (with duration and any attached
//! fields) on drop; instant events carry fields directly. Events flow
//! into a pluggable [`Collector`] — typically the bounded
//! [`ShardedRingCollector`], which keeps the newest events and exports
//! JSONL.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::flight::ShardedRingCollector;
use crate::json::JsonValue;

/// A structured field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with 3 decimal places in JSONL).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<u16> for FieldValue {
    fn from(v: u16) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    /// The field as a JSON value (the exact form events render with).
    pub fn to_json_value(&self) -> JsonValue {
        match self {
            FieldValue::U64(v) => JsonValue::UInt(*v),
            FieldValue::I64(v) => JsonValue::Int(*v),
            FieldValue::F64(v) => JsonValue::Float {
                value: *v,
                precision: 3,
            },
            FieldValue::Bool(v) => JsonValue::Bool(*v),
            FieldValue::Str(v) => JsonValue::Str(v.clone()),
        }
    }
}

/// Causal identity carried across threads, queues, and the wire.
///
/// `trace` names the whole journey (one ingested packet = one trace);
/// `parent` is the span id of the enclosing span on the sending side.
/// The all-zero context ([`TraceContext::NONE`]) means "untraced" and
/// makes [`Tracer::span_in`] behave exactly like [`Tracer::span`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// 64-bit trace id; 0 means no trace.
    pub trace: u64,
    /// Span id of the parent span within `trace`; 0 means root.
    pub parent: u64,
}

impl TraceContext {
    /// The untraced context: both ids zero.
    pub const NONE: TraceContext = TraceContext {
        trace: 0,
        parent: 0,
    };

    /// Wire width of [`TraceContext::to_bytes`].
    pub const WIRE_LEN: usize = 16;

    /// A context rooted at `trace` with no parent span.
    pub fn root(trace: u64) -> Self {
        TraceContext { trace, parent: 0 }
    }

    /// True when this context actually names a trace.
    pub fn is_traced(&self) -> bool {
        self.trace != 0
    }

    /// Big-endian `trace || parent` — the envelope wire form.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.trace.to_be_bytes());
        out[8..].copy_from_slice(&self.parent.to_be_bytes());
        out
    }

    /// Decodes [`TraceContext::to_bytes`].
    pub fn from_bytes(bytes: &[u8; Self::WIRE_LEN]) -> Self {
        let mut trace = [0u8; 8];
        let mut parent = [0u8; 8];
        trace.copy_from_slice(&bytes[..8]);
        parent.copy_from_slice(&bytes[8..]);
        TraceContext {
            trace: u64::from_be_bytes(trace),
            parent: u64::from_be_bytes(parent),
        }
    }
}

/// What an [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span started. `span` identifies it; the matching close carries
    /// the duration.
    SpanOpen,
    /// A span ended; `dur_us` holds the measured duration and `fields`
    /// anything attached to the guard.
    SpanClose,
    /// A point event with no duration.
    Instant,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Instant => "instant",
        }
    }
}

/// One trace record delivered to a [`Collector`].
#[derive(Clone, Debug)]
pub struct Event {
    /// Static event/span name (e.g. `"sink.verify"`).
    pub name: &'static str,
    /// Open / close / instant.
    pub kind: EventKind,
    /// Span id (0 for instant events emitted outside a span).
    pub span: u64,
    /// Trace id this event belongs to (0 = untraced legacy event).
    pub trace: u64,
    /// Span id of the parent span (0 = root span / unparented instant).
    pub parent: u64,
    /// Microseconds since the tracer's epoch.
    pub at_us: u64,
    /// Measured duration; present on `span_close` only.
    pub dur_us: Option<u64>,
    /// Structured key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// The event as one JSONL-ready JSON tree.
    pub fn to_json_value(&self) -> JsonValue {
        let mut entries: Vec<(String, JsonValue)> = vec![
            ("event".to_string(), JsonValue::Str(self.name.to_string())),
            (
                "kind".to_string(),
                JsonValue::Str(self.kind.as_str().to_string()),
            ),
            ("span".to_string(), JsonValue::UInt(self.span)),
            ("at_us".to_string(), JsonValue::UInt(self.at_us)),
        ];
        if self.trace != 0 {
            entries.push(("trace".to_string(), JsonValue::UInt(self.trace)));
        }
        if self.parent != 0 {
            entries.push(("parent".to_string(), JsonValue::UInt(self.parent)));
        }
        if let Some(dur) = self.dur_us {
            entries.push(("dur_us".to_string(), JsonValue::UInt(dur)));
        }
        if !self.fields.is_empty() {
            entries.push((
                "fields".to_string(),
                JsonValue::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json_value()))
                        .collect(),
                ),
            ));
        }
        JsonValue::Object(entries)
    }
}

/// Receives events from a [`Tracer`]. Implementations must be cheap and
/// non-blocking: collectors run inline on the instrumented path.
pub trait Collector: Send + Sync {
    /// Accepts one event.
    fn record(&self, event: Event);
}

/// A collector that discards everything. Useful to measure the cost of
/// event *construction* separately from event *storage* (see `bench_obs`);
/// for a tracer that skips construction entirely, use [`Tracer::noop`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn record(&self, _event: Event) {}
}

struct TracerInner {
    collector: Arc<dyn Collector>,
    epoch: Instant,
    next_span: AtomicU64,
    next_trace: AtomicU64,
}

/// Entry point for emitting spans and events.
///
/// A tracer is a cheap cloneable handle. [`Tracer::noop`] (the `Default`)
/// is completely inert: no allocation, no clock reads, no collector —
/// instrumented code pays only an `Option` check. [`Tracer::new`] wires a
/// [`Collector`] and starts the microsecond epoch.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer feeding `collector`.
    pub fn new(collector: Arc<dyn Collector>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                collector,
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                next_trace: AtomicU64::new(1),
            })),
        }
    }

    /// A tracer feeding a fresh one-shard [`ShardedRingCollector`] of
    /// `capacity` events; returns the collector too so the caller can
    /// export it later.
    pub fn ring(capacity: usize) -> (Self, Arc<ShardedRingCollector>) {
        let ring = Arc::new(ShardedRingCollector::new(1, capacity));
        (Tracer::new(ring.clone()), ring)
    }

    /// The inert tracer: every operation is a no-op.
    pub fn noop() -> Self {
        Tracer { inner: None }
    }

    /// True when spans/events are actually recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span with no trace identity (legacy behavior; events
    /// carry `trace: 0`). The guard records `span_open` now and
    /// `span_close` (with duration and attached fields) when dropped.
    /// Inert guards cost nothing.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_in(name, TraceContext::NONE)
    }

    /// Opens a span that begins a **new trace**: a fresh trace id is
    /// allocated and the span becomes its root. Use this at ingress
    /// points (a client send, a request arrival) and hand
    /// [`Span::context`] to downstream work.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span_root(&self, name: &'static str) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(inner) => {
                let trace = mix64(inner.next_trace.fetch_add(1, Ordering::Relaxed));
                self.span_in(name, TraceContext::root(trace))
            }
        }
    }

    /// Opens a span inside `ctx`: the span joins `ctx.trace` with
    /// `ctx.parent` as its parent span. With [`TraceContext::NONE`] this
    /// is exactly [`Tracer::span`]. Inert guards cost nothing.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span_in(&self, name: &'static str, ctx: TraceContext) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                inner.collector.record(Event {
                    name,
                    kind: EventKind::SpanOpen,
                    span: id,
                    trace: ctx.trace,
                    parent: ctx.parent,
                    at_us: micros(start.duration_since(inner.epoch)),
                    dur_us: None,
                    fields: Vec::new(),
                });
                Span {
                    active: Some(ActiveSpan {
                        inner: inner.clone(),
                        name,
                        id,
                        trace: ctx.trace,
                        parent: ctx.parent,
                        start,
                        fields: Vec::new(),
                    }),
                }
            }
        }
    }

    /// Opens a span inside `ctx` **only when `ctx` names a trace**; with
    /// [`TraceContext::NONE`] the guard is inert even on an enabled
    /// tracer. This is the detail tier for hot paths: always-on
    /// instrumentation keeps packet-level spans, while per-stage spans
    /// open only where a carried trace makes them correlatable —
    /// untraced traffic never pays for orphan detail events.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span_traced(&self, name: &'static str, ctx: TraceContext) -> Span {
        if ctx.is_traced() {
            self.span_in(name, ctx)
        } else {
            Span { active: None }
        }
    }

    /// Emits an instant event with no fields.
    pub fn event(&self, name: &'static str) {
        self.event_with(name, |_| {});
    }

    /// Emits an instant event, running `fill` to attach fields only when
    /// the tracer is enabled (so field construction is free when
    /// disabled).
    pub fn event_with(
        &self,
        name: &'static str,
        fill: impl FnOnce(&mut Vec<(&'static str, FieldValue)>),
    ) {
        self.event_in(name, TraceContext::NONE, fill);
    }

    /// Emits an instant event inside `ctx` (associated with `ctx.parent`
    /// and tagged with `ctx.trace`), running `fill` only when enabled.
    pub fn event_in(
        &self,
        name: &'static str,
        ctx: TraceContext,
        fill: impl FnOnce(&mut Vec<(&'static str, FieldValue)>),
    ) {
        if let Some(inner) = &self.inner {
            let mut fields = Vec::new();
            fill(&mut fields);
            inner.collector.record(Event {
                name,
                kind: EventKind::Instant,
                span: ctx.parent,
                trace: ctx.trace,
                parent: 0,
                at_us: micros(inner.epoch.elapsed()),
                dur_us: None,
                fields,
            });
        }
    }
}

/// Microseconds in `d` as u64 — avoids `Duration::as_micros`'s 128-bit
/// arithmetic on the per-event hot path.
#[inline]
fn micros(d: std::time::Duration) -> u64 {
    d.as_secs()
        .saturating_mul(1_000_000)
        .saturating_add(u64::from(d.subsec_micros()))
}

/// SplitMix64 finalizer: spreads a small counter over the full u64 space
/// so locally-allocated trace ids do not collide with span counters and
/// look like wire-carried ids. Never returns 0.
pub(crate) fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z | 1
}

struct ActiveSpan {
    inner: Arc<TracerInner>,
    name: &'static str,
    id: u64,
    trace: u64,
    parent: u64,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// RAII span guard returned by [`Tracer::span`]. Dropping it records the
/// `span_close` event with the measured duration.
#[must_use = "dropping the guard immediately closes the span"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Attaches a field, delivered with the `span_close` event. No-op on
    /// inert guards.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(active) = &mut self.active {
            active.fields.push((key, value.into()));
        }
    }

    /// True when this guard actually records (i.e. its tracer was
    /// enabled).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// The context to hand to child work: same trace, this span as
    /// parent. `None` on inert guards.
    pub fn context(&self) -> Option<TraceContext> {
        self.active.as_ref().map(|a| TraceContext {
            trace: a.trace,
            parent: a.id,
        })
    }

    /// This span's id (0 on inert guards).
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let now = Instant::now();
            active.inner.collector.record(Event {
                name: active.name,
                kind: EventKind::SpanClose,
                span: active.id,
                trace: active.trace,
                parent: active.parent,
                at_us: micros(now.duration_since(active.inner.epoch)),
                dur_us: Some(micros(now.duration_since(active.start))),
                fields: active.fields,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn noop_tracer_is_inert() {
        let t = Tracer::noop();
        assert!(!t.enabled());
        let mut span = t.span("anything");
        span.field("k", 1u64);
        assert!(!span.is_recording());
        drop(span);
        t.event("instant");
        t.event_with("never", |_| {
            panic!("field closure must not run when disabled")
        });
    }

    #[test]
    fn spans_balance_and_carry_duration_and_fields() {
        let (t, ring) = Tracer::ring(64);
        {
            let mut span = t.span("sink.verify");
            span.field("hashes", 12u64);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        t.event_with("sink.table_build", |f| f.push(("hashes", 40u64.into())));

        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::SpanOpen);
        assert_eq!(events[1].kind, EventKind::SpanClose);
        assert_eq!(events[0].span, events[1].span);
        assert!(events[1].dur_us.unwrap() >= 1000);
        assert_eq!(events[1].fields, vec![("hashes", FieldValue::U64(12))]);
        assert_eq!(events[2].kind, EventKind::Instant);
        assert_eq!(events[2].fields, vec![("hashes", FieldValue::U64(40))]);
        // at_us is monotone in emission order.
        assert!(events[0].at_us <= events[1].at_us);
        assert!(events[1].at_us <= events[2].at_us);
    }

    #[test]
    fn ring_collector_bounds_memory_and_counts_drops() {
        let (t, ring) = Tracer::ring(4);
        for _ in 0..10 {
            t.event("tick");
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);

        let (t0, ring0) = Tracer::ring(0);
        t0.event("tick");
        assert!(ring0.is_empty());
        assert_eq!(ring0.dropped(), 1);
    }

    #[test]
    fn jsonl_export_parses_line_by_line() {
        let (t, ring) = Tracer::ring(16);
        {
            let mut s = t.span("outer");
            s.field("label", "a\"quoted\"");
            let _inner = t.span("inner");
        }
        let jsonl = ring.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let v = json::parse(line).expect("every JSONL line parses");
            assert!(v.get("event").is_some());
            assert!(v.get("kind").is_some());
            assert!(v.get("span").and_then(|s| s.as_u64()).is_some());
        }
        // Nesting closes inner before outer.
        let kinds: Vec<String> = lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("kind")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            kinds,
            ["span_open", "span_open", "span_close", "span_close"]
        );
    }

    #[test]
    fn trace_context_wire_round_trip() {
        let ctx = TraceContext {
            trace: 0xDEAD_BEEF_1234_5678,
            parent: 42,
        };
        assert_eq!(TraceContext::from_bytes(&ctx.to_bytes()), ctx);
        assert!(ctx.is_traced());
        assert!(!TraceContext::NONE.is_traced());
        assert_eq!(TraceContext::root(7).parent, 0);
    }

    #[test]
    fn span_root_allocates_a_trace_and_children_join_it() {
        let (t, ring) = Tracer::ring(64);
        let (trace, root_id, child_ctx) = {
            let root = t.span_root("client.send");
            let ctx = root.context().expect("recording");
            let child = t.span_in("gateway.ingest", ctx);
            let grandchild_ctx = child.context().expect("recording");
            (ctx.trace, root.id(), grandchild_ctx)
        };
        assert_ne!(trace, 0);
        assert_eq!(child_ctx.trace, trace);

        let events = ring.events();
        // open root, open child, close child, close root
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.trace == trace));
        assert_eq!(events[0].parent, 0, "root span has no parent");
        assert_eq!(events[1].parent, root_id, "child's parent is the root");
        assert_eq!(child_ctx.parent, events[1].span);
    }

    #[test]
    fn untraced_spans_keep_the_legacy_shape() {
        let (t, ring) = Tracer::ring(16);
        drop(t.span("sink.verify"));
        t.event("tick");
        for e in ring.events() {
            assert_eq!(e.trace, 0);
            assert_eq!(e.parent, 0);
        }
        // JSONL omits the zero identity fields entirely.
        let jsonl = ring.export_jsonl();
        assert!(!jsonl.contains("\"trace\""));
        assert!(!jsonl.contains("\"parent\""));
    }

    #[test]
    fn traced_jsonl_carries_trace_and_parent() {
        let (t, ring) = Tracer::ring(16);
        {
            let root = t.span_root("outer");
            let _child = t.span_in("inner", root.context().unwrap());
        }
        let jsonl = ring.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let inner_open = json::parse(lines[1]).unwrap();
        assert!(inner_open.get("trace").and_then(|v| v.as_u64()).unwrap() > 0);
        assert!(inner_open.get("parent").and_then(|v| v.as_u64()).unwrap() > 0);
    }

    #[test]
    fn span_traced_is_inert_without_a_trace() {
        let (t, ring) = Tracer::ring(16);
        {
            let dead = t.span_traced("sink.classify", TraceContext::NONE);
            assert!(!dead.is_recording());
            assert!(dead.context().is_none());
        }
        assert!(ring.is_empty(), "no events for an untraced detail span");

        let root = t.span_root("caller");
        let ctx = root.context().unwrap();
        let live = t.span_traced("sink.classify", ctx);
        assert!(live.is_recording());
        assert_eq!(live.context().unwrap().trace, ctx.trace);
    }

    #[test]
    fn mix64_never_returns_zero_and_spreads() {
        let a = mix64(0);
        let b = mix64(1);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn tracer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tracer>();
        assert_send_sync::<NoopCollector>();
    }
}
