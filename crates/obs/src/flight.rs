//! Always-on flight recording: a sharded bounded ring cheap enough to
//! leave armed on the hot path, dumped as an anomaly-tagged JSONL
//! black-box when something goes wrong.
//!
//! [`ShardedRingCollector`] is cheap enough for always-on use: each
//! recording thread is pinned to one of N power-of-two shards via a
//! thread-local hint, so the hot path is an uncontended lock plus a slot
//! write into a preallocated ring — no deque rotation, no cross-thread
//! cache bouncing. Export merges the shards and orders events by
//! timestamp.
//!
//! [`FlightRecorder`] wraps that ring as a [`Collector`] and adds the
//! black-box: when an anomaly fires (poison quarantine, watchdog detach,
//! store-error growth, corrupt-frame storms), [`FlightRecorder::dump`]
//! writes the ring's recent history to a JSONL file whose first line is
//! an anomaly header naming the trigger and — when known — the trace id
//! of the packet that caused it. Tests pin the header and events
//! (`flight::tests::dump_writes_anomaly_header_then_events`) and each
//! trigger the service fires (pnm-service's `recovery` and `pool` tests).

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::json::JsonValue;
use crate::trace::{Collector, Event, FieldValue};

/// Round-robin assignment of recording threads to shards. Global on
/// purpose: a thread keeps its hint across collectors, and distinct
/// threads get distinct hints until the counter wraps the shard count.
static NEXT_THREAD_HINT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_HINT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_shard_hint() -> usize {
    SHARD_HINT.with(|h| {
        let v = h.get();
        if v != usize::MAX {
            return v;
        }
        let assigned = NEXT_THREAD_HINT.fetch_add(1, Ordering::Relaxed);
        h.set(assigned);
        assigned
    })
}

/// One shard: a preallocated ring written with a wrapping head index.
#[derive(Debug, Default)]
struct ShardBuf {
    buf: Vec<Event>,
    /// Next overwrite position once `buf` reached capacity.
    head: usize,
}

impl ShardBuf {
    /// Events oldest-first.
    fn snapshot(&self, out: &mut Vec<Event>) {
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
    }
}

/// A bounded multi-shard event ring: the always-on collector behind the
/// flight recorder.
///
/// Total capacity is `shards * capacity_per_shard`; each shard keeps its
/// newest events and counts what it overwrote. The hot path has no deque
/// rotation and no cross-thread lock contention, which is what makes it
/// cheap enough to leave armed (perfbench's traced runs report what
/// tracing costs as `obs.trace_overhead_pct`).
/// [`Tracer::ring`](crate::Tracer::ring) builds a one-shard ring.
#[derive(Debug)]
pub struct ShardedRingCollector {
    shards: Vec<Mutex<ShardBuf>>,
    mask: usize,
    capacity_per_shard: usize,
    dropped: AtomicU64,
}

impl ShardedRingCollector {
    /// A ring of `shards` (rounded up to a power of two, min 1) each
    /// holding `capacity_per_shard` events. Capacity 0 drops everything.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardedRingCollector {
            shards: (0..shards)
                .map(|_| {
                    // Reserve up front so the first record on a shard
                    // never pays the ring's allocation on the hot path.
                    Mutex::new(ShardBuf {
                        buf: Vec::with_capacity(capacity_per_shard),
                        head: 0,
                    })
                })
                .collect(),
            mask: shards - 1,
            capacity_per_shard,
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of buffered events across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").buf.len())
            .sum()
    }

    /// True when no shard holds an event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten (or refused, for capacity 0) since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A merged copy of the buffered events ordered by timestamp
    /// (stable: same-microsecond events keep their shard order).
    pub fn events(&self) -> Vec<Event> {
        let mut all = Vec::with_capacity(self.len());
        for shard in &self.shards {
            shard
                .lock()
                .expect("shard lock poisoned")
                .snapshot(&mut all);
        }
        all.sort_by_key(|e| e.at_us);
        all
    }

    /// Renders the merged events as JSONL, oldest first.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json_value().render());
            out.push('\n');
        }
        out
    }
}

impl Collector for ShardedRingCollector {
    fn record(&self, event: Event) {
        if self.capacity_per_shard == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = thread_shard_hint() & self.mask;
        let mut shard = self.shards[idx].lock().expect("shard lock poisoned");
        if shard.buf.len() < self.capacity_per_shard {
            shard.buf.push(event);
        } else {
            let head = shard.head;
            shard.buf[head] = event;
            shard.head = (head + 1) % self.capacity_per_shard;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Summary of the most recent anomaly a recorder dumped — surfaced in
/// the gateway's per-tenant ops snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct AnomalySummary {
    /// Trigger name (e.g. `"poison_quarantine"`).
    pub reason: String,
    /// Trace id of the packet that fired the trigger (0 if unknown).
    pub trace: u64,
    /// Ordinal of the dump (1-based).
    pub dump: u64,
    /// Path of the black-box file.
    pub path: PathBuf,
}

impl AnomalySummary {
    /// The summary as a JSON object (for the ops snapshot).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("reason", JsonValue::Str(self.reason.clone())),
            ("trace", JsonValue::UInt(self.trace)),
            ("dump", JsonValue::UInt(self.dump)),
            ("path", JsonValue::Str(self.path.display().to_string())),
        ])
    }
}

/// The always-on black-box: an armed [`ShardedRingCollector`] plus
/// anomaly-triggered JSONL dumps.
///
/// Arm it by handing the recorder (it implements [`Collector`]) to a
/// [`Tracer`](crate::Tracer); fire it from anomaly sites with
/// [`FlightRecorder::dump`]. Dump files are written under the
/// recorder's directory as `flight-NNNN-<reason>.jsonl`: the first line
/// is a JSON header carrying `"anomaly": "<reason>"` and any structured
/// fields from the trigger site, every following line one buffered
/// event. File names are deterministic (a dump counter, no clock).
#[derive(Debug)]
pub struct FlightRecorder {
    ring: ShardedRingCollector,
    dir: PathBuf,
    dumps: AtomicU64,
    last: Mutex<Option<AnomalySummary>>,
}

impl FlightRecorder {
    /// A recorder writing black-boxes under `dir` with a ring of
    /// `shards * capacity_per_shard` events.
    pub fn new(dir: impl Into<PathBuf>, shards: usize, capacity_per_shard: usize) -> Self {
        FlightRecorder {
            ring: ShardedRingCollector::new(shards, capacity_per_shard),
            dir: dir.into(),
            dumps: AtomicU64::new(0),
            last: Mutex::new(None),
        }
    }

    /// The ring backing this recorder.
    pub fn ring(&self) -> &ShardedRingCollector {
        &self.ring
    }

    /// Directory dumps are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of black-boxes dumped so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Summary of the most recent dump, if any.
    pub fn last_anomaly(&self) -> Option<AnomalySummary> {
        self.last.lock().expect("flight lock poisoned").clone()
    }

    /// Dumps the ring as an anomaly-tagged black-box.
    ///
    /// `reason` names the trigger; `fields` carry trigger-site detail
    /// (a `"trace"` field, when present, is lifted into the
    /// [`AnomalySummary`] so the ops surface can name the poisoned
    /// trace). Returns the file written.
    pub fn dump(
        &self,
        reason: &str,
        fields: &[(&'static str, FieldValue)],
    ) -> std::io::Result<PathBuf> {
        let n = self.dumps.fetch_add(1, Ordering::Relaxed) + 1;
        let path = self.dir.join(format!("flight-{n:04}-{reason}.jsonl"));
        std::fs::create_dir_all(&self.dir)?;

        let mut entries: Vec<(String, JsonValue)> = vec![
            ("anomaly".to_string(), JsonValue::Str(reason.to_string())),
            ("dump".to_string(), JsonValue::UInt(n)),
        ];
        let mut trace = 0u64;
        for (k, v) in fields {
            if *k == "trace" {
                if let FieldValue::U64(t) = v {
                    trace = *t;
                }
            }
            entries.push((k.to_string(), v.to_json_value()));
        }
        let mut out = JsonValue::Object(entries).render();
        out.push('\n');
        out.push_str(&self.ring.export_jsonl());
        std::fs::write(&path, out)?;

        let summary = AnomalySummary {
            reason: reason.to_string(),
            trace,
            dump: n,
            path: path.clone(),
        };
        *self.last.lock().expect("flight lock poisoned") = Some(summary);
        Ok(path)
    }
}

impl Collector for FlightRecorder {
    fn record(&self, event: Event) {
        self.ring.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::trace::Tracer;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pnm-flight-{}-{tag}", std::process::id()))
    }

    #[test]
    fn sharded_ring_keeps_newest_and_counts_drops() {
        let ring = Arc::new(ShardedRingCollector::new(1, 4));
        let t = Tracer::new(ring.clone());
        for _ in 0..10 {
            t.event("tick");
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);

        let zero = Arc::new(ShardedRingCollector::new(2, 0));
        let t0 = Tracer::new(zero.clone());
        t0.event("tick");
        assert!(zero.is_empty());
        assert_eq!(zero.dropped(), 1);
    }

    #[test]
    fn sharded_ring_merges_across_threads_in_time_order() {
        let ring = Arc::new(ShardedRingCollector::new(8, 1024));
        let t = Tracer::new(ring.clone());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        drop(t.span("worker.step"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = ring.events();
        assert_eq!(events.len(), 400);
        assert!(
            events.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "export must be time-ordered"
        );
        for line in ring.export_jsonl().lines() {
            json::parse(line).expect("every exported line parses");
        }
    }

    #[test]
    fn dump_writes_anomaly_header_then_events() {
        let dir = temp_dir("dump");
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = Arc::new(FlightRecorder::new(&dir, 2, 64));
        let t = Tracer::new(recorder.clone());
        {
            let root = t.span_root("client.send");
            let _child = t.span_in("sink.verify", root.context().unwrap());
        }
        let path = recorder
            .dump(
                "poison_quarantine",
                &[
                    ("trace", FieldValue::U64(0xABCD)),
                    ("seq", FieldValue::U64(7)),
                ],
            )
            .expect("dump");
        assert!(path.ends_with("flight-0001-poison_quarantine.jsonl"));

        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("anomaly").and_then(JsonValue::as_str),
            Some("poison_quarantine")
        );
        assert_eq!(
            header.get("trace").and_then(JsonValue::as_u64),
            Some(0xABCD)
        );
        let rest: Vec<_> = lines.collect();
        assert_eq!(rest.len(), 4, "ring had 4 events");
        for line in rest {
            json::parse(line).expect("event line parses");
        }

        let last = recorder.last_anomaly().expect("summary recorded");
        assert_eq!(last.reason, "poison_quarantine");
        assert_eq!(last.trace, 0xABCD);
        assert_eq!(last.dump, 1);
        assert_eq!(recorder.dumps(), 1);
        json::validate(&last.to_json_value().render()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
