//! Tenant registry: many independent sensor networks behind one gateway.
//!
//! Each tenant is a complete, isolated traceback deployment: its own
//! [`KeyStore`] (tenants never share key material), its own
//! [`ServicePool`] (own shard set, own queues and backpressure policy,
//! own optional evidence log), and its own metrics subtree — one
//! [`TenantRegistry::metrics_text`] scrape renders every tenant with
//! `tenant="..."` labels, so operators watch the fleet through a single
//! exposition endpoint, and [`TenantRegistry::ops_snapshot_json`] renders
//! the same series for one tenant as JSON.
//!
//! Isolation is structural, not policy: a tenant's packets are admitted
//! against its *name*, decoded, and enqueued into the pool owned by that
//! name. There is no shared engine, cache, or evidence path through which
//! one tenant's bytes could reach another tenant's verdict — the
//! end-to-end test in `tests/isolation.rs` pins this by byte-comparing
//! gateway-served evidence against per-tenant sequential runs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pnm_core::store::{LogStore, StoreError};
use pnm_crypto::KeyStore;
use pnm_obs::{Counter, FlightRecorder, JsonValue, Registry, Series, Tracer};
use pnm_service::{IngestError, ServiceConfig, ServicePool};
use pnm_wire::Packet;

use crate::admission::TokenBucket;
use crate::dedup::{DedupState, DedupVerdict};
use crate::envelope::{AckCode, IngestAck, SeqFrame, MAX_TENANT_LEN};

/// Per-tenant ingest rate limit (token bucket parameters).
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Sustained packets per second.
    pub packets_per_sec: f64,
    /// Burst capacity in packets.
    pub burst: f64,
}

/// Everything needed to provision one tenant.
#[derive(Clone)]
pub struct TenantConfig {
    keys: Arc<KeyStore>,
    service: ServiceConfig,
    rate_limit: Option<RateLimit>,
    busy_retry_after_ms: u32,
}

impl TenantConfig {
    /// A tenant with its own key material and service configuration.
    pub fn new(keys: impl Into<Arc<KeyStore>>, service: ServiceConfig) -> Self {
        TenantConfig {
            keys: keys.into(),
            service,
            rate_limit: None,
            busy_retry_after_ms: 25,
        }
    }

    /// Caps the tenant's sustained ingest rate; packets beyond the bucket
    /// are counted as `rate_limited` rejections and dropped before they
    /// cost a decode. No limit by default.
    pub fn rate_limit(mut self, packets_per_sec: f64, burst: f64) -> Self {
        self.rate_limit = Some(RateLimit {
            packets_per_sec,
            burst,
        });
        self
    }

    /// How long a [`AckCode::Busy`] or [`AckCode::RateLimited`] ack tells
    /// the client to wait before retrying. Default 25 ms.
    pub fn busy_retry_after_ms(mut self, ms: u32) -> Self {
        self.busy_retry_after_ms = ms;
        self
    }
}

/// A drained tenant's final, immutable verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainVerdict {
    /// Canonical [`pnm_core::store::Evidence`] bytes of the merged
    /// engine — byte-comparable against any other run of the same packet
    /// stream.
    pub evidence_bytes: Vec<u8>,
    /// Human/JSON summary: localization, counters, pool telemetry.
    pub summary_json: String,
}

impl DrainVerdict {
    /// Encodes the verdict as a drain-response payload:
    /// `evidence_len(4, BE) | evidence | summary JSON (UTF-8)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.evidence_bytes.len() + self.summary_json.len());
        out.extend_from_slice(&(self.evidence_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.evidence_bytes);
        out.extend_from_slice(self.summary_json.as_bytes());
        out
    }

    /// Decodes a drain-response payload. Total: structured error on any
    /// malformed input.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        if payload.len() < 4 {
            return Err("drain payload shorter than its length prefix".into());
        }
        let len = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
        if payload.len() < 4 + len {
            return Err(format!(
                "drain payload declares {len} evidence bytes, only {} present",
                payload.len() - 4
            ));
        }
        let summary = std::str::from_utf8(&payload[4 + len..])
            .map_err(|e| format!("drain summary is not UTF-8: {e}"))?;
        Ok(DrainVerdict {
            evidence_bytes: payload[4..4 + len].to_vec(),
            summary_json: summary.to_string(),
        })
    }
}

/// One provisioned tenant.
struct Tenant {
    name: String,
    /// `Some` while running; the first drain takes it. Every other caller
    /// clones the `Arc` out and releases the lock at once (see
    /// [`Tenant::pool`]), so a `Block` ingest parked on a full queue holds
    /// up no other call on this tenant.
    pool: Mutex<Option<Arc<ServicePool>>>,
    /// Set by the first drain; subsequent drains return the same verdict.
    verdict: Mutex<Option<Arc<DrainVerdict>>>,
    /// The tenant's registries: its admission counters' and its pool's.
    /// Both outlive the pool, so a drained tenant's final series stay
    /// readable.
    registries: [Registry; 2],
    bucket: Option<Mutex<TokenBucket>>,
    /// Exactly-once window for sequenced ingest.
    dedup: Mutex<DedupState>,
    /// The tenant's sink tracer — a traced ingest frame opens its
    /// `gateway.ingest` span here so the gateway span and the shard
    /// engine's stage spans land in the same collector.
    tracer: Tracer,
    /// The tenant pool's flight recorder, if armed (for the ops
    /// snapshot's last-anomaly summary).
    flight: Option<Arc<FlightRecorder>>,
    busy_retry_after_ms: u32,
    ingested: Counter,
    duplicate: Counter,
    dedup_evicted: Counter,
    rejected_malformed: Counter,
    rejected_rate: Counter,
    rejected_shed: Counter,
    rejected_in_flight: Counter,
    rejected_drained: Counter,
    rejected_corrupt: Counter,
}

impl Tenant {
    /// The running pool, or `None` once a drain has taken it.
    fn pool(&self) -> Option<Arc<ServicePool>> {
        self.pool.lock().expect("pool lock").clone()
    }

    /// The tenant's series, each labelled `tenant="<name>"`.
    fn series(&self) -> Vec<Series> {
        let labels = [("tenant", self.name.as_str())];
        self.registries
            .iter()
            .flat_map(|r| r.series(&labels))
            .collect()
    }

    /// The tenant's `Ops` JSON (see
    /// [`TenantRegistry::ops_snapshot_json`]).
    fn ops_value(&self) -> JsonValue {
        let state = match *self.pool.lock().expect("pool lock") {
            Some(_) => "running",
            None => "drained",
        };
        let flight = self.flight.as_ref();
        let anomaly = flight
            .and_then(|f| f.last_anomaly())
            .map(|a| a.to_json_value());
        JsonValue::obj(vec![
            ("tenant", JsonValue::Str(self.name.clone())),
            ("state", JsonValue::Str(state.to_string())),
            ("series", pnm_obs::series_json(self.series())),
            (
                "flight_dumps",
                JsonValue::UInt(flight.map_or(0, |f| f.dumps())),
            ),
            ("last_anomaly", anomaly.unwrap_or(JsonValue::Null)),
        ])
    }

    /// Admits a fresh frame past the dedup window: rate limit, packet
    /// decode, then the pool. Counts its own refusals.
    fn admit(&self, frame: &SeqFrame, now: Instant) -> AckCode {
        if let Some(bucket) = &self.bucket {
            if !bucket.lock().expect("bucket lock").try_take_at(now) {
                self.rejected_rate.inc();
                return AckCode::RateLimited;
            }
        }
        let packet = match Packet::from_bytes(&frame.packet) {
            Ok(p) => p,
            Err(_) => {
                self.rejected_malformed.inc();
                return AckCode::Malformed;
            }
        };
        let Some(pool) = self.pool() else {
            self.rejected_drained.inc();
            return AckCode::Drained;
        };
        // Open the gateway's span inside the client's context and enqueue
        // under it, so queue hand-off and sink stages hang off this span.
        // The span closes when the packet is enqueued — shard-side time
        // is the sink spans' own.
        let span = (frame.ctx.is_traced() && self.tracer.enabled())
            .then(|| self.tracer.span_in("gateway.ingest", frame.ctx));
        let ctx = span.as_ref().and_then(|s| s.context()).unwrap_or(frame.ctx);
        let now_us = packet.report.timestamp;
        match pool.ingest_ctx(packet, now_us, ctx) {
            Ok(_) => {
                self.ingested.inc();
                AckCode::Accepted
            }
            Err(IngestError::Shed) => {
                self.rejected_shed.inc();
                AckCode::Busy
            }
            Err(IngestError::Closed) => {
                self.rejected_drained.inc();
                AckCode::Drained
            }
        }
    }
}

/// The gateway's tenant table plus its own metrics registry.
///
/// Build one with [`TenantRegistry::builder`], share it (`Arc`) between
/// the server and any in-process observers, and drop it after draining.
pub struct TenantRegistry {
    tenants: BTreeMap<Vec<u8>, Tenant>,
    registry: Registry,
    rejected_unknown: Counter,
    /// Sequence frames whose CRC failed before a tenant could be
    /// attributed — the tenant id itself is untrustworthy.
    rejected_corrupt_unattributed: Counter,
}

/// Builder for [`TenantRegistry`].
#[derive(Default)]
pub struct TenantRegistryBuilder {
    tenants: Vec<(String, TenantConfig)>,
    evidence_dir: Option<PathBuf>,
}

impl TenantRegistryBuilder {
    /// Provisions a tenant. Names must be 1..=64 bytes of
    /// `[A-Za-z0-9._-]` (they double as metrics label values and evidence
    /// file names) and unique.
    pub fn tenant(mut self, name: &str, config: TenantConfig) -> Self {
        assert!(
            !name.is_empty()
                && name.len() <= MAX_TENANT_LEN
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b)),
            "tenant name {name:?} must be 1..={MAX_TENANT_LEN} bytes of [A-Za-z0-9._-]"
        );
        self.tenants.push((name.to_string(), config));
        self
    }

    /// Gives every tenant (that has no explicit store already) a durable
    /// evidence log at `<dir>/<tenant>.pnme` — one file per tenant, so
    /// evidence never shares a byte stream across tenants and each tenant
    /// recovers independently. A registry built on a directory that
    /// already holds logs starts each tenant from its log. The dedup
    /// window is not persisted: a frame the client resends after the
    /// restart is accepted again and counted twice.
    pub fn evidence_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.evidence_dir = Some(dir.into());
        self
    }

    /// Spawns every tenant's pool and returns the registry. A tenant with
    /// an evidence log starts from what the log holds.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from opening or replaying a tenant's
    /// evidence log.
    ///
    /// # Panics
    ///
    /// Panics on duplicate tenant names (a provisioning bug).
    pub fn build(self) -> Result<TenantRegistry, StoreError> {
        let registry = Registry::new();
        let mut tenants = BTreeMap::new();
        for (name, config) in self.tenants {
            let mut service = config.service;
            if let (Some(dir), None) = (&self.evidence_dir, service.store_handle()) {
                let store = Arc::new(LogStore::open(dir.join(format!("{name}.pnme")))?);
                service = service.store(store);
            }
            let counters = Registry::new();
            let counter = |name: &str| counters.counter(name, &[]);
            let rejected = |reason: &str| {
                counters.counter("pnm_gateway_rejected_total", &[("reason", reason)])
            };
            let tracer = service.sink().tracer_handle().clone();
            let flight = service.flight_recorder_handle().cloned();
            // A tenant with a log starts from it: a restarted gateway
            // carries on from its evidence, and an unreadable log is an
            // error here rather than a panic in `ServicePool::new`.
            let pool = match service.store_handle() {
                Some(_) => ServicePool::recover(config.keys, service)?.0,
                None => ServicePool::new(config.keys, service),
            };
            let tenant = Tenant {
                registries: [counters.clone(), pool.registry().clone()],
                pool: Mutex::new(Some(Arc::new(pool))),
                tracer,
                flight,
                bucket: config
                    .rate_limit
                    .map(|r| Mutex::new(TokenBucket::new(r.packets_per_sec, r.burst))),
                verdict: Mutex::new(None),
                dedup: Mutex::new(DedupState::default()),
                busy_retry_after_ms: config.busy_retry_after_ms,
                ingested: counter("pnm_gateway_ingested_total"),
                duplicate: counter("pnm_gateway_duplicate_total"),
                dedup_evicted: counter("pnm_gateway_dedup_evicted_sessions_total"),
                rejected_malformed: rejected("malformed"),
                rejected_rate: rejected("rate_limited"),
                rejected_shed: rejected("shed"),
                rejected_in_flight: rejected("in_flight"),
                rejected_drained: rejected("drained"),
                rejected_corrupt: rejected("corrupt"),
                name,
            };
            let prior = tenants.insert(tenant.name.clone().into_bytes(), tenant);
            assert!(prior.is_none(), "duplicate tenant name");
        }
        Ok(TenantRegistry {
            tenants,
            rejected_unknown: registry.counter(
                "pnm_gateway_rejected_total",
                &[("reason", "unknown_tenant")],
            ),
            rejected_corrupt_unattributed: registry
                .counter("pnm_gateway_rejected_total", &[("reason", "corrupt")]),
            registry,
        })
    }
}

impl TenantRegistry {
    /// Starts provisioning a registry.
    pub fn builder() -> TenantRegistryBuilder {
        TenantRegistryBuilder::default()
    }

    /// Provisioned tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.values().map(|t| t.name.as_str()).collect()
    }

    /// The gateway-level metrics registry: connection, framing and
    /// unattributed rejection counters. Each tenant keeps its own
    /// registries; [`metrics_text`](Self::metrics_text) renders them all.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Admits one ingest frame and returns the ack the server sends back —
    /// the gateway's one, exactly-once ingest path. Every outcome is
    /// counted under the tenant's metrics namespace; nothing here panics
    /// on hostile payload bytes.
    ///
    /// Admission order is chosen so that retries are cheap and never
    /// double-counted: CRC/decode of the sequence frame first (`Corrupt`
    /// — the CRC binds the *tenant*, so a bit-flipped tenant id reads as
    /// retryable corruption, not a terminal `UnknownTenant`) → tenant
    /// lookup → dedup window (`Duplicate`, *before* the token bucket so a
    /// retry of an already-counted frame never burns a token or gets
    /// bounced; `Busy` with a retry hint while another copy of the frame
    /// is still being admitted, say parked on a full `Block` queue) → rate
    /// limit → packet decode (`Malformed`, terminal and deterministic, so
    /// it is *not* recorded in the window — a retry re-derives the same
    /// verdict) → the pool (`Accepted` / `Busy` with a retry hint /
    /// `Drained`). The dedup window reserves a fresh frame as in flight
    /// and records it **only** when the pool actually absorbed it, so
    /// acked ≡ counted holds; any other outcome releases the reservation.
    ///
    /// A frame carrying a trace context is admitted identically. When the
    /// context names a trace and the tenant's tracer is enabled, a
    /// `gateway.ingest` span opens inside it and the packet rides the
    /// shard queue under that span — so the client span, the gateway span,
    /// and every sink stage span form one trace. Tracing changes no
    /// admission outcome and no evidence byte. Every ack but `Corrupt`
    /// echoes the frame's sequence number and trace id.
    pub fn ingest_seq(&self, tenant: &[u8], payload: &[u8], now: Instant) -> IngestAck {
        let t = self.tenants.get(tenant);
        let frame = match SeqFrame::decode_payload(tenant, payload) {
            Ok(f) => f,
            Err(_) => {
                match t {
                    Some(t) => t.rejected_corrupt.inc(),
                    None => self.rejected_corrupt_unattributed.inc(),
                }
                // The sequence number and trace id are inside the damaged
                // region, so the ack cannot echo them.
                return IngestAck::new(AckCode::Corrupt, 0);
            }
        };
        let ack = |code| IngestAck::new(code, frame.seq).with_trace(frame.ctx.trace);
        let Some(t) = t else {
            // The CRC passed over this tenant id, so the client really
            // sent it: genuinely unknown, terminal.
            self.rejected_unknown.inc();
            return ack(AckCode::UnknownTenant);
        };
        let (session, seq) = (frame.session, frame.seq);
        let verdict = t.dedup.lock().expect("dedup lock").reserve(session, seq);
        let code = match verdict {
            DedupVerdict::Duplicate => {
                t.duplicate.inc();
                return ack(AckCode::Duplicate);
            }
            DedupVerdict::InFlight => {
                t.rejected_in_flight.inc();
                AckCode::Busy
            }
            DedupVerdict::Fresh => {
                let code = t.admit(&frame, now);
                let mut dedup = t.dedup.lock().expect("dedup lock");
                if code == AckCode::Accepted {
                    let evicted = dedup.evicted_sessions();
                    dedup.record(session, seq);
                    t.dedup_evicted.add(dedup.evicted_sessions() - evicted);
                } else {
                    dedup.release(session, seq);
                }
                code
            }
        };
        if code.is_retryable() {
            ack(code).with_retry_after(t.busy_retry_after_ms)
        } else {
            ack(code)
        }
    }

    /// Closes every running tenant pool to new packets and waits (until
    /// `deadline`) for the shard workers to finish their backlog and
    /// flush their **final durable checkpoint** — the per-tenant flush
    /// step of graceful shutdown. Returns `true` when every pool made it.
    ///
    /// Tenants remain drainable afterwards: [`drain`](Self::drain) on a
    /// flushed pool collects the already-final shard states immediately.
    /// Further ingest is a counted `drained` rejection.
    pub fn flush_all(&self, deadline: Instant) -> bool {
        let mut all = true;
        for t in self.tenants.values() {
            if let Some(pool) = t.pool() {
                all &= pool.close_and_join(deadline);
            }
        }
        all
    }

    /// Drains the tenant's pool (first call) and returns its verdict;
    /// idempotent thereafter. `None` for unknown tenants.
    ///
    /// The verdict's evidence bytes are the canonical encoding of the
    /// merged engine's [`pnm_core::store::Evidence`] — the unit of the
    /// cross-tenant isolation guarantee.
    pub fn drain(&self, tenant: &[u8]) -> Option<Arc<DrainVerdict>> {
        let t = self.tenants.get(tenant)?;
        // Take the pool out of the slot first, so a concurrent ingest
        // observes "drained" rather than blocking behind the (long) drain.
        let pool = t.pool.lock().expect("pool lock").take();
        if let Some(mut pool) = pool {
            // Callers that cloned the pool before the take still hold it,
            // a `Block` ingest parked on a full queue among them. Release
            // the workers so its push completes, refuse new pushes, and
            // wait for the last clone to go.
            pool.resume();
            pool.close();
            let pool = loop {
                match Arc::try_unwrap(pool) {
                    Ok(pool) => break pool,
                    Err(shared) => pool = shared,
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            let report = pool.drain();
            let engine = &report.engine;
            let summary = JsonValue::obj(vec![
                ("tenant", JsonValue::Str(t.name.clone())),
                (
                    "unequivocal_source",
                    match engine.unequivocal_source() {
                        Some(id) => JsonValue::UInt(u64::from(id.raw())),
                        None => JsonValue::Null,
                    },
                ),
                (
                    "quarantined",
                    JsonValue::Array(
                        engine
                            .quarantine()
                            .quarantined()
                            .map(|n| JsonValue::UInt(u64::from(n.raw())))
                            .collect(),
                    ),
                ),
                ("packets", JsonValue::UInt(engine.counters().packets as u64)),
                (
                    "suspicious",
                    JsonValue::UInt(engine.counters().suspicious as u64),
                ),
                (
                    "malformed",
                    JsonValue::UInt(engine.counters().malformed as u64),
                ),
                ("processed", JsonValue::UInt(report.snapshot.processed)),
                ("shed", JsonValue::UInt(report.snapshot.shed)),
                ("panics", JsonValue::UInt(report.snapshot.panics)),
                ("wedged", JsonValue::UInt(report.wedged.len() as u64)),
            ]);
            let verdict = Arc::new(DrainVerdict {
                evidence_bytes: engine.evidence().to_bytes(),
                summary_json: summary.render_pretty(),
            });
            *t.verdict.lock().expect("verdict lock") = Some(Arc::clone(&verdict));
            return Some(verdict);
        }
        // Already drained: hand back the recorded verdict. The slot can
        // only be empty after a drain stored one.
        let verdict = t.verdict.lock().expect("verdict lock");
        verdict.as_ref().map(Arc::clone)
    }

    /// One scrape covering the gateway and every tenant: the gateway
    /// registry, then each tenant's admission counters and pool registry
    /// with `tenant="..."` merged into every series, rendered as one
    /// exposition so each family has one `# TYPE` line and one contiguous
    /// block of series. A drained tenant's series keep their final
    /// values. The scrape reads registries only, so no pool call can hold
    /// it up.
    pub fn metrics_text(&self) -> String {
        let mut series = self.registry.series(&[]);
        for t in self.tenants.values() {
            series.extend(t.series());
        }
        pnm_obs::prometheus_text(series)
    }

    /// The tenant's live ops snapshot — the payload behind
    /// [`OpCode::Ops`](crate::OpCode::Ops) — as pretty JSON. `None` for
    /// unknown tenants.
    ///
    /// One object per tenant: `tenant`, its lifecycle `state` (`running`
    /// or `drained`), `series` — every series of the tenant's
    /// [`metrics_text`](Self::metrics_text) block, keyed exactly as its
    /// Prometheus sample line starts, with histogram summaries keyed in
    /// the family's unit (`p99_us` for `pnm_service_total_us`, `p99_ns`
    /// for `pnm_sink_stage_ns`, `p99_jobs` for `pnm_service_take_jobs`) —
    /// and the tenant's flight recorder:
    /// `flight_dumps` and the `last_anomaly` it dumped.
    pub fn ops_snapshot_json(&self, tenant: &[u8]) -> Option<String> {
        Some(self.tenants.get(tenant)?.ops_value().render_pretty())
    }

    /// Ops snapshots for every tenant, keyed by tenant name (the
    /// `tenant = "*"` form of [`OpCode::Ops`](crate::OpCode::Ops)).
    pub fn ops_snapshot_all_json(&self) -> String {
        JsonValue::Object(
            self.tenants
                .values()
                .map(|t| (t.name.clone(), t.ops_value()))
                .collect(),
        )
        .render_pretty()
    }

    /// Total backlog across every running tenant pool (packets admitted
    /// but not yet processed) — lets benches wait for quiescence without
    /// draining. Reads three counters per shard.
    pub fn backlog(&self) -> u64 {
        self.tenants
            .values()
            .filter_map(|t| t.pool().map(|p| p.backlog()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::SEQ_FRAME_HEADER;
    use pnm_core::store::Evidence;
    use pnm_core::{
        MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, VerifyMode,
    };
    use pnm_wire::{Location, NodeId, Report};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn tenant_config(master: &[u8], n: u16) -> TenantConfig {
        TenantConfig::new(
            KeyStore::derive_from_master(master, n),
            ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(1),
        )
    }

    fn marked_packet(master: &[u8], n: u16, seq: u64) -> Packet {
        let keys = KeyStore::derive_from_master(master, n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(seq);
        let report = Report::new(
            format!("t-{seq}").into_bytes(),
            Location::new(seq as f32, 0.0),
            seq,
        );
        let mut pkt = Packet::new(report);
        for hop in 0..n {
            let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
            scheme.mark(&ctx, &mut pkt, &mut rng);
        }
        pkt
    }

    /// Admits `packet` for `tenant` as sequence number `seq` of session 1.
    fn admit(
        reg: &TenantRegistry,
        tenant: &[u8],
        seq: u64,
        packet: &[u8],
        now: Instant,
    ) -> AckCode {
        let ack = reg.ingest_seq(
            tenant,
            &SeqFrame::encode_payload(tenant, 1, seq, packet),
            now,
        );
        assert_eq!(ack.seq, seq, "every clean frame's ack echoes its seq");
        ack.code
    }

    #[test]
    fn unknown_and_malformed_are_counted_not_fatal() {
        let reg = TenantRegistry::builder()
            .tenant("alpha", tenant_config(b"alpha", 6))
            .build()
            .unwrap();
        let now = Instant::now();
        assert_eq!(
            admit(&reg, b"nope", 1, b"anything", now),
            AckCode::UnknownTenant
        );
        assert_eq!(
            admit(&reg, b"alpha", 2, b"\xff\xff garbage", now),
            AckCode::Malformed
        );
        let ok = marked_packet(b"alpha", 6, 1).to_bytes();
        assert_eq!(admit(&reg, b"alpha", 3, &ok, now), AckCode::Accepted);
        // A frame whose CRC fails is Corrupt and echoes nothing.
        let mut damaged = SeqFrame::encode_payload(b"alpha", 1, 4, &ok);
        damaged[SEQ_FRAME_HEADER] ^= 1;
        assert_eq!(
            reg.ingest_seq(b"alpha", &damaged, now),
            IngestAck::new(AckCode::Corrupt, 0)
        );
        let text = reg.metrics_text();
        assert!(text.contains("pnm_gateway_rejected_total{reason=\"unknown_tenant\"} 1"));
        assert!(
            text.contains("pnm_gateway_rejected_total{reason=\"malformed\",tenant=\"alpha\"} 1")
        );
        assert!(text.contains("pnm_gateway_rejected_total{reason=\"corrupt\",tenant=\"alpha\"} 1"));
        assert!(text.contains("pnm_gateway_ingested_total{tenant=\"alpha\"} 1"));
        reg.drain(b"alpha");
    }

    #[test]
    fn rate_limit_sheds_exactly_beyond_burst() {
        let reg = TenantRegistry::builder()
            .tenant(
                "alpha",
                tenant_config(b"alpha", 4)
                    .rate_limit(1.0, 2.0)
                    .busy_retry_after_ms(9),
            )
            .build()
            .unwrap();
        let now = Instant::now();
        let bytes = marked_packet(b"alpha", 4, 1).to_bytes();
        assert_eq!(admit(&reg, b"alpha", 1, &bytes, now), AckCode::Accepted);
        assert_eq!(admit(&reg, b"alpha", 2, &bytes, now), AckCode::Accepted);
        let limited = reg.ingest_seq(
            b"alpha",
            &SeqFrame::encode_payload(b"alpha", 1, 3, &bytes),
            now,
        );
        assert_eq!(
            limited,
            IngestAck::new(AckCode::RateLimited, 3).with_retry_after(9)
        );
        // A retry of a counted frame is a Duplicate and burns no token.
        assert_eq!(admit(&reg, b"alpha", 1, &bytes, now), AckCode::Duplicate);
        // One second refills one token.
        assert_eq!(
            admit(&reg, b"alpha", 3, &bytes, now + Duration::from_secs(1)),
            AckCode::Accepted
        );
        assert!(reg
            .metrics_text()
            .contains("pnm_gateway_rejected_total{reason=\"rate_limited\",tenant=\"alpha\"} 1"));
        reg.drain(b"alpha");
    }

    /// A resend that arrives while the first copy is parked on a full
    /// `Block` queue is answered `Busy` and not enqueued, so the frame
    /// counts once.
    #[test]
    fn retry_racing_a_parked_copy_is_counted_once() {
        let service = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested))
            .shards(1)
            .queue_capacity(1)
            .start_paused(true);
        let reg = Arc::new(
            TenantRegistry::builder()
                .tenant(
                    "alpha",
                    TenantConfig::new(KeyStore::derive_from_master(b"alpha", 6), service)
                        .busy_retry_after_ms(7),
                )
                .build()
                .unwrap(),
        );
        let now = Instant::now();
        let first = marked_packet(b"alpha", 6, 0).to_bytes();
        assert_eq!(admit(&reg, b"alpha", 0, &first, now), AckCode::Accepted);
        // Seq 0 fills the paused shard's one queue slot, so seq 1 parks in
        // its enqueue; a resend of seq 1 arrives 200 ms later.
        let second = marked_packet(b"alpha", 6, 1).to_bytes();
        let send_after = |delay| {
            let reg = Arc::clone(&reg);
            let frame = SeqFrame::encode_payload(b"alpha", 1, 1, &second);
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                reg.ingest_seq(b"alpha", &frame, Instant::now())
            })
        };
        let parked = send_after(Duration::ZERO);
        let resend = send_after(Duration::from_millis(200));
        std::thread::sleep(Duration::from_millis(400));
        let verdict = reg.drain(b"alpha").unwrap();
        assert_eq!(parked.join().unwrap(), IngestAck::new(AckCode::Accepted, 1));
        assert_eq!(
            resend.join().unwrap(),
            IngestAck::new(AckCode::Busy, 1).with_retry_after(7)
        );
        let evidence = Evidence::from_bytes(&verdict.evidence_bytes).unwrap();
        assert_eq!(evidence.counters.packets, 2);
        assert_eq!(admit(&reg, b"alpha", 1, &second, now), AckCode::Duplicate);
    }

    #[test]
    fn drain_is_idempotent_and_final() {
        let reg = TenantRegistry::builder()
            .tenant("alpha", tenant_config(b"alpha", 6))
            .build()
            .unwrap();
        let now = Instant::now();
        for seq in 0..20 {
            let bytes = marked_packet(b"alpha", 6, seq).to_bytes();
            assert_eq!(admit(&reg, b"alpha", seq, &bytes, now), AckCode::Accepted);
        }
        let v1 = reg.drain(b"alpha").unwrap();
        let v2 = reg.drain(b"alpha").unwrap();
        assert_eq!(v1.evidence_bytes, v2.evidence_bytes);
        assert_eq!(v1.summary_json, v2.summary_json);
        assert!(v1.summary_json.contains("\"unequivocal_source\""));
        assert!(v1.summary_json.contains("\"processed\": 20"));
        // Post-drain ingest is a counted rejection.
        let bytes = marked_packet(b"alpha", 6, 99).to_bytes();
        assert_eq!(admit(&reg, b"alpha", 99, &bytes, now), AckCode::Drained);
        // Round trip of the response payload.
        let decoded = DrainVerdict::decode(&v1.encode()).unwrap();
        assert_eq!(&decoded, v1.as_ref());
    }

    /// A registry serving `tenants` on two-shard pools, each sent `n`
    /// packets and one malformed frame, with every pool worked off.
    fn served(tenants: &[&str], n: u64) -> TenantRegistry {
        let mut builder = TenantRegistry::builder();
        for t in tenants {
            let service = ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(2);
            let keys = KeyStore::derive_from_master(t.as_bytes(), 6);
            builder = builder.tenant(t, TenantConfig::new(keys, service));
        }
        let (reg, now) = (builder.build().unwrap(), Instant::now());
        for t in tenants.iter().map(|t| t.as_bytes()) {
            for seq in 0..n {
                let bytes = marked_packet(t, 6, seq).to_bytes();
                assert_eq!(admit(&reg, t, seq, &bytes, now), AckCode::Accepted);
            }
            assert_eq!(admit(&reg, t, n, b"junk", now), AckCode::Malformed);
        }
        while reg.backlog() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        reg
    }

    /// One scrape over two tenants is one valid exposition: a single
    /// `# TYPE` line per family, with all of the family's series under it.
    #[test]
    fn two_tenant_scrape_has_one_type_line_and_one_block_per_family() {
        let text = served(&["alpha", "beta"], 3).metrics_text();
        let mut families: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(declared) = line.strip_prefix("# TYPE ") {
                let family = declared.split(' ').next().unwrap();
                assert!(!families.contains(&family), "second TYPE: {family}");
                families.push(family);
                continue;
            }
            let family = families.last().expect("a sample before any TYPE line");
            let suffix = line.split(['{', ' ']).next().unwrap().strip_prefix(family);
            let in_block = matches!(suffix, Some("" | "_bucket" | "_sum" | "_count"));
            assert!(in_block, "{line} outside the {family} block:\n{text}");
        }
        for t in ["alpha", "beta"] {
            assert!(text.contains(&format!("pnm_gateway_ingested_total{{tenant=\"{t}\"}} 3\n")));
        }
    }

    /// The `Ops` JSON and the Prometheus scrape are two renderings of one
    /// set of series: the same series, every counter equal, every
    /// histogram's count and sum equal, and each histogram summary's keys
    /// in the unit its series name ends with.
    #[test]
    fn ops_json_and_prometheus_text_carry_the_same_series() {
        let reg = served(&["alpha"], 24);
        let text = reg.metrics_text();
        let ops = pnm_obs::json::parse(&reg.ops_snapshot_json(b"alpha").unwrap()).unwrap();
        assert_eq!(ops.get("state"), Some(&JsonValue::Str("running".into())));
        let Some(JsonValue::Object(series)) = ops.get("series") else {
            panic!("no series in {ops:?}");
        };
        // alpha's sample lines in the scrape, by series key.
        let samples: BTreeMap<&str, u64> = (text.lines())
            .filter(|l| l.contains("tenant=\"alpha\""))
            .map(|l| l.rsplit_once(' ').unwrap())
            .map(|(k, v)| (k, v.parse().unwrap()))
            .collect();
        let mut covered = 0;
        for (key, value) in series {
            let (name, labels) = key.split_once('{').unwrap();
            let sample = |sfx: &str| samples.get(&*format!("{name}{sfx}{{{labels}")).copied();
            if let Some(v) = value.as_u64() {
                assert_eq!(sample(""), Some(v), "counter {key}");
                covered += 1;
                continue;
            }
            let JsonValue::Object(summary) = value else {
                panic!("{key} renders as {value:?}");
            };
            let unit = name.rsplit('_').next().unwrap();
            assert!(
                ["ns", "us", "jobs"].contains(&unit),
                "{name} names its unit"
            );
            let suffixed = |k: &String| k == "count" || k.ends_with(&format!("_{unit}"));
            assert!(
                summary.iter().all(|(k, _)| suffixed(k)),
                "{key}: {summary:?}"
            );
            let field = |k: &str| value.get(k).and_then(JsonValue::as_u64);
            assert_eq!(field("count"), sample("_count"), "{key} count");
            assert_eq!(field(&format!("sum_{unit}")), sample("_sum"), "{key} sum");
            covered += 2 + pnm_obs::BUCKETS;
        }
        assert_eq!(
            covered,
            samples.len(),
            "every scraped alpha series is in the JSON"
        );
        let get = |key: String| ops.get("series")?.get(&key)?.as_u64();
        assert_eq!(
            get("pnm_gateway_ingested_total{tenant=\"alpha\"}".into()),
            Some(24)
        );
        let packets = ["0", "1"].map(|shard| {
            get(format!(
                "pnm_sink_packets_total{{shard=\"{shard}\",tenant=\"alpha\"}}"
            ))
        });
        assert!(
            packets.iter().all(|p| p.unwrap() > 0),
            "both shards took packets: {packets:?}"
        );
        assert_eq!(packets.iter().flatten().sum::<u64>(), 24);
    }

    #[test]
    fn drain_verdict_decode_is_total() {
        assert!(DrainVerdict::decode(&[]).is_err());
        assert!(DrainVerdict::decode(&[0, 0, 0, 9, 1]).is_err());
        assert!(DrainVerdict::decode(&[0, 0, 0, 1, 1, 0xff, 0xfe]).is_err());
        let ok = DrainVerdict {
            evidence_bytes: vec![1, 2, 3],
            summary_json: "{}".into(),
        };
        assert_eq!(DrainVerdict::decode(&ok.encode()).unwrap(), ok);
    }
}
