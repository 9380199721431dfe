//! # pnm-gateway — a network-facing multi-tenant ingestion front-end
//!
//! `pnm-service` turns the sink engine into a long-running in-process
//! service; this crate puts that service behind a socket. One gateway
//! process terminates TCP and Unix-domain connections, speaks a small
//! length-prefixed envelope protocol carrying canonical `pnm-wire` packet
//! bytes, and multiplexes any number of **tenants** — fully isolated
//! traceback deployments sharing nothing but the listener:
//!
//! * **Framing.** Every request is one self-delimiting frame
//!   ([`Envelope`]): magic, version, opcode, tenant id, length-prefixed
//!   payload. Decoding is total in the `pnm-wire` sense — garbage,
//!   bit-flips, and truncation become counted rejections or "need more
//!   bytes", never a panic, and no unvalidated length field drives an
//!   allocation. One protocol version ([`VERSION`]) is spoken; any other
//!   version byte is a counted `bad_version` rejection. Opcodes:
//!   [`OpCode::IngestSeq`] (acked, exactly-once packet delivery — the one
//!   ingest path), [`OpCode::MetricsText`], [`OpCode::Ops`],
//!   [`OpCode::Drain`], [`OpCode::Health`], and [`OpCode::Ready`].
//! * **Resilience.** Every ingest frame carries the client's trace
//!   context (all-zero when untraced), a client session id, a monotone
//!   sequence number, and an end-to-end CRC ([`SeqFrame`]); the server
//!   answers every frame with an [`IngestAck`] and deduplicates retries
//!   through a bounded per-tenant window ([`dedup`]), so a frame is
//!   absorbed into the evidence monoid **exactly once** no matter how
//!   often the connection dies mid-ack. [`GatewayClient`] redials and
//!   retries under capped seeded-jitter backoff ([`BackoffPolicy`]) and
//!   per-request timeouts; [`ChaosTransport`] injects deterministic
//!   socket-level faults to prove all of it under fire.
//!   [`GatewayHandle::shutdown_graceful`] stops accepting, flushes
//!   in-flight connections, and writes a final per-tenant durable
//!   checkpoint.
//! * **Tenancy.** A [`TenantRegistry`] maps tenant ids to fully private
//!   stacks: each tenant owns its [`KeyStore`](pnm_crypto::KeyStore), its
//!   [`ServicePool`](pnm_service::ServicePool) (own shards, queues,
//!   checkpoint cadence), and optionally its own append-only evidence log
//!   (one file per tenant under
//!   [`evidence_dir`](TenantRegistryBuilder::evidence_dir)). One
//!   [`metrics_text`](TenantRegistry::metrics_text) scrape renders every
//!   tenant with `tenant="..."` labels. The integration suite proves the
//!   isolation property end to end: verdicts served through the gateway
//!   are byte-identical to per-tenant sequential engine runs.
//! * **Admission.** Work is refused as early as possible: framing errors
//!   and oversized declarations at the decoder, floods at per-connection
//!   buffer caps and stall deadlines ([`ConnLimits`]), sustained
//!   over-rate tenants at token buckets ([`TokenBucket`]), and finally
//!   the service pools' own Block/Shed queue policies. Every refusal is a
//!   labelled counter.
//! * **Serving.** No async runtime, no dependencies: one blocking thread
//!   per listener and one per connection ([`Gateway`]), so a frame is
//!   served as soon as it arrives and connection state never leaves its
//!   thread. [`GatewayClient`] is the matching blocking client.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod backoff;
mod chaos;
mod client;
pub mod dedup;
mod envelope;
mod server;
mod tenant;
mod transport;

pub use admission::{ConnLimits, TokenBucket};
pub use backoff::{BackoffPolicy, BackoffSchedule, MAX_JITTER};
pub use chaos::{ChaosCounters, ChaosPlan, ChaosTransport};
pub use client::{ClientConfig, ClientReport, GatewayClient, SendOutcome, CLIENT_MAX_RESPONSE};
pub use envelope::{
    AckCode, Envelope, EnvelopeError, IngestAck, OpCode, Response, SeqFrame, Status,
    DEFAULT_MAX_PAYLOAD, FIXED_HEADER, INGEST_ACK_LEN, MAGIC, MAX_TENANT_LEN, SEQ_FRAME_HEADER,
    VERSION,
};
pub use server::{Gateway, GatewayConfig, GatewayHandle};
pub use tenant::{DrainVerdict, RateLimit, TenantConfig, TenantRegistry, TenantRegistryBuilder};
pub use transport::Transport;
