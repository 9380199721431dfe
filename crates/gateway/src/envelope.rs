//! The gateway's framed envelope protocol.
//!
//! Every request on a gateway connection is one length-prefixed frame
//! carrying `pnm-wire` canonical packet bytes (or, for control opcodes,
//! a CRC-32 over `opcode | tenant`) plus a small envelope identifying the
//! tenant:
//!
//! ```text
//! magic(2 = "PG") | version(1) | opcode(1) | tenant_len(1) | tenant |
//! payload_len(4, BE) | payload
//! ```
//!
//! Responses are simpler — requests are answered in order on the same
//! connection, so no correlation id is needed:
//!
//! ```text
//! status(1) | payload_len(4, BE) | payload
//! ```
//!
//! Decoding is **total** in the same sense as `pnm-wire`: for any byte
//! stream the decoder returns a frame, "need more bytes", or a structured
//! [`EnvelopeError`] — never a panic, and never an allocation driven by an
//! unvalidated length field (both length fields are checked against hard
//! caps before any buffer grows). Because frames are delimited only by
//! their own lengths, a connection that produced an envelope error cannot
//! be resynchronized and must be closed; the gateway counts the rejection
//! first.

use std::fmt;

use pnm_obs::TraceContext;

/// Frame magic: `"PG"` (PNM gateway).
pub const MAGIC: [u8; 2] = *b"PG";

/// Protocol version this build speaks, and the only one it decodes: a
/// frame carrying any other version byte is a counted `bad_version`
/// rejection. Version 5 added the control frames' CRC.
pub const VERSION: u8 = 5;

/// Fixed bytes before the tenant id: magic + version + opcode + tenant_len.
pub const FIXED_HEADER: usize = 5;

/// Hard cap on the tenant-id length (the field is one byte, but tenant
/// names double as metrics label values, so keep them short).
pub const MAX_TENANT_LEN: usize = 64;

/// Default cap on a request payload. A marked packet is a few hundred
/// bytes; 1 MiB leaves two orders of magnitude of headroom while bounding
/// what a hostile length field can make the server buffer.
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;

/// What the client asks the gateway to do with a frame. Opcodes 0, 1 and
/// 7 are unassigned and decode as `bad_opcode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpCode {
    /// Respond with the whole gateway's Prometheus text exposition
    /// (every tenant, `tenant="..."` labels). The envelope's tenant field
    /// is ignored — scrape agents are not tenants.
    MetricsText = 2,
    /// Drain the tenant's pool and respond with its verdict: canonical
    /// evidence bytes plus a JSON summary (see
    /// [`crate::DrainVerdict`]). Idempotent — a second drain returns the
    /// same bytes.
    Drain = 3,
    /// Sequenced, acknowledged ingest — the one way a packet enters the
    /// gateway. Payload is a [`SeqFrame`]: the client's trace context
    /// (all-zero when untraced), client session id, monotone sequence
    /// number, a CRC-32 binding all of them to the tenant and the packet
    /// bytes, then the canonical packet. Always answered with
    /// [`Status::Ok`] carrying an [`IngestAck`] — the ack code, not the
    /// response status, carries the admission outcome, so a retried frame
    /// gets a structured `Duplicate`/`Busy`/`Drained` instead of a silent
    /// drop.
    IngestSeq = 4,
    /// Liveness probe: answered `Ok` with `"ok"` as long as the process
    /// serves frames, draining or not.
    Health = 5,
    /// Readiness probe: `Ok` with `"ready"` while the gateway accepts new
    /// work, `Rejected` with `"draining"` once graceful shutdown has
    /// begun.
    Ready = 6,
    /// Live ops surface: respond `Ok` with the tenant's metrics series as
    /// JSON — the same series [`OpCode::MetricsText`] exposes for it —
    /// plus its lifecycle state and the last anomaly its flight recorder
    /// dumped (see [`crate::TenantRegistry::ops_snapshot_json`]). Tenant
    /// `*` returns every tenant keyed by id.
    Ops = 8,
}

impl OpCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            2 => Some(OpCode::MetricsText),
            3 => Some(OpCode::Drain),
            4 => Some(OpCode::IngestSeq),
            5 => Some(OpCode::Health),
            6 => Some(OpCode::Ready),
            8 => Some(OpCode::Ops),
            _ => None,
        }
    }
}

/// One decoded request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// The requested operation.
    pub opcode: OpCode,
    /// Tenant id bytes (1..=[`MAX_TENANT_LEN`]).
    pub tenant: Vec<u8>,
    /// Operation payload: a [`SeqFrame`] for `IngestSeq`, the 4-byte
    /// CRC-32 (BE) over `opcode | tenant` for every control opcode.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Builds a control frame, whose payload is the CRC-32 over
    /// `opcode | tenant`: a `Drain` whose tenant byte flips on the wire is
    /// answered [`Status::Error`]`("corrupt request")` instead of naming
    /// another, or no, tenant.
    pub fn control(opcode: OpCode, tenant: &[u8]) -> Self {
        Envelope {
            opcode,
            tenant: tenant.to_vec(),
            payload: control_crc(opcode, tenant).to_be_bytes().to_vec(),
        }
    }

    /// Whether this control frame's payload is the CRC of its opcode and
    /// tenant.
    pub(crate) fn control_intact(&self) -> bool {
        self.payload == control_crc(self.opcode, &self.tenant).to_be_bytes()
    }

    /// Builds an untraced ingest frame (see [`SeqFrame`]).
    pub fn ingest_seq(tenant: &[u8], session: u64, seq: u64, packet_bytes: &[u8]) -> Self {
        Self::ingest_seq_ctx(tenant, TraceContext::NONE, session, seq, packet_bytes)
    }

    /// Builds an ingest frame carrying the client's trace context: `ctx`
    /// names the client's trace and the span the server-side spans
    /// should hang under ([`TraceContext::NONE`] when untraced).
    pub fn ingest_seq_ctx(
        tenant: &[u8],
        ctx: TraceContext,
        session: u64,
        seq: u64,
        packet_bytes: &[u8],
    ) -> Self {
        Envelope {
            opcode: OpCode::IngestSeq,
            tenant: tenant.to_vec(),
            payload: SeqFrame::encode_payload_ctx(tenant, ctx, session, seq, packet_bytes),
        }
    }

    /// Canonical frame encoding.
    ///
    /// # Panics
    ///
    /// Panics if the tenant id is empty or longer than
    /// [`MAX_TENANT_LEN`], or the payload exceeds `u32::MAX` — both are
    /// caller bugs, not wire conditions.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            !self.tenant.is_empty() && self.tenant.len() <= MAX_TENANT_LEN,
            "tenant id must be 1..={MAX_TENANT_LEN} bytes"
        );
        assert!(u32::try_from(self.payload.len()).is_ok(), "payload too big");
        let mut out = Vec::with_capacity(FIXED_HEADER + self.tenant.len() + 4 + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.opcode as u8);
        out.push(self.tenant.len() as u8);
        out.extend_from_slice(&self.tenant);
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Tries to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(Some((envelope, consumed)))` on a complete frame,
    /// `Ok(None)` when `buf` holds a valid but incomplete prefix (read
    /// more bytes and retry), or a structured [`EnvelopeError`] as soon as
    /// the prefix can no longer begin a valid frame. Total: never panics,
    /// never allocates more than the frame's checked lengths.
    pub fn decode(
        buf: &[u8],
        max_payload: usize,
    ) -> Result<Option<(Envelope, usize)>, EnvelopeError> {
        // Validate fixed fields as soon as their bytes exist, so garbage
        // fails fast instead of stalling as a "partial frame".
        if !buf.is_empty() && buf[0] != MAGIC[0] {
            return Err(EnvelopeError::BadMagic([buf[0], 0]));
        }
        if buf.len() >= 2 && buf[..2] != MAGIC {
            return Err(EnvelopeError::BadMagic([buf[0], buf[1]]));
        }
        if buf.len() >= 3 && buf[2] != VERSION {
            return Err(EnvelopeError::BadVersion(buf[2]));
        }
        if buf.len() >= 4 && OpCode::from_u8(buf[3]).is_none() {
            return Err(EnvelopeError::BadOpcode(buf[3]));
        }
        if buf.len() >= 5 && (buf[4] == 0 || buf[4] as usize > MAX_TENANT_LEN) {
            return Err(EnvelopeError::BadTenantLen(buf[4]));
        }
        if buf.len() < FIXED_HEADER {
            return Ok(None);
        }
        let opcode = OpCode::from_u8(buf[3]).expect("validated above");
        let tenant_len = buf[4] as usize;
        let len_off = FIXED_HEADER + tenant_len;
        if buf.len() < len_off + 4 {
            return Ok(None);
        }
        let declared = u32::from_be_bytes([
            buf[len_off],
            buf[len_off + 1],
            buf[len_off + 2],
            buf[len_off + 3],
        ]) as usize;
        if declared > max_payload {
            return Err(EnvelopeError::PayloadTooLarge {
                declared,
                max: max_payload,
            });
        }
        let end = len_off + 4 + declared;
        if buf.len() < end {
            return Ok(None);
        }
        Ok(Some((
            Envelope {
                opcode,
                tenant: buf[FIXED_HEADER..len_off].to_vec(),
                payload: buf[len_off + 4..end].to_vec(),
            },
            end,
        )))
    }
}

/// CRC-32/IEEE over `opcode | tenant`: a control frame's payload.
fn control_crc(opcode: OpCode, tenant: &[u8]) -> u32 {
    let mut bound = Vec::with_capacity(1 + tenant.len());
    bound.push(opcode as u8);
    bound.extend_from_slice(tenant);
    pnm_core::store::crc32(&bound)
}

/// The payload of an [`OpCode::IngestSeq`] frame:
///
/// ```text
/// trace(8, BE) | parent(8, BE) | session(8, BE) | seq(8, BE) |
/// crc32(4, BE) | packet bytes
/// ```
///
/// `trace | parent` is the client's [`TraceContext`] in its wire form
/// ([`TraceContext::to_bytes`]), all-zero for an untraced send. `trace`
/// is minted once per logical send (retries reuse it, so one packet is
/// one trace no matter how many times the wire ate it) and `parent` is
/// the client-side span the gateway's `gateway.ingest` span becomes a
/// child of. `session` identifies one client instance for the lifetime
/// of its retry state (it survives reconnects — that is the point);
/// `seq` is the client's monotone per-session sequence number.
///
/// The CRC is CRC-32/IEEE over
/// `tenant | trace | parent | session | seq | packet`, binding the frame
/// to its tenant so a bit-flipped tenant id (or trace id, session,
/// sequence number, or packet byte) is detected end-to-end as
/// [`AckCode::Corrupt`] instead of being absorbed or spliced into
/// another trace — the integrity check that makes "acked ≡ counted
/// exactly once" hold under wire corruption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqFrame {
    /// Client trace context ([`TraceContext::NONE`] when untraced).
    pub ctx: TraceContext,
    /// Client session id (stable across reconnects).
    pub session: u64,
    /// Monotone per-session sequence number.
    pub seq: u64,
    /// Canonical packet bytes.
    pub packet: Vec<u8>,
}

/// The CRC-covered fields before a [`SeqFrame`]'s CRC: trace context,
/// session, seq.
const SEQ_FRAME_FIELDS: usize = TraceContext::WIRE_LEN + 8 + 8;

/// Fixed prefix of a [`SeqFrame`] payload: trace context, session, seq,
/// crc.
pub const SEQ_FRAME_HEADER: usize = SEQ_FRAME_FIELDS + 4;

impl SeqFrame {
    /// CRC-32/IEEE over `tenant | fields | packet`.
    fn crc(tenant: &[u8], fields: &[u8], packet: &[u8]) -> u32 {
        let mut bound = Vec::with_capacity(tenant.len() + fields.len() + packet.len());
        bound.extend_from_slice(tenant);
        bound.extend_from_slice(fields);
        bound.extend_from_slice(packet);
        pnm_core::store::crc32(&bound)
    }

    /// Encodes an untraced payload for [`Envelope::ingest_seq`].
    pub fn encode_payload(tenant: &[u8], session: u64, seq: u64, packet: &[u8]) -> Vec<u8> {
        Self::encode_payload_ctx(tenant, TraceContext::NONE, session, seq, packet)
    }

    /// Encodes the payload for [`Envelope::ingest_seq_ctx`].
    pub fn encode_payload_ctx(
        tenant: &[u8],
        ctx: TraceContext,
        session: u64,
        seq: u64,
        packet: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEQ_FRAME_HEADER + packet.len());
        out.extend_from_slice(&ctx.to_bytes());
        out.extend_from_slice(&session.to_be_bytes());
        out.extend_from_slice(&seq.to_be_bytes());
        let crc = Self::crc(tenant, &out, packet);
        out.extend_from_slice(&crc.to_be_bytes());
        out.extend_from_slice(packet);
        out
    }

    /// Decodes and integrity-checks an `IngestSeq` payload against the
    /// envelope's tenant. Total: too-short payloads and CRC mismatches
    /// come back as `Err` (the caller answers [`AckCode::Corrupt`]),
    /// never a panic.
    pub fn decode_payload(tenant: &[u8], payload: &[u8]) -> Result<Self, &'static str> {
        if payload.len() < SEQ_FRAME_HEADER {
            return Err("seq frame shorter than its header");
        }
        let (fields, rest) = payload.split_at(SEQ_FRAME_FIELDS);
        let (crc, packet) = rest.split_at(4);
        if Self::crc(tenant, fields, packet) != u32::from_be_bytes(crc.try_into().expect("sized")) {
            return Err("seq frame crc mismatch");
        }
        let (ctx, numbers) = fields.split_at(TraceContext::WIRE_LEN);
        Ok(SeqFrame {
            ctx: TraceContext::from_bytes(ctx.try_into().expect("sized")),
            session: u64::from_be_bytes(numbers[..8].try_into().expect("sized")),
            seq: u64::from_be_bytes(numbers[8..].try_into().expect("sized")),
            packet: packet.to_vec(),
        })
    }
}

/// Outcome code inside an [`IngestAck`].
///
/// `Accepted` and `Duplicate` both mean **counted exactly once** — the
/// packet is (already) absorbed into the tenant's evidence; everything
/// else means **not counted**. Retryable codes (`Busy`, `Corrupt`,
/// `RateLimited`) invite the client to resend the same sequence number;
/// terminal codes (`Malformed`, `Drained`, `UnknownTenant`) will never
/// succeed and the client should give the packet up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckCode {
    /// Counted: enqueued into the tenant's pool and recorded in the
    /// dedup window.
    Accepted = 0,
    /// Counted earlier: the (session, seq) is already in the dedup
    /// window; this retry was **not** absorbed a second time.
    Duplicate = 1,
    /// Not counted: the tenant's pool shed the packet. The ack's
    /// `retry_after_ms` says when to try again — the structured reply
    /// that replaces a silent shed.
    Busy = 2,
    /// Not counted, terminal: the packet bytes fail `Packet::from_bytes`.
    Malformed = 3,
    /// Not counted, retryable: the frame failed its CRC (bit damage
    /// between client and server).
    Corrupt = 4,
    /// Not counted, terminal: the tenant is drained; its verdict is final.
    Drained = 5,
    /// Not counted, retryable: the tenant's token bucket was empty.
    RateLimited = 6,
    /// Not counted, terminal: no such tenant is provisioned.
    UnknownTenant = 7,
}

impl AckCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(AckCode::Accepted),
            1 => Some(AckCode::Duplicate),
            2 => Some(AckCode::Busy),
            3 => Some(AckCode::Malformed),
            4 => Some(AckCode::Corrupt),
            5 => Some(AckCode::Drained),
            6 => Some(AckCode::RateLimited),
            7 => Some(AckCode::UnknownTenant),
            _ => None,
        }
    }

    /// Whether this outcome means the packet is counted (exactly once).
    pub fn is_counted(self) -> bool {
        matches!(self, AckCode::Accepted | AckCode::Duplicate)
    }

    /// Whether resending the same sequence number can change the outcome.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            AckCode::Busy | AckCode::Corrupt | AckCode::RateLimited
        )
    }

    /// Stable short name (metrics label / log text).
    pub fn reason(self) -> &'static str {
        match self {
            AckCode::Accepted => "accepted",
            AckCode::Duplicate => "duplicate",
            AckCode::Busy => "busy",
            AckCode::Malformed => "malformed",
            AckCode::Corrupt => "corrupt",
            AckCode::Drained => "drained",
            AckCode::RateLimited => "rate_limited",
            AckCode::UnknownTenant => "unknown_tenant",
        }
    }
}

/// The response payload to an [`OpCode::IngestSeq`] frame:
///
/// ```text
/// code(1) | seq(8, BE) | retry_after_ms(4, BE) | trace(8, BE) | crc32(4, BE)
/// ```
///
/// The CRC covers every byte before it, so a bit-flipped ack (say,
/// `Malformed` damaged into `Duplicate`, which would make the client
/// book an uncounted packet as counted) is rejected by the client and
/// retried instead of trusted. The ack echoes the request's sequence
/// number and trace id (0 when untraced), and the client checks both, so
/// a misattributed ack cannot book the wrong packet or close the wrong
/// trace. Only a `Corrupt` ack echoes zeros: the server could not trust
/// the frame's own numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestAck {
    /// Admission outcome.
    pub code: AckCode,
    /// Echo of the request's sequence number — the client checks it
    /// against its outstanding request.
    pub seq: u64,
    /// For [`AckCode::Busy`]: suggested wait before retrying, in
    /// milliseconds. Zero otherwise.
    pub retry_after_ms: u32,
    /// Echo of the request's trace id (0 when untraced).
    pub trace: u64,
}

/// Exact byte length of an encoded [`IngestAck`].
pub const INGEST_ACK_LEN: usize = 1 + 8 + 4 + 8 + 4;

impl IngestAck {
    /// An ack with no retry hint and no trace echo.
    pub fn new(code: AckCode, seq: u64) -> Self {
        IngestAck {
            code,
            seq,
            retry_after_ms: 0,
            trace: 0,
        }
    }

    /// Sets the retry hint (meaningful for [`AckCode::Busy`] and
    /// [`AckCode::RateLimited`]).
    pub fn with_retry_after(mut self, ms: u32) -> Self {
        self.retry_after_ms = ms;
        self
    }

    /// Echoes the request's trace id.
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = trace;
        self
    }

    /// Canonical [`INGEST_ACK_LEN`]-byte encoding (see type docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(INGEST_ACK_LEN);
        out.push(self.code as u8);
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.retry_after_ms.to_be_bytes());
        out.extend_from_slice(&self.trace.to_be_bytes());
        let crc = pnm_core::store::crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Decodes and integrity-checks an ack payload. Total: wrong length,
    /// unknown code, and CRC damage are `Err`, never a panic.
    pub fn decode(payload: &[u8]) -> Result<Self, &'static str> {
        if payload.len() != INGEST_ACK_LEN {
            return Err("ack payload has the wrong length");
        }
        let (body, crc) = payload.split_at(INGEST_ACK_LEN - 4);
        if pnm_core::store::crc32(body) != u32::from_be_bytes(crc.try_into().expect("sized")) {
            return Err("ack crc mismatch");
        }
        let code = AckCode::from_u8(body[0]).ok_or("unknown ack code")?;
        Ok(IngestAck {
            code,
            seq: u64::from_be_bytes(body[1..9].try_into().expect("sized")),
            retry_after_ms: u32::from_be_bytes(body[9..13].try_into().expect("sized")),
            trace: u64::from_be_bytes(body[13..21].try_into().expect("sized")),
        })
    }
}

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The operation succeeded; the payload is its result.
    Ok = 0,
    /// The operation was refused (unknown tenant, drained tenant); the
    /// payload is a short human-readable reason.
    Rejected = 1,
    /// The connection violated the protocol; the payload is the reason
    /// and the server closes the connection after writing it.
    Error = 2,
}

impl Status {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::Rejected),
            2 => Some(Status::Error),
            _ => None,
        }
    }
}

/// One decoded response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Outcome of the request.
    pub status: Status,
    /// Result bytes (`Ok`) or a reason string (`Rejected`/`Error`).
    pub payload: Vec<u8>,
}

impl Response {
    /// Builds a response.
    pub fn new(status: Status, payload: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            payload: payload.into(),
        }
    }

    /// Canonical response encoding: `status | payload_len(4, BE) | payload`.
    pub fn encode(&self) -> Vec<u8> {
        assert!(u32::try_from(self.payload.len()).is_ok(), "payload too big");
        let mut out = Vec::with_capacity(5 + self.payload.len());
        out.push(self.status as u8);
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Tries to decode one response from the front of `buf`; same
    /// contract as [`Envelope::decode`].
    pub fn decode(
        buf: &[u8],
        max_payload: usize,
    ) -> Result<Option<(Response, usize)>, EnvelopeError> {
        if buf.is_empty() {
            return Ok(None);
        }
        let Some(status) = Status::from_u8(buf[0]) else {
            return Err(EnvelopeError::BadStatus(buf[0]));
        };
        if buf.len() < 5 {
            return Ok(None);
        }
        let declared = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
        if declared > max_payload {
            return Err(EnvelopeError::PayloadTooLarge {
                declared,
                max: max_payload,
            });
        }
        if buf.len() < 5 + declared {
            return Ok(None);
        }
        Ok(Some((
            Response {
                status,
                payload: buf[5..5 + declared].to_vec(),
            },
            5 + declared,
        )))
    }
}

/// Why a byte stream cannot continue as a valid frame sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The first two bytes are not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Tenant length zero or beyond [`MAX_TENANT_LEN`].
    BadTenantLen(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Declared payload length exceeds the negotiated cap.
    PayloadTooLarge {
        /// The length the frame claimed.
        declared: usize,
        /// The cap it violated.
        max: usize,
    },
}

impl EnvelopeError {
    /// Stable short name, used as the `reason` label on rejection
    /// counters.
    pub fn reason(&self) -> &'static str {
        match self {
            EnvelopeError::BadMagic(_) => "bad_magic",
            EnvelopeError::BadVersion(_) => "bad_version",
            EnvelopeError::BadOpcode(_) => "bad_opcode",
            EnvelopeError::BadTenantLen(_) => "bad_tenant_len",
            EnvelopeError::BadStatus(_) => "bad_status",
            EnvelopeError::PayloadTooLarge { .. } => "oversized",
        }
    }
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::BadMagic(b) => write!(f, "bad frame magic {b:02x?}"),
            EnvelopeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            EnvelopeError::BadOpcode(v) => write!(f, "unknown opcode {v}"),
            EnvelopeError::BadTenantLen(v) => write!(f, "tenant length {v} out of range"),
            EnvelopeError::BadStatus(v) => write!(f, "unknown response status {v}"),
            EnvelopeError::PayloadTooLarge { declared, max } => {
                write!(f, "declared payload {declared} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACED: TraceContext = TraceContext {
        trace: 0xdead_beef,
        parent: 0x77,
    };

    fn sample() -> Envelope {
        Envelope::ingest_seq(b"alpha", 0xfeed, 42, b"some canonical packet bytes")
    }

    #[test]
    fn round_trip() {
        for env in [
            sample(),
            Envelope::ingest_seq_ctx(b"alpha", TRACED, 0xfeed, 42, b"packet bytes"),
            Envelope::control(OpCode::MetricsText, b"scraper"),
            Envelope::control(OpCode::Drain, &[0xff; MAX_TENANT_LEN]),
            Envelope::control(OpCode::Health, b"_"),
            Envelope::control(OpCode::Ready, b"_"),
            Envelope::control(OpCode::Ops, b"alpha"),
            Envelope::control(OpCode::Ops, b"*"),
        ] {
            let bytes = env.encode();
            let (decoded, used) = Envelope::decode(&bytes, DEFAULT_MAX_PAYLOAD)
                .unwrap()
                .unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, env);
        }
    }

    #[test]
    fn response_round_trip() {
        for resp in [
            Response::new(Status::Ok, &b"payload"[..]),
            Response::new(Status::Rejected, &b"unknown tenant"[..]),
            Response::new(Status::Error, &b""[..]),
        ] {
            let bytes = resp.encode();
            let (decoded, used) = Response::decode(&bytes, DEFAULT_MAX_PAYLOAD)
                .unwrap()
                .unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn every_truncation_is_incomplete_not_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Envelope::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD).unwrap(),
                None,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let a = sample();
        let b = Envelope::control(OpCode::Drain, b"beta");
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let (first, used) = Envelope::decode(&stream, DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(first, a);
        let (second, used2) = Envelope::decode(&stream[used..], DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, stream.len());
    }

    #[test]
    fn garbage_prefixes_fail_fast() {
        assert_eq!(
            Envelope::decode(b"XX", 64).unwrap_err().reason(),
            "bad_magic"
        );
        // Wrong first byte fails on one byte already.
        assert_eq!(
            Envelope::decode(b"Q", 64).unwrap_err().reason(),
            "bad_magic"
        );
        // Only the current version decodes: a stale client's frame is a
        // version mismatch, never misread as wire damage.
        for version in [b"PG\x01", b"PG\x02", b"PG\x03", b"PG\x04", b"PG\x07"] {
            assert_eq!(
                Envelope::decode(version, 64).unwrap_err().reason(),
                "bad_version"
            );
        }
        // The removed ingest opcodes (0 and 7) and the removed `Snapshot`
        // opcode (1) are unknown opcodes now.
        for opcode in [b"PG\x05\x63", b"PG\x05\x00", b"PG\x05\x01", b"PG\x05\x07"] {
            assert_eq!(
                Envelope::decode(opcode, 64).unwrap_err().reason(),
                "bad_opcode"
            );
        }
        assert_eq!(
            Envelope::decode(b"PG\x05\x02\x00", 64)
                .unwrap_err()
                .reason(),
            "bad_tenant_len"
        );
    }

    #[test]
    fn oversized_payload_rejected_before_buffering() {
        let mut bytes = sample().encode();
        // Rewrite the payload length field to something absurd.
        let len_off = FIXED_HEADER + 5; // tenant "alpha"
        bytes[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Envelope::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            EnvelopeError::PayloadTooLarge { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "tenant id")]
    fn encoding_empty_tenant_is_a_caller_bug() {
        let _ = Envelope::ingest_seq(b"", 0, 0, b"x").encode();
    }

    #[test]
    fn seq_frame_binds_tenant_session_seq_and_packet() {
        for ctx in [TraceContext::NONE, TRACED] {
            let payload = SeqFrame::encode_payload_ctx(b"alpha", ctx, 7, 9, b"pkt");
            assert_eq!(payload.len(), SEQ_FRAME_HEADER + 3);
            let frame = SeqFrame::decode_payload(b"alpha", &payload).unwrap();
            assert_eq!(
                (frame.ctx, frame.session, frame.seq, frame.packet.as_slice()),
                (ctx, 7, 9, &b"pkt"[..])
            );
            // Wrong tenant → CRC mismatch (a bit-flipped tenant id cannot
            // be silently absorbed by a neighbouring tenant).
            assert!(SeqFrame::decode_payload(b"alphb", &payload).is_err());
            // Any flipped byte → CRC mismatch — including the trace
            // context, so a damaged trace id cannot splice the packet
            // into another trace.
            for i in 0..payload.len() {
                let mut damaged = payload.clone();
                damaged[i] ^= 0x10;
                assert!(
                    SeqFrame::decode_payload(b"alpha", &damaged).is_err(),
                    "flip at {i} must not verify"
                );
            }
            assert!(SeqFrame::decode_payload(b"alpha", &payload[..20]).is_err());
        }
        // The untraced shorthand is the all-zero context.
        assert_eq!(
            SeqFrame::encode_payload(b"alpha", 7, 9, b"pkt"),
            SeqFrame::encode_payload_ctx(b"alpha", TraceContext::NONE, 7, 9, b"pkt")
        );
    }

    #[test]
    fn ingest_ack_round_trips_and_rejects_damage() {
        for ack in [
            IngestAck::new(AckCode::Accepted, 3),
            IngestAck::new(AckCode::Duplicate, u64::MAX),
            IngestAck {
                code: AckCode::Busy,
                seq: 12,
                retry_after_ms: 250,
                trace: 0,
            },
            IngestAck::new(AckCode::Accepted, 3).with_trace(0xfeed_f00d),
            IngestAck::new(AckCode::RateLimited, 4)
                .with_retry_after(25)
                .with_trace(u64::MAX),
        ] {
            let bytes = ack.encode();
            assert_eq!(bytes.len(), INGEST_ACK_LEN);
            assert_eq!(IngestAck::decode(&bytes).unwrap(), ack);
        }
        // A single flipped bit anywhere is detected — including the code
        // byte, where Malformed→Duplicate would otherwise book an
        // uncounted packet as counted, and the trace echo.
        for trace in [0, 0xfeed_f00d] {
            let bytes = IngestAck::new(AckCode::Malformed, 5)
                .with_trace(trace)
                .encode();
            for i in 0..bytes.len() {
                let mut damaged = bytes.clone();
                damaged[i] ^= 0x02;
                assert!(IngestAck::decode(&damaged).is_err(), "flip at {i}");
            }
            assert!(IngestAck::decode(&bytes[..7]).is_err());
            // The 17-byte ack of earlier versions is a wrong length.
            assert!(IngestAck::decode(&bytes[..17]).is_err());
        }
    }

    #[test]
    fn ack_code_classification() {
        for code in [
            AckCode::Accepted,
            AckCode::Duplicate,
            AckCode::Busy,
            AckCode::Malformed,
            AckCode::Corrupt,
            AckCode::Drained,
            AckCode::RateLimited,
            AckCode::UnknownTenant,
        ] {
            assert_eq!(
                code.is_counted(),
                matches!(code, AckCode::Accepted | AckCode::Duplicate)
            );
            // No code is both counted and retryable.
            assert!(!(code.is_counted() && code.is_retryable()));
        }
    }
}
