//! Decode-totality fuzzing for the gateway envelope, mirroring
//! `crates/wire/tests/fuzz_decode.rs`, plus the same property proven at
//! the socket: a live gateway fed arbitrary, bit-flipped, and truncated
//! frames over real connections never panics, and every frame is
//! accounted exactly once — accepted, rejected as a malformed packet,
//! rejected as corrupt, or rejected as a bad frame.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pnm_core::{SinkConfig, VerifyMode};
use pnm_gateway::{
    AckCode, Envelope, Gateway, GatewayConfig, IngestAck, OpCode, Response, SeqFrame, Status,
    TenantConfig, TenantRegistry, DEFAULT_MAX_PAYLOAD, FIXED_HEADER,
};
use pnm_obs::TraceContext;
use pnm_service::ServiceConfig;
use pnm_sim::AttackStream;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: both decoders return without panicking, and a
    /// successful parse implies the consumed prefix was the canonical
    /// encoding.
    #[test]
    fn arbitrary_bytes_decode_totally(bytes in vec(any::<u8>(), 0..512)) {
        if let Ok(Some((env, used))) = Envelope::decode(&bytes, DEFAULT_MAX_PAYLOAD) {
            prop_assert!(used <= bytes.len());
            prop_assert_eq!(&env.encode()[..], &bytes[..used]);
        }
        if let Ok(Some((resp, used))) = Response::decode(&bytes, DEFAULT_MAX_PAYLOAD) {
            prop_assert!(used <= bytes.len());
            prop_assert_eq!(&resp.encode()[..], &bytes[..used]);
        }
    }

    /// A valid frame with one flipped bit either still parses, reports
    /// "need more bytes", or fails with a structured error — never a
    /// panic, and a parse that succeeds is still canonical. Ingest frames
    /// (traced and untraced) are CRC-bound end to end: one that still
    /// parses as `IngestSeq` after the flip never passes its CRC.
    #[test]
    fn bit_flipped_frames_decode_totally(
        tenant_len in 1usize..=16,
        payload in vec(any::<u8>(), 0..64),
        opcode in 0u8..5,
        trace in any::<u64>(),
        byte_salt in any::<u64>(),
        bit in 0u8..8,
    ) {
        let tenant = vec![b't'; tenant_len];
        let traced = TraceContext { trace, parent: 3 };
        let env = match opcode {
            0 => Envelope::ingest_seq(&tenant, 1, 2, &payload),
            1 => Envelope::ingest_seq_ctx(&tenant, traced, 1, 2, &payload),
            op => {
                let controls = [OpCode::Ops, OpCode::MetricsText, OpCode::Drain];
                let mut env = Envelope::control(controls[usize::from(op) - 2], &tenant);
                env.payload = payload;
                env
            }
        };
        let mut bytes = env.encode();
        let idx = (byte_salt % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << bit;
        if let Ok(Some((decoded, used))) = Envelope::decode(&bytes, DEFAULT_MAX_PAYLOAD) {
            prop_assert_eq!(&decoded.encode()[..], &bytes[..used]);
            if decoded.opcode == OpCode::IngestSeq {
                prop_assert!(SeqFrame::decode_payload(&decoded.tenant, &decoded.payload).is_err());
            }
        }
    }

    /// Every strict prefix of a valid frame is "need more bytes" — the
    /// self-delimiting encoding leaves no byte optional, so truncation is
    /// indistinguishable from a slow sender and never an error.
    #[test]
    fn truncated_frames_ask_for_more(
        tenant_len in 1usize..=16,
        payload in vec(any::<u8>(), 0..64),
        cut_salt in any::<u64>(),
    ) {
        let bytes = Envelope::ingest_seq(&vec![b't'; tenant_len], 1, 2, &payload).encode();
        let cut = (cut_salt % bytes.len() as u64) as usize;
        prop_assert_eq!(Envelope::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD).unwrap(), None);
    }
}

fn temp_sock(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-gwfz-{}-{}-{}.sock",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn counter_value(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A frame as an earlier protocol version's client would send it: the
/// version byte and that version's ingest opcode around a payload.
fn stale_frame(version: u8, opcode: u8) -> Vec<u8> {
    let mut f = Envelope::ingest_seq(b"alpha", 1, 0, b"x").encode();
    f[2] = version;
    f[3] = opcode;
    f
}

/// The socket-level totality claim: hostile frames over live connections
/// never kill the gateway, and the books balance exactly — every ingest
/// frame that reached the server is acked and counted once (accepted,
/// malformed, or corrupt), and every garbage connection is counted as
/// exactly one bad frame under its reason.
#[test]
fn hostile_streams_over_socket_never_panic_and_are_exactly_counted() {
    const FLIPPED: u64 = 40;
    let stream = AttackStream::pnm(4, None, FLIPPED as usize, 0xf02a);
    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "alpha",
                TenantConfig::new(
                    Arc::clone(&stream.keys),
                    ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(1),
                ),
            )
            .build()
            .unwrap(),
    );
    let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
    let sock = temp_sock("hostile");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    // 40 ingest frames, alternately traced and untraced, each with one
    // bit flipped, pipelined over one connection. Even frames carry the
    // flip inside the packet bytes under a valid CRC (the packet may no
    // longer be canonical: Accepted or Malformed); odd frames carry it in
    // the framed payload, after the CRC was computed (always Corrupt).
    let mut tally: BTreeMap<&'static str, u64> = BTreeMap::new();
    {
        let mut conn = UnixStream::connect(&sock).unwrap();
        let mut sent = Vec::new();
        for (seq, pkt) in (0..).zip(&stream.packets) {
            let ctx = if seq % 4 < 2 {
                TraceContext::NONE
            } else {
                TraceContext {
                    trace: 0x7ace_0000 + seq,
                    parent: seq,
                }
            };
            let mut bytes = pkt.to_bytes();
            let flip = |buf: &mut Vec<u8>, from: usize| {
                let idx = from + (seq as usize * 31) % (buf.len() - from);
                buf[idx] ^= 1 << (seq % 8);
            };
            if seq % 2 == 0 {
                flip(&mut bytes, 0);
            }
            let mut frame = Envelope::ingest_seq_ctx(b"alpha", ctx, 1, seq, &bytes).encode();
            if seq % 2 == 1 {
                // Envelope header is 5 + tenant(5) + payload_len(4) = 14
                // bytes; flip strictly inside the payload.
                flip(&mut frame, FIXED_HEADER + 5 + 4);
            }
            conn.write_all(&frame).unwrap();
            sent.push((seq, ctx.trace));
        }
        // Every frame is answered, in order: the acks are the sync.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        for (seq, trace) in sent {
            let resp = loop {
                if let Some((resp, used)) = Response::decode(&buf, 1 << 20).unwrap() {
                    buf.drain(..used);
                    break resp;
                }
                let n = conn.read(&mut chunk).unwrap();
                assert!(n > 0, "gateway closed before acking frame {seq}");
                buf.extend_from_slice(&chunk[..n]);
            };
            assert_eq!(resp.status, Status::Ok);
            let ack = IngestAck::decode(&resp.payload).unwrap();
            match ack.code {
                AckCode::Corrupt => {
                    assert_eq!(seq % 2, 1, "a CRC-valid frame is never corrupt");
                    assert_eq!((ack.seq, ack.trace), (0, 0));
                }
                AckCode::Accepted | AckCode::Malformed => {
                    assert_eq!(seq % 2, 0, "a flip after the CRC is always caught");
                    assert_eq!((ack.seq, ack.trace), (seq, trace), "ack echoes its frame");
                }
                other => panic!("frame {seq}: unexpected ack {other:?}"),
            }
            *tally.entry(ack.code.reason()).or_default() += 1;
        }
    }
    assert_eq!(tally.get("corrupt"), Some(&(FLIPPED / 2)));
    assert!(
        tally.get("malformed").copied().unwrap_or(0) > 0,
        "bit flips in packet bytes should break some packets"
    );

    // 16 garbage connections: each stream's first frame is unambiguously
    // invalid, so each is exactly one counted bad frame + an Error
    // response + a close. Frames from earlier protocol versions (1–3,
    // each with its own ingest opcode) are version mismatches.
    const GARBAGE: u64 = 16;
    let mut expected: BTreeMap<&'static str, u64> = BTreeMap::new();
    for i in 0..GARBAGE {
        let mut conn = UnixStream::connect(&sock).unwrap();
        let (stream, reason): (Vec<u8>, &str) = match i % 8 {
            0 => (b"\x00\x00\x00\x00".to_vec(), "bad_magic"),
            1 => (b"Qmost-of-a-frame".to_vec(), "bad_magic"),
            2 => (b"PG\xff".to_vec(), "bad_version"),
            3 => (b"PG\x05\x7f".to_vec(), "bad_opcode"),
            4 => {
                // Valid prefix, absurd declared payload length.
                let mut f = Envelope::ingest_seq(b"alpha", 1, 0, b"x").encode();
                f[10..14].copy_from_slice(&u32::MAX.to_be_bytes());
                (f, "oversized")
            }
            5 => (stale_frame(1, 0), "bad_version"),
            6 => (stale_frame(2, 4), "bad_version"),
            _ => (stale_frame(3, 7), "bad_version"),
        };
        *expected.entry(reason).or_default() += 1;
        conn.write_all(&stream).unwrap();
        let mut raw = Vec::new();
        conn.read_to_end(&mut raw).unwrap();
        let (resp, _) = Response::decode(&raw, 1 << 20).unwrap().unwrap();
        assert_eq!(resp.status, Status::Error, "stream {i}");
    }

    // Books must balance exactly: the counters agree with the acks, bad
    // frames == garbage connections per reason, and the gateway is still
    // alive.
    let text = registry.metrics_text();
    for (reason, series) in [
        ("accepted", "pnm_gateway_ingested_total{tenant=\"alpha\"}"),
        (
            "malformed",
            "pnm_gateway_rejected_total{reason=\"malformed\",tenant=\"alpha\"}",
        ),
        (
            "corrupt",
            "pnm_gateway_rejected_total{reason=\"corrupt\",tenant=\"alpha\"}",
        ),
    ] {
        assert_eq!(
            counter_value(&text, series),
            tally.get(reason).copied().unwrap_or(0),
            "{reason}\n{text}"
        );
    }
    assert_eq!(tally.values().sum::<u64>(), FLIPPED);
    for (reason, count) in &expected {
        assert_eq!(
            counter_value(
                &text,
                &format!("pnm_gateway_bad_frames_total{{reason=\"{reason}\"}}"),
            ),
            *count,
            "{reason}\n{text}"
        );
    }
    assert_eq!(expected.values().sum::<u64>(), GARBAGE);
    registry
        .drain(b"alpha")
        .expect("gateway still serving after hostile streams");
    handle.shutdown();
}
