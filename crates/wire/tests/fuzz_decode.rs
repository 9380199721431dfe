//! Decode-totality fuzzing for the wire formats.
//!
//! The sink's robustness story (graceful degradation under the fault
//! layer's bit corruption) rests on one wire-level guarantee: decoding is
//! **total**. For any byte string — random garbage, a bit-flipped valid
//! packet, a truncated prefix — every decoder returns `Ok` or a
//! structured [`WireError`]; it never panics, and it never allocates
//! unboundedly from an attacker-controlled length field. These properties
//! drive each decoder with both shapes of hostile input.

use pnm_crypto::MacKey;
use pnm_wire::{Location, Mark, NodeId, Packet, Report};
use proptest::collection::vec;
use proptest::prelude::*;

/// A realistic marked packet: `n_marks` nested MACs over the running
/// encoding, exactly as a forwarding chain would produce.
fn marked_packet(event: &[u8], n_marks: usize) -> Packet {
    let report = Report::new(event.to_vec(), Location::new(1.5, -2.5), 42);
    let mut pkt = Packet::new(report);
    for i in 0..n_marks {
        let key = MacKey::derive(b"fuzz", i as u64);
        let mac = key.mark_mac(&pkt.to_bytes(), 8);
        pkt.push_mark(Mark::plain(NodeId(i as u16), mac));
    }
    pkt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: every decoder returns without panicking, and a
    /// successful parse implies the input was the canonical encoding
    /// (re-encoding reproduces it byte for byte).
    #[test]
    fn arbitrary_bytes_decode_totally(bytes in vec(any::<u8>(), 0..256)) {
        if let Ok(pkt) = Packet::from_bytes(&bytes) {
            prop_assert_eq!(pkt.to_bytes(), bytes.clone());
        }
        if let Ok((report, used)) = Report::parse(&bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert_eq!(&report.to_bytes()[..], &bytes[..used]);
        }
        if bytes.len() >= 2 {
            let _ = NodeId::from_bytes([bytes[0], bytes[1]]);
        }
        if let Some((&first, rest)) = bytes.split_first() {
            let _ = first; // discriminant position is byte 0 for marks
            let _ = Mark::parse(&bytes);
            let _ = Mark::parse(rest);
        }
    }

    /// A valid marked packet with a single flipped bit — the fault
    /// layer's exact corruption primitive — either still parses (the flip
    /// hit a payload byte) or fails with a structured error. Never a
    /// panic, and a successful parse is still canonical.
    #[test]
    fn bit_flipped_packets_decode_totally(
        event in vec(any::<u8>(), 0..24),
        n_marks in 0usize..12,
        byte_salt in any::<u64>(),
        bit in 0u8..8,
    ) {
        let bytes = marked_packet(&event, n_marks).to_bytes();
        let mut flipped = bytes.clone();
        let idx = (byte_salt % flipped.len() as u64) as usize;
        flipped[idx] ^= 1 << bit;
        // A structured `Err` is the other legal outcome; only a parse
        // that succeeds owes us canonicality.
        if let Ok(pkt) = Packet::from_bytes(&flipped) {
            prop_assert_eq!(pkt.to_bytes(), flipped);
        }
    }

    /// Every strict prefix of a valid packet is rejected (never panics,
    /// never mis-parses): the length-prefixed encoding leaves no byte
    /// optional.
    #[test]
    fn truncated_packets_are_rejected(
        event in vec(any::<u8>(), 0..16),
        n_marks in 0usize..8,
        cut_salt in any::<u64>(),
    ) {
        let bytes = marked_packet(&event, n_marks).to_bytes();
        let cut = (cut_salt % bytes.len() as u64) as usize;
        prop_assert!(Packet::from_bytes(&bytes[..cut]).is_err());
    }
}
