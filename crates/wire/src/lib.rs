//! Wire formats for the PNM reproduction: node ids, reports, marks,
//! packets, and their canonical byte encodings.
//!
//! Every MAC in the system is computed over the canonical encodings defined
//! here, so the encodings are injective (length-prefixed fields) and
//! round-trip exactly.
//!
//! # Examples
//!
//! ```
//! use pnm_wire::{Location, Packet, Report};
//!
//! let report = Report::new(b"intrusion@gate-7".to_vec(), Location::new(120.0, 48.0), 42);
//! let pkt = Packet::new(report);
//! let restored = Packet::from_bytes(&pkt.to_bytes())?;
//! assert_eq!(restored, pkt);
//! # Ok::<(), pnm_wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fragment;
pub mod id;
pub mod mark;
pub mod packet;
pub mod report;

pub use error::WireError;
pub use fragment::{frames_needed, FRAME_PAYLOAD};
pub use id::NodeId;
pub use mark::{Mark, MarkId};
pub use packet::{Packet, MAX_MARKS};
pub use report::{Location, Report, MAX_EVENT_LEN};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::{Location, Mark, MarkId, NodeId, Packet, Report};
    use pnm_crypto::{AnonId, MacTag};

    fn arb_report() -> impl Strategy<Value = Report> {
        (
            proptest::collection::vec(any::<u8>(), 0..64),
            any::<f32>(),
            any::<f32>(),
            any::<u64>(),
        )
            .prop_map(|(event, x, y, t)| Report::new(event, Location::new(x, y), t))
    }

    fn arb_mark() -> impl Strategy<Value = Mark> {
        let id = prop_oneof![
            any::<u16>().prop_map(|v| MarkId::Plain(NodeId(v))),
            any::<[u8; 8]>().prop_map(|b| MarkId::Anon(AnonId::from_bytes(b))),
        ];
        let mac = prop_oneof![
            Just(None),
            (proptest::collection::vec(any::<u8>(), 1..=32))
                .prop_map(|b| Some(MacTag::from_bytes(&b))),
        ];
        (id, mac).prop_map(|(id, mac)| Mark { id, mac })
    }

    proptest! {
        /// Report encoding round-trips for arbitrary contents, including
        /// NaN coordinates (bit-exact f32 encoding).
        #[test]
        fn report_round_trip(report in arb_report()) {
            let bytes = report.to_bytes();
            let parsed = Report::from_bytes(&bytes).unwrap();
            // NaN != NaN under PartialEq, so compare re-encodings.
            prop_assert_eq!(parsed.to_bytes(), bytes);
        }

        /// Packet encoding round-trips for arbitrary mark stacks.
        #[test]
        fn packet_round_trip(
            report in arb_report(),
            marks in proptest::collection::vec(arb_mark(), 0..12),
        ) {
            let mut pkt = Packet::new(report);
            for m in marks {
                pkt.push_mark(m);
            }
            let bytes = pkt.to_bytes();
            let parsed = Packet::from_bytes(&bytes).unwrap();
            prop_assert_eq!(parsed.to_bytes(), bytes);
            prop_assert_eq!(parsed.marks.len(), pkt.marks.len());
        }

        /// The canonical encoding is injective over mark stacks: packets
        /// with different mark sequences encode differently.
        #[test]
        fn encoding_injective_over_marks(
            report in arb_report(),
            a in proptest::collection::vec(arb_mark(), 0..6),
            b in proptest::collection::vec(arb_mark(), 0..6),
        ) {
            let mut pa = Packet::new(report.clone());
            for m in &a { pa.push_mark(*m); }
            let mut pb = Packet::new(report);
            for m in &b { pb.push_mark(*m); }
            if a != b {
                prop_assert_ne!(pa.to_bytes(), pb.to_bytes());
            } else {
                prop_assert_eq!(pa.to_bytes(), pb.to_bytes());
            }
        }

        /// Parsing never panics on arbitrary garbage.
        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Packet::from_bytes(&bytes);
            let _ = Report::from_bytes(&bytes);
            let _ = Mark::parse(&bytes);
        }
    }
}
