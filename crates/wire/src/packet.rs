//! Packets: a report plus the marks accumulated along the forwarding path.
//!
//! The paper's message chain is
//! `M_0 = M`, `M_i = M_{i-1} | mark_i` — marks are *appended*, never
//! replaced (§1: "Different from Internet marking schemes where a new mark
//! may replace an existing one, in PNM new marks are simply appended").
//! [`Packet::to_bytes`] is the canonical encoding of `M_i`; every nested MAC
//! is computed over exactly these bytes, so the encoding must be injective —
//! guaranteed by length-prefixing every variable-size field.

use serde::{Deserialize, Serialize};

use crate::error::WireError;
use crate::mark::Mark;
use crate::report::Report;

/// Hard cap on marks per packet, bounding parser memory even when a mole
/// floods a packet with inserted marks.
pub const MAX_MARKS: usize = 4096;

/// A packet in flight: the original report plus appended marks.
///
/// # Examples
///
/// ```
/// use pnm_wire::{Location, Mark, NodeId, Packet, Report};
///
/// let report = Report::new(b"ev".to_vec(), Location::new(0.0, 0.0), 1);
/// let mut pkt = Packet::new(report);
/// pkt.push_mark(Mark::unauthenticated(NodeId(4)));
/// let bytes = pkt.to_bytes();
/// assert_eq!(Packet::from_bytes(&bytes)?, pkt);
/// # Ok::<(), pnm_wire::WireError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// The report `M` as injected by the source.
    pub report: Report,
    /// Marks appended by forwarding nodes, oldest first.
    pub marks: Vec<Mark>,
}

impl Packet {
    /// Wraps a report in an unmarked packet (`M_0 = M`).
    pub fn new(report: Report) -> Self {
        Packet {
            report,
            marks: Vec::new(),
        }
    }

    /// Appends a mark (the `M_i = M_{i-1} | mark_i` step).
    ///
    /// # Panics
    ///
    /// Panics if the packet already holds [`MAX_MARKS`] marks.
    pub fn push_mark(&mut self, mark: Mark) {
        assert!(
            self.marks.len() < MAX_MARKS,
            "packet mark count would exceed MAX_MARKS"
        );
        self.marks.push(mark);
    }

    /// Canonical wire encoding of `M_i`:
    /// `report | mark_count(u16) | marks…`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.report.encode_into(&mut out);
        out.extend_from_slice(&(self.marks.len() as u16).to_be_bytes());
        for mark in &self.marks {
            mark.encode_into(&mut out);
        }
        out
    }

    /// Parses a packet, requiring the buffer to be exactly consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, bad discriminants, an oversized
    /// mark count, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let (report, mut off) = Report::parse(bytes)?;
        if bytes.len() < off + 2 {
            return Err(WireError::Truncated {
                context: "packet mark count",
                needed: off + 2,
                available: bytes.len(),
            });
        }
        let count = u16::from_be_bytes([bytes[off], bytes[off + 1]]) as usize;
        off += 2;
        if count > MAX_MARKS {
            return Err(WireError::LengthOutOfRange {
                context: "packet mark count",
                declared: count,
                max: MAX_MARKS,
            });
        }
        let mut marks = Vec::with_capacity(count);
        for _ in 0..count {
            let (mark, used) = Mark::parse(&bytes[off..])?;
            marks.push(mark);
            off += used;
        }
        if off != bytes.len() {
            return Err(WireError::TrailingBytes {
                remaining: bytes.len() - off,
            });
        }
        Ok(Packet { report, marks })
    }

    /// Total encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.report.encoded_len() + 2 + self.marks.iter().map(Mark::encoded_len).sum::<usize>()
    }

    /// Bytes of traceback overhead this packet carries (everything beyond
    /// the bare report) — the quantity probabilistic marking minimizes.
    pub fn marking_overhead(&self) -> usize {
        self.encoded_len() - self.report.encoded_len()
    }

    /// Number of marks currently on the packet.
    pub fn mark_count(&self) -> usize {
        self.marks.len()
    }
}

impl From<Report> for Packet {
    fn from(report: Report) -> Self {
        Packet::new(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;
    use crate::report::Location;
    use pnm_crypto::MacKey;

    fn sample_packet(marks: usize) -> Packet {
        let report = Report::new(b"sample".to_vec(), Location::new(3.0, 4.0), 99);
        let mut pkt = Packet::new(report);
        for i in 0..marks {
            let key = MacKey::derive(b"m", i as u64);
            let mac = key.mark_mac(&pkt.to_bytes(), 8);
            pkt.push_mark(Mark::plain(NodeId(i as u16), mac));
        }
        pkt
    }

    #[test]
    fn round_trip_no_marks() {
        let pkt = sample_packet(0);
        assert_eq!(Packet::from_bytes(&pkt.to_bytes()).unwrap(), pkt);
    }

    #[test]
    fn round_trip_many_marks() {
        for n in [1, 3, 10, 50] {
            let pkt = sample_packet(n);
            let bytes = pkt.to_bytes();
            assert_eq!(bytes.len(), pkt.encoded_len());
            assert_eq!(Packet::from_bytes(&bytes).unwrap(), pkt, "{n} marks");
        }
    }

    #[test]
    fn truncation_detected_everywhere() {
        let bytes = sample_packet(3).to_bytes();
        for cut in 0..bytes.len() {
            assert!(Packet::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = sample_packet(2).to_bytes();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            Packet::from_bytes(&bytes).unwrap_err(),
            WireError::TrailingBytes { remaining: 3 }
        ));
    }

    #[test]
    fn oversized_mark_count_rejected() {
        let report = Report::new(vec![], Location::default(), 0);
        let mut bytes = report.to_bytes();
        bytes.extend_from_slice(&(MAX_MARKS as u16 + 1).to_be_bytes());
        assert!(matches!(
            Packet::from_bytes(&bytes).unwrap_err(),
            WireError::LengthOutOfRange { .. }
        ));
    }

    #[test]
    fn encoding_is_injective_for_mark_order() {
        // Mark re-ordering must change the canonical bytes, otherwise
        // nested MACs could not detect re-order attacks.
        let pkt = sample_packet(2);
        let mut swapped = pkt.clone();
        swapped.marks.swap(0, 1);
        assert_ne!(pkt.to_bytes(), swapped.to_bytes());
    }

    #[test]
    fn overhead_accounting() {
        let pkt0 = sample_packet(0);
        assert_eq!(pkt0.marking_overhead(), 2); // just the mark-count field
        let pkt3 = sample_packet(3);
        assert_eq!(
            pkt3.marking_overhead(),
            2 + pkt3.marks.iter().map(Mark::encoded_len).sum::<usize>()
        );
        assert_eq!(pkt3.mark_count(), 3);
    }

    #[test]
    fn from_report() {
        let report = Report::new(vec![1], Location::default(), 5);
        let pkt: Packet = report.clone().into();
        assert_eq!(pkt.report, report);
        assert!(pkt.marks.is_empty());
    }
}
