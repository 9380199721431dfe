//! Link-layer frame arithmetic for Mica2-class radios.
//!
//! TinyOS frames on Mica2 hardware carry ~29 bytes of payload, but a
//! marked packet easily exceeds 50 bytes (and a fully nested-marked one,
//! hundreds). Multi-frame packets are the physical reality behind the
//! paper's overhead argument: every extra mark costs frames, and losing
//! *any* frame loses the packet — so marking overhead amplifies loss.
//! [`frames_needed`] counts the frames a packet spans.

/// Default Mica2/TinyOS frame payload size in bytes.
pub const FRAME_PAYLOAD: usize = 29;

/// Number of frames a payload of `len` bytes needs at the given frame
/// payload size.
pub fn frames_needed(len: usize, frame_payload: usize) -> usize {
    assert!(frame_payload > 0, "frame payload must be positive");
    len.div_ceil(frame_payload).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::report::{Location, Report};

    fn marked_packet_bytes(marks: usize) -> Vec<u8> {
        let mut pkt = Packet::new(Report::new(b"frag-test".to_vec(), Location::default(), 1));
        for i in 0..marks {
            pkt.push_mark(crate::mark::Mark::unauthenticated(crate::id::NodeId(
                i as u16,
            )));
        }
        pkt.to_bytes()
    }

    #[test]
    fn frames_needed_math() {
        assert_eq!(frames_needed(0, 29), 1);
        assert_eq!(frames_needed(29, 29), 1);
        assert_eq!(frames_needed(30, 29), 2);
        assert_eq!(frames_needed(100, 29), 4);
    }

    #[test]
    fn marking_overhead_amplifies_frame_count() {
        // The physical point: more marks -> more frames -> more exposure
        // to per-frame loss.
        let lean = marked_packet_bytes(0);
        let heavy = marked_packet_bytes(30);
        assert!(
            frames_needed(heavy.len(), FRAME_PAYLOAD)
                >= 2 * frames_needed(lean.len(), FRAME_PAYLOAD)
        );
    }
}
