//! Sensing reports — the paper's `M = E | L | T` (§2.3).
//!
//! Each report carries an event description `E`, a location `L`, and a
//! timestamp `T`. Bogus reports forged by a source mole must differ in
//! content (identical copies are suppressed as duplicates by legitimate
//! forwarders, §2.3 / footnote 4), which is why the anonymous-ID mapping
//! `H'_k(M | i)` changes per packet.

use serde::{Deserialize, Serialize};

use crate::error::WireError;

/// Maximum encoded event payload, in bytes.
///
/// Mica2-class radios carry ~29-byte TinyOS payloads per frame; we allow a
/// kilobyte so experiments can also model aggregated reports.
pub const MAX_EVENT_LEN: usize = 1024;

/// A geographic location, in meters within the deployment plane.
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct Location {
    /// X coordinate (m).
    pub x: f32,
    /// Y coordinate (m).
    pub y: f32,
}

impl Location {
    /// Creates a location.
    pub fn new(x: f32, y: f32) -> Self {
        Location { x, y }
    }

    /// Euclidean distance to `other` in meters.
    pub fn distance(&self, other: &Location) -> f32 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A sensing report `M = E | L | T`.
///
/// # Examples
///
/// ```
/// use pnm_wire::report::{Location, Report};
///
/// let r = Report::new(b"temp=23C".to_vec(), Location::new(10.0, 20.0), 1234);
/// let bytes = r.to_bytes();
/// assert_eq!(Report::from_bytes(&bytes)?, r);
/// # Ok::<(), pnm_wire::WireError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Event description `E` (sensor readings, event type, …).
    pub event: Vec<u8>,
    /// Claimed event location `L`.
    pub location: Location,
    /// Claimed event timestamp `T` (simulated microseconds).
    pub timestamp: u64,
}

impl Report {
    /// Creates a report.
    ///
    /// # Panics
    ///
    /// Panics if `event` exceeds [`MAX_EVENT_LEN`].
    pub fn new(event: Vec<u8>, location: Location, timestamp: u64) -> Self {
        assert!(
            event.len() <= MAX_EVENT_LEN,
            "event payload {} exceeds {MAX_EVENT_LEN} bytes",
            event.len()
        );
        Report {
            event,
            location,
            timestamp,
        }
    }

    /// Canonical wire encoding: `len(E) | E | L.x | L.y | T`, all
    /// big-endian. MACs are always computed over these bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the canonical wire encoding ([`Report::to_bytes`]) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.event.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.event);
        out.extend_from_slice(&self.location.x.to_be_bytes());
        out.extend_from_slice(&self.location.y.to_be_bytes());
        out.extend_from_slice(&self.timestamp.to_be_bytes());
    }

    /// Parses a report, requiring the buffer to be exactly consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, oversized event length, or
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let (report, used) = Self::parse(bytes)?;
        if used != bytes.len() {
            return Err(WireError::TrailingBytes {
                remaining: bytes.len() - used,
            });
        }
        Ok(report)
    }

    /// Parses a report from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or an oversized event length.
    pub fn parse(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        let need = |n: usize, have: usize, ctx: &'static str| {
            Err(WireError::Truncated {
                context: ctx,
                needed: n,
                available: have,
            })
        };
        if bytes.len() < 2 {
            return need(2, bytes.len(), "report event length");
        }
        let event_len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
        if event_len > MAX_EVENT_LEN {
            return Err(WireError::LengthOutOfRange {
                context: "report event",
                declared: event_len,
                max: MAX_EVENT_LEN,
            });
        }
        let total = 2 + event_len + 4 + 4 + 8;
        if bytes.len() < total {
            return need(total, bytes.len(), "report body");
        }
        let event = bytes[2..2 + event_len].to_vec();
        let mut off = 2 + event_len;
        let x = f32::from_be_bytes(bytes[off..off + 4].try_into().unwrap());
        off += 4;
        let y = f32::from_be_bytes(bytes[off..off + 4].try_into().unwrap());
        off += 4;
        let timestamp = u64::from_be_bytes(bytes[off..off + 8].try_into().unwrap());
        off += 8;
        Ok((
            Report {
                event,
                location: Location::new(x, y),
                timestamp,
            },
            off,
        ))
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        2 + self.event.len() + 4 + 4 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::new(b"event-7".to_vec(), Location::new(1.5, -2.5), 0xdead_beef)
    }

    #[test]
    fn round_trip() {
        let r = sample();
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), r.encoded_len());
        assert_eq!(Report::from_bytes(&bytes).unwrap(), r);
    }

    #[test]
    fn empty_event_round_trips() {
        let r = Report::new(vec![], Location::default(), 0);
        assert_eq!(Report::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Report::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Report::from_bytes(&bytes).unwrap_err(),
            WireError::TrailingBytes { remaining: 1 }
        ));
    }

    #[test]
    fn oversized_event_rejected_on_parse() {
        let mut bytes = vec![0xff, 0xff]; // event_len = 65535
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            Report::from_bytes(&bytes).unwrap_err(),
            WireError::LengthOutOfRange { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_event_rejected_on_construction() {
        let _ = Report::new(vec![0u8; MAX_EVENT_LEN + 1], Location::default(), 0);
    }

    #[test]
    fn distance() {
        let a = Location::new(0.0, 0.0);
        let b = Location::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-6);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn distinct_reports_distinct_bytes() {
        let a = Report::new(b"x".to_vec(), Location::new(0.0, 0.0), 1);
        let b = Report::new(b"x".to_vec(), Location::new(0.0, 0.0), 2);
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn parse_reports_consumed_length() {
        let r = sample();
        let mut bytes = r.to_bytes();
        let orig_len = bytes.len();
        bytes.extend_from_slice(b"extra");
        let (parsed, used) = Report::parse(&bytes).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(used, orig_len);
    }
}
