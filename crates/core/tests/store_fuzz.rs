//! Decode-totality fuzzing for the durable evidence store.
//!
//! The recovery story rests on the same guarantee the wire formats give
//! (see `crates/wire/tests/fuzz_decode.rs`): decoding is **total**. For
//! any byte string — random garbage where a log file should be, a
//! bit-flipped valid log, a truncated tail from a torn write — opening
//! and replaying either succeeds on the valid prefix (counting the
//! damage) or fails with a structured [`StoreError`]; it never panics
//! and never trusts an attacker-controlled length field.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use pnm_core::store::{Evidence, EvidenceStore, LogStore, RecordKind};
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;

fn temp_log(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-store-fuzz-{}-{}-{}.log",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// An arbitrary but structurally valid [`Evidence`] value.
fn arb_evidence() -> impl Strategy<Value = Evidence> {
    (
        vec(any::<u32>(), 7),
        (
            btree_set(any::<u16>(), 0..12),
            btree_set((any::<u16>(), any::<u16>()), 0..12),
            btree_set(any::<u16>(), 0..6),
        ),
        vec((any::<u16>(), 1usize..1000), 0..8),
        vec(((any::<u16>(), any::<u16>()), 1usize..1000), 0..8),
    )
        .prop_map(
            |(counters, (nodes, edges, quarantined), head_support, edge_support)| {
                let mut ev = Evidence::default();
                ev.counters.packets = counters[0] as usize;
                ev.counters.marks_verified = counters[1] as usize;
                ev.counters.marks_rejected = counters[2] as usize;
                ev.counters.suspicious = counters[3] as usize;
                ev.counters.benign = counters[4] as usize;
                ev.counters.malformed = counters[5] as usize;
                ev.counters.duplicates_suppressed = counters[6] as usize;
                ev.chains_observed = counters[0] as usize / 2;
                ev.nodes = nodes;
                ev.edges = edges;
                ev.head_support = head_support.into_iter().collect();
                ev.edge_support = edge_support.into_iter().collect();
                ev.quarantined = quarantined;
                ev
            },
        )
}

/// A valid log file on disk holding `records` evidence frames; returns
/// the path and the byte length after each append (the record
/// boundaries a torn write can land between).
fn valid_log(tag: &str, records: &[Evidence]) -> (PathBuf, Vec<u64>) {
    let path = temp_log(tag);
    let store = LogStore::open(&path).expect("fresh log opens");
    let mut boundaries = Vec::with_capacity(records.len());
    for (i, ev) in records.iter().enumerate() {
        let kind = if i == 0 {
            RecordKind::Snapshot
        } else {
            RecordKind::Delta
        };
        store.append(i as u32 % 3, kind, ev).expect("append");
        boundaries.push(std::fs::metadata(&path).expect("metadata").len());
    }
    drop(store);
    (path, boundaries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes into the evidence decoder: `Ok` implies the input
    /// was the canonical encoding (re-encoding reproduces it byte for
    /// byte); anything else is a structured error, never a panic.
    #[test]
    fn arbitrary_evidence_bytes_decode_totally(bytes in vec(any::<u8>(), 0..512)) {
        if let Ok(ev) = Evidence::from_bytes(&bytes) {
            prop_assert_eq!(ev.to_bytes(), bytes.clone());
        }
    }

    /// A valid evidence encoding with one flipped bit either fails with a
    /// structured error or re-encodes canonically. (The store's CRC layer
    /// catches flips in transit; this guards the decoder itself.)
    #[test]
    fn bit_flipped_evidence_decodes_totally(
        ev in arb_evidence(),
        byte_salt in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = ev.to_bytes();
        let idx = (byte_salt % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << bit;
        if let Ok(decoded) = Evidence::from_bytes(&bytes) {
            prop_assert_eq!(decoded.to_bytes(), bytes.clone());
        }
    }

    /// Every strict prefix of a valid evidence encoding is rejected: the
    /// length-prefixed layout leaves no byte optional.
    #[test]
    fn truncated_evidence_is_rejected(ev in arb_evidence(), cut_salt in any::<u64>()) {
        let bytes = ev.to_bytes();
        let cut = (cut_salt % bytes.len() as u64) as usize;
        prop_assert!(Evidence::from_bytes(&bytes[..cut]).is_err());
    }

    /// A file of arbitrary garbage where a log should be: `open` either
    /// fails structurally (bad magic / future version) or yields a store
    /// that replays cleanly and accepts new appends. Never a panic.
    #[test]
    fn arbitrary_log_files_open_totally(bytes in vec(any::<u8>(), 0..512)) {
        let path = temp_log("garbage");
        std::fs::write(&path, &bytes).expect("write garbage");
        if let Ok(store) = LogStore::open(&path) {
            let replay = store.replay().expect("valid prefix replays");
            prop_assert_eq!(replay.records, 0); // garbage never fakes a CRC'd frame
            // The damaged tail was truncated away: the store is usable.
            store
                .append(0, RecordKind::Snapshot, &Evidence::default())
                .expect("append after truncation");
            prop_assert_eq!(store.replay().expect("replay").records, 1);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A valid multi-record log with one flipped bit: a flip in the
    /// header is a structured open error; a flip in the body drops the
    /// damaged frame and everything after it (counted, not resynced) —
    /// CRC-32 catches every single-bit error, so no flip goes unnoticed.
    #[test]
    fn bit_flipped_logs_recover_a_prefix(
        records in vec(arb_evidence(), 1..5),
        byte_salt in any::<u64>(),
        bit in 0u8..8,
    ) {
        let n = records.len();
        let (path, _) = valid_log("flip", &records);
        let mut bytes = std::fs::read(&path).expect("read log");
        let idx = (byte_salt % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("write flipped");
        match LogStore::open(&path) {
            Err(_) => prop_assert!(idx < 6, "only header flips may fail open"),
            Ok(store) => {
                let replay = store.replay().expect("replay");
                prop_assert!(replay.records < n, "a flipped frame cannot survive");
                prop_assert!(replay.rejected_frames <= 1);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A valid log cut at an arbitrary byte (the torn-write shape a kill
    /// leaves): open truncates to the last complete frame and replays
    /// exactly the records whose append had finished before the cut.
    #[test]
    fn truncated_logs_replay_the_completed_prefix(
        records in vec(arb_evidence(), 1..5),
        cut_salt in any::<u64>(),
    ) {
        let (path, boundaries) = valid_log("cut", &records);
        let len = *boundaries.last().expect("non-empty");
        let cut = cut_salt % (len + 1);
        let bytes = std::fs::read(&path).expect("read log");
        std::fs::write(&path, &bytes[..cut as usize]).expect("write cut");
        let expected = boundaries.iter().filter(|&&b| b <= cut).count();
        let store = LogStore::open(&path).expect("torn log opens");
        let replay = store.replay().expect("replay");
        prop_assert_eq!(replay.records, expected);
        std::fs::remove_file(&path).ok();
    }
}

/// Deterministic spot check outside proptest: garbage appended to a
/// healthy log is counted once and survives into every later replay.
#[test]
fn damage_is_counted_across_replays() {
    let ev = Evidence {
        chains_observed: 3,
        ..Evidence::default()
    };
    let (path, _) = valid_log("count", std::slice::from_ref(&ev));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("reopen");
    f.write_all(&[0x00, 0x01, 0x02]).expect("damage");
    drop(f);
    let store = LogStore::open(&path).expect("open");
    assert_eq!(store.rejected_at_open(), 1);
    for _ in 0..2 {
        let replay = store.replay().expect("replay");
        assert_eq!(replay.records, 1);
        assert_eq!(replay.rejected_frames, 1);
    }
    std::fs::remove_file(&path).ok();
}
