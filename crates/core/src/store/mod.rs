//! Pluggable evidence persistence: the [`EvidenceStore`] trait and its
//! two backends.
//!
//! Traceback evidence accrues over thousands of packets per path (PPM
//! schemes fundamentally require long collection windows), so it must
//! outlive any single process. This module extracts that evidence into
//! the explicit [`Evidence`] model and hides persistence behind
//! [`EvidenceStore`]:
//!
//! * [`MemStore`] — an in-memory record list; preserves today's behavior
//!   and perf, useful for tests and as a null durability layer.
//! * [`LogStore`] — an append-only, CRC-framed, log-structured file with
//!   periodic compaction; survives crashes and replays to a
//!   byte-identical engine state.
//!
//! Records come in two kinds: a [`RecordKind::Snapshot`] *resets* a
//! shard's evidence (written by compaction), a [`RecordKind::Delta`]
//! *merges* into it (written by engine checkpoints). Because evidence is
//! a commutative monoid (see [`Evidence`]), replaying
//! `snapshot · delta · delta …` per shard reproduces exactly the state
//! the writer held at its last append.

mod evidence;
mod log;
mod mem;

pub use evidence::{Evidence, VerdictCounters, MAX_EVIDENCE_BYTES};
pub use log::{crc32, LogStore, MAX_FRAME_BYTES};
pub use mem::MemStore;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors from evidence persistence.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A record or frame failed structural validation at `offset`.
    Corrupt {
        /// Which field or structure was malformed.
        context: &'static str,
        /// Byte offset (within the record or file) of the failure.
        offset: u64,
    },
    /// The log header declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// A store operation was requested on an engine with no attached store.
    NotAttached,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "evidence store i/o error: {e}"),
            StoreError::Corrupt { context, offset } => {
                write!(f, "corrupt evidence record: {context} at offset {offset}")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported evidence log version {found}")
            }
            StoreError::NotAttached => write!(f, "no evidence store attached"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// How a record combines with the evidence replayed before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Replaces the shard's accumulated evidence (compaction output).
    Snapshot,
    /// Merges into the shard's accumulated evidence (checkpoint output).
    Delta,
}

impl RecordKind {
    /// Wire discriminant (`1` snapshot, `2` delta; `0` is reserved so an
    /// all-zero torn write can never alias a valid kind).
    pub fn to_byte(self) -> u8 {
        match self {
            RecordKind::Snapshot => 1,
            RecordKind::Delta => 2,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RecordKind::Snapshot),
            2 => Some(RecordKind::Delta),
            _ => None,
        }
    }
}

/// The result of replaying a store: per-shard accumulated evidence plus
/// accounting of what the replay saw.
#[derive(Clone, Debug, Default)]
pub struct StoreReplay {
    /// Evidence accumulated per writer shard, keyed by shard id.
    pub shards: BTreeMap<u32, Evidence>,
    /// Valid records folded in.
    pub records: usize,
    /// Frames rejected (bad CRC, bad structure) rather than folded in.
    /// Always 0 for [`MemStore`].
    pub rejected_frames: usize,
}

impl StoreReplay {
    /// All shards merged into one evidence value — what a drain would
    /// produce by absorbing every shard engine.
    pub fn merged(&self) -> Evidence {
        let mut out = Evidence::default();
        for ev in self.shards.values() {
            out.merge(ev);
        }
        out
    }

    /// Folds one record into the per-shard accumulation.
    fn apply(&mut self, shard: u32, kind: RecordKind, evidence: Evidence) {
        match kind {
            RecordKind::Snapshot => {
                self.shards.insert(shard, evidence);
            }
            RecordKind::Delta => {
                self.shards.entry(shard).or_default().merge(&evidence);
            }
        }
        self.records += 1;
    }
}

/// Persistence for traceback evidence, shared across shards as
/// `Arc<dyn EvidenceStore>`.
///
/// Implementations must be safe for concurrent appends from many shard
/// threads; record ordering across shards is unconstrained because
/// evidence merge is commutative (per-shard order does matter, and
/// callers only append from a shard's single owning thread).
pub trait EvidenceStore: Send + Sync + fmt::Debug {
    /// Appends one record for `shard`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the record could not be durably
    /// staged (callers treat this as a counted, non-fatal event).
    fn append(&self, shard: u32, kind: RecordKind, evidence: &Evidence) -> Result<(), StoreError>;

    /// Replays every record into per-shard evidence.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] only for unrecoverable failures (I/O,
    /// unreadable header); damaged individual frames are *counted* in
    /// [`StoreReplay::rejected_frames`], not surfaced as errors.
    fn replay(&self) -> Result<StoreReplay, StoreError>;

    /// Rewrites the store as one snapshot per shard, dropping delta
    /// history. A no-op for stores with nothing to reclaim.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the rewrite failed; the prior contents
    /// remain intact in that case.
    fn compact(&self) -> Result<(), StoreError>;

    /// Forces buffered records to durable storage.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the flush failed.
    fn sync(&self) -> Result<(), StoreError>;
}

impl EvidenceStore for Arc<dyn EvidenceStore> {
    fn append(&self, shard: u32, kind: RecordKind, evidence: &Evidence) -> Result<(), StoreError> {
        (**self).append(shard, kind, evidence)
    }

    fn replay(&self) -> Result<StoreReplay, StoreError> {
        (**self).replay()
    }

    fn compact(&self) -> Result<(), StoreError> {
        (**self).compact()
    }

    fn sync(&self) -> Result<(), StoreError> {
        (**self).sync()
    }
}

/// One shard's append handle on a store: stages checkpoint deltas and
/// writes everything staged as one [`RecordKind::Delta`] record per
/// [`flush`](DeltaWriter::flush). A failed flush keeps what it staged, so
/// the next flush retries it merged with whatever was staged since.
///
/// A service shard stages every packet's delta and flushes once per
/// group (see `pnm_service`'s shard worker);
/// [`SinkEngine::checkpoint_to_store`](crate::SinkEngine::checkpoint_to_store)
/// flushes at every call. Evidence merges as a commutative monoid, so a
/// grouped log replays to the same evidence as a per-delta one.
///
/// The staged evidence lives here, not in an engine, so it survives an
/// engine being rebuilt from its checkpoint.
#[derive(Clone, Debug)]
pub struct DeltaWriter {
    store: Arc<dyn EvidenceStore>,
    shard: u32,
    /// Deltas staged since the last successful flush, merged.
    staged: Evidence,
}

impl DeltaWriter {
    /// A writer appending `shard`'s records to `store`.
    pub fn new(store: Arc<dyn EvidenceStore>, shard: u32) -> Self {
        DeltaWriter {
            store,
            shard,
            staged: Evidence::default(),
        }
    }

    /// Merges `delta` into what the next flush writes. No I/O.
    pub fn stage(&mut self, delta: Evidence) {
        if self.staged.is_empty() {
            self.staged = delta;
        } else {
            self.staged.merge(&delta);
        }
    }

    /// Appends everything staged as one record. Returns `Ok(false)` when
    /// nothing is staged (no record appended).
    ///
    /// # Errors
    ///
    /// Whatever the store's append returns; the staged evidence is then
    /// kept and written by the next flush.
    pub fn flush(&mut self) -> Result<bool, StoreError> {
        if self.staged.is_empty() {
            return Ok(false);
        }
        self.store
            .append(self.shard, RecordKind::Delta, &self.staged)?;
        self.staged = Evidence::default();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_kind_round_trip() {
        for kind in [RecordKind::Snapshot, RecordKind::Delta] {
            assert_eq!(RecordKind::from_byte(kind.to_byte()), Some(kind));
        }
        assert_eq!(RecordKind::from_byte(0), None);
        assert_eq!(RecordKind::from_byte(3), None);
    }

    #[test]
    fn replay_apply_semantics() {
        let mut replay = StoreReplay::default();
        let mut a = Evidence::default();
        a.nodes.insert(1);
        let mut b = Evidence::default();
        b.nodes.insert(2);
        replay.apply(0, RecordKind::Delta, a.clone());
        replay.apply(0, RecordKind::Delta, b.clone());
        assert_eq!(replay.shards[&0].nodes.len(), 2);
        // A snapshot resets the shard.
        replay.apply(0, RecordKind::Snapshot, a.clone());
        assert_eq!(replay.shards[&0].nodes.len(), 1);
        assert_eq!(replay.records, 3);
        // merged() unions across shards.
        replay.apply(1, RecordKind::Delta, b);
        let merged = replay.merged();
        assert_eq!(merged.nodes.len(), 2);
    }

    /// A [`MemStore`] whose appends fail while `failing` is set.
    #[derive(Debug, Default)]
    struct Flaky {
        inner: MemStore,
        failing: std::sync::atomic::AtomicBool,
    }

    impl EvidenceStore for Flaky {
        fn append(&self, shard: u32, kind: RecordKind, ev: &Evidence) -> Result<(), StoreError> {
            if self.failing.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(std::io::Error::other("injected append failure").into());
            }
            self.inner.append(shard, kind, ev)
        }

        fn replay(&self) -> Result<StoreReplay, StoreError> {
            self.inner.replay()
        }

        fn compact(&self) -> Result<(), StoreError> {
            self.inner.compact()
        }

        fn sync(&self) -> Result<(), StoreError> {
            self.inner.sync()
        }
    }

    #[test]
    fn delta_writer_carries_a_failed_delta_into_the_next_append() {
        let store = Arc::new(Flaky::default());
        let mut writer = DeltaWriter::new(Arc::clone(&store) as Arc<dyn EvidenceStore>, 3);
        let delta = |node: u16| {
            let mut e = Evidence::default();
            e.nodes.insert(node);
            e.counters.packets = 1;
            e
        };
        writer.stage(Evidence::default());
        assert!(!writer.flush().unwrap(), "empty: no record");
        writer.stage(delta(1));
        assert!(writer.flush().unwrap());
        store
            .failing
            .store(true, std::sync::atomic::Ordering::Relaxed);
        writer.stage(delta(2));
        assert!(writer.flush().is_err());
        store
            .failing
            .store(false, std::sync::atomic::Ordering::Relaxed);
        // The failed delta rides the next record, merged with the new
        // ones: staging writes nothing, and one flush writes all of it.
        writer.stage(delta(3));
        writer.stage(delta(4));
        assert_eq!(store.inner.len(), 1);
        assert!(writer.flush().unwrap());
        assert!(!writer.flush().unwrap(), "nothing staged: no record");
        assert_eq!(store.inner.len(), 2);
        let replay = store.replay().unwrap();
        assert_eq!(replay.shards[&3].counters.packets, 4);
        assert_eq!(replay.shards[&3].nodes.len(), 4);
    }

    #[test]
    fn error_display_and_source() {
        let io: StoreError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
        let corrupt = StoreError::Corrupt {
            context: "frame crc",
            offset: 9,
        };
        assert!(corrupt.to_string().contains("frame crc"));
        assert!(std::error::Error::source(&corrupt).is_none());
        assert!(StoreError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(StoreError::NotAttached.to_string().contains("no evidence"));
    }
}
