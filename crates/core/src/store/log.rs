//! The append-only log backend: CRC-framed records, truncation-safe
//! recovery, periodic compaction.
//!
//! ## On-disk format
//!
//! ```text
//! file   := header frame*
//! header := magic "PNME" | version u16 BE          (6 bytes)
//! frame  := len u32 BE | crc32 u32 BE | payload    (8 + len bytes)
//! payload:= kind u8 | shard u32 BE | evidence bytes
//! ```
//!
//! `len` covers the payload only; `crc32` is CRC-32/IEEE over the
//! payload. Evidence bytes are the canonical [`Evidence`] encoding, so a
//! frame is injective in its record exactly as `pnm-wire` packets are
//! injective in their marks.
//!
//! The current format is version 2. Version 1 evidence also carried the
//! four table-cache work counters and a first-unequivocal packet index,
//! engine-local state that is not evidence: 33 bytes more per record
//! while the index was unset. [`LogStore::open`] still reads a v1 log,
//! drops those fields, and rewrites the file as v2 record for record
//! (through the same atomic tmp-file + rename as compaction), so no file
//! ever mixes versions.
//!
//! ## Crash consistency
//!
//! Appends are a single sequential write at the tail, so the only damage
//! a crash can cause is a *torn tail*: a final frame with too few bytes
//! or a CRC mismatch. [`LogStore::open`] scans the file, counts the
//! damage, and truncates back to the last frame that validates — every
//! record before the torn one is intact by construction, because frames
//! are never modified in place. Compaction writes a complete replacement
//! file and swaps it in with an atomic rename, so a crash mid-compaction
//! leaves either the old log or the new one, never a hybrid.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::store::{
    Evidence, EvidenceStore, RecordKind, StoreError, StoreReplay, MAX_EVIDENCE_BYTES,
};

/// Hard cap on a single frame payload; a declared length beyond this is
/// rejected before any read.
pub const MAX_FRAME_BYTES: usize = MAX_EVIDENCE_BYTES + 16;

const MAGIC: [u8; 4] = *b"PNME";
const VERSION: u16 = 2;
/// The format whose evidence still carried engine-local fields; opened
/// only to be rewritten as [`VERSION`].
const VERSION_1: u16 = 1;
const HEADER_LEN: usize = 6;
/// Payload prefix: kind (1) + shard (4).
const PAYLOAD_PREFIX: usize = 5;

/// CRC-32/IEEE lookup table, built at compile time (no external crates).
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32/IEEE over `bytes` — the same checksum that frames the evidence
/// log, exported for other wire layers (e.g. the gateway's sequenced
/// ingest frames) that need an end-to-end integrity check without
/// growing a dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The append-only file-backed [`EvidenceStore`].
///
/// # Examples
///
/// ```
/// use pnm_core::store::{Evidence, EvidenceStore, LogStore, RecordKind};
///
/// let path = std::env::temp_dir().join(format!("pnme-doc-{}.log", std::process::id()));
/// let store = LogStore::open(&path)?;
/// let mut ev = Evidence::default();
/// ev.nodes.insert(3);
/// store.append(0, RecordKind::Delta, &ev)?;
/// drop(store);
///
/// // A fresh open replays what was persisted.
/// let reopened = LogStore::open(&path)?;
/// assert_eq!(reopened.replay()?.shards[&0], ev);
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), pnm_core::store::StoreError>(())
/// ```
pub struct LogStore {
    path: PathBuf,
    file: Mutex<File>,
    fsync_every_append: bool,
    rejected_at_open: usize,
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStore")
            .field("path", &self.path)
            .field("fsync_every_append", &self.fsync_every_append)
            .field("rejected_at_open", &self.rejected_at_open)
            .finish()
    }
}

/// Scans `bytes` (past the header) of a format-`version` log frame by
/// frame, handing each valid record to `record`. Returns the byte length
/// of the valid prefix and how many trailing frames were rejected.
/// Scanning stops at the first invalid frame: the log has no resync
/// marker, so nothing after a torn or corrupt frame can be trusted.
fn scan_frames(
    bytes: &[u8],
    version: u16,
    mut record: impl FnMut(u32, RecordKind, Evidence),
) -> (usize, usize) {
    let mut off = 0;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < 8 {
            return (off, 1);
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if !(PAYLOAD_PREFIX..=MAX_FRAME_BYTES).contains(&len) || rest.len() < 8 + len {
            return (off, 1);
        }
        let crc = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            return (off, 1);
        }
        let Some(kind) = RecordKind::from_byte(payload[0]) else {
            return (off, 1);
        };
        let shard = u32::from_be_bytes([payload[1], payload[2], payload[3], payload[4]]);
        let body = &payload[PAYLOAD_PREFIX..];
        let evidence = match version {
            VERSION_1 => Evidence::from_v1_bytes(body),
            _ => Evidence::from_bytes(body),
        };
        match evidence {
            Ok(evidence) => {
                record(shard, kind, evidence);
                off += 8 + len;
            }
            Err(_) => return (off, 1),
        }
    }
    (off, 0)
}

fn encode_frame(shard: u32, kind: RecordKind, evidence: &Evidence) -> Vec<u8> {
    let body = evidence.to_bytes();
    let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + body.len());
    payload.push(kind.to_byte());
    payload.extend_from_slice(&shard.to_be_bytes());
    payload.extend_from_slice(&body);
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(&payload).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn write_header(file: &mut File) -> Result<(), StoreError> {
    file.set_len(0)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&MAGIC)?;
    file.write_all(&VERSION.to_be_bytes())?;
    file.sync_all()?;
    Ok(())
}

/// Validates the 6-byte header and returns the format version,
/// distinguishing a wrong file (magic mismatch) from a future format
/// (version mismatch).
fn check_header(bytes: &[u8]) -> Result<u16, StoreError> {
    if bytes[..4] != MAGIC {
        return Err(StoreError::Corrupt {
            context: "log header magic",
            offset: 0,
        });
    }
    match u16::from_be_bytes([bytes[4], bytes[5]]) {
        version @ (VERSION_1 | VERSION) => Ok(version),
        found => Err(StoreError::UnsupportedVersion { found }),
    }
}

/// Replaces the log at `path` with a complete current-format log holding
/// `frames`: written and synced beside it, then swapped in by an atomic
/// rename, so a crash before the rename leaves the old log intact and
/// one after it leaves the new log complete. Returns the new file,
/// positioned at its end.
fn replace_log(path: &Path, frames: &[u8]) -> Result<File, StoreError> {
    let tmp_path = path.with_extension("compact");
    let mut tmp = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp_path)?;
    write_header(&mut tmp)?;
    tmp.write_all(frames)?;
    tmp.sync_all()?;
    std::fs::rename(&tmp_path, path)?;
    tmp.seek(SeekFrom::End(0))?;
    Ok(tmp)
}

impl LogStore {
    /// Opens (creating if absent) the log at `path`, recovering from any
    /// torn tail: the file is scanned and truncated back to the last
    /// frame that validates, so subsequent appends extend a clean log.
    /// Damage found during the scan is reported by
    /// [`LogStore::rejected_at_open`] and folded into every
    /// [`LogStore::replay`] result.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure,
    /// [`StoreError::Corrupt`] if the file exists but is not an evidence
    /// log (wrong magic), or [`StoreError::UnsupportedVersion`] for a
    /// future format version. A file shorter than the header is treated
    /// as a torn create and rewritten. A version-1 log, whose records
    /// still carried engine-local fields, is rewritten as the current
    /// version record for record, without those fields, through an
    /// atomic tmp-file + rename; a torn v1 tail is left behind.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;
        let rejected_at_open = if contents.len() < HEADER_LEN {
            // Empty file, or a create whose header write itself tore.
            write_header(&mut file)?;
            0
        } else if check_header(&contents)? == VERSION_1 {
            // Re-encode every valid record; a torn tail is left behind.
            let mut frames = Vec::new();
            let (_, rejected) = scan_frames(&contents[HEADER_LEN..], VERSION_1, |s, k, e| {
                frames.extend(encode_frame(s, k, &e));
            });
            file = replace_log(&path, &frames)?;
            rejected
        } else {
            let (valid, rejected) = scan_frames(&contents[HEADER_LEN..], VERSION, |_, _, _| {});
            let keep = (HEADER_LEN + valid) as u64;
            if keep < contents.len() as u64 {
                file.set_len(keep)?;
                file.sync_all()?;
            }
            file.seek(SeekFrom::End(0))?;
            rejected
        };
        Ok(LogStore {
            path,
            file: Mutex::new(file),
            fsync_every_append: false,
            rejected_at_open,
        })
    }

    /// Fsync after every append (durability over throughput). Off by
    /// default: the OS page cache holds appends until [`sync`] or
    /// compaction, matching the paper's sink model where the collection
    /// window — not each packet — is the durability unit.
    ///
    /// An append is one record, and a service shard appends one record per
    /// group of packets (up to `pnm_service::GROUP_COMMIT_PACKETS`, fewer
    /// when its queue empties), so with a pool this is one fsync per group,
    /// not per packet. [`SinkEngine::checkpoint_to_store`] appends one
    /// record per call.
    ///
    /// [`sync`]: EvidenceStore::sync
    /// [`SinkEngine::checkpoint_to_store`]: crate::SinkEngine::checkpoint_to_store
    pub fn with_fsync(mut self, fsync_every_append: bool) -> Self {
        self.fsync_every_append = fsync_every_append;
        self
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames found damaged (and truncated away) when the log was opened.
    pub fn rejected_at_open(&self) -> usize {
        self.rejected_at_open
    }

    /// Reads and validates the full log while holding the file lock.
    fn read_validated(&self, file: &mut File) -> Result<StoreReplay, StoreError> {
        file.seek(SeekFrom::Start(0))?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;
        file.seek(SeekFrom::End(0))?;
        if contents.len() < HEADER_LEN {
            return Err(StoreError::Corrupt {
                context: "log header truncated",
                offset: contents.len() as u64,
            });
        }
        let version = check_header(&contents)?;
        let mut replay = StoreReplay::default();
        let (_, rejected) = scan_frames(&contents[HEADER_LEN..], version, |s, k, e| {
            replay.apply(s, k, e);
        });
        replay.rejected_frames = rejected;
        Ok(replay)
    }
}

impl EvidenceStore for LogStore {
    fn append(&self, shard: u32, kind: RecordKind, evidence: &Evidence) -> Result<(), StoreError> {
        let frame = encode_frame(shard, kind, evidence);
        let mut file = self.file.lock().expect("log store lock poisoned");
        file.write_all(&frame)?;
        if self.fsync_every_append {
            file.sync_data()?;
        }
        Ok(())
    }

    fn replay(&self) -> Result<StoreReplay, StoreError> {
        let mut file = self.file.lock().expect("log store lock poisoned");
        let mut replay = self.read_validated(&mut file)?;
        drop(file);
        // Damage truncated away at open is still damage the caller
        // should see in recovery stats.
        replay.rejected_frames += self.rejected_at_open;
        Ok(replay)
    }

    fn compact(&self) -> Result<(), StoreError> {
        let mut file = self.file.lock().expect("log store lock poisoned");
        let replay = self.read_validated(&mut file)?;
        let mut frames = Vec::new();
        for (&shard, evidence) in &replay.shards {
            if !evidence.is_empty() {
                frames.extend(encode_frame(shard, RecordKind::Snapshot, evidence));
            }
        }
        *file = replace_log(&self.path, &frames)?;
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.file
            .lock()
            .expect("log store lock poisoned")
            .sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_log(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "pnme-log-{}-{}-{}.log",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn ev(node: u16, packets: usize) -> Evidence {
        let mut e = Evidence::default();
        e.nodes.insert(node);
        e.counters.packets = packets;
        e
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_reopen_replays() {
        let path = temp_log("reopen");
        let store = LogStore::open(&path).unwrap();
        store.append(0, RecordKind::Delta, &ev(1, 2)).unwrap();
        store.append(1, RecordKind::Delta, &ev(2, 3)).unwrap();
        store.append(0, RecordKind::Delta, &ev(3, 1)).unwrap();
        store.sync().unwrap();
        drop(store);

        let reopened = LogStore::open(&path).unwrap();
        assert_eq!(reopened.rejected_at_open(), 0);
        let replay = reopened.replay().unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.rejected_frames, 0);
        assert_eq!(replay.shards[&0].counters.packets, 3);
        assert_eq!(replay.shards[&1].counters.packets, 3);
        assert_eq!(replay.merged().nodes.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncated_at_open() {
        let path = temp_log("torn");
        let store = LogStore::open(&path).unwrap();
        store.append(0, RecordKind::Delta, &ev(1, 1)).unwrap();
        store.append(0, RecordKind::Delta, &ev(2, 1)).unwrap();
        drop(store);
        // Simulate a crash mid-append: garbage bytes at the tail.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]).unwrap();
        drop(file);

        let recovered = LogStore::open(&path).unwrap();
        assert_eq!(recovered.rejected_at_open(), 1);
        let replay = recovered.replay().unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(replay.rejected_frames, 1);
        // The truncation is clean: appending after recovery works.
        recovered.append(0, RecordKind::Delta, &ev(3, 1)).unwrap();
        assert_eq!(recovered.replay().unwrap().records, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_flip_rejects_frame_and_everything_after() {
        let path = temp_log("crcflip");
        let store = LogStore::open(&path).unwrap();
        store.append(0, RecordKind::Delta, &ev(1, 1)).unwrap();
        store.append(0, RecordKind::Delta, &ev(2, 1)).unwrap();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the first frame's payload.
        let target = HEADER_LEN + 8 + 3;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = LogStore::open(&path).unwrap();
        assert_eq!(recovered.rejected_at_open(), 1);
        // Nothing after the corrupt frame survives (no resync marker).
        assert_eq!(recovered.replay().unwrap().records, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_collapses_to_snapshots() {
        let path = temp_log("compact");
        let store = LogStore::open(&path).unwrap();
        for i in 0..10u16 {
            store
                .append(u32::from(i % 2), RecordKind::Delta, &ev(i, 1))
                .unwrap();
        }
        let before = store.replay().unwrap();
        let size_before = std::fs::metadata(&path).unwrap().len();
        store.compact().unwrap();
        let size_after = std::fs::metadata(&path).unwrap().len();
        assert!(size_after < size_before);
        let after = store.replay().unwrap();
        assert_eq!(after.shards, before.shards);
        assert_eq!(after.records, 2); // one snapshot per shard
                                      // The store stays appendable after the file swap.
        store.append(0, RecordKind::Delta, &ev(99, 1)).unwrap();
        assert!(store.replay().unwrap().shards[&0].nodes.contains(&99));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_future_version_rejected() {
        let path = temp_log("magic");
        std::fs::write(&path, b"NOTALOGFILE").unwrap();
        assert!(matches!(
            LogStore::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&9u16.to_be_bytes());
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            LogStore::open(&path),
            Err(StoreError::UnsupportedVersion { found: 9 })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A hand-built v1 log — a v1 header, one delta frame whose evidence
    /// carries non-zero work counters and a first-unequivocal index, and a
    /// torn tail — opens, replays to the v2 evidence with those fields
    /// dropped, is rewritten as v2, and takes appends.
    #[test]
    fn v1_log_opens_replays_and_is_rewritten_as_v2() {
        let path = temp_log("v1");
        let mut want = ev(4, 3);
        want.counters.marks_verified = 9;
        want.counters.duplicates_suppressed = 1;
        want.chains_observed = 2;
        want.nodes.insert(5);
        want.edges.insert((4, 5));
        want.edge_support.insert((4, 5), 2);
        // v1 evidence: the seven verdict counters with hash_count,
        // table_builds, table_cache_hits and a since-removed fallback-scan count
        // interleaved, chains, a set first-unequivocal index, then the
        // collections exactly as v2 encodes them.
        let c = want.counters;
        let mut payload = vec![RecordKind::Delta.to_byte()];
        payload.extend_from_slice(&0u32.to_be_bytes());
        for field in [
            c.packets,
            70,
            c.marks_verified,
            c.marks_rejected,
            3,
            4,
            1,
            c.suspicious,
            c.benign,
            c.malformed,
            c.duplicates_suppressed,
            want.chains_observed,
        ] {
            payload.extend_from_slice(&(field as u64).to_be_bytes());
        }
        payload.push(1);
        payload.extend_from_slice(&5u64.to_be_bytes());
        payload.extend_from_slice(&want.to_bytes()[8 * 8..]);
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&VERSION_1.to_be_bytes());
        v1.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        v1.extend_from_slice(&crc32(&payload).to_be_bytes());
        v1.extend_from_slice(&payload);
        std::fs::write(&path, [&v1[..], &[0xDE, 0xAD][..]].concat()).unwrap();

        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.rejected_at_open(), 1);
        let replay = store.replay().unwrap();
        assert_eq!(replay.records, 1);
        assert_eq!(replay.shards[&0].to_bytes(), want.to_bytes());
        // Rewritten in place as v2: the four work counters and the set
        // index (1 + 8 bytes) are gone, and so is the torn tail.
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(rewritten[4..HEADER_LEN], VERSION.to_be_bytes());
        assert_eq!(rewritten.len(), v1.len() - 4 * 8 - 9);
        store.append(0, RecordKind::Delta, &ev(6, 1)).unwrap();
        drop(store);

        let reopened = LogStore::open(&path).unwrap();
        assert_eq!(reopened.rejected_at_open(), 0);
        assert_eq!(
            std::fs::read(&path).unwrap()[4..HEADER_LEN],
            VERSION.to_be_bytes()
        );
        let replay = reopened.replay().unwrap();
        assert_eq!(replay.records, 2);
        want.merge(&ev(6, 1));
        assert_eq!(replay.shards[&0].to_bytes(), want.to_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_rewritten() {
        let path = temp_log("tornheader");
        std::fs::write(&path, b"PN").unwrap();
        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.replay().unwrap().records, 0);
        store.append(0, RecordKind::Delta, &ev(1, 1)).unwrap();
        assert_eq!(store.replay().unwrap().records, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_mode_appends_replays_and_compacts() {
        let path = temp_log("fsync");
        let store = LogStore::open(&path).unwrap().with_fsync(true);
        store.append(0, RecordKind::Delta, &ev(1, 1)).unwrap();
        store.append(0, RecordKind::Delta, &ev(2, 1)).unwrap();
        assert_eq!(store.replay().unwrap().records, 2);
        store.compact().unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.records, 1);
        assert_eq!(replay.shards[&0].counters.packets, 2);
        std::fs::remove_file(&path).ok();
    }
}
