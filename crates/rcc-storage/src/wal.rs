//! Write-ahead log with CRC-framed records and torn-tail recovery.
//!
//! The log is a single append-only file. It opens with an 8-byte magic
//! (`RCCWAL01`); every record after that is framed as
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! Payloads are encoded by [`crate::codec`] and carry either a committed
//! transaction or a replication-watermark update. Recovery scans from the
//! magic forward and stops at the first frame whose length is implausible,
//! whose CRC does not match, or whose payload fails strict decoding; the
//! file is truncated back to the last valid frame so a torn tail from a
//! crash mid-append can never resurrect an unacknowledged suffix.
//!
//! Durability policy is chosen at open time ([`SyncPolicy`]):
//!
//! * `Always` — `fsync` inside [`Wal::append`], before the caller publishes
//!   the copy-on-write snapshot. Strict WAL-before-visibility.
//! * `Group` — `append` only buffers in the OS; committers call
//!   [`Wal::sync_to`] after publishing, where the first waiter becomes the
//!   flush leader and one `fsync` covers every record appended so far.
//!   A commit may be briefly visible-but-not-yet-durable; it is never
//!   acknowledged before it is durable, and recovery simply replays the
//!   longest durable prefix.
//! * `Never` — no fsync; for benchmarks establishing the no-durability
//!   ceiling.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, PoisonError};

use parking_lot::Mutex;
use rcc_common::{Error, Result};

use crate::codec::{self, crc32, Reader};
use crate::table::RowChange;

/// File magic for WAL files (8 bytes, includes a format version).
pub const WAL_MAGIC: &[u8; 8] = b"RCCWAL01";

/// Maximum plausible payload length; frames claiming more are corruption.
const MAX_PAYLOAD: u32 = 1 << 30;

/// When acknowledged commits become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` on every append, before the copy-on-write snapshot is published.
    Always,
    /// Leader-batched group commit: publish first, `fsync` before the ack.
    Group,
    /// Never `fsync` (benchmark baseline; crash durability not provided).
    Never,
}

/// A committed transaction as logged: id, commit timestamp, and the
/// per-table row changes in application order.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Transaction id (1-based, dense, assigned at commit).
    pub id: u64,
    /// Commit timestamp on the simulation clock, in milliseconds.
    pub commit_ms: i64,
    /// `(table, change)` pairs in the order they were applied.
    pub changes: Vec<(String, RowChange)>,
}

/// A replication agent's last-propagated position, persisted per region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatermarkRecord {
    /// Currency-region name the agent serves.
    pub region: String,
    /// Master-log cursor the agent has propagated through.
    pub cursor: u64,
    /// Last heartbeat timestamp propagated to the cache, ms (−1 = none).
    pub heartbeat_ms: i64,
}

/// One durable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed transaction.
    Commit(CommitRecord),
    /// A replication watermark update.
    Watermark(WatermarkRecord),
}

const TAG_COMMIT: u8 = 1;
const TAG_WATERMARK: u8 = 2;

/// Encode a record payload (without framing).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Commit(c) => {
            out.push(TAG_COMMIT);
            out.extend_from_slice(&c.id.to_le_bytes());
            out.extend_from_slice(&c.commit_ms.to_le_bytes());
            out.extend_from_slice(&(c.changes.len() as u32).to_le_bytes());
            for (table, change) in &c.changes {
                codec::encode_str(table, &mut out);
                codec::encode_change(change, &mut out);
            }
        }
        WalRecord::Watermark(w) => {
            out.push(TAG_WATERMARK);
            codec::encode_str(&w.region, &mut out);
            out.extend_from_slice(&w.cursor.to_le_bytes());
            out.extend_from_slice(&w.heartbeat_ms.to_le_bytes());
        }
    }
    out
}

/// Decode a record payload produced by [`encode_record`]. Strict: trailing
/// bytes after the record are corruption.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_COMMIT => {
            let id = r.u64()?;
            let commit_ms = r.i64()?;
            let count = r.u32()? as usize;
            if count > r.remaining() {
                return Err(Error::Storage(format!(
                    "commit claims {count} changes in {} bytes",
                    r.remaining()
                )));
            }
            let mut changes = Vec::with_capacity(count);
            for _ in 0..count {
                let table = r.str()?;
                let change = r.change()?;
                changes.push((table, change));
            }
            WalRecord::Commit(CommitRecord {
                id,
                commit_ms,
                changes,
            })
        }
        TAG_WATERMARK => WalRecord::Watermark(WatermarkRecord {
            region: r.str()?,
            cursor: r.u64()?,
            heartbeat_ms: r.i64()?,
        }),
        tag => return Err(Error::Storage(format!("unknown wal record tag {tag}"))),
    };
    if !r.is_exhausted() {
        return Err(Error::Storage(format!(
            "wal record has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(rec)
}

/// Frame a payload for appending: length, CRC, payload.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of scanning a WAL byte buffer.
#[derive(Debug)]
pub struct WalScan {
    /// Records recovered, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last valid frame (≥ magic length).
    pub valid_len: u64,
}

/// Scan `buf` (a full WAL file image) and return the longest valid prefix.
///
/// Never errors on corruption: the scan simply stops at the first bad
/// frame. A missing or mismatched magic yields zero records with
/// `valid_len` equal to the magic length (the file will be rewritten).
pub fn scan(buf: &[u8]) -> WalScan {
    let magic_len = WAL_MAGIC.len() as u64;
    if buf.len() < WAL_MAGIC.len() || &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
        return WalScan {
            records: Vec::new(),
            valid_len: magic_len,
        };
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        if buf.len() - pos < 8 {
            break;
        }
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
        let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        if len > MAX_PAYLOAD || buf.len() - pos - 8 < len as usize {
            break;
        }
        let payload = &buf[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            break;
        }
        match decode_record(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
        pos += 8 + len as usize;
    }
    WalScan {
        records,
        valid_len: pos as u64,
    }
}

struct WalFile {
    file: File,
    len: u64,
}

struct GroupSync {
    synced: u64,
    flushing: bool,
}

/// The open write-ahead log.
pub struct Wal {
    state: Mutex<WalFile>,
    group: StdMutex<GroupSync>,
    group_cv: Condvar,
    policy: SyncPolicy,
    bytes: AtomicU64,
    records: AtomicU64,
    fsyncs: AtomicU64,
}

/// What [`Wal::open`] recovered from an existing log file.
#[derive(Debug)]
pub struct WalRecovery {
    /// Records in the longest valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes cut from a torn or corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
}

fn io_err(op: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("wal {op}: {e}"))
}

impl Wal {
    /// Open (creating if absent) the log at `path`, recovering its valid
    /// prefix and truncating any torn tail in place.
    pub fn open(path: &Path, policy: SyncPolicy) -> Result<(Wal, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf).map_err(|e| io_err("read", e))?;
        let scanned = scan(&buf);
        let had_magic = buf.len() >= WAL_MAGIC.len() && &buf[..WAL_MAGIC.len()] == WAL_MAGIC;
        if !had_magic {
            file.set_len(0).map_err(|e| io_err("truncate", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek", e))?;
            file.write_all(WAL_MAGIC).map_err(|e| io_err("write", e))?;
            file.sync_data().map_err(|e| io_err("fsync", e))?;
        } else if scanned.valid_len < buf.len() as u64 {
            file.set_len(scanned.valid_len)
                .map_err(|e| io_err("truncate", e))?;
            file.sync_data().map_err(|e| io_err("fsync", e))?;
        }
        let truncated_bytes = if had_magic {
            (buf.len() as u64).saturating_sub(scanned.valid_len)
        } else {
            buf.len() as u64
        };
        let len = scanned.valid_len.max(WAL_MAGIC.len() as u64);
        file.seek(SeekFrom::Start(len))
            .map_err(|e| io_err("seek", e))?;
        let record_count = scanned.records.len() as u64;
        let wal = Wal {
            state: Mutex::new(WalFile { file, len }),
            group: StdMutex::new(GroupSync {
                synced: len,
                flushing: false,
            }),
            group_cv: Condvar::new(),
            policy,
            bytes: AtomicU64::new(len),
            records: AtomicU64::new(record_count),
            fsyncs: AtomicU64::new(0),
        };
        Ok((
            wal,
            WalRecovery {
                records: scanned.records,
                truncated_bytes,
            },
        ))
    }

    /// Append one record; returns the LSN (file length after the frame).
    ///
    /// Under [`SyncPolicy::Always`] the frame is fsynced before returning,
    /// so callers may publish the corresponding in-memory state immediately.
    pub fn append(&self, rec: &WalRecord) -> Result<u64> {
        let framed = frame_record(&encode_record(rec));
        let mut state = self.state.lock();
        state
            .file
            .write_all(&framed)
            .map_err(|e| io_err("append", e))?;
        state.len += framed.len() as u64;
        let lsn = state.len;
        if self.policy == SyncPolicy::Always {
            state.file.sync_data().map_err(|e| io_err("fsync", e))?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        drop(state);
        self.bytes.store(lsn, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
        if self.policy == SyncPolicy::Always {
            let mut g = self.group.lock().unwrap_or_else(PoisonError::into_inner);
            if g.synced < lsn {
                g.synced = lsn;
            }
        }
        Ok(lsn)
    }

    /// Block until everything up to `lsn` is durable.
    ///
    /// No-op under `Always` (append already synced) and `Never`. Under
    /// `Group`, the first waiter becomes the flush leader: it fsyncs once,
    /// covering every record appended so far, and wakes the cohort.
    pub fn sync_to(&self, lsn: u64) -> Result<()> {
        if self.policy != SyncPolicy::Group {
            return Ok(());
        }
        loop {
            {
                let mut g = self.group.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if g.synced >= lsn {
                        return Ok(());
                    }
                    if !g.flushing {
                        g.flushing = true;
                        break;
                    }
                    g = self
                        .group_cv
                        .wait(g)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
            // Leader: one fsync covers all frames appended before this point.
            let flushed = {
                let state = self.state.lock();
                let res = state.file.sync_data();
                let len = state.len;
                drop(state);
                res.map(|()| len)
            };
            let mut g = self.group.lock().unwrap_or_else(PoisonError::into_inner);
            g.flushing = false;
            let outcome = match flushed {
                Ok(len) => {
                    if g.synced < len {
                        g.synced = len;
                    }
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
                Err(e) => Err(io_err("group fsync", e)),
            };
            drop(g);
            self.group_cv.notify_all();
            outcome?;
            // Loop: our own frame predates the fsync, so the next pass exits.
        }
    }

    /// Discard all records (after a checkpoint has captured their effects):
    /// truncate back to the magic and fsync.
    pub fn reset(&self) -> Result<()> {
        let mut state = self.state.lock();
        state
            .file
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(|e| io_err("truncate", e))?;
        state
            .file
            .seek(SeekFrom::Start(WAL_MAGIC.len() as u64))
            .map_err(|e| io_err("seek", e))?;
        state.file.sync_data().map_err(|e| io_err("fsync", e))?;
        state.len = WAL_MAGIC.len() as u64;
        let len = state.len;
        drop(state);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.bytes.store(len, Ordering::Relaxed);
        self.records.store(0, Ordering::Relaxed);
        let mut g = self.group.lock().unwrap_or_else(PoisonError::into_inner);
        g.synced = len;
        Ok(())
    }

    /// Current log size in bytes (magic included).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Records appended since open or the last [`Wal::reset`].
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Lifetime fsync count.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// The durability policy this log was opened with.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Row, Value};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rcc-wal-{}-{tag}-{n}.log", std::process::id()))
    }

    fn commit(id: u64) -> WalRecord {
        WalRecord::Commit(CommitRecord {
            id,
            commit_ms: 1000 + id as i64,
            changes: vec![(
                "customer".into(),
                RowChange::Insert(Row::new(vec![
                    Value::Int(id as i64),
                    Value::Str("x".into()),
                ])),
            )],
        })
    }

    #[test]
    fn append_reopen_roundtrip() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (wal, rec) = Wal::open(&path, SyncPolicy::Always).unwrap();
            assert!(rec.records.is_empty());
            assert_eq!(rec.truncated_bytes, 0);
            wal.append(&commit(1)).unwrap();
            wal.append(&WalRecord::Watermark(WatermarkRecord {
                region: "CR1".into(),
                cursor: 17,
                heartbeat_ms: 42,
            }))
            .unwrap();
            assert_eq!(wal.records(), 2);
            assert!(wal.fsyncs() >= 2);
        }
        let (wal, rec) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0], commit(1));
        match &rec.records[1] {
            WalRecord::Watermark(w) => {
                assert_eq!(w.region, "CR1");
                assert_eq!(w.cursor, 17);
                assert_eq!(w.heartbeat_ms, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(wal.records(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(&commit(1)).unwrap();
            wal.append(&commit(2)).unwrap();
        }
        // Tear the last frame: chop 3 bytes off the end.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (_, rec) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0], commit(1));
        assert!(rec.truncated_bytes > 0);
        // The file was physically truncated, so a second open is clean.
        let (_, rec2) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(rec2.records.len(), 1);
        assert_eq!(rec2.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_sync_makes_records_durable() {
        let path = temp_path("group");
        let _ = std::fs::remove_file(&path);
        {
            let (wal, _) = Wal::open(&path, SyncPolicy::Group).unwrap();
            let lsn = wal.append(&commit(1)).unwrap();
            assert_eq!(wal.fsyncs(), 0);
            wal.sync_to(lsn).unwrap();
            assert_eq!(wal.fsyncs(), 1);
            // Already-synced LSN returns without another fsync.
            wal.sync_to(lsn).unwrap();
            assert_eq!(wal.fsyncs(), 1);
        }
        let (_, rec) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(rec.records.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_discards_records() {
        let path = temp_path("reset");
        let _ = std::fs::remove_file(&path);
        let (wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.bytes(), WAL_MAGIC.len() as u64);
        wal.append(&commit(9)).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0], commit(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_file_recovers_empty() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        let (wal, rec) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert!(rec.records.is_empty());
        wal.append(&commit(1)).unwrap();
        drop(wal);
        let (_, rec2) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(rec2.records.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
