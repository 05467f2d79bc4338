//! Append-only segmented log with crash recovery.
//!
//! A log directory holds numbered segment files plus optional snapshot
//! files:
//!
//! ```text
//! snap-0000000000000030.snap   state covering records [0, 48)
//! wal-0000000000000030.seg     frames for records [48, 90)
//! wal-000000000000005a.seg     frames for records [90, ...)   (active)
//! ```
//!
//! Each segment starts with a 16-byte header (`SCIWAL01` magic + the
//! big-endian index of its first record) followed by back-to-back
//! [`Frame`]s. Records are identified by a monotonically increasing
//! *index*; a snapshot file named `snap-<i>` replaces replay of every
//! record below `i`, which is what lets [`SegmentLog::prune_below`]
//! delete old segments. A snapshot of everything logged closes the
//! active segment first, so after it the directory holds the snapshot
//! and a segment starting at its index: a reopen reads only the records
//! the snapshot does not cover.
//!
//! Recovery semantics on [`SegmentLog::open`]:
//!
//! - a decode failure in the **active** (last) segment is a torn tail:
//!   the file is truncated back to its last intact frame and the byte
//!   count is reported — a crash mid-write is expected, not an error;
//! - a decode failure in any **closed** segment is data corruption and
//!   fails the open with [`WalError::Corrupt`] naming the segment file
//!   and byte offset — a closed segment was fsynced in full, so a bad
//!   byte there must never be silently skipped or replayed.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::codec::{
    check_payload, encode_frame, frame_head, frame_tail, payload_len, CodecError, Frame,
    FrameReader, FRAME_OVERHEAD,
};

const SEGMENT_MAGIC: &[u8; 8] = b"SCIWAL01";
const SNAPSHOT_MAGIC: &[u8; 8] = b"SCISNP01";
const HEADER_LEN: u64 = 16;

/// When appended frames are forced to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: no acknowledged record is ever
    /// lost, at the price of a disk round-trip per command.
    Always,
    /// `fsync` every N appends (and on rotation/shutdown): bounds loss
    /// to the last N-1 records while keeping appends buffered.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS flushes when it pleases.
    /// Fastest, loses an unbounded suffix on power failure.
    Never,
}

/// What went wrong in the log layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the log was doing.
        context: String,
        /// The OS error.
        source: io::Error,
    },
    /// A closed segment holds bytes that fail CRC or structural
    /// checks: replaying past this point would fabricate history.
    Corrupt {
        /// File name of the damaged segment.
        segment: String,
        /// Byte offset of the first bad frame within that file.
        offset: u64,
        /// Decoder diagnosis.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { context, source } => write!(f, "wal io error while {context}: {source}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal corruption in closed segment {segment} at byte {offset}: {detail}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(context: impl Into<String>, source: io::Error) -> WalError {
    WalError::Io {
        context: context.into(),
        source,
    }
}

/// Everything [`SegmentLog::open`] learned while scanning the
/// directory.
#[derive(Debug)]
pub struct Recovered {
    /// Intact records in index order: `(index, frame)`.
    pub frames: Vec<(u64, Frame)>,
    /// Bytes discarded from the active segment's torn tail (0 on a
    /// clean shutdown).
    pub torn_bytes: u64,
    /// Decoder diagnosis for the torn tail, when one was cut.
    pub torn_detail: Option<String>,
}

/// Outcome of one append.
#[derive(Clone, Copy, Debug)]
pub struct Appended {
    /// Index assigned to the record.
    pub index: u64,
    /// Encoded bytes written (framing included).
    pub bytes: u64,
    /// Whether this append ran an fsync.
    pub synced: bool,
}

/// Makes the directory's own entries durable: a file created or
/// renamed in it survives a power cut only once the directory is
/// synced, and an unlink synced later may otherwise survive it alone.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(format!("syncing {}", dir.display()), e))
}

fn segment_path(dir: &Path, first_index: u64) -> PathBuf {
    dir.join(format!("wal-{first_index:016x}.seg"))
}

fn snapshot_path(dir: &Path, applied_index: u64) -> PathBuf {
    dir.join(format!("snap-{applied_index:016x}.snap"))
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    u64::from_str_radix(rest, 16).ok()
}

/// The indices of the files in `dir` named `<prefix><hex><suffix>`,
/// ascending.
fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<u64>, WalError> {
    let mut indices: Vec<u64> = fs::read_dir(dir)
        .map_err(|e| io_err(format!("listing {}", dir.display()), e))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            parse_numbered(&name.to_string_lossy(), prefix, suffix)
        })
        .collect();
    indices.sort_unstable();
    Ok(indices)
}

/// An append-only log of tagged frames split across segment files.
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    writer: BufWriter<File>,
    active_first: u64,
    active_len: u64,
    next_index: u64,
    unsynced: u32,
    /// First index of every segment on disk, ascending (last = active).
    segment_firsts: Vec<u64>,
}

impl SegmentLog {
    /// Opens (or creates) the log in `dir`, scanning every segment.
    ///
    /// Returns the log positioned for appending plus the recovered
    /// frames. See the module docs for torn-tail vs closed-segment
    /// semantics.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failures, [`WalError::Corrupt`]
    /// when a closed segment fails its checksums.
    pub fn open(
        dir: impl Into<PathBuf>,
        fsync: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<(SegmentLog, Recovered), WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(format!("creating {}", dir.display()), e))?;

        let firsts = list_numbered(&dir, "wal-", ".seg")?;

        let mut frames = Vec::new();
        let mut torn_bytes = 0u64;
        let mut torn_detail = None;
        for (i, &first) in firsts.iter().enumerate() {
            let path = segment_path(&dir, first);
            let name = format!("wal-{first:016x}.seg");
            let bytes =
                fs::read(&path).map_err(|e| io_err(format!("reading {}", path.display()), e))?;
            let last = i + 1 == firsts.len();
            let header_ok = bytes.len() >= HEADER_LEN as usize
                && &bytes[..8] == SEGMENT_MAGIC
                && bytes[8..16] == first.to_be_bytes();
            if !header_ok {
                if last && frames.iter().all(|(idx, _)| *idx < first) {
                    // A crash between creating the file and writing its
                    // header: the whole segment is a torn tail.
                    torn_bytes += bytes.len() as u64;
                    torn_detail = Some("segment header torn".into());
                    fs::remove_file(&path)
                        .map_err(|e| io_err(format!("removing torn {}", path.display()), e))?;
                    continue;
                }
                return Err(WalError::Corrupt {
                    segment: name,
                    offset: 0,
                    detail: "bad segment header".into(),
                });
            }
            let mut reader = FrameReader::new(&bytes[HEADER_LEN as usize..]);
            let mut index = first;
            loop {
                match reader.next() {
                    Ok(Some(frame)) => {
                        frames.push((index, frame));
                        index += 1;
                    }
                    Ok(None) => break,
                    Err(err) => {
                        let offset = HEADER_LEN
                            + match &err {
                                CodecError::Incomplete { offset }
                                | CodecError::Corrupt { offset, .. } => *offset as u64,
                            };
                        if !last {
                            return Err(WalError::Corrupt {
                                segment: name,
                                offset,
                                detail: err.to_string(),
                            });
                        }
                        // Torn tail in the active segment: cut it back
                        // to the last intact frame.
                        torn_bytes += bytes.len() as u64 - offset;
                        torn_detail = Some(err.to_string());
                        let f = OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(|e| io_err(format!("opening {}", path.display()), e))?;
                        f.set_len(offset)
                            .map_err(|e| io_err(format!("truncating {}", path.display()), e))?;
                        f.sync_data()
                            .map_err(|e| io_err(format!("syncing {}", path.display()), e))?;
                        break;
                    }
                }
            }
        }

        // Re-list: a fully-torn trailing segment may have been removed.
        let mut segment_firsts = list_numbered(&dir, "wal-", ".seg")?;

        // An empty (possibly pruned) log resumes at its newest
        // segment's base index rather than restarting from zero.
        let next_index = frames
            .last()
            .map(|(i, _)| i + 1)
            .unwrap_or_else(|| segment_firsts.last().copied().unwrap_or(0));

        let (active_first, writer, active_len) = match segment_firsts.last() {
            Some(&first) => {
                let path = segment_path(&dir, first);
                let len = fs::metadata(&path)
                    .map_err(|e| io_err(format!("stat {}", path.display()), e))?
                    .len();
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err(format!("opening {}", path.display()), e))?;
                (first, BufWriter::new(file), len)
            }
            None => {
                let (file, len) = Self::create_segment(&dir, next_index)?;
                segment_firsts.push(next_index);
                (next_index, BufWriter::new(file), len)
            }
        };

        Ok((
            SegmentLog {
                dir,
                fsync,
                segment_bytes: segment_bytes.max(HEADER_LEN + 1),
                writer,
                active_first,
                active_len,
                next_index,
                unsynced: 0,
                segment_firsts,
            },
            Recovered {
                frames,
                torn_bytes,
                torn_detail,
            },
        ))
    }

    fn create_segment(dir: &Path, first_index: u64) -> Result<(File, u64), WalError> {
        let path = segment_path(dir, first_index);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(format!("creating {}", path.display()), e))?;
        file.write_all(SEGMENT_MAGIC)
            .map_err(|e| io_err(format!("writing header of {}", path.display()), e))?;
        file.write_all(&first_index.to_be_bytes())
            .map_err(|e| io_err(format!("writing header of {}", path.display()), e))?;
        file.sync_data()
            .map_err(|e| io_err(format!("syncing {}", path.display()), e))?;
        Ok((file, HEADER_LEN))
    }

    /// Index the next append will receive.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Number of segment files (including the active one).
    pub fn segment_count(&self) -> usize {
        self.segment_firsts.len()
    }

    /// Appends one frame, rotating and fsyncing per policy.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on write failures.
    pub fn append(&mut self, frame: &Frame) -> Result<Appended, WalError> {
        let encoded = frame.encoded_len() as u64;
        if self.active_len > HEADER_LEN && self.active_len + encoded > self.segment_bytes {
            self.rotate()?;
        }
        let mut buf = Vec::with_capacity(frame.encoded_len());
        encode_frame(frame, &mut buf);
        self.writer
            .write_all(&buf)
            .map_err(|e| io_err("appending frame", e))?;
        self.active_len += encoded;
        let index = self.next_index;
        self.next_index += 1;
        self.unsynced += 1;
        let synced = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if synced {
            self.sync()?;
        }
        Ok(Appended {
            index,
            bytes: encoded,
            synced,
        })
    }

    /// Flushes buffered appends and fsyncs the active segment.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on flush/sync failures.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.writer
            .flush()
            .map_err(|e| io_err("flushing active segment", e))?;
        self.writer
            .get_ref()
            .sync_data()
            .map_err(|e| io_err("fsyncing active segment", e))?;
        self.unsynced = 0;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let (file, len) = Self::create_segment(&self.dir, self.next_index)?;
        self.writer = BufWriter::new(file);
        self.active_first = self.next_index;
        self.active_len = len;
        self.segment_firsts.push(self.next_index);
        Ok(())
    }

    /// Deletes the segments whose records all precede `index` (i.e.
    /// are fully covered by a snapshot at `index`). A snapshot of
    /// everything logged — `index` at [`SegmentLog::next_index`] —
    /// first closes an active segment that holds frames, so what it
    /// covers goes too and the log is left one empty segment starting
    /// at `index`. Returns how many files were removed.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the rotation, the directory sync or a
    /// delete fails.
    pub fn prune_below(&mut self, index: u64) -> Result<usize, WalError> {
        if index >= self.next_index && self.active_len > HEADER_LEN {
            self.rotate()?;
        }
        // A segment's records end where the next one's begin.
        let covered = self
            .segment_firsts
            .windows(2)
            .take_while(|pair| pair[1] <= index)
            .count();
        if covered > 0 {
            // Rename and rotation first: an unlink must not outlive them.
            sync_dir(&self.dir)?;
        }
        for _ in 0..covered {
            let victim = segment_path(&self.dir, self.segment_firsts[0]);
            fs::remove_file(&victim)
                .map_err(|e| io_err(format!("pruning {}", victim.display()), e))?;
            self.segment_firsts.remove(0);
        }
        Ok(covered)
    }
}

impl Drop for SegmentLog {
    fn drop(&mut self) {
        // Best effort: buffered-but-unflushed frames are exactly what
        // the torn-tail recovery path exists for.
        let _ = self.writer.flush();
    }
}

/// Writes a snapshot covering every record below `applied_index`,
/// atomically (write to a temp name, fsync, rename). Returns the
/// snapshot's size in bytes.
///
/// # Errors
///
/// [`WalError::Io`] on filesystem failures.
pub fn write_snapshot(
    dir: impl AsRef<Path>,
    applied_index: u64,
    payload: &[u8],
) -> Result<u64, WalError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir).map_err(|e| io_err(format!("creating {}", dir.display()), e))?;
    let tmp = dir.join(format!("snap-{applied_index:016x}.tmp"));
    let fin = snapshot_path(dir, applied_index);
    let mut file =
        File::create(&tmp).map_err(|e| io_err(format!("creating {}", tmp.display()), e))?;
    // The frame is written around the caller's payload, not copied
    // into a buffer of its own: the payload is most of a snapshot.
    let (head, tail) = (frame_head(0, payload), frame_tail(0, payload));
    for part in [&SNAPSHOT_MAGIC[..], &head, payload, &tail] {
        file.write_all(part)
            .map_err(|e| io_err(format!("writing {}", tmp.display()), e))?;
    }
    file.sync_data()
        .map_err(|e| io_err(format!("syncing {}", tmp.display()), e))?;
    drop(file);
    fs::rename(&tmp, &fin).map_err(|e| io_err(format!("renaming to {}", fin.display()), e))?;
    Ok((SNAPSHOT_MAGIC.len() + FRAME_OVERHEAD + payload.len()) as u64)
}

/// The newest intact snapshot, if any: its `(applied_index, payload)`.
pub type LatestSnapshot = Option<(u64, Vec<u8>)>;

/// Reads the newest intact snapshot in `dir`.
///
/// Returns `(applied_index, payload)` of the best snapshot plus how
/// many newer-but-damaged snapshot files were skipped (a crash during
/// [`write_snapshot`] leaves none, but a torn disk might).
///
/// # Errors
///
/// [`WalError::Io`] when the directory cannot be listed or read.
pub fn read_latest_snapshot(dir: impl AsRef<Path>) -> Result<(LatestSnapshot, usize), WalError> {
    let dir = dir.as_ref();
    if !dir.exists() {
        return Ok((None, 0));
    }
    let mut skipped = 0;
    for applied in list_numbered(dir, "snap-", ".snap")?.into_iter().rev() {
        let path = snapshot_path(dir, applied);
        match read_snapshot(&path).map_err(|e| io_err(format!("reading {}", path.display()), e))? {
            Some(payload) => return Ok((Some((applied, payload)), skipped)),
            None => skipped += 1,
        }
    }
    Ok((None, skipped))
}

/// The payload of the snapshot file at `path`, or `None` if the file is
/// not intact: the magic, then exactly one frame that checks out. The
/// head is read on its own, and the payload straight into the buffer
/// returned, where the frame checker checks it: the payload is most of
/// a snapshot and is never copied.
fn read_snapshot(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut file = File::open(path)?;
    let size = file.metadata()?.len();
    let mut head = [0u8; SNAPSHOT_MAGIC.len() + 5];
    if size < head.len() as u64 + 4 {
        return Ok(None);
    }
    file.read_exact(&mut head)?;
    let [magic @ .., l0, l1, l2, l3, tag] = head;
    let n = match payload_len([l0, l1, l2, l3]) {
        Ok(n) if magic == *SNAPSHOT_MAGIC && size == (head.len() + n + 4) as u64 => n,
        _ => return Ok(None),
    };
    let mut payload = Vec::with_capacity(n + 4);
    file.take(n as u64 + 4).read_to_end(&mut payload)?;
    let crc = match payload.last_chunk::<4>() {
        Some(&crc) if payload.len() == n + 4 => crc,
        _ => return Ok(None), // the file shrank under the read
    };
    payload.truncate(n);
    Ok(check_payload(tag, &payload, crc).is_ok().then_some(payload))
}

/// Deletes every snapshot whose applied index is below `keep` — the
/// index of a snapshot [`write_snapshot`] has just put in place, which
/// is intact by construction (synced before its rename), so no file is
/// read. Returns how many files were removed.
///
/// # Errors
///
/// [`WalError::Io`] when the directory cannot be listed or synced, or
/// a delete fails.
pub fn prune_snapshots(dir: impl AsRef<Path>, keep: u64) -> Result<usize, WalError> {
    let dir = dir.as_ref();
    let mut victims = list_numbered(dir, "snap-", ".snap")?;
    victims.retain(|&applied| applied < keep);
    if !victims.is_empty() {
        // The newer snapshot's rename first: an unlink must not outlive it.
        sync_dir(dir)?;
    }
    for &applied in &victims {
        let path = snapshot_path(dir, applied);
        fs::remove_file(&path)
            .map_err(|e| io_err(format!("pruning snapshot {}", path.display()), e))?;
    }
    Ok(victims.len())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIRS: AtomicU64 = AtomicU64::new(0);

    fn tmpdir(tag: &str) -> PathBuf {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sci-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn frame(i: u64) -> Frame {
        Frame::new((i % 7) as u8, format!("record-{i}").into_bytes())
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = tmpdir("roundtrip");
        {
            let (mut log, rec) = SegmentLog::open(&dir, FsyncPolicy::EveryN(4), 1 << 20).unwrap();
            assert!(rec.frames.is_empty());
            for i in 0..25 {
                let a = log.append(&frame(i)).unwrap();
                assert_eq!(a.index, i);
            }
            log.sync().unwrap();
        }
        let (log, rec) = SegmentLog::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
        assert_eq!(rec.frames.len(), 25);
        assert_eq!(rec.torn_bytes, 0);
        for (i, (idx, f)) in rec.frames.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*f, frame(i as u64));
        }
        assert_eq!(log.next_index(), 25);
    }

    #[test]
    fn rotation_splits_segments_and_indices_survive() {
        let dir = tmpdir("rotate");
        {
            let (mut log, _) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
            for i in 0..40 {
                log.append(&frame(i)).unwrap();
            }
            assert!(log.segment_count() > 1, "tiny segment limit must rotate");
            log.sync().unwrap();
        }
        let (_, rec) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
        let indices: Vec<u64> = rec.frames.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let dir = tmpdir("torn");
        {
            let (mut log, _) = SegmentLog::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
            for i in 0..6 {
                log.append(&frame(i)).unwrap();
            }
            log.sync().unwrap();
        }
        let path = segment_path(&dir, 0);
        let clean = fs::read(&path).unwrap();
        for cut in HEADER_LEN as usize..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            let (_, rec) = SegmentLog::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
            // Every recovered frame must be one of the originals, in
            // order, and the torn byte count must explain the cut.
            for (i, (idx, f)) in rec.frames.iter().enumerate() {
                assert_eq!(*idx, i as u64);
                assert_eq!(*f, frame(i as u64));
            }
            if cut < clean.len() {
                assert!(rec.frames.len() < 6);
            }
            // Restore for the next iteration.
            fs::write(&path, &clean).unwrap();
        }
    }

    #[test]
    fn corrupt_closed_segment_fails_open_with_location() {
        let dir = tmpdir("closedcorrupt");
        {
            let (mut log, _) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
            for i in 0..40 {
                log.append(&frame(i)).unwrap();
            }
            log.sync().unwrap();
            assert!(log.segment_count() >= 3);
        }
        // Flip one byte in the middle of the FIRST (closed) segment.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let victim = bytes.len() / 2;
        bytes[victim] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        match SegmentLog::open(&dir, FsyncPolicy::Never, 64) {
            Err(WalError::Corrupt {
                segment, offset, ..
            }) => {
                assert_eq!(segment, "wal-0000000000000000.seg");
                assert!(offset >= HEADER_LEN);
                assert!(offset <= bytes.len() as u64);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    fn segment_files(dir: &Path) -> Vec<u64> {
        list_numbered(dir, "wal-", ".seg").unwrap()
    }

    #[test]
    fn prune_below_the_next_index_leaves_one_empty_segment_there() {
        let dir = tmpdir("prune");
        let (mut log, _) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
        for i in 0..40 {
            log.append(&frame(i)).unwrap();
        }
        let before = log.segment_count();
        assert!(before >= 3);
        assert_eq!(log.prune_below(40).unwrap(), before, "the active one too");
        assert_eq!(log.segment_count(), 1);
        assert_eq!(segment_files(&dir), [40]);
        drop(log);
        let (mut log, rec) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
        assert!(rec.frames.is_empty());
        assert_eq!(log.next_index(), 40);
        assert_eq!(log.append(&frame(40)).unwrap().index, 40);
        log.sync().unwrap();
        drop(log);
        let (_, rec) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
        assert_eq!(rec.frames, [(40, frame(40))]);
    }

    #[test]
    fn prune_below_an_older_index_keeps_the_segments_it_does_not_cover() {
        let dir = tmpdir("prune-older");
        let (mut log, _) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
        for i in 0..40 {
            log.append(&frame(i)).unwrap();
        }
        log.sync().unwrap();
        let firsts = segment_files(&dir);
        let cover = firsts[2];
        assert_eq!(log.prune_below(cover).unwrap(), 2);
        assert_eq!(segment_files(&dir), firsts[2..]);
        // An index inside a segment covers it only in part: it stays.
        assert_eq!(log.prune_below(cover + 1).unwrap(), 0);
        drop(log);
        let (_, rec) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
        let indices: Vec<u64> = rec.frames.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (cover..40).collect::<Vec<_>>());
    }

    #[test]
    fn prune_below_an_empty_active_segment_changes_nothing() {
        let dir = tmpdir("prune-empty");
        let (mut log, _) = SegmentLog::open(&dir, FsyncPolicy::Never, 64).unwrap();
        assert_eq!(log.prune_below(0).unwrap(), 0);
        assert_eq!(segment_files(&dir), [0]);
    }

    #[test]
    fn fsync_policies_report_sync_cadence() {
        let dir = tmpdir("fsync");
        let (mut log, _) = SegmentLog::open(&dir, FsyncPolicy::EveryN(3), 1 << 20).unwrap();
        let synced: Vec<bool> = (0..7)
            .map(|i| log.append(&frame(i)).unwrap().synced)
            .collect();
        assert_eq!(synced, vec![false, false, true, false, false, true, false]);
        let dir2 = tmpdir("fsync-always");
        let (mut log2, _) = SegmentLog::open(&dir2, FsyncPolicy::Always, 1 << 20).unwrap();
        assert!(log2.append(&frame(0)).unwrap().synced);
    }

    #[test]
    fn snapshot_roundtrip_prune_and_damage_skip() {
        let dir = tmpdir("snap");
        assert!(read_latest_snapshot(&dir).unwrap().0.is_none());
        let written = write_snapshot(&dir, 10, b"state at 10").unwrap();
        // The file is the magic and one frame, written around the
        // payload rather than through a copy of it.
        let mut image = SNAPSHOT_MAGIC.to_vec();
        encode_frame(&Frame::new(0, b"state at 10".to_vec()), &mut image);
        assert_eq!(fs::read(snapshot_path(&dir, 10)).unwrap(), image);
        assert_eq!(written, image.len() as u64);
        write_snapshot(&dir, 30, b"state at 30").unwrap();
        let (best, skipped) = read_latest_snapshot(&dir).unwrap();
        assert_eq!(best, Some((30, b"state at 30".to_vec())));
        assert_eq!(skipped, 0);
        // Damage the newest: recovery falls back to the older one.
        let newest = dir.join(format!("snap-{:016x}.snap", 30u64));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let (best, skipped) = read_latest_snapshot(&dir).unwrap();
        assert_eq!(best, Some((10, b"state at 10".to_vec())));
        assert_eq!(skipped, 1);
        // Pruning keeps only the newest *intact* snapshot... after
        // restoring the damaged file so 30 is best again.
        write_snapshot(&dir, 30, b"state at 30").unwrap();
        let removed = prune_snapshots(&dir, 30).unwrap();
        assert_eq!(removed, 1);
        let (best, _) = read_latest_snapshot(&dir).unwrap();
        assert_eq!(best, Some((30, b"state at 30".to_vec())));
    }

    /// A snapshot long enough for the lane CRC, with one byte flipped in
    /// each of its four lanes or in the tail after them, is skipped as
    /// damaged and the older intact one is read instead.
    #[test]
    fn a_flip_in_any_crc_lane_skips_the_snapshot() {
        let dir = tmpdir("snap-lanes");
        let payload: Vec<u8> = (0..10_003u32).map(|i| (i * 7 + i / 251) as u8).collect();
        write_snapshot(&dir, 10, b"older").unwrap();
        write_snapshot(&dir, 30, &payload).unwrap();
        let path = snapshot_path(&dir, 30);
        let clean = fs::read(&path).unwrap();
        assert_eq!(
            read_latest_snapshot(&dir).unwrap(),
            (Some((30, payload.clone())), 0)
        );
        // The CRC covers the tag and the payload: four lanes of `lane`
        // bytes from the tag on, then a tail of fewer than 32.
        let checked = 1 + payload.len();
        let lane = checked / 32 * 8;
        let tag_at = SNAPSHOT_MAGIC.len() + 4;
        let tail = checked - 4 * lane;
        assert!(lane * 4 >= 4096 && tail > 0);
        let flips = [0, 1, 2, 3].map(|k| k * lane + lane / 2).into_iter();
        for at in flips.chain([4 * lane, checked - 1]) {
            let mut bad = clean.clone();
            bad[tag_at + at] ^= 0x04;
            fs::write(&path, &bad).unwrap();
            let (best, skipped) = read_latest_snapshot(&dir).unwrap();
            assert_eq!(best, Some((10, b"older".to_vec())), "flip at {at}");
            assert_eq!(skipped, 1, "flip at {at}");
        }
    }

    #[test]
    fn empty_directory_starts_at_zero() {
        let dir = tmpdir("empty");
        let (log, rec) = SegmentLog::open(&dir, FsyncPolicy::Never, 1 << 20).unwrap();
        assert_eq!(log.next_index(), 0);
        assert!(rec.frames.is_empty());
        assert_eq!(rec.torn_bytes, 0);
    }
}
