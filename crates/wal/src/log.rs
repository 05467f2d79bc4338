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
//! record below `i`. [`SegmentLog::snapshot`] writes one covering
//! everything logged and then drops what it supersedes, in one fixed
//! order: the snapshot is written under a temporary name, synced and
//! renamed into place; the active segment is closed; the directory is
//! synced and the covered segments deleted; then the older snapshots.
//! After it the directory holds the snapshot and a segment starting at
//! its index: a reopen reads only the records the snapshot does not
//! cover.
//!
//! Every file operation goes through a [`Dir`], on disk or in memory:
//! the rules here are one code path whatever the medium.
//!
//! Recovery semantics on [`SegmentLog::open`]:
//!
//! - a decode failure in the **active** (last) segment is a torn tail:
//!   the file is truncated back to its last intact frame and the byte
//!   count is reported — a crash mid-write is expected, not an error;
//! - a decode failure in any **closed** segment is data corruption and
//!   fails the open with [`WalError::Corrupt`] naming the segment file
//!   and byte offset — a closed segment was fsynced in full, so a bad
//!   byte there must never be silently skipped or replayed;
//! - the newest snapshot that checks out is read back; newer damaged
//!   ones are skipped and counted.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, ErrorKind::NotFound, Read, Write};
use std::path::PathBuf;

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
    /// The bytes discarded from the active segment's torn tail (0 on a
    /// clean shutdown).
    pub torn_bytes: u64,
    /// Decoder diagnosis for the torn tail, when one was cut.
    pub torn_detail: Option<String>,
    /// The newest intact snapshot.
    pub snapshot: LatestSnapshot,
    /// Newer snapshot files skipped as damaged (a crash during
    /// [`SegmentLog::snapshot`] leaves none, but a torn disk might).
    pub snapshots_skipped: usize,
}

/// The newest intact snapshot, if any: its applied index and payload.
pub type LatestSnapshot = Option<(u64, Vec<u8>)>;

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

/// Where a log keeps its files. Every file operation of a
/// [`SegmentLog`] goes through here, so the medium is this one type.
#[derive(Debug)]
pub enum Dir {
    /// A directory on disk: the log survives the process.
    Fs(PathBuf),
    /// The same files held in memory, by name: the log survives as long
    /// as the value holding it, which is all a supervised restart
    /// needs. Its syncs are calls that do nothing.
    Mem(BTreeMap<String, Vec<u8>>),
}

/// A file of a [`Dir`] open for writing: appends to one on disk are
/// buffered until a sync.
#[derive(Debug)]
enum Writer {
    Fs(BufWriter<File>),
    Mem(String),
}

impl Dir {
    /// Makes the directory, if it is not there.
    fn make(&self) -> io::Result<()> {
        match self {
            Dir::Fs(path) => fs::create_dir_all(path),
            Dir::Mem(_) => Ok(()),
        }
    }

    /// The names of the files in the directory.
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(match self {
            Dir::Fs(path) => fs::read_dir(path)?
                .filter_map(|entry| Some(entry.ok()?.file_name().to_string_lossy().into_owned()))
                .collect(),
            Dir::Mem(files) => files.keys().cloned().collect(),
        })
    }

    /// A reader over the file `name`, and the file's length.
    fn read(&self, name: &str) -> io::Result<(Box<dyn Read + '_>, u64)> {
        match self {
            Dir::Fs(path) => {
                let file = File::open(path.join(name))?;
                let len = file.metadata()?.len();
                Ok((Box::new(file), len))
            }
            Dir::Mem(files) => {
                let bytes = files.get(name).ok_or(NotFound)?;
                Ok((Box::new(bytes.as_slice()), bytes.len() as u64))
            }
        }
    }

    /// Creates (or empties) the file `name` with `parts` as its
    /// contents, written through, and leaves it open for writing.
    fn create(&mut self, name: &str, parts: &[&[u8]]) -> io::Result<Writer> {
        match self {
            Dir::Fs(path) => {
                let mut file = File::create(path.join(name))?;
                for part in parts {
                    file.write_all(part)?;
                }
                Ok(Writer::Fs(BufWriter::new(file)))
            }
            Dir::Mem(files) => {
                files.insert(name.to_owned(), parts.concat());
                Ok(Writer::Mem(name.to_owned()))
            }
        }
    }

    /// Opens the file `name` for appending, and its length.
    fn append_to(&mut self, name: &str) -> io::Result<(Writer, u64)> {
        match self {
            Dir::Fs(path) => {
                let path = path.join(name);
                let len = fs::metadata(&path)?.len();
                let file = OpenOptions::new().append(true).open(&path)?;
                Ok((Writer::Fs(BufWriter::new(file)), len))
            }
            Dir::Mem(_) => Ok((
                Writer::Mem(name.to_owned()),
                self.mem_file(name)?.len() as u64,
            )),
        }
    }

    /// Appends `bytes` to an open file.
    fn write(&mut self, file: &mut Writer, bytes: &[u8]) -> io::Result<()> {
        match file {
            Writer::Fs(writer) => writer.write_all(bytes),
            Writer::Mem(name) => self.mem_file(name).map(|f| f.extend_from_slice(bytes)),
        }
    }

    /// Cuts the file `name` to `len` bytes, leaving it open for writing.
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<Writer> {
        match self {
            Dir::Fs(path) => {
                let file = OpenOptions::new().write(true).open(path.join(name))?;
                file.set_len(len)?;
                Ok(Writer::Fs(BufWriter::new(file)))
            }
            Dir::Mem(_) => {
                self.mem_file(name)?.truncate(len as usize);
                Ok(Writer::Mem(name.to_owned()))
            }
        }
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        match self {
            Dir::Fs(path) => fs::remove_file(path.join(name)),
            Dir::Mem(files) => files.remove(name).map(drop).ok_or(NotFound.into()),
        }
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        match self {
            Dir::Fs(path) => fs::rename(path.join(from), path.join(to)),
            Dir::Mem(files) => {
                let bytes = files.remove(from).ok_or(NotFound)?;
                files.insert(to.to_owned(), bytes);
                Ok(())
            }
        }
    }

    /// Flushes an open file and syncs its data to stable storage.
    fn sync(&mut self, file: &mut Writer) -> io::Result<()> {
        match file {
            Writer::Fs(writer) => {
                writer.flush()?;
                writer.get_ref().sync_data()
            }
            Writer::Mem(_) => Ok(()),
        }
    }

    /// Makes the directory's own entries durable: a file created or
    /// renamed in it survives a power cut only once the directory is
    /// synced, and an unlink synced later may otherwise survive it alone.
    fn sync_dir(&self) -> io::Result<()> {
        match self {
            Dir::Fs(path) => File::open(path)?.sync_all(),
            Dir::Mem(_) => Ok(()),
        }
    }

    /// The in-memory file `name`.
    fn mem_file(&mut self, name: &str) -> io::Result<&mut Vec<u8>> {
        match self {
            Dir::Mem(files) => files.get_mut(name).ok_or(NotFound.into()),
            Dir::Fs(_) => Err(NotFound.into()),
        }
    }

    /// Maps a failed operation on the file `name` (the directory itself
    /// when empty) to an error saying what the log was `doing`.
    fn err<'a>(&'a self, doing: &'a str, name: &'a str) -> impl FnOnce(io::Error) -> WalError + 'a {
        move |source| {
            let at = match self {
                Dir::Fs(path) => path.join(name).display().to_string(),
                Dir::Mem(_) => format!("memory:{name}"),
            };
            io_err(format!("{doing} {at}"), source)
        }
    }
}

fn segment_name(first_index: u64) -> String {
    format!("wal-{first_index:016x}.seg")
}

fn snapshot_name(applied_index: u64) -> String {
    format!("snap-{applied_index:016x}.snap")
}

/// The indices of the `names` of the form `<prefix><hex><suffix>`,
/// ascending.
fn numbered(names: &[String], prefix: &str, suffix: &str) -> Vec<u64> {
    let mut indices: Vec<u64> = names
        .iter()
        .filter_map(|name| {
            let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            u64::from_str_radix(hex, 16).ok()
        })
        .collect();
    indices.sort_unstable();
    indices
}

/// An append-only log of tagged frames split across segment files.
#[derive(Debug)]
pub struct SegmentLog {
    dir: Dir,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    writer: Writer,
    active_len: u64,
    next_index: u64,
    unsynced: u32,
    /// First index of every segment on disk, ascending (last = active).
    segment_firsts: Vec<u64>,
}

impl SegmentLog {
    /// Opens (or creates) the log in the directory `dir` on disk,
    /// scanning every segment and the snapshots.
    ///
    /// Returns the log positioned for appending plus what it holds. See
    /// the module docs for torn-tail vs closed-segment semantics.
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
        SegmentLog::open_in(Dir::Fs(dir.into()), fsync, segment_bytes)
    }

    /// [`SegmentLog::open`] over any [`Dir`]: `Dir::Mem` with no files
    /// is a fresh log in memory.
    ///
    /// # Errors
    ///
    /// As for [`SegmentLog::open`].
    pub fn open_in(
        mut dir: Dir,
        fsync: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<(SegmentLog, Recovered), WalError> {
        dir.make().map_err(dir.err("creating", ""))?;
        let names = dir.list().map_err(dir.err("listing", ""))?;
        let firsts = numbered(&names, "wal-", ".seg");

        let mut frames = Vec::new();
        let mut torn_bytes = 0u64;
        let mut torn_detail = None;
        for (i, &first) in firsts.iter().enumerate() {
            let name = segment_name(first);
            let bytes = {
                let (mut file, len) = dir.read(&name).map_err(dir.err("reading", &name))?;
                let mut bytes = Vec::with_capacity(len as usize);
                file.read_to_end(&mut bytes)
                    .map_err(dir.err("reading", &name))?;
                bytes
            };
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
                    dir.remove(&name).map_err(dir.err("removing torn", &name))?;
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
                        let mut file = dir
                            .truncate(&name, offset)
                            .map_err(dir.err("truncating", &name))?;
                        dir.sync(&mut file).map_err(dir.err("syncing", &name))?;
                        break;
                    }
                }
            }
        }
        // Re-list: a fully-torn trailing segment may have been removed.
        let mut segment_firsts =
            numbered(&dir.list().map_err(dir.err("listing", ""))?, "wal-", ".seg");

        // An empty (possibly pruned) log resumes at its newest
        // segment's base index rather than restarting from zero.
        let next_index = frames
            .last()
            .map(|(i, _)| i + 1)
            .unwrap_or_else(|| segment_firsts.last().copied().unwrap_or(0));

        let (writer, active_len) = match segment_firsts.last() {
            Some(&first) => {
                let name = segment_name(first);
                dir.append_to(&name).map_err(dir.err("opening", &name))?
            }
            None => {
                segment_firsts.push(next_index);
                SegmentLog::create_segment(&mut dir, next_index)?
            }
        };
        let (snapshot, snapshots_skipped) = latest_snapshot(&dir, &names)?;

        Ok((
            SegmentLog {
                dir,
                fsync,
                segment_bytes: segment_bytes.max(HEADER_LEN + 1),
                writer,
                active_len,
                next_index,
                unsynced: 0,
                segment_firsts,
            },
            Recovered {
                frames,
                torn_bytes,
                torn_detail,
                snapshot,
                snapshots_skipped,
            },
        ))
    }

    /// Closes the log, flushing what it buffered, and opens its
    /// directory again: what a restart of the log's owner reads back.
    ///
    /// # Errors
    ///
    /// As for [`SegmentLog::open`].
    pub fn reopen(self) -> Result<(SegmentLog, Recovered), WalError> {
        let (fsync, segment_bytes) = (self.fsync, self.segment_bytes);
        SegmentLog::open_in(self.into_dir(), fsync, segment_bytes)
    }

    /// Closes the log, flushing what it buffered, and hands back its
    /// directory.
    fn into_dir(mut self) -> Dir {
        std::mem::replace(&mut self.dir, Dir::Mem(BTreeMap::new()))
    }

    fn create_segment(dir: &mut Dir, first_index: u64) -> Result<(Writer, u64), WalError> {
        let name = segment_name(first_index);
        let mut file = dir
            .create(&name, &[SEGMENT_MAGIC, &first_index.to_be_bytes()])
            .map_err(dir.err("creating", &name))?;
        dir.sync(&mut file).map_err(dir.err("syncing", &name))?;
        Ok((file, HEADER_LEN))
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
        self.dir
            .write(&mut self.writer, &buf)
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
        self.dir
            .sync(&mut self.writer)
            .map_err(|e| io_err("fsyncing active segment", e))?;
        self.unsynced = 0;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        self.sync()?;
        (self.writer, self.active_len) =
            SegmentLog::create_segment(&mut self.dir, self.next_index)?;
        self.segment_firsts.push(self.next_index);
        Ok(())
    }

    /// Writes a snapshot covering every record logged so far, then
    /// drops what it supersedes — the covered segments and the older
    /// snapshots — in the order the module docs give. Returns the
    /// snapshot's size in bytes.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failures; on one, the snapshot
    /// may be in place with the files it supersedes still beside it.
    pub fn snapshot(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let applied = self.next_index;
        let (tmp, fin) = (format!("snap-{applied:016x}.tmp"), snapshot_name(applied));
        self.dir.make().map_err(self.dir.err("creating", ""))?;
        // The frame is written around the caller's payload, not copied
        // into a buffer of its own: the payload is most of a snapshot.
        let (head, tail) = (frame_head(0, payload), frame_tail(0, payload));
        let mut file = self
            .dir
            .create(&tmp, &[SNAPSHOT_MAGIC, &head, payload, &tail])
            .map_err(self.dir.err("writing", &tmp))?;
        self.dir
            .sync(&mut file)
            .map_err(self.dir.err("syncing", &tmp))?;
        drop(file);
        self.dir
            .rename(&tmp, &fin)
            .map_err(self.dir.err("renaming to", &fin))?;
        self.prune_below(applied)?;
        self.prune_snapshots(applied)?;
        Ok((SNAPSHOT_MAGIC.len() + FRAME_OVERHEAD + payload.len()) as u64)
    }

    /// Deletes the segments whose records all precede `index` (i.e.
    /// are fully covered by a snapshot at `index`). A snapshot of
    /// everything logged — `index` the one the next append would get —
    /// first closes an active segment that holds frames, so what it
    /// covers goes too and the log is left one empty segment starting
    /// at `index`. Returns how many files were removed.
    fn prune_below(&mut self, index: u64) -> Result<usize, WalError> {
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
            self.dir.sync_dir().map_err(self.dir.err("syncing", ""))?;
        }
        for _ in 0..covered {
            let victim = segment_name(self.segment_firsts[0]);
            self.dir
                .remove(&victim)
                .map_err(self.dir.err("pruning", &victim))?;
            self.segment_firsts.remove(0);
        }
        Ok(covered)
    }

    /// Deletes every snapshot whose applied index is below `keep` — the
    /// index of the snapshot just put in place, which is intact by
    /// construction (synced before its rename), so no file is read.
    /// Returns how many files were removed.
    fn prune_snapshots(&mut self, keep: u64) -> Result<usize, WalError> {
        let names = self.dir.list().map_err(self.dir.err("listing", ""))?;
        let mut victims = numbered(&names, "snap-", ".snap");
        victims.retain(|&applied| applied < keep);
        if !victims.is_empty() {
            // The newer snapshot's rename first: an unlink must not outlive it.
            self.dir.sync_dir().map_err(self.dir.err("syncing", ""))?;
        }
        for &applied in &victims {
            let name = snapshot_name(applied);
            self.dir
                .remove(&name)
                .map_err(self.dir.err("pruning snapshot", &name))?;
        }
        Ok(victims.len())
    }
}

impl Drop for SegmentLog {
    fn drop(&mut self) {
        // Best effort: buffered-but-unflushed frames are exactly what
        // the torn-tail recovery path exists for.
        if let Writer::Fs(writer) = &mut self.writer {
            let _ = writer.flush();
        }
    }
}

/// The newest intact snapshot among the files `names` of `dir`, and
/// how many newer but damaged ones were skipped over.
fn latest_snapshot(dir: &Dir, names: &[String]) -> Result<(LatestSnapshot, usize), WalError> {
    let mut skipped = 0;
    for applied in numbered(names, "snap-", ".snap").into_iter().rev() {
        let name = snapshot_name(applied);
        match read_snapshot(dir, &name).map_err(dir.err("reading", &name))? {
            Some(payload) => return Ok((Some((applied, payload)), skipped)),
            None => skipped += 1,
        }
    }
    Ok((None, skipped))
}

/// The payload of the snapshot file `name`, or `None` if the file is
/// not intact: the magic, then exactly one frame that checks out. The
/// head is read on its own, and the payload straight into the buffer
/// returned, where the frame checker checks it: the payload is most of
/// a snapshot and is never copied.
fn read_snapshot(dir: &Dir, name: &str) -> io::Result<Option<Vec<u8>>> {
    let (mut file, size) = dir.read(name)?;
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIRS: AtomicU64 = AtomicU64::new(0);

    /// A fresh directory on disk and an empty one in memory: every test
    /// runs its assertions over both.
    fn dirs(tag: &str) -> [Dir; 2] {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sci-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        [Dir::Fs(path), Dir::Mem(BTreeMap::new())]
    }

    fn frame(i: u64) -> Frame {
        Frame::new((i % 7) as u8, format!("record-{i}").into_bytes())
    }

    /// The bytes of the file `name`, read through the directory.
    fn contents(dir: &Dir, name: &str) -> Vec<u8> {
        let (mut file, _) = dir.read(name).unwrap();
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).unwrap();
        bytes
    }

    /// Replaces the file `name` with `bytes`, through the directory.
    fn put(dir: &mut Dir, name: &str, bytes: &[u8]) {
        dir.create(name, &[bytes]).unwrap();
    }

    fn segment_files(log: &SegmentLog) -> Vec<u64> {
        numbered(&log.dir.list().unwrap(), "wal-", ".seg")
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        for dir in dirs("roundtrip") {
            let (mut log, rec) = SegmentLog::open_in(dir, FsyncPolicy::EveryN(4), 1 << 20).unwrap();
            assert!(rec.frames.is_empty());
            for i in 0..25 {
                let a = log.append(&frame(i)).unwrap();
                assert_eq!(a.index, i);
            }
            log.sync().unwrap();
            let (log, rec) = log.reopen().unwrap();
            assert_eq!(rec.frames.len(), 25);
            assert_eq!(rec.torn_bytes, 0);
            for (i, (idx, f)) in rec.frames.iter().enumerate() {
                assert_eq!(*idx, i as u64);
                assert_eq!(*f, frame(i as u64));
            }
            assert_eq!(log.next_index, 25);
        }
    }

    #[test]
    fn rotation_splits_segments_and_indices_survive() {
        for dir in dirs("rotate") {
            let (mut log, _) = SegmentLog::open_in(dir, FsyncPolicy::Never, 64).unwrap();
            for i in 0..40 {
                log.append(&frame(i)).unwrap();
            }
            assert!(log.segment_count() > 1, "tiny segment limit must rotate");
            assert_eq!(segment_files(&log).len(), log.segment_count());
            let (_, rec) = log.reopen().unwrap();
            let indices: Vec<u64> = rec.frames.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (0..40).collect::<Vec<_>>());
        }
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        for dir in dirs("torn") {
            let (mut log, _) = SegmentLog::open_in(dir, FsyncPolicy::Never, 1 << 20).unwrap();
            for i in 0..6 {
                log.append(&frame(i)).unwrap();
            }
            let mut dir = log.into_dir();
            let name = segment_name(0);
            let clean = contents(&dir, &name);
            for cut in HEADER_LEN as usize..clean.len() {
                put(&mut dir, &name, &clean[..cut]);
                let (log, rec) = SegmentLog::open_in(dir, FsyncPolicy::Never, 1 << 20).unwrap();
                // Every recovered frame must be one of the originals, in
                // order, and the torn byte count must explain the cut.
                for (i, (idx, f)) in rec.frames.iter().enumerate() {
                    assert_eq!(*idx, i as u64);
                    assert_eq!(*f, frame(i as u64));
                }
                assert!(rec.frames.len() < 6);
                dir = log.into_dir();
                let kept = contents(&dir, &name).len() as u64;
                assert_eq!(kept + rec.torn_bytes, cut as u64);
                // Restore for the next iteration.
                put(&mut dir, &name, &clean);
            }
        }
    }

    #[test]
    fn corrupt_closed_segment_fails_open_with_location() {
        for dir in dirs("closedcorrupt") {
            let (mut log, _) = SegmentLog::open_in(dir, FsyncPolicy::Never, 64).unwrap();
            for i in 0..40 {
                log.append(&frame(i)).unwrap();
            }
            assert!(log.segment_count() >= 3);
            let mut dir = log.into_dir();
            // Flip one byte in the middle of the FIRST (closed) segment.
            let name = segment_name(0);
            let mut bytes = contents(&dir, &name);
            let victim = bytes.len() / 2;
            bytes[victim] ^= 0x10;
            put(&mut dir, &name, &bytes);
            match SegmentLog::open_in(dir, FsyncPolicy::Never, 64) {
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
    }

    #[test]
    fn prune_below_the_next_index_leaves_one_empty_segment_there() {
        for dir in dirs("prune") {
            let (mut log, _) = SegmentLog::open_in(dir, FsyncPolicy::Never, 64).unwrap();
            for i in 0..40 {
                log.append(&frame(i)).unwrap();
            }
            let before = log.segment_count();
            assert!(before >= 3);
            assert_eq!(log.prune_below(40).unwrap(), before, "the active one too");
            assert_eq!(log.segment_count(), 1);
            assert_eq!(segment_files(&log), [40]);
            let (mut log, rec) = log.reopen().unwrap();
            assert!(rec.frames.is_empty());
            assert_eq!(log.next_index, 40);
            assert_eq!(log.append(&frame(40)).unwrap().index, 40);
            let (_, rec) = log.reopen().unwrap();
            assert_eq!(rec.frames, [(40, frame(40))]);
        }
    }

    #[test]
    fn prune_below_an_older_index_keeps_the_segments_it_does_not_cover() {
        for dir in dirs("prune-older") {
            let (mut log, _) = SegmentLog::open_in(dir, FsyncPolicy::Never, 64).unwrap();
            for i in 0..40 {
                log.append(&frame(i)).unwrap();
            }
            let firsts = segment_files(&log);
            let cover = firsts[2];
            assert_eq!(log.prune_below(cover).unwrap(), 2);
            assert_eq!(segment_files(&log), firsts[2..]);
            // An index inside a segment covers it only in part: it stays.
            assert_eq!(log.prune_below(cover + 1).unwrap(), 0);
            let (_, rec) = log.reopen().unwrap();
            let indices: Vec<u64> = rec.frames.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (cover..40).collect::<Vec<_>>());
        }
    }

    #[test]
    fn prune_below_an_empty_active_segment_changes_nothing() {
        for dir in dirs("prune-empty") {
            let (mut log, _) = SegmentLog::open_in(dir, FsyncPolicy::Never, 64).unwrap();
            assert_eq!(log.prune_below(0).unwrap(), 0);
            assert_eq!(segment_files(&log), [0]);
        }
    }

    #[test]
    fn fsync_policies_report_sync_cadence() {
        for [every3, always] in [dirs("fsync"), dirs("fsync-always")] {
            let (mut log, _) =
                SegmentLog::open_in(every3, FsyncPolicy::EveryN(3), 1 << 20).unwrap();
            let synced: Vec<bool> = (0..7)
                .map(|i| log.append(&frame(i)).unwrap().synced)
                .collect();
            assert_eq!(synced, vec![false, false, true, false, false, true, false]);
            let (mut log2, _) = SegmentLog::open_in(always, FsyncPolicy::Always, 1 << 20).unwrap();
            assert!(log2.append(&frame(0)).unwrap().synced);
        }
    }

    /// Appends records up to `index` and snapshots them, returning the
    /// snapshot file's bytes.
    fn snapshot_at(log: &mut SegmentLog, index: u64, payload: &[u8]) -> Vec<u8> {
        while log.next_index < index {
            log.append(&frame(log.next_index)).unwrap();
        }
        let written = log.snapshot(payload).unwrap();
        let bytes = contents(&log.dir, &snapshot_name(index));
        assert_eq!(written, bytes.len() as u64);
        bytes
    }

    #[test]
    fn snapshot_roundtrip_prune_and_damage_skip() {
        for dir in dirs("snap") {
            let (mut log, rec) = SegmentLog::open_in(dir, FsyncPolicy::Never, 1 << 20).unwrap();
            assert!(rec.snapshot.is_none());
            let older = snapshot_at(&mut log, 10, b"state at 10");
            // The file is the magic and one frame, written around the
            // payload rather than through a copy of it.
            let mut image = SNAPSHOT_MAGIC.to_vec();
            encode_frame(&Frame::new(0, b"state at 10".to_vec()), &mut image);
            assert_eq!(older, image);
            let newest = snapshot_at(&mut log, 30, b"state at 30");
            // It superseded the older snapshot and every record.
            let names = log.dir.list().unwrap();
            assert_eq!(numbered(&names, "snap-", ".snap"), [30]);
            assert_eq!(segment_files(&log), [30]);
            let (log, rec) = log.reopen().unwrap();
            assert_eq!(rec.snapshot, Some((30, b"state at 30".to_vec())));
            assert_eq!(rec.snapshots_skipped, 0);
            assert!(rec.frames.is_empty());
            // Damage the newest beside an older one: recovery falls
            // back to the older.
            let mut dir = log.into_dir();
            put(&mut dir, &snapshot_name(10), &older);
            let mut bytes = newest.clone();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            put(&mut dir, &snapshot_name(30), &bytes);
            let (mut log, rec) = SegmentLog::open_in(dir, FsyncPolicy::Never, 1 << 20).unwrap();
            assert_eq!(rec.snapshot, Some((10, b"state at 10".to_vec())));
            assert_eq!(rec.snapshots_skipped, 1);
            // The next snapshot supersedes both, damaged or not.
            snapshot_at(&mut log, 31, b"state at 31");
            let names = log.dir.list().unwrap();
            assert_eq!(numbered(&names, "snap-", ".snap"), [31]);
            let (_, rec) = log.reopen().unwrap();
            assert_eq!(rec.snapshot, Some((31, b"state at 31".to_vec())));
        }
    }

    /// A snapshot long enough for the lane CRC, with one byte flipped in
    /// each of its four lanes or in the tail after them, is skipped as
    /// damaged and the older intact one is read instead.
    #[test]
    fn a_flip_in_any_crc_lane_skips_the_snapshot() {
        for dir in dirs("snap-lanes") {
            let payload: Vec<u8> = (0..10_003u32).map(|i| (i * 7 + i / 251) as u8).collect();
            let (mut log, _) = SegmentLog::open_in(dir, FsyncPolicy::Never, 1 << 20).unwrap();
            let older = snapshot_at(&mut log, 10, b"older");
            let clean = snapshot_at(&mut log, 30, &payload);
            let mut dir = log.into_dir();
            put(&mut dir, &snapshot_name(10), &older);
            let (log, rec) = SegmentLog::open_in(dir, FsyncPolicy::Never, 1 << 20).unwrap();
            assert_eq!(
                (rec.snapshot, rec.snapshots_skipped),
                (Some((30, payload.clone())), 0)
            );
            dir = log.into_dir();
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
                put(&mut dir, &snapshot_name(30), &bad);
                let (log, rec) = SegmentLog::open_in(dir, FsyncPolicy::Never, 1 << 20).unwrap();
                assert_eq!(rec.snapshot, Some((10, b"older".to_vec())), "flip at {at}");
                assert_eq!(rec.snapshots_skipped, 1, "flip at {at}");
                dir = log.into_dir();
            }
        }
    }

    #[test]
    fn empty_directory_starts_at_zero() {
        for dir in dirs("empty") {
            let (log, rec) = SegmentLog::open_in(dir, FsyncPolicy::Never, 1 << 20).unwrap();
            assert_eq!(log.next_index, 0);
            assert!(rec.frames.is_empty());
            assert!(rec.snapshot.is_none());
            assert_eq!(rec.torn_bytes, 0);
            assert_eq!(segment_files(&log), [0]);
        }
    }
}
