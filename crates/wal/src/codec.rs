//! Length-prefixed, CRC-checked binary frames.
//!
//! A frame is the unit of both the on-disk write-ahead log and — by
//! design — the future network transport (ROADMAP item 1): nothing in
//! this module assumes a file, a socket, or even that the bytes are
//! contiguous records. Layout, all integers big-endian:
//!
//! ```text
//! +----------+--------+------------------+----------+
//! | len: u32 | tag:u8 | payload: len - 1 | crc: u32 |
//! +----------+--------+------------------+----------+
//! ```
//!
//! `len` counts the tag byte plus the payload; `crc` is CRC-32 (IEEE)
//! over the tag byte plus the payload. Decoding distinguishes the two
//! failure modes a log recovery cares about: [`CodecError::Incomplete`]
//! (the buffer ends mid-frame — a torn tail, safe to truncate) and
//! [`CodecError::Corrupt`] (the bytes are all there but wrong — data
//! loss that must not be replayed silently).

use std::fmt;

/// Hard ceiling on `len`: a frame longer than this is treated as
/// corruption rather than an allocation request. 64 MiB comfortably
/// holds any snapshot this middleware produces.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// The bytes of framing overhead around a payload (`len` + `tag` + `crc`).
pub const FRAME_OVERHEAD: usize = 9;

/// One tagged binary frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Record-type discriminant; the meaning of tags belongs to the
    /// layer above (command kinds for the WAL, message classes for the
    /// network transport).
    pub tag: u8,
    /// Opaque record bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame.
    pub fn new(tag: u8, payload: Vec<u8>) -> Self {
        Frame { tag, payload }
    }

    /// Encoded size of this frame including framing overhead.
    pub fn encoded_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload.len()
    }
}

/// Why a buffer failed to decode as a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the frame does. On an append-only log
    /// this is a torn tail: the prefix before `offset` is intact.
    Incomplete {
        /// Byte offset (within the decoded buffer) where the
        /// incomplete frame starts.
        offset: usize,
    },
    /// The frame is structurally present but its checksum or header
    /// is wrong; the bytes must not be interpreted.
    Corrupt {
        /// Byte offset (within the decoded buffer) where the corrupt
        /// frame starts.
        offset: usize,
        /// Human-readable diagnosis (bad CRC, insane length, ...).
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Incomplete { offset } => {
                write!(f, "incomplete frame at byte {offset} (torn tail)")
            }
            CodecError::Corrupt { offset, detail } => {
                write!(f, "corrupt frame at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Slicing-by-8 tables: `[0]` is the classic byte table, and `[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight table
/// reads advance the state by eight bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// The CRC-32 polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Inputs at least this long are checked in four interleaved lanes:
/// below it, folding the lanes back together costs more than the lanes
/// save.
const LANE_MIN: usize = 4096;

/// `a * b mod P` over GF(2), both bit-reflected (zlib's `multmodp`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut bit = 32;
    while bit > 0 {
        bit -= 1;
        // Branch-free: each mask is all ones or all zeros.
        p ^= b & 0u32.wrapping_sub((a >> bit) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
    }
    p
}

/// `x^(2^k) mod P` for every `k`: the squarings `zeros_op` multiplies.
const fn x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = x2n_table();

/// `x^(8n) mod P`: multiplying a CRC state by it feeds the state `n`
/// zero bytes (zlib's `x2nmodp(n, 3)`).
fn zeros_op(mut n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 3;
    while n != 0 {
        if n & 1 == 1 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// One slicing-by-8 step: the state advanced past the eight bytes of
/// `w` (little-endian).
#[inline(always)]
fn step8(crc: u32, w: u64) -> u32 {
    let t = &CRC_TABLES;
    let lo = crc ^ w as u32;
    let hi = (w >> 32) as u32;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The little-endian word of an 8-byte chunk.
#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(chunk);
    u64::from_le_bytes(w)
}

/// One lane: eight bytes per step, then a byte at a time for the tail.
fn crc32_lane(state: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    let mut crc = state;
    for w in &mut words {
        crc = step8(crc, word(w));
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Feeds more bytes into a running CRC state (pre- and post-inversion
/// are the caller's concern; see [`crc32`] for the one-shot form).
///
/// Slicing-by-8. An input of 4 KiB or more is cut into
/// four equal lanes of whole words, checked side by side — four
/// independent table chains instead of one — and folded back together
/// the way zlib's `crc32_combine` does: the state is linear, so the CRC
/// of `a ‖ b` is `a`'s state moved past `|b|` zero bytes (a multiply by
/// `x^(8|b|) mod P`) xor `b`'s state from zero. The words left over
/// after the lanes, and any shorter input, take the one-lane path.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    if bytes.len() < LANE_MIN {
        return crc32_lane(state, bytes);
    }
    let lane = bytes.len() / 32 * 8;
    let (lanes, tail) = bytes.split_at(4 * lane);
    let (a, rest) = lanes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, d) = rest.split_at(lane);
    let mut crc = [state, 0, 0, 0];
    let words = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8).zip(d.chunks_exact(8)));
    for ((wa, wb), (wc, wd)) in words {
        crc[0] = step8(crc[0], word(wa));
        crc[1] = step8(crc[1], word(wb));
        crc[2] = step8(crc[2], word(wc));
        crc[3] = step8(crc[3], word(wd));
    }
    let shift = zeros_op(lane);
    let folded = crc[1..]
        .iter()
        .fold(crc[0], |acc, &next| multmodp(shift, acc) ^ next);
    crc32_lane(folded, tail)
}

/// Appends the encoded frame to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    out.extend_from_slice(&frame_head(frame.tag, &frame.payload));
    out.extend_from_slice(&frame.payload);
    out.extend_from_slice(&frame_tail(frame.tag, &frame.payload));
}

/// What precedes `payload` in its frame: the length, then `tag`.
pub(crate) fn frame_head(tag: u8, payload: &[u8]) -> [u8; 5] {
    let len = (payload.len() as u32 + 1).to_be_bytes();
    [len[0], len[1], len[2], len[3], tag]
}

/// What follows `payload` in its frame: the CRC over `tag` + `payload`.
pub(crate) fn frame_tail(tag: u8, payload: &[u8]) -> [u8; 4] {
    let crc = crc32_update(0xFFFF_FFFF, &[tag]);
    (crc32_update(crc, payload) ^ 0xFFFF_FFFF).to_be_bytes()
}

/// The payload length a frame's `len` field gives, if the field is
/// sane: nonzero (it counts the tag) and at most [`MAX_FRAME_LEN`].
pub(crate) fn payload_len(len: [u8; 4]) -> Result<usize, CodecError> {
    match u32::from_be_bytes(len) {
        len @ 1..=MAX_FRAME_LEN => Ok(len as usize - 1),
        len => Err(CodecError::Corrupt {
            offset: 0,
            detail: format!("frame length {len} outside (0, {MAX_FRAME_LEN}]"),
        }),
    }
}

/// The frame checker: `payload` is intact when `crc`, the four bytes
/// that followed it in its frame, is the CRC of `tag` + `payload`.
/// Nothing is copied, so a reader checks a payload in the buffer it
/// was read into.
pub(crate) fn check_payload(tag: u8, payload: &[u8], crc: [u8; 4]) -> Result<(), CodecError> {
    let (stored, computed) = (
        u32::from_be_bytes(crc),
        u32::from_be_bytes(frame_tail(tag, payload)),
    );
    if stored != computed {
        return Err(CodecError::Corrupt {
            offset: 0,
            detail: format!("crc mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        });
    }
    Ok(())
}

/// Decodes one frame from the front of `buf`: the frame checker run
/// where the frame lies, then the payload copied out.
///
/// Returns the frame and the number of bytes consumed.
///
/// # Errors
///
/// [`CodecError::Incomplete`] when `buf` ends mid-frame,
/// [`CodecError::Corrupt`] when the length header is insane or the
/// checksum does not match. Offsets in either error are relative to
/// the start of `buf`; callers iterating a larger buffer add their
/// own base offset.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), CodecError> {
    let Some(&len) = buf.first_chunk::<4>() else {
        return Err(CodecError::Incomplete { offset: 0 });
    };
    let n = payload_len(len)?;
    let Some(frame) = buf.get(..FRAME_OVERHEAD + n) else {
        return Err(CodecError::Incomplete { offset: 0 });
    };
    let (head, rest) = frame.split_at(5);
    let (payload, crc) = rest.split_at(n);
    check_payload(head[4], payload, [crc[0], crc[1], crc[2], crc[3]])?;
    Ok((Frame::new(head[4], payload.to_vec()), frame.len()))
}

/// Iterates frames packed back-to-back in a buffer, tracking the byte
/// offset of each frame for diagnostics.
#[derive(Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    /// Byte offset of the next (undecoded) frame.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Decodes the next frame, or `None` at a clean end of buffer.
    ///
    /// # Errors
    ///
    /// Propagates [`decode_frame`] failures with offsets rebased to
    /// this reader's buffer.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, CodecError> {
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        match decode_frame(&self.buf[self.pos..]) {
            Ok((frame, used)) => {
                self.pos += used;
                Ok(Some(frame))
            }
            Err(CodecError::Incomplete { offset }) => Err(CodecError::Incomplete {
                offset: self.pos + offset,
            }),
            Err(CodecError::Corrupt { offset, detail }) => Err(CodecError::Corrupt {
                offset: self.pos + offset,
                detail,
            }),
        }
    }
}

/// Incremental frame reassembly over a byte stream.
///
/// A socket (or any other chunked byte source) delivers frames split
/// at arbitrary boundaries: half a length header in one read, three
/// frames and a torn tail in the next. [`StreamDecoder`] buffers
/// whatever arrives and yields complete frames as soon as they close,
/// mapping the two [`decode_frame`] failure modes onto stream
/// semantics:
///
/// * [`CodecError::Incomplete`] — the buffered bytes end mid-frame.
///   On a stream this is not an error at all, merely "wait for the
///   next read": [`StreamDecoder::next_frame`] returns `Ok(None)`.
/// * [`CodecError::Corrupt`] — the bytes are all there but wrong.
///   Framing is lost and nothing after this point can be trusted;
///   the error is surfaced (with the offset rebased to the whole
///   stream) and every subsequent call repeats it. The connection
///   that fed the decoder must be torn down.
///
/// The consumed prefix is compacted away lazily, so long-lived
/// connections do not grow the buffer without bound.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` not yet compacted away.
    read: usize,
    /// Total bytes consumed as complete frames over the stream's
    /// lifetime; corrupt-frame offsets are rebased onto this.
    consumed: u64,
}

/// Compact the consumed prefix once it passes this many bytes, so the
/// memmove amortises over many small frames.
const COMPACT_THRESHOLD: usize = 16 * 1024;

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends freshly received bytes to the reassembly buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Total stream bytes consumed as complete frames so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Yields the next complete frame, or `Ok(None)` when the buffer
    /// ends mid-frame (feed more bytes with [`StreamDecoder::extend`]
    /// and try again).
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] when the stream is poisoned: the bytes
    /// at the reassembly point fail their CRC or carry an insane
    /// length. The offset is rebased to the whole stream. The error
    /// is sticky — reassembly cannot resynchronise past corruption.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        if self.read == self.buf.len() {
            self.buf.clear();
            self.read = 0;
            return Ok(None);
        }
        match decode_frame(&self.buf[self.read..]) {
            Ok((frame, used)) => {
                self.read += used;
                self.consumed += used as u64;
                if self.read >= COMPACT_THRESHOLD {
                    self.buf.drain(..self.read);
                    self.read = 0;
                }
                Ok(Some(frame))
            }
            Err(CodecError::Incomplete { .. }) => {
                if self.read > 0 {
                    self.buf.drain(..self.read);
                    self.read = 0;
                }
                Ok(None)
            }
            Err(CodecError::Corrupt { offset, detail }) => Err(CodecError::Corrupt {
                offset: self.consumed as usize + offset,
                detail,
            }),
        }
    }
}

/// Primitive big-endian writers and the one bounded reader shared by the
/// codecs layered on top of frames (the WAL command and event records,
/// the socket handshake, and the SCINET message).
pub mod wire {
    use super::CodecError;

    /// Appends a `u8`.
    pub fn put_u8(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(out: &mut Vec<u8>, v: u16) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u128`.
    pub fn put_u128(out: &mut Vec<u8>, v: u128) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        put_u32(out, bytes.len() as u32);
        out.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_bytes(out, s.as_bytes());
    }

    /// Sequential reader over a payload, reporting the offset of any
    /// short read as [`CodecError::Corrupt`] (a frame that passed its
    /// CRC but does not parse is a bug or version skew, never a torn
    /// tail).
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Reads from the front of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// The bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
            if self.remaining() < n {
                return Err(CodecError::Corrupt {
                    offset: self.pos,
                    detail: format!(
                        "payload truncated: need {n} bytes, have {}",
                        self.remaining()
                    ),
                });
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Reads a `u8`.
        ///
        /// # Errors
        ///
        /// [`CodecError::Corrupt`] on short read.
        pub fn u8(&mut self) -> Result<u8, CodecError> {
            Ok(self.take(1)?[0])
        }

        /// Reads a big-endian `u16`.
        ///
        /// # Errors
        ///
        /// [`CodecError::Corrupt`] on short read.
        pub fn u16(&mut self) -> Result<u16, CodecError> {
            let b = self.take(2)?;
            Ok(u16::from_be_bytes([b[0], b[1]]))
        }

        /// Reads a big-endian `u32`.
        ///
        /// # Errors
        ///
        /// [`CodecError::Corrupt`] on short read.
        pub fn u32(&mut self) -> Result<u32, CodecError> {
            let b = self.take(4)?;
            Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        }

        /// Reads a big-endian `u64`.
        ///
        /// # Errors
        ///
        /// [`CodecError::Corrupt`] on short read.
        pub fn u64(&mut self) -> Result<u64, CodecError> {
            let b = self.take(8)?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(b);
            Ok(u64::from_be_bytes(raw))
        }

        /// Reads a big-endian `u128`.
        ///
        /// # Errors
        ///
        /// [`CodecError::Corrupt`] on short read.
        pub fn u128(&mut self) -> Result<u128, CodecError> {
            let b = self.take(16)?;
            let mut raw = [0u8; 16];
            raw.copy_from_slice(b);
            Ok(u128::from_be_bytes(raw))
        }

        /// Reads a `u32` row count, refusing one the bytes left could
        /// not hold at `min_row_len` bytes a row, so a hostile count can
        /// neither size an allocation nor drive a long loop. This is the
        /// one count rule of every counted table on disk or on the wire.
        ///
        /// # Errors
        ///
        /// [`CodecError::Corrupt`] on short read or such a count.
        pub fn count(&mut self, min_row_len: usize) -> Result<usize, CodecError> {
            let at = self.pos;
            let n = self.u32()? as usize;
            if n > self.remaining() / min_row_len.max(1) {
                return Err(CodecError::Corrupt {
                    offset: at,
                    detail: format!("count {n} exceeds the {} bytes left", self.remaining()),
                });
            }
            Ok(n)
        }

        /// Reads a `u32`-length-prefixed byte run.
        ///
        /// # Errors
        ///
        /// [`CodecError::Corrupt`] on short read.
        pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
            let len = self.u32()? as usize;
            self.take(len)
        }

        /// Reads a length-prefixed UTF-8 string.
        ///
        /// # Errors
        ///
        /// [`CodecError::Corrupt`] on short read or invalid UTF-8.
        pub fn str(&mut self) -> Result<&'a str, CodecError> {
            let at = self.pos;
            std::str::from_utf8(self.bytes()?).map_err(|e| CodecError::Corrupt {
                offset: at,
                detail: format!("invalid utf-8: {e}"),
            })
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC the slicing tables must agree with.
    fn crc32_update_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let table = &CRC_TABLES[0];
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    #[test]
    fn crc_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length to 300 at every start offset and split point; then
    /// across the lane threshold, every length within 64 bytes of it, at
    /// odd start offsets, from nonzero running states, split where
    /// either half is above, at or below the threshold.
    #[test]
    fn slicing_crc_equals_the_bytewise_crc_at_every_length_offset_and_split() {
        let buf: Vec<u8> = (0..LANE_MIN as u32 + 80)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                let want = crc32_update_bytewise(0xFFFF_FFFF, bytes);
                for split in 0..=len {
                    let (head, tail) = bytes.split_at(split);
                    let got = crc32_update(crc32_update(0xFFFF_FFFF, head), tail);
                    assert_eq!(got, want, "start {start}, len {len}, split {split}");
                }
            }
        }
        for start in [1, 3, 5, 7] {
            for len in LANE_MIN - 64..=LANE_MIN + 64 {
                let bytes = &buf[start..start + len];
                for state in [0xFFFF_FFFF, 0, 0x1234_5678, 0x8000_0001] {
                    let want = crc32_update_bytewise(state, bytes);
                    let splits = [0, 1, 7, 63, len / 2, len - LANE_MIN.min(len), len - 1, len];
                    for split in splits {
                        let (head, tail) = bytes.split_at(split);
                        let got = crc32_update(crc32_update(state, head), tail);
                        assert_eq!(
                            got, want,
                            "start {start}, len {len}, state {state:#x}, split {split}"
                        );
                    }
                }
            }
        }
    }

    /// A known answer for an input checked in lanes: the CRC-32 of a
    /// fixed 1 MiB pattern, as zlib computes it.
    #[test]
    fn crc_known_answer_for_one_mebibyte() {
        let mib: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        assert_eq!(crc32(&mib), 0x4091_419D);
        assert_eq!(
            crc32_update(0xFFFF_FFFF, &mib),
            crc32_update_bytewise(0xFFFF_FFFF, &mib)
        );
    }

    #[test]
    fn frame_round_trips() {
        let f = Frame::new(7, b"hello world".to_vec());
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        assert_eq!(buf.len(), f.encoded_len());
        let (back, used) = decode_frame(&buf).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn empty_payload_round_trips() {
        let f = Frame::new(0, Vec::new());
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        let (back, _) = decode_frame(&buf).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn every_truncation_is_incomplete() {
        let f = Frame::new(3, b"payload bytes".to_vec());
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut]) {
                Err(CodecError::Incomplete { .. }) => {}
                other => panic!("cut at {cut}: expected Incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let f = Frame::new(9, b"sensitive".to_vec());
        let mut clean = Vec::new();
        encode_frame(&f, &mut clean);
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            match decode_frame(&bad) {
                Err(_) => {}
                // A flip in the length header may still decode if the
                // buffer happens to contain that many bytes — it can't
                // here, because the buffer is exactly one frame long.
                Ok((frame, _)) => panic!("flip at {i} went undetected: {frame:?}"),
            }
        }
    }

    #[test]
    fn insane_length_is_corrupt_not_alloc() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_frame(&buf),
            Err(CodecError::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn reader_walks_consecutive_frames() {
        let mut buf = Vec::new();
        for tag in 0..5u8 {
            encode_frame(&Frame::new(tag, vec![tag; tag as usize]), &mut buf);
        }
        let mut r = FrameReader::new(&buf);
        let mut tags = Vec::new();
        while let Some(f) = r.next().unwrap() {
            tags.push(f.tag);
        }
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.offset(), buf.len());
    }

    #[test]
    fn reader_reports_rebased_offsets() {
        let mut buf = Vec::new();
        encode_frame(&Frame::new(1, b"first".to_vec()), &mut buf);
        let second_at = buf.len();
        encode_frame(&Frame::new(2, b"second".to_vec()), &mut buf);
        buf.truncate(second_at + 3);
        let mut r = FrameReader::new(&buf);
        assert!(r.next().unwrap().is_some());
        match r.next() {
            Err(CodecError::Incomplete { offset }) => assert_eq!(offset, second_at),
            other => panic!("expected torn tail, got {other:?}"),
        }
    }

    #[test]
    fn stream_decoder_reassembles_byte_at_a_time() {
        let frames: Vec<Frame> = (0..4u8)
            .map(|t| Frame::new(t, vec![t ^ 0x5A; t as usize * 3]))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            encode_frame(f, &mut stream);
        }
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(dec.buf.len(), dec.read);
        assert_eq!(dec.consumed(), stream.len() as u64);
    }

    #[test]
    fn stream_decoder_corruption_is_sticky_and_stream_offset_rebased() {
        let mut stream = Vec::new();
        encode_frame(&Frame::new(1, b"first".to_vec()), &mut stream);
        let second_at = stream.len();
        encode_frame(&Frame::new(2, b"second".to_vec()), &mut stream);
        *stream.last_mut().unwrap() ^= 0xFF; // break the second CRC
        let mut dec = StreamDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap().unwrap().tag, 1);
        match dec.next_frame() {
            Err(CodecError::Corrupt { offset, .. }) => assert_eq!(offset, second_at),
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(dec.next_frame().is_err(), "corruption is sticky");
    }

    #[test]
    fn wire_primitives_round_trip() {
        let mut out = Vec::new();
        wire::put_u8(&mut out, 0xAB);
        wire::put_u32(&mut out, 0xDEAD_BEEF);
        wire::put_u64(&mut out, u64::MAX - 1);
        wire::put_u128(&mut out, 1 << 100);
        wire::put_str(&mut out, "naïve façade");
        wire::put_bytes(&mut out, &[1, 2, 3]);
        let mut r = wire::Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.str().unwrap(), "naïve façade");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn wire_reader_short_reads_are_corrupt() {
        let mut r = wire::Reader::new(&[0, 0]);
        assert!(matches!(r.u32(), Err(CodecError::Corrupt { .. })));
    }
}
