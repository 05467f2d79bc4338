//! Write-ahead logging primitives for durable context ranges.
//!
//! This crate is deliberately two things at once:
//!
//! 1. **[`codec`]** — length-prefixed, CRC-checked binary frames with
//!    no file-I/O assumptions. The same frame format is the planned
//!    network transport for the federation (ROADMAP item 1): a WAL
//!    record and a wire message differ only in where the bytes go.
//! 2. **[`log`]** — an append-only segmented log with pluggable
//!    [`log::FsyncPolicy`], torn-tail truncation on open, snapshot
//!    files that bound replay, and segment GC. Every file operation
//!    goes through one [`log::Dir`]: a directory on disk, or the same
//!    files in memory, so a log kept in memory runs the same rules.
//!
//! It knows nothing about SCI's command set: `sci-core::durability`
//! maps `RangeCommand`s onto frames, keeping this crate a leaf that
//! the future networking layer can depend on without cycles.
//!
//! The recovery contract, proven by the kill-at-any-prefix property
//! suite in `tests/durability_recovery.rs` at the workspace root:
//! truncating the log at *any* byte prefix yields either the full
//! recorded history or a clean prefix of it (plus a reported torn
//! tail) — never fabricated records. Corruption inside a *closed*
//! segment is a hard, located error, never a silent skip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod log;

pub use codec::{crc32, decode_frame, encode_frame, CodecError, Frame, FrameReader, StreamDecoder};
pub use log::{Appended, Dir, FsyncPolicy, Recovered, SegmentLog, WalError};
