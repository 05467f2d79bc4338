//! The SCINET wire format.
//!
//! Inter-range traffic is serialised to a compact binary frame (built on
//! the `bytes` crate):
//!
//! ```text
//! magic(2) version(1) kind(1) msg_id(16) src(16) dst(16) ttl(2)
//! payload_len(4) payload(...)
//! ```
//!
//! Payloads are opaque to the overlay; `sci-core` puts query XML and
//! response values inside them.

use bytes::{Buf, BufMut, BytesMut};
// Re-exported so facade users can build payloads without naming the
// vendored crate directly.
pub use bytes::Bytes;

use sci_types::{Guid, SciError, SciResult};

const MAGIC: u16 = 0x5C1E; // "SCI E(vent)"
const VERSION: u8 = 1;
/// Frames larger than this are rejected by the decoder.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Default time-to-live for routed messages, in hops. 128 corrective
/// hops suffice for any pair of 128-bit GUIDs.
pub const DEFAULT_TTL: u16 = 160;

/// The kinds of inter-range message SCI exchanges.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MessageKind {
    /// A query forwarded toward the range that should answer it
    /// (CAPA: lobby CS → Level 10 CS).
    QueryForward,
    /// A response carrying context back to the querying range.
    QueryResponse,
    /// Liveness probe.
    Ping,
    /// Liveness reply.
    Pong,
    /// Discovery: ask a node for its neighbours closest to a target.
    FindNode,
    /// Discovery: the reply listing those neighbours.
    FindNodeReply,
    /// A context event streamed to a remote subscriber range.
    EventRelay,
    /// An entity's packaged state moving to a new home range.
    Migrate,
}

impl MessageKind {
    /// All message kinds.
    pub const ALL: [MessageKind; 8] = [
        MessageKind::QueryForward,
        MessageKind::QueryResponse,
        MessageKind::Ping,
        MessageKind::Pong,
        MessageKind::FindNode,
        MessageKind::FindNodeReply,
        MessageKind::EventRelay,
        MessageKind::Migrate,
    ];

    /// The kind's wire tag (0–8). Shared by the message header and the
    /// TCP transport's frame tags, so a frame's kind is readable before
    /// the payload is parsed. Tag 2 belongs to no kind: coverage is
    /// replicated state ([`crate::sync::SyncStore`]), not a message, and
    /// the tag stays reserved and refused on decode.
    pub fn to_wire(self) -> u8 {
        match self {
            MessageKind::QueryForward => 0,
            MessageKind::QueryResponse => 1,
            MessageKind::Ping => 3,
            MessageKind::Pong => 4,
            MessageKind::FindNode => 5,
            MessageKind::FindNodeReply => 6,
            MessageKind::EventRelay => 7,
            MessageKind::Migrate => 8,
        }
    }

    /// Parses a wire tag back into a kind.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Codec`] for tags outside 0–8 and for the
    /// reserved tag 2.
    pub fn from_wire(byte: u8) -> SciResult<MessageKind> {
        MessageKind::ALL
            .into_iter()
            .find(|k| k.to_wire() == byte)
            .ok_or_else(|| SciError::Codec(format!("unknown message kind {byte}")))
    }
}

/// One inter-range message.
#[derive(Clone, PartialEq, Debug)]
pub struct Message {
    /// Unique id of this message (for dedup and response correlation).
    pub id: Guid,
    /// Originating node.
    pub src: Guid,
    /// Destination node.
    pub dst: Guid,
    /// Message kind.
    pub kind: MessageKind,
    /// Remaining hop budget; decremented at each forward.
    pub ttl: u16,
    /// Opaque payload.
    pub payload: Bytes,
}

impl Message {
    /// Creates a message with the default TTL.
    pub fn new(
        id: Guid,
        src: Guid,
        dst: Guid,
        kind: MessageKind,
        payload: impl Into<Bytes>,
    ) -> Self {
        Message {
            id,
            src,
            dst,
            kind,
            ttl: DEFAULT_TTL,
            payload: payload.into(),
        }
    }

    /// Serialises to the wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(58 + self.payload.len());
        buf.put_u16(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(self.kind.to_wire());
        buf.put_slice(&self.id.to_bytes());
        buf.put_slice(&self.src.to_bytes());
        buf.put_slice(&self.dst.to_bytes());
        buf.put_u16(self.ttl);
        buf.put_u32(self.payload.len() as u32);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses a message from the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Codec`] for truncated frames, bad magic,
    /// unsupported versions, unknown kinds or oversized payloads.
    pub fn decode(mut buf: Bytes) -> SciResult<Message> {
        if buf.remaining() < 58 {
            return Err(SciError::Codec(format!(
                "frame too short: {} bytes",
                buf.remaining()
            )));
        }
        let magic = buf.get_u16();
        if magic != MAGIC {
            return Err(SciError::Codec(format!("bad magic {magic:#06x}")));
        }
        let version = buf.get_u8();
        if version != VERSION {
            return Err(SciError::Codec(format!("unsupported version {version}")));
        }
        let kind = MessageKind::from_wire(buf.get_u8())?;
        let mut guid_bytes = [0u8; 16];
        buf.copy_to_slice(&mut guid_bytes);
        let id = Guid::from_bytes(guid_bytes);
        buf.copy_to_slice(&mut guid_bytes);
        let src = Guid::from_bytes(guid_bytes);
        buf.copy_to_slice(&mut guid_bytes);
        let dst = Guid::from_bytes(guid_bytes);
        let ttl = buf.get_u16();
        let len = buf.get_u32() as usize;
        if len > MAX_PAYLOAD {
            return Err(SciError::Codec(format!(
                "payload of {len} bytes exceeds cap"
            )));
        }
        if buf.remaining() != len {
            return Err(SciError::Codec(format!(
                "payload length mismatch: header says {len}, frame has {}",
                buf.remaining()
            )));
        }
        Ok(Message {
            id,
            src,
            dst,
            kind,
            ttl,
            payload: buf,
        })
    }

    /// A copy with the TTL decremented, or `None` when the budget is
    /// exhausted.
    pub fn forwarded(&self) -> Option<Message> {
        let ttl = self.ttl.checked_sub(1)?;
        Some(Message {
            ttl,
            ..self.clone()
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample(kind: MessageKind) -> Message {
        Message::new(
            Guid::from_u128(1),
            Guid::from_u128(2),
            Guid::from_u128(3),
            kind,
            Bytes::from_static(b"<query>...</query>"),
        )
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in MessageKind::ALL {
            let m = sample(kind);
            let decoded = Message::decode(m.encode()).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let m = Message::new(
            Guid::from_u128(9),
            Guid::from_u128(8),
            Guid::from_u128(7),
            MessageKind::Ping,
            Bytes::new(),
        );
        assert_eq!(Message::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn rejects_corruption() {
        let good = sample(MessageKind::QueryForward).encode();

        let mut bad_magic = good.to_vec();
        bad_magic[0] ^= 0xff;
        assert!(Message::decode(Bytes::from(bad_magic)).is_err());

        let mut bad_version = good.to_vec();
        bad_version[2] = 99;
        assert!(Message::decode(Bytes::from(bad_version)).is_err());

        // Never a kind, and the reserved one.
        for kind in [250, 2] {
            let mut bad_kind = good.to_vec();
            bad_kind[3] = kind;
            assert!(Message::decode(Bytes::from(bad_kind)).is_err());
        }

        let truncated = good.slice(0..30);
        assert!(Message::decode(truncated).is_err());

        let mut extra = good.to_vec();
        extra.push(0);
        assert!(
            Message::decode(Bytes::from(extra)).is_err(),
            "trailing byte"
        );
    }

    #[test]
    fn ttl_expiry() {
        let mut m = sample(MessageKind::Ping);
        m.ttl = 1;
        let f = m.forwarded().unwrap();
        assert_eq!(f.ttl, 0);
        assert!(f.forwarded().is_none());
    }
}
