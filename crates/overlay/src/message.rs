//! The SCINET wire format.
//!
//! Inter-range traffic is serialised to a compact binary frame, written
//! and read with the WAL's big-endian primitives
//! ([`sci_wal::codec::wire`]), so every length is read through the one
//! bounded `Reader`:
//!
//! ```text
//! magic(2) version(1) kind(1) msg_id(16) src(16) dst(16) ttl(2)
//! payload_len(4) payload(...)
//! ```
//!
//! Payloads are opaque to the overlay; `sci-core` puts query XML and
//! response values inside them.

use sci_types::{Guid, SciError, SciResult};
use sci_wal::codec::wire::{self, Reader};

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
    pub payload: Vec<u8>,
}

impl Message {
    /// Creates a message with the default TTL.
    pub fn new(
        id: Guid,
        src: Guid,
        dst: Guid,
        kind: MessageKind,
        payload: impl Into<Vec<u8>>,
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
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(58 + self.payload.len());
        wire::put_u16(&mut out, MAGIC);
        wire::put_u8(&mut out, VERSION);
        wire::put_u8(&mut out, self.kind.to_wire());
        wire::put_u128(&mut out, self.id.as_u128());
        wire::put_u128(&mut out, self.src.as_u128());
        wire::put_u128(&mut out, self.dst.as_u128());
        wire::put_u16(&mut out, self.ttl);
        wire::put_bytes(&mut out, &self.payload);
        out
    }

    /// Parses a message from the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Codec`] for truncated frames, bad magic,
    /// unsupported versions, unknown kinds, oversized payloads or
    /// trailing bytes.
    pub fn decode(buf: impl AsRef<[u8]>) -> SciResult<Message> {
        let codec = |e| SciError::Codec(format!("message: {e}"));
        let mut r = Reader::new(buf.as_ref());
        let magic = r.u16().map_err(codec)?;
        if magic != MAGIC {
            return Err(SciError::Codec(format!("bad magic {magic:#06x}")));
        }
        let version = r.u8().map_err(codec)?;
        if version != VERSION {
            return Err(SciError::Codec(format!("unsupported version {version}")));
        }
        let kind = MessageKind::from_wire(r.u8().map_err(codec)?)?;
        let id = Guid::from_u128(r.u128().map_err(codec)?);
        let src = Guid::from_u128(r.u128().map_err(codec)?);
        let dst = Guid::from_u128(r.u128().map_err(codec)?);
        let ttl = r.u16().map_err(codec)?;
        let payload = r.bytes().map_err(codec)?;
        if payload.len() > MAX_PAYLOAD {
            return Err(SciError::Codec(format!(
                "payload of {} bytes exceeds cap",
                payload.len()
            )));
        }
        if r.remaining() != 0 {
            return Err(SciError::Codec(format!(
                "{} bytes after the payload",
                r.remaining()
            )));
        }
        Ok(Message {
            id,
            src,
            dst,
            kind,
            ttl,
            payload: payload.to_vec(),
        })
    }

    /// The message with its TTL decremented, or `None` when the budget
    /// is exhausted.
    pub fn forwarded(self) -> Option<Message> {
        let ttl = self.ttl.checked_sub(1)?;
        Some(Message { ttl, ..self })
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
            b"<query>...</query>".to_vec(),
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
            Vec::new(),
        );
        assert_eq!(Message::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn rejects_corruption() {
        let good = sample(MessageKind::QueryForward).encode();

        let mut bad_magic = good.to_vec();
        bad_magic[0] ^= 0xff;
        assert!(Message::decode(bad_magic).is_err());

        let mut bad_version = good.to_vec();
        bad_version[2] = 99;
        assert!(Message::decode(bad_version).is_err());

        // Never a kind, and the reserved one.
        for kind in [250, 2] {
            let mut bad_kind = good.to_vec();
            bad_kind[3] = kind;
            assert!(Message::decode(bad_kind).is_err());
        }

        let truncated = &good[0..30];
        assert!(Message::decode(truncated).is_err());

        // A length no frame could hold is refused before anything is
        // allocated for it.
        let mut huge = good.to_vec();
        huge[54..58].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(Message::decode(huge), Err(SciError::Codec(_))));

        let mut extra = good.to_vec();
        extra.push(0);
        assert!(Message::decode(extra).is_err(), "trailing byte");
    }

    /// Every header field non-zero and a short payload: the bytes on
    /// the wire are pinned, whatever code writes them.
    #[test]
    fn encoding_is_pinned() {
        let mut m = Message::new(
            Guid::from_u128(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
            Guid::from_u128(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10),
            Guid::from_u128(0xf0e0_d0c0_b0a0_9080_7060_5040_3020_1001),
            MessageKind::EventRelay,
            b"sci".to_vec(),
        );
        m.ttl = 0x1234;
        let hex: String = m.encode().iter().map(|b| format!("{b:02x}")).collect();
        let want = concat!(
            "5c1e",                             // magic
            "01",                               // version
            "07",                               // kind: EventRelay
            "00112233445566778899aabbccddeeff", // id
            "0102030405060708090a0b0c0d0e0f10", // src
            "f0e0d0c0b0a090807060504030201001", // dst
            "1234",                             // ttl
            "00000003",                         // payload length
            "736369",                           // payload: "sci"
        );
        assert_eq!(hex, want);
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
