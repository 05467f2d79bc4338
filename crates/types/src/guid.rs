//! Global unique identifiers.
//!
//! The SCINET overlay addresses entities and ranges by GUID rather than by
//! network address, which lets entities "communicate across many
//! heterogeneous network types" (paper, Section 3). A [`Guid`] is a
//! 128-bit value; the overlay routes by correcting the most significant
//! differing bit between the current node and the destination, so the
//! prefix-oriented helpers here ([`Guid::leading_equal_bits`],
//! [`Guid::xor_distance`]) are the primitives the routing layer builds on.

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SciError;

/// A 128-bit globally unique identifier.
///
/// GUIDs are the only addressing scheme in SCI: ranges, context entities,
/// applications, queries and configurations are all named by `Guid`.
///
/// # Example
///
/// ```
/// use sci_types::Guid;
///
/// let a = Guid::from_u128(0xdead_beef);
/// let b: Guid = "00000000-0000-0000-0000-0000deadbeef".parse()?;
/// assert_eq!(a, b);
/// # Ok::<(), sci_types::SciError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Guid(u128);

impl Guid {
    /// The all-zero GUID, used as a sentinel for "unassigned".
    pub const NIL: Guid = Guid(0);

    /// Number of bits in a GUID.
    pub const BITS: u32 = 128;

    /// Creates a GUID from a raw 128-bit value.
    pub const fn from_u128(raw: u128) -> Self {
        Guid(raw)
    }

    /// Returns the raw 128-bit value.
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// XOR distance between two GUIDs, the metric the overlay routes on.
    ///
    /// The distance is symmetric and satisfies the triangle-equality
    /// property used by Kademlia-style networks: for any `a`, exactly one
    /// `b` lies at each distance.
    pub const fn xor_distance(self, other: Guid) -> u128 {
        self.0 ^ other.0
    }

    /// Number of leading bits (most significant first) shared with `other`.
    ///
    /// Returns 128 when the GUIDs are equal.
    pub const fn leading_equal_bits(self, other: Guid) -> u32 {
        (self.0 ^ other.0).leading_zeros()
    }

    /// Returns the value of bit `index`, where bit 0 is the most
    /// significant bit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 128`.
    pub fn bit(self, index: u32) -> bool {
        assert!(index < Self::BITS, "bit index {index} out of range");
        (self.0 >> (Self::BITS - 1 - index)) & 1 == 1
    }

    /// Returns a copy of this GUID with bit `index` (MSB-first) flipped.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 128`.
    pub fn with_bit_flipped(self, index: u32) -> Guid {
        assert!(index < Self::BITS, "bit index {index} out of range");
        Guid(self.0 ^ (1u128 << (Self::BITS - 1 - index)))
    }

    /// Serialises the GUID to its 16 big-endian bytes.
    pub const fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Reconstructs a GUID from 16 big-endian bytes.
    pub const fn from_bytes(bytes: [u8; 16]) -> Guid {
        Guid(u128::from_be_bytes(bytes))
    }
}

impl fmt::Debug for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Guid({self})")
    }
}

impl fmt::Display for Guid {
    /// Formats as the conventional 8-4-4-4-12 hex form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (b >> 96) as u32,
            (b >> 80) as u16,
            (b >> 64) as u16,
            (b >> 48) as u16,
            b & 0xffff_ffff_ffff
        )
    }
}

impl fmt::LowerHex for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u128> for Guid {
    fn from(raw: u128) -> Self {
        Guid(raw)
    }
}

impl From<Guid> for u128 {
    fn from(guid: Guid) -> Self {
        guid.0
    }
}

impl FromStr for Guid {
    type Err = SciError;

    /// Parses either the dashed 8-4-4-4-12 form or a bare hex string.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex: String = s.chars().filter(|c| *c != '-').collect();
        if hex.is_empty() || hex.len() > 32 {
            return Err(SciError::InvalidGuid(s.to_owned()));
        }
        u128::from_str_radix(&hex, 16)
            .map(Guid)
            .map_err(|_| SciError::InvalidGuid(s.to_owned()))
    }
}

/// Deterministic generator of fresh GUIDs.
///
/// All SCI components that mint identifiers take a `GuidGenerator` so
/// experiments are reproducible from a seed. The generator never returns
/// [`Guid::NIL`] and never repeats a value within a single instance
/// (collisions in 128 random bits are negligible; a collision with NIL is
/// re-drawn).
#[derive(Debug, Clone)]
pub struct GuidGenerator {
    rng: StdRng,
}

impl GuidGenerator {
    /// Creates a generator from a fixed seed, for reproducible runs.
    pub fn seeded(seed: u64) -> Self {
        GuidGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Returns a fresh non-nil GUID.
    pub fn next_guid(&mut self) -> Guid {
        loop {
            let raw: u128 = self.rng.gen();
            if raw != 0 {
                return Guid(raw);
            }
        }
    }
}

impl Default for GuidGenerator {
    fn default() -> Self {
        GuidGenerator::seeded(0)
    }
}

impl Iterator for GuidGenerator {
    type Item = Guid;

    fn next(&mut self) -> Option<Guid> {
        Some(self.next_guid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let g = Guid::from_u128(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        let s = g.to_string();
        assert_eq!(s, "01234567-89ab-cdef-0123-456789abcdef");
        let back: Guid = s.parse().unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn parse_bare_hex() {
        let g: Guid = "ff".parse().unwrap();
        assert_eq!(g.as_u128(), 0xff);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not-a-guid".parse::<Guid>().is_err());
        assert!("".parse::<Guid>().is_err());
        assert!(
            "0123456789abcdef0123456789abcdef00"
                .parse::<Guid>()
                .is_err(),
            "33 hex digits must be rejected"
        );
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let g = Guid::from_u128(1u128 << 127);
        assert!(g.bit(0));
        assert!(!g.bit(1));
        assert!(!g.bit(127));
        let h = Guid::from_u128(1);
        assert!(h.bit(127));
        assert!(!h.bit(0));
    }

    #[test]
    fn flipping_msb_differing_bit_increases_shared_prefix() {
        let a = Guid::from_u128(0b1010 << 124);
        let b = Guid::from_u128(0b1110 << 124);
        let diff = a.leading_equal_bits(b);
        assert_eq!(diff, 1);
        let corrected = a.with_bit_flipped(diff);
        assert!(corrected.leading_equal_bits(b) > diff);
    }

    #[test]
    fn xor_distance_properties() {
        let a = Guid::from_u128(77);
        let b = Guid::from_u128(1234);
        assert_eq!(a.xor_distance(b), b.xor_distance(a));
        assert_eq!(a.xor_distance(a), 0);
    }

    #[test]
    fn generator_is_deterministic_and_unique() {
        let a: Vec<Guid> = GuidGenerator::seeded(42).take(100).collect();
        let b: Vec<Guid> = GuidGenerator::seeded(42).take(100).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "generator repeated a GUID");
        assert!(a.iter().all(|g| g.as_u128() != 0));
    }

    #[test]
    fn byte_roundtrip() {
        let g = Guid::from_u128(0xfeed_f00d_dead_beef);
        assert_eq!(Guid::from_bytes(g.to_bytes()), g);
    }
}
