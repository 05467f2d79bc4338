//! Property tests for SCINET routing and the wire codec.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sci_overlay::message::{Message, MessageKind};
use sci_overlay::net::SimNetwork;
use sci_overlay::routing::RoutingTable;
use sci_types::Guid;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With full membership knowledge, every src→dst pair routes, the
    /// path endpoints are correct, every hop strictly decreases XOR
    /// distance, and hop count never exceeds the 128-bit bound.
    #[test]
    fn full_knowledge_routes_converge(
        raws in prop::collection::hash_set(any::<u128>().prop_filter("nonzero", |r| *r != 0), 2..40),
        src_pick in any::<prop::sample::Index>(),
        dst_pick in any::<prop::sample::Index>(),
    ) {
        let guids: Vec<Guid> = raws.iter().map(|&r| Guid::from_u128(r)).collect();
        let mut net = SimNetwork::new();
        for (i, &g) in guids.iter().enumerate() {
            net.add_node(g, format!("r{i}")).unwrap();
        }
        net.populate_full();

        let src = guids[src_pick.index(guids.len())];
        let dst = guids[dst_pick.index(guids.len())];
        let out = net.route(src, dst).unwrap();

        prop_assert_eq!(out.path.first().copied(), Some(src));
        prop_assert_eq!(out.path.last().copied(), Some(dst));
        prop_assert!(out.hops <= 128);
        for w in out.path.windows(2) {
            prop_assert!(
                w[1].xor_distance(dst) < w[0].xor_distance(dst),
                "hop failed to make progress"
            );
        }
    }

    /// Routing table inserts never exceed capacity and lookups always
    /// return a strict improvement or nothing.
    #[test]
    fn table_invariants(
        owner in any::<u128>(),
        peers in prop::collection::vec(any::<u128>(), 1..100),
        target in any::<u128>(),
        cap in 1usize..6,
    ) {
        let owner = Guid::from_u128(owner);
        let target = Guid::from_u128(target);
        let mut t = RoutingTable::with_capacity(owner, cap);
        for &p in &peers {
            t.insert(Guid::from_u128(p));
        }
        // Each bucket holds at most `cap` entries, and every entry is in
        // the right bucket.
        for entry in t.iter() {
            let idx = t.bucket_index(entry).expect("entries are not the owner");
            prop_assert_eq!(owner.leading_equal_bits(entry) as usize, idx);
        }
        prop_assert!(t.len() <= cap * 128);
        if let Some(hop) = t.next_hop(target) {
            prop_assert!(hop.xor_distance(target) < owner.xor_distance(target));
        }
    }

    /// Wire codec round-trips arbitrary payloads.
    #[test]
    fn message_codec_roundtrip(
        id in any::<u128>(),
        src in any::<u128>(),
        dst in any::<u128>(),
        ttl in any::<u16>(),
        kind_pick in 0usize..MessageKind::ALL.len(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut m = Message::new(
            Guid::from_u128(id),
            Guid::from_u128(src),
            Guid::from_u128(dst),
            MessageKind::ALL[kind_pick],
            payload,
        );
        m.ttl = ttl;
        let decoded = Message::decode(m.encode()).unwrap();
        prop_assert_eq!(decoded, m);
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_never_panics(junk in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Message::decode(junk);
    }
}
