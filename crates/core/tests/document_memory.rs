//! What writing a durable document costs in memory: the digest, a
//! migration packet and the record that logs one are written straight
//! into the buffer that carries them, so the peak heap while one is
//! written is the finished document plus its buffer's growth — never a
//! tree of elements several times its size.
//!
//! A counting global allocator watches the heap; this binary holds one
//! test, so nothing else allocates beside it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sci_core::context_server::ContextServer;
use sci_core::durability::{durable_digest, encode_command};
use sci_core::runtime::RangeCommand;
use sci_query::{Mode, Query};
use sci_types::{
    ContextEvent, ContextType, ContextValue, EntityKind, Guid, PortSpec, Profile, VirtualTime,
};

/// Bytes allocated and not yet freed, and the most there were since the
/// last [`peak_during`] began.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size > layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// What `f` returns, and the most heap it held above what was live
/// when it began.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

/// A range whose history holds 4 000 readings about 125 subjects, and
/// whose one subscriber has not drained any of the 4 000 deliveries.
fn busy_range() -> (ContextServer, Guid, VirtualTime) {
    let (thermo, app) = (Guid::from_u128(1), Guid::from_u128(0xA));
    let mut cs = ContextServer::new(
        Guid::from_u128(0xC5),
        "r",
        sci_location::floorplan::capa_level10(),
    );
    let profile = Profile::builder(thermo, EntityKind::Device, "thermo")
        .output(PortSpec::new("t", ContextType::Temperature))
        .build();
    cs.register(profile, VirtualTime::ZERO).unwrap();
    cs.register(
        Profile::builder(app, EntityKind::Person, "app").build(),
        VirtualTime::ZERO,
    )
    .unwrap();
    let standing = Query::builder(Guid::from_u128(0x10), app)
        .info(ContextType::Temperature)
        .mode(Mode::Subscribe)
        .build();
    cs.submit_query(&standing, VirtualTime::ZERO).unwrap();
    let mut now = VirtualTime::ZERO;
    for i in 0..4_000u64 {
        now = VirtualTime::from_micros(i + 1);
        let subject = Guid::from_u128(0x100 + u128::from(i % 125));
        let reading = ContextEvent::new(
            thermo,
            ContextType::Temperature,
            ContextValue::record([
                ("subject", ContextValue::Id(subject)),
                ("c", ContextValue::Float(20.0 + (i % 7) as f64 / 4.0)),
                ("unit", ContextValue::text("celsius")),
            ]),
            now,
        );
        cs.ingest(&reading, now).unwrap();
    }
    (cs, app, now)
}

#[test]
fn a_written_document_peaks_at_a_small_multiple_of_its_length() {
    let (mut cs, app, now) = busy_range();
    assert_eq!(cs.history().len(), 4_000);

    let (digest, peak) = peak_during(|| durable_digest(&cs));
    assert!(digest.len() > 1_000_000, "{} bytes", digest.len());
    assert!(
        peak <= 3 * digest.len(),
        "the digest peaked at {peak} bytes for {} written",
        digest.len()
    );
    drop(digest);

    let packet = cs.migrate_out(app, now).unwrap();
    assert_eq!(packet.deliveries.len(), 4_000);
    let (xml, peak) = peak_during(|| packet.to_xml());
    assert!(
        peak <= 3 * xml.len(),
        "the packet peaked at {peak} bytes for {} written",
        xml.len()
    );
    let logged = RangeCommand::MigrateIn(Box::new(packet));
    let (frame, peak) = peak_during(|| encode_command(&logged, now));
    assert!(
        peak <= 3 * frame.payload.len(),
        "the migrate-in record peaked at {peak} bytes for {} written",
        frame.payload.len()
    );
}
