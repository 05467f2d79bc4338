//! What writing a durable document, and restoring a snapshot, costs in
//! memory. The digest, a migration packet and the record that logs one
//! are written straight into the buffer that carries them, so the peak
//! heap while one is written is the finished document plus its
//! buffer's growth — never a tree of elements several times its size.
//! A snapshot's payload is read into one buffer and its history filed
//! a bucket at a time, so a restore asks the allocator for little more
//! than the payload and the history's own bytes.
//!
//! A counting global allocator watches the heap, per thread, so the
//! tests may run side by side.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sci_core::context_server::ContextServer;
use sci_core::durability::{attach, durable_digest, encode_command, recover, DurabilityConfig};
use sci_core::runtime::RangeCommand;
use sci_query::{Mode, Query};
use sci_telemetry::Registry;
use sci_types::{
    ContextEvent, ContextType, ContextValue, EntityKind, Guid, HashMap, PortSpec, Profile,
    VirtualTime,
};

thread_local! {
    /// Bytes this thread allocated less those it freed (negative when
    /// it frees what another thread allocated); the most that was
    /// since the last [`measured`] began; and every byte asked for,
    /// a reallocation's whole new size included.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ASKED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn asked(size: usize) {
        ASKED.with(|asked| asked.set(asked.get() + size));
    }

    fn grew(by: usize) {
        LIVE.with(|live| {
            live.set(live.get() + by as isize);
            PEAK.with(|peak| peak.set(peak.get().max(live.get())));
        });
    }

    fn shrank(by: usize) {
        LIVE.with(|live| live.set(live.get() - by as isize));
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::asked(layout.size());
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        Counting::shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            Counting::asked(new_size);
            if new_size > layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                Counting::shrank(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// How much heap `f` used on this thread.
struct Used {
    /// The most it held above what was live when it began.
    peak: usize,
    /// Every byte it asked for.
    asked: usize,
}

/// What `f` returns, and the heap it used.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Used) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let asked = ASKED.with(Cell::get);
    let out = f();
    let used = Used {
        peak: (PEAK.with(Cell::get) - base) as usize,
        asked: ASKED.with(Cell::get) - asked,
    };
    (out, used)
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

    let (digest, Used { peak, .. }) = measured(|| durable_digest(&cs));
    assert!(digest.len() > 1_000_000, "{} bytes", digest.len());
    assert!(
        peak <= 3 * digest.len(),
        "the digest peaked at {peak} bytes for {} written",
        digest.len()
    );
    drop(digest);

    let packet = cs.migrate_out(app, now).unwrap();
    assert_eq!(packet.deliveries.len(), 4_000);
    let (xml, Used { peak, .. }) = measured(|| packet.to_xml());
    assert!(
        peak <= 3 * xml.len(),
        "the packet peaked at {peak} bytes for {} written",
        xml.len()
    );
    let logged = RangeCommand::MigrateIn(Box::new(packet));
    let (frame, Used { peak, .. }) = measured(|| encode_command(&logged, now));
    assert!(
        peak <= 3 * frame.payload.len(),
        "the migrate-in record peaked at {peak} bytes for {} written",
        frame.payload.len()
    );
}

/// A restore reads the snapshot's payload once, into the buffer it
/// checks, and files the history a bucket at a time into buckets sized
/// once: everything it asks the allocator for, the fresh server
/// included, comes to under three times the snapshot file (measured:
/// 2.4 times). Reading the file, copying the payload out of it, then
/// growing each bucket a record at a time asked for 4.5 times.
#[test]
fn a_snapshot_restore_asks_for_less_than_three_times_the_snapshot() {
    let (mut cs, _, now) = busy_range();
    cs.drain_outbox();
    let dir = std::env::temp_dir().join(format!("sci-restore-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::new(&dir);
    attach(&mut cs, &config, now).unwrap();
    let (id, plan) = (cs.id(), cs.location().plan().clone());
    let digest = durable_digest(&cs);
    drop(cs);
    let snapshot: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "snap"))
        .map(|path| std::fs::metadata(path).unwrap().len())
        .sum();
    assert!(snapshot > 300_000, "{snapshot} bytes");
    let logic = HashMap::default();
    let (recovered, Used { asked, .. }) =
        measured(|| recover(id, "r", plan, Registry::new(), &config, &logic));
    let (back, report) = recovered.unwrap();
    assert_eq!(report.snapshot_applied, Some(0));
    assert_eq!(durable_digest(&back), digest);
    assert!(
        asked < 3 * snapshot as usize,
        "the restore asked for {asked} bytes for a {snapshot}-byte snapshot"
    );
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}
