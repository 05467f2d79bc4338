//! Threaded event runtime.
//!
//! The paper's prototype used "a hybrid communication model (a
//! combination of distributed events and point to point communication)".
//! [`ThreadedBus`] is the distributed-events half under real concurrency:
//! the same topic/subscription semantics as [`crate::bus::EventBus`]
//! (both dispatch through [`crate::index::TopicIndex`]), but deliveries
//! flow through crossbeam channels to subscriber threads.
//! Point-to-point communication is plain request/response over a
//! dedicated channel pair ([`point_to_point`]).

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded};
pub use crossbeam::channel::{Receiver, Sender, TrySendError};
use parking_lot::Mutex;

use sci_telemetry::{Histogram, Registry};
use sci_types::{ContextEvent, Guid, SciError, SciResult};

use crate::bus::SubId;
use crate::index::TopicIndex;
use crate::stats::DeliveryStats;
use crate::telemetry::BusTelemetry;
use crate::topic::Topic;

#[derive(Clone)]
struct RtTelemetry {
    bus: BusTelemetry,
    latency: Histogram,
}

struct Inner {
    subs: Mutex<TopicIndex<Sender<ContextEvent>>>,
    stats: Mutex<DeliveryStats>,
    telemetry: Mutex<Option<RtTelemetry>>,
}

/// A thread-safe pub/sub bus delivering over channels.
///
/// Cloning the bus is cheap and shares the subscription table, so any
/// number of producer threads can publish concurrently.
///
/// # Example
///
/// ```
/// use sci_event::rt::ThreadedBus;
/// use sci_event::Topic;
/// use sci_types::{ContextEvent, ContextType, ContextValue, Guid, VirtualTime};
///
/// let bus = ThreadedBus::new();
/// let (_, rx) = bus.subscribe(Guid::from_u128(1), Topic::any(), false);
///
/// let publisher = bus.clone();
/// std::thread::spawn(move || {
///     let ev = ContextEvent::new(
///         Guid::from_u128(2), ContextType::Temperature,
///         ContextValue::Float(19.5), VirtualTime::ZERO,
///     );
///     publisher.publish(&ev);
/// });
///
/// let received = rx.recv().unwrap();
/// assert_eq!(received.topic, ContextType::Temperature);
/// ```
#[derive(Clone)]
pub struct ThreadedBus {
    inner: Arc<Inner>,
}

impl ThreadedBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        ThreadedBus {
            inner: Arc::new(Inner {
                subs: Mutex::new(TopicIndex::new()),
                stats: Mutex::new(DeliveryStats::new()),
                telemetry: Mutex::new(None),
            }),
        }
    }

    /// Starts recording telemetry into `registry`: the shared
    /// publish/deliver counters and fan-out distribution plus
    /// `bus.publish.latency_us` (match + channel-send time, measured
    /// under real concurrency).
    pub fn attach_telemetry(&self, registry: &Registry) {
        *self.inner.telemetry.lock() = Some(RtTelemetry {
            bus: BusTelemetry::register(registry),
            latency: registry.histogram("bus.publish.latency_us"),
        });
    }

    /// Registers a subscription, returning its id and the receiving end
    /// of its delivery channel.
    pub fn subscribe(
        &self,
        subscriber: Guid,
        topic: Topic,
        one_time: bool,
    ) -> (SubId, Receiver<ContextEvent>) {
        let (tx, rx) = unbounded();
        let id = self
            .inner
            .subs
            .lock()
            .subscribe(subscriber, topic, one_time, tx);
        (id, rx)
    }

    /// Cancels a subscription; its channel disconnects.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::UnknownSubscription`] for stale ids.
    pub fn unsubscribe(&self, id: SubId) -> SciResult<()> {
        self.inner.subs.lock().unsubscribe(id)
    }

    /// Cancels every subscription held by `subscriber`, returning how
    /// many were removed.
    pub fn unsubscribe_all(&self, subscriber: Guid) -> usize {
        self.inner.subs.lock().unsubscribe_all(subscriber)
    }

    /// Publishes an event to every matching live subscription. Returns
    /// the fanout. Subscriptions whose receiver has been dropped are
    /// garbage-collected when the index next visits them as candidates;
    /// one-time subscriptions are consumed.
    pub fn publish(&self, event: &ContextEvent) -> usize {
        let telemetry = self.inner.telemetry.lock().clone();
        let start = telemetry.as_ref().map(|_| Instant::now()); // sci-lint: allow(wall-clock): telemetry timing
        let outcome = self
            .inner
            .subs
            .lock()
            // A failed send means the receiver is gone; returning `false`
            // reaps the subscription.
            .publish_with(event, |view| view.extra.send(event.clone()).is_ok());
        if let (Some(t), Some(start)) = (&telemetry, start) {
            t.bus.record_publish(&outcome);
            t.latency
                .record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        self.inner.stats.lock().record_publish(
            &event.topic,
            outcome.fanout,
            outcome.completed_one_time,
        );
        outcome.fanout
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.inner.subs.lock().len()
    }

    /// Returns `true` if there are no live subscriptions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cumulative delivery statistics.
    pub fn stats(&self) -> DeliveryStats {
        self.inner.stats.lock().clone()
    }
}

impl Default for ThreadedBus {
    fn default() -> Self {
        ThreadedBus::new()
    }
}

impl std::fmt::Debug for ThreadedBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedBus")
            .field("subscriptions", &self.len())
            .finish()
    }
}

/// Creates an unbounded actor mailbox: a multi-producer channel feeding
/// a single consumer loop. This is the building block shared by every
/// threaded driver in the workspace — [`ThreadedBus`] delivery channels,
/// [`point_to_point`] links and the per-range command mailboxes of
/// `sci-core`'s actor runtime all ride the same primitive.
pub fn mailbox<T>() -> (Sender<T>, Receiver<T>) {
    unbounded()
}

/// Creates a **bounded** actor mailbox holding at most `capacity`
/// in-flight messages — the backpressure primitive of the streaming
/// federation runtime.
///
/// A full mailbox makes `send` *block* until the consumer frees a slot
/// (never deadlocking: the single consumer always drains, and a dead
/// consumer disconnects the channel, waking every blocked producer with
/// an error) and makes `try_send` fail fast with
/// [`TrySendError::Full`], which callers can account as a shed.
/// `capacity` of zero is promoted to one so a rendezvous channel cannot
/// stall a fire-and-forget producer.
pub fn bounded_mailbox<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    bounded(capacity.max(1))
}

/// A point-to-point duplex channel pair: the second half of the paper's
/// hybrid communication model, used for request/response interactions
/// such as advertisement invocations.
///
/// Returns `(client, server)` endpoints; requests of type `Q` flow
/// client→server, responses of type `R` flow back.
pub fn point_to_point<Q, R>() -> (P2pClient<Q, R>, P2pServer<Q, R>) {
    let (qtx, qrx) = unbounded();
    let (rtx, rrx) = unbounded();
    (
        P2pClient { tx: qtx, rx: rrx },
        P2pServer { rx: qrx, tx: rtx },
    )
}

/// Client endpoint of a point-to-point link.
#[derive(Debug)]
pub struct P2pClient<Q, R> {
    tx: Sender<Q>,
    rx: Receiver<R>,
}

impl<Q, R> P2pClient<Q, R> {
    /// Sends a request and blocks for the response.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Stopped`] if the server endpoint is gone.
    pub fn call(&self, request: Q) -> SciResult<R> {
        self.tx
            .send(request)
            .map_err(|_| SciError::Stopped("point-to-point server".into()))?;
        self.rx
            .recv()
            .map_err(|_| SciError::Stopped("point-to-point server".into()))
    }
}

/// Server endpoint of a point-to-point link.
#[derive(Debug)]
pub struct P2pServer<Q, R> {
    rx: Receiver<Q>,
    tx: Sender<R>,
}

impl<Q, R> P2pServer<Q, R> {
    /// Blocks for the next request.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Stopped`] if all clients are gone.
    pub fn next_request(&self) -> SciResult<Q> {
        self.rx
            .recv()
            .map_err(|_| SciError::Stopped("point-to-point client".into()))
    }

    /// Sends a response to the client.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Stopped`] if the client endpoint is gone.
    pub fn respond(&self, response: R) -> SciResult<()> {
        self.tx
            .send(response)
            .map_err(|_| SciError::Stopped("point-to-point client".into()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sci_types::{ContextType, ContextValue, VirtualTime};
    use std::thread;

    fn ev(source: u128, seq: u64) -> ContextEvent {
        ContextEvent::new(
            Guid::from_u128(source),
            ContextType::Temperature,
            ContextValue::Int(seq as i64),
            VirtualTime::from_micros(seq),
        )
    }

    #[test]
    fn concurrent_publishers_single_subscriber() {
        let bus = ThreadedBus::new();
        let (_, rx) = bus.subscribe(Guid::from_u128(1), Topic::any(), false);
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = bus.clone();
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    b.publish(&ev(t, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(bus);
        let received: Vec<ContextEvent> = rx.try_iter().collect();
        assert_eq!(received.len(), 400);
    }

    #[test]
    fn one_time_in_threaded_mode() {
        let bus = ThreadedBus::new();
        let (_, rx) = bus.subscribe(Guid::from_u128(1), Topic::any(), true);
        assert_eq!(bus.publish(&ev(9, 0)), 1);
        assert_eq!(bus.publish(&ev(9, 1)), 0);
        assert_eq!(rx.try_iter().count(), 1);
        assert!(bus.is_empty());
    }

    #[test]
    fn dropped_receiver_is_reaped() {
        let bus = ThreadedBus::new();
        let (_, rx) = bus.subscribe(Guid::from_u128(1), Topic::any(), false);
        drop(rx);
        assert_eq!(bus.publish(&ev(9, 0)), 0);
        assert!(bus.is_empty(), "dead subscription garbage-collected");
    }

    #[test]
    fn unsubscribe_disconnects() {
        let bus = ThreadedBus::new();
        let (id, rx) = bus.subscribe(Guid::from_u128(1), Topic::any(), false);
        bus.unsubscribe(id).unwrap();
        assert!(bus.unsubscribe(id).is_err());
        assert_eq!(bus.publish(&ev(9, 0)), 0);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn topic_filtering_under_threads() {
        let bus = ThreadedBus::new();
        let (_, temp_rx) = bus.subscribe(
            Guid::from_u128(1),
            Topic::of_type(ContextType::Temperature),
            false,
        );
        let (_, pres_rx) = bus.subscribe(
            Guid::from_u128(2),
            Topic::of_type(ContextType::Presence),
            false,
        );
        bus.publish(&ev(9, 0));
        assert_eq!(temp_rx.try_iter().count(), 1);
        assert_eq!(pres_rx.try_iter().count(), 0);
        assert_eq!(bus.stats().published, 1);
        assert_eq!(bus.stats().delivered, 1);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let (client, server) = point_to_point::<String, usize>();
        let h = thread::spawn(move || {
            let req = server.next_request().unwrap();
            server.respond(req.len()).unwrap();
        });
        let len = client.call("hello".to_owned()).unwrap();
        assert_eq!(len, 5);
        h.join().unwrap();
    }

    #[test]
    fn point_to_point_detects_dead_server() {
        let (client, server) = point_to_point::<u8, u8>();
        drop(server);
        assert!(matches!(client.call(1), Err(SciError::Stopped(_))));
    }

    #[test]
    fn bounded_mailbox_blocks_until_consumer_frees_a_slot() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let (tx, rx) = bounded_mailbox::<u32>(2);
        let sent = Arc::new(AtomicUsize::new(0));
        let tally = sent.clone();
        let producer = thread::spawn(move || {
            for i in 0..6u32 {
                tx.send(i).unwrap();
                tally.fetch_add(1, Ordering::SeqCst);
            }
        });
        // The producer can be at most capacity ahead of the consumer:
        // the third send blocks until this thread receives. Draining
        // slowly must still see every message exactly once, in order.
        let mut got = Vec::new();
        for _ in 0..6 {
            got.push(rx.recv().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sent.load(Ordering::SeqCst), 6);
        assert!(rx.try_recv().is_err(), "nothing duplicated");
    }

    #[test]
    fn bounded_mailbox_try_send_sheds_when_full() {
        let (tx, rx) = bounded_mailbox::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        // Full: the shed path fails fast instead of deadlocking the
        // producer, and hands the rejected message back for accounting.
        match tx.try_send(3) {
            Err(TrySendError::Full(rejected)) => assert_eq!(rejected, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.recv().unwrap(), 1);
        tx.try_send(4).unwrap();
        let rest: Vec<u32> = rx.try_iter().collect();
        assert_eq!(rest, vec![2, 4], "shed message never lands");
    }

    #[test]
    fn bounded_mailbox_send_errors_when_consumer_is_gone() {
        let (tx, rx) = bounded_mailbox::<u32>(1);
        tx.send(1).unwrap();
        drop(rx);
        // A dead consumer must wake the producer with an error, not
        // leave it blocked on a slot that will never free.
        assert!(tx.send(2).is_err());
    }

    #[test]
    fn unsubscribe_all_threaded() {
        let bus = ThreadedBus::new();
        let e = Guid::from_u128(7);
        let _r1 = bus.subscribe(e, Topic::any(), false);
        let _r2 = bus.subscribe(e, Topic::any(), false);
        let _r3 = bus.subscribe(Guid::from_u128(8), Topic::any(), false);
        assert_eq!(bus.unsubscribe_all(e), 2);
        assert_eq!(bus.len(), 1);
    }
}
