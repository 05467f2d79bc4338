//! Actor mailboxes.
//!
//! The paper's prototype used "a hybrid communication model (a
//! combination of distributed events and point to point communication)".
//! Under real concurrency both halves ride the channels made here: a
//! range worker thread (`sci-core`'s `RangeRuntime`) owns one
//! [`crate::bus::EventBus`] and is fed commands through a mailbox —
//! fire-and-forget `cast` is the distributed-events half, `call`
//! (command in, typed reply back on a second mailbox) the point-to-point
//! half. There is no second, thread-safe bus.

use crossbeam::channel::{bounded, unbounded};
pub use crossbeam::channel::{Receiver, Sender, TrySendError};

/// Creates an unbounded actor mailbox: a multi-producer channel feeding
/// a single consumer loop — the per-range command and reply channels of
/// `sci-core`'s actor runtime.
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::thread;

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
}
