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
//!
//! The channels are `std::sync::mpsc`. Std splits the sending half in
//! two (`Sender` unbounded, `SyncSender` bounded); [`Sender`] is one
//! type over both, so a range's mailbox policy (unbounded, bounded and
//! blocking, bounded and shedding) is a runtime value.

use std::sync::mpsc::{self, SendError};
pub use std::sync::mpsc::{Receiver, TrySendError};

/// The sending half of a mailbox, unbounded or bounded.
#[derive(Debug)]
pub enum Sender<T> {
    /// An unbounded mailbox's sender: `send` never blocks.
    Unbounded(mpsc::Sender<T>),
    /// A bounded mailbox's sender: `send` blocks while it is full.
    Bounded(mpsc::SyncSender<T>),
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        match self {
            Sender::Unbounded(tx) => Sender::Unbounded(tx.clone()),
            Sender::Bounded(tx) => Sender::Bounded(tx.clone()),
        }
    }
}

impl<T> Sender<T> {
    /// Sends `t`, blocking while a bounded mailbox is full.
    ///
    /// # Errors
    ///
    /// [`SendError`] when the receiver is gone (a sender blocked on a
    /// full mailbox is woken and also errors).
    pub fn send(&self, t: T) -> Result<(), SendError<T>> {
        match self {
            Sender::Unbounded(tx) => tx.send(t),
            Sender::Bounded(tx) => tx.send(t),
        }
    }

    /// Sends `t` without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when a bounded mailbox has no free slot
    /// (an unbounded one is never full); [`TrySendError::Disconnected`]
    /// when the receiver is gone.
    pub fn try_send(&self, t: T) -> Result<(), TrySendError<T>> {
        match self {
            Sender::Unbounded(tx) => tx
                .send(t)
                .map_err(|SendError(t)| TrySendError::Disconnected(t)),
            Sender::Bounded(tx) => tx.try_send(t),
        }
    }
}

/// Creates an unbounded actor mailbox: a multi-producer channel feeding
/// a single consumer loop — the per-range command and reply channels of
/// `sci-core`'s actor runtime.
pub fn mailbox<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender::Unbounded(tx), rx)
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
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (Sender::Bounded(tx), rx)
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
