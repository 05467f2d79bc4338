//! Interleaving-model tests for the actor mailbox primitives.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (CI's loom job); the
//! tests are source-compatible with the real `loom` crate, while the
//! offline build stress-executes them through the vendored shim. The
//! properties under test are the ones `RangeRuntime` leans on: no
//! message loss across producer threads, per-producer FIFO, and
//! request/response pairing across a command and a reply mailbox.
#![cfg(loom)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;

use sci_event::rt::{bounded_mailbox, mailbox, TrySendError};

#[test]
fn mailbox_loses_nothing_across_producers() {
    loom::model(|| {
        let (tx, rx) = mailbox::<u32>();
        let tx2 = tx.clone();
        let a = loom::thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let b = loom::thread::spawn(move || {
            tx2.send(10).unwrap();
        });
        a.join().unwrap();
        b.join().unwrap();
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 10], "every send lands exactly once");
        assert!(rx.try_recv().is_err(), "nothing is duplicated");
    });
}

#[test]
fn mailbox_preserves_per_producer_order() {
    loom::model(|| {
        let (tx, rx) = mailbox::<u32>();
        let producer = loom::thread::spawn(move || {
            for i in 0..4 {
                tx.send(i).unwrap();
            }
        });
        producer.join().unwrap();
        let got: Vec<u32> = (0..4).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3], "single-producer FIFO holds");
    });
}

#[test]
fn bounded_mailbox_blocks_producers_without_losing_or_deadlocking() {
    loom::model(|| {
        // Two producers race into a one-slot mailbox while the consumer
        // drains: blocking sends must all complete (backpressure, not
        // deadlock) and deliver exactly once across every interleaving.
        let (tx, rx) = bounded_mailbox::<u32>(1);
        let tx2 = tx.clone();
        let a = loom::thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let b = loom::thread::spawn(move || {
            tx2.send(10).unwrap();
        });
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap(), rx.recv().unwrap()];
        a.join().unwrap();
        b.join().unwrap();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![1, 2, 10],
            "every blocking send lands exactly once"
        );
        assert!(rx.try_recv().is_err(), "nothing is duplicated");
    });
}

#[test]
fn bounded_mailbox_sheds_cleanly_when_full() {
    loom::model(|| {
        // The shedding discipline: a full mailbox fails try_send with
        // the rejected value — the producer keeps going, the consumer
        // sees only what was accepted, still in FIFO order.
        let (tx, rx) = bounded_mailbox::<u32>(1);
        let producer = loom::thread::spawn(move || {
            let mut shed = 0u32;
            for i in 0..3 {
                match tx.try_send(i) {
                    Ok(()) => {}
                    Err(TrySendError::Full(v)) => {
                        assert_eq!(v, i, "the shed value is handed back");
                        shed += 1;
                    }
                    Err(TrySendError::Disconnected(_)) => panic!("consumer alive"),
                }
            }
            shed
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        let shed = producer.join().unwrap();
        assert_eq!(
            got.len() + shed as usize,
            3,
            "every try_send is either delivered or an accounted drop"
        );
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "accepted sends stay FIFO"
        );
    });
}

#[test]
fn call_pairs_request_with_response_after_pipelined_casts() {
    loom::model(|| {
        // The shape of `RangeRuntime::call`: commands go down one
        // mailbox, every command's reply comes back up a second one in
        // command order, so the caller finds its own reply behind those
        // of the casts it pipelined first.
        let (cmd_tx, cmd_rx) = mailbox::<u32>();
        let (reply_tx, reply_rx) = mailbox::<u32>();
        let served = Arc::new(AtomicUsize::new(0));
        let tally = served.clone();
        let worker = loom::thread::spawn(move || {
            while let Ok(q) = cmd_rx.recv() {
                tally.fetch_add(1, Ordering::SeqCst);
                reply_tx.send(q + 1).unwrap();
            }
        });
        // Two casts, then the call.
        for q in [1, 2, 41] {
            cmd_tx.send(q).unwrap();
        }
        let flushed: Vec<u32> = (0..2).map(|_| reply_rx.recv().unwrap()).collect();
        let answer = reply_rx.recv().unwrap();
        drop(cmd_tx);
        worker.join().unwrap();
        assert_eq!(flushed, vec![2, 3], "earlier casts are flushed first");
        assert_eq!(answer, 42, "the call gets its own reply");
        assert_eq!(served.load(Ordering::SeqCst), 3);
        assert!(reply_rx.try_recv().is_err(), "one reply per command");
    });
}
