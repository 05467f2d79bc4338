//! Deterministic virtual-time scheduling.
//!
//! SCI's experiments run on a logical clock that only advances when the
//! driver says so (every entry point takes the current `VirtualTime`).
//! The [`Scheduler`] is a priority queue of timestamped actions with
//! stable FIFO ordering for equal timestamps; the Context Server's
//! deferred (`when`-timed) queries wait in one.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sci_types::VirtualTime;

struct Scheduled<T> {
    at: VirtualTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the
        // earliest (and, among equals, lowest-seq) item on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic timed action queue.
///
/// Actions scheduled for the same instant pop in scheduling order, so a
/// run is a pure function of the schedule.
///
/// # Example
///
/// ```
/// use sci_event::Scheduler;
/// use sci_types::VirtualTime;
///
/// let mut s = Scheduler::new();
/// s.schedule(VirtualTime::from_secs(2), "late");
/// s.schedule(VirtualTime::from_secs(1), "early");
/// s.schedule(VirtualTime::from_secs(1), "early-second");
///
/// assert_eq!(s.pop(), Some((VirtualTime::from_secs(1), "early")));
/// assert_eq!(s.pop(), Some((VirtualTime::from_secs(1), "early-second")));
/// assert_eq!(s.pop(), Some((VirtualTime::from_secs(2), "late")));
/// assert_eq!(s.pop(), None);
/// ```
#[derive(Default)]
pub struct Scheduler<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
}

impl<T> Scheduler<T> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `item` to fire at `at`.
    pub fn schedule(&mut self, at: VirtualTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, item });
    }

    /// The instant of the next action without removing it.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Removes and returns the earliest action.
    pub fn pop(&mut self) -> Option<(VirtualTime, T)> {
        self.heap.pop().map(|s| (s.at, s.item))
    }

    /// Removes and returns the earliest action only if it is due at or
    /// before `now`.
    pub fn pop_due(&mut self, now: VirtualTime) -> Option<(VirtualTime, T)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending actions.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> std::fmt::Debug for Scheduler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("pending", &self.heap.len())
            .field("next_due", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fifo_for_equal_timestamps() {
        let mut s = Scheduler::new();
        let t = VirtualTime::from_secs(1);
        for i in 0..100 {
            s.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, i)| i)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut s = Scheduler::new();
        s.schedule(VirtualTime::from_secs(5), "later");
        assert!(s.pop_due(VirtualTime::from_secs(4)).is_none());
        assert!(s.pop_due(VirtualTime::from_secs(5)).is_some());
        assert!(s.is_empty());
    }
}
