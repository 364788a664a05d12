//! The discrete-event engine: a time-ordered queue with deterministic
//! tie-breaking.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO), which keeps whole-simulation runs bit-for-bit
//! reproducible regardless of hash-map iteration order elsewhere.
//!
//! The queue is one binary min-heap keyed by a packed `u128`: the firing
//! time in nanoseconds in the high 64 bits and a global schedule
//! sequence number in the low 64, so one integer compare orders two
//! entries by `(time, seq)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event popped from the queue, tagged with its firing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired<E> {
    /// The simulated instant the event fires at.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

#[derive(Debug)]
struct Entry<E> {
    /// `time_ns << 64 | seq`.
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic future-event queue.
///
/// # Example
///
/// ```
/// use forhdc_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// q.schedule(SimTime::from_nanos(10), "early2");
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early2");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock ([`Self::now`]) —
    /// scheduling into the past indicates a simulator bug.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "scheduled event in the past: {time} < now {}",
            self.now
        );
        let key = (time.as_nanos() as u128) << 64 | self.seq as u128;
        self.seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// firing time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Fired<E>> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.time();
        Some(Fired {
            time: self.now,
            event: entry.event,
        })
    }

    /// The current simulated time: the firing time of the most recently
    /// popped event, or [`SimTime::ZERO`] before any pop.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|f| f.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|f| f.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_nanos(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }
}
