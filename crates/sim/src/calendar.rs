//! A laned event calendar: per-lane FIFO queues plus a fallback heap,
//! popping in exactly the order of [`crate::engine::EventQueue`].
//!
//! The full-system simulation schedules almost every event into a
//! stream whose firing times are non-decreasing on their own: each
//! disk has at most one media completion outstanding, bus grants end
//! in reservation order, and the periodic flush/sample ticks march
//! forward. A binary heap pays `O(log n)` sift churn to rediscover
//! that structure on every operation; the calendar instead gives each
//! such stream its own *lane* — an append-only FIFO — and keeps a
//! struct-of-arrays table of lane head keys so a pop is one linear
//! scan over a handful of `(time, seq)` pairs. Events that do not fit
//! any lane (fault retries, recovery wake-ups), or that would violate
//! a lane's monotonicity (a failure completing out of order), fall
//! back to a small binary heap that participates in the same scan.
//!
//! Determinism is preserved *by construction*, not by convention: a
//! global sequence number is assigned at schedule time exactly as the
//! heap-based queue does, and the pop picks the minimum `(time, seq)`
//! over all lane heads and the heap top. Within a lane both time and
//! sequence are non-decreasing, so the head is the lane's minimum and
//! the scan finds the global one — the pop order is bit-for-bit the
//! heap's order for any assignment of events to lanes (property-tested
//! against [`crate::engine::EventQueue`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::engine::Fired;
use crate::time::SimTime;

/// Lane-head key: time in nanoseconds in the high 64 bits, sequence
/// number in the low 64 — one branchless `u128` compare orders by
/// `(time, seq)`. `EMPTY` is greater than any real key so empty lanes
/// lose every comparison.
const EMPTY: u128 = u128::MAX;

#[inline]
const fn key_of(time_ns: u64, seq: u64) -> u128 {
    ((time_ns as u128) << 64) | seq as u128
}

#[inline]
const fn time_of(key: u128) -> u64 {
    (key >> 64) as u64
}

#[derive(Debug)]
struct HeapEntry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic future-event calendar with per-lane FIFO fast
/// paths. Drop-in replacement for [`crate::engine::EventQueue`] where
/// the caller can name a monotonic stream for most events.
///
/// # Example
///
/// ```
/// use forhdc_sim::calendar::LaneCalendar;
/// use forhdc_sim::SimTime;
///
/// let mut c = LaneCalendar::with_lanes(2);
/// c.schedule_lane(0, SimTime::from_nanos(20), "disk0");
/// c.schedule_lane(1, SimTime::from_nanos(10), "disk1");
/// c.schedule(SimTime::from_nanos(15), "retry");
/// assert_eq!(c.pop().unwrap().event, "disk1");
/// assert_eq!(c.pop().unwrap().event, "retry");
/// assert_eq!(c.pop().unwrap().event, "disk0");
/// assert!(c.pop().is_none());
/// ```
#[derive(Debug)]
pub struct LaneCalendar<E> {
    /// `heads[l]` mirrors the key of lane `l`'s front entry; the last
    /// slot mirrors the heap top. Kept densely packed so a pop is one
    /// linear scan of a few cache lines, not a pointer chase.
    heads: Vec<u128>,
    /// Struct-of-arrays lane storage: `slots[l]` holds the head entry
    /// in place. Most lanes never hold more than one pending event (a
    /// disk has one media completion in flight, the periodic ticks
    /// re-arm themselves), so the common case touches no ring buffer;
    /// a lane that genuinely queues spills into `overflow[l]`.
    slots: Vec<Option<(u128, E)>>,
    overflow: Vec<VecDeque<(u128, E)>>,
    heap: BinaryHeap<Reverse<HeapEntry<E>>>,
    seq: u64,
    now: SimTime,
    len: usize,
}

impl<E> LaneCalendar<E> {
    /// Creates an empty calendar with `lanes` FIFO lanes (and the
    /// implicit fallback heap), clock at [`SimTime::ZERO`].
    pub fn with_lanes(lanes: usize) -> Self {
        LaneCalendar {
            heads: vec![EMPTY; lanes + 1],
            slots: (0..lanes).map(|_| None).collect(),
            overflow: (0..lanes).map(|_| VecDeque::new()).collect(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            // lane entries + heap entries together
            len: 0,
        }
    }

    /// Number of FIFO lanes (the fallback heap is not a lane).
    pub fn lanes(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn heap_slot(&self) -> usize {
        self.heads.len() - 1
    }

    fn assert_future(&self, time: SimTime) {
        assert!(
            time >= self.now,
            "scheduled event in the past: {time} < now {}",
            self.now
        );
    }

    #[inline]
    fn push_heap(&mut self, key: u128, event: E) {
        self.heap.push(Reverse(HeapEntry { key, event }));
        let slot = self.heap_slot();
        if key < self.heads[slot] {
            self.heads[slot] = key;
        }
    }

    /// Schedules `event` at `time` with no lane affinity (fallback
    /// heap). Exactly [`crate::engine::EventQueue::schedule`].
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.assert_future(time);
        let key = key_of(time.as_nanos(), self.seq);
        self.seq += 1;
        self.len += 1;
        self.push_heap(key, event);
    }

    /// Schedules `event` at `time` on `lane`. If `time` would fire
    /// before the lane's current tail the event silently falls back to
    /// the heap — the pop order is identical either way, the lane is
    /// purely a fast path.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock, or `lane`
    /// is out of range.
    pub fn schedule_lane(&mut self, lane: usize, time: SimTime, event: E) {
        self.assert_future(time);
        let key = key_of(time.as_nanos(), self.seq);
        self.seq += 1;
        self.len += 1;
        match &self.slots[lane] {
            None => {
                debug_assert!(self.overflow[lane].is_empty());
                self.slots[lane] = Some((key, event));
                self.heads[lane] = key;
            }
            Some(_) => {
                // Monotone within the lane? The tail is the overflow
                // back, else the slot itself.
                let tail = self.overflow[lane]
                    .back()
                    .map_or_else(|| self.slots[lane].as_ref().expect("occupied").0, |t| t.0);
                if key < tail {
                    self.push_heap(key, event);
                } else {
                    self.overflow[lane].push_back((key, event));
                }
            }
        }
    }

    /// Index of the pending minimum in `heads`, or `None` when empty.
    #[inline]
    fn argmin(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut best = 0;
        let mut best_key = self.heads[0];
        for (i, &key) in self.heads.iter().enumerate().skip(1) {
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        Some(best)
    }

    /// Removes and returns the earliest event, advancing the clock to
    /// its firing time. Bit-for-bit the order of
    /// [`crate::engine::EventQueue::pop`].
    pub fn pop(&mut self) -> Option<Fired<E>> {
        let slot = self.argmin()?;
        self.len -= 1;
        let (key, event) = if slot == self.heap_slot() {
            let Reverse(entry) = self.heap.pop().expect("head mirrors a heap entry");
            self.heads[slot] = self.heap.peek().map_or(EMPTY, |Reverse(e)| e.key);
            (entry.key, entry.event)
        } else {
            let (key, event) = self.slots[slot].take().expect("head mirrors an entry");
            match self.overflow[slot].pop_front() {
                Some(next) => {
                    self.heads[slot] = next.0;
                    self.slots[slot] = Some(next);
                }
                None => self.heads[slot] = EMPTY,
            }
            (key, event)
        };
        self.now = SimTime::from_nanos(time_of(key));
        Some(Fired {
            time: self.now,
            event,
        })
    }

    /// The current simulated time: the firing time of the most
    /// recently popped event, or [`SimTime::ZERO`] before any pop.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_across_lanes_and_heap() {
        let mut c = LaneCalendar::with_lanes(2);
        c.schedule_lane(0, SimTime::from_nanos(30), 3);
        c.schedule_lane(1, SimTime::from_nanos(10), 1);
        c.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| c.pop().map(|f| f.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_schedule_order_regardless_of_lane() {
        let mut c = LaneCalendar::with_lanes(3);
        for i in 0..99 {
            match i % 4 {
                0 => c.schedule_lane(0, SimTime::from_nanos(5), i),
                1 => c.schedule_lane(1, SimTime::from_nanos(5), i),
                2 => c.schedule_lane(2, SimTime::from_nanos(5), i),
                _ => c.schedule(SimTime::from_nanos(5), i),
            }
        }
        let order: Vec<i32> = std::iter::from_fn(|| c.pop().map(|f| f.event)).collect();
        assert_eq!(order, (0..99).collect::<Vec<_>>());
    }

    #[test]
    fn non_monotonic_lane_push_falls_back_to_heap() {
        let mut c = LaneCalendar::with_lanes(1);
        c.schedule_lane(0, SimTime::from_nanos(50), "tail");
        // Earlier than the lane tail: must not be appended after it.
        c.schedule_lane(0, SimTime::from_nanos(10), "early");
        assert_eq!(c.len(), 2);
        assert_eq!(c.pop().unwrap().event, "early");
        assert_eq!(c.pop().unwrap().event, "tail");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut c = LaneCalendar::with_lanes(1);
        assert_eq!(c.now(), SimTime::ZERO);
        c.schedule_lane(0, SimTime::from_nanos(7), ());
        c.pop();
        assert_eq!(c.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut c = LaneCalendar::with_lanes(1);
        c.schedule_lane(0, SimTime::from_nanos(10), ());
        c.pop();
        c.schedule_lane(0, SimTime::from_nanos(5), ());
    }
}
