//! The laned-calendar interface over the one event queue: a
//! [`LaneCalendar`] is an [`EventQueue`], and the lane a caller names
//! for an event is accepted and ignored. Pop order is `(time, seq)`
//! whatever the lanes, so a laned schedule replays exactly. DESIGN.md
//! §6.16 measures the heap against the per-lane FIFOs it replaced.

use crate::engine::EventQueue;
use crate::time::SimTime;

/// The one [`EventQueue`], under the name laned callers use.
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
pub type LaneCalendar<E> = EventQueue<E>;

impl<E> EventQueue<E> {
    /// An empty queue; `lanes` is ignored (see the module docs).
    pub fn with_lanes(_lanes: usize) -> Self {
        EventQueue::new()
    }

    /// [`EventQueue::schedule`]: `lane` is ignored, so events on any
    /// lanes, in any time order, pop by `(time, seq)`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock.
    pub fn schedule_lane(&mut self, _lane: usize, time: SimTime, event: E) {
        self.schedule(time, event);
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
