//! Per-disk request schedulers.
//!
//! Each disk controller keeps a queue of pending media operations. The
//! paper's controllers use the LOOK (elevator) algorithm; FCFS, SSTF and
//! C-LOOK are provided for scheduling ablations.

use std::collections::VecDeque;

use crate::config::SchedulerKind;
use crate::request::{PhysBlock, ReadWrite};
use crate::time::SimTime;

/// A media operation waiting in a disk queue.
///
/// `token` is an opaque caller-owned identifier (the system simulation
/// uses it to find the sub-request the operation belongs to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedOp {
    /// Caller-owned identifier.
    pub token: u64,
    /// First physical block requested (before read-ahead extension).
    pub start: PhysBlock,
    /// Number of blocks to service (read-ahead extension included).
    pub nblocks: u32,
    /// The demanded prefix of `nblocks` — what the host asked for
    /// before any read-ahead extension. Carried in the op itself so the
    /// issuer needs no side table keyed by token.
    pub requested: u32,
    /// Read or write.
    pub kind: ReadWrite,
    /// Target cylinder (precomputed by the caller from the geometry).
    pub cylinder: u32,
    /// When the op entered the queue (queue-wait measurement).
    pub queued_at: SimTime,
    /// Service attempt, 0 for the first try. Fault-recovery requeues
    /// bump it; the fault-free path never reads it.
    pub attempt: u32,
}

/// A disk-queue scheduling discipline, statically dispatched.
///
/// Every discipline eventually serves every pushed operation (no
/// starvation under a finite arrival stream). The event loop pushes
/// and pops a queue entry for every media operation; the inner enum's match
/// compiles to a predictable branch on a discipline that never changes
/// at runtime, and lets `push`/`pop_next` inline into the caller.
///
/// # Example
///
/// ```
/// use forhdc_sim::config::SchedulerKind;
/// use forhdc_sim::sched::Scheduler;
///
/// let s = Scheduler::new(SchedulerKind::Look);
/// assert!(s.is_empty());
/// assert_eq!(s.kind(), SchedulerKind::Look);
/// ```
#[derive(Debug)]
pub struct Scheduler(Queue);

/// The discipline behind a [`Scheduler`].
#[derive(Debug)]
enum Queue {
    /// LOOK (elevator) — the paper's discipline.
    Look(LookScheduler),
    /// First-come first-served.
    Fcfs(FcfsScheduler),
    /// Shortest seek time first.
    Sstf(SstfScheduler),
    /// Circular LOOK.
    Clook(ClookScheduler),
}

impl Scheduler {
    /// Creates a scheduler of the requested kind.
    pub fn new(kind: SchedulerKind) -> Self {
        Scheduler(match kind {
            SchedulerKind::Look => Queue::Look(LookScheduler::new()),
            SchedulerKind::Fcfs => Queue::Fcfs(FcfsScheduler::new()),
            SchedulerKind::Sstf => Queue::Sstf(SstfScheduler::new()),
            SchedulerKind::Clook => Queue::Clook(ClookScheduler::new()),
        })
    }

    /// Adds an operation to the queue.
    #[inline]
    pub fn push(&mut self, op: QueuedOp) {
        match &mut self.0 {
            Queue::Look(s) => s.push(op),
            Queue::Fcfs(s) => s.push(op),
            Queue::Sstf(s) => s.push(op),
            Queue::Clook(s) => s.push(op),
        }
    }

    /// Removes and returns the next operation to service.
    #[inline]
    pub fn pop_next(&mut self, head_cylinder: u32) -> Option<QueuedOp> {
        match &mut self.0 {
            Queue::Look(s) => s.pop_next(head_cylinder),
            Queue::Fcfs(s) => s.pop_next(head_cylinder),
            Queue::Sstf(s) => s.pop_next(head_cylinder),
            Queue::Clook(s) => s.pop_next(head_cylinder),
        }
    }

    /// Number of queued operations.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Queue::Look(s) => s.len(),
            Queue::Fcfs(s) => s.len(),
            Queue::Sstf(s) => s.len(),
            Queue::Clook(s) => s.len(),
        }
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The discipline's kind tag.
    pub fn kind(&self) -> SchedulerKind {
        match self.0 {
            Queue::Look(_) => SchedulerKind::Look,
            Queue::Fcfs(_) => SchedulerKind::Fcfs,
            Queue::Sstf(_) => SchedulerKind::Sstf,
            Queue::Clook(_) => SchedulerKind::Clook,
        }
    }
}

/// LOOK (elevator) scheduling: sweep in the current direction serving
/// every queued cylinder, reverse when nothing remains ahead.
///
/// The queue is a sorted `(cylinder, slot)` index over a free-listed
/// slab of ops — equivalent to the former `BTreeMap` keyed by
/// `(cylinder, seq)` but allocation-free at the depths disk queues
/// actually reach. Only the 8-byte index entries shift on the sorted
/// insert/remove; the 48-byte ops stay put in their slots, which at
/// queue depths of a hundred-plus streams is most of the memory
/// traffic this structure used to generate.
#[derive(Debug, Default)]
pub(crate) struct LookScheduler {
    /// `(cylinder, slot)` sorted by cylinder, same-cylinder ties in
    /// arrival order.
    index: Vec<(u32, u32)>,
    slab: Vec<QueuedOp>,
    free: Vec<u32>,
    sweeping_up: bool,
}

impl LookScheduler {
    /// Creates an empty LOOK queue sweeping upward.
    pub(crate) fn new() -> Self {
        LookScheduler {
            index: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            sweeping_up: true,
        }
    }

    /// Removes index entry `i` and returns its op, recycling the slot.
    fn take(&mut self, i: usize) -> QueuedOp {
        let (_, slot) = self.index.remove(i);
        self.free.push(slot);
        self.slab[slot as usize]
    }

    /// Adds an operation to the queue.
    pub(crate) fn push(&mut self, op: QueuedOp) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = op;
                s
            }
            None => {
                self.slab.push(op);
                (self.slab.len() - 1) as u32
            }
        };
        let i = self.index.partition_point(|&(c, _)| c <= op.cylinder);
        self.index.insert(i, (op.cylinder, slot));
    }

    /// Removes and returns the next operation to service, given the
    /// head's current cylinder.
    pub(crate) fn pop_next(&mut self, head_cylinder: u32) -> Option<QueuedOp> {
        if self.index.is_empty() {
            return None;
        }
        if self.sweeping_up {
            let i = self.index.partition_point(|&(c, _)| c < head_cylinder);
            if i < self.index.len() {
                return Some(self.take(i));
            }
            self.sweeping_up = false;
        }
        // Sweeping down: the highest queued cylinder at or below the
        // head (most recent arrival on ties); if none, reverse again.
        let i = self.index.partition_point(|&(c, _)| c <= head_cylinder);
        if i > 0 {
            return Some(self.take(i - 1));
        }
        self.sweeping_up = true;
        let i = self.index.partition_point(|&(c, _)| c < head_cylinder);
        if i < self.index.len() {
            Some(self.take(i))
        } else {
            None
        }
    }

    /// Number of queued operations.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }
}

/// First-come first-served scheduling.
#[derive(Debug, Default)]
pub(crate) struct FcfsScheduler {
    queue: VecDeque<QueuedOp>,
}

impl FcfsScheduler {
    /// Creates an empty FCFS queue.
    pub(crate) fn new() -> Self {
        FcfsScheduler {
            queue: VecDeque::new(),
        }
    }

    /// Adds an operation to the queue.
    pub(crate) fn push(&mut self, op: QueuedOp) {
        self.queue.push_back(op);
    }

    /// Removes and returns the next operation to service, given the
    /// head's current cylinder.
    pub(crate) fn pop_next(&mut self, _head_cylinder: u32) -> Option<QueuedOp> {
        self.queue.pop_front()
    }

    /// Number of queued operations.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }
}

/// Shortest-seek-time-first scheduling (greedy nearest cylinder; can
/// starve under sustained load, which is why it is ablation-only).
#[derive(Debug, Default)]
pub(crate) struct SstfScheduler {
    queue: Vec<QueuedOp>,
}

impl SstfScheduler {
    /// Creates an empty SSTF queue.
    pub(crate) fn new() -> Self {
        SstfScheduler { queue: Vec::new() }
    }

    /// Adds an operation to the queue.
    pub(crate) fn push(&mut self, op: QueuedOp) {
        self.queue.push(op);
    }

    /// Removes and returns the next operation to service, given the
    /// head's current cylinder.
    pub(crate) fn pop_next(&mut self, head_cylinder: u32) -> Option<QueuedOp> {
        if self.queue.is_empty() {
            return None;
        }
        let (idx, _) = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(i, op)| (op.cylinder.abs_diff(head_cylinder), *i))
            .expect("non-empty queue");
        Some(self.queue.swap_remove(idx))
    }

    /// Number of queued operations.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }
}

/// Circular LOOK: always sweep upward; when nothing remains ahead, jump
/// back to the lowest queued cylinder.
#[derive(Debug, Default)]
pub(crate) struct ClookScheduler {
    queue: Vec<QueuedOp>, // sorted by cylinder, arrival order on ties
}

impl ClookScheduler {
    /// Creates an empty C-LOOK queue.
    pub(crate) fn new() -> Self {
        ClookScheduler { queue: Vec::new() }
    }

    /// Adds an operation to the queue.
    pub(crate) fn push(&mut self, op: QueuedOp) {
        let i = self.queue.partition_point(|o| o.cylinder <= op.cylinder);
        self.queue.insert(i, op);
    }

    /// Removes and returns the next operation to service, given the
    /// head's current cylinder.
    pub(crate) fn pop_next(&mut self, head_cylinder: u32) -> Option<QueuedOp> {
        if self.queue.is_empty() {
            return None;
        }
        let i = self.queue.partition_point(|o| o.cylinder < head_cylinder);
        let i = if i < self.queue.len() { i } else { 0 };
        Some(self.queue.remove(i))
    }

    /// Number of queued operations.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(token: u64, cylinder: u32) -> QueuedOp {
        QueuedOp {
            token,
            start: PhysBlock::new(cylinder as u64 * 440),
            nblocks: 1,
            requested: 1,
            kind: ReadWrite::Read,
            cylinder,
            queued_at: SimTime::ZERO,
            attempt: 0,
        }
    }

    fn drain(s: &mut Scheduler, mut head: u32) -> Vec<u32> {
        let mut order = Vec::new();
        while let Some(o) = s.pop_next(head) {
            order.push(o.cylinder);
            head = o.cylinder;
        }
        order
    }

    #[test]
    fn look_sweeps_up_then_down() {
        let mut s = Scheduler::new(SchedulerKind::Look);
        for &c in &[50, 10, 80, 30, 60] {
            s.push(op(c as u64, c));
        }
        // Head at 40, sweeping up: 50, 60, 80, then down: 30, 10.
        assert_eq!(drain(&mut s, 40), vec![50, 60, 80, 30, 10]);
    }

    #[test]
    fn look_reverses_twice_if_needed() {
        let mut s = Scheduler::new(SchedulerKind::Look);
        s.push(op(1, 10));
        assert_eq!(s.pop_next(40).unwrap().cylinder, 10); // nothing above 40
        s.push(op(2, 90));
        // Now sweeping down from 10; nothing below, so reverse to 90.
        assert_eq!(s.pop_next(10).unwrap().cylinder, 90);
    }

    #[test]
    fn look_same_cylinder_is_fifo() {
        let mut s = Scheduler::new(SchedulerKind::Look);
        s.push(op(1, 5));
        s.push(op(2, 5));
        assert_eq!(s.pop_next(0).unwrap().token, 1);
        assert_eq!(s.pop_next(5).unwrap().token, 2);
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let mut s = Scheduler::new(SchedulerKind::Fcfs);
        for &c in &[50, 10, 80] {
            s.push(op(c as u64, c));
        }
        assert_eq!(drain(&mut s, 0), vec![50, 10, 80]);
    }

    #[test]
    fn sstf_picks_nearest() {
        let mut s = Scheduler::new(SchedulerKind::Sstf);
        for &c in &[50, 10, 80, 42] {
            s.push(op(c as u64, c));
        }
        // 42 (dist 2), then 50 (8), then 80 (30) beats 10 (40), then 10.
        assert_eq!(drain(&mut s, 40), vec![42, 50, 80, 10]);
    }

    #[test]
    fn clook_wraps_to_bottom() {
        let mut s = Scheduler::new(SchedulerKind::Clook);
        for &c in &[50, 10, 80, 30] {
            s.push(op(c as u64, c));
        }
        // Head at 40: 50, 80, wrap to 10, 30.
        assert_eq!(drain(&mut s, 40), vec![50, 80, 10, 30]);
    }

    #[test]
    fn all_schedulers_serve_everything() {
        for kind in [
            SchedulerKind::Look,
            SchedulerKind::Fcfs,
            SchedulerKind::Sstf,
            SchedulerKind::Clook,
        ] {
            let mut s = Scheduler::new(kind);
            for i in 0..100u64 {
                s.push(op(i, ((i * 37) % 500) as u32));
            }
            assert_eq!(s.len(), 100);
            let served = drain(&mut s, 250);
            assert_eq!(served.len(), 100, "{kind:?} lost requests");
            assert!(s.is_empty());
        }
    }
}
