//! Per-disk and array-wide mechanical statistics.

use std::fmt;

use crate::time::SimDuration;

/// Counters for one disk's mechanical activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Media operations performed (each one seek+rotation+transfer).
    pub media_ops: u64,
    /// Blocks read from the media, including read-ahead blocks.
    pub blocks_read: u64,
    /// Blocks written to the media.
    pub blocks_written: u64,
    /// Of `blocks_read`, how many were speculative read-ahead.
    pub read_ahead_blocks: u64,
    /// Total time spent seeking.
    pub seek_time: SimDuration,
    /// Total rotational latency.
    pub rotation_time: SimDuration,
    /// Total media transfer time.
    pub transfer_time: SimDuration,
    /// Total controller overhead time.
    pub overhead_time: SimDuration,
    /// Total time the disk arm was busy (sum of service times).
    pub busy_time: SimDuration,
    /// Maximum queue depth observed.
    pub max_queue_depth: usize,
}

impl DiskStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        DiskStats::default()
    }

    /// Records one media operation's timing breakdown.
    pub fn record_op(
        &mut self,
        timing: &crate::mechanics::ServiceTiming,
        read_blocks: u64,
        written_blocks: u64,
        read_ahead: u64,
    ) {
        self.media_ops += 1;
        self.blocks_read += read_blocks;
        self.blocks_written += written_blocks;
        self.read_ahead_blocks += read_ahead;
        self.seek_time += timing.seek;
        self.rotation_time += timing.rotation;
        self.transfer_time += timing.transfer;
        self.overhead_time += timing.overhead;
        self.busy_time += timing.total();
    }

    /// Notes the queue depth after a push, tracking the maximum.
    pub fn note_queue_depth(&mut self, depth: usize) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }

    /// Disk utilization over `elapsed` wall-clock simulated time.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        (self.busy_time.as_nanos() as f64 / elapsed.as_nanos() as f64).min(1.0)
    }

    /// Mean service time per media operation.
    pub fn mean_service_time(&self) -> SimDuration {
        if self.media_ops == 0 {
            SimDuration::ZERO
        } else {
            self.busy_time / self.media_ops
        }
    }

    /// Merges another disk's counters into this one (array aggregation).
    pub fn merge(&mut self, other: &DiskStats) {
        self.media_ops += other.media_ops;
        self.blocks_read += other.blocks_read;
        self.blocks_written += other.blocks_written;
        self.read_ahead_blocks += other.read_ahead_blocks;
        self.seek_time += other.seek_time;
        self.rotation_time += other.rotation_time;
        self.transfer_time += other.transfer_time;
        self.overhead_time += other.overhead_time;
        self.busy_time += other.busy_time;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

impl fmt::Display for DiskStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops, {} read ({} RA), {} written, busy {} \
             (seek {}, rot {}, xfer {}), mean svc {}, max qdepth {}",
            self.media_ops,
            self.blocks_read,
            self.read_ahead_blocks,
            self.blocks_written,
            self.busy_time,
            self.seek_time,
            self.rotation_time,
            self.transfer_time,
            self.mean_service_time(),
            self.max_queue_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanics::ServiceTiming;

    fn timing(ms: u64) -> ServiceTiming {
        ServiceTiming {
            seek: SimDuration::from_millis(ms),
            rotation: SimDuration::from_millis(1),
            transfer: SimDuration::from_millis(2),
            overhead: SimDuration::ZERO,
        }
    }

    #[test]
    fn record_accumulates() {
        let mut s = DiskStats::new();
        s.record_op(&timing(3), 8, 0, 4);
        s.record_op(&timing(1), 0, 2, 0);
        assert_eq!(s.media_ops, 2);
        assert_eq!(s.blocks_read, 8);
        assert_eq!(s.blocks_written, 2);
        assert_eq!(s.read_ahead_blocks, 4);
        assert_eq!(s.busy_time, SimDuration::from_millis(3 + 1 + 2 + 1 + 1 + 2));
    }

    #[test]
    fn utilization_and_mean() {
        let mut s = DiskStats::new();
        s.record_op(&timing(3), 1, 0, 0); // 6 ms busy
        assert!((s.utilization(SimDuration::from_millis(12)) - 0.5).abs() < 1e-9);
        assert_eq!(s.mean_service_time(), SimDuration::from_millis(6));
        assert_eq!(DiskStats::new().mean_service_time(), SimDuration::ZERO);
        assert_eq!(DiskStats::new().utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = DiskStats::new();
        a.record_op(&timing(1), 1, 0, 0);
        a.note_queue_depth(3);
        let mut b = DiskStats::new();
        b.record_op(&timing(2), 2, 1, 1);
        b.note_queue_depth(7);
        b.note_queue_depth(0);
        a.merge(&b);
        assert_eq!(a.media_ops, 2);
        assert_eq!(a.blocks_read, 3);
        assert_eq!(a.max_queue_depth, 7);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!DiskStats::new().to_string().is_empty());
    }
}
