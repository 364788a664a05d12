//! Request coalescing (§2.3 and §6.3).
//!
//! When accesses to consecutive logical blocks arrive close together,
//! the operating system or device driver merges them into one larger
//! disk request. The paper coalesces logged accesses "if the difference
//! in time between the accesses is less than 2 msecs"; across its real
//! workloads this yields an 87 % coalescing probability.

use forhdc_sim::{LogicalBlock, ReadWrite, SimTime};
use forhdc_workload::{Trace, TraceRequest};

/// A timestamped block access, the input to window coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedAccess {
    /// When the access was issued.
    pub at: SimTime,
    /// The block accessed.
    pub block: LogicalBlock,
    /// Read or write.
    pub kind: ReadWrite,
}

/// Merges a time-ordered access log into disk requests: an access is
/// appended to the pending request when it continues it (next
/// consecutive block, same kind) and arrived within `window` of the
/// previous access; otherwise the pending request is emitted and a new
/// one starts.
///
/// # Example
///
/// ```
/// use forhdc_host::coalesce::{coalesce_window, TimedAccess};
/// use forhdc_sim::{LogicalBlock, ReadWrite, SimDuration, SimTime};
///
/// let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
/// let acc = |us, blk| TimedAccess { at: t(us), block: LogicalBlock::new(blk), kind: ReadWrite::Read };
/// let log = vec![acc(0, 10), acc(500, 11), acc(10_000, 12)];
/// let trace = coalesce_window(&log, SimDuration::from_millis(2));
/// // 10 and 11 merge (0.5 ms apart); 12 is 9.5 ms later.
/// assert_eq!(trace.len(), 2);
/// ```
///
/// # Panics
///
/// Panics if the log is not sorted by time.
pub fn coalesce_window(log: &[TimedAccess], window: forhdc_sim::SimDuration) -> Trace {
    let mut out: Vec<TraceRequest> = Vec::new();
    let mut pending: Option<(TraceRequest, SimTime)> = None;
    for acc in log {
        if let Some((req, last_at)) = pending.as_mut() {
            assert!(acc.at >= *last_at, "coalescing input must be time-ordered");
            let contiguous = acc.block == req.start.offset(req.nblocks as u64);
            let close = acc.at.since(*last_at) <= window;
            if contiguous && close && acc.kind == req.kind {
                req.nblocks += 1;
                *last_at = acc.at;
                continue;
            }
            out.push(*req);
        }
        pending = Some((
            TraceRequest {
                start: acc.block,
                nblocks: 1,
                kind: acc.kind,
            },
            acc.at,
        ));
    }
    if let Some((req, _)) = pending {
        out.push(req);
    }
    Trace::new(out)
}

/// The fraction of block-boundary opportunities that actually coalesced
/// in `trace` relative to its `raw_accesses` input size — the paper's
/// "coalescing probability" statistic (87 % across its workloads).
///
/// Returns 0 when there were no opportunities.
pub fn coalescing_probability(raw_accesses: usize, trace: &Trace) -> f64 {
    if raw_accesses <= 1 {
        return 0.0;
    }
    let merges = raw_accesses.saturating_sub(trace.len());
    let opportunities = raw_accesses - 1;
    merges as f64 / opportunities as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_sim::SimDuration;

    fn acc(us: u64, blk: u64, kind: ReadWrite) -> TimedAccess {
        TimedAccess {
            at: SimTime::ZERO + SimDuration::from_micros(us),
            block: LogicalBlock::new(blk),
            kind,
        }
    }

    #[test]
    fn merges_consecutive_within_window() {
        let log = vec![
            acc(0, 0, ReadWrite::Read),
            acc(100, 1, ReadWrite::Read),
            acc(200, 2, ReadWrite::Read),
        ];
        let t = coalesce_window(&log, SimDuration::from_millis(2));
        assert_eq!(t.len(), 1);
        assert_eq!({ t.requests()[0].nblocks }, 3);
    }

    #[test]
    fn window_expiry_splits() {
        let log = vec![acc(0, 0, ReadWrite::Read), acc(3_000, 1, ReadWrite::Read)];
        let t = coalesce_window(&log, SimDuration::from_millis(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn non_contiguous_splits() {
        let log = vec![acc(0, 0, ReadWrite::Read), acc(100, 5, ReadWrite::Read)];
        let t = coalesce_window(&log, SimDuration::from_millis(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn kind_change_splits() {
        let log = vec![acc(0, 0, ReadWrite::Read), acc(100, 1, ReadWrite::Write)];
        let t = coalesce_window(&log, SimDuration::from_millis(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_log() {
        let t = coalesce_window(&[], SimDuration::from_millis(2));
        assert!(t.is_empty());
    }

    #[test]
    fn probability_statistic() {
        let log: Vec<TimedAccess> = (0..100).map(|i| acc(i * 100, i, ReadWrite::Read)).collect();
        let t = coalesce_window(&log, SimDuration::from_millis(2));
        assert_eq!(t.len(), 1);
        assert!((coalescing_probability(100, &t) - 1.0).abs() < 1e-12);
        assert_eq!(coalescing_probability(1, &t), 0.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unsorted_input_panics() {
        let log = vec![acc(100, 0, ReadWrite::Read), acc(0, 1, ReadWrite::Read)];
        let _ = coalesce_window(&log, SimDuration::from_millis(2));
    }
}
