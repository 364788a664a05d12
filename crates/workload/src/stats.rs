//! Trace summaries (the statistics §6.3 reports per workload).

use std::fmt;

use crate::trace::Trace;

/// Headline statistics of a disk-level trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Number of disk requests.
    pub requests: usize,
    /// Distinct blocks touched.
    pub distinct_blocks: u64,
    /// Footprint (one past the highest block), in blocks.
    pub footprint_blocks: u64,
    /// Footprint in bytes.
    pub footprint_bytes: u64,
    /// Mean request size in KBytes.
    pub mean_request_kb: f64,
    /// Write fraction.
    pub write_fraction: f64,
    /// Accesses to the single most-accessed block (the paper reports
    /// 88 / 78 / 90 for its Web / proxy / file traces).
    pub max_block_accesses: u32,
}

/// Summarizes `trace` given the block size in bytes.
///
/// # Example
///
/// ```
/// use forhdc_workload::{stats::summarize, SyntheticWorkload};
///
/// let wl = SyntheticWorkload::builder().requests(100).files(500).seed(1).build();
/// let s = summarize(&wl.trace, 4096);
/// assert_eq!(s.requests, wl.trace.len());
/// assert!(s.max_block_accesses >= 1);
/// ```
pub fn summarize(trace: &Trace, block_bytes: u32) -> TraceSummary {
    let counts = trace.block_access_counts();
    TraceSummary {
        requests: trace.len(),
        distinct_blocks: counts.distinct(),
        footprint_blocks: trace.footprint_blocks(),
        footprint_bytes: trace.footprint_blocks() * block_bytes as u64,
        mean_request_kb: trace.mean_request_blocks() * block_bytes as f64 / 1024.0,
        write_fraction: trace.write_fraction(),
        max_block_accesses: counts.max(),
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests, {:.2} GB footprint, {:.1} KB mean request, {:.0}% writes, hottest block {}x",
            self.requests,
            self.footprint_bytes as f64 / 1e9,
            self.mean_request_kb,
            self.write_fraction * 100.0,
            self.max_block_accesses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRequest;
    use forhdc_sim::{LogicalBlock, ReadWrite};

    #[test]
    fn summary_of_small_trace() {
        let t = Trace::new(vec![
            TraceRequest {
                start: LogicalBlock::new(0),
                nblocks: 2,
                kind: ReadWrite::Read,
            },
            TraceRequest {
                start: LogicalBlock::new(1),
                nblocks: 2,
                kind: ReadWrite::Write,
            },
        ]);
        let s = summarize(&t, 4096);
        assert_eq!(s.requests, 2);
        assert_eq!(s.distinct_blocks, 3);
        assert_eq!(s.footprint_blocks, 3);
        assert_eq!(s.footprint_bytes, 3 * 4096);
        assert!((s.mean_request_kb - 8.0).abs() < 1e-9);
        assert!((s.write_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.max_block_accesses, 2);
    }

    #[test]
    fn summary_of_empty_trace() {
        let s = summarize(&Trace::default(), 4096);
        assert_eq!(s.requests, 0);
        assert_eq!(s.max_block_accesses, 0);
        assert_eq!(s.distinct_blocks, 0);
    }

    #[test]
    fn display_mentions_requests() {
        let s = summarize(&Trace::default(), 4096);
        assert!(s.to_string().contains("0 requests"));
    }
}
