//! Disk-level access traces.
//!
//! A [`Trace`] is the stream of logical-block requests that reaches the
//! disk array — what remains *after* the application and file-system
//! buffer caches (the paper instruments Linux 2.4.18 to log exactly
//! this). Requests are replayed by the closed-loop stream driver "as
//! fast as possible" to find the maximum throughput.

use std::sync::Arc;

use forhdc_layout::FileMap;
use forhdc_sim::{LogicalBlock, ReadWrite};

use crate::counts::BlockCounts;

/// One logged disk access: a contiguous logical extent, read or written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// First logical block.
    pub start: LogicalBlock,
    /// Extent length in blocks.
    pub nblocks: u32,
    /// Read or write.
    pub kind: ReadWrite,
}

/// An ordered disk-access log, optionally grouped into *jobs*.
///
/// A job is the request sequence of one server-level operation (e.g.
/// all the disk requests of one whole-file read). The stream driver
/// issues a job's requests sequentially on one stream — a server
/// worker handles one file at a time — while different jobs run
/// concurrently across streams.
///
/// The requests and job lengths are shared, not owned: `clone` is O(1)
/// and copies no request, so every replay of one workload reads the
/// same buffer. [`Extend`] copies on write when the buffer is shared.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    requests: Arc<Vec<TraceRequest>>,
    /// Length of each job; empty means every request is its own job.
    job_lens: Arc<Vec<u32>>,
}

impl Trace {
    /// Creates a trace where every request is an independent job.
    /// Spare capacity in `requests` is released in place.
    pub fn new(mut requests: Vec<TraceRequest>) -> Self {
        requests.shrink_to_fit();
        Trace {
            requests: Arc::new(requests),
            job_lens: Arc::default(),
        }
    }

    /// Creates a trace with explicit job grouping. Spare capacity in
    /// either vector is released in place.
    ///
    /// # Panics
    ///
    /// Panics if the job lengths do not sum to the request count or any
    /// job is empty.
    pub fn with_jobs(requests: Vec<TraceRequest>, mut job_lens: Vec<u32>) -> Self {
        let total: u64 = job_lens.iter().map(|&l| l as u64).sum();
        assert_eq!(
            total,
            requests.len() as u64,
            "job lengths must cover the requests"
        );
        assert!(job_lens.iter().all(|&l| l > 0), "jobs must be non-empty");
        if job_lens.iter().all(|&l| l == 1) {
            // Every request its own job: the default needs no lengths.
            return Trace::new(requests);
        }
        job_lens.shrink_to_fit();
        Trace {
            job_lens: Arc::new(job_lens),
            ..Trace::new(requests)
        }
    }

    /// Number of jobs.
    pub fn job_count(&self) -> usize {
        if self.job_lens.is_empty() {
            self.requests.len()
        } else {
            self.job_lens.len()
        }
    }

    /// Iterates over the jobs as request slices.
    pub fn jobs(&self) -> impl Iterator<Item = &[TraceRequest]> + '_ {
        JobIter {
            trace: self,
            req_idx: 0,
            job_idx: 0,
        }
    }

    /// The logged requests, in arrival order.
    pub fn requests(&self) -> &[TraceRequest] {
        &self.requests
    }

    /// Per-job request counts; an empty slice means every request is
    /// its own job. Lets replay drivers index jobs as ranges over
    /// [`Trace::requests`] instead of materializing per-job queues.
    pub fn job_lens(&self) -> &[u32] {
        &self.job_lens
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total blocks accessed (with repetition).
    pub fn total_blocks(&self) -> u64 {
        self.requests.iter().map(|r| r.nblocks as u64).sum()
    }

    /// Fraction of requests that are writes.
    pub fn write_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().filter(|r| r.kind.is_write()).count() as f64
            / self.requests.len() as f64
    }

    /// Mean request size in blocks.
    pub fn mean_request_blocks(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.total_blocks() as f64 / self.requests.len() as f64
    }

    /// One-past-the-highest logical block touched (0 for an empty trace).
    pub fn footprint_blocks(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.start.index() + r.nblocks as u64)
            .max()
            .unwrap_or(0)
    }

    /// Per-block access counts over the whole trace, up to the
    /// footprint. This is the raw data of Figure 2 and the input to the
    /// HDC planner ("the blocks that cause the most misses in the
    /// buffer cache").
    pub fn block_access_counts(&self) -> BlockCounts {
        let mut counts = BlockCounts::with_footprint(self.footprint_blocks());
        for r in self.requests.iter() {
            counts.add(r);
        }
        counts
    }

    /// Access counts of the `top` most-accessed blocks, descending —
    /// the Figure 2 curve. Blocks of the footprint the trace never
    /// touched rank last, with count 0.
    pub fn popularity_curve(&self, top: usize) -> Vec<u32> {
        let counts = self.block_access_counts();
        let mut curve: Vec<u32> = counts.iter().map(|(_, c)| c).collect();
        curve.sort_unstable_by(|a, b| b.cmp(a));
        curve.truncate(top);
        curve.resize(top.min(counts.footprint() as usize), 0);
        curve
    }
}

struct JobIter<'a> {
    trace: &'a Trace,
    req_idx: usize,
    job_idx: usize,
}

impl<'a> Iterator for JobIter<'a> {
    type Item = &'a [TraceRequest];

    fn next(&mut self) -> Option<&'a [TraceRequest]> {
        if self.req_idx >= self.trace.requests.len() {
            return None;
        }
        let len = if self.trace.job_lens.is_empty() {
            1
        } else {
            self.trace.job_lens[self.job_idx] as usize
        };
        let slice = &self.trace.requests[self.req_idx..self.req_idx + len];
        self.req_idx += len;
        self.job_idx += 1;
        Some(slice)
    }
}

impl FromIterator<TraceRequest> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRequest>>(iter: I) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

impl Extend<TraceRequest> for Trace {
    fn extend<I: IntoIterator<Item = TraceRequest>>(&mut self, iter: I) {
        let requests = Arc::make_mut(&mut self.requests);
        let before = requests.len();
        requests.extend(iter);
        let added = requests.len() - before;
        if !self.job_lens.is_empty() {
            // Appended requests become singleton jobs.
            Arc::make_mut(&mut self.job_lens).extend(std::iter::repeat_n(1, added));
        }
    }
}

/// A complete simulator input: the file layout, the disk-access trace
/// over it, and the number of concurrent I/O streams replaying it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable label (appears in reports).
    pub name: String,
    /// The host file system's placement of files.
    pub layout: FileMap,
    /// The disk-access log.
    pub trace: Trace,
    /// Concurrent streams replaying the log (the paper's server worker
    /// count: 16 for the Web server, 128 for proxy and file server).
    pub streams: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(start: u64, n: u32, kind: ReadWrite) -> TraceRequest {
        TraceRequest {
            start: LogicalBlock::new(start),
            nblocks: n,
            kind,
        }
    }

    #[test]
    fn basic_statistics() {
        let t = Trace::new(vec![
            req(0, 4, ReadWrite::Read),
            req(8, 2, ReadWrite::Write),
            req(0, 4, ReadWrite::Read),
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_blocks(), 10);
        assert!((t.write_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((t.mean_request_blocks() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.footprint_blocks(), 10);
    }

    #[test]
    fn empty_trace_statistics() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.write_fraction(), 0.0);
        assert_eq!(t.mean_request_blocks(), 0.0);
        assert_eq!(t.footprint_blocks(), 0);
        assert!(t.popularity_curve(10).is_empty());
    }

    #[test]
    fn access_counts_and_popularity() {
        let t = Trace::new(vec![
            req(0, 2, ReadWrite::Read),
            req(1, 2, ReadWrite::Read),
            req(1, 1, ReadWrite::Write),
        ]);
        let counts = t.block_access_counts();
        assert_eq!(
            counts.iter().collect::<Vec<_>>(),
            vec![(0, 1), (1, 3), (2, 1)]
        );
        assert_eq!(t.popularity_curve(2), vec![3, 1]);
        assert_eq!(t.popularity_curve(10), vec![3, 1, 1]);
    }

    #[test]
    fn popularity_curve_pads_with_untouched_blocks() {
        // Footprint 6, three blocks touched: the curve lists the three
        // untouched blocks of the footprint as zeros, and no more.
        let t = Trace::new(vec![
            req(1, 1, ReadWrite::Read),
            req(1, 1, ReadWrite::Read),
            req(3, 1, ReadWrite::Read),
            req(5, 1, ReadWrite::Write),
        ]);
        assert_eq!(t.popularity_curve(4), vec![2, 1, 1, 0]);
        assert_eq!(t.popularity_curve(10), vec![2, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn default_jobs_are_singletons() {
        let t = Trace::new(vec![req(0, 1, ReadWrite::Read); 3]);
        assert_eq!(t.job_count(), 3);
        let jobs: Vec<usize> = t.jobs().map(|j| j.len()).collect();
        assert_eq!(jobs, vec![1, 1, 1]);
    }

    #[test]
    fn explicit_jobs_group_requests() {
        let t = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); 5], vec![2, 1, 2]);
        assert_eq!(t.job_count(), 3);
        let jobs: Vec<usize> = t.jobs().map(|j| j.len()).collect();
        assert_eq!(jobs, vec![2, 1, 2]);
    }

    #[test]
    fn all_ones_job_lengths_are_not_stored() {
        let reqs: Vec<TraceRequest> = (0..4).map(|i| req(i, 1, ReadWrite::Read)).collect();
        let ones = Trace::with_jobs(reqs.clone(), vec![1; 4]);
        assert!(ones.job_lens().is_empty());
        assert_eq!(ones.job_count(), 4);
        let want: Vec<&[TraceRequest]> = reqs.chunks(1).collect();
        assert_eq!(ones.jobs().collect::<Vec<_>>(), want);
        let mixed = Trace::with_jobs(reqs, vec![1, 2, 1]);
        assert_eq!(mixed.job_lens(), &[1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "cover the requests")]
    fn mismatched_job_lengths_panic() {
        let _ = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); 3], vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_job_panics() {
        let _ = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); 2], vec![2, 0]);
    }

    #[test]
    fn extend_keeps_job_invariant() {
        let mut t = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); 2], vec![2]);
        t.extend([req(5, 1, ReadWrite::Write)]);
        assert_eq!(t.job_count(), 2);
        assert_eq!(t.jobs().last().unwrap().len(), 1);
    }

    #[test]
    fn clone_shares_the_request_buffer() {
        let t = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); 4], vec![2, 2]);
        let c = t.clone();
        assert!(std::ptr::eq(t.requests().as_ptr(), c.requests().as_ptr()));
        assert!(std::ptr::eq(t.job_lens().as_ptr(), c.job_lens().as_ptr()));
    }

    #[test]
    fn extend_on_a_clone_leaves_the_original() {
        let t = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); 2], vec![2]);
        let mut c = t.clone();
        c.extend([req(7, 1, ReadWrite::Write)]);
        assert_eq!((c.len(), c.job_lens()), (3, &[2, 1][..]));
        assert_eq!((t.len(), t.job_lens()), (2, &[2][..]));
        assert!(!std::ptr::eq(t.requests().as_ptr(), c.requests().as_ptr()));
    }

    #[test]
    fn workload_clone_copies_no_requests() {
        let wl = crate::SyntheticWorkload::builder()
            .requests(50)
            .files(100)
            .seed(3)
            .build();
        let copy = wl.clone();
        assert!(std::ptr::eq(
            wl.trace.requests().as_ptr(),
            copy.trace.requests().as_ptr()
        ));
    }

    #[test]
    fn collects_from_iterator() {
        let t: Trace = (0..5).map(|i| req(i, 1, ReadWrite::Read)).collect();
        assert_eq!(t.len(), 5);
        let mut t2 = t.clone();
        t2.extend([req(9, 1, ReadWrite::Write)]);
        assert_eq!(t2.len(), 6);
    }
}
