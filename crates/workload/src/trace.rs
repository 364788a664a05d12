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
///
/// The record is packed to the 13 bytes its fields need (8 + 4 + 1)
/// instead of the 16 alignment would round it up to: a trace is
/// mostly these records, and replay copies one per issue, so a long
/// trace costs 3 bytes less per request. Unaligned fields cannot be
/// borrowed, so read them by value: write `{ r.nblocks }` where a macro
/// such as `format!` or `assert_eq!` would take a reference, and copy
/// a field out before borrowing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed)]
pub struct TraceRequest {
    /// First logical block.
    pub start: LogicalBlock,
    /// Extent length in blocks.
    pub nblocks: u32,
    /// Read or write.
    pub kind: ReadWrite,
}

impl TraceRequest {
    /// One-past-the-end logical block.
    fn end(&self) -> u64 {
        self.start.index() + self.nblocks as u64
    }
}

/// One past the highest block any of `requests` touches (0 if none).
fn footprint(requests: &[TraceRequest]) -> u64 {
    requests.iter().map(TraceRequest::end).max().unwrap_or(0)
}

/// An ordered disk-access log, optionally grouped into *jobs*.
///
/// A job is the request sequence of one server-level operation (e.g.
/// all the disk requests of one whole-file read). The stream driver
/// issues a job's requests sequentially on one stream — a server
/// worker handles one file at a time — while different jobs run
/// concurrently across streams.
///
/// Job boundaries take one bit per request, and none at all when every
/// request is its own job. The requests and boundaries are shared, not
/// owned: `clone` is O(1) and copies no request, so every replay of
/// one workload reads the same buffer. [`Extend`] copies on write when
/// the buffer is shared.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    requests: Arc<Vec<TraceRequest>>,
    /// Bit `i` is set when request `i` ends its job; empty means every
    /// request is its own job.
    job_ends: Arc<Vec<u64>>,
    /// One past the highest block any request touches.
    footprint: u64,
}

impl Trace {
    /// Creates a trace where every request is an independent job.
    /// Spare capacity in `requests` is released in place.
    pub fn new(mut requests: Vec<TraceRequest>) -> Self {
        requests.shrink_to_fit();
        Trace {
            footprint: footprint(&requests),
            requests: Arc::new(requests),
            job_ends: Arc::default(),
        }
    }

    /// Creates a trace with explicit job grouping: consecutive jobs of
    /// `job_lens[j]` requests each.
    ///
    /// # Panics
    ///
    /// Panics if the job lengths do not sum to the request count or any
    /// job is empty.
    pub fn with_jobs(requests: Vec<TraceRequest>, job_lens: Vec<u32>) -> Self {
        let mut b = TraceBuilder {
            job_ends: vec![0; requests.len().div_ceil(64)],
            footprint: footprint(&requests),
            requests,
            closed: 0,
        };
        for len in job_lens {
            b.close_job(len as usize);
        }
        assert_eq!(b.closed, b.len(), "job lengths must cover the requests");
        b.build()
    }

    /// Number of jobs.
    pub fn job_count(&self) -> usize {
        if self.job_ends.is_empty() {
            self.requests.len()
        } else {
            self.job_ends.iter().map(|w| w.count_ones() as usize).sum()
        }
    }

    /// One past the last request of the job that holds request `i`:
    /// replay drivers walk a job as the range `i..job_end(i)` of
    /// [`Trace::requests`].
    ///
    /// # Panics
    ///
    /// May panic if `i` is not below [`Trace::len`].
    pub fn job_end(&self, i: usize) -> usize {
        if self.job_ends.is_empty() {
            return i + 1;
        }
        let mut w = i / 64;
        let mut bits = self.job_ends[w] & (u64::MAX << (i % 64));
        while bits == 0 {
            w += 1;
            bits = self.job_ends[w];
        }
        w * 64 + bits.trailing_zeros() as usize + 1
    }

    /// Iterates over the jobs as request slices.
    pub fn jobs(&self) -> impl Iterator<Item = &[TraceRequest]> + '_ {
        let mut next = 0;
        std::iter::from_fn(move || {
            (next < self.len()).then(|| {
                let end = self.job_end(next);
                let job = &self.requests[next..end];
                next = end;
                job
            })
        })
    }

    /// The logged requests, in arrival order.
    pub fn requests(&self) -> &[TraceRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Heap bytes the trace holds: its requests and job boundaries,
    /// counted in full even while a clone shares them.
    pub fn heap_bytes(&self) -> u64 {
        (self.requests.capacity() * std::mem::size_of::<TraceRequest>()
            + self.job_ends.capacity() * std::mem::size_of::<u64>()) as u64
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

    /// One-past-the-highest logical block touched (0 for an empty
    /// trace), recorded as the trace was built.
    pub fn footprint_blocks(&self) -> u64 {
        self.footprint
    }

    /// Per-block access counts over the whole trace, up to the
    /// footprint. This is the raw data of Figure 2 and the input to the
    /// HDC planner ("the blocks that cause the most misses in the
    /// buffer cache").
    pub fn block_access_counts(&self) -> BlockCounts {
        let mut counts = BlockCounts::with_footprint(self.footprint);
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

/// Marks request `i` as the last of its job.
fn set_job_end(job_ends: &mut [u64], i: usize) {
    job_ends[i / 64] |= 1 << (i % 64);
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
        self.footprint = self.footprint.max(footprint(&requests[before..]));
        if !self.job_ends.is_empty() {
            // Appended requests become singleton jobs.
            let job_ends = Arc::make_mut(&mut self.job_ends);
            job_ends.resize(requests.len().div_ceil(64), 0);
            for i in before..requests.len() {
                set_job_end(job_ends, i);
            }
        }
    }
}

/// Builds a [`Trace`] request by request, recording its job boundaries
/// and footprint on the way, so the trace needs no second pass.
///
/// # Example
///
/// ```
/// use forhdc_sim::{LogicalBlock, ReadWrite};
/// use forhdc_workload::{TraceBuilder, TraceRequest};
///
/// let req = |b| TraceRequest { start: LogicalBlock::new(b), nblocks: 2, kind: ReadWrite::Read };
/// let mut b = TraceBuilder::with_capacity(3);
/// b.push(req(0));
/// b.push(req(2));
/// b.end_job(); // requests 0 and 1 form one job
/// b.push(req(9));
/// let trace = b.build(); // closes the last job
/// assert_eq!(trace.jobs().map(<[TraceRequest]>::len).collect::<Vec<_>>(), vec![2, 1]);
/// assert_eq!(trace.footprint_blocks(), 11);
/// ```
#[derive(Debug, Default)]
pub struct TraceBuilder {
    requests: Vec<TraceRequest>,
    /// The trace's `job_ends` bitmap, one word per 64 requests pushed.
    job_ends: Vec<u64>,
    /// Requests already grouped into jobs.
    closed: usize,
    footprint: u64,
}

impl TraceBuilder {
    /// An empty builder with room for `requests` requests.
    pub fn with_capacity(requests: usize) -> Self {
        TraceBuilder {
            requests: Vec::with_capacity(requests),
            job_ends: Vec::with_capacity(requests.div_ceil(64)),
            ..TraceBuilder::default()
        }
    }

    /// Appends a request to the open job.
    pub fn push(&mut self, r: TraceRequest) {
        if self.requests.len().is_multiple_of(64) {
            self.job_ends.push(0);
        }
        self.footprint = self.footprint.max(r.end());
        self.requests.push(r);
    }

    /// Requests pushed so far.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether no request was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Closes the open job: the requests pushed since the last
    /// boundary form one job. Does nothing when there are none.
    pub fn end_job(&mut self) {
        let open = self.requests.len() - self.closed;
        if open > 0 {
            self.close_job(open);
        }
    }

    /// Closes a job of the first `len` requests after the last
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds the requests pushed since the
    /// last boundary.
    fn close_job(&mut self, len: usize) {
        assert!(len > 0, "jobs must be non-empty");
        assert!(
            self.closed + len <= self.requests.len(),
            "job lengths must cover the requests"
        );
        self.closed += len;
        set_job_end(&mut self.job_ends, self.closed - 1);
    }

    /// Closes the open job and returns the trace. Spare capacity is
    /// released in place, and the boundaries are dropped when every
    /// request is its own job.
    pub fn build(mut self) -> Trace {
        self.end_job();
        let jobs: usize = self.job_ends.iter().map(|w| w.count_ones() as usize).sum();
        if jobs == self.requests.len() {
            self.job_ends = Vec::new();
        }
        self.requests.shrink_to_fit();
        self.job_ends.shrink_to_fit();
        Trace {
            requests: Arc::new(self.requests),
            job_ends: Arc::new(self.job_ends),
            footprint: self.footprint,
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

    fn job_lens(t: &Trace) -> Vec<usize> {
        t.jobs().map(<[TraceRequest]>::len).collect()
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
        assert!(ones.job_ends.is_empty());
        assert_eq!(ones.job_count(), 4);
        let want: Vec<&[TraceRequest]> = reqs.chunks(1).collect();
        assert_eq!(ones.jobs().collect::<Vec<_>>(), want);
        let mixed = Trace::with_jobs(reqs, vec![1, 2, 1]);
        assert_eq!(job_lens(&mixed), [1, 2, 1]);
    }

    #[test]
    fn job_ends_cross_bitmap_words() {
        // Jobs that start, end and span 64-request word boundaries.
        let lens = [1u32, 62, 1, 64, 130, 1, 1, 3];
        let n: u32 = lens.iter().sum();
        let t = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); n as usize], lens.to_vec());
        assert_eq!(job_lens(&t), lens.map(|l| l as usize));
        assert_eq!(t.job_count(), lens.len());
        let mut first = 0;
        for &l in &lens {
            let end = first + l as usize;
            for i in first..end {
                assert_eq!(t.job_end(i), end, "request {i}");
            }
            first = end;
        }
    }

    #[test]
    fn builder_closes_jobs_by_length_or_at_the_end() {
        let mut b = TraceBuilder::with_capacity(4);
        b.end_job(); // nothing open: no empty job
        for i in 0..3 {
            b.push(req(i, 2, ReadWrite::Read));
        }
        b.close_job(1); // the first request, though three are open
        b.push(req(20, 1, ReadWrite::Write));
        b.end_job();
        b.end_job();
        let t = b.build();
        assert_eq!(job_lens(&t), [1, 3]);
        assert_eq!(t.footprint_blocks(), 21);
        assert_eq!(TraceBuilder::default().build().job_count(), 0);
    }

    #[test]
    fn builder_drops_singleton_boundaries() {
        let mut b = TraceBuilder::default();
        for i in 0..100 {
            b.push(req(i, 1, ReadWrite::Read));
            b.end_job();
        }
        let t = b.build();
        assert!(t.job_ends.is_empty());
        assert_eq!(t.heap_bytes(), 13 * 100);
        assert_eq!(t.job_count(), 100);
    }

    #[test]
    #[should_panic(expected = "cover the requests")]
    fn builder_cannot_close_unpushed_requests() {
        let mut b = TraceBuilder::default();
        b.push(req(0, 1, ReadWrite::Read));
        b.close_job(2);
    }

    #[test]
    fn extend_records_the_footprint() {
        let mut t = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); 2], vec![2]);
        t.extend([req(40, 2, ReadWrite::Write)]);
        assert_eq!(t.footprint_blocks(), 42);
        assert_eq!(t.block_access_counts().get(41), 1);
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
        assert!(std::ptr::eq(t.job_ends.as_ptr(), c.job_ends.as_ptr()));
    }

    #[test]
    fn extend_on_a_clone_leaves_the_original() {
        let t = Trace::with_jobs(vec![req(0, 1, ReadWrite::Read); 2], vec![2]);
        let mut c = t.clone();
        c.extend([req(7, 1, ReadWrite::Write)]);
        assert_eq!((c.len(), job_lens(&c)), (3, vec![2, 1]));
        assert_eq!((t.len(), job_lens(&t)), (2, vec![2]));
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
